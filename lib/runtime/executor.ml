(** Speculative executors for amorphous data-parallel loops.

    Applications are expressed Galois-style: a worklist of items and an
    {e operator} that processes one item inside a transaction, performing
    method invocations on shared ADTs through a conflict {!Detector} and
    returning newly generated work.  Two executors are provided:

    - {!run_rounds} — a deterministic {e bulk-synchronous} speculative
      executor: in each round up to [processors] pending items execute as
      concurrent transactions (their locks/log entries coexist in the
      detector), survivors commit at the end of the round, conflict victims
      roll back and retry in a later round.  With [processors = max_int] and
      unit costs this is exactly the ParaMeter methodology the paper uses to
      measure available parallelism (see {!Parameter}); with a finite
      [processors] it is the discrete-event simulator behind the
      runtime-vs-threads figures (DESIGN.md §4.1).
    - {!run_domains} — real concurrency on OCaml 5 domains, used by the
      integration tests; interleaving is at method-invocation granularity.

    The operator {b must} register an undo action with its transaction for
    every mutation it performs, so aborts can roll back. *)

open Commlat_core
module Obs = Commlat_obs.Obs
module Wsdeque = Commlat_wsdeque.Wsdeque

type stats = {
  committed : int;  (** iterations that committed *)
  aborted : int;  (** iteration executions that rolled back *)
  rounds : int option;
      (** # of bulk-synchronous rounds = critical path length.  [None] for
          {!run_domains}: a free-running parallel execution has no rounds,
          and reporting 0 used to make {!parallelism} print
          [committed /. 1] — an absurd figure. *)
  makespan : float;
      (** {!run_rounds}: sum over rounds of the max iteration cost (cost
          units).  {!run_domains}: real elapsed seconds (= [wall_s]). *)
  total_work : float;
      (** {!run_rounds}: summed cost of every execution, retries included
          (cost units).  {!run_domains}: summed per-domain busy seconds. *)
  wall_s : float;  (** real elapsed seconds *)
  backoff_seed : int option;
      (** {!run_domains}: the seed of the per-domain backoff-jitter RNGs,
          recorded so a run's backoff behaviour can be reproduced.  [None]
          for bulk-synchronous runs, which never back off. *)
}

let pp_rounds ppf = function
  | Some r -> Fmt.int ppf r
  | None -> Fmt.string ppf "-"

let pp_seed ppf = function
  | Some s -> Fmt.pf ppf " backoff-seed=%d" s
  | None -> ()

let pp_stats ppf s =
  Fmt.pf ppf
    "committed=%d aborted=%d (abort ratio %.2f%%) rounds=%a makespan=%g \
     total=%g wall=%.3fs%a"
    s.committed s.aborted
    (100.0 *. float_of_int s.aborted /. float_of_int (max 1 (s.committed + s.aborted)))
    pp_rounds s.rounds s.makespan s.total_work s.wall_s pp_seed s.backoff_seed

let abort_ratio s =
  float_of_int s.aborted /. float_of_int (max 1 (s.committed + s.aborted))

(** The round count of a bulk-synchronous run.  Raises [Invalid_argument]
    on {!run_domains} stats, which have no rounds. *)
let rounds_exn s =
  match s.rounds with
  | Some r -> r
  | None -> invalid_arg "Executor.rounds_exn: a domains run has no rounds"

(** Average parallelism.  Bulk-synchronous runs: committed iterations per
    round (the ParaMeter sense).  Domain runs ([rounds = None]): effective
    parallelism [total_work /. wall_s] — summed busy seconds over elapsed
    seconds, at most the domain count. *)
let parallelism s =
  match s.rounds with
  | Some r -> float_of_int s.committed /. float_of_int (max 1 r)
  | None -> if s.wall_s > 0.0 then s.total_work /. s.wall_s else 0.0

(* ------------------------------------------------------------------ *)
(* Bulk-synchronous speculative executor                               *)
(* ------------------------------------------------------------------ *)

(* A functional deque: conflict victims are pushed to the {e front} so they
   run first in the next round.  The first transaction of a round can never
   conflict (it checks against an empty active set), so this policy makes
   global progress provable — and breaks the reader-pins-writer livelocks
   that plain FIFO retry can cycle through forever (a contention-management
   decision; the paper notes each benchmark used "the best available
   contention manager"). *)
(* Per-run observability hooks: counters for commit/abort/retry, per-round
   commit/abort histograms and abort events, recorded into the caller's
   registry when one is supplied ([?obs]).  A [None] costs one branch per
   recording site. *)
type obs_hooks = {
  o_commit : Obs.counter;
  o_abort : Obs.counter;
  o_retry : Obs.counter;
  o_rounds : Obs.counter;
  o_round_commits : Obs.dist;
  o_round_aborts : Obs.dist;
  o_obs : Obs.t;
}

let obs_hooks = function
  | None -> None
  | Some obs ->
      Some
        {
          o_commit = Obs.counter obs "committed";
          o_abort = Obs.counter obs "aborted";
          o_retry = Obs.counter obs "retries";
          o_rounds = Obs.counter obs "rounds";
          o_round_commits = Obs.dist obs "round_commits";
          o_round_aborts = Obs.dist obs "round_aborts";
          o_obs = obs;
        }

let run_rounds ?(processors = 4) ?(cost = fun _ -> 1.0) ?obs
    ~(detector : Detector.t) ~(operator : Txn.t -> 'w -> 'w list)
    (init : 'w list) : stats =
  let oh = obs_hooks obs in
  let front = ref [] and back = ref [] and size = ref 0 in
  let push_back w =
    back := w :: !back;
    incr size
  in
  let push_front_all ws =
    front := ws @ !front;
    size := !size + List.length ws
  in
  let rec pop () =
    match !front with
    | w :: rest ->
        front := rest;
        decr size;
        w
    | [] ->
        assert (!back <> []);
        front := List.rev !back;
        back := [];
        pop ()
  in
  List.iter push_back init;
  let committed = ref 0 and aborted = ref 0 and rounds = ref 0 in
  let makespan = ref 0.0 and total = ref 0.0 in
  let t0 = Stats.now_s () in
  while !size > 0 do
    incr rounds;
    let batch_size = min processors !size in
    let batch = List.init batch_size (fun _ -> pop ()) in
    let round_max = ref 0.0 in
    let survivors = ref [] (* (txn, new work), newest first *) in
    let retry = ref [] in
    List.iter
      (fun item ->
        let txn = Txn.fresh () in
        let c = cost item in
        total := !total +. c;
        if c > !round_max then round_max := c;
        match operator txn item with
        | produced -> survivors := (txn, produced) :: !survivors
        | exception Detector.Conflict { reason; _ } ->
            incr aborted;
            Boost.abort detector txn;
            (match oh with
            | Some h ->
                Obs.incr h.o_abort;
                Obs.incr h.o_retry;
                Obs.event h.o_obs ~tag:"abort" reason
            | None -> ());
            retry := item :: !retry)
      batch;
    (* Commit survivors (releases their locks / log entries), then requeue:
       conflict victims at the front, freshly produced work at the back. *)
    List.iter
      (fun (txn, produced) ->
        incr committed;
        Boost.commit detector txn;
        List.iter push_back produced)
      (List.rev !survivors);
    (match oh with
    | Some h ->
        let n_commit = List.length !survivors and n_abort = List.length !retry in
        Obs.add h.o_commit n_commit;
        Obs.incr h.o_rounds;
        Obs.observe h.o_round_commits n_commit;
        Obs.observe h.o_round_aborts n_abort
    | None -> ());
    push_front_all (List.rev !retry);
    makespan := !makespan +. !round_max
  done;
  {
    committed = !committed;
    aborted = !aborted;
    rounds = Some !rounds;
    makespan = !makespan;
    total_work = !total;
    wall_s = Stats.now_s () -. t0;
    backoff_seed = None;
  }

(** Plain sequential execution (one item at a time, conflict detection
    still active if the detector has any).  [run_rounds ~processors:1]
    specialised; used for the overhead measurements [o_d]. *)
let run_sequential ?cost ?obs ~detector ~operator init =
  run_rounds ~processors:1 ?cost ?obs ~detector ~operator init

(* ------------------------------------------------------------------ *)
(* Domain-based executor                                               *)
(* ------------------------------------------------------------------ *)

(* Observability hooks for the domain executor.  Deliberately a different
   set from {!obs_hooks}: a free-running parallel execution has no rounds,
   so recording a [rounds] counter or per-round histograms would make
   `commlat stats` render empty distributions as if no work happened.
   Those fields are simply absent from domain-run snapshots (the snapshot
   schema is generic, so `commlat stats --validate` accepts both shapes);
   instead we record steals and the per-domain commit distribution. *)
type domain_hooks = {
  dh_commit : Obs.counter;
  dh_abort : Obs.counter;
  dh_retry : Obs.counter;
  dh_steal : Obs.counter;  (** items taken from another domain's deque *)
  dh_domain_commits : Obs.dist;  (** one sample per domain: its commits *)
  dh_obs : Obs.t;
}

let domain_hooks = function
  | None -> None
  | Some obs ->
      Some
        {
          dh_commit = Obs.counter obs "committed";
          dh_abort = Obs.counter obs "aborted";
          dh_retry = Obs.counter obs "retries";
          dh_steal = Obs.counter obs "steals";
          dh_domain_commits = Obs.dist obs "domain_commits";
          dh_obs = obs;
        }

(** Real concurrency on OCaml 5 domains.  There is no global serialization:
    each worker domain runs operators concurrently, and every shared
    mutable path is protected by the layer that owns it —

    - {e detector state and the ADT's concrete state}: each detector's
      internal {!Guard.t} (its [on_invoke] executes the method inside its
      critical section, so concurrent transactions interleave at
      method-invocation granularity, exactly the atomicity §2.1 assumes);
    - {e the undo log}: private to its transaction until an abort, when
      {!Boost.abort} replays it while holding {e every} involved detector's
      guard, so a concurrent general-gatekeeper undo/redo sweep can never
      interleave with — and re-apply — writes the rollback is reverting;
      [on_abort] then re-enters those guards;
    - {e the work supply}: one {!Wsdeque} per domain (owner pops the front,
      retries go back to the front, new work to the back; idle domains
      steal from other deques' backs).

    Termination is exact, not spun-for: [pending] counts queued-or-running
    items and is updated {e once} per completed item
    ([fetch_and_add (k-1)] {e before} the [k] children are published, so it
    never transiently under-counts).  A worker finding every deque empty
    sleeps on a condition variable, guarded by a wake version number read
    before it scanned — a publish between scan and sleep changes the
    version and the sleep is skipped, so wakeups cannot be missed.  The
    worker that drives [pending] to zero broadcasts, and everyone exits.

    Commit order: {!Boost.commit} runs the detector's [on_commit]
    (releasing locks/log entries) before discarding the undo log, and only
    then are the commit counters incremented — a raising commit hook finds
    stats untouched and the undo log intact, so the transaction is rolled
    back before the failure propagates.

    A non-[Conflict] exception from the operator (or a commit hook) is a
    bug in the operator, not speculation: the raising transaction is rolled
    back, every worker is told to stop, and the exception is re-raised
    (with its backtrace) after all domains have joined.

    Returned stats: [rounds = None] (no rounds exist to count — see
    {!stats}), [makespan = wall_s], [total_work] = summed per-domain busy
    seconds, so {!parallelism} reports effective parallelism
    [total_work /. wall_s]. *)
let run_domains ?(domains = 2) ?(backoff_seed = 0x5eedbacc) ?obs
    ~(detector : Detector.t)
    ~(operator : Detector.t -> Txn.t -> 'w -> 'w list) (init : 'w list) : stats =
  let dh = domain_hooks obs in
  let det = detector in
  let operator = operator det in
  let n = max 1 domains in
  let deques = Array.init n (fun _ -> Wsdeque.create ()) in
  List.iteri (fun i w -> Wsdeque.push_back deques.(i mod n) w) init;
  let pending = Atomic.make (List.length init) in
  let committed = Atomic.make 0 and aborted = Atomic.make 0 in
  let steals = Atomic.make 0 in
  let stop = Atomic.make false in
  let failure = Atomic.make None in
  (* sleep/wake protocol: [wake] is a version number bumped on every
     publish; sleepers re-check it (under [idle_mu]) against the value they
     read before scanning the deques *)
  let wake = Atomic.make 0 in
  let idle_mu = Mutex.create () in
  let idle_cv = Condition.create () in
  let notify () =
    Atomic.incr wake;
    Mutex.protect idle_mu (fun () -> Condition.broadcast idle_cv)
  in
  let record_failure e bt =
    (* first failure wins; any later ones are secondary casualties *)
    ignore (Atomic.compare_and_set failure None (Some (e, bt)));
    Atomic.set stop true;
    notify ()
  in
  let domain_commits = Array.make n 0 in
  let busy = Array.make n 0.0 in
  let t0 = Stats.now_s () in
  let worker me () =
    let mine = deques.(me) in
    let steal_one () =
      let rec go k =
        if k >= n then None
        else
          match Wsdeque.steal deques.((me + k) mod n) with
          | Some _ as r ->
              Atomic.incr steals;
              (match dh with Some h -> Obs.incr h.dh_steal | None -> ());
              r
          | None -> go (k + 1)
      in
      go 1
    in
    (* Consecutive failed attempts by this worker: the retry backoff below
       scales with it, and any successful commit resets it.  The RNG
       jitters each sleep so workers that lost to the same transaction
       don't wake in lockstep and immediately re-collide; seeding it from
       [backoff_seed] and the worker index keeps runs reproducible (the
       seed is recorded in the returned stats). *)
    let setbacks = ref 0 in
    let rng = Random.State.make [| backoff_seed; me |] in
    let process item =
      let t_item = Stats.now_s () in
      let txn = Txn.fresh () in
      (match operator txn item with
      | produced -> (
          match Boost.commit det txn with
          | () ->
              setbacks := 0;
              Atomic.incr committed;
              domain_commits.(me) <- domain_commits.(me) + 1;
              (match dh with Some h -> Obs.incr h.dh_commit | None -> ());
              let k = List.length produced in
              if k > 0 then begin
                (* the children replace their parent in [pending] with one
                   atomic update, BEFORE they are published: the counter
                   never transiently under-counts queued work, so no worker
                   can conclude termination early *)
                ignore (Atomic.fetch_and_add pending (k - 1));
                Wsdeque.push_back_all mine produced;
                notify ()
              end
              else if Atomic.fetch_and_add pending (-1) = 1 then
                (* that was the last pending item: wake sleepers to exit *)
                notify ()
          | exception e ->
              (* raising commit hook: stats untouched, undo log intact *)
              let bt = Printexc.get_raw_backtrace () in
              Boost.abort det txn;
              record_failure e bt)
      | exception Detector.Conflict { reason; _ } ->
          Boost.abort det txn;
          Atomic.incr aborted;
          (match dh with
          | Some h ->
              Obs.incr h.dh_abort;
              Obs.incr h.dh_retry;
              Obs.event h.dh_obs ~tag:"abort" reason
          | None -> ());
          (* retry-at-front on our own deque; [pending] unchanged.  The
             item stays with an awake worker, so no notify is needed.
             Back off before retrying: the transaction we lost to lives on
             another domain, and with more domains than cores it may be
             descheduled — burning our whole timeslice re-conflicting with
             it (and paying a gatekeeper sweep per attempt) starves it of
             the CPU it needs to finish.  Spin for the first few setbacks,
             then sleep with capped exponential growth, which yields the
             processor to the very transaction we are waiting on. *)
          Wsdeque.push_front mine item;
          incr setbacks;
          if !setbacks <= 4 then Domain.cpu_relax ()
          else begin
            let base =
              min 0.002 (5e-5 *. float_of_int (1 lsl min 10 (!setbacks - 4)))
            in
            Unix.sleepf (base *. (0.5 +. Random.State.float rng 1.0))
          end
      | exception e ->
          let bt = Printexc.get_raw_backtrace () in
          Boost.abort det txn;
          record_failure e bt);
      busy.(me) <- busy.(me) +. (Stats.now_s () -. t_item)
    in
    let running = ref true in
    while !running && not (Atomic.get stop) do
      (* read the wake version BEFORE scanning: a publish landing after the
         scan bumps it, and the sleep check below catches the change *)
      let v = Atomic.get wake in
      match Wsdeque.pop mine with
      | Some item -> process item
      | None -> (
          match steal_one () with
          | Some item -> process item
          | None ->
              if Atomic.get pending = 0 then running := false
              else
                Mutex.protect idle_mu (fun () ->
                    if
                      Atomic.get wake = v
                      && Atomic.get pending > 0
                      && not (Atomic.get stop)
                    then Condition.wait idle_cv idle_mu))
    done
  in
  let guarded_worker me () =
    (* nothing may escape a worker: an uncaught exception must stop the
       fleet rather than strand it *)
    try worker me () with e -> record_failure e (Printexc.get_raw_backtrace ())
  in
  let ds =
    List.init (n - 1) (fun i -> Domain.spawn (fun () -> guarded_worker (i + 1) ()))
  in
  guarded_worker 0 ();
  List.iter Domain.join ds;
  (match dh with
  | Some h -> Array.iter (Obs.observe h.dh_domain_commits) domain_commits
  | None -> ());
  (match Atomic.get failure with
  | Some (e, bt) -> Printexc.raise_with_backtrace e bt
  | None -> ());
  let wall_s = Stats.now_s () -. t0 in
  {
    committed = Atomic.get committed;
    aborted = Atomic.get aborted;
    rounds = None;
    makespan = wall_s;
    total_work = Array.fold_left ( +. ) 0.0 busy;
    wall_s;
    backoff_seed = Some backoff_seed;
  }
