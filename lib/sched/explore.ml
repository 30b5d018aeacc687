(** DPOR-style schedule exploration driven by the commutativity lattice.

    The explorer walks the tree of schedules of a {!Scheduler.instance}
    depth-first.  Each node is a schedule prefix; running it (prefix
    choices, then the default lowest-tid policy) yields a concrete trace.
    For every decision point at or beyond the prefix and every enabled
    fiber [t] that was {e not} chosen there, a child prefix ending in [t]
    is pushed — {b unless} partial-order reduction proves the branch
    redundant: if [t]'s pending action is {e independent} of every step
    other fibers execute before [t] next runs, executing it earlier
    commutes step-by-step back to the explored trace, so the branch can
    only reach already-covered behaviours.

    Independence is where the paper's lattice comes in.  Two actions are
    independent when the method invocations they belong to {e commute},
    decided by {!Spec.commutes} on the observed arguments and return
    values — the same commutativity conditions the conflict detectors
    enforce at run time prune the model checker's search space.  Lock and
    STM actions inherit the invocations of their context (an acquire
    performed inside [invoke add(3)] is part of that [add]); commit/abort
    actions carry every invocation of their transaction; actions whose
    commutativity cannot be established (no spec, state-dependent
    condition, unobserved return value) are conservatively dependent.
    Same-guard acquires by provably-commuting operations are thus {e not}
    reordered — sound because a correct detector serializes commuting
    critical sections into equivalent orders — while any action reachable
    from an abort path (whose operations include the conflicting
    invocation) stays dependent, which is exactly what lets the explorer
    reach lock-order-inversion deadlocks between invocations and aborts.

    Failing runs (deadlock, crash, oracle violation) are shrunk greedily —
    prefix truncation, then single-choice deletion to a fixpoint — and
    reported with a replayable schedule and a rendered trace.

    {b Domains.}  A frontier node is just its schedule prefix, and its
    children are a deterministic function of the prefix alone
    ({!Scheduler.run} is deterministic and {!expand} is pure), so any
    domain can process any frontier node.  A search that no failure or
    budget stops runs and expands every node exactly once, so its counters
    do not depend on [config.domains], which changes only wall-clock time.
    The nodes go to a {!Pool} of [config.domains] workers: each pops
    from the front of its own deque (depth-first), pushes a node's
    children back to the front, steals when empty and parks when there is
    nothing to steal.  {!Schedpoint} hooks are domain-local, so each
    worker replays schedules through its own virtual scheduler.  Besides
    the pool, the cross-domain state is an atomic run-ticket counter,
    which makes [max_schedules] exact, and an atomic first-failure claim,
    whose winner halts the pool and shrinks alone.  With one domain the
    worker visits nodes in plain depth-first order, so the first failure
    and its shrink are deterministic. *)

open Commlat_core
module Obs = Commlat_obs.Obs
module Jsonx = Commlat_obs.Jsonx
module Pool = Commlat_wsdeque.Pool

type config = {
  por : bool;  (** commutativity pruning (false = explore everything) *)
  max_schedules : int;  (** run budget for the exploration phase *)
  max_steps : int;  (** per-run step budget (catches retry livelocks) *)
  domains : int;  (** worker domains *)
}

let default_config =
  { por = true; max_schedules = 2000; max_steps = 2000; domains = 1 }

(** One domain's counters; the report also carries their sum. *)
type counters = {
  mutable runs : int;  (** schedules actually executed *)
  mutable pruned : int;  (** branches dropped by commutativity pruning *)
  mutable steps : int;  (** total steps across all runs *)
  mutable truncated : int;  (** runs that hit the step budget *)
  mutable shrink_runs : int;  (** extra runs spent shrinking *)
  mutable expanded : int;  (** nodes whose children were generated *)
  mutable pushed : int;  (** children pushed to the local deque *)
  mutable steals : int;  (** successful steals from other deques *)
  mutable steal_misses : int;
      (** full steal sweeps that found nothing (each one parks) *)
}

type failure = {
  f_kind : string;  (** ["deadlock"] | ["crash"] | ["oracle"] *)
  f_detail : string;
  f_schedule : int list;  (** shrunk, replayable *)
  f_trace : string;  (** rendered trace of the shrunk failing run *)
  f_shrunk_from : int;  (** length of the schedule before shrinking *)
}

type report = {
  verdict : failure option;  (** [None] = no counterexample found *)
  c : counters;  (** summed across domains *)
  per_domain : counters array;
  exhausted : bool;
      (** false: the run budget cut the search short, or some run hit the
          step budget (a truncated run is never counted as clean) *)
}

let fresh_counters () =
  {
    runs = 0;
    pruned = 0;
    steps = 0;
    truncated = 0;
    shrink_runs = 0;
    expanded = 0;
    pushed = 0;
    steals = 0;
    steal_misses = 0;
  }

(* ------------------------------------------------------------------ *)
(* The independence relation                                           *)
(* ------------------------------------------------------------------ *)

(** The invocations an action belongs to, for commutativity purposes. *)
let ops_of (info : Trace.info) : Invocation.t list =
  match info.Trace.i_action with
  | Schedpoint.Invoke { inv; _ } -> [ inv ]
  | Schedpoint.Commit _ | Schedpoint.Abort _ -> info.Trace.i_invs
  | Schedpoint.Acquire _ | Schedpoint.Release _ | Schedpoint.Read _
  | Schedpoint.Write _ -> (
      match info.Trace.i_ctx with
      | Trace.In_invoke inv -> [ inv ]
      | Trace.In_commit | Trace.In_abort -> info.Trace.i_invs
      | Trace.Top -> [])

(** Do [i1] (observed first) and [i2] provably commute?  [executed] marks
    the invocations whose return values are real. *)
let commute_pair spec executed (i1 : Invocation.t) (i2 : Invocation.t) =
  match spec with
  | None -> false
  | Some s -> (
      let known i = Hashtbl.mem executed i.Invocation.uid in
      match
        Spec.commutes ~ret1_known:(known i1) ~ret2_known:(known i2) s i1 i2
      with
      | Some true -> true
      | Some false | None -> false)

(** [dependent spec executed earlier later]: may the two actions fail to
    commute?  [earlier] executed (or would execute) before [later]. *)
let dependent spec executed (earlier : Trace.info) (later : Trace.info) =
  let a1 = earlier.Trace.i_action and a2 = later.Trace.i_action in
  match (a1, a2) with
  (* distinct guards never interact as locks *)
  | ( (Schedpoint.Acquire g1 | Schedpoint.Release g1),
      (Schedpoint.Acquire g2 | Schedpoint.Release g2) )
    when g1 <> g2 -> false
  (* STM cells: read/read is independent; anything else on one cell is a
     data conflict *)
  | ( (Schedpoint.Read c1 | Schedpoint.Write c1),
      (Schedpoint.Read c2 | Schedpoint.Write c2) ) ->
      c1 = c2
      && not
           (match (a1, a2) with
           | Schedpoint.Read _, Schedpoint.Read _ -> true
           | _ -> false)
  | _ ->
      (* Same guard, or detector-protocol actions: dependent unless every
         pair of the invocations they belong to provably commutes.  An
         empty operation list (action outside any invocation, e.g. a
         commit that never invoked) is conservatively dependent. *)
      let ops1 = ops_of earlier and ops2 = ops_of later in
      not
        (ops1 <> [] && ops2 <> []
        && List.for_all
             (fun i1 ->
               List.for_all (fun i2 -> commute_pair spec executed i1 i2) ops2)
             ops1)

(* ------------------------------------------------------------------ *)
(* Failure classification                                              *)
(* ------------------------------------------------------------------ *)

let failure_of_run (r : Scheduler.result) : (string * string) option =
  match r.Scheduler.status with
  | Scheduler.Deadlock _ ->
      Some ("deadlock", Fmt.str "%a" Scheduler.pp_status r.Scheduler.status)
  | Scheduler.Crashed _ ->
      Some ("crash", Fmt.str "%a" Scheduler.pp_status r.Scheduler.status)
  | Scheduler.Completed -> (
      match r.Scheduler.oracle_failure with
      | Some msg -> Some ("oracle", msg)
      | None -> None)
  | Scheduler.Truncated -> None

(* ------------------------------------------------------------------ *)
(* Shrinking                                                           *)
(* ------------------------------------------------------------------ *)

(** Greedy shrink: shortest failing prefix first (the tail is replaced by
    the deterministic default policy), then delete single choices to a
    fixpoint.  Same failure {e kind} counts as "still failing". *)
let shrink ~max_steps ~(c : counters) mk kind (schedule : int list) :
    int list * Scheduler.result =
  let fails sched =
    c.shrink_runs <- c.shrink_runs + 1;
    let r = Scheduler.run ~max_steps ~schedule:sched mk in
    c.steps <- c.steps + List.length r.Scheduler.steps;
    match failure_of_run r with
    | Some (k, _) when k = kind -> Some r
    | _ -> None
  in
  let arr = Array.of_list schedule in
  let n = Array.length arr in
  (* shortest failing prefix, linear scan from the front *)
  let best = ref (schedule, None) in
  (try
     for len = 0 to n - 1 do
       let cand = Array.to_list (Array.sub arr 0 len) in
       match fails cand with
       | Some r ->
           best := (cand, Some r);
           raise Exit
       | None -> ()
     done
   with Exit -> ());
  let cur = ref (fst !best) in
  (* single-choice deletion to fixpoint *)
  let improved = ref true in
  while !improved do
    improved := false;
    let a = Array.of_list !cur in
    (try
       for i = 0 to Array.length a - 1 do
         let cand =
           Array.to_list a |> List.filteri (fun j _ -> j <> i)
         in
         match fails cand with
         | Some r ->
             cur := cand;
             best := (cand, Some r);
             improved := true;
             raise Exit
         | None -> ()
       done
     with Exit -> ())
  done;
  let final_sched = !cur in
  match snd !best with
  | Some r -> (final_sched, r)
  | None ->
      (* nothing shorter failed; re-run the original for its trace *)
      let r = Scheduler.run ~max_steps ~schedule:final_sched mk in
      c.shrink_runs <- c.shrink_runs + 1;
      (final_sched, r)

(* ------------------------------------------------------------------ *)
(* Exploration                                                         *)
(* ------------------------------------------------------------------ *)

(** What {!expand} found at one node: child prefixes in {e generation
    order} (outermost decision's first alternative first) plus how many
    branches commutativity pruning dropped. *)
type expansion = { children : int list list; x_pruned : int }

(** Generate the backtrack children of the node [prefix] from the run [r]
    it produced: for every decision at or beyond the prefix and every
    enabled alternative fiber, a child prefix — unless partial-order
    reduction proves the branch redundant.  Pure, so any domain can expand
    any node. *)
let expand ~por ~spec (r : Scheduler.result) (prefix : int list) : expansion =
  let x_pruned = ref 0 in
  let steps = Array.of_list r.Scheduler.steps in
  let nsteps = Array.length steps in
  let choices = Array.of_list r.Scheduler.choices in
  (* next index >= k at which fiber t executes, or nsteps *)
  let next_exec k t =
    let rec go j =
      if j >= nsteps then nsteps
      else if steps.(j).Trace.s_tid = t then j
      else go (j + 1)
    in
    go k
  in
  let must_branch k t (alt : Trace.info) =
    if not por then true
    else begin
      let m = next_exec k t in
      let rec scan j =
        j < m
        && (dependent spec r.Scheduler.executed steps.(j).Trace.s_info alt
           || scan (j + 1))
      in
      scan k
    end
  in
  let children = ref [] in
  for k = List.length prefix to nsteps - 1 do
    List.iter
      (fun (t, _att, alt) ->
        if must_branch k t alt then
          children :=
            (Array.to_list (Array.sub choices 0 k) @ [ t ]) :: !children
        else incr x_pruned)
      steps.(k).Trace.s_alts
  done;
  { children = List.rev !children; x_pruned = !x_pruned }

(* ------------------------------------------------------------------ *)
(* Canonical trace keys                                                *)
(* ------------------------------------------------------------------ *)

(** The canonical linearization of a run's happens-before partial order:
    greedy smallest-tid topological sort over program order +
    {!dependent} edges (within one thread only the earliest unscheduled
    event is ready, so the choice is total), rendered with
    {!Trace.render}'s first-appearance normalization.  Two runs are
    Mazurkiewicz-equivalent iff their keys are equal.  The search never
    computes it: it is the oracle the tests count distinct traces with. *)
let canonical_key spec (r : Scheduler.result) : string =
  let arr = Array.of_list r.Scheduler.steps in
  let n = Array.length arr in
  let succs = Array.make n [] in
  let indeg = Array.make n 0 in
  for j = 0 to n - 1 do
    for i = 0 to j - 1 do
      if
        arr.(i).Trace.s_tid = arr.(j).Trace.s_tid
        || dependent spec r.Scheduler.executed arr.(i).Trace.s_info
             arr.(j).Trace.s_info
      then begin
        succs.(i) <- j :: succs.(i);
        indeg.(j) <- indeg.(j) + 1
      end
    done
  done;
  let module Ready = Set.Make (struct
    type t = int * int (* (tid, step index) *)

    let compare = compare
  end) in
  let ready = ref Ready.empty in
  for i = 0 to n - 1 do
    if indeg.(i) = 0 then ready := Ready.add (arr.(i).Trace.s_tid, i) !ready
  done;
  let order = ref [] in
  while not (Ready.is_empty !ready) do
    let ((_, i) as e) = Ready.min_elt !ready in
    ready := Ready.remove e !ready;
    order := i :: !order;
    List.iter
      (fun j ->
        indeg.(j) <- indeg.(j) - 1;
        if indeg.(j) = 0 then ready := Ready.add (arr.(j).Trace.s_tid, j) !ready)
      succs.(i)
  done;
  Trace.render (List.rev_map (fun i -> arr.(i)) !order)

(* ------------------------------------------------------------------ *)
(* Exploration                                                         *)
(* ------------------------------------------------------------------ *)

(** Explore [mk]'s schedule tree on [config.domains] domains.  [obs], when
    given, receives the [schedules_run] / [schedules_pruned] counters
    (bumped from all domains). *)
let explore ?(config = default_config) ?obs (mk : unit -> Scheduler.instance) :
    report =
  let { por; max_schedules; max_steps; _ } = config in
  let ndom = max 1 config.domains in
  let counter name = Option.map (fun o -> Obs.counter o name) obs in
  let o_runs = counter "schedules_run"
  and o_pruned = counter "schedules_pruned" in
  let bump cnt n = Option.iter (fun x -> Obs.add x n) cnt in
  let spec = (mk ()).Scheduler.spec in
  let per_domain = Array.init ndom (fun _ -> fresh_counters ()) in
  let tickets = Atomic.make 0 in
  let budget_hit = Atomic.make false in
  let claimed = Atomic.make false in
  let failure : failure option ref =
    ref None (* written by the claim winner only; read after joins *)
  in
  let process pool me prefix =
    let d = per_domain.(me) in
    if Atomic.fetch_and_add tickets 1 >= max_schedules then begin
      (* budget honesty: this node was frontier work we did NOT run *)
      Atomic.set budget_hit true;
      Pool.halt pool
    end
    else begin
      let r = Scheduler.run ~max_steps ~schedule:prefix mk in
      d.runs <- d.runs + 1;
      bump o_runs 1;
      d.steps <- d.steps + List.length r.Scheduler.steps;
      if r.Scheduler.status = Scheduler.Truncated then
        d.truncated <- d.truncated + 1;
      match failure_of_run r with
      | Some (kind, _) ->
          if Atomic.compare_and_set claimed false true then begin
            Pool.halt pool;
            let sched, rr = shrink ~max_steps ~c:d mk kind r.Scheduler.choices in
            let detail =
              match failure_of_run rr with
              | Some (_, dd) -> dd
              | None -> "failure did not reproduce on shrunk schedule"
            in
            failure :=
              Some
                {
                  f_kind = kind;
                  f_detail = detail;
                  f_schedule = sched;
                  f_trace = Trace.render rr.Scheduler.steps;
                  f_shrunk_from = List.length r.Scheduler.choices;
                }
          end
      | None -> (
          let x = expand ~por ~spec r prefix in
          d.pruned <- d.pruned + x.x_pruned;
          bump o_pruned x.x_pruned;
          d.expanded <- d.expanded + 1;
          match x.children with
          | [] -> ()
          | children ->
              (* push in generation order: the LAST decision's branch ends
                 up at the front, so it is explored first *)
              Pool.push_front pool children;
              d.pushed <- d.pushed + List.length children)
    end
  in
  Pool.run ~domains:ndom [ [] ] process
  |> Array.iteri (fun i (steals, misses) ->
         per_domain.(i).steals <- steals;
         per_domain.(i).steal_misses <- misses);
  let c = fresh_counters () in
  Array.iter
    (fun d ->
      c.runs <- c.runs + d.runs;
      c.pruned <- c.pruned + d.pruned;
      c.steps <- c.steps + d.steps;
      c.truncated <- c.truncated + d.truncated;
      c.shrink_runs <- c.shrink_runs + d.shrink_runs;
      c.expanded <- c.expanded + d.expanded;
      c.pushed <- c.pushed + d.pushed;
      c.steals <- c.steals + d.steals;
      c.steal_misses <- c.steal_misses + d.steal_misses)
    per_domain;
  {
    verdict = !failure;
    c;
    per_domain;
    exhausted =
      !failure <> None || ((not (Atomic.get budget_hit)) && c.truncated = 0);
  }

(* ------------------------------------------------------------------ *)
(* Replay                                                              *)
(* ------------------------------------------------------------------ *)

(** Replay one schedule; used by the CLI's [--replay] and the pinned
    regression tests. *)
let replay ?(max_steps = default_config.max_steps) ~schedule mk :
    Scheduler.result =
  Scheduler.run ~max_steps ~schedule mk

(* ------------------------------------------------------------------ *)
(* Reporting                                                           *)
(* ------------------------------------------------------------------ *)

let json_of_domain i (d : counters) : Jsonx.t =
  Jsonx.Obj
    [
      ("domain", Jsonx.Int i);
      ("runs", Jsonx.Int d.runs);
      ("steps", Jsonx.Int d.steps);
      ("truncated", Jsonx.Int d.truncated);
      ("pruned", Jsonx.Int d.pruned);
      ("expanded", Jsonx.Int d.expanded);
      ("pushed", Jsonx.Int d.pushed);
      ("steals", Jsonx.Int d.steals);
      ("steal_misses", Jsonx.Int d.steal_misses);
      ("shrink_runs", Jsonx.Int d.shrink_runs);
    ]

(** JSON document (schema ["commlat-explore/1"]).  [sleep_set_hits] is
    always 0: the explorer has no sleep set, but perfbench/explore.py reads
    the key. *)
let json_of_report ~workload ~detector ~txns ~(config : config) ?obs_snapshot
    (r : report) : Jsonx.t =
  let fail_json =
    match r.verdict with
    | None -> Jsonx.Null
    | Some f ->
        Jsonx.Obj
          [
            ("kind", Jsonx.Str f.f_kind);
            ("detail", Jsonx.Str f.f_detail);
            ( "schedule",
              Jsonx.List (List.map (fun t -> Jsonx.Int t) f.f_schedule) );
            ("shrunk_from_length", Jsonx.Int f.f_shrunk_from);
            ("trace", Jsonx.Str f.f_trace);
          ]
  in
  Jsonx.Obj
    ([
       ("schema", Jsonx.Str "commlat-explore/1");
       ("workload", Jsonx.Str workload);
       ("detector", Jsonx.Str detector);
       ("txns", Jsonx.Int txns);
       ("domains", Jsonx.Int (Array.length r.per_domain));
       ("por", Jsonx.Bool config.por);
       ("max_schedules", Jsonx.Int config.max_schedules);
       ("max_steps", Jsonx.Int config.max_steps);
       ("schedules_run", Jsonx.Int r.c.runs);
       ("schedules_pruned", Jsonx.Int r.c.pruned);
       ("sleep_set_hits", Jsonx.Int 0);
       ("steps_total", Jsonx.Int r.c.steps);
       ("truncated_runs", Jsonx.Int r.c.truncated);
       ("shrink_runs", Jsonx.Int r.c.shrink_runs);
       ("exhausted", Jsonx.Bool r.exhausted);
       ( "verdict",
         Jsonx.Str
           (match r.verdict with None -> "ok" | Some _ -> "counterexample") );
       ("counterexample", fail_json);
       ( "per_domain",
         Jsonx.List (Array.to_list (Array.mapi json_of_domain r.per_domain)) );
     ]
    @
    match obs_snapshot with
    | Some s -> [ ("obs", Obs.snapshot_to_json s) ]
    | None -> [])
