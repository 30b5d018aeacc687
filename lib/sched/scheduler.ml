(** Deterministic cooperative scheduler over effect-handler fibers.

    A {!instance} is a set of transaction bodies over one conflict
    detector.  {!run} executes them all on a single domain as cooperative
    fibers: a {!Commlat_core.Schedpoint} hook turns every synchronization
    point (guard acquire/release, detector invoke/commit/abort, STM cell
    read/write) into an effect that suspends the performing fiber, and the
    scheduler decides who runs next — following an explicit schedule
    prefix, then a fixed default policy (lowest-numbered enabled fiber).
    Given the same instance factory and the same schedule, a run is fully
    deterministic and its rendered trace is byte-identical.

    Real [Guard] mutexes cannot block here: all fibers share one domain,
    so the guard's same-domain reentrancy turns them into depth counters.
    Mutual exclusion is instead enforced {e virtually} — the scheduler
    tracks each held guard's (owner fiber, depth) and refuses to run a fiber
    whose pending [Acquire] targets a guard another fiber virtually holds.
    When every unfinished fiber is blocked this way the run reports a
    {!status.Deadlock} with the wait-for cycle: exactly how a lock-order
    inversion (the Abstract_lock ABBA bug the previous release fixed)
    surfaces deterministically.

    Transactions end through the same code the executors and the server
    use: the body runs under a fresh [Txn.t]; on success {!Boost.commit}; on
    {!Detector.Conflict} {!Boost.abort} rolls back under every involved
    guard — whose acquisitions are themselves yield points, which is
    precisely what lets the explorer interleave an abort against a
    concurrent invocation — and the fiber retries. *)

open Commlat_core
open Commlat_runtime

type task = { body : det:Detector.t -> txn:Txn.t -> unit }

(** One runnable concurrency-test workload.  Its factory builds a {e
    fresh} instance every run — new ADT state, new detector state (obs
    counters, active tables, logs), new guards — because exploration
    replays the workload from its initial state under many schedules.

    What depends only on the workload may be built once, outside the
    factory, and shared by every instance: a detector's spec stage
    ({!Commlat_runtime.Protect.prepare}), specs, plans, an input the
    factory copies.  The explorer's domains call the factory at the same
    time, so such shared values must never change after construction: a
    run may read them and copy them, and must not write them. *)
type instance = {
  det : Detector.t;
  spec : Spec.t option;
      (** the commutativity spec driving the explorer's independence
          relation; [None] means "nothing commutes" (explore everything) *)
  tasks : task array;  (** one transaction per fiber; index = tid *)
  final : unit -> Value.t;  (** current abstract state, for oracles *)
  oracle : Invocation.t list -> string option;
      (** post-run check over the committed history (program order within
          each transaction); [Some msg] = counterexample *)
}

type status =
  | Completed
  | Deadlock of (int * int * int) list
      (** wait-for edges: (blocked tid, guard id, holder tid) *)
  | Truncated  (** step budget exhausted (e.g. a retry livelock) *)
  | Crashed of { tid : int; exn_text : string }
      (** a non-[Conflict] exception escaped a fiber *)

(** What one run returns: exactly what the explorer reads — the verdict
    (status and oracle), the schedule and its steps for expansion and
    rendering, and which return values are real for the independence
    relation.  The instance's detector counters and ADT state are not
    copied out; a caller that wants them keeps the instance [mk] built. *)
type result = {
  status : status;
  choices : int list;  (** the feasible schedule actually executed *)
  steps : Trace.step list;
  committed : Invocation.t list;
  oracle_failure : string option;  (** only checked when [Completed] *)
  executed : (int, unit) Hashtbl.t;
      (** uids of invocations whose [exec] ran (their [ret] is real) *)
}

let pp_status ppf = function
  | Completed -> Fmt.string ppf "completed"
  | Deadlock edges ->
      Fmt.pf ppf "deadlock: %a"
        Fmt.(
          list ~sep:(any "; ") (fun ppf (t, g, h) ->
              pf ppf "t%d waits for g%d held by t%d" t g h))
        edges
  | Truncated -> Fmt.string ppf "truncated (step budget exhausted)"
  | Crashed { tid; exn_text } -> Fmt.pf ppf "t%d crashed: %s" tid exn_text

(* ------------------------------------------------------------------ *)
(* Fibers                                                              *)
(* ------------------------------------------------------------------ *)

(* A fiber suspends by performing [Yield]; the action it announces waits
   in its run's [pending] cell, so the effect carries nothing. *)
type _ Effect.t += Yield : unit Effect.t

(* What running a fiber until it stops returned: the handler records a
   suspended fiber's pending action and continuation in the fiber itself
   and returns the constant [O_yield]. *)
type outcome = O_yield | O_done | O_raise of exn

type fstate =
  | F_pending of Trace.info * (unit, outcome) Effect.Deep.continuation
  | F_done
  | F_crashed  (** a non-[Conflict] exception escaped; the run reports the first *)

type fiber = {
  tid : int;
  mutable attempt : int;
  mutable ctx : Trace.ctx;
  mutable invs : Invocation.t list;  (** current attempt, newest first *)
  mutable st : fstate;
}

(* The current fiber when none is running. *)
let no_fiber = { tid = -1; attempt = 0; ctx = Trace.Top; invs = []; st = F_done }

(* Virtual guard ownership: for each guard some fiber virtually holds, its
   id, owner tid and depth, in parallel arrays.  Few guards are held at
   once, so a scan beats hashing. *)
type vown = {
  mutable gid : int array;
  mutable owner : int array;
  mutable depth : int array;
  mutable held : int;
}

let vown_create () =
  { gid = Array.make 8 0; owner = Array.make 8 0; depth = Array.make 8 0; held = 0 }

let vown_slot v g =
  let rec go j = if j = v.held then -1 else if v.gid.(j) = g then j else go (j + 1) in
  go 0

(* The tid virtually holding guard [g], or [-1]. *)
let vown_holder v g =
  let j = vown_slot v g in
  if j < 0 then -1 else v.owner.(j)

let vown_acquire v g tid =
  let j = vown_slot v g in
  if j >= 0 then begin
    assert (v.owner.(j) = tid);
    v.depth.(j) <- v.depth.(j) + 1
  end
  else begin
    let n = v.held in
    if n = Array.length v.gid then begin
      let grow a = Array.append a (Array.make n 0) in
      v.gid <- grow v.gid;
      v.owner <- grow v.owner;
      v.depth <- grow v.depth
    end;
    v.gid.(n) <- g;
    v.owner.(n) <- tid;
    v.depth.(n) <- 1;
    v.held <- n + 1
  end

let vown_release v g =
  let j = vown_slot v g in
  if j >= 0 then
    if v.depth.(j) > 1 then v.depth.(j) <- v.depth.(j) - 1
    else begin
      (* free the slot: the last held guard moves into it *)
      let last = v.held - 1 in
      v.gid.(j) <- v.gid.(last);
      v.owner.(j) <- v.owner.(last);
      v.depth.(j) <- v.depth.(last);
      v.held <- last
    end

(* ------------------------------------------------------------------ *)
(* Running one schedule                                                *)
(* ------------------------------------------------------------------ *)

(** Run one schedule on a fresh instance from [mk]: follow [schedule]'s
    fiber ids while each names an enabled fiber, then the lowest enabled
    tid, until every fiber is done, a deadlock or crash ends the run, or
    [max_steps] steps have run.  The oracle runs only on a completed run.
    Nothing else is computed at the end of a run: the detector's obs
    snapshot and the ADT's final state stay in the instance, unread.

    A step allocates little beyond what its trace keeps (the
    {!Trace.step}, the executed action's {!Trace.info} and the enabled
    alternatives): the yield hook parks the announced action in a per-run
    cell and performs a payload-free effect whose handler files it in the
    fiber and returns a constant, the running fiber is held without an
    option, virtual guard ownership lives in small per-run int arrays,
    and each guard announces payloads it built once at creation. *)
let run ?(max_steps = 10_000) ~schedule (mk : unit -> instance) : result =
  (* Build the instance (detector, guards, ADT) BEFORE installing the
     yield hook: construction-time guard traffic is not part of the
     schedule. *)
  let inst = mk () in
  let current = ref no_fiber in
  let cur () =
    let f = !current in
    if f == no_fiber then invalid_arg "Scheduler: detector used outside a fiber"
    else f
  in
  let with_ctx c k =
    let fib = cur () in
    let saved = fib.ctx in
    fib.ctx <- c;
    match k () with
    | v ->
        fib.ctx <- saved;
        v
    | exception e ->
        fib.ctx <- saved;
        raise e
  in
  let executed : (int, unit) Hashtbl.t = Hashtbl.create 16 in
  let committed_acc : Invocation.t list ref = ref [] in
  (* Instrumented view of the detector: announces the detector-protocol
     yield points and maintains per-fiber context so lock actions can be
     attributed to the operation performing them.  Guard and STM actions
     announce themselves from inside Guard/Stm. *)
  let det0 = inst.det in
  let idet =
    {
      det0 with
      Detector.on_invoke =
        (fun inv exec ->
          Schedpoint.emit
            (Schedpoint.Invoke { det = det0.Detector.name; inv });
          with_ctx (Trace.In_invoke inv) (fun () ->
              det0.Detector.on_invoke inv (fun () ->
                  let v = exec () in
                  Hashtbl.replace executed inv.Invocation.uid ();
                  let fib = cur () in
                  fib.invs <- inv :: fib.invs;
                  v)));
      on_commit =
        (fun txn ->
          Schedpoint.emit (Schedpoint.Commit { det = det0.Detector.name; txn });
          with_ctx Trace.In_commit (fun () -> det0.Detector.on_commit txn));
      on_abort =
        (fun txn ->
          Schedpoint.emit (Schedpoint.Abort { det = det0.Detector.name; txn });
          with_ctx Trace.In_abort (fun () -> det0.Detector.on_abort txn));
    }
  in
  let make_body fib (task : task) () =
    let rec attempt n =
      fib.attempt <- n;
      fib.invs <- [];
      fib.ctx <- Trace.Top;
      let txn = Txn.fresh () in
      match task.body ~det:idet ~txn with
      | () ->
          Boost.commit idet txn;
          committed_acc := !committed_acc @ List.rev fib.invs
      | exception Detector.Conflict _ ->
          Boost.abort idet txn;
          attempt (n + 1)
    in
    attempt 1
  in
  let fibers =
    Array.mapi
      (fun tid _ ->
        { tid; attempt = 1; ctx = Trace.Top; invs = []; st = F_done })
      inst.tasks
  in
  let nfib = Array.length fibers in
  (* the first fiber to crash, in the order fibers ran: fibers start in
     tid order and the run stops at the first crash after that *)
  let crash : (int * exn) option ref = ref None in
  (* The hook leaves the announced action here and performs [Yield]; the
     handler files it, with the fiber's context and continuation, as the
     running fiber's pending step. *)
  let pending = ref (Schedpoint.Acquire (-1)) in
  let suspend k =
    let fib = !current in
    fib.st <- F_pending ({ i_action = !pending; i_ctx = fib.ctx; i_invs = fib.invs }, k);
    O_yield
  in
  let on_yield = Some suspend in
  let handler : (unit, outcome) Effect.Deep.handler =
    {
      retc = (fun () -> O_done);
      exnc = (fun e -> O_raise e);
      effc =
        (fun (type a) (eff : a Effect.t) ->
          match eff with
          | Yield -> (on_yield : ((a, outcome) Effect.Deep.continuation -> outcome) option)
          | _ -> None);
    }
  in
  let run_fiber fib f x =
    current := fib;
    let out = f x in
    current := no_fiber;
    match out with
    | O_yield -> ()
    | O_done -> fib.st <- F_done
    | O_raise e ->
        fib.st <- F_crashed;
        if Option.is_none !crash then crash := Some (fib.tid, e)
  in
  let vown = vown_create () in
  let action_enabled fib = function
    | Schedpoint.Acquire g ->
        let o = vown_holder vown g in
        o < 0 || o = fib.tid
    | _ -> true
  in
  let apply_virtual fib = function
    | Schedpoint.Acquire g -> vown_acquire vown g fib.tid
    | Schedpoint.Release g -> vown_release vown g
    | _ -> ()
  in
  (* every unfinished fiber waits on a guard another fiber virtually
     holds: the wait-for edges of the lock-order deadlock, in tid order *)
  let wait_for () =
    let edges = ref [] in
    for i = nfib - 1 downto 0 do
      match fibers.(i).st with
      | F_pending ({ i_action = Schedpoint.Acquire g; _ }, _) ->
          let o = vown_holder vown g in
          if o >= 0 then edges := (i, g, o) :: !edges
      | _ -> ()
    done;
    !edges
  in
  let schedule = Array.of_list schedule in
  let enabled = Array.make nfib false in
  let steps_rev : Trace.step list ref = ref [] in
  let nsteps = ref 0 in
  let status = ref Completed in
  Schedpoint.install (fun a ->
      pending := a;
      Effect.perform Yield);
  Fun.protect ~finally:Schedpoint.uninstall (fun () ->
      (* Start every fiber to its first yield point, in tid order.  The
         code before the first synchronization action touches no shared
         state, so start order is not a scheduling decision. *)
      Array.iteri
        (fun i fib ->
          run_fiber fib
            (fun task -> Effect.Deep.match_with (make_body fib task) () handler)
            inst.tasks.(i))
        fibers;
      let rec loop pos =
        match !crash with
        | Some (tid, e) ->
            status := Crashed { tid; exn_text = Printexc.to_string e }
        | None ->
            (* one pass: which fibers are live, which of them may run, and
               the lowest enabled tid *)
            let live = ref false and lowest = ref (-1) in
            for i = 0 to nfib - 1 do
              match fibers.(i).st with
              | F_pending (info, _) ->
                  live := true;
                  let en = action_enabled fibers.(i) info.Trace.i_action in
                  enabled.(i) <- en;
                  if en && !lowest < 0 then lowest := i
              | F_done | F_crashed -> enabled.(i) <- false
            done;
            if not !live then ()
            else if !lowest < 0 then status := Deadlock (wait_for ())
            else if !nsteps >= max_steps then status := Truncated
            else begin
              let c =
                if pos < Array.length schedule then
                  let t = schedule.(pos) in
                  if t >= 0 && t < nfib && enabled.(t) then t else !lowest
                else !lowest
              in
              let chosen = fibers.(c) in
              let info, k =
                match chosen.st with
                | F_pending (info, k) -> (info, k)
                | _ -> assert false
              in
              let alts = ref [] in
              for i = nfib - 1 downto 0 do
                if i <> c && enabled.(i) then
                  match fibers.(i).st with
                  | F_pending (ai, _) ->
                      alts := (i, fibers.(i).attempt, ai) :: !alts
                  | _ -> ()
              done;
              steps_rev :=
                {
                  Trace.s_tid = c;
                  s_attempt = chosen.attempt;
                  s_info = info;
                  s_alts = !alts;
                }
                :: !steps_rev;
              apply_virtual chosen info.Trace.i_action;
              incr nsteps;
              run_fiber chosen (fun k -> Effect.Deep.continue k ()) k;
              loop (pos + 1)
            end
      in
      loop 0);
  let committed = !committed_acc in
  let oracle_failure =
    match !status with Completed -> inst.oracle committed | _ -> None
  in
  {
    status = !status;
    choices = List.rev_map (fun (st : Trace.step) -> st.s_tid) !steps_rev;
    steps = List.rev !steps_rev;
    committed;
    oracle_failure;
    executed;
  }
