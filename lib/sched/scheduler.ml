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
    tracks a per-guard (owner fiber, depth) map and refuses to run a fiber
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
module Obs = Commlat_obs.Obs

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

type result = {
  status : status;
  choices : int list;  (** the feasible schedule actually executed *)
  steps : Trace.step list;
  committed : Invocation.t list;
  oracle_failure : string option;  (** only checked when [Completed] *)
  snapshot : Obs.snapshot;  (** detector obs counters at end of run *)
  final_state : Value.t;
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

type _ Effect.t += Yield : Schedpoint.action -> unit Effect.t

type outcome =
  | O_yield of Schedpoint.action * (unit, outcome) Effect.Deep.continuation
  | O_done
  | O_raise of exn

type fstate =
  | F_pending of Trace.info * (unit, outcome) Effect.Deep.continuation
  | F_done
  | F_crashed of exn

type fiber = {
  tid : int;
  mutable attempt : int;
  mutable ctx : Trace.ctx;
  mutable invs : Invocation.t list;  (** current attempt, newest first *)
  mutable st : fstate;
}

let handler : (unit, outcome) Effect.Deep.handler =
  {
    retc = (fun () -> O_done);
    exnc = (fun e -> O_raise e);
    effc =
      (fun (type a) (eff : a Effect.t) ->
        match eff with
        | Yield act ->
            Some
              (fun (k : (a, outcome) Effect.Deep.continuation) ->
                O_yield (act, k))
        | _ -> None);
  }

(* ------------------------------------------------------------------ *)
(* Running one schedule                                                *)
(* ------------------------------------------------------------------ *)

let run ?(max_steps = 10_000) ~schedule (mk : unit -> instance) : result =
  (* Build the instance (detector, guards, ADT) BEFORE installing the
     yield hook: construction-time guard traffic is not part of the
     schedule. *)
  let inst = mk () in
  let current : fiber option ref = ref None in
  let cur () =
    match !current with
    | Some f -> f
    | None -> invalid_arg "Scheduler: detector used outside a fiber"
  in
  let with_ctx c k =
    let fib = cur () in
    let saved = fib.ctx in
    fib.ctx <- c;
    Fun.protect ~finally:(fun () -> fib.ctx <- saved) k
  in
  let executed : (int, unit) Hashtbl.t = Hashtbl.create 64 in
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
  let run_fiber fib thunk =
    current := Some fib;
    let out = thunk () in
    current := None;
    match out with
    | O_yield (act, k) ->
        fib.st <- F_pending ({ i_action = act; i_ctx = fib.ctx; i_invs = fib.invs }, k)
    | O_done -> fib.st <- F_done
    | O_raise e -> fib.st <- F_crashed e
  in
  (* Virtual guard ownership: guard id -> (owner tid, depth). *)
  let vown : (int, int * int) Hashtbl.t = Hashtbl.create 16 in
  let action_enabled fib = function
    | Schedpoint.Acquire g -> (
        match Hashtbl.find_opt vown g with
        | None -> true
        | Some (o, _) -> o = fib.tid)
    | _ -> true
  in
  let apply_virtual fib = function
    | Schedpoint.Acquire g -> (
        match Hashtbl.find_opt vown g with
        | None -> Hashtbl.replace vown g (fib.tid, 1)
        | Some (o, d) ->
            assert (o = fib.tid);
            Hashtbl.replace vown g (o, d + 1))
    | Schedpoint.Release g -> (
        match Hashtbl.find_opt vown g with
        | Some (_, 1) -> Hashtbl.remove vown g
        | Some (o, d) -> Hashtbl.replace vown g (o, d - 1)
        | None -> ())
    | _ -> ()
  in
  let schedule = Array.of_list schedule in
  let steps_rev : Trace.step list ref = ref [] in
  let choices_rev : int list ref = ref [] in
  let nsteps = ref 0 in
  let status = ref Completed in
  Schedpoint.install (fun a -> Effect.perform (Yield a));
  Fun.protect ~finally:Schedpoint.uninstall (fun () ->
      (* Start every fiber to its first yield point, in tid order.  The
         code before the first synchronization action touches no shared
         state, so start order is not a scheduling decision. *)
      Array.iteri
        (fun i fib ->
          run_fiber fib (fun () ->
              Effect.Deep.match_with (make_body fib inst.tasks.(i)) () handler))
        fibers;
      let crashed () =
        Array.fold_left
          (fun acc f ->
            match (acc, f.st) with
            | None, F_crashed e -> Some (f.tid, e)
            | _ -> acc)
          None fibers
      in
      let rec loop pos =
        match crashed () with
        | Some (tid, e) ->
            status := Crashed { tid; exn_text = Printexc.to_string e }
        | None -> (
            let live =
              Array.to_list fibers
              |> List.filter (fun f ->
                     match f.st with F_pending _ -> true | _ -> false)
            in
            if live = [] then ()
            else
              let enabled =
                List.filter
                  (fun f ->
                    match f.st with
                    | F_pending (info, _) ->
                        action_enabled f info.Trace.i_action
                    | _ -> false)
                  live
              in
              match enabled with
              | [] ->
                  (* every unfinished fiber waits on a guard another fiber
                     virtually holds: lock-order deadlock *)
                  status :=
                    Deadlock
                      (List.filter_map
                         (fun f ->
                           match f.st with
                           | F_pending ({ i_action = Schedpoint.Acquire g; _ }, _)
                             -> (
                               match Hashtbl.find_opt vown g with
                               | Some (o, _) -> Some (f.tid, g, o)
                               | None -> None)
                           | _ -> None)
                         live)
              | _ when !nsteps >= max_steps -> status := Truncated
              | _ ->
                  let chosen =
                    let wanted =
                      if pos < Array.length schedule then Some schedule.(pos)
                      else None
                    in
                    match wanted with
                    | Some t
                      when List.exists (fun f -> f.tid = t) enabled ->
                        List.find (fun f -> f.tid = t) enabled
                    | _ ->
                        List.fold_left
                          (fun best f ->
                            if f.tid < best.tid then f else best)
                          (List.hd enabled) enabled
                  in
                  let info, k =
                    match chosen.st with
                    | F_pending (info, k) -> (info, k)
                    | _ -> assert false
                  in
                  let alts =
                    List.filter_map
                      (fun f ->
                        if f.tid = chosen.tid then None
                        else
                          match f.st with
                          | F_pending (i, _) -> Some (f.tid, f.attempt, i)
                          | _ -> None)
                      enabled
                  in
                  steps_rev :=
                    {
                      Trace.s_tid = chosen.tid;
                      s_attempt = chosen.attempt;
                      s_info = info;
                      s_alts = alts;
                    }
                    :: !steps_rev;
                  choices_rev := chosen.tid :: !choices_rev;
                  apply_virtual chosen info.Trace.i_action;
                  incr nsteps;
                  run_fiber chosen (fun () -> Effect.Deep.continue k ());
                  loop (pos + 1))
      in
      loop 0);
  let committed = !committed_acc in
  let oracle_failure =
    match !status with Completed -> inst.oracle committed | _ -> None
  in
  {
    status = !status;
    choices = List.rev !choices_rev;
    steps = List.rev !steps_rev;
    committed;
    oracle_failure;
    snapshot = inst.det.Detector.snapshot ();
    final_state = inst.final ();
    executed;
  }
