(** Boosted method invocation: the glue between application transactions,
    conflict detectors and ADT undo actions.

    The undo action is registered {e before} the detector runs the method:
    gatekeepers (and the STM baseline) execute the method first and may
    detect the conflict afterwards, and in that case the half-done
    transaction must still roll the invocation back.  ADT undo functions
    dispatch on [inv.ret], which is only set once the method has actually
    executed — so an undo registered for an invocation that never ran is a
    no-op. *)

open Commlat_core

(** [invoke det txn ~undo meth args exec]: run [exec inv] under conflict
    detection on behalf of [txn], with [undo inv] registered as the
    transaction-rollback action.  Returns the method's result; raises
    {!Detector.Conflict} if the invocation does not commute with a live
    one. *)
let invoke (det : Detector.t) (txn : Txn.t) ~(undo : Invocation.t -> unit)
    (meth : Invocation.meth) (args : Value.t array)
    (exec : Invocation.t -> Value.t) : Value.t =
  let inv = Invocation.make ~txn:(Txn.id txn) meth args in
  Txn.register_guards txn det.Detector.txn_guards;
  if meth.Invocation.concrete then Txn.push_undo txn (fun () -> undo inv);
  det.Detector.on_invoke inv (fun () -> exec inv)

(** Read-only invocation: no undo needed.  The detector's [txn_guards]
    are still registered: the invocation may hold detector state (locks,
    log entries) that an abort must release atomically. *)
let invoke_ro (det : Detector.t) (txn : Txn.t) (meth : Invocation.meth)
    (args : Value.t array) (exec : Invocation.t -> Value.t) : Value.t =
  let inv = Invocation.make ~txn:(Txn.id txn) meth args in
  Txn.register_guards txn det.Detector.txn_guards;
  det.Detector.on_invoke inv (fun () -> exec inv)

(** End [txn] as committed: the detector releases the transaction's
    locks and log entries first, then the undo log is discarded.  If
    [on_commit] raises, the undo log is still intact, so the caller can
    {!abort}. *)
let commit (det : Detector.t) (txn : Txn.t) =
  det.Detector.on_commit (Txn.id txn);
  Txn.commit txn

(** End [txn] as aborted: replay its undo log, then release its detector
    state, as one step under the guards the transaction's invocations
    held — each registered detector's [txn_guards], and [det]'s own —
    ({!Guard.protect_all}), so no concurrent invocation or
    general-gatekeeper sweep that could see the transaction's state runs
    in between.  A striped gatekeeper answers only the guards of the
    shards the transaction touched, so an abort stalls no invocation on
    another shard. *)
let abort (det : Detector.t) (txn : Txn.t) =
  Txn.register_guards txn det.Detector.txn_guards;
  Guard.protect_all (Txn.guards txn) (fun () ->
      Txn.rollback txn;
      det.Detector.on_abort (Txn.id txn))
