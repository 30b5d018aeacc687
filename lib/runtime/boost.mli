(** Boosted method invocation: the glue between application transactions,
    conflict detectors and ADT undo actions.

    The undo action is registered {e before} the detector runs the method:
    gatekeepers (and the STM baseline) execute the method first and may
    detect the conflict afterwards, and in that case the half-done
    transaction must still roll the invocation back. *)

open Commlat_core

(** [invoke det txn ~undo meth args exec]: run [exec inv] under conflict
    detection on behalf of [txn], with [undo inv] registered as the
    transaction-rollback action.  Returns the method's result; raises
    {!Detector.Conflict} if the invocation does not commute with a live
    one. *)
val invoke :
  Detector.t ->
  Txn.t ->
  undo:(Invocation.t -> unit) ->
  Invocation.meth ->
  Value.t array ->
  (Invocation.t -> Value.t) ->
  Value.t

(** Read-only invocation: no undo needed.  The detector's [txn_guards]
    are still registered: the invocation may hold detector state (locks,
    log entries) that an abort must release atomically. *)
val invoke_ro :
  Detector.t ->
  Txn.t ->
  Invocation.meth ->
  Value.t array ->
  (Invocation.t -> Value.t) ->
  Value.t

(** End [txn] as committed: [on_commit], then [Txn.commit].  A raising
    [on_commit] leaves the undo log intact, so the caller can still
    {!abort}.  With {!abort}, the one way the executors, the server
    engine and the schedule explorer end a transaction. *)
val commit : Detector.t -> Txn.t -> unit

(** End [txn] as aborted: [Txn.rollback], then [on_abort], as one step
    under {!Guard.protect_all} over the guards the transaction's
    invocations held: [Detector.txn_guards] of every detector it invoked
    through, and of [det].  For a striped gatekeeper these are the
    transaction's shard guards and the exec guard, not every guard the
    detector owns. *)
val abort : Detector.t -> Txn.t -> unit
