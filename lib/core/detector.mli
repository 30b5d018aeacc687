(** Common interface of conflict detectors.

    A detector mediates every method invocation on a protected data
    structure.  [on_invoke inv exec] must decide whether [inv] may proceed
    given the currently active invocations of other transactions (raising
    {!Conflict} otherwise) and run [exec] (the actual data-structure
    operation), recording its return value in [inv.ret].

    Different schemes order these steps differently: abstract locking
    acquires locks {e before} executing, gatekeepers execute first and then
    check (conditions may refer to the return value).  Either way the whole
    of [on_invoke] is atomic with respect to other invocations on the same
    detector.

    When [on_invoke] raises {!Conflict} after [exec] has run, the enclosing
    transaction is doomed; the runtime rolls its effects back through the
    transaction undo log and then calls {!t.on_abort}. *)

exception Conflict of { txn : int; with_ : int; reason : string }

(** [conflict ~txn ~with_ reason] raises {!Conflict}. *)
val conflict : txn:int -> with_:int -> string -> 'a

type t = {
  name : string;
  on_invoke : Invocation.t -> (unit -> Value.t) -> Value.t;
  on_commit : int -> unit;  (** transaction ended successfully: release *)
  on_abort : int -> unit;
      (** transaction rolled back (its effects are already undone when this
          is called): release *)
  reset : unit -> unit;  (** drop all state (between experiments) *)
  snapshot : unit -> Commlat_obs.Obs.snapshot;
      (** current observability counters (lock acquisitions/denials,
          gatekeeper checks/rollbacks, abort causes, …); see
          {!Commlat_obs.Obs} *)
  guards : Guard.t list;
      (** the reentrant guards serializing this detector's internal state
          (and, during [on_invoke], the protected ADT's concrete state).
          The domain executor takes all of them ({!Guard.protect_all})
          around a doomed transaction's rollback + [on_abort] so nothing
          can interleave with the undo log; [on_abort]'s own acquisition
          then re-enters.  Empty for stateless/ad-hoc detectors. *)
}

(** A snapshot hook for detectors with nothing to report (ad-hoc test
    detectors, baselines): always the empty snapshot. *)
val no_snapshot : unit -> Commlat_obs.Obs.snapshot

(** No detection at all: used to measure the plain sequential baseline [T]
    in the paper's performance model (§5). *)
val none : t

(** Compose the transaction-lifecycle view of several detectors, one per
    protected structure: commits, aborts and resets are forwarded to every
    member.  Invocations must still be routed to the member that protects
    the structure being touched; calling [on_invoke] on the composition is
    an error. *)
val compose : t list -> t

(** A single exclusive lock on the whole structure, named
    ["global-lock"]: the scheme the abstract-locking construction yields
    for the ⊥ specification (paper §4.1).  Most callers should go through
    [Protect.protect] (scheme [Global_lock]). *)
val global_lock : ?obs:bool -> unit -> t
