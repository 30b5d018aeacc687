(** Transactions: one speculative iteration of an amorphous-data-parallel
    loop (one unit of Galois-style optimistic work).

    A transaction accumulates undo actions as it performs method
    invocations; {!rollback} runs them newest-first, restoring the abstract
    state the transaction saw when it started.  It also records the
    [txn_guards] of every detector it invoked through ({!register_guards},
    called by {!Boost}): {!Boost.abort} takes the guards they answer for
    this transaction around [rollback] + [on_abort], making the whole
    abort one atomic step with respect to each involved detector. *)

open Commlat_core

type status = Running | Committed | Aborted

(** Transaction state: id, undo log, status and registered guards.  The
    undo log and guard list are internal — mutate them only through
    {!push_undo} / {!register_guards}. *)
type t

(** A fresh [Running] transaction with a process-unique id. *)
val fresh : unit -> t

(** The id {!fresh} never issues: a read-only admission probe runs under
    it, so it matches no transaction's entries and bumps no counter. *)
val probe_id : int

val id : t -> int
val status : t -> status

(** Register the inverse of an action just performed. *)
val push_undo : t -> (unit -> unit) -> unit

(** Record that the transaction invoked through a detector with this
    [Detector.txn_guards].  Each detector's is kept once, by physical
    identity, and asked for its guards only by {!guards}. *)
val register_guards : t -> (int -> Guard.t list) -> unit

(** The guards every registered detector answers for this transaction
    ([txn_guards (id t)]), possibly with duplicates ({!Guard.protect_all}
    dedups). *)
val guards : t -> Guard.t list

(** Mark committed and discard the undo log. *)
val commit : t -> unit

(** Undo everything the transaction did, newest action first, and mark
    aborted. *)
val rollback : t -> unit
