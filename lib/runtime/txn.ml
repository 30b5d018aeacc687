(** Transactions: one speculative iteration of an amorphous-data-parallel
    loop (one unit of Galois-style optimistic work).

    A transaction accumulates undo actions as it performs method
    invocations; {!rollback} runs them newest-first, restoring the abstract
    state the transaction saw when it started.

    It also records, for every detector it invoked through, that
    detector's [txn_guards] ({!register_guards}, called by {!Boost}).
    {!Boost.abort} takes the guards they answer for this transaction
    around [rollback] + [on_abort], making the whole abort one atomic step
    with respect to each involved detector — without this, a general
    gatekeeper's undo/redo sweep on another domain could re-apply writes
    the rollback had just reverted. *)

open Commlat_core

type status = Running | Committed | Aborted

type t = {
  id : int;
  mutable undo : (unit -> unit) list;  (** newest first *)
  mutable status : status;
  mutable guard_fns : (int -> Guard.t list) list;
      (** the [txn_guards] of every detector this transaction invoked
          through, each once *)
}

(* [fresh] issues ids from 1; [probe_id] is never issued. *)
let counter = Atomic.make 1
let probe_id = 0

let fresh () =
  { id = Atomic.fetch_and_add counter 1; undo = []; status = Running; guard_fns = [] }

let id t = t.id
let status t = t.status

(** Register the inverse of an action just performed. *)
let push_undo t f = t.undo <- f :: t.undo

(** Record that the transaction invoked through a detector with this
    [txn_guards].  A detector hands out one closure, so a single [memq]
    per call keeps each detector's once.  The guards are asked for only
    when the transaction aborts: a striped gatekeeper's answer depends on
    the shards the transaction touched by then. *)
let register_guards t f =
  if not (List.memq f t.guard_fns) then t.guard_fns <- f :: t.guard_fns

(** The guards every registered detector answers for this transaction,
    possibly with duplicates (composed detectors may share guards;
    {!Guard.protect_all} dedups). *)
let guards t = List.concat_map (fun f -> f t.id) t.guard_fns

let commit t =
  t.status <- Committed;
  t.undo <- []

(** Undo everything the transaction did, newest action first. *)
let rollback t =
  List.iter (fun f -> f ()) t.undo;
  t.undo <- [];
  t.status <- Aborted
