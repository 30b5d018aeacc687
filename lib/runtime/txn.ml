(** Transactions: one speculative iteration of an amorphous-data-parallel
    loop (one unit of Galois-style optimistic work).

    A transaction accumulates undo actions as it performs method
    invocations; {!rollback} runs them newest-first, restoring the abstract
    state the transaction saw when it started.

    It also accumulates the {!Commlat_core.Guard.t}s of every detector it
    invoked through ({!register_guards}, called by {!Boost}).  {!Boost.abort}
    takes all of them around [rollback] + [on_abort], making the
    whole abort one atomic step with respect to each involved detector —
    without this, a general gatekeeper's undo/redo sweep on another domain
    could re-apply writes the rollback had just reverted. *)

open Commlat_core

type status = Running | Committed | Aborted

type t = {
  id : int;
  mutable undo : (unit -> unit) list;  (** newest first *)
  mutable status : status;
  mutable guard_lists : Guard.t list list;
      (** the guard list of every detector this transaction invoked
          through, each once *)
}

let counter = Atomic.make 1

let fresh () =
  { id = Atomic.fetch_and_add counter 1; undo = []; status = Running; guard_lists = [] }

let id t = t.id
let status t = t.status

(** Register the inverse of an action just performed. *)
let push_undo t f = t.undo <- f :: t.undo

(** Record that the transaction invoked through a detector owning these
    guards.  A detector hands out one physical list, so a single [memq]
    per call keeps each detector's list once, however many guards it
    holds (a 16-shard striped gatekeeper has 18).  Lists of different
    detectors may share guards ({!Detector.compose}). *)
let register_guards t gs =
  if not (List.memq gs t.guard_lists) then t.guard_lists <- gs :: t.guard_lists

(** Every guard registered so far, possibly with duplicates: callers
    combine it with the detector's own guard list and
    {!Guard.protect_all} dedups. *)
let guards t = List.concat t.guard_lists

let commit t =
  t.status <- Committed;
  t.undo <- []

(** Undo everything the transaction did, newest action first. *)
let rollback t =
  List.iter (fun f -> f ()) t.undo;
  t.undo <- [];
  t.status <- Aborted
