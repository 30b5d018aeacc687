(** Reentrant, canonically-ordered locks for detector-internal state.

    Conflict detectors serialize their critical sections behind a guard
    instead of a bare [Mutex.t] so that (a) [Boost.abort] can hold the
    guards a transaction's invocations held ([Detector.txn_guards]) across
    its rollback while the detector's own [on_abort] re-enters them, and
    (b) rollbacks spanning several
    detectors ({!Detector.compose}) can take all their guards in a globally
    consistent order ({!protect_all}), ruling out deadlock between
    concurrent multi-detector rollbacks.

    Ownership is per-domain: a guard is reentrant for the domain holding
    it, not across systhreads within a domain. *)

type t

val create : unit -> t

(** Creation order — the canonical acquisition order used by
    {!protect_all}. *)
val id : t -> int

(** Acquire (blocking); free re-entry if this domain already holds it. *)
val lock : t -> unit

(** Release one level; the guard is freed when the depth reaches zero.
    Must be called by the owning domain. *)
val unlock : t -> unit

(** [protect t f] runs [f] holding [t]; releases on any exit. *)
val protect : t -> (unit -> 'a) -> 'a

(** [protect_all ts f] runs [f] holding every guard in [ts], acquired in
    canonical id order (duplicates taken once). *)
val protect_all : t list -> (unit -> 'a) -> 'a
