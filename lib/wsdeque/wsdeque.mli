(** Per-worker work deques, the building block of {!Pool}.

    Each worker owns one deque: it pops from the front (so conflict
    victims pushed back to the front retry first) and pushes freshly
    produced work to the back; idle workers steal from the {e back} of
    other deques, taking the oldest work and leaving the owner's hot retry
    items alone.

    The implementation is a mutex per deque over a two-list deque, with an
    atomic size so the empty check on the steal path costs one load
    instead of a lock acquisition; safe under any interleaving. *)

type 'a t

val create : unit -> 'a t

(** Current number of items (exact, but instantly stale — use only as a
    fast-path hint). *)
val size : 'a t -> int

val push_front : 'a t -> 'a -> unit
val push_back : 'a t -> 'a -> unit
val push_back_all : 'a t -> 'a list -> unit

(** Owner end: front first, then the oldest of the back list. *)
val pop : 'a t -> 'a option

(** Thief end: newest of the back list, falling back to the owner's front
    when the back is empty. *)
val steal : 'a t -> 'a option
