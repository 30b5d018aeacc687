(** A work-stealing pool over {!Wsdeque}s: the one scheduler behind the
    domain executor and the parallel schedule explorer.

    Each worker owns a deque.  It pops its own front; when that is empty it
    counts itself idle under the pool mutex, steals from the other deques'
    backs, and parks on a condition variable if there is nothing to steal,
    until work is pushed, the pool halts or every item is done. *)

(** A worker's handle on the pool.  Workers are numbered from 0, the
    calling domain. *)
type 'a t

(** Push onto the front of the worker's own deque, one item at a time in
    list order: the last item pops first. *)
val push_front : 'a t -> 'a list -> unit

(** Append, in list order, to the back of the worker's own deque: the end
    thieves take from. *)
val push_back : 'a t -> 'a list -> unit

(** Stop the pool: every worker exits at its next item, unprocessed. *)
val halt : 'a t -> unit

(** [run ~domains init process] deals [init] round-robin to the backs of
    the workers' deques, runs worker 0 on the calling domain and the others
    on new ones, and returns once every item is processed or the pool is
    halted.  [process p w] is applied once per worker [w], on its domain,
    with [p] the worker's handle; the function it returns processes each
    item that worker takes.  With one domain nothing is spawned and
    nothing parks.  The first exception a [process] raises halts the pool,
    and is re-raised with its backtrace after every domain has joined.

    Returns each worker's steals and empty steal sweeps. *)
val run :
  domains:int -> 'a list -> ('a t -> int -> 'a -> unit) -> (int * int) array
