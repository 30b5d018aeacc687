(** Per-worker work deques, the building block of {!Pool}.

    Each worker owns one deque: it pops from the front (so conflict victims
    pushed back to the front retry first — the same contention-management
    policy as {!Executor.run_rounds}) and pushes freshly produced work to
    the back; idle workers steal from the {e back} of other deques, taking
    the oldest work and leaving the owner's hot retry items alone.

    The implementation is a mutex per deque over a two-list deque, with an
    atomic size so the empty check on the steal path costs one load instead
    of a lock acquisition.  A lock-free Chase–Lev deque would cut the
    constant factor; at operator granularities measured in microseconds the
    mutex is far from the critical path, and the mutex version is obviously
    correct under any interleaving — the property the pool's termination
    protocol leans on. *)

type 'a t = {
  mu : Mutex.t;
  mutable front : 'a list;  (** owner end, next-to-pop first *)
  mutable back : 'a list;  (** thief end, newest-pushed first *)
  size : int Atomic.t;
}

let create () =
  { mu = Mutex.create (); front = []; back = []; size = Atomic.make 0 }

(** Current number of items (exact, but instantly stale — use only as a
    fast-path hint). *)
let size t = Atomic.get t.size

let push_front t x =
  Mutex.protect t.mu (fun () ->
      t.front <- x :: t.front;
      Atomic.incr t.size)

let push_back t x =
  Mutex.protect t.mu (fun () ->
      t.back <- x :: t.back;
      Atomic.incr t.size)

let push_back_all t = function
  | [] -> ()
  | xs ->
      Mutex.protect t.mu (fun () ->
          List.iter
            (fun x ->
              t.back <- x :: t.back;
              Atomic.incr t.size)
            xs)

(** Owner end: front first, then the oldest of the back list. *)
let pop t =
  if Atomic.get t.size = 0 then None
  else
    Mutex.protect t.mu (fun () ->
        match t.front with
        | x :: rest ->
            t.front <- rest;
            Atomic.decr t.size;
            Some x
        | [] -> (
            match List.rev t.back with
            | [] -> None
            | x :: rest ->
                t.front <- rest;
                t.back <- [];
                Atomic.decr t.size;
                Some x))

(** Thief end: newest of the back list, falling back to the owner's front
    when the back is empty.  Any item is a valid steal; preferring the back
    keeps retry-first items with their owner. *)
let steal t =
  if Atomic.get t.size = 0 then None
  else
    Mutex.protect t.mu (fun () ->
        match t.back with
        | x :: rest ->
            t.back <- rest;
            Atomic.decr t.size;
            Some x
        | [] -> (
            match t.front with
            | x :: rest ->
                t.front <- rest;
                Atomic.decr t.size;
                Some x
            | [] -> None))
