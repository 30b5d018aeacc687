(* Termination: [pending] counts the items pushed whose processing has not
   finished.  A push raises it before its items become visible, and a
   worker lowers it only after [process] returns, so it never under-counts
   queued or running work: it reaches zero exactly when the last item is
   done.

   No lost wakeup: a pusher makes its items visible, a finisher lowers
   [pending] and a halt sets [stop], and each then reads [idle].  A parking
   worker raises [idle] under [mu], then reads [stop], [pending] and the
   deques.  All of these are atomics, so of each such pair at least one
   side sees the other's write: either the parker sees the work, the zero
   or the stop, or the other side sees [idle > 0] and broadcasts under
   [mu], which it cannot take until the parker waits. *)

type 'a t = {
  deques : 'a Wsdeque.t array;
  pending : int Atomic.t;
  stop : bool Atomic.t;
  idle : int Atomic.t;  (** workers inside {!park} *)
  mu : Mutex.t;
  cv : Condition.t;
  failure : (exn * Printexc.raw_backtrace) option Atomic.t;
  steals : int array;  (** per worker, written under [mu] *)
  misses : int array;  (** per worker, written under [mu] *)
  me : int;  (** the worker holding this handle *)
}

let wake p =
  if Atomic.get p.idle > 0 then
    Mutex.protect p.mu (fun () -> Condition.broadcast p.cv)

let halt p =
  Atomic.set p.stop true;
  wake p

let push add p = function
  | [] -> ()
  | xs ->
      ignore (Atomic.fetch_and_add p.pending (List.length xs));
      add p.deques.(p.me) xs;
      wake p

let push_front p xs = push (fun d -> List.iter (Wsdeque.push_front d)) p xs
let push_back p xs = push Wsdeque.push_back_all p xs

(* Under [mu]: steal from the other deques, the next worker's first.  The
   own deque is skipped, since only its owner pushes to it. *)
let rec sweep p k =
  let n = Array.length p.deques in
  if k >= n then None
  else
    match Wsdeque.steal p.deques.((p.me + k) mod n) with
    | Some _ as r ->
        p.steals.(p.me) <- p.steals.(p.me) + 1;
        r
    | None -> sweep p (k + 1)

let park p =
  Mutex.lock p.mu;
  Atomic.incr p.idle;
  let rec wait () =
    if Atomic.get p.stop || Atomic.get p.pending = 0 then None
    else
      match sweep p 1 with
      | Some _ as r -> r
      | None ->
          p.misses.(p.me) <- p.misses.(p.me) + 1;
          Condition.wait p.cv p.mu;
          wait ()
  in
  let r = wait () in
  Atomic.decr p.idle;
  Mutex.unlock p.mu;
  r

let run ~domains init process =
  let n = max 1 domains in
  let pool =
    {
      deques = Array.init n (fun _ -> Wsdeque.create ());
      pending = Atomic.make (List.length init);
      stop = Atomic.make false;
      idle = Atomic.make 0;
      mu = Mutex.create ();
      cv = Condition.create ();
      failure = Atomic.make None;
      steals = Array.make n 0;
      misses = Array.make n 0;
      me = 0;
    }
  in
  List.iteri (fun i x -> Wsdeque.push_back pool.deques.(i mod n) x) init;
  let work me () =
    let p = { pool with me } in
    try
      let f = process p me in
      let rec loop () =
        let next =
          match Wsdeque.pop p.deques.(me) with
          | None when n > 1 -> park p
          | r -> r
        in
        match next with
        | Some x when not (Atomic.get p.stop) ->
            f x;
            if Atomic.fetch_and_add p.pending (-1) = 1 then wake p;
            loop ()
        | _ -> ()
      in
      loop ()
    with e ->
      let bt = Printexc.get_raw_backtrace () in
      ignore (Atomic.compare_and_set p.failure None (Some (e, bt)));
      halt p
  in
  let spawned = Array.init (n - 1) (fun i -> Domain.spawn (work (i + 1))) in
  work 0 ();
  Array.iter Domain.join spawned;
  Option.iter
    (fun (e, bt) -> Printexc.raise_with_backtrace e bt)
    (Atomic.get pool.failure);
  Array.map2 (fun s m -> (s, m)) pool.steals pool.misses
