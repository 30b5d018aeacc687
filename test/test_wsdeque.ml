open Commlat_wsdeque

let check_int = Alcotest.(check int)
let check_bool = Alcotest.(check bool)

let test_order () =
  let d = Wsdeque.create () in
  Wsdeque.push_back_all d [ 1; 2; 3 ];
  Wsdeque.push_front d 0;
  check_int "size" 4 (Wsdeque.size d);
  (* steal before any pop: a pop migrates the back list to the front, after
     which thieves and the owner contend on the same end *)
  Alcotest.(check (option int)) "steal takes the newest-pushed back" (Some 3)
    (Wsdeque.steal d);
  Alcotest.(check (option int)) "front pops first" (Some 0) (Wsdeque.pop d);
  Alcotest.(check (option int)) "then FIFO" (Some 1) (Wsdeque.pop d);
  Alcotest.(check (option int)) "pop drains the rest" (Some 2) (Wsdeque.pop d);
  Alcotest.(check (option int)) "empty pop" None (Wsdeque.pop d);
  Alcotest.(check (option int)) "empty steal" None (Wsdeque.steal d);
  check_int "empty size" 0 (Wsdeque.size d)

let test_steal_falls_back_to_front () =
  let d = Wsdeque.create () in
  Wsdeque.push_front d 1;
  Alcotest.(check (option int)) "steal from front when back empty" (Some 1)
    (Wsdeque.steal d)

let test_concurrent_drain () =
  (* one producer deque, three thieves + the owner: every item taken
     exactly once *)
  let d = Wsdeque.create () in
  let n = 10_000 in
  Wsdeque.push_back_all d (List.init n Fun.id);
  let taken = Atomic.make 0 in
  let drain take () =
    let rec go () =
      match take d with
      | Some _ ->
          Atomic.incr taken;
          go ()
      | None -> ()
    in
    go ()
  in
  let ds = List.init 3 (fun _ -> Domain.spawn (drain Wsdeque.steal)) in
  drain Wsdeque.pop ();
  List.iter Domain.join ds;
  check_int "each item taken exactly once" n (Atomic.get taken);
  check_int "deque empty" 0 (Wsdeque.size d)

(* ---------------- Pool ---------------- *)

(* For a [process] to call as each worker starts: items then meet the whole
   fleet rather than racing the other domains' start-up. *)
let barrier domains =
  let started = Atomic.make 0 in
  fun () ->
    Atomic.incr started;
    while Atomic.get started < domains do
      Domain.cpu_relax ()
    done

(* A random forest: every node is processed exactly once, whichever end its
   children are pushed to and whichever worker takes them. *)
let test_pool_tree () =
  let size = 3_000 and roots = [ 0; 1; 2 ] in
  let rng = Random.State.make [| 7 |] in
  let children = Array.make size [] in
  for i = size - 1 downto List.length roots do
    let p = Random.State.int rng i in
    children.(p) <- i :: children.(p)
  done;
  List.iter
    (fun domains ->
      let seen = Array.init size (fun _ -> Atomic.make 0) in
      let per_worker = Array.make domains 0 in
      let ready = barrier domains in
      let process w me =
        ready ();
        fun i ->
          Atomic.incr seen.(i);
          per_worker.(me) <- per_worker.(me) + 1;
          if i mod 2 = 0 then Pool.push_front w children.(i)
          else Pool.push_back w children.(i)
      in
      let sweeps = Pool.run ~domains roots process in
      let at = Fmt.str "%d domains" domains in
      check_int (at ^ ": one result per worker") domains (Array.length sweeps);
      check_bool (at ^ ": each item processed once") true
        (Array.for_all (fun c -> Atomic.get c = 1) seen);
      check_int (at ^ ": per-worker counts sum to the tree")
        size
        (Array.fold_left ( + ) 0 per_worker))
    [ 1; 2; 4 ]

(* Items pushed to the front as [a; b; c] pop as c, b, a: the explorer's
   depth-first order (the last decision's branch first) rests on it. *)
let test_pool_front_order () =
  let order = ref [] in
  let process w _ i =
    order := i :: !order;
    if i = 0 then Pool.push_front w [ 1; 2; 3 ]
  in
  let sweeps = Pool.run ~domains:1 [ 0 ] process in
  Alcotest.(check (list int)) "order" [ 0; 3; 2; 1 ] (List.rev !order);
  Alcotest.(check (array (pair int int))) "one domain never steals or parks"
    [| (0, 0) |] sweeps

(* An item pushed by a worker that stays busy is taken by the idle one:
   the idle worker parked, rather than left, while the first item ran, and
   the push woke it. *)
let test_pool_handoff () =
  let pushed_by = Atomic.make (-1) and taken_by = Atomic.make (-1) in
  let process w me i =
    if i = 0 then begin
      Atomic.set pushed_by me;
      Unix.sleepf 0.02;
      Pool.push_back w [ 1 ];
      let deadline = Unix.gettimeofday () +. 2.0 in
      while Atomic.get taken_by < 0 && Unix.gettimeofday () < deadline do
        Unix.sleepf 0.001
      done
    end
    else Atomic.set taken_by me
  in
  ignore (Pool.run ~domains:2 [ 0 ] process);
  check_int "the idle worker took the pushed item"
    (1 - Atomic.get pushed_by)
    (Atomic.get taken_by)

(* A halt from inside [process] ends [run] with work left: pushed before
   the halt at one domain, after it at four, where idle workers could
   otherwise steal it. *)
let test_pool_halt () =
  let processed = Atomic.make 0 in
  let process halt_first w _ i =
    Atomic.incr processed;
    if i = 0 then
      if halt_first then begin
        Pool.halt w;
        Pool.push_back w (List.init 100 succ)
      end
      else begin
        Pool.push_back w (List.init 100 succ);
        Pool.halt w
      end
  in
  ignore (Pool.run ~domains:1 [ 0 ] (process false));
  check_int "1 domain: only the halting item ran" 1 (Atomic.get processed);
  Atomic.set processed 0;
  ignore (Pool.run ~domains:4 [ 0 ] (process true));
  check_int "4 domains: only the halting item ran" 1 (Atomic.get processed)

exception Boom

(* An exception on one worker halts the pool, wakes the parked workers
   and is re-raised only after every domain has joined.  After the
   barrier each worker pops its own item: worker 0's raises once worker
   1's slow item has started and workers 2 and 3, done, have parked; the
   slow item has finished by the time [run] re-raises. *)
let test_pool_failure () =
  let slow_started = Atomic.make false and slow_done = Atomic.make false in
  let ready = barrier 4 in
  let process _ _ =
    ready ();
    function
    | 0 ->
        let deadline = Unix.gettimeofday () +. 5.0 in
        while
          (not (Atomic.get slow_started)) && Unix.gettimeofday () < deadline
        do
          Unix.sleepf 0.001
        done;
        Unix.sleepf 0.02;
        raise Boom
    | 1 ->
        Atomic.set slow_started true;
        Unix.sleepf 0.1;
        Atomic.set slow_done true
    | _ -> ()
  in
  (match Pool.run ~domains:4 [ 0; 1; 2; 3 ] process with
  | _ -> Alcotest.fail "the worker's exception must re-raise from run"
  | exception Boom -> ());
  check_bool "re-raised after the slow item finished" true
    (Atomic.get slow_done)

(* A chain hands one item at a time across four workers: each link is
   processed once, and idle workers park instead of spinning. *)
let test_pool_chain () =
  let links = 10_000 in
  let processed = Atomic.make 0 in
  let ready = barrier 4 in
  let process w _ =
    ready ();
    fun i ->
      Atomic.incr processed;
      if i + 1 < links then Pool.push_back w [ i + 1 ];
      (* a little work after the push gives an idle worker time to steal *)
      for _ = 1 to 50 do
        Domain.cpu_relax ()
      done
  in
  let sweeps = Pool.run ~domains:4 [ 0 ] process in
  check_int "every link processed" links (Atomic.get processed);
  let misses = Array.fold_left (fun acc (_, m) -> acc + m) 0 sweeps in
  check_bool
    (Fmt.str "%d empty sweeps <= 3 per link" misses)
    true
    (misses <= 3 * links)

let suite =
  [
    Alcotest.test_case "wsdeque: order" `Quick test_order;
    Alcotest.test_case "wsdeque: steal falls back to front" `Quick
      test_steal_falls_back_to_front;
    Alcotest.test_case "wsdeque: concurrent drain" `Quick test_concurrent_drain;
    Alcotest.test_case "pool: a random forest at 1, 2 and 4 domains" `Quick
      test_pool_tree;
    Alcotest.test_case "pool: front pushes pop last-first" `Quick
      test_pool_front_order;
    Alcotest.test_case "pool: an idle worker takes a busy one's push" `Quick
      test_pool_handoff;
    Alcotest.test_case "pool: a halt leaves work unprocessed" `Quick
      test_pool_halt;
    Alcotest.test_case "pool: a worker's exception re-raises after joins"
      `Quick test_pool_failure;
    Alcotest.test_case "pool: a 10,000-link chain parks" `Quick test_pool_chain;
  ]
