open Commlat_wsdeque

let check_int = Alcotest.(check int)

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

let suite =
  [
    Alcotest.test_case "wsdeque: order" `Quick test_order;
    Alcotest.test_case "wsdeque: steal falls back to front" `Quick
      test_steal_falls_back_to_front;
    Alcotest.test_case "wsdeque: concurrent drain" `Quick test_concurrent_drain;
  ]
