(* Tests of the partially persistent union-find and of the versioned
   general gatekeeper built on it.  The strongest property: on random
   concurrent workloads, the versioned gatekeeper makes EXACTLY the same
   conflict decisions as the rollback-based one. *)

open Commlat_core
open Commlat_adts

let check_bool = Alcotest.(check bool)
let check_int = Alcotest.(check int)

(* helper: a fake detector-stamped union invocation applied directly *)
let apply_union (t : Union_find_versioned.t) ~seq a b =
  let inv =
    Invocation.make ~txn:0 Union_find.m_union [| Value.Int a; Value.Int b |]
  in
  inv.Invocation.seq <- seq;
  let r = Union_find_versioned.exec_logged t inv in
  (Value.to_bool r, inv)

let test_rep_at_basics () =
  let t = Union_find_versioned.create () in
  ignore (Union_find_versioned.create_elements t 6);
  let _, _ = apply_union t ~seq:10 0 1 in
  let _, _ = apply_union t ~seq:20 2 3 in
  let _, _ = apply_union t ~seq:30 0 2 in
  (* before anything: everyone is their own rep *)
  List.iter
    (fun x -> check_int (Fmt.str "rep_at 5 %d" x) x (Union_find_versioned.rep_at t ~seq:5 x))
    [ 0; 1; 2; 3; 4; 5 ];
  (* between the first and second union *)
  check_int "rep_at 15 of 1" (Union_find_versioned.rep_at t ~seq:15 0)
    (Union_find_versioned.rep_at t ~seq:15 1);
  check_int "rep_at 15 of 3 still 3" 3 (Union_find_versioned.rep_at t ~seq:15 3);
  (* at the very seq of a union, its effect is excluded (pre-state) *)
  check_int "rep_at 10 of 1 is 1" 1 (Union_find_versioned.rep_at t ~seq:10 1);
  (* after all unions: 0,1,2,3 in one set *)
  let r = Union_find_versioned.rep_at t ~seq:100 0 in
  List.iter
    (fun x -> check_int (Fmt.str "rep_at 100 %d" x) r (Union_find_versioned.rep_at t ~seq:100 x))
    [ 1; 2; 3 ]

let test_rank_at () =
  let t = Union_find_versioned.create () in
  ignore (Union_find_versioned.create_elements t 4);
  check_int "initial rank" 0 (Union_find_versioned.rank_at t ~seq:5 0);
  let _, _ = apply_union t ~seq:10 0 1 in
  (* tie: winner's rank bumped to 1 at seq 10 *)
  check_int "rank before" 0 (Union_find_versioned.rank_at t ~seq:10 0);
  check_int "rank after" 1 (Union_find_versioned.rank_at t ~seq:11 0)

let test_undo_removes_records () =
  let t = Union_find_versioned.create () in
  ignore (Union_find_versioned.create_elements t 4);
  let _, inv = apply_union t ~seq:10 0 1 in
  check_bool "merged" true
    (Union_find_versioned.rep_at t ~seq:99 0 = Union_find_versioned.rep_at t ~seq:99 1);
  Union_find_versioned.undo t inv;
  check_bool "history gone after undo" false
    (Union_find_versioned.rep_at t ~seq:99 0 = Union_find_versioned.rep_at t ~seq:99 1);
  check_bool "live state restored" false
    (Union_find.same_set (Union_find_versioned.base t) 0 1);
  Union_find_versioned.redo t inv;
  check_bool "redo restores history" true
    (Union_find_versioned.rep_at t ~seq:99 0 = Union_find_versioned.rep_at t ~seq:99 1)

(* rep_at/loser_at agree with a replayed snapshot at every point in time *)
let test_versioned_vs_replay =
  QCheck_alcotest.to_alcotest
    (QCheck.Test.make ~name:"rep_at/rank_at agree with a replay at every stamp"
       ~count:200
       QCheck.(
         make
           ~print:(fun l -> Fmt.str "%d unions" (List.length l))
           Gen.(list_size (int_bound 15) (pair (int_bound 9) (int_bound 9))))
       (fun unions ->
         let n = 10 in
         let t = Union_find_versioned.create () in
         ignore (Union_find_versioned.create_elements t n);
         List.iteri (fun i (a, b) -> ignore (apply_union t ~seq:(i + 1) a b)) unions;
         (* for each prefix length k, replay the prefix on a fresh plain
            union-find and compare the partition implied by rep_at *)
         let rec prefix k l = if k = 0 then [] else match l with [] -> [] | x :: r -> x :: prefix (k - 1) r in
         List.for_all
           (fun k ->
             let fresh = Union_find.create () in
             ignore (Union_find.create_elements fresh n);
             List.iter (fun (a, b) -> ignore (Union_find.union fresh a b)) (prefix k unions);
             List.for_all
               (fun x ->
                 List.for_all
                   (fun y ->
                     Union_find.same_set fresh x y
                     = (Union_find_versioned.rep_at t ~seq:(k + 1) x
                        = Union_find_versioned.rep_at t ~seq:(k + 1) y))
                   (List.init n Fun.id))
               (List.init n Fun.id))
           (List.init (List.length unions + 1) Fun.id)))

(* The versioned gatekeeper decides conflicts exactly like the rollback
   one — up to and including the FIRST conflict.  Beyond it the comparison
   is ill-posed: aborting a transaction whose unions interleaved with
   admitted rank-overlapping unions leaves representative/rank "hidden
   state" (paper §2.2) that legitimately differs between execution
   mechanisms even though both remain partition-sound. *)
let test_gatekeepers_agree =
  QCheck_alcotest.to_alcotest
    (QCheck.Test.make
       ~name:"versioned and rollback gatekeepers agree up to the first conflict"
       ~count:300
       QCheck.(
         make
           ~print:(fun l -> Fmt.str "%d ops" (List.length l))
           Gen.(
             list_size (int_bound 20)
               (tup3 (int_bound 3 >|= fun t -> t + 1) (* txn 1..4 *)
                  (oneofl [ `Union; `Find ])
                  (pair (int_bound 9) (int_bound 9)))))
       (fun ops ->
         let n = 10 in
         let run kind =
           let results = ref [] in
           let mk_rollback () =
             let uf = Union_find.create () in
             ignore (Union_find.create_elements uf n);
             let det, _ =
               Gatekeeper.make ~allow_rollback:true
                 ~hooks:(Union_find.hooks uf) (Union_find.spec ())
             in
             (det, (fun inv -> Union_find.exec_logged uf inv), Union_find.undo uf)
           in
           let mk_versioned () =
             let t = Union_find_versioned.create () in
             ignore (Union_find_versioned.create_elements t n);
             let det, _ =
               Gatekeeper.make ~allow_rollback:true
                 ~hooks:(Union_find_versioned.hooks t)
                 (Union_find.spec ())
             in
             ( det,
               (fun inv -> Union_find_versioned.exec_logged t inv),
               Union_find_versioned.undo t )
           in
           let det, exec, undo_fn =
             match kind with `R -> mk_rollback () | `V -> mk_versioned ()
           in
           ignore undo_fn;
           (try
              List.iteri
                (fun i (txn, op, (a, b)) ->
                  let meth, args =
                    match op with
                    | `Union -> (Union_find.m_union, [| Value.Int a; Value.Int b |])
                    | `Find -> (Union_find.m_find, [| Value.Int a |])
                  in
                  let inv = Invocation.make ~txn meth args in
                  match det.Detector.on_invoke inv (fun () -> exec inv) with
                  | v -> results := (i, `Ok v) :: !results
                  | exception Detector.Conflict _ ->
                      results := (i, `Conflict) :: !results;
                      raise Exit)
                ops
            with Exit -> ());
           !results
         in
         run `R = run `V))

let suite =
  [
    Alcotest.test_case "rep_at basics" `Quick test_rep_at_basics;
    Alcotest.test_case "rank_at" `Quick test_rank_at;
    Alcotest.test_case "undo/redo maintain the index" `Quick
      test_undo_removes_records;
    test_versioned_vs_replay;
    test_gatekeepers_agree;
  ]
