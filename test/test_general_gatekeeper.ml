(* Tests of general gatekeeping (paper §3.3.2) on union-find — the spec
   whose conditions (1)-(2) evaluate state functions of s1 with information
   from the later invocation, forcing state rollback. *)

open Commlat_core
open Commlat_adts
open Commlat_runtime

let check_bool = Alcotest.(check bool)

let mk ?(elements = 8) () =
  let uf = Union_find.create () in
  ignore (Union_find.create_elements uf elements);
  let det, gk =
    Gatekeeper.make ~allow_rollback:true ~hooks:(Union_find.hooks uf)
      (Union_find.spec ())
  in
  (uf, det, gk)

let invoke det uf txn name args =
  let meth =
    List.find (fun (x : Invocation.meth) -> x.name = name) Union_find.methods
  in
  let inv =
    Invocation.make ~txn meth (Array.of_list (List.map (fun i -> Value.Int i) args))
  in
  det.Detector.on_invoke inv (fun () -> Union_find.exec_logged uf inv)

(* ------------------------------------------------------------- *)
(* Rollback is both exercised and necessary                       *)
(* ------------------------------------------------------------- *)

(* txn1 unions 0-1 (loser 1) then 0-2 (loser 2).  txn2's find(1) must
   conflict: rep(s1, 1) evaluated in the state BEFORE union(0,1) is 1,
   which equals the union's loser.  Evaluating rep in the CURRENT state
   would give 0 and wrongly admit the find — so this test passes only if
   the gatekeeper actually reconstructs s1. *)
let test_rollback_necessary () =
  let uf, det, gk = mk () in
  ignore (invoke det uf 1 "union" [ 0; 1 ]);
  ignore (invoke det uf 1 "union" [ 0; 2 ]);
  check_bool "find of displaced element conflicts" true
    (match invoke det uf 2 "find" [ 1 ] with
    | _ -> false
    | exception Detector.Conflict _ -> true);
  check_bool "rollback actually used" true (Gatekeeper.rollback_count gk > 0);
  det.Detector.on_abort 2;
  (* find of an untouched element is admitted *)
  ignore (invoke det uf 3 "find" [ 5 ]);
  det.Detector.on_commit 1;
  det.Detector.on_commit 3;
  (* state must be intact after all the undo/redo cycles *)
  check_bool "0,1,2 merged" true
    (Union_find.same_set uf 0 1 && Union_find.same_set uf 0 2);
  check_bool "others untouched" false (Union_find.same_set uf 3 4)

(* rollback/redo leaves the concrete forest byte-identical in behaviour:
   run a mixed workload, then compare against an undisturbed replica *)
let test_rollback_restores_state =
  QCheck.Test.make ~name:"undo/redo cycles preserve the forest" ~count:100
    QCheck.(
      make
        ~print:(fun l -> Fmt.str "%d ops" (List.length l))
        Gen.(list_size (int_bound 12) (pair (int_bound 7) (int_bound 7))))
    (fun unions ->
      let uf, det, _gk = mk () in
      let reference = Union_find.create () in
      ignore (Union_find.create_elements reference 8);
      (* txn1 performs unions through the gatekeeper; each interleaved find
         runs as a fresh short transaction that ends immediately — its check
         still triggers rollback probes against txn1's live unions *)
      List.iteri
        (fun i (a, b) ->
          ignore (invoke det uf 1 "union" [ a; b ]);
          ignore (Union_find.union reference a b);
          let probe = 100 + i in
          (match invoke det uf probe "find" [ (a + i) mod 8 ] with
          | _ -> det.Detector.on_commit probe
          | exception Detector.Conflict _ -> det.Detector.on_abort probe))
        unions;
      det.Detector.on_commit 1;
      (* partitions agree with the undisturbed reference *)
      List.for_all
        (fun (x, y) ->
          Union_find.same_set uf x y = Union_find.same_set reference x y)
        (List.concat_map (fun x -> List.map (fun y -> (x, y)) [ 0; 1; 2; 3; 4; 5; 6; 7 ])
           [ 0; 1; 2; 3; 4; 5; 6; 7 ]))

(* union/union commutativity decisions match the Fig. 5 condition evaluated
   on the pre-state *)
let test_union_union_condition =
  QCheck.Test.make ~name:"union/union conflicts match Fig.5 (1)" ~count:500
    QCheck.(
      make
        ~print:(fun (p, (a, b), (c, d)) ->
          Fmt.str "prefix=%d u1=(%d,%d) u2=(%d,%d)" (List.length p) a b c d)
        Gen.(
          tup3
            (list_size (int_bound 4) (pair (int_bound 7) (int_bound 7)))
            (pair (int_bound 7) (int_bound 7))
            (pair (int_bound 7) (int_bound 7))))
    (fun (prefix, (a, b), (c, d)) ->
      let uf, det, _ = mk () in
      List.iter (fun (x, y) -> ignore (Union_find.union uf x y)) prefix;
      (* ground truth BEFORE any speculative op *)
      let loser1 = Union_find.loser uf a b in
      let repc = Union_find.rep uf c and repd = Union_find.rep uf d in
      let expect_commute = repc <> loser1 && repd <> loser1 in
      ignore (invoke det uf 1 "union" [ a; b ]);
      let conflict =
        match invoke det uf 2 "union" [ c; d ] with
        | _ -> false
        | exception Detector.Conflict _ -> true
      in
      conflict = not expect_commute)

(* ------------------------------------------------------------- *)
(* Executor-level: committed histories are serializable           *)
(* ------------------------------------------------------------- *)

(* Custom union-find oracle: unions must return the same booleans, finds
   must return a representative of the same set (representative identity is
   auxiliary "hidden" state, paper §2.2), and the final partition must
   match. *)
let uf_serializable ~elements (history : Invocation.t list) ~(final : Value.t) =
  let txns = History.txns_of history in
  let replay order =
    let uf = Union_find.create () in
    ignore (Union_find.create_elements uf elements);
    let ok = ref true in
    List.iter
      (fun txn ->
        List.iter
          (fun (i : Invocation.t) ->
            if i.txn = txn && !ok then
              match (i.meth.Invocation.name, Array.to_list i.args) with
              | "union", [ a; b ] ->
                  let r = Union_find.union uf (Value.to_int a) (Value.to_int b) in
                  if not (Value.equal (Value.Bool r) i.ret) then ok := false
              | "find", [ a ] ->
                  ignore (Union_find.find uf (Value.to_int a));
                  (* the recorded return must denote the element's set in
                     the replay state (rep identity is hidden state) *)
                  if not (Union_find.same_set uf (Value.to_int a) (Value.to_int i.ret))
                  then ok := false
              | _ -> ok := false)
          history)
      order;
    !ok && Value.equal (Union_find.partition_snapshot uf) final
  in
  List.exists replay (History.permutations txns)

let test_executor_serializable =
  QCheck.Test.make ~name:"committed union-find histories are serializable"
    ~count:50
    QCheck.(
      make
        ~print:(fun l -> Fmt.str "%d txns" (List.length l))
        Gen.(
          list_size
            (int_bound 4 >|= fun n -> n + 2)
            (list_size
               (int_bound 2 >|= fun n -> n + 1)
               (oneof
                  [
                    map2 (fun a b -> ("union", [ a; b ])) (int_bound 7) (int_bound 7);
                    map (fun a -> ("find", [ a ])) (int_bound 7);
                  ]))))
    (fun txn_specs ->
      let uf, det, _ = mk () in
      let recorded = ref [] in
      let operator (txn : Txn.t) ops =
        let invs =
          List.map
            (fun (m, args) ->
              let meth =
                List.find (fun (x : Invocation.meth) -> x.name = m) Union_find.methods
              in
              let inv =
                Invocation.make ~txn:(Txn.id txn) meth
                  (Array.of_list (List.map (fun i -> Value.Int i) args))
              in
              Txn.push_undo txn (fun () -> Union_find.undo uf inv);
              ignore (det.Detector.on_invoke inv (fun () -> Union_find.exec_logged uf inv));
              inv)
            ops
        in
        recorded := !recorded @ invs;
        []
      in
      ignore (Executor.run_rounds ~processors:3 ~detector:det ~operator txn_specs);
      uf_serializable ~elements:8 !recorded
        ~final:(Union_find.partition_snapshot uf))

let suite =
  [
    Alcotest.test_case "rollback is necessary and used" `Quick
      test_rollback_necessary;
    QCheck_alcotest.to_alcotest test_rollback_restores_state;
    QCheck_alcotest.to_alcotest test_union_union_condition;
    QCheck_alcotest.to_alcotest test_executor_serializable;
  ]
