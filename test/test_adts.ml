(* Unit and property tests of the substrate ADTs: set implementations,
   kd-tree, union-find, flow graph, accumulator, points. *)

open Commlat_core
open Commlat_adts

let check_bool = Alcotest.(check bool)
let check_int = Alcotest.(check int)

(* ------------------------------------------------------------- *)
(* Set: the two concrete implementations agree                    *)
(* ------------------------------------------------------------- *)

let gen_set_ops =
  QCheck.(
    make
      ~print:(fun l -> Fmt.str "%d ops" (List.length l))
      Gen.(
        list_size (int_bound 60)
          (pair (oneofl [ "add"; "remove"; "contains" ]) (int_bound 8))))

let test_set_impls_agree =
  QCheck.Test.make ~name:"hash and list set impls observationally equal"
    ~count:300 gen_set_ops (fun ops ->
      let h = Iset.create ~impl:`Hash () and l = Iset.create ~impl:`List () in
      List.for_all
        (fun (m, v) ->
          let args = [| Value.Int v |] in
          Value.equal (Iset.exec h m args) (Iset.exec l m args))
        ops
      && List.equal Value.equal (Iset.elements h) (Iset.elements l))

let test_set_basics () =
  let s = Iset.create ~impl:`List () in
  check_bool "add new" true (Iset.add s (Value.Int 3));
  check_bool "add dup" false (Iset.add s (Value.Int 3));
  check_bool "contains" true (Iset.contains s (Value.Int 3));
  check_bool "remove" true (Iset.remove s (Value.Int 3));
  check_bool "remove gone" false (Iset.remove s (Value.Int 3));
  check_int "cardinal" 0 (Iset.cardinal s);
  (* ordering invariant of the list impl *)
  List.iter (fun i -> ignore (Iset.add s (Value.Int i))) [ 5; 1; 3; 2; 4 ];
  Alcotest.(check (list int))
    "sorted elements" [ 1; 2; 3; 4; 5 ]
    (List.map Value.to_int (Iset.elements s))

let test_set_undo () =
  let s = Iset.create () in
  let inv = Invocation.make ~txn:1 Iset.m_add [| Value.Int 7 |] in
  inv.Invocation.ret <- Iset.exec s "add" inv.Invocation.args;
  check_bool "added" true (Iset.contains s (Value.Int 7));
  Iset.undo s inv;
  check_bool "undone" false (Iset.contains s (Value.Int 7));
  (* undo of an unexecuted invocation is a no-op *)
  let inv2 = Invocation.make ~txn:1 Iset.m_add [| Value.Int 9 |] in
  Iset.undo s inv2;
  check_int "still empty" 0 (Iset.cardinal s)

(* ------------------------------------------------------------- *)
(* Kd-tree                                                        *)
(* ------------------------------------------------------------- *)

let gen_kd_ops =
  QCheck.(
    make
      ~print:(fun l -> Fmt.str "%d ops" (List.length l))
      Gen.(
        list_size (int_bound 80)
          (tup3 (oneofl [ `Add; `Remove; `Nearest ])
             (float_bound_inclusive 4.0) (float_bound_inclusive 4.0))))

let test_kdtree_vs_brute =
  QCheck.Test.make ~name:"kd-tree tracks a brute-force set+nearest model"
    ~count:200 gen_kd_ops (fun ops ->
      let t = Kdtree.create ~dims:2 () in
      let live = ref [] in
      List.for_all
        (fun (op, x, y) ->
          (* quantize to hit duplicates *)
          let p = [| Float.round x; Float.round y |] in
          match op with
          | `Add ->
              let expected = not (List.exists (Point.equal p) !live) in
              let got = Kdtree.add t p in
              if got then live := p :: !live;
              got = expected
          | `Remove ->
              let expected = List.exists (Point.equal p) !live in
              let got = Kdtree.remove t p in
              if got then live := List.filter (fun q -> not (Point.equal q p)) !live;
              got = expected
          | `Nearest ->
              let got = Kdtree.nearest t p in
              let want = Commlat_apps.Reference.nearest_brute !live p in
              Float.equal (Point.dist_value (Value.Point p) (Value.Point got))
                (Point.dist_value (Value.Point p) (Value.Point want)))
        ops
      && Kdtree.size t = List.length !live)

let test_kdtree_nearest_excludes_self () =
  let t = Kdtree.create ~dims:2 () in
  ignore (Kdtree.add t [| 1.0; 1.0 |]);
  check_bool "single point: nearest is at infinity" true
    (Point.is_at_infinity (Kdtree.nearest t [| 1.0; 1.0 |]));
  ignore (Kdtree.add t [| 2.0; 2.0 |]);
  check_bool "nearest excludes the query point" true
    (Point.equal (Kdtree.nearest t [| 1.0; 1.0 |]) [| 2.0; 2.0 |])

let test_kdtree_empty () =
  let t = Kdtree.create ~dims:3 () in
  check_bool "empty nearest at infinity" true
    (Point.is_at_infinity (Kdtree.nearest t [| 0.; 0.; 0. |]));
  check_bool "remove on empty" false (Kdtree.remove t [| 0.; 0.; 0. |]);
  check_int "size" 0 (Kdtree.size t)

let test_kdtree_dim_mismatch () =
  let t = Kdtree.create ~dims:2 () in
  Alcotest.check_raises "wrong dims"
    (Invalid_argument "Kdtree.add: wrong dimension") (fun () ->
      ignore (Kdtree.add t [| 1.0 |]))

(* ------------------------------------------------------------- *)
(* Union-find                                                     *)
(* ------------------------------------------------------------- *)

let test_uf_basics () =
  let uf = Union_find.create () in
  let es = Union_find.create_elements uf 5 in
  check_int "elements" 5 (List.length es);
  check_bool "distinct sets" false (Union_find.same_set uf 0 1);
  check_bool "union merges" true (Union_find.union uf 0 1);
  check_bool "merged" true (Union_find.same_set uf 0 1);
  check_bool "re-union is noop" false (Union_find.union uf 0 1);
  check_int "find consistent" (Union_find.find uf 0) (Union_find.find uf 1)

let gen_uf_ops =
  QCheck.(
    make
      ~print:(fun l -> Fmt.str "%d unions" (List.length l))
      Gen.(list_size (int_bound 40) (pair (int_bound 15) (int_bound 15))))

(* model: naive quadratic DSU *)
let test_uf_vs_naive =
  QCheck.Test.make ~name:"union-find partitions match a naive model" ~count:300
    gen_uf_ops (fun unions ->
      let n = 16 in
      let uf = Union_find.create () in
      ignore (Union_find.create_elements uf n);
      let label = Array.init n Fun.id in
      let naive_union a b =
        let la = label.(a) and lb = label.(b) in
        if la <> lb then
          Array.iteri (fun i l -> if l = lb then label.(i) <- la) label
      in
      List.iter
        (fun (a, b) ->
          ignore (Union_find.union uf a b);
          naive_union a b)
        unions;
      List.for_all
        (fun i ->
          List.for_all
            (fun j -> Union_find.same_set uf i j = (label.(i) = label.(j)))
            (List.init n Fun.id))
        (List.init n Fun.id))

let test_uf_union_by_rank_loser () =
  let uf = Union_find.create () in
  ignore (Union_find.create_elements uf 6);
  (* rank(0) becomes 1 *)
  ignore (Union_find.union uf 0 1);
  (* loser of (2, 0): 2 has rank 0 < 1 *)
  check_int "lower rank loses" 2 (Union_find.loser uf 2 0);
  (* tie: b's representative loses *)
  check_int "tie: rep(b) loses" (Union_find.rep uf 3) (Union_find.loser uf 2 3)

let test_uf_undo_redo_roundtrip =
  QCheck.Test.make ~name:"undo then redo of a union restores both states"
    ~count:300 gen_uf_ops (fun unions ->
      let uf = Union_find.create () in
      ignore (Union_find.create_elements uf 16);
      List.iter (fun (a, b) -> ignore (Union_find.union uf a b)) unions;
      let before = Union_find.partition_snapshot uf in
      let inv = Invocation.make ~txn:1 Union_find.m_union [| Value.Int 3; Value.Int 9 |] in
      inv.Invocation.ret <- Union_find.exec_logged uf inv;
      let after = Union_find.partition_snapshot uf in
      Union_find.undo uf inv;
      let undone = Union_find.partition_snapshot uf in
      Union_find.redo uf inv;
      let redone = Union_find.partition_snapshot uf in
      Value.equal before undone && Value.equal after redone)

let test_uf_path_compression_observable () =
  (* find really does rewrite parent pointers: trace it *)
  let uf = Union_find.create () in
  ignore (Union_find.create_elements uf 4);
  ignore (Union_find.union uf 0 1);
  ignore (Union_find.union uf 2 3);
  ignore (Union_find.union uf 0 2);
  let c = Mem_trace.collector () in
  Union_find.set_tracer uf c.Mem_trace.tracer;
  ignore (Union_find.find uf 3);
  check_bool "compression writes happened" true (Mem_trace.write_list c <> []);
  Union_find.set_tracer uf Mem_trace.null

(* ------------------------------------------------------------- *)
(* Flow graph                                                     *)
(* ------------------------------------------------------------- *)

let diamond () =
  (* s=0, t=3; two disjoint paths of capacity 3 and 2 *)
  Flow_graph.of_edges ~n:4 [ (0, 1, 3); (1, 3, 3); (0, 2, 2); (2, 3, 2) ]

let test_flow_push_basics () =
  let g = diamond () in
  let open Flow_graph in
  g.excess.(0) <- 10;
  g.height.(0) <- 1;
  check_int "push limited by capacity" 3 (push_flow_raw g 0 1);
  check_int "excess moved" 3 (excess_of g 1);
  check_int "source excess reduced" 7 (excess_of g 0);
  check_int "no height gradient, no push" 0 (push_flow_raw g 1 3);
  (* unpush is the exact inverse *)
  unpush_raw g 0 1 3;
  check_int "excess restored" 10 (excess_of g 0);
  check_int "dest restored" 0 (excess_of g 1)

let test_flow_relabel_undo () =
  let g = diamond () in
  let old = Flow_graph.relabel_to_raw g 2 5 in
  check_int "old height" 0 old;
  check_int "new height" 5 (Flow_graph.height_of g 2);
  let inv =
    Invocation.make ~txn:1 Flow_graph.m_relabel_to [| Value.Int 2; Value.Int 9 |]
  in
  inv.Invocation.ret <- Flow_graph.exec g "relabel_to" inv.Invocation.args;
  check_int "relabelled" 9 (Flow_graph.height_of g 2);
  Flow_graph.undo g inv;
  check_int "undone" 5 (Flow_graph.height_of g 2)

let test_flow_conservation =
  QCheck.Test.make ~name:"pushes conserve total excess" ~count:200
    QCheck.(
      make
        ~print:(fun l -> Fmt.str "%d pushes" (List.length l))
        Gen.(list_size (int_bound 20) (pair (int_bound 3) (int_bound 3))))
    (fun pushes ->
      let g = diamond () in
      let open Flow_graph in
      g.excess.(0) <- 10;
      g.height.(0) <- 2;
      g.height.(1) <- 1;
      g.height.(2) <- 1;
      let total () = g.excess.(0) + g.excess.(1) + g.excess.(2) + g.excess.(3) in
      let t0 = total () in
      List.iter (fun (u, v) -> if u <> v then ignore (push_flow_raw g u v)) pushes;
      total () = t0)

let test_flow_parallel_edge_merge () =
  (* duplicate directed edges and opposite pairs merge cleanly *)
  let g = Flow_graph.of_edges ~n:2 [ (0, 1, 2); (0, 1, 3); (1, 0, 4) ] in
  let open Flow_graph in
  check_int "one edge object per direction" 1 (Array.length g.adj.(0));
  g.excess.(0) <- 100;
  g.height.(0) <- 1;
  check_int "merged capacity" 5 (push_flow_raw g 0 1)

(* ------------------------------------------------------------- *)
(* Accumulator & points                                           *)
(* ------------------------------------------------------------- *)

let test_accumulator () =
  let a = Accumulator.create () in
  Accumulator.increment a 5;
  Accumulator.increment a (-3);
  check_int "total" 2 (Accumulator.read a);
  let m = Accumulator.model () in
  ignore (m.History.apply "increment" [| Value.Int 4 |]);
  Alcotest.(check bool)
    "model snapshot" true
    (Value.equal (m.History.snapshot ()) (Value.Int 4))

let test_points () =
  Alcotest.(check (float 1e-9)) "dist" 5.0 (Point.dist [| 0.; 0. |] [| 3.; 4. |]);
  check_bool "equal" true (Point.equal [| 1.; 2. |] [| 1.; 2. |]);
  check_bool "at_infinity" true (Point.is_at_infinity (Point.at_infinity 2));
  Alcotest.(check (float 1e-9))
    "dist_value with infinity" infinity
    (Point.dist_value (Value.Point [| 0.; 0. |]) (Value.Point (Point.at_infinity 2)));
  let cloud = Point.random_cloud ~seed:3 ~dim:4 100 in
  check_int "cloud size" 100 (Array.length cloud);
  check_bool "deterministic" true
    (Point.equal cloud.(0) (Point.random_cloud ~seed:3 ~dim:4 100).(0))

let suite =
  [
    QCheck_alcotest.to_alcotest test_set_impls_agree;
    Alcotest.test_case "set basics" `Quick test_set_basics;
    Alcotest.test_case "set undo" `Quick test_set_undo;
    QCheck_alcotest.to_alcotest test_kdtree_vs_brute;
    Alcotest.test_case "nearest excludes self" `Quick test_kdtree_nearest_excludes_self;
    Alcotest.test_case "kdtree empty" `Quick test_kdtree_empty;
    Alcotest.test_case "kdtree dim mismatch" `Quick test_kdtree_dim_mismatch;
    Alcotest.test_case "union-find basics" `Quick test_uf_basics;
    QCheck_alcotest.to_alcotest test_uf_vs_naive;
    Alcotest.test_case "union-by-rank loser" `Quick test_uf_union_by_rank_loser;
    QCheck_alcotest.to_alcotest test_uf_undo_redo_roundtrip;
    Alcotest.test_case "path compression writes" `Quick
      test_uf_path_compression_observable;
    Alcotest.test_case "flow push basics" `Quick test_flow_push_basics;
    Alcotest.test_case "flow relabel undo" `Quick test_flow_relabel_undo;
    QCheck_alcotest.to_alcotest test_flow_conservation;
    Alcotest.test_case "parallel edges merged" `Quick test_flow_parallel_edge_merge;
    Alcotest.test_case "accumulator" `Quick test_accumulator;
    Alcotest.test_case "points" `Quick test_points;
  ]
