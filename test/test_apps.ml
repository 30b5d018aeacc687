(* End-to-end application tests: every speculative run is validated against
   a sequential reference algorithm, across detectors and processor
   counts. *)

open Commlat_core
open Commlat_adts
open Commlat_runtime
open Commlat_apps

let check_bool = Alcotest.(check bool)
let check_int = Alcotest.(check int)

(* ------------------------------------------------------------- *)
(* Generators                                                     *)
(* ------------------------------------------------------------- *)

let test_genrmf_shape () =
  let g = Genrmf.generate ~a:3 ~b:4 () in
  check_int "nodes" 36 g.Genrmf.n;
  check_int "source" 0 g.Genrmf.source;
  check_int "sink" 35 g.Genrmf.sink;
  (* 12 in-frame bidirectional pairs per frame * 4 frames * 2 directions +
     9 inter-frame * 3 gaps *)
  check_int "edges" ((12 * 4 * 2) + (9 * 3)) (List.length g.Genrmf.edges);
  (* deterministic *)
  let g' = Genrmf.generate ~a:3 ~b:4 () in
  check_bool "deterministic" true (g.Genrmf.edges = g'.Genrmf.edges)

let test_mesh_shape () =
  let m = Mesh.generate ~rows:4 ~cols:5 () in
  check_int "nodes" 20 m.Mesh.nodes;
  check_int "edges" ((4 * 4) + (3 * 5)) (Array.length m.Mesh.edges);
  (* distinct weights -> unique MST *)
  let ws = Array.to_list (Array.map (fun (_, _, w) -> w) m.Mesh.edges) in
  check_int "weights distinct" (List.length ws) (List.length (List.sort_uniq Int.compare ws))

let test_mesh_generate_invariants () =
  (* grid edge count rows*(cols-1) + (rows-1)*cols, distinct permutation
     weights, deterministic per seed *)
  List.iter
    (fun (rows, cols, seed) ->
      let m = Mesh.generate ~rows ~cols ~seed () in
      check_int "nodes" (rows * cols) m.Mesh.nodes;
      check_int "edges"
        ((rows * (cols - 1)) + ((rows - 1) * cols))
        (Array.length m.Mesh.edges);
      let ws =
        Array.to_list (Array.map (fun (_, _, w) -> w) m.Mesh.edges)
        |> List.sort compare
      in
      Alcotest.(check (list int))
        "weights are a permutation of 0..m-1"
        (List.init (Array.length m.Mesh.edges) Fun.id)
        ws;
      Array.iter
        (fun (u, v, _) ->
          check_bool "endpoints in range" true
            (u >= 0 && u < m.Mesh.nodes && v >= 0 && v < m.Mesh.nodes && u <> v))
        m.Mesh.edges;
      let m' = Mesh.generate ~rows ~cols ~seed () in
      check_bool "same seed, same mesh" true (m = m');
      let m'' = Mesh.generate ~rows ~cols ~seed:(seed + 1) () in
      check_bool "different seed, different weights" true (m <> m''))
    [ (3, 4, 1); (5, 5, 7); (2, 9, 42) ]

let test_mesh_points_invariants () =
  List.iter
    (fun (n, seed) ->
      let ps = Mesh.points ~seed ~n ~size:100.0 () in
      check_int "count" n (Array.length ps);
      Array.iter
        (fun (x, y) ->
          check_bool "inside the margin band" true
            (x >= 12.5 && x <= 87.5 && y >= 12.5 && y <= 87.5))
        ps;
      let distinct =
        Array.to_list ps |> List.sort_uniq compare |> List.length
      in
      check_int "pairwise distinct" n distinct;
      check_bool "same seed, same cloud" true (ps = Mesh.points ~seed ~n ~size:100.0 ()))
    [ (5, 11); (40, 3); (100, 42) ]

(* ------------------------------------------------------------- *)
(* Delaunay mesh refinement                                       *)
(* ------------------------------------------------------------- *)

let test_delaunay_create_is_delaunay () =
  List.iter
    (fun (n, seed) ->
      let t =
        Delaunay.create ~size:100.0 (Mesh.points ~seed ~n ~size:100.0 ())
      in
      Alcotest.(check (option string))
        (Fmt.str "n=%d seed=%d: triangulation is Delaunay" n seed)
        None
        (Delaunay.delaunay_violation t);
      check_bool "area tiles the box" true
        (Float.abs (Delaunay.area_total t -. 10000.0) < 1e-6))
    [ (4, 11); (7, 42); (12, 3); (25, 7) ]

let test_delaunay_refine_seq () =
  (* sequential refinement reaches quiescence: no refinable bad triangle
     is left, the Delaunay property holds, the box stays tiled *)
  List.iter
    (fun (n, seed) ->
      let t =
        Delaunay.create ~max_pts:128 ~size:100.0
          (Mesh.points ~seed ~n ~size:100.0 ())
      in
      Delaunay.refine_seq t;
      check_int (Fmt.str "n=%d seed=%d: no bad triangles left" n seed) 0
        (List.length (Delaunay.bad_ids t));
      Alcotest.(check (option string))
        "refined mesh is Delaunay" None
        (Delaunay.delaunay_violation t);
      check_bool "area preserved" true
        (Float.abs (Delaunay.area_total t -. 10000.0) < 1e-6);
      check_bool "liveness set mirrors the triangle table" true
        (List.sort compare (Triset.elements t.Delaunay.live)
        = List.sort compare
            (List.map fst (Delaunay.live_tris t))))
    [ (7, 42); (12, 3); (20, 7) ]

let test_delaunay_parallel_refine () =
  (* the detector-mediated operator on real domains, every scheme: same
     quiescence + Delaunay-property guarantees as sequential, with aborts
     retried *)
  List.iter
    (fun scheme ->
      let t =
        Delaunay.create ~max_pts:128 ~size:100.0
          (Mesh.points ~seed:42 ~n:12 ~size:100.0 ())
      in
      let det = Delaunay.detector ~obs:true t scheme in
      let stats = Delaunay.refine ~processors:4 ~detector:det t in
      let name = Protect.scheme_name scheme in
      check_int (name ^ ": refined to quiescence") 0
        (List.length (Delaunay.bad_ids t));
      Alcotest.(check (option string))
        (name ^ ": mesh is Delaunay") None
        (Delaunay.delaunay_violation t);
      check_bool (name ^ ": area preserved") true
        (Float.abs (Delaunay.area_total t -. 10000.0) < 1e-6);
      check_bool (name ^ ": work was committed") true
        (stats.Executor.committed > 0))
    [
      Protect.Forward_gk;
      Protect.General_gk;
      Protect.Abstract_lock;
      Protect.Global_lock;
      Protect.Sharded (Protect.Forward_gk, 8);
    ]

(* [copy] is independent of its source and refines as it does: refining
   a copy leaves the source as built, a copy of a fresh mesh equals a
   fresh [create], and it refines to exactly the mesh the fresh one does *)
let test_delaunay_copy () =
  let fresh () =
    Delaunay.create ~max_pts:64 ~size:100.0
      (Mesh.points ~seed:17 ~n:12 ~size:100.0 ())
  in
  let shape (t : Delaunay.t) =
    (Triset.elements t.Delaunay.live, Delaunay.live_tris t, t.Delaunay.npts)
  in
  let base = fresh () in
  let before = shape base in
  let c = Delaunay.copy base in
  check_bool "a copy of a fresh mesh is a fresh mesh" true (shape c = shape (fresh ()));
  Delaunay.refine_seq c;
  check_bool "refining the copy changed it" true (shape c <> before);
  check_bool "the source's live ids, triangles and points are unchanged" true
    (shape base = before);
  let direct = fresh () in
  Delaunay.refine_seq direct;
  check_bool "the copy refines to the fresh mesh's result" true
    (shape c = shape direct)

(* [delaunay_violation] finds what it checks for, on copies of a refined
   mesh: a live vertex moved to the circumcenter of a live triangle it is
   not part of lies inside that circumcircle (the move breaks several
   triangles at once, so which one is named first is not pinned), and a
   live triangle over three collinear points is degenerate *)
let test_delaunay_violation_found () =
  let base =
    Delaunay.create ~max_pts:64 ~size:100.0
      (Mesh.points ~seed:17 ~n:12 ~size:100.0 ())
  in
  Delaunay.refine_seq base;
  Alcotest.(check (option string)) "the refined mesh is Delaunay" None
    (Delaunay.delaunay_violation base);
  let tris = Delaunay.live_tris base in
  let id, tr = List.hd tris in
  let v =
    List.fold_left
      (fun m (_, (t : Delaunay.tri)) ->
        List.fold_left
          (fun m v ->
            if v = tr.Delaunay.v1 || v = tr.Delaunay.v2 || v = tr.Delaunay.v3
            then m
            else max m v)
          m
          [ t.Delaunay.v1; t.Delaunay.v2; t.Delaunay.v3 ])
      (-1) tris
  in
  let moved = Delaunay.copy base in
  (match
     Delaunay.circumcircle moved.Delaunay.pts.(tr.Delaunay.v1)
       moved.Delaunay.pts.(tr.Delaunay.v2) moved.Delaunay.pts.(tr.Delaunay.v3)
   with
  | Some (cc, _) -> moved.Delaunay.pts.(v) <- cc
  | None -> Alcotest.fail (Fmt.str "triangle %d is degenerate" id));
  (match Delaunay.delaunay_violation moved with
  | Some msg ->
      check_bool
        (Fmt.str "vertex %d moved into triangle %d's circumcircle: %s" v id msg)
        true
        (Test_analysis.contains msg "inside circumcircle")
  | None -> Alcotest.fail "a moved vertex went unnoticed");
  Alcotest.(check (option string)) "the source mesh is unchanged" None
    (Delaunay.delaunay_violation base);
  (* corners 0 and 1 span the bottom side; a point on that line outside
     the box is outside every live circumcircle, so the only violation is
     the degenerate triangle *)
  let flat = Delaunay.copy base in
  let p = Delaunay.add_point flat (-50.0, 0.0) in
  let fid = flat.Delaunay.next_id in
  flat.Delaunay.next_id <- fid + 1;
  Delaunay.add_tri_struct flat fid (Delaunay.mk_tri 0 1 p);
  Alcotest.(check (option string))
    "a collinear triangle is degenerate"
    (Some (Fmt.str "triangle %d is degenerate" fid))
    (Delaunay.delaunay_violation flat)

let test_reference_maxflow () =
  (* hand-checked: classic 6-node example *)
  let edges =
    [ (0, 1, 16); (0, 2, 13); (1, 2, 10); (2, 1, 4); (1, 3, 12); (3, 2, 9);
      (2, 4, 14); (4, 3, 7); (3, 5, 20); (4, 5, 4) ]
  in
  check_int "CLRS maxflow" 23 (Reference.max_flow ~n:6 ~source:0 ~sink:5 edges)

let test_reference_kruskal () =
  let edges = [| (0, 1, 1); (1, 2, 2); (0, 2, 3); (2, 3, 4) |] in
  check_int "mst weight" 7 (Reference.mst_weight ~n:4 edges);
  check_int "mst edges" 3 (List.length (Reference.kruskal ~n:4 edges))

(* ------------------------------------------------------------- *)
(* Preflow-push                                                   *)
(* ------------------------------------------------------------- *)

let preflow_detector (p : Preflow_push.problem) = function
  | `Rw ->
      Protect.protect ~spec:(Flow_graph.spec_rw ()) ~adt:(Protect.adt ())
        Protect.Abstract_lock
  | `Ex ->
      Protect.protect ~spec:(Flow_graph.spec_exclusive ()) ~adt:(Protect.adt ())
        Protect.Abstract_lock
  | `Part ->
      Protect.protect
        ~spec:(Flow_graph.spec_partitioned ~nparts:32 ())
        ~adt:(Protect.adt ()) Protect.Abstract_lock
  | `Global ->
      Protect.protect ~spec:(Flow_graph.spec_rw ()) ~adt:(Protect.adt ())
        Protect.Global_lock
  | `None ->
      ignore p;
      Detector.none

let test_preflow_all_variants () =
  List.iter
    (fun (a, b, seed) ->
      let inp = Genrmf.generate ~a ~b ~seed () in
      let expected =
        Reference.max_flow ~n:inp.Genrmf.n ~source:inp.Genrmf.source
          ~sink:inp.Genrmf.sink inp.Genrmf.edges
      in
      List.iter
        (fun variant ->
          let p = Preflow_push.of_genrmf inp in
          let det = preflow_detector p variant in
          let flow, _ = Preflow_push.run ~processors:4 ~detector:det p in
          check_int (Fmt.str "flow a=%d b=%d" a b) expected flow)
        [ `Rw; `Ex; `Part; `Global; `None ])
    [ (2, 3, 1); (3, 4, 2); (2, 5, 3) ]

let test_preflow_processor_sweep () =
  let inp = Genrmf.generate ~a:3 ~b:3 ~seed:9 () in
  let expected =
    Reference.max_flow ~n:inp.Genrmf.n ~source:inp.Genrmf.source
      ~sink:inp.Genrmf.sink inp.Genrmf.edges
  in
  List.iter
    (fun procs ->
      let p = Preflow_push.of_genrmf inp in
      let det = preflow_detector p `Rw in
      let flow, _ = Preflow_push.run ~processors:procs ~detector:det p in
      check_int (Fmt.str "flow at P=%d" procs) expected flow)
    [ 1; 2; 8; 64 ]

let test_preflow_parallelism_ordering () =
  (* more precise specs admit at least as much parallelism (paper Table 1
     direction): parallelism(rw) >= parallelism(ex) on the same input *)
  let inp = Genrmf.generate ~a:3 ~b:3 ~seed:5 () in
  let prof variant =
    let p = Preflow_push.of_genrmf inp in
    let det = preflow_detector p variant in
    (Preflow_push.profile ~detector:det p).Parameter.parallelism
  in
  let rw = prof `Rw and ex = prof `Ex in
  check_bool (Fmt.str "rw (%.2f) >= ex (%.2f)" rw ex) true (rw >= ex -. 1e-9)

(* ------------------------------------------------------------- *)
(* Boruvka                                                        *)
(* ------------------------------------------------------------- *)

let boruvka_detectors (t : Boruvka.t) = function
  | `Gk ->
      Protect.protect ~spec:(Union_find.spec ())
        ~adt:(Protect.adt ~hooks:(Union_find.hooks t.Boruvka.uf) ())
        Protect.General_gk
  | `Ml ->
      Protect.protect ~spec:(Union_find.spec ())
        ~adt:(Protect.adt ~connect_tracer:(Union_find.set_tracer t.Boruvka.uf) ())
        Protect.Stm
  | `Global ->
      Protect.protect ~spec:(Union_find.spec ()) ~adt:(Protect.adt ())
        Protect.Global_lock
  | `None -> Detector.none

let run_boruvka mesh variant ~processors =
  let t = Boruvka.create ~mesh () in
  let det = boruvka_detectors t variant in
  let stats =
    Executor.run_rounds ~processors
      ~detector:(Boruvka.full_detector t det)
      ~operator:(Boruvka.operator t det)
      (List.init mesh.Mesh.nodes Fun.id)
  in
  (t, stats)

let test_boruvka_all_variants () =
  List.iter
    (fun (rows, cols, seed) ->
      let mesh = Mesh.generate ~rows ~cols ~seed () in
      let expected = Reference.kruskal ~n:mesh.Mesh.nodes mesh.Mesh.edges in
      let expected_w = List.fold_left (fun acc (_, _, w) -> acc + w) 0 expected in
      List.iter
        (fun variant ->
          let t, _ = run_boruvka mesh variant ~processors:4 in
          check_int "weight = kruskal" expected_w (Boruvka.mst_weight t.Boruvka.mst);
          check_int "edge count" (mesh.Mesh.nodes - 1)
            (List.length t.Boruvka.mst);
          (* weights are distinct, so the MST is unique: compare edge sets *)
          let norm es =
            List.sort compare
              (List.map (fun (u, v, w) -> (min u v, max u v, w)) es)
          in
          check_bool "same edges" true (norm t.Boruvka.mst = norm expected))
        [ `Gk; `Ml; `Global; `None ])
    [ (4, 4, 1); (5, 7, 2); (8, 3, 3) ]

let test_boruvka_processor_sweep () =
  let mesh = Mesh.generate ~rows:6 ~cols:6 ~seed:4 () in
  let expected_w = Reference.mst_weight ~n:mesh.Mesh.nodes mesh.Mesh.edges in
  List.iter
    (fun procs ->
      let t, _ = run_boruvka mesh `Gk ~processors:procs in
      check_int (Fmt.str "weight at P=%d" procs) expected_w
        (Boruvka.mst_weight t.Boruvka.mst))
    [ 1; 3; 16 ]

(* ------------------------------------------------------------- *)
(* Clustering                                                     *)
(* ------------------------------------------------------------- *)

let clustering_detector (t : Clustering.t) = function
  | `Gk ->
      Protect.protect ~spec:(Kdtree.spec ())
        ~adt:(Protect.adt ~hooks:(Kdtree.hooks t.Clustering.tree) ())
        Protect.Forward_gk
  | `Ml ->
      Protect.protect ~spec:(Kdtree.spec ())
        ~adt:
          (Protect.adt ~connect_tracer:(Kdtree.set_tracer t.Clustering.tree) ())
        Protect.Stm
  | `Global ->
      Protect.protect ~spec:(Kdtree.spec ()) ~adt:(Protect.adt ())
        Protect.Global_lock
  | `None -> Detector.none

let run_clustering pts variant ~processors =
  let t = Clustering.create ~dims:2 () in
  Clustering.load t pts;
  let det = clustering_detector t variant in
  let stats =
    Executor.run_rounds ~processors ~detector:det
      ~operator:(Clustering.operator t det) (Array.to_list pts)
  in
  (t, stats)

let test_clustering_all_variants () =
  let pts = Point.random_cloud ~seed:11 ~dim:2 48 in
  List.iter
    (fun variant ->
      let t, _ = run_clustering pts variant ~processors:4 in
      check_int "n-1 merges" (Array.length pts - 1)
        (List.length t.Clustering.dendrogram);
      check_int "one cluster left" 1 (Kdtree.size t.Clustering.tree))
    [ `Gk; `Ml; `Global; `None ]

let test_clustering_deterministic_at_p1 () =
  (* at P=1 every detector admits everything, so all detectors produce the
     same dendrogram as the plain sequential run *)
  let pts = Point.random_cloud ~seed:12 ~dim:2 32 in
  let dendro variant =
    let t, _ = run_clustering pts variant ~processors:1 in
    List.rev t.Clustering.dendrogram
  in
  let base = dendro `None in
  List.iter
    (fun variant ->
      check_bool "same dendrogram" true (dendro variant = base))
    [ `Gk; `Ml; `Global ]

let test_clustering_dendrogram_validity () =
  (* each merge combines two points that were live at merge time *)
  let pts = Point.random_cloud ~seed:13 ~dim:2 40 in
  let t, _ = run_clustering pts `Gk ~processors:4 in
  (* replay the dendrogram over a naive set *)
  let live = Hashtbl.create 64 in
  Array.iter (fun p -> Hashtbl.replace live (Array.to_list p) ()) pts;
  List.iter
    (fun (a, b, c) ->
      check_bool "a live" true (Hashtbl.mem live (Array.to_list a));
      check_bool "b live" true (Hashtbl.mem live (Array.to_list b));
      Hashtbl.remove live (Array.to_list a);
      Hashtbl.remove live (Array.to_list b);
      Hashtbl.replace live (Array.to_list c) ())
    (List.rev t.Clustering.dendrogram);
  check_int "single survivor" 1 (Hashtbl.length live)

(* ------------------------------------------------------------- *)
(* Set microbenchmark                                             *)
(* ------------------------------------------------------------- *)

let test_set_micro_distinct_no_aborts () =
  (* paper Table 2(a): with all-distinct keys, every scheme except the
     global lock is abort-free *)
  List.iter
    (fun s ->
      let r = Set_micro.run ~threads:4 ~classes:0 ~n:400 s in
      Alcotest.(check (float 1e-9))
        (Fmt.str "%s abort-free" (Set_micro.scheme_name s))
        0.0 r.Set_micro.abort_pct)
    [ `Exclusive; `Rw; `Gatekeeper ];
  let g = Set_micro.run ~threads:4 ~classes:0 ~n:400 `Global in
  check_bool "global lock aborts" true (g.Set_micro.abort_pct > 10.0)

let test_set_micro_repeats_ordering () =
  (* paper Table 2(b): abort ratio ordering gatekeeper <= rw <= exclusive
     <= global *)
  let ratios =
    List.map
      (fun s -> (Set_micro.run ~threads:4 ~classes:10 ~n:2000 s).Set_micro.abort_pct)
      [ `Gatekeeper; `Rw; `Exclusive; `Global ]
  in
  match ratios with
  | [ gk; rw; ex; gl ] ->
      check_bool (Fmt.str "gk(%.2f) <= rw(%.2f)" gk rw) true (gk <= rw +. 1e-9);
      check_bool (Fmt.str "rw(%.2f) <= ex(%.2f)" rw ex) true (rw <= ex +. 1e-9);
      check_bool (Fmt.str "ex(%.2f) <= global(%.2f)" ex gl) true (ex <= gl +. 1e-9)
  | _ -> assert false

let test_set_micro_final_state () =
  (* the surviving set contents are exactly the keys whose adds committed:
     under any detector the final set equals the sequential result *)
  let seq = Set_micro.run ~threads:1 ~classes:10 ~n:1000 `Gatekeeper in
  ignore seq;
  (* run all schemes at P=4: final abstract state must be identical because
     the op mix is fixed: every added key ends up present *)
  let result s =
    let set = Iset.create () in
    let det = Set_micro.detector_of set s in
    let ops = Set_micro.ops ~classes:10 1000 in
    ignore
      (Executor.run_rounds ~processors:4 ~detector:det
         ~operator:(Set_micro.operator set det) ops);
    List.map Value.to_int (Iset.elements set)
  in
  let base = result `Global in
  List.iter
    (fun s -> check_bool "same final set" true (result s = base))
    [ `Exclusive; `Rw; `Gatekeeper ]

let suite =
  [
    Alcotest.test_case "genrmf shape" `Quick test_genrmf_shape;
    Alcotest.test_case "mesh shape" `Quick test_mesh_shape;
    Alcotest.test_case "reference maxflow" `Quick test_reference_maxflow;
    Alcotest.test_case "reference kruskal" `Quick test_reference_kruskal;
    Alcotest.test_case "preflow: all variants correct" `Slow test_preflow_all_variants;
    Alcotest.test_case "preflow: processor sweep" `Quick test_preflow_processor_sweep;
    Alcotest.test_case "preflow: parallelism ordering" `Quick
      test_preflow_parallelism_ordering;
    Alcotest.test_case "boruvka: all variants = kruskal" `Slow
      test_boruvka_all_variants;
    Alcotest.test_case "boruvka: processor sweep" `Quick test_boruvka_processor_sweep;
    Alcotest.test_case "clustering: all variants complete" `Slow
      test_clustering_all_variants;
    Alcotest.test_case "clustering: deterministic at P=1" `Quick
      test_clustering_deterministic_at_p1;
    Alcotest.test_case "clustering: dendrogram validity" `Quick
      test_clustering_dendrogram_validity;
    Alcotest.test_case "set-micro: distinct input abort-free" `Quick
      test_set_micro_distinct_no_aborts;
    Alcotest.test_case "set-micro: abort ordering on repeats" `Quick
      test_set_micro_repeats_ordering;
    Alcotest.test_case "set-micro: final state agreement" `Quick
      test_set_micro_final_state;
    Alcotest.test_case "mesh: generate invariants" `Quick
      test_mesh_generate_invariants;
    Alcotest.test_case "mesh: point cloud invariants" `Quick
      test_mesh_points_invariants;
    Alcotest.test_case "delaunay: construction is Delaunay" `Quick
      test_delaunay_create_is_delaunay;
    Alcotest.test_case "delaunay: sequential refinement" `Quick
      test_delaunay_refine_seq;
    Alcotest.test_case "delaunay: parallel refinement all schemes" `Quick
      test_delaunay_parallel_refine;
    Alcotest.test_case "delaunay: a copy is independent and refines alike"
      `Quick test_delaunay_copy;
    Alcotest.test_case "delaunay: the oracle finds violations" `Quick
      test_delaunay_violation_found;
  ]
