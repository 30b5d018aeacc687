(** Equality-footprint analysis ({!Commlat_core.Footprint}) over every
    shipped specification, plus runtime shard-routing checks: keyed
    invocations go to hash shards ([shard_inserts]), keyless ones to the
    overflow shard ([overflow_inserts]). *)

open Commlat_core
open Commlat_adts
open Commlat_runtime
module Obs = Commlat_obs.Obs

let specs_dir = "../examples/specs"

let read_file path =
  let ic = open_in_bin path in
  Fun.protect
    ~finally:(fun () -> close_in_noerr ic)
    (fun () -> really_input_string ic (in_channel_length ic))

let load file = Spec_lang.parse (read_file (Filename.concat specs_dir file))

(* The expected footprint of every shipped spec: method -> key term (None =
   keyless, routed to the overflow shard).  [test_shipped_specs] also fails
   if a spec file exists without an entry here, so new specs must declare
   their expected footprint. *)
let expected =
  [
    ("accumulator.spec", [ ("increment", None); ("read", None) ]);
    ( "flow_graph.spec",
      (* push_flow's conditions are conjunctions of disequalities — no
         single clause makes them true, so it cannot be keyed and is
         demoted; the single-node methods then key on their node. *)
      [
        ("get_neighbors", Some "v1[0]");
        ("height", Some "v1[0]");
        ("push_flow", None);
        ("relabel_to", Some "v1[0]");
      ] );
    ( "orset.spec",
      (* add;remove offers two clauses (element and tag); the element is
         chosen for both sides *)
      [ ("add", Some "v1[0]"); ("remove", Some "v1[0]") ] );
    ( "kdtree.spec",
      [
        ("add", Some "v1[0]");
        ("remove", Some "v1[0]");
        ("contains", Some "v1[0]");
        ("nearest", None);
      ] );
    ( "kvmap.spec",
      [
        ("put", Some "v1[0]");
        ("get", Some "v1[0]");
        ("remove", Some "v1[0]");
        ("size", None);
      ] );
    ( "set.spec",
      [ ("add", Some "v1[0]"); ("remove", Some "v1[0]"); ("contains", Some "v1[0]") ]
    );
    ( "set_rw.spec",
      [ ("add", Some "v1[0]"); ("remove", Some "v1[0]"); ("contains", Some "v1[0]") ]
    );
    ("union_find.spec", [ ("union", None); ("find", None); ("create", None) ]);
    ( "triset.spec",
      (* the Delaunay worklist: the cavity footprint is the id set, so
         every method keys on its id argument *)
      [ ("take", Some "v1[0]"); ("add", Some "v1[0]"); ("contains", Some "v1[0]") ]
    );
  ]

let test_shipped_specs () =
  (* every shipped spec has an expectation *)
  Sys.readdir specs_dir |> Array.to_list
  |> List.filter (fun f -> Filename.check_suffix f ".spec")
  |> List.iter (fun f ->
         Alcotest.(check bool)
           (f ^ " has a footprint expectation")
           true
           (List.mem_assoc f expected));
  List.iter
    (fun (file, methods) ->
      let spec = load file in
      let fp = Footprint.analyze spec in
      List.iter
        (fun (m, key) ->
          match key with
          | None ->
              Alcotest.(check bool) (file ^ ": " ^ m ^ " keyless") false
                (Footprint.keyed fp m);
              Alcotest.(check bool)
                (file ^ ": " ^ m ^ " has no key term")
                true
                (Footprint.key_term fp m = None)
          | Some term ->
              Alcotest.(check bool) (file ^ ": " ^ m ^ " keyed") true
                (Footprint.keyed fp m);
              Alcotest.(check string)
                (file ^ ": " ^ m ^ " key term")
                term
                (match Footprint.key_term fp m with
                | Some t -> Fmt.str "%a" Formula.pp_term t
                | None -> "<keyless>"))
        methods;
      Alcotest.(check bool) (file ^ " all_keyless")
        (List.for_all (fun (_, k) -> k = None) methods)
        (Footprint.all_keyless fp))
    expected

(* shard_of: keyed invocations with equal key values land in the same
   shard in [0, nshards), regardless of method; keyless ones return None. *)
let test_shard_of () =
  let spec = load "set.spec" in
  let fp = Footprint.analyze spec in
  let meth name =
    List.find (fun (m : Invocation.meth) -> m.name = name) (Spec.methods spec)
  in
  let nshards = 8 in
  for v = 0 to 99 do
    let inv m = Invocation.make ~txn:1 (meth m) [| Value.Int v |] in
    let s_add = Footprint.shard_of fp ~nshards (inv "add") in
    let s_con = Footprint.shard_of fp ~nshards (inv "contains") in
    (match s_add with
    | Some i ->
        Alcotest.(check bool) "shard in range" true (i >= 0 && i < nshards)
    | None -> Alcotest.fail "add is keyed; expected a shard");
    Alcotest.(check bool)
      (Fmt.str "add/contains of %d share a shard" v)
      true (s_add = s_con)
  done;
  (* kdtree's nearest is keyless: overflow regardless of arguments *)
  let kd = load "kdtree.spec" in
  let kfp = Footprint.analyze kd in
  let nearest =
    List.find (fun (m : Invocation.meth) -> m.name = "nearest") (Spec.methods kd)
  in
  Alcotest.(check bool) "nearest -> overflow" true
    (Footprint.shard_of kfp ~nshards (Invocation.make ~txn:1 nearest [| Value.Int 3 |])
    = None)

(* The mixed workload's union spec lives outside the .spec files (its
   prefixed method names aren't spec-lang identifiers), so its footprint
   expectations are checked here: every member method keys on the first
   argument of its unprefixed original, and the cross-structure
   commute-always pairs must not demote anything to the overflow shard. *)
let test_mixed_workload_footprint () =
  let w =
    match
      Commlat_sched.Workload.mixed ~txns:2 ~ops_per_txn:2 ~keys:2 ~seed:42
        Protect.Forward_gk
    with
    | Ok w -> w
    | Error e -> Alcotest.fail e
  in
  let spec =
    match (w.Commlat_sched.Workload.make ()).Commlat_sched.Scheduler.spec with
    | Some s -> s
    | None -> Alcotest.fail "mixed workload must carry its union spec"
  in
  let fp = Footprint.analyze spec in
  List.iter
    (fun m ->
      Alcotest.(check bool) ("mixed: " ^ m ^ " keyed") true (Footprint.keyed fp m);
      Alcotest.(check string)
        ("mixed: " ^ m ^ " key term")
        "v1[0]"
        (match Footprint.key_term fp m with
        | Some t -> Fmt.str "%a" Formula.pp_term t
        | None -> "<keyless>"))
    [
      "a.put"; "a.get"; "a.remove"; "b.put"; "b.get"; "b.remove";
      "s.add"; "s.remove"; "s.contains";
    ];
  (* size reads the whole map: keyless in kvmap.spec, keyless here too *)
  List.iter
    (fun m ->
      Alcotest.(check bool) ("mixed: " ^ m ^ " keyless") false
        (Footprint.keyed fp m))
    [ "a.size"; "b.size" ];
  Alcotest.(check bool) "mixed: not all keyless" false (Footprint.all_keyless fp)

let counter snap name =
  match List.assoc_opt name snap.Obs.counters with Some n -> n | None -> 0

(* A keyed workload through a sharded forward gatekeeper: every insert is
   a shard insert, none overflow. *)
let test_runtime_keyed_routing () =
  let set = Iset.create () in
  let det =
    Protect.protect ~obs:true ~spec:(Iset.precise_spec ())
      ~adt:(Protect.adt ~hooks:(Iset.hooks set) ())
      (Protect.Sharded (Protect.Forward_gk, 8))
  in
  for _ = 1 to 16 do
    let txn = Txn.fresh () in
    let t = Txn.id txn in
    ignore
      (Boost.invoke det txn
         ~undo:(Iset.undo set)
         Iset.m_add
         [| Value.Int t |]
         (fun inv -> Iset.exec set "add" inv.Invocation.args));
    det.Detector.on_commit (Txn.id txn)
  done;
  let snap = det.Detector.snapshot () in
  Alcotest.(check int) "all inserts keyed" 16 (counter snap "shard_inserts");
  Alcotest.(check int) "no overflow inserts" 0 (counter snap "overflow_inserts")

(* The accumulator spec (paper Fig. 7) has no usable equality footprint:
   every invocation must land in the overflow shard. *)
let test_runtime_keyless_routing () =
  let spec = load "accumulator.spec" in
  let acc = ref 0 in
  let det, _gk =
    Gatekeeper.make ~allow_rollback:false ~nshards:8 ~obs:true
      ~hooks:(Gatekeeper.hooks (fun _ _ -> Value.Unit))
      spec
  in
  let incr_m =
    List.find (fun (m : Invocation.meth) -> m.name = "increment") (Spec.methods spec)
  in
  for t = 1 to 12 do
    let txn = t in
    let inv = Invocation.make ~txn incr_m [| Value.Int t |] in
    ignore
      (det.Detector.on_invoke inv (fun () ->
           incr acc;
           Value.Unit));
    det.Detector.on_commit txn
  done;
  Alcotest.(check int) "all increments executed" 12 !acc;
  let snap = det.Detector.snapshot () in
  Alcotest.(check int) "no keyed inserts" 0 (counter snap "shard_inserts");
  Alcotest.(check int) "all in overflow shard" 12 (counter snap "overflow_inserts")

let suite =
  [
    Alcotest.test_case "shipped specs footprints" `Quick test_shipped_specs;
    Alcotest.test_case "shard_of consistency" `Quick test_shard_of;
    Alcotest.test_case "mixed workload footprints" `Quick
      test_mixed_workload_footprint;
    Alcotest.test_case "keyed workload routing" `Quick test_runtime_keyed_routing;
    Alcotest.test_case "keyless workload routing" `Quick test_runtime_keyless_routing;
  ]
