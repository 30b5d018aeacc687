(* Tests of the truly-concurrent domain executor: honest stats, commit-hook
   failure atomicity, guard/deque primitives, and cross-executor
   equivalence — every conflict scheme must produce the same results under
   run_domains at 1, 2 and 8 domains as under run_sequential. *)

open Commlat_core
open Commlat_adts
open Commlat_runtime
module Obs = Commlat_obs.Obs

let check_bool = Alcotest.(check bool)
let check_int = Alcotest.(check int)

(* ------------------------------------------------------------- *)
(* Guard: reentrancy and multi-guard ordering                     *)
(* ------------------------------------------------------------- *)

let test_guard_reentrant () =
  let g = Guard.create () in
  let r =
    Guard.protect g (fun () -> Guard.protect g (fun () -> Guard.protect g (fun () -> 42)))
  in
  check_int "nested protect returns" 42 r;
  (* fully released: another domain can take it *)
  let taken = Domain.spawn (fun () -> Guard.protect g (fun () -> true)) in
  check_bool "released after nested exits" true (Domain.join taken)

let test_guard_protect_all_dedups () =
  let g1 = Guard.create () and g2 = Guard.create () in
  (* duplicates and reverse creation order: still acquires, runs, releases *)
  let r = Guard.protect_all [ g2; g1; g2; g1 ] (fun () -> Guard.protect g1 (fun () -> 7)) in
  check_int "protect_all with duplicates" 7 r;
  let taken = Domain.spawn (fun () -> Guard.protect_all [ g1; g2 ] (fun () -> true)) in
  check_bool "all released" true (Domain.join taken)

let test_guard_mutual_exclusion () =
  let g = Guard.create () in
  let counter = ref 0 in
  let bump () =
    for _ = 1 to 5_000 do
      Guard.protect g (fun () -> counter := !counter + 1)
    done
  in
  let ds = List.init 3 (fun _ -> Domain.spawn bump) in
  bump ();
  List.iter Domain.join ds;
  check_int "4 domains x 5000 guarded increments" 20_000 !counter

(* ------------------------------------------------------------- *)
(* Honest stats (satellite: rounds/makespan/parallelism)          *)
(* ------------------------------------------------------------- *)

let acc_operator acc det (txn : Txn.t) x =
  Accumulator.invoke_increment det acc ~txn:(Txn.id txn) x;
  Txn.push_undo txn (fun () -> Accumulator.increment acc (-x));
  []

let test_domains_stats_honest () =
  let acc = Accumulator.create () in
  let det = Protect.protect ~spec:(Accumulator.spec ()) ~adt:(Protect.adt ()) Protect.Abstract_lock in
  let s =
    Executor.run_domains ~domains:2 ~detector:det
      ~operator:(fun det txn x -> acc_operator acc det txn x)
      (List.init 200 (fun i -> i + 1))
  in
  check_bool "no rounds exist for a domains run" true (s.Executor.rounds = None);
  check_bool "rounds_exn refuses to invent one" true
    (match Executor.rounds_exn s with
    | _ -> false
    | exception Invalid_argument _ -> true);
  check_bool "wall clock measured" true (s.Executor.wall_s > 0.0);
  Alcotest.(check (float 1e-9)) "makespan is the wall clock" s.Executor.wall_s
    s.Executor.makespan;
  check_bool "total_work = busy seconds, not a commit count" true
    (s.Executor.total_work > 0.0
    && s.Executor.total_work <> float_of_int (s.Executor.committed + s.Executor.aborted));
  let p = Executor.parallelism s in
  check_bool "effective parallelism in (0, domains]" true (p > 0.0 && p <= 2.0 +. 1e-6);
  let rendered = Fmt.str "%a" Executor.pp_stats s in
  let contains hay needle =
    let nh = String.length hay and nn = String.length needle in
    let rec go i = i + nn <= nh && (String.sub hay i nn = needle || go (i + 1)) in
    go 0
  in
  check_bool "pp_stats prints rounds=-" true (contains rendered "rounds=-")

(* ------------------------------------------------------------- *)
(* Commit-hook failure (satellite: stats counted after commit)    *)
(* ------------------------------------------------------------- *)

exception Hook_boom

let test_commit_hook_failure_is_atomic () =
  (* a hook that raises on the 5th commit: the 5th transaction must be
     rolled back, stats and obs must agree on 4 commits (the old executor
     counted the commit BEFORE running the hook) *)
  let obs = Obs.create ~enabled:true "hook" in
  let acc = Accumulator.create () in
  let inner = Protect.protect ~spec:(Accumulator.spec ()) ~adt:(Protect.adt ()) Protect.Abstract_lock in
  let commits = ref 0 in
  let det =
    {
      inner with
      Detector.name = "poisoned-commit";
      on_commit =
        (fun txn ->
          inner.Detector.on_commit txn;
          incr commits;
          if !commits = 5 then raise Hook_boom);
    }
  in
  (match
     Executor.run_domains ~domains:1 ~obs ~detector:det
       ~operator:(fun det txn x -> acc_operator acc det txn x)
       (List.init 10 (fun i -> i + 1))
   with
  | _ -> Alcotest.fail "commit-hook exception must re-raise from run_domains"
  | exception Hook_boom -> ());
  check_int "poisoned transaction rolled back" 10 (Accumulator.read acc);
  let snap = Obs.snapshot obs in
  check_int "obs committed counts only completed commits" 4
    (Obs.counter_value snap "committed")

(* ------------------------------------------------------------- *)
(* Cross-executor equivalence                                     *)
(* ------------------------------------------------------------- *)

let domain_counts = [ 1; 2; 8 ]

(* Add-only contended set workload: set union is confluent, so every
   serializable execution ends in the same state. *)
let set_items = List.init 120 (fun i -> i mod 12)

let set_operator set det (txn : Txn.t) (v : int) =
  let exec (inv : Invocation.t) = Iset.exec set "add" inv.Invocation.args in
  ignore (Boost.invoke det txn ~undo:(Iset.undo set) Iset.m_add [| Value.Int v |] exec);
  []

let sorted_elements set = List.sort compare (Iset.elements set)

let set_detectors : (string * (Iset.t -> Detector.t)) list =
  [
    ( "global-lock",
      fun _ ->
        Protect.protect ~spec:(Iset.exclusive_spec ()) ~adt:(Protect.adt ())
          Protect.Global_lock );
    ( "abslock-excl",
      fun _ ->
        Protect.protect ~spec:(Iset.exclusive_spec ()) ~adt:(Protect.adt ())
          Protect.Abstract_lock );
    ( "abslock-rw",
      fun _ ->
        Protect.protect ~spec:(Iset.simple_spec ()) ~adt:(Protect.adt ())
          Protect.Abstract_lock );
    ( "fwd-gk",
      fun set ->
        Protect.protect ~spec:(Iset.precise_spec ())
          ~adt:(Protect.adt ~hooks:(Iset.hooks set) ())
          Protect.Forward_gk );
    (* footprint-sharded/striped variants must report exactly the same
       conflicts as their unsharded counterparts *)
    ( "fwd-gk-sharded",
      fun set ->
        Protect.protect ~spec:(Iset.precise_spec ())
          ~adt:(Protect.adt ~hooks:(Iset.hooks set) ())
          (Protect.Sharded (Protect.Forward_gk, 8)) );
    ( "abslock-rw-striped",
      fun _ ->
        Protect.protect ~spec:(Iset.simple_spec ()) ~adt:(Protect.adt ())
          (Protect.Sharded (Protect.Abstract_lock, 8)) );
  ]

(* Multi-op transactions on a kvmap, overlapping key ranges plus a keyless
   [size] call per transaction: exercises the striped gatekeeper's keyed
   shards, the overflow shard (size has no footprint key) and real
   conflicts/retries at every domain count.  The final map must equal the
   one a sequential run produces (last-writer-wins is confluent here
   because every transaction writes its own value only to keys it owns
   modulo the overlap set, and the reference is recomputed per run). *)
let kvmap_txn m det (txn : Txn.t) (i : int) =
  for j = 0 to 7 do
    (* key blocks overlap by half; the value is a function of the key, so
       overlapping puts write the same binding and the final map is the
       same under every serialization *)
    let k = (i * 4) + j in
    ignore
      (Boost.invoke det txn ~undo:(Kvmap.undo m) Kvmap.m_put
         [| Value.Int k; Value.Int ((2 * k) + 1) |]
         (fun (inv : Invocation.t) -> Kvmap.exec m "put" inv.Invocation.args))
  done;
  (* keyless method: lands in the overflow shard and conflicts with
     concurrent puts, exercising retries through the striped path *)
  ignore
    (Boost.invoke_ro det txn Kvmap.m_size [||] (fun (inv : Invocation.t) ->
         Kvmap.exec m "size" inv.Invocation.args));
  []

let test_sharded_kvmap_equivalence () =
  let mk sharded m =
    Protect.protect ~spec:(Kvmap.precise_spec ())
      ~adt:(Protect.adt ~hooks:(Kvmap.hooks m) ())
      (if sharded then Protect.Sharded (Protect.Forward_gk, 8)
       else Protect.Forward_gk)
  in
  let items = List.init 40 Fun.id in
  let run_seq () =
    let m = Kvmap.create () in
    let det = mk false m in
    ignore
      (Executor.run_sequential ~detector:det
         ~operator:(fun txn i -> kvmap_txn m det txn i)
         items);
    List.sort compare (Kvmap.bindings m)
  in
  let reference = run_seq () in
  List.iter
    (fun d ->
      List.iter
        (fun sharded ->
          let m = Kvmap.create () in
          let det = mk sharded m in
          let s =
            Executor.run_domains ~domains:d ~detector:det
              ~operator:(fun det txn i -> kvmap_txn m det txn i)
              items
          in
          check_int
            (Fmt.str "kvmap %s @ %d domains: all txns committed"
               (if sharded then "sharded" else "unsharded")
               d)
            (List.length items) s.Executor.committed;
          check_bool
            (Fmt.str "kvmap %s @ %d domains: same final bindings"
               (if sharded then "sharded" else "unsharded")
               d)
            true
            (List.sort compare (Kvmap.bindings m) = reference))
        [ false; true ])
    domain_counts

let test_set_equivalence () =
  List.iter
    (fun (name, mk) ->
      let ref_set = Iset.create () in
      let ref_det = mk ref_set in
      let ref_stats =
        Executor.run_sequential ~detector:ref_det
          ~operator:(set_operator ref_set ref_det) set_items
      in
      check_int (name ^ ": sequential commits every item") (List.length set_items)
        ref_stats.Executor.committed;
      let reference = sorted_elements ref_set in
      List.iter
        (fun d ->
          let set = Iset.create () in
          let det = mk set in
          let s =
            Executor.run_domains ~domains:d ~detector:det
              ~operator:(fun det txn v -> set_operator set det txn v)
              set_items
          in
          check_int
            (Fmt.str "%s @ %d domains: same committed multiset" name d)
            (List.length set_items) s.Executor.committed;
          check_bool
            (Fmt.str "%s @ %d domains: same final ADT state" name d)
            true
            (sorted_elements set = reference))
        domain_counts)
    set_detectors

let test_boruvka_equivalence () =
  (* general gatekeeper end-to-end: undo/redo sweeps, composed detectors,
     app-level locks — MST weight must match Kruskal and the sequential
     executor at every domain count *)
  let open Commlat_apps in
  let mesh = Mesh.generate ~rows:8 ~cols:8 () in
  let expected = Reference.mst_weight ~n:mesh.Mesh.nodes mesh.Mesh.edges in
  let run_seq () =
    let t = Boruvka.create ~mesh () in
    let det =
      Protect.protect ~spec:(Union_find.spec ())
        ~adt:(Protect.adt ~hooks:(Union_find.hooks t.Boruvka.uf) ())
        Protect.General_gk
    in
    ignore
      (Executor.run_sequential
         ~detector:(Boruvka.full_detector t det)
         ~operator:(Boruvka.operator t det)
         (List.init mesh.Mesh.nodes Fun.id));
    Boruvka.mst_weight t.Boruvka.mst
  in
  check_int "sequential = kruskal" expected (run_seq ());
  List.iter
    (fun d ->
      let t = Boruvka.create ~mesh () in
      let det =
        Protect.protect ~spec:(Union_find.spec ())
          ~adt:(Protect.adt ~hooks:(Union_find.hooks t.Boruvka.uf) ())
          Protect.General_gk
      in
      ignore
        (Executor.run_domains ~domains:d
           ~detector:(Boruvka.full_detector t det)
           ~operator:(fun _wrapped txn item -> Boruvka.operator t det txn item)
           (List.init mesh.Mesh.nodes Fun.id));
      check_int
        (Fmt.str "gen-gk boruvka @ %d domains = kruskal" d)
        expected
        (Boruvka.mst_weight t.Boruvka.mst))
    domain_counts

let test_stm_equivalence () =
  (* one traced cell, commutative increments: memory-level detection makes
     every concurrent pair conflict, hammering the abort/retry path *)
  let run d =
    let tr = ref Mem_trace.null in
    let stm_det =
      Protect.protect
        ~spec:(Iset.exclusive_spec ())
        ~adt:(Protect.adt ~connect_tracer:(fun t -> tr := t) ())
        Protect.Stm
    in
    let tracer = !tr in
    let cell = ref 0 in
    let meth = Invocation.meth "op" 0 in
    let operator _det (txn : Txn.t) (x : int) =
      Txn.push_undo txn (fun () -> cell := !cell - x);
      let inv = Invocation.make ~txn:(Txn.id txn) meth [||] in
      ignore
        (stm_det.Detector.on_invoke inv (fun () ->
             tracer.Mem_trace.read 0;
             let v = !cell in
             tracer.Mem_trace.write 0;
             cell := v + x;
             Value.Unit));
      []
    in
    let s =
      Executor.run_domains ~domains:d ~detector:stm_det ~operator
        (List.init 60 (fun i -> i + 1))
    in
    (s.Executor.committed, !cell)
  in
  List.iter
    (fun d ->
      let committed, total = run d in
      check_int (Fmt.str "stm @ %d domains: every item commits" d) 60 committed;
      check_int (Fmt.str "stm @ %d domains: sum exact" d) (60 * 61 / 2) total)
    domain_counts

let test_stress_retries_and_stealing () =
  (* 8 domains, a global lock (maximum contention), and operator-generated
     children: exercises retry-at-front, stealing from sibling deques and
     the pending-counter termination protocol in one run.  Items are
     (depth, value) chains; every link increments once. *)
  let acc = Accumulator.create () in
  let det =
    Protect.protect ~spec:(Accumulator.spec ()) ~adt:(Protect.adt ())
      Protect.Global_lock
  in
  let depth = 5 in
  let roots = List.init 16 (fun i -> (depth, i + 1)) in
  let operator det (txn : Txn.t) (d, v) =
    Accumulator.invoke_increment det acc ~txn:(Txn.id txn) v;
    Txn.push_undo txn (fun () -> Accumulator.increment acc (-v));
    if d > 0 then [ (d - 1, v) ] else []
  in
  let obs = Obs.create ~enabled:true "stress" in
  let s = Executor.run_domains ~domains:8 ~obs ~detector:det ~operator roots in
  let expected_commits = 16 * (depth + 1) in
  check_int "every chain link committed" expected_commits s.Executor.committed;
  check_int "sum exact despite aborts"
    (List.fold_left (fun a (_, v) -> a + (v * (depth + 1))) 0 roots)
    (Accumulator.read acc);
  (* aborts are scheduling-dependent (a single-core machine may serialize
     the whole run); only their accounting is checked, not their count *)
  check_bool "abort count non-negative" true (s.Executor.aborted >= 0)

(* ------------------------------------------------------------- *)
(* Mid-run detector swap (adaptive hot-swap, executor level)      *)
(* ------------------------------------------------------------- *)

(* The server's adaptive controller replaces an ADT's detector at a
   quiescent point (every transaction committed).  The executor-level
   equivalent: run half the workload under scheme A, let run_domains
   quiesce, hand the SAME ADT to a detector built from scheme B, run the
   rest — for every ordered scheme pair that can protect the ADT, at 1, 2
   and 8 domains.  Since set union is confluent, any sound pair of
   detectors must land on exactly the sequential final state; a detector
   whose conflict decisions leak across the swap (stale active tables,
   locks surviving the handoff) shows up as lost or duplicated effects. *)

let swap_schemes : (string * (Iset.t -> Detector.t)) list =
  [
    ( "global-lock",
      fun _ ->
        Protect.protect ~spec:(Iset.exclusive_spec ()) ~adt:(Protect.adt ())
          Protect.Global_lock );
    ( "abslock",
      fun _ ->
        Protect.protect ~spec:(Iset.simple_spec ()) ~adt:(Protect.adt ())
          Protect.Abstract_lock );
    ( "fwd-gk",
      fun set ->
        Protect.protect ~spec:(Iset.precise_spec ())
          ~adt:(Protect.adt ~hooks:(Iset.hooks set) ())
          Protect.Forward_gk );
    ( "fwd-gk-sharded",
      fun set ->
        Protect.protect ~spec:(Iset.precise_spec ())
          ~adt:(Protect.adt ~hooks:(Iset.hooks set) ())
          (Protect.Sharded (Protect.Forward_gk, 8)) );
  ]

let test_mid_run_swap_equivalence () =
  let reference =
    let set = Iset.create () in
    let det = (List.assoc "fwd-gk" swap_schemes) set in
    ignore
      (Executor.run_sequential ~detector:det ~operator:(set_operator set det)
         set_items);
    sorted_elements set
  in
  let half = List.length set_items / 2 in
  let first = List.filteri (fun i _ -> i < half) set_items in
  let second = List.filteri (fun i _ -> i >= half) set_items in
  List.iter
    (fun d ->
      List.iter
        (fun (na, mka) ->
          List.iter
            (fun (nb, mkb) ->
              let set = Iset.create () in
              let det_a = mka set in
              let s1 =
                Executor.run_domains ~domains:d ~detector:det_a
                  ~operator:(fun det txn v -> set_operator set det txn v)
                  first
              in
              (* run_domains has quiesced: zero open transactions — the
                 same precondition the server's swap barrier establishes *)
              let det_b = mkb set in
              let s2 =
                Executor.run_domains ~domains:d ~detector:det_b
                  ~operator:(fun det txn v -> set_operator set det txn v)
                  second
              in
              check_int
                (Fmt.str "%s->%s @ %d domains: all committed" na nb d)
                (List.length set_items)
                (s1.Executor.committed + s2.Executor.committed);
              check_bool
                (Fmt.str "%s->%s @ %d domains: final state = sequential" na nb
                   d)
                true
                (sorted_elements set = reference))
            swap_schemes)
        swap_schemes)
    domain_counts

(* Same protocol for the GENERAL end of the lattice: union-find under the
   general gatekeeper, swapped mid-run to the STM baseline (and back),
   sharing one structure.  The union set is fixed, so the final partition
   must match a plain sequential fold whatever the detector or order. *)
let test_mid_run_swap_uf_gen_gk_stm () =
  let elements = 16 in
  let unions = List.init 24 (fun i -> (i mod elements, ((i * 7) + 3) mod elements)) in
  let same_set_matrix same_set =
    List.concat_map
      (fun a -> List.map (fun b -> same_set a b) (List.init elements Fun.id))
      (List.init elements Fun.id)
  in
  let reference =
    let uf = Union_find.create () in
    ignore (Union_find.create_elements uf elements);
    List.iter (fun (a, b) -> ignore (Union_find.union uf a b)) unions;
    same_set_matrix (Union_find.same_set uf)
  in
  let mk_gen uf =
    Protect.protect ~spec:(Union_find.spec ())
      ~adt:
        (Protect.adt ~hooks:(Union_find.hooks uf)
           ~connect_tracer:(Union_find.set_tracer uf) ())
      Protect.General_gk
  in
  let mk_stm uf =
    Protect.protect ~spec:(Union_find.spec ())
      ~adt:
        (Protect.adt ~hooks:(Union_find.hooks uf)
           ~connect_tracer:(Union_find.set_tracer uf) ())
      Protect.Stm
  in
  let operator uf det (txn : Txn.t) (a, b) =
    ignore
      (Boost.invoke det txn ~undo:(Union_find.undo uf) Union_find.m_union
         [| Value.Int a; Value.Int b |]
         (fun inv -> Union_find.exec_logged uf inv));
    []
  in
  let half = List.length unions / 2 in
  let first = List.filteri (fun i _ -> i < half) unions in
  let second = List.filteri (fun i _ -> i >= half) unions in
  List.iter
    (fun d ->
      List.iter
        (fun (name, mk1, mk2) ->
          let uf = Union_find.create () in
          ignore (Union_find.create_elements uf elements);
          let det1 = mk1 uf in
          let s1 =
            Executor.run_domains ~domains:d ~detector:det1
              ~operator:(fun det txn u -> operator uf det txn u)
              first
          in
          let det2 = mk2 uf in
          let s2 =
            Executor.run_domains ~domains:d ~detector:det2
              ~operator:(fun det txn u -> operator uf det txn u)
              second
          in
          check_int
            (Fmt.str "%s @ %d domains: all unions committed" name d)
            (List.length unions)
            (s1.Executor.committed + s2.Executor.committed);
          check_bool
            (Fmt.str "%s @ %d domains: partition = sequential" name d)
            true
            (same_set_matrix (Union_find.same_set uf) = reference))
        [
          ("gen-gk->stm", mk_gen, mk_stm);
          ("stm->gen-gk", mk_stm, mk_gen);
        ])
    domain_counts

(* ------------------------------------------------------------- *)
(* Orset presence-log regressions (per-instance undo log)         *)
(* ------------------------------------------------------------- *)

(* Two instances, one invocation uid: the old module-global log let
   instance B's pre-state clobber instance A's entry, so A's undo
   restored the wrong state.  Per-instance logs keep them independent,
   and an undo on an instance that never executed the invocation is a
   no-op. *)
let test_orset_two_instances_colliding_uid () =
  let a = Orset.create () and b = Orset.create () in
  let e = Value.Str "x" and i = Value.Int 1 in
  Orset.add a e i;
  (* pair present in A, absent in B *)
  let inv = Invocation.make ~txn:1 Orset.m_add [| e; i |] in
  ignore (Orset.exec_logged a inv);
  (* same uid, same args, different instance — the collision *)
  ignore (Orset.exec_logged b inv);
  Orset.undo b inv;
  check_bool "B's undo removes its own speculative add" false (Orset.mem b e i);
  Orset.undo a inv;
  check_bool "A's undo sees A's pre-state (present), not B's" true
    (Orset.mem a e i);
  check_int "both logs drained by undo" 0 (Orset.log_size a + Orset.log_size b);
  (* undoing an invocation that never executed on this instance: no-op *)
  let ghost = Invocation.make ~txn:2 Orset.m_add [| e; i |] in
  Orset.undo a ghost;
  check_bool "ghost undo does not corrupt state" true (Orset.mem a e i)

(* Commit must drop presence-log entries too (the gatekeeper's forget
   hook), not just undo: a long-running server would otherwise leak one
   entry per committed add/remove forever.  Checked single-threaded on
   both the coarse and the striped forward gatekeeper... *)
let test_orset_log_forgotten_on_commit () =
  List.iter
    (fun scheme ->
      let os = Orset.create () in
      let det =
        Protect.protect ~spec:(Orset.spec ())
          ~adt:(Protect.adt ~hooks:(Orset.hooks os) ())
          scheme
      in
      for i = 0 to 49 do
        let txn = Txn.fresh () in
        ignore
          (Boost.invoke det txn ~undo:(Orset.undo os) Orset.m_add
             [| Value.Int (i mod 5); Value.Int i |]
             (fun inv -> Orset.exec_logged os inv));
        det.Detector.on_commit (Txn.id txn);
        Txn.commit txn
      done;
      check_int
        (Fmt.str "log empty after 50 commits (%s)" det.Detector.name)
        0 (Orset.log_size os))
    [ Protect.Forward_gk; Protect.Sharded (Protect.Forward_gk, 8) ]

(* ... and under real parallelism: a run_domains stress over both orset
   methods must quiesce with an empty log at every domain count. *)
let test_orset_log_leak_free_under_domains () =
  List.iter
    (fun d ->
      let os = Orset.create () in
      let det =
        Protect.protect ~spec:(Orset.spec ())
          ~adt:(Protect.adt ~hooks:(Orset.hooks os) ())
          (Protect.Sharded (Protect.Forward_gk, 8))
      in
      let items = List.init 400 (fun i -> i) in
      let operator _det txn i =
        let e = Value.Int (i mod 13) and tag = Value.Int i in
        ignore
          (Boost.invoke det txn ~undo:(Orset.undo os) Orset.m_add [| e; tag |]
             (fun inv -> Orset.exec_logged os inv));
        if i mod 3 = 0 then
          ignore
            (Boost.invoke det txn ~undo:(Orset.undo os) Orset.m_remove
               [| e; tag |] (fun inv -> Orset.exec_logged os inv));
        []
      in
      let s = Executor.run_domains ~domains:d ~detector:det ~operator items in
      check_int
        (Fmt.str "all items committed @ %d domains" d)
        (List.length items) s.Executor.committed;
      check_int
        (Fmt.str "presence log drained after quiesce @ %d domains" d)
        0 (Orset.log_size os))
    [ 1; 2; 8 ]

let suite =
  [
    Alcotest.test_case "guard: reentrant" `Quick test_guard_reentrant;
    Alcotest.test_case "guard: protect_all dedups and orders" `Quick
      test_guard_protect_all_dedups;
    Alcotest.test_case "guard: mutual exclusion across domains" `Quick
      test_guard_mutual_exclusion;
    Alcotest.test_case "domains: honest stats" `Quick test_domains_stats_honest;
    Alcotest.test_case "domains: raising commit hook is atomic" `Quick
      test_commit_hook_failure_is_atomic;
    Alcotest.test_case "equivalence: set schemes x {1,2,8} domains" `Slow
      test_set_equivalence;
    Alcotest.test_case "equivalence: sharded kvmap (keyed + overflow) x {1,2,8}"
      `Slow test_sharded_kvmap_equivalence;
    Alcotest.test_case "equivalence: boruvka general gatekeeper" `Slow
      test_boruvka_equivalence;
    Alcotest.test_case "equivalence: stm" `Slow test_stm_equivalence;
    Alcotest.test_case "stress: retries, stealing, termination" `Slow
      test_stress_retries_and_stealing;
    Alcotest.test_case "swap: scheme pairs mid-run x {1,2,8} domains" `Slow
      test_mid_run_swap_equivalence;
    Alcotest.test_case "swap: gen-gk <-> stm mid-run x {1,2,8} domains" `Slow
      test_mid_run_swap_uf_gen_gk_stm;
    Alcotest.test_case "orset: per-instance logs survive colliding uids" `Quick
      test_orset_two_instances_colliding_uid;
    Alcotest.test_case "orset: commit forgets log entries" `Quick
      test_orset_log_forgotten_on_commit;
    Alcotest.test_case "orset: leak-free under run_domains x {1,2,8}" `Slow
      test_orset_log_leak_free_under_domains;
  ]
