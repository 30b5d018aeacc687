(* Benchmark harness reproducing every table and figure of the paper's
   evaluation (§5).  See DESIGN.md §3 for the experiment index and §4 for
   the hardware substitutions (1-core container: conflict-detection
   overheads are measured directly; thread scaling comes from the
   bulk-synchronous simulator whose conflicts are decided by the real
   detectors).

   Usage:
     dune exec bench/main.exe                 # all experiments, default scale
     dune exec bench/main.exe -- table1       # one experiment
     dune exec bench/main.exe -- --full all   # paper-scale inputs (slow)
     dune exec bench/main.exe -- bechamel     # Bechamel microbenchmarks

   [--seed N] re-seeds every workload generator (default 42); the seed is
   stamped into --json documents and required by `commlat stats
   --validate`.  [--json FILE] writes the experiment's commlat-bench/1
   document. *)

open Commlat_core
open Commlat_adts
open Commlat_runtime
open Commlat_apps
module Obs = Commlat_obs.Obs
module Jsonx = Commlat_obs.Jsonx

let pf = Format.printf

(* Master seed for every workload generator (--seed N, default 42).  Each
   generator derives its stream with a distinct offset so changing the
   seed re-randomizes all inputs coherently without correlating them.
   The seed is stamped into every --json document ("seed") and checked by
   `commlat stats --validate`. *)
let run_seed = ref 42

(* ------------------------------------------------------------------ *)
(* Scales                                                              *)
(* ------------------------------------------------------------------ *)

type scale = {
  genrmf_a : int;
  genrmf_b : int;
  mesh_rows : int;
  mesh_cols : int;
  cluster_points : int;
  micro_ops : int;
}

let default_scale =
  {
    genrmf_a = 5;
    genrmf_b = 6;
    mesh_rows = 36;
    mesh_cols = 36;
    cluster_points = 1500;
    micro_ops = 100_000;
  }

(* Paper-scale inputs: GENRMF challenge-class network, 1000x1000 mesh,
   100k-500k points, 1M ops.  Hours on one core. *)
let full_scale =
  {
    genrmf_a = 12;
    genrmf_b = 12;
    mesh_rows = 1000;
    mesh_cols = 1000;
    cluster_points = 100_000;
    micro_ops = 1_000_000;
  }

(* ------------------------------------------------------------------ *)
(* Shared measurement helpers                                          *)
(* ------------------------------------------------------------------ *)

(* Estimated wall-clock of a simulated P-processor run: the run executed
   [total_work] cost units in [wall_s] seconds of real (serial) time; its
   virtual duration is [makespan] units. *)
let est_time (s : Executor.stats) =
  if s.Executor.total_work <= 0.0 then 0.0
  else s.Executor.wall_s *. s.Executor.makespan /. s.Executor.total_work

let header title =
  pf "@.============================================================@.";
  pf "%s@." title;
  pf "============================================================@."

(* Machine-readable output (--json FILE): every row of a table/figure is an
   object carrying the paper metrics plus the conflict detector's own
   observability snapshot under "obs", wrapped in a schema-stamped document
   that `commlat stats --validate` checks in CI. *)
let json_doc ~experiment ~full rows =
  Obs.bench_doc ~experiment ~seed:!run_seed
    ~scale:(if full then "full" else "default")
    rows

(* ------------------------------------------------------------------ *)
(* Application plumbing                                                *)
(* ------------------------------------------------------------------ *)

(* The paper's three preflow-push variants: [ml] is memory-level detection
   (the paper notes the rw-lock scheme "is identical to the conflict
   detection performed by a transactional memory"; we realize it with the
   instrumented STM baseline so its higher bookkeeping overhead is also
   reproduced), [ex] strengthens reads to exclusive locks, [part] uses
   32-partition lock coarsening. *)
let preflow_variants =
  [
    ( "part",
      fun (p : Preflow_push.problem) ->
        Protect.protect
          ~spec:(Flow_graph.spec_partitioned ~nparts:32 ~n:p.Preflow_push.n ())
          ~adt:(Protect.adt ()) Protect.Abstract_lock );
    ( "ex",
      fun (_p : Preflow_push.problem) ->
        Protect.protect
          ~spec:(Flow_graph.spec_exclusive ())
          ~adt:(Protect.adt ()) Protect.Abstract_lock );
    ( "ml",
      fun (p : Preflow_push.problem) ->
        Protect.protect
          ~spec:(Flow_graph.spec_exclusive ())
          ~adt:(Protect.adt ~connect_tracer:(Flow_graph.set_tracer p.Preflow_push.g) ())
          Protect.Stm );
  ]

let preflow_input scale =
  Genrmf.generate ~seed:!run_seed ~a:scale.genrmf_a ~b:scale.genrmf_b ()

let preflow_run ?(processors = 4) inp variant_det =
  let p = Preflow_push.of_genrmf inp in
  let det = variant_det p in
  let flow, stats = Preflow_push.run ~processors ~detector:det p in
  (flow, stats, det.Detector.snapshot ())

let preflow_profile inp variant_det =
  let p = Preflow_push.of_genrmf inp in
  let det = variant_det p in
  let prof = Preflow_push.profile ~detector:det p in
  (prof, det.Detector.snapshot ())

let boruvka_mk_detector t variant =
  let adt =
    Protect.adt
      ~hooks:(Union_find.hooks t.Boruvka.uf)
      ~connect_tracer:(Union_find.set_tracer t.Boruvka.uf)
      ()
  in
  match variant with
  | `Gk -> Protect.protect ~spec:(Union_find.spec ()) ~adt Protect.General_gk
  | `Ml -> Protect.protect ~spec:(Union_find.spec ()) ~adt Protect.Stm
  | `None -> Detector.none

let boruvka_run ?(processors = 4) mesh variant =
  let t = Boruvka.create ~mesh () in
  let det = boruvka_mk_detector t variant in
  let full = Boruvka.full_detector t det in
  let stats =
    Executor.run_rounds ~processors ~detector:full
      ~operator:(Boruvka.operator t det)
      (List.init mesh.Mesh.nodes Fun.id)
  in
  (t, stats, full.Detector.snapshot ())

let boruvka_profile mesh variant =
  let t = Boruvka.create ~mesh () in
  let det = boruvka_mk_detector t variant in
  let full = Boruvka.full_detector t det in
  let prof =
    Parameter.profile ~detector:full
      ~operator:(Boruvka.operator t det)
      (List.init mesh.Mesh.nodes Fun.id)
  in
  (prof, full.Detector.snapshot ())

let clustering_mk_detector t variant =
  let adt =
    Protect.adt
      ~hooks:(Kdtree.hooks t.Clustering.tree)
      ~connect_tracer:(Kdtree.set_tracer t.Clustering.tree)
      ()
  in
  match variant with
  | `Gk -> Protect.protect ~spec:(Kdtree.spec ()) ~adt Protect.Forward_gk
  | `Ml -> Protect.protect ~spec:(Kdtree.spec ()) ~adt Protect.Stm
  | `None -> Detector.none

let clustering_run ?(processors = 4) pts variant =
  let t = Clustering.create ~dims:2 () in
  Clustering.load t pts;
  let det = clustering_mk_detector t variant in
  let stats =
    Executor.run_rounds ~processors ~detector:det
      ~operator:(Clustering.operator t det) (Array.to_list pts)
  in
  (t, stats, det.Detector.snapshot ())

let clustering_profile pts variant =
  let t = Clustering.create ~dims:2 () in
  Clustering.load t pts;
  let det = clustering_mk_detector t variant in
  let prof =
    Parameter.profile ~detector:det ~operator:(Clustering.operator t det)
      (Array.to_list pts)
  in
  (prof, det.Detector.snapshot ())

(* ------------------------------------------------------------------ *)
(* Table 1: critical path, parallelism, overhead                       *)
(* ------------------------------------------------------------------ *)

let table1 scale =
  header
    "Table 1: critical path length, average parallelism, overhead\n\
     paper reference values --\n\
     preflow   part/ex/ml : path 2789217/51978/47558, par 25.69/1894.88/2072.52,\n\
    \                       ovh 1.14/1.80/5.62\n\
     boruvka   uf-ml/uf-gk: path 3678/3681, par 271.89/271.67, ovh 2.5/1.31\n\
     clustering kd-ml/kd-gk: path 2209/123, par 115.88/2018.15, ovh 58.76/2.32";
  pf "%-22s %-12s %-14s %-10s@." "variant" "path" "parallelism" "overhead";
  let rows = ref [] in
  let row ~variant ~(prof : Parameter.profile) ~ovh ~snap =
    pf "%-22s %-12d %-14.2f %-10.2f@." variant prof.Parameter.critical_path
      prof.Parameter.parallelism ovh;
    let total = prof.Parameter.total_iterations + prof.Parameter.aborted in
    rows :=
      Jsonx.Obj
        [
          ("variant", Jsonx.Str variant);
          ("path_length", Jsonx.Int prof.Parameter.critical_path);
          ("parallelism", Jsonx.Float prof.Parameter.parallelism);
          ("overhead", Jsonx.Float ovh);
          ( "abort_ratio",
            Jsonx.Float (float_of_int prof.Parameter.aborted /. float_of_int (max 1 total))
          );
          ("obs", Obs.snapshot_to_json snap);
        ]
      :: !rows
  in
  (* --- preflow-push --- *)
  let inp = preflow_input scale in
  let median = Stats.time_median in
  let seq_time =
    median (fun () ->
        let p = Preflow_push.of_genrmf inp in
        ignore (Preflow_push.run ~processors:1 ~detector:Detector.none p))
  in
  List.iter
    (fun (name, mk) ->
      let prof, snap = preflow_profile inp mk in
      let t1 = median (fun () -> ignore (preflow_run ~processors:1 inp mk)) in
      row ~variant:("preflow-" ^ name) ~prof ~ovh:(t1 /. seq_time) ~snap)
    preflow_variants;
  (* --- boruvka --- *)
  let mesh = Mesh.generate ~seed:(!run_seed + 7) ~rows:scale.mesh_rows ~cols:scale.mesh_cols () in
  let seq_time =
    median (fun () -> ignore (boruvka_run ~processors:1 mesh `None))
  in
  List.iter
    (fun (name, v) ->
      let prof, snap = boruvka_profile mesh v in
      let t1 = median (fun () -> ignore (boruvka_run ~processors:1 mesh v)) in
      row ~variant:("boruvka-" ^ name) ~prof ~ovh:(t1 /. seq_time) ~snap)
    [ ("uf-ml", `Ml); ("uf-gk", `Gk) ];
  (* --- clustering --- *)
  let pts = Point.random_cloud ~seed:(!run_seed + 31) ~dim:2 scale.cluster_points in
  let seq_time =
    median (fun () -> ignore (clustering_run ~processors:1 pts `None))
  in
  List.iter
    (fun (name, v) ->
      let prof, snap = clustering_profile pts v in
      let t1 = median (fun () -> ignore (clustering_run ~processors:1 pts v)) in
      row ~variant:("clustering-" ^ name) ~prof ~ovh:(t1 /. seq_time) ~snap)
    [ ("kd-ml", `Ml); ("kd-gk", `Gk) ];
  json_doc ~experiment:"table1" ~full:(scale == full_scale) (List.rev !rows)

(* ------------------------------------------------------------------ *)
(* Table 2: set microbenchmark                                         *)
(* ------------------------------------------------------------------ *)

let table2 scale =
  header
    "Table 2: 4-thread set microbenchmark\n\
     paper reference values --\n\
     distinct: aborts 48.68/0/0/0 %, times 4.644/1.097/1.365/1.191 s\n\
     repeats : aborts 44.07/1.53/0.09/0 %, times 3.935/1.538/0.818/0.697 s\n\
     (order: global lock, excl abs lock, rw abs lock, gatekeeper)";
  let rows = ref [] in
  List.iter
    (fun (label, classes) ->
      pf "--- input: %s (%d ops) ---@." label scale.micro_ops;
      pf "%-16s %-12s %-14s %-12s@." "scheme" "abort %" "est 4T time(s)" "wall(s)";
      List.iter
        (fun s ->
          let r = Set_micro.run ~seed:!run_seed ~threads:4 ~classes ~n:scale.micro_ops s in
          let st = r.Set_micro.stats in
          pf "%-16s %-12.2f %-14.4f %-12.4f@." (Set_micro.scheme_name s)
            r.Set_micro.abort_pct (est_time st) r.Set_micro.wall_s;
          rows :=
            Jsonx.Obj
              [
                ("input", Jsonx.Str label);
                ("scheme", Jsonx.Str (Set_micro.scheme_name s));
                ("abort_pct", Jsonx.Float r.Set_micro.abort_pct);
                ("est_time_s", Jsonx.Float (est_time st));
                ("wall_s", Jsonx.Float r.Set_micro.wall_s);
                ("parallelism", Jsonx.Float (Executor.parallelism st));
                ("rounds", Jsonx.Int (Executor.rounds_exn st));
                ("committed", Jsonx.Int st.Executor.committed);
                ("aborted", Jsonx.Int st.Executor.aborted);
                ("obs", Obs.snapshot_to_json r.Set_micro.snapshot);
              ]
            :: !rows)
        Set_micro.all_schemes)
    [ ("distinct elements", 0); ("10 equivalence classes", 10) ];
  json_doc ~experiment:"table2" ~full:(scale == full_scale) (List.rev !rows)

(* ------------------------------------------------------------------ *)
(* Figures 10-12: runtime vs thread count                              *)
(* ------------------------------------------------------------------ *)

let threads_sweep = [ 1; 2; 4; 8 ]

let fig10 scale =
  header
    "Figure 10: preflow-push estimated runtime (s) vs threads\n\
     (paper: run time inversely correlated with precision -- part < ex < ml)";
  let inp = preflow_input scale in
  let rows = ref [] in
  pf "%-10s" "threads";
  List.iter (fun (n, _) -> pf " %-12s" n) preflow_variants;
  pf "@.";
  List.iter
    (fun p ->
      pf "%-10d" p;
      List.iter
        (fun (name, mk) ->
          let _, s, snap = preflow_run ~processors:p inp mk in
          pf " %-12.4f" (est_time s);
          rows :=
            Jsonx.Obj
              [
                ("figure", Jsonx.Str "fig10");
                ("threads", Jsonx.Int p);
                ("variant", Jsonx.Str ("preflow-" ^ name));
                ("est_time_s", Jsonx.Float (est_time s));
                ("abort_ratio", Jsonx.Float (Executor.abort_ratio s));
                ("obs", Obs.snapshot_to_json snap);
              ]
            :: !rows)
        preflow_variants;
      pf "@.")
    threads_sweep;
  List.rev !rows

let fig11 scale =
  header
    "Figure 11: agglomerative clustering estimated runtime (s) vs threads\n\
     (paper: the forward gatekeeper beats the memory-level baseline and scales)";
  let pts = Point.random_cloud ~seed:(!run_seed + 77) ~dim:2 scale.cluster_points in
  let median = Stats.time_median in
  let seq = median (fun () -> ignore (clustering_run ~processors:1 pts `None)) in
  pf "sequential time: %.4fs@." seq;
  pf "%-10s %-12s %-12s@." "threads" "kd-gk" "kd-ml";
  let rows = ref [] in
  let row p variant s snap =
    rows :=
      Jsonx.Obj
        [
          ("figure", Jsonx.Str "fig11");
          ("threads", Jsonx.Int p);
          ("variant", Jsonx.Str variant);
          ("est_time_s", Jsonx.Float (est_time s));
          ("abort_ratio", Jsonx.Float (Executor.abort_ratio s));
          ("obs", Obs.snapshot_to_json snap);
        ]
      :: !rows
  in
  List.iter
    (fun p ->
      let _, gk, gk_snap = clustering_run ~processors:p pts `Gk in
      let _, ml, ml_snap = clustering_run ~processors:p pts `Ml in
      pf "%-10d %-12.4f %-12.4f@." p (est_time gk) (est_time ml);
      row p "kd-gk" gk gk_snap;
      row p "kd-ml" ml ml_snap)
    threads_sweep;
  List.rev !rows

let fig12 scale =
  header
    "Figure 12: Boruvka speedup vs threads (speedup = serial time / est time)\n\
     (paper: general gatekeeper outperforms the TM baseline; serial 3.7 s).\n\
     'sim' speedups include the P-dependent growth of detection work that our\n\
     serial simulator charges to the clock; 'model' speedups apply the paper's\n\
     own T*o_d/min(a_d,p) with the measured 1-thread overheads.";
  let mesh = Mesh.generate ~seed:(!run_seed + 7) ~rows:scale.mesh_rows ~cols:scale.mesh_cols () in
  let median = Stats.time_median in
  let serial = median (fun () -> ignore (boruvka_run ~processors:1 mesh `None)) in
  let od v = median (fun () -> ignore (boruvka_run ~processors:1 mesh v)) /. serial in
  let od_gk = od `Gk and od_ml = od `Ml in
  let ad_gk = (fst (boruvka_profile mesh `Gk)).Parameter.parallelism in
  let ad_ml = (fst (boruvka_profile mesh `Ml)).Parameter.parallelism in
  pf "serial time: %.4fs   o_gk=%.2f a_gk=%.1f   o_ml=%.2f a_ml=%.1f@." serial
    od_gk ad_gk od_ml ad_ml;
  pf "%-10s %-16s %-16s %-16s %-16s@." "threads" "uf-gk sim-spdup"
    "uf-ml sim-spdup" "uf-gk model" "uf-ml model";
  let rows = ref [] in
  let row p variant s snap model_spdup =
    rows :=
      Jsonx.Obj
        [
          ("figure", Jsonx.Str "fig12");
          ("threads", Jsonx.Int p);
          ("variant", Jsonx.Str variant);
          ("sim_speedup", Jsonx.Float (serial /. est_time s));
          ("model_speedup", Jsonx.Float model_spdup);
          ("abort_ratio", Jsonx.Float (Executor.abort_ratio s));
          ("obs", Obs.snapshot_to_json snap);
        ]
      :: !rows
  in
  List.iter
    (fun p ->
      let _, gk, gk_snap = boruvka_run ~processors:p mesh `Gk in
      let _, ml, ml_snap = boruvka_run ~processors:p mesh `Ml in
      let model od ad =
        serial
        /. Stats.model_runtime ~t_seq:serial ~overhead:od ~parallelism:ad
             ~processors:p
      in
      pf "%-10d %-16.2f %-16.2f %-16.2f %-16.2f@." p
        (serial /. est_time gk)
        (serial /. est_time ml)
        (model od_gk ad_gk) (model od_ml ad_ml);
      row p "uf-gk" gk gk_snap (model od_gk ad_gk);
      row p "uf-ml" ml ml_snap (model od_ml ad_ml))
    threads_sweep;
  List.rev !rows

(* ------------------------------------------------------------------ *)
(* The §5 performance model                                            *)
(* ------------------------------------------------------------------ *)

let model scale =
  header
    "Performance model (paper §5): T*o_d/min(a_d, p) predicts the winner;\n\
     lower-overhead schemes win whenever a_d >> p";
  let inp = preflow_input scale in
  let seq_time =
    let p = Preflow_push.of_genrmf inp in
    let _, s = Preflow_push.run ~processors:1 ~detector:Detector.none p in
    s.Executor.wall_s
  in
  pf "preflow sequential T = %.4fs@." seq_time;
  pf "%-10s %-12s %-12s %-14s %-14s@." "variant" "o_d" "a_d" "model t(p=4)"
    "model t(p=8)";
  List.iter
    (fun (name, mk) ->
      let prof, _ = preflow_profile inp mk in
      let _, s1, _ = preflow_run ~processors:1 inp mk in
      let od = s1.Executor.wall_s /. seq_time in
      let ad = prof.Parameter.parallelism in
      let t p =
        Stats.model_runtime ~t_seq:seq_time ~overhead:od ~parallelism:ad
          ~processors:p
      in
      pf "%-10s %-12.2f %-12.2f %-14.4f %-14.4f@." name od ad (t 4) (t 8))
    preflow_variants

(* ------------------------------------------------------------------ *)
(* Ablation: construction choices                                      *)
(* ------------------------------------------------------------------ *)

(* A hand-specialized equivalent of the Fig. 3 read/write locking scheme,
   written the way prior work's ad hoc implementations were: a direct hash
   table of per-key reader/writer entries, no formula machinery.
   Quantifies the cost of the generic construction. *)
let specialized_rw_set_detector () =
  let locks : (int, int list ref * int list ref) Hashtbl.t = Hashtbl.create 1024 in
  let held : (int, int list) Hashtbl.t = Hashtbl.create 64 in
  let mu = Mutex.create () in
  let cell k =
    match Hashtbl.find_opt locks k with
    | Some c -> c
    | None ->
        let c = (ref [], ref []) in
        Hashtbl.add locks k c;
        c
  in
  let note txn k =
    Hashtbl.replace held txn
      (k :: Option.value ~default:[] (Hashtbl.find_opt held txn))
  in
  let release txn =
    Mutex.protect mu (fun () ->
        List.iter
          (fun k ->
            match Hashtbl.find_opt locks k with
            | None -> ()
            | Some (rs, ws) ->
                rs := List.filter (fun t -> t <> txn) !rs;
                ws := List.filter (fun t -> t <> txn) !ws)
          (Option.value ~default:[] (Hashtbl.find_opt held txn));
        Hashtbl.remove held txn)
  in
  {
    Detector.name = "specialized-rw";
    on_invoke =
      (fun inv exec ->
        Mutex.protect mu (fun () ->
            let txn = inv.Invocation.txn in
            let k = Value.to_int inv.Invocation.args.(0) in
            let rs, ws = cell k in
            let is_write = inv.Invocation.meth.Invocation.name <> "contains" in
            (match List.find_opt (fun t -> t <> txn) !ws with
            | Some w -> Detector.conflict ~txn ~with_:w "w-lock held"
            | None -> ());
            if is_write then (
              match List.find_opt (fun t -> t <> txn) !rs with
              | Some r -> Detector.conflict ~txn ~with_:r "r-lock held"
              | None -> ());
            if is_write then ws := txn :: !ws else rs := txn :: !rs;
            note txn k;
            let r = exec () in
            inv.Invocation.ret <- r;
            r));
    on_commit = release;
    on_abort = release;
    reset = (fun () -> Hashtbl.reset locks);
    snapshot = Detector.no_snapshot;
    guards = [];
    txn_guards = (fun _ -> []);
  }

let ablation scale =
  header
    "Ablation: generic (interpreted) constructions vs a hand-specialized\n\
     detector, and the superfluous-mode reduction (all on the repeats input)";
  let run_micro det_name mk_det =
    let set = Iset.create () in
    let det = mk_det set in
    let ops = Set_micro.ops ~seed:!run_seed ~classes:10 scale.micro_ops in
    let stats =
      Executor.run_rounds ~processors:4 ~detector:det
        ~operator:(Set_micro.operator set det) ops
    in
    pf "%-30s wall=%-10.4f aborts=%.2f%%@." det_name stats.Executor.wall_s
      (100.0 *. Executor.abort_ratio stats)
  in
  run_micro "generic rw abs-lock" (fun _ ->
      Protect.protect ~spec:(Iset.simple_spec ()) ~adt:(Protect.adt ())
        Protect.Abstract_lock);
  run_micro "hand-specialized rw locks" (fun _ -> specialized_rw_set_detector ());
  run_micro "generic rw (no reduction)" (fun _ ->
      Protect.protect ~reduce_scheme:false ~spec:(Iset.simple_spec ())
        ~adt:(Protect.adt ()) Protect.Abstract_lock);
  run_micro "forward gatekeeper (Fig.2)" (fun set ->
      Protect.protect ~spec:(Iset.precise_spec ())
        ~adt:(Protect.adt ~hooks:(Iset.hooks set) ())
        Protect.Forward_gk);
  (* --- rollback vs versioned general gatekeeping (the paper's future-work
     question: cheaper general conflict detection) --- *)
  pf "@.general gatekeeping: undo/redo rollback vs partially-persistent       union-find@.";
  let mesh = Mesh.generate ~seed:(!run_seed + 7) ~rows:scale.mesh_rows ~cols:scale.mesh_cols () in
  let run_variant label mk procs =
    let t = Boruvka.create ~mesh () in
    let det = mk t in
    let s =
      Executor.run_rounds ~processors:procs
        ~detector:(Boruvka.full_detector t det)
        ~operator:(Boruvka.operator t det)
        (List.init mesh.Mesh.nodes Fun.id)
    in
    pf "  %-22s P=%d wall=%-9.4f est=%-9.4f aborts=%.1f%%@." label procs
      s.Executor.wall_s (est_time s)
      (100.0 *. Executor.abort_ratio s)
  in
  let run_versioned procs =
    let t, vt = Boruvka.create_versioned ~mesh () in
    let det =
      Protect.protect ~spec:(Union_find.spec ())
        ~adt:(Protect.adt ~hooks:(Union_find_versioned.hooks vt) ())
        Protect.General_gk
    in
    let s =
      Executor.run_rounds ~processors:procs
        ~detector:(Boruvka.full_detector t det)
        ~operator:(Boruvka.operator t det)
        (List.init mesh.Mesh.nodes Fun.id)
    in
    pf "  %-22s P=%d wall=%-9.4f est=%-9.4f aborts=%.1f%%@." "uf-gkv (versioned)"
      procs s.Executor.wall_s (est_time s)
      (100.0 *. Executor.abort_ratio s)
  in
  List.iter
    (fun p ->
      run_variant "uf-gk (rollback)"
        (fun t ->
          Protect.protect ~spec:(Union_find.spec ())
            ~adt:(Protect.adt ~hooks:(Union_find.hooks t.Boruvka.uf) ())
            Protect.General_gk)
        p;
      run_versioned p)
    [ 1; 4; 8 ];
  (* --- adaptive selection (paper §5 future work) --- *)
  pf "@.adaptive detector selection on the contended set workload:@.";
  let candidate scheme : Set_micro.op Adaptive.candidate =
    {
      Adaptive.name = Set_micro.scheme_name scheme;
      prepare =
        (fun () ->
          let set = Iset.create () in
          let det = Set_micro.detector_of set scheme in
          (det, Set_micro.operator set det, Set_micro.ops ~seed:!run_seed ~classes:10 (scale.micro_ops / 4)));
    }
  in
  let decision, stats =
    Adaptive.run ~sample_size:2048 (List.map candidate Set_micro.all_schemes)
  in
  pf "  %a@." Adaptive.pp_decision decision;
  pf "  full run under the winner: wall=%.4fs aborts=%.2f%%@." stats.Executor.wall_s
    (100.0 *. Executor.abort_ratio stats)

(* ------------------------------------------------------------------ *)
(* Bechamel microbenchmarks: per-invocation detector costs             *)
(* ------------------------------------------------------------------ *)

let bechamel () =
  header
    "Bechamel microbenchmarks: one batch of 64 committed single-op txns per\n\
     run; one test per Table-2 scheme plus the Table-1/Figure-11/12 detectors";
  let open Bechamel in
  let batch_set det_of () =
    let set = Iset.create () in
    let det = det_of set in
    for i = 0 to 63 do
      let txn = 100_000 + i in
      let inv = Invocation.make ~txn Iset.m_add [| Value.Int (i mod 8) |] in
      (try
         ignore
           (det.Detector.on_invoke inv (fun () ->
                Iset.exec set "add" inv.Invocation.args))
       with Detector.Conflict _ -> ());
      det.Detector.on_commit txn
    done
  in
  let batch_uf () =
    let uf = Union_find.create () in
    ignore (Union_find.create_elements uf 64);
    let det =
      Protect.protect ~spec:(Union_find.spec ())
        ~adt:(Protect.adt ~hooks:(Union_find.hooks uf) ())
        Protect.General_gk
    in
    for i = 0 to 30 do
      let txn = 200_000 + i in
      let inv =
        Invocation.make ~txn Union_find.m_union
          [| Value.Int (2 * i); Value.Int ((2 * i) + 1) |]
      in
      (try ignore (det.Detector.on_invoke inv (fun () -> Union_find.exec_logged uf inv))
       with Detector.Conflict _ -> ());
      det.Detector.on_commit txn
    done
  in
  let batch_kd () =
    let t = Kdtree.create ~dims:2 () in
    Array.iter (fun p -> ignore (Kdtree.add t p)) (Point.random_cloud ~seed:(!run_seed + 1) ~dim:2 256);
    let det =
      Protect.protect ~spec:(Kdtree.spec ())
        ~adt:(Protect.adt ~hooks:(Kdtree.hooks t) ())
        Protect.Forward_gk
    in
    for i = 0 to 15 do
      let txn = 300_000 + i in
      let q = [| float_of_int (i mod 4) /. 4.0; 0.5 |] in
      let inv = Invocation.make ~txn Kdtree.m_nearest [| Value.Point q |] in
      (try
         ignore
           (det.Detector.on_invoke inv (fun () -> Kdtree.exec t "nearest" inv.Invocation.args))
       with Detector.Conflict _ -> ());
      det.Detector.on_commit txn
    done
  in
  let tests =
    Test.make_grouped ~name:"commlat"
      [
        Test.make ~name:"table2-global-lock"
          (Staged.stage
             (batch_set (fun _ ->
                  Protect.protect ~spec:(Iset.exclusive_spec ())
                    ~adt:(Protect.adt ()) Protect.Global_lock)));
        Test.make ~name:"table2-abs-lock-excl"
          (Staged.stage
             (batch_set (fun _ ->
                  Protect.protect ~spec:(Iset.exclusive_spec ())
                    ~adt:(Protect.adt ()) Protect.Abstract_lock)));
        Test.make ~name:"table2-abs-lock-rw"
          (Staged.stage
             (batch_set (fun _ ->
                  Protect.protect ~spec:(Iset.simple_spec ())
                    ~adt:(Protect.adt ()) Protect.Abstract_lock)));
        Test.make ~name:"table2-gatekeeper"
          (Staged.stage
             (batch_set (fun set ->
                  Protect.protect ~spec:(Iset.precise_spec ())
                    ~adt:(Protect.adt ~hooks:(Iset.hooks set) ())
                    Protect.Forward_gk)));
        Test.make ~name:"table1-fig12-uf-general-gk" (Staged.stage batch_uf);
        Test.make ~name:"table1-fig11-kdtree-fwd-gk" (Staged.stage batch_kd);
      ]
  in
  let cfg = Benchmark.cfg ~limit:300 ~quota:(Time.second 0.5) () in
  let raw = Benchmark.all cfg [ Toolkit.Instance.monotonic_clock ] tests in
  let ols =
    Analyze.all
      (Analyze.ols ~r_square:false ~bootstrap:0 ~predictors:[| Measure.run |])
      Toolkit.Instance.monotonic_clock raw
  in
  let rows = Hashtbl.fold (fun name o acc -> (name, o) :: acc) ols [] in
  List.iter
    (fun (name, o) ->
      match Analyze.OLS.estimates o with
      | Some [ t ] -> pf "%-40s %12.0f ns/batch@." name t
      | _ -> pf "%-40s (no estimate)@." name)
    (List.sort compare rows)

(* ------------------------------------------------------------------ *)
(* Scaling: real wall-clock speedup of the domain executor             *)
(* ------------------------------------------------------------------ *)

(* Set workloads over {!Executor.run_domains} at 1/2/4 domains:

   - [latency]: every transaction sleeps ~2ms in the operator — outside the
     detector's guard sections — before a conflict-free set insertion,
     modelling iterations dominated by waiting (I/O, service calls).
     Sleeping domains release the OS core, so the sleeps overlap even on
     this single-core container and wall-clock time drops near-linearly
     with the domain count.
   - [cpu]: the bare insertion loop.  One core time-slices the domains, so
     no speedup is possible here; the rows record that honestly (speedups
     hover around 1.0) instead of estimating a simulated figure.

   Each (workload, detector, domains) cell reports the best of [reps] runs;
   [speedup_vs_1] is relative to the same pair's 1-domain cell. *)
let scaling scale =
  header
    "Scaling: run_domains wall-clock speedup vs 1 domain\n\
     latency workload: 2ms sleep per transaction (overlaps across domains)\n\
     cpu workload: bare set insertions (1-core container: ~1.0x expected)";
  let reps = 3 in
  let detectors =
    [ (Protect.Abstract_lock, Iset.simple_spec); (Protect.Forward_gk, Iset.precise_spec) ]
    |> List.map (fun (scheme, spec) ->
           ( Protect.scheme_name scheme,
             fun (set : Iset.t) ->
               Protect.protect ~spec:(spec ())
                 ~adt:(Protect.adt ~hooks:(Iset.hooks set) ())
                 scheme ))
  in
  let run_cell ~delay ~items mk_det domains =
    let best = ref None in
    for _ = 1 to reps do
      let set = Iset.create () in
      let det = mk_det set in
      let operator det txn v =
        if delay > 0.0 then Unix.sleepf delay;
        let exec (inv : Invocation.t) = Iset.exec set "add" inv.Invocation.args in
        ignore
          (Boost.invoke det txn ~undo:(Iset.undo set) Iset.m_add
             [| Value.Int v |] exec);
        []
      in
      let stats =
        Executor.run_domains ~backoff_seed:!run_seed ~domains ~detector:det ~operator
          (List.init items Fun.id)
      in
      let snap = det.Detector.snapshot () in
      match !best with
      | Some ((s : Executor.stats), _) when s.Executor.wall_s <= stats.Executor.wall_s
        ->
          ()
      | _ -> best := Some (stats, snap)
    done;
    Option.get !best
  in
  let workloads =
    [ ("latency", 0.002, 64); ("cpu", 0.0, max 1 (scale.micro_ops / 20)) ]
  in
  pf "%-10s %-12s %-8s %-10s %-10s %-12s@." "workload" "detector" "domains"
    "wall(s)" "speedup" "parallelism";
  let rows = ref [] in
  List.iter
    (fun (wname, delay, items) ->
      List.iter
        (fun (dname, mk_det) ->
          let base = ref 0.0 in
          List.iter
            (fun domains ->
              let stats, snap = run_cell ~delay ~items mk_det domains in
              if domains = 1 then base := stats.Executor.wall_s;
              let speedup =
                if stats.Executor.wall_s > 0.0 then
                  !base /. stats.Executor.wall_s
                else 0.0
              in
              pf "%-10s %-12s %-8d %-10.4f %-10.2f %-12.2f@." wname dname
                domains stats.Executor.wall_s speedup
                (Executor.parallelism stats);
              rows :=
                Jsonx.Obj
                  [
                    ("workload", Jsonx.Str wname);
                    ("detector", Jsonx.Str dname);
                    ("domains", Jsonx.Int domains);
                    ("items", Jsonx.Int items);
                    ("wall_s", Jsonx.Float stats.Executor.wall_s);
                    ("committed", Jsonx.Int stats.Executor.committed);
                    ("aborted", Jsonx.Int stats.Executor.aborted);
                    ("parallelism", Jsonx.Float (Executor.parallelism stats));
                    ("speedup_vs_1", Jsonx.Float speedup);
                    ("obs", Obs.snapshot_to_json snap);
                  ]
                :: !rows)
            [ 1; 2; 4 ])
        detectors)
    workloads;
  json_doc ~experiment:"scaling" ~full:(scale == full_scale) (List.rev !rows)

(* ------------------------------------------------------------------ *)
(* Footprint sharding                                                  *)
(* ------------------------------------------------------------------ *)

(* Sharded vs unsharded forward gatekeeper under real domains.  Each
   transaction performs [ops_per_txn] mutations on its own disjoint key
   block, so there are no semantic conflicts and every invocation's cost is
   dominated by the active-table scan — which footprint sharding cuts from
   O(active) to O(active / nshards) (each incoming keyed invocation checks
   only its own shard plus the empty overflow shard).  On a multi-core box
   the striped per-shard guards additionally let different-key invocations
   overlap; on the 1-core container the win is the scan reduction.  Rows
   carry [speedup_vs_unsharded]: same workload and domain count, unsharded
   wall over this detector's wall. *)
let sharding scale =
  header
    "Footprint sharding: sharded vs unsharded forward gatekeeper\n\
     multi-op transactions on disjoint per-transaction key blocks:\n\
     the active-table scan is the cost, sharding divides it by nshards";
  let reps = 3 in
  let ops_per_txn = 32 in
  let ntxn = max 8 (scale.micro_ops / (8 * ops_per_txn)) in
  let schemes =
    [ Protect.Forward_gk; Protect.Sharded (Protect.Forward_gk, Protect.default_nshards) ]
    |> List.map (fun s -> (Protect.scheme_name s, s))
  in
  (* one cell: fresh ADT + detector, [ntxn] transactions of [ops_per_txn]
     mutations each, best wall of [reps] runs *)
  let run_cell mk domains =
    let best = ref None in
    for _ = 1 to reps do
      let det, operator = mk () in
      let stats =
        Executor.run_domains ~backoff_seed:!run_seed ~domains ~detector:det ~operator
          (List.init ntxn Fun.id)
      in
      let snap = det.Detector.snapshot () in
      (match !best with
      | Some ((s : Executor.stats), _) when s.Executor.wall_s <= stats.Executor.wall_s
        ->
          ()
      | _ -> best := Some (stats, snap));
      det.Detector.reset ()
    done;
    Option.get !best
  in
  let set_cell scheme () =
    let set = Iset.create () in
    let det =
      Protect.protect ~spec:(Iset.precise_spec ())
        ~adt:(Protect.adt ~hooks:(Iset.hooks set) ())
        scheme
    in
    let operator det txn i =
      for j = 0 to ops_per_txn - 1 do
        let v = Value.Int ((i * ops_per_txn) + j) in
        ignore
          (Boost.invoke det txn ~undo:(Iset.undo set) Iset.m_add [| v |]
             (fun (inv : Invocation.t) -> Iset.exec set "add" inv.Invocation.args))
      done;
      []
    in
    (det, operator)
  in
  let kvmap_cell scheme () =
    let m = Kvmap.create () in
    let det =
      Protect.protect ~spec:(Kvmap.precise_spec ())
        ~adt:(Protect.adt ~hooks:(Kvmap.hooks m) ())
        scheme
    in
    let operator det txn i =
      for j = 0 to ops_per_txn - 1 do
        let k = Value.Int ((i * ops_per_txn) + j) in
        ignore
          (Boost.invoke det txn ~undo:(Kvmap.undo m) Kvmap.m_put
             [| k; Value.Int i |] (fun (inv : Invocation.t) ->
               Kvmap.exec m "put" inv.Invocation.args))
      done;
      []
    in
    (det, operator)
  in
  let workloads = [ ("set", set_cell); ("kvmap", kvmap_cell) ] in
  pf "%-8s %-20s %-8s %-10s %-10s %-10s@." "workload" "detector" "domains"
    "wall(s)" "speedup" "aborts";
  let rows = ref [] in
  List.iter
    (fun (wname, cell) ->
      List.iter
        (fun domains ->
          let base = ref None in
          List.iter
            (fun (dname, scheme) ->
              let stats, snap = run_cell (cell scheme) domains in
              (match scheme with
              | Protect.Sharded _ -> ()
              | _ -> base := Some stats.Executor.wall_s);
              let speedup =
                match !base with
                | Some b when stats.Executor.wall_s > 0.0 ->
                    b /. stats.Executor.wall_s
                | _ -> 1.0
              in
              pf "%-8s %-20s %-8d %-10.4f %-10.2f %-10d@." wname dname domains
                stats.Executor.wall_s speedup stats.Executor.aborted;
              rows :=
                Jsonx.Obj
                  [
                    ("workload", Jsonx.Str wname);
                    ("detector", Jsonx.Str dname);
                    ("domains", Jsonx.Int domains);
                    ("txns", Jsonx.Int ntxn);
                    ("ops_per_txn", Jsonx.Int ops_per_txn);
                    ("wall_s", Jsonx.Float stats.Executor.wall_s);
                    ("committed", Jsonx.Int stats.Executor.committed);
                    ("aborted", Jsonx.Int stats.Executor.aborted);
                    ("speedup_vs_unsharded", Jsonx.Float speedup);
                    ("obs", Obs.snapshot_to_json snap);
                  ]
                :: !rows)
            schemes)
        [ 1; 2; 4; 8 ])
    workloads;
  json_doc ~experiment:"sharding" ~full:(scale == full_scale) (List.rev !rows)

(* ------------------------------------------------------------------ *)
(* Spec compiler microbenchmark                                        *)
(* ------------------------------------------------------------------ *)

(* Interpreter vs compiled conflict checks.  For every ordered method
   pair of every shipped spec, time the oracle — [Formula.eval] over an
   [Invocation.env] built per check, the reference the differential suite
   (test/test_compile.ml) compares against — against the spec compiler's
   flat closure, which every detector uses, and measure minor-heap words
   allocated per check on both paths.

   Two properties are gated (exit 1), because they are deterministic:
   compiled and interpreter verdicts must agree on every canned
   invocation pair, and a state-free vfun-free condition's compiled path
   must allocate nothing.  The speedup is machine-dependent, so it is
   recorded in the JSON document but not gated. *)

let compile_gate_failed = ref false

let compile_bench scale =
  header
    "Spec compiler: interpreter vs compiled conflict checks\n\
     interp = Formula.eval + per-check Invocation.env (the oracle)\n\
     compiled = Compile.condition closure (every detector)";
  let specs =
    [
      Iset.precise_spec ();
      Accumulator.spec ();
      Kvmap.precise_spec ();
      Kvmap.simple_spec ();
      Orset.spec ();
      Union_find.spec ();
      Kdtree.spec ();
      Flow_graph.spec_rw ();
      Flow_graph.spec_exclusive ();
      Flow_graph.spec_partitioned ~nparts:32 ~n:64 ();
    ]
  in
  (* Conditions whose zero-allocation claim is unconditional: no state
     functions (those stay interpreted) and no value functions (a vfun
     call allocates its [Value.t list] argument — the one documented
     exception, see lib/core/compile.mli). *)
  let rec vfree_formula = function
    | Formula.True | Formula.False -> true
    | Formula.Cmp (_, a, b) -> vfree_term a && vfree_term b
    | Formula.Not f -> vfree_formula f
    | Formula.And (a, b) | Formula.Or (a, b) -> vfree_formula a && vfree_formula b
  and vfree_term = function
    | Formula.Arg _ | Formula.Ret _ | Formula.Const _ -> true
    | Formula.Vfun _ | Formula.Sfun _ -> false
    | Formula.Arith (_, a, b) -> vfree_term a && vfree_term b
  in
  (* Canned invocations: a few argument shapes times a few plausible
     return values per method.  The pre-flight pass picks, per ordered
     pair, the first combination the interpreter evaluates without
     raising (wrong-typed rets raise identically on both paths, so they
     are unusable for timing but still exercised by the divergence
     check). *)
  let candidates (m : Invocation.meth) =
    let args_pool =
      [
        Array.init m.arity (fun i -> Value.Int i);
        Array.init m.arity (fun i -> Value.Int (i + 1));
        Array.make (max m.arity 1) (Value.Int 0);
      ]
    in
    let rets =
      [
        Value.Unit;
        Value.Int 0;
        Value.Int 1;
        Value.Bool true;
        Value.Bool false;
        Value.Opt None;
        Value.Opt (Some (Value.Int 0));
      ]
    in
    List.concat_map
      (fun args ->
        List.map
          (fun ret ->
            let inv = Invocation.make ~txn:0 m (Array.copy args) in
            inv.Invocation.ret <- ret;
            inv)
          rets)
      args_pool
  in
  let iters = max 50_000 (scale.micro_ops / 2) in
  (* Time and count minor words for [iters] calls of [f].  The allocation
     pass is separate from the timing passes so the boxed floats of
     [Stats.now_s] don't pollute the window; the [Gc.minor_words]
     result boxes themselves contribute a constant few words, so the
     per-check verdict uses a 0.5-word threshold.  Timing takes the best
     of three passes after an explicit minor collection, so one path
     doesn't pay the GC debt the other ran up. *)
  let measure f =
    for _ = 1 to 1_000 do
      ignore (Sys.opaque_identity (f () : bool))
    done;
    Gc.minor ();
    let w0 = Gc.minor_words () in
    for _ = 1 to iters do
      ignore (Sys.opaque_identity (f () : bool))
    done;
    let dw = Gc.minor_words () -. w0 in
    let best = ref infinity in
    for _ = 1 to 3 do
      Gc.minor ();
      let t0 = Stats.now_s () in
      for _ = 1 to iters do
        ignore (Sys.opaque_identity (f () : bool))
      done;
      let dt = Stats.now_s () -. t0 in
      if dt < !best then best := dt
    done;
    (!best /. float_of_int iters, dw /. float_of_int iters)
  in
  let rows = ref [] in
  pf "%-18s %-14s %-14s %-12s %9s %9s %8s %7s@." "spec" "first" "second" "kind"
    "interp-ns" "comp-ns" "speedup" "words";
  List.iter
    (fun spec ->
      let adt = Spec.adt spec in
      let o = Obs.create (Fmt.str "bench.compile:%s" adt) in
      let c_measured = Obs.counter o "pairs_measured" in
      let c_interp = Obs.counter o "pairs_interpreted" in
      let c_skipped = Obs.counter o "pairs_skipped" in
      let c_diverged = Obs.counter o "divergences" in
      let cspec = Compile.of_spec spec in
      let cands = Hashtbl.create 8 in
      List.iter
        (fun (m : Invocation.meth) -> Hashtbl.replace cands m.name (candidates m))
        (Spec.methods spec);
      let spec_rows = ref [] in
      List.iter
        (fun (((first, second) : string * string), check) ->
          let cond = Spec.cond spec ~first ~second in
          (* Mirror Gatekeeper.check_env's per-check shape exactly: the
             [sfun] closure and the [Spec.vfun spec] partial application
             are built fresh per evaluation there too, so their cost is
             part of the interpreter baseline, not bench artifact. *)
          let interp i1 i2 =
            let sfun name _ _ _ = raise (Formula.Unsupported name) in
            Formula.eval (Invocation.env ~sfun ~vfun:(Spec.vfun spec) i1 i2) cond
          in
          (* Call the compiled closure the way a gatekeeper scan does —
             directly — rather than through [check_pure]'s dispatch: a
             partial application would route every call through the
             generic currying machinery and misprice the fast path. *)
          let compiled =
            match check with
            | Compile.Static b -> fun _ _ -> b
            | Compile.Fast f -> f
            | Compile.Interp _ ->
                fun i1 i2 -> Compile.check_pure cspec check i1 i2
          in
          let kind = Compile.kind check in
          let vfree = vfree_formula cond in
          (* Divergence gate: over every canned combination, the two paths
             must both raise or both return the same verdict. *)
          let usable = ref None in
          List.iter
            (fun i1 ->
              List.iter
                (fun i2 ->
                  let r_i = try Ok (interp i1 i2) with e -> Error e in
                  let r_c = try Ok (compiled i1 i2) with e -> Error e in
                  (match (r_i, r_c) with
                  | Ok a, Ok b when a = b -> ()
                  | Error _, Error _ -> ()
                  | _ ->
                      Obs.incr c_diverged;
                      compile_gate_failed := true;
                      pf "DIVERGENCE %s (%s,%s) on %a / %a@." adt first second
                        Invocation.pp i1 Invocation.pp i2);
                  match (r_i, !usable) with
                  | Ok _, None -> usable := Some (i1, i2)
                  | _ -> ())
                (Hashtbl.find cands second))
            (Hashtbl.find cands first);
          let row fields =
            spec_rows :=
              Jsonx.Obj
                ([
                   ("adt", Jsonx.Str adt);
                   ("first", Jsonx.Str first);
                   ("second", Jsonx.Str second);
                   ("kind", Jsonx.Str kind);
                   ("vfun_free", Jsonx.Bool vfree);
                 ]
                @ fields)
              :: !spec_rows
          in
          match (check, !usable) with
          | Compile.Interp _, _ ->
              (* state-dependent: detectors evaluate these with
                 Formula.eval behind their own environment, which is the
                 baseline — nothing to compare *)
              Obs.incr c_interp;
              row [ ("measured", Jsonx.Bool false) ]
          | _, None ->
              Obs.incr c_skipped;
              pf "%-18s %-14s %-14s %-12s (no canned invocations type-check)@."
                adt first second kind;
              row [ ("measured", Jsonx.Bool false) ]
          | _, Some (i1, i2) ->
              Obs.incr c_measured;
              let t_i, w_i = measure (fun () -> interp i1 i2) in
              let t_c, w_c = measure (fun () -> compiled i1 i2) in
              let speedup = if t_c > 0.0 then t_i /. t_c else 0.0 in
              let zero_alloc = w_c < 0.5 in
              if vfree && not zero_alloc then begin
                compile_gate_failed := true;
                pf
                  "ALLOCATION %s (%s,%s): %.2f words/check on a state-free \
                   vfun-free condition@."
                  adt first second w_c
              end;
              pf "%-18s %-14s %-14s %-12s %9.1f %9.1f %7.2fx %7.2f@." adt first
                second kind (t_i *. 1e9) (t_c *. 1e9) speedup w_c;
              row
                [
                  ("measured", Jsonx.Bool true);
                  ("iters", Jsonx.Int iters);
                  ("interp_ns_per_check", Jsonx.Float (t_i *. 1e9));
                  ("compiled_ns_per_check", Jsonx.Float (t_c *. 1e9));
                  ("speedup", Jsonx.Float speedup);
                  ("interp_words_per_check", Jsonx.Float w_i);
                  ("compiled_words_per_check", Jsonx.Float w_c);
                  ("zero_alloc", Jsonx.Bool zero_alloc);
                ])
        (Compile.conditions cspec);
      let snap = Obs.snapshot o in
      rows :=
        !rows
        @ List.rev_map
            (fun r ->
              match r with
              | Jsonx.Obj kvs -> Jsonx.Obj (kvs @ [ ("obs", Obs.snapshot_to_json snap) ])
              | r -> r)
            !spec_rows)
    specs;
  (* Headline: geometric-mean and minimum speedup over the state-free
     measured pairs — the acceptance number for ROADMAP item 3. *)
  let speedups =
    List.filter_map
      (function
        | Jsonx.Obj kvs -> (
            match
              (List.assoc_opt "kind" kvs, List.assoc_opt "speedup" kvs)
            with
            | Some (Jsonx.Str ("fast" | "static-true" | "static-false")),
              Some (Jsonx.Float s)
              when s > 0.0 ->
                Some s
            | _ -> None)
        | _ -> None)
      !rows
  in
  (match speedups with
  | [] -> pf "no state-free pairs measured@."
  | l ->
      let n = float_of_int (List.length l) in
      let geo = exp (List.fold_left (fun a s -> a +. log s) 0.0 l /. n) in
      let mn = List.fold_left min infinity l in
      pf "state-free pairs: %d measured, geomean speedup %.2fx, min %.2fx@."
        (List.length l) geo mn);
  if !compile_gate_failed then
    pf "GATE FAILED: divergence or allocation on a state-free condition@.";
  json_doc ~experiment:"compile" ~full:(scale == full_scale) !rows

(* Resolve the real CLI binary next to the bench executable: the adaptive
   experiment measures the shipped `commlat serve` over a socket, not an
   in-process shortcut. *)
let cli_exe () =
  let cand =
    Filename.concat
      (Filename.dirname Sys.executable_name)
      (Filename.concat ".." (Filename.concat "bin" "commlat_cli.exe"))
  in
  if Sys.file_exists cand then cand
  else
    failwith
      "bench: bin/commlat_cli.exe not found next to the bench binary (run \
       `dune build` first)"

(* ------------------------------------------------------------------ *)
(* Adaptive: online lattice navigation (DESIGN.md §12)                 *)
(* ------------------------------------------------------------------ *)

module Load = Commlat_server.Load
module Sched_workload = Commlat_sched.Workload
module Sched_explore = Commlat_sched.Explore

let adaptive_gate_failed = ref false

(* Counter lookup inside an already-parsed [Stats] snapshot. *)
let snap_counter (snap : Jsonx.t option) name =
  match snap with
  | Some (Jsonx.Obj kvs) -> (
      match List.assoc_opt "counters" kvs with
      | Some (Jsonx.Obj cs) -> (
          match List.assoc_opt name cs with Some (Jsonx.Int n) -> n | _ -> 0)
      | _ -> 0)
  | _ -> 0

(* The tentpole experiment: the phase-shifting workload (commuting puts →
   hot-key contention → read-heavy) against every fixed lattice level AND
   the online controller.  Gates (CI fails on any):
     - per phase, adaptive throughput >= 0.95x the best fixed level's;
     - the controller's walk really moved both directions
       (>=1 strengthen and >=1 weaken over the run);
     - zero client-visible errors under the controller;
     - the swap-protocol explorer sweep exercises at least one swap and
       reports zero serializability violations across its seeds. *)
let adaptive_bench scale =
  header "ADAPTIVE: online lattice navigation vs every fixed level";
  let full = scale == full_scale in
  let exe = cli_exe () in
  let rate = if full then 1500.0 else 1200.0 in
  let duration = if full then 1.2 else 0.8 in
  let domains = 2 in
  let base =
    { Load.default_config with Load.rate; conns = 2; seed = !run_seed }
  in
  let gate_fail fmt =
    Fmt.kstr
      (fun m ->
        adaptive_gate_failed := true;
        pf "  GATE FAILED: %s@." m)
      fmt
  in
  let fixed_names = [ "precise"; "simple"; "part" ] in
  let variants =
    List.map (fun l -> ("fixed-" ^ l, [ "--level"; l ])) fixed_names
    @ [ ("adaptive", [ "--adaptive" ]) ]
  in
  let run_variant (name, extra_args) =
    let prs, status =
      Load.with_server ~exe ~domains ~extra_args (fun addr ->
          Load.run_phases { base with Load.addr = addr }
            (Load.default_phases ~duration ()))
    in
    (match status with
    | Unix.WEXITED 0 -> ()
    | _ ->
        failwith
          (Fmt.str "bench adaptive: server child (%s) exited abnormally" name));
    let per_phase =
      List.map
        (fun ((p : Load.phase), (r : Load.result)) ->
          let tput = float_of_int r.Load.completed /. r.Load.elapsed in
          pf "  %-13s %-10s: %5d ok (%d errors), %6.0f req/s@." name
            p.Load.p_name r.Load.completed r.Load.errors tput;
          (p, r, tput))
        prs
    in
    (name, per_phase)
  in
  let results = List.map run_variant variants in
  let per_phase_of name = List.assoc name results in
  let adaptive_pp = per_phase_of "adaptive" in
  (* gate: per-phase throughput within 5% of the best fixed level *)
  List.iter
    (fun ((p : Load.phase), (_ : Load.result), at) ->
      let best =
        List.fold_left
          (fun acc l ->
            List.fold_left
              (fun acc ((q : Load.phase), _, t) ->
                if q.Load.p_name = p.Load.p_name then Float.max acc t else acc)
              acc
              (per_phase_of ("fixed-" ^ l)))
          0.0 fixed_names
      in
      pf "  phase %-10s adaptive %6.0f vs best fixed %6.0f req/s (%.2fx)@."
        p.Load.p_name at best
        (if best > 0.0 then at /. best else 1.0);
      if at < 0.95 *. best then
        gate_fail "phase %s: adaptive %.0f req/s < 0.95x best fixed %.0f"
          p.Load.p_name at best)
    adaptive_pp;
  (* gate: no client-visible errors under the controller *)
  List.iter
    (fun ((p : Load.phase), (r : Load.result), _) ->
      if r.Load.errors > 0 then
        gate_fail "phase %s: %d client errors under adaptive" p.Load.p_name
          r.Load.errors)
    adaptive_pp;
  (* gate: the lattice walk moved both directions (counters are cumulative,
     so the last phase's snapshot totals the whole run) *)
  let final_snap =
    match List.rev adaptive_pp with
    | (_, (r : Load.result), _) :: _ -> r.Load.server_obs
    | [] -> None
  in
  let strengthens = snap_counter final_snap "adaptive_strengthens" in
  let weakens = snap_counter final_snap "adaptive_weakens" in
  pf "  transitions: %d strengthens, %d weakens@." strengthens weakens;
  if strengthens < 1 then gate_fail "controller never strengthened";
  if weakens < 1 then gate_fail "controller never weakened";
  (* gate: the swap protocol itself, model-checked — every interleaving of
     transactions racing a mid-run detector flip stays serializable *)
  let seeds = if full then [ 11; 12; 13; 14 ] else [ 11; 12 ] in
  let sweep =
    List.map
      (fun seed ->
        let swaps = ref 0 in
        let w =
          match
            Sched_workload.swap_set ~txns:2 ~ops_per_txn:2 ~keys:2 ~seed
              ~on_swap:(fun () -> incr swaps)
              ()
          with
          | Ok w -> w
          | Error e -> failwith ("bench adaptive: " ^ e)
        in
        let r =
          Sched_explore.explore
            ~config:
              { Sched_explore.default_config with
                Sched_explore.max_schedules = 300 }
            w.Sched_workload.make
        in
        let violations =
          match r.Sched_explore.verdict with None -> 0 | Some _ -> 1
        in
        if violations > 0 then
          gate_fail "swap explorer: seed %d found a serializability violation"
            seed;
        (seed, r.Sched_explore.c.Sched_explore.runs, !swaps, violations))
      seeds
  in
  let sum f = List.fold_left (fun a x -> a + f x) 0 sweep in
  pf "  swap explorer: %d schedules, %d swaps, %d violations@."
    (sum (fun (_, r, _, _) -> r))
    (sum (fun (_, _, s, _) -> s))
    (sum (fun (_, _, _, v) -> v));
  if sum (fun (_, _, s, _) -> s) = 0 then
    gate_fail "swap explorer never exercised a swap";
  let rows =
    List.concat_map
      (fun (name, per_phase) ->
        List.map
          (fun (phase, r, _) ->
            match Load.row_json ~phase ~domains r with
            | Jsonx.Obj fields -> Jsonx.Obj (("variant", Jsonx.Str name) :: fields)
            | j -> j)
          per_phase)
      results
  in
  let swap_explorer_json =
    Jsonx.Obj
      [
        ("schedules", Jsonx.Int (sum (fun (_, r, _, _) -> r)));
        ("swaps", Jsonx.Int (sum (fun (_, _, s, _) -> s)));
        ("violations", Jsonx.Int (sum (fun (_, _, _, v) -> v)));
        ( "per_seed",
          Jsonx.List
            (List.map
               (fun (seed, runs, swaps, violations) ->
                 Jsonx.Obj
                   [
                     ("seed", Jsonx.Int seed);
                     ("schedules", Jsonx.Int runs);
                     ("swaps", Jsonx.Int swaps);
                     ("violations", Jsonx.Int violations);
                   ])
               sweep) );
      ]
  in
  match json_doc ~experiment:"adaptive" ~full rows with
  | Jsonx.Obj fields ->
      Jsonx.Obj
        (fields
        @ [
            ("swap_explorer", swap_explorer_json);
            ( "transitions",
              Jsonx.Obj
                [
                  ("strengthens", Jsonx.Int strengthens);
                  ("weakens", Jsonx.Int weakens);
                ] );
          ])
  | j -> j

(* ------------------------------------------------------------------ *)
(* Parallel exploration benchmark (BENCH_explore.json)                 *)
(* ------------------------------------------------------------------ *)

let explore_gate_failed = ref false

(* Schedules/sec of the work-stealing explorer at 1/2/4 domains over the
   sweep workloads, with in-process correctness gates:

   - on every configuration that exhausts its schedule tree, the
     distinct-canonical-trace count ("states") and the violation verdict
     must be identical at every domain count — the search tree is a fixed
     function of the workload, so any difference is a parallelism bug;
   - on budget-cut configurations only the verdict is gated (the explored
     subset is domain-order-dependent, so run counters are reported but
     not compared);
   - the seeded ABBA deadlock must be found, shrunk, and replayable at 4
     domains.

   Speedup expectations are honest about the host: on a single-core
   container every domain count measures the same core, so schedules/sec
   is flat; the point of the gates is correctness invariance, and of the
   rates, the bookkeeping overhead of parallel mode. *)
let explore_bench scale =
  header "Parallel DPOR exploration: schedules/sec at 1/2/4 domains";
  let full = scale == full_scale in
  let gate_fail fmt =
    Fmt.kstr
      (fun m ->
        pf "GATE FAIL: %s@." m;
        explore_gate_failed := true)
      fmt
  in
  let wl name mk =
    match mk () with
    | Ok w -> (name, w)
    | Error e -> failwith ("bench explore: " ^ name ^ ": " ^ e)
  in
  (* (label, workload, schedule budget); budgets over the known tree size
     mark configurations expected to exhaust *)
  let workloads =
    [
      ( wl "uf-gen-gk-s1" (fun () ->
            Sched_workload.union_find ~txns:2 ~seed:1 Protect.General_gk),
        8000,
        true );
      ( wl "delaunay-fwd-gk-s17" (fun () ->
            Sched_workload.delaunay ~txns:2 ~points:6 ~seed:17 ~max_pts:24
              Protect.Forward_gk),
        8000,
        true );
      ( wl "delaunay-fwd-gk-s26" (fun () ->
            Sched_workload.delaunay ~txns:3 ~points:8 ~seed:26 ~max_pts:28
              Protect.Forward_gk),
        8000,
        true );
      ( wl "mixed-fwd-gk-s42" (fun () ->
            Sched_workload.mixed ~txns:3 ~ops_per_txn:2 ~keys:3 ~seed:42
              Protect.Forward_gk),
        8000,
        true );
      (* contended mixed plan: abort/retry tails blow the tree up past any
         practical budget, so this row measures throughput only *)
      ( wl "mixed-fwd-gk-s3" (fun () ->
            Sched_workload.mixed ~txns:2 ~ops_per_txn:2 ~keys:2 ~seed:3
              Protect.Forward_gk),
        (if full then 4000 else 1500),
        false );
    ]
  in
  let domain_counts = [ 1; 2; 4 ] in
  let rows = ref [] in
  List.iter
    (fun ((label, w), budget, expect_exhaust) ->
      let baseline = ref None in
      List.iter
        (fun domains ->
          let config =
            {
              Sched_explore.default_config with
              Sched_explore.max_schedules = budget;
              domains;
              dedup = true;
            }
          in
          let obs = Obs.create ~enabled:true "explore" in
          let t0 = Stats.now_s () in
          let r = Sched_explore.explore ~config ~obs w.Sched_workload.make in
          let dt = Stats.now_s () -. t0 in
          let runs = r.Sched_explore.c.Sched_explore.runs in
          (* dedup is on, so the search counted its states *)
          let states = Option.get r.Sched_explore.states in
          let violations =
            match r.Sched_explore.verdict with None -> 0 | Some _ -> 1
          in
          let rate = if dt > 0.0 then float_of_int runs /. dt else 0.0 in
          pf
            "  %-22s domains=%d  %5d runs  %4d states  %s  %8.0f \
             schedules/s%s@."
            label domains runs states
            (if r.Sched_explore.exhausted then "exhausted" else "budget-cut")
            rate
            (if violations > 0 then "  VIOLATION" else "");
          if expect_exhaust && not r.Sched_explore.exhausted then
            gate_fail "%s: expected to exhaust within %d schedules at %d \
                       domains"
              label budget domains;
          (match !baseline with
          | None -> baseline := Some (states, violations)
          | Some (states1, viol1) ->
              if r.Sched_explore.exhausted && expect_exhaust then begin
                if states <> states1 then
                  gate_fail
                    "%s: states at %d domains = %d, expected %d (1 domain)"
                    label domains states states1;
                if violations <> viol1 then
                  gate_fail
                    "%s: violations at %d domains = %d, expected %d"
                    label domains violations viol1
              end
              else if violations <> viol1 then
                gate_fail "%s: verdict changed at %d domains" label domains);
          rows :=
            Jsonx.Obj
              [
                ("workload", Jsonx.Str label);
                ("detector", Jsonx.Str w.Sched_workload.w_detector);
                ("txns", Jsonx.Int w.Sched_workload.w_txns);
                ("domains", Jsonx.Int domains);
                ("schedules", Jsonx.Int runs);
                ("states", Jsonx.Int states);
                ( "dedup_hits",
                  Jsonx.Int r.Sched_explore.c.Sched_explore.dedup_hits );
                ("violations", Jsonx.Int violations);
                ("exhausted", Jsonx.Bool r.Sched_explore.exhausted);
                ("wall_s", Jsonx.Float dt);
                ("schedules_per_sec", Jsonx.Float rate);
                ("obs", Obs.snapshot_to_json (Obs.snapshot obs));
              ]
            :: !rows)
        domain_counts)
    workloads;
  (* the seeded ABBA deadlock under parallel search: found, shrunk,
     replayable *)
  let abba () = Commlat_sched.Seeded.workload ~buggy:true () in
  let r =
    Sched_explore.explore
      ~config:{ Sched_explore.default_config with domains = 4; dedup = true }
      abba
  in
  (match r.Sched_explore.verdict with
  | None -> gate_fail "abba-buggy: deadlock not found at 4 domains"
  | Some f ->
      if f.Sched_explore.f_kind <> "deadlock" then
        gate_fail "abba-buggy: found %s, expected deadlock"
          f.Sched_explore.f_kind;
      let rr =
        Sched_explore.replay ~schedule:f.Sched_explore.f_schedule abba
      in
      (match rr.Commlat_sched.Scheduler.status with
      | Commlat_sched.Scheduler.Deadlock _ ->
          pf "  abba-buggy: deadlock found and shrunk to %d choices at 4 \
              domains@."
            (List.length f.Sched_explore.f_schedule)
      | _ ->
          gate_fail "abba-buggy: shrunk schedule does not replay to deadlock"));
  json_doc ~experiment:"explore" ~full (List.rev !rows)

(* ------------------------------------------------------------------ *)
(* Main                                                                *)
(* ------------------------------------------------------------------ *)

(* All three thread-sweep figures as one JSON document (rows carry a
   "figure" discriminator). *)
let figs scale =
  let r10 = fig10 scale and r11 = fig11 scale and r12 = fig12 scale in
  json_doc ~experiment:"figs" ~full:(scale == full_scale) (r10 @ r11 @ r12)

let () =
  let args = Array.to_list Sys.argv |> List.tl in
  let full = List.mem "--full" args in
  let scale = if full then full_scale else default_scale in
  let args = List.filter (fun a -> a <> "--full") args in
  let grab flag args =
    let rec go acc = function
      | [] -> (None, List.rev acc)
      | f :: v :: rest when f = flag -> (Some v, List.rev_append acc rest)
      | [ f ] when f = flag ->
          pf "%s needs an argument@." flag;
          exit 1
      | a :: rest -> go (a :: acc) rest
    in
    go [] args
  in
  let json_file, args = grab "--json" args in
  let seed_arg, args = grab "--seed" args in
  (match seed_arg with
  | None -> ()
  | Some s -> (
      match int_of_string_opt s with
      | Some n -> run_seed := n
      | None ->
          pf "--seed needs an integer, got %S@." s;
          exit 1));
  let what = match args with [] -> "all" | w :: _ -> w in
  let emit json =
    match json_file with
    | None -> ()
    | Some f ->
        let oc = open_out f in
        output_string oc (Jsonx.to_string ~indent:2 json);
        output_string oc "\n";
        close_out oc;
        pf "wrote %s@." f
  in
  let no_json name k =
    (match json_file with
    | Some _ -> pf "note: %s has no JSON output; --json ignored@." name
    | None -> ());
    k ()
  in
  let all () =
    ignore (table1 scale);
    ignore (table2 scale);
    ignore (fig10 scale);
    ignore (fig11 scale);
    ignore (fig12 scale);
    ignore (scaling scale);
    ignore (sharding scale);
    ignore (compile_bench scale);
    model scale;
    ablation scale;
    bechamel ()
  in
  match what with
  | "all" ->
      no_json "all" all;
      if !compile_gate_failed then exit 1
  | "table1" -> emit (table1 scale)
  | "table2" -> emit (table2 scale)
  | "fig10" -> emit (json_doc ~experiment:"fig10" ~full (fig10 scale))
  | "fig11" -> emit (json_doc ~experiment:"fig11" ~full (fig11 scale))
  | "fig12" -> emit (json_doc ~experiment:"fig12" ~full (fig12 scale))
  | "figs" -> emit (figs scale)
  | "scaling" -> emit (scaling scale)
  | "sharding" -> emit (sharding scale)
  | "adaptive" ->
      let doc = adaptive_bench scale in
      emit doc;
      if !adaptive_gate_failed then exit 1
  | "compile" ->
      let doc = compile_bench scale in
      emit doc;
      if !compile_gate_failed then exit 1
  | "explore" ->
      let doc = explore_bench scale in
      emit doc;
      if !explore_gate_failed then exit 1
  | "model" -> no_json "model" (fun () -> model scale)
  | "ablation" -> no_json "ablation" (fun () -> ablation scale)
  | "bechamel" -> no_json "bechamel" bechamel
  | other ->
      pf
        "unknown experiment %S; one of \
         all|table1|table2|fig10|fig11|fig12|figs|scaling|sharding|adaptive|compile|explore|model|ablation|bechamel@."
        other;
      exit 1
