(* The DPOR explorer across domains (lib/sched/explore.ml): pinned
   one-domain counters and counterexample, domain-count invariance of the
   counters and violations, canonical-trace keys of the pruned and the
   unreduced tree, a pinned digest of every explored trace, the unpruned
   search at any domain count, the seeded
   ABBA bug under parallel search, budget honesty (run and step budgets)
   and the keys of the commlat-explore/1 report. *)

open Commlat_runtime
open Commlat_sched
module Jsonx = Commlat_obs.Jsonx

let mk_set ?(txns = 3) ?(keys = 3) ?(seed = 7) scheme =
  match Workload.set ~txns ~ops_per_txn:2 ~keys ~seed scheme with
  | Ok w -> w
  | Error e -> Alcotest.fail e

(* union-find under the general gatekeeper branches without abort/retry
   tails, so these seeds exhaust their (nontrivial) schedule trees *)
let mk_uf seed =
  match Workload.union_find ~txns:2 ~seed Protect.General_gk with
  | Ok w -> w
  | Error e -> Alcotest.fail e

let pconfig ?(por = true) ?(max_schedules = 2000) domains =
  { Explore.default_config with por; max_schedules; domains }

(* the counters that describe an exhausted search tree *)
let shape (r : Explore.report) =
  let c = r.Explore.c in
  (c.Explore.runs, c.Explore.pruned, c.Explore.steps)

(* ---- one domain (the CLI's default): the counters and the
   counterexample are pinned ---- *)

let test_one_domain_counters () =
  List.iter
    (fun (name, scheme, seed, (runs, pruned, steps)) ->
      let w =
        match Workload.by_name ~txns:2 ~seed name scheme with
        | Ok w -> w
        | Error e -> Alcotest.fail e
      in
      let r =
        Explore.explore
          ~config:{ Explore.default_config with max_schedules = 1_000_000 }
          w.Workload.make
      in
      let c = r.Explore.c in
      Alcotest.(check bool) (name ^ ": no counterexample") true
        (r.Explore.verdict = None);
      Alcotest.(check bool) (name ^ ": exhausted") true r.Explore.exhausted;
      Alcotest.(check int) (name ^ ": runs") runs c.Explore.runs;
      Alcotest.(check int) (name ^ ": pruned") pruned c.Explore.pruned;
      Alcotest.(check int) (name ^ ": steps") steps c.Explore.steps)
    [
      ("union-find", Protect.General_gk, 1, (2182, 39, 39276));
      ("delaunay", Protect.Forward_gk, 17, (918, 0, 41310));
    ]

let test_one_domain_abba () =
  let r = Explore.explore (fun () -> Seeded.workload ~buggy:true ()) in
  match r.Explore.verdict with
  | None -> Alcotest.fail "seeded ABBA deadlock not found"
  | Some f ->
      Alcotest.(check string) "kind" "deadlock" f.Explore.f_kind;
      Alcotest.(check (list int))
        "shrunk to the pinned schedule"
        (Test_sched.read_schedule (Test_sched.schedule_file "abba.schedule"))
        f.Explore.f_schedule;
      Alcotest.(check int) "shrunk from" 19 f.Explore.f_shrunk_from;
      Alcotest.(check int) "runs before the failure" 5 r.Explore.c.Explore.runs;
      Alcotest.(check string)
        "renders the pinned trace"
        (In_channel.with_open_bin
           (Test_sched.schedule_file "abba.trace")
           In_channel.input_all)
        f.Explore.f_trace

(* ---- the search tree is fixed, so an exhausted search runs the same
   schedules at every domain count (the BENCH gate, in-process) ---- *)

let test_domain_count_invariance () =
  let workloads =
    [
      ("uf/s1", fun () -> mk_uf 1);
      ("uf/s10", fun () -> mk_uf 10);
      ( "set/fwd-gk",
        fun () -> mk_set ~txns:2 ~keys:4 ~seed:1 Protect.Forward_gk );
      ( "delaunay/s17",
        fun () ->
          match
            Workload.delaunay ~txns:2 ~points:6 ~seed:17 ~max_pts:24
              Protect.Forward_gk
          with
          | Ok w -> w
          | Error e -> Alcotest.fail e );
      ( "mixed/s42",
        fun () ->
          match
            Workload.mixed ~txns:3 ~ops_per_txn:2 ~keys:3 ~seed:42
              Protect.Forward_gk
          with
          | Ok w -> w
          | Error e -> Alcotest.fail e );
    ]
  in
  List.iter
    (fun (name, w) ->
      let base =
        Explore.explore
          ~config:(pconfig ~max_schedules:25000 1)
          (w ()).Workload.make
      in
      Alcotest.(check bool) (name ^ ": baseline exhausts") true
        base.Explore.exhausted;
      List.iter
        (fun domains ->
          let r =
            Explore.explore
              ~config:(pconfig ~max_schedules:25000 domains)
              (w ()).Workload.make
          in
          Alcotest.(check bool)
            (Fmt.str "%s: exhausted at %d domains" name domains)
            true r.Explore.exhausted;
          Alcotest.(check (triple int int int))
            (Fmt.str "%s: runs/pruned/steps at %d domains match 1 domain"
               name domains)
            (shape base) (shape r);
          Alcotest.(check bool)
            (Fmt.str "%s: no violation at %d domains" name domains)
            true
            (r.Explore.verdict = None && base.Explore.verdict = None))
        [ 2; 4 ])
    workloads

(* ---- canonical keys quotient by Mazurkiewicz equivalence: the search
   with no reduction at all reaches more interleavings but the same set
   of traces as the pruned one ---- *)

(* The search tree written out, one domain, depth-first: [visit spec
   prefix run children] at every node, a node before its children. *)
let walk ~por mk visit =
  let spec = (mk ()).Scheduler.spec in
  let rec go prefix =
    let r =
      Scheduler.run ~max_steps:Explore.default_config.Explore.max_steps
        ~schedule:prefix mk
    in
    if r.Scheduler.status <> Scheduler.Completed then
      Alcotest.fail (Fmt.str "%a" Scheduler.pp_status r.Scheduler.status);
    let children = (Explore.expand ~por ~spec r prefix).Explore.children in
    visit spec prefix r children;
    List.iter go children
  in
  go []

(* Returns (runs, distinct canonical keys, runs whose key was seen). *)
let distinct_traces ~por mk =
  let keys = Hashtbl.create 1024 in
  let runs = ref 0 and hits = ref 0 in
  walk ~por mk (fun spec _ r _ ->
      incr runs;
      let k = Explore.canonical_key spec r in
      if Hashtbl.mem keys k then incr hits else Hashtbl.replace keys k ());
  (!runs, Hashtbl.length keys, !hits)

let test_states_por_invariant () =
  let mk = (mk_uf 1).Workload.make in
  let pruned_runs, pruned_traces, _ = distinct_traces ~por:true mk in
  let runs, traces, hits = distinct_traces ~por:false mk in
  Alcotest.(check int)
    (Fmt.str "same canonical traces with and without POR (%d runs vs %d)"
       pruned_runs runs)
    traces pruned_traces;
  Alcotest.(check int) "distinct traces" 541 pruned_traces;
  Alcotest.(check int) "the pruned walk is the explorer's tree" 2182
    pruned_runs;
  (* without pruning, equivalent interleavings are re-executed — the
     canonical key must recognize them *)
  Alcotest.(check bool)
    (Fmt.str "unreduced search re-runs equivalent traces (%d)" hits)
    true (hits > 0)

(* ---- every explored trace is pinned, not just the counters: one digest
   per tree over each node's prefix, rendered run, the (tid, attempt) of
   every step's alternatives and the children [expand] returns ---- *)

let trace_digest mk =
  let buf = Buffer.create (1 lsl 20) in
  let ints l = String.concat "," (List.map string_of_int l) in
  walk ~por:true mk (fun _ prefix r children ->
      Printf.bprintf buf "[%s]\n%s" (ints prefix)
        (Trace.render r.Scheduler.steps);
      List.iter
        (fun st ->
          List.iter
            (fun (t, att, _) -> Printf.bprintf buf " %d.%d" t att)
            st.Trace.s_alts;
          Buffer.add_char buf '\n')
        r.Scheduler.steps;
      List.iter (fun c -> Printf.bprintf buf "[%s]" (ints c)) children;
      Buffer.add_char buf '\n');
  Digest.to_hex (Digest.string (Buffer.contents buf))

let test_trace_digests () =
  List.iter
    (fun (name, scheme, seed, digest) ->
      let w =
        match Workload.by_name ~txns:2 ~seed name scheme with
        | Ok w -> w
        | Error e -> Alcotest.fail e
      in
      Alcotest.(check string)
        (Fmt.str "%s s%d: every explored trace" name seed)
        digest (trace_digest w.Workload.make))
    [
      ("union-find", Protect.General_gk, 1, "17f97f09769ac9fe043d43c1430a7b4d");
      ("delaunay", Protect.Forward_gk, 17, "60349950d97a6645c0d7c4971200ef05");
    ]

(* ---- --no-por is the ground truth at any domain count ---- *)

let test_no_por_domains () =
  List.iter
    (fun domains ->
      let r =
        Explore.explore
          ~config:(pconfig ~por:false ~max_schedules:100_000 domains)
          (mk_uf 1).Workload.make
      in
      Alcotest.(check bool)
        (Fmt.str "exhausted at %d domains" domains)
        true r.Explore.exhausted;
      Alcotest.(check int)
        (Fmt.str "every branch run at %d domains" domains)
        3116 r.Explore.c.Explore.runs)
    [ 1; 2 ]

(* ---- the seeded ABBA bug under parallel search ---- *)

let test_abba_parallel () =
  let buggy () = Seeded.workload ~buggy:true () in
  let r = Explore.explore ~config:(pconfig 4) buggy in
  match r.Explore.verdict with
  | None -> Alcotest.fail "seeded ABBA deadlock not found at 4 domains"
  | Some f ->
      Alcotest.(check string) "kind is deadlock" "deadlock" f.Explore.f_kind;
      Alcotest.(check bool)
        "shrunk <= original" true
        (List.length f.Explore.f_schedule <= f.Explore.f_shrunk_from);
      let rr = Explore.replay ~schedule:f.Explore.f_schedule buggy in
      (match rr.Scheduler.status with
      | Scheduler.Deadlock _ -> ()
      | st ->
          Alcotest.fail
            (Fmt.str "shrunk schedule replayed to %a, not deadlock"
               Scheduler.pp_status st))

(* ---- budget honesty across domains: the ticket counter caps runs
   exactly and reports the cut ---- *)

let test_budget_exact () =
  List.iter
    (fun domains ->
      let w = mk_set ~keys:2 ~seed:3 Protect.Forward_gk in
      let r =
        Explore.explore
          ~config:(pconfig ~max_schedules:5 domains)
          w.Workload.make
      in
      Alcotest.(check int)
        (Fmt.str "exactly 5 runs at %d domains" domains)
        5 r.Explore.c.Explore.runs;
      Alcotest.(check bool)
        (Fmt.str "budget cut reported at %d domains" domains)
        false r.Explore.exhausted)
    [ 1; 2; 4 ]

(* ---- a step-budget cut is reported, never counted as clean: every run
   of the seeded ABBA workload needs more than 3 steps ---- *)

let test_truncation_not_exhausted () =
  List.iter
    (fun domains ->
      let r =
        Explore.explore
          ~config:{ Explore.default_config with max_steps = 3; domains }
          (fun () -> Seeded.workload ~buggy:true ())
      in
      let c = r.Explore.c in
      let at what = Fmt.str "%s at %d domains" what domains in
      Alcotest.(check bool) (at "not exhausted") false r.Explore.exhausted;
      Alcotest.(check int) (at "runs") 27 c.Explore.runs;
      Alcotest.(check int) (at "every run truncated") 27 c.Explore.truncated;
      Alcotest.(check bool) (at "no verdict") true (r.Explore.verdict = None))
    [ 1; 2 ]

(* ---- the commlat-explore/1 report renders the keys perfbench/explore.py
   reads, sleep_set_hits at 0, and no seen-trace-table keys ---- *)

let test_json_keys () =
  let config = pconfig ~max_schedules:1_000_000 1 in
  let r = Explore.explore ~config (mk_uf 1).Workload.make in
  let doc =
    Explore.json_of_report ~workload:"union-find" ~detector:"gen-gk" ~txns:2
      ~config r
  in
  let doc =
    match Jsonx.parse (Jsonx.to_string doc) with
    | Ok j -> j
    | Error m -> Alcotest.fail m
  in
  let keys = Option.get (Jsonx.to_obj doc) in
  let has k = List.mem_assoc k keys in
  Alcotest.(check (option string)) "schema" (Some "commlat-explore/1")
    (Option.bind (Jsonx.member "schema" doc) Jsonx.to_str);
  List.iter
    (fun k -> Alcotest.(check bool) (k ^ " present") true (has k))
    [
      "schedules_run"; "schedules_pruned"; "steps_total"; "exhausted";
      "verdict"; "counterexample";
    ];
  Alcotest.(check (option int)) "sleep_set_hits" (Some 0)
    (Option.bind (Jsonx.member "sleep_set_hits" doc) Jsonx.to_int);
  List.iter
    (fun k -> Alcotest.(check bool) (k ^ " absent") false (has k))
    [ "dedup"; "states"; "dedup_hits"; "dedup_rate" ]

let suite =
  [
    Alcotest.test_case "pexplore-one-domain-counters" `Quick
      test_one_domain_counters;
    Alcotest.test_case "pexplore-one-domain-abba" `Quick test_one_domain_abba;
    Alcotest.test_case "pexplore-domain-invariance" `Quick
      test_domain_count_invariance;
    Alcotest.test_case "pexplore-states-por-invariant" `Quick
      test_states_por_invariant;
    Alcotest.test_case "pexplore-trace-digests" `Quick test_trace_digests;
    Alcotest.test_case "pexplore-no-por-domains" `Quick test_no_por_domains;
    Alcotest.test_case "pexplore-abba-parallel" `Quick test_abba_parallel;
    Alcotest.test_case "pexplore-budget-exact" `Quick test_budget_exact;
    Alcotest.test_case "pexplore-truncation-not-exhausted" `Quick
      test_truncation_not_exhausted;
    Alcotest.test_case "pexplore-json-keys" `Quick test_json_keys;
  ]
