(* Tests of the observability layer (lib/obs): registry semantics, no-op
   mode, snapshot monotonicity and JSON round-trips, the executor's [?obs]
   hooks agreeing with its own stats, and the per-detector wiring
   (abstract locks, gatekeepers, STM, global lock). *)

open Commlat_core
open Commlat_adts
open Commlat_runtime
module Obs = Commlat_obs.Obs
module Jsonx = Commlat_obs.Jsonx

let check_bool = Alcotest.(check bool)
let check_int = Alcotest.(check int)

(* ------------------------------------------------------------- *)
(* Registry semantics                                             *)
(* ------------------------------------------------------------- *)

let test_counters_and_dists () =
  let t = Obs.create ~enabled:true "unit" in
  let c = Obs.counter t "hits" in
  Obs.incr c;
  Obs.incr c;
  Obs.add c 3;
  check_int "counter value" 5 (Obs.value c);
  check_bool "counter registration is idempotent" true (Obs.counter t "hits" == c);
  let d = Obs.dist t "sizes" in
  List.iter (Obs.observe d) [ 0; 1; 2; 4; 4; 9 ];
  let s = Obs.snapshot t in
  check_int "snapshot counter" 5 (Obs.counter_value s "hits");
  let ds = List.assoc "sizes" s.Obs.dists in
  check_int "dist n" 6 ds.Obs.count;
  check_int "dist sum" 20 ds.Obs.sum;
  check_int "dist max" 9 ds.Obs.max;
  Obs.label t ~cat:"abort_cause" "add;add";
  Obs.label t ~cat:"abort_cause" "add;add";
  Obs.label t ~cat:"abort_cause" "add;remove";
  let s = Obs.snapshot t in
  check_int "label count" 2 (Obs.label_count s ~cat:"abort_cause" "add;add");
  check_int "label total" 3 (Obs.total_labels s ~cat:"abort_cause")

let test_disabled_registry_records_nothing () =
  let t = Obs.create ~enabled:false ~trace:8 "off" in
  let c = Obs.counter t "hits" in
  Obs.incr c;
  Obs.add c 10;
  let d = Obs.dist t "sizes" in
  Obs.observe d 42;
  Obs.label t ~cat:"abort_cause" "x";
  Obs.event t ~tag:"abort" "x";
  let s = Obs.snapshot t in
  check_int "counter stays 0" 0 (Obs.counter_value s "hits");
  check_int "dist stays empty" 0 (List.assoc "sizes" s.Obs.dists).Obs.count;
  check_bool "no labels" true (s.Obs.labels = []);
  check_bool "no events" true (s.Obs.events = [])

let test_trace_ring_bounded () =
  let t = Obs.create ~enabled:true ~trace:4 "ring" in
  for i = 1 to 10 do
    Obs.event t ~tag:"e" (string_of_int i)
  done;
  let s = Obs.snapshot t in
  check_int "only the cap is retained" 4 (List.length s.Obs.events);
  check_bool "newest events survive" true
    (List.map (fun (_, _, d) -> d) s.Obs.events = [ "7"; "8"; "9"; "10" ])

let test_snapshot_monotone () =
  let t = Obs.create ~enabled:true "mono" in
  let c = Obs.counter t "n" in
  let d = Obs.dist t "v" in
  Obs.incr c;
  Obs.observe d 3;
  let s1 = Obs.snapshot t in
  Obs.incr c;
  Obs.observe d 5;
  Obs.label t ~cat:"k" "a";
  let s2 = Obs.snapshot t in
  check_bool "s1 <= s2" true (Obs.leq s1 s2);
  check_bool "s2 </= s1" false (Obs.leq s2 s1);
  check_bool "reflexive" true (Obs.leq s2 s2)

let test_merge_sums () =
  let mk n =
    let t = Obs.create ~enabled:true "m" in
    Obs.add (Obs.counter t "c") n;
    Obs.observe (Obs.dist t "d") n;
    Obs.label t ~cat:"cat" "k";
    Obs.snapshot t
  in
  let m = Obs.merge "merged" [ mk 2; mk 5 ] in
  check_int "counters summed" 7 (Obs.counter_value m "c");
  let d = List.assoc "d" m.Obs.dists in
  check_int "dist counts summed" 2 d.Obs.count;
  check_int "dist sums summed" 7 d.Obs.sum;
  check_int "dist max is max" 5 d.Obs.max;
  check_int "labels summed" 2 (Obs.label_count m ~cat:"cat" "k")

(* ------------------------------------------------------------- *)
(* JSON round-trip                                                *)
(* ------------------------------------------------------------- *)

let rich_snapshot () =
  let t = Obs.create ~enabled:true ~trace:4 "rich" in
  Obs.add (Obs.counter t "alpha") 7;
  Obs.incr (Obs.counter t "beta");
  List.iter (Obs.observe (Obs.dist t "depths")) [ 0; 1; 17; 300 ];
  Obs.label t ~cat:"abort_cause" "union;find";
  Obs.label t ~cat:"abort_cause" "union;find";
  Obs.label t ~cat:"lock_acquire" "elem(3):write";
  Obs.event t ~tag:"abort" "w/w on cell 4";
  Obs.event t ~tag:"abort" "held elem(1)";
  Obs.snapshot t

let test_json_roundtrip () =
  let s = rich_snapshot () in
  let txt = Jsonx.to_string ~indent:2 (Obs.snapshot_to_json s) in
  match Jsonx.parse txt with
  | Error e -> Alcotest.failf "re-parse failed: %s" e
  | Ok j -> (
      check_bool "recognized as a snapshot" true (Obs.is_snapshot_json j);
      match Obs.snapshot_of_json j with
      | Error e -> Alcotest.failf "decode failed: %s" e
      | Ok s' -> check_bool "round-trips exactly" true (Obs.equal_snapshot s s'))

let test_json_rejects_garbage () =
  check_bool "not a snapshot" true
    (Result.is_error (Obs.snapshot_of_json (Jsonx.Obj [ ("scope", Jsonx.Int 3) ])));
  check_bool "parse error reported" true
    (Result.is_error (Jsonx.parse "{\"scope\": }"))

(* ------------------------------------------------------------- *)
(* Executor hooks                                                 *)
(* ------------------------------------------------------------- *)

let acc_operator acc det (txn : Txn.t) x =
  Accumulator.invoke_increment det acc ~txn:(Txn.id txn) x;
  Txn.push_undo txn (fun () -> Accumulator.increment acc (-x));
  []

let test_executor_obs_matches_stats () =
  let obs = Obs.create ~enabled:true ~trace:8 "exec" in
  let acc = Accumulator.create () in
  let det = Protect.protect ~spec:(Accumulator.spec ()) ~adt:(Protect.adt ()) Protect.Global_lock in
  let s =
    Executor.run_rounds ~processors:4 ~obs ~detector:det
      ~operator:(acc_operator acc det)
      (List.init 12 (fun i -> i + 1))
  in
  let snap = Obs.snapshot obs in
  check_int "committed agrees" s.Executor.committed
    (Obs.counter_value snap "committed");
  check_int "aborted agrees" s.Executor.aborted (Obs.counter_value snap "aborted");
  check_int "rounds agrees" (Executor.rounds_exn s) (Obs.counter_value snap "rounds");
  check_bool "workload actually contended" true (s.Executor.aborted > 0);
  check_bool "abort events traced" true (snap.Obs.events <> []);
  let rc = List.assoc "round_commits" snap.Obs.dists in
  check_int "round_commits histogram covers every round" (Executor.rounds_exn s)
    rc.Obs.count;
  check_int "round_commits histogram sums to committed" s.Executor.committed
    rc.Obs.sum

let test_executor_domains_obs () =
  let obs = Obs.create ~enabled:true "domains" in
  let acc = Accumulator.create () in
  let det = Protect.protect ~spec:(Accumulator.spec ()) ~adt:(Protect.adt ()) Protect.Abstract_lock in
  let s =
    Executor.run_domains ~domains:3 ~obs ~detector:det
      ~operator:(fun det txn x -> acc_operator acc det txn x)
      (List.init 50 (fun i -> i + 1))
  in
  let snap = Obs.snapshot obs in
  check_int "committed agrees" s.Executor.committed
    (Obs.counter_value snap "committed");
  check_int "aborted agrees" s.Executor.aborted (Obs.counter_value snap "aborted");
  check_int "retries agree (one retry per abort)" s.Executor.aborted
    (Obs.counter_value snap "retries");
  (* a free-running parallel execution has no rounds: the snapshot must
     omit the round-based fields entirely, not render them as zeros *)
  check_bool "no rounds counter" false (List.mem_assoc "rounds" snap.Obs.counters);
  check_bool "no round_commits histogram" false
    (List.mem_assoc "round_commits" snap.Obs.dists);
  check_bool "no round_aborts histogram" false
    (List.mem_assoc "round_aborts" snap.Obs.dists);
  let dc = List.assoc "domain_commits" snap.Obs.dists in
  check_int "domain_commits: one sample per domain" 3 dc.Obs.count;
  check_int "domain_commits sums to committed" s.Executor.committed dc.Obs.sum

(* ------------------------------------------------------------- *)
(* Detector wiring                                                *)
(* ------------------------------------------------------------- *)

let set_operator set det (txn : Txn.t) (v : int) =
  let exec name (inv : Invocation.t) = Iset.exec set name inv.Invocation.args in
  ignore
    (Boost.invoke det txn ~undo:(Iset.undo set) Iset.m_add [| Value.Int v |]
       (exec "add"));
  []

let test_global_lock_snapshot () =
  let acc = Accumulator.create () in
  let det = Protect.protect ~spec:(Accumulator.spec ()) ~adt:(Protect.adt ()) Protect.Global_lock in
  let s =
    Executor.run_rounds ~processors:4 ~detector:det
      ~operator:(acc_operator acc det)
      (List.init 10 (fun i -> i + 1))
  in
  let snap = det.Detector.snapshot () in
  check_int "one acquisition per commit" s.Executor.committed
    (Obs.counter_value snap "lock_acquisitions");
  check_int "one denial per abort" s.Executor.aborted
    (Obs.counter_value snap "lock_denials");
  check_int "abort causes attributed" s.Executor.aborted
    (Obs.total_labels snap ~cat:"abort_cause")

let test_abstract_lock_snapshot () =
  (* uncontended: distinct keys, no denials *)
  let set = Iset.create () in
  let det = Protect.protect ~spec:(Iset.simple_spec ()) ~adt:(Protect.adt ()) Protect.Abstract_lock in
  let s =
    Executor.run_rounds ~processors:4 ~detector:det
      ~operator:(set_operator set det) (List.init 30 Fun.id)
  in
  let snap = det.Detector.snapshot () in
  check_int "no aborts" 0 s.Executor.aborted;
  check_int "one acquisition per add" 30
    (Obs.counter_value snap "lock_acquisitions");
  check_int "no denials" 0 (Obs.counter_value snap "lock_denials");
  (* contended: everything hits the same key *)
  let set = Iset.create () in
  let det = Protect.protect ~spec:(Iset.simple_spec ()) ~adt:(Protect.adt ()) Protect.Abstract_lock in
  let s =
    Executor.run_rounds ~processors:4 ~detector:det
      ~operator:(set_operator set det)
      (List.init 20 (fun _ -> 5))
  in
  let snap = det.Detector.snapshot () in
  check_bool "contention aborts" true (s.Executor.aborted > 0);
  check_int "denials = aborts (one op per txn)" s.Executor.aborted
    (Obs.counter_value snap "lock_denials");
  check_int "abort causes recorded" s.Executor.aborted
    (Obs.total_labels snap ~cat:"abort_cause")

let test_gatekeeper_snapshot () =
  let set = Iset.create () in
  let det, gk =
    Gatekeeper.make ~allow_rollback:false ~hooks:(Iset.hooks set)
      (Iset.precise_spec ())
  in
  let s =
    Executor.run_rounds ~processors:4 ~detector:det
      ~operator:(set_operator set det)
      (List.init 40 (fun i -> i mod 4))
  in
  let snap = det.Detector.snapshot () in
  check_int "every attempt logged" (s.Executor.committed + s.Executor.aborted)
    (Obs.counter_value snap "invocations");
  check_bool "conditions were checked" true (Obs.counter_value snap "checks" > 0);
  check_int "conflicts = aborts (one op per txn)" s.Executor.aborted
    (Obs.counter_value snap "conflicts");
  check_int "forward gatekeeper never rolls back"
    (Gatekeeper.rollback_count gk)
    (Obs.counter_value snap "rollbacks")

let test_general_gatekeeper_rollbacks () =
  (* boruvka under the general gatekeeper: the rollback counter in the
     snapshot must equal the gatekeeper's own instrumented count *)
  let open Commlat_apps in
  let mesh = Mesh.generate ~rows:8 ~cols:8 () in
  let t = Boruvka.create ~mesh () in
  let det, gk =
    Gatekeeper.make ~allow_rollback:true
      ~hooks:(Union_find.hooks t.Boruvka.uf) (Union_find.spec ())
  in
  let _s =
    Executor.run_rounds ~processors:8
      ~detector:(Boruvka.full_detector t det)
      ~operator:(Boruvka.operator t det)
      (List.init mesh.Mesh.nodes Fun.id)
  in
  let snap = det.Detector.snapshot () in
  check_int "snapshot rollbacks = rollback_count"
    (Gatekeeper.rollback_count gk)
    (Obs.counter_value snap "rollbacks");
  check_bool "sweeps happened under contention" true
    (Gatekeeper.rollback_count gk > 0);
  let sweep = List.assoc "sweep_depth" snap.Obs.dists in
  check_int "one sweep-depth sample per rollback"
    (Gatekeeper.rollback_count gk) sweep.Obs.count

let test_stm_snapshot () =
  (* a toy traced one-cell ADT: every operation reads and writes cell 0,
     so concurrent transactions conflict at the memory level *)
  let tr = ref Mem_trace.null in
  let stm_det =
    (* the spec argument is ignored by the STM baseline *)
    Protect.protect ~spec:(Accumulator.spec ())
      ~adt:(Protect.adt ~connect_tracer:(fun t -> tr := t) ())
      Protect.Stm
  in
  let tracer = !tr in
  let cell = ref 0 in
  let meth = Invocation.meth "op" 0 in
  let operator (txn : Txn.t) (x : int) =
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
    Executor.run_rounds ~processors:4 ~detector:stm_det ~operator
      (List.init 20 (fun i -> i + 1))
  in
  let snap = stm_det.Detector.snapshot () in
  check_int "invocations = attempts" (s.Executor.committed + s.Executor.aborted)
    (Obs.counter_value snap "invocations");
  let writes = List.assoc "write_set" snap.Obs.dists in
  check_int "one write-set sample per invocation"
    (s.Executor.committed + s.Executor.aborted)
    writes.Obs.count;
  check_bool "contention produced conflicts" true
    (Obs.counter_value snap "conflicts" > 0);
  check_bool "conflict kinds attributed" true
    (Obs.total_labels snap ~cat:"abort_cause" > 0)

let test_compose_merges_snapshots () =
  let mk () =
    Protect.protect ~spec:(Accumulator.spec ()) ~adt:(Protect.adt ())
      Protect.Global_lock
  in
  let d1 = mk () and d2 = mk () in
  let acc = Accumulator.create () in
  List.iter
    (fun det ->
      ignore
        (Executor.run_rounds ~processors:2 ~detector:det
           ~operator:(acc_operator acc det)
           (List.init 5 (fun i -> i + 1))))
    [ d1; d2 ];
  let merged = (Detector.compose [ d1; d2 ]).Detector.snapshot () in
  check_int "acquisitions summed across members"
    (Obs.counter_value (d1.Detector.snapshot ()) "lock_acquisitions"
    + Obs.counter_value (d2.Detector.snapshot ()) "lock_acquisitions")
    (Obs.counter_value merged "lock_acquisitions")

(* ------------------------------------------------------------- *)
(* No-op mode: results are identical, observation is free         *)
(* ------------------------------------------------------------- *)

let test_noop_mode_identical_results () =
  let open Commlat_apps in
  let observable (r : Set_micro.result) =
    ( r.Set_micro.stats.Executor.committed,
      r.Set_micro.stats.Executor.aborted,
      Executor.rounds_exn r.Set_micro.stats,
      r.Set_micro.abort_pct )
  in
  let run () = Set_micro.run ~threads:4 ~classes:10 ~n:2000 `Rw in
  let on = run () in
  Obs.set_default_enabled false;
  let off =
    Fun.protect ~finally:(fun () -> Obs.set_default_enabled true) run
  in
  check_bool "same committed/aborted/rounds/abort%" true
    (observable on = observable off);
  check_bool "instrumented run recorded acquisitions" true
    (Obs.counter_value on.Set_micro.snapshot "lock_acquisitions" > 0);
  check_int "disabled run recorded nothing" 0
    (Obs.counter_value off.Set_micro.snapshot "lock_acquisitions")

let suite =
  [
    Alcotest.test_case "counters, dists, labels" `Quick test_counters_and_dists;
    Alcotest.test_case "disabled registry records nothing" `Quick
      test_disabled_registry_records_nothing;
    Alcotest.test_case "trace ring is bounded" `Quick test_trace_ring_bounded;
    Alcotest.test_case "snapshots are monotone" `Quick test_snapshot_monotone;
    Alcotest.test_case "merge sums snapshots" `Quick test_merge_sums;
    Alcotest.test_case "JSON round-trip" `Quick test_json_roundtrip;
    Alcotest.test_case "JSON rejects garbage" `Quick test_json_rejects_garbage;
    Alcotest.test_case "executor obs = executor stats" `Quick
      test_executor_obs_matches_stats;
    Alcotest.test_case "domain executor obs = stats" `Quick
      test_executor_domains_obs;
    Alcotest.test_case "global lock wiring" `Quick test_global_lock_snapshot;
    Alcotest.test_case "abstract lock wiring" `Quick test_abstract_lock_snapshot;
    Alcotest.test_case "forward gatekeeper wiring" `Quick test_gatekeeper_snapshot;
    Alcotest.test_case "general gatekeeper rollback wiring" `Quick
      test_general_gatekeeper_rollbacks;
    Alcotest.test_case "stm wiring" `Quick test_stm_snapshot;
    Alcotest.test_case "compose merges snapshots" `Quick
      test_compose_merges_snapshots;
    Alcotest.test_case "no-op mode: identical results, zero counters" `Quick
      test_noop_mode_identical_results;
  ]
