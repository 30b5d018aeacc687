(* Schedule explorer (lib/sched): deterministic replay, commutativity
   (DPOR-style) pruning, and the seeded ABBA lock-order-inversion bug. *)

open Commlat_runtime
open Commlat_sched
module Obs = Commlat_obs.Obs
module Jsonx = Commlat_obs.Jsonx

let mk_set ?(txns = 3) scheme =
  match Workload.set ~txns ~ops_per_txn:2 ~seed:7 scheme with
  | Ok w -> w
  | Error e -> Alcotest.fail e

let snapshot_text (s : Obs.snapshot) = Jsonx.to_string (Obs.snapshot_to_json s)

(* ---- determinism: same schedule -> byte-identical trace, identical obs
   snapshot, identical final state -- per workload and detector scheme.
   Every run builds a fresh instance, but what a workload builds once and
   its instances share (each detector's spec stage, the specs, Delaunay's
   input mesh) must leave a run as it entered it: a run that writes
   shared state makes the runs after it differ from it.  A run returns
   neither the snapshot nor the final state, so the factory is wrapped to
   keep the instance each run built, and both are read from it ---- *)

let ok_workload = function Ok w -> w | Error e -> Alcotest.fail e

let check_replays (w : Workload.t) =
  let name = w.Workload.w_name ^ "/" ^ w.Workload.w_detector in
  (* run [f] on a factory that keeps the instance it builds; return the
     run with the instance's obs snapshot and final state after it *)
  let kept f =
    let last = ref None in
    let mk () =
      let inst = w.Workload.make () in
      last := Some inst;
      inst
    in
    let r = f mk in
    let inst = Option.get !last in
    (r, snapshot_text (inst.Scheduler.det.Commlat_core.Detector.snapshot ()),
     inst.Scheduler.final ())
  in
  (* record a run, then replay its choices twice *)
  let r0, snap0, final0 = kept (fun mk -> Scheduler.run ~schedule:[] mk) in
  let replay () =
    kept (fun mk -> Explore.replay ~schedule:r0.Scheduler.choices mk)
  in
  List.iter
    (fun (which, ((r : Scheduler.result), snap, final)) ->
      let what = Fmt.str "%s: %s" name which in
      Alcotest.(check string)
        (what ^ ": trace is byte-identical")
        (Trace.render r0.Scheduler.steps) (Trace.render r.Scheduler.steps);
      Alcotest.(check string) (what ^ ": obs snapshot identical") snap0 snap;
      Alcotest.(check bool)
        (what ^ ": final ADT state identical")
        true (final0 = final);
      Alcotest.(check (list int))
        (what ^ ": replay follows the recorded schedule")
        r0.Scheduler.choices r.Scheduler.choices)
    [ ("first replay", replay ()); ("second replay", replay ()) ]

let test_replay_determinism () =
  List.iter
    (fun scheme -> check_replays (mk_set scheme))
    [ Protect.Forward_gk; Protect.Abstract_lock; Protect.Global_lock;
      Protect.General_gk ];
  List.iter
    (fun w -> check_replays (ok_workload w))
    [
      (* the STM baseline needs a traced ADT: union-find *)
      Workload.union_find ~txns:2 ~ops_per_txn:2 ~seed:7 Protect.Stm;
      Workload.union_find ~txns:2 ~ops_per_txn:2 ~seed:1 Protect.General_gk;
      Workload.delaunay ~txns:2 ~seed:17 Protect.Forward_gk;
      Workload.delaunay ~txns:2 ~seed:17 Protect.Abstract_lock;
      Workload.kvmap ~txns:3 ~ops_per_txn:2 ~seed:7 Protect.Forward_gk;
      Workload.mixed ~txns:3 ~ops_per_txn:2 ~seed:42 Protect.Forward_gk;
      Workload.swap_set ~txns:2 ~ops_per_txn:2 ~seed:42 ();
    ]

(* ---- exploration terminates and finds nothing on a correct detector ---- *)

let test_explore_clean () =
  List.iter
    (fun scheme ->
      let w = mk_set scheme in
      let cfg = { Explore.default_config with max_schedules = 400 } in
      let r = Explore.explore ~config:cfg w.Workload.make in
      Alcotest.(check bool)
        (Protect.scheme_name scheme ^ ": no counterexample")
        true (r.Explore.verdict = None))
    [ Protect.Forward_gk; Protect.Abstract_lock ]

(* ---- POR prunes: fewer schedules with pruning, same verdict ---- *)

let test_por_prunes () =
  let cfg = { Explore.default_config with max_schedules = 600 } in
  let w () = mk_set Protect.Forward_gk in
  let rp = Explore.explore ~config:cfg (w ()).Workload.make in
  let rn =
    Explore.explore ~config:{ cfg with Explore.por = false } (w ()).Workload.make
  in
  Alcotest.(check bool)
    "verdicts identical (both clean)" true
    (rp.Explore.verdict = None && rn.Explore.verdict = None);
  Alcotest.(check bool)
    (Fmt.str "POR runs fewer schedules (%d <= %d)" rp.Explore.c.Explore.runs
       rn.Explore.c.Explore.runs)
    true
    (rp.Explore.c.Explore.runs <= rn.Explore.c.Explore.runs);
  Alcotest.(check bool)
    "POR actually pruned branches" true
    (rp.Explore.c.Explore.pruned > 0);
  Alcotest.(check bool)
    "no pruning without POR" true
    (rn.Explore.c.Explore.pruned = 0)

(* ---- contended keys: POR must branch on dependent operations ---- *)

let test_por_contended () =
  (* 2 keys across 3 transactions: add/remove collisions are certain, so
     commutativity pruning cannot collapse the search to one schedule *)
  let w =
    match
      Workload.set ~txns:3 ~ops_per_txn:2 ~keys:2 ~seed:3 Protect.Forward_gk
    with
    | Ok w -> w
    | Error e -> Alcotest.fail e
  in
  let cfg = { Explore.default_config with max_schedules = 800 } in
  let rp = Explore.explore ~config:cfg w.Workload.make in
  let rn =
    Explore.explore ~config:{ cfg with Explore.por = false } w.Workload.make
  in
  Alcotest.(check bool)
    "verdicts identical under contention" true
    (rp.Explore.verdict = None && rn.Explore.verdict = None);
  Alcotest.(check bool)
    (Fmt.str "contention forces branching (%d runs)" rp.Explore.c.Explore.runs)
    true
    (rp.Explore.c.Explore.runs > 1);
  Alcotest.(check bool)
    (Fmt.str "still fewer than unpruned (%d <= %d)" rp.Explore.c.Explore.runs
       rn.Explore.c.Explore.runs)
    true
    (rp.Explore.c.Explore.runs <= rn.Explore.c.Explore.runs)

(* A striped gatekeeper under a plan that contends: 2 keys, so its keyed
   shards and the overflow shard both see conflicts, and the explorer must
   branch and find no violation. *)
let test_striped_contended () =
  let scheme = Protect.Sharded (Protect.Forward_gk, 4) in
  List.iter
    (fun (name, w) ->
      let w = match w with Ok w -> w | Error e -> Alcotest.fail e in
      let cfg = { Explore.default_config with max_schedules = 300 } in
      let r = Explore.explore ~config:cfg w.Workload.make in
      Alcotest.(check bool) (name ^ ": no violation") true (r.Explore.verdict = None);
      Alcotest.(check bool)
        (Fmt.str "%s: contention forces branching (%d runs)" name
           r.Explore.c.Explore.runs)
        true
        (r.Explore.c.Explore.runs > 1))
    [
      ("kvmap", Workload.kvmap ~txns:2 ~ops_per_txn:2 ~keys:2 ~seed:3 scheme);
      ("set", Workload.set ~txns:2 ~ops_per_txn:2 ~keys:2 ~seed:3 scheme);
    ]

(* ---- delaunay: real cavity transactions under the explorer ---- *)

let test_delaunay_swept () =
  (* every explored interleaving must be serializable AND leave a Delaunay
     mesh (the oracle checks both); seed 17 is a nontrivial exhaustible
     tree, seed 42 collapses to one schedule via commutativity pruning *)
  List.iter
    (fun (seed, scheme, expect_branching) ->
      let w =
        match
          Workload.delaunay ~txns:2 ~points:6 ~seed ~max_pts:24 scheme
        with
        | Ok w -> w
        | Error e -> Alcotest.fail e
      in
      let name = Fmt.str "delaunay s%d %s" seed (Protect.scheme_name scheme) in
      let cfg = { Explore.default_config with max_schedules = 3000 } in
      let r = Explore.explore ~config:cfg w.Workload.make in
      Alcotest.(check bool)
        (name ^ ": no counterexample") true (r.Explore.verdict = None);
      Alcotest.(check bool) (name ^ ": exhausted") true r.Explore.exhausted;
      if expect_branching then
        Alcotest.(check bool)
          (Fmt.str "%s: cavity overlap branches the search (%d runs)" name
             r.Explore.c.Explore.runs)
          true
          (r.Explore.c.Explore.runs > 1))
    [
      (17, Protect.Forward_gk, true);
      (17, Protect.General_gk, true);
      (42, Protect.Forward_gk, false);
      (42, Protect.Abstract_lock, false);
      (42, Protect.Global_lock, false);
    ]

let test_delaunay_disjoint_cavities_pruned () =
  (* seed 42's two transactions refine disjoint cavities: the precise
     triset spec proves every cross-transaction pair independent, so POR
     collapses the sweep to a single schedule *)
  let w =
    match
      Workload.delaunay ~txns:2 ~points:6 ~seed:42 ~max_pts:24
        Protect.Forward_gk
    with
    | Ok w -> w
    | Error e -> Alcotest.fail e
  in
  let r = Explore.explore w.Workload.make in
  Alcotest.(check int) "one schedule suffices" 1 r.Explore.c.Explore.runs;
  Alcotest.(check bool)
    (Fmt.str "commutativity pruned the rest (%d)" r.Explore.c.Explore.pruned)
    true
    (r.Explore.c.Explore.pruned > 0)

(* ---- mixed: cross-detector composition under the explorer ---- *)

let test_mixed_swept () =
  List.iter
    (fun scheme ->
      let w =
        match
          Workload.mixed ~txns:3 ~ops_per_txn:2 ~keys:3 ~seed:42 scheme
        with
        | Ok w -> w
        | Error e -> Alcotest.fail e
      in
      let name = Fmt.str "mixed %s" (Protect.scheme_name scheme) in
      let r = Explore.explore w.Workload.make in
      Alcotest.(check bool)
        (name ^ ": no counterexample") true (r.Explore.verdict = None);
      Alcotest.(check bool) (name ^ ": exhausted") true r.Explore.exhausted;
      (* the union spec declares cross-structure operations independent,
         so pruning must fire across member detectors *)
      Alcotest.(check bool)
        (Fmt.str "%s: cross-structure pruning (%d)" name
           r.Explore.c.Explore.pruned)
        true
        (r.Explore.c.Explore.pruned > 0))
    [
      Protect.Forward_gk;
      Protect.General_gk;
      Protect.Abstract_lock;
      Protect.Global_lock;
    ]

let test_mixed_contended_branches () =
  (* seed 3 puts both transactions on the same keys: the search must
     branch, and every explored interleaving must stay serializable
     against the three-model composition *)
  let w =
    match
      Workload.mixed ~txns:2 ~ops_per_txn:2 ~keys:2 ~seed:3 Protect.Forward_gk
    with
    | Ok w -> w
    | Error e -> Alcotest.fail e
  in
  let cfg = { Explore.default_config with max_schedules = 150 } in
  let r = Explore.explore ~config:cfg w.Workload.make in
  Alcotest.(check bool) "no counterexample" true (r.Explore.verdict = None);
  Alcotest.(check bool)
    (Fmt.str "contention branches the search (%d runs)" r.Explore.c.Explore.runs)
    true
    (r.Explore.c.Explore.runs > 1)

(* ---- obs counters surface the exploration stats ---- *)

let test_obs_counters () =
  let w = mk_set Protect.Forward_gk in
  let obs = Obs.create ~enabled:true "explore" in
  let cfg = { Explore.default_config with max_schedules = 100 } in
  let r = Explore.explore ~config:cfg ~obs w.Workload.make in
  let snap = Obs.snapshot obs in
  Alcotest.(check int)
    "schedules_run counter matches report" r.Explore.c.Explore.runs
    (Obs.counter_value snap "schedules_run");
  Alcotest.(check int)
    "schedules_pruned counter matches report" r.Explore.c.Explore.pruned
    (Obs.counter_value snap "schedules_pruned")

(* ---- the adaptive hot-swap protocol, swept ---- *)

(* Transactions over one set race a swapper fiber that flips a dispatcher
   between a precise forward gatekeeper and the global lock under the
   server's barrier condition (all guards held, zero open transactions).
   The sweep must (a) find no serializability violation, deadlock or crash
   in any interleaving, and (b) actually execute swaps — a sweep whose
   every swap attempt failed would prove nothing about the protocol. *)
let test_swap_protocol_swept () =
  let swaps = ref 0 in
  let w =
    match
      Workload.swap_set ~txns:2 ~ops_per_txn:2 ~keys:2 ~seed:11
        ~on_swap:(fun () -> incr swaps)
        ()
    with
    | Ok w -> w
    | Error e -> Alcotest.fail e
  in
  let cfg = { Explore.default_config with max_schedules = 400 } in
  let r = Explore.explore ~config:cfg w.Workload.make in
  (match r.Explore.verdict with
  | None -> ()
  | Some f ->
      Alcotest.fail
        (Fmt.str "swap protocol produced a %s counterexample: %s@.%s"
           f.Explore.f_kind f.Explore.f_detail f.Explore.f_trace));
  Alcotest.(check bool)
    (Fmt.str "the sweep exercised swaps (%d across %d schedules)" !swaps
       r.Explore.c.Explore.runs)
    true (!swaps > 0);
  Alcotest.(check bool)
    "explored more than one interleaving" true
    (r.Explore.c.Explore.runs > 1)

(* mid-transaction the swapper must hold off: replaying any schedule, a
   flip can only have happened at open = 0, so the committed history stays
   serializable even under the adversarial default policy *)
let test_swap_default_policy () =
  let w =
    match Workload.swap_set ~txns:3 ~ops_per_txn:2 ~keys:2 ~seed:5 () with
    | Ok w -> w
    | Error e -> Alcotest.fail e
  in
  let r = Scheduler.run ~schedule:[] w.Workload.make in
  (match r.Scheduler.status with
  | Scheduler.Completed -> ()
  | st -> Alcotest.fail (Fmt.str "%a" Scheduler.pp_status st));
  Alcotest.(check (option string)) "serializable" None r.Scheduler.oracle_failure

(* ---- the seeded ABBA bug: found, shrunk, deterministic, replayable ---- *)

let buggy () = Seeded.workload ~buggy:true ()
let fixed () = Seeded.workload ~buggy:false ()

let test_abba_found () =
  let r = Explore.explore buggy in
  match r.Explore.verdict with
  | None -> Alcotest.fail "seeded ABBA deadlock not found"
  | Some f ->
      Fmt.epr "ABBA shrunk schedule: [%s] (from %d)@."
        (String.concat ";" (List.map string_of_int f.Explore.f_schedule))
        f.Explore.f_shrunk_from;
      Fmt.epr "ABBA trace:@.%s@." f.Explore.f_trace;
      Alcotest.(check string) "kind is deadlock" "deadlock" f.Explore.f_kind;
      (* deterministic: a second exploration finds the same schedule *)
      let r2 = Explore.explore buggy in
      (match r2.Explore.verdict with
      | None -> Alcotest.fail "second exploration missed the deadlock"
      | Some f2 ->
          Alcotest.(check (list int))
            "same shrunk schedule on re-exploration" f.Explore.f_schedule
            f2.Explore.f_schedule);
      (* the shrunk schedule replays to the same failure *)
      let rr = Explore.replay ~schedule:f.Explore.f_schedule buggy in
      (match rr.Scheduler.status with
      | Scheduler.Deadlock _ -> ()
      | st ->
          Alcotest.fail
            (Fmt.str "shrunk schedule replayed to %a, not deadlock"
               Scheduler.pp_status st));
      (* shrinking did not grow the schedule *)
      Alcotest.(check bool)
        "shrunk <= original" true
        (List.length f.Explore.f_schedule <= f.Explore.f_shrunk_from)

let test_abba_fixed_clean () =
  let r = Explore.explore fixed in
  match r.Explore.verdict with
  | None -> ()
  | Some f ->
      Alcotest.fail
        (Fmt.str "canonical lock order produced a %s counterexample: %s@.%s"
           f.Explore.f_kind f.Explore.f_detail f.Explore.f_trace)

(* ---- a non-Conflict exception ends the run as Crashed, naming the first
   fiber to raise: at start-up the lowest such tid, later the fiber the
   schedule ran ---- *)

let test_crash_reported () =
  let with_bodies bodies () =
    let inst = Seeded.workload ~buggy:false () in
    let invoke = inst.Scheduler.tasks.(0).Scheduler.body in
    let task = function
      | `Ok -> { Scheduler.body = invoke }
      | `Fail_now name -> { Scheduler.body = (fun ~det:_ ~txn:_ -> failwith name) }
      | `Fail_after name ->
          {
            Scheduler.body =
              (fun ~det ~txn ->
                invoke ~det ~txn;
                failwith name);
          }
    in
    { inst with Scheduler.tasks = Array.map task bodies }
  in
  let check what ~schedule bodies tid =
    let r = Scheduler.run ~schedule (with_bodies bodies) in
    (match r.Scheduler.status with
    | Scheduler.Crashed c ->
        Alcotest.(check int) (what ^ ": crashed fiber") tid c.tid;
        Alcotest.(check string) (what ^ ": exception")
          (Printexc.to_string (Failure (Fmt.str "t%d" tid)))
          c.exn_text
    | st -> Alcotest.fail (Fmt.str "%s: %a" what Scheduler.pp_status st));
    r
  in
  let r =
    check "at start-up" ~schedule:[]
      [| `Ok; `Fail_now "t1"; `Fail_now "t2" |] 1
  in
  Alcotest.(check int) "no step runs after a start-up crash" 0
    (List.length r.Scheduler.steps);
  let r =
    check "mid-run" ~schedule:(List.init 10 (fun _ -> 1))
      [| `Fail_after "t0"; `Fail_after "t1" |] 1
  in
  Alcotest.(check bool) "the run stops at the crash" true
    (r.Scheduler.choices <> []
    && List.for_all (fun t -> t = 1) r.Scheduler.choices)

(* ---- the oracle verdict: a forward gatekeeper over a spec in which
   every set method pair commutes admits the write skew t0 = [add 1;
   contains 2], t1 = [add 2; contains 1].  The instance's spec is the
   precise one, so partial-order reduction still branches where the two
   transactions depend on each other, and the serializability oracle
   reports the run in which both contains return false ---- *)

let write_skew () =
  let open Commlat_core in
  let open Commlat_adts in
  let everything_commutes = Spec.create ~adt:"set_everything_commutes" Iset.methods in
  List.iter
    (fun (m1 : Invocation.meth) ->
      List.iter
        (fun (m2 : Invocation.meth) ->
          Spec.add_directed everything_commutes ~first:m1.Invocation.name
            ~second:m2.Invocation.name Formula.True)
        Iset.methods)
    Iset.methods;
  let protect = Protect.prepare ~spec:everything_commutes Protect.Forward_gk in
  let plan =
    [|
      [ (Iset.m_add, 1); (Iset.m_contains, 2) ];
      [ (Iset.m_add, 2); (Iset.m_contains, 1) ];
    |]
  in
  fun () ->
    let s = Iset.create () in
    let det = protect ~obs:true (Protect.adt ~hooks:(Iset.hooks s) ()) in
    let body ops ~det ~txn =
      List.iter
        (fun ((m : Invocation.meth), k) ->
          ignore
            (Boost.invoke det txn ~undo:(Iset.undo s) m [| Value.Int k |]
               (fun inv -> Iset.exec s m.Invocation.name inv.Invocation.args)))
        ops
    in
    let final () = Iset.snapshot s in
    {
      Scheduler.det;
      spec = Some (Iset.precise_spec ());
      tasks = Array.map (fun ops -> { Scheduler.body = body ops }) plan;
      final;
      oracle = Workload.serializability_oracle (Iset.model ()) final;
    }

let test_oracle_found () =
  let mk = write_skew () in
  match (Explore.explore mk).Explore.verdict with
  | None -> Alcotest.fail "write skew not found"
  | Some f ->
      Alcotest.(check string) "kind is oracle" "oracle" f.Explore.f_kind;
      Alcotest.(check (list int))
        "shrunk schedule" [ 0; 0; 0; 1; 1 ] f.Explore.f_schedule;
      Alcotest.(check int) "shrunk from" 18 f.Explore.f_shrunk_from;
      (* the shrunk schedule replays to the same oracle failure *)
      let rr = Explore.replay ~schedule:f.Explore.f_schedule mk in
      (match rr.Scheduler.status with
      | Scheduler.Completed -> ()
      | st ->
          Alcotest.fail
            (Fmt.str "shrunk schedule replayed to %a" Scheduler.pp_status st));
      Alcotest.(check (option string))
        "replayed oracle failure" (Some f.Explore.f_detail)
        rr.Scheduler.oracle_failure

(* ---- virtual mutual exclusion with more guards held at once than the
   ownership table starts with: t0 holds twelve guards, t1 wants the
   first of them, and each checks inside its critical section (which
   takes one more guard, a yield point) that the other is not in its
   own ---- *)

let test_many_guards_held () =
  let mk () =
    let gs = Array.init 12 (fun _ -> Commlat_core.Guard.create ()) in
    let extra = Commlat_core.Guard.create () in
    let inside = ref 0 in
    let critical () =
      incr inside;
      Commlat_core.Guard.protect extra (fun () ->
          if !inside > 1 then failwith "both fibers inside");
      decr inside
    in
    let task body = { Scheduler.body = (fun ~det:_ ~txn:_ -> body ()) } in
    {
      Scheduler.det = Commlat_core.Detector.none;
      spec = None;
      tasks =
        [|
          task (fun () -> Commlat_core.Guard.protect_all (Array.to_list gs) critical);
          task (fun () -> Commlat_core.Guard.protect gs.(0) critical);
        |];
      final = (fun () -> Commlat_core.Value.Unit);
      oracle = (fun _ -> None);
    }
  in
  (* t0 takes its twelve guards, then the schedule asks for t1 at every
     step: t1 may run only once t0 has released the guard it wants *)
  let r =
    Scheduler.run
      ~schedule:(List.init 12 (fun _ -> 0) @ List.init 40 (fun _ -> 1))
      mk
  in
  (match r.Scheduler.status with
  | Scheduler.Completed -> ()
  | st -> Alcotest.fail (Fmt.str "%a" Scheduler.pp_status st));
  let first_t1 =
    let rec go i = function
      | [] -> Alcotest.fail "t1 never ran"
      | t :: rest -> if t = 1 then i else go (i + 1) rest
    in
    go 0 r.Scheduler.choices
  in
  (* t0 acquires its twelve guards (steps 0-11), takes and drops [extra]
     (12, 13) and releases the twelve in reverse (14-25): protect_all
     nests in creation order, so the guard t1 wants is freed last *)
  Alcotest.(check int) "t1 first runs once its guard is free" 26 first_t1

(* ---- pinned regression schedule ---- *)

(* tests run either from the dune sandbox (test/) or the workspace root;
   locate the pinned schedule relative to whichever we're in *)
let schedule_file name =
  let rec find dir n =
    if n = 0 then Alcotest.fail ("cannot locate test data file " ^ name)
    else
      let cand = Filename.concat dir (Filename.concat "data" name) in
      let cand' =
        Filename.concat dir (Filename.concat "test/data" name)
      in
      if Sys.file_exists cand then cand
      else if Sys.file_exists cand' then cand'
      else find (Filename.concat dir "..") (n - 1)
  in
  find "." 6

let read_schedule file =
  let ic = open_in file in
  Fun.protect
    ~finally:(fun () -> close_in ic)
    (fun () ->
      let rec go acc =
        match input_line ic with
        | line -> (
            match String.trim line with
            | "" -> go acc
            | l when l.[0] = '#' -> go acc
            | l -> go (int_of_string l :: acc))
        | exception End_of_file -> List.rev acc
      in
      go [])

let test_abba_pinned () =
  let sched = read_schedule (schedule_file "abba.schedule") in
  let r = Explore.replay ~schedule:sched buggy in
  (match r.Scheduler.status with
  | Scheduler.Deadlock _ -> ()
  | st ->
      Alcotest.fail
        (Fmt.str "pinned schedule replayed to %a, not deadlock"
           Scheduler.pp_status st));
  (* the same interleaving is harmless under the canonical lock order *)
  let rf = Explore.replay ~schedule:sched fixed in
  match rf.Scheduler.status with
  | Scheduler.Deadlock _ ->
      Alcotest.fail "fixed detector deadlocked on the pinned schedule"
  | _ -> ()

(* ---- a scheme outside a workload's spec fragment is an [Error], never
   an exception: the CLI turns it into exit 2 ---- *)

let test_unsupported_is_error () =
  List.iter
    (fun (name, scheme) ->
      match Workload.by_name name scheme with
      | Error _ -> ()
      | Ok _ ->
          Alcotest.failf "%s under %s must be refused" name
            (Protect.scheme_name scheme)
      | exception e ->
          Alcotest.failf "%s under %s raised %s" name
            (Protect.scheme_name scheme) (Printexc.to_string e))
    [
      ("union-find", Protect.Forward_gk);
      ("union-find", Protect.Abstract_lock);
      ("union-find", Protect.Sharded (Protect.Abstract_lock, 4));
      ("set", Protect.Stm);
      ("mixed", Protect.Sharded (Protect.General_gk, 4));
    ]

let suite =
  [
    Alcotest.test_case "replay-determinism" `Quick test_replay_determinism;
    Alcotest.test_case "unsupported-is-error" `Quick test_unsupported_is_error;
    Alcotest.test_case "explore-clean" `Quick test_explore_clean;
    Alcotest.test_case "por-prunes" `Quick test_por_prunes;
    Alcotest.test_case "por-contended" `Quick test_por_contended;
    Alcotest.test_case "striped-contended" `Quick test_striped_contended;
    Alcotest.test_case "delaunay-swept" `Quick test_delaunay_swept;
    Alcotest.test_case "delaunay-disjoint-pruned" `Quick
      test_delaunay_disjoint_cavities_pruned;
    Alcotest.test_case "mixed-swept" `Quick test_mixed_swept;
    Alcotest.test_case "mixed-contended-branches" `Quick
      test_mixed_contended_branches;
    Alcotest.test_case "obs-counters" `Quick test_obs_counters;
    Alcotest.test_case "swap-protocol-swept" `Quick test_swap_protocol_swept;
    Alcotest.test_case "swap-default-policy" `Quick test_swap_default_policy;
    Alcotest.test_case "abba-found" `Quick test_abba_found;
    Alcotest.test_case "abba-fixed-clean" `Quick test_abba_fixed_clean;
    Alcotest.test_case "abba-pinned" `Quick test_abba_pinned;
    Alcotest.test_case "crash-reported" `Quick test_crash_reported;
    Alcotest.test_case "oracle-found" `Quick test_oracle_found;
    Alcotest.test_case "many-guards-held" `Quick test_many_guards_held;
  ]
