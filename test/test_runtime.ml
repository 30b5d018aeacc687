(* Tests of the remaining runtime pieces: Txn, Boost, Detector.compose,
   executor edge cases and failure injection. *)

open Commlat_core
open Commlat_adts
open Commlat_runtime

let check_bool = Alcotest.(check bool)
let check_int = Alcotest.(check int)

(* ---------------- Txn ---------------- *)

let test_txn_rollback_order () =
  let txn = Txn.fresh () in
  let log = ref [] in
  Txn.push_undo txn (fun () -> log := 1 :: !log);
  Txn.push_undo txn (fun () -> log := 2 :: !log);
  Txn.push_undo txn (fun () -> log := 3 :: !log);
  Txn.rollback txn;
  Alcotest.(check (list int)) "newest-first" [ 1; 2; 3 ] !log;
  check_bool "status" true (Txn.status txn = Txn.Aborted);
  (* undo list cleared: a second rollback is a no-op *)
  Txn.rollback txn;
  Alcotest.(check (list int)) "no double undo" [ 1; 2; 3 ] !log

let test_txn_commit_clears () =
  let txn = Txn.fresh () in
  let fired = ref false in
  Txn.push_undo txn (fun () -> fired := true);
  Txn.commit txn;
  Txn.rollback txn;
  check_bool "commit discards undo actions" false !fired

let test_txn_ids_unique () =
  let a = Txn.fresh () and b = Txn.fresh () in
  check_bool "fresh ids differ" true (Txn.id a <> Txn.id b)

(* ---------------- Boost ---------------- *)

let test_boost_undo_on_post_exec_conflict () =
  (* a detector that always conflicts AFTER executing: Boost must have
     registered the undo beforehand so rollback reverses the effect *)
  let evil =
    {
      Detector.name = "evil";
      on_invoke =
        (fun inv exec ->
          inv.Invocation.ret <- exec ();
          Detector.conflict ~txn:inv.Invocation.txn ~with_:0 "always");
      on_commit = ignore;
      on_abort = ignore;
      reset = ignore;
      snapshot = Detector.no_snapshot;
      guards = [];
      txn_guards = (fun _ -> []);
    }
  in
  let set = Iset.create () in
  let txn = Txn.fresh () in
  (match
     Boost.invoke evil txn ~undo:(Iset.undo set) Iset.m_add [| Value.Int 7 |]
       (fun inv -> Iset.exec set "add" inv.Invocation.args)
   with
  | _ -> Alcotest.fail "expected conflict"
  | exception Detector.Conflict _ -> ());
  check_bool "effect applied before rollback" true (Iset.contains set (Value.Int 7));
  Txn.rollback txn;
  check_bool "rolled back" false (Iset.contains set (Value.Int 7))

let test_boost_no_undo_when_never_executed () =
  (* pre-execution conflict (abstract locks): ret stays Unit, undo no-op *)
  let set = Iset.create () in
  let det =
    Protect.protect ~spec:(Iset.exclusive_spec ()) ~adt:(Protect.adt ())
      Protect.Abstract_lock
  in
  let t1 = Txn.fresh () and t2 = Txn.fresh () in
  ignore
    (Boost.invoke det t1 ~undo:(Iset.undo set) Iset.m_add [| Value.Int 1 |]
       (fun inv -> Iset.exec set "add" inv.Invocation.args));
  (match
     Boost.invoke det t2 ~undo:(Iset.undo set) Iset.m_add [| Value.Int 1 |]
       (fun inv -> Iset.exec set "add" inv.Invocation.args)
   with
  | _ -> Alcotest.fail "expected conflict"
  | exception Detector.Conflict _ -> ());
  Txn.rollback t2;
  check_bool "element still present (t1's)" true (Iset.contains set (Value.Int 1))

(* ---------------- Detector.compose ---------------- *)

let test_compose () =
  let releases = ref [] in
  let mk name =
    {
      Detector.name;
      on_invoke = (fun _ exec -> exec ());
      on_commit = (fun txn -> releases := (name, `C, txn) :: !releases);
      on_abort = (fun txn -> releases := (name, `A, txn) :: !releases);
      reset = ignore;
      snapshot = Detector.no_snapshot;
      guards = [];
      txn_guards = (fun _ -> []);
    }
  in
  let c = Detector.compose [ mk "a"; mk "b" ] in
  c.Detector.on_commit 7;
  c.Detector.on_abort 9;
  check_bool "both members released" true
    (List.mem ("a", `C, 7) !releases
    && List.mem ("b", `C, 7) !releases
    && List.mem ("a", `A, 9) !releases
    && List.mem ("b", `A, 9) !releases);
  Alcotest.check_raises "on_invoke rejected"
    (Invalid_argument "Detector.compose: route invocations to a member detector")
    (fun () ->
      ignore
        (c.Detector.on_invoke
           (Invocation.make ~txn:1 (Invocation.meth "m" 0) [||])
           (fun () -> Value.Unit)))

(* ---------------- executor edge cases ---------------- *)

let test_empty_worklist () =
  let s =
    Executor.run_rounds ~processors:4 ~detector:Detector.none
      ~operator:(fun _ _ -> [])
      []
  in
  check_int "no rounds" 0 (Executor.rounds_exn s);
  check_int "no commits" 0 s.Executor.committed

let test_retry_at_front () =
  (* items: A conflicts while X is active; after X commits, A runs first
     (retry-at-front) — observable through execution order *)
  let order = ref [] in
  let det =
    Protect.protect ~spec:(Iset.exclusive_spec ()) ~adt:(Protect.adt ())
      Protect.Global_lock
  in
  let operator (txn : Txn.t) item =
    order := item :: !order;
    (* touch the structure so the lock engages *)
    let inv = Invocation.make ~txn:(Txn.id txn) (Invocation.meth "op" 0) [||] in
    ignore (det.Detector.on_invoke inv (fun () -> Value.Unit));
    []
  in
  ignore (Executor.run_rounds ~processors:3 ~detector:det ~operator [ "a"; "b"; "c" ]);
  (* round 1: a commits, b and c abort; round 2 (retry at front): b first *)
  Alcotest.(check (list string))
    "execution order" [ "a"; "b"; "c"; "b"; "c"; "c" ]
    (List.rev !order)

(* failure injection: a non-Conflict exception from the operator must
   propagate (it is a bug in the operator, not speculation) *)
let test_operator_exception_propagates () =
  Alcotest.check_raises "propagates" (Failure "boom") (fun () ->
      ignore
        (Executor.run_rounds ~processors:2 ~detector:Detector.none
           ~operator:(fun _ _ -> failwith "boom")
           [ 1 ]))

(* stats invariants on a random workload *)
let test_stats_invariants =
  QCheck_alcotest.to_alcotest
    (QCheck.Test.make ~name:"executor stats invariants" ~count:100
       QCheck.(
         make
           ~print:(fun (p, items) -> Fmt.str "P=%d n=%d" p (List.length items))
           Gen.(pair (int_range 1 8) (list_size (int_bound 30) (int_bound 5))))
       (fun (p, items) ->
         let set = Iset.create () in
         let det =
           Protect.protect ~spec:(Iset.simple_spec ()) ~adt:(Protect.adt ())
             Protect.Abstract_lock
         in
         let s =
           Executor.run_rounds ~processors:p ~detector:det
             ~operator:(fun txn v ->
               ignore
                 (Boost.invoke det txn ~undo:(Iset.undo set) Iset.m_add
                    [| Value.Int v |]
                    (fun inv -> Iset.exec set "add" inv.Invocation.args));
               [])
             items
         in
         s.Executor.committed = List.length items
         && Executor.rounds_exn s >= (List.length items + p - 1) / p
         && s.Executor.makespan <= s.Executor.total_work +. 1e-9
         && Executor.parallelism s
            <= (float_of_int p +. 1e-9)))

(* ---------------- Stats helpers ---------------- *)

let test_model_runtime () =
  (* T * o / min(a, p) *)
  Alcotest.(check (float 1e-9))
    "parallelism-bound" 2.0
    (Stats.model_runtime ~t_seq:4.0 ~overhead:2.0 ~parallelism:16.0 ~processors:4);
  Alcotest.(check (float 1e-9))
    "a_d-bound" 4.0
    (Stats.model_runtime ~t_seq:4.0 ~overhead:2.0 ~parallelism:2.0 ~processors:8)

let test_mem_trace_collector () =
  let c = Mem_trace.collector () in
  c.Mem_trace.tracer.Mem_trace.read 3;
  c.Mem_trace.tracer.Mem_trace.read 3;
  c.Mem_trace.tracer.Mem_trace.write 5;
  Alcotest.(check (list int)) "reads dedup" [ 3 ] (Mem_trace.read_list c);
  Alcotest.(check (list int)) "writes" [ 5 ] (Mem_trace.write_list c);
  Mem_trace.clear c;
  Alcotest.(check (list int)) "cleared" [] (Mem_trace.read_list c)

(* The detector name of every scheme Protect builds.  Rendered traces and
   DPOR sleep-set fingerprints (Trace.fingerprint) embed these names, so a
   rename would silently change both. *)
let test_protect_names () =
  let adt =
    Protect.adt
      ~hooks:(Gatekeeper.hooks (fun _ _ -> Value.Unit))
      ~connect_tracer:ignore ()
  in
  List.iter
    (fun (want, spec, scheme) ->
      Alcotest.(check string)
        (Protect.scheme_name scheme)
        want
        (Protect.protect ~spec ~adt scheme).Detector.name)
    [
      ("global-lock", Iset.exclusive_spec (), Protect.Global_lock);
      ("abslock(set_rw)", Iset.simple_spec (), Protect.Abstract_lock);
      ( "abslock-striped(set_rw)",
        Iset.simple_spec (),
        Protect.Sharded (Protect.Abstract_lock, 8) );
      ("fwd-gk(set)", Iset.precise_spec (), Protect.Forward_gk);
      ( "fwd-gk-sharded(kvmap)",
        Kvmap.precise_spec (),
        Protect.Sharded (Protect.Forward_gk, 16) );
      ("gen-gk(union_find)", Union_find.spec (), Protect.General_gk);
      ("stm", Iset.precise_spec (), Protect.Stm);
    ];
  (* a sharded gatekeeper is striped, which past-state reconstruction
     rules out *)
  Alcotest.check_raises "gen-gk cannot be sharded"
    (Invalid_argument "Protect.protect: gen-gk cannot be sharded") (fun () ->
      ignore
        (Protect.protect ~spec:(Union_find.spec ()) ~adt
           (Protect.Sharded (Protect.General_gk, 4))));
  Alcotest.check_raises "a sharded general gatekeeper is refused"
    (Invalid_argument
       "Gatekeeper: spec union_find cannot be sharded (only a forward \
        gatekeeper over state-free conditions can)") (fun () ->
      ignore
        (Gatekeeper.make ~nshards:4 ~allow_rollback:true
           ~hooks:(Gatekeeper.hooks (fun _ _ -> Value.Unit))
           (Union_find.spec ())))

let suite =
  [
    Alcotest.test_case "txn rollback order" `Quick test_txn_rollback_order;
    Alcotest.test_case "txn commit clears undo" `Quick test_txn_commit_clears;
    Alcotest.test_case "txn ids unique" `Quick test_txn_ids_unique;
    Alcotest.test_case "boost: undo on post-exec conflict" `Quick
      test_boost_undo_on_post_exec_conflict;
    Alcotest.test_case "boost: no effect on pre-exec conflict" `Quick
      test_boost_no_undo_when_never_executed;
    Alcotest.test_case "detector compose" `Quick test_compose;
    Alcotest.test_case "empty worklist" `Quick test_empty_worklist;
    Alcotest.test_case "retry at front policy" `Quick test_retry_at_front;
    Alcotest.test_case "operator exceptions propagate" `Quick
      test_operator_exception_propagates;
    test_stats_invariants;
    Alcotest.test_case "performance model" `Quick test_model_runtime;
    Alcotest.test_case "mem-trace collector" `Quick test_mem_trace_collector;
    Alcotest.test_case "protect: detector name per scheme" `Quick
      test_protect_names;
  ]
