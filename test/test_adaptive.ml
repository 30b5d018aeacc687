(* Tests of the adaptive detector selection (the paper's §5 future-work
   system). *)

open Commlat_core
open Commlat_adts
open Commlat_runtime
open Commlat_apps

let check_bool = Alcotest.(check bool)

(* Candidates for the set microbenchmark on a contended input. *)
let set_candidate scheme n classes : Set_micro.op Adaptive.candidate =
  ignore n;
  {
    Adaptive.name = Set_micro.scheme_name scheme;
    prepare =
      (fun () ->
        let set = Iset.create () in
        let det = Set_micro.detector_of set scheme in
        (det, Set_micro.operator set det, Set_micro.ops ~classes n));
  }

(* a deterministic discrimination test: one candidate's detector burns
   artificial time per invocation, the other is free — adaptive must pick
   the free one and run the workload to completion *)
let slow_detector () =
  {
    Detector.name = "slow";
    on_invoke =
      (fun inv exec ->
        (* busy-work: the candidate is functionally fine, just expensive *)
        let acc = ref 0 in
        for i = 0 to 20_000 do
          acc := !acc + i
        done;
        ignore !acc;
        let r = exec () in
        inv.Invocation.ret <- r;
        r);
    on_commit = ignore;
    on_abort = ignore;
    reset = ignore;
    snapshot = Detector.no_snapshot;
    guards = [];
    txn_guards = (fun _ -> []);
  }

let test_picks_the_cheap_candidate () =
  let mk name slow : int Adaptive.candidate =
    {
      Adaptive.name;
      prepare =
        (fun () ->
          let acc = Accumulator.create () in
          let det = if slow then slow_detector () else Detector.none in
          let operator (txn : Txn.t) x =
            Accumulator.invoke_increment det acc ~txn:(Txn.id txn) x;
            []
          in
          (det, operator, List.init 512 Fun.id));
    }
  in
  let decision, stats =
    Adaptive.run ~sample_size:128 [ mk "slow" true; mk "fast" false ]
  in
  Alcotest.(check string) "winner" "fast" decision.Adaptive.winner.Adaptive.name;
  check_bool "full run completed" true (stats.Executor.committed = 512)

let test_scores_all_candidates () =
  let candidates = List.map (fun s -> set_candidate s 500 0) Set_micro.all_schemes in
  let decision = Adaptive.choose ~sample_size:100 candidates in
  Alcotest.(check int)
    "one score per candidate"
    (List.length Set_micro.all_schemes)
    (List.length decision.Adaptive.scores);
  List.iter
    (fun (_, s) -> check_bool "finite score" true (Float.is_finite s))
    decision.Adaptive.scores

let test_empty_candidates () =
  Alcotest.check_raises "no candidates"
    (Invalid_argument "Adaptive.choose: no candidates") (fun () ->
      ignore (Adaptive.choose ~sample_size:64 ([] : unit Adaptive.candidate list)))

(* a candidate that runs a trivial workload instantly *)
let trivial name : int Adaptive.candidate =
  {
    Adaptive.name;
    prepare = (fun () -> (Detector.none, (fun _ _ -> []), [ 1; 2; 3 ]));
  }

let test_duplicate_names_rejected () =
  (* regression: scoring went through List.assoc on names, so two
     candidates named the same silently shared the first one's score *)
  Alcotest.check_raises "duplicate names"
    (Invalid_argument "Adaptive.choose: duplicate candidate name \"twin\"")
    (fun () ->
      ignore
        (Adaptive.choose ~sample_size:3 [ trivial "twin"; trivial "twin" ]))

let test_empty_name_rejected () =
  Alcotest.check_raises "empty name"
    (Invalid_argument "Adaptive.choose: empty candidate name") (fun () ->
      ignore (Adaptive.choose ~sample_size:3 [ trivial "" ]))

let test_scores_are_per_candidate () =
  (* the slow candidate must carry the worse score even though scoring no
     longer looks anything up by name *)
  let mk name slow : int Adaptive.candidate =
    {
      Adaptive.name;
      prepare =
        (fun () ->
          let det = if slow then slow_detector () else Detector.none in
          let acc = Accumulator.create () in
          let operator (txn : Txn.t) x =
            Accumulator.invoke_increment det acc ~txn:(Txn.id txn) x;
            []
          in
          (det, operator, List.init 256 Fun.id));
    }
  in
  let d = Adaptive.choose ~sample_size:128 [ mk "slow" true; mk "fast" false ] in
  let score n = List.assoc n d.Adaptive.scores in
  check_bool "slow candidate scored worse" true (score "slow" > score "fast");
  Alcotest.(check string) "winner" "fast" d.Adaptive.winner.Adaptive.name

(* Boruvka: adaptive choice between the general gatekeeper and the STM
   baseline still computes a correct MST. *)
let test_boruvka_adaptive () =
  let mesh = Mesh.generate ~rows:10 ~cols:10 () in
  let result = ref [] in
  let mk name variant : int Adaptive.candidate =
    {
      Adaptive.name;
      prepare =
        (fun () ->
          let t = Boruvka.create ~mesh () in
          let det =
            match variant with
            | `Gk ->
                Protect.protect ~spec:(Union_find.spec ())
                  ~adt:(Protect.adt ~hooks:(Union_find.hooks t.Boruvka.uf) ())
                  Protect.General_gk
            | `Ml ->
                Protect.protect ~spec:(Union_find.spec ())
                  ~adt:
                    (Protect.adt
                       ~connect_tracer:(Union_find.set_tracer t.Boruvka.uf)
                       ())
                  Protect.Stm
          in
          result := [];
          let operator txn item =
            let out = Boruvka.operator t det txn item in
            result := t.Boruvka.mst;
            out
          in
          ( Boruvka.full_detector t det,
            operator,
            List.init mesh.Mesh.nodes Fun.id ))
    }
  in
  let decision, stats =
    Adaptive.run ~sample_size:32 [ mk "uf-gk" `Gk; mk "uf-ml" `Ml ]
  in
  ignore stats;
  ignore decision;
  Alcotest.(check int)
    "mst weight"
    (Reference.mst_weight ~n:mesh.Mesh.nodes mesh.Mesh.edges)
    (Boruvka.mst_weight !result)

(* ---------------------------------------------------------------- *)
(* The online hysteresis controller, on synthetic signal streams      *)
(* ---------------------------------------------------------------- *)

let thresholds = { Adaptive.strengthen_above = 2.0; weaken_above = 0.1; cooldown = 2 }

let window ?(inv = 1000) ?(conflicts = 0) ?(checks = 0) () =
  {
    Adaptive.no_signals with
    Adaptive.s_invocations = inv;
    s_conflicts = conflicts;
    s_checks = checks;
  }

let test_controller_strengthens_on_check_cost () =
  let c = Adaptive.controller thresholds [ "precise"; "simple"; "part" ] in
  Alcotest.(check string) "starts precise" "precise" (Adaptive.current_level c);
  (* conflict-free but check-heavy: 5 checks per invocation *)
  let v = Adaptive.observe c (window ~checks:5000 ()) in
  check_bool "strengthens" true (v = Adaptive.Strengthen);
  Alcotest.(check string) "moved to simple" "simple" (Adaptive.current_level c);
  (* cooldown: the next check-heavy window must hold *)
  let v = Adaptive.observe c (window ~checks:5000 ()) in
  check_bool "cooldown holds" true (v = Adaptive.Hold);
  (* cooldown expired: climbs to the coarsest level and stays there *)
  let v = Adaptive.observe c (window ~checks:5000 ()) in
  check_bool "second strengthen" true (v = Adaptive.Strengthen);
  Alcotest.(check string) "at part" "part" (Adaptive.current_level c);
  for _ = 1 to 5 do
    let v = Adaptive.observe c (window ~checks:5000 ()) in
    check_bool "no level above part" true (v = Adaptive.Hold)
  done

let test_controller_weakens_on_aborts () =
  let c = Adaptive.controller thresholds [ "precise"; "simple" ] in
  ignore (Adaptive.observe c (window ~checks:5000 ()));
  Alcotest.(check string) "strengthened" "simple" (Adaptive.current_level c);
  (* abort ratio 0.3 > 0.1: weaken immediately, cooldown notwithstanding *)
  let v = Adaptive.observe c (window ~conflicts:300 ~checks:100 ()) in
  check_bool "weakens" true (v = Adaptive.Weaken);
  Alcotest.(check string) "back to precise" "precise" (Adaptive.current_level c);
  let ts = Adaptive.transitions c in
  Alcotest.(check int) "two transitions" 2 (List.length ts);
  check_bool "first is strengthen" true
    ((List.hd ts).Adaptive.t_verdict = Adaptive.Strengthen);
  check_bool "second is weaken" true
    ((List.nth ts 1).Adaptive.t_verdict = Adaptive.Weaken)

let test_controller_hysteresis_no_thrash () =
  (* a steady phase where the strong level aborts and the weak level is
     check-heavy: after one weaken, the controller must NOT strengthen
     back while the workload still looks hot (the burned level) *)
  let c = Adaptive.controller thresholds [ "precise"; "simple" ] in
  ignore (Adaptive.observe c (window ~checks:5000 ()));
  ignore (Adaptive.observe c (window ~conflicts:300 ()));
  Alcotest.(check string) "weakened" "precise" (Adaptive.current_level c);
  (* check-heavy windows with a trickle of conflicts: simple stays burned *)
  for _ = 1 to 10 do
    let v = Adaptive.observe c (window ~conflicts:1 ~checks:5000 ()) in
    check_bool "holds at precise" true (v = Adaptive.Hold)
  done;
  Alcotest.(check int) "exactly two transitions" 2
    (List.length (Adaptive.transitions c));
  (* calm windows clear the burn; a later check-heavy phase may strengthen *)
  for _ = 1 to 3 do
    ignore (Adaptive.observe c (window ~checks:100 ()))
  done;
  let v = Adaptive.observe c (window ~checks:5000 ()) in
  check_bool "re-strengthens after calm" true (v = Adaptive.Strengthen)

let test_controller_idle_holds () =
  let c = Adaptive.controller thresholds [ "precise"; "simple" ] in
  for _ = 1 to 5 do
    let v = Adaptive.observe c (window ~inv:0 ()) in
    check_bool "idle window holds" true (v = Adaptive.Hold)
  done;
  Alcotest.(check int) "no transitions" 0 (List.length (Adaptive.transitions c))

let test_controller_rejects_bad_args () =
  Alcotest.check_raises "single level rejected"
    (Invalid_argument "Adaptive.controller: needs at least two levels")
    (fun () -> ignore (Adaptive.controller thresholds [ "only" ]))

let suite =
  [
    Alcotest.test_case "picks the cheap candidate" `Quick
      test_picks_the_cheap_candidate;
    Alcotest.test_case "scores all candidates" `Quick test_scores_all_candidates;
    Alcotest.test_case "rejects empty candidate list" `Quick test_empty_candidates;
    Alcotest.test_case "rejects duplicate candidate names" `Quick
      test_duplicate_names_rejected;
    Alcotest.test_case "rejects empty candidate name" `Quick test_empty_name_rejected;
    Alcotest.test_case "scores stay with their candidate" `Quick
      test_scores_are_per_candidate;
    Alcotest.test_case "boruvka adaptive run is correct" `Quick
      test_boruvka_adaptive;
    Alcotest.test_case "controller strengthens on check cost" `Quick
      test_controller_strengthens_on_check_cost;
    Alcotest.test_case "controller weakens on aborts" `Quick
      test_controller_weakens_on_aborts;
    Alcotest.test_case "controller hysteresis does not thrash" `Quick
      test_controller_hysteresis_no_thrash;
    Alcotest.test_case "controller holds when idle" `Quick
      test_controller_idle_holds;
    Alcotest.test_case "controller rejects bad arguments" `Quick
      test_controller_rejects_bad_args;
  ]
