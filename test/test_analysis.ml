(* Tests of the static-analysis pass behind `commlat lint`: bounded
   soundness/completeness against the reference ADT semantics, the
   structural lint catalogue, and strengthening-chain validation. *)

open Commlat_core
open Commlat_analysis

let check_bool = Alcotest.(check bool)

let specs_dir =
  (* tests run from the dune sandbox; locate the example specs relative to
     the workspace root *)
  let rec find dir n =
    if n = 0 then None
    else if Sys.file_exists (Filename.concat dir "examples/specs/set.spec") then Some dir
    else find (Filename.concat dir "..") (n - 1)
  in
  find "." 6

let load dir name =
  match Lint.load_file (Filename.concat dir ("examples/specs/" ^ name)) with
  | Ok src -> src
  | Error d -> Alcotest.failf "cannot load %s: %a" name Diagnostic.pp d

let codes ds = List.map (fun (d : Diagnostic.t) -> d.Diagnostic.code) ds
let has_code c ds = List.mem c (codes ds)

let errors ds = List.filter Diagnostic.is_error ds

(* substring containment, avoiding extra dependencies *)
let contains haystack needle =
  let nh = String.length haystack and nn = String.length needle in
  let rec go i = i + nn <= nh && (String.sub haystack i nn = needle || go (i + 1)) in
  nn = 0 || go 0

let parse_src s =
  let spec, rules = Spec_lang.parse_with_rules s in
  { Lint.src_file = None; src_spec = spec; src_rules = rules }

(* ---- the shipped good specs are clean ---- *)

let good_specs =
  [ "set.spec"; "set_rw.spec"; "accumulator.spec"; "kvmap.spec";
    "union_find.spec"; "kdtree.spec" ]

let test_good_specs_error_free () =
  match specs_dir with
  | None -> Alcotest.skip ()
  | Some dir ->
      List.iter
        (fun name ->
          let ds = Lint.analyze (load dir name) in
          match errors ds with
          | [] -> ()
          | e :: _ ->
              Alcotest.failf "%s should lint clean but got: %a" name
                Diagnostic.pp e)
        good_specs

let test_builtin_specs_error_free () =
  (* programmatic entry point on in-memory specs *)
  List.iter
    (fun spec ->
      let ds = Lint.analyze_spec spec in
      match errors ds with
      | [] -> ()
      | e :: _ ->
          Alcotest.failf "built-in %s should lint clean but got: %a"
            (Spec.adt spec) Diagnostic.pp e)
    [
      Commlat_adts.Iset.precise_spec ();
      Commlat_adts.Accumulator.spec ();
      Commlat_adts.Kvmap.precise_spec ();
      Commlat_adts.Union_find.spec ();
    ]

(* ---- bounded soundness: the seeded bad corpus is refuted ---- *)

let test_unsound_set () =
  match specs_dir with
  | None -> Alcotest.skip ()
  | Some dir ->
      let ds = Lint.analyze (load dir "bad/set_unsound.spec") in
      let unsound =
        List.filter (fun (d : Diagnostic.t) -> d.Diagnostic.code = "unsound") ds
      in
      check_bool "at least the add/add and remove/contains rules are refuted"
        true
        (List.length unsound >= 2);
      List.iter
        (fun (d : Diagnostic.t) ->
          check_bool "unsound findings are errors" true (Diagnostic.is_error d);
          (* the counterexample trace shows both invocation orders and the
             distinguishing observation *)
          check_bool "trace shows the forward order" true
            (contains d.Diagnostic.msg "forward:");
          check_bool "trace shows the swapped order" true
            (contains d.Diagnostic.msg "swapped:");
          check_bool "trace names the distinguishing observation" true
            (contains d.Diagnostic.msg "differs");
          check_bool "diagnostic carries a source position" true
            (d.Diagnostic.pos <> None))
        unsound;
      (* add;add from the empty set: first add returns true, second false *)
      check_bool "add/add counterexample mentions the flipped returns" true
        (List.exists
           (fun (d : Diagnostic.t) ->
             d.Diagnostic.pair = Some ("add", "add")
             && contains d.Diagnostic.msg "add(0) = true"
             && contains d.Diagnostic.msg "add(0) = false")
           unsound)

let test_unsound_accumulator () =
  match specs_dir with
  | None -> Alcotest.skip ()
  | Some dir ->
      let ds = Lint.analyze (load dir "bad/accumulator_unsound.spec") in
      check_bool "increment;read 'always' is refuted" true
        (List.exists
           (fun (d : Diagnostic.t) ->
             d.Diagnostic.code = "unsound"
             && d.Diagnostic.pair = Some ("increment", "read"))
           ds);
      (* increment returns unit, so `r1 = r2` on increment;increment is
         vacuous — flagged by the unit-return lint *)
      check_bool "unit-return lint fires" true (has_code "unit-return" ds);
      check_bool "unit-return is a warning, not an error" true
        (List.for_all
           (fun (d : Diagnostic.t) ->
             d.Diagnostic.code <> "unit-return" || d.Diagnostic.sev = Diagnostic.Warning)
           ds)

(* ---- structural lint catalogue ---- *)

let test_structural_lints () =
  match specs_dir with
  | None -> Alcotest.skip ()
  | Some dir ->
      let ds = Lint.analyze (load dir "bad/set_lints.spec") in
      check_bool "set_lints.spec has no soundness errors" true (errors ds = []);
      check_bool "dead disjunct detected" true (has_code "dead-disjunct" ds);
      check_bool "misclassification detected" true (has_code "misclassification" ds);
      check_bool "asymmetric directed coverage detected" true
        (has_code "asymmetric-coverage" ds);
      (* positions point at the offending rule lines *)
      let find code pair =
        List.find
          (fun (d : Diagnostic.t) ->
            d.Diagnostic.code = code && d.Diagnostic.pair = Some pair)
          ds
      in
      (match (find "dead-disjunct" ("add", "add")).Diagnostic.pos with
      | Some p -> Alcotest.(check int) "dead-disjunct line" 7 p.Spec_lang.line
      | None -> Alcotest.fail "dead-disjunct has no position");
      (match (find "misclassification" ("add", "remove")).Diagnostic.pos with
      | Some p -> Alcotest.(check int) "misclassification line" 12 p.Spec_lang.line
      | None -> Alcotest.fail "misclassification has no position")

let test_superfluous_modes () =
  match specs_dir with
  | None -> Alcotest.skip ()
  | Some dir ->
      (* set_rw is SIMPLE with a 3-mode scheme whose reduction (Fig. 8a->8b)
         drops modes; the lint re-derives that as warnings *)
      let ds = Lint.analyze (load dir "set_rw.spec") in
      check_bool "superfluous lock modes reported on set_rw" true
        (has_code "superfluous-mode" ds);
      check_bool "superfluous-mode is a warning" true
        (List.for_all
           (fun (d : Diagnostic.t) ->
             d.Diagnostic.code <> "superfluous-mode"
             || d.Diagnostic.sev = Diagnostic.Warning)
           ds)

let test_incomplete_lattice_position () =
  match specs_dir with
  | None -> Alcotest.skip ()
  | Some dir ->
      (* set_rw strengthens the precise set spec, so some observably
         commuting scenarios are rejected: reported as lattice position
         (info), never as an error *)
      let ds = Lint.analyze (load dir "set_rw.spec") in
      let inc =
        List.filter (fun (d : Diagnostic.t) -> d.Diagnostic.code = "incomplete") ds
      in
      check_bool "set_rw sits strictly below the precise condition" true
        (inc <> []);
      List.iter
        (fun (d : Diagnostic.t) ->
          check_bool "incomplete is informational" true
            (d.Diagnostic.sev = Diagnostic.Info))
        inc

let test_unit_return_inline () =
  (* crafted inline spec: referencing r2 of a void method *)
  let src =
    parse_src
      "spec accumulator\n\
       methods increment/1 mut, read/0\n\
       increment ; increment commute if r2 = r2\n\
       increment ; read commute never\n\
       read ; read commute always"
  in
  let ds = Lint.analyze src in
  check_bool "unit-return fires on crafted inline spec" true
    (has_code "unit-return" ds)

(* ---- bounded soundness, programmatic API ---- *)

let test_check_spec_structure () =
  let dom =
    match Domain.find "set" with
    | Some d -> d
    | None -> Alcotest.fail "no reference domain registered for set"
  in
  let reports = Soundness.check_spec dom (Commlat_adts.Iset.precise_spec ()) in
  check_bool "one report per spec pair" true
    (List.length reports
     = List.length (Spec.pairs (Commlat_adts.Iset.precise_spec ())));
  List.iter
    (fun (r : Soundness.pair_report) ->
      check_bool "precise spec has no counterexamples" true
        (r.Soundness.pr_unsound = []);
      check_bool "scenarios were actually executed" true
        (r.Soundness.pr_scenarios > 0))
    reports;
  (* the precise spec is complete on the sampled scenarios for add/add *)
  let addadd =
    List.find (fun (r : Soundness.pair_report) -> r.Soundness.pr_pair = ("add", "add")) reports
  in
  Alcotest.(check int) "precise add/add rejects no commuting scenario" 0
    addadd.Soundness.pr_incomplete

let test_check_pair_counterexample () =
  (* claim add;add always commute: check_pair must produce a concrete
     counterexample with distinguishable observations *)
  let dom = Option.get (Domain.find "set") in
  let spec =
    Spec_lang.parse
      "spec set\nmethods add/1 mut, remove/1 mut, contains/1\n\
       add ; add commute always"
  in
  let r = Soundness.check_pair dom spec (("add", "add"), Formula.True) in
  check_bool "counterexamples found" true (r.Soundness.pr_unsound <> []);
  let cx = List.hd r.Soundness.pr_unsound in
  check_bool "forward and swapped observations differ" false
    (Value.equal cx.Soundness.cx_fwd.Soundness.obs_r1
       cx.Soundness.cx_rev.Soundness.obs_r1
    && Value.equal cx.Soundness.cx_fwd.Soundness.obs_r2
         cx.Soundness.cx_rev.Soundness.obs_r2
    && Value.equal cx.Soundness.cx_fwd.Soundness.obs_state
         cx.Soundness.cx_rev.Soundness.obs_state);
  (* the rendered trace names both orders *)
  let s = Soundness.counterexample_to_string cx in
  check_bool "trace shows forward order" true (contains s "forward:");
  check_bool "trace shows swapped order" true (contains s "swapped:")

(* ---- strengthening-chain validation ---- *)

let test_chain_descends () =
  match specs_dir with
  | None -> Alcotest.skip ()
  | Some dir ->
      let chain names = Lint.analyze_chain (List.map (load dir) names) in
      (* set.spec (precise) -> set_rw.spec (strengthening): valid descent *)
      let ok = chain [ "set.spec"; "set_rw.spec" ] in
      check_bool "set -> set_rw descends the lattice" true (errors ok = []);
      check_bool "no broken step reported" false (has_code "chain-broken" ok);
      (* reversed: set_rw -> set ascends, every weakened pair is an error *)
      let broken = chain [ "set_rw.spec"; "set.spec" ] in
      check_bool "set_rw -> set is a broken chain" true
        (has_code "chain-broken" broken);
      check_bool "broken steps are errors" true (errors broken <> [])

let test_chain_programmatic () =
  let envs =
    Domain.sample_envs ?domain:(Domain.find "set")
      (Commlat_adts.Iset.precise_spec ())
  in
  let step label spec = { Chain.label; spec } in
  let ds =
    Chain.validate ~envs
      [
        step "precise" (Commlat_adts.Iset.precise_spec ());
        step "rw" (Commlat_adts.Iset.simple_spec ());
        step "excl" (Commlat_adts.Iset.exclusive_spec ());
      ]
  in
  check_bool "precise -> rw -> exclusive is a valid strengthening chain" true
    (List.filter Diagnostic.is_error ds = [])

(* ---- diagnostics plumbing ---- *)

let test_load_file_errors () =
  (match Lint.load_file "/nonexistent/no.spec" with
  | Ok _ -> Alcotest.fail "expected io error"
  | Error d ->
      check_bool "io error code" true (d.Diagnostic.code = "io");
      check_bool "io errors are errors" true (Diagnostic.is_error d));
  (* a malformed spec surfaces as a positioned parse diagnostic *)
  let tmp = Filename.temp_file "commlat" ".spec" in
  Fun.protect
    ~finally:(fun () -> try Sys.remove tmp with Sys_error _ -> ())
    (fun () ->
      let oc = open_out tmp in
      output_string oc "spec broken\nmethods m/1 mut\nm ; m commute if v1[0] !!\n";
      close_out oc;
      match Lint.load_file tmp with
      | Ok _ -> Alcotest.fail "expected parse error"
      | Error d ->
          check_bool "parse error code" true (d.Diagnostic.code = "parse");
          check_bool "parse error is positioned" true (d.Diagnostic.pos <> None);
          (match d.Diagnostic.pos with
          | Some p -> Alcotest.(check int) "error on line 3" 3 p.Spec_lang.line
          | None -> ()))

(* every control character, quote and backslash survives the emitted
   JSON text: parsing it back yields the exact message *)
let test_json_roundtrip_escaping () =
  let module Jsonx = Commlat_obs.Jsonx in
  let msg = "line1\nline2 \"quoted\" \\ backslash\ttab\r\b\012\001 end" in
  let d =
    Diagnostic.make ~spec:"t" ~sev:Diagnostic.Error ~code:"unsound" "%s" msg
  in
  match Jsonx.parse (Jsonx.to_string (Diagnostic.to_json d)) with
  | Error e -> Alcotest.failf "emitted JSON does not parse: %s" e
  | Ok j ->
      let field k = Option.bind (Jsonx.member k j) Jsonx.to_str in
      Alcotest.(check (option string)) "message" (Some msg) (field "message");
      Alcotest.(check (option string)) "severity" (Some "error") (field "severity")

let suite =
  [
    Alcotest.test_case "shipped specs lint error-free" `Quick
      test_good_specs_error_free;
    Alcotest.test_case "built-in specs lint error-free" `Quick
      test_builtin_specs_error_free;
    Alcotest.test_case "unsound set spec refuted with trace" `Quick
      test_unsound_set;
    Alcotest.test_case "unsound accumulator spec refuted" `Quick
      test_unsound_accumulator;
    Alcotest.test_case "structural lint catalogue" `Quick test_structural_lints;
    Alcotest.test_case "superfluous lock modes re-derived" `Quick
      test_superfluous_modes;
    Alcotest.test_case "incompleteness reported as lattice position" `Quick
      test_incomplete_lattice_position;
    Alcotest.test_case "unit-return on crafted spec" `Quick
      test_unit_return_inline;
    Alcotest.test_case "check_spec report structure" `Quick
      test_check_spec_structure;
    Alcotest.test_case "check_pair produces concrete counterexample" `Quick
      test_check_pair_counterexample;
    Alcotest.test_case "strengthening chain descends" `Quick test_chain_descends;
    Alcotest.test_case "chain validation, programmatic" `Quick
      test_chain_programmatic;
    Alcotest.test_case "load_file error diagnostics" `Quick test_load_file_errors;
    Alcotest.test_case "JSON escaping" `Quick test_json_roundtrip_escaping;
  ]
