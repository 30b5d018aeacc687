(* The commlat command-line tool: work with textual commutativity
   specifications (see Spec_lang and examples/specs/).

     commlat classify FILE        classification + per-condition breakdown
     commlat matrix FILE          synthesized abstract-lock matrix (SIMPLE)
     commlat check FILE           parse + well-formedness + totality report
     commlat lint FILE...         static analysis: bounded soundness vs the
                                  reference ADT semantics, structural lints,
                                  strengthening-chain validation (--chain)
     commlat synth --adt NAME     CEGIS-synthesize a spec from the reference
                                  semantics, verify it unboundedly by
                                  product-program reachability, diff it
                                  against the hand-written spec
     commlat order FILE1 FILE2    lattice comparison of two specs
     commlat print FILE           canonical re-print (round-trips)
     commlat stats FILE           render/validate observability snapshots
                                  from bench/main.exe --json output
     commlat explore WORKLOAD     systematic interleaving exploration with
                                  commutativity (DPOR-style) pruning and
                                  replayable, shrunk counterexamples

   Flag conventions: [--json FILE] writes the machine-readable form of a
   subcommand's report next to its text output (the same spelling as
   bench/main.exe), and [--detector SCHEME] uses the canonical scheme
   spellings of {!Commlat_runtime.Protect.scheme_of_string} (global-lock,
   abslock, fwd-gk, gen-gk, stm, with an optional -sharded[:N] suffix).

   Exit codes: 0 success; 1 analysis errors (lint), validation failures or
   unsupported detector schemes; 2 unreadable/unparsable input (with a
   positioned error message). *)

open Commlat_core
open Commlat_runtime
open Commlat_analysis
open Cmdliner
module Obs = Commlat_obs.Obs
module Jsonx = Commlat_obs.Jsonx

(* Shared exit-code documentation, rendered in every subcommand's --help. *)
let exits =
  Cmd.Exit.info 0 ~doc:"on success."
  :: Cmd.Exit.info 1
       ~doc:
         "on analysis errors ($(b,lint)), failed validation ($(b,stats \
          --validate)), incomparable specifications ($(b,order)), or a \
          specification outside the requested $(b,--detector) scheme's \
          logic fragment."
  :: Cmd.Exit.info 2
       ~doc:
         "on unreadable or unparsable input (a positioned error message is \
          printed on stderr)."
  :: Cmd.Exit.defaults

let read_file path =
  match
    let ic = open_in_bin path in
    Fun.protect
      ~finally:(fun () -> close_in_noerr ic)
      (fun () -> really_input_string ic (in_channel_length ic))
  with
  | src -> src
  | exception Sys_error msg ->
      Fmt.epr "%s: cannot read: %s@." path msg;
      exit 2

let load path =
  match Spec_lang.parse (read_file path) with
  | spec -> spec
  | exception Spec_lang.Parse_error (pos, msg) ->
      Fmt.epr "%s: %a@." path Spec_lang.pp_error (pos, msg);
      exit 2

let spec_file_arg ?(pos = 0) () =
  let p = pos in
  Arg.(required & pos p (some file) None & info [] ~docv:"SPEC" ~doc:"Specification file.")

let write_out path s =
  match
    let oc = open_out_bin path in
    Fun.protect
      ~finally:(fun () -> close_out_noerr oc)
      (fun () -> output_string oc s)
  with
  | () -> ()
  | exception Sys_error msg ->
      Fmt.epr "%s: cannot write: %s@." path msg;
      exit 2

(* [--json FILE]: same spelling as bench/main.exe. *)
let json_file_arg =
  Arg.(
    value
    & opt (some string) None
    & info [ "json" ] ~docv:"FILE"
        ~doc:
          "Also write the report as machine-readable JSON to $(docv) (the \
           same flag spelling as $(b,bench/main.exe --json)).")

(* [--detector SCHEME]: the canonical spellings of Protect.scheme_of_string. *)
let scheme_conv : Protect.scheme Arg.conv =
  let parse s =
    match Protect.scheme_of_string s with
    | Ok v -> Ok v
    | Error e -> Error (`Msg e)
  in
  Arg.conv (parse, fun ppf s -> Fmt.string ppf (Protect.scheme_name s))

let detector_arg =
  Arg.(
    value
    & opt (some scheme_conv) None
    & info [ "detector" ] ~docv:"SCHEME"
        ~doc:
          "A detector scheme (canonical spellings: $(b,global-lock), \
           $(b,abslock), $(b,fwd-gk), $(b,gen-gk), $(b,stm), optionally \
           with a $(b,-sharded[:N]) suffix).")

(* Can [scheme] soundly detect conflicts for a spec of classification
   [cls]?  Mirrors what Protect.protect would accept. *)
let rec scheme_admits (cls : Formula.cls) : Protect.scheme -> bool = function
  | Protect.Global_lock | Protect.Stm | Protect.General_gk -> true
  | Protect.Abstract_lock -> cls = Formula.Simple
  | Protect.Forward_gk -> cls <> Formula.General
  | Protect.Sharded (b, n) -> (
      n > 0
      &&
      match b with
      | Protect.Abstract_lock | Protect.Forward_gk -> scheme_admits cls b
      | Protect.Global_lock | Protect.General_gk | Protect.Stm
      | Protect.Sharded _ ->
          false)

(* ---- classify ---- *)

let classify_cmd =
  let run path json detector =
    let spec = load path in
    let cls = Spec.classify spec in
    Fmt.pr "spec %s: %a@." (Spec.adt spec) Formula.pp_cls cls;
    Fmt.pr "@.per-condition breakdown:@.";
    List.iter
      (fun ((m1, m2), f) ->
        Fmt.pr "  %-12s ; %-12s %-18s %a@." m1 m2
          (Fmt.str "%a" Formula.pp_cls (Formula.classify f))
          Formula.pp f)
      (Spec.pairs spec);
    let scheme_of_cls = function
      | Formula.Simple -> Protect.Abstract_lock
      | Formula.Online -> Protect.Forward_gk
      | Formula.General -> Protect.General_gk
    in
    Fmt.pr "@.implementation: %s (scheme %s)@."
      (match cls with
      | Formula.Simple -> "abstract locking (paper §3.2)"
      | Formula.Online -> "forward gatekeeper (paper §3.3.1)"
      | Formula.General -> "general gatekeeper with state rollback (paper §3.3.2)")
      (Protect.scheme_name (scheme_of_cls cls));
    let admits =
      match detector with
      | None -> true
      | Some s ->
          let ok = scheme_admits cls s in
          Fmt.pr "detector %s: %s@." (Protect.scheme_name s)
            (if ok then "supported"
             else
               Fmt.str "NOT supported (spec is %a)" Formula.pp_cls cls);
          ok
    in
    (match json with
    | None -> ()
    | Some file ->
        let module J = Commlat_obs.Jsonx in
        let doc =
          J.Obj
            ([
               ("schema", J.Str "commlat-classify/1");
               ("adt", J.Str (Spec.adt spec));
               ("classification", J.Str (Fmt.str "%a" Formula.pp_cls cls));
               ("scheme", J.Str (Protect.scheme_name (scheme_of_cls cls)));
               ( "pairs",
                 J.List
                   (List.map
                      (fun ((m1, m2), f) ->
                        J.Obj
                          [
                            ("m1", J.Str m1);
                            ("m2", J.Str m2);
                            ( "classification",
                              J.Str (Fmt.str "%a" Formula.pp_cls (Formula.classify f)) );
                            ("condition", J.Str (Fmt.str "%a" Formula.pp f));
                          ])
                      (Spec.pairs spec)) );
             ]
            @
            match detector with
            | None -> []
            | Some s ->
                [
                  ("detector", J.Str (Protect.scheme_name s));
                  ("supported", J.Bool (scheme_admits cls s));
                ])
        in
        write_out file (J.to_string doc));
    if not admits then exit 1
  in
  Cmd.v
    (Cmd.info "classify" ~exits
       ~doc:
         "Classify a specification (SIMPLE / ONLINE-CHECKABLE / GENERAL). \
          With $(b,--detector), additionally report whether the given \
          scheme can implement it (exit 1 if not).")
    Term.(const run $ spec_file_arg () $ json_file_arg $ detector_arg)

(* ---- matrix ---- *)

let matrix_cmd =
  let run path reduce json =
    let spec = load path in
    match Abstract_lock.construct spec with
    | scheme ->
        let scheme = if reduce then Abstract_lock.reduce scheme else scheme in
        Fmt.pr "abstract-lock compatibility matrix for %s%s:@.%a@."
          (Spec.adt spec)
          (if reduce then " (reduced)" else "")
          (Abstract_lock.pp_matrix ~only_used:reduce)
          scheme
        ;
        (match json with
        | None -> ()
        | Some file ->
            let module J = Commlat_obs.Jsonx in
            let n = Abstract_lock.n_modes scheme in
            let doc =
              J.Obj
                [
                  ("schema", J.Str "commlat-matrix/1");
                  ("adt", J.Str (Spec.adt spec));
                  ("reduced", J.Bool reduce);
                  ( "modes",
                    J.List
                      (List.init n (fun i ->
                           J.Str (Abstract_lock.mode_name scheme i))) );
                  ( "compat",
                    J.List
                      (List.init n (fun i ->
                           J.List
                             (List.init n (fun j ->
                                  J.Bool scheme.Abstract_lock.compat.(i).(j))))) );
                ]
            in
            write_out file (J.to_string doc))
    | exception Abstract_lock.Not_simple (m1, m2, f) ->
        Fmt.epr
          "%s is not SIMPLE: condition for (%s, %s) is %a@.No sound and \
           complete abstract locking scheme exists (Theorem 1); use a \
           gatekeeper, or strengthen the spec to its SIMPLE core.@."
          (Spec.adt spec) m1 m2 Formula.pp f;
        exit 1
  in
  let reduce =
    Arg.(value & flag & info [ "reduce"; "r" ] ~doc:"Drop superfluous modes (Fig. 8b).")
  in
  Cmd.v
    (Cmd.info "matrix" ~exits
       ~doc:"Synthesize the abstract-locking scheme of a SIMPLE spec.")
    Term.(const run $ spec_file_arg () $ reduce $ json_file_arg)

(* ---- check ---- *)

let check_cmd =
  let run path json =
    let spec = load path in
    (match Spec.validate spec with
    | () -> ()
    | exception Invalid_argument msg ->
        Fmt.epr "%s: %s@." path msg;
        exit 2);
    let methods = Spec.methods spec in
    let missing = ref [] in
    List.iter
      (fun (m1 : Invocation.meth) ->
        List.iter
          (fun (m2 : Invocation.meth) ->
            if
              not
                (List.mem_assoc (m1.Invocation.name, m2.Invocation.name)
                   (Spec.pairs spec))
            then missing := (m1.Invocation.name, m2.Invocation.name) :: !missing)
          methods)
      methods;
    Fmt.pr "%s: %d methods, %d conditions, classification %a@." (Spec.adt spec)
      (List.length methods)
      (List.length (Spec.pairs spec))
      Formula.pp_cls (Spec.classify spec);
    (match !missing with
    | [] -> Fmt.pr "total: every ordered method pair has a condition@."
    | ms ->
        Fmt.pr "missing (default to 'never', i.e. always conflict):@.";
        List.iter (fun (a, b) -> Fmt.pr "  %s ; %s@." a b) (List.rev ms));
    (* strengthening hint *)
    if Spec.classify spec <> Formula.Simple then
      Fmt.pr "@.SIMPLE core (lockable strengthening, paper §4.1):@.%a"
        Spec_lang.print_spec
        (Strengthen.simple_spec ~adt:(Spec.adt spec ^ "_simple") spec);
    match json with
    | None -> ()
    | Some file ->
        let module J = Commlat_obs.Jsonx in
        let doc =
          J.Obj
            [
              ("schema", J.Str "commlat-check/1");
              ("adt", J.Str (Spec.adt spec));
              ("methods", J.Int (List.length methods));
              ("conditions", J.Int (List.length (Spec.pairs spec)));
              ( "classification",
                J.Str (Fmt.str "%a" Formula.pp_cls (Spec.classify spec)) );
              ( "missing_pairs",
                J.List
                  (List.rev_map
                     (fun (a, b) -> J.List [ J.Str a; J.Str b ])
                     !missing) );
            ]
        in
        write_out file (J.to_string doc)
  in
  Cmd.v
    (Cmd.info "check" ~exits ~doc:"Parse and report on a specification.")
    Term.(const run $ spec_file_arg () $ json_file_arg)

(* ---- lint ---- *)

let lint_cmd =
  let run paths format chain max_cx json detector =
    (* load everything first: any unreadable/unparsable input is a
       positioned error and exit 2, matching the other subcommands *)
    let sources, parse_errors =
      List.fold_left
        (fun (ok, errs) path ->
          match Lint.load_file path with
          | Ok src -> (src :: ok, errs)
          | Error d -> (ok, d :: errs))
        ([], []) paths
    in
    let sources = List.rev sources and parse_errors = List.rev parse_errors in
    (* --detector: flag every spec outside the scheme's logic fragment
       (e.g. a GENERAL spec under fwd-gk), mirroring what Protect.protect
       would reject at construction time *)
    let detector_diags =
      match detector with
      | None -> []
      | Some scheme ->
          List.filter_map
            (fun (src : Lint.source) ->
              let spec = src.Lint.src_spec in
              let cls = Spec.classify spec in
              if scheme_admits cls scheme then None
              else
                Some
                  (Diagnostic.make ?file:src.Lint.src_file
                     ~spec:(Spec.adt spec) ~sev:Diagnostic.Error
                     ~code:"detector"
                     "specification is %a, outside scheme %s's fragment"
                     Formula.pp_cls cls
                     (Protect.scheme_name scheme)))
            sources
    in
    let diags =
      List.concat_map (Lint.analyze ~max_counterexamples:max_cx) sources
      @ (if chain then Lint.analyze_chain sources else [])
      @ detector_diags @ parse_errors
    in
    let diags = Diagnostic.sort diags in
    let json_doc () =
      Jsonx.to_string (Jsonx.List (List.map Diagnostic.to_json diags))
    in
    (match json with
    | None -> ()
    | Some file -> write_out file (json_doc ()));
    (match format with
    | `Json -> print_string (json_doc ())
    | `Text ->
        List.iter (fun d -> Fmt.pr "@[<v>%a@]@." Diagnostic.pp d) diags;
        let e, w, i = Diagnostic.count diags in
        Fmt.pr "%d file%s checked: %d error%s, %d warning%s, %d note%s@."
          (List.length paths)
          (if List.length paths = 1 then "" else "s")
          e
          (if e = 1 then "" else "s")
          w
          (if w = 1 then "" else "s")
          i
          (if i = 1 then "" else "s"));
    if parse_errors <> [] then exit 2
    else if Lint.has_errors diags then exit 1
    else exit 0
  in
  let paths =
    Arg.(
      non_empty & pos_all file []
      & info [] ~docv:"SPEC" ~doc:"Specification files to analyse.")
  in
  let format =
    Arg.(
      value
      & opt (enum [ ("text", `Text); ("json", `Json) ]) `Text
      & info [ "format"; "f" ] ~docv:"FMT"
          ~doc:"Output format: $(b,text) or $(b,json) (machine-readable, for CI).")
  in
  let chain =
    Arg.(
      value & flag
      & info [ "chain" ]
          ~doc:
            "Treat the files as a strengthening chain (weakest first) and \
             verify each step descends the commutativity lattice.")
  in
  let max_cx =
    Arg.(
      value & opt int 3
      & info [ "max-counterexamples" ] ~docv:"N"
          ~doc:
            "Counterexample traces retained per method pair (default 3). The \
             cap trims the traces attached to $(b,unsound) diagnostics, never \
             the diagnostics themselves: $(b,--max-counterexamples 0) still \
             reports every unsound pair (and still exits 1), just without \
             replay traces. Diagnostics are emitted in a deterministic order \
             (file, position, severity, code, pair) regardless of N, so lint \
             output is directly diffable in CI.")
  in
  Cmd.v
    (Cmd.info "lint" ~exits
       ~doc:
         "Statically analyse specifications: bounded soundness/completeness \
          against the registered reference ADT semantics, structural lints \
          (dead disjuncts, misclassification, asymmetric coverage, \
          superfluous lock modes), strengthening-chain validation, and \
          $(b,--detector) fragment checks. Exits 1 if any error-severity \
          diagnostic is reported, 2 on unparsable input.")
    Term.(const run $ paths $ format $ chain $ max_cx $ json_file_arg $ detector_arg)

(* ---- synth ---- *)

let synth_cmd =
  (* the built-in references: the hand-written precise specs whose
     conditions the synthesizer must re-derive from semantics alone *)
  let builtin = function
    | "set" -> Some (Commlat_adts.Iset.precise_spec ())
    | "accumulator" -> Some (Commlat_adts.Accumulator.spec ())
    | "kvmap" -> Some (Commlat_adts.Kvmap.precise_spec ())
    | "orset" -> Some (Commlat_adts.Orset.spec ())
    | "triset" -> Some (Commlat_adts.Triset.precise_spec ())
    | _ -> None
  in
  let jpair (m1, m2) = Jsonx.List [ Jsonx.Str m1; Jsonx.Str m2 ] in
  let jformula f = Jsonx.Str (Formula.to_string f) in
  let jargs args = Jsonx.Str (Fmt.str "%a" Fmt.(list ~sep:comma Value.pp) args) in
  let verdict_fields = function
    | Verify.Proved n -> [ ("verdict", Jsonx.Str "proved"); ("cases", Jsonx.Int n) ]
    | Verify.Refuted r as v ->
        [
          ("verdict", Jsonx.Str "refuted");
          ("case", Jsonx.Str r.Verify.rf_case);
          ( "setup",
            Jsonx.List
              (List.map
                 (fun (m, args) -> Jsonx.List [ Jsonx.Str m; jargs args ])
                 r.Verify.rf_setup) );
          ("args1", jargs r.Verify.rf_args1);
          ("args2", jargs r.Verify.rf_args2);
          ("trace", Jsonx.Str (Fmt.str "%a" Verify.pp_verdict v));
        ]
    | Verify.Unknown reason ->
        [ ("verdict", Jsonx.Str "unknown"); ("reason", Jsonx.Str reason) ]
  in
  let run spec_path adt json out =
    let reference =
      match (spec_path, adt) with
      | Some p, None -> load p
      | None, Some a -> (
          match builtin a with
          | Some s -> s
          | None ->
              Fmt.epr
                "synth: no built-in ADT %s (try set, accumulator, kvmap, orset, \
                 triset)@."
                a;
              exit 2)
      | _ ->
          Fmt.epr "synth: give exactly one of SPEC or --adt NAME@.";
          exit 2
    in
    match Domain.find (Spec.adt reference) with
    | None ->
        Fmt.epr "synth: no reference domain registered for ADT %s@."
          (Spec.adt reference);
        exit 1
    | Some dom ->
        let r = Synth.synthesize dom reference in
        let ver = Verify.verify_spec r.Synth.sy_spec in
        let rels = Equiv.compare_specs dom ~hand:reference ~synth:r.Synth.sy_spec in
        let verdict_of pair =
          List.find_opt (fun (p : Verify.pair_verdict) -> p.Verify.vf_pair = pair)
            ver.Verify.vf_pairs
        in
        let relation_of pair =
          List.find_opt (fun (e : Equiv.pair_relation) -> e.Equiv.eq_pair = pair)
            rels
        in
        let converged =
          List.for_all (fun (p : Synth.pair_result) -> p.Synth.sy_converged)
            r.Synth.sy_results
        in
        let refuted = Verify.any_refuted ver in
        let acceptable =
          List.for_all (fun (e : Equiv.pair_relation) ->
              Equiv.acceptable e.Equiv.eq_relation)
            rels
        in
        let ok = converged && (not refuted) && acceptable in
        (* the verdict-stamped spec: deterministic # header + canonical
           re-print, the exact bytes CI diffs against the golden files *)
        let stamped =
          let buf = Buffer.create 1024 in
          Buffer.add_string buf
            (Fmt.str
               "# synthesized by commlat synth: CEGIS over the bounded reference\n\
                # semantics of domain `%s`, conditions verified unboundedly by\n\
                # product-program reachability, diffed against the reference\n\
                # specification modulo (observational) lattice equivalence.\n"
               dom.Domain.dom_name);
          List.iter
            (fun (p : Synth.pair_result) ->
              let m1, m2 = p.Synth.sy_pair in
              Buffer.add_string buf
                (Fmt.str
                   "#   %s;%s: iterations=%d samples=%d scenarios=%d residual=%d verify=%s vs-reference=%s\n"
                   m1 m2 p.Synth.sy_iterations p.Synth.sy_samples
                   p.Synth.sy_scenarios p.Synth.sy_residual_incomplete
                   (match verdict_of (m1, m2) with
                   | Some v -> (
                       match v.Verify.vf_verdict with
                       | Verify.Proved n -> Fmt.str "proved/%d" n
                       | Verify.Refuted _ -> "REFUTED"
                       | Verify.Unknown _ -> "unknown")
                   | None -> "-")
                   (match relation_of (m1, m2) with
                   | Some e -> Equiv.relation_name e.Equiv.eq_relation
                   | None -> "-")))
            r.Synth.sy_results;
          Buffer.add_string buf (Fmt.str "%a" Spec_lang.print_spec r.Synth.sy_spec);
          Buffer.contents buf
        in
        (match out with
        | None -> print_string stamped
        | Some file -> write_out file stamped);
        (match json with
        | None -> ()
        | Some file ->
            let cegis (p : Synth.pair_result) =
              Jsonx.Obj
                [
                  ("pair", jpair p.Synth.sy_pair);
                  ("condition", jformula p.Synth.sy_cond);
                  ("iterations", Jsonx.Int p.Synth.sy_iterations);
                  ("samples", Jsonx.Int p.Synth.sy_samples);
                  ("scenarios", Jsonx.Int p.Synth.sy_scenarios);
                  ("residual_incomplete", Jsonx.Int p.Synth.sy_residual_incomplete);
                  ("converged", Jsonx.Bool p.Synth.sy_converged);
                ]
            in
            let verified (p : Verify.pair_verdict) =
              Jsonx.Obj
                ([
                   ("pair", jpair p.Verify.vf_pair);
                   ("condition", jformula p.Verify.vf_cond);
                 ]
                @ verdict_fields p.Verify.vf_verdict)
            in
            let diff (e : Equiv.pair_relation) =
              Jsonx.Obj
                [
                  ("pair", jpair e.Equiv.eq_pair);
                  ("relation", Jsonx.Str (Equiv.relation_name e.Equiv.eq_relation));
                  ("syntactic_equal", Jsonx.Bool e.Equiv.eq_syntactic_equal);
                  ("envs", Jsonx.Int e.Equiv.eq_envs);
                  ("reference", jformula e.Equiv.eq_hand);
                  ("synthesized", jformula e.Equiv.eq_synth);
                ]
            in
            write_out file
              (Jsonx.to_string
                 (Jsonx.Obj
                    [
                      ("schema", Jsonx.Str "commlat-synth/1");
                      ("adt", Jsonx.Str (Spec.adt reference));
                      ("domain", Jsonx.Str dom.Domain.dom_name);
                      ("converged", Jsonx.Bool converged);
                      ("refuted", Jsonx.Bool refuted);
                      ("acceptable", Jsonx.Bool acceptable);
                      ("ok", Jsonx.Bool ok);
                      ("cegis", Jsonx.List (List.map cegis r.Synth.sy_results));
                      ( "verify",
                        Jsonx.Obj
                          [
                            ( "family",
                              match ver.Verify.vf_family with
                              | Some f -> Jsonx.Str f
                              | None -> Jsonx.Null );
                            ("frame", Jsonx.Str ver.Verify.vf_frame);
                            ("pairs", Jsonx.List (List.map verified ver.Verify.vf_pairs));
                          ] );
                      ("diff", Jsonx.List (List.map diff rels));
                    ])));
        if ok then exit 0 else exit 1
  in
  let spec_path =
    Arg.(
      value & pos 0 (some file) None
      & info [] ~docv:"SPEC"
          ~doc:
            "Reference specification file (its method signatures and value \
             functions seed the synthesis; its conditions are only used for \
             the final lattice diff).")
  in
  let adt =
    Arg.(
      value
      & opt (some string) None
      & info [ "adt" ] ~docv:"NAME"
          ~doc:
            "Use a built-in reference instead of a SPEC file: $(b,set), \
             $(b,accumulator), $(b,kvmap), or $(b,orset).")
  in
  let out =
    Arg.(
      value
      & opt (some string) None
      & info [ "out"; "o" ] ~docv:"FILE"
          ~doc:"Write the verdict-stamped specification to $(docv) instead of stdout.")
  in
  Cmd.v
    (Cmd.info "synth" ~exits
       ~doc:
         "Synthesize a commutativity specification from the registered \
          reference ADT semantics by CEGIS (propose a DNF separator over \
          the spec-logic atom grammar, refute against the bounded scenario \
          oracle, refine), then verify every synthesized condition \
          unboundedly by product-program reachability and diff it against \
          the reference specification modulo lattice equivalence. The \
          emitted spec round-trips through the spec language and carries a \
          verdict-stamped header. Exits 0 only if synthesis converged, no \
          condition was refuted, and every condition is lattice-equivalent \
          to or weaker (more precise) than the reference; 1 otherwise; 2 \
          on unparsable input.")
    Term.(const run $ spec_path $ adt $ json_file_arg $ out)

(* ---- order ---- *)

let order_cmd =
  let run p1 p2 =
    let s1 = load p1 and s2 = load p2 in
    let le12 = Lattice.spec_leq s1 s2 and le21 = Lattice.spec_leq s2 s1 in
    (match (le12, le21) with
    | true, true -> Fmt.pr "%s and %s are equivalent@." (Spec.adt s1) (Spec.adt s2)
    | true, false ->
        Fmt.pr "%s < %s : the first is a strengthening (fewer commutes, \
                cheaper schemes)@."
          (Spec.adt s1) (Spec.adt s2)
    | false, true ->
        Fmt.pr "%s < %s : the second is a strengthening@." (Spec.adt s2) (Spec.adt s1)
    | false, false ->
        Fmt.pr "%s and %s are incomparable (syntactic check)@." (Spec.adt s1)
          (Spec.adt s2));
    exit (if le12 || le21 then 0 else 1)
  in
  Cmd.v
    (Cmd.info "order" ~exits ~doc:"Compare two specifications in the commutativity lattice.")
    Term.(const run $ spec_file_arg ~pos:0 () $ spec_file_arg ~pos:1 ())

(* ---- stats ---- *)

let stats_cmd =
  let run path validate =
    let src = read_file path in
    match Jsonx.parse src with
    | Error msg ->
        Fmt.epr "%s: not JSON: %s@." path msg;
        exit 2
    | Ok json ->
        (* Pull out every observability snapshot anywhere in the document,
           labelling each with the identifying fields ("variant", "scheme",
           "input", "figure", "threads") of the nearest enclosing row. *)
        let row_label kvs =
          let s k =
            match List.assoc_opt k kvs with
            | Some (Jsonx.Str v) -> Some (Fmt.str "%s=%s" k v)
            | Some (Jsonx.Int v) -> Some (Fmt.str "%s=%d" k v)
            | _ -> None
          in
          match
            List.filter_map s [ "figure"; "variant"; "scheme"; "input"; "threads" ]
          with
          | [] -> None
          | parts -> Some (String.concat " " parts)
        in
        let rec collect label acc j =
          match (if Obs.is_snapshot_json j then Obs.snapshot_of_json j else Error "") with
          | Ok s -> (label, s) :: acc
          | Error _ -> (
              match j with
              | Jsonx.List l -> List.fold_left (collect label) acc l
              | Jsonx.Obj kvs ->
                  let label =
                    match row_label kvs with Some l -> Some l | None -> label
                  in
                  List.fold_left (fun acc (_, v) -> collect label acc v) acc kvs
              | _ -> acc)
        in
        let snaps = List.rev (collect None [] json) in
        if validate then (
          (* CI gate: the file must be a commlat-bench/1 document whose
             every row carries a well-formed snapshot under "obs". *)
          let fail fmt = Fmt.kstr (fun m -> Fmt.epr "%s: invalid: %s@." path m; exit 1) fmt in
          let mem k kvs = List.assoc_opt k kvs in
          match json with
          | Jsonx.Obj kvs -> (
              (match mem "schema" kvs with
              | Some (Jsonx.Str "commlat-bench/1") -> ()
              | _ -> fail "missing or unexpected \"schema\" (want commlat-bench/1)");
              (match mem "experiment" kvs with
              | Some (Jsonx.Str _) -> ()
              | _ -> fail "missing \"experiment\"");
              (match mem "seed" kvs with
              | Some (Jsonx.Int _) -> ()
              | _ ->
                  fail
                    "missing \"seed\" (bench/main.exe stamps its --seed into \
                     every document)");
              match mem "rows" kvs with
              | Some (Jsonx.List rows) ->
                  if rows = [] then fail "empty \"rows\"";
                  List.iteri
                    (fun i row ->
                      match row with
                      | Jsonx.Obj r -> (
                          match mem "obs" r with
                          | Some o -> (
                              match Obs.snapshot_of_json o with
                              | Ok _ -> ()
                              | Error e -> fail "row %d: bad \"obs\": %s" i e)
                          | None -> fail "row %d: no \"obs\" snapshot" i)
                      | _ -> fail "row %d is not an object" i)
                    rows;
                  Fmt.pr "%s: valid commlat-bench/1 document, %d rows, %d snapshots@."
                    path (List.length rows) (List.length snaps)
              | _ -> fail "missing \"rows\" list")
          | _ -> fail "top level is not an object")
        else (
          if snaps = [] then (
            Fmt.epr "%s: no observability snapshots found@." path;
            exit 1);
          List.iter
            (fun (label, s) ->
              (match label with Some l -> Fmt.pr "--- %s ---@." l | None -> ());
              Fmt.pr "%a@." Obs.pp_snapshot s)
            snaps)
  in
  let file =
    Arg.(required & pos 0 (some file) None & info [] ~docv:"JSON" ~doc:"Snapshot/benchmark JSON file.")
  in
  let validate =
    Arg.(
      value & flag
      & info [ "validate" ]
          ~doc:
            "Validate the file as a $(b,commlat-bench/1) document (as emitted \
             by $(b,bench/main.exe --json)) instead of rendering it.")
  in
  Cmd.v
    (Cmd.info "stats" ~exits
       ~doc:
         "Render the observability snapshots stored in a benchmark JSON file \
          ($(b,bench/main.exe <exp> --json FILE)), or validate the file's \
          schema for CI. Exits 1 when no snapshots are found or validation \
          fails, 2 on unreadable/unparsable input.")
    Term.(const run $ file $ validate)

(* ---- explore ---- *)

module Sched = Commlat_sched

let explore_cmd =
  let run workload detector txns steps max_schedules no_por json_out replay_file
      seed domains =
    if domains < 1 then begin
      Fmt.epr "explore: --domains must be >= 1@.";
      exit 2
    end;
    let scheme =
      match detector with Some s -> s | None -> Protect.Forward_gk
    in
    match Sched.Workload.by_name ~txns ~seed workload scheme with
    | Error msg ->
        Fmt.epr "explore: %s@." msg;
        exit 2
    | Ok w -> (
        match replay_file with
        | Some file ->
            (* replay a pinned/shrunk schedule instead of exploring *)
            let sched =
              read_file file |> String.split_on_char '\n'
              |> List.filter_map (fun l ->
                     match String.trim l with
                     | "" -> None
                     | l when l.[0] = '#' -> None
                     | l -> (
                         match int_of_string_opt l with
                         | Some i -> Some i
                         | None ->
                             Fmt.epr "%s: not a fiber id: %S@." file l;
                             exit 2))
            in
            let r =
              Sched.Explore.replay ~max_steps:steps ~schedule:sched
                w.Sched.Workload.make
            in
            Fmt.pr "replay of %s (%d choices): %a@." file (List.length sched)
              Sched.Scheduler.pp_status r.Sched.Scheduler.status;
            Fmt.pr "%s" (Sched.Trace.render r.Sched.Scheduler.steps);
            (match r.Sched.Scheduler.oracle_failure with
            | Some m -> Fmt.pr "oracle: %s@." m
            | None -> ());
            let failed =
              (match r.Sched.Scheduler.status with
              | Sched.Scheduler.Deadlock _ | Sched.Scheduler.Crashed _ -> true
              | _ -> false)
              || r.Sched.Scheduler.oracle_failure <> None
            in
            exit (if failed then 1 else 0)
        | None ->
            let config =
              {
                Sched.Explore.por = not no_por;
                max_schedules;
                max_steps = steps;
                domains;
              }
            in
            let obs = Obs.create ~enabled:true "explore" in
            let report =
              Sched.Explore.explore ~config ~obs w.Sched.Workload.make
            in
            let c = report.Sched.Explore.c in
            Fmt.pr
              "workload %s, detector %s, %d transactions, por=%b, domains=%d@.\
               schedules: %d run, %d pruned (commutativity), %d shrink runs@."
              w.Sched.Workload.w_name w.Sched.Workload.w_detector
              w.Sched.Workload.w_txns (not no_por) domains c.Sched.Explore.runs
              c.Sched.Explore.pruned c.Sched.Explore.shrink_runs;
            Fmt.pr "steps: %d total, %d truncated runs; search %s@."
              c.Sched.Explore.steps c.Sched.Explore.truncated
              (if report.Sched.Explore.exhausted then "exhausted"
               else if c.Sched.Explore.truncated > 0 then "cut short by --steps"
               else "cut short by --max-schedules");
            (match report.Sched.Explore.verdict with
            | None -> Fmt.pr "verdict: ok (no counterexample)@."
            | Some f ->
                Fmt.pr
                  "verdict: counterexample (%s): %s@.\
                   schedule (shrunk %d -> %d choices): %s@.%s"
                  f.Sched.Explore.f_kind f.Sched.Explore.f_detail
                  f.Sched.Explore.f_shrunk_from
                  (List.length f.Sched.Explore.f_schedule)
                  (String.concat ","
                     (List.map string_of_int f.Sched.Explore.f_schedule))
                  f.Sched.Explore.f_trace);
            (match json_out with
            | Some path ->
                let doc =
                  Sched.Explore.json_of_report
                    ~workload:w.Sched.Workload.w_name
                    ~detector:w.Sched.Workload.w_detector
                    ~txns:w.Sched.Workload.w_txns ~config
                    ~obs_snapshot:(Obs.snapshot obs) report
                in
                write_out path (Jsonx.to_string doc ^ "\n")
            | None -> ());
            exit (if report.Sched.Explore.verdict = None then 0 else 1))
  in
  let workload =
    Arg.(
      required
      & pos 0 (some string) None
      & info [] ~docv:"WORKLOAD"
          ~doc:
            "Workload to explore: $(b,set), $(b,kvmap), $(b,union-find), \
             $(b,delaunay) (mesh refinement with cavity claiming), \
             $(b,mixed) (two kvmaps + a set behind one composed detector), \
             or the seeded lock-order-inversion pair $(b,abba-buggy) / \
             $(b,abba-fixed).")
  in
  let txns =
    Arg.(
      value & opt int 3
      & info [ "txns" ] ~docv:"N" ~doc:"Concurrent transactions (fibers).")
  in
  let steps =
    Arg.(
      value & opt int 2000
      & info [ "steps" ] ~docv:"N"
          ~doc:
            "Per-run step budget (catches retry livelocks). A run that hits \
             it is truncated, and the search is then not reported as \
             exhausted.")
  in
  let max_schedules =
    Arg.(
      value & opt int 2000
      & info [ "max-schedules" ] ~docv:"N"
          ~doc:"Total schedule budget for the search.")
  in
  let no_por =
    Arg.(
      value & flag
      & info [ "no-por" ]
          ~doc:
            "Disable commutativity (partial-order-reduction) pruning and \
             explore every branch — the ground truth the pruned search is \
             validated against.")
  in
  let replay =
    Arg.(
      value
      & opt (some file) None
      & info [ "replay" ] ~docv:"FILE"
          ~doc:
            "Replay one pinned schedule (one fiber id per line, $(b,#) \
             comments) instead of exploring; prints the trace and exits 1 \
             if the run deadlocks, crashes or fails the oracle.")
  in
  let seed =
    Arg.(
      value & opt int 42
      & info [ "seed" ] ~docv:"N"
          ~doc:"Seed for the workload's deterministic operation plan.")
  in
  let domains =
    Arg.(
      value & opt int 1
      & info [ "domains" ] ~docv:"N"
          ~doc:
            "Worker domains for the search. N domains work-steal the \
             schedule prefixes of one search tree: an exhausted search \
             runs the same schedules with the same counters and verdict at \
             any N, and only the wall-clock time changes.")
  in
  Cmd.v
    (Cmd.info "explore" ~exits
       ~doc:
         "Systematically explore transaction interleavings of a workload \
          under a detector scheme, using the commutativity lattice to prune \
          equivalent schedules (DPOR-style). Counterexamples (deadlock, \
          crash, serializability-oracle failure) are shrunk to a minimal \
          replayable schedule. Exits 0 when no counterexample is found, 1 \
          on a counterexample, 2 on an unusable workload/detector \
          combination.")
    Term.(
      const run $ workload $ detector_arg $ txns $ steps $ max_schedules
      $ no_por $ json_file_arg $ replay $ seed $ domains)

(* ---- compile ---- *)

let compile_cmd =
  let run path json =
    let spec = load path in
    let cspec = Compile.of_spec spec in
    let conds = Compile.conditions cspec in
    let count k =
      List.length (List.filter (fun (_, ch) -> Compile.kind ch = k) conds)
    in
    Fmt.pr "%s: %d compiled conditions@." (Spec.adt spec) (List.length conds);
    List.iter
      (fun ((m1, m2), ch) -> Fmt.pr "  %-16s %-16s %s@." m1 m2 (Compile.kind ch))
      conds;
    let vnames = Compile.vfun_names cspec in
    if Array.length vnames > 0 then
      Fmt.pr "vfun table: %a@."
        Fmt.(array ~sep:(any ", ") string)
        vnames;
    Fmt.pr "static-true %d, static-false %d, fast %d, interp %d@."
      (count "static-true") (count "static-false") (count "fast")
      (count "interp");
    match json with
    | None -> ()
    | Some file ->
        let module J = Commlat_obs.Jsonx in
        let doc =
          J.Obj
            [
              ("schema", J.Str "commlat-compile/1");
              ("adt", J.Str (Spec.adt spec));
              ( "vfuns",
                J.List (Array.to_list vnames |> List.map (fun n -> J.Str n)) );
              ( "pairs",
                J.List
                  (List.map
                     (fun ((m1, m2), ch) ->
                       J.Obj
                         [
                           ("first", J.Str m1);
                           ("second", J.Str m2);
                           ("kind", J.Str (Compile.kind ch));
                         ])
                     conds) );
            ]
        in
        write_out file (J.to_string doc)
  in
  Cmd.v
    (Cmd.info "compile" ~exits
       ~doc:
         "Show how each condition of a specification compiles (static / fast \
          / interpreted) and which vfuns get table slots.")
    Term.(const run $ spec_file_arg () $ json_file_arg)

(* ---- serve / load ---- *)

(* Shared address arguments: --socket PATH (Unix domain) wins over
   --host/--port (TCP). *)
let addr_args () =
  let socket =
    Arg.(
      value
      & opt (some string) None
      & info [ "socket" ] ~docv:"PATH"
          ~doc:"Unix-domain socket path (takes precedence over --port).")
  in
  let host =
    Arg.(
      value & opt string "127.0.0.1"
      & info [ "host" ] ~docv:"HOST" ~doc:"TCP host (with $(b,--port)).")
  in
  let port =
    Arg.(
      value
      & opt (some int) None
      & info [ "port" ] ~docv:"PORT" ~doc:"TCP port to serve/target.")
  in
  let combine socket host port =
    match (socket, port) with
    | Some p, _ -> Some (Commlat_server.Server.Unix_sock p)
    | None, Some pt -> Some (Commlat_server.Server.Tcp (host, pt))
    | None, None -> None
  in
  Term.(const combine $ socket $ host $ port)

(* Counts and rates a server or a load run cannot work with are usage
   errors (exit 124), caught before any server is spawned. *)
let positive of_string ~zero pp what =
  let parse s =
    match of_string s with
    | Some v when v > zero -> Ok v
    | _ -> Error (`Msg (Fmt.str "%S is not a positive %s" s what))
  in
  Arg.conv (parse, pp)

let positive_int = positive int_of_string_opt ~zero:0 Fmt.int "integer"
let positive_float = positive float_of_string_opt ~zero:0.0 Fmt.float "number"

let domains_list_arg =
  let dlist_conv =
    let parse s =
      try
        let l = String.split_on_char ',' s |> List.map int_of_string in
        if l = [] || List.exists (fun d -> d < 1) l then failwith "bad"
        else Ok l
      with _ -> Error (`Msg (Fmt.str "bad domain list %S (want e.g. 2,4)" s))
    in
    Arg.conv (parse, fun ppf l -> Fmt.(list ~sep:comma int) ppf l)
  in
  Arg.(
    value & opt dlist_conv [ 2 ]
    & info [ "domains" ] ~docv:"N[,N...]"
        ~doc:
          "Worker domain counts: a single value for $(b,serve) and \
           external-server $(b,load), a comma-separated sweep for \
           $(b,load --self-serve).")

(* [--level NAME]: NAME must be a level some server chain has. *)
let level_arg ~doc =
  let names = Commlat_server.Engine.level_names in
  Arg.(
    value
    & opt (some (enum (List.map (fun n -> (n, n)) names))) None
    & info [ "level" ] ~docv:"NAME"
        ~doc:(Fmt.str "%s $(docv) is %s." doc (doc_alts names)))

let serve_cmd =
  let open Commlat_server in
  let run addr domains quiet adaptive level =
    let domains = match domains with [ d ] -> d | _ ->
      Fmt.epr "serve: --domains takes a single value@.";
      exit 2
    in
    if adaptive && level <> None then (
      Fmt.epr "serve: --adaptive and --level are mutually exclusive@.";
      exit 2);
    let addr = Option.value addr ~default:(Server.Unix_sock "/tmp/commlat.sock") in
    ignore (Server.run { Server.addr; domains; verbose = not quiet; adaptive; level })
  in
  let quiet = Arg.(value & flag & info [ "quiet" ] ~doc:"No startup banner.") in
  let adaptive =
    Arg.(
      value & flag
      & info [ "adaptive" ]
          ~doc:
            "Run the online lattice controller: watch per-epoch conflict and \
             check-cost signals and hot-swap each ADT's detector up or down \
             its commutativity chain at epoch boundaries. Mutually exclusive \
             with $(b,--level).")
  in
  let level =
    level_arg
      ~doc:
        "Pin every chain that has a level NAME to it at startup. Mutually \
         exclusive with $(b,--adaptive)."
  in
  Cmd.v
    (Cmd.info "serve" ~exits
       ~doc:
         "Serve the protected ADTs (kvmap, set, orset, union-find, \
          flow-graph) over the length-prefixed wire protocol until a Quit \
          request arrives. Requests route to worker domains by footprint \
          shard key; each worker group-commits its epoch's transactions. \
          With $(b,--adaptive), an online controller renavigates each ADT's \
          commutativity lattice under load.")
    Term.(
      const run $ addr_args () $ domains_list_arg $ quiet $ adaptive $ level)

let load_cmd =
  let open Commlat_server in
  let run addr self_serve phases adaptive server_level domains mixes rate
      duration conns keys theta burst seed json_file =
    let mixes =
      List.map
        (fun m ->
          match Load.mix_of_string m with
          | Ok m -> m
          | Error e ->
              Fmt.epr "load: %s@." e;
              exit 2)
        mixes
    in
    if (adaptive || server_level <> None) && not self_serve then (
      Fmt.epr "load: --adaptive/--level need --self-serve@.";
      exit 2);
    if adaptive && server_level <> None then (
      Fmt.epr "load: --adaptive and --level are mutually exclusive@.";
      exit 2);
    if not self_serve then (
      if addr = None then (
        Fmt.epr
          "load: need --socket or --port (or --self-serve to spawn the \
           server)@.";
        exit 2);
      if List.length domains <> 1 then (
        Fmt.epr "load: --domains takes a single value without --self-serve@.";
        exit 2));
    let extra_args =
      (if adaptive then [ "--adaptive" ] else [])
      @ match server_level with Some l -> [ "--level"; l ] | None -> []
    in
    let failed = ref false in
    (* run [f] against a fresh self-served server (its exit status
       checked), or against the --socket/--port server *)
    let on_server ~domains f =
      match addr with
      | Some addr when not self_serve -> (
          try f addr
          with Unix.Unix_error (e, _, _) ->
            Fmt.epr "load: cannot reach the server at %a: %s@." Server.pp_addr
              addr (Unix.error_message e);
            exit 1)
      | _ ->
          let r, status =
            Load.with_server ~exe:Sys.executable_name ~domains ~extra_args f
          in
          if status <> Unix.WEXITED 0 then (
            Fmt.epr "load: server exited abnormally@.";
            failed := true);
          r
    in
    let rows = ref [] in
    let record ?phase ~domains (r : Load.result) =
      Fmt.pr
        "%-14s %d domains: %6d/%d ok (%d errors), %8.0f req/s, p50 %.3fms \
         p99 %.3fms p999 %.3fms@."
        (match phase with
        | Some p -> "phase:" ^ p.Load.p_name
        | None -> Load.mix_name r.Load.cfg.Load.mix)
        domains r.Load.completed r.Load.sent r.Load.errors
        (float_of_int r.Load.completed /. r.Load.elapsed)
        (float_of_int (Commlat_obs.Histo.quantile r.Load.hist 0.5) *. 1e-6)
        (float_of_int (Commlat_obs.Histo.quantile r.Load.hist 0.99) *. 1e-6)
        (float_of_int (Commlat_obs.Histo.quantile r.Load.hist 0.999) *. 1e-6);
      if r.Load.completed = 0 then failed := true;
      rows := Load.row_json ?phase ~domains r :: !rows
    in
    let base =
      { Load.default_config with conns; rate; duration; keys; theta; seed; burst }
    in
    List.iter
      (fun domains ->
        if phases then
          on_server ~domains (fun addr ->
              Load.run_phases { base with Load.addr }
                (Load.default_phases ~duration ()))
          |> List.iter (fun (p, r) -> record ~phase:p ~domains r)
        else
          List.iter
            (fun mix ->
              record ~domains
                (on_server ~domains (fun addr ->
                     Load.run { base with Load.addr; mix })))
            mixes)
      domains;
    (match json_file with
    | None -> ()
    | Some file ->
        let doc =
          Obs.bench_doc
            ~experiment:(if phases then "load-phases" else "serve")
            ~seed ~scale:"default" (List.rev !rows)
        in
        write_out file (Jsonx.to_string doc ^ "\n"));
    if !failed then exit 1
  in
  let self_serve =
    Arg.(
      value & flag
      & info [ "self-serve" ]
          ~doc:
            "Spawn a $(b,commlat serve) child per (domain count, mix) cell \
             on a private Unix socket, and fail if any child exits nonzero.")
  in
  let phases =
    Arg.(
      value & flag
      & info [ "phases" ]
          ~doc:
            "Instead of $(b,--mixes), drive the phase-shifting sweep \
             (commuting puts, then hot-key contention, then read-heavy) \
             back to back against one server — the workload the adaptive \
             controller is built for. $(b,--duration) is per phase.")
  in
  let adaptive =
    Arg.(
      value & flag
      & info [ "adaptive" ]
          ~doc:
            "With $(b,--self-serve): start the server with its online \
             lattice controller enabled.")
  in
  let server_level =
    level_arg
      ~doc:
        "With $(b,--self-serve): pin every server chain that has a lattice \
         level NAME to it."
  in
  let mixes =
    Arg.(
      value
      & opt (list string) [ "read-heavy"; "write-heavy" ]
      & info [ "mixes" ] ~docv:"MIX,..."
          ~doc:
            "Workload mixes: read-heavy, write-heavy, commuting, \
             non-commuting, put.")
  in
  let rate =
    Arg.(
      value & opt positive_float 2000.0
      & info [ "rate" ] ~docv:"RPS"
          ~doc:"Aggregate open-loop target rate (requests/second).")
  in
  let duration =
    Arg.(
      value & opt float 2.0
      & info [ "duration" ] ~docv:"SECONDS" ~doc:"Scheduled load per cell.")
  in
  let conns =
    Arg.(
      value & opt positive_int 4
      & info [ "conns" ] ~docv:"N" ~doc:"Client connections.")
  in
  let keys =
    Arg.(
      value & opt int 100_000
      & info [ "keys" ] ~docv:"N" ~doc:"Key-space size for the Zipf sampler.")
  in
  let theta =
    Arg.(
      value & opt float 0.99
      & info [ "theta" ] ~docv:"T" ~doc:"Zipf exponent (0 = uniform).")
  in
  let burst =
    Arg.(
      value & opt positive_int 1
      & info [ "burst" ] ~docv:"N"
          ~doc:
            "Schedule arrivals in groups of $(docv) at the same instant \
             (aggregate rate unchanged). Bursts fill server epochs, which \
             is what makes transactions overlap; with $(b,--phases) each \
             phase bursts at 32 regardless.")
  in
  let seed =
    Arg.(value & opt int 42 & info [ "seed" ] ~docv:"N" ~doc:"RNG seed.")
  in
  Cmd.v
    (Cmd.info "load" ~exits
       ~doc:
         "Open-loop load generator for $(b,commlat serve): Zipf-skewed \
          mixes at a target rate with coordinated-omission-safe latency \
          recording (p50/p99/p999), emitting commlat-bench/1 JSON that \
          $(b,commlat stats --validate) accepts.")
    Term.(
      const run $ addr_args () $ self_serve $ phases $ adaptive $ server_level
      $ domains_list_arg $ mixes $ rate $ duration $ conns $ keys $ theta
      $ burst $ seed $ json_file_arg)

(* ---- print ---- *)

let print_cmd =
  let run path =
    let spec = load path in
    Fmt.pr "%a" Spec_lang.print_spec spec
  in
  Cmd.v
    (Cmd.info "print" ~exits ~doc:"Re-print a specification in canonical form.")
    Term.(const run $ spec_file_arg ())

let () =
  let info =
    Cmd.info "commlat" ~version:"1.0.0"
      ~doc:"Work with commutativity specifications (PLDI 2011 lattice framework)."
  in
  exit
    (Cmd.eval
       (Cmd.group info
          [
            classify_cmd;
            matrix_cmd;
            check_cmd;
            lint_cmd;
            synth_cmd;
            order_cmd;
            compile_cmd;
            print_cmd;
            stats_cmd;
            explore_cmd;
            serve_cmd;
            load_cmd;
          ]))
