(* Differential tests of the spec compiler (Compile): compiled checks
   must be verdict- and exception-identical to the oracle, Formula.eval,
   on every input — randomized invocations over every shipped
   and file-parsed spec, reference-domain scenarios with real executed
   return values, the total division-by-zero semantics, and the
   out-of-range argument error path.  Plus Bitmat unit tests and the
   gatekeeper batch log scan. *)

open Commlat_core
open Commlat_adts
open Commlat_analysis

let check_bool = Alcotest.(check bool)
let check_int = Alcotest.(check int)

(* ------------------------------------------------------------- *)
(* Bitmat                                                         *)
(* ------------------------------------------------------------- *)

let test_bitmat_basics () =
  let m = Compile.Bitmat.create 5 in
  check_int "dim" 5 (Compile.Bitmat.dim m);
  for i = 0 to 4 do
    for j = 0 to 4 do
      check_bool "fresh matrix is all-incompatible" false (Compile.Bitmat.get m i j)
    done
  done;
  Compile.Bitmat.set m 1 3 true;
  Compile.Bitmat.set m 4 0 true;
  check_bool "set bit reads back" true (Compile.Bitmat.get m 1 3);
  check_bool "matrix is directed: mirror bit untouched" false
    (Compile.Bitmat.get m 3 1);
  check_bool "other bit reads back" true (Compile.Bitmat.get m 4 0);
  Compile.Bitmat.set m 1 3 false;
  check_bool "cleared bit reads back" false (Compile.Bitmat.get m 1 3);
  check_bool "clearing one bit keeps others" true (Compile.Bitmat.get m 4 0)

let test_bitmat_of_matrix () =
  (* a random boolean matrix round-trips bit for bit, including dims that
     straddle byte boundaries *)
  let rng = Random.State.make [| 0xb17; 0x9a7 |] in
  List.iter
    (fun n ->
      let a =
        Array.init n (fun _ -> Array.init n (fun _ -> Random.State.bool rng))
      in
      let m = Compile.Bitmat.of_matrix a in
      check_int "dim" n (Compile.Bitmat.dim m);
      for i = 0 to n - 1 do
        for j = 0 to n - 1 do
          check_bool
            (Fmt.str "bit (%d,%d) of %dx%d" i j n n)
            a.(i).(j)
            (Compile.Bitmat.get m i j)
        done
      done)
    [ 1; 2; 3; 7; 8; 9; 16; 33 ];
  check_bool "ragged matrix rejected" true
    (match Compile.Bitmat.of_matrix [| [| true; false |]; [| true |] |] with
    | _ -> false
    | exception Invalid_argument _ -> true)

(* ------------------------------------------------------------- *)
(* Differential harness                                           *)
(* ------------------------------------------------------------- *)

(* Verdict-or-exception-class of one evaluation.  The compiler promises
   the same class (not necessarily the same message) as the
   interpreter. *)
type outcome = V of bool | Type_err | Unsup | Other of string

let outcome f =
  match f () with
  | b -> V b
  | exception Value.Type_error _ -> Type_err
  | exception Formula.Unsupported _ -> Unsup
  | exception e -> Other (Printexc.to_string e)

let pp_outcome = function
  | V b -> string_of_bool b
  | Type_err -> "Type_error"
  | Unsup -> "Unsupported"
  | Other s -> s

let sfun_pure name _ _ _ = raise (Formula.Unsupported name)

(* The reference: the plain interpreter over an Invocation.env with no
   state oracle — exactly what Compile.check_pure promises to match. *)
let interp_outcome spec f i1 i2 =
  outcome (fun () ->
      Formula.eval (Invocation.env ~sfun:sfun_pure ~vfun:(Spec.vfun spec) i1 i2) f)

let val_pool =
  [|
    Value.Int (-1);
    Value.Int 0;
    Value.Int 1;
    Value.Int 2;
    Value.Int 7;
    Value.Bool true;
    Value.Bool false;
    Value.Opt None;
    Value.Opt (Some (Value.Int 1));
    Value.Str "k";
  |]

let rand_val rng = val_pool.(Random.State.int rng (Array.length val_pool))

let rand_inv rng ~txn (m : Invocation.meth) =
  let inv =
    Invocation.make ~txn m
      (Array.init m.Invocation.arity (fun _ -> rand_val rng))
  in
  inv.Invocation.ret <- rand_val rng;
  inv

let fail_mismatch name m1n m2n want got i1 i2 =
  Alcotest.failf "%s %s;%s: interpreter %s, compiled %s on@.  %a@.  %a" name m1n
    m2n (pp_outcome want) (pp_outcome got) Invocation.pp i1 Invocation.pp i2

(* Every ordered pair of [spec], [rounds] random invocation pairs each:
   Compile.check_pure must agree with the interpreter in verdict or
   exception class. *)
let differential ?(rounds = 60) rng name (spec : Spec.t) =
  let cspec = Compile.of_spec spec in
  let checked = ref 0 in
  List.iter
    (fun ((m1n, m2n), f) ->
      let m1 = Spec.find_meth spec m1n and m2 = Spec.find_meth spec m2n in
      let check = Compile.condition cspec ~first:m1n ~second:m2n in
      for _ = 1 to rounds do
        let i1 = rand_inv rng ~txn:1 m1 and i2 = rand_inv rng ~txn:2 m2 in
        let want = interp_outcome spec f i1 i2 in
        let got = outcome (fun () -> Compile.check_pure cspec check i1 i2) in
        incr checked;
        if want <> got then fail_mismatch name m1n m2n want got i1 i2
      done)
    (Spec.pairs spec);
  check_bool (name ^ ": exercised at least one pair") true (!checked > 0)

let shipped : (string * (unit -> Spec.t)) list =
  [
    ("iset-precise", Iset.precise_spec);
    ("iset-simple", Iset.simple_spec);
    ("iset-exclusive", Iset.exclusive_spec);
    ("iset-part4", fun () -> Iset.partitioned_spec ~nparts:4 ());
    ("accumulator", Accumulator.spec);
    ("kvmap-precise", Kvmap.precise_spec);
    ("kvmap-simple", Kvmap.simple_spec);
    ("orset", Orset.spec);
    ("union-find", Union_find.spec);
    ("kdtree", Kdtree.spec);
    ("flow-graph-rw", Flow_graph.spec_rw);
    ("flow-graph-excl", Flow_graph.spec_exclusive);
    ("flow-graph-part4", fun () -> Flow_graph.spec_partitioned ~nparts:4 ());
  ]

let test_differential_shipped () =
  let rng = Random.State.make [| 0xc0; 0x4a; 1 |] in
  List.iter (fun (name, mk) -> differential rng name (mk ())) shipped

(* Every spec file the repo ships (hand-written and synthesized) parses
   and compiles to the interpreter's semantics.  File-parsed specs carry
   no vfun interpretations, so conditions with vfuns must raise
   Unsupported identically in both engines. *)

let specs_dir =
  let rec find dir n =
    if n = 0 then None
    else if Sys.file_exists (Filename.concat dir "examples/specs/set.spec") then
      Some dir
    else find (Filename.concat dir "..") (n - 1)
  in
  find "." 6

let read_file path =
  let ic = open_in_bin path in
  Fun.protect
    ~finally:(fun () -> close_in_noerr ic)
    (fun () -> really_input_string ic (in_channel_length ic))

let test_differential_parsed () =
  match specs_dir with
  | None -> Alcotest.skip ()
  | Some dir ->
      let ls sub =
        let d = Filename.concat dir sub in
        if Sys.file_exists d && Sys.is_directory d then
          Sys.readdir d |> Array.to_list
          |> List.filter (fun f -> Filename.check_suffix f ".spec")
          |> List.map (Filename.concat d)
        else []
      in
      let files =
        List.sort compare (ls "examples/specs" @ ls "examples/specs/synth")
      in
      check_bool "found shipped spec files" true (List.length files >= 10);
      let rng = Random.State.make [| 0x5eed; 2 |] in
      List.iter
        (fun path ->
          let spec = Spec_lang.parse (read_file path) in
          differential ~rounds:30 rng path spec)
        files

(* Reference-domain scenarios: arguments the bounded checkers use and
   return values produced by actually executing the methods (i1 first) on
   a reference instance — the verdicts a production gatekeeper would
   compute. *)
let test_differential_scenarios () =
  let checked = ref 0 in
  List.iter
    (fun (name, mk) ->
      let spec = mk () in
      match Domain.find (Spec.adt spec) with
      | None -> ()
      | Some dom ->
          let cspec = Compile.of_spec spec in
          List.iter
            (fun ((m1n, m2n), f) ->
              let m1 = Spec.find_meth spec m1n
              and m2 = Spec.find_meth spec m2n in
              let check = Compile.condition cspec ~first:m1n ~second:m2n in
              List.iter
                (fun (_state, setup) ->
                  List.iter
                    (fun args1 ->
                      List.iter
                        (fun args2 ->
                          let inst = dom.Domain.fresh () in
                          List.iter
                            (fun (m, args) ->
                              ignore (inst.Domain.apply m args))
                            setup;
                          let r1 = inst.Domain.apply m1n args1 in
                          let r2 = inst.Domain.apply m2n args2 in
                          let i1 =
                            Invocation.make ~txn:1 m1 (Array.of_list args1)
                          in
                          let i2 =
                            Invocation.make ~txn:2 m2 (Array.of_list args2)
                          in
                          i1.Invocation.ret <- r1;
                          i2.Invocation.ret <- r2;
                          let want = interp_outcome spec f i1 i2 in
                          let got =
                            outcome (fun () ->
                                Compile.check_pure cspec check i1 i2)
                          in
                          incr checked;
                          if want <> got then
                            fail_mismatch name m1n m2n want got i1 i2)
                        (dom.Domain.args_of m2n))
                    (dom.Domain.args_of m1n))
                dom.Domain.states)
            (Spec.pairs spec))
    shipped;
  check_bool "scenario differential is nonvacuous" true (!checked > 1000)

(* ------------------------------------------------------------- *)
(* Random state-free formulas                                     *)
(* ------------------------------------------------------------- *)

(* Structured random formulas over two 2-ary methods: arithmetic,
   all six comparison operators, boolean composition, and (via the value
   pool's bools/options/strings) the interpreter's type errors.  An
   occasional out-of-range argument index exercises the bounds-check
   error path. *)

let rand_spec () =
  Spec.create ~adt:"rand" [ Invocation.meth "m" 2; Invocation.meth "n" 2 ]

let rec gen_term rng depth =
  let open Formula in
  let leaf () =
    match Random.State.int rng 10 with
    | 0 -> Arg (M1, 0)
    | 1 -> Arg (M1, 1)
    | 2 -> Arg (M2, 0)
    | 3 -> Arg (M2, 1)
    | 4 -> Ret M1
    | 5 -> Ret M2
    | 6 -> Const (Value.Int (Random.State.int rng 5 - 2))
    | 7 -> Const (Value.Bool (Random.State.bool rng))
    | 8 -> Const (Value.Opt None)
    | _ -> Arg ((if Random.State.bool rng then M1 else M2), 2 + Random.State.int rng 2)
  in
  if depth = 0 || Random.State.int rng 3 > 0 then leaf ()
  else
    let op =
      match Random.State.int rng 4 with
      | 0 -> Add
      | 1 -> Sub
      | 2 -> Mul
      | _ -> Div
    in
    Arith (op, gen_term rng (depth - 1), gen_term rng (depth - 1))

let rec gen_formula rng depth =
  let open Formula in
  let cmp () =
    let op =
      match Random.State.int rng 6 with
      | 0 -> Eq
      | 1 -> Ne
      | 2 -> Lt
      | 3 -> Le
      | 4 -> Gt
      | _ -> Ge
    in
    Cmp (op, gen_term rng 2, gen_term rng 2)
  in
  if depth = 0 then cmp ()
  else
    match Random.State.int rng 6 with
    | 0 -> True
    | 1 -> False
    | 2 -> Not (gen_formula rng (depth - 1))
    | 3 -> And (gen_formula rng (depth - 1), gen_formula rng (depth - 1))
    | 4 -> Or (gen_formula rng (depth - 1), gen_formula rng (depth - 1))
    | _ -> cmp ()

(* [f] compiled as the (m, n) condition of a fresh [rand_spec], through
   the same Compile.of_spec every detector builds. *)
let compile_one f =
  let spec = rand_spec () in
  Spec.add_directed spec ~first:"m" ~second:"n" f;
  let cspec = Compile.of_spec spec in
  Compile.check_pure cspec (Compile.condition cspec ~first:"m" ~second:"n")

let test_differential_random_formulas () =
  let rng = Random.State.make [| 0xf0f; 3 |] in
  let spec = rand_spec () in
  let m = Spec.find_meth spec "m" and n = Spec.find_meth spec "n" in
  for _ = 1 to 500 do
    let f = gen_formula rng 3 in
    let check = compile_one f in
    for _ = 1 to 20 do
      let i1 = rand_inv rng ~txn:1 m and i2 = rand_inv rng ~txn:2 n in
      let want = interp_outcome spec f i1 i2 in
      let got = outcome (fun () -> check i1 i2) in
      if want <> got then
        Alcotest.failf "random formula %s: interpreter %s, compiled %s on@.  %a@.  %a"
          (Formula.to_string f) (pp_outcome want) (pp_outcome got)
          Invocation.pp i1 Invocation.pp i2
    done
  done

(* ------------------------------------------------------------- *)
(* Directed semantics tests                                       *)
(* ------------------------------------------------------------- *)

let inv_of spec name args =
  let inv = Invocation.make ~txn:1 (Spec.find_meth spec name) args in
  inv.Invocation.ret <- Value.Unit;
  inv

let test_div_by_zero_total () =
  let open Formula in
  let spec = rand_spec () in
  let both f i1 i2 =
    let want = interp_outcome spec f i1 i2 in
    let got = outcome (fun () -> compile_one f i1 i2) in
    check_bool ("agree on " ^ Formula.to_string f) true (want = got);
    want
  in
  (* x / 0 = 0, totally, for every x — the documented semantics *)
  List.iter
    (fun x ->
      let i1 = inv_of spec "m" [| Value.Int x; Value.Int 0 |] in
      let i2 = inv_of spec "n" [| Value.Int 0; Value.Int 0 |] in
      check_bool
        (Fmt.str "%d / 0 = 0 in both engines" x)
        true
        (both (eq (Arith (Div, arg1 0, cint 0)) (cint 0)) i1 i2 = V true);
      check_bool
        (Fmt.str "%d / v1[1]=0 = 0 via argument divisor" x)
        true
        (both (eq (Arith (Div, arg1 0, arg1 1)) (cint 0)) i1 i2 = V true))
    [ -3; 0; 5; max_int ];
  (* division by zero buried inside a nested arithmetic chain *)
  let i1 = inv_of spec "m" [| Value.Int 9; Value.Int 0 |] in
  let i2 = inv_of spec "n" [| Value.Int 4; Value.Int 2 |] in
  check_bool "9/0 + 1 = 1 through nested fusion" true
    (both (eq (Arith (Add, Arith (Div, arg1 0, arg1 1), cint 1)) (cint 1)) i1 i2
    = V true);
  (* a nonzero divisor still divides *)
  check_bool "4 / 2 = 2 unchanged" true
    (both (eq (Arith (Div, arg2 0, arg2 1)) (cint 2)) i1 i2 = V true)

let test_arg_out_of_range () =
  let open Formula in
  let spec = rand_spec () in
  let i1 = inv_of spec "m" [| Value.Int 1; Value.Int 2 |] in
  let i2 = inv_of spec "n" [| Value.Int 3; Value.Int 4 |] in
  List.iter
    (fun f ->
      let want = interp_outcome spec f i1 i2 in
      let got = outcome (fun () -> compile_one f i1 i2) in
      check_bool
        (Formula.to_string f ^ ": both raise Type_error")
        true
        (want = Type_err && got = Type_err))
    [
      eq (Arg (M1, 5)) (cint 0);
      eq (cint 0) (Arg (M2, 9));
      eq (Arith (Add, Arg (M1, 7), cint 1)) (cint 1);
    ]

let test_key_compilation () =
  let spec = Iset.precise_spec () in
  let inv = inv_of spec "add" [| Value.Int 42 |] in
  check_bool "compiled key term reads the argument" true
    (Value.equal (Value.Int 42) (Compile.key spec (Formula.arg1 0) inv));
  check_bool "compiled constant key" true
    (Value.equal (Value.Int 7) (Compile.key spec (Formula.cint 7) inv))

(* ------------------------------------------------------------- *)
(* Compiled-kind expectations                                     *)
(* ------------------------------------------------------------- *)

let test_kinds () =
  (* the set's precise spec is state-free: everything compiles to Fast or
     Static, nothing is left to the interpreter *)
  let c = Compile.of_spec (Iset.precise_spec ()) in
  List.iter
    (fun ((m1, m2), ch) ->
      check_bool
        (Fmt.str "set %s;%s is not interpreted" m1 m2)
        true
        (match ch with Compile.Interp _ -> false | _ -> true))
    (Compile.conditions c);
  (* union-find is state-dependent: its non-static conditions must stay on
     the interpreter *)
  let uf = Compile.of_spec (Union_find.spec ()) in
  check_bool "union-find keeps interpreted conditions" true
    (List.exists
       (fun (_, ch) -> match ch with Compile.Interp _ -> true | _ -> false)
       (Compile.conditions uf));
  (* unspecified pairs default to Static false, like Spec.cond *)
  check_bool "unknown pair is static-false" true
    (match Compile.condition c ~first:"add" ~second:"nosuch" with
    | Compile.Static false -> true
    | _ -> false);
  (* kdtree's dist vfun gets a table slot *)
  let kd = Compile.of_spec (Kdtree.spec ()) in
  check_bool "kdtree vfun table has dist" true
    (Array.exists (String.equal "dist") (Compile.vfun_names kd))

(* ------------------------------------------------------------- *)
(* Gatekeeper batch log scan                                      *)
(* ------------------------------------------------------------- *)

let test_batch_check () =
  let set = Iset.create () in
  let det, gk =
    Gatekeeper.make ~allow_rollback:false ~hooks:(Iset.hooks set)
      (Iset.precise_spec ())
  in
  (* txn 1 adds 1 through the normal invoke path; its entry stays active
     (no commit) *)
  let meth m =
    List.find (fun (x : Invocation.meth) -> x.Invocation.name = m) Iset.methods
  in
  let inv1 = Invocation.make ~txn:1 (meth "add") [| Value.Int 1 |] in
  ignore
    (det.Detector.on_invoke inv1 (fun () ->
         Iset.exec set "add" inv1.Invocation.args));
  (* an invocation executed and checked by the batch scan directly *)
  let check m v =
    let inv = Invocation.make ~txn:2 (meth m) [| Value.Int v |] in
    Gatekeeper.batch_check gk inv (fun () -> Iset.exec set m inv.Invocation.args)
  in
  check_bool "disjoint add passes the batch scan" true
    (match check "add" 2 with
    | _ -> true
    | exception Detector.Conflict _ -> false);
  check_bool "remove of active element conflicts" true
    (match check "remove" 1 with
    | _ -> false
    | exception Detector.Conflict _ -> true)

let suite =
  [
    Alcotest.test_case "bitmat basics" `Quick test_bitmat_basics;
    Alcotest.test_case "bitmat of_matrix roundtrip" `Quick test_bitmat_of_matrix;
    Alcotest.test_case "differential: shipped specs" `Quick
      test_differential_shipped;
    Alcotest.test_case "differential: parsed spec files" `Quick
      test_differential_parsed;
    Alcotest.test_case "differential: domain scenarios" `Quick
      test_differential_scenarios;
    Alcotest.test_case "differential: random formulas" `Quick
      test_differential_random_formulas;
    Alcotest.test_case "div-by-zero is total in both engines" `Quick
      test_div_by_zero_total;
    Alcotest.test_case "arg out of range raises in both engines" `Quick
      test_arg_out_of_range;
    Alcotest.test_case "compiled key terms" `Quick test_key_compilation;
    Alcotest.test_case "compiled kinds" `Quick test_kinds;
    Alcotest.test_case "gatekeeper batch_check" `Quick test_batch_check;
  ]
