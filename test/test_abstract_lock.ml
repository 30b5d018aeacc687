(* Tests of the abstract-locking construction (paper §3.2, Theorem 1):
   the synthesized scheme is sound AND complete w.r.t. any SIMPLE spec,
   non-SIMPLE specs are rejected, the Fig. 8 accumulator matrix comes out
   exactly, and the runtime lock table enforces two-phase behaviour. *)

open Commlat_core
open Commlat_adts

let check_bool = Alcotest.(check bool)

(* ------------------------------------------------------------- *)
(* Fig. 8: the accumulator worked example                         *)
(* ------------------------------------------------------------- *)

let mode_index scheme name =
  let rec go i =
    if i >= Abstract_lock.n_modes scheme then None
    else if Abstract_lock.mode_name scheme i = name then Some i
    else go (i + 1)
  in
  go 0

let test_accumulator_matrix () =
  let scheme = Abstract_lock.construct (Accumulator.spec ()) in
  let idx name =
    match mode_index scheme name with
    | Some i -> i
    | None -> Alcotest.failf "mode %s missing" name
  in
  let inc_ds = idx "increment:ds" and read_ds = idx "read:ds" in
  let inc_x = idx "increment:v1[0]" and read_ret = idx "read:r1" in
  check_bool "inc:ds X read:ds" false scheme.Abstract_lock.compat.(inc_ds).(read_ds);
  check_bool "symmetric" false scheme.Abstract_lock.compat.(read_ds).(inc_ds);
  check_bool "inc:ds ok inc:ds" true scheme.Abstract_lock.compat.(inc_ds).(inc_ds);
  check_bool "read:ds ok read:ds" true scheme.Abstract_lock.compat.(read_ds).(read_ds);
  check_bool "inc:x all ok" true
    (Array.for_all Fun.id scheme.Abstract_lock.compat.(inc_x));
  check_bool "read:ret all ok" true
    (Array.for_all Fun.id scheme.Abstract_lock.compat.(read_ret));
  (* the reduction drops the superfluous argument/return modes (Fig. 8b) *)
  let reduced = Abstract_lock.reduce scheme in
  let acqs m = Hashtbl.find reduced.Abstract_lock.acquisitions m in
  Alcotest.(check int) "increment acquires 1 lock" 1 (List.length (acqs "increment"));
  Alcotest.(check int) "read acquires 1 lock" 1 (List.length (acqs "read"))

let test_rejects_non_simple () =
  check_bool "precise set spec rejected" true
    (match Abstract_lock.construct (Iset.precise_spec ()) with
    | exception Abstract_lock.Not_simple _ -> true
    | _ -> false);
  check_bool "kdtree spec rejected" true
    (match Abstract_lock.construct (Kdtree.spec ()) with
    | exception Abstract_lock.Not_simple _ -> true
    | _ -> false)

(* ------------------------------------------------------------- *)
(* Theorem 1: soundness and completeness for SIMPLE specs         *)
(* ------------------------------------------------------------- *)

(* For a pair of freshly started transactions each performing one method
   invocation, the lock scheme conflicts iff the spec's condition is false.
   (This is the pairwise statement of soundness + completeness; longer
   histories are covered by the executor serializability tests.) *)
let lock_conflicts_iff_formula ~spec ~set (m1, a1) (m2, a2) =
  let det = Abstract_lock.detector (spec ()) in
  (* fresh set per trial keeps ground truth well-defined *)
  Iset.clear set;
  ignore (Iset.add set (Value.Int 0));
  ignore (Iset.add set (Value.Int 2));
  let r1 = ref Value.Unit and r2 = ref Value.Unit in
  let invoke txn m a rref =
    let meth =
      List.find (fun (x : Invocation.meth) -> x.name = m) Iset.methods
    in
    let inv = Invocation.make ~txn meth [| a |] in
    let v = det.Detector.on_invoke inv (fun () -> Iset.exec set m inv.Invocation.args) in
    rref := v;
    v
  in
  let conflict =
    match
      ignore (invoke 1 m1 a1 r1);
      ignore (invoke 2 m2 a2 r2)
    with
    | () -> false
    | exception Detector.Conflict _ -> true
  in
  det.Detector.on_abort 1;
  det.Detector.on_abort 2;
  (* evaluate the formula on what actually happened (note: on conflict the
     second invocation still executed under locking? no — locks are checked
     BEFORE execution, so r2 is unset; the formula for SIMPLE specs only
     uses arguments, never returns) *)
  let env =
    Formula.env
      ~vfun:(Spec.vfun (spec ()))
      ~arg:(fun side _ -> match side with Formula.M1 -> a1 | Formula.M2 -> a2)
      ~ret:(function Formula.M1 -> !r1 | Formula.M2 -> !r2)
      ()
  in
  let commutes = Formula.eval env (Spec.cond (spec ()) ~first:m1 ~second:m2) in
  conflict = not commutes

let gen_pair =
  let open QCheck.Gen in
  let meth = oneofl [ "add"; "remove"; "contains" ] in
  let elt = map (fun i -> Value.Int i) (int_bound 3) in
  QCheck.make
    ~print:(fun (m1, a1, m2, a2) ->
      Fmt.str "%s(%a) vs %s(%a)" m1 Value.pp a1 m2 Value.pp a2)
    (tup4 meth elt meth elt)

let theorem1_test name specf =
  let set = Iset.create () in
  QCheck.Test.make ~name ~count:500 gen_pair (fun (m1, a1, m2, a2) ->
      lock_conflicts_iff_formula ~spec:specf ~set (m1, a1) (m2, a2))

(* ------------------------------------------------------------- *)
(* Runtime lock-table behaviour                                   *)
(* ------------------------------------------------------------- *)

let test_release_on_end () =
  let set = Iset.create () in
  let det = Abstract_lock.detector (Iset.simple_spec ()) in
  let add txn v =
    let inv = Invocation.make ~txn Iset.m_add [| Value.Int v |] in
    ignore (det.Detector.on_invoke inv (fun () -> Iset.exec set "add" inv.Invocation.args))
  in
  add 1 5;
  check_bool "conflicting add blocked" true
    (match add 2 5 with () -> false | exception Detector.Conflict _ -> true);
  det.Detector.on_commit 1;
  (* after release the same key is free *)
  add 2 5;
  det.Detector.on_commit 2

let test_reentrant_same_txn () =
  let set = Iset.create () in
  let det = Abstract_lock.detector (Iset.exclusive_spec ()) in
  let add txn v =
    let inv = Invocation.make ~txn Iset.m_add [| Value.Int v |] in
    ignore (det.Detector.on_invoke inv (fun () -> Iset.exec set "add" inv.Invocation.args))
  in
  (* same transaction may re-acquire its own locks *)
  add 7 1;
  add 7 1;
  det.Detector.on_commit 7

let test_partition_collisions () =
  (* two distinct keys in the same partition must conflict under the
     partitioned scheme *)
  let nparts = 2 in
  let set = Iset.create () in
  let det = Abstract_lock.detector (Iset.partitioned_spec ~nparts ()) in
  (* find two ints with equal hash mod nparts but different values *)
  let k1 = 0 in
  let k2 =
    let rec go i =
      if
        i <> k1
        && Value.hash (Value.Int i) mod nparts = Value.hash (Value.Int k1) mod nparts
      then i
      else go (i + 1)
    in
    go 1
  in
  let add txn v =
    let inv = Invocation.make ~txn Iset.m_add [| Value.Int v |] in
    ignore (det.Detector.on_invoke inv (fun () -> Iset.exec set "add" inv.Invocation.args))
  in
  add 1 k1;
  check_bool "same-partition keys conflict" true
    (match add 2 k2 with () -> false | exception Detector.Conflict _ -> true);
  det.Detector.on_abort 2;
  det.Detector.on_commit 1

let test_global_lock_detector () =
  let det = Detector.global_lock () in
  let touch txn =
    let inv = Invocation.make ~txn (Invocation.meth "op" 0) [||] in
    ignore (det.Detector.on_invoke inv (fun () -> Value.Unit))
  in
  touch 1;
  check_bool "second txn blocked" true
    (match touch 2 with () -> false | exception Detector.Conflict _ -> true);
  det.Detector.on_commit 1;
  touch 2

let suite =
  [
    Alcotest.test_case "Fig.8 accumulator matrix" `Quick test_accumulator_matrix;
    Alcotest.test_case "non-SIMPLE specs rejected" `Quick test_rejects_non_simple;
    QCheck_alcotest.to_alcotest
      (theorem1_test "Theorem 1 for Fig.3 (rw) locks" Iset.simple_spec);
    QCheck_alcotest.to_alcotest
      (theorem1_test "Theorem 1 for exclusive locks" Iset.exclusive_spec);
    QCheck_alcotest.to_alcotest
      (theorem1_test "Theorem 1 for partitioned locks" (fun () ->
           Iset.partitioned_spec ~nparts:2 ()));
    Alcotest.test_case "locks released on txn end" `Quick test_release_on_end;
    Alcotest.test_case "reentrant within a txn" `Quick test_reentrant_same_txn;
    Alcotest.test_case "partition collisions conflict" `Quick
      test_partition_collisions;
    Alcotest.test_case "global-lock detector" `Quick test_global_lock_detector;
  ]
