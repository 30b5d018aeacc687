(* Tests of forward gatekeeping (paper §3.3.1): sound AND complete w.r.t.
   its specification, implementation-agnostic (protects any concrete set
   layout), log lifecycle, and executor-level serializability. *)

open Commlat_core
open Commlat_adts
open Commlat_runtime

let check_bool = Alcotest.(check bool)

let mk_set_gk ?(impl = `Hash) () =
  let set = Iset.create ~impl () in
  let det, gk =
    Gatekeeper.make ~allow_rollback:false ~hooks:(Iset.hooks set)
      (Iset.precise_spec ())
  in
  (set, det, gk)

let invoke det set txn m v =
  let meth = List.find (fun (x : Invocation.meth) -> x.name = m) Iset.methods in
  let inv = Invocation.make ~txn meth [| Value.Int v |] in
  det.Detector.on_invoke inv (fun () -> Iset.exec set m inv.Invocation.args)

(* ------------------------------------------------------------- *)
(* Pairwise soundness AND completeness against Fig. 2             *)
(* ------------------------------------------------------------- *)

(* The gatekeeper evaluates the precise condition directly, so for two
   transactions with one invocation each: conflict iff the condition (on
   the actual returns) is false. *)
(* Build the invocations ourselves so [inv.ret] is readable even when the
   check conflicts (the gatekeeper executes before checking). *)
let gk_matches_formula (m1, v1) (m2, v2) prefix =
  let set, det, _ = mk_set_gk () in
  List.iter (fun v -> ignore (Iset.add set (Value.Int v))) prefix;
  let meth m = List.find (fun (x : Invocation.meth) -> x.name = m) Iset.methods in
  let inv1 = Invocation.make ~txn:1 (meth m1) [| Value.Int v1 |] in
  ignore (det.Detector.on_invoke inv1 (fun () -> Iset.exec set m1 inv1.Invocation.args));
  let inv2 = Invocation.make ~txn:2 (meth m2) [| Value.Int v2 |] in
  let conflict =
    match det.Detector.on_invoke inv2 (fun () -> Iset.exec set m2 inv2.Invocation.args) with
    | _ -> false
    | exception Detector.Conflict _ -> true
  in
  let spec = Iset.precise_spec () in
  let env =
    Formula.env
      ~vfun:(Spec.vfun spec)
      ~arg:(fun side _ ->
        match side with
        | Formula.M1 -> Value.Int v1
        | Formula.M2 -> Value.Int v2)
      ~ret:(function
        | Formula.M1 -> inv1.Invocation.ret
        | Formula.M2 -> inv2.Invocation.ret)
      ()
  in
  let commutes = Formula.eval env (Spec.cond spec ~first:m1 ~second:m2) in
  conflict = not commutes

let gen_case =
  let open QCheck.Gen in
  let meth = oneofl [ "add"; "remove"; "contains" ] in
  let elt = int_bound 2 in
  QCheck.make
    ~print:(fun (m1, v1, m2, v2, prefix) ->
      Fmt.str "%s(%d); %s(%d) prefix=%a" m1 v1 m2 v2 Fmt.(Dump.list int) prefix)
    (tup5 meth elt meth elt (list_size (int_bound 3) (int_bound 2)))

let test_gk_precise =
  QCheck.Test.make ~name:"forward gatekeeper = precise condition (sound+complete)"
    ~count:800 gen_case (fun (m1, v1, m2, v2, prefix) ->
      gk_matches_formula (m1, v1) (m2, v2) prefix)

(* completeness witness the paper highlights: concurrent non-mutating adds
   of the same element proceed under the gatekeeper (but not under locks) *)
let test_double_add_admitted () =
  let set, det, _ = mk_set_gk () in
  ignore (Iset.add set (Value.Int 1));
  ignore (invoke det set 1 "add" 1);
  (* second txn's add of the same (present) element: commutes per Fig. 2 *)
  ignore (invoke det set 2 "add" 1);
  det.Detector.on_commit 1;
  det.Detector.on_commit 2;
  check_bool "both proceeded" true true

let test_mutating_add_conflicts () =
  let set, det, _ = mk_set_gk () in
  ignore (invoke det set 1 "add" 1);
  check_bool "mutating double add conflicts" true
    (match invoke det set 2 "add" 1 with
    | _ -> false
    | exception Detector.Conflict _ -> true)

(* same txn never self-conflicts *)
let test_same_txn () =
  let set, det, _ = mk_set_gk () in
  ignore (invoke det set 1 "add" 1);
  ignore (invoke det set 1 "remove" 1);
  ignore (invoke det set 1 "add" 1);
  det.Detector.on_commit 1;
  check_bool "ok" true true

(* logs removed on txn end: the blocked op succeeds afterwards *)
let test_log_lifecycle () =
  let set, det, gk = mk_set_gk () in
  ignore (invoke det set 1 "add" 1);
  check_bool "blocked while t1 active" true
    (match invoke det set 2 "remove" 1 with
    | _ -> false
    | exception Detector.Conflict _ -> true);
  det.Detector.on_abort 2;
  det.Detector.on_commit 1;
  ignore (invoke det set 2 "remove" 1);
  det.Detector.on_commit 2;
  Alcotest.(check int) "no leftover rollbacks" 0 (Gatekeeper.rollback_count gk)

(* the same gatekeeper construction protects the linked-list implementation
   identically (paper: gatekeepers see the ADT as a black box) *)
let test_impl_agnostic =
  QCheck.Test.make ~name:"gatekeeper behaviour identical across set impls"
    ~count:300 gen_case (fun (m1, v1, m2, v2, prefix) ->
      let run impl =
        let set, det, _ = mk_set_gk ~impl () in
        List.iter (fun v -> ignore (Iset.add set (Value.Int v))) prefix;
        let a = try Some (Value.to_bool (invoke det set 1 m1 v1)) with _ -> None in
        let b = try Some (Value.to_bool (invoke det set 2 m2 v2)) with Detector.Conflict _ -> None in
        (a, b, List.sort Value.compare (Iset.elements set))
      in
      run `Hash = run `List)

let test_forward_rejects_general () =
  let uf = Union_find.create () in
  check_bool "union-find spec needs general gatekeeper" true
    (match
       Gatekeeper.make ~allow_rollback:false ~hooks:(Union_find.hooks uf)
         (Union_find.spec ())
     with
    | exception Invalid_argument _ -> true
    | _ -> false)

(* ------------------------------------------------------------- *)
(* Executor-level serializability under the gatekeeper            *)
(* ------------------------------------------------------------- *)

(* Random multi-op transactions on a shared set through the bulk-
   synchronous executor; every committed history must be serializable. *)
let test_executor_serializable =
  QCheck.Test.make ~name:"committed gatekeeper histories are serializable"
    ~count:60
    QCheck.(
      make
        ~print:(fun ops ->
          Fmt.str "%d txns" (List.length ops))
        Gen.(
          list_size (int_bound 6 >|= fun n -> n + 2)
            (list_size (int_bound 3 >|= fun n -> n + 1)
               (pair (oneofl [ "add"; "remove"; "contains" ]) (int_bound 2)))))
    (fun txn_specs ->
      let set, det, _ = mk_set_gk () in
      let recorded : Invocation.t list ref = ref [] in
      let recorded_txns = ref [] in
      let operator (txn : Txn.t) ops =
        let invs =
          List.map
            (fun (m, v) ->
              let meth =
                List.find (fun (x : Invocation.meth) -> x.name = m) Iset.methods
              in
              let inv = Invocation.make ~txn:(Txn.id txn) meth [| Value.Int v |] in
              if meth.Invocation.concrete then
                Txn.push_undo txn (fun () -> Iset.undo set inv);
              ignore (det.Detector.on_invoke inv (fun () -> Iset.exec set m inv.Invocation.args));
              inv)
            ops
        in
        recorded := !recorded @ invs;
        recorded_txns := Txn.id txn :: !recorded_txns;
        []
      in
      let _stats =
        Executor.run_rounds ~processors:3 ~detector:det ~operator txn_specs
      in
      (* keep only committed transactions' invocations: retried txns appear
         multiple times; the executor assigns a fresh txn id per attempt and
         recorded was appended inside the operator even for attempts that
         later conflicted... an attempt that conflicts raises BEFORE the
         operator returns, so its invs were never appended.  Partially
         executed invocations of aborted attempts were rolled back. *)
      let final = Value.List (Iset.elements set) in
      History.serializable (Iset.model ()) ~final !recorded)

(* ------------------------------------------------------------- *)
(* C_m construction                                               *)
(* ------------------------------------------------------------- *)

(* Pin the C_m log sets computed from the union-find spec: [loser(a,b)]
   appears in both the (union,union) and (union,find) conditions but must
   be logged exactly ONCE per union invocation (the dedup used to be
   quadratic List.mem; this pins the hash-set rewrite to the same
   contents).  [rep(s1, arg2 ...)] mentions m2, so it is a rollback
   function, never part of C_m. *)
let test_cm_union_find () =
  let uf = Union_find.create () in
  let _det, gk =
    Gatekeeper.make ~allow_rollback:true ~hooks:(Union_find.hooks uf)
      (Union_find.spec ())
  in
  let open Formula in
  Alcotest.(check bool)
    "C_union = { loser(arg1 0, arg1 1) }" true
    (Gatekeeper.cm_functions gk "union" = [ ("loser", [ arg1 0; arg1 1 ]) ]);
  Alcotest.(check bool)
    "C_find = {} (find's conditions need only ret1 or rollback fns)" true
    (Gatekeeper.cm_functions gk "find" = []);
  Alcotest.(check bool)
    "C_create = {}" true
    (Gatekeeper.cm_functions gk "create" = []);
  Alcotest.(check bool)
    "unknown method has empty C_m" true
    (Gatekeeper.cm_functions gk "no_such_method" = [])

(* ------------------------------------------------------------- *)
(* Live-state transfer (detector hot-swap)                        *)
(* ------------------------------------------------------------- *)

(* [active_invocations] + [adopt] move open transactions from one
   gatekeeper to a freshly built successor over the same ADT: conflicts
   the predecessor would report must keep being reported after the
   move, and commits through the successor must release them. *)
let test_adopt_open_txns () =
  let set, det_a, gk_a = mk_set_gk () in
  ignore (invoke det_a set 1 "add" 1);
  ignore (invoke det_a set 2 "add" 2);
  let invs = Gatekeeper.active_invocations gk_a in
  Alcotest.(check int) "two open invocations" 2 (List.length invs);
  check_bool "active list is in execution order" true
    (List.map (fun (i : Invocation.t) -> i.txn) invs = [ 1; 2 ]);
  (* successor over the same live set; give it activity of its own FIRST
     so restamping provably appends after existing seqs *)
  let det_b, gk_b =
    Gatekeeper.make ~allow_rollback:false ~hooks:(Iset.hooks set) (Iset.precise_spec ())
  in
  ignore (invoke det_b set 10 "contains" 0);
  Gatekeeper.adopt gk_b invs;
  check_bool "restamp preserves relative order, after own entries" true
    (List.map
       (fun (i : Invocation.t) -> i.txn)
       (Gatekeeper.active_invocations gk_b)
    = [ 10; 1; 2 ]);
  (* the adopted add(1) still blocks a remove(1) from another txn *)
  check_bool "adopted invocation still conflicts" true
    (match invoke det_b set 3 "remove" 1 with
    | _ -> false
    | exception Detector.Conflict _ -> true);
  det_b.Detector.on_abort 3;
  (* committing THROUGH the successor releases the adopted entry *)
  det_b.Detector.on_commit 1;
  ignore (invoke det_b set 3 "remove" 1);
  det_b.Detector.on_commit 3;
  det_b.Detector.on_commit 2;
  det_b.Detector.on_commit 10;
  check_bool "no entries left after all commits" true
    (Gatekeeper.active_invocations gk_b = [])

(* The same transfer across the striped/coarse boundary, in all four
   directions: a striped successor re-shards adopted entries by footprint
   (and re-homes rollback_log methods into per-shard mutation logs); the
   conflicts reported must be identical whichever representations the
   predecessor and successor use. *)
let test_adopt_striped_coarse () =
  let mk_coarse set =
    Gatekeeper.make ~allow_rollback:false ~hooks:(Iset.hooks set)
      (Iset.precise_spec ())
  and mk_striped set =
    Gatekeeper.make ~allow_rollback:false ~nshards:4 ~hooks:(Iset.hooks set)
      (Iset.precise_spec ())
  in
  let scenario mk_from mk_to =
    let set = Iset.create () in
    let det_a, gk_a = mk_from set in
    let inv det txn m v =
      let meth = List.find (fun (x : Invocation.meth) -> x.name = m) Iset.methods in
      let i = Invocation.make ~txn meth [| Value.Int v |] in
      det.Detector.on_invoke i (fun () -> Iset.exec set m i.Invocation.args)
    in
    (* open mutations landing in distinct footprint shards *)
    ignore (inv det_a 1 "add" 1);
    ignore (inv det_a 1 "add" 5);
    ignore (inv det_a 2 "add" 2);
    let det_b, gk_b = mk_to set in
    Gatekeeper.adopt gk_b (Gatekeeper.active_invocations gk_a);
    let outcome txn m v =
      match inv det_b txn m v with
      | _ -> det_b.Detector.on_abort txn; `Ok
      | exception Detector.Conflict _ -> det_b.Detector.on_abort txn; `Conflict
    in
    let probes =
      [ outcome 7 "remove" 1; outcome 8 "remove" 2; outcome 9 "contains" 3;
        outcome 11 "add" 5 ]
    in
    det_b.Detector.on_commit 1;
    det_b.Detector.on_commit 2;
    let after = [ outcome 12 "remove" 1; outcome 13 "remove" 2 ] in
    (probes, after, List.sort Value.compare (Iset.elements set))
  in
  let reference = scenario mk_coarse mk_coarse in
  check_bool "probes conflict while adopted txns are open" true
    (let probes, _, _ = reference in
     probes = [ `Conflict; `Conflict; `Ok; `Conflict ]);
  check_bool "probes pass once adopted txns commit" true
    (let _, after, _ = reference in
     after = [ `Ok; `Ok ]);
  List.iter
    (fun (name, mk_from, mk_to) ->
      check_bool name true (scenario mk_from mk_to = reference))
    [
      ("coarse->striped", mk_coarse, mk_striped);
      ("striped->coarse", mk_striped, mk_coarse);
      ("striped->striped", mk_striped, mk_striped);
    ]

let suite =
  [
    QCheck_alcotest.to_alcotest test_gk_precise;
    Alcotest.test_case "non-mutating double add admitted" `Quick
      test_double_add_admitted;
    Alcotest.test_case "mutating double add conflicts" `Quick
      test_mutating_add_conflicts;
    Alcotest.test_case "same txn never self-conflicts" `Quick test_same_txn;
    Alcotest.test_case "log lifecycle" `Quick test_log_lifecycle;
    QCheck_alcotest.to_alcotest test_impl_agnostic;
    Alcotest.test_case "forward rejects GENERAL specs" `Quick
      test_forward_rejects_general;
    QCheck_alcotest.to_alcotest test_executor_serializable;
    Alcotest.test_case "C_m pinned for union-find" `Quick test_cm_union_find;
    Alcotest.test_case "adopt: open txns transfer between gatekeepers" `Quick
      test_adopt_open_txns;
    Alcotest.test_case "adopt: striped<->coarse equivalence" `Quick
      test_adopt_striped_coarse;
  ]

