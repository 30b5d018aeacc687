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
      History.serializable (Iset.model ()) ~final:(Iset.snapshot set)
        !recorded)

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
(* Striped gatekeeper: guards and entries per operation           *)
(* ------------------------------------------------------------- *)

module Engine = Commlat_server.Engine
module Wire = Commlat_server.Wire
module Obs = Commlat_obs.Obs

(* The ids of the guards [f] acquires, in order, through a Schedpoint
   hook (a re-entry counts again). *)
let acquired f =
  let ids = ref [] in
  Schedpoint.install (function
    | Schedpoint.Acquire g -> ids := g :: !ids
    | _ -> ());
  Fun.protect ~finally:Schedpoint.uninstall (fun () -> ignore (f ()));
  List.rev !ids

(* A kvmap behind a forward gatekeeper, striped when [nshards > 0]. *)
let mk_kvmap_gk ~nshards =
  let m = Kvmap.create () in
  let det, gk =
    Gatekeeper.make ~nshards ~allow_rollback:false ~hooks:(Kvmap.hooks m)
      (Kvmap.precise_spec ())
  in
  (m, det, gk)

let prefill m keys =
  List.iter (fun k -> ignore (Kvmap.put m (Value.Int k) (Value.Int 0))) keys

let kv_put m det txn k v =
  Boost.invoke det txn ~undo:(Kvmap.undo m) Kvmap.m_put
    [| Value.Int k; Value.Int v |]
    (fun inv -> Kvmap.exec m "put" inv.Invocation.args)

let kv_size m det txn =
  Boost.invoke_ro det txn Kvmap.m_size [||] (fun inv ->
      Kvmap.exec m "size" inv.Invocation.args)

let test_striped_guards () =
  let at_most what bound ids =
    let n = List.length ids in
    check_bool (Fmt.str "%s: %d acquisitions <= %d" what n bound) true (n <= bound)
  in
  let m, det, _ = mk_kvmap_gk ~nshards:16 in
  prefill m [ 3 ];
  let txn = Txn.fresh () in
  ignore (kv_put m det txn 3 1);
  at_most "keyed put commit" 2 (acquired (fun () -> Boost.commit det txn));
  (* the server's read-only fast path, on its own 16-shard kvmap *)
  let eng = Engine.create () in
  let req id meth args = Wire.Invoke { id; adt = "kvmap"; meth; args } in
  ignore (Engine.handle eng (req 1 "put" [| Value.Int 3; Value.Int 1 |]));
  let outcome = ref None in
  let ids =
    acquired (fun () ->
        outcome := Some (Engine.try_req eng (req 2 "get" [| Value.Int 3 |])))
  in
  check_bool "get answered on the fast path" true
    (match !outcome with
    | Some (Engine.Done (None, Wire.Reply (2, Value.Opt (Some (Value.Int 1))))) ->
        true
    | _ -> false);
  at_most "fast-path get" 2 ids;
  (* a keyless entry sits in the overflow shard: its commit is an overflow
     mutator and must hold every shard guard *)
  let txn = Txn.fresh () in
  ignore (kv_size m det txn);
  let held = List.sort_uniq Int.compare (acquired (fun () -> Boost.commit det txn)) in
  let shard_guards = 16 + 1 in
  check_bool
    (Fmt.str "keyless commit: %d distinct guards >= %d shard guards"
       (List.length held) shard_guards)
    true
    (List.length held >= shard_guards
    && List.for_all
         (fun g -> List.exists (fun d -> Guard.id d = g) det.Detector.guards)
         held);
  let m, det, _ = mk_kvmap_gk ~nshards:0 in
  prefill m [ 3 ];
  let txn = Txn.fresh () in
  ignore (kv_put m det txn 3 1);
  Alcotest.(check int) "unsharded commit" 1
    (List.length (acquired (fun () -> Boost.commit det txn)));
  (* an abort takes the guards its transaction's invocations held *)
  let distinct f = List.sort_uniq Int.compare (acquired f) in
  let refused_put m det =
    let owner = Txn.fresh () in
    ignore (kv_put m det owner 3 1);
    let txn = Txn.fresh () in
    match kv_put m det txn 3 2 with
    | _ -> Alcotest.fail "a put on an open transaction's key was admitted"
    | exception Detector.Conflict _ -> txn
  in
  let m, det, _ = mk_kvmap_gk ~nshards:16 in
  prefill m [ 3 ];
  let txn = refused_put m det in
  at_most "refused keyed put's abort, distinct guards" 2
    (distinct (fun () -> Boost.abort det txn));
  (* a keyless entry makes the abort an overflow mutator *)
  let txn = Txn.fresh () in
  ignore (kv_size m det txn);
  Alcotest.(check (list int))
    "keyless abort: every shard guard plus the exec guard"
    (List.sort Int.compare (List.map Guard.id det.Detector.guards))
    (distinct (fun () -> Boost.abort det txn));
  let m, det, _ = mk_kvmap_gk ~nshards:0 in
  prefill m [ 3 ];
  let txn = refused_put m det in
  Alcotest.(check int) "unsharded abort, distinct guards" 1
    (List.length (distinct (fun () -> Boost.abort det txn)))

(* A refusal's reason and abort_cause label are the method pair, one label
   per conflict, whether the refused invocation was inserted or probed by
   the read fast path; a method the spec never declared is named too. *)
let test_conflict_pair_labels () =
  let m, det, gk = mk_kvmap_gk ~nshards:16 in
  prefill m [ 3 ];
  let owner = Txn.fresh () in
  ignore (kv_put m det owner 3 1);
  let refusal what f =
    match f () with
    | _ -> Alcotest.failf "%s was admitted against an open put of its key" what
    | exception Detector.Conflict { reason; _ } -> reason
  in
  let n = 5 in
  for v = 2 to n + 1 do
    let txn = Txn.fresh () in
    Alcotest.(check string) "a refused put's reason" "put;put"
      (refusal "put" (fun () -> kv_put m det txn 3 v));
    Boost.abort det txn
  done;
  let snap () = Obs.snapshot (Gatekeeper.obs gk) in
  let labels key = Obs.label_count (snap ()) ~cat:"abort_cause" key in
  let conflicts () = Obs.counter_value (snap ()) "conflicts" in
  Alcotest.(check int) "put;put labels" n (labels "put;put");
  Alcotest.(check int) "conflicts" n (conflicts ());
  let get =
    Invocation.make ~txn:(Txn.id (Txn.fresh ())) Kvmap.m_get [| Value.Int 3 |]
  in
  Alcotest.(check string) "a refused fast-path read's reason" "put;get"
    (refusal "get" (fun () ->
         Gatekeeper.batch_check gk get (fun () ->
             Kvmap.exec m "get" get.Invocation.args)));
  Alcotest.(check int) "put;get labels" 1 (labels "put;get");
  Alcotest.(check int) "conflicts after the read" (n + 1) (conflicts ());
  let txn = Txn.fresh () in
  Alcotest.(check string) "an undeclared method's reason" "put;frob"
    (refusal "frob" (fun () ->
         Boost.invoke det txn ~undo:ignore (Invocation.meth "frob" 0) [||]
           (fun _ -> Value.Unit)));
  Boost.abort det txn;
  Alcotest.(check int) "every conflict labelled" (conflicts ())
    (Obs.total_labels (snap ()) ~cat:"abort_cause");
  Alcotest.(check int) "conflicts after the undeclared method" (n + 2)
    (conflicts ())

let test_striped_commit_drops_own () =
  let nshards = 16 in
  let m, det, gk = mk_kvmap_gk ~nshards in
  let fp = Option.get (Gatekeeper.footprint gk) in
  let shard k =
    Footprint.shard_of fp ~nshards
      (Invocation.make ~txn:0 Kvmap.m_put [| Value.Int k; Value.Int 0 |])
  in
  (* three keys in three different shards *)
  let rec pick keys k =
    if List.length keys = 3 then List.rev keys
    else if List.exists (fun k' -> shard k' = shard k) keys then pick keys (k + 1)
    else pick (k :: keys) (k + 1)
  in
  let keys = pick [] 0 in
  (* prefilled, so each put replaces a binding and commutes with [size] *)
  prefill m keys;
  let writers =
    List.map
      (fun k ->
        let txn = Txn.fresh () in
        ignore (kv_put m det txn k 1);
        txn)
      keys
  in
  let reader = Txn.fresh () in
  ignore (kv_size m det reader);
  let count () = Gatekeeper.active_count gk in
  Alcotest.(check int) "three keyed entries and one keyless" 4 (count ());
  Boost.commit det (List.hd writers);
  Alcotest.(check int) "a keyed commit drops its one entry" 3 (count ());
  let late = Txn.fresh () in
  (match kv_put m det late (List.nth keys 1) 2 with
  | _ -> Alcotest.fail "a put on an open transaction's key was admitted"
  | exception Detector.Conflict { with_; _ } ->
      Alcotest.(check int) "the refusal names the key's open transaction"
        (Txn.id (List.nth writers 1)) with_;
      Boost.abort det late);
  Alcotest.(check int) "the refused put leaves with its abort" 3 (count ());
  Boost.commit det reader;
  Alcotest.(check int) "the keyless commit drops one more" 2 (count ());
  det.Detector.reset ();
  Alcotest.(check int) "reset empties the table" 0 (count ())

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
    Alcotest.test_case "striped: operations take only their shards' guards"
      `Quick test_striped_guards;
    Alcotest.test_case "striped: commit drops exactly its own entries" `Quick
      test_striped_commit_drops_own;
    Alcotest.test_case "refusals are labelled by their method pair" `Quick
      test_conflict_pair_labels;
  ]

