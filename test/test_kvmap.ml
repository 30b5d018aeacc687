(* Tests of the key-value map ADT: spec soundness against ground truth,
   derived SIMPLE core, detectors, serializability. *)

open Commlat_core
open Commlat_adts
open Commlat_runtime

let check_bool = Alcotest.(check bool)

let test_basics () =
  let t = Kvmap.create () in
  Alcotest.(check bool) "empty get" true (Kvmap.get t (Value.Int 1) = None);
  Alcotest.(check bool) "put fresh" true (Kvmap.put t (Value.Int 1) (Value.Str "a") = None);
  Alcotest.(check bool) "put replace" true
    (Kvmap.put t (Value.Int 1) (Value.Str "b") = Some (Value.Str "a"));
  Alcotest.(check int) "size" 1 (Kvmap.size t);
  Alcotest.(check bool) "remove" true
    (Kvmap.remove t (Value.Int 1) = Some (Value.Str "b"));
  Alcotest.(check int) "size 0" 0 (Kvmap.size t)

let test_undo () =
  let t = Kvmap.create () in
  ignore (Kvmap.put t (Value.Int 1) (Value.Str "a"));
  let inv = Invocation.make ~txn:1 Kvmap.m_put [| Value.Int 1; Value.Str "b" |] in
  inv.Invocation.ret <- Kvmap.exec t "put" inv.Invocation.args;
  check_bool "replaced" true (Kvmap.get t (Value.Int 1) = Some (Value.Str "b"));
  Kvmap.undo t inv;
  check_bool "restored" true (Kvmap.get t (Value.Int 1) = Some (Value.Str "a"));
  let inv2 = Invocation.make ~txn:1 Kvmap.m_remove [| Value.Int 1 |] in
  inv2.Invocation.ret <- Kvmap.exec t "remove" inv2.Invocation.args;
  Kvmap.undo t inv2;
  check_bool "remove undone" true (Kvmap.get t (Value.Int 1) = Some (Value.Str "a"))

let test_classification () =
  check_bool "precise is ONLINE" true
    (Spec.classify (Kvmap.precise_spec ()) = Formula.Online);
  check_bool "simple core is SIMPLE" true
    (Spec.classify (Kvmap.simple_spec ()) = Formula.Simple);
  check_bool "core is a strengthening" true
    (Strengthen.check_strengthening ~stronger:(Kvmap.simple_spec ())
       ~weaker:(Kvmap.precise_spec ()))

(* soundness of the precise spec against ground-truth commutativity *)
let gen_case =
  let open QCheck.Gen in
  let key = map (fun i -> Value.Int i) (int_bound 2) in
  let v = map (fun i -> Value.Str (string_of_int i)) (int_bound 1) in
  let op =
    oneof
      [
        map2 (fun k x -> ("put", [ k; x ])) key v;
        map (fun k -> ("get", [ k ])) key;
        map (fun k -> ("remove", [ k ])) key;
        return ("size", []);
      ]
  in
  QCheck.make
    ~print:(fun ((m1, _), (m2, _), prefix) ->
      Fmt.str "%s;%s after %d ops" m1 m2 (List.length prefix))
    (tup3 op op (list_size (int_bound 4) op))

let test_spec_sound =
  QCheck_alcotest.to_alcotest
    (QCheck.Test.make ~name:"kvmap precise spec is sound" ~count:2000 gen_case
       (fun ((m1, a1), (m2, a2), prefix) ->
         let spec = Kvmap.precise_spec () in
         let model = Kvmap.model () in
         model.History.reset ();
         let apply m args = model.History.apply m (Array.of_list args) in
         List.iter (fun (m, args) -> ignore (apply m args)) prefix;
         let r1 = apply m1 a1 in
         let r2 = apply m2 a2 in
         let env =
           Formula.env
             ~vfun:(Spec.vfun spec)
             ~arg:(fun side i ->
               List.nth (match side with Formula.M1 -> a1 | Formula.M2 -> a2) i)
             ~ret:(function Formula.M1 -> r1 | Formula.M2 -> r2)
             ()
         in
         let cond = Formula.eval env (Spec.cond spec ~first:m1 ~second:m2) in
         (not cond)
         || History.commute_in_state model ~prefix (m1, a1) (m2, a2)))

(* serializability under the forward gatekeeper built from the precise spec *)
let test_executor_serializable =
  QCheck_alcotest.to_alcotest
    (QCheck.Test.make ~name:"committed kvmap histories are serializable"
       ~count:40
       QCheck.(
         make
           ~print:(fun l -> Fmt.str "%d txns" (List.length l))
           Gen.(
             list_size
               (int_bound 4 >|= fun n -> n + 2)
               (list_size
                  (int_bound 2 >|= fun n -> n + 1)
                  (oneof
                     [
                       map2
                         (fun k v -> ("put", [| Value.Int k; Value.Int v |]))
                         (int_bound 2) (int_bound 2);
                       map (fun k -> ("get", [| Value.Int k |])) (int_bound 2);
                       map (fun k -> ("remove", [| Value.Int k |])) (int_bound 2);
                     ]))))
       (fun txn_specs ->
         let t = Kvmap.create () in
         let det =
           Protect.protect ~spec:(Kvmap.precise_spec ())
             ~adt:(Protect.adt ~hooks:(Kvmap.hooks t) ())
             Protect.Forward_gk
         in
         let recorded = ref [] in
         let operator (txn : Txn.t) ops =
           let invs =
             List.map
               (fun (m, args) ->
                 let meth =
                   List.find (fun (x : Invocation.meth) -> x.Invocation.name = m) Kvmap.methods
                 in
                 let inv = Invocation.make ~txn:(Txn.id txn) meth args in
                 if meth.Invocation.concrete then
                   Txn.push_undo txn (fun () -> Kvmap.undo t inv);
                 ignore (det.Detector.on_invoke inv (fun () -> Kvmap.exec t m inv.Invocation.args));
                 inv)
               ops
           in
           recorded := !recorded @ invs;
           []
         in
         ignore (Executor.run_rounds ~processors:3 ~detector:det ~operator txn_specs);
         let final =
           Value.List (List.map (fun (k, v) -> Value.Pair (k, v)) (Kvmap.bindings t))
         in
         History.serializable (Kvmap.model ()) ~final !recorded))

(* the derived SIMPLE core is lockable and runs *)
let test_lock_scheme () =
  let t = Kvmap.create () in
  let det =
    Protect.protect ~spec:(Kvmap.simple_spec ()) ~adt:(Protect.adt ())
      Protect.Abstract_lock
  in
  let invoke txn m args =
    let meth = List.find (fun (x : Invocation.meth) -> x.Invocation.name = m) Kvmap.methods in
    let inv = Invocation.make ~txn meth args in
    det.Detector.on_invoke inv (fun () -> Kvmap.exec t m inv.Invocation.args)
  in
  ignore (invoke 1 "put" [| Value.Int 1; Value.Str "x" |]);
  ignore (invoke 2 "put" [| Value.Int 2; Value.Str "y" |]);
  check_bool "same key conflicts" true
    (match invoke 3 "get" [| Value.Int 1 |] with
    | _ -> false
    | exception Detector.Conflict _ -> true);
  det.Detector.on_commit 1;
  det.Detector.on_commit 2;
  det.Detector.on_abort 3;
  ignore (invoke 3 "get" [| Value.Int 1 |]);
  det.Detector.on_commit 3

let suite =
  [
    Alcotest.test_case "basics" `Quick test_basics;
    Alcotest.test_case "undo" `Quick test_undo;
    Alcotest.test_case "classification + derived core" `Quick test_classification;
    test_spec_sound;
    test_executor_serializable;
    Alcotest.test_case "derived lock scheme" `Quick test_lock_scheme;
  ]
