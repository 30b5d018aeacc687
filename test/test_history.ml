(* Ground-truth validation of the example commutativity specifications
   against Definition 1, plus tests of the serializability oracle itself.

   The central claims checked here:
   - Fig. 2 (set, precise): the condition is true IFF the invocations
     commute (precision);
   - Fig. 3 / exclusive / partitioned: the condition implies commutativity
     (soundness of strengthened specs);
   - Fig. 4 (kd-tree): soundness;
   - Fig. 5 (union-find): soundness at the level of the partition abstract
     state (the paper treats representatives/ranks as auxiliary "hidden"
     state — §2.2's discussion — so the oracle's union-find snapshot is the
     partition, not the concrete forest). *)

open Commlat_core
open Commlat_adts

let check_bool = Alcotest.(check bool)

(* ------------------------------------------------------------- *)
(* Oracle sanity                                                  *)
(* ------------------------------------------------------------- *)

let test_permutations () =
  Alcotest.(check int) "3! perms" 6 (List.length (History.permutations [ 1; 2; 3 ]));
  Alcotest.(check int) "0! perms" 1 (List.length (History.permutations []))

let mk_inv ~txn meth args ret =
  let i = Invocation.make ~txn meth (Array.of_list args) in
  i.Invocation.ret <- ret;
  i

let test_oracle_set () =
  let model = Iset.model () in
  (* t1: add 1 -> true; t2: contains 1 -> false. Serializable as t2;t1. *)
  let h =
    [
      mk_inv ~txn:1 Iset.m_add [ Value.Int 1 ] (Value.Bool true);
      mk_inv ~txn:2 Iset.m_contains [ Value.Int 1 ] (Value.Bool false);
    ]
  in
  let final = Value.List [ Value.Int 1 ] in
  check_bool "serializable" true (History.serializable model ~final h);
  Alcotest.(check (option (list int)))
    "witness order" (Some [ 2; 1 ])
    (History.serialization_witness model ~final h);
  (* interleaving with contradictory observations: t1 adds 1 (true), t2
     sees 1 present AND sees 2 absent after t1 added 2 -> craft an
     impossible pair *)
  let bad =
    [
      mk_inv ~txn:1 Iset.m_add [ Value.Int 1 ] (Value.Bool true);
      mk_inv ~txn:2 Iset.m_contains [ Value.Int 1 ] (Value.Bool true);
      mk_inv ~txn:2 Iset.m_add [ Value.Int 1 ] (Value.Bool true);
    ]
  in
  check_bool "non-serializable observations rejected" false
    (History.serializable model ~final bad)

let test_commute_in_state () =
  let model = Iset.model () in
  check_bool "adds of same element on empty set do not commute... " true
    (* both return true in one order? no: second add returns false; swapped
       the other returns false: return values differ -> not commuting *)
    (not
       (History.commute_in_state model ~prefix:[]
          (Iset.m_add.Invocation.name, [ Value.Int 1 ])
          (Iset.m_add.Invocation.name, [ Value.Int 1 ])));
  check_bool "adds of same element on a set that has it commute" true
    (History.commute_in_state model
       ~prefix:[ ("add", [ Value.Int 1 ]) ]
       ("add", [ Value.Int 1 ])
       ("add", [ Value.Int 1 ]));
  check_bool "contains/contains commute" true
    (History.commute_in_state model ~prefix:[] ("contains", [ Value.Int 1 ])
       ("contains", [ Value.Int 2 ]))

(* ------------------------------------------------------------- *)
(* Set: Fig. 2 is precise, Fig. 3 is sound                        *)
(* ------------------------------------------------------------- *)

(* Evaluate a state-free set condition given concrete args and the return
   values observed when running (m1; m2) from the prefix state. *)
let eval_set_cond spec m1 a1 m2 a2 ~prefix =
  let model = Iset.model () in
  model.History.reset ();
  List.iter
    (fun (m, args) -> ignore (model.History.apply m (Array.of_list args)))
    prefix;
  let r1 = model.History.apply m1 [| a1 |] in
  let r2 = model.History.apply m2 [| a2 |] in
  let env =
    Formula.env
      ~vfun:(Spec.vfun spec)
      ~arg:(fun side _ -> match side with Formula.M1 -> a1 | Formula.M2 -> a2)
      ~ret:(function Formula.M1 -> r1 | Formula.M2 -> r2)
      ()
  in
  Formula.eval env (Spec.cond spec ~first:m1 ~second:m2)

let gen_set_case =
  let open QCheck.Gen in
  let meth = oneofl [ "add"; "remove"; "contains" ] in
  let elt = map (fun i -> Value.Int i) (int_bound 2) in
  let prefix_op = pair meth (map (fun e -> [ e ]) elt) in
  QCheck.make
    ~print:(fun (m1, a1, m2, a2, prefix) ->
      Fmt.str "%s(%a); %s(%a) after %d prefix ops" m1 Value.pp a1 m2 Value.pp a2
        (List.length prefix))
    (tup5 meth elt meth elt (list_size (int_bound 4) prefix_op))

let test_fig2_precise =
  QCheck.Test.make ~name:"Fig.2 set condition is precise (iff ground truth)"
    ~count:2000 gen_set_case (fun (m1, a1, m2, a2, prefix) ->
      let spec = Iset.precise_spec () in
      let cond = eval_set_cond spec m1 a1 m2 a2 ~prefix in
      let model = Iset.model () in
      let truth = History.commute_in_state model ~prefix (m1, [ a1 ]) (m2, [ a2 ]) in
      cond = truth)

let sound_spec_test name specf =
  QCheck.Test.make ~name ~count:1000 gen_set_case (fun (m1, a1, m2, a2, prefix) ->
      let spec = specf () in
      let cond = eval_set_cond spec m1 a1 m2 a2 ~prefix in
      let model = Iset.model () in
      (not cond)
      || History.commute_in_state model ~prefix (m1, [ a1 ]) (m2, [ a2 ]))

let test_fig3_sound = sound_spec_test "Fig.3 set condition is sound" Iset.simple_spec

let test_excl_sound =
  sound_spec_test "exclusive set condition is sound" Iset.exclusive_spec

let test_part_sound =
  sound_spec_test "partitioned set condition is sound" (fun () ->
      Iset.partitioned_spec ~nparts:2 ())

(* Fig. 3 is strictly incomplete: double add of a present element commutes
   but is rejected. *)
let test_fig3_incomplete () =
  let spec = Iset.simple_spec () in
  let prefix = [ ("add", [ Value.Int 1 ]) ] in
  let cond = eval_set_cond spec "add" (Value.Int 1) "add" (Value.Int 1) ~prefix in
  let model = Iset.model () in
  let truth =
    History.commute_in_state model ~prefix
      ("add", [ Value.Int 1 ])
      ("add", [ Value.Int 1 ])
  in
  check_bool "rejected" false cond;
  check_bool "but commutes" true truth

(* ------------------------------------------------------------- *)
(* Kd-tree: Fig. 4 soundness                                      *)
(* ------------------------------------------------------------- *)

let grid_point =
  (* small grid so collisions and close neighbours happen *)
  QCheck.Gen.(
    map2
      (fun x y -> Value.Point [| float_of_int x; float_of_int y |])
      (int_bound 3) (int_bound 3))

let gen_kd_case =
  let open QCheck.Gen in
  let meth = oneofl [ "add"; "remove"; "nearest"; "contains" ] in
  let prefix_op = map (fun p -> ("add", [ p ])) grid_point in
  QCheck.make
    ~print:(fun (m1, a1, m2, a2, prefix) ->
      Fmt.str "%s(%a); %s(%a) after %d adds" m1 Value.pp a1 m2 Value.pp a2
        (List.length prefix))
    (tup5 meth grid_point meth grid_point (list_size (int_bound 5) prefix_op))

let test_kdtree_sound =
  QCheck.Test.make ~name:"Fig.4 kd-tree conditions are sound" ~count:2000
    gen_kd_case (fun (m1, a1, m2, a2, prefix) ->
      let spec = Kdtree.spec () in
      let model = Kdtree.model ~dims:2 () in
      model.History.reset ();
      List.iter
        (fun (m, args) -> ignore (model.History.apply m (Array.of_list args)))
        prefix;
      let r1 = model.History.apply m1 [| a1 |] in
      let r2 = model.History.apply m2 [| a2 |] in
      let env =
        Formula.env
          ~vfun:(Spec.vfun spec)
          ~arg:(fun side _ -> match side with Formula.M1 -> a1 | Formula.M2 -> a2)
          ~ret:(function Formula.M1 -> r1 | Formula.M2 -> r2)
          ()
      in
      let cond = Formula.eval env (Spec.cond spec ~first:m1 ~second:m2) in
      (not cond)
      || History.commute_in_state model ~prefix (m1, [ a1 ]) (m2, [ a2 ]))

(* ------------------------------------------------------------- *)
(* Union-find: Fig. 5 soundness (partition-level)                 *)
(* ------------------------------------------------------------- *)

let gen_uf_case =
  let open QCheck.Gen in
  let elt = int_bound 5 in
  let meth = oneofl [ "union"; "find" ] in
  let args_of m = match m with "union" -> map2 (fun a b -> [ a; b ]) elt elt | _ -> map (fun a -> [ a ]) elt in
  let case =
    meth >>= fun m1 ->
    meth >>= fun m2 ->
    args_of m1 >>= fun a1 ->
    args_of m2 >>= fun a2 ->
    list_size (int_bound 4) (map2 (fun a b -> (a, b)) elt elt) >>= fun prefix ->
    return (m1, a1, m2, a2, prefix)
  in
  QCheck.make
    ~print:(fun (m1, a1, m2, a2, prefix) ->
      Fmt.str "%s(%a); %s(%a) after %d unions" m1
        Fmt.(Dump.list int)
        a1 m2
        Fmt.(Dump.list int)
        a2 (List.length prefix))
    case

let test_uf_sound =
  QCheck.Test.make ~name:"Fig.5 union-find conditions are sound (partition level)"
    ~count:2000 gen_uf_case (fun (m1, a1, m2, a2, prefix) ->
      (* build the prefix state on a scratch structure to evaluate the
         s1-dependent condition eagerly *)
      let uf = Union_find.create () in
      ignore (Union_find.create_elements uf 6);
      List.iter (fun (a, b) -> ignore (Union_find.union uf a b)) prefix;
      let sfun name state args _t =
        ignore state;
        Union_find.sfun uf name args
      in
      (* (union,union) and (union,find) use no return values; (find,union)
         needs r1, and find leaves the abstract state unchanged, so
         applying the find before evaluating is safe. *)
      let r1 =
        if m1 = "find" then Value.Int (Union_find.find uf (List.hd a1)) else Value.Unit
      in
      let env =
        Formula.env ~sfun
          ~arg:(fun side i ->
            let l = match side with Formula.M1 -> a1 | Formula.M2 -> a2 in
            Value.Int (List.nth l i))
          ~ret:(function Formula.M1 -> r1 | Formula.M2 -> Value.Unit)
          ()
      in
      let spec = Union_find.spec () in
      let cond =
        match Formula.eval env (Spec.cond spec ~first:m1 ~second:m2) with
        | b -> b
        | exception (Formula.Unsupported _ | Value.Type_error _) -> false
      in
      let vargs l = List.map (fun i -> Value.Int i) l in
      let model = Union_find.model ~elements:6 () in
      let prefix_ops = List.map (fun (a, b) -> ("union", vargs [ a; b ])) prefix in
      (not cond)
      || History.commute_in_state model ~prefix:prefix_ops (m1, vargs a1)
           (m2, vargs a2))

(* ------------------------------------------------------------- *)
(* The grouped, lazy oracle agrees with every-permutation replay  *)
(* ------------------------------------------------------------- *)

(* The list-based oracle the grouped one replaced, kept as the
   reference: build every permutation of the transaction ids up front,
   and replay each by filtering the whole history once per transaction. *)
let rec ref_permutations = function
  | [] -> [ [] ]
  | l ->
      List.concat_map
        (fun x ->
          let rest = List.filter (fun y -> y <> x) l in
          List.map (fun p -> x :: p) (ref_permutations rest))
        l

let ref_replay (model : History.model) history order =
  model.History.reset ();
  let serial =
    List.concat_map
      (fun txn -> List.filter (fun (i : Invocation.t) -> i.txn = txn) history)
      order
  in
  let ok =
    List.for_all
      (fun (i : Invocation.t) ->
        Value.equal (model.History.apply i.meth.name i.args) i.ret)
      serial
  in
  if ok then Some (model.History.snapshot ()) else None

let ref_witness model ~final history =
  let txns =
    List.sort_uniq Int.compare
      (List.map (fun (i : Invocation.t) -> i.txn) history)
  in
  List.find_opt
    (fun order ->
      match ref_replay model history order with
      | Some s -> Value.equal s final
      | None -> false)
    (ref_permutations txns)

(* A history of 2-4 transactions of 1-3 set invocations on keys 0-2, or
   of union-find union/find invocations over 4 elements, interleaved at
   random (each transaction keeps its program order), with distinct
   transaction ids in random order.  Half the cases record the returns
   and final state of a random serial order; the other half record
   random returns and the state some random operations reach, so most of
   those are not serializable. *)
let gen_oracle_case =
  let open QCheck.Gen in
  let set_op =
    map2
      (fun m k -> (m, [| Value.Int k |]))
      (oneofl [ Iset.m_add; Iset.m_remove; Iset.m_contains ])
      (int_bound 2)
  in
  let uf_op =
    oneof
      [
        map2
          (fun a b -> (Union_find.m_union, [| Value.Int a; Value.Int b |]))
          (int_bound 3) (int_bound 3);
        map (fun a -> (Union_find.m_find, [| Value.Int a |])) (int_bound 3);
      ]
  in
  let random_ret (m : Invocation.meth) =
    if m.Invocation.name = "find" then map (fun i -> Value.Int i) (int_bound 3)
    else map (fun b -> Value.Bool b) bool
  in
  oneofl
    [
      ("set", (fun () -> Iset.model ()), set_op);
      ("union-find", (fun () -> Union_find.model ~elements:4 ()), uf_op);
    ]
  >>= fun (adt, model, op) ->
  int_range 2 4 >>= fun n ->
  list_repeat n (list_size (int_range 1 3) op) >>= fun txns ->
  shuffle_l (List.init n (fun t -> (3 * t) + 1)) >>= fun ids ->
  bool >>= fun consistent ->
  shuffle_l (List.init n Fun.id) >>= fun serial ->
  list_size (int_bound 4) op >>= fun final_ops ->
  let txns = Array.of_list txns and ids = Array.of_list ids in
  let inv t (meth : Invocation.meth) args ret =
    let i = Invocation.make ~txn:ids.(t) meth args in
    i.Invocation.ret <- ret;
    i
  in
  (if consistent then begin
     let m = model () in
     let invs = Array.make n [] in
     List.iter
       (fun t ->
         invs.(t) <-
           List.map
             (fun ((meth : Invocation.meth), args) ->
               inv t meth args (m.History.apply meth.Invocation.name args))
             txns.(t))
       serial;
     return (invs, m.History.snapshot ())
   end
   else
     flatten_l
       (List.init n (fun t ->
            flatten_l
              (List.map
                 (fun (meth, args) -> map (inv t meth args) (random_ret meth))
                 txns.(t))))
     >>= fun invs ->
     let m = model () in
     List.iter
       (fun ((meth : Invocation.meth), args) ->
         ignore (m.History.apply meth.Invocation.name args))
       final_ops;
     return (Array.of_list invs, m.History.snapshot ()))
  >>= fun (invs, final) ->
  let total = Array.fold_left (fun acc l -> acc + List.length l) 0 invs in
  list_repeat total (int_bound (n - 1)) >>= fun picks ->
  (* each pick takes the next invocation of the first transaction, from
     the picked one on, that has any left *)
  let rec take t =
    match invs.(t) with
    | i :: rest ->
        invs.(t) <- rest;
        i
    | [] -> take ((t + 1) mod n)
  in
  return (adt, model, List.map take picks, final)

let test_oracle_matches_reference =
  QCheck.Test.make ~name:"grouped oracle agrees with every-permutation replay"
    ~count:1000
    (QCheck.make
       ~print:(fun (adt, _, history, final) ->
         Fmt.str "%s: %a -> %a" adt
           Fmt.(list ~sep:semi Invocation.pp)
           history Value.pp final)
       gen_oracle_case)
    (fun (_, model, history, final) ->
      let expected = ref_witness (model ()) ~final history in
      History.serialization_witness (model ()) ~final history = expected
      && History.serializable (model ()) ~final history
         = Option.is_some expected)

(* A union-find model reset in place after any applies, [create]
   included, snapshots and replays exactly like a fresh model. *)
let test_uf_model_reset =
  let op =
    QCheck.Gen.(
      oneof
        [
          map2
            (fun a b -> ("union", [| Value.Int a; Value.Int b |]))
            (int_bound 3) (int_bound 3);
          map (fun a -> ("find", [| Value.Int a |])) (int_bound 3);
          return ("create", [||]);
        ])
  in
  QCheck.Test.make ~name:"union-find model resets in place like a fresh one"
    ~count:500
    (QCheck.make
       ~print:(fun (before, after) ->
         Fmt.str "%d ops, reset, %d ops" (List.length before)
           (List.length after))
       QCheck.Gen.(pair (list_size (int_bound 8) op) (list_size (int_bound 8) op)))
    (fun (before, after) ->
      let m = Union_find.model ~elements:4 () in
      List.iter (fun (name, args) -> ignore (m.History.apply name args)) before;
      m.History.reset ();
      let fresh = Union_find.model ~elements:4 () in
      Value.equal (m.History.snapshot ()) (fresh.History.snapshot ())
      && List.for_all
           (fun (name, args) ->
             Value.equal (m.History.apply name args)
               (fresh.History.apply name args))
           after
      && Value.equal (m.History.snapshot ()) (fresh.History.snapshot ()))

let suite =
  [
    Alcotest.test_case "permutations" `Quick test_permutations;
    Alcotest.test_case "oracle on set histories" `Quick test_oracle_set;
    Alcotest.test_case "commute_in_state basics" `Quick test_commute_in_state;
    QCheck_alcotest.to_alcotest test_fig2_precise;
    QCheck_alcotest.to_alcotest test_fig3_sound;
    QCheck_alcotest.to_alcotest test_excl_sound;
    QCheck_alcotest.to_alcotest test_part_sound;
    Alcotest.test_case "Fig.3 is strictly incomplete" `Quick test_fig3_incomplete;
    QCheck_alcotest.to_alcotest test_kdtree_sound;
    QCheck_alcotest.to_alcotest test_uf_sound;
    QCheck_alcotest.to_alcotest test_oracle_matches_reference;
    QCheck_alcotest.to_alcotest test_uf_model_reset;
  ]
