(* Tests of the object-granularity STM baseline, including the paper's
   headline contrast: path-compressed finds conflict at the memory level
   but commute semantically. *)

open Commlat_core
open Commlat_adts
open Commlat_runtime

let check_bool = Alcotest.(check bool)

(* a toy traced "cell array" ADT *)
let mk_cells n =
  let cells = Array.make n 0 in
  fun (tracer : Mem_trace.t) ->
    let read i =
      tracer.Mem_trace.read i;
      cells.(i)
    in
    let write i v =
      tracer.Mem_trace.write i;
      cells.(i) <- v
    in
    (read, write)

(* the STM scheme ignores the spec; route the tracer out through
   Protect.protect as applications do *)
let stm_create () =
  let tr = ref Mem_trace.null in
  let det =
    Protect.protect
      ~spec:(Iset.exclusive_spec ())
      ~adt:(Protect.adt ~connect_tracer:(fun t -> tr := t) ())
      Protect.Stm
  in
  (det, !tr)

let meth_op = Invocation.meth "op" 0

let invoke det txn body =
  let inv = Invocation.make ~txn meth_op [||] in
  det.Detector.on_invoke inv (fun () ->
      body ();
      Value.Unit)

let test_rw_conflicts () =
  let det, tracer = stm_create () in
  let read, write = mk_cells 8 tracer in
  (* txn1 reads cell 0; txn2 writing cell 0 conflicts *)
  ignore (invoke det 1 (fun () -> ignore (read 0)));
  check_bool "w after r conflicts" true
    (match invoke det 2 (fun () -> write 0 5) with
    | _ -> false
    | exception Detector.Conflict _ -> true);
  det.Detector.on_abort 2;
  (* reader/reader share *)
  ignore (invoke det 3 (fun () -> ignore (read 0)));
  det.Detector.on_commit 1;
  det.Detector.on_commit 3;
  (* after release, the writer goes through *)
  ignore (invoke det 4 (fun () -> write 0 5));
  det.Detector.on_commit 4

let test_ww_conflicts () =
  let det, tracer = stm_create () in
  let _read, write = mk_cells 8 tracer in
  ignore (invoke det 1 (fun () -> write 1 1));
  check_bool "w/w conflicts" true
    (match invoke det 2 (fun () -> write 1 2) with
    | _ -> false
    | exception Detector.Conflict _ -> true);
  det.Detector.on_abort 2;
  (* reading a written cell conflicts *)
  let read, _ = mk_cells 8 tracer in
  check_bool "r after w conflicts" true
    (match invoke det 3 (fun () -> ignore (read 1)) with
    | _ -> false
    | exception Detector.Conflict _ -> true)

let test_same_txn_free () =
  let det, tracer = stm_create () in
  let read, write = mk_cells 8 tracer in
  ignore (invoke det 1 (fun () -> write 2 1));
  ignore (invoke det 1 (fun () -> ignore (read 2)));
  ignore (invoke det 1 (fun () -> write 2 3));
  det.Detector.on_commit 1

(* The paper's §1 motivating example: two finds on the same chain commute
   semantically (gatekeeper admits them) but path compression makes them
   collide at the memory level (STM aborts one). *)
let test_find_find_contrast () =
  let mk () =
    let uf = Union_find.create () in
    ignore (Union_find.create_elements uf 8);
    (* 3 -> 2 -> 0: element 3 is at depth two, so the first find(3)
       compresses (a concrete write) and the second find(3) reads the
       written cell *)
    ignore (Union_find.union uf 0 1);
    ignore (Union_find.union uf 2 3);
    ignore (Union_find.union uf 0 2);
    uf
  in
  (* STM: conflict *)
  let uf1 = mk () in
  let det_ml, tracer = stm_create () in
  Union_find.set_tracer uf1 tracer;
  let find det uf txn x =
    let inv = Invocation.make ~txn Union_find.m_find [| Value.Int x |] in
    ignore (det.Detector.on_invoke inv (fun () -> Union_find.exec_logged uf inv))
  in
  find det_ml uf1 1 3;
  let stm_conflict =
    match find det_ml uf1 2 3 with
    | _ -> false
    | exception Detector.Conflict _ -> true
  in
  check_bool "STM: concurrent finds conflict (path compression)" true stm_conflict;
  (* general gatekeeper: no conflict (finds always commute, Fig. 5 (4)) *)
  let uf2 = mk () in
  let det_gk =
    Protect.protect ~spec:(Union_find.spec ())
      ~adt:(Protect.adt ~hooks:(Union_find.hooks uf2) ())
      Protect.General_gk
  in
  find det_gk uf2 1 3;
  find det_gk uf2 2 3;
  det_gk.Detector.on_commit 1;
  det_gk.Detector.on_commit 2;
  check_bool "gatekeeper admits both finds" true true

(* STM-protected histories through the executor remain serializable *)
let test_stm_executor_serializable =
  QCheck.Test.make ~name:"STM-committed set histories are serializable" ~count:40
    QCheck.(
      make
        ~print:(fun l -> Fmt.str "%d txns" (List.length l))
        Gen.(
          list_size
            (int_bound 4 >|= fun n -> n + 2)
            (list_size
               (int_bound 2 >|= fun n -> n + 1)
               (pair (oneofl [ "add"; "remove"; "contains" ]) (int_bound 2)))))
    (fun txn_specs ->
      (* the hash-set impl is not traced, so wrap it in explicit cells: use
         union-find-free approach — trace the set through a cell per key *)
      let det, tracer = stm_create () in
      let set = Iset.create () in
      let recorded = ref [] in
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
              ignore
                (det.Detector.on_invoke inv (fun () ->
                     (* manual per-key cell tracing *)
                     (match m with
                     | "contains" -> tracer.Mem_trace.read v
                     | _ -> tracer.Mem_trace.write v);
                     Iset.exec set m inv.Invocation.args));
              inv)
            ops
        in
        recorded := !recorded @ invs;
        []
      in
      ignore (Executor.run_rounds ~processors:3 ~detector:det ~operator txn_specs);
      History.serializable (Iset.model ()) ~final:(Iset.snapshot set)
        !recorded)

let suite =
  [
    Alcotest.test_case "read/write conflicts" `Quick test_rw_conflicts;
    Alcotest.test_case "write/write conflicts" `Quick test_ww_conflicts;
    Alcotest.test_case "same txn free" `Quick test_same_txn_free;
    Alcotest.test_case "find/find: STM conflicts, gatekeeper admits" `Quick
      test_find_find_contrast;
    QCheck_alcotest.to_alcotest test_stm_executor_serializable;
  ]
