(** Boruvka's minimum-spanning-tree algorithm, the paper's general
    gatekeeping case study (§5).

    Each graph node starts as its own component; the operator picks a
    component, finds the lightest edge leaving it, merges the two
    components (a [union] on the shared {!Commlat_adts.Union_find}
    structure) and adds the edge to the MST.  Component membership queries
    and merges go through a conflict detector over the union-find ADT:

    - [uf-gk]: the general gatekeeper built from the Fig. 5 specification
      (conditions (1)–(2) need state rollback);
    - [uf-ml]: the STM baseline detecting conflicts on the concrete
      parent/rank cells — where path compression makes semantically
      read-only [find]s collide.

    Component edge lists are auxiliary shared state; the paper "used
    boosted objects wherever possible" for exactly such structures, so they
    are protected by their own synthesized abstract-lock detector (methods
    [scan r] / [merge r r'] with SIMPLE rep-disequality conditions) composed
    with the union-find detector through {!Commlat_core.Detector.compose}. *)

open Commlat_core
open Commlat_adts
open Commlat_runtime

(* The boosted component-edge map: [scan r] reads representative [r]'s
   candidate list; [merge a b] rewrites the lists of both representatives.
   The induced locking is read/write locks on representatives. *)
let m_scan = Invocation.meth ~mutates:false "scan" 1
let m_merge = Invocation.meth "merge" 2

let comp_spec () =
  let open Formula in
  let s = Spec.create ~adt:"comp_edges" [ m_scan; m_merge ] in
  Spec.add_sym s "scan" "scan" True;
  Spec.add_sym s "scan" "merge" (ne (arg1 0) (arg2 0) &&& ne (arg1 0) (arg2 1));
  Spec.add_sym s "merge" "merge"
    (ne (arg1 0) (arg2 0) &&& ne (arg1 0) (arg2 1) &&& ne (arg1 1) (arg2 0)
    &&& ne (arg1 1) (arg2 1));
  s

type t = {
  uf : Union_find.t;
  aux : Detector.t;  (** protects [comp_edges] and [mst] *)
  mutable comp_edges : (int * int * int) list array;
      (** per representative: candidate outgoing edges (u, v, w) *)
  mutable mst : (int * int * int) list;
  mu : Mutex.t;  (** memory safety for the domain executor *)
  (* union-find backend: the plain structure by default, or the partially
     persistent wrapper (create_versioned) whose exec/undo also maintain
     the version index *)
  exec_inv : Invocation.t -> Value.t;
  undo_inv : Invocation.t -> unit;
}

let mk ~(mesh : Mesh.t) uf exec_inv undo_inv =
  let comp_edges = Array.make mesh.Mesh.nodes [] in
  Array.iter
    (fun (u, v, w) ->
      comp_edges.(u) <- (u, v, w) :: comp_edges.(u);
      comp_edges.(v) <- (u, v, w) :: comp_edges.(v))
    mesh.Mesh.edges;
  {
    uf;
    aux =
      Protect.protect ~spec:(comp_spec ()) ~adt:(Protect.adt ())
        Protect.Abstract_lock;
    comp_edges;
    mst = [];
    mu = Mutex.create ();
    exec_inv;
    undo_inv;
  }

let create ~(mesh : Mesh.t) () =
  let uf = Union_find.create ~capacity:mesh.Mesh.nodes () in
  ignore (Union_find.create_elements uf mesh.Mesh.nodes);
  mk ~mesh uf (Union_find.exec_logged uf) (Union_find.undo uf)

(** Boruvka over the partially persistent union-find: the general
    gatekeeper built from {!Union_find_versioned.hooks} then answers its
    past-state queries without rollback.  Returns the app state and the
    versioned structure (whose [base] is [t.uf]). *)
let create_versioned ~(mesh : Mesh.t) () =
  let vt = Union_find_versioned.create ~capacity:mesh.Mesh.nodes () in
  ignore (Union_find_versioned.create_elements vt mesh.Mesh.nodes);
  let t =
    mk ~mesh
      (Union_find_versioned.base vt)
      (Union_find_versioned.exec_logged vt)
      (Union_find_versioned.undo vt)
  in
  (t, vt)

(** The detector to hand to an executor: the union-find detector composed
    with the component-map detector, so commits/aborts release both. *)
let full_detector (t : t) (uf_det : Detector.t) : Detector.t =
  Detector.compose [ uf_det; t.aux ]

(* Both methods run through {!Boost}: the rollback action (replaying the
   invocation's concrete write log backwards) is registered before the
   detector executes the method, so a post-execution conflict still rolls
   back.  [find] needs this too — path compression writes. *)

(* Finds use the full descriptor: compression writes go into the general
   gatekeeper's rollback log so its sweeps can reconstruct any active
   invocation's pre-state exactly.  The light descriptor
   ({!Union_find.m_find_light}) is only sound under detectors that never
   sweep — with truly concurrent domains, an admitted find can compress
   across a committed-but-still-sweepable attach edge. *)
let uf_find det (t : t) (txn : Txn.t) x =
  Value.to_int
    (Boost.invoke det txn ~undo:t.undo_inv Union_find.m_find
       [| Value.Int x |] t.exec_inv)

(* Returns (merged, merge): [merge] is [Some (winner, loser)] when two
   components were joined. *)
let uf_union det (t : t) (txn : Txn.t) a b =
  let inv =
    Invocation.make ~txn:(Txn.id txn) Union_find.m_union
      [| Value.Int a; Value.Int b |]
  in
  Txn.register_guards txn det.Detector.txn_guards;
  Txn.push_undo txn (fun () -> t.undo_inv inv);
  let r = det.Detector.on_invoke inv (fun () -> t.exec_inv inv) in
  (* the write log lives in the base structure either way; read it under
     the detector's guards — concurrent invocations resize the log table *)
  let merge =
    Guard.protect_all det.Detector.guards (fun () -> Union_find.merge_of t.uf inv)
  in
  (Value.to_bool r, merge)

(** One transaction: contract one component. The item is a node whose
    component we try to contract; stale items (nodes that are no longer
    representatives) retire immediately. *)
let operator (t : t) (det : Detector.t) (txn : Txn.t) (item : int) : int list =
  let rep = uf_find det t txn item in
  if rep <> item then [] (* merged away; the winning component carries on *)
  else begin
    (* lock the component's candidate list (boosted read) before scanning *)
    ignore
      (Boost.invoke_ro t.aux txn m_scan [| Value.Int rep |] (fun _ -> Value.Unit));
    let lightest = ref None in
    let survivors = ref [] in
    List.iter
      (fun (u, v, w) ->
        let ru = uf_find det t txn u in
        let rv = uf_find det t txn v in
        if ru <> rv then begin
          survivors := (u, v, w) :: !survivors;
          match !lightest with
          | Some (_, _, _, wmin) when wmin <= w -> ()
          | _ -> lightest := Some (u, v, (if ru = rep then rv else ru), w)
        end)
      t.comp_edges.(rep);
    match !lightest with
    | None -> [] (* spanning tree of this component is complete *)
    | Some (u, v, other_rep, w) ->
        ignore other_rep;
        let merged, merge = uf_union det t txn u v in
        if not merged then
          (* cannot happen: a concurrent union displacing ru or rv would
             have conflicted with our finds *)
          invalid_arg "boruvka: chosen edge no longer crosses components";
        let new_rep, lost_rep =
          match merge with
          | Some (winner, loser) -> (winner, loser)
          | None -> invalid_arg "boruvka: merged union has no attach record"
        in
        (* boosted write of both components' candidate lists *)
        ignore
          (Boost.invoke t.aux txn
             ~undo:(fun _ -> ())
             m_merge
             [| Value.Int new_rep; Value.Int lost_rep |]
             (fun _ -> Value.Unit));
        Mutex.protect t.mu (fun () ->
            let old_new = t.comp_edges.(new_rep)
            and old_lost = t.comp_edges.(lost_rep)
            and old_mst = t.mst in
            Txn.push_undo txn (fun () ->
                Mutex.protect t.mu (fun () ->
                    t.comp_edges.(new_rep) <- old_new;
                    t.comp_edges.(lost_rep) <- old_lost;
                    t.mst <- old_mst));
            (* survivors of the scanned list, minus the chosen edge, plus
               the loser's list (pruned when next scanned) *)
            let keep =
              List.filter (fun (a, b, w') -> not (a = u && b = v && w' = w)) !survivors
            in
            let donor = if lost_rep = rep then old_new else old_lost in
            t.comp_edges.(new_rep) <- keep @ donor;
            t.comp_edges.(lost_rep) <- [];
            t.mst <- (u, v, w) :: old_mst);
        [ new_rep ]
  end

let mst_weight mst = List.fold_left (fun acc (_, _, w) -> acc + w) 0 mst
