(** The triangle set — the protected worklist ADT of Delaunay mesh
    refinement (ROADMAP item 5's tuple-based family).

    Elements are integer triangle ids (ids are minted once and never
    reused, so an id {e is} the triangle).  Three methods:

    - [take id] — atomically claim-and-remove a live triangle: [true] iff
      the id was present.  A refinement cavity is claimed by [take]-ing
      every triangle in it; two overlapping cavities race on some shared
      id, exactly one [take] returns [true], and the precise specification
      makes the two takes non-commuting — which is what lets a conflict
      detector serialize cavity operations while disjoint cavities (all
      ids distinct) proceed in parallel.
    - [add id] — publish a freshly created triangle ([true] iff new).
    - [contains id] — liveness test, read-only.

    Semantically [take]/[add]/[contains] are the set ADT's
    [remove]/[add]/[contains] under a claim reading, so the commutativity
    conditions mirror paper Fig. 2/Fig. 3 for the set: the precise spec
    keeps the "both returned false" disjuncts (two failed takes of a dead
    id commute), the SIMPLE spec is argument-disjointness only — the
    per-cavity {e footprint} is the id set, giving sharded detectors their
    keys. *)

open Commlat_core

(* Keyed by int with an identity hash: no [caml_hash] and no polymorphic
   compare per operation.  Ids are minted densely, so they spread evenly
   over the buckets. *)
module Ids = Hashtbl.Make (struct
  type t = int

  let equal = Int.equal
  let hash (id : int) = id
end)

type t = { tbl : unit Ids.t }

let create () = { tbl = Ids.create 16 }

(** An independent set with the same elements. *)
let copy t = { tbl = Ids.copy t.tbl }

let add t id =
  if Ids.mem t.tbl id then false
  else begin
    Ids.replace t.tbl id ();
    true
  end

let take t id =
  if Ids.mem t.tbl id then begin
    Ids.remove t.tbl id;
    true
  end
  else false

let contains t id = Ids.mem t.tbl id
let cardinal t = Ids.length t.tbl

let elements t = Ids.fold (fun id () acc -> id :: acc) t.tbl [] |> List.sort Int.compare
let clear t = Ids.reset t.tbl

(* ------------------------------------------------------------------ *)
(* Methods and specifications                                          *)
(* ------------------------------------------------------------------ *)

let m_take = Invocation.meth "take" 1
let m_add = Invocation.meth "add" 1
let m_contains = Invocation.meth ~mutates:false "contains" 1
let methods = [ m_take; m_add; m_contains ]

let a = Formula.arg1 0
let b = Formula.arg2 0

open struct
  let ne = Formula.ne
  let ( ||| ) = Formula.( ||| )
  let ( &&& ) = Formula.( &&& )
  let ret1 = Formula.ret1
  let ret2 = Formula.ret2
  let cbool = Formula.cbool
  let eq = Formula.eq
end

let neither_modified = eq ret1 (cbool false) &&& eq ret2 (cbool false)

(** The precise specification (the set's Fig. 2 under the claim reading):
    ids differ, or neither invocation changed liveness. *)
let precise_spec () =
  let s = Spec.create ~adt:"triset" methods in
  Spec.add_sym s "take" "take" (ne a b ||| neither_modified);
  Spec.add_sym s "take" "add" (ne a b ||| neither_modified);
  Spec.add_sym s "take" "contains" (ne a b ||| eq ret1 (cbool false));
  Spec.add_sym s "add" "add" (ne a b ||| neither_modified);
  Spec.add_sym s "add" "contains" (ne a b ||| eq ret1 (cbool false));
  Spec.add_sym s "contains" "contains" Formula.True;
  s

(** SIMPLE strengthening: argument disjointness only — implementable with
    abstract locks on ids and the source of the sharded detectors' keys
    (the cavity footprint). *)
let simple_spec () =
  let s = Spec.create ~adt:"triset_rw" methods in
  Spec.add_sym s "take" "take" (ne a b);
  Spec.add_sym s "take" "add" (ne a b);
  Spec.add_sym s "take" "contains" (ne a b);
  Spec.add_sym s "add" "add" (ne a b);
  Spec.add_sym s "add" "contains" (ne a b);
  Spec.add_sym s "contains" "contains" Formula.True;
  s

(* ------------------------------------------------------------------ *)
(* Execution plumbing                                                  *)
(* ------------------------------------------------------------------ *)

let exec (t : t) (name : string) (args : Value.t array) : Value.t =
  match (name, args) with
  | "take", [| Value.Int id |] -> Value.Bool (take t id)
  | "add", [| Value.Int id |] -> Value.Bool (add t id)
  | "contains", [| Value.Int id |] -> Value.Bool (contains t id)
  | _ ->
      Value.type_error "triset: bad invocation %s/%d" name (Array.length args)

(** Run one method through a conflict detector on behalf of [txn]; may
    raise {!Detector.Conflict}. *)
let invoke (det : Detector.t) (t : t) ~txn name id : bool =
  let meth =
    match name with
    | "take" -> m_take
    | "add" -> m_add
    | "contains" -> m_contains
    | _ -> invalid_arg ("triset: no method " ^ name)
  in
  let inv = Invocation.make ~txn meth [| Value.Int id |] in
  Value.to_bool
    (det.Detector.on_invoke inv (fun () -> exec t name inv.Invocation.args))

(** Rollback: a successful [take] is undone by re-adding the id, a
    successful [add] by taking it back out. *)
let undo (t : t) (inv : Invocation.t) =
  match (inv.Invocation.meth.name, inv.Invocation.ret, inv.Invocation.args) with
  | "take", Value.Bool true, [| Value.Int id |] -> ignore (add t id)
  | "add", Value.Bool true, [| Value.Int id |] -> ignore (take t id)
  | _ -> ()

let hooks (t : t) =
  Gatekeeper.hooks
    ~undo:(fun inv -> undo t inv)
    ~redo:(fun inv ->
      ignore (exec t inv.Invocation.meth.name inv.Invocation.args))
    (fun name _ -> raise (Formula.Unsupported ("triset sfun " ^ name)))

(* ------------------------------------------------------------------ *)
(* Abstract state and replay model for the serializability oracle      *)
(* ------------------------------------------------------------------ *)

(** The abstract state, as the model and the oracle encode it: the
    sorted live ids. *)
let snapshot t = Value.List (List.map (fun id -> Value.Int id) (elements t))

(** A replay model whose [reset] returns it to the ids [init] (empty by
    default): a mesh's liveness set is populated by its construction,
    outside any transaction. *)
let model ?(init = []) () : History.model =
  let t = create () in
  let reset () =
    clear t;
    List.iter (fun id -> ignore (add t id)) init
  in
  reset ();
  { History.reset; apply = exec t; snapshot = (fun () -> snapshot t) }
