(** The set ADT of paper §2.3 — methods [add], [remove], [contains] — with
    two concrete implementations sharing one abstract state (a sorted
    linked list and a hash table), its commutativity specifications
    (precise: Fig. 2; strengthened: Fig. 3; exclusive and partitioned:
    §4.1–4.2), gatekeeper hooks and a replay model for the serializability
    oracle.

    [add] and [remove] return a boolean indicating whether the invocation
    modified the set. *)

open Commlat_core

(* ------------------------------------------------------------------ *)
(* Concrete implementations                                            *)
(* ------------------------------------------------------------------ *)

module type IMPL = sig
  type t

  val create : unit -> t
  val add : t -> Value.t -> bool
  val remove : t -> Value.t -> bool
  val contains : t -> Value.t -> bool
  val elements : t -> Value.t list (* sorted; the abstract state *)
  val clear : t -> unit
end

(** Hash-table-backed set: O(1) operations. *)
module Hash_impl : IMPL = struct
  type t = unit Value.Tbl.t

  let create () = Value.Tbl.create 64

  let add t v =
    if Value.Tbl.mem t v then false
    else (
      Value.Tbl.add t v ();
      true)

  let remove t v =
    if Value.Tbl.mem t v then (
      Value.Tbl.remove t v;
      true)
    else false

  let contains t v = Value.Tbl.mem t v
  let elements t = Value.Tbl.fold (fun k () acc -> k :: acc) t [] |> List.sort Value.compare
  let clear t = Value.Tbl.reset t
end

(** Sorted singly-linked list: a deliberately different concrete layout for
    the same abstract state, used to demonstrate that gatekeepers protect
    the {e abstract} data type (paper §3.3: "a gatekeeper constructed to
    protect one abstract data type can protect all implementations"). *)
module List_impl : IMPL = struct
  type node = { value : Value.t; mutable next : node option }
  type t = { mutable head : node option }

  let create () = { head = None }

  (* Position of the first node with value >= v, as (predecessor, node). *)
  let locate t v =
    let rec go prev = function
      | Some n when Value.compare n.value v < 0 -> go (Some n) n.next
      | cur -> (prev, cur)
    in
    go None t.head

  let contains t v =
    match locate t v with Some _, Some n | None, Some n -> Value.equal n.value v | _ -> false

  let add t v =
    match locate t v with
    | _, Some n when Value.equal n.value v -> false
    | None, cur ->
        t.head <- Some { value = v; next = cur };
        true
    | Some p, cur ->
        p.next <- Some { value = v; next = cur };
        true

  let remove t v =
    match locate t v with
    | None, Some n when Value.equal n.value v ->
        t.head <- n.next;
        true
    | Some p, Some n when Value.equal n.value v ->
        p.next <- n.next;
        true
    | _ -> false

  let elements t =
    let rec go acc = function None -> List.rev acc | Some n -> go (n.value :: acc) n.next in
    go [] t.head

  let clear t = t.head <- None
end

(** A set value: a first-class choice of implementation. *)
type t = Set : (module IMPL with type t = 'a) * 'a -> t

let create ?(impl = `Hash) () =
  match impl with
  | `Hash -> Set ((module Hash_impl), Hash_impl.create ())
  | `List -> Set ((module List_impl), List_impl.create ())

let add (Set ((module I), s)) v = I.add s v
let remove (Set ((module I), s)) v = I.remove s v
let contains (Set ((module I), s)) v = I.contains s v
let elements (Set ((module I), s)) = I.elements s
let clear (Set ((module I), s)) = I.clear s
let cardinal t = List.length (elements t)

(* ------------------------------------------------------------------ *)
(* Methods and specifications                                          *)
(* ------------------------------------------------------------------ *)

let m_add = Invocation.meth "add" 1
let m_remove = Invocation.meth "remove" 1
let m_contains = Invocation.meth ~mutates:false "contains" 1
let methods = [ m_add; m_remove; m_contains ]

(* Formula shorthands: [a] is the first invocation's element, [b] the
   second's. *)
let a = Formula.arg1 0
let b = Formula.arg2 0

let neither_modified =
  Formula.(eq ret1 (cbool false) &&& eq ret2 (cbool false))

open struct
  let ne = Formula.ne
  let ( ||| ) = Formula.( ||| )
  let ret1 = Formula.ret1
  let cbool = Formula.cbool
  let eq = Formula.eq
end

(** Fig. 2: the precise specification.  Methods commute if their arguments
    differ or the relevant invocations did not modify the set. *)
let precise_spec () =
  let s = Spec.create ~adt:"set" methods in
  Spec.add_sym s "add" "add" (ne a b ||| neither_modified);
  Spec.add_sym s "add" "remove" (ne a b ||| neither_modified);
  Spec.add_sym s "add" "contains" (ne a b ||| eq ret1 (cbool false));
  Spec.add_sym s "remove" "remove" (ne a b ||| neither_modified);
  Spec.add_sym s "remove" "contains" (ne a b ||| eq ret1 (cbool false));
  Spec.add_sym s "contains" "contains" Formula.True;
  s

(** Fig. 3: the strengthened SIMPLE specification (drops the return-value
    disjuncts), implementable with read/write abstract locks on elements. *)
let simple_spec () =
  let s = Spec.create ~adt:"set_rw" methods in
  Spec.add_sym s "add" "add" (ne a b);
  Spec.add_sym s "add" "remove" (ne a b);
  Spec.add_sym s "add" "contains" (ne a b);
  Spec.add_sym s "remove" "remove" (ne a b);
  Spec.add_sym s "remove" "contains" (ne a b);
  Spec.add_sym s "contains" "contains" Formula.True;
  s

(** §4.1: further strengthened so [contains] no longer self-commutes on
    equal arguments — the induced locking scheme uses exclusive locks. *)
let exclusive_spec () =
  let s = simple_spec () in
  let s = Strengthen.map_conditions ~adt:"set_excl" s Fun.id in
  Spec.add_sym s "contains" "contains" (ne a b);
  s

(** §4.2: partition-based lock coarsening of {!exclusive_spec}: clauses
    [a != b] become [part(a) != part(b)], inducing locks on partitions. *)
let partitioned_spec ~nparts () =
  let part v = Value.Int (Value.hash v mod nparts) in
  Strengthen.partitioned ~adt:(Fmt.str "set_part%d" nparts) ~part_name:"part" ~part
    (exclusive_spec ())

(* ------------------------------------------------------------------ *)
(* Execution plumbing                                                  *)
(* ------------------------------------------------------------------ *)

let exec (t : t) (name : string) (args : Value.t array) : Value.t =
  match (name, args) with
  | "add", [| v |] -> Value.Bool (add t v)
  | "remove", [| v |] -> Value.Bool (remove t v)
  | "contains", [| v |] -> Value.Bool (contains t v)
  | _ -> Value.type_error "set: bad invocation %s/%d" name (Array.length args)

(** Run one method through a conflict detector on behalf of [txn]; returns
    the boolean result.  May raise {!Detector.Conflict}. *)
let invoke (det : Detector.t) (t : t) ~txn name v : bool =
  let meth =
    match name with
    | "add" -> m_add
    | "remove" -> m_remove
    | "contains" -> m_contains
    | _ -> invalid_arg ("set: no method " ^ name)
  in
  let inv = Invocation.make ~txn meth [| v |] in
  Value.to_bool (det.Detector.on_invoke inv (fun () -> exec t name inv.Invocation.args))

(** The inverse action for speculative rollback: undoing an [add] that
    returned [true] removes the element, and vice versa. *)
let undo (t : t) (inv : Invocation.t) =
  match (inv.Invocation.meth.name, inv.Invocation.ret) with
  | "add", Value.Bool true -> ignore (remove t inv.Invocation.args.(0))
  | "remove", Value.Bool true -> ignore (add t inv.Invocation.args.(0))
  | _ -> ()

(** Gatekeeper hooks.  The set specs use no abstract-state functions, so
    only [undo]/[redo] matter (and only for the general gatekeeper, which
    no set spec needs — provided for completeness and tests). *)
let hooks (t : t) =
  Gatekeeper.hooks
    ~undo:(fun inv -> undo t inv)
    ~redo:(fun inv -> ignore (exec t inv.Invocation.meth.name inv.Invocation.args))
    (fun name _ -> raise (Formula.Unsupported ("set sfun " ^ name)))

(* ------------------------------------------------------------------ *)
(* Abstract state and replay model for the serializability oracle      *)
(* ------------------------------------------------------------------ *)

(** The abstract state, as the model and the oracle encode it: the
    sorted elements. *)
let snapshot t = Value.List (elements t)

let model ?impl () : History.model =
  let t = create ?impl () in
  {
    History.reset = (fun () -> clear t);
    apply = exec t;
    snapshot = (fun () -> snapshot t);
  }
