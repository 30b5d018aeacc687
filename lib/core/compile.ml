(** The spec compiler: zero-allocation conflict checks.

    Detectors evaluate the same handful of commutativity conditions
    millions of times.  The oracle, {!Formula.eval}, walks the AST and
    needs a {!Formula.env} per check — an argument closure, a return
    closure, an [sfun]/[vfun] closure and the record itself — and resolves
    every [Vfun] through [List.assoc].  On a state-free condition that is
    pure overhead: nothing in the check depends on anything but the two
    invocation records.

    This module specializes each ordered method-pair condition into a flat
    closure [Invocation.t -> Invocation.t -> bool] that reads arguments
    and return values straight out of the records:

    - {b no environment}: state-free conditions ([Formula.is_state_free])
      compile to direct two-invocation code with zero minor-heap
      allocations per check (vfun calls are the one exception — the
      [Value.t list] argument must be built);
    - {b vfuns resolved once}: a spec's value functions are collected into
      an array at compile time and each [Vfun] node captures its slot, so
      no name lookup happens per evaluation;
    - {b state-dependent conditions} (those with [Sfun]s) are recorded as
      [Interp] and evaluated with {!Formula.eval}: they need a
      gatekeeper's log-backed state oracle, and the environment and log
      lookups, not the AST walk, dominate their cost.

    {!Bitmat} is the companion representation change for abstract locks: a
    lock-mode compatibility matrix packed into a [Bytes] bitset, one bit
    per ordered mode pair, replacing the generic [bool array array]
    double-indirection on the acquire path. *)

(* ------------------------------------------------------------------ *)
(* Bit-matrix lock-mode compatibility                                  *)
(* ------------------------------------------------------------------ *)

module Bitmat = struct
  type t = { n : int; bits : Bytes.t }

  let create n =
    if n < 0 then invalid_arg "Compile.Bitmat.create: negative dimension";
    { n; bits = Bytes.make (((n * n) + 7) / 8) '\000' }

  let dim t = t.n

  let index t i j =
    if i < 0 || i >= t.n || j < 0 || j >= t.n then
      invalid_arg
        (Fmt.str "Compile.Bitmat: mode pair (%d,%d) out of range for %d modes"
           i j t.n);
    (i * t.n) + j

  let set t i j b =
    let k = index t i j in
    let byte = Char.code (Bytes.get t.bits (k lsr 3)) in
    let mask = 1 lsl (k land 7) in
    Bytes.set t.bits (k lsr 3)
      (Char.chr (if b then byte lor mask else byte land lnot mask))

  (* The acquire-path read: one multiply, one byte load, one mask.  Bounds
     are enforced by [Bytes.get] (modes come from the lock table, so the
     row/column arithmetic cannot go out of range without the byte index
     doing so too — [n*n] bits never span fewer bytes than any valid k). *)
  let get t i j =
    let k = (i * t.n) + j in
    Char.code (Bytes.get t.bits (k lsr 3)) land (1 lsl (k land 7)) <> 0

  let of_matrix m =
    let n = Array.length m in
    let t = create n in
    Array.iteri
      (fun i row ->
        if Array.length row <> n then
          invalid_arg "Compile.Bitmat.of_matrix: ragged matrix";
        Array.iteri (fun j b -> if b then set t i j true) row)
      m;
    t
end

(* ------------------------------------------------------------------ *)
(* Vfun tables: name lookup at compile time, array slot at run time     *)
(* ------------------------------------------------------------------ *)

type vtable = {
  vnames : string array;
  vimpls : (Value.t list -> Value.t) array;
}

let vtable (spec : Spec.t) : vtable =
  {
    vnames = Array.of_list (List.map fst spec.Spec.vfuns);
    vimpls = Array.of_list (List.map snd spec.Spec.vfuns);
  }

let vfun_slot vt name =
  let rec go i =
    if i >= Array.length vt.vnames then -1
    else if String.equal vt.vnames.(i) name then i
    else go (i + 1)
  in
  go 0

(* ------------------------------------------------------------------ *)
(* Two-invocation term compilation (state-free fast path)               *)
(* ------------------------------------------------------------------ *)

(* Matches Invocation.env's argument accessor exactly: bounds-checked with
   a Value.Type_error, so compiled and interpreted checks fail (and are
   caught) identically.  The error path lives out of line — keeping the
   accessor body tiny is what lets the compiler inline it into the flat
   comparison closures below. *)
let arg_oob (i : Invocation.t) idx =
  Value.type_error "argument index %d out of range for %s" idx
    i.Invocation.meth.Invocation.name

let[@inline] arg_of (i : Invocation.t) idx =
  let a = i.Invocation.args in
  if idx < 0 || idx >= Array.length a then arg_oob i idx
  else Array.unsafe_get a idx

let rec term vt (t : Formula.term) : Invocation.t -> Invocation.t -> Value.t =
  match t with
  | Formula.Arg (Formula.M1, idx) -> fun i1 _ -> arg_of i1 idx
  | Formula.Arg (Formula.M2, idx) -> fun _ i2 -> arg_of i2 idx
  | Formula.Ret Formula.M1 -> fun i1 _ -> i1.Invocation.ret
  | Formula.Ret Formula.M2 -> fun _ i2 -> i2.Invocation.ret
  | Formula.Const v -> fun _ _ -> v
  | Formula.Sfun _ ->
      (* [condition] only sends state-free formulas here. *)
      invalid_arg "Compile.term: state-dependent term in the fast path"
  | Formula.Vfun (name, args) -> (
      let cargs = List.map (term vt) args in
      match vfun_slot vt name with
      | -1 ->
          (* Same behaviour as Spec.vfun on an unknown name, minus the
             per-eval List.assoc walk for the known ones. *)
          fun _ _ -> raise (Formula.Unsupported ("vfun " ^ name))
      | slot -> (
          let f = vt.vimpls.(slot) in
          (* The argument list is the one unavoidable allocation of a vfun
             call; specialize the common arities so it is a single block. *)
          match cargs with
          | [] -> fun _ _ -> f []
          | [ c1 ] -> fun i1 i2 -> f [ c1 i1 i2 ]
          | [ c1; c2 ] -> fun i1 i2 -> f [ c1 i1 i2; c2 i1 i2 ]
          | _ -> fun i1 i2 -> f (List.map (fun c -> c i1 i2) cargs)))
  | Formula.Arith (op, a, b) ->
      let ca = term vt a and cb = term vt b in
      fun i1 i2 -> Formula.arith_op op (ca i1 i2) (cb i1 i2)

(* Leaf flattening: nearly every comparison in a shipped spec is between
   two leaves (argument, return value or constant).  A closure per AST
   node would pay an indirect call per leaf; instead a leaf-vs-leaf
   comparison carries its operands as data and evaluates them through a
   direct match, so the whole comparison is one flat closure. *)
type leaf =
  | La1 of int  (** M1 argument *)
  | La2 of int  (** M2 argument *)
  | Lr1
  | Lr2
  | Lc of Value.t

let leaf_of = function
  | Formula.Arg (Formula.M1, i) -> Some (La1 i)
  | Formula.Arg (Formula.M2, i) -> Some (La2 i)
  | Formula.Ret Formula.M1 -> Some Lr1
  | Formula.Ret Formula.M2 -> Some Lr2
  | Formula.Const v -> Some (Lc v)
  | Formula.Sfun _ | Formula.Vfun _ | Formula.Arith _ -> None

let[@inline] read_leaf l (i1 : Invocation.t) (i2 : Invocation.t) =
  match l with
  | La1 i -> arg_of i1 i
  | La2 i -> arg_of i2 i
  | Lr1 -> i1.Invocation.ret
  | Lr2 -> i2.Invocation.ret
  | Lc v -> v

type flat = { fop : Formula.cmp; fl : leaf; fr : leaf }

let flat_cmp op a b =
  match (leaf_of a, leaf_of b) with
  | Some fl, Some fr -> Some { fop = op; fl; fr }
  | _ -> None

(* Equality with [neg] folding Ne into the same code, and the
   integer-vs-integer case — virtually every footprint clause — paying an
   inline compare instead of a [Value.equal] call.  Identical verdicts by
   definition. *)
let[@inline] veq_xor neg a b =
  (match (a, b) with
  | Value.Int x, Value.Int y -> Int.equal x y
  | _ -> Value.equal a b)
  <> neg

(* Monomorphized comparison closures.  The non-flambda backend inlines
   too little for a generic leaf walker to run at native speed, so each
   common (operator, leaf, leaf) shape gets its own flat closure body.
   Arms whose pattern mirrors the operand order are safe because the
   mirrored operand ([Lc]/[Lr]) cannot raise, so left-to-right
   evaluation-order semantics (argument bounds errors) are preserved. *)
let flat_closure { fop; fl; fr } : Invocation.t -> Invocation.t -> bool =
  match fop with
  | Formula.Eq | Formula.Ne -> (
      let neg = fop = Formula.Ne in
      match (fl, fr) with
      | La1 i, La2 j ->
          (* the footprint-clause shape — worth writing out in full: the
             backend does not reliably inline [arg_of]/[veq_xor] into the
             closure body, and this arm decides almost every check *)
          fun i1 i2 ->
           let a1 = i1.Invocation.args and a2 = i2.Invocation.args in
           if i < 0 || i >= Array.length a1 then (arg_oob i1 i : bool)
           else if j < 0 || j >= Array.length a2 then arg_oob i2 j
           else
             (match (Array.unsafe_get a1 i, Array.unsafe_get a2 j) with
             | Value.Int x, Value.Int y -> Int.equal x y
             | a, b -> Value.equal a b)
             <> neg
      | La2 i, La1 j -> fun i1 i2 -> veq_xor neg (arg_of i2 i) (arg_of i1 j)
      | La1 i, La1 j -> fun i1 _ -> veq_xor neg (arg_of i1 i) (arg_of i1 j)
      | La2 i, La2 j -> fun _ i2 -> veq_xor neg (arg_of i2 i) (arg_of i2 j)
      | La1 i, Lc v | Lc v, La1 i -> fun i1 _ -> veq_xor neg (arg_of i1 i) v
      | La2 i, Lc v | Lc v, La2 i -> fun _ i2 -> veq_xor neg (arg_of i2 i) v
      | Lr1, Lc v | Lc v, Lr1 -> fun i1 _ -> veq_xor neg i1.Invocation.ret v
      | Lr2, Lc v | Lc v, Lr2 -> fun _ i2 -> veq_xor neg i2.Invocation.ret v
      | Lr1, Lr2 | Lr2, Lr1 ->
          fun i1 i2 -> veq_xor neg i1.Invocation.ret i2.Invocation.ret
      | La1 i, Lr1 | Lr1, La1 i ->
          fun i1 _ -> veq_xor neg (arg_of i1 i) i1.Invocation.ret
      | La1 i, Lr2 | Lr2, La1 i ->
          fun i1 i2 -> veq_xor neg (arg_of i1 i) i2.Invocation.ret
      | La2 i, Lr1 | Lr1, La2 i ->
          fun i1 i2 -> veq_xor neg (arg_of i2 i) i1.Invocation.ret
      | La2 i, Lr2 | Lr2, La2 i ->
          fun _ i2 -> veq_xor neg (arg_of i2 i) i2.Invocation.ret
      | Lr1, Lr1 | Lr2, Lr2 -> fun _ _ -> not neg
      | Lc a, Lc b ->
          let r = veq_xor neg a b in
          fun _ _ -> r)
  | op ->
      (* ordered comparisons between plain leaves are rare in shipped
         specs (ordering usually goes through a vfun like [dist], which
         is not a leaf); the generic reader is fine here *)
      fun i1 i2 -> Formula.cmp_op op (read_leaf fl i1 i2) (read_leaf fr i1 i2)

let compile_cmp vt op a b : Invocation.t -> Invocation.t -> bool =
  match flat_cmp op a b with
  (* leaf vs leaf — one flat closure, no inner calls *)
  | Some fl -> flat_closure fl
  | None -> (
      let ca = term vt a and cb = term vt b in
      match op with
      | Formula.Eq -> fun i1 i2 -> Value.equal (ca i1 i2) (cb i1 i2)
      | Formula.Ne -> fun i1 i2 -> not (Value.equal (ca i1 i2) (cb i1 i2))
      | op -> fun i1 i2 -> Formula.cmp_op op (ca i1 i2) (cb i1 i2))

let rec formula vt (f : Formula.t) : Invocation.t -> Invocation.t -> bool =
  match f with
  | Formula.True -> fun _ _ -> true
  | Formula.False -> fun _ _ -> false
  | Formula.Cmp (op, a, b) -> compile_cmp vt op a b
  | Formula.Not f ->
      let c = formula vt f in
      fun i1 i2 -> not (c i1 i2)
  | Formula.And (a, b) ->
      let ca = formula vt a and cb = formula vt b in
      fun i1 i2 -> ca i1 i2 && cb i1 i2
  | Formula.Or (a, b) ->
      let ca = formula vt a and cb = formula vt b in
      fun i1 i2 -> ca i1 i2 || cb i1 i2

(* ------------------------------------------------------------------ *)
(* Compiled checks and compiled specs                                   *)
(* ------------------------------------------------------------------ *)

type check =
  | Static of bool
  | Fast of (Invocation.t -> Invocation.t -> bool)
  | Interp of Formula.t

let kind = function
  | Static b -> if b then "static-true" else "static-false"
  | Fast _ -> "fast"
  | Interp _ -> "interp"

let condition_with vt (f : Formula.t) : check =
  match f with
  | Formula.True -> Static true
  | Formula.False -> Static false
  | f when Formula.is_state_free f -> Fast (formula vt f)
  | f -> Interp f

type t = {
  spec : Spec.t;
  vt : vtable;
  table : (string * string, check) Hashtbl.t;
}

let of_spec (spec : Spec.t) : t =
  let vt = vtable spec in
  let table = Hashtbl.create 32 in
  List.iter
    (fun ((m1, m2), f) -> Hashtbl.replace table (m1, m2) (condition_with vt f))
    (Spec.all_conditions spec);
  { spec; vt; table }

let spec t = t.spec
let vfun_names t = Array.copy t.vt.vnames

(* Unspecified pairs default to [false], exactly like Spec.cond. *)
let condition t ~first ~second =
  match Hashtbl.find_opt t.table (first, second) with
  | Some c -> c
  | None -> Static false

let conditions t =
  Hashtbl.fold (fun k c acc -> (k, c) :: acc) t.table []
  |> List.sort (fun (k1, _) (k2, _) -> Stdlib.compare (k1 : string * string) k2)

let check_pure t (c : check) (i1 : Invocation.t) (i2 : Invocation.t) : bool =
  match c with
  | Static b -> b
  | Fast f -> f i1 i2
  | Interp f ->
      Formula.eval
        (Invocation.env
           ~sfun:(fun name _ _ _ -> raise (Formula.Unsupported name))
           ~vfun:(Spec.vfun t.spec) i1 i2)
        f

(* ------------------------------------------------------------------ *)
(* Single-invocation key compilation (lock keys, shard keys)            *)
(* ------------------------------------------------------------------ *)

(* Semantics match the env-based key evaluators these replace (see
   Footprint/Abstract_lock): any side's Arg reads the one invocation's
   argument array directly, Ret reads its return slot, Sfuns are
   unsupported (keys are state-free by construction). *)
let rec key_term vt (t : Formula.term) : Invocation.t -> Value.t =
  match t with
  | Formula.Arg (_, idx) -> fun inv -> inv.Invocation.args.(idx)
  | Formula.Ret _ -> fun inv -> inv.Invocation.ret
  | Formula.Const v -> fun _ -> v
  | Formula.Sfun (name, _, _) -> fun _ -> raise (Formula.Unsupported name)
  | Formula.Vfun (name, args) -> (
      let cargs = List.map (key_term vt) args in
      match vfun_slot vt name with
      | -1 -> fun _ -> raise (Formula.Unsupported ("vfun " ^ name))
      | slot -> (
          let f = vt.vimpls.(slot) in
          match cargs with
          | [] -> fun _ -> f []
          | [ c1 ] -> fun inv -> f [ c1 inv ]
          | [ c1; c2 ] -> fun inv -> f [ c1 inv; c2 inv ]
          | _ -> fun inv -> f (List.map (fun c -> c inv) cargs)))
  | Formula.Arith (op, a, b) ->
      let ca = key_term vt a and cb = key_term vt b in
      fun inv -> Formula.arith_op op (ca inv) (cb inv)

let key spec t = key_term (vtable spec) t
