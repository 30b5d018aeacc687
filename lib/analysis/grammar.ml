(** The predicate grammar the commutativity-condition synthesizer draws
    from ("Automatic Generation of Precise and Useful Commutativity
    Conditions", PAPERS.md; ROADMAP item 1).

    Candidate conditions are DNF formulas over a finite set of {e atoms} —
    the (dis)equalities the spec language can express over the two
    invocations' arguments, return values, the registered pure value
    functions, and small constants:

    {v
    v1[i] = v2[j]      v1[i] != v2[j]        cross-invocation arguments
    v1[i] = c          v1[i] != c            arguments vs constants
    r1 = r2            r1 != r2              return values
    r1 = c             r2 != c               returns vs constants
    r1 = f(v1[j])      r2 != f(v2[j])  ...   returns vs value functions
    r1 = v2[j]         r2 != v1[i]    ...    returns vs arguments
    v}

    Every atom is state-free, so every synthesized condition is trivially
    in the undirected (mirrorable) fragment of L1 and round-trips through
    {!Commlat_core.Spec_lang}.  The enumerator canonicalizes: each atom is
    emitted once, with its terms in a fixed orientation, and the whole list
    is sorted by a deterministic cost order (cheap footprint-style argument
    disequalities first — the shape the sharded detectors exploit — then
    return-value observations, then function atoms), so synthesis output
    is reproducible byte-for-byte across runs. *)

open Commlat_core

(* ------------------------------------------------------------------ *)
(* Canonical ordering                                                   *)
(* ------------------------------------------------------------------ *)

let rec term_size = function
  | Formula.Arg _ | Formula.Ret _ | Formula.Const _ -> 1
  | Formula.Sfun (_, _, args) | Formula.Vfun (_, args) ->
      1 + List.fold_left (fun a t -> a + term_size t) 0 args
  | Formula.Arith (_, a, b) -> 1 + term_size a + term_size b

(** Coarse cost classes steering both the canonical order and the
    learner's preference: argument-only atoms are checkable before either
    invocation runs, return atoms need the forward observations, function
    atoms additionally need an interpretation. *)
let atom_rank = function
  | Formula.Cmp (_, l, r) ->
      let rec has_ret = function
        | Formula.Ret _ -> true
        | Formula.Arg _ | Formula.Const _ -> false
        | Formula.Sfun (_, _, args) | Formula.Vfun (_, args) -> List.exists has_ret args
        | Formula.Arith (_, a, b) -> has_ret a || has_ret b
      in
      let rec has_fun = function
        | Formula.Sfun _ | Formula.Vfun _ -> true
        | Formula.Arg _ | Formula.Ret _ | Formula.Const _ -> false
        | Formula.Arith (_, a, b) -> has_fun a || has_fun b
      in
      let f = has_fun l || has_fun r and r' = has_ret l || has_ret r in
      if f then 3 else if r' then 2 else 1
  | _ -> 0

(** Total deterministic order: rank, then size, then the printed form
    (which is injective on canonical atoms). *)
let compare_atom a b =
  let size = function
    | Formula.Cmp (_, l, r) -> term_size l + term_size r
    | _ -> 0
  in
  let c = compare (atom_rank a) (atom_rank b) in
  if c <> 0 then c
  else
    let c = compare (size a) (size b) in
    if c <> 0 then c
    else compare (Formula.to_string a) (Formula.to_string b)

(* ------------------------------------------------------------------ *)
(* Enumeration                                                          *)
(* ------------------------------------------------------------------ *)

let both_polarities l r = [ Formula.eq l r; Formula.ne l r ]

(** The literal values atoms may compare against. *)
let consts = [ Value.Bool false; Value.Bool true; Value.Opt None; Value.Int 0 ]

(** Enumerate the canonical atom list for the ordered method pair
    ([m1], [m2]), comparing against {!consts}; [vfuns] names the unary
    pure value functions available to the spec (e.g. kvmap's [some]). *)
let atoms ?(vfuns = []) (m1 : Invocation.meth) (m2 : Invocation.meth) :
    Formula.t list =
  let open Formula in
  let args1 = List.init m1.Invocation.arity arg1 in
  let args2 = List.init m2.Invocation.arity arg2 in
  let rets = [ ret1; ret2 ] in
  let acc = ref [] in
  let add l r = acc := both_polarities l r @ !acc in
  (* arguments across the two invocations *)
  List.iter (fun a -> List.iter (fun b -> add a b) args2) args1;
  (* arguments vs constants *)
  List.iter
    (fun a -> List.iter (fun c -> add a (const c)) consts)
    (args1 @ args2);
  (* returns: against each other, constants, and the other side's args *)
  add ret1 ret2;
  List.iter (fun r -> List.iter (fun c -> add r (const c)) consts) rets;
  List.iter (fun a -> add ret2 a) args1;
  List.iter (fun a -> add ret1 a) args2;
  List.iter (fun a -> add ret1 a) args1;
  List.iter (fun a -> add ret2 a) args2;
  (* unary value functions applied to arguments, compared with returns *)
  List.iter
    (fun f ->
      List.iter (fun a -> List.iter (fun r -> add r (vfun f [ a ])) rets) args1;
      List.iter (fun a -> List.iter (fun r -> add r (vfun f [ a ])) rets) args2)
    vfuns;
  (* canonicalize: dedupe by printed form (orientation is fixed by
     construction), then sort *)
  let seen = Hashtbl.create 64 in
  !acc
  |> List.filter (fun a ->
         let k = Formula.to_string a in
         if Hashtbl.mem seen k then false
         else (
           Hashtbl.add seen k ();
           true))
  |> List.sort compare_atom

(* ------------------------------------------------------------------ *)
(* Formula assembly                                                     *)
(* ------------------------------------------------------------------ *)

(** A candidate disjunct: a conjunction of atoms, kept in canonical atom
    order. *)
let conj_of atoms = Formula.conj (List.sort compare_atom atoms)

(** Assemble a DNF condition from learned disjuncts, in canonical order:
    argument-footprint disjuncts first (matching the hand-written specs'
    [v1[0] != v2[0] \/ ...] shape), then by size, then lexicographically.
    Subsumed disjuncts (a strict superset of another disjunct's atoms) are
    dropped — they admit strictly fewer behaviours than their subsumer. *)
let dnf_of (disjuncts : Formula.t list list) : Formula.t =
  let disjuncts = List.map (List.sort_uniq compare_atom) disjuncts in
  let subsumes small big =
    List.for_all (fun a -> List.exists (fun b -> compare_atom a b = 0) big) small
  in
  let minimal =
    List.filter
      (fun d ->
        not
          (List.exists
             (fun d' -> d != d' && subsumes d' d && not (subsumes d d'))
             disjuncts))
      disjuncts
  in
  let key d =
    let rank = List.fold_left (fun a x -> max a (atom_rank x)) 0 d in
    (rank, List.length d, Formula.to_string (conj_of d))
  in
  let sorted =
    List.sort_uniq (fun a b -> compare (key a) (key b)) minimal
  in
  Formula.disj (List.map conj_of sorted)
