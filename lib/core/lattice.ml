(** The commutativity lattice (paper §2.4).

    Valid commutativity conditions for a method pair form a bounded lattice
    ordered by logical implication, with meet = conjunction, join =
    disjunction, bottom = [false] and top = the precise condition.
    Specifications are ordered pointwise.

    Implication between L1 formulas is undecidable in general, so two
    decision procedures are provided:

    - {!leq_syntactic}: a cheap sufficient condition covering the moves the
      paper actually performs (dropping disjuncts, strengthening clauses,
      going to [false]);
    - {!leq_bounded}: exhaustive evaluation over caller-supplied sample
      environments — a bounded model check used by the test suite to verify
      every lattice claim on the example specs. *)

let meet f1 f2 = Formula.simplify (Formula.And (f1, f2))
let join f1 f2 = Formula.simplify (Formula.Or (f1, f2))
let bot = Formula.False

(* --------------------------------------------------------------- *)
(* Syntactic implication (sufficient, not complete)                 *)
(* --------------------------------------------------------------- *)

let rec leq_syntactic (f1 : Formula.t) (f2 : Formula.t) =
  Formula.equal f1 f2
  ||
  match (f1, f2) with
  | Formula.False, _ -> true
  | _, Formula.True -> true
  (* key coarsening (paper §4.2): [g(x) != g(y)] implies [x != y] for any
     function [g] applied to both sides — the partition rule *)
  | ( Formula.Cmp (Formula.Ne, Formula.Vfun (g1, [ x1 ]), Formula.Vfun (g2, [ y1 ])),
      Formula.Cmp (Formula.Ne, x2, y2) )
    when g1 = g2
         && (Formula.equal_term x1 x2 && Formula.equal_term y1 y2
            || Formula.equal_term x1 y2 && Formula.equal_term y1 x2) ->
      true
  | Formula.Or (a, b), _ -> leq_syntactic a f2 && leq_syntactic b f2
  | _, Formula.Or (a, b) -> leq_syntactic f1 a || leq_syntactic f1 b
  | Formula.And (a, b), _ -> leq_syntactic a f2 || leq_syntactic b f2
  | _, Formula.And (a, b) -> leq_syntactic f1 a && leq_syntactic f1 b
  | _ -> false

(* --------------------------------------------------------------- *)
(* Bounded (semantic) implication                                   *)
(* --------------------------------------------------------------- *)

(** [leq_bounded ~envs f1 f2] checks [f1 => f2] on every supplied sample
    environment.  Environments whose evaluation raises
    {!Formula.Unsupported} or {!Value.Type_error} (e.g. an [add] return
    value plugged where a point is expected) are skipped: sample spaces are
    allowed to be generous. *)
let leq_bounded ~envs f1 f2 =
  List.for_all
    (fun env ->
      match (Formula.eval env f1, Formula.eval env f2) with
      | v1, v2 -> (not v1) || v2
      | exception (Formula.Unsupported _ | Value.Type_error _) -> true)
    envs

let equiv_bounded ~envs f1 f2 = leq_bounded ~envs f1 f2 && leq_bounded ~envs f2 f1

(** Like {!leq_bounded}, but distinguishes "implication held on every
    environment that evaluated" from "no environment evaluated at all"
    (e.g. every sample raised on an uninterpreted function).  [None] means
    the check produced no evidence either way — callers that act on a
    positive answer (the spec linter's dead-disjunct and misclassification
    analyses) must not treat vacuity as confirmation. *)
let leq_bounded_checked ~envs f1 f2 =
  let evaluated = ref false in
  let ok =
    List.for_all
      (fun env ->
        match (Formula.eval env f1, Formula.eval env f2) with
        | v1, v2 ->
            evaluated := true;
            (not v1) || v2
        | exception (Formula.Unsupported _ | Value.Type_error _) -> true)
      envs
  in
  (* if [for_all] stopped early the failing environment did evaluate, so
     [evaluated] is reliable in both outcomes *)
  if !evaluated then Some ok else None

let equiv_bounded_checked ~envs f1 f2 =
  match (leq_bounded_checked ~envs f1 f2, leq_bounded_checked ~envs f2 f1) with
  | Some false, _ | _, Some false -> Some false
  | Some true, Some true -> Some true
  | _ -> None

(* --------------------------------------------------------------- *)
(* Specification-level lattice                                      *)
(* --------------------------------------------------------------- *)

(** Pointwise order: [s1 <= s2] iff for every ordered method pair the
    condition in [s1] implies the one in [s2] (missing entries are
    [false]).  Uses the syntactic order. *)
let spec_leq (s1 : Spec.t) (s2 : Spec.t) =
  let keys =
    List.sort_uniq Stdlib.compare
      (List.map fst (Spec.pairs s1) @ List.map fst (Spec.pairs s2))
  in
  List.for_all
    (fun (m1, m2) ->
      leq_syntactic (Spec.cond s1 ~first:m1 ~second:m2) (Spec.cond s2 ~first:m1 ~second:m2))
    keys

let combine op ~adt (s1 : Spec.t) (s2 : Spec.t) =
  let methods = Spec.methods s1 in
  let vfuns_merged =
    (* interpretations from both sides; s1 wins on name clashes *)
    s1.Spec.vfuns @ List.filter (fun (n, _) -> not (List.mem_assoc n s1.Spec.vfuns)) s2.Spec.vfuns
  in
  let out = Spec.create ~vfuns:vfuns_merged ~adt methods in
  let keys =
    List.sort_uniq Stdlib.compare
      (List.map fst (Spec.pairs s1) @ List.map fst (Spec.pairs s2))
  in
  List.iter
    (fun (m1, m2) ->
      let f =
        op (Spec.cond s1 ~first:m1 ~second:m2) (Spec.cond s2 ~first:m1 ~second:m2)
      in
      Spec.add_directed out ~first:m1 ~second:m2 f)
    keys;
  out

(** Pointwise meet of two specifications (greatest lower bound). *)
let spec_meet ?(adt = "meet") s1 s2 = combine meet ~adt s1 s2

(** Pointwise join of two specifications (least upper bound). *)
let spec_join ?(adt = "join") s1 s2 = combine join ~adt s1 s2

(** ⊥: every condition is [false] — implementable as a single global lock
    (paper §4.1). *)
let spec_bot ~adt methods =
  let s = Spec.create ~adt methods in
  List.iter
    (fun (m1 : Invocation.meth) ->
      List.iter
        (fun (m2 : Invocation.meth) ->
          Spec.add_directed s ~first:m1.name ~second:m2.name Formula.False)
        methods)
    methods;
  s
