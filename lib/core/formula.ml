(** The commutativity-condition logic {b L1} (paper Fig. 1), together with
    its two restrictions {b L2} (SIMPLE conditions, Fig. 6) and {b L3}
    (ONLINE-CHECKABLE conditions, Fig. 9).

    A formula [f_{m1,m2}(s1,v1,r1,s2,v2,r2)] talks about two method
    invocations: [m1] (the {e earlier} one, executed in abstract state [s1],
    with arguments [v1] and return value [r1]) and [m2] (the {e later} one,
    in state [s2]).  Reading: "[m1(v1)/r1] commutes with [m2(v2)/r2] if
    [f]". *)

(** Which of the two invocations a variable belongs to. *)
type side = M1 | M2

(** Which abstract state a state function is evaluated in. *)
type state = S1 | S2

type arith = Add | Sub | Mul | Div

type cmp = Eq | Ne | Lt | Le | Gt | Ge

(** Terms of L1.  [Sfun (f, s, args)] is an uninterpreted function of an
    abstract state (e.g. union-find's [rep(s, x)]); [Vfun (f, args)] is a
    pure function of values only (e.g. the kd-tree metric [dist(a, b)] or a
    partition map [part(a)]).  Arguments of [Sfun]/[Vfun] must themselves be
    state-free (enforced by {!well_formed}). *)
type term =
  | Arg of side * int
  | Ret of side
  | Const of Value.t
  | Sfun of string * state * term list
  | Vfun of string * term list
  | Arith of arith * term * term

type t =
  | True
  | False
  | Cmp of cmp * term * term
  | Not of t
  | And of t * t
  | Or of t * t

(* ------------------------------------------------------------------ *)
(* Constructors / sugar                                                *)
(* ------------------------------------------------------------------ *)

let arg1 i = Arg (M1, i)
let arg2 i = Arg (M2, i)
let ret1 = Ret M1
let ret2 = Ret M2
let const v = Const v
let cbool b = Const (Value.Bool b)
let cint i = Const (Value.Int i)
let sfun name state args = Sfun (name, state, args)
let vfun name args = Vfun (name, args)
let eq a b = Cmp (Eq, a, b)
let ne a b = Cmp (Ne, a, b)
let lt a b = Cmp (Lt, a, b)
let gt a b = Cmp (Gt, a, b)

let rec conj = function [] -> True | [ f ] -> f | f :: fs -> And (f, conj fs)
let rec disj = function [] -> False | [ f ] -> f | f :: fs -> Or (f, disj fs)

let ( &&& ) a b = And (a, b)
let ( ||| ) a b = Or (a, b)

(* ------------------------------------------------------------------ *)
(* Pretty-printing                                                     *)
(* ------------------------------------------------------------------ *)

let pp_side ppf = function M1 -> Fmt.string ppf "1" | M2 -> Fmt.string ppf "2"
let pp_state ppf = function S1 -> Fmt.string ppf "s1" | S2 -> Fmt.string ppf "s2"

let pp_arith ppf = function
  | Add -> Fmt.string ppf "+"
  | Sub -> Fmt.string ppf "-"
  | Mul -> Fmt.string ppf "*"
  | Div -> Fmt.string ppf "/"

let pp_cmp ppf = function
  | Eq -> Fmt.string ppf "="
  | Ne -> Fmt.string ppf "!="
  | Lt -> Fmt.string ppf "<"
  | Le -> Fmt.string ppf "<="
  | Gt -> Fmt.string ppf ">"
  | Ge -> Fmt.string ppf ">="

let rec pp_term ppf = function
  | Arg (s, i) -> Fmt.pf ppf "v%a[%d]" pp_side s i
  | Ret s -> Fmt.pf ppf "r%a" pp_side s
  | Const v -> Value.pp ppf v
  | Sfun (f, s, args) ->
      Fmt.pf ppf "%s(%a%a)" f pp_state s
        Fmt.(list ~sep:nop (any ", " ++ pp_term))
        args
  | Vfun (f, args) -> Fmt.pf ppf "%s(%a)" f Fmt.(list ~sep:comma pp_term) args
  | Arith (op, a, b) -> Fmt.pf ppf "(%a %a %a)" pp_term a pp_arith op pp_term b

let rec pp ppf = function
  | True -> Fmt.string ppf "true"
  | False -> Fmt.string ppf "false"
  | Cmp (c, a, b) -> Fmt.pf ppf "%a %a %a" pp_term a pp_cmp c pp_term b
  | Not f -> Fmt.pf ppf "!(%a)" pp f
  | And (a, b) -> Fmt.pf ppf "(%a /\\ %a)" pp a pp b
  | Or (a, b) -> Fmt.pf ppf "(%a \\/ %a)" pp a pp b

let to_string f = Fmt.str "%a" pp f

(* ------------------------------------------------------------------ *)
(* Structural analysis                                                 *)
(* ------------------------------------------------------------------ *)

let rec term_mentions_side side = function
  | Arg (s, _) | Ret s -> s = side
  | Const _ -> false
  | Sfun (_, _, args) | Vfun (_, args) ->
      List.exists (term_mentions_side side) args
  | Arith (_, a, b) -> term_mentions_side side a || term_mentions_side side b

let rec term_mentions_ret side = function
  | Ret s -> s = side
  | Arg _ | Const _ -> false
  | Sfun (_, _, args) | Vfun (_, args) -> List.exists (term_mentions_ret side) args
  | Arith (_, a, b) -> term_mentions_ret side a || term_mentions_ret side b

let rec term_has_sfun = function
  | Arg _ | Ret _ | Const _ -> false
  | Sfun _ -> true
  | Vfun (_, args) -> List.exists term_has_sfun args
  | Arith (_, a, b) -> term_has_sfun a || term_has_sfun b

let rec term_sfuns acc = function
  | Arg _ | Ret _ | Const _ -> acc
  | Sfun (name, st, args) as t ->
      let acc = List.fold_left term_sfuns acc args in
      (name, st, args, t) :: acc
  | Vfun (_, args) -> List.fold_left term_sfuns acc args
  | Arith (_, a, b) -> term_sfuns (term_sfuns acc a) b

let rec sfuns acc = function
  | True | False -> acc
  | Cmp (_, a, b) -> term_sfuns (term_sfuns acc a) b
  | Not f -> sfuns acc f
  | And (a, b) | Or (a, b) -> sfuns (sfuns acc a) b

(** All [Sfun] occurrences in a formula, innermost first. *)
let all_sfuns f = sfuns [] f

let mentions_side side f =
  let rec go = function
    | True | False -> false
    | Cmp (_, a, b) -> term_mentions_side side a || term_mentions_side side b
    | Not f -> go f
    | And (a, b) | Or (a, b) -> go a || go b
  in
  go f

let mentions_ret side f =
  let rec go = function
    | True | False -> false
    | Cmp (_, a, b) -> term_mentions_ret side a || term_mentions_ret side b
    | Not f -> go f
    | And (a, b) | Or (a, b) -> go a || go b
  in
  go f

(** Top-level disjuncts, left to right ([disjuncts (a \/ (b \/ c)) =
    [a; b; c]]); a non-disjunction is its own single disjunct. *)
let rec disjuncts = function
  | Or (a, b) -> disjuncts a @ disjuncts b
  | f -> [ f ]

(** Well-formedness: arguments of [Sfun] and [Vfun] must be state-free
    (matching the grammars of L1/L3, where function arguments are plain
    values). *)
let well_formed f =
  let rec term_ok ~nested = function
    | Arg _ | Ret _ | Const _ -> true
    | Sfun (_, _, args) -> (not nested) && List.for_all (term_ok ~nested:true) args
    | Vfun (_, args) -> List.for_all (term_ok ~nested) args
    | Arith (_, a, b) -> term_ok ~nested a && term_ok ~nested b
  in
  let rec go = function
    | True | False -> true
    | Cmp (_, a, b) -> term_ok ~nested:false a && term_ok ~nested:false b
    | Not f -> go f
    | And (a, b) | Or (a, b) -> go a && go b
  in
  go f

(* ------------------------------------------------------------------ *)
(* Classification: SIMPLE (L2) / ONLINE-CHECKABLE (L3) / GENERAL (L1)  *)
(* ------------------------------------------------------------------ *)

type cls = Simple | Online | General

let pp_cls ppf = function
  | Simple -> Fmt.string ppf "SIMPLE"
  | Online -> Fmt.string ppf "ONLINE-CHECKABLE"
  | General -> Fmt.string ppf "GENERAL"

(** A lock-key term: a state-free term mentioning variables of exactly one
    side (so the lock key can be computed from one invocation alone).
    Returns the side, or [None] if the term is constant or mixes sides or
    touches state. *)
let lock_key_side t =
  if term_has_sfun t then None
  else
    let m1 = term_mentions_side M1 t and m2 = term_mentions_side M2 t in
    match (m1, m2) with
    | true, false -> Some M1
    | false, true -> Some M2
    | _ -> None

(** A SIMPLE clause is a disequality [t1 != t2] between a pure term of m1
    and a pure term of m2 (Def. 6 case iii; with [Vfun]-derived keys this
    also covers the partition-coarsened specs of paper §4.2).  Returns the
    (m1-term, m2-term) pair in normalized order. *)
let simple_clause = function
  | Cmp (Ne, a, b) -> (
      match (lock_key_side a, lock_key_side b) with
      | Some M1, Some M2 -> Some (a, b)
      | Some M2, Some M1 -> Some (b, a)
      | _ -> None)
  | _ -> None

(** The {e equality footprint} of a condition: the top-level disjuncts of
    shape [t1 != t2] with [t1] a pure m1-side term and [t2] a pure m2-side
    term.  If any such clause's two key values differ at runtime the whole
    condition is trivially [true] — the invocations commute — so
    invocations whose keys hash to different shards can never conflict
    through this condition.  This is the static analysis behind
    {!Footprint} and the sharded gatekeepers. *)
let footprint_clauses f = List.filter_map simple_clause (disjuncts f)

(** Decompose a SIMPLE formula (L2) into its clauses; [None] if the formula
    is not SIMPLE.  [Some []] means the methods always commute ([true]). *)
let rec as_simple = function
  | True -> Some []
  | False -> None (* handled separately: [false] is SIMPLE but has no clauses *)
  | Cmp _ as c -> Option.map (fun cl -> [ cl ]) (simple_clause c)
  | And (a, b) -> (
      match (as_simple a, as_simple b) with
      | Some ca, Some cb -> Some (ca @ cb)
      | _ -> None)
  | Not _ | Or _ -> None

let is_simple = function False -> true | f -> Option.is_some (as_simple f)

(** ONLINE-CHECKABLE (L3): every function of [s1] takes only m1 values as
    arguments, so its result can be logged when m1 executes. *)
let is_online f =
  well_formed f
  && List.for_all
       (fun (_, st, args, _) ->
         match st with
         | S2 -> true
         | S1 -> not (List.exists (term_mentions_side M2) args))
       (all_sfuns f)

let classify f = if is_simple f then Simple else if is_online f then Online else General

(** The [Sfun]s of state [S1] whose arguments mention only m1: these form
    the primitive-function set [C_m1] that a forward gatekeeper must log
    when [m1] executes (paper §3.3.1). *)
let f1_functions f =
  all_sfuns f
  |> List.filter (fun (_, st, args, _) ->
         st = S1 && not (List.exists (term_mentions_side M2) args))
  |> List.map (fun (name, _, args, t) -> (name, args, t))

(** The [Sfun]s of state [S1] whose arguments {e do} mention m2: evaluating
    these requires rolling the data structure back to [s1] (paper §3.3.2,
    general gatekeeping). *)
let rollback_functions f =
  all_sfuns f
  |> List.filter (fun (_, st, args, _) ->
         st = S1 && List.exists (term_mentions_side M2) args)
  |> List.map (fun (name, _, args, t) -> (name, args, t))

(* ------------------------------------------------------------------ *)
(* Evaluation                                                          *)
(* ------------------------------------------------------------------ *)

(** Evaluation environment.  [sfun] receives the canonical [Sfun] term as a
    last resort key so gatekeepers can answer [S1] queries from their logs. *)
type env = {
  arg : side -> int -> Value.t;
  ret : side -> Value.t;
  sfun : string -> state -> Value.t list -> term -> Value.t;
  vfun : string -> Value.t list -> Value.t;
}

exception Unsupported of string

let env ?(sfun = fun name _ _ _ -> raise (Unsupported name))
    ?(vfun = fun name _ -> raise (Unsupported name)) ~arg ~ret () =
  { arg; ret; sfun; vfun }

(* Arithmetic is total.  Integer division by zero is defined as 0 (the
   SMT-LIB-style total extension): a condition must always produce a
   verdict — an exception escaping mid-check would leave a gatekeeper's
   protocol half-done — and the compiled fast path (Compile) must agree
   with this interpreter bit-for-bit.  Float division follows IEEE
   (inf/nan), which is likewise total. *)
let arith_op op a b =
  match (op, a, b) with
  | Add, Value.Int x, Value.Int y -> Value.Int (x + y)
  | Sub, Value.Int x, Value.Int y -> Value.Int (x - y)
  | Mul, Value.Int x, Value.Int y -> Value.Int (x * y)
  | Div, Value.Int x, Value.Int y -> Value.Int (if y = 0 then 0 else x / y)
  | Add, _, _ -> Value.Float (Value.to_float a +. Value.to_float b)
  | Sub, _, _ -> Value.Float (Value.to_float a -. Value.to_float b)
  | Mul, _, _ -> Value.Float (Value.to_float a *. Value.to_float b)
  | Div, _, _ -> Value.Float (Value.to_float a /. Value.to_float b)

let cmp_op op a b =
  match op with
  | Eq -> Value.equal a b
  | Ne -> not (Value.equal a b)
  | Lt -> Value.compare a b < 0
  | Le -> Value.compare a b <= 0
  | Gt -> Value.compare a b > 0
  | Ge -> Value.compare a b >= 0

let rec eval_term env = function
  | Arg (s, i) -> env.arg s i
  | Ret s -> env.ret s
  | Const v -> v
  | Sfun (name, st, args) as t ->
      env.sfun name st (List.map (eval_term env) args) t
  | Vfun (name, args) -> env.vfun name (List.map (eval_term env) args)
  | Arith (op, a, b) -> arith_op op (eval_term env a) (eval_term env b)

let rec eval env = function
  | True -> true
  | False -> false
  | Cmp (op, a, b) -> cmp_op op (eval_term env a) (eval_term env b)
  | Not f -> not (eval env f)
  | And (a, b) -> eval env a && eval env b
  | Or (a, b) -> eval env a || eval env b

(* ------------------------------------------------------------------ *)
(* Transformations                                                     *)
(* ------------------------------------------------------------------ *)

(** Swap the roles of m1 and m2 in a {e state-free} formula.  Raises
    [Invalid_argument] if the formula mentions abstract state: the symmetric
    counterpart of a state-dependent condition is ADT-specific and must be
    supplied explicitly (see {!Spec}). *)
let mirror f =
  let rec term = function
    | Arg (M1, i) -> Arg (M2, i)
    | Arg (M2, i) -> Arg (M1, i)
    | Ret M1 -> Ret M2
    | Ret M2 -> Ret M1
    | Const _ as t -> t
    | Sfun _ -> invalid_arg "Formula.mirror: state-dependent formula"
    | Vfun (name, args) -> Vfun (name, List.map term args)
    | Arith (op, a, b) -> Arith (op, term a, term b)
  in
  let rec go = function
    | True -> True
    | False -> False
    | Cmp (op, a, b) -> Cmp (op, term a, term b)
    | Not f -> Not (go f)
    | And (a, b) -> And (go a, go b)
    | Or (a, b) -> Or (go a, go b)
  in
  go f

let is_state_free f =
  let rec term = function
    | Arg _ | Ret _ | Const _ -> true
    | Sfun _ -> false
    | Vfun (_, args) -> List.for_all term args
    | Arith (_, a, b) -> term a && term b
  in
  let rec go = function
    | True | False -> true
    | Cmp (_, a, b) -> term a && term b
    | Not f -> go f
    | And (a, b) | Or (a, b) -> go a && go b
  in
  go f

(** Shallow logical simplification (constant folding on connectives). *)
let rec simplify = function
  | And (a, b) -> (
      match (simplify a, simplify b) with
      | False, _ | _, False -> False
      | True, f | f, True -> f
      | a, b -> And (a, b))
  | Or (a, b) -> (
      match (simplify a, simplify b) with
      | True, _ | _, True -> True
      | False, f | f, False -> f
      | a, b -> Or (a, b))
  | Not f -> (
      match simplify f with True -> False | False -> True | f -> Not f)
  | f -> f

let equal_term : term -> term -> bool = Stdlib.( = )

let rec equal (a : t) (b : t) =
  match (a, b) with
  | True, True | False, False -> true
  | Cmp (o1, a1, b1), Cmp (o2, a2, b2) ->
      o1 = o2 && equal_term a1 a2 && equal_term b1 b2
  | Not a, Not b -> equal a b
  | And (a1, b1), And (a2, b2) | Or (a1, b1), Or (a2, b2) ->
      equal a1 a2 && equal b1 b2
  | _ -> false
