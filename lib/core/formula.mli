(** The commutativity-condition logic {b L1} (paper Fig. 1), together with
    its two restrictions {b L2} (SIMPLE conditions, Fig. 6) and {b L3}
    (ONLINE-CHECKABLE conditions, Fig. 9).

    A formula [f_{m1,m2}(s1,v1,r1,s2,v2,r2)] talks about two method
    invocations: [m1] (the {e earlier} one, executed in abstract state
    [s1], with arguments [v1] and return value [r1]) and [m2] (the {e
    later} one, in state [s2]).  Reading: "[m1(v1)/r1] commutes with
    [m2(v2)/r2] if [f]". *)

(** Which of the two invocations a variable belongs to. *)
type side = M1 | M2

(** Which abstract state a state function is evaluated in. *)
type state = S1 | S2

type arith = Add | Sub | Mul | Div
type cmp = Eq | Ne | Lt | Le | Gt | Ge

(** Terms of L1.  [Sfun (f, s, args)] is an uninterpreted function of an
    abstract state (e.g. union-find's [rep(s, x)]); [Vfun (f, args)] is a
    pure function of values only (e.g. the kd-tree metric [dist(a, b)] or a
    partition map [part(a)]).  Arguments of [Sfun]/[Vfun] must themselves
    be state-free (enforced by {!well_formed}). *)
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

(** {1 Constructors} *)

val arg1 : int -> term
val arg2 : int -> term
val ret1 : term
val ret2 : term
val const : Value.t -> term
val cbool : bool -> term
val cint : int -> term
val sfun : string -> state -> term list -> term
val vfun : string -> term list -> term
val eq : term -> term -> t
val ne : term -> term -> t
val lt : term -> term -> t
val gt : term -> term -> t

(** n-ary conjunction/disjunction ([conj [] = True], [disj [] = False]). *)
val conj : t list -> t

val disj : t list -> t
val ( &&& ) : t -> t -> t
val ( ||| ) : t -> t -> t

(** {1 Printing}

    The output of {!pp} is valid {!Spec_lang} formula syntax, so formulas
    round-trip through print/parse. *)

val pp_side : side Fmt.t
val pp_state : state Fmt.t
val pp_arith : arith Fmt.t
val pp_cmp : cmp Fmt.t
val pp_term : term Fmt.t
val pp : t Fmt.t
val to_string : t -> string

(** {1 Structural analysis} *)

val term_mentions_side : side -> term -> bool
val term_mentions_ret : side -> term -> bool
val term_has_sfun : term -> bool

(** All [Sfun] occurrences in a formula, as
    [(name, state, argument terms, canonical term)]. *)
val all_sfuns : t -> (string * state * term list * term) list

(** Does the formula mention the return value of the given side ([r1]/[r2]),
    including inside function arguments? *)
val mentions_ret : side -> t -> bool

(** Top-level disjuncts, left to right; a non-disjunction is its own single
    disjunct ([disjuncts f = [f]]). *)
val disjuncts : t -> t list

(** Arguments of [Sfun]/[Vfun] must be state-free, matching the grammars of
    L1/L3 where function arguments are plain values. *)
val well_formed : t -> bool

(** {1 Classification (paper §3)} *)

type cls = Simple | Online | General

val pp_cls : cls Fmt.t

(** A lock-key term: a state-free term mentioning variables of exactly one
    side (so the lock key can be computed from one invocation alone).
    Returns the side, or [None] for constants, mixed-side or
    state-dependent terms. *)
val lock_key_side : term -> side option

(** A SIMPLE clause is a disequality [t1 != t2] between a pure term of m1
    and a pure term of m2 (Def. 6 case iii; with [Vfun]-derived keys this
    also covers the partition-coarsened specs of paper §4.2).  Returns the
    (m1-term, m2-term) pair in normalized order. *)
val simple_clause : t -> (term * term) option

(** The {e equality footprint} of a condition: its top-level disjuncts of
    shape [t1 != t2] with [t1] a pure m1-side term and [t2] a pure m2-side
    term (each in normalized (m1, m2) order).  If the two key values of any
    such clause differ at runtime, the condition is trivially [true] and
    the invocations commute — the property footprint sharding exploits
    ({!Footprint}). *)
val footprint_clauses : t -> (term * term) list

(** Decompose a SIMPLE formula (L2) into its clauses; [None] if the formula
    is not SIMPLE.  [Some []] means the methods always commute.  Note that
    [False] is SIMPLE but returns [None] here — handle it separately. *)
val as_simple : t -> (term * term) list option

val is_simple : t -> bool

(** ONLINE-CHECKABLE (L3): every function of [s1] takes only m1 values as
    arguments, so its result can be logged when m1 executes. *)
val is_online : t -> bool

val classify : t -> cls

(** The [Sfun]s of state [S1] whose arguments mention only m1: the
    primitive-function set [C_m1] a forward gatekeeper logs when [m1]
    executes (paper §3.3.1). *)
val f1_functions : t -> (string * term list * term) list

(** The [Sfun]s of state [S1] whose arguments {e do} mention m2: evaluating
    these requires reconstructing [s1] (paper §3.3.2, general
    gatekeeping). *)
val rollback_functions : t -> (string * term list * term) list

(** {1 Evaluation} *)

(** Evaluation environment.  [sfun] receives the canonical [Sfun] term as a
    last argument so gatekeepers can answer [S1] queries from their logs. *)
type env = {
  arg : side -> int -> Value.t;
  ret : side -> Value.t;
  sfun : string -> state -> Value.t list -> term -> Value.t;
  vfun : string -> Value.t list -> Value.t;
}

exception Unsupported of string

(** Build an environment; omitted [sfun]/[vfun] raise {!Unsupported}. *)
val env :
  ?sfun:(string -> state -> Value.t list -> term -> Value.t) ->
  ?vfun:(string -> Value.t list -> Value.t) ->
  arg:(side -> int -> Value.t) ->
  ret:(side -> Value.t) ->
  unit ->
  env

(** The (total) arithmetic of L1 terms.  Integer operands stay integers;
    mixed or non-integer operands coerce to float via {!Value.to_float}.
    {b Division by zero is defined}: [Int x / Int 0 = Int 0] (the
    SMT-LIB-style total extension), and float division follows IEEE
    (inf/nan).  A condition must always produce a verdict — an exception
    escaping mid-check would leave a gatekeeper's protocol half-done — and
    the compiled fast path ({!Compile}) matches this function exactly. *)
val arith_op : arith -> Value.t -> Value.t -> Value.t

(** Comparison over values: [Eq]/[Ne] are {!Value.equal}, the orderings use
    {!Value.compare}. *)
val cmp_op : cmp -> Value.t -> Value.t -> bool

val eval_term : env -> term -> Value.t
val eval : env -> t -> bool

(** {1 Transformations} *)

(** Swap the roles of m1 and m2 in a {e state-free} formula.  Raises
    [Invalid_argument] on state-dependent formulas: their symmetric
    counterpart is ADT-specific and must be supplied explicitly (see
    {!Spec.add_directed}). *)
val mirror : t -> t

val is_state_free : t -> bool

(** Shallow logical simplification (constant folding on connectives). *)
val simplify : t -> t

val equal_term : term -> term -> bool
val equal : t -> t -> bool
