(** Commutativity specifications (paper §2.3).

    A specification maps each {e ordered} pair of methods [(m1, m2)] — read
    "[m1] was invoked first" — to a commutativity condition.  The paper
    writes specifications symmetrically and omits the mirrored halves "for
    brevity" (Fig. 2 footnote); here both orientations are stored
    explicitly, because for state-dependent conditions (union-find, Fig. 5)
    the two orientations are genuinely different formulas.

    Missing entries default to [false] — the sound choice: methods the
    author said nothing about are assumed to conflict. *)

type t = {
  adt : string;
  methods : Invocation.meth list;
  conditions : (string * string, Formula.t) Hashtbl.t;
  vfuns : (string * (Value.t list -> Value.t)) list;
      (** interpretations of the pure value functions ([dist], [part], …)
          used by this spec's formulas *)
}

val create : ?vfuns:(string * (Value.t list -> Value.t)) list -> adt:string -> Invocation.meth list -> t

val adt : t -> string
val methods : t -> Invocation.meth list

(** Look up a declared method; raises [Invalid_argument] if unknown. *)
val find_meth : t -> string -> Invocation.meth

(** Interpretation of a pure value function; raises {!Formula.Unsupported}
    if the spec does not define it. *)
val vfun : t -> string -> Value.t list -> Value.t

(** Register the condition for the ordered pair ([first], [second]).
    Raises on ill-formed formulas or unknown methods. *)
val add_directed : t -> first:string -> second:string -> Formula.t -> unit

(** Register a condition for both orientations.  Only valid for state-free
    formulas, whose mirror is a pure renaming; state-dependent conditions
    must use {!add_directed} in each orientation. *)
val add_sym : t -> string -> string -> Formula.t -> unit

(** The condition for "[first] executed, then [second]"; [Formula.False]
    when unspecified. *)
val cond : t -> first:string -> second:string -> Formula.t

(** All registered (ordered pair, condition) entries, in a deterministic
    order (sorted by method-name pair) — never raw [Hashtbl.fold] order,
    so JSON diagnostics and goldens cannot flake across hash-seed
    changes. *)
val all_conditions : t -> ((string * string) * Formula.t) list

(** Alias of {!all_conditions} (historical name). *)
val pairs : t -> ((string * string) * Formula.t) list

(** Classification of a whole specification: the weakest scheme able to
    implement it (paper §3.4's hierarchy).  SIMPLE iff all conditions are;
    ONLINE-CHECKABLE iff all are at most online-checkable; GENERAL
    otherwise. *)
val classify : t -> Formula.cls

(** Check well-formedness of every condition; with [require_total], also
    require every ordered method pair to be covered. *)
val validate : ?require_total:bool -> t -> unit

(** [commutes t i1 i2] decides commutativity of two {e observed}
    invocations — the condition for "[i1] first" evaluated on their actual
    arguments and return values.  [Some true]: the pair commutes here
    (Definition 1: both orders are equivalent), so a schedule explorer may
    treat them as independent.  [Some false]: refuted on these values.
    [None]: undecidable from observations alone — the condition is
    state-dependent, mentions a return value flagged unknown via
    [~ret1_known]/[~ret2_known] (both default [true]), or uses an
    uninterpreted function.  Treat [None] as "may conflict". *)
val commutes :
  ?ret1_known:bool -> ?ret2_known:bool -> t -> Invocation.t -> Invocation.t ->
  bool option

val pp : t Fmt.t
