(** The spec compiler: zero-allocation conflict checks, and the one
    condition evaluator every detector uses.

    Specializes each ordered method-pair commutativity condition into a
    flat closure over the two invocation records — no {!Formula.env}
    construction, vfuns resolved once into an array.  State-free
    conditions check with zero minor-heap allocations (vfun argument
    lists are the one documented exception).  State-dependent conditions stay formulas ([Interp]):
    gatekeepers evaluate them with {!Formula.eval} over their log-backed
    environment.

    Verdicts are bit-identical to {!Formula.eval} on every input,
    including the total division-by-zero semantics and the exception
    behaviour on type errors and unsupported functions (see the
    differential suite in [test/test_compile.ml]). *)

(** A lock-mode compatibility matrix packed into a [Bytes] bitset: one bit
    per ordered mode pair, so the abstract-lock acquire path pays a single
    byte load instead of two array indirections. *)
module Bitmat : sig
  type t

  (** [create n] is the all-incompatible matrix over [n] modes. *)
  val create : int -> t

  (** Pack a square [bool array array]; raises [Invalid_argument] on a
      ragged matrix. *)
  val of_matrix : bool array array -> t

  val dim : t -> int
  val set : t -> int -> int -> bool -> unit

  (** [get t held requested] — allocation-free, one byte load. *)
  val get : t -> int -> int -> bool
end

(** A compiled condition.  [Static] needs no evaluation at all; [Fast] is
    the zero-environment two-invocation closure (state-free conditions);
    [Interp] keeps the formula of a state-dependent condition, which
    {!Formula.eval} evaluates in a detector-supplied environment
    (log-backed [sfun]s). *)
type check =
  | Static of bool
  | Fast of (Invocation.t -> Invocation.t -> bool)
  | Interp of Formula.t

(** ["static-true" | "static-false" | "fast" | "interp"] — for reports. *)
val kind : check -> string

(** A whole compiled spec: every registered ordered pair's condition,
    sharing one vfun array. *)
type t

val of_spec : Spec.t -> t
val spec : t -> Spec.t

(** The vfun names resolved into the compile-time array, in slot order. *)
val vfun_names : t -> string array

(** The compiled condition for "[first] executed, then [second]";
    [Static false] when unspecified (same default as {!Spec.cond}). *)
val condition : t -> first:string -> second:string -> check

(** All compiled (ordered pair, check) entries, deterministically
    sorted. *)
val conditions : t -> ((string * string) * check) list

(** Evaluate a check on two observed invocations with no state oracle:
    [Fast] checks run directly; [Interp] checks go through {!Formula.eval}
    over {!Invocation.env} with an [sfun] that raises
    {!Formula.Unsupported} (the same environment {!Spec.commutes} uses, so
    this allocates).  Exceptions propagate as in the interpreter. *)
val check_pure : t -> check -> Invocation.t -> Invocation.t -> bool

(** Compile a state-free single-side key term (lock keys, shard keys,
    gatekeeper log arguments) to a direct evaluator over one invocation,
    with no per-invocation {!Formula.env}. *)
val key : Spec.t -> Formula.term -> Invocation.t -> Value.t
