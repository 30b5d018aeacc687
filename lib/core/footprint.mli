(** Equality-footprint analysis for shard-keyed conflict detection.

    A condition's {e footprint clauses} ({!Formula.footprint_clauses}) are
    its top-level disjuncts of shape [t1 != t2] comparing a pure m1-side
    term against a pure m2-side term: if the two values differ at runtime
    the condition is trivially [true] and the invocations commute.
    {!analyze} turns that per-pair structure into a per-method {e shard
    key}: a pure argument term such that whenever two invocations of keyed
    methods have different key values, {e every} condition between them
    (either order) is discharged by a footprint clause on exactly those
    keys — so a hash-sharded active-invocation table may skip the check.

    Methods for which no such key exists (state-dependent conditions,
    conditions without disequality clauses, [false] pairs) are {e keyless};
    their invocations live in a dedicated overflow shard and are checked
    against everything, preserving soundness.

    Soundness of {!shard}: {!Value.hash} respects {!Value.equal}, so
    equal key values always land in the same shard; distinct shards
    therefore imply distinct key values, which imply commutativity against
    every keyed invocation outside the shard. *)

type t

(** Run the analysis.  Total: specs with no usable keys yield an all-keyless
    result (every invocation goes to the overflow shard, degenerating to
    unsharded behavior). *)
val analyze : Spec.t -> t

(** The chosen M1-side key term of a method, or [None] if keyless.  Key
    terms never mention the return value, so they are computable before the
    method executes. *)
val key_term : t -> string -> Formula.term option

val keyed : t -> string -> bool

(** No method has a key (sharding degenerates to a single overflow shard). *)
val all_keyless : t -> bool

(** The key of a method compiled over its argument array, [None] if the
    method is keyless or undeclared.  {!shard} evaluates this same
    closure, so a caller holding only a method name and its arguments (a
    server routing a request) computes the key an invocation of them
    would get. *)
val key_fn : t -> string -> (Value.t array -> Value.t) option

(** [shard t ~nshards inv] is the shard index in [\[0, nshards)] of a
    keyed invocation, or [nshards] (the overflow shard) for a keyless one.
    It allocates nothing. *)
val shard : t -> nshards:int -> Invocation.t -> int

(** {!shard} with [None] for the overflow shard. *)
val shard_of : t -> nshards:int -> Invocation.t -> int option

val pp : t Fmt.t
