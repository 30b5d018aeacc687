(** The commutativity lattice (paper §2.4).

    Valid commutativity conditions for a method pair form a bounded lattice
    ordered by logical implication, with meet = conjunction, join =
    disjunction, bottom = [false] and top = the precise condition.
    Specifications are ordered pointwise.

    Implication between L1 formulas is undecidable in general, so two
    decision procedures are provided: {!leq_syntactic}, a cheap sufficient
    condition covering the moves the paper performs (dropping disjuncts,
    strengthening clauses, partition coarsening, going to [false]); and
    {!leq_bounded}, exhaustive evaluation over caller-supplied sample
    environments — a bounded model check used by the test suite to verify
    every lattice claim on the example specs. *)

(** {1 Condition-level operations} *)

val meet : Formula.t -> Formula.t -> Formula.t
val join : Formula.t -> Formula.t -> Formula.t
val bot : Formula.t

(** Sufficient syntactic implication check: [leq_syntactic f1 f2 = true]
    implies [f1 => f2].  Covers dropped disjuncts, strengthened
    conjunctions and the partition rule [g(x) != g(y) => x != y]. *)
val leq_syntactic : Formula.t -> Formula.t -> bool

(** [leq_bounded ~envs f1 f2] checks [f1 => f2] on every supplied sample
    environment (environments whose evaluation raises are skipped). *)
val leq_bounded : envs:Formula.env list -> Formula.t -> Formula.t -> bool

val equiv_bounded : envs:Formula.env list -> Formula.t -> Formula.t -> bool

(** Like {!leq_bounded} but [None] when no environment evaluated (every
    sample raised), so vacuous truth is distinguishable from evidence.
    Used by the spec linter, where a vacuously-true implication must not
    justify dropping a disjunct. *)
val leq_bounded_checked :
  envs:Formula.env list -> Formula.t -> Formula.t -> bool option

val equiv_bounded_checked :
  envs:Formula.env list -> Formula.t -> Formula.t -> bool option

(** {1 Specification-level lattice} *)

(** Pointwise order via {!leq_syntactic} (missing entries are [false]). *)
val spec_leq : Spec.t -> Spec.t -> bool

(** Pointwise meet (greatest lower bound). *)
val spec_meet : ?adt:string -> Spec.t -> Spec.t -> Spec.t

(** Pointwise join (least upper bound). *)
val spec_join : ?adt:string -> Spec.t -> Spec.t -> Spec.t

(** ⊥: every condition [false] — implementable as a single global exclusive
    lock (paper §4.1). *)
val spec_bot : adt:string -> Invocation.meth list -> Spec.t
