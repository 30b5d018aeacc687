(** Abstract locking (paper §3.2): the systematic construction of lock-based
    conflict detectors from SIMPLE commutativity specifications.

    The construction follows the paper's three steps: one lock per data
    member plus one for the whole structure; one lock {e mode} per
    method/slot; and a compatibility matrix derived from the specification
    ([false] conditions make the [ds] modes incompatible, each SIMPLE
    clause [t1 != t2] makes the corresponding slot modes incompatible,
    everything else is compatible).  Modes compatible with every mode are
    superfluous and removed by {!reduce} (the Fig. 8(a) → 8(b)
    optimization).

    Theorem 1: the scheme produced here is sound and complete w.r.t. the
    input specification iff the specification is SIMPLE — property-tested
    in [test/test_abstract_lock.ml]. *)

(** What a method must lock: the structure lock, or the value of a pure key
    term over the invocation's arguments/returns (possibly derived, e.g.
    [part(v1[0])] for partition coarsening). *)
type acquisition = {
  mode : int;  (** mode index in the compatibility matrix *)
  key : Formula.term option;
      (** [None] = the data-structure lock; [Some t] = lock on the runtime
          value of the M1-side pure term [t] *)
  after_exec : bool;  (** return-value locks are acquired after execution *)
}

type scheme = {
  spec : Spec.t;
  mode_names : string array;  (** mode index -> display name *)
  compat : bool array array;  (** symmetric compatibility matrix *)
  acquisitions : (string, acquisition list) Hashtbl.t;  (** per method *)
  reduced : bool;
}

val mode_name : scheme -> int -> string
val n_modes : scheme -> int

exception Not_simple of string * string * Formula.t

(** Build the full (unreduced) abstract locking scheme for a SIMPLE spec.
    Raises {!Not_simple} if some condition is outside L2. *)
val construct : Spec.t -> scheme

(** Drop superfluous modes: a mode compatible with all modes need never be
    acquired (paper Fig. 8(b)). *)
val reduce : scheme -> scheme

(** Print the compatibility matrix ([only_used] restricts to modes some
    method actually acquires). *)
val pp_matrix : ?only_used:bool -> scheme Fmt.t

(** {1 Runtime lock table} *)

type lock_obj = Ds | Key of Value.t

type table

(** Build a runtime lock table.  [stripes > 0] splits it into [stripes]
    hash slices plus a dedicated slice for the [Ds] lock, each under its
    own {!Guard.t}, so acquisitions of footprint-disjoint keys do not
    serialize.  [?obs] enables/disables the observability registry. *)
val table : ?obs:bool -> ?stripes:int -> scheme -> table

(** Release every lock held by a transaction. *)
val release_all : table -> int -> unit

(** {1 Detector} *)

(** Build a conflict detector from a SIMPLE specification, named
    ["abslock(ADT)"], or ["abslock-striped(ADT)"] when [stripes > 0].
    [reduce_scheme] (default [true]) applies the superfluous-mode
    optimization first.  [stripes > 0] stripes the lock table (see
    {!table}): an invocation takes only the stripe guards of the locks it
    acquires — methods with return-value acquisitions take all of them —
    and the concrete execution is briefly serialized under a dedicated
    guard.  Reports exactly the conflicts of the unstriped detector.

    Lock keys are evaluated through {!Compile.key}'s zero-environment
    closures; the mode-compatibility matrix is consulted through the
    {!Compile.Bitmat} bitset.  Most callers should go through
    [Protect.protect] (schemes [Abstract_lock] and
    [Sharded (Abstract_lock, n)]). *)
val detector :
  ?reduce_scheme:bool -> ?stripes:int -> ?obs:bool -> Spec.t -> Detector.t
