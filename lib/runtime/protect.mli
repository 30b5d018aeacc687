(** Unified detector construction: one entry point over every conflict
    detection scheme the library offers.

    Instead of hand-rolling a dispatch over [Detector.global_lock],
    [Abstract_lock.detector], [Gatekeeper.make] and [Stm.create],
    applications describe {e what the ADT offers} ({!adt}) and {e which
    scheme they want} ({!scheme}) and call {!protect}:

    {[
      let det =
        Protect.protect ~spec:(Iset.precise_spec ())
          ~adt:(Protect.adt ~hooks:(Iset.hooks set) ())
          (Protect.Sharded (Protect.Forward_gk, 16))
    ]} *)

open Commlat_core
open Commlat_adts

type scheme =
  | Global_lock  (** the ⊥ specification: one exclusive lock *)
  | Abstract_lock  (** paper §3.2, from a SIMPLE spec *)
  | Forward_gk  (** paper §3.3.1, ONLINE-CHECKABLE specs *)
  | General_gk  (** paper §3.3.2, any L1 spec (needs undo/redo hooks) *)
  | Stm  (** concrete-cell STM baseline (needs a tracer connector) *)
  | Sharded of scheme * int
      (** footprint-sharded variant of the forward gatekeeper ([n] shards)
          or striped variant of abstract locking ([n] stripes); applies to
          [Forward_gk] and [Abstract_lock] only, and does not nest.  A
          sharded gatekeeper is striped, which needs state-free
          conditions, so the general gatekeeper cannot be sharded. *)

(** Canonical spelling: ["global-lock"], ["abslock"], ["fwd-gk"],
    ["gen-gk"], ["stm"], with a ["-sharded:N"] suffix for [Sharded].  Used
    by the CLI and the benchmark [--detector] filters. *)
val scheme_name : scheme -> string

(** Inverse of {!scheme_name}; also accepts a bare ["-sharded"] suffix
    (shard count defaults to 16). *)
val scheme_of_string : string -> (scheme, string) result

val default_nshards : int

(** What a data structure offers its detector. *)
type adt = {
  hooks : Gatekeeper.hooks option;
      (** state-function/undo/redo hooks (gatekeeping) *)
  connect_tracer : (Mem_trace.t -> unit) option;
      (** route the ADT's concrete reads/writes to an STM tracer *)
}

val adt :
  ?hooks:Gatekeeper.hooks ->
  ?connect_tracer:(Mem_trace.t -> unit) ->
  unit ->
  adt

(** Build a detector for [spec] over [adt] with the given scheme.  [?obs]
    enables/disables the detector's observability registry;
    [?reduce_scheme] is forwarded to {!Abstract_lock.detector}.  Every
    gatekeeper scheme goes through {!Gatekeeper.plan} and
    {!Gatekeeper.instance}.

    Conditions are evaluated through the spec compiler
    ({!Commlat_core.Compile}): gatekeepers check state-free conditions
    with zero-environment, zero-allocation closures and state-dependent
    ones with {!Commlat_core.Formula.eval} over their logs; abstract locks
    compute lock keys the same way.  [test/test_compile.ml] pins verdict
    identity against {!Commlat_core.Formula.eval} for every condition.

    The detector's name is ["global-lock"], ["abslock(ADT)"],
    ["abslock-striped(ADT)"], ["fwd-gk(ADT)"], ["gen-gk(ADT)"],
    ["fwd-gk-sharded(ADT)"] or ["stm"].

    Raises [Invalid_argument] when the scheme needs something the [adt]
    record doesn't offer, when the spec is outside the scheme's logic
    fragment, or on a malformed [Sharded] scheme. *)
val protect :
  ?obs:bool ->
  ?reduce_scheme:bool ->
  spec:Spec.t ->
  adt:adt ->
  scheme ->
  Detector.t

(** The staged form of {!protect}, which is [prepare] applied once:
    [prepare ~spec scheme] does now the work that depends only on the
    spec and the scheme, and the returned function builds a detector over
    one [adt], as {!protect} would.  For a gatekeeper scheme the spec's
    {!Gatekeeper.plan} — validation, compiled conditions, log sets,
    footprint — is built once here and shared, read-only, by every
    detector the function returns, each with its own mutable state; the
    other schemes build everything inside the returned function.  Errors
    that depend on the spec and the scheme alone may raise here, errors
    about the [adt] when it is applied. *)
val prepare :
  ?reduce_scheme:bool ->
  spec:Spec.t ->
  scheme ->
  ?obs:bool ->
  adt ->
  Detector.t

(** Every base scheme, coarsest first. *)
val all_schemes : scheme list
