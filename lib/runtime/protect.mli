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
      (** footprint-sharded variant of a gatekeeper ([n] shards) or striped
          variant of abstract locking ([n] stripes); applies to [Forward_gk],
          [General_gk] and [Abstract_lock] only, and does not nest *)

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
    gatekeeper scheme goes through {!protect_gatekeeper}.

    Conditions are evaluated through the spec compiler
    ({!Commlat_core.Compile}): gatekeepers check state-free conditions
    with zero-environment, zero-allocation closures and state-dependent
    ones with {!Commlat_core.Formula.eval} over their logs; abstract locks
    compute lock keys the same way.  [test/test_compile.ml] pins verdict
    identity against {!Commlat_core.Formula.eval} for every condition.

    The detector's name is ["global-lock"], ["abslock(ADT)"],
    ["abslock-striped(ADT)"], ["fwd-gk(ADT)"], ["gen-gk(ADT)"],
    ["fwd-gk-sharded(ADT)"], ["gen-gk-sharded(ADT)"] or ["stm"].

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

(** Like {!protect} restricted to the gatekeeper schemes ([Forward_gk],
    [General_gk], and their [Sharded] variants), returning the underlying
    {!Gatekeeper.t} alongside the detector — for embedders that need the
    gatekeeper's own surface (e.g. {!Gatekeeper.batch_check} on the
    server's batched read path).  Raises [Invalid_argument] on
    non-gatekeeper schemes. *)
val protect_gatekeeper :
  ?obs:bool ->
  hooks:Gatekeeper.hooks ->
  spec:Spec.t ->
  scheme ->
  Detector.t * Gatekeeper.t

(** Every base scheme, coarsest first. *)
val all_schemes : scheme list
