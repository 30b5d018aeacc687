(** Unified detector construction: one entry point over every conflict
    detection scheme the library offers, so applications stop hand-rolling
    per-scheme dispatch.

    A {!scheme} names a point of the commutativity-lattice implementation
    space — the ⊥ global lock, abstract locking, forward/general
    gatekeeping, the STM baseline — and [Sharded (s, n)] stripes the
    forward gatekeeper by footprint shard, or abstract locking by lock
    key.  An {!adt} record carries whatever
    the data structure offers a detector: gatekeeper hooks, and/or a
    memory-trace connector for the STM.  {!protect} puts them together by
    calling the one constructor each detector module exposes:
    [Detector.global_lock], [Abstract_lock.detector], [Gatekeeper.make]
    (as its two stages, {!Gatekeeper.plan} and {!Gatekeeper.instance})
    and [Stm.create].  {!prepare} is the staged form of {!protect}, for
    callers that build many detectors from one spec. *)

open Commlat_core
open Commlat_adts

type scheme =
  | Global_lock  (** the ⊥ specification: one exclusive lock *)
  | Abstract_lock  (** paper §3.2, from a SIMPLE spec *)
  | Forward_gk  (** paper §3.3.1, ONLINE-CHECKABLE specs *)
  | General_gk  (** paper §3.3.2, any L1 spec (needs undo/redo hooks) *)
  | Stm  (** concrete-cell STM baseline (needs a tracer connector) *)
  | Sharded of scheme * int
      (** footprint-sharded variant of the forward gatekeeper ([n]
          shards) or striped variant of abstract locking ([n] stripes) *)

let rec scheme_name = function
  | Global_lock -> "global-lock"
  | Abstract_lock -> "abslock"
  | Forward_gk -> "fwd-gk"
  | General_gk -> "gen-gk"
  | Stm -> "stm"
  | Sharded (s, n) -> Fmt.str "%s-sharded:%d" (scheme_name s) n

let default_nshards = 16

let scheme_of_string s : (scheme, string) result =
  let base = function
    | "global-lock" -> Ok Global_lock
    | "abslock" -> Ok Abstract_lock
    | "fwd-gk" -> Ok Forward_gk
    | "gen-gk" -> Ok General_gk
    | "stm" -> Ok Stm
    | other ->
        Error
          (Fmt.str
             "unknown scheme %S (expected global-lock, abslock, fwd-gk, \
              gen-gk, stm, optionally with a -sharded[:N] suffix)"
             other)
  in
  (* the first "-sharded" splits [s] into a base scheme and a shard count *)
  let suffix = "-sharded" in
  let ls = String.length s and lr = String.length suffix in
  let rec matches i j =
    j = lr || (s.[i + j] = suffix.[j] && matches i (j + 1))
  in
  let rec find i =
    if i + lr > ls then None else if matches i 0 then Some i else find (i + 1)
  in
  if s = "" then Error "empty scheme name"
  else
    match find 0 with
    | None -> base s
    | Some i ->
        let sharded n =
          Result.map (fun b -> Sharded (b, n)) (base (String.sub s 0 i))
        in
        let rest = i + lr in
        if rest = ls then sharded default_nshards
        else if s.[rest] <> ':' || rest + 1 = ls then base s
        else (
          match int_of_string_opt (String.sub s (rest + 1) (ls - rest - 1)) with
          | Some n when n > 0 -> sharded n
          | _ -> Error (Fmt.str "bad shard count in %S" s))

(** What a data structure offers its detector. *)
type adt = {
  hooks : Gatekeeper.hooks option;
      (** state-function/undo/redo hooks (gatekeeping) *)
  connect_tracer : (Mem_trace.t -> unit) option;
      (** route the ADT's concrete reads/writes to an STM tracer *)
}

let adt ?hooks ?connect_tracer () = { hooks; connect_tracer }

let require_hooks s = function
  | { hooks = Some h; _ } -> h
  | _ ->
      invalid_arg
        (Fmt.str "Protect.protect: %s needs adt hooks" (scheme_name s))

(** The staged form of {!protect}: everything that depends only on the
    spec and the scheme happens now, and the returned function builds a
    detector over one [adt].  Only the gatekeeper schemes stage work:
    their {!Gatekeeper.plan} is built once and shared, read-only, by
    every detector the function returns.  The global lock, abstract
    locking and the STM build everything inside the returned function.
    Scheme errors raise here; errors about the [adt] raise when it is
    applied. *)
let prepare ?reduce_scheme ~(spec : Spec.t) (s : scheme) :
    ?obs:bool -> adt -> Detector.t =
  match s with
  | Global_lock -> fun ?obs _ -> Detector.global_lock ?obs ()
  | Abstract_lock ->
      fun ?obs _ -> Abstract_lock.detector ?reduce_scheme ?obs spec
  | Stm -> (
      fun ?obs adt ->
        match adt.connect_tracer with
        | None -> invalid_arg "Protect.protect: stm needs adt connect_tracer"
        | Some connect ->
            let det, tracer = Stm.create ?obs () in
            connect tracer;
            det)
  | Sharded (_, n) when n <= 0 ->
      invalid_arg "Protect.protect: shard count must be positive"
  | Sharded (Abstract_lock, n) ->
      fun ?obs _ -> Abstract_lock.detector ?reduce_scheme ~stripes:n ?obs spec
  | Sharded ((Global_lock | General_gk | Stm | Sharded _) as base, _) ->
      invalid_arg
        (Fmt.str "Protect.protect: %s cannot be sharded" (scheme_name base))
  | Forward_gk | General_gk | Sharded (Forward_gk, _) ->
      (* the scheme fixes [allow_rollback] (forward vs general) and
         [nshards] (unsharded vs footprint-sharded, forward only) *)
      let nshards = match s with Sharded (_, n) -> n | _ -> 0 in
      let plan =
        Gatekeeper.plan ~nshards ~allow_rollback:(s = General_gk) spec
      in
      fun ?obs adt ->
        fst (Gatekeeper.instance ?obs plan ~hooks:(require_hooks s adt))

(** Build a detector for [spec] over [adt] with the given scheme: {!prepare}
    applied once.  [?obs] enables/disables the detector's observability
    registry.  [?reduce_scheme] is forwarded to {!Abstract_lock.detector}.

    Every scheme that evaluates commutativity conditions does so through
    the spec compiler ({!Commlat_core.Compile}): gatekeepers check
    state-free conditions with zero-environment, zero-allocation closures
    and state-dependent ones with {!Formula.eval} over their logs;
    abstract locks compute lock keys with {!Compile.key}.

    Raises [Invalid_argument] when the scheme needs something the [adt]
    record doesn't offer (gatekeeper hooks, an STM tracer connector), when
    the spec is outside the scheme's logic fragment (non-SIMPLE spec under
    [Abstract_lock], non-ONLINE-CHECKABLE under [Forward_gk]), or on a
    malformed [Sharded] scheme ([Sharded] applies to the forward
    gatekeeper and abstract locking only, and does not nest).  The general
    gatekeeper cannot be sharded: its past-state reconstruction needs one
    globally ordered mutation log. *)
let protect ?obs ?reduce_scheme ~(spec : Spec.t) ~(adt : adt) (s : scheme) :
    Detector.t =
  prepare ?reduce_scheme ~spec s ?obs adt

(** Every base scheme, in lattice-ish order (coarsest first). *)
let all_schemes = [ Global_lock; Abstract_lock; Forward_gk; General_gk; Stm ]
