(** Gatekeeping (paper §3.3): conflict detection by logging method
    invocations and evaluating commutativity conditions directly.

    A gatekeeper intercepts every method invocation [m(v)]: it evaluates
    the primitive-function set [C_m] into a result log, executes the
    method, checks the condition [f_{ma,m}] against every active invocation
    [ma] of other transactions (reading [ma]'s side from its log), and
    raises {!Detector.Conflict} if any condition is false.  The whole
    sequence is atomic (one mutex per gatekeeper).

    {b Forward} gatekeepers ([~allow_rollback:false]) require every
    condition to be ONLINE-CHECKABLE (logic L3).  {b General} gatekeepers
    ([~allow_rollback:true]) accept any L1 condition: functions of [s1]
    that need m2-information (union-find's [rep(s1, c)]) are evaluated
    either by rolling the data structure back — one batched
    reverse-chronological undo/redo sweep per incoming invocation — or,
    when the ADT provides [sfun_at], by querying a partially persistent
    representation directly.

    Conditions are evaluated through {!Compile}: state-free ones by their
    zero-environment closures, state-dependent ones by {!Formula.eval}
    over the log-backed environment.

    {b Footprint sharding} ([nshards > 0]): the active-invocation table is
    split into hash shards keyed by the {!Footprint} analysis, plus one
    overflow shard for keyless methods.  A keyed incoming invocation is
    checked only against its own shard and the overflow shard — the
    analysis guarantees invocations in other keyed shards commute with
    it.  When the spec additionally needs no rollback and every condition
    is state-free, the shards are {e striped} under per-shard
    {!Guard.t}s, so same-ADT-different-key invocations no longer
    serialize on a single gatekeeper mutex.

    Most callers should construct detectors through {!Commlat_runtime}'s
    [Protect] module rather than calling {!make} directly. *)

(** How a gatekeeper talks to the data structure it protects. *)
type hooks = {
  sfun : string -> Value.t list -> Value.t;
      (** evaluate an abstract-state function ([rep], [rank], [loser], …)
          on the {e current} state *)
  sfun_at : (int -> string -> Value.t list -> Value.t) option;
      (** [sfun_at seq name args]: evaluate a state function in the state
          just {e before} the invocation stamped [seq] executed, {b without
          rolling back} — for partially-persistent ADTs such as
          {!Commlat_adts.Union_find_versioned}.  When provided, the general
          gatekeeper uses it instead of the undo/redo sweep. *)
  undo : Invocation.t -> unit;
      (** restore the state to just before this invocation ran (general
          gatekeeping only; forward gatekeepers never call it) *)
  redo : Invocation.t -> unit;  (** re-apply an undone invocation *)
  forget : Invocation.t -> unit;
      (** the gatekeeper will never undo this invocation again: drop any
          bookkeeping (e.g. concrete write logs) *)
}

(** Build hooks; omitted [undo]/[redo] raise if invoked, [forget] defaults
    to a no-op. *)
val hooks :
  ?undo:(Invocation.t -> unit) ->
  ?redo:(Invocation.t -> unit) ->
  ?forget:(Invocation.t -> unit) ->
  ?sfun_at:(int -> string -> Value.t list -> Value.t) ->
  (string -> Value.t list -> Value.t) ->
  hooks

(** Gatekeeper state (exposed for instrumentation). *)
type t

(** Number of state-reconstruction sweeps performed so far. *)
val rollback_count : t -> int

(** The gatekeeper's observability registry: [invocations], [checks],
    [conflicts], [log_hits], [rollback_hits], [rollbacks],
    [sfun_at_queries], the [sweep_depth] distribution and per-method-pair
    [abort_cause] labels.  Sharded gatekeepers additionally export
    [shard_inserts], [overflow_inserts], [checks_avoided] and per-shard
    [shard_NN_inserts] counters.  The same data is exported through the
    detector's [snapshot] hook. *)
val obs : t -> Commlat_obs.Obs.t

(** The footprint analysis backing a sharded gatekeeper ([None] when
    unsharded). *)
val footprint : t -> Footprint.t option

(** Whether the gatekeeper runs the striped (per-shard guard) protocol
    rather than a single global guard. *)
val striped : t -> bool

(** Batch log scan: check one {e executed} incoming invocation against
    every active invocation it can conflict with — its own shard plus the
    overflow shard when keyed (the footprint's shard-disjointness
    discharges the other keyed shards), all shards otherwise — in a
    single pass with no intermediate list, raising {!Detector.Conflict}
    on the first refutation.  This is the scan the forward and striped
    invoke paths run after [exec]; it is exposed for tests and for
    embedders that manage their own entry insertion.  The server
    (lib/server/engine.ml) also uses it as a {e zero-insertion conflict
    probe}: a method that is effect-free both abstractly and concretely
    executes under the guards, stamps its return, and batch-checks — if
    the scan passes, the read commits without ever entering the log,
    which is sound because a committed invocation is not required to
    stay visible to later conflict checks.  Preconditions: the caller
    holds the gatekeeper's guard(s) for the scanned shards, and no
    condition involving [inv]'s method needs state reconstruction (always
    true for forward/striped gatekeepers). *)
val batch_check : t -> Invocation.t -> unit

(** The [C_m] log set of a method: the s1-functions (name, argument terms)
    recorded on every invocation of that method.  Order is unspecified. *)
val cm_functions : t -> string -> (string * Formula.term list) list

(** {1 Live-state transfer}

    Support for hot-swapping one gatekeeper for another over the same ADT
    (the server's adaptive controller; see DESIGN.md §12).  The swap
    protocol is: quiesce or hold every guard of the {e old} gatekeeper,
    read {!active_invocations}, build the successor, {!adopt} the list,
    install the successor's detector. *)

(** Every entry in the active-invocation table, in seq (execution) order.
    Takes the gatekeeper's guards, so it is safe to call concurrently —
    though a meaningful swap reads it at a point where the caller knows no
    new invocations can race in (e.g. the server's epoch barrier, where
    every open transaction has just committed and the list is empty). *)
val active_invocations : t -> Invocation.t list

(** Re-home already-executed invocations into this gatekeeper: restamp
    their [seq] (preserving relative order), rebuild their [C_m] logs
    against the current state, and insert them into the active table (and
    mutation log, for [rollback_log] methods).  Sound when the adopted
    methods' log sets are empty or the underlying state has not mutated
    since they executed — trivially true for the empty list the server's
    epoch barrier produces, and for state-free (forward/striped) specs. *)
val adopt : t -> Invocation.t list -> unit

(** Build a gatekeeper over [spec] and its detector facade.  The detector
    is named ["fwd-gk(ADT)"], ["gen-gk(ADT)"], ["fwd-gk-sharded(ADT)"] or
    ["gen-gk-sharded(ADT)"]; rendered traces and DPOR fingerprints embed
    that name.

    - [~allow_rollback:false] is the forward gatekeeper (paper §3.3.1): it
      raises [Invalid_argument] if the spec has non-ONLINE-CHECKABLE
      conditions, and never uses [hooks.undo]/[redo], so bare [hooks sfun]
      suffices.
    - [~allow_rollback:true] is the general gatekeeper (paper §3.3.2): it
      accepts any L1 spec and needs working [undo]/[redo] hooks (or
      [sfun_at]).
    - [nshards > 0] (default [0], unsharded) footprint-shards the active
      table.  When every condition is state-free and no rollback is
      allowed, the shards are striped under per-shard guards; otherwise
      sharding only narrows the check scan, and a general gatekeeper keeps
      its single guard because past-state reconstruction needs a globally
      ordered mutation log.  Sharding reports exactly the conflicts of the
      unsharded gatekeeper; [Footprint.all_keyless] specs degenerate to a
      single overflow shard.
    - [?obs] defaults to the [COMMLAT_OBS] environment toggle. *)
val make :
  ?nshards:int ->
  ?obs:bool ->
  allow_rollback:bool ->
  hooks:hooks ->
  Spec.t ->
  Detector.t * t
