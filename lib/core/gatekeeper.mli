(** Gatekeeping (paper §3.3): conflict detection by logging method
    invocations and evaluating commutativity conditions directly.

    A gatekeeper intercepts every method invocation [m(v)]: it evaluates
    the primitive-function set [C_m] into a result log, executes the
    method, checks the condition [f_{ma,m}] against every active invocation
    [ma] of other transactions (reading [ma]'s side from its log), and
    raises {!Detector.Conflict} if any condition is false.  The whole
    sequence is atomic (one mutex per gatekeeper).  A refusal's reason,
    and its [abort_cause] label, is the method pair ["ma;m"], formatted
    once per declared pair by {!plan}.

    When a transaction ends (the detector's [on_commit]/[on_abort]), its
    entries leave the active table; a per-transaction index names the
    buckets holding them, so the end of a transaction visits only those
    buckets and their shards.  A forward gatekeeper, coarse or
    striped, calls [hooks.forget] on the dropped [rollback_log]
    invocations right then.  A general gatekeeper keeps a committed
    transaction's mutations in its mutation log while an older active
    invocation may need them undone to reach its [s1], and forgets them
    once none does; an aborted transaction's mutations leave the log at
    once.

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
    it.  The shards are always {e striped} under per-shard {!Guard.t}s,
    so same-ADT-different-key invocations no longer serialize on a single
    gatekeeper mutex: a keyed invocation, a keyed commit, a keyed
    {!batch_check} and the abort of a transaction with only keyed entries
    each take their shard's guard and the exec guard, and only keyless
    ones take every shard guard.  The detector's [txn_guards] reports
    those guards for the abort; an unsharded gatekeeper answers its one
    guard.  Striping needs checks that read nothing but the two
    invocations, so only a forward gatekeeper over state-free conditions
    can be sharded: a general gatekeeper reconstructs past states from
    one globally ordered mutation log, which per-shard guards would not
    order.

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
    [abort_cause] labels (["first;second"], one per [conflicts]).  Sharded
    gatekeepers additionally export [shard_inserts], [overflow_inserts],
    [checks_avoided] and per-shard [shard_NN_inserts] counters.  The same data is exported through the
    detector's [snapshot] hook. *)
val obs : t -> Commlat_obs.Obs.t

(** The footprint analysis backing a sharded gatekeeper ([None] when
    unsharded). *)
val footprint : t -> Footprint.t option

(** [batch_check t inv exec] is a {e zero-insertion conflict probe}: the
    invoke protocol minus the insert.  It takes the guards an invocation
    of [inv]'s shard takes — the gatekeeper guard when coarse; when
    striped, the shard's guard (every shard guard for a keyless method)
    with [exec] under the exec guard — runs [exec], stamps [inv.ret], and
    checks [inv] in one pass against every active invocation it can
    conflict with: its own shard plus the overflow shard when keyed (the
    footprint's shard-disjointness discharges the other keyed shards),
    all shards otherwise.  It returns [exec]'s result, or raises
    {!Detector.Conflict} on the first refutation.  Nothing enters the
    active table, so the server (lib/server/engine.ml) admits reads that
    are effect-free both abstractly and concretely this way: a passing
    read commits without ever entering the log, which is sound because a
    committed invocation is not required to stay visible to later
    conflict checks.  Precondition: no condition involving [inv]'s method
    needs state reconstruction (always true for forward gatekeepers). *)
val batch_check : t -> Invocation.t -> (unit -> Value.t) -> Value.t

(** The [C_m] log set of a method: the s1-functions (name, argument terms)
    recorded on every invocation of that method.  Order is unspecified. *)
val cm_functions : t -> string -> (string * Formula.term list) list

(** Number of entries in the active-invocation table (taken under the
    gatekeeper's guards).  Zero means no open transaction holds state
    here, the condition for swapping this gatekeeper out (DESIGN.md §12). *)
val active_count : t -> int

(** Build a gatekeeper over [spec] and its detector facade.  The detector
    is named ["fwd-gk(ADT)"], ["gen-gk(ADT)"] or ["fwd-gk-sharded(ADT)"];
    rendered traces and canonical trace keys embed that name.

    - [~allow_rollback:false] is the forward gatekeeper (paper §3.3.1): it
      raises [Invalid_argument] if the spec has non-ONLINE-CHECKABLE
      conditions, and never uses [hooks.undo]/[redo], so bare [hooks sfun]
      suffices.
    - [~allow_rollback:true] is the general gatekeeper (paper §3.3.2): it
      accepts any L1 spec and needs working [undo]/[redo] hooks (or
      [sfun_at]).
    - [nshards > 0] (default [0], unsharded) footprint-shards the active
      table, striped under per-shard guards.  It raises
      [Invalid_argument] unless the gatekeeper is forward and every
      condition is state-free.  Sharding reports exactly the conflicts of
      the unsharded gatekeeper; [Footprint.all_keyless] specs degenerate
      to a single overflow shard.
    - [?obs] defaults to enabled, unless
      [Commlat_obs.Obs.set_default_enabled false] was called.

    [make] is {!plan} followed by {!instance}. *)
val make :
  ?nshards:int ->
  ?obs:bool ->
  allow_rollback:bool ->
  hooks:hooks ->
  Spec.t ->
  Detector.t * t

(** The spec stage of a gatekeeper: the validation {!make} performs and
    every table it derives from the spec alone — the compiled condition
    and refusal label of each method pair, the [C_m] log sets and, when
    sharded, the {!Footprint} analysis. *)
type plan

(** [plan ?nshards ~allow_rollback spec] validates and analyses [spec] as
    {!make} does, raising the same [Invalid_argument]s, but builds no
    mutable state.  A plan is never written once built, so instances on
    different domains may share it. *)
val plan : ?nshards:int -> allow_rollback:bool -> Spec.t -> plan

(** The instance stage: a gatekeeper with fresh mutable state — obs
    registry and counters, shards and their guards, the transaction index
    and the logs — over [hooks], sharing [plan]'s tables.  Every instance
    of one plan starts from the same state. *)
val instance : ?obs:bool -> plan -> hooks:hooks -> Detector.t * t
