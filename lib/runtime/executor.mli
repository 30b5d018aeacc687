(** Speculative executors for amorphous data-parallel loops.

    Applications are expressed Galois-style: a worklist of items and an
    {e operator} that processes one item inside a transaction, performing
    method invocations on shared ADTs through a conflict {!Detector} and
    returning newly generated work.  Two executors are provided:

    - {!run_rounds} — a deterministic {e bulk-synchronous} speculative
      executor: in each round up to [processors] pending items execute as
      concurrent transactions, survivors commit at the end of the round,
      conflict victims roll back and retry in a later round.  With
      [processors = max_int] and unit costs this is exactly the ParaMeter
      methodology the paper uses to measure available parallelism (see
      {!Parameter}).
    - {!run_domains} — real concurrency on OCaml 5 domains; interleaving
      is at method-invocation granularity.  Work is spread by a
      {!Commlat_wsdeque.Pool} (per-domain deques with stealing, idle
      domains parked, exact termination), and aborts are made atomic by
      {!Boost.abort}.

    The operator {b must} register an undo action with its transaction for
    every mutation it performs, so aborts can roll back. *)

open Commlat_core
module Obs = Commlat_obs.Obs

type stats = {
  committed : int;  (** iterations that committed *)
  aborted : int;  (** iteration executions that rolled back *)
  rounds : int option;
      (** # of bulk-synchronous rounds = critical path length; [None] for
          {!run_domains} (a free-running execution has no rounds) *)
  makespan : float;
      (** {!run_rounds}: sum over rounds of the max iteration cost (cost
          units).  {!run_domains}: real elapsed seconds (= [wall_s]). *)
  total_work : float;
      (** {!run_rounds}: summed cost of every execution, retries included
          (cost units).  {!run_domains}: summed per-domain busy seconds. *)
  wall_s : float;  (** real elapsed seconds *)
  backoff_seed : int option;
      (** {!run_domains}: seed of the per-domain backoff-jitter RNGs
          (printed by {!pp_stats} as [backoff-seed=N]); [None] for
          bulk-synchronous runs *)
}

val pp_stats : stats Fmt.t
val abort_ratio : stats -> float

(** The round count of a bulk-synchronous run.  Raises [Invalid_argument]
    on {!run_domains} stats, which have no rounds. *)
val rounds_exn : stats -> int

(** Average parallelism.  Bulk-synchronous runs: committed iterations per
    round (the ParaMeter sense).  Domain runs: effective parallelism
    [total_work /. wall_s], at most the domain count. *)
val parallelism : stats -> float

(** Bulk-synchronous speculative execution.  [cost] assigns each item a
    virtual cost (default 1.0); [obs], when given, receives
    committed/aborted/retries/rounds counters and per-round commit/abort
    histograms. *)
val run_rounds :
  ?processors:int ->
  ?cost:('w -> float) ->
  ?obs:Obs.t ->
  detector:Detector.t ->
  operator:(Txn.t -> 'w -> 'w list) ->
  'w list ->
  stats

(** [run_rounds ~processors:1] (conflict detection still active); used for
    the overhead measurements [o_d]. *)
val run_sequential :
  ?cost:('w -> float) ->
  ?obs:Obs.t ->
  detector:Detector.t ->
  operator:(Txn.t -> 'w -> 'w list) ->
  'w list ->
  stats

(** Real concurrency on OCaml 5 domains.  The operator additionally
    receives the detector so it can invoke through it on any domain.
    Returned stats have [rounds = None], [makespan = wall_s] and
    [total_work] = summed per-domain busy seconds.  A non-[Conflict]
    exception from the operator is re-raised after all domains join.

    Retry backoff sleeps are jittered by per-domain RNGs seeded from
    [backoff_seed] (and the domain index), so contending workers don't
    wake in lockstep; the seed is echoed in [stats.backoff_seed] and by
    {!pp_stats}. *)
val run_domains :
  ?domains:int ->
  ?backoff_seed:int ->
  ?obs:Obs.t ->
  detector:Detector.t ->
  operator:(Detector.t -> Txn.t -> 'w -> 'w list) ->
  'w list ->
  stats
