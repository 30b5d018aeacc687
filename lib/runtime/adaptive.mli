(** Adaptive detector selection (paper §5's "future work" system).

    Two forms navigate the same commutativity lattice:

    - {b Offline sampling}: run a sampling prefix of the workload under
      each candidate detector on 4 simulated processors, score by virtual
      per-iteration cost, run the winner ({!choose} / {!run}).  One
      decision, before execution.
    - {b The online controller}: a hysteresis {!controller} consumes
      per-window observability deltas ({!signals}) from the {e live}
      detector and walks a chain of lattice points one step at a time —
      strengthening when conflict-check overhead dominates, weakening back
      toward the precise spec when abort ratios climb.  The host (the
      server's epoch scheduler) performs the actual hot-swap and feeds the
      next window.

    The module owns only decision logic; it never swaps a detector itself,
    which keeps the controller deterministic and unit-testable on
    synthetic signal streams. *)

open Commlat_core

(** The online controller's rule: strengthen one lattice step when
    checks-per-invocation exceeds [strengthen_above] while (almost)
    nothing aborts; weaken one step when the abort ratio exceeds
    [weaken_above]; hold [cooldown] observation windows after any
    transition (weakening bypasses the cooldown — it is the safety
    valve). *)
type thresholds = { strengthen_above : float; weaken_above : float; cooldown : int }

(** A named way to run the workload: fresh state, a detector over it, the
    operator and initial worklist.  [prepare] must rebuild from scratch on
    every call (sampling executes a prefix once per candidate, then the
    winner re-runs the full list). *)
type 'w candidate = {
  name : string;
  prepare : unit -> Detector.t * (Txn.t -> 'w -> 'w list) * 'w list;
}

type verdict = Hold | Strengthen | Weaken

val verdict_name : verdict -> string

(** One observation window's detector-counter deltas (differences between
    successive obs snapshots, never lifetime totals).  Counters a scheme
    does not export are 0. *)
type signals = {
  s_invocations : int;
  s_conflicts : int;  (** spec-refused invocations (gatekeepers) *)
  s_checks : int;  (** commutativity conditions evaluated *)
  s_lock_denials : int;  (** lock-based schemes' refusals *)
}

(** All zeros. *)
val no_signals : signals

(** One recorded lattice move. *)
type transition = {
  t_window : int;  (** observation-window index (0-based) *)
  t_from : string;  (** level name the controller left *)
  t_to : string;  (** level name it installed *)
  t_verdict : verdict;  (** [Strengthen] or [Weaken] *)
  t_abort_ratio : float;  (** the window's conflicts-per-invocation *)
  t_check_cost : float;  (** the window's checks-per-invocation *)
}

type 'w decision = {
  winner : 'w candidate;
  scores : (string * float) list;  (** virtual time per iteration, lower wins *)
  samples : int;
}

(** {1 The online controller} *)

(** Hysteresis state for one lattice chain (one protected ADT). *)
type controller

(** [controller thresholds levels] — [levels] are the chain's level
    names, weakest-first: index 0 the most precise spec, the last index
    the coarsest strengthening.  The cursor starts at 0.

    @raise Invalid_argument if fewer than two levels are given. *)
val controller : thresholds -> string list -> controller

(** Current level index / name.  The caller installs the corresponding
    detector after each {!observe} that returns a non-[Hold] verdict. *)
val current : controller -> int

val current_level : controller -> string

(** Feed one window of signals.  Updates the cursor, cooldown, and burn
    set, records any transition, and returns the verdict.  A level the
    controller weakens {e away from} is {e burned} — not re-entered until
    the workload has looked calm (no refusals, check cost under threshold)
    for [cooldown] consecutive windows — which is what stops the
    strengthen/abort/weaken limit cycle on a steady contended phase. *)
val observe : controller -> signals -> verdict

(** All recorded transitions, oldest first. *)
val transitions : controller -> transition list

val pp_transition : transition Fmt.t

(** {1 Offline sampling} *)

(** Sample every candidate on [sample_size] worklist items with 4
    simulated processors; lower score wins.  Scores estimate virtual
    runtime per unit of useful work — the paper's [T·o_d/min(a_d,p)]
    folded into a measurement.

    @raise Invalid_argument on an empty candidate list, or on
    empty/duplicate names. *)
val choose : sample_size:int -> 'w candidate list -> 'w decision

(** [choose], then run the winner on the full worklist (again on 4
    simulated processors); returns the decision and the winning run's
    stats. *)
val run : sample_size:int -> 'w candidate list -> 'w decision * Executor.stats

val pp_decision : _ decision Fmt.t
