(** Adaptive conflict-detector selection.

    The paper closes §5 with: "the ability to rank checkers by permittivity
    can allow an automated system to adaptively and dynamically select from
    these implementations as run-time needs change, given observations of
    parallelism and overhead, though we leave the design and development of
    such a system to future work."  This module is that system, in two
    forms that navigate the same lattice:

    - {b Offline sampling} is the bulk-synchronous form: {!choose} runs a
      {e sampling prefix} of the workload under each candidate, measuring
      throughput (which folds together the detector's overhead [o_d] and
      the parallelism [a_d] it admits at {!processors} — exactly the two
      quantities the paper's [T·o_d/min(a_d,p)] model trades off), and
      the winner runs the full workload.
    - {b The online controller} is the long-running form (`commlat serve
      --adaptive`): a hysteresis {!controller} walks a chain of lattice
      points at run time, consuming per-window observability deltas
      ({!signals}) — strengthening one step when conflict-check overhead
      dominates and nothing aborts, weakening back toward the precise spec
      when the abort ratio climbs.  The mechanism that makes the verdict
      take effect (detector hot-swap at an epoch boundary) lives in the
      server; this module owns only the decision rule, so it can be
      tested deterministically on synthetic signal streams.

    Sampling re-executes the prefix from scratch per candidate, so the
    candidate constructor must provide fresh state each time (the same
    requirement the benchmarks have). *)

open Commlat_core

(** The online controller's rule: strengthen one step when
    checks-per-invocation exceeds [strengthen_above] with a (near-)zero
    abort ratio; weaken one step when the abort ratio exceeds
    [weaken_above]; hold for [cooldown] observation windows after any
    transition (weakening bypasses the cooldown — it is the safety
    valve). *)
type thresholds = { strengthen_above : float; weaken_above : float; cooldown : int }

(** Simulated processors every offline sample runs on. *)
let processors = 4

type 'w candidate = {
  name : string;
  prepare : unit -> Detector.t * (Txn.t -> 'w -> 'w list) * 'w list;
      (** fresh application state + detector + operator + initial worklist *)
}

type verdict = Hold | Strengthen | Weaken

let verdict_name = function
  | Hold -> "hold"
  | Strengthen -> "strengthen"
  | Weaken -> "weaken"

(** One observation window's worth of detector-counter deltas.  All fields
    are differences between two successive obs snapshots of the {e
    currently installed} detector (never lifetime totals).  Counters a
    scheme does not export (a lock detector has no [checks]; a gatekeeper
    has no [lock_denials]) are simply 0. *)
type signals = {
  s_invocations : int;
  s_conflicts : int;  (** spec-refused invocations (gatekeepers) *)
  s_checks : int;  (** commutativity conditions evaluated *)
  s_lock_denials : int;  (** lock-based schemes' refusals *)
}

let no_signals =
  { s_invocations = 0; s_conflicts = 0; s_checks = 0; s_lock_denials = 0 }

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

(* ------------------------------------------------------------------ *)
(* The online controller                                               *)
(* ------------------------------------------------------------------ *)

(** Hysteresis state for one lattice chain (one protected ADT).  [levels]
    is ordered weakest-first: index 0 is the most precise spec, the last
    index the coarsest strengthening. *)
type controller = {
  c_levels : string array;
  c_strengthen_above : float;
  c_weaken_above : float;
  c_cooldown : int;
  mutable c_cur : int;
  mutable c_window : int;  (** windows observed so far *)
  mutable c_cool : int;  (** windows left before strengthening again *)
  c_burned : bool array;
      (** [c_burned.(i)]: level [i] was recently weakened {e away from} —
          it refused too much under the current workload — so the
          controller will not strengthen back into it until the workload
          has looked calm (low checks, no conflicts) for [c_cooldown]
          consecutive windows.  This is what stops the
          strengthen/abort/weaken limit cycle a plain threshold rule
          exhibits on a steady contended phase. *)
  mutable c_quiet : int;  (** consecutive calm windows, for un-burning *)
  mutable c_transitions : transition list;  (** newest first *)
}

let controller (th : thresholds) (levels : string list) : controller =
  (match levels with
  | [] | [ _ ] -> invalid_arg "Adaptive.controller: needs at least two levels"
  | _ -> ());
  {
    c_levels = Array.of_list levels;
    c_strengthen_above = th.strengthen_above;
    c_weaken_above = th.weaken_above;
    c_cooldown = max 0 th.cooldown;
    c_cur = 0;
    c_window = 0;
    c_cool = 0;
    c_burned = Array.make (List.length levels) false;
    c_quiet = 0;
    c_transitions = [];
  }

let current (c : controller) = c.c_cur
let current_level (c : controller) = c.c_levels.(c.c_cur)
let transitions (c : controller) = List.rev c.c_transitions

let ratio num den = float_of_int num /. float_of_int (max 1 den)

(** Feed one window of signals; returns the verdict AND applies it to the
    controller's own level cursor (the caller performs the actual detector
    swap, then reads {!current}).  The rule:

    - [abort_ratio > weaken_above] → {!Weaken} (one step toward precise),
      immediately — aborting work is strictly worse than checking it, so
      weakening ignores the cooldown.  The level being left is {e burned}.
    - [check_cost > strengthen_above] with an abort ratio under a quarter
      of the weaken threshold, cooldown expired, and the next-stronger
      level not burned → {!Strengthen} one step.
    - otherwise {!Hold}.  Calm windows (low cost, no conflicts)
      accumulate; [cooldown] consecutive calm windows clear every burn
      (the workload changed, strengthened levels deserve another try). *)
let observe (c : controller) (s : signals) : verdict =
  let w = c.c_window in
  c.c_window <- w + 1;
  if c.c_cool > 0 then c.c_cool <- c.c_cool - 1;
  let refusals = s.s_conflicts + s.s_lock_denials in
  let abort_ratio = ratio refusals s.s_invocations in
  let check_cost = ratio s.s_checks s.s_invocations in
  let calm = refusals = 0 && check_cost <= c.c_strengthen_above in
  if calm then begin
    c.c_quiet <- c.c_quiet + 1;
    if c.c_quiet >= c.c_cooldown then Array.fill c.c_burned 0 (Array.length c.c_burned) false
  end
  else c.c_quiet <- 0;
  let move verdict target =
    let tr =
      {
        t_window = w;
        t_from = c.c_levels.(c.c_cur);
        t_to = c.c_levels.(target);
        t_verdict = verdict;
        t_abort_ratio = abort_ratio;
        t_check_cost = check_cost;
      }
    in
    c.c_transitions <- tr :: c.c_transitions;
    c.c_cur <- target;
    c.c_cool <- c.c_cooldown;
    verdict
  in
  if s.s_invocations = 0 then Hold
  else if abort_ratio > c.c_weaken_above && c.c_cur > 0 then begin
    (* the level we are leaving refused too much of this workload *)
    c.c_burned.(c.c_cur) <- true;
    move Weaken (c.c_cur - 1)
  end
  else if
    check_cost > c.c_strengthen_above
    && abort_ratio <= c.c_weaken_above /. 4.0
    && c.c_cool = 0
    && c.c_cur < Array.length c.c_levels - 1
    && not c.c_burned.(c.c_cur + 1)
  then move Strengthen (c.c_cur + 1)
  else Hold

let pp_transition ppf (t : transition) =
  Fmt.pf ppf "w%d %s: %s -> %s (aborts %.3f, checks/inv %.2f)" t.t_window
    (verdict_name t.t_verdict) t.t_from t.t_to t.t_abort_ratio t.t_check_cost

(* ------------------------------------------------------------------ *)
(* Offline sampling                                                    *)
(* ------------------------------------------------------------------ *)

(** Score = estimated virtual runtime per unit of useful work on
    {!processors} simulated processors: [makespan / committed], scaled by
    the measured per-unit wall cost.  Folds overhead and admitted
    parallelism into one number, exactly what the paper's model divides. *)
let score ~sample_size (c : 'w candidate) : float =
  let detector, operator, init = c.prepare () in
  let prefix =
    let rec take n = function
      | [] -> []
      | _ when n = 0 -> []
      | x :: r -> x :: take (n - 1) r
    in
    take sample_size init
  in
  let s = Executor.run_rounds ~processors ~detector ~operator prefix in
  if s.Executor.committed = 0 then infinity
  else
    let per_unit_wall = s.Executor.wall_s /. Float.max 1.0 s.Executor.total_work in
    per_unit_wall *. s.Executor.makespan /. float_of_int s.Executor.committed

(** Sample every candidate on the first [sample_size] worklist items and
    pick the one with the lowest virtual per-iteration cost.

    Candidates must have pairwise-distinct, non-empty names: names are how
    the decision's [scores] report reads, and scoring through a name lookup
    is precisely the bug that used to silently credit one duplicate with
    the other's measurement. *)
let choose ~sample_size (candidates : 'w candidate list) : 'w decision =
  match candidates with
  | [] -> invalid_arg "Adaptive.choose: no candidates"
  | _ ->
      List.iter
        (fun c -> if c.name = "" then invalid_arg "Adaptive.choose: empty candidate name")
        candidates;
      let seen = Hashtbl.create (List.length candidates) in
      List.iter
        (fun c ->
          if Hashtbl.mem seen c.name then
            invalid_arg
              (Printf.sprintf "Adaptive.choose: duplicate candidate name %S" c.name)
          else Hashtbl.add seen c.name ())
        candidates;
      (* each candidate is paired with ITS OWN score — never matched back
         up by name *)
      let scored =
        List.map (fun c -> (c, score ~sample_size c)) candidates
      in
      let winner, _ =
        List.fold_left
          (fun ((_, best_s) as best) ((_, s) as cand) ->
            if s < best_s then cand else best)
          (List.hd scored) (List.tl scored)
      in
      {
        winner;
        scores = List.map (fun (c, s) -> (c.name, s)) scored;
        samples = sample_size;
      }

(** Sample, pick, and run the winner on the full workload.  Returns the
    decision and the winning run's stats. *)
let run ~sample_size (candidates : 'w candidate list) :
    'w decision * Executor.stats =
  let decision = choose ~sample_size candidates in
  let detector, operator, init = decision.winner.prepare () in
  let stats = Executor.run_rounds ~processors ~detector ~operator init in
  (decision, stats)

let pp_decision ppf (d : _ decision) =
  Fmt.pf ppf "winner=%s after %d samples:" d.winner.name d.samples;
  List.iter (fun (n, s) -> Fmt.pf ppf " %s=%.3gus" n (1e6 *. s)) d.scores
