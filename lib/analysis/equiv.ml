(** Lattice comparison of a synthesized specification against a
    hand-written one, pair by pair.

    Two grains of comparison, both reported:

    - {b observational} (the primary verdict): the two conditions are
      evaluated over the {e reachable} observation space — every scenario
      environment the bounded oracle generates ({!Synth.scenario_envs}).
      This is the semantically meaningful order: conditions are only ever
      evaluated on real observations, and two syntactically different
      formulas that agree on every reachable observation induce identical
      detectors.  (Example: on the set, [r1 = false] and
      [r1 = false /\ r2 = false] coincide wherever [v1[0] = v2[0]] —
      a second add of an element the first add found present never
      modifies either.)
    - {b syntactic} ({!Commlat_core.Lattice.leq_syntactic} both ways):
      the cheap sufficient check, reported so a reader can tell
      "identical formula" from "observationally equivalent formula".

    A synthesized condition that is strictly {e weaker} observationally
    than the hand-written one means the synthesizer found commutativity
    the hand spec gave away — the hand spec is a strengthening (paper §4),
    not a bug.  Strictly {e stronger} means residual incompleteness (the
    grammar could not express the separator).  [Incomparable] means the
    synthesized condition admits some reachable scenario the hand one
    rejects {e and} vice versa — with a converged synthesis this
    indicates an unsound hand condition and deserves a hard look. *)

open Commlat_core

type relation =
  | Equivalent
  | Synth_weaker  (** synthesized admits more: hand spec is a strengthening *)
  | Synth_stronger  (** synthesized admits less: grammar expressiveness gap *)
  | Incomparable
  | No_evidence  (** no scenario environment evaluated both conditions *)

let relation_name = function
  | Equivalent -> "equivalent"
  | Synth_weaker -> "synth-weaker"
  | Synth_stronger -> "synth-stronger"
  | Incomparable -> "incomparable"
  | No_evidence -> "no-evidence"

type pair_relation = {
  eq_pair : string * string;
  eq_hand : Formula.t;
  eq_synth : Formula.t;
  eq_relation : relation;  (** observational, over reachable scenarios *)
  eq_syntactic_equal : bool;  (** [leq_syntactic] holds in both directions *)
  eq_envs : int;  (** scenario environments both conditions evaluated on *)
}

(** Is the relation acceptable for a re-derivation gate?  [Equivalent] and
    [Synth_weaker] are: the synthesized spec sits at or above the hand
    spec in the lattice while staying sound. *)
let acceptable = function
  | Equivalent | Synth_weaker -> true
  | Synth_stronger | Incomparable | No_evidence -> false

let eval_opt env f =
  match Formula.eval env f with
  | b -> Some b
  | exception (Formula.Unsupported _ | Value.Type_error _ | Invalid_argument _) ->
      None

(** Compare the conditions of [synth] and [hand] for one ordered pair over
    the reachable observation environments. *)
let compare_pair ~envs ~hand_cond ~synth_cond pair : pair_relation =
  let le_sh = ref true (* synth => hand *) and le_hs = ref true in
  let n = ref 0 in
  List.iter
    (fun env ->
      match (eval_opt env synth_cond, eval_opt env hand_cond) with
      | Some s, Some h ->
          incr n;
          if s && not h then le_sh := false;
          if h && not s then le_hs := false
      | _ -> ())
    envs;
  let relation =
    if !n = 0 then No_evidence
    else
      match (!le_sh, !le_hs) with
      | true, true -> Equivalent
      | false, true -> Synth_weaker
      | true, false -> Synth_stronger
      | false, false -> Incomparable
  in
  {
    eq_pair = pair;
    eq_hand = hand_cond;
    eq_synth = synth_cond;
    eq_relation = relation;
    eq_syntactic_equal =
      Lattice.leq_syntactic synth_cond hand_cond
      && Lattice.leq_syntactic hand_cond synth_cond;
    eq_envs = !n;
  }

(** Compare whole specifications over every ordered pair either spec
    covers, using [dom]'s scenario space as the reachable observation
    sample.  Pairs are compared in sorted order. *)
let compare_specs (dom : Domain.t) ~(hand : Spec.t) ~(synth : Spec.t) :
    pair_relation list =
  let pairs =
    List.sort_uniq compare
      (List.map fst (Spec.pairs hand) @ List.map fst (Spec.pairs synth))
  in
  List.map
    (fun (m1, m2) ->
      let envs = Synth.scenario_envs dom hand (m1, m2) in
      compare_pair ~envs
        ~hand_cond:(Spec.cond hand ~first:m1 ~second:m2)
        ~synth_cond:(Spec.cond synth ~first:m1 ~second:m2)
        (m1, m2))
    pairs
