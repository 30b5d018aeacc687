(** CEGIS synthesis of commutativity conditions from reference ADT
    semantics (ROADMAP item 1; "Automatic Generation of Precise and Useful
    Commutativity Conditions", PAPERS.md).

    For each method pair the loop is the classic
    counterexample-guided inductive synthesis shape:

    + {b propose}: learn the weakest DNF formula over the {!Grammar} atoms
      that separates the accumulated sample set — [true] on every sample
      that observably commuted, [false] on every sample that did not
      (starting, with no samples, from the optimistic [true]);
    + {b refute}: sweep the bounded checker's scenario space
      ({!Soundness.fold_scenarios}: {!Domain} states x argument tuples,
      executed in both orders) and collect scenarios the candidate
      misclassifies — admitted-but-not-commuting (a soundness
      counterexample) or rejected-but-commuting (an incompleteness
      counterexample);
    + {b refine}: add a batch of {!batch} fresh counterexamples to the
      sample set and re-learn.

    The loop converges when the candidate classifies every scenario the
    bounded oracle can generate — always, because the scenario space is
    finite and every iteration adds at least one fresh sample.  If the
    grammar cannot express the exact separator (union-find's conditions
    need state functions), the learner keeps the candidate {e sound} and
    reports the residual incompleteness instead of over-approximating:
    commuting samples it cannot cover are left rejected, never the other
    way around.

    The synthesized conditions are state-free by construction, so each
    unordered pair is learned once (for [m1 <= m2]) and registered in both
    orientations via {!Commlat_core.Spec.add_sym}.  Mirroring is {e not}
    free, though: return values depend on execution order, so a formula
    exact for [(m1, m2)] observations is not automatically exact when
    mirrored onto [(m2, m1)] (on the set, [contains ; remove] sees
    [r_contains = true] where the reversed order sees [false]).  The loop
    therefore learns each unordered pair {e jointly}: the reversed
    orientation's scenarios join the sample space through a side-swapped
    environment ({!swap_env}), making the learned formula and its mirror
    exact simultaneously. *)

open Commlat_core

(* ------------------------------------------------------------------ *)
(* Scenarios: the bounded oracle's sample space                        *)
(* ------------------------------------------------------------------ *)

type scenario = {
  sc_state : string;
  sc_args1 : Value.t list;
  sc_args2 : Value.t list;
  sc_commutes : bool;
  sc_mirror : bool;
      (** scenario of the reversed pair, viewed through {!swap_env} *)
  sc_env : Formula.env;  (** forward-observation environment *)
}

(** Every scenario of the ordered pair, from {!Soundness.fold_scenarios}
    with observational equivalence recorded; tuples the reference rejects
    are left out. *)
let scenarios (dom : Domain.t) (spec : Spec.t) pair : scenario list =
  Soundness.fold_scenarios dom spec pair
    (fun acc -> function
      | None -> acc
      | Some (s : Soundness.scenario) ->
          {
            sc_state = s.Soundness.sc_state;
            sc_args1 = s.Soundness.sc_args1;
            sc_args2 = s.Soundness.sc_args2;
            sc_commutes = Soundness.equivalent s.Soundness.sc_fwd s.Soundness.sc_rev;
            sc_mirror = false;
            sc_env = s.Soundness.sc_env;
          }
          :: acc)
    []
  |> List.rev

(** The scenario environments alone — the reachable-observation sample
    space {!Equiv} compares specs over. *)
let scenario_envs dom spec pair =
  List.map (fun sc -> sc.sc_env) (scenarios dom spec pair)

(** Side-swapped view of an observation environment: a formula [f] written
    for the pair ([m1], [m2]) evaluates on [swap_env e] exactly as
    [Formula.mirror f] evaluates on [e].  Used to make each unordered
    pair's synthesis {e jointly} exact: return values depend on execution
    order, so a formula exact for one orientation is not automatically
    exact when mirrored onto the other — the reversed orientation's
    scenarios must constrain the learner too. *)
let swap_env (env : Formula.env) : Formula.env =
  let flip = function Formula.M1 -> Formula.M2 | Formula.M2 -> Formula.M1 in
  {
    env with
    Formula.arg = (fun side i -> env.Formula.arg (flip side) i);
    ret = (fun side -> env.Formula.ret (flip side));
  }

let swap_scenario sc = { sc with sc_mirror = true; sc_env = swap_env sc.sc_env }

(* ------------------------------------------------------------------ *)
(* The learner: exact DNF separation over atom valuations              *)
(* ------------------------------------------------------------------ *)

(* Atom valuations are tri-state: an atom whose evaluation raises on a
   sample (unsupported function, type mismatch) is treated conservatively
   — as possibly-true when checking that a disjunct admits no
   non-commuting sample, as false when counting the commuting samples it
   covers. *)
let v_false = 0

and v_true = 1

and v_err = 2

let eval_atom env atom =
  match Formula.eval env atom with
  | true -> v_true
  | false -> v_false
  | exception (Formula.Unsupported _ | Value.Type_error _ | Invalid_argument _) ->
      v_err

type sample = { sm_bits : int array; sm_commutes : bool; sm_scenario : scenario }

let sample_of ~atoms sc =
  {
    sm_bits = Array.of_list (List.map (eval_atom sc.sc_env) atoms);
    sm_commutes = sc.sc_commutes;
    sm_scenario = sc;
  }

(* Does the conjunction of [conj] (atom indices) cover sample [s]? *)
let covers ~lenient conj s =
  List.for_all
    (fun i ->
      let b = s.sm_bits.(i) in
      b = v_true || (lenient && b = v_err))
    conj

(** Greedy specialization: grow one conjunction that admits no negative
    sample while covering as many of [pos] as possible.  Atom choice is
    deterministic: among atoms that strictly shrink the admitted
    negatives, maximize kept positives, then minimal kept negatives, then
    canonical atom order.  [None] if no atom makes progress. *)
let find_disjunct ~n_atoms ~pos ~neg =
  let rec grow conj pos neg =
    if neg = [] then Some (List.rev conj)
    else if List.length conj >= 6 then None
    else
      let best = ref None in
      for i = n_atoms - 1 downto 0 do
        if not (List.mem i conj) then begin
          let neg' = List.filter (covers ~lenient:true [ i ]) neg in
          if List.length neg' < List.length neg then begin
            let pos' = List.filter (covers ~lenient:false [ i ]) pos in
            let score = (List.length pos', -List.length neg') in
            match !best with
            | Some (_, _, _, s) when s >= score -> ()
            | _ -> best := Some (i, pos', neg', score)
          end
        end
      done;
      match !best with
      | None -> None
      | Some (i, pos', neg', _) -> grow (i :: conj) pos' neg'
  in
  grow [] pos neg

(** Learn the weakest separating DNF over [atoms] for the given samples:
    disjuncts are added greedily (largest positive cover first) until
    every commuting sample is covered or no sound disjunct covers the
    remainder.  Returns the disjuncts (as atom-index lists) and the
    positives left uncovered (the learner's expressiveness residue). *)
let learn ~n_atoms (samples : sample list) =
  let pos = List.filter (fun s -> s.sm_commutes) samples in
  let neg = List.filter (fun s -> not s.sm_commutes) samples in
  if neg = [] then (`True, [])
  else if pos = [] then (`False, [])
  else
    let rec cover acc uncovered =
      if uncovered = [] then (List.rev acc, [])
      else
        match find_disjunct ~n_atoms ~pos:uncovered ~neg with
        | None -> (List.rev acc, uncovered)
        | Some conj ->
            let covered, rest =
              List.partition (covers ~lenient:false conj) uncovered
            in
            if covered = [] then (List.rev acc, uncovered)
            else cover (conj :: acc) rest
    in
    let disjuncts, residue = cover [] pos in
    (`Dnf disjuncts, residue)

(* ------------------------------------------------------------------ *)
(* The CEGIS loop                                                      *)
(* ------------------------------------------------------------------ *)

type pair_result = {
  sy_pair : string * string;
  sy_cond : Formula.t;
  sy_iterations : int;  (** candidates proposed (learner invocations) *)
  sy_samples : int;  (** counterexamples accumulated across iterations *)
  sy_scenarios : int;  (** size of the bounded oracle's scenario space *)
  sy_residual_incomplete : int;
      (** commuting scenarios the final condition still rejects: the
          grammar's expressiveness frontier (0 = exact separation) *)
  sy_converged : bool;  (** the final condition misclassifies nothing fresh *)
}

let scenario_key sc = (sc.sc_state, sc.sc_args1, sc.sc_args2, sc.sc_mirror)

let formula_of ~atoms shape =
  let atom_arr = Array.of_list atoms in
  match shape with
  | `True -> Formula.True
  | `False -> Formula.False
  | `Dnf disjuncts ->
      Grammar.dnf_of (List.map (List.map (fun i -> atom_arr.(i))) disjuncts)

(* Candidate evaluation on a scenario: an erroring condition admits
   nothing (matching how detectors must treat an unevaluable condition:
   assume conflict). *)
let admits cand sc =
  match Formula.eval sc.sc_env cand with
  | b -> b
  | exception (Formula.Unsupported _ | Value.Type_error _ | Invalid_argument _) ->
      false

(** Counterexamples added to the sample set per refinement. *)
let batch = 8

(** Synthesize the condition for one ordered pair by CEGIS against the
    bounded oracle.  The result is sound on the whole scenario space: the
    loop only stops once no admitted-but-not-commuting scenario remains
    outside the sample set, and the learner never admits a non-commuting
    sample. *)
let synthesize_pair ~atoms (pair : string * string)
    (scs : scenario list) : pair_result =
  if scs = [] then
    (* no evidence at all (the domain generates no scenarios for this
       pair): default to the sound "never commute", and do not claim
       convergence *)
    {
      sy_pair = pair;
      sy_cond = Formula.False;
      sy_iterations = 0;
      sy_samples = 0;
      sy_scenarios = 0;
      sy_residual_incomplete = 0;
      sy_converged = false;
    }
  else
  let n_atoms = List.length atoms in
  let seen = Hashtbl.create 64 in
  let samples = ref [] in
  let iterations = ref 0 in
  let rec loop () =
    incr iterations;
    let shape, _residue = learn ~n_atoms !samples in
    let cand = formula_of ~atoms shape in
    let mis =
      List.filter
        (fun sc ->
          admits cand sc <> sc.sc_commutes
          && not (Hashtbl.mem seen (scenario_key sc)))
        scs
    in
    match mis with
    | [] ->
        let residual =
          List.length
            (List.filter (fun sc -> sc.sc_commutes && not (admits cand sc)) scs)
        in
        (cand, residual, true)
    | _ :: _ ->
        (* refine: unsound counterexamples first (they threaten soundness;
           incompleteness merely costs parallelism), then a batch of the
           rest in deterministic scenario order *)
        let unsound, incomplete =
          List.partition (fun sc -> not sc.sc_commutes) mis
        in
        let fresh =
          List.filteri (fun i _ -> i < batch) (unsound @ incomplete)
        in
        List.iter
          (fun sc ->
            Hashtbl.replace seen (scenario_key sc) ();
            samples := sample_of ~atoms sc :: !samples)
          fresh;
        loop ()
  in
  let cond, residual, converged = loop () in
  {
    sy_pair = pair;
    sy_cond = cond;
    sy_iterations = !iterations;
    sy_samples = List.length !samples;
    sy_scenarios = List.length scs;
    sy_residual_incomplete = residual;
    sy_converged = converged;
  }

(* ------------------------------------------------------------------ *)
(* Whole-specification synthesis                                       *)
(* ------------------------------------------------------------------ *)

type report = {
  sy_adt : string;
  sy_spec : Spec.t;  (** the synthesized specification *)
  sy_results : pair_result list;  (** one per unordered pair, [m1 <= m2] *)
}

(** Synthesize a complete specification for [methods] of the ADT that
    [dom] models.  [reference] supplies the value-function
    interpretations ([some], [part], ...) and the ADT name; its
    {e conditions} are never consulted — synthesis starts from the
    method signatures and the executable semantics alone. *)
let synthesize (dom : Domain.t) (reference : Spec.t) : report =
  let methods = Spec.methods reference in
  let vfun_names =
    List.sort_uniq compare
      (List.map fst reference.Spec.vfuns @ List.map fst dom.Domain.vfuns)
  in
  let spec =
    Spec.create ~vfuns:reference.Spec.vfuns ~adt:(Spec.adt reference) methods
  in
  let pairs =
    List.concat_map
      (fun (m1 : Invocation.meth) ->
        List.filter_map
          (fun (m2 : Invocation.meth) ->
            if m1.Invocation.name <= m2.Invocation.name then
              Some (m1, m2)
            else None)
          methods)
      methods
  in
  let results =
    List.map
      (fun ((m1 : Invocation.meth), (m2 : Invocation.meth)) ->
        let atoms = Grammar.atoms ~vfuns:vfun_names m1 m2 in
        let pair = (m1.Invocation.name, m2.Invocation.name) in
        (* joint sample space: forward scenarios plus the reversed pair's
           scenarios through the side-swap, so the registered mirror is
           exact too (see the module comment) *)
        let scs =
          scenarios dom reference pair
          @ List.map swap_scenario
              (scenarios dom reference (snd pair, fst pair))
        in
        let r = synthesize_pair ~atoms pair scs in
        Spec.add_sym spec m1.Invocation.name m2.Invocation.name r.sy_cond;
        r)
      pairs
  in
  { sy_adt = Spec.adt reference; sy_spec = spec; sy_results = results }
