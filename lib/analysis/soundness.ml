(** Bounded soundness/completeness checking of commutativity specifications
    against executable reference semantics (the analysis behind
    [commlat lint]).

    For every ordered method pair with a registered condition, enumerate
    small initial states and argument tuples from the ADT's {!Domain},
    execute both interleavings against the reference implementation, and
    compare:

    - {b unsound} (paper §2.2, Def. 2 violated): the condition holds on the
      forward execution, yet the two orders are observationally
      distinguishable — some return value or the final abstract state
      differs.  This is an error: every detector synthesized from the spec
      would admit a non-serializable schedule.  The counterexample is a
      concrete execution trace and is reported in full.
    - {b incomplete}: the two orders are observationally equivalent but the
      condition is [false].  This is {e not} an error — it is the spec's
      position in the commutativity lattice (a strengthened spec sits
      strictly below the precise top, trading parallelism for cheaper
      detectors, paper §4) — and is reported as an informational lattice
      position.

    The condition is evaluated on the forward execution's observations
    ([s1] = the initial state, [s2] = the state after the first
    invocation, [r1]/[r2] = the forward returns), matching the paper's
    reading of [f_{m1,m2}(s1,v1,r1,s2,v2,r2)]. *)

open Commlat_core

(** One interleaving's observations: both returns plus the final abstract
    state. *)
type observation = { obs_r1 : Value.t; obs_r2 : Value.t; obs_state : Value.t }

type counterexample = {
  cx_state : string;  (** label of the initial state *)
  cx_m1 : string;
  cx_args1 : Value.t list;
  cx_m2 : string;
  cx_args2 : Value.t list;
  cx_fwd : observation;  (** m1 then m2 *)
  cx_rev : observation;  (** m2 then m1 *)
  cx_cond : Formula.t;  (** the condition that (wrongly) admitted the swap *)
}

type pair_report = {
  pr_pair : string * string;
  pr_cond : Formula.t;
  pr_scenarios : int;  (** scenarios whose condition evaluated *)
  pr_commuting : int;  (** observationally equivalent scenarios *)
  pr_incomplete : int;  (** commuting scenarios the condition rejects *)
  pr_unsound : counterexample list;  (** reported counterexamples (capped) *)
  pr_unsound_total : int;
  pr_skipped : int;  (** scenarios whose condition raised *)
}

let pp_args ppf args = Fmt.pf ppf "(%a)" Fmt.(list ~sep:(any ", ") Value.pp) args

let pp_observation m1 args1 m2 args2 ~flipped ppf o =
  if flipped then
    Fmt.pf ppf "%s%a = %a ; %s%a = %a  -->  state %a" m2 pp_args args2 Value.pp
      o.obs_r2 m1 pp_args args1 Value.pp o.obs_r1 Value.pp o.obs_state
  else
    Fmt.pf ppf "%s%a = %a ; %s%a = %a  -->  state %a" m1 pp_args args1 Value.pp
      o.obs_r1 m2 pp_args args2 Value.pp o.obs_r2 Value.pp o.obs_state

let pp_counterexample ppf cx =
  let what =
    if not (Value.equal cx.cx_fwd.obs_state cx.cx_rev.obs_state) then
      "the final abstract states differ"
    else if not (Value.equal cx.cx_fwd.obs_r1 cx.cx_rev.obs_r1) then
      Fmt.str "%s's return value differs (%a vs %a)" cx.cx_m1 Value.pp
        cx.cx_fwd.obs_r1 Value.pp cx.cx_rev.obs_r1
    else
      Fmt.str "%s's return value differs (%a vs %a)" cx.cx_m2 Value.pp
        cx.cx_fwd.obs_r2 Value.pp cx.cx_rev.obs_r2
  in
  Fmt.pf ppf
    "from state %s:@,  forward: %a@,  swapped: %a@,condition %a holds on the \
     forward observations, but %s"
    cx.cx_state
    (pp_observation cx.cx_m1 cx.cx_args1 cx.cx_m2 cx.cx_args2 ~flipped:false)
    cx.cx_fwd
    (pp_observation cx.cx_m1 cx.cx_args1 cx.cx_m2 cx.cx_args2 ~flipped:true)
    cx.cx_rev Formula.pp cx.cx_cond what

let counterexample_to_string cx = Fmt.str "@[<v>%a@]" pp_counterexample cx

(* ------------------------------------------------------------------ *)
(* Scenario execution                                                  *)
(* ------------------------------------------------------------------ *)

let replay (dom : Domain.t) setup_ops =
  let inst = dom.Domain.fresh () in
  List.iter (fun (op, args) -> ignore (inst.Domain.apply op args)) setup_ops;
  inst

(** Execute [m1(args1); m2(args2)] (or swapped) from the given initial
    state; [None] if the reference implementation rejected an invocation
    (e.g. out-of-domain argument), in which case the scenario is skipped. *)
let run_order dom setup_ops ~swapped (m1, args1) (m2, args2) =
  match
    let inst = replay dom setup_ops in
    if swapped then (
      let r2 = inst.Domain.apply m2 args2 in
      let r1 = inst.Domain.apply m1 args1 in
      { obs_r1 = r1; obs_r2 = r2; obs_state = inst.Domain.snapshot () })
    else
      let r1 = inst.Domain.apply m1 args1 in
      let r2 = inst.Domain.apply m2 args2 in
      { obs_r1 = r1; obs_r2 = r2; obs_state = inst.Domain.snapshot () }
  with
  | obs -> Some obs
  | exception (Value.Type_error _ | Invalid_argument _ | Failure _) -> None

let equivalent a b =
  Value.equal a.obs_r1 b.obs_r1 && Value.equal a.obs_r2 b.obs_r2
  && Value.equal a.obs_state b.obs_state

(** The environment a condition of [(m1, m2)] reads on the forward
    execution [m1(args1); m2(args2)] from the state [setup_ops] builds:
    [r1]/[r2] are [fwd]'s returns, and [s1] (the initial state) and [s2]
    (after [m1]) are reconstructed by replay, lazily, since most
    conditions are state-free. *)
let forward_env (dom : Domain.t) (spec : Spec.t) setup_ops (m1, args1) args2
    (fwd : observation) : Formula.env =
  let s1_inst = lazy (replay dom setup_ops) in
  let s2_inst =
    lazy
      (let i = replay dom setup_ops in
       ignore (i.Domain.apply m1 args1);
       i)
  in
  Formula.env
    ~sfun:(fun name state args _t ->
      let inst =
        match state with
        | Formula.S1 -> Lazy.force s1_inst
        | Formula.S2 -> Lazy.force s2_inst
      in
      inst.Domain.sfun name args)
    ~vfun:(Domain.vfun_resolver ~domain:dom spec)
    ~arg:(fun side i ->
      List.nth (match side with Formula.M1 -> args1 | Formula.M2 -> args2) i)
    ~ret:(function Formula.M1 -> fwd.obs_r1 | Formula.M2 -> fwd.obs_r2)
    ()

(** One point of the bounded scenario space: an initial state, an
    argument tuple per method, and both interleavings' observations. *)
type scenario = {
  sc_state : string;  (** label of the initial state *)
  sc_args1 : Value.t list;
  sc_args2 : Value.t list;
  sc_fwd : observation;  (** m1 then m2 *)
  sc_rev : observation;  (** m2 then m1 *)
  sc_env : Formula.env;  (** {!forward_env} of the scenario *)
}

(** Fold [f] over the bounded scenario space of the ordered pair
    [(m1, m2)]: every {!Domain} initial state x [m1] argument tuple x [m2]
    argument tuple, in the domain's order, executed in both orders
    against the reference implementation.  [f] gets [None] for a tuple
    the reference rejected in either order. *)
let fold_scenarios (dom : Domain.t) (spec : Spec.t) (m1, m2) f init =
  let args1s = dom.Domain.args_of m1 and args2s = dom.Domain.args_of m2 in
  List.fold_left
    (fun acc (state_label, setup_ops) ->
      List.fold_left
        (fun acc args1 ->
          List.fold_left
            (fun acc args2 ->
              match
                ( run_order dom setup_ops ~swapped:false (m1, args1) (m2, args2),
                  run_order dom setup_ops ~swapped:true (m1, args1) (m2, args2) )
              with
              | Some fwd, Some rev ->
                  f acc
                    (Some
                       {
                         sc_state = state_label;
                         sc_args1 = args1;
                         sc_args2 = args2;
                         sc_fwd = fwd;
                         sc_rev = rev;
                         sc_env = forward_env dom spec setup_ops (m1, args1) args2 fwd;
                       })
              | _ -> f acc None)
            acc args2s)
        acc args1s)
    init dom.Domain.states

(** Check one ordered method pair; [max_counterexamples] caps how many
    traces are retained (all are counted). *)
let check_pair ?(max_counterexamples = 3) (dom : Domain.t) (spec : Spec.t)
    ((m1, m2), cond) : pair_report =
  let skip r = { r with pr_skipped = r.pr_skipped + 1 } in
  fold_scenarios dom spec (m1, m2)
    (fun r -> function
      | None -> skip r
      | Some sc -> (
          match Formula.eval sc.sc_env cond with
          | exception (Formula.Unsupported _ | Value.Type_error _) -> skip r
          | admitted ->
              let r = { r with pr_scenarios = r.pr_scenarios + 1 } in
              let eq = equivalent sc.sc_fwd sc.sc_rev in
              let r = if eq then { r with pr_commuting = r.pr_commuting + 1 } else r in
              if admitted && not eq then
                let cx =
                  {
                    cx_state = sc.sc_state;
                    cx_m1 = m1;
                    cx_args1 = sc.sc_args1;
                    cx_m2 = m2;
                    cx_args2 = sc.sc_args2;
                    cx_fwd = sc.sc_fwd;
                    cx_rev = sc.sc_rev;
                    cx_cond = cond;
                  }
                in
                {
                  r with
                  pr_unsound_total = r.pr_unsound_total + 1;
                  pr_unsound =
                    (if List.length r.pr_unsound < max_counterexamples then
                       r.pr_unsound @ [ cx ]
                     else r.pr_unsound);
                }
              else if (not admitted) && eq then
                { r with pr_incomplete = r.pr_incomplete + 1 }
              else r))
    {
      pr_pair = (m1, m2);
      pr_cond = cond;
      pr_scenarios = 0;
      pr_commuting = 0;
      pr_incomplete = 0;
      pr_unsound = [];
      pr_unsound_total = 0;
      pr_skipped = 0;
    }

(** Check every registered ordered pair of [spec] against [dom]. *)
let check_spec ?max_counterexamples (dom : Domain.t) (spec : Spec.t) :
    pair_report list =
  List.map (check_pair ?max_counterexamples dom spec) (Spec.pairs spec)
