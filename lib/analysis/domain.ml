(** Bounded checking domains: executable reference semantics for the ADTs
    whose specifications this repo ships.

    The soundness analysis ({!Soundness}) needs, for a given specification,
    a way to (1) enumerate small initial abstract states, (2) execute
    method invocations against a reference implementation, (3) observe the
    abstract state, and (4) interpret the spec's state functions ([rep],
    [loser], …) against a given state.  This module packages those four
    capabilities as a {e domain} and keeps a registry keyed by the spec's
    ADT name, pre-populated from the substrate ADT library
    ([Iset], [Accumulator], [Kvmap], [Union_find]).

    Domains are deliberately tiny — a handful of states and argument
    values.  That makes the analysis a {e bounded} verifier: a reported
    counterexample is a real execution and therefore definitive, while a
    clean pass only covers the enumerated scenarios (the usual
    small-scope argument: spec bugs of the kinds the lint hunts are
    overwhelmingly exhibited on 0–2 element states). *)

open Commlat_core
open Commlat_adts

(** A live reference-implementation instance.  [apply] invokes a method by
    name, [snapshot] returns a comparable encoding of the {e abstract}
    state, [sfun] interprets the spec's abstract-state functions against
    the current state (raising {!Formula.Unsupported} when the ADT has
    none). *)
type instance = {
  apply : string -> Value.t list -> Value.t;
  snapshot : unit -> Value.t;
  sfun : string -> Value.t list -> Value.t;
}

(** An initial state, described by a label and the setup invocations that
    build it from a fresh instance. *)
type setup = string * (string * Value.t list) list

type t = {
  dom_name : string;
  fresh : unit -> instance;
  states : setup list;
  args_of : string -> Value.t list list;
      (** candidate argument tuples for a method; [[]] for unknown methods
          (the analysis then reports the pair as uncovered) *)
  vfuns : (string * (Value.t list -> Value.t)) list;
      (** fallback interpretations of pure value functions, used when the
          spec itself does not carry one (file-parsed specs usually
          don't) *)
}

let no_sfun name _ = raise (Formula.Unsupported name)

let of_model (m : History.model) =
  {
    apply = (fun name args -> m.History.apply name (Array.of_list args));
    snapshot = m.History.snapshot;
    sfun = no_sfun;
  }

(* ------------------------------------------------------------------ *)
(* Built-in domains                                                    *)
(* ------------------------------------------------------------------ *)

let ints is = List.map (fun i -> Value.Int i) is

let set_domain =
  let elems = ints [ 0; 1; 2 ] in
  {
    dom_name = "set";
    fresh = (fun () -> of_model (Iset.model ()));
    states =
      [
        ("{}", []);
        ("{0}", [ ("add", [ Value.Int 0 ]) ]);
        ("{1}", [ ("add", [ Value.Int 1 ]) ]);
        ("{0,1}", [ ("add", [ Value.Int 0 ]); ("add", [ Value.Int 1 ]) ]);
      ];
    args_of =
      (function
      | "add" | "remove" | "contains" -> List.map (fun v -> [ v ]) elems
      | _ -> []);
    vfuns =
      [
        ("part", function
          | [ v ] -> Value.Int (Value.hash v mod 2)
          | _ -> Value.type_error "part/1");
      ];
  }

let accumulator_domain =
  {
    dom_name = "accumulator";
    fresh = (fun () -> of_model (Accumulator.model ()));
    states =
      [
        ("total=0", []);
        ("total=1", [ ("increment", [ Value.Int 1 ]) ]);
        ("total=3", [ ("increment", [ Value.Int 1 ]); ("increment", [ Value.Int 2 ]) ]);
      ];
    args_of =
      (function
      (* 0 exercises the "no-op increment" completeness frontier: Fig. 7's
         condition rejects it even though it observably commutes with read *)
      | "increment" -> List.map (fun v -> [ v ]) (ints [ 0; 1; 2 ])
      | "read" -> [ [] ]
      | _ -> []);
    vfuns = [];
  }

let triset_domain =
  (* the set domain under the claim reading: take = claim-and-remove.
     Same state space as [set_domain] — ids 0..2, seeded up to two live
     triangles — which covers every clause of the precise conditions
     (both-succeed, one-dead, both-dead). *)
  let elems = ints [ 0; 1; 2 ] in
  {
    dom_name = "triset";
    fresh = (fun () -> of_model (Triset.model ()));
    states =
      [
        ("{}", []);
        ("{0}", [ ("add", [ Value.Int 0 ]) ]);
        ("{1}", [ ("add", [ Value.Int 1 ]) ]);
        ("{0,1}", [ ("add", [ Value.Int 0 ]); ("add", [ Value.Int 1 ]) ]);
      ];
    args_of =
      (function
      | "take" | "add" | "contains" -> List.map (fun v -> [ v ]) elems
      | _ -> []);
    vfuns = [];
  }

let kvmap_domain =
  let keys = ints [ 0; 1 ] and data = ints [ 7; 8 ] in
  {
    dom_name = "kvmap";
    fresh = (fun () -> of_model (Kvmap.model ()));
    states =
      [
        ("{}", []);
        ("{0->7}", [ ("put", [ Value.Int 0; Value.Int 7 ]) ]);
        ("{0->8,1->7}",
         [ ("put", [ Value.Int 0; Value.Int 8 ]); ("put", [ Value.Int 1; Value.Int 7 ]) ]);
      ];
    args_of =
      (function
      | "put" -> List.concat_map (fun k -> List.map (fun v -> [ k; v ]) data) keys
      | "get" | "remove" -> List.map (fun k -> [ k ]) keys
      | "size" -> [ [] ]
      | _ -> []);
    vfuns =
      [
        ("some", function
          | [ v ] -> Value.Opt (Some v)
          | _ -> Value.type_error "some/1");
      ];
  }

let union_find_domain =
  let n = 4 in
  let elems = List.init n Fun.id in
  let pairs =
    List.concat_map (fun a -> List.map (fun b -> [ Value.Int a; Value.Int b ]) elems) elems
  in
  let u a b = ("union", [ Value.Int a; Value.Int b ]) in
  {
    dom_name = "union_find";
    fresh =
      (fun () ->
        let t = Union_find.create () in
        ignore (Union_find.create_elements t n);
        {
          apply = (fun name args -> Union_find.exec_raw t name (Array.of_list args));
          (* the abstract state of Fig. 5 is the partition; rank and forest
             shape are concrete bookkeeping (see
             Union_find.partition_snapshot) *)
          snapshot = (fun () -> Union_find.partition_snapshot t);
          sfun = (fun name args -> Union_find.sfun t name args);
        });
    states =
      [
        ("singletons", []);
        ("{01}", [ u 0 1 ]);
        ("{01}{23}", [ u 0 1; u 2 3 ]);
        ("{012}", [ u 0 1; u 1 2 ]);
      ];
    args_of =
      (function
      | "union" -> pairs
      | "find" -> List.map (fun a -> [ Value.Int a ]) elems
      | "create" -> [ [] ]
      | _ -> []);
    vfuns = [];
  }

let orset_domain =
  let elems = ints [ 0; 1 ] and ids = ints [ 0; 1 ] in
  let pairs = List.concat_map (fun e -> List.map (fun i -> [ e; i ]) ids) elems in
  let a e i = ("add", [ Value.Int e; Value.Int i ]) in
  {
    dom_name = "orset";
    fresh = (fun () -> of_model (Orset.model ()));
    states =
      [
        ("{}", []);
        ("{(0,0)}", [ a 0 0 ]);
        ("{(0,0),(0,1)}", [ a 0 0; a 0 1 ]);
        ("{(0,0),(1,0)}", [ a 0 0; a 1 0 ]);
      ];
    args_of = (function "add" | "remove" -> pairs | _ -> []);
    vfuns = [];
  }

let flow_graph_domain =
  (* The model's fixed 4-node network (0->1->2->3 plus a 0->2 chord).  The
     preflow-push conditions make pushes no-ops unless excess and heights
     line up, so the setups seed excess (via the model's analysis-only
     [seed] pseudo-method) and build a descending height profile — states
     where push_flow genuinely moves flow and conflicts are observable. *)
  let nodes = [ 0; 1; 2; 3 ] in
  let node_args = List.map (fun u -> [ Value.Int u ]) nodes in
  let node_pairs =
    List.concat_map
      (fun u ->
        List.filter_map
          (fun v -> if u = v then None else Some [ Value.Int u; Value.Int v ])
          nodes)
      nodes
  in
  let seed u amt = ("seed", [ Value.Int u; Value.Int amt ]) in
  let relab u h = ("relabel_to", [ Value.Int u; Value.Int h ]) in
  {
    dom_name = "flow_graph";
    fresh = (fun () -> of_model (Flow_graph.model ()));
    states =
      [
        ("idle", []);
        ("src-seeded", [ seed 0 3; relab 0 2; relab 1 1 ]);
        ("two-active", [ seed 0 2; seed 1 2; relab 0 2; relab 1 1; relab 2 0 ]);
      ];
    args_of =
      (function
      | "get_neighbors" | "height" -> node_args
      | "push_flow" -> node_pairs
      | "relabel_to" ->
          List.concat_map
            (fun u -> List.map (fun h -> [ Value.Int u; Value.Int h ]) [ 0; 1; 2 ])
            nodes
      | _ -> []);
    vfuns =
      [
        ("part", function
          | [ v ] -> Value.Int (Value.to_int v mod 2)
          | _ -> Value.type_error "part/1");
      ];
  }

(* ------------------------------------------------------------------ *)
(* Registry                                                            *)
(* ------------------------------------------------------------------ *)

let registry : (string, t) Hashtbl.t = Hashtbl.create 16

let register names dom = List.iter (fun n -> Hashtbl.replace registry n dom) names

let () =
  register [ "set"; "set_rw"; "set_excl"; "set_part2"; "set_part4" ] set_domain;
  register [ "accumulator" ] accumulator_domain;
  register [ "kvmap"; "kvmap_rw" ] kvmap_domain;
  register [ "union_find" ] union_find_domain;
  register [ "orset" ] orset_domain;
  register [ "triset"; "triset_rw" ] triset_domain;
  register
    [ "flow_graph"; "flow_graph_rw"; "flow_graph_ex"; "flow_graph_part2"; "flow_graph_part4" ]
    flow_graph_domain

let find name = Hashtbl.find_opt registry name

(* ------------------------------------------------------------------ *)
(* Generic sample environments                                         *)
(* ------------------------------------------------------------------ *)

(** Resolve a value function: the spec's own interpretation first, then the
    domain's fallbacks. *)
let vfun_resolver ?domain (spec : Spec.t) name args =
  match Spec.vfun spec name args with
  | v -> v
  | exception Formula.Unsupported _ -> (
      match Option.bind domain (fun d -> List.assoc_opt name d.vfuns) with
      | Some f -> f args
      | None -> raise (Formula.Unsupported name))

(** Exhaustive small sample environments for the purely structural bounded
    checks (dead disjuncts, misclassification, chain steps): every
    combination of small values over the four argument slots
    ([v1\[0\]], [v1\[1\]], [v2\[0\]], [v2\[1\]]; higher indices alias
    index mod 2) and the two return slots.  State functions are left
    uninterpreted — environments that reach one are skipped by the bounded
    checkers, and {!Lattice.leq_bounded_checked} reports the vacuous case
    as "no evidence" rather than success. *)
let sample_envs ?domain (spec : Spec.t) : Formula.env list =
  let arg_vals = [ Value.Int 0; Value.Int 1; Value.Bool true; Value.Bool false ] in
  let ret_vals =
    arg_vals
    @ [ Value.Opt None; Value.Opt (Some (Value.Int 0)); Value.Opt (Some (Value.Int 1)) ]
  in
  let vfun = vfun_resolver ?domain spec in
  let envs = ref [] in
  List.iter
    (fun a10 ->
      List.iter
        (fun a11 ->
          List.iter
            (fun a20 ->
              List.iter
                (fun a21 ->
                  List.iter
                    (fun r1 ->
                      List.iter
                        (fun r2 ->
                          let arg side i =
                            match (side, i mod 2) with
                            | Formula.M1, 0 -> a10
                            | Formula.M1, _ -> a11
                            | Formula.M2, 0 -> a20
                            | Formula.M2, _ -> a21
                          in
                          let ret = function Formula.M1 -> r1 | Formula.M2 -> r2 in
                          envs := Formula.env ~vfun ~arg ~ret () :: !envs)
                        ret_vals)
                    ret_vals)
                arg_vals)
            arg_vals)
        arg_vals)
    arg_vals;
  !envs
