(** Equality-footprint analysis: assign each method of a specification a
    {e shard key} — a pure argument term such that two invocations with
    different key values provably commute — or decide that no such key
    exists (the method is {e keyless} and must be checked against
    everything).

    The analysis is built on {!Formula.footprint_clauses}: a condition's
    footprint clauses are its top-level disjuncts of shape [t1 != t2] with
    [t1] pure-m1 and [t2] pure-m2.  If such a clause's two key values
    differ at runtime the whole condition is trivially [true].  So if
    method [m1] is keyed by [k1], method [m2] by [k2], and {e every}
    condition between them (in both orders) has a footprint clause
    comparing exactly [k1] against [k2], then invocations of [m1] and [m2]
    whose key values differ can never conflict — a hash-sharded active
    table may skip the check entirely (same key value ⟹ same hash ⟹ same
    shard, since {!Value.hash} respects {!Value.equal}).

    Key assignment is an iterative demotion loop: start by computing each
    method's candidate keys (the intersection, over all its constrained
    pairs, of the clause terms on its side); while some method that has
    constrained pairs ends up with no candidate, demote the method with the
    most clause-less constrained pairs to keyless (its partners' pairs with
    it become unconstrained: keyless invocations live in the overflow shard
    and are checked against everything, which is always sound) and
    recompute.  A final pairwise verification checks that the {e chosen}
    keys of every keyed-keyed pair are matched by one clause of each
    condition between them, demoting on failure; this matters for
    multi-clause conditions, where independently chosen keys could satisfy
    different clauses. *)

type t = {
  spec : Spec.t;
  keys : (string, Formula.term) Hashtbl.t;
      (** method name -> chosen M1-side key term; absent = keyless *)
  compiled : (string, (Value.t array -> Value.t) option) Hashtbl.t;
      (** every declared method: its key term compiled over the argument
          array, [None] if keyless *)
}

(* Normalize an M2-side term to the corresponding M1-side term (same
   convention as the abstract-locking construction), so a method's slot
   gets the same key term whether the method appears first or second in a
   condition. *)
let rec to_m1_term = function
  | Formula.Arg (_, i) -> Formula.Arg (Formula.M1, i)
  | Formula.Ret _ -> Formula.Ret Formula.M1
  | Formula.Const _ as t -> t
  | Formula.Vfun (f, args) -> Formula.Vfun (f, List.map to_m1_term args)
  | Formula.Arith (op, a, b) -> Formula.Arith (op, to_m1_term a, to_m1_term b)
  | Formula.Sfun _ -> invalid_arg "Footprint: key term mentions state"

(* A usable shard key must be computable when the invocation is inserted
   into the active table — before the method executes — so terms mentioning
   the return value are out. *)
let usable t = not (Formula.term_mentions_ret Formula.M1 t)

(* The m1-normalized clause terms a condition offers to each side. *)
let side_terms cond =
  let clauses = Formula.footprint_clauses cond in
  ( List.filter usable (List.map fst clauses),
    List.filter usable (List.map (fun (_, t2) -> to_m1_term t2) clauses) )

(* For the self pair (m, m): a key [k] only helps if one clause compares
   [k] on BOTH sides. *)
let self_terms cond =
  Formula.footprint_clauses cond
  |> List.filter_map (fun (t1, t2) ->
         let t2 = to_m1_term t2 in
         if Formula.equal_term t1 t2 && usable t1 then Some t1 else None)

let inter a b = List.filter (fun t -> List.exists (Formula.equal_term t) b) a

let analyze (spec : Spec.t) : t =
  let names =
    List.map (fun (m : Invocation.meth) -> m.name) (Spec.methods spec)
  in
  let keyless : (string, unit) Hashtbl.t = Hashtbl.create 8 in
  (* Candidate keys for [m] given the current keyless set, together with
     the number of constrained pairs contributing no candidate at all.
     [None] = no constrained pairs (the method needs no key: every partner
     either always commutes with it or sits in the overflow shard). *)
  let candidates m =
    let acc = ref None and nfail = ref 0 in
    let constrain terms =
      incr nfail;
      match terms with
      | [] -> acc := Some []
      | _ -> (
          decr nfail;
          match !acc with
          | None -> acc := Some terms
          | Some cur -> acc := Some (inter cur terms))
    in
    List.iter
      (fun m' ->
        if not (Hashtbl.mem keyless m') then
          if m' = m then (
            match Spec.cond spec ~first:m ~second:m with
            | Formula.True -> ()
            | cond -> constrain (self_terms cond))
          else begin
            (match Spec.cond spec ~first:m ~second:m' with
            | Formula.True -> ()
            | cond -> constrain (fst (side_terms cond)));
            match Spec.cond spec ~first:m' ~second:m with
            | Formula.True -> ()
            | cond -> constrain (snd (side_terms cond))
          end)
      names;
    (!acc, !nfail)
  in
  (* Demotion loop: peel off methods that cannot be keyed, one per
     iteration, until the survivors all have candidates. *)
  let chosen : (string, Formula.term) Hashtbl.t = Hashtbl.create 8 in
  let rec assign () =
    Hashtbl.reset chosen;
    let bad = ref [] in
    let moved = ref false in
    List.iter
      (fun m ->
        if not (Hashtbl.mem keyless m) then
          match candidates m with
          | None, _ ->
              (* no constrained pairs: nothing to key on; overflow is free
                 for it (all its remaining conditions are [true]) *)
              Hashtbl.replace keyless m ();
              moved := true
          | Some [], nfail -> bad := (m, nfail) :: !bad
          | Some terms, _ ->
              (* deterministic choice: smallest by printed form *)
              let key =
                List.sort
                  (fun a b ->
                    compare
                      (Fmt.str "%a" Formula.pp_term a)
                      (Fmt.str "%a" Formula.pp_term b))
                  terms
                |> List.hd
              in
              Hashtbl.replace chosen m key)
      names;
    if !moved then assign ()
      (* a method just went keyless mid-pass: candidates computed earlier in
         the pass may have been over-constrained by it — recompute before
         demoting anyone else *)
    else
      match
        List.sort
          (fun (m1, n1) (m2, n2) ->
            match compare n2 n1 with 0 -> compare m1 m2 | c -> c)
          !bad
      with
      | [] -> verify ()
      | (m, _) :: _ ->
          Hashtbl.replace keyless m ();
          assign ()
  (* Pairwise verification of the chosen keys: every condition between two
     keyed methods must have one clause comparing exactly their keys. *)
  and verify () =
    let violations : (string, int) Hashtbl.t = Hashtbl.create 8 in
    let matched k1 k2 cond =
      Formula.footprint_clauses cond
      |> List.exists (fun (t1, t2) ->
             Formula.equal_term t1 k1 && Formula.equal_term (to_m1_term t2) k2)
    in
    let bump m =
      Hashtbl.replace violations m
        (1 + Option.value ~default:0 (Hashtbl.find_opt violations m))
    in
    Hashtbl.iter
      (fun m1 k1 ->
        Hashtbl.iter
          (fun m2 k2 ->
            match Spec.cond spec ~first:m1 ~second:m2 with
            | Formula.True -> ()
            | cond ->
                if not (matched k1 k2 cond) then begin
                  bump m1;
                  bump m2
                end)
          chosen)
      chosen;
    if Hashtbl.length violations = 0 then ()
    else begin
      let worst =
        Hashtbl.fold (fun m n acc -> (m, n) :: acc) violations []
        |> List.sort (fun (m1, n1) (m2, n2) ->
               match compare n2 n1 with 0 -> compare m1 m2 | c -> c)
        |> List.hd |> fst
      in
      Hashtbl.replace keyless worst ();
      assign ()
    end
  in
  assign ();
  (* Shard keys are on the hot path of every sharded insert and scan and
     of every served request's routing: compile them to zero-environment
     closures over the argument array (Compile.arg_key; no key reads the
     return value, see [usable]) instead of staging a Formula.env per
     invocation.  Key values are identical.  Keyless methods are entered
     too, so a declared method's lookup never misses. *)
  let compiled = Hashtbl.create 8 in
  List.iter
    (fun m ->
      Hashtbl.replace compiled m
        (Option.map (Compile.arg_key spec) (Hashtbl.find_opt chosen m)))
    names;
  { spec; keys = Hashtbl.copy chosen; compiled }

let key_term t m = Hashtbl.find_opt t.keys m
let keyed t m = Hashtbl.mem t.keys m
let all_keyless t = Hashtbl.length t.keys = 0

let key_fn t name =
  match Hashtbl.find t.compiled name with
  | k -> k
  | exception Not_found -> None

(** The shard index of an invocation, [nshards] for the overflow shard.
    Same key value ⟹ same shard; different shards ⟹ different key values
    ⟹ the invocations commute with every keyed method's invocations in
    other shards.  It allocates nothing: every sharded invocation, scan
    and read probe computes it. *)
let shard t ~nshards (inv : Invocation.t) =
  match key_fn t inv.Invocation.meth.name with
  | Some f -> Value.hash (f inv.Invocation.args) land max_int mod nshards
  | None -> nshards

let shard_of t ~nshards inv =
  let i = shard t ~nshards inv in
  if i = nshards then None else Some i

let pp ppf (t : t) =
  let keyed, keyless =
    List.partition
      (fun (m : Invocation.meth) -> Hashtbl.mem t.keys m.name)
      (Spec.methods t.spec)
  in
  Fmt.pf ppf "@[<v>footprint(%s):@," (Spec.adt t.spec);
  List.iter
    (fun (m : Invocation.meth) ->
      Fmt.pf ppf "  %-12s keyed on %a@," m.name Formula.pp_term
        (Hashtbl.find t.keys m.name))
    keyed;
  List.iter
    (fun (m : Invocation.meth) -> Fmt.pf ppf "  %-12s keyless (overflow)@," m.name)
    keyless;
  Fmt.pf ppf "@]"
