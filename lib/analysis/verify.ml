(** Unbounded verification of commutativity conditions by product-program
    reachability (ROADMAP item 1; the ORset Boogie proof quoted in
    SNIPPETS.md is the model for the obligation's shape).

    For each ordered method pair [(m1, m2)] with condition [f], the
    obligation is the two-copy product program: from a {e symbolic}
    initial state, run [m1; m2] (the forward copy) and [m2; m1] (the
    reversed copy) and prove that whenever [f] holds of the forward
    observations, both copies produce equal returns and equal abstract
    states.  Unlike the bounded {!Soundness} sweep this quantifies over
    {e all} initial states and arguments, not an enumerated handful.

    The obligation is discharged by symbolic forward execution under a
    {e differencing abstraction}: the behaviour of the pair depends on the
    initial state and arguments only through

    - the {b equality pattern} among the finitely many value terms in play
      (the four argument slots and the values stored at the argument
      keys), enumerated exhaustively as set partitions;
    - the {b presence bits} of the argument slots in the initial state;
    - the {b linear-integer components} (accumulator total, map size),
      carried as normal-form linear expressions over symbolic variables
      so equalities hold universally in the unnamed initial values.

    Everything the two copies touch beyond that is covered by a per-ADT
    {b frame lemma} (reported in the result): a method reads and writes
    only the slots named by its arguments, so slots named by neither
    invocation are untouched by both copies and cancel out of the
    equivalence.  Exhaustiveness of the case analysis plus the frame
    lemma is what turns the finite case sweep into an unbounded proof.

    Verdicts are honest three-way:

    - [Proved n] — every one of the [n] cases discharged;
    - [Refuted r] — some case both satisfies the condition and
      distinguishes the copies, {e and} the materialized concrete witness
      reproduces the divergence on the real reference implementation
      (a symbolic refutation that fails to reproduce is reported as
      [Unknown], never as [Refuted]);
    - [Unknown reason] — the condition mentions constructs outside the
      symbolic fragment (state functions, uninterpreted value functions
      such as [part]), an equivalence could not be decided, or the ADT has
      no symbolic model (union-find and the flow graph need state
      functions respectively a graph abstraction; their conditions remain
      bounded-checked only). *)

open Commlat_core

(* ------------------------------------------------------------------ *)
(* Symbolic values                                                     *)
(* ------------------------------------------------------------------ *)

(** Normal-form linear integer expressions [base + Σ cᵢ·vᵢ] (coefficients
    sorted by variable, never zero).  Equality of normal forms is equality
    for {e every} valuation of the variables — the universality the
    unbounded claim rests on. *)
module Lin = struct
  type t = { base : int; coeffs : (string * int) list }

  let int n = { base = n; coeffs = [] }
  let var v = { base = 0; coeffs = [ (v, 1) ] }

  let rec merge xs ys =
    match (xs, ys) with
    | [], r | r, [] -> r
    | (v1, c1) :: t1, (v2, c2) :: t2 ->
        if v1 = v2 then
          let c = c1 + c2 in
          if c = 0 then merge t1 t2 else (v1, c) :: merge t1 t2
        else if v1 < v2 then (v1, c1) :: merge t1 ys
        else (v2, c2) :: merge xs t2

  let add a b = { base = a.base + b.base; coeffs = merge a.coeffs b.coeffs }
  let neg a = { base = -a.base; coeffs = List.map (fun (v, c) -> (v, -c)) a.coeffs }
  let sub a b = add a (neg b)

  let scale k a =
    if k = 0 then int 0
    else { base = k * a.base; coeffs = List.map (fun (v, c) -> (v, k * c)) a.coeffs }
end

(** Symbolic values.  [SAbs t] is an abstract value term whose equalities
    are decided by the case's partition; [SInt] carries a linear
    expression. *)
type sv =
  | SUnit
  | SBool of bool
  | SInt of Lin.t
  | SOpt of sv option
  | SAbs of string

(** Per-case decision context: [cx_repr] maps abstract terms to their
    partition block representative (same representative = equal, different
    = distinct — the enumeration covers every pattern, so within a case
    distinctness is asserted, not unknown); [cx_nonzero]/[cx_distinct]
    record the integer-variable facts the case assumes. *)
type ctx = {
  cx_repr : string -> string;
  cx_nonzero : string -> bool;
  cx_distinct : string -> string -> bool;
}

let lin_eq ctx a b =
  let d = Lin.sub a b in
  match (d.Lin.coeffs, d.Lin.base) with
  | [], base -> Some (base = 0)
  | [ (v, _) ], 0 -> if ctx.cx_nonzero v then Some false else None
  | [ (v1, c1); (v2, c2) ], 0 when c1 + c2 = 0 ->
      if ctx.cx_distinct v1 v2 then Some false else None
  | _ -> None

(** Three-valued equality mirroring {!Value.equal} on the concrete side:
    distinct concrete constructors never compare equal; an abstract term
    against a concrete value is undecidable (sound: reported as
    [Unknown], never guessed). *)
let rec sv_eq ctx a b =
  match (a, b) with
  | SUnit, SUnit -> Some true
  | SBool x, SBool y -> Some (x = y)
  | SInt x, SInt y -> lin_eq ctx x y
  | SOpt None, SOpt None -> Some true
  | SOpt None, SOpt (Some _) | SOpt (Some _), SOpt None -> Some false
  | SOpt (Some x), SOpt (Some y) -> sv_eq ctx x y
  | SAbs x, SAbs y -> Some (ctx.cx_repr x = ctx.cx_repr y)
  | SAbs _, _ | _, SAbs _ -> None
  | _ -> Some false

(* Three-valued logic. *)
let t_not = Option.map not

let t_and a b =
  match (a, b) with
  | Some false, _ | _, Some false -> Some false
  | Some true, Some true -> Some true
  | _ -> None

let t_all = List.fold_left t_and (Some true)

let rec sv_of_value = function
  | Value.Int n -> Some (SInt (Lin.int n))
  | Value.Bool b -> Some (SBool b)
  | Value.Unit -> Some SUnit
  | Value.Opt None -> Some (SOpt None)
  | Value.Opt (Some v) -> Option.map (fun s -> SOpt (Some s)) (sv_of_value v)
  | _ -> None

(* ------------------------------------------------------------------ *)
(* Symbolic evaluation of conditions                                   *)
(* ------------------------------------------------------------------ *)

(** Terms: arguments and returns come from the case, [some] builds
    options, arithmetic folds into {!Lin}.  State functions and other
    value functions are outside the fragment ([None] → the pair's verdict
    degrades to [Unknown] unless the case discharges another way). *)
let rec sterm ~arg ~ret = function
  | Formula.Arg (side, i) -> arg side i
  | Formula.Ret side -> Some (ret side)
  | Formula.Const v -> sv_of_value v
  | Formula.Vfun ("some", [ t ]) ->
      Option.map (fun s -> SOpt (Some s)) (sterm ~arg ~ret t)
  | Formula.Vfun _ | Formula.Sfun _ -> None
  | Formula.Arith (op, a, b) -> (
      match (sterm ~arg ~ret a, sterm ~arg ~ret b) with
      | Some (SInt x), Some (SInt y) -> (
          match op with
          | Formula.Add -> Some (SInt (Lin.add x y))
          | Formula.Sub -> Some (SInt (Lin.sub x y))
          | Formula.Mul when x.Lin.coeffs = [] -> Some (SInt (Lin.scale x.Lin.base y))
          | Formula.Mul when y.Lin.coeffs = [] -> Some (SInt (Lin.scale y.Lin.base x))
          | Formula.Mul | Formula.Div -> None)
      | _ -> None)

let rec seval ctx ~arg ~ret = function
  | Formula.True -> Some true
  | Formula.False -> Some false
  | Formula.Not f -> t_not (seval ctx ~arg ~ret f)
  | Formula.And (a, b) -> t_and (seval ctx ~arg ~ret a) (seval ctx ~arg ~ret b)
  | Formula.Or (a, b) -> (
      match (seval ctx ~arg ~ret a, seval ctx ~arg ~ret b) with
      | Some true, _ | _, Some true -> Some true
      | Some false, Some false -> Some false
      | _ -> None)
  | Formula.Cmp (op, ta, tb) -> (
      match (sterm ~arg ~ret ta, sterm ~arg ~ret tb) with
      | Some a, Some b -> (
          match op with
          | Formula.Eq -> sv_eq ctx a b
          | Formula.Ne -> t_not (sv_eq ctx a b)
          | Formula.Lt | Formula.Le | Formula.Gt | Formula.Ge -> (
              match (a, b) with
              | SInt x, SInt y -> (
                  let d = Lin.sub x y in
                  match d.Lin.coeffs with
                  | [] ->
                      Some
                        (match op with
                        | Formula.Lt -> d.Lin.base < 0
                        | Formula.Le -> d.Lin.base <= 0
                        | Formula.Gt -> d.Lin.base > 0
                        | _ -> d.Lin.base >= 0)
                  | _ -> None)
              | _ -> None))
      | _ -> None)

(* ------------------------------------------------------------------ *)
(* Cases                                                               *)
(* ------------------------------------------------------------------ *)

(** Observations of one copy of the product program: the two returns and
    the abstract-state components the frame lemma does not cancel
    (positionally aligned between the copies by construction). *)
type order_result = { or_r1 : sv; or_r2 : sv; or_state : sv list }

type case = {
  cs_desc : string;
  cs_ctx : ctx;
  cs_arg : Formula.side -> int -> sv option;
  cs_fwd : order_result;  (** m1 then m2 *)
  cs_rev : order_result;  (** m2 then m1 *)
  cs_setup : (string * Value.t list) list;  (** concrete witness: setup *)
  cs_args1 : Value.t list;
  cs_args2 : Value.t list;
}

(** All set partitions of [xs], deterministically ordered. *)
let partitions xs =
  List.fold_left
    (fun parts x ->
      List.concat_map
        (fun p ->
          let rec ins acc = function
            | [] -> [ List.rev (( [ x ] ) :: acc) ]
            | b :: rest ->
                List.rev_append acc ((x :: b) :: rest) :: ins (b :: acc) rest
          in
          ins [] p)
        parts)
    [ [] ] xs

let repr_fn blocks =
  let tbl =
    List.concat_map
      (function [] -> [] | r :: _ as b -> List.map (fun x -> (x, r)) b)
      blocks
  in
  fun x -> match List.assoc_opt x tbl with Some r -> r | None -> x

(** Concrete witness value for a term: its block index, so two terms are
    concretely equal exactly when the partition says so. *)
let witness_value blocks x =
  let rec idx i = function
    | [] -> i
    | b :: rest -> if List.mem x b then i else idx (i + 1) rest
  in
  Value.Int (idx 0 blocks)

let pp_blocks blocks =
  String.concat "" (List.map (fun b -> "{" ^ String.concat "," b ^ "}") blocks)

let no_ints = { cx_repr = Fun.id; cx_nonzero = (fun _ -> false); cx_distinct = (fun _ _ -> false) }

(* ------------------------------------------------------------------ *)
(* Family: set (add/remove/contains over one membership bit per slot)   *)
(* ------------------------------------------------------------------ *)

let set_step name mem =
  match name with
  | "add" -> (SBool (not mem), true)
  | "remove" -> (SBool mem, false)
  | _ (* contains *) -> (SBool mem, mem)

let set_cases m1 m2 =
  List.concat_map
    (fun blocks ->
      let repr = repr_fn blocks in
      let alias = repr "a" = repr "b" in
      List.concat_map
        (fun ma ->
          List.filter_map
            (fun mb ->
              if alias && ma <> mb then None
              else
                let run first_is_m1 =
                  let sa = ref ma and sb = ref mb in
                  let exec_a name =
                    let r, nw = set_step name !sa in
                    sa := nw;
                    if alias then sb := nw;
                    r
                  and exec_b name =
                    let r, nw = set_step name !sb in
                    sb := nw;
                    if alias then sa := nw;
                    r
                  in
                  let r1, r2 =
                    if first_is_m1 then
                      let r1 = exec_a m1 in
                      (r1, exec_b m2)
                    else
                      let r2 = exec_b m2 in
                      (exec_a m1, r2)
                  in
                  { or_r1 = r1; or_r2 = r2; or_state = [ SBool !sa; SBool !sb ] }
                in
                let av = witness_value blocks "a" and bv = witness_value blocks "b" in
                Some
                  {
                    cs_desc =
                      Printf.sprintf "v1[0] %s v2[0]; v1[0] %s S0; v2[0] %s S0"
                        (if alias then "=" else "!=")
                        (if ma then "in" else "notin")
                        (if mb then "in" else "notin");
                    cs_ctx = { no_ints with cx_repr = repr };
                    cs_arg =
                      (fun side i ->
                        match (side, i) with
                        | Formula.M1, 0 -> Some (SAbs "a")
                        | Formula.M2, 0 -> Some (SAbs "b")
                        | _ -> None);
                    cs_fwd = run true;
                    cs_rev = run false;
                    cs_setup =
                      (if ma then [ ("add", [ av ]) ] else [])
                      @ (if mb && not alias then [ ("add", [ bv ]) ] else []);
                    cs_args1 = [ av ];
                    cs_args2 = [ bv ];
                  })
            [ true; false ])
        [ true; false ])
    (partitions [ "a"; "b" ])

(* ------------------------------------------------------------------ *)
(* Family: orset (add/remove over one membership bit per tagged pair)   *)
(* ------------------------------------------------------------------ *)

let orset_step name =
  match name with "add" -> (SUnit, true) | _ (* remove *) -> (SUnit, false)

let orset_cases m1 m2 =
  List.concat_map
    (fun blocks ->
      let repr = repr_fn blocks in
      let alias = repr "e1" = repr "e2" && repr "i1" = repr "i2" in
      List.concat_map
        (fun p1 ->
          List.filter_map
            (fun p2 ->
              if alias && p1 <> p2 then None
              else
                let run first_is_m1 =
                  let s1 = ref p1 and s2 = ref p2 in
                  let exec_1 name =
                    let r, nw = orset_step name in
                    ignore !s1;
                    s1 := nw;
                    if alias then s2 := nw;
                    r
                  and exec_2 name =
                    let r, nw = orset_step name in
                    s2 := nw;
                    if alias then s1 := nw;
                    r
                  in
                  let r1, r2 =
                    if first_is_m1 then
                      let r1 = exec_1 m1 in
                      (r1, exec_2 m2)
                    else
                      let r2 = exec_2 m2 in
                      (exec_1 m1, r2)
                  in
                  { or_r1 = r1; or_r2 = r2; or_state = [ SBool !s1; SBool !s2 ] }
                in
                let v t = witness_value blocks t in
                Some
                  {
                    cs_desc =
                      Printf.sprintf "pairs %s [%s]; p1 %s S0; p2 %s S0"
                        (if alias then "aliased" else "distinct")
                        (pp_blocks blocks)
                        (if p1 then "in" else "notin")
                        (if p2 then "in" else "notin");
                    cs_ctx = { no_ints with cx_repr = repr };
                    cs_arg =
                      (fun side i ->
                        match (side, i) with
                        | Formula.M1, 0 -> Some (SAbs "e1")
                        | Formula.M1, 1 -> Some (SAbs "i1")
                        | Formula.M2, 0 -> Some (SAbs "e2")
                        | Formula.M2, 1 -> Some (SAbs "i2")
                        | _ -> None);
                    cs_fwd = run true;
                    cs_rev = run false;
                    cs_setup =
                      (if p1 then [ ("add", [ v "e1"; v "i1" ]) ] else [])
                      @ (if p2 && not alias then [ ("add", [ v "e2"; v "i2" ]) ] else []);
                    cs_args1 = [ v "e1"; v "i1" ];
                    cs_args2 = [ v "e2"; v "i2" ];
                  })
            [ true; false ])
        [ true; false ])
    (partitions [ "e1"; "i1"; "e2"; "i2" ])

(* ------------------------------------------------------------------ *)
(* Family: accumulator (one symbolic integer, linear effects)           *)
(* ------------------------------------------------------------------ *)

let acc_cases m1 m2 =
  let has_x = m1 = "increment" and has_y = m2 = "increment" in
  let choices b = if b then [ true; false ] else [ false ] in
  List.concat_map
    (fun x0 ->
      List.concat_map
        (fun y0 ->
          List.filter_map
            (fun xy ->
              let consistent =
                ((not (has_x && has_y)) || (not (x0 && y0)) || xy)
                && ((not xy) || x0 = y0)
              in
              if not consistent then None
              else
                let xl = if x0 then Lin.int 0 else Lin.var "x" in
                let yl =
                  if y0 then Lin.int 0 else if xy then xl else Lin.var "y"
                in
                let run first_is_m1 =
                  let total = ref (Lin.var "T") in
                  let exec name l =
                    match name with
                    | "increment" ->
                        total := Lin.add !total l;
                        SUnit
                    | _ (* read *) -> SInt !total
                  in
                  let r1, r2 =
                    if first_is_m1 then
                      let r1 = exec m1 xl in
                      (r1, exec m2 yl)
                    else
                      let r2 = exec m2 yl in
                      (exec m1 xl, r2)
                  in
                  { or_r1 = r1; or_r2 = r2; or_state = [ SInt !total ] }
                in
                let xv = if x0 then 0 else 1 in
                let yv = if y0 then 0 else if xy then xv else 2 in
                let parts =
                  (if has_x then [ Printf.sprintf "v1[0] %s 0" (if x0 then "=" else "!=") ] else [])
                  @ (if has_y then [ Printf.sprintf "v2[0] %s 0" (if y0 then "=" else "!=") ] else [])
                  @
                  if has_x && has_y then
                    [ Printf.sprintf "v1[0] %s v2[0]" (if xy then "=" else "!=") ]
                  else []
                in
                Some
                  {
                    cs_desc = (match parts with [] -> "unconditional" | _ -> String.concat "; " parts);
                    cs_ctx =
                      {
                        cx_repr = Fun.id;
                        cx_nonzero =
                          (fun v ->
                            (v = "x" && has_x && not x0) || (v = "y" && has_y && not y0));
                        cx_distinct =
                          (fun v1 v2 ->
                            has_x && has_y && (not xy)
                            && ((v1 = "x" && v2 = "y") || (v1 = "y" && v2 = "x")));
                      };
                    cs_arg =
                      (fun side i ->
                        match (side, i) with
                        | Formula.M1, 0 when has_x -> Some (SInt xl)
                        | Formula.M2, 0 when has_y -> Some (SInt yl)
                        | _ -> None);
                    cs_fwd = run true;
                    cs_rev = run false;
                    cs_setup = [];
                    cs_args1 = (if has_x then [ Value.Int xv ] else []);
                    cs_args2 = (if has_y then [ Value.Int yv ] else []);
                  })
            (choices (has_x && has_y)))
        (choices has_y))
    (choices has_x)

(* ------------------------------------------------------------------ *)
(* Family: kvmap (one binding slot per key argument, symbolic size)     *)
(* ------------------------------------------------------------------ *)

(** (has key argument, has data argument) per method. *)
let kv_shape = function
  | "put" -> Some (true, true)
  | "get" | "remove" -> Some (true, false)
  | "size" -> Some (false, false)
  | _ -> None

let kvmap_cases m1 m2 =
  let key1, dat1 = Option.get (kv_shape m1) in
  let key2, dat2 = Option.get (kv_shape m2) in
  let choices b = if b then [ true; false ] else [ false ] in
  List.concat_map
    (fun kk ->
      List.concat_map
        (fun p1 ->
          List.concat_map
            (fun p2 ->
              let terms =
                (if key1 then [ "k1" ] else [])
                @ (if key2 then [ "k2" ] else [])
                @ (if dat1 then [ "d1" ] else [])
                @ (if dat2 then [ "d2" ] else [])
                @ (if key1 && p1 then [ "s1" ] else [])
                @ if key2 && p2 && not kk then [ "s2" ] else []
              in
              List.filter_map
                (fun blocks ->
                  let repr = repr_fn blocks in
                  if key1 && key2 && (repr "k1" = repr "k2") <> kk then None
                  else
                    let run first_is_m1 =
                      let cell1 = ref (if key1 && p1 then Some "s1" else None) in
                      let cell2 =
                        if key1 && key2 && kk then cell1
                        else ref (if key2 && p2 then Some "s2" else None)
                      in
                      let n = ref (Lin.var "N") in
                      let sopt = Option.map (fun t -> SAbs t) in
                      let exec name cell data =
                        match name with
                        | "put" ->
                            let old = !cell in
                            cell := Some (Option.get data);
                            if old = None then n := Lin.add !n (Lin.int 1);
                            SOpt (sopt old)
                        | "get" -> SOpt (sopt !cell)
                        | "remove" ->
                            let old = !cell in
                            cell := None;
                            if old <> None then n := Lin.sub !n (Lin.int 1);
                            SOpt (sopt old)
                        | _ (* size *) -> SInt !n
                      in
                      let e1 () = exec m1 cell1 (if dat1 then Some "d1" else None)
                      and e2 () = exec m2 cell2 (if dat2 then Some "d2" else None) in
                      let r1, r2 =
                        if first_is_m1 then
                          let r1 = e1 () in
                          (r1, e2 ())
                        else
                          let r2 = e2 () in
                          (e1 (), r2)
                      in
                      {
                        or_r1 = r1;
                        or_r2 = r2;
                        or_state =
                          (if key1 then [ SOpt (Option.map (fun t -> SAbs t) !cell1) ] else [])
                          @ (if key2 then [ SOpt (Option.map (fun t -> SAbs t) !cell2) ] else [])
                          @ [ SInt !n ];
                      }
                    in
                    let v t = witness_value blocks t in
                    let args_of keyed dat k d =
                      (if keyed then [ v k ] else []) @ if dat then [ v d ] else []
                    in
                    Some
                      {
                        cs_desc =
                          String.concat "; "
                            ((if key1 && key2 then
                                [ (if kk then "v1[0] = v2[0]" else "v1[0] != v2[0]") ]
                              else [])
                            @ (if key1 then [ (if p1 then "k1 bound" else "k1 unbound") ] else [])
                            @ (if key2 then [ (if p2 then "k2 bound" else "k2 unbound") ] else [])
                            @ [ pp_blocks blocks ]);
                        cs_ctx = { no_ints with cx_repr = repr };
                        cs_arg =
                          (fun side i ->
                            match (side, i) with
                            | Formula.M1, 0 when key1 -> Some (SAbs "k1")
                            | Formula.M1, 1 when dat1 -> Some (SAbs "d1")
                            | Formula.M2, 0 when key2 -> Some (SAbs "k2")
                            | Formula.M2, 1 when dat2 -> Some (SAbs "d2")
                            | _ -> None);
                        cs_fwd = run true;
                        cs_rev = run false;
                        cs_setup =
                          (if key1 && p1 then [ ("put", [ v "k1"; v "s1" ]) ] else [])
                          @
                          if key2 && p2 && not kk then [ ("put", [ v "k2"; v "s2" ]) ]
                          else [];
                        cs_args1 = args_of key1 dat1 "k1" "d1";
                        cs_args2 = args_of key2 dat2 "k2" "d2";
                      })
                (partitions terms))
            (if key2 then if kk then [ p1 ] else [ true; false ] else [ false ]))
        (choices key1))
    (choices (key1 && key2))

(* ------------------------------------------------------------------ *)
(* Verdicts                                                            *)
(* ------------------------------------------------------------------ *)

type refutation = {
  rf_pair : string * string;
  rf_case : string;  (** the symbolic case that produced the witness *)
  rf_setup : (string * Value.t list) list;
  rf_args1 : Value.t list;
  rf_args2 : Value.t list;
  rf_fwd : Soundness.observation;
  rf_rev : Soundness.observation;
}

type verdict =
  | Proved of int  (** all cases discharged; the count is reported *)
  | Refuted of refutation  (** concrete, confirmed counterexample trace *)
  | Unknown of string

type pair_verdict = {
  vf_pair : string * string;
  vf_cond : Formula.t;
  vf_verdict : verdict;
}

type report = {
  vf_adt : string;
  vf_family : string option;  (** symbolic model used; [None] = no model *)
  vf_frame : string;  (** the frame lemma the [Proved] verdicts rest on *)
  vf_pairs : pair_verdict list;
}

let verdict_name = function
  | Proved _ -> "proved"
  | Refuted _ -> "refuted"
  | Unknown _ -> "unknown"

let pp_args = Fmt.(parens (list ~sep:comma Value.pp))

let pp_verdict ppf = function
  | Proved n -> Fmt.pf ppf "proved (%d cases)" n
  | Refuted r ->
      Fmt.pf ppf
        "refuted in case [%s]: from %s, %s%a / %s%a -> fwd r1=%a r2=%a s=%a, rev r1=%a r2=%a s=%a"
        r.rf_case
        (if r.rf_setup = [] then "empty state"
         else
           String.concat "; "
             (List.map
                (fun (m, args) -> Fmt.str "%s%a" m pp_args args)
                r.rf_setup))
        (fst r.rf_pair) pp_args r.rf_args1 (snd r.rf_pair) pp_args r.rf_args2
        Value.pp r.rf_fwd.Soundness.obs_r1 Value.pp r.rf_fwd.Soundness.obs_r2
        Value.pp r.rf_fwd.Soundness.obs_state Value.pp r.rf_rev.Soundness.obs_r1
        Value.pp r.rf_rev.Soundness.obs_r2 Value.pp r.rf_rev.Soundness.obs_state
  | Unknown reason -> Fmt.pf ppf "unknown (%s)" reason

let is_proved = function Proved _ -> true | _ -> false
let is_refuted = function Refuted _ -> true | _ -> false

(** Every pair proved (the gate a "verified" stamp requires). *)
let all_proved r = List.for_all (fun p -> is_proved p.vf_verdict) r.vf_pairs

let any_refuted r = List.exists (fun p -> is_refuted p.vf_verdict) r.vf_pairs

(* ------------------------------------------------------------------ *)
(* The checker                                                         *)
(* ------------------------------------------------------------------ *)

type family = Fam_set | Fam_triset | Fam_accumulator | Fam_kvmap | Fam_orset

let family_frame = function
  | Fam_set ->
      "add/remove/contains read and write only the membership bit of their \
       argument; elements named by neither invocation are untouched by both \
       orders"
  | Fam_triset ->
      "take/add/contains read and write only the liveness bit of the id they \
       name; ids named by neither invocation are untouched by both orders \
       (the set model under the claim renaming take = remove)"
  | Fam_orset ->
      "add/remove touch only the (element, id) pair they name; pairs named \
       by neither invocation are untouched by both orders"
  | Fam_accumulator ->
      "the whole state is one integer total; effects are linear updates, \
       compared as normal forms universal in the symbolic initial total"
  | Fam_kvmap ->
      "put/get/remove touch only the binding of their key argument and the \
       size by a constant; keys named by neither invocation are untouched, \
       size is tracked as a symbolic offset"

let family_name = function
  | Fam_set -> "set"
  | Fam_triset -> "triset"
  | Fam_accumulator -> "accumulator"
  | Fam_kvmap -> "kvmap"
  | Fam_orset -> "orset"

let starts_with p s =
  String.length s >= String.length p && String.sub s 0 (String.length p) = p

let family_of adt =
  if starts_with "set" adt then Some Fam_set
  else if starts_with "triset" adt then Some Fam_triset
  else if starts_with "accumulator" adt then Some Fam_accumulator
  else if starts_with "kvmap" adt then Some Fam_kvmap
  else if starts_with "orset" adt then Some Fam_orset
  else None

let cases_for fam m1 m2 : (case list, string) result =
  let known ms = List.filter (fun m -> not (List.mem m ms)) [ m1; m2 ] in
  let unknown ms =
    match known ms with
    | [] -> None
    | us -> Some (Printf.sprintf "method %s not in the symbolic model" (List.hd us))
  in
  match fam with
  | Fam_set -> (
      match unknown [ "add"; "remove"; "contains" ] with
      | Some e -> Error e
      | None -> Ok (set_cases m1 m2))
  | Fam_triset -> (
      (* take is claim-and-remove: identical observations, so the set's
         symbolic cases verify it under the renaming.  Witness replay in
         [confirm] still runs the original method names against the triset
         reference domain. *)
      match unknown [ "take"; "add"; "contains" ] with
      | Some e -> Error e
      | None ->
          let rn = function "take" -> "remove" | m -> m in
          Ok (set_cases (rn m1) (rn m2)))
  | Fam_orset -> (
      match unknown [ "add"; "remove" ] with
      | Some e -> Error e
      | None -> Ok (orset_cases m1 m2))
  | Fam_accumulator -> (
      match unknown [ "increment"; "read" ] with
      | Some e -> Error e
      | None -> Ok (acc_cases m1 m2))
  | Fam_kvmap -> (
      match unknown [ "put"; "get"; "remove"; "size" ] with
      | Some e -> Error e
      | None -> Ok (kvmap_cases m1 m2))

(** Replay the materialized witness against the real reference
    implementation.  A refutation is only reported if the concrete run
    reproduces both halves of the claim: the orders observably differ and
    the condition holds of the forward observations. *)
let confirm (dom : Domain.t) (spec : Spec.t) ~first ~second (c : case) cond :
    refutation option =
  match
    ( Soundness.run_order dom c.cs_setup ~swapped:false (first, c.cs_args1)
        (second, c.cs_args2),
      Soundness.run_order dom c.cs_setup ~swapped:true (first, c.cs_args1)
        (second, c.cs_args2) )
  with
  | Some fwd, Some rev when not (Soundness.equivalent fwd rev) -> (
      let env =
        Soundness.forward_env dom spec c.cs_setup (first, c.cs_args1) c.cs_args2 fwd
      in
      match Formula.eval env cond with
      | true ->
          Some
            {
              rf_pair = (first, second);
              rf_case = c.cs_desc;
              rf_setup = c.cs_setup;
              rf_args1 = c.cs_args1;
              rf_args2 = c.cs_args2;
              rf_fwd = fwd;
              rf_rev = rev;
            }
      | false -> None
      | exception (Formula.Unsupported _ | Value.Type_error _ | Invalid_argument _)
        ->
          None)
  | _ -> None

let equivalence c =
  t_all
    (sv_eq c.cs_ctx c.cs_fwd.or_r1 c.cs_rev.or_r1
    :: sv_eq c.cs_ctx c.cs_fwd.or_r2 c.cs_rev.or_r2
    :: List.map2 (sv_eq c.cs_ctx) c.cs_fwd.or_state c.cs_rev.or_state)

let check_pair (dom : Domain.t option) (spec : Spec.t) fam ~first ~second :
    verdict =
  match cases_for fam first second with
  | Error msg -> Unknown msg
  | Ok cases ->
      let cond = Spec.cond spec ~first ~second in
      let refut = ref None and unknown = ref None in
      let note msg = if !unknown = None then unknown := Some msg in
      List.iter
        (fun c ->
          if !refut = None then
            match equivalence c with
            | Some true -> () (* orders agree unconditionally: discharged *)
            | equiv -> (
                let ret = function
                  | Formula.M1 -> c.cs_fwd.or_r1
                  | Formula.M2 -> c.cs_fwd.or_r2
                in
                match (seval c.cs_ctx ~arg:c.cs_arg ~ret cond, equiv) with
                | Some false, _ -> () (* condition rejects the case: vacuous *)
                | Some true, Some false -> (
                    match dom with
                    | None ->
                        note
                          (Printf.sprintf
                             "refuted symbolically in case [%s] but no reference \
                              domain to confirm the witness"
                             c.cs_desc)
                    | Some dom -> (
                        match confirm dom spec ~first ~second c cond with
                        | Some r -> refut := Some r
                        | None ->
                            note
                              (Printf.sprintf
                                 "symbolic refutation in case [%s] did not \
                                  reproduce concretely"
                                 c.cs_desc)))
                | Some true, _ ->
                    note
                      (Printf.sprintf "equivalence undecidable in case [%s]"
                         c.cs_desc)
                | None, _ ->
                    note
                      (Printf.sprintf
                         "condition not symbolically evaluable in case [%s]"
                         c.cs_desc)))
        cases;
      (match (!refut, !unknown) with
      | Some r, _ -> Refuted r
      | None, Some m -> Unknown m
      | None, None -> Proved (List.length cases))

(** Verify every ordered pair of [spec].  [dom] (defaulting to the
    registered domain for the spec's ADT) is used only to {e confirm}
    refutation witnesses concretely — proofs never depend on it. *)
let verify_spec ?dom (spec : Spec.t) : report =
  let adt = Spec.adt spec in
  let dom = match dom with Some _ as d -> d | None -> Domain.find adt in
  let pairs = List.sort_uniq compare (List.map fst (Spec.pairs spec)) in
  match family_of adt with
  | None ->
      {
        vf_adt = adt;
        vf_family = None;
        vf_frame = "";
        vf_pairs =
          List.map
            (fun (first, second) ->
              {
                vf_pair = (first, second);
                vf_cond = Spec.cond spec ~first ~second;
                vf_verdict =
                  Unknown
                    (Printf.sprintf
                       "no symbolic product-program model for ADT %s" adt);
              })
            pairs;
      }
  | Some fam ->
      {
        vf_adt = adt;
        vf_family = Some (family_name fam);
        vf_frame = family_frame fam;
        vf_pairs =
          List.map
            (fun (first, second) ->
              {
                vf_pair = (first, second);
                vf_cond = Spec.cond spec ~first ~second;
                vf_verdict = check_pair dom spec fam ~first ~second;
              })
            pairs;
      }
