(** Commutativity specifications (paper §2.3).

    A specification maps each {e ordered} pair of methods [(m1, m2)] — read
    "[m1] was invoked first" — to a commutativity condition.  The paper
    writes specifications symmetrically and omits the mirrored halves "for
    brevity" (Fig. 2 footnote); here both orientations are stored
    explicitly, because for state-dependent conditions (union-find, Fig. 5)
    the two orientations are genuinely different formulas.

    Missing entries default to [false] — the sound choice: methods that the
    author said nothing about are assumed to conflict. *)

type t = {
  adt : string;
  methods : Invocation.meth list;
  conditions : (string * string, Formula.t) Hashtbl.t;
  vfuns : (string * (Value.t list -> Value.t)) list;
      (** interpretations of the pure value functions ([dist], [part], …)
          used by this spec's formulas *)
}

let create ?(vfuns = []) ~adt methods =
  { adt; methods; conditions = Hashtbl.create 16; vfuns }

let adt t = t.adt
let methods t = t.methods

let find_meth t name =
  match List.find_opt (fun (m : Invocation.meth) -> m.name = name) t.methods with
  | Some m -> m
  | None -> invalid_arg (Fmt.str "Spec: unknown method %s on %s" name t.adt)

let vfun t name =
  match List.assoc_opt name t.vfuns with
  | Some f -> f
  | None -> raise (Formula.Unsupported ("vfun " ^ name))

(** Register the condition for the ordered pair ([first], [second]). *)
let add_directed t ~first ~second f =
  if not (Formula.well_formed f) then
    invalid_arg
      (Fmt.str "Spec.add_directed: ill-formed condition for (%s,%s): %a" first
         second Formula.pp f);
  ignore (find_meth t first);
  ignore (find_meth t second);
  Hashtbl.replace t.conditions (first, second) f

(** Register a condition for both orientations.  Only valid for state-free
    formulas, whose mirror is a pure renaming; state-dependent conditions
    must be registered with {!add_directed} in each orientation. *)
let add_sym t m1 m2 f =
  if not (Formula.is_state_free f) then
    invalid_arg "Spec.add_sym: state-dependent formula; use add_directed";
  add_directed t ~first:m1 ~second:m2 f;
  if m1 <> m2 then add_directed t ~first:m2 ~second:m1 (Formula.mirror f)

(** The condition for "[first] executed, then [second]".  Defaults to
    [false] (conservative) when unspecified. *)
let cond t ~first ~second =
  match Hashtbl.find_opt t.conditions (first, second) with
  | Some f -> f
  | None -> Formula.False

(* Hashtbl.fold order depends on the hash seed and insertion history, so
   every enumeration of the condition table is sorted by method-name pair
   before anyone sees it: JSON diagnostics, goldens, the spec compiler and
   the CEGIS loop all iterate this list and must not flake across OCaml
   hash-seed changes.  Keys are unique, so sorting by key alone is a total
   deterministic order. *)
let all_conditions t =
  Hashtbl.fold (fun k v acc -> (k, v) :: acc) t.conditions []
  |> List.sort (fun (k1, _) (k2, _) -> Stdlib.compare (k1 : string * string) k2)

let pairs = all_conditions

(** Classification of a whole specification: the weakest scheme able to
    implement it (paper §3.4's hierarchy).  A spec is SIMPLE iff all its
    conditions are; ONLINE-CHECKABLE iff all conditions are at most
    online-checkable; GENERAL otherwise. *)
let classify t =
  let worst = ref Formula.Simple in
  List.iter
    (fun ((m1, m2), f) ->
      ignore m1;
      ignore m2;
      match Formula.classify f with
      | Formula.Simple -> ()
      | Formula.Online -> if !worst = Formula.Simple then worst := Formula.Online
      | Formula.General -> worst := Formula.General)
    (pairs t);
  !worst

(** All pairs are covered (including same-method pairs) in both
    orientations; raises otherwise.  Detectors call this at construction
    time. *)
let validate ?(require_total = false) t =
  List.iter
    (fun ((m1, m2), f) ->
      if not (Formula.well_formed f) then
        invalid_arg (Fmt.str "Spec %s: ill-formed condition for (%s,%s)" t.adt m1 m2))
    (pairs t);
  if require_total then
    List.iter
      (fun (m1 : Invocation.meth) ->
        List.iter
          (fun (m2 : Invocation.meth) ->
            if not (Hashtbl.mem t.conditions (m1.name, m2.name)) then
              invalid_arg
                (Fmt.str "Spec %s: missing condition for (%s,%s)" t.adt m1.name
                   m2.name))
          t.methods)
      t.methods

let pp ppf t =
  Fmt.pf ppf "@[<v>spec %s (%a):@," t.adt
    Fmt.(list ~sep:comma Invocation.pp_meth)
    t.methods;
  List.iter
    (fun ((m1, m2), f) ->
      Fmt.pf ppf "  %s ; %s  commute if  %a@," m1 m2 Formula.pp f)
    (pairs t);
  Fmt.pf ppf "@]"

(* ------------------------------------------------------------------ *)
(* Observed-invocation commutativity (the explorer's independence      *)
(* relation)                                                           *)
(* ------------------------------------------------------------------ *)

(** [commutes t i1 i2] evaluates the condition for "[i1] executed, then
    [i2]" on the two {e observed} invocations.  [Some true] means the pair
    commutes at this point of the lattice — by the paper's Definition 1
    both execution orders reach the same state and return values, so a
    schedule explorer never needs to try the other order.  [Some false]
    means the condition refutes commutativity on these arguments.  [None]
    means the condition cannot be decided from the observations alone:
    it is state-dependent (needs an [Sfun] oracle we don't have here), it
    reads a return value the caller flagged as not yet produced
    ([~ret1_known]/[~ret2_known] default to [true]), or evaluation hit an
    uninterpreted function.  Callers must treat [None] as "may conflict". *)
let commutes ?(ret1_known = true) ?(ret2_known = true) t (i1 : Invocation.t)
    (i2 : Invocation.t) : bool option =
  let f = cond t ~first:i1.Invocation.meth.Invocation.name
      ~second:i2.Invocation.meth.Invocation.name in
  match f with
  | Formula.True -> Some true
  | Formula.False -> Some false
  | _ ->
      let base =
        Invocation.env
          ~sfun:(fun name _ _ _ -> raise (Formula.Unsupported name))
          ~vfun:(fun name args -> vfun t name args)
          i1 i2
      in
      (* An unobserved return value only poisons the conditions that
         actually read it: [eval] short-circuits, so [ne(a1,a2) \/ …ret…]
         still decides commutativity of distinct keys before either
         invocation has executed. *)
      let ret side =
        (match side with
        | Formula.M1 when not ret1_known ->
            raise (Formula.Unsupported "ret(m1) not yet observed")
        | Formula.M2 when not ret2_known ->
            raise (Formula.Unsupported "ret(m2) not yet observed")
        | _ -> ());
        base.Formula.ret side
      in
      let env = { base with Formula.ret } in
      (match Formula.eval env f with
       | b -> Some b
       | exception Formula.Unsupported _ -> None
       | exception Value.Type_error _ -> None)
