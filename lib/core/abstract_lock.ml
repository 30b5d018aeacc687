(** Abstract locking (paper §3.2).

    This module implements the paper's systematic construction of abstract
    locking schemes from SIMPLE commutativity specifications:

    + one lock per data member (any value reachable as a method argument or
      return value, possibly through a pure key-derivation function such as
      [part]) plus one lock for the whole structure;
    + one lock {e mode} per method/slot: [m:ds] for the method's access to
      the structure, and one mode per clause position ([m:arg_i], [m:ret],
      [m:part(arg_i)], …);
    + a compatibility matrix derived from the specification:
      {ul
      {- [f_{m1,m2} = false] ⟹ [m1:ds] incompatible with [m2:ds];}
      {- each SIMPLE clause [t1 != t2] ⟹ mode of [t1] incompatible with
         mode of [t2];}
      {- everything else compatible.}}

    Modes compatible with every mode are superfluous; {!reduce} removes
    them (the Fig. 8(a) → Fig. 8(b) optimization).

    Theorem 1 of the paper: the scheme produced here is sound and complete
    with respect to the input specification iff the specification is SIMPLE
    — property-tested in [test/test_abstract_lock.ml]. *)

(* ------------------------------------------------------------------ *)
(* Scheme construction                                                 *)
(* ------------------------------------------------------------------ *)

(** What a method must lock: the structure lock, or the value of a pure
    key term over the invocation's arguments/returns. *)
type acquisition = {
  mode : int;  (** mode index in the compatibility matrix *)
  key : Formula.term option;
      (** [None] = the data-structure lock; [Some t] = lock on the runtime
          value of [t] (an M1-side pure term, e.g. [v1\[0\]] or
          [part(v1\[0\])]) *)
  after_exec : bool;  (** return-value locks are acquired after execution *)
}

type scheme = {
  spec : Spec.t;
  mode_names : string array;  (** mode index -> display name *)
  compat : bool array array;  (** symmetric compatibility matrix *)
  acquisitions : (string, acquisition list) Hashtbl.t;  (** per method *)
  reduced : bool;
}

let mode_name scheme i = scheme.mode_names.(i)
let n_modes scheme = Array.length scheme.mode_names

(** Canonical display/identity for a mode: method name + slot term. *)
let slot_id meth_name = function
  | None -> meth_name ^ ":ds"
  | Some t -> Fmt.str "%s:%a" meth_name Formula.pp_term t

(* Normalize an M2-side term to the corresponding M1-side term, so the same
   slot of a method gets the same mode whether the method appears first or
   second in a condition. *)
let rec to_m1_term = function
  | Formula.Arg (_, i) -> Formula.Arg (Formula.M1, i)
  | Formula.Ret _ -> Formula.Ret Formula.M1
  | Formula.Const _ as t -> t
  | Formula.Vfun (f, args) -> Formula.Vfun (f, List.map to_m1_term args)
  | Formula.Arith (op, a, b) -> Formula.Arith (op, to_m1_term a, to_m1_term b)
  | Formula.Sfun _ -> invalid_arg "abstract lock key mentions state"

exception Not_simple of string * string * Formula.t

(** Build the full (unreduced) abstract locking scheme for a SIMPLE spec.
    Raises {!Not_simple} if some condition is not in L2. *)
let construct (spec : Spec.t) : scheme =
  let modes = Hashtbl.create 32 in
  let names = ref [] in
  let n = ref 0 in
  let mode_of id =
    match Hashtbl.find_opt modes id with
    | Some i -> i
    | None ->
        let i = !n in
        incr n;
        Hashtbl.add modes id i;
        names := id :: !names;
        i
  in
  (* Step 1 of the construction: every method gets a ds mode plus one mode
     per argument and return value (Fig. 8(a) shows all of them; the
     reduction below drops the superfluous ones). *)
  List.iter
    (fun (m : Invocation.meth) ->
      ignore (mode_of (slot_id m.name None));
      for i = 0 to m.arity - 1 do
        ignore (mode_of (slot_id m.name (Some (Formula.Arg (Formula.M1, i)))))
      done;
      ignore (mode_of (slot_id m.name (Some (Formula.Ret Formula.M1)))))
    (Spec.methods spec);
  let incompat = Hashtbl.create 32 in
  let mark i j =
    Hashtbl.replace incompat (i, j) ();
    Hashtbl.replace incompat (j, i) ()
  in
  let acqs : (string, acquisition list) Hashtbl.t = Hashtbl.create 16 in
  let add_acq meth_name a =
    let cur = Option.value ~default:[] (Hashtbl.find_opt acqs meth_name) in
    if not (List.exists (fun a' -> a'.mode = a.mode) cur) then
      Hashtbl.replace acqs meth_name (a :: cur)
  in
  (* Step 2: every method acquires the structure lock in its ds mode, each
     argument's lock in its argument mode, and its return value's lock in
     its ret mode (the last one necessarily after execution). *)
  List.iter
    (fun (m : Invocation.meth) ->
      add_acq m.name
        { mode = mode_of (slot_id m.name None); key = None; after_exec = false };
      for i = 0 to m.arity - 1 do
        let t = Formula.Arg (Formula.M1, i) in
        add_acq m.name
          { mode = mode_of (slot_id m.name (Some t)); key = Some t; after_exec = false }
      done;
      let r = Formula.Ret Formula.M1 in
      add_acq m.name
        { mode = mode_of (slot_id m.name (Some r)); key = Some r; after_exec = true })
    (Spec.methods spec);
  (* Walk the specification. *)
  List.iter
    (fun ((m1, m2), cond) ->
      match cond with
      | Formula.False -> mark (mode_of (slot_id m1 None)) (mode_of (slot_id m2 None))
      | _ -> (
          match Formula.as_simple cond with
          | None -> raise (Not_simple (m1, m2, cond))
          | Some clauses ->
              List.iter
                (fun (t1, t2) ->
                  let t2m1 = to_m1_term t2 in
                  let mode1 = mode_of (slot_id m1 (Some t1))
                  and mode2 = mode_of (slot_id m2 (Some t2m1)) in
                  mark mode1 mode2;
                  add_acq m1
                    {
                      mode = mode1;
                      key = Some t1;
                      after_exec = Formula.term_mentions_ret Formula.M1 t1;
                    };
                  add_acq m2
                    {
                      mode = mode2;
                      key = Some t2m1;
                      after_exec = Formula.term_mentions_ret Formula.M1 t2m1;
                    })
                clauses))
    (Spec.pairs spec);
  let size = !n in
  let compat = Array.init size (fun i -> Array.init size (fun j -> not (Hashtbl.mem incompat (i, j)))) in
  let mode_names = Array.make size "" in
  List.iteri (fun k id -> mode_names.(size - 1 - k) <- id) !names;
  { spec; mode_names; compat; acquisitions = acqs; reduced = false }

(** Drop superfluous modes: a mode compatible with all modes need never be
    acquired (paper Fig. 8(b)). *)
let reduce (s : scheme) : scheme =
  let superfluous i = Array.for_all Fun.id s.compat.(i) in
  let acquisitions = Hashtbl.create 16 in
  Hashtbl.iter
    (fun m acqs ->
      Hashtbl.replace acquisitions m (List.filter (fun a -> not (superfluous a.mode)) acqs))
    s.acquisitions;
  { s with acquisitions; reduced = true }

let pp_matrix ?(only_used = true) ppf (s : scheme) =
  let used = Array.make (n_modes s) false in
  Hashtbl.iter (fun _ acqs -> List.iter (fun a -> used.(a.mode) <- true) acqs) s.acquisitions;
  let keep i = (not only_used) || used.(i) in
  let idxs = List.filter keep (List.init (n_modes s) Fun.id) in
  let width =
    List.fold_left (fun w i -> max w (String.length s.mode_names.(i))) 0 idxs
  in
  Fmt.pf ppf "%*s" (width + 1) "";
  List.iter (fun j -> Fmt.pf ppf " %*s" width s.mode_names.(j)) idxs;
  Fmt.pf ppf "@.";
  List.iter
    (fun i ->
      Fmt.pf ppf "%*s " (width + 1) s.mode_names.(i);
      List.iter
        (fun j -> Fmt.pf ppf " %*s" width (if s.compat.(i).(j) then "ok" else "X"))
        idxs;
      Fmt.pf ppf "@.")
    idxs

(* ------------------------------------------------------------------ *)
(* Runtime lock table                                                  *)
(* ------------------------------------------------------------------ *)

type lock_obj = Ds | Key of Value.t

module Obj_key = struct
  type t = lock_obj

  let equal a b =
    match (a, b) with
    | Ds, Ds -> true
    | Key x, Key y -> Value.equal x y
    | _ -> false

  let hash = function Ds -> 7 | Key v -> Value.hash v
end

module Obj_tbl = Hashtbl.Make (Obj_key)

type holder = { txn : int; mode : int; mutable count : int }

module Obs = Commlat_obs.Obs

(* One slice of the lock table.  A lock object lives in exactly one stripe
   (determined by its key hash; [Ds] gets a dedicated stripe), so
   acquisitions of footprint-disjoint keys touch different stripes and —
   under the striped invoke protocol — different guards. *)
type stripe = {
  locks : holder list ref Obj_tbl.t;
  held : (int, (lock_obj * holder) list) Hashtbl.t;  (** per txn *)
  sg : Guard.t;
}

type table = {
  scheme : scheme;
  compat_bits : Compile.Bitmat.t;
      (** [scheme.compat] packed into a bitset: the acquire path reads one
          byte instead of chasing two array indirections *)
  nstripes : int;  (** 0 = unstriped (a single stripe) *)
  stripes : stripe array;
      (** length [nstripes + 1] when striped — the last stripe holds the
          [Ds] lock — else 1 *)
  mu : Guard.t;
      (** the [exec] guard, serializing the concrete operation only;
          created {e after} the stripe guards so {!Guard.protect_all}'s
          canonical id order matches the stripe-then-exec nesting of
          [on_invoke] *)
  obs : Obs.t;
  c_acq : Obs.counter;  (** fresh lock acquisitions *)
  c_upg : Obs.counter;  (** re-entrant re-acquisitions (count bumps) *)
  c_deny : Obs.counter;  (** incompatible requests (conflicts) *)
}

let table ?obs:obs_enabled ?(stripes = 0) scheme =
  if stripes < 0 then invalid_arg "Abstract_lock.table: stripes must be >= 0";
  let obs =
    Obs.create ?enabled:obs_enabled
      (Fmt.str "abslock%s(%s)"
         (if stripes > 0 then "-striped" else "")
         (Spec.adt scheme.spec))
  in
  let fresh () =
    { locks = Obj_tbl.create 256; held = Hashtbl.create 64; sg = Guard.create () }
  in
  (* Deliberate [let] sequence: the stripe guards MUST be created before
     [mu] so their creation ids are smaller.  Creating both inside the
     record literal would leave the order unspecified (OCaml evaluates
     record fields right-to-left in practice, giving [mu] the SMALLER id)
     and invert {!Guard.protect_all}'s canonical order against the
     stripe-then-exec nesting of [on_invoke] — an ABBA deadlock between an
     invocation and an atomic abort. *)
  let slices = Array.init (if stripes = 0 then 1 else stripes + 1) (fun _ -> fresh ()) in
  let mu = Guard.create () in
  {
    scheme;
    compat_bits = Compile.Bitmat.of_matrix scheme.compat;
    nstripes = stripes;
    stripes = slices;
    mu;
    obs;
    c_acq = Obs.counter obs "lock_acquisitions";
    c_upg = Obs.counter obs "lock_upgrades";
    c_deny = Obs.counter obs "lock_denials";
  }

(* The stripe a lock object lives in: [Ds] gets the dedicated last stripe,
   keys hash across the rest. *)
let stripe_idx t = function
  | _ when t.nstripes = 0 -> 0
  | Ds -> t.nstripes
  | Key v -> Value.hash v land max_int mod t.nstripes

let stripe_guards t = Array.to_list (Array.map (fun s -> s.sg) t.stripes)

(* Must be called with [obj]'s stripe guard held. *)
let acquire_locked t (s : stripe) ~txn obj mode =
  let cell =
    match Obj_tbl.find_opt s.locks obj with
    | Some c -> c
    | None ->
        let c = ref [] in
        Obj_tbl.add s.locks obj c;
        c
  in
  List.iter
    (fun h ->
      if h.txn <> txn && not (Compile.Bitmat.get t.compat_bits h.mode mode)
      then begin
        Obs.incr t.c_deny;
        Obs.label t.obs ~cat:"lock_deny" t.scheme.mode_names.(mode);
        Obs.label t.obs ~cat:"abort_cause"
          (Fmt.str "%s|%s" t.scheme.mode_names.(h.mode) t.scheme.mode_names.(mode));
        Detector.conflict ~txn ~with_:h.txn
          (Fmt.str "lock %s held in mode %s, requested %s"
             (match obj with Ds -> "<ds>" | Key v -> Value.to_string v)
             t.scheme.mode_names.(h.mode) t.scheme.mode_names.(mode))
      end)
    !cell;
  match List.find_opt (fun h -> h.txn = txn && h.mode = mode) !cell with
  | Some h ->
      Obs.incr t.c_upg;
      h.count <- h.count + 1
  | None ->
      Obs.incr t.c_acq;
      Obs.label t.obs ~cat:"lock_acquire" t.scheme.mode_names.(mode);
      let h = { txn; mode; count = 1 } in
      cell := h :: !cell;
      Hashtbl.replace s.held txn
        ((obj, h) :: Option.value ~default:[] (Hashtbl.find_opt s.held txn))

(* A transaction's locks may span stripes, so take every stripe guard. *)
let release_all t txn =
  Guard.protect_all (stripe_guards t) (fun () ->
      Array.iter
        (fun (s : stripe) ->
          (match Hashtbl.find_opt s.held txn with
          | None -> ()
          | Some held ->
              List.iter
                (fun (obj, h) ->
                  match Obj_tbl.find_opt s.locks obj with
                  | None -> ()
                  | Some cell ->
                      cell := List.filter (fun h' -> h' != h) !cell;
                      if !cell = [] then Obj_tbl.remove s.locks obj)
                held);
          Hashtbl.remove s.held txn)
        t.stripes)

(* ------------------------------------------------------------------ *)
(* Detector                                                            *)
(* ------------------------------------------------------------------ *)

(** Build a conflict detector from a SIMPLE specification.  [reduce_scheme]
    (default [true]) applies the superfluous-mode optimization first.

    [stripes > 0] stripes the lock table: lock objects hash across
    [stripes] guard-protected slices (plus a dedicated slice for the [Ds]
    lock), and an invocation takes only the guards of the stripes it
    acquires locks in — so transactions locking footprint-disjoint keys no
    longer serialize on one table mutex.  A method with after-execution
    (return-value) acquisitions takes every stripe guard, since its stripe
    is unknown before [exec].  The concrete [exec] itself is briefly
    serialized under a dedicated guard.

    Key terms are evaluated through {!Compile.key}'s zero-environment
    closures, and the compatibility matrix is consulted through the
    {!Compile.Bitmat} bitset. *)
let detector ?(reduce_scheme = true) ?(stripes = 0) ?obs (spec : Spec.t) :
    Detector.t =
  let scheme = construct spec in
  let scheme = if reduce_scheme then reduce scheme else scheme in
  let t = table ?obs ~stripes scheme in
  (* compile the key computations once per method *)
  let compiled_acqs :
      (string, (int * bool * (Invocation.t -> Value.t) option) list) Hashtbl.t =
    Hashtbl.create 16
  in
  Hashtbl.iter
    (fun m acqs ->
      Hashtbl.replace compiled_acqs m
        (List.map
           (fun (a : acquisition) ->
             (a.mode, a.after_exec, Option.map (Compile.key spec) a.key))
           acqs))
    scheme.acquisitions;
  let c_inv = Obs.counter t.obs "invocations" in
  let all_sgs = stripe_guards t in
  let guards = all_sgs @ [ t.mu ] in
  let on_invoke (inv : Invocation.t) exec =
    let txn = inv.Invocation.txn in
    let acqs =
      Option.value ~default:[]
        (Hashtbl.find_opt compiled_acqs inv.Invocation.meth.name)
    in
    Obs.incr c_inv;
    (* before-execution acquisitions: ds lock and argument locks.  Their
       key values (hence stripes) are computable now; return-value locks
       are not, so a method with after-execution acquisitions pessimistically
       takes every stripe guard. *)
    let pre =
      List.filter_map
        (fun (mode, after_exec, key) ->
          if after_exec then None
          else
            Some (mode, match key with None -> Ds | Some k -> Key (k inv)))
        acqs
    in
    let has_after = List.exists (fun (_, ae, _) -> ae) acqs in
    let held_guards =
      if t.nstripes = 0 || has_after then all_sgs
      else
        List.sort_uniq Int.compare
          (List.map (fun (_, obj) -> stripe_idx t obj) pre)
        |> List.map (fun i -> t.stripes.(i).sg)
    in
    Guard.protect_all held_guards (fun () ->
        List.iter
          (fun (mode, obj) ->
            acquire_locked t t.stripes.(stripe_idx t obj) ~txn obj mode)
          pre;
        let r =
          Guard.protect t.mu (fun () ->
              let r = exec () in
              inv.Invocation.ret <- r;
              r)
        in
        (* after-execution acquisitions: return-value locks *)
        List.iter
          (fun (mode, after_exec, key) ->
            if after_exec then
              let obj = match key with None -> Ds | Some k -> Key (k inv) in
              acquire_locked t t.stripes.(stripe_idx t obj) ~txn obj mode)
          acqs;
        r)
  in
  {
    Detector.name = Obs.scope t.obs;
    on_invoke;
    on_commit = (fun txn -> release_all t txn);
    on_abort = (fun txn -> release_all t txn);
    reset =
      (fun () ->
        Guard.protect_all all_sgs (fun () ->
            Array.iter
              (fun (s : stripe) ->
                Obj_tbl.reset s.locks;
                Hashtbl.reset s.held)
              t.stripes));
    snapshot = (fun () -> Obs.snapshot t.obs);
    guards;
    txn_guards = (fun _ -> guards);
  }
