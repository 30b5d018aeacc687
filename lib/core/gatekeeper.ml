(** Gatekeeping (paper §3.3): conflict detection by logging method
    invocations and evaluating commutativity conditions directly.

    A gatekeeper intercepts every method invocation [m(v)]:

    + it evaluates the primitive-function set [C_m] — every function of the
      {e current} abstract state appearing (as an [s1]-function of m1-only
      values) in any condition in which [m] is the earlier method — and
      stores the results in a {e result log} [L_{m(v)}] together with [v]
      and the return value;
    + it checks, for every {e active} invocation [ma(va)] of another
      transaction, the condition [f_{ma,m}], reading [ma]'s side from
      [L_{ma(va)}]; if any condition evaluates to [false] a conflict is
      raised;
    + when a transaction ends, its logs and active invocations are removed.

    {b Forward} gatekeepers ([~allow_rollback:false]) require every
    condition to be ONLINE-CHECKABLE (logic L3): all the information needed
    later is in the logs.  {b General} gatekeepers ([~allow_rollback:true])
    accept any L1 condition: a function of [s1] that needs m2-information
    (union-find's [rep (s1, c)]) is evaluated by {e rolling the data
    structure back} to [s1] — undoing, in reverse order, every mutating
    invocation that executed after the active one — evaluating, and
    rolling forward again.  The whole intercept/check/execute/log sequence
    is atomic (one mutex per gatekeeper).

    Conditions are evaluated through {!Compile}: state-free ones by their
    zero-environment closures, state-dependent ones by {!Formula.eval}
    over a log-backed environment ({!check_env}).

    {b Footprint sharding} ([nshards > 0]): the active-invocation table is
    split into [nshards] hash shards keyed by the {!Footprint} analysis
    plus one {e overflow} shard for invocations of keyless methods.  An
    incoming keyed invocation is checked only against its own shard and
    the overflow shard: invocations in other keyed shards have different
    key values, and the analysis guarantees a disequality clause on
    exactly those keys discharges every condition between them.  A keyless
    incoming invocation is checked against every shard.  Sharding is
    always {e striped}: each shard has its own {!Guard.t}, so
    same-ADT-different-key invocations no longer serialize on one
    gatekeeper mutex (only the concrete [exec] is briefly serialized,
    under a dedicated guard).  Striping needs checks that read no logs, no
    live [sfun] and no reconstructed state, so only a forward gatekeeper
    over state-free conditions can be sharded; a general gatekeeper keeps
    one guard, because past-state reconstruction needs one globally
    ordered mutation log. *)

(** How a gatekeeper talks to the data structure it protects. *)
type hooks = {
  sfun : string -> Value.t list -> Value.t;
      (** evaluate an abstract-state function ([rep], [rank], [loser], …)
          on the {e current} state *)
  sfun_at : (int -> string -> Value.t list -> Value.t) option;
      (** [sfun_at seq name args]: evaluate a state function in the state
          just {e before} the invocation stamped [seq] executed, {b without
          rolling back} — for partially-persistent ADTs such as
          {!Commlat_adts.Union_find_versioned}.  When provided, the general
          gatekeeper uses it instead of the undo/redo sweep, answering the
          paper's future-work question about cheaper general conflict
          detection. *)
  undo : Invocation.t -> unit;
      (** restore the abstract state to just before this invocation ran
          (general gatekeeping only; forward gatekeepers never call it) *)
  redo : Invocation.t -> unit;  (** re-apply an undone invocation *)
  forget : Invocation.t -> unit;
      (** the gatekeeper will never undo this invocation again: drop any
          bookkeeping (e.g. concrete write logs) *)
}

let hooks ?(undo = fun _ -> invalid_arg "gatekeeper: undo unsupported")
    ?(redo = fun _ -> invalid_arg "gatekeeper: redo unsupported")
    ?(forget = fun _ -> ()) ?sfun_at sfun =
  { sfun; sfun_at; undo; redo; forget }

(* ------------------------------------------------------------------ *)

type entry = {
  inv : Invocation.t;
  log : (string * Value.t list, Value.t) Hashtbl.t option;
      (** results of [C_m] functions, keyed by (name, evaluated args);
          [None] for a method whose [C_m] is empty ({!new_entry}) *)
}

module Obs = Commlat_obs.Obs

(* The active entries of one method in one shard.  A bucket, once
   created, lives until [reset]. *)
type bucket = {
  b_meth : int;  (** the method's number ({!meth_idx}) *)
  b_shard : int;  (** the index of the shard holding the bucket *)
  mutable b_entries : entry list;  (** newest first *)
}

(* One slice of the active-invocation table.  An unsharded gatekeeper is a
   single overflow shard; [s_guard] is used only in striped mode (coarse
   mode keeps the gatekeeper-global [mu]). *)
type shard = {
  s_active : (string, bucket) Hashtbl.t;
      (** active invocations, bucketed by method name so that method pairs
          whose condition is [true] (e.g. find/find, nearest/nearest) are
          skipped without touching individual entries *)
  mutable s_n : int;
  s_guard : Guard.t;
  s_held : Guard.t list;  (** [[s_guard]], built once *)
}

(* One s1-function of a method's C_m log set. *)
type logged = {
  fname : string;
  arg_terms : Formula.term list;
  arg_keys : (Invocation.t -> Value.t) list;
      (** [arg_terms] compiled by {!Compile.key} *)
  post_exec : bool;  (** an argument reads the return value *)
}

(* Everything a gatekeeper derives from its spec alone, built once by
   {!plan} and shared by every {!instance} of it.  Read-only after
   construction, so instances on different domains may share one plan. *)
type plan = {
  p_spec : Spec.t;
  p_allow_rollback : bool;
  p_nshards : int;
  p_scope : string;  (** the obs registry's (and detector's) name *)
  p_cm : logged list array;
  p_fp : Footprint.t option;
  p_meths : (string, int) Hashtbl.t;
  p_conds : cond_info array;
  p_false_info : cond_info;
}

and t = {
  spec : Spec.t;
  hooks : hooks;
  allow_rollback : bool;
  cm : logged list array;
      (** C_m: per method number ([meths]), the s1-functions to log *)
  (* footprint sharding: [fp = None] means unsharded ([nshards = 0], a
     single overflow shard, coarse mode); sharded means striped mode.
     [shards] has length [nshards + 1]; the last element is the overflow
     shard for keyless invocations. *)
  fp : Footprint.t option;
  nshards : int;
  shards : shard array;
  shard_guards : Guard.t list;  (** every shard's guard, in creation order *)
  by_txn : (int, bucket list) Hashtbl.t;
      (** per transaction, each bucket holding one of its active entries,
          once; read and written under [mu], so the end of a transaction
          visits only its own buckets *)
  (* per ordered method pair: the condition, its rollback-function set
     and its refusal label, precomputed by the plan so the table is
     read-only at runtime (striped shards, and instances of one plan on
     other domains, evaluate conditions concurrently) *)
  meths : (string, int) Hashtbl.t;
      (** each declared method's number: its row (and column) in [conds]
          and its slot in [cm] *)
  conds : cond_info array;
      (** row-major: [conds.(first * n + second)] for [n] methods *)
  false_info : cond_info;
      (** for methods the spec never mentions; its [pair] is empty *)
  mutable mutation_log : Invocation.t list;
      (** general gatekeepers: mutating invocations, newest first (a
          forward gatekeeper never reconstructs a past state, so it keeps
          none) *)
  mutable seq : int;  (** always stamped under [mu] *)
  mu : Guard.t;
      (** coarse mode: the gatekeeper-global guard.  Striped mode: the
          [exec] guard, serializing only seq stamping, the concrete
          operation and [by_txn]; created {e after} the shard guards so that
          {!Guard.protect_all}'s canonical id order matches the
          shard-then-exec nesting order of {!on_invoke_striped}. *)
  stats_rollbacks : int ref;
  obs : Obs.t;
  c_invocations : Obs.counter;  (** method invocations intercepted *)
  c_checks : Obs.counter;  (** commutativity conditions evaluated *)
  c_conflicts : Obs.counter;  (** conditions that evaluated to false *)
  c_log_hits : Obs.counter;  (** s1-function reads served from the C_m log *)
  c_rb_hits : Obs.counter;  (** s1-function reads served by reconstruction *)
  c_rollbacks : Obs.counter;  (** undo/redo sweeps (= [stats_rollbacks]) *)
  c_sfun_at : Obs.counter;  (** past-state queries on persistent ADTs *)
  d_sweep_depth : Obs.dist;  (** mutations undone per sweep *)
  (* sharding observability (registered only when [nshards > 0]) *)
  c_shard_inserts : Obs.counter;  (** insertions into keyed shards *)
  c_overflow_inserts : Obs.counter;  (** insertions into the overflow shard *)
  c_checks_avoided : Obs.counter;
      (** active entries skipped because they live in other keyed shards *)
  c_per_shard : Obs.counter array;  (** per-shard insertion counters *)
}

and cond_info = {
  check : Compile.check;
  rollback_fns : (string * Formula.term list) list;
      (** s1-functions needing state reconstruction, from
          {!Formula.rollback_functions} *)
  pair : string;
      (** ["first;second"]: a refusal's [abort_cause] label and
          {!Detector.Conflict} reason, formatted once by the plan so
          refusals format nothing *)
}

(* Deduplication goes through a hash set keyed by (method, function):
   the old [List.filter]/[List.mem] version was quadratic in the number of
   logged state functions, which dominated gatekeeper construction for
   specs with many conditions over the same method.  [meths] numbers the
   declared methods. *)
let build_cm (spec : Spec.t) meths =
  let cm = Array.make (Hashtbl.length meths) [] in
  let seen : (string * (string * Formula.term list), unit) Hashtbl.t =
    Hashtbl.create 64
  in
  List.iter
    (fun ((m1, _), cond) ->
      Formula.f1_functions cond
      |> List.iter (fun (fname, arg_terms, _) ->
             if not (Hashtbl.mem seen (m1, (fname, arg_terms))) then begin
               Hashtbl.add seen (m1, (fname, arg_terms)) ();
               let l =
                 {
                   fname;
                   arg_terms;
                   arg_keys = List.map (Compile.key spec) arg_terms;
                   post_exec =
                     List.exists (Formula.term_mentions_ret Formula.M1) arg_terms;
                 }
               in
               let i = Hashtbl.find meths m1 in
               cm.(i) <- l :: cm.(i)
             end))
    (Spec.pairs spec);
  cm

let cond_info_of_check ~pair (check : Compile.check) =
  let rollback_fns =
    match check with
    | Compile.Interp f ->
        Formula.rollback_functions f
        |> List.map (fun (name, args, _) -> (name, args))
    | Compile.Static _ | Compile.Fast _ -> []
  in
  { check; rollback_fns; pair }

(* The number the plan gave a declared method (its row and column in
   [conds], its slot in [cm]), or [-1] if the spec does not declare it. *)
let meth_idx (t : t) name =
  match Hashtbl.find t.meths name with
  | i -> i
  | exception Not_found -> -1

(* The condition table is fully precomputed over the spec's method pairs
   and indexed by method number, so a scan looks a bucket's condition up without
   allocating; an invocation of a method the spec never declared falls
   back to the (sound) [false] entry. *)
let cond_info_at (t : t) ~first ~second =
  if first < 0 || second < 0 then t.false_info
  else t.conds.((first * Hashtbl.length t.meths) + second)

(* Lookups in [e]'s s1-function results, if it has any. *)
let log_find (e : entry) key =
  match e.log with None -> None | Some log -> Hashtbl.find_opt log key

let log_mem (e : entry) key =
  match e.log with None -> false | Some log -> Hashtbl.mem log key

(* The formula-evaluation environment for checking [f_{e.inv, inv2}].
   [rb_cache] holds the pre-evaluated rollback functions (general
   gatekeeping): all of them were computed under a single undo/redo cycle
   by {!eval_rollback_fns}, not one cycle per occurrence. *)
let check_env (t : t) (e : entry) (inv2 : Invocation.t)
    ~(rb_cache : (string * Value.t list, Value.t) Hashtbl.t option) :
    Formula.env =
  let sfun name state (args : Value.t list) (_term : Formula.term) =
    match state with
    | Formula.S2 ->
        (* s2 = the state inv2 runs in; evaluated live.  All example specs
           are s2-free; see DESIGN.md §5 for the mutating-method caveat. *)
        t.hooks.sfun name args
    | Formula.S1 -> (
        match log_find e (name, args) with
        | Some v ->
            Obs.incr t.c_log_hits;
            v
        | None -> (
            match
              Option.bind rb_cache (fun c -> Hashtbl.find_opt c (name, args))
            with
            | Some v ->
                Obs.incr t.c_rb_hits;
                v
            | None ->
                invalid_arg
                  (Fmt.str
                     "forward gatekeeper: %s not in log of %a (condition not \
                      ONLINE-CHECKABLE?)"
                     name Invocation.pp e.inv)))
  in
  Invocation.env ~sfun ~vfun:(Spec.vfun t.spec) e.inv inv2

(* Pure two-invocation environment for evaluating the (state-free) argument
   terms of rollback functions. *)
let pure_env (t : t) (e : entry) (inv2 : Invocation.t) : Formula.env =
  Invocation.env
    ~sfun:(fun name _ _ _ -> raise (Formula.Unsupported name))
    ~vfun:(Spec.vfun t.spec) e.inv inv2

(* For every (entry, cond_info) pair whose condition contains rollback
   functions, evaluate those functions at the entry's pre-state [s1] in ONE
   reverse-chronological sweep over the mutation log: walk backwards in
   time undoing mutations, pausing at each entry's sequence point to
   evaluate its functions, then redo everything forwards.  This batching —
   one undo/redo cycle per incoming invocation instead of one per (entry,
   function) pair — is the same trick the paper's union-find gatekeeper
   uses ("undoes the effects of all potentially interfering calls to
   union, and re-executes find"). *)
let rollback_sweep (t : t) (inv2 : Invocation.t)
    (needs_check : (entry * cond_info) list) :
    (int, (string * Value.t list, Value.t) Hashtbl.t) Hashtbl.t =
  let caches = Hashtbl.create 8 in
  (match t.hooks.sfun_at with
  | Some sfun_at when t.allow_rollback ->
      (* partially-persistent ADT: past states are queried directly *)
      List.iter
        (fun ((e : entry), (info : cond_info)) ->
          match info.rollback_fns with
          | [] -> ()
          | fns ->
              let env = pure_env t e inv2 in
              let cache = Hashtbl.create 4 in
              List.iter
                (fun (name, arg_terms) ->
                  let args = List.map (Formula.eval_term env) arg_terms in
                  if
                    (not (log_mem e (name, args)))
                    && not (Hashtbl.mem cache (name, args))
                  then begin
                    Obs.incr t.c_sfun_at;
                    Hashtbl.replace cache (name, args)
                      (sfun_at e.inv.Invocation.seq name args)
                  end)
                fns;
              if Hashtbl.length cache > 0 then
                Hashtbl.replace caches e.inv.Invocation.uid cache)
        needs_check
  | _ ->
  if t.allow_rollback then
     let items =
       List.filter_map
         (fun ((e : entry), (info : cond_info)) ->
           match info.rollback_fns with
           | [] -> None
           | fns ->
               let env = pure_env t e inv2 in
               let wanted =
                 List.map
                   (fun (name, arg_terms) ->
                     (name, List.map (Formula.eval_term env) arg_terms))
                   fns
                 |> List.sort_uniq compare
                 |> List.filter (fun (name, args) -> not (log_mem e (name, args)))
               in
               if wanted = [] then None else Some (e, wanted))
         needs_check
       |> List.sort (fun ((e1 : entry), _) ((e2 : entry), _) ->
              Int.compare e2.inv.Invocation.seq e1.inv.Invocation.seq)
       (* newest first: we undo progressively further into the past *)
     in
     if items <> [] then begin
       incr t.stats_rollbacks;
       Obs.incr t.c_rollbacks;
       let undone = ref [] (* oldest-undone first, i.e. redo order *) in
       let log = ref t.mutation_log (* newest first *) in
       Fun.protect
         ~finally:(fun () ->
           Obs.observe t.d_sweep_depth (List.length !undone);
           List.iter t.hooks.redo !undone)
         (fun () ->
           List.iter
             (fun ((e : entry), wanted) ->
               let rec undo_to () =
                 match !log with
                 | m :: rest when m.Invocation.seq >= e.inv.Invocation.seq ->
                     t.hooks.undo m;
                     undone := m :: !undone;
                     log := rest;
                     undo_to ()
                 | _ -> ()
               in
               undo_to ();
               let cache = Hashtbl.create 4 in
               List.iter
                 (fun (name, args) ->
                   Hashtbl.replace cache (name, args) (t.hooks.sfun name args))
                 wanted;
               Hashtbl.replace caches e.inv.Invocation.uid cache)
             items)
     end);
  caches

(* The [C_m] of method number [m]; an undeclared method ([-1]) logs
   nothing. *)
let cm_of (t : t) m = if m < 0 then [] else t.cm.(m)

(* An active-table entry for [inv], of method number [m].  Only a method
   with logged s1-functions (a non-empty [C_m]) gets a log; a striped
   spec has none. *)
let new_entry (t : t) m (inv : Invocation.t) =
  { inv; log = (match cm_of t m with [] -> None | _ -> Some (Hashtbl.create 4)) }

let populate_log (t : t) m (entry : entry) ~post_exec =
  match entry.log with
  | None -> ()
  | Some log ->
      List.iter
        (fun l ->
          if l.post_exec = post_exec then
            let args = List.map (fun k -> k entry.inv) l.arg_keys in
            if not (Hashtbl.mem log (l.fname, args)) then
              Hashtbl.replace log (l.fname, args) (t.hooks.sfun l.fname args))
        (cm_of t m)

(* ------------------------------------------------------------------ *)
(* Shard plumbing                                                      *)
(* ------------------------------------------------------------------ *)

let overflow_idx t = t.nshards

(* The shard an invocation's entry lives in.  Keyless methods (and every
   method of an unsharded gatekeeper) go to the overflow shard.  Key terms
   never mention the return value, so this is computable before [exec]. *)
let shard_idx (t : t) (inv : Invocation.t) =
  match t.fp with
  | None -> overflow_idx t
  | Some fp -> Footprint.shard fp ~nshards:t.nshards inv

(* The shard guards a striped invocation routed to [idx] holds: its own
   shard's, or every one for a keyless invocation (an overflow mutator). *)
let held_guards (t : t) idx =
  if idx < overflow_idx t then t.shards.(idx).s_held else t.shard_guards

let n_active t = Array.fold_left (fun acc sh -> acc + sh.s_n) 0 t.shards

(* Insert an entry of method number [m] into shard [idx]; returns the
   entry's bucket. *)
let insert_entry (t : t) idx m entry =
  let sh = t.shards.(idx) in
  let name = entry.inv.Invocation.meth.name in
  let bucket =
    match Hashtbl.find sh.s_active name with
    | b -> b
    | exception Not_found ->
        let b = { b_meth = m; b_shard = idx; b_entries = [] } in
        Hashtbl.add sh.s_active name b;
        b
  in
  bucket.b_entries <- entry :: bucket.b_entries;
  sh.s_n <- sh.s_n + 1;
  if t.nshards > 0 then begin
    if idx = overflow_idx t then Obs.incr t.c_overflow_inserts
    else Obs.incr t.c_shard_inserts;
    Obs.incr t.c_per_shard.(idx)
  end;
  bucket

let rec has_bucket b = function
  | [] -> false
  | b' :: rest -> b' == b || has_bucket b rest

(* Record that [txn] has an entry in [bucket] (caller holds [mu]). *)
let index_bucket (t : t) txn bucket =
  match Hashtbl.find t.by_txn txn with
  | mine ->
      if not (has_bucket bucket mine) then
        Hashtbl.replace t.by_txn txn (bucket :: mine)
  | exception Not_found -> Hashtbl.add t.by_txn txn [ bucket ]

let remove_entry (sh : shard) bucket entry =
  bucket.b_entries <- List.filter (fun e -> e != entry) bucket.b_entries;
  sh.s_n <- sh.s_n - 1

(* Entries a keyed incoming invocation skipped: everything active in
   keyed shards other than its own.  The [s_n] reads on unheld shards are
   benignly racy (plain int loads feeding a counter). *)
let record_avoided (t : t) idx =
  if idx < overflow_idx t then begin
    let avoided = ref 0 in
    for i = 0 to overflow_idx t - 1 do
      if i <> idx then avoided := !avoided + t.shards.(i).s_n
    done;
    if !avoided > 0 then Obs.add t.c_checks_avoided !avoided
  end

(* ------------------------------------------------------------------ *)
(* Construction                                                        *)
(* ------------------------------------------------------------------ *)

(* The spec stage: validation and every table derived from the spec. *)
let plan ?(nshards = 0) ~allow_rollback spec =
  (match Spec.classify spec with
  | Formula.General when not allow_rollback ->
      invalid_arg
        (Fmt.str
           "forward gatekeeper: spec %s has non-ONLINE-CHECKABLE \
            conditions; use a general gatekeeper (~allow_rollback:true)"
           (Spec.adt spec))
  | _ -> ());
  if nshards < 0 then invalid_arg "Gatekeeper: nshards must be >= 0";
  let sharded = nshards > 0 in
  if
    sharded
    && (allow_rollback
       || not
            (List.for_all
               (fun (_, cond) -> Formula.is_state_free cond)
               (Spec.pairs spec)))
  then
    invalid_arg
      (Fmt.str
         "Gatekeeper: spec %s cannot be sharded (only a forward gatekeeper \
          over state-free conditions can)"
         (Spec.adt spec));
  let cspec = Compile.of_spec spec in
  let false_info = cond_info_of_check ~pair:"" (Compile.Static false) in
  let meths = Hashtbl.create 8 in
  List.iter
    (fun (m : Invocation.meth) ->
      if not (Hashtbl.mem meths m.name) then
        Hashtbl.add meths m.name (Hashtbl.length meths))
    (Spec.methods spec);
  let n = Hashtbl.length meths in
  let conds = Array.make (n * n) false_info in
  Hashtbl.iter
    (fun first i ->
      Hashtbl.iter
        (fun second j ->
          conds.((i * n) + j) <-
            cond_info_of_check ~pair:(first ^ ";" ^ second)
              (Compile.condition cspec ~first ~second))
        meths)
    meths;
  {
    p_spec = spec;
    p_allow_rollback = allow_rollback;
    p_nshards = nshards;
    p_scope =
      Fmt.str "%s-gk%s(%s)"
        (if allow_rollback then "gen" else "fwd")
        (if sharded then "-sharded" else "")
        (Spec.adt spec);
    p_cm = build_cm spec meths;
    p_fp = (if sharded then Some (Footprint.analyze spec) else None);
    p_meths = meths;
    p_conds = conds;
    p_false_info = false_info;
  }

(* The instance stage: every piece of mutable state, fresh per call. *)
let create (p : plan) ?obs:obs_enabled hooks =
  let nshards = p.p_nshards in
  let obs = Obs.create ?enabled:obs_enabled p.p_scope in
  let fresh_shard () =
    let g = Guard.create () in
    { s_active = Hashtbl.create 8; s_n = 0; s_guard = g; s_held = [ g ] }
  in
  (* shard guards first, [mu] last: protect_all's canonical (creation-id)
     order then agrees with the shard-guard-then-exec-guard nesting of the
     striped invoke path, ruling out deadlock against atomic aborts *)
  let shards = Array.init (nshards + 1) (fun _ -> fresh_shard ()) in
  let shard_guards = Array.to_list (Array.map (fun s -> s.s_guard) shards) in
  let mu = Guard.create () in
  {
    spec = p.p_spec;
    hooks;
    allow_rollback = p.p_allow_rollback;
    cm = p.p_cm;
    fp = p.p_fp;
    nshards;
    shards;
    shard_guards;
    by_txn = Hashtbl.create 16;
    meths = p.p_meths;
    conds = p.p_conds;
    false_info = p.p_false_info;
    mutation_log = [];
    seq = 0;
    mu;
    stats_rollbacks = ref 0;
    obs;
    c_invocations = Obs.counter obs "invocations";
    c_checks = Obs.counter obs "checks";
    c_conflicts = Obs.counter obs "conflicts";
    c_log_hits = Obs.counter obs "log_hits";
    c_rb_hits = Obs.counter obs "rollback_hits";
    c_rollbacks = Obs.counter obs "rollbacks";
    c_sfun_at = Obs.counter obs "sfun_at_queries";
    d_sweep_depth = Obs.dist obs "sweep_depth";
    c_shard_inserts = Obs.counter obs "shard_inserts";
    c_overflow_inserts = Obs.counter obs "overflow_inserts";
    c_checks_avoided = Obs.counter obs "checks_avoided";
    c_per_shard =
      (if nshards > 0 then
         Array.init (nshards + 1) (fun i ->
             Obs.counter obs
               (if i = nshards then "shard_overflow_inserts"
                else Fmt.str "shard_%02d_inserts" i))
       else [||]);
  }

(* ------------------------------------------------------------------ *)
(* Invocation: coarse (single-guard) path                              *)
(* ------------------------------------------------------------------ *)

(* Refuse [inv] because [e]'s condition [info] failed.  The reason is the
   method pair, formatted by the plan; [false_info] is shared by every
   undeclared pair, so its refusals are formatted each time. *)
let raise_conflict (t : t) (info : cond_info) (e : entry) (inv : Invocation.t) =
  let pair =
    if info != t.false_info then info.pair
    else e.inv.Invocation.meth.name ^ ";" ^ inv.Invocation.meth.name
  in
  Obs.incr t.c_conflicts;
  Obs.label t.obs ~cat:"abort_cause" pair;
  if t.allow_rollback then begin
    (* Erase the refused invocation before the guard releases: nothing has
       run since its [exec], so replaying its write log is an exact LIFO
       restore.  It leaves the mutation log too (it never happened), and
       forgetting its log makes the transaction rollback's own undo closure
       for it a no-op. *)
    t.hooks.undo inv;
    t.mutation_log <-
      List.filter
        (fun (m : Invocation.t) -> m.uid <> inv.Invocation.uid)
        t.mutation_log;
    t.hooks.forget inv
  end;
  Detector.conflict ~txn:inv.Invocation.txn ~with_:e.inv.Invocation.txn pair

(* Check [inv] against the entries of other transactions in one bucket,
   whose condition is [info]; raises on the first refusal. *)
let rec check_entries (t : t) info (inv : Invocation.t) = function
  | [] -> ()
  | (e : entry) :: rest ->
      if e.inv.Invocation.txn <> inv.Invocation.txn then begin
        Obs.incr t.c_checks;
        let ok =
          match info.check with
          | Compile.Static b -> b
          | Compile.Fast f -> f e.inv inv
          | Compile.Interp f -> Formula.eval (check_env t e inv ~rb_cache:None) f
        in
        if not ok then raise_conflict t info e inv
      end;
      check_entries t info inv rest

(* Check [inv] against one shard; [second] is its method's index. *)
let scan_shard (t : t) ~second (inv : Invocation.t) (sh : shard) =
  if sh.s_n > 0 then
    Hashtbl.iter
      (fun _ b ->
        let info = cond_info_at t ~first:b.b_meth ~second in
        match info.check with
        | Compile.Static true -> ()
        | _ -> check_entries t info inv b.b_entries)
      sh.s_active

(* Batch log scan: check one {e executed} incoming invocation against
   every active invocation it can conflict with — its own shard plus the
   overflow shard when keyed (the footprint's shard-disjointness
   discharges every other keyed shard), all shards otherwise — in a
   single pass, bucket by bucket, allocating nothing but one iterator per
   non-empty shard; empty shards are skipped whole.  Trivially
   [true] conditions skip whole buckets; state-free conditions go through
   their zero-environment checker.  Only valid when no condition needs
   state reconstruction against this gatekeeper's log (forward mode /
   striped mode — the general path batches differently, via
   {!rollback_sweep}).  [second] is [inv]'s method number.  The caller
   holds the relevant guards: [mu] in coarse mode, the {!held_guards} of
   [idx] in striped mode. *)
let scan_active_idx (t : t) idx ~second (inv : Invocation.t) =
  let ov = overflow_idx t in
  if idx = ov then
    for i = 0 to ov do
      scan_shard t ~second inv t.shards.(i)
    done
  else begin
    scan_shard t ~second inv t.shards.(idx);
    scan_shard t ~second inv t.shards.(ov)
  end

(* Coarse mode is unsharded: [t.shards] is the one overflow shard. *)
let on_invoke_coarse (t : t) (inv : Invocation.t) exec =
  Guard.protect t.mu (fun () ->
      Obs.incr t.c_invocations;
      t.seq <- t.seq + 1;
      inv.Invocation.seq <- t.seq;
      (* one method-number lookup serves the log, the bucket and the scan *)
      let m = meth_idx t inv.Invocation.meth.name in
      let entry = new_entry t m inv in
      (* Functions of s1 that need only the arguments are evaluated in the
         pre-state (s1 is the state the method is invoked in)... *)
      populate_log t m entry ~post_exec:false;
      let r = exec () in
      inv.Invocation.ret <- r;
      if t.allow_rollback && inv.Invocation.meth.rollback_log then
        t.mutation_log <- inv :: t.mutation_log;
      (* ... and ret-dependent ones after it returns (valid for read-only
         methods such as [nearest]; see Spec docs). *)
      populate_log t m entry ~post_exec:true;
      let idx = overflow_idx t in
      let insert () = index_bucket t inv.Invocation.txn (insert_entry t idx m entry) in
      (* The method has already executed; if a condition fails below, the
         transaction is doomed, but its rollback runs later, outside this
         guard.  Until then no concurrent invocation may observe the
         refused invocation's own mutation: it is about to be undone, and
         worse, writes {e derived} from it (a find compressing across a
         doomed attach edge) would survive the owner's rollback and leave
         the structure in a state matching no history at all.  A {b
         general} gatekeeper has undo hooks, so it erases the refused
         invocation's effects right here, before raising (see
         {!raise_conflict}) — nothing lingers and nothing extra needs
         protecting.  A {b forward} gatekeeper cannot undo, so instead it
         makes the refused invocation visible: the entry goes into the
         active table BEFORE the checks (it is filtered out of its own),
         and until [on_abort] removes it concurrent transactions are
         admitted only if they commute with it, exactly as they are against
         the transaction's earlier invocations. *)
      if not t.allow_rollback then insert ();
      (* Check against every active invocation of other transactions,
         bucketed by method so trivially-true conditions skip whole
         buckets.  First collect the entries whose condition needs state
         reconstruction, so all their rollback functions are evaluated in
         a single reverse-chronological sweep (the paper's union-find
         gatekeeper batches its rollback the same way). *)
      if not t.allow_rollback then
        (* Forward mode never reconstructs state, so the scan is a single
           batch pass — no intermediate list. *)
        scan_active_idx t idx ~second:m inv
      else begin
        let needs_check = ref [] in
        Hashtbl.iter
          (fun _ b ->
            let info = cond_info_at t ~first:b.b_meth ~second:m in
            match info.check with
            | Compile.Static true -> ()
            | _ ->
                List.iter
                  (fun (e : entry) ->
                    if e.inv.Invocation.txn <> inv.Invocation.txn then
                      needs_check := (e, info) :: !needs_check)
                  b.b_entries)
          t.shards.(idx).s_active;
        (* the sweep's table, only when some entry has a condition with
           rollback functions *)
        let rb_caches =
          if
            List.exists
              (fun (_, (info : cond_info)) -> info.rollback_fns <> [])
              !needs_check
          then Some (rollback_sweep t inv !needs_check)
          else None
        in
        List.iter
          (fun ((e : entry), info) ->
            Obs.incr t.c_checks;
            let ok =
              match info.check with
              | Compile.Static b -> b
              | Compile.Fast f -> f e.inv inv
              | Compile.Interp f ->
                  let rb_cache =
                    match rb_caches with
                    | None -> None
                    | Some c -> Hashtbl.find_opt c e.inv.Invocation.uid
                  in
                  Formula.eval (check_env t e inv ~rb_cache) f
            in
            if not ok then raise_conflict t info e inv)
          !needs_check
      end;
      if t.allow_rollback then insert ();
      r)

(* ------------------------------------------------------------------ *)
(* Invocation: striped path                                            *)
(* ------------------------------------------------------------------ *)

(* Per-shard guards.  A keyed invocation holds only its own shard's guard;
   a keyless one holds every shard guard.  The overflow shard can be read
   under any single shard guard, because every overflow {e mutator} — a
   keyless insert, the end of a transaction holding an overflow entry, or
   [reset] — holds all the shard guards, including the reader's.  The
   concrete [exec], seq stamping and the transaction index are serialized
   under [t.mu], nested innermost; [t.mu] was created after the shard
   guards, so this nesting agrees with {!Guard.protect_all}'s canonical
   order and atomic aborts cannot deadlock against invocations.

   Soundness of the insert-BEFORE-exec protocol: while an invocation holds
   its shard guard(s), no other invocation that could conflict with it can
   be anywhere inside its own insert/exec/check section (they share a
   guard), so every entry it observes is complete (executed, earlier seq)
   and every pair of potentially conflicting invocations is checked by
   whichever of the two entered its guarded section last. *)
let on_invoke_striped (t : t) (inv : Invocation.t) exec =
  Obs.incr t.c_invocations;
  let idx = shard_idx t inv in
  let m = meth_idx t inv.Invocation.meth.name in
  Guard.protect_all (held_guards t idx) (fun () ->
      let entry = new_entry t m inv in
      let bucket = insert_entry t idx m entry in
      let r =
        try
          Guard.protect t.mu (fun () ->
              t.seq <- t.seq + 1;
              inv.Invocation.seq <- t.seq;
              let r = exec () in
              inv.Invocation.ret <- r;
              index_bucket t inv.Invocation.txn bucket;
              r)
        with e ->
          (* a raising [exec] is an ADT/operator failure, not a conflict:
             withdraw the entry so the table only ever holds invocations
             that actually ran *)
          remove_entry t.shards.(idx) bucket entry;
          raise e
      in
      record_avoided t idx;
      (* conditions are state-free: one batch pass, no logs, no sweeps *)
      scan_active_idx t idx ~second:m inv;
      r)

let on_invoke (t : t) (inv : Invocation.t) exec =
  if t.nshards > 0 then on_invoke_striped t inv exec else on_invoke_coarse t inv exec

(* Zero-insertion admission: the invoke protocol minus the insert.  Run
   [exec] and stamp [inv.ret] under the guards an invocation of [inv]'s
   shard would hold, then scan.  Nothing enters the table, so a passing
   scan leaves nothing for a commit to drop. *)
let batch_check (t : t) (inv : Invocation.t) exec =
  let idx = shard_idx t inv in
  let second = meth_idx t inv.Invocation.meth.name in
  let run () =
    let r = exec () in
    inv.Invocation.ret <- r;
    r
  in
  if t.nshards > 0 then
    Guard.protect_all (held_guards t idx) (fun () ->
        let r = Guard.protect t.mu run in
        scan_active_idx t idx ~second inv;
        r)
  else
    Guard.protect t.mu (fun () ->
        let r = run () in
        scan_active_idx t idx ~second inv;
        r)

(* ------------------------------------------------------------------ *)
(* End of transaction                                                  *)
(* ------------------------------------------------------------------ *)

let prune (t : t) =
  if n_active t = 0 then (
    List.iter t.hooks.forget t.mutation_log;
    t.mutation_log <- [])
  else begin
    let min_seq = ref max_int in
    Array.iter
      (fun (sh : shard) ->
        Hashtbl.iter
          (fun _ b ->
            List.iter
              (fun e -> if e.inv.Invocation.seq < !min_seq then min_seq := e.inv.Invocation.seq)
              b.b_entries)
          sh.s_active)
      t.shards;
    let keep, drop =
      List.partition (fun (i : Invocation.t) -> i.seq >= !min_seq) t.mutation_log
    in
    List.iter t.hooks.forget drop;
    t.mutation_log <- keep
  end

(* An entry leaves the active table.  A forward gatekeeper never
   reconstructs a past state, so it [forget]s a dropped mutation right
   here; a general one keeps it in [mutation_log] for later sweeps. *)
let retire (t : t) e =
  if (not t.allow_rollback) && e.inv.Invocation.meth.rollback_log then
    t.hooks.forget e.inv

(* Unlink a transaction's buckets from the index (caller holds [mu]). *)
let take_buckets (t : t) txn =
  match Hashtbl.find t.by_txn txn with
  | mine ->
      Hashtbl.remove t.by_txn txn;
      mine
  | exception Not_found -> []

(* The shard guards covering a transaction's buckets: their shards'
   guards, or every shard guard if one is in the overflow shard, as for
   every overflow mutator.  The usual case is one bucket in a keyed
   shard. *)
let bucket_guards (t : t) mine =
  match mine with
  | [ b ] when b.b_shard < overflow_idx t -> t.shards.(b.b_shard).s_held
  | _ ->
      if List.exists (fun b -> b.b_shard = overflow_idx t) mine then t.shard_guards
      else List.map (fun b -> t.shards.(b.b_shard).s_guard) mine

(* The guards [txn]'s invocations held, which its abort takes
   ({!Detector.t.txn_guards}).  Coarse: [mu], answered without taking
   it, so an abort's only acquisition is [mu] (the explorer's schedules
   are built from guard acquisitions).  Striped: [mu], for the
   rollback's concrete writes, plus the guards of the shards holding
   [txn]'s entries, read from the index under [mu].  Only [txn]'s own
   domain adds to its index entry, so the answer stays right until its
   abort has taken these guards. *)
let txn_guards (t : t) txn =
  if t.nshards = 0 then [ t.mu ]
  else
    let mine =
      Guard.protect t.mu (fun () ->
          Option.value ~default:[] (Hashtbl.find_opt t.by_txn txn))
    in
    t.mu :: bucket_guards t mine

(* [entries] without [txn]'s, which are retired and uncounted from [sh];
   the list after the last of them is kept, not copied. *)
let rec drop_txn (t : t) (sh : shard) txn = function
  | [] -> []
  | (e : entry) :: rest when e.inv.Invocation.txn = txn ->
      retire t e;
      sh.s_n <- sh.s_n - 1;
      drop_txn t sh txn rest
  | e :: rest as l ->
      let rest' = drop_txn t sh txn rest in
      if rest' == rest then l else e :: rest'

(* Remove [txn]'s entries from its taken buckets, one pass per bucket
   (caller holds their shards' guards). *)
let rec drop_entries (t : t) txn = function
  | [] -> ()
  | b :: rest ->
      b.b_entries <- drop_txn t t.shards.(b.b_shard) txn b.b_entries;
      drop_entries t txn rest

(* End-of-transaction bookkeeping (paper §3.3: the transaction's active
   invocations and logs go).  The index names the buckets holding the
   transaction's entries, so nothing else is visited: a striped gatekeeper
   takes them under [mu], then filters them holding only their shards'
   guards — every shard guard if one is in the overflow shard, as for
   every overflow mutator.  For a general gatekeeper [drop_mutations]
   distinguishes abort from commit: an {e aborted} transaction's mutations
   were just undone by its rollback, so they leave the log (they never
   happened); a {e committed} transaction's mutations are history and MUST
   stay — under true concurrency an older transaction's invocation can
   still be active, and reconstructing its pre-state [s1] requires undoing
   every later mutation, committed or not.  [prune] retires committed
   entries once no active invocation predates them.  A forward gatekeeper,
   coarse or striped, forgets its mutations with their entries, commit or
   abort (an abort's rollback has already run by the time [on_abort] gets
   here). *)
let on_end ~drop_mutations (t : t) txn =
  if t.nshards > 0 then begin
    match Guard.protect t.mu (fun () -> take_buckets t txn) with
    | [] -> ()
    | mine ->
        Guard.protect_all (bucket_guards t mine) (fun () ->
            drop_entries t txn mine)
  end
  else
    Guard.protect t.mu (fun () ->
      drop_entries t txn (take_buckets t txn);
      if t.allow_rollback then begin
        if drop_mutations then
          t.mutation_log <-
            (let keep, drop =
               List.partition (fun (i : Invocation.t) -> i.txn <> txn) t.mutation_log
             in
             List.iter t.hooks.forget drop;
             keep);
        prune t
      end)

let rollback_count (t : t) = !(t.stats_rollbacks)
let obs (t : t) = t.obs
let footprint (t : t) = t.fp

(** The [C_m] log set of a method: the s1-functions whose results the
    gatekeeper records on every invocation of [m] (exposed so tests can pin
    the construction; order is unspecified). *)
let cm_functions (t : t) m =
  List.map (fun l -> (l.fname, l.arg_terms)) (cm_of t (meth_idx t m))

let all_guards (t : t) = if t.nshards > 0 then t.shard_guards @ [ t.mu ] else [ t.mu ]

let active_count (t : t) =
  Guard.protect_all (all_guards t) (fun () -> n_active t)

let detector (t : t) : Detector.t =
  {
    Detector.name = Obs.scope t.obs;
    on_invoke = (fun inv exec -> on_invoke t inv exec);
    on_commit = (fun txn -> on_end ~drop_mutations:false t txn);
    on_abort = (fun txn -> on_end ~drop_mutations:true t txn);
    reset =
      (fun () ->
        Guard.protect_all (all_guards t) (fun () ->
            Array.iter
              (fun (sh : shard) ->
                Hashtbl.iter
                  (fun _ b -> List.iter (retire t) b.b_entries)
                  sh.s_active;
                Hashtbl.reset sh.s_active;
                sh.s_n <- 0)
              t.shards;
            Hashtbl.reset t.by_txn;
            List.iter t.hooks.forget t.mutation_log;
            t.mutation_log <- []));
    snapshot = (fun () -> Obs.snapshot t.obs);
    guards = all_guards t;
    txn_guards = (fun txn -> txn_guards t txn);
  }

let instance ?obs (p : plan) ~hooks : Detector.t * t =
  let t = create p ?obs hooks in
  (detector t, t)

(** Forward ([~allow_rollback:false], paper §3.3.1) or general
    ([~allow_rollback:true], §3.3.2) gatekeeper, footprint-sharded and
    striped when [nshards > 0]. *)
let make ?nshards ?obs ~allow_rollback ~hooks spec : Detector.t * t =
  instance ?obs (plan ?nshards ~allow_rollback spec) ~hooks
