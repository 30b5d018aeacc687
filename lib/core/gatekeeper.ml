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
    incoming invocation is checked against every shard.  When the spec
    needs no rollback and every condition is state-free, the shards are
    additionally {e striped}: each shard has its own {!Guard.t}, so
    same-ADT-different-key invocations no longer serialize on one
    gatekeeper mutex (only the concrete [exec] is briefly serialized,
    under a dedicated guard). *)

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
  log : (string * Value.t list, Value.t) Hashtbl.t;
      (** results of [C_m] functions, keyed by (name, evaluated args) *)
}

module Obs = Commlat_obs.Obs

(* One slice of the active-invocation table.  An unsharded gatekeeper is a
   single overflow shard; [s_guard] and [s_muts] are used only in striped
   mode (coarse mode keeps the gatekeeper-global [mu] and [mutation_log]). *)
type shard = {
  s_active : (string, entry list ref) Hashtbl.t;
      (** active invocations, bucketed by method name so that method pairs
          whose condition is [true] (e.g. find/find, nearest/nearest) are
          skipped without touching individual entries *)
  mutable s_n : int;
  mutable s_muts : Invocation.t list;
      (** striped mode: this shard's mutating invocations, newest first —
          only ever [forget]-bookkeeping, dropped when their transaction
          ends (striped gatekeepers never reconstruct past states) *)
  s_guard : Guard.t;
}

(* One s1-function of a method's C_m log set. *)
type logged = {
  fname : string;
  arg_terms : Formula.term list;
  arg_keys : (Invocation.t -> Value.t) list;
      (** [arg_terms] compiled by {!Compile.key} *)
  post_exec : bool;  (** an argument reads the return value *)
}

type t = {
  spec : Spec.t;
  hooks : hooks;
  allow_rollback : bool;
  cm : (string, logged list) Hashtbl.t;
      (** C_m: per method, the s1-functions to log *)
  (* footprint sharding: [fp = None] means unsharded ([nshards = 0], a
     single overflow shard).  [shards] has length [nshards + 1]; the last
     element is the overflow shard for keyless invocations. *)
  fp : Footprint.t option;
  nshards : int;
  shards : shard array;
  striped : bool;
      (** per-shard guards; requires [not allow_rollback] and every
          condition state-free (no [Sfun]), so checks need no logs, no
          live [sfun] and no state reconstruction *)
  (* per ordered method pair: the condition and its rollback-function set,
     precomputed at construction so the table is read-only at runtime
     (striped shards evaluate conditions concurrently) *)
  cond_info : (string * string, cond_info) Hashtbl.t;
  false_info : cond_info;  (** for methods the spec never mentions *)
  mutable mutation_log : Invocation.t list;
      (** coarse mode: mutating invocations, newest first *)
  mutable seq : int;  (** always stamped under [mu] *)
  mu : Guard.t;
      (** coarse mode: the gatekeeper-global guard.  Striped mode: the
          [exec] guard, serializing only seq stamping + the concrete
          operation; created {e after} the shard guards so that
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
}

(* Deduplication goes through a hash set keyed by (method, function):
   the old [List.filter]/[List.mem] version was quadratic in the number of
   logged state functions, which dominated gatekeeper construction for
   specs with many conditions over the same method. *)
let build_cm (spec : Spec.t) =
  let cm = Hashtbl.create 16 in
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
               Hashtbl.replace cm m1
                 (l :: Option.value ~default:[] (Hashtbl.find_opt cm m1))
             end))
    (Spec.pairs spec);
  cm

let cond_info_of_check (check : Compile.check) =
  let rollback_fns =
    match check with
    | Compile.Interp f ->
        Formula.rollback_functions f
        |> List.map (fun (name, args, _) -> (name, args))
    | Compile.Static _ | Compile.Fast _ -> []
  in
  { check; rollback_fns }

(* The condition table is fully precomputed over the spec's method pairs;
   an invocation of a method the spec never declared falls back to the
   (sound) [false] entry. *)
let cond_info_of (t : t) ~first ~second =
  match Hashtbl.find_opt t.cond_info (first, second) with
  | Some i -> i
  | None -> t.false_info

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
        match Hashtbl.find_opt e.log (name, args) with
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
                    (not (Hashtbl.mem e.log (name, args)))
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
                 |> List.filter (fun (name, args) ->
                        not (Hashtbl.mem e.log (name, args)))
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

let populate_log (t : t) (entry : entry) ~post_exec =
  let fns = Option.value ~default:[] (Hashtbl.find_opt t.cm entry.inv.Invocation.meth.name) in
  List.iter
    (fun l ->
      if l.post_exec = post_exec then
        let args = List.map (fun k -> k entry.inv) l.arg_keys in
        if not (Hashtbl.mem entry.log (l.fname, args)) then
          Hashtbl.replace entry.log (l.fname, args) (t.hooks.sfun l.fname args))
    fns

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
  | Some fp -> (
      match Footprint.shard_of fp ~nshards:t.nshards inv with
      | Some i -> i
      | None -> overflow_idx t)

(* The shards an incoming invocation must be checked against: its own plus
   the overflow shard (keyed), or everything (keyless/unsharded). *)
let scan_shards (t : t) idx =
  if idx = overflow_idx t then Array.to_list t.shards
  else [ t.shards.(idx); t.shards.(overflow_idx t) ]

let n_active t = Array.fold_left (fun acc sh -> acc + sh.s_n) 0 t.shards

let insert_entry (t : t) (sh : shard) entry =
  let name = entry.inv.Invocation.meth.name in
  let bucket =
    match Hashtbl.find_opt sh.s_active name with
    | Some b -> b
    | None ->
        let b = ref [] in
        Hashtbl.add sh.s_active name b;
        b
  in
  bucket := entry :: !bucket;
  sh.s_n <- sh.s_n + 1;
  if t.nshards > 0 then begin
    if sh == t.shards.(overflow_idx t) then Obs.incr t.c_overflow_inserts
    else Obs.incr t.c_shard_inserts;
    match t.c_per_shard with [||] -> () | a -> Obs.incr a.(shard_idx t entry.inv)
  end

let remove_entry (sh : shard) entry =
  match Hashtbl.find_opt sh.s_active entry.inv.Invocation.meth.name with
  | None -> ()
  | Some bucket ->
      let before = List.length !bucket in
      bucket := List.filter (fun e -> e != entry) !bucket;
      sh.s_n <- sh.s_n - (before - List.length !bucket)

(* Entries an incoming invocation skipped: everything active in keyed
   shards other than the scanned ones.  In striped mode the [s_n] reads on
   unheld shards are benignly racy (plain int loads feeding a counter). *)
let record_avoided (t : t) idx =
  if t.nshards > 0 && idx < overflow_idx t then begin
    let avoided = ref 0 in
    Array.iteri
      (fun i sh -> if i < overflow_idx t && i <> idx then avoided := !avoided + sh.s_n)
      t.shards;
    if !avoided > 0 then Obs.add t.c_checks_avoided !avoided
  end

(* ------------------------------------------------------------------ *)
(* Construction                                                        *)
(* ------------------------------------------------------------------ *)

let create ~nshards ?obs:obs_enabled ~allow_rollback hooks spec =
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
  let striped =
    sharded && (not allow_rollback)
    && List.for_all (fun (_, cond) -> Formula.is_state_free cond) (Spec.pairs spec)
  in
  let obs =
    Obs.create ?enabled:obs_enabled
      (Fmt.str "%s-gk%s(%s)"
         (if allow_rollback then "gen" else "fwd")
         (if sharded then "-sharded" else "")
         (Spec.adt spec))
  in
  let fresh_shard () =
    { s_active = Hashtbl.create 8; s_n = 0; s_muts = []; s_guard = Guard.create () }
  in
  (* shard guards first, [mu] last: protect_all's canonical (creation-id)
     order then agrees with the shard-guard-then-exec-guard nesting of the
     striped invoke path, ruling out deadlock against atomic aborts *)
  let shards = Array.init (nshards + 1) (fun _ -> fresh_shard ()) in
  let mu = Guard.create () in
  let cspec = Compile.of_spec spec in
  let cond_info = Hashtbl.create 32 in
  List.iter
    (fun (m1 : Invocation.meth) ->
      List.iter
        (fun (m2 : Invocation.meth) ->
          Hashtbl.replace cond_info (m1.name, m2.name)
            (cond_info_of_check
               (Compile.condition cspec ~first:m1.name ~second:m2.name)))
        (Spec.methods spec))
    (Spec.methods spec);
  {
    spec;
    hooks;
    allow_rollback;
    cm = build_cm spec;
    fp = (if sharded then Some (Footprint.analyze spec) else None);
    nshards;
    shards;
    striped;
    cond_info;
    false_info = cond_info_of_check (Compile.Static false);
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
      (if sharded then
         Array.init (nshards + 1) (fun i ->
             Obs.counter obs
               (if i = nshards then "shard_overflow_inserts"
                else Fmt.str "shard_%02d_inserts" i))
       else [||]);
  }

(* ------------------------------------------------------------------ *)
(* Invocation: coarse (single-guard) path                              *)
(* ------------------------------------------------------------------ *)

let raise_conflict (t : t) (e : entry) (inv : Invocation.t) =
  Obs.incr t.c_conflicts;
  Obs.label t.obs ~cat:"abort_cause"
    (Fmt.str "%s;%s" e.inv.Invocation.meth.name inv.Invocation.meth.name);
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
  Detector.conflict ~txn:inv.Invocation.txn ~with_:e.inv.Invocation.txn
    (Fmt.str "%a does not commute with %a" Invocation.pp e.inv Invocation.pp inv)

(* Batch log scan: check one {e executed} incoming invocation against
   every active invocation it can conflict with — its own shard plus the
   overflow shard when keyed (the footprint's shard-disjointness
   discharges every other keyed shard), all shards otherwise — in a
   single pass, bucket by bucket, with no intermediate list.  Trivially
   [true] conditions skip whole buckets; state-free conditions go through
   their zero-environment checker.  Only valid when no condition needs
   state reconstruction against this gatekeeper's log (forward mode /
   striped mode — the general path batches differently, via
   {!rollback_sweep}).  The caller holds the relevant guards. *)
let scan_active_idx (t : t) idx (inv : Invocation.t) =
  let second = inv.Invocation.meth.name in
  let check_bucket bucket eval =
    List.iter
      (fun (e : entry) ->
        if e.inv.Invocation.txn <> inv.Invocation.txn then begin
          Obs.incr t.c_checks;
          if not (eval e) then raise_conflict t e inv
        end)
      !bucket
  in
  List.iter
    (fun (sh : shard) ->
      Hashtbl.iter
        (fun first bucket ->
          match (cond_info_of t ~first ~second).check with
          | Compile.Static true -> ()
          | Compile.Static false -> check_bucket bucket (fun _ -> false)
          | Compile.Fast f -> check_bucket bucket (fun e -> f e.inv inv)
          | Compile.Interp f ->
              check_bucket bucket (fun e ->
                  Formula.eval (check_env t e inv ~rb_cache:None) f))
        sh.s_active)
    (scan_shards t idx)

(* The public batch entry point: route by shard, then one-pass scan. *)
let batch_check (t : t) (inv : Invocation.t) =
  scan_active_idx t (shard_idx t inv) inv

let on_invoke_coarse (t : t) (inv : Invocation.t) exec =
  Guard.protect t.mu (fun () ->
      Obs.incr t.c_invocations;
      t.seq <- t.seq + 1;
      inv.Invocation.seq <- t.seq;
      let entry = { inv; log = Hashtbl.create 4 } in
      (* Functions of s1 that need only the arguments are evaluated in the
         pre-state (s1 is the state the method is invoked in)... *)
      populate_log t entry ~post_exec:false;
      let r = exec () in
      inv.Invocation.ret <- r;
      if inv.Invocation.meth.rollback_log then t.mutation_log <- inv :: t.mutation_log;
      (* ... and ret-dependent ones after it returns (valid for read-only
         methods such as [nearest]; see Spec docs). *)
      populate_log t entry ~post_exec:true;
      let idx = shard_idx t inv in
      let insert () = insert_entry t t.shards.(idx) entry in
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
      (* Check against every active invocation of other transactions in the
         shards this invocation can conflict with, bucketed by method so
         trivially-true conditions skip whole buckets.  First collect the
         entries whose condition needs state reconstruction, so all their
         rollback functions are evaluated in a single reverse-chronological
         sweep (the paper's union-find gatekeeper batches its rollback the
         same way). *)
      record_avoided t idx;
      if not t.allow_rollback then
        (* Forward mode never reconstructs state, so the scan is a single
           batch pass over the relevant shards — no intermediate list. *)
        scan_active_idx t idx inv
      else begin
        let needs_check = ref [] in
        List.iter
          (fun (sh : shard) ->
            Hashtbl.iter
              (fun first bucket ->
                let info =
                  cond_info_of t ~first ~second:inv.Invocation.meth.name
                in
                match info.check with
                | Compile.Static true -> ()
                | _ ->
                    List.iter
                      (fun (e : entry) ->
                        if e.inv.Invocation.txn <> inv.Invocation.txn then
                          needs_check := (e, info) :: !needs_check)
                      !bucket)
              sh.s_active)
          (scan_shards t idx);
        let rb_caches = rollback_sweep t inv !needs_check in
        List.iter
          (fun ((e : entry), info) ->
            Obs.incr t.c_checks;
            let ok =
              match info.check with
              | Compile.Static b -> b
              | Compile.Fast f -> f e.inv inv
              | Compile.Interp f ->
                  let rb_cache = Hashtbl.find_opt rb_caches e.inv.Invocation.uid in
                  Formula.eval (check_env t e inv ~rb_cache) f
            in
            if not ok then raise_conflict t e inv)
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
   keyless insert, or the all-shard sweep of {!on_end} / [reset] — holds
   all the guards, including the reader's.  The concrete [exec] (and seq
   stamping) is serialized under [t.mu], nested innermost; [t.mu] was
   created after the shard guards, so this nesting agrees with
   {!Guard.protect_all}'s canonical order and atomic aborts cannot
   deadlock against invocations.

   Soundness of the insert-BEFORE-exec protocol: while an invocation holds
   its shard guard(s), no other invocation that could conflict with it can
   be anywhere inside its own insert/exec/check section (they share a
   guard), so every entry it observes is complete (executed, earlier seq)
   and every pair of potentially conflicting invocations is checked by
   whichever of the two entered its guarded section last. *)
let on_invoke_striped (t : t) (inv : Invocation.t) exec =
  Obs.incr t.c_invocations;
  let idx = shard_idx t inv in
  let sh = t.shards.(idx) in
  let keyed = idx < overflow_idx t in
  let held =
    if keyed then [ sh.s_guard ]
    else Array.to_list (Array.map (fun s -> s.s_guard) t.shards)
  in
  Guard.protect_all held (fun () ->
      let entry = { inv; log = Hashtbl.create 1 } in
      insert_entry t sh entry;
      let r =
        try
          Guard.protect t.mu (fun () ->
              t.seq <- t.seq + 1;
              inv.Invocation.seq <- t.seq;
              let r = exec () in
              inv.Invocation.ret <- r;
              if inv.Invocation.meth.rollback_log then
                sh.s_muts <- inv :: sh.s_muts;
              r)
        with e ->
          (* a raising [exec] is an ADT/operator failure, not a conflict:
             withdraw the entry so the table only ever holds invocations
             that actually ran *)
          remove_entry sh entry;
          raise e
      in
      record_avoided t idx;
      (* conditions are state-free: one batch pass, no logs, no sweeps *)
      scan_active_idx t idx inv;
      r)

let on_invoke (t : t) (inv : Invocation.t) exec =
  if t.striped then on_invoke_striped t inv exec else on_invoke_coarse t inv exec

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
          (fun _ bucket ->
            List.iter
              (fun e -> if e.inv.Invocation.seq < !min_seq then min_seq := e.inv.Invocation.seq)
              !bucket)
          sh.s_active)
      t.shards;
    let keep, drop =
      List.partition (fun (i : Invocation.t) -> i.seq >= !min_seq) t.mutation_log
    in
    List.iter t.hooks.forget drop;
    t.mutation_log <- keep
  end

let drop_txn_entries (sh : shard) txn =
  Hashtbl.iter
    (fun _ bucket ->
      let keep = List.filter (fun e -> e.inv.Invocation.txn <> txn) !bucket in
      sh.s_n <- sh.s_n - (List.length !bucket - List.length keep);
      bucket := keep)
    sh.s_active

(* End-of-transaction bookkeeping.  [drop_mutations] distinguishes abort
   from commit: an {e aborted} transaction's mutations were just undone by
   its rollback, so they leave the log (they never happened); a
   {e committed} transaction's mutations are history and MUST stay — under
   true concurrency an older transaction's invocation can still be active,
   and reconstructing its pre-state [s1] requires undoing every later
   mutation, committed or not.  (The round-based executor never exposed
   this: there, every active invocation was newer than every committed
   mutation.)  [prune] retires committed entries once no active invocation
   predates them.

   Striped gatekeepers never reconstruct, so a transaction's mutations are
   forgotten as soon as it ends, commit or abort (an abort's rollback has
   already run by the time [on_abort] gets here). *)
let on_end ~drop_mutations (t : t) txn =
  if t.striped then
    Guard.protect_all
      (Array.to_list (Array.map (fun s -> s.s_guard) t.shards))
      (fun () ->
        ignore drop_mutations;
        Array.iter
          (fun (sh : shard) ->
            drop_txn_entries sh txn;
            let keep, drop =
              List.partition
                (fun (i : Invocation.t) -> i.txn <> txn)
                sh.s_muts
            in
            List.iter t.hooks.forget drop;
            sh.s_muts <- keep)
          t.shards)
  else
    Guard.protect t.mu (fun () ->
        Array.iter (fun sh -> drop_txn_entries sh txn) t.shards;
        if drop_mutations then
          t.mutation_log <-
            (let keep, drop =
               List.partition (fun (i : Invocation.t) -> i.txn <> txn) t.mutation_log
             in
             List.iter t.hooks.forget drop;
             keep);
        prune t)

let rollback_count (t : t) = !(t.stats_rollbacks)
let obs (t : t) = t.obs
let footprint (t : t) = t.fp
let striped (t : t) = t.striped

(** The [C_m] log set of a method: the s1-functions whose results the
    gatekeeper records on every invocation of [m] (exposed so tests can pin
    the construction; order is unspecified). *)
let cm_functions (t : t) m =
  Option.value ~default:[] (Hashtbl.find_opt t.cm m)
  |> List.map (fun l -> (l.fname, l.arg_terms))

let all_guards (t : t) =
  if t.striped then
    Array.to_list (Array.map (fun (s : shard) -> s.s_guard) t.shards) @ [ t.mu ]
  else [ t.mu ]

(* ------------------------------------------------------------------ *)
(* Live-state transfer (detector hot-swap)                             *)
(* ------------------------------------------------------------------ *)

let active_invocations (t : t) : Invocation.t list =
  Guard.protect_all (all_guards t) (fun () ->
      let acc = ref [] in
      Array.iter
        (fun (sh : shard) ->
          Hashtbl.iter
            (fun _ bucket -> List.iter (fun e -> acc := e.inv :: !acc) !bucket)
            sh.s_active)
        t.shards;
      List.sort
        (fun (a : Invocation.t) (b : Invocation.t) -> Int.compare a.seq b.seq)
        !acc)

let adopt (t : t) (invs : Invocation.t list) =
  Guard.protect_all (all_guards t) (fun () ->
      List.iter
        (fun (inv : Invocation.t) ->
          t.seq <- t.seq + 1;
          inv.Invocation.seq <- t.seq;
          let entry = { inv; log = Hashtbl.create 4 } in
          (* both halves of the C_m log: the invocation has already
             executed, so ret-mentioning argument terms are evaluable *)
          populate_log t entry ~post_exec:false;
          populate_log t entry ~post_exec:true;
          if inv.Invocation.meth.rollback_log then begin
            if t.striped then begin
              let sh = t.shards.(shard_idx t inv) in
              sh.s_muts <- inv :: sh.s_muts
            end
            else t.mutation_log <- inv :: t.mutation_log
          end;
          insert_entry t t.shards.(shard_idx t inv) entry)
        invs)

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
                Hashtbl.reset sh.s_active;
                sh.s_n <- 0;
                List.iter t.hooks.forget sh.s_muts;
                sh.s_muts <- [])
              t.shards;
            List.iter t.hooks.forget t.mutation_log;
            t.mutation_log <- []));
    snapshot = (fun () -> Obs.snapshot t.obs);
    guards = all_guards t;
  }

(** Forward ([~allow_rollback:false], paper §3.3.1) or general
    ([~allow_rollback:true], §3.3.2) gatekeeper, footprint-sharded when
    [nshards > 0]. *)
let make ?(nshards = 0) ?obs ~allow_rollback ~hooks spec : Detector.t * t =
  let t = create ~nshards ?obs ~allow_rollback hooks spec in
  (detector t, t)
