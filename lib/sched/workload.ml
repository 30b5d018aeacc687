(** Ready-made exploration workloads over the shipped ADTs.

    A workload is an operation plan ({!plan}: [txns] transactions of
    [(meth, args)] operations, drawn once from a seed) run over an ADT
    {!bundle}, which every run builds fresh.  One transaction body
    ({!instance}) runs any plan over any bundle, one rule ({!spec_for})
    picks the spec a scheme runs, and [mixed] composes three bundles
    under method-name prefixes.  The oracle compares the ADT's final
    state with its replay model's, and both are encoded by the ADT's one
    [snapshot].  Delaunay's transactions refine cavities rather than run
    a plan, so its task body is its own.

    Work that depends only on the workload is done once, outside the
    factory: the plan, the specs, each detector's spec stage
    ({!Protect.prepare}), and for Delaunay the triangulated input mesh,
    its initial worklist and liveness set.  The factory builds only
    mutable state — the bundle (for Delaunay a {!Delaunay.copy} of the
    input mesh), the detector's instance stage and the model — so every
    run starts from the same fresh state.  The explorer's domains call
    the factory concurrently, so what is built once is never written
    after construction (see {!Scheduler.instance}); every run shares the
    plan's argument arrays, which nothing writes.

    Scheme support follows the lattice: the set and kvmap specs are
    SIMPLE/ONLINE-CHECKABLE, so they explore under the global lock,
    abstract locking and the forward gatekeeper (sharded variants
    included); union-find's spec is GENERAL (state-dependent), so it needs
    the general gatekeeper — or the STM baseline, which traces its
    concrete cells.  Unsupported combinations return [Error] with the
    reason.  [abba-buggy] and [abba-fixed] name {!Seeded}'s lock-order
    inversion and its fix, which bring their own detector. *)

open Commlat_core
open Commlat_adts
open Commlat_apps
open Commlat_runtime

type t = {
  w_name : string;
  w_detector : string;  (** scheme spelling, for reports *)
  w_txns : int;
  make : unit -> Scheduler.instance;
}

let names =
  [
    "set"; "kvmap"; "union-find"; "swap-set"; "delaunay"; "mixed";
    "abba-buggy"; "abba-fixed";
  ]

(* ------------------------------------------------------------------ *)
(* The skeleton: plans, bundles, one body, one spec rule               *)
(* ------------------------------------------------------------------ *)

(** [txns] transactions of [ops_per_txn] operations, each drawn by [op]
    from one generator seeded with the workload's [salt] and [seed]. *)
let plan ~salt ~seed ~txns ~ops_per_txn op =
  let rng = Random.State.make [| salt; seed |] in
  Array.init txns (fun _ -> List.init ops_per_txn (fun _ -> op rng))

(** What one run needs of an ADT; every run builds a fresh one. *)
type bundle = {
  adt : Protect.adt;
  exec : Invocation.t -> Value.t;
  undo : Invocation.t -> unit;
  model : History.model;  (** fresh, for the serializability oracle *)
  final : unit -> Value.t;  (** the abstract state, encoded as [model]'s *)
}

(** An ADT as the workloads use it: its precise and SIMPLE specs, and a
    fresh bundle per run. *)
type adt = {
  precise : unit -> Spec.t;
  simple : unit -> Spec.t;
  fresh : unit -> bundle;
}

(** Abstract locking and the global lock run the SIMPLE spec, every other
    scheme the precise one. *)
let spec_for (a : adt) : Protect.scheme -> Spec.t = function
  | Protect.Abstract_lock | Protect.Sharded (Protect.Abstract_lock, _)
  | Protect.Global_lock ->
      a.simple ()
  | _ -> a.precise ()

let set_adt =
  {
    precise = Iset.precise_spec;
    simple = Iset.simple_spec;
    fresh =
      (fun () ->
        let s = Iset.create () in
        {
          adt = Protect.adt ~hooks:(Iset.hooks s) ();
          exec = (fun inv -> Iset.exec s inv.meth.name inv.args);
          undo = Iset.undo s;
          model = Iset.model ();
          final = (fun () -> Iset.snapshot s);
        });
  }

let kvmap_adt =
  {
    precise = Kvmap.precise_spec;
    simple = Kvmap.simple_spec;
    fresh =
      (fun () ->
        let m = Kvmap.create () in
        {
          adt = Protect.adt ~hooks:(Kvmap.hooks m) ();
          exec = (fun inv -> Kvmap.exec m inv.meth.name inv.args);
          undo = Kvmap.undo m;
          model = Kvmap.model ();
          final = (fun () -> Kvmap.snapshot m);
        });
  }

(* One spec, GENERAL, for every scheme. *)
let union_find_adt elements =
  {
    precise = Union_find.spec;
    simple = Union_find.spec;
    fresh =
      (fun () ->
        let uf = Union_find.create () in
        ignore (Union_find.create_elements uf elements);
        {
          adt =
            Protect.adt ~hooks:(Union_find.hooks uf)
              ~connect_tracer:(Union_find.set_tracer uf) ();
          exec = Union_find.exec_logged uf;
          undo = Union_find.undo uf;
          model = Union_find.model ~elements ();
          final = (fun () -> Union_find.partition_snapshot uf);
        });
  }

let serializability_oracle (model : History.model) final history =
  if History.serializable model ~final:(final ()) history then None
  else Some "committed history is not serializable against the reference model"

(** One run of [plan] over [b] through [det]: a fiber per transaction,
    each invoking its operations in order through {!Boost.invoke}, with
    [b]'s undo registered for rollback. *)
let instance ?spec ~det (b : bundle) plan : Scheduler.instance =
  let body ops ~det ~txn =
    List.iter
      (fun (meth, args) ->
        ignore (Boost.invoke det txn ~undo:b.undo meth args b.exec))
      ops
  in
  {
    Scheduler.det;
    spec;
    tasks = Array.map (fun ops -> { Scheduler.body = body ops }) plan;
    final = b.final;
    oracle = serializability_oracle b.model b.final;
  }

(* [build ()] does the once-per-workload work and returns the factory.
   A scheme the workload cannot run raises, from [build] or from a trial
   run of the factory, and becomes [Error]. *)
let workload ~name ~detector ~txns build : (t, string) result =
  match
    let make = build () in
    ignore (make () : Scheduler.instance);
    make
  with
  | make -> Ok { w_name = name; w_detector = detector; w_txns = txns; make }
  | exception Invalid_argument msg -> Error (Fmt.str "%s: %s" name msg)
  | exception Abstract_lock.Not_simple (m1, m2, _) ->
      Error
        (Fmt.str "%s: abstract locking needs a SIMPLE spec; %s/%s is not SIMPLE"
           name m1 m2)

(** [plan] over a fresh bundle of [a] per run, under [scheme]. *)
let over ~name (a : adt) scheme plan : (t, string) result =
  let spec = spec_for a scheme in
  workload ~name ~detector:(Protect.scheme_name scheme)
    ~txns:(Array.length plan)
  @@ fun () ->
  let protect = Protect.prepare ~spec scheme in
  fun () ->
    let b = a.fresh () in
    instance ~spec ~det:(protect ~obs:true b.adt) b plan

(* ------------------------------------------------------------------ *)
(* Set, kvmap, union-find                                              *)
(* ------------------------------------------------------------------ *)

(* The key, then the method. *)
let set_op ~keys rng =
  let k = Random.State.int rng keys in
  let m =
    match Random.State.int rng 3 with
    | 0 -> Iset.m_add
    | 1 -> Iset.m_remove
    | _ -> Iset.m_contains
  in
  (m, [| Value.Int k |])

let set ?(txns = 3) ?(ops_per_txn = 2) ?(keys = 12) ?(seed = 42) scheme =
  over ~name:"set" set_adt scheme
  @@ plan ~salt:0x5e7 ~seed ~txns ~ops_per_txn (set_op ~keys)

let kvmap ?(txns = 3) ?(ops_per_txn = 2) ?(keys = 12) ?(seed = 42) scheme =
  over ~name:"kvmap" kvmap_adt scheme
  @@ plan ~salt:0x4b7 ~seed ~txns ~ops_per_txn (fun rng ->
         let k = Value.Int (Random.State.int rng keys) in
         match Random.State.int rng 3 with
         | 0 -> (Kvmap.m_put, [| k; Value.Int (Random.State.int rng 100) |])
         | 1 -> (Kvmap.m_get, [| k |])
         | _ -> (Kvmap.m_remove, [| k |]))

let union_find ?(txns = 3) ?(ops_per_txn = 2) ?(elements = 8) ?(seed = 42)
    scheme =
  over ~name:"union-find" (union_find_adt elements) scheme
  @@ plan ~salt:0x0f ~seed ~txns ~ops_per_txn (fun rng ->
         let a = Random.State.int rng elements in
         if Random.State.int rng 2 = 0 then
           let b = Random.State.int rng elements in
           (Union_find.m_union, [| Value.Int a; Value.Int b |])
         else (Union_find.m_find, [| Value.Int a |]))

(* ------------------------------------------------------------------ *)
(* Detector hot-swap protocol                                          *)
(* ------------------------------------------------------------------ *)

(** The server's adaptive mode swaps an ADT's detector at an epoch
    boundary — a point with zero open transactions, reached with every
    detector guard held.  This workload puts that protocol itself under
    the explorer: [txns] transactions run over ONE shared set while an
    extra "swapper" fiber repeatedly tries to flip a dispatcher between
    two detectors at different lattice points (a precise forward
    gatekeeper and the global lock).  The flip takes every guard of both
    detectors and only proceeds when no transaction is open — exactly the
    server's barrier condition.  The oracle then demands the {e merged}
    committed history (part admitted by one detector, part by the other)
    be serializable against the reference model.

    [spec = None]: commutativity-based schedule pruning assumes one fixed
    independence relation, which a mid-run detector change invalidates, so
    the sweep explores unpruned.

    [on_swap] is called at every successful flip (across all schedules of
    a sweep), so a test can assert the explorer actually exercised the
    swap and not just its failed attempts. *)
let swap_set ?(txns = 2) ?(ops_per_txn = 2) ?(keys = 2) ?(seed = 42)
    ?(on_swap = fun () -> ()) () : (t, string) result =
  let plan = plan ~salt:0x5a4 ~seed ~txns ~ops_per_txn (set_op ~keys) in
  workload ~name:"swap-set" ~detector:"fwd-gk|global-lock" ~txns:(txns + 1)
  @@ fun () ->
  let prepare scheme = Protect.prepare ~spec:(spec_for set_adt scheme) scheme in
  let protect_a = prepare Protect.Forward_gk
  and protect_b = prepare Protect.Global_lock in
  fun () ->
    let b = set_adt.fresh () in
    let det_a = protect_a ~obs:true b.adt in
    let det_b = protect_b ~obs:true b.adt in
    let current = ref det_a in
    let open_txns : (int, unit) Hashtbl.t = Hashtbl.create 8 in
    let guards = det_a.Detector.guards @ det_b.Detector.guards in
    let dispatcher =
      {
        Detector.name = "swap(fwd-gk|global-lock)";
        on_invoke =
          (fun inv exec ->
            Hashtbl.replace open_txns inv.Invocation.txn ();
            !current.Detector.on_invoke inv exec);
        on_commit =
          (fun txn ->
            Hashtbl.remove open_txns txn;
            (* both: the guard-release/table-drop of whichever detector
               admitted this transaction's invocations must run; the other
               side's is a no-op *)
            det_a.Detector.on_commit txn;
            det_b.Detector.on_commit txn);
        on_abort =
          (fun txn ->
            Hashtbl.remove open_txns txn;
            det_a.Detector.on_abort txn;
            det_b.Detector.on_abort txn);
        reset =
          (fun () ->
            det_a.Detector.reset ();
            det_b.Detector.reset ());
        snapshot = det_a.Detector.snapshot;
        guards;
        txn_guards =
          (fun txn ->
            det_a.Detector.txn_guards txn @ det_b.Detector.txn_guards txn);
      }
    in
    (* The swapper: the server's barrier in miniature.  Each attempt takes
       every guard of both detectors (Guard.protect_all — acquisition
       order is globally consistent, and each acquire is a yield point the
       explorer can interleave against) and flips only at zero open
       transactions.  Bounded attempts keep the schedule space finite. *)
    let swapper ~det:_ ~txn:_ =
      let rec go attempt =
        let swapped =
          Guard.protect_all guards (fun () ->
              if Hashtbl.length open_txns = 0 then begin
                current := (if !current == det_a then det_b else det_a);
                on_swap ();
                true
              end
              else false)
        in
        if (not swapped) && attempt < 4 then go (attempt + 1)
      in
      go 1
    in
    let inst = instance ~det:dispatcher b plan in
    {
      inst with
      tasks = Array.append inst.tasks [| { Scheduler.body = swapper } |];
    }

(* ------------------------------------------------------------------ *)
(* Delaunay mesh refinement                                            *)
(* ------------------------------------------------------------------ *)

(** Real irregular work under the explorer: a small point cloud is
    triangulated, and [txns] transactions each refine a share of the bad
    triangles through {!Commlat_apps.Delaunay.operator} — cavity claims go
    through the protected {!Commlat_adts.Triset}, structural state is read
    dirty and repaired on abort.  On top of the serializability oracle,
    every explored schedule must leave a mesh satisfying the Delaunay
    property (no vertex strictly inside any live triangle's
    circumcircle) — the application-level proof that cavity claiming plus
    rollback really serializes the refinements. *)
let delaunay ?(txns = 2) ?(points = 6) ?(seed = 42) ?(max_pts = 24)
    (scheme : Protect.scheme) : (t, string) result =
  workload ~name:"delaunay" ~detector:(Protect.scheme_name scheme) ~txns
  @@ fun () ->
  let spec = Delaunay.spec_for scheme in
  let protect = Protect.prepare ~spec scheme in
  (* the input is triangulated once; every run refines a copy *)
  let base =
    Delaunay.create ~max_pts ~size:100.0
      (Mesh.points ~seed ~n:points ~size:100.0 ())
  in
  let shares = Array.make txns [] in
  List.iteri
    (fun i id -> shares.(i mod txns) <- id :: shares.(i mod txns))
    (Delaunay.bad_ids base);
  let shares = Array.map List.rev shares in
  (* the replay model starts from the mesh's liveness set *)
  let init = Triset.elements base.Delaunay.live in
  fun () ->
    let m = Delaunay.copy base in
    let det =
      protect ~obs:true (Protect.adt ~hooks:(Triset.hooks m.Delaunay.live) ())
    in
    let body ids ~det ~txn =
      let q = Queue.create () in
      List.iter (fun id -> Queue.add id q) ids;
      while not (Queue.is_empty q) do
        List.iter
          (fun nid -> Queue.add nid q)
          (Delaunay.operator m det txn (Queue.pop q))
      done
    in
    let final () = Triset.snapshot m.Delaunay.live in
    let ser = serializability_oracle (Triset.model ~init ()) final in
    {
      Scheduler.det;
      spec = Some spec;
      tasks = Array.map (fun ids -> { Scheduler.body = body ids }) shares;
      final;
      oracle =
        (fun history ->
          match ser history with
          | Some _ as e -> e
          | None ->
              Option.map
                (fun v -> "mesh not Delaunay after refinement: " ^ v)
                (Delaunay.delaunay_violation m));
    }

(* ------------------------------------------------------------------ *)
(* Mixed: two kvmaps and a set behind one composed detector            *)
(* ------------------------------------------------------------------ *)

let pmeth prefix (m : Invocation.meth) =
  Invocation.meth ~mutates:m.Invocation.mutates
    ~concrete:m.Invocation.concrete ~rollback_log:m.Invocation.rollback_log
    (prefix ^ m.Invocation.name)
    m.Invocation.arity

(** Copy of [src] with every method (and both orientations of every
    condition) renamed under [prefix] — the formulas themselves only speak
    about argument/return positions, so they transfer verbatim. *)
let prefixed_spec ~adt prefix (src : Spec.t) : Spec.t =
  let dst =
    Spec.create ~vfuns:src.Spec.vfuns ~adt
      (List.map (pmeth prefix) (Spec.methods src))
  in
  List.iter
    (fun ((m1, m2), f) ->
      Spec.add_directed dst ~first:(prefix ^ m1) ~second:(prefix ^ m2) f)
    (Spec.all_conditions src);
  dst

(** Union of per-structure specs, with every cross-structure method pair
    declared to commute unconditionally (operations on different
    structures are always independent). *)
let union_spec ~adt (specs : Spec.t list) : Spec.t =
  let dst =
    Spec.create
      ~vfuns:(List.concat_map (fun s -> s.Spec.vfuns) specs)
      ~adt
      (List.concat_map Spec.methods specs)
  in
  List.iter
    (fun s ->
      List.iter
        (fun ((m1, m2), f) -> Spec.add_directed dst ~first:m1 ~second:m2 f)
        (Spec.all_conditions s))
    specs;
  List.iteri
    (fun i si ->
      List.iteri
        (fun j sj ->
          if i <> j then
            List.iter
              (fun (m1 : Invocation.meth) ->
                List.iter
                  (fun (m2 : Invocation.meth) ->
                    Spec.add_directed dst ~first:m1.Invocation.name
                      ~second:m2.Invocation.name Formula.True)
                  (Spec.methods sj))
              (Spec.methods si))
        specs)
    specs;
  dst

(* Every prefix is two characters long: a letter and a dot. *)
let prefix_of name = String.sub name 0 2
let unprefixed name = String.sub name 2 (String.length name - 2)

(** [members], each under its method-name prefix, as one bundle: exec,
    undo, the detector hooks' undo and redo, and the model route an
    invocation to the member its prefix names and hand it over
    un-prefixed.  The abstract state is the list of the members'. *)
let compose (members : (string * bundle) list) : bundle =
  let member name = List.assoc (prefix_of name) members in
  let bundles = List.map snd members in
  let strip (inv : Invocation.t) =
    { inv with meth = { inv.meth with name = unprefixed inv.meth.name } }
  in
  let exec (inv : Invocation.t) = (member inv.meth.name).exec (strip inv)
  and undo (inv : Invocation.t) = (member inv.meth.name).undo (strip inv) in
  {
    adt =
      Protect.adt
        ~hooks:
          (Gatekeeper.hooks ~undo
             ~redo:(fun inv -> ignore (exec inv))
             (fun name _ ->
               raise (Formula.Unsupported ("mixed sfun " ^ name))))
        ();
    exec;
    undo;
    model =
      {
        History.reset =
          (fun () -> List.iter (fun b -> b.model.History.reset ()) bundles);
        apply =
          (fun name args ->
            (member name).model.History.apply (unprefixed name) args);
        snapshot =
          (fun () ->
            Value.List
              (List.map (fun b -> b.model.History.snapshot ()) bundles));
      };
    final = (fun () -> Value.List (List.map (fun b -> b.final ()) bundles));
  }

(** Transactions spanning three structures — two kvmaps ([a.], [b.]) and
    a set ([s.]) — each protected by its own detector, composed through
    {!Detector.compose} with invocations routed by method-name prefix.
    Exercises cross-detector composition: commits and aborts must reach
    every member, while the explorer's independence relation (the union
    spec) knows that operations on different structures always commute. *)
let mixed ?(txns = 3) ?(ops_per_txn = 2) ?(keys = 3) ?(seed = 42)
    (scheme : Protect.scheme) : (t, string) result =
  let members = [ ("a.", kvmap_adt); ("b.", kvmap_adt); ("s.", set_adt) ] in
  let specs =
    List.map
      (fun (p, a) ->
        let adt = "mixed_" ^ String.sub p 0 1 in
        (p, prefixed_spec ~adt p (spec_for a scheme)))
      members
  in
  let combined = union_spec ~adt:"mixed" (List.map snd specs) in
  let op prefix (m : Invocation.meth) args =
    (Spec.find_meth combined (prefix ^ m.name), args)
  in
  let plan =
    (* the key, the 6-way choice, then a put's value *)
    plan ~salt:0x3171 ~seed ~txns ~ops_per_txn (fun rng ->
        let k = Value.Int (Random.State.int rng keys) in
        match Random.State.int rng 6 with
        | 0 -> op "a." Kvmap.m_put [| k; Value.Int (Random.State.int rng 100) |]
        | 1 -> op "a." Kvmap.m_remove [| k |]
        | 2 -> op "b." Kvmap.m_put [| k; Value.Int (Random.State.int rng 100) |]
        | 3 -> op "b." Kvmap.m_get [| k |]
        | 4 -> op "s." Iset.m_add [| k |]
        | _ -> op "s." Iset.m_contains [| k |])
  in
  workload ~name:"mixed" ~detector:(Protect.scheme_name scheme) ~txns
  @@ fun () ->
  let protects =
    List.map
      (fun (p, spec) -> (p, Protect.prepare ~spec scheme ~obs:true))
      specs
  in
  fun () ->
    let b = compose (List.map (fun (p, a) -> (p, a.fresh ())) members) in
    (* built a., b., s.: guard creation ids fix Guard.protect_all's order *)
    let dets = List.map (fun (p, protect) -> (p, protect b.adt)) protects in
    let det =
      {
        (Detector.compose (List.map snd dets)) with
        Detector.name = Fmt.str "mixed(%s)" (Protect.scheme_name scheme);
        on_invoke =
          (fun inv exec ->
            (List.assoc (prefix_of inv.meth.name) dets).Detector.on_invoke inv
              exec);
      }
    in
    instance ~spec:combined ~det b plan

(* ------------------------------------------------------------------ *)
(* By name                                                             *)
(* ------------------------------------------------------------------ *)

let by_name ?txns ?ops_per_txn ?seed name (scheme : Protect.scheme) :
    (t, string) result =
  match name with
  | "set" -> set ?txns ?ops_per_txn ?seed scheme
  | "kvmap" -> kvmap ?txns ?ops_per_txn ?seed scheme
  | "union-find" | "union_find" -> union_find ?txns ?ops_per_txn ?seed scheme
  | "delaunay" ->
      (* ops_per_txn has no meaning here: work per transaction is however
         many cavities its share of the bad triangles expands to *)
      ignore ops_per_txn;
      delaunay ?txns ?seed scheme
  | "mixed" -> mixed ?txns ?ops_per_txn ?seed scheme
  | "swap-set" | "swap_set" ->
      (* the swap workload fixes its own detector pair; [scheme] names
         what the rest of the sweep runs and is ignored here *)
      ignore scheme;
      swap_set ?txns ?ops_per_txn ?seed ()
  | "abba-buggy" | "abba-fixed" ->
      (* three fixed transactions behind their own detector: nothing to
         size, seed or choose *)
      let buggy = name = "abba-buggy" in
      Ok
        {
          w_name = name;
          w_detector = "seeded";
          w_txns = 3;
          make = (fun () -> Seeded.workload ~buggy ());
        }
  | other ->
      Error
        (Fmt.str "unknown workload %S (expected %s)" other
           (String.concat ", " names))
