(** Ready-made exploration workloads over the shipped ADTs.

    Each workload is a deterministic plan — [txns] transactions of a few
    method calls each, generated from a seed — plus a factory building a
    fresh instance (ADT, detector, serializability oracle against the
    ADT's reference {!History.model}) for every run.

    Work that depends only on the workload is done once, outside
    the factory: each detector's spec stage ({!Protect.prepare}), the
    specs, and for Delaunay the triangulated input mesh, its initial
    worklist and liveness set.  The factory builds only mutable state —
    the ADT (for Delaunay a {!Delaunay.copy} of the input mesh), the
    detector's instance stage and the oracle's model — so every run
    starts from the same fresh state.  The explorer's domains call the
    factory concurrently, so what is built once is never written after
    construction (see {!Scheduler.instance}).

    Scheme support follows the lattice: the set and kvmap specs are
    SIMPLE/ONLINE-CHECKABLE, so they explore under the global lock,
    abstract locking and the forward gatekeeper (sharded variants
    included); union-find's spec is GENERAL (state-dependent), so it needs
    the general gatekeeper — or the STM baseline, which traces its
    concrete cells.  Unsupported combinations return [Error] with the
    reason. *)

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

let names = [ "set"; "kvmap"; "union-find"; "swap-set"; "delaunay"; "mixed" ]

(* ------------------------------------------------------------------ *)
(* Helpers                                                             *)
(* ------------------------------------------------------------------ *)

let serializability_oracle (model : History.model) final history =
  if History.serializable model ~final:(final ()) history then None
  else Some "committed history is not serializable against the reference model"

(** One [Boost.invoke] call: the invocation travels through the conflict
    detector with the ADT's undo action registered for rollback. *)
let call ~det ~txn ~undo meth args exec =
  ignore (Boost.invoke det txn ~undo meth args exec)

(* [build ()] does the once-per-workload work and returns the factory.
   A scheme the workload cannot run raises [Invalid_argument], from
   [build] or from a trial run of the factory, and becomes [Error]. *)
let workload ~name ~detector ~txns build : (t, string) result =
  match
    let make = build () in
    ignore (make () : Scheduler.instance);
    make
  with
  | make -> Ok { w_name = name; w_detector = detector; w_txns = txns; make }
  | exception Invalid_argument msg -> Error (Fmt.str "%s: %s" name msg)

(* ------------------------------------------------------------------ *)
(* Set                                                                 *)
(* ------------------------------------------------------------------ *)

let set ?(txns = 3) ?(ops_per_txn = 2) ?(keys = 12) ?(seed = 42)
    (scheme : Protect.scheme) : (t, string) result =
  let rng = Random.State.make [| 0x5e7; seed |] in
  let plan =
    Array.init txns (fun _ ->
        List.init ops_per_txn (fun _ ->
            let k = Random.State.int rng keys in
            let m =
              match Random.State.int rng 3 with
              | 0 -> Iset.m_add
              | 1 -> Iset.m_remove
              | _ -> Iset.m_contains
            in
            (m, k)))
  in
  let spec =
    (* abstract locking needs the SIMPLE strengthening; everything else
       gets the precise Fig. 2 spec *)
    match scheme with
    | Protect.Abstract_lock | Protect.Sharded (Protect.Abstract_lock, _)
    | Protect.Global_lock ->
        Iset.simple_spec ()
    | _ -> Iset.precise_spec ()
  in
  workload ~name:"set" ~detector:(Protect.scheme_name scheme) ~txns
  @@ fun () ->
  let protect = Protect.prepare ~spec scheme in
  fun () ->
    let s = Iset.create () in
    let det = protect ~obs:true (Protect.adt ~hooks:(Iset.hooks s) ()) in
    let body ops ~det ~txn =
      List.iter
        (fun ((m : Invocation.meth), k) ->
          call ~det ~txn ~undo:(Iset.undo s) m
            [| Value.Int k |]
            (fun inv -> Iset.exec s m.Invocation.name inv.Invocation.args))
        ops
    in
    let model = Iset.model () in
    let final () = Value.List (Iset.elements s) in
    {
      Scheduler.det;
      spec = Some spec;
      tasks = Array.map (fun ops -> { Scheduler.body = body ops }) plan;
      final;
      oracle = serializability_oracle model final;
    }

(* ------------------------------------------------------------------ *)
(* Kvmap                                                               *)
(* ------------------------------------------------------------------ *)

let kvmap ?(txns = 3) ?(ops_per_txn = 2) ?(keys = 12) ?(seed = 42)
    (scheme : Protect.scheme) : (t, string) result =
  let rng = Random.State.make [| 0x4b7; seed |] in
  let plan =
    Array.init txns (fun _ ->
        List.init ops_per_txn (fun _ ->
            let k = Value.Int (Random.State.int rng keys) in
            match Random.State.int rng 3 with
            | 0 -> (Kvmap.m_put, [| k; Value.Int (Random.State.int rng 100) |])
            | 1 -> (Kvmap.m_get, [| k |])
            | _ -> (Kvmap.m_remove, [| k |])))
  in
  let spec =
    match scheme with
    | Protect.Abstract_lock | Protect.Sharded (Protect.Abstract_lock, _)
    | Protect.Global_lock ->
        Kvmap.simple_spec ()
    | _ -> Kvmap.precise_spec ()
  in
  workload ~name:"kvmap" ~detector:(Protect.scheme_name scheme) ~txns
  @@ fun () ->
  let protect = Protect.prepare ~spec scheme in
  fun () ->
    let m = Kvmap.create () in
    let det = protect ~obs:true (Protect.adt ~hooks:(Kvmap.hooks m) ()) in
    let body ops ~det ~txn =
      List.iter
        (fun ((meth : Invocation.meth), args) ->
          call ~det ~txn ~undo:(Kvmap.undo m) meth args (fun inv ->
              Kvmap.exec m meth.Invocation.name inv.Invocation.args))
        ops
    in
    let model = Kvmap.model () in
    let final () =
      Value.List
        (List.map (fun (k, v) -> Value.Pair (k, v)) (Kvmap.bindings m))
    in
    {
      Scheduler.det;
      spec = Some spec;
      tasks = Array.map (fun ops -> { Scheduler.body = body ops }) plan;
      final;
      oracle = serializability_oracle model final;
    }

(* ------------------------------------------------------------------ *)
(* Union-find                                                          *)
(* ------------------------------------------------------------------ *)

let union_find ?(txns = 3) ?(ops_per_txn = 2) ?(elements = 8) ?(seed = 42)
    (scheme : Protect.scheme) : (t, string) result =
  let rng = Random.State.make [| 0x0f; seed |] in
  let plan =
    Array.init txns (fun _ ->
        List.init ops_per_txn (fun _ ->
            let a = Random.State.int rng elements in
            if Random.State.int rng 2 = 0 then
              let b = Random.State.int rng elements in
              (Union_find.m_union, [| Value.Int a; Value.Int b |])
            else (Union_find.m_find, [| Value.Int a |])))
  in
  workload ~name:"union-find" ~detector:(Protect.scheme_name scheme) ~txns
  @@ fun () ->
  let spec = Union_find.spec () in
  let protect = Protect.prepare ~spec scheme in
  fun () ->
    let uf = Union_find.create () in
    ignore (Union_find.create_elements uf elements);
    let det =
      protect ~obs:true
        (Protect.adt ~hooks:(Union_find.hooks uf)
           ~connect_tracer:(Union_find.set_tracer uf) ())
    in
    let body ops ~det ~txn =
      List.iter
        (fun ((meth : Invocation.meth), args) ->
          call ~det ~txn ~undo:(Union_find.undo uf) meth args (fun inv ->
              Union_find.exec_logged uf inv))
        ops
    in
    let model = Union_find.model ~elements () in
    let final () = Union_find.partition_snapshot uf in
    {
      Scheduler.det;
      spec = Some spec;
      tasks = Array.map (fun ops -> { Scheduler.body = body ops }) plan;
      final;
      oracle = serializability_oracle model final;
    }

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
  let rng = Random.State.make [| 0x5a4; seed |] in
  let plan =
    Array.init txns (fun _ ->
        List.init ops_per_txn (fun _ ->
            let k = Random.State.int rng keys in
            let m =
              match Random.State.int rng 3 with
              | 0 -> Iset.m_add
              | 1 -> Iset.m_remove
              | _ -> Iset.m_contains
            in
            (m, k)))
  in
  workload ~name:"swap-set" ~detector:"fwd-gk|global-lock" ~txns:(txns + 1)
  @@ fun () ->
  let protect_a = Protect.prepare ~spec:(Iset.precise_spec ()) Protect.Forward_gk
  and protect_b = Protect.prepare ~spec:(Iset.simple_spec ()) Protect.Global_lock in
  fun () ->
    let s = Iset.create () in
    let adt = Protect.adt ~hooks:(Iset.hooks s) () in
    let det_a = protect_a ~obs:true adt in
    let det_b = protect_b ~obs:true adt in
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
    let body ops ~det ~txn =
      List.iter
        (fun ((m : Invocation.meth), k) ->
          call ~det ~txn ~undo:(Iset.undo s) m
            [| Value.Int k |]
            (fun inv -> Iset.exec s m.Invocation.name inv.Invocation.args))
        ops
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
    let model = Iset.model () in
    let final () = Value.List (Iset.elements s) in
    let txn_tasks = Array.map (fun ops -> { Scheduler.body = body ops }) plan in
    {
      Scheduler.det = dispatcher;
      spec = None;
      tasks = Array.append txn_tasks [| { Scheduler.body = swapper } |];
      final;
      oracle = serializability_oracle model final;
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
  (* the replay model must start from the post-construction liveness set,
     not the empty one: construction populates [live] outside any
     transaction *)
  let init_ids = Triset.elements base.Delaunay.live in
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
    let model =
      let s = Triset.create () in
      let fill () = List.iter (fun id -> ignore (Triset.add s id)) init_ids in
      fill ();
      {
        History.reset =
          (fun () ->
            Triset.clear s;
            fill ());
        apply = Triset.exec s;
        snapshot =
          (fun () ->
            Value.List
              (List.map (fun id -> Value.Int id) (Triset.elements s)));
      }
    in
    let final () =
      Value.List
        (List.map
           (fun id -> Value.Int id)
           (Triset.elements m.Delaunay.live))
    in
    let ser = serializability_oracle model final in
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

(** Transactions spanning three structures — two kvmaps ([a.], [b.]) and
    a set ([s.]) — each protected by its own detector, composed through
    {!Detector.compose} with invocations routed by method-name prefix.
    Exercises cross-detector composition: commits and aborts must reach
    every member, while the explorer's independence relation (the union
    spec) knows that operations on different structures always commute. *)
let mixed ?(txns = 3) ?(ops_per_txn = 2) ?(keys = 3) ?(seed = 42)
    (scheme : Protect.scheme) : (t, string) result =
  let rng = Random.State.make [| 0x3171; seed |] in
  let plan =
    Array.init txns (fun _ ->
        List.init ops_per_txn (fun _ ->
            let k = Value.Int (Random.State.int rng keys) in
            match Random.State.int rng 6 with
            | 0 ->
                ("a.", "put", [| k; Value.Int (Random.State.int rng 100) |])
            | 1 -> ("a.", "remove", [| k |])
            | 2 ->
                ("b.", "put", [| k; Value.Int (Random.State.int rng 100) |])
            | 3 -> ("b.", "get", [| k |])
            | 4 -> ("s.", "add", [| k |])
            | _ -> ("s.", "contains", [| k |])))
  in
  let simple =
    match scheme with
    | Protect.Abstract_lock | Protect.Sharded (Protect.Abstract_lock, _)
    | Protect.Global_lock ->
        true
    | _ -> false
  in
  let kv_spec () =
    if simple then Kvmap.simple_spec () else Kvmap.precise_spec ()
  in
  let set_spec () =
    if simple then Iset.simple_spec () else Iset.precise_spec ()
  in
  let spec_a = prefixed_spec ~adt:"mixed_a" "a." (kv_spec ()) in
  let spec_b = prefixed_spec ~adt:"mixed_b" "b." (kv_spec ()) in
  let spec_s = prefixed_spec ~adt:"mixed_s" "s." (set_spec ()) in
  let combined = union_spec ~adt:"mixed" [ spec_a; spec_b; spec_s ] in
  (* member undo/redo hooks see prefixed invocations: strip before
     delegating to the ADT's own plumbing *)
  let strip (inv : Invocation.t) =
    let n = inv.Invocation.meth.Invocation.name in
    {
      inv with
      Invocation.meth =
        {
          inv.Invocation.meth with
          Invocation.name = String.sub n 2 (String.length n - 2);
        };
    }
  in
  let member_hooks undo exec =
    Gatekeeper.hooks
      ~undo:(fun inv -> undo (strip inv))
      ~redo:(fun inv ->
        let i = strip inv in
        ignore (exec i.Invocation.meth.Invocation.name i.Invocation.args))
      (fun name _ -> raise (Formula.Unsupported ("mixed sfun " ^ name)))
  in
  workload ~name:"mixed" ~detector:(Protect.scheme_name scheme) ~txns
  @@ fun () ->
  let protect_of spec =
    let protect = Protect.prepare ~spec scheme in
    fun hooks -> protect ~obs:true (Protect.adt ~hooks ())
  in
  let protect_a = protect_of spec_a
  and protect_b = protect_of spec_b
  and protect_s = protect_of spec_s in
  fun () ->
    let ma = Kvmap.create ()
    and mb = Kvmap.create ()
    and ss = Iset.create () in
    let det_a = protect_a (member_hooks (Kvmap.undo ma) (Kvmap.exec ma)) in
    let det_b = protect_b (member_hooks (Kvmap.undo mb) (Kvmap.exec mb)) in
    let det_s = protect_s (member_hooks (Iset.undo ss) (Iset.exec ss)) in
    let base = Detector.compose [ det_a; det_b; det_s ] in
    let dispatcher =
      {
        base with
        Detector.name = Fmt.str "mixed(%s)" (Protect.scheme_name scheme);
        on_invoke =
          (fun inv exec ->
            let d =
              match inv.Invocation.meth.Invocation.name.[0] with
              | 'a' -> det_a
              | 'b' -> det_b
              | _ -> det_s
            in
            d.Detector.on_invoke inv exec);
      }
    in
    let exec_for prefix name args =
      match prefix with
      | "a." -> Kvmap.exec ma name args
      | "b." -> Kvmap.exec mb name args
      | _ -> Iset.exec ss name args
    in
    let undo_for prefix =
      match prefix with
      | "a." -> fun inv -> Kvmap.undo ma (strip inv)
      | "b." -> fun inv -> Kvmap.undo mb (strip inv)
      | _ -> fun inv -> Iset.undo ss (strip inv)
    in
    let body ops ~det ~txn =
      List.iter
        (fun (prefix, name, args) ->
          call ~det ~txn ~undo:(undo_for prefix)
            (Spec.find_meth combined (prefix ^ name))
            args
            (fun _ -> exec_for prefix name args))
        ops
    in
    let model =
      let a = Kvmap.model ()
      and b = Kvmap.model ()
      and s = Iset.model () in
      {
        History.reset =
          (fun () ->
            a.History.reset ();
            b.History.reset ();
            s.History.reset ());
        apply =
          (fun name args ->
            let base = String.sub name 2 (String.length name - 2) in
            match name.[0] with
            | 'a' -> a.History.apply base args
            | 'b' -> b.History.apply base args
            | _ -> s.History.apply base args);
        snapshot =
          (fun () ->
            Value.List
              [
                a.History.snapshot ();
                b.History.snapshot ();
                s.History.snapshot ();
              ]);
      }
    in
    let final () =
      Value.List
        [
          Value.List
            (List.map (fun (k, v) -> Value.Pair (k, v)) (Kvmap.bindings ma));
          Value.List
            (List.map (fun (k, v) -> Value.Pair (k, v)) (Kvmap.bindings mb));
          Value.List (Iset.elements ss);
        ]
    in
    {
      Scheduler.det = dispatcher;
      spec = Some combined;
      tasks = Array.map (fun ops -> { Scheduler.body = body ops }) plan;
      final;
      oracle = serializability_oracle model final;
    }

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
  | other ->
      Error
        (Fmt.str "unknown workload %S (expected %s)" other
           (String.concat ", " names))
