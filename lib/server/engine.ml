(** The server's transactional core: a registry of protected ADTs, one
    request = one transaction, with commit decoupled from execution so
    workers can group-commit a whole epoch.

    Each level of each exposed ADT is a {!Gatekeeper.make}, so its
    conditions are checked through the spec compiler: kvmap, set, orset
    and flow-graph sit behind footprint-sharded {e forward} gatekeepers
    (their precise specs are online-checkable, and — per the
    scalable-commutativity rule — their commuting requests touch disjoint
    shards), union-find behind a {e general} gatekeeper (its conditions
    need state functions and rollback).

    Failure containment (the server-edge contract): {!try_req} turns {e
    any} per-request failure — unknown ADT or method, wrong arity,
    [Value.Type_error] from a malformed argument, out-of-range union-find
    element — into a rolled-back transaction plus an [Err] response frame.
    Exceptions never escape to the calling worker domain, so a bad request
    cannot kill a worker or go unanswered.  Only {!Detector.Conflict} is
    surfaced (as {!Conflicted}) because the caller owns the retry/flush
    policy. *)

open Commlat_core
open Commlat_adts
open Commlat_runtime
module Obs = Commlat_obs.Obs
module Jsonx = Commlat_obs.Jsonx

(** One point of an exposed ADT's lattice chain.  Detectors are built
    lazily on first entry and cached forever: a level the controller
    revisits keeps its gatekeeper (whose active table is empty — it was
    swapped out at a barrier with every transaction committed) and its obs
    counters, so [Stats] totals stay monotone across swaps. *)
type level = {
  l_name : string;
  l_spec : Spec.t;
  mutable l_built : (Detector.t * Gatekeeper.t) option;
}

type exposed = {
  ename : string;
  mutable det : Detector.t;  (** current level's detector *)
  mutable gk : Gatekeeper.t;  (** current level's gatekeeper *)
  fp : Footprint.t;
      (** shard-routing keys, always from the {e precise} spec: routing is
          advisory (it never decides admission), and the precise footprint
          is the finest, so it stays valid at every coarser level *)
  lookup : string -> Invocation.meth option;
  exec_inv : Invocation.t -> Value.t;
  batchable : bool;
      (** forward/striped gatekeeper: {!Gatekeeper.batch_check}'s
          no-state-reconstruction precondition holds, enabling the
          read-only fast path *)
  levels : level array;  (** weakest-first: index 0 is the precise spec *)
  mutable cur : int;  (** index into [levels] *)
  hooks : Gatekeeper.hooks;
  build : Spec.t -> Detector.t * Gatekeeper.t;
      (** how every level of this ADT is built *)
}

type t = {
  exposed : (string * exposed) list;
  orset : Orset.t;  (** handle for the leak regression / commuting mix *)
  obs : Obs.t;
  c_requests : Obs.counter;
  c_commits : Obs.counter;
  c_aborts : Obs.counter;
  c_errors : Obs.counter;
  c_ro_fast : Obs.counter;  (** reads admitted by the batch_check path *)
  c_strengthens : Obs.counter;  (** lattice moves away from precise *)
  c_weakens : Obs.counter;  (** lattice moves back toward precise *)
  c_swap_failures : Obs.counter;  (** swap thunks that raised at a barrier *)
  (* the server's front end and epochs bump these (DESIGN.md §11) *)
  c_socket_reads : Obs.counter;  (** connection [read]s that returned bytes *)
  c_handoffs : Obs.counter;  (** job batches pushed to a worker queue *)
  c_epochs : Obs.counter;  (** worker epochs that ran a request *)
  c_epoch_requests : Obs.counter;  (** requests those epochs ran *)
  c_response_writes : Obs.counter;  (** response [write] bursts *)
  c_response_write_failures : Obs.counter;
      (** response writes that failed, e.g. [EPIPE] from a client that
          closed without reading; the connection is then dead *)
}

(** A successfully executed request whose transaction is still open,
    awaiting the epoch's group commit. *)
type pending = { txn : Txn.t; pdet : Detector.t }

type outcome =
  | Done of pending option * Wire.resp
      (** answered; [Some p] must be passed to {!commit} at epoch end *)
  | Conflicted of string
      (** rolled back after a {!Detector.Conflict}, whose reason (the
          refused method pair) it carries: commit the epoch's open
          transactions (they may be the other side) and retry *)

(* The table holds each answer ready-made, so a lookup allocates no
   option. *)
let meth_finder meths =
  let tbl = Hashtbl.create 8 in
  List.iter (fun (m : Invocation.meth) -> Hashtbl.replace tbl m.name (Some m)) meths;
  fun name -> match Hashtbl.find tbl name with o -> o | exception Not_found -> None

let default_uf_elements = 4096

(** Partitions per "part" level: hash-coarsened key domains (paper §4.2's
    partition locking, kept gatekeeper-shaped so the striped/batchable
    machinery works at every lattice point). *)
let default_nparts = 8

let hash_part nparts v = Value.Int (Value.hash v mod nparts)

(* A chain is its levels' names, each with its spec's constructor: the
   names are known without building a spec. *)

(** Strengthening chain for the kvmap: precise → SIMPLE core (key
    disequalities) → partition-coarsened keys. *)
let kvmap_levels =
  [
    ("precise", Kvmap.precise_spec);
    ("simple", Kvmap.simple_spec);
    ( "part",
      fun () ->
        Strengthen.partitioned ~adt:"kvmap_part" ~part_name:"part"
          ~part:(hash_part default_nparts) (Kvmap.simple_spec ()) );
  ]

let set_levels =
  [
    ("precise", Iset.precise_spec);
    ("simple", Iset.simple_spec);
    ("part", Iset.partitioned_spec ~nparts:default_nparts);
  ]

(** The orset's hand spec is already SIMPLE (adds self-commute, only
    identical tagged pairs conflict), so its chain has a single
    strengthening: partition-coarsened element/tag disequalities. *)
let orset_levels =
  [
    ("precise", Orset.spec);
    ( "part",
      fun () ->
        Strengthen.partitioned ~adt:"orset_part" ~part_name:"part"
          ~part:(hash_part default_nparts) (Orset.spec ()) );
  ]

(** The server's flow-graph network: a [flow_nodes]-node ladder (ring +
    chords), capacious enough that wire workloads exercise pushes and
    relabels on arbitrary node pairs without running out of edges. *)
let flow_nodes = 64

let flow_edges () =
  let chain = List.init (flow_nodes - 1) (fun i -> (i, i + 1, 1000)) in
  let chords =
    List.init (flow_nodes - 8) (fun i -> (i, i + 8, 500))
  in
  chain @ chords

let flow_levels =
  [
    ("precise", Flow_graph.spec_rw);
    ("simple", Flow_graph.spec_exclusive);
    ( "part",
      fun () ->
        Flow_graph.spec_partitioned ~nparts:default_nparts ~n:flow_nodes () );
  ]

(** Union-find's chain: its one spec is GENERAL. *)
let union_find_levels = [ ("precise", Union_find.spec) ]

(** Every level name some chain has: the names {!create}'s [?level]
    accepts. *)
let level_names =
  List.sort_uniq String.compare
    (List.concat_map (List.map fst)
       [
         kvmap_levels; set_levels; orset_levels; union_find_levels;
         flow_levels;
       ])

let mk_exposed ?obs ~nshards ~allow_rollback ~ename ~meths ~exec_inv ~hooks
    levels : exposed =
  let levels =
    Array.of_list
      (List.map
         (fun (n, spec) -> { l_name = n; l_spec = spec (); l_built = None })
         levels)
  in
  let build = Gatekeeper.make ~nshards ?obs ~allow_rollback ~hooks in
  let det, gk = build levels.(0).l_spec in
  levels.(0).l_built <- Some (det, gk);
  Wire.intern ename;
  List.iter (fun (m : Invocation.meth) -> Wire.intern m.name) meths;
  {
    ename;
    det;
    gk;
    fp = Footprint.analyze levels.(0).l_spec;
    lookup = meth_finder meths;
    exec_inv;
    batchable = not allow_rollback;
    levels;
    cur = 0;
    hooks;
    build;
  }

(* ------------------------------------------------------------------ *)
(* Lattice navigation                                                   *)
(* ------------------------------------------------------------------ *)

let find_exposed (t : t) adt : exposed =
  match List.assoc_opt adt t.exposed with
  | Some ex -> ex
  | None -> invalid_arg (Fmt.str "Engine: unknown adt %S" adt)

(** Every exposed ADT with its chain's level names, weakest-first. *)
let chains (t : t) : (string * string list) list =
  List.map
    (fun (adt, (ex : exposed)) ->
      (adt, Array.to_list (Array.map (fun lv -> lv.l_name) ex.levels)))
    t.exposed

let current_level (t : t) adt = (find_exposed t adt).levels.((find_exposed t adt).cur).l_name
let current_level_index (t : t) adt = (find_exposed t adt).cur

(** The {e current} detector's obs snapshot — what the adaptive controller
    differences per window (unlike [Stats], which merges every built
    level so totals stay monotone across swaps). *)
let level_snapshot (t : t) adt : Obs.snapshot =
  (find_exposed t adt).det.Detector.snapshot ()

(** Hot-swap one ADT's detector to the chain level at [idx].  A swap
    needs quiescence and transfers nothing: it raises [Invalid_argument]
    if the outgoing gatekeeper still holds an active invocation.  The
    server calls this inside an all-workers epoch barrier, where every
    open transaction has just committed; single-threaded embedders
    (tests, the conformance path) call it between requests.  Levels are
    built on first entry and cached, so obs counters and [Stats] totals
    survive revisits. *)
let set_level (t : t) adt idx =
  let ex = find_exposed t adt in
  if idx < 0 || idx >= Array.length ex.levels then
    invalid_arg
      (Fmt.str "Engine.set_level: %s has %d levels, got %d" adt
         (Array.length ex.levels) idx);
  if idx <> ex.cur then begin
    let live = Gatekeeper.active_count ex.gk in
    if live > 0 then
      invalid_arg
        (Fmt.str "Engine.set_level: %s has %d active invocations" adt live);
    let det, gk =
      match ex.levels.(idx).l_built with
      | Some dg -> dg
      | None ->
          let dg = ex.build ex.levels.(idx).l_spec in
          ex.levels.(idx).l_built <- Some dg;
          dg
    in
    let dir = if idx > ex.cur then t.c_strengthens else t.c_weakens in
    ex.det <- det;
    ex.gk <- gk;
    ex.cur <- idx;
    Obs.incr dir;
    Obs.label t.obs ~cat:"adaptive_level"
      (adt ^ ":" ^ ex.levels.(idx).l_name)
  end

(** [set_level] by level name; false if the chain has no such level. *)
let set_level_name (t : t) adt name : bool =
  let ex = find_exposed t adt in
  let found = ref false in
  Array.iteri
    (fun i lv ->
      if lv.l_name = name then begin
        found := true;
        set_level t adt i
      end)
    ex.levels;
  !found

(** [create ()] builds the five exposed ADTs, each with its lattice chain
    (weakest-first); the sharded ones have {!Protect.default_nshards}
    shards.  [uf_elements] union-find elements are pre-created so
    wire clients can [union]/[find] on element ids in [\[0, uf_elements)]
    without a [create] handshake.  [?level] pins every chain that has a
    level of that name ("simple", "part") to it at startup — chains
    without it (union-find has only "precise") are unaffected.  Raises
    [Invalid_argument] if no chain has it (see {!level_names}). *)
let create ?obs:obs_enabled ?(uf_elements = default_uf_elements) ?level () : t =
  let sharded =
    mk_exposed ?obs:obs_enabled ~nshards:Protect.default_nshards
      ~allow_rollback:false
  in
  let kv = Kvmap.create () in
  let set = Iset.create () in
  let ors = Orset.create () in
  let uf = Union_find.create ~capacity:uf_elements () in
  ignore (Union_find.create_elements uf uf_elements);
  let fg = Flow_graph.of_edges ~n:flow_nodes (flow_edges ()) in
  let obs = Obs.create ?enabled:obs_enabled "serve" in
  let t =
    {
      exposed =
        [
          ( "kvmap",
            sharded ~ename:"kvmap"
              ~meths:Kvmap.methods
              ~exec_inv:(fun inv ->
                Kvmap.exec kv inv.Invocation.meth.name inv.Invocation.args)
              ~hooks:(Kvmap.hooks kv) kvmap_levels );
          ( "set",
            sharded ~ename:"set"
              ~meths:Iset.methods
              ~exec_inv:(fun inv ->
                Iset.exec set inv.Invocation.meth.name inv.Invocation.args)
              ~hooks:(Iset.hooks set) set_levels );
          ( "orset",
            sharded ~ename:"orset"
              ~meths:Orset.methods ~exec_inv:(Orset.exec_logged ors)
              ~hooks:(Orset.hooks ors) orset_levels );
          ( "union-find",
            mk_exposed ?obs:obs_enabled ~nshards:0 ~allow_rollback:true
              ~ename:"union-find" ~meths:Union_find.methods
              ~exec_inv:(Union_find.exec_logged uf)
              ~hooks:(Union_find.hooks uf) union_find_levels );
          ( "flow-graph",
            sharded ~ename:"flow-graph"
              ~meths:Flow_graph.methods
              ~exec_inv:(fun inv ->
                Flow_graph.exec fg inv.Invocation.meth.name inv.Invocation.args)
              ~hooks:
                (Gatekeeper.hooks
                   ~undo:(Flow_graph.undo fg)
                   ~redo:(fun inv ->
                     ignore
                       (Flow_graph.exec fg inv.Invocation.meth.name
                          inv.Invocation.args))
                   (fun name _ ->
                     raise (Formula.Unsupported ("flow-graph sfun " ^ name))))
              flow_levels );
        ];
      orset = ors;
      obs;
      c_requests = Obs.counter obs "requests";
      c_commits = Obs.counter obs "commits";
      c_aborts = Obs.counter obs "conflict_aborts";
      c_errors = Obs.counter obs "request_errors";
      c_ro_fast = Obs.counter obs "ro_fast_path";
      c_strengthens = Obs.counter obs "adaptive_strengthens";
      c_weakens = Obs.counter obs "adaptive_weakens";
      c_swap_failures = Obs.counter obs "swap_failures";
      c_socket_reads = Obs.counter obs "socket_reads";
      c_handoffs = Obs.counter obs "handoffs";
      c_epochs = Obs.counter obs "epochs";
      c_epoch_requests = Obs.counter obs "epoch_requests";
      c_response_writes = Obs.counter obs "response_writes";
      c_response_write_failures = Obs.counter obs "response_write_failures";
    }
  in
  Option.iter
    (fun name ->
      let pinned =
        List.fold_left
          (fun pinned (adt, _) -> set_level_name t adt name || pinned)
          false t.exposed
      in
      if not pinned then
        invalid_arg
          (Fmt.str "Engine.create: no chain has a level %S (levels: %s)" name
             (String.concat ", " level_names)))
    level;
  t

let exposed_names t = List.map fst t.exposed
let orset_handle t = t.orset

(** Count a lattice swap that raised at the swap barrier (the server
    releases the barrier anyway); [Stats] reports the total as
    [swap_failures]. *)
let swap_failed (t : t) = Obs.incr t.c_swap_failures

let swap_failures (t : t) = Obs.value t.c_swap_failures

(** Commit one epoch-open transaction through {!Boost.commit} (for the
    orset, the gatekeeper's [forget] hook drops its presence-log entries
    here). *)
let commit (t : t) (p : pending) =
  Boost.commit p.pdet p.txn;
  Obs.incr t.c_commits

let err t id fmt =
  Fmt.kstr
    (fun m ->
      Obs.incr t.c_errors;
      Done (None, Wire.Err (id, m)))
    fmt

(* Read-only admission without a transaction: {!Gatekeeper.batch_check}
   executes the (abstractly and concretely effect-free) method under the
   guards the invoke path takes for its shard, then scans every active
   invocation it can conflict with.  If the scan passes, the read
   linearizes right here and is already durable — no entry insertion, no
   lock table traffic, no commit work at the epoch boundary.  Sound
   because a committed invocation need not stay visible to later
   admission checks.  A refusal answers [Conflicted] at once: the read
   was routed to the worker holding its key's open writes, so running it
   again as a transaction would meet the same writer. *)
let try_ro_fast (t : t) (ex : exposed) ~id (meth : Invocation.meth) args =
  (* the reserved ids: no shared counter is written, and the probe's
     transaction owns no entry, so the scan checks it against every
     active one *)
  let inv = Invocation.probe ~txn:Txn.probe_id meth args in
  match Gatekeeper.batch_check ex.gk inv (fun () -> ex.exec_inv inv) with
  | r ->
      Obs.incr t.c_ro_fast;
      Done (None, Wire.Reply (id, r))
  | exception Detector.Conflict { reason; _ } ->
      (* nothing to undo: the method is effect-free *)
      Obs.incr t.c_aborts;
      Conflicted reason

let try_invoke (t : t) ~id adt meth args : outcome =
  match List.assoc adt t.exposed with
  | exception Not_found ->
      err t id "unknown adt %S (have: %s)" adt
        (String.concat ", " (exposed_names t))
  | ex -> (
      match ex.lookup meth with
      | None -> err t id "%s: unknown method %S" adt meth
      | Some m when m.Invocation.arity <> Array.length args ->
          err t id "%s.%s: arity %d, got %d arguments" adt meth
            m.Invocation.arity (Array.length args)
      | Some m
        when ex.batchable && (not m.Invocation.mutates)
             && not m.Invocation.concrete -> (
          (* same containment contract as the transactional arm below: a
             malformed argument raised by the (effect-free) method body
             answers an error frame instead of escaping [handle] *)
          try try_ro_fast t ex ~id m args
          with e -> err t id "%s.%s: %s" adt meth (Printexc.to_string e))
      | Some m -> (
          let txn = Txn.fresh () in
          (* a non-concrete method pushes no undo *)
          match Boost.invoke ex.det txn ~undo:ex.hooks.undo m args ex.exec_inv with
          | r -> Done (Some { txn; pdet = ex.det }, Wire.Reply (id, r))
          | exception Detector.Conflict { reason; _ } ->
              Boost.abort ex.det txn;
              Obs.incr t.c_aborts;
              Conflicted reason
          | exception e ->
              (* the server-edge contract: malformed arguments (a
                 [Value.Type_error], an out-of-bounds index, an
                 [Unsupported] state function) doom this transaction
                 only — roll it back and answer with an error frame *)
              Boost.abort ex.det txn;
              err t id "%s.%s: %s" adt meth (Printexc.to_string e)))

(** One merged snapshot: the engine's own counters plus every {e built}
    lattice level's detector registry for every exposed ADT — levels keep
    their counters when swapped out, so [Stats] totals stay monotone
    across adaptive hot-swaps. *)
let snapshot_json_string (t : t) : string =
  let snaps =
    Obs.snapshot t.obs
    :: List.concat_map
         (fun (_, (ex : exposed)) ->
           Array.to_list ex.levels
           |> List.filter_map (fun lv ->
                  Option.map (fun ((d : Detector.t), _) -> d.snapshot ()) lv.l_built))
         t.exposed
  in
  Jsonx.to_string (Obs.snapshot_to_json (Obs.merge "serve" snaps))

(** Handle one request; never raises except {!Detector.Conflict} mapped to
    {!Conflicted}.  [Quit] is answered like [Ping] — connection/shutdown
    policy belongs to the caller. *)
let try_req (t : t) (req : Wire.req) : outcome =
  Obs.incr t.c_requests;
  match req with
  | Wire.Invoke { id; adt; meth; args } -> try_invoke t ~id adt meth args
  | Wire.Stats id ->
      Done (None, Wire.Reply (id, Value.Str (snapshot_json_string t)))
  | Wire.Ping id | Wire.Quit id -> Done (None, Wire.Reply (id, Value.Unit))

(** Conflict retries {!handle} makes before answering an [Err] frame. *)
let handle_retries = 16

(** Synchronous request execution with immediate commit and bounded
    conflict retry — the single-threaded in-process conformance path (the
    wire tests speak to this, no sockets involved). *)
let handle (t : t) (req : Wire.req) : Wire.resp =
  let rec go attempts =
    match try_req t req with
    | Done (p, resp) ->
        Option.iter (commit t) p;
        resp
    | Conflicted reason ->
        if attempts >= handle_retries then
          Wire.Err (Wire.req_id req, "conflict retries exhausted: " ^ reason)
        else go (attempts + 1)
  in
  go 0

(* ------------------------------------------------------------------ *)
(* Shard routing                                                       *)
(* ------------------------------------------------------------------ *)

(** Worker-routing hash of a request, derived from the same equality
    footprint that drives detector sharding: requests whose footprint keys
    differ commute (that is the footprint guarantee), so hashing the key
    sends conflicting requests to the {e same} worker and spreads
    commuting ones across cores.  The server's worker keeps the hashes of
    its epoch's open transactions and commits them before it runs a
    request whose hash is among them (DESIGN.md §11), so requests on one
    key serialize instead of aborting each other; a collision between
    different keys only commits early.  Keyless methods (and non-invoke
    requests) return [None]; the caller round-robins those. *)
let route_hash (t : t) (req : Wire.req) : int option =
  match req with
  | Wire.Stats _ | Wire.Quit _ | Wire.Ping _ -> None
  | Wire.Invoke { adt; meth; args; _ } -> (
      match List.assoc adt t.exposed with
      | exception Not_found -> None
      | ex -> (
          match ex.lookup meth with
          | Some m when m.Invocation.arity = Array.length args -> (
              (* the key the detector's shard computes, from the
                 arguments alone: no invocation record is built *)
              match Footprint.key_fn ex.fp meth with
              | Some key -> Some (Value.hash (key args))
              | None ->
                  (* keyless method but keyed-looking argument (union-find's
                     state-dependent spec defeats the footprint analysis):
                     route by first argument for locality, still sound —
                     routing never decides admission *)
                  if Array.length args > 0 then Some (Value.hash args.(0))
                  else None)
          | _ -> None))
