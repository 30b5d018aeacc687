(** Flow networks for the preflow-push case study (paper §5).

    The graph is exposed to transactions through four methods whose
    argument lists are exactly their node footprints, so that the
    commutativity specification is SIMPLE (clauses are node
    disequalities) and the derived abstract-locking scheme is precisely
    read/write locking on nodes — which, as the paper notes, "is identical
    to the conflict detection performed by a transactional memory":

    - [get_neighbors u] — adjacency, residual capacities, height and excess
      of [u] (one read of node [u]: residual capacities of [u]'s incident
      edges and [u]'s excess are only ever written by [push_flow]
      invocations that take [u] as an argument, so a read lock on [u]
      protects them);
    - [height v] — read of node [v];
    - [push_flow u v] — push as much excess as the residual edge allows;
      writes nodes [u] and [v]; returns the amount pushed;
    - [relabel_to u h] — set [u]'s height; writes node [u]; returns the
      previous height (which makes the method its own undo).

    Three specification variants from the lattice: {!spec_rw} (read/write
    node locks — the paper's [ml]), {!spec_exclusive} (reader/reader
    sharing removed — [ex]) and {!spec_partitioned} ([part], §4.2). *)

open Commlat_core

type edge = {
  dst : int;
  mutable cap : int;  (** residual capacity *)
  rev : int;  (** index of the reverse edge in [adj.(dst)] *)
}

type t = {
  n : int;
  adj : edge array array;
  excess : int array;
  height : int array;
  mutable tracer : Mem_trace.t;
}

(** Build a network from a directed capacity list.  Parallel edges and
    opposite-direction pairs are merged so that each unordered node pair is
    represented by exactly one edge object and its reverse — [push_flow]'s
    undo needs the residual edge [u -> v] to be unique. *)
let of_edges ~n (edges : (int * int * int) list) =
  let caps = Hashtbl.create (List.length edges) in
  List.iter
    (fun (u, v, c) ->
      if u = v then invalid_arg "Flow_graph.of_edges: self loop";
      let cur = Option.value ~default:0 (Hashtbl.find_opt caps (u, v)) in
      Hashtbl.replace caps (u, v) (cur + c))
    edges;
  (* one record per unordered pair, with the capacity in each direction *)
  let pairs = Hashtbl.create (Hashtbl.length caps) in
  Hashtbl.iter
    (fun (u, v) c ->
      let key = (min u v, max u v) in
      let fwd, bwd = Option.value ~default:(0, 0) (Hashtbl.find_opt pairs key) in
      if u < v then Hashtbl.replace pairs key (fwd + c, bwd)
      else Hashtbl.replace pairs key (fwd, bwd + c))
    caps;
  let deg = Array.make n 0 in
  Hashtbl.iter
    (fun (u, v) _ ->
      deg.(u) <- deg.(u) + 1;
      deg.(v) <- deg.(v) + 1)
    pairs;
  let adj = Array.init n (fun i -> Array.make deg.(i) { dst = -1; cap = 0; rev = -1 }) in
  let fill = Array.make n 0 in
  Hashtbl.iter
    (fun (u, v) (c_uv, c_vu) ->
      let iu = fill.(u) and iv = fill.(v) in
      adj.(u).(iu) <- { dst = v; cap = c_uv; rev = iv };
      adj.(v).(iv) <- { dst = u; cap = c_vu; rev = iu };
      fill.(u) <- iu + 1;
      fill.(v) <- iv + 1)
    pairs;
  {
    n;
    adj;
    excess = Array.make n 0;
    height = Array.make n 0;
    tracer = Mem_trace.null;
  }

let set_tracer t tr = t.tracer <- tr

(* ------------------------------------------------------------------ *)
(* Raw operations                                                      *)
(* ------------------------------------------------------------------ *)

let read_node t u = t.tracer.Mem_trace.read u
let write_node t u = t.tracer.Mem_trace.write u

let get_neighbors_raw t u =
  read_node t u;
  (t.excess.(u), t.height.(u), Array.to_list (Array.map (fun e -> (e.dst, e.cap)) t.adj.(u)))

let height_raw t v =
  read_node t v;
  t.height.(v)

(** Push along the residual edge [u -> v] if the preflow-push conditions
    hold ([excess u > 0], [height u = height v + 1], residual capacity):
    moves [min excess residual]; returns the amount moved (0 if
    inapplicable). *)
let push_flow_raw t u v =
  read_node t u;
  read_node t v;
  if t.excess.(u) <= 0 || t.height.(u) <> t.height.(v) + 1 then 0
  else
    match Array.find_opt (fun e -> e.dst = v && e.cap > 0) t.adj.(u) with
    | None -> 0
    | Some e ->
        let amt = min t.excess.(u) e.cap in
        e.cap <- e.cap - amt;
        t.adj.(v).(e.rev).cap <- t.adj.(v).(e.rev).cap + amt;
        t.excess.(u) <- t.excess.(u) - amt;
        t.excess.(v) <- t.excess.(v) + amt;
        write_node t u;
        write_node t v;
        amt

(** Transfer [amt] back from [v] to [u]: the semantic inverse of a push. *)
let unpush_raw t u v amt =
  if amt > 0 then (
    match Array.find_opt (fun e -> e.dst = v) t.adj.(u) with
    | None -> invalid_arg "unpush: no such edge"
    | Some e ->
        e.cap <- e.cap + amt;
        t.adj.(v).(e.rev).cap <- t.adj.(v).(e.rev).cap - amt;
        t.excess.(u) <- t.excess.(u) + amt;
        t.excess.(v) <- t.excess.(v) - amt)

let relabel_to_raw t u h =
  read_node t u;
  let old = t.height.(u) in
  t.height.(u) <- h;
  write_node t u;
  old

(* ------------------------------------------------------------------ *)
(* Methods and specifications                                          *)
(* ------------------------------------------------------------------ *)

let m_get_neighbors = Invocation.meth ~mutates:false "get_neighbors" 1
let m_height = Invocation.meth ~mutates:false "height" 1
let m_push_flow = Invocation.meth "push_flow" 2
let m_relabel_to = Invocation.meth "relabel_to" 2
let methods = [ m_get_neighbors; m_height; m_push_flow; m_relabel_to ]

(* node arguments *)
let u1 = Formula.arg1 0
let u2 = Formula.arg2 0
let v1 = Formula.arg1 1
let v2 = Formula.arg2 1

open struct
  let ne = Formula.ne
  let ( &&& ) = Formula.( &&& )
  let _True = Formula.True
end

let _ = _True

(** Read/write node locking — the paper's [ml] baseline: reads share,
    writers need their argument nodes exclusively. *)
let spec_rw () =
  let s = Spec.create ~adt:"flow_graph_rw" methods in
  (* reads commute with reads *)
  Spec.add_sym s "get_neighbors" "get_neighbors" Formula.True;
  Spec.add_sym s "get_neighbors" "height" Formula.True;
  Spec.add_sym s "height" "height" Formula.True;
  (* reads vs writes: disjoint nodes *)
  Spec.add_sym s "get_neighbors" "push_flow" (ne u1 u2 &&& ne u1 v2);
  Spec.add_sym s "get_neighbors" "relabel_to" (ne u1 u2);
  Spec.add_sym s "height" "push_flow" (ne u1 u2 &&& ne u1 v2);
  Spec.add_sym s "height" "relabel_to" (ne u1 u2);
  (* writes vs writes: disjoint nodes *)
  Spec.add_sym s "push_flow" "push_flow"
    (ne u1 u2 &&& ne u1 v2 &&& ne v1 u2 &&& ne v1 v2);
  Spec.add_sym s "push_flow" "relabel_to" (ne u1 u2 &&& ne v1 u2);
  Spec.add_sym s "relabel_to" "relabel_to" (ne u1 u2);
  s

(** Exclusive node locking — [ex]: reader/reader sharing on the same node
    removed (a strengthening, one step down the lattice). *)
let spec_exclusive () =
  let s = Strengthen.map_conditions ~adt:"flow_graph_ex" (spec_rw ()) Fun.id in
  Spec.add_sym s "get_neighbors" "get_neighbors" (ne u1 u2);
  Spec.add_sym s "get_neighbors" "height" (ne u1 u2);
  Spec.add_sym s "height" "height" (ne u1 u2);
  s

(** Partition locking — [part]: node disequalities coarsened to partition
    disequalities (paper §4.2); the induced scheme locks partitions.  The
    partition map matters: the paper follows the data-partitioning approach
    of Kulkarni et al. (ASPLOS 2008), where a partition is a {e connected
    region} of the graph, so a transaction's whole neighbourhood usually
    falls in one partition.  [n] is the number of graph nodes; nodes are
    split into [nparts] contiguous blocks (GENRMF ids are frame-major, so
    blocks are spatially coherent).  A custom [part] map can be supplied. *)
let spec_partitioned ?part ~nparts ?(n = max_int) () =
  let block v =
    let v = Value.to_int v in
    if n = max_int then Value.Int (v mod nparts)
    else Value.Int (min (nparts - 1) (v * nparts / n))
  in
  let part = Option.value ~default:block part in
  Strengthen.partitioned
    ~adt:(Fmt.str "flow_graph_part%d" nparts)
    ~part_name:"part" ~part (spec_exclusive ())

(* ------------------------------------------------------------------ *)
(* Execution plumbing                                                  *)
(* ------------------------------------------------------------------ *)

let exec (t : t) name (args : Value.t array) =
  match (name, args) with
  | "get_neighbors", [| u |] ->
      let excess, height, ns = get_neighbors_raw t (Value.to_int u) in
      Value.List
        [
          Value.Int excess;
          Value.Int height;
          Value.List (List.map (fun (v, c) -> Value.Pair (Value.Int v, Value.Int c)) ns);
        ]
  | "height", [| v |] -> Value.Int (height_raw t (Value.to_int v))
  | "push_flow", [| u; v |] ->
      Value.Int (push_flow_raw t (Value.to_int u) (Value.to_int v))
  | "relabel_to", [| u; h |] ->
      Value.Int (relabel_to_raw t (Value.to_int u) (Value.to_int h))
  | _ -> Value.type_error "flow-graph: bad invocation %s" name

let meth_of = function
  | "get_neighbors" -> m_get_neighbors
  | "height" -> m_height
  | "push_flow" -> m_push_flow
  | "relabel_to" -> m_relabel_to
  | name -> invalid_arg ("flow-graph: no method " ^ name)

let invoke (det : Detector.t) (t : t) ~txn name (args : int list) : Value.t =
  let inv =
    Invocation.make ~txn (meth_of name)
      (Array.of_list (List.map (fun i -> Value.Int i) args))
  in
  det.Detector.on_invoke inv (fun () -> exec t name inv.Invocation.args)

(** Semantic undo: a push is unpushed; a relabel is re-relabelled to the
    old height it returned; reads undo to nothing. *)
let undo (t : t) (inv : Invocation.t) =
  match (inv.Invocation.meth.name, inv.Invocation.ret) with
  | "push_flow", Value.Int amt ->
      unpush_raw t
        (Value.to_int inv.Invocation.args.(0))
        (Value.to_int inv.Invocation.args.(1))
        amt
  | "relabel_to", Value.Int old ->
      ignore (relabel_to_raw t (Value.to_int inv.Invocation.args.(0)) old)
  | _ -> ()

(* ------------------------------------------------------------------ *)
(* Invariants and reference results                                    *)
(* ------------------------------------------------------------------ *)

(** Total excess at a node (for checking conservation in tests). *)
let excess_of t u = t.excess.(u)

let height_of t u = t.height.(u)

(** The flow currently entering [sink]. *)
let inflow t sink =
  (* flow on (u, sink) = cap of the reverse (residual) edge (sink, u) minus
     its original capacity; with 0-capacity reverse edges this is just the
     residual cap on (sink, u) for edges that started at 0.  We instead sum
     excess, which equals inflow at the sink for a preflow. *)
  t.excess.(sink)

(* ------------------------------------------------------------------ *)
(* Replay model (the bounded-analysis reference semantics)             *)
(* ------------------------------------------------------------------ *)

(** Comparable encoding of the abstract state: per-node excess and height,
    plus every directed residual capacity.  Edge lists are emitted in
    sorted (src, dst) order so structurally equal states encode equally
    regardless of adjacency-array layout. *)
let abstract_snapshot t =
  let nodes =
    List.init t.n (fun u ->
        Value.List [ Value.Int u; Value.Int t.excess.(u); Value.Int t.height.(u) ])
  in
  let edges = ref [] in
  Array.iteri
    (fun u row ->
      Array.iter (fun e -> edges := (u, e.dst, e.cap) :: !edges) row)
    t.adj;
  let edges =
    List.sort compare !edges
    |> List.map (fun (u, v, c) -> Value.List [ Value.Int u; Value.Int v; Value.Int c ])
  in
  Value.Pair (Value.List nodes, Value.List edges)

(** A replayable model on a small fixed network (the reference semantics
    the spec analysis executes against).  Besides the four spec methods,
    [apply] accepts the pseudo-method [seed u amt] — excess injection used
    only by the analysis' initial-state setups, mirroring what saturating
    the source's out-edges does in a real preflow-push run. *)
let model ?(n = 4) ?(edges = [ (0, 1, 4); (1, 2, 3); (2, 3, 5); (0, 2, 2) ]) () :
    History.model =
  let fresh () = of_edges ~n edges in
  let t = ref (fresh ()) in
  {
    History.reset = (fun () -> t := fresh ());
    apply =
      (fun name args ->
        match (name, args) with
        | "seed", [| u; amt |] ->
            let u = Value.to_int u in
            !t.excess.(u) <- !t.excess.(u) + Value.to_int amt;
            Value.Unit
        | _ -> exec !t name args);
    snapshot = (fun () -> abstract_snapshot !t);
  }
