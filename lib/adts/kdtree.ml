(** Kd-trees (paper §2.5): nearest-neighbour search over a dynamic point
    set.

    The implementation follows the paper's description: points live only in
    leaves, each interior node records its splitting plane, and every node
    stores the bounding box of the points below it to prune [nearest]
    traversals.  [add]/[remove] update the bounding boxes along the
    root-to-leaf path — the source of the {e memory-level} conflicts that
    make TM-style detection serialize operations that semantically commute
    (clustering case study, §5).

    Concrete cell accesses (node bounding boxes, leaf payloads) are reported
    through a {!Mem_trace.t} so the STM baseline and the ParaMeter profiler
    can observe them. *)

open Commlat_core

type node =
  | Empty
  | Leaf of { id : int; pt : Point.t }
  | Node of inner

and inner = {
  id : int;
  dim : int;
  split : float;
  mutable lo : node;
  mutable hi : node;
  (* bounding box of all points below, inclusive *)
  bb_min : float array;
  bb_max : float array;
}

type t = {
  dims : int;
  mutable root : node;
  mutable count : int;
  mutable next_id : int;
  mutable tracer : Mem_trace.t;
}

let create ~dims () = { dims; root = Empty; count = 0; next_id = 0; tracer = Mem_trace.null }
let set_tracer t tr = t.tracer <- tr
let size t = t.count
let clear t =
  t.root <- Empty;
  t.count <- 0

let fresh_id t =
  let id = t.next_id in
  t.next_id <- id + 1;
  id

let node_id = function Empty -> -1 | Leaf l -> l.id | Node n -> n.id

(* ---------------- bounding boxes ---------------- *)

let read_bb t n =
  t.tracer.Mem_trace.read n.id

let grow_bb t n (p : Point.t) =
  (* Returns true if the box actually changed; only changes are writes. *)
  let changed = ref false in
  Array.iteri
    (fun i x ->
      if x < n.bb_min.(i) then (
        n.bb_min.(i) <- x;
        changed := true);
      if x > n.bb_max.(i) then (
        n.bb_max.(i) <- x;
        changed := true))
    p;
  t.tracer.Mem_trace.read n.id;
  if !changed then t.tracer.Mem_trace.write n.id

let subtree_bb t = function
  | Empty -> None
  | Leaf l ->
      t.tracer.Mem_trace.read l.id;
      Some (Array.copy l.pt, Array.copy l.pt)
  | Node n ->
      t.tracer.Mem_trace.read n.id;
      Some (Array.copy n.bb_min, Array.copy n.bb_max)

let refresh_bb t (n : inner) =
  (* Recompute n's box exactly from its children (used on the remove path). *)
  let boxes = List.filter_map (subtree_bb t) [ n.lo; n.hi ] in
  match boxes with
  | [] -> ()
  | (mn0, mx0) :: rest ->
      let mn = Array.copy mn0 and mx = Array.copy mx0 in
      List.iter
        (fun (m, x) ->
          Array.iteri (fun i v -> if v < mn.(i) then mn.(i) <- v) m;
          Array.iteri (fun i v -> if v > mx.(i) then mx.(i) <- v) x)
        rest;
      let changed = ref false in
      Array.iteri
        (fun i v ->
          if not (Float.equal n.bb_min.(i) v) then (
            n.bb_min.(i) <- v;
            changed := true))
        mn;
      Array.iteri
        (fun i v ->
          if not (Float.equal n.bb_max.(i) v) then (
            n.bb_max.(i) <- v;
            changed := true))
        mx;
      if !changed then t.tracer.Mem_trace.write n.id

(* Distance from a query point to a bounding box (0 inside). *)
let bb_dist2 (q : Point.t) bb_min bb_max =
  let s = ref 0.0 in
  Array.iteri
    (fun i x ->
      let d = if x < bb_min.(i) then bb_min.(i) -. x else if x > bb_max.(i) then x -. bb_max.(i) else 0.0 in
      s := !s +. (d *. d))
    q;
  !s

(* ---------------- add ---------------- *)

let split_leaf t (lp : Point.t) (p : Point.t) : node =
  (* Choose the dimension where the two points differ most. *)
  let dim = ref 0 and best = ref neg_infinity in
  Array.iteri
    (fun i x ->
      let d = Float.abs (x -. p.(i)) in
      if d > !best then (
        best := d;
        dim := i))
    lp;
  let dim = !dim in
  (* Split at the smaller of the two coordinates: "x <= split" then sends
     exactly one of the points low, whatever the float rounding — a
     midpoint split can round onto one of the coordinates and strand both
     points on one side. *)
  let split = Float.min lp.(dim) p.(dim) in
  let leaf q = Leaf { id = fresh_id t; pt = q } in
  let l1 = leaf lp and l2 = leaf p in
  let lo, hi = if lp.(dim) <= split then (l1, l2) else (l2, l1) in
  let bb_min = Array.init (Array.length p) (fun i -> Float.min lp.(i) p.(i)) in
  let bb_max = Array.init (Array.length p) (fun i -> Float.max lp.(i) p.(i)) in
  let n = { id = fresh_id t; dim; split; lo; hi; bb_min; bb_max } in
  t.tracer.Mem_trace.write n.id;
  Node n

let add t (p : Point.t) : bool =
  if Array.length p <> t.dims then invalid_arg "Kdtree.add: wrong dimension";
  let rec go = function
    | Empty ->
        let l = Leaf { id = fresh_id t; pt = p } in
        t.tracer.Mem_trace.write (node_id l);
        (l, true)
    | Leaf l as leaf ->
        t.tracer.Mem_trace.read l.id;
        if Point.equal l.pt p then (leaf, false) else (split_leaf t l.pt p, true)
    | Node n as node ->
        let child = if p.(n.dim) <= n.split then n.lo else n.hi in
        let child', added = go child in
        if added then (
          if p.(n.dim) <= n.split then n.lo <- child' else n.hi <- child';
          grow_bb t n p);
        (node, added)
  in
  let root', added = go t.root in
  t.root <- root';
  if added then t.count <- t.count + 1;
  added

(* ---------------- remove ---------------- *)

let remove t (p : Point.t) : bool =
  let rec go = function
    | Empty -> (Empty, false)
    | Leaf l as leaf ->
        t.tracer.Mem_trace.read l.id;
        if Point.equal l.pt p then (
          t.tracer.Mem_trace.write l.id;
          (Empty, true))
        else (leaf, false)
    | Node n as node ->
        let on_lo = p.(n.dim) <= n.split in
        let child = if on_lo then n.lo else n.hi in
        let child', removed = go child in
        if not removed then (node, false)
        else (
          if on_lo then n.lo <- child' else n.hi <- child';
          match (n.lo, n.hi) with
          | Empty, other | other, Empty ->
              (* collapse single-child interior nodes *)
              t.tracer.Mem_trace.write n.id;
              (other, true)
          | _ ->
              refresh_bb t n;
              (node, true))
  in
  let root', removed = go t.root in
  t.root <- root';
  if removed then t.count <- t.count - 1;
  removed

let contains t (p : Point.t) : bool =
  let rec go = function
    | Empty -> false
    | Leaf l ->
        t.tracer.Mem_trace.read l.id;
        Point.equal l.pt p
    | Node n ->
        t.tracer.Mem_trace.read n.id;
        go (if p.(n.dim) <= n.split then n.lo else n.hi)
  in
  go t.root

(* ---------------- nearest ---------------- *)

(** Nearest point to [q], {e excluding} [q] itself if present — the query
    convention agglomerative clustering needs (§5: a point's nearest
    neighbour is another point; "the point at infinity is the closest point
    if the data set contains a single point").  Returns the point at
    infinity when there is no other point. *)
let nearest t (q : Point.t) : Point.t =
  let best_d2 = ref infinity and best = ref (Point.at_infinity t.dims) in
  let rec go = function
    | Empty -> ()
    | Leaf l ->
        t.tracer.Mem_trace.read l.id;
        let d2 = Point.dist2 q l.pt in
        if d2 < !best_d2 && not (Point.equal l.pt q) then (
          best_d2 := d2;
          best := l.pt)
    | Node n ->
        read_bb t n;
        if bb_dist2 q n.bb_min n.bb_max < !best_d2 then (
          let near, far = if q.(n.dim) <= n.split then (n.lo, n.hi) else (n.hi, n.lo) in
          go near;
          (match far with
          | Empty -> ()
          | Leaf _ -> go far
          | Node f ->
              read_bb t f;
              if bb_dist2 q f.bb_min f.bb_max < !best_d2 then go far))
  in
  go t.root;
  !best

let elements t =
  let rec go acc = function
    | Empty -> acc
    | Leaf l -> l.pt :: acc
    | Node n -> go (go acc n.lo) n.hi
  in
  go [] t.root |> List.sort (fun a b -> Stdlib.compare (Array.to_list a) (Array.to_list b))

(* ------------------------------------------------------------------ *)
(* Specification (paper Fig. 4)                                        *)
(* ------------------------------------------------------------------ *)

let m_add = Invocation.meth "add" 1
let m_remove = Invocation.meth "remove" 1
let m_nearest = Invocation.meth ~mutates:false "nearest" 1
let m_contains = Invocation.meth ~mutates:false "contains" 1
let methods = [ m_add; m_remove; m_nearest; m_contains ]

(** Fig. 4.  [dist] is a pure value function, so all conditions are
    state-free (and hence ONLINE-CHECKABLE, implementable by a forward
    gatekeeper) but {e not} SIMPLE: condition (2) compares distances, which
    no abstract-locking scheme can capture (Theorem 1 discussion). *)
let spec () =
  let open Formula in
  let a = arg1 0 and b = arg2 0 in
  let dist x y = vfun "dist" [ x; y ] in
  let neither = eq ret1 (cbool false) &&& eq ret2 (cbool false) in
  let s =
    Spec.create
      ~vfuns:
        [
          ( "dist",
            function
            | [ x; y ] -> Value.Float (Point.dist_value x y)
            | _ -> Value.type_error "dist/2" );
        ]
      ~adt:"kdtree" methods
  in
  (* (1) nearest/nearest always commute (read-only) *)
  Spec.add_sym s "nearest" "nearest" True;
  (* (2) nearest(a)/r1 ; add(b)/r2 : r2 = false \/ dist(a,b) > dist(a,r1) *)
  Spec.add_sym s "nearest" "add" (eq ret2 (cbool false) ||| gt (dist a b) (dist a ret1));
  (* (3) nearest(a)/r1 ; remove(b)/r2 : (a != b /\ r1 != b) \/ r2 = false.
     The reverse orientation is NOT the syntactic mirror: once the remove
     has happened first, swapping exposes the removed point to the query,
     so the removed point must be strictly farther than the reported
     neighbour (caught by the Fig.4 soundness property test). *)
  Spec.add_directed s ~first:"nearest" ~second:"remove"
    ((ne a b &&& ne ret1 b) ||| eq ret2 (cbool false));
  Spec.add_directed s ~first:"remove" ~second:"nearest"
    (eq ret1 (cbool false) ||| gt (dist b a) (dist b ret2));
  (* (4)-(6): set-like conditions *)
  Spec.add_sym s "remove" "remove" (ne a b ||| neither);
  Spec.add_sym s "remove" "add" (ne a b ||| neither);
  Spec.add_sym s "add" "add" (ne a b ||| neither);
  (* membership queries: set-like (paper Fig. 2 conditions (3) and (5)) *)
  Spec.add_sym s "contains" "contains" True;
  Spec.add_sym s "contains" "nearest" True;
  Spec.add_sym s "contains" "add" (ne a b ||| eq ret2 (cbool false));
  Spec.add_sym s "contains" "remove" (ne a b ||| eq ret2 (cbool false));
  s

(* ------------------------------------------------------------------ *)
(* Execution plumbing                                                  *)
(* ------------------------------------------------------------------ *)

let exec (t : t) name (args : Value.t array) =
  match (name, args) with
  | "add", [| v |] -> Value.Bool (add t (Point.of_value v))
  | "remove", [| v |] -> Value.Bool (remove t (Point.of_value v))
  | "nearest", [| v |] -> Point.to_value (nearest t (Point.of_value v))
  | "contains", [| v |] -> Value.Bool (contains t (Point.of_value v))
  | _ -> Value.type_error "kdtree: bad invocation %s" name

let invoke (det : Detector.t) (t : t) ~txn name (p : Point.t) : Value.t =
  let meth =
    match name with
    | "add" -> m_add
    | "remove" -> m_remove
    | "nearest" -> m_nearest
    | "contains" -> m_contains
    | _ -> invalid_arg ("kdtree: no method " ^ name)
  in
  let inv = Invocation.make ~txn meth [| Point.to_value p |] in
  det.Detector.on_invoke inv (fun () -> exec t name inv.Invocation.args)

let undo (t : t) (inv : Invocation.t) =
  match (inv.Invocation.meth.name, inv.Invocation.ret) with
  | "add", Value.Bool true -> ignore (remove t (Point.of_value inv.Invocation.args.(0)))
  | "remove", Value.Bool true -> ignore (add t (Point.of_value inv.Invocation.args.(0)))
  | _ -> ()

let hooks (t : t) =
  Gatekeeper.hooks
    ~undo:(fun inv -> undo t inv)
    ~redo:(fun inv -> ignore (exec t inv.Invocation.meth.name inv.Invocation.args))
    (fun name _ -> raise (Formula.Unsupported ("kdtree sfun " ^ name)))

let model ~dims () : History.model =
  let t = create ~dims () in
  {
    History.reset = (fun () -> clear t);
    apply = exec t;
    snapshot =
      (fun () -> Value.List (List.map (fun p -> Point.to_value p) (elements t)));
  }
