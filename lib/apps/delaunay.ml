(** Delaunay mesh refinement — the paper's flagship irregular application
    (Galois' DMR), on the {!Commlat_adts.Triset} worklist ADT.

    The mesh is a Bowyer–Watson triangulation of a point cloud inside a
    bounding square.  Refinement is Chew's algorithm: a triangle is {e bad}
    when its circumradius-to-shortest-edge ratio exceeds [sqrt 2]; fixing
    one inserts its circumcenter, which re-triangulates the {e cavity} —
    the connected set of triangles whose circumcircle contains the new
    point.

    Concurrency structure (the paper's §5 claim in miniature): the only
    {e protected} state is the triangle liveness set.  A refinement
    transaction [take]s every triangle of its cavity and [contains]-reads
    the boundary ring; the structural tables (vertex coordinates, triangle
    records, edge adjacency) are read {e dirty} under a plain mutex.  That
    is sound because any structural fact the transaction relies on is
    witnessed by a detector operation on the triangle that carries it: a
    competitor changing the cavity or its ring must [take] one of those
    ids first, which the commutativity spec flags as a conflict — so the
    loser aborts, rolls its takes and structural edits back through the
    undo log, and retries against the committed mesh.  Disjoint cavities
    share no ids and proceed in parallel. *)

open Commlat_core
open Commlat_adts
open Commlat_runtime

type tri = { v1 : int; v2 : int; v3 : int }  (** vertex ids, sorted *)

type t = {
  mutable pts : (float * float) array;  (** vertex coordinates, append-only *)
  mutable npts : int;
  tris : (int, tri) Hashtbl.t;  (** live triangle id -> vertices *)
  edge_tris : (int * int, int list) Hashtbl.t;
      (** sorted vertex pair -> ids of the (≤ 2) triangles sharing it *)
  live : Triset.t;  (** the protected liveness set; keys = [tris] keys *)
  mutable next_id : int;  (** ids are minted once and never reused *)
  mu : Mutex.t;  (** guards the structural tables, never held across a
                     detector call (guard acquisition can suspend) *)
  size : float;
  max_pts : int;  (** refinement stops inserting past this many vertices *)
}

(* ------------------------------------------------------------------ *)
(* Geometry                                                            *)
(* ------------------------------------------------------------------ *)

let dist2 (ax, ay) (bx, by) =
  let dx = ax -. bx and dy = ay -. by in
  (dx *. dx) +. (dy *. dy)

(** Circumcenter and squared circumradius; [None] for (near-)degenerate
    triangles. *)
let circumcircle ((ax, ay) as pa) (bx, by) (cx, cy) :
    ((float * float) * float) option =
  let d =
    2.0 *. ((ax *. (by -. cy)) +. (bx *. (cy -. ay)) +. (cx *. (ay -. by)))
  in
  if Float.abs d < 1e-9 then None
  else
    let a2 = (ax *. ax) +. (ay *. ay)
    and b2 = (bx *. bx) +. (by *. by)
    and c2 = (cx *. cx) +. (cy *. cy) in
    let ux =
      ((a2 *. (by -. cy)) +. (b2 *. (cy -. ay)) +. (c2 *. (ay -. by))) /. d
    and uy =
      ((a2 *. (cx -. bx)) +. (b2 *. (ax -. cx)) +. (c2 *. (bx -. ax))) /. d
    in
    Some ((ux, uy), dist2 pa (ux, uy))

let tri_edges { v1; v2; v3 } = [ (v1, v2); (v1, v3); (v2, v3) ]

let mk_tri a b c =
  match List.sort compare [ a; b; c ] with
  | [ v1; v2; v3 ] -> { v1; v2; v3 }
  | _ -> assert false

let pt t i = Mutex.protect t.mu (fun () -> t.pts.(i))

let tri_coords t tr =
  Mutex.protect t.mu (fun () -> (t.pts.(tr.v1), t.pts.(tr.v2), t.pts.(tr.v3)))

(** Strict containment in the circumcircle, with a relative slack so
    cocircular configurations (four lattice points on one circle) land on
    the "outside" side deterministically. *)
let in_circum t tr p =
  let pa, pb, pc = tri_coords t tr in
  match circumcircle pa pb pc with
  | None -> false
  | Some (cc, r2) -> dist2 p cc < r2 *. (1.0 -. 1e-9)

(** [Some center] iff the triangle is bad (Chew: circumradius² > 2 ×
    shortest-edge²) {e and} its circumcenter is strictly inside the
    bounding square — centers that escape the box are left alone, as in
    the usual bounded-refinement formulation. *)
let refine_target t tr : (float * float) option =
  let pa, pb, pc = tri_coords t tr in
  match circumcircle pa pb pc with
  | None -> None
  | Some (((cx, cy) as cc), r2) ->
      let min_e2 =
        Float.min (dist2 pa pb) (Float.min (dist2 pa pc) (dist2 pb pc))
      in
      if
        r2 > 2.0 *. min_e2 *. (1.0 +. 1e-9)
        && cx > 0.0 && cx < t.size && cy > 0.0 && cy < t.size
      then Some cc
      else None

(* ------------------------------------------------------------------ *)
(* Structural tables (caller holds [mu], or is single-threaded)         *)
(* ------------------------------------------------------------------ *)

let add_point t p =
  if t.npts = Array.length t.pts then begin
    let np = Array.make ((2 * Array.length t.pts) + 8) (0.0, 0.0) in
    Array.blit t.pts 0 np 0 t.npts;
    t.pts <- np
  end;
  t.pts.(t.npts) <- p;
  t.npts <- t.npts + 1;
  t.npts - 1

let add_tri_struct t id tr =
  Hashtbl.replace t.tris id tr;
  List.iter
    (fun e ->
      let prev = try Hashtbl.find t.edge_tris e with Not_found -> [] in
      Hashtbl.replace t.edge_tris e (id :: prev))
    (tri_edges tr)

let remove_tri_struct t id tr =
  Hashtbl.remove t.tris id;
  List.iter
    (fun e ->
      match
        List.filter
          (fun x -> x <> id)
          (try Hashtbl.find t.edge_tris e with Not_found -> [])
      with
      | [] -> Hashtbl.remove t.edge_tris e
      | rest -> Hashtbl.replace t.edge_tris e rest)
    (tri_edges tr)

(** Edges used by exactly one triangle of the cavity: its boundary. *)
let boundary_edges (trs : tri list) =
  let cnt = Hashtbl.create 16 in
  List.iter
    (fun tr ->
      List.iter
        (fun e ->
          Hashtbl.replace cnt e
            (1 + Option.value ~default:0 (Hashtbl.find_opt cnt e)))
        (tri_edges tr))
    trs;
  Hashtbl.fold (fun e c acc -> if c = 1 then e :: acc else acc) cnt []

(** Mint, record and publish a triangle (sequential paths only). *)
let publish t tr =
  let id = t.next_id in
  t.next_id <- id + 1;
  add_tri_struct t id tr;
  ignore (Triset.add t.live id);
  id

(* ------------------------------------------------------------------ *)
(* Construction: sequential Bowyer–Watson                              *)
(* ------------------------------------------------------------------ *)

(** Insert one point into the current (Delaunay) triangulation: collect
    the in-circle cavity by full scan, re-triangulate its boundary fan.
    Skips points whose insertion would create a degenerate triangle. *)
let insert_seq t p =
  let cav =
    Hashtbl.fold
      (fun cid ctr acc -> if in_circum t ctr p then (cid, ctr) :: acc else acc)
      t.tris []
    |> List.sort compare
  in
  if cav <> [] then begin
    let boundary = List.sort compare (boundary_edges (List.map snd cav)) in
    let fine =
      boundary <> []
      && List.for_all
           (fun (u, v) -> Option.is_some (circumcircle (pt t u) (pt t v) p))
           boundary
    in
    if fine then begin
      let pi = add_point t p in
      List.iter
        (fun (cid, ctr) ->
          remove_tri_struct t cid ctr;
          ignore (Triset.take t.live cid))
        cav;
      List.iter (fun (u, v) -> ignore (publish t (mk_tri u v pi))) boundary
    end
  end

(** Triangulate [input] inside the square [\[0, size\]²] (all points must
    be strictly inside): four corner vertices, two seed triangles, then
    incremental insertion. *)
let create ?(max_pts = 4096) ?(size = 100.0) (input : (float * float) array) :
    t =
  if size <= 0.0 then invalid_arg "Delaunay.create: size must be positive";
  let t =
    {
      pts = Array.make (Array.length input + 8) (0.0, 0.0);
      npts = 0;
      tris = Hashtbl.create 16;
      edge_tris = Hashtbl.create 16;
      live = Triset.create ();
      next_id = 0;
      mu = Mutex.create ();
      size;
      max_pts;
    }
  in
  let c0 = add_point t (0.0, 0.0) in
  let c1 = add_point t (size, 0.0) in
  let c2 = add_point t (size, size) in
  let c3 = add_point t (0.0, size) in
  ignore (publish t (mk_tri c0 c1 c2));
  ignore (publish t (mk_tri c0 c2 c3));
  Array.iter (insert_seq t) input;
  t

(** An independent mesh equal to [t]: refining the copy leaves [t] as it
    was, and the copy gets its own [mu].  Each table is copied at its own
    size.  Refinement reads the tables only by key and sorts whatever it
    folds out of them, so it refines a copy exactly as it would [t],
    whatever the bucket layout.  [t] is only read, so several domains may
    copy one mesh at once as long as nothing refines it. *)
let copy t =
  {
    t with
    pts = Array.copy t.pts;
    tris = Hashtbl.copy t.tris;
    edge_tris = Hashtbl.copy t.edge_tris;
    live = Triset.copy t.live;
    mu = Mutex.create ();
  }

(* ------------------------------------------------------------------ *)
(* Refinement                                                          *)
(* ------------------------------------------------------------------ *)

(** Refinable bad triangles (the initial worklist), sorted. *)
let bad_ids t =
  if t.npts >= t.max_pts then []
  else
    List.filter
      (fun id ->
        match Hashtbl.find_opt t.tris id with
        | Some tr -> Option.is_some (refine_target t tr)
        | None -> false)
      (Triset.elements t.live)

(** The refinement operator, as one transaction under a conflict detector:
    claim the cavity through the liveness set, read-protect the boundary
    ring, then apply the structural rewrite with undo actions registered
    for rollback.  Returns the new bad triangle ids (follow-on work).

    Races surface in exactly two ways, both handled: a {e committed}
    competing refinement makes some structural read inconsistent with the
    liveness set ([take]/[contains] returns false, or an adjacency entry
    dangles) — we raise {!Detector.Conflict} against ourselves and let the
    runtime retry; an {e in-flight} competitor holds a live invocation on
    a shared id, and the detector itself raises when our claim does not
    commute with it. *)
let operator (t : t) (det : Detector.t) (txn : Txn.t) (id : int) : int list =
  let live_op name id' =
    let meth =
      match name with "take" -> Triset.m_take | _ -> Triset.m_add
    in
    Value.to_bool
      (Boost.invoke det txn
         ~undo:(Triset.undo t.live)
         meth
         [| Value.Int id' |]
         (fun inv -> Triset.exec t.live name inv.Invocation.args))
  in
  let live_ro id' =
    Value.to_bool
      (Boost.invoke_ro det txn Triset.m_contains
         [| Value.Int id' |]
         (fun inv -> Triset.exec t.live "contains" inv.Invocation.args))
  in
  let stale () =
    Detector.conflict ~txn:(Txn.id txn) ~with_:(Txn.id txn)
      "delaunay: cavity raced a committed refinement"
  in
  if not (live_ro id) then []
  else
    match Mutex.protect t.mu (fun () -> Hashtbl.find_opt t.tris id) with
    | None -> stale ()
    | Some tr -> (
        match refine_target t tr with
        | None -> []
        | Some _ when t.npts >= t.max_pts -> []
        | Some cc ->
            if not (live_op "take" id) then stale ();
            (* cavity: BFS over the connected in-circle region, claiming
               members as they are discovered; ring: the just-outside
               neighbours, whose liveness our boundary depends on *)
            let cav : (int, tri) Hashtbl.t = Hashtbl.create 8 in
            let ring : (int, unit) Hashtbl.t = Hashtbl.create 8 in
            Hashtbl.replace cav id tr;
            let queue = Queue.create () in
            Queue.add tr queue;
            while not (Queue.is_empty queue) do
              let tr0 = Queue.pop queue in
              List.iter
                (fun e ->
                  let nbrs =
                    Mutex.protect t.mu (fun () ->
                        try Hashtbl.find t.edge_tris e with Not_found -> [])
                  in
                  List.iter
                    (fun nid ->
                      if
                        (not (Hashtbl.mem cav nid))
                        && not (Hashtbl.mem ring nid)
                      then
                        match
                          Mutex.protect t.mu (fun () ->
                              Hashtbl.find_opt t.tris nid)
                        with
                        | None -> stale ()
                        | Some ntr ->
                            if in_circum t ntr cc then begin
                              if not (live_op "take" nid) then stale ();
                              Hashtbl.replace cav nid ntr;
                              Queue.add ntr queue
                            end
                            else begin
                              if not (live_ro nid) then stale ();
                              Hashtbl.replace ring nid ()
                            end)
                    nbrs)
                (tri_edges tr0)
            done;
            let cavl =
              Hashtbl.fold (fun cid ctr acc -> (cid, ctr) :: acc) cav []
              |> List.sort compare
            in
            let boundary =
              List.sort compare (boundary_edges (List.map snd cavl))
            in
            let fine =
              boundary <> []
              && List.for_all
                   (fun (u, v) ->
                     Option.is_some (circumcircle (pt t u) (pt t v) cc))
                   boundary
            in
            if not fine then begin
              (* degenerate insertion: give the cavity back — the
                 transaction nets to zero on the protected set *)
              List.iter (fun (cid, _) -> ignore (live_op "add" cid)) cavl;
              []
            end
            else begin
              (* structural rewrite under the mutex (detector calls stay
                 outside it); every edit registers its inverse.  The
                 vertex append is deliberately not undone: ids are
                 append-only, and an aborted refinement merely leaves an
                 unreferenced coordinate behind. *)
              let news =
                Mutex.protect t.mu (fun () ->
                    let pi = add_point t cc in
                    List.iter
                      (fun (cid, ctr) ->
                        remove_tri_struct t cid ctr;
                        Txn.push_undo txn (fun () ->
                            Mutex.protect t.mu (fun () ->
                                add_tri_struct t cid ctr)))
                      cavl;
                    List.map
                      (fun (u, v) ->
                        let nid = t.next_id in
                        t.next_id <- nid + 1;
                        let ntr = mk_tri u v pi in
                        add_tri_struct t nid ntr;
                        Txn.push_undo txn (fun () ->
                            Mutex.protect t.mu (fun () ->
                                remove_tri_struct t nid ntr));
                        (nid, ntr))
                      boundary)
              in
              List.iter (fun (nid, _) -> ignore (live_op "add" nid)) news;
              List.filter_map
                (fun (nid, ntr) ->
                  if Option.is_some (refine_target t ntr) then Some nid
                  else None)
                news
            end)

(** Sequential reference refinement (same cavity policy, no detector). *)
let refine_seq t =
  let q = Queue.create () in
  List.iter (fun id -> Queue.add id q) (bad_ids t);
  while not (Queue.is_empty q) do
    let id = Queue.pop q in
    if Triset.contains t.live id then
      match Hashtbl.find_opt t.tris id with
      | None -> ()
      | Some tr -> (
          match refine_target t tr with
          | None -> ()
          | Some _ when t.npts >= t.max_pts -> ()
          | Some cc ->
              let cav = Hashtbl.create 8 in
              Hashtbl.replace cav id tr;
              let bfs = Queue.create () in
              Queue.add tr bfs;
              while not (Queue.is_empty bfs) do
                let tr0 = Queue.pop bfs in
                List.iter
                  (fun e ->
                    List.iter
                      (fun nid ->
                        if not (Hashtbl.mem cav nid) then
                          match Hashtbl.find_opt t.tris nid with
                          | Some ntr when in_circum t ntr cc ->
                              Hashtbl.replace cav nid ntr;
                              Queue.add ntr bfs
                          | _ -> ())
                      (try Hashtbl.find t.edge_tris e with Not_found -> []))
                  (tri_edges tr0)
              done;
              let cavl =
                Hashtbl.fold (fun cid ctr acc -> (cid, ctr) :: acc) cav []
                |> List.sort compare
              in
              let boundary =
                List.sort compare (boundary_edges (List.map snd cavl))
              in
              if
                boundary <> []
                && List.for_all
                     (fun (u, v) ->
                       Option.is_some (circumcircle (pt t u) (pt t v) cc))
                     boundary
              then begin
                let pi = add_point t cc in
                List.iter
                  (fun (cid, ctr) ->
                    remove_tri_struct t cid ctr;
                    ignore (Triset.take t.live cid))
                  cavl;
                List.iter
                  (fun (u, v) ->
                    let nid = publish t (mk_tri u v pi) in
                    match Hashtbl.find_opt t.tris nid with
                    | Some ntr when Option.is_some (refine_target t ntr) ->
                        Queue.add nid q
                    | _ -> ())
                  boundary
              end)
  done

(* ------------------------------------------------------------------ *)
(* Detector construction and the parallel driver                       *)
(* ------------------------------------------------------------------ *)

(** Abstract locking (and the global lock) need the SIMPLE strengthening;
    gatekeepers get the precise claim-set spec. *)
let spec_for (scheme : Protect.scheme) =
  match scheme with
  | Protect.Abstract_lock | Protect.Sharded (Protect.Abstract_lock, _)
  | Protect.Global_lock ->
      Triset.simple_spec ()
  | _ -> Triset.precise_spec ()

let detector ?obs t scheme =
  Protect.protect ?obs ~spec:(spec_for scheme)
    ~adt:(Protect.adt ~hooks:(Triset.hooks t.live) ())
    scheme

(** Refine to quiescence on real domains. *)
let refine ?(processors = 4) ~detector:det t : Executor.stats =
  Executor.run_rounds ~processors ~detector:det
    ~operator:(fun txn id -> operator t det txn id)
    (bad_ids t)

(* ------------------------------------------------------------------ *)
(* Checkers                                                            *)
(* ------------------------------------------------------------------ *)

let live_tris t =
  Hashtbl.fold (fun id tr acc -> (id, tr) :: acc) t.tris []
  |> List.sort compare

(** The Delaunay property over the live triangulation: no vertex of the
    mesh lies strictly inside any triangle's circumcircle, and no triangle
    is degenerate.  (Vertices are collected from the live triangles, so
    coordinates orphaned by aborted transactions don't count.)  Returns a
    description of the first violation found: triangles are checked in
    the table's iteration order, each against the vertices in ascending
    id order, so when several triangles break at once which one is named
    depends on the table's bucket layout. *)
let delaunay_violation t : string option =
  let is_live = Array.make t.npts false in
  Hashtbl.iter
    (fun _ tr ->
      is_live.(tr.v1) <- true;
      is_live.(tr.v2) <- true;
      is_live.(tr.v3) <- true)
    t.tris;
  (* the live vertices in ascending id order, coordinates unboxed *)
  let ids = Array.make t.npts 0
  and xs = Array.make t.npts 0.0
  and ys = Array.make t.npts 0.0 in
  let n = ref 0 in
  for v = 0 to t.npts - 1 do
    if is_live.(v) then begin
      let x, y = t.pts.(v) in
      ids.(!n) <- v;
      xs.(!n) <- x;
      ys.(!n) <- y;
      incr n
    end
  done;
  let n = !n in
  let bad = ref None in
  Hashtbl.iter
    (fun id tr ->
      if Option.is_none !bad then
        match circumcircle t.pts.(tr.v1) t.pts.(tr.v2) t.pts.(tr.v3) with
        | None -> bad := Some (Fmt.str "triangle %d is degenerate" id)
        | Some ((cx, cy), r2) ->
            let lim = r2 *. (1.0 -. 1e-7) in
            let j = ref 0 in
            while !j < n do
              let v = ids.(!j) in
              let dx = xs.(!j) -. cx and dy = ys.(!j) -. cy in
              if
                v <> tr.v1 && v <> tr.v2 && v <> tr.v3
                && (dx *. dx) +. (dy *. dy) < lim
              then begin
                bad :=
                  Some
                    (Fmt.str "vertex %d inside circumcircle of triangle %d" v
                       id);
                j := n
              end
              else incr j
            done)
    t.tris;
  !bad

(** Total area of the live triangles — must equal [size²] whenever the
    mesh is quiescent (the box stays perfectly tiled). *)
let area_total t =
  Hashtbl.fold
    (fun _ tr acc ->
      let ax, ay = t.pts.(tr.v1)
      and bx, by = t.pts.(tr.v2)
      and cx, cy = t.pts.(tr.v3) in
      acc
      +. (Float.abs (((bx -. ax) *. (cy -. ay)) -. ((cx -. ax) *. (by -. ay)))
          /. 2.0))
    t.tris 0.0
