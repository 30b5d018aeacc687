(** Agglomerative clustering (Walter et al.), the paper's forward-gatekeeper
    case study (§5).

    A kd-tree holds all current cluster centres.  The operator picks a
    point [p], queries its nearest neighbour [n]; if the relationship is
    mutual ([nearest n = p]) the two are clustered: both are removed and a
    new point (their midpoint) is inserted and becomes new work.  Otherwise
    [p] is requeued (the globally closest pair is always mutual, so every
    pass makes progress).  The algorithm ends when a single cluster
    remains; the dendrogram records each merge.

    Variants: [kd-gk] — forward gatekeeper from the Fig. 4 specification
    (which is ONLINE-CHECKABLE but not SIMPLE); [kd-ml] — the STM baseline,
    which conflicts on the bounding-box updates even for operations that
    semantically commute. *)

open Commlat_core
open Commlat_adts
open Commlat_runtime

type t = {
  tree : Kdtree.t;
  mutable dendrogram : (Point.t * Point.t * Point.t) list;
      (** (a, b, merged) — newest first *)
  mu : Mutex.t;
}

let create ~dims () = { tree = Kdtree.create ~dims (); dendrogram = []; mu = Mutex.create () }

(** Insert the initial points (pre-speculative phase). *)
let load t (pts : Point.t array) = Array.iter (fun p -> ignore (Kdtree.add t.tree p)) pts

let midpoint (a : Point.t) (b : Point.t) : Point.t =
  Array.init (Array.length a) (fun i -> (a.(i) +. b.(i)) /. 2.0)

let kd_exec (t : t) name (inv : Invocation.t) =
  Kdtree.exec t.tree name inv.Invocation.args

let kd_nearest det (t : t) (txn : Txn.t) p =
  Point.of_value
    (Boost.invoke_ro det txn Kdtree.m_nearest [| Point.to_value p |]
       (kd_exec t "nearest"))

let kd_remove det (t : t) (txn : Txn.t) p =
  Value.to_bool
    (Boost.invoke det txn ~undo:(Kdtree.undo t.tree) Kdtree.m_remove
       [| Point.to_value p |] (kd_exec t "remove"))

let kd_add det (t : t) (txn : Txn.t) p =
  Value.to_bool
    (Boost.invoke det txn ~undo:(Kdtree.undo t.tree) Kdtree.m_add
       [| Point.to_value p |] (kd_exec t "add"))

(** One transaction: try to cluster [p] with its nearest neighbour. *)
let operator (t : t) (det : Detector.t) (txn : Txn.t) (p : Point.t) :
    Point.t list =
  let n = kd_nearest det t txn p in
  if Point.is_at_infinity n then
    (* [p] is gone (already clustered) or alone: no work left for it *)
    []
  else begin
    let m = kd_nearest det t txn n in
    if Point.equal m p then begin
      (* mutual nearest neighbours: cluster *)
      let removed_p = kd_remove det t txn p in
      if not removed_p then
        (* [p] vanished concurrently — the detector admitted this only if
           the ops commute, i.e. [p] was never there: retire this item. *)
        []
      else if not (kd_remove det t txn n) then begin
        (* [n] gone but [p] was present: cannot happen once conflicts are
           checked ([n] is our logged nearest-neighbour return value, so a
           concurrent removal of [n] conflicts); restore [p] defensively. *)
        ignore (kd_add det t txn p);
        [ p ]
      end
      else begin
        let c = midpoint p n in
        ignore (kd_add det t txn c);
        Mutex.protect t.mu (fun () ->
            let old = t.dendrogram in
            Txn.push_undo txn (fun () ->
                Mutex.protect t.mu (fun () -> t.dendrogram <- old));
            t.dendrogram <- (p, n, c) :: old);
        [ c ]
      end
    end
    else
      (* not mutual: requeue [p] (if still live) — it keeps its chance once
         the closer pair around [n] has been resolved.  The liveness check
         is a real [contains] invocation: a plain read here could observe an
         uncommitted concurrent removal of [p] and, if that transaction then
         aborted, leave a live point with no worklist item. *)
      let live =
        Value.to_bool
          (Boost.invoke_ro det txn Kdtree.m_contains [| Point.to_value p |]
             (kd_exec t "contains"))
      in
      if live then [ p ] else []
  end
