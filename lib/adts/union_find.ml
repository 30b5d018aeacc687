(** Disjoint-set union-find (paper §2.5): a disjoint-set forest with
    union-by-rank {e and path compression} — the paper's flagship example of
    an ADT whose concrete state changes (compression rewrites parent
    pointers on [find]) while its abstract state does not, defeating
    memory-level conflict detection.

    The abstract state is the partition into disjoint sets plus the
    representative and rank of each set; the helper functions [rep], [rank]
    and [loser] of Fig. 5 are exposed as state functions for the formula
    interpreter.  Its specification is the paper's only GENERAL one
    (conditions (1)–(2) evaluate [rep]/[loser] in an earlier state using
    later arguments), so it exercises the general gatekeeper's rollback
    machinery: every mutating invocation records its concrete writes, and
    {!undo}/{!redo} replay them. *)

open Commlat_core

type write = { cell : [ `Parent | `Rank ]; idx : int; old_v : int; new_v : int }

type t = {
  mutable parent : int array;
  mutable rank : int array;
  mutable n : int;
  mutable tracer : Mem_trace.t;
  mutable current_log : write list;  (** writes of the op being executed *)
  mutable logging : bool;
  logs : (int, write list) Hashtbl.t;  (** invocation uid -> its writes *)
}

let create ?(capacity = 16) () =
  {
    parent = Array.make capacity (-1);
    rank = Array.make capacity 0;
    n = 0;
    tracer = Mem_trace.null;
    current_log = [];
    logging = false;
    logs = Hashtbl.create 16;
  }

let set_tracer t tr = t.tracer <- tr
let size t = t.n

let ensure_capacity t i =
  if i >= Array.length t.parent then (
    let cap = max (i + 1) (2 * Array.length t.parent) in
    let parent = Array.make cap (-1) and rank = Array.make cap 0 in
    Array.blit t.parent 0 parent 0 t.n;
    Array.blit t.rank 0 rank 0 t.n;
    t.parent <- parent;
    t.rank <- rank)

(* Concrete cell ids for the memory tracer: parent cell of i is 2i, rank
   cell is 2i+1. *)
let parent_cell i = 2 * i
let rank_cell i = (2 * i) + 1

let write_parent t i v =
  if t.logging then
    t.current_log <- { cell = `Parent; idx = i; old_v = t.parent.(i); new_v = v } :: t.current_log;
  t.parent.(i) <- v;
  t.tracer.Mem_trace.write (parent_cell i)

let write_rank t i v =
  if t.logging then
    t.current_log <- { cell = `Rank; idx = i; old_v = t.rank.(i); new_v = v } :: t.current_log;
  t.rank.(i) <- v;
  t.tracer.Mem_trace.write (rank_cell i)

(** [create_element t] makes a fresh singleton set and returns its element.
    The paper's [create(a)]; it commutes with nothing (Fig. 5 (3,5,6)), so
    applications create all elements before the speculative phase. *)
let create_element t =
  let i = t.n in
  ensure_capacity t i;
  t.n <- i + 1;
  write_parent t i i;
  write_rank t i 0;
  i

let create_elements t k = List.init k (fun _ -> create_element t)

(* Representative without path compression (and without trace noise):
   used by the abstract-state helpers, which must not mutate. *)
let rec rep_ro t i = if t.parent.(i) = i then i else rep_ro t t.parent.(i)

let rec root t j =
  t.tracer.Mem_trace.read (parent_cell j);
  if t.parent.(j) = j then j else root t t.parent.(j)

let rec compress t r j =
  if t.parent.(j) <> r then (
    let next = t.parent.(j) in
    write_parent t j r;
    compress t r next)

(** [find] with full path compression: every node on the walk is re-pointed
    at the root — concrete writes with no abstract effect. *)
let find t i =
  if i < 0 || i >= t.n then invalid_arg "Union_find.find: unknown element";
  let r = root t i in
  compress t r i;
  r

(** [union a b]: merge the sets of [a] and [b] by rank.  Returns [true] if
    two distinct sets were merged. *)
let union t a b =
  let ra = find t a and rb = find t b in
  if ra = rb then false
  else begin
    t.tracer.Mem_trace.read (rank_cell ra);
    t.tracer.Mem_trace.read (rank_cell rb);
    let win, lose =
      if t.rank.(ra) > t.rank.(rb) then (ra, rb)
      else if t.rank.(ra) < t.rank.(rb) then (rb, ra)
      else (ra, rb)
      (* equal ranks: [b]'s representative loses, matching Fig. 5's
         definition of [loser] *)
    in
    write_parent t lose win;
    if t.rank.(win) = t.rank.(lose) then write_rank t win (t.rank.(win) + 1);
    true
  end

let same_set t a b = rep_ro t a = rep_ro t b

(* ------------------------------------------------------------------ *)
(* Abstract-state helpers of Fig. 5                                    *)
(* ------------------------------------------------------------------ *)

(** [rep s x] — the representative of [x]: what [find x] would return.
    Read-only (no compression), so safe for gatekeeper evaluation. *)
let rep t x = rep_ro t x

let rank_of t x = t.rank.(rep_ro t x)

(** [loser s a b] — the representative of [a] or [b] that would lose a
    union: the one of smaller rank, or [rep b] on ties. *)
let loser t a b =
  let ra = rep_ro t a and rb = rep_ro t b in
  if t.rank.(ra) < t.rank.(rb) then ra
  else if t.rank.(ra) > t.rank.(rb) then rb
  else rb

(* ------------------------------------------------------------------ *)
(* Methods and specification (Fig. 5)                                  *)
(* ------------------------------------------------------------------ *)

(* [find] leaves the abstract state unchanged but path compression rewrites
   parent pointers, so it is [concrete]: its writes are logged and replayed
   by state rollback (otherwise undoing a union over which a find had
   compressed would corrupt the forest). *)
let m_union = Invocation.meth "union" 2
let m_find = Invocation.meth ~mutates:false ~concrete:true "find" 1

(** A [find] descriptor whose compression writes stay out of the general
    gatekeeper's rollback log.  {b Sound only under detectors that never
    sweep} (abstract locks, forward gatekeepers, the STM baseline): a
    general gatekeeper running truly concurrent transactions must be able
    to undo {e committed} mutations too (an older invocation's pre-state
    [s1] can predate them), and an admitted find may legitimately compress
    across a committed-but-still-sweepable attach edge — a sweep that
    cannot undo that compression reconstructs the wrong [s1].  Under the
    round-based executors every sweepable mutation belonged to an active
    transaction, no admitted find ever crossed one (that is exactly the
    [rep(s1,c) != loser(s1,a,b)] condition), and this descriptor was safe
    with the general gatekeeper as well; with domain concurrency, use
    {!m_find} there instead. *)
let m_find_light =
  Invocation.meth ~mutates:false ~concrete:true ~rollback_log:false "find" 1

let m_create = Invocation.meth "create" 0
let methods = [ m_union; m_find; m_create ]

(** Fig. 5, both orientations spelled out.  Conditions (1)–(2) are not
    ONLINE-CHECKABLE: they evaluate [rep]/[loser] in the {e first}
    invocation's state using the {e second} invocation's arguments. *)
let spec () =
  let open Formula in
  let s = Spec.create ~adt:"union_find" methods in
  let loser1 x y = sfun "loser" S1 [ x; y ] in
  let rep1 x = sfun "rep" S1 [ x ] in
  (* (1) union(a,b) ; union(c,d):
         rep(s1,c) != loser(s1,a,b) /\ rep(s1,d) != loser(s1,a,b) *)
  Spec.add_directed s ~first:"union" ~second:"union"
    (ne (rep1 (arg2 0)) (loser1 (arg1 0) (arg1 1))
    &&& ne (rep1 (arg2 1)) (loser1 (arg1 0) (arg1 1)));
  (* (2) union(a,b) ; find(c): rep(s1,c) != loser(s1,a,b) *)
  Spec.add_directed s ~first:"union" ~second:"find"
    (ne (rep1 (arg2 0)) (loser1 (arg1 0) (arg1 1)));
  (* (2') find(c)/r1 ; union(a,b): r1 != loser(s1,a,b) — the mirrored
     orientation: the union must not displace the representative the find
     reported. *)
  Spec.add_directed s ~first:"find" ~second:"union"
    (ne ret1 (loser1 (arg2 0) (arg2 1)));
  (* (4) find/find always commute *)
  Spec.add_directed s ~first:"find" ~second:"find" True;
  (* (3,5,6) create commutes with nothing *)
  List.iter
    (fun m ->
      Spec.add_directed s ~first:"create" ~second:m False;
      Spec.add_directed s ~first:m ~second:"create" False)
    [ "union"; "find"; "create" ];
  s

(* ------------------------------------------------------------------ *)
(* Execution plumbing with per-invocation write logs                   *)
(* ------------------------------------------------------------------ *)

let exec_raw (t : t) name (args : Value.t array) =
  match (name, args) with
  | "union", [| a; b |] -> Value.Bool (union t (Value.to_int a) (Value.to_int b))
  | "find", [| a |] -> Value.Int (find t (Value.to_int a))
  | "create", [||] -> Value.Int (create_element t)
  | _ -> Value.type_error "union-find: bad invocation %s" name

(** Execute an invocation, recording its concrete writes under its uid so
    {!undo}/{!redo} can replay them. *)
let exec_logged (t : t) (inv : Invocation.t) =
  t.logging <- true;
  t.current_log <- [];
  let r = exec_raw t inv.Invocation.meth.name inv.Invocation.args in
  Hashtbl.replace t.logs inv.Invocation.uid t.current_log;
  t.current_log <- [];
  t.logging <- false;
  r

(* A parent write whose old value was the cell itself re-pointed a root:
   that is the union's attach edge.  Every other parent write is path
   compression (compression never writes a root cell: the walk stops
   there). *)
let is_attach w = w.cell = `Parent && w.old_v = w.idx

(** Restore the concrete state to just before [inv] ran.

    Attach writes (re-pointing a root) are replayed unconditionally: no
    other transaction can write that cell while this union is active —
    reaching it means crossing the attach edge, which conditions (1)–(2)
    refuse.  Compression and rank writes are restored {e only if still in
    place} (the cell still holds the value this write put there), because
    both CAN be superseded while the writer is live: another transaction's
    find may legally compress the same parent cell further, and another
    union into the same winner may legally bump the same rank cell (Fig. 5
    only guards losers).  Restoring an absolute old value over such a
    later write would corrupt it — and since the later write stays in the
    gatekeeper's mutation log, a subsequent sweep's redo would resurrect
    the clobbered value, skewing every future [loser]/[rep] evaluation.
    The conditional restore makes rollback a no-op exactly where a
    surviving write superseded ours.  (Inside a gatekeeper sweep, undo/redo
    is strictly LIFO, so the conditions always hold and this is the plain
    replay.) *)
let undo (t : t) (inv : Invocation.t) =
  match Hashtbl.find_opt t.logs inv.Invocation.uid with
  | None -> ()
  | Some writes ->
      (* newest-first already: current_log was built by consing *)
      List.iter
        (fun w ->
          match w.cell with
          | `Parent when is_attach w -> t.parent.(w.idx) <- w.old_v
          | `Parent ->
              if t.parent.(w.idx) = w.new_v then t.parent.(w.idx) <- w.old_v
          | `Rank -> if t.rank.(w.idx) = w.new_v then t.rank.(w.idx) <- w.old_v)
        writes

(** Re-apply [inv]'s concrete writes (exact redo; no re-execution). *)
let redo (t : t) (inv : Invocation.t) =
  match Hashtbl.find_opt t.logs inv.Invocation.uid with
  | None -> ()
  | Some writes ->
      List.iter
        (fun w ->
          match w.cell with
          | `Parent when is_attach w -> t.parent.(w.idx) <- w.new_v
          | `Parent ->
              (* symmetric to [undo]: re-apply a compression write only if
                 its pre-state is in place, so a sweep's redo does not
                 resurrect compression that a concurrent rollback voided *)
              if t.parent.(w.idx) = w.old_v then t.parent.(w.idx) <- w.new_v
          | `Rank -> if t.rank.(w.idx) = w.old_v then t.rank.(w.idx) <- w.new_v)
        (List.rev writes)

let forget (t : t) (inv : Invocation.t) = Hashtbl.remove t.logs inv.Invocation.uid

(** For a [union] invocation that merged ([ret = true]): the (winner,
    loser) roots, read off the invocation's write log (the attach is the
    unique parent write whose old value was the cell itself, i.e. a root).
    Lets clients learn the surviving representative without issuing a
    post-union [find]. *)
let merge_of (t : t) (inv : Invocation.t) : (int * int) option =
  match Hashtbl.find_opt t.logs inv.Invocation.uid with
  | None -> None
  | Some writes ->
      List.find_map
        (fun w ->
          match w.cell with
          | `Parent when w.old_v = w.idx -> Some (w.new_v, w.idx)
          | _ -> None)
        writes

let sfun (t : t) name (args : Value.t list) =
  match (name, args) with
  | "rep", [ x ] -> Value.Int (rep t (Value.to_int x))
  | "rank", [ x ] -> Value.Int (rank_of t (Value.to_int x))
  | "loser", [ a; b ] -> Value.Int (loser t (Value.to_int a) (Value.to_int b))
  | _ -> raise (Formula.Unsupported ("union-find sfun " ^ name))

let hooks (t : t) =
  Gatekeeper.hooks ~undo:(undo t) ~redo:(redo t) ~forget:(forget t) (sfun t)

let invoke (det : Detector.t) (t : t) ~txn name (args : int list) : Value.t =
  let meth =
    match name with
    | "union" -> m_union
    | "find" -> m_find
    | "create" -> m_create
    | _ -> invalid_arg ("union-find: no method " ^ name)
  in
  let inv =
    Invocation.make ~txn meth (Array.of_list (List.map (fun i -> Value.Int i) args))
  in
  det.Detector.on_invoke inv (fun () -> exec_logged t inv)

(* ------------------------------------------------------------------ *)
(* Replay model: abstract state = the partition                        *)
(* ------------------------------------------------------------------ *)

(** Canonical abstract state: for each element, the smallest element of its
    set (independent of forest shape, rank bookkeeping and compression). *)
let partition_snapshot t =
  (* [min_of.(r)]: the smallest element whose representative is [r] *)
  let min_of = Array.make t.n 0 in
  for i = t.n - 1 downto 0 do
    min_of.(rep_ro t i) <- i
  done;
  let rec build i acc =
    if i < 0 then acc else build (i - 1) (Value.Int min_of.(rep_ro t i) :: acc)
  in
  Value.List (build (t.n - 1) [])

(** Replay model.  NOTE: [find]'s return value is the {e representative},
    which depends on union order; the serializability oracle compares
    return values, which is exactly what the paper's conditions preserve
    (hidden return values, §2.2 discussion).  [reset] rebuilds the
    [elements] singletons in place, over the same arrays. *)
let model ~elements () : History.model =
  let t = create () in
  let reset () =
    t.n <- 0;
    for _ = 1 to elements do
      ignore (create_element t)
    done
  in
  reset ();
  {
    History.reset;
    apply = exec_raw t;
    snapshot = (fun () -> partition_snapshot t);
  }
