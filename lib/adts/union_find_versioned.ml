(** A {e partially persistent} union-find: the plain disjoint-set forest of
    {!Union_find} extended with a version index that answers
    representative/rank/loser queries {e in any past state} without undoing
    anything.

    The paper's general gatekeeper evaluates conditions like
    [rep(s1, c) != loser(s1, a, b)] by physically rolling the structure
    back to [s1] and forward again (§3.3.2), and its conclusions ask
    whether "more efficient conflict detection schemes" exist.  This module
    is one answer for union-find: because a root is attached to a parent at
    most once, recording each attach with the sequence number of the union
    that performed it makes historical representative queries a simple
    stamped walk —

    - [rep_at ~seq x]: follow attach records with stamp < [seq];
    - [rank_at ~seq r]: the last rank record of [r] with stamp < [seq];

    both without touching the live forest.  Plugged into the gatekeeper
    through the [sfun_at] hook, this turns each state reconstruction from an
    undo/redo sweep over the mutation log into a few pointer chases.
    Aborted unions remove their records, so the index reflects exactly the
    applied operations, mirroring the mutation log's lifecycle.

    The live structure is still a {!Union_find.t}: all its operations,
    write logs and undo/redo machinery behave identically, so the two
    gatekeeper constructions can be compared like for like (see the
    [ablation] benchmark and [test_versioned_uf.ml]). *)

open Commlat_core

type attach = { stamp : int; target : int; by_uid : int }

type t = {
  base : Union_find.t;
  (* at most one live attach record per element (an element is attached as
     a root at most once; aborted attaches are removed) *)
  mutable attach : attach option array;
  (* rank history per element, newest first: (stamp, rank) *)
  mutable ranks : (int * int) list array;
  mutable last_stamp : int;
}

let create ?(capacity = 16) () =
  {
    base = Union_find.create ~capacity ();
    attach = Array.make capacity None;
    ranks = Array.make capacity [];
    last_stamp = 0;
  }

let base t = t.base

let ensure_capacity t i =
  if i >= Array.length t.attach then begin
    let cap = max (i + 1) (2 * Array.length t.attach) in
    let attach = Array.make cap None and ranks = Array.make cap [] in
    Array.blit t.attach 0 attach 0 (Array.length t.attach);
    Array.blit t.ranks 0 ranks 0 (Array.length t.ranks);
    t.attach <- attach;
    t.ranks <- ranks
  end

let create_element t =
  let i = Union_find.create_element t.base in
  ensure_capacity t i;
  i

let create_elements t k = List.init k (fun _ -> create_element t)

(* ------------------------------------------------------------------ *)
(* Versioned queries                                                   *)
(* ------------------------------------------------------------------ *)

(** Representative of [x] in the state just before the invocation stamped
    [seq] ran. *)
let rep_at (t : t) ~seq x =
  let rec go x =
    match t.attach.(x) with
    | Some a when a.stamp < seq -> go a.target
    | _ -> x
  in
  go x

(** Rank of element [x]'s set in the state just before [seq]. *)
let rank_at (t : t) ~seq x =
  let r = rep_at t ~seq x in
  let rec find = function
    | [] -> 0
    | (stamp, rank) :: rest -> if stamp < seq then rank else find rest
  in
  find t.ranks.(r)

(** [loser] (Fig. 5) evaluated in the state just before [seq]. *)
let loser_at (t : t) ~seq a b =
  let ra = rep_at t ~seq a and rb = rep_at t ~seq b in
  let ka = rank_at t ~seq ra and kb = rank_at t ~seq rb in
  if ka < kb then ra else if ka > kb then rb else rb

(* ------------------------------------------------------------------ *)
(* Mutations: delegate to the base structure, index the attach          *)
(* ------------------------------------------------------------------ *)

(** Execute an invocation (stamped by the detector) on the base structure
    and index any union attach it performed. *)
let exec_logged (t : t) (inv : Invocation.t) : Value.t =
  let r = Union_find.exec_logged t.base inv in
  (match (inv.Invocation.meth.Invocation.name, r) with
  | "union", Value.Bool true -> (
      match Union_find.merge_of t.base inv with
      | Some (winner, loser) ->
          t.last_stamp <- inv.Invocation.seq;
          t.attach.(loser) <-
            Some { stamp = inv.Invocation.seq; target = winner; by_uid = inv.Invocation.uid };
          (* a union of equal ranks bumps the winner's rank *)
          let cur = Union_find.rank_of t.base winner in
          (match t.ranks.(winner) with
          | (_, k) :: _ when k = cur -> ()
          | _ -> t.ranks.(winner) <- (inv.Invocation.seq, cur) :: t.ranks.(winner))
      | None -> ())
  | "create", Value.Int i -> ensure_capacity t i
  | _ -> ());
  r

(** Undo an invocation: restore the base structure from its write log and
    remove the indexed attach/rank records. *)
let undo (t : t) (inv : Invocation.t) =
  (* read the merge off the write log before the base undo discards its
     meaning; records are removed point-wise, no array scan *)
  let merge =
    if inv.Invocation.meth.Invocation.name = "union" then
      Union_find.merge_of t.base inv
    else None
  in
  Union_find.undo t.base inv;
  match merge with
  | None -> ()
  | Some (winner, loser) ->
      (match t.attach.(loser) with
      | Some a when a.by_uid = inv.Invocation.uid -> t.attach.(loser) <- None
      | _ -> ());
      t.ranks.(winner) <-
        List.filter (fun (stamp, _) -> stamp <> inv.Invocation.seq) t.ranks.(winner)

let redo (t : t) (inv : Invocation.t) =
  Union_find.redo t.base inv;
  (* re-index *)
  if inv.Invocation.meth.Invocation.name = "union" then
    match Union_find.merge_of t.base inv with
    | Some (winner, loser) ->
        t.attach.(loser) <-
          Some { stamp = inv.Invocation.seq; target = winner; by_uid = inv.Invocation.uid };
        let cur = Union_find.rank_of t.base winner in
        (match t.ranks.(winner) with
        | (_, k) :: _ when k = cur -> ()
        | _ -> t.ranks.(winner) <- (inv.Invocation.seq, cur) :: t.ranks.(winner))
    | None -> ()

(* ------------------------------------------------------------------ *)
(* Gatekeeper hooks                                                    *)
(* ------------------------------------------------------------------ *)

let sfun_now (t : t) name args = Union_find.sfun t.base name args

let sfun_at (t : t) seq name (args : Value.t list) =
  match (name, args) with
  | "rep", [ x ] -> Value.Int (rep_at t ~seq (Value.to_int x))
  | "rank", [ x ] -> Value.Int (rank_at t ~seq (Value.to_int x))
  | "loser", [ a; b ] ->
      Value.Int (loser_at t ~seq (Value.to_int a) (Value.to_int b))
  | _ -> raise (Formula.Unsupported ("union_find sfun " ^ name))

(** Hooks for a general gatekeeper ({!Commlat_core.Gatekeeper.make}
    [~allow_rollback:true]): past states are answered by {!sfun_at}, so the
    gatekeeper never performs an undo/redo sweep (undo/redo remain
    available for transaction aborts). *)
let hooks (t : t) =
  Gatekeeper.hooks ~undo:(undo t) ~redo:(redo t)
    ~forget:(Union_find.forget t.base)
    ~sfun_at:(fun seq name args -> sfun_at t seq name args)
    (sfun_now t)
