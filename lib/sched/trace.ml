(** Execution traces of the virtual scheduler.

    A trace is the sequence of scheduling decisions one run took: at each
    step, which fiber ran, what synchronization action it performed
    ({!Commlat_core.Schedpoint.action}), in what detector context, and
    which other fibers were enabled (with {e their} pending actions) — the
    alternatives a partial-order-reduction explorer may need to branch to.

    Rendering normalizes every process-global identifier (guard creation
    ids, STM cell ids, transaction ids) to small run-local indices assigned
    in order of first appearance, so two runs of the same schedule render
    to byte-identical text even though the underlying counters keep
    incrementing across runs.  Byte-equality of rendered traces is the
    replay-determinism check. *)

open Commlat_core

(** Where a fiber currently is in the detector protocol.  Lock and STM
    actions inherit the semantic operations of their context: a guard
    acquired inside [In_invoke inv] is "part of" [inv] for the
    independence relation. *)
type ctx =
  | Top  (** outside any detector operation *)
  | In_invoke of Invocation.t
  | In_commit
  | In_abort

(** A fiber's position: its next (pending) or current (executed) action,
    the context it occurs in, and the invocations its current transaction
    attempt has executed so far (newest first) — the operations a commit
    or abort action "carries" for the independence relation. *)
type info = {
  i_action : Schedpoint.action;
  i_ctx : ctx;
  i_invs : Invocation.t list;
}

type step = {
  s_tid : int;
  s_attempt : int;  (** 1-based attempt number of the fiber's transaction *)
  s_info : info;  (** the action this step executed *)
  s_alts : (int * int * info) list;
      (** the other fibers enabled at this decision: (tid, attempt,
          pending action) *)
}

(* ------------------------------------------------------------------ *)
(* Rendering with run-local id normalization                           *)
(* ------------------------------------------------------------------ *)

(** First-appearance normalizer: process-global ids to dense run-local
    ones. *)
let normalizer () =
  let tbl : (int, int) Hashtbl.t = Hashtbl.create 16 in
  fun i ->
    match Hashtbl.find_opt tbl i with
    | Some j -> j
    | None ->
        let j = Hashtbl.length tbl in
        Hashtbl.add tbl i j;
        j

(** Render one action with [gid]/[cid] id translation.  Transaction ids
    are never printed (callers print [tid.attempt] instead), so output is
    stable across runs. *)
let pp_action ~gid ~cid ppf (a : Schedpoint.action) =
  match a with
  | Schedpoint.Acquire g -> Fmt.pf ppf "acq G%d" (gid g)
  | Schedpoint.Release g -> Fmt.pf ppf "rel G%d" (gid g)
  | Schedpoint.Invoke { det; inv } ->
      Fmt.pf ppf "invoke %s(%a)=%a [%s]" inv.Invocation.meth.Invocation.name
        Fmt.(array ~sep:comma Value.pp)
        inv.Invocation.args Value.pp inv.Invocation.ret det
  | Schedpoint.Commit { det; _ } -> Fmt.pf ppf "commit [%s]" det
  | Schedpoint.Abort { det; _ } -> Fmt.pf ppf "abort [%s]" det
  | Schedpoint.Read c -> Fmt.pf ppf "read C%d" (cid c)
  | Schedpoint.Write c -> Fmt.pf ppf "write C%d" (cid c)

(** Render a full trace, one step per line:
    [<idx> t<tid>.<attempt> <action>]. *)
let render (steps : step list) : string =
  let gintern = normalizer () and cintern = normalizer () in
  let buf = Buffer.create 1024 in
  List.iteri
    (fun i st ->
      Buffer.add_string buf
        (Fmt.str "%3d t%d.%d %a@." i st.s_tid st.s_attempt
           (pp_action ~gid:gintern ~cid:cintern)
           st.s_info.i_action))
    steps;
  Buffer.contents buf
