(** An OR-set-style tuple ADT with id-tagged operations (ROADMAP item 5a;
    the Boogie commutativity proof [ORset_Com_Boogie.bpl] quoted in
    SNIPPETS.md is the reference model).

    The abstract state is a set of [(element, id)] pairs.  [add e i]
    inserts the pair, [remove e i] deletes it; both return [unit] — the
    Boogie procedures likewise return nothing, and it is exactly this
    observational blindness that makes the tuple space commute so widely
    (Malta/Martinez-style tuple ADTs, PAPERS.md):

    - [add ; add] commute {e always} (set insertion, even of the same
      pair);
    - [remove ; remove] commute {e always} (deletion is idempotent);
    - [add ; remove] commute unless they target the {e identical} tagged
      pair — the residual condition [v1[0] != v2[0] \/ v1[1] != v2[1]].

    The Boogie proof's [comAddRemove] carries the precondition
    [(a1,k1) not in R2]: in a real OR-set history every [add] uses a fresh
    id, so the same-pair case never arises and {e everything commutes}.
    This spec makes that freshness assumption explicit as a commutativity
    condition instead of an ambient precondition, so detectors built from
    it stay sound even on histories that violate freshness. *)

open Commlat_core

type t = {
  pairs : unit Value.Tbl.t;
  presence_log : (int, bool) Hashtbl.t;
      (** pre-state presence per executed invocation uid; see
          {!exec_logged}.  Per-instance: a module-global table would be
          shared across instances (two sets logging the same uid clobber
          each other) and leak entries forever on commit. *)
  log_mu : Mutex.t;
      (** protects [presence_log]: detector guards serialize invocations on
          {e one} instance, but nothing else orders two instances' logs, and
          [Hashtbl] is not domain-safe. *)
}

let create () =
  {
    pairs = Value.Tbl.create 64;
    presence_log = Hashtbl.create 64;
    log_mu = Mutex.create ();
  }

let key e i = Value.Pair (e, i)
let add t e i = Value.Tbl.replace t.pairs (key e i) ()
let remove t e i = Value.Tbl.remove t.pairs (key e i)
let mem t e i = Value.Tbl.mem t.pairs (key e i)

(** Visible elements: those with at least one surviving tag. *)
let elements t =
  Value.Tbl.fold
    (fun k () acc -> match k with Value.Pair (e, _) -> e :: acc | _ -> acc)
    t.pairs []
  |> List.sort_uniq Value.compare

let pairs t =
  Value.Tbl.fold (fun k () acc -> k :: acc) t.pairs [] |> List.sort Value.compare

let clear t = Value.Tbl.reset t.pairs

(* ------------------------------------------------------------------ *)
(* Methods and specification                                           *)
(* ------------------------------------------------------------------ *)

let m_add = Invocation.meth "add" 2
let m_remove = Invocation.meth "remove" 2
let methods = [ m_add; m_remove ]

(** The hand-written spec (what [commlat synth --adt orset] re-derives):
    only an add and a remove of the identical tagged pair conflict. *)
let spec () =
  let open Formula in
  let s = Spec.create ~adt:"orset" methods in
  let pairs_differ = ne (arg1 0) (arg2 0) ||| ne (arg1 1) (arg2 1) in
  Spec.add_sym s "add" "add" True;
  Spec.add_sym s "remove" "remove" True;
  Spec.add_sym s "add" "remove" pairs_differ;
  s

(* ------------------------------------------------------------------ *)
(* Execution plumbing                                                  *)
(* ------------------------------------------------------------------ *)

let exec (t : t) name (args : Value.t array) : Value.t =
  match (name, args) with
  | "add", [| e; i |] ->
      add t e i;
      Value.Unit
  | "remove", [| e; i |] ->
      remove t e i;
      Value.Unit
  | _ -> Value.type_error "orset: bad invocation %s/%d" name (Array.length args)

(** Undo is not observation-driven (returns are unit), so it must consult
    the pre-state: an [add] of a pair that was already present undoes to a
    no-op.  Presence is logged per instance in [t.presence_log], keyed by
    invocation uid; entries are dropped both by {!undo} and — for
    invocations that commit and are never undone — by the {!forget} hook
    the gatekeeper calls from its end-of-transaction sweep, so the log
    cannot grow without bound in a long-running process. *)

let exec_logged (t : t) (inv : Invocation.t) : Value.t =
  let e = inv.Invocation.args.(0) and i = inv.Invocation.args.(1) in
  let was = mem t e i in
  Mutex.protect t.log_mu (fun () ->
      Hashtbl.replace t.presence_log inv.Invocation.uid was);
  exec t inv.Invocation.meth.name inv.Invocation.args

let undo (t : t) (inv : Invocation.t) =
  let e = inv.Invocation.args.(0) and i = inv.Invocation.args.(1) in
  let was =
    Mutex.protect t.log_mu (fun () ->
        let w = Hashtbl.find_opt t.presence_log inv.Invocation.uid in
        Hashtbl.remove t.presence_log inv.Invocation.uid;
        w)
  in
  (* [None]: the invocation never executed on THIS instance (e.g. its exec
     raised before logging, or the undo was routed to the wrong set) —
     undoing anything would corrupt the state it never touched. *)
  match was with
  | None -> ()
  | Some was -> (
      match inv.Invocation.meth.name with
      | "add" -> if not was then remove t e i
      | "remove" -> if was then add t e i
      | _ -> ())

let forget (t : t) (inv : Invocation.t) =
  Mutex.protect t.log_mu (fun () ->
      Hashtbl.remove t.presence_log inv.Invocation.uid)

(** Number of live presence-log entries (regression handle: must return to
    0 once every transaction has committed or aborted). *)
let log_size (t : t) =
  Mutex.protect t.log_mu (fun () -> Hashtbl.length t.presence_log)

let invoke (det : Detector.t) (t : t) ~txn name e i : unit =
  let meth =
    match name with
    | "add" -> m_add
    | "remove" -> m_remove
    | _ -> invalid_arg ("orset: no method " ^ name)
  in
  let inv = Invocation.make ~txn meth [| e; i |] in
  ignore (det.Detector.on_invoke inv (fun () -> exec_logged t inv))

let hooks (t : t) =
  Gatekeeper.hooks
    ~undo:(fun inv -> undo t inv)
    ~redo:(fun inv -> ignore (exec_logged t inv))
    ~forget:(fun inv -> forget t inv)
    (fun name _ -> raise (Formula.Unsupported ("orset sfun " ^ name)))

(* ------------------------------------------------------------------ *)
(* Replay model (also the bounded-analysis reference semantics)         *)
(* ------------------------------------------------------------------ *)

let model () : History.model =
  let t = create () in
  {
    History.reset = (fun () -> clear t);
    apply = exec t;
    snapshot = (fun () -> Value.List (pairs t));
  }
