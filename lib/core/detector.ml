(** Common interface of conflict detectors.

    A detector mediates every method invocation on a protected data
    structure.  [on_invoke inv exec] must:

    - decide whether [inv] may proceed given the currently active
      invocations of other transactions (raising {!Conflict} otherwise), and
    - run [exec] (the actual data-structure operation), recording its
      return value in [inv.ret].

    Different schemes order these steps differently: abstract locking
    acquires locks {e before} executing, gatekeepers execute first and then
    check (conditions may refer to the return value).  Either way the whole
    of [on_invoke] is atomic with respect to other invocations on the same
    detector.

    When [on_invoke] raises {!Conflict} after [exec] has run, the enclosing
    transaction is doomed; the runtime rolls its effects back through the
    transaction undo log and calls {!on_abort}. *)

exception Conflict of { txn : int; with_ : int; reason : string }

let conflict ~txn ~with_ reason = raise (Conflict { txn; with_; reason })

module Obs = Commlat_obs.Obs

type t = {
  name : string;
  on_invoke : Invocation.t -> (unit -> Value.t) -> Value.t;
  on_commit : int -> unit;
  on_abort : int -> unit;
  reset : unit -> unit;
  snapshot : unit -> Obs.snapshot;
  guards : Guard.t list;
      (** the reentrant guards serializing this detector's internal state
          (and, during [on_invoke], the protected ADT's concrete state).
          The domain executor takes all of them around a transaction's
          rollback + [on_abort] so no concurrent sweep or invocation can
          interleave with the undo log.  Empty for detectors with no
          internal state. *)
}

(** A snapshot hook for detectors with nothing to report (ad-hoc test
    detectors, baselines). *)
let no_snapshot () = Obs.empty "unobserved"

(** No detection at all: used to measure the plain sequential baseline
    [T] in the paper's performance model (§5, "Putting it all together"). *)
let none =
  {
    name = "none";
    on_invoke =
      (fun inv exec ->
        let r = exec () in
        inv.Invocation.ret <- r;
        r);
    on_commit = ignore;
    on_abort = ignore;
    reset = ignore;
    snapshot = (fun () -> Obs.empty "none");
    guards = [];
  }

(** Compose the transaction-lifecycle view of several detectors, one per
    protected structure: commits, aborts and resets are forwarded to every
    member.  Invocations must still be routed to the member that protects
    the structure being touched; calling [on_invoke] on the composition is
    an error.  Used when a transaction spans multiple protected ADTs (e.g.
    Boruvka's union-find plus its boosted component-edge map). *)
let compose (ds : t list) : t =
  {
    name = Fmt.str "compose(%a)" Fmt.(list ~sep:comma string) (List.map (fun d -> d.name) ds);
    on_invoke =
      (fun _ _ ->
        invalid_arg "Detector.compose: route invocations to a member detector");
    on_commit = (fun txn -> List.iter (fun d -> d.on_commit txn) ds);
    on_abort = (fun txn -> List.iter (fun d -> d.on_abort txn) ds);
    reset = (fun () -> List.iter (fun d -> d.reset ()) ds);
    snapshot =
      (fun () ->
        Obs.merge
          (Fmt.str "compose(%a)" Fmt.(list ~sep:comma string)
             (List.map (fun d -> d.name) ds))
          (List.map (fun d -> d.snapshot ()) ds));
    guards = List.concat_map (fun d -> d.guards) ds;
  }

(** Serialize invocations of distinct transactions: the first transaction to
    touch the structure owns it until it ends.  This is what the abstract
    locking construction yields for the ⊥ specification (a single global
    exclusive lock, paper §4.1); provided directly for convenience. *)
let global_lock ?obs:obs_enabled () =
  let owner = ref None in
  let mu = Guard.create () in
  let obs = Obs.create ?enabled:obs_enabled "global-lock" in
  let c_inv = Obs.counter obs "invocations" in
  let c_acq = Obs.counter obs "lock_acquisitions" in
  let c_deny = Obs.counter obs "lock_denials" in
  let release txn =
    Guard.protect mu (fun () ->
        match !owner with Some o when o = txn -> owner := None | _ -> ())
  in
  {
    name = "global-lock";
    on_invoke =
      (fun inv exec ->
        Guard.protect mu (fun () ->
            Obs.incr c_inv;
            (match !owner with
            | Some o when o <> inv.Invocation.txn ->
                Obs.incr c_deny;
                Obs.label obs ~cat:"lock_deny" "<ds>:exclusive";
                Obs.label obs ~cat:"abort_cause" "global lock held";
                conflict ~txn:inv.Invocation.txn ~with_:o "global lock held"
            | _ ->
                Obs.incr c_acq;
                Obs.label obs ~cat:"lock_acquire" "<ds>:exclusive";
                owner := Some inv.Invocation.txn);
            let r = exec () in
            inv.Invocation.ret <- r;
            r));
    on_commit = release;
    on_abort = release;
    reset = (fun () -> owner := None);
    snapshot = (fun () -> Obs.snapshot obs);
    guards = [ mu ];
  }
