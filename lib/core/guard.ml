(** Reentrant, canonically-ordered locks for detector-internal state.

    Every conflict detector serializes its own critical sections — the
    abstract-lock table, a gatekeeper's active set and mutation log, the
    STM's cell table — behind one of these guards instead of a bare
    [Mutex.t].  Two properties make that swap worth a module:

    - {b Reentrancy.}  Aborting a transaction ([Boost.abort]) must run its
      undo log and the detector's [on_abort] as {e one} atomic step (a
      general gatekeeper's undo/redo sweep would otherwise re-apply writes
      the rollback just reverted, from the aborted transaction's
      still-logged invocations).  It does so by taking the guards the
      transaction's invocations held (each detector's [txn_guards]: a
      striped gatekeeper's shard guards and exec guard, not all of its
      guards) around both; [on_abort] then re-enters the guards it
      already holds, which a plain mutex would deadlock on.
    - {b Canonical ordering.}  A transaction can span several detectors
      ({!Detector.compose}), so a rollback takes several guards at once.
      {!protect_all} acquires them in globally consistent (creation-id)
      order, so two domains rolling back transactions over overlapping
      detector sets cannot deadlock.

    Ownership is tracked by domain, so a guard is {e not} reentrant across
    systhreads of one domain — detectors never do that. *)

type t = {
  id : int;  (** global creation order; the canonical acquisition order *)
  mu : Mutex.t;
  owner : int Atomic.t;  (** owning domain id, or [-1] *)
  mutable depth : int;  (** re-entries by the owner; written under [mu] *)
  acq : Schedpoint.action;  (** [Acquire id], built once *)
  rel : Schedpoint.action;  (** [Release id] *)
}

let ids = Atomic.make 0

let create () =
  let id = Atomic.fetch_and_add ids 1 in
  {
    id;
    mu = Mutex.create ();
    owner = Atomic.make (-1);
    depth = 0;
    acq = Schedpoint.Acquire id;
    rel = Schedpoint.Release id;
  }

let id t = t.id
let self () = (Domain.self () :> int)

(** Acquire (blocking), re-entering for free if this domain already holds
    the guard.  Announces itself to {!Schedpoint} first so the virtual
    scheduler can block the acquiring fiber (the real mutex never blocks
    under single-domain exploration — same-domain reentrancy makes it a
    depth counter — so virtual mutual exclusion lives in the scheduler).
    The announcement is the payload built in {!create}, so a lock with no
    hook installed allocates nothing. *)
let lock t =
  Schedpoint.emit t.acq;
  let me = self () in
  if Atomic.get t.owner = me then t.depth <- t.depth + 1
  else begin
    Mutex.lock t.mu;
    Atomic.set t.owner me;
    t.depth <- 1
  end

let unlock t =
  Schedpoint.emit t.rel;
  assert (Atomic.get t.owner = self ());
  t.depth <- t.depth - 1;
  if t.depth = 0 then begin
    Atomic.set t.owner (-1);
    Mutex.unlock t.mu
  end

(* Release [t] on the way out of a handler for [e], keeping [e]'s
   backtrace. *)
let unlock_reraise t e =
  let bt = Printexc.get_raw_backtrace () in
  unlock t;
  Printexc.raise_with_backtrace e bt

(** [protect t f] runs [f] holding [t]; releases on any exit.  A handler,
    not [Fun.protect]: that would allocate a [finally] closure per
    critical section, and a keyed request runs several. *)
let protect t f =
  lock t;
  match f () with
  | r ->
      unlock t;
      r
  | exception e -> unlock_reraise t e

(* [f] under every guard of [ts], in list order, released innermost
   first. *)
let rec hold_all f = function
  | [] -> f ()
  | t :: rest -> (
      lock t;
      match hold_all f rest with
      | r ->
          unlock t;
          r
      | exception e -> unlock_reraise t e)

(** [protect_all ts f] runs [f] holding every guard in [ts], acquired in
    canonical id order (duplicates are taken once).  This is [Boost.abort]'s
    rollback primitive: with the guards every involved detector names for
    the transaction held, the undo log and [on_abort] form one atomic step
    for every invocation that could observe the transaction's state. *)
let protect_all ts f =
  match ts with
  | [] | [ _ ] -> hold_all f ts (* [List.sort_uniq] allocates even here *)
  | _ -> hold_all f (List.sort_uniq (fun a b -> Int.compare a.id b.id) ts)
