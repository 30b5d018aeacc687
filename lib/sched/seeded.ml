(** A seeded lock-order-inversion bug for validating the explorer.

    [detector ~buggy:true ()] is a test-only conflict detector that takes
    two guards in an inconsistent order: invocations nest the acquires
    outer-g2/inner-g1 while the release and abort paths (and the fixed
    variant's invoke path) use the canonical smallest-id-first order
    g1-then-g2 of {!Commlat_core.Guard.protect_all}.  Two concurrent
    transactions can therefore deadlock in the classic ABBA shape — one
    holding g1 and asking for g2, the other holding g2 and asking for g1.

    Under the real runtime the window is a few instructions wide; under
    the virtual scheduler {!Explore.explore} finds it deterministically,
    shrinks it, and the pinned schedule in [test/data/] replays it
    forever.  The conflict rule is deliberately crude (conflict whenever
    another transaction is active) so that aborts — and with them the
    abort-path lock order — are actually exercised. *)

open Commlat_core
open Commlat_adts

(** [detector ~buggy ()] — both variants use the same two fresh guards and
    the same active-set conflict rule; only the acquire nesting in
    [on_invoke] differs. *)
let detector ~buggy () : Detector.t =
  let g1 = Guard.create () in
  let g2 = Guard.create () in
  (* canonical order: protect_all sorts by creation id, so g1 first *)
  let active : (int, unit) Hashtbl.t = Hashtbl.create 8 in
  let on_invoke (inv : Invocation.t) (exec : unit -> Value.t) : Value.t =
    let txn = inv.Invocation.txn in
    let locked body =
      if buggy then
        (* BUG: inverts the canonical g1-then-g2 order used everywhere
           else — the other half of an ABBA pair *)
        Guard.protect g2 (fun () -> Guard.protect g1 body)
      else Guard.protect_all [ g1; g2 ] body
    in
    locked (fun () ->
        (* gatekeeper-style: execute first, detect the conflict after —
           the registered undo action then matches what actually ran *)
        Hashtbl.replace active txn ();
        let v = exec () in
        inv.Invocation.ret <- v;
        if Hashtbl.length active > 1 then
          (* Deterministic partner choice: Hashtbl.fold visits buckets in
             hash order, so "last other txn seen" depends on table layout
             (and polymorphic [=] on ints is an accident waiting for a key
             type change).  Pick the lowest-id other transaction instead —
             replayed schedules then always blame the same pair. *)
          let other =
            Hashtbl.fold
              (fun t () acc ->
                if Int.equal t txn then acc
                else if acc < 0 || t < acc then t
                else acc)
              active (-1)
          in
          Detector.conflict ~txn ~with_:other "another transaction is active"
        else v)
  in
  let on_commit txn =
    Guard.protect_all [ g1; g2 ] (fun () -> Hashtbl.remove active txn)
  in
  let on_abort txn =
    Guard.protect_all [ g1; g2 ] (fun () -> Hashtbl.remove active txn)
  in
  {
    Detector.name = (if buggy then "abba-buggy" else "abba-fixed");
    on_invoke;
    on_commit;
    on_abort;
    reset = (fun () -> Hashtbl.reset active);
    snapshot = Detector.no_snapshot;
    guards = [ g1; g2 ];
    txn_guards = (fun _ -> [ g1; g2 ]);
  }

(** Three single-increment transactions over an {!Accumulator}: the
    smallest workload whose interleavings reach the inversion. *)
let workload ~buggy () : Scheduler.instance =
  let acc = Accumulator.create () in
  let det = detector ~buggy () in
  let body ~det ~txn =
    ignore
      (Commlat_runtime.Boost.invoke det txn ~undo:(Accumulator.undo acc)
         Accumulator.m_increment
         [| Value.Int 1 |]
         (fun inv ->
           Accumulator.exec acc inv.Invocation.meth.Invocation.name
             inv.Invocation.args))
  in
  {
    Scheduler.det;
    spec = None;
    tasks = Array.init 3 (fun _ -> { Scheduler.body });
    final = (fun () -> Value.Int (Accumulator.read acc));
    oracle =
      (fun _history ->
        let v = Accumulator.read acc in
        if v = 3 then None
        else Some (Fmt.str "accumulator is %d after 3 increments" v));
  }
