(** Object-granularity software transactional memory — the baseline the
    paper compares against (they used DSTM2; see DESIGN.md §4 for the
    substitution).

    Conflict detection is at the level of the ADT's concrete cells (tree
    nodes, parent-pointer cells, graph nodes), reported through the
    {!Commlat_adts.Mem_trace} instrumentation: a transaction conflicts if it
    reads a cell written by another live transaction or writes a cell read
    or written by one.  Checking happens when each method invocation
    completes (invocations are atomic, §2.1), so an aborted transaction is
    rolled back by its semantic undo log exactly as with the other
    detectors. *)

open Commlat_core
open Commlat_adts
module Obs = Commlat_obs.Obs

type cell_state = { mutable writer : int option; mutable readers : int list }

type t = {
  cells : (int, cell_state) Hashtbl.t;
  touched : (int, int list ref) Hashtbl.t;  (** txn -> cells it registered *)
  mutable current : int;  (** txn whose invocation is executing *)
  mutable cur_reads : int list;
  mutable cur_writes : int list;
  mu : Guard.t;
  obs : Obs.t;
  c_inv : Obs.counter;
  c_conflicts : Obs.counter;
  d_reads : Obs.dist;  (** cells read per invocation (with repeats) *)
  d_writes : Obs.dist;  (** cells written per invocation (with repeats) *)
}

let make ?obs:obs_enabled () =
  let obs = Obs.create ?enabled:obs_enabled "stm" in
  {
    cells = Hashtbl.create 4096;
    touched = Hashtbl.create 64;
    current = -1;
    cur_reads = [];
    cur_writes = [];
    mu = Guard.create ();
    obs;
    c_inv = Obs.counter obs "invocations";
    c_conflicts = Obs.counter obs "conflicts";
    d_reads = Obs.dist obs "read_set";
    d_writes = Obs.dist obs "write_set";
  }

(** The tracer to install on the protected ADT(s).  Each traced access is
    also a {!Schedpoint} yield point, so the virtual scheduler sees STM
    read/write granularity (cell accesses happen inside [on_invoke]'s
    guard, so other invocations cannot interleave — but the announcements
    make the trace show {e what} the STM conflicts on). *)
let tracer (t : t) : Mem_trace.t =
  {
    Mem_trace.read =
      (fun c ->
        if t.current >= 0 then begin
          Schedpoint.emit (Schedpoint.Read c);
          t.cur_reads <- c :: t.cur_reads
        end);
    write =
      (fun c ->
        if t.current >= 0 then begin
          Schedpoint.emit (Schedpoint.Write c);
          t.cur_writes <- c :: t.cur_writes
        end);
  }

let cell_state t c =
  match Hashtbl.find_opt t.cells c with
  | Some s -> s
  | None ->
      let s = { writer = None; readers = [] } in
      Hashtbl.add t.cells c s;
      s

let note_touched t txn c =
  match Hashtbl.find_opt t.touched txn with
  | Some l -> if not (List.mem c !l) then l := c :: !l
  | None -> Hashtbl.add t.touched txn (ref [ c ])

let release (t : t) txn =
  Guard.protect t.mu (fun () ->
      match Hashtbl.find_opt t.touched txn with
      | None -> ()
      | Some l ->
          List.iter
            (fun c ->
              match Hashtbl.find_opt t.cells c with
              | None -> ()
              | Some s ->
                  if s.writer = Some txn then s.writer <- None;
                  s.readers <- List.filter (fun r -> r <> txn) s.readers;
                  if s.writer = None && s.readers = [] then Hashtbl.remove t.cells c)
            !l;
          Hashtbl.remove t.touched txn)

let detector (t : t) : Detector.t =
  let on_invoke (inv : Invocation.t) exec =
    let txn = inv.Invocation.txn in
    Guard.protect t.mu (fun () ->
        t.current <- txn;
        t.cur_reads <- [];
        t.cur_writes <- [];
        let finish () =
          t.current <- -1;
          t.cur_reads <- [];
          t.cur_writes <- []
        in
        match exec () with
        | exception e ->
            finish ();
            raise e
        | r ->
            inv.Invocation.ret <- r;
            let reads = t.cur_reads and writes = t.cur_writes in
            finish ();
            Obs.incr t.c_inv;
            Obs.observe t.d_reads (List.length reads);
            Obs.observe t.d_writes (List.length writes);
            let conflict ~with_ kind c =
              Obs.incr t.c_conflicts;
              Obs.label t.obs ~cat:"abort_cause" kind;
              Detector.conflict ~txn ~with_ (Fmt.str "%s on cell %d" kind c)
            in
            (* register and check writes: exclusive *)
            List.iter
              (fun c ->
                let s = cell_state t c in
                (match s.writer with
                | Some w when w <> txn -> conflict ~with_:w "w/w" c
                | _ -> ());
                (match List.find_opt (fun r' -> r' <> txn) s.readers with
                | Some r' -> conflict ~with_:r' "r/w" c
                | None -> ());
                s.writer <- Some txn;
                note_touched t txn c)
              writes;
            (* register and check reads: shared unless written *)
            List.iter
              (fun c ->
                let s = cell_state t c in
                (match s.writer with
                | Some w when w <> txn -> conflict ~with_:w "w/r" c
                | _ -> ());
                if not (List.mem txn s.readers) then s.readers <- txn :: s.readers;
                note_touched t txn c)
              reads;
            r)
  in
  {
    Detector.name = "stm";
    on_invoke;
    on_commit = (fun txn -> release t txn);
    on_abort = (fun txn -> release t txn);
    reset =
      (fun () ->
        Guard.protect t.mu (fun () ->
            Hashtbl.reset t.cells;
            Hashtbl.reset t.touched));
    snapshot = (fun () -> Obs.snapshot t.obs);
    guards = [ t.mu ];
    txn_guards = (fun _ -> [ t.mu ]);
  }

(** Convenience: a fresh STM with its detector and tracer. *)
let create ?obs () =
  let t = make ?obs () in
  (detector t, tracer t)
