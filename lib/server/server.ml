(** The long-running `commlat serve` process: socket front-end, per-core
    worker domains, epoch-based group commit.

    Threading model (DESIGN.md §11):

    - One {e reader systhread per connection} reads bursts: one [read]
      takes whatever the socket holds, {!Wire.frame_at} splits every
      whole frame out of it, and each invoke request joins a per-worker
      batch chosen by its footprint hash ({!Engine.route_hash}); keyless
      requests round-robin.  Before it reads again, the reader hands each
      non-empty batch to its worker queue with one lock and one signal.
      Readers never touch a detector — {!Commlat_core.Guard} ownership is
      per-{e domain}, so all transactional work happens on worker
      domains.
    - [domains] {e worker domains} each drain their queue in epochs of up
      to [batch] requests.  Within an epoch every admitted request's
      transaction stays open; at the epoch boundary the worker commits
      them all (one detector pass each, releasing active-table entries
      and firing commit-time [forget] hooks) and then flushes each
      connection's responses as one buffered write.  Group commit
      amortizes commit work and response syscalls across the batch.
    - A {!Detector.Conflict} inside an epoch first commits the epoch's
      open transactions (the conflicter is usually among them), then
      retries with capped exponential backoff; after [max_retries] the
      client gets an [Err] frame.  The committed transactions' responses
      stay staged for the epoch boundary, so each connection still gets
      one write per epoch.  Every other per-request exception is
      already contained by {!Engine.try_req}.

    Termination: a [Quit] request stops the accept loop, closes the
    listening socket, lets every worker drain its queue, joins the worker
    domains, answers any job a racing reader enqueued after its worker
    exited, answers the [Quit] itself — last on its connection, after the
    replies to every request pipelined before it — and returns; the CLI
    then exits 0.  SIGPIPE is ignored, so a client that closes without
    reading its replies costs a counted failed write, not the process.  Malformed frames answer an [Err] and keep the
    connection; unrecoverable framing (oversized prefix, mid-frame EOF)
    closes just that connection, so a bad client can neither kill a
    worker nor wedge shutdown. *)

module Obs = Commlat_obs.Obs

type addr = Unix_sock of string | Tcp of string * int

let pp_addr ppf = function
  | Unix_sock p -> Fmt.pf ppf "unix:%s" p
  | Tcp (h, p) -> Fmt.pf ppf "tcp:%s:%d" h p

type config = {
  addr : addr;
  domains : int;  (** worker domains (transaction executors) *)
  verbose : bool;
  adaptive : bool;  (** run the online lattice controller (DESIGN.md §12) *)
  level : string option;
      (** pin every chain that has a level of this name ("simple",
          "part"); mutually exclusive with [adaptive] *)
}

let default_config =
  {
    addr = Unix_sock "/tmp/commlat.sock";
    domains = 2;
    verbose = false;
    adaptive = false;
    level = None;
  }

(* Design constants (DESIGN.md §11, §12): nobody tunes them per
   deployment, so they are not options. *)

(** Max requests a worker drains per epoch (group commit). *)
let batch = 64

(** Conflict retries before a request is answered with an [Err] frame. *)
let max_retries = 64

(** Adaptive controller observation-window length, seconds. *)
let tick = 0.05

(** The adaptive controller's rule: strengthen above 0.3 conflict checks
    per invocation, weaken above a 5% refusal ratio, and hold 3 windows
    after a move. *)
let thresholds =
  { Commlat_runtime.Adaptive.strengthen_above = 0.3; weaken_above = 0.05; cooldown = 3 }

(* ------------------------------------------------------------------ *)
(* Plumbing                                                            *)
(* ------------------------------------------------------------------ *)

type conn = {
  fd : Unix.file_descr;
  out_mu : Mutex.t;  (** serializes writes from workers and the reader *)
  mutable alive : bool;
}

(* A response write failed (caller holds [out_mu]): [run] ignores
   SIGPIPE, so a peer that closed without reading surfaces here as
   [EPIPE].  The connection is dead; the failure is counted. *)
let write_failed eng conn =
  Obs.incr eng.Engine.c_response_write_failures;
  conn.alive <- false

let send_resp eng conn resp =
  Mutex.protect conn.out_mu (fun () ->
      if conn.alive then begin
        Obs.incr eng.Engine.c_response_writes;
        try Wire.write_frame conn.fd (Wire.encode_resp resp)
        with _ -> write_failed eng conn
      end)

let close_conn conn =
  Mutex.protect conn.out_mu (fun () -> conn.alive <- false);
  try Unix.close conn.fd with _ -> ()

type job = { req : Wire.req; jconn : conn }

(* One blocking multi-producer queue per worker domain. *)
type queue = {
  mu : Mutex.t;
  cv : Condition.t;
  q : job Queue.t;
}

let queue_create () = { mu = Mutex.create (); cv = Condition.create (); q = Queue.create () }

(* Hand a batch of jobs to a worker: one lock and one wake-up for all. *)
let queue_push qu jobs =
  Mutex.protect qu.mu (fun () ->
      List.iter (fun j -> Queue.push j qu.q) jobs;
      Condition.signal qu.cv)

(* Pop up to [n] jobs; blocks while empty unless [stop] is set or
   [unblock ()] holds (a swap barrier is pending and this worker must go
   participate).  Returns [] when woken empty. *)
let queue_drain qu ~stop ~unblock n =
  Mutex.protect qu.mu (fun () ->
      while Queue.is_empty qu.q && (not (Atomic.get stop)) && not (unblock ()) do
        Condition.wait qu.cv qu.mu
      done;
      let rec take k acc =
        if k = 0 || Queue.is_empty qu.q then List.rev acc
        else take (k - 1) (Queue.pop qu.q :: acc)
      in
      take n [])

let wake_all qu = Mutex.protect qu.mu (fun () -> Condition.broadcast qu.cv)

(* The [Quit]s [run] answers once the workers have drained, so that each
   follows the replies to the requests its connection sent before it.
   Their connections stay open until then.  A [Quit] read after [run]
   answered [waiting] is answered by its reader. *)
type quits = {
  q_mu : Mutex.t;
  mutable waiting : (conn * int) list;  (** newest first *)
  mutable answered : bool;
}

(* ------------------------------------------------------------------ *)
(* The swap gate                                                       *)
(* ------------------------------------------------------------------ *)

(* An all-workers rendezvous at which detector hot-swaps run (DESIGN.md
   §12).  The controller posts a thunk; every worker, on reaching its next
   epoch boundary (all its transactions just committed, so no gatekeeper
   holds live state for it), parks here; the last arriver executes the
   thunk and releases everyone.  Reader threads are not involved — they
   only answer Stats/Ping inline and route invokes to workers, so the
   swap never waits on a slow client.

   Liveness: the barrier always completes because workers never exit
   while a request is posted — shutdown is two-phase ([stop] silences the
   poster and is joined first; [stop_workers] is set only after, when no
   request can be in flight). *)
type gate = {
  g_mu : Mutex.t;
  g_cv : Condition.t;
  mutable g_req : (unit -> unit) option;
  mutable g_waiting : int;  (** workers parked at the barrier *)
  mutable g_gen : int;  (** barrier generation, bumped on release *)
  g_workers : int;
}

let gate_create ~workers =
  {
    g_mu = Mutex.create ();
    g_cv = Condition.create ();
    g_req = None;
    g_waiting = 0;
    g_gen = 0;
    g_workers = workers;
  }

(* Is a swap pending?  Used as the queues' [unblock] predicate; takes the
   gate mutex so a worker can never miss a freshly posted request. *)
let gate_pending (g : gate) () =
  Mutex.protect g.g_mu (fun () -> g.g_req <> None)

(* Worker side: called at every epoch boundary (after [flush_epoch], so
   the calling worker holds zero open transactions).  A raising swap
   thunk is counted in the engine's [swap_failures] (printed under
   [verbose]) and the barrier is released all the same: the levels it
   did not set stay as they were. *)
let gate_check ~eng ~verbose (g : gate) =
  Mutex.protect g.g_mu (fun () ->
      match g.g_req with
      | None -> ()
      | Some _ ->
          g.g_waiting <- g.g_waiting + 1;
          if g.g_waiting = g.g_workers then begin
            (* every worker is quiescent: run the swap *)
            (match g.g_req with
            | Some thunk -> (
                try thunk ()
                with e ->
                  Engine.swap_failed eng;
                  if verbose then
                    Fmt.epr "commlat serve: swap failed (%d so far): %s@."
                      (Engine.swap_failures eng) (Printexc.to_string e))
            | None -> ());
            g.g_req <- None;
            g.g_waiting <- 0;
            g.g_gen <- g.g_gen + 1;
            Condition.broadcast g.g_cv
          end
          else begin
            let gen = g.g_gen in
            while g.g_gen = gen do
              Condition.wait g.g_cv g.g_mu
            done
          end)

(* Controller side: post a thunk, wake every worker queue, wait for the
   barrier to run it.  [stop] aborts the post (and the wait for a slot)
   during shutdown. *)
let gate_post (g : gate) ~stop ~queues thunk =
  Mutex.lock g.g_mu;
  while g.g_req <> None && not (Atomic.get stop) do
    Condition.wait g.g_cv g.g_mu
  done;
  if Atomic.get stop then Mutex.unlock g.g_mu
  else begin
    g.g_req <- Some thunk;
    Mutex.unlock g.g_mu;
    Array.iter wake_all queues;
    Mutex.lock g.g_mu;
    while g.g_req <> None do
      Condition.wait g.g_cv g.g_mu
    done;
    Mutex.unlock g.g_mu
  end

(* ------------------------------------------------------------------ *)
(* Worker domains                                                      *)
(* ------------------------------------------------------------------ *)

(* Epoch state: open transactions + per-connection response outboxes. *)
type epoch = {
  mutable open_txns : Engine.pending list;  (* newest first *)
  outboxes : (conn * Buffer.t) list ref;
}

let epoch_create () = { open_txns = []; outboxes = ref [] }

let outbox ep conn =
  match List.assq_opt conn !(ep.outboxes) with
  | Some b -> b
  | None ->
      let b = Buffer.create 256 in
      ep.outboxes := (conn, b) :: !(ep.outboxes);
      b

(* frames accumulate per connection for one write at the epoch boundary *)
let stage ep conn resp = Wire.add_frame (outbox ep conn) (Wire.encode_resp resp)

(* Group commit of the epoch's open transactions, oldest first. *)
let commit_epoch eng ep =
  List.iter (Engine.commit eng) (List.rev ep.open_txns);
  ep.open_txns <- []

(* Group commit + response flush: the epoch boundary. *)
let flush_epoch eng ep =
  commit_epoch eng ep;
  List.iter
    (fun (conn, b) ->
      if Buffer.length b > 0 then begin
        let s = Buffer.contents b in
        Buffer.clear b;
        Mutex.protect conn.out_mu (fun () ->
            if conn.alive then begin
              Obs.incr eng.Engine.c_response_writes;
              try
                Wire.really_write conn.fd (Bytes.unsafe_of_string s) 0
                  (String.length s)
              with _ -> write_failed eng conn
            end)
      end)
    !(ep.outboxes);
  ep.outboxes := []

let backoff_sleep attempt =
  if attempt > 4 then begin
    let exp = min (attempt - 4) 8 in
    Unix.sleepf (1e-6 *. float_of_int (1 lsl exp))
  end

let worker ~eng ~qu ~stop ~gate ~verbose () =
  let ep = epoch_create () in
  let run_job job =
    let rec attempt n =
      match Engine.try_req eng job.req with
      | Engine.Done (p, resp) ->
          (match p with
          | Some p -> ep.open_txns <- p :: ep.open_txns
          | None -> ());
          stage ep job.jconn resp
      | Engine.Conflicted reason ->
          (* our own open transactions may be the conflicter: commit them
             before retrying so the retry runs against a clean active
             table.  Their responses stay staged for the epoch's one
             write per connection. *)
          commit_epoch eng ep;
          if n >= max_retries then
            stage ep job.jconn
              (Wire.Err (Wire.req_id job.req, "conflict retries exhausted: " ^ reason))
          else begin
            backoff_sleep n;
            attempt (n + 1)
          end
    in
    match attempt 0 with
    | () -> ()
    | exception e ->
        (* belt-and-braces: Engine.try_req contains per-request failures,
           but if anything else ever escapes, answer and keep the worker
           alive *)
        stage ep job.jconn
          (Wire.Err (Wire.req_id job.req, "internal error: " ^ Printexc.to_string e))
  in
  let unblock = gate_pending gate in
  let rec loop () =
    match queue_drain qu ~stop ~unblock batch with
    | [] when Atomic.get stop && not (unblock ()) ->
        flush_epoch eng ep (* stopping, drained, no swap pending: exit *)
    | jobs ->
        if jobs <> [] then begin
          Obs.incr eng.Engine.c_epochs;
          Obs.add eng.Engine.c_epoch_requests (List.length jobs)
        end;
        List.iter run_job jobs;
        flush_epoch eng ep;
        (* epoch boundary: all this worker's transactions are committed —
           participate in any pending detector swap *)
        gate_check ~eng ~verbose gate;
        loop ()
  in
  loop ()

(* ------------------------------------------------------------------ *)
(* Connection readers                                                  *)
(* ------------------------------------------------------------------ *)

(** Initial size of a connection's read buffer, so one [read] takes at
    most this many bytes.  A larger frame grows the buffer to fit it;
    the buffer never shrinks and never exceeds {!Wire.max_frame} plus
    the 4-byte prefix. *)
let burst_bytes = 65536

let reader ~eng ~queues ~rr ~stop ~quits conn () =
  let nworkers = Array.length queues in
  (* jobs routed to each worker since the last hand-off, newest first *)
  let batches = Array.make nworkers [] in
  let hand_off () =
    Array.iteri
      (fun w jobs ->
        if jobs <> [] then begin
          batches.(w) <- [];
          Obs.incr eng.Engine.c_handoffs;
          queue_push queues.(w) (List.rev jobs)
        end)
      batches
  in
  let route req =
    let w =
      match Engine.route_hash eng req with
      | Some h -> (h land max_int) mod nworkers
      | None -> (Atomic.fetch_and_add rr 1) mod nworkers
    in
    batches.(w) <- { req; jconn = conn } :: batches.(w)
  in
  (* a [Quit] [run] will answer: the connection outlives this reader *)
  let deferred = ref false in
  (* one frame's payload; false once it was a [Quit] *)
  let handle payload =
    match Wire.decode_req payload with
    | exception Wire.Malformed msg ->
        (* the frame boundary survived, so answer and keep splitting *)
        send_resp eng conn (Wire.Err (0, msg));
        true
    | Wire.Quit id ->
        hand_off ();
        deferred :=
          Mutex.protect quits.q_mu (fun () ->
              if not quits.answered then quits.waiting <- (conn, id) :: quits.waiting;
              not quits.answered);
        if not !deferred then
          send_resp eng conn (Wire.Reply (id, Commlat_core.Value.Unit));
        Atomic.set stop true;
        Array.iter wake_all queues;
        false
    | Wire.Stats _ | Wire.Ping _ as req ->
        (* answered inline: no transaction, no detector guard *)
        (match Engine.try_req eng req with
        | Engine.Done (None, resp) -> send_resp eng conn resp
        | _ -> assert false);
        true
    | req ->
        route req;
        true
  in
  (* bytes [lo, hi) of [buf] are read but not yet split *)
  let buf = ref (Bytes.create burst_bytes) and lo = ref 0 and hi = ref 0 in
  (* split every whole frame read so far; false once one was a [Quit] *)
  let rec split () =
    match Wire.frame_at !buf !lo !hi with
    | Wire.Frame n ->
        let payload = Bytes.sub_string !buf (!lo + 4) n in
        lo := !lo + 4 + n;
        handle payload && split ()
    | Wire.Short need ->
        (* keep the cut frame at the front of a buffer that holds it
           whole, so the next read always has room *)
        let grow = need > Bytes.length !buf in
        if grow || !lo > 0 then begin
          let b = if grow then Bytes.create need else !buf in
          Bytes.blit !buf !lo b 0 (!hi - !lo);
          buf := b;
          hi := !hi - !lo;
          lo := 0
        end;
        true
  in
  let rec loop () =
    match Unix.read conn.fd !buf !hi (Bytes.length !buf - !hi) with
    | 0 -> () (* EOF; a frame it cuts is dropped with the connection *)
    | n ->
        Obs.incr eng.Engine.c_socket_reads;
        hi := !hi + n;
        (* an oversized prefix ends the connection: framing is lost *)
        let more = try split () with Wire.Malformed _ -> false in
        (* never block in [read] holding jobs a worker could run *)
        hand_off ();
        if more then loop ()
    | exception Unix.Unix_error (Unix.EINTR, _, _) -> loop ()
    | exception Unix.Unix_error _ -> ()
  in
  Fun.protect ~finally:(fun () -> if not !deferred then close_conn conn) loop

(* ------------------------------------------------------------------ *)
(* The adaptive controller                                             *)
(* ------------------------------------------------------------------ *)

(* One systhread: every [tick] seconds, difference each multi-level
   chain's current-detector obs snapshot into an
   {!Commlat_runtime.Adaptive.signals} window, feed its hysteresis
   controller, and — when any verdict moves — post one gate thunk that
   applies every due {!Engine.set_level}.  Baseline snapshots are
   re-taken inside the thunk (the successor detector's counters differ
   from the predecessor's), so the next window differences the detector
   actually installed. *)
let controller_loop ~eng ~gate ~queues ~stop (cfg : config) () =
  let module Adaptive = Commlat_runtime.Adaptive in
  let ctrls =
    List.filter_map
      (fun (adt, levels) ->
        if List.length levels < 2 then None
        else
          Some (adt, Adaptive.controller thresholds levels,
                ref (Engine.level_snapshot eng adt)))
      (Engine.chains eng)
  in
  while not (Atomic.get stop) do
    Thread.delay tick;
    if not (Atomic.get stop) then begin
      let moves =
        List.filter_map
          (fun (adt, ctrl, prev) ->
            let snap = Engine.level_snapshot eng adt in
            let d name =
              max 0 (Obs.counter_value snap name - Obs.counter_value !prev name)
            in
            let signals =
              {
                Adaptive.s_invocations = d "invocations";
                s_conflicts = d "conflicts";
                s_checks = d "checks";
                s_lock_denials = d "lock_denials";
              }
            in
            prev := snap;
            match Adaptive.observe ctrl signals with
            | Adaptive.Hold -> None
            | Adaptive.Strengthen | Adaptive.Weaken ->
                Some (adt, Adaptive.current ctrl, prev))
          ctrls
      in
      if moves <> [] then
        gate_post gate ~stop ~queues (fun () ->
            List.iter
              (fun (adt, idx, prev) ->
                Engine.set_level eng adt idx;
                prev := Engine.level_snapshot eng adt)
              moves);
      if cfg.verbose then
        List.iter
          (fun (adt, idx, _) ->
            Fmt.epr "commlat serve: %s -> level %d@." adt idx)
          moves
    end
  done

(* ------------------------------------------------------------------ *)
(* Listener                                                            *)
(* ------------------------------------------------------------------ *)

let listen_socket addr =
  match addr with
  | Unix_sock path ->
      (try Unix.unlink path with _ -> ());
      let s = Unix.socket Unix.PF_UNIX Unix.SOCK_STREAM 0 in
      Unix.bind s (Unix.ADDR_UNIX path);
      Unix.listen s 128;
      s
  | Tcp (host, port) ->
      let ip =
        try Unix.inet_addr_of_string host
        with _ -> (Unix.gethostbyname host).Unix.h_addr_list.(0)
      in
      let s = Unix.socket Unix.PF_INET Unix.SOCK_STREAM 0 in
      Unix.setsockopt s Unix.SO_REUSEADDR true;
      Unix.bind s (Unix.ADDR_INET (ip, port));
      Unix.listen s 128;
      s

(** Run the server until a [Quit] request arrives; returns the engine (so
    callers can inspect final counters).  Blocking.  Ignores SIGPIPE for
    the whole process, so a client that closes without reading costs a
    counted failed write ([response_write_failures]), not the process. *)
let run (cfg : config) : Engine.t =
  if cfg.domains < 1 then invalid_arg "Server.run: domains must be >= 1";
  if cfg.adaptive && cfg.level <> None then
    invalid_arg "Server.run: --adaptive and --level are mutually exclusive";
  Sys.set_signal Sys.sigpipe Sys.Signal_ignore;
  let eng =
    (* the controller is blind without counters, so adaptive mode forces
       the obs registry on regardless of the COMMLAT_OBS toggle *)
    if cfg.adaptive then Engine.create ~obs:true ()
    else Engine.create ?level:cfg.level ()
  in
  let stop = Atomic.make false in
  (* two-phase shutdown: [stop] silences the accept loop and the adaptive
     controller; [stop_workers] is raised only after the controller has
     been joined, so no swap barrier can be posted once workers are
     allowed to exit — which is what guarantees every posted barrier
     completes (all workers stay alive until then) *)
  let stop_workers = Atomic.make false in
  let rr = Atomic.make 0 in
  let quits = { q_mu = Mutex.create (); waiting = []; answered = false } in
  let queues = Array.init cfg.domains (fun _ -> queue_create ()) in
  let gate = gate_create ~workers:cfg.domains in
  let workers =
    Array.mapi
      (fun _i qu ->
        Domain.spawn
          (worker ~eng ~qu ~stop:stop_workers ~gate ~verbose:cfg.verbose))
      queues
  in
  let ctrl =
    if cfg.adaptive then
      Some (Thread.create (controller_loop ~eng ~gate ~queues ~stop cfg) ())
    else None
  in
  let lsock = listen_socket cfg.addr in
  if cfg.verbose then
    Fmt.pr "commlat serve: listening on %a (%d domains, batch %d%s)@."
      pp_addr cfg.addr cfg.domains batch
      (if cfg.adaptive then ", adaptive" else "");
  (* accept with a timeout so the loop observes [stop] *)
  while not (Atomic.get stop) do
    match Unix.select [ lsock ] [] [] 0.1 with
    | [ _ ], _, _ -> (
        match Unix.accept lsock with
        | fd, _ ->
            let conn = { fd; out_mu = Mutex.create (); alive = true } in
            ignore
              (Thread.create (reader ~eng ~queues ~rr ~stop ~quits conn) ())
        | exception Unix.Unix_error (Unix.EINTR, _, _) -> ())
    | _ -> ()
  done;
  (* refuse new connections before anything is answered below *)
  (try Unix.close lsock with _ -> ());
  (match cfg.addr with
  | Unix_sock p -> ( try Unix.unlink p with _ -> ())
  | Tcp _ -> ());
  (* phase 1: retire the controller.  Any barrier it posted completes
     normally (workers are still running), after which it observes [stop]
     within one tick and exits. *)
  Option.iter Thread.join ctrl;
  (* phase 2: workers exit once their queues are empty *)
  Atomic.set stop_workers true;
  Array.iter wake_all queues;
  Array.iter Domain.join workers;
  (* a reader racing [Quit] may have enqueued after its worker exited:
     answer those with an error, so every request is answered *)
  Array.iter
    (fun qu ->
      Mutex.protect qu.mu (fun () ->
          while not (Queue.is_empty qu.q) do
            let j = Queue.pop qu.q in
            send_resp eng j.jconn
              (Wire.Err (Wire.req_id j.req, "server shutting down"))
          done))
    queues;
  (* every worker has flushed: the Quits come last on their connections *)
  let waiting =
    Mutex.protect quits.q_mu (fun () ->
        quits.answered <- true;
        quits.waiting)
  in
  List.iter
    (fun (conn, id) ->
      send_resp eng conn (Wire.Reply (id, Commlat_core.Value.Unit));
      close_conn conn)
    (List.rev waiting);
  if cfg.verbose then Fmt.pr "commlat serve: drained, shutting down@.";
  eng
