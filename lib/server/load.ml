(** Open-loop load generator for `commlat serve` (`commlat load`).

    Coordinated-omission-safe by construction: the i-th request of a run
    is {e scheduled} at [t0 + i/rate] independently of how fast the server
    answers, and its latency is measured from that scheduled instant to
    response receipt.  A stalled server therefore inflates the latency of
    every request scheduled during the stall — exactly the queueing delay
    a closed-loop generator silently omits.  The request id carries the
    op index, so the receiver recomputes the scheduled time from the id
    alone and no send-side bookkeeping is shared across threads.

    Key skew is Zipfian over [keys] keys (exponent [theta], YCSB-style)
    via an inverse-CDF table; each connection runs one sender and one
    receiver systhread over its own socket, all recording into one
    {!Commlat_obs.Histo} (wait-free, shared).

    Mixes:
    - [Read_heavy]: kvmap, 90% [get] / 10% [put] — the commuting-heavy
      baseline (reads admit each other; the server's batch_check fast
      path eats most of these).
    - [Write_heavy]: kvmap, 50% [put] / 40% [get] / 10% [remove].
    - [Commuting]: orset [add] with a globally fresh id per op — under
      the or-set spec {e every} pair of these commutes (the
      scalable-commutativity-rule mix: conflict-free by interface).
    - [Non_commuting]: kvmap [put] of random values on Zipf-hot keys
      plus 10% [size] — same-key puts with different values and
      domain-size reads are spec-refused, so contention is real, not an
      artifact of the implementation.
    - [Put]: kvmap [put] whose value is a pure function of the key —
      commutes under the precise spec in steady state but not under the
      coarsened ones.  The phase-shifting adaptive experiment's driver
      (see {!default_phases}). *)

open Commlat_core
module Histo = Commlat_obs.Histo
module Jsonx = Commlat_obs.Jsonx

type mix = Read_heavy | Write_heavy | Commuting | Non_commuting | Put

let mix_name = function
  | Read_heavy -> "read-heavy"
  | Write_heavy -> "write-heavy"
  | Commuting -> "commuting"
  | Non_commuting -> "non-commuting"
  | Put -> "put"

let mix_of_string = function
  | "read-heavy" -> Ok Read_heavy
  | "write-heavy" -> Ok Write_heavy
  | "commuting" -> Ok Commuting
  | "non-commuting" -> Ok Non_commuting
  | "put" -> Ok Put
  | s ->
      Error
        (Fmt.str
           "unknown mix %S (expected read-heavy, write-heavy, commuting, \
            non-commuting, put)"
           s)

type config = {
  addr : Server.addr;
  conns : int;
  rate : float;  (** aggregate target request rate, req/s *)
  duration : float;  (** seconds of scheduled load *)
  keys : int;
  theta : float;  (** Zipf exponent; 0 = uniform *)
  seed : int;
  mix : mix;
  burst : int;
      (** arrival burstiness: requests are scheduled in groups of [burst]
          at the same instant (aggregate rate unchanged).  [1] = evenly
          spaced.  Bursts are what fill server epochs: a worker that
          drains one request at a time never has two transactions open,
          so commutativity checks (and refusals) only happen when
          arrivals cluster. *)
}

let default_config =
  {
    addr = Server.Unix_sock "/tmp/commlat.sock";
    conns = 4;
    rate = 2000.0;
    duration = 2.0;
    keys = 100_000;
    theta = 0.99;
    seed = 42;
    mix = Read_heavy;
    burst = 1;
  }

type result = {
  cfg : config;  (** the config this result ran *)
  sent : int;
  completed : int;
  errors : int;  (** [Err] responses (incl. conflict-retry exhaustion) *)
  elapsed : float;
  hist : Histo.t;  (** latencies in nanoseconds *)
  server_obs : Jsonx.t option;  (** final server snapshot ([Stats]) *)
}

(* ------------------------------------------------------------------ *)
(* Zipf sampling                                                       *)
(* ------------------------------------------------------------------ *)

(* Inverse-CDF table: O(keys) setup, O(log keys) per sample. *)
let zipf_cdf ~keys ~theta =
  let w = Array.make keys 0.0 in
  let acc = ref 0.0 in
  for i = 0 to keys - 1 do
    acc := !acc +. (1.0 /. Float.pow (float_of_int (i + 1)) theta);
    w.(i) <- !acc
  done;
  let total = !acc in
  Array.map (fun x -> x /. total) w

let zipf_sample cdf st =
  let u = Random.State.float st 1.0 in
  let lo = ref 0 and hi = ref (Array.length cdf - 1) in
  while !lo < !hi do
    let mid = (!lo + !hi) / 2 in
    if cdf.(mid) < u then lo := mid + 1 else hi := mid
  done;
  !lo

(* ------------------------------------------------------------------ *)
(* Request synthesis                                                   *)
(* ------------------------------------------------------------------ *)

(* [op] is the global op index — used both as the wire id (latency
   recovery) and as the or-set's globally fresh tag. *)
let request_of cfg cdf st ~op : Wire.req =
  let key () = Value.Int (zipf_sample cdf st) in
  let u = Random.State.float st 1.0 in
  match cfg.mix with
  | Read_heavy ->
      if u < 0.9 then Wire.Invoke { id = op; adt = "kvmap"; meth = "get"; args = [| key () |] }
      else
        Wire.Invoke
          { id = op; adt = "kvmap"; meth = "put";
            args = [| key (); Value.Int (Random.State.bits st) |] }
  | Write_heavy ->
      if u < 0.5 then
        Wire.Invoke
          { id = op; adt = "kvmap"; meth = "put";
            args = [| key (); Value.Int (Random.State.bits st) |] }
      else if u < 0.9 then
        Wire.Invoke { id = op; adt = "kvmap"; meth = "get"; args = [| key () |] }
      else
        Wire.Invoke { id = op; adt = "kvmap"; meth = "remove"; args = [| key () |] }
  | Commuting ->
      (* fresh tag per op: the add;add and add;remove conditions are
         discharged for every pair — conflict-free by the spec *)
      Wire.Invoke
        { id = op; adt = "orset"; meth = "add";
          args = [| key (); Value.Int op |] }
  | Non_commuting ->
      if u < 0.9 then
        Wire.Invoke
          { id = op; adt = "kvmap"; meth = "put";
            args = [| key (); Value.Int (Random.State.bits st) |] }
      else Wire.Invoke { id = op; adt = "kvmap"; meth = "size"; args = [||] }
  | Put ->
      (* the value is a pure function of the key, so in steady state every
         same-key pair of these puts satisfies the precise kvmap put;put
         condition (equal values, equal returned old bindings) but violates
         the SIMPLE/partitioned coarsenings (same key).  Zipf-hot keys under
         this mix are exactly the workload where weakening toward the
         precise spec pays. *)
      let k = zipf_sample cdf st in
      Wire.Invoke
        { id = op; adt = "kvmap"; meth = "put";
          args = [| Value.Int k; Value.Int ((2 * k) + 1) |] }

(* ------------------------------------------------------------------ *)
(* Connections                                                         *)
(* ------------------------------------------------------------------ *)

let connect (addr : Server.addr) =
  let fd =
    match addr with
    | Server.Unix_sock path ->
        let s = Unix.socket Unix.PF_UNIX Unix.SOCK_STREAM 0 in
        Unix.connect s (Unix.ADDR_UNIX path);
        s
    | Server.Tcp (host, port) ->
        let ip =
          try Unix.inet_addr_of_string host
          with _ -> (Unix.gethostbyname host).Unix.h_addr_list.(0)
        in
        let s = Unix.socket Unix.PF_INET Unix.SOCK_STREAM 0 in
        Unix.connect s (Unix.ADDR_INET (ip, port));
        s
  in
  (* a wedged server must fail the run, not hang it *)
  Unix.setsockopt_float fd Unix.SO_RCVTIMEO 30.0;
  fd

(** One request/response on a fresh connection (control plane). *)
let rpc addr (req : Wire.req) : Wire.resp =
  let fd = connect addr in
  Fun.protect
    ~finally:(fun () -> try Unix.close fd with _ -> ())
    (fun () ->
      Wire.write_frame fd (Wire.encode_req req);
      match Wire.read_frame fd with
      | Some payload -> Wire.decode_resp payload
      | None -> Wire.Err (Wire.req_id req, "connection closed"))

let fetch_stats addr : Jsonx.t option =
  match rpc addr (Wire.Stats 0) with
  | Wire.Reply (_, Value.Str s) -> (
      match Jsonx.parse s with Ok j -> Some j | Error _ -> None)
  | _ -> None
  | exception _ -> None

(* ------------------------------------------------------------------ *)
(* The run                                                             *)
(* ------------------------------------------------------------------ *)

let now = Unix.gettimeofday

(** Run one load phase against a live server.  Blocks for roughly
    [cfg.duration] (longer if the server lags — that lag is the measured
    latency). *)
let run (cfg : config) : result =
  if cfg.conns < 1 then invalid_arg "Load.run: conns must be >= 1";
  if cfg.rate <= 0.0 then invalid_arg "Load.run: rate must be positive";
  let n_ops = int_of_float (cfg.rate *. cfg.duration) in
  let n_ops = max cfg.conns n_ops in
  let cdf = zipf_cdf ~keys:(max 1 cfg.keys) ~theta:cfg.theta in
  let hist = Histo.create () in
  let sent = Atomic.make 0 in
  let completed = Atomic.make 0 in
  let errors = Atomic.make 0 in
  if cfg.burst < 1 then invalid_arg "Load.run: burst must be >= 1";
  let t0 = now () +. 0.05 (* let every sender arm before the first slot *) in
  (* burst > 1 quantizes the schedule: ops [k*burst, (k+1)*burst) share
     slot k.  The receiver recovers the same instant from the op id, so
     latency still measures from the scheduled arrival. *)
  let sched_of op =
    t0
    +. float_of_int (op / cfg.burst) *. (float_of_int cfg.burst /. cfg.rate)
  in
  let conn_threads =
    List.init cfg.conns (fun c ->
        let fd = connect cfg.addr in
        let my_ops =
          let rec go i acc = if i >= n_ops then List.rev acc else go (i + cfg.conns) (i :: acc) in
          go c []
        in
        let n_mine = List.length my_ops in
        let sender () =
          let st = Random.State.make [| cfg.seed; c; 0xbeef |] in
          List.iter
            (fun op ->
              let dt = sched_of op -. now () in
              if dt > 0.0 then Unix.sleepf dt;
              let req = request_of cfg cdf st ~op in
              (try Wire.write_frame fd (Wire.encode_req req)
               with _ -> ());
              Atomic.incr sent)
            my_ops
        in
        let receiver () =
          let rec go k =
            if k < n_mine then
              match Wire.read_frame fd with
              | None -> () (* connection lost; sent-completed shows it *)
              | exception _ -> ()
              | Some payload ->
                  (match Wire.decode_resp payload with
                  | Wire.Reply (id, _) | Wire.Err (id, _) as resp ->
                      (match resp with
                      | Wire.Err _ -> Atomic.incr errors
                      | _ -> ());
                      let lat_s = now () -. sched_of id in
                      Histo.record hist
                        (int_of_float (Float.max 0.0 lat_s *. 1e9));
                      Atomic.incr completed
                  | exception Wire.Malformed _ -> Atomic.incr errors);
                  go (k + 1)
          in
          go 0
        in
        let rt = Thread.create receiver () in
        let stt = Thread.create sender () in
        (fd, rt, stt))
  in
  List.iter
    (fun (fd, rt, stt) ->
      Thread.join stt;
      Thread.join rt;
      try Unix.close fd with _ -> ())
    conn_threads;
  let elapsed = now () -. t0 in
  {
    cfg;
    sent = Atomic.get sent;
    completed = Atomic.get completed;
    errors = Atomic.get errors;
    elapsed = Float.max elapsed 1e-9;
    hist;
    server_obs = fetch_stats cfg.addr;
  }

(* ------------------------------------------------------------------ *)
(* Phase-shifting sweep                                                *)
(* ------------------------------------------------------------------ *)

(** One segment of a phase-shifting run: the same server, a different
    workload regime.  The three default phases are chosen so that each
    favours a different lattice point (see DESIGN.md §12):
    commuting-heavy uniform puts (checks dominate → strengthen pays),
    hot-key contention where the coarsened specs refuse what the precise
    one admits (→ weaken pays), then a read-heavy tail. *)
type phase = {
  p_name : string;
  p_mix : mix;
  p_theta : float;
  p_keys : int;
  p_duration : float;
  p_burst : int;
}

let default_phases ?(burst = 32) ~duration () =
  [
    { p_name = "commuting"; p_mix = Put; p_theta = 0.0; p_keys = 50_000;
      p_duration = duration; p_burst = burst };
    { p_name = "hot-key"; p_mix = Put; p_theta = 1.2; p_keys = 512;
      p_duration = duration; p_burst = burst };
    { p_name = "read-heavy"; p_mix = Read_heavy; p_theta = 0.5;
      p_keys = 50_000; p_duration = duration; p_burst = burst };
  ]

(** Run the phases back to back against one live server (same detector
    state throughout — that continuity is the point: an adaptive server
    must renavigate the lattice as the regime under it shifts).  Returns
    [(phase, result)] in order; each result's [cfg] is [cfg] with that
    phase's mix, keys, skew, duration and burst, and its [server_obs] is
    the {e cumulative} server snapshot at the end of that phase, so
    per-phase counter deltas are the caller's subtraction. *)
let run_phases (cfg : config) (phases : phase list) : (phase * result) list =
  List.map
    (fun p ->
      let r =
        run
          { cfg with mix = p.p_mix; theta = p.p_theta; keys = p.p_keys;
            duration = p.p_duration; burst = p.p_burst }
      in
      (p, r))
    phases

(* ------------------------------------------------------------------ *)
(* BENCH row                                                           *)
(* ------------------------------------------------------------------ *)

(** One `commlat-bench/1` row, describing the config [r] ran.  Latencies
    are reported in milliseconds (p50/p99/p999 both inside ["latency_ms"]
    and as top-level fields for the CI gate); ["obs"] carries the server's
    merged snapshot, which is what makes the row validate.  With [phase],
    the row starts with a ["phase"] field naming it. *)
let row_json ?phase ~domains (r : result) : Jsonx.t =
  let cfg = r.cfg in
  let q ql = float_of_int (Histo.quantile r.hist ql) *. 1e-6 in
  let obs =
    match r.server_obs with
    | Some j -> j
    | None ->
        (* a validating row needs a snapshot even if the Stats call
           failed: an empty one is honest about what we got *)
        Commlat_obs.Obs.(snapshot_to_json (snapshot (create ~enabled:true "serve-load")))
  in
  let phase_field =
    match phase with Some p -> [ ("phase", Jsonx.Str p.p_name) ] | None -> []
  in
  Jsonx.Obj
    (phase_field
    @ [
        ("workload", Jsonx.Str ("serve-" ^ mix_name cfg.mix));
        ("mix", Jsonx.Str (mix_name cfg.mix));
        ("domains", Jsonx.Int domains);
        ("conns", Jsonx.Int cfg.conns);
        ("target_rate_rps", Jsonx.Float cfg.rate);
        ("duration_s", Jsonx.Float cfg.duration);
        ("keys", Jsonx.Int cfg.keys);
        ("zipf_theta", Jsonx.Float cfg.theta);
        ("burst", Jsonx.Int cfg.burst);
        ("sent", Jsonx.Int r.sent);
        ("completed", Jsonx.Int r.completed);
        ("errors", Jsonx.Int r.errors);
        ("elapsed_s", Jsonx.Float r.elapsed);
        ( "throughput_rps",
          Jsonx.Float (float_of_int r.completed /. r.elapsed) );
        ("p50_ms", Jsonx.Float (q 0.50));
        ("p99_ms", Jsonx.Float (q 0.99));
        ("p999_ms", Jsonx.Float (q 0.999));
        ("latency_ms", Histo.summary_json ~scale:1e-6 r.hist);
        ("obs", obs);
      ])

(* ------------------------------------------------------------------ *)
(* Self-serve: spawn a server child per cell                           *)
(* ------------------------------------------------------------------ *)

(** Spawn [exe serve] as a child process on a fresh Unix socket, wait for
    the socket to accept, run [f addr], send [Quit], and reap the child.
    [extra_args] are appended to the child's argv verbatim (e.g.
    [["--adaptive"]] or [["--level"; "precise"]]).  Returns [f]'s result
    and the child's exit status — a nonzero server exit must fail the
    benchmark run. *)
let with_server ~exe ~domains ?(nshards = Engine.default_nshards) ?(batch = 64)
    ?(extra_args = []) (f : Server.addr -> 'a) : 'a * Unix.process_status =
  let path =
    Filename.temp_file "commlat-serve-" ".sock" |> fun p ->
    Sys.remove p;
    p
  in
  let argv =
    Array.of_list
      ([
         exe; "serve"; "--socket"; path; "--domains"; string_of_int domains;
         "--shards"; string_of_int nshards; "--batch"; string_of_int batch;
       ]
      @ extra_args)
  in
  let pid = Unix.create_process exe argv Unix.stdin Unix.stdout Unix.stderr in
  let deadline = now () +. 10.0 in
  let rec wait_ready () =
    if now () > deadline then failwith "server did not come up within 10s";
    match rpc (Server.Unix_sock path) (Wire.Ping 0) with
    | Wire.Reply _ -> ()
    | _ -> failwith "server refused ping"
    | exception _ ->
        Unix.sleepf 0.05;
        wait_ready ()
  in
  wait_ready ();
  let finish () =
    (try ignore (rpc (Server.Unix_sock path) (Wire.Quit 0)) with _ -> ());
    let _, status = Unix.waitpid [] pid in
    status
  in
  match f (Server.Unix_sock path) with
  | r ->
      let status = finish () in
      (r, status)
  | exception e ->
      (try Unix.kill pid Sys.sigkill with _ -> ());
      ignore (try finish () with _ -> Unix.WEXITED 0);
      raise e
