(* The benchmark's traced run.  It drives the public calls a server worker
   or the explore CLI makes, in-process, and records a span around each:

     tracer serve STREAM PREFILL REQUESTS ROUNDS SPANS
     tracer explore WORKLOAD DETECTOR TXNS SEED MAX_SCHEDULES ROUNDS SPANS

   Each round replays the same input twice on fresh state, once without
   spans and once with them; the JSON summary on stdout gives both times so
   the caller can compute the tracing overhead.  Spans (one per line: id,
   name, parent line or -1, start ns, end ns) are kept in memory and written
   to SPANS at the end, from the last traced round only. *)

module Wire = Commlat_server.Wire
module Engine = Commlat_server.Engine
module Explore = Commlat_sched.Explore
module Scheduler = Commlat_sched.Scheduler
module Workload = Commlat_sched.Workload
module Protect = Commlat_runtime.Protect

external now_ns : unit -> (int[@untagged])
  = "perfbench_now_ns_byte" "perfbench_now_ns"
[@@noalloc]

(* ---- spans ---- *)

type spans = {
  mutable on : bool;
  mutable n : int;
  mutable name : string array;
  mutable id : int array;
  mutable parent : int array;
  mutable t0 : int array;
  mutable t1 : int array;
}

let spans () =
  let cap = 1 lsl 16 in
  {
    on = false;
    n = 0;
    name = Array.make cap "";
    id = Array.make cap 0;
    parent = Array.make cap 0;
    t0 = Array.make cap 0;
    t1 = Array.make cap 0;
  }

let grow sp =
  let g a x = Array.append a (Array.make (Array.length a) x) in
  sp.name <- g sp.name "";
  sp.id <- g sp.id 0;
  sp.parent <- g sp.parent 0;
  sp.t0 <- g sp.t0 0;
  sp.t1 <- g sp.t1 0

let start sp name ~id ~parent =
  if sp.n = Array.length sp.id then grow sp;
  let i = sp.n in
  sp.name.(i) <- name;
  sp.id.(i) <- id;
  sp.parent.(i) <- parent;
  sp.n <- i + 1;
  sp.t0.(i) <- now_ns ();
  i

let stop sp i = sp.t1.(i) <- now_ns ()

(* [span sp name ~id ~parent f] runs [f], inside a span when tracing is on. *)
let span sp name ~id ~parent f =
  if not sp.on then f ()
  else
    let i = start sp name ~id ~parent in
    match f () with
    | r ->
        stop sp i;
        r
    | exception e ->
        stop sp i;
        raise e

let write_spans sp path =
  let oc = open_out path in
  for i = 0 to sp.n - 1 do
    Printf.fprintf oc "%d\t%s\t%d\t%d\t%d\n" sp.id.(i) sp.name.(i)
      sp.parent.(i) sp.t0.(i) sp.t1.(i)
  done;
  close_out oc

(* Time [rounds] untraced and traced runs of [f], alternating; only the
   last traced round's spans are kept. *)
let rounds sp n f =
  let timed on =
    sp.on <- on;
    sp.n <- 0;
    let t0 = now_ns () in
    let r = f () in
    (float_of_int (now_ns () - t0) *. 1e-9, r)
  in
  let res = List.init n (fun _ -> let u = timed false in (u, timed true)) in
  sp.on <- false;
  res

let floats l = "[" ^ String.concat ", " (List.map (Printf.sprintf "%.9f") l) ^ "]"

(* ---- serve: the worker loop of lib/server/server.ml, one thread ---- *)

let read_frames path =
  let ic = open_in_bin path in
  let s = really_input_string ic (in_channel_length ic) in
  close_in ic;
  let rec go off acc =
    if off >= String.length s then List.rev acc
    else
      let n = Int32.to_int (String.get_int32_be s off) in
      go (off + 4 + n) (String.sub s (off + 4) n :: acc)
  in
  Array.of_list (go 0 [])

let domains = 2
let batch = 64
let max_retries = 64

type worker = { mutable open_txns : (Engine.pending * int) list; mutable count : int }

(* Returns the number of Err replies. *)
let replay_serve sp frames ~prefill ~requests =
  let eng = Engine.create () in
  for i = 0 to prefill - 1 do
    match Engine.handle eng (Wire.decode_req frames.(i)) with
    | Wire.Reply _ -> ()
    | Wire.Err (_, m) -> failwith ("prefill: " ^ m)
  done;
  let workers = Array.init domains (fun _ -> { open_txns = []; count = 0 }) in
  let rr = ref 0 in
  let errors = ref 0 in
  let flush ~parent w =
    List.iter
      (fun (p, id) -> span sp "commit" ~id ~parent (fun () -> Engine.commit eng p))
      (List.rev w.open_txns);
    w.open_txns <- [];
    w.count <- 0
  in
  for r = prefill to prefill + requests - 1 do
    let id = r - prefill in
    let root = if sp.on then start sp "request" ~id ~parent:(-1) else -1 in
    let req = span sp "decode" ~id ~parent:root (fun () -> Wire.decode_req frames.(r)) in
    let w =
      match span sp "route" ~id ~parent:root (fun () -> Engine.route_hash eng req) with
      | Some h -> (h land max_int) mod domains
      | None ->
          incr rr;
          !rr mod domains
    in
    let wk = workers.(w) in
    let rec attempt n =
      match span sp "try_req" ~id ~parent:root (fun () -> Engine.try_req eng req) with
      | Engine.Done (p, resp) ->
          Option.iter (fun p -> wk.open_txns <- (p, id) :: wk.open_txns) p;
          resp
      | Engine.Conflicted reason ->
          (* as the server: close this worker's epoch and retry; one
             thread cannot wait for the other worker's epoch to end, so a
             second conflict closes every epoch *)
          flush ~parent:root wk;
          if n >= 1 then Array.iter (flush ~parent:root) workers;
          if n >= max_retries then
            Wire.Err (Wire.req_id req, "conflict retries exhausted: " ^ reason)
          else attempt (n + 1)
    in
    let resp = attempt 0 in
    (match resp with Wire.Err _ -> incr errors | Wire.Reply _ -> ());
    ignore (span sp "encode" ~id ~parent:root (fun () -> Wire.encode_resp resp));
    wk.count <- wk.count + 1;
    if wk.count >= batch then flush ~parent:root wk;
    if root >= 0 then stop sp root
  done;
  Array.iter (flush ~parent:(-1)) workers;
  !errors

let serve stream prefill requests n out =
  let frames = read_frames stream in
  let requests = min requests (Array.length frames - prefill) in
  let sp = spans () in
  let res = rounds sp n (fun () -> replay_serve sp frames ~prefill ~requests) in
  write_spans sp out;
  let errors = List.fold_left (fun a ((_, e1), (_, e2)) -> a + e1 + e2) 0 res in
  Printf.printf
    "{\"requests\": %d, \"errors\": %d, \"untraced_s\": %s, \"traced_s\": %s}\n"
    requests errors
    (floats (List.map (fun ((u, _), _) -> u) res))
    (floats (List.map (fun (_, (t, _)) -> t) res))

(* ---- explore: the CLI's --domains 1 entry point ---- *)

let explore workload detector txns seed max_schedules n out =
  let scheme =
    match Protect.scheme_of_string detector with
    | Ok s -> s
    | Error m -> failwith m
  in
  let w =
    match Workload.by_name ~txns ~seed workload scheme with
    | Ok w -> w
    | Error m -> failwith m
  in
  let sp = spans () in
  let config = { Explore.default_config with Explore.max_schedules } in
  let job () =
    let root = if sp.on then start sp "job" ~id:(-1) ~parent:(-1) else -1 in
    let next = ref 0 in
    let mk () =
      let id = !next in
      incr next;
      let inst = span sp "make" ~id ~parent:root w.Workload.make in
      {
        inst with
        Scheduler.oracle =
          (fun h -> span sp "oracle" ~id ~parent:root (fun () -> inst.Scheduler.oracle h));
      }
    in
    let r = Explore.explore ~config mk in
    if root >= 0 then stop sp root;
    r
  in
  let res = rounds sp n job in
  write_spans sp out;
  let reports = List.concat_map (fun ((_, a), (_, b)) -> [ a; b ]) res in
  let r = List.hd reports in
  let ok =
    List.for_all
      (fun (x : Explore.report) ->
        x.Explore.verdict = None && x.Explore.exhausted
        && x.Explore.c.Explore.runs = r.Explore.c.Explore.runs)
      reports
  in
  Printf.printf
    "{\"schedules\": %d, \"ok\": %b, \"untraced_s\": %s, \"traced_s\": %s}\n"
    r.Explore.c.Explore.runs ok
    (floats (List.map (fun ((u, _), _) -> u) res))
    (floats (List.map (fun (_, (t, _)) -> t) res))

let () =
  match Array.to_list Sys.argv |> List.tl with
  | [ "serve"; stream; prefill; requests; n; out ] ->
      serve stream (int_of_string prefill) (int_of_string requests)
        (int_of_string n) out
  | [ "explore"; workload; detector; txns; seed; max_schedules; n; out ] ->
      explore workload detector (int_of_string txns) (int_of_string seed)
        (int_of_string max_schedules) (int_of_string n) out
  | _ ->
      prerr_endline
        "usage: tracer serve STREAM PREFILL REQUESTS ROUNDS SPANS\n\
        \       tracer explore WORKLOAD DETECTOR TXNS SEED MAX_SCHEDULES \
         ROUNDS SPANS";
      exit 2
