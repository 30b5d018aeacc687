(* Wire-protocol codec properties and the in-process client/server
   conformance suite: these run single-threaded and socket-free (pipes
   only, for the framing-cap tests), so tier-1 stays deterministic.  A
   few tests drive a real server over a temporary Unix socket: bursts,
   a client gone mid-burst, a pipelined Quit and what a load row
   reports; the rest of the socket path is exercised by the CI serve
   steps. *)

open Commlat_core
module Wire = Commlat_server.Wire
module Engine = Commlat_server.Engine
module Server = Commlat_server.Server
module Load = Commlat_server.Load
module Histo = Commlat_obs.Histo
module Jsonx = Commlat_obs.Jsonx

let check_bool = Alcotest.(check bool)
let check_int = Alcotest.(check int)
let check_str = Alcotest.(check string)

(* ------------------------------------------------------------- *)
(* Generators                                                     *)
(* ------------------------------------------------------------- *)

let value_gen : Value.t QCheck2.Gen.t =
  let open QCheck2.Gen in
  sized @@ fix (fun self n ->
      let leaf =
        oneof
          [
            return Value.Unit;
            map (fun b -> Value.Bool b) bool;
            map (fun i -> Value.Int i) int;
            (* decode(encode f) preserves the bit pattern, so nan is fair
               game; avoid it anyway to keep Value.equal-based checks
               simple and compare representations instead *)
            map (fun f -> Value.Float f) (float_bound_inclusive 1e12);
            map (fun s -> Value.Str s) (string_size (0 -- 40));
            map
              (fun l -> Value.Point (Array.of_list l))
              (list_size (0 -- 4) (float_bound_inclusive 1e6));
          ]
      in
      if n <= 1 then leaf
      else
        oneof
          [
            leaf;
            map2 (fun a b -> Value.Pair (a, b)) (self (n / 2)) (self (n / 2));
            map (fun o -> Value.Opt o) (option (self (n / 2)));
            map (fun l -> Value.List l) (list_size (0 -- 4) (self (n / 3)));
          ])

let name_gen = QCheck2.Gen.(string_size ~gen:(char_range 'a' 'z') (1 -- 12))

let req_gen : Wire.req QCheck2.Gen.t =
  let open QCheck2.Gen in
  let id = 0 -- 1_000_000 in
  oneof
    [
      (let* id = id and* adt = name_gen and* meth = name_gen
       and* args = list_size (0 -- 5) value_gen in
       return (Wire.Invoke { id; adt; meth; args = Array.of_list args }));
      map (fun id -> Wire.Stats id) id;
      map (fun id -> Wire.Quit id) id;
      map (fun id -> Wire.Ping id) id;
    ]

let resp_gen : Wire.resp QCheck2.Gen.t =
  let open QCheck2.Gen in
  oneof
    [
      (let* id = 0 -- 1_000_000 and* v = value_gen in
       return (Wire.Reply (id, v)));
      (let* id = 0 -- 1_000_000 and* m = string_size (0 -- 60) in
       return (Wire.Err (id, m)));
    ]

(* Structural equality via the canonical printers (dodges nan <> nan
   while still catching any bit-level float corruption). *)
let req_repr (r : Wire.req) =
  match r with
  | Wire.Invoke { id; adt; meth; args } ->
      Fmt.str "invoke %d %s %s [%a]" id adt meth
        Fmt.(array ~sep:semi Value.pp)
        args
  | Wire.Stats id -> Fmt.str "stats %d" id
  | Wire.Quit id -> Fmt.str "quit %d" id
  | Wire.Ping id -> Fmt.str "ping %d" id

let resp_repr (r : Wire.resp) =
  match r with
  | Wire.Reply (id, v) -> Fmt.str "reply %d %a" id Value.pp v
  | Wire.Err (id, m) -> Fmt.str "err %d %s" id m

(* ------------------------------------------------------------- *)
(* Codec properties                                               *)
(* ------------------------------------------------------------- *)

let prop_req_roundtrip =
  QCheck2.Test.make ~count:500 ~name:"wire: request encode/decode round-trip"
    req_gen (fun r -> req_repr (Wire.decode_req (Wire.encode_req r)) = req_repr r)

let prop_resp_roundtrip =
  QCheck2.Test.make ~count:500 ~name:"wire: response encode/decode round-trip"
    resp_gen (fun r ->
      resp_repr (Wire.decode_resp (Wire.encode_resp r)) = resp_repr r)

let prop_truncated_rejected =
  QCheck2.Test.make ~count:300
    ~name:"wire: every strict prefix of a request is Malformed" req_gen
    (fun r ->
      let s = Wire.encode_req r in
      let ok = ref true in
      for n = 0 to String.length s - 1 do
        match Wire.decode_req (String.sub s 0 n) with
        | _ -> ok := false
        | exception Wire.Malformed _ -> ()
      done;
      !ok)

let prop_trailing_rejected =
  QCheck2.Test.make ~count:300
    ~name:"wire: trailing bytes after a request are Malformed" req_gen
    (fun r ->
      match Wire.decode_req (Wire.encode_req r ^ "\x00") with
      | _ -> false
      | exception Wire.Malformed _ -> true)

(* The frame splitter against [read_frame]: a request stream fed to
   [Wire.frame_at] in pieces cut at random offsets, as a reader's [read]s
   would deliver it, yields exactly the payloads [read_frame] reads from
   the uncut stream.  The stream ends cleanly, with a frame cut short
   (the splitter reports [Short], never a payload), or with an oversized
   length prefix (the splitter raises [Malformed] at that frame). *)
type stream_end = Clean | Cut of int | Oversize of int

let stream_end_gen =
  QCheck2.Gen.(
    oneof
      [
        return Clean;
        map (fun k -> Cut k) (1 -- 1_000);
        map (fun n -> Oversize n) (Wire.max_frame + 1 -- 0xffff_ffff);
      ])

(* every payload [read_frame] reads from [stream], and whether it ended
   at a frame boundary *)
let read_frames stream =
  let path = Filename.temp_file "commlat-frames-" ".bin" in
  Out_channel.with_open_bin path (fun oc -> Out_channel.output_string oc stream);
  let fd = Unix.openfile path [ Unix.O_RDONLY ] 0 in
  let rec go acc =
    match Wire.read_frame fd with
    | Some p -> go (p :: acc)
    | None -> (List.rev acc, true)
    | exception Wire.Malformed _ -> (List.rev acc, false)
  in
  let r = go [] in
  Unix.close fd;
  Sys.remove path;
  r

(* feed [stream] to the splitter one read at a time, as a reader holding
   exactly the bytes before each cut would: the payloads in order, and
   whether the stream ended [`Clean], in a [`Short] frame or [`Malformed] *)
let split_frames stream cuts =
  let n = String.length stream in
  let lims = List.sort_uniq compare (List.map (fun c -> c mod (n + 1)) cuts) @ [ n ] in
  let rec feed pos acc = function
    | [] -> (List.rev acc, if pos = n then `Clean else `Short)
    | lim :: rest ->
        let b = Bytes.of_string (String.sub stream 0 lim) in
        let rec split pos acc =
          match Wire.frame_at b pos lim with
          | Wire.Frame len ->
              split (pos + 4 + len) (Bytes.sub_string b (pos + 4) len :: acc)
          | Wire.Short need ->
              if need <= lim - pos then (List.rev acc, `Short_with_frame_there)
              else feed pos acc rest
          | exception Wire.Malformed _ -> (List.rev acc, `Malformed)
        in
        split pos acc
  in
  feed 0 [] lims

let prop_frame_splitter =
  QCheck2.Test.make ~count:300
    ~name:"wire: frame_at splits a stream cut anywhere as read_frame reads it"
    QCheck2.Gen.(
      triple (list_size (0 -- 8) req_gen) (list_size (0 -- 8) (0 -- 100_000))
        stream_end_gen)
    (fun (reqs, cuts, tail) ->
      let b = Buffer.create 256 in
      List.iter (fun r -> Wire.add_frame b (Wire.encode_req r)) reqs;
      (match tail with
      | Clean -> ()
      | Cut k ->
          let f = Buffer.create 64 in
          Wire.add_frame f (Wire.encode_req (Wire.Ping 1));
          Buffer.add_string b (Buffer.sub f 0 (k mod (Buffer.length f - 1) + 1))
      | Oversize n -> Buffer.add_int32_be b (Int32.of_int n));
      let stream = Buffer.contents b in
      let want, clean = read_frames stream in
      let got, ending = split_frames stream cuts in
      List.length want = List.length reqs
      && clean = (tail = Clean)
      && got = want
      && ending
         = match tail with
           | Clean -> `Clean
           | Cut _ -> `Short
           | Oversize _ -> `Malformed)

let test_codec_malformed_tags () =
  let m s = match Wire.decode_req s with
    | _ -> false
    | exception Wire.Malformed _ -> true
  in
  check_bool "empty payload" true (m "");
  check_bool "unknown request tag" true (m "\x2a");
  check_bool "bad bool byte" true
    (match Wire.decode_resp "\x01\x00\x00\x00\x00\x00\x00\x00\x07\x01\x05" with
    | _ -> false
    | exception Wire.Malformed _ -> true);
  (* a tiny frame declaring a billion-element list must die on the
     cheap length check, not after allocating *)
  let b = Buffer.create 16 in
  Buffer.add_string b "\x01";
  Buffer.add_string b (String.make 8 '\x00') (* id *);
  Buffer.add_string b "\x01k" (* adt "k" *);
  Buffer.add_string b "\x01g" (* meth "g" *);
  Buffer.add_string b "\x01" (* argc 1 *);
  Buffer.add_string b "\x08\x3b\x9a\xca\x00" (* List of 1e9 *);
  check_bool "huge list length" true (m (Buffer.contents b))

(* Framing over a pipe: the length prefix is bounds-checked before any
   allocation, and a clean EOF at a frame boundary is [None]. *)
let test_framing_pipe () =
  let r, w = Unix.pipe () in
  let payload = Wire.encode_req (Wire.Ping 7) in
  Wire.write_frame w payload;
  (match Wire.read_frame r with
  | Some p -> check_str "payload round-trips the pipe" payload p
  | None -> Alcotest.fail "expected a frame");
  (* several add_frame frames in one write come back one by one *)
  let payloads =
    List.map (fun id -> Wire.encode_req (Wire.Ping id)) [ 1; 2; 3 ]
  in
  let b = Buffer.create 64 in
  List.iter (Wire.add_frame b) payloads;
  ignore (Unix.write w (Buffer.to_bytes b) 0 (Buffer.length b));
  List.iter
    (fun p ->
      match Wire.read_frame r with
      | Some q -> check_str "batched frame round-trips the pipe" p q
      | None -> Alcotest.fail "expected a batched frame")
    payloads;
  (* oversized declared length *)
  let hdr = Bytes.create 4 in
  Bytes.set_int32_be hdr 0 (Int32.of_int (Wire.max_frame + 1));
  ignore (Unix.write w hdr 0 4);
  (match Wire.read_frame r with
  | _ -> Alcotest.fail "oversized length prefix must be Malformed"
  | exception Wire.Malformed _ -> ());
  (* mid-frame EOF *)
  Bytes.set_int32_be hdr 0 100l;
  ignore (Unix.write w hdr 0 4);
  ignore (Unix.write_substring w "abc" 0 3);
  Unix.close w;
  (match Wire.read_frame r with
  | _ -> Alcotest.fail "mid-frame EOF must be Malformed"
  | exception Wire.Malformed _ -> ());
  Unix.close r;
  (* EOF right after a length prefix is mid-frame too, not a payload *)
  let r, w = Unix.pipe () in
  ignore (Unix.write w hdr 0 4);
  Unix.close w;
  (match Wire.read_frame r with
  | _ -> Alcotest.fail "EOF after a length prefix must be Malformed"
  | exception Wire.Malformed _ -> ());
  Unix.close r;
  (* writer-side caps *)
  (match
     Wire.add_frame (Buffer.create 16) (String.make (Wire.max_frame + 1) 'x')
   with
  | () -> Alcotest.fail "oversized add_frame must be Malformed"
  | exception Wire.Malformed _ -> ());
  match Wire.write_frame Unix.stderr (String.make (Wire.max_frame + 1) 'x') with
  | _ -> Alcotest.fail "oversized write_frame must be Malformed"
  | exception Wire.Malformed _ -> ()

(* ------------------------------------------------------------- *)
(* In-process conformance: one engine, synchronous handle          *)
(* ------------------------------------------------------------- *)

let invoke ?(id = 0) adt meth args = Wire.Invoke { id; adt; meth; args }

let expect_reply what resp =
  match resp with
  | Wire.Reply (_, v) -> v
  | Wire.Err (_, m) -> Alcotest.failf "%s: unexpected error %S" what m

let expect_err what resp =
  match resp with
  | Wire.Err (_, m) -> m
  | Wire.Reply (_, v) ->
      Alcotest.failf "%s: expected an error frame, got %a" what Value.pp v

let test_conformance () =
  let eng = Engine.create ~obs:true ~uf_elements:16 () in
  let h req = Engine.handle eng req in
  (* kvmap *)
  check_bool "put fresh returns None" true
    (expect_reply "put" (h (invoke "kvmap" "put" [| Value.Int 1; Value.Str "a" |]))
    = Value.Opt None);
  check_bool "get sees the put" true
    (expect_reply "get" (h (invoke "kvmap" "get" [| Value.Int 1 |]))
    = Value.Opt (Some (Value.Str "a")));
  check_bool "size counts" true
    (expect_reply "size" (h (invoke "kvmap" "size" [||])) = Value.Int 1);
  check_bool "remove returns the binding" true
    (expect_reply "remove" (h (invoke "kvmap" "remove" [| Value.Int 1 |]))
    = Value.Opt (Some (Value.Str "a")));
  (* set *)
  check_bool "set add" true
    (expect_reply "add" (h (invoke "set" "add" [| Value.Int 5 |])) = Value.Bool true);
  check_bool "set contains" true
    (expect_reply "contains" (h (invoke "set" "contains" [| Value.Int 5 |]))
    = Value.Bool true);
  (* orset *)
  check_bool "orset add" true
    (expect_reply "orset add"
       (h (invoke "orset" "add" [| Value.Str "x"; Value.Int 1 |]))
    = Value.Unit);
  (* union-find on the pre-created elements *)
  check_bool "union" true
    (expect_reply "union" (h (invoke "union-find" "union" [| Value.Int 0; Value.Int 1 |]))
    = Value.Bool true);
  let r0 = expect_reply "find 0" (h (invoke "union-find" "find" [| Value.Int 0 |])) in
  let r1 = expect_reply "find 1" (h (invoke "union-find" "find" [| Value.Int 1 |])) in
  check_bool "united elements share a rep" true (Value.equal r0 r1);
  (* control plane *)
  check_bool "ping" true
    (expect_reply "ping" (h (Wire.Ping 3)) = Value.Unit);
  (match h (Wire.Stats 4) with
  | Wire.Reply (4, Value.Str s) ->
      check_bool "stats is a parsable snapshot" true
        (match Commlat_obs.Jsonx.parse s with Ok _ -> true | Error _ -> false)
  | _ -> Alcotest.fail "stats must reply a JSON string")

(* The server-edge regression: malformed invocations abort only their own
   transaction, answer an error frame, and leave the engine fully
   operational. *)
let test_error_containment () =
  let eng = Engine.create ~uf_elements:8 () in
  let h req = Engine.handle eng req in
  ignore (expect_err "unknown adt" (h (invoke "queue" "push" [| Value.Int 1 |])));
  ignore (expect_err "unknown method" (h (invoke "kvmap" "frobnicate" [||])));
  ignore (expect_err "bad arity" (h (invoke "kvmap" "put" [| Value.Int 1 |])));
  (* Value.Type_error from deep inside the ADT (string where an element
     index belongs) *)
  ignore
    (expect_err "type error aborts the transaction only"
       (h (invoke "union-find" "find" [| Value.Str "wat" |])));
  (* out-of-range element: an Invalid_argument escape route *)
  ignore
    (expect_err "out-of-range index"
       (h (invoke "union-find" "find" [| Value.Int 9_999_999 |])));
  (* the engine is alive and consistent afterwards *)
  check_bool "subsequent valid requests still work" true
    (expect_reply "put" (h (invoke "kvmap" "put" [| Value.Int 2; Value.Int 3 |]))
    = Value.Opt None);
  check_bool "union-find still works" true
    (expect_reply "find" (h (invoke "union-find" "find" [| Value.Int 0 |]))
    = Value.Int 0)

(* Aborted wire transactions must also drop their orset presence-log
   entries (the forget-on-refusal path), and committed ones must not
   leak: after any request sequence the log is empty. *)
let test_orset_log_drains_through_engine () =
  let eng = Engine.create () in
  let h req = Engine.handle eng req in
  for i = 0 to 99 do
    ignore
      (expect_reply "add"
         (h (invoke "orset" "add" [| Value.Int (i mod 7); Value.Int i |])));
    if i mod 3 = 0 then
      ignore
        (expect_reply "remove"
           (h (invoke "orset" "remove" [| Value.Int (i mod 7); Value.Int i |])))
  done;
  check_int "presence log empty after all commits" 0
    (Commlat_adts.Orset.log_size (Engine.orset_handle eng))

(* Flow-graph over the wire: the engine exposes the 64-node ladder
   (chain edges cap 1000, +8 chords cap 500) under "flow-graph".  The
   round-trip checks the Value encodings of all four methods and the
   preflow-side-conditions of push_flow. *)
let test_flow_graph_wire () =
  let eng = Engine.create ~obs:true () in
  let h req = Engine.handle eng req in
  (* heights start at 0 everywhere *)
  check_bool "initial height" true
    (expect_reply "height" (h (invoke "flow-graph" "height" [| Value.Int 0 |]))
    = Value.Int 0);
  (* get_neighbors of node 0: excess 0, height 0, edges to 1 (cap 1000)
     and 8 (cap 500) *)
  (match
     expect_reply "get_neighbors"
       (h (invoke "flow-graph" "get_neighbors" [| Value.Int 0 |]))
   with
  | Value.List [ Value.Int excess; Value.Int height; Value.List ns ] ->
      check_int "node 0 excess" 0 excess;
      check_int "node 0 height" 0 height;
      let caps =
        List.filter_map
          (function
            | Value.Pair (Value.Int v, Value.Int c) -> Some (v, c) | _ -> None)
          ns
      in
      check_bool "chain edge 0->1 cap 1000" true (List.mem (1, 1000) caps);
      check_bool "chord edge 0->8 cap 500" true (List.mem (8, 500) caps)
  | v -> Alcotest.failf "get_neighbors shape: %a" Value.pp v);
  (* push with no excess at the source is a no-op returning 0 *)
  check_bool "push without excess moves nothing" true
    (expect_reply "push_flow"
       (h (invoke "flow-graph" "push_flow" [| Value.Int 0; Value.Int 1 |]))
    = Value.Int 0);
  (* relabel_to returns the PREVIOUS height (its own undo token) *)
  check_bool "relabel_to returns previous height" true
    (expect_reply "relabel_to"
       (h (invoke "flow-graph" "relabel_to" [| Value.Int 0; Value.Int 3 |]))
    = Value.Int 0);
  check_bool "height reads the relabel back" true
    (expect_reply "height" (h (invoke "flow-graph" "height" [| Value.Int 0 |]))
    = Value.Int 3);
  (* even with height 0->3 admissible-looking, excess 0 still means no push *)
  ignore
    (expect_reply "relabel_to"
       (h (invoke "flow-graph" "relabel_to" [| Value.Int 1; Value.Int 2 |])));
  check_bool "push needs source excess, not just heights" true
    (expect_reply "push_flow"
       (h (invoke "flow-graph" "push_flow" [| Value.Int 0; Value.Int 1 |]))
    = Value.Int 0);
  (* malformed requests error without wedging the engine *)
  ignore
    (expect_err "out-of-range node"
       (h (invoke "flow-graph" "height" [| Value.Int 9999 |])));
  ignore (expect_err "bad arity" (h (invoke "flow-graph" "push_flow" [| Value.Int 0 |])));
  check_bool "engine alive after flow-graph errors" true
    (expect_reply "height" (h (invoke "flow-graph" "height" [| Value.Int 1 |]))
    = Value.Int 2)

(* Mid-stream lattice moves: set_level between requests must preserve
   single-threaded conformance, adopt the live ADT state, and keep the
   chain registry consistent. *)
let test_set_level_mid_stream () =
  let eng = Engine.create ~obs:true ~uf_elements:16 () in
  let h req = Engine.handle eng req in
  (* registry shape *)
  let chains = Engine.chains eng in
  let chain adt = List.assoc adt chains in
  check_bool "kvmap chain" true
    (chain "kvmap" = [ "precise"; "simple"; "part" ]);
  check_bool "set chain" true (chain "set" = [ "precise"; "simple"; "part" ]);
  check_bool "flow-graph chain" true
    (chain "flow-graph" = [ "precise"; "simple"; "part" ]);
  check_bool "orset chain" true (chain "orset" = [ "precise"; "part" ]);
  check_bool "union-find chain" true (chain "union-find" = [ "precise" ]);
  check_str "boot level" "precise" (Engine.current_level eng "kvmap");
  (* state written at one level is visible after moving to any other *)
  for i = 0 to 9 do
    ignore
      (expect_reply "put"
         (h (invoke "kvmap" "put" [| Value.Int i; Value.Int (i * i) |])))
  done;
  check_bool "strengthen kvmap to part" true
    (Engine.set_level_name eng "kvmap" "part");
  check_str "now at part" "part" (Engine.current_level eng "kvmap");
  check_int "part is index 2" 2 (Engine.current_level_index eng "kvmap");
  for i = 0 to 9 do
    check_bool "reads survive the swap" true
      (expect_reply "get" (h (invoke "kvmap" "get" [| Value.Int i |]))
      = Value.Opt (Some (Value.Int (i * i))))
  done;
  (* mutate at part, then weaken back to precise and check again *)
  ignore
    (expect_reply "remove" (h (invoke "kvmap" "remove" [| Value.Int 0 |])));
  check_bool "weaken kvmap to precise" true
    (Engine.set_level_name eng "kvmap" "precise");
  check_bool "removal done at part is visible at precise" true
    (expect_reply "get" (h (invoke "kvmap" "get" [| Value.Int 0 |]))
    = Value.Opt None);
  check_bool "size consistent across two swaps" true
    (expect_reply "size" (h (invoke "kvmap" "size" [||])) = Value.Int 9);
  (* same-level set is a no-op, unknown names report false *)
  check_bool "same-level no-op still true" true
    (Engine.set_level_name eng "kvmap" "precise");
  check_bool "unknown level name is false" true
    (not (Engine.set_level_name eng "kvmap" "med"));
  check_bool "union-find has no part level" true
    (not (Engine.set_level_name eng "union-find" "part"));
  (* out-of-range index and unknown adt raise *)
  (match Engine.set_level eng "kvmap" 7 with
  | () -> Alcotest.fail "set_level out of range must raise"
  | exception Invalid_argument _ -> ());
  (match Engine.set_level eng "queue" 0 with
  | () -> Alcotest.fail "set_level unknown adt must raise"
  | exception Invalid_argument _ -> ());
  (* the level snapshot exists and is parseable evidence the swapped-in
     detector is live *)
  ignore (Engine.level_snapshot eng "kvmap");
  (* flow-graph joins the dance too *)
  ignore
    (expect_reply "relabel"
       (h (invoke "flow-graph" "relabel_to" [| Value.Int 5; Value.Int 1 |])));
  check_bool "flow-graph strengthen" true
    (Engine.set_level_name eng "flow-graph" "part");
  check_bool "flow-graph state survives its swap" true
    (expect_reply "height" (h (invoke "flow-graph" "height" [| Value.Int 5 |]))
    = Value.Int 1)

(* A swap requires quiescence and transfers nothing: while a request's
   transaction is still open in the outgoing gatekeeper, set_level
   refuses; once the transaction commits, the same swap goes through. *)
let test_set_level_refuses_open_txn () =
  let eng = Engine.create () in
  let put = invoke "kvmap" "put" [| Value.Int 1; Value.Int 1 |] in
  match Engine.try_req eng put with
  | Engine.Done (Some p, _) ->
      (match Engine.set_level eng "kvmap" 2 with
      | () -> Alcotest.fail "set_level over an open transaction must raise"
      | exception Invalid_argument _ -> ());
      check_str "level unchanged" "precise" (Engine.current_level eng "kvmap");
      Engine.commit eng p;
      Engine.set_level eng "kvmap" 2;
      check_str "swapped after commit" "part" (Engine.current_level eng "kvmap")
  | _ -> Alcotest.fail "put must answer with its transaction still open"

(* A read the fast path refuses answers [Conflicted] at once: it was
   routed to the worker holding its key's open put, so running it again
   as a transaction would only meet the same put.  One refusal, one
   conflict abort, one [put;get] label. *)
let test_refused_read_conflicts_once () =
  let module Obs = Commlat_obs.Obs in
  let eng = Engine.create ~obs:true () in
  match Engine.try_req eng (invoke "kvmap" "put" [| Value.Int 7; Value.Int 1 |]) with
  | Engine.Done (Some p, _) ->
      (match Engine.try_req eng (invoke "kvmap" "get" [| Value.Int 7 |]) with
      | Engine.Conflicted reason -> check_str "reason" "put;get" reason
      | Engine.Done _ ->
          Alcotest.fail "get was admitted against an open put of its key");
      let snap = Engine.level_snapshot eng "kvmap" in
      check_int "conflicts" 1 (Obs.counter_value snap "conflicts");
      check_int "conflict_aborts" 1 (Obs.value eng.Engine.c_aborts);
      check_int "put;get labels" 1 (Obs.label_count snap ~cat:"abort_cause" "put;get");
      Engine.commit eng p
  | _ -> Alcotest.fail "put must answer with its transaction still open"

(* A swap thunk that raises is counted in [swap_failures], which [Stats]
   reports, and the barrier is released all the same. *)
let test_gate_counts_swap_failure () =
  let eng = Engine.create ~obs:true () in
  let gate = Server.gate_create ~workers:1 in
  gate.Server.g_req <- Some (fun () -> failwith "swap refused");
  Server.gate_check ~eng ~verbose:false gate;
  check_int "swap_failures" 1 (Engine.swap_failures eng);
  check_int "barrier generation advanced" 1 gate.Server.g_gen;
  check_bool "request cleared" true (gate.Server.g_req = None);
  let reported =
    match Engine.try_req eng (Wire.Stats 1) with
    | Engine.Done (None, Wire.Reply (1, Value.Str s)) -> (
        match Result.bind (Jsonx.parse s) Commlat_obs.Obs.snapshot_of_json with
        | Ok snap -> Commlat_obs.Obs.counter_value snap "swap_failures"
        | Error m -> Alcotest.fail m)
    | _ -> Alcotest.fail "Stats must answer a snapshot"
  in
  check_int "Stats reports swap_failures" 1 reported;
  (* a passing swap leaves the count alone *)
  let swapped = ref false in
  gate.Server.g_req <- Some (fun () -> swapped := true);
  Server.gate_check ~eng ~verbose:false gate;
  check_bool "swap ran" true !swapped;
  check_int "still one failure" 1 (Engine.swap_failures eng);
  check_int "second generation" 2 gate.Server.g_gen

(* A conflict inside an epoch commits the epoch's open transactions but
   writes nothing: both responses of an epoch whose second put conflicts
   with its first leave in one write.  A SOCK_SEQPACKET pair keeps write
   boundaries, so the first message read is the first write. *)
let test_conflict_keeps_one_write () =
  let eng = Engine.create ~obs:true () in
  let srv_fd, cli_fd = Unix.socketpair Unix.PF_UNIX Unix.SOCK_SEQPACKET 0 in
  let conn = { Server.fd = srv_fd; out_mu = Mutex.create (); alive = true } in
  let qu = Server.queue_create () in
  let put id v = invoke ~id "kvmap" "put" [| Value.Int 1; Value.Int v |] in
  Server.queue_push qu
    (List.map (fun req -> { Server.req; jconn = conn }) [ put 1 1; put 2 2 ]);
  Server.worker ~eng ~qu ~stop:(Atomic.make true)
    ~gate:(Server.gate_create ~workers:1) ~verbose:false ();
  check_int "the second put conflicted once" 1
    (Commlat_obs.Obs.value eng.Engine.c_aborts);
  let buf = Bytes.create 4096 in
  let n = Unix.recv cli_fd buf 0 (Bytes.length buf) [] in
  let rec frames off acc =
    if off >= n then List.rev acc
    else
      let len = Int32.to_int (Bytes.get_int32_be buf off) in
      let payload = Bytes.sub_string buf (off + 4) len in
      frames (off + 4 + len) (Wire.decode_resp payload :: acc)
  in
  check_bool "the first write carries both replies" true
    (match frames 0 [] with
    | [ Wire.Reply (1, Value.Opt None);
        Wire.Reply (2, Value.Opt (Some (Value.Int 1))) ] ->
        true
    | _ -> false);
  Unix.close srv_fd;
  Unix.close cli_fd

(* ------------------------------------------------------------- *)
(* Latency histogram                                              *)
(* ------------------------------------------------------------- *)

let test_histo_quantiles () =
  let h = Histo.create () in
  for v = 1 to 10_000 do
    Histo.record h v
  done;
  check_int "count" 10_000 (Histo.total h);
  check_int "max" 10_000 (Histo.max_recorded h);
  let close q expect =
    let got = Histo.quantile h q in
    let rel = abs_float (float_of_int got -. expect) /. expect in
    if rel > 0.02 then
      Alcotest.failf "quantile %.3f: got %d, want ~%.0f (rel err %.3f)" q got
        expect rel
  in
  close 0.5 5000.0;
  close 0.99 9900.0;
  close 0.999 9990.0;
  check_int "q=1 never exceeds the max" 10_000 (Histo.quantile h 1.0);
  check_bool "mean" true (abs_float (Histo.mean h -. 5000.5) < 1.0)

let test_histo_merge_and_edges () =
  let a = Histo.create () and b = Histo.create () in
  check_int "empty quantile" 0 (Histo.quantile a 0.99);
  Histo.record a 10;
  Histo.record b 1_000_000;
  Histo.record b (-5) (* clamps to 0 *);
  Histo.merge_into ~dst:a b;
  check_int "merged count" 3 (Histo.total a);
  check_int "merged max" 1_000_000 (Histo.max_recorded a);
  check_int "p01 is the clamped value" 0 (Histo.quantile a 0.01);
  check_int "p99 is the big value" 1_000_000 (Histo.quantile a 0.999);
  (* relative error of the log-linear buckets stays under 2/sub *)
  let h = Histo.create () in
  let v = 123_456_789 in
  Histo.record h v;
  let got = Histo.quantile h 0.5 in
  check_bool "bucketed quantile within bound" true
    (got >= v && float_of_int (got - v) /. float_of_int v < 2.0 /. 64.0)

(* ------------------------------------------------------------- *)
(* A real server on a temporary Unix socket                       *)
(* ------------------------------------------------------------- *)

(* Run [f addr] against an in-process server with [domains] workers, then
   [Quit] it; returns [f]'s result and the server's engine. *)
let with_server ~domains f =
  let path = Filename.temp_file "commlat-test-" ".sock" in
  Sys.remove path;
  let addr = Server.Unix_sock path in
  let eng = ref None in
  let srv =
    Thread.create
      (fun () -> eng := Some (Server.run { Server.default_config with addr; domains }))
      ()
  in
  let rec wait_ready n =
    match Load.rpc addr (Wire.Ping 0) with
    | _ -> ()
    | exception _ when n > 0 ->
        Unix.sleepf 0.02;
        wait_ready (n - 1)
  in
  let r =
    Fun.protect
      ~finally:(fun () ->
        (try ignore (Load.rpc addr (Wire.Quit 0)) with _ -> ());
        Thread.join srv)
      (fun () ->
        wait_ready 250;
        f addr)
  in
  (r, Option.get !eng)

(* One write carrying many frames is read in a few bursts and handed to
   the workers in batches, so epochs group requests.  Among the invokes
   sit a Ping, an undecodable frame (answered [Err] with id 0) and one
   frame larger than a read buffer; every id is answered exactly once,
   and a get sees the put its connection sent before it. *)
let test_burst_read () =
  let module Obs = Commlat_obs.Obs in
  let n = 200 in
  let big = String.make 300_000 'v' in
  let frames = Buffer.create 400_000 in
  let add req = Wire.add_frame frames (Wire.encode_req req) in
  for k = 1 to n / 2 do
    add (invoke ~id:((2 * k) - 1) "kvmap" "put" [| Value.Int k; Value.Int k |]);
    add (invoke ~id:(2 * k) "kvmap" "get" [| Value.Int k |]);
    if k = n / 4 then begin
      add (Wire.Ping (n + 1));
      Wire.add_frame frames "\x2a";
      add (invoke ~id:(n + 2) "kvmap" "put" [| Value.Int 0; Value.Str big |]);
      add (invoke ~id:(n + 3) "kvmap" "get" [| Value.Int 0 |])
    end
  done;
  let replies, eng =
    with_server ~domains:2 (fun addr ->
        let fd = Load.connect addr in
        Fun.protect
          ~finally:(fun () -> Unix.close fd)
          (fun () ->
            Wire.really_write fd (Buffer.to_bytes frames) 0 (Buffer.length frames);
            List.init (n + 4) (fun _ ->
                match Wire.read_frame fd with
                | Some p -> Wire.decode_resp p
                | None -> Alcotest.fail "server closed the connection")))
  in
  let id = function Wire.Reply (id, _) | Wire.Err (id, _) -> id in
  check_bool "every id answered exactly once" true
    (List.sort compare (List.map id replies) = List.init (n + 4) Fun.id);
  List.iter
    (fun r ->
      match r with
      | Wire.Err (0, _) -> ()
      | Wire.Reply (i, v) when i >= 1 && i <= n ->
          let want =
            if i mod 2 = 1 then Value.Opt None
            else Value.Opt (Some (Value.Int (i / 2)))
          in
          if not (Value.equal v want) then
            Alcotest.failf "reply %d: %a" i Value.pp v
      | Wire.Reply (i, v) when i = n + 3 ->
          check_bool "the large value round-trips" true
            (Value.equal v (Value.Opt (Some (Value.Str big))))
      | Wire.Reply (i, _) when i = n + 1 || i = n + 2 -> ()
      | r -> Alcotest.failf "unexpected %s" (resp_repr r))
    replies;
  let c = Obs.value in
  let reads = c eng.Engine.c_socket_reads in
  if reads >= n then Alcotest.failf "%d socket reads for %d frames" reads n;
  let epochs = c eng.Engine.c_epochs and reqs = c eng.Engine.c_epoch_requests in
  if reqs <= epochs then
    Alcotest.failf "%d requests in %d epochs: no grouping" reqs epochs;
  check_bool "fewer hand-offs than requests" true (c eng.Engine.c_handoffs < reqs)

(* A client that sends a burst and closes without reading: the server's
   writes to it fail ([EPIPE], SIGPIPE being ignored), are counted, and
   the server carries on.  Whether a write lands after the close is a
   race, so the burst is retried until one failure is counted. *)
let test_disconnect_mid_burst () =
  let module Obs = Commlat_obs.Obs in
  let frames = Buffer.create 200_000 in
  for k = 1 to 5000 do
    Wire.add_frame frames
      (Wire.encode_req (invoke ~id:k "kvmap" "put" [| Value.Int k; Value.Int k |]))
  done;
  let failures addr =
    let ( let* ) = Option.bind in
    Option.value ~default:0
      (let* stats = Load.fetch_stats addr in
       let* counters = Jsonx.member "counters" stats in
       Option.bind (Jsonx.member "response_write_failures" counters) Jsonx.to_int)
  in
  let pong, eng =
    with_server ~domains:2 (fun addr ->
        let rec attempt n =
          let fd = Load.connect addr in
          Wire.really_write fd (Buffer.to_bytes frames) 0 (Buffer.length frames);
          Unix.close fd;
          (* give the workers time to answer the whole burst *)
          let rec poll k =
            failures addr > 0 || (k > 0 && (Unix.sleepf 0.02; poll (k - 1)))
          in
          if not (poll 100) && n > 1 then attempt (n - 1)
        in
        attempt 20;
        Load.rpc addr (Wire.Ping 7))
  in
  check_bool "a new connection's Ping is answered" true
    (match pong with Wire.Reply (7, Value.Unit) -> true | _ -> false);
  check_bool "a failed write is counted" true
    (Obs.value eng.Engine.c_response_write_failures >= 1)

(* Requests pipelined before a [Quit] on its connection are all answered
   before the [Quit] is: the server replies to it only once the workers
   have drained and flushed. *)
let test_quit_after_pipelined () =
  let module Obs = Commlat_obs.Obs in
  let n = 8 in
  let frames = Buffer.create 1024 in
  for k = 1 to n do
    Wire.add_frame frames
      (Wire.encode_req (invoke ~id:k "kvmap" "put" [| Value.Int k; Value.Int k |]))
  done;
  Wire.add_frame frames (Wire.encode_req (Wire.Quit (n + 1)));
  let replies, eng =
    with_server ~domains:2 (fun addr ->
        let fd = Load.connect addr in
        Fun.protect
          ~finally:(fun () -> Unix.close fd)
          (fun () ->
            Wire.really_write fd (Buffer.to_bytes frames) 0 (Buffer.length frames);
            let rec read acc =
              match Wire.read_frame fd with
              | Some p -> read (Wire.decode_resp p :: acc)
              | None -> List.rev acc
            in
            read []))
  in
  let ids = List.map (function Wire.Reply (id, _) | Wire.Err (id, _) -> id) replies in
  Alcotest.(check (list int)) "every put once, then the Quit"
    (List.init n (fun k -> k + 1) @ [ n + 1 ])
    (List.sort compare (List.filteri (fun i _ -> i < n) ids)
    @ List.filteri (fun i _ -> i >= n) ids);
  check_int "every put committed" n (Obs.value eng.Engine.c_commits)

(* ------------------------------------------------------------- *)
(* Load rows                                                      *)
(* ------------------------------------------------------------- *)

(* Each phase of a phase-shifting run must be reported with its own mix,
   key space, skew, duration and burst, not the base config's: the base
   below differs from every phase in each of them. *)
let test_phase_rows () =
  let phases = Load.default_phases ~burst:4 ~duration:0.1 () in
  let prs, _ =
    with_server ~domains:1 (fun addr ->
        let base =
          { Load.default_config with
            Load.addr; conns = 2; rate = 1000.0; mix = Load.Write_heavy; keys = 7;
            theta = 0.3; duration = 9.0; burst = 1 }
        in
        Load.run_phases base phases)
  in
  check_int "one result per phase" (List.length phases) (List.length prs);
  List.iter
    (fun ((p : Load.phase), (r : Load.result)) ->
      let row = Load.row_json ~phase:p ~domains:1 r in
      let get conv k = Option.bind (Jsonx.member k row) conv in
      let name = p.Load.p_name in
      check_bool (name ^ ": phase is the first field") true
        (match row with Jsonx.Obj (("phase", _) :: _) -> true | _ -> false);
      check_bool (name ^ ": requests completed") true (r.Load.completed > 0);
      Alcotest.(check (option string)) (name ^ ": phase") (Some name)
        (get Jsonx.to_str "phase");
      Alcotest.(check (option string)) (name ^ ": mix")
        (Some (Load.mix_name p.Load.p_mix)) (get Jsonx.to_str "mix");
      Alcotest.(check (option int)) (name ^ ": keys") (Some p.Load.p_keys)
        (get Jsonx.to_int "keys");
      Alcotest.(check (option (float 0.0))) (name ^ ": zipf_theta")
        (Some p.Load.p_theta) (get Jsonx.to_float "zipf_theta");
      Alcotest.(check (option (float 0.0))) (name ^ ": duration_s")
        (Some p.Load.p_duration) (get Jsonx.to_float "duration_s");
      Alcotest.(check (option int)) (name ^ ": burst") (Some p.Load.p_burst)
        (get Jsonx.to_int "burst"))
    prs

let suite =
  List.map (fun t -> QCheck_alcotest.to_alcotest t)
    [
      prop_req_roundtrip;
      prop_resp_roundtrip;
      prop_truncated_rejected;
      prop_trailing_rejected;
      prop_frame_splitter;
    ]
  @ [
      Alcotest.test_case "wire: malformed tags and lengths" `Quick
        test_codec_malformed_tags;
      Alcotest.test_case "wire: pipe framing and caps" `Quick test_framing_pipe;
      Alcotest.test_case "engine: conformance" `Quick test_conformance;
      Alcotest.test_case "engine: bad requests are contained" `Quick
        test_error_containment;
      Alcotest.test_case "engine: flow-graph wire round-trip" `Quick
        test_flow_graph_wire;
      Alcotest.test_case "engine: set_level mid-stream conformance" `Quick
        test_set_level_mid_stream;
      Alcotest.test_case "engine: set_level refuses an open transaction" `Quick
        test_set_level_refuses_open_txn;
      Alcotest.test_case "engine: orset log drains" `Quick
        test_orset_log_drains_through_engine;
      Alcotest.test_case "engine: a refused fast-path read conflicts once" `Quick
        test_refused_read_conflicts_once;
      Alcotest.test_case "server: a failed swap is counted, the barrier released"
        `Quick test_gate_counts_swap_failure;
      Alcotest.test_case "server: a mid-epoch conflict keeps one write per epoch"
        `Quick test_conflict_keeps_one_write;
      Alcotest.test_case "server: one write of many frames is read in bursts"
        `Quick test_burst_read;
      Alcotest.test_case "server: a client gone mid-burst is counted, not fatal"
        `Quick test_disconnect_mid_burst;
      Alcotest.test_case "server: Quit answers the requests pipelined before it"
        `Quick test_quit_after_pipelined;
      Alcotest.test_case "histo: quantiles" `Quick test_histo_quantiles;
      Alcotest.test_case "histo: merge and edge cases" `Quick
        test_histo_merge_and_edges;
      Alcotest.test_case "load: a phase row describes its own phase" `Quick
        test_phase_rows;
    ]
