(** The `commlat serve` wire protocol: length-prefixed binary frames.

    Framing: every message is a 4-byte big-endian payload length followed
    by that many payload bytes.  Payloads longer than {!max_frame} are a
    protocol violation — {!frame_at} and {!read_frame} refuse to allocate
    for them (connection-level error), and {!decode_req} never sees them.

    Payload grammar (all integers big-endian):

    {v
    request  := 0x01 id:i64 adt:str8 meth:str8 argc:u8 value*argc   Invoke
              | 0x02 id:i64                                         Stats
              | 0x03 id:i64                                         Quit
              | 0x04 id:i64                                         Ping
    response := 0x01 id:i64 value                                   Reply
              | 0x02 id:i64 msg:str32                               Err
    str8     := len:u8  byte*len
    str32    := len:u32 byte*len
    value    := 0x00                                                Unit
              | 0x01 b:u8                                           Bool
              | 0x02 n:i64                                          Int
              | 0x03 bits:i64                                       Float
              | 0x04 s:str32                                        Str
              | 0x05 d:u16 f64*d                                    Point
              | 0x06 value value                                    Pair
              | 0x07 0x00 | 0x07 0x01 value                         Opt
              | 0x08 n:u32 value*n                                  List
    v}

    The codec works on bytes, not sockets (its one piece of state is the
    table of interned names), so the round-trip property
    tests and the in-process conformance test run in tier-1 without
    touching a socket; {!add_frame} builds a frame, {!frame_at} splits the
    frames out of whatever bytes one [read] returned, {!decode_req_at}
    decodes a frame where it lies in the read buffer, {!add_resp_frame}
    frames a reply straight into an output buffer, and
    {!read_frame}/{!write_frame} add one-frame-at-a-time [Unix] framing on
    top.  Every decoder is total: malformed input raises {!Malformed},
    never [Invalid_argument] or an out-of-bounds crash. *)

open Commlat_core

exception Malformed of string

let malformed fmt = Fmt.kstr (fun m -> raise (Malformed m)) fmt

(** Refuse frames above 16 MiB: a corrupt or adversarial length prefix
    must not make the server allocate unboundedly. *)
let max_frame = 16 * 1024 * 1024

type req =
  | Invoke of { id : int; adt : string; meth : string; args : Value.t array }
      (** one transactional method call *)
  | Stats of int  (** server obs snapshot as a JSON string *)
  | Quit of int  (** drain, then shut the server down cleanly *)
  | Ping of int

type resp =
  | Reply of int * Value.t  (** success; the invocation's return value *)
  | Err of int * string
      (** the request failed (unknown ADT/method, malformed arguments,
          retries exhausted) — the transaction was rolled back, the
          server lives on *)

let req_id = function Invoke { id; _ } | Stats id | Quit id | Ping id -> id

(* ------------------------------------------------------------------ *)
(* Encoding                                                            *)
(* ------------------------------------------------------------------ *)

let put_u8 b n = Buffer.add_char b (Char.chr (n land 0xff))

let put_u16 b n =
  put_u8 b (n lsr 8);
  put_u8 b n

let put_u32 b n =
  if n < 0 || n > 0xffff_ffff then malformed "encode: u32 out of range (%d)" n;
  put_u8 b (n lsr 24);
  put_u8 b (n lsr 16);
  put_u8 b (n lsr 8);
  put_u8 b n

let put_i64 b n = Buffer.add_int64_be b (Int64.of_int n)

let put_str8 b s =
  if String.length s > 0xff then malformed "encode: name longer than 255B";
  put_u8 b (String.length s);
  Buffer.add_string b s

let put_str32 b s =
  put_u32 b (String.length s);
  Buffer.add_string b s

let rec put_value b (v : Value.t) =
  match v with
  | Value.Unit -> put_u8 b 0x00
  | Value.Bool x ->
      put_u8 b 0x01;
      put_u8 b (if x then 1 else 0)
  | Value.Int n ->
      put_u8 b 0x02;
      put_i64 b n
  | Value.Float f ->
      put_u8 b 0x03;
      Buffer.add_int64_be b (Int64.bits_of_float f)
  | Value.Str s ->
      put_u8 b 0x04;
      put_str32 b s
  | Value.Point p ->
      put_u8 b 0x05;
      put_u16 b (Array.length p);
      Array.iter (fun f -> Buffer.add_int64_be b (Int64.bits_of_float f)) p
  | Value.Pair (x, y) ->
      put_u8 b 0x06;
      put_value b x;
      put_value b y
  | Value.Opt None -> (
      put_u8 b 0x07;
      put_u8 b 0x00)
  | Value.Opt (Some x) ->
      put_u8 b 0x07;
      put_u8 b 0x01;
      put_value b x
  | Value.List l ->
      put_u8 b 0x08;
      put_u32 b (List.length l);
      List.iter (put_value b) l

let encode_req (r : req) : string =
  let b = Buffer.create 64 in
  (match r with
  | Invoke { id; adt; meth; args } ->
      put_u8 b 0x01;
      put_i64 b id;
      put_str8 b adt;
      put_str8 b meth;
      if Array.length args > 0xff then malformed "encode: more than 255 args";
      put_u8 b (Array.length args);
      Array.iter (put_value b) args
  | Stats id ->
      put_u8 b 0x02;
      put_i64 b id
  | Quit id ->
      put_u8 b 0x03;
      put_i64 b id
  | Ping id ->
      put_u8 b 0x04;
      put_i64 b id);
  Buffer.contents b

let put_resp b (r : resp) =
  match r with
  | Reply (id, v) ->
      put_u8 b 0x01;
      put_i64 b id;
      put_value b v
  | Err (id, msg) ->
      put_u8 b 0x02;
      put_i64 b id;
      put_str32 b msg

let encode_resp (r : resp) : string =
  let b = Buffer.create 64 in
  put_resp b r;
  Buffer.contents b

(* The bytes [put_value] writes for a value, so a frame's length prefix
   can precede its payload in one buffer. *)
let rec value_size (v : Value.t) =
  match v with
  | Value.Unit -> 1
  | Value.Bool _ -> 2
  | Value.Int _ | Value.Float _ -> 9
  | Value.Str s -> 5 + String.length s
  | Value.Point p -> 3 + (8 * Array.length p)
  | Value.Pair (x, y) -> 1 + value_size x + value_size y
  | Value.Opt None -> 2
  | Value.Opt (Some x) -> 2 + value_size x
  | Value.List l -> List.fold_left (fun n v -> n + value_size v) 5 l

let resp_size = function
  | Reply (_, v) -> 9 + value_size v
  | Err (_, msg) -> 13 + String.length msg

(* ------------------------------------------------------------------ *)
(* Decoding                                                            *)
(* ------------------------------------------------------------------ *)

(* A bounds-checked cursor over the payload: bytes [[pos, lim)] of [b],
   where [b] is a reader's buffer or a whole payload string.  A frame's
   cursor stops at the frame's own end, so a short payload can never read
   into the next frame. *)
type cursor = { b : Bytes.t; mutable pos : int; lim : int }

(* Raised by [need] with what was being read and the buffer position;
   the entry points below turn it into {!Malformed} with the position
   counted from the payload's start. *)
exception Truncated of string * int

let need c n what = if n > c.lim - c.pos then raise (Truncated (what, c.pos))

let get_u8 c what =
  need c 1 what;
  let n = Char.code (Bytes.unsafe_get c.b c.pos) in
  c.pos <- c.pos + 1;
  n

let get_u16 c what =
  let hi = get_u8 c what in
  let lo = get_u8 c what in
  (hi lsl 8) lor lo

let get_u32 c what =
  let a = get_u8 c what in
  let b = get_u8 c what in
  let d = get_u8 c what in
  let e = get_u8 c what in
  (a lsl 24) lor (b lsl 16) lor (d lsl 8) lor e

let get_i64 c what =
  need c 8 what;
  let n = Bytes.get_int64_be c.b c.pos in
  c.pos <- c.pos + 8;
  Int64.to_int n

let get_bytes c n what =
  need c n what;
  let s = Bytes.sub_string c.b c.pos n in
  c.pos <- c.pos + n;
  s

(* Interned names.  ADT and method names repeat on every request, so a
   decoded name is looked up in a fixed table of [intern_slots] slots and
   the stored string is returned: a name seen before allocates nothing.
   Slots are atomics filled once by compare-and-set and never cleared, so
   decoders on any domain share the table safely.  A name whose
   [intern_window] probe slots are all taken by other names is returned
   as a fresh string instead, so a flood of distinct names costs at most
   the table's slots; the engine interns the names it serves when it is
   created ({!intern}), so no flood can keep them out. *)
let intern_slots = 256
let intern_window = 8
let vacant = ""
let intern_table = Array.init intern_slots (fun _ -> Atomic.make vacant)

let rec hash_bytes b pos lim h =
  if pos = lim then h land max_int
  else hash_bytes b (pos + 1) lim ((h * 31) + Char.code (Bytes.unsafe_get b pos))

let rec same_bytes s b pos i n =
  i = n
  || Char.equal (String.unsafe_get s i) (Bytes.unsafe_get b (pos + i))
     && same_bytes s b pos (i + 1) n

let rec intern_probe b pos n h k =
  if k = intern_window then Bytes.sub_string b pos n
  else
    let slot = intern_table.((h + k) land (intern_slots - 1)) in
    let s = Atomic.get slot in
    if s == vacant then
      let fresh = Bytes.sub_string b pos n in
      if Atomic.compare_and_set slot vacant fresh then fresh
      else intern_probe b pos n h k (* another decoder filled it: look again *)
    else if String.length s = n && same_bytes s b pos 0 n then s
    else intern_probe b pos n h (k + 1)

(** [intern s] stores [s] in the intern table if its window has room, so
    decoding [s] returns the stored copy without allocating. *)
let intern s =
  let b = Bytes.unsafe_of_string s and n = String.length s in
  if n > 0 then ignore (intern_probe b 0 n (hash_bytes b 0 n 0) 0)

(** Names held by the intern table; never more than its slots. *)
let interned () =
  Array.fold_left (fun n a -> if Atomic.get a == vacant then n else n + 1) 0 intern_table

let get_name c what =
  let n = get_u8 c what in
  need c n what;
  let pos = c.pos in
  c.pos <- pos + n;
  if n = 0 then "" else intern_probe c.b pos n (hash_bytes c.b pos (pos + n) 0) 0

let get_str32 c what =
  let n = get_u32 c what in
  if n > max_frame then malformed "decode: %s length %d exceeds frame cap" what n;
  get_bytes c n what

(* [Array.init]/[List.init] apply their function in unspecified order —
   fatal with a mutable cursor — so sequences decode through this left-to-
   right loop. *)
let read_n n f =
  let rec go k acc = if k = 0 then List.rev acc else go (k - 1) (f () :: acc) in
  go n []

let get_f64 c what =
  need c 8 what;
  let n = Bytes.get_int64_be c.b c.pos in
  c.pos <- c.pos + 8;
  Int64.float_of_bits n

let rec get_value c =
  match get_u8 c "value tag" with
  | 0x00 -> Value.Unit
  | 0x01 -> (
      match get_u8 c "bool" with
      | 0 -> Value.Bool false
      | 1 -> Value.Bool true
      | n -> malformed "decode: bad bool byte %#x" n)
  | 0x02 -> Value.Int (get_i64 c "int")
  | 0x03 -> Value.Float (get_f64 c "float")
  | 0x04 -> Value.Str (get_str32 c "string")
  | 0x05 ->
      let d = get_u16 c "point dim" in
      (* 8 bytes per coordinate must fit in what's left *)
      need c (8 * d) "point";
      let p = Array.make d 0.0 in
      for i = 0 to d - 1 do
        p.(i) <- get_f64 c "point coord"
      done;
      Value.Point p
  | 0x06 ->
      let x = get_value c in
      let y = get_value c in
      Value.Pair (x, y)
  | 0x07 -> (
      match get_u8 c "opt tag" with
      | 0 -> Value.Opt None
      | 1 -> Value.Opt (Some (get_value c))
      | n -> malformed "decode: bad option byte %#x" n)
  | 0x08 ->
      let n = get_u32 c "list length" in
      (* each element is at least a tag byte: cheap upper bound that stops
         a tiny frame from declaring a huge list *)
      need c n "list";
      Value.List (read_n n (fun () -> get_value c))
  | t -> malformed "decode: unknown value tag %#x" t

let finish c what =
  if c.pos <> c.lim then malformed "decode: %d trailing bytes after %s" (c.lim - c.pos) what

let req_of c =
  let r =
    match get_u8 c "request tag" with
    | 0x01 ->
        let id = get_i64 c "id" in
        let adt = get_name c "adt name" in
        let meth = get_name c "method name" in
        let argc = get_u8 c "argc" in
        let args = Array.make argc Value.Unit in
        for i = 0 to argc - 1 do
          args.(i) <- get_value c
        done;
        Invoke { id; adt; meth; args }
    | 0x02 -> Stats (get_i64 c "id")
    | 0x03 -> Quit (get_i64 c "id")
    | 0x04 -> Ping (get_i64 c "id")
    | t -> malformed "decode: unknown request tag %#x" t
  in
  finish c "request";
  r

let resp_of c =
  let r =
    match get_u8 c "response tag" with
    | 0x01 ->
        let id = get_i64 c "id" in
        Reply (id, get_value c)
    | 0x02 ->
        let id = get_i64 c "id" in
        Err (id, get_str32 c "error message")
    | t -> malformed "decode: unknown response tag %#x" t
  in
  finish c "response";
  r

(* Run a decoder over the [len]-byte payload at [off] of [b]. *)
let decode_with f b off len =
  let c = { b; pos = off; lim = off + len } in
  match f c with
  | r -> r
  | exception Truncated (what, pos) ->
      malformed "decode: truncated payload (%s at byte %d, %d left)" what (pos - off)
        (off + len - pos)

(** [decode_req_at b off len] decodes the request whose [len]-byte
    payload starts at [off] of [b] — a frame where it lies in a reader's
    buffer, with no copy of the payload.  It reads nothing outside the
    payload, and the request it returns shares no bytes with [b]. *)
let decode_req_at b off len = decode_with req_of b off len

let decode_req (s : string) : req =
  decode_with req_of (Bytes.unsafe_of_string s) 0 (String.length s)

let decode_resp (s : string) : resp =
  decode_with resp_of (Bytes.unsafe_of_string s) 0 (String.length s)

(* ------------------------------------------------------------------ *)
(* Socket framing                                                      *)
(* ------------------------------------------------------------------ *)

let rec really_write fd buf ofs len =
  if len > 0 then
    let n =
      try Unix.write fd buf ofs len
      with Unix.Unix_error (Unix.EINTR, _, _) -> 0
    in
    really_write fd buf (ofs + n) (len - n)

(* [really_read fd buf ofs len] returns [false] on clean EOF at offset 0,
   raises [Malformed] on EOF mid-message. *)
let really_read fd buf ofs len =
  let rec go ofs len =
    if len = 0 then true
    else
      match Unix.read fd buf ofs len with
      | 0 ->
          if ofs = 0 then false
          else malformed "read: connection closed mid-frame"
      | n -> go (ofs + n) (len - n)
      | exception Unix.Unix_error (Unix.EINTR, _, _) -> go ofs len
  in
  go ofs len

(* The payload length declared by the 4-byte prefix at [pos] of [b]. *)
let declared_len b pos =
  let n = Int32.to_int (Bytes.get_int32_be b pos) in
  if n < 0 || n > max_frame then
    malformed "frame: declared payload %dB exceeds cap" n;
  n

(** What {!frame_at} finds at a position of a read buffer. *)
type frame =
  | Frame of int
      (** a whole frame: its payload length (the payload follows the
          4-byte prefix) *)
  | Short of int
      (** part of a frame: the bytes the whole frame takes, prefix
          included (4 while the prefix itself is cut) *)

(** [frame_at b pos lim] splits off the frame that starts at [pos] of
    [b], whose bytes up to [lim] have been read.  Pure and incremental:
    a reader calls it after every [read] until it answers [Short],
    consumes each [Frame], and keeps the [Short] frame's bytes for the
    next [read].  Raises [Malformed] on an oversized length prefix,
    before any allocation. *)
let frame_at b pos lim =
  if lim - pos < 4 then Short 4
  else
    let n = declared_len b pos in
    if lim - pos < 4 + n then Short (4 + n) else Frame n

(** Append one frame (length prefix + payload) to [b].  Raises
    [Malformed] on a payload over {!max_frame}. *)
let add_frame b (payload : string) =
  let n = String.length payload in
  if n > max_frame then malformed "add_frame: payload %dB exceeds cap" n;
  Buffer.add_int32_be b (Int32.of_int n);
  Buffer.add_string b payload

(** Append [r]'s frame to [b]: the bytes of
    [add_frame b (encode_resp r)], with the length prefix computed from
    [r] and the payload encoded in place, so no payload string is built.
    Raises [Malformed], before writing anything, on a payload over
    {!max_frame}. *)
let add_resp_frame b (r : resp) =
  let n = resp_size r in
  if n > max_frame then malformed "add_frame: payload %dB exceeds cap" n;
  Buffer.add_int32_be b (Int32.of_int n);
  put_resp b r

(** Write one frame as a single [write] burst. *)
let write_frame fd (payload : string) =
  let b = Buffer.create (4 + String.length payload) in
  add_frame b payload;
  really_write fd (Buffer.to_bytes b) 0 (Buffer.length b)

(** Read one frame's payload; [None] on clean EOF at a frame boundary.
    Raises [Malformed] on a mid-frame EOF or an oversized length prefix
    (the declared bytes are {e not} consumed — callers must close the
    connection, resynchronization is impossible). *)
let read_frame fd : string option =
  let hdr = Bytes.create 4 in
  if not (really_read fd hdr 0 4) then None
  else begin
    let n = declared_len hdr 0 in
    let buf = Bytes.create n in
    if n > 0 && not (really_read fd buf 0 n) then
      malformed "read: connection closed mid-frame";
    Some (Bytes.unsafe_to_string buf)
  end
