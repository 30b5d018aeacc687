(** Detector/runtime observability: counters, histograms and event traces.

    The paper's entire evaluation (§5) is about {e measuring} what each
    point of the commutativity lattice buys — aborts, overhead, available
    parallelism — so every conflict detector and executor in this repo
    reports what it did through one of these registries:

    - {e counters} are monotone atomic ints ([lock_acquisitions],
      [gatekeeper checks], [rollbacks], …) — safe to bump from any domain;
    - {e distributions} are lock-free histograms (count/sum/max plus
      power-of-two buckets) for quantities like STM read-set sizes,
      undo/redo sweep depths and per-round commit counts;
    - {e labeled counts} attribute events to a dynamic key — most
      importantly abort {e causes}: which method pair's commutativity
      condition failed;
    - an optional {e bounded ring buffer} keeps the most recent events for
      post-mortem traces.

    A disabled registry ([enabled = false], or globally via
    {!set_default_enabled}) makes every recording call return after one
    branch, so uninstrumented runs pay essentially nothing.

    {!snapshot} captures the registry as an immutable value that can be
    rendered ({!pp_snapshot}), merged across composed detectors
    ({!merge}), compared for monotonicity ({!leq}), and round-tripped
    through JSON ({!snapshot_to_json} / {!snapshot_of_json}) — the format
    behind the [BENCH_*.json] artifacts and [commlat stats]. *)

(* ------------------------------------------------------------------ *)
(* Registries                                                          *)
(* ------------------------------------------------------------------ *)

type counter = { cname : string; cell : int Atomic.t; cactive : bool }

let n_buckets = 32

type dist = {
  dname : string;
  dactive : bool;
  dn : int Atomic.t;
  dsum : int Atomic.t;
  dmax : int Atomic.t;
  buckets : int Atomic.t array;
      (** bucket 0 counts value 0; bucket [i > 0] counts values [v] with
          [2^(i-1) <= v < 2^i] (clamped at the last bucket) *)
}

type t = {
  scope : string;
  enabled : bool;
  mu : Mutex.t;
  mutable counters : counter list;  (** registration order, newest first *)
  mutable dists : dist list;
  labels : (string, (string, int ref) Hashtbl.t) Hashtbl.t;
  trace_cap : int;
  trace : (string * string) array;  (** ring; slot = seq mod cap *)
  mutable trace_seq : int;  (** total events ever recorded *)
}

let default = ref true
let set_default_enabled b = default := b

let create ?enabled ?(trace = 0) scope =
  let enabled = match enabled with Some b -> b | None -> !default in
  {
    scope;
    enabled;
    mu = Mutex.create ();
    counters = [];
    dists = [];
    labels = Hashtbl.create 8;
    trace_cap = (if enabled then trace else 0);
    trace = Array.make (max 1 trace) ("", "");
    trace_seq = 0;
  }

let scope t = t.scope
let enabled t = t.enabled

(** Register (or look up) a counter.  Registration takes the registry lock;
    bumping never does. *)
let counter (t : t) name : counter =
  let rec find = function
    | c :: rest -> if String.equal c.cname name then c else find rest
    | [] ->
        let c = { cname = name; cell = Atomic.make 0; cactive = t.enabled } in
        t.counters <- c :: t.counters;
        c
  in
  Mutex.lock t.mu;
  let c = find t.counters in
  Mutex.unlock t.mu;
  c

let incr c = if c.cactive then Atomic.incr c.cell
let add c n = if c.cactive then ignore (Atomic.fetch_and_add c.cell n)
let value c = Atomic.get c.cell

let dist (t : t) name : dist =
  Mutex.protect t.mu (fun () ->
      match List.find_opt (fun d -> d.dname = name) t.dists with
      | Some d -> d
      | None ->
          let d =
            {
              dname = name;
              dactive = t.enabled;
              dn = Atomic.make 0;
              dsum = Atomic.make 0;
              dmax = Atomic.make 0;
              buckets = Array.init n_buckets (fun _ -> Atomic.make 0);
            }
          in
          t.dists <- d :: t.dists;
          d)

let bucket_of v =
  if v <= 0 then 0
  else
    let rec bits acc v = if v = 0 then acc else bits (acc + 1) (v lsr 1) in
    min (n_buckets - 1) (bits 0 v)

let observe d v =
  if d.dactive then begin
    Atomic.incr d.dn;
    ignore (Atomic.fetch_and_add d.dsum v);
    Atomic.incr d.buckets.(bucket_of v);
    let rec raise_max () =
      let cur = Atomic.get d.dmax in
      if v > cur && not (Atomic.compare_and_set d.dmax cur v) then raise_max ()
    in
    raise_max ()
  end

(** Bump the count of [key] under category [cat] (e.g.
    [label obs ~cat:"abort_cause" "union;find"]). *)
let label (t : t) ~cat key =
  if t.enabled then
    Mutex.protect t.mu (fun () ->
        let tbl =
          match Hashtbl.find_opt t.labels cat with
          | Some tbl -> tbl
          | None ->
              let tbl = Hashtbl.create 8 in
              Hashtbl.add t.labels cat tbl;
              tbl
        in
        match Hashtbl.find_opt tbl key with
        | Some r -> r := !r + 1
        | None -> Hashtbl.add tbl key (ref 1))

(** Append an event to the ring buffer (kept only if the registry was
    created with [~trace:n > 0]). *)
let event (t : t) ~tag detail =
  if t.enabled && t.trace_cap > 0 then
    Mutex.protect t.mu (fun () ->
        t.trace.(t.trace_seq mod t.trace_cap) <- (tag, detail);
        t.trace_seq <- t.trace_seq + 1)

(* ------------------------------------------------------------------ *)
(* Snapshots                                                           *)
(* ------------------------------------------------------------------ *)

type dist_snapshot = {
  count : int;
  sum : int;
  max : int;
  nonzero_buckets : (int * int) list;  (** (bucket index, count), ascending *)
}

type snapshot = {
  snap_scope : string;
  counters : (string * int) list;  (** sorted by name *)
  dists : (string * dist_snapshot) list;  (** sorted by name *)
  labels : (string * (string * int) list) list;
      (** category -> (key, count) list; both levels sorted *)
  events : (int * string * string) list;
      (** (seq, tag, detail), oldest retained first *)
}

let empty scope =
  { snap_scope = scope; counters = []; dists = []; labels = []; events = [] }

let snapshot (t : t) : snapshot =
  Mutex.protect t.mu (fun () ->
      let counters =
        List.map (fun c -> (c.cname, Atomic.get c.cell)) t.counters
        |> List.sort compare
      in
      let dists =
        List.map
          (fun d ->
            let nonzero_buckets =
              Array.to_list (Array.mapi (fun i b -> (i, Atomic.get b)) d.buckets)
              |> List.filter (fun (_, n) -> n > 0)
            in
            ( d.dname,
              {
                count = Atomic.get d.dn;
                sum = Atomic.get d.dsum;
                max = Atomic.get d.dmax;
                nonzero_buckets;
              } ))
          t.dists
        |> List.sort compare
      in
      let labels =
        Hashtbl.fold
          (fun cat tbl acc ->
            let entries =
              Hashtbl.fold (fun k r acc -> (k, !r) :: acc) tbl []
              |> List.sort compare
            in
            (cat, entries) :: acc)
          t.labels []
        |> List.sort compare
      in
      let events =
        let total = t.trace_seq in
        let kept = min total t.trace_cap in
        List.init kept (fun i ->
            let seq = total - kept + i in
            let tag, detail = t.trace.(seq mod t.trace_cap) in
            (seq, tag, detail))
      in
      { snap_scope = t.scope; counters; dists; labels; events })

let counter_value (s : snapshot) name =
  Option.value ~default:0 (List.assoc_opt name s.counters)

let label_count (s : snapshot) ~cat key =
  match List.assoc_opt cat s.labels with
  | None -> 0
  | Some entries -> Option.value ~default:0 (List.assoc_opt key entries)

let total_labels (s : snapshot) ~cat =
  match List.assoc_opt cat s.labels with
  | None -> 0
  | Some entries -> List.fold_left (fun acc (_, n) -> acc + n) 0 entries

(** Merge snapshots of composed detectors: counters, distributions and
    labels are summed pointwise (dist [max] takes the max); events are
    dropped (per-member ring buffers do not interleave meaningfully). *)
let merge scope (snaps : snapshot list) : snapshot =
  let sum_assoc lists =
    let tbl = Hashtbl.create 16 in
    let order = ref [] in
    List.iter
      (List.iter (fun (k, v) ->
           match Hashtbl.find_opt tbl k with
           | Some r -> r := !r + v
           | None ->
               Hashtbl.add tbl k (ref v);
               order := k :: !order))
      lists;
    List.sort compare
      (List.map (fun k -> (k, !(Hashtbl.find tbl k))) !order)
  in
  let counters = sum_assoc (List.map (fun s -> s.counters) snaps) in
  let dists =
    let tbl : (string, dist_snapshot ref) Hashtbl.t = Hashtbl.create 16 in
    List.iter
      (fun s ->
        List.iter
          (fun (name, d) ->
            match Hashtbl.find_opt tbl name with
            | None -> Hashtbl.add tbl name (ref d)
            | Some r ->
                r :=
                  {
                    count = !r.count + d.count;
                    sum = !r.sum + d.sum;
                    max = Stdlib.max !r.max d.max;
                    nonzero_buckets =
                      sum_assoc [ !r.nonzero_buckets; d.nonzero_buckets ];
                  })
          s.dists)
      snaps;
    Hashtbl.fold (fun k r acc -> (k, !r) :: acc) tbl [] |> List.sort compare
  in
  let labels =
    let cats =
      List.concat_map (fun s -> List.map fst s.labels) snaps
      |> List.sort_uniq compare
    in
    List.map
      (fun cat ->
        (cat, sum_assoc (List.filter_map (fun s -> List.assoc_opt cat s.labels) snaps)))
      cats
  in
  { snap_scope = scope; counters; dists; labels; events = [] }

(** [leq a b]: every counter / dist count / label count of [a] is <= its
    value in [b] — the monotonicity invariant snapshots of a live registry
    must satisfy over time. *)
let leq (a : snapshot) (b : snapshot) : bool =
  List.for_all (fun (name, v) -> v <= counter_value b name) a.counters
  && List.for_all
       (fun (name, d) ->
         match List.assoc_opt name b.dists with
         | None -> d.count = 0
         | Some d' -> d.count <= d'.count && d.sum <= d'.sum && d.max <= d'.max)
       a.dists
  && List.for_all
       (fun (cat, entries) ->
         List.for_all (fun (k, v) -> v <= label_count b ~cat k) entries)
       a.labels

let equal_snapshot (a : snapshot) (b : snapshot) = a = b

let pp_dist ppf (d : dist_snapshot) =
  let mean = if d.count = 0 then 0.0 else float_of_int d.sum /. float_of_int d.count in
  Fmt.pf ppf "n=%d sum=%d max=%d mean=%.2f" d.count d.sum d.max mean;
  if d.nonzero_buckets <> [] then begin
    Fmt.pf ppf " |";
    List.iter
      (fun (i, n) ->
        let lo = if i = 0 then 0 else 1 lsl (i - 1) in
        Fmt.pf ppf " [%d+]:%d" lo n)
      d.nonzero_buckets
  end

let pp_snapshot ppf (s : snapshot) =
  Fmt.pf ppf "@[<v>obs %s@," s.snap_scope;
  List.iter (fun (n, v) -> Fmt.pf ppf "  %-32s %d@," n v) s.counters;
  List.iter (fun (n, d) -> Fmt.pf ppf "  %-32s %a@," n pp_dist d) s.dists;
  List.iter
    (fun (cat, entries) ->
      Fmt.pf ppf "  %s:@," cat;
      List.iter (fun (k, v) -> Fmt.pf ppf "    %-40s %d@," k v) entries)
    s.labels;
  List.iter (fun (seq, tag, detail) -> Fmt.pf ppf "  #%d %s %s@," seq tag detail) s.events;
  Fmt.pf ppf "@]"

(* ------------------------------------------------------------------ *)
(* JSON round-trip                                                     *)
(* ------------------------------------------------------------------ *)

let snapshot_to_json (s : snapshot) : Jsonx.t =
  let open Jsonx in
  Obj
    [
      ("scope", Str s.snap_scope);
      ("counters", Obj (List.map (fun (n, v) -> (n, Int v)) s.counters));
      ( "dists",
        Obj
          (List.map
             (fun (n, d) ->
               ( n,
                 Obj
                   [
                     ("count", Int d.count);
                     ("sum", Int d.sum);
                     ("max", Int d.max);
                     ( "buckets",
                       List
                         (List.map
                            (fun (i, c) -> List [ Int i; Int c ])
                            d.nonzero_buckets) );
                   ] ))
             s.dists) );
      ( "labels",
        Obj
          (List.map
             (fun (cat, entries) ->
               (cat, Obj (List.map (fun (k, v) -> (k, Int v)) entries)))
             s.labels) );
      ( "events",
        List
          (List.map
             (fun (seq, tag, detail) ->
               List [ Int seq; Str tag; Str detail ])
             s.events) );
    ]

let snapshot_of_json (j : Jsonx.t) : (snapshot, string) result =
  let open Jsonx in
  let ( let* ) r f = Result.bind r f in
  let req name conv =
    match Option.bind (member name j) conv with
    | Some v -> Ok v
    | None -> Error (Printf.sprintf "snapshot: missing or bad %S" name)
  in
  let int_assoc what fields =
    List.fold_left
      (fun acc (k, v) ->
        let* acc = acc in
        match to_int v with
        | Some i -> Ok ((k, i) :: acc)
        | None -> Error (Printf.sprintf "snapshot: non-integer in %s" what))
      (Ok []) fields
    |> Result.map List.rev
  in
  let* scope = req "scope" to_str in
  let* counter_fields = req "counters" to_obj in
  let* counters = int_assoc "counters" counter_fields in
  let* dist_fields = req "dists" to_obj in
  let* dists =
    List.fold_left
      (fun acc (name, dj) ->
        let* acc = acc in
        let get f = Option.bind (member f dj) to_int in
        match (get "count", get "sum", get "max", member "buckets" dj) with
        | Some count, Some sum, Some max, Some (List buckets) ->
            let* nonzero_buckets =
              List.fold_left
                (fun acc b ->
                  let* acc = acc in
                  match b with
                  | List [ Int i; Int c ] -> Ok ((i, c) :: acc)
                  | _ -> Error "snapshot: bad bucket")
                (Ok []) buckets
              |> Result.map List.rev
            in
            Ok ((name, { count; sum; max; nonzero_buckets }) :: acc)
        | _ -> Error (Printf.sprintf "snapshot: bad dist %S" name))
      (Ok []) dist_fields
    |> Result.map List.rev
  in
  let* label_fields = req "labels" to_obj in
  let* labels =
    List.fold_left
      (fun acc (cat, ej) ->
        let* acc = acc in
        match to_obj ej with
        | None -> Error (Printf.sprintf "snapshot: bad label category %S" cat)
        | Some entries ->
            let* entries = int_assoc cat entries in
            Ok ((cat, entries) :: acc))
      (Ok []) label_fields
    |> Result.map List.rev
  in
  let* event_items = req "events" to_list in
  let* events =
    List.fold_left
      (fun acc e ->
        let* acc = acc in
        match e with
        | List [ Int seq; Str tag; Str detail ] -> Ok ((seq, tag, detail) :: acc)
        | _ -> Error "snapshot: bad event")
      (Ok []) event_items
    |> Result.map List.rev
  in
  Ok { snap_scope = scope; counters; dists; labels; events }

(** Does this JSON value look like a serialized snapshot?  (Used by the
    [commlat stats] reader to find snapshots nested inside bench files.) *)
let is_snapshot_json (j : Jsonx.t) =
  Option.is_some (Jsonx.member "scope" j)
  && Option.is_some (Jsonx.member "counters" j)

(** A [commlat-bench/1] document: the header [commlat stats --validate]
    checks, then [rows], each of which carries its snapshot under
    ["obs"].  [scale] names the input size ("default" or "full"). *)
let bench_doc ~experiment ~seed ~scale rows : Jsonx.t =
  Jsonx.Obj
    [
      ("schema", Jsonx.Str "commlat-bench/1");
      ("experiment", Jsonx.Str experiment);
      ("seed", Jsonx.Int seed);
      ("scale", Jsonx.Str scale);
      ("rows", Jsonx.List rows);
    ]
