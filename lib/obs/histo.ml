(** Log-linear latency histogram: fixed-size, lock-free, mergeable.

    The {!Obs} distributions use power-of-two buckets — fine for counting
    sweep depths, far too coarse for tail latency (p999 inside a 2x-wide
    bucket is a 100% error bar).  This recorder is the HdrHistogram idea
    shrunk to what `commlat load` needs: each power-of-two major bucket is
    split into [sub] = 64 linear sub-buckets, so relative error is bounded
    by [1/sub] (~1.6%) at every magnitude from 1 unit to [2^majors] =
    [2^48] units.  Units are whatever the caller records —
    [commlat load] records nanoseconds.

    Writers only [Atomic.fetch_and_add] a preallocated slot: recording is
    wait-free, multi-domain safe, and allocation-free, so load-generator
    sender/receiver threads can record from the latency path itself.
    Quantile extraction walks the (bounded, [majors * sub]) bucket array;
    it is approximate in the usual histogram sense — a quantile is
    reported as the upper edge of the bucket containing it. *)

(* The geometry: [majors] power-of-two majors of [sub] linear
   sub-buckets each. *)
let majors = 48
let sub_bits = 6
let sub = 1 lsl sub_bits

type t = {
  counts : int Atomic.t array;  (** [majors * sub] slots *)
  total : int Atomic.t;
  sum : int Atomic.t;  (** sum of recorded values (for mean) *)
  max_seen : int Atomic.t;
  overflow : int Atomic.t;  (** values beyond the last major *)
}

let create () =
  {
    counts = Array.init (majors * sub) (fun _ -> Atomic.make 0);
    total = Atomic.make 0;
    sum = Atomic.make 0;
    max_seen = Atomic.make 0;
    overflow = Atomic.make 0;
  }

(* Slot layout: values below [sub] land in major 0 with linear (exact)
   sub-buckets; a value with top bit k >= sub_bits lands in major
   [k - sub_bits + 1], sub-bucket = next [sub_bits] bits below the top
   bit.  Monotone in the value, and every bucket spans at most
   [bucket_low / sub] units. *)
let slot_of_value v =
  if v < sub then v
  else
    let k = (* position of the highest set bit *)
      let rec top i = if v lsr i = 1 then i else top (i + 1) in
      top sub_bits
    in
    let major = k - sub_bits + 1 in
    let sub_idx = (v lsr (k - sub_bits)) land (sub - 1) in
    (major * sub) + sub_idx

(* Upper edge of a slot's value range (inclusive): quantiles report this,
   so they never under-estimate. *)
let slot_upper slot =
  let major = slot / sub and sub_idx = slot mod sub in
  if major = 0 then sub_idx
  else
    let k = major + sub_bits - 1 in
    let width = 1 lsl (k - sub_bits) in
    (1 lsl k) + ((sub_idx + 1) * width) - 1

let record t v =
  let v = if v < 0 then 0 else v in
  let slot = slot_of_value v in
  if slot < Array.length t.counts then
    ignore (Atomic.fetch_and_add t.counts.(slot) 1)
  else ignore (Atomic.fetch_and_add t.overflow 1);
  ignore (Atomic.fetch_and_add t.total 1);
  ignore (Atomic.fetch_and_add t.sum v);
  let rec bump () =
    let cur = Atomic.get t.max_seen in
    if v > cur && not (Atomic.compare_and_set t.max_seen cur v) then bump ()
  in
  bump ()

let total t = Atomic.get t.total
let max_recorded t = Atomic.get t.max_seen

let mean t =
  let n = Atomic.get t.total in
  if n = 0 then 0.0 else float_of_int (Atomic.get t.sum) /. float_of_int n

(** [quantile t q] for [q] in [0, 1]: upper edge of the bucket holding the
    [ceil (q * total)]-th smallest recorded value; [max_recorded] when the
    rank falls among overflowed values; 0 on an empty histogram. *)
let quantile t q =
  let n = Atomic.get t.total in
  if n = 0 then 0
  else
    let q = if q < 0.0 then 0.0 else if q > 1.0 then 1.0 else q in
    let rank =
      let r = int_of_float (ceil (q *. float_of_int n)) in
      if r < 1 then 1 else if r > n then n else r
    in
    let len = Array.length t.counts in
    let rec walk slot seen =
      if slot >= len then max_recorded t
      else
        let seen = seen + Atomic.get t.counts.(slot) in
        if seen >= rank then
          (* never report past the true maximum (the last bucket's upper
             edge can overshoot it by the bucket width) *)
          min (slot_upper slot) (max_recorded t)
        else walk (slot + 1) seen
    in
    walk 0 0

(** Merge [src] into [dst]: per-worker histograms fold into one before
    reporting. *)
let merge_into ~dst src =
  Array.iteri
    (fun i c ->
      let n = Atomic.get c in
      if n > 0 then ignore (Atomic.fetch_and_add dst.counts.(i) n))
    src.counts;
  ignore (Atomic.fetch_and_add dst.total (Atomic.get src.total));
  ignore (Atomic.fetch_and_add dst.sum (Atomic.get src.sum));
  ignore (Atomic.fetch_and_add dst.overflow (Atomic.get src.overflow));
  let m = Atomic.get src.max_seen in
  let rec bump () =
    let cur = Atomic.get dst.max_seen in
    if m > cur && not (Atomic.compare_and_set dst.max_seen cur m) then bump ()
  in
  bump ()

(** Standard latency summary, values scaled by [scale] (e.g. [1e-6] turns
    recorded nanoseconds into milliseconds). *)
let summary_json ?(scale = 1.0) t : Jsonx.t =
  let s q = Jsonx.Float (float_of_int (quantile t q) *. scale) in
  Jsonx.Obj
    [
      ("count", Jsonx.Int (total t));
      ("mean", Jsonx.Float (mean t *. scale));
      ("p50", s 0.50);
      ("p90", s 0.90);
      ("p99", s 0.99);
      ("p999", s 0.999);
      ("max", Jsonx.Float (float_of_int (max_recorded t) *. scale));
    ]
