(** Measurement helpers: wall-clock timing and the paper's §5 performance
    model [T · o_d / min(a_d, p)]. *)

(** Monotonic wall clock in seconds (CLOCK_MONOTONIC via the bechamel
    stubs).  [Unix.gettimeofday] is subject to NTP steps — a single step
    mid-measurement used to corrupt medians and every overhead ratio, so
    all timing in this repo goes through here.  The epoch is arbitrary:
    only differences are meaningful. *)
let now_s () = Int64.to_float (Monotonic_clock.now ()) *. 1e-9

let time f =
  let t0 = now_s () in
  let r = f () in
  (r, now_s () -. t0)

(** Median-of-3 timing for less noisy small measurements.  A major
    collection runs before each sample so that garbage from earlier
    experiments is not charged to this one. *)
let time_median f =
  let samples =
    List.init 3 (fun _ ->
        Gc.full_major ();
        let _, dt = time f in
        dt)
    |> List.sort Float.compare
  in
  List.nth samples 1

(** The paper's simple model of best-case parallel runtime on [p]
    processors: [T · o_d / min(a_d, p)]. *)
let model_runtime ~t_seq ~overhead:od ~parallelism:ad ~processors:p =
  t_seq *. od /. Float.min ad (float_of_int p)
