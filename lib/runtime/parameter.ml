(** ParaMeter-style parallelism profiling (Kulkarni et al., PPoPP 2009 —
    the tool the paper uses for the "Path length" and "Parallelism" columns
    of Table 1).

    The methodology: execute the program as a sequence of bulk-synchronous
    rounds with unboundedly many processors; in each round, greedily run
    every pending iteration that does not conflict (under the conflict
    detection scheme being profiled) with an iteration already accepted in
    the round.  The number of rounds is the {e critical path length} (in
    units of iterations) and committed-iterations / rounds is the
    {e average parallelism}.

    This is {!Executor.run_rounds} with [processors = max_int] and unit
    costs. *)

type profile = {
  critical_path : int;
  total_iterations : int;
  parallelism : float;
  aborted : int;
}

let pp ppf p =
  Fmt.pf ppf "path=%d iters=%d parallelism=%.2f (aborts seen: %d)" p.critical_path
    p.total_iterations p.parallelism p.aborted

(** Bound on the per-round window (and hence the largest measurable
    parallelism); unbounded windows make the profiler quadratic in the
    worklist size.  4096 is far above any parallelism the paper reports. *)
let max_procs = 4096

let profile ~detector ~operator init : profile =
  let s = Executor.run_rounds ~processors:max_procs ~detector ~operator init in
  {
    critical_path = Executor.rounds_exn s;
    total_iterations = s.Executor.committed;
    parallelism = Executor.parallelism s;
    aborted = s.Executor.aborted;
  }
