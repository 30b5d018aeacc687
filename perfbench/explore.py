"""The explore workloads: one fixed `commlat explore` job run as a child
process, back to back, until the jobs have taken the run's time.

Each job's search is deterministic, so --seed does not change the job; it
only enters the result stamp.  The explorer runs at the CLI's default
--domains 1.  Set-up samples (a one-schedule job) are spread over the run.
"""

import json
import os
import subprocess

import stats

MAX_SCHEDULES = 1_000_000  # above every tree size here: the search must exhaust
JOB_TIMEOUT_S = 60.0
SETUP_SAMPLES = 25
CAL_EVERY_S = 0.5  # job time between two samples of the speed kernel
BLOCK_S = 1.0  # job time per throughput sample

JOBS = {
    "explore-uf": ["union-find", "--detector", "gen-gk", "--txns", "2", "--seed", "1"],
    "explore-delaunay": ["delaunay", "--detector", "fwd-gk", "--txns", "2", "--seed", "17"],
}
SETUP_JOB = ["set", "--txns", "1"]
# the fields of a report that describe the explored tree
SHAPE = ("schedules_run", "schedules_pruned", "sleep_set_hits", "steps_total")


class Job:
    """One job as the launcher reported it: wall time spawn to exit, user+
    sys CPU, peak RSS, raw wait status, and the JSON report."""

    def __init__(self, wall_s, cpu_s, maxrss_kb, status, timed_out, report=None):
        self.wall_s = wall_s
        self.cpu_s = cpu_s
        self.maxrss_kb = maxrss_kb
        self.status = status
        self.timed_out = timed_out
        self.report = report
        self.error = self.failure()  # None, or why the job counts as failed

    def failure(self):
        """Why the job counts as failed (crash or timeout), or None.  Exit
        status 1 is the CLI's verdict for a counterexample: not a failure
        of the job, but wrong output, caught by check_job."""
        if self.timed_out:
            return "timed out after %.0f s" % JOB_TIMEOUT_S
        if not (os.WIFEXITED(self.status) and os.WEXITSTATUS(self.status) in (0, 1)):
            return "crashed (wait status %d)" % self.status
        return None


def run_job(launcher, exe, args, json_path):
    if os.path.exists(json_path):
        os.unlink(json_path)
    out = subprocess.run(
        [launcher, str(int(JOB_TIMEOUT_S)), exe, "explore", *args,
         "--max-schedules", str(MAX_SCHEDULES), "--json", json_path],
        stdin=subprocess.DEVNULL, capture_output=True, text=True, timeout=JOB_TIMEOUT_S + 30)
    if out.returncode != 0:
        raise RuntimeError("launcher failed: %s" % out.stderr.strip())
    wall_ns, user_us, sys_us, maxrss_kb, status, timed_out = map(int, out.stdout.split())
    job = Job(wall_ns * 1e-9, (user_us + sys_us) * 1e-6, maxrss_kb, status, timed_out == 1)
    if job.error is None:
        try:
            with open(json_path) as f:
                job.report = json.load(f)
        except (OSError, ValueError) as e:
            job.error = "no JSON report: %s" % e
    return job


def check_job(job):
    """Why a job's output is wrong, or None: the search must be exhausted
    and find no counterexample."""
    r = job.report
    if r.get("verdict") != "ok" or r.get("counterexample") is not None:
        return "counterexample: %s" % json.dumps(r.get("counterexample"))[:200]
    if r.get("exhausted") is not True:
        return "search cut short after %s schedules" % r.get("schedules_run")
    if os.WEXITSTATUS(job.status) != 0:
        return "exit status %d with verdict ok" % os.WEXITSTATUS(job.status)
    return None


def setup_sample(launcher, exe, json_path):
    job = run_job(launcher, exe, SETUP_JOB, json_path)
    why = job.error or check_job(job)
    if why:
        raise RuntimeError("set-up job failed: %s" % why)
    return job.wall_s


def run(launcher, exe, host, workload, seconds, rundir):
    """Run one explore workload, sampling the host's speed into [host] (a
    speed.Speed); returns a dict of results (see run.py)."""
    args = JOBS[workload]
    json_path = os.path.join(rundir, "explore.json")
    jobs, setups, spent = [], [], 0.0
    host.sample(3)
    while spent < seconds:
        jobs.append(run_job(launcher, exe, args, json_path))
        spent += jobs[-1].wall_s
        if len(setups) < SETUP_SAMPLES * min(1.0, spent / seconds):
            setups.append(setup_sample(launcher, exe, json_path))
        if len(host.samples) < 3 + spent / CAL_EVERY_S:
            host.sample()

    problems = [w for w in (check_job(j) for j in jobs if not j.error) if w]
    failed = sum(1 for j in jobs if j.error)
    good = [j for j in jobs if not j.error]
    if not good:
        raise RuntimeError("every job failed: %s" % jobs[0].error)
    shapes = {tuple(j.report.get(k) for k in SHAPE) for j in good}
    if len(shapes) > 1:
        problems.append("the same job explored different trees: %s" % sorted(shapes))
    n = len(good)
    walls = sorted(j.wall_s for j in good)
    # jobs per second over consecutive blocks of about BLOCK_S of job time
    rates, k, t = [], 0, 0.0
    for j in good:
        k, t = k + 1, t + j.wall_s
        if t >= BLOCK_S or j is good[-1] and not rates:
            rates.append(k / t)
            k, t = 0, 0.0
    rep = good[0].report
    runs = rep["schedules_run"]
    branches = runs + rep["schedules_pruned"] + rep["sleep_set_hits"]
    return {
        "problems": problems,
        "attempted": len(jobs),
        "failed": failed,
        "e2e": {
            "ops_per_s": host.rate(stats.median(rates), "1/s", n),
            "p50_ms": host.time(stats.percentile(walls, 50) * 1e3, "ms", n),
            "cpu_us_per_op": host.time(sum(j.cpu_s for j in good) / n * 1e6, "us", n),
            "peak_rss_mb": (max(j.maxrss_kb for j in good) / 1024.0, "MB", n, None),
            "error_rate": (failed / len(jobs), "ratio", len(jobs), None),
            "setup_s": host.time(stats.median(setups), "s", len(setups)),
            "host_slowdown": (host.slowdown(), "ratio", len(host.samples), None),
        },
        "layer": {
            "explore.schedules_per_job": (runs, "count", n, None),
            "explore.pruned_share": ((branches - runs) / branches, "ratio", n, None),
            "explore.steps_per_schedule": (rep["steps_total"] / runs, "count", n, None),
            "explore.schedules_per_s": (runs * n / sum(walls), "1/s", n, None),
        },
        "info": {"jobs": len(jobs), "schedules_per_job": runs, "job": " ".join(args)},
    }
