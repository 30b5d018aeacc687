#!/usr/bin/env python3
"""The repository benchmark: closed-loop `commlat serve` workloads and
`commlat explore` jobs, run against the binaries built from this checkout.

    python3 perfbench/run.py [--workload NAME|all] [--seed N] [--seconds S] [--trace 0|1]

Run from the root of a checkout.  It builds the CLI, the job launcher and
the host-speed kernel (and, with --trace 1, the tracer) with dune into
.bench_build/, runs the workload, checks every output, prints each metric
with its unit and sample count, and ends with one JSON line: {"correct",
"attempted", "failed", "metrics"}.  With --trace 0 the metrics are the
end-to-end ones; with --trace 1 they are the per-layer ones.  It exits 1
when an output is wrong and 2 when it cannot run at all.  See
perfbench/README.md.
"""

import sys

sys.dont_write_bytecode = True  # keep the checkout free of __pycache__

import argparse
import hashlib
import json
import os
import platform
import signal
import subprocess

import explore
import serve
import speed
import stats
import traced

WORKLOADS = ("serve-read", "serve-hotkey", "explore-uf", "explore-delaunay")
BUILD = ".bench_build"
CLI = "bin/commlat_cli.exe"
TRACER = "perfbench/tracer/tracer.exe"
NATIVE = "perfbench/native"  # a dune project of its own: the launcher and the kernel
LAUNCHER = "launch.exe"
CALIB = "calib.exe"
# every metric the per-layer (--trace 1) output carries
LAYER_METRICS = (
    ("load.client_cpu_share", "ratio"),
    ("engine.ro_fast_share", "ratio"),
    ("engine.abort_ratio", "ratio"),
    ("gatekeeper.checks_per_invocation", "count"),
    ("gatekeeper.checks_avoided_share", "ratio"),
    ("gatekeeper.overflow_share", "ratio"),
    ("explore.schedules_per_job", "count"),
    ("explore.pruned_share", "ratio"),
    ("explore.steps_per_schedule", "count"),
    ("explore.schedules_per_s", "1/s"),
    ("wire.decode_ns", "ns"),
    ("wire.encode_ns", "ns"),
    ("engine.route_ns", "ns"),
    ("engine.try_req_us", "us"),
    ("engine.attempts_per_req", "count"),
    ("engine.commit_us", "us"),
    ("server.residual_us_per_op", "us"),
    ("sched.make_us", "us"),
    ("sched.oracle_us", "us"),
    ("sched.replay_us", "us"),
    ("trace.overhead_share", "ratio"),
)
# The end-to-end metrics of the JSON line (BENCHMARK.json's end_to_end).
# Printed but left out: p99_ms, which only serve runs have (an explore run
# has one or two jobs beyond its 99th percentile), and error_rate, which
# is 0 on a correct run and is carried by "failed" / "attempted".
E2E_JSON = ("ops_per_s", "p50_ms", "cpu_us_per_op", "peak_rss_mb", "setup_s")


def fail(msg, code=2):
    print("perfbench: " + msg, file=sys.stderr)
    sys.exit(code)


def build(root, build_dir, targets):
    """Build [targets] of the dune project at [root] into [build_dir]."""
    build_dir = os.path.abspath(build_dir)
    env = dict(os.environ, DUNE_CACHE="disabled")
    cmd = ["dune", "build", "--root", root, "--build-dir", build_dir, "--display", "quiet"] + targets
    try:
        out = subprocess.run(cmd, env=env, stdin=subprocess.DEVNULL, capture_output=True,
                             text=True, timeout=850)
    except (OSError, subprocess.TimeoutExpired) as e:
        fail("build failed: %s" % e)
    if out.returncode != 0:
        fail("build failed:\n" + (out.stdout + out.stderr)[-2000:])
    return [os.path.join(build_dir, "default", t) for t in targets]


def sh(cmd):
    try:
        out = subprocess.run(cmd, stdin=subprocess.DEVNULL, capture_output=True, text=True,
                             timeout=30)
        return out.stdout.strip() if out.returncode == 0 else None
    except OSError:
        return None


def source_digest():
    """SHA-256 over the sources of the binaries and of the benchmark itself
    (the checkout need not be a git repository)."""
    h = hashlib.sha256()
    for top in ("dune-project", "bin", "lib", "perfbench"):
        paths = [top] if os.path.isfile(top) else sorted(
            os.path.join(d, f) for d, _, fs in os.walk(top) for f in fs)
        for p in sorted(paths):
            if p.endswith((".ml", ".mli", ".c", ".py", "dune", "dune-project")):
                h.update(p.encode() + b"\0")
                with open(p, "rb") as f:
                    h.update(f.read())
    return h.hexdigest()[:16]


def stamp(args):
    return {
        "workload": args.workload,
        "seed": args.seed,
        "seconds": args.seconds,
        "trace": args.trace,
        "nproc": len(os.sched_getaffinity(0)),
        "ocaml": sh(["ocamlfind", "ocamlopt", "-version"]) or sh(["ocamlopt", "-version"]) or "unknown",
        "python": platform.python_version(),
        "commit": sh(["git", "rev-parse", "--short=12", "HEAD"]) or "none",
        "source_sha256": source_digest(),
    }


def print_metrics(title, metrics):
    """One line per metric: value, unit and sample count; for a
    percentile, how many samples lie beyond it; for a normalized time or
    rate, the raw value."""
    print(title)
    for name, (v, unit, n, raw) in metrics.items():
        extra = ""
        if name in ("p50_ms", "p99_ms"):
            extra += "  (%d beyond)" % stats.beyond(n, int(name[1:3]))
        if raw is not None:
            extra += "  raw %.6g" % raw
        print("  %-34s %14.6g %-6s n=%d%s" % (name, v, unit, n, extra))


def run_workload(args, exes, rundir, log):
    """Returns (correct, attempted, failed, json metrics)."""
    w = args.workload
    cli, launcher, calib = exes[:3]
    host = speed.Speed(calib)
    if w in serve.MIXES:
        res = serve.run(cli, host, w, args.seed, args.seconds, rundir, log)
        if args.trace:
            res["layer"].update(traced.serve_layers(exes[3], res, rundir))
    else:
        res = explore.run(launcher, cli, host, w, args.seconds, rundir)
        if args.trace:
            res["layer"].update(traced.explore_layers(exes[3], explore.JOBS[w], rundir))
    info = dict(res["info"], attempted=res["attempted"], failed=res["failed"])
    print("counts: " + json.dumps(info))
    print_metrics("end-to-end (%s):" % w, res["e2e"])
    print_metrics("per-layer (%s):" % w, res["layer"])
    for why in res["problems"]:
        print("WRONG: " + why)
    if args.trace:
        # a per-layer metric that does not apply to the workload reads 0
        metrics = {k: {"value": res["layer"].get(k, (0.0,))[0], "unit": u}
                   for k, u in LAYER_METRICS}
    else:
        metrics = {k: {"value": res["e2e"][k][0], "unit": res["e2e"][k][1]} for k in E2E_JSON}
    return not res["problems"], res["attempted"], res["failed"], metrics


def main():
    ap = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    ap.add_argument("--workload", default="all", choices=WORKLOADS + ("all",))
    ap.add_argument("--seed", type=int, default=1)
    ap.add_argument("--seconds", type=float, default=20)
    ap.add_argument("--trace", type=int, default=0, choices=(0, 1))
    args = ap.parse_args()
    # on SIGTERM, unwind so that every child process is stopped and reaped
    signal.signal(signal.SIGTERM, lambda *_: sys.exit(143))

    for need in ("dune-project", "bin/commlat_cli.ml", "lib/server/wire.ml"):
        if not os.path.exists(need):
            fail("run from the root of a commlat checkout (%s is missing)" % need)
    rundir = os.path.join(BUILD, "run")
    os.makedirs(rundir, exist_ok=True)
    repo = build(".", os.path.join(BUILD, "dune"), [CLI] + ([TRACER] if args.trace else []))
    launcher, calib = build(NATIVE, os.path.join(BUILD, "native"), [LAUNCHER, CALIB])
    exes = [repo[0], launcher, calib] + repo[1:]

    names = WORKLOADS if args.workload == "all" else (args.workload,)
    results = {}
    with open(os.path.join(rundir, "serve.log"), "ab") as log:
        for name in names:
            one = argparse.Namespace(**dict(vars(args), workload=name))
            print("stamp: " + json.dumps(stamp(one)))
            try:
                results[name] = run_workload(one, exes, rundir, log)
            except (RuntimeError, OSError, ValueError, KeyError, subprocess.SubprocessError) as e:
                fail("%s: %s" % (name, e), 1)
    if len(names) == 1:
        correct, attempted, failed, metrics = results[names[0]]
    else:
        correct = all(r[0] for r in results.values())
        attempted = sum(r[1] for r in results.values())
        failed = sum(r[2] for r in results.values())
        metrics = {"%s/%s" % (n, k): v for n, r in results.items() for k, v in r[3].items()}
    print(json.dumps({"correct": correct, "attempted": attempted, "failed": failed,
                      "metrics": metrics}))
    sys.exit(0 if correct else 1)


if __name__ == "__main__":
    main()
