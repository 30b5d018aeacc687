"""The traced run: the OCaml tracer (perfbench/tracer) replays the workload
in-process with a span around each public call into the wire, engine and
sched layers; this file turns its spans into per-layer metrics.

A span line is: id, name, parent line (or -1), start ns, end ns.  A span's
self time is its duration minus the durations of its children.
"""

import json
import os
import subprocess

import serve
import stats

ROUNDS = 3  # untraced/traced replay pairs; medians are reported
SERVE_REQUESTS = 100_000  # requests replayed per round (after the prefill)

SERVE_SPANS = ("decode", "route", "try_req", "commit", "encode")


class Spans:
    def __init__(self, lines):
        self.name, self.parent, self.dur = [], [], []
        for line in lines:
            _id, name, parent, t0, t1 = line.split("\t")
            self.name.append(name)
            self.parent.append(int(parent))
            self.dur.append(int(t1) - int(t0))
        child = [0] * len(self.dur)
        for i, p in enumerate(self.parent):
            if p >= 0:
                child[p] += self.dur[i]
        self.self_ns = [d - c for d, c in zip(self.dur, child)]

    @classmethod
    def load(cls, path):
        with open(path) as f:
            return cls(f.read().splitlines())

    def totals(self):
        """name -> (count, summed duration ns, summed self time ns)."""
        out = {}
        for name, d, s in zip(self.name, self.dur, self.self_ns):
            c, td, ts = out.get(name, (0, 0, 0))
            out[name] = (c + 1, td + d, ts + s)
        return out


def tracer(exe, args):
    """Run the tracer; returns its JSON summary."""
    try:
        out = subprocess.run([exe, *args], stdin=subprocess.DEVNULL, capture_output=True,
                             text=True, timeout=150)
    except subprocess.TimeoutExpired:
        raise RuntimeError("tracer timed out")
    if out.returncode != 0:
        raise RuntimeError("tracer failed (%d): %s" % (out.returncode, out.stderr.strip()[-500:]))
    return json.loads(out.stdout.strip().splitlines()[-1])


def overhead(summary):
    return stats.median(summary["traced_s"]) / stats.median(summary["untraced_s"]) - 1


def write_stream(path, prefill, blocks, requests):
    """The prefill, then [requests] requests of the connections' blocks
    interleaved DEPTH at a time, as the server's readers receive them."""
    with open(path, "wb") as f:
        f.write(prefill.blob)
        pos, left = [0] * len(blocks), requests
        while left > 0 and any(p < s.n for p, s in zip(pos, blocks)):
            for c, s in enumerate(blocks):
                j = pos[c]
                m = min(serve.DEPTH, s.n - j, left)
                if m > 0:
                    f.write(s.blob[s.offs[j]:s.offs[j + m]])
                    pos[c], left = j + m, left - m
    return requests - left


def serve_layers(exe, res, rundir):
    """Per-layer metrics of a serve workload; [res] is its untraced run."""
    stream_path = os.path.join(rundir, "trace-stream.bin")
    span_path = os.path.join(rundir, "serve.spans")
    prefill = res["prefill"]
    n = write_stream(stream_path, prefill, res["streams"], SERVE_REQUESTS)
    summary = tracer(exe, ["serve", stream_path, str(prefill.n), str(n), str(ROUNDS), span_path])
    if summary["errors"]:
        raise RuntimeError("traced replay answered %d errors" % summary["errors"])
    t = Spans.load(span_path).totals()
    reqs = t["request"][0]
    count = lambda k: t.get(k, (0, 0, 0))[0]
    dur = lambda k: t.get(k, (0, 0, 0))[1]
    per_req_us = sum(dur(k) for k in SERVE_SPANS) / reqs / 1e3
    # both sides raw: the traced times are not normalized
    cpu_us = res["e2e"]["cpu_us_per_op"][3]
    return {
        "wire.decode_ns": (dur("decode") / count("decode"), "ns", count("decode"), None),
        "wire.encode_ns": (dur("encode") / count("encode"), "ns", count("encode"), None),
        "engine.route_ns": (dur("route") / count("route"), "ns", count("route"), None),
        "engine.try_req_us": (t["try_req"][2] / count("try_req") / 1e3, "us", count("try_req"),
                              None),
        "engine.attempts_per_req": (count("try_req") / reqs, "count", reqs, None),
        "engine.commit_us": (dur("commit") / max(1, count("commit")) / 1e3, "us", count("commit"),
                             None),
        "server.residual_us_per_op": (cpu_us - per_req_us, "us", reqs, None),
        "trace.overhead_share": (overhead(summary), "ratio", ROUNDS, None),
    }


def explore_layers(exe, job_args, rundir):
    span_path = os.path.join(rundir, "explore.spans")
    opts = dict(zip(job_args[1::2], job_args[2::2]))
    summary = tracer(exe, ["explore", job_args[0], opts["--detector"], opts["--txns"],
                           opts["--seed"], "1000000", str(ROUNDS), span_path])
    if not summary["ok"]:
        raise RuntimeError("traced job found a counterexample or was cut short")
    t = Spans.load(span_path).totals()
    runs = summary["schedules"]
    # per schedule, in us
    us = lambda total_ns, n: (total_ns / runs / 1e3, "us", n, None)
    oracle = t.get("oracle", (0, 0, 0))
    return {
        "sched.make_us": us(t["make"][1], t["make"][0]),
        "sched.oracle_us": us(oracle[1], oracle[0]),
        "sched.replay_us": us(t["job"][2], runs),
        "trace.overhead_share": (overhead(summary), "ratio", ROUNDS, None),
    }
