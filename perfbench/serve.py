"""The serve workloads: a `commlat serve` child process driven over a Unix
socket by one client thread, closed loop, with a fixed number of requests
in flight on each connection.

Each connection owns a block of requests generated from the seed by this
file and encoded before any timer starts.  The timed phase runs in slices
of SLICE_S seconds; each slice sends its connection's block from the start,
after the request ids have been rewritten to ids no earlier slice used, so
every id is answered at most once over the run.  Within a slice, each
connection keeps DEPTH requests in flight: every read that completes k
replies is followed by one write carrying the connection's next k
requests.  A request's latency runs from the write that carried it to the
read that carried its reply.  Between two slices, with nothing in flight,
the replies of the slice are checked and one more server is started for a
set-up sample.
"""

import array
import gc
import itertools
import json
import os
import random
import select
import socket
import subprocess
import sys
import threading
import time

import stats
import wire

DOMAINS = 2
CONNS = 2
DEPTH = 32
SLICE_S = 1.0
DRAIN_S = 10.0  # grace after a slice for replies still in flight
PREFILL_S = 30.0
GET, PUT, SIZE = 0, 1, 2
OP_NAMES = {GET: "get", PUT: "put", SIZE: "size"}


class Mix:
    def __init__(self, keys, theta, ops, rate_cap):
        self.keys = keys
        self.theta = theta
        self.ops = ops  # (op, probability) pairs; probabilities sum to 1
        self.rate_cap = rate_cap  # requests/s one slice's blocks can feed

    @property
    def block(self):
        """Requests in each connection's block."""
        return int(self.rate_cap * SLICE_S / CONNS)


MIXES = {
    # 90% get / 10% put over 100k Zipf(0.99) keys: mostly the read-only fast path
    "serve-read": Mix(100_000, 0.99, ((GET, 0.9), (PUT, 0.1)), 300_000),
    # 90% put over 512 Zipf(1.2) keys + 10% keyless size: contended writes
    "serve-hotkey": Mix(512, 1.2, ((PUT, 0.9), (SIZE, 0.1)), 150_000),
}

TEMPLATE = {op: wire.invoke_template("kvmap", OP_NAMES[op], arity)[0]
            for op, arity in ((GET, 1), (PUT, 2), (SIZE, 0))}
_, ID_AT, (KEY_AT, VAL_AT) = wire.invoke_template("kvmap", "put", 2)
OPT_INT = bytes([0x07, 0x01, 0x02])  # value prefix of Some (Int _)


def conn_base(c):
    """First request id of connection [c]; prefill uses connection -1."""
    return (c + 2) << 40


def put_value(key, rng):
    # the value carries its key, so a reply with another key's value shows
    return (key << 32) | rng.getrandbits(31)


class Stream:
    """One connection's requests: op codes, keys, put values, and the
    encoded frames back to back with their offsets.  Request [i] has id
    [base + i]."""

    def __init__(self, ops, keys, vals, base):
        self.ops, self.keys, self.vals = ops, keys, vals
        self.n = len(ops)
        frames = [TEMPLATE[op] for op in ops]
        self.offs = array.array("q", [0])
        self.offs.extend(itertools.accumulate(map(len, frames)))
        self.blob = blob = bytearray(b"".join(frames))
        pack = wire.I64.pack_into
        for i, op, off in zip(range(self.n), ops, self.offs):
            if op != SIZE:  # get's key sits where put's does
                pack(blob, off + KEY_AT, keys[i])
                if op == PUT:
                    pack(blob, off + VAL_AT, vals[i])
        self.rebase(base)

    def rebase(self, base):
        """Rewrite every frame's id so that request [i] has id [base + i]."""
        self.base = base
        pack, blob = wire.I64.pack_into, self.blob
        for i, off in zip(range(self.n), self.offs):
            pack(blob, off + ID_AT, base + i)


def zipf_cum(keys, theta):
    acc, cum = 0.0, []
    for rank in range(1, keys + 1):
        acc += rank ** -theta
        cum.append(acc)
    return cum


def generate(mix, seed, n, conn):
    """[n] requests for connection [conn]; key = Zipf rank, so the hot keys
    (and the workers they route to) are the same under every seed."""
    rng = random.Random(seed * 1009 + conn)
    keys = rng.choices(range(mix.keys), cum_weights=zipf_cum(mix.keys, mix.theta), k=n)
    (op_a, p_a), (op_b, _) = mix.ops
    ops = bytes(op_a if rng.random() < p_a else op_b for _ in range(n))
    vals = array.array("q", (put_value(keys[i], rng) if ops[i] == PUT else 0 for i in range(n)))
    for i, op in enumerate(ops):
        if op == SIZE:
            keys[i] = -1
    return Stream(ops, array.array("q", keys), vals, conn_base(conn))


def prefill_stream(mix, seed):
    rng = random.Random(seed * 1009 - 1)
    keys = array.array("q", range(mix.keys))
    vals = array.array("q", (put_value(k, rng) for k in keys))
    return Stream(bytes([PUT]) * mix.keys, keys, vals, conn_base(-1))


# ---------------------------------------------------------------------------
# Child processes


class Reaped:
    """Exit status and resource use of a child, from wait4."""

    def __init__(self, status, ru, timed_out):
        self.status = status
        self.cpu_s = ru.ru_utime + ru.ru_stime
        self.timed_out = timed_out

    @property
    def ok(self):
        return not self.timed_out and os.WIFEXITED(self.status) and os.WEXITSTATUS(self.status) == 0


def reap(proc, timeout):
    """Wait for [proc] (blocking wait4, killed by a watchdog after
    [timeout] seconds) and return its Reaped record."""
    fired = []

    def kill():
        fired.append(True)
        proc.kill()

    dog = threading.Timer(timeout, kill)
    dog.start()
    try:
        _, status, ru = os.wait4(proc.pid, 0)
    finally:
        dog.cancel()
    proc.returncode = os.waitstatus_to_exitcode(status)
    return Reaped(status, ru, bool(fired))


def proc_cpu_s(pid):
    """User+system CPU of a live process so far, from /proc (clock ticks)."""
    with open("/proc/%d/stat" % pid) as f:
        fields = f.read().rsplit(")", 1)[1].split()
    return (int(fields[11]) + int(fields[12])) / os.sysconf("SC_CLK_TCK")


def proc_hwm_mb(pid):
    with open("/proc/%d/status" % pid) as f:
        for line in f:
            if line.startswith("VmHWM:"):
                return int(line.split()[1]) / 1024.0
    raise RuntimeError("no VmHWM for pid %d" % pid)


# a busy loop pinned to one CPU under SCHED_IDLE, which ends when its parent
# does; any other task that wakes up or starts on that CPU preempts it
SPIN = """import os, sys
os.sched_setscheduler(0, os.SCHED_IDLE, os.sched_param(0))
os.sched_setaffinity(0, {int(sys.argv[1])})
parent = os.getppid()
while os.getppid() == parent:
    for _ in range(1000000):
        pass
"""


class KeepAwake:
    """One idle-priority busy loop per CPU while the block runs.  On a virtual
    machine an idle vCPU halts, and waking it can wait milliseconds for the
    hypervisor when the host is busy; a closed loop ping-pongs between
    threads and would measure those waits.  The loops run only when
    nothing else is runnable."""

    def __enter__(self):
        self.procs = [subprocess.Popen([sys.executable, "-c", SPIN, str(cpu)],
                                       stdin=subprocess.DEVNULL)
                      for cpu in sorted(os.sched_getaffinity(0))]
        return self

    def __exit__(self, *exc):
        for p in self.procs:
            p.kill()
        for p in self.procs:
            p.wait()


class Conn:
    def __init__(self, path):
        self.sock = socket.socket(socket.AF_UNIX, socket.SOCK_STREAM)
        self.sock.connect(path)
        self.rest = b""

    def call(self, frame, rid, timeout=10.0):
        """Send one control frame and read frames until the reply to [rid]."""
        self.sock.sendall(frame)
        self.sock.settimeout(timeout)
        try:
            while True:
                pls, off = wire.payloads(self.rest)
                self.rest = self.rest[off:]
                for p in pls:
                    tag, got, v = wire.response(p)
                    if got == rid:
                        return tag, v
                    raise RuntimeError("unexpected reply id %d while waiting for %d" % (got, rid))
                data = self.sock.recv(1 << 16)
                if not data:
                    raise RuntimeError("server closed the connection")
                self.rest += data
        finally:
            self.sock.settimeout(None)

    def close(self):
        self.sock.close()


class Server:
    """A `commlat serve` child.  Start-up time runs from the spawn to the
    first Ping reply, with connection attempts polled every 0.5 ms."""

    def __init__(self, exe, path, log, conns=CONNS):
        self.path = path
        self.next_id = 1
        self.control_calls = 0
        if os.path.exists(path):
            os.unlink(path)
        t0 = time.perf_counter()
        self.proc = subprocess.Popen(
            [exe, "serve", "--socket", path, "--domains", str(DOMAINS), "--quiet"],
            stdin=subprocess.DEVNULL, stdout=subprocess.DEVNULL, stderr=log)
        try:
            self.conns = [self._connect(t0 + 20.0)]
            tag, _ = self.call(wire.ping_req)
            self.setup_s = time.perf_counter() - t0
            if tag != wire.REPLY:
                raise RuntimeError("Ping answered with an error")
            self.conns += [Conn(path) for _ in range(conns - 1)]
        except BaseException:
            self.kill()
            raise

    def _connect(self, deadline):
        while True:
            try:
                return Conn(self.path)
            except (FileNotFoundError, ConnectionRefusedError):
                if self.proc.poll() is not None or time.perf_counter() > deadline:
                    raise RuntimeError("server did not start")
                time.sleep(0.0005)

    def call(self, make):
        rid = self.next_id
        self.next_id += 1
        self.control_calls += 1
        return self.conns[0].call(make(rid), rid)

    def counters(self):
        tag, v = self.call(wire.stats_req)
        if tag != wire.REPLY or not isinstance(v, bytes):
            raise RuntimeError("Stats answered with an error")
        return json.loads(v)["counters"]

    def quit(self):
        """Quit, then reap; returns the Reaped record."""
        try:
            tag, _ = self.conns[0].call(wire.quit_req(0), 0)
            quit_ok = tag == wire.REPLY
        except (OSError, RuntimeError):
            quit_ok = False
        for c in self.conns:
            c.close()
        if not quit_ok:
            self.proc.kill()
        return reap(self.proc, 30.0)

    def kill(self):
        if self.proc.returncode is None:
            self.proc.kill()
            reap(self.proc, 30.0)


def setup_sample(exe, path, log):
    """Start-up time of one more server, which must exit 0 on Quit."""
    srv = Server(exe, path, log, conns=1)
    if not srv.quit().ok:
        raise RuntimeError("set-up server did not exit 0 on Quit")
    return srv.setup_s


# ---------------------------------------------------------------------------
# Closed loop


class Flow:
    """Client state of one connection during one closed loop."""

    def __init__(self, conn, stream):
        self.sock = conn.sock
        self.s = stream
        self.blob = memoryview(stream.blob)
        self.sent_at = array.array("d", [0.0]) * stream.n
        self.next = 0
        self.inflight = 0
        self.rest = conn.rest
        conn.rest = b""
        self.chunks = [self.rest] if self.rest else []  # every byte read, for the checks
        self.lat = array.array("d")

    def send(self, k, now):
        j = self.next
        m = min(k, self.s.n - j)
        if m > 0:
            self.sock.sendall(self.blob[self.s.offs[j]:self.s.offs[j + m]])
            self.sent_at[j:j + m] = array.array("d", [now]) * m
            self.next = j + m
            self.inflight += m
        return m


def closed_loop(flows, seconds, depth):
    """Keep [depth] requests in flight on every flow until [seconds] have
    passed or the streams run out, then wait for the replies in flight.
    Returns (elapsed seconds, drained)."""
    gc.disable()  # no collector pause inside a timed loop
    try:
        return _closed_loop(flows, seconds, depth)
    finally:
        gc.enable()


def _closed_loop(flows, seconds, depth):
    by_fd = {f.sock.fileno(): f for f in flows}
    poller = select.poll()
    for f in flows:
        poller.register(f.sock.fileno(), select.POLLIN)
    u32, i64 = wire.U32.unpack_from, wire.I64.unpack_from
    clock = time.perf_counter
    t0 = clock()
    deadline, drain_end = t0 + seconds, t0 + seconds + DRAIN_S
    for f in flows:
        f.send(depth, clock())
    inflight = sum(f.inflight for f in flows)
    last = t0
    sending = True
    while inflight:
        now = clock()
        if sending and now >= deadline:
            sending = False
        if now >= drain_end:
            break
        for fd, _ in poller.poll(100):
            f = by_fd[fd]
            data = f.sock.recv(1 << 18)
            t = clock()
            if not data:
                raise RuntimeError("server closed a connection mid-run")
            f.chunks.append(data)
            buf = f.rest + data if f.rest else data
            n, off, k = len(buf), 0, 0
            sent_at, base, lat = f.sent_at, f.s.base, f.lat
            while off + 4 <= n:
                end = off + 4 + u32(buf, off)[0]
                if end > n:
                    break
                i = i64(buf, off + 5)[0] - base
                # foreign ids are counted by the checks after the slice
                if 0 <= i < f.next:
                    lat.append(t - sent_at[i])
                off = end
                k += 1
            f.rest = buf[off:]
            f.inflight -= k
            inflight -= k
            last = t
            if sending and k:
                inflight += f.send(k, clock())
    for f in flows:
        poller.unregister(f.sock.fileno())
    return last - t0, inflight == 0


# ---------------------------------------------------------------------------
# Output checks


class Check:
    """Result of the reply checks: every request id answered exactly once,
    no foreign ids, and every value consistent with the stream."""

    def __init__(self):
        self.sent = 0
        self.errors = 0  # Err replies
        self.unanswered = 0
        self.foreign = 0
        self.duplicates = 0
        self.wrong = []  # descriptions of the first few wrong outputs

    def bad(self, what):
        if len(self.wrong) < 5:
            self.wrong.append(what)

    def problems(self):
        """Why the output is wrong; Err replies are failures, not wrong
        output, and are counted apart."""
        return self.wrong + ["%d %s" % (getattr(self, k), k)
                             for k in ("unanswered", "foreign", "duplicates") if getattr(self, k)]


def written_values(streams):
    """Every value a put of [streams] can write."""
    vals = set()
    for s in streams:
        vals.update(s.vals[i] for i in range(s.n) if s.ops[i] == PUT)
    return vals


def check_replies(check, stream, sent, chunks, written, nkeys):
    """Check one connection's replies against the [sent] first requests of
    [stream].  Gets and puts must return Some v with v a value written to
    the same key; size must count every prefilled key."""
    buf = b"".join(chunks)
    u32, i64 = wire.U32.unpack_from, wire.I64.unpack_from
    ops, keys, base = stream.ops, stream.keys, stream.base
    seen = bytearray(sent)
    check.sent += sent
    off, n = 0, len(buf)
    while off + 4 <= n:
        ln = u32(buf, off)[0]
        end = off + 4 + ln
        if end > n:
            break
        p = off + 4
        off = end
        if ln < 9:
            check.bad("malformed reply: %d-byte payload" % ln)
            continue
        i = i64(buf, p + 1)[0] - base
        if not 0 <= i < sent:
            check.foreign += 1
            continue
        if seen[i]:
            check.duplicates += 1
            continue
        seen[i] = 1
        op = ops[i]
        # the common replies, decoded in place: Reply Some (Int v), Reply Int n
        if op != SIZE and ln == 20 and buf[p] == wire.REPLY and buf[p + 9:p + 12] == OPT_INT:
            v = i64(buf, p + 12)[0]
            if v >> 32 == keys[i] and v in written:
                continue
            v = (v,)
        elif op == SIZE and ln == 18 and buf[p] == wire.REPLY and buf[p + 9] == 0x02:
            v = i64(buf, p + 10)[0]
            if v == nkeys:
                continue
        else:
            try:
                tag, _, v = wire.response(buf[p:end])
            except wire.Malformed as e:
                check.bad("malformed reply: %s" % e)
                continue
            if tag == wire.ERR:
                check.errors += 1
                continue
        check.bad("request %d: %s(%d) returned %r" % (base + i, OP_NAMES[op], keys[i], v))
    if off != n:
        check.bad("%d bytes of a partial frame at the end" % (n - off))
    check.unanswered += seen.count(0)


def check_prefill(check, stream, chunks):
    """Prefill puts hit a fresh map, so each must return None."""
    pls, off = wire.payloads(b"".join(chunks))
    if len(pls) != stream.n or off != sum(map(len, chunks)):
        check.bad("prefill: %d replies for %d puts" % (len(pls), stream.n))
    for p in pls:
        tag, rid, v = wire.response(p)
        if tag != wire.REPLY or v != ():
            check.bad("prefill request %d returned %r" % (rid, v))


def error_rate(check):
    """(Err replies + unanswered requests) / requests sent."""
    return (check.errors + check.unanswered) / max(1, check.sent)


def delta(after, before, name):
    return after.get(name, 0) - before.get(name, 0)


def check_counters(check, before, after, invokes, control_calls):
    """The Stats counters must account for every request between the two
    snapshots: each invoke attempt and each Ping/Stats bumps [requests];
    each invoke ends as a commit, a read-only fast-path reply or an Err."""
    d = lambda name: delta(after, before, name)
    want_requests = invokes + d("conflict_aborts") + control_calls
    if d("requests") != want_requests:
        check.bad("Stats: %d requests counted, %d expected" % (d("requests"), want_requests))
    ends = d("commits") + d("ro_fast_path") + check.errors
    if ends != invokes:
        check.bad("Stats: %d commits + fast-path reads + errors for %d invokes" % (ends, invokes))


# ---------------------------------------------------------------------------
# One run


def run(exe, host, workload, seed, seconds, rundir, log):
    """Run one serve workload, sampling the host's speed into [host] (a
    speed.Speed); returns a dict of results (see run.py)."""
    mix = MIXES[workload]
    blocks = [generate(mix, seed, mix.block, c) for c in range(CONNS)]
    prefill = prefill_stream(mix, seed)
    written = written_values([prefill] + blocks)
    path = os.path.join(rundir, "serve.sock")
    setup_path = os.path.join(rundir, "setup.sock")
    nslices = max(1, round(seconds / SLICE_S))

    check = Check()
    with KeepAwake():
        srv = Server(exe, path, log)
        try:
            setups = [srv.setup_s]
            pre = [Flow(srv.conns[0], prefill)]
            _, drained = closed_loop(pre, PREFILL_S, 256)
            srv.conns[0].rest = pre[0].rest
            if not drained or pre[0].next != prefill.n:
                raise RuntimeError("prefill did not complete in %.0f s" % PREFILL_S)
            check_prefill(check, prefill, pre[0].chunks)
            before = srv.counters()
            check_counters(check, {}, before, prefill.n, srv.control_calls)
            if srv.conns[0].rest:
                raise RuntimeError("stray bytes before the timed phase")
            control_before = srv.control_calls
            host.sample(3)
            cpu_before = proc_cpu_s(srv.proc.pid)
            rates, lats, sent, client_cpu, wall = [], array.array("d"), 0, 0.0, 0.0
            exhausted = 0
            for s in range(nslices):
                if s:
                    for c, b in enumerate(blocks):
                        b.rebase(conn_base(c) + s * b.n)
                flows = [Flow(c, b) for c, b in zip(srv.conns, blocks)]
                client_a = time.process_time()
                elapsed, drained = closed_loop(flows, SLICE_S, DEPTH)
                client_cpu += time.process_time() - client_a
                wall += elapsed
                done = sum(len(f.lat) for f in flows)
                rates.append(done / elapsed)
                for c, f in zip(srv.conns, flows):
                    c.rest = f.rest
                    lats.extend(f.lat)
                    sent += f.next
                    exhausted += f.next == f.s.n
                    check_replies(check, f.s, f.next, f.chunks, written, mix.keys)
                if not drained:
                    break
                setups.append(setup_sample(exe, setup_path, log))
                host.sample(3)
            after = srv.counters()
            hwm = proc_hwm_mb(srv.proc.pid)
            reaped = srv.quit()
        except BaseException:
            srv.kill()
            raise
    if not reaped.ok:
        check.bad("server exit status %d on Quit" % reaped.status)
    check_counters(check, before, after, sent, srv.control_calls - control_before)

    lats = sorted(lats)
    done = len(lats)
    if not done:
        raise RuntimeError("no request completed")
    cpu = reaped.cpu_s - cpu_before
    d = lambda name: delta(after, before, name)
    return {
        "problems": check.problems(),
        "attempted": check.sent,
        "failed": check.errors + check.unanswered,
        "e2e": {
            "ops_per_s": host.rate(stats.median(rates), "1/s", done),
            "p50_ms": host.time(stats.percentile(lats, 50) * 1e3, "ms", done),
            "p99_ms": host.time(stats.percentile(lats, 99) * 1e3, "ms", done),
            "cpu_us_per_op": host.time(cpu / done * 1e6, "us", done),
            "peak_rss_mb": (hwm, "MB", 1, None),
            "error_rate": (error_rate(check), "ratio", check.sent, None),
            "setup_s": host.time(stats.median(setups), "s", len(setups)),
            "host_slowdown": (host.slowdown(), "ratio", len(host.samples), None),
        },
        "layer": {
            "load.client_cpu_share": (client_cpu / wall, "ratio", len(rates), None),
            "engine.ro_fast_share": (d("ro_fast_path") / max(1, d("requests")), "ratio",
                                     d("requests"), None),
            "engine.abort_ratio": (d("conflict_aborts") / max(1, d("commits") + d("conflict_aborts")),
                                   "ratio", d("commits") + d("conflict_aborts"), None),
            "gatekeeper.checks_per_invocation": (d("checks") / max(1, d("invocations")), "count",
                                                 d("invocations"), None),
            "gatekeeper.checks_avoided_share": (
                d("checks_avoided") / max(1, d("checks") + d("checks_avoided")), "ratio",
                d("checks") + d("checks_avoided"), None),
            "gatekeeper.overflow_share": (d("overflow_inserts") / max(1, d("shard_inserts")), "ratio",
                                          d("shard_inserts"), None),
        },
        "info": {
            "requests": check.sent,
            "slices": len(rates),
            "slices_out_of_requests": exhausted,
            "prefill_keys": prefill.n,
        },
        "streams": blocks,
        "prefill": prefill,
    }
