#!/usr/bin/env python3
"""Self-tests of the benchmark harness: order statistics and the
correctness gates, on hand-built replies and job reports.  No binary is
needed.

    python3 perfbench/test_harness.py
"""

import sys

sys.dont_write_bytecode = True  # keep the checkout free of __pycache__

import contextlib
import io
import os
import unittest

import explore
import run
import serve
import stats
import wire


def reply(rid, value):
    payload = bytes([wire.REPLY]) + wire.I64.pack(rid) + value
    return wire.U32.pack(len(payload)) + payload


def err(rid, msg=b"conflict retries exhausted"):
    payload = bytes([wire.ERR]) + wire.I64.pack(rid) + wire.U32.pack(len(msg)) + msg
    return wire.U32.pack(len(payload)) + payload


def some_int(v):
    return serve.OPT_INT + wire.I64.pack(v)


def int_value(v):
    return b"\x02" + wire.I64.pack(v)


class Percentiles(unittest.TestCase):
    def test_linear_interpolation(self):
        xs = list(range(1, 101))
        self.assertEqual(stats.percentile(xs, 0), 1)
        self.assertEqual(stats.percentile(xs, 100), 100)
        self.assertAlmostEqual(stats.percentile(xs, 50), 50.5)
        self.assertAlmostEqual(stats.percentile(xs, 99), 99.01)
        self.assertEqual(stats.median([3, 1, 2]), 2)
        self.assertEqual(stats.percentile([7], 99), 7)

    def test_no_samples(self):
        with self.assertRaises(ValueError):
            stats.percentile([], 50)

    def test_samples_beyond(self):
        self.assertEqual(stats.beyond(1000, 99), 10)
        self.assertEqual(stats.beyond(1000, 50), 500)
        self.assertEqual(stats.beyond(100, 99), 1)
        xs = list(range(1000))
        p99 = stats.percentile(xs, 99)
        self.assertEqual(sum(1 for x in xs if x > p99), stats.beyond(1000, 99))

    def test_printed_sample_count(self):
        out = io.StringIO()
        with contextlib.redirect_stdout(out):
            run.print_metrics("t:", {"p99_ms": (1.5, "ms", 1000, 1.6),
                                     "ops_per_s": (10.0, "1/s", 42, None)})
        lines = out.getvalue().splitlines()
        self.assertIn("n=1000", lines[1])
        self.assertIn("(10 beyond)", lines[1])
        self.assertIn("raw 1.6", lines[1])
        self.assertIn("n=42", lines[2])
        self.assertNotIn("beyond", lines[2])
        self.assertNotIn("raw", lines[2])


class ServeGates(unittest.TestCase):
    """check_replies and check_counters on a small generated stream."""

    def setUp(self):
        self.mix = serve.MIXES["serve-hotkey"]
        self.s = serve.generate(self.mix, 5, 40, 0)
        self.prefill = serve.prefill_stream(self.mix, 5)
        self.written = serve.written_values([self.prefill, self.s])
        # the prefilled value of each key: what every first put returns
        self.latest = dict(zip(self.prefill.keys, self.prefill.vals))

    def good_replies(self):
        out = []
        for i in range(self.s.n):
            rid, op, key = self.s.base + i, self.s.ops[i], self.s.keys[i]
            if op == serve.SIZE:
                out.append(reply(rid, int_value(self.mix.keys)))
            else:
                out.append(reply(rid, some_int(self.latest[key])))
                if op == serve.PUT:
                    self.latest[key] = self.s.vals[i]
        return out

    def check(self, frames, split=7):
        c = serve.Check()
        blob = b"".join(frames)
        chunks = [blob[i:i + split] for i in range(0, len(blob), split)]
        serve.check_replies(c, self.s, self.s.n, chunks, self.written, self.mix.keys)
        return c

    def test_stream_has_every_op(self):
        self.assertEqual({serve.PUT, serve.SIZE}, set(self.s.ops))

    def test_good_replies_pass(self):
        c = self.check(self.good_replies())
        self.assertEqual(c.problems(), [])
        self.assertEqual(c.sent, self.s.n)
        self.assertEqual(serve.error_rate(c), 0)

    def test_dropped_reply(self):
        frames = self.good_replies()
        del frames[17]
        c = self.check(frames)
        self.assertEqual(c.unanswered, 1)
        self.assertEqual(c.problems(), ["1 unanswered"])
        self.assertEqual(serve.error_rate(c), 1 / self.s.n)

    def test_duplicated_id(self):
        frames = self.good_replies()
        frames.insert(30, frames[3])
        c = self.check(frames)
        self.assertEqual(c.duplicates, 1)
        self.assertEqual(c.problems(), ["1 duplicates"])

    def test_foreign_id(self):
        frames = self.good_replies() + [reply(serve.conn_base(1), some_int(0))]
        c = self.check(frames)
        self.assertEqual(c.foreign, 1)
        self.assertEqual(c.problems(), ["1 foreign"])

    def test_err_reply_raises_error_rate(self):
        frames = self.good_replies()
        frames[5] = err(self.s.base + 5)
        c = self.check(frames)
        self.assertEqual(c.errors, 1)
        self.assertEqual(c.unanswered, 0)
        self.assertEqual(serve.error_rate(c), 1 / self.s.n)
        # a failed request, not a wrong output
        self.assertEqual(c.problems(), [])

    def test_wrong_value(self):
        frames = self.good_replies()
        i = next(i for i in range(self.s.n) if self.s.ops[i] == serve.PUT)
        other = (self.s.keys[i] + 1) % self.mix.keys
        frames[i] = reply(self.s.base + i, some_int(self.latest[other]))
        c = self.check(frames)
        self.assertEqual(len(c.wrong), 1)
        self.assertIn("put(%d)" % self.s.keys[i], c.wrong[0])

    def test_wrong_size(self):
        frames = self.good_replies()
        i = self.s.ops.index(serve.SIZE)
        frames[i] = reply(self.s.base + i, int_value(self.mix.keys - 1))
        self.assertEqual(len(self.check(frames).wrong), 1)

    def test_truncated_reply(self):
        c = self.check(self.good_replies() + [reply(0, some_int(0))[:10]])
        self.assertIn("partial frame", c.wrong[0])

    def test_counters_account_for_requests(self):
        before = {"requests": 10, "commits": 3, "ro_fast_path": 5, "conflict_aborts": 2}
        after = {"requests": 10 + 40 + 6 + 1, "commits": 3 + 38, "ro_fast_path": 5 + 2,
                 "conflict_aborts": 2 + 6}
        c = serve.Check()
        serve.check_counters(c, before, after, 40, 1)
        self.assertEqual(c.wrong, [])
        # one request the server never counted
        after["requests"] -= 1
        serve.check_counters(c, before, after, 40, 1)
        self.assertEqual(len(c.wrong), 1)
        # one invoke that neither committed nor took the fast path
        c = serve.Check()
        after["requests"] += 1
        after["commits"] -= 1
        serve.check_counters(c, before, after, 40, 1)
        self.assertEqual(len(c.wrong), 1)


class ExploreGates(unittest.TestCase):
    def job(self, code=0, **report):
        r = {"verdict": "ok", "counterexample": None, "exhausted": True,
             "schedules_run": 918}
        r.update(report)
        # code << 8 is the wait status of a normal exit with that code
        return explore.Job(0.1, 0.1, 9000, code << 8, False, r)

    def test_clean_job_passes(self):
        self.assertIsNone(explore.check_job(self.job()))

    def test_counterexample(self):
        j = self.job(1, verdict="deadlock", counterexample={"schedule": [0, 1, 1]})
        self.assertIsNone(j.error)
        self.assertIn("counterexample", explore.check_job(j))

    def test_search_cut_short(self):
        why = explore.check_job(self.job(exhausted=False, schedules_run=2000))
        self.assertIn("cut short after 2000", why)

    def test_bad_exit_with_ok_verdict(self):
        self.assertIn("exit status", explore.check_job(self.job(1)))

    def test_crash_and_timeout_count_as_failed(self):
        crashed = explore.Job(0.1, 0.1, 9000, 11, False)  # killed by SIGSEGV
        self.assertIn("crashed", crashed.error)
        slow = explore.Job(60.0, 60.0, 9000, 9, True)
        self.assertIn("timed out", slow.error)
        self.assertIn("crashed", explore.Job(0.1, 0.1, 9000, 2 << 8, False).error)


if __name__ == "__main__":
    os.chdir(os.path.dirname(os.path.abspath(__file__)))
    unittest.main()
