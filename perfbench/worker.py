"""One workload process: set up, then issue queries one after another.

Started by ``run.py``; not meant to be run by hand.  The first line it
prints is ``READY <time.monotonic()> <reference loop seconds> <set-up
seconds>`` as soon as set-up ends (imports, templates, the query pool and
warm-up done): the time and the reference loop's duration at the first
checkpoint, and the set-up time from there on at the reference speed (see
``SetupClock``).  So the parent can time set-up from process start.  With
``--role setup`` it stops there.  Otherwise it runs the timed loop and
prints one JSON object as its last line.
"""

import argparse
import gc
import hashlib
import json
import math
import os
import resource
import statistics
import sys
import time
from pathlib import Path

import calibrate
import spans

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
OUT = HERE / "out"

MIN_QUERIES = {"full": 100, "smoke": 10}
# queries stop being issued after this much wall time, whatever the count,
# so that one run ends well inside three minutes
WALL_CAP_S = 120.0
# rough cost of one round per workload at the seed, used only to size the
# pool; a faster program cycles through the pool again
ROUND_S = {"sa-lp": 1.5, "strategy": 1.0, "hard-color": 1.0}


def import_pcsp():
    src = ROOT / "src"
    if not (src / "pcsp" / "__init__.py").is_file():
        sys.exit("perfbench: no pcsp sources under %s" % src)
    sys.path.insert(0, str(src))
    import pcsp

    if Path(pcsp.__file__).resolve().parent != (src / "pcsp").resolve():
        sys.exit("perfbench: imported pcsp from %s, not %s" % (pcsp.__file__, src))


def local_speed(cal, j):
    """The reference loop's duration around query ``j``: the median of the
    sixteen samples taken nearest before and after it.  One sample is
    noisy; the host's speed drifts over seconds, not over a few queries."""
    return statistics.median(cal[max(0, j - 7):j + 9])


class SetupClock:
    """Set-up time at the reference speed.

    The reference loop is timed at checkpoints all through set-up (after
    the imports, after every round of the query pool, after warm-up); the
    wall time between two checkpoints, less the loop's own runs, is scaled
    by the mean of the loop's durations at its two ends.
    """

    def __init__(self):
        self.marks = []
        self.check()

    def check(self):
        t = time.monotonic()
        cal = calibrate.measure()
        self.marks.append((t, cal, time.monotonic()))

    def reference_s(self):
        return math.fsum((b[0] - a[2]) * calibrate.REF_S * 2 / (a[1] + b[1])
                         for a, b in zip(self.marks, self.marks[1:]))


class Loop:
    """The closed loop: one client, one query at a time."""

    def __init__(self, pool, workloads):
        self.pool = pool
        self.wl = workloads
        self.plain = spans.Tracer(False)
        self.failures = []

    def run(self, seconds, min_queries, count=None, tracer=None):
        """Issue pool queries in order (cycling) until ``seconds`` of query
        time and ``min_queries`` queries are done, or exactly ``count``.

        With a ``tracer``, every query is issued twice, untraced and traced,
        in alternating order, so that the difference of the two query times
        is the tracing overhead.  The reference loop (``calibrate``) is timed
        before every query and after the last one, outside the query time.
        Returns the untraced latencies of the queries that passed their
        checks, each with the reference loop's duration around it and the
        query's kind, the
        untraced and traced query time, the number of queries, and the
        verdict digest of the first ``min_queries`` of them.
        """
        latencies = []
        query_cal = []
        cal = []
        tokens = []
        busy = traced = 0.0
        wall0 = time.monotonic()
        i = 0
        while True:
            if count is not None:
                if i >= count:
                    break
            elif (busy >= seconds and i >= min_queries) or time.monotonic() - wall0 > WALL_CAP_S:
                break
            q = self.pool[i % len(self.pool)]
            i += 1
            cal.append(calibrate.measure())
            if tracer is None:
                order = (self.plain,)
            else:
                order = (self.plain, tracer) if i % 2 else (tracer, self.plain)
            for tr in order:
                ok, dt, token = self.issue(q, tr, i)
                if tr is tracer:
                    traced += dt
                    continue
                busy += dt
                if ok:
                    latencies.append((dt, q.kind))
                    query_cal.append(i - 1)
                    if token is not None and i <= min_queries:
                        tokens.append(token)
        cal.append(calibrate.measure())
        digest = hashlib.sha256("\n".join(tokens).encode()).hexdigest()[:16]
        timed = [(dt, local_speed(cal, j), kind)
                 for (dt, kind), j in zip(latencies, query_cal)]
        return timed, busy, traced, i, digest

    def issue(self, q, tracer, i):
        """Time one query, then check it outside the timed region."""
        tracer.qid = i
        t0 = time.perf_counter()
        try:
            with tracer.span("query", kind=q.kind):
                result = q.run(tracer)
        except Exception as exc:  # a query that raises is counted as failed
            return self.fail(i, q, "raised %r" % exc, time.perf_counter() - t0)
        dt = time.perf_counter() - t0
        try:
            token = q.check(result)
        except self.wl.CheckFailed as exc:
            return self.fail(i, q, str(exc), dt)
        if q.token is not None and token != q.token:
            return self.fail(i, q, "verdict %s differs from earlier %s" % (token, q.token), dt)
        q.token = token
        return True, dt, token

    def fail(self, i, q, message, dt):
        self.failures.append("query %d (%s): %s" % (i, q.kind, message))
        print("perfbench: FAILED query %d (%s): %s" % (i, q.kind, message), file=sys.stderr)
        return False, dt, None


def compare_digest(key, digest):
    """Record the verdict digest for (workload, seed, scale), or compare it
    with the one an earlier run in this checkout recorded."""
    path = OUT / "digests.json"
    known = json.loads(path.read_text()) if path.exists() else {}
    if key in known:
        return known[key] == digest
    known[key] = digest
    OUT.mkdir(exist_ok=True)
    tmp = path.with_suffix(".tmp")
    tmp.write_text(json.dumps(known, indent=1, sort_keys=True))
    os.replace(tmp, path)
    return True


def main(argv=None):
    ap = argparse.ArgumentParser()
    ap.add_argument("--workload", required=True)
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, required=True)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    ap.add_argument("--scale", choices=("full", "smoke"), default="full")
    ap.add_argument("--role", choices=("setup", "run"), default="run")
    args = ap.parse_args(argv)

    clock = SetupClock()
    import_pcsp()
    import workloads as wl

    clock.check()
    rounds = max(1, int(args.seconds * 1.5 / ROUND_S[args.workload]) + 1)
    pool = wl.build(args.workload, args.seed, args.scale, rounds, between=clock.check)
    warm = Loop(wl.build(args.workload, args.seed, "smoke", 1, part="warmup"), wl)
    warm.run(0, 0, count=len(warm.pool))
    gc.collect()
    clock.check()
    first, cal = clock.marks[0][:2]
    print("READY %r %r %r" % (first, cal, clock.reference_s()), flush=True)
    if args.role == "setup":
        return 0 if not warm.failures else 1

    loop = Loop(pool, wl)
    min_q = MIN_QUERIES[args.scale]
    result = {"warmup_failed": len(warm.failures)}
    if not args.trace:
        lat, busy, _, n, digest = loop.run(args.seconds, min_q)
    else:
        tracer = spans.Tracer(True)
        lat, busy, traced, n, digest = loop.run(args.seconds / 2, min_q, tracer=tracer)
        result["layers"] = spans.layer_metrics(tracer.spans)
        result["untraced_s"] = busy
        result["traced_s"] = traced
        OUT.mkdir(exist_ok=True)
        tracer.dump(OUT / ("trace-%s-%d-%s.jsonl" % (args.workload, args.seed, args.scale)))
    digest_key = "%s:%d:%s:%d" % (args.workload, args.seed, args.scale, min(n, min_q))
    if not compare_digest(digest_key, digest):
        loop.failures.append("verdict digest %s differs from the recorded one" % digest)
        print("perfbench: FAILED verdict digest %s for %s differs from the recorded one"
              % (digest, digest_key), file=sys.stderr)
    result.update({
        "attempted": n,
        "failed": len(loop.failures),
        "latencies": lat,
        "busy_s": busy,
        "digest": digest,
        "peak_rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0,
    })
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
