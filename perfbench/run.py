"""pcsp-lab benchmark: seeded workloads, end-to-end metrics, a traced per-layer run.

Run from the repository root:

    python3 perfbench/run.py --workload sa-lp --seed 1 --seconds 30 --trace 0
    python3 perfbench/run.py --workload all --seed 1 --seconds 30
    python3 perfbench/run.py --workload all --seed 1 --seconds 1 --scale smoke

Workloads are ``sa-lp``, ``strategy``, ``hard-color`` (see NOTES.md), or
``all`` for each of them in turn.  Each workload runs in its own process as a
closed loop with one client.  Set-up is timed from process start to the
first timed query, three times per run (two set-up-only processes and the
measuring one), and reported as the median.

Times are reported at a reference speed: each query's wall time, and each
set-up's, is scaled by ``calibrate.REF_S`` over the duration of a fixed
pure-Python loop timed around it (see calibrate.py), which takes out the
drift in speed of a shared host.  The report lines give the wall-clock
figures too.

With ``--trace 0`` the metrics are the end-to-end ones; with ``--trace 1`` a
separate pass over the same queries records spans around every call into
pcsp and reports per-layer metrics plus the tracing overhead.  Every query
result is re-checked exactly; a failed check makes the command exit 1.  The
last line of standard output is one JSON object with the keys ``correct``,
``attempted``, ``failed`` and ``metrics``.
"""

import argparse
import json
import math
import statistics
import subprocess
import sys
import time
from pathlib import Path

import calibrate

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
WORKLOADS = ("sa-lp", "strategy", "hard-color")
SETUP_PROBES = 2
CHILD_TIMEOUT_S = 170.0


def spawn(args, workload, role):
    """Run one worker process; returns (set-up seconds, parsed last line or None)."""
    cmd = [sys.executable, str(HERE / "worker.py"), "--workload", workload,
           "--seed", str(args.seed), "--seconds", repr(args.seconds),
           "--trace", str(args.trace), "--scale", args.scale, "--role", role]
    start = time.monotonic()
    proc = subprocess.Popen(cmd, cwd=ROOT, stdout=subprocess.PIPE, text=True)
    try:
        out, _ = proc.communicate(timeout=CHILD_TIMEOUT_S)
    except subprocess.TimeoutExpired:
        proc.kill()
        proc.communicate()
        raise SystemExit("perfbench: %s worker for %s timed out" % (role, workload))
    lines = out.splitlines()
    if proc.returncode != 0 or not lines or not lines[0].startswith("READY "):
        raise SystemExit("perfbench: %s worker for %s exited with code %d"
                         % (role, workload, proc.returncode))
    first, cal, rest = (float(x) for x in lines[0].split()[1:])
    setup = (first - start) * calibrate.REF_S / cal + rest
    return setup, (json.loads(lines[-1]) if role == "run" else None)


def run_workload(args, workload):
    setups = [spawn(args, workload, "setup")[0] for _ in range(SETUP_PROBES)]
    setup, res = spawn(args, workload, "run")
    setups.append(setup)
    wall = [dt for dt, _, _ in res["latencies"]]
    lat = [dt * calibrate.REF_S / cal for dt, cal, _ in res["latencies"]]
    by_kind = {}
    for x, (_, _, kind) in zip(lat, res["latencies"]):
        by_kind.setdefault(kind, []).append(x)
    done = len(lat)
    metrics = {}
    if args.trace:
        for name, (value, unit) in res["layers"].items():
            metrics[name] = (value, unit)
        overhead = res["traced_s"] - res["untraced_s"]
        metrics["trace.overhead_s"] = (overhead, "s")
        metrics["trace.overhead_frac"] = (overhead / res["untraced_s"], "ratio")
    else:
        metrics["queries_per_s"] = (done / math.fsum(lat), "1/s")
        deciles = statistics.quantiles(lat, n=10, method="inclusive")
        metrics["query_p50_ms"] = (deciles[4] * 1e3, "ms")
        metrics["query_p90_ms"] = (deciles[8] * 1e3, "ms")
        metrics["setup_s"] = (statistics.median(setups), "s")
        metrics["ok_frac"] = (done / res["attempted"], "ratio")
        metrics["peak_rss_mb"] = (res["peak_rss_mb"], "MB")
    failed = res["failed"] + res["warmup_failed"]
    print("# %s seed=%d scale=%s trace=%d: %d queries attempted, %d failed "
          "(failed_frac %.4f), verdict digest %s, set-ups %s s"
          % (workload, args.seed, args.scale, args.trace, res["attempted"],
             failed, failed / res["attempted"], res["digest"],
             " ".join("%.3f" % s for s in setups)))
    if not args.trace:
        beyond = done - int(0.9 * done)
        print("#   query_p90_ms from %d samples, %d beyond it" % (done, beyond))
        print("#   wall clock: %.4g queries/s, p50 %.4g ms; reference speed factor %.3f "
              "(wall over reference time)"
              % (done / math.fsum(wall), statistics.median(wall) * 1e3,
                 math.fsum(wall) / math.fsum(lat)))
        print("#   median ms by kind: " + " ".join(
            "%s %.4g (%d)" % (k, statistics.median(v) * 1e3, len(v))
            for k, v in sorted(by_kind.items())))
    for name, (value, unit) in metrics.items():
        print("#   %-48s %14.6g %s" % (name, value, unit))
    return res["attempted"], failed, metrics


def main(argv=None):
    ap = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    ap.add_argument("--workload", required=True, choices=WORKLOADS + ("all",))
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, required=True)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    ap.add_argument("--scale", choices=("full", "smoke"), default="full",
                    help="smoke: tiny inputs, same code path and checks")
    args = ap.parse_args(argv)
    if args.seconds <= 0:
        ap.error("--seconds must be positive")
    if not (ROOT / "src" / "pcsp" / "__init__.py").is_file():
        print("perfbench: no pcsp sources under %s" % (ROOT / "src"), file=sys.stderr)
        return 2

    names = WORKLOADS if args.workload == "all" else (args.workload,)
    attempted = failed = 0
    metrics = {}
    for name in names:
        a, f, m = run_workload(args, name)
        attempted += a
        failed += f
        prefix = name + "." if args.workload == "all" else ""
        for key, (value, unit) in m.items():
            metrics[prefix + key] = {"value": value, "unit": unit}
    print(json.dumps({"correct": failed == 0, "attempted": attempted, "failed": failed,
                      "metrics": metrics}))
    return 0 if failed == 0 else 1


if __name__ == "__main__":
    sys.exit(main())
