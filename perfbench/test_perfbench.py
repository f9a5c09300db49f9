"""Tests of the benchmark itself.  From the repository root:

    python3 -m pytest perfbench/test_perfbench.py
"""

import json
import shutil
import subprocess
import sys
from pathlib import Path

import pytest

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
sys.path.insert(0, str(ROOT / "src"))
sys.path.insert(0, str(HERE))

import calibrate  # noqa: E402
import worker  # noqa: E402
import workloads as wl  # noqa: E402
from pcsp import ratlp  # noqa: E402
from pcsp.core import exactly_template  # noqa: E402
from pcsp.random_instances import sample_hypergraph  # noqa: E402
from pcsp.sherali_adams import build_sa  # noqa: E402


def test_roadmap_reference_lp_size():
    # the ROADMAP baseline LP: SA level 2, 1-in-3, sample_hypergraph(12, 3, 2, 3)
    lp = build_sa(sample_hypergraph(12, 3, 2, 3), exactly_template(1, 3), 2)
    assert (len(lp.variables), len(lp.constraints)) == (553, 929)


@pytest.mark.parametrize("trace", ["0", "1"])
def test_smoke_run_of_all_workloads(trace):
    proc = subprocess.run([sys.executable, str(HERE / "run.py"), "--workload", "all",
                           "--seed", "7", "--seconds", "0.2", "--scale", "smoke",
                           "--trace", trace],
                          cwd=ROOT, capture_output=True, text=True, timeout=170)
    assert proc.returncode == 0, proc.stderr
    result = json.loads(proc.stdout.splitlines()[-1])
    assert set(result) == {"correct", "attempted", "failed", "metrics"}
    assert result["correct"] and result["failed"] == 0 and result["attempted"] >= 30
    names = {"queries_per_s", "query_p50_ms", "query_p90_ms", "setup_s", "ok_frac",
             "peak_rss_mb"} if trace == "0" else {
        "ratlp.feasible.busy_s", "consistency.compute_strategy.kept_ratio",
        "core.hom_search.found_ratio", "coloring.oracle.calls", "trace.overhead_s"}
    for workload in wl.WORKLOADS:
        for name in names:
            assert workload + "." + name in result["metrics"]


def test_refuses_to_run_without_sources(tmp_path):
    shutil.copytree(HERE, tmp_path / HERE.name,
                    ignore=shutil.ignore_patterns("out", "__pycache__"))
    shutil.copy(ROOT / "BENCHMARK.json", tmp_path)
    proc = subprocess.run([sys.executable, str(tmp_path / HERE.name / "run.py"),
                           "--workload", "sa-lp", "--seed", "1", "--seconds", "1"],
                          cwd=tmp_path, capture_output=True, text=True, timeout=60)
    assert proc.returncode != 0 and proc.stdout == ""


def test_inputs_depend_only_on_the_seed():
    def inputs(seed):
        rng = wl.rng_for(seed, "inputs")
        return (wl.general_lp(rng, 12, False).dump(), wl.hypergraph(rng, 9, 9),
                wl.planted_graph(rng, 20, 0.4), wl.odd_graph(rng, 10, 12))
    assert inputs(3) == inputs(3)
    assert inputs(3) != inputs(4)


def test_checks_reject_wrong_results():
    lp = wl.general_lp(wl.rng_for(1, "lp"), 10, False)
    with pytest.raises(wl.CheckFailed):
        wl.general_query(lp, False).check(ratlp.Verdict(True, {}))
    g = wl.bipartite_graph(wl.rng_for(1, "g"), 8, 8)
    with pytest.raises(wl.CheckFailed):
        wl.refute_query(g, wl.K2, "K2", True).check(None)
    with pytest.raises(wl.CheckFailed):
        wl.strategy_query(g, wl.K2, 3, True).check(None)
    q = wl.sample_query(60, 2, 2, 5)
    inst = sample_hypergraph(60, 2, 2, 5)
    fake = type("V", (), {"sparse": False, "witness": (0, 1, 2), "exact": False})
    with pytest.raises(wl.CheckFailed):
        q.check((inst, fake))


def test_sa_level_implication_is_checked():
    levels = wl.SaLevels()
    levels.record("x", 3, True)
    with pytest.raises(wl.CheckFailed):
        levels.record("x", 2, False)



def test_query_time_is_scaled_by_the_reference_loop_around_it():
    assert calibrate.measure() > 0
    # loop timings before queries 0..18 and after the last; one is disturbed
    cal = [1.0] * 2 + [9.0] + [2.0] * 17
    assert worker.local_speed(cal, 9) == 2.0  # eight before, eight after
    assert worker.local_speed(cal, 0) == 2.0  # clipped at the start
    assert worker.local_speed(cal[:4], 0) == 1.5
