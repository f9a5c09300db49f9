"""End-to-end acceptance gate.

Twelve criteria, one test each, run in order.  Every test appends a
one-line PASS/FAIL verdict to RESULTS; a conftest hook prints the lines
after the run so the gate status is visible at a glance.
"""

import contextlib
import io
import math
import random
from fractions import Fraction
from itertools import combinations_with_replacement, permutations, product as iproduct

import networkx as nx
import pytest
from lp_oracle import feasible_by_basis_enumeration

from pcsp import cli
from pcsp import coloring as col
from pcsp import random_instances as ri
from pcsp.consistency import compute_strategy, leq_k
from pcsp.core import (
    Signature,
    Structure,
    complete_graph,
    cycle,
    exactly_template,
    hom_search,
    nae_template,
    save_structure,
)
from pcsp.polymorphisms import (
    alternating_threshold,
    is_polymorphism,
    is_wnu,
    majority_first_tiebreak,
)
from pcsp.ratlp import (
    EQ,
    GEQ,
    LEQ,
    RationalLP,
    check_point,
    feasible,
)
from pcsp.sherali_adams import check_sa1, condition_on, leq_sa, sa_solution, solve_sa
from pcsp.template_analyzer import INCONCLUSIVE, NO_SUBLINEAR_WIDTH, classify

RESULTS = []


def record(num, ok, detail):
    line = "criterion %02d: %s (%s)" % (num, "PASS" if ok else "FAIL", detail)
    RESULTS.append(line)
    assert ok, line


# ---------------------------------------------------------------------------
# Shared random-pair generator (criteria 1 and 6)

SA3_VAR_CAP = 800  # keep exact level-3 LPs at desk scale


def random_pair(rng):
    """A random instance/template pair: |I| <= 6, |S| <= 3, arities <= 3.

    Pairs whose level-3 relaxation would exceed the variable cap are
    redrawn so the exact solver stays fast.
    """
    from pcsp.sherali_adams import build_sa

    while True:
        nsym = rng.randint(1, 2)
        sig = Signature(tuple(("R%d" % i, rng.randint(1, 3))
                              for i in range(nsym)))
        sn = rng.randint(1, 3)
        trels = []
        for sym, ar in sig.symbols:
            tups = [t for t in iproduct(range(sn), repeat=ar)
                    if rng.random() < 0.6]
            trels.append((sym, tuple(sorted(set(tups)))))
        template = Structure(sig, sn, tuple(trels))
        inn = rng.randint(2, 6)
        irels = []
        for sym, ar in sig.symbols:
            tups = [tuple(rng.randrange(inn) for _ in range(ar))
                    for _ in range(rng.randint(1, 3))]
            irels.append((sym, tuple(sorted(set(tups)))))
        inst = Structure(sig, inn, tuple(irels))
        if len(build_sa(inst, template, 3).variables) <= SA3_VAR_CAP:
            return inst, template


@pytest.fixture(scope="module")
def chain_data():
    """100 random pairs with hom / SA-k / k-strategy verdicts for k in 1..3."""
    rng = random.Random(2026)
    out = []
    for _ in range(100):
        inst, temp = random_pair(rng)
        hom = hom_search(inst, temp) is not None
        per_k = {}
        sa2_point = None
        for k in (1, 2, 3):
            verdict = solve_sa(inst, temp, k)
            per_k[k] = (verdict.feasible, leq_k(inst, temp, k))
            if k == 2 and verdict.feasible:
                sa2_point = verdict.point
        out.append((inst, temp, hom, per_k, sa2_point))
    return out


def test_criterion_01_implication_chain(chain_data):
    violations = 0
    for inst, temp, hom, per_k, _ in chain_data:
        for k in (1, 2, 3):
            sa_ok, strat_ok = per_k[k]
            if hom and not sa_ok:
                violations += 1
            if sa_ok and not strat_ok:
                violations += 1
    record(1, violations == 0,
           "100 pairs x k in {1,2,3}, %d violations" % violations)


def test_criterion_02_k2_width3_completeness():
    k2 = complete_graph(2)
    atlas = [g for g in nx.graph_atlas_g()
             if g.number_of_nodes() == 7 and nx.is_connected(g)]
    assert len(atlas) == 853
    mismatches = 0
    for g in atlas:
        edges = set()
        for u, v in g.edges():
            edges.add((u, v))
            edges.add((v, u))
        s = Structure(k2.signature, 7, (("E", tuple(sorted(edges))),))
        if leq_k(s, k2, 3) != nx.is_bipartite(g):
            mismatches += 1
    record(2, mismatches == 0, "853 graphs, %d mismatches" % mismatches)


def test_criterion_03_template_classifier():
    bad = []
    for p in range(1, 7):
        for q in range(p, 7):
            verdict = classify(complete_graph(p), complete_graph(q)).verdict
            want = NO_SUBLINEAR_WIDTH if p >= 3 else INCONCLUSIVE
            if verdict != want:
                bad.append((p, q, verdict))
    r24 = classify(exactly_template(2, 4), nae_template(4)).verdict
    if r24 != NO_SUBLINEAR_WIDTH:
        bad.append(("2in4", r24))
    r12 = classify(exactly_template(1, 2), nae_template(2)).verdict
    if r12 != INCONCLUSIVE:
        bad.append(("1in2", r12))
    record(3, not bad, "clique table + 2-in-4 + 1-in-2, bad=%r" % bad)


def test_criterion_04_wnu_suite():
    e24, n4 = exactly_template(2, 4), nae_template(4)
    e13, n3 = exactly_template(1, 3), nae_template(3)
    ok = True
    for m in (3, 4, 5):
        f = majority_first_tiebreak(m)
        ok = ok and is_wnu(f) and is_polymorphism(f, e24, n4)
    for m in (3, 5):
        g = alternating_threshold(m)
        ok = ok and is_polymorphism(g, e13, n3)
        ok = ok and is_polymorphism(g, e24, n4)
    record(4, ok, "majority m=3,4,5 on 2-in-4; alternating m=3,5 on both")


# ---------------------------------------------------------------------------
# Criterion 5: exhaustive 1-in-3 instances up to variable renaming.  The
# 1-in-3 relation is invariant under coordinate permutations, so every
# constraint can be kept as a sorted triple; instances are generated by
# augmenting canonical forms and deduplicating.  Isolated variables never
# change either verdict, so instances are enumerated without them.

MAXV, MAXC = 5, 4


def _canonical(cons):
    used = sorted(set(x for t in cons for x in t))
    best = None
    for perm in permutations(range(len(used))):
        idx = {x: perm[i] for i, x in enumerate(used)}
        img = tuple(sorted(tuple(sorted(idx[x] for x in t)) for t in cons))
        if best is None or img < best:
            best = img
    return best


def enumerate_one_in_three_instances():
    level = {_canonical((t,)) for t in
             combinations_with_replacement(range(3), 3)}
    levels = [sorted(level)]
    for _ in range(2, MAXC + 1):
        nxt = set()
        for cons in level:
            u = len(set(x for t in cons for x in t))
            for t in combinations_with_replacement(range(min(MAXV, u + 3)), 3):
                if t not in cons:
                    nxt.add(_canonical(tuple(sorted(cons + (t,)))))
        level = nxt
        levels.append(sorted(level))
    return levels


def test_criterion_05_sa_width2_desk_scale():
    e13, n3 = exactly_template(1, 3), nae_template(3)
    levels = enumerate_one_in_three_instances()
    assert [len(l) for l in levels] == [3, 17, 101, 605]
    checked = feasible_count = violations = 0
    for lev in levels:
        for cons in lev:
            n = max(x for t in cons for x in t) + 1
            inst = Structure(e13.signature, n, (("R", tuple(cons)),))
            checked += 1
            if leq_sa(inst, e13, 2):
                feasible_count += 1
                if hom_search(inst, n3) is None:
                    violations += 1
    record(5, violations == 0,
           "%d canonical instances, %d SA2-feasible, %d violations"
           % (checked, feasible_count, violations))


def test_criterion_06_conditioning_identity(chain_data):
    done = bad = 0
    for inst, temp, _, _, point in chain_data:
        if point is None or done >= 50:
            continue
        sol = sa_solution(point)
        pick = None
        for v in range(inst.n):
            for b in range(temp.n):
                if sol.get(((v, b),), Fraction(0)) > 0:
                    pick = (v, b)
                    break
            if pick:
                break
        assert pick is not None
        cond = condition_on(sol, *pick)
        done += 1
        if cond[(pick,)] != 1 or not check_sa1(inst, temp, cond):
            bad += 1
    record(6, done >= 50 and bad == 0,
           "%d conditioned solutions, %d failures" % (done, bad))


# ---------------------------------------------------------------------------
# Criterion 7: probabilistic bounds

P1_GRID = [  # (r, n, q, d)
    (2, 12, 2, 8),
    (2, 14, 2, 10),
    (2, 14, 3, 14),
    (3, 10, 2, 80),
]
P2_GRID = [  # (r, n, d, alpha, beta)
    (2, 12, Fraction(1, 8), Fraction(1, 3), Fraction(3, 2)),
    (3, 12, Fraction(1, 2), Fraction(1, 2), Fraction(5, 4)),
]
SEEDS = 500


def _hom_target(r, q):
    if r == 2:
        return complete_graph(q)
    assert (r, q) == (3, 2)
    return nae_template(3)


def _dominates(bound, hits):
    phat = hits / SEEDS
    if bound >= 1:
        return True
    sigma = math.sqrt(bound * (1 - bound) / SEEDS)
    return phat <= bound + 3 * sigma


def test_criterion_07_probabilistic_bounds():
    ok = True
    notes = []
    for r, n, q, d in P1_GRID:
        target = _hom_target(r, q)
        sym, _ = target.signature.symbols[0]
        hits = 0
        for seed in range(SEEDS):
            raw = ri.sample_hypergraph(n, r, d, seed)
            inst = Structure(target.signature, n, ((sym, raw.rel("R")),))
            if hom_search(inst, target) is not None:
                hits += 1
        good = _dominates(float(ri.p1(r, d, n, q)), hits)
        ok = ok and good
        notes.append("p1(%d,%d,%d)%s" % (r, n, q, "" if good else "!"))
    for r, n, d, a, b in P2_GRID:
        hits = 0
        for seed in range(SEEDS):
            verdict = ri.is_alpha_beta_sparse(ri.sample_hypergraph(n, r, d, seed), a, b)
            assert verdict.exact
            if not verdict.sparse:
                hits += 1
        good = _dominates(float(ri.p2(r, d, n, a, b)), hits)
        ok = ok and good
        notes.append("p2(%d,%d)%s" % (r, n, "" if good else "!"))

    rng = random.Random(55)
    chern_bad = 0
    for _ in range(200):
        m = rng.randint(1, 40)
        gamma = Fraction(rng.randint(1, 19), 20)
        t = gamma + (1 - gamma) * Fraction(rng.randint(1, 10), 10)
        cb = float(ri.chernoff_bound(m, gamma, t))
        tail = ri.binomial_tail(m, gamma, t)
        if cb < float(tail) * (1 - 1e-12):
            chern_bad += 1
    ok = ok and chern_bad == 0
    record(7, ok, "%s; chernoff bad=%d over 200 triples"
           % (" ".join(notes), chern_bad))


# ---------------------------------------------------------------------------
# Criterion 8: boundary/consistency suite

def test_criterion_08_boundary_suite():
    notes = []
    ok = True

    e13 = exactly_template(1, 3)
    ps = ri.derive_parameters(3, 1, 3, 12, Fraction(1, 4))
    for name, n, tups in [
        ("matching", 12, ((0, 1, 2), (3, 4, 5), (6, 7, 8), (9, 10, 11))),
        ("loose-path", 7, ((0, 1, 2), (2, 3, 4), (4, 5, 6))),
    ]:
        j = Structure(e13.signature, n, (("R", tups),))
        m = len(tups)
        good = ri.density_premise_holds(j, 3, ps.delta, ps.c)
        fam = ri.find_boundary_sets(j, 3)
        good = good and len(fam) >= ps.delta * m
        good = good and all(ri.is_boundary_set(j, d, e13) for d, _, _ in fam)
        good = good and hom_search(j, e13) is not None
        good = good and compute_strategy(j, e13, ps.k) is not None
        ok = ok and good
        notes.append("%s:%d sets%s" % (name, len(fam), "" if good else "!"))

    psd = ri.derive_parameters(2, 1, 3, 12, Fraction(1, 4),
                               mode=ri.DIGRAPH, gamma=0)
    sig = Signature((("R", 2),))
    triangle = Structure(sig, 3, (("R", tuple(
        (a, b) for a in range(3) for b in range(3) if a != b)),))
    path = Structure(sig, 8, (("R", tuple((i, i + 1) for i in range(7))),))
    good = ri.density_premise_holds(path, 2, psd.delta, psd.c)
    fam = ri.find_boundary_sets(path, 2)
    good = good and len(fam) >= psd.delta_prime * 7
    good = good and all(ri.is_boundary_set(path, d, triangle)
                        for d, _, _ in fam)
    good = good and hom_search(path, triangle) is not None
    good = good and compute_strategy(path, triangle, psd.k) is not None
    ok = ok and good
    notes.append("digraph-path:%d sets%s" % (len(fam), "" if good else "!"))
    record(8, ok, "; ".join(notes))


def test_criterion_09_wigderson_bound():
    bad = total = 0
    for n, prob, reps in [(50, 0.15, 17), (100, 0.1, 17), (200, 0.06, 16)]:
        cap = 3 * math.ceil(math.sqrt(n))
        for seed in range(reps):
            g, classes = col.random_planted_graph(n, prob, seed)
            out = col.wigderson_color(g, col.planted_oracle(classes))
            total += 1
            if not col.validate_coloring(g, out) or out.palette > cap:
                bad += 1
    record(9, total == 50 and bad == 0, "%d graphs, %d failures" % (total, bad))


def test_criterion_10_generalized_coloring():
    sizes = [100, 150, 200, 250, 300, 350, 400, 450, 500, 120]
    runs = fallbacks = bad = 0
    for eps in (0.25, 0.3, 0.4):
        for i, n in enumerate(sizes):
            g, classes = col.random_planted_graph(
                n, 0.03, seed=1000 * i + int(eps * 100))
            runs += 1
            try:
                out, _ = col.generalized_color(g, eps, col.planted_oracle(classes))
            except col.ColoringAborted:
                fallbacks += 1
                continue
            if not col.validate_coloring(g, out):
                bad += 1
            if out.palette > col.color_recurrence_Q(n, eps):
                bad += 1
    record(10, runs == 30 and bad == 0,
           "%d runs, %d failures, fallback frequency %d/%d"
           % (runs, bad, fallbacks, runs))


def test_criterion_11_lp_engine():
    rng = random.Random(77)
    mismatches = certbad = nfeas = 0
    for _ in range(500):
        lp = RationalLP()
        nv = rng.randint(1, 5)
        for j in range(nv):
            lo = rng.randint(-3, 2)
            lp.add_variable("v%d" % j, lo, lo + rng.randint(0, 4))
        for _ in range(rng.randint(0, 8)):
            coeffs = {"v%d" % j: rng.randint(-3, 3) for j in range(nv)}
            lp.add_constraint(coeffs, rng.choice([LEQ, EQ, GEQ]),
                              Fraction(rng.randint(-6, 6)))
        a = feasible(lp)
        if a.feasible != feasible_by_basis_enumeration(lp).feasible:
            mismatches += 1
        if a.feasible:
            nfeas += 1
            if not check_point(lp, a.point):
                certbad += 1
    record(11, mismatches == 0 and certbad == 0,
           "500 LPs (%d feasible), %d verdict mismatches, %d bad certificates"
           % (nfeas, mismatches, certbad))


# ---------------------------------------------------------------------------
# Criterion 12: byte-identical outputs for every subcommand

def _run(argv):
    buf = io.StringIO()
    with contextlib.redirect_stdout(buf):
        code = cli.main(argv)
    return code, buf.getvalue()


def test_criterion_12_reproducibility(tmp_path):
    paths = {}
    for name, s in [("k2", complete_graph(2)), ("k3", complete_graph(3)),
                    ("c4", cycle(4)),
                    ("e24", exactly_template(2, 4)),
                    ("n4", nae_template(4))]:
        p = tmp_path / (name + ".struct")
        save_structure(s, str(p))
        paths[name] = str(p)
    g, classes = col.random_planted_graph(60, 0.1, seed=3)
    gp = tmp_path / "g.struct"
    save_structure(g, str(gp))
    pp = tmp_path / "planted.txt"
    pp.write_text("".join("%d %d\n" % (v, c)
                          for v, c in sorted(classes.items())))

    def commands(tag):
        d = tmp_path / tag
        d.mkdir()
        return [
            (["analyze", "--left", paths["e24"], "--right", paths["n4"],
              "--json"], []),
            (["consistency", "--instance", paths["c4"], "--template",
              paths["k2"], "--k", "2",
              "--emit-strategy", str(d / "strat.txt")], [d / "strat.txt"]),
            (["sa", "--instance", paths["c4"], "--template", paths["k2"],
              "--level", "2", "--certificate", str(d / "cert.txt")],
             [d / "cert.txt"]),
            (["polymorph", "--left", paths["e24"], "--right", paths["n4"],
              "--arity", "3", "--wnu", "--out", str(d / "wnu.op")],
             [d / "wnu.op"]),
            (["sample", "--n", "10", "--r", "2", "--d", "3", "--seed", "9",
              "--out", str(d / "sample.struct")], [d / "sample.struct"]),
            (["hard", "--left", paths["k3"], "--right", paths["k2"],
              "--n", "12", "--seed", "1", "--attempts", "30", "--d", "5",
              "--report", str(d / "hard.csv"),
              "--out", str(d / "hard.struct")], [d / "hard.csv"]),
            (["color", "--graph", str(gp), "--mode", "general",
              "--epsilon", "0.3", "--planted", str(pp),
              "--out", str(d / "col.txt"), "--trace", str(d / "trace.csv")],
             [d / "col.txt", d / "trace.csv"]),
            (["bench", "--left", paths["e24"], "--right", paths["n4"],
              "--nmin", "5", "--nmax", "7", "--step", "2", "--seeds", "2",
              "--k", "2", "--sa", "1", "--d", "2",
              "--out", str(d / "bench.csv")], [d / "bench.csv"]),
        ]

    first = commands("a")
    second = commands("b")
    diffs = 0
    for (argv1, files1), (argv2, files2) in zip(first, second):
        code1, out1 = _run(argv1)
        code2, out2 = _run(argv2)
        if code1 != code2 or out1 != out2:
            diffs += 1
            continue
        for f1, f2 in zip(files1, files2):
            if f1.read_bytes() != f2.read_bytes():
                diffs += 1
    record(12, diffs == 0, "8 subcommands re-run, %d output differences" % diffs)
