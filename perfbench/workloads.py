"""The benchmark's three seeded workloads and the exact check behind each query.

Every input is generated here from the workload seed with the benchmark's own
random generator; pcsp only receives finished structures and LPs.  The one
exception is the sample slice of ``hard-color``, which times pcsp's own
sampler and hands its output only to ``is_alpha_beta_sparse``.  Keeping the
other inputs benchmark-owned means a change to what a sampler seed produces
cannot reshuffle the cost of unrelated slices.

A query is one user-level call.  ``Query.run`` is the timed part; it calls
pcsp's public functions inside tracer spans.  ``Query.check`` runs after
it, outside the timed region, re-checks the result exactly and returns the
verdict token that goes into the run's digest (or None for a verdict that
depends on pcsp's sampler and so is not a fixed function of the seed).
"""

import hashlib
import math
import random
from dataclasses import dataclass
from fractions import Fraction
from typing import Callable, Optional

from pcsp import coloring, consistency, ratlp, sherali_adams
from pcsp import random_instances as ri
from pcsp.core import (
    GRAPH_SIG,
    Structure,
    complete_graph,
    exactly_template,
    hom_search,
    is_homomorphism,
    nae_template,
)

WORKLOADS = ("sa-lp", "strategy", "hard-color")


class CheckFailed(Exception):
    """A query's result failed its exact re-check."""


@dataclass
class Query:
    kind: str
    run: Callable
    check: Callable
    token: Optional[str] = None  # the verdict of its first issue


def rng_for(seed, *path):
    """An independent generator for one named part of a workload."""
    h = hashlib.sha256(repr((int(seed),) + path).encode()).digest()
    return random.Random(int.from_bytes(h[:8], "big"))


# the golden ratio's and square roots' of square-free numbers (but 5)
# fractional parts: with 1 they are linearly independent over the
# rationals, and each has a periodic continued fraction, so every sequence
# below is evenly spread on its own and any two are evenly spread jointly
STRIDES = ((math.sqrt(5) - 1) / 2,) + tuple(
    math.sqrt(k) % 1.0 for k in (2, 3, 6, 7, 10, 11, 13, 14, 15, 17, 19, 21, 22, 23))


class Spread:
    """Input sizes spread evenly over their ranges in every run.

    The i-th draw of a named size is the i-th point of a Kronecker sequence
    (start plus i times a stride, modulo 1) with a seed-derived start, so
    any run of consecutive rounds covers each range nearly uniformly; this
    keeps per-run averages steady across seeds while the instances
    themselves stay random.  Each name gets its own stride: with one stride
    for all, two sizes drawn with the same index (an instance's n and its
    number of constraints) would move in lockstep, shifted by the
    difference of their starts, and so would pair the same way throughout
    a run, differently for each seed.
    """

    def __init__(self, seed, workload):
        self.seed = seed
        self.workload = workload
        self.starts = {}

    def __call__(self, name, i, lo, hi):
        if name not in self.starts:
            start = rng_for(self.seed, self.workload, "spread", name).random()
            self.starts[name] = (start, STRIDES[len(self.starts) % len(STRIDES)])
        start, stride = self.starts[name]
        u = (start + i * stride) % 1.0
        return lo + min(hi - lo, int(u * (hi - lo + 1)))


def require(cond, message):
    if not cond:
        raise CheckFailed(message)


# ---------------------------------------------------------------------------
# Templates and benchmark-owned generators

ONE_IN_THREE = exactly_template(1, 3)
NAE3 = nae_template(3)
K2 = complete_graph(2)
K3 = complete_graph(3)


def hypergraph(rng, n, m):
    """m distinct 3-subsets of range(n), as a structure over the R symbol."""
    triples = set()
    while len(triples) < m:
        triples.add(tuple(sorted(rng.sample(range(n), 3))))
    return Structure(ONE_IN_THREE.signature, n, (("R", tuple(triples)),))


def _graph(n, edges):
    sym = [(u, v) for u, v in edges] + [(v, u) for u, v in edges]
    return Structure(GRAPH_SIG, n, (("E", tuple(sym)),))


def random_graph(rng, n, m):
    edges = set()
    while len(edges) < m:
        u, v = rng.sample(range(n), 2)
        edges.add((min(u, v), max(u, v)))
    return _graph(n, edges)


def bipartite_graph(rng, n, m):
    """m random edges across a random split of range(n)."""
    side = [rng.randrange(2) for _ in range(n)]
    side[0], side[1] = 0, 1
    left = [v for v in range(n) if side[v] == 0]
    right = [v for v in range(n) if side[v] == 1]
    m = min(m, len(left) * len(right))
    edges = set()
    while len(edges) < m:
        u, v = rng.choice(left), rng.choice(right)
        edges.add((min(u, v), max(u, v)))
    return _graph(n, edges)


def odd_graph(rng, n, m):
    """A random graph with m edges that is not bipartite."""
    while True:
        g = random_graph(rng, n, m)
        if not is_bipartite(g):
            return g


def planted_graph(rng, n, p):
    """A 3-colorable graph: each pair across a random 3-partition is an edge
    with probability p."""
    cls = [rng.randrange(3) for _ in range(n)]
    edges = [(u, v) for u in range(n) for v in range(u + 1, n)
             if cls[u] != cls[v] and rng.random() < p]
    return coloring.make_graph(n, edges)


# ---------------------------------------------------------------------------
# Independent reference solvers (used only by the checks)


def is_bipartite(g):
    adj = [[] for _ in range(g.n)]
    for u, v in g.rel("E"):
        adj[u].append(v)
    side = [-1] * g.n
    for s in range(g.n):
        if side[s] >= 0:
            continue
        side[s] = 0
        queue = [s]
        for u in queue:
            for v in adj[u]:
                if side[v] < 0:
                    side[v] = 1 - side[u]
                    queue.append(v)
                elif side[v] == side[u]:
                    return False
    return True


def one_in_three_solution(inst):
    """A 0/1 assignment with exactly one 1 in every triple, or None."""
    n = inst.n
    by_max = [[] for _ in range(n)]
    for t in inst.rel("R"):
        by_max[max(t)].append(t)
    assign = [0] * n

    def ok(x):
        return all(assign[a] + assign[b] + assign[c] == 1 for a, b, c in by_max[x])

    def extend(x):
        if x == n:
            return True
        for val in (0, 1):
            assign[x] = val
            if ok(x) and extend(x + 1):
                return True
        return False

    return tuple(assign) if extend(0) else None


def tuples_within(struct, subset):
    inside = set(subset)
    return sum(1 for _, tups in struct.relations for t in tups
               if all(x in inside for x in t))


# ---------------------------------------------------------------------------
# sa-lp: Sherali-Adams systems and general LPs through the exact simplex


def lp_nonzeros(lp):
    return sum(len(coeffs) for coeffs, _, _ in lp.constraints)


class SaLevels:
    """Verdicts per (instance, level), to check SA-(k+1) feasible => SA-k feasible."""

    def __init__(self):
        self.seen = {}

    def record(self, key, k, feasible):
        self.seen[(key, k)] = feasible
        for lo, hi in ((k - 1, k), (k, k + 1)):
            if (key, lo) in self.seen and (key, hi) in self.seen:
                require(self.seen[(key, lo)] or not self.seen[(key, hi)],
                        "SA-%d feasible but SA-%d infeasible" % (hi, lo))


def sa_query(inst, solution, key, k, levels):
    """SA level k for 1-in-3 on inst; ``solution`` is the reference 1-in-3
    assignment of inst, or None when it has none."""

    def run(tr):
        with tr.span("sherali_adams.build_sa", level=k) as sp:
            lp = sherali_adams.build_sa(inst, ONE_IN_THREE, k)
        if tr.on:
            sp.note(lp_vars=len(lp.variables), lp_rows=len(lp.constraints),
                    lp_nonzeros=lp_nonzeros(lp))
        with tr.span("ratlp.feasible", kind="sa") as sp:
            verdict = ratlp.feasible(lp)
        sp.note(feasible=verdict.feasible)
        return lp, verdict

    def check(result):
        lp, verdict = result
        if verdict.feasible:
            require(ratlp.check_point(lp, verdict.point), "SA point fails a constraint")
        if solution is not None:
            require(is_homomorphism(solution, inst, ONE_IN_THREE),
                    "reference 1-in-3 solution is not a homomorphism")
            require(verdict.feasible, "homomorphism exists but SA-%d is infeasible" % k)
        levels.record(key, k, verdict.feasible)
        return "sa%d:%s" % (k, "F" if verdict.feasible else "I")

    return Query("sa%d" % k, run, check)


def general_lp(rng, nvars, feasible):
    """A random LP with free and bounded variables and <=, =, >= rows.

    Feasible systems are built around a planted rational point.  Infeasible
    ones add a row demanding that a positive combination of <=-rows exceed
    its bound by one, so infeasibility holds by construction.
    """
    lp = ratlp.RationalLP()
    point = {}
    for j in range(nvars):
        if rng.random() < 0.25:
            lp.add_variable(j)
            point[j] = Fraction(rng.randint(-6, 6), rng.randint(1, 3))
        else:
            hi = rng.choice((None, 4, 8))
            lp.add_variable(j, 0, hi)
            point[j] = Fraction(rng.randint(0, 4 * (hi or 4)), 4)
    rows = []
    for _ in range(rng.randint(nvars * 2 // 3, nvars)):
        coeffs = {j: rng.choice((-3, -2, -1, 1, 2, 3))
                  for j in rng.sample(range(nvars), rng.randint(2, 6))}
        value = sum(c * point[j] for j, c in coeffs.items())
        rel = rng.choice((ratlp.LEQ, ratlp.EQ, ratlp.GEQ))
        slack = rng.randint(0, 3)
        rhs = value + slack if rel == ratlp.LEQ else value - slack if rel == ratlp.GEQ else value
        lp.add_constraint(coeffs, rel, rhs)
        # every row in <= form, for the Farkas construction below
        sign = -1 if rel == ratlp.GEQ else 1
        rows.append(({j: sign * c for j, c in coeffs.items()}, sign * rhs))
    if not feasible:
        combo, bound = {}, Fraction(0)
        for coeffs, rhs in rng.sample(rows, min(3, len(rows))):
            w = rng.randint(1, 3)
            for j, c in coeffs.items():
                combo[j] = combo.get(j, 0) + w * c
            bound += w * rhs
        lp.add_constraint(combo, ratlp.GEQ, bound + 1)
    return lp


def general_query(lp, expected):
    def run(tr):
        with tr.span("ratlp.feasible", kind="general") as sp:
            verdict = ratlp.feasible(lp)
        sp.note(feasible=verdict.feasible)
        return verdict

    def check(verdict):
        require(verdict.feasible == expected,
                "general LP verdict %s, planted %s" % (verdict.feasible, expected))
        if verdict.feasible:
            require(ratlp.check_point(lp, verdict.point), "LP point fails a constraint")
        return "lp:%s" % ("F" if verdict.feasible else "I")

    return Query("general", run, check)


SIZES = {
    "full": {
        "sa2_n": (5, 6, 7, 8), "sa3_n": 5, "sa1_n": (9, 20), "lp_vars": (20, 40),
        "k3_graph_n": (8, 10, 12, 14, 16), "hyper_n": (8, 11, 14), "k4_graph_n": (8, 9, 10),
        "sample3_n": (100, 250), "sample2_n": (500, 2000),
        "bounds3_n": (100, 200), "bounds2_n": (500, 1000),
        "k2_n": (32, 38), "k3_n": (30, 33), "nae_n": (24, 30), "color_n": (40, 150),
    },
    "smoke": {
        "sa2_n": (4, 5), "sa3_n": 4, "sa1_n": (6, 8), "lp_vars": (8, 12),
        "k3_graph_n": (5, 6), "hyper_n": (5, 6), "k4_graph_n": (5,),
        "sample3_n": (20, 30), "sample2_n": (60, 100),
        "bounds3_n": (20, 30), "bounds2_n": (40, 60),
        "k2_n": (10, 12), "k3_n": (10, 12), "nae_n": (8, 10), "color_n": (15, 25),
    },
}


def one_in_three_instance(rng, n, m, satisfiable):
    """A random instance with m triples, drawn until it is (or is not)
    1-in-3 satisfiable, with its reference solution."""
    for _ in range(1000):
        inst = hypergraph(rng, n, m)
        sol = one_in_three_solution(inst)
        if (sol is not None) == satisfiable:
            break
    return inst, sol


def sa_lp_round(rng, pick, size, levels, rid):
    """One fixed mix: SA-2 at each size, satisfiable and unsatisfiable
    instances alternating by size and round; SA-3 and SA-1 on the smallest
    and largest SA-2 instances (for the level implication); SA-1 at larger
    n, every fourth instance satisfiable (about the share among random
    instances of these sizes, but fixed, since satisfiable ones cost half
    as much); and planted general LPs, feasible and infeasible alternating.

    Of the twenty queries, six are general LPs, nine SA-1 and five
    SA-2/SA-3, so the median falls inside the SA-1 group.  The top tenth
    is SA-2 at n=8 and one of the next two (SA-2 at n=7 and SA-3 at n=5,
    of similar cost), so the 90th percentile falls in the middle of that
    pair's costs, not on the edge between two groups.
    """
    heavy = []
    for i, n in enumerate(size["sa2_n"]):
        key = "r%d-n%d" % (rid, n)
        inst, sol = one_in_three_instance(rng, n, pick("sa2-m%d" % n, rid, n - 1, n),
                                          (i + rid) % 2 == 0)
        heavy.append(sa_query(inst, sol, key, 2, levels))
        if n == size["sa3_n"]:
            heavy.append(sa_query(inst, sol, key, 3, levels))
        if n == size["sa2_n"][-1]:
            heavy.append(sa_query(inst, sol, key, 1, levels))
    sa1 = []
    for j in range(8):
        i = 8 * rid + j
        n = pick("sa1-n", i, *size["sa1_n"])
        inst, sol = one_in_three_instance(rng, n, pick("sa1-m", i, n - 2, n), i % 4 == 0)
        sa1.append(sa_query(inst, sol, "r%d-s%d" % (rid, j), 1, levels))
    general = []
    for j in range(6):
        feasible = (j + rid) % 2 == 0
        lp = general_lp(rng, pick("lp-vars", 6 * rid + j, *size["lp_vars"]), feasible)
        general.append(general_query(lp, feasible))
    return _interleave(general, heavy, sa1)


# ---------------------------------------------------------------------------
# strategy: the k-strategy fixed point


def map_space(n, t, k):
    return sum(math.comb(n, i) * t ** i for i in range(min(k, n) + 1))


def strategy_query(inst, template, k, bipartite=None, solution=None):
    """compute_strategy at k.  Against K2, ``bipartite`` is the instance's
    BFS verdict; against 1-in-3, ``solution`` is its reference assignment
    or None."""

    def run(tr):
        with tr.span("consistency.compute_strategy", k=k) as sp:
            family = consistency.compute_strategy(inst, template, k)
        if tr.on:
            sp.note(accepted=family is not None, maps_kept=len(family or ()),
                    map_space=map_space(inst.n, template.n, k))
        return family

    def check(family):
        if family is not None:
            require(consistency.is_strategy(family, inst, template, k),
                    "returned family is not a %d-strategy" % k)
        if bipartite is not None:
            require((family is not None) == bipartite,
                    "leq_%d against K2 disagrees with bipartiteness" % k)
        if solution is not None:
            require(is_homomorphism(solution, inst, template),
                    "reference 1-in-3 solution is not a homomorphism")
            require(family is not None, "homomorphism exists but no %d-strategy" % k)
        return "k%d:%s" % (k, "R" if family is None else "A%d" % len(family))

    return Query("k%d-%s" % (k, "graph" if bipartite is not None else "hyper"), run, check)


def strategy_round(rng, pick, size, rid):
    """Graphs against K2 (half bipartite) at k=3 and k=4, and 3-uniform
    hypergraphs against 1-in-3 at k=2 and k=3, some with more triples than
    vertices so that some are rejected."""
    graphs = []
    for i, n in enumerate(size["k3_graph_n"]):
        bip = (i + rid) % 2 == 0
        gen = bipartite_graph if bip else odd_graph
        graphs.append(strategy_query(gen(rng, n, round(1.2 * n)), K2, 3, bip))
    hypers = []
    for k in (2, 3):
        for n in size["hyper_n"]:
            inst = hypergraph(rng, n, pick("hyper-m%d-%d" % (k, n), rid, n, 3 * n // 2))
            hypers.append(strategy_query(inst, ONE_IN_THREE, k,
                                         solution=one_in_three_solution(inst)))
    wide = []
    for i, n in enumerate(size["k4_graph_n"]):
        bip = (i + rid) % 2 == 1
        gen = bipartite_graph if bip else odd_graph
        wide.append(strategy_query(gen(rng, n, round(1.2 * n)), K2, 4, bip))
    return _interleave(graphs, hypers, wide)


# ---------------------------------------------------------------------------
# hard-color: sampler and sparsity, parameter bounds, refutation, coloring

SPARSITY = {3: (Fraction(1, 2), Fraction(41, 80)), 2: (Fraction(1, 2), Fraction(22, 21))}
EPS = Fraction(1, 4)
COLOR_EPS = 0.3


def sample_query(n, r, d, seed):
    alpha, beta = SPARSITY[r]

    def run(tr):
        with tr.span("random_instances.sample_hypergraph", r=r) as sp:
            inst = ri.sample_hypergraph(n, r, d, seed)
        sp.note(edges=len(inst.rel("R")))
        with tr.span("random_instances.is_alpha_beta_sparse") as sp:
            verdict = ri.is_alpha_beta_sparse(inst, alpha, beta)
        sp.note(exact=verdict.exact)
        return inst, verdict

    def check(result):
        inst, verdict = result
        p = d / n ** (r - 1)
        mean = math.comb(n, r) * p
        sigma = math.sqrt(mean * (1 - p))
        require(abs(len(inst.rel("R")) - mean) <= 6 * sigma,
                "sampled %d edges, expected %.1f +- 6*%.1f" % (len(inst.rel("R")), mean, sigma))
        if not verdict.sparse:
            w = verdict.witness
            require(w is not None and len(w) <= alpha * n, "bad not-sparse witness size")
            require(tuples_within(inst, w) >= beta * len(w), "not-sparse witness recount fails")
        return None  # depends on pcsp's sampler, not only on the seed

    return Query("sample-r%d" % r, run, check)


def bounds_query(r, q, n):
    def run(tr):
        with tr.span("random_instances.derive_parameters", r=r):
            return ri.derive_parameters(r, 1, q, n, EPS)

    def check(ps):
        delta = Fraction(1, (r + 1) * (3 * r + 1))
        beta = (1 + delta) / (r - 1)
        k = max(1, math.floor(EPS * n))
        require((ps.delta, ps.beta, ps.k) == (delta, beta, k), "recipe delta/beta/k differ")
        require(ps.alpha == EPS / (delta * beta) and ps.c == Fraction(k) / delta,
                "recipe alpha/c differ")
        require(set(ps.conditions) == {"C1", "C2", "C3", "C4", "C5", "C6", "C7"}
                and all(isinstance(v, bool) for v in ps.conditions.values()),
                "unexpected condition set")
        return "bounds:" + "".join("%s=%d" % kv for kv in sorted(ps.conditions.items()))

    return Query("bounds-r%d" % r, run, check)


def refute_query(inst, template, label, bipartite=None):
    def run(tr):
        with tr.span("core.hom_search", template=label) as sp:
            h = hom_search(inst, template)
        sp.note(found=h is not None)
        return h

    def check(h):
        if h is not None:
            require(is_homomorphism(h, inst, template), "witness is not a homomorphism")
        if bipartite is not None:
            require((h is not None) == bipartite, "K2 search disagrees with bipartiteness")
        return "hom-%s:%s" % (label, "H" if h is not None else "N")

    return Query("refute-" + label, run, check)


def traced_oracle(tr, inner):
    """The oracle callback the benchmark hands to pcsp.coloring, in a span."""

    def answer(g, subset):
        with tr.span("coloring.oracle", vertices=len(subset)) as sp:
            h = inner(g, subset)
        sp.note(refused=h is None)
        return h

    return answer


def color_query(g, algo):
    n = g.n

    def run(tr):
        oracle = traced_oracle(tr, coloring.exact_oracle())
        with tr.span("coloring.color", algo=algo) as sp:
            if algo == "wigderson":
                return coloring.wigderson_color(g, oracle)
            if algo == "general":
                col, levels = coloring.generalized_color(g, COLOR_EPS, oracle)
                sp.note(levels=len(levels))
                return col
            return coloring.partition_baseline(g, COLOR_EPS, oracle)

    def check(col):
        require(coloring.validate_coloring(g, col), "%s coloring is not proper" % algo)
        if algo == "wigderson":
            bound = 3 * (math.isqrt(n - 1) + 1)  # 3 * ceil(sqrt(n))
        elif algo == "general":
            bound = coloring.color_recurrence_Q(n, COLOR_EPS)
        else:
            bound = 3 * math.ceil(n / math.ceil(n ** (1 - COLOR_EPS)))
        require(col.palette <= bound, "%s palette %d > %d" % (algo, col.palette, bound))
        return "color-%s:ok" % algo

    return Query("color-" + algo, run, check)


def hard_color_round(rng, pick, size, rid):
    """One sample with its sparsity check (r=3 and r=2 in turn), eighteen
    refutation searches against K2, K3 and NAE-3, one run of each coloring
    algorithm, and in every eighth round one parameter derivation (r=3/q=2
    and r=2/q=3 in turn; about a second each).

    The refutation searches make up three quarters of the queries, and
    their cost varies widely from instance to instance, so the sizes stay
    where one search takes milliseconds to tens of milliseconds: a run then
    holds several hundred of them, and the median, which falls inside that
    group, is steady from seed to seed.
    """
    half = rid // 2
    if rid % 2 == 0:
        samples = [sample_query(pick("sample3-n", half, *size["sample3_n"]), 3,
                                (2, 4)[half % 2], rng.getrandbits(32))]
    else:
        samples = [sample_query(pick("sample2-n", half, *size["sample2_n"]), 2,
                                (1, 2, 3)[half % 3], rng.getrandbits(32))]
    bounds = []
    if rid % 16 == 0:
        bounds.append(bounds_query(3, 2, pick("bounds3-n", rid // 16, *size["bounds3_n"])))
    elif rid % 16 == 8:
        bounds.append(bounds_query(2, 3, pick("bounds2-n", rid // 16, *size["bounds2_n"])))
    refute = []
    for j in range(6):
        i = 6 * rid + j
        n = pick("k2-n", i, *size["k2_n"])
        g = random_graph(rng, n, pick("k2-m", i, round(0.8 * n), round(0.9 * n)))
        refute.append(refute_query(g, K2, "K2", is_bipartite(g)))
        n = pick("k3-n", i, *size["k3_n"])
        refute.append(refute_query(random_graph(rng, n, 3 * n), K3, "K3"))
        n = pick("nae-n", i, *size["nae_n"])
        refute.append(refute_query(hypergraph(rng, n, 3 * n), NAE3, "NAE3"))
    colors = []
    for j, algo in enumerate(("wigderson", "general", "baseline")):
        n = pick("color-n", 3 * rid + j, *size["color_n"])
        density = pick("color-p", 3 * rid + j, 30, 50) / 100
        colors.append(color_query(planted_graph(rng, n, density), algo))
    return _interleave(refute, samples + colors, bounds)


# ---------------------------------------------------------------------------


def _interleave(*groups):
    """Spread the groups evenly over one round, so that a run that stops
    mid-round still sees every kind of query in proportion."""
    keyed = []
    for gi, g in enumerate(groups):
        for i, q in enumerate(g):
            keyed.append(((i + 0.5) / len(g), gi, q))
    keyed.sort(key=lambda x: (x[0], x[1]))
    return [q for _, _, q in keyed]


def build(workload, seed, scale, rounds, part="timed", between=None):
    """The query pool: ``rounds`` fixed mixes, each drawn from its own stream.
    ``between``, if given, is called after each round."""
    size = SIZES[scale]
    levels = SaLevels()
    pick = Spread(seed, "%s/%s/%s" % (workload, scale, part))
    pool = []
    for rid in range(rounds):
        rng = rng_for(seed, workload, scale, part, rid)
        if workload == "sa-lp":
            pool += sa_lp_round(rng, pick, size, levels, rid)
        elif workload == "strategy":
            pool += strategy_round(rng, pick, size, rid)
        elif workload == "hard-color":
            pool += hard_color_round(rng, pick, size, rid)
        else:
            raise ValueError("unknown workload %r" % workload)
        if between is not None:
            between()
    return pool
