import hashlib
import itertools
import math
import random

import pytest
from hypothesis import given, settings, strategies as st

from pcsp.coloring import (
    Coloring,
    color_recurrence_Q,
    exact_oracle,
    generalized_color,
    list_two_color,
    make_graph,
    partition_baseline,
    planted_oracle,
    random_planted_graph,
    two_color,
    validate_coloring,
    wigderson_color,
)
from pcsp.errors import BudgetExceededError, PromiseViolationError


def cycle_graph(n):
    return make_graph(n, [(i, (i + 1) % n) for i in range(n)])


def bfs_two_color(n, edges):
    """Breadth-first bipartition, each component rooted at its smallest
    vertex with color 0; None when some component is odd."""
    adj = [[] for _ in range(n)]
    for u, v in edges:
        adj[u].append(v)
        adj[v].append(u)
    colors = {}
    for root in range(n):
        if root in colors:
            continue
        colors[root] = 0
        frontier = [root]
        while frontier:
            nxt = []
            for u in frontier:
                for w in adj[u]:
                    if w not in colors:
                        colors[w] = 1 - colors[u]
                        nxt.append(w)
                    elif colors[w] == colors[u]:
                        return None
            frontier = nxt
    return colors


@st.composite
def small_graphs(draw, n_max=8):
    n = draw(st.integers(0, n_max))
    pairs = list(itertools.combinations(range(n), 2))
    edges = draw(st.sets(st.sampled_from(pairs))) if pairs else set()
    return n, sorted(edges)


class TestTwoColor:
    def test_c4(self):
        col = two_color(cycle_graph(4))
        assert col is not None and validate_coloring(cycle_graph(4), col)
        assert col.palette == 2

    def test_c5_absent(self):
        assert two_color(cycle_graph(5)) is None

    def test_empty(self):
        g = make_graph(0, [])
        col = two_color(g)
        assert col.colors == {} and validate_coloring(g, col)

    def test_edgeless(self):
        g = make_graph(4, [])
        col = two_color(g)
        assert col is not None and col.palette == 1

    def test_matches_bipartite_check(self):
        rng = random.Random(5)
        for _ in range(30):
            n = rng.randint(1, 8)
            edges = set()
            for _ in range(rng.randint(0, 10)):
                a, b = rng.sample(range(n), 2) if n > 1 else (0, 0)
                if a != b:
                    edges.add((min(a, b), max(a, b)))
            g = make_graph(n, edges)
            col = two_color(g)
            brute = any(
                all(assign[u] != assign[v] for u, v in edges)
                for assign in itertools.product(range(2), repeat=n))
            assert (col is not None) == brute
            if col is not None:
                assert validate_coloring(g, col)

    @settings(max_examples=150, deadline=None)
    @given(small_graphs(n_max=12))
    def test_matches_independent_bfs(self, graph):
        n, edges = graph
        col = two_color(make_graph(n, edges))
        assert (None if col is None else col.colors) == bfs_two_color(n, edges)


class TestListTwoColor:
    def test_path_alternates(self):
        g = make_graph(3, [(0, 1), (1, 2)])
        col = list_two_color(g, {v: {0, 1} for v in range(3)})
        assert col is not None and validate_coloring(g, col)

    def test_triangle_two_lists_absent(self):
        g = cycle_graph(3)
        assert list_two_color(g, {v: {0, 1} for v in range(3)}) is None

    def test_consistent_singletons(self):
        g = make_graph(2, [(0, 1)])
        col = list_two_color(g, {0: {2}, 1: {0}})
        assert col.colors == {0: 2, 1: 0}

    def test_conflicting_singletons(self):
        g = make_graph(2, [(0, 1)])
        assert list_two_color(g, {0: {1}, 1: {1}}) is None

    def test_empty_list_absent(self):
        g = make_graph(2, [(0, 1)])
        assert list_two_color(g, {0: set(), 1: {0, 1}}) is None

    def test_first_trial_fails(self):
        # coloring 0 with 0 forces 1 and 2 onto color 2, and they are adjacent
        g = cycle_graph(3)
        col = list_two_color(g, {0: {0, 1}, 1: {0, 2}, 2: {0, 2}})
        assert col.colors == {0: 1, 1: 0, 2: 2}
        assert validate_coloring(g, col)

    @settings(max_examples=300, deadline=None)
    @given(st.data())
    def test_matches_brute_force(self, data):
        n, edges = data.draw(small_graphs())
        lists = {v: data.draw(st.sets(st.integers(0, 3), max_size=2))
                 for v in range(n)}
        col = list_two_color(make_graph(n, edges), lists)
        exists = any(all(a[u] != a[v] for u, v in edges)
                     for a in itertools.product(*(sorted(lists[v]) for v in range(n))))
        assert (col is not None) == exists
        if col is not None:
            assert all(col.colors[v] in lists[v] for v in range(n))
            assert all(col.colors[u] != col.colors[v] for u, v in edges)

    def test_oversized_list_rejected(self):
        g = make_graph(1, [])
        with pytest.raises(ValueError):
            list_two_color(g, {0: {0, 1, 2}})

    def test_matches_exhaustive(self):
        rng = random.Random(17)
        for _ in range(60):
            n = rng.randint(1, 7)
            edges = set()
            for _ in range(rng.randint(0, 9)):
                if n < 2:
                    break
                a, b = rng.sample(range(n), 2)
                edges.add((min(a, b), max(a, b)))
            g = make_graph(n, edges)
            lists = {v: set(rng.sample(range(3), rng.randint(1, 2)))
                     for v in range(n)}
            col = list_two_color(g, lists)
            brute = None
            for assign in itertools.product(range(3), repeat=n):
                if all(assign[v] in lists[v] for v in range(n)) and \
                        all(assign[u] != assign[v] for u, v in edges):
                    brute = assign
                    break
            assert (col is not None) == (brute is not None)
            if col is not None:
                assert validate_coloring(g, col)
                assert all(col.colors[v] in lists[v] for v in range(n))


class TestWigderson:
    def test_triangle(self):
        g = cycle_graph(3)
        col = wigderson_color(g)
        assert validate_coloring(g, col)
        assert col.palette <= 3 * 2

    def test_edgeless(self):
        g = make_graph(9, [])
        col = wigderson_color(g)
        assert validate_coloring(g, col)
        assert len(col.used()) == 1

    def test_planted_100(self):
        g, classes = random_planted_graph(100, 0.2, seed=8)
        col = wigderson_color(g, planted_oracle(classes))
        assert validate_coloring(g, col)
        assert col.palette <= 3 * math.ceil(math.sqrt(100))

    def test_planted_suite_palette_bound(self):
        for seed in range(10):
            n = 40 + 6 * seed
            g, classes = random_planted_graph(n, 0.3, seed=seed)
            col = wigderson_color(g, planted_oracle(classes))
            assert validate_coloring(g, col)
            t = math.isqrt(n)
            if t * t < n:
                t += 1
            assert col.palette <= 3 * t

    def test_exact_oracle_on_small_graphs(self):
        g, _ = random_planted_graph(30, 0.3, seed=3)
        col = wigderson_color(g, exact_oracle())
        assert validate_coloring(g, col)

    def test_promise_violation(self):
        # K5 is not 3-colorable; a degree-4 vertex forces the oracle path
        g = make_graph(5, [(i, j) for i, j in itertools.combinations(range(5), 2)])
        with pytest.raises(PromiseViolationError):
            wigderson_color(g, exact_oracle())

    def test_exhausted_budget_is_not_a_refusal(self):
        g, _ = random_planted_graph(20, 0.3, seed=3)
        with pytest.raises(BudgetExceededError):
            exact_oracle(budget=1)(g, range(g.n))
        # on K5 the oracle search is cut short before it can refuse
        k5 = make_graph(5, [(i, j) for i, j in itertools.combinations(range(5), 2)])
        with pytest.raises(BudgetExceededError):
            wigderson_color(k5, exact_oracle(budget=1))


def digest(items):
    h = hashlib.sha256()
    for item in items:
        h.update(repr(item).encode())
    return h.hexdigest()[:16]


class TestPinnedOutputs:
    """Digests of the outputs on criteria 9 and 10's graphs, recorded
    before list 2-coloring became unit propagation."""

    def test_wigderson_criterion_9(self):
        items = []
        for n, prob, reps in [(50, 0.15, 17), (100, 0.1, 17), (200, 0.06, 16)]:
            for seed in range(reps):
                g, classes = random_planted_graph(n, prob, seed)
                col = wigderson_color(g, planted_oracle(classes))
                items.append((sorted(col.colors.items()), col.palette))
        assert digest(items) == "a534cf9c96e38019"

    def test_generalized_criterion_10(self):
        items = []
        for eps in (0.25, 0.3, 0.4):
            for i, n in enumerate([100, 150, 200, 250, 300, 350, 400, 450, 500, 120]):
                g, classes = random_planted_graph(
                    n, 0.03, seed=1000 * i + int(eps * 100))
                col, trace = generalized_color(g, eps, planted_oracle(classes))
                assert validate_coloring(g, col)
                items.append((col.palette, [(t.level, t.case, t.m, t.x_size)
                                            for t in trace]))
        assert digest(items) == "4e3c42e1da10ce62"


class TestGeneralized:
    def test_planted_200(self):
        g, classes = random_planted_graph(200, 0.1, seed=1)
        col, trace = generalized_color(g, 0.3, planted_oracle(classes))
        assert validate_coloring(g, col)
        assert col.palette <= color_recurrence_Q(200, 0.3)
        assert trace and trace[-1].case in ("direct", "a", "b")

    def test_edgeless(self):
        g = make_graph(50, [])
        col, trace = generalized_color(g, 0.25, exact_oracle())
        assert validate_coloring(g, col)
        assert len(col.used()) <= 3

    def test_tiny_goes_direct(self):
        g, classes = random_planted_graph(20, 0.4, seed=2)
        col, trace = generalized_color(g, 0.45, planted_oracle(classes))
        assert validate_coloring(g, col)
        assert [t.case for t in trace] == ["direct"]
        assert col.palette <= 3

    def test_eps_out_of_range(self):
        g = make_graph(4, [])
        with pytest.raises(ValueError):
            generalized_color(g, 0.7, exact_oracle())

    def test_planted_sweep(self):
        for seed, eps in [(3, 0.25), (4, 0.3), (5, 0.4)]:
            n = 150
            g, classes = random_planted_graph(n, 0.08, seed=seed)
            col, trace = generalized_color(g, eps, planted_oracle(classes))
            assert validate_coloring(g, col)
            assert col.palette <= color_recurrence_Q(n, eps)

    def test_trace_cases_shrink_pool(self):
        g, classes = random_planted_graph(120, 0.15, seed=9)
        col, trace = generalized_color(g, 0.3, planted_oracle(classes))
        sizes = [t.m for t in trace]
        assert sizes == sorted(sizes, reverse=True)


class TestPartitionBaseline:
    def test_palette_bound_16(self):
        g, classes = random_planted_graph(16, 0.3, seed=6)
        col = partition_baseline(g, 0.5, planted_oracle(classes))
        assert validate_coloring(g, col)
        assert col.palette <= 3 * math.ceil(16 ** 0.5)

    def test_single_block(self):
        g, classes = random_planted_graph(8, 0.5, seed=7)
        col = partition_baseline(g, 0.01, planted_oracle(classes))
        assert validate_coloring(g, col)
        assert len(col.used()) <= 3

    def test_edgeless(self):
        g = make_graph(10, [])
        col = partition_baseline(g, 0.5, exact_oracle())
        assert validate_coloring(g, col)

    def test_bound_property(self):
        for n, eps in [(16, 0.5), (50, 0.3), (100, 0.25)]:
            g, classes = random_planted_graph(n, 0.2, seed=n)
            col = partition_baseline(g, eps, planted_oracle(classes))
            assert col.palette <= 3 * math.ceil(n ** eps)


class TestRecurrence:
    def test_base_case(self):
        # n <= C * n^(1-eps) iff n^eps <= C
        assert color_recurrence_Q(4, 0.49, 2) == 3

    def test_direct_iteration_c1(self):
        # C=1, eps=1/2: 16 -> 12 -> 9 -> 6 -> 4 -> 2 -> 1(base)
        m, steps = 16, 0
        while m > m ** 0.5:
            steps += 1
            m -= math.ceil(m ** 0.5)
        assert color_recurrence_Q(16, 0.499999, 1) <= 3 * (steps + 1)

    def test_monotone(self):
        vals = [color_recurrence_Q(n, 0.3, 2) for n in range(1, 300)]
        assert all(a <= b for a, b in zip(vals, vals[1:]))

    def test_invalid_args(self):
        with pytest.raises(ValueError):
            color_recurrence_Q(10, 0.6, 2)
        with pytest.raises(ValueError):
            color_recurrence_Q(10, 0.3, 0)


class TestValidate:
    def test_rejects_monochromatic_edge(self):
        g = make_graph(2, [(0, 1)])
        assert not validate_coloring(g, Coloring({0: 0, 1: 0}, 1))

    def test_rejects_partial(self):
        g = make_graph(2, [])
        assert not validate_coloring(g, Coloring({0: 0}, 1))

    def test_rejects_over_palette(self):
        g = make_graph(1, [])
        assert not validate_coloring(g, Coloring({0: 5}, 3))

    def test_empty_graph(self):
        assert validate_coloring(make_graph(0, []), Coloring({}, 0))


class TestGraphPlumbing:
    def test_loop_rejected(self):
        with pytest.raises(ValueError):
            make_graph(2, [(1, 1)])

    def test_symmetric_closure(self):
        g = make_graph(3, [(0, 1)])
        assert (1, 0) in g.relations[0][1]

    def test_planted_graph_is_three_colorable(self):
        g, classes = random_planted_graph(25, 0.4, seed=11)
        assert validate_coloring(
            g, Coloring(classes, max(classes.values()) + 1))

    def test_planted_deterministic(self):
        a = random_planted_graph(20, 0.3, seed=5)
        b = random_planted_graph(20, 0.3, seed=5)
        assert a[0] == b[0] and a[1] == b[1]
