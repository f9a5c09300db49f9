import math
from fractions import Fraction
from itertools import combinations

import pytest
from hypothesis import given, settings, strategies as st
from mpmath import iv, mp, mpf
from mpmath.libmp import to_rational

import pcsp.random_instances as ri
from pcsp.core import (
    Signature,
    Structure,
    complete_graph,
    cycle,
    exactly_template,
    hom_search,
)
from pcsp.random_instances import (
    DIGRAPH,
    GENERAL,
    binomial_tail,
    chernoff_bound,
    check_conditions,
    degrees,
    density_premise_holds,
    derive_parameters,
    find_boundary_sets,
    generate_hard_instance,
    hypergraph_signature,
    is_alpha_beta_sparse,
    is_boundary_set,
    SparsityVerdict,
    _geometric_ranks,
    _subsets_at,
    _upper,
    p1,
    p2,
    sample_hypergraph,
)

import random


def graph(n, edges):
    return Structure(hypergraph_signature(2), n, (("R", tuple(edges)),))


def reference_peel(struct, alpha, beta):
    """The peeling heuristic of is_alpha_beta_sparse as first written: an
    O(n) scan for each minimum-degree element (ties by element)."""
    alpha, beta = Fraction(alpha), Fraction(beta)
    n = struct.n
    vmax = min(n, int(alpha * n))
    degree = {x: 0 for x in range(n)}
    incident = {x: [] for x in range(n)}
    all_tuples = []
    for _, tups in struct.relations:
        for t in tups:
            all_tuples.append(set(t))
            for x in set(t):
                degree[x] += 1
                incident[x].append(len(all_tuples) - 1)
    live = set(x for x in range(n) if degree[x] > 0)
    alive = [True] * len(all_tuples)
    count = len(all_tuples)
    while live:
        v = len(live)
        if v <= vmax and count >= beta * v:
            return SparsityVerdict(False, tuple(sorted(live)), False)
        x = min(live, key=lambda y: (degree[y], y))
        live.discard(x)
        for ti in incident[x]:
            if alive[ti]:
                alive[ti] = False
                count -= 1
                for y in all_tuples[ti]:
                    if y in live:
                        degree[y] -= 1
    return SparsityVerdict(True, None, False)


@st.composite
def peel_inputs(draw):
    """Structures above the exact limit: random tuples (repeated elements
    allowed, one or two symbols), or circulant ones, which are regular and
    so tie every degree, each with some elements left isolated."""
    n = draw(st.integers(17, 48))
    r = draw(st.integers(2, 3))
    used = draw(st.integers(r, n))  # elements from `used` on stay isolated
    if draw(st.booleans()):
        shifts = draw(st.lists(st.integers(1, used - 1), min_size=r - 1,
                               max_size=r - 1, unique=True))
        width = draw(st.integers(1, 3))
        tups = tuple(sorted({tuple(sorted({(i + j * s) % used
                                            for s in [0] + shifts}))
                             for i in range(used) for j in range(1, width + 1)}))
        tups = tuple(t for t in tups if len(t) == r)
        sig, rels = hypergraph_signature(r), (("R", tups),)
    else:
        elem = st.integers(0, used - 1)
        sig = Signature((("R", r), ("S", 2)))
        rels = (("R", tuple(draw(st.lists(st.tuples(*[elem] * r), max_size=3 * n)))),
                ("S", tuple(draw(st.lists(st.tuples(elem, elem), max_size=n)))))
    alpha = Fraction(draw(st.integers(1, 8)), 8)
    beta = Fraction(draw(st.integers(1, 24)), 8)
    return Structure(sig, n, rels), alpha, beta


def clique(p):
    """K_p over the sampling signature (symbol R)."""
    tups = tuple((i, j) for i in range(p) for j in range(p) if i != j)
    return Structure(hypergraph_signature(2), p, (("R", tups),))


class TestSampling:
    def test_full_density_gives_all_edges(self):
        s = sample_hypergraph(5, 2, 5, seed=1)  # d = n^(r-1) -> prob 1
        assert len(s.rel("R")) == 10

    def test_probability_above_one_rejected(self):
        with pytest.raises(ValueError):
            sample_hypergraph(5, 2, 6, seed=1)

    def test_small_n_empty(self):
        s = sample_hypergraph(2, 3, 1, seed=0)
        assert s.rel("R") == ()

    def test_deterministic_under_seed(self):
        a = sample_hypergraph(10, 3, 4, seed=99)
        b = sample_hypergraph(10, 3, 4, seed=99)
        c = sample_hypergraph(10, 3, 4, seed=100)
        assert a == b
        assert a != c  # overwhelmingly likely for distinct seeds

    def test_tuples_ascending(self):
        s = sample_hypergraph(9, 3, 10, seed=5)
        for t in s.rel("R"):
            assert list(t) == sorted(t) and len(set(t)) == 3

    def test_empirical_mean_within_3_sigma(self):
        n, r, d = 8, 2, 2
        prob = d / n ** (r - 1)
        trials = 1000
        per_seed = math.comb(n, r)
        total = sum(len(sample_hypergraph(n, r, d, seed=s).rel("R"))
                    for s in range(trials))
        mean = trials * per_seed * prob
        sigma = math.sqrt(trials * per_seed * prob * (1 - prob))
        assert abs(total - mean) <= 3 * sigma

    def test_subsets_at_every_rank_is_the_combinations_order(self):
        for n in range(1, 10):
            for r in range(1, n + 1):
                assert list(_subsets_at(n, r, range(math.comb(n, r)))) == \
                    list(combinations(range(n), r)), (n, r)

    def test_geometric_ranks_stop_at_the_last_rank(self):
        class ZeroUniform:
            def random(self):
                return 0.0

        # a uniform of 0 skips nothing: every rank is kept, and none past the last
        assert list(_geometric_ranks(5, 0.5, ZeroUniform())) == [0, 1, 2, 3, 4]

    def test_subnormal_probability_keeps_nothing(self):
        # p is a nonzero subnormal float, so every skip overflows to infinity
        assert sample_hypergraph(10, 2, Fraction(1, 10 ** 320), 0).rel("R") == ()

    def test_zero_density_keeps_nothing(self):
        assert sample_hypergraph(10, 3, 0, 4).rel("R") == ()

    def test_probability_one_keeps_every_subset_in_order(self):
        s = sample_hypergraph(7, 3, 49, 2)
        assert s.rel("R") == tuple(combinations(range(7), 3))

    def test_n_equal_to_r(self):
        assert sample_hypergraph(4, 4, 64, 0).rel("R") == ((0, 1, 2, 3),)
        assert sample_hypergraph(4, 4, 0, 0).rel("R") == ()
        kept = [len(sample_hypergraph(4, 4, 32, s).rel("R")) for s in range(400)]
        assert set(kept) == {0, 1}
        assert abs(sum(kept) - 200) <= 5 * 10  # sigma = sqrt(400/4)

    def test_every_subset_kept_at_its_probability(self):
        # an off-by-one skip shows first at rank 0 or rank C(n, r) - 1
        n, r, d, trials = 8, 3, 6, 3000
        prob = d / n ** (r - 1)
        hits = dict.fromkeys(combinations(range(n), r), 0)
        for s in range(trials):
            for t in sample_hypergraph(n, r, d, s).rel("R"):
                hits[t] += 1
        sigma = math.sqrt(trials * prob * (1 - prob))
        assert max(abs(h - trials * prob) for h in hits.values()) <= 5 * sigma

    def test_paper_scale_sample(self):
        # the scan over all r-subsets would visit C(10^5, 3) = 1.7e14 of them
        n, r, d = 10 ** 5, 3, 2
        tups = sample_hypergraph(n, r, d, 0).rel("R")
        assert all(0 <= a < b < c < n for a, b, c in tups)
        assert all(s < t for s, t in zip(tups, tups[1:]))
        total, prob = math.comb(n, r), Fraction(d, n ** (r - 1))
        sigma = math.sqrt(total * prob * (1 - prob))
        assert abs(len(tups) - total * prob) <= 6 * sigma


class TestSparsity:
    def test_triangle_not_sparse(self):
        tri = graph(3, [(0, 1), (1, 2), (0, 2)])
        v = is_alpha_beta_sparse(tri, 1, 1)
        assert not v.sparse and v.exact
        assert len(v.witness) == 3

    def test_forest_is_sparse_at_beta_one(self):
        v = is_alpha_beta_sparse(graph(6, [(i, i + 1) for i in range(5)]), 1, 1)
        assert v.sparse and v.exact

    def test_single_edge_half_beta(self):
        v = is_alpha_beta_sparse(graph(2, [(0, 1)]), 1, Fraction(1, 2))
        assert not v.sparse and len(v.witness) == 2

    def test_witness_is_sound(self):
        rng = random.Random(7)
        for _ in range(25):
            n = rng.randint(3, 9)
            edges = set()
            for _ in range(rng.randint(0, 12)):
                a, b = rng.sample(range(n), 2)
                edges.add((min(a, b), max(a, b)))
            s = graph(n, sorted(edges))
            alpha = Fraction(rng.randint(1, 4), 4)
            beta = Fraction(rng.randint(1, 6), 4)
            v = is_alpha_beta_sparse(s, alpha, beta)
            assert v.exact
            if v.witness is not None:
                inside = sum(1 for e in s.rel("R")
                             if set(e) <= set(v.witness))
                assert inside >= beta * len(v.witness)
                assert len(v.witness) <= alpha * s.n

    def test_heuristic_finds_planted_blob(self):
        # K5 planted in 30 vertices: 10 edges on 5 elements >= 1.5 * 5
        edges = [(i, j) for i, j in combinations(range(5), 2)]
        edges += [(i, i + 1) for i in range(5, 29)]
        s = graph(30, edges)
        v = is_alpha_beta_sparse(s, Fraction(1, 2), Fraction(3, 2))
        assert not v.sparse and not v.exact
        inside = sum(1 for e in s.rel("R") if set(e) <= set(v.witness))
        assert inside >= Fraction(3, 2) * len(v.witness)

    def test_heuristic_sparse_answer_flagged_inexact(self):
        s = graph(30, [(i, i + 1) for i in range(29)])
        v = is_alpha_beta_sparse(s, 1, Fraction(3, 2))
        assert v.sparse and not v.exact

    @given(peel_inputs())
    @settings(max_examples=120, deadline=None)
    def test_heap_peel_matches_the_reference_peel(self, case):
        struct, alpha, beta = case
        assert is_alpha_beta_sparse(struct, alpha, beta) == \
            reference_peel(struct, alpha, beta)

    def test_peel_ties_break_by_element(self):
        # two 5-cycles and 11 isolated elements: every degree ties, so the
        # peel takes the cycle on 0..4 apart first and the other one is
        # the witness
        edges = [(i, (i + 1) % 5) for i in range(5)]
        edges += [(5 + i, 5 + (i + 1) % 5) for i in range(5)]
        s = graph(21, edges)
        v = is_alpha_beta_sparse(s, Fraction(1, 4), 1)
        assert v == reference_peel(s, Fraction(1, 4), 1)
        assert v == SparsityVerdict(False, (5, 6, 7, 8, 9), False)


class TestProbabilityBounds:
    def test_p1_matches_two_to_minus_n_at_recipe_d(self):
        r, q, n = 2, 3, 10
        d = r ** r * q ** (r - 1) * math.log(2 * q)
        val = p1(r, d, n, q)
        assert abs(val - mpf(2) ** (-n)) < mpf(2) ** (-n) * mpf("1e-10")

    def test_p1_single_element_target(self):
        assert abs(p1(2, 4, 3, 1) - mpf(math.exp(-3))) < 1e-12

    def test_p2_empty_sum(self):
        assert p2(2, 1, 10, Fraction(1, 100), 1) == 0

    def test_p2_single_term_is_the_base(self):
        r, d, n, beta = 2, 2, 10, Fraction(3, 2)
        got = p2(r, d, n, Fraction(1, 10), beta)
        b = float(beta)
        want = ((n / 1) ** (1 - (r - 1) * b) * d ** b
                * math.exp(1 + (r + 1) * b) * r ** (-r * b) * b ** (-b))
        assert abs(float(got) - want) < 1e-9 * want
        assert float(got) >= want * (1 - 1e-12)  # rounded up

    def test_p2_below_half_when_base_below_third(self):
        # r=3, beta=1, d=1, n=100: base(v) = (v/n) * e^5/27 stays < 1/3
        # up to v = alpha*n, so the sum is beaten by a geometric series
        r, d, n, alpha, beta = 3, 1, 100, Fraction(1, 20), 1
        for v in range(1, 6):
            base = (v / n) ** ((r - 1) * 1 - 1) * d * math.exp(5) * 3 ** -3
            assert base < 1 / 3
        assert p2(r, d, n, alpha, beta) < mpf("0.5")

    def test_p2_pinned_on_the_recipe_shapes(self):
        # the d, alpha and beta of derive_parameters(3, 1, 2, 100, 1/4)
        # and of derive_parameters(2, 1, 3, 500, 1/4)
        d3 = mpf((2633898417819761, -44))
        assert p2(3, d3, 100, Fraction(800, 41), Fraction(41, 80))._mpf_ == \
            (0, 2459233311030531, 12178, 52)
        d2 = mpf((3026012729232385, -47))
        assert p2(2, d2, 500, Fraction(441, 88), Fraction(22, 21))._mpf_ == \
            (0, 7238385189329075, 21388, 53)

    @pytest.mark.parametrize("r, d, n, alpha, beta", [
        (3, Fraction(150), 20, Fraction(800, 41), Fraction(41, 80)),
        (2, Fraction(43, 2), 50, Fraction(441, 88), Fraction(22, 21)),
        (2, 3, 60, Fraction(1, 2), 2),
    ])
    def test_p2_sums_the_intervals_of_the_formula(self, monkeypatch,
                                                    r, d, n, alpha, beta):
        # the sum p2 rounds up is the interval the formula gives term by term
        d_, beta_ = ri._ivnum(d), ri._ivnum(beta)
        want = iv.mpf(0)
        for v in range(1, int(Fraction(alpha) * n) + 1):
            base = ((iv.mpf(n) / v) ** (1 - (r - 1) * beta_)
                    * d_ ** beta_
                    * iv.exp(1 + (r + 1) * beta_)
                    * iv.mpf(r) ** (-r * beta_)
                    * beta_ ** (-beta_))
            want += base ** v
        seen = []
        monkeypatch.setattr(ri, "_upper", lambda x: seen.append(x) or _upper(x))
        p2(r, d, n, alpha, beta)
        assert seen[-1]._mpi_ == want._mpi_

    def test_p2_monotone_in_d(self):
        assert p2(2, 3, 12, Fraction(1, 2), 2) <= p2(2, 4, 12, Fraction(1, 2), 2)

    def test_chernoff_value(self):
        assert abs(chernoff_bound(4, Fraction(1, 2), 1)
                   - mpf(math.e / 2) ** 4) < 1e-10

    def test_upper_end_is_rounded_up(self):
        third = _upper(iv.mpf(1) / 3)
        with mp.workprec(256):
            assert third > mpf(1) / 3

    def test_bounds_are_not_below_their_exact_values(self):
        # the exact values at 256 bits; a bound rounded to nearest falls
        # below about half of them
        for m in range(1, 8):
            for g, t in combinations(range(1, 6), 2):
                gamma, tt = Fraction(g, 5), Fraction(t, 5)
                with mp.workprec(256):
                    exact = (mp.e * g / t) ** (mpf(t * m) / 5)
                assert chernoff_bound(m, gamma, tt) >= exact
        for n in range(1, 8):
            for q in range(1, 4):
                with mp.workprec(256):
                    exact = mpf(q) ** n * mp.exp(mpf(-n) / q)
                assert p1(2, 4, n, q) >= exact

    def test_chernoff_rejects_boundary(self):
        with pytest.raises(ValueError):
            chernoff_bound(5, Fraction(1, 2), Fraction(1, 2))
        with pytest.raises(ValueError):
            chernoff_bound(5, Fraction(1, 2), Fraction(3, 2))

    def test_chernoff_dominates_exact_tail(self):
        rng = random.Random(11)
        for _ in range(200):
            m = rng.randint(1, 20)
            gamma = Fraction(rng.randint(1, 9), 10)
            t = gamma + Fraction(rng.randint(1, 10), 10) * (1 - gamma)
            if t > 1:
                t = Fraction(1)
            if t <= gamma:
                continue
            exact = binomial_tail(m, gamma, t)
            assert chernoff_bound(m, gamma, t) >= mpf(exact.numerator) / exact.denominator


class TestParameters:
    def test_general_r2_delta(self):
        ps = derive_parameters(2, 1, 3, 100, Fraction(1, 10))
        assert ps.delta == Fraction(1, 21)
        assert ps.beta == 1 + Fraction(1, 21)
        assert abs(float(ps.d) - 4 * 3 * math.log(6)) < 1e-9
        assert ps.alpha == Fraction(1, 10) * 1 / (ps.delta * ps.beta)
        assert ps.k == 10 and ps.c == Fraction(10, 1) / ps.delta

    def test_digraph_delta_prime(self):
        ps = derive_parameters(2, 1, 3, 100, Fraction(1, 20),
                               mode=DIGRAPH, gamma=Fraction(1, 10),
                               delta=Fraction(1, 10))
        assert ps.delta_prime == Fraction(4, 33)
        assert ps.beta == Fraction(11, 10)
        assert ps.forced_delta

    def test_digraph_infeasible_gamma(self):
        with pytest.raises(ValueError):
            derive_parameters(2, 1, 3, 100, Fraction(1, 4),
                              mode=DIGRAPH, gamma=Fraction(1, 2))

    def test_digraph_default_delta_in_range(self):
        ps = derive_parameters(2, 2, 4, 200, Fraction(1, 20),
                               mode=DIGRAPH, gamma=Fraction(1, 10))
        delta0 = Fraction(1, 20) / (1 - Fraction(1, 20) - Fraction(1, 10))
        assert delta0 < ps.delta < Fraction(1, 2)
        assert not ps.forced_delta
        assert ps.conditions["C1'"]

    @pytest.mark.parametrize("q", [2, 3, 4, 5])
    @pytest.mark.parametrize("eps", [Fraction(1, 20), Fraction(1, 10),
                                     Fraction(1, 5)])
    def test_digraph_alpha_is_rounded_down(self, q, eps):
        # alpha may not exceed the exact rational of the lower end of the
        # recipe's interval (C/d)^((1+delta)/delta), recomputed here
        ps = derive_parameters(2, 1, q, 100, eps, mode=DIGRAPH)
        delta = iv.mpf(ps.delta.numerator) / ps.delta.denominator
        d = iv.mpf(ps.d)
        c = ((1 + delta) * iv.mpf(4) ** (delta / (1 + delta))
             * iv.exp((-4 - 3 * delta) / (1 + delta)))
        lower_end = ((c / d) ** ((1 + delta) / delta)).a
        assert 0 < ps.alpha <= Fraction(*to_rational(lower_end._mpi_[0]))

    def test_conditions_small_n(self):
        ps = derive_parameters(2, 1, 3, 2, Fraction(1, 2))
        cond = check_conditions(ps)
        assert not cond["C5"]  # n below q
        assert not cond["C6"]  # d > n^(r-1)

    def test_forced_delta_flagged(self):
        ps = derive_parameters(2, 1, 3, 100, Fraction(1, 10),
                               delta=Fraction(1, 5))
        assert ps.forced_delta
        assert not ps.conditions["C1"]  # above the supported bound

    @pytest.mark.parametrize("mode", [GENERAL, DIGRAPH])
    def test_given_d_replaces_only_the_density(self, mode):
        from dataclasses import replace

        recipe = derive_parameters(2, 1, 3, 40, Fraction(1, 10), mode=mode)
        given = derive_parameters(2, 1, 3, 40, Fraction(1, 10), mode=mode,
                                  d=Fraction(1, 2))
        want = replace(recipe, d=Fraction(1, 2))
        assert given == replace(want, conditions=check_conditions(want))
        assert not given.conditions["C6"] and recipe.conditions["C6"]

    def test_conditions_keys_by_mode(self):
        g = derive_parameters(2, 1, 2, 50, Fraction(1, 10))
        assert set(g.conditions) == {"C1", "C2", "C3", "C4", "C5", "C6", "C7"}
        d = derive_parameters(2, 1, 2, 50, Fraction(1, 10),
                              mode=DIGRAPH, gamma=0)
        assert set(d.conditions) == {"C1'", "C2", "C3", "C4'", "C5", "C6", "C7"}


class TestBoundarySets:
    def test_single_tuple_type_one(self):
        s = Structure(hypergraph_signature(3), 3, (("R", ((0, 1, 2),)),))
        fam = find_boundary_sets(s, 3)
        assert len(fam) == 1
        d_set, tag, wit = fam[0]
        assert tag == 1 and len(d_set) == 2

    def test_path_of_length_two_r2(self):
        s = graph(3, [(0, 1), (1, 2)])
        assert degrees(s) == {0: 1, 1: 2, 2: 1}
        fam = find_boundary_sets(s, 2)
        # endpoints are two disjoint type-(1) singletons; the middle
        # vertex is a type-(2) singleton disjoint from both
        assert len(fam) == 3
        tags = sorted(tag for _, tag, _ in fam)
        assert tags == [1, 1, 2]

    def test_empty_structure(self):
        s = graph(4, [])
        assert find_boundary_sets(s, 2) == []

    def test_r3_type_two(self):
        s = Structure(hypergraph_signature(3), 5,
                      (("R", ((0, 1, 2), (2, 3, 4))),))
        from pcsp.random_instances import _boundary_candidates

        # a type-(2) candidate {x, y, 2} exists, but the two type-(1)
        # sets {0,1} and {3,4} are disjoint and win the selection
        cands = _boundary_candidates(s, 3)
        assert any(tag == 2 and 2 in d for d, tag, _ in cands)
        fam = find_boundary_sets(s, 3)
        assert sorted(tuple(sorted(d)) for d, _, _ in fam) == [(0, 1), (3, 4)]
        for (a, _, _), (b, _, _) in combinations(fam, 2):
            assert not (a & b)

    def test_candidates_are_boundary_sets_for_k3(self):
        rng = random.Random(21)
        template = clique(3)
        for _ in range(20):
            s = sample_hypergraph(8, 2, 2, seed=rng.randrange(10 ** 6))
            for d_set, _, _ in find_boundary_sets(s, 2):
                assert is_boundary_set(s, d_set, template)

    def test_candidates_are_boundary_sets_for_one_in_three(self):
        template = exactly_template(1, 3)
        rng = random.Random(22)
        for _ in range(15):
            s = sample_hypergraph(9, 3, 6, seed=rng.randrange(10 ** 6))
            for d_set, _, _ in find_boundary_sets(s, 3):
                assert is_boundary_set(s, d_set, template)

    def test_isolated_element_is_boundary_set(self):
        s = graph(3, [(0, 1)])
        assert is_boundary_set(s, {2}, clique(3))

    def test_odd_cycle_middle_vertex_not_boundary_for_k2(self):
        # removing one vertex of C5 leaves a path, which is 2-colorable,
        # but no coloring extends back to the odd cycle
        assert not is_boundary_set(cycle(5), {0}, complete_graph(2))

    def test_empty_set_rejected(self):
        with pytest.raises(ValueError):
            is_boundary_set(cycle(3), set(), complete_graph(3))


class TestDensityPremise:
    def test_sparse_instance_passes(self):
        s = graph(6, [(0, 1), (2, 3), (4, 5)])
        assert density_premise_holds(s, 2, Fraction(1, 21), 3)

    def test_k4_fails(self):
        # 6 tuples span only 4 elements; need > 6/(1+delta) > 5
        k4 = graph(4, list(combinations(range(4), 2)))
        assert not density_premise_holds(k4, 2, Fraction(1, 21), 6)
        assert density_premise_holds(k4, 2, Fraction(1, 21), 2)


class TestGenerateHardInstance:
    def test_zero_budget(self):
        ps = derive_parameters(2, 1, 2, 10, Fraction(1, 5))
        inst, diag = generate_hard_instance(
            clique(3), clique(2), 10, ps, seed=1, attempts=0)
        assert inst is None and diag["tried"] == 0

    def test_trivial_target_side(self):
        # K_1 without loop admits no homomorphic image of any edge
        k1 = Structure(hypergraph_signature(2), 1, (("R", ()),))
        ps = derive_parameters(2, 1, 2, 12, Fraction(1, 5))
        inst, diag = generate_hard_instance(
            clique(3), k1, 12, ps, seed=3, attempts=30)
        if inst is not None:
            assert hom_search(inst, k1) is None

    def test_accepted_instance_properties(self):
        ps = derive_parameters(2, 1, 2, 12, Fraction(1, 4),
                               delta=Fraction(1, 21))
        # use a denser d than the recipe so non-2-colorable samples appear
        from dataclasses import replace

        ps = replace(ps, d=Fraction(5), alpha=Fraction(1, 2),
                     beta=Fraction(5, 2))
        inst, diag = generate_hard_instance(
            clique(3), clique(2), 12, ps, seed=7, attempts=200)
        assert inst is not None
        assert hom_search(inst, clique(2)) is None
        v = is_alpha_beta_sparse(inst, ps.alpha, ps.beta)
        assert v.sparse and v.exact
        assert diag["attempts"][-1]["reason"] == "ok"
        assert all(r["reason"] in ("ok", "hom", "dense")
                   for r in diag["attempts"])

    def test_deterministic(self):
        ps = derive_parameters(2, 1, 2, 10, Fraction(1, 5))
        from dataclasses import replace

        ps = replace(ps, d=Fraction(4), alpha=Fraction(1, 2),
                     beta=Fraction(5, 2))
        a = generate_hard_instance(clique(3), clique(2), 10, ps,
                                   seed=42, attempts=50)
        b = generate_hard_instance(clique(3), clique(2), 10, ps,
                                   seed=42, attempts=50)
        assert a[0] == b[0] and a[1] == b[1]
