import hashlib
import random
from fractions import Fraction as F

import pytest
from hypothesis import given, settings, strategies as st

from pcsp.consistency import compute_strategy, is_strategy, leq_k
from pcsp.core import (
    Signature,
    Structure,
    complete_graph,
    cycle,
    exactly_template,
    hom_search,
)
from pcsp.errors import BudgetExceededError
from pcsp.ratlp import feasible
from pcsp.sherali_adams import (
    build_sa,
    check_sa1,
    condition_on,
    format_certificate,
    leq_sa,
    sa_solution,
    solve_sa,
    strategy_from_solution,
)

SIG2 = Signature((("E", 2),))
EDGE = Structure(SIG2, 2, (("E", ((0, 1),)),), "edge")


def random_pair(rng, n_max=4, tn_max=3, tuples=3):
    n = rng.randint(1, n_max)
    ar = rng.randint(1, 3)
    sig = Signature((("R", ar),))
    inst = Structure(sig, n, (("R", tuple(
        tuple(rng.randrange(n) for _ in range(ar))
        for _ in range(rng.randint(1, tuples)))),))
    tn = rng.randint(1, tn_max)
    tmpl = Structure(sig, tn, (("R", tuple(
        tuple(rng.randrange(tn) for _ in range(ar))
        for _ in range(rng.randint(1, 4)))),))
    return inst, tmpl


class TestBuild:
    def test_level1_variable_count_no_tuples(self):
        inst = Structure(SIG2, 1, (("E", ()),))
        lp = build_sa(inst, complete_graph(3), 1)
        # empty map plus three singletons; no tuples, hence no lambdas
        assert len(lp.variables) == 4

    def test_single_edge_uniform_solution(self):
        v = solve_sa(EDGE, complete_graph(2), 1)
        assert v.feasible
        lp = build_sa(EDGE, complete_graph(2), 1)
        # the uniform 1/2 point must also be accepted
        for key in list(lp.variables):
            if key[0] == "x" and key[1]:
                lp.add_constraint({key: 1}, "=", F(1, 2))
        assert feasible(lp).feasible

    def test_empty_template_relation_infeasible(self):
        tmpl = Structure(SIG2, 2, (("E", ()),))
        assert not leq_sa(EDGE, tmpl, 1)

    def test_bad_level(self):
        with pytest.raises(ValueError):
            build_sa(EDGE, complete_graph(2), 0)

    def test_budget(self):
        with pytest.raises(BudgetExceededError):
            build_sa(cycle(12), complete_graph(3), 4, budget=100)


class TestLeqSA:
    def test_hom_implies_feasible(self):
        assert leq_sa(cycle(6), complete_graph(2), 2)

    def test_c5_vs_k2_level3_infeasible(self):
        assert not leq_sa(cycle(5), complete_graph(2), 3)

    def test_c4_vs_k2_level2_feasible(self):
        assert leq_sa(cycle(4), complete_graph(2), 2)

    def test_chain_on_random_pairs(self):
        rng = random.Random(99)
        for _ in range(8):
            inst, tmpl = random_pair(rng)
            for k in (1, 2):
                hom = hom_search(inst, tmpl) is not None
                sa = leq_sa(inst, tmpl, k)
                strat = leq_k(inst, tmpl, k)
                if hom:
                    assert sa
                if sa:
                    assert strat

    def test_monotone_in_level(self):
        rng = random.Random(5)
        for _ in range(6):
            inst, tmpl = random_pair(rng, n_max=3)
            if leq_sa(inst, tmpl, 2):
                assert leq_sa(inst, tmpl, 1)
            if leq_sa(inst, tmpl, 3):
                assert leq_sa(inst, tmpl, 2)

    @given(st.data())
    @settings(max_examples=40, deadline=None)
    def test_support_is_strategy(self, data):
        # the nonzero support of a feasible point is closed and extendible,
        # so it lies inside the maximal k-strategy
        ar = data.draw(st.integers(1, 3))
        sig = Signature((("R", ar),))

        def structure(n, min_size, max_size):
            tups = data.draw(st.lists(st.tuples(*[st.integers(0, n - 1)] * ar),
                                      min_size=min_size, max_size=max_size))
            return Structure(sig, n, (("R", tuple(tups)),))

        inst = structure(data.draw(st.integers(1, 4)), 1, 3)
        tmpl = structure(data.draw(st.integers(1, 3)), 1, 4)
        k = data.draw(st.integers(1, 2))
        v = solve_sa(inst, tmpl, k)
        if v.feasible:
            support = strategy_from_solution(sa_solution(v.point))
            assert is_strategy(support, inst, tmpl, k)
            assert set(support) <= set(compute_strategy(inst, tmpl, k))


class TestConditioning:
    def test_zero_probability_rejected(self):
        v = solve_sa(EDGE, complete_graph(2), 2)
        sol = sa_solution(v.point)
        good = next(b for b in (0, 1) if sol.get(((0, b),), 0) > 0)
        with pytest.raises(ValueError):
            condition_on(sol, 0, 1 - good)

    def test_conditioning_pins_value_and_stays_feasible(self):
        v = solve_sa(EDGE, complete_graph(2), 2)
        sol = sa_solution(v.point)
        b = next(b for b in (0, 1) if sol.get(((0, b),), 0) > 0)
        cond = condition_on(sol, 0, b)
        assert cond[((0, b),)] == 1
        assert check_sa1(EDGE, complete_graph(2), cond)

    def test_marginal_sums_preserved(self):
        v = solve_sa(cycle(4), complete_graph(2), 2)
        sol = sa_solution(v.point)
        b = next(b for b in (0, 1) if sol.get(((0, b),), 0) > 0)
        cond = condition_on(sol, 0, b)
        for u in range(4):
            assert cond[((u, 0),)] + cond[((u, 1),)] == 1

    def test_integral_point_conditions_to_itself(self):
        # build the 0/1 level-2 point from a homomorphism of C_4 to K_2
        h = hom_search(cycle(4), complete_graph(2))
        lp = build_sa(cycle(4), complete_graph(2), 2)
        homs = [key[1] for key in lp.variables if key[0] == "x"]
        sol = {f: F(1) if all(h[e] == a for e, a in f) else F(0) for f in homs}
        cond = condition_on(sol, 0, h[0])
        for u in range(4):
            assert cond[((u, h[u]),)] == 1


class TestCertificate:
    def test_format_is_parseable(self):
        v = solve_sa(EDGE, complete_graph(2), 1)
        text = format_certificate(v.point)
        for line in text.strip().splitlines():
            name, val = line.split(" = ")
            F(val)  # parses as an exact rational
        assert "x[]" in text


E13 = exactly_template(1, 3)
FANO = Structure(E13.signature, 7, (("R", (
    (0, 1, 3), (1, 2, 4), (2, 3, 5), (3, 4, 6), (4, 5, 0), (5, 6, 1), (6, 0, 2))),))
TRIPLES = Structure(E13.signature, 6, (("R", (
    (0, 1, 2), (1, 3, 4), (2, 4, 5), (0, 3, 5))),))


def sha(text):
    return hashlib.sha256(text.encode()).hexdigest()


def rows_in_order(lp):
    """The rows with each row's coefficients in insertion order, which
    ``dump`` sorts away but the pivot path depends on."""
    return "\n".join(" ".join("%s*%s" % (c, key) for key, c in coeffs.items())
                     + " %s %s" % (rel, rhs) for coeffs, rel, rhs in lp.constraints)


class TestPinnedLP:
    """The LP, its point and its refutation, byte for byte: a change to
    ``build_sa`` that reorders variables, rows or coefficients shows here."""

    @pytest.mark.parametrize("inst, tmpl, k, dump, rows, cert", [
        (cycle(4), complete_graph(2), 2,
         "b405c2bc4c6fe2a8e5be210fbcea0e305e8d1ba1db808278ccb70cdcdc7a5457",
         "a24650d189efd3c17728d0870df480e12013952190cb92bdeb8fe6c03f9f625d",
         "a8d4dd3319387f665ef59c5d72694b1460a438b3b5c7cb460dfc37c75752bd96"),
        (cycle(6), complete_graph(2), 2,
         "d9d15bbe02e9e473c2bcc90ce8644c799e0ed558e270c368760720cdbfe8befa",
         "f882559bfb26b134f6e0f02ede491fa705383e0ee22def854ba997aa7db9b88e",
         "a813c5d2304ee10718beb04679be377624836539fd96b18ac04d459bb18adbaf"),
        (cycle(4), complete_graph(3), 2,
         "1c95fe6a209271df3b483afcffe6fb1d24b4aa65a42ab85a3ccf9004b305a76e",
         "098466ec81ffe73017e82886c5cebf0f751aaa687846167a56c629390609166a",
         "6f68e2a385df085f1e8d9f397728827b3652481febf8c623f7c9e2ccbfa8e914"),
        (TRIPLES, E13, 3,
         "d5dc8bb2dc5c8ecf5a8d65621f7a8bc6bd069a5d0b9256149ef9f5e74288737f",
         "57c8f0feb3abe09c0bc94ece0ad97662e2c16be0e272a91d8ebc102d2564c021",
         "3a3c35de8b523f8fdc6f444e557be67cd2c8420dcea9876637520a5072b56f80"),
    ])
    def test_feasible(self, inst, tmpl, k, dump, rows, cert):
        lp = build_sa(inst, tmpl, k)
        assert (sha(lp.dump()), sha(rows_in_order(lp))) == (dump, rows)
        assert sha(format_certificate(solve_sa(inst, tmpl, k).point)) == cert

    def test_fano_refutation(self):
        lp = build_sa(FANO, E13, 2)
        assert (sha(lp.dump()), sha(rows_in_order(lp))) == (
            "249c8fdbfa5f20443d72814a6c3bbdb9bcfb3f25307f1f9032c35f3f4f8e390a",
            "e67ceb1117dd2f3712e51c5e5df7821b4bb2173d6abf00fe0aa0abe37128d9c0")
        refutation = solve_sa(FANO, E13, 2).refutation
        assert len(refutation) == 297 and refutation[:5] == (186, 310, 300, 221, 191)
        assert sha(repr(refutation)) == \
            "667731cfa6c6d4264eb4bd913322ec7ea99ae29da50b516dea8f67cd7b98643d"
