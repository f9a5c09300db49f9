import hashlib
import random
from fractions import Fraction as F
from math import lcm

import pytest
from hypothesis import given, settings, strategies as st
from lp_oracle import feasible_by_basis_enumeration

from pcsp import ratlp
from pcsp.core import Structure, exactly_template
from pcsp.errors import PcspError
from pcsp.ratlp import RationalLP, check_point, check_refutation, feasible
from pcsp.sherali_adams import build_sa


def random_lp(rng, n_vars=4, n_cons=6, bounded=True):
    lp = RationalLP()
    nv = rng.randint(1, n_vars)
    for i in range(nv):
        if bounded:
            lp.add_variable(i, F(rng.randint(-3, 0)), F(rng.randint(1, 4)))
        else:
            lp.add_variable(i, F(0))
    for _ in range(rng.randint(1, n_cons)):
        coeffs = {i: F(rng.randint(-3, 3)) for i in range(nv)}
        rel = rng.choice(["<=", "=", ">="])
        lp.add_constraint(coeffs, rel, F(rng.randint(-4, 4)))
    return lp


class TestBasics:
    def test_contradictory_bounds(self):
        lp = RationalLP()
        lp.add_variable("x")
        lp.add_constraint({"x": 1}, ">=", 1)
        lp.add_constraint({"x": 1}, "<=", 0)
        assert not feasible(lp).feasible

    def test_simplex_vertex(self):
        lp = RationalLP()
        lp.add_variable("x1", 0)
        lp.add_variable("x2", 0)
        lp.add_constraint({"x1": 1, "x2": 1}, "=", 1)
        v = feasible(lp)
        assert v.feasible
        assert v.point["x1"] + v.point["x2"] == 1
        assert check_point(lp, v.point)

    def test_free_variable(self):
        lp = RationalLP()
        lp.add_variable("x")
        lp.add_constraint({"x": 1}, "<=", -5)
        v = feasible(lp)
        assert v.feasible and v.point["x"] <= -5

    def test_empty_lp(self):
        lp = RationalLP()
        lp.add_variable("x", 0, 1)
        assert feasible(lp).feasible

    def test_failed_point_check_raises_pcsp_error(self, monkeypatch):
        # the verdict check must not be an assert, which python -O strips
        monkeypatch.setattr(ratlp, "check_point", lambda lp, point: False)
        lp = RationalLP()
        lp.add_variable("x", 0, 1)
        with pytest.raises(PcspError, match="internal error"):
            feasible(lp)

    def test_fractional_point_is_exact(self):
        lp = RationalLP()
        lp.add_variable("x", 0, 1)
        lp.add_constraint({"x": 3}, "=", 1)
        v = feasible(lp)
        assert v.point["x"] == F(1, 3)

    def test_unknown_variable_rejected(self):
        lp = RationalLP()
        lp.add_variable("x")
        with pytest.raises(ValueError):
            lp.add_constraint({"y": 1}, "<=", 0)

    def test_dump_is_text(self):
        lp = RationalLP()
        lp.add_variable("x", 0, 1)
        lp.add_constraint({"x": 2}, "<=", 1)
        assert "2*x <= 1" in lp.dump()


class TestOracleAgreement:
    def test_random_lps(self):
        rng = random.Random(2024)
        for _ in range(150):
            lp = random_lp(rng, n_vars=5, n_cons=8)
            got = feasible(lp)
            want = feasible_by_basis_enumeration(lp)
            assert got.feasible == want.feasible
            if got.feasible:
                assert check_point(lp, got.point)

    def test_scaling_invariance(self):
        rng = random.Random(7)
        for _ in range(50):
            lp = random_lp(rng)
            scaled = RationalLP()
            for key in lp.variables:
                scaled.add_variable(key, lp.lower.get(key), lp.upper.get(key))
            for coeffs, rel, rhs in lp.constraints:
                s = F(rng.randint(1, 5), rng.randint(1, 5))
                scaled.add_constraint({k: c * s for k, c in coeffs.items()}, rel, rhs * s)
            assert feasible(lp).feasible == feasible(scaled).feasible

    def test_variable_reordering_invariance(self):
        rng = random.Random(11)
        for _ in range(50):
            lp = random_lp(rng)
            perm = list(lp.variables)
            rng.shuffle(perm)
            relp = RationalLP()
            for key in perm:
                relp.add_variable(key, lp.lower.get(key), lp.upper.get(key))
            for coeffs, rel, rhs in lp.constraints:
                relp.add_constraint(coeffs, rel, rhs)
            assert feasible(lp).feasible == feasible(relp).feasible


class TestDegenerate:
    def test_highly_degenerate_system(self):
        # many redundant equalities through the origin
        lp = RationalLP()
        for i in range(4):
            lp.add_variable(i, 0, 1)
        for i in range(4):
            for j in range(i + 1, 4):
                lp.add_constraint({i: 1, j: -1}, "=", 0)
        lp.add_constraint({i: 1 for i in range(4)}, ">=", 2)
        v = feasible(lp)
        assert v.feasible
        assert len(set(v.point.values())) == 1


class TestPinnedPath:
    """Exact points of fixed LPs: a change to the pivot rule shows here."""

    def test_sa2_one_in_three_point(self):
        e13 = exactly_template(1, 3)
        inst = Structure(e13.signature, 4, (("R", ((0, 1, 2), (1, 2, 3))),))
        lp = build_sa(inst, e13, 2)
        v = feasible(lp)
        assert v.feasible
        # the vertex of the homomorphism 0, 1, 3 -> 0 and 2 -> 1
        support = {
            ("x", ()), ("x", ((0, 0),)), ("x", ((1, 0),)), ("x", ((2, 1),)),
            ("x", ((3, 0),)), ("x", ((0, 0), (1, 0))), ("x", ((0, 0), (2, 1))),
            ("x", ((0, 0), (3, 0))), ("x", ((1, 0), (2, 1))),
            ("x", ((1, 0), (3, 0))), ("x", ((2, 1), (3, 0))),
        }
        for f in ((), ((0, 0),), ((1, 0),), ((2, 1),), ((3, 0),)):
            support.add(("lam", f, "R", (0, 1, 2), (0, 0, 1)))
            support.add(("lam", f, "R", (1, 2, 3), (0, 1, 0)))
        assert v.point == {k: F(int(k in support)) for k in lp.variables}

    def test_general_lp_point(self):
        lp = RationalLP()
        lp.add_variable("a")
        lp.add_variable("b")
        lp.add_variable("c", 0, 5)
        lp.add_variable("d", -2, 3)
        lp.add_constraint({"a": 2, "b": -1, "c": 1}, "=", F(7, 2))
        lp.add_constraint({"a": 1, "d": 3}, ">=", 4)
        lp.add_constraint({"b": 1, "c": -2, "d": 1}, "<=", -1)
        lp.add_constraint({"a": -1, "b": 1}, ">=", F(-5, 3))
        v = feasible(lp)
        assert v.point == {"a": F(14, 11), "b": F(0), "c": F(21, 22), "d": F(10, 11)}

    def test_fractional_rows_point(self):
        # the per-row scale that makes a row integer weighs the rows summed
        # into the phase-I objective, so it decides the entering column:
        # fractional coefficients, a lower bound that shifts its rows, a
        # free variable, an upper bound, >= rows and a row that the shift
        # makes negative, so that it is flipped
        lp = RationalLP()
        lp.add_variable("x", -2, 3)
        lp.add_variable("y")
        lp.add_variable("z", 0)
        lp.add_constraint({"x": F(1, 2), "y": F(-2, 3), "z": 1}, ">=", F(1, 3))
        lp.add_constraint({"y": F(3, 4), "z": F(-1, 3)}, ">=", F(1, 2))
        lp.add_constraint({"x": F(-2, 3), "z": 2}, "<=", F(4, 3))
        lp.add_constraint({"x": -1, "y": 2}, "=", 0)
        v = feasible(lp)
        assert v.point == {"x": F(44, 31), "y": F(22, 31), "z": F(3, 31)}

    def test_redundant_zero_rows_leave_an_artificial_basic(self):
        # the four x = y rows are dependent, so three of them keep their
        # artificial basic at value 0 to the end of phase I
        lp = RationalLP()
        for key in "xyz":
            lp.add_variable(key, 0)
        for _ in range(3):
            lp.add_constraint({"x": 1, "y": -1}, "=", 0)
        lp.add_constraint({"x": 2, "y": -2}, "=", 0)
        lp.add_constraint({"y": 1, "z": -1}, "=", 0)
        lp.add_constraint({"x": 1, "y": 1, "z": 1}, ">=", 3)
        v = feasible(lp)
        assert v.feasible and check_point(lp, v.point)


def seeded_pool():
    """SA-1 and SA-2 systems of small 1-in-3 instances, then general LPs
    with fractional coefficients, bounds and right-hand sides."""
    rng = random.Random(2026)
    e13 = exactly_template(1, 3)
    lps = []
    for i in range(20):
        n = rng.randint(4, 7) if i % 2 else rng.randint(4, 6)
        m = rng.randint(n // 2, n)
        triples = set()
        while len(triples) < m:
            triples.add(tuple(sorted(rng.sample(range(n), 3))))
        inst = Structure(e13.signature, n, (("R", tuple(sorted(triples))),))
        lps.append(build_sa(inst, e13, 1 + i % 2))
    for _ in range(10):
        lp = RationalLP()
        nv = rng.randint(4, 8)
        for j in range(nv):
            r = rng.random()
            if r < 0.3:
                lp.add_variable(j)
            elif r < 0.6:
                lp.add_variable(j, F(rng.randint(-6, 0), rng.randint(1, 3)),
                                F(rng.randint(1, 9), rng.randint(1, 4)))
            else:
                lp.add_variable(j, F(rng.randint(-2, 2), rng.randint(1, 3)))
        for _ in range(rng.randint(nv // 2, nv + 2)):
            coeffs = {j: F(rng.choice((-3, -2, -1, 1, 2, 3)), rng.randint(1, 4))
                      for j in rng.sample(range(nv), rng.randint(1, nv))}
            lp.add_constraint(coeffs, rng.choice(("<=", "=", ">=")),
                              F(rng.randint(-8, 8), rng.randint(1, 5)))
        lps.append(lp)
    return lps


def test_seeded_pool_digest():
    # every verdict and every point of a fixed pool: a change to the pivot
    # path that moves any point shows here
    h = hashlib.sha256()
    n_feasible = 0
    for lp in seeded_pool():
        v = feasible(lp)
        n_feasible += v.feasible
        point = sorted(v.point.items(), key=repr) if v.feasible else None
        h.update(repr((v.feasible, point)).encode())
    assert n_feasible == 22
    assert h.hexdigest() == (
        "c288cf4e3592c831c3b22b250759ac244fad26387f77eeadcdb8a229b7239386")


def plain_check(lp, point):
    """check_point written out in Fraction arithmetic, as the reference."""
    for coeffs, rel, rhs in lp.constraints:
        val = sum((c * point[k] for k, c in coeffs.items()), F(0))
        if (rel == "<=" and val > rhs) or (rel == ">=" and val < rhs) or (
                rel == "=" and val != rhs):
            return False
    return (all(point[k] >= lo for k, lo in lp.lower.items())
            and all(point[k] <= hi for k, hi in lp.upper.items()))


small_fractions = st.builds(F, st.integers(-12, 12), st.integers(1, 6))


@st.composite
def lps_and_points(draw):
    """An LP with fractional data and a point near or on its boundary: a
    random one, the simplex's own, or either with one coordinate moved by
    1/(2L), L the common denominator of the point."""
    lp = RationalLP()
    nv = draw(st.integers(1, 4))
    for j in range(nv):
        lo = draw(st.none() | small_fractions)
        hi = draw(st.none() | small_fractions)
        if lo is not None and hi is not None and hi < lo:
            lo, hi = hi, lo
        lp.add_variable(j, lo, hi)
    for _ in range(draw(st.integers(0, 4))):
        coeffs = {j: draw(small_fractions) for j in range(nv)
                  if draw(st.booleans())}
        lp.add_constraint(coeffs, draw(st.sampled_from(["<=", "=", ">="])),
                          draw(small_fractions))
    v = feasible(lp)
    if v.feasible and draw(st.booleans()):
        point = dict(v.point)
    else:
        point = {j: draw(small_fractions) for j in range(nv)}
    if draw(st.booleans()):
        L = lcm(*(x.denominator for x in point.values()))
        j = draw(st.integers(0, nv - 1))
        point[j] += draw(st.sampled_from([1, -1])) * F(1, 2 * L)
    return lp, point


@given(lps_and_points())
@settings(max_examples=150, deadline=None)
def test_check_point_is_exact(lp_point):
    lp, point = lp_point
    assert check_point(lp, point) == plain_check(lp, point)


@st.composite
def small_lps(draw):
    """Small LPs with every variable bounded, so the oracle applies."""
    lp = RationalLP()
    nv = draw(st.integers(1, 3))
    for j in range(nv):
        lo = draw(st.integers(-3, 2))
        lp.add_variable(j, lo, lo + draw(st.integers(0, 4)))
    for _ in range(draw(st.integers(0, 5))):
        coeffs = {j: draw(st.integers(-3, 3)) for j in range(nv)}
        lp.add_constraint(coeffs, draw(st.sampled_from(["<=", "=", ">="])),
                          F(draw(st.integers(-6, 6)), draw(st.integers(1, 3))))
    return lp


@given(small_lps())
@settings(max_examples=80, deadline=None)
def test_feasible_agrees_with_the_oracle(lp):
    got = feasible(lp)
    assert got.feasible == feasible_by_basis_enumeration(lp).feasible
    if got.feasible:
        assert check_point(lp, got.point)


@st.composite
def zero_rhs_lps(draw):
    """Small LPs on which zero propagation fires: variables in [0, u] (now
    and then [-1, u], which keeps their rows out of it), rhs-0 rows whose
    coefficients have one sign or mixed signs, and one row with rhs != 0."""
    lp = RationalLP()
    nv = draw(st.integers(1, 4))
    for j in range(nv):
        lp.add_variable(j, draw(st.sampled_from([0, 0, 0, 0, -1])),
                        draw(st.integers(0, 3)))

    def row():
        sign = draw(st.sampled_from([1, -1, None]))  # None: mixed signs
        return {j: draw(st.integers(1, 3)) * (
                    sign or draw(st.sampled_from([1, -1])))
                for j in range(nv) if draw(st.booleans())}

    rows = [(row(), draw(st.sampled_from(["<=", "=", ">="])), 0)
            for _ in range(draw(st.integers(0, 5)))]
    rhs = F(draw(st.integers(1, 4)) * draw(st.sampled_from([1, -1])),
            draw(st.integers(1, 2)))
    rows.insert(draw(st.integers(0, len(rows))),
                (row(), draw(st.sampled_from(["<=", "=", ">="])), rhs))
    for coeffs, rel, b in rows:
        lp.add_constraint(coeffs, rel, b)
    return lp


@given(zero_rhs_lps())
@settings(max_examples=150, deadline=None)
def test_propagation_agrees_with_the_oracle(lp):
    got = feasible(lp)
    assert got.feasible == feasible_by_basis_enumeration(lp).feasible
    if got.feasible:
        assert got.refutation is None and check_point(lp, got.point)


@given(zero_rhs_lps())
@settings(max_examples=150, deadline=None)
def test_every_refutation_replays(lp):
    v = feasible(lp)
    if v.refutation is None:
        return
    assert not v.feasible and check_refutation(lp, v.refutation)
    *fired, last = v.refutation
    # a derivation whose last row still has a live variable fails
    forced = {key for i in fired for key in lp.constraints[i][0]}
    for i, (coeffs, _, _) in enumerate(lp.constraints):
        if any(key not in forced for key in coeffs):
            assert not check_refutation(lp, tuple(fired) + (i,))
    if lp.constraints[last][0]:
        assert not check_refutation(lp, (last,))


class TestRefutation:
    def lp(self, lo=0):
        # x + y = 0 forces x and y, z <= 0 forces z, and x + z = 1 is left
        # with no live variable; with y >= -1, x = 1 and y = -1 is feasible
        lp = RationalLP()
        lp.add_variable("x", 0)
        lp.add_variable("y", lo)
        lp.add_variable("z", 0, 5)
        lp.add_constraint({"x": 1, "y": 1}, "=", 0)
        lp.add_constraint({"x": 1, "z": 1}, "=", 1)
        lp.add_constraint({"z": 2}, "<=", 0)
        return lp

    def test_refutation_is_the_firing_order(self):
        lp = self.lp()
        v = feasible(lp)
        assert not v.feasible and v.point is None
        assert v.refutation == (0, 2, 1)
        assert check_refutation(lp, v.refutation)

    @pytest.mark.parametrize("rows", [
        (), (0, 2), (2, 1), (0, 2, 1, 0), (0, 2, 3), (0, -1, 1), (1, 0, 2, 1),
    ])
    def test_bad_derivations_fail_the_replay(self, rows):
        # no contradiction; a live variable left; an index out of range; a
        # forcing row with rhs != 0
        assert not check_refutation(self.lp(), rows)

    def test_a_variable_that_may_be_negative_forces_nothing(self):
        lp = self.lp(lo=-1)
        v = feasible(lp)
        assert v.feasible and v.refutation is None
        assert not check_refutation(lp, (0, 2, 1))

    def test_a_refutation_that_fails_its_replay_raises(self, monkeypatch):
        monkeypatch.setattr(ratlp, "check_refutation", lambda lp, rows: False)
        with pytest.raises(PcspError, match="internal error"):
            feasible(self.lp())


FANO = ((0, 1, 3), (1, 2, 4), (2, 3, 5), (3, 4, 6), (4, 5, 0), (5, 6, 1),
        (6, 0, 2))


@pytest.mark.parametrize("n, triples", [
    (7, FANO),
    # every triple of four variables: criterion 5's SA-2 infeasible kind
    (4, ((0, 1, 2), (0, 1, 3), (0, 2, 3), (1, 2, 3))),
])
def test_sa2_refuted_without_the_simplex(monkeypatch, n, triples):
    def no_simplex(*args):
        raise AssertionError("the simplex ran")

    monkeypatch.setattr(ratlp, "_phase1", no_simplex)
    e13 = exactly_template(1, 3)
    lp = build_sa(Structure(e13.signature, n, (("R", triples),)), e13, 2)
    v = feasible(lp)
    assert not v.feasible and check_refutation(lp, v.refutation)
