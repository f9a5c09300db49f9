import itertools
import random

import pytest

from pcsp import polymorphisms
from pcsp.core import (
    Signature,
    Structure,
    complete_graph,
    decode_power,
    exactly_template,
    hom_search,
    nae_template,
)
from pcsp.polymorphisms import (
    MinionFragment,
    OperationTable,
    alternating_threshold,
    enumerate_polymorphisms,
    format_operation,
    free_structure,
    has_reflexive_tuple,
    has_wnu,
    is_polymorphism,
    is_wnu,
    majority_first_tiebreak,
    minor,
    parse_operation,
)
from pcsp.errors import PcspError


def projection_table(m, carrier, coord):
    table = tuple(decode_power(carrier, m, c)[coord] for c in range(carrier ** m))
    return OperationTable(m, carrier, carrier, table)


def one_off_structure(m):
    """Domain {x=0, y=1}; one m-ary relation of all tuples with a single y."""
    tups = []
    for i in range(m):
        t = [0] * m
        t[i] = 1
        tups.append(tuple(t))
    return Structure(Signature((("R", m),)), 2, (("R", tuple(tups)),))


class TestIsPolymorphism:
    def test_and_is_not_k2_polymorphism(self):
        and_op = OperationTable(2, 2, 2, (0, 0, 0, 1))
        assert not is_polymorphism(and_op, complete_graph(2), complete_graph(2))

    def test_majority_is_k2_polymorphism(self):
        maj = majority_first_tiebreak(3)
        assert is_polymorphism(maj, complete_graph(2), complete_graph(2))

    def test_projections_always_polymorphisms(self):
        for s in [complete_graph(3), nae_template(3)]:
            for coord in range(2):
                assert is_polymorphism(projection_table(2, s.n, coord), s, s)

    def test_carrier_mismatch(self):
        maj = majority_first_tiebreak(3)
        assert not is_polymorphism(maj, complete_graph(3), complete_graph(3))


class TestEnumerate:
    def test_unary_k2_polymorphisms(self):
        tables = [p.table for p in
                  enumerate_polymorphisms(complete_graph(2), complete_graph(2), 1)]
        assert tables == [(0, 1), (1, 0)]

    def test_unary_two_in_four_to_nae(self):
        tables = [p.table for p in enumerate_polymorphisms(
            exactly_template(2, 4), nae_template(4), 1)]
        assert (0, 1) in tables and (1, 0) in tables

    def test_matches_exhaustive_filter(self):
        left, right = complete_graph(2), complete_graph(2)
        got = set(p.table for p in enumerate_polymorphisms(left, right, 2))
        want = set()
        for table in itertools.product(range(2), repeat=4):
            f = OperationTable(2, 2, 2, table)
            if is_polymorphism(f, left, right):
                want.add(table)
        assert got == want


class TestMinor:
    def test_identity_pi(self):
        maj = majority_first_tiebreak(3)
        assert minor(maj, (0, 1, 2)) == maj

    def test_collapse_all_is_unary_identity(self):
        maj = majority_first_tiebreak(3)
        assert minor(maj, (0, 0, 0)).table == (0, 1)

    def test_minor_of_polymorphism_is_polymorphism(self):
        rng = random.Random(3)
        left, right = exactly_template(2, 4), nae_template(4)
        polys = list(enumerate_polymorphisms(left, right, 2))
        for _ in range(100):
            g = rng.choice(polys)
            n = rng.randint(1, 3)
            pi = tuple(rng.randrange(n) for _ in range(g.arity))
            assert is_polymorphism(minor(g, (pi, n)), left, right)


class TestWNU:
    def test_majority_is_wnu(self):
        assert is_wnu(majority_first_tiebreak(3))

    def test_projection_is_not_wnu(self):
        assert not is_wnu(projection_table(3, 2, 0))

    def test_constant_is_wnu(self):
        assert is_wnu(OperationTable(3, 2, 2, (0,) * 8))

    def test_majority_first_tiebreak_values(self):
        maj = majority_first_tiebreak(3)
        assert maj(0, 1, 1) == 1
        maj4 = majority_first_tiebreak(4)
        assert maj4(0, 1, 0, 1) == 0  # tie falls back to the first argument
        for m in (3, 4, 5):
            assert is_wnu(majority_first_tiebreak(m))

    def test_alternating_threshold_values(self):
        at = alternating_threshold(3)
        assert at(1, 0, 1) == 1
        assert at(0, 1, 0) == 0
        assert at(1, 1, 1) == 1 and at(0, 0, 0) == 0

    def test_alternating_threshold_rejects_even(self):
        with pytest.raises(ValueError):
            alternating_threshold(4)

    def test_has_wnu_two_in_four(self):
        left, right = exactly_template(2, 4), nae_template(4)
        w = has_wnu(left, right, 3)
        assert w is not None
        assert is_wnu(w) and is_polymorphism(w, left, right)

    def test_k3_has_no_ternary_wnu(self):
        assert has_wnu(complete_graph(3), complete_graph(3), 3) is None

    def test_has_wnu_matches_filter_at_arity_2(self):
        left = right = nae_template(2)
        got = has_wnu(left, right, 2)
        want = [p for p in enumerate_polymorphisms(left, right, 2) if is_wnu(p)]
        assert (got is not None) == bool(want)

    def test_failed_wnu_check_raises_pcsp_error(self, monkeypatch):
        # the verdict check must not be an assert, which python -O strips
        monkeypatch.setattr(polymorphisms, "is_wnu", lambda f: False)
        with pytest.raises(PcspError, match="internal error"):
            has_wnu(exactly_template(2, 4), nae_template(4), 3)


class TestPolymorphismSuites:
    def test_majority_tiebreak_is_polymorphism_of_two_in_four(self):
        left, right = exactly_template(2, 4), nae_template(4)
        for m in (3, 4, 5):
            assert is_polymorphism(majority_first_tiebreak(m), left, right)

    def test_alternating_threshold_polymorphism_suite(self):
        for s, r in ((1, 3), (2, 4)):
            left, right = exactly_template(s, r), nae_template(r)
            for m in (3, 5):
                assert is_polymorphism(alternating_threshold(m), left, right)


class TestFreeStructure:
    def test_wnu_generator_gives_reflexive_tuple(self):
        base = one_off_structure(3)
        frag = MinionFragment.generated_by(majority_first_tiebreak(3), [2])
        free = free_structure(base, frag)
        assert has_reflexive_tuple(free) is not None

    def test_projection_generator_gives_no_reflexive_tuple(self):
        base = one_off_structure(3)
        frag = MinionFragment.generated_by(projection_table(3, 2, 0), [2])
        free = free_structure(base, frag)
        assert has_reflexive_tuple(free) is None

    def test_base_maps_into_free_structure(self):
        base = one_off_structure(3)
        frag = MinionFragment.generated_by(majority_first_tiebreak(3), [2])
        assert hom_search(base, free_structure(base, frag)) is not None

    def test_reflexive_iff_wnu_over_all_ternary_boolean_generators(self):
        base = one_off_structure(3)
        for table in itertools.product(range(2), repeat=8):
            g = OperationTable(3, 2, 2, table)
            frag = MinionFragment.generated_by(g, [2])
            free = free_structure(base, frag)
            # reflexive tuples can only come from a 3-ary member obeying
            # the one-off identities
            has_refl = has_reflexive_tuple(free) is not None
            any_wnu = any(is_wnu(t) for t in frag.arity_part(3))
            assert has_refl == any_wnu

    def test_closure_violation_reported(self):
        base = one_off_structure(3)
        frag = MinionFragment([majority_first_tiebreak(3)])
        with pytest.raises(ValueError, match="not closed"):
            free_structure(base, frag)


class TestReflexive:
    def test_nae_has_none(self):
        assert has_reflexive_tuple(nae_template(4)) is None

    def test_kq_has_none(self):
        assert has_reflexive_tuple(complete_graph(3)) is None

    def test_loop_found(self):
        loop = Structure(Signature((("E", 2),)), 1, (("E", ((0, 0),)),))
        assert has_reflexive_tuple(loop) == 0


class TestSerialization:
    def test_roundtrip(self):
        for f in (majority_first_tiebreak(3), alternating_threshold(5)):
            assert parse_operation(format_operation(f)) == f
