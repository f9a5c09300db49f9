import itertools
import json
import random

import pytest
from hypothesis import given, settings, strategies as st

from pcsp.core import (
    Signature,
    Structure,
    complete_graph,
    exactly_template,
    nae_template,
)
from pcsp.template_analyzer import (
    INCONCLUSIVE,
    NO_SUBLINEAR_WIDTH,
    TRIVIAL_RIGHT,
    _compose,
    binary_projection_set,
    classify,
    composition_condition,
    report_dict,
)


def inequality(n):
    return tuple((i, j) for i in range(n) for j in range(n) if i != j)


def mixed(unary):
    """K3's edges, the unary relation ``unary`` and the nullary {()}."""
    sig = Signature((("E", 2), ("U", 1), ("Z", 0)))
    return Structure(sig, 3, (("E", inequality(3)), ("U", unary), ("Z", ((),))))


class TestBinaryProjections:
    def test_k2(self):
        gset, degenerate = binary_projection_set(complete_graph(2))
        assert not degenerate
        assert list(gset) == [inequality(2)]

    def test_k3(self):
        gset, _ = binary_projection_set(complete_graph(3))
        assert [set(r) for r in gset] == [set(inequality(3))]

    def test_two_in_four_is_only_the_full_square(self):
        # every coordinate pair of the six tuples realizes all four patterns
        gset, _ = binary_projection_set(exactly_template(2, 4))
        full = set(itertools.product(range(2), repeat=2))
        assert [set(r) for r in gset] == [full]

    def test_two_relations_in_coordinate_order(self):
        # pr_{i,j} for (i, j) in order over the coordinates E0, E1, U0:
        # inside E the pairs of its tuples, across E and U a product
        sig = Signature((("E", 2), ("U", 1)))
        s = Structure(sig, 3, (("E", ((0, 1), (1, 2))), ("U", ((0,), (2,)))))
        gset, degenerate = binary_projection_set(s)
        assert not degenerate
        assert [list(r) for r in gset] == [
            [(0, 1), (1, 2)],
            [(0, 0), (0, 2), (1, 0), (1, 2)],
            [(1, 0), (2, 1)],
            [(1, 0), (1, 2), (2, 0), (2, 2)],
            [(0, 0), (0, 1), (2, 0), (2, 1)],
            [(0, 1), (0, 2), (2, 1), (2, 2)]]

    def test_an_empty_relation_leaves_only_the_empty_set(self):
        gset, degenerate = binary_projection_set(mixed(()))
        assert not degenerate and [list(r) for r in gset] == [[]]

    def test_unary_only_is_degenerate(self):
        s = Structure(Signature((("U", 1),)), 2, (("U", ((0,), (1,))),))
        gset, degenerate = binary_projection_set(s)
        assert degenerate and gset == ()


class TestCompose:
    def test_k2_self_composition_is_equality(self):
        e = complete_graph(2).rel("E")
        assert _compose(e, e) == {(0, 0), (1, 1)}

    def test_k3_self_composition_is_full_square(self):
        e = complete_graph(3).rel("E")
        assert _compose(e, e) == set(itertools.product(range(3), repeat=2))

    def test_empty_annihilates(self):
        assert _compose(complete_graph(3).rel("E"), ()) == set()

    @given(st.data())
    @settings(max_examples=50, deadline=None)
    def test_associativity(self, data):
        pairs = st.tuples(st.integers(0, 5), st.integers(0, 5))
        a, b, c = [data.draw(st.lists(pairs, max_size=10)) for _ in range(3)]
        assert _compose(_compose(a, b), c) == _compose(a, _compose(b, c))


class TestCompositionCondition:
    def test_k2_fails(self):
        holds, failing, _, _ = composition_condition(complete_graph(2))
        assert not holds and failing is not None

    def test_kp_holds_for_p_at_least_3(self):
        for p in (3, 4, 5):
            holds, _, _, _ = composition_condition(complete_graph(p))
            assert holds

    def test_one_in_two_fails(self):
        # the single relation {(0,1),(1,0)} composes with itself to equality
        holds, failing, _, _ = composition_condition(exactly_template(1, 2))
        assert not holds
        u, v = failing
        assert set(u) == {(0, 1), (1, 0)}

    def test_isomorphism_invariance(self):
        rng = random.Random(13)
        sig = Signature((("R", 3),))
        for _ in range(20):
            n = rng.randint(2, 4)
            tups = tuple(tuple(rng.randrange(n) for _ in range(3))
                         for _ in range(rng.randint(1, 5)))
            s = Structure(sig, n, (("R", tups),))
            perm = list(range(n))
            rng.shuffle(perm)
            relabeled = Structure(sig, n, (("R", tuple(
                tuple(perm[x] for x in t) for t in tups)),))
            assert composition_condition(s)[0] == composition_condition(relabeled)[0]


class TestClassify:
    def test_k3_k5_no_sublinear_width(self):
        assert classify(complete_graph(3), complete_graph(5)).verdict == NO_SUBLINEAR_WIDTH

    def test_k2_k4_inconclusive(self):
        assert classify(complete_graph(2), complete_graph(4)).verdict == INCONCLUSIVE

    def test_two_in_four_nae_no_sublinear_width(self):
        assert classify(exactly_template(2, 4), nae_template(4)).verdict == NO_SUBLINEAR_WIDTH

    def test_one_in_two_inconclusive(self):
        s = exactly_template(1, 2)
        assert classify(s, s).verdict == INCONCLUSIVE

    def test_kp_kq_classification_table(self):
        for p in range(1, 7):
            for q in range(p, 7):
                report = classify(complete_graph(p), complete_graph(q))
                if p >= 3:
                    assert report.verdict == NO_SUBLINEAR_WIDTH
                else:
                    assert report.verdict != NO_SUBLINEAR_WIDTH

    def test_reflexive_right_is_trivial(self):
        loop = Structure(Signature((("E", 2),)), 1, (("E", ((0, 0),)),))
        report = classify(complete_graph(3), loop)
        assert report.verdict == TRIVIAL_RIGHT
        assert report.right_reflexive == 0

    def test_invalid_template_rejected(self):
        with pytest.raises(ValueError):
            classify(complete_graph(4), complete_graph(3))

    def test_trivial_right_absorbs_random_instances(self):
        loop = Structure(Signature((("E", 2),)), 1, (("E", ((0, 0),)),))
        from pcsp.core import hom_search

        rng = random.Random(4)
        for _ in range(20):
            n = rng.randint(1, 6)
            edges = tuple((rng.randrange(n), rng.randrange(n))
                          for _ in range(rng.randint(0, 8)))
            inst = Structure(Signature((("E", 2),)), n, (("E", edges),))
            assert hom_search(inst, loop) is not None

    @pytest.mark.parametrize("unary, pairs, expected", [
        (((0,), (2,)), 3,
         '{"condition_holds": false, "degenerate": false, "failing_pair": '
         '[[[0, 1], [0, 2], [1, 0], [1, 2], [2, 0], [2, 1]], '
         '[[0, 0], [0, 2], [1, 0], [1, 2], [2, 0], [2, 2]]], '
         '"gset": [[[0, 1], [0, 2], [1, 0], [1, 2], [2, 0], [2, 1]], '
         '[[0, 0], [0, 2], [1, 0], [1, 2], [2, 0], [2, 2]], '
         '[[0, 0], [0, 1], [0, 2], [2, 0], [2, 1], [2, 2]]], '
         '"right_reflexive": null, "verdict": "Inconclusive"}'),
        ((), 1,
         '{"condition_holds": false, "degenerate": false, "failing_pair": [[], []], '
         '"gset": [[]], "right_reflexive": null, "verdict": "Inconclusive"}'),
    ], ids=["unary-0-2", "empty-unary"])
    def test_mixed_arity_report_is_pinned(self, unary, pairs, expected):
        s = mixed(unary)
        report = classify(s, s)
        assert report.verdict == INCONCLUSIVE and len(report.gset) == pairs
        assert json.dumps(report_dict(report), sort_keys=True) == expected

    def test_report_dict_shape(self):
        d = report_dict(classify(complete_graph(2), complete_graph(2)))
        assert d["verdict"] == INCONCLUSIVE
        assert "failing_pair" in d
