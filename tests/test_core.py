import itertools

import pytest
from hypothesis import given, settings, strategies as st

from pcsp.core import (
    GRAPH_SIG,
    Signature,
    Structure,
    complete_graph,
    cycle,
    decode_power,
    encode_power,
    enumerate_homomorphisms,
    exactly_template,
    format_structure,
    hom_search,
    induced_substructure,
    is_homomorphism,
    nae_template,
    parse_structure,
    path,
    power,
    _search,
)
from pcsp.errors import BudgetExceededError, StructureParseError


def brute_force_homs(instance, template):
    """All homomorphisms, in lexicographic order."""
    return [mapping for mapping in itertools.product(range(template.n), repeat=instance.n)
            if is_homomorphism(mapping, instance, template)]


def _graph(n, edges):
    return Structure(GRAPH_SIG, n, (("E", tuple(edges) + tuple((v, u) for u, v in edges)),))


def _k2_refutation():
    edges = [(1, 8), (2, 21), (3, 9), (3, 17), (3, 19), (4, 9), (4, 16), (4, 19), (6, 18),
             (6, 20), (8, 17), (9, 12), (10, 15), (10, 19), (11, 13), (11, 15), (12, 13),
             (14, 16), (15, 16), (15, 17)]
    return _graph(22, edges), complete_graph(2), None, 1054, None


def _k3_refutation():
    edges = [(0, 6), (0, 8), (0, 10), (0, 11), (0, 13), (1, 4), (1, 5), (1, 7), (1, 8),
             (1, 10), (1, 11), (1, 12), (2, 9), (2, 10), (2, 12), (3, 4), (3, 5), (3, 6),
             (3, 7), (3, 8), (3, 9), (3, 10), (3, 12), (4, 7), (4, 9), (4, 11), (5, 8),
             (5, 11), (6, 8), (6, 9), (6, 10), (6, 13), (7, 8), (7, 10), (7, 12), (7, 13),
             (8, 11), (8, 13), (10, 11), (10, 13), (11, 12), (12, 13)]
    return _graph(14, edges), complete_graph(3), None, 264, None


def _nae3_refutation():
    triples = [(0, 1, 10), (0, 2, 5), (0, 5, 7), (1, 5, 0), (2, 3, 10), (2, 11, 8),
               (3, 1, 0), (3, 7, 4), (4, 7, 11), (4, 8, 10), (4, 9, 3), (5, 2, 4),
               (5, 2, 9), (5, 6, 10), (5, 7, 2), (5, 8, 7), (5, 9, 11), (5, 10, 7),
               (6, 7, 8), (7, 5, 9), (7, 6, 8), (7, 8, 10), (7, 10, 3), (8, 2, 11),
               (8, 4, 0), (8, 5, 9), (8, 5, 11), (8, 11, 9), (9, 0, 11), (9, 6, 4),
               (9, 10, 0), (10, 2, 6), (10, 6, 8), (10, 8, 2), (11, 3, 7), (11, 8, 7)]
    nae = nae_template(3)
    return Structure(nae.signature, 12, (("R", tuple(triples)),)), nae, None, 174, None


def _k3_fixed():
    edges = [(0, 6), (0, 11), (0, 12), (1, 4), (1, 6), (1, 10), (1, 11), (1, 15), (2, 4),
             (2, 6), (2, 12), (2, 14), (3, 8), (3, 10), (4, 15), (5, 6), (5, 10), (5, 13),
             (5, 14), (6, 8), (6, 12), (7, 8), (7, 14), (7, 15), (8, 11), (8, 14), (9, 10),
             (9, 14), (10, 12), (14, 15)]
    witness = (2, 2, 2, 2, 1, 0, 1, 2, 0, 2, 1, 1, 0, 1, 1, 0)
    return _graph(16, edges), complete_graph(3), {0: 2, 9: 2, 15: 0}, 175, witness


_REPEATED_SIG = Signature((("R", 3), ("U", 1)))
_REPEATED_TEMPLATE = Structure(_REPEATED_SIG, 3, (
    ("R", ((0, 0, 0), (1, 0, 1), (1, 0, 2), (1, 1, 0), (1, 2, 0), (1, 2, 2), (2, 0, 0),
           (2, 0, 1), (2, 1, 2), (2, 2, 0), (2, 2, 1))),
    ("U", ((1,), (2,)))))


def _repeated_elements():
    r = ((0, 1, 4), (2, 2, 2), (2, 8, 2), (3, 2, 3), (3, 4, 6), (3, 8, 3), (4, 4, 7),
         (4, 8, 8), (5, 9, 1))
    inst = Structure(_REPEATED_SIG, 10, (("R", r), ("U", ((0,), (1,), (7,)))))
    return inst, _REPEATED_TEMPLATE, None, 62, (1, 2, 0, 1, 2, 1, 0, 1, 0, 0)


def _repeated_elements_refutation():
    r = ((0, 9, 9), (3, 0, 8), (3, 7, 3), (4, 6, 6), (5, 5, 1), (5, 6, 6), (5, 8, 5),
         (6, 6, 8), (7, 7, 6), (7, 7, 7), (7, 7, 8), (8, 1, 8), (8, 5, 5), (8, 8, 8))
    inst = Structure(_REPEATED_SIG, 10, (("R", r), ("U", ((4,), (7,), (9,)))))
    return inst, _REPEATED_TEMPLATE, None, 330, None


PINNED_TREES = {
    "k2-refutation": _k2_refutation,
    "k3-refutation": _k3_refutation,
    "nae3-refutation": _nae3_refutation,
    "k3-fixed": _k3_fixed,
    "repeated-elements": _repeated_elements,
    "repeated-elements-refutation": _repeated_elements_refutation,
}


class TestConstructors:
    def test_k3_edge_count(self):
        assert len(complete_graph(3).rel("E")) == 6

    def test_nae4_tuple_count(self):
        # all 16 minus the two constant tuples
        assert len(nae_template(4).rel("R")) == 14

    def test_two_in_four_tuple_count(self):
        assert len(exactly_template(2, 4).rel("R")) == 6

    def test_cycle_and_path(self):
        assert len(cycle(5).rel("E")) == 10
        assert len(path(4).rel("E")) == 6

    def test_rel_set_is_built_once(self):
        k3 = complete_graph(3)
        assert k3.rel_set("E") == frozenset(k3.rel("E"))
        assert k3.rel_set("E") is k3.rel_set("E")
        # the cached sets take no part in equality or hashing
        assert k3 == complete_graph(3) and hash(k3) == hash(complete_graph(3))

    def test_bad_parameters(self):
        with pytest.raises(ValueError):
            complete_graph(0)
        with pytest.raises(ValueError):
            exactly_template(3, 3)
        with pytest.raises(ValueError):
            nae_template(1)


class TestPower:
    def test_power_one_is_identity_encoding(self):
        s = complete_graph(3)
        assert power(s, 1).relations == s.relations

    def test_k3_squared_edge_count(self):
        assert len(power(complete_graph(3), 2).rel("E")) == 36

    def test_empty_relation_stays_empty(self):
        s = Structure(Signature((("E", 2),)), 3, (("E", ()),))
        assert power(s, 2).rel("E") == ()

    def test_size_limit(self):
        with pytest.raises(BudgetExceededError):
            power(complete_graph(10), 8, size_limit=10 ** 6)

    def test_encode_decode_roundtrip(self):
        for code in range(27):
            assert encode_power(3, decode_power(3, 3, code)) == code

    def test_power_elements_are_polymorphism_tables(self):
        # a hom from the square is exactly a binary polymorphism
        s = complete_graph(3)
        h = hom_search(power(s, 2), s)
        assert h is not None
        for (a, c), (b, d) in itertools.product(s.rel("E"), repeat=2):
            u = h[encode_power(3, (a, b))]
            v = h[encode_power(3, (c, d))]
            assert (u, v) in set(s.rel("E"))


class TestSubstructureUnion:
    def test_full_domain_is_isomorphic_copy(self):
        s = cycle(5)
        sub, idx = induced_substructure(s, range(5))
        assert sub.relations == s.relations and idx == (0, 1, 2, 3, 4)

    def test_k3_minus_vertex_is_k2(self):
        sub, _ = induced_substructure(complete_graph(3), {0, 1})
        assert sub.rel("E") == complete_graph(2).rel("E")

    def test_c5_three_consecutive_is_path(self):
        sub, _ = induced_substructure(cycle(5), {0, 1, 2})
        assert sub.rel("E") == path(3).rel("E")


class TestHomSearch:
    def test_odd_cycle_not_two_colorable(self):
        assert hom_search(cycle(5), complete_graph(2)) is None

    def test_exactly_to_nae(self):
        h = hom_search(exactly_template(2, 4), nae_template(4))
        assert h is not None

    def test_k3_identity(self):
        assert hom_search(complete_graph(3), complete_graph(3)) == (0, 1, 2)

    def test_budget(self):
        with pytest.raises(BudgetExceededError):
            hom_search(cycle(9), complete_graph(3), budget=3)

    def test_env_budget_zero_is_a_zero_node_budget(self, monkeypatch):
        monkeypatch.setenv("PCSP_BUDGET_NODES", "0")
        with pytest.raises(BudgetExceededError):
            hom_search(cycle(4), complete_graph(2))

    def test_enumeration_order_and_completeness(self):
        homs = list(enumerate_homomorphisms(cycle(4), complete_graph(2)))
        assert homs == [(0, 1, 0, 1), (1, 0, 1, 0)]

    def test_fixed_assignment(self):
        h = hom_search(cycle(4), complete_graph(2), fixed={0: 1})
        assert h == (1, 0, 1, 0)

    @pytest.mark.parametrize("fixed", [{-1: 0}, {4: 0}, {0: 0, 7: 1}, {0: 2}])
    def test_fixed_out_of_range_is_rejected_eagerly(self, fixed):
        with pytest.raises(ValueError):
            hom_search(cycle(4), complete_graph(2), fixed=fixed)
        with pytest.raises(ValueError):  # before the first value is tried
            _search(cycle(4), complete_graph(2), fixed, budget=0, find_all=True)

    def test_no_depth_limit(self):
        h = hom_search(path(5000), complete_graph(2))
        assert h == tuple(i % 2 for i in range(5000))

    @pytest.mark.parametrize("case", sorted(PINNED_TREES))
    def test_search_tree_is_pinned(self, case):
        # the search completes after exactly `nodes` nodes (values tried);
        # the count changes with the variable order, value order or pruning
        instance, template, fixed, nodes, witness = PINNED_TREES[case]()
        with pytest.raises(BudgetExceededError):
            hom_search(instance, template, fixed=fixed, budget=nodes - 1)
        assert hom_search(instance, template, fixed=fixed, budget=nodes) == witness

    @given(st.data())
    @settings(max_examples=100, deadline=None)
    def test_matches_exhaustive_enumeration(self, data):
        n = data.draw(st.integers(1, 4))
        tn = data.draw(st.integers(1, 3))
        arities = data.draw(st.lists(st.integers(0, 3), min_size=1, max_size=2))
        sig = Signature(tuple(("R%d" % i, ar) for i, ar in enumerate(arities)))

        def relation(size, max_size):
            # tuples over few elements, so loops and repeated elements are common
            return tuple(data.draw(st.lists(st.tuples(*[st.integers(0, size - 1)] * ar),
                                            max_size=max_size)) for ar in arities)

        inst = Structure(sig, n, tuple(zip(sig.names, relation(n, 5))))
        tmpl = Structure(sig, tn, tuple(zip(sig.names, relation(tn, 6))))
        fixed = data.draw(st.dictionaries(st.integers(0, n - 1), st.integers(0, tn - 1),
                                          max_size=2))
        homs = brute_force_homs(inst, tmpl)
        assert list(enumerate_homomorphisms(inst, tmpl)) == homs
        pinned = [h for h in homs if all(h[x] == a for x, a in fixed.items())]
        assert hom_search(inst, tmpl, fixed=fixed) == (pinned[0] if pinned else None)


class TestTextFormat:
    def test_roundtrip(self):
        sig = Signature((("Z", 0), ("E", 2)))
        for s in [cycle(5), complete_graph(4), exactly_template(2, 4),
                  Structure(sig, 2, (("Z", ((),)), ("E", ((0, 1),)))),
                  Structure(sig, 2, (("Z", ()), ("E", ((0, 1),))))]:
            assert parse_structure(format_structure(s)) == s

    def test_nullary_tuple_line(self):
        s = Structure(Signature((("Z", 0),)), 0, (("Z", ((),)),), "z")
        assert format_structure(s) == "structure z\ndomain 0\nrelation Z 0\n()\nend\n"

    @pytest.mark.parametrize("text, line", [
        ("structure x\ndomain 2\nrelation E 2\n0 1\n()\nend\n", 5),
        ("structure x\ndomain 2\n()\nrelation Z 0\nend\n", 3),
    ])
    def test_nullary_tuple_outside_a_nullary_relation(self, text, line):
        with pytest.raises(StructureParseError) as err:
            parse_structure(text)
        assert err.value.line == line

    def test_comments_and_blanks(self):
        text = """
# a triangle
structure tri
domain 3
relation E 2
0 1  # forward
1 0
end
"""
        s = parse_structure(text)
        assert s.rel("E") == ((0, 1), (1, 0))

    def test_out_of_range_reports_line(self):
        text = "structure x\ndomain 2\nrelation E 2\n0 5\nend\n"
        with pytest.raises(StructureParseError) as err:
            parse_structure(text)
        assert err.value.line == 4

    def test_missing_end(self):
        with pytest.raises(StructureParseError):
            parse_structure("structure x\ndomain 1\n")

    def test_wrong_arity_tuple(self):
        text = "structure x\ndomain 2\nrelation E 2\n0 1 1\nend\n"
        with pytest.raises(StructureParseError) as err:
            parse_structure(text)
        assert "arity" in str(err.value)
