import hashlib
from itertools import combinations, product

import pytest
from hypothesis import given, settings, strategies as st

from pcsp.consistency import (
    Strategy,
    compute_strategy,
    format_strategy,
    is_strategy,
    leq_k,
    parse_strategy,
    partial_map,
    partial_homs,
)
from pcsp.core import (
    Signature,
    Structure,
    complete_graph,
    cycle,
    exactly_template,
    hom_search,
    nae_template,
)
from pcsp.errors import BudgetExceededError


def random_structure(data, n_max=4, carrier=None):
    n = carrier if carrier is not None else data.draw(st.integers(1, n_max))
    ar = data.draw(st.integers(1, 2))
    tups = data.draw(st.lists(st.tuples(*[st.integers(0, n - 1)] * ar), max_size=6))
    return Structure(Signature((("R", ar),)), n, (("R", tuple(tups)),)), ar


def is_partial_hom(h, instance, template):
    """Every instance tuple inside dom(h) maps to a template tuple."""
    dom = dict(h)
    for sym, tups in instance.relations:
        target = template.rel_set(sym)
        for t in tups:
            if all(x in dom for x in t):
                if tuple(dom[x] for x in t) not in target:
                    return False
    return True


def reference_is_strategy(family, instance, template, k):
    """is_strategy as first written: every condition of every map checked
    directly, with one lookup per one-point extension."""
    if not family:
        return False
    fam = set(family)
    for h in fam:
        if not is_partial_hom(h, instance, template) or len(h) > k:
            return False
        if any(h[:i] + h[i + 1:] not in fam for i in range(len(h))):
            return False
        if len(h) < k:
            dom = {x for x, _ in h}
            for x in range(instance.n):
                if x not in dom and not any(
                        partial_map(h + ((x, a),)) in fam
                        for a in range(template.n)):
                    return False
    return True


class TestComputeStrategy:
    def test_odd_cycle_vs_k2_has_no_3_strategy(self):
        assert compute_strategy(cycle(5), complete_graph(2), 3) is None

    def test_even_cycle_vs_k2_has_3_strategy(self):
        s = compute_strategy(cycle(4), complete_graph(2), 3)
        assert s is not None
        assert is_strategy(s, cycle(4), complete_graph(2), 3)

    def test_empty_instance(self):
        empty = Structure(Signature((("E", 2),)), 0)
        assert compute_strategy(empty, complete_graph(2), 3) == Strategy({(): frozenset({()})})

    def test_budget(self):
        with pytest.raises(BudgetExceededError):
            compute_strategy(cycle(12), complete_graph(3), 4, budget=100)

    def test_result_is_maximal(self):
        # every 3-strategy is contained in the computed fixed point: check
        # that the fixed point is itself a strategy and that re-running the
        # removal on it changes nothing
        s = compute_strategy(complete_graph(3), complete_graph(3), 2)
        maps = set(s)
        assert s == Strategy.from_maps(h for h in partial_homs(
            complete_graph(3), complete_graph(3), 2, budget=100) if h in maps)
        assert is_strategy(s, complete_graph(3), complete_graph(3), 2)

    @given(st.data())
    @settings(max_examples=150, deadline=None)
    def test_is_the_greatest_fixed_point(self, data):
        inst, tmpl = random_pair(data)
        k = data.draw(st.integers(1, 5))
        reference = greatest_fixed_point(inst, tmpl, k)
        assert compute_strategy(inst, tmpl, k) == strategy_or_none(reference)

    @pytest.mark.parametrize("n", [0, 3])
    def test_unsatisfied_nullary_relation_has_no_strategy(self, n):
        sig = Signature((("Z", 0), ("E", 2)))
        inst = Structure(sig, n, (("Z", ((),)), ("E", ())))
        tmpl = Structure(sig, 2, (("Z", ()), ("E", ((0, 1), (1, 0)))))
        assert compute_strategy(inst, tmpl, 2) is None

    def test_empty_instance_with_satisfied_nullary_relation(self):
        sig = Signature((("Z", 0),))
        inst = Structure(sig, 0, (("Z", ((),)),))
        tmpl = Structure(sig, 1, (("Z", ((),)),))
        assert compute_strategy(inst, tmpl, 1) == Strategy({(): frozenset({()})})


def random_pair(data, n_max=4, tn_max=3):
    """1-2 symbols of arity 0-3 over few elements, so loops, repeated elements
    and nullary tuples are common."""
    arities = data.draw(st.lists(st.integers(0, 3), min_size=1, max_size=2))
    sig = Signature(tuple(("R%d" % i, ar) for i, ar in enumerate(arities)))

    def structure(n, max_size):
        return Structure(sig, n, tuple(
            (name, tuple(data.draw(st.lists(st.tuples(*[st.integers(0, n - 1)] * ar),
                                            max_size=max_size))))
            for name, ar in zip(sig.names, arities)))

    return (structure(data.draw(st.integers(1, n_max)), 5),
            structure(data.draw(st.integers(1, tn_max)), 6))


def strategy_or_none(maps):
    return Strategy.from_maps(maps) if maps else None


def greatest_fixed_point(instance, template, k):
    """The maximal k-strategy by brute force: each round removes every map
    that lacks a restriction or, below size k, an extension at some element
    outside its domain, until a round removes nothing."""
    k = min(k, instance.n)
    family = set(brute_force_partial_homs(instance, template, k))
    while True:
        keep = {h for h in family
                if all(h[:i] + h[i + 1:] in family for i in range(len(h)))
                and (len(h) == k or all(
                    any(tuple(sorted(h + ((x, a),))) in family
                        for a in range(template.n))
                    for x in range(instance.n) if x not in dict(h)))}
        if keep == family:
            return family
        family = keep


def brute_force_partial_homs(instance, template, k):
    """Every map with |dom| <= min(k, n), in (size, domain, values) order, filtered."""
    return [tuple(zip(dom, vals))
            for size in range(min(k, instance.n) + 1)
            for dom in combinations(range(instance.n), size)
            for vals in product(range(template.n), repeat=size)
            if is_partial_hom(tuple(zip(dom, vals)), instance, template)]


class TestPartialHoms:
    @given(st.data())
    @settings(max_examples=60, deadline=None)
    def test_matches_brute_force_in_order(self, data):
        inst, ar = random_structure(data, n_max=5)
        tn = data.draw(st.integers(1, 3))
        tt = data.draw(st.lists(st.tuples(*[st.integers(0, tn - 1)] * ar), max_size=8))
        tmpl = Structure(inst.signature, tn, (("R", tuple(tt)),))
        k = data.draw(st.integers(0, 4))
        assert partial_homs(inst, tmpl, k, budget=10**6) == \
            brute_force_partial_homs(inst, tmpl, k)

    def test_empty_instance(self):
        empty = Structure(Signature((("E", 2),)), 0)
        assert partial_homs(empty, complete_graph(2), 3, budget=1) == [()]

    def test_k_above_n(self):
        edge = Structure(Signature((("E", 2),)), 2, (("E", ((0, 1),)),))
        assert partial_homs(edge, complete_graph(2), 5, budget=100) == [
            (), ((0, 0),), ((0, 1),), ((1, 0),), ((1, 1),),
            ((0, 0), (1, 1)), ((0, 1), (1, 0))]

    def test_repeated_element(self):
        # (0, 0, 1) forces the images of 0 to agree: only 0->0, 1->1 survives
        sig = Signature((("R", 3),))
        inst = Structure(sig, 2, (("R", ((0, 0, 1),)),))
        tmpl = Structure(sig, 2, (("R", ((0, 0, 1), (0, 1, 1))),))
        homs = partial_homs(inst, tmpl, 2, budget=100)
        assert [h for h in homs if len(h) == 2] == [((0, 0), (1, 1))]
        assert homs == brute_force_partial_homs(inst, tmpl, 2)

    def test_empty_relation(self):
        tmpl = Structure(Signature((("E", 2),)), 2, (("E", ()),))
        assert partial_homs(cycle(3), tmpl, 2, budget=100) == [
            (), ((0, 0),), ((0, 1),), ((1, 0),), ((1, 1),), ((2, 0),), ((2, 1),)]

    def test_unsatisfied_nullary_relation(self):
        sig = Signature((("Z", 0), ("E", 2)))
        inst = Structure(sig, 2, (("Z", ((),)), ("E", ((0, 1),))))
        tmpl = Structure(sig, 2, (("Z", ()), ("E", ((0, 1),))))
        assert partial_homs(inst, tmpl, 2, budget=100) == []
        assert compute_strategy(inst, tmpl, 2) is None

    def test_budget_is_checked_before_enumeration(self):
        # the space for C4 -> K2 at k=2 is 1 + 4*2 + 6*4 = 33 maps; 25 survive
        # (4 adjacent pairs with 2 maps each, 2 opposite pairs with 4)
        assert len(partial_homs(cycle(4), complete_graph(2), 2, budget=33)) == 25
        with pytest.raises(BudgetExceededError):
            partial_homs(cycle(4), complete_graph(2), 2, budget=32)


class TestLeqK:
    def test_c5_not_leq3_k2(self):
        assert not leq_k(cycle(5), complete_graph(2), 3)

    def test_c5_leq2_k2(self):
        # 2-consistency is too weak to refute odd cycles
        assert leq_k(cycle(5), complete_graph(2), 2)

    def test_k3_leq4_k3(self):
        assert leq_k(complete_graph(3), complete_graph(3), 4)

    def test_hom_implies_leq_all_k(self):
        for k in (1, 2, 3, 4):
            assert leq_k(cycle(6), complete_graph(2), k)

    @given(st.data())
    @settings(max_examples=30, deadline=None)
    def test_hom_implies_strategy(self, data):
        inst, ar = random_structure(data)
        sig = inst.signature
        tn = data.draw(st.integers(1, 3))
        tt = data.draw(st.lists(st.tuples(*[st.integers(0, tn - 1)] * ar), max_size=8))
        tmpl = Structure(sig, tn, (("R", tuple(tt)),))
        if hom_search(inst, tmpl) is not None:
            for k in (1, 2, 3):
                assert leq_k(inst, tmpl, k)

    @given(st.data())
    @settings(max_examples=30, deadline=None)
    def test_monotone_in_k(self, data):
        inst, ar = random_structure(data)
        tn = data.draw(st.integers(1, 2))
        tt = data.draw(st.lists(st.tuples(*[st.integers(0, tn - 1)] * ar), max_size=4))
        tmpl = Structure(inst.signature, tn, (("R", tuple(tt)),))
        for k in (1, 2, 3):
            if leq_k(inst, tmpl, k + 1):
                assert leq_k(inst, tmpl, k)

    @given(st.data())
    @settings(max_examples=20, deadline=None)
    def test_returned_strategy_satisfies_invariants(self, data):
        inst, ar = random_structure(data, n_max=3)
        tn = data.draw(st.integers(1, 2))
        tt = data.draw(st.lists(st.tuples(*[st.integers(0, tn - 1)] * ar), max_size=4))
        tmpl = Structure(inst.signature, tn, (("R", tuple(tt)),))
        k = data.draw(st.integers(1, 3))
        s = compute_strategy(inst, tmpl, k)
        if s is not None:
            assert is_strategy(s, inst, tmpl, min(k, inst.n))


    @given(st.data())
    @settings(max_examples=150, deadline=None)
    def test_checker_agrees_with_the_reference(self, data):
        # a computed strategy (or, if none, all partial homomorphisms) with
        # one map dropped, one added, or one value forged
        inst, ar = random_structure(data, n_max=5)
        tn = data.draw(st.integers(1, 3))
        tt = data.draw(st.lists(st.tuples(*[st.integers(0, tn - 1)] * ar), max_size=6))
        tmpl = Structure(inst.signature, tn, (("R", tuple(tt)),))
        k = data.draw(st.integers(1, 3))
        fam = set(compute_strategy(inst, tmpl, k) or
                  partial_homs(inst, tmpl, k, budget=10 ** 6))
        change = data.draw(st.sampled_from(["none", "drop", "add", "forge"]))
        if change == "drop" and fam:
            fam.discard(data.draw(st.sampled_from(sorted(fam))))
        elif change == "add":
            dom = data.draw(st.sets(st.integers(0, inst.n - 1), max_size=k))
            fam.add(tuple((x, data.draw(st.integers(0, tn - 1)))
                          for x in sorted(dom)))
        elif change == "forge" and any(fam):
            h = data.draw(st.sampled_from(sorted(h for h in fam if h)))
            i = data.draw(st.integers(0, len(h) - 1))
            forged = h[:i] + ((h[i][0], data.draw(st.integers(0, tn - 1))),) + h[i + 1:]
            fam.discard(h)
            fam.add(forged)
        assert is_strategy(Strategy.from_maps(fam), inst, tmpl, k) == \
            reference_is_strategy(fam, inst, tmpl, k)

    def test_checker_rejects_a_map_that_is_not_sorted(self):
        # (1, 0) is a top-layer domain, so only the shape guard sees it
        s = set(compute_strategy(cycle(4), complete_graph(2), 2))
        assert is_strategy(Strategy.from_maps(s), cycle(4), complete_graph(2), 2)
        assert not is_strategy(Strategy.from_maps(s | {((1, 1), (0, 0))}),
                               cycle(4), complete_graph(2), 2)

    def test_checker_rejects_a_violated_tuple_with_all_restrictions_present(self):
        # (0, 0), (1, 0) breaks the edge (0, 1); both its restrictions are
        # maps of the strategy
        s = set(compute_strategy(cycle(4), complete_graph(2), 2))
        assert not is_strategy(Strategy.from_maps(s | {((0, 0), (1, 0))}),
                               cycle(4), complete_graph(2), 2)

    @pytest.mark.parametrize("defect", [
        "element >= n", "value >= |T|", "map larger than k", "repeated element",
        "no ()", "value tuple shorter than its domain"])
    def test_checker_rejects_a_family_of_the_wrong_shape(self, defect):
        # each family passes every other check of is_strategy on (C4, K2, k):
        # the defect is in the top layer, or in values the relations never see
        c4, k2, k = cycle(4), complete_graph(2), 2
        maps = set(compute_strategy(c4, k2, k))
        instance = c4
        if defect == "element >= n":
            maps = set(compute_strategy(Structure(c4.signature, 5, c4.relations), k2, k))
        elif defect == "value >= |T|":
            instance = Structure(c4.signature, 4)
            maps = set(compute_strategy(instance, complete_graph(3), k))
        elif defect == "map larger than k":
            maps = set(compute_strategy(c4, k2, k + 1))
        elif defect == "repeated element":
            maps.add(((0, 0), (0, 0)))
        elif defect == "no ()":
            maps.discard(())
        strategy = Strategy.from_maps(maps)
        if defect == "value tuple shorter than its domain":  # no map has this shape
            k = 1
            sets = compute_strategy(c4, k2, k).sets
            strategy = Strategy({**sets, (0,): sets[(0,)] | {()}})
        assert not is_strategy(strategy, instance, k2, k)

    def test_checker_rejects_an_unsatisfied_nullary_relation(self):
        sig = Signature((("Z", 0),))
        inst = Structure(sig, 0, (("Z", ((),)),))
        assert is_strategy(Strategy({(): frozenset({()})}), inst,
                           Structure(sig, 1, (("Z", ((),)),)), 1)
        assert not is_strategy(Strategy({(): frozenset({()})}), inst, Structure(sig, 1), 1)


def mycielski(g):
    """The Mycielski graph of g: a copy u_i of each vertex i, adjacent to the
    neighbours of i, and one more vertex adjacent to every u_i."""
    n = g.n
    edges = set(g.rel("E"))
    for a, b in g.rel("E"):
        edges |= {(n + a, b), (b, n + a)}
    for i in range(n):
        edges |= {(n + i, 2 * n), (2 * n, n + i)}
    return Structure(g.signature, 2 * n + 1, (("E", tuple(sorted(edges))),))


GROTZSCH = mycielski(mycielski(complete_graph(2)))
FANO = Structure(Signature((("R", 3),)), 7, (("R", (
    (0, 1, 3), (1, 2, 4), (2, 3, 5), (3, 4, 6), (4, 5, 0), (5, 6, 1), (6, 0, 2))),))


class TestNamedInstances:
    """Sizes of the maximal k-strategy on instances of the width results, at
    the largest accepting k and at the rejecting k above it."""

    @pytest.mark.parametrize("instance, template, k, size", [
        (GROTZSCH, complete_graph(3), 4, 12454),
        (GROTZSCH, complete_graph(3), 5, None),
        (mycielski(GROTZSCH), complete_graph(3), 3, 37762),
        (FANO, exactly_template(1, 3), 3, 211),
        (FANO, exactly_template(1, 3), 4, None),
        (FANO, nae_template(3), 4, 813),
        (FANO, nae_template(3), 5, None),
        (complete_graph(4), complete_graph(3), 4, None),
        (mycielski(GROTZSCH), complete_graph(3), 4, 307597),
    ])
    def test_family_size(self, instance, template, k, size):
        family = compute_strategy(instance, template, k)
        assert (None if family is None else len(family)) == size
        if family is not None:
            assert is_strategy(family, instance, template, k)

    @given(st.data())
    @settings(max_examples=40, deadline=None)
    def test_is_the_greatest_fixed_point_on_graphs_and_hypergraphs(self, data):
        # an odd cycle through 0..c-1, perhaps with a hub: odd cycles against
        # K2 and odd wheels against K3 are rejected only after several
        # rounds of removals
        n = data.draw(st.integers(4, 7))
        kind = data.draw(st.sampled_from(["K2", "K3", "1-in-3"]))
        if kind == "1-in-3":
            template = exactly_template(1, 3)
            tups = data.draw(st.lists(st.sampled_from(list(combinations(range(n), 3))),
                                      min_size=n - 2, max_size=2 * n, unique=True))
        else:
            template = complete_graph(int(kind[1]))
            c = data.draw(st.sampled_from([c for c in (5, 7, 3) if c <= n]))
            pairs = [(i, (i + 1) % c) for i in range(c)]
            if c < n and data.draw(st.booleans()):
                pairs += [(i, n - 1) for i in range(c)]
            pairs += data.draw(st.lists(st.sampled_from(list(combinations(range(n), 2))),
                                        max_size=2))
            tups = sorted({(a, b) for a, b in pairs} | {(b, a) for a, b in pairs})
        instance = Structure(template.signature, n,
                             ((template.signature.names[0], tuple(tups)),))
        for k in (2, 3, 4):
            reference = greatest_fixed_point(instance, template, k)
            assert compute_strategy(instance, template, k) == strategy_or_none(reference)


class TestStrategySerialization:
    def test_roundtrip(self):
        s = compute_strategy(cycle(4), complete_graph(2), 2)
        assert parse_strategy(format_strategy(s)) == s

    @pytest.mark.parametrize("instance, template, k, size, digest", [
        (GROTZSCH, complete_graph(3), 4, 12454, "70af86aecba4e73e"),
        (FANO, nae_template(3), 4, 813, "628c71fa5ed72556"),
        (FANO, exactly_template(1, 3), 3, 211, "3a58329b70b9e4e7"),
        (cycle(4), complete_graph(2), 3, 29, "35b99c65c271fa16"),
    ])
    def test_file_bytes_are_pinned(self, instance, template, k, size, digest):
        # one sorted map per line, as "element:value" pairs
        s = compute_strategy(instance, template, k)
        assert len(s) == size
        assert hashlib.sha256(format_strategy(s).encode()).hexdigest()[:16] == digest
