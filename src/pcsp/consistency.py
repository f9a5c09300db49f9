"""k-strategies and the local-consistency fixed-point algorithm.

A k-strategy on (I, S) is a nonempty family of partial homomorphisms that is
closed under restrictions and has the extension property up to domain size k.
The classical name for its computation is (k-1)-consistency; we index by the
strategy domain size k.

``_value_lists`` enumerates the partial homomorphisms domain by domain, as
one list of value tuples per domain, with one ``core`` support-table lookup
(the tables ``hom_search`` prunes with) per instance tuple that a new
element completes; ``sherali_adams.build_sa`` reads the same lists.
``compute_strategy`` keeps a set of value tuples per domain, runs arc
consistency (Mackworth 1977, "Consistency in networks of relations")
between each domain D and its extensions D + x, one set operation per
step, and rejects at the first empty domain.  It returns a ``Strategy``,
the same sets frozen, which ``is_strategy`` checks by one set comparison
per pair (D, D + x).
"""

from bisect import bisect
from dataclasses import dataclass
from itertools import chain, product, repeat, starmap
from math import comb
from operator import add, and_, itemgetter
from typing import Dict, FrozenSet, Optional

from .core import Structure, support_constraints
from .errors import BudgetExceededError

DEFAULT_MAP_BUDGET = 2_000_000

# A partial map is a sorted tuple of (element, value) pairs.


def partial_map(pairs):
    return tuple(sorted(pairs))


@dataclass(frozen=True)
class Strategy:
    """A family of partial maps as ``sets``: domain D (a tuple of elements) ->
    the frozenset of value tuples of the maps on D.  ``len`` counts maps, and
    iteration yields them as (element, value) pair tuples.  ``from_maps``
    groups maps by domain as given, so an unsorted map keeps its order."""

    sets: Dict[tuple, FrozenSet[tuple]]

    @classmethod
    def from_maps(cls, maps):
        sets = {}
        for h in maps:
            sets.setdefault(tuple(x for x, _ in h), set()).add(tuple(a for _, a in h))
        return cls({dom: frozenset(values) for dom, values in sets.items()})

    def __len__(self):
        return sum(map(len, self.sets.values()))

    def __iter__(self):
        return (tuple(zip(dom, v)) for dom, values in self.sets.items() for v in values)


def _value_lists(instance: Structure, template: Structure, k: int, budget: int):
    """Yield (D, values) for each domain D of size <= k, in (size, D) order:
    the value tuples of the partial homomorphisms on D, in lex order.

    D + x, for x above max D, is built from D only when D has a value tuple
    (a restriction of a partial homomorphism is again one).  Next to v on D,
    x takes the values of its loop mask that pass one support-table lookup
    per tuple with largest element x and its other elements in D.  Raises
    BudgetExceededError before enumerating if the map space
    sum_i C(n,i)|T|^i exceeds budget.
    """
    n, t = instance.n, template.n
    count = sum(comb(n, i) * t ** i for i in range(k + 1))
    if count > budget:
        raise BudgetExceededError(
            "partial-map space of size %d exceeds budget %d" % (count, budget))
    supports = support_constraints(instance, template)
    if supports is None:
        yield (), []
        return
    loops, checks = supports
    by_max = [[] for _ in range(n)]
    for y, others, table in checks:
        by_max[y].append((frozenset(others), others, table))
    full = (1 << t) - 1
    singles = _Singles()
    layer = [((), [()])]
    yield layer[0]
    for _ in range(k):
        nxt = []
        for dom, values in layer:
            if not values:
                continue
            pos = {x: i for i, x in enumerate(dom)}
            for x in range(dom[-1] + 1 if dom else 0, n):
                loop, masks = loops[x] & full, None
                for elements, others, table in by_max[x]:
                    if pos.keys() >= elements:
                        key = itemgetter(*[pos[e] for e in others])
                        found = map(table.get, map(key, values), repeat(0))
                        masks = found if masks is None else map(and_, masks, found)
                if masks is None:  # no tuple of x has its other elements in D
                    ext = list(starmap(add, product(values, singles[loop])))
                else:
                    ext = [v + a for v, m in zip(values, masks) for a in singles[m & loop]]
                item = (dom + (x,), ext)
                nxt.append(item)
                yield item
        layer = nxt


class _Singles(dict):
    """A bitmask of values -> the 1-tuples of its values, ascending."""

    def __missing__(self, mask):
        out = self[mask] = [(a,) for a in range(mask.bit_length()) if mask >> a & 1]
        return out


def compute_strategy(instance: Structure, template: Structure, k: int,
                     budget: Optional[int] = None):
    """The maximal k-strategy on (I, S), or None if none exists.

    Returns a ``Strategy``: S[D] for every domain D of size <= min(k, |I|).
    A nonempty k-strategy holds (), so by the extension property it holds a
    map on every domain of size <= k: a domain without a partial
    homomorphism rejects at once.  Otherwise S[D], the live value tuples on
    D, starts as all of them, and arc consistency runs on the pairs
    (D, D + x) with 1 <= |D| < k, where restriction to D drops x:
      - extension: S[D] keeps the tuples that some tuple of S[D + x]
        restricts to;
      - restriction: S[D + x] keeps the tuples whose restriction is in S[D].
    The enumeration is closed under restriction, so one pass of the
    extension rule over the pairs, from the top layer down, starts it.  Then
    a worklist of changed domains re-checks the only pairs that a shrunk
    S[D] can break: extension below D, restriction above.  An empty set
    rejects.  Every removed map has a local reason: no extension at some x,
    or a dead restriction to some D.  The maximal k-strategy is unique, so
    the result does not depend on the order of removals.
    """
    if k < 1:
        raise ValueError("k must be >= 1")
    if instance.signature != template.signature:
        raise ValueError("strategy requires a common signature")
    k = min(k, instance.n)
    if budget is None:
        budget = DEFAULT_MAP_BUDGET
    live = {}
    for dom, values in _value_lists(instance, template, k, budget):
        if not values:
            return None
        live[dom] = set(values)
    drops = [[_drop(s, j) for j in range(s)] for s in range(k + 1)]
    work, queued = [], set()  # the domains whose sets changed

    def changed(dom):
        if dom not in queued:
            queued.add(dom)
            work.append(dom)

    def restrict_below(e):
        """The extension rule on the pairs (D, e); False on an empty set."""
        se = live[e]
        for drop in drops[len(e)]:
            d = drop(e)
            sd = live[d]
            restrictions = set(map(drop, se))
            if not sd <= restrictions:
                sd &= restrictions
                if not sd:
                    return False
                changed(d)
        return True

    for e in reversed(live):
        if len(e) > 1 and not restrict_below(e):
            return None
    while work:
        dom = work.pop()
        queued.discard(dom)
        s = len(dom)
        if s > 1 and not restrict_below(dom):
            return None
        if s < k:
            sd = live[dom]
            for y in range(instance.n):
                j = bisect(dom, y)
                if j and dom[j - 1] == y:
                    continue
                e = dom[:j] + (y,) + dom[j:]
                se, drop = live[e], drops[s + 1][j]
                if not set(map(drop, se)) <= sd:
                    se = live[e] = {v for v in se if drop(v) in sd}
                    if not se:
                        return None
                    changed(e)
    return Strategy({dom: frozenset(values) for dom, values in live.items()})


def _drop(s, j):
    """Restriction of a value tuple of length s to the positions other than j."""
    if j == 0:
        return itemgetter(slice(1, None))
    if j == s - 1:
        return itemgetter(slice(None, j))
    return itemgetter(*range(j), *range(j + 1, s))


def leq_k(instance: Structure, template: Structure, k: int,
          budget: Optional[int] = None) -> bool:
    return compute_strategy(instance, template, k, budget) is not None


def is_strategy(strategy: Strategy, instance: Structure, template: Structure,
                k: int) -> bool:
    """Check the defining conditions of a k-strategy by set equality.

    () must be in the family.  Every domain D must be a strictly increasing
    tuple of elements of I of size <= k, and each of its value tuples must
    have length |D| and values in S.  For |D| < k and x not in D, dropping x
    from S[D + x] (empty if absent) must give S[D]: inclusion is closure under
    restriction, and covering is the extension property.  Relations are
    checked only on the tuples whose largest element is max D; the others lie
    inside D without max D, whose set is checked itself.
    """
    sets = strategy.sets
    if () not in sets.get((), ()):
        return False
    n, elements, values = instance.n, set(range(instance.n)), set(range(template.n))
    for dom, vs in sets.items():
        if len(dom) > k or not elements.issuperset(dom) or dom != tuple(sorted(set(dom))) \
                or not {len(dom)}.issuperset(map(len, vs)) \
                or not values.issuperset(chain.from_iterable(vs)):
            return False
    by_max = [[] for _ in range(n)]
    for sym, tups in instance.relations:
        for tup in tups:
            if tup:
                by_max[max(tup)].append((template.rel_set(sym), tup))
            elif () not in template.rel_set(sym):
                return False
    drops = [[_drop(s, j) for j in range(s)] for s in range(min(k, n) + 1)]
    for dom, vs in sets.items():
        s = len(dom)
        if s < k:
            for x in elements.difference(dom):
                j = bisect(dom, x)
                if set(map(drops[s + 1][j], sets.get(dom[:j] + (x,) + dom[j:], ()))) != vs:
                    return False
        if dom:
            for target, tup in by_max[dom[-1]]:
                if set(dom).issuperset(tup):
                    at = [dom.index(x) for x in tup]
                    key = itemgetter(*at) if len(at) > 1 else itemgetter(slice(at[0], at[0] + 1))
                    if not target.issuperset(map(key, vs)):
                        return False
    return True


def format_strategy(strategy: Strategy) -> str:
    return "".join(" ".join("%d:%d" % pair for pair in h) + "\n" for h in sorted(strategy))


def parse_strategy(text: str) -> Strategy:
    return Strategy.from_maps(
        partial_map((int(x), int(a)) for x, a in (part.split(":") for part in line.split()))
        for line in text.splitlines())
