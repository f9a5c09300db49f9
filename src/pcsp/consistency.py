"""k-strategies and the local-consistency fixed-point algorithm.

A k-strategy on (I, S) is a nonempty family of partial homomorphisms that is
closed under restrictions and has the extension property up to domain size k.
The classical name for its computation is (k-1)-consistency; we index by the
strategy domain size k.

``partial_homs`` enumerates the partial homomorphisms domain by domain, with
one ``core`` support-table lookup (the tables ``hom_search`` prunes with)
per instance tuple that a new element completes.  ``compute_strategy`` keeps
a set of value tuples per domain, runs arc consistency (Mackworth 1977,
"Consistency in networks of relations") between each domain D and its
extensions D + x, one set operation per step, and rejects at the first
empty domain.
"""

from bisect import bisect
from itertools import chain, product, repeat, starmap
from math import comb
from operator import add, and_, itemgetter
from typing import Optional

from .core import Structure, constraints_by_max, support_constraints
from .errors import BudgetExceededError

DEFAULT_MAP_BUDGET = 2_000_000

# A partial map is a sorted tuple of (element, value) pairs.


def partial_map(pairs):
    return tuple(sorted(pairs))


def is_partial_hom(h, instance: Structure, template: Structure) -> bool:
    dom = dict(h)
    for sym, tups in instance.relations:
        target = template.rel_set(sym)
        for t in tups:
            if all(x in dom for x in t):
                if tuple(dom[x] for x in t) not in target:
                    return False
    return True


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


def partial_homs(instance: Structure, template: Structure, k: int, budget: int):
    """All partial homomorphisms with |dom| <= min(k, |I|), ordered by
    (size, domain, values).  Raises BudgetExceededError before enumerating
    if the map space sum_i C(n,i)|T|^i exceeds budget."""
    return [tuple(zip(dom, v))
            for dom, values in _value_lists(instance, template, min(k, instance.n), budget)
            for v in values]


def compute_strategy(instance: Structure, template: Structure, k: int,
                     budget: Optional[int] = None):
    """The maximal k-strategy on (I, S), or None if none exists.

    Returns a frozenset of partial maps (sorted (element, value) pair tuples).
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
    return frozenset(chain.from_iterable(
        map(tuple, map(zip, repeat(dom), values)) for dom, values in live.items()))


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


def is_strategy(family, instance: Structure, template: Structure, k: int) -> bool:
    """Check the defining conditions of a k-strategy in one pass.

    Every map must be a sorted tuple of (element, value) pairs with distinct
    elements of I and values of S, of size at most k, with its co-dimension-1
    restrictions in the family.  A map is checked to be a partial
    homomorphism only on the tuples whose largest element is its own
    largest: the rest lie inside its restriction without that element,
    which is in the family, so by induction on size they hold once every
    restriction is found.  The extension property is checked by counting,
    for each map, the distinct elements at which the family extends it.
    """
    extended = dict.fromkeys(family, 0)  # map -> elements it is extended at
    if not extended:
        return False
    by_max = constraints_by_max(instance, template)
    if by_max is None:
        return False
    n, t = instance.n, template.n
    for h in extended:
        if len(h) > k:
            return False
        x = -1
        for i, (y, a) in enumerate(h):
            if not (x < y < n and 0 <= a < t):
                return False
            x = y
            r = h[:i] + h[i + 1:]
            if r not in extended:
                return False
            extended[r] |= 1 << x
        if h:
            dom = dict(h)
            for target, tup in by_max[x]:
                if all(e in dom for e in tup) and \
                        tuple(dom[e] for e in tup) not in target:
                    return False
    return all(mask.bit_count() == n - len(h)
               for h, mask in extended.items() if len(h) < k)


def format_strategy(family) -> str:
    lines = []
    for h in sorted(family):
        lines.append(" ".join("%d:%d" % (x, a) for x, a in h))
    return "\n".join(lines) + "\n"


def parse_strategy(text: str):
    out = set()
    for raw in text.splitlines():
        line = raw.strip()
        if not line:
            out.add(())
            continue
        pairs = []
        for part in line.split():
            x, a = part.split(":")
            pairs.append((int(x), int(a)))
        out.add(partial_map(pairs))
    return frozenset(out)
