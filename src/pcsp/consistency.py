"""k-strategies and the local-consistency fixed-point algorithm.

A k-strategy on (I, S) is a nonempty family of partial homomorphisms that is
closed under restrictions and has the extension property up to domain size k.
``compute_strategy`` starts from all partial homomorphisms with domain of size
at most k and removes violating maps, by support counting, until a fixed
point; the result, if nonempty, is the unique maximal k-strategy.  The
classical name for this procedure is (k-1)-consistency; we index by the
strategy domain size k.
"""

from array import array
from bisect import bisect_left
from itertools import compress, groupby
from math import comb
from typing import Optional

from .core import Structure, constraints_by_max
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


def _domain(h):
    return tuple(x for x, _ in h)


def partial_homs(instance: Structure, template: Structure, k: int, budget: int):
    """All partial homomorphisms with |dom| <= min(k, |I|).

    Ordered by (size, domain, values).  Layer i extends the maps of layer
    i-1 by one element above their domain and checks only the tuples that
    the new element completes: a restriction of a partial homomorphism is
    again one, so dead maps are never extended.  Raises BudgetExceededError
    before enumerating if the map space sum_i C(n,i)|T|^i exceeds budget.
    """
    n = instance.n
    k = min(k, n)
    count = sum(comb(n, i) * template.n ** i for i in range(k + 1))
    if count > budget:
        raise BudgetExceededError(
            "partial-map space of size %d exceeds budget %d" % (count, budget))
    by_max = constraints_by_max(instance, template)
    if by_max is None:
        return []
    out = layer = [()]
    for _ in range(k):
        nxt = []
        for dom, group in groupby(layer, key=_domain):
            values = [tuple(a for _, a in h) for h in group]
            pos = {x: i for i, x in enumerate(dom)}
            pos_new = len(dom)
            for x in range(dom[-1] + 1 if dom else 0, n):
                # the tuples that x completes, as positions into values + (a,)
                checks = [(target, tuple(pos.get(e, pos_new) for e in t))
                          for target, t in by_max[x]
                          if all(e in pos or e == x for e in t)]
                ext_dom = dom + (x,)
                for vals in values:
                    for a in range(template.n):
                        img = vals + (a,)
                        if all(tuple(img[p] for p in ps) in target
                               for target, ps in checks):
                            nxt.append(tuple(zip(ext_dom, img)))
        out = out + nxt
        layer = nxt
    return out


def compute_strategy(instance: Structure, template: Structure, k: int,
                     budget: Optional[int] = None):
    """The maximal k-strategy on (I, S), or None if none exists.

    Returns a frozenset of partial maps (sorted (element, value) pair tuples).
    The maximal k-strategy is unique, so the result does not depend on the
    order of removals.  It is found by support counting (Cooper 1989, "An
    optimal k-consistency algorithm"; its arc-consistency form is AC-4 of
    Mohr & Henderson 1986): each map h with |dom h| < k keeps, for each x
    outside its domain, a counter of the live extensions of h at x.  A
    removed map decrements the counters of its restrictions and removes its
    extensions; a counter that reaches 0 removes its map.
    """
    if k < 1:
        raise ValueError("k must be >= 1")
    if instance.signature != template.signature:
        raise ValueError("strategy requires a common signature")
    k = min(k, instance.n)
    if budget is None:
        budget = DEFAULT_MAP_BUDGET
    maps = partial_homs(instance, template, k, budget)
    if not maps:
        return None
    alive = _support_counting(maps, instance.n, template.n, k)
    if not alive[0]:
        return None
    return frozenset(compress(maps, alive))


def _support_counting(maps, n, t, k):
    """Live flags of the maps of the maximal k-strategy inside ``maps``.

    ``maps`` is the output of ``partial_homs``, ordered by size, so the maps
    with |dom| < k are the ids below ``small``.  Slot h*n + x stands for the
    pair (h, x) of such a map h and an element x: ``count[slot]`` is the
    number of live extensions of h at x, and ``ext[slot*t + a]`` is the id
    of h + (x, a), or -1.  ``links`` holds the co-dimension-1 restrictions
    of each map as slots, s of them for a map of size s, in id order; the
    last one drops the largest element, which gives the parent that
    ``partial_homs`` extended.
    """
    m = len(maps)
    first = [bisect_left(maps, s, key=len) for s in range(k + 2)]
    small = first[k]
    count = array("i", [0]) * (small * n)
    ext = array("i", [-1]) * (small * n * t)
    links = array("i")
    offset = [0] * (k + 1)  # offset[s]: the first link of the maps of size s
    index = dict(zip(maps[:small], range(small)))
    for s in range(1, k + 1):
        offset[s] = len(links)
        for g in range(first[s], first[s + 1]):
            h = maps[g]
            x, a = h[-1]
            p = index[h[:-1]]
            start = offset[s - 1] + (p - first[s - 1]) * (s - 1)
            # h without d is p without d, extended by (x, a); the slot of
            # p without d is r*n + d, so r*n + x is the slot of that extension
            for (d, v), ps in zip(h, links[start:start + s - 1]):
                slot = ext[(ps - d + x) * t + a] * n + d
                links.append(slot)
                ext[slot * t + v] = g
                count[slot] += 1
            slot = p * n + x
            links.append(slot)
            ext[slot * t + a] = g
            count[slot] += 1
    del index

    alive = bytearray(b"\x01") * m
    # no link counts slot h*n + x for x in dom h, so h has |h| such zeros
    dead = [h for h in range(small)
            if count[h * n:(h + 1) * n].count(0) > len(maps[h])]
    for h in dead:
        alive[h] = 0
    while dead:
        g = dead.pop()
        s = len(maps[g])
        start = offset[s] + (g - first[s]) * s
        for slot in links[start:start + s]:
            r = slot // n
            if alive[r]:
                count[slot] -= 1
                if not count[slot]:
                    alive[r] = 0
                    dead.append(r)
        if g < small:
            for e in ext[g * n * t:(g + 1) * n * t]:
                if e >= 0 and alive[e]:
                    alive[e] = 0
                    dead.append(e)
    return alive


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


def width_counterexample_check(left: Structure, right: Structure, k: int,
                               instances):
    """For each instance record (I <=_k S, I -> T present); flag violations.

    Returns a list of dicts; an entry is a counterexample when the instance
    passes k-consistency against S but has no homomorphism to T.
    """
    from .core import hom_search

    report = []
    for inst in instances:
        accepted = leq_k(inst, left, k)
        hom = hom_search(inst, right) is not None
        report.append({
            "instance": inst.name,
            "n": inst.n,
            "leq_k": accepted,
            "hom_right": hom,
            "counterexample": accepted and not hom,
        })
    return report


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
