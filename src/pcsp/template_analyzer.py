"""Structural template classification.

For a template pair (S, T) with S -> T, the test computes the set of binary
projections of the product of all relations of S, one relation or a pair
of relations at a time, and checks whether every composition of two of
them is the full square S x S.  If it is and T has no reflexive point, the
template cannot have sublinear width; if T has a reflexive point the
right-hand problem is trivial.  Anything else is reported as
inconclusive: the condition is sufficient, not necessary.
"""

from dataclasses import dataclass
from itertools import permutations, product as iproduct
from typing import Optional, Tuple

from .core import Structure, hom_search
from .polymorphisms import has_reflexive_tuple

TRIVIAL_RIGHT = "TrivialRight"
NO_SUBLINEAR_WIDTH = "NoSublinearWidth"
INCONCLUSIVE = "Inconclusive"


@dataclass(frozen=True)
class TemplateReport:
    verdict: str
    condition_holds: bool
    right_reflexive: Optional[int]
    gset: Tuple[tuple, ...]  # binary relations as sorted pair tuples
    failing_pair: Optional[Tuple[tuple, tuple]]
    degenerate: bool = False  # product arity < 2: no binary projections exist


def binary_projection_set(struct: Structure):
    """All pr_{i,j} of the product of the structure's relations, i != j, in
    (i, j) order without repeats, each a sorted tuple of pairs.

    The product is never built: coordinates i and j of one relation R give
    the pairs (t[i], t[j]) of its tuples, and coordinates of two relations
    R and R' give pr_i(R) x pr_j(R').  If some relation is empty, so is the
    product, and the set is the empty relation alone.  Returns (relations,
    degenerate); degenerate is True when the product arity is below 2, in
    which case the set is empty.
    """
    coords = [(sym, i) for sym, ar in struct.signature.symbols for i in range(ar)]
    if len(coords) < 2:
        return (), True
    if not all(tups for _, tups in struct.relations):
        return ((),), False
    out = []
    seen = set()
    for (r, i), (q, j) in permutations(coords, 2):
        if r == q:
            pairs = {(t[i], t[j]) for t in struct.rel(r)}
        else:
            pairs = iproduct({t[i] for t in struct.rel(r)}, {t[j] for t in struct.rel(q)})
        rel = tuple(sorted(pairs))
        if rel not in seen:
            seen.add(rel)
            out.append(rel)
    return tuple(out), False


def _compose(u, v) -> set:
    """The pairs (a, b) with (a, c) in u and (c, b) in v for some c."""
    by_first = {}
    for c, b in v:
        by_first.setdefault(c, []).append(b)
    return {(a, b) for a, c in u for b in by_first.get(c, ())}


def composition_condition(struct: Structure):
    """Whether every U∘V over the binary projections is the full square.

    Returns (holds, first_failing_pair_or_None, gset, degenerate).
    """
    gset, degenerate = binary_projection_set(struct)
    full = set(iproduct(range(struct.n), repeat=2))
    for u, v in iproduct(gset, repeat=2):
        if _compose(u, v) != full:
            return False, (u, v), gset, degenerate
    return True, None, gset, degenerate


def classify(left: Structure, right: Structure) -> TemplateReport:
    """Template verdict for a valid pair (a homomorphism left -> right)."""
    if left.signature != right.signature:
        raise ValueError("template sides must share a signature")
    if hom_search(left, right) is None:
        raise ValueError("not a valid template: no homomorphism to the right side")
    reflexive = has_reflexive_tuple(right)
    holds, failing, gset, degenerate = composition_condition(left)
    if reflexive is not None:
        verdict = TRIVIAL_RIGHT
    elif holds and not degenerate:
        verdict = NO_SUBLINEAR_WIDTH
    else:
        verdict = INCONCLUSIVE
    return TemplateReport(
        verdict=verdict,
        condition_holds=holds and not degenerate,
        right_reflexive=reflexive,
        gset=gset,
        failing_pair=failing,
        degenerate=degenerate,
    )


def report_dict(report: TemplateReport):
    """JSON-friendly rendering of a report."""
    out = {
        "verdict": report.verdict,
        "condition_holds": report.condition_holds,
        "right_reflexive": report.right_reflexive,
        "degenerate": report.degenerate,
        "gset": [list(r) for r in report.gset],
    }
    if report.failing_pair is not None:
        u, v = report.failing_pair
        out["failing_pair"] = [list(u), list(v)]
    return out
