"""The level-k Sherali-Adams LP relaxation of the homomorphism problem.

One variable x_f per partial homomorphism f with |dom(f)| <= k; constraint
families: x_empty = 1; marginalization sums; and, per constraint scope, an
exact extended formulation with one fresh lambda variable per template tuple
(a convex combination over the images of the scope).  Maps that are not
partial homomorphisms are fixed to zero by the system, so they are presolved
away rather than emitted; the resulting LP is equivalent.  The x variables
carry no upper bound: x_empty = 1, the marginalization rows and
nonnegativity give x_g <= x_f for every one-element extension g of f, so
x_f <= 1 follows by induction on |f|.
"""

from bisect import bisect
from fractions import Fraction
from typing import Dict

from .consistency import Strategy, _value_lists, partial_map
from .core import Structure
from .ratlp import EQ, RationalLP, Verdict, feasible

DEFAULT_MAP_BUDGET = 200_000


def x_key(f):
    return ("x", f)


def lam_key(f, sym, u, t):
    return ("lam", f, sym, u, t)


def build_sa(instance: Structure, template: Structure, k: int,
             budget: int = DEFAULT_MAP_BUDGET) -> RationalLP:
    """The level-k relaxation as an exact rational LP.

    Reads the enumerator's value lists: ``xs[D][v]`` is the x variable of
    the partial homomorphism v on domain D, so the one-element extension of
    v by value a at a new element e (inserted at position j of D) is one
    lookup in ``xs[D + e]``.  An instance without a partial homomorphism has
    no x_empty, and its normalization row reads 0 = 1.  ``budget`` counts
    partial maps, not LP variables: BudgetExceededError is raised before
    any work if the map space sum_{i <= k} C(n,i)|T|^i exceeds it.
    """
    if k < 1:
        raise ValueError("level must be >= 1")
    if instance.signature != template.signature:
        raise ValueError("common signature required")
    kk = min(k, instance.n)
    lp = RationalLP()
    xs = {}
    for dom, values in _value_lists(instance, template, kk, budget):
        xs[dom] = {v: x_key(tuple(zip(dom, v))) for v in values}
        for key in xs[dom].values():
            lp.add_variable(key, 0)
    lp.add_constraint({key: 1 for key in xs[()].values()}, EQ, 1)
    small = [(dom, row) for dom, row in xs.items() if len(dom) < kk]
    tvals = range(template.n)

    def ext(dom, e):
        """(j, xs[D + e]) with j the position of e in D + e."""
        j = bisect(dom, e)
        return j, xs.get(dom[:j] + (e,) + dom[j:], {})

    # marginalization: summing the extensions of f by one element gives x_f
    for dom, row in small:
        exts = [ext(dom, u) for u in range(instance.n) if u not in dom]
        for v, key in row.items():
            for j, up in exts:
                coeffs = {key: -1}
                for a in tvals:
                    g = up.get(v[:j] + (a,) + v[j:])
                    if g:
                        coeffs[g] = 1
                lp.add_constraint(coeffs, EQ, 0)

    # scope constraints: the image of each constraint tuple, conditioned on
    # f, is a convex combination of template tuples weighted x_f; a tuple
    # is usable if it repeats where the scope repeats and agrees with f
    scopes = [(sym, u, [t for t in template.rel(sym)
                        if all(t[i] == t[u.index(e)] for i, e in enumerate(u))])
              for sym, tups in instance.relations for u in tups]
    for dom, row in small:
        pos = {e: j for j, e in enumerate(dom)}
        plans = [(sym, u, ts, [(i, pos[e]) for i, e in enumerate(u) if e in pos],
                  [(i,) + ext(dom, e) for i, e in enumerate(u) if e not in pos])
                 for sym, u, ts in scopes]
        for v, key in row.items():
            f = key[1]
            for sym, u, ts, fixed, free in plans:
                usable = [t for t in ts if all(t[i] == v[j] for i, j in fixed)]
                lams = [lam_key(f, sym, u, t) for t in usable]
                for lam in lams:
                    lp.add_variable(lam, 0)
                lp.add_constraint({key: -1, **dict.fromkeys(lams, 1)}, EQ, 0)
                for i, j, up in free:
                    for a in tvals:
                        coeffs = {}
                        g = up.get(v[:j] + (a,) + v[j:])
                        if g:
                            coeffs[g] = -1
                        for t, lam in zip(usable, lams):
                            if t[i] == a:
                                coeffs[lam] = 1
                        if coeffs:
                            lp.add_constraint(coeffs, EQ, 0)
    return lp


def solve_sa(instance: Structure, template: Structure, k: int,
             budget: int = DEFAULT_MAP_BUDGET) -> Verdict:
    return feasible(build_sa(instance, template, k, budget))


def leq_sa(instance: Structure, template: Structure, k: int,
           budget: int = DEFAULT_MAP_BUDGET) -> bool:
    return solve_sa(instance, template, k, budget).feasible


def sa_solution(point: Dict) -> Dict:
    """Restrict a solver point to the x-variables, keyed by partial map."""
    return {key[1]: val for key, val in point.items() if key[0] == "x"}


def strategy_from_solution(sol: Dict) -> Strategy:
    """The nonzero-support family; a k-strategy whenever sol is feasible."""
    return Strategy.from_maps(f for f, v in sol.items() if v != 0)


def condition_on(sol: Dict, v: int, b: int) -> Dict:
    """Condition a level-2 solution on the event v -> b.

    Returns a level-1 assignment x_{u->a} = x_{u->a, v->b} / d where
    d = x_{v->b}; requires d > 0.  The conditioned point fixes x_{v->b} = 1.
    """
    d = sol.get(((v, b),), Fraction(0))
    if d <= 0:
        raise ValueError("cannot condition on zero-probability value")
    out = {(): Fraction(1)}
    elements = set(e for f in sol for e, _ in f)
    values = set(a for f in sol for _, a in f)
    for u in elements:
        for a in values:
            if u == v:
                out[((u, a),)] = Fraction(1) if a == b else Fraction(0)
            else:
                joint = sol.get(partial_map(((u, a), (v, b))), Fraction(0))
                out[((u, a),)] = joint / d
    return out


def check_sa1(instance: Structure, template: Structure, sol1: Dict) -> bool:
    """Exact check that a level-1 x-assignment extends to a feasible point."""
    lp = build_sa(instance, template, 1)
    for key in list(lp.variables):
        if key[0] == "x":
            lp.add_constraint({key: 1}, EQ, sol1.get(key[1], Fraction(0)))
    return feasible(lp).feasible


def format_certificate(point: Dict) -> str:
    lines = []
    for key in sorted(point, key=repr):
        val = point[key]
        if key[0] == "x":
            name = "x[%s]" % ",".join("%d:%d" % (e, a) for e, a in key[1])
        else:
            _, f, sym, u, t = key
            name = "lam[%s|%s%s->%s]" % (
                ",".join("%d:%d" % (e, a) for e, a in f), sym,
                "(%s)" % ",".join(map(str, u)), "(%s)" % ",".join(map(str, t)))
        lines.append("%s = %s" % (name, Fraction(val)))
    return "\n".join(lines) + "\n"


def parse_certificate(text: str) -> Dict[str, Fraction]:
    """Inverse of format_certificate up to key rendering: name -> value."""
    out = {}
    for ln in text.splitlines():
        ln = ln.strip()
        if not ln:
            continue
        name, _, val = ln.rpartition(" = ")
        if not name:
            raise ValueError("expected '<name> = <p/q>': %r" % ln)
        out[name] = Fraction(val)
    return out
