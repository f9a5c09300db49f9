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

from fractions import Fraction
from typing import Dict

from .consistency import Strategy, partial_homs, partial_map
from .core import Structure
from .ratlp import EQ, RationalLP, Verdict, feasible

DEFAULT_VAR_BUDGET = 200_000


def x_key(f):
    return ("x", f)


def lam_key(f, sym, u, t):
    return ("lam", f, sym, u, t)


def _consistent_templates(f_dict, u, template_tuples):
    """Template tuples usable as the image of scope u under extension of f.

    A tuple t qualifies if it agrees with f on positions whose element is
    already assigned, and is constant on positions holding the same element.
    """
    ok = []
    for t in template_tuples:
        seen = {}
        good = True
        for i, e in enumerate(u):
            if e in f_dict and t[i] != f_dict[e]:
                good = False
                break
            if e in seen and t[i] != seen[e]:
                good = False
                break
            seen[e] = t[i]
        if good:
            ok.append(t)
    return ok


def build_sa(instance: Structure, template: Structure, k: int,
             budget: int = DEFAULT_VAR_BUDGET) -> RationalLP:
    """The level-k relaxation as an exact rational LP."""
    if k < 1:
        raise ValueError("level must be >= 1")
    if instance.signature != template.signature:
        raise ValueError("common signature required")
    homs = partial_homs(instance, template, k, budget)
    hom_set = set(homs)

    lp = RationalLP()
    for f in homs:
        lp.add_variable(x_key(f), 0)

    # normalization
    lp.add_constraint({x_key(()): 1}, EQ, 1)

    kk = min(k, instance.n)
    small = [f for f in homs if len(f) < kk]

    # marginalization: summing the extensions of f by one element gives x_f
    for f in small:
        dom = set(e for e, _ in f)
        for u in range(instance.n):
            if u in dom:
                continue
            coeffs = {x_key(f): Fraction(-1)}
            for a in range(template.n):
                g = partial_map(f + ((u, a),))
                if g in hom_set:
                    coeffs[x_key(g)] = coeffs.get(x_key(g), Fraction(0)) + 1
            lp.add_constraint(coeffs, EQ, 0)

    # scope constraints: the image of each constraint tuple, conditioned on
    # f, is a convex combination of template tuples weighted x_f
    for f in small:
        f_dict = dict(f)
        for sym, tups in instance.relations:
            ttuples = template.rel(sym)
            for u in tups:
                usable = _consistent_templates(f_dict, u, ttuples)
                for t in usable:
                    lp.add_variable(lam_key(f, sym, u, t), 0)
                coeffs = {x_key(f): Fraction(-1)}
                for t in usable:
                    coeffs[lam_key(f, sym, u, t)] = Fraction(1)
                lp.add_constraint(coeffs, EQ, 0)
                for i, e in enumerate(u):
                    if e in f_dict:
                        continue  # forced: lambda support already agrees with f
                    for a in range(template.n):
                        g = partial_map(f + ((e, a),))
                        coeffs = {}
                        if g in hom_set:
                            coeffs[x_key(g)] = Fraction(-1)
                        for t in usable:
                            if t[i] == a:
                                coeffs[lam_key(f, sym, u, t)] = Fraction(1)
                        if coeffs:
                            lp.add_constraint(coeffs, EQ, 0)
    return lp


def solve_sa(instance: Structure, template: Structure, k: int,
             budget: int = DEFAULT_VAR_BUDGET) -> Verdict:
    return feasible(build_sa(instance, template, k, budget))


def leq_sa(instance: Structure, template: Structure, k: int,
           budget: int = DEFAULT_VAR_BUDGET) -> bool:
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
