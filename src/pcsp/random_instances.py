"""Sparse random hypergraph instances and their certificates.

Samples r-uniform instances at edge probability d/n^(r-1), checks
(alpha, beta)-sparsity exactly or heuristically, finds disjoint boundary
sets, derives parameter settings, and evaluates the probability bounds
p1/p2 and the Chernoff-style tail bound.  All probability formulas are
evaluated in interval arithmetic, and the upper end of the interval is
rounded up to a working-precision mpf, so "bound holds" verdicts are
conservative.
"""

from dataclasses import dataclass, field
from fractions import Fraction
from heapq import heapify, heappop, heappush
from itertools import combinations
from typing import Dict, Optional, Tuple

from mpmath import iv, mpf

from .core import (
    Signature,
    Structure,
    enumerate_homomorphisms,
    hom_search,
    induced_substructure,
)
from .errors import BudgetExceededError
from .seeds import derive_rng, derive_seed

iv.prec = 96

GENERAL = "general"
DIGRAPH = "digraph"

EXACT_SPARSITY_LIMIT = 16


def _ivnum(x):
    if isinstance(x, Fraction):
        return iv.mpf(x.numerator) / iv.mpf(x.denominator)
    return iv.mpf(x)


def _upper(x):
    """The upper end of an interval, rounded up to an mpf of working precision."""
    return mpf(x.b, rounding="u")


# ---------------------------------------------------------------------------
# Probability bounds


def p1(r: int, d, n: int, q: int):
    """Upper bound on P[sample is homomorphic to a q-element loopless target]."""
    if r < 2 or n < 1 or q < 1:
        raise ValueError("need r >= 2, n >= 1, q >= 1")
    d = _ivnum(d)
    expo = -(d * n) / (iv.mpf(r) ** r * iv.mpf(q) ** (r - 1))
    return _upper(iv.mpf(q) ** n * iv.exp(expo))


def p2(r: int, d, n: int, alpha, beta):
    """Upper bound on P[sample is not (alpha, beta)-sparse].

    The sum over v = 1..floor(alpha*n) of base(v)^v, where base(v) is
    (n/v)^(1-(r-1)beta) d^beta e^(1+(r+1)beta) r^(-r beta) beta^(-beta).
    """
    if r < 2 or n < 1:
        raise ValueError("need r >= 2, n >= 1")
    d, alpha_, beta_ = _ivnum(d), _ivnum(alpha), _ivnum(beta)
    vmax = int(Fraction(alpha) * n) if isinstance(alpha, (int, Fraction)) \
        else int(_upper(alpha_ * n))
    # the four factors after (n/v)^e do not depend on v; each base keeps the
    # formula's left-to-right product, so every term is the formula's interval
    nn = iv.mpf(n)
    e = 1 - (r - 1) * beta_
    f2 = d ** beta_
    f3 = iv.exp(1 + (r + 1) * beta_)
    f4 = iv.mpf(r) ** (-r * beta_)
    f5 = beta_ ** (-beta_)
    total = iv.mpf(0)
    for v in range(1, vmax + 1):
        total += ((nn / v) ** e * f2 * f3 * f4 * f5) ** v
    return _upper(total)


def chernoff_bound(m: int, gamma, t):
    """The tail bound (e*gamma/t)^(t*m) for the upper binomial tail at t*m."""
    if m < 1:
        raise ValueError("need m >= 1")
    gamma_, t_ = _ivnum(gamma), _ivnum(t)
    if not (0 <= Fraction(gamma) <= 1):
        raise ValueError("gamma must be in [0, 1]")
    if not (Fraction(gamma) < Fraction(t) <= 1):
        raise ValueError("t must be in (gamma, 1]")
    return _upper((iv.e * gamma_ / t_) ** (t_ * m))


def binomial_tail(m: int, gamma: Fraction, t: Fraction) -> Fraction:
    """Exact P[Bin(m, gamma) >= ceil(t*m)], for cross-checking the bound."""
    from math import ceil, comb

    lo = ceil(t * m)
    total = Fraction(0)
    for i in range(lo, m + 1):
        total += comb(m, i) * gamma ** i * (1 - gamma) ** (m - i)
    return total


# ---------------------------------------------------------------------------
# Sampling and sparsity


def hypergraph_signature(r: int) -> Signature:
    return Signature((("R", r),))


def sample_hypergraph(n: int, r: int, d, seed: int) -> Structure:
    """Each r-subset becomes a tuple (ascending order) with probability d/n^(r-1)."""
    if r < 2:
        raise ValueError("need r >= 2")
    sig = hypergraph_signature(r)
    if n < r:
        return Structure(sig, max(n, 0), (("R", ()),), "sample")
    try:
        prob = Fraction(d) / n ** (r - 1)
    except TypeError:
        prob = Fraction(float(d)) / n ** (r - 1)
    if prob > 1 or prob < 0:
        raise ValueError("edge probability %s outside [0, 1]" % prob)
    rng = derive_rng(seed, "hypergraph", n, r)
    p = float(prob)
    tups = tuple(c for c in combinations(range(n), r) if rng.random() < p)
    return Structure(sig, n, (("R", tups),), "sample")


@dataclass(frozen=True)
class SparsityVerdict:
    sparse: bool
    witness: Optional[Tuple[int, ...]]
    exact: bool


def _tuple_count_within(struct: Structure, subset) -> int:
    sset = set(subset)
    count = 0
    for _, tups in struct.relations:
        for t in tups:
            if all(x in sset for x in t):
                count += 1
    return count


def is_alpha_beta_sparse(struct: Structure, alpha, beta,
                         exact_limit: int = EXACT_SPARSITY_LIMIT) -> SparsityVerdict:
    """Every v-element substructure with v <= alpha*n has < beta*v tuples.

    Exact subset enumeration when the domain is small; otherwise a peeling
    heuristic in O(m log n) time for m tuples, whose witnesses are always
    sound but whose "sparse" answers are not certificates (exact=False).
    """
    alpha = Fraction(alpha)
    beta = Fraction(beta)
    if alpha <= 0 or beta <= 0:
        raise ValueError("alpha and beta must be positive")
    n = struct.n
    vmax = min(n, int(alpha * n))
    if n <= exact_limit:
        for v in range(1, vmax + 1):
            for subset in combinations(range(n), v):
                if _tuple_count_within(struct, subset) >= beta * v:
                    return SparsityVerdict(False, subset, True)
        return SparsityVerdict(True, None, True)

    # heuristic: peel minimum-degree elements (ties by element) from the
    # support and test every intermediate subset that is small enough; a
    # heap of (degree, element) entries finds the minimum, and an entry
    # whose element is gone or whose degree has dropped since is skipped
    a, b = beta.numerator, beta.denominator
    degree = [0] * n
    incident = [[] for _ in range(n)]
    all_tuples = []
    for _, tups in struct.relations:
        for t in tups:
            members = tuple(set(t))
            for x in members:
                degree[x] += 1
                incident[x].append(len(all_tuples))
            all_tuples.append(members)
    live = bytearray(n)
    heap = []
    for x in range(n):
        if degree[x]:
            live[x] = 1
            heap.append((degree[x], x))
    heapify(heap)
    alive = bytearray(b"\x01") * len(all_tuples)
    count = len(all_tuples)
    v = len(heap)
    while v:
        if v <= vmax and count * b >= a * v:
            witness = tuple(x for x in range(n) if live[x])
            return SparsityVerdict(False, witness, False)
        deg, x = heappop(heap)
        while not live[x] or deg != degree[x]:
            deg, x = heappop(heap)
        live[x] = 0
        v -= 1
        for ti in incident[x]:
            if alive[ti]:
                alive[ti] = 0
                count -= 1
                for y in all_tuples[ti]:
                    if live[y]:
                        degree[y] -= 1
                        heappush(heap, (degree[y], y))
    return SparsityVerdict(True, None, False)


# ---------------------------------------------------------------------------
# Parameters


@dataclass(frozen=True)
class ParameterSet:
    r: int
    k: int
    p: int
    q: int
    n: int
    mode: str
    delta: Fraction
    beta: Fraction
    alpha: Fraction
    c: Fraction
    d: object  # exact Fraction or an mpf when transcendental
    delta_prime: Optional[Fraction] = None
    forced_delta: bool = False  # user-supplied delta not backed by the recipe
    conditions: Dict[str, bool] = field(default_factory=dict)


def derive_parameters(r: int, p: int, q: int, n: int, eps,
                      mode: str = GENERAL, gamma=None,
                      delta=None, d=None) -> ParameterSet:
    """Fill every parameter by the standard recipes and evaluate all conditions.

    General mode: delta and beta at their upper bounds, d = r^r q^(r-1) ln(2q),
    alpha = eps*p/(delta*beta), k = floor(eps*n), c = k*p/delta.  Digraph mode
    (r = 2): delta strictly between eps/(1-eps-gamma) and 1/2, beta = 1+delta,
    d = 5q*ln(q), alpha = (C/d)^((1+delta)/delta), c = k*p/delta_prime.
    A caller-forced delta is accepted but flagged as unsupported.  A given
    d replaces the recipe's edge density before the conditions are
    evaluated; every other parameter still follows the recipe's d.
    """
    eps = Fraction(eps)
    if not (0 < eps < 1):
        raise ValueError("eps must be in (0, 1)")
    k = max(1, int(eps * n))
    forced = delta is not None
    if mode == GENERAL:
        if delta is None:
            delta = Fraction(1, (r + 1) * (3 * r + 1))
        else:
            delta = Fraction(delta)
        beta = (1 + delta) / Fraction(r - 1)
        recipe_d = _upper(iv.mpf(r) ** r * iv.mpf(q) ** (r - 1) * iv.ln(2 * q))
        alpha = eps * p / (delta * beta)
        c = Fraction(k) * p / delta
        delta_prime = None
    elif mode == DIGRAPH:
        if r != 2:
            raise ValueError("digraph mode requires r = 2")
        if q < 2:
            raise ValueError("digraph recipe needs q >= 2")
        gamma = Fraction(gamma if gamma is not None else 0)
        if gamma >= 1 - 3 * eps:
            raise ValueError("need gamma < 1 - 3*eps")
        delta0 = eps / (1 - eps - gamma)
        if delta is None:
            delta = (delta0 + Fraction(1, 2)) / 2
        else:
            delta = Fraction(delta)
        beta = 1 + delta
        delta_prime = (1 - 2 * delta) / (6 * (1 + delta))
        recipe_d = _upper(5 * iv.mpf(q) * iv.ln(q))
        dd = _ivnum(recipe_d)
        cconst = ((1 + _ivnum(delta))
                  * iv.mpf(4) ** (_ivnum(delta) / _ivnum(1 + delta))
                  * iv.exp(_ivnum(Fraction(-4) - 3 * delta) / _ivnum(1 + delta)))
        alpha_iv = (cconst / dd) ** (_ivnum(1 + delta) / _ivnum(delta))
        # round down (to 53 bits, exactly): a smaller alpha only weakens
        # the sparsity claim
        man, exp = mpf(alpha_iv.a, rounding="d").man_exp
        alpha = Fraction(man) * Fraction(2) ** exp
        c = Fraction(k) * p / delta_prime
    else:
        raise ValueError("mode must be %r or %r" % (GENERAL, DIGRAPH))
    ps = ParameterSet(r=r, k=k, p=p, q=q, n=n, mode=mode, delta=delta,
                      beta=beta, alpha=alpha, c=c,
                      d=recipe_d if d is None else d,
                      delta_prime=delta_prime, forced_delta=forced)
    object.__setattr__(ps, "conditions", check_conditions(ps))
    return ps


def check_conditions(ps: ParameterSet) -> Dict[str, bool]:
    """Evaluate every applicable condition; C7 is rounded conservatively."""
    out = {}
    r, n = ps.r, ps.n
    d_iv = _ivnum(ps.d)
    if ps.mode == GENERAL:
        out["C1"] = 0 < ps.delta <= Fraction(1, (r + 1) * (3 * r + 1))
        out["C4"] = ps.c >= Fraction(ps.k) * ps.p / ps.delta
    else:
        out["C1'"] = 0 < ps.delta < Fraction(1, 2)
        out["C4'"] = ps.c >= Fraction(ps.k) * ps.p / ps.delta_prime
    out["C2"] = 0 < ps.beta <= (1 + ps.delta) / Fraction(r - 1)
    rhs = (_ivnum(ps.beta) / d_iv) ** (iv.mpf(1) / (r - 1)) \
        * (iv.mpf(r) / iv.e) ** (iv.mpf(r) / (r - 1))
    out["C3"] = ps.alpha > 0 and _ivnum(ps.alpha).b <= rhs.a
    out["C5"] = n >= ps.c / (ps.alpha * ps.beta) and n >= ps.q
    out["C6"] = bool(d_iv.a >= 1 and d_iv.b <= n ** (r - 1))
    bound = p1(r, ps.d, n, ps.q) + p2(r, ps.d, n, ps.alpha, ps.beta)
    out["C7"] = bool(bound < 1)
    return out


# ---------------------------------------------------------------------------
# Boundary sets


def degrees(struct: Structure) -> Dict[int, int]:
    deg = {x: 0 for x in range(struct.n)}
    for _, tups in struct.relations:
        for t in tups:
            for x in set(t):
                deg[x] += 1
    return deg


def _boundary_candidates(struct: Structure, r: int):
    """Canonical type-(1)/(2) candidate sets with their witness tuples."""
    deg = degrees(struct)
    tuples = []
    for _, tups in struct.relations:
        tuples.extend(tups)
    out = []
    for t in tuples:
        ones = sorted(x for x in set(t) if deg[x] == 1)
        if len(ones) >= r - 1:
            out.append((frozenset(ones[:r - 1]), 1, (t,)))
    for t1, t2 in combinations(tuples, 2):
        shared = [z for z in set(t1) & set(t2) if deg[z] == 2]
        for z in sorted(shared):
            xs = sorted(x for x in set(t1) if deg[x] == 1 and x != z)
            ys = sorted(y for y in set(t2) if deg[y] == 1 and y != z)
            if len(xs) >= r - 2 and len(ys) >= r - 2:
                d_set = frozenset(xs[:r - 2] + ys[:r - 2] + [z])
                if len(d_set) == 2 * (r - 2) + 1:
                    out.append((d_set, 2, (t1, t2)))
    return out


def _max_disjoint(candidates, exact_limit: int = 20):
    """Largest pairwise-disjoint subfamily; exact below the limit, else greedy."""
    if len(candidates) <= exact_limit:
        best = []

        def rec(i, chosen, used):
            nonlocal best
            if len(chosen) + (len(candidates) - i) <= len(best):
                return
            if i == len(candidates):
                if len(chosen) > len(best):
                    best = list(chosen)
                return
            d_set = candidates[i][0]
            if not (d_set & used):
                chosen.append(candidates[i])
                rec(i + 1, chosen, used | d_set)
                chosen.pop()
            rec(i + 1, chosen, used)

        rec(0, [], frozenset())
        return best
    chosen = []
    used = set()
    for cand in candidates:
        if not (cand[0] & used):
            chosen.append(cand)
            used |= cand[0]
    return chosen


def find_boundary_sets(struct: Structure, r: int):
    """A maximal family of pairwise-disjoint type-(1)/(2) candidate sets.

    Each entry is (element set, type tag, witness tuples).
    """
    return _max_disjoint(_boundary_candidates(struct, r))


def is_boundary_set(struct: Structure, d_set, template: Structure,
                    budget: int = 200_000) -> bool:
    """Every homomorphism of the structure minus D extends to the whole.

    Brute-force semantic check; D must be a nonempty subset of the domain.
    """
    d_set = set(d_set)
    if not d_set:
        raise ValueError("boundary set must be nonempty")
    rest = [x for x in range(struct.n) if x not in d_set]
    sub, index_map = induced_substructure(struct, rest)
    if template.n ** sub.n > budget:
        raise BudgetExceededError("extension check needs %d^%d enumerations"
                                  % (template.n, sub.n))
    for g in enumerate_homomorphisms(sub, template):
        fixed = {index_map[i]: g[i] for i in range(sub.n)}
        if hom_search(struct, template, fixed=fixed) is None:
            return False
    return True


def density_premise_holds(struct: Structure, r: int, delta: Fraction,
                          c, tuple_budget: int = 18) -> bool:
    """Every tuple subset of size m <= c spans more than (r-1)m/(1+delta) elements.

    Exhaustive over subsets of tuples; this is the worst case over all
    substructures since extra elements only help.
    """
    tuples = []
    for _, tups in struct.relations:
        tuples.extend(tups)
    if len(tuples) > tuple_budget:
        raise BudgetExceededError("too many tuples for exhaustive check")
    mmax = min(len(tuples), int(c))
    for m in range(1, mmax + 1):
        for chosen in combinations(tuples, m):
            v = len(set(x for t in chosen for x in t))
            if Fraction(v) <= Fraction(r - 1) * m / (1 + delta):
                return False
    return True


# ---------------------------------------------------------------------------
# End-to-end generation


def generate_hard_instance(left: Structure, right: Structure, n: int,
                           params: ParameterSet, seed: int, attempts: int):
    """Rejection-sample until not homomorphic to the right side and sparse.

    Returns (instance_or_None, diagnostics); diagnostics carries the per
    attempt records plus empirical hom/density frequencies for comparison
    against the p1/p2 bounds.
    """
    sym, ar = right.signature.symbols[0]
    if ar != params.r:
        raise ValueError("template arity %d does not match r=%d"
                         % (ar, params.r))
    records = []
    result = None
    for i in range(attempts):
        raw = sample_hypergraph(n, params.r, params.d,
                                derive_seed(seed, "attempt", i))
        inst = Structure(right.signature, n, ((sym, raw.rel("R")),),
                         raw.name)
        hom = hom_search(inst, right) is not None
        verdict = is_alpha_beta_sparse(inst, params.alpha, params.beta)
        records.append({
            "attempt": i,
            "hom_found": hom,
            "sparse": verdict.sparse,
            "exact": verdict.exact,
            "reason": "ok" if (not hom and verdict.sparse) else
                      ("hom" if hom else "dense"),
        })
        if not hom and verdict.sparse:
            result = inst
            break
    tried = len(records)
    diagnostics = {
        "attempts": records,
        "tried": tried,
        "hom_fraction": (sum(r["hom_found"] for r in records) / tried
                         if tried else 0.0),
        "dense_fraction": (sum(not r["sparse"] for r in records) / tried
                           if tried else 0.0),
    }
    return result, diagnostics
