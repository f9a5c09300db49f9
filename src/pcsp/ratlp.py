"""Exact rational linear-program feasibility.

Variables are symbolic keys; all arithmetic is over ``fractions.Fraction``,
so verdicts are exact and feasible points satisfy every constraint with zero
tolerance.  The method is phase-I simplex on the standard-form system, using
a largest-coefficient pivot rule that falls back to Bland's rule after a run
of degenerate pivots (guaranteeing termination).
"""

from dataclasses import dataclass, field
from fractions import Fraction
from typing import Dict, List, Optional, Tuple

from .errors import PcspError

LEQ = "<="
EQ = "="
GEQ = ">="

DEGENERATE_SWITCH = 40


@dataclass
class RationalLP:
    """A feasibility system: constraints plus optional per-variable bounds."""

    variables: List = field(default_factory=list)
    constraints: List[Tuple[Dict, str, Fraction]] = field(default_factory=list)
    lower: Dict = field(default_factory=dict)
    upper: Dict = field(default_factory=dict)
    _index: Dict = field(default_factory=dict)

    def add_variable(self, key, lower=None, upper=None):
        if key in self._index:
            raise ValueError("duplicate variable %r" % (key,))
        self._index[key] = len(self.variables)
        self.variables.append(key)
        if lower is not None:
            self.lower[key] = Fraction(lower)
        if upper is not None:
            self.upper[key] = Fraction(upper)

    def add_constraint(self, coeffs, rel, rhs):
        if rel not in (LEQ, EQ, GEQ):
            raise ValueError("relation must be one of <=, =, >=")
        clean = {}
        for key, c in coeffs.items():
            if key not in self._index:
                raise ValueError("unknown variable %r" % (key,))
            c = Fraction(c)
            if c:
                clean[key] = c
        self.constraints.append((clean, rel, Fraction(rhs)))

    def dump(self) -> str:
        lines = ["min 0 subject to:"]
        for coeffs, rel, rhs in self.constraints:
            terms = " ".join("%s*%s" % (c, k) for k, c in sorted(
                coeffs.items(), key=lambda kv: str(kv[0])))
            lines.append("%s %s %s" % (terms or "0", rel, rhs))
        for key in self.variables:
            lo = self.lower.get(key)
            hi = self.upper.get(key)
            if lo is not None or hi is not None:
                lines.append("%s <= %s <= %s" % (
                    "-inf" if lo is None else lo, key,
                    "+inf" if hi is None else hi))
        return "\n".join(lines) + "\n"


@dataclass(frozen=True)
class Verdict:
    feasible: bool
    point: Optional[Dict] = None


def _standard_form(lp: RationalLP):
    """Rewrite to A z = b, z >= 0, b >= 0.

    Returns (rows, rhs, n_struct, recover) where ``recover`` maps a standard
    z-vector back to original variable values.
    """
    # column plan: each original variable becomes either (shifted by its
    # lower bound) one column, or (free) a pair of columns
    col_of = {}
    shift = {}
    pair_neg = {}
    ncols = 0
    extra_rows = []
    for key in lp.variables:
        lo = lp.lower.get(key)
        hi = lp.upper.get(key)
        if lo is not None:
            col_of[key] = ncols
            shift[key] = lo
            ncols += 1
            if hi is not None:
                extra_rows.append(({key: Fraction(1)}, LEQ, hi))
        else:
            col_of[key] = ncols
            pair_neg[key] = ncols + 1
            shift[key] = Fraction(0)
            ncols += 2
            if hi is not None:
                extra_rows.append(({key: Fraction(1)}, LEQ, hi))

    rows = []
    rhs = []
    slack_cols = []  # per row: (col, sign) of its slack, or None
    for coeffs, rel, b in list(lp.constraints) + extra_rows:
        row = {}
        for key, c in coeffs.items():
            row[col_of[key]] = row.get(col_of[key], Fraction(0)) + c
            if key in pair_neg:
                row[pair_neg[key]] = row.get(pair_neg[key], Fraction(0)) - c
            b -= c * shift[key]
        if rel == LEQ:
            slack_cols.append((ncols, Fraction(1)))
            row[ncols] = Fraction(1)
            ncols += 1
        elif rel == GEQ:
            slack_cols.append((ncols, Fraction(-1)))
            row[ncols] = Fraction(-1)
            ncols += 1
        else:
            slack_cols.append(None)
        rows.append({c: v for c, v in row.items() if v})
        rhs.append(b)

    # make rhs nonnegative
    for i in range(len(rows)):
        if rhs[i] < 0:
            rows[i] = {c: -v for c, v in rows[i].items()}
            rhs[i] = -rhs[i]
            if slack_cols[i] is not None:
                slack_cols[i] = (slack_cols[i][0], -slack_cols[i][1])

    def recover(z):
        point = {}
        for key in lp.variables:
            val = z.get(col_of[key], Fraction(0)) + shift[key]
            if key in pair_neg:
                val -= z.get(pair_neg[key], Fraction(0))
            point[key] = val
        return point

    return rows, rhs, ncols, slack_cols, recover


RHS = -1  # pseudo-column holding the right-hand side inside each integer row


def _phase1(fr_rows, fr_rhs, ncols, slack_cols):
    """Minimize the sum of artificials; returns a basic z-vector or None.

    Fraction-free: every row is an integer dict (with the rhs at pseudo-column
    RHS) standing for the true row divided by its positive basic coefficient;
    pivots keep everything integral and divide out gcds to limit growth.
    """
    from math import gcd, lcm

    m = len(fr_rows)
    rows = []
    for i in range(m):
        den = lcm(fr_rhs[i].denominator,
                  *[v.denominator for v in fr_rows[i].values()] or [1])
        row = {c: int(v * den) for c, v in fr_rows[i].items()}
        row[RHS] = int(fr_rhs[i] * den)
        rows.append(row)

    basis = [None] * m
    # slacks with +1 sign can serve as the initial basic variable of their row
    art_cols = []
    for i in range(m):
        sc = slack_cols[i]
        if sc is not None and sc[1] == 1:
            basis[i] = sc[0]
        else:
            basis[i] = ncols + len(art_cols)
            art_cols.append(basis[i])
            # any positive coefficient works: it only rescales the artificial
            rows[i][basis[i]] = 1
    art_set = set(art_cols)

    def art_rows_zero():
        return all(rows[i].get(RHS, 0) == 0 for i in range(m) if basis[i] in art_set)

    # reduced-cost row for cost = sum of artificials, as an integer row;
    # positive entry on a structural column means pivoting it in reduces cost
    obj = {}
    for i in range(m):
        if basis[i] in art_set:
            p = rows[i][basis[i]]
            for c, v in rows[i].items():
                obj[c] = obj.get(c, Fraction(0)) + Fraction(v, p)
    for c in art_set:
        obj[c] = obj.get(c, Fraction(0)) - 1
    den = 1
    for v in obj.values():
        den = lcm(den, v.denominator)
    obj = {c: int(v * den) for c, v in obj.items() if v}

    degenerate_run = 0
    while not art_rows_zero():
        candidates = [(c, v) for c, v in obj.items()
                      if v > 0 and c >= 0 and c not in art_set]
        # nonbasic artificials never need to re-enter
        if not candidates:
            break
        if degenerate_run >= DEGENERATE_SWITCH:
            entering = min(c for c, _ in candidates)
        else:
            entering = max(candidates, key=lambda cv: (cv[1], -cv[0]))[0]

        # ratio test: minimize rhs/a over rows with positive entering entry,
        # compared by cross-multiplication; ties broken by smallest basic var
        leave = None
        bn = bd = None
        for i in range(m):
            a = rows[i].get(entering)
            if a and a > 0:
                r = rows[i].get(RHS, 0)
                if leave is None or r * bd < bn * a or (
                        r * bd == bn * a and basis[i] < basis[leave]):
                    bn, bd, leave = r, a, i
        if leave is None:
            raise PcspError("phase-I objective unbounded; malformed system")
        degenerate_run = degenerate_run + 1 if bn == 0 else 0

        _pivot(rows, obj, basis, leave, entering)

    if not art_rows_zero():
        return None
    # drive any remaining (degenerate) artificials out of the basis
    for i in range(m):
        if basis[i] in art_set:
            entering = None
            for c, v in rows[i].items():
                if 0 <= c < ncols and v:
                    entering = c
                    break
            if entering is not None:
                if rows[i][entering] < 0:
                    rows[i] = {c: -v for c, v in rows[i].items()}
                _pivot(rows, obj, basis, i, entering)
            # else the row is redundant; its artificial stays at value 0
    z = {}
    for i in range(m):
        b = basis[i]
        if b is not None and b < ncols and b not in art_set:
            z[b] = Fraction(rows[i].get(RHS, 0), rows[i][b])
    return z


def _eliminate(row, a, p, items):
    """row := (p*row - a*prow) / gcd, in place."""
    from math import gcd

    for c in row:
        row[c] *= p
    for c, v in items:
        nv = row.get(c, 0) - a * v
        if nv:
            row[c] = nv
        elif c in row:
            del row[c]
    g = 0
    for v in row.values():
        g = gcd(g, v)
    if g > 1:
        for c in row:
            row[c] //= g


def _pivot(rows, obj, basis, leave, entering):
    prow = rows[leave]
    p = prow[entering]
    if p < 0:
        prow = {c: -v for c, v in prow.items()}
        rows[leave] = prow
        p = -p
    items = list(prow.items())
    for i in range(len(rows)):
        if i == leave:
            continue
        a = rows[i].get(entering)
        if a:
            _eliminate(rows[i], a, p, items)
    a = obj.get(entering)
    if a:
        _eliminate(obj, a, p, items)
    basis[leave] = entering


def feasible(lp: RationalLP) -> Verdict:
    """Exact feasibility verdict; a feasible verdict carries a witness point."""
    rows, rhs, ncols, slack_cols, recover = _standard_form(lp)
    z = _phase1(rows, rhs, ncols, slack_cols)
    if z is None:
        return Verdict(False)
    point = recover(z)
    if not check_point(lp, point):
        raise PcspError("internal error: simplex point fails a constraint")
    return Verdict(True, point)


def check_point(lp: RationalLP, point) -> bool:
    """Exact satisfaction check of every constraint and bound."""
    for coeffs, rel, rhs in lp.constraints:
        val = sum((c * point[k] for k, c in coeffs.items()), Fraction(0))
        if rel == LEQ and val > rhs:
            return False
        if rel == GEQ and val < rhs:
            return False
        if rel == EQ and val != rhs:
            return False
    for key, lo in lp.lower.items():
        if point[key] < lo:
            return False
    for key, hi in lp.upper.items():
        if point[key] > hi:
            return False
    return True


def feasible_by_basis_enumeration(lp: RationalLP) -> Verdict:
    """Brute-force oracle: test all n-subsets of constraint boundaries.

    Valid when the feasible region, if nonempty, has a vertex; callers ensure
    this by bounding every variable.  Intended for small test LPs only.
    """
    from itertools import combinations

    keys = list(lp.variables)
    n = len(keys)
    idx = {k: i for i, k in enumerate(keys)}

    hyperplanes = []
    checks = []
    for coeffs, rel, rhs in lp.constraints:
        vec = [Fraction(0)] * n
        for k, c in coeffs.items():
            vec[idx[k]] += c
        hyperplanes.append((vec, rhs))
        checks.append((vec, rel, rhs))
    for k in keys:
        if k in lp.lower:
            vec = [Fraction(0)] * n
            vec[idx[k]] = Fraction(1)
            hyperplanes.append((vec, lp.lower[k]))
            checks.append((vec, GEQ, lp.lower[k]))
        if k in lp.upper:
            vec = [Fraction(0)] * n
            vec[idx[k]] = Fraction(1)
            hyperplanes.append((vec, lp.upper[k]))
            checks.append((vec, LEQ, lp.upper[k]))

    def satisfies(x):
        for vec, rel, rhs in checks:
            val = sum(a * b for a, b in zip(vec, x))
            if rel == LEQ and val > rhs:
                return False
            if rel == GEQ and val < rhs:
                return False
            if rel == EQ and val != rhs:
                return False
        return True

    if n == 0:
        ok = satisfies([])
        return Verdict(ok, {} if ok else None)

    for subset in combinations(range(len(hyperplanes)), n):
        mat = [list(hyperplanes[i][0]) + [hyperplanes[i][1]] for i in subset]
        x = _solve_square(mat, n)
        if x is not None and satisfies(x):
            return Verdict(True, {k: x[idx[k]] for k in keys})
    return Verdict(False)


def _solve_square(mat, n):
    """Gaussian elimination on an n x (n+1) augmented matrix; None if singular."""
    mat = [row[:] for row in mat]
    for col in range(n):
        piv = None
        for r in range(col, n):
            if mat[r][col]:
                piv = r
                break
        if piv is None:
            return None
        mat[col], mat[piv] = mat[piv], mat[col]
        pv = mat[col][col]
        mat[col] = [v / pv for v in mat[col]]
        for r in range(n):
            if r != col and mat[r][col]:
                f = mat[r][col]
                mat[r] = [a - f * b for a, b in zip(mat[r], mat[col])]
    return [mat[r][n] for r in range(n)]
