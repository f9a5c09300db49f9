"""Exact rational linear-program feasibility.

Variables are symbolic keys; all arithmetic is over ``fractions.Fraction``,
so verdicts are exact and feasible points satisfy every constraint with zero
tolerance.  The method is phase-I simplex on the standard-form system, using
a largest-coefficient pivot rule that falls back to Bland's rule after a run
of degenerate pivots (guaranteeing termination).
"""

from dataclasses import dataclass, field
from fractions import Fraction
from math import gcd, lcm
from typing import Dict, List, Optional, Tuple

from .errors import InternalError

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

    Fraction-free: every row is an integer dict, with its rhs at the
    pseudo-column RHS, equal to the true row (basic coefficient 1) times a
    positive scale; zero entries are never stored.  Artificial columns are
    not stored either: an artificial that leaves the basis never re-enters,
    so its column is never read.  ``obj`` is the phase-I reduced-cost row
    times a positive scale, so ``obj[RHS]`` is the scaled sum of the
    artificials and phase I ends when it reaches 0.  Artificials still basic
    at that point sit at value 0 and may stay basic: the returned point
    reads only the other basic variables.
    """
    m = len(fr_rows)
    rows = []
    for i in range(m):
        den = lcm(fr_rhs[i].denominator,
                  *[v.denominator for v in fr_rows[i].values()] or [1])
        row = {c: int(v * den) for c, v in fr_rows[i].items()}
        if fr_rhs[i]:
            row[RHS] = int(fr_rhs[i] * den)
        rows.append(row)

    # a +1 slack is the first basic variable of its row; any other row gets
    # the artificial column ncols + i, with coefficient 1 in that row alone
    basis = [sc[0] if sc is not None and sc[1] == 1 else ncols + i
             for i, sc in enumerate(slack_cols)]
    # the reduced-cost row of cost = sum of artificials is the sum of their
    # rows; a positive entry marks a column whose entry reduces the cost
    obj = {}
    for i in range(m):
        if basis[i] >= ncols:
            for c, v in rows[i].items():
                obj[c] = obj.get(c, 0) + v
    obj = {c: v for c, v in obj.items() if v}

    degenerate_run = 0
    while obj.get(RHS, 0):
        candidates = [(c, v) for c, v in obj.items() if v > 0 and c >= 0]
        if not candidates:
            break
        if degenerate_run >= DEGENERATE_SWITCH:
            entering = min(c for c, _ in candidates)
        else:
            entering = max(candidates, key=lambda cv: (cv[1], -cv[0]))[0]
        hits = [i for i in range(m) if entering in rows[i]]

        # ratio test: minimize rhs/a over rows with positive entering entry,
        # compared by cross-multiplication; ties broken by smallest basic var
        leave = None
        bn = bd = None
        for i in hits:
            a = rows[i][entering]
            if a > 0:
                r = rows[i].get(RHS, 0)
                if leave is None or r * bd < bn * a or (
                        r * bd == bn * a and basis[i] < basis[leave]):
                    bn, bd, leave = r, a, i
        if leave is None:
            raise InternalError("phase-I objective unbounded; malformed system")
        degenerate_run = degenerate_run + 1 if bn == 0 else 0

        items = list(rows[leave].items())
        for i in hits:
            if i != leave:
                rows[i] = _eliminate(rows[i], rows[i][entering], bd, items)
        obj = _eliminate(obj, obj[entering], bd, items)
        basis[leave] = entering

    if obj.get(RHS, 0):
        return None
    z = {}
    for i, b in enumerate(basis):
        if b < ncols:  # artificials still basic are 0 and not part of z
            z[b] = Fraction(rows[i].get(RHS, 0), rows[i][b])
    return z


def _eliminate(row, a, p, items):
    """Return (p*row - a*prow) / gcd, where ``items`` are prow's entries.

    ``p`` > 0 is prow's entry and ``a`` row's entry in the entering column,
    so the result is the same true row times a positive scale, with a zero
    in that column.  When ``p == 1`` (most pivots) only prow's columns change
    and ``row`` itself is updated; zero entries are deleted, not stored.
    """
    if p != 1:
        row = {c: p * v for c, v in row.items()}
    for c, v in items:
        nv = row.get(c, 0) - a * v
        if nv:
            row[c] = nv
        else:
            del row[c]
    g = gcd(*row.values())
    if g > 1:
        row = {c: v // g for c, v in row.items()}
    return row


def feasible(lp: RationalLP) -> Verdict:
    """Exact feasibility verdict; a feasible verdict carries a witness point."""
    rows, rhs, ncols, slack_cols, recover = _standard_form(lp)
    z = _phase1(rows, rhs, ncols, slack_cols)
    if z is None:
        return Verdict(False)
    point = recover(z)
    if not check_point(lp, point):
        raise InternalError("simplex point fails a constraint")
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
