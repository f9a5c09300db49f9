"""Exact rational linear-program feasibility.

Variables are symbolic keys and the data exact rationals (``int``s, kept as
they are, or ``fractions.Fraction``s), so verdicts are exact and feasible
points satisfy every constraint with zero tolerance.

Zero propagation runs first: the zero-fixing step of Andersen & Andersen
1995, "Presolving in linear programming".  It reads only rows whose
variables all have lower bound 0 (and no negative upper bound).  A variable
is live until it is forced to 0, and a rhs-0 row forces all its live
variables to 0 when their coefficients have one sign (an = row), none is
negative (a <= row) or none is positive (a >= row).  This runs to a fixed
point.  A row left with no live variable whose rhs asks for a nonzero sum
refutes the LP; the forcing rows in the order they fired, then that row,
are the refutation, and ``check_refutation`` replays it in linear time.

Otherwise the simplex decides the LP on the variables left live: phase I on
the standard-form system, using a
largest-coefficient pivot rule that falls back to Bland's rule after a run of
degenerate pivots (guaranteeing termination).  Each standard-form row is
integer from the start (the true row times the lcm of its denominators), and
a column-to-rows index lets a pivot visit only the rows holding the entering
column.  ``check_point`` re-reads the constraints, independently of the
simplex, and compares them with the point scaled to one common denominator.
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
            c = _exact(c)
            if c:
                clean[key] = c
        self.constraints.append((clean, rel, _exact(rhs)))

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


def _exact(v):
    """v itself if it is an int or a Fraction (both carry ``numerator`` and
    ``denominator``), else v as a Fraction."""
    return v if type(v) is int or type(v) is Fraction else Fraction(v)


@dataclass(frozen=True)
class Verdict:
    """``point`` is the witness of a feasible verdict; ``refutation``, when
    zero propagation refuted the LP, lists indices into ``lp.constraints``:
    the forcing rows in the order they fired, then the emptied row."""

    feasible: bool
    point: Optional[Dict] = None
    refutation: Optional[Tuple[int, ...]] = None


def _nonneg(lp: RationalLP, keys):
    """Those of ``keys`` with lower bound 0 and no negative upper bound."""
    return {key for key in keys
            if lp.lower.get(key) == 0 and lp.upper.get(key, 0) >= 0}


def _forces(rel, pos, neg) -> bool:
    """Whether a rhs-0 row whose live coefficients include a positive one
    iff ``pos`` and a negative one iff ``neg`` forces them all to 0."""
    return not (neg if rel == LEQ else pos if rel == GEQ else pos and neg)


def _contradicts(rel, rhs) -> bool:
    """Whether a row with no live variable (so its sum is 0) fails."""
    return rhs < 0 if rel == LEQ else rhs > 0 if rel == GEQ else rhs != 0


def _propagate(lp: RationalLP):
    """Zero propagation to a fixed point: returns (zero, refutation), the
    forced variables and either None or the refuting row indices.

    Only rows over ``_nonneg`` variables take part.  ``pos[i]`` and
    ``neg[i]`` count row i's live positive and negative coefficients, so
    whether a row fires or contradicts is read in O(1), and a row fires at
    most once: the whole pass is linear in the number of nonzeros.  Signs
    are read from ``numerator``, which ints and Fractions both carry, as
    comparing a Fraction with 0 costs several Python-level calls.
    """
    nonneg = _nonneg(lp, lp.lower)
    cons = lp.constraints
    rows_of = {}
    pos = {}
    neg = {}
    for i, (coeffs, _, _) in enumerate(cons):
        if nonneg.issuperset(coeffs):
            p = 0
            for key, c in coeffs.items():
                rows_of.setdefault(key, []).append(i)
                p += c.numerator > 0
            pos[i] = p
            neg[i] = len(coeffs) - p
    zero = set()
    fired = []
    stack = [i for i in reversed(pos) if not pos[i] or not neg[i]]
    while stack:
        i = stack.pop()
        coeffs, rel, rhs = cons[i]
        p, n = pos[i], neg[i]
        if not p and not n:
            if _contradicts(rel, rhs):
                return zero, tuple(fired) + (i,)
            continue
        if rhs or not _forces(rel, p, n):
            continue
        fired.append(i)
        for key in coeffs:
            if key in zero:
                continue
            zero.add(key)
            for j in rows_of[key]:
                if cons[j][0][key].numerator > 0:
                    pos[j] -= 1
                else:
                    neg[j] -= 1
                if not pos[j] or not neg[j]:
                    stack.append(j)
    return zero, None


def check_refutation(lp: RationalLP, rows) -> bool:
    """Replay a zero-propagation refutation without the simplex: every row
    is over variables with lower bound 0 and no negative upper bound, every
    row but the last has rhs 0 and live coefficients of the one sign its
    relation allows, and the last has no live variable and a rhs that asks
    for a nonzero sum.  Linear in the size of the rows named."""
    rows = list(rows)
    if not rows or not all(type(i) is int and 0 <= i < len(lp.constraints)
                           for i in rows):
        return False
    nonneg = _nonneg(lp, {key for i in rows for key in lp.constraints[i][0]})
    zero = set()
    for i in rows[:-1]:
        coeffs, rel, rhs = lp.constraints[i]
        live = [c for key, c in coeffs.items() if key not in zero]
        if rhs or not nonneg.issuperset(coeffs) or not _forces(
                rel, any(c > 0 for c in live), any(c < 0 for c in live)):
            return False
        zero.update(coeffs)
    coeffs, rel, rhs = lp.constraints[rows[-1]]
    return zero.issuperset(coeffs) and _contradicts(rel, rhs)


RHS = -1  # pseudo-column holding the right-hand side inside each integer row


def _standard_form(lp: RationalLP, zero):
    """Rewrite to A z = b, z >= 0, b >= 0: each row an integer dict, b at
    RHS, equal to the true row times the lcm of its denominators (negated
    when b < 0).  The variables in ``zero`` get no column, and a row whose
    variables are all in ``zero`` is left out.  Returns (rows, ncols,
    slack_cols, recover), where ``recover`` maps a standard z-vector back to
    original variable values, 0 on ``zero``.
    """
    # column plan: each original variable becomes either (shifted by its
    # lower bound) one column, or (free) a pair of columns
    col_of = {}
    shift = {}
    pair_neg = {}
    ncols = 0
    extra_rows = []
    for key in lp.variables:
        if key in zero:
            continue
        lo = lp.lower.get(key)
        col_of[key] = ncols
        if lo is None:
            pair_neg[key] = ncols + 1
        elif lo:
            shift[key] = lo
        ncols += 2 if lo is None else 1
        if key in lp.upper:
            extra_rows.append(({key: Fraction(1)}, LEQ, lp.upper[key]))

    rows = []
    slack_cols = []  # per row: (col, sign) of its slack, or None
    for coeffs, rel, b in list(lp.constraints) + extra_rows:
        if zero:
            coeffs = {key: c for key, c in coeffs.items() if key not in zero}
            if not coeffs:
                continue  # 0 satisfies it, or propagation had refuted it
        if shift:
            for key, c in coeffs.items():
                if key in shift:
                    b -= c * shift[key]
        # the scale: the lcm of the denominators, negative to flip b < 0
        s = lcm(b.denominator, *[c.denominator for c in coeffs.values()])
        if b < 0:
            s = -s
        row = {col_of[key]: c.numerator * (s // c.denominator)
               for key, c in coeffs.items()}
        if pair_neg:
            for key in coeffs:
                if key in pair_neg:
                    row[pair_neg[key]] = -row[col_of[key]]
        if b:
            row[RHS] = b.numerator * (s // b.denominator)
        if rel == EQ:
            slack_cols.append(None)
        else:
            row[ncols] = s if rel == LEQ else -s
            slack_cols.append((ncols, 1 if row[ncols] > 0 else -1))
            ncols += 1
        rows.append(row)

    def recover(z):  # a key in zero has no column, so it reads 0
        return {key: z.get(col_of.get(key), Fraction(0)) + shift.get(key, 0)
                - z.get(pair_neg.get(key), 0) for key in lp.variables}

    return rows, ncols, slack_cols, recover


def _phase1(rows, ncols, slack_cols):
    """Minimize the sum of artificials; returns a basic z-vector or None.

    Fraction-free: every row is an integer dict, with its rhs at the
    pseudo-column RHS, equal to the true row (basic coefficient 1) times a
    positive scale; zero entries are never stored.  Artificial columns are
    not stored either: an artificial that leaves the basis never re-enters,
    so its column is never read.  ``obj`` is the phase-I reduced-cost row
    times a positive scale, so ``obj[RHS]`` is the scaled sum of the
    artificials and phase I ends when it reaches 0.  Artificials still basic
    at that point sit at value 0 and may stay basic: the returned point
    reads only the other basic variables.  ``col_rows[c]`` lists the rows
    that hold column c, and maybe some that no longer do: a row is appended
    when c fills in and dropped only when c enters, leaving just [leave].
    """
    col_rows = {}
    for i, row in enumerate(rows):
        for c in row:
            col_rows.setdefault(c, []).append(i)

    # a +1 slack is the first basic variable of its row; any other row gets
    # the artificial column ncols + i, with coefficient 1 in that row alone
    basis = [sc[0] if sc is not None and sc[1] == 1 else ncols + i
             for i, sc in enumerate(slack_cols)]
    # the reduced-cost row of cost = sum of artificials is the sum of their
    # rows; a positive entry marks a column whose entry reduces the cost
    obj = {}
    for i, row in enumerate(rows):
        if basis[i] >= ncols:
            for c, v in row.items():
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
        hits = [i for i in col_rows[entering] if entering in rows[i]]

        # ratio test: minimize rhs/a over rows with positive entering entry,
        # compared by cross-multiplication; ties broken by smallest basic var
        leave = bn = bd = None
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
            # a row listed twice has lost the entering column the 2nd time
            if i != leave and entering in rows[i]:
                rows[i] = _eliminate(rows[i], rows[i][entering], bd, items,
                                     col_rows, i)
        obj = _eliminate(obj, obj[entering], bd, items)
        col_rows[entering] = [leave]
        basis[leave] = entering

    if obj.get(RHS, 0):
        return None
    z = {}
    for i, b in enumerate(basis):
        if b < ncols:  # artificials still basic are 0 and not part of z
            z[b] = Fraction(rows[i].get(RHS, 0), rows[i][b])
    return z


def _eliminate(row, a, p, items, col_rows=None, i=None):
    """Return (p*row - a*prow) / gcd, where ``items`` are prow's entries.

    ``p`` > 0 is prow's entry and ``a`` row's entry in the entering column,
    so the result is the same true row times a positive scale, with a zero
    in that column.  When ``p == 1`` (most pivots) only prow's columns change
    and ``row`` itself is updated; zero entries are deleted, not stored.
    A column that fills in appends row number ``i`` to ``col_rows``.
    """
    if p != 1:
        row = {c: p * v for c, v in row.items()}
    for c, v in items:
        if c in row:
            nv = row[c] - a * v
            if nv:
                row[c] = nv
            else:
                del row[c]
        else:
            row[c] = -a * v
            if col_rows is not None:
                col_rows[c].append(i)
    g = gcd(*row.values())
    if g > 1:
        row = {c: v // g for c, v in row.items()}
    return row


def feasible(lp: RationalLP) -> Verdict:
    """Exact feasibility verdict; a feasible verdict carries a witness point.

    Zero propagation decides first: a refutation it finds is the verdict,
    carried in ``refutation`` and replayed by ``check_refutation``, with no
    simplex run.  Otherwise the simplex decides on the variables left live,
    the forced ones are 0 in the point, and ``check_point`` checks the point
    against the whole LP.
    """
    zero, refutation = _propagate(lp)
    if refutation is not None:
        if not check_refutation(lp, refutation):
            raise InternalError("zero-propagation refutation fails its replay")
        return Verdict(False, refutation=refutation)
    rows, ncols, slack_cols, recover = _standard_form(lp, zero)
    z = _phase1(rows, ncols, slack_cols)
    if z is None:
        return Verdict(False)
    point = recover(z)
    if not check_point(lp, point):
        raise InternalError("simplex point fails a constraint")
    return Verdict(True, point)


def check_point(lp: RationalLP, point) -> bool:
    """Exact satisfaction check of every constraint and bound: the point is
    scaled once to a common denominator L and compared in integers, except
    on a constraint with a non-integer coefficient, which sums Fractions."""
    L = lcm(*[v.denominator for v in point.values()])
    P = {k: v.numerator * (L // v.denominator) for k, v in point.items()}
    for coeffs, rel, rhs in lp.constraints:
        terms = [c.numerator * P[k] for k, c in coeffs.items()
                 if c.denominator == 1]
        if len(terms) == len(coeffs):  # compare sum(terms) / L with rhs
            val, rhs = sum(terms) * rhs.denominator, rhs.numerator * L
        else:
            val = sum((c * point[k] for k, c in coeffs.items()), Fraction(0))
        if (rel == LEQ and val > rhs) or (rel == GEQ and val < rhs) or (
                rel == EQ and val != rhs):
            return False
    return (all(P[k] * lo.denominator >= lo.numerator * L
                for k, lo in lp.lower.items())
            and all(P[k] * hi.denominator <= hi.numerator * L
                    for k, hi in lp.upper.items()))
