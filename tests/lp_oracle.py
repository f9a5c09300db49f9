"""An independent LP feasibility oracle for cross-checking ``pcsp.ratlp``.

It shares no code with the simplex: it solves every square subsystem of
constraint boundaries by fraction-free (Bareiss) elimination and tests the
solution.
"""

from fractions import Fraction
from itertools import combinations
from math import lcm

from pcsp.ratlp import EQ, GEQ, LEQ, RationalLP, Verdict


def _integer_row(vec, rhs):
    """vec . x = rhs scaled by a positive integer so that all entries are integers."""
    row = [Fraction(v) for v in vec] + [Fraction(rhs)]
    scale = lcm(*(v.denominator for v in row))
    return [int(v * scale) for v in row]


def feasible_by_basis_enumeration(lp: RationalLP) -> Verdict:
    """Brute-force oracle: test all n-subsets of constraint boundaries.

    Valid when the feasible region, if nonempty, has a vertex; callers ensure
    this by bounding every variable.  Intended for small test LPs only.
    """
    keys = list(lp.variables)
    n = len(keys)
    idx = {k: i for i, k in enumerate(keys)}

    # each boundary row (integer coefficients, then the integer rhs) with its
    # relation; the boundaries are the rows read as equations
    rows = []
    for coeffs, rel, rhs in lp.constraints:
        vec = [Fraction(0)] * n
        for k, c in coeffs.items():
            vec[idx[k]] += c
        rows.append((_integer_row(vec, rhs), rel))
    for k in keys:
        unit = [0] * n
        unit[idx[k]] = 1
        if k in lp.lower:
            rows.append((_integer_row(unit, lp.lower[k]), GEQ))
        if k in lp.upper:
            rows.append((_integer_row(unit, lp.upper[k]), LEQ))

    def satisfies(num, det):
        """Whether x = num / det satisfies every row; det > 0."""
        for row, rel in rows:
            val = sum(a * b for a, b in zip(row, num))
            rhs = row[n] * det
            if rel == LEQ and val > rhs:
                return False
            if rel == GEQ and val < rhs:
                return False
            if rel == EQ and val != rhs:
                return False
        return True

    if n == 0:
        ok = satisfies([], 1)
        return Verdict(ok, {} if ok else None)

    for subset in combinations(range(len(rows)), n):
        solved = _solve_square([rows[i][0] for i in subset], n)
        if solved is not None and satisfies(*solved):
            num, det = solved
            return Verdict(True, {k: Fraction(num[idx[k]], det) for k in keys})
    return Verdict(False)


def _solve_square(mat, n):
    """Bareiss elimination on an n x (n+1) integer augmented matrix.

    Returns (num, det) with det > 0 and the solution x = num / det, or None
    if the matrix is singular.  Every division is exact.
    """
    mat = [row[:] for row in mat]
    prev = 1
    for col in range(n):
        piv = None
        for r in range(col, n):
            if mat[r][col]:
                piv = r
                break
        if piv is None:
            return None
        mat[col], mat[piv] = mat[piv], mat[col]
        top = mat[col]
        p = top[col]
        for r in range(col + 1, n):
            row = mat[r]
            f = row[col]
            row[col] = 0
            for c in range(col + 1, n + 1):
                row[c] = (row[c] * p - f * top[c]) // prev
        prev = p
    det = mat[n - 1][n - 1]
    num = [0] * n
    for i in range(n - 1, -1, -1):
        row = mat[i]
        acc = row[n] * det - sum(row[j] * num[j] for j in range(i + 1, n))
        num[i] = acc // row[i]
    if det < 0:
        det, num = -det, [-v for v in num]
    return num, det
