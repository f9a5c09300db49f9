"""An independent LP feasibility oracle for cross-checking ``pcsp.ratlp``.

It shares no code with the simplex: it solves every square subsystem of
constraint boundaries by Gaussian elimination and tests the solution.
"""

from fractions import Fraction

from pcsp.ratlp import EQ, GEQ, LEQ, RationalLP, Verdict


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
