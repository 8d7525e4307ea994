"""Exact oracles shared by the tests of the exact layer."""

from fractions import Fraction


def solve(m, rhs):
    """Solve a square exact linear system by Gaussian elimination over
    Fractions.

    Raises ValueError if the matrix is singular.
    """
    n = len(rhs)
    a = [[Fraction(v) for v in row] + [Fraction(rhs[i])] for i, row in enumerate(m)]
    for col in range(n):
        pivot = next((r for r in range(col, n) if a[r][col] != 0), None)
        if pivot is None:
            raise ValueError("singular exact linear system")
        a[col], a[pivot] = a[pivot], a[col]
        inv = 1 / a[col][col]
        a[col] = [v * inv for v in a[col]]
        for r in range(n):
            if r != col and a[r][col] != 0:
                f = a[r][col]
                a[r] = [v - f * w for v, w in zip(a[r], a[col])]
    return tuple(a[r][n] for r in range(n))
