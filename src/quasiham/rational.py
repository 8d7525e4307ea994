"""Exact rational vectors and small exact linear algebra.

No floating point enters any membership decision.  Public vectors are plain
tuples of Fractions so they hash, compare, and serialize cheaply; the
lattice tests clear denominators first (`common_denominator`) and run on
integers, and `integer_inverse` inverts an integer matrix without Fractions.
"""

from __future__ import annotations

from fractions import Fraction
from math import lcm
from typing import Iterable, Sequence

from .errors import InputError

CartanVector = tuple[Fraction, ...]
RationalMatrix = tuple[tuple[Fraction, ...], ...]


def vec(*entries) -> CartanVector:
    """Build a CartanVector from ints, Fractions, or 'p/q' strings."""
    return tuple(Fraction(e) for e in entries)


def zero(n: int) -> CartanVector:
    return (Fraction(0),) * n


def vadd(x: CartanVector, y: CartanVector) -> CartanVector:
    return tuple(a + b for a, b in zip(x, y, strict=True))


def vsub(x: CartanVector, y: CartanVector) -> CartanVector:
    return tuple(a - b for a, b in zip(x, y, strict=True))


def scale(r, x: CartanVector) -> CartanVector:
    r = Fraction(r)
    return tuple(r * a for a in x)


def dot(x: CartanVector, y: CartanVector) -> Fraction:
    return sum((a * b for a, b in zip(x, y, strict=True)), Fraction(0))


def matvec(m: Sequence[Sequence[Fraction]], x: CartanVector) -> CartanVector:
    return tuple(dot(tuple(row), x) for row in m)


def integer_inverse(m: Sequence[Sequence[int]]) -> tuple[tuple[tuple[int, ...], ...], int]:
    """Inverse of a nonsingular integer matrix as (N, d) with m^-1 = N / d.

    Fraction-free Gauss-Jordan elimination: every division by the previous
    pivot is exact, and the diagonal ends at d = +-det(m).  d > 0 on return.
    Raises ValueError if the matrix is singular.
    """
    n = len(m)
    a = [[int(v) for v in row] + [int(i == j) for j in range(n)] for i, row in enumerate(m)]
    prev = 1
    for col in range(n):
        pivot = next((r for r in range(col, n) if a[r][col] != 0), None)
        if pivot is None:
            raise ValueError("singular integer matrix")
        a[col], a[pivot] = a[pivot], a[col]
        top = a[col]
        p = top[col]
        for r in range(n):
            if r != col:
                f = a[r][col]
                a[r] = [(p * v - f * w) // prev for v, w in zip(a[r], top)]
        prev = p
    sign = 1 if prev > 0 else -1
    inv = tuple(tuple(sign * v for v in row[n:]) for row in a)
    det = sign * prev
    for i in range(n):
        for j in range(n):
            if sum(m[i][t] * inv[t][j] for t in range(n)) != (det if i == j else 0):
                raise ValueError("integer inverse failed its check")
    return inv, det


def common_denominator(x: CartanVector) -> tuple[tuple[int, ...], int]:
    """(nums, den) with x = nums / den entrywise and den the lcm of the
    entry denominators; accepts ints and Fractions."""
    den = lcm(*[a.denominator for a in x])
    return tuple(a.numerator * (den // a.denominator) for a in x), den


def denominator_lcm(xs: Iterable[Fraction]) -> int:
    out = 1
    for x in xs:
        out = lcm(out, Fraction(x).denominator)
    return out


def parse_rational(text: str) -> Fraction:
    """Parse 'p/q' or plain integer strings; reject anything else."""
    try:
        return Fraction(text.strip())
    except (ValueError, ZeroDivisionError) as exc:
        raise InputError("malformed-rational", f"expected 'p/q', got {text!r}") from exc


def parse_vector(text: str) -> CartanVector:
    """Parse a comma-separated list of rationals."""
    parts = [p for p in text.split(",") if p.strip()]
    if not parts:
        raise InputError("empty-vector", "expected comma-separated rationals, got none")
    return tuple(parse_rational(p) for p in parts)


def format_rational(x: Fraction) -> str:
    return str(x if type(x) is Fraction else Fraction(x))


def format_vector(x: CartanVector) -> list[str]:
    return [format_rational(a) for a in x]
