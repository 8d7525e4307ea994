"""Exact rationals: parsing, clearing denominators, formatting, and an
integer matrix inverse.

No floating point enters any membership decision.  A parsed vector is a
tuple of Fractions; it is cleared to integer numerators over one denominator
once (`common_denominator`) and stays integer from there.  `parse_numerators`
reads a vector straight into that cleared form, plain ASCII 'p' and 'p/q'
entries with int and any other text through the Fractions.  Vectors born as
integers, the level-k weights, the alcove vertices, the transition weights
and the eigenline weights, are computed, checked and written (`format_rows`)
as numerators over one denominator, and `integer_inverse` inverts an integer
matrix without Fractions.  `fractions`, with `decimal` and `numbers`, is
imported only where a Fraction is made, in `parse_rational`, so that an
exact verb starts without it.
"""

from __future__ import annotations

import re
import sys
from collections.abc import Sequence
from functools import partial
from itertools import chain
from math import gcd, lcm
from operator import mul

from .errors import InputError

# a vector in simple-root coordinates: a tuple of Fractions or ints
CartanVector = tuple["Fraction", ...]

# an entry that int reads as the Fraction reads it: sign, ASCII digits, and
# an optional ASCII denominator
_PLAIN = re.compile(r"([+-]?[0-9]+)(?:/([0-9]+))?")
# the exponent that ends a decimal entry, as Fraction reads it
_EXPONENT = re.compile(r"[eE]([+-]?\d+(?:_\d+)*)\s*\Z")


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
                if f:
                    a[r] = [(p * v - f * w) // prev for v, w in zip(a[r], top)]
                elif p != prev:  # nothing to subtract: only the rescale
                    a[r] = [p * v // prev for v in a[r]]
        prev = p
    sign = 1 if prev > 0 else -1
    inv = tuple(tuple(sign * v for v in row[n:]) for row in a)
    det = sign * prev
    # m N = d I, each entry a row of m times a column of N
    columns = list(zip(*inv))
    for i, row in enumerate(m):
        if [sum(map(mul, row, col)) for col in columns] != [det * (i == j) for j in range(n)]:
            raise ValueError("integer inverse failed its check")
    return inv, det


def common_denominator(x: CartanVector) -> tuple[tuple[int, ...], int]:
    """(nums, den) with x = nums / den entrywise and den the lcm of the
    entry denominators; accepts ints and Fractions."""
    den = lcm(*[a.denominator for a in x])
    return tuple(a.numerator * (den // a.denominator) for a in x), den


def parse_rational(text: str) -> Fraction:
    """Parse 'p/q' or plain integer strings; reject anything else, and a
    value whose numerator or denominator has more digits than int prints
    (sys.get_int_max_str_digits()), as Fraction rejects a 'p/q' that long."""
    from fractions import Fraction

    limit = getattr(sys, "get_int_max_str_digits", lambda: 0)() or 4300
    try:
        # an exponent e spells 10^|e| with no digits to convert: refuse a long one unbuilt
        if (exponent := _EXPONENT.search(text)) and abs(int(exponent[1])) > limit:
            raise ValueError(f"exponent beyond {limit} digits")
        value = Fraction(text.strip())
        str(value)  # int refuses to print past the limit: here, not where the value is printed
    except (ValueError, ZeroDivisionError) as exc:
        raise InputError("malformed-rational", f"expected 'p/q', got {text!r}") from exc
    return value


def parse_vector(text: str) -> CartanVector:
    """Parse a comma-separated list of rationals."""
    parts = [p for p in text.split(",") if p.strip()]
    if not parts:
        raise InputError("empty-vector", "expected comma-separated rationals, got none")
    return tuple(parse_rational(p) for p in parts)


def parse_numerators(text: str) -> tuple[tuple[int, ...], int]:
    """common_denominator(parse_vector(text)), with each plain entry, 'p' or
    'p/q' in ASCII digits with q != 0, read by int and reduced by gcd.  Text
    with any other entry goes through parse_vector, so every spelling, value
    and error is parse_vector's."""
    nums, dens = [], []
    try:
        for part in text.split(","):
            part = part.strip()
            if not part:
                continue
            match = _PLAIN.fullmatch(part)
            q = int(match[2] or 1) if match else 0
            if not q:
                raise ValueError(f"{part!r} is not a plain 'p/q'")
            p = int(match[1])
            g = gcd(p, q)
            nums.append(p // g)
            dens.append(q // g)
        if not nums:
            raise ValueError("no entry")
    except ValueError:  # also more digits than int converts: Fraction decides
        return common_denominator(parse_vector(text))
    den = lcm(*dens)
    return tuple(p * (den // q) for p, q in zip(nums, dens)), den


def format_ratio(n: int, den: int) -> str:
    """str(Fraction(n, den)) for den > 0, without building the Fraction."""
    g = gcd(n, den)
    return str(n // g) if g == den else f"{n // g}/{den // g}"


def format_rows(rows: Sequence[tuple[int, ...]], den: int) -> list[list[str]]:
    """The entries w_i / den of each numerator vector w of rows as
    str(Fraction) gives them, one format_ratio per distinct numerator."""
    text = {n: format_ratio(n, den) for n in set(chain.from_iterable(rows))}.__getitem__
    return list(map(list, map(partial(map, text), rows)))
