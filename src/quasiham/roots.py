"""Exact root-system data for the compact simple simply connected types.

Simple roots are the canonical internal basis: a vector is stored as its
tuple of rational coefficients against the simple roots.  The Gram matrix
of the basic inner product (long roots of squared length 2) turns those
coefficients into geometry.  Positive roots come from height-by-height
closure using root strings, so everything stays in exact integers.

Roots, marks and comarks are integer tuples, and one record holds them with
the rest of the integer lattice data: the Gram matrix as integers over one
scale and the inverse Cartan matrix over one denominator.  The lattice and
alcove tests run on those; a Fraction is made only where one leaves the
package, by `inner_product`.
"""

from __future__ import annotations

from collections import namedtuple
from functools import lru_cache
from itertools import accumulate

from .errors import InputError, ToolkitError
from .rational import CartanVector, integer_inverse

# Largest rank of the unbounded series A-D.  The exact verbs grow about as
# rank^3 (root closure, integer inverse): in process on a 2-vCPU host,
# `vertices` took 0.23 s for D64, 0.43 s for D80 and 3.8 s for D160, and
# `level-weights` of C64 at level 2, its largest accepted level, 0.44 s.
MAX_RANK = 64

_RANK_RULES = {
    "A": (1, None),
    "B": (2, None),
    "C": (2, None),
    "D": (3, None),
    "E": (6, 8),
    "F": (4, 4),
    "G": (2, 2),
}


class LieType(namedtuple("LieType", "series rank")):
    """A simple Lie type: series letter (str) plus rank (int)."""

    __slots__ = ()

    def __new__(cls, series: str, rank: int) -> "LieType":
        lo_hi = _RANK_RULES.get(series)
        if lo_hi is None:
            raise InputError("invalid-series", f"unknown series {series!r}")
        lo, hi = lo_hi
        if rank < lo or (hi is not None and rank > hi):
            bound = f">= {lo}" if hi is None else f"in [{lo}, {hi}]"
            raise InputError(
                "invalid-rank", f"series {series} needs rank {bound}, got {rank}"
            )
        if rank > MAX_RANK:
            raise InputError("rank-too-large", f"rank {rank} exceeds {MAX_RANK}")
        return super().__new__(cls, series, rank)

    @staticmethod
    def parse(text: str) -> "LieType":
        """Parse 'A2', 'a2', or 'A_2' style labels."""
        t = text.strip().replace("_", "")
        if len(t) < 2 or not t[0].isalpha() or not t[1:].isdecimal():
            raise InputError("invalid-type", f"cannot parse Lie type {text!r}")
        return LieType(t[0].upper(), int(t[1:]))

    def __str__(self) -> str:
        return f"{self.series}{self.rank}"


class RootSystem(namedtuple("RootSystem", (
        "lie_type cartan_matrix positive_roots dual_coxeter scale int_gram theta_row"
        " marks comarks inverse_cartan det"))):
    """Immutable root-system data, all in integers.

    cartan_matrix[i][j] is 2(a_i, a_j)/(a_j, a_j), and the Gram matrix of the
    basic inner product, (a_i, a_j), is int_gram / scale with the least scale
    that clears its denominators, so (x, a_i^v) = 2 (int_gram x)_i /
    int_gram[i][i].  Roots are integer coefficient tuples, which compare
    equal to tuples of the same Fractions: positive_roots are ordered by
    height then lexicographically, and the highest root's coefficients are
    the marks.  theta_row is scale * (theta, a_j); comarks are a_i * d_i,
    integers for every simple type; the inverse Cartan matrix is
    inverse_cartan / det, and its row i is det times the fundamental weight
    w_i.  Matrices are tuples of rows.  Every field takes part in equality;
    the hash is that of the type.
    """

    __slots__ = ()

    def __hash__(self) -> int:
        return hash(self.lie_type)

    @property
    def rank(self) -> int:
        return self.lie_type.rank

    def is_root(self, v: CartanVector) -> bool:
        return v in self.positive_roots or tuple(-c for c in v) in self.positive_roots


def _cartan_and_halves(lt: LieType) -> tuple[list[list[int]], list[int], int]:
    """The Cartan matrix, and the half squared lengths d_i of the simple
    roots as integers over one scale."""
    r = lt.rank
    scale = {"B": 2, "C": 2, "F": 2, "G": 3}.get(lt.series, 1)
    cartan = [[2 if i == j else 0 for j in range(r)] for i in range(r)]

    def chain(edges):
        for i, j in edges:
            cartan[i][j] = -1
            cartan[j][i] = -1

    halves = [scale] * r
    if lt.series in ("A", "B", "C"):
        chain((i, i + 1) for i in range(r - 1))
        if lt.series == "B":
            cartan[r - 2][r - 1] = -2  # last root short
            halves[r - 1] = 1
        elif lt.series == "C":
            cartan[r - 1][r - 2] = -2  # last root long, others short
            halves = [1] * (r - 1) + [2]
    elif lt.series == "D":
        chain((i, i + 1) for i in range(r - 2))
        chain([(r - 3, r - 1)])
    elif lt.series == "E":
        # chain 1-3-4-5-..., node 2 hangs off node 4 (1-based labels)
        chain([(0, 2)])
        chain((i, i + 1) for i in range(2, r - 1))
        chain([(1, 3)])
    elif lt.series == "F":
        chain([(0, 1), (1, 2), (2, 3)])
        cartan[1][2] = -2  # roots 3,4 short
        halves[2] = halves[3] = 1
    elif lt.series == "G":
        cartan[0][1] = -1
        cartan[1][0] = -3  # first root short, squared length 2/3
        halves[0] = 1
    return cartan, halves, scale


_OCTAL_DIGITS = bytes.maketrans(b"01234567", bytes(range(8)))


def _positive_roots(cartan: list[list[int]]) -> list[tuple[int, ...]]:
    """Height-by-height closure: alpha + a_i is a root iff its root string
    through a_i still ascends (q - <alpha, a_i^v> > 0).

    A root is coded as one integer whose base-8 digits are its coefficients,
    so a step along a_i adds 8**i.  Coefficients never exceed 6 (the highest
    root of E8), so a step down from a zero digit leaves a digit 7, which no
    root has: the string walk never aliases another root.
    """
    steps = [8**i for i in range(len(cartan))]
    pairings = {s: cartan[i] for i, s in enumerate(steps)}  # root -> <root, a_j^v>
    layer = steps
    while layer:
        nxt = []
        for alpha in layer:
            pa = pairings[alpha]
            for i, s in enumerate(steps):
                q = 0
                probe = alpha - s
                while probe in pairings:
                    q += 1
                    probe -= s
                if q > pa[i] and alpha + s not in pairings:
                    pairings[alpha + s] = [p + c for p, c in zip(pa, cartan[i])]
                    nxt.append(alpha + s)
        layer = nxt
    # the octal digits of a code, lowest first, are its coefficients: one
    # translate maps each digit's character to its value
    octal = f"0{len(steps)}o"
    roots = [tuple(format(code, octal)[::-1].encode().translate(_OCTAL_DIGITS))
             for code in pairings]
    roots.sort(key=lambda v: (sum(v), v))
    return roots


@lru_cache(maxsize=None)
def build_root_system(lie_type: LieType) -> RootSystem:
    """Construct the full exact root-system record for one simple type."""
    cartan, halves, scale = _cartan_and_halves(lie_type)
    igram = tuple(tuple(map(int.__mul__, row, halves)) for row in cartan)
    for i, row in enumerate(igram):
        for j, g in enumerate(row):
            if g != igram[j][i]:
                raise ToolkitError(f"asymmetric Gram matrix at {(i, j)}")

    positives = _positive_roots(cartan)
    highest = positives[-1]
    if len(positives) > 1 and sum(positives[-2]) == sum(highest):
        raise ToolkitError("highest root is not unique")

    comarks = []
    for mark, d in zip(highest, halves):
        if mark * d % scale:
            raise ToolkitError(f"non-integer comark {mark * d}/{scale}")
        comarks.append(mark * d // scale)
    # (w_i, a_j^v) = sum_m c_m cartan[m][j] = delta_ij: the coefficient rows
    # of the fundamental weights are the rows of the inverse Cartan matrix.
    inverse, det = integer_inverse(cartan)
    return RootSystem(
        lie_type=lie_type,
        cartan_matrix=tuple(tuple(row) for row in cartan),
        positive_roots=tuple(positives),
        # 1 + height of the highest root in the simple-coroot basis
        dual_coxeter=1 + sum(comarks),
        scale=scale,
        int_gram=igram,
        theta_row=tuple(sum(t * g for t, g in zip(highest, col)) for col in zip(*igram)),
        marks=highest,
        comarks=tuple(comarks),
        inverse_cartan=inverse,
        det=det,
    )


def inner_product(rs: RootSystem, x: CartanVector, y: CartanVector) -> Fraction:
    """Basic inner product of two vectors given in simple-root coordinates,
    as a Fraction: x int_gram y / scale."""
    from fractions import Fraction

    if len(x) != rs.rank or len(y) != rs.rank:
        raise InputError(
            "dimension-mismatch",
            f"expected vectors of length {rs.rank}, got {len(x)} and {len(y)}",
        )
    total = sum(a * sum(g * b for g, b in zip(row, y) if g) for a, row in zip(x, rs.int_gram) if a)
    return Fraction(total, rs.scale)


def height(rs: RootSystem, root: CartanVector) -> int:
    """Sum of simple-root coefficients; rejects vectors that are not roots."""
    if len(root) != rs.rank:
        raise InputError("dimension-mismatch", f"expected length {rs.rank}")
    if not rs.is_root(root):
        raise InputError("not-a-root", f"{root} is not a root of {rs.lie_type}")
    return int(sum(root))


def a_series_embedding(rs: RootSystem, v: CartanVector) -> CartanVector:
    """Convert simple-root coordinates to the sum-zero R^n eigenvalue
    coordinates of the A series (a_i maps to e_i - e_{i+1})."""
    if rs.lie_type.series != "A":
        raise InputError("not-a-series", "R^n embedding only defined for type A")
    coeffs = (0, *v, 0)
    return tuple(b - a for a, b in zip(coeffs, coeffs[1:]))


def a_series_numerators(rs: RootSystem, nums: tuple[int, ...]) -> tuple[int, ...]:
    """Inverse of the R^n embedding on numerators: the simple-root
    coordinates of x = nums / den, over the same den, are the partial sums of
    nums.  Requires coordinates summing to zero."""
    if rs.lie_type.series != "A":
        raise InputError("not-a-series", "R^n coordinates only defined for type A")
    if len(nums) != rs.rank + 1:
        raise InputError("dimension-mismatch", f"expected length {rs.rank + 1}")
    if sum(nums) != 0:
        raise InputError("nonzero-sum", "eigenvalue coordinates must sum to zero")
    return tuple(accumulate(nums[:-1]))

