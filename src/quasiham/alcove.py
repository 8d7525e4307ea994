"""Fundamental alcove geometry, the weight lattice, and level-k weights.

The alcove is the simplex cut out by (a_i, xi) >= 0 for simple roots a_i
together with (a_0, xi) >= -1 for the lowest root a_0; scaling the last
inequality by k gives the level-k alcove.  All tests here are exact: they
clear the denominators of a vector once and decide on integers through the
integer Gram matrix of the root system, one pass over the pairing columns of
a whole set of vectors (`weight_checks`).  The alcove vertices, their
differences (the transition weights) and a level-k weight set are integer
numerators over one denominator through their checks and JSON, and so are
the minimal levels.  The weight enumeration is alcove-exact by construction
and filters nothing: tests/test_alcove.py pins it against brute-force and
Fraction oracles, and the `level-weights` verb re-checks the set in one
column pass per simple root and raises on an escape.  A single cleared
vector, a class parameter, is paired by `gram_pairing`, one dot product per
row, from which prequant.class_decision reads its verdict and open faces.
"""

from __future__ import annotations

from collections import namedtuple
from collections.abc import Sequence
from functools import lru_cache
from itertools import accumulate, combinations
from math import comb, gcd, lcm
from operator import add, mul, sub

from .errors import InputError, ToolkitError
from .rational import format_rows
from .roots import RootSystem, a_series_embedding

# Largest level-weight set, as its weights times (rank + 2): enumerating,
# re-checking and writing a set costs about 1 us per numerator and 2 us more
# per weight (2-vCPU host: A1 at level 2 * 10**6 took 7.5 s and 620 MB, A8 at
# 13, 203,490 weights, 1.5 s and 142 MB, A20 at 6, 230,230 weights, 4.7 s).
# So at most MAX_WEIGHT_COST // (rank + 2) weights, about 2 s.
MAX_WEIGHT_COST = 2 * 10**6


class AlcoveModel(namedtuple("AlcoveModel", "rs nums den")):
    """Alcove vertices for one root system, vertex 0 always the origin:
    vertex j is the integer numerators nums[j] over one denominator den."""

    __slots__ = ()

    def to_json(self) -> dict:
        """The vertices, the transition weights v_j - v_i for i < j and for type
        A the R^n coordinates (a_i maps to e_i - e_{i+1}), all from integers."""
        pairs = combinations(enumerate(self.nums), 2)
        moves = {f"{i},{j}": tuple(map(sub, b, a)) for (i, a), (j, b) in pairs}
        flat = ([a_series_embedding(self.rs, v) for v in self.nums]
                if self.rs.lie_type.series == "A" else [])
        texts = format_rows([*self.nums, *moves.values(), *flat], self.den)
        n, m = len(self.nums), len(self.nums) + len(moves)
        out = {
            "lie_type": str(self.rs.lie_type),
            "vertices": texts[:n],
            "transition_weights": dict(zip(moves, texts[n:m])),
        }
        if flat:
            out["vertices_euclidean"] = texts[m:]
        return out


class LevelWeightSet(namedtuple("LevelWeightSet", "rs level nums den")):
    """All weights inside the closed level-k alcove of the root system rs,
    sorted lexicographically, as integer numerators `nums` over one positive
    denominator `den`: weight i is nums[i] / den entrywise, and integer order
    is the order of the Fractions."""

    __slots__ = ()

    def to_json(self) -> dict:
        return {
            "lie_type": str(self.rs.lie_type),
            "level": self.level,
            "count": len(self.nums),
            "weights": format_rows(self.nums, self.den),
        }


@lru_cache(maxsize=None)
def alcove_vertices(rs: RootSystem) -> AlcoveModel:
    """Vertices of the alcove: v_j solves (a_i, v_j) = 0 for i != j and
    (a_0, v_j) = -1, so it is column j of the inverse Gram matrix over the
    mark m_j.  With Gram = Cartan * diag(d) that column has entries
    (Cartan^-1)_ij / (d_i m_j) = 2 scale N_ij / (det gram_ii m_j), kept as
    numerators over the one denominator det lcm(gram_ii) lcm(m_j)."""
    diag = [row[i] for i, row in enumerate(rs.int_gram)]
    den = rs.det * lcm(*diag) * lcm(*rs.marks)
    nums = [(0,) * rs.rank]
    for j, mark in enumerate(rs.marks):
        nums.append(tuple(2 * rs.scale * rs.inverse_cartan[i][j] * (den // (rs.det * g * mark))
                          for i, g in enumerate(diag)))
    return AlcoveModel(rs=rs, nums=tuple(nums), den=den)


def _gram_pairings(rs: RootSystem, nums_seq: Sequence[tuple[int, ...]]) -> list[list[int]]:
    """Column i holds scale * den * (a_i, xi) for every xi = nums / den of
    nums_seq, and a last column scale * den * (theta, xi): the transposed
    numerators times the nonzero entries of each row, one map each."""
    cols = list(zip(*nums_seq)) or [()] * rs.rank
    out = []
    for row in (*rs.int_gram, rs.theta_row):
        column = None
        for g, col in zip(row, cols):
            if g:
                term = col if g == 1 else map(g.__mul__, col)
                column = term if column is None else map(add, column, term)
        out.append(list(column))
    return out


def _weight_level(rs: RootSystem, pairings: list[list[int]], den: int) -> int:
    """Smallest k >= 1 with k xi a weight for every xi = nums / den of the
    pairing columns p: every (k xi, a_i^v) = 2 k p / q, q = gram_ii den, is
    an integer for every p of column i exactly when q / gcd(2 gcd(column i), q)
    divides k."""
    return lcm(*(q // gcd(2 * gcd(*p), q)
                 for i, (row, p) in enumerate(zip(rs.int_gram, pairings)) for q in [row[i] * den]))


def _in_alcove(pairings: list[list[int]], top: int) -> bool:
    """Every column p_i >= 0 and the theta column <= top = k * scale * den."""
    *simple, theta = pairings
    return min(map(min, simple), default=0) >= 0 and max(theta, default=0) <= top


def weight_checks(rs: RootSystem, nums_seq: Sequence[tuple[int, ...]], den: int,
                  k: int) -> tuple[bool, bool]:
    """(every xi = nums / den of nums_seq is a weight, every one lies in the
    closed level-k alcove), decided on the Gram pairing columns of the whole
    set."""
    pairings = _gram_pairings(rs, nums_seq)
    return _weight_level(rs, pairings, den) == 1, _in_alcove(pairings, k * rs.scale * den)


def level_weights(rs: RootSystem, k: int) -> LevelWeightSet:
    """Enumerate the weight lattice inside the closed level-k alcove.

    These are exactly the dominant weights sum m_i w_i with Dynkin labels
    m_i >= 0 and sum m_i comark_i <= k, so the enumeration is alcove-exact by
    construction: the labels are counted up one index at a time under that
    integer budget, and the weights accumulated as numerators over the
    denominator det of the inverse Cartan matrix.  No candidate is filtered;
    tests/test_alcove.py pins the set against brute-force and Fraction
    oracles, and the `level-weights` verb re-checks it in one column pass.  The
    set keeps those numerators over det; no Fraction is made here.  A set
    over the size bound is refused before it is enumerated.
    """
    if k < 0:
        raise InputError("invalid-level", f"level must be >= 0, got {k}")
    cap = MAX_WEIGHT_COST // (rs.rank + 2)
    # the labels of the largest comark alone give C(k // c + r, r) weights: a
    # level whose count would itself allocate is refused on that bound
    if (comb(k // max(rs.comarks) + rs.rank, rs.rank) > cap
            or weight_count(rs.comarks, k) > cap):
        raise InputError("too-many-weights", f"{rs.lie_type} at level {k} has over {cap} "
                         f"weights, the most enumerated at rank {rs.rank}")
    found = [((0,) * rs.rank, k)]
    for comark, row in zip(rs.comarks, rs.inverse_cartan):
        grown = []
        for w, budget in found:
            while budget >= 0:
                grown.append((w, budget))
                w = tuple(map(add, w, row))
                budget -= comark
        found = grown
    nums = sorted(w for w, _ in found)
    if len(set(nums)) != len(nums):
        raise ToolkitError("level-weight enumeration produced duplicates")
    return LevelWeightSet(rs=rs, level=k, nums=tuple(nums), den=rs.det)


def weight_count(comarks: Sequence[int], k: int) -> int:
    """The number of Dynkin labels m >= 0 with sum m_i comark_i <= k, the
    size of the level-k weight set, by coin change: one running sum per
    residue class of each comark."""
    ways = [1] + [0] * k  # ways[b]: labels of the comarks so far summing to b
    for c in comarks:
        for r in range(c):
            ways[r::c] = accumulate(ways[r::c])
    return sum(ways)


@lru_cache(maxsize=None)
def minimal_integral_level(rs: RootSystem) -> int:
    """Smallest k >= 1 with k * v in the weight lattice for every alcove
    vertex v, read from the Gram pairing columns of their numerators."""
    model = alcove_vertices(rs)
    return _weight_level(rs, _gram_pairings(rs, model.nums), model.den)


def gram_pairing(rs: RootSystem, nums: tuple[int, ...]) -> list[int]:
    """scale * den * (a_i, xi) for each simple root a_i, then
    scale * den * (theta, xi), for one xi = nums / den: one dot product per
    row of the integer Gram matrix and of theta_row."""
    return [sum(map(mul, row, nums)) for row in (*rs.int_gram, rs.theta_row)]
