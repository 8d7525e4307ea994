"""Fundamental alcove geometry, the weight lattice, and level-k weights.

The alcove is the simplex cut out by (a_i, xi) >= 0 for simple roots a_i
together with (a_0, xi) >= -1 for the lowest root a_0; scaling the last
inequality by k gives the level-k alcove.  All tests here are exact: they
clear the denominators of a vector once and decide on integers through the
integer Gram matrix of the root system.  A level-k weight set is born as
integer numerators over one denominator and stays so through its checks
(`weight_checks`) and its JSON; its Fractions are built only when read.
Its enumeration is alcove-exact by construction and filters nothing:
tests/test_alcove.py pins it against brute-force and Fraction oracles, and
the `level-weights` verb re-checks every weight once and raises on an escape.
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction
from functools import cached_property, lru_cache
from itertools import chain
from math import lcm
from operator import add, mod, mul
from typing import Iterable, Iterator, NamedTuple

from .errors import InputError
from .rational import (
    CartanVector,
    common_denominator,
    denominator_lcm,
    format_vector,
    vsub,
    zero,
)
from .roots import LatticeData, RootSystem


@dataclass(frozen=True)
class AlcoveModel:
    """Alcove vertices for one root system, vertex 0 always the origin."""

    rs: RootSystem
    vertices: tuple[CartanVector, ...]

    def to_json(self) -> dict:
        return {
            "lie_type": str(self.rs.lie_type),
            "vertices": [format_vector(v) for v in self.vertices],
        }


@dataclass(frozen=True)
class LevelWeightSet:
    """All weights inside the closed level-k alcove, sorted lexicographically,
    as integer numerators `nums` over one positive denominator `den`: weight
    i is nums[i] / den entrywise, and integer order is the order of the
    Fractions."""

    rs: RootSystem
    level: int
    nums: tuple[tuple[int, ...], ...]
    den: int

    @cached_property
    def weights(self) -> tuple[CartanVector, ...]:
        exact = {n: Fraction(n, self.den) for n in set(chain.from_iterable(self.nums))}
        return tuple(tuple(map(exact.__getitem__, w)) for w in self.nums)

    def to_json(self) -> dict:
        # each distinct numerator is formatted once: str(Fraction) is format_rational
        text = {n: str(Fraction(n, self.den)) for n in set(chain.from_iterable(self.nums))}
        return {
            "lie_type": str(self.rs.lie_type),
            "level": self.level,
            "count": len(self.nums),
            "weights": [list(map(text.__getitem__, w)) for w in self.nums],
        }


class AlcoveMembership(NamedTuple):
    contains: bool
    boundary: bool


@lru_cache(maxsize=None)
def alcove_vertices(rs: RootSystem) -> AlcoveModel:
    """Vertices of the alcove: v_j solves (a_i, v_j) = 0 for i != j and
    (a_0, v_j) = -1, so it is column j of the inverse Gram matrix over the
    mark m_j.  With Gram = Cartan * diag(d) that column has entries
    (Cartan^-1)_ij / (d_i m_j) = 2 scale N_ij / (det gram_ii m_j)."""
    z = rs.lattice
    r = rs.rank
    verts = [zero(r)]
    for j in range(r):
        verts.append(tuple(
            Fraction(2 * z.scale * z.inverse_cartan[i][j], z.det * z.gram[i][i] * z.marks[j])
            for i in range(r)
        ))
    return AlcoveModel(rs=rs, vertices=tuple(verts))


def _gram_pairings(z: LatticeData, nums: tuple[int, ...]) -> list[int]:
    """scale * den * (a_i, xi) for xi = nums / den."""
    return [sum(map(mul, row, nums)) for row in z.gram]


def _alcove_test(z: LatticeData, pairings: list[int], nums: tuple[int, ...],
                 top: int) -> AlcoveMembership:
    """Closed level-k alcove test of xi = nums / den with Gram pairings p:
    every p_i = scale * den * (a_i, xi) >= 0 and scale * den * (theta, xi)
    <= top = k * scale * den."""
    p = sum(map(mul, z.theta_row, nums))
    if min(pairings) < 0 or p > top:
        return AlcoveMembership(False, False)
    return AlcoveMembership(True, 0 in pairings or p == top)


def _moduli(z: LatticeData, den: int) -> list[int]:
    """gram_ii * den for each simple root a_i."""
    return [row[i] * den for i, row in enumerate(z.gram)]


def _is_weight(pairings: list[int], moduli: list[int]) -> bool:
    """xi = nums / den with Gram pairings p is a weight: (xi, a_i^v) = 2 p_i /
    moduli_i is an integer for every i, with moduli = `_moduli(z, den)`."""
    return not any(map(mod, map(add, pairings, pairings), moduli))


def weight_checks(z: LatticeData, nums_seq: Iterable[tuple[int, ...]], den: int,
                  k: int) -> Iterator[tuple[bool, bool]]:
    """(is a weight, lies in the closed level-k alcove) for each xi = nums /
    den, both decided from one set of Gram pairings: the predicates of
    `weight_lattice_contains` and `alcove_contains` with no Fraction made,
    and their constants computed once for the whole sequence."""
    moduli, top = _moduli(z, den), k * z.scale * den
    for nums in nums_seq:
        pairings = _gram_pairings(z, nums)
        yield _is_weight(pairings, moduli), _alcove_test(z, pairings, nums, top).contains


def _membership(rs: RootSystem, xi: CartanVector, k) -> AlcoveMembership:
    nums, den = common_denominator(xi)
    z = rs.lattice
    return _alcove_test(z, _gram_pairings(z, nums), nums, k * z.scale * den)


def alcove_contains(rs: RootSystem, xi: CartanVector, k: int) -> AlcoveMembership:
    """Exact membership of xi in the closed level-k alcove, with a flag that
    marks boundary points (some defining inequality tight)."""
    if len(xi) != rs.rank:
        raise InputError("dimension-mismatch", f"expected length {rs.rank}")
    if k <= 0:
        raise InputError("invalid-level", f"level must be positive, got {k}")
    return _membership(rs, xi, k)


def weight_lattice_contains(rs: RootSystem, mu: CartanVector) -> bool:
    """True iff (mu, a_i^v) is an integer for every simple root."""
    if len(mu) != rs.rank:
        raise InputError("dimension-mismatch", f"expected length {rs.rank}")
    nums, den = common_denominator(mu)
    return _is_weight(_gram_pairings(rs.lattice, nums), _moduli(rs.lattice, den))


def fundamental_weight_coords(rs: RootSystem, mu: CartanVector) -> CartanVector:
    """Coordinates of mu against the fundamental weights: m_i = (mu, a_i^v)."""
    z = rs.lattice
    nums, den = common_denominator(mu)
    return tuple(
        Fraction(2 * p, z.gram[i][i] * den) for i, p in enumerate(_gram_pairings(z, nums))
    )


def level_weights(rs: RootSystem, k: int) -> LevelWeightSet:
    """Enumerate the weight lattice inside the closed level-k alcove.

    These are exactly the dominant weights sum m_i w_i with Dynkin labels
    m_i >= 0 and sum m_i comark_i <= k, so the enumeration is alcove-exact by
    construction: the labels are counted up one index at a time under that
    integer budget, and the weights accumulated as numerators over the
    denominator det of the inverse Cartan matrix.  No candidate is filtered;
    tests/test_alcove.py pins the set against brute-force and Fraction
    oracles, and the `level-weights` verb re-checks every weight once.  The
    set keeps those numerators over det; no Fraction is made here.
    """
    if k < 0:
        raise InputError("invalid-level", f"level must be >= 0, got {k}")
    z = rs.lattice
    found = [((0,) * rs.rank, k)]
    for comark, row in zip(z.comarks, z.inverse_cartan):
        grown = []
        for w, budget in found:
            while budget >= 0:
                grown.append((w, budget))
                w = tuple(map(add, w, row))
                budget -= comark
        found = grown
    nums = sorted(w for w, _ in found)
    if len(set(nums)) != len(nums):
        raise InputError("duplicate-weights", "enumeration produced duplicates")
    return LevelWeightSet(rs=rs, level=k, nums=tuple(nums), den=z.det)


@lru_cache(maxsize=None)
def minimal_integral_level(rs: RootSystem) -> int:
    """Smallest k >= 1 with k * v in the weight lattice for every alcove
    vertex v, computed as the lcm of the denominators of the vertices in
    fundamental-weight coordinates."""
    model = alcove_vertices(rs)
    out = 1
    for v in model.vertices:
        out = lcm(out, denominator_lcm(fundamental_weight_coords(rs, v)))
    return out


def barycentric_coords(rs: RootSystem, xi: CartanVector) -> tuple[Fraction, ...]:
    """Barycentric coordinates of xi against the alcove vertices.

    t_j = mark_j * (a_j, xi) for j >= 1 and t_0 = 1 - (theta, xi); these sum
    to one and are all nonnegative exactly on the alcove.
    """
    z = rs.lattice
    nums, den = common_denominator(xi)
    unit = z.scale * den
    t = [Fraction(unit - sum(map(mul, z.theta_row, nums)), unit)]
    for mark, p in zip(z.marks, _gram_pairings(z, nums)):
        t.append(Fraction(mark * p, unit))
    return tuple(t)


def open_face_set(rs: RootSystem, xi: CartanVector) -> frozenset[int]:
    """Indices j of the cover pieces containing xi: the vertices whose
    barycentric coordinate at xi is strictly positive."""
    if not _membership(rs, xi, 1).contains:
        raise InputError("not-in-alcove",
                         f"{','.join(format_vector(xi))} lies outside the level-1 alcove")
    bary = barycentric_coords(rs, xi)
    return frozenset(j for j, t in enumerate(bary) if t > 0)


def transition_weight(rs: RootSystem, i: int, j: int) -> CartanVector:
    """Difference v_j - v_i of alcove vertices; the weight labeling the
    transition line bundle between cover pieces i and j."""
    model = alcove_vertices(rs)
    m = len(model.vertices)
    if not (0 <= i < m and 0 <= j < m):
        raise InputError("invalid-vertex", f"vertex indices must be in 0..{m - 1}")
    return vsub(model.vertices[j], model.vertices[i])
