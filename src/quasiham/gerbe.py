"""Eigenvalue-gap cover of SU(n) and the spectral record of the basic gerbe.

The sorted eigenvalue phases of a special unitary matrix have n cyclic gaps;
the cover piece V_i collects matrices whose i-th gap is strict (the n-th gap
compares the bottom phase against the top phase minus one).  Over double
intersections the eigenvalue block between two strict gaps spans a canonical
subspace whose top wedge is the determinant line.  Over triple intersections
the wedge of two lines realizes the third; by Cauchy-Binet its coefficient is
one determinant of orthonormal bases.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from fractions import Fraction
from functools import lru_cache

import numpy as np

from .errors import InputError
from .rational import CartanVector
from .sun import alcove_order

GAP_TOL = 1e-9


def _strict_gaps(lam: np.ndarray) -> np.ndarray:
    """Per row of phases, whether the gap after each sorted phase is strict;
    gap n compares the bottom phase against the top phase minus one."""
    gaps = np.concatenate([lam[..., :-1] - lam[..., 1:], lam[..., -1:] - (lam[..., :1] - 1.0)],
                          axis=-1)
    return gaps > GAP_TOL


def _cover(lam: np.ndarray) -> frozenset[int]:
    """Indices i whose gap after the i-th sorted phase is strict for every
    row of phases."""
    strict = np.all(_strict_gaps(lam), axis=tuple(range(lam.ndim - 1)))
    return frozenset(int(i) + 1 for i in np.flatnonzero(strict))


def eigenline_weight(n: int, i: int) -> CartanVector:
    """Weight of the i-th eigenline bundle: e_i - (1/n)(1, ..., 1)."""
    if not 1 <= i <= n:
        raise InputError("invalid-index", f"need 1 <= i <= {n}, got {i}")
    base = [Fraction(-1, n)] * n
    base[i - 1] += 1
    return tuple(base)


@lru_cache(maxsize=None)
def vertex_weight_consistency(n: int) -> bool:
    """Check that partial sums of the eigenline weights reproduce the alcove
    vertices of the rank n-1 simplex (index n giving the origin), on
    numerators: n times the eigenline weight i is n e_i - (1, ..., 1), and a
    vertex over den embeds in R^n by the A-series embedding of its
    numerators."""
    from .alcove import alcove_vertices
    from .roots import LieType, a_series_embedding, build_root_system

    rs = build_root_system(LieType("A", n - 1))
    model = alcove_vertices(rs)
    total = [0] * n
    for i in range(n):
        total = [t + n * (m == i) - 1 for m, t in enumerate(total)]
        flat = a_series_embedding(rs, model.nums[(i + 1) % n])
        if any(a * n != t * model.den for a, t in zip(flat, total)):
            return False
    return True


@dataclass(frozen=True)
class SpectralRecord:
    """What the gerbe reads off a special unitary matrix or a stack of them:
    the alcove phases (..., n), the cover pieces containing every matrix and,
    for each pair i < j of those pieces, orthonormal bases Q_ij (..., n, j - i)
    of the spectral subspaces of eigenvalue positions i+1 .. j.  Leading
    axes are those of the matrices; coefficients carry them too."""

    phases: np.ndarray
    cover: frozenset[int]
    bases: dict[tuple[int, int], np.ndarray]
    # det(Q_ik* Q_ik) by pair (i, k), taken at the first coefficient that
    # divides by it: it does not depend on j
    _norms: dict[tuple[int, int], np.ndarray] = field(
        default_factory=dict, init=False, repr=False, compare=False)

    def coefficient(self, i: int, j: int, k: int) -> complex | np.ndarray:
        """<rep(i,k), rep(i,j) ^ rep(j,k)> / <rep(i,k), rep(i,k)>; by
        Cauchy-Binet each pairing of top wedges is one determinant, taken
        over the whole stack at once."""
        if not (i < j < k):
            raise InputError("invalid-index", f"need i < j < k, got ({i}, {j}, {k})")
        if not {i, j, k} <= self.cover:
            raise InputError("outside-cover", f"matrix is not in V_{i} * V_{j} * V_{k}")
        full = self.bases[i, k].conj().swapaxes(-1, -2)
        if (i, k) not in self._norms:
            self._norms[i, k] = np.linalg.det(full @ self.bases[i, k])
        both = np.concatenate([self.bases[i, j], self.bases[j, k]], axis=-1)
        out = np.linalg.det(full @ both) / self._norms[i, k]
        return complex(out) if out.ndim == 0 else out


def _ordered_eig(a: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """The alcove phases of special unitary matrices and their eigenvectors
    in the same order, from one eig: alcove_order's permutation reorders the
    columns."""
    d, v = np.linalg.eig(a)
    lam, order = alcove_order(d)
    return lam, np.take_along_axis(v, order[..., None, :], axis=-1)


def _spectral_record(lam: np.ndarray, vecs: np.ndarray) -> SpectralRecord:
    """The record of a stack of matrices given by their alcove phases lam
    (..., n) and their eigenvectors vecs (..., n, n) in that order.  Each
    block is orthonormalized by its own QR.  Slices of one orthonormal frame
    would make [Q_ij | Q_jk] equal to Q_ik, and every cocycle coefficient
    exactly unimodular whatever the blocks span."""
    cover = _cover(lam)
    bases = {(i, j): np.linalg.qr(vecs[..., i:j])[0] for i in cover for j in cover if i < j}
    return SpectralRecord(phases=lam, cover=cover, bases=bases)

