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

from dataclasses import dataclass
from fractions import Fraction
from functools import lru_cache

import numpy as np

from .errors import InputError
from .rational import CartanVector, vec
from .sun import alcove_coordinates

GAP_TOL = 1e-9


def _cover(lam: np.ndarray) -> frozenset[int]:
    """Indices i whose gap after the i-th sorted phase is strict for every
    row of phases; gap n compares the bottom phase against the top phase
    minus one."""
    gaps = np.concatenate([lam[..., :-1] - lam[..., 1:], lam[..., -1:] - (lam[..., :1] - 1.0)],
                          axis=-1)
    strict = np.all(gaps > GAP_TOL, axis=tuple(range(gaps.ndim - 1)))
    return frozenset(int(i) + 1 for i in np.flatnonzero(strict))


def cover_index_set(a: np.ndarray) -> frozenset[int]:
    """Indices i in 1..n whose eigenvalue gap is strict: the cover pieces
    containing the matrix."""
    return _cover(alcove_coordinates(a))


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
    vertices of the rank n-1 simplex (index n giving the origin)."""
    from .alcove import alcove_vertices
    from .roots import LieType, a_series_embedding, build_root_system

    rs = build_root_system(LieType("A", n - 1))
    model = alcove_vertices(rs)
    for i in range(1, n + 1):
        total = vec(*([0] * n))
        for k in range(1, i + 1):
            total = tuple(t + w for t, w in zip(total, eigenline_weight(n, k)))
        vertex = model.vertices[i % n]
        if a_series_embedding(rs, vertex) != total:
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

    def basis(self, i: int, j: int) -> np.ndarray:
        n = self.phases.shape[-1]
        if not (1 <= i < j <= n):
            raise InputError("invalid-index", f"need 1 <= i < j <= {n}, got ({i}, {j})")
        if i not in self.cover or j not in self.cover:
            raise InputError(
                "outside-cover",
                f"matrix is not in the double intersection V_{i} * V_{j}",
            )
        return self.bases[i, j]

    def coefficient(self, i: int, j: int, k: int) -> complex | np.ndarray:
        """<rep(i,k), rep(i,j) ^ rep(j,k)> / <rep(i,k), rep(i,k)>; by
        Cauchy-Binet each pairing of top wedges is one determinant, taken
        over the whole stack at once."""
        if not (i < j < k):
            raise InputError("invalid-index", f"need i < j < k, got ({i}, {j}, {k})")
        if not {i, j, k} <= self.cover:
            raise InputError("outside-cover", f"matrix is not in V_{i} * V_{j} * V_{k}")
        full = self.bases[i, k].conj().swapaxes(-1, -2)
        both = np.concatenate([self.bases[i, j], self.bases[j, k]], axis=-1)
        out = np.linalg.det(full @ both) / np.linalg.det(full @ self.bases[i, k])
        return complex(out) if out.ndim == 0 else out

    def check(self, i: int, j: int, k: int) -> tuple:
        """The coefficient and whether it witnesses an isomorphism (nonzero
        well above rounding), per matrix of the stack."""
        coeff = self.coefficient(i, j, k)
        return coeff, abs(coeff) > 1e-8


def spectral_record(a: np.ndarray) -> SpectralRecord:
    """The record of a matrix or a stack of them: one validation and phase
    computation (both in alcove_coordinates), one batched eigendecomposition
    and one batched QR per pair of cover pieces, shared by every determinant
    line and cocycle triple on the stack."""
    a = np.asarray(a, dtype=complex)
    flat = a.reshape((-1,) + a.shape[-2:])
    lam = alcove_coordinates(flat)
    vals, vecs = np.linalg.eig(flat)
    # eigenvectors matched to the sorted phases: position by position, the
    # nearest eigenvalue not yet taken
    dist = np.abs(vals[:, None, :] - np.exp(2j * np.pi * lam)[:, :, None])
    rows = np.arange(len(flat))
    order = np.empty(lam.shape, dtype=int)
    for pos in range(lam.shape[1]):
        best = order[:, pos] = np.argmin(dist[:, pos], axis=-1)
        if np.any(dist[rows, pos, best] > 1e-6):
            raise InputError("eigen-matching", "failed to match eigenvalues to phases")
        dist[rows, :, best] = np.inf
    vecs = np.take_along_axis(vecs, order[:, None, :], axis=-1).reshape(a.shape)
    lam = lam.reshape(a.shape[:-1])
    cover = _cover(lam)
    bases = {(i, j): np.linalg.qr(vecs[..., i:j])[0] for i in cover for j in cover if i < j}
    return SpectralRecord(phases=lam, cover=cover, bases=bases)


def cocycle_check(a: np.ndarray, i: int, j: int, k: int) -> tuple[complex, bool]:
    """The wedge-pairing coefficient and whether it witnesses an isomorphism
    (nonzero well above rounding)."""
    return spectral_record(a).check(i, j, k)
