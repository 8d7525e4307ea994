"""Eigenvalue-gap cover of SU(n) and spectral determinant lines.

The sorted eigenvalue phases of a special unitary matrix have n cyclic gaps;
the cover piece V_i collects matrices whose i-th gap is strict (the n-th gap
compares the bottom phase against the top phase minus one).  Over double
intersections the eigenvalue block between two strict gaps spans a canonical
subspace whose top wedge is the determinant line; wedging bases realizes the
cocycle isomorphism over triple intersections.
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction
from itertools import combinations
from math import comb

import numpy as np

from .errors import InputError
from .rational import CartanVector, vec
from .sun import SNAP_TOL, alcove_coordinates, check_special_unitary, complex_pairs

GAP_TOL = 1e-9


def _cyclic_gaps(lam: np.ndarray) -> np.ndarray:
    """Gap sizes after each sorted phase; entry n-1 wraps around by one."""
    inner = lam[:-1] - lam[1:]
    wrap = lam[-1] - (lam[0] - 1.0)
    return np.append(inner, wrap)


def cover_index_set(a: np.ndarray, snap_tol: float = SNAP_TOL) -> frozenset[int]:
    """Indices i in 1..n whose eigenvalue gap is strict: the cover pieces
    containing the matrix."""
    lam = alcove_coordinates(a, snap_tol=snap_tol)
    gaps = _cyclic_gaps(lam)
    return frozenset(i + 1 for i, g in enumerate(gaps) if g > GAP_TOL)


def eigenline_weight(n: int, i: int) -> CartanVector:
    """Weight of the i-th eigenline bundle: e_i - (1/n)(1, ..., 1)."""
    if not 1 <= i <= n:
        raise InputError("invalid-index", f"need 1 <= i <= {n}, got {i}")
    base = [Fraction(-1, n)] * n
    base[i - 1] += 1
    return tuple(base)


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
class DetLine:
    """Orthonormal basis of a spectral subspace plus its top-wedge
    representative in the lexicographic wedge basis."""

    subspace_basis: tuple[np.ndarray, ...]
    representative: np.ndarray

    @property
    def dim(self) -> int:
        return len(self.subspace_basis)

    def to_json(self) -> dict:
        return {
            "basis": [complex_pairs(b) for b in self.subspace_basis],
            "representative": complex_pairs(self.representative),
        }


def wedge_coordinates(columns: np.ndarray) -> np.ndarray:
    """Coordinates of v_1 ^ ... ^ v_m against the lexicographic wedge basis:
    the m x m minors of the column matrix."""
    n, m = columns.shape
    out = np.empty(comb(n, m), dtype=complex)
    for pos, rows in enumerate(combinations(range(n), m)):
        out[pos] = np.linalg.det(columns[list(rows), :])
    return out


def wedge_product(u: np.ndarray, p: int, v: np.ndarray, q: int, n: int) -> np.ndarray:
    """Exterior product of a p-vector and a q-vector given in lexicographic
    wedge coordinates on C^n."""
    p_sets = list(combinations(range(n), p))
    q_sets = list(combinations(range(n), q))
    out_sets = {s: k for k, s in enumerate(combinations(range(n), p + q))}
    out = np.zeros(comb(n, p + q), dtype=complex)
    for i, s1 in enumerate(p_sets):
        if u[i] == 0:
            continue
        for j, s2 in enumerate(q_sets):
            if set(s1) & set(s2):
                continue
            merged = tuple(sorted(s1 + s2))
            # sign of the shuffle sorting (s1, s2) into merged order
            perm = list(s1 + s2)
            sign = 1
            for x in range(len(perm)):
                for y in range(x + 1, len(perm)):
                    if perm[x] > perm[y]:
                        sign = -sign
            out[out_sets[merged]] += sign * u[i] * v[j]
    return out


def _eigen_blocks(a: np.ndarray, snap_tol: float):
    """Eigenvalues matched to the sorted alcove phases, with eigenvectors."""
    lam = alcove_coordinates(a, snap_tol=snap_tol)
    vals, vecs = np.linalg.eig(a)
    targets = np.exp(2j * np.pi * lam)
    unused = list(range(len(vals)))
    order = []
    for t in targets:
        best = min(unused, key=lambda k: abs(vals[k] - t))
        if abs(vals[best] - t) > 1e-6:
            raise InputError("eigen-matching", "failed to match eigenvalues to phases")
        order.append(best)
        unused.remove(best)
    return lam, vecs[:, order]


def spectral_det_line(
    a: np.ndarray, i: int, j: int, snap_tol: float = SNAP_TOL
) -> DetLine:
    """Determinant line of the spectral subspace for eigenvalue positions
    i+1 .. j; requires both gaps i and j to be strict."""
    a = check_special_unitary(a)
    n = a.shape[0]
    if not (1 <= i < j <= n):
        raise InputError("invalid-index", f"need 1 <= i < j <= {n}, got ({i}, {j})")
    present = cover_index_set(a, snap_tol=snap_tol)
    if i not in present or j not in present:
        raise InputError(
            "outside-cover",
            f"matrix is not in the double intersection V_{i} * V_{j}",
        )
    _, vecs = _eigen_blocks(a, snap_tol)
    block = vecs[:, i:j]
    basis, _ = np.linalg.qr(block)
    return DetLine(
        subspace_basis=tuple(basis[:, k] for k in range(j - i)),
        representative=wedge_coordinates(basis),
    )


def cocycle_coefficient(
    a: np.ndarray, i: int, j: int, k: int, snap_tol: float = SNAP_TOL
) -> complex:
    """Coefficient of rep(i,j) ^ rep(j,k) against rep(i,k); the canonical
    isomorphism is witnessed by a coefficient of modulus one."""
    if not (i < j < k):
        raise InputError("invalid-index", f"need i < j < k, got ({i}, {j}, {k})")
    present = cover_index_set(a, snap_tol=snap_tol)
    for idx in (i, j, k):
        if idx not in present:
            raise InputError(
                "outside-cover", f"matrix is not in V_{i} * V_{j} * V_{k}"
            )
    n = a.shape[0]
    lower = spectral_det_line(a, i, j, snap_tol)
    upper = spectral_det_line(a, j, k, snap_tol)
    full = spectral_det_line(a, i, k, snap_tol)
    product = wedge_product(lower.representative, j - i, upper.representative, k - j, n)
    denom = np.vdot(full.representative, full.representative)
    return complex(np.vdot(full.representative, product) / denom)


def cocycle_check(
    a: np.ndarray, i: int, j: int, k: int, snap_tol: float = SNAP_TOL
) -> tuple[complex, bool]:
    """The wedge-pairing coefficient and whether it witnesses an isomorphism
    (nonzero well above rounding)."""
    coeff = cocycle_coefficient(a, i, j, k, snap_tol)
    return coeff, abs(coeff) > 1e-8


def subspace_projector(line: DetLine) -> np.ndarray:
    cols = np.stack(line.subspace_basis, axis=1)
    return cols @ cols.conj().T
