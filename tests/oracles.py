"""Reference implementations the tests check the package against: exact
linear algebra over Fractions, and the realified su(n) operators that the
eigenbasis formulas of the spaces replaced."""

from fractions import Fraction

import numpy as np

from quasiham.spaces import RANK_CUTOFF, _lift, _rank, realvec, unrealvec
from quasiham.sun import _basis_stack


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


def algebra_coords(x):
    """Coordinates of an algebra element in the orthonormal real basis,
    Re tr(B_k* X); leading axes of x are kept."""
    return np.real(np.einsum("kij,...ij->...k", _basis_stack(x.shape[-1]).conj(), x))


def algebra_from_coords(n, coords):
    """Inverse of algebra_coords; leading axes of coords are kept."""
    return np.einsum("...k,kij->...ij", coords, _basis_stack(n))


def realified_operator(n, fn):
    """Matrix of a real-linear operator on su(n) in the orthonormal basis;
    fn is applied once to the stacked basis.  An fn that adds leading axes
    in front of the basis axis gives a stack of matrices."""
    return algebra_coords(fn(_basis_stack(n))).swapaxes(-1, -2)


def class_basis_svd(space, m):
    """A class's tangent bases at a stack of points as the right singular
    vectors of the realified fields x m - m x, at the first point's rank."""
    x, lm = _basis_stack(space.n), _lift(m)
    _, s, vt = np.linalg.svd(realvec(x @ lm - lm @ x), full_matrices=False)
    return unrealvec(vt[..., : _rank(s, s[..., 0])[0].flat[0], :], space.n)


def anti_fixed_rank_svd(space, m, psis):
    """spaces._anti_fixed_rank from the SVD of the realified Ad_Psi + 1 of
    every factor, with the null vectors from its right singular vectors."""
    inv = psis.conj().swapaxes(-1, -2)
    blocks = realified_operator(space.n, lambda x: _lift(psis) @ x @ _lift(inv) + x)
    s = np.linalg.svd(blocks, compute_uv=False)
    count, f, na = s.shape
    scale = np.maximum(s.max(axis=(-2, -1)), 1.0)
    undecided = _rank(s.reshape(count, -1), scale)[1]
    qualifying = np.zeros(count, dtype=int)
    live = np.flatnonzero(np.any(s < RANK_CUTOFF * scale[:, None, None], axis=(-2, -1)))
    if live.size:
        _, s, vt = np.linalg.svd(blocks[live])
        null = s < RANK_CUTOFF * scale[live, None, None]
        rows = (vt * null[..., None]).reshape(live.size, f * na, na)
        xis = algebra_from_coords(space.n, np.einsum("prc,rk->prkc", rows,
                                                     np.repeat(np.eye(f), na, axis=0)))
        gens = space._generating(np.moveaxis(xis, 2, 0), _lift(m[:, live]))
        gs = np.linalg.svd(realvec(gens), compute_uv=False)
        qualifying[live], band = _rank(gs, gs[:, 0])
        undecided[live] |= band
    return qualifying, undecided
