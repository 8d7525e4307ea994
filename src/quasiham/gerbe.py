"""Eigenvalue-gap cover of SU(n) and the spectral lines of the basic gerbe.

The sorted eigenvalue phases of a special unitary matrix have n cyclic gaps;
the cover piece V_i collects matrices whose i-th gap is strict (the n-th gap
compares the bottom phase against the top phase minus one).  Over double
intersections the eigenvalue block between two strict gaps spans a canonical
subspace whose top wedge is the determinant line.  Over triple intersections
the wedge of two lines realizes the third, with a coefficient of modulus
sqrt(det G_ik / (det G_ij det G_jk)): G is the Gram matrix of the
eigenvectors and G_ij its block over eigenvalue positions i+1 .. j.
"""

from __future__ import annotations

from functools import lru_cache
from itertools import combinations

import numpy as np

from .errors import ToolkitError
from .sun import alcove_order

GAP_TOL = 1e-9
# Samples drawn and reduced at a time by max_unimodularity_defect, so that the
# cocycle verb's memory does not grow with its samples: cold, --n 16 peaks at
# 48 MB at 2000 and at 5000 samples (2-vCPU KVM guest, BLAS on 1 thread).
COCYCLE_STACK = 256


def _strict_gaps(lam: np.ndarray) -> np.ndarray:
    """Per row of phases, whether the gap after each sorted phase is strict;
    gap n compares the bottom phase against the top phase minus one."""
    gaps = np.concatenate([lam[..., :-1] - lam[..., 1:], lam[..., -1:] - (lam[..., :1] - 1.0)],
                          axis=-1)
    return gaps > GAP_TOL


@lru_cache(maxsize=None)
def eigenline_weights(n: int) -> tuple[tuple[int, ...], ...]:
    """The weights e_i - (1/n)(1, ..., 1) of the n eigenline bundles as
    numerators over n: row i is n e_i - (1, ..., 1)."""
    return tuple(tuple(n * (m == i) - 1 for m in range(n)) for i in range(n))


@lru_cache(maxsize=None)
def vertex_weight_consistency(n: int) -> bool:
    """Check that partial sums of the rows of eigenline_weights(n) reproduce
    the alcove vertices of the rank n-1 simplex (index n giving the origin),
    on numerators: the rows are over n, and a vertex over den embeds in R^n
    by the A-series embedding of its numerators."""
    from .alcove import alcove_vertices
    from .roots import LieType, a_series_embedding, build_root_system

    rs = build_root_system(LieType("A", n - 1))
    model = alcove_vertices(rs)
    total = [0] * n
    for i, row in enumerate(eigenline_weights(n)):
        total = [t + a for t, a in zip(total, row)]
        flat = a_series_embedding(rs, model.nums[(i + 1) % n])
        if any(a * n != t * model.den for a, t in zip(flat, total)):
            return False
    return True


def _unimodularity_defects(vecs: np.ndarray) -> np.ndarray:
    """||coefficient| - 1| of every triple i < j < k of eigenvalue positions,
    (comb(n, 3), ...), from eigenvectors vecs (..., n, n) in alcove order:
    one log-determinant per pair's block of their Gram matrix.  A collapsed
    coefficient, a singular block G_ik, is a defect of one."""
    pieces = range(1, vecs.shape[-1] + 1)
    g = vecs.conj().swapaxes(-1, -2) @ vecs
    logdet = {(i, j): np.linalg.slogdet(g[..., i:j, i:j])[1] for i, j in combinations(pieces, 2)}
    return np.abs(np.expm1(np.array([logdet[i, k] - logdet[i, j] - logdet[j, k]
                                     for i, j, k in combinations(pieces, 3)]) / 2))


def max_unimodularity_defect(n: int, samples: int, rng: np.random.Generator) -> tuple[float, int]:
    """(worst, rejected): the largest unimodularity defect over samples draws
    exp(X) of SU(n), X from random_algebra, that lie in all n cover pieces,
    and the count of draws with a gap that is not strict, which are drawn
    again.  At most COCYCLE_STACK of the missing samples are drawn at a
    time, in the generator's order, each draw is decomposed once, by the
    eigh of iX, and a stack's defects are reduced to the running worst
    before the next stack is drawn."""
    # looked up at each call: the tests replace sun.random_algebra to put draws on walls
    from .sun import _skew_eigh, random_algebra

    worst, kept, rejected = 0.0, 0, 0
    while kept < samples:
        lam, v = _skew_eigh(random_algebra(n, rng, shape=(min(COCYCLE_STACK, samples - kept),)))
        # exp(X) = V diag(e^{-i lam}) V*: V's columns take the order of its alcove phases
        lam, order = alcove_order(np.exp(-1j * lam))
        regular = np.all(_strict_gaps(lam), axis=-1)
        rejected += int(np.sum(~regular))
        if rejected > 100 * samples:
            raise ToolkitError("sampling failed: over 100 draws per sample missed the full cover")
        kept += int(np.sum(regular))
        defects = _unimodularity_defects(np.take_along_axis(v, order[..., None, :], -1)[regular])
        # max(0.0, nan) is 0.0: a non-finite defect is caught before the max
        if not np.all(np.isfinite(defects)):
            raise ToolkitError("non-finite cocycle defect")
        worst = max(worst, float(np.max(defects, initial=0.0)))
    return worst, rejected
