"""Discretized holonomy of connections on the circle and the gauge action.

A connection is a uniform grid of algebra samples a_1..a_N, read as midpoint
values of a smooth 1-form a(t) dt.  The holonomy is the ordered product of
step exponentials with earlier factors on the left,

    hol(A) = exp(h a_1) exp(h a_2) ... exp(h a_N),   h = 1/N,

which is the convention that makes the gauge action
g.A = Ad_g(A) - (dg) g^{-1} intertwine holonomy with conjugation by g(0).
A constant sample ξ gives exp(ξ) exactly.
"""

from __future__ import annotations

from collections import namedtuple

import numpy as np

from .errors import InputError, ToolkitError
from .sun import check_algebra, check_special_unitary, expm_skew, project_algebra


class PiecewiseConnection(namedtuple("PiecewiseConnection", "samples")):
    """Uniform grid of algebra values on the circle, held as one (N, n, n)
    array and validated once."""

    __slots__ = ()

    def __new__(cls, samples) -> "PiecewiseConnection":
        try:
            samples = np.asarray(samples, dtype=complex)
        except ValueError as exc:
            raise InputError("malformed-connection", "samples must share one shape") from exc
        if samples.ndim != 3 or samples.size == 0 or samples.shape[1] != samples.shape[2]:
            raise InputError(
                "empty-grid" if samples.size == 0 else "malformed-connection",
                f"need a nonempty stack of square samples, got shape {samples.shape}",
            )
        return super().__new__(cls, check_algebra(samples, tol=1e-9))

    @property
    def steps(self) -> int:
        return len(self.samples)


def holonomy(conn: PiecewiseConnection) -> np.ndarray:
    """Ordered product of step exponentials, earliest factor leftmost.  The N
    steps are exponentiated as one stack and multiplied by halving: each
    round multiplies neighbouring pairs as one batched product, an odd last
    step paired with the identity on its right."""
    steps = expm_skew((1.0 / conn.steps) * conn.samples)
    while len(steps) > 1:
        if len(steps) % 2:
            steps = np.concatenate([steps, np.eye(steps.shape[-1])[None]])
        steps = steps[0::2] @ steps[1::2]
    if not np.all(np.isfinite(steps[0])):
        raise ToolkitError("non-finite holonomy")
    return steps[0]


def gauge_transform(loop: np.ndarray, samples: np.ndarray) -> np.ndarray:
    """Apply g.A = Ad_g(A) - (dg) g^{-1} to a stack of connection samples on
    the matching grid of loop samples; returns the transformed stack.

    The derivative term uses central differences of the loop samples with
    cyclic indexing, so the loop grid must match the connection grid.
    """
    n_steps = len(samples)
    if len(loop) != n_steps:
        raise InputError(
            "grid-mismatch", f"loop has {len(loop)} samples, connection {n_steps}"
        )
    gs = check_special_unitary(loop, tol=1e-9)
    ginv = gs.conj().swapaxes(-1, -2)
    h = 1.0 / n_steps
    dg = (np.roll(gs, -1, axis=0) - np.roll(gs, 1, axis=0)) / (2.0 * h)
    # The discretized derivative term sits O(h^2) off the algebra;
    # projecting it back removes pure discretization noise.
    return gs @ samples @ ginv - project_algebra(dg @ ginv)


def midpoint_grid(steps: int) -> np.ndarray:
    """Midpoints (i - 1/2)/N of the N uniform subintervals of [0, 1]."""
    return (np.arange(steps) + 0.5) / steps


def sample_smooth_connection(fn, steps: int) -> PiecewiseConnection:
    """Sample a smooth algebra-valued function at the midpoint grid: fn is
    called once, on the (steps, 1, 1) column of midpoint times, and returns
    the (steps, n, n) stack of values."""
    return PiecewiseConnection(samples=fn(midpoint_grid(steps)[:, None, None]))


def gauge_equivariance_residual(conn_fn, loop_fn, steps: int) -> float:
    """|hol(g.A) - g(0) hol(A) g(0)^-1| for midpoint-sampled smooth data.

    conn_fn maps the (steps, 1, 1) column of times to the stack of algebra
    values; loop_fn maps an array of k times to the (k, n, n) stack of loop
    values, so a grid is one call of each.
    """
    conn = sample_smooth_connection(conn_fn, steps)
    loop = loop_fn(midpoint_grid(steps))
    lhs = holonomy(PiecewiseConnection(gauge_transform(loop, conn.samples)))
    g0 = loop_fn(np.zeros(1))[0]
    rhs = g0 @ holonomy(conn) @ g0.conj().T
    return float(np.max(np.abs(lhs - rhs)))


def convergence_order(residuals: dict[int, float]) -> float:
    """Least-squares slope of log residual against log grid size, negated."""
    ns = np.array(sorted(residuals))
    rs = np.array([residuals[n] for n in ns])
    if np.any(rs <= 0):
        raise InputError("degenerate-fit", "residuals must be positive for the fit")
    slope = np.polyfit(np.log(ns), np.log(rs), 1)[0]
    return -float(slope)
