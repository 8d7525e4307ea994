"""Numerical SU(n) primitives.

Matrix conventions: group points are n x n special unitary ndarrays, algebra
vectors are traceless anti-Hermitian ndarrays.  The inner product is fixed as

    basic_inner(X, Y) = -tr(XY) / (4 pi^2),

which restricts to the exact basic inner product on the torus under the
correspondence lam -> 2*pi*i*diag(lam); with that normalization the
canonical 3-form integrates to 1 over SU(2).
"""

from __future__ import annotations

from functools import lru_cache

import numpy as np
# numpy loads its random module lazily.  Every numerical verb draws from it,
# so it is loaded here with the layer, not inside the first verb's first draw.
import numpy.random

from .errors import InputError

UNITARY_TOL = 1e-12
ALGEBRA_TOL = 1e-12
SNAP_TOL = 1e-9

_PAULI = np.array([[[0, 1], [1, 0]], [[0, -1j], [1j, 0]], [[1, 0], [0, -1]]])


def check_special_unitary(a: np.ndarray, tol: float = UNITARY_TOL) -> np.ndarray:
    """Validate A*A = I and det A = 1 on a matrix or a stack of them (the
    worst defects over the stack decide); returns A unchanged."""
    a = np.asarray(a, dtype=complex)
    if a.ndim < 2 or a.shape[-1] != a.shape[-2]:
        raise InputError("not-square", f"expected square matrix, got {a.shape}")
    n = a.shape[-1]
    defect = np.max(np.abs(a.conj().swapaxes(-1, -2) @ a - np.eye(n)), initial=0.0)
    det_defect = np.max(np.abs(np.linalg.det(a) - 1.0), initial=0.0)
    if defect >= tol or det_defect >= tol:
        raise InputError(
            "not-special-unitary",
            f"unitarity defect {defect:.2e}, det defect {det_defect:.2e}",
        )
    return a


def check_algebra(x: np.ndarray, tol: float = ALGEBRA_TOL) -> np.ndarray:
    """Validate X* + X = 0 and tr X = 0 on a matrix or a stack of them;
    returns X unchanged."""
    x = np.asarray(x, dtype=complex)
    herm = np.max(np.abs(x + x.conj().swapaxes(-1, -2)))
    tr = np.max(np.abs(np.trace(x, axis1=-2, axis2=-1)))
    if herm >= tol or tr >= tol:
        raise InputError(
            "not-algebra", f"anti-Hermitian defect {herm:.2e}, trace {tr:.2e}"
        )
    return x


def project_algebra(x: np.ndarray) -> np.ndarray:
    """Orthogonal projection onto traceless anti-Hermitian matrices, applied
    to the last two axes."""
    x = np.asarray(x, dtype=complex)
    y = 0.5 * (x - x.conj().swapaxes(-1, -2))
    n = x.shape[-1]
    tr = np.trace(y, axis1=-2, axis2=-1)
    return y - (tr / n)[..., None, None] * np.eye(n)


def basic_inner(x: np.ndarray, y: np.ndarray) -> float | np.ndarray:
    """Invariant inner product -tr(XY)/(4 pi^2) on the algebra.

    Leading axes broadcast, giving an array of pairings; two plain matrices
    give a float.
    """
    out = -np.real(np.einsum("...ij,...ji->...", x, y)) / (4.0 * np.pi**2)
    return float(out) if out.ndim == 0 else out


def basic_gram(xs: np.ndarray, ys: np.ndarray) -> np.ndarray:
    """The matrix basic_inner(xs[..., i, :, :], ys[..., j, :, :]) of two
    stacks of n x n matrices, as one matrix product; further leading axes
    broadcast."""
    size = xs.shape[-2] * xs.shape[-1]
    flat_xs = xs.reshape(xs.shape[:-2] + (size,))
    flat_ys = ys.swapaxes(-1, -2).reshape(ys.shape[:-2] + (size,))
    return -np.real(flat_xs @ flat_ys.swapaxes(-1, -2)) / (4.0 * np.pi**2)


def complex_pairs(a) -> list:
    """A complex array as nested lists with [re, im] float pairs as entries,
    the JSON shape of every matrix and vector."""
    a = np.asarray(a, dtype=complex)
    return np.stack([a.real, a.imag], axis=-1).tolist()


def random_algebra(n: int, rng: np.random.Generator, shape: tuple = ()) -> np.ndarray:
    """Gaussian traceless anti-Hermitian matrix, or a stack of the given
    shape drawn in order: one call for all the normals, matrix by matrix its
    real then its imaginary part, gives the values of one call per part."""
    z = rng.normal(size=shape + (2, n, n))
    return project_algebra(z[..., 0, :, :] + 1j * z[..., 1, :, :])


def random_special_unitary(n: int, rng: np.random.Generator) -> np.ndarray:
    """Group point exp(X) for a Gaussian algebra draw X."""
    return expm_skew(random_algebra(n, rng))


def expm_skew(x: np.ndarray) -> np.ndarray:
    """exp of anti-Hermitian matrices, over any leading batch axes.

    The Hermitian matrix H = i (X - X*)/2 has an eigendecomposition
    V diag(lam) V*, and exp(X) = V diag(e^{-i lam}) V*; for a normal matrix
    this is accurate and unitary up to rounding.  Only the anti-Hermitian
    part (X - X*)/2 is read, so an input off the algebra by rounding (a
    connection read from a file, say) is exponentiated as its nearest
    anti-Hermitian matrix, and the result stays unitary.
    """
    x = np.asarray(x, dtype=complex)
    lam, v = np.linalg.eigh(0.5j * (x - x.conj().swapaxes(-1, -2)))
    return (v * np.exp(-1j * lam)[..., None, :]) @ v.conj().swapaxes(-1, -2)


def torus_algebra(lam) -> np.ndarray:
    """Torus correspondence lam -> 2*pi*i*diag(lam) (sum of entries zero)."""
    lam = np.asarray([float(v) for v in lam], dtype=float)
    if abs(lam.sum()) > 1e-12:
        raise InputError("nonzero-sum", "torus coordinates must sum to zero")
    return 2j * np.pi * np.diag(lam)


def torus_point(lam) -> np.ndarray:
    """exp of the torus correspondence: diag(exp(2 pi i lam_j))."""
    lam = np.asarray([float(v) for v in lam], dtype=float)
    return np.diag(np.exp(2j * np.pi * lam))


def alcove_coordinates(a: np.ndarray) -> np.ndarray:
    """Sorted eigenvalue phases of a special unitary matrix, normalized to
    the fundamental alcove: descending, summing to zero, top-bottom gap at
    most one.  Phases within SNAP_TOL of an alcove wall are snapped onto it.
    A stack of matrices gives the stack of their coordinates.
    """
    a = check_special_unitary(a)
    n = a.shape[-1]
    try:
        eigvals = np.linalg.eigvals(a)
    except np.linalg.LinAlgError as exc:
        raise InputError("eigensolver-failure", str(exc)) from exc
    phases = np.sort((np.angle(eigvals) / (2.0 * np.pi)) % 1.0, axis=-1)

    # Snap: replace each circular cluster of nearly equal phases by its
    # circular mean so wall membership is exact downstream.  A cluster ends
    # at each gap wider than SNAP_TOL; the run after the last such gap
    # continues the first cluster across the wrap at one.
    wide = np.concatenate([phases[..., 1:], phases[..., :1] + 1.0], axis=-1) - phases > SNAP_TOL
    label = np.cumsum(wide, axis=-1) - wide
    label[label == np.sum(wide, axis=-1, keepdims=True)] = 0
    sums = np.einsum("...p,...pc->...c", np.exp(2j * np.pi * phases),
                     label[..., :, None] == np.arange(n))
    snapped = (np.angle(np.take_along_axis(sums, label, axis=-1)) / (2.0 * np.pi)) % 1.0

    # the top m phases move down by one, m the rounded phase sum
    q = np.sort(snapped, axis=-1)[..., ::-1]
    m = np.rint(np.sum(q, axis=-1, keepdims=True)).astype(int)
    lam = np.take_along_axis(q, (np.arange(n) + m) % n, axis=-1) - (np.arange(n) >= n - m)
    lam -= np.sum(lam, axis=-1, keepdims=True) / n
    if not (np.all(np.diff(lam) <= 1e-12) and np.all(lam[..., 0] - lam[..., -1] <= 1.0 + 1e-9)):
        raise InputError("alcove-normalization", f"bad representative {lam}")
    return lam


def maurer_cartan(g: np.ndarray, v: np.ndarray, side: str, tol: float = 1e-8) -> np.ndarray:
    """Left or right translation of a tangent vector at g back to the
    algebra; leading axes of g and v broadcast, and the tangency check
    covers the whole stack."""
    g = np.asarray(g, dtype=complex)
    v = np.asarray(v, dtype=complex)
    if side not in ("left", "right"):
        raise InputError("invalid-side", f"side must be 'left' or 'right', got {side!r}")
    ginv = g.conj().swapaxes(-1, -2)
    x = ginv @ v
    defect = np.max(np.abs(x + x.conj().swapaxes(-1, -2)))
    if defect >= tol or np.max(np.abs(np.trace(x, axis1=-2, axis2=-1))) >= tol:
        raise InputError("not-tangent", f"vector is not tangent at g (defect {defect:.2e})")
    return x if side == "left" else v @ ginv


def canonical_three_form(
    g: np.ndarray,
    v1: np.ndarray,
    v2: np.ndarray,
    v3: np.ndarray,
    tol: float = 1e-8,
) -> float | np.ndarray:
    """The bi-invariant 3-form (1/12) B(theta, [theta, theta]) evaluated on
    three tangent vectors at g; stacks of points and tangents give an array
    of values."""
    return _three_form_pulled([maurer_cartan(g, v, "left", tol=tol) for v in (v1, v2, v3)])


def _three_form_pulled(xs: list[np.ndarray]) -> float | np.ndarray:
    """The 3-form on already left-translated algebra values.  By
    ad-invariance of B the six signed terms of the antisymmetrization
    (1/12) sum sign B(x, [y, z]) are equal, so the sum is (1/2) B(x, [y, z])."""
    x, y, z = xs
    return 0.5 * basic_inner(x, y @ z - z @ y)


@lru_cache(maxsize=None)
def algebra_basis(n: int) -> tuple[np.ndarray, ...]:
    """Orthonormal real basis of su(n) for Re tr(X* Y)."""
    out = []
    s = 1.0 / np.sqrt(2.0)
    for j in range(n):
        for k in range(j + 1, n):
            m = np.zeros((n, n), dtype=complex)
            m[j, k], m[k, j] = s, -s
            out.append(m)
            m = np.zeros((n, n), dtype=complex)
            m[j, k] = m[k, j] = 1j * s
            out.append(m)
    for j in range(n - 1):
        d = np.zeros(n)
        d[: j + 1] = 1.0
        d[j + 1] = -(j + 1.0)
        d /= np.linalg.norm(d)
        out.append(1j * np.diag(d))
    return tuple(out)


@lru_cache(maxsize=None)
def _basis_stack(n: int) -> np.ndarray:
    """algebra_basis(n) as one read-only (n^2-1, n, n) array."""
    out = np.array(algebra_basis(n)).reshape(-1, n, n)
    out.flags.writeable = False
    return out


def algebra_coords(x: np.ndarray) -> np.ndarray:
    """Coordinates of an algebra element in the orthonormal real basis,
    Re tr(B_k* X); leading axes of x are kept."""
    basis = _basis_stack(x.shape[-1])
    return np.real(np.einsum("kij,...ij->...k", basis.conj(), x))


def algebra_from_coords(n: int, coords: np.ndarray) -> np.ndarray:
    """Inverse of algebra_coords; leading axes of coords are kept."""
    return np.einsum("...k,kij->...ij", coords, _basis_stack(n))


def realified_operator(n: int, fn) -> np.ndarray:
    """Matrix of a real-linear operator on su(n) in the orthonormal basis;
    fn is applied once to the stacked basis.  An fn that adds leading axes
    in front of the basis axis gives a stack of matrices."""
    return algebra_coords(fn(_basis_stack(n))).swapaxes(-1, -2)


def eta_integral_su2(samples: int = 2000, seed: int = 0) -> float:
    """Monte Carlo integral of the canonical 3-form over SU(2).

    Points are Haar-uniform via unit quaternions; at each point an oriented
    frame orthonormal for the round embedding metric Re tr(V W*)/2 is drawn,
    oriented against the left-invariant reference frame, and the 3-form value
    is averaged and scaled by vol(S^3) = 2 pi^2.  Each sample draws 13
    normals (a quaternion, then three rows of frame coefficients); all
    samples are drawn and evaluated as one stack.
    """
    if samples < 1:
        raise InputError("invalid-samples", f"need samples >= 1, got {samples}")
    draws = np.random.default_rng(seed).normal(size=(samples, 13))
    q = draws[:, :4] / np.linalg.norm(draws[:, :4], axis=1, keepdims=True)
    # g = w + i(x sigma_1 + y sigma_2 + z sigma_3)
    g = q[:, 0, None, None] * np.eye(2) + 1j * np.einsum("sk,kij->sij", q[:, 1:], _PAULI)
    # Left-invariant round-orthonormal reference frame, ordered so the
    # 3-form is positive on it (that orientation makes the integral +1).
    ref = g[:, None] @ (1j * _PAULI[[0, 2, 1]])

    def round_inner(v, w):
        return 0.5 * np.real(np.sum(v * w.conj(), axis=(-2, -1)))

    # Random round-orthonormal tangent frame at g, by Gram-Schmidt.
    raw = np.einsum("svr,srij->svij", draws[:, 4:].reshape(samples, 3, 3), ref)
    frame = []
    for v in raw.swapaxes(0, 1):
        for u in frame:
            v = v - round_inner(v, u)[:, None, None] * u
        frame.append(v / np.sqrt(round_inner(v, v))[:, None, None])

    change = round_inner(np.stack(frame, axis=1)[:, :, None], ref[:, None])
    orient = np.sign(np.linalg.det(change))
    values = canonical_three_form(g, *frame, tol=1e-6)
    return float(np.sum(orient * values) / samples * 2.0 * np.pi**2)
