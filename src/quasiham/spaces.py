"""Quasi-Hamiltonian SU(n)-spaces and numerical verification of their axioms.

Built-in spaces: conjugacy classes, the double (a G x G space), and `Fused`,
one left fold of fusion over a list of parts.  Its constructors are the
internal fusion of a double (commutator moment map), the fusion product of
two G-valued spaces, and the genus-h product of h fused doubles.  A point
is one complex array of shape (k, n, n): one SU(n) matrix per slot, one
slot for a class and two for a double, and a fused space has the slots of
its parts in a row.  Field data has the shape of a point, and a stack of d
tangents at it has shape (k, d, n, n).  A random point is the time-one flow
from the space's base point of a field drawn as one Gaussian su(n) element
per slot.  Every space gives one structure record for a stack of tangents:
the Gram matrix of its 2-form, its moment factors and their left and right
logarithmic derivatives.  Fusion is one rule on records; the verifier only
reads records and the common interface, so every axiom check runs uniformly
across spaces.  A stack of points carries leading axes P after the slot
axis, (k, *P, n, n); records, moments, actions and fields then carry the
same axes, and a single point is the case without them.

Conventions: actions are left actions, generating vector fields satisfy
[xi_M, zeta_M] = -[xi, zeta]_M, and the double pairs g-valued 1-forms by
B(alpha, beta)(V, W) = B(alpha(V), beta(W)) - B(alpha(W), beta(V)).  The
orientations of the fusion correction term and of the 3-form in the
structure equation are pinned by the moment and cocycle residual checks.
"""

from __future__ import annotations

from collections import Counter
from dataclasses import dataclass
from fractions import Fraction
from functools import reduce
from itertools import accumulate

import numpy as np

from .errors import InputError
from .sun import (
    algebra_coords,
    algebra_from_coords,
    basic_gram,
    basic_inner,
    check_special_unitary,
    expm_skew,
    project_algebra,
    random_algebra,
    realified_operator,
    torus_point,
    _PAULI,
    _basis_stack,
    _three_form_pulled,
)

RANK_CUTOFF = 1e-7
KERNEL_FLOOR = 1e-12
RETRIES = 8  # draws per sample before undecided ranks are an error
# Tangents per stacked evaluation, STACK_ROWS // dim samples of any axiom.  More
# gain no speed and cost memory: genus(4, 8) min_degeneracy with 50 samples took
# 42-46 ms a sample at 512 and 45-55 ms with 250 MB more peak memory in one
# stack (2-vCPU KVM guest, BLAS on 1 thread).
STACK_ROWS = 512
# A relative singular value in [RANK_CUTOFF, DECIDED_GAP) leaves a rank
# undecided; min_degeneracy redraws a sample whose ranks disagree while such
# a value is present, and passes one whose ranks agree.  On the benchmark's
# degeneracy streams (seeds 1-4) the smallest decided ones were 3.8e-5 for
# omega and 4.3e-4 for Ad_Psi + 1; a genus(2,2) sample with |tr Psi| = 2.5e-6
# puts omega at 8.6e-8 and Ad_Psi + 1 at 1.25e-6, where the two cutoffs
# disagree.
DECIDED_GAP = 1e-5
# Largest tangent dimension (a class's n^2 - 1), checked before any array grows with
# n or h.  At it the costliest default verify, class(16) cocycle, took 8.1 s; in
# stacks of 2 samples it peaks at 69 MB, as one stack of 50 it took 655 MB.
MAX_DIM = 256

# Relative orientation of the canonical 3-form inside the structure equation
# d omega = Psi* eta.  With the 2-form and moment conventions used here the
# closing relation holds for the opposite orientation of the 3-form; the bit
# is pinned numerically (two independent d-omega computations agree on it).
STRUCTURE_FORM_ORIENTATION = -1.0


# ---------------------------------------------------------------------------
# points, tangents and field data: arrays of shape (k, *P, n, n), slot first

def realvec(x: np.ndarray) -> np.ndarray:
    """The real and imaginary parts of every slot of x, of shape
    (k, *L, n, n), in one real vector per index of L: slot by slot, the real
    part before the imaginary part."""
    parts = np.stack([x.real, x.imag], axis=1)
    return np.moveaxis(parts, (0, 1), (-4, -3)).reshape(x.shape[1:-2] + (-1,))


def unrealvec(vector: np.ndarray, n: int) -> np.ndarray:
    """Inverse of realvec for n x n slots; leading axes of vector follow the
    slot axis."""
    parts = vector.reshape(vector.shape[:-1] + (vector.shape[-1] // (2 * n * n), 2, n, n))
    return np.moveaxis(parts[..., 0, :, :] + 1j * parts[..., 1, :, :], -3, 0)


def _dag(p: np.ndarray) -> np.ndarray:
    """Conjugate transpose of the last two axes, the inverse of a unitary."""
    return p.conj().swapaxes(-1, -2)


def _lift(p: np.ndarray) -> np.ndarray:
    """A point's matrix broadcast against the stack axis of its tangents."""
    return p[..., None, :, :]


def _block_rows(parts: list) -> np.ndarray:
    """Stacked tangents of a product from those of its factors, each of shape
    (k_j, *P, d_j, n, n): factor j's tangents fill its own slots and rows,
    zeros the others."""
    rows = list(accumulate((p.shape[-3] for p in parts), initial=0))
    slots = list(accumulate((len(p) for p in parts), initial=0))
    x = parts[0]
    out = np.zeros((slots[-1],) + x.shape[1:-3] + (rows[-1],) + x.shape[-2:], dtype=complex)
    for j, p in enumerate(parts):
        out[slots[j] : slots[j + 1], ..., rows[j] : rows[j + 1], :, :] = p
    return out


def _times(t) -> np.ndarray:
    """Flow times broadcast against the matrix axes of field data."""
    return np.asarray(t, dtype=float)[..., None, None]


def _bounded(dim: int) -> int:
    if dim > MAX_DIM:
        raise InputError("space-too-large", f"tangent dimension {dim} exceeds {MAX_DIM}")
    return dim


def _group_rank(n) -> int:
    """The n of SU(n) for spaces built from whole group factors."""
    if int(n) < 2:
        raise InputError("invalid-rank", f"SU(n) needs n >= 2, got {n}")
    return int(n)


# ---------------------------------------------------------------------------
# structure records and fusion

@dataclass(frozen=True)
class Structure:
    """A space's structure on a stack of d tangents v_1..v_d at one point.

    omega is the d x d matrix omega(v_i, v_j).  Per moment factor, psi holds
    its value, left the (d, n, n) stack Psi^-1 dPsi(v_i) and right the stack
    dPsi(v_i) Psi^-1.  Over a stack of points every field carries the
    points' leading axes P in front.
    """

    omega: np.ndarray
    psi: tuple
    left: tuple
    right: tuple

    def factor(self, i: int) -> tuple:
        return self.psi[i], self.left[i], self.right[i]


def _skew(p: np.ndarray) -> np.ndarray:
    return 0.5 * (p - p.swapaxes(-1, -2))


def _fuse(omega: np.ndarray, first: tuple, second: tuple) -> Structure:
    """Fuse two moment factors (psi, left, right) (Alekseev-Malkin-Meinrenken
    1998): omega gains 1/2 B(Psi_1* theta^L, Psi_2* theta^R), antisymmetrised,
    the moment is Psi_1 Psi_2, and by the product rule
    left = Ad_{Psi_2^-1} left_1 + left_2, right = right_1 + Ad_{Psi_1} right_2.
    The pairing's orientation is pinned by the moment axiom check."""
    (p1, l1, r1), (p2, l2, r2) = first, second
    return Structure(
        omega + _skew(basic_gram(l1, r2)),
        (p1 @ p2,),
        (_lift(_dag(p2)) @ l1 @ _lift(p2) + l2,),
        (r1 + _lift(p1) @ r2 @ _lift(_dag(p1)),),
    )


# ---------------------------------------------------------------------------
# space interface

class QSpace:
    """Common interface of a sampled quasi-Hamiltonian space.

    A point of a space with k slots is one complex array of shape
    (k, *P, n, n): one SU(n) matrix per slot, over leading axes P of a stack
    of points.  Field data has the shape of a point, and a stack of d
    tangents at it has shape (k, *P, d, n, n).  An element of G, or of its
    algebra, has one slot per group factor.  Subclasses set the `base` point
    and fill in the hooks `_moment`, `structure`, `_basis`, `field_at` and
    `field_flow`.  `sample`, `random_field` and the action of G-valued
    spaces, conjugation of every slot of a point, are written here.
    `group_factors` is 1 for G-valued moment maps and 2 for the double.
    """

    n: int
    group_factors: int
    dim: int

    def tangent_basis(self, m) -> list:
        """Orthonormal basis (round metric) of the tangent space at one point."""
        return list(np.moveaxis(self._basis(m), -3, 0))

    def random_algebra_element(self, rng) -> np.ndarray:
        """A Gaussian su(n) element per group factor, drawn in one call."""
        return random_algebra(self.n, rng, shape=(self.group_factors,))

    def sample(self, rng) -> np.ndarray:
        """The time-one flow of a random field from the base point."""
        return self.field_flow(self.random_field(rng), self.base, 1.0)

    def random_field(self, rng) -> np.ndarray:
        """A Gaussian su(n) element on every slot, drawn in one call."""
        return random_algebra(self.n, rng, shape=(len(self.base),))

    # -- hooks --------------------------------------------------------------
    def _moment(self, m) -> tuple:
        raise NotImplementedError

    def structure(self, m, stack) -> Structure:
        """The record of a stack of tangents of shape (k, *P, d, n, n) at
        points m of shape (k, *P, n, n)."""
        raise NotImplementedError

    def _act(self, g, m):
        return g @ m @ _dag(g)

    def _basis(self, m):
        """Orthonormal tangent bases at a stack of points, of shape
        (k, *P, d, n, n)."""
        raise NotImplementedError

    def _generating(self, xi, m):
        return xi @ m - m @ xi

    # extension fields for the invariant-extension derivative formula
    def field_at(self, data, m):
        raise NotImplementedError

    def field_flow(self, data, m, t):
        """The flow of the field for time t, a float or an array whose axes
        broadcast against the leading axes of data and m after the slot axis."""
        raise NotImplementedError

    def field_bracket(self, d1, d2):
        """Data of the commutator field; the minus sign is the left-action
        convention for generating fields and the right-invariant-frame
        bracket for group slots."""
        return -(d1 @ d2 - d2 @ d1)


class ConjugacyClass(QSpace):
    """Conjugacy class of exp(2 pi i diag(xi)) in SU(n), acted on by
    conjugation, moment map the inclusion; a point has one slot."""

    group_factors = 1

    def __init__(self, n: int, xi):
        self.n = int(n)
        xi = [Fraction(x) if not isinstance(x, float) else Fraction(x).limit_denominator(10**9) for x in xi]
        if len(xi) != self.n:
            raise InputError("dimension-mismatch", f"xi must have length {self.n}")
        _bounded(self.n**2 - 1)
        if sum(xi) != 0:
            raise InputError("nonzero-sum", "alcove coordinates must sum to zero")
        if any(a < b for a, b in zip(xi, xi[1:])):
            raise InputError("not-in-alcove", "coordinates must be non-increasing")
        if xi[0] - xi[-1] > 1:
            raise InputError("not-in-alcove", "top-bottom eigenvalue gap exceeds one")
        self.xi = tuple(xi)
        self.base = torus_point([float(x) for x in xi])[None]
        # n^2 - 1 less the centralizer's sum m_i^2 - 1; m_i counts entries equal mod 1
        self.dim = self.n**2 - sum(m * m for m in Counter(x % 1 for x in xi).values())

    def _moment(self, m):
        return (m[0],)

    def _potential(self, m, stack):
        """Least-norm solution xi of (Ad_{m^-1} - 1) xi = m^-1 v for a stack
        of tangents v at matrices m, from one SVD per point.  The nonzero singular values
        are those of the generating-field map, |e^{2 pi i (l_i - l_j)} - 1|;
        the tangent basis keeps the directions above RANK_CUTOFF = 1e-7 of
        the largest, while the centralizer's n - 1 zeros come out at 5e-16 to
        1.5e-15 of it.  The relative cutoff 1e-12 sits far from both; numpy's
        pinv defaults sit on the zeros and gave a false FAIL.  Applying the
        factors to v, not forming a pseudo-inverse, keeps the accuracy of a
        class with eigenphases 2e-6 apart."""
        lm, lminv = _lift(m), _lift(_dag(m))
        op = realified_operator(self.n, lambda x: lminv @ x @ lm - x)
        rhs = algebra_coords(project_algebra(lminv @ stack)).swapaxes(-1, -2)
        u, s, vt = np.linalg.svd(op)
        inv = 1.0 / np.where(s > 1e-12 * s[..., :1], s, np.inf)
        sol = vt.swapaxes(-1, -2) @ (inv[..., None] * (u.swapaxes(-1, -2) @ rhs))
        return algebra_from_coords(self.n, sol.swapaxes(-1, -2))

    def structure(self, m, stack):
        # omega(v, w) = 1/2 B(Ad_m xi - Ad_{m^-1} xi, zeta) for potentials xi of
        # v and zeta of w
        m, stack = m[0], stack[0]
        lm, lminv = _lift(m), _lift(_dag(m))
        xi = self._potential(m, stack)
        spread = lm @ xi @ lminv - lminv @ xi @ lm
        return Structure(_skew(0.5 * basic_gram(spread, xi)), (m,), (lminv @ stack,),
                         (stack @ lminv,))

    def _basis(self, m):
        # an orthonormal basis (round metric) of the span of the fields x m - m x, one
        # SVD per point, at the first point's rank: conjugation keeps their spectrum
        x, lm = _basis_stack(self.n), _lift(m)
        _, s, vt = np.linalg.svd(realvec(x @ lm - lm @ x), full_matrices=False)
        return unrealvec(vt[..., : _rank(s, s[..., 0])[0].flat[0], :], self.n)

    def field_at(self, data, m):
        return data @ m - m @ data

    def field_flow(self, data, m, t):
        u = expm_skew(_times(t) * data)
        return u @ m @ _dag(u)


class _Slots(QSpace):
    """A space whose slots are all SU(n) matrices p_j (2 for a double, 2h
    for genus h); a tangent or field value is X_j p_j, a field flows by
    exp(t X_j) p_j, and both run once over all slots."""

    def _basis(self, m):
        # x_k p_j in slot j, for every su(n) basis element x_k
        return _block_rows(list((_basis_stack(self.n) @ _lift(m))[:, None]))

    def field_at(self, data, m):
        return data @ m

    def field_flow(self, data, m, t):
        return expm_skew(_times(t) * data) @ m


class Double(_Slots):
    """G x G with the two-sided action and pair moment map (ab, a^-1 b^-1)."""

    group_factors = 2

    def __init__(self, n: int):
        self.n = _group_rank(n)
        self.dim = _bounded(2 * (self.n**2 - 1))
        self.base = np.stack([np.eye(self.n, dtype=complex)] * 2)

    def _moment(self, m):
        a, b = m
        return (a @ b, _dag(a) @ _dag(b))

    def _act(self, g, m):
        # (g1 a g2^-1, g2 b g1^-1)
        return g @ m @ _dag(g[::-1])

    def _generating(self, xi, m):
        return xi @ m - m @ xi[::-1]

    def structure(self, m, stack):
        a, b = map(_lift, m)
        va, vb = stack
        ainv, binv = _dag(a), _dag(b)
        al, ar = ainv @ va, va @ ainv  # theta^L and theta^R of the a slot
        bl, br = binv @ vb, vb @ binv
        return Structure(
            _skew(basic_gram(al, br) + basic_gram(ar, bl)),
            self._moment(m),
            (binv @ al @ b + bl, -(b @ ar @ binv) - br),
            (ar + a @ br @ ainv, -al - ainv @ bl @ a),
        )


class Fused(QSpace):
    """The fusion product of its parts in a left fold: diagonal action,
    product moment map, corrected 2-form (Alekseev-Malkin-Meinrenken 1998).
    A part is G-valued, or a pair space whose two factors fuse first; a
    point is the parts' points concatenated along the slot axis."""

    group_factors = 1

    def __init__(self, parts: list):
        self.parts = tuple(parts)
        self.n = parts[0].n
        self.dim = _bounded(sum(p.dim for p in parts))
        ends = list(accumulate((len(p.base) for p in parts), initial=0))
        self._keys = [slice(i, j) for i, j in zip(ends, ends[1:])]
        self.base = np.concatenate([p.base for p in parts])

    def _each(self, fn, *arrays) -> np.ndarray:
        """fn(part, its slots of the arrays) for every part, concatenated."""
        return np.concatenate([fn(p, *[x[k] for x in arrays]) for p, k in zip(self.parts, self._keys)])

    def _moment(self, m):
        return (reduce(np.matmul, (reduce(np.matmul, p._moment(m[k]))
                                   for p, k in zip(self.parts, self._keys))),)

    def structure(self, m, stack):
        def record(p, k):  # a pair part's two factors fuse first
            r = p.structure(m[k], stack[k])
            return _fuse(r.omega, r.factor(0), r.factor(1)) if p.group_factors == 2 else r

        return reduce(lambda r1, r2: _fuse(r1.omega + r2.omega, r1.factor(0), r2.factor(0)),
                      map(record, self.parts, self._keys))

    def _basis(self, m):
        return _block_rows([p._basis(m[k]) for p, k in zip(self.parts, self._keys)])

    def field_at(self, data, m):
        return self._each(lambda p, d, x: p.field_at(d, x), data, m)

    def field_flow(self, data, m, t):
        return self._each(lambda p, d, x: p.field_flow(d, x, t), data, m)


class InternalFusion(Fused):
    """Fuse the two group factors of a G x G space."""

    def __init__(self, inner: QSpace):
        if inner.group_factors != 2:
            raise InputError("not-a-pair-space", "internal fusion needs a G x G space")
        Fused.__init__(self, [inner])


class Fusion(Fused):
    """Fusion product of two G-valued spaces over the same SU(n)."""

    def __init__(self, s1: QSpace, s2: QSpace):
        if s1.group_factors != 1 or s2.group_factors != 1:
            raise InputError("not-g-valued", "fusion factors must carry G-valued moments")
        if s1.n != s2.n:
            raise InputError("group-size-mismatch", f"SU({s1.n}) vs SU({s2.n})")
        Fused.__init__(self, [s1, s2])


class Genus(_Slots, Fused):
    """h doubles fused in a row, with the commutator-product moment map
    prod_j [a_j, b_j]; points have the 2h slots (a_1, b_1, ..., a_h, b_h),
    and the group-slot methods run once over all of them."""

    def __init__(self, n: int, h: int):
        if h < 1:
            raise InputError("invalid-genus", f"genus must be >= 1, got {h}")
        _bounded(2 * int(h) * (_group_rank(n) ** 2 - 1))
        Fused.__init__(self, [Double(n)] * int(h))


def make_space(kind: str, *, n: int | None = None, xi=None, h: int | None = None,
               s1: QSpace | None = None, s2: QSpace | None = None,
               s: QSpace | None = None) -> QSpace:
    """Build one of the built-in spaces by name."""
    table = {
        "conjugacy_class": ((n, xi), "n and xi", lambda: ConjugacyClass(n, xi)),
        "double": ((n,), "n", lambda: Double(n)),
        "fused_double": ((n,), "n", lambda: InternalFusion(Double(n))),
        "genus": ((n, h), "n and h", lambda: Genus(n, h)),
        "fusion": ((s1, s2), "s1 and s2", lambda: Fusion(s1, s2)),
        "internal_fusion": ((s,), "a space", lambda: InternalFusion(s)),
    }
    if kind not in table:
        raise InputError("unknown-space", f"no space kind {kind!r}")
    needed, names, build = table[kind]
    if any(arg is None for arg in needed):
        raise InputError("missing-argument", f"{kind} needs {names}")
    return build()


# ---------------------------------------------------------------------------
# verification

@dataclass(frozen=True)
class VerificationReport:
    axiom: str
    samples: int
    max_residual: float
    tolerance: float
    passed: bool

    def to_json(self) -> dict:
        out = dict(vars(self))
        out["pass"] = out.pop("passed")
        return out


AXIOMS = ("cocycle", "moment", "min_degeneracy", "equivariance")
DEFAULT_TOLERANCES = {
    "cocycle": 1e-4,
    "moment": 1e-8,
    "min_degeneracy": 0.5,
    "equivariance": 1e-9,
}


def _stack_tangents(m, basis: list) -> np.ndarray:
    """A list of d tangents at m as one stack (k, *P, d, n, n), d = 0 for
    an empty list."""
    return np.moveaxis(np.array(basis, dtype=complex).reshape((len(basis),) + m.shape), 0, -3)


def omega_matrix(space: QSpace, m, basis: list) -> np.ndarray:
    """Gram matrix omega(b_i, b_j) of a list of tangents, read from the
    structure record of the stacked list; it is exactly antisymmetric."""
    return space.structure(m, _stack_tangents(m, basis)).omega


def _orthonormal_fields(data: np.ndarray) -> np.ndarray:
    """Three field data per sample, of shape (k, S, 3, n, n), orthonormalized
    sample by sample in the flat round metric, by one stacked QR."""
    q, _ = np.linalg.qr(realvec(data).swapaxes(-1, -2))
    return unrealvec(q.swapaxes(-1, -2), data.shape[-1])


def _moment_residuals(space: QSpace, m, xi, w) -> np.ndarray:
    """|omega(xi_M, w) - 1/2 B(Psi^-1 dPsi(w) + dPsi(w) Psi^-1, xi)| per
    point of a stack, read from one record of the stacked pairs [xi_M, w]."""
    rec = space.structure(m, np.stack([space._generating(xi, m), w], axis=-3))
    rhs = sum(0.5 * basic_inner(left[..., 1, :, :] + right[..., 1, :, :], x)
              for left, right, x in zip(rec.left, rec.right, xi))
    return np.abs(rec.omega[..., 0, 1] - rhs)


def _cocycle_residuals(space: QSpace, m, f, fd_step: float) -> np.ndarray:
    """|d omega - Psi* eta| on three fields f1, f2, f3 per point of a stack
    of S points, with data f of shape (k, S, 3, n, n).  d omega is the
    invariant-extension formula with central differences: one flow of the
    6 S points exp(+-h f_i) m, one record of the field pairs there (its Psi
    gives the differences of the moment) and one record at m of [f1, f2],
    [f1, f3], [f2, f3], f3, f2, f1."""
    flows = space.field_flow(f[:, :, :, None], m[:, :, None, None], [fd_step, -fd_step])
    pairs = f[:, :, [[1, 2], [0, 2], [0, 1]]][:, :, :, None]
    moved = space.structure(flows, space.field_at(pairs, _lift(flows)))
    brackets = space.field_bracket(f[:, :, [0, 0, 1]], f[:, :, [1, 2, 2]])
    six = np.concatenate([brackets, f[:, :, ::-1]], axis=2)
    base = space.structure(m, space.field_at(six, _lift(m)))
    deriv = (moved.omega[:, :, 0, 0, 1] - moved.omega[:, :, 1, 0, 1]) / (2.0 * fd_step)
    om = base.omega
    d_omega = (deriv[:, 0] - deriv[:, 1] + deriv[:, 2]
               - om[:, 0, 3] + om[:, 1, 4] - om[:, 2, 5])
    eta = 0.0
    for psi, ends in zip(base.psi, moved.psi):
        # theta^L of the finite-difference dPsi along each field
        dpsi = (ends[:, :, 0] - ends[:, :, 1]) / (2.0 * fd_step)
        pulled = project_algebra(_lift(_dag(psi)) @ dpsi)
        eta = eta + _three_form_pulled([pulled[:, 0], pulled[:, 1], pulled[:, 2]])
    return np.abs(d_omega - STRUCTURE_FORM_ORIENTATION * eta)


def _rank(svals: np.ndarray, ref: np.ndarray) -> tuple:
    """Per row of svals, relative to its reference value ref: how many exceed
    RANK_CUTOFF (none if ref <= KERNEL_FLOOR), and whether one is in the band."""
    live, ref = ref > KERNEL_FLOOR, ref[..., None]
    rank = np.where(live, np.sum(svals > RANK_CUTOFF * ref, axis=-1), 0)
    band = (svals >= RANK_CUTOFF * ref) & (svals < DECIDED_GAP * ref)
    return rank, live & np.any(band, axis=-1)


def _degeneracy_mismatch(space: QSpace, m, tangents) -> np.ndarray:
    """|dim ker omega - dim span{xi_M : Ad_Psi xi = -xi}| per point of a
    stack with its stacked tangent bases; NaN where the ranks disagree while
    a relative singular value lies in the band, next to the cutoff."""
    rec = space.structure(m, tangents)
    svals = np.linalg.svd(rec.omega, compute_uv=False)
    rank, undecided = _rank(svals, svals.max(axis=-1, initial=0.0))

    # Ad_Psi + 1 is block diagonal over the moment factors: its spectrum is
    # the union of the blocks' spectra, and a null vector of block k is a xi
    # with only factor k nonzero
    psis = np.stack(rec.psi, axis=1)
    blocks = realified_operator(space.n, lambda x: _lift(psis) @ x @ _lift(_dag(psis)) + x)
    s = np.linalg.svd(blocks, compute_uv=False)
    count, f, na = s.shape
    scale = np.maximum(s.max(axis=(-2, -1)), 1.0)
    undecided |= _rank(s.reshape(count, -1), scale)[1]
    qualifying = np.zeros(count, dtype=int)
    live = np.flatnonzero(np.any(s < RANK_CUTOFF * scale[:, None, None], axis=(-2, -1)))
    if live.size:
        # the generating fields of the null vectors, other rows zeroed
        _, s, vt = np.linalg.svd(blocks[live])
        null = s < RANK_CUTOFF * scale[live, None, None]
        rows = (vt * null[..., None]).reshape(live.size, f * na, na)
        xis = algebra_from_coords(space.n, np.einsum("prc,rk->prkc", rows,
                                                     np.repeat(np.eye(f), na, axis=0)))
        gens = space._generating(np.moveaxis(xis, 2, 0), _lift(m[:, live]))
        gs = np.linalg.svd(realvec(gens), compute_uv=False)
        qualifying[live], band = _rank(gs, gs[:, 0])
        undecided[live] |= band
    mismatch = np.abs(rec.omega.shape[-1] - rank - qualifying).astype(float)
    return np.where((mismatch > 0) & undecided, np.nan, mismatch)


def _equivariance_residuals(space: QSpace, m, g) -> np.ndarray:
    """max |Psi(g m) - g Psi(m) g^-1| over the factors, per point of a stack."""
    moved = space._moment(space._act(g, m))
    return reduce(np.maximum, (np.max(np.abs(left - gi @ right @ _dag(gi)), axis=(-2, -1))
                               for gi, left, right in zip(g, moved, space._moment(m))))


def _draw(space: QSpace, axiom: str, rng) -> tuple:
    """One sample as a loop over samples draws it, by the generator alone: the
    point's field, then for moment xi and space.dim coefficients of w on the
    tangent basis, for cocycle three field data, for equivariance g's exponent."""
    f = space.random_field(rng)
    if axiom == "moment":
        xi = space.random_algebra_element(rng)
        return f, xi, rng.normal(size=space.dim)
    if axiom == "cocycle":
        return f, np.stack([space.random_field(rng) for _ in range(3)], axis=1)
    if axiom == "equivariance":
        return f, space.random_algebra_element(rng)
    return (f,)


def _stack_draws(draws: list) -> list:
    """The draws of a stack of samples, each kind as one array: matrices
    keep their slot axis first, then the samples; coefficients are by sample."""
    return [np.stack(x, axis=int(x[0].ndim > 1)) for x in zip(*draws)]


def _residuals(space: QSpace, axiom: str, fd_step: float, f, *drawn) -> np.ndarray:
    """The residuals at a stack of draws, whose matrix work runs once on the
    stack: the points are one flow of the stacked fields f from the base
    point.  A class basis of fewer than dim rows (eigenphases closer than
    RANK_CUTOFF resolves) takes the first of each sample's coefficients."""
    m = space.field_flow(f, space.base[:, None], 1.0)
    if axiom == "moment":
        xi, coeffs = drawn
        # one product per slot and sample, as the loop combines its basis
        w = np.array([[np.tensordot(c[: len(xp)], xp, axes=1) for c, xp in zip(coeffs, x)]
                      for x in space._basis(m)])
        return _moment_residuals(space, m, xi, w)
    if axiom == "cocycle":
        return _cocycle_residuals(space, m, _orthonormal_fields(drawn[0]), fd_step)
    if axiom == "equivariance":
        return _equivariance_residuals(space, m, expm_skew(drawn[0]))
    return _degeneracy_mismatch(space, m, space._basis(m))


def _sample_residuals(space: QSpace, axiom: str, samples: int, fd_step: float,
                      rng) -> np.ndarray:
    """The residual of each sample, with the draws of a loop over one sample
    at a time, evaluated in stacks of at most STACK_ROWS // dim samples (one
    when dim > STACK_ROWS).  At the first undecided min_degeneracy sample of
    a stack the results before it are kept and the state saved right after
    its draw is restored, so the loop's redraw comes next.  RETRIES undecided
    draws in a row are an error."""
    redraws = axiom == "min_degeneracy"
    step = max(1, STACK_ROWS // max(space.dim, 1))
    out, done, undecided = np.empty(samples), 0, 0
    while done < samples:
        draws, states = [], []
        for _ in range(min(step, samples - done)):
            draws.append(_draw(space, axiom, rng))
            states.append(rng.bit_generator.state)
        part = _residuals(space, axiom, fd_step, *_stack_draws(draws))
        nan = np.flatnonzero(np.isnan(part)) if redraws else []
        keep = nan[0] if len(nan) else len(part)
        out[done : done + keep], done = part[:keep], done + keep
        undecided = 0 if keep else undecided
        if len(nan):
            undecided += 1
            if undecided == RETRIES:
                raise InputError("undecided-sample", f"no decided sample in {RETRIES} draws")
            rng.bit_generator.state = states[keep]
    return out


def verify_axiom(
    space: QSpace,
    axiom: str,
    samples: int = 50,
    fd_step: float = 1e-4,
    tol: float | None = None,
    seed: int = 0,
) -> VerificationReport:
    """Check one defining condition on random samples and report the worst
    residual.  Sampling is driven by a single seeded generator, so reports
    are reproducible."""
    if axiom not in AXIOMS:
        raise InputError("unknown-axiom", f"axiom must be one of {AXIOMS}, got {axiom!r}")
    if samples < 1:
        raise InputError("invalid-samples", f"need samples >= 1, got {samples}")
    if not (1e-6 < fd_step < 1e-2):
        raise InputError("invalid-step", f"fd_step must lie in (1e-6, 1e-2), got {fd_step}")
    tolerance = DEFAULT_TOLERANCES[axiom] if tol is None else float(tol)
    worst = float(np.max(_sample_residuals(space, axiom, samples, fd_step,
                                           np.random.default_rng(seed))))
    return VerificationReport(axiom, samples, worst, tolerance, passed=worst < tolerance)


def reduction_rank(space: QSpace, m) -> int:
    """Numerical rank of the moment differential at a point of the identity
    level set, from the exact Jacobian Psi^-1 dPsi of the record on the
    tangent basis; rank = dim SU(n) certifies the identity is regular there."""
    if space.group_factors != 1:
        raise InputError("not-g-valued", "rank check needs a G-valued moment map")
    psi = space._moment(m)[0]
    if np.max(np.abs(psi - np.eye(space.n))) >= 1e-8:
        raise InputError("not-identity-level", "moment value is not the identity")
    jacobian = algebra_coords(space.structure(m, space._basis(m)).left[0])
    svals = np.linalg.svd(jacobian, compute_uv=False)
    if svals.size == 0 or svals[0] <= 1e-9:
        return 0
    return int(np.sum(svals > RANK_CUTOFF * svals[0]))


# ---------------------------------------------------------------------------
# the four-sphere with SU(2)-valued moment map

def sphere4_moment(z, t) -> np.ndarray:
    """SU(2)-valued moment map of the unit sphere in C^2 x R: the suspension
    of the Hopf map, sending the poles to plus/minus identity.  A stack of
    points, z of shape (..., 2) and t of shape (...), gives the stack of
    values."""
    t = np.asarray(t, dtype=float)
    z = np.asarray(z, dtype=complex).reshape(t.shape + (2,))
    r2 = np.einsum("...i,...i->...", z.conj(), z).real
    if np.any(np.abs(r2 + t * t - 1.0) >= 1e-10):
        raise InputError("off-sphere", "|z|^2 + t^2 must equal 1")
    pole = r2 < 1e-26
    r = np.sqrt(np.where(pole, 1.0, r2))
    hopf_c = 2.0 * np.conj(z[..., 0]) * z[..., 1]
    hopf_r = np.abs(z[..., 0]) ** 2 - np.abs(z[..., 1]) ** 2
    out = t[..., None, None] * np.eye(2, dtype=complex)
    for c, s in zip((hopf_c.real / r, hopf_c.imag / r, hopf_r / r), _PAULI):
        out = out + 1j * c[..., None, None] * s
    return np.where(pole[..., None, None], np.sign(t)[..., None, None] * np.eye(2), out)


def sphere4_act(g: np.ndarray, z, t):
    """SU(2) action through the C^2 factor; stacks of g, z and t act
    samplewise."""
    g = check_special_unitary(g)
    z = np.asarray(z, dtype=complex).reshape(np.shape(t) + (2, 1))
    return (g @ z)[..., 0], t


def sphere4_equivariance_residual(samples: int = 100, seed: int = 0) -> float:
    """Worst-case |Psi(g p) - g Psi(p) g^-1| over random pairs, as one
    stack.  Each pair draws 13 normals: 5 normalized to the point
    (Re z1, Im z1, Re z2, Im z2, t), then the real and imaginary parts of the
    2 x 2 matrix whose projection to su(2) exponentiates to g."""
    if samples < 1:
        raise InputError("invalid-samples", f"need samples >= 1, got {samples}")
    draws = np.random.default_rng(seed).normal(size=(samples, 13))
    p = draws[:, :5] / np.linalg.norm(draws[:, :5], axis=1, keepdims=True)
    z, t = p[:, 0:4:2] + 1j * p[:, 1:4:2], p[:, 4]
    g = expm_skew(project_algebra((draws[:, 5:9] + 1j * draws[:, 9:]).reshape(samples, 2, 2)))
    lhs = sphere4_moment(*sphere4_act(g, z, t))
    rhs = g @ sphere4_moment(z, t) @ g.conj().swapaxes(-1, -2)
    return float(np.max(np.abs(lhs - rhs), initial=0.0))
