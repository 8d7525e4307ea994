"""Quasi-Hamiltonian SU(n)-spaces and numerical verification of their axioms.

Built-in spaces: conjugacy classes, the double (a G x G space), and `Fused`,
the one fusion constructor, a left fold of fusion over a list of parts:
Fused([Double(n)]) is the fused double and Fused([a, b]) the fusion product
of a and b, and `Genus` is Fused([Double(n)] * h).  A point is one complex
array of shape (k, n, n): one SU(n) matrix per slot, one slot for a class
and two for a double, and a fused space has the slots of its parts in a
row; a slot's kind, group or class, gives its tangents, fields and flows.
A tangent is given by its field data, one su(n) element X per slot: X p on
a group slot p, X m - m X on a class slot m; d of them stack to (k, d, n, n).
A random point is the time-one flow from the base point of a field drawn as
one Gaussian su(n) element per slot.  Every space gives one structure record
(Omega, Psi, L) for a stack of field data: the Gram matrix of its 2-form, its
moment factors and their left logarithmic derivatives L = Psi^-1 dPsi; the
right one is Ad_Psi L and is not stored.  Fusion is one rule on
records, and a run of parts that are one object, such as a genus's doubles,
gives one record over a leading axis before the fold; the verifier only
reads records and the common interface, so every axiom check runs uniformly
across spaces.  A stack of points carries leading axes P after the slot
axis, (k, *P, n, n); records, moments, actions and fields then carry the
same axes, and a single point is the case without them.  The verifier draws
each stack of samples of every axiom in one generator call, the values of a
loop over the samples, and runs its matrix work once per stack.

The tangent basis is a block stack: slot j's basis data on its own d_j rows,
the rows in slot order, a double's a rows then its b rows, and a class's
u C u*, u the flow of its base point, for one constant C with two rows per
eigenvalue pair of xi.  Its record is built block by block: a double pairs
only its a rows with its b rows, and each fusion step adds the one block
between the rows before it and the next part's, and stacks the lefts;
min_degeneracy and reduction_rank read it.  A lone class's Omega is one 2 x 2
block per pair, decided pair by pair; at a product point Ad_Psi + 1 picks the
Liouville identity or an SVD, on Omega scaled by its row norms.  The moment
and cocycle checks read records over stacks whose every slot spans all rows.

Conventions: actions are left actions, generating vector fields satisfy
[xi_M, zeta_M] = -[xi, zeta]_M, and the double pairs g-valued 1-forms by
B(alpha, beta)(V, W) = B(alpha(V), beta(W)) - B(alpha(W), beta(V)).  The
orientations of the fusion correction term and of the 3-form in the
structure equation are pinned by the moment and cocycle residual checks.
"""

from __future__ import annotations

from collections import Counter, namedtuple
from functools import reduce
from itertools import accumulate, groupby
from operator import add

import numpy as np

from .errors import InputError, ToolkitError, built_here
from .rational import common_denominator
from .sun import (
    Jet,
    MAX_DIM,
    algebra_basis,
    basic_gram,
    basic_inner,
    check_special_unitary,
    expm_skew,
    pair_basis,
    pair_indices,
    project_algebra,
    torus_point,
    unitary_eig,
    _PAULI,
    _bounded,
    _three_form_pulled,
)

RANK_CUTOFF = 1e-7
KERNEL_FLOOR = 1e-12
# Tangents per stacked evaluation, STACK_ROWS // dim samples of any axiom.  More
# gain little speed and cost memory: genus(4, 8) min_degeneracy with 50 samples
# took 8.7-8.9 ms a sample at 512 (41 MB peak) and 8.1 ms in one stack (93 MB),
# min of 3 (2-vCPU KVM guest, BLAS on 1 thread).
STACK_ROWS = 512
# Off a lone class's 2 x 2 blocks, omega in units of its bound 2 |X| |Y| / 4 pi^2 on the rows'
# data (of norm 4 pi^2 / gap) is rounding, at most 1.4e-15 (6.2 eps) on 42 random classes of
# n = 3..16, class(16) and the near-wall and tiny ones of n = 2..4 at 1e-5..1e-12 (3 seeds of
# 4 points each): 64 eps leaves a factor 10.  An entry above fails all rows.
OFF_BLOCK = 64 * np.finfo(float).eps
# |log density - the space's constant| grows like eps / min s, s = |d_i conj(d_j) + 1|: miss *
# min s <= 8.0e-15 (36 eps) on forced points, so at the path's edge s = 2 RANK_CUTOFF a valid
# point misses by up to 4e-8 (1e-8 failed 18 of 720); the Liouville mutants miss by 0.01 or more.
LIOUVILLE_MISS = 1e-6
# A class with two eigenvalues closer than this is refused: (eps, 0, ..., -eps) of n = 2..4, alone
# and fused with a double, passes every axiom down to |d_i - d_j| = 6.3e-18, fails from 1.3e-18.
MIN_GAP = 1e-16

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
    return np.moveaxis(np.stack([x.real, x.imag], axis=1), (0, 1), (-4, -3)).reshape(
        x.shape[1:-2] + (2 * len(x) * x.shape[-1] ** 2,))  # also for an empty L


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


def _group_rank(n) -> int:
    """The n of SU(n) for spaces built from whole group factors."""
    if int(n) < 2:
        raise InputError("invalid-rank", f"SU(n) needs n >= 2, got {n}")
    return int(n)


# ---------------------------------------------------------------------------
# structure records and fusion

class Structure(namedtuple("Structure", "omega psi left")):
    """A space's structure on the tangents v_1..v_d of d field data at a point.

    omega is the d x d array omega(v_i, v_j).  Per moment factor, the tuple
    psi holds its value and the tuple left the (d, n, n) stack
    Psi^-1 dPsi(v_i); dPsi(v_i) Psi^-1 is Ad_Psi of it.  Over a stack of
    points every field carries the points' leading axes P in front.
    """

    __slots__ = ()

    def factor(self, i: int) -> tuple:
        return self.psi[i], self.left[i]


def _skew(p: np.ndarray) -> np.ndarray:
    return 0.5 * (p - p.swapaxes(-1, -2))


def _joined(g: np.ndarray, first=0.0, second=0.0) -> np.ndarray:
    """The 2-form on two blocks of rows that are pairwise apart, the first's
    then the second's: the forms first and second on the diagonal, and the
    antisymmetrisation of the pairing g between them off it."""
    e, f = g.shape[-2:]
    out = np.zeros(g.shape[:-2] + (e + f, e + f))
    out[..., :e, :e], out[..., e:, e:] = first, second
    out[..., :e, e:] = 0.5 * g
    out[..., e:, :e] = -0.5 * g.swapaxes(-1, -2)
    return out


def _rows(first: np.ndarray, second: np.ndarray) -> np.ndarray:
    """Field data of two blocks of rows, the first's then the second's."""
    return np.concatenate([first, second], axis=-3)


def _fuse(omega, first: tuple, second: tuple, blocks: bool = False) -> Structure:
    """Fuse two moment factors (psi, left) (Alekseev-Malkin-Meinrenken 1998):
    omega gains 1/2 B(Psi_1* theta^L, Psi_2* theta^R) = 1/2 B(t, left_2),
    antisymmetrised, with t = Ad_{Psi_2^-1} left_1 and theta^R = Ad_Psi theta^L;
    the moment is Psi_1 Psi_2 and by the product rule its left = t + left_2.
    With blocks the factors live on rows apart, the first's then the second's,
    omega is the pair of their forms, the pairing is the one block between
    them and the lefts are stacked.  The pairing's orientation is pinned by
    the moment axiom check."""
    (p1, l1), (p2, l2) = first, second
    t = _lift(_dag(p2)) @ l1 @ _lift(p2)
    if blocks:
        return Structure(_joined(basic_gram(t, l2), *omega), (p1 @ p2,), (_rows(t, l2),))
    return Structure(omega + _skew(basic_gram(t, l2)), (p1 @ p2,), (t + l2,))


# ---------------------------------------------------------------------------
# space interface

class QSpace:
    """Common interface of a sampled quasi-Hamiltonian space.

    A point of a space with k slots is one complex array of shape
    (k, *P, n, n): one SU(n) matrix per slot, over leading axes P of a stack
    of points.  Every hook takes tangents as field data, of the shape of a
    point; a stack of d of them has shape (k, *P, d, n, n).  An element of
    G, or of its algebra, has one slot per group factor.  Subclasses set
    `base`, `dim`, `class_slots`, the slots of a class point m (the others
    hold a group point p), `class_rows`, each class slot's basis C on all
    its pairs, `_log_liouville`, the constant log of the Liouville density
    Pf(Omega) / det^1/2((1 + Ad_Psi) / 2) on orthonormal tangents (AMW
    2002), and the hooks `_moment` and `structure`.  Written here are the
    G-valued action by conjugation of every slot, its generating field, and
    the bases, fields and flows of both slot kinds.
    `group_factors` is 1 for G-valued moment maps and 2 for the double.
    """

    n: int
    group_factors: int
    dim: int
    class_slots: tuple = ()
    class_rows: tuple = ()

    # -- hooks --------------------------------------------------------------
    def _moment(self, m) -> tuple:
        raise NotImplementedError

    def structure(self, m, stack, blocks: bool = False) -> Structure:
        """The record of a stack of field data at points m of shape
        (k, *P, n, n); it may broadcast against m.  A stack is indexed by
        slot: every slot's data span all d rows, (k, *P, d, n, n), or with
        blocks slot j's data are its own rows alone, (*P, d_j, n, n), the
        rows in slot order and zero on every other slot."""
        raise NotImplementedError

    def _pair_mismatch(self, omega):
        """_degeneracy_mismatch decided by the shape of the block record's omega, or None."""

    def _act(self, g, m):
        return g @ m @ _dag(g)

    def _generating(self, xi, m):
        """Data of xi's generating field: xi - Ad_p xi on a group slot p, xi on a class slot."""
        out = xi - m @ xi @ _dag(m)
        out[list(self.class_slots)] = xi
        return out

    def _basis(self, m, flows):
        """Field data of orthonormal tangent bases at a stack of points, one
        (*P, d_j, n, n) block per slot: the su(n) basis x_k on a group slot p
        (the tangents x_k p are orthonormal), and on a class slot its class's
        constant rows C carried by the slot's flow u, which takes the base
        point m_0 to m = u m_0 u*: u C u*.  Only class slots read the flows."""
        x = algebra_basis(self.n)
        out = [np.broadcast_to(x, m.shape[1:-2] + x.shape)] * len(m)
        for j, rows in zip(self.class_slots, self.class_rows):
            out[j] = _lift(flows[j]) @ rows @ _lift(_dag(flows[j]))
        return out

    def _carry(self, u, m):
        """The points m moved by the slot flows u: u p on a group slot, u m u*
        on a class slot."""
        out = u @ m
        for j in self.class_slots:
            out[j] = out[j] @ _dag(u[j])
        return out

    def _tangents(self, data, m):
        """The tangents at points m of field data X: X p on a group slot p,
        X m - m X on a class slot m."""
        out = data @ m
        for j in self.class_slots:
            out[j] -= m[j] @ data[j]
        return out


class ConjugacyClass(QSpace):
    """Conjugacy class of exp(2 pi i diag(xi)) in SU(n), acted on by
    conjugation, moment map the inclusion; a point has one slot."""

    group_factors = 1
    class_slots = (0,)

    def __init__(self, n: int, xi, den: int | None = None):
        """xi are the eigenvalue coordinates: ints or Fractions, or integer
        numerators over den.  The checks and the dimension are exact, on
        integer numerators over one denominator."""
        n = self.n = int(n)
        if den is None:
            xi, den = common_denominator(xi)
        if len(xi) != self.n:
            raise InputError("dimension-mismatch", f"xi must have length {self.n}")
        _bounded(self.n**2 - 1)
        if sum(xi) != 0:
            raise InputError("nonzero-sum", "alcove coordinates must sum to zero")
        if any(a < b for a, b in zip(xi, xi[1:])):
            raise InputError("not-in-alcove", "coordinates must be non-increasing")
        if xi[0] - xi[-1] > den:
            raise InputError("not-in-alcove", "top-bottom eigenvalue gap exceeds one")
        self.base = torus_point([a / den for a in xi])[None]
        # n^2 - 1 less the centralizer's sum m_i^2 - 1; m_i counts entries equal mod 1
        self.dim = self.n**2 - sum(m * m for m in Counter(a % den for a in xi).values())
        # the pairs i < j with xi_i != xi_j mod 1 (indices into pair_indices), each with
        # 4 pi^2 |d_i - d_j|, d = diag m_0, and its singular value |d_i conj(d_j) + 1| of Ad_Psi + 1
        i, j = pair_indices(self.n)
        self.pairs = np.flatnonzero([(xi[a] - xi[b]) % den != 0 for a, b in zip(i, j)])
        di, dj = (np.diagonal(self.base[0])[k[self.pairs]] for k in (i, j))
        gap = np.abs(di - dj)
        if gap.min(initial=np.inf) < MIN_GAP:
            raise InputError("unresolved-class", f"eigenvalues {gap.min():.2g} apart, < {MIN_GAP}")
        self._gaps, self._moduli = 4 * np.pi**2 * gap, np.abs(di * dj.conj() + 1)
        self._log_liouville = -float(np.sum(np.log(self._gaps)))
        # C, the basis at m_0 on all pairs: the data X of the orthonormal tangents B m_0 of a pair's
        # basis elements B, X m_0 - m_0 X = B m_0, are B times f = d_j / (d_j - d_i) = 1/2 + i Im f
        # at (i, j): the pair's (B_re, B_im) give (B_re / 2 + Im f B_im, B_im / 2 - Im f B_re).
        b = algebra_basis(n)[: n * (n - 1)].reshape(-1, 2, n, n)[self.pairs]
        turn = (dj / (dj - di)).imag[:, None, None, None] * np.array([1.0, -1.0])[:, None, None]
        self.class_rows = ((0.5 * b + turn * b[:, ::-1]).reshape(-1, n, n),)

    def _moment(self, m):
        return (m[0],)

    def _pair_mismatch(self, omega):
        # On the basis u C u*, in the eigenframe (diag m_0, u), Omega is one block [[0, w], [-w, 0]]
        # per pair, |w| 4 pi^2 |d_i - d_j| = |d_i conj(d_j) + 1| / 2 (AMW 2002): w is null where
        # Ad_Psi + 1 is.  A pair that disagrees counts 2 rows.
        gap, r = self._gaps, len(self.pairs)
        w = np.diagonal(omega[..., ::2, 1::2], axis1=-2, axis2=-1)
        disagree = (np.abs(w) * gap < RANK_CUTOFF) != (self._moduli < 2 * RANK_CUTOFF)
        mismatch = 2.0 * np.sum(disagree, axis=-1)
        scale = (np.multiply.outer(gap, gap) * (1 - np.eye(r)) / (8 * np.pi**2))[:, None, :, None]
        off = np.abs(omega).reshape(omega.shape[:-2] + (r, 2, r, 2)) * scale
        mismatch[np.max(off, axis=(-4, -3, -2, -1), initial=0.0) > OFF_BLOCK] = self.dim
        return mismatch

    def structure(self, m, stack, blocks=False):
        # data X are potentials of tangents X m - m X: m^-1 dm = Ad_{m^-1} X - X, and by Ad-
        # invariance omega(X, Y) = 1/2 B(Ad_m X - Ad_{m^-1} X, Y) (AMM 1998) = -skew B(m^-1 dm, Y)
        lm, x = _lift(m[0]), stack[0]
        left = _dag(lm) @ x @ lm - x
        return Structure(-_skew(basic_gram(left, x)), (m[0],), (left,))


class Double(QSpace):
    """G x G with the two-sided action and pair moment map (ab, a^-1 b^-1)."""

    group_factors = 2

    def __init__(self, n: int):
        self.n = _group_rank(n)
        self.dim = _bounded(2 * (self.n**2 - 1))
        self.base = np.stack([np.eye(self.n, dtype=complex)] * 2)
        # Haar measure, on tangents orthonormal for 4 pi^2 B
        self._log_liouville = -self.dim / 2 * np.log(4 * np.pi**2)

    def _moment(self, m):
        a, b = m
        return (a @ b, _dag(a) @ _dag(b))

    def _act(self, g, m):
        # (g1 a g2^-1, g2 b g1^-1)
        return g @ m @ _dag(g[::-1])

    def _generating(self, xi, m):
        return xi - m @ xi[::-1] @ _dag(m)

    def structure(self, m, stack, blocks=False):
        a, b = map(_lift, m)
        ar, br = stack  # the field data are theta^R of the a and b slots
        ainv, binv = _dag(a), _dag(b)
        al, bl = ainv @ ar @ a, binv @ br @ b  # theta^L
        pairing = basic_gram(al, br) + basic_gram(ar, bl)
        # on blocks the a rows pair only with the b rows, and each left stacks the two slots'
        # terms where over all rows it sums them
        join = _rows if blocks else add
        return Structure(
            _joined(pairing) if blocks else _skew(pairing),
            self._moment(m),
            (join(binv @ al @ b, bl), join(-(b @ ar @ binv), -br)),
        )


class Fused(QSpace):
    """The fusion product of its parts in a left fold: diagonal action,
    product moment map, corrected 2-form (Alekseev-Malkin-Meinrenken 1998).
    A part is G-valued, or a pair space whose two factors fuse first; a
    point is the parts' points concatenated along the slot axis, and the
    class slots are the parts' class slots shifted by their offsets."""

    group_factors = 1

    def __init__(self, parts: list):
        self.parts = tuple(parts)
        self.n = parts[0].n
        if any(p.n != self.n for p in parts):
            raise InputError("group-size-mismatch", f"parts over SU(n), n = {[p.n for p in parts]}")
        self.dim = _bounded(sum(p.dim for p in parts))
        ends = list(accumulate((len(p.base) for p in parts), initial=0))
        self._keys = [slice(i, j) for i, j in zip(ends, ends[1:])]
        self.base = np.concatenate([p.base for p in parts])
        self.class_slots = tuple(e + j for p, e in zip(parts, ends) for j in p.class_slots)
        self.class_rows = tuple(c for p in parts for c in p.class_rows)
        self._log_liouville = sum(p._log_liouville for p in parts)  # it multiplies under fusion

    def _moment(self, m):
        return (reduce(np.matmul, (reduce(np.matmul, p._moment(m[k]))
                                   for p, k in zip(self.parts, self._keys))),)

    def structure(self, m, stack, blocks=False):
        def records(run):  # a run of h parts that are one object: one record over an axis of h
            (p, k), h = run[0], len(run)
            size = k.stop - k.start
            end = k.start + h * size
            pm = m[k.start : end].reshape((h, size) + m.shape[1:]).swapaxes(0, 1)
            r = p.structure(pm, [np.stack(stack[j:end:size]) for j in range(k.start, k.stop)],
                            blocks)
            if p.group_factors == 2:  # a pair part's two factors fuse first, on the part's rows
                r = _fuse(r.omega, r.factor(0), r.factor(1))
            psi, left = r.factor(0)
            return [Structure(r.omega[i], (psi[i],), (left[i],)) for i in range(h)]

        def fold(r1, r2):  # on blocks the parts' rows are apart
            omega = (r1.omega, r2.omega) if blocks else r1.omega + r2.omega
            return _fuse(omega, r1.factor(0), r2.factor(0), blocks)

        runs = groupby(zip(self.parts, self._keys), key=lambda pk: id(pk[0]))
        return reduce(fold, [r for _, run in runs for r in records(list(run))])


class Genus(Fused):
    """Fused([Double(n)] * h), h doubles fused in a row, with the
    commutator-product moment map prod_j [a_j, b_j]; points have the 2h
    slots (a_1, b_1, ..., a_h, b_h), all group slots."""

    def __init__(self, n: int, h: int):
        if h < 1:
            raise InputError("invalid-genus", f"genus must be >= 1, got {h}")
        _bounded(2 * int(h) * (_group_rank(n) ** 2 - 1))
        super().__init__([Double(n)] * int(h))


# ---------------------------------------------------------------------------
# verification

class VerificationReport(namedtuple("VerificationReport",
                                     "axiom samples max_residual tolerance passed")):
    """One axiom's check: its samples, worst residual, tolerance and verdict.
    The field order is the order of the report's lines in the text output."""

    __slots__ = ()

    def to_json(self) -> dict:
        out = self._asdict()
        out["pass"] = out.pop("passed")
        return out


AXIOMS = ("cocycle", "moment", "min_degeneracy", "equivariance")
# cocycle, with exact derivatives, and moment, on a unit w: a valid space's residual is the rounding
# of O(1) pairings, at most 6.9e-16 on genus(4, 8) and tests/class_sweep.py, and over the 88 ops
# each of tests/replay_streams.py 3.1e-16 (cocycle) and 4.9e-16 (moment, on genus(3, 3)); 1e-12
# leaves a factor 1,400, and the fusion correction scaled by 1 + 1e-6 gives 3e-8 (cocycle), by
# 1 + 1e-10 4.4e-12 and more (moment).  min_degeneracy: a count of dimensions, 0 on all 200 of
# those ops.  equivariance: worst 1.0e-14 over those 88 ops.
TOLERANCES = {
    "cocycle": 1e-12,
    "moment": 1e-12,
    "min_degeneracy": 0.5,
    "equivariance": 1e-9,
}


def _orthonormal_fields(data: np.ndarray) -> np.ndarray:
    """Three field data per sample, of shape (k, S, 3, n, n), orthonormalized
    sample by sample in the flat round metric, by one stacked QR."""
    q, _ = np.linalg.qr(realvec(data).swapaxes(-1, -2))
    return unrealvec(q.swapaxes(-1, -2), data.shape[-1])


def _moment_residuals(space: QSpace, m, xi, w) -> np.ndarray:
    """|omega(xi_M, w) - 1/2 B(L(w), xi + Ad_{Psi^-1} xi)| per point of a stack,
    AMM 1998's moment condition with dPsi Psi^-1 = Ad_Psi L, read from one
    record of the stacked pairs [xi_M, w]."""
    rec = space.structure(m, np.stack([space._generating(xi, m), w], axis=-3))
    rhs = sum(0.5 * basic_inner(left[..., 1, :, :], x + _dag(psi) @ x @ psi)
              for psi, left, x in zip(rec.psi, rec.left, xi))
    return np.abs(rec.omega[..., 0, 1] - rhs)


def _cocycle_residuals(space: QSpace, m, f) -> np.ndarray:
    """|d omega - Psi* eta| on three fields f1, f2, f3 per point of a stack
    of S points, with data f of shape (k, S, 3, n, n).  d omega is the
    invariant-extension formula with exact derivatives: one record of the
    field pairs [f2, f3], [f1, f3], [f1, f2] at the jets of m along f1, f2
    and f3 (its Psi gives the jets of the moment, Psi* dPsi their theta^L),
    and one record at m of [f1, f2], [f1, f3], [f2, f3], f3, f2, f1."""
    lm = _lift(m)
    moved = space.structure(Jet(np.broadcast_to(lm, f.shape), space._tangents(f, lm)),
                            f[:, :, [[1, 2], [0, 2], [0, 1]]])
    # the data of the commutator fields: the minus sign is the left-action convention for
    # generating fields and the right-invariant-frame bracket for group slots
    x, y = f[:, :, [0, 0, 1]], f[:, :, [1, 2, 2]]
    base = space.structure(m, np.concatenate([-(x @ y - y @ x), f[:, :, ::-1]], axis=2))
    deriv, om = moved.omega.tangent[..., 0, 1], base.omega
    d_omega = (deriv[:, 0] - deriv[:, 1] + deriv[:, 2]
               - om[:, 0, 3] + om[:, 1, 4] - om[:, 2, 5])
    eta = sum(_three_form_pulled((_dag(psi.value) @ psi.tangent).swapaxes(0, 1))
              for psi in moved.psi)
    return np.abs(d_omega - STRUCTURE_FORM_ORIENTATION * eta)


def _rank(svals: np.ndarray, ref: np.ndarray) -> np.ndarray:
    """Per row of svals, how many exceed RANK_CUTOFF relative to its reference
    value ref (none if ref <= KERNEL_FLOOR).  A NaN would not count, so a value
    that is not finite, which only a failed primitive gives, is an error."""
    if not np.all(np.isfinite(svals)):
        raise ToolkitError("non-finite singular values")
    live, ref = ref > KERNEL_FLOOR, ref[..., None]
    return np.where(live, np.sum(svals > RANK_CUTOFF * ref, axis=-1), 0)


def _anti_fixed_rank(space: QSpace, m, psis, s) -> np.ndarray:
    """Per point, with moment factors psis (count, f, n, n): the rank of
    span{xi_M : Ad_Psi xi = -xi}.  The singular values of Ad_Psi + 1 are the
    moduli s = |d_i conj(d_j) + 1| of their eigenvalues, null below RANK_CUTOFF
    on their scale 2, and its null vectors are V B V* of pairs d_i = -d_j."""
    count, f = psis.shape[:2]
    qualifying = np.zeros(count, dtype=int)
    live = np.flatnonzero(np.any(s < 2.0 * RANK_CUTOFF, axis=-1))
    if live.size:
        d, v = unitary_eig(psis[live])
        i, j = pair_indices(space.n)
        null = np.abs(d[..., i] * d[..., j].conj() + 1.0) < 2.0 * RANK_CUTOFF
        # null pairs first, as many per factor as any has (one if eig sees none)
        most = max(1, null.sum(axis=-1).max())
        first = np.argsort(~null, axis=-1, kind="stable")[..., :most]
        kept = np.repeat(np.take_along_axis(null, first, axis=-1), 2, axis=-1)
        xis = pair_basis(v, first) * kept[..., None, None]
        rows = (xis[:, :, :, None] * np.eye(f)[:, None, :, None, None]).reshape(
            (live.size, -1, f) + xis.shape[-2:])
        lm = _lift(m[:, live])
        tangents = space._tangents(space._generating(np.moveaxis(rows, 2, 0), lm), lm)
        gs = np.linalg.svd(realvec(tangents), compute_uv=False)
        qualifying[live] = _rank(gs, gs[:, 0])
    return qualifying


def _degeneracy_mismatch(space: QSpace, m, flows) -> np.ndarray:
    """|dim ker omega - dim span{xi_M : Ad_Psi xi = -xi}| per point of a stack
    that the flows carry the base to.  A lone class decides pair by pair.
    Else Ad_Psi + 1 picks the path: the Liouville identity (ker omega = 0)
    decides a point where none of its singular values is null, and the SVD
    of omega and _anti_fixed_rank decide it where one is or where the
    identity misses."""
    rec = space.structure(m, space._basis(m, flows), blocks=True)
    if not np.all(np.isfinite(rec.omega)):
        raise ToolkitError("non-finite 2-form")
    if (decided := space._pair_mismatch(rec.omega)) is not None:
        return decided
    psis = np.stack(rec.psi, axis=1)
    d = np.linalg.eigvals(psis)
    s = np.abs(d[..., :, None] * d.conj()[..., None, :] + 1.0).reshape(len(d), -1)
    if not np.all(np.isfinite(s)):
        raise ToolkitError("non-finite eigenvalues of the moment")
    # Omega_ij / (D_i D_j), D_i = sqrt(max(|row_i|, 1)): a class pair's rows, data of size 1 / gap,
    # shrink to one scale, and no row grows, whose entries may all be rounding (as class(2, 1/4)'s)
    scale = np.sqrt(np.maximum(np.linalg.norm(rec.omega, axis=-1), 1.0))
    omega = rec.omega / (scale[..., :, None] * scale[..., None, :])
    # the log density 1/2 log|det Omega| - 1/2 sum log(s / 2) (AMW 2002), read where no s is null
    miss = np.abs(0.5 * np.linalg.slogdet(omega)[1] + np.log(scale).sum(-1) - space._log_liouville
                  - 0.5 * np.sum(np.log(np.maximum(s, 2 * RANK_CUTOFF) / 2), axis=-1))
    rest = np.flatnonzero(np.any(s < 2 * RANK_CUTOFF, axis=-1) | ~(miss <= LIOUVILLE_MISS))
    mismatch = np.zeros(len(d))
    if rest.size:
        svals = np.linalg.svd(omega[rest], compute_uv=False)
        rank = _rank(svals, svals.max(axis=-1, initial=0.0))
        qualifying = _anti_fixed_rank(space, m[:, rest], psis[rest], s[rest])
        mismatch[rest] = np.abs(omega.shape[-1] - rank - qualifying)
    return mismatch


def _equivariance_residuals(space: QSpace, m, g) -> np.ndarray:
    """max |Psi(g m) - g Psi(m) g^-1| over the factors, per point of a stack."""
    moved = space._moment(space._act(g, m))
    return reduce(np.maximum, (np.max(np.abs(left - gi @ right @ _dag(gi)), axis=(-2, -1))
                               for gi, left, right in zip(g, moved, space._moment(m))))


def _draw_stack(space: QSpace, axiom: str, count: int, rng) -> tuple:
    """The draws of count samples of an axiom from one generator call.  Per
    sample: the point's field, then for moment xi and space.dim coefficients
    of w on the tangent basis, for cocycle three fields, for equivariance g's
    exponent, for min_degeneracy nothing more; a matrix is its real then its
    imaginary part.  A Generator fills in order, so the values and the final
    state are those of a loop over the samples.  Matrices come slot first,
    then the samples; coefficients by sample."""
    k, n = len(space.base), space.n
    slots = {"cocycle": 4 * k, "min_degeneracy": k}.get(axiom, k + space.group_factors)
    size = slots * 2 * n * n
    z = rng.normal(size=(count, size + (space.dim if axiom == "moment" else 0)))
    x = z[:, :size].reshape(count, slots, 2, n, n)
    x = np.moveaxis(project_algebra(x[:, :, 0] + 1j * x[:, :, 1]), 0, 1)
    if axiom == "cocycle":
        return x[:k], np.moveaxis(x[k:].reshape((3, k) + x.shape[1:]), 0, 2)
    if axiom == "min_degeneracy":
        return (x,)
    return (x[:k], x[k:]) + ((z[:, size:],) if axiom == "moment" else ())


def _residuals(space: QSpace, axiom: str, f, *drawn) -> np.ndarray:
    """The residuals at a stack of draws, whose matrix work runs once on the
    stack: the points are one flow of the stacked fields f from the base
    point.  The moment check reads the unit tangent w / |w|, w the sample's
    dim coefficients on the basis and |w| the norm of its field data."""
    flows = expm_skew(f)
    m = space._carry(flows, space.base[:, None])
    if axiom == "moment":
        xi, coeffs = drawn
        blocks = space._basis(m, flows)
        ends = list(accumulate((x.shape[-3] for x in blocks), initial=0))
        # one product over all rows of the zero-filled block stack, as the loop combines its
        # basis: over a block's own rows alone BLAS rounds otherwise
        rows = np.zeros(m.shape[:2] + (space.dim,) + m.shape[2:], dtype=complex)
        for j, x in enumerate(blocks):
            rows[j, :, ends[j] : ends[j + 1]] = x
        w = (coeffs[:, None] @ rows.reshape(rows.shape[:3] + (m[0, 0].size,))).reshape(m.shape)
        # one sum along each sample's own row, the same bits in any stack; a point keeps w = 0
        norm = np.linalg.norm(realvec(w), axis=-1)[:, None, None]
        return _moment_residuals(space, m, xi, w / np.where(norm > 0, norm, 1.0))
    if axiom == "cocycle":
        return _cocycle_residuals(space, m, _orthonormal_fields(drawn[0]))
    if axiom == "equivariance":
        return _equivariance_residuals(space, m, expm_skew(drawn[0]))
    return _degeneracy_mismatch(space, m, flows)


def _sample_residuals(space: QSpace, axiom: str, samples: int, rng) -> np.ndarray:
    """The residual of each sample, with the draws of a loop over one sample
    at a time, in stacks of at most STACK_ROWS // dim samples (one when dim >
    STACK_ROWS), each drawn in one call; a residual not finite is an error."""
    step, out = max(1, STACK_ROWS // max(space.dim, 1)), np.empty(samples)
    for done in range(0, samples, step):
        part = _residuals(space, axiom, *_draw_stack(space, axiom, min(step, samples - done), rng))
        if not np.all(np.isfinite(part)):
            raise ToolkitError(f"non-finite {axiom} residual")
        out[done : done + len(part)] = part
    return out


def verify_axiom(space: QSpace, axiom: str, samples: int = 50, seed: int = 0) -> VerificationReport:
    """Check one defining condition on random samples and report the worst
    residual, which passes below the axiom's TOLERANCES entry.  Sampling is
    driven by a single seeded generator, so reports are reproducible."""
    if axiom not in AXIOMS:
        raise InputError("unknown-axiom", f"axiom must be one of {AXIOMS}, got {axiom!r}")
    if samples < 1:
        raise InputError("invalid-samples", f"need samples >= 1, got {samples}")
    tolerance = TOLERANCES[axiom]
    worst = float(np.max(_sample_residuals(space, axiom, samples, np.random.default_rng(seed))))
    return VerificationReport(axiom, samples, worst, tolerance, passed=worst < tolerance)


def reduction_rank(space: QSpace, m, flows=None) -> int:
    """Numerical rank of the moment differential at a point of the identity
    level set, from the exact Jacobian Psi^-1 dPsi of the record on the
    tangent basis; rank = dim SU(n) certifies the identity is regular there.
    Class slots read their basis from the flows that carry the base to m."""
    if space.group_factors != 1:
        raise InputError("not-g-valued", "rank check needs a G-valued moment map")
    psi = space._moment(m)[0]
    if np.max(np.abs(psi - np.eye(space.n))) >= 1e-8:
        raise InputError("not-identity-level", "moment value is not the identity")
    # realvec is an isometry of su(n), so the rank is that of its coordinates
    rec = space.structure(m, space._basis(m, flows), blocks=True)
    svals = np.linalg.svd(realvec(rec.left[0][None]), compute_uv=False)
    # the record is one computation: a NaN anywhere in it is a failed primitive
    if not (np.all(np.isfinite(svals)) and np.all(np.isfinite(rec.omega))):
        raise ToolkitError("non-finite moment differential")
    return int(_rank(svals, svals.max(initial=0.0)))


# ---------------------------------------------------------------------------
# the four-sphere with SU(2)-valued moment map

def sphere4_moment(z, t) -> np.ndarray:
    """SU(2)-valued moment map of the unit sphere in C^2 x R: the suspension
    of the Hopf map, sending the poles to plus/minus identity.  A stack of
    points, z of shape (..., 2) and t of shape (...), gives the stack of
    values."""
    t = np.asarray(t, dtype=float)
    z = np.asarray(z, dtype=complex).reshape(t.shape + (2,))
    if not (np.all(np.isfinite(z)) and np.all(np.isfinite(t))):
        raise InputError("off-sphere", "non-finite point")
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
    with built_here():
        lhs = sphere4_moment(*sphere4_act(g, z, t))
        rhs = g @ sphere4_moment(z, t) @ g.conj().swapaxes(-1, -2)
    worst = float(np.max(np.abs(lhs - rhs), initial=0.0))
    if not np.isfinite(worst):
        raise ToolkitError("non-finite sphere4 residual")
    return worst
