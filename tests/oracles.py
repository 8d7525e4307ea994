"""Reference implementations the tests check the package against: exact
linear algebra, the simple and lowest roots and the alcove, lattice and
pre-quantization tests over Fractions with their text, the alcove
coordinates of a matrix, the gerbe's cover and its spectral record of QR
bases with the one-matrix helpers, the constant connection of the
acceptance tests and its JSON, one random point
of a space with the flows that reach it, the flows and brackets of fields
and the central-difference cocycle residual, an eigenframe of a class point
independent of its flow, the verifier's draws sample by sample, the moment check's
unit tangents slot by slot and sample by sample, a fused record part by part,
the zero-filled records that the block records of the spaces replaced, and
the realified su(n) operators that their eigenbasis formulas replaced."""

from dataclasses import dataclass
from fractions import Fraction
from functools import cache, reduce
from itertools import accumulate
from typing import NamedTuple

import numpy as np

from quasiham.errors import InputError
from quasiham.gerbe import _strict_gaps
from quasiham.holonomy import PiecewiseConnection
from quasiham.prequant import NOT_A_WEIGHT
from quasiham.spaces import (
    RANK_CUTOFF,
    STRUCTURE_FORM_ORIENTATION,
    _fuse,
    _lift,
    _rank,
    realvec,
    unrealvec,
)
from quasiham.sun import (
    _three_form_pulled,
    alcove_order,
    algebra_basis,
    check_algebra,
    check_special_unitary,
    complex_pairs,
    expm_skew,
    project_algebra,
    random_algebra,
)


def vec(*entries):
    """A vector of Fractions from ints, Fractions or 'p/q' strings."""
    return tuple(Fraction(e) for e in entries)


def zero(n):
    return (Fraction(0),) * n


def vadd(x, y):
    return tuple(a + b for a, b in zip(x, y, strict=True))


def vsub(x, y):
    return tuple(a - b for a, b in zip(x, y, strict=True))


def scale(r, x):
    return tuple(Fraction(r) * a for a in x)


def dot(x, y):
    return sum((a * b for a, b in zip(x, y, strict=True)), Fraction(0))


def matvec(m, x):
    return tuple(sum((a * b for a, b in zip(row, x, strict=True) if a), Fraction(0)) for row in m)


def format_vector(x):
    """The entries of a vector of ints or Fractions as 'p/q' strings."""
    return [str(Fraction(a)) for a in x]


def fractions(record):
    """The vectors of an AlcoveModel or a LevelWeightSet, nums / den
    entrywise."""
    exact = {a: Fraction(a, record.den) for v in record.nums for a in v}
    return tuple(tuple(map(exact.__getitem__, v)) for v in record.nums)


@cache
def gram(rs):
    """The Gram matrix of the basic inner product in Fractions: (a_i, a_j) =
    int_gram[i][j] / scale."""
    return tuple(tuple(Fraction(g, rs.scale) for g in row) for row in rs.int_gram)


def simple_roots(rs):
    """The unit coordinate vectors: the simple roots in their own basis."""
    r = rs.rank
    return tuple(tuple(int(i == j) for j in range(r)) for i in range(r))


def lowest_root(rs):
    """The negated highest root, whose coefficients are the marks."""
    return tuple(-c for c in rs.marks)


def fundamental_weights(rs):
    """Row i of the inverse Cartan matrix: the simple-root coordinates of w_i."""
    return tuple(tuple(Fraction(c, rs.det) for c in row) for row in rs.inverse_cartan)


def root_pairings(rs, x):
    """(a_i, x) for every simple root: the Gram matrix times x."""
    if len(x) != rs.rank:
        raise InputError("dimension-mismatch", f"expected length {rs.rank}")
    return matvec(gram(rs), x)


def coroot_pairing(rs, x, i):
    """(x, a_i^v) = 2(x, a_i)/(a_i, a_i) for the i-th simple root."""
    return 2 * root_pairings(rs, x)[i] / gram(rs)[i][i]


def fundamental_weight_coords(rs, mu):
    """Coordinates of mu against the fundamental weights: m_i = (mu, a_i^v)."""
    return tuple(2 * p / gram(rs)[i][i] for i, p in enumerate(root_pairings(rs, mu)))


def reflect(rs, v, i):
    """Simple reflection s_i(v) = v - (v, a_i^v) a_i."""
    c = coroot_pairing(rs, v, i)
    return tuple(a - (c if m == i else 0) for m, a in enumerate(v))


def weight_lattice_contains(rs, mu):
    """True iff (mu, a_i^v) is an integer for every simple root."""
    return all(c.denominator == 1 for c in fundamental_weight_coords(rs, mu))


def alcove_contains(rs, xi, k):
    """Membership of xi in the closed level-k alcove: (a_i, xi) >= 0 for
    every simple root and (theta, xi) <= k."""
    if k <= 0:
        raise InputError("invalid-level", f"level must be positive, got {k}")
    pairings = root_pairings(rs, xi)
    return min(pairings) >= 0 and dot(rs.marks, pairings) <= k


def barycentric_coords(rs, xi):
    """t_0 = 1 - (theta, xi) and t_j = mark_j (a_j, xi): the barycentric
    coordinates of xi against the alcove vertices."""
    pairings = root_pairings(rs, xi)
    return (1 - dot(rs.marks, pairings), *(m * p for m, p in zip(rs.marks, pairings)))


def open_face_set(rs, xi):
    """The vertices whose barycentric coordinate at xi is positive, for xi
    in the level-1 alcove."""
    bary = barycentric_coords(rs, xi)
    if min(bary) < 0:
        raise InputError("not-in-alcove",
                         f"{','.join(format_vector(xi))} lies outside the level-1 alcove")
    return frozenset(j for j, t in enumerate(bary) if t > 0)


def transition_weight(rs, i, j):
    """The difference v_j - v_i of alcove vertices."""
    from quasiham.alcove import alcove_vertices

    vertices = fractions(alcove_vertices(rs))
    return vsub(vertices[j], vertices[i])


class Verdict(NamedTuple):
    answer: bool
    witness: object  # the weight k*xi, or NOT_A_WEIGHT


def class_prequantizable(rs, xi, k):
    """The level-k test in Fractions: xi must lie in the alcove, and the
    class passes iff k*xi is a weight; errors as class_decision's."""
    if k < 1:
        raise InputError("invalid-level", f"level must be >= 1, got {k}")
    if not alcove_contains(rs, xi, 1):
        raise InputError("not-in-alcove", f"{','.join(format_vector(xi))} is not a "
                         "conjugacy-class parameter (outside the alcove)")
    weight = scale(k, xi)
    if weight_lattice_contains(rs, weight):
        return Verdict(True, weight)
    return Verdict(False, NOT_A_WEIGHT)


def fusion_prequantizable(verdicts):
    """A fusion product is pre-quantizable iff every factor is; the empty
    product of doubles passes."""
    return all(v.answer for v in verdicts)


def a_series_from_euclidean(rs, x):
    """Inverse of a_series_embedding: the partial sums of x."""
    if sum(x) != 0:
        raise InputError("nonzero-sum", "eigenvalue coordinates must sum to zero")
    return tuple(accumulate(x[:-1]))


def cover(lam):
    """Indices i whose gap after the i-th sorted phase is strict for every
    row of phases."""
    strict = np.all(_strict_gaps(lam), axis=tuple(range(lam.ndim - 1)))
    return frozenset(int(i) + 1 for i in np.flatnonzero(strict))


@dataclass(frozen=True)
class SpectralRecord:
    """The alcove phases (..., n) of a matrix or a stack of them, the cover
    pieces containing every matrix and, for each pair i < j of those pieces,
    orthonormal bases Q_ij (..., n, j - i) of the spectral subspaces of
    eigenvalue positions i+1 .. j.  Each block has its own QR: slices of one
    orthonormal frame would make [Q_ij | Q_jk] equal to Q_ik."""

    phases: np.ndarray
    cover: frozenset
    bases: dict

    def coefficient(self, i, j, k):
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


def alcove_coordinates(a):
    """Sorted eigenvalue phases of a special unitary matrix, normalized to
    the fundamental alcove: descending, summing to zero, top-bottom gap at
    most one.  Phases within SNAP_TOL of an alcove wall are snapped onto it.
    A stack of matrices gives the stack of their coordinates.  The package
    reads its phases from the eigh that exponentiates a draw instead."""
    return alcove_order(np.linalg.eigvals(check_special_unitary(a)))[0]


def ordered_eig(a):
    """The alcove phases of special unitary matrices and their eigenvectors
    in the same order, from one eig of the matrices themselves, not of
    their logarithms: alcove_order's permutation reorders the columns."""
    d, v = np.linalg.eig(a)
    lam, order = alcove_order(d)
    return lam, np.take_along_axis(v, order[..., None, :], axis=-1)


def spectral_record(a):
    """The record of a matrix or a stack of them from one validation and
    one eig, with one batched QR per pair of cover pieces."""
    lam, vecs = ordered_eig(check_special_unitary(a))
    pieces = cover(lam)
    bases = {(i, j): np.linalg.qr(vecs[..., i:j])[0] for i in pieces for j in pieces if i < j}
    return SpectralRecord(phases=lam, cover=pieces, bases=bases)


def record_check(record, i, j, k):
    """The coefficient and whether it witnesses an isomorphism (nonzero
    well above rounding), per matrix of the stack."""
    coeff = record.coefficient(i, j, k)
    return coeff, abs(coeff) > 1e-8


def cocycle_check(a, i, j, k):
    return record_check(spectral_record(a), i, j, k)


def cover_index_set(a):
    """Indices i in 1..n whose eigenvalue gap is strict: the cover pieces
    containing the matrix."""
    return cover(alcove_coordinates(a))


def constant_connection(xi, steps):
    """The connection xi dt on a grid of the given number of steps."""
    check_algebra(xi)
    return PiecewiseConnection(samples=np.broadcast_to(xi, (steps,) + np.shape(xi)))


def connection_json(conn):
    """A connection as the JSON that `holonomy-convergence --file` reads."""
    return {"steps": conn.steps, "samples": complex_pairs(conn.samples)}


def random_field(space, rng):
    """A Gaussian su(n) element on every slot of a space, drawn in one call:
    a point's field."""
    return random_algebra(space.n, rng, shape=(len(space.base),))


def sample_flows(space, rng):
    """A random point of a space and the slot flows that carry its base
    point there: the time-one flow of a random field, as the verifier draws
    its points.  The flows give the basis of a class slot."""
    flows = expm_skew(random_field(space, rng))
    return space._carry(flows, space.base), flows


def sample(space, rng):
    """A random point of a space, as sample_flows draws it."""
    return sample_flows(space, rng)[0]


def identity_flows(space, m):
    """The flows of the base point, identity on every slot, in the shape of
    points m; at the base point they give its basis."""
    return np.broadcast_to(np.eye(space.n, dtype=complex), m.shape)


def eig_frames(space, m):
    """Slot frames of points m that no flow gives: on a class slot u m_0 u*
    a unitary eigenframe V with V diag(m_0) V* = m, from eig with its
    eigenvalues put in the order of diag m_0 by alcove_order and the QR of
    its eigenvectors, which keeps a repeated eigenvalue's vectors in its
    eigenspace; identity on a group slot."""
    out = np.array(identity_flows(space, m))
    for j in space.class_slots:
        d, v = np.linalg.eig(m[j])
        order = alcove_order(d)[1]
        out[j] = np.linalg.qr(np.take_along_axis(v, order[..., None, :], axis=-1))[0]
    return out


def algebra_element(space, rng):
    """A Gaussian su(n) element per group factor, drawn in one call: xi of
    the moment check, and the exponent of g of the equivariance check."""
    return random_algebra(space.n, rng, shape=(space.group_factors,))


def draw(space, axiom, rng):
    """One sample as a loop over samples draws it, by the generator alone: the
    point's field, then for moment xi and space.dim coefficients of w on the
    tangent basis, for cocycle three field data, for equivariance g's exponent,
    for min_degeneracy nothing more."""
    f = random_field(space, rng)
    if axiom == "moment":
        xi = algebra_element(space, rng)
        return f, xi, rng.normal(size=space.dim)
    if axiom == "cocycle":
        return f, np.stack([random_field(space, rng) for _ in range(3)], axis=1)
    if axiom == "equivariance":
        return f, algebra_element(space, rng)
    return (f,)


def stack_draws(draws):
    """The draws of a stack of samples, each kind as one array: matrices
    keep their slot axis first, then the samples; coefficients are by sample."""
    return [np.stack(x, axis=int(x[0].ndim > 1)) for x in zip(*draws)]


def unit_tangents(w):
    """Field data w of shape (k, *S, n, n) over each sample's norm, the
    square root of the sum of the squares of its real vector, sample by
    sample; a zero w stays zero."""
    out = np.array(w)
    for s in np.ndindex(w.shape[1:-2]):
        v = realvec(w[(slice(None),) + s])
        out[(slice(None),) + s] /= np.sqrt(np.sum(v * v)) or 1.0
    return out


def moment_tangents(blocks, coeffs):
    """The moment check's unit w at a stack of S points: per slot and
    sample, the sample's d coefficients (S, d) against the slot's block of
    the basis blocks, zero-padded to all d rows, in one tensordot each, then
    over the sample's norm."""
    ends = list(accumulate((x.shape[-3] for x in blocks), initial=0))
    pads = [[(0, 0), (a, ends[-1] - b), (0, 0), (0, 0)] for a, b in zip(ends, ends[1:])]
    return unit_tangents(np.array([[np.tensordot(c, xp, axes=1)
                                    for c, xp in zip(coeffs, np.pad(x, pad))]
                                   for x, pad in zip(blocks, pads)]))


def part_by_part_record(space, m, stack, blocks=False):
    """The record of a Fused space as a fold over its parts one at a time:
    each part's own record on its slots (a pair part's two factors fused
    first), then each fusion step, with no part sharing a call."""

    def record(p, k):
        r = p.structure(m[k], stack[k], blocks)
        return _fuse(r.omega, r.factor(0), r.factor(1)) if p.group_factors == 2 else r

    def fold(r1, r2):
        omega = (r1.omega, r2.omega) if blocks else r1.omega + r2.omega
        return _fuse(omega, r1.factor(0), r2.factor(0), blocks)

    return reduce(fold, map(record, space.parts, space._keys))


def field_at(space, data, m):
    """The tangents of field data: X p on a group slot p, X m - m X on a
    class slot m."""
    out = data @ m
    for j in space.class_slots:
        out[j] -= m[j] @ data[j]
    return out


def field_flow(space, data, m, t):
    """The flow of field data X for time t, a float or an array whose axes
    broadcast against the leading axes of data and m after the slot axis:
    exp(tX) p on a group slot p, exp(tX) m exp(-tX) on a class slot m."""
    u = expm_skew(np.asarray(t, dtype=float)[..., None, None] * data)
    out = u @ m
    for j in space.class_slots:
        out[j] = out[j] @ u[j].conj().swapaxes(-1, -2)
    return out


def field_bracket(d1, d2):
    """Data of the commutator field of field data d1 and d2; the minus sign
    is the left-action convention for generating fields and the
    right-invariant-frame bracket for group slots."""
    return -(d1 @ d2 - d2 @ d1)


def fd_cocycle_residual(space, m, fields, fd_step=1e-4):
    """|d omega - Psi* eta| at one point m on three field data, d omega by
    the invariant-extension formula, with the derivatives of omega and of
    the moment by central differences of step fd_step along the fields'
    flows: the check that exact derivatives replaced.  Its error is the
    truncation, O(fd_step^2), and the rounding of O(1) terms over 2 fd_step."""
    f1, f2, f3 = fields

    def omega_of(da, db, point):
        return space.structure(point, np.stack([da, db], axis=-3)).omega[0, 1]

    def derivative(d, da, db):
        plus, minus = (field_flow(space, d, m, t) for t in (fd_step, -fd_step))
        return (omega_of(da, db, plus) - omega_of(da, db, minus)) / (2.0 * fd_step)

    d_omega = (
        derivative(f1, f2, f3)
        - derivative(f2, f1, f3)
        + derivative(f3, f1, f2)
        - omega_of(field_bracket(f1, f2), f3, m)
        + omega_of(field_bracket(f1, f3), f2, m)
        - omega_of(field_bracket(f2, f3), f1, m)
    )
    pulled = []  # per field, per factor: theta^L of the finite-difference dPsi
    for d in (f1, f2, f3):
        plus, minus = (space._moment(field_flow(space, d, m, t)) for t in (fd_step, -fd_step))
        pulled.append([project_algebra(psi.conj().T @ ((pp - pm) / (2.0 * fd_step)))
                       for psi, pp, pm in zip(space._moment(m), plus, minus)])
    eta = sum(_three_form_pulled(list(per_factor)) for per_factor in zip(*pulled))
    return float(abs(d_omega - STRUCTURE_FORM_ORIENTATION * eta))


def block_rows(blocks):
    """The stack of a block stack in which every slot spans all rows, of
    shape (k, *P, d, n, n): slot j's block fills its own slot and rows, and
    zeros fill the rest."""
    ends = list(accumulate((x.shape[-3] for x in blocks), initial=0))
    lead, tail = blocks[0].shape[:-3], blocks[0].shape[-2:]
    out = np.zeros((len(blocks),) + lead + (ends[-1],) + tail, dtype=complex)
    for j, x in enumerate(blocks):
        out[j, ..., ends[j] : ends[j + 1], :, :] = x
    return out


def zero_filled_record(space, m, flows):
    """The record of the tangent basis at m, as every record was built
    before the block records: each part on all d rows of the zero-filled
    basis, and each fusion over all of them."""
    return space.structure(m, block_rows(space._basis(m, flows)))


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
    return np.real(np.einsum("kij,...ij->...k", algebra_basis(x.shape[-1]).conj(), x))


def algebra_from_coords(n, coords):
    """Inverse of algebra_coords; leading axes of coords are kept."""
    return np.einsum("...k,kij->...ij", coords, algebra_basis(n))


def realified_operator(n, fn):
    """Matrix of a real-linear operator on su(n) in the orthonormal basis;
    fn is applied once to the stacked basis.  An fn that adds leading axes
    in front of the basis axis gives a stack of matrices."""
    return algebra_coords(fn(algebra_basis(n))).swapaxes(-1, -2)


def class_basis_svd(space, m):
    """A class's tangent bases at a stack of points as the right singular
    vectors of the realified fields x m - m x, at the first point's rank."""
    x, lm = algebra_basis(space.n), _lift(m)
    _, s, vt = np.linalg.svd(realvec(x @ lm - lm @ x), full_matrices=False)
    return unrealvec(vt[..., : _rank(s, s[..., 0]).flat[0], :], space.n)


def anti_fixed_rank_svd(space, m, psis):
    """spaces._anti_fixed_rank from the SVD of the realified Ad_Psi + 1 of
    every factor, with the null vectors from its right singular vectors."""
    inv = psis.conj().swapaxes(-1, -2)
    blocks = realified_operator(space.n, lambda x: _lift(psis) @ x @ _lift(inv) + x)
    s = np.linalg.svd(blocks, compute_uv=False)
    count, f, na = s.shape
    scale = np.maximum(s.max(axis=(-2, -1)), 1.0)
    qualifying = np.zeros(count, dtype=int)
    live = np.flatnonzero(np.any(s < RANK_CUTOFF * scale[:, None, None], axis=(-2, -1)))
    if live.size:
        _, s, vt = np.linalg.svd(blocks[live])
        null = s < RANK_CUTOFF * scale[live, None, None]
        rows = (vt * null[..., None]).reshape(live.size, f * na, na)
        xis = algebra_from_coords(space.n, np.einsum("prc,rk->prkc", rows,
                                                     np.repeat(np.eye(f), na, axis=0)))
        lm = _lift(m[:, live])
        gens = field_at(space, space._generating(np.moveaxis(xis, 2, 0), lm), lm)
        gs = np.linalg.svd(realvec(gens), compute_uv=False)
        qualifying[live] = _rank(gs, gs[:, 0])
    return qualifying
