from fractions import Fraction as Q
from functools import partial

import numpy as np
import pytest
import scipy.linalg

import class_sweep
import oracles
from oracles import (
    algebra_coords,
    algebra_element,
    algebra_from_coords,
    anti_fixed_rank_svd,
    block_rows,
    class_basis_svd,
    draw,
    eig_frames,
    field_at,
    field_flow,
    identity_flows,
    moment_tangents,
    part_by_part_record,
    random_field,
    realified_operator,
    sample,
    sample_flows,
    stack_draws,
    unit_tangents,
    zero_filled_record,
)
from quasiham import spaces
from quasiham.errors import InputError
from quasiham.spaces import (
    ConjugacyClass,
    Double,
    Fused,
    Genus,
    reduction_rank,
    sphere4_act,
    sphere4_equivariance_residual,
    sphere4_moment,
    verify_axiom,
)
from quasiham.sun import (
    algebra_basis,
    basic_gram,
    basic_inner,
    expm_skew,
    project_algebra,
    random_algebra,
    random_special_unitary,
    torus_point,
)

GENERIC_XI3 = (Q(1, 4), Q(1, 12), Q(-1, 3))


def builtin_spaces():
    return [
        ("class2", ConjugacyClass(2, (Q(1, 8), Q(-1, 8)))),
        ("class3", ConjugacyClass(3, GENERIC_XI3)),
        ("double2", Double(2)),
        ("fused2", Fused([Double(2)])),
        ("genus22", Genus(2, 2)),
    ]


def as_stack(m, data):
    """A list of d field data at m as one stack (k, *P, d, n, n)."""
    return np.moveaxis(np.array(data, dtype=complex).reshape((len(data),) + m.shape), 0, -3)


def basis_list(space, m, flows=None):
    """The field data of the tangent basis at one point as a list; a class
    slot takes its basis from the flows that carry the base point to m."""
    return list(np.moveaxis(block_rows(space._basis(m, flows)), -3, 0))


def _record(space, m, data):
    """The structure record of a list of field data at one point."""
    return space.structure(m, as_stack(m, data))


def gram_of(space, m, data):
    """The Gram matrix omega(t_i, t_j) of the tangents of a list of field
    data at one point."""
    return _record(space, m, data).omega


def random_group(space, rng):
    """A group element as the verifier draws g: the exponential of the
    space's algebra draw, one slot per factor."""
    return expm_skew(algebra_element(space, rng))


def pair_omega(space, m, v, w):
    """omega of the tangents of field data v and w, read from the record of
    the stack [v, w]."""
    return gram_of(space, m, [v, w])[0, 1]


def genus_chain(n, h):
    """Genus(n, h) written out as nested fusions; its points have the same
    2h slots."""
    chain = Fused([Double(n)])
    for _ in range(h - 1):
        chain = Fused([chain, Fused([Double(n)])])
    return chain


def ref_shares(space, x):
    """A fused space's point or tangent cut into its parts' shares, as many
    slots as each part's base point has."""
    ends = np.cumsum([0] + [len(part.base) for part in space.parts])
    return [x[i:j] for i, j in zip(ends, ends[1:])]


# ---------------------------------------------------------------------------
# reference formulas: the 2-form and dPsi one pair of tangents at a time,
# written independently of the structure records

def ref_dmoment(space, m, v):
    """dPsi(v) of every moment factor on a tangent vector v."""
    if isinstance(space, ConjugacyClass):
        return (v[0],)
    if isinstance(space, Double):
        (a, b), (va, vb) = m, v
        ainv, binv = a.conj().T, b.conj().T
        return (va @ b + a @ vb, -ainv @ va @ ainv @ binv - ainv @ binv @ vb @ binv)
    # a fused space: the product rule over every moment factor of its parts, left to right
    p, d = np.eye(space.n, dtype=complex), np.zeros((space.n, space.n), dtype=complex)
    for part, x, t in zip(space.parts, ref_shares(space, m), ref_shares(space, v)):
        for q, dq in zip(part._moment(x), ref_dmoment(part, x, t)):
            p, d = p @ q, d @ q + p @ dq
    return (d,)


def ref_potential(space, m, v):
    minv = m.conj().T
    op = realified_operator(space.n, lambda x: minv @ x @ m - x)
    sol, *_ = np.linalg.lstsq(op, algebra_coords(project_algebra(minv @ v)), rcond=None)
    return algebra_from_coords(space.n, sol)


def ref_fusion_correction(l1v, r2v, l1w, r2w):
    return 0.5 * (basic_inner(l1v, r2w) - basic_inner(l1w, r2v))


def ref_omega(space, m, v, w):
    if isinstance(space, ConjugacyClass):
        (m,), (v,), (w,) = m, v, w
        xi, zeta = ref_potential(space, m, v), ref_potential(space, m, w)
        minv = m.conj().T
        return 0.5 * basic_inner(m @ xi @ minv - minv @ xi @ m, zeta)
    if isinstance(space, Double):
        a, b = m
        ainv, binv = a.conj().T, b.conj().T

        def pairings(p, q):
            return basic_inner(ainv @ p[0], q[1] @ binv) + basic_inner(p[0] @ ainv, binv @ q[1])

        return 0.5 * (pairings(v, w) - pairings(w, v))
    # a fused space: the parts' forms, plus one correction per moment factor
    # fused onto the product of those before it (zero for the first)
    p, total = np.eye(space.n, dtype=complex), 0.0
    dv = dw = np.zeros_like(p)
    for part, x, tv, tw in zip(space.parts, *(ref_shares(space, t) for t in (m, v, w))):
        total += ref_omega(part, x, tv, tw)
        for q, qv, qw in zip(part._moment(x), ref_dmoment(part, x, tv), ref_dmoment(part, x, tw)):
            pinv, qinv = p.conj().T, q.conj().T
            total += ref_fusion_correction(pinv @ dv, qv @ qinv, pinv @ dw, qw @ qinv)
            p, dv, dw = p @ q, dv @ q + p @ qv, dw @ q + p @ qw
    return total


def fd_reduction_rank(space, m, fd_step=1e-5):
    """Rank of the moment differential by central differences along the
    tangent basis of a space of group slots, each slot p moved along its
    field data x to exp(t x) p."""
    def move(t, v):
        return np.array([scipy.linalg.expm(t * x) @ p for p, x in zip(m, v)])

    cols = []
    for v in basis_list(space, m):
        plus = space._moment(move(fd_step, v))[0]
        minus = space._moment(move(-fd_step, v))[0]
        cols.append(algebra_coords(project_algebra((plus - minus) / (2.0 * fd_step))))
    svals = np.linalg.svd(np.stack(cols, axis=1), compute_uv=False)
    if svals.size == 0 or svals[0] <= 1e-9:
        return 0
    return int(np.sum(svals > spaces.RANK_CUTOFF * svals[0]))


# ---------------------------------------------------------------------------
# construction and validation

def test_class_refuses_a_float_xi():
    # a float is no exact rational: the class refuses it rather than verify
    # the nearby Fraction it rounds to
    for xi in ((0.1, -0.1), (Q(1, 4), -0.25)):
        with pytest.raises(InputError) as err:
            ConjugacyClass(2, xi)
        assert err.value.code == "malformed-rational"


def test_space_validation_errors():
    with pytest.raises(InputError) as err:
        ConjugacyClass(2, (Q(3, 4), Q(-3, 4)))  # gap bigger than one
    assert err.value.code == "not-in-alcove"
    with pytest.raises(InputError):
        ConjugacyClass(2, (Q(1, 4), Q(1, 4)))  # nonzero sum
    with pytest.raises(InputError) as err:
        Fused([Fused([Double(2)]), Fused([Double(3)])])
    assert err.value.code == "group-size-mismatch"
    with pytest.raises(InputError):
        Genus(2, 0)
    for n in (0, 1):
        for build in (lambda: Double(n), lambda: Genus(n, 1), lambda: Fused([Double(n)])):
            with pytest.raises(InputError) as err:
                build()
            assert err.value.code == "invalid-rank"


def generic_xi(n):
    """A class with distinct eigenphases, of dimension n^2 - n."""
    return tuple(Q(n - 1 - 2 * j, 2 * n) for j in range(n))


def test_space_size_is_bounded_before_allocation():
    # the largest spaces accepted, and the first rejected; each rejection
    # comes before any array of the size of n or h (a list of 10^9 doubles,
    # the 89999 x 300 x 300 basis of su(300)) is built
    bound = spaces.MAX_DIM
    assert Genus(4, 8).dim <= bound and Double(11).dim <= bound
    assert ConjugacyClass(16, generic_xi(16)).dim <= bound
    too_large = [lambda: Double(12), lambda: Fused([Double(300)]), lambda: Genus(4, 9),
                 lambda: Genus(2, 10**9), lambda: ConjugacyClass(300, (Q(0),) * 300),
                 lambda: ConjugacyClass(17, generic_xi(17)),
                 lambda: Fused([ConjugacyClass(16, generic_xi(16))] * 2)]
    for build in too_large:
        with pytest.raises(InputError) as err:
            build()
        assert err.value.code == "space-too-large"


def test_dimensions():
    assert ConjugacyClass(2, (Q(1, 8), Q(-1, 8))).dim == 2
    assert ConjugacyClass(3, GENERIC_XI3).dim == 6
    assert Double(2).dim == 6
    assert Fused([Double(2)]).dim == 6
    assert Genus(2, 2).dim == 12
    # a central class is a single point
    assert ConjugacyClass(2, (Q(1, 2), Q(-1, 2))).dim == 0


# ---------------------------------------------------------------------------
# two-form algebra

@pytest.mark.parametrize("name,space", builtin_spaces())
def test_omega_antisymmetric_bilinear(name, space):
    rng = np.random.default_rng(1)
    m, flows = sample_flows(space, rng)
    basis = basis_list(space, m, flows)
    v, w, u = (sum_basis(space, m, basis, rng) for _ in range(3))
    om = gram_of(space, m, [v, w, u, v + 0.7 * u])
    assert om[0, 1] == pytest.approx(-om[1, 0], abs=1e-10)
    assert om[3, 1] == pytest.approx(om[0, 1] + 0.7 * om[2, 1], abs=1e-10)


def sum_basis(space, m, basis, rng):
    out = np.zeros_like(m)
    for c, b in zip(rng.normal(size=len(basis)), basis):
        out = out + c * b
    return out


@pytest.mark.parametrize("name,space", builtin_spaces())
def test_omega_invariant_under_action(name, space):
    rng = np.random.default_rng(2)
    for _ in range(5):
        m, flows = sample_flows(space, rng)
        basis = basis_list(space, m, flows)
        v = sum_basis(space, m, basis, rng)
        w = sum_basis(space, m, basis, rng)
        g = random_group(space, rng)
        moved = space._act(g, m)
        # field data move by Ad of each slot's factor of g, as _act pushes
        # their tangents forward
        gv, gw = (g @ x @ g.conj().swapaxes(-1, -2) for x in (v, w))
        pushed = space._act(g, field_at(space, v, m))
        assert np.max(np.abs(field_at(space, gv, moved) - pushed)) < 1e-13
        lhs = pair_omega(space, moved, gv, gw)
        assert lhs == pytest.approx(pair_omega(space, m, v, w), abs=1e-9)


def test_double_omega_at_identity():
    d = Double(2)
    rng = np.random.default_rng(3)
    e = np.eye(2, dtype=complex)
    x1, y1, x2, y2 = (random_algebra(2, rng) for _ in range(4))
    lhs = pair_omega(d, np.stack([e, e]), np.stack([x1, y1]), np.stack([x2, y2]))
    assert lhs == pytest.approx(basic_inner(x1, y2) - basic_inner(x2, y1), abs=1e-14)


def test_central_class_omega_vanishes():
    c = ConjugacyClass(2, (Q(1, 2), Q(-1, 2)))  # class of -identity, a point
    m = c.base
    xi = random_algebra(2, np.random.default_rng(4))
    assert np.max(np.abs(field_at(c, c._generating(xi[None], m), m))) < 1e-14
    z = np.zeros_like(m)
    assert pair_omega(c, m, z, z) == pytest.approx(0.0, abs=1e-14)


def rational_alcove_point(rng, n):
    """A rational SU(n) alcove point whose n cyclic gaps c_i / q may vanish,
    the wrap-around gap included (top minus bottom entry equal to one)."""
    q = int(rng.integers(1, 13))
    gaps = np.diff(np.concatenate([[0], np.sort(rng.integers(0, q + 1, n - 1)), [q]]))
    lam = [Q(0)]
    for c in gaps[1:]:
        lam.append(lam[-1] - Q(int(c), q))
    shift = sum(lam) / n
    return tuple(x - shift for x in lam)


def test_tiny_class_basis_has_every_pair():
    # xi = (eps, 0, -eps) at eps = 1e-15: every gap is below 1e-12, where a basis
    # kept only the pairs a cutoff resolved against the largest gap had no row,
    # and the moment check read 0 on an empty w.  C has all of xi's pairs, dim
    # rows, and w gives a nonzero residual, far below the tolerance
    eps = Q(1, 10**15)
    space = ConjugacyClass(3, (eps, Q(0), -eps))
    assert space.dim == 6
    assert len(basis_list(space, space.base, identity_flows(space, space.base))) == 6
    rep = verify_axiom(space, "moment", samples=5, seed=1)
    assert rep.passed and 0.0 < rep.max_residual < 1e-12
    # at eps = 1e-22 the eigenvalues lie 6e-22 apart, below MIN_GAP, and at 1e-400 0
    for eps in (Q(1, 10**22), Q(1, 10**400)):
        with pytest.raises(InputError) as err:
            ConjugacyClass(3, (eps, Q(0), -eps))
        assert err.value.code == "unresolved-class"


def test_class_dim_is_exact_and_matches_tangent_basis():
    # dim = n^2 - sum m_i^2 over the multiplicities of the entries mod 1
    rng = np.random.default_rng(23)
    points = [rational_alcove_point(rng, int(rng.integers(2, 6))) for _ in range(600)]
    points += [(Q(1, 2), Q(-1, 2)), (Q(0), Q(0)), (Q(1, 3), Q(1, 3), Q(-2, 3)),
               (Q(1, 2), Q(0), Q(-1, 2)), NEAR_DEGENERATE_XI3]
    walls = 0
    for xi in points:
        c = ConjugacyClass(len(xi), xi)
        assert c.dim == len(basis_list(c, c.base, identity_flows(c, c.base))), xi
        walls += xi[0] - xi[-1] == 1
    assert walls > 20
    assert ConjugacyClass(2, (Q(1, 2), Q(-1, 2))).dim == 0  # the half-central class
    assert ConjugacyClass(3, (Q(1, 2), Q(0), Q(-1, 2))).dim == 4


def test_fused_double_moment_at_commuting_pair():
    f = Fused([Double(2)])
    h = 1j * np.diag([1.0, -1.0])
    a = scipy.linalg.expm(0.4 * h)
    b = scipy.linalg.expm(-1.1 * h)
    assert np.max(np.abs(f._moment(np.stack([a, b]))[0] - np.eye(2))) < 1e-12


def test_double_moment_values():
    d = Double(2)
    rng = np.random.default_rng(5)
    a, b = m = sample(d, rng)
    p1, p2 = d._moment(m)
    assert np.allclose(p1, a @ b)
    assert np.allclose(p2, np.linalg.inv(a) @ np.linalg.inv(b))


# ---------------------------------------------------------------------------
# the batched Gram matrix

def pairwise_omega_matrix(space, m, basis):
    """Reference: one reference omega per pair i < j of the tangents of the
    basis data, mirrored."""
    d = len(basis)
    tangents = [field_at(space, x, m) for x in basis]
    out = np.zeros((d, d))
    for i in range(d):
        for j in range(i + 1, d):
            val = ref_omega(space, m, tangents[i], tangents[j])
            out[i, j] = val
            out[j, i] = -val
    return out


def gram_spaces():
    return [
        ("class(2,1/8)", ConjugacyClass(2, (Q(1, 8), Q(-1, 8))), 2),
        ("class(2,1/4)", ConjugacyClass(2, (Q(1, 4), Q(-1, 4))), 2),
        ("central", ConjugacyClass(2, (Q(1, 2), Q(-1, 2))), 0),
        ("class(3)", ConjugacyClass(3, GENERIC_XI3), 6),
        ("class(4)", ConjugacyClass(4, (Q(3, 8), Q(1, 8), Q(-1, 8), Q(-3, 8))), 12),
        ("double(3)", Double(3), 16),
        ("fused_double(3)", Fused([Double(3)]), 16),
        ("genus(2,2)", Genus(2, 2), 12),
        ("genus(3,3)", Genus(3, 3), 48),
    ]


@pytest.mark.parametrize("name,space,d", gram_spaces())
def test_omega_matrix_matches_pairwise_loop(name, space, d):
    rng = np.random.default_rng(83)
    for _ in range(2):
        m, basis = sample_with_basis(space, rng)
        assert len(basis) == d
        batched = gram_of(space, m, basis)
        assert batched.shape == (d, d)
        assert np.array_equal(batched, -batched.T)
        assert np.max(np.abs(batched - pairwise_omega_matrix(space, m, basis)), initial=0.0) <= 1e-15


@pytest.mark.parametrize("name,space,d", gram_spaces())
def test_record_matches_reference_moment_derivative(name, space, d):
    rng = np.random.default_rng(79)
    m, basis = sample_with_basis(space, rng)
    tangents = basis[:3] + [random_tangent(m, basis, rng)]
    rec = _record(space, m, tangents)
    assert rec.omega.shape == (len(tangents), len(tangents))
    for psi, ref in zip(rec.psi, space._moment(m)):
        assert np.max(np.abs(psi - ref)) <= 1e-15
    for i, t in enumerate(tangents):
        dpsis = ref_dmoment(space, m, field_at(space, t, m))
        for psi, left, dpsi in zip(rec.psi, rec.left, dpsis):
            assert np.max(np.abs(psi @ left[i] - dpsi)) <= 1e-14


@pytest.mark.parametrize("name,space,d", gram_spaces())
def test_random_tangent_is_basis_combination(name, space, d, monkeypatch):
    # the moment draw's w combines the basis with the d normals drawn after xi, over its norm
    rng = np.random.default_rng(89)
    drawn = spaces._draw_stack(space, "moment", 1, rng)
    f, xi, coeffs = drawn[0][:, 0], drawn[1][:, 0], drawn[2][0]
    m = field_flow(space, f, space.base, 1.0)
    ref_rng = np.random.default_rng(89)
    ref_m, basis = sample_with_basis(space, ref_rng)
    assert np.array_equal(m, ref_m) and len(basis) == d
    assert np.array_equal(xi, algebra_element(space, ref_rng))
    assert np.array_equal(coeffs, ref_rng.normal(size=len(basis)))
    assert ref_rng.bit_generator.state == rng.bit_generator.state  # the same draws
    ref = np.zeros_like(m)
    for c, b in zip(coeffs, basis):
        ref = ref + c * b
    ref /= np.linalg.norm(spaces.realvec(ref)) or 1.0
    # the w the stacked residual gets, from the basis built over the stack
    seen = []
    monkeypatch.setattr(spaces, "_moment_residuals", lambda sp, *args: seen.append(args))
    spaces._residuals(space, "moment", *drawn)
    [(_, _, w)] = seen
    assert np.max(np.abs(w[:, 0] - ref)) < 1e-14


@pytest.mark.parametrize("name,space,d", gram_spaces())
def test_moment_tangents_match_per_slot_products(name, space, d, monkeypatch):
    # w of a stack of samples is one product over the zero-filled block stack:
    # the per-slot, per-sample tensordot over all d rows, bit for bit, and
    # so is its norm sample by sample
    seen = []
    monkeypatch.setattr(spaces, "_moment_residuals", lambda sp, *args: seen.append(args))
    for count in (1, 2, 3, 5):
        drawn = spaces._draw_stack(space, "moment", count, np.random.default_rng(227 + count))
        spaces._residuals(space, "moment", *drawn)
        m, _, w = seen[-1]
        assert same_bits(w, moment_tangents(space._basis(m, expm_skew(drawn[0])), drawn[2]))


# ---------------------------------------------------------------------------
# axioms through the verifier

@pytest.mark.parametrize("name,space", builtin_spaces())
def test_moment_axiom(name, space):
    rep = verify_axiom(space, "moment", samples=15, seed=11)
    assert rep.passed and rep.max_residual < 1e-12


@pytest.mark.parametrize("name,space", builtin_spaces())
def test_cocycle_axiom(name, space):
    rep = verify_axiom(space, "cocycle", samples=8, seed=13)
    assert rep.passed, rep
    assert rep.max_residual < 1e-13


@pytest.mark.parametrize("name,space", builtin_spaces())
def test_min_degeneracy_axiom(name, space):
    rep = verify_axiom(space, "min_degeneracy", samples=8, seed=17)
    assert rep.passed and rep.max_residual == 0.0


@pytest.mark.parametrize("name,space", builtin_spaces())
def test_equivariance_axiom(name, space):
    rep = verify_axiom(space, "equivariance", samples=8, seed=19)
    assert rep.passed and rep.max_residual < 1e-12


def test_degenerate_class_reports_full_kernel():
    space = ConjugacyClass(2, (Q(1, 4), Q(-1, 4)))
    rng = np.random.default_rng(23)
    m, flows = sample_flows(space, rng)
    basis = basis_list(space, m, flows)
    assert len(basis) == 2
    worst = np.max(np.abs(gram_of(space, m, basis)))
    assert worst < 1e-12  # omega vanishes identically on this class
    rep = verify_axiom(space, "min_degeneracy", samples=10, seed=29)
    assert rep.passed


def test_tampered_omega_is_detected():
    class ScaledDouble(Double):
        def structure(self, m, stack):
            rec = super().structure(m, stack)
            return rec._replace(omega=2.0 * rec.omega)

    rep = verify_axiom(ScaledDouble(2), "cocycle", samples=5, seed=31)
    assert not rep.passed and rep.max_residual > 1e-3
    # every sample of the stack fails, as in the per-sample loop
    residuals = spaces._sample_residuals(ScaledDouble(2), "cocycle", 5, np.random.default_rng(31))
    assert np.all(residuals > 1e-3)
    loop = loop_residuals(ScaledDouble(2), "cocycle", 5, 31)
    assert np.max(np.abs(residuals - loop)) <= STACK_TOLERANCES["cocycle"]


def orientation_spaces():
    """Spaces of dimension above two, where the 3-form term of the cocycle
    axiom is live; on an SU(2) class eta vanishes and the sign is invisible."""
    return [
        ConjugacyClass(3, GENERIC_XI3),
        ConjugacyClass(4, (Q(3, 8), Q(1, 8), Q(-1, 8), Q(-3, 8))),
        Double(2),
        Double(3),
        Fused([Double(2)]),
        Genus(2, 2),
        Genus(3, 2),
        Fused([ConjugacyClass(2, (Q(1, 8), Q(-1, 8))), ConjugacyClass(2, (Q(1, 4), Q(-1, 4)))]),
    ]


def test_flipped_three_form_orientation_fails_cocycle(monkeypatch):
    # residuals at most 2.2e-16 as pinned, 1.5e-2 to 8.6e-2 flipped (tolerance 1e-12)
    for space in orientation_spaces():
        rep = verify_axiom(space, "cocycle", samples=3, seed=211)
        assert rep.passed and rep.max_residual < 1e-13
    monkeypatch.setattr(spaces, "STRUCTURE_FORM_ORIENTATION", 1.0)
    for space in orientation_spaces():
        rep = verify_axiom(space, "cocycle", samples=3, seed=211)
        assert not rep.passed and rep.max_residual > 1e-3, space


@pytest.mark.parametrize(
    "cls,args", [(Double, (2,)), (ConjugacyClass, (2, (Q(1, 8), Q(-1, 8))))]
)
def test_non_equivariant_moment_fails_equivariance(cls, args):
    # Psi c with c off the centre: residual 0.73-0.87 against 1e-15 (tolerance 1e-9)
    shift = torus_point([0.1, -0.1])

    class Shifted(cls):
        def _moment(self, m):
            return tuple(psi @ shift for psi in super()._moment(m))

    assert verify_axiom(cls(*args), "equivariance", samples=4, seed=223).passed
    rep = verify_axiom(Shifted(*args), "equivariance", samples=4, seed=223)
    assert not rep.passed and rep.max_residual > 0.1


@pytest.mark.parametrize("n,xi", [(2, (Q(1, 8), Q(-1, 8))), (3, GENERIC_XI3)])
def test_doubled_class_omega_fails_moment(n, xi):
    # residual 3.5e-2 (n = 2) and 4.1e-2 (n = 3) against 1e-16 (tolerance 1e-8)
    class Doubled(ConjugacyClass):
        def structure(self, m, stack):
            rec = super().structure(m, stack)
            return rec._replace(omega=2.0 * rec.omega)

    assert verify_axiom(ConjugacyClass(n, xi), "moment", samples=4, seed=227).passed
    rep = verify_axiom(Doubled(n, xi), "moment", samples=4, seed=227)
    assert not rep.passed and rep.max_residual > 1e-3


def squeezed(cls, *shrinks):
    """cls with its structure pulled back along the map that scales the
    leading tangent basis directions by shrinks (0 projects one out), with
    coefficients from the tangents of the field data; the points may carry
    leading axes, as for every structure.  A block stack is pulled back on
    its zero-filled rows and cut back into its blocks, which the map keeps:
    it moves data only along a basis direction of the first slot, in a
    class slot's eigenframe from eig, as the structure gets no flows."""

    class Squeezed(cls):
        def structure(self, m, stack, blocks=False):
            basis = block_rows(self._basis(m, eig_frames(self, m)))
            out = block_rows(stack) if blocks else stack
            tangents = field_at(self, out, spaces._lift(m))
            for i, shrink in enumerate(shrinks):
                first = basis[..., i, :, :]
                c = sum(
                    np.real(np.einsum("...ij,...kij->...k", x.conj(), y))
                    for x, y in zip(field_at(self, first, m), tangents)
                )[..., None, None]
                out = out - (1.0 - shrink) * c * spaces._lift(first)
            if blocks:
                ends = np.cumsum([0] + [x.shape[-3] for x in stack])
                out = [x[..., i:j, :, :] for x, i, j in zip(out, ends, ends[1:])]
            return super().structure(m, out, blocks)

    return Squeezed


def point_mismatch(space, m, flows=None):
    """The degeneracy mismatch at one point, evaluated as a stack of one;
    a class slot needs the flows that carry the base point to m."""
    return spaces._degeneracy_mismatch(space, m[:, None], None if flows is None else flows[:, None])[0]


def fusions(n):
    """An internal fusion and a fusion product of two classes over SU(n)."""
    xi = (Q(1, 8), Q(-1, 8)) if n == 2 else GENERIC_XI3
    return [Fused([Double(n)]), Fused([ConjugacyClass(n, xi), ConjugacyClass(n, xi)])]


def scaled_correction(fuse, scale):
    """_fuse with its fusion correction scaled, over all rows and on blocks:
    the correction is what the form gains over the fusion of a zero left."""
    def mutant(omega, first, second, blocks=False):
        rec = fuse(omega, first, second, blocks)
        bare = fuse(omega, (first[0], 0.0 * first[1]), second, blocks).omega
        return rec._replace(omega=bare + scale * (rec.omega - bare))

    return mutant


@pytest.mark.parametrize("space", [Genus(2, 2), Fused([ConjugacyClass(2, (Q(1, 8), Q(-1, 8))),
                                                      Double(2)])], ids=["genus22", "class+double"])
def test_slightly_scaled_fusion_correction_fails_cocycle(space, monkeypatch):
    # with exact derivatives the fusion correction scaled by 1 + 1e-6 leaves residuals near
    # 3e-8, far above the tolerance 1e-12; central differences at h = 1e-4 had a floor of
    # 1e-11 to 8e-10 and a tolerance of 1e-4, and passed it
    rep = verify_axiom(space, "cocycle", samples=5, seed=233)
    assert rep.passed and rep.max_residual < 1e-13
    monkeypatch.setattr(spaces, "_fuse", scaled_correction(spaces._fuse, 1 + 1e-6))
    rep = verify_axiom(space, "cocycle", samples=5, seed=233)
    assert not rep.passed and rep.max_residual > 1e-9


@pytest.mark.parametrize("space", [Fused([Double(3)]), Genus(2, 2), Genus(4, 4)],
                         ids=["fused_double3", "genus22", "genus44"])
def test_slightly_scaled_fusion_correction_fails_moment(space, monkeypatch):
    # on a unit w a valid space's residual is rounding, at most 6.9e-16 on genus(4, 8);
    # the fusion correction scaled by 1 + 1e-10 reads 4.4e-12 to 9.6e-12 here, above the
    # tolerance 1e-12, where on w unscaled it read 1.8e-11 to 7.5e-11, under 1e-8
    assert verify_axiom(space, "moment", samples=10, seed=1).passed
    monkeypatch.setattr(spaces, "_fuse", scaled_correction(spaces._fuse, 1 + 1e-10))
    rep = verify_axiom(space, "moment", samples=10, seed=1)
    assert not rep.passed and rep.max_residual > 4e-12


@pytest.mark.parametrize("n", [2, 3])
def test_dropped_fusion_correction_fails_moment(n, monkeypatch):
    points = []
    for space in fusions(n):
        assert verify_axiom(space, "moment", samples=4, seed=97).passed
        points.append(sample_with_basis(space, np.random.default_rng(101)))
    corrected = [gram_of(s, *p) for s, p in zip(fusions(n), points)]
    monkeypatch.setattr(spaces, "_fuse", scaled_correction(spaces._fuse, 0.0))
    for space, point, good in zip(fusions(n), points, corrected):
        rep = verify_axiom(space, "moment", samples=4, seed=97)
        assert not rep.passed and rep.max_residual > 1e-3
        assert np.max(np.abs(gram_of(space, *point) - good)) > 1e-3


def log_liouville_density(space, m, flows):
    """The log of Pf(Omega) / det^1/2((1 + Ad_Psi) / 2) on the tangent basis
    at m, which the flows reach (Alekseev-Meinrenken-Woodward 2002): 1/2 sum
    log sigma_i(Omega) less 1/2 sum over i != j of log(|d_i conj(d_j) + 1| /
    2) per moment factor with eigenvalues d, the singular values of (1 +
    Ad_Psi) / 2 off the torus.  It reads the block record, which
    min_degeneracy reads."""
    rec = space.structure(m, space._basis(m, flows), blocks=True)
    d = np.linalg.eigvals(np.stack(rec.psi))
    pairs = np.abs(d[:, :, None] * d.conj()[:, None, :] + 1.0)[:, ~np.eye(space.n, dtype=bool)]
    return 0.5 * (np.sum(np.log(np.linalg.svd(rec.omega, compute_uv=False)))
                  - np.sum(np.log(pairs / 2.0)))


def wrong_side_double(self, m, stack, blocks=False):
    """Double.structure with theta^L formed by Ad on the wrong side,
    Ad_a X for Ad_{a^-1} X: a mutant of the double's record."""
    a, b = map(spaces._lift, m)
    ar, br = stack
    ainv, binv = spaces._dag(a), spaces._dag(b)
    al, bl = a @ ar @ ainv, b @ br @ binv
    pairing = basic_gram(al, br) + basic_gram(ar, bl)
    join = spaces._rows if blocks else np.add
    return spaces.Structure(spaces._joined(pairing) if blocks else spaces._skew(pairing),
                            self._moment(m),
                            (join(binv @ al @ b, bl), join(-(b @ ar @ binv), -br)))


def shifted_double(structure):
    """A structure, the double's or a class's, with 1e-2 of one fixed skew
    form added to omega."""
    def mutant(self, m, stack, blocks=False):
        rec = structure(self, m, stack, blocks)
        d = rec.omega.shape[-1]
        k = np.random.default_rng(0).normal(size=(d, d))
        return rec._replace(omega=rec.omega + 1e-2 * (k - k.T))

    return mutant


def test_liouville_density_is_constant(monkeypatch):
    # the Liouville form of a double and of its fusions is Haar measure: on
    # the basis, orthonormal for Re tr(X* Y), its log density is
    # -(dim / 2) log 4 pi^2 at every point, which pins omega pointwise
    def spread(space):
        logs = [log_liouville_density(space, *sample_flows(space, np.random.default_rng(seed)))
                for seed in range(8)]
        return np.max(np.abs(np.array(logs) + space.dim / 2 * np.log(4 * np.pi**2)))

    for space in (Double(2), Double(3), Double(4), Fused([Double(2)]), Genus(2, 2),
                  Genus(3, 2), Genus(4, 2)):
        assert spread(space) <= 1e-12, space
    fused, double = [Genus(2, 2)], [Double(2), Double(3), Genus(2, 2)]
    mutants = [
        (spaces, "_fuse", scaled_correction(spaces._fuse, -1.0), fused),  # the sign flipped
        (spaces, "_fuse", scaled_correction(spaces._fuse, 0.5), fused),  # the correction halved
        (Double, "structure", shifted_double(Double.structure), double),
        (Double, "structure", wrong_side_double, fused),
    ]
    for target, name, mutant, on in mutants:
        with monkeypatch.context() as patch:
            patch.setattr(target, name, mutant)
            for space in on:
                assert spread(space) > 0.1, (mutant, space)


# classes of A1-A3 with distinct eigenvalues and no pair d_i = -d_j, where the
# Liouville density is finite
REGULAR_XI = [
    (Q(1, 8), Q(-1, 8)),
    (Q(3, 10), Q(-3, 10)),
    GENERIC_XI3,
    (Q(3, 10), Q(0), Q(-3, 10)),
    (Q(2, 5), Q(1, 20), Q(-3, 20), Q(-3, 10)),
    (Q(2, 5), Q(1, 10), Q(-1, 5), Q(-3, 10)),
]


def class_closed_form(xi):
    """-sum over i < j of log(4 pi^2 |d_i - d_j|), d = exp(2 pi i xi): the log
    Liouville density of a regular class (AMW 2002)."""
    d = np.exp(2j * np.pi * np.array([float(x) for x in xi]))
    i, j = np.triu_indices(len(xi), 1)
    return -np.sum(np.log(4 * np.pi**2 * np.abs(d[i] - d[j])))


def flow_points(space, rng, count=3):
    """count points of a space with the slot flows that carry its base point there."""
    flows = expm_skew(stack([random_field(space, rng) for _ in range(count)]))
    return space._carry(flows, space.base[:, None]), flows


def test_class_liouville_density_is_its_closed_form():
    # on regular A1-A3 classes the log density is the closed form at every
    # point, and pair by pair: in the flows' eigenframe the block w of each
    # pair has |w| 4 pi^2 |d_i - d_j| = |d_i conj(d_j) + 1| / 2
    for xi in REGULAR_XI:
        space, closed = ConjugacyClass(len(xi), xi), class_closed_form(xi)
        assert abs(space._log_liouville - closed) <= 1e-10
        rng = np.random.default_rng(len(xi))
        for _ in range(3):
            assert abs(log_liouville_density(space, *sample_flows(space, rng)) - closed) <= 1e-10, xi
        m, flows = flow_points(space, rng)
        omega = space.structure(m, space._basis(m, flows), blocks=True).omega
        w = np.abs(np.diagonal(omega[..., ::2, 1::2], axis1=-2, axis2=-1))
        d = np.diagonal(space.base[0])
        i, j = np.triu_indices(len(xi), 1)
        pair = np.abs(d[i] * d[j].conj() + 1.0) / 2 / (4 * np.pi**2 * np.abs(d[i] - d[j]))
        assert np.max(np.abs(w / pair - 1.0)) <= 1e-12, xi


def liouville_spaces():
    mixed = Fused([ConjugacyClass(3, GENERIC_XI3), Double(3),
                   ConjugacyClass(3, (Q(3, 10), Q(0), Q(-3, 10)))])
    return ([(f"class{k}", ConjugacyClass(len(xi), xi)) for k, xi in enumerate(REGULAR_XI)]
            + [("double3", Double(3)), ("mixed", mixed), ("genus22", Genus(2, 2)),
               ("genus32", Genus(3, 2)), ("genus42", Genus(4, 2))])


@pytest.mark.parametrize("name,space", liouville_spaces())
def test_log_liouville_is_the_svd_density(name, space):
    rng = np.random.default_rng(space.dim)
    for _ in range(3):
        assert abs(log_liouville_density(space, *sample_flows(space, rng))
                   - space._log_liouville) <= 1e-10


def test_liouville_density_multiplies_under_fusion():
    # the density of a fusion is the product of its parts' closed forms
    first, second = GENERIC_XI3, (Q(3, 10), Q(0), Q(-3, 10))
    space = Fused([ConjugacyClass(3, first), Double(3), ConjugacyClass(3, second)])
    parts = class_closed_form(first) - 8 * np.log(4 * np.pi**2) + class_closed_form(second)
    rng = np.random.default_rng(137)
    for _ in range(4):
        assert abs(log_liouville_density(space, *sample_flows(space, rng)) - parts) <= 1e-10


def test_class_tampers_fail_on_the_pair_path(monkeypatch):
    # a lone class is decided on the 2 x 2 blocks of its record; the record
    # pulled back along a projection and a skew form added to its omega each
    # fail there, at every point
    rng = np.random.default_rng(113)
    space = ConjugacyClass(3, GENERIC_XI3)
    m, flows = flow_points(space, rng)
    assert np.array_equal(spaces._degeneracy_mismatch(space, m, flows), [0, 0, 0])
    # squeezing one direction of a pair nulls its block
    mutant = squeezed(ConjugacyClass, 0.0)(3, GENERIC_XI3)
    assert np.array_equal(spaces._degeneracy_mismatch(mutant, m, flows), [2, 2, 2])
    rep = verify_axiom(mutant, "min_degeneracy", samples=3, seed=113)
    assert not rep.passed and rep.max_residual == 2.0
    monkeypatch.setattr(ConjugacyClass, "structure", shifted_double(ConjugacyClass.structure))
    assert np.array_equal(spaces._degeneracy_mismatch(space, m, flows), [6, 6, 6])
    rep = verify_axiom(space, "min_degeneracy", samples=3, seed=113)
    assert not rep.passed and rep.max_residual == 6.0
    # the blocks alone stay nonzero: the bound off them is what fails it
    monkeypatch.setattr(spaces, "OFF_BLOCK", np.inf)
    assert verify_axiom(space, "min_degeneracy", samples=3, seed=113).passed


def count_svds(monkeypatch):
    """A list that grows by one at every np.linalg.svd call."""
    calls, real = [], np.linalg.svd
    monkeypatch.setattr(np.linalg, "svd", lambda *a, **k: calls.append(1) or real(*a, **k))
    return calls


def test_liouville_shortcut_declines_on_mutants(monkeypatch):
    # a wrong omega that stays nondegenerate misses the Liouville identity,
    # so its stack takes the SVD, where the rank rule decides it as before:
    # a miss is no FAIL.  Each space here runs in one stack
    svds = count_svds(monkeypatch)
    fused, double = [Genus(2, 2)], [Double(2), Double(3), Genus(2, 2)]
    mutants = [
        (spaces, "_fuse", scaled_correction(spaces._fuse, -1.0), fused),
        (spaces, "_fuse", scaled_correction(spaces._fuse, 0.5), fused),
        (Double, "structure", shifted_double(Double.structure), double),
        (Double, "structure", wrong_side_double, fused),
    ]
    for space in double:
        svds.clear()
        assert verify_axiom(space, "min_degeneracy", samples=3, seed=1).passed and not svds
    for target, name, mutant, on in mutants:
        with monkeypatch.context() as patch:
            patch.setattr(target, name, mutant)
            for space in on:
                svds.clear()
                verify_axiom(space, "min_degeneracy", samples=3, seed=1)
                assert len(svds) == 1, (mutant, space)


def test_liouville_shortcut_and_svd_fallback_agree(monkeypatch):
    # the degeneracy streams' spaces, a class with -1 pairs and a fusion with
    # class parts give the same reports with every point on the SVD path:
    # the class hook bypassed and no Liouville constant to meet
    def cases():
        return [ConjugacyClass(2, (Q(1, 8), Q(-1, 8))), ConjugacyClass(2, (Q(1, 4), Q(-1, 4))),
                ConjugacyClass(3, GENERIC_XI3), ConjugacyClass(4, REGULAR_XI[5]), Double(3),
                Double(4), Fused([Double(3)]), Genus(2, 2), Genus(2, 3), Genus(3, 2), Genus(3, 3),
                Fused([ConjugacyClass(2, (Q(1, 4), Q(-1, 4))), Double(2),
                       ConjugacyClass(2, (Q(1, 8), Q(-1, 8)))])]

    def reports(spaces_):
        return [verify_axiom(s, "min_degeneracy", samples=3, seed=seed)
                for s in spaces_ for seed in (0, 1)]

    svds = count_svds(monkeypatch)
    fast = reports(cases())
    assert not svds
    monkeypatch.setattr(ConjugacyClass, "_pair_mismatch", spaces.QSpace._pair_mismatch)
    slow = cases()
    for space in slow:
        space._log_liouville = np.nan
    assert reports(slow) == fast and len(svds) >= len(fast)


@pytest.mark.parametrize(
    "cls,args",
    [(ConjugacyClass, (3, GENERIC_XI3)), (Double, (3,)), (Genus, (2, 2))],
)
def test_projected_omega_fails_min_degeneracy(cls, args):
    assert verify_axiom(cls(*args), "min_degeneracy", samples=3, seed=103).passed
    rep = verify_axiom(squeezed(cls, 0.0)(*args), "min_degeneracy", samples=3, seed=103)
    assert not rep.passed and rep.max_residual == 2.0


def test_seed_1976016887_is_decided_at_the_first_draw(monkeypatch):
    # At the first draw |tr Psi| = 2.5e-6: omega has two relative singular
    # values of 8.6e-8 (kernel) while Ad_Psi + 1 has two of 1.25e-6 (no
    # kernel), so the two cutoffs disagree and gave a false FAIL of 2.0, and
    # the band then redrew the point.  No modulus of Ad_Psi + 1 is null, so
    # the Liouville identity decides it, with no SVD
    space = Genus(2, 2)
    m = sample(space, np.random.default_rng(1976016887))
    svds = count_svds(monkeypatch)
    assert point_mismatch(space, m) == 0.0 and not svds
    rep = verify_axiom(space, "min_degeneracy", samples=3, seed=1976016887)
    assert rep.passed and rep.max_residual == 0.0 and not svds


def test_band_value_with_agreeing_ranks_passes():
    # scaling one direction by 1e-6 puts a pair of relative singular values
    # of omega between RANK_CUTOFF and 1e-5, where the undecided band was:
    # the Liouville identity misses, and on the SVD path omega keeps full
    # rank and Ad_Psi + 1 has no kernel, so the ranks agree
    space = squeezed(Double, 1e-6)(2)
    rng = np.random.default_rng(107)
    m, basis = sample_with_basis(space, rng)
    svals = np.linalg.svd(gram_of(space, m, basis), compute_uv=False)
    rel = svals / svals[0]
    assert np.any((rel >= spaces.RANK_CUTOFF) & (rel < 1e-5))
    assert point_mismatch(space, m) == 0.0
    assert verify_axiom(space, "min_degeneracy", samples=3, seed=107).passed


def test_class_near_half_wall_passes_min_degeneracy():
    # xi = +-(1/4 + 1e-6): Ad_Psi + 1 has relative singular values of about
    # 6e-6 at every point of the class, yet it is invertible and the 2x2
    # omega has full rank
    space = ConjugacyClass(2, (Q(250001, 1000000), Q(-250001, 1000000)))
    m, flows = sample_flows(space, np.random.default_rng(109))
    psi = space._moment(m)[0]
    op = realified_operator(2, lambda x: psi @ x @ psi.conj().T + x)
    s = np.linalg.svd(op, compute_uv=False)
    rel = s / max(s[0], 1.0)
    assert np.any((rel >= spaces.RANK_CUTOFF) & (rel < 1e-5))
    assert point_mismatch(space, m, flows) == 0.0
    rep = verify_axiom(space, "min_degeneracy", samples=5, seed=109)
    assert rep.passed and rep.max_residual == 0.0


def forced_turns(n, pairs, rng, near=Q(0)):
    """Rational eigenphases in turns, in the alcove, with `pairs` pairs of
    eigenvalues d_i = -d_j: disjoint pairs half a turn apart, or at n = 3
    one eigenvalue against a repeated one.  near moves each pair that far
    off the half turn."""
    turns = [Q(int(t), 997) for t in rng.integers(0, 997, size=n)]
    for p in range(pairs):
        if 2 * p + 1 < n:
            turns[2 * p + 1] = turns[2 * p] + Q(1, 2) + near
        else:
            turns[2] = turns[1]
    turns = sorted((t % 1 for t in turns), reverse=True)
    return tuple(t - sum(turns) / n for t in turns)


def forced_points(space, turns, rng, count=3):
    """count unitary points of a class, a double or a genus space whose
    first moment factor has the eigenphases turns: a class at u T u*, a
    double at (a, a* u T u*), and a genus space with first handle
    (u D u*, u P u*), P the cyclic shift, D with D P D^-1 P^-1 = T, and
    later handles (c, c)."""
    t = np.exp(2j * np.pi * np.array([float(x) for x in turns]))
    out = []
    for _ in range(count):
        u = random_special_unitary(space.n, rng)
        if isinstance(space, ConjugacyClass):
            out.append([u * t @ u.conj().T])
        elif isinstance(space, Double):
            a = random_special_unitary(space.n, rng)
            out.append([a, a.conj().T @ u * t @ u.conj().T])
        else:
            d = np.cumprod(np.concatenate([[1.0], t[1:]]))
            shift = np.roll(np.eye(space.n), 1, axis=0)
            c = random_special_unitary(space.n, rng)
            out.append([u * d @ u.conj().T, u @ shift @ u.conj().T] + [c, c] * (len(space.parts) - 1))
    return stack([np.array(p) for p in out])


@pytest.mark.parametrize("n,pairs,near", [
    (n, pairs, near) for n in (2, 3, 4, 8)
    for pairs, near in ((0, 0), (1, 0), (2, 0), (1, Q(1, 10**6))) if pairs < n])
def test_anti_fixed_rank_matches_realified_oracle(n, pairs, near):
    # Ad_Psi + 1 from the eigenvalues of each factor, with eigenvectors only
    # where a pair d_i = -d_j exists, against the SVD of the realified
    # operator: the same counts of qualifying fields.  A pair 1e-6 turns off
    # the half turn has |d_i conj(d_j) + 1| = 6.3e-6: no kernel.
    rng = np.random.default_rng(60 + 10 * n + pairs)
    turns = forced_turns(n, pairs, rng, near)
    for space in (ConjugacyClass(n, turns), Double(n), Genus(n, 2)):
        m = forced_points(space, turns, rng)
        psis = np.stack(space._moment(m), axis=1)
        d = np.linalg.eigvals(psis)
        moduli = np.abs(d[..., :, None] * d.conj()[..., None, :] + 1.0).reshape(len(d), -1)
        qualifying = spaces._anti_fixed_rank(space, m, psis, moduli)
        assert np.array_equal(qualifying, anti_fixed_rank_svd(space, m, psis)), space
        assert np.all((qualifying > 0) == (pairs > 0 and near == 0))
        if isinstance(space, ConjugacyClass):  # xi_M = 2 xi m on each null xi
            assert np.all(qualifying == (2 * pairs if near == 0 else 0))
    # class points u m_0 u* decided pair by pair in the eigenframe their flows u give: the
    # null pairs of xi are the oracle's qualifying fields, and omega is null on those alone
    space = ConjugacyClass(n, turns)
    u = np.stack([random_special_unitary(n, rng) for _ in range(3)])[None]
    m = space._carry(u, space.base[:, None])
    ref_qualifying = anti_fixed_rank_svd(space, m, np.stack(space._moment(m), axis=1))
    assert np.all(ref_qualifying == 2 * np.sum(space._moduli < 2 * spaces.RANK_CUTOFF))
    assert not np.any(spaces._degeneracy_mismatch(space, m, u))


def test_near_degenerate_product_points_are_decided(monkeypatch):
    # forced points with one pair of Psi's eigenvalues 1e-6, 1e-7 and 4-7e-8
    # turns off a half turn, |d_i conj(d_j) + 1| = 6.3e-6 down to 2.5e-7, all
    # at least 2 RANK_CUTOFF: no modulus of Ad_Psi + 1 is null, so the
    # Liouville identity decides each point, with mismatch 0 and no SVD.  Its
    # miss grows like eps / |d_i conj(d_j) + 1|, to about 5e-8 here; the band
    # left some of these points undecided, and a miss bound of 1e-8 failed
    # some.  At 2e-8 and 3e-8 turns a modulus (1.3e-7, 1.9e-7) is null, and
    # the SVD and _anti_fixed_rank decide the point, with mismatch 0 too
    svds = count_svds(monkeypatch)
    near = [Q(1, 10**6), Q(1, 10**7)] + [Q(k, 10**8) for k in (2, 3, 4, 5, 6, 7)]
    for space in (Genus(2, 2), Genus(2, 3), Genus(3, 2), Fused([Double(3)])):
        rng = np.random.default_rng(227 + space.dim)
        for off in near:
            for _ in range(5):
                m = forced_points(space, forced_turns(space.n, 1, rng, off), rng, count=6)
                svds.clear()
                out = spaces._degeneracy_mismatch(space, m, None)
                assert out.shape == (6,) and not np.any(out), (space, off)
                assert bool(svds) == (off < Q(4, 10**8)), (space, off)


def class_cases(n):
    """A generic class, and classes with two eigenphases 2e-6 apart, a
    repeated eigenphase and two eigenphases 2e-8 apart, a pair whose
    |d_i - d_j| = 1.3e-7 is below RANK_CUTOFF against the largest at n > 2."""
    xi = generic_xi(n)
    mid = (xi[0] + xi[1]) / 2
    yield "generic", xi
    for name, half in (("gap", Q(1, 10**6)), ("repeated", Q(0)), ("close", Q(1, 10**8))):
        yield name, (mid + half, mid - half) + xi[2:]


@pytest.mark.parametrize("n", [2, 3, 4, 8, 16])
def test_class_basis_is_orthonormal_and_spans_the_svd_basis(n):
    # at m_0 the tangents of C, the rows of xi's pairs, are B m_0 for the
    # pair's off-diagonal basis elements B, to rounding in the rows' size.
    # At flowed points the tangents of the basis from the flows, and from
    # eig frames, whose eigenvectors of a pair 2e-6 apart (and so the SVD
    # basis) are exact to about eps / |d_i - d_j| = 1e-11 (2e-9 for a pair
    # 2e-8 apart; they measured 1e-10 and 1e-8), are orthonormal and span the
    # SVD basis; so are the tangents X m - m X of data X of size
    # 1 / |d_i - d_j|.  The SVD at the rank cutoff drops a pair 2e-8 apart,
    # which the basis keeps
    for name, xi in class_cases(n):
        space = ConjugacyClass(n, xi)
        (rows,), m0 = space.class_rows, space.base[0]
        pairs = algebra_basis(n)[: n * (n - 1)].reshape(-1, 2, n, n)[space.pairs]
        at_base = field_at(space, rows[None], spaces._lift(space.base))[0]
        bound = 8 * np.finfo(float).eps * max(1.0, np.max(np.abs(rows), initial=0.0))
        assert np.max(np.abs(at_base - pairs.reshape(rows.shape) @ m0), initial=0.0) < bound, name
        rng = np.random.default_rng(n)
        flows = expm_skew(stack([random_field(space, rng) for _ in range(3)]))
        m = space._carry(flows, space.base[:, None])
        ref = class_basis_svd(space, m)
        for given in (eig_frames(space, m), flows):
            basis = field_at(space, block_rows(space._basis(m, given)), spaces._lift(m))
            assert basis.shape == (1, 3, space.dim, n, n), name
            assert ref.shape[-3] == space.dim or (name == "close" and n > 2), name
            b, r = spaces.realvec(basis), spaces.realvec(ref)
            tol = {"gap": 1e-9, "close": 1e-7}.get(name, 1e-13)
            assert np.max(np.abs(b @ b.swapaxes(-1, -2) - np.eye(b.shape[-2])), initial=0.0) < tol
            span = np.max(np.abs(r - r @ b.swapaxes(-1, -2) @ b), initial=0.0)
            assert span < tol, name


@pytest.mark.parametrize("n", [2, 3, 4])
def test_class_basis_rows_per_path(n, monkeypatch):
    # the moment check and min_degeneracy, of a lone class and of a class
    # slot in a fusion, take one basis, two rows per pair of xi, dim rows,
    # also where eigenphases lie 2e-8 apart
    bases, basis = [], spaces.QSpace._basis

    def spied_basis(self, m, flows):
        out = basis(self, m, flows)
        bases.append([x.shape[-3] for x in out])
        return out

    monkeypatch.setattr(spaces.QSpace, "_basis", spied_basis)
    for name, xi in class_cases(n):
        space = ConjugacyClass(n, xi)
        assert space.dim == n * n - n - 2 * (name == "repeated"), name
        for fused, rows in ((space, [space.dim]),
                            (Fused([space, Double(n)]), [space.dim, n * n - 1, n * n - 1])):
            for axiom in ("moment", "min_degeneracy"):
                bases.clear()
                verify_axiom(fused, axiom, samples=2, seed=1)
                assert bases == [rows], (name, axiom)


def refuse_svd(*args, **kwargs):
    raise AssertionError("np.linalg.svd called")


def test_class_cocycle_and_moment_take_no_svd(monkeypatch):
    space = ConjugacyClass(8, generic_xi(8))
    monkeypatch.setattr(spaces.np.linalg, "svd", refuse_svd)
    for axiom in ("cocycle", "moment"):
        assert verify_axiom(space, axiom, samples=3, seed=7).passed
    with pytest.raises(AssertionError):  # the patch bites
        reduction_rank(Genus(2, 1), Genus(2, 1).base)


def test_class_point_is_never_decomposed(monkeypatch):
    # the records read field data and a class's basis is its constant rows
    # carried by the flows, so no stack decomposes a class point: moment
    # takes no eig, QR or unitary_eig, and cocycle only the QR of its fields
    space = ConjugacyClass(8, generic_xi(8))
    calls, unitary = [], spaces.unitary_eig
    for name in ("eig", "qr"):
        real = getattr(np.linalg, name)
        monkeypatch.setattr(np.linalg, name, lambda *a, name=name, real=real, **k:
                            calls.append(name) or real(*a, **k))
    monkeypatch.setattr(spaces, "unitary_eig", lambda a: calls.append("unitary_eig") or unitary(a))
    samples = 20
    stacks = -(-samples // (spaces.STACK_ROWS // space.dim))
    assert stacks == 3
    for axiom, expected in (("cocycle", ["qr"] * stacks), ("moment", [])):
        calls.clear()
        assert verify_axiom(space, axiom, samples=samples, seed=7).passed
        assert calls == expected, axiom


def test_min_degeneracy_decompositions_per_stack(monkeypatch):
    # a lone class point takes its eigenframe from its own flow and is
    # decided pair by pair, so its stacks decompose nothing, with -1 pairs
    # (class(2, 1/4)) or without; a generic product stack takes one eigvals
    # pre-pass and one slogdet for the Liouville identity, and no SVD
    calls = []
    for name in ("eig", "eigvals", "qr", "svd", "slogdet"):
        real = getattr(np.linalg, name)
        monkeypatch.setattr(np.linalg, name, lambda *a, name=name, real=real, **k:
                            calls.append(name) or real(*a, **k))
    cases = [(ConjugacyClass(8, generic_xi(8)), 20, 3), (ConjugacyClass(2, (Q(1, 4), Q(-1, 4))), 3, 1),
             (Double(3), 40, 2), (Genus(2, 2), 3, 1), (Fused([Double(2)]), 3, 1)]
    for space, samples, stacks in cases:
        assert -(-samples // (spaces.STACK_ROWS // space.dim)) == stacks
        calls.clear()
        assert verify_axiom(space, "min_degeneracy", samples=samples, seed=7).passed
        assert calls == ([] if isinstance(space, ConjugacyClass)
                         else ["eigvals", "slogdet"] * stacks), space


def test_projected_double_with_a_small_value_fails_min_degeneracy():
    # projecting one direction out gives omega a kernel that Ad_Psi + 1 does
    # not have, while scaling a second one by 1e-6 keeps a relative singular
    # value of omega between RANK_CUTOFF and 1e-5 at every draw; that value
    # once left the point undecided and redrawn until an input error, and
    # the kernel now fails it
    space = squeezed(Double, 0.0, 1e-6)(2)
    rng = np.random.default_rng(107)
    m, basis = sample_with_basis(space, rng)
    svals = np.linalg.svd(gram_of(space, m, basis), compute_uv=False)
    rel = svals / svals[0]
    assert np.any((rel >= spaces.RANK_CUTOFF) & (rel < 1e-5))
    assert point_mismatch(space, m) == 2.0
    rep = verify_axiom(space, "min_degeneracy", samples=1, seed=107)
    assert not rep.passed and rep.max_residual == 2.0


def test_verify_axiom_argument_validation():
    d = Double(2)
    with pytest.raises(InputError) as err:
        verify_axiom(d, "flatness")
    assert err.value.code == "unknown-axiom"
    with pytest.raises(InputError):
        verify_axiom(d, "moment", samples=0)


def test_report_json():
    rep = verify_axiom(Double(2), "moment", samples=3, seed=1)
    data = rep.to_json()
    assert set(data) == {"axiom", "samples", "max_residual", "tolerance", "pass"}
    assert data["pass"] is True


def test_reports_are_seed_deterministic():
    space = Fused([Double(2)])
    for axiom in ("moment", "cocycle", "equivariance"):
        first = verify_axiom(space, axiom, samples=4, seed=5)
        second = verify_axiom(space, axiom, samples=4, seed=5)
        assert first == second
    assert verify_axiom(space, "moment", samples=4, seed=5) != verify_axiom(
        space, "moment", samples=4, seed=6
    )


# ---------------------------------------------------------------------------
# records and residuals over stacks of points

def nested_fusion():
    """Fused([Fused([c1, c2]), c3]): three slots, one per class."""
    c1, c2 = ConjugacyClass(2, (Q(1, 8), Q(-1, 8))), ConjugacyClass(2, (Q(1, 4), Q(-1, 4)))
    return Fused([Fused([c1, c2]), ConjugacyClass(2, (Q(3, 8), Q(-3, 8)))])


def stack_spaces():
    pair = Fused([ConjugacyClass(2, (Q(1, 8), Q(-1, 8))), ConjugacyClass(2, (Q(1, 4), Q(-1, 4)))])
    return builtin_spaces() + [("fusion", pair), ("nested_fusion", nested_fusion())]


def stack(xs):
    """Points, tangent stacks or field data as one stack: the slot axis
    first, then the new axis."""
    return np.stack(xs, axis=1)


@pytest.mark.parametrize("name,space", stack_spaces())
def test_record_over_points_matches_single_points(name, space):
    rng = np.random.default_rng(139)
    draws = [sample_with_basis(space, rng) for _ in range(3)]
    points = [m for m, _ in draws]
    tangents = [as_stack(m, basis) for m, basis in draws]
    rec = space.structure(stack(points), stack(tangents))
    assert rec.omega.shape == (3, space.dim, space.dim)
    for p, (m, t) in enumerate(zip(points, tangents)):
        one = space.structure(m, t)
        assert np.max(np.abs(rec.omega[p] - one.omega)) <= 1e-15
        for stacked, single in zip(rec.psi + rec.left, one.psi + one.left):
            assert np.max(np.abs(stacked[p] - single)) <= 1e-15


@pytest.mark.parametrize("name,space", stack_spaces())
def test_action_moment_and_fields_over_points_match_single_points(name, space):
    rng = np.random.default_rng(149)
    points = [sample(space, rng) for _ in range(3)]
    gs = [random_group(space, rng) for _ in range(3)]
    datas = [random_field(space, rng) for _ in range(3)]
    times = rng.normal(size=3)
    m = stack(points)
    cases = [
        (space._act(stack(gs), m), [space._act(g, x) for g, x in zip(gs, points)]),
        (np.stack(space._moment(m)), [np.stack(space._moment(x)) for x in points]),
        (space._tangents(stack(datas), m),
         [space._tangents(d, x) for d, x in zip(datas, points)]),
        (space._carry(expm_skew(times[:, None, None] * stack(datas)), m),
         [space._carry(expm_skew(t * d), x) for d, x, t in zip(datas, points, times)]),
    ]
    for stacked, singles in cases:
        for p, single in enumerate(singles):
            assert np.max(np.abs(stacked[:, p] - single)) <= 1e-15


# The per-sample draws and residuals the stacked verifier replaced, kept as
# oracles.

def sample_with_basis(space, rng):
    """Draw a point and its tangent basis as a list."""
    m, flows = sample_flows(space, rng)
    return m, basis_list(space, m, flows)


def random_tangent(m, basis, rng):
    """The field data of a combination of the basis with one normal
    coefficient each, over its norm."""
    coeffs = rng.normal(size=len(basis))
    return unit_tangents(np.array([np.tensordot(coeffs, x, axes=1) for x in as_stack(m, basis)]))


def moment_residual(space, m, basis, rng):
    xi = algebra_element(space, rng)
    v = space._generating(xi, m)
    w = random_tangent(m, basis, rng)
    rec = _record(space, m, [v, w])
    rhs = 0.0
    for psi, left, x in zip(rec.psi, rec.left, xi):
        # dPsi Psi^-1 = Ad_Psi (Psi^-1 dPsi)
        rhs += 0.5 * basic_inner(left[1] + psi @ left[1] @ psi.conj().T, x)
    return float(abs(rec.omega[0, 1] - rhs))


def orthonormalized(datas):
    """Three field data, orthonormalized in the flat round metric by one QR."""
    q, _ = np.linalg.qr(np.stack([spaces.realvec(d) for d in datas], axis=1))
    return [spaces.unrealvec(q[:, i], datas[0].shape[-1]) for i in range(3)]


def orthonormal_fields(space, rng):
    """Three random field data, orthonormalized."""
    return orthonormalized([random_field(space, rng) for _ in range(3)])


def cocycle_residual(space, m, rng):
    return oracles.fd_cocycle_residual(space, m, orthonormal_fields(space, rng))


def equivariance_residual(space, m, rng):
    g = random_group(space, rng)
    moved = space._moment(space._act(g, m))
    ref = space._moment(m)
    resid = 0.0
    for gi, left, right in zip(g, moved, ref):
        resid = max(resid, float(np.max(np.abs(left - gi @ right @ gi.conj().T))))
    return resid


def loop_residuals(space, axiom, samples, seed):
    """The verifier's per-sample loop: one draw and one residual at a time."""
    rng = np.random.default_rng(seed)
    out = []
    for _ in range(samples):
        if axiom == "min_degeneracy":
            out.append(point_mismatch(space, *sample_flows(space, rng)))
            continue
        m, basis = sample_with_basis(space, rng)
        if axiom == "moment":
            out.append(moment_residual(space, m, basis, rng))
        elif axiom == "cocycle":
            out.append(cocycle_residual(space, m, rng))
        else:
            out.append(equivariance_residual(space, m, rng))
    return np.array(out)


# Set from the arithmetic before measuring: the moment residual sums O(1)
# pairings in another order (a few ulps of 1), the cocycle loop is the
# central-difference oracle, whose truncation at h = 1e-4 is h^2 = 1e-8 times
# O(1) third derivatives (3.0e-10 at most on these spaces), the equivariance
# residual repeats the same products matrix by matrix, and the degeneracy
# mismatch is an integer.
STACK_TOLERANCES = {"moment": 1e-15, "cocycle": 1e-8, "equivariance": 0.0,
                    "min_degeneracy": 0.0}


@pytest.mark.parametrize("axiom", ["moment", "cocycle", "equivariance", "min_degeneracy"])
@pytest.mark.parametrize("name,space", stack_spaces())
def test_stacked_residuals_match_per_sample_loop(name, space, axiom):
    for seed in (3, 29, 101):
        loop = loop_residuals(space, axiom, 5, seed)
        for samples in range(1, 6):
            rng = np.random.default_rng(seed)
            stacked = spaces._sample_residuals(space, axiom, samples, rng)
            assert stacked.shape == (samples,)
            assert np.max(np.abs(stacked - loop[:samples])) <= STACK_TOLERANCES[axiom]
        rep = verify_axiom(space, axiom, samples=5, seed=seed)
        assert rep.max_residual == np.max(spaces._sample_residuals(
            space, axiom, 5, np.random.default_rng(seed)))


# The loop oracle's own draws, made from draws of the verifier's: its w, its
# orthonormal fields and its g.
LOOP_ONLY = ("random_tangent", "orthonormal_fields", "random_group")


def spy_draws(space, monkeypatch):
    """Log every draw, in order: field data (a point's field first, then a
    cocycle's three), algebra elements (xi or the exponent of g), the loop
    oracle's points and its own draws, and each sample of the verifier's
    stacked draw as those draws of the loop; and the stacked arguments the
    residuals get."""
    log, stacked, draw_stack = [], [], spaces._draw_stack

    def spied(kind, fn, logged=lambda out: out):
        def spy(*args, **kwargs):
            out = fn(*args, **kwargs)
            log.append((kind, logged(out)))
            return out
        return spy

    monkeypatch.setitem(globals(), "sample_flows", spied("point", sample_flows, lambda out: out[0]))
    field = spied("random_field", random_field)
    monkeypatch.setattr(oracles, "random_field", field)  # the field of oracles.sample_flows
    monkeypatch.setitem(globals(), "random_field", field)
    for kind in ("algebra_element",) + LOOP_ONLY:
        monkeypatch.setitem(globals(), kind, spied(kind, globals()[kind]))

    def stacked_draw(sp, axiom, count, rng):
        out = draw_stack(sp, axiom, count, rng)
        for p in range(count):
            log.append(("random_field", out[0][:, p]))
            if axiom == "cocycle":
                log.extend(("random_field", out[1][:, p, i]) for i in range(3))
            else:
                log.append(("algebra_element", out[1][:, p]))
        return out

    monkeypatch.setattr(spaces, "_draw_stack", stacked_draw)
    for name in ("_moment_residuals", "_cocycle_residuals", "_equivariance_residuals"):
        real = getattr(spaces, name)
        monkeypatch.setattr(spaces, name,
                            lambda sp, *args, _real=real: stacked.append(args) or _real(sp, *args))
    return log, stacked


@pytest.mark.parametrize("axiom", ["moment", "cocycle", "equivariance"])
def test_verify_axiom_draws_what_the_loop_draws(axiom, monkeypatch):
    for space in (ConjugacyClass(3, GENERIC_XI3), Fused([Double(2)]), Genus(2, 2)):
        with monkeypatch.context() as patch:
            log, stacked = spy_draws(space, patch)
            verify_axiom(space, axiom, samples=4, seed=157)
            drawn, log[:] = list(log), []
            loop_residuals(space, axiom, 4, 157)
        loop_drawn = [(k, out) for k, out in log if k not in LOOP_ONLY + ("point",)]
        assert [k for k, _ in drawn] == [k for k, _ in loop_drawn]
        assert all(np.array_equal(a, b) for (_, a), (_, b) in zip(drawn, loop_drawn))

        def drawn_as(kind, as_array=lambda x: x):
            return stack([as_array(out) for k, out in log if k == kind])

        # the loop's points, w, fields and g equal, bit for bit, what the
        # verifier builds once per stack from its draws
        if axiom == "moment":
            expected = (drawn_as("point"), drawn_as("algebra_element"),
                        drawn_as("random_tangent"))
        elif axiom == "cocycle":
            expected = (drawn_as("point"), drawn_as("orthonormal_fields", stack))
        else:
            expected = (drawn_as("point"), drawn_as("random_group"))
        assert len(stacked) == 1 and len(stacked[0]) == len(expected)
        assert all(np.array_equal(a, b) for a, b in zip(stacked[0], expected))


@pytest.mark.parametrize("n", [2, 3, 4, 5])
def test_stacked_draw_work_equals_per_sample_work(n):
    # the verifier exponentiates g, orthonormalizes the fields and builds
    # the tangent bases once per stack of samples; its verdicts keep their
    # bytes because each equals the per-sample result bit for bit
    rng = np.random.default_rng(163 + n)
    xs = random_algebra(n, rng, shape=(6,))
    assert np.array_equal(expm_skew(xs), np.stack([expm_skew(x) for x in xs]))
    c = ConjugacyClass(n, generic_xi(n))
    for space in (c, Double(n), Genus(n, 2), Fused([Fused([c, c]), c])):
        points, flows = zip(*(sample_flows(space, rng) for _ in range(4)))
        bases = space._basis(stack(points), stack(flows))
        assert all(np.array_equal(x[p], y) for p, (m, u) in enumerate(zip(points, flows))
                   for x, y in zip(bases, space._basis(m, u)))
        datas = [[random_field(space, rng) for _ in range(3)] for _ in range(4)]
        fields = spaces._orthonormal_fields(stack([stack(d) for d in datas]))
        assert all(np.array_equal(fields[:, p], stack(orthonormalized(d)))
                   for p, d in enumerate(datas))


def contract_spaces(n):
    return [ConjugacyClass(n, generic_xi(n)), Double(n), Fused([Double(n)]), Genus(n, 1),
            Genus(n, 3), Fused([ConjugacyClass(n, generic_xi(n)), Fused([Double(n)])])]


def draw_by_parts(space, rng, kind):
    """A point ("point") or a field ("field") drawn as the spaces drew them
    before both were one flow of one draw: a class point is u base u* for a
    random special unitary u and its field one algebra draw; the slots of a
    double or a genus space are the exponentials of one stack of algebra
    draws; a product draws part by part."""
    if isinstance(space, ConjugacyClass):
        if kind == "field":
            return random_algebra(space.n, rng)[None]
        u = random_special_unitary(space.n, rng)
        return (u @ space.base[0] @ u.conj().T)[None]
    if isinstance(space, (Double, Genus)):
        xs = random_algebra(space.n, rng, shape=(len(space.base),))
        return xs if kind == "field" else expm_skew(xs)
    return np.concatenate([draw_by_parts(part, rng, kind) for part in space.parts])


def same_bits(a, b):
    return a.shape == b.shape and a.dtype == b.dtype and a.tobytes() == b.tobytes()


def same_record(rec, ref):
    """Two records hold the same bits, field by field."""
    return (len(rec.psi) == len(ref.psi) and same_bits(rec.omega, ref.omega)
            and all(map(same_bits, rec.psi + rec.left, ref.psi + ref.left)))


class Raising:
    def __getattr__(self, name):
        raise AssertionError(f"numpy.linalg.{name} called in a draw")


def raising_expm(x):
    raise AssertionError("expm_skew called in a draw")


@pytest.mark.parametrize("n", [2, 3, 4, 5])
def test_draws_keep_the_seed_contract(n, monkeypatch):
    # a point is the time-one flow of a field from the base point, and the
    # same seed gives the same samples as the draws by parts, sign bits
    # included; the loop oracle's sample therefore checks the verifier
    # against the points of the earlier rule
    for space in contract_spaces(n):
        for seed in range(6):
            for kind, draw in (("point", partial(sample, space)),
                               ("field", partial(random_field, space))):
                assert same_bits(draw(np.random.default_rng(seed)),
                                 draw_by_parts(space, np.random.default_rng(seed), kind))
            for axiom in spaces.AXIOMS:
                f = spaces._draw_stack(space, axiom, 1, np.random.default_rng(seed))[0][:, 0]
                assert same_bits(field_flow(space, f, space.base, 1.0),
                                 draw_by_parts(space, np.random.default_rng(seed), "point"))
    # the draw loop calls the generator and no matrix function
    monkeypatch.setattr(spaces, "expm_skew", raising_expm)
    monkeypatch.setattr(np, "linalg", Raising())
    for space in contract_spaces(n):
        with pytest.raises(AssertionError):  # the patches bite: a point is matrix work
            sample(space, np.random.default_rng(n))
        for axiom in spaces.AXIOMS:
            spaces._draw_stack(space, axiom, 3, np.random.default_rng(n))


@pytest.mark.parametrize("reason", ["undecided", None])
@pytest.mark.parametrize("step", [1, 2, 3])
def test_degeneracy_stacks_hold_at_most_stack_rows(reason, step, monkeypatch):
    # genus(2, 2) min_degeneracy stacks of at most STACK_ROWS // dim samples,
    # each sample decided where it is drawn.  With "undecided" the second
    # field is the first of seed 1976016887, whose point the undecided band
    # once redrew: it is decided in its stack, with no draw more
    space = Genus(2, 2)
    monkeypatch.setattr(spaces, "STACK_ROWS", step * space.dim)
    near = random_field(space, np.random.default_rng(1976016887))
    fields, sizes, draw_stack, mismatch = [], [], spaces._draw_stack, spaces._degeneracy_mismatch

    def scripted(sp, axiom, count, rng):
        (f,) = draw_stack(sp, axiom, count, rng)
        if reason and len(fields) <= 1 < len(fields) + count:
            f[:, 1 - len(fields)] = near
        fields.extend(np.moveaxis(f, 1, 0))
        return (f,)

    monkeypatch.setattr(spaces, "_draw_stack", scripted)
    monkeypatch.setattr(spaces, "_degeneracy_mismatch",
                        lambda sp, m, flows=None: sizes.append(m.shape[1]) or mismatch(sp, m, flows))
    rng = np.random.default_rng(5)
    stacked = spaces._sample_residuals(space, "min_degeneracy", 5, rng)
    assert max(sizes) == step and len(fields) == 5
    assert reason is None or np.array_equal(fields[1], near)
    one_by_one = [point_mismatch(space, field_flow(space, f, space.base, 1.0)) for f in fields]
    assert np.array_equal(stacked, one_by_one) and not np.any(stacked)
    # the generator is where five draws of a loop leave it
    ref = np.random.default_rng(5)
    for _ in range(5):
        draw(space, "min_degeneracy", ref)
    assert rng.bit_generator.state == ref.bit_generator.state


@pytest.mark.parametrize("step", [1, 2, 3])
@pytest.mark.parametrize("axiom", spaces.AXIOMS)
@pytest.mark.parametrize("name,space", stack_spaces())
def test_every_axiom_stack_holds_at_most_stack_rows(name, space, axiom, step, monkeypatch):
    # stacks of at most STACK_ROWS // dim samples, each giving the residuals
    # of its draws one at a time bit for bit, and all of them the residuals
    # of one stack over every sample
    samples, seed = 7, 41
    whole = spaces._sample_residuals(space, axiom, samples, np.random.default_rng(seed))
    monkeypatch.setattr(spaces, "STACK_ROWS", step * space.dim)
    draws, stacks, residuals, draw_stack = [], [], spaces._residuals, spaces._draw_stack

    def spied_draw(sp, ax, count, rng):
        # the stack's samples as the loop draws them, by the oracle from the same state
        ref = np.random.default_rng(0)
        ref.bit_generator.state = rng.bit_generator.state
        draws.extend(draw(sp, ax, ref) for _ in range(count))
        return draw_stack(sp, ax, count, rng)

    monkeypatch.setattr(spaces, "_draw_stack", spied_draw)

    def spied(sp, ax, *drawn):
        stacks.append((len(draws), residuals(sp, ax, *drawn)))
        return stacks[-1][1]

    monkeypatch.setattr(spaces, "_residuals", spied)
    stacked = spaces._sample_residuals(space, axiom, samples, np.random.default_rng(seed))
    assert [len(part) for _, part in stacks] == [step] * (samples // step) + (
        [samples % step] if samples % step else [])
    assert len(draws) == samples and np.array_equal(stacked, whole)
    for end, part in stacks:
        one_by_one = [residuals(space, axiom, *stack_draws([d]))[0]
                      for d in draws[end - len(part):end]]
        assert np.array_equal(part, one_by_one)


@pytest.mark.parametrize("axiom", spaces.AXIOMS)
@pytest.mark.parametrize("name,space", stack_spaces())
def test_stacked_draw_matches_the_loop_draws(name, space, axiom, monkeypatch):
    # one generator call gives the per-sample loop's draws and leaves its
    # state, bit for bit, at 1, 2 and 3 samples, and over stacks split at
    # STACK_ROWS
    for count in (1, 2, 3):
        rng, ref = np.random.default_rng(211), np.random.default_rng(211)
        stacked = spaces._draw_stack(space, axiom, count, rng)
        loop = stack_draws([draw(space, axiom, ref) for _ in range(count)])
        assert len(stacked) == len(loop) and all(map(same_bits, stacked, loop))
        assert rng.bit_generator.state == ref.bit_generator.state
    monkeypatch.setattr(spaces, "STACK_ROWS", 2 * space.dim)
    rng, ref = np.random.default_rng(223), np.random.default_rng(223)
    spaces._sample_residuals(space, axiom, 5, rng)
    for _ in range(5):
        draw(space, axiom, ref)
    assert rng.bit_generator.state == ref.bit_generator.state


class CountingGenerator(np.random.Generator):
    """A generator that counts its normal calls."""

    calls = 0

    def normal(self, *args, **kwargs):
        self.calls += 1
        return super().normal(*args, **kwargs)


@pytest.mark.parametrize("axiom", spaces.AXIOMS)
def test_axiom_stack_draws_in_one_generator_call(axiom, monkeypatch):
    # each stack of every axiom draws its samples with one normal call,
    # however many stacks STACK_ROWS splits them into
    for _, space in stack_spaces():
        for step, samples in ((1, 1), (1, 3), (2, 5), (5, 5)):
            monkeypatch.setattr(spaces, "STACK_ROWS", step * space.dim)
            rng = CountingGenerator(np.random.PCG64(229))
            spaces._sample_residuals(space, axiom, samples, rng)
            assert rng.calls == -(-samples // step), (space, step, samples)


@pytest.mark.parametrize("h", [1, 2, 3])
def test_genus_record_makes_one_double_call(h, monkeypatch):
    # the h doubles of a genus space are one object, and their record is one
    # Double.structure call over an axis of h, in both layouts, at a point
    # and over a stack of points
    space, calls, real = Genus(2, h), [], Double.structure
    monkeypatch.setattr(Double, "structure",
                        lambda self, *args: calls.append(self) or real(self, *args))
    rng = np.random.default_rng(233)
    points = stack([sample(space, rng) for _ in range(3)])
    for m in (points[:, 0], points):
        blocks = space._basis(m, None)
        for stacked, layout in ((block_rows(blocks), False), (blocks, True)):
            calls.clear()
            space.structure(m, stacked, layout)
            assert calls == [space.parts[0]]


# Ops that a solve for the class potentials once failed or blurred.  The
# records now read the potentials as the field data, with no solve and no
# cutoff; these ops keep the verdicts and residuals the solve reached.

def test_class_cocycle_seed_875134980_passes():
    # a stacked potential solve with numpy's pinv cutoffs failed this op,
    # residual 0.25; the per-point lstsq gave 1.4e-14, the field data 2.2e-14
    rep = verify_axiom(ConjugacyClass(2, (Q(1, 8), Q(-1, 8))), "cocycle", samples=2,
                       seed=875134980)
    assert rep.passed and rep.max_residual < 1e-9


NEAR_DEGENERATE_XI3 = (Q(250001, 1000000), Q(249999, 1000000), Q(-1, 2))


@pytest.mark.parametrize("axiom,bound", [("moment", 1e-10), ("cocycle", 1e-10),
                                         ("min_degeneracy", 0.0)])
def test_near_degenerate_class_passes(axiom, bound):
    # eigenphases 2e-6 apart: |e^{2 pi i 2e-6} - 1| = 1.3e-5 is a kept
    # singular value; a potential solve through an explicit pseudo-inverse
    # put the cocycle residual at 3.7e-10 where the per-point lstsq and the
    # field data give 1.8e-11
    rep = verify_axiom(ConjugacyClass(3, NEAR_DEGENERATE_XI3), axiom, samples=20, seed=3)
    assert rep.passed and rep.max_residual <= bound


def test_class_sweep_subset_matches_its_table():
    # class_sweep.json covers every space and axiom of the sweep, every cell passes, as
    # every space of the sweep is quasi-Hamiltonian, and a subset, n = 2 and 3, the three
    # families at eps = 1e-5, 1e-8 and 1e-10, seed 0, gets the exit code and verdict the
    # table records
    recorded = class_sweep.load()
    assert list(recorded) == sorted(class_sweep.groups())
    assert all(cells == [[0, True]] * len(class_sweep.SEEDS) for cells in recorded.values())
    subset = class_sweep.groups(ns=(2, 3), exponents=(5, 8, 10))
    assert len(subset) == 216
    changed = [(g, recorded[g][0], got) for g in subset
               if (got := class_sweep.run(g, 0)) != recorded[g][0]]
    assert not changed, changed


# ---------------------------------------------------------------------------
# fusion structure

def test_fusion_moment_associativity():
    # (a * c) * b and a * (c * b), with a class c between two fused doubles,
    # give the same record on the same tangents (both groupings have the
    # slots of a, c and b in a row): form, moment and its left logarithmic
    # derivative
    rng = np.random.default_rng(37)
    a, b = Fused([Double(2)]), Fused([Double(2)])
    c = ConjugacyClass(2, (Q(1, 8), Q(-1, 8)))
    left, right = Fused([Fused([a, c]), b]), Fused([a, Fused([c, b])])

    m, flows = sample_flows(left, rng)
    basis = basis_list(left, m, flows)
    rec_left = _record(left, m, basis)
    rec_right = _record(right, m, basis)
    assert np.max(np.abs(rec_left.omega - rec_right.omega)) < 1e-12
    for x, y in zip(rec_left.psi + rec_left.left, rec_right.psi + rec_right.left):
        assert np.max(np.abs(x - y)) < 1e-12


def test_fusion_of_classes_is_quasi_hamiltonian():
    c1 = ConjugacyClass(2, (Q(1, 8), Q(-1, 8)))
    c2 = ConjugacyClass(2, (Q(1, 4), Q(-1, 4)))
    fused = Fused([c1, c2])
    assert fused.dim == c1.dim + c2.dim
    for axiom in ("moment", "cocycle", "equivariance", "min_degeneracy"):
        rep = verify_axiom(fused, axiom, samples=6, seed=41)
        assert rep.passed, (axiom, rep)


def test_marked_genus_shape_is_quasi_hamiltonian():
    # one handle fused with a marking class, the moduli-space building block
    space = Fused([Fused([Double(2)]), ConjugacyClass(2, (Q(1, 8), Q(-1, 8)))])
    assert space.dim == 6 + 2
    for axiom in ("moment", "cocycle", "min_degeneracy", "equivariance"):
        rep = verify_axiom(space, axiom, samples=5, seed=67)
        assert rep.passed, (axiom, rep)
    rng = np.random.default_rng(71)
    m = sample(space, rng)
    a, b, c = m
    expected = a @ b @ a.conj().T @ b.conj().T @ c
    assert np.max(np.abs(space._moment(m)[0] - expected)) < 1e-12


def test_su3_genus_axioms():
    space = Genus(3, 1)
    for axiom in ("moment", "cocycle"):
        rep = verify_axiom(space, axiom, samples=4, seed=73)
        assert rep.passed, (axiom, rep)


def test_genus_point_shapes():
    g = Genus(2, 3)
    rng = np.random.default_rng(43)
    m = sample(g, rng)
    assert len(m) == 6 and all(p.shape == (2, 2) for p in m)
    assert all(len(t) == 6 for t in basis_list(g, m)) and len(basis_list(g, m)) == g.dim
    psi = g._moment(m)[0]
    expected = np.eye(2, dtype=complex)
    for i in range(0, 6, 2):
        a, b = m[i], m[i + 1]
        expected = expected @ a @ b @ a.conj().T @ b.conj().T
    assert np.max(np.abs(psi - expected)) < 1e-12


@pytest.mark.parametrize("name,space", stack_spaces())
def test_point_and_basis_shapes(name, space):
    # one slot per class, two per double; a point, a field and the base are
    # (k, n, n), a basis one (d_j, n, n) block per slot with d rows in all,
    # and a stack of points puts its axis in front of the rows
    k = {"class2": 1, "class3": 1, "double2": 2, "fused2": 2, "genus22": 4, "fusion": 2,
         "nested_fusion": 3}[name]
    n = space.n
    rng = np.random.default_rng(29)
    m, flows = sample_flows(space, rng)
    assert m.shape == space.base.shape == random_field(space, rng).shape == (k, n, n)
    blocks, two = space._basis(m, flows), space._basis(stack([m, m]), stack([flows, flows]))
    rows = [x.shape[0] for x in blocks]
    assert len(blocks) == len(two) == k and sum(rows) == space.dim
    assert [x.shape for x in blocks] == [(r, n, n) for r in rows]
    assert [x.shape for x in two] == [(2, r, n, n) for r in rows]


@pytest.mark.parametrize("n,h", [(2, 1), (2, 3), (3, 2)])
def test_genus_matches_explicit_fusion_chain(n, h):
    # the flat genus space agrees bit for bit with the nested fusion chain:
    # record, moment, basis, action, fields, draws and flows at the same point
    space = Genus(n, h)
    rng = np.random.default_rng(113)
    m = sample(space, rng)
    basis = basis_list(space, m)
    g = random_special_unitary(n, rng)
    xi = random_algebra(n, rng)
    data = random_field(space, np.random.default_rng(5))
    other = genus_chain(n, h)
    assert other.dim == space.dim
    assert np.array_equal(np.stack(basis), np.stack(basis_list(other, m)))
    rec = _record(space, m, basis)
    ref = _record(other, m, basis)
    assert np.array_equal(rec.omega, ref.omega)
    for x, y in zip(rec.psi + rec.left, ref.psi + ref.left):
        assert np.array_equal(x, y)
    assert np.array_equal(space._moment(m)[0], other._moment(m)[0])
    assert np.array_equal(data, random_field(other, np.random.default_rng(5)))
    assert np.array_equal(sample(space, np.random.default_rng(7)),
                          sample(other, np.random.default_rng(7)))
    pairs = [
        (space._act(g[None], m), other._act(g[None], m)),
        (space._act(g[None], basis[-1]), other._act(g[None], basis[-1])),
        (space._generating(xi[None], m), other._generating(xi[None], m)),
        (space._tangents(data, m), other._tangents(data, m)),
        (space._carry(expm_skew(0.3 * data), m), other._carry(expm_skew(0.3 * data), m)),
    ]
    for flat, nested in pairs:
        assert np.array_equal(flat, nested)
    # the h doubles are one object and make one record over an axis of h: the fold of
    # their records one at a time, bit for bit, in both layouts and over a stack of points
    for at in (m, stack([m, sample(space, rng)])):
        blocks = space._basis(at, None)
        for stacked, layout in ((block_rows(blocks), False), (blocks, True)):
            assert same_record(space.structure(at, stacked, layout),
                               part_by_part_record(space, at, stacked, layout))


def test_slot_kinds_match_closed_forms():
    # class slots 0 and 3 around the double's group slots 1 and 2: at one
    # point and at a stack of three, each slot's field and flow is its kind's
    # closed form, and each part's blocks of the basis are its own basis, bit
    # for bit
    other = ConjugacyClass(3, (Q(3, 8), Q(-1, 8), Q(-1, 4)))
    parts = [ConjugacyClass(3, GENERIC_XI3), Double(3), other]
    space = Fused(parts)
    assert space.class_slots == (0, 3)
    rng = np.random.default_rng(131)
    points, flows = zip(*(sample_flows(space, rng) for _ in range(3)))
    datas = [random_field(space, rng) for _ in range(3)]
    times = np.array([0.3, -0.7, 1.1])
    for m, reach, data, t in ((points[0], flows[0], datas[0], times[0]),
                              (stack(points), stack(flows), stack(datas), times)):
        at = space._tangents(data, m)
        flow = space._carry(expm_skew(np.asarray(t)[..., None, None] * data), m)
        for j, (x, p) in enumerate(zip(data, m)):
            u = expm_skew(np.asarray(t)[..., None, None] * x)
            if j in (0, 3):
                assert same_bits(at[j], x @ p - p @ x)
                assert same_bits(flow[j], u @ p @ u.conj().swapaxes(-1, -2))
            else:
                assert same_bits(at[j], x @ p)
                assert same_bits(flow[j], u @ p)
        basis = space._basis(m, reach)
        for part, slots in zip(parts, ([0], [1, 2], [3])):
            own = part._basis(m[slots], reach[slots])
            assert all(same_bits(basis[j], x) for j, x in zip(slots, own))
        assert sum(x.shape[-3] for x in basis) == space.dim == 6 + 16 + 6


# ---------------------------------------------------------------------------
# reduction

def test_reduction_rank_at_reflected_pairs():
    g22 = Genus(2, 2)
    rng = np.random.default_rng(47)
    for _ in range(5):
        a = random_special_unitary(2, rng)
        b = random_special_unitary(2, rng)
        m = np.stack([a, b, b, a])
        assert reduction_rank(g22, m) == 3 == fd_reduction_rank(g22, m)


def test_reduction_rank_at_commuting_and_identity():
    g21 = Genus(2, 1)
    rng = np.random.default_rng(53)
    h = 1j * np.diag([1.0, -1.0])
    u = random_special_unitary(2, rng)
    a = u @ scipy.linalg.expm(0.37 * h) @ u.conj().T
    b = u @ scipy.linalg.expm(-0.83 * h) @ u.conj().T
    assert reduction_rank(g21, np.stack([a, b])) == 2 == fd_reduction_rank(g21, np.stack([a, b]))
    e = np.eye(2, dtype=complex)
    assert reduction_rank(g21, np.stack([e, e])) == 0 == fd_reduction_rank(g21, np.stack([e, e]))
    point = ConjugacyClass(2, (Q(0), Q(0)))  # no tangents: an empty Jacobian
    assert reduction_rank(point, point.base, identity_flows(point, point.base)) == 0


@pytest.mark.parametrize("n", [2, 3, 4])
def test_exact_reduction_rank_matches_finite_differences(n):
    rng = np.random.default_rng(131)
    a, b = random_special_unitary(n, rng), random_special_unitary(n, rng)
    diag = 1j * np.diag([1.0] + [0.0] * (n - 2) + [-1.0])
    u = random_special_unitary(n, rng)
    c, d = (u @ scipy.linalg.expm(t * diag) @ u.conj().T for t in (0.37, -0.83))
    e = np.eye(n, dtype=complex)
    cases = [(Genus(n, 2), (a, b, b, a), n * n - 1), (Genus(n, 1), (c, d), n * n - 1 - ((n - 2) ** 2 + 1)),
             (Genus(n, 1), (e, e), 0), (Genus(n, 2), (e, e, e, e), 0)]
    for space, point, expected in cases:
        point = np.stack(point)
        assert reduction_rank(space, point) == fd_reduction_rank(space, point) == expected


def test_reduction_rank_rejections():
    g21 = Genus(2, 1)
    rng = np.random.default_rng(59)
    a = random_special_unitary(2, rng)
    b = random_special_unitary(2, rng)
    with pytest.raises(InputError) as err:
        reduction_rank(g21, np.stack([a, b]))  # commutator is not the identity
    assert err.value.code == "not-identity-level"
    with pytest.raises(InputError):
        reduction_rank(Double(2), np.stack([a, b]))


# ---------------------------------------------------------------------------
# the four-sphere moment map

def test_sphere4_poles_and_equator():
    assert np.allclose(sphere4_moment(np.zeros(2), 1.0), np.eye(2))
    assert np.allclose(sphere4_moment(np.zeros(2), -1.0), -np.eye(2))
    psi = sphere4_moment(np.array([1.0 + 0j, 0.0]), 0.0)
    assert np.allclose(psi, np.diag([1j, -1j]))
    assert abs(np.trace(psi)) < 1e-14


def test_sphere4_equivariance():
    assert sphere4_equivariance_residual(samples=100, seed=0) < 1e-10


def sphere4_loop(samples, seed):
    """The per-sample loop sphere4_equivariance_residual stacks."""
    rng = np.random.default_rng(seed)
    worst = 0.0
    for _ in range(samples):
        p = rng.normal(size=5)
        p /= np.linalg.norm(p)
        z, t = np.array([p[0] + 1j * p[1], p[2] + 1j * p[3]]), float(p[4])
        g = random_special_unitary(2, rng)
        lhs = sphere4_moment(*spaces.sphere4_act(g, z, t))
        rhs = g @ sphere4_moment(z, t) @ g.conj().T
        worst = max(worst, float(np.max(np.abs(lhs - rhs))))
    return worst


@pytest.mark.parametrize("samples", [1, 3, 100, 400])
@pytest.mark.parametrize("seed", [0, 2, 11])
def test_sphere4_stack_matches_per_sample_loop(samples, seed):
    batched = sphere4_equivariance_residual(samples=samples, seed=seed)
    assert abs(batched - sphere4_loop(samples, seed)) < 1e-13


def test_sphere4_stack_draws_the_loop_points_and_group_elements(monkeypatch):
    # every draw gives a residual at rounding level, so the residual alone
    # cannot show that the stack reads the loop's draws; the inputs can
    seen = []
    real = spaces.sphere4_act

    def spy(g, z, t):
        seen.append((g, z, t))
        return real(g, z, t)

    monkeypatch.setattr(spaces, "sphere4_act", spy)
    sphere4_equivariance_residual(samples=30, seed=5)
    sphere4_loop(30, 5)
    (gs, zs, ts), loop = seen[0], seen[1:]
    assert gs.shape == (30, 2, 2) and len(loop) == 30
    assert np.max(np.abs(gs - np.stack([g for g, _, _ in loop]))) < 1e-13
    assert np.max(np.abs(zs - np.stack([z for _, z, _ in loop]))) < 1e-15
    assert np.max(np.abs(ts - np.array([t for _, _, t in loop]))) < 1e-15


def test_sphere4_moment_stack_with_poles():
    rng = np.random.default_rng(62)
    p = rng.normal(size=(6, 5))
    p /= np.linalg.norm(p, axis=1, keepdims=True)
    z, t = p[:, 0:4:2] + 1j * p[:, 1:4:2], p[:, 4]
    z[[1, 4]] = 0.0
    t[1], t[4] = 1.0, -1.0
    values = sphere4_moment(z, t)
    assert values.shape == (6, 2, 2)
    assert np.array_equal(values[1], np.eye(2)) and np.array_equal(values[4], -np.eye(2))
    for zi, ti, value in zip(z, t, values):
        assert np.max(np.abs(value - sphere4_moment(zi, ti))) < 1e-15
    t[2] = 0.5 * t[2]
    with pytest.raises(InputError) as err:
        sphere4_moment(z, t)
    assert err.value.code == "off-sphere"


def test_sphere4_act_rejects_a_non_unitary_sample():
    rng = np.random.default_rng(63)
    gs = np.stack([random_special_unitary(2, rng) for _ in range(4)])
    gs[1] = gs[1] @ np.diag([1.5, 1.0 / 1.5])  # det 1, not unitary
    z, t = np.tile([0.6 + 0j, 0.0], (4, 1)), np.full(4, 0.8)
    with pytest.raises(InputError) as err:
        sphere4_act(gs, z, t)
    assert err.value.code == "not-special-unitary"


@pytest.mark.parametrize("samples", [0, -1])
def test_sphere4_rejects_empty_sample_counts(samples):
    with pytest.raises(InputError) as err:
        sphere4_equivariance_residual(samples=samples, seed=0)
    assert err.value.code == "invalid-samples"


def test_sphere4_rejects_off_sphere():
    with pytest.raises(InputError) as err:
        sphere4_moment(np.array([0.5 + 0j, 0.0]), 0.5)
    assert err.value.code == "off-sphere"


@pytest.mark.parametrize("bad", [np.nan, np.inf])
def test_sphere4_rejects_non_finite_points(bad):
    for z, t in [(np.array([bad, 0.0]), 0.5), (np.array([0.6 + 0j, 0.0]), bad)]:
        with pytest.raises(InputError) as err:
            sphere4_moment(z, t)
        assert err.value.code == "off-sphere"


def test_sphere4_action_shape():
    rng = np.random.default_rng(61)
    g = random_special_unitary(2, rng)
    z, t = sphere4_act(g, np.array([0.6 + 0j, 0.0]), 0.8)
    assert abs(np.vdot(z, z).real + t * t - 1.0) < 1e-12


# ---------------------------------------------------------------------------
# the block records against the zero-filled records they replaced

def block_record_spaces():
    other, double = ConjugacyClass(3, (Q(3, 8), Q(-1, 8), Q(-1, 4))), Double(3)
    return [
        ("class(2)", ConjugacyClass(2, (Q(1, 8), Q(-1, 8)))),
        ("class(3)", ConjugacyClass(3, GENERIC_XI3)),
        ("class(4)", ConjugacyClass(4, generic_xi(4))),
        ("double(2)", Double(2)),
        ("double(3)", Double(3)),
        ("double(4)", Double(4)),
        ("fused_double(3)", Fused([Double(3)])),
        ("genus(2,1)", Genus(2, 1)),
        ("genus(2,2)", Genus(2, 2)),
        ("genus(2,3)", Genus(2, 3)),
        ("genus(3,2)", Genus(3, 2)),
        ("class-double-class", Fused([ConjugacyClass(3, GENERIC_XI3), Double(3), other])),
        ("runs", Fused([other, other, double, double])),
    ]


@pytest.mark.parametrize("name,space", block_record_spaces())
def test_block_record_matches_zero_filled_record(name, space):
    # min_degeneracy and reduction_rank read the record of the basis block by
    # block; it is the record of the zero-filled basis, at one point and over
    # a stack, with class frames from eig or from the flows
    rng = np.random.default_rng(151)
    fields = [random_field(space, rng) for _ in range(3)]
    for f, base in ((fields[0], space.base), (stack(fields), space.base[:, None])):
        flows = expm_skew(f)
        m = space._carry(flows, base)
        for given in (eig_frames(space, m), flows):
            rec = space.structure(m, space._basis(m, given), blocks=True)
            if isinstance(space, Fused):  # a run of parts that are one object shares a call
                ref = part_by_part_record(space, m, space._basis(m, given), blocks=True)
                assert same_record(rec, ref), name
            ref = zero_filled_record(space, m, given)
            assert rec.omega.shape == ref.omega.shape == m.shape[1:-2] + (space.dim,) * 2
            assert np.max(np.abs(rec.omega - ref.omega)) <= 1e-13, name
            for x, y in zip(rec.psi + rec.left, ref.psi + ref.left):
                assert x.shape == y.shape and np.max(np.abs(x - y)) <= 1e-13, name
