from dataclasses import replace
from fractions import Fraction as Q

import numpy as np
import pytest
import scipy.linalg

from quasiham import spaces
from quasiham.errors import InputError
from quasiham.spaces import (
    ConjugacyClass,
    Double,
    Fused,
    Fusion,
    Genus,
    InternalFusion,
    make_space,
    omega_matrix,
    reduction_rank,
    sphere4_act,
    sphere4_equivariance_residual,
    sphere4_moment,
    verify_axiom,
)
from quasiham.sun import (
    _three_form_pulled,
    algebra_coords,
    algebra_from_coords,
    basic_inner,
    expm_skew,
    project_algebra,
    random_algebra,
    random_special_unitary,
    realified_operator,
    torus_point,
)

GENERIC_XI3 = (Q(1, 4), Q(1, 12), Q(-1, 3))


def builtin_spaces():
    return [
        ("class2", ConjugacyClass(2, (Q(1, 8), Q(-1, 8)))),
        ("class3", ConjugacyClass(3, GENERIC_XI3)),
        ("double2", Double(2)),
        ("fused2", InternalFusion(Double(2))),
        ("genus22", Genus(2, 2)),
    ]


def _record(space, m, tangents):
    """The structure record of a list of tangents at one point."""
    return space.structure(m, spaces._stack_tangents(m, tangents))


def random_group(space, rng):
    """A group element as the verifier draws g: the exponential of the
    space's algebra draw, one slot per factor."""
    return expm_skew(space.random_algebra_element(rng))


def pair_omega(space, m, v, w):
    """omega(v, w), read from the record of the stack [v, w]."""
    return omega_matrix(space, m, [v, w])[0, 1]


def genus_chain(n, h):
    """Genus(n, h) written out as nested fusions; its points have the same
    2h slots."""
    chain = InternalFusion(Double(n))
    for _ in range(h - 1):
        chain = Fusion(chain, InternalFusion(Double(n)))
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
    tangent basis, each slot p moved to exp(t v p^-1) p."""
    def move(t, v):
        return np.array([scipy.linalg.expm(t * x @ p.conj().T) @ p for p, x in zip(m, v)])

    cols = []
    for v in space.tangent_basis(m):
        plus = space._moment(move(fd_step, v))[0]
        minus = space._moment(move(-fd_step, v))[0]
        cols.append(algebra_coords(project_algebra((plus - minus) / (2.0 * fd_step))))
    svals = np.linalg.svd(np.stack(cols, axis=1), compute_uv=False)
    if svals.size == 0 or svals[0] <= 1e-9:
        return 0
    return int(np.sum(svals > spaces.RANK_CUTOFF * svals[0]))


# ---------------------------------------------------------------------------
# construction and validation

def test_make_space_dispatch():
    assert isinstance(make_space("conjugacy_class", n=2, xi=(Q(1, 4), Q(-1, 4))), ConjugacyClass)
    assert isinstance(make_space("double", n=2), Double)
    assert isinstance(make_space("fused_double", n=3), InternalFusion)
    assert isinstance(make_space("genus", n=2, h=2), Genus)
    d = make_space("fused_double", n=2)
    assert isinstance(make_space("fusion", s1=d, s2=d), Fusion)
    assert isinstance(make_space("internal_fusion", s=Double(2)), InternalFusion)
    with pytest.raises(InputError):
        make_space("nonsense")
    with pytest.raises(InputError):
        make_space("conjugacy_class", n=2)


def test_space_validation_errors():
    with pytest.raises(InputError) as err:
        ConjugacyClass(2, (Q(3, 4), Q(-3, 4)))  # gap bigger than one
    assert err.value.code == "not-in-alcove"
    with pytest.raises(InputError):
        ConjugacyClass(2, (Q(1, 4), Q(1, 4)))  # nonzero sum
    with pytest.raises(InputError):
        Fusion(InternalFusion(Double(2)), InternalFusion(Double(3)))
    with pytest.raises(InputError):
        Fusion(Double(2), Double(2))  # pair-valued factors
    with pytest.raises(InputError):
        InternalFusion(InternalFusion(Double(2)))
    with pytest.raises(InputError):
        Genus(2, 0)
    for n in (0, 1):
        for build in (lambda: Double(n), lambda: Genus(n, 1), lambda: InternalFusion(Double(n))):
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
    too_large = [lambda: Double(12), lambda: InternalFusion(Double(300)), lambda: Genus(4, 9),
                 lambda: Genus(2, 10**9), lambda: ConjugacyClass(300, (Q(0),) * 300),
                 lambda: ConjugacyClass(17, generic_xi(17)),
                 lambda: Fusion(*[ConjugacyClass(16, generic_xi(16))] * 2)]
    for build in too_large:
        with pytest.raises(InputError) as err:
            build()
        assert err.value.code == "space-too-large"


def test_dimensions():
    assert ConjugacyClass(2, (Q(1, 8), Q(-1, 8))).dim == 2
    assert ConjugacyClass(3, GENERIC_XI3).dim == 6
    assert Double(2).dim == 6
    assert InternalFusion(Double(2)).dim == 6
    assert Genus(2, 2).dim == 12
    # a central class is a single point
    assert ConjugacyClass(2, (Q(1, 2), Q(-1, 2))).dim == 0


# ---------------------------------------------------------------------------
# two-form algebra

@pytest.mark.parametrize("name,space", builtin_spaces())
def test_omega_antisymmetric_bilinear(name, space):
    rng = np.random.default_rng(1)
    m = space.sample(rng)
    basis = space.tangent_basis(m)
    v, w, u = (sum_basis(space, m, basis, rng) for _ in range(3))
    om = omega_matrix(space, m, [v, w, u, v + 0.7 * u])
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
        m = space.sample(rng)
        basis = space.tangent_basis(m)
        v = sum_basis(space, m, basis, rng)
        w = sum_basis(space, m, basis, rng)
        g = random_group(space, rng)
        moved = space._act(g, m)
        lhs = pair_omega(space, moved, space._act(g, v), space._act(g, w))
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
    assert np.max(np.abs(c._generating(xi[None], m))) < 1e-14
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


def test_unresolved_class_directions_take_the_first_coefficients():
    # eigenphases 2e-8 apart put two singular values of the fields below
    # RANK_CUTOFF: the basis has 4 of the 6 directions, the moment draw still
    # draws 6 coefficients, and w combines the basis with the first 4
    space = ConjugacyClass(3, (Q(1, 4) + Q(1, 10**8), Q(1, 4) - Q(1, 10**8), Q(-1, 2)))
    assert space.dim == 6 and len(space.tangent_basis(space.base)) == 4
    rep = verify_axiom(space, "moment", samples=5, seed=1)
    assert rep.passed and rep.max_residual < 1e-12


def test_class_dim_is_exact_and_matches_tangent_basis():
    # dim = n^2 - sum m_i^2 over the multiplicities of the entries mod 1
    rng = np.random.default_rng(23)
    points = [rational_alcove_point(rng, int(rng.integers(2, 6))) for _ in range(600)]
    points += [(Q(1, 2), Q(-1, 2)), (Q(0), Q(0)), (Q(1, 3), Q(1, 3), Q(-2, 3)),
               (Q(1, 2), Q(0), Q(-1, 2)), NEAR_DEGENERATE_XI3]
    walls = 0
    for xi in points:
        c = ConjugacyClass(len(xi), xi)
        assert c.dim == len(c.tangent_basis(c.base)), xi
        walls += xi[0] - xi[-1] == 1
    assert walls > 20
    assert ConjugacyClass(2, (Q(1, 2), Q(-1, 2))).dim == 0  # the half-central class
    assert ConjugacyClass(3, (Q(1, 2), Q(0), Q(-1, 2))).dim == 4


def test_fused_double_moment_at_commuting_pair():
    f = InternalFusion(Double(2))
    h = 1j * np.diag([1.0, -1.0])
    a = scipy.linalg.expm(0.4 * h)
    b = scipy.linalg.expm(-1.1 * h)
    assert np.max(np.abs(f._moment(np.stack([a, b]))[0] - np.eye(2))) < 1e-12


def test_double_moment_values():
    d = Double(2)
    rng = np.random.default_rng(5)
    a, b = m = d.sample(rng)
    p1, p2 = d._moment(m)
    assert np.allclose(p1, a @ b)
    assert np.allclose(p2, np.linalg.inv(a) @ np.linalg.inv(b))


# ---------------------------------------------------------------------------
# the batched Gram matrix

def pairwise_omega_matrix(space, m, basis):
    """Reference: one reference omega per pair i < j, mirrored."""
    d = len(basis)
    out = np.zeros((d, d))
    for i in range(d):
        for j in range(i + 1, d):
            val = ref_omega(space, m, basis[i], basis[j])
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
        ("fused_double(3)", InternalFusion(Double(3)), 16),
        ("genus(2,2)", Genus(2, 2), 12),
        ("genus(3,3)", Genus(3, 3), 48),
    ]


@pytest.mark.parametrize("name,space,d", gram_spaces())
def test_omega_matrix_matches_pairwise_loop(name, space, d):
    rng = np.random.default_rng(83)
    for _ in range(2):
        m, basis = sample_with_basis(space, rng)
        assert len(basis) == d
        batched = omega_matrix(space, m, basis)
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
        for psi, left, right, dpsi in zip(rec.psi, rec.left, rec.right, ref_dmoment(space, m, t)):
            assert np.max(np.abs(psi @ left[i] - dpsi)) <= 1e-14
            assert np.max(np.abs(right[i] @ psi - dpsi)) <= 1e-14


@pytest.mark.parametrize("name,space,d", gram_spaces())
def test_random_tangent_is_basis_combination(name, space, d, monkeypatch):
    # the moment draw's w combines the basis with the d normals drawn after xi
    rng = np.random.default_rng(89)
    f, xi, coeffs = spaces._draw(space, "moment", rng)
    m = space.field_flow(f, space.base, 1.0)
    ref_rng = np.random.default_rng(89)
    ref_m, basis = sample_with_basis(space, ref_rng)
    assert np.array_equal(m, ref_m) and len(basis) == d
    assert np.array_equal(xi, space.random_algebra_element(ref_rng))
    assert np.array_equal(coeffs, ref_rng.normal(size=len(basis)))
    assert ref_rng.bit_generator.state == rng.bit_generator.state  # the same draws
    ref = np.zeros_like(m)
    for c, b in zip(coeffs, basis):
        ref = ref + c * b
    # the w the stacked residual gets, from the basis built over the stack
    seen = []
    monkeypatch.setattr(spaces, "_moment_residuals", lambda sp, *args: seen.append(args))
    spaces._residuals(space, "moment", 1e-4, *spaces._stack_draws([(f, xi, coeffs)]))
    [(_, _, w)] = seen
    assert np.max(np.abs(w[:, 0] - ref)) < 1e-14


# ---------------------------------------------------------------------------
# axioms through the verifier

@pytest.mark.parametrize("name,space", builtin_spaces())
def test_moment_axiom(name, space):
    rep = verify_axiom(space, "moment", samples=15, seed=11)
    assert rep.passed and rep.max_residual < 1e-12


@pytest.mark.parametrize("name,space", builtin_spaces())
def test_cocycle_axiom(name, space):
    rep = verify_axiom(space, "cocycle", samples=8, fd_step=1e-4, seed=13)
    assert rep.passed, rep
    assert rep.max_residual < 1e-6


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
    m = space.sample(rng)
    basis = space.tangent_basis(m)
    assert len(basis) == 2
    worst = np.max(np.abs(omega_matrix(space, m, basis)))
    assert worst < 1e-12  # omega vanishes identically on this class
    rep = verify_axiom(space, "min_degeneracy", samples=10, seed=29)
    assert rep.passed


def test_tampered_omega_is_detected():
    class ScaledDouble(Double):
        def structure(self, m, stack):
            rec = super().structure(m, stack)
            return replace(rec, omega=2.0 * rec.omega)

    rep = verify_axiom(ScaledDouble(2), "cocycle", samples=5, seed=31)
    assert not rep.passed and rep.max_residual > 1e-3
    # every sample of the stack fails, as in the per-sample loop
    residuals = spaces._sample_residuals(ScaledDouble(2), "cocycle", 5, 1e-4,
                                         np.random.default_rng(31))
    assert np.all(residuals > 1e-3)
    assert np.max(np.abs(residuals - loop_residuals(ScaledDouble(2), "cocycle", 5, 31))) <= 1e-12


def orientation_spaces():
    """Spaces of dimension above two, where the 3-form term of the cocycle
    axiom is live; on an SU(2) class eta vanishes and the sign is invisible."""
    return [
        ConjugacyClass(3, GENERIC_XI3),
        ConjugacyClass(4, (Q(3, 8), Q(1, 8), Q(-1, 8), Q(-3, 8))),
        Double(2),
        Double(3),
        InternalFusion(Double(2)),
        Genus(2, 2),
        Genus(3, 2),
        Fusion(ConjugacyClass(2, (Q(1, 8), Q(-1, 8))), ConjugacyClass(2, (Q(1, 4), Q(-1, 4)))),
    ]


def test_flipped_three_form_orientation_fails_cocycle(monkeypatch):
    # residuals 4e-13 to 5e-10 as pinned, 1.5e-2 to 8.6e-2 flipped (tolerance 1e-4)
    for space in orientation_spaces():
        rep = verify_axiom(space, "cocycle", samples=3, seed=211)
        assert rep.passed and rep.max_residual < 1e-8
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
            return replace(rec, omega=2.0 * rec.omega)

    assert verify_axiom(ConjugacyClass(n, xi), "moment", samples=4, seed=227).passed
    rep = verify_axiom(Doubled(n, xi), "moment", samples=4, seed=227)
    assert not rep.passed and rep.max_residual > 1e-3


def squeezed(cls, *shrinks):
    """cls with its structure pulled back along the map that scales the
    leading tangent basis directions by shrinks (0 projects one out); the
    points may carry leading axes, as for every structure."""

    class Squeezed(cls):
        def structure(self, m, stack):
            basis = self._basis(m)
            out = stack
            for i, shrink in enumerate(shrinks):
                first = basis[..., i, :, :]
                c = sum(
                    np.real(np.einsum("...ij,...kij->...k", x.conj(), y))
                    for x, y in zip(first, stack)
                )[..., None, None]
                out = out - (1.0 - shrink) * c * spaces._lift(first)
            return super().structure(m, out)

    return Squeezed


def point_mismatch(space, m, basis):
    """The degeneracy mismatch at one point, evaluated as a stack of one;
    None where the sample is undecided."""
    out = spaces._degeneracy_mismatch(space, m[:, None],
                                      spaces._stack_tangents(m, basis)[:, None])[0]
    return None if np.isnan(out) else out


def fusions(n):
    """An internal fusion and a fusion product of two classes over SU(n)."""
    xi = (Q(1, 8), Q(-1, 8)) if n == 2 else GENERIC_XI3
    return [InternalFusion(Double(n)), Fusion(ConjugacyClass(n, xi), ConjugacyClass(n, xi))]


@pytest.mark.parametrize("n", [2, 3])
def test_dropped_fusion_correction_fails_moment(n, monkeypatch):
    points = []
    for space in fusions(n):
        assert verify_axiom(space, "moment", samples=4, seed=97).passed
        points.append(sample_with_basis(space, np.random.default_rng(101)))
    corrected = [omega_matrix(s, *p) for s, p in zip(fusions(n), points)]
    fuse = spaces._fuse
    monkeypatch.setattr(spaces, "_fuse", lambda omega, a, b: replace(fuse(omega, a, b), omega=omega))
    for space, point, good in zip(fusions(n), points, corrected):
        rep = verify_axiom(space, "moment", samples=4, seed=97)
        assert not rep.passed and rep.max_residual > 1e-3
        assert np.max(np.abs(omega_matrix(space, *point) - good)) > 1e-3


@pytest.mark.parametrize(
    "cls,args",
    [(ConjugacyClass, (3, GENERIC_XI3)), (Double, (3,)), (Genus, (2, 2))],
)
def test_projected_omega_fails_min_degeneracy(cls, args):
    assert verify_axiom(cls(*args), "min_degeneracy", samples=3, seed=103).passed
    rep = verify_axiom(squeezed(cls, 0.0)(*args), "min_degeneracy", samples=3, seed=103)
    assert not rep.passed and rep.max_residual == 2.0


def test_undecided_ranks_are_redrawn():
    # At the first draw |tr Psi| = 2.5e-6: omega has two relative singular
    # values of 8.6e-8 (kernel) while Ad_Psi + 1 has two of 1.25e-6 (no
    # kernel), so the two cutoffs disagree and gave a false FAIL of 2.0.
    space = Genus(2, 2)
    rng = np.random.default_rng(1976016887)
    m, basis = sample_with_basis(space, rng)
    assert point_mismatch(space, m, basis) is None
    rep = verify_axiom(space, "min_degeneracy", samples=3, seed=1976016887)
    assert rep.passed and rep.max_residual == 0.0


def test_band_value_with_agreeing_ranks_passes():
    # scaling one direction by 1e-6 puts a pair of relative singular values
    # of omega inside [RANK_CUTOFF, DECIDED_GAP); omega keeps full rank and
    # Ad_Psi + 1 has no kernel, so the ranks agree and the sample is decided
    space = squeezed(Double, 1e-6)(2)
    rng = np.random.default_rng(107)
    m, basis = sample_with_basis(space, rng)
    svals = np.linalg.svd(omega_matrix(space, m, basis), compute_uv=False)
    rel = svals / svals[0]
    assert np.any((rel >= spaces.RANK_CUTOFF) & (rel < spaces.DECIDED_GAP))
    assert point_mismatch(space, m, basis) == 0.0
    assert verify_axiom(space, "min_degeneracy", samples=3, seed=107).passed


def test_class_near_half_wall_passes_min_degeneracy():
    # xi = +-(1/4 + 1e-6): Ad_Psi + 1 has relative singular values of about
    # 6e-6 at every point of the class, yet it is invertible and the 2x2
    # omega has full rank
    space = ConjugacyClass(2, (Q(250001, 1000000), Q(-250001, 1000000)))
    rng = np.random.default_rng(109)
    m, basis = sample_with_basis(space, rng)
    psi = space._moment(m)[0]
    op = realified_operator(2, lambda x: psi @ x @ psi.conj().T + x)
    s = np.linalg.svd(op, compute_uv=False)
    rel = s / max(s[0], 1.0)
    assert np.any((rel >= spaces.RANK_CUTOFF) & (rel < spaces.DECIDED_GAP))
    assert point_mismatch(space, m, basis) == 0.0
    rep = verify_axiom(space, "min_degeneracy", samples=5, seed=109)
    assert rep.passed and rep.max_residual == 0.0


def test_persistently_undecided_sampling_is_an_input_error():
    # projecting one direction out gives omega a kernel that Ad_Psi + 1 does
    # not have, while scaling a second one by 1e-6 keeps a relative singular
    # value of omega inside [RANK_CUTOFF, DECIDED_GAP) at every draw
    space = squeezed(Double, 0.0, 1e-6)(2)
    rng = np.random.default_rng(107)
    m, basis = sample_with_basis(space, rng)
    svals = np.linalg.svd(omega_matrix(space, m, basis), compute_uv=False)
    rel = svals / svals[0]
    assert np.any((rel >= spaces.RANK_CUTOFF) & (rel < spaces.DECIDED_GAP))
    assert point_mismatch(space, m, basis) is None
    with pytest.raises(InputError) as err:
        verify_axiom(space, "min_degeneracy", samples=1, seed=107)
    assert err.value.code == "undecided-sample"


def test_verify_axiom_argument_validation():
    d = Double(2)
    with pytest.raises(InputError) as err:
        verify_axiom(d, "flatness")
    assert err.value.code == "unknown-axiom"
    with pytest.raises(InputError):
        verify_axiom(d, "moment", samples=0)
    with pytest.raises(InputError):
        verify_axiom(d, "cocycle", fd_step=0.5)
    with pytest.raises(InputError):
        verify_axiom(d, "cocycle", fd_step=1e-7)


def test_report_json():
    rep = verify_axiom(Double(2), "moment", samples=3, seed=1)
    data = rep.to_json()
    assert set(data) == {"axiom", "samples", "max_residual", "tolerance", "pass"}
    assert data["pass"] is True


def test_reports_are_seed_deterministic():
    space = InternalFusion(Double(2))
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
    """Fusion(Fusion(c1, c2), c3): three slots, one per class."""
    c1, c2 = ConjugacyClass(2, (Q(1, 8), Q(-1, 8))), ConjugacyClass(2, (Q(1, 4), Q(-1, 4)))
    return Fusion(Fusion(c1, c2), ConjugacyClass(2, (Q(3, 8), Q(-3, 8))))


def stack_spaces():
    pair = Fusion(ConjugacyClass(2, (Q(1, 8), Q(-1, 8))), ConjugacyClass(2, (Q(1, 4), Q(-1, 4))))
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
    tangents = [spaces._stack_tangents(m, basis) for m, basis in draws]
    rec = space.structure(stack(points), stack(tangents))
    assert rec.omega.shape == (3, space.dim, space.dim)
    for p, (m, t) in enumerate(zip(points, tangents)):
        one = space.structure(m, t)
        assert np.max(np.abs(rec.omega[p] - one.omega)) <= 1e-15
        for stacked, single in zip(rec.psi + rec.left + rec.right, one.psi + one.left + one.right):
            assert np.max(np.abs(stacked[p] - single)) <= 1e-15


@pytest.mark.parametrize("name,space", stack_spaces())
def test_action_moment_and_fields_over_points_match_single_points(name, space):
    rng = np.random.default_rng(149)
    points = [space.sample(rng) for _ in range(3)]
    gs = [random_group(space, rng) for _ in range(3)]
    datas = [space.random_field(rng) for _ in range(3)]
    times = rng.normal(size=3)
    m = stack(points)
    cases = [
        (space._act(stack(gs), m), [space._act(g, x) for g, x in zip(gs, points)]),
        (np.stack(space._moment(m)), [np.stack(space._moment(x)) for x in points]),
        (space.field_at(stack(datas), m), [space.field_at(d, x) for d, x in zip(datas, points)]),
        (space.field_flow(stack(datas), m, times),
         [space.field_flow(d, x, t) for d, x, t in zip(datas, points, times)]),
    ]
    for stacked, singles in cases:
        for p, single in enumerate(singles):
            assert np.max(np.abs(stacked[:, p] - single)) <= 1e-15


# The per-sample draws and residuals the stacked verifier replaced, kept as
# oracles.

def sample_with_basis(space, rng):
    """Draw a point and its tangent basis as a list."""
    m = space.sample(rng)
    return m, space.tangent_basis(m)


def random_tangent(m, basis, rng):
    """A combination of the basis with one normal coefficient each."""
    coeffs = rng.normal(size=len(basis))
    return np.array([np.tensordot(coeffs, x, axes=1) for x in spaces._stack_tangents(m, basis)])


def moment_residual(space, m, basis, rng):
    xi = space.random_algebra_element(rng)
    v = space._generating(xi, m)
    w = random_tangent(m, basis, rng)
    rec = _record(space, m, [v, w])
    rhs = 0.0
    for left, right, x in zip(rec.left, rec.right, xi):
        rhs += 0.5 * basic_inner(left[1] + right[1], x)
    return float(abs(rec.omega[0, 1] - rhs))


def orthonormalized(datas):
    """Three field data, orthonormalized in the flat round metric by one QR."""
    q, _ = np.linalg.qr(np.stack([spaces.realvec(d) for d in datas], axis=1))
    return [spaces.unrealvec(q[:, i], datas[0].shape[-1]) for i in range(3)]


def orthonormal_fields(space, rng):
    """Three random field data, orthonormalized."""
    return orthonormalized([space.random_field(rng) for _ in range(3)])


def cocycle_residual(space, m, rng, fd_step):
    f1, f2, f3 = orthonormal_fields(space, rng)

    def omega_of(da, db, point):
        pair = [space.field_at(da, point), space.field_at(db, point)]
        return omega_matrix(space, point, pair)[0, 1]

    def derivative(d, da, db):
        plus = space.field_flow(d, m, fd_step)
        minus = space.field_flow(d, m, -fd_step)
        return (omega_of(da, db, plus) - omega_of(da, db, minus)) / (2.0 * fd_step)

    d_omega = (
        derivative(f1, f2, f3)
        - derivative(f2, f1, f3)
        + derivative(f3, f1, f2)
        - omega_of(space.field_bracket(f1, f2), f3, m)
        + omega_of(space.field_bracket(f1, f3), f2, m)
        - omega_of(space.field_bracket(f2, f3), f1, m)
    )

    psis = space._moment(m)
    pulled = []  # per field, per factor: theta^L of the finite-difference dPsi
    for d in (f1, f2, f3):
        plus = space._moment(space.field_flow(d, m, fd_step))
        minus = space._moment(space.field_flow(d, m, -fd_step))
        row = []
        for psi, pp, pm in zip(psis, plus, minus):
            dpsi = (pp - pm) / (2.0 * fd_step)
            row.append(project_algebra(psi.conj().T @ dpsi))
        pulled.append(row)

    eta_total = 0.0
    for idx in range(len(psis)):
        eta_total += _three_form_pulled([pulled[0][idx], pulled[1][idx], pulled[2][idx]])
    return float(abs(d_omega - spaces.STRUCTURE_FORM_ORIENTATION * eta_total))


def equivariance_residual(space, m, rng):
    g = random_group(space, rng)
    moved = space._moment(space._act(g, m))
    ref = space._moment(m)
    resid = 0.0
    for gi, left, right in zip(g, moved, ref):
        resid = max(resid, float(np.max(np.abs(left - gi @ right @ gi.conj().T))))
    return resid


def degeneracy_residual(space, rng, retries=8):
    """The mismatch at the first drawn point whose ranks are decided; a point
    whose ranks disagree next to the cutoff is redrawn."""
    for _ in range(retries):
        m, basis = sample_with_basis(space, rng)
        r = point_mismatch(space, m, basis)
        if r is not None:
            return r
    raise InputError("undecided-sample", f"no decided sample in {retries} draws")


def loop_residuals(space, axiom, samples, seed, fd_step=1e-4):
    """The verifier's per-sample loop: one draw and one residual at a time."""
    rng = np.random.default_rng(seed)
    out = []
    for _ in range(samples):
        if axiom == "min_degeneracy":
            out.append(degeneracy_residual(space, rng))
            continue
        m, basis = sample_with_basis(space, rng)
        if axiom == "moment":
            out.append(moment_residual(space, m, basis, rng))
        elif axiom == "cocycle":
            out.append(cocycle_residual(space, m, rng, fd_step))
        else:
            out.append(equivariance_residual(space, m, rng))
    return np.array(out)


# Set from the arithmetic before measuring: the moment residual sums O(1)
# pairings in another order (a few ulps of 1), the cocycle divides such
# rounding by 2 fd_step = 2e-4, the equivariance residual repeats the same
# products matrix by matrix, and the degeneracy mismatch is an integer.
STACK_TOLERANCES = {"moment": 1e-15, "cocycle": 1e-12, "equivariance": 0.0,
                    "min_degeneracy": 0.0}


@pytest.mark.parametrize("axiom", ["moment", "cocycle", "equivariance", "min_degeneracy"])
@pytest.mark.parametrize("name,space", stack_spaces())
def test_stacked_residuals_match_per_sample_loop(name, space, axiom):
    for seed in (3, 29, 101):
        loop = loop_residuals(space, axiom, 5, seed)
        for samples in range(1, 6):
            rng = np.random.default_rng(seed)
            stacked = spaces._sample_residuals(space, axiom, samples, 1e-4, rng)
            assert stacked.shape == (samples,)
            assert np.max(np.abs(stacked - loop[:samples])) <= STACK_TOLERANCES[axiom]
        rep = verify_axiom(space, axiom, samples=5, seed=seed)
        assert rep.max_residual == np.max(spaces._sample_residuals(
            space, axiom, 5, 1e-4, np.random.default_rng(seed)))


# The loop oracle's own draws, made from draws of the verifier's: its w, its
# orthonormal fields and its g.
LOOP_ONLY = ("random_tangent", "orthonormal_fields", "random_group")


def spy_draws(space, monkeypatch):
    """Log every draw, in order: field data (a point's field first, then a
    cocycle's three), algebra elements (xi or the exponent of g), the loop
    oracle's points and its own draws; and the stacked arguments the
    residuals get."""
    log, stacked = [], []

    def spied(kind, fn):
        def spy(*args, **kwargs):
            out = fn(*args, **kwargs)
            log.append((kind, out))
            return out
        return spy

    monkeypatch.setattr(space, "sample", spied("point", space.sample))
    for kind in ("random_algebra_element", "random_field"):
        monkeypatch.setattr(space, kind, spied(kind, getattr(space, kind)))
    for kind in LOOP_ONLY:
        monkeypatch.setitem(globals(), kind, spied(kind, globals()[kind]))
    for name in ("_moment_residuals", "_cocycle_residuals", "_equivariance_residuals"):
        real = getattr(spaces, name)
        monkeypatch.setattr(spaces, name,
                            lambda sp, *args, _real=real: stacked.append(args) or _real(sp, *args))
    return log, stacked


@pytest.mark.parametrize("axiom", ["moment", "cocycle", "equivariance"])
def test_verify_axiom_draws_what_the_loop_draws(axiom, monkeypatch):
    for space in (ConjugacyClass(3, GENERIC_XI3), InternalFusion(Double(2)), Genus(2, 2)):
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
            expected = (drawn_as("point"), drawn_as("random_algebra_element"),
                        drawn_as("random_tangent"))
        elif axiom == "cocycle":
            expected = (drawn_as("point"), drawn_as("orthonormal_fields", stack), 1e-4)
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
    for space in (c, Double(n), Genus(n, 2), Fusion(Fusion(c, c), c)):
        points = [space.sample(rng) for _ in range(4)]
        bases = space._basis(stack(points))
        assert all(np.array_equal(bases[:, p], space._basis(m)) for p, m in enumerate(points))
        datas = [[space.random_field(rng) for _ in range(3)] for _ in range(4)]
        fields = spaces._orthonormal_fields(stack([stack(d) for d in datas]))
        assert all(np.array_equal(fields[:, p], stack(orthonormalized(d)))
                   for p, d in enumerate(datas))


def contract_spaces(n):
    return [ConjugacyClass(n, generic_xi(n)), Double(n), InternalFusion(Double(n)), Genus(n, 1),
            Genus(n, 3), Fusion(ConjugacyClass(n, generic_xi(n)), InternalFusion(Double(n)))]


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


class Raising:
    def __getattr__(self, name):
        raise AssertionError(f"numpy.linalg.{name} called in a draw")


def raising_expm(x):
    raise AssertionError("expm_skew called in a draw")


@pytest.mark.parametrize("n", [2, 3, 4, 5])
def test_draws_keep_the_seed_contract(n, monkeypatch):
    # a point is the time-one flow of a field from the base point, and the
    # same seed gives the same samples as the draws by parts, sign bits
    # included; the loop oracle's space.sample therefore checks the verifier
    # against the points of the earlier rule
    for space in contract_spaces(n):
        for seed in range(6):
            for kind, draw in (("point", space.sample), ("field", space.random_field)):
                assert same_bits(draw(np.random.default_rng(seed)),
                                 draw_by_parts(space, np.random.default_rng(seed), kind))
            f = spaces._draw(space, "min_degeneracy", np.random.default_rng(seed))[0]
            assert same_bits(space.field_flow(f, space.base, 1.0),
                             draw_by_parts(space, np.random.default_rng(seed), "point"))
    # the draw loop calls the generator and no matrix function
    monkeypatch.setattr(spaces, "expm_skew", raising_expm)
    monkeypatch.setattr(np, "linalg", Raising())
    for space in contract_spaces(n):
        with pytest.raises(AssertionError):  # the patches bite: a point is matrix work
            space.sample(np.random.default_rng(n))
        for axiom in spaces.AXIOMS:
            spaces._draw(space, axiom, np.random.default_rng(n))


class Scripted(Genus):
    """genus(2, 2) whose k-th point field drawn from seed 5 is kept ("ok") or
    is replaced by the first field of seed 1976016887, which flows to a point
    whose ranks are undecided ("undecided"), as script[k] says."""

    def __init__(self, script):
        super().__init__(2, 2)
        rng = np.random.default_rng(5)
        self.stream = [Genus.random_field(self, rng)[0] for _ in script]
        self.script = script
        self.undecided = Genus.random_field(self, np.random.default_rng(1976016887))

    def random_field(self, rng):
        f = super().random_field(rng)
        kind = next((k for x, k in zip(self.stream, self.script) if np.array_equal(x, f[0])), "ok")
        return self.undecided if kind == "undecided" else f


def second_draw_redrawn(reason):
    """genus(2, 2) where the loop redraws the second point drawn from seed 5,
    replaced by a point whose ranks are undecided (with no reason, plain
    genus(2, 2))."""
    return Scripted(["ok", reason] if reason else [])


@pytest.mark.parametrize("reason", ["undecided"])
def test_mid_stack_redraw_restores_the_loop_draws(reason, monkeypatch):
    space = second_draw_redrawn(reason)
    drawn, evaluated = [], []
    field, mismatch = space.random_field, spaces._degeneracy_mismatch

    def spied_field(rng):
        drawn.append(field(rng))
        return drawn[-1]

    def spied_mismatch(sp, m, tangents):
        out = mismatch(sp, m, tangents)
        evaluated.append((m, out.copy()))
        return out

    monkeypatch.setattr(space, "random_field", spied_field)
    monkeypatch.setattr(spaces, "_degeneracy_mismatch", spied_mismatch)
    stacked = spaces._sample_residuals(space, "min_degeneracy", 3, 1e-4, np.random.default_rng(5))
    stacked_drawn, stacked_evaluated = drawn[:], evaluated[:]
    drawn.clear()
    loop = loop_residuals(space, "min_degeneracy", 3, 5)
    assert np.array_equal(stacked, loop) and len(drawn) == 4
    # the stack of the first three draws, the second undecided; then, from
    # the state right after the second draw, the last two samples as the
    # loop draws them, so the third draw is made twice
    assert len(stacked_drawn) == 4 + 1
    assert all(np.array_equal(a, b) for a, b in zip(stacked_drawn, drawn[:3] + drawn[2:]))
    (points, first), (rest, second) = stacked_evaluated
    flows = [space.field_flow(f, space.base, 1.0) for f in drawn]
    assert np.array_equal(points, stack(flows[:3])) and first[0] == loop[0] and np.isnan(first[1])
    assert np.array_equal(rest, stack(flows[2:])) and np.array_equal(second, loop[1:])


@pytest.mark.parametrize("reason", ["undecided", None])
@pytest.mark.parametrize("step", [1, 2, 3])
def test_degeneracy_stacks_hold_at_most_stack_rows(reason, step, monkeypatch):
    space = second_draw_redrawn(reason)
    monkeypatch.setattr(spaces, "STACK_ROWS", step * space.dim)
    sizes, drawn, mismatch, field = [], [], spaces._degeneracy_mismatch, space.random_field
    monkeypatch.setattr(spaces, "_degeneracy_mismatch",
                        lambda sp, m, tangents: sizes.append(m.shape[1]) or mismatch(sp, m, tangents))
    monkeypatch.setattr(space, "random_field", lambda rng: drawn.append(rng) or field(rng))
    stacked = spaces._sample_residuals(space, "min_degeneracy", 5, 1e-4, np.random.default_rng(5))
    assert max(sizes) == step
    stacked_draws = len(drawn)
    drawn.clear()
    assert np.array_equal(stacked, loop_residuals(space, "min_degeneracy", 5, 5))
    # the loop's draws, and those after the undecided second sample in its
    # stack, which are discarded and drawn again
    assert stacked_draws == len(drawn) + (step - 2 if reason == "undecided" and step > 2 else 0)


@pytest.mark.parametrize("step", [1, 2, 3])
@pytest.mark.parametrize("axiom", ["moment", "cocycle", "equivariance"])
@pytest.mark.parametrize("name,space", stack_spaces())
def test_every_axiom_stack_holds_at_most_stack_rows(name, space, axiom, step, monkeypatch):
    # stacks of at most STACK_ROWS // dim samples, each giving the residuals
    # of its draws one at a time bit for bit, and all of them the residuals
    # of one stack over every sample
    samples, seed = 7, 41
    whole = spaces._sample_residuals(space, axiom, samples, 1e-4, np.random.default_rng(seed))
    monkeypatch.setattr(spaces, "STACK_ROWS", step * space.dim)
    draws, stacks, residuals, draw = [], [], spaces._residuals, spaces._draw
    monkeypatch.setattr(spaces, "_draw", lambda sp, ax, rng: draws.append(draw(sp, ax, rng))
                        or draws[-1])

    def spied(sp, ax, fd_step, *drawn):
        stacks.append((len(draws), residuals(sp, ax, fd_step, *drawn)))
        return stacks[-1][1]

    monkeypatch.setattr(spaces, "_residuals", spied)
    stacked = spaces._sample_residuals(space, axiom, samples, 1e-4, np.random.default_rng(seed))
    assert [len(part) for _, part in stacks] == [step] * (samples // step) + (
        [samples % step] if samples % step else [])
    assert len(draws) == samples and np.array_equal(stacked, whole)
    for end, part in stacks:
        one_by_one = [residuals(space, axiom, 1e-4, *spaces._stack_draws([d]))[0]
                      for d in draws[end - len(part):end]]
        assert np.array_equal(part, one_by_one)


def test_undecided_samples_are_counted_per_sample():
    retries = spaces.RETRIES

    def residuals(script, samples):
        stacked = spaces._sample_residuals(Scripted(script), "min_degeneracy", samples, 1e-4,
                                           np.random.default_rng(5))
        assert np.array_equal(stacked, loop_residuals(Scripted(script), "min_degeneracy",
                                                      samples, 5))
        return stacked

    # every accepted sample starts a fresh undecided count
    assert np.all(residuals((["undecided"] * (retries - 1) + ["ok"]) * 2, 2) == 0.0)
    for script in (["undecided"] * retries, ["ok"] + ["undecided"] * retries):
        with pytest.raises(InputError) as err:
            residuals(script, 2)
        assert err.value.code == "undecided-sample"


# The class potential's singular-value cutoff: numpy's pinv defaults sit on
# the centralizer's zero singular values (5e-16 to 1.5e-15).

def test_class_potential_cutoff_keeps_seed_875134980_passing():
    # a stacked solve with numpy's pinv cutoffs failed this op, residual 0.25
    rep = verify_axiom(ConjugacyClass(2, (Q(1, 8), Q(-1, 8))), "cocycle", samples=2,
                       seed=875134980)
    assert rep.passed and rep.max_residual < 1e-9


NEAR_DEGENERATE_XI3 = (Q(250001, 1000000), Q(249999, 1000000), Q(-1, 2))


@pytest.mark.parametrize("axiom,bound", [("moment", 1e-10), ("cocycle", 1e-10),
                                         ("min_degeneracy", 0.0)])
def test_near_degenerate_class_passes(axiom, bound):
    # eigenphases 2e-6 apart: |e^{2 pi i 2e-6} - 1| = 1.3e-5 is a kept
    # singular value; a solve through an explicit pseudo-inverse put the
    # cocycle residual at 3.7e-10 where the per-point lstsq gave 1.8e-11
    rep = verify_axiom(ConjugacyClass(3, NEAR_DEGENERATE_XI3), axiom, samples=20, seed=3)
    assert rep.passed and rep.max_residual <= bound


@pytest.mark.parametrize("n,xi", [(2, (Q(1, 8), Q(-1, 8))), (3, GENERIC_XI3),
                                  (4, (Q(3, 8), Q(1, 8), Q(-1, 8), Q(-3, 8)))])
def test_stacked_potential_matches_lstsq_per_point(n, xi):
    space = ConjugacyClass(n, xi)
    rng = np.random.default_rng(151)
    draws = [sample_with_basis(space, rng) for _ in range(3)]
    potentials = space._potential(np.stack([m[0] for m, _ in draws]),
                                  np.stack([spaces._stack_tangents(m, b)[0] for m, b in draws]))
    for p, (m, basis) in enumerate(draws):
        for i, v in enumerate(basis):
            assert np.max(np.abs(potentials[p, i] - ref_potential(space, m[0], v[0]))) < 1e-13


# ---------------------------------------------------------------------------
# fusion structure

def test_fusion_moment_associativity():
    # (a * c) * b and a * (c * b), with a class c between two fused doubles,
    # give the same record on the same tangents (both groupings have the
    # slots of a, c and b in a row): form, moment and both logarithmic
    # derivatives
    rng = np.random.default_rng(37)
    a, b = InternalFusion(Double(2)), InternalFusion(Double(2))
    c = ConjugacyClass(2, (Q(1, 8), Q(-1, 8)))
    left, right = Fusion(Fusion(a, c), b), Fusion(a, Fusion(c, b))

    m = left.sample(rng)
    basis = left.tangent_basis(m)
    rec_left = _record(left, m, basis)
    rec_right = _record(right, m, basis)
    assert np.max(np.abs(rec_left.omega - rec_right.omega)) < 1e-12
    for x, y in zip(rec_left.psi + rec_left.left + rec_left.right,
                    rec_right.psi + rec_right.left + rec_right.right):
        assert np.max(np.abs(x - y)) < 1e-12


def test_fusion_of_classes_is_quasi_hamiltonian():
    c1 = ConjugacyClass(2, (Q(1, 8), Q(-1, 8)))
    c2 = ConjugacyClass(2, (Q(1, 4), Q(-1, 4)))
    fused = Fusion(c1, c2)
    assert fused.dim == c1.dim + c2.dim
    for axiom in ("moment", "cocycle", "equivariance", "min_degeneracy"):
        rep = verify_axiom(fused, axiom, samples=6, seed=41)
        assert rep.passed, (axiom, rep)


def test_marked_genus_shape_is_quasi_hamiltonian():
    # one handle fused with a marking class, the moduli-space building block
    space = Fusion(InternalFusion(Double(2)), ConjugacyClass(2, (Q(1, 8), Q(-1, 8))))
    assert space.dim == 6 + 2
    for axiom in ("moment", "cocycle", "min_degeneracy", "equivariance"):
        rep = verify_axiom(space, axiom, samples=5, seed=67)
        assert rep.passed, (axiom, rep)
    rng = np.random.default_rng(71)
    m = space.sample(rng)
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
    m = g.sample(rng)
    assert len(m) == 6 and all(p.shape == (2, 2) for p in m)
    assert all(len(t) == 6 for t in g.tangent_basis(m)) and len(g.tangent_basis(m)) == g.dim
    psi = g._moment(m)[0]
    expected = np.eye(2, dtype=complex)
    for i in range(0, 6, 2):
        a, b = m[i], m[i + 1]
        expected = expected @ a @ b @ a.conj().T @ b.conj().T
    assert np.max(np.abs(psi - expected)) < 1e-12


@pytest.mark.parametrize("name,space", stack_spaces())
def test_point_and_basis_shapes(name, space):
    # one slot per class, two per double; a point, a field and the base are
    # (k, n, n), a basis (k, d, n, n), and a stack of points puts its axis
    # after the slot axis
    k = {"class2": 1, "class3": 1, "double2": 2, "fused2": 2, "genus22": 4, "fusion": 2,
         "nested_fusion": 3}[name]
    n = space.n
    rng = np.random.default_rng(29)
    m = space.sample(rng)
    assert m.shape == space.base.shape == space.random_field(rng).shape == (k, n, n)
    assert space._basis(m).shape == (k, space.dim, n, n)
    assert space._basis(stack([m, m])).shape == (k, 2, space.dim, n, n)


@pytest.mark.parametrize("n,h", [(2, 1), (2, 3), (3, 2)])
def test_genus_matches_explicit_fusion_chain(n, h):
    # the flat genus space agrees bit for bit with the nested fusion chain and
    # with Fused([Double(n)] * h), which runs the group-slot methods once per
    # double instead of once over all 2h slots: record, moment, basis,
    # action, fields, draws and flows at the same point
    space = Genus(n, h)
    rng = np.random.default_rng(113)
    m = space.sample(rng)
    basis = space.tangent_basis(m)
    g = random_special_unitary(n, rng)
    xi = random_algebra(n, rng)
    data = space.random_field(np.random.default_rng(5))
    flip = data[::-1]
    for other in (genus_chain(n, h), Fused([Double(n)] * h)):
        assert other.dim == space.dim
        assert np.array_equal(np.stack(basis), np.stack(other.tangent_basis(m)))
        rec = _record(space, m, basis)
        ref = _record(other, m, basis)
        assert np.array_equal(rec.omega, ref.omega)
        for x, y in zip(rec.psi + rec.left + rec.right, ref.psi + ref.left + ref.right):
            assert np.array_equal(x, y)
        assert np.array_equal(space._moment(m)[0], other._moment(m)[0])
        assert np.array_equal(data, other.random_field(np.random.default_rng(5)))
        assert np.array_equal(space.sample(np.random.default_rng(7)),
                              other.sample(np.random.default_rng(7)))
        pairs = [
            (space._act(g[None], m), other._act(g[None], m)),
            (space._act(g[None], basis[-1]), other._act(g[None], basis[-1])),
            (space._generating(xi[None], m), other._generating(xi[None], m)),
            (space.field_at(data, m), other.field_at(data, m)),
            (space.field_flow(data, m, 0.3), other.field_flow(data, m, 0.3)),
            (space.field_bracket(data, flip), other.field_bracket(data, flip)),
        ]
        for flat, nested in pairs:
            assert np.array_equal(flat, nested)


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


def test_sphere4_action_shape():
    rng = np.random.default_rng(61)
    g = random_special_unitary(2, rng)
    z, t = sphere4_act(g, np.array([0.6 + 0j, 0.0]), 0.8)
    assert abs(np.vdot(z, z).real + t * t - 1.0) < 1e-12
