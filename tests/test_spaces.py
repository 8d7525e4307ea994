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
    Fusion,
    Genus,
    InternalFusion,
    _random_tangent,
    _record,
    _sample_with_basis,
    make_space,
    omega_matrix,
    reduction_rank,
    sphere4_act,
    sphere4_equivariance_residual,
    sphere4_moment,
    tree_leaves,
    tree_map,
    verify_axiom,
)
from quasiham.sun import (
    _three_form_pulled,
    algebra_coords,
    algebra_from_coords,
    basic_inner,
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


def tree_max(t):
    return max(np.max(np.abs(leaf)) for leaf in tree_leaves(t))


def zero_tangent(m):
    return tree_map(np.zeros_like, m)


def tree_add(a, b, c=1.0):
    return tree_map(lambda x, y: x + c * y, a, b)


def pair_omega(space, m, v, w):
    """omega(v, w), read from the record of the stack [v, w]."""
    return omega_matrix(space, m, [v, w])[0, 1]


def genus_chain(n, h):
    """Genus(n, h) written out as nested fusions, and the map from its flat
    2h-tuples to the chain's nested points."""
    chain = InternalFusion(Double(n))
    for _ in range(h - 1):
        chain = Fusion(chain, InternalFusion(Double(n)))

    def nest(flat):
        if len(flat) == 2:
            return (flat[0], flat[1])
        return (nest(flat[:-2]), (flat[-2], flat[-1]))

    return chain, nest


# ---------------------------------------------------------------------------
# reference formulas: the 2-form and dPsi one pair of tangents at a time,
# written independently of the structure records

def ref_dmoment(space, m, v):
    if isinstance(space, ConjugacyClass):
        return (v,)
    if isinstance(space, Double):
        (a, b), (va, vb) = m, v
        ainv, binv = a.conj().T, b.conj().T
        return (va @ b + a @ vb, -ainv @ va @ ainv @ binv - ainv @ binv @ vb @ binv)
    if isinstance(space, InternalFusion):
        p1, p2 = space.inner._moment(m)
        d1, d2 = ref_dmoment(space.inner, m, v)
        return (d1 @ p2 + p1 @ d2,)
    if isinstance(space, Fusion):
        p1, p2 = space.s1._moment(m[0])[0], space.s2._moment(m[1])[0]
        d1, d2 = ref_dmoment(space.s1, m[0], v[0])[0], ref_dmoment(space.s2, m[1], v[1])[0]
        return (d1 @ p2 + p1 @ d2,)
    chain, nest = genus_chain(space.n, space.h)
    return ref_dmoment(chain, nest(m), nest(v))


def ref_potential(space, m, v):
    minv = m.conj().T
    op = realified_operator(space.n, lambda x: minv @ x @ m - x)
    sol, *_ = np.linalg.lstsq(op, algebra_coords(project_algebra(minv @ v)), rcond=None)
    return algebra_from_coords(space.n, sol)


def ref_fusion_correction(l1v, r2v, l1w, r2w):
    return 0.5 * (basic_inner(l1v, r2w) - basic_inner(l1w, r2v))


def ref_omega(space, m, v, w):
    if isinstance(space, ConjugacyClass):
        xi, zeta = ref_potential(space, m, v), ref_potential(space, m, w)
        minv = m.conj().T
        return 0.5 * basic_inner(m @ xi @ minv - minv @ xi @ m, zeta)
    if isinstance(space, Double):
        a, b = m
        ainv, binv = a.conj().T, b.conj().T

        def pairings(p, q):
            return basic_inner(ainv @ p[0], q[1] @ binv) + basic_inner(p[0] @ ainv, binv @ q[1])

        return 0.5 * (pairings(v, w) - pairings(w, v))
    if isinstance(space, InternalFusion):
        p1, p2 = space.inner._moment(m)
        (d1v, d2v), (d1w, d2w) = ref_dmoment(space.inner, m, v), ref_dmoment(space.inner, m, w)
        return ref_omega(space.inner, m, v, w) + ref_fusion_correction(
            p1.conj().T @ d1v, d2v @ p2.conj().T, p1.conj().T @ d1w, d2w @ p2.conj().T)
    if isinstance(space, Fusion):
        p1, p2 = space.s1._moment(m[0])[0], space.s2._moment(m[1])[0]
        d1v, d1w = (ref_dmoment(space.s1, m[0], t[0])[0] for t in (v, w))
        d2v, d2w = (ref_dmoment(space.s2, m[1], t[1])[0] for t in (v, w))
        return (ref_omega(space.s1, m[0], v[0], w[0]) + ref_omega(space.s2, m[1], v[1], w[1])
                + ref_fusion_correction(p1.conj().T @ d1v, d2v @ p2.conj().T,
                                        p1.conj().T @ d1w, d2w @ p2.conj().T))
    chain, nest = genus_chain(space.n, space.h)
    return ref_omega(chain, nest(m), nest(v), nest(w))


def fd_reduction_rank(space, m, fd_step=1e-5):
    """Rank of the moment differential by central differences along the
    tangent basis, each slot p moved to exp(t v p^-1) p."""
    def move(t, v):
        return tuple(scipy.linalg.expm(t * x @ p.conj().T) @ p for p, x in zip(m, v))

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
    om = omega_matrix(space, m, [v, w, u, tree_add(v, u, 0.7)])
    assert om[0, 1] == pytest.approx(-om[1, 0], abs=1e-10)
    assert om[3, 1] == pytest.approx(om[0, 1] + 0.7 * om[2, 1], abs=1e-10)


def sum_basis(space, m, basis, rng):
    out = zero_tangent(m)
    for c, b in zip(rng.normal(size=len(basis)), basis):
        out = tree_add(out, b, c)
    return out


@pytest.mark.parametrize("name,space", builtin_spaces())
def test_omega_invariant_under_action(name, space):
    rng = np.random.default_rng(2)
    for _ in range(5):
        m = space.sample(rng)
        basis = space.tangent_basis(m)
        v = sum_basis(space, m, basis, rng)
        w = sum_basis(space, m, basis, rng)
        g = space.random_group(rng)
        moved = space.act(g, m)
        lhs = pair_omega(space, moved, space.act(g, v), space.act(g, w))
        assert lhs == pytest.approx(pair_omega(space, m, v, w), abs=1e-9)


def test_double_omega_at_identity():
    d = Double(2)
    rng = np.random.default_rng(3)
    e = np.eye(2, dtype=complex)
    x1, y1, x2, y2 = (random_algebra(2, rng) for _ in range(4))
    lhs = pair_omega(d, (e, e), (x1, y1), (x2, y2))
    assert lhs == pytest.approx(basic_inner(x1, y2) - basic_inner(x2, y1), abs=1e-14)


def test_central_class_omega_vanishes():
    c = ConjugacyClass(2, (Q(1, 2), Q(-1, 2)))  # class of -identity, a point
    m = c.base
    xi = random_algebra(2, np.random.default_rng(4))
    assert tree_max(c.generating_field(xi, m)) < 1e-14
    z = zero_tangent(m)
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
    assert np.max(np.abs(f.moment((a, b)) - np.eye(2))) < 1e-12


def test_double_moment_values():
    d = Double(2)
    rng = np.random.default_rng(5)
    a, b = d.sample(rng)
    p1, p2 = d.moment((a, b))
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
        m, basis = _sample_with_basis(space, rng)
        assert len(basis) == d
        batched = omega_matrix(space, m, basis)
        assert batched.shape == (d, d)
        assert np.array_equal(batched, -batched.T)
        assert np.max(np.abs(batched - pairwise_omega_matrix(space, m, basis)), initial=0.0) <= 1e-15


@pytest.mark.parametrize("name,space,d", gram_spaces())
def test_record_matches_reference_moment_derivative(name, space, d):
    rng = np.random.default_rng(79)
    m, basis = _sample_with_basis(space, rng)
    tangents = basis[:3] + [_random_tangent(space, m, basis, rng)]
    rec = _record(space, m, tangents)
    assert rec.omega.shape == (len(tangents), len(tangents))
    for psi, ref in zip(rec.psi, space._moment(m)):
        assert np.max(np.abs(psi - ref)) <= 1e-15
    for i, t in enumerate(tangents):
        for psi, left, right, dpsi in zip(rec.psi, rec.left, rec.right, ref_dmoment(space, m, t)):
            assert np.max(np.abs(psi @ left[i] - dpsi)) <= 1e-14
            assert np.max(np.abs(right[i] @ psi - dpsi)) <= 1e-14


@pytest.mark.parametrize("name,space,d", gram_spaces())
def test_random_tangent_is_basis_combination(name, space, d):
    rng = np.random.default_rng(89)
    m, basis = _sample_with_basis(space, rng)
    state = rng.bit_generator.state
    v = _random_tangent(space, m, basis, rng)
    after = rng.bit_generator.state
    rng.bit_generator.state = state
    ref = zero_tangent(m)
    for c, b in zip(rng.normal(size=len(basis)), basis):
        ref = tree_add(ref, b, c)
    assert rng.bit_generator.state == after  # the same single draw
    assert tree_max(tree_add(v, ref, -1.0)) < 1e-14


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
            basis, _ = self._basis(m)
            out = stack
            for i, shrink in enumerate(shrinks):
                first = tree_map(lambda x: x[..., i, :, :], basis)
                c = sum(
                    np.real(np.einsum("...ij,...kij->...k", x.conj(), y))
                    for x, y in zip(tree_leaves(first), tree_leaves(stack))
                )[..., None, None]
                out = tree_map(lambda x, y: y - (1.0 - shrink) * c * spaces._lift(x), first, out)
            return super().structure(m, out)

    return Squeezed


def point_mismatch(space, m, basis):
    """The degeneracy mismatch at one point, evaluated as a stack of one;
    None where the sample is undecided."""
    one = tree_map(lambda x: x[None], (m, spaces._stack_tangents(m, basis)))
    out = spaces._degeneracy_mismatch(space, *one)[0]
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
        points.append(_sample_with_basis(space, np.random.default_rng(101)))
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
    m, basis = _sample_with_basis(space, rng)
    assert point_mismatch(space, m, basis) is None
    rep = verify_axiom(space, "min_degeneracy", samples=3, seed=1976016887)
    assert rep.passed and rep.max_residual == 0.0


def test_band_value_with_agreeing_ranks_passes():
    # scaling one direction by 1e-6 puts a pair of relative singular values
    # of omega inside [RANK_CUTOFF, DECIDED_GAP); omega keeps full rank and
    # Ad_Psi + 1 has no kernel, so the ranks agree and the sample is decided
    space = squeezed(Double, 1e-6)(2)
    rng = np.random.default_rng(107)
    m, basis = _sample_with_basis(space, rng)
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
    m, basis = _sample_with_basis(space, rng)
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
    m, basis = _sample_with_basis(space, rng)
    svals = np.linalg.svd(omega_matrix(space, m, basis), compute_uv=False)
    rel = svals / svals[0]
    assert np.any((rel >= spaces.RANK_CUTOFF) & (rel < spaces.DECIDED_GAP))
    assert point_mismatch(space, m, basis) is None
    with pytest.raises(InputError) as err:
        verify_axiom(space, "min_degeneracy", samples=1, seed=107)
    assert err.value.code == "undecided-sample"


def test_degenerate_basis_triggers_resampling():
    class FlakyDouble(Double):
        def __init__(self, n, failures):
            super().__init__(n)
            self.remaining = failures

        def tangent_basis(self, m):
            if self.remaining > 0:
                self.remaining -= 1
                raise InputError("degenerate-basis", "synthetic conditioning failure")
            return super().tangent_basis(m)

    rep = verify_axiom(FlakyDouble(2, failures=3), "moment", samples=2, seed=3)
    assert rep.passed
    with pytest.raises(InputError) as err:
        verify_axiom(FlakyDouble(2, failures=10**6), "moment", samples=1, seed=3)
    assert err.value.code == "degenerate-basis"


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

def stack_spaces():
    pair = Fusion(ConjugacyClass(2, (Q(1, 8), Q(-1, 8))), ConjugacyClass(2, (Q(1, 4), Q(-1, 4))))
    return builtin_spaces() + [("fusion", pair)]


def stack(trees):
    """Trees of the same shape as one tree whose leaves carry a leading axis."""
    return tree_map(lambda *leaves: np.stack(leaves), *trees)


def at(tree, p):
    return tree_map(lambda x: x[p], tree)


@pytest.mark.parametrize("name,space", stack_spaces())
def test_record_over_points_matches_single_points(name, space):
    rng = np.random.default_rng(139)
    draws = [_sample_with_basis(space, rng) for _ in range(3)]
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
    gs = [space._as_group(space.random_group(rng)) for _ in range(3)]
    datas = [space.random_field(rng) for _ in range(3)]
    times = rng.normal(size=3)
    m = stack(points)
    cases = [
        (space._act(stack(gs), m), [space._act(g, x) for g, x in zip(gs, points)]),
        (space._moment(m), [space._moment(x) for x in points]),
        (space.field_at(stack(datas), m), [space.field_at(d, x) for d, x in zip(datas, points)]),
        (space.field_flow(stack(datas), m, times),
         [space.field_flow(d, x, t) for d, x, t in zip(datas, points, times)]),
    ]
    for stacked, singles in cases:
        for p, single in enumerate(singles):
            assert tree_max(tree_add(at(stacked, p), single, -1.0)) <= 1e-15


# The per-sample residuals the stacked verifier replaced, kept as oracles.

def moment_residual(space, m, basis, rng):
    xi = space._as_algebra(space.random_algebra_element(rng))
    v = space._generating(xi, m)
    w = spaces._random_tangent(space, m, basis, rng)
    rec = _record(space, m, [v, w])
    rhs = 0.0
    for left, right, x in zip(rec.left, rec.right, xi):
        rhs += 0.5 * basic_inner(left[1] + right[1], x)
    return float(abs(rec.omega[0, 1] - rhs))


def cocycle_residual(space, m, rng, fd_step):
    f1, f2, f3 = spaces._orthonormal_fields(space, rng)

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
    g = space._as_group(space.random_group(rng))
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
        m, basis = spaces._sample_with_basis(space, rng)
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
        m, basis = spaces._sample_with_basis(space, rng)
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


class EveryThirdBasisFails(InternalFusion):
    """A fused double whose every third tangent basis is refused, so that the
    verifier redraws points."""

    def __init__(self, n):
        super().__init__(Double(n))
        self.calls = 0

    def tangent_basis(self, m):
        self.calls += 1
        if self.calls % 3 == 0:
            raise InputError("degenerate-basis", "synthetic conditioning failure")
        return super().tangent_basis(m)


def spy_draws(space, monkeypatch):
    """Log every draw, in order: points (accepted or redrawn), accepted
    points, fields, xi, w and g; and the stacked draws the residuals get."""
    log, stacked = [], []

    def spied(kind, fn):
        def spy(*args, **kwargs):
            out = fn(*args, **kwargs)
            log.append((kind, out))
            return out
        return spy

    monkeypatch.setattr(space, "sample", spied("point", space.sample))
    for kind in ("random_algebra_element", "random_group"):
        monkeypatch.setattr(space, kind, spied(kind, getattr(space, kind)))
    for kind in ("_sample_with_basis", "_orthonormal_fields", "_random_tangent"):
        monkeypatch.setattr(spaces, kind, spied(kind, getattr(spaces, kind)))
    for name in ("_moment_residuals", "_cocycle_residuals", "_equivariance_residuals"):
        real = getattr(spaces, name)
        monkeypatch.setattr(spaces, name,
                            lambda sp, *args, _real=real: stacked.append(args) or _real(sp, *args))
    return log, stacked


@pytest.mark.parametrize("axiom", ["moment", "cocycle", "equivariance"])
def test_verify_axiom_draws_what_the_loop_draws(axiom, monkeypatch):
    space = EveryThirdBasisFails(2)
    log, stacked = spy_draws(space, monkeypatch)
    verify_axiom(space, axiom, samples=4, seed=157)
    drawn, log[:] = list(log), []
    space.calls = 0
    loop_residuals(space, axiom, 4, 157)
    assert [k for k, _ in drawn] == [k for k, _ in log]
    assert sum(k == "point" for k, _ in log) > 4  # some points were redrawn
    assert all(same_tree(a, b) for (_, a), (_, b) in zip(drawn, log))

    def drawn_as(kind, as_tree=lambda x: x):
        return stack([as_tree(out) for k, out in log if k == kind])

    accepted = drawn_as("_sample_with_basis", lambda out: out[0])
    if axiom == "moment":
        expected = (accepted, drawn_as("random_algebra_element", space._as_algebra),
                    drawn_as("_random_tangent"))
    elif axiom == "cocycle":
        expected = (accepted, drawn_as("_orthonormal_fields", tuple), 1e-4)
    else:
        expected = (accepted, drawn_as("random_group", space._as_group))
    assert len(stacked) == 1 and same_tree(stacked[0], expected)


class SecondDrawRedrawn(Genus):
    """genus(2, 2) where the loop redraws the second point drawn from seed 5:
    either that draw is replaced by the first draw of seed 1976016887, whose
    ranks are undecided, or its tangent basis is refused as degenerate (with
    no reason, plain genus(2, 2))."""

    def __init__(self, reason):
        super().__init__(2, 2)
        self.reason = reason
        rng = np.random.default_rng(5)
        self.second = [Genus.sample(self, rng) for _ in range(2)][1]
        self.undecided = Genus.sample(self, np.random.default_rng(1976016887))

    def sample(self, rng):
        m = super().sample(rng)
        return self.undecided if self.reason == "undecided" and same_tree(m, self.second) else m

    def _basis(self, m):
        basis, cond = super()._basis(m)
        if self.reason == "degenerate":
            cond = np.where(np.all(m[0] == self.second[0], axis=(-2, -1)), np.inf, cond)
        return basis, cond


@pytest.mark.parametrize("reason", ["undecided", "degenerate"])
def test_mid_stack_redraw_restores_the_loop_draws(reason, monkeypatch):
    space = SecondDrawRedrawn(reason)
    drawn, evaluated = [], []
    sample, mismatch = space.sample, spaces._degeneracy_mismatch

    def spied_sample(rng):
        drawn.append(sample(rng))
        return drawn[-1]

    def spied_mismatch(sp, m, tangents):
        out = mismatch(sp, m, tangents)
        evaluated.append((m, out.copy()))
        return out

    monkeypatch.setattr(space, "sample", spied_sample)
    monkeypatch.setattr(spaces, "_degeneracy_mismatch", spied_mismatch)
    stacked = spaces._sample_residuals(space, "min_degeneracy", 3, 1e-4, np.random.default_rng(5))
    stacked_drawn, stacked_evaluated = drawn[:], evaluated[:]
    drawn.clear()
    evaluated.clear()
    loop = loop_residuals(space, "min_degeneracy", 3, 5)
    assert np.array_equal(stacked, loop)
    # the stack of the three draws, then, from the state before the second
    # draw on, the loop's own draws, each evaluated as a stack of one
    (points, first), rest = stacked_evaluated[0], stacked_evaluated[1:]
    assert same_tree(points, stack(drawn[:3])) and first[0] == loop[0]
    assert np.isnan(first[1]) == (reason == "undecided")
    assert len(drawn) == 4 and len(stacked_drawn) == 6
    assert all(same_tree(a, b) for a, b in zip(stacked_drawn, drawn[:3] + drawn[1:]))
    assert len(rest) == len(evaluated) - 1
    for (m, out), (ref_m, ref_out) in zip(rest, evaluated[1:]):
        assert same_tree(m, ref_m) and np.array_equal(out, ref_out, equal_nan=True)


@pytest.mark.parametrize("reason", ["undecided", "degenerate", None])
@pytest.mark.parametrize("step", [1, 2])
def test_degeneracy_stacks_hold_at_most_stack_rows(reason, step, monkeypatch):
    space = SecondDrawRedrawn(reason)
    monkeypatch.setattr(spaces, "STACK_ROWS", step * space.dim)
    sizes, drawn, mismatch, sample = [], [], spaces._degeneracy_mismatch, space.sample
    monkeypatch.setattr(spaces, "_degeneracy_mismatch",
                        lambda sp, m, tangents: sizes.append(len(m[0])) or mismatch(sp, m, tangents))
    monkeypatch.setattr(space, "sample", lambda rng: drawn.append(rng) or sample(rng))
    stacked = spaces._sample_residuals(space, "min_degeneracy", 5, 1e-4, np.random.default_rng(5))
    assert max(sizes) == step
    stacked_draws = len(drawn)
    drawn.clear()
    assert np.array_equal(stacked, loop_residuals(space, "min_degeneracy", 5, 5))
    # the five stacked draws, then the loop's draws from the redrawn second sample on
    assert stacked_draws == 5 + len(drawn) - (1 if reason else 5)


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
    draws = [_sample_with_basis(space, rng) for _ in range(3)]
    potentials = space._potential(stack([m for m, _ in draws]),
                                  stack([spaces._stack_tangents(m, b) for m, b in draws]))
    for p, (m, basis) in enumerate(draws):
        for i, v in enumerate(basis):
            assert np.max(np.abs(potentials[p, i] - ref_potential(space, m, v))) < 1e-13


# ---------------------------------------------------------------------------
# fusion structure

def test_fusion_moment_associativity():
    rng = np.random.default_rng(37)
    parts = [InternalFusion(Double(2)) for _ in range(3)]
    points = [p.sample(rng) for p in parts]
    left = Fusion(Fusion(parts[0], parts[1]), parts[2])
    right = Fusion(parts[0], Fusion(parts[1], parts[2]))
    m_left = left.moment(((points[0], points[1]), points[2]))
    m_right = right.moment((points[0], (points[1], points[2])))
    assert np.max(np.abs(m_left - m_right)) < 1e-12


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
    (a, b), c = m
    expected = a @ b @ a.conj().T @ b.conj().T @ c
    assert np.max(np.abs(space.moment(m) - expected)) < 1e-12


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
    psi = g.moment(m)
    expected = np.eye(2, dtype=complex)
    for i in range(0, 6, 2):
        a, b = m[i], m[i + 1]
        expected = expected @ a @ b @ a.conj().T @ b.conj().T
    assert np.max(np.abs(psi - expected)) < 1e-12


def same_tree(a, b):
    la, lb = tree_leaves(a), tree_leaves(b)
    return len(la) == len(lb) and all(np.array_equal(x, y) for x, y in zip(la, lb))


@pytest.mark.parametrize("n,h", [(2, 1), (2, 3), (3, 2)])
def test_genus_matches_explicit_fusion_chain(n, h):
    # the flat genus space and the nested fusion chain agree bit for bit at
    # the same point: record, moment, basis, action, fields and draws
    space = Genus(n, h)
    chain, nest = genus_chain(n, h)
    assert space.dim == chain.dim
    rng = np.random.default_rng(113)
    m = space.sample(rng)
    basis = space.tangent_basis(m)
    assert same_tree(tuple(nest(t) for t in basis), tuple(chain.tangent_basis(nest(m))))
    rec = _record(space, m, basis)
    ref = _record(chain, nest(m), [nest(t) for t in basis])
    assert np.array_equal(rec.omega, ref.omega)
    assert same_tree((rec.psi, rec.left, rec.right), (ref.psi, ref.left, ref.right))
    assert np.array_equal(space.moment(m), chain.moment(nest(m)))
    g = random_special_unitary(n, rng)
    xi = random_algebra(n, rng)
    data = space.random_field(np.random.default_rng(5))
    assert same_tree(nest(data), chain.random_field(np.random.default_rng(5)))
    assert same_tree(nest(space.sample(np.random.default_rng(7))),
                     chain.sample(np.random.default_rng(7)))
    flip = data[::-1]
    pairs = [
        (space.act(g, m), chain.act(g, nest(m))),
        (space.act(g, basis[-1]), chain.act(g, nest(basis[-1]))),
        (space.generating_field(xi, m), chain.generating_field(xi, nest(m))),
        (space.field_at(data, m), chain.field_at(nest(data), nest(m))),
        (space.field_flow(data, m, 0.3), chain.field_flow(nest(data), nest(m), 0.3)),
        (space.field_bracket(data, flip), chain.field_bracket(nest(data), nest(flip))),
    ]
    for flat, nested in pairs:
        assert same_tree(nest(flat), nested)


# ---------------------------------------------------------------------------
# reduction

def test_reduction_rank_at_reflected_pairs():
    g22 = Genus(2, 2)
    rng = np.random.default_rng(47)
    for _ in range(5):
        a = random_special_unitary(2, rng)
        b = random_special_unitary(2, rng)
        assert reduction_rank(g22, (a, b, b, a)) == 3 == fd_reduction_rank(g22, (a, b, b, a))


def test_reduction_rank_at_commuting_and_identity():
    g21 = Genus(2, 1)
    rng = np.random.default_rng(53)
    h = 1j * np.diag([1.0, -1.0])
    u = random_special_unitary(2, rng)
    a = u @ scipy.linalg.expm(0.37 * h) @ u.conj().T
    b = u @ scipy.linalg.expm(-0.83 * h) @ u.conj().T
    assert reduction_rank(g21, (a, b)) == 2 == fd_reduction_rank(g21, (a, b))
    e = np.eye(2, dtype=complex)
    assert reduction_rank(g21, (e, e)) == 0 == fd_reduction_rank(g21, (e, e))


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
        assert reduction_rank(space, point) == fd_reduction_rank(space, point) == expected


def test_reduction_rank_rejections():
    g21 = Genus(2, 1)
    rng = np.random.default_rng(59)
    a = random_special_unitary(2, rng)
    b = random_special_unitary(2, rng)
    with pytest.raises(InputError) as err:
        reduction_rank(g21, (a, b))  # commutator is not the identity
    assert err.value.code == "not-identity-level"
    with pytest.raises(InputError):
        reduction_rank(Double(2), (a, b))


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
