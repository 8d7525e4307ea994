from itertools import permutations

import numpy as np
import pytest
import scipy.linalg

from oracles import alcove_coordinates, algebra_coords, algebra_from_coords, realified_operator
from quasiham import sun
from quasiham.errors import InputError
from quasiham.sun import (
    _three_form_pulled,
    algebra_basis,
    basic_inner,
    canonical_three_form,
    check_algebra,
    check_special_unitary,
    eta_integral_su2,
    expm_skew,
    maurer_cartan,
    project_algebra,
    random_algebra,
    random_special_unitary,
    torus_algebra,
    torus_point,
    pair_basis,
    unitary_eig,
)


def test_matrix_checks():
    rng = np.random.default_rng(0)
    g = random_special_unitary(3, rng)
    check_special_unitary(g)
    with pytest.raises(InputError):
        check_special_unitary(g + 1e-6)
    x = random_algebra(3, rng)
    check_algebra(x)
    with pytest.raises(InputError):
        check_algebra(x + 1e-6 * np.eye(3))
    y = project_algebra(rng.normal(size=(3, 3)) + 1j * rng.normal(size=(3, 3)))
    check_algebra(y)


def test_algebra_basis_orthonormal():
    basis = algebra_basis(3)
    assert len(basis) == 8
    for i, a in enumerate(basis):
        check_algebra(a)
        for j, b in enumerate(basis):
            ip = np.real(np.trace(a.conj().T @ b))
            assert abs(ip - (1.0 if i == j else 0.0)) < 1e-12
    x = random_algebra(3, np.random.default_rng(1))
    back = algebra_from_coords(3, algebra_coords(x))
    assert np.max(np.abs(back - x)) < 1e-12


def test_alcove_coordinates_examples():
    assert np.allclose(alcove_coordinates(np.diag([1j, -1j])), [0.25, -0.25])
    assert np.allclose(alcove_coordinates(np.eye(2, dtype=complex)), [0.0, 0.0])
    assert np.allclose(alcove_coordinates(-np.eye(2, dtype=complex)), [0.5, -0.5])
    rng = np.random.default_rng(2)
    g = random_special_unitary(2, rng)
    a = g @ torus_point([0.3, -0.3]) @ g.conj().T
    assert np.allclose(alcove_coordinates(a), [0.3, -0.3], atol=1e-12)


def test_alcove_coordinates_properties():
    rng = np.random.default_rng(3)
    for n in (2, 3, 4):
        for _ in range(25):
            lam = alcove_coordinates(random_special_unitary(n, rng))
            assert abs(lam.sum()) < 1e-12
            assert np.all(np.diff(lam) <= 1e-12)
            assert lam[0] - lam[-1] <= 1.0 + 1e-12


def test_alcove_coordinates_snaps_walls():
    eps = 3e-11
    a = torus_point([0.5 - eps, -0.5 + eps])
    lam = alcove_coordinates(a)
    assert lam[0] == 0.5 and lam[1] == -0.5
    b = torus_point([eps, -eps])
    assert np.all(alcove_coordinates(b) == 0.0)
    # a gap above the snap tolerance survives
    c = torus_point([0.1, -0.1])
    assert alcove_coordinates(c)[0] == pytest.approx(0.1, abs=1e-15)


def alcove_coordinates_loop(a, snap_tol=1e-9):
    """alcove_coordinates of one matrix as a loop over the circular clusters
    of its phases, each snapped to the numpy sum of its unit vectors."""
    phases = (np.angle(np.linalg.eigvals(a)) / (2.0 * np.pi)) % 1.0
    n = len(phases)
    order = np.argsort(phases)
    breaks = [pos for pos in range(n)
              if phases[order[(pos + 1) % n]] + (1.0 if pos == n - 1 else 0.0)
              - phases[order[pos]] > snap_tol]
    clusters = [list(order)] if not breaks else []
    start = (breaks[-1] + 1) % n if breaks else 0
    for b in breaks:
        cluster, pos = [], start
        while True:
            cluster.append(int(order[pos]))
            if pos == b:
                break
            pos = (pos + 1) % n
        clusters.append(cluster)
        start = (b + 1) % n
    snapped = phases.copy()
    for cluster in clusters:
        mean = np.angle(np.exp(2j * np.pi * phases[cluster]).sum()) / (2.0 * np.pi)
        snapped[cluster] = mean % 1.0
    q = np.sort(snapped)[::-1]
    m = int(round(q.sum()))
    lam = np.concatenate([q[m:], q[:m] - 1.0])
    return lam - lam.sum() / n


@pytest.mark.parametrize("n", [2, 3, 4, 5, 6])
def test_stacked_alcove_coordinates_match_cluster_loop(n):
    rng = np.random.default_rng(60 + n)
    mats = np.stack([random_special_unitary(n, rng) for _ in range(200)])
    stacked = alcove_coordinates(mats)
    assert stacked.shape == (200, n)
    for lam, a in zip(stacked, mats):
        assert np.array_equal(lam, alcove_coordinates_loop(a))
        assert np.array_equal(lam, alcove_coordinates(a))
    # wall points, conjugated: clusters of two or more phases, across the
    # wrap at one too, snap to means that agree up to the summation order
    u = random_special_unitary(n, rng)
    for lam in ([0.0] * n, [0.5, -0.5] + [0.0] * (n - 2), [(n - 1) / n] + [-1 / n] * (n - 1),
                [0.25, 0.25] + [-0.5 / max(n - 2, 1)] * (n - 2)):
        if len(lam) != n or abs(sum(lam)) > 1e-12:
            continue
        wall = u @ torus_point(lam) @ u.conj().T
        assert np.max(np.abs(alcove_coordinates(wall) - alcove_coordinates_loop(wall))) <= 1e-15


def test_maurer_cartan():
    rng = np.random.default_rng(4)
    e = np.eye(2, dtype=complex)
    x = random_algebra(2, rng)
    assert np.allclose(maurer_cartan(e, x), x)
    g = random_special_unitary(2, rng)
    v = g @ x  # left-translated tangent vector
    assert np.allclose(maurer_cartan(g, v), x)
    with pytest.raises(InputError) as err:
        maurer_cartan(g, np.eye(2, dtype=complex))
    assert err.value.code == "not-tangent"


@pytest.mark.parametrize("bad", [np.nan, np.inf])
def test_validators_reject_non_finite_entries(bad):
    # a NaN defect compares False against every tolerance, so finiteness is
    # tested first, before any arithmetic can warn
    g = np.stack([np.eye(3, dtype=complex)] * 2)
    g[1, 0, 2] = bad
    with pytest.raises(InputError) as err:
        check_special_unitary(g)
    assert err.value.code == "not-special-unitary"
    x = np.zeros((2, 3, 3), dtype=complex)
    x[1, 2, 2] = 1j * bad
    with pytest.raises(InputError) as err:
        check_algebra(x)
    assert err.value.code == "not-algebra"
    e = np.eye(3, dtype=complex)
    for point, vector in [(e, x[1]), (g[1], np.zeros((3, 3)))]:
        with pytest.raises(InputError) as err:
            maurer_cartan(point, vector)
        assert err.value.code == "not-tangent"


def test_three_form_alternating_and_identity_value():
    rng = np.random.default_rng(5)
    g = random_special_unitary(2, rng)
    xs = [random_algebra(2, rng) for _ in range(3)]
    vs = [g @ x for x in xs]
    assert canonical_three_form(g, vs[0], vs[0], vs[1]) == pytest.approx(0.0, abs=1e-14)
    e = np.eye(2, dtype=complex)
    lhs = canonical_three_form(e, *xs)
    rhs = 0.5 * basic_inner(xs[0], xs[1] @ xs[2] - xs[2] @ xs[1])
    assert lhs == pytest.approx(rhs, abs=1e-14)


def test_three_form_bi_invariance():
    rng = np.random.default_rng(6)
    g = random_special_unitary(3, rng)
    h = random_special_unitary(3, rng)
    vs = [random_algebra(3, rng) @ g for _ in range(3)]
    base = canonical_three_form(g, *vs)
    left = canonical_three_form(h @ g, *(h @ v for v in vs))
    right = canonical_three_form(g @ h, *(v @ h for v in vs))
    assert left == pytest.approx(base, abs=1e-12)
    assert right == pytest.approx(base, abs=1e-12)


def test_basic_inner_bridges_exact_dot():
    lam = np.array([0.75, -0.25, -0.5])
    mu = np.array([0.125, 0.375, -0.5])
    lhs = basic_inner(torus_algebra(lam), torus_algebra(mu))
    assert lhs == pytest.approx(float(lam @ mu), abs=1e-12)
    with pytest.raises(InputError):
        torus_algebra([0.5, 0.5])


def test_eta_integral_unit():
    assert eta_integral_su2(samples=400, seed=0) == pytest.approx(1.0, abs=1e-10)


def eta_loop(samples, seed):
    """The per-sample loop eta_integral_su2 stacks: one quaternion and three
    frame rows drawn per sample, in that order."""
    rng = np.random.default_rng(seed)
    sigma = (
        np.array([[0, 1], [1, 0]], dtype=complex),
        np.array([[0, -1j], [1j, 0]], dtype=complex),
        np.array([[1, 0], [0, -1]], dtype=complex),
    )
    total = 0.0
    for _ in range(samples):
        q = rng.normal(size=4)
        q /= np.linalg.norm(q)
        g = q[0] * np.eye(2, dtype=complex) + 1j * (
            q[1] * sigma[0] + q[2] * sigma[1] + q[3] * sigma[2]
        )
        ref = [g @ (1j * sigma[0]), g @ (1j * sigma[2]), g @ (1j * sigma[1])]
        raw = [sum(rng.normal() * r for r in ref) for _ in range(3)]
        frame = []
        for v in raw:
            for u in frame:
                v = v - 0.5 * np.real(np.trace(v @ u.conj().T)) * u
            frame.append(v / np.sqrt(0.5 * np.real(np.trace(v @ v.conj().T))))
        change = np.array(
            [[0.5 * np.real(np.trace(f @ r.conj().T)) for r in ref] for f in frame]
        )
        total += np.sign(np.linalg.det(change)) * sun.canonical_three_form(g, *frame, tol=1e-6)
    return float(total / samples * 2.0 * np.pi**2)


@pytest.mark.parametrize("samples", [1, 2, 13, 200, 400])
@pytest.mark.parametrize("seed", [0, 1, 7])
def test_eta_stack_matches_per_sample_loop(samples, seed):
    assert abs(eta_integral_su2(samples=samples, seed=seed) - eta_loop(samples, seed)) < 1e-13


@pytest.mark.parametrize("samples", [0, -1])
def test_eta_rejects_empty_sample_counts(samples):
    with pytest.raises(InputError) as err:
        eta_integral_su2(samples=samples, seed=0)
    assert err.value.code == "invalid-samples"


def test_eta_stack_draws_the_loop_points_and_frames(monkeypatch):
    # every frame integrates to 1, so the value alone cannot show that the
    # stack reads the loop's draws; the points and frames can
    seen = []
    real = sun.canonical_three_form

    def spy(g, *frame, tol):
        seen.append((g, np.stack(frame, axis=-3)))
        return real(g, *frame, tol=tol)

    monkeypatch.setattr(sun, "canonical_three_form", spy)
    eta_integral_su2(samples=40, seed=4)
    eta_loop(40, 4)
    (points, frames), loop = seen[0], seen[1:]
    assert points.shape == (40, 2, 2) and len(loop) == 40
    assert np.max(np.abs(points - np.stack([g for g, _ in loop]))) < 1e-13
    assert np.max(np.abs(frames - np.stack([f for _, f in loop]))) < 1e-13


def test_three_form_and_maurer_cartan_on_stacks():
    rng = np.random.default_rng(12)
    gs = np.stack([random_special_unitary(3, rng) for _ in range(5)])
    vs = gs[:, None] @ np.stack([[random_algebra(3, rng) for _ in range(3)] for _ in range(5)])
    values = canonical_three_form(gs, vs[:, 0], vs[:, 1], vs[:, 2])
    left = maurer_cartan(gs, vs[:, 0])
    assert values.shape == (5,) and left.shape == (5, 3, 3)
    for g, v, value, x in zip(gs, vs, values, left):
        assert abs(value - canonical_three_form(g, *v)) < 1e-15
        assert np.max(np.abs(x - maurer_cartan(g, v[0]))) < 1e-15
    # one non-tangent vector in the stack fails the whole stack, whether it
    # is off the anti-Hermitian matrices or off the traceless ones
    for offset in (1e-6 * np.diag([1.0, -1.0, 0.0]), 1e-6j * np.eye(3)):
        bad = vs[:, 0].copy()
        bad[3] = bad[3] + gs[3] @ offset
        with pytest.raises(InputError) as err:
            canonical_three_form(gs, bad, vs[:, 1], vs[:, 2])
        assert err.value.code == "not-tangent"


def test_checks_on_stacks():
    # one defective late sample fails the stack, for each defect alone
    rng = np.random.default_rng(13)
    gs = np.stack([random_special_unitary(2, rng) for _ in range(4)])
    check_special_unitary(gs)
    for bad in (gs[2] @ np.diag([1.0 + 1e-8, 1.0 / (1.0 + 1e-8)]),  # det 1
                gs[2] * np.exp(1e-8j)):  # unitary
        stack = gs.copy()
        stack[2] = bad
        with pytest.raises(InputError) as err:
            check_special_unitary(stack)
        assert err.value.code == "not-special-unitary"
    xs = np.stack([random_algebra(3, rng) for _ in range(4)])
    check_algebra(xs)
    for offset in (1e-6 * np.diag([1.0, -1.0, 0.0]), 1e-6j * np.eye(3)):
        with pytest.raises(InputError) as err:
            check_algebra(xs + np.array([0, 0, 1, 0])[:, None, None] * offset)
        assert err.value.code == "not-algebra"
    for shape in [(3,), (2, 3), (4, 2, 3)]:
        with pytest.raises(InputError) as err:
            check_special_unitary(np.zeros(shape))
        assert err.value.code == "not-square"
    with pytest.raises(InputError) as err:
        alcove_coordinates(np.zeros((2, 2, 3)))
    assert err.value.code == "not-square"


def test_random_special_unitary_is_group_point():
    rng = np.random.default_rng(7)
    for n in (2, 3, 5):
        check_special_unitary(random_special_unitary(n, rng))


# ---------------------------------------------------------------------------
# batched helpers against the same helper applied element by element

def random_matrices(rng, shape, n):
    return rng.normal(size=shape + (n, n)) + 1j * rng.normal(size=shape + (n, n))


@pytest.mark.parametrize("n", [2, 3, 4])
def test_basic_inner_broadcasts(n):
    rng = np.random.default_rng(11)
    xs = np.array([random_algebra(n, rng) for _ in range(4)])
    ys = np.array([random_algebra(n, rng) for _ in range(5)])
    gram = basic_inner(xs[:, None], ys[None, :])
    assert gram.shape == (4, 5)
    ref = np.array([[basic_inner(x, y) for y in ys] for x in xs])
    assert np.max(np.abs(gram - ref)) <= 1e-15
    assert type(basic_inner(xs[0], ys[0])) is float


@pytest.mark.parametrize("n", [2, 3, 4])
def test_project_algebra_broadcasts(n):
    rng = np.random.default_rng(12)
    zs = random_matrices(rng, (3, 2), n)
    out = project_algebra(zs)
    assert out.shape == zs.shape
    for idx in np.ndindex(3, 2):
        assert np.max(np.abs(out[idx] - project_algebra(zs[idx]))) <= 1e-15
        check_algebra(out[idx])


@pytest.mark.parametrize("n", [2, 3, 4])
def test_algebra_coords_match_trace_loop(n):
    rng = np.random.default_rng(13)
    xs = np.array([random_algebra(n, rng) for _ in range(6)]).reshape(2, 3, n, n)
    coords = algebra_coords(xs)
    assert coords.shape == (2, 3, n * n - 1)
    for idx in np.ndindex(2, 3):
        ref = [np.real(np.trace(b.conj().T @ xs[idx])) for b in algebra_basis(n)]
        assert np.max(np.abs(coords[idx] - ref)) <= 1e-15
        assert np.max(np.abs(algebra_coords(xs[idx]) - coords[idx])) <= 1e-15
    back = algebra_from_coords(n, coords)
    for idx in np.ndindex(2, 3):
        ref = sum(c * b for c, b in zip(coords[idx], algebra_basis(n)))
        assert np.max(np.abs(back[idx] - ref)) <= 1e-15
        assert np.max(np.abs(algebra_from_coords(n, coords[idx]) - back[idx])) <= 1e-15
    assert np.max(np.abs(back - xs)) < 1e-14


@pytest.mark.parametrize("n", [2, 3, 4])
def test_realified_operator_matches_column_loop(n):
    rng = np.random.default_rng(14)
    g = random_special_unitary(n, rng)
    ginv = g.conj().T

    def ad_plus_one(x):
        return g @ x @ ginv + x

    op = realified_operator(n, ad_plus_one)
    ref = np.stack([algebra_coords(ad_plus_one(b)) for b in algebra_basis(n)], axis=1)
    assert np.max(np.abs(op - ref)) <= 1e-15


def repeated_spectrum_unitary(n, rng):
    """u diag(e) u* for a random unitary u and phases e with one value
    repeated three times (n >= 4) or twice, and one pair 2e-6 turns apart."""
    turns = rng.uniform(size=n)
    turns[1 : min(3, n - 1)] = turns[0]
    turns[-1] = turns[-2] + 2e-6
    u = random_special_unitary(n, rng)
    return u @ np.diag(np.exp(2j * np.pi * turns)) @ u.conj().T


@pytest.mark.parametrize("n", [2, 3, 4, 8, 16])
def test_unitary_eig_is_a_unitary_eigenbasis(n):
    # the QR keeps a repeated eigenvalue's vectors inside its eigenspace, so
    # V stays an eigenbasis where eig's vectors need not be orthogonal
    rng = np.random.default_rng(17 + n)
    for m in (random_special_unitary(n, rng), repeated_spectrum_unitary(n, rng)):
        d, v = unitary_eig(np.stack([m, m.conj().T]))
        assert np.max(np.abs(v.conj().swapaxes(-1, -2) @ v - np.eye(n))) < 1e-14
        assert np.max(np.abs((v * d[..., None, :]) @ v.conj().swapaxes(-1, -2)
                             - np.stack([m, m.conj().T]))) < 1e-13


@pytest.mark.parametrize("n", [2, 3, 5])
def test_pair_basis_conjugates_the_off_diagonal_basis(n):
    # every pair in order gives the conjugated off-diagonal basis; each point
    # of a stack takes its own pairs
    rng = np.random.default_rng(19 + n)
    v = np.stack([random_special_unitary(n, rng) for _ in range(3)])
    count = n * (n - 1) // 2
    every = pair_basis(v, np.broadcast_to(np.arange(count), (3, count)))
    assert every.shape == (3, 2 * count, n, n)
    for p in range(3):
        ref = [v[p] @ b @ v[p].conj().T for b in algebra_basis(n)[: 2 * count]]
        assert np.max(np.abs(every[p] - np.array(ref))) < 1e-15
    picks = rng.integers(0, count, size=(3, 2))
    out = pair_basis(v, picks)
    for p, pick in enumerate(picks):
        assert np.array_equal(out[p], every[p].reshape(-1, 2, n, n)[pick].reshape(4, n, n))
        assert np.array_equal(pair_basis(v[p], pick), out[p])


def test_three_form_matches_signed_permutation_sum():
    rng = np.random.default_rng(15)
    signs = (1, -1, -1, 1, 1, -1)  # of permutations(range(3)) in order
    for n in (2, 3, 4):
        xs = [random_algebra(n, rng) for _ in range(3)]
        ref = sum(
            sign * basic_inner(xs[p[0]], xs[p[1]] @ xs[p[2]] - xs[p[2]] @ xs[p[1]])
            for p, sign in zip(permutations(range(3)), signs)
        ) / 12.0
        assert _three_form_pulled(xs) == pytest.approx(ref, abs=1e-15)
        g = random_special_unitary(n, rng)
        assert canonical_three_form(g, *(g @ x for x in xs)) == pytest.approx(ref, abs=1e-14)


@pytest.mark.parametrize("n", [2, 3, 4, 5, 6])
def test_expm_skew_matches_scipy(n):
    rng = np.random.default_rng(20 + n)
    for scale in (1e-3, 0.5, 1.0, 3.0):
        x = scale * random_algebra(n, rng)
        assert np.max(np.abs(expm_skew(x) - scipy.linalg.expm(x))) < 1e-13
    stack = np.stack([random_algebra(n, rng) for _ in range(7)])
    out = expm_skew(stack)
    assert out.shape == (7, n, n)
    for x, e in zip(stack, out):
        assert np.max(np.abs(e - scipy.linalg.expm(x))) < 1e-13
    grid = stack.reshape(7, 1, n, n) * np.linspace(-1.0, 1.0, 3)[:, None, None]
    assert np.max(np.abs(expm_skew(grid) - scipy.linalg.expm(grid))) < 1e-13


@pytest.mark.parametrize("n", [2, 3, 4, 5, 6])
def test_expm_skew_is_special_unitary(n):
    rng = np.random.default_rng(30 + n)
    out = expm_skew(np.stack([2.0 * random_algebra(n, rng) for _ in range(16)]))
    eye = np.eye(n)
    assert np.max(np.abs(out.conj().swapaxes(-1, -2) @ out - eye)) < 1e-13
    assert np.max(np.abs(np.linalg.det(out) - 1.0)) < 1e-13
    assert np.max(np.abs(expm_skew(np.zeros((n, n))) - eye)) == 0.0


def test_expm_skew_reads_the_anti_hermitian_part():
    # an input off the algebra by 1e-10 is exponentiated as its anti-Hermitian
    # part: unitary, and within the offset of the exponential of the input
    rng = np.random.default_rng(40)
    x = random_algebra(3, rng)
    off = 1e-10 * (1j * project_algebra(rng.normal(size=(3, 3)) + 0j))
    y = x + off
    out = expm_skew(y)
    assert np.max(np.abs(out - scipy.linalg.expm(x))) < 1e-13
    assert 1e-11 < np.max(np.abs(out - scipy.linalg.expm(y))) < 1e-9
    assert np.max(np.abs(out.conj().T @ out - np.eye(3))) < 1e-13


def test_random_special_unitary_is_exp_of_the_same_draw():
    a = random_special_unitary(4, np.random.default_rng(9))
    x = random_algebra(4, np.random.default_rng(9))
    assert np.max(np.abs(a - scipy.linalg.expm(x))) < 1e-13
