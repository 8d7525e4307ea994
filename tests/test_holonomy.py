import json

import numpy as np
import pytest
import scipy.linalg

from quasiham.cli import dispatch
from quasiham.errors import InputError
from quasiham.holonomy import (
    PiecewiseConnection,
    constant_connection,
    convergence_order,
    gauge_equivariance_residual,
    gauge_transform,
    holonomy,
    midpoint_grid,
    sample_smooth_connection,
)
from quasiham.serialize import matrix_from_json, matrix_to_json
from quasiham.sun import (
    check_special_unitary,
    project_algebra,
    random_algebra,
    random_special_unitary,
)


def smooth_data(n, seed):
    rng = np.random.default_rng(seed)
    x, y, z = (random_algebra(n, rng) for _ in range(3))
    g0 = random_special_unitary(n, rng)
    winding = 1j * np.diag([1.0] + [0.0] * (n - 2) + [-1.0])

    def conn_fn(t):
        return np.sin(2 * np.pi * t) * x + np.cos(4 * np.pi * t) * y

    def loop_fn(t):
        t = np.asarray(t)[..., None, None]  # one time or a grid of them
        return (
            g0
            @ scipy.linalg.expm(2 * np.pi * t * winding)
            @ scipy.linalg.expm(np.sin(2 * np.pi * t) * z)
        )

    return conn_fn, loop_fn


def test_zero_connection_gives_identity():
    zero = constant_connection(np.zeros((2, 2), dtype=complex), 13)
    assert np.max(np.abs(holonomy(zero) - np.eye(2))) == 0.0


@pytest.mark.parametrize("steps", [1, 2, 7, 64])
def test_constant_connection_exact(steps):
    rng = np.random.default_rng(0)
    xi = random_algebra(2, rng)
    conn = constant_connection(xi, steps)
    assert np.max(np.abs(holonomy(conn) - scipy.linalg.expm(xi))) < 1e-12


def test_gauge_equivariance_order_two():
    conn_fn, loop_fn = smooth_data(2, 1)
    residuals = {
        n: gauge_equivariance_residual(conn_fn, loop_fn, n) for n in (8, 16, 32, 64, 128)
    }
    order = convergence_order(residuals)
    assert 1.7 <= order <= 2.3
    assert residuals[128] < residuals[8]


def test_constant_loop_is_pure_conjugation():
    conn_fn, _ = smooth_data(2, 2)
    conn = sample_smooth_connection(conn_fn, 16)
    g = random_special_unitary(2, np.random.default_rng(3))
    out = gauge_transform([g] * 16, conn)
    for s, a in zip(out.samples, conn.samples):
        assert np.max(np.abs(s - g @ a @ g.conj().T)) < 1e-12


def test_torus_loop_on_zero_connection():
    winding = 1j * np.diag([1.0, -1.0])
    steps = 48
    zero = constant_connection(np.zeros((2, 2), dtype=complex), steps)
    loop = [scipy.linalg.expm(2 * np.pi * t * winding) for t in midpoint_grid(steps)]
    out = gauge_transform(loop, zero)
    # transformed connection is approximately the constant -2 pi H
    for s in out.samples:
        assert np.max(np.abs(s + 2 * np.pi * winding)) < 0.02
    # holonomy stays in the conjugacy class of the identity
    assert np.max(np.abs(holonomy(out) - np.eye(2))) < 0.02


def test_double_transform_is_inverse():
    conn_fn, loop_fn = smooth_data(2, 4)
    steps = 32
    conn = sample_smooth_connection(conn_fn, steps)
    loop = [loop_fn(t) for t in midpoint_grid(steps)]
    back = gauge_transform([g.conj().T for g in loop], gauge_transform(loop, conn))
    worst = max(
        np.max(np.abs(a - b)) for a, b in zip(back.samples, conn.samples)
    )
    assert worst < 1e-12


def gauge_transform_loop(loop, conn):
    """The per-sample loop gauge_transform stacks."""
    n_steps = conn.steps
    gs = [check_special_unitary(g, tol=1e-9) for g in loop]
    h = 1.0 / n_steps
    out = []
    for i in range(n_steps):
        g = gs[i]
        ginv = g.conj().T
        dg = (gs[(i + 1) % n_steps] - gs[(i - 1) % n_steps]) / (2.0 * h)
        out.append(g @ conn.samples[i] @ ginv - project_algebra(dg @ ginv))
    return out


@pytest.mark.parametrize("n,steps", [(2, 1), (2, 2), (2, 7), (3, 32), (4, 128)])
@pytest.mark.parametrize("seed", [0, 3])
def test_gauge_transform_stack_matches_per_sample_loop(n, steps, seed):
    conn_fn, loop_fn = smooth_data(n, seed)
    conn = sample_smooth_connection(conn_fn, steps)
    loop = loop_fn(midpoint_grid(steps))
    batched = gauge_transform(loop, conn).samples
    oracle = gauge_transform_loop(list(loop), conn)
    assert len(batched) == steps
    assert max(np.max(np.abs(a - b)) for a, b in zip(batched, oracle)) < 1e-13


def test_gauge_transform_rejects_one_non_unitary_sample():
    conn_fn, loop_fn = smooth_data(2, 7)
    loop = list(loop_fn(midpoint_grid(16)))
    loop[5] = loop[5] @ np.diag([1.0 + 1e-7, 1.0 / (1.0 + 1e-7)])  # det 1, not unitary
    with pytest.raises(InputError) as err:
        gauge_transform(loop, sample_smooth_connection(conn_fn, 16))
    assert err.value.code == "not-special-unitary"


def test_connection_rejects_one_sample_off_the_algebra():
    samples = [random_algebra(3, np.random.default_rng(s)) for s in range(6)]
    for offset in (1e-8 * np.diag([1.0, -1.0, 0.0]), 1e-8j * np.eye(3)):
        bad = list(samples)
        bad[4] = bad[4] + offset
        with pytest.raises(InputError) as err:
            PiecewiseConnection(samples=tuple(bad))
        assert err.value.code == "not-algebra"
        # samples within the 1e-9 tolerance are admitted
        bad[4] = samples[4] + 0.01 * offset
        assert PiecewiseConnection(samples=tuple(bad)).steps == 6


def test_grid_mismatch_rejected():
    conn = constant_connection(np.zeros((2, 2), dtype=complex), 8)
    g = np.eye(2, dtype=complex)
    with pytest.raises(InputError) as err:
        gauge_transform([g] * 7, conn)
    assert err.value.code == "grid-mismatch"


def test_empty_connection_rejected():
    with pytest.raises(InputError):
        PiecewiseConnection(samples=())


def test_connection_json_shape():
    conn = constant_connection(1j * np.diag([1.0, -1.0]) * 0.1, 2)
    data = conn.to_json()
    assert data["steps"] == 2 and len(data["samples"]) == 2
    assert data["samples"][0][0][0] == [0.0, 0.1]


def test_convergence_order_rejects_zero_residuals():
    with pytest.raises(InputError):
        convergence_order({8: 0.0, 16: 0.0})


@pytest.mark.parametrize("n,steps", [(2, 1), (2, 7), (3, 64), (4, 128)])
def test_holonomy_is_ordered_product_of_step_exponentials(n, steps):
    conn_fn, _ = smooth_data(n, 5)
    conn = sample_smooth_connection(conn_fn, steps)
    oracle = np.eye(n, dtype=complex)
    for a in conn.samples:
        oracle = oracle @ scipy.linalg.expm(a / steps)
    assert np.max(np.abs(holonomy(conn) - oracle)) < 1e-13


def test_file_connection_off_the_algebra_matches_oracle(tmp_path):
    # check_algebra admits samples 1e-9 off skew; the holonomy of samples
    # 1e-10 off stays within the offset of the exponentials of the raw
    # samples, equals that of their anti-Hermitian parts and is unitary
    rng = np.random.default_rng(6)
    steps = 16
    skew = [random_algebra(3, rng) for _ in range(steps)]
    raw = [x + 1e-10 * (1j * project_algebra(rng.normal(size=(3, 3)) + 0j)) for x in skew]
    path = tmp_path / "conn.json"
    path.write_text(json.dumps({"samples": [matrix_to_json(a) for a in raw]}))
    code, payload = dispatch(["holonomy-convergence", "--file", str(path)])
    assert code == 0 and payload["steps"] == steps
    hol = matrix_from_json(payload["holonomy"])
    read = [matrix_from_json(matrix_to_json(a)) for a in raw]
    oracle_raw = np.eye(3, dtype=complex)
    oracle_skew = np.eye(3, dtype=complex)
    for a in read:
        oracle_raw = oracle_raw @ scipy.linalg.expm(a / steps)
        oracle_skew = oracle_skew @ scipy.linalg.expm(0.5 * (a - a.conj().T) / steps)
    assert np.max(np.abs(hol - oracle_raw)) < 1e-9
    assert np.max(np.abs(hol - oracle_skew)) < 1e-13
    assert np.max(np.abs(hol.conj().T @ hol - np.eye(3))) < 1e-13
