import importlib
import json
from functools import reduce

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
from quasiham.serialize import matrix_from_json
from quasiham.sun import (
    check_special_unitary,
    complex_pairs,
    expm_skew,
    project_algebra,
    random_algebra,
    random_special_unitary,
)


def smooth_data(n, seed):
    rng = np.random.default_rng(seed)
    x, y, z = (random_algebra(n, rng) for _ in range(3))
    g0 = random_special_unitary(n, rng)
    winding = 1j * np.diag([1.0] + [0.0] * (n - 2) + [-1.0])

    def conn_fn(t):  # one time or a column of them
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
    out = gauge_transform(np.stack([g] * 16), conn.samples)
    for s, a in zip(out, conn.samples):
        assert np.max(np.abs(s - g @ a @ g.conj().T)) < 1e-12


def test_torus_loop_on_zero_connection():
    winding = 1j * np.diag([1.0, -1.0])
    steps = 48
    zero = constant_connection(np.zeros((2, 2), dtype=complex), steps)
    loop = np.stack([scipy.linalg.expm(2 * np.pi * t * winding) for t in midpoint_grid(steps)])
    out = gauge_transform(loop, zero.samples)
    # transformed connection is approximately the constant -2 pi H
    for s in out:
        assert np.max(np.abs(s + 2 * np.pi * winding)) < 0.02
    # holonomy stays in the conjugacy class of the identity
    assert np.max(np.abs(holonomy(PiecewiseConnection(out)) - np.eye(2))) < 0.02


def test_double_transform_is_inverse():
    conn_fn, loop_fn = smooth_data(2, 4)
    steps = 32
    conn = sample_smooth_connection(conn_fn, steps)
    loop = np.stack([loop_fn(t) for t in midpoint_grid(steps)])
    back = gauge_transform(loop.conj().swapaxes(-1, -2), gauge_transform(loop, conn.samples))
    assert np.max(np.abs(back - conn.samples)) < 1e-12


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
    batched = gauge_transform(loop, conn.samples)
    oracle = gauge_transform_loop(list(loop), conn)
    assert len(batched) == steps
    assert max(np.max(np.abs(a - b)) for a, b in zip(batched, oracle)) < 1e-13


def test_gauge_transform_rejects_one_non_unitary_sample():
    conn_fn, loop_fn = smooth_data(2, 7)
    loop = loop_fn(midpoint_grid(16))
    loop[5] = loop[5] @ np.diag([1.0 + 1e-7, 1.0 / (1.0 + 1e-7)])  # det 1, not unitary
    with pytest.raises(InputError) as err:
        gauge_transform(loop, sample_smooth_connection(conn_fn, 16).samples)
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
    with pytest.raises(InputError) as err:
        gauge_transform(np.stack([np.eye(2, dtype=complex)] * 7), conn.samples)
    assert err.value.code == "grid-mismatch"


def test_empty_connection_rejected():
    with pytest.raises(InputError) as err:
        PiecewiseConnection(samples=())
    assert err.value.code == "empty-grid"


@pytest.mark.parametrize("samples", [np.zeros((2, 2), dtype=complex), np.zeros(()),
                                     np.zeros((3, 2, 3), dtype=complex),
                                     (np.zeros((2, 2)), np.zeros((3, 3)))])
def test_malformed_connection_rejected(samples):
    with pytest.raises(InputError) as err:
        PiecewiseConnection(samples=samples)
    assert err.value.code == "malformed-connection"


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
    path.write_text(json.dumps({"samples": [complex_pairs(a) for a in raw]}))
    code, payload = dispatch(["holonomy-convergence", "--file", str(path)])
    assert code == 0 and payload["steps"] == steps
    hol = matrix_from_json(payload["holonomy"])
    read = [matrix_from_json(complex_pairs(a)) for a in raw]
    oracle_raw = np.eye(3, dtype=complex)
    oracle_skew = np.eye(3, dtype=complex)
    for a in read:
        oracle_raw = oracle_raw @ scipy.linalg.expm(a / steps)
        oracle_skew = oracle_skew @ scipy.linalg.expm(0.5 * (a - a.conj().T) / steps)
    assert np.max(np.abs(hol - oracle_raw)) < 1e-9
    assert np.max(np.abs(hol - oracle_skew)) < 1e-13
    assert np.max(np.abs(hol.conj().T @ hol - np.eye(3))) < 1e-13


@pytest.mark.parametrize("steps", [1, 2, 3, 5, 7, 128])
@pytest.mark.parametrize("n", [2, 4])
def test_halving_product_matches_left_fold(n, steps):
    # odd lengths pad an identity on the right at some round of halving
    conn_fn, _ = smooth_data(n, steps)
    conn = sample_smooth_connection(conn_fn, steps)
    fold = reduce(np.matmul, expm_skew(conn.samples / steps))
    assert np.max(np.abs(holonomy(conn) - fold)) < 1e-13


@pytest.mark.parametrize("n,steps", [(2, 1), (3, 7), (4, 64)])
def test_column_sampling_equals_per_time_sampling(n, steps):
    conn_fn, _ = smooth_data(n, 9)
    column = sample_smooth_connection(conn_fn, steps).samples
    per_time = np.stack([conn_fn(t) for t in midpoint_grid(steps)])
    assert column.shape == (steps, n, n)
    assert np.max(np.abs(column - per_time)) <= 1e-15


def verb_residuals_by_expm(n, seed, grids):
    """The residuals of holonomy-convergence with the test loop built from
    scipy exponentials, sampled time by time and multiplied as a left fold."""
    rng = np.random.default_rng(seed)
    x, y, z = (random_algebra(n, rng) for _ in range(3))
    g0 = random_special_unitary(n, rng)
    winding = 1j * np.diag([1.0] + [0.0] * (n - 2) + [-1.0])

    def loop(t):
        return (g0 @ scipy.linalg.expm(2 * np.pi * t * winding)
                @ scipy.linalg.expm(np.sin(2 * np.pi * t) * z))

    def hol(samples):
        return reduce(np.matmul, [scipy.linalg.expm(a / len(samples)) for a in samples])

    out = {}
    for steps in grids:
        ts = midpoint_grid(steps)
        conn = np.stack([np.sin(2 * np.pi * t) * x + np.cos(4 * np.pi * t) * y for t in ts])
        gs = np.stack([loop(t) for t in ts])
        moved = gauge_transform_loop(gs, PiecewiseConnection(conn))
        out[str(steps)] = float(np.max(np.abs(hol(moved) - g0 @ hol(conn) @ g0.conj().T)))
    return out


@pytest.mark.parametrize("n,seed", [(2, 0), (3, 1), (4, 2)])
def test_verb_residuals_match_exponential_oracle(n, seed):
    # the closed-form test loop and the halving product against expm and a fold
    code, payload = dispatch(["holonomy-convergence", "--n", str(n), "--seed", str(seed)])
    oracle = verb_residuals_by_expm(n, seed, payload["grids"])
    for steps, r in payload["residuals"].items():
        assert abs(r - oracle[steps]) <= 1e-10 * oracle[steps]


@pytest.mark.parametrize("n", [2, 3, 4])
def test_gauge_action_without_derivative_term_fails(n, monkeypatch):
    # negative control: Ad_g alone does not intertwine holonomy with g(0)
    def conjugation_only(loop, samples):
        gs = check_special_unitary(loop, tol=1e-9)
        return gs @ samples @ gs.conj().swapaxes(-1, -2)

    # the package re-exports the function holonomy under the module's name
    module = importlib.import_module("quasiham.holonomy")
    monkeypatch.setattr(module, "gauge_transform", conjugation_only)
    for seed in range(10):
        code, payload = dispatch(["holonomy-convergence", "--n", str(n), "--seed", str(seed)])
        assert code == 1 and payload["pass"] is False and abs(payload["order"]) < 0.5
