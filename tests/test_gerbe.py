import ast
import importlib
import json
import subprocess
import sys
from fractions import Fraction as Q
from itertools import combinations
from math import comb
from pathlib import Path

import numpy as np
import pytest

from quasiham.cli import dispatch, main, render
from quasiham.errors import InputError
from quasiham.gerbe import eigenline_weights, vertex_weight_consistency
from quasiham.prequant import class_decision
from quasiham.rational import common_denominator
from quasiham.roots import LieType, a_series_numerators, build_root_system
from quasiham.sun import (
    alcove_order,
    expm_skew,
    random_special_unitary,
    torus_point,
)

from oracles import (
    alcove_coordinates,
    cocycle_check,
    cover_index_set,
    format_vector,
    ordered_eig,
    record_check,
    spectral_record,
    transition_weight,
)

gerbe = importlib.import_module("quasiham.gerbe")
cli = importlib.import_module("quasiham.cli")
sun = importlib.import_module("quasiham.sun")


def wedge_coordinates(columns):
    """Coordinates of v_1 ^ ... ^ v_m against the lexicographic wedge basis:
    the m x m minors of the column matrix."""
    n, m = columns.shape
    out = np.empty(comb(n, m), dtype=complex)
    for pos, rows in enumerate(combinations(range(n), m)):
        out[pos] = np.linalg.det(columns[list(rows), :])
    return out


def wedge_product(u, p, v, q, n):
    """Exterior product of a p-vector and a q-vector given in lexicographic
    wedge coordinates on C^n: the exterior-algebra oracle of the
    determinant coefficient."""
    p_sets = list(combinations(range(n), p))
    q_sets = list(combinations(range(n), q))
    out_sets = {s: k for k, s in enumerate(combinations(range(n), p + q))}
    out = np.zeros(comb(n, p + q), dtype=complex)
    for i, s1 in enumerate(p_sets):
        if u[i] == 0:
            continue
        for j, s2 in enumerate(q_sets):
            if set(s1) & set(s2):
                continue
            merged = tuple(sorted(s1 + s2))
            # sign of the shuffle sorting (s1, s2) into merged order
            perm = list(s1 + s2)
            sign = 1
            for x in range(len(perm)):
                for y in range(x + 1, len(perm)):
                    if perm[x] > perm[y]:
                        sign = -sign
            out[out_sets[merged]] += sign * u[i] * v[j]
    return out


def projector(q):
    """Orthogonal projector Q Q* onto the span of orthonormal columns."""
    return q @ q.conj().T


def regular_sample(n, rng, margin=1e-6):
    while True:
        a = random_special_unitary(n, rng)
        lam = alcove_coordinates(a)
        gaps = np.append(lam[:-1] - lam[1:], lam[-1] - lam[0] + 1.0)
        if np.min(gaps) > margin:
            return a


def test_cover_examples_su2():
    assert cover_index_set(np.diag([1j, -1j])) == frozenset({1, 2})
    assert cover_index_set(np.eye(2, dtype=complex)) == frozenset({2})
    assert cover_index_set(-np.eye(2, dtype=complex)) == frozenset({1})


def eigenline_weight(n, i):
    """The i-th eigenline weight e_i - (1/n)(1, ..., 1) as Fractions."""
    return tuple(Q(a, n) for a in eigenline_weights(n)[i - 1])


def test_eigenline_weights():
    assert eigenline_weights(3) == ((2, -1, -1), (-1, 2, -1), (-1, -1, 2))
    assert eigenline_weight(3, 2) == (Q(-1, 3), Q(2, 3), Q(-1, 3))
    for n in (2, 3, 4, 5):
        assert len(eigenline_weights(n)) == n
        assert all(sum(column) == 0 for column in zip(*eigenline_weights(n)))


@pytest.mark.parametrize("n", [2, 3, 4, 5, 6])
def test_vertex_weight_consistency(n):
    assert vertex_weight_consistency(n)


def test_vertex_weight_consistency_can_fail(monkeypatch):
    # vertex 1 of A2 moved off e_1 - (1, 1, 1)/3 breaks the check
    alcove = importlib.import_module("quasiham.alcove")
    model = alcove.alcove_vertices(build_root_system(LieType("A", 2)))
    moved = model._replace(nums=(model.nums[0], (model.nums[1][0] + 1,) + model.nums[1][1:],
                                 model.nums[2]))
    monkeypatch.setattr(alcove, "alcove_vertices", lambda rs: moved)
    assert not vertex_weight_consistency.__wrapped__(3)


def test_cocycle_fails_on_a_tampered_weight_table(monkeypatch):
    # the verb prints the weight table that it checks: with rows 1 and 2
    # swapped the first partial sum misses the first alcove vertex
    honest = eigenline_weights(4)
    swapped = (honest[1], honest[0]) + honest[2:]
    monkeypatch.setattr(gerbe, "eigenline_weights", lambda n: swapped)
    vertex_weight_consistency.cache_clear()
    try:
        code, payload = dispatch(["cocycle", "--n", "4", "--samples", "5"])
    finally:
        vertex_weight_consistency.cache_clear()
    assert code == 1 and payload["pass"] is False
    assert payload["vertex_weight_consistency"] is False
    assert payload["eigenline_weights"] == [format_vector(Q(a, 4) for a in row) for row in swapped]
    assert payload["max_unimodularity_defect"] < payload["tolerance"]


def test_transition_weights_are_eigenline_sums():
    for n in (2, 3, 4):
        rs = build_root_system(LieType("A", n - 1))
        from quasiham.roots import a_series_embedding

        for i in range(n):
            for j in range(i + 1, n):
                expected = tuple(
                    sum(eigenline_weight(n, k)[m] for k in range(i + 1, j + 1))
                    for m in range(n)
                )
                assert a_series_embedding(rs, transition_weight(rs, i, j)) == expected


def test_diagonal_det_line():
    a = torus_point([0.3, 0.1, -0.4])
    record = spectral_record(a)
    assert record.bases[1, 2].shape[1] == 1
    # eigenposition 2 is the phase-0.1 coordinate axis: e_2 up to phase
    mods = np.abs(wedge_coordinates(record.bases[1, 2]))
    assert mods == pytest.approx([0.0, 1.0, 0.0], abs=1e-12)
    assert record.bases[1, 3].shape[1] == 2


def test_det_line_dim_and_equivariance():
    rng = np.random.default_rng(1)
    for _ in range(10):
        a = regular_sample(3, rng)
        g = random_special_unitary(3, rng)
        for i, j in [(1, 2), (1, 3), (2, 3)]:
            q = spectral_record(a).bases[i, j]
            assert q.shape[1] == j - i
            p = projector(q)
            pg = projector(spectral_record(g @ a @ g.conj().T).bases[i, j])
            assert np.max(np.abs(pg - g @ p @ g.conj().T)) < 1e-9


def test_flag_orthogonal_sums():
    rng = np.random.default_rng(2)
    for _ in range(10):
        a = regular_sample(3, rng)
        record = spectral_record(a)
        p12 = projector(record.bases[1, 2])
        p23 = projector(record.bases[2, 3])
        p13 = projector(record.bases[1, 3])
        assert np.max(np.abs(p12 + p23 - p13)) < 1e-9


def test_cocycle_unimodular():
    rng = np.random.default_rng(3)
    for _ in range(25):
        a = regular_sample(3, rng)
        coeff, ok = cocycle_check(a, 1, 2, 3)
        assert ok and abs(abs(coeff) - 1.0) < 1e-8
    for _ in range(5):
        a = regular_sample(4, rng)
        for triple in [(1, 2, 3), (1, 2, 4), (1, 3, 4), (2, 3, 4)]:
            coeff, ok = cocycle_check(a, *triple)
            assert ok and abs(abs(coeff) - 1.0) < 1e-8


def test_diagonal_cocycle_is_one():
    a = torus_point([0.3, 0.1, -0.4])
    coeff = spectral_record(a).coefficient(1, 2, 3)
    assert abs(coeff) == pytest.approx(1.0, abs=1e-12)


def test_collapsed_gap_rejected():
    a = torus_point([0.25, 0.25, -0.5])
    assert (1, 2) not in spectral_record(a).bases
    with pytest.raises(InputError) as err:
        cocycle_check(a, 1, 2, 3)
    assert err.value.code == "outside-cover"
    with pytest.raises(InputError):
        cocycle_check(torus_point([0.2, 0.2, -0.4]), 1, 2, 3)


def test_index_validation():
    a = torus_point([0.3, 0.1, -0.4])
    for triple in [(2, 2, 3), (2, 1, 3)]:
        with pytest.raises(InputError) as err:
            cocycle_check(a, *triple)
        assert err.value.code == "invalid-index"


def cover_to_faces(n, cover):
    """Gap index i corresponds to alcove vertex i mod n."""
    return frozenset(i % n for i in cover)


def _rationalized(lam):
    head = [Q(x).limit_denominator(10**12) for x in lam[:-1]]
    return tuple(head) + (-sum(head),)


@pytest.mark.parametrize("n,samples", [(2, 500), (3, 500)])
def test_cover_matches_open_faces(n, samples):
    rs = build_root_system(LieType("A", n - 1))
    rng = np.random.default_rng(4)
    mats = [random_special_unitary(n, rng) for _ in range(samples)]
    # wall points exercise the boundary cases random sampling never hits
    mats.append(np.eye(n, dtype=complex))
    if n == 2:
        mats.append(-np.eye(2, dtype=complex))
        mats.append(torus_point([0.5, -0.5]))
    if n == 3:
        mats.append(torus_point([0.25, 0.25, -0.5]))
        mats.append(torus_point([0.5, -0.25, -0.25]))
        mats.append(torus_point([Q(1, 3), Q(1, 3), Q(-2, 3)]))
    for a in mats:
        nums, den = common_denominator(_rationalized(alcove_coordinates(a)))
        _, faces = class_decision(rs, a_series_numerators(rs, nums), den, 1)
        assert cover_to_faces(n, cover_index_set(a)) == frozenset(faces)


def test_wedge_algebra():
    rng = np.random.default_rng(5)
    cols = rng.normal(size=(4, 2)) + 1j * rng.normal(size=(4, 2))
    u = wedge_coordinates(cols[:, :1])
    v = wedge_coordinates(cols[:, 1:])
    both = wedge_product(u, 1, v, 1, 4)
    assert np.allclose(both, wedge_coordinates(cols))
    flipped = wedge_product(v, 1, u, 1, 4)
    assert np.allclose(both, -flipped)


@pytest.mark.parametrize("n", [3, 4, 5, 6, 7])
@pytest.mark.parametrize("seed", [0, 1, 2])
def test_determinant_coefficient_matches_wedge_pairing(n, seed):
    # <rep_ik, rep_ij ^ rep_jk> / <rep_ik, rep_ik> in exterior coordinates
    # against the record's one determinant, on every triple
    rng = np.random.default_rng(100 * n + seed)
    a = regular_sample(n, rng)
    record = spectral_record(a)
    assert record.cover == frozenset(range(1, n + 1))
    # and the verb's Gram defect is the oracle's distance from the circle
    defects = gerbe._unimodularity_defects(ordered_eig(a)[1])
    for t, (i, j, k) in enumerate(combinations(range(1, n + 1), 3)):
        full = wedge_coordinates(record.bases[i, k])
        product = wedge_product(
            wedge_coordinates(record.bases[i, j]), j - i,
            wedge_coordinates(record.bases[j, k]), k - j, n,
        )
        oracle = np.vdot(full, product) / np.vdot(full, full)
        assert abs(record.coefficient(i, j, k) - oracle) < 1e-13
        assert cocycle_check(a, i, j, k) == (record.coefficient(i, j, k), True)
        assert abs(defects[t] - abs(abs(oracle) - 1.0)) < 1e-14


def test_record_bases_are_the_det_line_bases():
    # each basis is orthonormal and spans the spectral subspace of its
    # eigenvalue positions: invariant under a, with those eigenvalues
    rng = np.random.default_rng(8)
    a = regular_sample(4, rng)
    record = spectral_record(a)
    for i, j in combinations(range(1, 5), 2):
        q = record.bases[i, j]
        assert q.shape == (4, j - i)
        assert np.max(np.abs(q.conj().T @ q - np.eye(j - i))) < 1e-12
        assert np.max(np.abs(a @ projector(q) - projector(q) @ a)) < 1e-12
        eigenvalues = np.exp(2j * np.pi * record.phases[i:j])
        assert abs(np.trace(q.conj().T @ a @ q) - eigenvalues.sum()) < 1e-12
    assert np.array_equal(record.phases, alcove_coordinates(a))


def test_record_outside_cover_and_index_errors():
    record = spectral_record(torus_point([0.25, 0.25, -0.5]))
    assert record.cover == frozenset({2, 3}) and set(record.bases) == {(2, 3)}
    for triple in [(1, 2, 3), (0, 2, 3), (2, 3, 4)]:
        with pytest.raises(InputError) as err:
            record.coefficient(*triple)
        assert err.value.code == "outside-cover"
    for triple in [(2, 2, 3), (2, 1, 3), (3, 2, 2)]:
        with pytest.raises(InputError) as err:
            record.coefficient(*triple)
        assert err.value.code == "invalid-index"


def test_record_rejects_non_unitary():
    with pytest.raises(InputError) as err:
        spectral_record(2.0 * np.eye(3, dtype=complex))
    assert err.value.code == "not-special-unitary"
    with pytest.raises(InputError) as err:
        spectral_record(np.stack([np.eye(3, dtype=complex), 2.0 * np.eye(3, dtype=complex)]))
    assert err.value.code == "not-special-unitary"
    for shape in [(3, 4), (2, 3, 4), (3,)]:
        with pytest.raises(InputError) as err:
            spectral_record(np.ones(shape, dtype=complex))
        assert err.value.code == "not-square"


def greedy_order(a, vals=None):
    """The alcove phases of one matrix and the order of its eigenvalues vals,
    by default eig's, matched to them greedily: position by position, the
    nearest eigenvalue not yet taken."""
    lam = alcove_coordinates(a)
    vals = np.linalg.eig(a)[0] if vals is None else vals
    unused = list(range(len(vals)))
    order = []
    for t in np.exp(2j * np.pi * lam):
        best = min(unused, key=lambda k: abs(vals[k] - t))
        assert abs(vals[best] - t) <= 1e-6
        order.append(best)
        unused.remove(best)
    return lam, order


def greedy_vectors(a):
    """The eigenvectors of one matrix in the order of greedy_order."""
    return np.linalg.eig(a)[1][:, greedy_order(a)[1]]


def draw_vectors(x):
    """The eigenvectors of exp(x) for one algebra draw x, from the eigh of
    the Hermitian i x that exponentiates it, in the order greedy_order
    matches their eigenvalues e^{-i lam} to the phases of exp(x)."""
    lam, v = np.linalg.eigh(0.5j * (x - x.conj().T))
    return v[:, greedy_order(expm_skew(x), np.exp(-1j * lam))[1]]


def record_per_matrix(a):
    """The record of one matrix as built before records took stacks and
    before alcove_order: a greedy Python match of eigenvalues to phases and
    one QR per pair."""
    lam = alcove_coordinates(a)
    vecs = greedy_vectors(a)
    gaps = np.append(lam[:-1] - lam[1:], lam[-1] - (lam[0] - 1.0))
    cover = frozenset(i + 1 for i, g in enumerate(gaps) if g > 1e-9)
    bases = {(i, j): np.linalg.qr(vecs[:, i:j])[0] for i in cover for j in cover if i < j}
    return lam, cover, bases


@pytest.mark.parametrize("n", [2, 3, 4, 5, 6, 7, 8])
def test_alcove_order_is_the_greedy_match_on_regular_matrices(n):
    # away from the walls the nearest eigenvalue of each phase is its own,
    # so the permutation is the one the matching loop found, row by row of
    # a stack too
    rng = np.random.default_rng(60 + n)
    mats = np.stack([regular_sample(n, rng) for _ in range(20)])
    lam, order = alcove_order(np.linalg.eig(mats)[0])
    assert np.array_equal(lam, alcove_coordinates(mats))
    for a, row in zip(mats, order):
        assert row.tolist() == greedy_order(a)[1]


# torus points on walls: repeated phases, and phases within 1e-10 of 0 and
# of 1, which cluster across the wrap
WALL_POINTS = [
    [0.25, 0.25, -0.5], [0.4, -0.2, -0.2], [1 / 3, 1 / 3, -2 / 3], [1e-10, 0.0, -1e-10],
    [0.3, 0.3, -0.3, -0.3], [0.25, 1e-10, -1e-10, -0.25], [0.5, 0.0, 0.0, -0.5],
    [0.2, 0.2, 1e-10, -1e-10, -0.4], [0.0] * 6, [0.3, 0.1, 0.1, 1e-10, -2e-10, -0.5 + 1e-10],
]


@pytest.mark.parametrize("point", WALL_POINTS)
def test_alcove_order_on_walls_keeps_the_cover_blocks(point):
    # inside a snapped cluster the order may differ from the matching loop;
    # every eigenvalue still sits at its phase, and each cover block spans
    # the oracle's subspace, which is the true spectral subspace
    n = len(point)
    rng = np.random.default_rng(70 + n)
    us = np.stack([random_special_unitary(n, rng) for _ in range(4)])
    mats = us @ torus_point(point) @ us.conj().swapaxes(-1, -2)
    d = np.linalg.eig(mats)[0]
    lam, order = alcove_order(d)
    assert np.max(np.abs(np.take_along_axis(d, order, axis=-1)
                         - np.exp(2j * np.pi * lam))) <= 1e-6
    record = spectral_record(mats)
    for p, (a, u) in enumerate(zip(mats, us)):
        phases, cover, bases = record_per_matrix(a)
        assert record.cover == cover and len(cover) < n
        for (i, j), q in bases.items():
            mine = projector(record.bases[i, j][p])
            assert np.max(np.abs(mine - projector(q))) <= 1e-9
            assert np.max(np.abs(mine - projector(u[:, i:j]))) <= 1e-9


def coefficient_per_matrix(bases, i, j, k):
    full = bases[i, k].conj().T
    both = np.hstack([bases[i, j], bases[j, k]])
    return complex(np.linalg.det(full @ both) / np.linalg.det(full @ bases[i, k]))


@pytest.mark.parametrize("n", [3, 4, 5, 6])
@pytest.mark.parametrize("seed", [0, 1])
def test_stacked_record_equals_per_matrix_records(n, seed):
    rng = np.random.default_rng(40 + 10 * n + seed)
    mats = np.stack([regular_sample(n, rng) for _ in range(4)])
    record = spectral_record(mats)
    assert record.phases.shape == (4, n) and record.cover == frozenset(range(1, n + 1))
    for p, a in enumerate(mats):
        lam, cover, bases = record_per_matrix(a)
        assert np.array_equal(record.phases[p], lam) and record.cover == cover
        assert record.bases.keys() == bases.keys()
        for key, q in bases.items():
            assert record.bases[key].shape == (4, n, key[1] - key[0])
            assert np.array_equal(record.bases[key][p], q)
        for triple in combinations(range(1, n + 1), 3):
            assert record.coefficient(*triple)[p] == coefficient_per_matrix(bases, *triple)
    # one matrix is the same record without the leading axis
    one = spectral_record(mats[2])
    assert np.array_equal(one.phases, record.phases[2])
    assert all(np.array_equal(one.bases[key], q[2]) for key, q in record.bases.items())
    assert one.coefficient(1, 2, 3) == record.coefficient(1, 2, 3)[2]
    assert record_check(one, 1, 2, 3) == (one.coefficient(1, 2, 3), True)


def test_stacked_record_cover_is_the_pieces_containing_every_matrix():
    wall = torus_point([0.25, 0.25, -0.5])  # cover {2, 3}
    generic = regular_sample(3, np.random.default_rng(9))
    record = spectral_record(np.stack([generic, wall, generic]))
    assert record.cover == frozenset({2, 3}) and set(record.bases) == {(2, 3)}
    assert np.array_equal(record.bases[2, 3][1], record_per_matrix(wall)[2][2, 3])
    with pytest.raises(InputError) as err:
        record.coefficient(1, 2, 3)
    assert err.value.code == "outside-cover"
    coeff, ok = record_check(spectral_record(np.stack([generic, generic])), 1, 2, 3)
    assert coeff.shape == (2,) and ok.tolist() == [True, True]


def test_stacked_record_spans_degenerate_eigenspaces():
    # two positions share an eigenvalue: each takes its own eigenvector
    rng = np.random.default_rng(17)
    us = np.stack([random_special_unitary(3, rng) for _ in range(3)])
    mats = us @ torus_point([0.4, -0.2, -0.2]) @ us.conj().swapaxes(-1, -2)
    record = spectral_record(mats)
    assert record.cover == frozenset({1, 3})
    q = record.bases[1, 3]
    assert np.max(np.abs(q.conj().swapaxes(-1, -2) @ q - np.eye(2))) < 1e-12
    eigenspace = us[:, :, 1:] @ us[:, :, 1:].conj().swapaxes(-1, -2)
    assert np.max(np.abs(q @ q.conj().swapaxes(-1, -2) - eigenspace)) < 1e-9


def cocycle_payload_per_sample(n, samples, seed):
    """The cocycle verb as a loop over samples: the Gram defects of each
    accepted draw's greedily ordered eigenvectors."""
    rng = np.random.default_rng(seed)
    worst, rejected, done = 0.0, 0, 0
    while done < samples:
        x = sun.random_algebra(n, rng)  # looked up at each call, as scalar_draws patches it
        if len(cover_index_set(expm_skew(x))) < n:
            rejected += 1
            continue
        worst = max(worst, float(np.max(gerbe._unimodularity_defects(draw_vectors(x)))))
        done += 1
    return {
        "n": n, "samples": samples, "rejected": rejected, "max_unimodularity_defect": worst,
        "tolerance": 1e-8,
        "eigenline_weights": [format_vector(eigenline_weight(n, i)) for i in range(1, n + 1)],
        "vertex_weight_consistency": True, "pass": worst < 1e-8,
    }


@pytest.mark.parametrize("n", [3, 4, 5, 6])
@pytest.mark.parametrize("seed", [0, 7, 1234567])
def test_cocycle_payload_equals_per_sample_loop(n, seed):
    code, payload = dispatch(["cocycle", "--n", str(n), "--samples", "5", "--seed", str(seed)])
    assert code == 0
    assert render(payload, True) == render(cocycle_payload_per_sample(n, 5, seed), True)


def scalar_draws(monkeypatch, rows):
    """Make the draws of the given row numbers, counted over every algebra
    draw from now on, zero: their exponential is the identity, which lies on
    a wall and is rejected."""
    real, drawn = sun.random_algebra, [0]

    def draw(n, rng, shape=()):
        out = real(n, rng, shape)
        flat = out.reshape(-1, n, n)
        for k in range(len(flat)):
            if drawn[0] + k in rows:
                flat[k] = 0.0
        drawn[0] += len(flat)
        return out

    monkeypatch.setattr(sun, "random_algebra", draw)


def test_cocycle_sampling_failure_exits_3(monkeypatch):
    # every draw is the identity, which lies on a wall: the verb gives up
    # after 100 draws per sample, a fault of its own sampling, not of argv
    scalar_draws(monkeypatch, range(10**9))
    code, out, err = cli.run(["cocycle", "--n", "3", "--samples", "3"])
    assert code == 3 and out == ""
    assert err.startswith("internal-error: ToolkitError: sampling failed")


def loop_draws(n, samples, seed):
    """The accepted algebra draws and the rejected count of the cocycle verb
    as a loop that draws one matrix at a time."""
    rng, accepted, rejected = np.random.default_rng(seed), [], 0
    while len(accepted) < samples:
        x = sun.random_algebra(n, rng)
        if len(cover_index_set(expm_skew(x))) < n:
            rejected += 1
        else:
            accepted.append(x)
    return np.stack(accepted), rejected


@pytest.mark.parametrize("n", [3, 4, 5])
@pytest.mark.parametrize("scalar,stacks", [((), 1), ((1,), 2), ((1, 4, 5), 3)])
def test_cocycle_draws_equal_the_loop(n, scalar, stacks, monkeypatch):
    # one eigh per stack of draws, the one that exponentiates them, and no
    # eig or eigvals; each stack's defects are taken from the ordered vectors
    # of its eigh; the rejected draws are made up in the next stack: with
    # draws 1, 4 and 5 rejected the stacks are draws 0-4, 5-6 and 7
    calls, stacked = {"eigh": [], "eig": [], "eigvals": []}, []
    defects = gerbe._unimodularity_defects
    with monkeypatch.context() as patch:
        patch.setattr(gerbe, "_unimodularity_defects",
                      lambda vecs: stacked.append(vecs) or defects(vecs))
        for name in calls:
            real = getattr(np.linalg, name)
            patch.setattr(np.linalg, name,
                          lambda a, name=name, real=real: calls[name].append(a) or real(a))
        scalar_draws(patch, scalar)
        code, payload = dispatch(["cocycle", "--n", str(n), "--samples", "5", "--seed", "11"])
    assert code == 0 and payload["rejected"] == len(scalar)
    # every draw is decomposed once: the accepted five and the rejected ones
    assert len(calls["eigh"]) == stacks and sum(map(len, calls["eigh"])) == 5 + len(scalar)
    assert calls["eig"] == calls["eigvals"] == []
    with monkeypatch.context() as patch:
        scalar_draws(patch, scalar)
        accepted, rejected = loop_draws(n, 5, 11)
    with monkeypatch.context() as patch:
        scalar_draws(patch, scalar)
        expected = cocycle_payload_per_sample(n, 5, 11)
    assert len(stacked) == stacks
    assert rejected == payload["rejected"]
    assert np.array_equal(np.concatenate(stacked),
                          np.stack([draw_vectors(x) for x in accepted]))
    assert render(payload, True) == render(expected, True)


@pytest.mark.parametrize("stack", [1, 2, 3, 7])
def test_cocycle_stack_size_changes_no_byte(stack, monkeypatch):
    # the draws come in the generator's order whatever the stack size, and
    # the worst defect is the worst of the stacks' worst
    argv = ["cocycle", "--n", "4", "--samples", "7", "--seed", "3"]
    code, payload = dispatch(argv)
    stacked = []
    defects = gerbe._unimodularity_defects
    monkeypatch.setattr(gerbe, "COCYCLE_STACK", stack)
    monkeypatch.setattr(gerbe, "_unimodularity_defects",
                        lambda vecs: stacked.append(len(vecs)) or defects(vecs))
    again, repeat = dispatch(argv)
    assert (again, render(repeat, True)) == (code, render(payload, True))
    assert stacked == [min(stack, 7 - i) for i in range(0, 7, stack)]


def tamper_vectors(monkeypatch, tamper):
    """Make the cocycle verb take its defects from eigenvectors changed in
    place by tamper."""
    honest = gerbe._unimodularity_defects

    def tampered(vecs):
        vecs = vecs.copy()
        tamper(vecs)
        return honest(vecs)

    monkeypatch.setattr(gerbe, "_unimodularity_defects", tampered)


def next_sample_tail(vecs):
    # the columns from index 2 on are those of the next sample
    vecs[..., 2:] = np.roll(vecs, -1, axis=0)[..., 2:]


def mixed_column(vecs):
    # column 2 becomes (v_2 + v_1)/sqrt 2: blocks 1..2 and 2..3 overlap
    vecs[..., 2] = (vecs[..., 2] + vecs[..., 1]) / np.sqrt(2)


def swapped_columns(vecs):
    # an equivalent mutant: a permutation keeps the Gram matrix the identity
    vecs[..., [1, 2]] = vecs[..., [2, 1]]


def test_cocycle_fails_on_a_record_with_a_wrong_block(monkeypatch):
    # blocks that are not orthogonal across a gap give coefficients off the
    # unit circle: another sample's columns, or a column mixed with its
    # neighbour, whose triple (1, 2, 3) reads 1 - 1/sqrt 2
    for tamper, low, high in [(next_sample_tail, 0.1, 1.0),
                              (mixed_column, 1 - 0.5**0.5 - 1e-12, 1 - 0.5**0.5 + 1e-12)]:
        with monkeypatch.context() as patch:
            tamper_vectors(patch, tamper)
            for n in (3, 4, 5):
                code, payload = dispatch(["cocycle", "--n", str(n), "--samples", "5"])
                assert code == 1 and payload["pass"] is False
                assert low < payload["max_unimodularity_defect"] < high
            assert main(["cocycle", "--n", "4", "--samples", "5"]) == 1
    # a wrong order of the columns is not seen here: the subspace tests
    # catch it
    tamper_vectors(monkeypatch, swapped_columns)
    code, payload = dispatch(["cocycle", "--n", "4", "--samples", "5"])
    assert code == 0 and payload["max_unimodularity_defect"] < 1e-15


def test_non_finite_cocycle_defect_exits_3(monkeypatch, capsys):
    # NaN eigenvectors are a fault of the program, not a failed verification;
    # slogdet's warning on them is silenced so that the guard is reached
    tamper_vectors(monkeypatch, lambda vecs: vecs.fill(np.nan))
    with np.errstate(invalid="ignore"):
        assert main(["cocycle", "--n", "3", "--samples", "2"]) == 3
    assert capsys.readouterr() == ("", "internal-error: ToolkitError: non-finite cocycle defect\n")


def test_one_non_finite_defect_in_a_later_stack_exits_3(monkeypatch, capsys):
    # Python's max(0.0, nan) is 0.0: the running worst must not swallow a NaN
    # that one sample of the second stack brings
    honest, calls = gerbe._unimodularity_defects, []

    def tampered(vecs):
        out = honest(vecs)
        calls.append(len(vecs))
        if len(calls) == 2:
            out[0, -1] = np.nan
        return out

    monkeypatch.setattr(gerbe, "COCYCLE_STACK", 2)
    monkeypatch.setattr(gerbe, "_unimodularity_defects", tampered)
    assert main(["cocycle", "--n", "3", "--samples", "5"]) == 3
    assert calls == [2, 2]
    assert capsys.readouterr() == ("", "internal-error: ToolkitError: non-finite cocycle defect\n")


@pytest.mark.parametrize("n", [4, 6])
def test_cocycle_takes_one_slogdet_per_pair(n, monkeypatch):
    # one log-determinant per pair of eigenvalue positions over the whole
    # stack, and no QR and no determinant
    calls = {"slogdet": [], "qr": [], "det": []}
    for name in calls:
        real = getattr(np.linalg, name)
        monkeypatch.setattr(np.linalg, name,
                            lambda a, name=name, real=real: calls[name].append(a.shape) or real(a))
    code, _ = dispatch(["cocycle", "--n", str(n), "--samples", "3"])
    assert code == 0 and calls["qr"] == calls["det"] == []
    assert sorted(calls["slogdet"]) == sorted((3, k - i, k - i)
                                              for i, k in combinations(range(1, n + 1), 2))


def test_cocycle_memory_holds_only_the_eigenvectors():
    # the verb draws and reduces a fixed-size stack of samples at a time: at
    # n = 16 and 2000 samples the child peaks near 50 MB, as at 500, while
    # keeping every sample's eigenvectors took 89 MB and anything that holds
    # S n^4 numbers, such as a basis per pair of positions, passes 400 MB.
    # The child reads its own peak, VmHWM in KiB: Linux folds the
    # resident size of the process it was forked from into RUSAGE_SELF's
    # ru_maxrss at exec, so from a large test process that would read the
    # parent's size
    code = (
        "import sys\n"
        "from quasiham.cli import main\n"
        "code = main(['cocycle', '--n', '16', '--samples', '2000', '--json'])\n"
        "with open('/proc/self/status') as fh:\n"
        "    hwm = next(line.split()[1] for line in fh if line.startswith('VmHWM:'))\n"
        "print(hwm, file=sys.stderr)\n"
        "sys.exit(code)\n"
    )
    proc = subprocess.run([sys.executable, "-c", code], capture_output=True, text=True)
    assert proc.returncode == 0 and json.loads(proc.stdout)["pass"] is True
    assert int(proc.stderr) < 60 * 1024


def test_cli_holds_no_cocycle_algorithm():
    # the draws, the stack size and the defects live in gerbe: the command
    # line imports no private name of it and sets no stack size of its own
    tree = ast.parse(Path(cli.__file__).read_text())
    imported = [alias.name for node in ast.walk(tree) if isinstance(node, ast.ImportFrom)
                and (node.module or "").split(".")[-1] == "gerbe" for alias in node.names]
    assert imported and not [name for name in imported if name.startswith("_")]
    assert not [node for node in ast.walk(tree)
                if getattr(node, "id", getattr(node, "attr", None)) == "COCYCLE_STACK"
                and isinstance(getattr(node, "ctx", None), ast.Store)]


def test_cocycle_dispatch_loads_no_fractions():
    # the eigenline weights are integer numerators over n from the table to
    # the printed text
    code = (
        "import sys\n"
        "from quasiham.cli import dispatch\n"
        "code, payload = dispatch(['cocycle', '--n', '3', '--samples', '5'])\n"
        "assert code == 0 and payload['pass'], payload\n"
        "sys.exit('fractions' in sys.modules)\n"
    )
    proc = subprocess.run([sys.executable, "-c", code], capture_output=True, text=True)
    assert proc.returncode == 0, proc.stderr
