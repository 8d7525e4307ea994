import importlib
from dataclasses import replace
from fractions import Fraction as Q
from itertools import combinations
from math import comb

import numpy as np
import pytest

from quasiham.alcove import open_face_set
from quasiham.cli import dispatch, main, render
from quasiham.errors import InputError
from quasiham.gerbe import (
    cocycle_check,
    cover_index_set,
    eigenline_weight,
    spectral_record,
    vertex_weight_consistency,
)
from quasiham.rational import format_vector
from quasiham.roots import LieType, a_series_from_euclidean, build_root_system
from quasiham.sun import alcove_coordinates, random_special_unitary, torus_point

gerbe = importlib.import_module("quasiham.gerbe")


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


def test_eigenline_weights():
    assert eigenline_weight(3, 2) == (Q(-1, 3), Q(2, 3), Q(-1, 3))
    for n in (2, 3, 4, 5):
        total = tuple(sum(eigenline_weight(n, i)[k] for i in range(1, n + 1)) for k in range(n))
        assert all(t == 0 for t in total)
    with pytest.raises(InputError):
        eigenline_weight(3, 4)


@pytest.mark.parametrize("n", [2, 3, 4, 5, 6])
def test_vertex_weight_consistency(n):
    assert vertex_weight_consistency(n)


def test_transition_weights_are_eigenline_sums():
    for n in (2, 3, 4):
        rs = build_root_system(LieType("A", n - 1))
        from quasiham.alcove import transition_weight
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
    assert record.basis(1, 2).shape[1] == 1
    # eigenposition 2 is the phase-0.1 coordinate axis: e_2 up to phase
    mods = np.abs(wedge_coordinates(record.basis(1, 2)))
    assert mods == pytest.approx([0.0, 1.0, 0.0], abs=1e-12)
    assert record.basis(1, 3).shape[1] == 2


def test_det_line_dim_and_equivariance():
    rng = np.random.default_rng(1)
    for _ in range(10):
        a = regular_sample(3, rng)
        g = random_special_unitary(3, rng)
        for i, j in [(1, 2), (1, 3), (2, 3)]:
            q = spectral_record(a).basis(i, j)
            assert q.shape[1] == j - i
            p = projector(q)
            pg = projector(spectral_record(g @ a @ g.conj().T).basis(i, j))
            assert np.max(np.abs(pg - g @ p @ g.conj().T)) < 1e-9


def test_flag_orthogonal_sums():
    rng = np.random.default_rng(2)
    for _ in range(10):
        a = regular_sample(3, rng)
        record = spectral_record(a)
        p12 = projector(record.basis(1, 2))
        p23 = projector(record.basis(2, 3))
        p13 = projector(record.basis(1, 3))
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
    with pytest.raises(InputError) as err:
        spectral_record(a).basis(1, 2)
    assert err.value.code == "outside-cover"
    with pytest.raises(InputError):
        cocycle_check(a, 1, 2, 3)
    with pytest.raises(InputError):
        cocycle_check(torus_point([0.2, 0.2, -0.4]), 1, 2, 3)


def test_index_validation():
    a = torus_point([0.3, 0.1, -0.4])
    with pytest.raises(InputError):
        spectral_record(a).basis(2, 2)
    with pytest.raises(InputError):
        cocycle_check(a, 2, 1, 3)


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
        lam = alcove_coordinates(a)
        xi = a_series_from_euclidean(rs, _rationalized(lam))
        faces = open_face_set(rs, xi)
        assert cover_to_faces(n, cover_index_set(a)) == faces


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
    for i, j, k in combinations(range(1, n + 1), 3):
        full = wedge_coordinates(record.basis(i, k))
        product = wedge_product(
            wedge_coordinates(record.basis(i, j)), j - i,
            wedge_coordinates(record.basis(j, k)), k - j, n,
        )
        oracle = np.vdot(full, product) / np.vdot(full, full)
        assert abs(record.coefficient(i, j, k) - oracle) < 1e-13
        assert cocycle_check(a, i, j, k) == (record.coefficient(i, j, k), True)


def test_record_bases_are_the_det_line_bases():
    # each basis is orthonormal and spans the spectral subspace of its
    # eigenvalue positions: invariant under a, with those eigenvalues
    rng = np.random.default_rng(8)
    a = regular_sample(4, rng)
    record = spectral_record(a)
    for i, j in combinations(range(1, 5), 2):
        q = record.basis(i, j)
        assert q is record.bases[i, j] and q.shape == (4, j - i)
        assert np.max(np.abs(q.conj().T @ q - np.eye(j - i))) < 1e-12
        assert np.max(np.abs(a @ projector(q) - projector(q) @ a)) < 1e-12
        eigenvalues = np.exp(2j * np.pi * record.phases[i:j])
        assert abs(np.trace(q.conj().T @ a @ q) - eigenvalues.sum()) < 1e-12
    assert np.array_equal(record.phases, alcove_coordinates(a))


def test_record_outside_cover_and_index_errors():
    record = spectral_record(torus_point([0.25, 0.25, -0.5]))
    assert record.cover == frozenset({2, 3})
    for call, args in [(record.basis, (1, 2)), (record.coefficient, (1, 2, 3))]:
        with pytest.raises(InputError) as err:
            call(*args)
        assert err.value.code == "outside-cover"
    for call, args in [(record.basis, (2, 2)), (record.basis, (0, 4)),
                       (record.coefficient, (2, 1, 3))]:
        with pytest.raises(InputError) as err:
            call(*args)
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


def record_per_matrix(a):
    """The record of one matrix as built before records took stacks: a
    greedy Python match of eigenvalues to phases and one QR per pair."""
    lam = alcove_coordinates(a)
    vals, vecs = np.linalg.eig(a)
    unused = list(range(len(vals)))
    order = []
    for t in np.exp(2j * np.pi * lam):
        best = min(unused, key=lambda k: abs(vals[k] - t))
        assert abs(vals[best] - t) <= 1e-6
        order.append(best)
        unused.remove(best)
    vecs = vecs[:, order]
    gaps = np.append(lam[:-1] - lam[1:], lam[-1] - (lam[0] - 1.0))
    cover = frozenset(i + 1 for i, g in enumerate(gaps) if g > 1e-9)
    bases = {(i, j): np.linalg.qr(vecs[:, i:j])[0] for i in cover for j in cover if i < j}
    return lam, cover, bases


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
    assert one.check(1, 2, 3) == (one.coefficient(1, 2, 3), True)


def test_stacked_record_cover_is_the_pieces_containing_every_matrix():
    wall = torus_point([0.25, 0.25, -0.5])  # cover {2, 3}
    generic = regular_sample(3, np.random.default_rng(9))
    record = spectral_record(np.stack([generic, wall, generic]))
    assert record.cover == frozenset({2, 3}) and set(record.bases) == {(2, 3)}
    assert np.array_equal(record.basis(2, 3)[1], record_per_matrix(wall)[2][2, 3])
    with pytest.raises(InputError) as err:
        record.coefficient(1, 2, 3)
    assert err.value.code == "outside-cover"
    coeff, ok = spectral_record(np.stack([generic, generic])).check(1, 2, 3)
    assert coeff.shape == (2,) and ok.tolist() == [True, True]


def test_stacked_record_spans_degenerate_eigenspaces():
    # two positions share an eigenvalue: each takes its own eigenvector
    rng = np.random.default_rng(17)
    us = np.stack([random_special_unitary(3, rng) for _ in range(3)])
    mats = us @ torus_point([0.4, -0.2, -0.2]) @ us.conj().swapaxes(-1, -2)
    record = spectral_record(mats)
    assert record.cover == frozenset({1, 3})
    q = record.basis(1, 3)
    assert np.max(np.abs(q.conj().swapaxes(-1, -2) @ q - np.eye(2))) < 1e-12
    eigenspace = us[:, :, 1:] @ us[:, :, 1:].conj().swapaxes(-1, -2)
    assert np.max(np.abs(q @ q.conj().swapaxes(-1, -2) - eigenspace)) < 1e-9


def cocycle_payload_per_sample(n, samples, seed):
    """The cocycle verb as a loop over samples, one record per draw."""
    rng = np.random.default_rng(seed)
    worst, rejected, done = 0.0, 0, 0
    while done < samples:
        lam, cover, bases = record_per_matrix(random_special_unitary(n, rng))
        if len(cover) < n:
            rejected += 1
            continue
        for triple in combinations(range(1, n + 1), 3):
            coeff = coefficient_per_matrix(bases, *triple)
            assert abs(coeff) > 1e-8
            worst = max(worst, abs(abs(coeff) - 1.0))
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


def wrong_block_record(shift):
    """spectral_record with Q_jk replaced by a wrong basis: the eigenvector
    block one position early (shift="position") or the block of the next
    sample of the stack (shift="sample")."""
    honest = gerbe.spectral_record

    def tampered(a, *args, **kwargs):
        record = honest(a, *args, **kwargs)
        bases = dict(record.bases)
        for (j, k), q in record.bases.items():
            if j > 1 and shift == "position":
                bases[j, k] = honest(a).bases[j - 1, k - 1]
            elif j > 1:
                bases[j, k] = np.roll(q, 1, axis=0)
        return replace(record, bases=bases)

    return tampered


def test_cocycle_fails_on_a_record_with_a_wrong_block(monkeypatch):
    # another sample's block gives coefficients off the unit circle
    monkeypatch.setattr(gerbe, "spectral_record", wrong_block_record("sample"))
    for n in (3, 4, 5):
        code, payload = dispatch(["cocycle", "--n", str(n), "--samples", "5"])
        assert code == 1 and payload["pass"] is False
        assert payload["max_unimodularity_defect"] > 1e-2
    # the block one position early shares a line with Q_ij: the coefficient
    # collapses, a unimodularity defect of one
    monkeypatch.setattr(gerbe, "spectral_record", wrong_block_record("position"))
    code, payload = dispatch(["cocycle", "--n", "4", "--samples", "5"])
    assert code == 1 and payload["pass"] is False
    assert payload["max_unimodularity_defect"] > 0.99
    assert main(["cocycle", "--n", "4", "--samples", "5"]) == 1
