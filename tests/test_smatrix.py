"""A completeness witness for the level-k weights: the Kac-Peterson S-matrix.

Summed over the level-k alcove weights with the dual Coxeter number h, the
S-matrix of the level-k WZW model is unitary and symmetric, its square is a
permutation (the charge conjugation), and the Verlinde numbers it gives are
integers.  These are modular identities: they hold only for exactly the
right set and the right h, however the set was built, so a wrong comark or
dual Coxeter number, which would move the enumeration, its re-check and the
Fraction oracles of tests/test_alcove.py together, fails them.

    S_lm = i^|D+| |P / (k + h) Q^v|^(-1/2)
           sum_{w in W} det(w) exp(-2 pi i (w(l + rho), m + rho) / (k + h))

with W the closure of the simple reflections acting on simple-root
coordinates, and |P / (k + h) Q^v| = (k + h)^r det(Cartan) / prod d_i from
the lattice volumes, d_i = (a_i, a_i) / 2.  With the T-matrix of the
conformal weights and the central charge,

    T = diag exp(2 pi i (h_l - c / 24)),  h_l = (l, l + 2 rho) / (2 (k + h)),
    c = k dim G / (k + h),

(ST)^3 = S^2: a check of h that does not go through S.
"""

from functools import cache
from math import comb, prod

import numpy as np
import pytest

from quasiham.alcove import level_weights
from quasiham.roots import LieType, build_root_system

from oracles import gram as oracle_gram

# The table's types whose Weyl group has at most a few thousand elements,
# each at two levels (A1 more, for the closed form below).
CASES = [("A1", k) for k in range(1, 7)] + [
    (name, k) for name in ("A2", "A3", "A4", "A5", "A6", "B3", "B4", "B5", "C2", "C3", "C4",
                           "C5", "D4", "D5", "G2", "F4")
    for k in (1, 2)
]


def weyl_group(cartan):
    """The Weyl group as integer matrices on simple-root coordinates, with
    the sign of each element: the closure of s_i(v) = v - (v, a_i^v) a_i,
    where (a_m, a_i^v) = cartan[m][i], one length at a time."""
    c = np.array(cartan, dtype=np.int64)
    r = len(c)
    gens = []
    for i in range(r):
        s = np.eye(r, dtype=np.int64)
        s[i] -= c[:, i]
        gens.append(s)
    eye = np.eye(r, dtype=np.int64)
    seen, layer, elements, signs, sign = {eye.tobytes()}, [eye], [eye], [1], 1
    while layer:
        sign = -sign
        grown = []
        for w in layer:
            for s in gens:
                ws = s @ w
                key = ws.tobytes()
                if key not in seen:
                    seen.add(key)
                    grown.append(ws)
        elements += grown
        signs += [sign] * len(grown)
        layer = grown
    return np.array(elements), np.array(signs)


def s_matrix(rs, weights, k, dual_coxeter):
    """The level-k S-matrix over weights, given as simple-root coordinate
    rows."""
    w_elems, signs = weyl_group(rs.cartan_matrix)
    rho = np.array(rs.inverse_cartan, dtype=float).sum(axis=0) / rs.det
    gram = np.array(oracle_gram(rs), dtype=float)
    shifted = np.asarray(weights, dtype=float) + rho
    moved = np.einsum("wij,lj->wli", w_elems, shifted)
    k_h = k + dual_coxeter
    phases = np.exp(-2j * np.pi * (moved @ gram @ shifted.T) / k_h)
    halves = [oracle_gram(rs)[i][i] / 2 for i in range(rs.rank)]
    volume = k_h**rs.rank * round(np.linalg.det(np.array(rs.cartan_matrix, dtype=float)))
    volume /= float(prod(halves))
    return 1j ** len(rs.positive_roots) * np.einsum("w,wlm->lm", signs, phases) / np.sqrt(volume)


def weight_rows(rs, k):
    """The level-k weights as float rows, the origin first."""
    lws = level_weights(rs, k)
    return np.array(lws.nums, dtype=float) / lws.den


def t_phases(rs, weights, k, dual_coxeter):
    """The diagonal of the level-k T-matrix over weights."""
    rho = np.array(rs.inverse_cartan, dtype=float).sum(axis=0) / rs.det
    gram = np.array(oracle_gram(rs), dtype=float)
    k_h = k + dual_coxeter
    conformal = np.einsum("li,ij,lj->l", weights, gram, weights + 2 * rho) / (2 * k_h)
    charge = k * (rs.rank + 2 * len(rs.positive_roots)) / k_h
    return np.exp(2j * np.pi * (conformal - charge / 24))


@cache
def case(name, k):
    """The root system, the level-k weights and their S-matrix, once per case."""
    rs = build_root_system(LieType.parse(name))
    weights = weight_rows(rs, k)
    return rs, weights, s_matrix(rs, weights, k, rs.dual_coxeter)


def defects(s):
    """max |S S* - 1|, max |S - S^T| and the distance of S^2 from the
    nearest permutation matrix."""
    eye = np.eye(len(s))
    square = s @ s
    perm = np.zeros_like(eye)
    perm[np.arange(len(s)), np.argmax(np.abs(square), axis=1)] = 1.0
    return (np.max(np.abs(s @ s.conj().T - eye)), np.max(np.abs(s - s.T)),
            np.max(np.abs(square - perm)) + np.max(np.abs(perm.sum(axis=0) - 1.0)))


def verlinde(s, genus):
    """sum over lambda of S_{0 lambda}^(2 - 2 genus); the origin is row 0."""
    return float(np.sum(np.abs(s[0]) ** (2 - 2 * genus)))


@pytest.mark.parametrize("name,k", CASES)
def test_s_matrix_is_unitary_symmetric_and_squares_to_a_permutation(name, k):
    s = case(name, k)[2]
    assert max(defects(s)) < 1e-9
    for genus in (2, 3):
        number = verlinde(s, genus)
        assert abs(number - round(number)) < 1e-9 * number
    if name == "A1":
        assert round(verlinde(s, 2)) == comb(k + 3, 3)  # (k+1)(k+2)(k+3)/6


@pytest.mark.parametrize("name,k", [("A2", 2), ("B3", 3), ("G2", 4), ("C3", 2)])
def test_s_matrix_fails_on_a_wrong_set_or_dual_coxeter(name, k):
    rs = build_root_system(LieType.parse(name))
    weights = weight_rows(rs, k)
    assert max(defects(s_matrix(rs, weights, k, rs.dual_coxeter))) < 1e-9
    # one weight dropped, keeping the origin first, or h^v one too large
    for rows, h in ((weights[:-1], rs.dual_coxeter), (weights, rs.dual_coxeter + 1)):
        assert defects(s_matrix(rs, rows, k, h))[0] > 0.05


@pytest.mark.parametrize("name,k,wrong", [("B3", 3, (1, 1, 1)), ("G2", 4, (1, 1))])
def test_s_matrix_fails_on_a_wrong_comark(name, k, wrong):
    # a lowered comark grows the enumeration, its re-check's bound and h^v
    # together (B3 at level 3 gives 20 weights instead of 13, G2 at 4 15
    # instead of 9); the S-matrix, which reads neither, is not unitary
    rs = build_root_system(LieType.parse(name))
    faulty = rs._replace(comarks=wrong)
    lws = level_weights(faulty, k)
    assert len(lws.nums) > len(level_weights(rs, k).nums)
    s = s_matrix(rs, np.array(lws.nums, dtype=float) / lws.den, k, 1 + sum(wrong))
    assert defects(s)[0] > 0.05


@pytest.mark.parametrize("name,k", CASES)
def test_st_cubed_is_s_squared(name, k):
    rs, weights, s = case(name, k)

    def defect(t):
        st = s * t
        return np.max(np.abs(st @ st @ st - s @ s))

    t = t_phases(rs, weights, k, rs.dual_coxeter)
    assert defect(t) < 1e-10
    # the opposite sign of T fails wherever the charge conjugation S^2 is
    # not the identity, which pins the sign; h^v + 1 in T alone fails on
    # every case (at 0.149 or more)
    if np.max(np.abs(s @ s - np.eye(len(s)))) > 0.5:
        assert defect(t.conj()) > 0.5
    assert defect(t_phases(rs, weights, k, rs.dual_coxeter + 1)) > 0.1
