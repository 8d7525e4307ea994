"""Acceptance suite: one test per criterion, each printing a PASS/FAIL line.

Run with `pytest tests/test_acceptance.py -v -s` to see the per-criterion
report lines.  Tolerances are fixed here, not tuned at runtime.
"""

import random
import time
from fractions import Fraction as Q

import numpy as np
import scipy.linalg

from quasiham.alcove import alcove_vertices, level_weights, minimal_integral_level
from quasiham.cli import dispatch
from quasiham.errors import InputError
from quasiham.holonomy import convergence_order, gauge_equivariance_residual, holonomy
from quasiham.roots import (
    LieType,
    a_series_embedding,
    build_root_system,
)
from quasiham.spaces import (
    ConjugacyClass,
    Double,
    Fused,
    Genus,
    reduction_rank,
    verify_axiom,
)
from quasiham.sun import (
    eta_integral_su2,
    random_algebra,
    random_special_unitary,
    torus_point,
)

from oracles import (
    class_prequantizable,
    cocycle_check,
    constant_connection,
    cover_index_set,
    fractions,
    fundamental_weights,
    fusion_prequantizable,
    sample_flows,
    scale,
    vadd,
    vec,
    weight_lattice_contains,
    zero,
)

GENERIC_XI3 = (Q(1, 4), Q(1, 12), Q(-1, 3))


def axiom_space_list():
    return [
        ("conjugacy_class(2,(1/8,-1/8))", ConjugacyClass(2, (Q(1, 8), Q(-1, 8)))),
        ("conjugacy_class(3,generic)", ConjugacyClass(3, GENERIC_XI3)),
        ("double(2)", Double(2)),
        ("fused_double(2)", Fused([Double(2)])),
        ("genus(2,2)", Genus(2, 2)),
    ]


def report(num: int, ok: bool, detail: str = ""):
    print(f"[criterion {num:02d}] {'PASS' if ok else 'FAIL'} {detail}".rstrip())


# Reference table of minimal levels per series over the standard rank ranges
# (B from rank 3 and D from rank 4; B2 and C2, D3 and A3 coincide and are
# covered by the unit tests).  The level is the lcm of the comarks, read from
# the highest roots in Bourbaki's plates.  E6 is simply laced, so its comarks
# are the marks of theta = a1+2a2+2a3+3a4+2a5+a6 (Plate V) and the level is 6:
# at k = 3 the vertex w2/2 gives 3/2 in fundamental-weight coordinates, which
# is not a weight (3 is the order of the centre of E6, a different quantity).
REFERENCE_LEVELS = {"A": 1, "B": 2, "C": 1, "D": 2, "E6": 6, "E7": 12, "E8": 60, "F": 6, "G": 2}
TABLE_BUDGET_S = 1.0


def _cold_table() -> tuple[float, dict]:
    """Time one `table` call with the exact-layer caches emptied first, as a
    fresh CLI process would see them whatever tests ran before."""
    build_root_system.cache_clear()
    alcove_vertices.cache_clear()
    minimal_integral_level.cache_clear()
    start = time.perf_counter()
    _, payload = dispatch(["table"])
    return time.perf_counter() - start, payload


def test_criterion_01_minimal_level_table():
    # the minimum of three cold calls is robust to a single stalled run
    runs = [_cold_table() for _ in range(3)]
    elapsed = min(t for t, _ in runs)
    computed = runs[-1][1]["minimal_levels"]
    expected = {}
    for series, ranks in [("A", range(1, 9)), ("B", range(3, 9)), ("C", range(2, 9)),
                          ("D", range(4, 9)), ("E", range(6, 9)), ("F", [4]), ("G", [2])]:
        for d in ranks:
            key = f"{series}{d}"
            expected[key] = REFERENCE_LEVELS.get(key) or REFERENCE_LEVELS[series]
    mismatches = {
        k: (computed.get(k), expected[k])
        for k in expected
        if computed.get(k) != expected[k]
    }
    ok = not mismatches and elapsed < TABLE_BUDGET_S
    detail = (
        f"table in {elapsed:.3f}s (budget {TABLE_BUDGET_S}s); "
        f"mismatches (computed, reference): {mismatches or 'none'}"
    )
    report(1, ok, detail)
    assert ok, detail


def test_criterion_02_su_n_vertex_formula():
    ok = True
    for n in range(2, 7):
        rs = build_root_system(LieType("A", n - 1))
        model = alcove_vertices(rs)
        for i in range(1, n):
            expected = tuple((Q(1) if k < i else Q(0)) - Q(i, n) for k in range(n))
            ok = ok and a_series_embedding(rs, fractions(model)[i]) == expected
    report(2, ok, "vertex formula exact for n = 2..6")
    assert ok


def test_criterion_03_level_weight_counts():
    rs = build_root_system(LieType("A", 1))
    counts = [len(fractions(level_weights(rs, k))) for k in range(11)]
    ok = counts == [k + 1 for k in range(11)]
    # independent brute-force scan over signed fundamental-weight combos
    for k in range(11):
        scan = set()
        for c in range(-k - 2, k + 3):
            w = scale(c, fundamental_weights(rs)[0])
            if weight_lattice_contains(rs, w) and 0 <= w[0] * 2 <= k:
                scan.add(w)
        ok = ok and scan == set(fractions(level_weights(rs, k)))
    report(3, ok, f"counts {counts}")
    assert ok


def test_criterion_04_class_criterion_parity():
    rs = build_root_system(LieType("A", 1))
    xi = vec("1/4")
    ok = True
    for k in range(1, 13):
        verdict = class_prequantizable(rs, xi, k)
        ok = ok and verdict.answer == (k % 2 == 0)
        ok = ok and verdict.answer == (scale(k, xi) in set(fractions(level_weights(rs, k))))
    report(4, ok, "xi=(1/4,-1/4) pre-quantizable exactly at even levels, k=1..12")
    assert ok


def test_criterion_05_moment_condition():
    start = time.perf_counter()
    worst = {}
    for name, space in axiom_space_list():
        rep = verify_axiom(space, "moment", samples=50, seed=0)
        worst[name] = rep.max_residual
    elapsed = time.perf_counter() - start
    ok = max(worst.values()) < 1e-8 and elapsed < 10.0
    report(5, ok, f"max residual {max(worst.values()):.2e} in {elapsed:.1f}s")
    assert elapsed < 10.0
    for name, r in worst.items():
        assert r < 1e-8, (name, r)


def test_criterion_06_relative_cocycle():
    start = time.perf_counter()
    worst = {}
    for name, space in axiom_space_list():
        rep = verify_axiom(space, "cocycle", samples=20, seed=0)
        worst[name] = rep.max_residual
    elapsed = time.perf_counter() - start
    ok = max(worst.values()) < 1e-4 and elapsed < 60.0
    report(6, ok, f"max residual {max(worst.values()):.2e} in {elapsed:.1f}s")
    assert elapsed < 60.0
    for name, r in worst.items():
        assert r < 1e-4, (name, r)


def test_criterion_07_minimal_degeneracy():
    mismatch = {}
    for name, space in axiom_space_list():
        rep = verify_axiom(space, "min_degeneracy", samples=20, seed=0)
        mismatch[name] = rep.max_residual
    # the half-central class carries an identically vanishing 2-form with
    # kernel dimension equal to the full tangent dimension 2
    special = ConjugacyClass(2, (Q(1, 4), Q(-1, 4)))
    rng = np.random.default_rng(0)
    m, flows = sample_flows(special, rng)
    [basis] = special._basis(m, flows)
    flat = np.max(np.abs(special.structure(m, [basis], blocks=True).omega))
    rep = verify_axiom(special, "min_degeneracy", samples=20, seed=0)
    ok = (
        max(mismatch.values()) == 0.0
        and rep.max_residual == 0.0
        and basis.shape[-3] == 2
        and flat < 1e-12
    )
    report(7, ok, f"kernel dims agree on all samples; flat class dim 2, |omega| {flat:.1e}")
    assert ok


def test_criterion_08_three_form_normalization():
    start = time.perf_counter()
    value = eta_integral_su2(samples=2000, seed=0)
    elapsed = time.perf_counter() - start
    ok = abs(value - 1.0) < 1e-2 and elapsed < 30.0
    report(8, ok, f"integral {value:.6f} in {elapsed:.1f}s")
    assert elapsed < 30.0
    assert abs(value - 1.0) < 1e-2


def test_criterion_09_holonomy():
    rng = np.random.default_rng(0)
    exact_ok = True
    for steps in (1, 5, 32, 128):
        xi = random_algebra(2, rng)
        defect = np.max(
            np.abs(holonomy(constant_connection(xi, steps)) - scipy.linalg.expm(xi))
        )
        exact_ok = exact_ok and defect < 1e-12

    x, y, z = (random_algebra(2, rng) for _ in range(3))
    g0 = random_special_unitary(2, rng)
    winding = 1j * np.diag([1.0, -1.0])

    def conn_fn(t):
        return np.sin(2 * np.pi * t) * x + np.cos(4 * np.pi * t) * y

    def loop_fn(t):
        t = np.asarray(t)[..., None, None]  # one time or a grid of them
        return (
            g0
            @ scipy.linalg.expm(2 * np.pi * t * winding)
            @ scipy.linalg.expm(np.sin(2 * np.pi * t) * z)
        )

    residuals = {
        n: gauge_equivariance_residual(conn_fn, loop_fn, n)
        for n in (8, 16, 32, 64, 128)
    }
    order = convergence_order(residuals)
    ok = exact_ok and abs(order - 2.0) <= 0.3
    report(9, ok, f"constant exact; gauge equivariance order {order:.2f}")
    assert exact_ok
    assert abs(order - 2.0) <= 0.3


def test_criterion_10_determinant_line_cocycle():
    rng = np.random.default_rng(0)
    worst = 0.0
    done = 0
    while done < 100:
        a = random_special_unitary(3, rng)
        if len(cover_index_set(a)) < 3:
            continue
        coeff, is_iso = cocycle_check(a, 1, 2, 3)
        assert is_iso
        worst = max(worst, abs(abs(coeff) - 1.0))
        done += 1
    rejected = False
    try:
        cocycle_check(torus_point([0.25, 0.25, -0.5]), 1, 2, 3)
    except InputError:
        rejected = True
    ok = worst < 1e-8 and rejected
    report(10, ok, f"max | |c|-1 | = {worst:.2e}; collapsed gaps rejected")
    assert worst < 1e-8
    assert rejected


def test_criterion_11_reduction_ranks():
    rng = np.random.default_rng(0)
    g22 = Genus(2, 2)
    ranks = []
    for _ in range(20):
        a = random_special_unitary(2, rng)
        b = random_special_unitary(2, rng)
        ranks.append(reduction_rank(g22, np.stack([a, b, b, a])))
    g21 = Genus(2, 1)
    commuting_ranks = []
    h = 1j * np.diag([1.0, -1.0])
    for _ in range(5):
        u = random_special_unitary(2, rng)
        a = u @ scipy.linalg.expm(rng.normal() * h) @ u.conj().T
        b = u @ scipy.linalg.expm(rng.normal() * h) @ u.conj().T
        commuting_ranks.append(reduction_rank(g21, np.stack([a, b])))
    ok = all(r == 3 for r in ranks) and all(r == 2 for r in commuting_ranks)
    report(11, ok, f"20 reflected pairs rank 3; commuting pairs rank {set(commuting_ranks)}")
    assert all(r == 3 for r in ranks)
    assert all(r == 2 for r in commuting_ranks)


def _random_alcove_point(rng, rs):
    weights = [Q(rng.randint(0, 6), rng.choice([1, 2, 3, 4])) for _ in range(rs.rank + 1)]
    total = sum(weights) or Q(1)
    point = zero(rs.rank)
    for t, v in zip(weights, fractions(alcove_vertices(rs))):
        point = vadd(point, scale(t / total, v))
    return point


def test_criterion_12_fusion_closure():
    rng = random.Random(0)
    ok = True
    for name in ("A1", "A2"):
        rs = build_root_system(LieType.parse(name))
        for _ in range(100):
            k = rng.randint(1, 8)
            xi1 = _random_alcove_point(rng, rs)
            xi2 = _random_alcove_point(rng, rs)
            v1 = class_prequantizable(rs, xi1, k)
            v2 = class_prequantizable(rs, xi2, k)
            ok = ok and fusion_prequantizable([v1, v2]) == (v1.answer and v2.answer)
    report(12, ok, "fusion verdicts agree with componentwise checks, 100 triples each")
    assert ok
