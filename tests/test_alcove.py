import itertools
import json
import math
import random
import sys
from fractions import Fraction as Q
from pathlib import Path

import pytest

from quasiham import alcove
from quasiham.alcove import (
    alcove_vertices,
    level_weights,
    minimal_integral_level,
    weight_checks,
    weight_count,
)
from quasiham.cli import dispatch, render
from quasiham.errors import InputError
from quasiham.prequant import class_decision
from quasiham.roots import (
    LieType,
    a_series_embedding,
    build_root_system,
    inner_product,
)

# The benchmark's workload module holds the level-weights pool and the types
# of the table verb.
sys.path.insert(0, str(Path(__file__).resolve().parent.parent / "bench"))
from check import digest, load_snapshot  # noqa: E402
from workloads import LEVELS, TABLE_TYPES  # noqa: E402

from oracles import (  # noqa: E402
    alcove_contains,
    barycentric_coords,
    format_vector,
    fractions,
    fundamental_weight_coords,
    fundamental_weights,
    gram,
    lowest_root,
    matvec,
    open_face_set,
    simple_roots,
    solve,
    transition_weight,
    vadd,
    vec,
    vsub,
    weight_lattice_contains,
    zero,
)

ALL_TYPES = ["A1", "A2", "A3", "B2", "B3", "C2", "C3", "D3", "D4", "E6", "E7", "F4", "G2"]


def rs_of(name):
    return build_root_system(LieType.parse(name))


@pytest.mark.parametrize("name", ALL_TYPES)
def test_vertex_defining_equations(name):
    rs = rs_of(name)
    model = alcove_vertices(rs)
    assert len(fractions(model)) == rs.rank + 1
    assert fractions(model)[0] == zero(rs.rank)
    for j, v in enumerate(fractions(model)[1:], start=1):
        for i in range(rs.rank):
            pairing = inner_product(rs, simple_roots(rs)[i], v)
            if i != j - 1:
                assert pairing == 0
            else:
                assert pairing > 0  # strictly inside the chamber wall
        assert inner_product(rs, lowest_root(rs), v) == -1


@pytest.mark.parametrize("n", [2, 3, 4, 5, 6])
def test_su_n_vertex_formula(n):
    rs = rs_of(f"A{n - 1}")
    model = alcove_vertices(rs)
    for i in range(1, n):
        expected = tuple(
            (Q(1) if k < i else Q(0)) - Q(i, n) for k in range(n)
        )
        assert a_series_embedding(rs, fractions(model)[i]) == expected


def test_alcove_contains_examples():
    # membership of the Fraction oracle, and the boundary flag of the
    # integer open faces: a point is on the boundary iff a face is closed
    a1 = rs_of("A1")
    assert alcove_contains(a1, vec("1/4"), 1) and class_decision(a1, (1,), 4, 1)[1] == [0, 1]
    assert not alcove_contains(a1, vec("3/4"), 1)
    assert alcove_contains(a1, vec("3/4"), 2)
    g2 = rs_of("G2")
    assert alcove_contains(g2, vec(0, 0), 1) and class_decision(g2, (0, 0), 1, 1)[1] == [0]
    with pytest.raises(InputError) as err:
        alcove_contains(a1, vec("1/4"), 0)
    assert err.value.code == "invalid-level"


def test_weight_lattice_examples():
    a1 = rs_of("A1")
    assert weight_lattice_contains(a1, vec("1/2"))
    assert not weight_lattice_contains(a1, vec("1/4"))
    assert weight_lattice_contains(rs_of("G2"), vec(0, 0))


def brute_force_level_weights(rs, k):
    """Independent enumeration: scan signed integer combinations of the
    fundamental weights and filter with the public membership predicates."""
    out = set()
    span = range(-k - 2, k + 3)
    for coeffs in itertools.product(span, repeat=rs.rank):
        w = zero(rs.rank)
        for c, fw in zip(coeffs, fundamental_weights(rs)):
            w = vadd(w, tuple(Q(c) * f for f in fw))
        if not weight_lattice_contains(rs, w):
            continue
        if k == 0:
            if all(x == 0 for x in w):
                out.add(w)
            continue
        if alcove_contains(rs, w, k):
            out.add(w)
    return out


@pytest.mark.parametrize("k", range(0, 11))
def test_a1_level_weight_counts(k):
    lws = level_weights(rs_of("A1"), k)
    assert len(fractions(lws)) == k + 1
    assert set(fractions(lws)) == brute_force_level_weights(rs_of("A1"), k)


@pytest.mark.parametrize(
    "name,k",
    [("A2", 1), ("A2", 3), ("B2", 2), ("G2", 2), ("C2", 3), ("B3", 3), ("A3", 2)],
)
def test_level_weights_match_brute_force(name, k):
    rs = rs_of(name)
    lws = level_weights(rs, k)
    assert set(fractions(lws)) == brute_force_level_weights(rs, k)
    assert list(fractions(lws)) == sorted(fractions(lws))


def test_a2_level_one_count():
    assert len(fractions(level_weights(rs_of("A2"), 1))) == 3


def test_a2_level_counts_closed_form():
    # dominant weights with m1 + m2 <= k form a triangle
    for k in range(0, 7):
        assert len(fractions(level_weights(rs_of("A2"), k))) == (k + 1) * (k + 2) // 2


def test_weight_count_is_the_enumerated_count():
    for name, ks in LEVELS.items():
        rs = rs_of(name)
        for k in (0,) + ks[:4]:
            assert weight_count(rs.comarks, k) == len(level_weights(rs, k).nums), (name, k)


def test_weight_bound_refuses_only_what_is_above_it(monkeypatch):
    # a cost of 40 leaves 10 weights at rank 2: A2 has 10 at level 3 and 15
    # at level 4, and G2 9 at level 4.  Counting the weights of A2 at level
    # 10**40 would allocate a list of that length: the bound refuses it first
    monkeypatch.setattr(alcove, "MAX_WEIGHT_COST", 40)
    assert len(level_weights(rs_of("A2"), 3).nums) == 10
    for name, k, cap in (("A2", 4, 10), ("G2", 4, 5), ("A2", 10**40, 10)):
        monkeypatch.setattr(alcove, "MAX_WEIGHT_COST", 4 * cap)
        with pytest.raises(InputError) as err:
            level_weights(rs_of(name), k)
        assert err.value.code == "too-many-weights"
        assert str(err.value) == (f"too-many-weights: {name} at level {k} has over {cap} "
                                  "weights, the most enumerated at rank 2")


@pytest.mark.parametrize("name", ALL_TYPES)
def test_level_zero_is_origin_only(name):
    rs = rs_of(name)
    assert fractions(level_weights(rs, 0)) == (zero(rs.rank),)


@pytest.mark.parametrize("name", ["A2", "B2", "G2"])
def test_level_weights_monotone_inclusion(name):
    rs = rs_of(name)
    for k in range(0, 4):
        smaller = set(fractions(level_weights(rs, k)))
        larger = set(fractions(level_weights(rs, k + 1)))
        assert smaller <= larger


MINIMAL_LEVELS = {
    "A1": 1, "A4": 1, "A8": 1, "B3": 2, "B8": 2, "C2": 1, "C3": 1, "C8": 1,
    "D4": 2, "D8": 2, "E6": 6, "E7": 12, "E8": 60, "F4": 6, "G2": 2,
}


@pytest.mark.parametrize("name,expected", sorted(MINIMAL_LEVELS.items()))
def test_minimal_integral_level(name, expected):
    rs = rs_of(name)
    assert minimal_integral_level(rs) == expected
    # independent oracle: direct scan for the smallest admissible k
    model = alcove_vertices(rs)
    found = None
    for k in range(1, 200):
        if all(
            weight_lattice_contains(rs, tuple(Q(k) * c for c in v))
            for v in fractions(model)
        ):
            found = k
            break
    assert found == expected


def bumped(value):
    """An integer, or a nested tuple of them, with its first integer one larger."""
    return value + 1 if isinstance(value, int) else (bumped(value[0]), *value[1:])


def test_record_equality_reaches_the_caches():
    # every datum of a record takes part in equality, so a record with one
    # integer datum replaced is another key of the alcove caches: B3 with
    # marks (1, 1, 1) and a doubled inverse Cartan matrix has its vertices
    # at the simplex's own lattice points, level 1, not B3's cached 2
    rs = rs_of("B3")
    assert minimal_integral_level(rs) == 2 and alcove_vertices(rs).den == 16
    for field in ("scale", "int_gram", "theta_row", "marks", "comarks", "inverse_cartan", "det"):
        assert rs._replace(**{field: bumped(getattr(rs, field))}) != rs, field
    doubled = tuple(tuple(2 * c for c in row) for row in rs.inverse_cartan)
    faulty = rs._replace(marks=(1, 1, 1), inverse_cartan=doubled)
    assert faulty != rs and hash(faulty) == hash(rs)
    assert minimal_integral_level(faulty) == minimal_integral_level.__wrapped__(faulty) == 1
    model = alcove_vertices(faulty)
    assert model == alcove_vertices.__wrapped__(faulty) and model.rs is faulty
    assert (model.nums, model.den) != (alcove_vertices(rs).nums, alcove_vertices(rs).den)
    assert minimal_integral_level(rs) == 2


def test_low_rank_coincidences():
    # B2 ~ C2 and D3 ~ A3 share alcove geometry, hence the same level
    assert minimal_integral_level(rs_of("B2")) == minimal_integral_level(rs_of("C2")) == 1
    assert minimal_integral_level(rs_of("D3")) == minimal_integral_level(rs_of("A3")) == 1


def test_open_face_set_examples():
    a2 = rs_of("A2")
    assert open_face_set(a2, vec(0, 0)) == frozenset({0})
    model = alcove_vertices(a2)
    bary = zero(2)
    for v in fractions(model):
        bary = vadd(bary, tuple(c / 3 for c in v))
    assert open_face_set(a2, bary) == frozenset({0, 1, 2})
    a1 = rs_of("A1")
    assert open_face_set(a1, vec("1/4")) == frozenset({0, 1})
    with pytest.raises(InputError) as err:
        open_face_set(a1, vec("3/2"))
    assert err.value.code == "not-in-alcove" and str(err.value).startswith("not-in-alcove: 3/2 ")


def test_facet_point_misses_opposite_vertex():
    a2 = rs_of("A2")
    model = alcove_vertices(a2)
    # midpoint of the edge from vertex 0 to vertex 1 sits on the facet
    # opposite vertex 2
    mid = tuple(c / 2 for c in fractions(model)[1])
    faces = open_face_set(a2, mid)
    assert faces == frozenset({0, 1})


@pytest.mark.parametrize("name", ["A2", "B3", "C3", "G2", "F4"])
def test_interior_points_lie_in_every_face_set(name):
    rs = rs_of(name)
    model = alcove_vertices(rs)
    rng = random.Random(13)
    all_faces = frozenset(range(rs.rank + 1))
    for _ in range(20):
        # strictly positive rational barycentric weights give interior points
        weights = [Q(rng.randint(1, 5), rng.choice([1, 2, 3])) for _ in fractions(model)]
        total = sum(weights)
        point = zero(rs.rank)
        for t, v in zip(weights, fractions(model)):
            point = vadd(point, tuple(t / total * c for c in v))
        assert open_face_set(rs, point) == all_faces


@pytest.mark.parametrize("name", ["A2", "B3", "G2"])
def test_single_facet_point_misses_exactly_one(name):
    rs = rs_of(name)
    model = alcove_vertices(rs)
    for off in range(rs.rank + 1):
        # equal-weight combination of all vertices except one lands in the
        # relative interior of the facet opposite that vertex
        others = [v for j, v in enumerate(fractions(model)) if j != off]
        point = zero(rs.rank)
        for v in others:
            point = vadd(point, tuple(Q(1, len(others)) * c for c in v))
        faces = open_face_set(rs, point)
        assert faces == frozenset(range(rs.rank + 1)) - {off}


def _random_rational_vector(rng, rank):
    return tuple(Q(rng.randint(-8, 12), rng.choice([1, 2, 3, 4, 6, 8, 12])) for _ in range(rank))


def _barycentric_by_solving(rs, xi):
    model = alcove_vertices(rs)
    cols = [fractions(model)[j] for j in range(1, rs.rank + 1)]
    matrix = [[cols[j][i] for j in range(rs.rank)] for i in range(rs.rank)]
    t = solve(matrix, xi)
    return (Q(1) - sum(t),) + tuple(t)


@pytest.mark.parametrize("name", ["A2", "B2", "G2"])
def test_barycentric_against_linear_solve(name):
    rs = rs_of(name)
    rng = random.Random(7)
    for _ in range(200):
        xi = _random_rational_vector(rng, rs.rank)
        assert barycentric_coords(rs, xi) == _barycentric_by_solving(rs, xi)


def test_alcove_contains_agrees_with_barycentric_signs():
    rs = rs_of("A2")
    rng = random.Random(11)
    for _ in range(1000):
        xi = _random_rational_vector(rng, 2)
        bary = _barycentric_by_solving(rs, xi)
        assert alcove_contains(rs, xi, 1) == all(t >= 0 for t in bary)


def test_transition_weights():
    # the integer numerators of the vertices verb against Fraction differences
    a2 = rs_of("A2")
    moves = alcove_vertices(a2).to_json()["transition_weights"]
    vertices = fractions(alcove_vertices(a2))
    assert moves == {f"{i},{j}": format_vector(vsub(vertices[j], vertices[i]))
                     for i, j in itertools.combinations(range(3), 2)}
    assert moves["1,2"] == format_vector(transition_weight(a2, 1, 2))
    assert a_series_embedding(a2, transition_weight(a2, 1, 2)) == vec("-1/3", "2/3", "-1/3")
    assert transition_weight(a2, 1, 1) == zero(2)
    for i, j in itertools.product(range(3), repeat=2):
        assert transition_weight(a2, i, j) == tuple(
            -c for c in transition_weight(a2, j, i)
        )
    for i, j, k in itertools.product(range(3), repeat=3):
        assert vadd(transition_weight(a2, i, j), transition_weight(a2, j, k)) == \
            transition_weight(a2, i, k)


def test_json_shapes():
    rs = rs_of("A1")
    model = alcove_vertices(rs)
    data = model.to_json()
    assert data["vertices"] == [["0"], ["1/2"]]
    lws = level_weights(rs, 2).to_json()
    assert lws["count"] == 3 and lws["weights"] == [["0"], ["1/2"], ["1"]]
    json.dumps(data), json.dumps(lws)  # serializable


@pytest.mark.parametrize("xi", [vec("1/4"), vec("1/4", 0, 0)])
def test_wrong_length_vectors_are_rejected(xi):
    # a length-1 vector used to be read as (1/4, 0): barycentric (3/4, 1/2,
    # -1/4), fundamental weight coordinates (1/2, -1/4), and not-in-alcove
    a2 = rs_of("A2")
    for fn in (barycentric_coords, fundamental_weight_coords, open_face_set,
               weight_lattice_contains):
        with pytest.raises(InputError) as err:
            fn(a2, xi)
        assert err.value.code == "dimension-mismatch", fn
    with pytest.raises(InputError) as err:
        alcove_contains(a2, xi, 1)
    assert err.value.code == "dimension-mismatch"


def test_fundamental_weight_coords_integrality_iff_lattice():
    rs = rs_of("G2")
    rng = random.Random(3)
    for _ in range(100):
        xi = _random_rational_vector(rng, 2)
        coords = fundamental_weight_coords(rs, xi)
        assert weight_lattice_contains(rs, xi) == all(c.denominator == 1 for c in coords)


# The level-weights pool of the benchmark through E6 at level 4, plus k = 0.
ORACLE_CASES = [
    (name, k) for name, ks in LEVELS.items() for k in (0,) + ks
    if not (name == "E6" and k > 4)
]


def _fraction_in_alcove(rs, xi, k):
    """Closed level-k alcove test in Fraction arithmetic through the Gram
    matrix, independent of the integer test of the library."""
    if any(inner_product(rs, a, xi) < 0 for a in simple_roots(rs)):
        return False
    return inner_product(rs, rs.marks, xi) <= k


def fraction_level_weights(rs, k):
    """The Fraction enumeration the integer one replaced: fundamental weights
    solved from the transposed Cartan matrix, Dynkin labels under the comark
    budget, every candidate kept by the Fraction alcove test."""
    r = rs.rank
    ct = [[Q(rs.cartan_matrix[m][j]) for m in range(r)] for j in range(r)]
    fundamental = [solve(ct, tuple(Q(int(j == i)) for j in range(r))) for i in range(r)]
    comarks = [a * gram(rs)[i][i] / 2 for i, a in enumerate(rs.marks)]
    weights = []

    def descend(i, partial, budget):
        if i == r:
            weights.append(partial)
            return
        m = 0
        while m * comarks[i] <= budget:
            cand = tuple(p + m * w for p, w in zip(partial, fundamental[i]))
            descend(i + 1, cand, budget - m * comarks[i])
            m += 1

    descend(0, zero(r), Q(k))
    return sorted(w for w in weights if _fraction_in_alcove(rs, w, k))


@pytest.mark.parametrize("name,k", ORACLE_CASES)
def test_level_weights_match_fraction_oracle(name, k):
    rs = rs_of(name)
    assert list(fractions(level_weights(rs, k))) == fraction_level_weights(rs, k)


# Every level of the benchmark's pool, plus small levels of A1 and A2.
INTEGER_CASES = sorted(
    {(name, k) for name, ks in LEVELS.items() for k in ks}
    | {(name, k) for name in ("A1", "A2") for k in range(7)}
)


@pytest.mark.parametrize("name,k", INTEGER_CASES)
def test_integer_weight_set_matches_fraction_path(name, k):
    # the numerators over one denominator give the oracle's Fractions, the
    # JSON of format_vector, and the verdicts of the Fraction-taking tests,
    # on the weights and on non-weights and points off the alcove near them;
    # the column pass over a whole set is the conjunction of its single checks
    rs = rs_of(name)
    lws = level_weights(rs, k)
    assert lws.den == rs.det and lws.nums == tuple(sorted(lws.nums))
    assert list(fractions(lws)) == fraction_level_weights(rs, k)
    assert lws.to_json()["weights"] == [format_vector(w) for w in fractions(lws)]
    assert lws.to_json()["count"] == len(fractions(lws))
    assert weight_checks(rs, lws.nums, lws.den, k) == (True, True)
    negated = [tuple(-a for a in nums) for nums in lws.nums]
    shifted = [(nums[0] + 1,) + nums[1:] for nums in lws.nums]
    for vectors, d in ((lws.nums, rs.det), (lws.nums, 2 * rs.det), (negated, rs.det),
                       (shifted, rs.det), (shifted, 3 * rs.det)):
        singles = []
        for n in vectors:
            xi = tuple(Q(a, d) for a in n)
            is_weight, in_alcove = weight_checks(rs, [n], d, k)
            assert is_weight == weight_lattice_contains(rs, xi)
            if k >= 1:
                assert in_alcove == alcove_contains(rs, xi, k)
            else:
                assert in_alcove == all(a == 0 for a in n)
            singles.append((is_weight, in_alcove))
        assert weight_checks(rs, vectors, d, k) == tuple(map(all, zip(*singles)))


def test_level_weights_verb_makes_no_fraction_check(monkeypatch):
    # the verb's escape checks and its JSON run on integers: with the
    # Fraction-taking tests and common_denominator raising, E6 at level 8
    # still gives the snapshot's bytes
    def refuse(*args, **kwargs):
        raise AssertionError("a Fraction check ran")

    names = ("weight_lattice_contains", "alcove_contains", "common_denominator")
    for mod in [m for key, m in sys.modules.items() if key.startswith("quasiham.")]:
        for name in names:
            if name in vars(mod):
                monkeypatch.setattr(mod, name, refuse)
    # the patches bite: a decimal --xi is cleared by common_denominator
    with pytest.raises(AssertionError):
        dispatch(["check-class", "--type", "E6", "--xi", "0.0,0,0,0,0,0", "--level", "1"])
    code, payload = dispatch(["level-weights", "--type", "E6", "--level", "8", "--json"])
    assert code == 0 and payload["count"] == 372
    text = render(payload, as_json=True)
    assert digest(text) == load_snapshot()["digests"]["level-weights E6 8"]


@pytest.mark.parametrize("name", TABLE_TYPES)
def test_minimal_level_is_lcm_of_comarks(name):
    rs = rs_of(name)
    comarks = [int(c) for c in rs.comarks]
    assert comarks == [a * gram(rs)[i][i] / 2 for i, a in enumerate(rs.marks)]
    assert minimal_integral_level(rs) == math.lcm(*comarks)


@pytest.mark.parametrize("name", TABLE_TYPES)
def test_vertices_solve_their_defining_systems(name):
    rs = rs_of(name)
    theta_row = matvec(gram(rs), rs.marks)
    vertices = fractions(alcove_vertices(rs))
    for j in range(rs.rank):
        rows = [theta_row if i == j else gram(rs)[i] for i in range(rs.rank)]
        rhs = tuple(Q(int(i == j)) for i in range(rs.rank))
        assert vertices[j + 1] == solve(rows, rhs)
