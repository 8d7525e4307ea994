import random
from fractions import Fraction as Q

import pytest

from quasiham.alcove import AlcoveModel, LevelWeightSet, alcove_vertices, level_weights
from quasiham.errors import InputError
from quasiham.rational import integer_inverse
from quasiham.roots import (
    LieType,
    RootSystem,
    a_series_embedding,
    build_root_system,
    height,
    inner_product,
)

from oracles import (
    a_series_from_euclidean,
    coroot_pairing,
    dot,
    fundamental_weights,
    gram,
    lowest_root,
    matvec,
    reflect,
    simple_roots,
    solve,
    vec,
)

ALL_TYPES = ["A1", "A2", "A3", "B2", "B3", "C2", "C3", "D3", "D4", "E6", "E7", "E8", "F4", "G2"]

POSITIVE_COUNTS = {
    "A1": 1, "A2": 3, "A3": 6, "B2": 4, "B3": 9, "C2": 4, "C3": 9,
    "D3": 6, "D4": 12, "E6": 36, "E7": 63, "E8": 120, "F4": 24, "G2": 6,
}


def rs_of(name):
    return build_root_system(LieType.parse(name))


@pytest.mark.parametrize("name", ALL_TYPES)
def test_positive_root_counts(name):
    assert len(rs_of(name).positive_roots) == POSITIVE_COUNTS[name]


@pytest.mark.parametrize(
    "series,rank", [("A", 0), ("B", 1), ("C", 1), ("D", 2), ("E", 5), ("E", 9), ("F", 3), ("G", 3)]
)
def test_rank_constraints_rejected(series, rank):
    with pytest.raises(InputError) as err:
        LieType(series, rank)
    assert err.value.code == "invalid-rank"


def test_type_parsing():
    assert LieType.parse("a2") == LieType("A", 2)
    assert LieType.parse("E_7") == LieType("E", 7)
    with pytest.raises(InputError):
        LieType.parse("H4")


@pytest.mark.parametrize("name", ALL_TYPES)
def test_gram_symmetric_positive_definite(name):
    rs = rs_of(name)
    g = gram(rs)
    n = rs.rank
    for i in range(n):
        for j in range(n):
            assert g[i][j] == g[j][i]
            # the Cartan matrix's definition, 2 (a_i, a_j) / (a_j, a_j)
            assert rs.cartan_matrix[i][j] == 2 * g[i][j] / g[j][j]
    # Sylvester criterion with exact leading-minor determinants
    for k in range(1, n + 1):
        minor = [row[:k] for row in g[:k]]
        assert _det(minor) > 0


def _integers(value):
    """An int, or a tuple of them at any depth."""
    if isinstance(value, tuple):
        return all(map(_integers, value))
    return type(value) is int


@pytest.mark.parametrize("name", ALL_TYPES)
def test_root_system_record_holds_only_integers(name):
    rs = rs_of(name)
    assert rs._fields[0] == "lie_type" and "gram" not in rs._fields
    for field in rs._fields[1:]:
        assert _integers(getattr(rs, field)), field
    # every record is slotted: no instance dict beside the tuple
    records = (rs.lie_type, rs, alcove_vertices(rs), level_weights(rs, 1))
    assert [type(r) for r in records] == [LieType, RootSystem, AlcoveModel, LevelWeightSet]
    for record in records:
        assert not hasattr(record, "__dict__"), type(record).__name__


@pytest.mark.parametrize("name", ["B3", "C3", "F4", "G2"])
def test_inner_product_matches_the_fraction_gram_matrix(name):
    # the types whose Gram matrix has denominators: scale 2, and 3 for G2
    rs = rs_of(name)
    assert rs.scale == (3 if name == "G2" else 2)
    rng = random.Random(name)
    vectors = [*rs.positive_roots, *fundamental_weights(rs)]
    vectors += [tuple(Q(rng.randint(-9, 9), rng.randint(1, 12)) for _ in range(rs.rank))
                for _ in range(20)]
    for x in vectors:
        for y in vectors:
            value = inner_product(rs, x, y)
            assert type(value) is Q and value == dot(x, matvec(gram(rs), y))


def _det(m):
    m = [list(row) for row in m]
    n = len(m)
    out = Q(1)
    for col in range(n):
        pivot = next(r for r in range(col, n) if m[r][col] != 0)
        if pivot != col:
            m[col], m[pivot] = m[pivot], m[col]
            out = -out
        out *= m[col][col]
        inv = 1 / m[col][col]
        for r in range(col + 1, n):
            f = m[r][col] * inv
            m[r] = [a - f * b for a, b in zip(m[r], m[col])]
    return out


@pytest.mark.parametrize("name", ALL_TYPES)
def test_long_roots_have_norm_two(name):
    rs = rs_of(name)
    norms = {inner_product(rs, r, r) for r in rs.positive_roots}
    assert max(norms) == 2
    if name == "G2":
        assert Q(2, 3) in norms


def test_a2_inner_products():
    rs = rs_of("A2")
    a1, a2 = simple_roots(rs)
    assert inner_product(rs, a1, a1) == 2
    assert inner_product(rs, a1, a2) == -1
    # cross-check in the R^3 embedding: (e1-e2).(e2-e3) = -1
    e1 = a_series_embedding(rs, a1)
    e2 = a_series_embedding(rs, a2)
    assert dot(e1, e2) == -1
    zero = vec(0, 0)
    assert inner_product(rs, zero, a2) == 0


def test_inner_product_dimension_mismatch():
    rs = rs_of("A2")
    with pytest.raises(InputError) as err:
        inner_product(rs, vec(1), vec(1, 0))
    assert err.value.code == "dimension-mismatch"


def test_heights_and_lowest_root():
    a2 = rs_of("A2")
    assert height(a2, simple_roots(a2)[0]) == 1
    assert height(a2, a2.marks) == 2
    a3 = rs_of("A3")
    assert height(a3, lowest_root(a3)) == -3
    assert lowest_root(a3) == (-1, -1, -1)
    with pytest.raises(InputError) as err:
        height(a2, vec(5, 7))
    assert err.value.code == "not-a-root"


@pytest.mark.parametrize("name", ALL_TYPES)
def test_unique_minimal_height_root(name):
    rs = rs_of(name)
    heights = sorted(sum(r) for r in rs.positive_roots)
    assert heights.count(heights[-1]) == 1  # unique highest positive root


@pytest.mark.parametrize("name", ALL_TYPES)
def test_simple_reflections_permute_roots(name):
    rs = rs_of(name)
    all_roots = set(rs.positive_roots) | {tuple(-c for c in r) for r in rs.positive_roots}
    for r in all_roots:
        for i in range(rs.rank):
            assert reflect(rs, r, i) in all_roots


@pytest.mark.parametrize("name", ALL_TYPES)
def test_roots_match_reflection_orbit_oracle(name):
    # independent generation: close the simple roots under all reflections
    rs = rs_of(name)
    orbit = set(simple_roots(rs))
    frontier = list(orbit)
    while frontier:
        nxt = []
        for r in frontier:
            for i in range(rs.rank):
                img = reflect(rs, r, i)
                if img not in orbit:
                    orbit.add(img)
                    nxt.append(img)
        frontier = nxt
    expected = set(rs.positive_roots) | {tuple(-c for c in r) for r in rs.positive_roots}
    assert orbit == expected


@pytest.mark.parametrize("name", ALL_TYPES)
def test_dual_coxeter_against_killing_sum(name):
    # Killing form restricted to the Cartan: sum over roots of (alpha, xi)^2
    # equals 2 * dual_coxeter * (xi, xi) in the basic normalization.
    rs = rs_of(name)
    xi = simple_roots(rs)[0]
    total = Q(0)
    for r in rs.positive_roots:
        total += 2 * inner_product(rs, r, xi) ** 2
    assert total == 2 * rs.dual_coxeter * inner_product(rs, xi, xi)


# Highest-root coefficients in Bourbaki's numbering (Plates V-IX); the
# acceptance table's exceptional levels are the lcm of the comarks derived
# from these, so they are pinned here to the published values.
PLATE_MARKS = {
    "E6": (1, 2, 2, 3, 2, 1),
    "E7": (2, 2, 3, 4, 3, 2, 1),
    "E8": (2, 3, 4, 6, 5, 4, 3, 2),
    "F4": (2, 3, 4, 2),
    "G2": (3, 2),
}


@pytest.mark.parametrize("name", sorted(PLATE_MARKS))
def test_exceptional_marks_match_plates(name):
    assert rs_of(name).marks == PLATE_MARKS[name]


def test_dual_coxeter_values():
    assert rs_of("A1").dual_coxeter == 2
    assert rs_of("A2").dual_coxeter == 3
    assert rs_of("B3").dual_coxeter == 5
    assert rs_of("E8").dual_coxeter == 30


@pytest.mark.parametrize("name", ALL_TYPES)
def test_fundamental_weights_dual_to_coroots(name):
    rs = rs_of(name)
    for i, w in enumerate(fundamental_weights(rs)):
        for j in range(rs.rank):
            assert coroot_pairing(rs, w, j) == (1 if i == j else 0)


def test_positive_roots_nonnegative_integer_coefficients():
    for name in ALL_TYPES:
        rs = rs_of(name)
        for r in rs.positive_roots:
            assert all(c >= 0 and Q(c).denominator == 1 for c in r)


def test_a_series_embedding_roundtrip_and_roots():
    rs = rs_of("A2")
    for r in rs.positive_roots:
        emb = a_series_embedding(rs, r)
        assert sum(emb) == 0
        nonzero = sorted(emb)
        assert nonzero[0] == -1 and nonzero[-1] == 1  # e_i - e_j shape
        assert a_series_from_euclidean(rs, emb) == r
    assert a_series_embedding(rs, lowest_root(rs)) == vec(-1, 0, 1)
    with pytest.raises(InputError):
        a_series_embedding(rs_of("B2"), vec(1, 0))
    with pytest.raises(InputError):
        a_series_from_euclidean(rs, vec(1, 0, 1))


def test_exact_solver():
    m = [[Q(2), Q(1)], [Q(1), Q(3)]]
    x = solve(m, vec(1, 0))
    assert matvec(m, x) == vec(1, 0)
    with pytest.raises(ValueError):
        solve([[Q(1), Q(1)], [Q(1), Q(1)]], vec(1, 0))


def test_integer_inverse():
    assert integer_inverse([[2, 1], [1, 3]]) == (((3, -1), (-1, 2)), 5)
    # a zero leading pivot and a negative determinant
    assert integer_inverse([[0, 1], [1, 0]]) == (((0, 1), (1, 0)), 1)
    for name in ALL_TYPES:
        cartan = rs_of(name).cartan_matrix
        inv, det = integer_inverse(cartan)
        exact = [solve([[Q(c) for c in row] for row in cartan],
                       tuple(Q(int(i == j)) for i in range(len(cartan))))
                 for j in range(len(cartan))]
        assert all(Q(inv[i][j], det) == exact[j][i]
                   for i in range(len(cartan)) for j in range(len(cartan)))
    with pytest.raises(ValueError):
        integer_inverse([[1, 2], [2, 4]])
