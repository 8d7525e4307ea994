import random
from fractions import Fraction as Q

import pytest

from quasiham.alcove import alcove_vertices, level_weights
from quasiham.cli import dispatch
from quasiham.errors import InputError
from quasiham.prequant import class_decision, torsion_level_admissible
from quasiham.rational import common_denominator
from quasiham.roots import LieType, build_root_system

from oracles import (
    class_prequantizable,
    fractions,
    fusion_prequantizable,
    open_face_set,
    scale,
    vadd,
    vec,
    zero,
)


def rs_of(name):
    return build_root_system(LieType.parse(name))


def test_a1_examples():
    a1 = rs_of("A1")
    yes = class_prequantizable(a1, vec("1/4"), 2)
    assert yes.answer and yes.witness == vec("1/2")
    no = class_prequantizable(a1, vec("1/4"), 1)
    assert not no.answer and no.witness == "not-in-weight-lattice"
    for rs in (a1, rs_of("G2")):
        trivial = class_prequantizable(rs, zero(rs.rank), 7)
        assert trivial.answer and trivial.witness == zero(rs.rank)


def test_rejections():
    a1 = rs_of("A1")
    with pytest.raises(InputError) as err:
        class_prequantizable(a1, vec(2), 1)
    assert err.value.code == "not-in-alcove"
    with pytest.raises(InputError):
        class_prequantizable(a1, vec("1/4"), 0)


def test_parity_sweep_matches_level_weights():
    a1 = rs_of("A1")
    xi = vec("1/4")
    for k in range(1, 13):
        verdict = class_prequantizable(a1, xi, k)
        assert verdict.answer == (k % 2 == 0)
        # cross-check against the independent level-weight enumeration
        in_weights = scale(k, xi) in set(fractions(level_weights(a1, k)))
        assert verdict.answer == in_weights


def _random_alcove_point(rng, rs):
    """Random rational barycentric combination of the alcove vertices."""
    weights = [Q(rng.randint(0, 6), rng.choice([1, 2, 3, 4])) for _ in range(rs.rank + 1)]
    total = sum(weights)
    if total == 0:
        weights[0] = Q(1)
        total = Q(1)
    point = zero(rs.rank)
    for t, v in zip(weights, fractions(alcove_vertices(rs))):
        point = vadd(point, scale(t / total, v))
    return point


@pytest.mark.parametrize("name", ["A1", "A2", "G2"])
def test_monotone_under_level_multiples(name):
    rs = rs_of(name)
    rng = random.Random(5)
    for _ in range(25):
        xi = _random_alcove_point(rng, rs)
        base = next(
            (k for k in range(1, 49) if class_prequantizable(rs, xi, k).answer), None
        )
        if base is None:
            continue
        for mult in range(1, 5):
            assert class_prequantizable(rs, xi, base * mult).answer


@pytest.mark.parametrize("name,k", [("A1", 4), ("A2", 2), ("G2", 2)])
def test_prequantizable_set_is_scaled_weight_set(name, k):
    rs = rs_of(name)
    expected = {scale(Q(1, k), w) for w in fractions(level_weights(rs, k))}
    # every scaled weight passes, with the witness recovering the weight
    for xi in expected:
        verdict = class_prequantizable(rs, xi, k)
        assert verdict.answer and verdict.witness == scale(k, xi)
    # random alcove points pass exactly when they belong to the scaled set
    rng = random.Random(9)
    for _ in range(200):
        xi = _random_alcove_point(rng, rs)
        assert class_prequantizable(rs, xi, k).answer == (xi in expected)


@pytest.mark.parametrize("name", ["A1", "A3", "B3", "C2", "D4", "F4", "G2"])
def test_class_decision_matches_fraction_oracles(name):
    # the verdict of k xi and the open faces of xi from one integer pairing
    # are the Fraction oracles' at every level; the level is checked before
    # the alcove, and a point outside gets the oracle's message
    rs = rs_of(name)
    rng = random.Random(11)
    for _ in range(30):
        xi = _random_alcove_point(rng, rs)
        nums, den = common_denominator(xi)
        for k in (1, 2, 3, 4, 6, 12):
            answer, faces = class_decision(rs, nums, den, k)
            assert answer == class_prequantizable(rs, xi, k).answer
            assert faces == sorted(open_face_set(rs, xi))
    vertex = fractions(alcove_vertices(rs))[1]
    outside = tuple(-a for a in vertex)
    nums, den = common_denominator(outside)
    with pytest.raises(InputError, match="invalid-level"):
        class_decision(rs, nums, den, 0)
    with pytest.raises(InputError) as err:
        class_decision(rs, nums, den, 1)
    with pytest.raises(InputError) as expected:
        class_prequantizable(rs, outside, 1)
    assert (err.value.code, str(err.value)) == (expected.value.code, str(expected.value))


def test_torsion_rule():
    assert torsion_level_admissible(1, 1)
    assert torsion_level_admissible(3, 6)
    assert not torsion_level_admissible(3, 4)
    with pytest.raises(InputError):
        torsion_level_admissible(0, 1)
    with pytest.raises(InputError):
        torsion_level_admissible(1, 0)


def test_fusion_rules():
    a1 = rs_of("A1")
    v1 = class_prequantizable(a1, vec("1/4"), 2)
    v2 = class_prequantizable(a1, vec("1/2"), 2)
    assert fusion_prequantizable([v1, v2])
    bad = class_prequantizable(a1, vec("1/4"), 1)
    assert not fusion_prequantizable([bad])
    assert fusion_prequantizable([])  # bare product of doubles


def test_verdict_json():
    def verdict(level):
        _, payload = dispatch(["check-class", "--type", "A1", "--xi", "1/4", "--level", level])
        return payload["classes"][0]["verdict"]

    assert verdict("2") == {"answer": True, "level": 2, "witness": ["1/2"]}
    assert verdict("1")["witness"] == "not-in-weight-lattice"
