"""Level-k pre-quantization decision procedures.

A conjugacy class with alcove parameter xi admits a level-k pre-quantization
exactly when k*xi is a weight; homology torsion gives a divisibility rule;
fusion products inherit pre-quantizability componentwise.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Sequence, Union

from .alcove import weight_checks
from .errors import InputError
from .rational import CartanVector, common_denominator, format_ratio, format_vector, scale
from .roots import RootSystem

# the witness of a failed level-k test
NOT_A_WEIGHT = "not-in-weight-lattice"


@dataclass(frozen=True)
class PrequantVerdict:
    """Outcome of a level-k integrality test.

    On success the witness is the weight k*xi; on failure it is a short tag
    naming the violated condition.
    """

    answer: bool
    level: int
    witness: Union[CartanVector, str]

    def to_json(self) -> dict:
        witness = (
            self.witness
            if isinstance(self.witness, str)
            else format_vector(self.witness)
        )
        return {"answer": self.answer, "level": self.level, "witness": witness}


def class_level_test(rs: RootSystem, nums: tuple[int, ...], den: int, k: int) -> bool:
    """Whether k*xi is a weight for the alcove parameter xi = nums / den; the
    integer form of `class_prequantizable`, with the same errors."""
    if k < 1:
        raise InputError("invalid-level", f"level must be >= 1, got {k}")
    if len(nums) != rs.rank:
        raise InputError("dimension-mismatch", f"expected length {rs.rank}")
    # xi is in the level-1 alcove iff k*xi is in the level-k one: one check
    is_weight, in_alcove = weight_checks(rs.lattice, [tuple(k * a for a in nums)], den, k)
    if not in_alcove:
        raise InputError(
            "not-in-alcove",
            f"{','.join(format_ratio(n, den) for n in nums)} is not a conjugacy-class"
            " parameter (outside the alcove)",
        )
    return is_weight


def class_prequantizable(rs: RootSystem, xi: CartanVector, k: int) -> PrequantVerdict:
    """Decide whether the conjugacy class of exp(xi) is pre-quantizable at
    level k, i.e. whether k*xi lands in the weight lattice."""
    if class_level_test(rs, *common_denominator(xi), k):
        return PrequantVerdict(True, k, scale(k, xi))
    return PrequantVerdict(False, k, NOT_A_WEIGHT)


def torsion_level_admissible(r: int, k: int) -> bool:
    """Divisibility rule for r-torsion second homology: level k works iff
    r divides k (r = 1 encodes trivial H_2 and always passes)."""
    if r < 1:
        raise InputError("invalid-torsion", f"torsion exponent must be >= 1, got {r}")
    if k < 1:
        raise InputError("invalid-level", f"level must be >= 1, got {k}")
    return k % r == 0


def fusion_prequantizable(verdicts: Sequence[PrequantVerdict]) -> bool:
    """A fusion product is pre-quantizable iff every factor is.

    The empty list encodes a bare product of doubles, which carries a
    quasi-line bundle at every level, so it passes.
    """
    levels = {v.level for v in verdicts}
    if len(levels) > 1:
        raise InputError("mixed-levels", f"verdicts at different levels: {sorted(levels)}")
    return all(v.answer for v in verdicts)
