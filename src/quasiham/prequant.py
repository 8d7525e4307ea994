"""Level-k pre-quantization decision procedures.

A conjugacy class with alcove parameter xi admits a level-k pre-quantization
exactly when k*xi is a weight; homology torsion gives a divisibility rule;
fusion products inherit pre-quantizability componentwise, so a fusion of
classes passes iff each class does.
"""

from __future__ import annotations

from .alcove import weight_checks
from .errors import InputError
from .rational import format_ratio
from .roots import RootSystem

# the witness of a failed level-k test
NOT_A_WEIGHT = "not-in-weight-lattice"


def class_level_test(rs: RootSystem, nums: tuple[int, ...], den: int, k: int) -> bool:
    """Whether the conjugacy class of exp(xi) is pre-quantizable at level k,
    i.e. whether k*xi is a weight, for the alcove parameter xi = nums / den."""
    if k < 1:
        raise InputError("invalid-level", f"level must be >= 1, got {k}")
    if len(nums) != rs.rank:
        raise InputError("dimension-mismatch", f"expected length {rs.rank}")
    # xi is in the level-1 alcove iff k*xi is in the level-k one: one check
    is_weight, in_alcove = weight_checks(rs, [tuple(k * a for a in nums)], den, k)
    if not in_alcove:
        raise InputError(
            "not-in-alcove",
            f"{','.join(format_ratio(n, den) for n in nums)} is not a conjugacy-class"
            " parameter (outside the alcove)",
        )
    return is_weight


def torsion_level_admissible(r: int, k: int) -> bool:
    """Divisibility rule for r-torsion second homology: level k works iff
    r divides k (r = 1 encodes trivial H_2 and always passes)."""
    if r < 1:
        raise InputError("invalid-torsion", f"torsion exponent must be >= 1, got {r}")
    if k < 1:
        raise InputError("invalid-level", f"level must be >= 1, got {k}")
    return k % r == 0
