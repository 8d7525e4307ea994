"""Level-k pre-quantization decision procedures.

A conjugacy class with alcove parameter xi admits a level-k pre-quantization
exactly when k*xi is a weight; homology torsion gives a divisibility rule;
fusion products inherit pre-quantizability componentwise, so a fusion of
classes passes iff each class does.  `class_decision` reads both the level-k
verdict of a class and its open faces from the rank + 1 integer Gram
pairings of xi's numerators, taken once.
"""

from __future__ import annotations

from operator import mul

from .alcove import gram_pairing
from .errors import InputError
from .rational import format_ratio
from .roots import RootSystem

# the witness of a failed level-k test
NOT_A_WEIGHT = "not-in-weight-lattice"


def class_decision(rs: RootSystem, nums: tuple[int, ...], den: int,
                   k: int) -> tuple[bool, list[int]]:
    """(whether the conjugacy class of exp(xi) is pre-quantizable at level k,
    i.e. whether k*xi is a weight; the open faces of xi) for the alcove
    parameter xi = nums / den.

    With p_i = scale * den * (a_i, xi) and t = scale * den * (theta, xi),
    the barycentric coordinates of xi times scale * den are scale * den - t
    and mark_i * p_i: xi is in the level-1 alcove iff none is negative, and
    its open faces, the indices j of the cover pieces containing xi, are the
    positive ones.  k*xi is a weight iff every (k xi, a_i^v) =
    2 k p_i / (gram_ii den) is an integer.
    """
    if k < 1:
        raise InputError("invalid-level", f"level must be >= 1, got {k}")
    if len(nums) != rs.rank:
        raise InputError("dimension-mismatch", f"expected length {rs.rank}")
    *simple, theta = gram_pairing(rs, nums)
    bary = (rs.scale * den - theta, *map(mul, rs.marks, simple))
    if min(bary) < 0:
        raise InputError(
            "not-in-alcove",
            f"{','.join(format_ratio(n, den) for n in nums)} is not a conjugacy-class"
            " parameter (outside the alcove)",
        )
    answer = not any(2 * k * p % (row[i] * den)
                     for i, (row, p) in enumerate(zip(rs.int_gram, simple)))
    return answer, [j for j, t in enumerate(bary) if t > 0]


def torsion_level_admissible(r: int, k: int) -> bool:
    """Divisibility rule for r-torsion second homology: level k works iff
    r divides k (r = 1 encodes trivial H_2 and always passes)."""
    if r < 1:
        raise InputError("invalid-torsion", f"torsion exponent must be >= 1, got {r}")
    if k < 1:
        raise InputError("invalid-level", f"level must be >= 1, got {k}")
    return k % r == 0
