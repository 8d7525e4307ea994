"""JSON input of the command-line front end: complex matrices as row-major
nested lists of [re, im] pairs, and connections as lists of those.
"""

from __future__ import annotations

import numpy as np

from .errors import InputError
from .holonomy import PiecewiseConnection


def matrix_from_json(data) -> np.ndarray:
    try:
        # two values per entry by unpacking; of the non-numbers complex() takes only a bool
        out = np.array([[complex(re, im) for re, im in row] for row in data], dtype=complex)
        if any(isinstance(v, bool) for row in data for entry in row for v in entry):
            raise TypeError("a bool is not a number")
    except (TypeError, ValueError, OverflowError) as exc:
        raise InputError(
            "malformed-matrix", "expected rows of equal length of [re, im] number pairs"
        ) from exc
    if out.ndim != 2 or out.shape[0] != out.shape[1]:
        raise InputError("malformed-matrix", f"expected a square matrix, got {out.shape}")
    return out


def connection_from_json(data) -> PiecewiseConnection:
    """Accept either a bare list of algebra matrices or {'samples': [...]}."""
    if isinstance(data, dict):
        data = data.get("samples")
    if not isinstance(data, list):
        raise InputError("malformed-connection", "expected a list of algebra matrices")
    return PiecewiseConnection(samples=tuple(matrix_from_json(m) for m in data))
