"""JSON input of the command-line front end: complex matrices as row-major
nested lists of [re, im] pairs, and connections as lists of those.
"""

from __future__ import annotations

import numpy as np

from .errors import InputError
from .holonomy import PiecewiseConnection


def matrix_from_json(data) -> np.ndarray:
    try:
        rows = [[complex(entry[0], entry[1]) for entry in row] for row in data]
    except (TypeError, IndexError) as exc:
        raise InputError(
            "malformed-matrix", "expected row-major [re, im] pair entries"
        ) from exc
    out = np.array(rows, dtype=complex)
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
