"""JSON shapes shared by the command-line front end.

Rationals serialize as 'p/q' strings, vectors as lists of those, complex
matrices as row-major nested lists of [re, im] pairs.
"""

from __future__ import annotations

import numpy as np

from .errors import InputError
from .holonomy import PiecewiseConnection
from .rational import parse_rational
from .sun import complex_pairs


def matrix_to_json(m: np.ndarray) -> list:
    return complex_pairs(m)


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


def vector_from_strings(items) -> tuple:
    return tuple(parse_rational(str(s)) for s in items)
