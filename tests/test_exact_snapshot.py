"""Byte-identity guard for the exact layer.

Every exact op the benchmark can run (the ``table`` verb, ``vertices`` of
the 31 table types, the ``level-weights`` pool and the ``check-class`` pool)
is rendered as the command line renders ``--json`` and compared with the
benchmark's committed snapshot: the full text for ``table``, its digest
otherwise.  The benchmark's own loader and digest are used, read-only.
"""

import sys
from pathlib import Path

import pytest

from quasiham.cli import dispatch, render

BENCH = Path(__file__).resolve().parent.parent / "bench"
sys.path.insert(0, str(BENCH))

from check import digest, load_snapshot  # noqa: E402
from workloads import exact_pool  # noqa: E402

SNAPSHOT = load_snapshot()
POOL = exact_pool()


def test_pool_is_fully_covered_by_snapshot():
    keys = {op.key for op in POOL if op.key != "table"}
    assert keys == set(SNAPSHOT["digests"])


@pytest.mark.parametrize("verb", ["table", "vertices", "level-weights", "check-class"])
def test_exact_outputs_match_snapshot(verb):
    mismatched = []
    for op in POOL:
        if op.verb != verb:
            continue
        code, payload = dispatch(op.argv)
        text = render(payload, as_json=True)
        if op.key == "table":
            same = text == SNAPSHOT["table_json"]
        else:
            same = digest(text) == SNAPSHOT["digests"][op.key]
        answer = payload.get("prequantizable", True) and payload.get("torsion_admissible", True)
        if not same or code != (0 if answer else 1):
            mismatched.append(op.key)
    assert not mismatched, f"{len(mismatched)} outputs differ, first: {mismatched[:5]}"
