"""Verdict guard for the numerical layer.

The first round of the benchmark's ``degeneracy`` and ``pointwise`` streams
of seeds 1-4 is replayed as the command line runs it, and every op's exit
code and ``pass`` verdict is compared with ``verdicts.json``.  Floating-point
digits may move; verdicts may not, and every passing residual must stay
below the tolerance it prints.  The benchmark's stream generator is used
read-only.  The recorded verdicts include the known false FAILs of
``holonomy-convergence``; a change that fixes them updates this file on
purpose.

Regenerate the file (only when a verdict is meant to change) with

    PYTHONPATH=src python tests/test_verdict_snapshot.py --write
"""

import json
import sys
from pathlib import Path

import pytest

from quasiham import cli

HERE = Path(__file__).resolve().parent
sys.path.insert(0, str(HERE.parent / "bench"))

from workloads import Stream  # noqa: E402

VERDICTS_PATH = HERE / "verdicts.json"
STREAMS = [(w, s) for w in ("degeneracy", "pointwise") for s in (1, 2, 3, 4)]


def residual(payload):
    """(residual, tolerance) of a payload that reports one, else None."""
    if payload is None or "tolerance" not in payload:
        return None
    if payload.get("check") == "eta_normalization":
        return abs(payload["value"] - 1.0), payload["tolerance"]
    if "max_unimodularity_defect" in payload:
        return payload["max_unimodularity_defect"], payload["tolerance"]
    return payload["max_residual"], payload["tolerance"]


def replay(workload, seed):
    out = []
    for op in Stream(workload, seed).round():
        # the op gives --json; an op that exits with an error prints no payload
        code, text, _ = cli.run(op.argv)
        payload = json.loads(text) if text else None
        out.append({
            "argv": " ".join(op.argv),
            "exit": code,
            "pass": None if payload is None else payload.get("pass"),
            "residual": residual(payload),
        })
    return out


def load():
    with open(VERDICTS_PATH, "r", encoding="utf-8") as fh:
        return json.load(fh)


@pytest.mark.parametrize("workload,seed", STREAMS)
def test_verdicts_match_snapshot(workload, seed):
    recorded = load()[f"{workload}:{seed}"]
    ops = replay(workload, seed)
    assert [op["argv"] for op in ops] == [r["argv"] for r in recorded]
    changed = [(op["argv"], r["exit"], op["exit"], r["pass"], op["pass"])
               for op, r in zip(ops, recorded)
               if (op["exit"], op["pass"]) != (r["exit"], r["pass"])]
    assert not changed, f"{len(changed)} verdicts differ, first: {changed[:3]}"
    above = [(op["argv"], op["residual"]) for op in ops
             if op["pass"] and op["residual"] is not None
             and not op["residual"][0] < op["residual"][1]]
    assert not above, f"passing residuals at or above tolerance: {above[:3]}"


def test_snapshot_covers_every_stream():
    data = load()
    assert set(data) == {f"{w}:{s}" for w, s in STREAMS}
    assert sum(len(v) for k, v in data.items() if k.startswith("degeneracy")) == 100
    assert sum(len(v) for k, v in data.items() if k.startswith("pointwise")) == 220


def write():
    data = {}
    for workload, seed in STREAMS:
        data[f"{workload}:{seed}"] = [
            {"argv": op["argv"], "exit": op["exit"], "pass": op["pass"]}
            for op in replay(workload, seed)
        ]
    with open(VERDICTS_PATH, "w", encoding="utf-8") as fh:
        json.dump(data, fh, indent=1, sort_keys=True)
        fh.write("\n")


if __name__ == "__main__":
    if sys.argv[1:] != ["--write"]:
        sys.exit(__doc__)
    write()
