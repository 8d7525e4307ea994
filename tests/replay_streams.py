"""Stream replay: one digest per benchmark workload and one for the cocycle
verb, so that a change which should keep every output can show it does.

Each op is a CLI argument vector run through ``quasiham.cli.dispatch`` and
``render(payload, True)``; an op that raises ends as the command line ends,
with exit 2 and ``error: ...`` for an input error and exit 3 and
``internal-error: ...`` otherwise.  A digest is the sha256 of
``f"{code}\\n{text}\\n"`` over the ops of its stream, in order:

- ``exact``, ``degeneracy`` and ``pointwise``: the ops of
  ``bench/workloads.py``, seeds 1 and 2, each the prelude and 4 rounds
- ``cocycle``: ``cocycle --n N --seed S --samples 5`` for n = 3..6 at seeds
  0-59, then ``--samples 50`` for n = 8, 12 and 16 at seeds 0-7

Print the four digests of the package on ``PYTHONPATH`` with

    PYTHONPATH=src python tests/replay_streams.py

and replay every op in this checkout and in a second one (a ``git archive``
of another commit, say), listing each op whose exit code or text differs,
exiting 1 if any does, with

    python tests/replay_streams.py --against TREE

BLAS runs on one thread, as in the benchmark.  The streams come from this
checkout's ``bench/workloads.py`` in both trees.
"""

import hashlib
import json
import os
import subprocess
import sys
from pathlib import Path

for _var in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS"):
    os.environ.setdefault(_var, "1")

ROOT = Path(__file__).resolve().parents[1]
sys.path.insert(0, str(ROOT / "bench"))

from workloads import Stream  # noqa: E402

SEEDS = (1, 2)
ROUNDS = 4
COCYCLE_RUNS = ([(n, seed, 5) for n in range(3, 7) for seed in range(60)]
                + [(n, seed, 50) for n in (8, 12, 16) for seed in range(8)])


def streams():
    """(stream name, argv) of every op, in replay order."""
    for workload in ("exact", "degeneracy", "pointwise"):
        for seed in SEEDS:
            stream = Stream(workload, seed)
            ops = list(stream.prelude)
            for _ in range(ROUNDS):
                ops += stream.round()
            for op in ops:
                yield workload, op.argv
    for n, seed, samples in COCYCLE_RUNS:
        yield "cocycle", ["cocycle", "--n", str(n), "--seed", str(seed),
                          "--samples", str(samples)]


def replay():
    """(stream name, argv, exit code, text) of every op, in replay order."""
    from quasiham.cli import dispatch, render
    from quasiham.errors import InputError

    for name, argv in streams():
        try:
            code, payload = dispatch(list(argv))
            text = render(payload, True)
        except InputError as exc:
            code, text = 2, f"error: {exc}"
        except Exception as exc:  # a fault of the program, not of its input
            code, text = 3, f"internal-error: {type(exc).__name__}: {exc}"
        yield name, argv, code, text


def tally(table: dict, name: str, code: int, text: str):
    """Add one op to table, stream name -> [ops, running sha256]."""
    entry = table.setdefault(name, [0, hashlib.sha256()])
    entry[0] += 1
    entry[1].update(f"{code}\n{text}\n".encode())


def show(table: dict):
    for name, (count, digest) in table.items():
        print(f"  {name} ({count} ops): {digest.hexdigest()}")


def emit():
    """Every op as one JSON line, for --against."""
    for record in replay():
        print(json.dumps(record), flush=True)


def _records(tree: Path):
    env = {**os.environ, "PYTHONPATH": str(tree / "src")}
    proc = subprocess.Popen([sys.executable, __file__, "--emit"], env=env,
                            stdout=subprocess.PIPE, text=True)
    try:
        for line in proc.stdout:
            yield json.loads(line)
    finally:
        proc.stdout.close()
        if proc.wait():
            raise SystemExit(f"replay in {tree} exited {proc.returncode}")


def against(tree: Path) -> int:
    """Replay in this checkout and in tree, one op of each at a time; print
    each op that differs and both trees' digests; 1 if any op differs."""
    ours, theirs = {}, {}
    ops = moved = 0
    for mine, other in zip(_records(ROOT), _records(tree)):
        tally(ours, mine[0], *mine[2:])
        tally(theirs, other[0], *other[2:])
        ops += 1
        if mine[2:] != other[2:]:
            moved += 1
            print(f"{mine[0]} {' '.join(mine[1])}: exit {other[2]} -> {mine[2]}"
                  + (", text differs" if mine[3] != other[3] else ""))
    for label, table in ((tree, theirs), (ROOT, ours)):
        print(f"{label}:")
        show(table)
    print(f"{moved} of {ops} ops differ")
    return int(moved > 0)


if __name__ == "__main__":
    args = sys.argv[1:]
    if args == ["--emit"]:
        emit()
    elif len(args) == 2 and args[0] == "--against":
        sys.exit(against(Path(args[1]).resolve()))
    elif args:
        sys.exit(__doc__)
    else:
        table = {}
        for name, _, code, text in replay():
            tally(table, name, code, text)
        show(table)
