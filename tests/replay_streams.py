"""Stream replay: one digest per benchmark workload and one for the cocycle
verb, so that a change which should keep every output can show it does.

Each op is a CLI argument vector with ``--json``, run by
``quasiham.cli.run``, which ends it as the command line does; its text is
what the command line prints, on stdout or on stderr.  A digest is the
sha256 of ``f"{code}\\n{text}\\n"`` over the ops of its stream, in order:

- ``exact``, ``degeneracy`` and ``pointwise``: the ops of
  ``bench/workloads.py``, seeds 1 and 2, each the prelude and 4 rounds
- ``cocycle``: ``cocycle --n N --seed S --samples 5 --json`` for n = 3..6 at
  seeds 0-59, then ``--samples 50`` for n = 8, 12 and 16 at seeds 0-7

Print the four digests of the package on ``PYTHONPATH`` with

    PYTHONPATH=src python tests/replay_streams.py

and replay every op in this checkout and in a second one (a ``git archive``
of another commit, say), listing each op whose exit code or text differs,
with the top-level keys that differ when both texts are JSON objects,
exiting 1 if any does, with

    python tests/replay_streams.py --against TREE

BLAS runs on one thread, as in the benchmark.  Each tree replays its own
streams with its own copy of this script; the ops are paired in order, and
the replay stops if a pair names different ops.
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
                          "--samples", str(samples), "--json"]


def replay():
    """(stream name, argv, exit code, text) of every op, in replay order."""
    from quasiham.cli import run

    for name, argv in streams():
        code, out, err = run(list(argv))
        yield name, argv, code, out + err


def tally(table: dict, name: str, code: int, text: str):
    """Add one op to table, stream name -> [ops, running sha256]."""
    entry = table.setdefault(name, [0, hashlib.sha256()])
    entry[0] += 1
    entry[1].update(f"{code}\n{text}\n".encode())


def show(table: dict):
    for name, (count, digest) in table.items():
        print(f"  {name} ({count} ops): {digest.hexdigest()}")


def _records(tree: Path):
    env = {**os.environ, "PYTHONPATH": str(tree / "src")}
    proc = subprocess.Popen([sys.executable, tree / "tests" / "replay_streams.py", "--emit"],
                            env=env, stdout=subprocess.PIPE, text=True)
    with proc:
        try:
            yield from map(json.loads, proc.stdout)
        except GeneratorExit:  # the pairing stopped early: end the replay quietly
            proc.kill()
            raise
    if proc.returncode:
        raise SystemExit(f"replay in {tree} exited {proc.returncode}")


def differing_keys(text: str, before: str) -> list:
    """The top-level keys whose values differ between two texts that are
    both JSON objects, in order of appearance; [] if either is not one."""
    try:
        new, old = json.loads(text), json.loads(before)
    except ValueError:
        return []
    if not (isinstance(new, dict) and isinstance(old, dict)):
        return []
    return [key for key in {**old, **new}
            if key not in new or key not in old or json.dumps(new[key]) != json.dumps(old[key])]


def against(tree: Path) -> int:
    """Replay in this checkout and in tree, one op of each at a time; print
    each op that differs and both trees' digests; 1 if any op differs."""
    ours, theirs = {}, {}
    ops = moved = 0
    for mine, other in zip(_records(ROOT), _records(tree), strict=True):
        # both trees print JSON, and older ones leave --json out of an argv
        named = [f"{r[0]}: {' '.join(a for a in r[1] if a != '--json')}" for r in (mine, other)]
        if named[0] != named[1]:
            raise SystemExit(f"streams diverge at op {ops}: {named[0]} vs {named[1]}")
        tally(ours, mine[0], *mine[2:])
        tally(theirs, other[0], *other[2:])
        ops += 1
        if mine[2:] != other[2:]:
            moved += 1
            keys = differing_keys(mine[3], other[3])
            print(f"{mine[0]} {' '.join(mine[1])}: exit {other[2]} -> {mine[2]}"
                  + (", text differs" if mine[3] != other[3] else "")
                  + (f": {', '.join(keys)}" if keys else ""))
    for label, table in ((tree, theirs), (ROOT, ours)):
        print(f"{label}:")
        show(table)
    print(f"{moved} of {ops} ops differ")
    return int(moved > 0)


if __name__ == "__main__":
    args = sys.argv[1:]
    if args == ["--emit"]:  # every op as one JSON line, for --against
        for record in replay():
            print(json.dumps(record), flush=True)
    elif len(args) == 2 and args[0] == "--against":
        sys.exit(against(Path(args[1]).resolve()))
    elif args:
        sys.exit(__doc__)
    else:
        table = {}
        for name, _, code, text in replay():
            tally(table, name, code, text)
        show(table)
