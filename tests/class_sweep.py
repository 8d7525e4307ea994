"""The class sweep: the verdict of every axiom on conjugacy classes near a
degenerate configuration, alone and in fusions, as a committed table.

Every class with xi in the alcove is quasi-Hamiltonian, and so is every
fusion of such classes and doubles, so every cell should pass; the table
``class_sweep.json`` records the exit code and verdict each cell gets, so
that a change which moves one does so on purpose.  A cell is one axiom, one
seed and 10 samples on one space, and the table holds one line per space and
axiom, with [exit, pass] for seeds 0, 1 and 2:

- a lone class of n = 2, 3 or 4 in one of three families at distance
  eps = 1e-2 ... 1e-12 from a degenerate class: near the wall,
  (1/2 - eps, 0, ..., 0, eps - 1/2); tiny, (eps, 0, ..., 0, -eps); and near
  a quarter turn, (1/4 + eps, 0, ..., 0, -1/4 - eps)
- that class fused with a double, Fused([C, Double(n)]), or with a generic
  class C', Fused([C, C']), for n = 2 and 3

Exit codes are the command line's, from ``quasiham.cli.outcome``: 0 PASS,
1 FAIL, 2 an input error and 3 any other error.  ``test_spaces.py`` replays
a subset.  Recompute every cell and print each one whose [exit, pass]
differs from the table, exiting 1 if any does, with

    PYTHONPATH=src python tests/class_sweep.py --check

and regenerate the table (only when a verdict is meant to change) with

    PYTHONPATH=src python tests/class_sweep.py --write
"""

import json
import sys
from fractions import Fraction
from pathlib import Path

from quasiham.cli import outcome
from quasiham.spaces import AXIOMS, ConjugacyClass, Double, Fused, verify_axiom

SWEEP_PATH = Path(__file__).resolve().parent / "class_sweep.json"
FAMILIES = {
    "near-wall": lambda eps: (Fraction(1, 2) - eps, eps - Fraction(1, 2)),
    "tiny": lambda eps: (eps, -eps),
    "quarter": lambda eps: (Fraction(1, 4) + eps, -Fraction(1, 4) - eps),
}
EXPONENTS = range(2, 13)
SEEDS = (0, 1, 2)
SAMPLES = 10
GENERIC = {2: (Fraction(1, 8), Fraction(-1, 8)),
           3: (Fraction(1, 4), Fraction(1, 12), Fraction(-1, 3))}
KINDS = {
    "class": (2, 3, 4),
    "class+double": (2, 3),
    "class+class": (2, 3),
}


def groups(ns=(2, 3, 4), exponents=EXPONENTS):
    """The spaces and axioms of the sweep over the given n and exponents k
    of eps = 10^-k, as keys kind/n/family/k/axiom."""
    return [f"{kind}/{n}/{family}/{k}/{axiom}"
            for kind, kind_ns in KINDS.items() for n in kind_ns if n in ns
            for family in FAMILIES for k in exponents for axiom in AXIOMS]


def space(kind: str, n: int, family: str, k: int):
    top, bottom = FAMILIES[family](Fraction(1, 10**k))
    c = ConjugacyClass(n, (top,) + (Fraction(0),) * (n - 2) + (bottom,))
    if kind == "class":
        return c
    return Fused([c, Double(n) if kind == "class+double" else ConjugacyClass(n, GENERIC[n])])


def verdict(group: str, seed: int) -> tuple[int, str]:
    kind, n, family, k, axiom = group.split("/")
    rep = verify_axiom(space(kind, int(n), family, int(k)), axiom, samples=SAMPLES, seed=seed)
    return (0 if rep.passed else 1), ""


def run(group: str, seed: int) -> list:
    """[exit code, verdict] of one cell, as the command line ends."""
    code = outcome(verdict, group, seed)[0]
    return [code, {0: True, 1: False}.get(code)]


def load() -> dict:
    with open(SWEEP_PATH, "r", encoding="utf-8") as fh:
        return json.load(fh)


def cells() -> dict:
    """Every line of the table, recomputed."""
    return {g: [run(g, seed) for seed in SEEDS] for g in sorted(groups())}


def write():
    lines = [f"{json.dumps(g)}: {json.dumps(row)}" for g, row in cells().items()]
    with open(SWEEP_PATH, "w", encoding="utf-8") as fh:
        fh.write("{\n" + ",\n".join(lines) + "\n}\n")


def check() -> int:
    """Print every cell whose recomputed [exit, pass] differs from the
    table's; 1 if any does, else 0."""
    table, moved = load(), 0
    for g, row in cells().items():
        for seed, was, now in zip(SEEDS, table.get(g, [None] * len(SEEDS)), row):
            if now != was:
                print(f"{g} seed {seed}: {was} -> {now}")
                moved += 1
    print(f"{moved} of {len(SEEDS) * len(table)} cells differ")
    return int(moved > 0)


if __name__ == "__main__":
    if sys.argv[1:] == ["--check"]:
        sys.exit(check())
    if sys.argv[1:] != ["--write"]:
        sys.exit(__doc__)
    write()
