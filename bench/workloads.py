"""Seeded op streams for the three benchmark workloads.

Every op is a CLI argument vector, run through ``quasiham.cli.dispatch`` and
``render(payload, as_json=True)`` exactly as the command line prints it.  A
stream is a prelude followed by rounds.  Every round of a workload holds the
same multiset of op shapes (verb, space, samples, type and level, ...); the
seed only picks the concrete inputs (points, per-op ``--seed`` values) and
the order.  A run measures a fixed number of whole rounds, so its op counts
and latency quantiles do not depend on where the clock happened to stop.
Each round holds 5 mod 10 ops: with R rounds the median and the 90th
percentile then fall in the middle of a block of R like ops in the sorted
latencies, not on the edge between two kinds of op.

Exact ops are drawn from fixed pools (independent of the workload seed), so
the snapshot in ``snapshot.json`` covers the exact output of every seed.

Standard library only: the orchestrator imports this module without numpy.
"""

from __future__ import annotations

import random
from dataclasses import dataclass, field
from fractions import Fraction

# The 31 types of the ``table`` verb.
TABLE_TYPES = (
    [f"A{r}" for r in range(1, 9)]
    + [f"B{r}" for r in range(3, 9)]
    + [f"C{r}" for r in range(2, 9)]
    + [f"D{r}" for r in range(4, 9)]
    + ["E6", "E7", "E8", "F4", "G2"]
)

# Spellings ``LieType.parse`` accepts; cycling them keeps argv distinct when a
# finite pool is reused, while the payload (and the snapshot key) is the same.
SPELLINGS = ("{s}{r}", "{l}{r}", "{s}_{r}", "{l}_{r}")

# Eight levels per type, from a few weights to several hundred.
LEVELS = {
    "A2": (2, 5, 9, 14, 19, 24, 29, 33),
    "A3": (1, 3, 5, 7, 9, 11, 12, 13),
    "A4": (1, 2, 3, 4, 5, 6, 7, 8),
    "B3": (1, 3, 5, 7, 9, 11, 13, 15),
    "C3": (1, 3, 5, 7, 9, 10, 11, 12),
    "D4": (1, 2, 3, 4, 5, 6, 7, 8),
    "G2": (3, 7, 11, 15, 19, 23, 27, 31),
    "F4": (1, 2, 3, 4, 5, 6, 7, 8),
    "E6": (1, 2, 3, 4, 5, 6, 7, 8),
}

CHECK_CLASS_POOL_SEED = 20051
CHECK_CLASS_POOL_SIZE = 1000
CHECK_CLASS_PER_ROUND = 102  # 72 level-weights + 31 vertices + 102 = 205 ops

# Spaces of the axiom checks: label -> (verify arguments or the rank n of a
# generic class, tangent dimension d).  A rank entry draws a fresh generic
# alcove point per op.
SPACES = {
    "class(2,1/8)": (["--space", "conjugacy_class", "--n", "2", "--xi", "1/8,-1/8"], 2),
    "class(2,1/4)": (["--space", "conjugacy_class", "--n", "2", "--xi", "1/4,-1/4"], 2),
    "class(3,generic)": (3, 6),
    "class(4)": (4, 12),
    "double(3)": (["--space", "double", "--n", "3"], 16),
    "double(4)": (["--space", "double", "--n", "4"], 30),
    "fused_double(3)": (["--space", "fused_double", "--n", "3"], 16),
    "genus(2,2)": (["--space", "genus", "--n", "2", "--genus", "2"], 12),
    "genus(2,3)": (["--space", "genus", "--n", "2", "--genus", "3"], 18),
    "genus(3,2)": (["--space", "genus", "--n", "3", "--genus", "2"], 32),
    "genus(3,3)": (["--space", "genus", "--n", "3", "--genus", "3"], 48),
}

# One degeneracy round (25 ops): (space, samples) pairs.  The cheap spaces
# run at 1, 2 and 3 samples, the expensive ones at one, so that a 30 s run
# holds about ten rounds (some 250 ops) with genus(3,3) in every round.
DEGENERACY_ROUND = (
    [(s, k) for s in ("class(2,1/8)", "class(2,1/4)", "class(3,generic)", "double(3)",
                      "double(4)", "fused_double(3)", "genus(2,2)") for k in (1, 2, 3)]
    + [("genus(2,3)", 1), ("genus(3,2)", 1), ("class(4)", 1), ("genus(3,3)", 1)]
)

# One pointwise round (55 ops): 33 axiom checks, 11 reduce-rank, 4 sphere4 /
# eta_su2, 4 cocycle and 3 holonomy-convergence ops.
POINTWISE_AXIOMS = ("moment", "cocycle", "equivariance")
POINTWISE_SAMPLES = 2
REDUCE_RANK = ([("abba", n, None) for n in (2, 3, 4)]
               + [("commuting", n, None) for n in (2, 3, 4)]
               + [("identity", n, h) for n, h in ((2, 1), (2, 2), (3, 1), (3, 2), (4, 1))])
CURVE_SAMPLES = (200, 400)  # sphere4 and eta_su2
GERBE_SAMPLES = 5


# Modules each workload's verbs import lazily (verify, cocycle,
# holonomy-convergence and reduce-rank load the numerical layer on first use).
SETUP_IMPORTS = {
    "exact": ["quasiham.cli"],
    "degeneracy": ["quasiham.cli", "quasiham.spaces"],
    "pointwise": ["quasiham.cli", "quasiham.spaces", "quasiham.gerbe", "quasiham.holonomy",
                  "quasiham.serialize"],
}


@dataclass
class Op:
    verb: str
    argv: list
    key: str | None = None  # snapshot key of an exact op
    labels: dict = field(default_factory=dict)  # composition record


OP_SHARE = 0.9  # of a run's time goes to ops; calibration and checking take the rest


@dataclass(frozen=True)
class Workload:
    name: str
    why: str
    trace_rounds: int  # rounds of the fixed traced prefix
    round_s: float  # seconds one round takes on the reference host

    def rounds(self, seconds: float) -> int:
        """Rounds of an untraced run of about ``seconds`` on the reference
        host."""
        return max(1, round(seconds * OP_SHARE / self.round_s))


WORKLOADS = {
    w.name: w
    for w in (
        Workload(
            "exact",
            "Fraction work in roots/rational/alcove/prequant with no numpy: cold table, "
            "level-weights, check-class and vertices",
            trace_rounds=1,
            round_s=10.5,
        ),
        Workload(
            "degeneracy",
            "min_degeneracy on spaces with d = 2..48: the d(d-1)/2 pairwise omega calls "
            "through the fusion tree dominate",
            trace_rounds=3,
            round_s=2.7,
        ),
        Workload(
            "pointwise",
            "axiom residuals with few omega calls, reduce-rank, sphere4/eta, gerbe triples "
            "and holonomy grids",
            trace_rounds=7,
            round_s=1.6,
        ),
    )
}


def _spell(type_label: str, variant: int) -> str:
    series, rank = type_label[0], type_label[1:]
    return SPELLINGS[variant % len(SPELLINGS)].format(s=series, l=series.lower(), r=rank)


def alcove_point(rng: random.Random, n: int, generic: bool) -> list[Fraction]:
    """A rational point of the SU(n) alcove in eigenvalue coordinates.

    The n cyclic gaps (the last one wraps around by one) are c_i / q with
    nonnegative integers c_i summing to q; a generic point has every gap
    positive, so its eigenvalues are distinct.
    """
    lo = 1 if generic else 0
    q = rng.randint(max(2, lo * n), 12)
    extra = q - lo * n
    cuts = sorted(rng.randint(0, extra) for _ in range(n - 1))
    gaps = [b - a + lo for a, b in zip([0] + cuts, cuts + [extra])]
    # gaps[0] is the wrap-around gap; the others separate consecutive phases.
    lam = [Fraction(0)]
    for c in gaps[1:]:
        lam.append(lam[-1] - Fraction(c, q))
    shift = sum(lam) / n
    return [x - shift for x in lam]


def _xi_text(point) -> str:
    return ",".join(str(x) for x in point)


def check_class_pool() -> list[Op]:
    """Fixed pool of check-class ops on random type-A alcove points."""
    rng = random.Random(CHECK_CLASS_POOL_SEED)
    seen = set()
    pool = []
    while len(pool) < CHECK_CLASS_POOL_SIZE:
        rank = rng.randint(1, 5)
        argv = ["check-class", "--type", f"A{rank}"]
        for _ in range(rng.randint(1, 2)):
            argv += ["--xi", _xi_text(alcove_point(rng, rank + 1, generic=False))]
        level = rng.randint(1, 24)
        argv += ["--level", str(level)]
        if rng.random() < 0.25:
            argv += ["--torsion", str(rng.randint(1, 3))]
        argv.append("--json")
        text = " ".join(argv)
        if text in seen:
            continue
        seen.add(text)
        pool.append(Op("check-class", argv, key=f"check-class#{len(pool)}",
                       labels={"type": f"A{rank}", "level": level}))
    return pool


def vertices_op(type_label: str, variant: int = 0) -> Op:
    return Op("vertices", ["vertices", "--type", _spell(type_label, variant), "--json"],
              key=f"vertices {type_label}", labels={"type": type_label})


def level_weights_op(type_label: str, level: int, variant: int = 0) -> Op:
    return Op("level-weights",
              ["level-weights", "--type", _spell(type_label, variant), "--level", str(level),
               "--json"],
              key=f"level-weights {type_label} {level}",
              labels={"type": type_label, "level": level})


def table_op() -> Op:
    return Op("table", ["table", "--json"], key="table")


def exact_pool() -> list[Op]:
    """Every exact op any seed can generate, in canonical spelling."""
    return (
        [table_op()]
        + [vertices_op(t) for t in TABLE_TYPES]
        + [level_weights_op(t, k) for t, ks in LEVELS.items() for k in ks]
        + check_class_pool()
    )


class Stream:
    """The op stream of one workload and seed: ``prelude``, then one call of
    ``round()`` per round; the same seed always gives the same ops."""

    def __init__(self, workload: str, seed: int):
        if workload not in WORKLOADS:
            raise ValueError(f"unknown workload {workload!r}")
        self.workload = workload
        self.rng = random.Random(f"{workload}:{seed}")
        self._used_seeds = set()
        self.rounds = 0
        self.prelude = [table_op()] if workload == "exact" else []
        if workload == "exact":
            self._cc_order = check_class_pool()
            self.rng.shuffle(self._cc_order)

    def _op_seed(self) -> str:
        while True:
            s = self.rng.randrange(2**31)
            if s not in self._used_seeds:
                self._used_seeds.add(s)
                return str(s)

    def round(self) -> list[Op]:
        r = self.rounds
        self.rounds += 1
        ops = getattr(self, f"_{self.workload}_round")(r)
        self.rng.shuffle(ops)
        return ops

    def _exact_round(self, r: int) -> list[Op]:
        """Every level-weights level and every vertices type once, spelled
        per round so argv stays distinct for four rounds, plus the next
        check-class ops of a seeded order of the pool."""
        ops = [level_weights_op(t, k, variant=r) for t, ks in LEVELS.items() for k in ks]
        ops += [vertices_op(t, variant=r) for t in TABLE_TYPES]
        start = (r * CHECK_CLASS_PER_ROUND) % CHECK_CLASS_POOL_SIZE
        ops += (self._cc_order * 2)[start:start + CHECK_CLASS_PER_ROUND]
        return ops

    def _space_args(self, label: str) -> list[str]:
        args, _ = SPACES[label]
        if isinstance(args, int):
            point = alcove_point(self.rng, args, generic=True)
            return ["--space", "conjugacy_class", "--n", str(args), "--xi", _xi_text(point)]
        return list(args)

    def _verify_op(self, label: str, axiom: str, samples: int) -> Op:
        argv = (["verify"] + self._space_args(label)
                + ["--axiom", axiom, "--samples", str(samples), "--seed", self._op_seed(),
                   "--json"])
        return Op("verify", argv, labels={"space": label, "axiom": axiom, "d": SPACES[label][1],
                                          "samples": samples})

    def _degeneracy_round(self, r: int) -> list[Op]:
        return [self._verify_op(s, "min_degeneracy", k) for s, k in DEGENERACY_ROUND]

    def _pointwise_round(self, r: int) -> list[Op]:
        ops = [self._verify_op(s, a, POINTWISE_SAMPLES) for a in POINTWISE_AXIOMS for s in SPACES]
        for at, n, h in REDUCE_RANK:
            argv = ["reduce-rank", "--at", at, "--n", str(n)]
            if h is not None:
                argv += ["--genus", str(h)]
            ops.append(Op("reduce-rank", argv + ["--seed", self._op_seed(), "--json"],
                          labels={"at": at, "n": n}))
        for space in ("sphere4", "eta_su2"):
            for k in CURVE_SAMPLES:
                ops.append(Op("verify", ["verify", "--space", space, "--samples", str(k),
                                         "--seed", self._op_seed(), "--json"],
                              labels={"space": space, "samples": k}))
        for n in (3, 4, 5, 6):
            ops.append(Op("cocycle", ["cocycle", "--n", str(n), "--samples", str(GERBE_SAMPLES),
                                      "--seed", self._op_seed(), "--json"],
                          labels={"n": n, "samples": GERBE_SAMPLES}))
        for n in (2, 3, 4):
            ops.append(Op("holonomy-convergence",
                          ["holonomy-convergence", "--n", str(n), "--seed", self._op_seed(),
                           "--json"],
                          labels={"n": n}))
        return ops
