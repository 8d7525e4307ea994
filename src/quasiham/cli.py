"""Command-line front end.

Every verb routes to library operations and renders either human-readable
text or JSON (--json).  Sampling verbs take --seed (default 0) and identical
invocations produce byte-identical JSON.  Exit codes: 0 success/pass, 1 a
verification that ran and failed, 2 usage or input errors.

Numerical modules import lazily inside handlers so exact verbs stay snappy.
"""

from __future__ import annotations

import argparse
import functools
import json
import math
import sys

from .alcove import (
    alcove_contains,
    alcove_vertices,
    level_weights,
    minimal_integral_level,
    open_face_set,
    transition_weight,
    weight_checks,
)
from .errors import InputError, ToolkitError
from .prequant import class_prequantizable, fusion_prequantizable, torsion_level_admissible
from .rational import format_vector, parse_vector
from .roots import (
    LieType,
    a_series_embedding,
    a_series_from_euclidean,
    build_root_system,
    height,
)

# Largest --samples of any verb, checked before anything is drawn.  The
# costliest verb per sample is cocycle at its largest n, 16, which holds every
# sample's spectral record at once: 430 MB at 2000 samples, 1018 MB and 12 s
# at 5000 (2-vCPU KVM guest, BLAS on 1 thread).  The README's eta_su2 check
# takes 2000.
MAX_SAMPLES = 5000
# Largest grid of holonomy-convergence.  A grid's loop and connection samples
# grow as N n^2: --n 16 with a grid of 4096 took 0.5 s and 185 MB, --n 2 with
# 65536 took 76 MB.
MAX_GRID = 4096

_TABLE_RANKS = {
    "A": range(1, 9),
    "B": range(3, 9),
    "C": range(2, 9),
    "D": range(4, 9),
    "E": range(6, 9),
    "F": range(4, 5),
    "G": range(2, 3),
}


def _parse_xi(rs, text: str):
    xi = parse_vector(text)
    if rs.lie_type.series == "A" and len(xi) == rs.rank + 1:
        return a_series_from_euclidean(rs, xi)
    if len(xi) != rs.rank:
        raise InputError(
            "dimension-mismatch",
            f"--xi expects {rs.rank} entries "
            f"(or {rs.rank + 1} eigenvalue coordinates for type A), got {len(xi)}"
        )
    return xi


def _run_table(args) -> tuple[int, dict]:
    rows = {}
    for series, ranks in _TABLE_RANKS.items():
        for d in ranks:
            lt = LieType(series, d)
            rows[str(lt)] = minimal_integral_level(build_root_system(lt))
    return 0, {"minimal_levels": rows}


def _run_vertices(args) -> tuple[int, dict]:
    rs = build_root_system(LieType.parse(args.type))
    model = alcove_vertices(rs)
    payload = {
        "lie_type": str(rs.lie_type),
        "positive_roots": len(rs.positive_roots),
        "highest_root_height": height(rs, rs.highest_root),
        "dual_coxeter": rs.dual_coxeter,
        "minimal_level": minimal_integral_level(rs),
        "vertices": model.to_json()["vertices"],
        "transition_weights": {
            f"{i},{j}": format_vector(transition_weight(rs, i, j))
            for i in range(rs.rank + 1)
            for j in range(rs.rank + 1)
            if i < j
        },
    }
    if rs.lie_type.series == "A":
        payload["vertices_euclidean"] = [
            format_vector(a_series_embedding(rs, v)) for v in model.vertices
        ]
    return 0, payload


def _run_level_weights(args) -> tuple[int, dict]:
    rs = build_root_system(LieType.parse(args.type))
    lws = level_weights(rs, args.level)
    for nums in lws.nums:
        is_weight, in_alcove = weight_checks(rs.lattice, nums, lws.den, args.level)
        if not is_weight:
            raise ToolkitError("enumerated weight escaped the lattice")
        if args.level >= 1 and not in_alcove:
            raise ToolkitError("enumerated weight escaped the alcove")
    return 0, lws.to_json()


def _run_check_class(args) -> tuple[int, dict]:
    rs = build_root_system(LieType.parse(args.type))
    xis = [_parse_xi(rs, text) for text in args.xi]
    verdicts = [class_prequantizable(rs, xi, args.level) for xi in xis]
    entries = []
    for xi, verdict in zip(xis, verdicts):
        membership = alcove_contains(rs, xi, 1)
        entries.append(
            {
                "xi": format_vector(xi),
                "verdict": verdict.to_json(),
                "boundary": membership.boundary,
                "open_faces": sorted(open_face_set(rs, xi)),
            }
        )
    answer = fusion_prequantizable(verdicts)
    payload = {
        "lie_type": str(rs.lie_type),
        "level": args.level,
        "classes": entries,
        "prequantizable": answer,
    }
    if args.torsion is not None:
        payload["torsion_admissible"] = torsion_level_admissible(args.torsion, args.level)
        answer = answer and payload["torsion_admissible"]
    return (0 if answer else 1), payload


def _build_space(args):
    from .spaces import _bounded, make_space

    xi = None
    if args.space == "conjugacy_class":
        if not args.xi:
            raise InputError("missing-argument", "--xi is required for conjugacy_class")
        _bounded(args.n**2 - 1)  # before the root system, which grows with n
        rs = build_root_system(LieType("A", args.n - 1))
        xi = a_series_embedding(rs, _parse_xi(rs, args.xi[0]))
    return make_space(args.space, n=args.n, xi=xi, h=args.genus)


def _run_verify(args) -> tuple[int, dict]:
    if args.space == "eta_su2":
        if args.axiom is not None:
            raise InputError("unsupported-axiom", "eta_su2 checks only the 3-form normalization")
        from .sun import eta_integral_su2

        tol = 1e-2 if args.tol is None else args.tol
        value = eta_integral_su2(samples=args.samples, seed=args.seed)
        ok = bool(abs(value - 1.0) < tol)
        return (0 if ok else 1), {
            "check": "eta_normalization",
            "samples": args.samples,
            "value": value,
            "tolerance": tol,
            "pass": ok,
        }
    if args.space == "sphere4":
        if args.axiom not in (None, "equivariance"):
            raise InputError("unsupported-axiom", "sphere4 only supports the equivariance check")
        from .spaces import sphere4_equivariance_residual

        tol = 1e-10 if args.tol is None else args.tol
        worst = sphere4_equivariance_residual(samples=args.samples, seed=args.seed)
        ok = worst < tol
        return (0 if ok else 1), {
            "axiom": "equivariance",
            "space": "sphere4",
            "samples": args.samples,
            "max_residual": worst,
            "tolerance": tol,
            "pass": ok,
        }
    if args.axiom is None:
        raise InputError("missing-argument", "--axiom is required for this space")
    from .spaces import verify_axiom

    space = _build_space(args)
    report = verify_axiom(
        space,
        args.axiom,
        samples=args.samples,
        fd_step=args.fd_step,
        tol=args.tol,
        seed=args.seed,
    )
    payload = {"space": args.space, "n": args.n, **report.to_json()}
    return (0 if report.passed else 1), payload


def _run_cocycle(args) -> tuple[int, dict]:
    from itertools import combinations

    import numpy as np

    from .gerbe import (
        _spectral_record,
        _strict_gaps,
        eigenline_weight,
        vertex_weight_consistency,
    )
    from .spaces import _bounded
    from .sun import alcove_coordinates, expm_skew, random_algebra

    # the cocycle is checked on triples i < j < k of eigenvalue indices
    if args.n < 3:
        raise InputError("invalid-rank", f"cocycle needs n >= 3, got {args.n}")
    _bounded(args.n**2 - 1)
    rng = np.random.default_rng(args.seed)
    # a loop's draws, which reject a matrix with a gap that is not strict: the
    # missing samples are drawn as one stack until none is missing
    mats, phases = np.empty((0, args.n, args.n), dtype=complex), np.empty((0, args.n))
    rejected = 0
    while len(mats) < args.samples:
        a = expm_skew(random_algebra(args.n, rng, shape=(args.samples - len(mats),)))
        lam = alcove_coordinates(a)
        regular = np.all(_strict_gaps(lam), axis=-1)
        rejected += int(np.sum(~regular))
        if rejected > 100 * args.samples:
            raise InputError("sampling-failed", "no regular matrices among the draws")
        mats, phases = np.concatenate([mats, a[regular]]), np.concatenate([phases, lam[regular]])
    # one record of the accepted samples; each triple is one batched pair of
    # determinants over them, and a collapsed coefficient is a defect of one
    record = _spectral_record(mats, phases)
    worst = 0.0
    for triple in combinations(range(1, args.n + 1), 3):
        coeff = record.coefficient(*triple)
        worst = max(worst, float(np.max(np.abs(np.abs(coeff) - 1.0))))
    tol = 1e-8 if args.tol is None else args.tol
    consistent = vertex_weight_consistency(args.n)
    payload = {
        "n": args.n,
        "samples": args.samples,
        "rejected": rejected,
        "max_unimodularity_defect": worst,
        "tolerance": tol,
        "eigenline_weights": [
            format_vector(eigenline_weight(args.n, i)) for i in range(1, args.n + 1)
        ],
        "vertex_weight_consistency": consistent,
        "pass": worst < tol and consistent,
    }
    return (0 if payload["pass"] else 1), payload


def _run_holonomy(args) -> tuple[int, dict]:
    import numpy as np

    from .holonomy import (
        convergence_order,
        gauge_equivariance_residual,
        holonomy,
    )
    from .serialize import connection_from_json
    from .spaces import _bounded
    from .sun import complex_pairs, random_algebra, random_special_unitary

    if args.file is not None:
        try:
            with open(args.file, "r", encoding="utf-8") as fh:
                data = json.load(fh)
        except OSError as exc:
            raise InputError("io-error", f"cannot read {args.file}: {exc.strerror}") from exc
        except ValueError as exc:
            raise InputError("malformed-json", f"{args.file} is not JSON: {exc}") from exc
        conn = connection_from_json(data)
        hol = holonomy(conn)
        return 0, {"steps": conn.steps, "holonomy": complex_pairs(hol)}

    try:
        grids = [int(s) for s in args.grids.split(",")]
    except ValueError as exc:
        raise InputError(
            "invalid-grids", f"--grids takes comma-separated integers, got {args.grids!r}"
        ) from exc
    if len(set(grids)) < 2 or min(grids) < 1:
        raise InputError("invalid-grids", f"need two distinct grid sizes >= 1, got {grids}")
    if max(grids) > MAX_GRID:
        raise InputError("grid-too-large", f"grid size {max(grids)} exceeds {MAX_GRID}")
    if args.n < 2:
        raise InputError("invalid-rank", f"SU(n) needs n >= 2, got {args.n}")
    _bounded(args.n**2 - 1)

    rng = np.random.default_rng(args.seed)
    x = random_algebra(args.n, rng)
    y = random_algebra(args.n, rng)
    z = random_algebra(args.n, rng)
    g0 = random_special_unitary(args.n, rng)
    # The test loop g0 exp(2 pi t W) exp(sin(2 pi t) z) in closed form: W is
    # i diag(1, 0, ..., 0, -1), and exp(s z) = V e^{-i s mu} V* for i z = V mu V*.
    mu, vecs = np.linalg.eigh(1j * z)
    turn = np.zeros(args.n)
    turn[0], turn[-1] = 1.0, -1.0

    def conn_fn(t):
        return np.sin(2 * np.pi * t) * x + np.cos(4 * np.pi * t) * y

    def loop_fn(ts):
        t = ts[:, None]
        wound = g0 * np.exp(2j * np.pi * t * turn)[:, None, :]
        flow = vecs * np.exp(-1j * np.sin(2 * np.pi * t) * mu)[:, None, :]
        return wound @ flow @ vecs.conj().T

    residuals = {
        n_steps: gauge_equivariance_residual(conn_fn, loop_fn, n_steps)
        for n_steps in grids
    }
    order = convergence_order(residuals)
    ok = abs(order - 2.0) <= 0.3
    payload = {
        "grids": grids,
        "residuals": {str(k): v for k, v in residuals.items()},
        "order": order,
        "pass": ok,
    }
    return (0 if ok else 1), payload


def _run_reduce_rank(args) -> tuple[int, dict]:
    import numpy as np

    from .spaces import make_space, reduction_rank
    from .sun import expm_skew, random_special_unitary

    rng = np.random.default_rng(args.seed)
    # The space is built first: it rejects an n the points cannot be drawn for.
    h = {"abba": 2, "commuting": 1}.get(args.at, args.genus)
    space = make_space("genus", n=args.n, h=h)
    if args.at == "abba":
        a = random_special_unitary(args.n, rng)
        b = random_special_unitary(args.n, rng)
        point = np.stack([a, b, b, a])
    elif args.at == "commuting":
        diag = 1j * np.diag([1.0] + [0.0] * (args.n - 2) + [-1.0])
        u = random_special_unitary(args.n, rng)
        a = u @ expm_skew(rng.normal() * diag) @ u.conj().T
        b = u @ expm_skew(rng.normal() * diag) @ u.conj().T
        point = np.stack([a, b])
    elif args.at == "identity":
        point = space.base
    else:
        raise ToolkitError(f"unknown point kind {args.at!r}")
    rank = reduction_rank(space, point)
    return 0, {
        "space": f"genus({args.n},{h})",
        "at": args.at,
        "rank": rank,
        "group_dim": args.n**2 - 1,
        "regular": rank == args.n**2 - 1,
    }


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="quasiham",
        description="Exact alcove arithmetic and numerical moment-map checks",
    )
    sub = parser.add_subparsers(dest="verb", required=True)

    p = sub.add_parser("table", help="minimal integral levels per simple type")
    p.add_argument("--json", action="store_true")

    p = sub.add_parser("vertices", help="alcove vertices and transition weights")
    p.add_argument("--type", required=True)
    p.add_argument("--json", action="store_true")

    p = sub.add_parser("level-weights", help="weights inside the level-k alcove")
    p.add_argument("--type", required=True)
    p.add_argument("--level", type=int, required=True)
    p.add_argument("--json", action="store_true")

    p = sub.add_parser("check-class", help="level-k pre-quantization of classes")
    p.add_argument("--type", required=True)
    p.add_argument("--xi", action="append", required=True,
                   help="alcove parameter as comma-separated rationals; repeatable")
    p.add_argument("--level", type=int, required=True)
    p.add_argument("--torsion", type=int, default=None,
                   help="torsion exponent of second homology, if known")
    p.add_argument("--json", action="store_true")

    p = sub.add_parser("verify", help="residual checks of the space axioms")
    p.add_argument("--space", required=True,
                   choices=["conjugacy_class", "double", "fused_double", "genus",
                            "sphere4", "eta_su2"])
    p.add_argument("--n", type=int, default=2)
    p.add_argument("--xi", action="append", default=None)
    p.add_argument("--genus", type=int, default=1)
    p.add_argument("--axiom", default=None,
                   choices=["cocycle", "moment", "min_degeneracy", "equivariance"])
    p.add_argument("--samples", type=int, default=50)
    p.add_argument("--fd-step", type=float, default=1e-4)
    p.add_argument("--tol", type=float, default=None)
    p.add_argument("--seed", type=int, default=0)
    p.add_argument("--json", action="store_true")

    p = sub.add_parser("cocycle", help="determinant-line cocycle over random matrices")
    p.add_argument("--n", type=int, default=3)
    p.add_argument("--samples", type=int, default=100)
    p.add_argument("--tol", type=float, default=None)
    p.add_argument("--seed", type=int, default=0)
    p.add_argument("--json", action="store_true")

    p = sub.add_parser("holonomy-convergence",
                       help="gauge equivariance residual against grid size")
    p.add_argument("--n", type=int, default=2)
    p.add_argument("--grids", default="8,16,32,64,128")
    p.add_argument("--seed", type=int, default=0)
    p.add_argument("--file", default=None,
                   help="JSON connection file; compute a single holonomy instead")
    p.add_argument("--json", action="store_true")

    p = sub.add_parser("reduce-rank", help="moment-map rank on the identity level set")
    p.add_argument("--n", type=int, default=2)
    p.add_argument("--genus", type=int, default=1)
    p.add_argument("--at", required=True, choices=["abba", "commuting", "identity"])
    p.add_argument("--seed", type=int, default=0)
    p.add_argument("--json", action="store_true")

    return parser


_HANDLERS = {
    "table": _run_table,
    "vertices": _run_vertices,
    "level-weights": _run_level_weights,
    "check-class": _run_check_class,
    "verify": _run_verify,
    "cocycle": _run_cocycle,
    "holonomy-convergence": _run_holonomy,
    "reduce-rank": _run_reduce_rank,
}


@functools.cache
def _shared_parser() -> argparse.ArgumentParser:
    """One parser per process: parse_args returns a fresh namespace each
    call and leaves the parser as it was, so dispatch reuses it."""
    return build_parser()


def _check_args(args) -> None:
    """Reject a sample count or tolerance no verb can run with; the checks
    apply to every verb that takes the option."""
    if getattr(args, "samples", 1) < 1:
        raise InputError("invalid-samples", f"need --samples >= 1, got {args.samples}")
    if getattr(args, "samples", 1) > MAX_SAMPLES:
        raise InputError("too-many-samples", f"--samples {args.samples} exceeds {MAX_SAMPLES}")
    tol = getattr(args, "tol", None)
    if tol is not None and not (math.isfinite(tol) and tol > 0):
        raise InputError("invalid-tolerance", f"need a finite --tol > 0, got {tol}")


def dispatch(argv: list[str]) -> tuple[int, dict]:
    """Parse arguments and run the verb; returns (exit code, payload)."""
    args = _shared_parser().parse_args(argv)
    _check_args(args)
    return _HANDLERS[args.verb](args)


def render(payload: dict, as_json: bool) -> str:
    if as_json:
        return json.dumps(payload, sort_keys=True, indent=2)
    if "minimal_levels" in payload:
        return _render_table(payload["minimal_levels"])
    lines = []

    def emit(prefix, value):
        if isinstance(value, dict):
            for k in value:
                emit(f"{prefix}{k}." if prefix else f"{k}.", value[k])
        elif isinstance(value, list) and value and isinstance(value[0], dict):
            for i, item in enumerate(value):
                emit(f"{prefix[:-1]}[{i}].", item)
        elif isinstance(value, bool):
            lines.append(f"{prefix[:-1]}: {str(value).lower()}")
        else:
            lines.append(f"{prefix[:-1]}: {value}")

    emit("", payload)
    return "\n".join(lines)


def _render_table(levels: dict) -> str:
    lines = ["series  ranks      level"]
    for series in "ABCDEFG":
        entries = {
            int(key[1:]): v for key, v in levels.items() if key[0] == series
        }
        ranks = sorted(entries)
        if series == "E":
            for d in ranks:
                lines.append(f"E{d}      -          {entries[d]}")
            continue
        values = sorted(set(entries.values()))
        value = values[0] if len(values) == 1 else entries
        if len(ranks) > 1:
            span = f"d={ranks[0]}..{ranks[-1]}"
            lines.append(f"{series}_d     {span:<10} {value}")
        else:
            lines.append(f"{series}{ranks[0]}      -          {value}")
    return "\n".join(lines)


def main(argv: list[str] | None = None) -> int:
    argv = sys.argv[1:] if argv is None else argv
    try:
        code, payload = dispatch(argv)
    except (ToolkitError, ValueError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    as_json = "--json" in argv
    print(render(payload, as_json))
    return code


if __name__ == "__main__":
    sys.exit(main())
