"""Command-line front end.

Every verb routes to library operations and renders either human-readable
text or JSON (--json).  The command line and the replay tools in tests/ end
an op through `run(argv)` and `outcome`, the one mapping from exception to
exit code.  Every option is read or refused: `_ROWS` gives each row of a
verb the options it reads, with their defaults, and any other given option
exits 2.  No option moves a verdict's bar: each verdict reads one named
constant, an axiom's from spaces.TOLERANCES and the others' from this
module (SPHERE4_TOLERANCE, ETA_TOLERANCE, COCYCLE_TOLERANCE and
HOLONOMY_GRIDS), so it depends on the space and the seed alone.  Identical
invocations produce byte-identical JSON.  Exit codes: 0 success/pass, 1 a
verification that ran and failed, 2 usage or input errors (a tagged
InputError), 3 any other exception, an internal error, without traceback
and with nothing on stdout.  Internal errors include a non-finite
residual, a failed eigensolver and every check on data the package built
itself: the root tables, the level-weight enumeration, the alcove
normalization and the cocycle verb's draws, when more than 100 per sample
miss the full cover.  A closed stdout ends the output quietly and keeps the
exit code.

Numerical modules import lazily inside handlers so exact verbs stay snappy.
The exact verbs keep their per-op cost low: check-class reads each --xi
straight into integer numerators over one denominator (plain 'p/q' entries
without Fractions) and decides each class, verdict and open faces, from one
integer Gram pairing, the JSON writer emits a list of rows with one join
per row, and argv is parsed without argparse when it can be (`_parse`).  An
argv of a verb's exact flags, each value after its flag, not starting with
'-', valid for the flag's type and choices, and every required flag given,
is read in one pass over a table of the verb parser's own actions; any
other argv (abbreviations, --flag=value, -h, --, a value starting with '-',
an unknown token, a bad value, a missing flag) takes one argparse pass, so
every help and error text is argparse's.
"""

from __future__ import annotations

import argparse
import functools
import json
import math
import os
import sys
from itertools import chain
from types import SimpleNamespace

from .alcove import (
    alcove_vertices,
    level_weights,
    minimal_integral_level,
    weight_checks,
)
from .errors import InputError, ToolkitError, built_here
from .prequant import NOT_A_WEIGHT, class_decision, torsion_level_admissible
from .rational import format_rows, parse_numerators
from .roots import (
    LieType,
    a_series_embedding,
    a_series_numerators,
    build_root_system,
    height,
)

# Largest --samples of any verb, checked before anything is drawn.  The
# costliest verb per sample is cocycle at its largest n, 16, whose memory
# gerbe.COCYCLE_STACK holds to one stack: cold, 0.46-0.50 s at 2000 samples
# and 0.91-0.93 s at 5000, 48 MB at both (2-vCPU KVM guest, BLAS on 1
# thread).  The README's eta_su2 check takes 2000.
MAX_SAMPLES = 5000

# The bar of each verdict that is not an axiom's (those are
# spaces.TOLERANCES).  Census: the worst value over the ops of
# tests/replay_streams.py.
# sphere4 equivariance: 1.67e-15 over 16 ops.
SPHERE4_TOLERANCE = 1e-10
# eta_su2, |value - 1|: exactly 0 on all 16 ops, since its Monte Carlo has
# zero variance.
ETA_TOLERANCE = 1e-2
# the cocycle verb's unimodularity defect: 1.58e-30 over 296 ops, the
# rounding of eigh's orthogonality, the one thing it reads.
COCYCLE_TOLERANCE = 1e-8
# holonomy-convergence's step counts, with one order fitted through all of
# them: 8 and 16 come before the asymptotic range, so at n >= 8 the fit
# falsely FAILs (n = 8 reads 1.56 at seed 0, where 32, 64, 128 read 1.83).
HOLONOMY_GRIDS = (8, 16, 32, 64, 128)

_TABLE_RANKS = {
    "A": range(1, 9),
    "B": range(3, 9),
    "C": range(2, 9),
    "D": range(4, 9),
    "E": range(6, 9),
    "F": range(4, 5),
    "G": range(2, 3),
}


def _parse_xi(rs, text: str) -> tuple[tuple[int, ...], int]:
    """--xi in simple-root coordinates, as integer numerators over one
    denominator."""
    return _root_numerators(rs, *parse_numerators(text))


def _root_numerators(rs, nums: tuple[int, ...], den: int) -> tuple[tuple[int, ...], int]:
    """Numerators of --xi entries in simple-root coordinates: rank-many as
    they are, or for type A rank+1 eigenvalue coordinates converted."""
    if rs.lie_type.series == "A" and len(nums) == rs.rank + 1:
        return a_series_numerators(rs, nums), den
    if len(nums) != rs.rank:
        raise InputError(
            "dimension-mismatch",
            f"--xi expects {rs.rank} entries "
            f"(or {rs.rank + 1} eigenvalue coordinates for type A), got {len(nums)}"
        )
    return nums, den


def _run_table(args) -> tuple[int, dict]:
    rows = {}
    for series, ranks in _TABLE_RANKS.items():
        for d in ranks:
            lt = LieType(series, d)
            rows[str(lt)] = minimal_integral_level(build_root_system(lt))
    return 0, {"minimal_levels": rows}


def _run_vertices(args) -> tuple[int, dict]:
    rs = build_root_system(LieType.parse(args.type))
    return 0, {
        "lie_type": str(rs.lie_type),
        "positive_roots": len(rs.positive_roots),
        "highest_root_height": height(rs, rs.marks),
        "dual_coxeter": rs.dual_coxeter,
        "minimal_level": minimal_integral_level(rs),
        **alcove_vertices(rs).to_json(),
    }


def _run_level_weights(args) -> tuple[int, dict]:
    rs = build_root_system(LieType.parse(args.type))
    lws = level_weights(rs, args.level)
    checks = functools.partial(weight_checks, rs, den=lws.den, k=args.level)
    if checks(lws.nums) != (True, True):
        # the first escaping weight in sorted order names the escape
        first = next(c for c in map(checks, ([w] for w in lws.nums)) if c != (True, True))
        raise ToolkitError(f"enumerated weight escaped the {'alcove' if first[0] else 'lattice'}")
    return 0, lws.to_json()


def _run_check_class(args) -> tuple[int, dict]:
    rs, k = build_root_system(LieType.parse(args.type)), args.level
    # every --xi is parsed before any is decided; the fusion of the classes
    # is pre-quantizable iff each class is
    xis = [_parse_xi(rs, text) for text in args.xi]
    decisions = [class_decision(rs, nums, den, k) for nums, den in xis]
    entries = []
    for (nums, den), (answer, faces) in zip(xis, decisions):
        xi, witness = format_rows((nums, tuple(k * a for a in nums)), den)
        entries.append(
            {
                "xi": xi,
                "verdict": {"answer": answer, "level": k,
                            "witness": witness if answer else NOT_A_WEIGHT},
                "boundary": len(faces) <= rs.rank,
                "open_faces": faces,
            }
        )
    answer = all(passed for passed, _ in decisions)
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


def _run_axiom(args) -> tuple[int, dict]:
    from .spaces import ConjugacyClass, Double, Fused, Genus, verify_axiom
    from .sun import _bounded

    if args.space == "double":
        space = Double(args.n)
    elif args.space == "fused_double":
        space = Fused([Double(args.n)])
    elif args.space == "genus":
        space = Genus(args.n, args.genus)
    else:  # a class, the one space that reads --xi; without --n, n counts its entries
        if len(args.xi) > 1:
            raise InputError("unused-argument", f"conjugacy_class takes 1 --xi, got {len(args.xi)}")
        nums, den = parse_numerators(args.xi[0])
        n = len(nums) if args.n is None else args.n
        _bounded(n**2 - 1)  # before the root system, which grows with n
        rs = build_root_system(LieType("A", n - 1))
        # the eigenvalue coordinates' numerators over the same denominator
        space = ConjugacyClass(n, a_series_embedding(rs, _root_numerators(rs, nums, den)[0]), den)
    report = verify_axiom(space, args.axiom, samples=args.samples, seed=args.seed)
    payload = {"space": args.space, "n": space.n, **report.to_json()}
    return (0 if report.passed else 1), payload


def _run_sphere4(args) -> tuple[int, dict]:
    from .spaces import VerificationReport, sphere4_equivariance_residual

    worst = sphere4_equivariance_residual(samples=args.samples, seed=args.seed)
    report = VerificationReport("equivariance", args.samples, worst, SPHERE4_TOLERANCE,
                                worst < SPHERE4_TOLERANCE)
    # the text lists the axiom first, then the space, then the rest of the report
    payload = {"axiom": report.axiom, "space": "sphere4", **report.to_json()}
    return (0 if report.passed else 1), payload


def _run_eta(args) -> tuple[int, dict]:
    from .sun import eta_integral_su2

    value = eta_integral_su2(samples=args.samples, seed=args.seed)
    ok = bool(abs(value - 1.0) < ETA_TOLERANCE)
    return (0 if ok else 1), {
        "check": "eta_normalization",
        "samples": args.samples,
        "value": value,
        "tolerance": ETA_TOLERANCE,
        "pass": ok,
    }


def _run_cocycle(args) -> tuple[int, dict]:
    import numpy as np

    from .gerbe import eigenline_weights, max_unimodularity_defect, vertex_weight_consistency
    from .sun import _bounded

    # the cocycle is checked on triples i < j < k of eigenvalue indices
    if args.n < 3:
        raise InputError("invalid-rank", f"cocycle needs n >= 3, got {args.n}")
    _bounded(args.n**2 - 1)
    worst, rejected = max_unimodularity_defect(args.n, args.samples,
                                               np.random.default_rng(args.seed))
    consistent = vertex_weight_consistency(args.n)
    payload = {
        "n": args.n,
        "samples": args.samples,
        "rejected": rejected,
        "max_unimodularity_defect": worst,
        "tolerance": COCYCLE_TOLERANCE,
        "eigenline_weights": format_rows(eigenline_weights(args.n), args.n),
        "vertex_weight_consistency": consistent,
        "pass": worst < COCYCLE_TOLERANCE and consistent,
    }
    return (0 if payload["pass"] else 1), payload


def _run_holonomy_file(args) -> tuple[int, dict]:
    from .holonomy import holonomy
    from .serialize import connection_from_json
    from .sun import complex_pairs

    try:
        with open(args.file, "r", encoding="utf-8") as fh:
            data = json.load(fh)
    except OSError as exc:
        raise InputError("io-error", f"cannot read {args.file}: {exc.strerror}") from exc
    except ValueError as exc:
        raise InputError("malformed-json", f"{args.file} is not JSON: {exc}") from exc
    conn = connection_from_json(data)
    return 0, {"steps": conn.steps, "holonomy": complex_pairs(holonomy(conn))}


def _run_holonomy(args) -> tuple[int, dict]:
    import numpy as np

    from .holonomy import convergence_order, gauge_equivariance_residual
    from .sun import _bounded, random_algebra, random_special_unitary

    if args.n < 2:
        raise InputError("invalid-rank", f"SU(n) needs n >= 2, got {args.n}")
    _bounded(args.n**2 - 1)

    rng = np.random.default_rng(args.seed)
    x, y, z = random_algebra(args.n, rng, shape=(3,))
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

    with built_here():
        residuals = {
            n_steps: gauge_equivariance_residual(conn_fn, loop_fn, n_steps)
            for n_steps in HOLONOMY_GRIDS
        }
    order = convergence_order(residuals)
    ok = abs(order - 2.0) <= 0.3
    payload = {
        "grids": list(HOLONOMY_GRIDS),
        "residuals": {str(k): v for k, v in residuals.items()},
        "order": order,
        "pass": ok,
    }
    return (0 if ok else 1), payload


def _reduce_rank(args, h: int) -> tuple[int, dict]:
    """The moment map's rank on genus(n, h) at the point --at names."""
    import numpy as np

    from .spaces import Genus, reduction_rank
    from .sun import expm_skew, random_algebra, random_special_unitary

    rng = np.random.default_rng(args.seed)
    # The space is built first: it rejects an n the points cannot be drawn for.
    space = Genus(args.n, h)
    point = space.base  # the identity
    if args.at == "abba":
        a, b = expm_skew(random_algebra(args.n, rng, shape=(2,)))
        point = np.stack([a, b, b, a])
    elif args.at == "commuting":
        diag = 1j * np.diag([1.0] + [0.0] * (args.n - 2) + [-1.0])
        u = random_special_unitary(args.n, rng)
        a = u @ expm_skew(rng.normal() * diag) @ u.conj().T
        b = u @ expm_skew(rng.normal() * diag) @ u.conj().T
        point = np.stack([a, b])
    rank = reduction_rank(space, point)
    return 0, {
        "space": f"genus({args.n},{h})",
        "at": args.at,
        "rank": rank,
        "group_dim": args.n**2 - 1,
        "regular": rank == args.n**2 - 1,
    }


def _build_parsers() -> tuple[argparse.ArgumentParser, dict[str, argparse.ArgumentParser]]:
    """The command-line parser and its verb parsers by name.  A verb parser
    has no defaults: its namespace holds only the options the argv gives."""
    parser = argparse.ArgumentParser(
        prog="quasiham",
        description="Exact alcove arithmetic and numerical moment-map checks",
    )
    sub = parser.add_subparsers(dest="verb", required=True)
    verb = functools.partial(sub.add_parser, argument_default=argparse.SUPPRESS)

    verb("table", help="minimal integral levels per simple type")

    p = verb("vertices", help="alcove vertices and transition weights")
    p.add_argument("--type", required=True)

    p = verb("level-weights", help="weights inside the level-k alcove")
    p.add_argument("--type", required=True)
    p.add_argument("--level", type=int, required=True)

    p = verb("check-class", help="level-k pre-quantization of classes")
    p.add_argument("--type", required=True)
    p.add_argument("--xi", action="append", required=True,
                   help="alcove parameter as comma-separated rationals; repeatable")
    p.add_argument("--level", type=int, required=True)
    p.add_argument("--torsion", type=int,
                   help="torsion exponent of second homology, if known")

    p = verb("verify", help="residual checks of the space axioms")
    p.add_argument("--space", required=True, choices=[*_SPACE_READS, "sphere4", "eta_su2"])
    p.add_argument("--n", type=int)
    p.add_argument("--xi", action="append")
    p.add_argument("--genus", type=int)
    p.add_argument("--axiom", choices=_AXIOMS)
    p.add_argument("--samples", type=int)
    p.add_argument("--seed", type=int)

    p = verb("cocycle", help="determinant-line cocycle over random matrices")
    p.add_argument("--n", type=int)
    p.add_argument("--samples", type=int)
    p.add_argument("--seed", type=int)

    p = verb("holonomy-convergence", help="gauge equivariance residual against grid size")
    p.add_argument("--n", type=int)
    p.add_argument("--seed", type=int)
    p.add_argument("--file", help="JSON connection file; compute a single holonomy instead")

    p = verb("reduce-rank", help="moment-map rank on the identity level set")
    p.add_argument("--n", type=int)
    p.add_argument("--genus", type=int)
    p.add_argument("--at", required=True, choices=["abba", "commuting", "identity"])
    p.add_argument("--seed", type=int)

    for p in sub.choices.values():  # every row reads --json
        p.add_argument("--json", action="store_true")
    return parser, sub.choices


@functools.cache
def _shared_parsers() -> tuple[argparse.ArgumentParser, dict[str, argparse.ArgumentParser]]:
    """One set of parsers per process: parsing returns a fresh namespace each
    call and leaves the parsers as they were, so every call reuses them."""
    return _build_parsers()


# The action kinds a verb's table parses: a flag that takes one value
# (store, append; nargs None) or none (store_true; nargs 0).
_TABLE_KINDS = (argparse._StoreAction, argparse._AppendAction, argparse._StoreTrueAction)


@functools.cache
def _verb_table(verb: str) -> tuple[dict[str, argparse.Action], set[str]] | None:
    """The verb parser's own actions of the kinds in _TABLE_KINDS by exact
    flag, and the dests of all its required actions; None when it has a
    positional argument, which only argparse places."""
    actions = _shared_parsers()[1][verb]._actions
    if not all(action.option_strings for action in actions):
        return None
    flags = {flag: action for action in actions
             if type(action) in _TABLE_KINDS and action.nargs in (None, 0)
             for flag in action.option_strings}
    return flags, {action.dest for action in actions if action.required}


def _table_parse(argv: list[str]) -> argparse.Namespace | None:
    """The namespace the verb parser builds for argv[1:], attributes in the
    same order, when every token is an exact flag of the verb's table, each
    flag that takes a value is followed by a token that does not start with
    '-' and converts by its type into its choices, and every required flag
    is given; otherwise None."""
    table = _verb_table(argv[0])
    if table is None:
        return None
    flags, required = table
    args = argparse.Namespace(verb=argv[0])
    tokens = iter(argv[1:])
    for token in tokens:
        action = flags.get(token)
        if action is None:
            return None
        value = action.const
        if action.nargs is None:
            text = next(tokens, None)
            if text is None or text.startswith("-"):
                return None
            try:
                value = text if action.type is None else action.type(text)
            except (TypeError, ValueError, argparse.ArgumentTypeError):
                return None
            if action.choices is not None and value not in action.choices:
                return None
            if type(action) is argparse._AppendAction:
                value = [*getattr(args, action.dest, ()), value]
        setattr(args, action.dest, value)
    return args if required <= vars(args).keys() else None


def _parse(argv: list[str]) -> argparse.Namespace:
    """The full parser's parse_args(argv).  An argv that starts with a verb
    is first read against the verb's table (`_table_parse`), built once from
    the verb parser's own actions: exact flags, each value converted and
    checked as argparse would.  Any argv the table refuses (an abbreviation,
    --flag=value, -h, --, a value starting with '-', an unknown token, a bad
    value, a missing required flag) goes to the verb's parser alone in one
    argparse pass, which is what the full parser hands it, and what is left
    over gets the full parser's message.  Any other argv takes the full
    parser.  Every help and error text is argparse's own."""
    parser, verbs = _shared_parsers()
    verb = verbs.get(argv[0]) if argv else None
    if verb is None:
        return parser.parse_args(argv)
    args = _table_parse(argv)
    if args is not None:
        return args
    args, extras = verb.parse_known_args(argv[1:], argparse.Namespace(verb=argv[0]))
    if extras:
        parser.error(f"unrecognized arguments: {' '.join(extras)}")
    return args


# The default of a read option that the argv must give.
_REQUIRED = object()
# The options of each verify space beyond --n 2; _run_axiom builds each
# space from them.  A class reads --n without a default: its --xi entries,
# eigenvalue coordinates, count n.  The axioms are spaces.AXIOMS, named here
# so that the parser does not import the numerical layer.
_SPACE_READS = {"conjugacy_class": {"n": None, "xi": _REQUIRED}, "double": {},
                "fused_double": {}, "genus": {"genus": 1}}
_AXIOMS = ("cocycle", "moment", "min_degeneracy", "equivariance")

# Every row a parsed argv can pick, by name (the verb, then the value of each
# option in _PICKS that the argv gives, then --file if it gives one), with its
# handler and the options it reads, by their defaults.  Every row reads
# --json; --seed is read by the rows that draw and by reduce-rank --at identity.
_ROWS = {
    "table": (_run_table, {}),
    "vertices": (_run_vertices, {"type": _REQUIRED}),
    "level-weights": (_run_level_weights, {"type": _REQUIRED, "level": _REQUIRED}),
    "check-class": (_run_check_class,
                    {"type": _REQUIRED, "xi": _REQUIRED, "level": _REQUIRED, "torsion": None}),
    **{f"verify --space {space} --axiom {axiom}":
       (_run_axiom, {"n": 2, **reads, "samples": 50, "seed": 0})
       for space, reads in _SPACE_READS.items() for axiom in _AXIOMS},
    **{name: (_run_sphere4, {"samples": 50, "seed": 0})
       for name in ("verify --space sphere4", "verify --space sphere4 --axiom equivariance")},
    "verify --space eta_su2": (_run_eta, {"samples": 50, "seed": 0}),
    "cocycle": (_run_cocycle, {"n": 3, "samples": 100, "seed": 0}),
    "holonomy-convergence": (_run_holonomy, {"n": 2, "seed": 0}),
    "holonomy-convergence --file": (_run_holonomy_file, {}),
    "reduce-rank --at abba": (lambda args: _reduce_rank(args, 2), {"n": 2, "seed": 0}),
    "reduce-rank --at commuting": (lambda args: _reduce_rank(args, 1), {"n": 2, "seed": 0}),
    "reduce-rank --at identity":
        (lambda args: _reduce_rank(args, args.genus), {"n": 2, "genus": 1, "seed": 0}),
}
_PICKS = ("space", "axiom", "at")
# A handler's namespace holds every option of every row: the given value,
# else its row's default, else None for an option its row does not read.
_UNREAD = dict.fromkeys(option for _, reads in _ROWS.values() for option in reads)


def _flag(option: str) -> str:
    return "--" + option.replace("_", "-")


def _run(args) -> tuple[int, dict]:
    """Run the row of the parsed argv after refusing a sample count or seed
    that no row can run with, an option the row does not read and a
    missing required one; the row's defaults fill in the rest.  reduce-rank
    --at identity draws nothing and reads --seed: bench/workloads.py passes one."""
    given = vars(args)
    if "samples" in given and given["samples"] < 1:
        raise InputError("invalid-samples", f"need --samples >= 1, got {args.samples}")
    if "samples" in given and given["samples"] > MAX_SAMPLES:
        raise InputError("too-many-samples", f"--samples {args.samples} exceeds {MAX_SAMPLES}")
    if "seed" in given and args.seed < 0:
        raise InputError("invalid-seed", f"need --seed >= 0, got {args.seed}")
    words = [args.verb] + [f"--{o} {given[o]}" for o in _PICKS if o in given]
    if "file" in given:  # one row, whatever the file
        words.append("--file")
    name = " ".join(words)
    if name not in _ROWS:
        # only a verify space without an --axiom, or with one it cannot check
        if "axiom" not in given:
            raise InputError("missing-argument", f"--axiom is required for {args.space}")
        raise InputError("unsupported-axiom", f"{args.space} does not check {args.axiom}")
    handler, reads = _ROWS[name]
    unread = [_flag(o) for o in given
              if o not in reads and o not in ("verb", "json", "file", *_PICKS)]
    if unread:
        raise InputError("unused-argument", f"{name} does not read {', '.join(unread)}")
    missing = [_flag(o) for o, value in reads.items() if value is _REQUIRED and o not in given]
    if missing:
        raise InputError("missing-argument", f"{', '.join(missing)} is required for {name}")
    return handler(SimpleNamespace(**{**_UNREAD, **reads, **given}))


def dispatch(argv: list[str]) -> tuple[int, dict]:
    """Parse arguments and run the verb; returns (exit code, payload)."""
    return _run(_parse(argv))


# json's text of each scalar type by exact type, so a numpy float is refused
_SCALAR_JSON = {
    str: json.encoder.encode_basestring_ascii,
    int: int.__repr__,
    float: lambda x: float.__repr__(x) if math.isfinite(x) else json.dumps(x),
    bool: {True: "true", False: "false"}.__getitem__,
    type(None): lambda _: "null",
}


def _json(value, indent: str) -> str:
    kind = type(value)
    if kind in _SCALAR_JSON:
        return _SCALAR_JSON[kind](value)
    if kind is not list and kind is not dict:
        raise TypeError(f"Object of type {kind.__name__} is not JSON serializable")
    if not value:
        return "[]" if kind is list else "{}"
    inner = indent + "  "
    if kind is dict:
        items = (f"{_SCALAR_JSON[str](k)}: {_json(v, inner)}" for k, v in sorted(value.items()))
        return "{\n" + inner + (",\n" + inner).join(items) + "\n" + indent + "}"
    # a list of one scalar type is written by one map of its encoder, and a
    # list of non-empty rows of one scalar type by one join per row
    kinds = set(map(type, value))
    kind = kinds.pop() if len(kinds) == 1 else None
    if kind is list and all(value):
        cells = set(map(type, chain.from_iterable(value)))
        write = _SCALAR_JSON.get(cells.pop()) if len(cells) == 1 else None
        if write:
            deeper = inner + "  "
            rows = map((",\n" + deeper).join, map(functools.partial(map, write), value))
            between = "\n" + inner + "],\n" + inner + "[\n" + deeper
            return ("[\n" + inner + "[\n" + deeper + between.join(rows)
                    + "\n" + inner + "]\n" + indent + "]")
    write = _SCALAR_JSON.get(kind)
    items = map(write, value) if write else map(_json, value, [inner] * len(value))
    return "[\n" + inner + (",\n" + inner).join(items) + "\n" + indent + "]"


def render(payload: dict, as_json: bool) -> str:
    """The payload as text lines, or as JSON byte for byte equal to
    json.dumps(payload, sort_keys=True, indent=2) but written by `_json`:
    json.dumps skips its C encoder whenever indent is set (CPython 3.11) and
    makes a Python call per value.  A value of any other type raises TypeError."""
    if as_json:
        return _json(payload, "")
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


def outcome(op, *args) -> tuple[int, str, str]:
    """(exit code, stdout text, stderr text) of op(*args), which returns an
    exit code and its stdout text: the package's one mapping from exception
    to exit code.  A SystemExit, argparse's own exit, passes through."""
    try:
        code, text = op(*args)
    except InputError as exc:
        return 2, "", f"error: {exc}"
    except Exception as exc:  # a fault of the program, not of its input
        return 3, "", f"internal-error: {type(exc).__name__}: {exc}"
    return code, text, ""


def run(argv: list[str]) -> tuple[int, str, str]:
    """What the command line prints for argv, each text without its final
    newline: the payload is JSON if and only if --json is given."""
    def rendered():
        args = _parse(argv)
        code, payload = _run(args)
        return code, render(payload, "json" in args)
    return outcome(rendered)


def main(argv: list[str] | None = None) -> int:
    code, text, error = run(sys.argv[1:] if argv is None else argv)
    if error:
        print(error, file=sys.stderr)
        return code
    try:
        print(text, flush=True)
    except BrokenPipeError:
        # the reader has gone: what is left goes to the null device, so that
        # the flush at exit cannot fail again
        os.dup2(os.open(os.devnull, os.O_WRONLY), sys.stdout.fileno())
    return code


if __name__ == "__main__":
    sys.exit(main())
