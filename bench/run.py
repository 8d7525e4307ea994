"""quasiham benchmark: one workload, one seed, one run.

    python3 bench/run.py --workload exact|degeneracy|pointwise --seed N \
        --seconds S --trace 0|1

Run from the root of a checkout; the package is used from ``src`` as it
stands, with nothing to build.  The workload process runs with BLAS pinned to
one thread.  Human-readable lines (environment, workload composition, every
metric with its unit) come first; the last line of standard output is one
JSON object with the keys ``correct``, ``attempted``, ``failed`` and
``metrics``.  ``--trace 0`` reports the end-to-end metrics, ``--trace 1``
the per-layer ones.  Spans of a traced run and the full record of every run
are written under ``.bench_out/``.

Exits 2 without a result when the checkout holds no ``src/quasiham``, and 1
when the workload process fails.
"""

from __future__ import annotations

import argparse
import json
import os
import statistics
import subprocess
import sys
from pathlib import Path
from time import perf_counter

from calibrate import Calibrator
from workloads import SETUP_IMPORTS, WORKLOADS

BENCH = Path(__file__).resolve().parent
ROOT = BENCH.parent
SRC = ROOT / "src"
OUT = ROOT / ".bench_out"

SETUP_LAUNCHES = 9  # fresh interpreters per run; setup_s is their median
IMPORT_LAUNCHES = 5
DEADLINE_S = 170.0  # the whole run, well inside the 180 s allowed

THREAD_VARS = ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS")

END_TO_END_UNITS = {
    "setup_s": "s",
    "ops_per_s": "1/s",
    "op_p50_ms": "ms",
    "op_p90_ms": "ms",
    "pass_ratio": "ratio",
    "peak_rss_mb": "MB",
}

ENV_CODE = """
import json, os, platform
from importlib.metadata import version
import numpy
try:
    blas = numpy.show_config(mode="dicts")["Build Dependencies"]["blas"]
    blas = f"{blas['name']} {blas['version']}"
except Exception as exc:
    blas = f"unknown ({exc!r})"
print(json.dumps({
    "python": platform.python_version(),
    "numpy": numpy.__version__,
    "scipy": version("scipy"),
    "blas": blas,
    "nproc": os.cpu_count(),
    "cpus_usable": len(os.sched_getaffinity(0)),
    "threads": {k: os.environ.get(k) for k in %r},
}))
""" % (THREAD_VARS,)


def child_env() -> dict:
    env = dict(os.environ)
    env["PYTHONPATH"] = str(SRC)
    for var in THREAD_VARS:
        env[var] = "1"
    return env


def launch(argv, timeout) -> subprocess.CompletedProcess:
    return subprocess.run(argv, env=child_env(), cwd=ROOT, capture_output=True, text=True,
                          timeout=timeout, check=True)


def measure_setup(workload: str) -> tuple[float, dict]:
    """Median wall time from launching a fresh interpreter until it has
    imported everything the workload's verbs load, scaled to the reference
    host's speed by calibration bursts timed before each launch; one
    discarded warm-up launch first compiles bytecode."""
    argv = [sys.executable, "-c", "import " + ", ".join(SETUP_IMPORTS[workload])]
    launch(argv, 60)
    calibrator = Calibrator(numeric=False)
    times = []
    for _ in range(SETUP_LAUNCHES):
        calibrator.burst()
        t0 = perf_counter()
        launch(argv, 60)
        times.append(perf_counter() - t0)
    scale = calibrator.scale()
    return statistics.median(times) * scale, {"unscaled_s": times, **calibrator.record()}


def import_ms(stderr: str) -> dict:
    """Cumulative import times from ``python -X importtime`` output."""
    cumulative = {}
    for line in stderr.splitlines():
        parts = line.split("|")
        if len(parts) == 3 and parts[0].startswith("import time:"):
            name = parts[2].strip()
            if name not in cumulative and parts[1].strip().isdigit():
                cumulative[name] = int(parts[1]) / 1000.0
    return {
        "cli_ms": cumulative.get("quasiham", 0.0) + cumulative.get("quasiham.cli", 0.0),
        "scipy_ms": cumulative.get("scipy", 0.0) + cumulative.get("scipy.linalg", 0.0),
        "spaces_ms": cumulative.get("quasiham.spaces", 0.0),
    }


def measure_imports() -> dict:
    """Medians over fresh interpreters that import the CLI and then the
    space layer (numpy, scipy and the numerical modules come in with it)."""
    argv = [sys.executable, "-X", "importtime", "-c", "import quasiham.cli, quasiham.spaces"]
    runs = [import_ms(launch(argv, 60).stderr) for _ in range(IMPORT_LAUNCHES)]
    return {k: statistics.median(r[k] for r in runs) for k in runs[0]}


def fmt(value) -> str:
    return f"{value:.6g}" if isinstance(value, float) else str(value)


def main() -> int:
    ap = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    ap.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, required=True)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = ap.parse_args()
    if args.seconds <= 0:
        ap.error("--seconds must be positive")
    if not (SRC / "quasiham" / "cli.py").is_file():
        print(f"error: no quasiham package under {SRC}; run from the root of a checkout",
              file=sys.stderr)
        return 2

    started = perf_counter()
    OUT.mkdir(exist_ok=True)
    tag = f"{args.workload}-seed{args.seed}-trace{args.trace}"
    try:
        env = json.loads(launch([sys.executable, "-c", ENV_CODE], 60).stdout)
        setup_s, setup_samples = measure_setup(args.workload)
        imports = measure_imports() if args.trace else {}
        worker = [sys.executable, str(BENCH / "worker.py"), "--workload", args.workload,
                  "--seed", str(args.seed), "--seconds", str(args.seconds),
                  "--trace", str(args.trace), "--imports", json.dumps(imports),
                  "--spans", str(OUT / f"spans-{tag}.tsv")]
        proc = launch(worker, DEADLINE_S - (perf_counter() - started))
        result = json.loads(proc.stdout.strip().splitlines()[-1])
    except subprocess.CalledProcessError as exc:
        print(f"error: {exc.cmd[1:3]} exited {exc.returncode}:\n{exc.stderr}", file=sys.stderr)
        return 1
    except subprocess.TimeoutExpired as exc:
        print(f"error: {exc.cmd[1:3]} timed out after {exc.timeout:.0f} s", file=sys.stderr)
        return 1

    correct = result["wrong"] == 0 and not result["controls_missed"]
    if args.trace:
        metrics = result["per_layer"]
    else:
        metrics = {
            "setup_s": setup_s,
            "ops_per_s": result["ops_per_s"],
            "op_p50_ms": result["op_p50_ms"],
            "op_p90_ms": result["op_p90_ms"],
            "pass_ratio": 1.0 - result["fail_ratio"],
            "peak_rss_mb": result["peak_rss_mb"],
        }
        metrics = {k: (v, END_TO_END_UNITS[k]) for k, v in metrics.items()}

    record = {"workload": args.workload, "why": WORKLOADS[args.workload].why,
              "seed": args.seed, "seconds": args.seconds, "trace": args.trace,
              "environment": env, "setup": setup_samples, **result}
    with open(OUT / f"run-{tag}.json", "w", encoding="utf-8") as fh:
        json.dump(record, fh, indent=1, sort_keys=True)

    print(f"workload {args.workload}: {WORKLOADS[args.workload].why}")
    print(f"seed {args.seed}, {args.seconds:g} s, trace {args.trace}; closed loop, one client")
    print("environment: " + ", ".join(f"{k}={v}" for k, v in env.items()))
    for label, counts in result["composition"].items():
        print(f"composition by {label}: " + ", ".join(f"{k}={fmt(v)}" for k, v in counts.items()))
    if not args.trace:
        cut = "" if result["complete_rounds"] else ", the last one cut by the time limit"
        print(f"rounds {result['rounds']}{cut}")
        cal = result["calibration"]
        print(f"host speed: {cal['bursts']} calibration bursts, mean {cal['mean_burst_s']:.6g} s "
              f"against {cal['reference_burst_s']:g} s on the reference host; times below are "
              f"scaled by {cal['scale']:.6g}, unscaled: "
              + ", ".join(f"{k} {fmt(v)}" for k, v in result["raw"].items()))
    setup = record["setup"]
    print(f"setup: {len(setup['unscaled_s'])} launches, unscaled median "
          f"{fmt(statistics.median(setup['unscaled_s']))} s, scaled by {setup['scale']:.6g}")
    print(f"ops {result['attempted']} ({result['ops_beyond_p90']} beyond p90), "
          f"failed {result['failed']}, fail_ratio {fmt(result['fail_ratio'])} ratio, "
          f"wrong {result['wrong']}, checker controls missed {len(result['controls_missed'])}")
    for argv, outcome, reason in result["problems"]:
        print(f"  {outcome}: {argv}: {reason}")
    for miss in result["controls_missed"]:
        print(f"  control missed: {miss}")
    for name, (value, unit) in metrics.items():
        count = f" over {result['attempted']} ops" if name in ("op_p50_ms", "op_p90_ms") else ""
        print(f"  {name:45s} {fmt(value):>14s} {unit}{count}")
    print(json.dumps({
        "correct": correct,
        "attempted": result["attempted"],
        "failed": result["failed"],
        "metrics": {k: {"value": v, "unit": u} for k, (v, u) in metrics.items()},
    }))
    return 0


if __name__ == "__main__":
    sys.exit(main())
