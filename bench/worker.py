"""Workload process: runs one op stream through the CLI entry points.

    python3 bench/worker.py --workload NAME --seed N --seconds S --trace 0|1 \
        [--imports JSON] [--spans PATH]

``run.py`` starts it with ``src`` on the path and BLAS pinned to one thread;
it prints one JSON line.  The load is a closed loop with one client: each op
is sent after the previous one returned.  Ops go through
``quasiham.cli.dispatch`` plus ``render(payload, as_json=True)``, exactly as
the command line prints them, and every output is judged by ``check.py``.

Untraced (--trace 0), the stream runs a fixed number of whole rounds, sized
so that the run takes about S seconds on the reference host (``Workload.
rounds``) and holds at least MIN_OPS ops.  The work of a run, and so its
``attempted`` and ``failed`` counts, depends only on the workload, the seed
and S.  Between ops, whenever CALIBRATE_EVERY_S of op time has passed, a
fixed calibration burst (``calibrate.py``) is timed; the reported times are
scaled to the reference host's speed with it.  Traced (--trace 1), a fixed prefix
(prelude plus the workload's ``trace_rounds`` rounds) runs twice from cold
caches: untraced, then with spans around every layer boundary, so counts
repeat exactly between runs of one seed and the ratio of the two wall times
is the tracing overhead.
"""

from __future__ import annotations

import argparse
import importlib
import json
import resource
import statistics
import sys
import traceback
from collections import Counter
from time import perf_counter, perf_counter_ns

from calibrate import Calibrator
from check import FAILED, OK, Checker, negative_controls
from tracer import Tracer, cache_clearers, install, per_layer
from workloads import SETUP_IMPORTS, WORKLOADS, Stream

MIN_OPS = 100  # so the p90 has at least ten samples beyond it
CALIBRATE_EVERY_S = 0.3  # op time between two calibration bursts
HARD_LIMIT_S = 150.0  # stop mid-round past min(max(3 * seconds, 60), this)


class Run:
    """Executes ops, judges their outputs and keeps what the metrics need."""

    def __init__(self, cli, checker, tracer=None, calibrator=None):
        self.cli = cli
        self.checker = checker
        self.tracer = tracer
        self.calibrator = calibrator
        self.since_burst_ns = 0
        self.records = []  # (op, latency_ns, outcome)
        self.problems = []  # (argv, outcome, reason) for every op not OK
        self.exact_sample = None
        self.numeric_sample = None
        self.seen = set()
        self.repeats = 0

    def op(self, op):
        argv = op.argv
        t0 = perf_counter_ns()
        try:
            if self.tracer is None:
                code, payload = self.cli.dispatch(argv)
                text = self.cli.render(payload, as_json=True)
            else:
                code, payload = self.tracer.span_call("cli.dispatch", self.cli.dispatch, argv)
                text = self.tracer.span_call("cli.render", self.cli.render, payload, True)
        except SystemExit as exc:  # argparse usage error
            code, text = 2, f"usage error ({exc.code})"
        except Exception as exc:  # the CLI prints these as errors with exit 2
            code, text = 2, "".join(traceback.format_exception_only(type(exc), exc))
        latency = perf_counter_ns() - t0
        self.since_burst_ns += latency
        if self.calibrator is not None and self.since_burst_ns >= CALIBRATE_EVERY_S * 1e9:
            self.calibrator.burst()
            self.since_burst_ns = 0

        outcome, reason = self.checker.check(op, code, text)
        self.records.append((op, latency, outcome))
        key = tuple(argv)
        self.repeats += key in self.seen
        self.seen.add(key)
        if outcome != OK:
            self.problems.append((" ".join(argv), outcome, reason))
        elif op.key is not None:
            self.exact_sample = self.exact_sample or (op, code, text)
        elif '"pass"' in text:
            self.numeric_sample = self.numeric_sample or (op, code, text)

    def ops(self, ops, deadline):
        """Run ops in order; False if the hard deadline cut them short."""
        for op in ops:
            if perf_counter() >= deadline:
                return False
            self.op(op)
        return True

    @property
    def busy_ns(self):
        return sum(lat for _, lat, _ in self.records)


def composition(records) -> dict:
    """Op counts by verb and by each label, and the share of time taken by
    each verb and by each space."""
    out = {"verb": Counter(), "time_share": Counter(), "space_time_share": Counter()}
    total = sum(lat for _, lat, _ in records) or 1
    for op, lat, _ in records:
        out["verb"][op.verb] += 1
        out["time_share"][op.verb] += lat / total
        if "space" in op.labels:
            out["space_time_share"][op.labels["space"]] += lat / total
        for label in ("space", "axiom", "n", "d", "samples", "type", "level", "at"):
            if label in op.labels:
                out.setdefault(label, Counter())[str(op.labels[label])] += 1
    def order(item):
        return (0, int(item[0]), "") if item[0].isdigit() else (1, 0, item[0])

    return {k: dict(sorted(v.items(), key=order)) for k, v in out.items()}


def summary(run: Run, scale: float = 1.0) -> dict:
    """Counts and timings of a run; times are multiplied by ``scale`` (the
    host-speed correction of an untraced run, 1 otherwise)."""
    recs = run.records
    lat_ms = [lat * scale / 1e6 for _, lat, _ in recs]
    deciles = statistics.quantiles(lat_ms, n=10, method="inclusive") if len(lat_ms) > 1 else lat_ms * 9
    failed = sum(outcome != OK for _, _, outcome in recs)
    return {
        "attempted": len(recs),
        "failed": failed,
        "wrong": sum(outcome not in (OK, FAILED) for _, _, outcome in recs),
        "problems": run.problems[:20],
        "ops_per_s": len(recs) / (run.busy_ns * scale / 1e9) if recs else 0.0,
        "op_p50_ms": statistics.median(lat_ms) if lat_ms else 0.0,
        "op_p90_ms": deciles[8],
        "ops_beyond_p90": sum(x > deciles[8] for x in lat_ms),
        "fail_ratio": failed / len(recs) if recs else 0.0,
        "repeat_share": run.repeats / len(recs) if recs else 0.0,
        "composition": composition(recs),
    }


def main() -> int:
    ap = argparse.ArgumentParser()
    ap.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, required=True)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    ap.add_argument("--imports", default="{}", help="import timings for the traced run")
    ap.add_argument("--spans", default=None, help="file to write the traced spans to")
    args = ap.parse_args()

    for name in SETUP_IMPORTS[args.workload]:
        importlib.import_module(name)
    cli = sys.modules["quasiham.cli"]
    checker = Checker()
    stream = Stream(args.workload, args.seed)
    hard = perf_counter() + min(max(3 * args.seconds, 60.0), HARD_LIMIT_S)

    if not args.trace:
        ops = list(stream.prelude)
        for _ in range(WORKLOADS[args.workload].rounds(args.seconds)):
            ops += stream.round()
        while len(ops) < MIN_OPS:
            ops += stream.round()
        calibrator = Calibrator(numeric=args.workload != "exact")
        calibrator.burst()
        run = Run(cli, checker, calibrator=calibrator)
        done = run.ops(ops, hard)
        calibrator.burst()
        scale = calibrator.scale()
        result = summary(run, scale)
        raw = summary(run)
        result["raw"] = {k: raw[k] for k in ("ops_per_s", "op_p50_ms", "op_p90_ms")}
        result["calibration"] = calibrator.record()
        result["rounds"] = stream.rounds
        result["complete_rounds"] = done
    else:
        prefix = list(stream.prelude)
        for _ in range(WORKLOADS[args.workload].trace_rounds):
            prefix += stream.round()
        clearers = cache_clearers()
        untraced = Run(cli, checker)
        untraced.ops(prefix, perf_counter() + min(max(2 * args.seconds, 60.0), HARD_LIMIT_S / 2))
        prefix = [op for op, _, _ in untraced.records]
        for clear in clearers:
            clear()
        tracer = Tracer()
        install(tracer)
        run = Run(cli, checker, tracer)
        run.ops(prefix, float("inf"))
        result = summary(run)
        result["wrong"] += sum(outcome != FAILED for _, outcome, _ in untraced.problems)
        result["problems"] = ([p for p in untraced.problems if p[1] != FAILED]
                              + run.problems)[:20]
        result["missing_targets"] = tracer.missing
        verify_samples = sum(op.labels["samples"] for op in prefix
                             if op.verb == "verify" and "axiom" in op.labels)
        result["per_layer"] = per_layer(
            tracer, verify_samples=verify_samples, traced_ns=run.busy_ns,
            untraced_ns=untraced.busy_ns, imports=json.loads(args.imports),
            repeat_share=result["repeat_share"])
        if args.spans:
            tracer.dump(args.spans)

    result["controls_missed"] = negative_controls(checker, run.exact_sample, run.numeric_sample)
    result["peak_rss_mb"] = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
