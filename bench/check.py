"""Output checker and its negative controls.

Exact ops (table, vertices, level-weights, check-class) must match the
snapshot byte for byte.  Numerical ops must report PASS with the residual
below the tolerance they print, since every built-in space satisfies its
axioms.  One failure is known and counted rather than called wrong: with the
default grids, ``holonomy-convergence`` fits its slope through the
pre-asymptotic grids 8 and 16 and can report an order outside 2 +- 0.3 while
the fit through the finer grids gives 2.  Such an op counts as failed, and
only when the finer-grid fit confirms that diagnosis.

Standard library only.
"""

from __future__ import annotations

import hashlib
import json
import math
from pathlib import Path

from workloads import Op, check_class_pool

SNAPSHOT_PATH = Path(__file__).with_name("snapshot.json")
DIGEST_CHARS = 24

OK, FAILED, WRONG = "ok", "failed", "wrong"

ORDER_TOL = 0.3  # the holonomy verb's own acceptance band around order 2
FINE_GRID = 32  # grids from here on are in the asymptotic regime


def digest(text: str) -> str:
    return hashlib.sha256(text.encode()).hexdigest()[:DIGEST_CHARS]


def pool_digest() -> str:
    """Fingerprint of the check-class pool, so a snapshot cannot silently
    refer to different ops."""
    return digest("\n".join(" ".join(op.argv) for op in check_class_pool()))


def load_snapshot(path: Path = SNAPSHOT_PATH) -> dict:
    with open(path, "r", encoding="utf-8") as fh:
        snap = json.load(fh)
    if snap["check_class_pool"] != pool_digest():
        raise ValueError("snapshot was made for a different check-class pool")
    return snap


def render(payload: dict) -> str:
    """The CLI's --json rendering."""
    return json.dumps(payload, sort_keys=True, indent=2)


def _slope_order(residuals: dict) -> float:
    """Negated least-squares slope of log residual against log grid size."""
    pts = [(math.log(int(n)), math.log(r)) for n, r in residuals.items()]
    mx = sum(x for x, _ in pts) / len(pts)
    my = sum(y for _, y in pts) / len(pts)
    return -sum((x - mx) * (y - my) for x, y in pts) / sum((x - mx) ** 2 for x, _ in pts)


def _expected_rank(at: str, n: int) -> int:
    if at == "abba":
        return n * n - 1  # the identity is a regular value at reflected pairs
    if at == "commuting":
        # a, b in one one-parameter subgroup exp(t i diag(1, 0, ..., 0, -1)):
        # the image is the complement of the centralizer S(U(1) x U(n-2) x U(1)).
        return n * n - 1 - ((n - 2) ** 2 + 1)
    return 0  # every commutator differential vanishes at the identity point


class Checker:
    def __init__(self, snapshot: dict | None = None):
        self.snapshot = load_snapshot() if snapshot is None else snapshot

    def check(self, op: Op, code: int, text: str) -> tuple[str, str]:
        """Judge one op's exit code and rendered output: (outcome, reason)."""
        if code not in (0, 1):
            return WRONG, f"exit {code}: {text.strip()[:200]}"
        try:
            payload = json.loads(text)
        except ValueError:
            return WRONG, "output is not JSON"
        if op.key is not None:
            return self._exact(op, code, text, payload)
        try:
            return getattr(self, "_" + op.verb.replace("-", "_"))(op, code, payload)
        except (KeyError, TypeError, ValueError) as exc:
            return WRONG, f"malformed payload: {exc!r}"

    def _exact(self, op, code, text, payload):
        if op.key == "table":
            same = text == self.snapshot["table_json"]
        else:
            same = digest(text) == self.snapshot["digests"].get(op.key)
        if not same:
            return WRONG, "output differs from the snapshot"
        answer = payload.get("prequantizable", True) and payload.get("torsion_admissible", True)
        if code != (0 if answer else 1):
            return WRONG, f"exit {code} disagrees with the verdict"
        return OK, ""

    @staticmethod
    def _verdict(code, passed, residual, tol, what):
        if passed != (residual < tol) or code != (0 if passed else 1):
            return WRONG, f"verdict {passed} (exit {code}) inconsistent with {what} {residual!r} < {tol!r}"
        if not passed:
            return WRONG, f"built-in case failed: {what} {residual!r} >= {tol!r}"
        return OK, ""

    def _verify(self, op, code, p):
        if p["samples"] != op.labels["samples"]:
            return WRONG, "sample count differs from the request"
        if p.get("check") == "eta_normalization":
            return self._verdict(code, p["pass"], abs(p["value"] - 1.0), p["tolerance"],
                                 "|eta - 1|")
        if p["axiom"] != op.labels.get("axiom", "equivariance"):
            return WRONG, "axiom differs from the request"
        return self._verdict(code, p["pass"], p["max_residual"], p["tolerance"], "residual")

    def _cocycle(self, op, code, p):
        if p["n"] != op.labels["n"] or not p["vertex_weight_consistency"]:
            return WRONG, "eigenline weights do not reproduce the alcove vertices"
        return self._verdict(code, p["pass"], p["max_unimodularity_defect"], p["tolerance"],
                             "unimodularity defect")

    def _holonomy_convergence(self, op, code, p):
        residuals = p["residuals"]
        order = _slope_order(residuals)
        if abs(order - p["order"]) > 1e-6:
            return WRONG, f"order {p['order']!r} is not the fit of the residuals ({order!r})"
        passed = abs(order - 2.0) <= ORDER_TOL
        if p["pass"] != passed or code != (0 if passed else 1):
            return WRONG, "verdict inconsistent with the fitted order"
        if passed:
            return OK, ""
        fine = {n: r for n, r in residuals.items() if int(n) >= FINE_GRID}
        if len(fine) >= 2 and abs(_slope_order(fine) - 2.0) <= ORDER_TOL:
            return FAILED, (f"known slope-fit defect: order {order:.3f} over all grids, "
                            f"{_slope_order(fine):.3f} over grids >= {FINE_GRID}")
        return WRONG, f"order {order:.3f} is off also on the fine grids"

    def _reduce_rank(self, op, code, p):
        n = op.labels["n"]
        expected = _expected_rank(op.labels["at"], n)
        if code != 0 or p["rank"] != expected or p["group_dim"] != n * n - 1:
            return WRONG, f"rank {p['rank']} at {op.labels['at']}, expected {expected}"
        if p["regular"] != (expected == n * n - 1):
            return WRONG, "regularity flag disagrees with the rank"
        return OK, ""


def _flip_byte(text: str) -> str:
    pos = len(text) // 2
    return text[:pos] + ("1" if text[pos] != "1" else "2") + text[pos + 1:]


def negative_controls(checker: Checker, exact_sample, numeric_sample) -> list[str]:
    """Tamper with outputs the checker accepted and return the tampering it
    failed to flag (an empty list means every control was caught).

    exact_sample / numeric_sample are (op, code, text) triples judged OK in
    this run, or None; without an exact sample the snapshot's own table output
    is used.
    """
    missed = []
    if exact_sample is None:
        exact_sample = (Op("table", ["table", "--json"], key="table"), 0,
                        checker.snapshot["table_json"])
    op, code, text = exact_sample
    if checker.check(op, code, text)[0] != OK:
        missed.append("exact control: untampered output rejected")
    if checker.check(op, code, _flip_byte(text))[0] != WRONG:
        missed.append("exact control: output with one byte flipped accepted")
    tampered = json.loads(json.dumps(checker.snapshot))
    if op.key == "table":
        tampered["table_json"] = _flip_byte(tampered["table_json"])
    else:
        tampered["digests"][op.key] = _flip_byte(tampered["digests"][op.key])
    if Checker(tampered).check(op, code, text)[0] != WRONG:
        missed.append("exact control: snapshot with one byte flipped accepted")

    if numeric_sample is not None:
        op, code, text = numeric_sample
        payload = json.loads(text)
        flipped = dict(payload, **{"pass": not payload["pass"]})
        if checker.check(op, 1 - code, render(flipped))[0] == OK:
            missed.append(f"numeric control: flipped {op.verb} verdict accepted")
        if checker.check(op, code, render(flipped))[0] == OK:
            missed.append(f"numeric control: flipped {op.verb} verdict with old exit accepted")
    return missed
