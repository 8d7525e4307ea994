"""Fault injection: a numerical primitive that returns NaN or raises
LinAlgError must never let a command exit 0 (a pass) or 2 (an input error).

Each primitive is patched in every quasiham module that binds it, and each
command of the README runs as the command line runs it (`cli.run`).  A spy
records whether the command called the patched function; one that did must
exit 1 or 3.  A clean spy run first finds the primitives each command calls:
the run up to the first call of a primitive is the same with or without the
fault, so a command that never calls it cannot be affected.
"""

import importlib
import json
import math
import sys

import numpy as np
import pytest

from quasiham.cli import run

from test_cli import readme_commands

SUN_PRIMITIVES = ["expm_skew", "basic_gram", "basic_inner", "unitary_eig", "alcove_order"]
LINALG_PRIMITIVES = ["svd", "eig", "eigvals", "eigh", "qr", "det"]
# The README's commands, commands on which NaN once passed silently, a class
# moment check, and a genus min_degeneracy op whose sample 235 has a pair of
# moment eigenvalues d_i = -d_j: _anti_fixed_rank's null branch, the one
# caller of unitary_eig (class bases are carried by their flows).
COMMANDS = readme_commands() + [
    ["verify", "--space", "conjugacy_class", "--n", "3", "--xi", "1/4,1/12,-1/3",
     "--axiom", "moment", "--samples", "5"],
    ["verify", "--space", "genus", "--n", "2", "--genus", "2", "--axiom", "min_degeneracy",
     "--samples", "235", "--seed", "21836"],
    ["reduce-rank", "--at", "abba", "--n", "3"],
    ["cocycle", "--n", "3", "--samples", "3"],
    ["verify", "--space", "genus", "--genus", "2", "--n", "2", "--axiom", "min_degeneracy",
     "--samples", "5"],
    ["verify", "--space", "double", "--n", "3", "--axiom", "min_degeneracy", "--samples", "5"],
    ["holonomy-convergence", "--n", "2", "--grids", "8,16"],
    ["verify", "--space", "sphere4", "--samples", "5"],
]


def poison(out):
    """out with every float and complex entry NaN; integer arrays, such as
    a permutation, are kept."""
    if isinstance(out, tuple):
        parts = [poison(part) for part in out]
        return type(out)(*parts) if hasattr(out, "_fields") else tuple(parts)
    if isinstance(out, float):
        return math.nan
    arr = np.asarray(out)
    if arr.dtype.kind not in "fc":
        return out
    return arr.dtype.type(np.nan) if arr.ndim == 0 else np.full_like(arr, np.nan)


def bindings(name):
    """(namespace, original) for every binding of the primitive: each
    quasiham module that holds it, or numpy.linalg."""
    if name in LINALG_PRIMITIVES:
        return [(np.linalg, getattr(np.linalg, name))]
    original = getattr(importlib.import_module("quasiham.sun"), name)
    return [(mod, original) for key, mod in list(sys.modules.items())
            if key.startswith("quasiham") and getattr(mod, name, None) is original]


def patch(monkeypatch, name, make):
    for namespace, original in bindings(name):
        monkeypatch.setattr(namespace, name, make(original))


@pytest.fixture(scope="module")
def workdir(tmp_path_factory):
    path = tmp_path_factory.mktemp("faults")
    (path / "connection.json").write_text(
        json.dumps({"samples": [[[[0, 0.3], [0, 0]], [[0, 0], [0, -0.3]]]] * 4}))
    return path


@pytest.fixture(scope="module")
def callers(workdir):
    """The primitives each command calls, from clean spied runs."""
    for module in ("spaces", "gerbe", "holonomy", "serialize"):
        importlib.import_module(f"quasiham.{module}")
    out = {}
    with pytest.MonkeyPatch.context() as mp:
        mp.chdir(workdir)
        called = set()
        for name in SUN_PRIMITIVES + LINALG_PRIMITIVES:
            def spy(fn, name=name):
                def wrapper(*args, **kwargs):
                    called.add(name)
                    return fn(*args, **kwargs)
                return wrapper
            patch(mp, name, spy)
        for argv in COMMANDS:
            called.clear()
            assert run(argv)[0] == 0, argv
            out[" ".join(argv)] = set(called)
    return out


@pytest.mark.parametrize("mode", ["nan", "raise"])
@pytest.mark.parametrize("name", SUN_PRIMITIVES + LINALG_PRIMITIVES)
def test_injected_fault_never_exits_0_or_2(name, mode, callers, workdir, monkeypatch):
    calls = []

    def faulty(fn):
        def wrapper(*args, **kwargs):
            calls.append(name)
            if mode == "raise":
                raise np.linalg.LinAlgError("injected")
            return poison(fn(*args, **kwargs))
        return wrapper

    monkeypatch.chdir(workdir)
    patch(monkeypatch, name, faulty)
    ran = 0
    for argv in COMMANDS:
        if name not in callers[" ".join(argv)]:
            continue
        calls.clear()
        code, out, _ = run(argv)
        assert calls, argv
        assert code in (1, 3), (argv, code)
        assert (code == 3) == (out == ""), argv
        ran += 1
    assert ran, f"no command calls {name}"
