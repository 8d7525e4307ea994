import importlib
import inspect
import io
import itertools
import json
import re
import shlex
import sys
import time
import warnings
from contextlib import redirect_stderr, redirect_stdout
from fractions import Fraction
from pathlib import Path

import numpy as np
import pytest
from hypothesis import HealthCheck, currently_in_test_context, event, given, settings
from hypothesis import strategies as st

import quasiham
from quasiham import cli
from quasiham.alcove import LevelWeightSet
from quasiham.cli import MAX_GRID, MAX_SAMPLES, _HANDLERS, build_parser, dispatch, main, render
from quasiham.errors import ToolkitError
from quasiham.roots import LieType, build_root_system
from quasiham.serialize import matrix_from_json
from quasiham.sun import complex_pairs


def test_table_verb():
    code, payload = dispatch(["table"])
    assert code == 0
    levels = payload["minimal_levels"]
    assert levels["A5"] == 1 and levels["C4"] == 1
    assert levels["B4"] == 2 and levels["D5"] == 2
    assert levels["E7"] == 12 and levels["E8"] == 60
    assert levels["F4"] == 6 and levels["G2"] == 2


def test_vertices_verb():
    code, payload = dispatch(["vertices", "--type", "A2"])
    assert code == 0
    assert payload["vertices"][0] == ["0", "0"]
    assert payload["vertices_euclidean"][1] == ["2/3", "-1/3", "-1/3"]
    assert payload["transition_weights"]["1,2"]
    assert payload["dual_coxeter"] == 3


def test_level_weights_verb():
    code, payload = dispatch(["level-weights", "--type", "A1", "--level", "2"])
    assert code == 0
    assert payload["count"] == 3


def test_check_class_verb():
    code, payload = dispatch(
        ["check-class", "--type", "A1", "--xi", "1/4,-1/4", "--level", "2"]
    )
    assert code == 0 and payload["prequantizable"] is True
    code, payload = dispatch(
        ["check-class", "--type", "A1", "--xi", "1/4,-1/4", "--level", "1"]
    )
    assert code == 1 and payload["prequantizable"] is False
    # fusion of several classes plus a torsion constraint
    code, payload = dispatch(
        [
            "check-class", "--type", "A1",
            "--xi", "1/4,-1/4", "--xi", "1/2,-1/2",
            "--level", "2", "--torsion", "2",
        ]
    )
    assert code == 0 and payload["torsion_admissible"] is True


def test_verify_verb_moment():
    code, payload = dispatch(
        ["verify", "--space", "double", "--n", "2", "--axiom", "moment",
         "--samples", "10", "--seed", "1"]
    )
    assert code == 0 and payload["pass"] is True
    assert payload["max_residual"] < 1e-10


def test_verify_verb_conjugacy_class_xi():
    code, payload = dispatch(
        ["verify", "--space", "conjugacy_class", "--n", "2", "--xi", "1/8,-1/8",
         "--axiom", "min_degeneracy", "--samples", "5"]
    )
    assert code == 0 and payload["pass"] is True


def test_verify_verb_sphere4_and_eta():
    code, payload = dispatch(
        ["verify", "--space", "sphere4", "--samples", "50", "--seed", "2"]
    )
    assert code == 0 and payload["axiom"] == "equivariance"
    code, payload = dispatch(
        ["verify", "--space", "eta_su2", "--samples", "200", "--seed", "3"]
    )
    assert code == 0 and abs(payload["value"] - 1.0) < 1e-6


def test_cocycle_verb():
    code, payload = dispatch(["cocycle", "--n", "3", "--samples", "10", "--seed", "4"])
    assert code == 0 and payload["pass"] is True
    assert payload["vertex_weight_consistency"] is True
    assert payload["rejected"] == 0


def test_cocycle_verb_at_rank_ten():
    code, payload = dispatch(["cocycle", "--n", "10", "--samples", "2", "--seed", "0"])
    assert code == 0 and payload["pass"] is True
    assert payload["max_unimodularity_defect"] < payload["tolerance"]


def test_cocycle_reports_rejected_draws(monkeypatch):
    # the first two draws are the exponents of wall points (covers {3} and
    # {1, 2}) and are rejected
    from quasiham import gerbe, sun

    walls = [np.zeros((3, 3)), 2j * np.pi * np.diag([0.5, 0.5, -1.0])]
    real_draw = sun.random_algebra

    def draw(n, rng, shape=()):
        out = real_draw(n, rng, shape)
        rows = out.reshape(-1, n, n)
        for k in range(min(len(walls), len(rows))):
            rows[k] = walls.pop(0)
        return out

    monkeypatch.setattr(sun, "random_algebra", draw)

    calls = []
    real_check = gerbe.vertex_weight_consistency
    monkeypatch.setattr(gerbe, "vertex_weight_consistency",
                        lambda n: calls.append(n) or real_check(n))
    code, payload = dispatch(["cocycle", "--n", "3", "--samples", "4", "--seed", "1"])
    assert code == 0 and payload["rejected"] == 2 and payload["samples"] == 4
    assert calls == [3]


def test_holonomy_verb():
    code, payload = dispatch(
        ["holonomy-convergence", "--grids", "8,16,32,64", "--seed", "5"]
    )
    assert code == 0
    assert abs(payload["order"] - 2.0) <= 0.3


def test_holonomy_file_mode(tmp_path):
    xi = (0.3j * np.diag([1.0, -1.0])).tolist()
    doc = {"samples": [[[[0.0, 0.3], [0.0, 0.0]], [[0.0, 0.0], [0.0, -0.3]]]] * 4}
    path = tmp_path / "conn.json"
    path.write_text(json.dumps(doc))
    code, payload = dispatch(["holonomy-convergence", "--file", str(path)])
    assert code == 0
    hol = matrix_from_json(payload["holonomy"])
    assert abs(hol[0, 0] - np.exp(0.3j)) < 1e-12


def test_reduce_rank_verb():
    code, payload = dispatch(["reduce-rank", "--n", "2", "--at", "abba", "--seed", "6"])
    assert code == 0 and payload["rank"] == 3 and payload["regular"] is True
    code, payload = dispatch(["reduce-rank", "--n", "2", "--at", "commuting"])
    assert code == 0 and payload["rank"] == 2 and payload["regular"] is False
    code, payload = dispatch(["reduce-rank", "--n", "2", "--at", "identity"])
    assert code == 0 and payload["rank"] == 0


def test_json_determinism():
    argv = ["verify", "--space", "fused_double", "--n", "2", "--axiom", "cocycle",
            "--samples", "5", "--seed", "7", "--json"]
    _, payload1 = dispatch(argv)
    _, payload2 = dispatch(argv)
    assert render(payload1, True) == render(payload2, True)
    argv2 = ["cocycle", "--n", "3", "--samples", "5", "--seed", "8", "--json"]
    assert render(dispatch(argv2)[1], True) == render(dispatch(argv2)[1], True)


def test_usage_errors_exit_two(capsys):
    with pytest.raises(SystemExit) as exc:
        dispatch(["no-such-verb"])
    assert exc.value.code == 2
    with pytest.raises(SystemExit) as exc:
        dispatch(["table", "--bogus-flag"])
    assert exc.value.code == 2
    assert main(["check-class", "--type", "A1", "--xi", "1/x", "--level", "2"]) == 2
    err = capsys.readouterr().err
    assert "1/x" in err
    assert main(["check-class", "--type", "A9x", "--xi", "0", "--level", "1"]) == 2


# factor * w_1 of A2 (w_1 = (2, 1) / det, det = 3) as numerators over a
# multiple of det
FAKE_NUMERATORS = {"1/2": ((2, 1), 2), "2": ((4, 2), 1), "-1": ((-2, -1), 1)}


@pytest.mark.parametrize(
    "factor,message",
    [("1/2", "escaped the lattice"), ("2", "escaped the alcove"), ("-1", "escaped the alcove")],
)
def test_level_weights_validation_can_fail(monkeypatch, capsys, factor, message):
    # half of w_1 lies in the level-1 alcove but is no weight; 2 w_1 is a
    # weight beyond the level bound; -w_1 is a weight within the level bound
    # with a negative label, so only the p_i >= 0 test catches it
    rs = build_root_system(LieType("A", 2))
    z = rs.lattice
    nums, times = FAKE_NUMERATORS[factor]
    fake = LevelWeightSet(rs=rs, level=1, nums=((0, 0), nums), den=times * z.det)
    bad = tuple(Fraction(factor) * c for c in rs.fundamental_weights[0])
    assert fake.weights == ((Fraction(0), Fraction(0)), bad)
    if factor == "-1":
        assert sum(t * n for t, n in zip(z.theta_row, nums)) <= z.scale * fake.den
    monkeypatch.setattr(cli, "level_weights", lambda rs, k: fake)
    argv = ["level-weights", "--type", "A2", "--level", "1"]
    with pytest.raises(ToolkitError, match=message):
        dispatch(argv)
    assert main(argv) == 2
    assert message in capsys.readouterr().err


def test_reused_parser_keeps_no_state(monkeypatch):
    assert build_parser() is not build_parser()
    assert cli._shared_parser() is cli._shared_parser()
    _, two = dispatch(["check-class", "--type", "A1", "--xi", "1/4,-1/4",
                       "--xi", "1/2,-1/2", "--level", "2"])
    _, one = dispatch(["check-class", "--type", "A1", "--xi", "1/4,-1/4", "--level", "2"])
    assert len(two["classes"]) == 2 and len(one["classes"]) == 1
    seen = []
    monkeypatch.setitem(_HANDLERS, "verify", lambda args: (seen.append(args), (0, {}))[1])
    dispatch(["verify", "--space", "double"])
    assert seen[0].xi is None and seen[0].axiom is None


@pytest.mark.parametrize(
    "argv",
    [
        ["verify", "--space", "double", "--n", "0", "--axiom", "moment"],
        ["verify", "--space", "double", "--n", "1", "--axiom", "moment"],
        ["verify", "--space", "fused_double", "--n", "1", "--axiom", "min_degeneracy"],
        ["verify", "--space", "genus", "--n", "1", "--axiom", "cocycle"],
        ["reduce-rank", "--n", "1", "--at", "abba"],
        ["reduce-rank", "--n", "1", "--at", "commuting"],
        ["reduce-rank", "--n", "0", "--at", "identity"],
    ],
)
def test_group_rank_below_two_exits_two(argv, capsys):
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        assert main(argv + ["--json"]) == 2
    captured = capsys.readouterr()
    assert "invalid-rank" in captured.err and captured.out == ""


CLASS = ["verify", "--space", "conjugacy_class", "--axiom", "moment"]


@pytest.mark.parametrize(
    "argv,tag",
    [
        (["cocycle", "--samples", "0"], "invalid-samples"),
        (["verify", "--space", "sphere4", "--samples", "0"], "invalid-samples"),
        (["verify", "--space", "eta_su2", "--samples", "0"], "invalid-samples"),
        (["verify", "--space", "double", "--axiom", "moment", "--samples", "-1"],
         "invalid-samples"),
        (["verify", "--space", "double", "--axiom", "moment", "--tol", "nan"],
         "invalid-tolerance"),
        (["verify", "--space", "double", "--axiom", "moment", "--tol", "-1"],
         "invalid-tolerance"),
        (["verify", "--space", "sphere4", "--tol", "0"], "invalid-tolerance"),
        (["cocycle", "--tol", "inf"], "invalid-tolerance"),
        (["holonomy-convergence", "--grids", "8"], "invalid-grids"),
        (["holonomy-convergence", "--grids", "8,8"], "invalid-grids"),
        (["cocycle", "--n", "0", "--samples", "1"], "invalid-rank"),
        (["cocycle", "--n", "1"], "invalid-rank"),
        (["cocycle", "--n", "2", "--samples", "1"], "invalid-rank"),
        (["holonomy-convergence", "--n", "0"], "invalid-rank"),
        (["holonomy-convergence", "--n", "1"], "invalid-rank"),
        (["verify", "--space", "eta_su2", "--axiom", "moment"], "unsupported-axiom"),
        (["verify", "--space", "eta_su2", "--axiom", "min_degeneracy"], "unsupported-axiom"),
        (["verify", "--space", "sphere4", "--axiom", "moment"], "unsupported-axiom"),
        (["verify", "--space", "double"], "missing-argument"),
        (["verify", "--space", "conjugacy_class", "--axiom", "moment"], "missing-argument"),
        (["holonomy-convergence", "--grids", "a,b"], "invalid-grids"),
        (["holonomy-convergence", "--grids", "8,,16"], "invalid-grids"),
        (["holonomy-convergence", "--grids", "0,8"], "invalid-grids"),
        (["holonomy-convergence", "--grids=-8,8"], "invalid-grids"),
        (CLASS + ["--n", "2", "--xi", "a"], "malformed-rational"),
        (CLASS + ["--n", "2", "--xi", "1/0,0"], "malformed-rational"),
        (CLASS + ["--n", "2", "--xi", "nan,nan"], "malformed-rational"),
        (["check-class", "--type", "A1", "--xi", "1/x", "--level", "2"], "malformed-rational"),
        (CLASS + ["--n", "2", "--xi", ""], "empty-vector"),
        (CLASS + ["--n", "4", "--xi", "1/8,-1/8"], "dimension-mismatch"),
        (CLASS + ["--n", "2", "--xi", "3/8,1/8,-1/8,-3/8"], "dimension-mismatch"),
        (["check-class", "--type", "A2", "--xi", "1/2", "--level", "1"], "dimension-mismatch"),
    ],
)
def test_invalid_input_exits_two_with_tag(argv, tag, capsys):
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        assert main(argv + ["--json"]) == 2
    captured = capsys.readouterr()
    assert captured.err.startswith(f"error: {tag}:") and captured.out == ""


# Spaces past spaces.MAX_DIM: memory for su(300) bases or a list of 10^9
# doubles, or the root system of A299 (18 s), before the bound was checked.
HUGE = str(10**12)
TOO_LARGE = [
    (["reduce-rank", "--n", "300", "--at", "identity"], "space-too-large"),
    (["verify", "--space", "double", "--n", "300", "--axiom", "moment"], "space-too-large"),
    (["verify", "--space", "conjugacy_class", "--n", "300", "--xi", ",".join(["0"] * 300),
      "--axiom", "moment"], "space-too-large"),
    (["verify", "--space", "genus", "--n", "2", "--genus", "1000000000", "--axiom", "moment"],
     "space-too-large"),
    # each of these allocated before any check and died of a MemoryError
    (["cocycle", "--n", "3", "--samples", HUGE], "too-many-samples"),
    (["cocycle", "--n", "100000"], "space-too-large"),
    (["holonomy-convergence", "--grids", "8," + HUGE], "grid-too-large"),
    (["holonomy-convergence", "--n", "100000"], "space-too-large"),
    (["verify", "--space", "sphere4", "--samples", HUGE], "too-many-samples"),
    (["verify", "--space", "eta_su2", "--samples", HUGE], "too-many-samples"),
    (["verify", "--space", "double", "--n", "2", "--axiom", "moment", "--samples", HUGE],
     "too-many-samples"),
]


@pytest.mark.parametrize("argv,tag", TOO_LARGE, ids=[f"argv{i}" for i in range(len(TOO_LARGE))])
def test_too_large_space_exits_two_at_once(argv, tag, capsys):
    start = time.perf_counter()
    assert main(argv + ["--json"]) == 2
    assert time.perf_counter() - start < 1.0
    captured = capsys.readouterr()
    assert captured.err.startswith(f"error: {tag}:") and captured.out == ""


def test_largest_accepted_sizes_run():
    # the bounds reject only what is above them
    for argv in (["cocycle", "--n", "16", "--samples", "2"],
                 ["holonomy-convergence", "--n", "2", "--grids", f"8,{MAX_GRID}"],
                 ["verify", "--space", "sphere4", "--samples", str(MAX_SAMPLES)]):
        assert dispatch(argv)[0] in (0, 1), argv


def readme_commands() -> list:
    """The argv of every line of the README's command-line block."""
    text = (Path(__file__).resolve().parents[1] / "README.md").read_text()
    block = text.split("## Command line", 1)[1].split("```")[1]
    return [shlex.split(line, comments=True)[1:] for line in block.splitlines()
            if line.startswith("quasiham ")]


def test_readme_commands_run(tmp_path, monkeypatch, capsys):
    # a renamed flag or verb breaks this test instead of the documentation
    monkeypatch.chdir(tmp_path)
    (tmp_path / "connection.json").write_text(
        json.dumps({"samples": [[[[0, 0.3], [0, 0]], [[0, 0], [0, -0.3]]]] * 4}))
    commands = readme_commands()
    assert len(commands) == 14 and {argv[0] for argv in commands} == set(_HANDLERS)
    for argv in commands:
        assert main(argv) == 0, argv
        assert capsys.readouterr().out


@pytest.mark.parametrize("xi,shown", [("3/4", "3/4"), ("3/4,-1/4", "3/4,-1/4"),
                                      ("0.75", "3/4")])
def test_not_in_alcove_shows_xi_as_entered(xi, shown, capsys):
    assert main(["check-class", "--type", "A2" if "," in xi else "A1", f"--xi={xi}",
                 "--level", "1"]) == 2
    captured = capsys.readouterr()
    assert captured.out == "" and captured.err.startswith(f"error: not-in-alcove: {shown} ")
    assert "Fraction(" not in captured.err


def run_main_quietly(argv):
    """Exit code, stdout, stderr and warnings of main(argv)."""
    out, err = io.StringIO(), io.StringIO()
    with warnings.catch_warnings(record=True) as caught, redirect_stdout(out), \
            redirect_stderr(err):
        warnings.simplefilter("always")
        code = main(argv)
    return code, out.getvalue(), err.getvalue(), [str(w.message) for w in caught]


def assert_clean_exit(argv, code, out, err, caught):
    if currently_in_test_context():
        event(f"exit {code}")
    assert code in (0, 1, 2), argv
    assert "Traceback" not in err and not caught, (argv, err, caught)
    assert (code == 2) == (out == ""), argv
    if code == 2:
        assert re.match(r"error: [a-z]+(-[a-z]+)*: ", err), (argv, err)


VERIFY_SPACES = ["conjugacy_class", "double", "fused_double", "genus", "sphere4", "eta_su2"]
# valid, valid for other n, unsorted, nonzero-sum and malformed alcove points
XI_POOL = ["1/8,-1/8", "1/4,1/12,-1/3", "3/8,1/8,-1/8,-3/8", "1/2,-1/2", "-1/8,1/8",
           "1/4,1/4", "1/3,1/3,1/3", "1/0,0", "a,b", "", "nan,nan"]
FLOAT_POOL = ["0", "nan", "inf", "-inf", "-1", "1e-7", "1e-4", "1e-3", "0.5"]


@settings(max_examples=400, deadline=None, database=None,
          suppress_health_check=[HealthCheck.too_slow])
@given(space=st.sampled_from(VERIFY_SPACES),
       axiom=st.sampled_from([None, "cocycle", "moment", "min_degeneracy", "equivariance"]),
       n=st.integers(-1, 4) | st.just(300), genus=st.integers(-1, 3) | st.just(10**9),
       samples=st.integers(-1, 4),
       # an option is left out half of the time, so that most argv reach a verifier
       xi=st.none() | st.sampled_from(XI_POOL), fd_step=st.none() | st.sampled_from(FLOAT_POOL),
       tol=st.none() | st.sampled_from(FLOAT_POOL), seed=st.integers(0, 2**32 - 1))
def test_verify_fuzz_exits_cleanly(space, axiom, n, genus, samples, xi, fd_step, tol, seed):
    argv = ["verify", f"--space={space}", f"--n={n}", f"--genus={genus}",
            f"--samples={samples}", f"--seed={seed}", "--json"]
    for flag, value in (("--axiom", axiom), ("--xi", xi), ("--fd-step", fd_step), ("--tol", tol)):
        if value is not None:
            argv.append(f"{flag}={value}")
    assert_clean_exit(argv, *run_main_quietly(argv))


@settings(max_examples=150, deadline=None, database=None,
          suppress_health_check=[HealthCheck.too_slow])
@given(n=st.integers(-1, 6), samples=st.integers(-1, 5),
       tol=st.none() | st.sampled_from(FLOAT_POOL), seed=st.integers(0, 2**32 - 1))
def test_cocycle_fuzz_exits_cleanly(n, samples, tol, seed):
    argv = ["cocycle", f"--n={n}", f"--samples={samples}", f"--seed={seed}", "--json"]
    if tol is not None:
        argv.append(f"--tol={tol}")
    assert_clean_exit(argv, *run_main_quietly(argv))


# at most four grids of at most 256 steps, some of them malformed
GRID_ITEMS = st.integers(-2, 256).map(str) | st.sampled_from(["", "x", "1.5", " 16"])


@settings(max_examples=150, deadline=None, database=None,
          suppress_health_check=[HealthCheck.too_slow])
@given(n=st.integers(-1, 6), grids=st.none() | st.lists(GRID_ITEMS, min_size=1, max_size=4),
       seed=st.integers(0, 2**32 - 1))
def test_holonomy_convergence_fuzz_exits_cleanly(n, grids, seed):
    argv = ["holonomy-convergence", f"--n={n}", f"--seed={seed}", "--json"]
    if grids is not None:
        argv.append(f"--grids={','.join(grids)}")
    assert_clean_exit(argv, *run_main_quietly(argv))


@settings(max_examples=3, deadline=None, database=None)
@given(seed=st.integers(0, 2**32 - 1))
def test_reduce_rank_fuzz_exits_cleanly(seed):
    # every point kind, n and genus of the range and past the size bound; the
    # seed draws the points
    for at, n, genus in itertools.product(["abba", "commuting", "identity"], [*range(-1, 6), 300],
                                          [*range(-1, 4), 10**9]):
        argv = ["reduce-rank", f"--at={at}", f"--n={n}", f"--genus={genus}", f"--seed={seed}",
                "--json"]
        assert_clean_exit(argv, *run_main_quietly(argv))


# spellings LieType.parse accepts, then unknown series, out-of-range ranks and
# malformed labels
TYPE_POOL = ["A1", "a2", "A_3", "b3", "C_2", "g2", "D3", "d4", "F4", "e6", " a_1 ",
             "A0", "B1", "C1", "E9", "G3", "X2", "A", "2A", "", "A-1", "-1", "A1.5"]
EXACT_XI_POOL = XI_POOL + ["0", "1/4", "3/4", "1/4,-1/4", "1/3,0,-1/3", "-1/2,1/2", "1"]


@pytest.mark.parametrize("lie_type", TYPE_POOL)
def test_level_weights_and_vertices_exit_cleanly(lie_type):
    for argv in [["vertices"]] + [["level-weights", f"--level={k}"] for k in range(-1, 9)]:
        argv += [f"--type={lie_type}", "--json"]
        assert_clean_exit(argv, *run_main_quietly(argv))


@settings(max_examples=500, deadline=None, database=None)
@given(lie_type=st.sampled_from(TYPE_POOL), level=st.integers(-1, 8),
       xis=st.lists(st.sampled_from(EXACT_XI_POOL), min_size=1, max_size=2))
def test_check_class_fuzz_exits_cleanly(lie_type, level, xis):
    # the torsion is checked last, so every value of it is tried on each draw
    for torsion in (None, -1, 0, 1, 2, 3):
        argv = ["check-class", f"--type={lie_type}", f"--level={level}", "--json"]
        argv += [f"--xi={xi}" for xi in xis] + ([] if torsion is None else [f"--torsion={torsion}"])
        assert_clean_exit(argv, *run_main_quietly(argv))


def test_missing_connection_file_exits_two(tmp_path, capsys):
    assert main(["holonomy-convergence", "--file", str(tmp_path / "missing.json")]) == 2
    captured = capsys.readouterr()
    assert captured.err.startswith("error: io-error:") and captured.out == ""


PAIR = [0.0, 0.3]
# connection file contents that are not JSON, ragged, or not in the algebra
BAD_FILES = {
    "empty": "", "not-json": "not json", "cut-short": '{"samples": [',
    "not-utf8": b"\xff\xfe\x00",
    "ragged-rows": json.dumps({"samples": [[[PAIR, PAIR], [PAIR]]]}),
    "ragged-stack": json.dumps([[[PAIR, PAIR], [PAIR, PAIR]], [[PAIR], [PAIR]]]),
    "short-entry": json.dumps([[[PAIR, PAIR], [PAIR, [0.0]]]]),
    "not-algebra": json.dumps([[[[1.0, 0.0], [0.0, 0.0]], [[0.0, 0.0], [1.0, 0.0]]]]),
    "no-samples": json.dumps({"samples": []}), "no-key": json.dumps({"steps": 3}),
    "numbers": "[1, 2]",
}


@settings(max_examples=60, deadline=None, database=None,
          suppress_health_check=[HealthCheck.function_scoped_fixture])
@given(content=st.sampled_from(list(BAD_FILES.values())) | st.text(max_size=30)
       | st.binary(max_size=30))
def test_holonomy_file_fuzz_exits_with_a_tag(content, tmp_path):
    path = tmp_path / "conn.json"
    if isinstance(content, bytes):
        path.write_bytes(content)
    else:
        path.write_text(content, encoding="utf-8")
    argv = ["holonomy-convergence", "--file", str(path), "--json"]
    code, out, err, caught = run_main_quietly(argv)
    assert_clean_exit(argv, code, out, err, caught)


@pytest.mark.parametrize("name,tag", [("not-json", "malformed-json"),
                                      ("not-utf8", "malformed-json"),
                                      ("ragged-rows", "malformed-matrix"),
                                      ("ragged-stack", "malformed-matrix"),
                                      ("not-algebra", "not-algebra")])
def test_holonomy_file_errors_carry_tags(name, tag, tmp_path, capsys):
    path = tmp_path / "conn.json"
    content = BAD_FILES[name]
    path.write_bytes(content if isinstance(content, bytes) else content.encode())
    assert main(["holonomy-convergence", "--file", str(path)]) == 2
    captured = capsys.readouterr()
    assert captured.err.startswith(f"error: {tag}:") and captured.out == ""


def test_undecided_degeneracy_sample_is_redrawn():
    argv = ["verify", "--space", "genus", "--n", "2", "--genus", "2",
            "--axiom", "min_degeneracy", "--samples", "3", "--seed", "1976016887"]
    code, payload = dispatch(argv)
    assert code == 0 and payload["pass"] is True and payload["max_residual"] == 0.0


def test_class_near_half_wall_passes_min_degeneracy():
    # Ad_Psi + 1 sits at a relative 6e-6 on the whole class, but it is
    # invertible and omega has full rank, so the ranks agree
    argv = ["verify", "--space", "conjugacy_class", "--n", "2",
            "--xi", "250001/1000000,-250001/1000000", "--axiom", "min_degeneracy"]
    code, payload = dispatch(argv)
    assert code == 0 and payload["pass"] is True and payload["max_residual"] == 0.0
    assert main(argv) == 0


def test_failed_verification_exits_one():
    assert main(["check-class", "--type", "A1", "--xi", "1/4,-1/4", "--level", "1"]) == 1


def test_xi_accepts_root_coordinates():
    code, payload = dispatch(
        ["check-class", "--type", "G2", "--xi", "0,0", "--level", "1"]
    )
    assert code == 0 and payload["prequantizable"] is True


def test_console_entry_point_prints(capsys):
    assert main(["table"]) == 0
    out = capsys.readouterr().out
    assert "G2" in out and "60" in out


# One light argv per verb, verify once per kind of check; the test adds the
# file mode of holonomy-convergence.
COVERAGE_ARGV = [
    ["table"],
    ["vertices", "--type", "A2"],
    ["level-weights", "--type", "A2", "--level", "2"],
    ["check-class", "--type", "A1", "--xi", "1/4,-1/4", "--level", "2", "--torsion", "2"],
    ["verify", "--space", "conjugacy_class", "--n", "2", "--xi", "1/8,-1/8",
     "--axiom", "cocycle", "--samples", "2"],
    ["verify", "--space", "sphere4", "--samples", "2"],
    ["verify", "--space", "eta_su2", "--samples", "2"],
    ["cocycle", "--n", "3", "--samples", "2"],
    ["holonomy-convergence", "--grids", "4,8"],
    ["reduce-rank", "--n", "2", "--at", "commuting"],
]
# Public functions no verb calls, each with its reason.
LIBRARY_ONLY = {
    "cocycle_check": "the acceptance tests' one-matrix form of SpectralRecord.check",
    "cover_index_set": "the acceptance tests' cover of one matrix; the cocycle verb reads "
                       "the gaps of the phases it has already computed",
    "spectral_record": "the record of matrices whose phases are not yet computed; the "
                       "cocycle verb builds its record from the phases of its draws",
    "constant_connection": "the acceptance tests' connection xi dt",
    "inner_product": "the exact side of the exact-numerical bridge",
    "torus_algebra": "the numerical side of the exact-numerical bridge",
}


def test_verb_coverage_table(tmp_path):
    # every public function is reached by some verb, or is library-only
    conn = tmp_path / "conn.json"
    conn.write_text(json.dumps({"samples": [[[[0, 0.3], [0, 0]], [[0, 0], [0, -0.3]]]]}))
    argvs = COVERAGE_ARGV + [["holonomy-convergence", "--file", str(conn)]]
    assert {argv[0] for argv in argvs} == set(_HANDLERS)
    functions = {name: getattr(importlib.import_module(f"quasiham.{module}"), name)
                 for name, module in quasiham._LOOKUP.items()}
    codes = {inspect.unwrap(fn).__code__: name for name, fn in functions.items()
             if inspect.isfunction(inspect.unwrap(fn))}
    # a cached call that hits runs no frame
    for module in [m for key, m in sys.modules.items() if key.startswith("quasiham.")]:
        for value in vars(module).values():
            if callable(getattr(value, "cache_clear", None)):
                value.cache_clear()
    reached = set()

    def profile(frame, event, arg):
        if event == "call" and frame.f_code in codes:
            reached.add(codes[frame.f_code])

    sys.setprofile(profile)
    try:
        for argv in argvs:
            dispatch(argv)
    finally:
        sys.setprofile(None)
    assert set(codes.values()) - reached == set(LIBRARY_ONLY)


def test_all_payloads_json_clean():
    for argv in [
        ["table"],
        ["vertices", "--type", "A3"],
        ["level-weights", "--type", "B2", "--level", "2"],
        ["check-class", "--type", "A1", "--xi", "1/4,-1/4", "--level", "2", "--torsion", "2"],
        ["verify", "--space", "double", "--n", "2", "--axiom", "cocycle", "--samples", "3"],
        ["verify", "--space", "sphere4", "--samples", "10"],
        ["verify", "--space", "eta_su2", "--samples", "50"],
        ["cocycle", "--n", "3", "--samples", "3"],
        ["holonomy-convergence", "--grids", "8,16"],
        ["reduce-rank", "--n", "2", "--at", "identity"],
    ]:
        _, payload = dispatch(argv)
        json.dumps(payload)


def test_matrix_json_roundtrip():
    m = np.array([[1.0 + 2.0j, 0.0], [0.5j, -1.0]])
    back = matrix_from_json(complex_pairs(m))
    assert np.max(np.abs(back - m)) == 0.0
    with pytest.raises(Exception):
        matrix_from_json([[1, 2], [3]])


def test_parser_help_lists_all_verbs():
    parser = build_parser()
    text = parser.format_help()
    for verb in _HANDLERS:
        assert verb in text


def test_exact_verbs_never_import_numerics():
    # keeps `table` comfortably inside its one-second budget
    import subprocess
    import sys

    code = (
        "import sys\n"
        "from quasiham.cli import dispatch\n"
        "dispatch(['table'])\n"
        "dispatch(['vertices', '--type', 'E8'])\n"
        "dispatch(['level-weights', '--type', 'G2', '--level', '2'])\n"
        "dispatch(['check-class', '--type', 'A1', '--xi', '1/2,-1/2', '--level', '1'])\n"
        "assert 'numpy' not in sys.modules, 'exact verbs pulled in numpy'\n"
    )
    subprocess.run([sys.executable, "-c", code], check=True)


def test_numerical_verbs_never_import_scipy(tmp_path):
    import subprocess
    import sys

    conn = tmp_path / "conn.json"
    conn.write_text(json.dumps({"samples": [[[[0, 0.3], [0, 0]], [[0, 0], [0, -0.3]]]]}))
    code = (
        "import sys\n"
        "from quasiham.cli import dispatch\n"
        "dispatch(['table'])\n"
        "dispatch(['vertices', '--type', 'A2'])\n"
        "dispatch(['level-weights', '--type', 'A2', '--level', '2'])\n"
        "dispatch(['check-class', '--type', 'A1', '--xi', '1/4,-1/4', '--level', '2'])\n"
        "dispatch(['verify', '--space', 'genus', '--n', '2', '--genus', '2',"
        " '--axiom', 'cocycle', '--samples', '1'])\n"
        "dispatch(['verify', '--space', 'sphere4', '--samples', '2'])\n"
        "dispatch(['verify', '--space', 'eta_su2', '--samples', '2'])\n"
        "dispatch(['cocycle', '--n', '3', '--samples', '2'])\n"
        "dispatch(['holonomy-convergence', '--grids', '8,16'])\n"
        f"dispatch(['holonomy-convergence', '--file', {str(conn)!r}])\n"
        "dispatch(['reduce-rank', '--n', '3', '--at', 'commuting'])\n"
        "loaded = [m for m in sys.modules if m == 'scipy' or m.startswith('scipy.')]\n"
        "assert not loaded, loaded\n"
    )
    subprocess.run([sys.executable, "-c", code], check=True)


def test_numerical_layer_loads_numpy_random_on_import():
    # every numerical verb draws from numpy.random, which numpy loads lazily;
    # its import belongs to loading the layer, not to the first verb's time
    import subprocess
    import sys

    code = (
        "import sys\n"
        "import quasiham.spaces\n"
        "assert 'numpy.random' in sys.modules, 'numpy.random is loaded by the first draw'\n"
    )
    subprocess.run([sys.executable, "-c", code], check=True)


def test_package_name_holonomy_is_the_submodule_in_every_process():
    # the function is quasiham.holonomy.holonomy; the package name is the
    # submodule in a fresh process and after a verb has loaded it
    import subprocess
    import types

    code = (
        "import types\n"
        "from quasiham import holonomy\n"
        "assert isinstance(holonomy, types.ModuleType), holonomy\n"
        "assert callable(holonomy.holonomy)\n"
    )
    subprocess.run([sys.executable, "-c", code], check=True)
    dispatch(["holonomy-convergence", "--grids", "4,8"])
    from quasiham import holonomy

    assert isinstance(holonomy, types.ModuleType) and holonomy is sys.modules["quasiham.holonomy"]
    assert callable(holonomy.holonomy)


def test_numpy_is_the_only_runtime_dependency():
    tomllib = pytest.importorskip("tomllib")
    with open(Path(__file__).resolve().parent.parent / "pyproject.toml", "rb") as fh:
        project = tomllib.load(fh)["project"]
    names = [re.split(r"[<>=!~ \[;]", dep, maxsplit=1)[0] for dep in project["dependencies"]]
    assert names == ["numpy"]
    test_extra = [re.split(r"[<>=!~ \[;]", dep, maxsplit=1)[0]
                  for dep in project["optional-dependencies"]["test"]]
    assert {"scipy", "pytest", "hypothesis"} <= set(test_extra)
