import ast
import importlib
import inspect
import io
import itertools
import json
import os
import re
import shlex
import subprocess
import sys
import time
import types
import warnings
from contextlib import redirect_stderr, redirect_stdout
from decimal import Decimal
from fractions import Fraction
from pathlib import Path
from unittest import mock

import numpy as np
import pytest
from hypothesis import HealthCheck, currently_in_test_context, event, given, settings
from hypothesis import strategies as st

import quasiham
from quasiham import alcove, cli, prequant
from quasiham.alcove import LevelWeightSet
from quasiham.cli import MAX_SAMPLES, dispatch, main, render
from quasiham.errors import InputError, ToolkitError
from quasiham.prequant import torsion_level_admissible
from quasiham.rational import common_denominator, parse_numerators, parse_vector
from quasiham.roots import MAX_RANK, LieType, a_series_embedding, build_root_system
from quasiham.serialize import matrix_from_json
from quasiham.sun import complex_pairs

from oracles import (
    a_series_from_euclidean,
    barycentric_coords,
    class_prequantizable,
    format_vector,
    fractions,
    fundamental_weights,
    fusion_prequantizable,
)

# the verbs, the first word of every row name
VERBS = {name.split()[0] for name in cli._ROWS}


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
    # level 0 is checked like every other level: the origin alone
    for name in dispatch(["table"])[1]["minimal_levels"]:
        code, payload = dispatch(["level-weights", "--type", name, "--level", "0"])
        rank = build_root_system(LieType.parse(name)).rank
        assert code == 0 and payload["weights"] == [["0"] * rank]


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


@pytest.mark.parametrize("xi,n", [("1/8,-1/8", 2), ("1/4,1/12,-1/3", 3),
                                  ("3/8,1/8,-1/8,-3/8", 4)])
def test_class_rows_take_n_from_xi(xi, n):
    # without --n a class's --xi entries are its eigenvalue coordinates and
    # count n: the report is that of the argv with --n n, bit for bit
    argv = ["verify", "--space", "conjugacy_class", "--xi", xi, "--axiom", "moment",
            "--samples", "3", "--json"]
    assert run_quietly(argv) == run_quietly(argv + ["--n", str(n)])
    code, payload = dispatch(argv)
    assert code == 0 and payload["n"] == n


@pytest.mark.parametrize("argv,tag", [
    (["--xi", "1/4"], "invalid-rank"),  # one eigenvalue coordinate: n = 1
    (["--xi", "1/4,1/12,-1/3", "--n", "2"], "dimension-mismatch"),
    (["--xi", "1/4,1/12,-1/3", "--n", "5"], "dimension-mismatch"),
    (["--xi", "1/4,1/12,-1/2"], "nonzero-sum"),
    (["--xi", ",".join(["0"] * 17)], "space-too-large"),
])
def test_class_rows_without_n_refuse(argv, tag):
    with pytest.raises(InputError) as err:
        dispatch(["verify", "--space", "conjugacy_class", "--axiom", "min_degeneracy"] + argv)
    assert err.value.code == tag


@pytest.mark.parametrize("axiom", ["cocycle", "moment", "min_degeneracy", "equivariance"])
def test_fused_double_is_the_genus_one_space(axiom):
    # both are Fused([Double(n)]): their --json reports differ only in the
    # space's name, and are the report of Fused([Double(n)]) itself
    common = ["--n", "3", "--axiom", axiom, "--samples", "3", "--seed", "0", "--json"]
    fused, genus = (run_quietly(["verify", "--space", space] + extra + common)
                    for space, extra in (("fused_double", []), ("genus", ["--genus", "1"])))
    assert fused[0] == genus[0] == 0 and fused[2:] == genus[2:] == ("", [])
    first, second = json.loads(fused[1]), json.loads(genus[1])
    assert (first.pop("space"), second.pop("space")) == ("fused_double", "genus")
    report = quasiham.verify_axiom(quasiham.Fused([quasiham.Double(3)]), axiom, samples=3, seed=0)
    assert first == second == {"n": 3, **report.to_json()}


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
    code, payload = dispatch(["holonomy-convergence", "--seed", "5"])
    assert code == 0 and payload["grids"] == [8, 16, 32, 64, 128]
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


@pytest.mark.parametrize("flag", ["--js", "--jso", "--json"])
def test_abbreviated_json_flag_prints_json(flag):
    # argparse accepts a unique prefix of --json; the command line prints what it parsed
    assert cli.run(["vertices", "--type", "A1", flag]) == (
        0, render(dispatch(["vertices", "--type", "A1"])[1], True), "")


@pytest.mark.parametrize("argv, lines", [
    (["verify", "--space", "double", "--n", "2", "--axiom", "moment", "--samples", "3"],
     ["space: double", "n: 2", "axiom: moment", "samples: 3", "max_residual: {}",
      "tolerance: 1e-12", "pass: true"]),
    # sphere4 lists the axiom before the space
    (["verify", "--space", "sphere4", "--samples", "3"],
     ["axiom: equivariance", "space: sphere4", "samples: 3", "max_residual: {}",
      "tolerance: 1e-10", "pass: true"]),
])
def test_verify_text_lists_the_report_in_field_order(argv, lines):
    # VerificationReport's field order is the order of the report's lines
    residual = dispatch(argv)[1]["max_residual"]
    assert cli.run(argv) == (0, "\n".join(line.format(residual) for line in lines), "")


JSON_SCALARS = (st.none() | st.booleans() | st.integers() | st.floats()
                | st.sampled_from([-0.0, 2**64, -2**63, -10**400]) | st.text())
# lists of one scalar type take the writer's one-map path
JSON_LISTS = (st.lists(st.text()) | st.lists(st.integers()) | st.lists(st.floats())
              | st.lists(st.booleans()))
JSON_TREES = st.recursive(JSON_SCALARS | JSON_LISTS,
                          lambda inner: st.lists(inner) | st.dictionaries(st.text(), inner),
                          max_leaves=12)


@settings(max_examples=150, deadline=None, database=None)
@given(payload=st.dictionaries(st.text(), JSON_TREES, max_size=6))
def test_render_json_is_json_dumps(payload):
    # non-ASCII and control characters, -0.0, nan, +-inf, ints past 64 bits,
    # bools beside ints, empty and mixed containers and lists of dicts
    assert render(payload, True) == json.dumps(payload, sort_keys=True, indent=2)


@pytest.mark.parametrize("value", [np.float64(0.5), np.int64(1), np.bool_(True), {1, 2},
                                   (1, 2), b"x", 1j])
def test_render_json_refuses_other_types(value):
    # json.dumps writes some of these, or writes them as other types: the
    # verbs emit plain types only, so the writer refuses rather than differ
    for payload in ({"a": value}, {"a": [value]}, {"a": [1, value]}, {"a": [[1], [value]]}):
        with pytest.raises(TypeError):
            render(payload, True)
    with pytest.raises(TypeError):
        render({1: "a"}, True)


def test_usage_errors_exit_two(capsys):
    with pytest.raises(SystemExit) as exc:
        dispatch(["no-such-verb"])
    assert exc.value.code == 2
    with pytest.raises(SystemExit) as exc:
        dispatch(["table", "--bogus-flag"])
    assert exc.value.code == 2
    code, _, err = cli.run(["check-class", "--type", "A1", "--xi", "1/x", "--level", "2"])
    assert code == 2 and "1/x" in err
    assert cli.run(["check-class", "--type", "A9x", "--xi", "0", "--level", "1"])[0] == 2
    # the cocycle check takes exact derivatives and no step
    with pytest.raises(SystemExit) as exc:
        dispatch(["verify", "--space", "genus", "--genus", "2", "--n", "2", "--axiom", "cocycle",
                  "--fd-step", "1e-4"])
    assert exc.value.code == 2
    assert "unrecognized arguments: --fd-step 1e-4" in capsys.readouterr().err


# one argv for each way an op ends, with its stderr's start; the exit-3 one
# runs a patched handler
RUN_ENDINGS = [
    (["table"], 0, ""),
    (["check-class", "--type", "A1", "--xi", "1/3,-1/3", "--level", "1"], 1, ""),
    (["cocycle", "--n", "2"], 2, "error: invalid-rank: "),
    (["table", "--json"], 3, "internal-error: RuntimeError: handler fault"),
]


@pytest.mark.parametrize("argv,code,error", RUN_ENDINGS,
                         ids=[f"exit{code}-{argv[0]}" for argv, code, _ in RUN_ENDINGS])
def test_main_prints_what_run_returns(argv, code, error, monkeypatch, capsys):
    # run holds the one mapping from exception to exit code; main adds a
    # newline to each text it prints and nothing else
    if code == 3:
        fault = mock.Mock(side_effect=RuntimeError("handler fault"))
        monkeypatch.setitem(cli._ROWS, "table", (fault, {}))
    ended, out, err = cli.run(argv)
    assert capsys.readouterr() == ("", "")
    assert ended == code and (out == "") == (code > 1) == (err != "") and err.startswith(error)
    assert main(argv) == code
    assert capsys.readouterr() == (out and out + "\n", err and err + "\n")


# sets of factor * w_1 of A2 (w_1 = (2, 1) / det, det = 3) and the origin, as
# sorted numerators over a multiple of det
FAKE_NUMERATORS = {
    "1/2": (((0, 0), (2, 1)), 2),
    "2": (((0, 0), (4, 2)), 1),
    "-1": (((-2, -1), (0, 0)), 1),
    "-1,1/2": (((-4, -2), (0, 0), (2, 1)), 2),
}


@pytest.mark.parametrize(
    "factor,message",
    [("1/2", "escaped the lattice"), ("2", "escaped the alcove"), ("-1", "escaped the alcove"),
     ("-1,1/2", "escaped the alcove")],
)
def test_level_weights_validation_can_fail(monkeypatch, factor, message):
    # half of w_1 lies in the level-1 alcove but is no weight; 2 w_1 is a
    # weight beyond the level bound; -w_1 is a weight within the level bound
    # with a negative label, so only the p_i >= 0 test catches it.  A set
    # with -w_1 and w_1 / 2 escapes both the lattice and the alcove, and its
    # first escape in sorted order, -w_1, names the message
    rs = build_root_system(LieType("A", 2))
    nums, times = FAKE_NUMERATORS[factor]
    fake = LevelWeightSet(rs=rs, level=1, nums=nums, den=times * rs.det)
    factors = sorted([Fraction(0)] + [Fraction(f) for f in factor.split(",")])
    assert fractions(fake) == tuple(tuple(f * c for c in fundamental_weights(rs)[0])
                                    for f in factors)
    if factor.startswith("-1"):
        assert all(sum(t * n for t, n in zip(rs.theta_row, w)) <= rs.scale * fake.den
                   for w in nums)
    if factor == "-1,1/2":
        assert alcove.weight_checks(rs, nums, fake.den, 1) == (False, False)
    monkeypatch.setattr(cli, "level_weights", lambda rs, k: fake)
    argv = ["level-weights", "--type", "A2", "--level", "1"]
    with pytest.raises(ToolkitError, match=message):
        dispatch(argv)
    # a failed self-check is a fault of the program
    assert cli.run(argv) == (3, "", f"internal-error: ToolkitError: enumerated weight {message}")


def test_level_weights_enumeration_fault_is_visible(monkeypatch):
    # with B3's middle comark lowered from 2 to 1 the label budget admits 20
    # candidates at level 3, 7 of them outside the alcove; nothing filters
    # them, so the verb's re-check raises instead of printing the true 13
    rs = build_root_system(LieType("B", 3))
    assert rs.comarks == (1, 2, 1)
    faulty = rs._replace(comarks=(1, 1, 1))
    monkeypatch.setattr(cli, "build_root_system", lambda lie_type: faulty)
    argv = ["level-weights", "--type", "B3", "--level", "3"]
    with pytest.raises(ToolkitError, match="enumerated weight escaped the alcove"):
        dispatch(argv)
    assert cli.run(argv) == (3, "", "internal-error: ToolkitError: enumerated weight escaped"
                                    " the alcove")


def count_paired(monkeypatch) -> list:
    """The list every vector passed to alcove._gram_pairings is appended to."""
    paired = []
    pairings = alcove._gram_pairings

    def counted(z, nums_seq):
        paired.extend(nums_seq)
        return pairings(z, nums_seq)

    monkeypatch.setattr(alcove, "_gram_pairings", counted)
    return paired


def test_level_weights_pairs_each_weight_once(monkeypatch):
    # enumeration and re-check together evaluate each weight's Gram pairings
    # once
    paired = count_paired(monkeypatch)
    code, payload = dispatch(["level-weights", "--type", "E6", "--level", "8"])
    assert code == 0 and payload["count"] == 372
    assert len(paired) == 372


def test_check_class_pairs_each_class_once(monkeypatch):
    # one integer pairing of xi gives the level-1 membership, the lattice
    # verdict of k xi, the boundary flag and the open faces; the column pass
    # of weight sets is not used
    paired = count_paired(monkeypatch)
    single = []
    pairing = prequant.gram_pairing

    def counted(rs, nums):
        single.append(nums)
        return pairing(rs, nums)

    monkeypatch.setattr(prequant, "gram_pairing", counted)
    code, payload = dispatch(["check-class", "--type", "A2", "--xi", "1/3,0,-1/3",
                              "--xi", "0,0,0", "--level", "3"])
    assert code == 0
    assert [(c["boundary"], c["open_faces"]) for c in payload["classes"]] == \
        [(False, [0, 1, 2]), (True, [0])]
    assert len(single) == 2 and paired == []


def test_reused_parser_keeps_no_state(monkeypatch):
    assert cli._build_parsers()[0] is not cli._build_parsers()[0]
    assert cli._shared_parsers() is cli._shared_parsers()
    _, two = dispatch(["check-class", "--type", "A1", "--xi", "1/4,-1/4",
                       "--xi", "1/2,-1/2", "--level", "2"])
    _, one = dispatch(["check-class", "--type", "A1", "--xi", "1/4,-1/4", "--level", "2"])
    assert len(two["classes"]) == 2 and len(one["classes"]) == 1
    # the row's handler gets its defaults again after a run that gave other values
    seen, name = [], "verify --space conjugacy_class --axiom cocycle"
    monkeypatch.setitem(cli._ROWS, name, (lambda args: (seen.append(args), (0, {}))[1],
                                          cli._ROWS[name][1]))
    verify = ["verify", "--space", "conjugacy_class", "--axiom", "cocycle"]
    dispatch(verify + ["--xi", "1/4,-1/4", "--n", "3", "--samples", "7", "--seed", "4"])
    dispatch(verify + ["--xi", "1/8,-1/8"])
    assert vars(seen[1]) == {**vars(seen[0]), "xi": ["1/8,-1/8"], "n": None, "samples": 50,
                             "seed": 0}
    assert seen[1].genus is None and not hasattr(seen[1], "json")


# Per verb: valid argv (abbreviated options, a repeated --xi, defaults) and
# invalid ones (unknown option, missing required option, bad int or choice,
# an ambiguous prefix, extra arguments); then argv that name no verb.  The
# later cases of each verb are edges of its table (`cli._table_parse`): argv
# it takes, with repeated flags, empty values and flags in any order, and
# argv it leaves to argparse, with a value that starts with '-' or equals a
# flag, a flag without its value, a bad value on a repeat or a stray token.
PARSE_CASES = {
    "table": [[], ["--js"], ["--bogus"], ["x"], ["-h"], ["--", "x"], ["--json=1"],
              ["--json", "--json"], ["--json", "x"], ["-h", "--json"]],
    "vertices": [["--type", "A2"], ["--type=A2", "--js"], [], ["--type"], ["--type", "A2", "x"],
                 ["--type", "A2", "--type", "B3"],
                 ["--type", ""], ["--type", "--json"], ["--json", "--type", "A2"]],
    "level-weights": [["--type", "A2", "--lev", "3"], ["--type", "A2", "--level=-1", "--json"],
                      ["--type", "A2"], ["--type", "A2", "--level", "x"],
                      ["--type", "A2", "--level", "2", "--bogus", "y"],
                      ["--level", "2", "--type", "A2"], ["--type", "A2", "--level", ""],
                      ["--type", "A2", "--level", " 3 "], ["--type", "A2", "--level"]],
    "check-class": [["--type", "A1", "--xi", "1/4,-1/4", "--lev", "2"],
                    ["--type", "A2", "--xi", "1/3,0,-1/3", "--xi=-1/2,0,1/2", "--level", "3",
                     "--torsion", "2", "--js"],
                    ["--type", "A1", "--level", "2"], ["--type", "A1", "--xi", "0", "--level", "x"],
                    ["--type", "A1", "--xi", "0", "--level", "1", "--torsion", "x"],
                    ["--type", "A1", "--xi", "0", "--level", "1", "--t", "1"],
                    ["--type", "A1", "--xi", "0", "--xi", "1/2,-1/2", "--level", "1", "--xi", ""],
                    ["--type", "A1", "--xi", "-1/4,1/4", "--level", "1"],
                    ["--type", "A1", "--xi", "--level", "--level", "1"],
                    ["--type", "A1", "--xi", "0", "--level", "1", "--level", "x"]],
    "verify": [["--space", "double"], ["--space", "genus", "--n", "3", "--genus", "2",
                                         "--axiom", "min_degeneracy", "--fd", "1e-3", "--se", "4"],
               ["--space", "conjugacy_class", "--xi", "1/8,-1/8", "--xi", "0,0"],
               ["--space", "bogus"], ["--space", "double", "--axiom", "bogus"],
               ["--space", "double", "--n", "x"], ["--space", "double", "--s", "3"], [],
               ["--space", "double", "--", "--n", "3"],
               ["--space", "double", "--seed", "-1"], ["--space", "double", "--n", ""],
               ["--space", "double", "--space", "genus", "--tol", "1e-3"],
               ["--space", "genus", "--axiom", "moment", "--axiom", "bogus"],
               ["--space", "double", "--json", "--", "--json"]],
    "cocycle": [[], ["--n", "4", "--samples", "2", "--tol", "1e-3", "--json"], ["--n", "4.5"],
                ["--samples"], ["--n", "3", "--n"], ["--samples", "2", "--samples", "-2"],
                ["--seed", "1", "-h"]],
    "holonomy-convergence": [["--grids", "4,8"], ["--file", "x.json", "--js"], ["--n", "x"],
                             ["-x"], ["--file", "-"], ["--file", "x.json", "--grids", ""]],
    "reduce-rank": [["--at", "abba"], ["--at", "identity", "--n", "3", "--gen", "2"], [],
                    ["--at", "bogus"], ["--at"],
                    ["--seed", "1", "--at", "abba", "--at", "commuting"],
                    ["--at", "abba", "--at", "bogus"], ["--at", "abba", "--n=3"]],
}
PARSE_ARGV = ([[verb, *rest] for verb, cases in PARSE_CASES.items() for rest in cases]
              + [[], ["no-such-verb"], ["-h"], ["--json"], ["--", "table"], ["-1"],
                 ["TABLE"], ["--json", "table"]])


def parse_outcome(parse, argv):
    """vars of the namespace or the SystemExit code, with stdout and stderr."""
    out, err = io.StringIO(), io.StringIO()
    with redirect_stdout(out), redirect_stderr(err):
        try:
            result = vars(parse(argv))
        except SystemExit as exc:
            result = exc.code
    return result, out.getvalue(), err.getvalue()


@pytest.mark.parametrize("argv", PARSE_ARGV, ids=" ".join)
def test_parse_is_the_full_parser(argv):
    # dispatch and main parse once, with the verb's parser; the namespace,
    # the exit code and every byte of help or error text stay those of the
    # full parser
    expected = parse_outcome(cli._build_parsers()[0].parse_args, argv)
    assert parse_outcome(cli._parse, argv) == expected
    assert set(PARSE_CASES) == VERBS


FULL_PARSER = cli._build_parsers()[0]


def verb_argv(verb):
    """Argv of the verb: its required flags with valid values and up to five
    more parts in any order.  In half of them each part is a flag with a
    valid value; in the other half a part may also be a flag with an odd
    value, a flag alone, --flag=value, an abbreviation or a bare value.  Odd
    values are negative numbers, empty strings, flags, '--', '-h' and short
    random text."""
    actions = [a for a in cli._shared_parsers()[1][verb]._actions if a.dest != "help"]
    valid = {action.option_strings[0]: [OPTION_TEXT[action.dest]] if action.dest in OPTION_TEXT
             else action.choices or [] for action in actions}
    flags = [*valid, "-h"]
    good = st.sampled_from([(flag, *value) for flag, values in valid.items()
                            for value in [(v,) for v in values] or [()]])
    odd = (st.sampled_from([*flags, "-1", "-1/4,1/4", "-0.5", "", " 2", "-", "--", "x", "1.5"])
           | st.text(max_size=3))
    flag = st.sampled_from(flags)
    part = st.one_of(good, st.tuples(flag, odd), st.tuples(flag),
                     st.tuples(st.builds("{}={}".format, flag, odd | good.map(lambda g: g[-1]))),
                     st.tuples(st.builds(lambda f, k: f[:k], flag, st.integers(3, 5))),
                     st.tuples(odd))
    required = [(action.option_strings[0], valid[action.option_strings[0]][0])
                for action in actions if action.required]
    parts = (st.lists(good, max_size=5) | st.lists(part, max_size=5)).flatmap(
        lambda more: st.permutations(required + more))
    return parts.map(lambda p: [verb, *itertools.chain.from_iterable(p)])


@settings(max_examples=200, deadline=None, database=None)
@given(argv=st.deferred(lambda: st.one_of(*map(verb_argv, sorted(VERBS)))))
def test_table_parse_is_argparse(argv):
    # the table's namespace, attributes in argparse's order, or argparse's own
    # exit code, help and error text; repr compares the attribute order, and
    # a nan value equal to a nan
    event("table" if cli._table_parse(argv) else "argparse")
    expected = parse_outcome(FULL_PARSER.parse_args, argv)
    assert repr(parse_outcome(cli._parse, argv)) == repr(expected)


def test_a_verb_with_a_positional_has_no_table(monkeypatch):
    # only argparse places a positional and fills in its default
    parser, verbs = cli._build_parsers()
    verbs["table"].add_argument("extra", nargs="?", default="x")
    monkeypatch.setattr(cli, "_shared_parsers", lambda: (parser, verbs))
    cli._verb_table.cache_clear()
    try:
        assert cli._verb_table("table") is None
        assert vars(cli._parse(["table", "--json"])) == {"verb": "table", "extra": "x",
                                                         "json": True}
    finally:
        cli._verb_table.cache_clear()


def test_bench_streams_take_the_table(monkeypatch):
    # every argv of the benchmark's first rounds is read by the verb's table:
    # with the verb parsers made to raise, each parses as the full parser does
    monkeypatch.syspath_prepend(str(Path(__file__).resolve().parents[1] / "bench"))
    from workloads import Stream

    def refuse(*args, **kwargs):
        raise AssertionError("argparse parsed a benchmark argv")

    for parser in cli._shared_parsers()[1].values():
        monkeypatch.setattr(parser, "parse_known_args", refuse)
    streams = [Stream(w, s) for w in ("exact", "degeneracy", "pointwise") for s in (1, 2, 3, 4)]
    ops = [op for stream in streams for op in stream.prelude + stream.round()]
    assert len(ops) == 1144
    for op in ops:
        expected = list(vars(FULL_PARSER.parse_args(op.argv)).items())
        assert list(vars(cli._parse(op.argv)).items()) == expected, op.argv


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
def test_group_rank_below_two_exits_two(argv):
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        code, out, err = cli.run(argv + ["--json"])
    assert code == 2 and out == "" and "invalid-rank" in err


CLASS = ["verify", "--space", "conjugacy_class", "--axiom", "moment"]


@pytest.mark.parametrize(
    "argv,tag",
    [
        (["cocycle", "--samples", "0"], "invalid-samples"),
        (["verify", "--space", "sphere4", "--samples", "0"], "invalid-samples"),
        (["verify", "--space", "eta_su2", "--samples", "0"], "invalid-samples"),
        (["verify", "--space", "double", "--axiom", "moment", "--samples", "-1"],
         "invalid-samples"),
        (["verify", "--space", "genus", "--genus", "0", "--axiom", "moment"], "invalid-genus"),
        (["level-weights", "--type", "A1", "--level", "-1"], "invalid-level"),
        (["check-class", "--type", "A1", "--xi", "0", "--level", "1", "--torsion", "0"],
         "invalid-torsion"),
        (["vertices", "--type", "Z3"], "invalid-series"),
        (["verify", "--space", "double", "--n", "1", "--axiom", "moment"], "invalid-rank"),
        (["verify", "--space", "sphere4", "--axiom", "cocycle"], "unsupported-axiom"),
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
        (["verify", "--space", "sphere4", "--n", "3"], "unused-argument"),
        # one past each bound
        (["cocycle", "--n", "17"], "space-too-large"),
        (["verify", "--space", "eta_su2", "--samples", str(MAX_SAMPLES + 1)], "too-many-samples"),
        (["vertices", "--type", f"D{MAX_RANK + 1}"], "rank-too-large"),
        (CLASS + ["--n", "2", "--xi", "a"], "malformed-rational"),
        (CLASS + ["--n", "2", "--xi", "1/0,0"], "malformed-rational"),
        (CLASS + ["--n", "2", "--xi", "nan,nan"], "malformed-rational"),
        (["check-class", "--type", "A1", "--xi", "1/x", "--level", "2"], "malformed-rational"),
        (CLASS + ["--n", "2", "--xi", ""], "empty-vector"),
        (CLASS + ["--n", "4", "--xi", "1/8,-1/8"], "dimension-mismatch"),
        (CLASS + ["--n", "2", "--xi", "3/8,1/8,-1/8,-3/8"], "dimension-mismatch"),
        (["check-class", "--type", "A2", "--xi", "1/2", "--level", "1"], "dimension-mismatch"),
        (["holonomy-convergence", "--file", "no-such-dir/connection.json"], "io-error"),
        # '²'.isdigit() is true, but int() refuses it
        (["vertices", "--type", "A²"], "invalid-type"),
        # an exponent builds a power of ten that int will not print, as a 'p/q' that long is
        (["check-class", "--type", "A1", "--xi", "1e5000", "--level", "1"], "malformed-rational"),
        (["check-class", "--type", "A1", "--xi", "1e-5000,-1e-5000", "--level", "1"],
         "malformed-rational"),
        (["check-class", "--type", "A1", "--xi", "1e4300,-1e4300", "--level", "1"],
         "malformed-rational"),
        (["check-class", "--type", "A1", "--xi", "1e1000000000000,-1", "--level", "1"],
         "malformed-rational"),
        # eigenvalues 0 and 6e-22 apart in floating point
        (CLASS + ["--n", "2", "--xi", "1e-400,-1e-400"], "unresolved-class"),
        (CLASS + ["--n", "3", "--xi", "1/10000000000000000000000,0,-1/10000000000000000000000"],
         "unresolved-class"),
    ],
)
def test_invalid_input_exits_two_with_tag(argv, tag):
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        code, out, err = cli.run(argv + ["--json"])
    assert code == 2 and out == "" and err.startswith(f"error: {tag}:")


@pytest.mark.parametrize("argv", [
    CLASS + ["--xi", "1/8,-1/8"],
    ["verify", "--space", "double", "--axiom", "moment"],
    ["verify", "--space", "fused_double", "--axiom", "cocycle"],
    ["verify", "--space", "genus", "--axiom", "min_degeneracy"],
    ["verify", "--space", "sphere4"],
    ["verify", "--space", "eta_su2"],
    ["cocycle"],
    ["holonomy-convergence"],
    ["reduce-rank", "--at", "abba"],
], ids=" ".join)
def test_negative_seed_exits_two(argv):
    # every verb that draws refuses a negative seed before it draws; the
    # generator's ValueError made it an internal error, exit 3
    assert cli.run(argv + ["--seed", "-1"]) == (
        2, "", "error: invalid-seed: need --seed >= 0, got -1")


@pytest.mark.parametrize("argv,message", [
    (CLASS + ["--xi", "1/4,-1/4", "--xi", "1/8,-1/8"], "conjugacy_class takes 1 --xi, got 2"),
    (["verify", "--space", "double", "--xi", "1/4,-1/4", "--axiom", "moment"],
     "verify --space double --axiom moment does not read --xi"),
    (["verify", "--space", "genus", "--xi", "1/4,-1/4", "--xi", "0,0", "--axiom", "moment"],
     "verify --space genus --axiom moment does not read --xi"),
    (["verify", "--space", "sphere4", "--xi", "1/4,-1/4"],
     "verify --space sphere4 does not read --xi"),
], ids=["class", "double", "genus", "sphere4"])
def test_unused_xi_exits_two(argv, message):
    # a --xi the space does not read is refused, not dropped: a second class
    # ran no check, and a double ignored its --xi
    assert cli.run(argv) == (2, "", f"error: unused-argument: {message}")


# A value of each option, as its parser takes it, for the argv that give it.
OPTION_TEXT = {"type": "A1", "level": "2", "xi": "1/8,-1/8", "torsion": "2", "n": "3",
               "genus": "2", "samples": "3", "seed": "1"}
CONNECTION = json.dumps({"samples": [[[[0, 0.3], [0, 0]], [[0, 0], [0, -0.3]]]] * 4})


def default_text(name, option):
    """The argv text of the default of an option the row `name` reads; None
    if it has no default."""
    default = cli._ROWS[name][1][option]
    if default is None or default is cli._REQUIRED:
        return None
    return str(default)


def verb_options(verb):
    """The options of the verb's parser that a row may read: all but --help,
    --json, which every row reads, and the options that pick the row."""
    return [action.dest for action in cli._shared_parsers()[1][verb]._actions
            if action.dest not in ("help", "json", "file", *cli._PICKS)]


def shortest_argv(name):
    """The row's name with its required options; conn.json for the file row,
    which the caller writes."""
    argv = name.split() + ["conn.json"] * name.endswith("--file")
    return argv + [text for option, default in cli._ROWS[name][1].items()
                   if default is cli._REQUIRED for text in (cli._flag(option), OPTION_TEXT[option])]


@pytest.mark.parametrize("name", list(cli._ROWS))
def test_every_option_is_read_or_refused(name, tmp_path, monkeypatch):
    # the shortest argv of the row, then each option of its verb once: one
    # that the row does not read is refused by name, and one that it reads,
    # given at its default, prints what the shortest argv prints
    monkeypatch.chdir(tmp_path)
    (tmp_path / "conn.json").write_text(CONNECTION)
    reads = cli._ROWS[name][1]
    argv = shortest_argv(name)
    shortest = run_quietly(argv)
    assert shortest[0] in (0, 1) and shortest[1], argv
    for option in verb_options(name.split()[0]):
        flag = cli._flag(option)
        if option not in reads:
            assert run_quietly(argv + [flag, OPTION_TEXT[option]]) == (
                2, "", f"error: unused-argument: {name} does not read {flag}", []), option
        elif default_text(name, option) is not None:
            assert run_quietly(argv + [flag, default_text(name, option)]) == shortest, option


def test_every_option_is_read_by_a_row():
    for verb in VERBS:
        read = {option for name, (_, reads) in cli._ROWS.items() if name.split()[0] == verb
                for option in reads}
        assert read == set(verb_options(verb)), verb
    # the parser names the verifier's axioms without importing it
    assert cli._AXIOMS == importlib.import_module("quasiham.spaces").AXIOMS


# The named constant that each row with a tolerance compares its verdict with.
ROW_TOLERANCES = {
    **{f"verify --space {space} --axiom {axiom}":
       importlib.import_module("quasiham.spaces").TOLERANCES[axiom]
       for space in cli._SPACE_READS for axiom in cli._AXIOMS},
    "verify --space sphere4": cli.SPHERE4_TOLERANCE,
    "verify --space sphere4 --axiom equivariance": cli.SPHERE4_TOLERANCE,
    "verify --space eta_su2": cli.ETA_TOLERANCE,
    "cocycle": cli.COCYCLE_TOLERANCE,
}


@pytest.mark.parametrize("name", list(cli._ROWS))
def test_printed_bar_is_the_named_constant(name, tmp_path, monkeypatch):
    # a verdict's bar is a constant of the package, never an option: each row
    # with a tolerance prints its constant and no other row prints one, and
    # holonomy-convergence prints its grids
    monkeypatch.chdir(tmp_path)
    (tmp_path / "conn.json").write_text(CONNECTION)
    argv = shortest_argv(name) + ["--samples", "2"] * ("samples" in cli._ROWS[name][1])
    code, payload = dispatch(argv)
    assert code in (0, 1), argv
    assert payload.get("tolerance") == ROW_TOLERANCES.get(name)
    grids = list(cli.HOLONOMY_GRIDS) if name == "holonomy-convergence" else None
    assert payload.get("grids") == grids


# Each row that took a user-set bar, with that option: --tol 1 passed any
# residual below 1, and --grids 32,64,128 turned the n = 8 FAIL into a PASS.
BAR_OPTIONS = [*((name, ["--tol", "1"]) for name in ROW_TOLERANCES),
               ("holonomy-convergence", ["--n", "8", "--grids", "32,64,128"])]


@pytest.mark.parametrize("name,given", BAR_OPTIONS, ids=[name for name, _ in BAR_OPTIONS])
def test_no_option_sets_a_bar(name, given, capsys):
    with pytest.raises(SystemExit) as exc:
        main(shortest_argv(name) + given)
    assert exc.value.code == 2
    assert capsys.readouterr().err.endswith(
        f"error: unrecognized arguments: {' '.join(given[-2:])}\n")


def readme_row(name):
    """The README's table line of a row."""
    cells = [f"`{cli._flag(option)}` (required)" if default is cli._REQUIRED
             else f"`{cli._flag(option)}`" if default is None
             else f"`{cli._flag(option)} {default_text(name, option)}`"
             for option, default in cli._ROWS[name][1].items()]
    tol = ROW_TOLERANCES.get(name)
    return f"| `{name}` | {', '.join(cells) or '—'} | {'—' if tol is None else repr(tol)} |"


def test_readme_row_table_is_the_rows():
    # a row, option or default changed in cli._ROWS breaks this test instead
    # of the documentation
    text = (Path(__file__).resolve().parents[1] / "README.md").read_text()
    section = text.split("## Command line", 1)[1].split("\n## ", 1)[0]
    table = [line for line in section.splitlines() if line.startswith("| `")]
    assert table == [readme_row(name) for name in cli._ROWS]


# Spaces past sun.MAX_DIM: memory for su(300) bases or a list of 10^9
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
    (["holonomy-convergence", "--n", "17"], "space-too-large"),
    (["holonomy-convergence", "--n", "100000"], "space-too-large"),
    (["verify", "--space", "sphere4", "--samples", HUGE], "too-many-samples"),
    (["verify", "--space", "eta_su2", "--samples", HUGE], "too-many-samples"),
    (["verify", "--space", "double", "--n", "2", "--axiom", "moment", "--samples", HUGE],
     "too-many-samples"),
    # 48,903,492 weights, a MemoryError under a 1.5 GB address-space limit
    (["level-weights", "--type", "A8", "--level", "30"], "too-many-weights"),
    (["level-weights", "--type", "E8", "--level", HUGE], "too-many-weights"),
    # the root closure grows as rank^3: `vertices` took 3.8 s for D160
    (["vertices", "--type", "A160"], "rank-too-large"),
    (["check-class", "--type", "A100000", "--xi", "0", "--level", "1"], "rank-too-large"),
]


@pytest.mark.parametrize("argv,tag", TOO_LARGE, ids=[f"argv{i}" for i in range(len(TOO_LARGE))])
def test_too_large_space_exits_two_at_once(argv, tag):
    start = time.perf_counter()
    code, out, err = cli.run(argv + ["--json"])
    assert time.perf_counter() - start < 1.0
    assert code == 2 and out == "" and err.startswith(f"error: {tag}:")


def test_largest_accepted_sizes_run():
    # the bounds reject only what is above them
    for argv in (["cocycle", "--n", "16", "--samples", "2"],
                 ["holonomy-convergence", "--n", "16"],
                 ["verify", "--space", "sphere4", "--samples", str(MAX_SAMPLES)],
                 ["vertices", "--type", f"A{MAX_RANK}"]):
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
    assert len(commands) == 14 and {argv[0] for argv in commands} == VERBS
    for argv in commands:
        assert main(argv) == 0, argv
        assert capsys.readouterr().out


def raise_linalg_error(*args, **kwargs):
    raise np.linalg.LinAlgError("Eigenvalues did not converge")


@pytest.mark.parametrize("case", ["class", "cocycle"])
def test_internal_failure_exits_3(case, monkeypatch):
    # LinAlgError is a ValueError, yet a failed eigensolver is no input
    # error: the README's class command, whose one eigensolver is eigh in
    # the flow that gives each point and its eigenframe, and a cocycle,
    # which decomposes each draw with the eigh that exponentiates it, exit 3
    # with the exception named and no traceback
    monkeypatch.setattr(np.linalg, "eigh", raise_linalg_error)
    if case == "class":
        argv = next(argv for argv in readme_commands() if "conjugacy_class" in argv)
    else:
        argv = ["cocycle", "--n", "3", "--samples", "3"]
    assert cli.run(argv) == (3, "", "internal-error: LinAlgError: Eigenvalues did not converge")


# Every tag an InputError in src/ can carry.  A new tag is a reviewed
# addition to this set; a failure on data the package built itself is a
# ToolkitError, exit 3, and carries no tag.
INPUT_ERROR_TAGS = {
    "degenerate-fit", "dimension-mismatch", "empty-grid", "empty-vector", "grid-mismatch",
    "group-size-mismatch", "invalid-genus", "invalid-level", "invalid-rank", "invalid-samples",
    "invalid-seed", "invalid-series", "invalid-torsion", "invalid-type", "io-error",
    "malformed-connection", "malformed-json", "malformed-matrix", "malformed-rational",
    "missing-argument", "nonzero-sum", "not-a-root", "not-a-series",
    "not-algebra", "not-g-valued", "not-identity-level", "not-in-alcove", "not-special-unitary",
    "not-square", "not-tangent", "off-sphere", "rank-too-large",
    "space-too-large", "too-many-samples", "too-many-weights",
    "unknown-axiom", "unresolved-class", "unsupported-axiom", "unused-argument",
}


def input_error_tags(source: str) -> set:
    """The first argument of every InputError(...) call in the source, with
    both branches of a conditional expression; an argument that is not a
    string literal is collected as None."""
    tags = set()
    for node in ast.walk(ast.parse(source)):
        func = getattr(node, "func", None)
        if getattr(func, "id", getattr(func, "attr", None)) != "InputError":
            continue
        todo = node.args[:1] or [None]
        while todo:
            arg = todo.pop()
            if isinstance(arg, ast.IfExp):
                todo += [arg.body, arg.orelse]
            else:
                tags.add(arg.value if isinstance(arg, ast.Constant)
                         and isinstance(arg.value, str) else None)
    return tags


def test_input_error_tags_are_the_reviewed_set():
    src = Path(quasiham.__file__).parent
    found = set().union(*(input_error_tags(path.read_text()) for path in src.glob("*.py")))
    assert found == INPUT_ERROR_TAGS
    # the collector sees both branches, and a computed tag as None
    assert input_error_tags('InputError("a" if x else "b", m)\nerrors.InputError(code, m)') \
        == {"a", "b", None}


@pytest.mark.parametrize("axiom", ["moment", "cocycle"])
@pytest.mark.parametrize("space", [["conjugacy_class", "--xi", "1/8,-1/8"], ["double"]])
def test_non_finite_residual_exits_3(space, axiom, monkeypatch):
    # with omega's pairings NaN the residuals are NaN: a fault of the
    # program, not a failed verification, so nothing is printed as a verdict.
    # The product keeps the type of the pairings, an array or the cocycle's jet
    spaces = importlib.import_module("quasiham.spaces")
    gram = spaces.basic_gram
    monkeypatch.setattr(spaces, "basic_gram", lambda xs, ys: gram(xs, ys) * np.nan)
    argv = ["verify", "--space", *space, "--n", "2", "--axiom", axiom, "--samples", "3", "--json"]
    assert cli.run(argv) == (3, "", f"internal-error: ToolkitError: non-finite {axiom} residual")


@pytest.mark.parametrize("space,module,name,what", [
    ("sphere4", "quasiham.spaces", "sphere4_moment", "sphere4 residual"),
    ("eta_su2", "quasiham.sun", "canonical_three_form", "eta_su2 integral"),
])
def test_non_finite_value_exits_3(space, module, name, what, monkeypatch):
    mod = importlib.import_module(module)
    fn = getattr(mod, name)
    monkeypatch.setattr(mod, name, lambda *args, **kw: np.full_like(fn(*args, **kw), np.nan))
    assert cli.run(["verify", "--space", space, "--samples", "5"]) == (
        3, "", f"internal-error: ToolkitError: non-finite {what}")


@pytest.mark.parametrize("xi,shown", [("3/4", "3/4"), ("3/4,-1/4", "3/4,-1/4"),
                                      ("0.75", "3/4")])
def test_not_in_alcove_shows_xi_as_entered(xi, shown):
    code, out, err = cli.run(["check-class", "--type", "A2" if "," in xi else "A1", f"--xi={xi}",
                              "--level", "1"])
    assert code == 2 and out == "" and err.startswith(f"error: not-in-alcove: {shown} ")
    assert "Fraction(" not in err


def run_quietly(argv):
    """Exit code, stdout, stderr and warnings of the command line on argv."""
    with warnings.catch_warnings(record=True) as caught:
        warnings.simplefilter("always")
        code, out, err = cli.run(argv)
    return code, out, err, [str(w.message) for w in caught]


def assert_clean_exit(argv, code, out, err, caught):
    assert code in (0, 1, 2), argv
    assert "Traceback" not in err and not caught, (argv, err, caught)
    assert (code == 2) == (out == ""), argv
    if code == 2:
        assert re.match(r"error: [a-z]+(-[a-z]+)*: ", err), (argv, err)
    if currently_in_test_context():
        # an input error by its tag, so that the statistics show how many
        # draws reach a verifier
        event(f"exit {code}" if code != 2 else f"exit 2 {err.split(': ')[1]}")


def row_options(data, name, values):
    """argv of the drawn values (None leaves an option out) of the options
    that the row `name` reads, of all of them if no row has that name; in
    about one draw in four, one more drawn option the row does not read."""
    reads = cli._ROWS[name][1] if name in cli._ROWS else values
    given = {option: value for option, value in values.items() if value is not None}
    argv = [f"{cli._flag(option)}={value}" for option, value in given.items() if option in reads]
    unread = sorted(given.keys() - reads.keys())
    if unread and data.draw(st.integers(0, 3)) == 0:
        option = data.draw(st.sampled_from(unread))
        argv.append(f"{cli._flag(option)}={given[option]}")
    return argv


# the generator's seeds and as many negative ones, which are refused
SEEDS = st.integers(-2**32, 2**32 - 1)
VERIFY_SPACES = ["conjugacy_class", "double", "fused_double", "genus", "sphere4", "eta_su2"]
# valid, valid for other n, unsorted, nonzero-sum and malformed alcove points
XI_POOL = ["1/8,-1/8", "1/4,1/12,-1/3", "3/8,1/8,-1/8,-3/8", "1/2,-1/2", "-1/8,1/8",
           "1/4,1/4", "1/3,1/3,1/3", "1/0,0", "a,b", "", "nan,nan"]


@settings(max_examples=400, deadline=None, database=None,
          suppress_health_check=[HealthCheck.too_slow])
@given(space=st.sampled_from(VERIFY_SPACES),
       # an absent --axiom and an invalid --n, --genus, --samples or --seed in a minority
       axiom=st.sampled_from(["cocycle", "moment", "min_degeneracy", "equivariance"] * 2 + [None]),
       n=st.sampled_from([2, 3, 4] * 3 + [-1, 0, 1, 300]),
       genus=st.sampled_from([1, 2, 3] * 3 + [-1, 0, 10**9]),
       samples=st.sampled_from([1, 2, 3, 4] * 3 + [0, -1]),
       # an option is left out half of the time, so that most argv reach a verifier
       xi=st.none() | st.sampled_from(XI_POOL), seed=st.integers(0, 2**32 - 1) | SEEDS,
       data=st.data())
def test_verify_fuzz_exits_cleanly(space, axiom, n, genus, samples, xi, seed, data):
    argv = ["verify", f"--space={space}", "--json"] + ([f"--axiom={axiom}"] if axiom else [])
    name = f"verify --space {space}" + (f" --axiom {axiom}" if axiom else "")
    argv += row_options(data, name, {"n": n, "xi": xi, "genus": genus, "samples": samples,
                                     "seed": seed})
    assert_clean_exit(argv, *run_quietly(argv))


@settings(max_examples=150, deadline=None, database=None,
          suppress_health_check=[HealthCheck.too_slow])
# an invalid --n, --samples or --seed in a minority, so that most argv reach
# the verifier
@given(n=st.sampled_from([3, 4, 5, 6] * 3 + [-1, 0, 1, 2]),
       samples=st.sampled_from([1, 2, 3, 4, 5] * 3 + [0, -1]),
       seed=st.integers(0, 2**32 - 1) | SEEDS, data=st.data())
def test_cocycle_fuzz_exits_cleanly(n, samples, seed, data):
    # the one cocycle row reads every option of the verb, so none is unread
    argv = ["cocycle", "--json"] + row_options(
        data, "cocycle", {"n": n, "samples": samples, "seed": seed})
    assert_clean_exit(argv, *run_quietly(argv))


@settings(max_examples=150, deadline=None, database=None,
          suppress_health_check=[HealthCheck.too_slow])
@given(n=st.integers(-1, 6), seed=SEEDS, data=st.data())
def test_holonomy_convergence_fuzz_exits_cleanly(n, seed, data):
    argv = ["holonomy-convergence", "--json"] + row_options(
        data, "holonomy-convergence", {"n": n, "seed": seed})
    # the grid row reads every option but --file, which picks the file row:
    # that row reads no --n or --seed
    if data.draw(st.integers(0, 3)) == 0:
        argv.append("--file=conn.json")
    assert_clean_exit(argv, *run_quietly(argv))


@settings(max_examples=5, deadline=None, database=None)
@given(seed=SEEDS, offset=st.integers(0, 3))
def test_reduce_rank_fuzz_exits_cleanly(seed, offset):
    # every point kind, n and genus of the range and past the size bound; the
    # seed draws the points.  abba and commuting fix the genus and read no
    # --genus, which one argv in four gives them.  About half the seeds are
    # refused, so five examples draw about as many points as three did on
    # seeds >= 0
    for i, (at, n, genus) in enumerate(itertools.product(
            ["abba", "commuting", "identity"], [*range(-1, 6), 300], [*range(-1, 4), 10**9])):
        argv = ["reduce-rank", f"--at={at}", f"--n={n}", f"--seed={seed}", "--json"]
        if "genus" in cli._ROWS[f"reduce-rank --at {at}"][1] or (i + offset) % 4 == 0:
            argv.append(f"--genus={genus}")
        assert_clean_exit(argv, *run_quietly(argv))


# spellings LieType.parse accepts, then unknown series, out-of-range ranks and
# malformed labels, and ranks past the rank bound
TYPE_POOL = ["A1", "a2", "A_3", "b3", "C_2", "g2", "D3", "d4", "F4", "e6", " a_1 ",
             "A0", "B1", "C1", "E9", "G3", "X2", "A", "2A", "", "A-1", "-1", "A1.5",
             "A65", "d1000000"]
EXACT_XI_POOL = XI_POOL + ["0", "1/4", "3/4", "1/4,-1/4", "1/3,0,-1/3", "-1/2,1/2", "1"]


@pytest.mark.parametrize("lie_type", TYPE_POOL)
def test_level_weights_and_vertices_exit_cleanly(lie_type):
    # levels past the weight bound of every type, one of them too large for the count
    levels = [*range(-1, 9), 10**6, 10**40]
    for argv in [["vertices"]] + [["level-weights", f"--level={k}"] for k in levels]:
        argv += [f"--type={lie_type}", "--json"]
        assert_clean_exit(argv, *run_quietly(argv))


@settings(max_examples=500, deadline=None, database=None)
@given(lie_type=st.sampled_from(TYPE_POOL), level=st.integers(-1, 8),
       xis=st.lists(st.sampled_from(EXACT_XI_POOL), min_size=1, max_size=2))
def test_check_class_fuzz_exits_cleanly(lie_type, level, xis):
    # the torsion is checked last, so every value of it is tried on each draw
    for torsion in (None, -1, 0, 1, 2, 3):
        argv = ["check-class", f"--type={lie_type}", f"--level={level}", "--json"]
        argv += [f"--xi={xi}" for xi in xis] + ([] if torsion is None else [f"--torsion={torsion}"])
        assert_clean_exit(argv, *run_quietly(argv))


# every series, at ranks where a draw stays cheap
ORACLE_TYPES = ["A1", "A2", "A3", "A4", "B3", "B4", "C2", "C3", "D4", "D5", "E6", "F4", "G2"]
SPELLINGS = ["plain", "unreduced", "signed", "padded", "decimal", "exponent"]


def spell(x: Fraction, style: str) -> str:
    """x in one of the spellings parse_rational accepts: 2/4, -0 or +1/3,
    ' 1/3 ', and for a finite decimal 0.25 or 2.5e-1."""
    if style == "unreduced":
        return f"{2 * x.numerator}/{2 * x.denominator}"
    if style == "signed":
        return "-0" if x == 0 else f"{'+' if x > 0 else ''}{x}"
    if style == "padded":
        return f" {x} "
    if style in ("decimal", "exponent") and 10**6 % x.denominator == 0:
        dec = Decimal(x.numerator * 10**6 // x.denominator).scaleb(-6).normalize()
        return format(dec, "f" if style == "decimal" else "e")
    return str(x)


@st.composite
def check_class_argv(draw):
    """check-class argv on 1-3 points spelled entry by entry: convex
    combinations of the alcove vertices with weights 0..4 (inside or on the
    boundary), for type A half of them in eigenvalue coordinates, a few
    negated, shifted or cut short."""
    lie_type = draw(st.sampled_from(ORACLE_TYPES))
    rs = build_root_system(LieType.parse(lie_type))
    vertices = fractions(alcove.alcove_vertices(rs))
    argv = ["check-class", "--type", lie_type, "--level", str(draw(st.integers(1, 24)))]
    for _ in range(draw(st.integers(1, 3))):
        weights = draw(st.lists(st.integers(0, 4), min_size=len(vertices),
                                max_size=len(vertices)))
        weights[0] += not any(weights)
        xi = [sum(w * v[i] for w, v in zip(weights, vertices)) / sum(weights)
              for i in range(rs.rank)]
        if rs.lie_type.series == "A" and draw(st.booleans()):
            xi = list(a_series_embedding(rs, tuple(xi)))
        change = draw(st.sampled_from(["none"] * 12 + ["negate", "shift", "cut"]))
        if change == "negate":
            xi = [-x for x in xi]
        elif change == "shift":
            xi[0] += Fraction(1, 7)
        elif change == "cut":
            xi = xi[:-1]
        styles = draw(st.lists(st.sampled_from(SPELLINGS), min_size=len(xi), max_size=len(xi)))
        argv.append(f"--xi={','.join(map(spell, xi, styles))}")
    torsion = draw(st.sampled_from([None, None, None, 0, 1, 2, 3]))
    return argv + ([] if torsion is None else [f"--torsion={torsion}"])


def check_class_oracle(args):
    """(exit code, payload) of check-class from the Fraction oracles, on the
    namespace that `_run` hands the check-class row."""
    rs = build_root_system(LieType.parse(args.type))
    xis = []
    for text in args.xi:
        xi = parse_vector(text)
        if rs.lie_type.series == "A" and len(xi) == rs.rank + 1:
            xi = a_series_from_euclidean(rs, xi)
        elif len(xi) != rs.rank:
            raise InputError("dimension-mismatch", "")
        xis.append(xi)
    verdicts = [class_prequantizable(rs, xi, args.level) for xi in xis]
    classes = []
    for xi, (answer, witness) in zip(xis, verdicts):
        faces = [j for j, t in enumerate(barycentric_coords(rs, xi)) if t > 0]
        verdict = {"answer": answer, "level": args.level,
                   "witness": format_vector(witness) if answer else witness}
        classes.append({"xi": format_vector(xi), "verdict": verdict,
                        "boundary": len(faces) <= rs.rank, "open_faces": faces})
    answer = fusion_prequantizable(verdicts)
    payload = {"lie_type": str(rs.lie_type), "level": args.level, "classes": classes,
               "prequantizable": answer}
    if args.torsion is not None:
        payload["torsion_admissible"] = torsion_level_admissible(args.torsion, args.level)
        answer = answer and payload["torsion_admissible"]
    return (0 if answer else 1), payload


@settings(max_examples=400, deadline=None, database=None)
@given(argv=check_class_argv())
def test_check_class_matches_fraction_oracle(argv):
    # the integer path prints the text, JSON and error of the Fraction
    # oracles with their exit code, on every series and spelling
    for argv in (argv, argv + ["--json"]):
        with mock.patch.dict(cli._ROWS, {"check-class": (check_class_oracle,
                                                         cli._ROWS["check-class"][1])}):
            expected = cli.run(argv)
        code, out, err = cli.run(argv)
        # an internal error on either path fails, even with equal text
        assert expected[0] != 3 and code != 3, (argv, expected, err)
        # the messages of the oracles' errors; the dimension check is the verb's own
        tag = "error: dimension-mismatch: "
        if expected[2] == tag:
            err = err[:len(tag)]
        assert (code, out, err) == expected, argv
    event(f"exit {code}")


def read_xi(reader, text):
    """reader(text), or the tag and message of the InputError it raises."""
    try:
        return reader(text)
    except InputError as exc:
        return exc.code, str(exc)


def fraction_reader(text):
    return common_denominator(parse_vector(text))


# plain text that int reads, and text left to the Fraction path: a zero or
# signed denominator, underscores, non-ASCII digits, spaces around '/',
# decimals, exponents and no entry at all
READER_CASES = {
    "1/0": ("malformed-rational", "malformed-rational: expected 'p/q', got '1/0'"),
    "1/-2": ("malformed-rational", "malformed-rational: expected 'p/q', got '1/-2'"),
    "+0": ((0,), 1),
    "-0": ((0,), 1),
    "007/014": ((1,), 2),
    "1_000/3": ((1000,), 3),
    "\u0663/\u0664": ((3,), 4),
    "1 / 2": ("malformed-rational", "malformed-rational: expected 'p/q', got '1 / 2'"),
    "0.25": ((1,), 4),
    "2.5e-1": ((1,), 4),
    ",,1/2,": ((1,), 2),
    "": ("empty-vector", "empty-vector: expected comma-separated rationals, got none"),
}


@pytest.mark.parametrize("text,expected", list(READER_CASES.items()))
def test_parse_numerators_cases(text, expected):
    assert read_xi(parse_numerators, text) == read_xi(fraction_reader, text) == expected


@pytest.mark.parametrize("text", ["1" * 5000, "1/" + "3" * 5000, "1/2," + "7" * 5000])
def test_parse_numerators_past_the_int_digit_limit(text):
    # int refuses more than sys.get_int_max_str_digits() digits, and so does
    # Fraction: the entry is malformed, an exit 2, not an internal error
    assert read_xi(parse_numerators, text) == read_xi(fraction_reader, text)
    assert read_xi(parse_numerators, text)[0] == "malformed-rational"
    assert run_quietly(["check-class", "--type", "A1", "--xi", text, "--level", "1"])[0] == 2


# ASCII digits three times as likely as each other character
XI_CHARS = st.sampled_from("0123456789" * 3 + "\u0663\u0664\uff17+-//._eE ,,")


@settings(max_examples=300, deadline=None, database=None)
@given(text=st.text(XI_CHARS, max_size=12))
def test_parse_numerators_is_the_fraction_reader(text):
    # the integer reader gives common_denominator(parse_vector(text)), or the
    # same tagged error, on ASCII and non-ASCII digits, signs, slashes,
    # decimal points, underscores, exponents, spaces and commas; exponents
    # of 4 digits or more are left out, since 10**9999 is slow to build
    if re.search(r"[eE][+-]?[\d_]{4,}", text) is None:
        assert read_xi(parse_numerators, text) == read_xi(fraction_reader, text)


def test_missing_connection_file_exits_two(tmp_path):
    code, out, err = cli.run(["holonomy-convergence", "--file", str(tmp_path / "missing.json")])
    assert code == 2 and out == "" and err.startswith("error: io-error:")


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
    # json reads NaN and Infinity as floats
    "nan-entry": json.dumps([[[[float("nan"), 0.0], [0.0, 0.0]], [[0.0, 0.0], [0.0, 0.0]]]]),
    "inf-entry": json.dumps([[[[0.0, 0.0], [0.0, float("inf")]], [[0.0, 0.0], [0.0, 0.0]]]]),
    # an entry is exactly two JSON numbers: not an object with two keys, not an
    # integer past float range, not three numbers and not a bool
    "object-entry": json.dumps([[[{"0": 0, "1": 0.3}, PAIR], [PAIR, PAIR]]]),
    "huge-entry": "[[[[1" + "0" * 400 + ", 0.3], [0, 0]], [[0, 0], [0, 0]]]]",
    "long-entry": json.dumps([[[[0, 0.3, 99], PAIR], [PAIR, [0, -0.3]]]]),
    "bool-entry": json.dumps([[[[False, 0.3], PAIR], [PAIR, [0, -0.3]]]]),
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
    code, out, err, caught = run_quietly(argv)
    assert_clean_exit(argv, code, out, err, caught)


@pytest.mark.parametrize("name,tag", [("not-json", "malformed-json"),
                                      ("not-utf8", "malformed-json"),
                                      ("ragged-rows", "malformed-matrix"),
                                      ("ragged-stack", "malformed-matrix"),
                                      ("not-algebra", "not-algebra"),
                                      ("nan-entry", "not-algebra"),
                                      ("inf-entry", "not-algebra"),
                                      ("object-entry", "malformed-matrix"),
                                      ("huge-entry", "malformed-matrix"),
                                      ("long-entry", "malformed-matrix"),
                                      ("bool-entry", "malformed-matrix")])
def test_holonomy_file_errors_carry_tags(name, tag, tmp_path):
    path = tmp_path / "conn.json"
    content = BAD_FILES[name]
    path.write_bytes(content if isinstance(content, bytes) else content.encode())
    code, out, err = cli.run(["holonomy-convergence", "--file", str(path)])
    assert code == 2 and out == "" and err.startswith(f"error: {tag}:")


def test_seed_1976016887_degeneracy_is_decided_at_the_first_draw(monkeypatch):
    # the first point has |tr Psi| = 2.5e-6, which the undecided band once
    # redrew; the Liouville identity decides it where it is, with no SVD
    svds, svd = [], np.linalg.svd
    monkeypatch.setattr(np.linalg, "svd", lambda *a, **k: svds.append(1) or svd(*a, **k))
    argv = ["verify", "--space", "genus", "--n", "2", "--genus", "2",
            "--axiom", "min_degeneracy", "--samples", "3", "--seed", "1976016887"]
    code, payload = dispatch(argv)
    assert code == 0 and payload["pass"] is True and payload["max_residual"] == 0.0
    assert not svds


def test_class_near_half_wall_passes_min_degeneracy():
    # Ad_Psi + 1 sits at a relative 6e-6 on the whole class, but it is
    # invertible and omega has full rank, so the ranks agree
    argv = ["verify", "--space", "conjugacy_class", "--n", "2",
            "--xi", "250001/1000000,-250001/1000000", "--axiom", "min_degeneracy"]
    code, payload = dispatch(argv)
    assert code == 0 and payload["pass"] is True and payload["max_residual"] == 0.0
    assert main(argv) == 0


@pytest.mark.parametrize("xi", ["49999/100000,0,-49999/100000",
                                "4999999/10000000,0,-4999999/10000000"])
def test_class_near_the_wall_passes_min_degeneracy(xi):
    # one pair of xi is 2e-5 (2e-7) turns from equal mod 1 and two are 1e-5
    # (1e-7) from half a turn apart: omega's blocks are 2e2 (2e4) and 4e-7
    # (4e-9), and each pair is decided on its own scale, where the small
    # ones and their |d_i conj(d_j) + 1| = 6.3e-5 (6.3e-7) are not zero.
    # Decided against the largest block the first exited 1 with residual 4
    # and the second 2 with undecided-sample
    argv = ["verify", "--space", "conjugacy_class", "--n", "3", "--xi", xi,
            "--axiom", "min_degeneracy"]
    code, payload = dispatch(argv)
    assert code == 0 and payload["pass"] is True and payload["max_residual"] == 0.0
    assert main(argv) == 0


def near_degenerate_classes():
    """Classes at distance eps from a degenerate one: near the wall
    xi_1 - xi_n = 1 at n = 2 and 3, near an antipodal pair and near the
    centre of SU(2)."""
    for k in (5, 8, 10, 12):
        eps = Fraction(1, 10**k)
        for n in (2, 3):
            yield [Fraction(1, 2) - eps] + [Fraction(0)] * (n - 2) + [eps - Fraction(1, 2)]
        yield [Fraction(1, 4) + eps, -Fraction(1, 4) - eps]
        yield [eps, -eps]


def test_near_degenerate_classes_pass_min_degeneracy():
    # every lone class is quasi-Hamiltonian, and its pairs are taken from xi,
    # so its basis has dim rows at every eps and each pair is decided on its
    # own scale; decided on global scales, 5 of these 16 cells exited 1
    for xi in near_degenerate_classes():
        argv = ["verify", "--space", "conjugacy_class", "--n", str(len(xi)),
                "--xi", ",".join(f"{x.numerator}/{x.denominator}" for x in xi),
                "--axiom", "min_degeneracy", "--samples", "10", "--seed", "0"]
        code, payload = dispatch(argv)
        assert code == 0 and payload["max_residual"] == 0.0, argv


def test_tiny_class_moment_never_exits_3(capsys):
    # xi = (eps, 0, 0, -eps) has a repeated eigenvalue: a basis ranked per
    # stack on measured phases counted its rounding gap (1e-16) against a
    # largest gap of about 1e-9, built 12 rows for dim 10 and exited 3 at
    # eps <= 1e-10 (and at 1e-9, seed 2).  The rows come from xi's pairs, and
    # w of unit norm keeps the residual at rounding where it grew like 1 / eps
    for k in (9, 10, 11, 12):
        for seed in (0, 1, 2):
            argv = ["verify", "--space", "conjugacy_class", "--xi", f"1/{10**k},0,0,-1/{10**k}",
                    "--axiom", "moment", "--samples", "3", "--seed", str(seed)]
            assert main(argv) == 0, argv


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


# Light argv that run every verb: every verify space with each of its axioms,
# every reduce-rank point, the text and the JSON renderer and an input error;
# the test adds the file mode of holonomy-convergence.
COVERAGE_ARGV = [
    ["table"],
    ["vertices", "--type", "A2", "--json"],
    ["level-weights", "--type", "A2", "--level", "2"],
    ["check-class", "--type", "A1", "--xi", "1/4,-1/4", "--level", "2", "--torsion", "2"],
    # a decimal entry is read through parse_vector and common_denominator
    ["check-class", "--type", "A1", "--xi", "0.25,-0.25", "--level", "2"],
    *(["verify", "--space", space, "--n", "2", "--axiom", axiom, "--samples", "2", *xi]
      for space, xi in [("conjugacy_class", ["--xi", "1/8,-1/8"]), ("double", []),
                        ("fused_double", []), ("genus", [])]
      for axiom in ["cocycle", "moment", "min_degeneracy", "equivariance"]),
    ["verify", "--space", "sphere4", "--axiom", "equivariance", "--samples", "2"],
    ["verify", "--space", "eta_su2", "--samples", "2"],
    ["cocycle", "--n", "3", "--samples", "2"],
    ["holonomy-convergence"],
    *(["reduce-rank", "--n", "2", "--at", at] for at in ["abba", "commuting", "identity"]),
    ["verify", "--space", "double", "--xi", "1/4,-1/4", "--axiom", "moment"],
    # every point of this class has a pair d_i = -d_j, which its pair rule decides
    ["verify", "--space", "conjugacy_class", "--n", "2", "--xi", "1/4,-1/4",
     "--axiom", "min_degeneracy", "--samples", "2"],
    # sample 234 has |tr Psi| = 1.45e-7, a modulus of Ad_Psi + 1 below 2 RANK_CUTOFF,
    # so it takes the SVD and _anti_fixed_rank's null pairs
    ["verify", "--space", "genus", "--n", "2", "--genus", "2", "--axiom", "min_degeneracy",
     "--samples", "235", "--seed", "21836"],
]
# Every function and method in src/ that no verb reaches, by module and
# qualified name, with its reason.  Test-only forms of what the verbs run
# live in tests/oracles.py instead.
UNREACHED = {
    "quasiham.roots.inner_product": "the exact side of the exact-numerical bridge",
    "quasiham.sun.torus_algebra": "the numerical side of the exact-numerical bridge",
    "quasiham.__getattr__": "the module protocol: the verbs import from the modules",
    "quasiham.__dir__": "the module protocol",
}
# the public functions among them
LIBRARY_ONLY = {name for name in UNREACHED if name.rpartition(".")[2] in quasiham.__all__}


def is_stub(node) -> bool:
    """A def whose body, after its docstring, only raises NotImplementedError:
    an interface declaration."""
    body = node.body[1:] if ast.get_docstring(node) is not None else node.body
    exc = getattr(body[0], "exc", None) if len(body) == 1 else None
    return getattr(getattr(exc, "func", exc), "id", None) == "NotImplementedError"


def defined_functions(source: str, filename: str, module: str) -> dict:
    """The code object of every def in the source, nested ones included, by
    (filename, first line, qualified name), mapped to module.qualname.
    Comprehensions, lambdas, class bodies and stubs are left out."""
    tree = ast.parse(source)
    stubs = {min([node.lineno] + [d.lineno for d in node.decorator_list])
             for node in ast.walk(tree)
             if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef)) and is_stub(node)}
    out, todo = {}, [compile(tree, filename, "exec")]
    while todo:
        code = todo.pop()
        todo += [c for c in code.co_consts if inspect.iscode(c)]
        # a class body runs in its own namespace, not in new locals
        if (code.co_flags & inspect.CO_NEWLOCALS and not code.co_name.startswith("<")
                and code.co_firstlineno not in stubs):
            out[filename, code.co_firstlineno, code.co_qualname] = f"{module}.{code.co_qualname}"
    return out


def test_closed_pipe_exits_without_traceback():
    # the reader closes after one line; 200 kB of JSON outgrow a pipe's
    # buffer, so the verb is still writing when it does.  The verb's exit
    # code stays, and nothing is printed on stderr, at exit either
    argv = ["level-weights", "--type", "A2", "--level", "100", "--json"]
    proc = subprocess.Popen([sys.executable, "-m", "quasiham.cli", *argv],
                            stdout=subprocess.PIPE, stderr=subprocess.PIPE)
    assert proc.stdout.readline() == b"{\n"
    proc.stdout.close()
    err = proc.stderr.read()
    proc.stderr.close()
    assert proc.wait() == 0 and err == b""


def test_verbs_reach_every_function(tmp_path, capsys):
    # every function and method in src/ runs in some verb, or is in the
    # reviewed UNREACHED table; main runs the argv, as the command line
    # does, and dispatch one more, as the benchmark does
    conn = tmp_path / "conn.json"
    conn.write_text(json.dumps({"samples": [[[[0, 0.3], [0, 0]], [[0, 0], [0, -0.3]]]]}))
    argvs = COVERAGE_ARGV + [["holonomy-convergence", "--file", str(conn)]]
    assert {argv[0] for argv in argvs} == VERBS
    package = Path(quasiham.__file__).parent
    functions = {}
    for path in package.glob("*.py"):
        module = "quasiham" if path.stem == "__init__" else f"quasiham.{path.stem}"
        functions.update(defined_functions(path.read_text(), str(path), module))
    # a cached call that hits runs no frame
    for module in [m for key, m in sys.modules.items() if key.startswith("quasiham.")]:
        for value in vars(module).values():
            if callable(getattr(value, "cache_clear", None)):
                value.cache_clear()
    reached = set()

    def profile(frame, event, arg):
        if event == "call":
            code = frame.f_code
            reached.add((code.co_filename, code.co_firstlineno, code.co_qualname))

    sys.setprofile(profile)
    try:
        codes = [main(argv) for argv in argvs]
        dispatch(["table"])
    finally:
        sys.setprofile(None)
    capsys.readouterr()
    assert codes.count(2) == 1 and set(codes) <= {0, 1, 2}
    assert {functions[key] for key in functions.keys() - reached} == set(UNREACHED)
    assert len(UNREACHED) <= 5 and len(LIBRARY_ONLY) <= 3


def test_defined_functions_sees_every_def():
    # nested defs and methods count; lambdas, comprehensions, class bodies
    # and stubs do not
    source = (
        "class A:\n"
        "    x = [i for i in range(2)]\n"
        "    def f(self):\n"
        "        def g():\n"
        "            return lambda: 1\n"
        "        return g\n"
        "    def stub(self):\n"
        "        \"\"\"An interface declaration.\"\"\"\n"
        "        raise NotImplementedError\n"
        "    def message_stub(self):\n"
        "        raise NotImplementedError('declared only')\n"
        "    @staticmethod\n"
        "    def h():\n"
        "        return A.stub\n"
    )
    found = defined_functions(source, "m.py", "m")
    assert sorted(found.values()) == ["m.A.f", "m.A.f.<locals>.g", "m.A.h"]
    assert ("m.py", 3, "A.f") in found and ("m.py", 12, "A.h") in found


# Every name of quasiham.__all__.  A new public name is a reviewed addition to
# this set: a test-only form of what the verbs run belongs in tests/oracles.py.
PUBLIC_NAMES = {
    "AlcoveModel", "CartanVector", "ConjugacyClass", "Double", "Fused", "Genus", "InputError",
    "LevelWeightSet", "LieType", "PiecewiseConnection", "QSpace",
    "RootSystem", "ToolkitError", "VerificationReport", "a_series_embedding",
    "a_series_numerators", "alcove_vertices", "algebra_basis",
    "basic_inner", "build_root_system", "canonical_three_form", "check_algebra",
    "check_special_unitary", "class_decision", "convergence_order", "eigenline_weights",
    "eta_integral_su2", "expm_skew", "gauge_transform", "height", "inner_product",
    "level_weights", "maurer_cartan", "minimal_integral_level",
    "parse_rational", "parse_vector", "project_algebra", "random_algebra",
    "random_special_unitary", "reduction_rank", "sphere4_act", "sphere4_equivariance_residual",
    "sphere4_moment", "torsion_level_admissible", "torus_algebra", "torus_point",
    "verify_axiom", "vertex_weight_consistency",
}


def test_public_names_are_the_reviewed_set():
    assert set(quasiham.__all__) == PUBLIC_NAMES
    assert all(hasattr(quasiham, name) for name in PUBLIC_NAMES)


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
        ["holonomy-convergence"],
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
    parser = cli._build_parsers()[0]
    text = parser.format_help()
    for verb in VERBS:
        assert verb in text


def test_exact_verbs_never_import_numerics():
    # keeps `table` comfortably inside its one-second budget
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


def test_cli_import_loads_no_dataclasses_inspect_typing_or_numpy():
    # every exact verb is a cold process: dataclasses alone pulls in inspect,
    # ast, dis and tokenize, and fractions pulls in decimal and numbers, where
    # the exact layer decides on integers and makes a Fraction only where one
    # leaves the package.  -S skips the site hooks, which may load typing
    # themselves and so hide a module the package brings in
    code = (
        "import sys\n"
        "import quasiham.cli\n"
        "print(sorted({'dataclasses', 'inspect', 'typing', 'numpy', 'fractions', 'decimal',"
        " 'numbers'} & sys.modules.keys()))\n"
    )
    env = {**os.environ, "PYTHONPATH": str(Path(quasiham.__file__).parents[1])}
    proc = subprocess.run([sys.executable, "-S", "-c", code], env=env,
                          capture_output=True, text=True, check=True)
    assert proc.stdout == "[]\n"


def test_numerical_layer_loads_no_dataclasses():
    # numpy itself loads numbers, so only fractions and decimal are checked
    code = (
        "import sys\n"
        "import quasiham.spaces, quasiham.gerbe, quasiham.holonomy\n"
        "loaded = sorted({'dataclasses', 'fractions', 'decimal'} & sys.modules.keys())\n"
        "assert not loaded, f'the numerical layer pulled in {loaded}'\n"
    )
    subprocess.run([sys.executable, "-c", code], check=True)


def test_numerical_verbs_never_import_scipy(tmp_path):
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
        "dispatch(['holonomy-convergence'])\n"
        f"dispatch(['holonomy-convergence', '--file', {str(conn)!r}])\n"
        "dispatch(['reduce-rank', '--n', '3', '--at', 'commuting'])\n"
        "loaded = [m for m in sys.modules if m == 'scipy' or m.startswith('scipy.')]\n"
        "assert not loaded, loaded\n"
    )
    subprocess.run([sys.executable, "-c", code], check=True)


def test_cocycle_and_holonomy_import_no_spaces():
    # the dimension bound lives in sun, which both verbs load anyway
    code = (
        "import sys\n"
        "from quasiham.cli import dispatch\n"
        "dispatch(['cocycle', '--n', '3', '--samples', '2'])\n"
        "dispatch(['holonomy-convergence', '--n', '2'])\n"
        "assert 'quasiham.spaces' not in sys.modules, 'a verb pulled in quasiham.spaces'\n"
    )
    subprocess.run([sys.executable, "-c", code], check=True)


def test_numerical_layer_loads_numpy_random_on_import():
    # every numerical verb draws from numpy.random, which numpy loads lazily;
    # its import belongs to loading the layer, not to the first verb's time
    code = (
        "import sys\n"
        "import quasiham.spaces\n"
        "assert 'numpy.random' in sys.modules, 'numpy.random is loaded by the first draw'\n"
    )
    subprocess.run([sys.executable, "-c", code], check=True)


def test_package_name_holonomy_is_the_submodule_in_every_process():
    # the function is quasiham.holonomy.holonomy; the package name is the
    # submodule in a fresh process and after a verb has loaded it
    code = (
        "import types\n"
        "from quasiham import holonomy\n"
        "assert isinstance(holonomy, types.ModuleType), holonomy\n"
        "assert callable(holonomy.holonomy)\n"
    )
    subprocess.run([sys.executable, "-c", code], check=True)
    dispatch(["holonomy-convergence"])
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
