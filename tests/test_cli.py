"""Command-line interface: determinism, exit codes, validation order."""

import contextlib
import hashlib
import io
import json
import os
import subprocess
import sys
import tracemalloc

import pytest
from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st

import ogzkit
from ogzkit import QQ, ModuleWindow, ParseError, Ring, SkewOperator
from ogzkit.cli import (
    MAX_CERTIFIED_POINTS,
    MAX_DDIFF_DEGREE,
    MAX_FUNCTION_EXPONENT,
    MAX_OPERATOR_EXPONENT,
    MAX_PARAMS,
    MAX_ROW_CELLS,
    MAX_SHAPE_CELLS,
    MAX_SHIFT,
    MAX_TOKEN_CHARS,
    MAX_WALK_COORDS,
    MAX_WALK_VALUE,
    _parse_shape,
    _parser,
    main,
    parse_expr,
    parse_op,
)

SPEC_R2 = {
    "lambda": [2, 1],
    "point": {
        "1,1": {"tag": 1, "offset": 0},
        "1,2": {"tag": 1, "offset": 0},
        "2,1": {"tag": 2, "offset": 0},
    },
    "radius": 2,
}


SPEC_R2_HALF = {
    "lambda": [2, 1],
    "point": {
        "1,1": {"tag": 1, "offset": "1/2"},
        "1,2": {"tag": 1, "offset": "1/2"},
        "2,1": {"tag": 2, "offset": -1},
    },
    "radius": 2,
}


def write_spec(tmp_path, spec, name="spec.json"):
    p = tmp_path / name
    p.write_text(json.dumps(spec))
    return str(p)


@pytest.fixture()
def spec_file(tmp_path):
    return write_spec(tmp_path, SPEC_R2)


def run(capsys, *argv):
    rc = main(list(argv))
    captured = capsys.readouterr()
    return rc, captured.out, captured.err


# ---------------------------------------------------------------------------
# apply


def test_apply_golden(capsys):
    rc, out, err = run(
        capsys, "apply", "--shape", "2,1", "--op", "E1", "--expr", "x[1,1]+x[1,2]"
    )
    assert rc == 0 and err == ""
    assert out == "x[1,1]+x[1,2]+1\n"


def test_apply_cubed_ladder_output_is_pinned(capsys):
    # 27 710 bytes of stdout, divided many times on the way: the division
    # kernel must leave every byte as it was
    rc, out, err = run(capsys, "apply", "--shape", "3,2", "--op", "E1^3", "--expr=x[1,1]")
    assert rc == 0 and err == ""
    assert len(out.encode()) == 27710
    assert hashlib.sha256(out.encode()).hexdigest() == (
        "e2e673e918e397ae70a01644e03ea3aa96f2da5e58ad042dc98404f5212fa827"
    )


def test_apply_commutator_zero(capsys):
    rc, out, _ = run(
        capsys,
        "apply",
        "--shape",
        "2,1",
        "--op",
        "E1*F1 - F1*E1",
        "--expr",
        "x[1,1]*x[1,2]",
    )
    assert rc == 0 and out == "0\n"


def test_apply_with_parameters(capsys):
    rc, out, _ = run(
        capsys,
        "apply",
        "--shape",
        "1,1",
        "--op",
        "phi[1,1]^-1",
        "--expr",
        "z[1]*x[1,1]",
        "--params",
        "1",
    )
    assert rc == 0 and out == "z[1]*x[1,1]-z[1]\n"


def test_apply_rerun_identical(capsys):
    args = ("apply", "--shape", "2,1", "--op", "gamma[1,2]", "--expr", "x[2,1]")
    rc1, out1, _ = run(capsys, *args)
    rc2, out2, _ = run(capsys, *args)
    assert rc1 == rc2 == 0
    assert out1 == out2


# ---------------------------------------------------------------------------
# exit codes and error envelopes


def error_payload(err):
    payload = json.loads(err.strip())
    return payload["error"]


def test_unknown_operator_exits_2(capsys):
    rc, out, err = run(capsys, "apply", "--shape", "2,1", "--op", "E9", "--expr", "1")
    assert rc == 2 and out == ""
    e = error_payload(err)
    assert e["code"] == 2 and e["type"] == "NameError"


def test_parse_error_exits_2(capsys):
    rc, _, err = run(capsys, "apply", "--shape", "2,1", "--op", "E1 +", "--expr", "1")
    assert rc == 2
    assert error_payload(err)["type"] == "ParseError"


def test_operator_division_rejected(capsys):
    rc, _, err = run(capsys, "apply", "--shape", "2,1", "--op", "1/E1", "--expr", "1")
    assert rc == 2
    assert error_payload(err)["type"] == "ParseError"


def test_out_of_range_variable_exits_2(capsys):
    rc, _, err = run(capsys, "apply", "--shape", "2,1", "--op", "E1", "--expr", "x[3,1]")
    assert rc == 2
    assert error_payload(err)["type"] == "NameError"


def test_degree_overflow_exits_2(capsys):
    # each factor is under the exponent cap, but the product's degree, 65 544,
    # passes the kernel's 16-bit exponent field
    expr = "*".join(["x[1,1]^24"] * 2731)
    rc, out, err = run(capsys, "apply", "--shape", "2,1", "--op", "gamma[2,1]", f"--expr={expr}")
    assert rc == 2 and out == ""
    assert len(err.splitlines()) == 1
    e = error_payload(err)
    assert e["code"] == 2 and e["type"] == "DegreeOverflow" and "overflows" in e["message"]
    # the largest degree that fits comes back exactly
    expr = "*".join(["x[1,1]^24"] * 2730 + ["x[1,1]^14"])
    rc, out, _ = run(capsys, "apply", "--shape", "2,1", "--op", "gamma[2,1]", f"--expr={expr}")
    assert rc == 0 and out == "x[1,1]^65534*x[2,1]\n"


def test_bad_setup_exits_3(capsys, tmp_path):
    spec = dict(SPEC_R2)
    spec["point"] = {
        "1,1": {"tag": 1, "offset": 0},
        "1,2": {"tag": 1, "offset": 1},
        "2,1": {"tag": 2, "offset": 0},
    }
    p = tmp_path / "bad.json"
    p.write_text(json.dumps(spec))
    rc, _, err = run(capsys, "basis", "--spec", str(p))
    assert rc == 3
    assert error_payload(err)["code"] == 3


def test_bad_setup_gives_one_payload_on_every_certified_command(capsys, tmp_path):
    spec = dict(SPEC_R2, point=dict(SPEC_R2["point"], **{"1,2": {"tag": 1, "offset": 1}}))
    path = write_spec(tmp_path, spec)
    payloads = []
    for argv in (["basis"], ["action", "--op", "E1"], ["blocks"], ["probe"]):
        rc, out, err = run(capsys, *argv, "--spec", path)
        assert rc == 3 and out == ""
        payloads.append(error_payload(err))
    assert payloads[0]["type"] == "InvalidSingularSetup"
    assert "integer offset gap" in payloads[0]["message"]
    assert all(p == payloads[0] for p in payloads)


def test_argparse_error_exits_2(capsys):
    assert main(["walk"]) == 2  # neither find nor validate arguments
    capsys.readouterr()
    assert main(["no-such-command"]) == 2
    capsys.readouterr()


def test_ddiff_compare_row_out_of_range_exits_2(capsys):
    rc, out, err = run(capsys, "ddiff-compare", "--shape", "2,1", "--row", "5", "--mu", "2")
    assert rc == 2 and out == ""
    assert len(err.splitlines()) == 1
    assert error_payload(err)["type"] == "ParseError"


def test_unwritable_out_path_exits_2(capsys, tmp_path):
    dest = tmp_path / "missing-dir" / "x"
    rc, out, err = run(capsys, "walk", "--start", "0,0", "--target", "1,1", "--out", str(dest))
    assert rc == 2 and out == ""
    assert len(err.splitlines()) == 1
    assert error_payload(err)["code"] == 2


def test_usage_error_is_one_json_line(capsys):
    # a leading minus makes argparse read the expression as an option
    rc, out, err = run(capsys, "apply", "--shape", "2,1", "--op", "E1", "--expr", "-9*x[1,1]")
    assert rc == 2 and out == ""
    assert len(err.splitlines()) == 1
    assert error_payload(err)["type"] == "ParseError"


@pytest.mark.parametrize("opt", ["--expr", "--params", "--shape", "--out"])
def test_option_value_of_double_dash_exits_2(capsys, opt):
    # argparse reads "--opt=--" as an empty list, not as the text "--"
    argv = {"--shape": "2,1", "--op": "E1", "--expr": "x[1,1]", opt: "--"}
    rc, out, err = run(capsys, "apply", *(f"{k}={v}" for k, v in argv.items()))
    assert rc == 2 and out == ""
    assert error_payload(err)["message"] == "an option value of '--' is not accepted"


@pytest.mark.parametrize(
    "argv",
    [
        ("ddiff-compare", "--shape", "2,1", "--row", "1", "--mu", "2", "--degree", "-1"),
        ("apply", "--shape", "2,1", "--op", "E1", "--expr", "x[1,1]", "--params", "-3"),
    ],
)
def test_negative_count_exits_2(capsys, argv):
    rc, out, err = run(capsys, *argv)
    assert rc == 2 and out == ""
    assert len(err.splitlines()) == 1
    assert error_payload(err)["type"] == "ParseError"


def test_help_exits_0(capsys):
    assert main(["--help"]) == 0
    capsys.readouterr()


def test_the_shared_parser_gives_what_a_fresh_one_gives(capsys, spec_file):
    # main builds its parser once per process; consecutive calls through it
    # must print and exit exactly as calls that each build a fresh parser
    calls = [
        ("apply", "--shape", "2,1", "--op", "E1", "--expr", "x[1,1]+x[1,2]"),
        ("walk", "--start", "0,0", "--target", "1,1"),
        ("apply", "--shape", "2,1", "--op", "E1", "--expr", "-9*x[1,1]"),
        ("--help",),
        ("apply", "--shape=2,1", "--op=E1", "--expr=--"),
        ("check-relations", "--shape", "2,1"),
        ("basis", "--spec", spec_file),
        ("walk",),
        ("apply", "--help"),
        ("ddiff-compare", "--shape", "2,1", "--row", "1", "--mu", "1,1", "--degree", "2"),
        ("apply", "--shape", "2,1", "--op", "F1", "--expr", "x[1,1]*x[1,2]"),
    ]
    shared = [run(capsys, *argv) for argv in calls]
    fresh = []
    for argv in calls:
        _parser.cache_clear()
        fresh.append(run(capsys, *argv))
    assert shared == fresh
    assert [rc for rc, _, _ in shared] == [0, 0, 2, 0, 2, 0, 0, 2, 0, 0, 0]


# ---------------------------------------------------------------------------
# jobspec validation happens before any computation


@pytest.mark.parametrize(
    "mutate",
    [
        lambda s: s.pop("point"),
        lambda s: s["point"].pop("1,1"),
        lambda s: s["point"].update({"9x": {"tag": 1, "offset": 0}}),
        lambda s: s["point"]["1,1"].update({"tag": 0}),
        lambda s: s["point"]["1,1"].update({"offset": 0.5}),
        lambda s: s.update({"radius": 0}),
        lambda s: s.update({"unexpected": 1}),
    ],
)
def test_jobspec_rejections(capsys, tmp_path, mutate):
    spec = json.loads(json.dumps(SPEC_R2))
    mutate(spec)
    p = tmp_path / "bad.json"
    p.write_text(json.dumps(spec))
    rc, _, err = run(capsys, "basis", "--spec", str(p))
    assert rc == 2
    assert error_payload(err)["type"] == "JobSpecError"


def test_jobspec_point_shape_mismatch(capsys, tmp_path):
    spec = json.loads(json.dumps(SPEC_R2))
    spec["point"]["1,3"] = {"tag": 1, "offset": 0}
    p = tmp_path / "bad.json"
    p.write_text(json.dumps(spec))
    rc, _, err = run(capsys, "basis", "--spec", str(p))
    assert rc == 2
    assert error_payload(err)["type"] == "JobSpecError"


@pytest.mark.parametrize("cell", ["3,1", "1,3"])
def test_jobspec_cell_outside_shape_is_named(capsys, tmp_path, cell):
    spec = json.loads(json.dumps(SPEC_R2))
    spec["point"][cell] = {"tag": 1, "offset": 0}
    rc, _, err = run(capsys, "basis", "--spec", write_spec(tmp_path, spec))
    assert rc == 2
    e = error_payload(err)
    assert e["type"] == "JobSpecError"
    assert e["message"] == f"cell ({cell.replace(',', ', ')}) is not a cell of the shape (2, 1)"


def test_jobspec_duplicate_cell_keys_are_named(capsys, tmp_path):
    # "01,1" and "1,1" both name cell (1, 1); neither may silently win
    spec = json.loads(json.dumps(SPEC_R2))
    spec["point"]["01,1"] = {"tag": 1, "offset": 5}
    rc, out, err = run(capsys, "basis", "--spec", write_spec(tmp_path, spec))
    assert rc == 2 and out == ""
    assert len(err.splitlines()) == 1
    e = error_payload(err)
    assert e["type"] == "JobSpecError"
    assert e["message"] == "job spec keys '1,1' and '01,1' both name cell (1, 1)"


# ---------------------------------------------------------------------------
# windowed commands


def test_basis_output(capsys, spec_file, tmp_path):
    for path, point in [
        (spec_file, "point x[1,1]=z[1];x[1,2]=z[1];x[2,1]=z[2]"),
        (write_spec(tmp_path, SPEC_R2_HALF, "half.json"),
         "point x[1,1]=z[1]+1/2;x[1,2]=z[1]+1/2;x[2,1]=z[2]-1"),
    ]:
        rc, out, _ = run(capsys, "basis", "--spec", path)
        assert rc == 0
        lines = out.splitlines()
        assert lines[0] == point
        assert "window_size 25" in lines
        assert "basis 25" in lines
        assert "rank_history 4,6,9,12,16,20,25,25" in lines


@pytest.mark.parametrize("den", [2**61 - 1, (2**61 - 1) * (2**89 - 1)], ids=["m61", "m61_m89"])
def test_offset_denominator_divisible_by_a_certificate_prime(capsys, tmp_path, den):
    # 2^61 - 1 divides a coefficient denominator, so the certificate and the
    # solve work modulo the next prime below it, with the generic rank history
    spec = json.loads(json.dumps(SPEC_R2))
    spec["point"]["2,1"]["offset"] = f"1/{den}"
    spec["radius"] = 1
    path = write_spec(tmp_path, spec)
    rc, out, _ = run(capsys, "basis", "--spec", path)
    assert rc == 0
    assert "rank_history 4,6,9,9" in out.splitlines()
    rc, out, _ = run(capsys, "action", "--spec", path, "--op", "E1", "--routes", "both")
    assert rc == 0
    assert "agree=yes" in out and "agree=NO" not in out
    rc, _, _ = run(capsys, "blocks", "--spec", path)
    assert rc == 0


def test_basis_rerun_identical(capsys, spec_file):
    rc1, out1, _ = run(capsys, "basis", "--spec", spec_file)
    rc2, out2, _ = run(capsys, "basis", "--spec", spec_file)
    assert rc1 == rc2 == 0 and out1 == out2


def test_action_both_routes(capsys, spec_file):
    rc, out, _ = run(
        capsys, "action", "--spec", spec_file, "--op", "E1", "--routes", "both"
    )
    assert rc == 0
    assert "boundary(skipped)" in out
    assert "agree=yes" in out and "agree=NO" not in out


def test_action_rerun_identical(capsys, spec_file):
    args = ("action", "--spec", spec_file, "--op", "gamma[1,2]", "--routes", "both")
    rc1, out1, _ = run(capsys, *args)
    rc2, out2, _ = run(capsys, *args)
    assert rc1 == rc2 == 0 and out1 == out2


@pytest.mark.parametrize("tok", ["Q7", "E2", "gamma[1,3]"])
def test_action_bad_generator_token(capsys, spec_file, monkeypatch, tok):
    # the token is checked before the window is built
    def no_build(*args, **kwargs):
        raise AssertionError("a window was built before the --op check")

    monkeypatch.setattr("ogzkit.cli.ModuleWindow", no_build)
    rc, out, err = run(capsys, "action", "--spec", spec_file, "--op", tok)
    assert rc == 2 and out == ""
    assert error_payload(err)["type"] == "ParseError"


@pytest.mark.parametrize("n", ["1", "0", "-1"])
def test_probe_max_visited_below_two_exits_2(capsys, spec_file, monkeypatch, n):
    # the bound is checked before the window is built
    def no_build(*args, **kwargs):
        raise AssertionError("a window was built before the --max-visited check")

    monkeypatch.setattr("ogzkit.cli.ModuleWindow", no_build)
    rc, out, err = run(capsys, "probe", "--spec", spec_file, f"--max-visited={n}")
    assert rc == 2 and out == ""
    assert len(err.strip().splitlines()) == 1
    assert error_payload(err)["type"] == "ParseError"


def test_blocks_output(capsys, spec_file):
    rc, out, _ = run(capsys, "blocks", "--spec", spec_file)
    assert rc == 0
    assert "socle" in out and "nilpotent ok" in out.replace("=", " ")


def test_graph_output(capsys, spec_file):
    rc, out, _ = run(capsys, "graph", "--spec", spec_file)
    assert rc == 0
    assert "components 1" in out
    rc, out, _ = run(capsys, "graph", "--spec", spec_file, "--dot")
    assert rc == 0 and "graph window {" in out


def test_probe_output(capsys, spec_file):
    rc, out, _ = run(capsys, "probe", "--spec", spec_file)
    assert rc == 0
    assert out.rstrip().endswith("probe PASS")


def test_window_commands_certify_only_where_the_family_is_read(capsys, spec_file, monkeypatch):
    # blocks, probe and the structural route read no family, so they certify
    # nothing; basis prints the certificate and the solve route reads the
    # family, so each certifies once
    unread = [["blocks"], ["probe"], ["action", "--routes", "structural", "--op", "E1"]]
    outputs = [run(capsys, *argv, "--spec", spec_file) for argv in unread]
    certify, calls = ModuleWindow.certify_rank, []

    def refuse(self):
        raise AssertionError("certify_rank ran for a command that reads no family")

    monkeypatch.setattr(ModuleWindow, "certify_rank", refuse)
    for argv, (rc, out, err) in zip(unread, outputs):
        assert rc == 0 and err == ""
        assert run(capsys, *argv, "--spec", spec_file) == (rc, out, err), argv

    def counted(self):
        calls.append(self)
        return certify(self)

    monkeypatch.setattr(ModuleWindow, "certify_rank", counted)
    for argv in [["basis"]] + [["action", "--routes", r, "--op", "E1"] for r in ("solve", "both")]:
        calls.clear()
        assert run(capsys, *argv, "--spec", spec_file)[0] == 0
        assert len(calls) == 1, argv


# the 2,2,1 point has two doubled rows, the 4,1 point one quadrupled row
WINDOW_SPECS = {
    "r2": SPEC_R2,
    "r2-half": SPEC_R2_HALF,
    "2,2,1-two-doubled": {
        "lambda": [2, 2, 1],
        "point": {
            "1,1": {"tag": 1, "offset": 0},
            "1,2": {"tag": 1, "offset": 0},
            "2,1": {"tag": 2, "offset": 0},
            "2,2": {"tag": 2, "offset": 0},
            "3,1": {"tag": 3, "offset": 0},
        },
        "radius": 1,
    },
    "4,1-quadruple": {
        "lambda": [4, 1],
        "point": {
            **{f"1,{j}": {"tag": 1, "offset": 0} for j in range(1, 5)},
            "2,1": {"tag": 2, "offset": 0},
        },
        "radius": 1,
    },
}

# sha256 of stdout, recorded when every window command still certified its
# window first
WINDOW_OUTPUT_SHA256 = {
    ("r2", "basis"):
        "9abe80938b4cce49a29e6c6abcc0dff0116fc114e5df51d72b0e5a9ba410c8ee",
    ("r2", "action --routes both --op E1"):
        "a99df0b1df80f30618e1473e7750529516f364603060bdce87bf6621468fed60",
    ("r2", "action --routes both --op F1"):
        "33283e98f979b6a22d78c623371c3a58afc9bbb7d9cf202e50aed31868b9b385",
    ("r2", "action --routes both --op gamma[1,1]"):
        "5250cd848a08b3591418d4e0ef7b36d0112d9856478e7bb8978b5ec681d42daa",
    ("r2", "action --routes both --op gamma[1,2]"):
        "1bdc43c852f17415bc5054949202a453b3e3707f0cdd053b916eb416c0ce9c40",
    ("r2", "blocks"):
        "819247c7f4fbd28aa2054e24f01b9005d169f70bb8c31082a576130b1b5f52bf",
    ("r2", "probe"):
        "9f5c8986e8176a30752ba2a9cbbf28e3658473999d87ef33982f1923de7c28b7",
    ("r2-half", "basis"):
        "1d5acea95d653897410a3b3e0b9c7af8c445454be067fc9bc6086939f97b445c",
    ("r2-half", "action --routes both --op E1"):
        "4f1958db2de36e2783a96ab0fff42631bf81df5ece4ecb13806b6cebf7a6e7e6",
    ("r2-half", "action --routes both --op F1"):
        "132db39763d67c0f0609a438fc12175ea8b5e0d81c169670ae2b9d86d7896c24",
    ("r2-half", "action --routes both --op gamma[1,1]"):
        "ed688e719e88b6d1441495b72071516985e9ff02dacce94850a11833bd389f3b",
    ("r2-half", "action --routes both --op gamma[1,2]"):
        "9aee020ca81a160d1852f4d2d47f22d12ceffcd4c488192d3d8e63adc2dec15f",
    ("r2-half", "blocks"):
        "776eeae0233001ccf03d349e6deceb2c071681ff7e1af45279031749bdc389cd",
    ("r2-half", "probe"):
        "c117b8a72fd688bae0d4de006ea46ec544852f39dcdc76b2981788d738b356ed",
    ("2,2,1-two-doubled", "blocks"):
        "19df3b75999a9e96437e209fd0b556fec561ea9e4de25c0f468c3de0c7cac45a",
    ("2,2,1-two-doubled", "probe"):
        "943c797681c0959ffd21816b9240bc1cbd79300ef045254964f43601d1334a05",
    ("4,1-quadruple", "blocks"):
        "587aa28dfeda88fb8d9c84e6495bc4bae50f79a3f7752f4836daffc530cf0a79",
    ("4,1-quadruple", "probe"):
        "abe67657c712698dc033aa278364f8893d2546f81bff8e863bfdffdf00dac25a",
}


def test_window_outputs_are_pinned(capsys, tmp_path):
    for (name, command), digest in WINDOW_OUTPUT_SHA256.items():
        path = write_spec(tmp_path, WINDOW_SPECS[name], f"{name}.json")
        rc, out, err = run(capsys, *command.split(), "--spec", path)
        assert rc == 0 and err == ""
        assert hashlib.sha256(out.encode()).hexdigest() == digest, (name, command)


# ---------------------------------------------------------------------------
# relation battery / form comparison


def test_check_relations_minimal(capsys):
    rc, out, _ = run(capsys, "check-relations", "--shape", "1,1")
    assert rc == 0
    assert "checked=4 failed=0" in out
    assert "FAIL" not in out


def test_ddiff_compare(capsys):
    rc, out, _ = run(capsys, "ddiff-compare", "--shape", "2,1", "--row", "1", "--mu", "2")
    assert rc == 0
    assert "verdict=ok" in out and "mismatches=0" in out


# ---------------------------------------------------------------------------
# walks


def test_walk_find(capsys):
    rc, out, _ = run(capsys, "walk", "--start", "0,0,0,0", "--target", "2,2,1,1")
    assert rc == 0
    lines = out.splitlines()
    assert lines[0] == "(0,0,0,0) -1-> (1,0,0,0)"
    assert lines[-1].startswith("steps ")
    assert "all_ok yes" in lines[-1]


@pytest.mark.parametrize(
    "start, target",
    [
        ("0,0", f"0,{MAX_WALK_VALUE + 1}"),
        (f"-{MAX_WALK_VALUE + 1},0", "0,0"),
        (",".join(["0"] * (MAX_WALK_COORDS + 1)), ",".join(["1"] * (MAX_WALK_COORDS + 1))),
    ],
)
def test_walk_endpoint_over_the_cap_exits_2(capsys, start, target):
    rc, out, err = run(capsys, "walk", f"--start={start}", f"--target={target}")
    assert rc == 2 and out == ""
    assert len(err.splitlines()) == 1
    assert "exceeds the cap" in error_payload(err)["message"]


@pytest.mark.parametrize(
    "start, target",
    [
        ("0,0", "1,0"),  # one arrow, splitting the equal-start class
        ("0,0,1,1", "2,2,0,0"),
        ("1,1,1,0", "0,2,2,2"),
        ("2,0,2,0,1", "1,1,3,3,1"),
        ("4,4,4", "4,4,4"),
    ],
)
def test_walk_output_matches_the_classifying_render(capsys, start, target):
    from ogzkit import find_path, render_walk

    walk = find_path(tuple(map(int, start.split(","))), tuple(map(int, target.split(","))))
    body = render_walk(walk) if len(walk) > 1 else "(empty walk)"
    rc, out, _ = run(capsys, "walk", "--start", start, "--target", target)
    assert rc == 0
    assert out == body + f"\nsteps {len(walk) - 1} all_ok yes\n"


def test_walk_validate_file(capsys, tmp_path):
    from ogzkit import render_walk
    from test_latwalk import REFERENCE_LABELS, REFERENCE_STATES

    p = tmp_path / "walk.txt"
    p.write_text(render_walk(REFERENCE_STATES, REFERENCE_LABELS) + "\n")
    rc, out, _ = run(capsys, "walk", "--validate", str(p))
    assert rc == 0
    assert "FLAG(repeated state, not a move)" in out
    assert out.count("FLAG") == 1


def test_walk_validate_accepts_saved_search(capsys, tmp_path):
    p = tmp_path / "found.txt"
    rc, out, _ = run(
        capsys, "walk", "--start", "0,0,0,0", "--target", "2,1,1,0", "--out", str(p)
    )
    assert rc == 0 and out == ""
    rc, out, _ = run(capsys, "walk", "--validate", str(p))
    assert rc == 0
    assert "all_ok yes" in out.splitlines()[-1]
    assert "FLAG" not in out


def test_walk_rerun_identical(capsys):
    args = ("walk", "--start", "0,0,0", "--target", "2,1,0")
    rc1, out1, _ = run(capsys, *args)
    rc2, out2, _ = run(capsys, *args)
    assert rc1 == rc2 == 0 and out1 == out2


# ---------------------------------------------------------------------------
# --out writes the same bytes to a file


def test_out_flag(capsys, tmp_path):
    dest = tmp_path / "result.txt"
    rc, out, _ = run(
        capsys,
        "apply",
        "--shape",
        "2,1",
        "--op",
        "E1",
        "--expr",
        "x[1,1]+x[1,2]",
        "--out",
        str(dest),
    )
    assert rc == 0 and out == ""
    assert dest.read_text() == "x[1,1]+x[1,2]+1\n"


# ---------------------------------------------------------------------------
# expression parser round trips


@st.composite
def poly_strategy(draw):
    ring = Ring((2, 1), 1)
    gens = [ring.x(1, 1), ring.x(1, 2), ring.x(2, 1), ring.z(1)]
    out = ring.zero()
    for _ in range(draw(st.integers(min_value=1, max_value=4))):
        term = ring.const(
            QQ(draw(st.integers(min_value=-9, max_value=9)), draw(st.integers(min_value=1, max_value=5)))
        )
        for _ in range(draw(st.integers(min_value=0, max_value=3))):
            term = term * gens[draw(st.integers(min_value=0, max_value=3))]
        out = out + term
    return out


@settings(max_examples=80, deadline=None)
@given(poly_strategy())
def test_parser_roundtrips_rendered_polynomials(p):
    ring = Ring((2, 1), 1)
    rf = parse_expr(ring, str(p))
    assert rf.is_polynomial() and rf.polynomial_part() == p


@settings(max_examples=40, deadline=None)
@given(poly_strategy(), poly_strategy())
def test_parser_roundtrips_rendered_rationals(num, den):
    from ogzkit import RationalFunction

    if den.is_zero():
        den = den.ring.one()
    ring = Ring((2, 1), 1)
    rf = RationalFunction.normalize(num, den)
    assert parse_expr(ring, str(rf)) == rf


def test_parse_op_accepts_scalar_as_multiplication():
    ring = Ring((2, 1), 0)
    op = parse_op(ring, "x[1,1]+1")
    assert op.is_multiplication()


# ---------------------------------------------------------------------------
# resource caps: each guard at cap + 1 refuses before any computation


@pytest.mark.parametrize(
    "argv, phrase",
    [
        (
            ["ddiff-compare", "--shape", "2,1", "--row", "1", "--mu", "1,1",
             "--degree", str(MAX_DDIFF_DEGREE + 1)],
            f"above the cap of {MAX_DDIFF_DEGREE}",
        ),
        (
            ["apply", "--shape", "2,1", "--op", "E1",
             f"--expr=x[1,1]^{MAX_FUNCTION_EXPONENT + 1}"],
            f"power {MAX_FUNCTION_EXPONENT + 1}, above the cap",
        ),
        (
            ["apply", "--shape", "2,1", "--op", "E1",
             f"--expr=(x[1,1]^{MAX_FUNCTION_EXPONENT + 1})^1"],
            f"power {MAX_FUNCTION_EXPONENT + 1}, above the cap",
        ),
        (
            ["apply", "--shape", "2,1", "--op", f"E1^{MAX_OPERATOR_EXPONENT + 1}",
             "--expr=x[1,1]"],
            f"power {MAX_OPERATOR_EXPONENT + 1}, above the cap",
        ),
        (
            ["apply", "--shape", "2,1", "--op", f"(E1*F1)^{MAX_OPERATOR_EXPONENT + 1}",
             "--expr=x[1,1]"],
            f"power {MAX_OPERATOR_EXPONENT + 1}, above the cap",
        ),
        (
            ["apply", "--shape", "2,1", "--op", "E1", f"--expr={'9' * (MAX_TOKEN_CHARS + 1)}"],
            f"above the cap of {MAX_TOKEN_CHARS}",
        ),
        (
            ["apply", "--shape", "2,1", "--op", "E1^2*E1^2*E1", "--expr=x[1,1]"],
            f"composition of {MAX_OPERATOR_EXPONENT + 1} factors, above the cap",
        ),
        (
            ["apply", "--shape", "2,1", "--op", "x[1,1]*(E1+F1)^2*E1*(F1-1)*E1",
             "--expr=x[1,1]"],
            f"composition of {MAX_OPERATOR_EXPONENT + 1} factors, above the cap",
        ),
        (
            ["apply", "--shape", "2,1", "--op", f"phi[1,1]^-{MAX_SHIFT + 1}", "--expr=x[1,1]"],
            f"shifts by more than the cap of {MAX_SHIFT}",
        ),
        (
            ["apply", "--shape", "2,1", "--op", f"phi[1,1]^{'9' * 200}", "--expr=x[1,1]^24"],
            f"shifts by more than the cap of {MAX_SHIFT}",
        ),
    ],
)
def test_input_over_a_resource_cap_exits_2(capsys, argv, phrase):
    rc, out, err = run(capsys, *argv)
    assert rc == 2 and out == ""
    assert len(err.splitlines()) == 1
    assert phrase in error_payload(err)["message"]


def test_shift_at_the_cap(capsys):
    rc, out, err = run(capsys, "apply", "--shape", "1,1", "--op", f"phi[1,1]^-{MAX_SHIFT}", "--expr=x[1,1]")
    assert rc == 0 and err == ""
    assert out == f"x[1,1]-{MAX_SHIFT}\n"


NINES = "9" * 999  # the longest literal under the token cap


def assert_too_large_to_print(rc, out, err):
    # Python converts no integer of more than 4300 digits to text
    assert rc == 2 and out == ""
    assert len(err.splitlines()) == 1
    assert "too large to print" in error_payload(err)["message"]


@pytest.mark.parametrize("expr", [f"({NINES})^5", "*".join([NINES] * 5)])
def test_result_too_large_to_print_exits_2(capsys, expr):
    assert_too_large_to_print(*run(capsys, "apply", "--shape", "2,1", "--op", "E1", f"--expr={expr}"))


def test_eigenvalue_too_large_to_print_exits_2(capsys, tmp_path):
    # e_2 of a doubled offset of 3000 digits has 6000
    spec = json.loads(json.dumps(dict(SPEC_R2, radius=1)))
    for cell in ("1,1", "1,2"):
        spec["point"][cell]["offset"] = "9" * 3000
    assert_too_large_to_print(*run(capsys, "blocks", "--spec", write_spec(tmp_path, spec)))


@pytest.mark.parametrize("expr", ["(" * 600 + "x[1,1]" + ")" * 600, "-" * 2000 + "x[1,1]"])
def test_deeply_nested_expression_exits_2(capsys, expr):
    rc, out, err = run(capsys, "apply", "--shape", "2,1", "--op", "E1", f"--expr={expr}")
    assert rc == 2 and out == ""
    assert error_payload(err)["message"] == "expression nested too deeply"


def test_recursion_limits_of_the_expression_parser():
    # four frames per nesting level (expr, term, factor, base) and two per
    # unary minus, measured from the CLI's own entry point in a fresh
    # interpreter; a flat sum is one node and costs no depth
    exprs = [
        "(" * 245 + "x[1,1]" + ")" * 245,
        "(" * 250 + "x[1,1]" + ")" * 250,
        "-" * 400 + "x[1,1]",
        "-" * 600 + "x[1,1]",
        "+".join(["x[1,1]"] * 20000),
    ]
    script = (
        "import contextlib, io, sys\n"
        "from ogzkit.cli import main\n"
        "for expr in sys.stdin.read().split():\n"
        "    with contextlib.redirect_stdout(io.StringIO()), "
        "contextlib.redirect_stderr(io.StringIO()):\n"
        "        rc = main(['apply', '--shape', '2,1', '--op', 'E1', '--expr=' + expr])\n"
        "    print(rc)\n"
    )
    src = os.path.dirname(os.path.dirname(ogzkit.__file__))
    path = [src, os.environ.get("PYTHONPATH")]
    env = dict(os.environ, PYTHONPATH=os.pathsep.join(filter(None, path)))
    done = subprocess.run(
        [sys.executable, "-c", script], input="\n".join(exprs),
        capture_output=True, text=True, env=env, timeout=300,
    )
    assert done.returncode == 0, done.stderr
    assert done.stdout.split() == ["0", "2", "0", "2", "0"]


@pytest.mark.parametrize(
    "text", ["E1^4*E1", "E1^2*E1^2*E1", "x[1,1]*(E1+F1)^2*E1*(F1-1)*E1", "(E1^0)^5"]
)
def test_refusal_composes_nothing(monkeypatch, text):
    calls = []
    compose = SkewOperator.__matmul__

    def counting(self, other):
        calls.append(text)
        return compose(self, other)

    monkeypatch.setattr(SkewOperator, "__matmul__", counting)
    ring = Ring((2, 1), 0)
    with pytest.raises(ParseError, match="above the cap"):
        parse_op(ring, text)
    assert calls == []
    parse_op(ring, "E1^4")  # the counter counts: three compositions
    assert len(calls) == 3


def test_nested_and_chained_exponents_multiply():
    ring = Ring((2, 1), 0)
    n = MAX_FUNCTION_EXPONENT // 2 + 1  # under the cap, but 2 * n is over it
    assert parse_expr(ring, "(x[1,1]^2)^3") == parse_expr(ring, "x[1,1]^6")
    parse_expr(ring, f"(x[1,1]+1)^{n}")
    for text in [f"(x[1,1]^2)^{n}", f"x[1,1]^2^{n}", f"((x[1,1]+1)^2*3)^{n}"]:
        with pytest.raises(ParseError, match="above the cap"):
            parse_expr(ring, text)
    m = MAX_OPERATOR_EXPONENT // 2 + 1
    assert parse_op(ring, "(E1^2)^2") == parse_op(ring, "E1*E1*E1*E1")
    parse_op(ring, f"E1^{m}")
    for text in [f"(E1^2)^{m}", f"E1^2^{m}", f"-(x[1,1]^2*E1)^{MAX_OPERATOR_EXPONENT + 1}"]:
        with pytest.raises(ParseError, match="above the cap"):
            parse_op(ring, text)


# ---------------------------------------------------------------------------
# job-spec values that used to end in a traceback with exit 1


@pytest.mark.parametrize("cmd", ["basis", "graph"])
@pytest.mark.parametrize("field, value", [("radius", 1), ("params", 6)])
def test_jobspec_integral_floats_read_as_integers(capsys, tmp_path, cmd, field, value):
    # JSON Schema counts 1.0 as an integer, so the spec must read it as one
    # (the float spec runs first: a ring built for the integer would be
    # found again under the equal float key)
    spec = dict(SPEC_R2, radius=1)
    spec[field] = float(value)
    got = run(capsys, cmd, "--spec", write_spec(tmp_path, spec, "float.json"))
    spec[field] = value
    want = run(capsys, cmd, "--spec", write_spec(tmp_path, spec))
    assert want[0] == 0 and got == want


@pytest.mark.parametrize(
    "argv", [["basis"], ["action", "--op", "E1"], ["blocks"], ["probe"], ["graph", "--dot"]]
)
def test_jobspec_window_over_the_cap_exits_2(capsys, tmp_path, argv):
    spec = write_spec(tmp_path, dict(SPEC_R2, radius=400))
    rc, out, err = run(capsys, argv[0], "--spec", spec, *argv[1:])
    assert rc == 2 and out == ""
    e = error_payload(err)
    assert e["type"] == "JobSpecError" and "more points than the cap" in e["message"]


@pytest.mark.parametrize("argv", [["basis"], ["action", "--op", "E1"], ["blocks"], ["probe"]])
def test_certified_window_over_its_cap_exits_2(capsys, tmp_path, monkeypatch, argv):
    # radius 5 on (2,1) has 121 points: under MAX_WINDOW_POINTS but over the
    # cap of a certified window, so it is refused before any window is built
    def no_build(*args, **kwargs):
        raise AssertionError("a window over the certified cap was built")

    monkeypatch.setattr("ogzkit.cli.ModuleWindow", no_build)
    monkeypatch.setattr("ogzkit.cli.build_basis_B", no_build)
    spec = write_spec(tmp_path, dict(SPEC_R2, radius=5))
    rc, out, err = run(capsys, argv[0], "--spec", spec, *argv[1:])
    assert rc == 2 and out == ""
    e = error_payload(err)
    assert e["type"] == "JobSpecError"
    assert f"more points than the cap of {MAX_CERTIFIED_POINTS}" in e["message"]


def test_jobspec_huge_row_is_refused_without_listing_its_cells(capsys, tmp_path):
    spec = json.loads(json.dumps(SPEC_R2))
    spec["lambda"] = [2, 10**6]
    path = write_spec(tmp_path, spec)
    tracemalloc.start()
    try:
        rc, out, err = run(capsys, "basis", "--spec", path)
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert rc == 2 and out == ""
    assert error_payload(err)["message"] == "missing value for cell (2, 2)"
    assert peak < 4 * 2**20


# ---------------------------------------------------------------------------
# the parameter count: every parameter is a slot of every monomial


@pytest.mark.parametrize(
    "argv",
    [
        ["--params", str(MAX_PARAMS + 1), "--op", "E1", "--expr=1"],
        ["--op", "E1", f"--expr=z[{MAX_PARAMS + 1}]"],
        ["--op", f"z[{MAX_PARAMS + 1}]*E1", "--expr=1"],
        ["--op", "E1", "--expr=z[99999999]"],
    ],
)
def test_apply_parameter_count_over_the_cap_exits_2(capsys, argv):
    rc, out, err = run(capsys, "apply", "--shape", "2,1", *argv)
    assert rc == 2 and out == ""
    e = error_payload(err)
    assert e["type"] == "ParseError" and f"above the cap of {MAX_PARAMS}" in e["message"]


def test_apply_parameter_index_too_long_for_int_exits_2(capsys):
    # int() refuses more than 4300 digits; the token cap comes first
    rc, out, err = run(capsys, "apply", "--shape", "2,1", "--op", "E1", f"--expr=z[{'9' * 5000}]")
    assert rc == 2 and out == ""
    assert f"above the cap of {MAX_TOKEN_CHARS}" in error_payload(err)["message"]


def test_apply_parameter_count_at_the_cap(capsys):
    rc, out, _ = run(
        capsys, "apply", "--shape", "2,1", "--op", "gamma[2,1]", f"--expr=z[{MAX_PARAMS}]"
    )
    assert rc == 0 and out == f"z[{MAX_PARAMS}]*x[2,1]\n"


@pytest.mark.parametrize(
    "mutate",
    [
        lambda s: s.update({"params": MAX_PARAMS + 1}),
        lambda s: s["point"]["2,1"].update({"tag": MAX_PARAMS + 1}),
        lambda s: s["point"]["2,1"].update({"tag": 10**8}),
    ],
)
def test_jobspec_parameter_count_over_the_cap_exits_2(capsys, tmp_path, mutate):
    spec = json.loads(json.dumps(SPEC_R2))
    mutate(spec)
    rc, out, err = run(capsys, "basis", "--spec", write_spec(tmp_path, spec))
    assert rc == 2 and out == ""
    e = error_payload(err)
    assert e["type"] == "JobSpecError" and f"above the cap of {MAX_PARAMS}" in e["message"]


@pytest.mark.parametrize(
    "argv",
    [["basis"], ["action", "--op", "E1", "--routes", "both"], ["blocks"], ["probe"], ["graph", "--dot"]],
)
def test_jobspec_params_change_no_output(capsys, tmp_path, argv):
    # params is read and held to the cap, but a window's ring takes its
    # parameters from the tags of the point alone
    outs = []
    for params in (None, 5, MAX_PARAMS):
        spec = dict(SPEC_R2, radius=1)
        if params is not None:
            spec["params"] = params
        outs.append(run(capsys, argv[0], "--spec", write_spec(tmp_path, spec), *argv[1:]))
    assert outs[0][0] == 0 and outs[0][1] and outs[1:] == [outs[0]] * 2


def test_apply_params_change_no_output(capsys):
    argv = ["apply", "--shape", "2,1", "--op", "E1", "--expr", "z[1]*x[1,1]"]
    outs = [run(capsys, *argv, *params) for params in ([], ["--params", "4"], ["--params", str(MAX_PARAMS)])]
    want = "(z[1]*x[1,1]^2-z[1]*x[1,1]*x[1,2]+z[1]*x[1,1]-z[1]*x[2,1])/(x[1,1]-x[1,2])\n"
    assert outs[0] == (0, want, "") and outs[1:] == [outs[0]] * 2


# ---------------------------------------------------------------------------
# the shape: one short token could ask for a row or a cell count whose ring
# arithmetic never ends


SHAPES_IN_USE = ["1,1", "1,2", "2,1", "3,1", "4,1", "3,2", "1,2,1", "2,2,1", "1,2,3", "3,2,1", "1,2,3,1"]


def test_shape_caps_admit_every_shape_in_use():
    assert [_parse_shape(text) for text in SHAPES_IN_USE] == [
        tuple(int(t) for t in text.split(",")) for text in SHAPES_IN_USE
    ]


@pytest.mark.parametrize(
    "argv",
    [
        ["check-relations", "--shape", "16"],
        ["check-relations", "--shape", "6,6"],
        ["check-relations", "--shape", "4,4"],
        ["check-relations", "--shape", "1,2,3,4"],
        ["apply", "--shape", "8,1", "--op", "E1", "--expr=x[1,1]"],
        ["apply", "--shape", "12,1", "--op", "E1", "--expr=x[1,1]"],
        ["apply", "--shape", "30", "--op", "gamma[1,15]", "--expr=1"],
        ["ddiff-compare", "--shape", "8,1", "--row", "1", "--mu", "8", "--degree", "2"],
        ["apply", "--shape", str(10**6), "--op", "E1", "--expr=1"],
    ],
)
def test_shape_over_the_cap_exits_2_before_any_arithmetic(capsys, monkeypatch, argv):
    def no_ring(*args, **kwargs):
        raise AssertionError("a ring was built for a shape over the cap")

    monkeypatch.setattr("ogzkit.cli.Ring", no_ring)
    rc, out, err = run(capsys, *argv)
    assert rc == 2 and out == ""
    e = error_payload(err)
    assert e["type"] == "ParseError"
    assert f"above the cap of {MAX_ROW_CELLS} cells in a row and {MAX_SHAPE_CELLS} in all" in e["message"]


def spec_with_a_long_top_row(n):
    # a 3-point window: only the one cell of row 1 moves
    point = {"1,1": {"tag": 1, "offset": 0}}
    point.update({f"2,{j}": {"tag": 2, "offset": j} for j in range(1, n + 1)})
    return {"lambda": [1, n], "point": point, "radius": 1}


@pytest.mark.parametrize("argv", [["basis"], ["action", "--op", "E1"], ["blocks"], ["probe"]])
def test_jobspec_shape_over_the_cap_exits_2_before_any_arithmetic(capsys, tmp_path, monkeypatch, argv):
    def no_build(*args, **kwargs):
        raise AssertionError("a ring or window was built for a shape over the cap")

    for name in ("ModuleWindow", "build_basis_B", "Generators"):
        monkeypatch.setattr(f"ogzkit.cli.{name}", no_build)
    spec = write_spec(tmp_path, spec_with_a_long_top_row(30))
    rc, out, err = run(capsys, argv[0], "--spec", spec, *argv[1:])
    assert rc == 2 and out == ""
    e = error_payload(err)
    assert e["type"] == "JobSpecError" and "shape (1,30) is above the cap" in e["message"]


def test_graph_lays_out_a_shape_over_the_cap(capsys, tmp_path):
    # graph does no ring arithmetic, so only the point caps hold for it
    rc, out, _ = run(capsys, "graph", "--spec", write_spec(tmp_path, spec_with_a_long_top_row(30)))
    assert rc == 0 and "vertices 3\n" in out


# ---------------------------------------------------------------------------
# the CLI contract under fuzzing: exit 0, 2 or 3, and on an error an empty
# stdout and exactly one JSON line on stderr whose code is the exit code


def run_quiet(*argv):
    out, err = io.StringIO(), io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        rc = main(list(argv))
    return rc, out.getvalue(), err.getvalue()


def assert_contract(rc, out, err):
    assert rc in (0, 2, 3)
    if rc:
        assert out == ""
        lines = err.splitlines()
        assert len(lines) == 1
        assert json.loads(lines[0])["error"]["code"] == rc


# any JSON value; the integers stay at or below 2 (or far over every cap), so
# that no valid radius above 2 is kept
ANY_JSON = st.one_of(
    st.integers(min_value=-2, max_value=2),
    st.just(10**6),
    st.sampled_from([0.0, 1.0, 2.0, 0.5, -1.0, 1e300]),
    st.booleans(),
    st.none(),
    st.sampled_from(["", "1", "1/2", "-3", "1/0", "x", "2.5"]),
    st.lists(st.integers(min_value=0, max_value=2), max_size=2),
    st.dictionaries(st.just("tag"), st.integers(min_value=0, max_value=2), max_size=1),
)


@settings(
    max_examples=150,
    deadline=None,
    suppress_health_check=[HealthCheck.function_scoped_fixture],
)
@given(
    field=st.sampled_from(["radius", "params", "lambda", "tag", "offset"]),
    where=st.sampled_from(["1,1", "1,2", "2,1"]),
    value=ANY_JSON,
)
def test_jobspec_fuzz_keeps_the_cli_contract(tmp_path, field, where, value):
    spec = json.loads(json.dumps(dict(SPEC_R2, radius=1)))
    if field in ("radius", "params"):
        spec[field] = value
    elif field == "lambda":
        spec["lambda"][int(where[0]) - 1] = value
    else:
        spec["point"][where][field] = value
    path = write_spec(tmp_path, spec)
    for argv in (["graph", "--dot"], ["basis"]):
        assert_contract(*run_quiet(*argv, "--spec", path))


APPLY_TOKENS = [
    "x[1,1]", "x[1,2]", "x[2,1]", "x[3,1]", "z[1]", "z[2]", "E1", "F1", "E2",
    "gamma[1,2]", "gamma[2,1]", "phi[1,1]", "phi[1,1]^-1", "partial[1,1]",
    "0", "1", "2", "5", "25", "+", "-", "*", "/", "^", "^2", "^5", "(", ")", " ",
    f"phi[1,1]^{'9' * 200}", NINES,
]
APPLY_TEXT = st.lists(st.sampled_from(APPLY_TOKENS), max_size=8).map("".join)


@settings(max_examples=300, deadline=None)
@given(shape=st.sampled_from(["2,1", "1,1", "1,2"]), op=APPLY_TEXT, expr=APPLY_TEXT)
def test_apply_fuzz_keeps_the_cli_contract(shape, op, expr):
    assert_contract(*run_quiet("apply", "--shape", shape, f"--op={op}", f"--expr={expr}"))
