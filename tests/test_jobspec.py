"""Job specs are read with the standard library alone.  Each schema fault is
reported in the words, and chosen by the rule, of jsonschema 4.26; a file
that cannot be read, or that repeats a key, keeps the CLI contract."""

import json
import os
import random
import subprocess
import sys
from pathlib import Path

import pytest

import ogzkit
from ogzkit.cli import load_jobspec, main
from ogzkit.errors import JobSpecError

SPEC = {
    "lambda": [2, 1],
    "point": {
        "1,1": {"tag": 1, "offset": 0},
        "1,2": {"tag": 1, "offset": 0},
        "2,1": {"tag": 2, "offset": 0},
    },
    "radius": 1,
}
DROP = object()
NAN, INF = float("nan"), float("inf")


def mutated(changes: dict):
    """A copy of SPEC with each ``"a/b/c": value`` set (or dropped); the key
    ``""`` replaces the whole spec."""
    spec = json.loads(json.dumps(SPEC))
    for where, value in changes.items():
        if where == "":
            spec = value
            continue
        *parents, last = where.split("/")
        node = spec
        for p in parents:
            node = node[int(p) if isinstance(node, list) else p]
        if isinstance(node, list):
            last = int(last)
        if value is DROP:
            del node[last]
        else:
            node[last] = value
    return spec


def run(capsys, *argv):
    rc = main(list(argv))
    captured = capsys.readouterr()
    return rc, captured.out, captured.err


def error_line(message: str) -> str:
    payload = {"error": {"code": 2, "message": message, "type": "JobSpecError"}}
    return json.dumps(payload, sort_keys=True) + "\n"


# the stderr message of basis on each spec, as jsonschema 4.26 chose and
# worded it
GOLDEN = [
    ({"": [2, 1]}, "(root): [2, 1] is not of type 'object'"),
    ({"": {}}, "(root): 'lambda' is a required property"),
    ({"radius": DROP, "extra": 1}, "(root): 'radius' is a required property"),
    (
        {"zeta": 1, "alpha": 2},
        "(root): Additional properties are not allowed ('alpha', 'zeta' were unexpected)",
    ),
    (
        {"radius": False, "point/2,1/tag": -3.5, "extra": None},
        "(root): Additional properties are not allowed ('extra' was unexpected)",
    ),
    ({"lambda": "2,1"}, "lambda: '2,1' is not of type 'array'"),
    ({"lambda": []}, "lambda: [] should be non-empty"),
    ({"lambda/0": 0, "lambda/1": 0}, "lambda/1: 0 is less than the minimum of 1"),
    ({"lambda/0": True}, "lambda/0: True is not of type 'integer'"),
    ({"lambda/0": NAN}, "lambda/0: nan is not of type 'integer'"),
    ({"lambda/1": 0.5}, "lambda/1: 0.5 is not of type 'integer'"),
    ({"lambda/1": -1.5}, "lambda/1: -1.5 is not of type 'integer'"),
    ({"lambda": "x", "radius": 0}, "radius: 0 is less than the minimum of 1"),
    ({"point/1,1/tag": 0, "radius": 0}, "radius: 0 is less than the minimum of 1"),
    ({"point": []}, "point: [] is not of type 'object'"),
    (
        {"point/9x": 1, "point/a": 2},
        "point: '9x', 'a' do not match any of the regexes: '^\\\\d+,\\\\d+$'",
    ),
    ({"point/9x": {"tag": 0}}, "point: '9x' does not match any of the regexes: '^\\\\d+,\\\\d+$'"),
    ({"point/1,1": 5}, "point/1,1: 5 is not of type 'object'"),
    ({"point/1,1": {"extra": 1, "offset": 0.5}}, "point/1,1: 'tag' is a required property"),
    ({"point/1,1/tag": 0}, "point/1,1/tag: 0 is less than the minimum of 1"),
    ({"point/1,1/offset": 0.5}, "point/1,1/offset: 0.5 is not of type 'string', 'integer'"),
    ({"point/1,1/offset": None}, "point/1,1/offset: None is not of type 'string', 'integer'"),
    (
        {"point/1,1/tag": True, "point/2,1/offset": False},
        "point/2,1/offset: False is not of type 'string', 'integer'",
    ),
    ({"params": -1}, "params: -1 is less than the minimum of 0"),
    ({"params": "1"}, "params: '1' is not of type 'integer'"),
    ({"radius": INF}, "radius: inf is not of type 'integer'"),
    ({"radius": -INF}, "radius: -inf is not of type 'integer'"),
    ({"radius": NAN}, "radius: nan is not of type 'integer'"),
]


@pytest.mark.parametrize("changes, message", GOLDEN)
def test_schema_faults_are_reported_as_before(capsys, tmp_path, changes, message):
    path = tmp_path / "spec.json"
    path.write_text(json.dumps(mutated(changes)))
    assert run(capsys, "basis", "--spec", str(path)) == (
        2, "", error_line(f"job spec invalid at {message}")
    )


@pytest.mark.parametrize("field, value", [("lambda/0", 2.0), ("point/1,1/tag", 1.0)])
def test_integral_floats_pass_the_schema(capsys, tmp_path, field, value):
    # test_cli covers radius and params
    path = tmp_path / "spec.json"
    path.write_text(json.dumps(mutated({field: value})))
    got = run(capsys, "basis", "--spec", str(path))
    path.write_text(json.dumps(SPEC))
    assert got == run(capsys, "basis", "--spec", str(path)) and got[0] == 0


# ---------------------------------------------------------------------------
# differential: the reported fault is the one jsonschema.validate raises

SCHEMA = {
    "type": "object",
    "required": ["lambda", "point", "radius"],
    "additionalProperties": False,
    "properties": {
        "lambda": {
            "type": "array",
            "items": {"type": "integer", "minimum": 1},
            "minItems": 1,
        },
        "point": {
            "type": "object",
            "patternProperties": {
                r"^\d+,\d+$": {
                    "type": "object",
                    "required": ["tag", "offset"],
                    "additionalProperties": False,
                    "properties": {
                        "tag": {"type": "integer", "minimum": 1},
                        "offset": {"type": ["string", "integer"]},
                    },
                }
            },
            "additionalProperties": False,
        },
        "radius": {"type": "integer", "minimum": 1},
        "params": {"type": "integer", "minimum": 0},
    },
}
VALUES = [
    -2, -1, 0, 1, 2, 3, 10**6, 0.0, 1.0, 2.0, 0.5, -1.5, NAN, INF, -INF, True, False, None,
    "", "1", "1/2", "x", [], [1], [0, 2], [1.5, True], {}, {"tag": 1},
    {"tag": 1, "offset": 0}, {"offset": "x", "zz": 1},
]
KEYS = [
    "lambda", "point", "radius", "params", "extra", "alpha", "tag", "offset",
    "1,1", "2,1", "1,2", "9x", "a", "1,1\n", "01,1", " 1,1", "3,3", "zz",
]


def random_spec(rng: random.Random):
    """SPEC, with params, after one to four random sets, drops or appends."""
    spec = json.loads(json.dumps(dict(SPEC, params=0)))
    for _ in range(rng.randint(1, 4)):
        nodes, stack = [], [spec]
        while stack:
            node = stack.pop()
            nodes.append(node)
            stack.extend(c for c in (node.values() if isinstance(node, dict) else node)
                         if isinstance(c, (dict, list)))
        node = rng.choice(nodes)
        value = json.loads(json.dumps(rng.choice(VALUES)))
        if isinstance(node, list):
            if node and rng.random() < 0.7:
                i = rng.randrange(len(node))
                if rng.random() < 0.2:
                    del node[i]
                else:
                    node[i] = value
            else:
                node.append(value)
        else:
            key = rng.choice(list(node) + KEYS)
            if key in node and rng.random() < 0.25:
                del node[key]
            else:
                node[key] = value
    return spec


def test_faults_match_jsonschema_on_random_specs(tmp_path):
    jsonschema = pytest.importorskip("jsonschema")
    from jsonschema.exceptions import best_match

    validator = jsonschema.Draft202012Validator(SCHEMA)
    rng = random.Random(21)
    path = tmp_path / "spec.json"
    faulty = 0
    for _ in range(2000):
        spec = random_spec(rng)
        path.write_text(json.dumps(spec))
        try:
            load_jobspec(str(path))
            got = None
        except JobSpecError as e:
            got = str(e)
        want = best_match(validator.iter_errors(spec))
        if want is None:
            assert got is None or not got.startswith("job spec invalid at"), json.dumps(spec)
        else:
            faulty += 1
            where = "/".join(map(str, want.absolute_path)) or "(root)"
            assert got == f"job spec invalid at {where}: {want.message}", json.dumps(spec)
    assert 1000 < faulty < 2000


# ---------------------------------------------------------------------------
# files json cannot read, and repeated keys


@pytest.mark.parametrize("cmd", ["basis", "graph"])
@pytest.mark.parametrize(
    "text, reason",
    [
        (json.dumps(SPEC).replace('"radius": 1', '"radius": 1' + "0" * 5000), "Exceeds the limit"),
        ("[" * 100000 + "]" * 100000, "maximum recursion depth exceeded"),
        (b'{"lambda": [2, 1], "\xff": 1}', "can't decode byte 0xff"),
    ],
    ids=["huge-integer", "deep-nesting", "not-utf-8"],
)
def test_unreadable_spec_is_a_job_spec_error(capsys, tmp_path, cmd, text, reason):
    path = tmp_path / "spec.json"
    path.write_bytes(text if isinstance(text, bytes) else text.encode())
    rc, out, err = run(capsys, cmd, "--spec", str(path))
    assert rc == 2 and out == "" and len(err.splitlines()) == 1
    e = json.loads(err)["error"]
    assert e["type"] == "JobSpecError"
    assert e["message"].startswith(f"cannot read job spec {path}: ") and reason in e["message"]


@pytest.mark.parametrize(
    "old, new, key",
    [
        ('"radius": 1', '"radius": 1, "radius": 1', "radius"),
        ('"2,1": {', '"1,1": {"tag": 1, "offset": 5}, "2,1": {', "1,1"),
        ('"tag": 2', '"tag": 2, "tag": 2', "tag"),
    ],
)
def test_repeated_key_is_refused(capsys, tmp_path, old, new, key):
    # json would keep the last value; neither may silently win
    path = tmp_path / "spec.json"
    path.write_text(json.dumps(SPEC).replace(old, new, 1))
    assert run(capsys, "basis", "--spec", str(path)) == (
        2, "", error_line(f"job spec {path} repeats the key {key!r}")
    )


# ---------------------------------------------------------------------------
# no runtime dependency


def test_cli_imports_only_the_standard_library():
    script = (
        "import sys\n"
        "before = set(sys.modules)\n"
        "import ogzkit.cli\n"
        "added = {name.split('.')[0] for name in set(sys.modules) - before}\n"
        "print(sorted(added - {'ogzkit'} - sys.stdlib_module_names))\n"
    )
    src = os.path.dirname(os.path.dirname(ogzkit.__file__))
    path = [src, os.environ.get("PYTHONPATH")]
    env = dict(os.environ, PYTHONPATH=os.pathsep.join(filter(None, path)))
    done = subprocess.run(
        [sys.executable, "-c", script], capture_output=True, text=True, env=env, timeout=60
    )
    assert done.returncode == 0, done.stderr
    assert done.stdout == "[]\n"


def test_package_declares_no_runtime_dependency():
    tomllib = pytest.importorskip("tomllib")
    pyproject = Path(__file__).resolve().parent.parent / "pyproject.toml"
    assert tomllib.loads(pyproject.read_text())["project"]["dependencies"] == []
