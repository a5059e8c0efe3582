"""Circuit and point files, canonical round-trips, CLI exit codes."""

import contextlib
import io
import json
import math
import os
import pathlib
import random
import resource
import subprocess
import sys
import threading
import tracemalloc

import pytest
from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st

import pitkit
from pitkit import concentrate, depth3, io_cli
from pitkit.depth3 import SWEEP_CEILING, Depth3Circuit, Gate, LinearForm
from pitkit.io_cli import (
    build_parser,
    dumps_canonical,
    load_instance,
    load_points,
    main,
    obj_to_instance,
    save_instance,
    save_points,
)
from pitkit.algebra import Field, MatPoly, ScalarPoly
from pitkit.errors import CapabilityError, StructuralError
from pitkit.kron import PointFamily
from pitkit.roabp import PointSet, Roabp
from pitkit.verify import (
    InstanceSpec,
    _case_overrides,
    generate_instance,
    verify_hitting_property,
)
from reference import evaluate_reference
from test_pinned_blackbox import CASES as PINNED_BLACKBOX, declared
from test_roabp import evaluation_instances


MINIMAL_ROABP = {
    "format": 1,
    "kind": "roabp",
    "modulus": 10007,
    "width": 1,
    "variables": ["x1", "x2"],
    "blocks": [["x1"], ["x2"]],
    "left_block": [],
    "right_block": [],
    "layers": [
        [{"exponents": {"x1": 1}, "matrix": [[1]]}],
        [{"exponents": {"x2": 1}, "matrix": [[1]]}],
    ],
    "left_boundary": [[{"exponents": {}, "value": 1}]],
    "right_boundary": [[{"exponents": {}, "value": 1}]],
}

MINIMAL_DEPTH3 = {
    "format": 1,
    "kind": "depth3",
    "modulus": 10007,
    "variables": ["x1", "x2"],
    "gates": [
        {
            "scale": 1,
            "forms": [
                {"const": 0, "coeffs": {"x1": 1}},
                {"const": 1, "coeffs": {"x2": 1}},
            ],
        }
    ],
}


def test_minimal_roabp_document_loads_and_evaluates(tmp_path):
    path = tmp_path / "minimal.json"
    path.write_text(dumps_canonical(MINIMAL_ROABP))
    inst = load_instance(str(path))
    assert isinstance(inst, Roabp)
    assert inst.evaluate([2, 3]) == 6


def test_overlapping_blocks_named_error(tmp_path):
    doc = json.loads(json.dumps(MINIMAL_ROABP))
    doc["blocks"] = [["x1"], ["x1"]]
    path = tmp_path / "bad.json"
    path.write_text(dumps_canonical(doc))
    with pytest.raises(StructuralError, match="blocks not disjoint: x1"):
        load_instance(str(path))


def test_parse_error_carries_location(tmp_path):
    path = tmp_path / "broken.json"
    path.write_text("{\n  broken\n}")
    with pytest.raises(StructuralError, match="line 2"):
        load_instance(str(path))


def test_byte_order_mark_is_refused_as_json_loads_refuses_it(tmp_path):
    path = tmp_path / "bom.json"
    path.write_bytes(b"\xef\xbb\xbf" + dumps_canonical(MINIMAL_ROABP).encode())
    with pytest.raises(StructuralError) as info:
        load_instance(str(path))
    assert str(info.value) == (
        f"{path}: parse error at line 1, column 1: "
        "Unexpected UTF-8 BOM (decode using utf-8-sig)"
    )


def test_roabp_roundtrip_is_byte_identical(tmp_path):
    inst = generate_instance(
        InstanceSpec(klass="roabp", seed=12, n=4, d=3, w=2, s=2, delta=2)
    )
    first = tmp_path / "a.json"
    save_instance(inst, str(first))
    loaded = load_instance(str(first))
    second = tmp_path / "b.json"
    save_instance(loaded, str(second))
    assert first.read_text() == second.read_text()


def test_depth3_roundtrip_is_byte_identical(tmp_path):
    circuit = generate_instance(InstanceSpec(klass="sum-sml", seed=5, n=5, k=3, c=2))
    first = tmp_path / "a.json"
    save_instance(circuit, str(first))
    second = tmp_path / "b.json"
    save_instance(load_instance(str(first)), str(second))
    assert first.read_text() == second.read_text()


def test_points_empty_set_header_only(tmp_path):
    path = tmp_path / "pts.txt"
    save_points(PointSet(3, (), {"generator": "none"}), str(path))
    lines = path.read_text().splitlines()
    assert all(line.startswith("#") for line in lines)
    loaded = load_points(str(path))
    assert len(loaded) == 0 and loaded.n == 3


def test_points_single_line(tmp_path):
    path = tmp_path / "pts.txt"
    save_points(PointSet(3, ((1, 2, 3),)), str(path))
    assert "1,2,3" in path.read_text().splitlines()
    loaded = load_points(str(path))
    assert isinstance(loaded.points, PointFamily)
    assert tuple(loaded.points) == ((1, 2, 3),)


def test_reloaded_points_give_identical_verdict(tmp_path):
    from pitkit.isolate import roabp_hitting_set

    inst = generate_instance(
        InstanceSpec(klass="roabp", seed=9, n=3, d=2, w=2, s=2, delta=1)
    )
    points = roabp_hitting_set(inst, "whitebox")
    before = verify_hitting_property(inst, points)
    path = tmp_path / "pts.txt"
    save_points(points, str(path))
    after = verify_hitting_property(inst, load_points(str(path)))
    assert (before.passed, before.witness_index) == (after.passed, after.witness_index)


def test_modulus_override_renormalizes():
    obj = json.loads(json.dumps(MINIMAL_ROABP))
    obj["left_boundary"] = [[{"exponents": {}, "value": 8}]]
    inst = obj_to_instance(obj, modulus_override=7)
    assert inst.field.p == 7
    assert inst.evaluate([2, 3]) == 6  # 8 = 1 mod 7


def _validated(obj: dict, modulus: int):
    """The instance of a well-formed circuit document, built from its raw
    values by the validating constructors."""
    field = Field(modulus)
    index = {name: i for i, name in enumerate(obj["variables"])}
    n = len(index)

    def exponents(t):
        e = [0] * n
        for name, v in t["exponents"].items():
            e[index[name]] = v
        return tuple(e)

    def block(names):
        return tuple(index[name] for name in names)

    if obj["kind"] == "depth3":
        return Depth3Circuit(field, n, tuple(
            Gate(g["scale"], tuple(
                LinearForm(f["const"], {index[name]: c for name, c in f["coeffs"].items()})
                for f in g["forms"]
            ))
            for g in obj["gates"]
        ))

    def vector(key):
        return tuple(
            ScalarPoly(field, n, {exponents(t): t["value"] for t in terms})
            for terms in obj[key]
        )

    return Roabp(
        field, n, obj["width"], tuple(block(b) for b in obj["blocks"]),
        tuple(
            MatPoly(field, n, obj["width"], {exponents(t): t["matrix"] for t in terms})
            for terms in obj["layers"]
        ),
        vector("left_boundary"), vector("right_boundary"),
        block(obj["left_block"]), block(obj["right_block"]),
    )


@pytest.mark.parametrize("modulus", [5, 10007, 2**31 - 1])
@pytest.mark.parametrize(
    "klass", ["roabp", "invertible-roabp", "width2-roabp", "depth3-distance", "sum-sml"]
)
def test_loaded_instances_equal_the_validating_constructors(tmp_path, klass, modulus):
    # the one-pass loader builds through trusted constructors: what it
    # builds is the saved instance, and what the validating constructors
    # make of the file's values, also reduced under a smaller --modulus
    loaded = 0
    for seed in range(20):
        spec = InstanceSpec(
            klass=klass, seed=seed, modulus=modulus, **_case_overrides(klass, seed, {})
        )
        try:
            inst = generate_instance(spec)
        except CapabilityError:
            continue
        path = write_instance(tmp_path, "c.json", inst)
        obj = json.loads(pathlib.Path(path).read_text())
        assert load_instance(path) == inst == _validated(obj, modulus)
        assert obj_to_instance(obj, 7) == _validated(obj, 7)
        loaded += 1
    assert loaded >= 10


@pytest.mark.parametrize("modulus", [5, 10007, 2**61 - 1])
def test_loaded_instances_evaluate_as_the_reference(tmp_path, modulus):
    # the one-pass loader builds through trusted constructors, and
    # evaluation reads each part's block only: a loaded instance, polynomial
    # boundaries on end blocks included, evaluates as the saved one does
    rnd = random.Random(modulus)
    for i, inst in enumerate(evaluation_instances(modulus)[::3]):
        loaded = load_instance(write_instance(tmp_path, f"c{i}.json", inst))
        for _ in range(3):
            pt = tuple(rnd.randint(-3 * modulus, 3 * modulus) for _ in range(inst.n))
            assert loaded.evaluate(pt) == evaluate_reference(inst, pt)


# ---------------------------------------------------------------------------
# CLI


def write_instance(tmp_path, name, instance):
    path = tmp_path / name
    save_instance(instance, str(path))
    return str(path)


def run_cli(*argv, **kwargs):
    """The CLI in a fresh interpreter, so a traceback shows on stderr."""
    env = dict(os.environ, PYTHONPATH=str(pathlib.Path(pitkit.__file__).parents[1]))
    return subprocess.run(
        [sys.executable, "-m", "pitkit.io_cli", *argv],
        capture_output=True, text=True, env=env, **kwargs,
    )


def test_cli_hs_test_cycle(tmp_path, capsys):
    inst = generate_instance(
        InstanceSpec(klass="roabp", seed=3, n=3, d=2, w=2, s=2, delta=1)
    )
    circuit_path = write_instance(tmp_path, "c.json", inst)
    points_path = str(tmp_path / "pts.txt")
    assert main(["hs", "roabp", "--input", circuit_path, "--out", points_path]) == 0
    assert main(["test", "--input", circuit_path, "--points", points_path]) == 0
    capsys.readouterr()


def test_cli_test_reports_miss(tmp_path, capsys):
    inst = generate_instance(
        InstanceSpec(klass="roabp", seed=3, n=3, d=2, w=2, s=2, delta=1)
    )
    circuit_path = write_instance(tmp_path, "c.json", inst)
    points_path = str(tmp_path / "empty.txt")
    save_points(PointSet(3, ()), points_path)
    assert main(["test", "--input", circuit_path, "--points", points_path]) == 1
    capsys.readouterr()


@pytest.mark.parametrize("klass", ["roabp", "sum-sml"])
@pytest.mark.parametrize(
    "points", [(), ((1, 2),), ((0, 0), (1, 2))], ids=["empty", "one", "two"]
)
def test_cli_test_refuses_points_of_another_ambient(tmp_path, capsys, klass, points):
    # 2-variable points against a 3-variable circuit: exit 2 with the
    # message the first point's evaluation gives, and no verdict, also
    # when the file holds no point
    spec = {"roabp": dict(n=3, d=2, w=2, s=2, delta=1), "sum-sml": dict(n=3, k=2, c=2)}
    circuit = generate_instance(InstanceSpec(klass=klass, seed=3, **spec[klass]))
    circuit_path = write_instance(tmp_path, "c.json", circuit)
    points_path = str(tmp_path / "pts.txt")
    save_points(PointSet(2, points), points_path)
    assert main(["test", "--input", circuit_path, "--points", points_path]) == 2
    assert capsys.readouterr() == ("", "error: point length 2 != ambient 3\n")


def test_cli_whitebox_distance_decompose_expand(tmp_path, capsys):
    circuit = generate_instance(InstanceSpec(klass="sum-sml", seed=7, n=5, k=3, c=2))
    path = write_instance(tmp_path, "d.json", circuit)
    assert main(["whitebox", "sum-sml", "--input", path]) == 0
    assert main(["distance", "--input", path]) == 0
    out_path = str(tmp_path / "base.json")
    assert main(["decompose", "--input", path, "--out", out_path]) == 0
    assert main(["expand", "--input", path]) == 0
    capsys.readouterr()


def test_cli_verify_campaign(capsys):
    assert main(["verify", "--class", "roabp", "--samples", "2", "--seed", "7"]) == 0
    out = capsys.readouterr().out
    assert "passed=2/2" in out
    # the cube sweep needs no field larger than 2^n
    assert main(["verify", "--class", "sum-sml", "--modulus", "5",
                 "--samples", "40", "--seed", "0"]) == 0
    assert "passed=40/40" in capsys.readouterr().out


def test_cli_verify_forces_singular_layers_at_the_default_width(capsys):
    # w defaults to 2, the one width at which a singular layer is forced
    argv = ["verify", "--class", "roabp", "--samples", "3", "--param", "n=4"]
    assert main(argv) == 0
    plain = capsys.readouterr().out
    assert main([*argv, "--param", "force_singular=true"]) == 0
    forced = capsys.readouterr().out
    assert "passed=3/3" in forced and forced != plain


def test_cli_campaign_records_capability_limited_cases(capsys):
    # seed 8 has delta = 2, and the grid's 3 values do not fit GF(3); seeds
    # 7 and 9 still run
    assert main(["verify", "--class", "invertible-roabp", "--modulus", "3",
                 "--samples", "3", "--seed", "7"]) == 3
    lines = capsys.readouterr().out.splitlines()
    assert lines[0] == "campaign class=invertible-roabp samples=3 passed=2/3"
    assert lines[1].startswith("seed=7: pass ")
    assert lines[2] == "seed=8: LIMIT grid 1..3 does not fit in GF(3)"
    assert lines[3].startswith("seed=9: pass ")
    assert json.loads(lines[4]) == {
        "all_passed": False, "class": "invertible-roabp", "passed": 2, "samples": 3,
    }


def test_cli_hs_at_61_bit_modulus(tmp_path, capsys):
    inst = generate_instance(
        InstanceSpec(klass="roabp", seed=3, n=3, d=2, w=2, s=2, delta=1)
    )
    circuit_path = write_instance(tmp_path, "c.json", inst)
    points_path = str(tmp_path / "pts.txt")
    p61 = str(2**61 - 1)
    assert main(["hs", "roabp", "--input", circuit_path, "--modulus", p61,
                 "--out", points_path]) == 0
    assert main(["test", "--input", circuit_path, "--modulus", p61,
                 "--points", points_path]) == 0
    assert "test: pass" in capsys.readouterr().out


def test_cli_width2_blackbox_rejects_other_widths(tmp_path, capsys):
    inst = generate_instance(InstanceSpec(
        klass="roabp", seed=0, modulus=2**31 - 1, n=1, d=1, w=3, s=1, delta=1,
    ))
    circuit_path = write_instance(tmp_path, "w3.json", inst)
    points_path = tmp_path / "pts.txt"
    assert main(["hs", "width2", "--mode", "blackbox", "--input", circuit_path,
                 "--out", str(points_path)]) == 2
    assert "width-2 only; got width 3" in capsys.readouterr().err
    assert not points_path.exists()


def test_cli_gateless_depth3_is_zero(tmp_path, capsys):
    doc = json.loads(json.dumps(MINIMAL_DEPTH3))
    doc["gates"] = []
    path = tmp_path / "gateless.json"
    path.write_text(dumps_canonical(doc))
    assert main(["whitebox", "sum-sml", "--input", str(path)]) == 0
    assert capsys.readouterr().out.splitlines() == [
        "partitions: 0; base sets: 0 (cap 0.00); sweep size: 0",
        "verdict: zero",
    ]
    out_path = tmp_path / "base.json"
    assert main(["decompose", "--input", str(path), "--out", str(out_path)]) == 0
    assert json.loads(out_path.read_text()) == {"base_sets": [], "cap": 0.0, "m": 0}
    capsys.readouterr()


@pytest.mark.parametrize("file_modulus, flags", [(7, []), (10007, ["--modulus", "7"])])
def test_cli_coefficient_divisible_by_p_is_not_a_repeat(tmp_path, capsys, file_modulus, flags):
    # x1 has coefficient 7 in the first form; mod 7 that form is the
    # constant 1, so x1 + x2 alone uses x1 and the gate is multilinear
    doc = json.loads(json.dumps(MINIMAL_DEPTH3))
    doc["modulus"] = file_modulus
    doc["gates"][0]["forms"] = [
        {"const": 1, "coeffs": {"x1": 7}},
        {"const": 0, "coeffs": {"x1": 1, "x2": 1}},
    ]
    path = tmp_path / "d.json"
    path.write_text(dumps_canonical(doc))
    assert main(["whitebox", "sum-sml", "--input", str(path), *flags]) == 0
    assert capsys.readouterr().out.splitlines() == [
        "partitions: 1; base sets: 1 (cap 1.00); sweep size: 4",
        "verdict: nonzero at 0,1",
    ]


def test_cli_sweep_ceiling_defaults_to_the_library_constant():
    args = build_parser().parse_args(["whitebox", "sum-sml", "--input", "c.json"])
    assert args.ceiling == SWEEP_CEILING


def test_cli_sweep_ceiling_fails_before_any_evaluation(tmp_path, capsys, monkeypatch):
    def no_evaluation(*args):
        raise AssertionError("the ceiling is checked before the sweep")

    circuit = generate_instance(InstanceSpec(klass="sum-sml", seed=0, n=3, k=2, c=1))
    path = write_instance(tmp_path, "d.json", circuit)
    monkeypatch.setattr(Depth3Circuit, "eval_at", no_evaluation)
    monkeypatch.setattr(depth3, "_low_table", no_evaluation)
    monkeypatch.setattr(depth3, "_coefficient_route", no_evaluation)
    assert main(["whitebox", "sum-sml", "--input", path, "--ceiling", "7"]) == 3
    captured = capsys.readouterr()
    assert captured.out == ""
    assert "cube sweep of 8 evaluations exceeds the ceiling 7" in captured.err


def test_cli_exit_codes(tmp_path, capsys):
    missing = str(tmp_path / "nope.json")
    assert main(["expand", "--input", missing]) == 2
    bad = tmp_path / "bad.json"
    bad.write_text("{")
    assert main(["expand", "--input", str(bad)]) == 2
    # capability: tiny ceiling
    inst = generate_instance(
        InstanceSpec(klass="roabp", seed=1, n=4, d=3, w=2, s=3, delta=2)
    )
    path = write_instance(tmp_path, "big.json", inst)
    assert main(["expand", "--input", path, "--ceiling", "1"]) == 3
    capsys.readouterr()
    # campaign parameters: a value that is no integer, a name that is no field
    for param, message in [("n=abc", "expected an integer"), ("foo=1", "unknown --param")]:
        argv = ["verify", "--class", "sum-sml", "--samples", "1", "--param", param]
        assert main(argv) == 2
        err = capsys.readouterr().err
        assert err.startswith("error: ") and message in err


@pytest.mark.parametrize("doc", [MINIMAL_ROABP, MINIMAL_DEPTH3], ids=["roabp", "depth3"])
@pytest.mark.parametrize("version", [1.0, True])
def test_cli_format_version_must_be_the_integer_one(tmp_path, capsys, doc, version):
    circuit = tmp_path / "c.json"
    circuit.write_text(json.dumps(dict(doc, format=version)))
    assert main(["expand", "--input", str(circuit)]) == 2
    assert capsys.readouterr().err == (
        f"error: circuit file: unsupported format version {version}\n")


CANONICAL_MODULI = [5, 10007, 2**61 - 1]
CLASSES = ["roabp", "invertible-roabp", "width2-roabp", "depth3-distance", "sum-sml"]


def _json_dumps(obj) -> str:
    return json.dumps(obj, sort_keys=True, indent=2) + "\n"


@pytest.mark.parametrize("modulus", CANONICAL_MODULI)
@pytest.mark.parametrize("klass", CLASSES)
def test_dumps_canonical_is_json_dumps_on_circuit_files(klass, modulus):
    written = 0
    for seed in range(12):
        spec = InstanceSpec(
            klass=klass, seed=seed, modulus=modulus, **_case_overrides(klass, seed, {})
        )
        try:
            obj = io_cli.instance_to_obj(generate_instance(spec))
        except CapabilityError:
            continue
        assert dumps_canonical(obj) == _json_dumps(obj)
        written += 1
    assert written >= 6


@pytest.mark.parametrize("klass", ["depth3-distance", "sum-sml"])
def test_dumps_canonical_is_json_dumps_on_decompose_payloads(tmp_path, capsys, klass):
    for seed in range(12):
        spec = InstanceSpec(klass=klass, seed=seed, **_case_overrides(klass, seed, {}))
        path = write_instance(tmp_path, "d.json", generate_instance(spec))
        assert main(["decompose", "--input", path]) == 0
        text = capsys.readouterr().out
        payload = json.loads(text)
        assert isinstance(payload["cap"], float)
        assert text == dumps_canonical(payload) == _json_dumps(payload)


CANONICAL_HAND_CASES = [
    {}, [], (), {"a": []}, {"a": {}, "b": [[], [{}], ()]}, (1, (2, (3,)), []),
    [0.0, -0.0, 1e-07, 1e16, 1.5, float("inf"), float("-inf"), float("nan")],
    [True, False, None], {"t": True, "f": False, "n": None},
    "plain", "", "h\u00e9llo \u2603 \U0001f600", "\x00\x1f\x7f\"\\/\n\t",
    {"\u00e9": "\u00ff", "a\nb": ["\x01"], "": 0},
    {"z": 1, "a": {"y": [1, {"q": None}], "x": (2, 3.25)}},
    0, -3, 10**30, 2**61 - 1, -(2**70),
    [1, "\u00e9", 2.5, True, None, [], {}, {"k": "v", "i": -1, "f": 0.5, "b": False}],
    {"ints": [1, -2, 10**20], "strs": ["a", "\u2603"], "deep": [[1, ["x"]], {"n": [None]}]},
]


@pytest.mark.parametrize("obj", CANONICAL_HAND_CASES, ids=repr)
def test_dumps_canonical_is_json_dumps_on_hand_cases(obj):
    assert dumps_canonical(obj) == _json_dumps(obj)


@pytest.mark.parametrize("obj", [object(), {"a": [1, {2, 3}]}, [b"x"], {"a": 1j}])
def test_dumps_canonical_refuses_what_json_refuses(obj):
    with pytest.raises(TypeError) as expected:
        _json_dumps(obj)
    with pytest.raises(TypeError) as got:
        dumps_canonical(obj)
    assert str(got.value) == str(expected.value)


def test_cli_hs_prints_the_provenance_of_the_point_file(tmp_path, capsys):
    inst = generate_instance(InstanceSpec(klass="roabp", seed=3, n=3, d=2, w=2, s=2, delta=1))
    circuit_path = write_instance(tmp_path, "c.json", inst)
    points_path = tmp_path / "pts.txt"
    assert main(["hs", "roabp", "--input", circuit_path]) == 0
    printed = capsys.readouterr().out.splitlines()
    assert main(["hs", "roabp", "--input", circuit_path, "--out", str(points_path)]) == 0
    written = capsys.readouterr().out.splitlines()
    header = points_path.read_text().splitlines()[1]
    assert printed[1] == written[1] == header.removeprefix("# provenance: ")
    assert printed[1] == json.dumps(load_points(str(points_path)).provenance, sort_keys=True)


def _set(doc, path, value):
    target = doc
    for key in path[:-1]:
        target = target[key]
    target[path[-1]] = value


NON_INTEGER_FIELDS = [
    (MINIMAL_ROABP, ("layers", 0, 0, "matrix", 0, 0), "a"),
    (MINIMAL_ROABP, ("layers", 1, 0, "matrix", 0, 0), True),
    (MINIMAL_ROABP, ("layers", 1, 0, "matrix", 0, 0), 1.5),
    (MINIMAL_ROABP, ("left_boundary", 0, 0, "value"), None),
    (MINIMAL_ROABP, ("right_boundary", 0, 0, "value"), "1"),
    (MINIMAL_ROABP, ("width",), True),
    (MINIMAL_ROABP, ("layers", 0, 0, "exponents", "x1"), True),
    (MINIMAL_DEPTH3, ("gates", 0, "scale"), "a"),
    (MINIMAL_DEPTH3, ("gates", 0, "scale"), False),
    (MINIMAL_DEPTH3, ("gates", 0, "forms", 0, "const"), None),
    (MINIMAL_DEPTH3, ("gates", 0, "forms", 1, "coeffs", "x2"), "a"),
    (MINIMAL_DEPTH3, ("gates", 0, "forms", 1, "coeffs", "x2"), True),
]


WRONG_STRUCTURES = [
    (MINIMAL_ROABP, ("layers", 0, 0, "matrix"), 5, "expected a list"),
    (MINIMAL_ROABP, ("blocks",), 5, "expected a list"),
    (MINIMAL_ROABP, ("layers",), [5, 6], "expected a list"),
    (MINIMAL_ROABP, ("left_boundary", 0), 5, "expected a list"),
    (MINIMAL_ROABP, ("variables",), 3, "expected a list"),
    (MINIMAL_ROABP, ("modulus",), "7", "expected an integer"),
    (MINIMAL_DEPTH3, ("gates", 0, "forms", 0, "coeffs"), [1], "expected an object"),
    (MINIMAL_DEPTH3, ("gates", 0), 5, "expected an object"),
]

BAD_VALUES = [
    (doc, path, value, ("expected an integer", "bad exponent"))
    for doc, path, value in NON_INTEGER_FIELDS
] + [(doc, path, value, (message,)) for doc, path, value, message in WRONG_STRUCTURES]


@pytest.mark.parametrize(
    "doc, path, value, messages",
    BAD_VALUES,
    ids=[
        f"{doc['kind']}-{'.'.join(map(str, path))}={value!r}"
        for doc, path, value, _ in BAD_VALUES
    ],
)
def test_cli_rejects_non_integer_values(tmp_path, doc, path, value, messages):
    doc = json.loads(json.dumps(doc))
    _set(doc, path, value)
    circuit = tmp_path / "bad.json"
    circuit.write_text(json.dumps(doc))
    proc = run_cli("expand", "--input", str(circuit))
    assert proc.returncode == 2, proc.stderr
    assert "Traceback" not in proc.stderr
    assert any(message in proc.stderr for message in messages)


@pytest.mark.parametrize("width, empty", [(0, True), (-1, True), (-3, False)])
@pytest.mark.parametrize("family", ["roabp", "invertible"])
def test_cli_rejects_a_width_below_one(tmp_path, family, width, empty):
    doc = json.loads(json.dumps(MINIMAL_ROABP))
    doc["width"] = width
    if empty:  # no matrix entry and no boundary entry to measure the width by
        doc.update(layers=[[], []], left_boundary=[], right_boundary=[])
    circuit = tmp_path / "narrow.json"
    circuit.write_text(json.dumps(doc))
    proc = run_cli("hs", family, "--input", str(circuit))
    assert proc.returncode == 2, proc.stdout + proc.stderr
    assert proc.stderr == "error: circuit file: width must be at least 1\n"


@pytest.mark.parametrize("key, message", [
    ("layers", "layer 0: repeated exponents"),
    ("left_boundary", "left_boundary entry 0: repeated exponents"),
])
def test_cli_rejects_a_repeated_monomial(tmp_path, key, message):
    doc = json.loads(json.dumps(MINIMAL_ROABP))
    doc[key][0].append(dict(doc[key][0][0]))
    circuit = tmp_path / "repeated.json"
    circuit.write_text(json.dumps(doc))
    proc = run_cli("expand", "--input", str(circuit))
    assert proc.returncode == 2, proc.stderr
    assert "Traceback" not in proc.stderr
    assert message in proc.stderr


@pytest.mark.parametrize("doc, repeated", [
    # x1 (1 + x2) with the form x1 written as {"x1": 1, "x1": 0}
    (MINIMAL_DEPTH3, '"coeffs": {"x1": 1, "x1": 0}'),
    (MINIMAL_ROABP, '"exponents": {"x1": 1, "x1": 0}'),
])
def test_cli_rejects_a_repeated_key(tmp_path, doc, repeated):
    text = json.dumps(doc)
    once = repeated.replace(', "x1": 0', "")
    assert text.count(once) == 1
    circuit = tmp_path / "repeated.json"
    circuit.write_text(text.replace(once, repeated))
    proc = run_cli("expand", "--input", str(circuit))
    assert proc.returncode == 2, proc.stderr
    assert "Traceback" not in proc.stderr
    assert "repeated key 'x1'" in proc.stderr


def test_cli_distance_states_the_order_search_limit(tmp_path):
    doc = json.loads(json.dumps(MINIMAL_DEPTH3))
    doc["gates"] = doc["gates"] * 7
    circuit = tmp_path / "seven.json"
    circuit.write_text(json.dumps(doc))
    proc = run_cli("distance", "--input", str(circuit))
    assert proc.returncode == 2, proc.stderr
    assert "Traceback" not in proc.stderr
    assert proc.stderr == "error: 7 partitions exceed the k <= 6 search limit\n"


@pytest.mark.parametrize("command", ["hs roabp --input {path}", "verify --class roabp --samples 1"])
def test_cli_modulus_zero_is_not_replaced(tmp_path, command):
    circuit = tmp_path / "minimal.json"
    circuit.write_text(dumps_canonical(MINIMAL_ROABP))
    proc = run_cli(*command.format(path=circuit).split(), "--modulus", "0")
    assert proc.returncode == 2, proc.stderr
    assert "Traceback" not in proc.stderr
    assert "modulus 0 is not prime" in proc.stderr


@pytest.mark.parametrize("klass, args, message", [
    ("sum-sml", ["--param", "c=0"], "c=0 must be at least 1"),
    ("sum-sml", ["--param", "n=0"], "n=0 must be at least 1"),
    ("sum-sml", ["--param", "k=0"], "k=0 must be at least 1"),
    ("roabp", ["--param", "d=0"], "d=0 must be at least 1"),
    ("roabp", ["--param", "w=0"], "w=0 must be at least 1"),
    ("roabp", ["--param", "s=0"], "s=0 must be at least 1"),
    ("roabp", ["--param", "delta=-1"], "delta=-1 must be nonnegative"),
    ("roabp", ["--samples", "-2"], "samples=-2 must be nonnegative"),
    ("roabp", ["--param", "n=true"], "expected an integer"),
    ("roabp", ["--param", "delta=false"], "expected an integer"),
    ("width2-roabp", ["--param", "force_singular=7"], "expected true or false"),
    ("sum-sml", ["--param", "engineered_zero=1"], "expected true or false"),
    ("roabp", ["--param", "mu=0"], "mu=0 must be at least 1"),
    # a key the class's generator does not read
    ("width2-roabp", ["--param", "w=3"], "unknown --param 'w' for class width2-roabp"),
    ("sum-sml", ["--param", "s=2"], "unknown --param 's' for class sum-sml"),
    ("depth3-distance", ["--param", "c=2"], "unknown --param 'c' for class depth3-distance"),
    ("invertible-roabp", ["--param", "force_singular=true", "--param", "n=4", "--param", "d=3"],
     "unknown --param 'force_singular' for class invertible-roabp"),
    # a singular layer is forced only at width 2
    ("roabp", ["--param", "w=3", "--param", "force_singular=true"],
     "force_singular=True needs w=2, got w=3"),
    ("roabp", ["--param", "force_singular=true", "--param", "w=1"],
     "force_singular=True needs w=2, got w=1"),
    ("roabp", ["--param", "n=3", "--param", "n=5"], "repeated --param 'n'"),
    ("sum-sml", ["--param", "engineered_zero=true", "--param", "engineered_zero=false"],
     "repeated --param 'engineered_zero'"),
])
def test_cli_verify_rejects_out_of_range_inputs(klass, args, message):
    proc = run_cli("verify", "--class", klass, "--samples", "1", *args)
    assert proc.returncode == 2, proc.stdout + proc.stderr
    assert "Traceback" not in proc.stderr
    assert message in proc.stderr


@pytest.mark.parametrize("line, message", [
    ("1,2,x", "bad point line"),
    ("1,,3", "bad point line"),
    ("1,2,3.0", "bad point line"),
    ("1,2", "has length 2"),
])
def test_cli_test_rejects_bad_point_lines(tmp_path, line, message):
    inst = generate_instance(
        InstanceSpec(klass="roabp", seed=3, n=3, d=2, w=2, s=2, delta=1)
    )
    circuit_path = write_instance(tmp_path, "c.json", inst)
    points = tmp_path / "pts.txt"
    points.write_text(f"# pitkit points n=3 count=2\n1,2,3\n{line}\n")
    proc = run_cli("test", "--input", circuit_path, "--points", str(points))
    assert proc.returncode == 2, proc.stderr
    assert "Traceback" not in proc.stderr
    assert message in proc.stderr


@pytest.mark.parametrize("text, message", [
    ("# pitkit points n=x count=1\n1,2,3\n", "pts.txt:1: bad header line"),
    ("# pitkit points n=3 count=\n1,2,3\n", "pts.txt:1: bad header line"),
    ("# pitkit points n=3 count=1\n# provenance: {bad\n1,2,3\n", "pts.txt:2: bad header line"),
    ("# pitkit points n=3 count=1\n# provenance: [1]\n1,2,3\n", "pts.txt:2: bad header line"),
    ("# pitkit points n=3 count=5\n1,2,3\n", "pts.txt:1: header count=5 but 1 point lines"),
    ("# pitkit points n=3 count=0\n1,2,3\n", "pts.txt:1: header count=0 but 1 point lines"),
    ("# pitkit points n=3 count=5\n1,2,3\n# pitkit points n=3 count=1\n",
     "pts.txt:3: bad header line"),
    ("# pitkit points n=3 count=1\n# provenance: {}\n# provenance: {}\n1,2,3\n",
     "pts.txt:3: bad header line"),
    ("# pitkit points n=-1 count=0\n", "pts.txt:1: bad header line"),
    ("# pitkit points n=5 count=9 n=2 count=1\n1,2\n", "pts.txt:1: bad header line"),
    ("# pitkit points n=3 count=1 count=1\n1,2,3\n", "pts.txt:1: bad header line"),
], ids=[
    "bad-n", "empty-count", "bad-provenance", "list-provenance",
    "count-above-lines", "count-below-lines",
    "repeated-points-line", "repeated-provenance", "negative-n",
    "repeated-keys", "repeated-count",
])
def test_cli_test_rejects_bad_point_headers(tmp_path, text, message):
    inst = generate_instance(
        InstanceSpec(klass="roabp", seed=3, n=3, d=2, w=2, s=2, delta=1)
    )
    circuit_path = write_instance(tmp_path, "c.json", inst)
    points = tmp_path / "pts.txt"
    points.write_text(text)
    proc = run_cli("test", "--input", circuit_path, "--points", str(points))
    assert proc.returncode == 2, proc.stderr
    assert "Traceback" not in proc.stderr
    assert message in proc.stderr


# (family, instance class, mode, (n, d, w, s, delta, mu), modulus): the pinned
# blackbox sets, and seeded whitebox sets from GF(5) to GF(2^61 - 1)
CANONICAL_SETS = [(family, klass, "blackbox", params, modulus)
                  for family, klass, params, modulus in PINNED_BLACKBOX] + [
    ("invertible", "invertible-roabp", "whitebox", (3, 2, 2, 2, 1, 1), 5),
    *((family, klass, "whitebox", (3, 2, 2, 2, 1, 1), modulus)
      for family, klass in [("roabp", "roabp"), ("invertible", "invertible-roabp"),
                            ("width2", "width2-roabp")]
      for modulus in (10007, 2**31 - 1, 2**61 - 1)),
]


@pytest.mark.parametrize("family", ["roabp", "invertible", "width2"])
def test_cli_and_campaigns_share_one_late_bound_registry(monkeypatch, tmp_path, family):
    # `hs FAMILY` and campaign class `FAMILY-roabp` (or `roabp`) read the
    # one registry in verify, whose entries look their generator up per
    # call, so rebinding the generator's name there reaches both
    from pitkit import verify

    assert io_cli.HITTING_SETS is verify.HITTING_SETS
    name = {"roabp": "roabp_hitting_set", "invertible": "invertible_hitting_set",
            "width2": "width2_hitting_set"}[family]
    original, calls = getattr(verify, name), []
    monkeypatch.setattr(verify, name, lambda *args: calls.append(args) or original(*args))
    klass = "roabp" if family == "roabp" else f"{family}-roabp"
    assert verify.run_campaign(klass, 1, modulus=2**31 - 1).all_passed
    inst = generate_instance(InstanceSpec(
        klass=klass, seed=0, modulus=2**31 - 1, n=2, d=1, w=2, s=1, delta=1, mu=1,
    ))
    assert main(["hs", family, "--input", write_instance(tmp_path, "inst.json", inst)]) == 0
    assert len(calls) == 2


@pytest.mark.parametrize("family, klass, mode, params, modulus", CANONICAL_SETS, ids=[
    f"{family}-{mode}-{','.join(map(str, params))}-{modulus}"
    for family, _, mode, params, modulus in CANONICAL_SETS
])
def test_canonical_point_files_load_the_line_loop_points(
        tmp_path, family, klass, mode, params, modulus):
    if mode == "blackbox":
        inst = declared(klass, params, modulus)
    else:
        n, d, w, s, delta, mu = params
        inst = generate_instance(InstanceSpec(
            klass=klass, seed=1, modulus=modulus, n=n, d=d, w=w, s=s, delta=delta, mu=mu,
        ))
    points = io_cli.HITTING_SETS[family](inst, mode)
    path = tmp_path / "pts.txt"
    save_points(points, str(path))
    loop = io_cli._read_point_lines(str(path), path.read_bytes())
    loaded = load_points(str(path))
    assert isinstance(loaded.points, PointFamily)
    assert len(loaded) == len(loop)
    assert tuple(loaded.points) == loop.points == tuple(points.points)
    assert (loaded.n, loaded.provenance) == (loop.n, loop.provenance)


@pytest.mark.parametrize("text, n, pts", [
    ("# pitkit points n=3 count=2\n 1, 2 ,3 \n4,5,6\n", 3, ((1, 2, 3), (4, 5, 6))),
    ("# pitkit points n=3 count=2\n+1,2,3\n4,5,+6\n", 3, ((1, 2, 3), (4, 5, 6))),
    ("# pitkit points n=3 count=2\n1_0,2,3\n4,5,6\n", 3, ((10, 2, 3), (4, 5, 6))),
    ("# pitkit points n=3 count=2\r\n1,2,3\r\n4,5,6\r\n", 3, ((1, 2, 3), (4, 5, 6))),
    ("# pitkit points n=3 count=2\r1,2,3\r4,5,6\r", 3, ((1, 2, 3), (4, 5, 6))),
    ("# pitkit points n=3 count=2\n\n1,2,3\n\n4,5,6\n\n", 3, ((1, 2, 3), (4, 5, 6))),
    ("# pitkit points n=3 count=2\n1,2,3\n# note\n4,5,6\n", 3, ((1, 2, 3), (4, 5, 6))),
    ("# pitkit points n=3 count=2\n1,2,3\n4,5,6", 3, ((1, 2, 3), (4, 5, 6))),
    ("1,2,3\n4,5,6\n", 3, ((1, 2, 3), (4, 5, 6))),
    ("# pitkit points n=3 count=1\n\u0661,2,3\n", 3, ((1, 2, 3),)),
], ids=[
    "spaces", "plus", "underscore", "crlf", "cr", "blank-lines", "comment-in-body",
    "no-final-newline", "no-header", "non-ascii-digit",
])
def test_lenient_point_files_load(tmp_path, text, n, pts):
    path = tmp_path / "pts.txt"
    path.write_bytes(text.encode("utf-8"))
    loaded = load_points(str(path))
    assert (loaded.n, loaded.points) == (n, pts)


def test_cli_test_parses_points_only_up_to_the_witness(tmp_path, capsys):
    # x1 * x2 is nonzero at (1, 2), the first point.  The second point has
    # one more digit than int() converts, and 10^5 points follow: test
    # passes at point 0, and parses no line after it.
    circuit = tmp_path / "c.json"
    circuit.write_text(dumps_canonical(MINIMAL_ROABP))
    limit = sys.get_int_max_str_digits()
    sys.set_int_max_str_digits(4300)
    try:
        unparsable = "9" * 4301 + ",1\n"
        tail = "0,0\n" * 10**5
        points = tmp_path / "pts.txt"
        for first, code, out, err in [
            ("1,2\n", 0, "test: pass witness=0 size=100002\n", ""),
            ("0,0\n", 2, "", f"error: {points}:4: bad point line\n"),
        ]:
            points.write_text(
                "# pitkit points n=2 count=100002\n# provenance: {}\n" + first + unparsable + tail
            )
            assert main(["test", "--input", str(circuit), "--points", str(points)]) == code
            assert capsys.readouterr() == (out, err)
        with pytest.raises(StructuralError, match="pts.txt:4: bad point line"):
            tuple(load_points(str(points)))
    finally:
        sys.set_int_max_str_digits(limit)


@pytest.mark.parametrize("unreadable", ["directory", "binary-circuit", "binary-point-line"])
def test_cli_unreadable_files_are_usage_errors(tmp_path, unreadable):
    circuit = tmp_path / "c.json"
    circuit.write_text(dumps_canonical(MINIMAL_ROABP))
    points = tmp_path / "pts.txt"
    points.write_text("# pitkit points n=2 count=1\n1,2\n")
    if unreadable == "directory":
        circuit = tmp_path
    elif unreadable == "binary-circuit":
        circuit.write_bytes(bytes(range(255, -1, -1)))
    else:
        points.write_bytes(b"# pitkit points n=2 count=1\n1,\xff\n")
    proc = run_cli("test", "--input", str(circuit), "--points", str(points))
    assert proc.returncode == 2, proc.stderr
    assert proc.stderr.startswith("error: ")
    assert "Traceback" not in proc.stderr


def test_cli_modulus_past_exact_primality_exits_at_once(tmp_path):
    circuit = tmp_path / "r.json"
    circuit.write_text(dumps_canonical(MINIMAL_ROABP))
    proc = run_cli("expand", "--input", str(circuit), "--modulus", str(2**89 - 1), timeout=60)
    assert proc.returncode == 3, proc.stderr
    assert "3317044064679887385961981" in proc.stderr


def test_cli_depth3_expand_reads_the_ceiling(tmp_path, capsys):
    # x1 * (1 + x2) multiplies out 1 * 2 = 2 terms
    circuit = tmp_path / "d.json"
    circuit.write_text(dumps_canonical(MINIMAL_DEPTH3))
    assert main(["expand", "--input", str(circuit), "--ceiling", "1"]) == 3
    captured = capsys.readouterr()
    assert captured.out == ""
    assert "depth-3 expansion of 2 terms exceeds the ceiling 1" in captured.err
    assert main(["expand", "--input", str(circuit), "--ceiling", "2"]) == 0
    assert "terms: 2" in capsys.readouterr().out


def test_cli_sum_sml_campaign_past_the_expansion_ceiling_is_limited():
    # 40 variables multiply out to 431,661,312 terms: cap the address space,
    # so that a missing ceiling fails the test instead of exhausting memory
    def cap_memory():
        resource.setrlimit(resource.RLIMIT_AS, (2 * 10**9, 2 * 10**9))

    proc = run_cli(
        "verify", "--class", "sum-sml", "--samples", "1", "--param", "n=40",
        timeout=120, preexec_fn=cap_memory,
    )
    assert proc.returncode == 3, proc.stderr
    assert proc.stdout.splitlines()[1] == (
        "seed=0: LIMIT depth-3 expansion of 431661312 terms exceeds the ceiling 1000000"
    )


def test_cli_builds_its_parser_once(tmp_path, monkeypatch, capsys):
    built = []
    build = io_cli.build_parser
    monkeypatch.setattr(io_cli, "_PARSER", None)
    monkeypatch.setattr(io_cli, "build_parser", lambda: built.append(1) or build())
    circuit = tmp_path / "d.json"
    circuit.write_text(dumps_canonical(MINIMAL_DEPTH3))
    for command in ("distance", "decompose", "expand"):
        assert main([command, "--input", str(circuit)]) == 0
    assert built == [1]
    capsys.readouterr()


def test_save_points_matches_the_join_writer(tmp_path):
    p = 2**61 - 1
    few = ((0, p - 1, 2**60 + 12345), (2**31 - 2, 0, 1), (p - 1, p - 1, 0))
    # two whole write blocks and a partial one
    many = tuple((i, p - 1 - i, i * i) for i in range(2 * io_cli._POINTS_PER_WRITE + 1))
    for pts in (few, many):
        points = PointSet(3, pts, {"generator": "none"})
        path = tmp_path / "pts.txt"
        save_points(points, str(path))
        header = (
            f"# pitkit points n=3 count={len(pts)}\n"
            '# provenance: {"generator": "none"}\n'
        )
        body = "".join(",".join(map(str, pt)) + "\n" for pt in pts)
        assert path.read_bytes() == (header + body).encode("utf-8")
        loaded = load_points(str(path))
        assert isinstance(loaded.points, PointFamily)
        assert tuple(loaded.points) == pts


def test_save_points_streams_a_whitebox_set(tmp_path):
    # 1 + x1^50000 at p = 2^31 - 1: the constant map sweeps 50,001 points
    from pitkit.isolate import roabp_hitting_set

    inst = steep(1, 50_000, Field(2**31 - 1))
    tracemalloc.start()
    try:
        points = roabp_hitting_set(inst, "whitebox")
        save_points(points, str(tmp_path / "pts.txt"))
        streamed = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    held = list(points)
    assert len(held) >= 40_000
    listed = sys.getsizeof(held) + sum(
        sys.getsizeof(pt) + sum(map(sys.getsizeof, pt)) for pt in held
    )
    assert streamed < listed, (streamed, listed)


def steep(n: int, degree: int, field) -> Roabp:
    """prod_i (1 + x_i^degree) in n width-1 layers: the constant map's sweep
    has 1 + n * degree points."""
    layers = [
        MatPoly(field, n, 1, {(0,) * n: ((1,),), tuple(degree * (v == i) for v in range(n)): ((1,),)})
        for i in range(n)
    ]
    return Roabp.with_constant_boundaries(field, n, [(i,) for i in range(n)], layers, (1,), (1,))


def capped(cpu_s: int):
    """A child-process hook that caps the address space at 512 MB and the CPU
    time at cpu_s seconds."""
    def cap():
        resource.setrlimit(resource.RLIMIT_AS, (512 * 2**20, 512 * 2**20))
        resource.setrlimit(resource.RLIMIT_CPU, (cpu_s, cpu_s))

    return cap


def test_cli_hs_refuses_a_set_past_the_point_ceiling(tmp_path):
    # 1 + x1^(10^8): the constant map's sweep of 100,000,001 points is the
    # shortest on the ladder, one past the ceiling
    circuit_path = write_instance(tmp_path, "c.json", steep(1, 10**8, Field(2**61 - 1)))
    out = tmp_path / "pts.txt"
    proc = run_cli("hs", "roabp", "--input", circuit_path, "--out", str(out),
                   timeout=60, preexec_fn=capped(20))
    assert proc.returncode == 3, proc.stderr
    assert proc.stderr == (
        "capability error: hitting set of 100000001 points exceeds the ceiling "
        f"{io_cli.HS_POINT_CEILING}\n"
    )
    assert proc.stdout == "" and not out.exists()


def test_cli_hs_invertible_refuses_a_grid_past_the_point_ceiling(tmp_path):
    # n = 27, s = 2, mu = 1: support bound 18, so the low-support grid has
    # C(27, 17) * 2^17 points, and the grid {g^0, g^1}^27, which is
    # smaller, 2^27.  Both are counted without listing them, and the shift
    # search does not run, so the refusal comes before any point is built
    inst = generate_instance(InstanceSpec(
        klass="invertible-roabp", seed=0, modulus=2**31 - 1,
        n=27, d=3, w=2, s=2, delta=1, mu=1,
    ))
    circuit_path = write_instance(tmp_path, "inv27.json", inst)
    out = tmp_path / "pts.txt"
    proc = run_cli("hs", "invertible", "--input", circuit_path, "--out", str(out),
                   timeout=60, preexec_fn=capped(20))
    assert (proc.returncode, proc.stderr, proc.stdout) == (3, (
        "capability error: hitting set of 134217728 points exceeds the "
        f"ceiling {io_cli.HS_POINT_CEILING}\n"
    ), "")
    assert not out.exists()


def test_cli_hs_refuses_a_set_past_sys_maxsize_by_its_exact_size(tmp_path, capsys):
    # n = 20, delta = 12: the paper's translated low-support grid, of
    # C(20, 17) * 13^17 ~ 9.9e21 points, is smaller than the grid's 13^20,
    # and its size, past what len() can return, is read exactly
    inst = generate_instance(InstanceSpec(
        klass="invertible-roabp", seed=0, modulus=2**31 - 1,
        n=20, d=2, w=2, s=2, delta=12, mu=1,
    ))
    assert inst.delta == 12
    circuit_path = write_instance(tmp_path, "inv20.json", inst)
    assert main(["hs", "invertible", "--input", circuit_path]) == 3
    assert capsys.readouterr().err == (
        f"capability error: hitting set of {math.comb(20, 17) * 13**17} points exceeds "
        f"the ceiling {io_cli.HS_POINT_CEILING}\n"
    )


@pytest.mark.parametrize("n, modulus, count", [
    (27, 10007, 2**27), (28, 2**31 - 1, 2**28),
])
def test_cli_blackbox_roabp_refuses_by_its_exact_count_before_enumerating(
    tmp_path, n, modulus, count
):
    # both the grid's 2^n and the paper's count pass the ceiling; the
    # paper's is read from the per-round lists only until it passes the
    # grid's, and listing the candidates, or the grid, would take far more
    # than the child's CPU and memory caps
    from test_blackbox_whole_class import declared_instance

    circuit_path = write_instance(
        tmp_path, "c.json", declared_instance(n, 2, 2, 2, 1, Field(modulus))
    )
    out = tmp_path / "pts.txt"
    proc = run_cli("hs", "roabp", "--mode", "blackbox", "--input", circuit_path,
                   "--out", str(out), timeout=60, preexec_fn=capped(3))
    assert (proc.returncode, proc.stderr, proc.stdout) == (3, (
        f"capability error: hitting set of {count} points exceeds the "
        f"ceiling {io_cli.HS_POINT_CEILING}\n"
    ), "")
    assert not out.exists()


def test_cli_blackbox_roabp_on_six_variables_fits_gf_10007(tmp_path, capsys):
    # the grid {g^0, g^1}^6: the paper's candidate sweeps have 138,384 points
    from test_blackbox_whole_class import declared_instance

    circuit_path = write_instance(
        tmp_path, "c.json", declared_instance(6, 2, 2, 2, 1, Field(10007))
    )
    assert main(["hs", "roabp", "--mode", "blackbox", "--input", circuit_path]) == 0
    head, provenance = capsys.readouterr().out.splitlines()
    assert head == "generated 64 points"
    assert json.loads(provenance) == {
        "generator": "roabp_hitting_set", "mode": "blackbox", "n": 6, "d": 2, "w": 2,
        "delta": 1, "s": 2, "route": "grid", "assignments": 1, "per_assignment": [64],
    }


@pytest.mark.parametrize("n, count", [(12, 4096), (16, 65536)])
def test_cli_blackbox_roabp_emits_the_grid_below_the_ceiling(tmp_path, capsys, n, count):
    # the paper's candidate sweeps have 2.9e11 points at n = 12 and 9.1e14
    # at n = 16, past the ceiling; the grid fits it and GF(10007)
    from test_blackbox_whole_class import declared_instance

    circuit_path = write_instance(
        tmp_path, "c.json", declared_instance(n, 2, 2, 2, 1, Field(10007))
    )
    out = tmp_path / "pts.txt"
    assert main(["hs", "roabp", "--mode", "blackbox", "--input", circuit_path,
                 "--out", str(out)]) == 0
    assert capsys.readouterr().out.splitlines()[0] == f"wrote {count} points to {out}"
    points = load_points(str(out))
    assert len(set(points.points)) == count == 2**n


def dense_width2(n: int, degree: int = 1) -> Roabp:
    """Over GF(2^61 - 1), n width-2 layers {1, x_i} with seeded nonzero
    matrices, x_1 raised to `degree`: the product has 2^n monomials."""
    from pitkit.verify import DetStream

    field, stream = Field(2**61 - 1), DetStream("dense")

    def layer(i):
        x_i = tuple((degree if i == 0 else 1) * (v == i) for v in range(n))
        return MatPoly(field, n, 2, {
            e: tuple(tuple(stream.nonzero(field) for _ in range(2)) for _ in range(2))
            for e in ((0,) * n, x_i)
        })

    return Roabp.with_constant_boundaries(
        field, n, [(i,) for i in range(n)], [layer(i) for i in range(n)], (1, 0), (1, 0)
    )


def test_cli_hs_refuses_a_dense_roabp_before_any_sweep_work(tmp_path):
    # 20 dense layers with x1 at degree 10^8: the constant map's sweep has
    # 1 + 20 * 10^8 points.  Listing them would need far more than the
    # address-space cap, so the refusal must come before any is built
    circuit_path = write_instance(tmp_path, "dense.json", dense_width2(20, 10**8))
    out = tmp_path / "pts.txt"
    proc = run_cli(
        "hs", "roabp", "--input", circuit_path, "--out", str(out), timeout=60,
        preexec_fn=capped(20),
    )
    assert (proc.returncode, proc.stderr, proc.stdout) == (3, (
        "capability error: hitting set of 2000000001 points exceeds the "
        f"ceiling {io_cli.HS_POINT_CEILING}\n"
    ), "")
    assert not out.exists()


@pytest.mark.parametrize("name, modulus, size", [
    ("dense-20", None, 21), ("dense-64", None, 65), ("cross-24", 10007, 48),
])
def test_cli_hs_hits_dense_roabps_within_small_limits(tmp_path, name, modulus, size):
    # dense width-2 layers have 2^n product monomials and a round-combined
    # sweep past 10^16 points; x1*x3 - x2*x4 times dense layers has a zero
    # constant image.  Each takes a short sweep whose set hits, in a child
    # capped at 512 MB and 20 s of CPU
    from test_isolate import cross_times_dense

    n = int(name.split("-")[1])
    inst = dense_width2(n) if name.startswith("dense") else cross_times_dense(n, Field(modulus))
    circuit_path = write_instance(tmp_path, f"{name}.json", inst)
    out = tmp_path / "pts.txt"
    field = ["--modulus", str(modulus)] if modulus else []
    proc = run_cli("hs", "roabp", "--input", circuit_path, "--out", str(out), *field,
                   timeout=60, preexec_fn=capped(20))
    assert (proc.returncode, proc.stderr) == (0, "")
    assert proc.stdout.startswith(f"wrote {size} points to ")
    proc = run_cli("test", "--input", circuit_path, "--points", str(out), *field,
                   timeout=60, preexec_fn=capped(20))
    assert (proc.returncode, proc.stderr) == (0, "")
    assert proc.stdout.startswith("test: pass witness=")


def test_cli_test_decides_a_zero_roabp_past_the_expansion_ceiling(tmp_path, capsys):
    # a zero f with 2^21 product monomials: `expand` refuses it, and `test`
    # decides it by span propagation (a vacuous pass, exit 0)
    from test_isolate import cross_times_dense

    inst = cross_times_dense(24, Field(2**61 - 1), zero=True)
    circuit_path = write_instance(tmp_path, "zero.json", inst)
    points_path = str(tmp_path / "pts.txt")
    assert main(["expand", "--input", circuit_path]) == 3
    assert main(["hs", "roabp", "--input", circuit_path, "--out", points_path]) == 0
    capsys.readouterr()
    assert main(["test", "--input", circuit_path, "--points", points_path]) == 0
    assert capsys.readouterr().out == "test: vacuous-pass (zero instance, 25 points)\n"


@pytest.mark.parametrize("modulus, stderr", [
    (None, "capability error: curve sweep needs 239148451 distinct values, "
           "modulus 10007 too small\n"),
    (2**61 - 1, "capability error: hitting set of 239148451 points exceeds "
                f"the ceiling {io_cli.HS_POINT_CEILING}\n"),
])
def test_cli_width2_blackbox_refuses_before_building_anchors(tmp_path, modulus, stderr):
    # (n, d, w, s, delta) = (14, 3, 2, 2, 2) has the 3^14 = 4,782,969 grid
    # points as its blackbox anchors: building them takes far more memory
    # and CPU than the limits below allow, so the refusal must come from
    # len()
    from test_blackbox_whole_class import declared_instance

    def cap():
        resource.setrlimit(resource.RLIMIT_AS, (512 * 2**20, 512 * 2**20))
        resource.setrlimit(resource.RLIMIT_CPU, (5, 5))

    inst = declared_instance(14, 3, 2, 2, 2, Field(10007))
    circuit_path = write_instance(tmp_path, "w2.json", inst)
    out = tmp_path / "pts.txt"
    argv = ["hs", "width2", "--mode", "blackbox", "--input", circuit_path, "--out", str(out)]
    if modulus:
        argv += ["--modulus", str(modulus)]
    proc = run_cli(*argv, timeout=60, preexec_fn=cap)
    assert (proc.returncode, proc.stderr, proc.stdout) == (3, stderr, "")
    assert not out.exists()


def test_cli_hs_checks_the_ceiling_before_opening_the_file(tmp_path, capsys, monkeypatch):
    inst = generate_instance(
        InstanceSpec(klass="roabp", seed=3, n=3, d=2, w=2, s=2, delta=1)
    )
    circuit_path = write_instance(tmp_path, "c.json", inst)
    out = tmp_path / "pts.txt"
    assert main(["hs", "roabp", "--input", circuit_path, "--out", str(out)]) == 0
    count = len(load_points(str(out)))
    out.unlink()
    monkeypatch.setattr(io_cli, "HS_POINT_CEILING", count)
    assert main(["hs", "roabp", "--input", circuit_path, "--out", str(out)]) == 0
    out.unlink()
    monkeypatch.setattr(io_cli, "HS_POINT_CEILING", count - 1)
    capsys.readouterr()
    assert main(["hs", "roabp", "--input", circuit_path, "--out", str(out)]) == 3
    assert f"hitting set of {count} points exceeds the ceiling {count - 1}" in (
        capsys.readouterr().err)
    assert not out.exists()


@pytest.mark.parametrize("family, klass", [
    ("roabp", "roabp"), ("invertible", "invertible-roabp"), ("width2", "width2-roabp"),
])
@pytest.mark.parametrize("mode", ["whitebox", "blackbox"])
def test_cli_hs_too_small_a_field_leaves_no_file(tmp_path, capsys, family, klass, mode):
    # the sets are built lazily, but their size checks still run before
    # --out opens; at delta = 2 not even the grid's 3 values fit GF(3)
    inst = next(inst for seed in range(3, 20) if (inst := generate_instance(
        InstanceSpec(klass=klass, seed=seed, n=3, d=2, w=2, s=2, delta=2, mu=1)
    )).delta == 2)
    circuit_path = write_instance(tmp_path, "c.json", inst)
    out = tmp_path / "pts.txt"
    assert main(["hs", family, "--mode", mode, "--input", circuit_path,
                 "--modulus", "3", "--out", str(out)]) == 3
    err = capsys.readouterr().err
    assert err.startswith("capability error: ") and ("modulus 3" in err or "GF(3)" in err)
    assert not out.exists()


def test_cli_small_field_invertible_is_a_capability_error(tmp_path):
    # at p = 3 the grid 1..3 of delta = 2 does not fit: exit 3, not a
    # traceback.  (The paper's shift search refuses a field too small for
    # its t0 budget; the CLI no longer reaches it at this size, see
    # test_concentrate.)
    inst = generate_instance(InstanceSpec(
        klass="invertible-roabp", seed=195, modulus=3,
        n=4, d=2, w=2, s=2, delta=2, mu=1, invertible_constant=True,
    ))
    assert inst.delta == 2
    circuit_path = write_instance(tmp_path, "inv.json", inst)
    proc = run_cli("hs", "invertible", "--input", circuit_path)
    assert proc.returncode == 3, proc.stderr
    assert "Traceback" not in proc.stderr
    assert proc.stderr == "capability error: grid 1..3 does not fit in GF(3)\n"


NO_VARIABLES = {
    "no-blocks": {"blocks": [], "layers": []},
    "one-empty-block": {"blocks": [[]], "layers": [[{"exponents": {}, "matrix": [[1]]}]]},
}


@pytest.mark.parametrize("mode", ["whitebox", "blackbox"])
@pytest.mark.parametrize("family", ["roabp", "invertible"])
@pytest.mark.parametrize("shape", list(NO_VARIABLES))
def test_cli_hs_refuses_an_instance_without_variables(tmp_path, capsys, shape, family, mode):
    doc = dict(MINIMAL_ROABP, variables=[], **NO_VARIABLES[shape])
    path = tmp_path / "empty.json"
    path.write_text(json.dumps(doc))
    assert main(["hs", family, "--mode", mode, "--input", str(path)]) == 2
    assert "at least one variable" in capsys.readouterr().err
    # the expansion oracle still reads the constant polynomial
    assert main(["expand", "--input", str(path)]) == 0
    assert capsys.readouterr().out == "terms: 1\n1\nzero: no\n"


def test_cli_shift_search_counts_low_support_monomials_first(tmp_path, capsys, monkeypatch):
    # individual degree 10^6: the low-support grid takes the values
    # 1..10^6 + 1, more than GF(10007) has, which is checked before any
    # shift map is tried
    doc = json.loads(json.dumps(MINIMAL_ROABP))
    doc["layers"][0][0]["exponents"] = {"x1": 10**6}
    path = tmp_path / "steep.json"
    path.write_text(json.dumps(doc))
    tried = []
    monkeypatch.setattr(concentrate, "_shift_maps", lambda *a: tried.append(a) or iter(()))
    assert main(["hs", "invertible", "--input", str(path)]) == 3
    assert capsys.readouterr().err == (
        "capability error: grid 1..1000001 does not fit in GF(10007)\n"
    )
    assert not tried


def test_cli_hs_has_no_ceiling_option(tmp_path, capsys):
    inst = generate_instance(
        InstanceSpec(klass="roabp", seed=3, n=3, d=2, w=2, s=2, delta=1)
    )
    circuit_path = write_instance(tmp_path, "c.json", inst)
    with pytest.raises(SystemExit) as exc:
        main(["hs", "roabp", "--input", circuit_path, "--ceiling", "5"])
    assert exc.value.code == 2
    assert "unrecognized arguments: --ceiling 5" in capsys.readouterr().err


def _paths(node, prefix=()):
    """Every path into a JSON document, the root excluded."""
    children = node.items() if isinstance(node, dict) else (
        enumerate(node) if isinstance(node, list) else ()
    )
    for key, child in children:
        yield prefix + (key,)
        yield from _paths(child, prefix + (key,))


# integers stay small so that no huge prime modulus reaches the primality test
JSON_VALUES = st.recursive(
    st.one_of(
        st.none(), st.booleans(), st.integers(-3, 10**6),
        st.sampled_from(["", "a", "x1", "x2", "7"]),
    ),
    lambda inner: st.one_of(
        st.lists(inner, max_size=3),
        st.dictionaries(
            st.sampled_from(["x1", "x2", "exponents", "matrix", "value", "forms",
                             "coeffs", "const", "scale"]),
            inner, max_size=3,
        ),
    ),
    max_leaves=6,
)


@settings(max_examples=200, deadline=None,
          suppress_health_check=[HealthCheck.function_scoped_fixture])
@given(data=st.data())
def test_cli_survives_mutated_documents(tmp_path, capsys, data):
    doc = json.loads(json.dumps(data.draw(st.sampled_from([MINIMAL_ROABP, MINIMAL_DEPTH3]))))
    for _ in range(data.draw(st.integers(1, 3))):
        paths = list(_paths(doc))
        if not paths:
            break
        path = data.draw(st.sampled_from(paths))
        parent = doc
        for key in path[:-1]:
            parent = parent[key]
        if data.draw(st.booleans()):
            del parent[path[-1]]
        else:
            parent[path[-1]] = data.draw(JSON_VALUES)
    circuit = tmp_path / "mutated.json"
    circuit.write_text(json.dumps(doc))
    assert main(["expand", "--input", str(circuit)]) in (0, 2, 3)
    capsys.readouterr()


def _out_call(tmp_path, command):
    """The argv of an `hs` or `decompose` call without its --out, and the
    bytes it writes to a fresh --out file."""
    if command == "hs":
        inst = generate_instance(InstanceSpec(klass="roabp", seed=3, n=3, d=2, w=2, s=2, delta=1))
        argv = ["hs", "roabp", "--input", write_instance(tmp_path, "c.json", inst)]
    else:
        inst = generate_instance(InstanceSpec(klass="sum-sml", seed=7, n=5, k=3, c=2))
        argv = ["decompose", "--input", write_instance(tmp_path, "d.json", inst)]
    fresh = tmp_path / "fresh.out"
    assert main([*argv, "--out", str(fresh)]) == 0
    data = fresh.read_bytes()
    fresh.unlink()
    return argv, data


@pytest.mark.parametrize("command", ["hs", "decompose"])
def test_cli_out_overwrites_a_longer_file_and_a_symlink(tmp_path, capsys, command):
    argv, fresh = _out_call(tmp_path, command)
    stale = b"9" * (3 * len(fresh)) + b"\n"
    out, link = tmp_path / "out.txt", tmp_path / "link.txt"
    out.write_bytes(stale)
    assert main([*argv, "--out", str(out)]) == 0
    assert out.read_bytes() == fresh
    out.write_bytes(stale)
    link.symlink_to(out)
    assert main([*argv, "--out", str(link)]) == 0
    assert link.is_symlink() and out.read_bytes() == fresh
    capsys.readouterr()


@pytest.mark.parametrize("command", ["hs", "decompose"])
def test_cli_out_writes_to_devices_and_fifos(tmp_path, capsys, command):
    argv, fresh = _out_call(tmp_path, command)
    assert main([*argv, "--out", os.devnull]) == 0
    fifo = tmp_path / "fifo"
    os.mkfifo(fifo)
    read = []
    reader = threading.Thread(target=lambda: read.append(fifo.read_bytes()), daemon=True)
    reader.start()
    try:
        assert main([*argv, "--out", str(fifo)]) == 0
    finally:
        reader.join(timeout=10)
    assert read == [fresh]
    capsys.readouterr()


def test_cli_hs_past_the_ceiling_leaves_an_existing_file_untouched(
    tmp_path, capsys, monkeypatch
):
    argv, _ = _out_call(tmp_path, "hs")
    out = tmp_path / "pts.txt"
    out.write_bytes(b"an older file\n")
    monkeypatch.setattr(io_cli, "HS_POINT_CEILING", 0)
    assert main([*argv, "--out", str(out)]) == 3
    assert out.read_bytes() == b"an older file\n"
    capsys.readouterr()


def test_save_points_that_raises_mid_stream_leaves_a_rejected_file(tmp_path):
    count = 3 * io_cli._POINTS_PER_WRITE

    def rows():
        for i in range(count):
            if i == io_cli._POINTS_PER_WRITE + 5:
                raise RuntimeError("family failed")
            yield (i, i + 1)

    path = tmp_path / "pts.txt"
    save_points(PointSet(2, tuple((i, i) for i in range(count)), {}), str(path))
    with pytest.raises(RuntimeError, match="family failed"):
        save_points(PointSet(2, PointFamily(count, rows), {}), str(path))
    with pytest.raises(StructuralError, match=f"header count={count} but"):
        tuple(load_points(str(path)).points)


# argv the top parser reports itself, and argv each subcommand's parser
# reports or accepts
DISPATCH_ARGV = [
    [], ["-h"], ["--help"], ["frob"], ["frob", "--input", "c.json"], ["hs"], ["hs", "-h"],
    ["hs", "roabp"], ["hs", "roabp", "--inp", "c.json"], ["hs", "roabp", "--inp=c.json"],
    ["hs", "roabp", "--input"], ["hs", "roabp", "--input", "c.json", "--mo", "blackbox"],
    ["hs", "roabp", "--input", "c.json", "--mode", "grey"],
    ["hs", "roabp", "--input", "c.json", "extra", "--bogus"],
    ["hs", "--", "roabp", "--input", "c.json"], ["test", "--points", "p.txt"],
    ["whitebox", "sum-sml", "--input", "c.json", "--ceiling", "x"],
    ["decompose", "--input", "d.json", "--out", "o.json", "--he"],
    ["verify", "--class", "trees", "--samples", "2"], ["verify", "--samples", "2"],
    ["verify", "--class", "roabp", "--samples", "2", "--param", "n=3", "--param", "d=2"],
]


def _parsed(parse, argv):
    """Exit code, stdout, stderr and, on success, the recorded parsed fields
    of `parse(argv, recorded)`."""
    recorded = []
    out, err = io.StringIO(), io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        try:
            code = parse(argv, recorded)
        except SystemExit as exc:
            code = exc.code
    return code, out.getvalue(), err.getvalue(), recorded


def _recording_parser(recorded):
    """`build_parser()` whose subcommands record their parsed fields."""
    parser = build_parser()
    for command in parser.commands.values():
        command.set_defaults(func=lambda args: recorded.append(
            {k: v for k, v in vars(args).items() if k not in ("command", "func")}) or 0)
    return parser


@pytest.mark.parametrize("argv", DISPATCH_ARGV, ids=" ".join)
def test_cli_dispatch_parses_as_the_top_parser(monkeypatch, argv):
    def reference(argv, recorded):
        args = _recording_parser(recorded).parse_args(argv)
        return args.func(args)

    def dispatched(argv, recorded):
        monkeypatch.setattr(io_cli, "_PARSER", _recording_parser(recorded))
        return main(argv)

    expected = _parsed(reference, argv)
    assert _parsed(dispatched, argv) == expected
    # sys.argv[1:] when main is given no argv
    monkeypatch.setattr(sys, "argv", ["pitkit", *argv])
    assert _parsed(lambda _, recorded: dispatched(None, recorded), argv) == expected
