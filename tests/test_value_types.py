"""The contract of pitkit's value types, and the import cost they keep out.

Every value type names its fields, in order, in `__match_args__`.
Instances of one class are equal when their field tuples are, hash as that
tuple, show as `Name(field=value, ...)` (`ScalarPoly` and `MatPoly` keep
their short debugging reprs) and refuse attribute assignment and deletion.
`replace` builds a changed copy through the validating constructor, and
`trusted` builds the instance the constructor would, without its checks.
"""

import subprocess
import sys
from pathlib import Path

import pytest

from pitkit import verify
from pitkit.algebra import Field, MatPoly, ScalarPoly, trusted
from pitkit.concentrate import LagrangeCurve, Width2Factorization
from pitkit.depth3 import (
    BaseSetCertificate,
    BaseSetDecomposition,
    Depth3Circuit,
    Gate,
    LinearForm,
    Partition,
    SumSmlResult,
)
from pitkit.errors import CapabilityError, StructuralError
from pitkit.kron import PairSet, WeightFn
from pitkit.roabp import PointSet, Roabp
from pitkit.verify import CampaignResult, HittingReport, InstanceSpec

SRC = Path(__file__).resolve().parents[1] / "src"

F = Field(7)
ONE = ScalarPoly(F, 1, {(0,): 1})
X = MatPoly(F, 1, 1, {(1,): ((1,),)})
FORM = LinearForm(1, {0: 2})
CERT = BaseSetCertificate(frozenset({0}), (0,), 1)

INSTANCE_SPEC_REPR = (
    "InstanceSpec(klass='roabp', seed=0, modulus=10007, n=4, d=3, w=2, delta=2, "
    "s=3, mu=2, k=2, c=2, nonzero=True, force_singular=False, "
    "invertible_constant=False, engineered_zero=False)"
)

# class: (its fields, a sample built by the validating constructor, the
# sample's repr, and a change of one field that makes an unequal instance)
CASES = {
    Field: (
        ("p",),
        lambda: Field(7), "Field(p=7)", {"p": 11},
    ),
    ScalarPoly: (
        ("field", "n", "terms"),
        lambda: ScalarPoly(F, 1, {(1,): 3}), "ScalarPoly(n=1, terms=1)", {"terms": {(1,): 4}},
    ),
    MatPoly: (
        ("field", "n", "w", "terms"),
        lambda: MatPoly(F, 1, 1, {(1,): ((1,),)}), "MatPoly(n=1, w=1, terms=1)",
        {"terms": {(1,): ((2,),)}},
    ),
    Roabp: (
        ("field", "n", "width", "blocks", "layers", "left_boundary", "right_boundary",
         "left_block", "right_block"),
        lambda: Roabp(F, 1, 1, ((0,),), (X,), (ONE,), (ONE,)),
        "Roabp(field=Field(p=7), n=1, width=1, blocks=((0,),), "
        "layers=(MatPoly(n=1, w=1, terms=1),), left_boundary=(ScalarPoly(n=1, terms=1),), "
        "right_boundary=(ScalarPoly(n=1, terms=1),), left_block=(), right_block=())",
        {"layers": (MatPoly(F, 1, 1, {(1,): ((2,),)}),)},
    ),
    PointSet: (
        ("n", "points", "provenance"),
        lambda: PointSet(1, ((0,), (1,)), {"generator": "grid"}),
        "PointSet(n=1, points=((0,), (1,)), provenance={'generator': 'grid'})",
        {"points": ((0,),)},
    ),
    WeightFn: (
        ("weights",),
        lambda: WeightFn((1, 2)), "WeightFn(weights=(1, 2))", {"weights": (2, 1)},
    ),
    PairSet: (
        ("n", "delta", "groups"),
        lambda: PairSet(2, 1, (((0, 1), (1, 0)),)),
        "PairSet(n=2, delta=1, groups=(((0, 1), (1, 0)),))", {"delta": 2},
    ),
    LinearForm: (
        ("constant", "coeffs"),
        lambda: LinearForm(1, {0: 2}), "LinearForm(constant=1, coeffs={0: 2})", {"constant": 0},
    ),
    Gate: (
        ("scale", "forms"),
        lambda: Gate(1, (FORM,)),
        "Gate(scale=1, forms=(LinearForm(constant=1, coeffs={0: 2}),))", {"scale": 2},
    ),
    Depth3Circuit: (
        ("field", "n", "gates"),
        lambda: Depth3Circuit(F, 1, (Gate(1, (FORM,)),)),
        "Depth3Circuit(field=Field(p=7), n=1, "
        "gates=(Gate(scale=1, forms=(LinearForm(constant=1, coeffs={0: 2}),)),))",
        {"gates": ()},
    ),
    Partition: (
        ("ground", "colors"),
        lambda: Partition(frozenset({0, 1}), ({0}, {1})),
        "Partition(ground=frozenset({0, 1}), colors=(frozenset({0}), frozenset({1})))",
        {"colors": ({0, 1},)},
    ),
    BaseSetCertificate: (
        ("base_set", "order", "distance"),
        lambda: BaseSetCertificate(frozenset({0}), (0,), 1),
        "BaseSetCertificate(base_set=frozenset({0}), order=(0,), distance=1)", {"distance": 0},
    ),
    BaseSetDecomposition: (
        ("n", "partition_count", "certificates"),
        lambda: BaseSetDecomposition(1, 1, (CERT,)),
        "BaseSetDecomposition(n=1, partition_count=1, certificates=(BaseSetCertificate("
        "base_set=frozenset({0}), order=(0,), distance=1),))",
        {"certificates": ()},
    ),
    SumSmlResult: (
        ("verdict", "witness", "sweep"),
        lambda: SumSmlResult("nonzero", (0, 1), 4),
        "SumSmlResult(verdict='nonzero', witness=(0, 1), sweep=4)", {"witness": None},
    ),
    Width2Factorization: (
        ("chain", "split_layers", "is_zero"),
        lambda: Width2Factorization((), (0,), True),
        "Width2Factorization(chain=(), split_layers=(0,), is_zero=True)",
        {"is_zero": False},
    ),
    LagrangeCurve: (
        ("field", "anchors"),
        lambda: LagrangeCurve(F, ((1, 2), (3, 4))),
        "LagrangeCurve(field=Field(p=7), anchors=((1, 2), (3, 4)))", {"anchors": ((1, 2),)},
    ),
    InstanceSpec: (
        ("klass", "seed", "modulus", "n", "d", "w", "delta", "s", "mu", "k", "c",
         "nonzero", "force_singular", "invertible_constant", "engineered_zero"),
        lambda: InstanceSpec("roabp", 0), INSTANCE_SPEC_REPR, {"seed": 1},
    ),
    HittingReport: (
        ("vacuous", "passed", "witness_index", "point_count"),
        lambda: HittingReport(False, True, 0, 2),
        "HittingReport(vacuous=False, passed=True, witness_index=0, point_count=2)",
        {"witness_index": 1},
    ),
    CampaignResult: (
        ("klass", "samples", "passed", "lines", "limited"),
        lambda: CampaignResult("roabp", 1, 1, ["seed=0: pass witness=0 size=2"]),
        "CampaignResult(klass='roabp', samples=1, passed=1, "
        "lines=['seed=0: pass witness=0 size=2'], limited=0)",
        {"limited": 1},
    ),
}

IDS = [cls.__name__ for cls in CASES]


def field_values(obj) -> tuple:
    return tuple(getattr(obj, name) for name in type(obj).__match_args__)


@pytest.mark.parametrize("cls", CASES, ids=IDS)
def test_match_args(cls):
    assert cls.__match_args__ == CASES[cls][0]


@pytest.mark.parametrize("cls", CASES, ids=IDS)
def test_equality_and_hash_follow_the_field_tuple(cls):
    _, make, _, change = CASES[cls]
    a, b = make(), make()
    assert a is not b and a == b and not a != b
    other = a.replace(**change)
    assert type(other) is cls and other != a and not other == a
    assert a != field_values(a) and a != object()
    try:
        expected = hash(field_values(a))
    except TypeError:  # a dict or list field: unhashable, as the tuple is
        with pytest.raises(TypeError):
            hash(a)
    else:
        assert hash(a) == hash(b) == expected


@pytest.mark.parametrize("cls", CASES, ids=IDS)
def test_instances_are_immutable(cls):
    obj = CASES[cls][1]()
    before = field_values(obj)
    for name in (*cls.__match_args__, "extra"):
        with pytest.raises(AttributeError):
            setattr(obj, name, None)
        with pytest.raises(AttributeError):
            delattr(obj, name)
    assert field_values(obj) == before
    assert not hasattr(obj, "extra")


@pytest.mark.parametrize("cls", CASES, ids=IDS)
def test_repr(cls):
    assert repr(CASES[cls][1]()) == CASES[cls][2]


@pytest.mark.parametrize("cls", CASES, ids=IDS)
def test_trusted_instances_equal_the_validating_constructors(cls):
    obj = CASES[cls][1]()
    assert trusted(cls, **dict(zip(cls.__match_args__, field_values(obj)))) == obj


def test_replace_runs_the_validating_constructor():
    assert WeightFn((1, 2)).replace(weights=[3, 4]).weights == (3, 4)
    with pytest.raises(StructuralError):
        WeightFn((1, 2)).replace(weights=(0,))
    with pytest.raises(StructuralError):
        InstanceSpec("roabp", 0).replace(n=0)
    with pytest.raises(TypeError):
        InstanceSpec("roabp", 0).replace(size=3)


def test_defaults():
    a, b = PointSet(1, ()), PointSet(1, ())
    assert a.provenance == {} and a.provenance is not b.provenance
    r = Roabp(F, 1, 1, ((0,),), (X,), (ONE,), (ONE,))
    assert r.left_block == () and r.right_block == ()
    assert Width2Factorization((), ()).is_zero is False
    assert CampaignResult("roabp", 0, 0, []).limited == 0
    spec = InstanceSpec("sum-sml", 3)
    assert field_values(spec)[2:] == (
        10007, 4, 3, 2, 2, 3, 2, 2, 2, True, False, False, False,
    )


def test_cached_properties_cache_on_frozen_instances():
    r = Roabp(F, 1, 1, ((0,),), (X,), (ONE,), (ONE,))
    assert r.delta == 1 and r.__dict__["delta"] == 1
    assert X.det is X.det


def test_positional_match_follows_the_fields():
    match InstanceSpec("width2-roabp", 5):
        case InstanceSpec(klass, seed, modulus):
            assert (klass, seed, modulus) == ("width2-roabp", 5, 10007)


def test_rejection_message_shows_the_spec(monkeypatch):
    monkeypatch.setattr(verify, "REJECTION_BUDGET", 0)
    with pytest.raises(CapabilityError) as info:
        verify.generate_instance(InstanceSpec("roabp", 0))
    assert str(info.value) == f"rejection budget exhausted for {INSTANCE_SPEC_REPR}"


@pytest.mark.parametrize("module", ["pitkit", "pitkit.io_cli"])
def test_import_loads_neither_dataclasses_nor_inspect(module):
    # -S: no site hook loads either module first, so the check cannot pass
    # vacuously; -B: the child writes no bytecode into the source tree
    code = (
        f"import sys; sys.path.insert(0, {str(SRC)!r}); import {module}; "
        "print(' '.join(sorted(sys.modules)))"
    )
    out = subprocess.run(
        [sys.executable, "-I", "-S", "-B", "-c", code],
        check=True, capture_output=True, text=True,
    ).stdout.split()
    assert module in out
    assert "dataclasses" not in out and "inspect" not in out
