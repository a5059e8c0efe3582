"""Pinned parameter lists of the public callables.

These callables take an instance and its declared parameters, plus only the
settings some caller varies.  A change that adds a parameter back must edit
this file."""

import dataclasses
import inspect

import pytest

import pitkit
from pitkit.algebra import det_poly
from pitkit.concentrate import (
    LagrangeCurve,
    find_concentrating_shift,
    invertible_hitting_set,
    width2_hitting_set,
)
from pitkit.depth3 import circuit_to_roabp
from pitkit.isolate import construct_isolating_weights, greedy_basis, roabp_hitting_set
from pitkit.kron import WeightFn
from pitkit.roabp import EXPAND_CEILING
from pitkit.verify import HittingReport, InstanceSpec, generate_instance, oracle_is_zero


def params(fn) -> list[str]:
    return list(inspect.signature(fn).parameters)


@pytest.mark.parametrize("fn, names", [
    (construct_isolating_weights, ["factors"]),
    (greedy_basis, ["items", "field"]),
    (det_poly, ["grid"]),
    (oracle_is_zero, ["instance"]),
    (circuit_to_roabp, ["c"]),
    (WeightFn.constant, ["n"]),
    (WeightFn.powers, ["self", "t", "p"]),
    (WeightFn.sweep, ["self", "count", "p"]),
])
def test_parameter_names(fn, names):
    assert params(fn) == names


@pytest.mark.parametrize("cls, names", [
    (LagrangeCurve, ["field", "anchors"]),
    (HittingReport, ["vacuous", "passed", "witness_index", "point_count"]),
])
def test_dataclass_fields(cls, names):
    assert [f.name for f in dataclasses.fields(cls)] == names


@pytest.mark.parametrize(
    "generator", [roabp_hitting_set, invertible_hitting_set, width2_hitting_set]
)
def test_generator_contract(generator):
    sig = inspect.signature(generator)
    assert list(sig.parameters) == ["r", "mode", "expand_ceiling"]
    assert sig.parameters["mode"].default == "whitebox"
    assert sig.parameters["expand_ceiling"].default == EXPAND_CEILING


def test_concentrating_shift_is_a_weight_map_its_prime_and_t0():
    inst = generate_instance(InstanceSpec(
        klass="invertible-roabp", seed=0, n=2, d=1, w=2, s=1, delta=1, mu=1,
    ))
    wfn, prime, t0 = find_concentrating_shift(inst)
    assert isinstance(wfn, WeightFn)
    assert isinstance(prime, int) and isinstance(t0, int)
    assert "ShiftMap" not in pitkit.__all__
