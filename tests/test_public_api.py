"""Pinned public names and parameter lists of the public callables.

These callables take an instance and its declared parameters, plus only the
settings some caller varies.  A change that adds a parameter back, or that
deletes or re-adds a public name, must edit this file."""

import inspect
import types

import pytest

import pitkit
from pitkit.algebra import det_poly
from pitkit.concentrate import (
    LagrangeCurve,
    find_concentrating_shift,
    invertible_hitting_set,
    width2_hitting_set,
)
from pitkit.depth3 import Depth3Circuit, circuit_to_roabp
from pitkit.isolate import construct_isolating_weights, greedy_basis, roabp_hitting_set
from pitkit.kron import WeightFn
from pitkit.verify import InstanceSpec, generate_instance, oracle_is_zero


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
    (find_concentrating_shift, ["r"]),
    (Depth3Circuit.expand, ["self", "ceiling"]),
    (LagrangeCurve.sweep, ["self", "count"]),
    (Depth3Circuit.is_zero, ["self", "ceiling"]),
])
def test_parameter_names(fn, names):
    assert params(fn) == names


@pytest.mark.parametrize(
    "generator", [roabp_hitting_set, invertible_hitting_set, width2_hitting_set]
)
def test_generator_contract(generator):
    sig = inspect.signature(generator)
    assert list(sig.parameters) == ["r", "mode"]
    assert sig.parameters["mode"].default == "whitebox"


def test_concentrating_shift_is_a_weight_map_its_prime_and_t0():
    inst = generate_instance(InstanceSpec(
        klass="invertible-roabp", seed=0, n=2, d=1, w=2, s=1, delta=1, mu=1,
    ))
    wfn, prime, t0 = find_concentrating_shift(inst)
    assert isinstance(wfn, WeightFn)
    assert isinstance(prime, int) and isinstance(t0, int)


PUBLIC_NAMES = [
    "BaseSetDecomposition", "CapabilityError", "DEFAULT_MODULUS", "Depth3Circuit",
    "DetStream", "Field", "Gate", "InstanceSpec", "InternalInconsistencyError",
    "LagrangeCurve", "LinearForm", "MatPoly", "ModulusTooSmallError", "PairSet",
    "Partition", "PitError", "PointSet", "PreconditionError", "Roabp",
    "ScalarPoly", "StructuralError", "SumSmlResult", "WeightFn",
    "Width2Factorization", "circuit_to_roabp", "combine_rounds",
    "compute_distance", "construct_isolating_weights",
    "decompose_base_sets", "det_poly", "enumerate_candidate_weights",
    "factorize_width2", "find_concentrating_shift", "friendly_neighborhoods",
    "generate_instance", "greedy_basis", "invertible_hitting_set",
    "invertible_hitting_set_params",
    "low_support_hitting_set", "minimal_distance_order",
    "oracle_is_zero", "roabp_hitting_set", "run_campaign",
    "separating_weights", "sum_sml_whitebox_test", "support_parameter",
    "verify_hitting_property", "width2_hitting_set", "width2_hitting_set_params",
]


def test_public_names():
    # __all__ also lists the submodules its imports bind; they are not pinned
    names = sorted(
        name for name in pitkit.__all__
        if not isinstance(getattr(pitkit, name), types.ModuleType)
    )
    assert names == PUBLIC_NAMES
