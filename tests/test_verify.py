"""Generators, oracles, and campaign determinism."""

import hashlib
import itertools

import pytest

from pitkit import depth3
from pitkit.algebra import Field, MatPoly, det_poly
from pitkit.depth3 import Depth3Circuit, Gate, LinearForm
from pitkit.errors import StructuralError
from pitkit.roabp import EXPAND_CEILING, PointSet, Roabp
from pitkit.verify import (
    HITTING_SETS,
    DetStream,
    InstanceSpec,
    _campaign_case,
    _case_overrides,
    generate_instance,
    oracle_is_zero,
    run_campaign,
    verify_hitting_property,
)

F = Field(10007)


def test_stream_is_deterministic_and_keyed():
    a = [DetStream(42).randint(0, 10**6) for _ in range(5)]
    b = [DetStream(42).randint(0, 10**6) for _ in range(5)]
    assert a == b
    assert DetStream(1).randint(0, 10**6) != DetStream(2).randint(0, 10**6)


def test_stream_reads_each_digest_as_four_big_endian_words():
    # the definition: word k of digest c is bytes 8k..8k+7 of
    # sha256("seed:c"), big-endian, read in order
    stream = DetStream("s")
    top = 2**64 - 1
    words = [stream.randint(0, top) for _ in range(11)]
    digests = b"".join(hashlib.sha256(f"s:{c}".encode()).digest() for c in range(3))
    assert words == [int.from_bytes(digests[8 * k:8 * k + 8], "big") for k in range(11)]


def test_identical_spec_identical_instance():
    spec = InstanceSpec(klass="roabp", seed=8, n=4, d=3, w=2, s=3, delta=2)
    a = generate_instance(spec)
    b = generate_instance(spec)
    assert a.expand()[1] == b.expand()[1]
    assert a.blocks == b.blocks


def test_oracle_cancelled_gates():
    form = LinearForm(1, {0: 2})
    c = Depth3Circuit(F, 1, (Gate(3, (form,)), Gate(-3, (form,))))
    assert oracle_is_zero(c)


def test_oracle_single_monomial_instance():
    c = Depth3Circuit(F, 2, (Gate(1, (LinearForm(0, {0: 1}), LinearForm(0, {1: 1}))),))
    assert not oracle_is_zero(c)


def test_oracle_agrees_with_grid_on_tiny_instances():
    for seed in range(10):
        spec = InstanceSpec(
            klass="roabp", seed=seed, n=3, d=2, w=2, s=2, delta=1, nonzero=False
        )
        inst = generate_instance(spec)
        _, scalar = inst.expand()
        degree = scalar.total_degree()
        grid_zero = all(
            inst.evaluate(pt) == 0
            for pt in itertools.product(range(degree + 1), repeat=3)
        )
        assert oracle_is_zero(inst) == grid_zero


def test_invertible_spec_layers_pass_det_check():
    spec = InstanceSpec(klass="invertible-roabp", seed=4, n=4, d=3, w=2, s=3, delta=2)
    inst = generate_instance(spec)
    for layer in inst.layers:
        assert not det_poly(layer.entry_grid()).is_zero()


def test_sum_sml_spec_collapses_partitions():
    spec = InstanceSpec(klass="sum-sml", seed=6, n=6, k=3, c=2)
    circuit = generate_instance(spec)
    assert len(circuit.distinct_partitions()) <= 2


def test_engineered_zero_instances_are_zero():
    for seed in range(10):
        spec = InstanceSpec(klass="sum-sml", seed=seed, n=5, k=3, c=2, engineered_zero=True)
        circuit = generate_instance(spec)
        assert oracle_is_zero(circuit)


def test_vacuous_pass_for_zero_instance():
    form = LinearForm(1, {0: 2})
    c = Depth3Circuit(F, 1, (Gate(3, (form,)), Gate(-3, (form,))))
    report = verify_hitting_property(c, PointSet(1, ((5,), (6,))))
    assert report.vacuous and report.passed


def test_empty_point_set_fails_nonzero_instance():
    c = Depth3Circuit(F, 2, (Gate(1, (LinearForm(0, {0: 1}),)),))
    report = verify_hitting_property(c, PointSet(2, ()))
    assert not report.passed and not report.vacuous


def test_witness_needs_no_oracle():
    # prod_i (1 + x_i + ... + x_i^7): 8^7 terms, past the expansion ceiling;
    # it vanishes at x = (-1, ..., -1) and is 8^7 at x = (1, ..., 1)
    n = 7
    layers = [
        MatPoly(F, n, 1, {tuple(k if v == i else 0 for v in range(n)): ((1,),) for k in range(8)})
        for i in range(n)
    ]
    inst = Roabp.with_constant_boundaries(F, n, [(i,) for i in range(n)], layers, (1,), (1,))
    assert inst.expansion_estimate() > EXPAND_CEILING
    report = verify_hitting_property(inst, PointSet(n, ((F.p - 1,) * n, (1,) * n)))
    assert (report.passed, report.vacuous, report.witness_index) == (True, False, 1)


def test_roabp_draws_past_the_expansion_ceiling_are_generated():
    # the nonzero check decides a draw by span propagation, so a draw whose
    # expansion estimate passes the ceiling is still generated
    spec = InstanceSpec(klass="roabp", seed=0, n=40, d=20, w=3, s=3, delta=2, mu=2)
    inst = generate_instance(spec)
    assert inst.expansion_estimate() > EXPAND_CEILING and not inst.is_zero()


def test_unknown_class_rejected():
    with pytest.raises(StructuralError):
        generate_instance(InstanceSpec(klass="mystery", seed=0))


@pytest.mark.parametrize("samples", [0, 3])
def test_campaign_refuses_an_unknown_class_before_any_case(samples):
    with pytest.raises(StructuralError, match="unknown campaign class 'bogus'"):
        run_campaign("bogus", samples)


@pytest.mark.parametrize("w", [1, 3])
def test_roabp_refuses_force_singular_off_width_two(w):
    spec = InstanceSpec(klass="roabp", seed=0, w=w, force_singular=True)
    with pytest.raises(StructuralError, match=f"force_singular=True needs w=2, got w={w}"):
        generate_instance(spec)
    # width2-roabp draws at w = 2 whatever the spec's w
    forced = generate_instance(spec.replace(klass="width2-roabp"))
    assert forced.width == 2
    assert forced != generate_instance(spec.replace(klass="width2-roabp", force_singular=False))


def test_campaign_reports_are_deterministic():
    a = run_campaign("roabp", 6, seed=0)
    b = run_campaign("roabp", 6, seed=0)
    assert a.render() == b.render()
    assert a.all_passed


def test_campaigns_pass_across_classes():
    for klass, samples in [
        ("roabp", 5),
        ("invertible-roabp", 4),
        ("width2-roabp", 4),
        ("depth3-distance", 4),
        ("sum-sml", 6),
    ]:
        result = run_campaign(klass, samples, seed=100)
        assert result.all_passed, result.render()


@pytest.mark.parametrize("modulus", [10007, 5])
@pytest.mark.parametrize("klass", ["roabp", "invertible-roabp"])
def test_campaign_sets_never_exceed_the_grid(klass, modulus):
    # the grid {g^0..g^delta}^n hits every case, so no case emits more than
    # its (delta+1)^n points, and none reaches a capability limit where the
    # grid's delta + 1 values fit GF(p), as they do at every delta of the
    # campaign envelopes
    generate = HITTING_SETS[klass.removesuffix("-roabp")]
    largest = 0
    for seed in range(200):
        spec = InstanceSpec(
            klass=klass, seed=seed, modulus=modulus, **_case_overrides(klass, seed, {})
        )
        r = generate_instance(spec)
        assert r.delta + 1 < modulus
        size = len(generate(r, "whitebox"))
        assert size <= (r.delta + 1) ** r.n, seed
        largest = max(largest, size)
    assert largest > 1
    result = run_campaign(klass, 200, seed=0, modulus=modulus)
    assert (result.passed, result.limited) == (200, 0)


def test_depth3_distance_case_searches_the_gate_order_once(monkeypatch):
    # seed 0's first generated circuit is accepted: one circuit, one search;
    # the name is counted wherever a module may have imported it
    calls = []
    search = depth3.minimal_distance_order

    def counted(parts):
        calls.append(len(parts))
        return search(parts)

    monkeypatch.setattr("pitkit.depth3.minimal_distance_order", counted)
    monkeypatch.setattr("pitkit.verify.minimal_distance_order", counted, raising=False)
    spec = InstanceSpec(
        klass="depth3-distance", seed=0, **_case_overrides("depth3-distance", 0, {})
    )
    ok, line = _campaign_case(spec)
    assert ok and line.startswith("seed=0: pass distance=")
    assert len(calls) == 1
