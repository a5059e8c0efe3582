"""Partitions, distance, the ROABP reduction, base sets, and the whitebox
sum-of-set-multilinear test."""

import itertools
import math
import random

import pytest

from pitkit.algebra import Field, ScalarPoly
from pitkit import depth3
from pitkit.depth3 import (
    CUBE_BLOCK,
    Depth3Circuit,
    Gate,
    LinearForm,
    Partition,
    circuit_to_roabp,
    compute_distance,
    decompose_base_sets,
    friendly_neighborhoods,
    minimal_distance_order,
    sum_sml_whitebox_test,
)
from pitkit.errors import CapabilityError, InternalInconsistencyError, StructuralError
from pitkit.verify import (
    HittingReport,
    InstanceSpec,
    _case_overrides,
    generate_instance,
    oracle_is_zero,
    verify_hitting_property,
)
from reference import base_sets, variable

F = Field(10007)


def rows_partition(side):
    return Partition.of_lists(
        [[side * r + c for c in range(side)] for r in range(side)]
    )


def residues_partition(side):
    return Partition.of_lists(
        [[side * r + c for r in range(side)] for c in range(side)]
    )


# ---------------------------------------------------------------------------
# neighborhoods and distance


def test_first_partition_colors_are_their_own_classes():
    part = Partition.of_lists([[0, 1], [2], [3, 4]])
    classes = friendly_neighborhoods([part], 0)
    assert sorted(len(k) for k in classes) == [1, 1, 1]


def test_singleton_then_pairs_has_distance_one():
    singles = Partition.of_lists([[v] for v in range(6)])
    pairs = Partition.of_lists([[0, 1], [2, 3], [4, 5]])
    classes = friendly_neighborhoods([singles, pairs], 1)
    assert all(len(k) == 1 for k in classes)
    assert compute_distance([singles, pairs]) == 1


def test_rows_then_residues_merge_into_one_class():
    seq = [rows_partition(3), residues_partition(3)]
    classes = friendly_neighborhoods(seq, 1)
    assert len(classes) == 1 and len(classes[0]) == 3
    assert compute_distance(seq) == 3


def test_identical_partitions_distance_one():
    part = rows_partition(3)
    assert compute_distance([part, part, part]) == 1


def test_singleton_sequence_distance_one():
    assert compute_distance([rows_partition(3)]) == 1


def test_distance_invariant_under_relabeling():
    rnd = random.Random(17)
    p1 = Partition.of_lists([[0, 1, 2], [3, 4], [5]])
    p2 = Partition.of_lists([[0, 3], [1, 4], [2, 5]])
    base = compute_distance([p1, p2])
    perm = rnd.sample(range(6), 6)
    q1 = Partition.of_lists([[perm[v] for v in c] for c in p1.colors])
    q2 = Partition.of_lists([[perm[v] for v in c] for c in p2.colors])
    assert compute_distance([q1, q2]) == base


def bruteforce_distance(seq):
    """Definition-level search: for each color, the smallest color set
    containing it whose variable union is exactly partitioned above."""
    import itertools as it

    worst = 1
    for j in range(1, len(seq)):
        colors = seq[j].colors
        for anchor in colors:
            best = None
            others = [c for c in colors if c != anchor]
            for size in range(0, len(others) + 1):
                if best is not None:
                    break
                for extra in it.combinations(others, size):
                    union = frozenset(anchor).union(*extra) if extra else frozenset(anchor)
                    exact = all(
                        not (c & union) or c <= union
                        for upper in seq[:j]
                        for c in upper.colors
                    )
                    if exact:
                        best = 1 + size
                        break
            worst = max(worst, best)
    return worst


def test_distance_matches_bruteforce_minimal_sets():
    rnd = random.Random(47)
    for _ in range(25):
        n = rnd.randint(3, 7)
        k = rnd.randint(2, 3)
        seq = [random_partition(rnd, n, rnd.randint(2, 4)) for _ in range(k)]
        assert compute_distance(seq) == bruteforce_distance(seq)


def test_inconsistent_grounds_rejected():
    p1 = Partition.of_lists([[0, 1]])
    p2 = Partition.of_lists([[0, 1, 2]])
    with pytest.raises(StructuralError):
        compute_distance([p1, p2])


# ---------------------------------------------------------------------------
# expansion oracle


def _reference_expand(c):
    """The gates multiplied out as products and sums of `ScalarPoly`s, each
    form built from `ScalarPoly.const` and `reference.variable`."""
    total = ScalarPoly.zero(c.field, c.n)
    for gate in c.gates:
        prod = ScalarPoly.const(c.field, c.n, gate.scale)
        for form in gate.forms:
            poly = ScalarPoly.const(c.field, c.n, form.constant)
            for v, a in form.coeffs.items():
                var = variable(c.field, c.n, v)
                poly = poly + var * ScalarPoly.const(c.field, c.n, a)
            prod = prod * poly
        total = total + prod
    return total


def _seeded_circuits(klass, modulus):
    """Eight generated circuits of the class, half of them engineered zeros
    for sum-sml, each followed by its gates minus themselves, a zero."""
    for seed in range(8):
        spec = InstanceSpec(klass=klass, seed=seed, modulus=modulus, n=3 + seed % 5,
                            k=1 + seed % 3, c=1 + seed % 3, delta=1 + seed % 3,
                            engineered_zero=(seed % 2 == 0))
        circuit = generate_instance(spec)
        negated = tuple(Gate(-g.scale, g.forms) for g in circuit.gates)
        yield circuit
        yield Depth3Circuit(circuit.field, circuit.n, circuit.gates + negated)


@pytest.mark.parametrize("modulus", [3, 10007, 2**61 - 1])
@pytest.mark.parametrize("klass", ["sum-sml", "depth3-distance"])
def test_expand_matches_the_reference_on_seeded_circuits(klass, modulus):
    for circuit in _seeded_circuits(klass, modulus):
        assert circuit.expand() == _reference_expand(circuit)


@pytest.mark.parametrize("modulus", [3, 10007, 2**61 - 1])
@pytest.mark.parametrize("klass", ["sum-sml", "depth3-distance"])
def test_is_zero_matches_the_reference_on_seeded_circuits(klass, modulus):
    verdicts = []
    for circuit in _seeded_circuits(klass, modulus):
        verdicts.append(circuit.is_zero())
        assert verdicts[-1] == _reference_expand(circuit).is_zero()
    assert True in verdicts and False in verdicts


def _edge_cases():
    """(circuit, its expansion's terms): a zero scale, a constant-only form,
    a zero form, no gates, n = 0, gates cancelling mod p, and a coefficient
    divisible by p."""
    form = LinearForm(2, {0: 1, 2: 3})
    return [
        (Depth3Circuit(F, 3, (Gate(0, (form,)), Gate(4, (LinearForm(0, {1: 5}),)))),
         {(0, 1, 0): 20}),
        (Depth3Circuit(F, 3, (Gate(2, (LinearForm(7, {}), form)),)),
         {(0, 0, 0): 28, (1, 0, 0): 14, (0, 0, 1): 42}),
        (Depth3Circuit(F, 3, (Gate(2, (LinearForm(0, {}), form)), Gate(1, (form,)))),
         {(0, 0, 0): 2, (1, 0, 0): 1, (0, 0, 1): 3}),
        (Depth3Circuit(F, 3, ()), {}),
        (Depth3Circuit(F, 0, (Gate(3, ()), Gate(2, (LinearForm(5, {}),)))), {(): 13}),
        (Depth3Circuit(F, 0, (Gate(3, ()), Gate(-3, ()))), {}),
        (Depth3Circuit(F, 3, (Gate(F.p - 1, (form,)), Gate(1, (form,)))), {}),
        (Depth3Circuit(F, 3, (Gate(1, (LinearForm(1, {0: F.p, 1: 2}),)),)),
         {(0, 0, 0): 1, (0, 1, 0): 2}),
    ]


def test_expand_matches_the_reference_on_edge_cases():
    for c, terms in _edge_cases():
        assert c.expand() == _reference_expand(c)
        assert c.expand().terms == terms


def test_is_zero_matches_the_reference_on_edge_cases():
    for c, terms in _edge_cases():
        assert c.is_zero() == _reference_expand(c).is_zero() == (not terms)


def _six_terms_without_multiplying(monkeypatch):
    """A circuit of 6 terms, with `_multiply_out` failing if it is called."""
    def no_multiplication(*args):
        raise AssertionError("the ceiling is checked first")

    monkeypatch.setattr(depth3, "_multiply_out", no_multiplication)
    form = LinearForm(1, {0: 1, 1: 1})
    return Depth3Circuit(F, 2, (Gate(1, (form,)), Gate(2, (form,))))


def test_expand_checks_the_ceiling_before_multiplying(monkeypatch):
    c = _six_terms_without_multiplying(monkeypatch)
    with pytest.raises(CapabilityError, match="expansion of 6 terms exceeds the ceiling 5"):
        c.expand(5)


def test_is_zero_checks_the_ceiling_before_multiplying(monkeypatch):
    c = _six_terms_without_multiplying(monkeypatch)
    with pytest.raises(CapabilityError) as err:
        c.is_zero(5)
    assert str(err.value) == "depth-3 expansion of 6 terms exceeds the ceiling 5"


def test_a_verdict_builds_no_exponent_tuple(monkeypatch):
    def no_bits(*args):
        raise AssertionError("a verdict builds no exponent tuple")

    monkeypatch.setattr(depth3, "_bits", no_bits)
    for klass in ("sum-sml", "depth3-distance"):
        circuit = generate_instance(InstanceSpec(klass=klass, seed=3, n=6, k=3, c=2))
        assert not oracle_is_zero(circuit)
    zero = generate_instance(InstanceSpec(klass="sum-sml", seed=3, n=6, k=3, c=2,
                                          engineered_zero=True))
    misses = list(itertools.product((0, 1), repeat=6))
    assert verify_hitting_property(zero, misses) == HittingReport(True, True, None, 64)


def test_expand_converts_only_the_masks_that_survive(monkeypatch):
    converted = []
    bits = depth3._bits

    def counting_bits(mask, n):
        converted.append(mask)
        return bits(mask, n)

    monkeypatch.setattr(depth3, "_bits", counting_bits)
    zero = generate_instance(InstanceSpec(klass="sum-sml", seed=3, n=6, k=3, c=2,
                                          engineered_zero=True))
    assert zero.expand().terms == {} and converted == []
    # 2 + x_0 + 3 x_2 minus 2 + x_0: three summed masks, one survives
    c = Depth3Circuit(F, 3, (Gate(1, (LinearForm(2, {0: 1, 2: 3}),)),
                             Gate(-1, (LinearForm(2, {0: 1}),))))
    assert c.expand().terms == {(0, 0, 1): 3} and converted == [0b001]


def test_bits_matches_binary_parsing():
    rnd = random.Random(31)
    for n in range(71):
        masks = {0, 2**n - 1} | {rnd.getrandbits(n) for _ in range(20)}
        for m in masks:
            assert depth3._bits(m, n) == tuple(map(int, bin(m | 1 << n)[3:]))


# ---------------------------------------------------------------------------
# circuit reduction


def test_k1_set_multilinear_width_is_max_form_sparsity():
    gate = Gate(3, (LinearForm(1, {0: 2, 1: 5}), LinearForm(0, {2: 1})))
    c = Depth3Circuit(F, 3, (gate,))
    r = circuit_to_roabp(c)
    assert r.width == 3
    _, scalar = r.expand()
    assert scalar == c.expand()


def test_distance_one_pair_width_bound():
    g1 = Gate(
        1,
        (LinearForm(0, {0: 1}), LinearForm(0, {1: 1}), LinearForm(1, {2: 2, 3: 1})),
    )
    g2 = Gate(
        5,
        (LinearForm(2, {0: 1, 1: 3}), LinearForm(1, {2: 1}), LinearForm(0, {3: 4})),
    )
    c = Depth3Circuit(F, 4, (g1, g2))
    parts = [c.gate_partition(i) for i in range(2)]
    _, dist = minimal_distance_order(parts)
    r = circuit_to_roabp(c)
    _, scalar = r.expand()
    assert scalar == c.expand()
    # width <= sum over gates of the largest neighborhood product sparsity
    assert r.width <= c.k * (c.n + 1) ** dist


def test_random_low_distance_reductions():
    for seed in range(25):
        circuit = generate_instance(
            InstanceSpec(klass="depth3-distance", seed=seed, n=4 + seed % 5, k=1 + seed % 3, delta=2)
        )
        parts = [circuit.gate_partition(i) for i in range(circuit.k)]
        order, dist = minimal_distance_order(parts)
        assert dist <= 2
        r = circuit_to_roabp(circuit)
        _, scalar = r.expand()
        assert scalar == circuit.expand()
        assert r.width <= circuit.k * (circuit.n + 1) ** dist


def test_distance_order_is_the_minimal_order_of_the_gate_partitions():
    for seed in range(12):
        circuit = generate_instance(
            InstanceSpec(klass="depth3-distance", seed=seed, n=3 + seed % 4, k=1 + seed % 3, delta=3)
        )
        parts = [circuit.gate_partition(i) for i in range(circuit.k)]
        assert circuit.distance_order == minimal_distance_order(parts)
        assert circuit.distance_order is circuit.distance_order


def test_gates_with_omitted_variables_pad_as_singletons():
    gate = Gate(2, (LinearForm(0, {0: 1, 1: 1}),))
    c = Depth3Circuit(F, 4, (gate,))
    part = c.gate_partition(0)
    assert frozenset([2]) in part.colors and frozenset([3]) in part.colors
    r = circuit_to_roabp(c)
    _, scalar = r.expand()
    assert scalar == c.expand()


# ---------------------------------------------------------------------------
# base sets


def test_single_partition_single_base_set():
    dec = decompose_base_sets([rows_partition(3)])
    assert dec.m == 1
    assert dec.within_cap()
    assert dec.certificates[0].distance == 1


def test_rows_residues_decomposition():
    side = 3
    dec = decompose_base_sets([rows_partition(side), residues_partition(side)])
    assert dec.m == 3
    assert dec.m <= 2 * math.isqrt(9)
    assert all(len(b) == 3 for b in base_sets(dec))
    assert dec.within_cap()


def test_tightness_instances():
    for side in (3, 4, 5):
        n = side * side
        dec = decompose_base_sets([rows_partition(side), residues_partition(side)])
        root = math.isqrt(n)
        assert root <= dec.m <= 2 * root
        # every distance-1 base set here has at most sqrt(n) variables
        assert all(len(b) <= root for b in base_sets(dec))


def test_trusted_partitions_equal_the_validating_constructor(monkeypatch):
    # gate_partition and restrict only sort their colors; over the sum-sml
    # campaign, every partition they make is the one Partition(...) checks
    # and sorts, colors in the same order.  The decomposition checks its
    # certificates without restricting, so each certificate's partitions
    # are restricted to its base set here
    made = []

    def checked(method):
        def spy(*args):
            part = method(*args)
            assert part == Partition(part.ground, part.colors)
            made.append(part)
            return part
        return spy

    monkeypatch.setattr(Partition, "restrict", checked(Partition.restrict))
    monkeypatch.setattr(Depth3Circuit, "gate_partition", checked(Depth3Circuit.gate_partition))
    for seed in range(200):
        spec = InstanceSpec(klass="sum-sml", seed=seed, **_case_overrides("sum-sml", seed, {}))
        circuit = generate_instance(spec)
        partitions = circuit.distinct_partitions()
        for cert in decompose_base_sets(partitions).certificates:
            for i in cert.order:
                partitions[i].restrict(cert.base_set)
    assert len(made) > 1000


def random_partition(rnd, n, colors):
    assignment = [rnd.randrange(colors) for _ in range(n)]
    buckets = {}
    for v, c in enumerate(assignment):
        buckets.setdefault(c, []).append(v)
    return Partition.of_lists(list(buckets.values()))


def _refinement_chain(rnd, n, c):
    """c partitions of range(n), each refining the next: the last is drawn,
    and each earlier one splits every color of the one after it."""
    chain = [random_partition(rnd, n, rnd.randint(1, 6))]
    for _ in range(c - 1):
        finer = []
        for color in chain[0].colors:
            members = sorted(color)
            split = random_partition(rnd, len(members), rnd.randint(1, 3))
            finer += [[members[i] for i in part] for part in split.colors]
        chain.insert(0, Partition.of_lists(finer))
    return chain


def _agrees_with_distance(seq, base):
    maps = [{v: i for i, c in enumerate(part.colors) for v in c} for part in seq]
    walk = depth3._refines_in_order(maps, base)
    assert walk == (compute_distance([part.restrict(base) for part in seq]) == 1)
    return walk


def test_refinement_walk_agrees_with_the_distance():
    rnd = random.Random(29)
    outcomes = []
    for _ in range(400):
        c = rnd.randint(1, 4)
        n = rnd.randint(1, 64)
        kind = rnd.choice(["chain", "reversed", "random", "singletons"])
        if kind == "random":
            seq = [random_partition(rnd, n, rnd.randint(1, n)) for _ in range(c)]
        elif kind == "singletons":
            seq = [Partition.of_lists([[v] for v in range(n)])] * c
            seq[rnd.randrange(c)] = random_partition(rnd, n, rnd.randint(1, 4))
        else:
            seq = _refinement_chain(rnd, n, c)
            if kind == "reversed":
                seq.reverse()
        bases = [frozenset(range(n)), frozenset(rnd.sample(range(n), rnd.randint(1, n)))]
        outcomes += [(kind, _agrees_with_distance(seq, base)) for base in bases]
    # refining chains hold on every base; the other kinds fail on some
    assert all(ok for kind, ok in outcomes if kind == "chain")
    for kind in ("reversed", "random", "singletons"):
        assert {ok for k, ok in outcomes if k == kind} == {True, False}


def test_a_non_refining_certificate_names_its_distance(monkeypatch):
    side = 3
    singletons = Partition.of_lists([[v] for v in range(side * side)])
    parts = [rows_partition(side), residues_partition(side), singletons]
    ground = singletons.ground
    # singletons refine the rows, but every row meets all three residue classes
    order = (2, 0, 1)
    monkeypatch.setattr(depth3, "_decompose", lambda *args: [(ground, order)])
    dist = compute_distance([parts[i] for i in order])
    assert dist == side
    with pytest.raises(InternalInconsistencyError) as err:
        decompose_base_sets(parts)
    assert str(err.value) == f"certificate for base set {sorted(ground)} has distance {dist}"


def test_random_families_respect_cap():
    rnd = random.Random(31)
    for _ in range(30):
        c = rnd.choice([2, 3])
        n = rnd.choice([16, 36, 64])
        parts = [random_partition(rnd, n, rnd.randint(2, 6)) for _ in range(c)]
        dec = decompose_base_sets(parts)
        assert dec.within_cap()
        assert dec.m < 2 ** (c - 1) * n ** (1 - 1 / 2 ** (c - 1))
        covered = set()
        for cert in dec.certificates:
            assert cert.distance == 1
            assert not (cert.base_set & covered)
            covered |= cert.base_set
        assert covered == set(range(n))


# ---------------------------------------------------------------------------
# whitebox sum test


def test_cancelled_gates_verdict_zero():
    form_a = LinearForm(1, {0: 2})
    form_b = LinearForm(3, {1: 1, 2: 5})
    c = Depth3Circuit(
        F, 3, (Gate(4, (form_a, form_b)), Gate(-4, (form_a, form_b)))
    )
    result = sum_sml_whitebox_test(c)
    assert result.verdict == "zero" and result.witness is None


def test_single_nonzero_gate_verdict():
    c = Depth3Circuit(F, 3, (Gate(4, (LinearForm(1, {0: 2}), LinearForm(3, {1: 1, 2: 5})),),))
    result = sum_sml_whitebox_test(c)
    assert result.verdict == "nonzero"
    assert c.eval_at(result.witness) != 0


@pytest.mark.parametrize("modulus", [10007, 5, 3])
def test_verdicts_match_oracle_on_random_instances(modulus):
    for seed in range(30):
        spec = InstanceSpec(
            klass="sum-sml", seed=seed, modulus=modulus, n=3 + seed % 7, k=1 + seed % 3,
            c=1 + seed % 3, engineered_zero=(seed % 2 == 0),
        )
        circuit = generate_instance(spec)
        result = sum_sml_whitebox_test(circuit)
        assert result.verdict == ("zero" if oracle_is_zero(circuit) else "nonzero")
        if result.verdict == "nonzero":
            assert circuit.eval_at(result.witness) != 0


def test_result_carries_the_swept_plan():
    for seed in range(10):
        spec = InstanceSpec(klass="sum-sml", seed=seed, n=3 + seed % 5, k=1 + seed % 3,
                            c=1 + seed % 3, engineered_zero=(seed % 2 == 0))
        circuit = generate_instance(spec)
        result = sum_sml_whitebox_test(circuit)
        assert result.sweep == 2**circuit.n


def test_gateless_circuit_is_zero_without_a_sweep(monkeypatch):
    def no_evaluation(*args):
        raise AssertionError("a gateless circuit needs no evaluation")

    monkeypatch.setattr(Depth3Circuit, "eval_at", no_evaluation)
    monkeypatch.setattr(depth3, "_low_table", no_evaluation)
    monkeypatch.setattr(depth3, "_coefficient_route", no_evaluation)
    c = Depth3Circuit(F, 3, ())
    decomp = decompose_base_sets(c.distinct_partitions())
    assert (decomp.partition_count, decomp.m, decomp.certificates, decomp.cap) == (0, 0, (), 0)
    assert decomp.within_cap()
    result = sum_sml_whitebox_test(c)
    assert (result.verdict, result.witness, result.sweep) == ("zero", None, 0)


def _point_sweep(c):
    """Reference for both routes: the cube point by point, in lexicographic
    order, stopping at the first nonzero value."""
    for point in itertools.product((0, 1), repeat=c.n):
        if c.eval_at(point):
            return "nonzero", point, 2**c.n
    return "zero", None, 2**c.n


ROUTES = ("_coefficient_route", "_cube_route")


def _spy_routes(m):
    """Record in the returned list the name of every route helper called."""
    taken = []
    for name in ROUTES:
        route = getattr(depth3, name)

        def spy(circuit, route=route, name=name):
            taken.append(name)
            return route(circuit)

        m.setattr(depth3, name, spy)
    return taken


def _assert_routes_match(c, monkeypatch) -> str:
    """The test's result and each route's witness against the point sweep,
    with no single-point evaluation; returns the route the test took."""
    expected = _point_sweep(c)
    routes = {name: getattr(depth3, name) for name in ROUTES}

    def no_evaluation(self, point):
        raise AssertionError("neither route evaluates a single point")

    with monkeypatch.context() as m:
        m.setattr(Depth3Circuit, "eval_at", no_evaluation)
        taken = _spy_routes(m)
        result = sum_sml_whitebox_test(c)
        witnesses = {name: route(c) for name, route in routes.items()}
    assert (result.verdict, result.witness, result.sweep) == expected
    assert witnesses == dict.fromkeys(ROUTES, expected[1])
    assert len(taken) == 1
    return taken[0]


def _singletons(n, constant, a):
    return tuple(LinearForm(constant, {v: a}) for v in range(n))


@pytest.mark.parametrize("modulus", [3, 10007, 2**61 - 1])
@pytest.mark.parametrize("n", [CUBE_BLOCK - 2, CUBE_BLOCK, CUBE_BLOCK + 3])
def test_blocked_sweep_matches_point_sweep_on_seeded_circuits(modulus, n, monkeypatch):
    # each circuit also runs with a cancelling pair of all-singleton gates
    # added: the same polynomial, with at least 2^(n+1) terms, so the cube
    taken = []
    for seed in range(6):
        spec = InstanceSpec(klass="sum-sml", seed=seed, modulus=modulus, n=n,
                            k=1 + seed % 3, c=1 + seed % 3,
                            engineered_zero=(seed % 2 == 0))
        c = generate_instance(spec)
        forms = _singletons(n, 1, 1)
        padded = Depth3Circuit(c.field, n, c.gates + (Gate(1, forms), Gate(-1, forms)))
        taken += [_assert_routes_match(c, monkeypatch),
                  _assert_routes_match(padded, monkeypatch)]
    assert min(taken.count(name) for name in ROUTES) >= 2


@pytest.mark.parametrize("modulus", [3, 10007, 2**61 - 1])
def test_blocked_sweep_matches_point_sweep_on_late_witnesses(modulus, monkeypatch):
    # forms without constants vanish at the all-zeros point, so witnesses
    # fall anywhere in the cube; constant forms, forms free of the low or
    # the high variables and cancelling gate pairs all occur
    field = Field(modulus)
    rng = random.Random(modulus)
    taken = []
    for _ in range(40):
        n = rng.randint(1, CUBE_BLOCK + 3)
        gates = []
        for _ in range(rng.randint(1, 3)):
            free = rng.sample(range(n), n)
            forms = []
            while free and rng.random() < 0.8:
                size = rng.randint(1, len(free))
                color, free = free[:size], free[size:]
                forms.append(LinearForm(rng.choice([0, 0, 1, rng.randrange(modulus)]),
                                        {v: rng.choice([1, -1, rng.randrange(1, modulus)])
                                         for v in color}))
            if rng.random() < 0.2:
                forms.append(LinearForm(rng.randrange(modulus), {}))
            gates.append(Gate(rng.randrange(1, modulus), tuple(forms)))
        if rng.random() < 0.3:
            gates.append(Gate(-gates[0].scale, gates[0].forms))
        taken.append(_assert_routes_match(Depth3Circuit(field, n, tuple(gates)), monkeypatch))
    assert min(taken.count(name) for name in ROUTES) >= 3


@pytest.mark.parametrize("n", [1, CUBE_BLOCK, CUBE_BLOCK + 1, CUBE_BLOCK + 4])
def test_blocked_sweep_finds_the_last_and_the_first_cube_point(n, monkeypatch):
    last = Depth3Circuit(F, n, (Gate(1, tuple(LinearForm(0, {v: 1}) for v in range(n))),))
    first = Depth3Circuit(F, n, (Gate(1, tuple(LinearForm(1, {v: -1}) for v in range(n))),))
    assert sum_sml_whitebox_test(last).witness == (1,) * n
    assert sum_sml_whitebox_test(first).witness == (0,) * n
    for c in (last, first):
        _assert_routes_match(c, monkeypatch)


def test_blocked_sweep_of_formless_gates_and_supportless_forms(monkeypatch):
    cases = [
        Depth3Circuit(F, 0, (Gate(3, ()),)),
        Depth3Circuit(F, 4, (Gate(3, ()),)),
        Depth3Circuit(F, 4, (Gate(3, ()), Gate(-3, ()))),
        Depth3Circuit(F, CUBE_BLOCK + 2, (Gate(2, (LinearForm(5, {}),)), Gate(-10, ()))),
        Depth3Circuit(F, CUBE_BLOCK + 2, (
            Gate(1, (LinearForm(0, {}), LinearForm(1, {0: 1}))),
            Gate(1, (LinearForm(4, {}), LinearForm(0, {CUBE_BLOCK + 1: 1}))),
        )),
    ]
    for c in cases:
        _assert_routes_match(c, monkeypatch)
    assert sum_sml_whitebox_test(cases[-1]).witness == (0,) * (CUBE_BLOCK + 1) + (1,)


def _route_taken(c, monkeypatch):
    with monkeypatch.context() as m:
        taken = _spy_routes(m)
        result = sum_sml_whitebox_test(c)
    assert (result.verdict, result.witness, result.sweep) == _point_sweep(c)
    return taken


@pytest.mark.parametrize("zero", [True, False])
def test_coarse_forms_take_the_coefficient_route(zero, monkeypatch):
    # three variables per form: at most 4^3 terms per gate against 2^9
    n = 9
    forms = tuple(LinearForm(1 + j, {v: v + 2 for v in range(3 * j, 3 * j + 3)})
                  for j in range(3))
    other = tuple(LinearForm(2, {v: 1 for v in range(j, n, 3)}) for j in range(3))
    gates = (Gate(5, forms), Gate(-5 if zero else 4, forms), Gate(3, other))
    c = Depth3Circuit(F, n, gates + ((Gate(-3, other),) if zero else ()))
    assert c.term_count < 2**n
    assert _route_taken(c, monkeypatch) == ["_coefficient_route"]


@pytest.mark.parametrize("k", [2, 3])
@pytest.mark.parametrize("scale", [1, 2])
def test_all_singleton_gates_take_the_cube(k, scale, monkeypatch):
    # prod (1 + x_i) - prod (1 + scale x_i), plus gates of forms x_i
    n = 10
    gates = (Gate(1, _singletons(n, 1, 1)), Gate(-1, _singletons(n, 1, scale)))
    gates += tuple(Gate(j, _singletons(n, 0, j)) for j in range(1, k - 1))
    c = Depth3Circuit(F, n, gates)
    assert c.term_count >= 2**n
    assert _route_taken(c, monkeypatch) == ["_cube_route"]


def test_expand_ceiling_sends_a_small_circuit_to_the_cube(monkeypatch):
    forms = (LinearForm(1, {0: 1, 1: 2}), LinearForm(0, {2: 3, 3: 1}))
    c = Depth3Circuit(F, 6, (Gate(1, forms), Gate(2, forms[:1])))
    assert c.term_count == 9 < 2**6
    assert _route_taken(c, monkeypatch) == ["_coefficient_route"]
    monkeypatch.setattr(depth3, "EXPAND_CEILING", 9)
    assert _route_taken(c, monkeypatch) == ["_coefficient_route"]
    monkeypatch.setattr(depth3, "EXPAND_CEILING", 8)
    assert _route_taken(c, monkeypatch) == ["_cube_route"]


# three forms of three variables each on x_0..x_8, constants 1, 2 and 3
COARSE = tuple(LinearForm(1 + j, {v: v + 2 for v in range(3 * j, 3 * j + 3)})
               for j in range(3))


def _spy_multiply_out(monkeypatch):
    calls = []
    multiply_out = depth3._multiply_out

    def spy(*args):
        calls.append(args)
        return multiply_out(*args)

    monkeypatch.setattr(depth3, "_multiply_out", spy)
    return calls


def test_coefficient_route_reads_the_all_zeros_point_off_the_constants(monkeypatch):
    n = 9
    # 5 * 1 * 2 * 3 - 3 * 1 * 2 * 3 = 12, not 0 mod p, though the gates share terms
    c = Depth3Circuit(F, n, (Gate(5, COARSE), Gate(-3, COARSE)))
    assert c.term_count < 2**n and c.eval_at((0,) * n) == 12
    calls = _spy_multiply_out(monkeypatch)
    assert _route_taken(c, monkeypatch) == ["_coefficient_route"]
    assert depth3._coefficient_route(c) == (0,) * n
    assert sum_sml_whitebox_test(c).witness == (0,) * n
    assert calls == []


def test_coefficient_route_multiplies_out_when_the_all_zeros_value_is_zero(monkeypatch):
    n = 9
    shifted = COARSE[:2] + (LinearForm(0, {6: 1, 8: 1}),)
    cases = [
        Depth3Circuit(F, n, (Gate(5, COARSE), Gate(-5, COARSE), Gate(1, shifted))),
        Depth3Circuit(F, n, (Gate(5, COARSE), Gate(-5, COARSE))),
    ]
    for c in cases:
        assert c.term_count < 2**n and c.eval_at((0,) * n) == 0
        calls = _spy_multiply_out(monkeypatch)
        assert _assert_routes_match(c, monkeypatch) == "_coefficient_route"
        assert calls
    assert sum_sml_whitebox_test(cases[0]).witness == (0,) * 8 + (1,)
    assert sum_sml_whitebox_test(cases[1]).verdict == "zero"


def test_coefficient_divisible_by_p_leaves_the_support():
    field = Field(7)
    c = Depth3Circuit(field, 2, (Gate(1, (LinearForm(1, {0: 7}), LinearForm(0, {0: 1, 1: 1}))),))
    assert c.gates[0].forms[0].support == frozenset()
    assert c.gate_partition(0).colors == (frozenset({0, 1}),)
    assert sum_sml_whitebox_test(c).witness == (0, 1)
    with pytest.raises(StructuralError, match="variable 0 repeats"):
        Depth3Circuit(field, 2, (Gate(1, (LinearForm(1, {0: 8}), LinearForm(0, {0: 1}))),))


def test_neighborhood_partitions_form_refinement_chain():
    from pitkit.depth3 import _neighborhood_partitions

    seq = [
        Partition.of_lists([[0], [1], [2], [3], [4], [5]]),
        Partition.of_lists([[0, 1], [2, 3], [4, 5]]),
        Partition.of_lists([[0, 2], [1, 3], [4], [5]]),
    ]
    _, primed = _neighborhood_partitions(seq)
    for earlier, later in zip(primed, primed[1:]):
        for color in earlier.colors:
            assert any(color <= big for big in later.colors)
