"""Acceptance suite: one test per criterion, each printing a pass/fail line.

Run `pytest -s tests/test_acceptance.py` to see the per-criterion lines, or
`python -m pytest tests/test_acceptance.py -v` for the pytest view.  Every
tolerance is exact; campaigns are fully seeded.
"""

import math
import random

from pitkit.algebra import Field, mat_flatten, mono_zero
from pitkit.concentrate import (
    LagrangeCurve,
    factorize_width2,
    find_concentrating_shift,
    invertible_hitting_set,
    support_parameter,
    width2_hitting_set,
)
from pitkit.depth3 import (
    Partition,
    circuit_to_roabp,
    compute_distance,
    decompose_base_sets,
    minimal_distance_order,
    sum_sml_whitebox_test,
)
from pitkit.isolate import construct_isolating_weights, roabp_hitting_set
from pitkit.kron import PairSet, distinct_reductions, prime_cutoff, separating_weights
from pitkit.verify import (
    DetStream,
    InstanceSpec,
    generate_instance,
    oracle_is_zero,
    run_campaign,
    verify_hitting_property,
)
from reference import (
    all_blocks,
    block_support,
    choice,
    concentration_rank,
    is_basis_isolating,
    rank_over_field,
    width2_alpha,
)

FIELD = Field(10007)


def report(number: int, ok: bool, detail: str) -> None:
    status = "PASS" if ok else "FAIL"
    print(f"criterion {number:2d} {status} - {detail}")
    assert ok, f"criterion {number}: {detail}"


def test_criterion_1_roabp_hitting_completeness():
    passed = 0
    total = 200
    for i in range(total):
        stream = DetStream(f"c1:{i}")
        n = stream.randint(2, 5)
        spec = InstanceSpec(
            klass="roabp", seed=i, n=n, d=stream.randint(1, min(4, n)),
            w=stream.randint(1, 3), s=stream.randint(1, 3),
            delta=stream.randint(1, 2), mu=2,
        )
        inst = generate_instance(spec)
        points = roabp_hitting_set(inst, "whitebox")
        result = verify_hitting_property(inst, points)
        if result.passed and not result.vacuous:
            passed += 1
    report(
        1,
        passed == total,
        f"ROABP whitebox hitting: {passed}/{total} witnesses "
        f"(GF(10007), n<=5, d<=4, w<=3, s<=3, delta<=2)",
    )


def test_criterion_2_basis_isolation_soundness():
    passed = 0
    total = 100
    for i in range(total):
        stream = DetStream(f"c2:{i}")
        n = stream.randint(2, 5)
        spec = InstanceSpec(
            klass="roabp", seed=i, n=n, d=stream.randint(1, min(4, n)), w=2,
            s=stream.randint(1, 3), delta=stream.randint(1, 2), mu=2,
        )
        inst = generate_instance(spec)
        wfn, isolated = construct_isolating_weights(list(inst.layers))
        product, scalar = inst.expand()
        if not is_basis_isolating(wfn, product):
            continue
        substituted = inst.weighted_substitute(wfn)
        if not substituted:
            continue
        assert inst.has_constant_boundaries()
        left, right = (
            [poly.coeff(mono_zero(inst.n)) for poly in vec]
            for vec in (inst.left_boundary, inst.right_boundary)
        )

        def dot(matrix):
            return (
                sum(
                    left[a] * matrix[a][b] * right[b]
                    for a in range(2)
                    for b in range(2)
                )
                % FIELD.p
            )

        surviving = [
            (wfn.monomial_weight(m), dot(coeff))
            for m, coeff in isolated
            if dot(coeff) != 0
        ]
        if not surviving:
            continue
        expected_weight, expected_coeff = min(surviving)
        if min(substituted.items()) == (expected_weight, expected_coeff):
            passed += 1
    report(
        2,
        passed == total,
        f"basis isolation: checker accepts and the lowest substituted term "
        f"is t^w(m*) on {passed}/{total} instances",
    )


def test_criterion_3_kronecker_separator_within_cutoff():
    passed = 0
    total = 100
    for i in range(total):
        stream = DetStream(f"c3:{i}")
        n = stream.randint(2, 8)
        delta = stream.randint(1, 3)
        universe_size = min(14, (delta + 1) ** n)
        monos = set()
        while len(monos) < universe_size:
            monos.add(tuple(stream.randint(0, delta) for _ in range(n)))
        monos = sorted(monos)
        pair_count = stream.randint(1, 50)
        pairs = []
        while len(pairs) < pair_count:
            a = choice(stream, monos)
            b = choice(stream, monos)
            if a != b:
                pairs.append((a, b))
        pair_set = PairSet(n, delta, tuple(pairs))
        wfn = separating_weights(n, delta, pair_set)
        family = distinct_reductions(n, delta, prime_cutoff(n, len(pair_set), delta))
        if wfn in (m for _, m in family) and all(
            wfn.monomial_weight(a) != wfn.monomial_weight(b) for a, b in pairs
        ):
            passed += 1
    report(
        3,
        passed == total,
        f"Kronecker separators verified within the c0=4 cutoff on "
        f"{passed}/{total} pair sets (n<=8, delta<=3, |A|<=50)",
    )


def test_criterion_4_distance_reduction():
    passed = 0
    total = 100
    max_width_ratio = 0.0
    for i in range(total):
        stream = DetStream(f"c4:{i}")
        spec = InstanceSpec(
            klass="depth3-distance", seed=i, n=stream.randint(3, 8),
            k=stream.randint(1, 3), delta=2,
        )
        circuit = generate_instance(spec)
        order, dist = minimal_distance_order(
            [circuit.gate_partition(g) for g in range(circuit.k)]
        )
        reduced = circuit_to_roabp(circuit)
        _, scalar = reduced.expand()
        bound = circuit.k * (circuit.n + 1) ** dist
        if dist <= 2 and scalar == circuit.expand() and reduced.width <= bound:
            passed += 1
            max_width_ratio = max(max_width_ratio, reduced.width / bound)
    report(
        4,
        passed == total,
        f"distance<=2 circuits reduce to ROABPs with equal expansion "
        f"{passed}/{total}; width within k(n+1)^distance (max ratio "
        f"{max_width_ratio:.2f})",
    )


def _random_partition(stream: DetStream, n: int, colors: int) -> Partition:
    assignment = [stream.randint(0, colors - 1) for _ in range(n)]
    buckets: dict[int, list[int]] = {}
    for v, color in enumerate(assignment):
        buckets.setdefault(color, []).append(v)
    return Partition.of_lists(list(buckets.values()))


def test_criterion_5_base_set_caps():
    passed = 0
    total = 100
    for i in range(total):
        stream = DetStream(f"c5:{i}")
        c = choice(stream, [2, 3])
        n = choice(stream, [16, 36, 64])
        parts = [_random_partition(stream, n, stream.randint(2, 6)) for _ in range(c)]
        decomp = decompose_base_sets(parts)
        cap = 2 ** (c - 1) * n ** (1 - 1 / 2 ** (c - 1))
        ok = decomp.m < cap and all(
            cert.distance == 1
            and compute_distance([parts[q].restrict(cert.base_set) for q in cert.order]) == 1
            for cert in decomp.certificates
        )
        if ok:
            passed += 1
    tight_ok = True
    for side in (3, 4, 5):
        n = side * side
        rows = Partition.of_lists(
            [[side * r + col for col in range(side)] for r in range(side)]
        )
        residues = Partition.of_lists(
            [[side * r + col for r in range(side)] for col in range(side)]
        )
        decomp = decompose_base_sets([rows, residues])
        root = math.isqrt(n)
        tight_ok = tight_ok and root <= decomp.m <= 2 * root
    report(
        5,
        passed == total and tight_ok,
        f"base-set caps respected with distance-1 certificates "
        f"{passed}/{total}; row/residue tightness m in [sqrt(n), 2 sqrt(n)] "
        f"for n in {{9,16,25}}: {tight_ok}",
    )


def test_criterion_6_sum_sml_whitebox():
    passed = 0
    total = 100
    zeros = 0
    for i in range(total):
        stream = DetStream(f"c6:{i}")
        engineered = i % 2 == 0
        spec = InstanceSpec(
            klass="sum-sml", seed=i, n=stream.randint(3, 9),
            k=stream.randint(1, 3), c=stream.randint(1, 3),
            engineered_zero=engineered,
        )
        circuit = generate_instance(spec)
        result = sum_sml_whitebox_test(circuit)
        truth = "zero" if oracle_is_zero(circuit) else "nonzero"
        zeros += truth == "zero"
        ok = result.verdict == truth
        if result.verdict == "nonzero":
            ok = ok and result.witness is not None and circuit.eval_at(result.witness) != 0
        if ok:
            passed += 1
    report(
        6,
        passed == total and zeros >= 50,
        f"sum-of-set-multilinear verdicts match the oracle {passed}/{total} "
        f"({zeros} zero instances, {total - zeros} nonzero)",
    )


def test_criterion_7_block_concentration():
    passed = 0
    total = 50
    for i in range(total):
        stream = DetStream(f"c7:{i}")
        n = stream.randint(2, 5)
        d = stream.randint(1, min(4, n))
        spec = InstanceSpec(
            klass="roabp", seed=i, n=n, d=d, w=2,
            s=stream.randint(2, 3), delta=stream.randint(1, 2), mu=2,
            invertible_constant=True, nonzero=False,
        )
        inst = generate_instance(spec)
        product, scalar = inst.expand()
        blocks = list(inst.blocks)
        low, full = concentration_rank(product, 4, "block", blocks=blocks)
        low_c, full_c = concentration_rank(scalar, 6, "block", blocks=all_blocks(inst))
        ok = low == full and low_c == full_c
        vectors = {e: mat_flatten(m) for e, m in product.terms.items()}
        for e, vec in vectors.items():
            bs = block_support(e, blocks)
            if len(bs) == 4:
                smaller = [
                    v for f, v in vectors.items()
                    if len(block_support(f, blocks)) < 4
                ]
                ok = ok and rank_over_field(smaller + [vec], inst.field) == rank_over_field(
                    smaller, inst.field
                )
        # child-to-parent lift on all parent/child pairs present
        def depends_on_descendants(e):
            bs = block_support(e, blocks)
            span = [
                v for f, v in vectors.items() if block_support(f, blocks) < bs
            ]
            return rank_over_field(span + [vectors[e]], inst.field) == rank_over_field(
                span, inst.field
            )

        for e in vectors:
            bs = block_support(e, blocks)
            if not bs or not depends_on_descendants(e):
                continue
            for f in vectors:
                bsf = block_support(f, blocks)
                extra = bsf - bs
                if len(extra) != 1 or not bs < bsf:
                    continue
                j = next(iter(extra))
                if not (j > max(bs) or j < min(bs)):
                    continue
                if any(
                    tuple(e[v] for v in blocks[b]) != tuple(f[v] for v in blocks[b])
                    for b in bs
                ):
                    continue
                ok = ok and depends_on_descendants(f)
        if ok:
            passed += 1
    report(
        7,
        passed == total,
        f"block concentration at w^2 and w^2+2 plus the chain rank facts "
        f"hold on {passed}/{total} invertible-constant-term instances",
    )


def test_criterion_8_invertible_hitting_set():
    passed = 0
    total = 100
    for i in range(total):
        stream = DetStream(f"c8:{i}")
        n = stream.randint(2, 5)
        spec = InstanceSpec(
            klass="invertible-roabp", seed=i, n=n, d=stream.randint(1, min(3, n)),
            w=2, s=stream.randint(1, 3), delta=stream.randint(1, 2), mu=1,
        )
        inst = generate_instance(spec)
        _, _, t0 = find_concentrating_shift(inst)
        points = invertible_hitting_set(inst)
        ell = support_parameter(2, max(1, inst.layer_sparsity), inst.layer_support)
        subset = min(ell * 6 - 1, inst.n)
        grid_size = math.comb(inst.n, subset) * (inst.delta + 1) ** subset
        size_ok = len(points) == grid_size * 1 * 1  # grid * t_sweep * maps
        result = verify_hitting_property(inst, points)
        if size_ok and result.passed and not result.vacuous and t0 >= 1:
            passed += 1
    report(
        8,
        passed == total,
        f"invertible-factor hitting: shift verified and witness found "
        f"{passed}/{total}; emitted sizes match grid*t_sweep*maps exactly",
    )


def test_criterion_9_width2():
    rnd = random.Random(90)
    identity_ok = 0
    identity_total = 50
    for i in range(identity_total):
        spec = InstanceSpec(
            klass="width2-roabp", seed=1000 + i, n=3, d=3, w=2, s=2, delta=1,
            mu=1, force_singular=True, nonzero=False,
        )
        inst = generate_instance(spec)
        fact = factorize_width2(inst)
        ok = True
        if fact.is_zero:
            _, scalar = inst.expand()
            ok = scalar.is_zero()
        else:
            alpha = width2_alpha(inst, fact)
            for _ in range(100):
                pt = [rnd.randint(0, FIELD.p - 1) for _ in range(3)]
                lhs = (alpha.eval_at(pt) * inst.evaluate(pt)) % FIELD.p
                rhs = 1
                for piece in fact.chain:
                    rhs = (rhs * piece.evaluate(pt)) % FIELD.p
                if lhs != rhs:
                    ok = False
                    break
        identity_ok += ok

    anchors = [tuple(rnd.randint(0, FIELD.p - 1) for _ in range(3)) for _ in range(5)]
    nodes = list(range(5))
    curve = LagrangeCurve(FIELD, tuple(anchors))
    curve_ok = all(curve.eval_at(b) == a for b, a in zip(nodes, anchors))

    hit_ok = 0
    hit_total = 100
    for i in range(hit_total):
        stream = DetStream(f"c9:{i}")
        n = stream.randint(2, 3)
        spec = InstanceSpec(
            klass="width2-roabp", seed=i, n=n, d=stream.randint(1, min(3, n)),
            w=2, s=2, delta=1, mu=1, force_singular=bool(stream.randint(0, 1)),
        )
        inst = generate_instance(spec)
        points = width2_hitting_set(inst)
        anchor_count = points.provenance["anchor_count"]
        delta_bound = (inst.d + 2) * inst.delta
        expected = 1 + (inst.d + 2) * delta_bound * anchor_count
        result = verify_hitting_property(inst, points)
        if len(points) == expected and result.passed and not result.vacuous:
            hit_ok += 1
    report(
        9,
        identity_ok == identity_total and curve_ok and hit_ok == hit_total,
        f"width-2: factorization identity {identity_ok}/{identity_total} "
        f"(100 points each), curve interpolation exact: {curve_ok}, "
        f"witnesses {hit_ok}/{hit_total} with exact 1+(d+2)*Delta*|H| sizes",
    )


def test_criterion_10_support_parameter_formula():
    ok = support_parameter(2, 4, 1) == 3 and support_parameter(2, 4, None) == 9
    report(
        10,
        ok,
        "support parameter: l(w=2,s=4,mu=1)=3 and l(w=2,s=4,mu=unbounded)=9",
    )


def test_criterion_11_oracle_self_consistency():
    agreements = 0
    total = 200
    for i in range(total):
        stream = DetStream(f"c11:{i}")
        n = stream.randint(2, 5)
        spec = InstanceSpec(
            klass="roabp", seed=i, n=n, d=stream.randint(1, min(4, n)),
            w=stream.randint(1, 3), s=stream.randint(1, 3),
            delta=stream.randint(1, 2), nonzero=False,
        )
        inst = generate_instance(spec)
        _, scalar = inst.expand()
        match = True
        for _ in range(5):
            pt = [stream.randint(0, FIELD.p - 1) for _ in range(n)]
            if inst.evaluate(pt) != scalar.eval_at(pt):
                match = False
        agreements += match
    first = run_campaign("roabp", 12, seed=5).render()
    second = run_campaign("roabp", 12, seed=5).render()
    deterministic = first == second
    for klass in ("sum-sml", "width2-roabp"):
        a = run_campaign(klass, 4, seed=9).render()
        b = run_campaign(klass, 4, seed=9).render()
        deterministic = deterministic and a == b
    report(
        11,
        agreements == total and deterministic,
        f"evaluate-vs-expand equality {agreements}/{total}; repeated "
        f"campaigns render byte-identically: {deterministic}",
    )
