"""Greedy bases, the round construction, the isolation checker, and the
ROABP hitting set."""

import functools
import itertools
import math
import operator
import random

import pytest

from pitkit.algebra import Field, MatPoly, RowSpan, mat_flatten
from pitkit.depth3 import circuit_to_roabp
from pitkit.errors import PreconditionError
from pitkit.isolate import (
    _embedded_factors,
    _sweep_count,
    combine_rounds,
    construct_isolating_weights,
    enumerate_candidate_weights,
    greedy_basis,
    roabp_hitting_set,
)
from pitkit.kron import (
    PairSet,
    WeightFn,
    iter_primes,
    prime_cutoff,
    separating_weights,
    weights_mod_prime,
)
from pitkit.roabp import EXPAND_CEILING, Roabp
from pitkit.verify import (
    DetStream,
    InstanceSpec,
    _case_overrides,
    generate_instance,
    verify_hitting_property,
)
from reference import is_basis_isolating, naive_kronecker, rank_over_field, span_contains
from test_roabp import image_by_expansion

F7 = Field(7)
F = Field(10007)


# ---------------------------------------------------------------------------
# greedy basis


def test_greedy_scalars_keep_lightest_spanning():
    items = [(1, (1, 0), ((3,),)), (2, (0, 1), ((5,),)), (3, (1, 1), ((0,),))]
    assert greedy_basis(items, F7) == [0]


def test_greedy_all_zero_coefficients():
    items = [(1, (1, 0), ((0,),)), (2, (0, 1), ((0,),))]
    assert greedy_basis(items, F7) == []


def test_greedy_duplicate_weights_rejected():
    items = [(1, (1, 0), ((3,),)), (1, (0, 1), ((5,),))]
    with pytest.raises(PreconditionError):
        greedy_basis(items, F7)


def test_greedy_output_is_minimum_weight_basis():
    rnd = random.Random(21)
    for _ in range(20):
        items = []
        for idx in range(6):
            coeff = tuple(
                tuple(rnd.randint(0, 6) for _ in range(2)) for _ in range(2)
            )
            items.append((idx, (idx,), coeff))
        kept = greedy_basis(items, F7)
        vecs = [mat_flatten(it[2]) for it in items]
        kept_vecs = [vecs[i] for i in kept]
        # spans agree
        assert rank_over_field(kept_vecs, F7) == rank_over_field(vecs, F7)
        assert rank_over_field(kept_vecs, F7) == len(kept)
        # no kept item lies in the span of strictly lighter kept items
        for pos, i in enumerate(kept):
            span = RowSpan(F7)
            for j in kept[:pos]:
                span.add(vecs[j])
            assert not span_contains(span, vecs[i])


# ---------------------------------------------------------------------------
# construction


def diag_factor(var, n):
    e = [0] * n
    e[var] = 1
    return MatPoly(
        F7, n, 2, {(0,) * n: ((1, 0), (0, 0)), tuple(e): ((0, 0), (0, 1))}
    )


def test_construct_single_factor_single_round():
    factor = diag_factor(0, 1)
    wfn, isolated = construct_isolating_weights([factor])
    assert is_basis_isolating(wfn, factor)
    # one factor runs one round, and one round combines to itself
    round0 = separating_weights(1, 1, PairSet(1, 1, [list(factor.terms)]))
    assert combine_rounds([round0], 1, 1) == round0
    assert wfn == round0
    kept_monos = {m for m, _ in isolated}
    assert kept_monos == set(factor.terms)


def test_construct_diagonal_pair_example():
    d1, d2 = diag_factor(0, 2), diag_factor(1, 2)
    wfn, isolated = construct_isolating_weights([d1, d2])
    monos = {m for m, _ in isolated}
    assert monos <= {(0, 0), (1, 0), (0, 1), (1, 1)}
    assert len(monos) <= 4
    assert is_basis_isolating(wfn, d1 * d2)


def test_construct_verified_on_random_instances():
    passed = 0
    for seed in range(40):
        spec = InstanceSpec(
            klass="roabp", seed=seed, n=rnd_n(seed), d=rnd_d(seed), w=2,
            s=3, delta=2, nonzero=False,
        )
        inst = generate_instance(spec)
        wfn, _ = construct_isolating_weights(list(inst.layers))
        product, _ = inst.expand()
        assert is_basis_isolating(wfn, product)
        passed += 1
    assert passed == 40


def rnd_n(seed):
    return 2 + seed % 4


def rnd_d(seed):
    return 1 + seed % 4


def test_round_monotonicity_and_isolated_cap():
    spec = InstanceSpec(klass="roabp", seed=3, n=4, d=4, w=2, s=3, delta=2)
    inst = generate_instance(spec)
    n, delta = inst.n, inst.delta
    # round 0: the greedy pass keeps each factor's rank
    blocks = [sorted(layer.terms.items()) for layer in inst.layers]
    round0 = separating_weights(n, delta, PairSet(n, delta, [[m for m, _ in b] for b in blocks]))
    for block in blocks:
        keyed = [(round0.monomial_weight(m), m, c) for m, c in block]
        kept = greedy_basis(keyed, F)
        vecs_all = [mat_flatten(c) for _, c in block]
        vecs_kept = [mat_flatten(block[i][1]) for i in kept]
        assert rank_over_field(vecs_kept, F) == rank_over_field(vecs_all, F)
    # every round keeps rank, so the isolated set spans the product
    wfn, isolated = construct_isolating_weights(list(inst.layers))
    product, _ = inst.expand()
    assert is_basis_isolating(wfn, product)
    vecs_product = [mat_flatten(c) for c in product.terms.values()]
    vecs_isolated = [mat_flatten(c) for _, c in isolated]
    assert rank_over_field(vecs_isolated, F) == rank_over_field(vecs_product, F)
    assert len(isolated) <= 4


def test_precedence_is_lexicographic():
    rounds = [weights_mod_prime(3, 1, p) for p in (2, 5, 3)]
    combined = combine_rounds(rounds, 3, 1)
    rnd = random.Random(0)
    monos = [tuple(rnd.randint(0, 1) for _ in range(3)) for _ in range(30)]
    for a, b in itertools.combinations(monos, 2):
        ta = tuple(w.monomial_weight(a) for w in rounds)
        tb = tuple(w.monomial_weight(b) for w in rounds)
        ca = combined.monomial_weight(a)
        cb = combined.monomial_weight(b)
        if ta < tb:
            assert ca < cb
        elif ta > tb:
            assert ca > cb
        else:
            assert ca == cb


# ---------------------------------------------------------------------------
# checker


def test_single_monomial_always_isolating():
    d = MatPoly(F7, 2, 2, {(1, 1): ((1, 2), (3, 4))})
    for weights in [(1, 1), (2, 5), (7, 3)]:
        assert is_basis_isolating(WeightFn(weights), d)


def test_tied_basis_monomials_rejected():
    eye = ((1, 0), (0, 1))
    d = MatPoly(F7, 2, 2, {(1, 0): eye, (0, 1): eye})
    assert not is_basis_isolating(WeightFn((1, 1)), d)
    assert is_basis_isolating(WeightFn((1, 2)), d)


def bruteforce_is_isolating(wfn, poly):
    """Existence check over every candidate basis, straight from the
    definition: distinct weights on S, S a basis, every other coefficient
    in the span of strictly lighter S-coefficients."""
    monos = list(poly.terms)
    vectors = {e: mat_flatten(poly.coeff(e)) for e in monos}
    full = rank_over_field(list(vectors.values()), poly.field) if monos else 0
    if full == 0:
        return True
    for subset in itertools.combinations(monos, full):
        weights = [wfn.monomial_weight(e) for e in subset]
        if len(set(weights)) != len(weights):
            continue
        if rank_over_field([vectors[e] for e in subset], poly.field) != full:
            continue
        ok = True
        for m in monos:
            if m in subset:
                continue
            wm = wfn.monomial_weight(m)
            span = [vectors[e] for e in subset if wfn.monomial_weight(e) < wm]
            with_m = rank_over_field(span + [vectors[m]], poly.field)
            without = rank_over_field(span, poly.field) if span else 0
            if with_m != without:
                ok = False
                break
        if ok:
            return True
    return False


def test_checker_matches_bruteforce_definition():
    rnd = random.Random(99)
    trues = falses = 0
    for _ in range(150):
        n = rnd.randint(2, 3)
        terms = {}
        for _ in range(rnd.randint(1, 5)):
            e = tuple(rnd.randint(0, 1) for _ in range(n))
            kind = rnd.randint(0, 2)
            if kind == 0:
                a, b = rnd.randint(0, 100), rnd.randint(0, 100)
                m = ((a, b), (a, b))
            elif kind == 1:
                m = tuple(tuple(rnd.randint(0, 2) for _ in range(2)) for _ in range(2))
            else:
                m = tuple(tuple(rnd.randint(0, 100) for _ in range(2)) for _ in range(2))
            terms[e] = m
        poly = MatPoly(Field(101), n, 2, terms)
        wfn = WeightFn(tuple(rnd.randint(1, 3) for _ in range(n)))
        expected = bruteforce_is_isolating(wfn, poly)
        assert is_basis_isolating(wfn, poly) == expected
        trues += expected
        falses += not expected
    assert trues and falses  # both outcomes exercised


def test_distinct_weights_imply_isolation():
    for seed in range(10):
        spec = InstanceSpec(
            klass="roabp", seed=seed, n=3, d=2, w=2, s=2, delta=1, nonzero=False
        )
        inst = generate_instance(spec)
        product, _ = inst.expand()
        assert is_basis_isolating(naive_kronecker(3, 1), product)


# ---------------------------------------------------------------------------
# candidate enumeration


def test_enumerate_single_round_for_d1():
    cands = list(enumerate_candidate_weights(n=2, d=1, s=2, w=1, delta=1))
    assert cands
    for wfn in cands:
        assert all(v >= 1 for v in wfn.weights)


def test_enumerate_members_are_positive_weightfns():
    # n=2, delta=1 reduces to (1, 2) at every prime, a single member; n=3
    # also has (1, 2, 2) at p=2 and (1, 2, 1) at p=3
    count = 0
    for wfn in enumerate_candidate_weights(n=3, d=2, s=2, w=1, delta=1):
        assert isinstance(wfn, WeightFn)
        assert all(v >= 1 for v in wfn.weights)
        count += 1
        if count > 200:
            break
    assert count > 1


@pytest.mark.parametrize("n, d, s, w, delta", [
    (2, 1, 1, 1, 1), (3, 1, 2, 2, 1), (1, 2, 1, 1, 1),
    (2, 2, 1, 1, 2), (2, 2, 2, 1, 1), (3, 2, 2, 1, 1),
])
def test_enumeration_is_first_occurrence_over_all_primes(n, d, s, w, delta):
    # reference: every combination of primes up to each round's cutoff,
    # duplicates dropped in order of first occurrence
    round_count = 1 + (math.ceil(math.log2(d)) if d > 1 else 0)
    bounds = [d * s * s] + [d * w**8] * (round_count - 1)
    prime_lists = [
        list(itertools.takewhile(lambda p, c=prime_cutoff(n, b, delta): p <= c, iter_primes()))
        for b in bounds
    ]
    reference = list(dict.fromkeys(
        combine_rounds([weights_mod_prime(n, delta, p) for p in combo], n, delta).weights
        for combo in itertools.product(*prime_lists)
    ))
    got = [wfn.weights for wfn in enumerate_candidate_weights(n, d, s, w, delta)]
    assert len(set(got)) == len(got)
    assert got == reference


def test_whitebox_assignment_appears_among_candidates():
    # rank-2 factors keep two survivors each, so every round separates pairs
    d1, d2 = diag_factor(0, 2), diag_factor(1, 2)
    wfn, _ = construct_isolating_weights([d1, d2])
    assert is_basis_isolating(wfn, d1 * d2)
    target = wfn.weights
    found = any(
        wfn.weights == target
        for wfn in enumerate_candidate_weights(n=2, d=2, s=2, w=2, delta=1)
    )
    assert found
    # seeded constant-boundary instances: the constructed map is a member
    # of the family their declared parameters enumerate
    for seed in range(24):
        stream = DetStream(f"membership:{seed}")
        n = stream.randint(1, 4)
        r = generate_instance(InstanceSpec(
            klass="roabp", seed=seed, n=n, d=stream.randint(1, min(2, n)),
            w=stream.randint(1, 3), s=stream.randint(1, 3), delta=stream.randint(1, 2),
        ))
        assert r.has_constant_boundaries()
        target = construct_isolating_weights(list(r.layers))[0]
        family = enumerate_candidate_weights(
            r.n, r.d, max(1, r.layer_sparsity), r.width, r.delta
        )
        assert target in family, seed


def test_whitebox_membership_with_empty_rounds():
    # width-1 factors collapse to one survivor; empty rounds still pick a
    # candidate-family member
    f1 = MatPoly(F7, 2, 1, {(0, 0): ((2,),), (1, 0): ((3,),)})
    f2 = MatPoly(F7, 2, 1, {(0, 0): ((1,),), (0, 1): ((5,),)})
    wfn, _ = construct_isolating_weights([f1, f2])
    assert is_basis_isolating(wfn, f1 * f2)
    target = wfn.weights
    found = any(
        wfn.weights == target
        for wfn in enumerate_candidate_weights(n=2, d=2, s=2, w=1, delta=1)
    )
    assert found


# ---------------------------------------------------------------------------
# hitting set


def test_hitting_set_zero_instance_vacuous():
    zero_layer = MatPoly.zero(F, 2, 2)
    r = Roabp.with_constant_boundaries(F, 2, [(0,), (1,)], [zero_layer, MatPoly.identity(F, 2, 2)], (1, 0), (1, 0))
    points = roabp_hitting_set(r, "whitebox")
    assert all(r.evaluate(pt) == 0 for pt in points)


def test_hitting_set_finds_witnesses():
    for seed in range(25):
        spec = InstanceSpec(
            klass="roabp", seed=seed, n=2 + seed % 4, d=1 + seed % 4,
            w=1 + seed % 3, s=1 + seed % 3, delta=1 + seed % 2,
        )
        spec = spec.replace(d=min(spec.d, spec.n))
        inst = generate_instance(spec)
        points = roabp_hitting_set(inst, "whitebox")
        report = verify_hitting_property(inst, points)
        assert report.passed and not report.vacuous


def test_hitting_set_size_matches_provenance():
    spec = InstanceSpec(klass="roabp", seed=2, n=3, d=2, w=2, s=2, delta=1)
    inst = generate_instance(spec)
    points = roabp_hitting_set(inst, "whitebox")
    prov = points.provenance
    assert len(points) == prov["t_count"]
    assert prov["t_count"] == 1 + inst.n * inst.delta * prov["max_weight"]


def test_hitting_set_blackbox_tiny():
    # d=1 keeps the candidate family small
    spec = InstanceSpec(klass="roabp", seed=4, n=2, d=1, w=1, s=2, delta=1)
    inst = generate_instance(spec)
    points = roabp_hitting_set(inst, "blackbox")
    assert points.provenance["assignments"] >= 1
    assert len(points) == sum(points.provenance["per_assignment"])
    report = verify_hitting_property(inst, points)
    assert report.passed


def test_polynomial_boundaries_embed_as_extra_factors():
    # left/right vector polynomials become a first-row and a first-column
    # factor; the computed polynomial is the (0,0) entry of the extension
    from pitkit.algebra import ScalarPoly
    from pitkit.isolate import _embedded_factors

    rnd = random.Random(13)
    n = 4

    def sparse_vec(block_var):
        out = []
        for _ in range(2):
            e1 = [0] * n
            e1[block_var] = 1
            terms = {tuple(e1): rnd.randint(1, 10006), (0,) * n: rnd.randint(0, 10006)}
            out.append(ScalarPoly(F, n, terms))
        return tuple(out)

    def layer(var):
        e = [0] * n
        e[var] = 1
        return MatPoly(F, n, 2, {
            (0,) * n: tuple(tuple(rnd.randint(0, 10006) for _ in range(2)) for _ in range(2)),
            tuple(e): tuple(tuple(rnd.randint(0, 10006) for _ in range(2)) for _ in range(2)),
        })

    hit = 0
    for _ in range(10):
        r = Roabp(
            F, n, 2, ((1,), (2,)), (layer(1), layer(2)),
            sparse_vec(0), sparse_vec(3), (0,), (3,),
        )
        _, scalar = r.expand()
        factors = _embedded_factors(r)
        assert len(factors) == r.d + 2
        product = factors[0]
        for f in factors[1:]:
            product = product * f
        assert product.entry(0, 0) == scalar
        if not scalar.is_zero():
            report = verify_hitting_property(r, roabp_hitting_set(r, "whitebox"))
            assert report.passed and not report.vacuous
            hit += 1
    assert hit > 0


def test_hitting_set_order_oblivious():
    spec = InstanceSpec(klass="roabp", seed=6, n=4, d=3, w=2, s=2, delta=1)
    inst = generate_instance(spec)
    for order in itertools.permutations(range(3)):
        # replace() re-runs the Roabp validation on the re-ordered blocks
        permuted = inst.replace(
            blocks=tuple(inst.blocks[i] for i in order),
            layers=tuple(inst.layers[i] for i in order),
        )
        report = verify_hitting_property(permuted, roabp_hitting_set(permuted, "whitebox"))
        assert report.passed


# ---------------------------------------------------------------------------
# whitebox route: the first map on the ladder whose image is nonzero

P31 = 2**31 - 1
P61 = 2**61 - 1


def _campaign_roabps(modulus):
    """The 200 seeds of the roabp campaign at the modulus and, at 2^31 - 1,
    the 100 depth3-distance campaign circuits reduced to ROABPs."""
    for seed in range(200):
        yield generate_instance(InstanceSpec(
            klass="roabp", seed=seed, modulus=modulus, **_case_overrides("roabp", seed, {})
        ))
    if modulus == P31:
        for seed in range(100):
            spec = InstanceSpec(klass="depth3-distance", seed=seed, modulus=modulus,
                                **_case_overrides("depth3-distance", seed, {}))
            yield circuit_to_roabp(generate_instance(spec))


def cross_times_dense(n: int, field: Field, zero: bool = False, pair=((0, 2), (1, 3))) -> Roabp:
    """x1*x3 - x2*x4, as the width-2 layer {x1 x3: A, x2 x4: -A} on x1..x4,
    times dense layers {1, x_i} for i = 5..n, with seeded matrices: f is
    nonzero, but its constant image vanishes.  With `zero`, A's first row is
    zero, so the left boundary (1, 0) makes f zero though no layer is.
    `pair` names the two monomials' variables; ((2,), (3,)) gives x3 - x4,
    whose image also vanishes under the reduced map at q = 2."""
    stream = DetStream(f"cross:{n}")

    def matrix():
        return tuple(tuple(stream.nonzero(field) for _ in range(2)) for _ in range(2))

    def mono(*vs):
        return tuple(int(v in vs) for v in range(n))

    a = matrix()
    if zero:
        a = ((0, 0), a[1])
    layers = [MatPoly(field, n, 2, {
        mono(*pair[0]): a, mono(*pair[1]): tuple(tuple(-x % field.p for x in row) for row in a),
    })]
    layers += [MatPoly(field, n, 2, {mono(): matrix(), mono(i): matrix()}) for i in range(4, n)]
    blocks = [(0, 1, 2, 3)] + [(i,) for i in range(4, n)]
    return Roabp.with_constant_boundaries(field, n, blocks, layers, (1, 0), (1, 0))


def difference(field: Field) -> Roabp:
    """x1 - x2 in one width-1 layer: no Kronecker map fits below its
    round-combined sweep of 5 points."""
    layer = MatPoly(field, 2, 1, {(1, 0): ((1,),), (0, 1): ((field.p - 1,),)})
    return Roabp.with_constant_boundaries(field, 2, [(0, 1)], [layer], (1,), (1,))


def _route_instances(modulus):
    field = Field(modulus)
    yield from _campaign_roabps(modulus)
    for n in (4, 6, 8, 10):
        yield cross_times_dense(n, field)
        yield cross_times_dense(n, field, zero=True)
        yield cross_times_dense(n, field, pair=((2,), (3,)))
    yield difference(field)


def _round_combined_count(r):
    return _sweep_count(r, construct_isolating_weights(_embedded_factors(r))[0])


def _first_rung(r):
    """The route and count the ladder should take, found with the expansion
    oracle: the constant map when f is zero or its image is not; else the
    first prime q <= (min(R, p) - 2) // (n * max(1, delta)), for R the
    round-combined count, whose reduced map's image is nonzero; else the
    round-combined map."""
    constant = WeightFn.constant(r.n)
    if r.expand()[1].is_zero() or image_by_expansion(r, constant):
        return {"assignment": "constant"}, _sweep_count(r, constant)
    rounds = _round_combined_count(r)
    top = (min(rounds, r.field.p) - 2) // (r.n * max(1, r.delta))
    for q in itertools.takewhile(lambda q: q <= top, iter_primes()):
        wfn = weights_mod_prime(r.n, r.delta, q)
        if image_by_expansion(r, wfn):
            return {"assignment": "kronecker", "prime": q}, _sweep_count(r, wfn)
    return {"assignment": "round-combined"}, rounds


def _separator_count(r):
    """The sweep of the smallest map that separates every monomial of the
    expanded product of the embedded factors."""
    product = functools.reduce(operator.mul, _embedded_factors(r))
    if product.sparsity < 2:
        return _sweep_count(r, WeightFn.constant(r.n))
    pair_set = PairSet(r.n, r.delta, [sorted(product.terms)])
    return _sweep_count(r, separating_weights(r.n, r.delta, pair_set))


@pytest.mark.parametrize("modulus", [10007, P31, P61])
def test_whitebox_emits_the_shorter_verified_sweep(modulus):
    # the set sweeps the first map on the ladder whose image is nonzero; it
    # is never longer than the round-combined sweep or the all-monomial
    # separator's, and it hits its instance
    routes = set()
    for r in _route_instances(modulus):
        route, count = _first_rung(r)
        points = roabp_hitting_set(r, "whitebox")
        assert {k: points.provenance.get(k) for k in route} == route
        assert len(points) == count <= min(_round_combined_count(r), _separator_count(r))
        report = verify_hitting_property(r, points)
        assert report.passed and report.vacuous == r.expand()[1].is_zero()
        routes.add(route["assignment"])
    assert routes == {"constant", "kronecker", "round-combined"}


def _count_calls(monkeypatch, owner, name) -> list:
    calls = []
    method = getattr(owner, name)

    def spy(*args, **kwargs):
        calls.append(1)
        return method(*args, **kwargs)

    monkeypatch.setattr(owner, name, spy)
    return calls


def two_full_layers(width: int) -> Roabp:
    """Over GF(2^61 - 1), layers of all 32 x 32 monomials in x1, x2 and in
    x3, x4, with seeded nonzero entries: the sparsity bound S = 1,048,576
    exceeds EXPAND_CEILING, and the round-combined sweep fits the field."""
    field, stream = Field(2**61 - 1), DetStream("ceiling")

    def layer(u, v):
        terms = {}
        for a, b in itertools.product(range(32), repeat=2):
            e = [0] * 4
            e[u], e[v] = a, b
            terms[tuple(e)] = tuple(
                tuple(stream.nonzero(field) for _ in range(width)) for _ in range(width)
            )
        return MatPoly(field, 4, width, terms)

    ends = (1,) + (0,) * (width - 1)
    return Roabp.with_constant_boundaries(
        field, 4, [(0, 1), (2, 3)], [layer(0, 1), layer(2, 3)], ends, ends
    )


def test_no_product_past_the_expansion_ceiling(monkeypatch):
    # no route multiplies factors or expands f, even past the ceiling
    field = Field(P61)
    full = two_full_layers(1)
    assert math.prod(f.sparsity for f in _embedded_factors(full)) > EXPAND_CEILING
    cases = [
        (full, "constant"),
        (cross_times_dense(24, field, zero=True), "constant"),
        (cross_times_dense(24, field), "kronecker"),
        (difference(field), "round-combined"),
    ]
    products = _count_calls(monkeypatch, MatPoly, "__mul__")
    expansions = _count_calls(monkeypatch, Roabp, "expand")
    for r, route in cases:
        assert roabp_hitting_set(r, "whitebox").provenance["assignment"] == route
    assert not products and not expansions
