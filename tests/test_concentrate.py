"""Concentration ranks, concentrating shifts, width-2 factorization, and
the composed hitting sets."""

import itertools
import math
import random
import time

import pytest

from pitkit.algebra import (
    Field,
    MatPoly,
    ScalarPoly,
    det_poly,
    is_prime,
    mat_flatten,
)
from pitkit import algebra, concentrate, kron
from pitkit.concentrate import (
    LagrangeCurve,
    factorize_width2,
    find_concentrating_shift,
    invertible_hitting_set,
    low_support_hitting_set,
    support_parameter,
    width2_hitting_set,
)
from pitkit.errors import ModulusTooSmallError, PitError, PreconditionError, StructuralError
from pitkit.kron import WeightFn
from pitkit.roabp import Roabp
from pitkit.verify import (
    InstanceSpec,
    _case_overrides,
    generate_instance,
    verify_hitting_property,
)
from reference import (
    all_blocks,
    block_support,
    concentration_rank,
    det_at_ones,
    det_cofactor,
    rank_over_field,
    shift_mat,
    shift_roabp,
    uncached,
    width2_alpha,
)
from test_all_ones_certificate import split_and_singular_at_ones

F7 = Field(7)
F = Field(10007)


def invertible_constant_instance(seed, n=4, d=3, s=3, delta=2):
    spec = InstanceSpec(
        klass="invertible-roabp", seed=seed, n=n, d=d, w=2, s=s, delta=delta,
        mu=1, invertible_constant=True, nonzero=False,
    )
    return generate_instance(spec)


# ---------------------------------------------------------------------------
# support parameter and block support


def test_support_parameter_values():
    assert support_parameter(2, 4, 1) == 3
    assert support_parameter(2, 4, None) == 9
    assert support_parameter(1, 1, None) == 1


def test_block_support_counts_contributing_blocks():
    blocks = [(0, 1), (2,), (3,)]
    assert block_support((1, 0, 0, 0), blocks) == frozenset({0})
    assert block_support((0, 1, 2, 0), blocks) == frozenset({0, 1})
    assert block_support((0, 0, 0, 0), blocks) == frozenset()


# ---------------------------------------------------------------------------
# concentration ranks


def test_constant_polynomial_concentrates_everywhere():
    d = MatPoly.constant(F7, 2, ((1, 2), (3, 4)))
    assert concentration_rank(d, 1, "support") == (1, 1)
    assert concentration_rank(d, 5, "support") == (1, 1)


def test_block_mode_requires_blocks():
    d = MatPoly.constant(F7, 2, ((1, 0), (0, 1)))
    with pytest.raises(StructuralError):
        concentration_rank(d, 2, "block")


def test_block_concentration_of_invertible_products():
    # products of layers with invertible constant terms concentrate at
    # block-support w^2
    for seed in range(25):
        inst = invertible_constant_instance(seed, d=3 + seed % 2)
        product, scalar = inst.expand()
        low, full = concentration_rank(
            product, 4, "block", blocks=list(inst.blocks)
        )
        assert low == full
        # the contracted polynomial concentrates at w^2 + 2 with boundaries
        low_c, full_c = concentration_rank(
            scalar, 6, "block", blocks=all_blocks(inst)
        )
        assert low_c == full_c


def test_child_to_parent_and_block_w2_rank_facts():
    for seed in range(12):
        inst = invertible_constant_instance(seed, n=4, d=4, s=2, delta=1)
        product, _ = inst.expand()
        blocks = list(inst.blocks)
        vectors = {e: mat_flatten(m) for e, m in product.terms.items()}

        def descend_span(e):
            bs = block_support(e, blocks)
            return [
                vec
                for f, vec in vectors.items()
                if block_support(f, blocks) < bs
            ]

        for e, vec in vectors.items():
            bs = block_support(e, blocks)
            if len(bs) == 4:
                # block-support w^2 coefficients depend on strictly smaller
                # block support
                smaller = [
                    v
                    for f, v in vectors.items()
                    if len(block_support(f, blocks)) < 4
                ]
                assert rank_over_field(smaller + [vec], inst.field) == rank_over_field(
                    smaller, inst.field
                )
        # child-to-parent lift on sampled pairs
        for e, vec in vectors.items():
            bs = block_support(e, blocks)
            if not bs:
                continue
            span = descend_span(e)
            dependent = rank_over_field(span + [vec], inst.field) == rank_over_field(
                span, inst.field
            )
            if not dependent:
                continue
            for f, pvec in vectors.items():
                bsf = block_support(f, blocks)
                j_extra = bsf - bs
                if len(j_extra) != 1 or not bs < bsf:
                    continue
                j = next(iter(j_extra))
                if not (j > max(bs) or j < min(bs)):
                    continue
                shared = [i for i in range(4) if i not in (j,)]
                if any(
                    tuple(e[v] for v in blocks[i]) != tuple(f[v] for v in blocks[i])
                    for i in bs
                ):
                    continue
                pspan = descend_span(f)
                assert rank_over_field(
                    pspan + [pvec], inst.field
                ) == rank_over_field(pspan, inst.field)


def test_composition_of_concentrations():
    # block concentration at L and factor support concentration at l' give
    # support concentration at (L-1)(l'-1)+1
    for seed in range(8):
        inst = invertible_constant_instance(seed, n=4, d=3, s=2, delta=1)
        _, scalar = inst.expand()
        blocks = all_blocks(inst)
        big_l = None
        for cand in range(1, len(blocks) + 2):
            low, full = concentration_rank(scalar, cand, "block", blocks=blocks)
            if low == full:
                big_l = cand
                break
        assert big_l is not None
        ell_prime = None
        factors = [*inst.layers]
        for cand in range(1, inst.n + 2):
            if all(
                concentration_rank(f, cand, "support")[0]
                == concentration_rank(f, cand, "support")[1]
                for f in factors
            ):
                ell_prime = cand
                break
        assert ell_prime is not None
        bound = (big_l - 1) * (ell_prime - 1) + 1
        low, full = concentration_rank(scalar, bound, "support")
        assert low == full


# ---------------------------------------------------------------------------
# shifts


def test_shift_found_for_univariate_layers():
    inst = invertible_constant_instance(2, n=3, d=3, s=2, delta=1)
    wfn, _, t0 = find_concentrating_shift(inst)
    assert all(a >= 1 for a in wfn.weights)
    assert t0 >= 1


def test_singular_layer_rejected():
    sing = MatPoly(F, 2, 2, {(0, 0): ((1, 2), (2, 4))})
    inv = MatPoly.identity(F, 2, 2)
    r = Roabp.with_constant_boundaries(F, 2, [(0,), (1,)], [sing, inv], (1, 1), (1, 1))
    with pytest.raises(PreconditionError):
        find_concentrating_shift(r)


def test_shift_search_tries_each_specialization_once(monkeypatch):
    # At p = 7 every candidate prime reduces these instances to one exponent
    # vector, and every t0 makes some layer singular, so the search exhausts
    # the family with its t0 budget cut at p - 1; at p = 10007 the first map
    # verifies.
    tried = []
    powers = WeightFn.powers

    def recorded(self, t0, p):
        tried.append((self.weights, t0))
        return powers(self, t0, p)

    monkeypatch.setattr(WeightFn, "powers", recorded)
    cases = [(7, 33, 3, 1, 2, 1), (7, 135, 2, 1, 2, 2), (10007, 0, 2, 2, 2, 1)]
    for modulus, seed, n, d, s, delta in cases:
        inst = generate_instance(InstanceSpec(
            klass="invertible-roabp", seed=seed, modulus=modulus,
            n=n, d=d, w=2, s=s, delta=delta, mu=1,
        ))
        tried.clear()
        try:
            find_concentrating_shift(inst)
        except ModulusTooSmallError:
            assert modulus == 7
        assert len(tried) == len(set(tried)) > 0


def test_shift_verified_on_random_invertible_instances():
    for seed in range(20):
        spec = InstanceSpec(
            klass="invertible-roabp", seed=seed, n=2 + seed % 4,
            d=1 + seed % 3, w=2, s=1 + seed % 3, delta=1 + seed % 2, mu=1,
        )
        spec = spec.replace(d=min(spec.d, spec.n))
        inst = generate_instance(spec)
        wfn, _, t0 = find_concentrating_shift(inst)
        offsets = wfn.powers(t0, inst.field.p)
        shifted = shift_roabp(inst, offsets)
        _, scalar = shifted.expand()
        ell = support_parameter(2, max(1, inst.layer_sparsity), inst.layer_support)
        low, full = concentration_rank(scalar, ell * 6, "support")
        assert low == full
        # every shifted factor is support-concentrated at ell
        for layer in shifted.layers:
            lo, fu = concentration_rank(layer, ell, "support")
            assert lo == fu


def _always_expanded(r, bound, offsets):
    # reference: shift, expand and compare the two concentration ranks at
    # the support target l(w^2+2), which `bound` also names
    ell = support_parameter(r.width, max(1, r.layer_sparsity), r.layer_support)
    _, scalar = shift_roabp(r, offsets).expand()
    low, full = concentration_rank(scalar, ell * (r.width**2 + 2), "support")
    return low == full


def _shift_outcome(r):
    try:
        wfn, prime, t0 = find_concentrating_shift(r)
    except PitError as exc:
        return type(exc).__name__, str(exc)
    return wfn.weights, prime, t0


def _spy_on_retired_steps(m) -> list:
    """Record every call of the steps the shift search no longer takes:
    expanding an instance, a separator search, a pair set."""
    calls = []

    def spy(name, owner, attr):
        original = getattr(owner, attr)

        def recorded(*args, **kwargs):
            calls.append(name)
            return original(*args, **kwargs)

        m.setattr(owner, attr, recorded)

    spy("expand", Roabp, "expand")
    spy("separating_weights", kron, "separating_weights")
    spy("PairSet", kron.PairSet, "__init__")
    return calls


def _shift_outcomes_match_reference(monkeypatch, instances):
    with monkeypatch.context() as m:
        retired = _spy_on_retired_steps(m)
        got = [_shift_outcome(r) for r in instances]
    assert not retired
    for r, outcome in zip(instances, got):
        if len(outcome) == 3:
            # every shifted constant term is invertible
            weights, _, t0 = outcome
            offsets = WeightFn(weights).powers(t0, r.field.p)
            assert all(det_poly(layer.entry_grid()).eval_at(offsets) for layer in r.layers)
    with monkeypatch.context() as m:
        m.setattr(concentrate, "_shift_hits", _always_expanded)
        assert got == [_shift_outcome(r) for r in instances]


def _campaign_instance(klass, seed, modulus):
    return generate_instance(InstanceSpec(
        klass=klass, seed=seed, modulus=modulus, **_case_overrides(klass, seed, {})
    ))


@pytest.mark.parametrize("modulus", [10007, 5])
def test_shift_decided_without_expansion_matches_the_expanded_test(monkeypatch, modulus):
    # seeded invertible instances and the chain pieces of seeded width-2
    # instances give the same (map, prime, t0), errors included
    pieces = [_campaign_instance("invertible-roabp", seed, modulus) for seed in range(200)]
    for seed in range(200):
        pieces += factorize_width2(_campaign_instance("width2-roabp", seed, modulus)).chain
    _shift_outcomes_match_reference(monkeypatch, pieces)


def _unit(n, i):
    return tuple(int(v == i) for v in range(n))


def _zero_left_boundary():
    # s = 1, l = 1, support target 3 = n
    layers = [MatPoly(F, 3, 1, {_unit(3, i): ((i + 2,),)}) for i in range(3)]
    return Roabp.with_constant_boundaries(F, 3, [(0,), (1,), (2,)], layers, (0,), (1,))


def _linear_factors(c):
    """(x_0 - c_0) (x_1 - c_1) ... (x_{n-1} - c_{n-1}): a left boundary
    x_0 - c_0 and width-1 layers x_i - c_i; s = 2, l = 3, so the support
    target 9 is n for n = 9."""
    n = len(c)
    left = ScalarPoly(F, n, {_unit(n, 0): 1, (0,) * n: -c[0] % F.p})
    layers = [MatPoly(F, n, 1, {_unit(n, i): ((1,),), (0,) * n: ((-c[i] % F.p,),)})
              for i in range(1, n)]
    return Roabp(
        F, n, 1, [(i,) for i in range(1, n)], layers,
        (left,), (ScalarPoly.const(F, n, 1),), (0,), (),
    )


def _left_boundary_x1_minus_1():
    # x_0 - 1 times layers x_1, ..., x_8
    return _linear_factors([1] + [0] * 8)


@pytest.mark.parametrize("build", [_zero_left_boundary, _left_boundary_x1_minus_1])
def test_f_zero_at_offsets_decided_without_expansion(monkeypatch, build):
    # width 1: every layer is invertible at the first offsets (t0 = 1, all
    # ones), where f vanishes, and the support target is at most n
    r = build()
    assert r.evaluate((1,) * r.n) == 0
    with monkeypatch.context() as m:
        retired = _spy_on_retired_steps(m)
        assert _shift_outcome(r)[2] == 1
    assert not retired
    _shift_outcomes_match_reference(monkeypatch, [r])


def test_zero_f_is_accepted_after_one_grid_point(monkeypatch):
    # n = 20, s = 2, mu = 1: the grid has C(20, 17) * 2^17 = 149,422,080
    # points and a zero f misses all of them; is_zero decides it after the
    # first
    inst = generate_instance(InstanceSpec(
        klass="invertible-roabp", seed=0, modulus=2**31 - 1,
        n=20, d=3, w=2, s=2, delta=1, mu=1,
    ))
    zero = inst.replace(left_boundary=(ScalarPoly.zero(inst.field, inst.n),) * 2)
    evaluated = []
    evaluate = Roabp.evaluate

    def counted(self, point):
        evaluated.append(point)
        return evaluate(self, point)

    monkeypatch.setattr(Roabp, "evaluate", counted)
    assert find_concentrating_shift(zero)[1:] == (2, 1)
    assert len(evaluated) == 1


def test_grid_hit_is_the_concentration_test():
    # f = prod (x_i - c_i) over n = 9 variables: f(x + o) has a monomial of
    # support below the target 9 exactly when o differs from c somewhere
    rnd = random.Random(9)
    verdicts = []
    for _ in range(2):
        c = [rnd.randrange(1, F.p) for _ in range(9)]
        r = _linear_factors(c)
        moved = [()] + [(i,) for i in range(9)] + list(itertools.combinations(range(9), 2))
        for coords in moved:
            o = list(c)
            for i in coords:
                o[i] = (o[i] + rnd.randrange(1, F.p)) % F.p
            hit = concentrate._shift_hits(r, 9, o)
            assert hit == _always_expanded(r, 9, o) == bool(coords), (c, coords)
            verdicts.append(hit)
    assert verdicts.count(False) == 2 and len(verdicts) == 92


def test_shift_search_is_fast_on_a_steep_layer():
    # (x1^800, x2): the low-support monomials of individual degree <= 800
    # need no separator, and t0 = 1 under the first map already hits
    layers = [
        MatPoly(F, 2, 1, {(800, 0): ((1,),)}),
        MatPoly(F, 2, 1, {(0, 1): ((1,),)}),
    ]
    r = Roabp.with_constant_boundaries(F, 2, [(0,), (1,)], layers, (1,), (1,))
    start = time.process_time()
    _, prime, t0 = find_concentrating_shift(r)
    assert (prime, t0) == (2, 1)
    assert time.process_time() - start < 1


def _difference_layers(k: int) -> Roabp:
    """k width-2 layers [[x_2j, x_2j+1], [1, 1]] over n = 2k variables, each
    of determinant x_2j - x_2j+1."""
    n = 2 * k

    def var(i):
        return tuple(int(v == i) for v in range(n))

    layers = [
        MatPoly(F, n, 2, {
            var(2 * j): ((1, 0), (0, 0)),
            var(2 * j + 1): ((0, 1), (0, 0)),
            (0,) * n: ((0, 0), (1, 1)),
        })
        for j in range(k)
    ]
    blocks = [(2 * j, 2 * j + 1) for j in range(k)]
    return Roabp.with_constant_boundaries(F, n, blocks, layers, (1, 0), (1, 1))


def test_shift_search_skips_maps_whose_determinant_image_vanishes(monkeypatch):
    # maps 2 and 3 give x_2j and x_2j+1 equal weights, so every layer
    # determinant's univariate image is zero and no t0 can make the layers
    # invertible: they are passed over before any t0, and the accepted
    # (map, prime, t0) stays the one of trying every t0 under them
    prime_of, tried = {}, []
    shift_maps, powers = concentrate._shift_maps, WeightFn.powers

    def maps(*args):
        for prime, wfn in shift_maps(*args):
            prime_of[wfn.weights] = prime
            yield prime, wfn

    def spy(wfn, t, p):
        tried.append(prime_of.get(wfn.weights))
        return powers(wfn, t, p)

    monkeypatch.setattr(concentrate, "_shift_maps", maps)
    monkeypatch.setattr(WeightFn, "powers", spy)
    wfn, prime, t0 = find_concentrating_shift(_difference_layers(4))
    assert (prime, t0) == (5, 2) and wfn.weights == (1, 3, 4, 2, 1, 3, 4, 2)
    assert sorted(prime_of.values()) == [2, 3, 5]
    assert set(tried) == {5}


def _grid_key(grid) -> tuple:
    return tuple(tuple(tuple(sorted(entry.terms.items())) for entry in row) for row in grid)


def test_width2_hitting_set_expands_only_layers_singular_at_ones(monkeypatch):
    # det_poly runs once for each layer singular at the all-ones point (a
    # split layer is one) and never twice for one layer.  A chain piece
    # holding such a layer runs the symbolic shift search, which reads the
    # determinant of each of its layers, once each.
    def expected(r, fact):
        cuts = [-1, *fact.split_layers, r.d]
        pieces = [r.layers[a + 1:b] for a, b in zip(cuts, cuts[1:])]
        return sorted(
            [_grid_key(r.layers[i].entry_grid()) for i in fact.split_layers]
            + [_grid_key(layer.entry_grid()) for piece in pieces
               if not all(map(det_at_ones, piece)) for layer in piece]
        )

    seed4 = generate_instance(InstanceSpec(
        klass="width2-roabp", seed=4, n=4, d=3, w=2, s=2, delta=1, mu=1,
        force_singular=True,
    ))
    instances = [seed4, split_and_singular_at_ones(10007)] + [
        generate_instance(InstanceSpec(
            klass="width2-roabp", seed=seed, **_case_overrides("width2-roabp", seed, {})
        ))
        for seed in range(200)
    ]
    facts = [factorize_width2(r) for r in instances]
    grids = []
    monkeypatch.setattr(
        algebra, "det_poly", lambda grid: grids.append(_grid_key(grid)) or det_poly(grid)
    )
    counts = []
    for r, fact in zip(instances, facts):
        grids.clear()
        width2_hitting_set(uncached(r))
        assert sorted(grids) == expected(r, fact)
        counts.append(len(grids))
    # seed 4 expands its one split layer of 3; the hand-built instance its
    # split layer and the piece after it, whose first layer is singular at ones
    assert counts[:2] == [1, 3] and sum(counts) == 2 + sum(len(f.split_layers) for f in facts)


def test_determinants_and_width2_factors_sum_no_polynomials(monkeypatch):
    # the determinant and factorize_width2 (rank-one check included) run
    # on ints and dicts: no ScalarPoly is added or negated, on width-2
    # instances with singular layers and width-3 layers
    specs = [
        InstanceSpec(klass="width2-roabp", seed=seed, n=4, d=3, w=2, s=2, delta=1, mu=1,
                     force_singular=True)
        for seed in range(6)
    ] + [
        InstanceSpec(klass="roabp", seed=seed, n=4, d=2, w=3, s=3, delta=2, mu=2)
        for seed in range(6)
    ]
    instances = [generate_instance(spec) for spec in specs]
    dets = [[det_cofactor(m.entry_grid()) for m in r.layers] for r in instances]
    factors = [factorize_width2(uncached(r)) for r in instances if r.width == 2]
    assert any(f.split_layers for f in factors)
    # each piece is what the checking constructor builds from its fields
    assert all(piece.replace() == piece for f in factors for piece in f.chain)

    def no_sum(*args):
        raise AssertionError("a polynomial was added or negated")

    monkeypatch.setattr(ScalarPoly, "__add__", no_sum)
    monkeypatch.setattr(ScalarPoly, "__neg__", no_sum)
    for r, expected in zip(instances, dets):
        assert [m.det for m in uncached(r).layers] == expected
    assert [factorize_width2(uncached(r)) for r in instances if r.width == 2] == factors


def _shifted_low_support_rows(layer, exponents, ell):
    """Coefficient vectors of the shifted layer's low-support x-monomials,
    each entry a polynomial in t (built symbolically)."""
    n = layer.n
    field = layer.field
    rows: dict[tuple, list[ScalarPoly]] = {}
    zero_t = ScalarPoly.zero(field, 1)
    for e, matrix in layer.terms.items():
        options = []
        for v, exp in enumerate(e):
            if exp == 0:
                options.append([(0, ScalarPoly.const(field, 1, 1))])
                continue
            opts = []
            for f in range(exp + 1):
                t_exp = (exp - f) * exponents[v]
                coeff = math.comb(exp, f)
                opts.append((f, ScalarPoly(field, 1, {(t_exp,): coeff})))
            options.append(opts)
        for combo in itertools.product(*options):
            target = tuple(f for f, _ in combo)
            if sum(1 for f in target if f) >= ell:
                continue
            scale = ScalarPoly.const(field, 1, 1)
            for _, tpoly in combo:
                scale = scale * tpoly
            if target not in rows:
                rows[target] = [zero_t] * 4
            flat = mat_flatten(matrix)
            rows[target] = [
                acc + scale * ScalarPoly.const(field, 1, c) for acc, c in zip(rows[target], flat)
            ]
    return [row for row in rows.values() if any(not p.is_zero() for p in row)]


def _symbolic_rank_over_ft(rows, field):
    """Largest r with a nonzero r-by-r minor (minors are dets of grids of
    univariate polynomials in t)."""
    if not rows:
        return 0
    cols = len(rows[0])
    for r in range(min(len(rows), cols), 0, -1):
        for row_idx in itertools.combinations(range(len(rows)), r):
            for col_idx in itertools.combinations(range(cols), r):
                grid = [[rows[i][j] for j in col_idx] for i in row_idx]
                if not det_poly(grid).is_zero():
                    return r
    return 0


def test_specialized_rank_reaches_symbolic_rank():
    # the max specialized rank over the t0 sweep equals the rank over F(t)
    inst = invertible_constant_instance(4, n=3, d=2, s=2, delta=1)
    wfn, _, _ = find_concentrating_shift(inst)
    ell = support_parameter(2, max(1, inst.layer_sparsity), inst.layer_support)
    for layer in inst.layers:
        rows = _shifted_low_support_rows(layer, wfn.weights, ell)
        symbolic = _symbolic_rank_over_ft(rows, inst.field)
        max_a = wfn.max_weight
        best = 0
        for t0 in range(1, 2 + 4 * inst.n * max(1, inst.delta) * max_a):
            shifted = shift_mat(layer, wfn.powers(t0, inst.field.p))
            low, _ = concentration_rank(shifted, ell, "support")
            best = max(best, low)
            if best == symbolic:
                break
        assert best == symbolic


# ---------------------------------------------------------------------------
# low-support grid


def test_low_support_sizes():
    assert len(low_support_hitting_set(3, 1, 2, F)) == 6
    ps = low_support_hitting_set(3, 1, 1, F)
    assert len(ps) == 1 and next(iter(ps)) == (0, 0, 0)
    assert len(low_support_hitting_set(4, 2, 3, F)) == math.comb(4, 2) * 9


def test_low_support_hits_low_support_witness():
    rnd = random.Random(51)
    for _ in range(20):
        n, delta, ell = 5, 2, 3
        support = tuple(sorted(rnd.sample(range(n), ell - 1)))
        e = [0] * n
        for v in support:
            e[v] = rnd.randint(1, delta)
        terms = {tuple(e): rnd.randint(1, 10006)}
        # extra high-support noise monomials
        full = [0] * n
        for v in range(n):
            full[v] = rnd.randint(1, delta)
        terms.setdefault(tuple(full), rnd.randint(1, 10006))
        poly = ScalarPoly(F, n, terms)
        points = low_support_hitting_set(n, delta, ell, F)
        assert any(poly.eval_at(pt) for pt in points)


def _nested_loop_grid(n, delta, ell, offsets, p):
    """Reference for `_shifted_grid`: each (ell-1)-subset in combinations
    order, each value tuple with the last variable fastest, one point at a
    time."""
    size = min(ell - 1, n)
    points = []
    for subset in itertools.combinations(range(n), size):
        for values in itertools.product(range(1, delta + 2), repeat=size):
            pt = [0] * n
            for v, val in zip(subset, values):
                pt[v] = val
            points.append(tuple((x + o) % p for x, o in zip(pt, offsets)))
    return points


@pytest.mark.parametrize("n, delta, ell", [
    (1, 1, 1), (4, 2, 1),  # support size 0: the offsets alone
    (3, 1, 4), (3, 2, 9), (1, 3, 2),  # support size n: the whole box
    (5, 1, 3), (5, 2, 4), (6, 1, 2),  # proper subsets
])
def test_shifted_grid_matches_the_nested_loops(n, delta, ell):
    p = 11
    rnd = random.Random(n * 100 + delta * 10 + ell)
    offset_vectors = [
        (0,) * n,
        (p - 1,) * n,  # every inside value wraps past p
        tuple(rnd.randrange(p) for _ in range(n)),
        tuple(rnd.randrange(p, 5 * p) for _ in range(n)),  # offsets >= p
        tuple(rnd.choice((p - 1, p, 2 * p - 1, 3)) for _ in range(n)),
    ]
    for offsets in offset_vectors:
        expected = _nested_loop_grid(n, delta, ell, offsets, p)
        assert list(concentrate._shifted_grid(n, delta, ell, offsets, p)) == expected
    grid = low_support_hitting_set(n, delta, ell, Field(p))
    assert list(grid) == _nested_loop_grid(n, delta, ell, (0,) * n, p)
    assert len(grid) == len(list(grid))


# ---------------------------------------------------------------------------
# invertible hitting set


def test_blackbox_invertible_params_tiny():
    # parameter-only family: every invertible instance with the declared
    # parameters is hit, and the size is the exact product formula
    from pitkit.concentrate import invertible_hitting_set_params

    big = Field(1000003)
    points = invertible_hitting_set_params(1, 1, 2, 1, 1, 1, big)
    prov = points.provenance
    assert len(points) == prov["grid"] * prov["t_sweep"] * prov["maps"]
    for seed in range(5):
        spec = InstanceSpec(
            klass="invertible-roabp", seed=seed, modulus=big.p,
            n=1, d=1, w=2, s=1, delta=1, mu=1,
        )
        inst = generate_instance(spec)
        report = verify_hitting_property(inst, points)
        assert report.passed and not report.vacuous


def test_invertible_params_sweep_each_distinct_map_once(monkeypatch):
    # reference: the family over every prime up to the cutoff, with each
    # repeated map's block of grid * t_sweep points dropped
    from pitkit import concentrate
    from pitkit.kron import iter_primes, weights_mod_prime

    def every_prime(n, delta, cutoff):
        return [(p, weights_mod_prime(n, delta, p))
                for p in itertools.takewhile(lambda p: p <= cutoff, iter_primes())]

    for params in INVERTIBLE_PARAMS:
        got = concentrate.invertible_hitting_set_params(*params, F)
        with monkeypatch.context() as m:
            m.setattr(concentrate, "distinct_reductions", every_prime)
            full = concentrate.invertible_hitting_set_params(*params, F)
        size = full.provenance["grid"] * full.provenance["t_sweep"]
        full_points = tuple(full.points)
        blocks = [full_points[i:i + size] for i in range(0, len(full_points), size)]
        distinct = list(dict.fromkeys(blocks))
        assert full.provenance["maps"] > len(distinct)
        assert tuple(got.points) == tuple(itertools.chain.from_iterable(distinct))
        assert got.provenance == {**full.provenance, "maps": len(distinct)}


INVERTIBLE_PARAMS = [(1, 1, 2, 1, 1, 1), (2, 1, 2, 1, 1, 1), (2, 2, 2, 1, 1, 1)]


@pytest.mark.parametrize("params", INVERTIBLE_PARAMS)
def test_invertible_params_offsets_are_per_t0_powers(monkeypatch, params):
    # reference: one pow per coordinate per t0 = g^j
    from pitkit.concentrate import invertible_hitting_set_params
    from pitkit.kron import iter_primes, sweep_generator

    def per_t0_pow(self, count, p):
        g = sweep_generator(count, p)
        return [tuple(pow(g, j * a, p) for a in self.weights) for j in range(count)]

    got = invertible_hitting_set_params(*params, F)
    with monkeypatch.context() as m:
        m.setattr(WeightFn, "sweep", per_t0_pow)
        ref = invertible_hitting_set_params(*params, F)
    assert (tuple(got.points), got.provenance) == (tuple(ref.points), ref.provenance)
    t_sweep = got.provenance["t_sweep"]
    largest = max(itertools.takewhile(lambda p: p <= t_sweep, iter_primes()))
    with pytest.raises(ModulusTooSmallError, match=(
        f"hitting set needs {t_sweep} distinct nonzero t values, "
        f"modulus {largest} is too small"
    )):
        invertible_hitting_set_params(*params, Field(largest))


def test_invertible_params_check_the_sweep_before_the_grid():
    # delta = 2: the grid 1..3 does not fit GF(3) either
    from pitkit.concentrate import invertible_hitting_set_params

    with pytest.raises(ModulusTooSmallError, match="hitting set needs"):
        invertible_hitting_set_params(1, 1, 2, 2, 1, 1, Field(3))


def test_width2_blackbox_mode_is_the_params_set():
    from pitkit.concentrate import width2_hitting_set_params

    big = Field(1000003)
    inst = generate_instance(InstanceSpec(
        klass="width2-roabp", seed=0, modulus=big.p, n=1, d=1, w=2, s=1, delta=1, mu=1,
    ))
    params = width2_hitting_set_params(
        inst.n, inst.d, inst.delta, inst.layer_sparsity, inst.layer_support, big
    )
    mode = width2_hitting_set(inst, "blackbox")
    assert len(mode.points) == len(params.points)
    assert (tuple(mode.points), mode.provenance) == (tuple(params.points), params.provenance)


def test_width2_generator_rejects_other_widths_in_both_modes():
    inst = generate_instance(InstanceSpec(klass="roabp", seed=0, n=1, d=1, w=3, s=1, delta=1))
    for mode in ("whitebox", "blackbox"):
        with pytest.raises(PreconditionError, match="width-2 only; got width 3"):
            width2_hitting_set(inst, mode)


def test_generators_reject_unknown_mode():
    from pitkit.isolate import roabp_hitting_set

    inst = generate_instance(InstanceSpec(klass="width2-roabp", seed=0, n=2, d=1, w=2, s=1))
    for generator in (roabp_hitting_set, invertible_hitting_set, width2_hitting_set):
        with pytest.raises(StructuralError, match="unknown mode"):
            generator(inst, "greybox")


def test_blackbox_width2_params_tiny():
    from pitkit.concentrate import width2_hitting_set_params

    big = Field(1000003)
    points = width2_hitting_set_params(1, 1, 1, 1, 1, big)
    prov = points.provenance
    assert len(points) == prov["count"]
    for seed in range(5):
        spec = InstanceSpec(
            klass="width2-roabp", seed=seed, modulus=big.p,
            n=1, d=1, w=2, s=1, delta=1, mu=1,
            force_singular=(seed % 2 == 0),
        )
        inst = generate_instance(spec)
        report = verify_hitting_property(inst, points)
        assert report.passed and not report.vacuous


def test_invertible_hitting_set_campaign():
    hits = 0
    for seed in range(25):
        spec = InstanceSpec(
            klass="invertible-roabp", seed=seed, n=2 + seed % 4,
            d=1 + seed % 3, w=2, s=1 + seed % 3, delta=1 + seed % 2, mu=1,
        )
        spec = spec.replace(d=min(spec.d, spec.n))
        inst = generate_instance(spec)
        points = invertible_hitting_set(inst)
        prov = points.provenance
        assert len(points) == prov["grid"] * prov["t_sweep"] * prov["maps"]
        report = verify_hitting_property(inst, points)
        assert report.passed and not report.vacuous
        hits += 1
    assert hits == 25


# ---------------------------------------------------------------------------
# width-2 factorization


def test_rank_one_split_worked_example():
    sing = MatPoly(F7, 2, 2, {(0, 0): ((1, 2), (3, 6))})
    inv = MatPoly.identity(F7, 2, 2)
    r = Roabp.with_constant_boundaries(F7, 2, [(0,), (1,)], [sing, inv], (1, 1), (1, 1))
    fact = factorize_width2(r)
    assert not fact.is_zero
    assert fact.split_layers == (0,)
    assert width2_alpha(r, fact).terms == {(0, 0): 1}
    assert len(fact.chain) == 2
    left = fact.chain[0]
    col = [p.terms.get((0, 0), 0) for p in left.right_boundary]
    assert col == [1, 3]


def test_all_invertible_chain_is_identity_factorization():
    inst = invertible_constant_instance(7, n=3, d=2, s=2, delta=1)
    fact = factorize_width2(inst)
    assert fact.split_layers == ()
    assert len(fact.chain) == 1 and fact.chain[0] is inst
    assert width2_alpha(inst, fact).terms == {(0, 0, 0): 1}


def test_zero_layer_gives_zero_certificate():
    zero = MatPoly.zero(F7, 2, 2)
    inv = MatPoly.identity(F7, 2, 2)
    r = Roabp.with_constant_boundaries(F7, 2, [(0,), (1,)], [zero, inv], (1, 1), (1, 1))
    fact = factorize_width2(r)
    assert fact.is_zero
    _, scalar = r.expand()
    assert scalar.is_zero()


def test_factorization_identity_at_random_points():
    rnd = random.Random(61)
    for seed in range(15):
        spec = InstanceSpec(
            klass="width2-roabp", seed=seed, n=3, d=3, w=2, s=2, delta=1,
            mu=1, force_singular=True, nonzero=False,
        )
        inst = generate_instance(spec)
        fact = factorize_width2(inst)
        if fact.is_zero:
            continue
        alpha = width2_alpha(inst, fact)
        for _ in range(100):
            pt = [rnd.randint(0, 10006) for _ in range(3)]
            lhs = (alpha.eval_at(pt) * inst.evaluate(pt)) % F.p
            rhs = 1
            for piece in fact.chain:
                rhs = (rhs * piece.evaluate(pt)) % F.p
            assert lhs == rhs


def test_width2_requires_width_two():
    spec = InstanceSpec(klass="roabp", seed=0, n=3, d=2, w=3, s=2, delta=1)
    inst = generate_instance(spec)
    with pytest.raises(PreconditionError):
        factorize_width2(inst)


@pytest.mark.parametrize("mode", ["whitebox", "blackbox"])
def test_width2_refuses_an_instance_without_variables(mode):
    inst = Roabp.with_constant_boundaries(F, 0, [], [], (1, 0), (0, 1))
    with pytest.raises(StructuralError, match="at least one variable"):
        width2_hitting_set(inst, mode)


# ---------------------------------------------------------------------------
# lagrange curve


def test_curve_single_point_is_constant():
    curve = LagrangeCurve(F7, ((5, 6),))
    assert curve.eval_at(3) == (5, 6)


def test_curve_two_points_nodes_zero_one():
    curve = LagrangeCurve(F7, ((1, 2), (3, 4)))
    assert curve.eval_at(0) == (1, 2)
    assert curve.eval_at(1) == (3, 4)


def test_curve_interpolates_random_points():
    rnd = random.Random(71)
    pts = [tuple(rnd.randint(0, 100) for _ in range(3)) for _ in range(4)]
    curve = LagrangeCurve(Field(101), tuple(pts))
    for node, pt in enumerate(pts):
        assert curve.eval_at(node) == pt


def test_curve_refuses_anchors_of_unequal_length():
    for anchors in (((1,), (2, 3)), ((1, 2), (3,))):
        with pytest.raises(StructuralError, match="same length"):
            LagrangeCurve(Field(101), anchors)


def test_curve_reduces_its_anchors():
    curve = LagrangeCurve(F7, ((8, -1), (3, 4)))
    assert curve.anchors == ((1, 6), (3, 4))
    assert curve.eval_at(0) == (1, 6)
    assert curve.sweep(3) == ((1, 6), (3, 4), curve.eval_at(2))


@pytest.mark.parametrize("p", [5, 7, 101, 10007, 2**31 - 1, 2**61 - 1])
def test_curve_sweep_matches_eval_at(p):
    field = Field(p)
    rnd = random.Random(p)
    shapes = [(1, 1), (1, 3), (2, 1), (min(p - 1, 4), 2), (min(p - 1, 40), 3)]
    for h, n in shapes:
        for _ in range(4):
            # coordinate 0 is zero on every anchor, the others partly zero
            anchors = tuple(
                (0,) + tuple(rnd.choice((0, rnd.randrange(p))) for _ in range(n - 1))
                for _ in range(h)
            )
            curve = LagrangeCurve(field, anchors)
            counts = {0, 1, h - 1, h, h + 1, min(p, 3 * h + 50)}
            if p * h <= 50_000:
                counts.add(p)
            for count in counts:
                expected = tuple(curve.eval_at(u) for u in range(count))
                assert curve.sweep(count) == expected, (h, n, count)
            with pytest.raises(ModulusTooSmallError):
                curve.sweep(p + 1)


@pytest.mark.parametrize("p, h", [
    (p, h)
    for p in (5, 10007, 2**31 - 1, 2**61 - 1, 1208925819614629174706111)
    for h in (1, 2, 27)
    if h < p
])
def test_curve_sweep_matches_eval_at_on_every_slot_layout(p, h):
    # slots of one, two and three 64-bit words; the last anchor set makes
    # every convolution term w_i * alpha_i the largest residue p - 1, so the
    # slots come closest to overflowing
    field = Field(p)
    rnd = random.Random(p + h)
    weights = LagrangeCurve(field, ((0,),) * h)._weights
    anchor_sets = [
        tuple(tuple(rnd.randrange(p) for _ in range(3)) for _ in range(h)),
        tuple((0, (p - 1) * pow(wt, -1, p) % p) for wt in weights),
    ]
    for anchors in anchor_sets:
        curve = LagrangeCurve(field, anchors)
        for count in sorted({h, h + 1, min(p, 36 * h + 1)}):
            assert curve.sweep(count) == tuple(curve.eval_at(u) for u in range(count)), count


def _slot_layouts() -> dict[int, tuple[int, int]]:
    """A (p, h) per byte width of the sweep's packed slots, which hold sums
    of h products of two residues: the largest prime below 2^bits for bits
    up to 62, with h among 1, 2, 5, 17 and 40."""
    layouts = {}
    for bits in range(2, 63):
        p = next(q for q in range(2**bits - 1, 1, -1) if is_prime(q))
        for h in (1, 2, 5, 17, 40):
            if h < p:
                layouts.setdefault(((h * (p - 1) ** 2).bit_length() + 7) // 8, (p, h))
    return layouts


SLOT_LAYOUTS = _slot_layouts()


@pytest.mark.parametrize("width", range(1, 18))
def test_curve_sweep_packs_every_slot_width(width):
    # every residue is packed into the low bytes of its slot, which for
    # widths past 8 spans more than one 64-bit word
    p, h = SLOT_LAYOUTS[width]
    field = Field(p)
    rnd = random.Random(width)
    weights = LagrangeCurve(field, ((0,),) * h)._weights
    anchor_sets = [
        tuple(tuple(rnd.randrange(p) for _ in range(2)) for _ in range(h)),
        tuple(((p - 1) * pow(wt, -1, p) % p, 0) for wt in weights),
    ]
    for anchors in anchor_sets:
        curve = LagrangeCurve(field, anchors)
        count = min(p, 3 * h + 20)
        assert curve.sweep(count) == tuple(curve.eval_at(u) for u in range(count))


def test_curve_sweep_of_points_without_coordinates():
    curve = LagrangeCurve(F7, ((), ()))
    assert curve.sweep(5) == tuple(curve.eval_at(u) for u in range(5)) == ((),) * 5


@pytest.mark.parametrize("mode", ["whitebox", "blackbox"])
def test_width2_hitting_set_sweeps_the_curve(mode, monkeypatch):
    def no_evaluation(self, u):
        raise AssertionError("the curve sweep evaluates no single point")

    spec = InstanceSpec(klass="width2-roabp", seed=0, modulus=2**31 - 1, n=2,
                        d=1, w=2, s=1, delta=1, mu=1, force_singular=True)
    inst = generate_instance(spec)
    with monkeypatch.context() as m:
        m.setattr(LagrangeCurve, "eval_at", no_evaluation)
        points = width2_hitting_set(inst, mode)
    assert len(points) == points.provenance["count"]
    report = verify_hitting_property(inst, points)
    assert report.passed and not report.vacuous


@pytest.mark.parametrize("mode", ["whitebox", "blackbox"])
def test_width2_hitting_set_yields_its_anchors_before_the_sweep(mode, monkeypatch):
    spec = InstanceSpec(klass="width2-roabp", seed=1, modulus=10007, n=2,
                        d=1, w=2, s=1, delta=1, mu=1, force_singular=True)
    inst = generate_instance(spec)
    points = width2_hitting_set(inst, mode)
    h = points.provenance["anchor_count"]
    full = tuple(points)
    curve = LagrangeCurve(inst.field, full[:h])
    assert full == curve.sweep(len(points))

    def no_sweep(self, count):
        raise AssertionError("the anchors need no curve sweep")

    with monkeypatch.context() as m:
        m.setattr(LagrangeCurve, "sweep", no_sweep)
        assert tuple(itertools.islice(points, h)) == curve.anchors
        with pytest.raises(AssertionError, match="no curve sweep"):
            tuple(itertools.islice(points, h + 1))


# ---------------------------------------------------------------------------
# width-2 hitting set


def test_width2_hitting_campaign():
    for seed in range(20):
        spec = InstanceSpec(
            klass="width2-roabp", seed=seed, n=2 + seed % 3, d=1 + seed % 3,
            w=2, s=2, delta=1, mu=1, force_singular=(seed % 2 == 0),
        )
        spec = spec.replace(d=min(spec.d, spec.n))
        inst = generate_instance(spec)
        points = width2_hitting_set(inst)
        prov = points.provenance
        expected = 1 + (inst.d + 2) * prov["per_factor_degree"] * prov["anchor_count"]
        assert len(points) == expected
        report = verify_hitting_property(inst, points)
        assert report.passed and not report.vacuous


@pytest.mark.parametrize("modulus", [10007, 2**31 - 1])
@pytest.mark.parametrize("seed", [1, 2, 6, 10, 11, 12])
def test_width2_curve_runs_through_distinct_anchors(modulus, seed):
    # seed 2 is non-singular; 1, 6, 10, 11 and 12 force a singular layer,
    # and their chain pieces' sets share points
    r = _campaign_instance("width2-roabp", seed, modulus)
    anchors = list(dict.fromkeys(itertools.chain.from_iterable(
        invertible_hitting_set(piece).points for piece in factorize_width2(r).chain
    )))
    points = width2_hitting_set(r)
    prov = points.provenance
    full = tuple(points)
    assert prov["anchor_count"] == len(anchors)
    assert list(full[:len(anchors)]) == anchors
    per_curve_degree = (r.d + 2) * prov["per_factor_degree"]
    assert len(full) == prov["count"] == 1 + per_curve_degree * len(anchors)
    report = verify_hitting_property(r, full)
    assert report.passed and not report.vacuous
    if len(full) > 1500:
        return
    # u -> f(curve(u)) has degree at most per_curve_degree * (|H| - 1): its
    # forward differences of the next order vanish
    p = r.field.p
    values = [r.evaluate(pt) for pt in full]
    for _ in range(per_curve_degree * (len(anchors) - 1) + 1):
        values = [(b - a) % p for a, b in zip(values, values[1:])]
    assert values and not any(values)


def test_width2_all_invertible_curve_passes_through_anchor_witness():
    inst = invertible_constant_instance(9, n=3, d=2, s=2, delta=1)
    direct = invertible_hitting_set(inst)
    assert any(inst.evaluate(pt) for pt in direct)
    swept = width2_hitting_set(inst)
    assert any(inst.evaluate(pt) for pt in swept)


def test_width2_adjacent_singular_layers():
    # two cuts in a row leave a chain piece with no interior layers; the
    # sweep needs a field larger than the conservative degree formula
    big = Field(1000003)
    rnd = random.Random(5)

    def rank1_layer(n, var):
        e = [0] * n
        e[var] = 1
        col = (
            ScalarPoly(big, n, {tuple(e): rnd.randint(1, 10006)}),
            ScalarPoly(big, n, {(0,) * n: rnd.randint(1, 10006)}),
        )
        row = (
            ScalarPoly(big, n, {(0,) * n: rnd.randint(1, 10006)}),
            ScalarPoly(big, n, {tuple(e): rnd.randint(1, 10006)}),
        )
        return MatPoly.from_entries(
            [[col[i] * row[j] for j in range(2)] for i in range(2)]
        )

    def inv_layer(n, var):
        e = [0] * n
        e[var] = 1
        return MatPoly(
            big, n, 2, {(0,) * n: ((3, 1), (1, 2)), tuple(e): ((1, 0), (0, 1))}
        )

    n = 4
    layers = [inv_layer(n, 0), rank1_layer(n, 1), rank1_layer(n, 2), inv_layer(n, 3)]
    r = Roabp.with_constant_boundaries(
        big, n, [(0,), (1,), (2,), (3,)], layers, (1, 2), (3, 1)
    )
    fact = factorize_width2(r)
    assert fact.split_layers == (1, 2)
    assert fact.chain[1].d == 0
    alpha = width2_alpha(r, fact)
    for _ in range(50):
        pt = [rnd.randint(0, big.p - 1) for _ in range(n)]
        lhs = (alpha.eval_at(pt) * r.evaluate(pt)) % big.p
        rhs = 1
        for piece in fact.chain:
            rhs = (rhs * piece.evaluate(pt)) % big.p
        assert lhs == rhs
    report = verify_hitting_property(r, width2_hitting_set(r))
    assert report.passed and not report.vacuous
