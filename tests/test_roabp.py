"""ROABP evaluation, the expansion oracle, the span-propagation zero test,
and weighted substitution."""

import itertools
import random

import pytest

from pitkit.algebra import Field, MatPoly, ScalarPoly, mat_identity, mat_mul
from pitkit.concentrate import factorize_width2
from pitkit.depth3 import circuit_to_roabp
from pitkit.errors import CapabilityError, StructuralError
from pitkit.kron import WeightFn, weights_mod_prime
from pitkit.roabp import Roabp
from pitkit.verify import DetStream, InstanceSpec, _case_overrides, generate_instance
from reference import evaluate_reference, variable

F7 = Field(7)
F = Field(10007)


def width1_chain():
    l1 = MatPoly(F7, 2, 1, {(1, 0): ((1,),)})
    l2 = MatPoly(F7, 2, 1, {(0, 1): ((1,),)})
    return Roabp.with_constant_boundaries(F7, 2, [(0,), (1,)], [l1, l2], (1,), (1,))


@pytest.mark.parametrize("width", [0, -1])
def test_constructors_refuse_a_width_below_one(width):
    # the circuit loader's wording; a width-0 instance once gave a one-point
    # hitting set, or an empty determinant grid
    with pytest.raises(StructuralError, match="^width must be at least 1$"):
        MatPoly(F7, 2, width, {})
    with pytest.raises(StructuralError, match="^width must be at least 1$"):
        Roabp(F7, 2, width, [(0,), (1,)], (), (), ())
    with pytest.raises(StructuralError, match="^width must be at least 1$"):
        Roabp(F7, 2, width, (), (), (), ())


def test_evaluate_width1_example():
    assert width1_chain().evaluate([2, 3]) == 6


def test_evaluate_point_length_checked():
    with pytest.raises(StructuralError, match=r"^point length 1 != ambient 2$"):
        width1_chain().evaluate([1])


def boundary_instance(rnd, field, w, n=7):
    """A width-w instance on a shuffled split of n variables: end blocks of
    one or two variables carrying polynomial boundary entries (some zero),
    and up to three layers, an empty block's layer constant."""
    order = rnd.sample(range(n), n)
    left_block, right_block = order[:rnd.randint(1, 2)], order[-rnd.randint(1, 2):]
    inner = order[len(left_block):n - len(right_block)]
    cuts = sorted(rnd.randint(0, len(inner)) for _ in range(rnd.randint(0, 2)))
    blocks = [inner[a:b] for a, b in zip([0, *cuts], [*cuts, len(inner)])]

    def exponents(block):
        e = [0] * n
        for v in block:
            e[v] = rnd.randint(0, 2)
        return tuple(e)

    def entry():
        return rnd.choice([0, 1, field.p - 1, rnd.randrange(field.p)])

    def boundary(block):
        return tuple(
            ScalarPoly(field, n, {exponents(block): entry() for _ in range(rnd.randint(0, 2))})
            for _ in range(w)
        )

    layers = [
        MatPoly(field, n, w, {
            exponents(block): tuple(tuple(entry() for _ in range(w)) for _ in range(w))
            for _ in range(rnd.randint(1, 3))
        })
        for block in blocks
    ]
    return Roabp(field, n, w, blocks, layers, boundary(left_block), boundary(right_block),
                 left_block, right_block)


def evaluation_instances(p):
    """Seeded instances of the three ROABP classes (and roabp at width 4),
    the chain pieces of the width-2 ones, `circuit_to_roabp` reductions of
    depth3-distance circuits, and `boundary_instance`s of widths 1-4."""
    out = []

    def seeded(klass, seed, **params):
        try:
            return generate_instance(InstanceSpec(
                klass=klass, seed=seed, modulus=p,
                **(params or _case_overrides(klass, seed, {})),
            ))
        except CapabilityError:  # rejection budget spent at a small p
            return None

    for seed in range(10):
        for klass in ("roabp", "invertible-roabp", "width2-roabp"):
            if inst := seeded(klass, seed):
                out.append(inst)
                if klass == "width2-roabp":
                    out += factorize_width2(inst).chain
        if inst := seeded("roabp", seed, n=4, d=3, w=4, s=2, delta=2):
            out.append(inst)
        if circuit := seeded("depth3-distance", seed):
            out.append(circuit_to_roabp(circuit))
    rnd = random.Random(p)
    out += [boundary_instance(rnd, Field(p), w) for w in (1, 2, 3, 4) for _ in range(8)]
    return out


@pytest.mark.parametrize("p", [5, 10007, 2**61 - 1])
def test_evaluate_is_the_reference_value(p):
    # the one block-restricted pass against whole power products of every
    # coordinate, at the zero point and at coordinates in [-3p, 3p]
    instances = evaluation_instances(p)
    assert {r.width for r in instances} >= {1, 2, 3, 4}
    assert any(r.left_block and r.right_block and not r.has_constant_boundaries()
               for r in instances)
    rnd = random.Random(p)
    values = []
    for r in instances:
        for pt in [(0,) * r.n] + [
            tuple(rnd.randint(-3 * p, 3 * p) for _ in range(r.n)) for _ in range(4)
        ]:
            values.append(r.evaluate(pt))
            assert values[-1] == evaluate_reference(r, pt)
    assert sum(map(bool, values)) > len(values) // 4


def test_evaluate_matches_expand_on_random_instances():
    for w, seed in itertools.product((1, 2, 3), range(50)):
        spec = InstanceSpec(klass="roabp", seed=seed, n=3, d=2, w=w, s=2, delta=2, nonzero=False)
        inst = generate_instance(spec)
        _, scalar = inst.expand()
        rnd = random.Random(seed)
        for _ in range(5):
            pt = [rnd.randint(0, 10006) for _ in range(3)]
            assert inst.evaluate(pt) == scalar.eval_at(pt)


def test_three_factor_product_coefficients():
    # (A1 + B1 x1)(A2 + B2 x2)(A3 + B3 x3): all 8 coefficients factor as the
    # per-layer choices, and evaluation equals the coefficient sum
    rnd = random.Random(11)

    def rmat():
        return tuple(tuple(rnd.randint(0, 10006) for _ in range(2)) for _ in range(2))

    mats = [(rmat(), rmat()) for _ in range(3)]
    layers = []
    for i, (a, b) in enumerate(mats):
        e = [0, 0, 0]
        e[i] = 1
        layers.append(MatPoly(F, 3, 2, {(0, 0, 0): a, tuple(e): b}))
    r = Roabp.with_constant_boundaries(
        F, 3, [(0,), (1,), (2,)], layers, (1, 2), (3, 4)
    )
    matrix_part, scalar = r.expand()
    assert matrix_part.sparsity == 8
    for choice in itertools.product((0, 1), repeat=3):
        e = tuple(choice)
        expected = mat_identity(2)
        for i, c in enumerate(choice):
            expected = mat_mul(expected, mats[i][c], F)
        assert matrix_part.coeff(e) == expected
    pt = [5, 6, 7]
    total = 0
    for e, m in matrix_part.terms.items():
        mono = 1
        for i, exp in enumerate(e):
            mono = (mono * pow(pt[i], exp, F.p)) % F.p
        contrib = sum(
            (1, 2)[i] * m[i][j] * (3, 4)[j] for i in range(2) for j in range(2)
        )
        total = (total + mono * contrib) % F.p
    assert r.evaluate(pt) == total


def test_expand_single_layer_is_that_layer():
    layer = MatPoly(F7, 2, 2, {(1, 0): mat_identity(2), (0, 0): ((1, 2), (3, 4))})
    r = Roabp.with_constant_boundaries(F7, 2, [(0, 1)], [layer], (1, 0), (0, 1))
    matrix_part, _ = r.expand()
    assert matrix_part == layer


def test_expand_constant_layers_multiply():
    a = ((1, 2), (3, 4))
    b = ((5, 6), (0, 1))
    la = MatPoly(F7, 1, 2, {(0,): a})
    lb = MatPoly(F7, 1, 2, {(0,): b})
    r = Roabp.with_constant_boundaries(F7, 1, [(), (0,)], [la, lb], (1, 0), (1, 0))
    matrix_part, _ = r.expand()
    assert matrix_part.terms == {(0,): mat_mul(a, b, F7)}


def test_expand_coefficients_factor_per_block():
    for seed in range(10):
        spec = InstanceSpec(klass="roabp", seed=seed, n=3, d=3, w=2, s=2, delta=2, nonzero=False)
        inst = generate_instance(spec)
        matrix_part, _ = inst.expand()
        for e in matrix_part.terms:
            expected = mat_identity(2)
            for blk, layer in zip(inst.blocks, inst.layers):
                sub = tuple(v if i in blk else 0 for i, v in enumerate(e))
                expected = mat_mul(expected, layer.coeff(sub), inst.field)
            assert matrix_part.coeff(e) == expected


def test_expand_ceiling_enforced():
    spec = InstanceSpec(klass="roabp", seed=0, n=4, d=4, w=2, s=3, delta=2, nonzero=False)
    inst = generate_instance(spec)
    with pytest.raises(CapabilityError):
        inst.expand(ceiling=2)


def test_weighted_substitute_examples():
    # C = x1 + x2 with weights (1, 2) -> t + t^2
    l1 = MatPoly(F7, 2, 1, {(1, 0): ((1,),), (0, 0): ((1,),)})
    l2 = MatPoly(F7, 2, 1, {(0, 1): ((1,),), (0, 0): ((1,),)})
    # (1 + x1)(1 + x2) is not x1 + x2; build via width-2 sum lanes instead
    sum_layer1 = MatPoly(
        F7, 2, 2, {(1, 0): ((1, 0), (0, 0)), (0, 0): ((0, 0), (0, 1))}
    )
    sum_layer2 = MatPoly(
        F7, 2, 2, {(0, 0): ((1, 0), (0, 0)), (0, 1): ((0, 0), (0, 1))}
    )
    r = Roabp.with_constant_boundaries(
        F7, 2, [(0,), (1,)], [sum_layer1, sum_layer2], (1, 1), (1, 1)
    )
    _, scalar = r.expand()
    assert scalar.terms == {(1, 0): 1, (0, 1): 1}
    assert r.weighted_substitute(WeightFn((1, 2))) == {1: 1, 2: 1}


def test_weighted_substitute_zero_instance():
    zero_layer = MatPoly.zero(F7, 1, 1)
    r = Roabp.with_constant_boundaries(F7, 1, [(0,)], [zero_layer], (1,), (1,))
    assert r.weighted_substitute(WeightFn((3,))) == {}


def test_zero_iff_zero_on_full_grid_tiny():
    for seed in range(8):
        spec = InstanceSpec(
            klass="roabp", seed=seed, n=2, d=2, w=2, s=2, delta=1, nonzero=False
        )
        inst = generate_instance(spec)
        _, scalar = inst.expand()
        degree = scalar.total_degree()
        grid_zero = all(
            inst.evaluate(pt) == 0
            for pt in itertools.product(range(degree + 1), repeat=2)
        )
        assert grid_zero == scalar.is_zero()


# ---------------------------------------------------------------------------
# the zero test and the image against the expansion oracle


def image_by_expansion(r, wfn):
    """The reference image: f expanded, each monomial sent to t^weight,
    zero coefficients dropped."""
    _, scalar = r.expand()
    image = {}
    for e, c in scalar.terms.items():
        k = wfn.monomial_weight(e)
        image[k] = (image.get(k, 0) + c) % r.field.p
    return {k: c for k, c in image.items() if c}


def campaign_instances(modulus, seeds):
    """The three ROABP campaign classes at their per-seed parameters, with
    zero instances allowed."""
    for klass in ("roabp", "invertible-roabp", "width2-roabp"):
        for seed in seeds:
            yield generate_instance(InstanceSpec(
                klass=klass, seed=seed, modulus=modulus, nonzero=False,
                **_case_overrides(klass, seed, {}),
            ))


def boundary_instances(field):
    """Hand-built instances over x1..x5: polynomial boundary vectors on x1
    and x5 around seeded layers on x2 and (x3, x4); then the same with an
    all-zero left boundary, and with the left boundary (x1, x1) against a
    first layer whose rows cancel, both zero although their layers are not."""
    n, stream = 5, DetStream("boundaries")

    def poly(var, degree):
        return ScalarPoly(field, n, {
            tuple(k if v == var else 0 for v in range(n)): stream.residue(field)
            for k in range(degree + 1)
        })

    def layer(block, degree):
        terms = {}
        for exps in itertools.product(range(degree + 1), repeat=len(block)):
            e = [0] * n
            for v, k in zip(block, exps):
                e[v] = k
            terms[tuple(e)] = tuple(
                tuple(stream.residue(field) for _ in range(2)) for _ in range(2)
            )
        return MatPoly(field, n, 2, terms)

    def roabp(left, first):
        return Roabp(
            field, n, 2, ((1,), (2, 3)), (first, layer((2, 3), 1)),
            left, (poly(4, 1), poly(4, 2)), (0,), (4,),
        )

    for _ in range(6):
        yield roabp((poly(0, 2), poly(0, 1)), layer((1,), 2))
    zero = ScalarPoly.zero(field, n)
    yield roabp((zero, zero), layer((1,), 2))
    x1 = variable(field, n, 0)
    rows_cancel = MatPoly(field, n, 2, {
        e: (m[0], tuple(-x % field.p for x in m[0])) for e, m in layer((1,), 2).terms.items()
    })
    yield roabp((x1, x1), rows_cancel)


@pytest.mark.parametrize("modulus", [5, 7, 10007])
def test_is_zero_matches_the_expansion(modulus):
    zeros = 0
    field = Field(modulus)
    for r in [*campaign_instances(modulus, range(100)), *boundary_instances(field)]:
        zero = r.expand()[1].is_zero()
        assert r.is_zero() == zero
        zeros += zero
    assert zeros >= 2


@pytest.mark.parametrize("modulus", [7, 10007])
def test_weighted_substitute_matches_the_expansion(modulus):
    field = Field(modulus)
    for r in [*campaign_instances(modulus, range(30)), *boundary_instances(field)]:
        for wfn in (
            WeightFn.constant(r.n),
            weights_mod_prime(r.n, r.delta, 2),
            weights_mod_prime(r.n, r.delta, 5),
        ):
            assert r.weighted_substitute(wfn) == image_by_expansion(r, wfn)


def test_weighted_substitute_weighs_each_monomial_once(monkeypatch):
    # every layer monomial once per layer, every boundary term once
    weighed = []
    monomial_weight = WeightFn.monomial_weight

    def counted(self, e):
        weighed.append(e)
        return monomial_weight(self, e)

    monkeypatch.setattr(WeightFn, "monomial_weight", counted)
    for r in campaign_instances(10007, range(10)):
        weighed.clear()
        r.weighted_substitute(WeightFn.constant(r.n))
        boundary = [*r.left_boundary, *r.right_boundary]
        assert len(weighed) == (
            sum(layer.sparsity for layer in r.layers)
            + sum(len(poly.terms) for poly in boundary)
        )


def test_is_zero_and_the_image_expand_nothing(monkeypatch):
    # layers of 32 x 32 monomials in x1, x2 and in x3, x4: the product has
    # 1,048,576 monomials, past the expansion ceiling
    from test_isolate import two_full_layers

    r = two_full_layers(2)
    monkeypatch.setattr(MatPoly, "__mul__", None)
    assert not r.is_zero()
    image = r.weighted_substitute(WeightFn.constant(4))
    assert max(image) == 124
