"""The all-ones point as the generators' certificate of a nonzero.

Every map of the whitebox ladder and of the shift search sends t = 1 to
the all-ones point, so one nonzero value there decides the constant rung,
a layer's singularity and the first shift candidate.  The symbolic image
(`Roabp.weighted_substitute`) and determinant (`det_poly`) run only when
that value is 0.  These tests pin that the certified path emits exactly the
points and provenance of the symbolic path, that it does no symbolic work,
that it takes each layer's value at ones once and tries the all-ones shift
once, and that every refusal it meets is unchanged.

The symbolic path is the ladder with its certificate read as 0
(`Roabp.evaluate`: whitebox `hs roabp` evaluates nothing else), each
layer's singularity read from its determinant, and the reference shift
search (`reference.shift_search_reference`), which tries every (map, t0)
in order and reads invertibility from the determinants.
"""

import contextlib
import hashlib
import json

import pytest

from pitkit import algebra, concentrate
from pitkit.algebra import Field, MatPoly, ScalarPoly, det_poly
from pitkit.concentrate import (
    factorize_width2,
    find_concentrating_shift,
    invertible_hitting_set,
    width2_hitting_set,
)
from pitkit.errors import CapabilityError, ModulusTooSmallError, PitError, PreconditionError
from pitkit.io_cli import main, save_instance
from pitkit.isolate import roabp_hitting_set
from pitkit.roabp import Roabp
from pitkit.verify import InstanceSpec, _case_overrides, generate_instance
from reference import det_at_ones, shift_search_reference, uncached, variable
from test_isolate import _route_instances

# the invertible class runs the paper's shift-search set, which the public
# generator emits only where it is smaller than the grid
GENERATORS = {
    "roabp": lambda r: roabp_hitting_set(r, "whitebox"),
    "invertible-roabp": concentrate._paper_whitebox_set,
    "width2-roabp": width2_hitting_set,
}


def spec_of(klass: str, seed: int, modulus: int) -> InstanceSpec:
    return InstanceSpec(
        klass=klass, seed=seed, modulus=modulus, **_case_overrides(klass, seed, {})
    )


def outcome(generate, r) -> tuple:
    """The sha256 of a set's provenance and points, or its error."""
    try:
        points = generate(r)
    except PitError as exc:
        return type(exc).__name__, str(exc)
    h = hashlib.sha256(json.dumps(points.provenance, sort_keys=True).encode())
    for pt in points.points:
        h.update((",".join(map(str, pt)) + "\n").encode())
    return ("points", h.hexdigest())


@contextlib.contextmanager
def symbolic_path(monkeypatch, ladder: bool = True):
    """Every nonzero test runs symbolically: a layer is singular when its
    determinant is zero, after the determinant's refusals, the shift search
    is the reference one, and with `ladder` f(1, ..., 1) reads 0, so the
    ladder computes the constant image.  Only the ladder reads
    `Roabp.evaluate` as its certificate; the shift search evaluates f to
    test its grid."""
    with monkeypatch.context() as patch:
        patch.setattr(MatPoly, "is_singular", lambda self: self.det.is_zero())
        patch.setattr(concentrate, "find_concentrating_shift", shift_search_reference)
        if ladder:
            patch.setattr(Roabp, "evaluate", lambda self, point: 0)
        yield


P31 = 2**31 - 1


@pytest.mark.parametrize("klass, modulus", [
    *((klass, modulus) for klass in GENERATORS for modulus in (10007, 5)),
    ("invertible-roabp", P31), ("width2-roabp", P31),
])
def test_generators_agree_with_the_symbolic_path(monkeypatch, klass, modulus):
    # the campaign seeds (100 at 2^31 - 1): the same instance and the same
    # set, or the same refusal, whether the certificates or the expansions
    # and the reference search decide
    for seed in range(100 if modulus == P31 else 200):
        spec = spec_of(klass, seed, modulus)
        r = generate_instance(spec)
        expected = outcome(GENERATORS[klass], r)
        with symbolic_path(monkeypatch, ladder=klass == "roabp"):
            symbolic = generate_instance(spec)
            assert (symbolic, outcome(GENERATORS[klass], symbolic)) == (r, expected), seed


@pytest.mark.parametrize("modulus", [10007, P31])
def test_the_ladder_agrees_with_the_symbolic_path(monkeypatch, modulus):
    # the campaign roabps, the depth3 reductions at 2^31 - 1, and the
    # cross-times-dense instances whose value at ones is 0, so the image
    # is computed and the Kronecker and round-combined rungs run
    images = []
    substitute = Roabp.weighted_substitute
    monkeypatch.setattr(
        Roabp, "weighted_substitute", lambda self, wfn: images.append(1) or substitute(self, wfn)
    )
    routes = set()
    for r in _route_instances(modulus):
        images.clear()
        got = roabp_hitting_set(r, "whitebox")
        assert bool(images) == (r.evaluate((1,) * r.n) == 0)
        with symbolic_path(monkeypatch):
            expected = roabp_hitting_set(r, "whitebox")
        assert got.provenance == expected.provenance
        assert tuple(got.points) == tuple(expected.points)
        if images:
            routes.add(got.provenance["assignment"])
    assert {"kronecker", "round-combined"} <= routes


CONST = (0, 0, 0)
EYE, SWAP = ((1, 0), (0, 1)), ((0, 1), (1, 0))


def x(v: int) -> tuple:
    """The exponent of x_(v+1) among three variables."""
    return tuple(int(u == v) for u in range(3))


def singular_at_ones(p: int, w: int) -> Roabp:
    """A layer singular at the all-ones point but not symbolically, then an
    invertible one.  At width 2, [[x1, 1], [1, x1]], with determinant
    x1^2 - 1, on x1, then a layer on x2, x3; at width 3, that block next to
    a 1 on x1, x2, then a layer on x3."""
    field = Field(p)
    if w == 2:
        first = MatPoly(field, 3, 2, {x(0): EYE, CONST: SWAP})
        second = MatPoly(field, 3, 2, {CONST: ((1, 2), (3, 4)), x(1): EYE})
        return Roabp.with_constant_boundaries(
            field, 3, [(0,), (1, 2)], [first, second], (1, 2), (3, 1)
        )
    first = MatPoly(field, 3, 3, {
        x(0): ((1, 0, 0), (0, 1, 0), (0, 0, 0)),
        CONST: ((0, 1, 0), (1, 0, 0), (0, 0, 1)),
    })
    second = MatPoly(field, 3, 3, {
        CONST: ((1, 2, 0), (3, 4, 0), (0, 1, 1)),
        x(2): ((1, 0, 0), (0, 1, 0), (0, 0, 1)),
    })
    return Roabp.with_constant_boundaries(
        field, 3, [(0, 1), (2,)], [first, second], (1, 0, 1), (0, 1, 1)
    )


def split_and_singular_at_ones(p: int) -> Roabp:
    """Width 2: a symbolically singular layer (x1, 1)^T (1, x1), the layer
    [[x2, 1], [1, x2]] singular only at ones, and an invertible layer."""
    field = Field(p)
    x1, one = variable(field, 3, 0), ScalarPoly.const(field, 3, 1)
    split = MatPoly.from_entries([[x1, x1 * x1], [one, x1]])
    middle = MatPoly(field, 3, 2, {x(1): EYE, CONST: SWAP})
    last = MatPoly(field, 3, 2, {CONST: ((1, 2), (3, 4)), x(2): EYE})
    return Roabp.with_constant_boundaries(
        field, 3, [(0,), (1,), (2,)], [split, middle, last], (1, 2), (3, 1)
    )


# (map, prime, t0) and the set's sha256, as the symbolic search gives them
PAIR = "da6c628d389ae559b09e55d630513608c62fd5d895dadc12f299174270850d51"
HAND_BUILT = {
    (2, 10007): ((1, 1, 1), 2, 2, PAIR),
    (2, 5): ((1, 1, 1), 2, 2, PAIR),
    (3, 10007): ((1, 2, 2), 2, 2, "d2ed262fdbf7d9febbfcfc9d7ea3f720c4aad51b3b0bb622a4419df1e410c15f"),
    (3, 5): ((1, 1, 1), 3, 2, "927f3e9a16f4d03088225d4afa16d21cc01db978d121e0979d6c62de42b9e35b"),
}


@pytest.mark.parametrize("w, p", list(HAND_BUILT))
def test_layers_singular_only_at_ones_reach_the_symbolic_search(monkeypatch, w, p):
    weights, prime, t0, digest = HAND_BUILT[w, p]
    r = singular_at_ones(p, w)
    assert not det_at_ones(r.layers[0]) and det_at_ones(r.layers[1])
    assert not det_poly(r.layers[0].entry_grid()).is_zero()
    grids = []
    monkeypatch.setattr(algebra, "det_poly", lambda grid: grids.append(1) or det_poly(grid))
    wfn, got_prime, got_t0 = find_concentrating_shift(r)
    assert (wfn.weights, got_prime, got_t0) == (weights, prime, t0)
    assert len(grids) == 2  # the search reads both layers' determinants
    assert outcome(concentrate._paper_whitebox_set, uncached(r)) == ("points", digest)


def test_width2_layers_singular_only_at_ones_are_not_split():
    r = split_and_singular_at_ones(10007)
    fact = factorize_width2(r)
    assert fact.split_layers == (0,) and len(fact.chain) == 2
    # both pieces' invertible sets are the grid {g^0..g^2}^3: 27 anchors
    assert outcome(width2_hitting_set, uncached(r)) == (
        "points", "9ecc2aecd07947019d9a5a93854420c2551b2bf2e4310eea5ce458a757e55174"
    )
    assert outcome(width2_hitting_set, split_and_singular_at_ones(7)) == (
        "ModulusTooSmallError", "curve sweep needs 1351 distinct values, modulus 7 too small"
    )


@pytest.mark.parametrize("modulus", [10007, 5])
def test_the_certified_path_expands_nothing(monkeypatch, modulus):
    # with the image and the determinant refused, whitebox hs roabp is
    # unchanged on every seed with f(1, ..., 1) != 0, and hs invertible on
    # every seed whose layers are invertible at ones
    cases = []
    for klass in ("roabp", "invertible-roabp"):
        for seed in range(200):
            r = generate_instance(spec_of(klass, seed, modulus))
            if klass == "roabp":
                certified = r.evaluate((1,) * r.n) != 0
            else:
                certified = all(map(det_at_ones, r.layers))
            if certified:
                r = uncached(r)
                cases.append((klass, r, outcome(GENERATORS[klass], uncached(r))))
    counts = [sum(case[0] == klass for case in cases) for klass in ("roabp", "invertible-roabp")]
    assert counts == {10007: [200, 200], 5: [177, 158]}[modulus]

    def refused(*args):
        raise AssertionError("symbolic work on the certified path")

    monkeypatch.setattr(Roabp, "weighted_substitute", refused)
    monkeypatch.setattr(algebra, "det_poly", refused)
    for klass, r, expected in cases:
        assert outcome(GENERATORS[klass], r) == expected


@contextlib.contextmanager
def certificates_asked(monkeypatch):
    """(the layers whose all-ones certificate is asked, in order, the
    number of numeric determinants taken) while the context is open."""
    asked, dets = [], []
    certificate, det = MatPoly.invertible_at_ones, algebra.mat_det
    with monkeypatch.context() as patch:
        patch.setattr(
            MatPoly, "invertible_at_ones", lambda self: asked.append(self) or certificate(self)
        )
        patch.setattr(algebra, "mat_det", lambda m, field: dets.append(1) or det(m, field))
        yield asked, dets


@pytest.mark.parametrize("modulus", [10007, 5])
def test_each_layer_takes_one_determinant_at_ones(monkeypatch, modulus):
    # one mat_det per layer object asked, however often it is asked: the
    # generator's redraws, factorize_width2 and every chain piece's search,
    # or the invertible set's search, share the layer objects
    totals = []
    for klass in ("width2-roabp", "invertible-roabp"):
        asked_total = dets_total = 0
        for seed in range(200):
            with certificates_asked(monkeypatch) as (asked, dets):
                outcome(GENERATORS[klass], generate_instance(spec_of(klass, seed, modulus)))
            assert len(dets) == len({id(layer) for layer in asked}), (klass, seed)
            asked_total += len(asked)
            dets_total += len(dets)
        assert asked_total > dets_total
        totals.append(dets_total)
    assert totals == {10007: [380, 372], 5: [380, 453]}[modulus]


@pytest.mark.parametrize("case", ["invertible-at-ones", "singular-at-ones"])
def test_the_all_ones_candidate_is_tried_once(monkeypatch, case):
    # every candidate of the first map is rejected, so the search reaches
    # the second map; the all-ones offsets, which every map gives at
    # t0 = 1, reach the grid test once, and never when a layer is singular
    # there
    if case == "invertible-at-ones":
        r = generate_instance(spec_of("invertible-roabp", 0, 10007))
        assert all(map(det_at_ones, r.layers))
    else:
        r = singular_at_ones(10007, 2)
    maps, hits = concentrate._shift_maps, concentrate._shift_hits
    primes, tried = [], []

    def recorded(*family):
        for prime, wfn in maps(*family):
            primes.append(prime)
            yield prime, wfn

    def rejecting(r, bound, offsets):
        tried.append(tuple(offsets))
        return len(set(primes)) > 1 and hits(r, bound, offsets)

    monkeypatch.setattr(concentrate, "_shift_maps", recorded)
    monkeypatch.setattr(concentrate, "_shift_hits", rejecting)
    _, prime, t0 = find_concentrating_shift(r)
    assert (prime, t0) == (3, 2)
    assert tried.count((1,) * r.n) == (case == "invertible-at-ones")
    assert len(tried) == len(set(tried))


# ---------------------------------------------------------------------------
# refusals


def test_width_five_hs_invertible_still_exits_3(tmp_path, capsys):
    r = generate_instance(InstanceSpec(klass="roabp", seed=0, n=4, d=2, w=5, s=2, delta=1))
    assert all(map(det_at_ones, r.layers))
    path = str(tmp_path / "w5.json")
    save_instance(r, path)
    assert main(["hs", "invertible", "--input", path, "--out", str(tmp_path / "p.txt")]) == 3
    assert capsys.readouterr().err == (
        "capability error: determinant width 5 exceeds the configured limit 4\n"
    )


@pytest.mark.parametrize("klass, seed, count", [
    ("invertible-roabp", 0, 9), ("invertible-roabp", 2, 4),
    ("width2-roabp", 0, 4), ("width2-roabp", 3, 9),
])
def test_the_term_ceiling_refuses_ahead_of_the_certificate(monkeypatch, klass, seed, count):
    # every layer is invertible at ones, and the refusal is still raised,
    # on a layer whose determinant no cache holds
    spec = InstanceSpec(klass=klass, seed=seed, n=4, d=2, w=2, s=3, delta=2, mu=1)
    r = uncached(generate_instance(spec))
    assert all(map(det_at_ones, r.layers))
    monkeypatch.setattr(algebra, "DET_TERM_CEILING", 3)
    message = f"determinant of up to {count} terms exceeds the ceiling 3"
    generators = [invertible_hitting_set, width2_hitting_set]
    if klass == "invertible-roabp":
        generators.append(lambda _: generate_instance(spec))
    for generate in generators:
        with pytest.raises(CapabilityError) as info:
            generate(uncached(r))
        assert str(info.value) == message


def test_the_term_bound_is_counted_once_and_checked_on_every_ask(monkeypatch):
    # a layer's row product is counted on its first ask only; a ceiling
    # lowered between asks still refuses, with the message a fresh layer gets
    import math

    class CountingMath:
        def __getattr__(self, name):
            return getattr(math, name)

        def prod(self, values):
            products.append(1)
            return math.prod(values)

    products = []
    monkeypatch.setattr(algebra, "math", CountingMath())
    spec = InstanceSpec(klass="invertible-roabp", seed=0, n=4, d=2, w=2, s=3, delta=2, mu=1)
    layer, fresh = (uncached(generate_instance(spec)).layers[1] for _ in range(2))
    products.clear()
    assert all(layer.invertible_at_ones() for _ in range(3))
    assert len(products) == 1
    monkeypatch.setattr(algebra, "DET_TERM_CEILING", 3)
    message = "determinant of up to 9 terms exceeds the ceiling 3"
    for asked in (layer, fresh):
        with pytest.raises(CapabilityError) as info:
            asked.invertible_at_ones()
        assert str(info.value) == message
    assert len(products) == 2


def test_a_singular_layer_is_refused_ahead_of_the_modulus_check():
    # at p = 3 <= delta + 1 the grid does not fit, but a symbolically
    # singular layer is reported first; a layer singular only at ones is not
    field, n = Field(3), 2
    x2, one = variable(field, n, 1), ScalarPoly.const(field, n, 1)
    singular = MatPoly.from_entries([[x2 * x2, x2 * x2], [one, one]])
    squares = MatPoly(field, n, 2, {(2, 0): EYE, (0, 0): SWAP})
    assert singular.det.is_zero() and not singular.is_zero()
    assert not squares.det.is_zero() and not det_at_ones(squares)

    def instance(first, second):
        return Roabp.with_constant_boundaries(
            field, n, [(0,), (1,)], [first, second], (1, 0), (0, 1)
        )

    on_x1 = MatPoly(field, n, 2, {(0, 0): EYE, (1, 0): ((1, 1), (0, 1))})
    with pytest.raises(PreconditionError, match="layer 1 is symbolically singular"):
        find_concentrating_shift(uncached(instance(on_x1, singular)))
    on_x2 = MatPoly(field, n, 2, {(0, 0): EYE, (0, 1): ((1, 1), (0, 1))})
    with pytest.raises(ModulusTooSmallError, match=r"grid 1\.\.3 does not fit in GF\(3\)"):
        find_concentrating_shift(uncached(instance(squares, on_x2)))
