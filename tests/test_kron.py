"""Kronecker maps and separating prime searches."""

import itertools
import math
import random
import time

import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from pitkit.errors import ModulusTooSmallError, StructuralError
from pitkit.kron import (
    PairSet,
    WeightFn,
    distinct_reductions,
    iter_primes,
    prime_cutoff,
    separating_weights,
    sweep_generator,
    weights_mod_prime,
)
from reference import naive_kronecker


def test_naive_map_formula():
    w = naive_kronecker(2, 1)
    assert w.weights == (1, 2)
    assert w.monomial_weight((1, 1)) == 3
    assert naive_kronecker(1, 5).weights == (1,)
    assert naive_kronecker(3, 2).weights == (1, 3, 9)


def test_naive_map_injective_small():
    # all 27 monomials with n=3, delta=2 get distinct weights
    w = naive_kronecker(3, 2)
    seen = {w.monomial_weight(e) for e in itertools.product(range(3), repeat=3)}
    assert len(seen) == 27


def test_naive_map_injective_up_to_20_bits():
    for n, delta in [(4, 2), (5, 1), (3, 3)]:
        w = naive_kronecker(n, delta)
        monos = list(itertools.product(range(delta + 1), repeat=n))
        weights = {w.monomial_weight(e) for e in monos}
        assert len(weights) == len(monos)


def test_pairset_rejects_equal_monomials():
    with pytest.raises(StructuralError):
        PairSet(2, 1, (((1, 0), (0, 1), (1, 0)),))


def test_separating_weights_worked_example():
    # A = {(x1 x2, x3)}: naive weights (1,2,4) give 3 vs 4, and p=2 already
    # separates with lifted weights (1,2,2): 3 vs 2
    pairs = PairSet(3, 1, (((1, 1, 0), (0, 0, 1)),))
    wfn = separating_weights(3, 1, pairs)
    assert wfn == weights_mod_prime(3, 1, 2)
    assert wfn.weights == (1, 2, 2)
    assert wfn.monomial_weight((1, 1, 0)) == 3
    assert wfn.monomial_weight((0, 0, 1)) == 2


def test_empty_pair_set_takes_the_first_reduction():
    # nothing to separate: the p = 2 map, the first of the blackbox family
    for groups in ([], [[(1, 0, 1)]], [[(0, 0, 0)], [(1, 1, 1)]]):
        assert separating_weights(3, 1, PairSet(3, 1, groups)) == weights_mod_prime(3, 1, 2)


def test_image_reduces_and_drops_zero_coefficients():
    # under (1, 2): x2 and x1^2 both go to t^2, and x1 x2^2 to t^5
    wfn = WeightFn((1, 2))
    terms = {(0, 0): 3, (0, 1): 2, (2, 0): 4, (1, 2): 7, (1, 0): 0}
    assert wfn.image(terms.items(), 7) == {0: 3, 2: 6}
    assert wfn.image({(2, 0): 3, (0, 1): 4}.items(), 7) == {}
    assert wfn.image([], 7) == {}


def test_zero_residues_are_lifted():
    w = weights_mod_prime(3, 1, 2)  # naive (1, 2, 4) -> (1, 0, 0) -> (1, 2, 2)
    assert w.weights == (1, 2, 2)
    assert all(v >= 1 for v in w.weights)


def test_separator_found_for_random_pairsets():
    rnd = random.Random(9)
    for _ in range(20):
        n = rnd.randint(2, 8)
        delta = rnd.randint(1, 3)
        target = min(12, (delta + 1) ** n)
        monos = set()
        while len(monos) < target:
            monos.add(tuple(rnd.randint(0, delta) for _ in range(n)))
        monos = sorted(monos)
        pairs = []
        while len(pairs) < 50:
            a, b = rnd.sample(monos, 2)
            pairs.append((a, b))
        ps = PairSet(n, delta, tuple(pairs))
        wfn = separating_weights(n, delta, ps)
        family = distinct_reductions(n, delta, prime_cutoff(n, len(ps), delta))
        assert wfn in (m for _, m in family)
        for a, b in pairs:
            assert wfn.monomial_weight(a) != wfn.monomial_weight(b)


def _primes_up_to(cutoff):
    """The primes up to cutoff by trial division, lazily."""
    return (p for p in range(2, cutoff + 1) if all(p % q for q in range(2, math.isqrt(p) + 1)))


def _brute_force_separator(n, delta, groups, cutoff):
    """(p, map) for the first prime up to cutoff whose reduced map gives
    every intra-group pair distinct weights, found by listing every pair."""
    pairs = [pair for g in groups for pair in itertools.combinations(g, 2)]
    for p in _primes_up_to(cutoff):
        wfn = weights_mod_prime(n, delta, p)
        if all(wfn.monomial_weight(a) != wfn.monomial_weight(b) for a, b in pairs):
            return p, wfn
    return None


def _residue_prime(n, delta, groups, cutoff):
    """First prime up to cutoff dividing no naive weight difference of any
    intra-group pair: the separator's earlier criterion."""
    naive = naive_kronecker(n, delta)
    diffs = [
        naive.monomial_weight(a) - naive.monomial_weight(b)
        for g in groups
        for a, b in itertools.combinations(g, 2)
    ]
    return next((p for p in _primes_up_to(cutoff) if all(d % p for d in diffs)), None)


@st.composite
def _groups(draw):
    n = draw(st.integers(1, 5))
    delta = draw(st.integers(1, 3))
    mono = st.tuples(*[st.integers(0, delta)] * n)
    groups = draw(st.lists(st.lists(mono, min_size=1, max_size=12, unique=True), min_size=1, max_size=4))
    return n, delta, groups


@settings(max_examples=150, deadline=None)
@given(_groups())
def test_grouped_search_matches_pairwise_reference(case):
    n, delta, groups = case
    ps = PairSet(n, delta, groups)
    assert len(ps) == sum(math.comb(len(g), 2) for g in groups)
    cutoff = prime_cutoff(n, len(ps), delta)
    prime, wfn = _brute_force_separator(n, delta, groups, cutoff)
    assert separating_weights(n, delta, ps) == wfn
    # distinct residues force distinct lifted weights, so the map is never
    # found later than the first prime of distinct residues
    assert prime <= _residue_prime(n, delta, groups, cutoff)


def test_separator_search_starts_at_the_widest_group():
    # the 301^2 = 90,601 monomials of individual degree <= 300 in two
    # variables form one group; below 301 a reduced map (1, w) has w <= 293,
    # so its weights take at most 300 * 294 + 1 = 88,201 values and the map
    # is passed over untested, and the first prime above 301 leaves the
    # naive map (1, 301), which separates the group
    group = list(itertools.product(range(301), repeat=2))
    start = time.process_time()
    wfn = separating_weights(2, 300, PairSet(2, 300, [group]))
    assert wfn.weights == (1, 301)
    assert time.process_time() - start < 2


def test_iter_primes_matches_sieve():
    limit = 40_000
    sieve = bytearray([1]) * (limit + 1)
    sieve[0] = sieve[1] = 0
    for q in range(2, math.isqrt(limit) + 1):
        if sieve[q]:
            sieve[q * q :: q] = bytearray(len(range(q * q, limit + 1, q)))
    expected = [q for q in range(limit + 1) if sieve[q]]
    assert list(itertools.islice(iter_primes(), len(expected))) == expected


def test_iter_primes_below_a_million():
    below = list(itertools.takewhile(lambda q: q < 10**6, iter_primes()))
    assert len(below) == 78_498
    assert below[-1] == 999_983


def test_distinct_reductions_keep_each_vectors_first_prime():
    for n, delta, cutoff in itertools.product([1, 2, 3, 5], [0, 1, 2, 3], [1, 2, 30, 2_000]):
        first: dict[WeightFn, int] = {}
        for p in itertools.takewhile(lambda p: p <= cutoff, iter_primes()):
            first.setdefault(weights_mod_prime(n, delta, p), p)
        expected = [(p, wfn) for wfn, p in first.items()]
        assert list(distinct_reductions(n, delta, cutoff)) == expected, (n, delta, cutoff)


def test_cutoff_matches_formula():
    import math

    n, pairs, delta, c0 = 5, 30, 2, 4
    big_n = c0 * n * pairs * math.ceil(math.log2(delta + 2))
    assert prime_cutoff(n, pairs, delta) == max(13, math.ceil(big_n * math.log(big_n)))


def test_weightfn_positivity_enforced():
    with pytest.raises(StructuralError):
        WeightFn((1, 0, 2))


@st.composite
def sweep_cases(draw):
    """(p, delta, weights); the sweep has 1 + n * delta * max_weight values,
    as a ROABP's does.  The weight cap lets count reach p, one past the
    largest sweep GF(p) holds, and a pool of at most two values makes
    repeated weights common."""
    p = draw(st.sampled_from([5, 7, 11, 13, 10007, 2**31 - 1, 2**61 - 1]))
    n = draw(st.integers(1, 4))
    delta = draw(st.integers(0, 3))
    top = max(1, min(600, (p - 1) // max(1, n * delta)))
    pool = draw(st.lists(st.integers(1, top), min_size=1, max_size=2))
    return p, delta, tuple(draw(st.sampled_from(pool)) for _ in range(n))


@settings(max_examples=150, deadline=None)
@given(case=sweep_cases())
# count = 1 (delta = 0), count = p - 1 at small primes, and count = p
@example(case=(2**61 - 1, 0, (7, 7, 7)))
@example(case=(2**31 - 1, 0, (1,)))
@example(case=(5, 1, (3,)))
@example(case=(7, 1, (5,)))
@example(case=(11, 1, (3, 2, 3)))
@example(case=(13, 1, (11,)))
@example(case=(5, 1, (4,)))
@example(case=(13, 2, (3, 3)))
def test_sweep_equals_per_t_pow(case):
    p, delta, weights = case
    wfn = WeightFn(weights)
    count = 1 + len(weights) * delta * max(weights)
    if count + 1 > p:
        with pytest.raises(ModulusTooSmallError):
            wfn.sweep(count, p)
        return
    g = sweep_generator(count, p)
    expected = [tuple(pow(g, j * w, p) for w in weights) for j in range(count)]
    assert list(wfn.sweep(count, p)) == expected
    assert [wfn.powers(pow(g, j, p), p) for j in range(count)] == expected


# around the first block boundaries of the sweep (blocks of at most 1,024 rows)
SWEEP_COUNTS = [0, 1, 2, 3, 1023, 1024, 1025, 2047, 2048, 2049, 4097]


@pytest.mark.parametrize("p", [5, 10007, 2**31 - 1, 2**61 - 1])
def test_sweep_family_rows_are_per_t_pows(p):
    # a repeated weight, a weight above p and a weight of 1
    weights = (3, 2**40 + 7, 3, 1)
    wfn = WeightFn(weights)
    for count in SWEEP_COUNTS:
        if count + 1 > p:
            with pytest.raises(ModulusTooSmallError):
                wfn.sweep(count, p)
            continue
        sweep = wfn.sweep(count, p)
        g = sweep_generator(count, p)
        expected = [tuple(pow(g, j * w, p) for w in weights) for j in range(count)]
        assert len(sweep) == count
        assert list(sweep) == expected
        assert list(sweep) == expected  # a second iteration builds the same rows


# Mersenne primes, where 2 has the small order log2(p + 1)
MERSENNE = [7, 31, 127, 8191, 2**31 - 1, 2**61 - 1]


@pytest.mark.parametrize("p", MERSENNE)
def test_sweep_t_values_are_distinct_nonzero(p):
    bits = (p + 1).bit_length() - 1  # the order of 2
    counts = {1, 2, bits, bits + 1, 4097}
    if p < 10**4:
        counts |= {p - 2, p - 1}  # p - 1 needs a primitive root
    for count in sorted(c for c in counts if c <= p - 1):
        ts = [t for (t,) in WeightFn((1,)).sweep(count, p)]
        assert len(ts) == count and ts[0] == 1
        assert len(set(ts)) == count and 0 not in ts
    if p < 10**4:
        with pytest.raises(ModulusTooSmallError):
            WeightFn((1,)).sweep(p, p)


@pytest.mark.parametrize("p", [2, 3, 5, 7, 13, 31, 127])
def test_sweep_generator_is_the_smallest_of_large_enough_order(p):
    def order(g):
        return next(m for m in range(1, p) if pow(g, m, p) == 1)

    for count in range(p):
        g = sweep_generator(count, p)
        assert g >= 2 or p == 2
        assert order(g) >= count
        assert all(order(h) < count for h in range(2, g))


def test_sweep_family_len_builds_nothing(monkeypatch):
    from pitkit import kron

    def refuse(*args):
        raise AssertionError("built a point")

    monkeypatch.setattr(kron, "pow", refuse, raising=False)
    monkeypatch.setattr(kron, "sweep_generator", refuse)
    sweep = WeightFn((2, 5)).sweep(4097, 10007)
    assert len(sweep) == 4097
    rows = iter(sweep)
    with pytest.raises(AssertionError, match="built a point"):
        next(rows)
