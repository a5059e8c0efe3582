"""Kronecker weight machinery.

The naive map x_i -> (delta+1)^(i-1) gives distinct weights to all monomials
with individual degree <= delta, at the price of exponentially large weights.
Reducing it modulo small primes yields a candidate family of cheap weight
functions, at least one of which separates any fixed set of monomial pairs.
A `RoundMap` takes one such function per round, each with its own variable,
and sweeps the grid of its round values.
"""

from __future__ import annotations

import math
from functools import partial
from itertools import accumulate, chain, compress, repeat, takewhile
from itertools import product as iter_product
from operator import mul
from typing import Callable, Iterable, Iterator, Sequence

from .algebra import Frozen, Monomial
from .errors import InternalInconsistencyError, ModulusTooSmallError, StructuralError

CUTOFF_CONSTANT = 4  # the counting argument's c0; see prime_cutoff


class WeightFn(Frozen):
    """Positive integer weight per variable; a monomial weighs the
    exponent-weighted sum of its variables' weights."""

    __match_args__ = ("weights",)

    def __init__(self, weights: tuple) -> None:
        ws = tuple(int(w) for w in weights)
        if any(w < 1 for w in ws):
            raise StructuralError("weights must be positive")
        self.__dict__["weights"] = ws

    @classmethod
    def constant(cls, n: int) -> "WeightFn":
        """Weight 1 on every variable."""
        return cls((1,) * n)

    @property
    def n(self) -> int:
        return len(self.weights)

    @property
    def max_weight(self) -> int:
        return max(self.weights)

    def monomial_weight(self, e: Monomial) -> int:
        return sum(map(mul, e, self.weights))

    def side(self, delta: int) -> int:
        """1 + delta * sum(w): more than the degree of the image of any
        polynomial of individual degree <= delta, so a sweep of that many
        distinct t hits every nonzero image."""
        return 1 + delta * sum(self.weights)

    def image(self, terms: Iterable[tuple[Monomial, int]], p: int) -> dict[int, int]:
        """The univariate image of sum c * x^e over the (e, c) terms under
        x_i -> t^w(x_i): t exponent -> coefficient mod p, nonzero ones only."""
        out: dict[int, int] = {}
        for e, c in terms:
            if c:
                k = self.monomial_weight(e)
                out[k] = out.get(k, 0) + c
        return {k: c % p for k, c in out.items() if c % p}

    def powers(self, t: int, p: int) -> tuple[int, ...]:
        """The point (t^w(x_1), ..., t^w(x_n)) mod p."""
        return tuple(pow(t, w, p) for w in self.weights)

    def sweep(self, count: int, p: int) -> "PointFamily":
        """powers(g^j, p) for j = 0 .. count-1 with g = sweep_generator(count, p),
        so the t values g^j are distinct nonzero residues mod p.

        Only the modulus check runs here; g and the points are found each
        time the family is iterated (see _sweep_blocks).
        """
        check_sweep(count, p)
        return PointFamily(
            count, lambda: chain.from_iterable(_sweep_blocks(self.weights, count, p))
        )


def check_sweep(count: int, p: int) -> None:
    """Refuse a t-sweep of count distinct nonzero values that GF(p) lacks."""
    if count + 1 > p:
        raise ModulusTooSmallError(
            f"hitting set needs {count} distinct nonzero t values, "
            f"modulus {p} is too small"
        )


class RoundMap(Frozen):
    """One weight function per round, each with its own variable t_r:
    x_v -> prod_r t_r^(w_r(v)).  A monomial weighs the tuple of its round
    weights, compared lexicographically, so earlier rounds take precedence.

    The image of a polynomial of individual degree <= delta has degree below
    `sides(delta)[r]` in t_r, so `sweep` hits every nonzero image."""

    __match_args__ = ("rounds",)

    def __init__(self, rounds: tuple) -> None:
        rs = tuple(rounds)
        if not rs:
            raise StructuralError("a round map needs at least one round")
        if len({w.n for w in rs}) != 1:
            raise StructuralError("rounds must weigh the same variables")
        self.__dict__["rounds"] = rs

    @property
    def n(self) -> int:
        return self.rounds[0].n

    @property
    def weights(self) -> tuple:
        """Each round's weight vector."""
        return tuple(w.weights for w in self.rounds)

    @property
    def max_weight(self) -> int:
        return max(w.max_weight for w in self.rounds)

    def monomial_weight(self, e: Monomial) -> tuple[int, ...]:
        return tuple(w.monomial_weight(e) for w in self.rounds)

    def sides(self, delta: int) -> tuple[int, ...]:
        """Each round's `WeightFn.side`."""
        return tuple(w.side(delta) for w in self.rounds)

    def sweep(self, delta: int, p: int) -> "PointFamily":
        """The grid of round tuples (t_1, ..., t_R), each t_r running over
        round r's sweep of `sides(delta)[r]` values (`WeightFn.sweep`), as
        the points (prod_r t_r^(w_r(v)) for each v): a product family of
        prod(sides) points.  One round is its own sweep."""
        sweeps = [w.sweep(side, p) for w, side in zip(self.rounds, self.sides(delta))]
        return PointFamily.product(sweeps, p)


def grid_sweep(n: int, delta: int, p: int) -> "PointFamily":
    """The grid {g^0, ..., g^delta}^n of (delta+1)^n points, the last
    variable changing fastest, for the delta+1 values g^j of a one-variable
    sweep (`WeightFn.sweep`, whose modulus check runs here).  It hits every
    nonzero polynomial of individual degree <= delta (Combinatorial
    Nullstellensatz).  It is one `itertools.product` of those values, not a
    round-map sweep: a product of n one-variable rounds multiplies out
    every coordinate of every point."""
    column = WeightFn((1,)).sweep(delta + 1, p)
    return PointFamily((delta + 1) ** n, lambda: iter_product(
        [t for (t,) in column], repeat=n
    ))


class PointFamily:
    """A sized, re-iterable family of points: `len()` is `size`, and each
    iteration builds the points anew from `rows()`.  `size` is exact past
    sys.maxsize, where `len()` overflows."""

    def __init__(self, size: int, rows: Callable[[], Iterable[tuple]]):
        self.size = size
        self._rows = rows

    def __len__(self) -> int:
        return self.size

    def __iter__(self) -> Iterator[tuple]:
        return iter(self._rows())

    @classmethod
    def concat(cls, families: Sequence) -> "PointFamily":
        """The families one after another."""
        return cls(sum(map(len, families)), partial(chain.from_iterable, families))

    @classmethod
    def product(cls, families: Sequence, p: int) -> "PointFamily":
        """The coordinatewise products mod p of one point of each family, for
        every choice, the last family's point changing fastest.  Each
        iteration holds the families' points, not the product's; a single
        family is itself."""
        if len(families) == 1:
            return families[0]

        def rows() -> Iterator[tuple]:
            *outer, inner = [tuple(f) for f in families]
            columns = list(zip(*inner))
            for choice in iter_product(*outer):
                head = choice[0]
                for row in choice[1:]:
                    head = [x * y % p for x, y in zip(head, row)]
                # the last family's points, scaled column by column
                yield from zip(*[[x * y % p for y in col] for x, col in zip(head, columns)])

        return cls(math.prod(map(len, families)), rows)


# rows of a t-sweep built at a time
_SWEEP_BLOCK = 1024


def sweep_generator(count: int, p: int) -> int:
    """The smallest g >= 2 of multiplicative order at least count mod the
    prime p, for count <= p - 1 (1 at p = 2, where count <= 1).

    A primitive root always passes.  With baby steps g^j (j < s, the largest
    j kept per value) and giant steps g^(s*i) (0 < i <= s), s * s > count,
    the first giant step that meets a baby step gives the order s*i - j; no
    meeting means an order above s * s.
    """
    s = math.isqrt(count) + 1
    for g in range(2, p):
        baby, x = {}, 1
        for j in range(s):
            baby[x] = j
            x = x * g % p
        giant = accumulate(repeat(x, s), lambda y, _: y * x % p)
        if next((s * i - baby[y] for i, y in enumerate(giant, 1) if y in baby), count) >= count:
            return g
    return 1


def _sweep_blocks(weights: tuple, count: int, p: int) -> Iterator[zip]:
    """The rows (g^(j*w) mod p for w in weights) for j = 0 .. count-1, a
    block at a time: each distinct weight's first block is doubled from [1],
    one multiplication per entry, and each later block is the previous one
    times g^(w * block)."""
    g = sweep_generator(count, p)
    block = {}
    for w in set(weights):
        col = [1]
        while len(col) < min(count, _SWEEP_BLOCK):
            step = pow(g, w * len(col), p)
            col += [x * step % p for x in col]
        block[w] = col[:count]
    yield zip(*(block[w] for w in weights))
    for lo in range(_SWEEP_BLOCK, count, _SWEEP_BLOCK):
        for w, col in block.items():
            step = pow(g, w * _SWEEP_BLOCK, p)
            block[w] = [x * step % p for x in col[:count - lo]]
        yield zip(*(block[w] for w in weights))


class PairSet(Frozen):
    """Groups of distinct monomials with individual degree <= delta.

    The pairs to separate are the unordered pairs inside each group; they
    are never listed, and len() counts them as the sum of C(|g|, 2).
    """

    __match_args__ = ("n", "delta", "groups")

    def __init__(self, n: int, delta: int, groups: tuple) -> None:
        clean = []
        for group in groups:
            g = tuple(tuple(m) for m in group)
            for m in g:
                if len(m) != n:
                    raise StructuralError("group monomial has wrong ambient length")
                if max(m, default=0) > delta:
                    raise StructuralError("group monomial exceeds the degree bound")
            if len(set(g)) != len(g):
                raise StructuralError(f"group {g} repeats a monomial")
            clean.append(g)
        self.__dict__.update(n=n, delta=delta, groups=tuple(clean))

    def __len__(self) -> int:
        return sum(len(g) * (len(g) - 1) // 2 for g in self.groups)


def iter_primes() -> Iterator[int]:
    """2, 3, 5, ...: a sieve of Eratosthenes over the segments [lo, 2*lo),
    doubling from [2, 4).  Every prime q with q*q < 2*lo is below lo, so
    the primes of the earlier segments cross off each segment."""
    primes: list[int] = []
    lo = 2
    while True:
        alive = bytearray([1]) * lo
        for q in takewhile(lambda q: q * q < 2 * lo, primes):
            first = -lo % q
            alive[first::q] = bytes(len(range(first, lo, q)))
        found = list(compress(range(lo, 2 * lo), alive))
        primes += found
        yield from found
        lo *= 2


def prime_cutoff(n: int, pair_count: int, delta: int) -> int:
    """Largest prime value the candidate search may use.

    N = CUTOFF_CONSTANT * n * |A| * ceil(log2(delta+2)); the candidates are the
    primes up to N log N, enough for the counting argument to guarantee a
    separator.
    """
    count = max(1, pair_count)
    big_n = CUTOFF_CONSTANT * n * count * max(1, math.ceil(math.log2(delta + 2)))
    return max(13, math.ceil(big_n * math.log(max(big_n, 2))))


def weights_mod_prime(n: int, delta: int, p: int) -> WeightFn:
    """The naive Kronecker weights reduced mod p; zero residues are lifted to
    p itself so every weight stays positive while staying congruent mod p."""
    base = delta + 1
    ws = []
    acc = 1
    for _ in range(n):
        r = acc % p
        ws.append(r if r else p)
        acc *= base
    return WeightFn(tuple(ws))


def distinct_reductions(n: int, delta: int, cutoff: int) -> Iterator[tuple[int, WeightFn]]:
    """(p, weights_mod_prime(n, delta, p)) for the first prime p of each
    distinct reduced vector over the primes p <= cutoff, in increasing
    order, yielded as they are found.

    Every prime above (delta+1)^(n-1) leaves the naive weights unreduced,
    so the scan stops at the first such prime.
    """
    top = (delta + 1) ** (n - 1)
    seen: set[tuple] = set()
    for p in takewhile(lambda q: q <= cutoff, iter_primes()):
        wfn = weights_mod_prime(n, delta, p)
        if wfn.weights not in seen:
            seen.add(wfn.weights)
            yield p, wfn
        if p > top:
            return


def separating_weights(n: int, delta: int, pair_set: PairSet) -> WeightFn:
    """The first map of distinct_reductions(n, delta, cutoff) whose
    monomial weights differ inside every group of the set, for the
    counting argument's cutoff = prime_cutoff(n, |pairs|, delta).

    A map whose weight range `WeightFn.side(delta)` is narrower than the
    widest group cannot separate it and is skipped untested.  Distinct
    naive weights mod p force distinct lifted weights, so the counting
    argument guarantees success within the cutoff, and running past it is
    reported as an internal inconsistency.
    """
    pair_count = len(pair_set)
    cutoff = prime_cutoff(n, pair_count, delta)
    groups = [g for g in pair_set.groups if len(g) > 1]
    widest = max(map(len, groups), default=0)
    for _, wfn in distinct_reductions(n, delta, cutoff):
        if wfn.side(delta) < widest:
            continue
        if all(len({wfn.monomial_weight(m) for m in g}) == len(g) for g in groups):
            return wfn
    raise InternalInconsistencyError(
        f"no separating map up to {cutoff} for {pair_count} pairs"
    )
