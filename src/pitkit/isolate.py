"""Basis-isolating weight assignments and the ROABP hitting-set generator.

A weight function isolates a basis for a matrix-coefficient polynomial D
when some set S of basis monomials gets pairwise-distinct weights and every
other coefficient lies in the span of strictly lighter S-coefficients.
Under such an assignment the substitution x_i -> t^(w(x_i)) keeps
left^T D right nonzero, so sweeping t over enough field values hits it.

The constructor builds the assignment in ceil(log2 d)+1 rounds: separate the
monomials inside every factor, keep a greedy minimum-weight basis of each
factor's coefficients, pair adjacent factors (odd counts pass through, which
is multiplication by the identity of the algebra), and repeat.  A monomial
weighs its tuple of round weights (w_1, ..., w_R), compared
lexicographically, so earlier rounds take precedence.

The paper packs the tuple into one integer sum_r w_r * B^(R-r), with B above
every round's weights.  Integer order on those is the lexicographic order of
the tuples, and two monomials share a packed weight exactly when they share
a tuple.  So the image of f under one variable per round,
x_v -> prod_r t_r^(w_r(v)), is the packed univariate image with its
exponents unpacked, and it is nonzero whenever that one is.  Its degree in
t_r is at most delta * S_r, for S_r = sum_v w_r(v), so a grid of
1 + delta * S_r distinct nonzero t_r per round hits it (Combinatorial
Nullstellensatz).  The grid has prod_r (1 + delta*S_r) points, never more
than the packed sweep's 1 + delta * sum_r S_r * B^(R-r), and needs p above
its largest side only.

The paper's map is the guarantee, not the only option: a sweep hits f under
any map whose image of f is nonzero, so the whitebox generator tries shorter
maps first, each checked by its image.  Nor is it ever worth more points
than the grid {g^0, ..., g^delta}^n, which hits every nonzero polynomial of
individual degree <= delta: both modes emit that grid unless their route is
strictly smaller.
"""

from __future__ import annotations

import contextlib
import math
from itertools import chain
from itertools import product as iter_product
from typing import Iterator, Sequence

from .algebra import (
    Field,
    MatPoly,
    Matrix,
    Monomial,
    RowSpan,
    ScalarPoly,
    mat_flatten,
    mono_mul,
    mat_mul,
)
from .errors import (
    InternalInconsistencyError,
    ModulusTooSmallError,
    PreconditionError,
    StructuralError,
)
from .kron import (
    PairSet,
    PointFamily,
    RoundMap,
    WeightFn,
    check_sweep,
    distinct_reductions,
    grid_sweep,
    prime_cutoff,
    separating_weights,
)
from .roabp import PointSet, Roabp


def greedy_basis(
    items: Sequence[tuple], field: Field
) -> list[int]:
    """Scan (weight, monomial, coefficient) items in ascending weight and
    keep each one whose coefficient is independent of the kept span.

    Weights must be pairwise distinct (a duplicate signals a failed
    separator upstream); any totally ordered key works.  Coefficients are
    matrices; zero coefficients are never kept.  Returns kept indices in
    scan order.
    """
    keys = [it[0] for it in items]
    if len(set(keys)) != len(keys):
        raise PreconditionError("duplicate weights in greedy basis input")
    order = sorted(range(len(items)), key=lambda i: items[i][0])
    span = RowSpan(field)
    kept: list[int] = []
    for i in order:
        if span.add(mat_flatten(items[i][2])):
            kept.append(i)
    return kept


def construct_isolating_weights(
    factors: Sequence[MatPoly],
) -> tuple[RoundMap, list[tuple[Monomial, Matrix]]]:
    """Whitebox construction of a basis-isolating weight assignment for the
    product of variable-disjoint matrix-polynomial factors.

    Returns the assignment as its rounds and the isolated basis, as
    (monomial, coefficient) pairs of the product, at most w^2 of them.
    The product is never expanded.
    """
    if not factors:
        raise PreconditionError("need at least one factor")
    field = factors[0].field
    n = factors[0].n
    w = factors[0].w
    used: set[int] = set()
    for f in factors:
        if f.field != field or f.n != n or f.w != w:
            raise StructuralError("factors must share field, ambient, and width")
        vs = f.support_vars()
        if vs & used:
            raise PreconditionError("factors are not variable-disjoint")
        used |= vs
    delta = max((f.individual_degree() for f in factors), default=0)

    # blocks of (monomial, coefficient) pairs, in layer order
    blocks: list[list[tuple[Monomial, Matrix]]] = [
        sorted(f.terms.items()) for f in factors
    ]
    rounds: list[WeightFn] = []

    def run_round(current: list[list[tuple[Monomial, Matrix]]]) -> list[list[tuple[Monomial, Matrix]]]:
        pair_set = PairSet(n, delta, [[m for m, _ in block] for block in current])
        rounds.append(separating_weights(n, delta, pair_set))
        so_far = RoundMap(rounds)
        survivors: list[list[tuple[Monomial, Matrix]]] = []
        for block in current:
            keyed = [(so_far.monomial_weight(m), m, coeff) for m, coeff in block]
            survivors.append([block[i] for i in greedy_basis(keyed, field)])
        return survivors

    blocks = run_round(blocks)
    while len(blocks) > 1:
        paired: list[list[tuple[Monomial, Matrix]]] = []
        for j in range(0, len(blocks), 2):
            if j + 1 < len(blocks):
                left, right = blocks[j], blocks[j + 1]
                merged: dict[Monomial, Matrix] = {}
                for m1, c1 in left:
                    for m2, c2 in right:
                        merged[mono_mul(m1, m2)] = mat_mul(c1, c2, field)
                paired.append(sorted(merged.items()))
            else:
                # odd count: the last block passes through, i.e. it is
                # paired with the identity element of the algebra
                paired.append(blocks[j])
        blocks = run_round(paired)

    rmap = RoundMap(rounds)
    isolated = blocks[0]
    if len(isolated) > w * w:
        raise InternalInconsistencyError(
            f"isolated set has {len(isolated)} > w^2 = {w * w} monomials"
        )
    weights = [rmap.monomial_weight(m) for m, _ in isolated]
    if len(set(weights)) != len(weights):
        raise InternalInconsistencyError("isolated monomials got equal round weights")
    return rmap, isolated


def _round_maps(n: int, d: int, s: int, w: int, delta: int) -> list[Iterator[WeightFn]]:
    """The blackbox family's candidate maps, one iterator per round, each
    listing its maps only as it is read.

    Round 0 is sized for d*s^2 intra-factor pairs; later rounds for d*w^8
    pairs (paired survivor blocks have at most w^4 monomials each).  A
    round's list holds the maps of `distinct_reductions` up to its cutoff,
    one per distinct reduced weight vector, in increasing prime order.
    """
    if min(n, d, s, w) < 1 or delta < 0:
        raise StructuralError("parameters must be positive (delta nonnegative)")
    round_count = 1 + (math.ceil(math.log2(d)) if d > 1 else 0)
    pair_bounds = [d * s * s] + [d * w**8] * (round_count - 1)
    return [
        (wfn for _, wfn in distinct_reductions(n, delta, prime_cutoff(n, bound, delta)))
        for bound in pair_bounds
    ]


def _paper_sides_below(
    n: int, d: int, s: int, w: int, delta: int, bound: int
) -> list[list[int]] | None:
    """The sides of every map of `_round_maps`, round by round, when the
    paper's blackbox set (`_paper_blackbox_set`) has fewer than `bound`
    points; None otherwise.

    Its count is prod_r sum(side) over round r's maps, and every side is at
    least 1 + n*delta.  So the maps are read one at a time, and only while
    the product of the sums read so far, with 1 + n*delta for each round
    not yet begun, stays below bound: with R rounds, none is read when
    (1 + n*delta)^R is not below it.
    """
    floor = 1 + n * delta
    rounds = _round_maps(n, d, s, w, delta)
    done, sides = 1, []  # the product of the finished rounds' sums, their sides
    for i, maps in enumerate(rounds):
        rest = floor ** (len(rounds) - i - 1)
        if done * floor * rest >= bound:
            return None
        total, listed = 0, []
        for wfn in maps:
            listed.append(wfn.side(delta))
            total += listed[-1]
            if done * total * rest >= bound:
                return None
        done *= total
        sides.append(listed)
    return sides


def enumerate_candidate_weights(
    n: int,
    d: int,
    s: int,
    w: int,
    delta: int,
) -> Iterator[RoundMap]:
    """Blackbox candidate family: every round map that takes one map from
    each round's list (`_round_maps`), in `itertools.product` order.  The
    maps of a list are distinct, so each round map is yielded once.  For
    constant boundaries the whitebox-constructed round map is a member:
    each of its rounds is a map of the same scan (`separating_weights`) at
    a cutoff no larger than the round's here.
    """
    for rounds in iter_product(*_round_maps(n, d, s, w, delta)):
        yield RoundMap(rounds)


# ---------------------------------------------------------------------------
# hitting set


def _embedded_factors(r: Roabp) -> list[MatPoly]:
    """Interior layers, with non-constant boundary vectors embedded as a
    first-row / first-column factor so the computed polynomial is the (0,0)
    entry of the extended product."""
    factors = list(r.layers)
    if r.has_constant_boundaries():
        return factors
    zero = ScalarPoly.zero(r.field, r.n)
    w = r.width
    left = MatPoly.from_entries(
        [list(r.left_boundary)] + [[zero] * w for _ in range(w - 1)]
    )
    right = MatPoly.from_entries([[poly] + [zero] * (w - 1) for poly in r.right_boundary])
    return [left, *factors, right]


def _whitebox_sweep(r: Roabp) -> tuple[PointFamily, int, dict]:
    """The sweep of the first map on the ladder whose sweep is sure to hit
    f and is smaller than the grid (`kron.grid_sweep`), the map's largest
    weight, and its provenance route; the grid, of largest weight 1, where
    no map is.

    A map's sweep (`RoundMap.sweep`) hits f exactly when f's image under
    the map is nonzero, so each rung is checked by its image
    (`Roabp.weighted_substitute`).  No rung's sweep is shorter than the
    constant map's 1 + n*delta points, so when that does not fit GF(p) the
    grid is taken at once.

    1. the constant map, when its image is nonzero or f is zero
       (`Roabp.is_zero`, asked only when the image vanishes; no set hits a
       zero f).  f(1, ..., 1) is that image's value at t = 1, so a nonzero
       value decides this rung with one evaluation, and the image is
       computed only when it is 0.  Its 1 + n*delta points are never more
       than the grid's (delta+1)^n;
    2. the prime-reduced Kronecker maps in increasing prime order: the
       first whose image is nonzero and whose sweep fits the field and is
       shorter than both the grid and the paper's round grid.  Every
       round's side is at least 1 + n*delta, so the round grid has at least
       (1 + n*delta)^R points, for R = 1 + ceil(log2 F) rounds over F
       factors; it is built only when a map's sweep is not below that floor
       and below the grid.  Here f is nonconstant, so delta >= 1, and the
       map at prime q has a weight of at least q / (delta + 1) (the largest
       unreduced power (delta+1)^k below q), so its sweep has more than q/2
       points: the scan stops at q >= 2L, for L the smallest of p, the
       grid's size and the round grid's;
    3. the smaller of the paper's round map (`construct_isolating_weights`),
       whose grid hits every nonzero f, and the grid, which hits it too
       (Combinatorial Nullstellensatz); the grid on a tie, and whenever the
       round map's sweep does not fit GF(p).  The round map is built only
       when its floor is below the grid.
    """
    p, delta = r.field.p, r.delta

    def swept(rmap: RoundMap, **route) -> tuple[PointFamily, int, dict]:
        return rmap.sweep(delta, p), rmap.max_weight, route

    constant = WeightFn.constant(r.n)
    if constant.side(delta) >= p:
        return grid_sweep(r.n, delta, p), 1, {"assignment": "grid"}
    if r.evaluate((1,) * r.n) or r.weighted_substitute(constant) or r.is_zero():
        return swept(RoundMap((constant,)), assignment="constant")
    grid_count = (delta + 1) ** r.n
    factors = _embedded_factors(r)
    floor = (1 + r.n * delta) ** (1 + math.ceil(math.log2(len(factors))))
    paper = None
    for q, wfn in distinct_reductions(r.n, delta, 2 * p):
        count = wfn.side(delta)
        if paper is None and floor <= count < min(p, grid_count):
            paper, _ = construct_isolating_weights(factors)
        limit = min(p, grid_count, math.prod(paper.sides(delta)) if paper else p)
        if q >= 2 * limit:
            break
        if count < limit and r.weighted_substitute(wfn):
            return swept(RoundMap((wfn,)), assignment="kronecker", prime=q)
    if paper is None and floor < grid_count:
        paper, _ = construct_isolating_weights(factors)
    if paper is not None:
        sides = paper.sides(delta)
        if math.prod(sides) < grid_count and max(sides) < p:
            return swept(paper, assignment="round-combined", sides=list(sides))
    return grid_sweep(r.n, delta, p), 1, {"assignment": "grid"}


def _provenance(r: Roabp, mode: str, **extra) -> dict:
    """The parameters every roabp set records, then `extra`."""
    return {
        "generator": "roabp_hitting_set",
        "mode": mode,
        "n": r.n,
        "d": r.d,
        "w": r.width,
        "delta": r.delta,
        **extra,
    }


def _paper_blackbox_set(r: Roabp, sides: list[list[int]]) -> PointSet:
    """The paper's parameter-only set: the sweep of every enumerated
    candidate round map (`enumerate_candidate_weights`), given the sides
    of each round's maps for r's declared parameters (`_paper_sides_below`).

    Its size is the product over rounds of the sum of the round's sides,
    and every sweep's modulus check runs here; the candidates are
    enumerated only as the set is iterated, and its provenance, one
    `per_assignment` size per candidate, only when it is read.
    """
    p, delta, s = r.field.p, r.delta, max(1, r.layer_sparsity)
    family = (r.n, max(1, r.d), s, r.width, delta)
    check_sweep(max(map(max, sides)), p)
    points = PointFamily(math.prod(map(sum, sides)), lambda: chain.from_iterable(
        rmap.sweep(delta, p) for rmap in enumerate_candidate_weights(*family)
    ))

    def record() -> dict:
        per_assignment = [math.prod(choice) for choice in iter_product(*sides)]
        return _provenance(r, "blackbox", s=s, assignments=len(per_assignment),
                           per_assignment=per_assignment)

    return PointSet(r.n, points, record)


def roabp_hitting_set(r: Roabp, mode: str = "whitebox") -> PointSet:
    """Hitting set for the polynomial computed by the instance.

    Each round map swept adds its grid (`RoundMap.sweep`): 1 + delta *
    sum_v w(v) distinct nonzero t per round, so a one-round map adds a
    t-sweep (t^w(x_1), ..., t^w(x_n)).  No set has more points than the
    grid {g^0, ..., g^delta}^n (`kron.grid_sweep`), which hits every
    nonzero polynomial of individual degree <= delta, as every ROABP with
    that delta is (its blocks are disjoint).
    Whitebox mode sweeps the first map on the ladder of `_whitebox_sweep`
    (constant, prime-reduced Kronecker, the smaller of the paper's round
    map and the grid) whose image of f is nonzero, or the constant map for
    a zero f; nothing is expanded.
    Blackbox mode uses only the instance's declared parameters.  It emits
    the paper's candidate sweeps (`_paper_blackbox_set`) only when their
    exact count is below the grid's (delta+1)^n and they fit GF(p), and
    the grid otherwise; the per-round lists are read only as far as that
    count can still be below the grid's (`_paper_sides_below`).
    """
    if r.n < 1:
        raise StructuralError("a hitting set needs at least one variable")
    p, delta = r.field.p, r.delta
    if mode == "whitebox":
        points, max_weight, route = _whitebox_sweep(r)
        return PointSet(r.n, points, _provenance(
            r, mode, s=r.layer_sparsity, t_count=len(points), max_weight=max_weight, **route,
        ))
    if mode == "blackbox":
        s = max(1, r.layer_sparsity)
        sides = _paper_sides_below(r.n, max(1, r.d), s, r.width, delta, (delta + 1) ** r.n)
        if sides is not None:
            # a candidate sweep that does not fit GF(p) leaves the grid
            with contextlib.suppress(ModulusTooSmallError):
                return _paper_blackbox_set(r, sides)
        points = grid_sweep(r.n, delta, p)
        return PointSet(r.n, points, _provenance(
            r, mode, s=s, route="grid", assignments=1, per_assignment=[points.size],
        ))
    raise StructuralError(f"unknown mode {mode!r}")
