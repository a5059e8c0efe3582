"""Basis-isolating weight assignments and the ROABP hitting-set generator.

A weight function isolates a basis for a matrix-coefficient polynomial D
when some set S of basis monomials gets pairwise-distinct weights and every
other coefficient lies in the span of strictly lighter S-coefficients.
Under such an assignment the substitution x_i -> t^(w(x_i)) keeps
left^T D right nonzero, so sweeping t over enough field values hits it.

The constructor builds the assignment in ceil(log2 d)+1 rounds: separate the
monomials inside every factor, keep a greedy minimum-weight basis of each
factor's coefficients, pair adjacent factors (odd counts pass through, which
is multiplication by the identity of the algebra), and repeat.  The rounds
are combined positionally with a base B exceeding any achievable monomial
weight, so earlier rounds take precedence.

The paper's map is the guarantee, not the only option: a t-sweep hits f
under any map whose univariate image of f is nonzero, so the whitebox
generator tries shorter maps first, each checked by its image.
"""

from __future__ import annotations

import math
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
    PreconditionError,
    StructuralError,
)
from .kron import (
    PairSet,
    PointFamily,
    WeightFn,
    distinct_reductions,
    prime_cutoff,
    separating_weights,
)
from .roabp import PointSet, Roabp


def combine_rounds(rounds: Sequence[WeightFn], n: int, delta: int) -> WeightFn:
    """The rounds w0..w_R combined positionally with base B:
    combined(x) = sum_r rounds[r](x) * B^(R-r).

    B exceeds any monomial's weight in a single round, so round weights
    never interfere and the combined order is lexicographic on round tuples.
    """
    max_single = max(w.max_weight for w in rounds)
    base = max(2, 1 + n * delta * max_single)
    count = len(rounds)
    return WeightFn(
        tuple(
            sum(rounds[r].of(v) * base ** (count - 1 - r) for r in range(count))
            for v in range(n)
        )
    )


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
) -> tuple[WeightFn, list[tuple[Monomial, Matrix]]]:
    """Whitebox construction of a basis-isolating weight assignment for the
    product of variable-disjoint matrix-polynomial factors.

    Returns the round-combined assignment and the isolated basis, as
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
        survivors: list[list[tuple[Monomial, Matrix]]] = []
        for block in current:
            keyed = [
                (tuple(r.monomial_weight(m) for r in rounds), m, coeff)
                for m, coeff in block
            ]
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

    combined = combine_rounds(rounds, n, delta)
    isolated = blocks[0]
    if len(isolated) > w * w:
        raise InternalInconsistencyError(
            f"isolated set has {len(isolated)} > w^2 = {w * w} monomials"
        )
    weights = [combined.monomial_weight(m) for m, _ in isolated]
    if len(set(weights)) != len(weights):
        raise InternalInconsistencyError("isolated monomials got equal combined weights")
    return combined, isolated


def enumerate_candidate_weights(
    n: int,
    d: int,
    s: int,
    w: int,
    delta: int,
) -> Iterator[WeightFn]:
    """Blackbox candidate family: the cartesian product of per-round
    candidate lists, each combination combined positionally with its base B.

    Round 0 is sized for d*s^2 intra-factor pairs; later rounds for d*w^8
    pairs (paired survivor blocks have at most w^4 monomials each).  A
    round's list holds the maps of `distinct_reductions` up to its cutoff,
    one per distinct reduced weight vector, and each distinct combined
    assignment is yielded once, in the order of its first occurrence over
    all primes.  For constant boundaries the whitebox-constructed
    assignment is a member: each of its rounds is a map of the same scan
    (`separating_weights`) at a cutoff no larger than the round's here.
    """
    if min(n, d, s, w) < 1 or delta < 0:
        raise StructuralError("parameters must be positive (delta nonnegative)")
    round_count = 1 + (math.ceil(math.log2(d)) if d > 1 else 0)
    pair_bounds = [d * s * s] + [d * w**8] * (round_count - 1)
    round_lists = [
        [wfn for _, wfn in distinct_reductions(n, delta, prime_cutoff(n, bound, delta))]
        for bound in pair_bounds
    ]
    # combinations with different bases B could still coincide
    seen: set[tuple] = set()
    for rounds in iter_product(*round_lists):
        combined = combine_rounds(rounds, n, delta)
        if combined.weights not in seen:
            seen.add(combined.weights)
            yield combined


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


def _sweep_count(r: Roabp, wfn: WeightFn) -> int:
    """t values that hit f(t^w(x_1), ..., t^w(x_n)): more than its degree,
    at most n * delta * max_weight."""
    return 1 + r.n * r.delta * wfn.max_weight


def _whitebox_map(r: Roabp) -> tuple[WeightFn, dict]:
    """The first map on the ladder whose sweep is sure to hit f, and its
    provenance route.

    A sweep of 1 + n*delta*max_weight points hits f exactly when f's
    univariate image under the map is nonzero, so each rung is checked by
    its image (`Roabp.weighted_substitute`):

    1. the constant map, when its image is nonzero or f is zero
       (`Roabp.is_zero`, asked only when the image vanishes; no set hits a
       zero f).  f(1, ..., 1) is that image's value at t = 1, so a nonzero
       value decides this rung with one evaluation, and the image is
       computed only when it is 0;
    2. the prime-reduced Kronecker maps at primes up to
       (L - 2) // (n * max(1, delta)), L = min(R, p) for R the
       round-combined count, so each sweep is shorter than R and fits the
       field; the first with a nonzero image;
    3. the paper's round-combined map, which is basis isolating and so
       keeps every nonzero f nonzero.
    """
    constant = WeightFn.constant(r.n)
    if r.evaluate((1,) * r.n) or r.weighted_substitute(constant) or r.is_zero():
        return constant, {"assignment": "constant"}
    combined, _ = construct_isolating_weights(_embedded_factors(r))
    limit = min(_sweep_count(r, combined), r.field.p)
    for q, wfn in distinct_reductions(r.n, r.delta, (limit - 2) // (r.n * max(1, r.delta))):
        if r.weighted_substitute(wfn):
            return wfn, {"assignment": "kronecker", "prime": q}
    return combined, {"assignment": "round-combined"}


def roabp_hitting_set(r: Roabp, mode: str = "whitebox") -> PointSet:
    """Hitting set for the polynomial computed by the instance.

    Each weight assignment w swept adds the t-sweep
    (t^w(x_1), ..., t^w(x_n)) for 1 + n*delta*max_weight distinct nonzero t.
    Whitebox mode sweeps the first map on the ladder of `_whitebox_map`
    (constant, prime-reduced Kronecker, round-combined) whose univariate
    image of f is nonzero, or the constant map for a zero f; nothing is
    expanded.
    Blackbox mode sweeps every enumerated candidate assignment, using only
    the instance's declared parameters.  Every sweep's modulus check runs
    here; its points are built as the set is iterated.
    """
    if r.n < 1:
        raise StructuralError("a hitting set needs at least one variable")
    provenance = {
        "generator": "roabp_hitting_set",
        "mode": mode,
        "n": r.n,
        "d": r.d,
        "w": r.width,
        "delta": r.delta,
    }
    if mode == "whitebox":
        wfn, route = _whitebox_map(r)
        points = wfn.sweep(_sweep_count(r, wfn), r.field.p)
        provenance.update(
            s=r.layer_sparsity, t_count=len(points), max_weight=wfn.max_weight, **route
        )
    elif mode == "blackbox":
        s = max(1, r.layer_sparsity)
        sweeps = [
            wfn.sweep(_sweep_count(r, wfn), r.field.p)
            for wfn in enumerate_candidate_weights(r.n, max(1, r.d), s, r.width, r.delta)
        ]
        points = PointFamily.concat(sweeps)
        per_assignment = [len(sweep) for sweep in sweeps]
        provenance.update(
            s=s, assignments=len(per_assignment), per_assignment=per_assignment
        )
    else:
        raise StructuralError(f"unknown mode {mode!r}")
    return PointSet(r.n, points, provenance)
