"""Support concentration for invertible-factor and width-2 ROABPs.

A matrix polynomial is l-concentrated when the coefficients of its
monomials with support below l already span the whole coefficient space;
block-support concentration counts contributing layers instead of
variables.  Products of invertible-constant-term layers concentrate at
block-support w^2 (w^2+2 with boundary vectors), and a sparse shift makes
every layer support-concentrated, giving hitting sets from low-support
grids.  Those sets are emitted only where they are smaller than the grid
{g^0, ..., g^delta}^n, which hits every instance of individual degree
<= delta; below n = l(w^2+2) they never are.  Width-2 instances with
singular layers factor into invertible pieces, which a Lagrange curve
through the invertible hitting set covers.
"""

from __future__ import annotations

import contextlib
import itertools
import math
import operator
import sys
from array import array
from functools import cached_property
from typing import Iterator, Sequence

from .algebra import Field, Frozen, ScalarPoly, trusted
from .errors import (
    InternalInconsistencyError,
    ModulusTooSmallError,
    PreconditionError,
    StructuralError,
)
from .kron import (
    PointFamily,
    WeightFn,
    distinct_reductions,
    grid_sweep,
    prime_cutoff,
)
from .roabp import PointSet, Roabp


def support_parameter(w: int, s: int, mu: int | None) -> int:
    """l = 1 + 2 min(ceil(log2(w^2 s)), mu); mu=None means unbounded."""
    log_term = math.ceil(math.log2(w * w * s)) if w * w * s > 1 else 0
    if mu is None:
        return 1 + 2 * log_term
    return 1 + 2 * min(log_term, mu)


def _low_support_count(n: int, delta: int, ell: int) -> int:
    """Monomials in n variables of individual degree <= delta and support
    <= min(ell, n)."""
    return sum(math.comb(n, j) * delta**j for j in range(min(ell, n) + 1))


def _t0_budget(d: int, det_degree: int, w: int, n: int, delta: int, max_a: int) -> int:
    """t0 values that clear every bad specialization of a shift with largest
    exponent max_a: the roots of the d layer determinants' sweeps plus those
    of one rank-certifying minor, of t-degree at most w^2 * n * delta * max_a."""
    return 1 + (d * det_degree + w * w * n * max(1, delta)) * max_a


def _shift_maps(
    n: int, d: int, w: int, delta: int, s: int, mu: int
) -> Iterator[tuple[int, WeightFn]]:
    """(prime, map) for every candidate shift map of the invertible-factor
    instances with the declared parameters, in increasing prime order: the
    distinct reductions of the naive Kronecker map at delta_all =
    max(delta, w*delta), up to the cutoff at which the counting argument
    guarantees a map separating every layer determinant's s^w monomials
    and all low-support monomials."""
    ell = support_parameter(w, max(1, s), mu)
    det_monomials = s**w
    det_pairs = d * det_monomials * (det_monomials - 1) // 2
    low_count = _low_support_count(n, max(1, delta), ell)
    support_pairs = low_count * (low_count - 1) // 2
    pair_bound = max(1, det_pairs + support_pairs)
    delta_all = max(delta, w * delta)
    return distinct_reductions(n, delta_all, prime_cutoff(n, pair_bound, delta_all))


def _shift_hits(r: Roabp, bound: int, offsets: Sequence[int]) -> bool:
    """Whether f(x + offsets) is `bound`-support concentrated, for `bound`
    = l(w^2+2).

    The coefficients of the scalar f(x + offsets) span at most a line, so
    it concentrates exactly when it is zero or has a monomial supported on
    at most bound - 1 variables.  On each such support set the low-support
    grid of that bound takes delta + 1 distinct values per variable, so by
    the Combinatorial Nullstellensatz the grid translated by the offsets
    hits f exactly in the second case; nothing is shifted or expanded.  A
    zero f is caught after the first point misses, before the rest of the
    grid is built."""
    values = map(r.evaluate, _shifted_grid(r.n, r.delta, bound, offsets, r.field.p))
    return bool(next(values)) or r.is_zero() or any(values)


def _support_bound(w: int, s: int, mu: int | None) -> int:
    """l(w^2+2), the support a concentrating shift brings every layer to."""
    return support_parameter(w, max(1, s), mu) * (w * w + 2)


def _refuse_singular_layers(r: Roabp) -> None:
    """Refuse an instance with a symbolically singular layer, which is not
    in the invertible-factor class."""
    for i, layer in enumerate(r.layers):
        if layer.is_singular():
            raise PreconditionError(
                f"layer {i} is symbolically singular; "
                "use factorize_width2 for width-2 instances"
            )


def find_concentrating_shift(r: Roabp) -> tuple[WeightFn, int, int]:
    """A verified concentrating shift x_i -> x_i + t0^(a_i) for an
    invertible-factor instance, as (exponent map a, its prime, t0).

    Tries the maps of the parameter family (`_shift_maps`, shared with the
    blackbox set) in increasing prime order, each at t0 = 1, 2, ... within
    its t0 budget, and keeps the first (map, t0) at whose offsets o = t0^a
    every layer matrix is invertible and f(x + o) is l(w^2+2)-support
    concentrated: f is zero, or the low-support grid translated by o, the
    set the whitebox hitting set emits, hits f (`_shift_hits`).  A layer's
    determinant at o is its univariate image under a at t0, so a map under
    which some image vanishes is skipped before any t0.  A failed
    search is ModulusTooSmallError when some map's t0 budget was cut at
    p - 1, and InternalInconsistencyError only when every map ran its full
    budget.

    Every map sends t0 = 1 to the all-ones offsets, so that candidate is
    tried once, under the first map, and only when every layer is
    invertible there (`MatPoly.invertible_at_ones`); the symbolic
    determinants are read only when it misses, and each map starts at 2.
    """
    _refuse_singular_layers(r)
    w, s, p = r.width, max(1, r.layer_sparsity), r.field.p
    bound = _support_bound(w, s, r.layer_support)
    # the grid's own checks, ahead of the search
    low_support_hitting_set(r.n, r.delta, bound, r.field)
    family = (r.n, r.d, w, r.delta, s, r.layer_support)
    if all(layer.invertible_at_ones() for layer in r.layers):
        # the first map is prime 2's: prime_cutoff is at least 13
        prime, wfn = next(_shift_maps(*family))
        if _shift_hits(r, bound, wfn.powers(1, p)):
            return wfn, prime, 1
    dets = [layer.det for layer in r.layers]
    det_degree = max((det.total_degree() for det in dets), default=0)
    clipped = False
    for prime, wfn in _shift_maps(*family):
        full_budget = _t0_budget(r.d, det_degree, w, r.n, r.delta, wfn.max_weight)
        t_budget = min(p - 1, full_budget)
        clipped = clipped or t_budget < full_budget
        if not all(wfn.image(det.terms.items(), p) for det in dets):
            continue
        for t0 in range(2, t_budget + 1):
            offsets = wfn.powers(t0, p)
            # det(layer(o)) = det(o): each layer's cached determinant, evaluated
            invertible = all(det.eval_at(offsets) for det in dets)
            if invertible and _shift_hits(r, bound, offsets):
                return wfn, prime, t0
    if clipped:
        # a bad-t0 count past p - 1 leaves no good t0 guaranteed: the field
        # is too small, not the construction wrong
        raise ModulusTooSmallError(
            f"no concentrating shift verified; some candidate needs more t0 "
            f"values than the {p - 1} nonzero residues of GF({p})"
        )
    raise InternalInconsistencyError(
        "no concentrating shift verified within the candidate family"
    )


def _shifted_grid(
    n: int, delta: int, ell: int, offsets: Sequence[int], p: int
) -> Iterator[tuple[int, ...]]:
    """The low-support grid of `low_support_hitting_set(n, delta, ell)`
    translated by `offsets`, mod p, in the same order.

    One `itertools.product` per (ell-1)-subset of the variables, in
    `combinations` order, over per-variable residue columns: (o_v,) outside
    the subset and o_v + 1 .. o_v + delta + 1 inside it, so the last
    variable varies fastest and the points are built at C speed."""
    outside = [(o % p,) for o in offsets]
    inside = [tuple((v + o) % p for v in range(1, delta + 2)) for o in offsets]

    def columns(subset):
        cols = outside.copy()
        for v in subset:
            cols[v] = inside[v]
        return itertools.product(*cols)

    size = min(ell - 1, n)
    return itertools.chain.from_iterable(map(columns, itertools.combinations(range(n), size)))


def low_support_hitting_set(n: int, delta: int, ell: int, field: Field) -> PointFamily:
    """Points that vanish outside some (ell-1)-subset and take the nonzero
    grid values 1..delta+1 inside it (the whole of {1..delta+1}^n when
    ell - 1 >= n): a family of C(n, m) (delta+1)^m points, m = min(ell-1, n).
    Only the checks run here; the points are built each time the family is
    iterated, by `_shifted_grid` at zero offsets."""
    if ell < 1:
        raise StructuralError("ell must be at least 1")
    if field.p <= delta + 1:
        raise ModulusTooSmallError(
            f"grid 1..{delta + 1} does not fit in GF({field.p})"
        )
    size = min(ell - 1, n)
    return PointFamily(
        math.comb(n, size) * (delta + 1) ** size,
        lambda: _shifted_grid(n, delta, ell, (0,) * n, field.p),
    )


def _provenance(
    mode: str, n: int, d: int, w: int, delta: int, s: int, mu: int, extra: dict
) -> dict:
    """The declared parameters every invertible set records, then `extra`."""
    return {
        "generator": "invertible_hitting_set",
        "mode": mode,
        "n": n,
        "d": d,
        "w": w,
        "delta": delta,
        "s": s,
        "mu": mu,
        **extra,
    }


def _grid_set(
    mode: str, n: int, d: int, w: int, delta: int, s: int, mu: int, field: Field
) -> PointSet:
    """The grid {g^0, ..., g^delta}^n (`kron.grid_sweep`), which hits
    every nonzero polynomial of individual degree <= delta, as every
    invertible-factor instance with that delta is: one translate of one
    grid, so t_sweep and maps are both 1."""
    points = grid_sweep(n, delta, field.p)
    extra = {"route": "grid", "grid": points.size, "t_sweep": 1, "maps": 1}
    return PointSet(n, points, _provenance(mode, n, d, w, delta, s, mu, extra))


def _translated_grid(
    mode: str, n: int, d: int, w: int, delta: int, s: int, mu: int, field: Field,
    shifts, extra: dict,
) -> PointSet:
    """The low-support grid translated by every offset vector of `shifts`
    (a sized, re-iterable family), in order, for the support bound l(w^2+2)
    with l = support_parameter.  Only the grid's checks run here; the
    translated points are built as the set is iterated (`_shifted_grid`)."""
    ell = support_parameter(w, max(1, s), mu)
    target = ell * (w * w + 2)
    grid = low_support_hitting_set(n, delta, target, field)

    def rows():
        return itertools.chain.from_iterable(
            _shifted_grid(n, delta, target, offsets, field.p) for offsets in shifts
        )

    extra = {"ell": ell, "support_bound": target, "grid": grid.size, **extra}
    provenance = _provenance(mode, n, d, w, delta, s, mu, extra)
    return PointSet(n, PointFamily(len(shifts) * grid.size, rows), provenance)


def _low_support_size(n: int, w: int, delta: int, s: int, mu: int, field: Field) -> int:
    """The size of the low-support grid for the support bound l(w^2+2), the
    least any set of its translates costs; its checks run here.  It is
    (delta+1)^n, the grid's size, for every n below l(w^2+2)."""
    return low_support_hitting_set(n, delta, _support_bound(w, s, mu), field).size


def invertible_hitting_set(r: Roabp, mode: str = "whitebox") -> PointSet:
    """Hitting set for an invertible-factor instance: the grid
    (`kron.grid_sweep`) unless the paper's low-support grid translated by
    concentrating shifts is strictly smaller.

    Whitebox mode refuses a symbolically singular layer first.  The
    paper's set (`_paper_whitebox_set`) has exactly |low-support grid|
    points, so the grid is emitted whenever it is no larger, and the shift
    search runs only otherwise.  Blackbox mode reads only the declared
    parameters (`invertible_hitting_set_params`).
    """
    if r.n < 1:
        raise StructuralError("a hitting set needs at least one variable")
    if mode == "whitebox":
        _refuse_singular_layers(r)
        w, delta, s, mu = r.width, r.delta, r.layer_sparsity, r.layer_support
        if (delta + 1) ** r.n <= _low_support_size(r.n, w, delta, s, mu, r.field):
            return _grid_set("whitebox", r.n, r.d, w, delta, s, mu, r.field)
        return _paper_whitebox_set(r)
    if mode == "blackbox":
        return invertible_hitting_set_params(
            r.n, r.d, r.width, r.delta,
            max(1, r.layer_sparsity), r.layer_support, r.field,
        )
    raise StructuralError(f"unknown mode {mode!r}")


def _paper_whitebox_set(r: Roabp) -> PointSet:
    """The low-support grid translated by the one (map, t0) pair that
    `find_concentrating_shift` accepts because this very set hits f (or f
    is zero), so the size is exactly |grid| * 1 * 1."""
    wfn, prime, t0 = find_concentrating_shift(r)
    return _translated_grid(
        "whitebox", r.n, r.d, r.width, r.delta, r.layer_sparsity,
        r.layer_support, r.field, [wfn.powers(t0, r.field.p)],
        {"t_sweep": 1, "maps": 1, "shift_prime": prime, "t0": t0},
    )


def invertible_hitting_set_params(
    n: int, d: int, w: int, delta: int, s: int, mu: int, field: Field
) -> PointSet:
    """Parameter-only hitting set for every invertible-factor instance with
    the declared parameters: the grid (`kron.grid_sweep`), unless the
    paper's set (`_paper_params_set`) is strictly smaller and fits GF(p).

    That set has |low-support grid| * |t-sweep| * |maps| points, so its
    maps are listed only when the grid is larger than the low-support
    grid, and only while the count of the maps listed so far, a lower
    bound (the t-sweep grows with the largest weight), stays below the
    grid's; a full list is the one the paper's set sweeps.
    """
    grid_count = (delta + 1) ** n
    low = _low_support_size(n, w, delta, s, mu, field)
    if grid_count > low:
        count, maps, max_a = grid_count, [], 0
        for _, wfn in _shift_maps(n, d, w, delta, s, mu):
            maps.append(wfn)
            max_a = max(max_a, wfn.max_weight)
            count = low * _t0_budget(d, w * delta * n, w, n, delta, max_a) * len(maps)
            if count >= grid_count:
                break
        if count < grid_count:
            # a t-sweep that does not fit GF(p) leaves the grid
            with contextlib.suppress(ModulusTooSmallError):
                return _paper_params_set(n, d, w, delta, s, mu, field, maps)
    return _grid_set("blackbox", n, d, w, delta, s, mu, field)


def _paper_params_set(
    n: int, d: int, w: int, delta: int, s: int, mu: int, field: Field,
    maps: Sequence[WeightFn],
) -> PointSet:
    """The paper's parameter-only set: every map of `maps`, the distinct
    shift maps of the candidate family (`_shift_maps`, sized for every
    layer determinant's s^w monomials plus all low-support monomials) for
    the declared parameters, each swept over enough t0 to clear every
    determinant and rank minor, translating the low-support grid by each
    specialization.
    Size is exactly |grid| * |t-sweep| * |maps|.
    """
    max_a = max(m.max_weight for m in maps)
    t_sweep = _t0_budget(d, w * delta * n, w, n, delta, max_a)
    # swept before the grid is built, so a sweep too long for the field is
    # reported ahead of a grid that does not fit it
    offsets = PointFamily.concat([m.sweep(t_sweep, field.p) for m in maps])
    return _translated_grid(
        "blackbox", n, d, w, delta, s, mu, field, offsets,
        {"t_sweep": t_sweep, "maps": len(maps)},
    )


# ---------------------------------------------------------------------------
# width 2


class Width2Factorization(Frozen):
    """The invertible-factor width-2 instances a width-2 instance is cut
    into at its singular layers (see `factorize_width2`); is_zero marks the
    degenerate all-zero-layer certificate."""

    __match_args__ = ("chain", "split_layers", "is_zero")

    def __init__(self, chain: tuple, split_layers: tuple, is_zero: bool = False) -> None:
        self.__dict__.update(chain=chain, split_layers=split_layers, is_zero=is_zero)


def _rank_one_split(
    grid: list[list[ScalarPoly]],
) -> tuple[ScalarPoly, tuple[ScalarPoly, ScalarPoly], tuple[ScalarPoly, ScalarPoly]]:
    """Split a symbolically singular nonzero 2x2 layer, given by its entry
    grid, as entry * layer = column * row, picking the first nonzero entry
    in the order (0,0), (0,1), (1,0), (1,1)."""
    (a, b), (c, d) = grid
    if not a.is_zero():
        return a, (a, c), (a, b)
    if not b.is_zero():
        return b, (b, d), (ScalarPoly.zero(b.field, b.n), b)
    if not c.is_zero():
        return c, (ScalarPoly.zero(c.field, c.n), c), (c, d)
    return d, (ScalarPoly.zero(d.field, d.n), d), (ScalarPoly.zero(d.field, d.n), d)


def factorize_width2(r: Roabp) -> Width2Factorization:
    """Factor a width-2 instance through its singular layers.

    Each singular nonzero layer is a rank-1 product (column)(row)/entry;
    cutting there yields a chain of invertible-factor instances whose
    product is the original polynomial times the entries divided by.  A
    layer invertible at the all-ones point is not singular; only the
    others expand their determinant (`MatPoly.is_singular`).
    """
    if r.width != 2:
        raise PreconditionError(f"width-2 only; got width {r.width}")
    field, n = r.field, r.n
    splits: dict[int, tuple] = {}  # singular layer -> (column, row)
    for i, layer in enumerate(r.layers):
        if layer.is_zero():
            return Width2Factorization(chain=(), split_layers=(i,), is_zero=True)
        if layer.is_singular():
            grid = layer.entry_grid()
            entry, col, row = _rank_one_split(grid)
            for rr in range(2):
                for cc in range(2):
                    if not (col[rr] * row[cc] == grid[rr][cc] * entry):
                        raise InternalInconsistencyError("rank-1 split failed")
            splits[i] = (col, row)
    if not splits:
        return Width2Factorization(chain=(r,), split_layers=())
    # a piece starts at the left boundary or a singular layer's row, and
    # ends at the next singular layer's column or the right boundary; a
    # row or column lives on its layer's block, the piece's boundary block,
    # so every piece is valid by construction and is not checked again
    starts = [(0, r.left_boundary, r.left_block)]
    starts += [(i + 1, row, r.blocks[i]) for i, (_, row) in splits.items()]
    ends = [(i, col, r.blocks[i]) for i, (col, _) in splits.items()]
    ends.append((r.d, r.right_boundary, r.right_block))
    chain = tuple(
        trusted(
            Roabp, field=field, n=n, width=2, blocks=r.blocks[a:b], layers=r.layers[a:b],
            left_boundary=left, right_boundary=right, left_block=left_block,
            right_block=right_block,
        )
        for (a, left, left_block), (b, right, right_block) in zip(starts, ends)
    )
    return Width2Factorization(chain=chain, split_layers=tuple(splits))


def _factorials(count: int, p: int) -> tuple[list[int], list[int]]:
    """(u! mod p, 1/u! mod p) for u < count, count <= p, from one inverse."""
    acc = 1
    fact = [1] + [acc := acc * u % p for u in range(1, count)]
    acc = pow(acc, -1, p)
    inv_fact = [acc] + [acc := acc * u % p for u in range(count - 1, 0, -1)]
    inv_fact.reverse()
    return fact, inv_fact


def _modmul(xs, ys, p: int) -> map:
    """x * y mod p for the pairs of xs and ys, up to the shorter."""
    return map(operator.mod, map(operator.mul, xs, ys), itertools.repeat(p))


class LagrangeCurve(Frozen):
    """The degree-(h-1) vector curve through anchor points alpha_0..alpha_{h-1}
    at nodes 0..h-1, so curve(i) = alpha_i exactly.

    `eval_at(u)` gives one point; `sweep(count)` gives curve(0), ...,
    curve(count-1) in O(count) products per coordinate.
    """

    __match_args__ = ("field", "anchors")

    def __init__(self, field: Field, anchors: tuple) -> None:
        p = field.p
        anchors = tuple(tuple(a % p for a in anchor) for anchor in anchors)
        if not anchors:
            raise StructuralError("need at least one anchor")
        if len({len(a) for a in anchors}) > 1:
            raise StructuralError("anchors must all have the same length")
        h = len(anchors)
        if p <= h:
            raise ModulusTooSmallError(f"modulus {p} too small for {h} nodes")
        self.__dict__.update(field=field, anchors=anchors)

    @cached_property
    def _weights(self) -> tuple[int, ...]:
        """The barycentric weights 1 / prod_{j != i} (i - j)
        = (-1)^(h-1-i) / (i! (h-1-i)!)."""
        p, h = self.field.p, len(self.anchors)
        _, inv_fact = _factorials(h, p)
        return tuple(
            (-1) ** (h - 1 - i) * inv_fact[i] * inv_fact[h - 1 - i] % p
            for i in range(h)
        )

    def eval_at(self, u: int) -> tuple[int, ...]:
        p = self.field.p
        u %= p
        h = len(self.anchors)
        if u < h:
            return self.anchors[u]
        n = len(self.anchors[0])
        prefix = [1] * (h + 1)
        for j in range(h):
            prefix[j + 1] = (prefix[j] * (u - j)) % p
        suffix = [1] * (h + 1)
        for j in range(h - 1, -1, -1):
            suffix[j] = (suffix[j + 1] * (u - j)) % p
        out = [0] * n
        for i in range(h):
            lag = (self._weights[i] * prefix[i]) % p
            lag = (lag * suffix[i + 1]) % p
            if lag:
                anchor = self.anchors[i]
                for v in range(n):
                    if anchor[v]:
                        out[v] = (out[v] + lag * anchor[v]) % p
        return tuple(out)

    def sweep(self, count: int) -> tuple[tuple[int, ...], ...]:
        """eval_at(u) for u = 0 .. count-1, which must be distinct residues
        mod p.

        For u >= h, curve(u) = l(u) * sum_i w_i alpha_i / (u - i) with
        l(u) = u! / (u-h)! and w_i the barycentric weights.  The sum is, per
        coordinate, the convolution of (w_i alpha_i) with (1/m), computed as
        one big-int product of the two sequences packed into byte slots wide
        enough that no slot overflows.  Strided byte copies move the bytes
        of one array("Q") of residues into the slots (for p >= 2^64, whose
        residues span several words, `int.to_bytes` writes each), and
        widen the product's slots back to whole 64-bit words, which one
        array("Q") reads; a slot of several words is joined by shifts.  Past
        the factorial tables, every step maps C-level operators over whole
        columns.
        """
        p = self.field.p
        if count > p:
            raise ModulusTooSmallError(
                f"curve sweep needs {count} distinct values, modulus {p} too small"
            )
        h = len(self.anchors)
        if count <= h:
            return self.anchors[:max(count, 0)]
        fact, inv_fact = _factorials(count, p)
        ell = list(_modmul(fact[h:], inv_fact, p))  # u! / (u-h)!, u = h .. count-1
        # bytes per slot, which sums at most h products of two residues;
        # read back, a slot is widened to whole 64-bit words
        width = ((h * (p - 1) ** 2).bit_length() + 7) // 8
        words = -(-width // 8)

        def pack(seq) -> int:
            if p >> 64:
                return int.from_bytes(b"".join(map(
                    int.to_bytes, seq, itertools.repeat(width), itertools.repeat("little")
                )), "little")
            values = array("Q", seq)
            if sys.byteorder == "big":
                values.byteswap()
            raw = values.tobytes()
            # byte j of every value, at byte j of its slot; the rest stay 0
            buf = bytearray(len(values) * width)
            for j in range(min(width, 8)):
                buf[j::width] = raw[j::8]
            return int.from_bytes(buf, "little")

        # 1/m = (m-1)! / m! for m = 1 .. count-1, after a zero slot for m = 0
        recips = pack(itertools.chain((0,), _modmul(fact, inv_fact[1:], p)))
        wide = bytearray(8 * words * (count - h))
        columns = []
        for coords in zip(*self.anchors):
            conv = pack(_modmul(self._weights, coords, p)) * recips
            buf = conv.to_bytes((h + count) * width, "little")
            # byte j of every slot u = h .. count-1, at byte j of its words
            for j in range(width):
                wide[j::8 * words] = buf[h * width + j:count * width:width]
            limbs = array("Q", wide)
            if sys.byteorder == "big":
                limbs.byteswap()
            slot = limbs[words - 1::words]
            for k in range(words - 2, -1, -1):
                slot = map(operator.add, map(operator.lshift, slot, itertools.repeat(64)),
                           limbs[k::words])
            columns.append(_modmul(slot, ell, p))
        tail = tuple(zip(*columns)) if columns else ((),) * (count - h)
        return self.anchors + tail


def _curve_sweep(
    anchors, n: int, d: int, delta: int, field: Field, extra: dict
) -> PointSet:
    """The Lagrange curve through the sized, re-iterable family `anchors` of
    reduced points, swept at 1 + (d+2)^2 * delta * len(anchors) values.
    Only the modulus check runs here, from len(); the anchors and the curve
    are built each time the set is iterated.  The curve's first h points are the anchors,
    so they are yielded as they are built, and the rest of the curve is
    swept only when iteration goes past them."""
    h = len(anchors)
    per_factor_degree = (d + 2) * delta
    count = 1 + (d + 2) * per_factor_degree * h
    p = field.p
    if p <= max(count - 1, h):
        raise ModulusTooSmallError(
            f"curve sweep needs {count} distinct values, modulus {p} too small"
        )

    def pieces():
        # the anchors, kept as they are yielded, then the rest of the curve
        head = []
        yield (head.append(anchor) or anchor for anchor in itertools.islice(anchors, count))
        if count > h:
            # the anchors are reduced points of one length: only the
            # constructor's modulus check applies, and it ran above
            yield trusted(LagrangeCurve, field=field, anchors=tuple(head)).sweep(count)[h:]

    points = PointFamily(count, lambda: itertools.chain.from_iterable(pieces()))
    provenance = {
        "generator": "width2_hitting_set",
        "n": n,
        "d": d,
        "delta": delta,
        "anchor_count": h,
        "per_factor_degree": per_factor_degree,
        "count": count,
        **extra,
    }
    return PointSet(n, points, provenance)


def width2_hitting_set(r: Roabp, mode: str = "whitebox") -> PointSet:
    """Hitting set for any width-2 sparse-factor instance, singular layers
    included.

    Whitebox mode factorizes through singular layers, takes the union H of
    the chain elements' invertible hitting sets -- their distinct points in
    first-occurrence order, so |H| counts distinct points -- and sweeps the
    Lagrange curve through H at exactly 1 + (d+2) * Delta * |H| parameter
    values, where Delta = (d+2) * delta conservatively bounds each factor's
    total degree.  Blackbox mode reads only the declared parameters.
    """
    if r.n < 1:
        raise StructuralError("a hitting set needs at least one variable")
    if r.width != 2:
        raise PreconditionError(f"width-2 only; got width {r.width}")
    if mode == "blackbox":
        return width2_hitting_set_params(
            r.n, r.d, r.delta, max(1, r.layer_sparsity), r.layer_support, r.field
        )
    if mode != "whitebox":
        raise StructuralError(f"unknown mode {mode!r}")
    fact = factorize_width2(r)
    if fact.is_zero:
        return PointSet(
            r.n,
            (),
            {
                "generator": "width2_hitting_set",
                "zero_certificate": True,
                "zero_layer": fact.split_layers[0],
            },
        )
    # a point shared by several pieces' sets is one anchor
    anchors = list(dict.fromkeys(itertools.chain.from_iterable(
        invertible_hitting_set(piece, "whitebox").points for piece in fact.chain
    )))
    return _curve_sweep(
        anchors,
        r.n,
        r.d,
        r.delta,
        r.field,
        {"factors": len(fact.chain), "split_layers": list(fact.split_layers)},
    )


def width2_hitting_set_params(
    n: int, d: int, delta: int, s: int, mu: int, field: Field
) -> PointSet:
    """Parameter-only width-2 hitting set: the Lagrange curve through the
    blackbox invertible-class set covers every chain factor of every
    width-2 instance with the declared parameters."""
    anchors = invertible_hitting_set_params(n, d, 2, delta, s, mu, field)
    return _curve_sweep(anchors.points, n, d, delta, field, {"mode": "blackbox"})
