"""The paper's definitions, written out as exact oracles for the tests.

pitkit never computes these on a production path: it builds hitting sets
and zero tests that the definitions guarantee, and the tests check them
here against the definitions themselves (basis isolation, support and
block-support concentration, the naive Kronecker map, the paper's packing
of round weights into one map, the shift
x -> x + a, evaluation by whole power products).  A few conveniences the
tests share sit at the end.
"""

from __future__ import annotations

import math
from itertools import product as iter_product
from typing import Sequence

from pitkit.algebra import (
    Field,
    MatPoly,
    Matrix,
    Monomial,
    RowSpan,
    ScalarPoly,
    mat_det,
    mat_flatten,
    mono_support_size,
)
from pitkit import isolate
from pitkit.concentrate import (
    _paper_params_set,
    _shift_hits,
    _shift_maps,
    _t0_budget,
    low_support_hitting_set,
    support_parameter,
)
from pitkit.errors import (
    InternalInconsistencyError,
    ModulusTooSmallError,
    PreconditionError,
    StructuralError,
)
from pitkit.kron import RoundMap, WeightFn
from pitkit.roabp import Roabp

# ---------------------------------------------------------------------------
# rank


def span_contains(span: RowSpan, vec: Sequence[int]) -> bool:
    """Whether vec lies in the row span."""
    return not any(span._reduce(vec))


def rank_over_field(vectors: Sequence[Sequence[int]], field: Field) -> int:
    """Dimension of the span of the given vectors over GF(p).

    Deterministic, permutation-invariant; an empty list has rank 0.
    """
    if not vectors:
        return 0
    k = len(vectors[0])
    for v in vectors:
        if len(v) != k:
            raise StructuralError(
                f"ragged input: expected vectors of length {k}, got {len(v)}"
            )
    span = RowSpan(field)
    for v in vectors:
        span.add(v)
    return len(span.rows)


# ---------------------------------------------------------------------------
# concentration


def block_support(e: Monomial, blocks: Sequence[Sequence[int]]) -> frozenset[int]:
    """Indices of the blocks contributing a nonzero exponent to e."""
    out = set()
    for idx, blk in enumerate(blocks):
        if any(e[v] for v in blk):
            out.add(idx)
    return frozenset(out)


def _coeff_vectors(poly: MatPoly | ScalarPoly) -> dict[Monomial, tuple[int, ...]]:
    if isinstance(poly, MatPoly):
        return {e: mat_flatten(m) for e, m in poly.terms.items()}
    return {e: (c,) for e, c in poly.terms.items()}


def concentration_rank(
    poly: MatPoly | ScalarPoly,
    bound: int,
    mode: str = "support",
    blocks: Sequence[Sequence[int]] | None = None,
) -> tuple[int, int]:
    """(rank of the coefficients below the bound, rank of all coefficients).

    "support" mode counts a monomial's variables; "block" mode counts the
    blocks it touches and requires the block structure.  Concentration at
    the bound holds iff the two ranks agree.
    """
    if mode not in ("support", "block"):
        raise StructuralError(f"unknown mode {mode!r}")
    if mode == "block" and blocks is None:
        raise StructuralError("block mode requires a block structure")
    vectors = _coeff_vectors(poly)
    low = []
    for e, vec in vectors.items():
        measure = (
            mono_support_size(e)
            if mode == "support"
            else len(block_support(e, blocks))
        )
        if measure < bound:
            low.append(vec)
    field = poly.field
    full_rank = rank_over_field(list(vectors.values()), field) if vectors else 0
    low_rank = rank_over_field(low, field) if low else 0
    return low_rank, full_rank


# ---------------------------------------------------------------------------
# isolation and Kronecker maps


def is_basis_isolating(wfn: WeightFn, poly: MatPoly) -> bool:
    """Decide whether a weight function is basis isolating for poly.

    Scans weight classes in ascending order keeping a span of all strictly
    lighter coefficients.  A monomial outside that span must belong to the
    isolated set; two such monomials in one class would need equal weights,
    which the definition forbids, so the check rejects.  Zero coefficients
    are trivially spanned and never isolated.
    """
    if wfn.n != poly.n:
        raise StructuralError("weight function ambient mismatch")
    by_weight: dict[int, list[Monomial]] = {}
    for e in poly.terms:
        by_weight.setdefault(wfn.monomial_weight(e), []).append(e)
    span = RowSpan(poly.field)
    for weight in sorted(by_weight):
        klass = by_weight[weight]
        fresh = [
            e for e in klass if not span_contains(span, mat_flatten(poly.coeff(e)))
        ]
        if len(fresh) > 1:
            return False
        for e in klass:
            span.add(mat_flatten(poly.coeff(e)))
    return True


def combine_rounds(rmap: RoundMap, delta: int) -> WeightFn:
    """The paper's single map for the rounds w_1..w_R of `rmap`:
    x -> sum_r w_r(x) * B^(R-r), with B = 1 + n * delta * (largest round
    weight), above any monomial's weight in one round."""
    base = max(2, 1 + rmap.n * delta * rmap.max_weight)
    count = len(rmap.rounds)
    return WeightFn(tuple(
        sum(w.weights[v] * base ** (count - 1 - r) for r, w in enumerate(rmap.rounds))
        for v in range(rmap.n)
    ))


def naive_kronecker(n: int, delta: int) -> WeightFn:
    """w(x_i) = (delta+1)^(i-1): injective on degree-bounded monomials."""
    if n < 1 or delta < 0:
        raise StructuralError("need n >= 1 and delta >= 0")
    base = delta + 1
    return WeightFn(tuple(base**i for i in range(n)))


# ---------------------------------------------------------------------------
# shifts


def shift_scalar(poly: ScalarPoly, offsets: Sequence[int]) -> ScalarPoly:
    """Substitute x_i -> x_i + offsets[i] for every variable."""
    if len(offsets) != poly.n:
        raise StructuralError("offset length mismatch")
    p = poly.field.p
    offs = [v % p for v in offsets]
    out: dict[Monomial, int] = {}
    for e, c in poly.terms.items():
        expansions: list[list[tuple[int, int]]] = []
        for i, exp in enumerate(e):
            if exp == 0:
                expansions.append([(0, 1)])
            elif offs[i] == 0:
                expansions.append([(exp, 1)])
            else:
                opts = []
                for f in range(exp + 1):
                    coef = (math.comb(exp, f) * pow(offs[i], exp - f, p)) % p
                    opts.append((f, coef))
                expansions.append(opts)
        for combo in iter_product(*expansions):
            new_e = tuple(f for f, _ in combo)
            coef = c
            for _, w in combo:
                coef = (coef * w) % p
            if coef:
                s = (out.get(new_e, 0) + coef) % p
                if s:
                    out[new_e] = s
                else:
                    out.pop(new_e, None)
    return ScalarPoly(poly.field, poly.n, out)


def shift_mat(poly: MatPoly, offsets: Sequence[int]) -> MatPoly:
    """Substitute x_i -> x_i + offsets[i] entrywise."""
    return MatPoly.from_entries([
        [shift_scalar(poly.entry(i, j), offsets) for j in range(poly.w)]
        for i in range(poly.w)
    ])


def shift_roabp(r: Roabp, offsets: Sequence[int]) -> Roabp:
    """Substitute x_i -> x_i + offsets[i] in every layer and boundary."""
    return Roabp(
        r.field,
        r.n,
        r.width,
        r.blocks,
        tuple(shift_mat(layer, offsets) for layer in r.layers),
        tuple(shift_scalar(p, offsets) for p in r.left_boundary),
        tuple(shift_scalar(p, offsets) for p in r.right_boundary),
        r.left_block,
        r.right_block,
    )


def shift_search_reference(r: Roabp) -> tuple[WeightFn, int, int]:
    """The concentrating-shift search that `concentrate.find_concentrating_shift`
    must agree with, written without its all-ones shortcut: every (map, t0)
    of the family in order, t0 = 1 included, each layer's invertibility at
    the offsets read from its symbolic determinant, a map skipped when some
    determinant's image vanishes, under the same t0 budget, checks and
    messages."""
    dets = [layer.det for layer in r.layers]
    for i, det in enumerate(dets):
        if det.is_zero():
            raise PreconditionError(
                f"layer {i} is symbolically singular; "
                "use factorize_width2 for width-2 instances"
            )
    w, s, p = r.width, max(1, r.layer_sparsity), r.field.p
    bound = support_parameter(w, s, r.layer_support) * (w * w + 2)
    low_support_hitting_set(r.n, r.delta, bound, r.field)
    det_degree = max((det.total_degree() for det in dets), default=0)
    clipped = False
    for prime, wfn in _shift_maps(r.n, r.d, w, r.delta, s, r.layer_support):
        full_budget = _t0_budget(r.d, det_degree, w, r.n, r.delta, wfn.max_weight)
        t_budget = min(p - 1, full_budget)
        clipped = clipped or t_budget < full_budget
        if not all(wfn.image(det.terms.items(), p) for det in dets):
            continue
        for t0 in range(1, t_budget + 1):
            offsets = wfn.powers(t0, p)
            if all(det.eval_at(offsets) for det in dets) and _shift_hits(r, bound, offsets):
                return wfn, prime, t0
    if clipped:
        raise ModulusTooSmallError(
            f"no concentrating shift verified; some candidate needs more t0 "
            f"values than the {p - 1} nonzero residues of GF({p})"
        )
    raise InternalInconsistencyError(
        "no concentrating shift verified within the candidate family"
    )


# ---------------------------------------------------------------------------
# evaluation


def _value(poly: ScalarPoly, point: Sequence[int]) -> int:
    """poly at point, the sum of its terms' power products, each with one
    factor per coordinate."""
    p = poly.field.p
    total = 0
    for e, c in poly.terms.items():
        for x, exp in zip(point, e):
            c = c * pow(x, exp, p) % p
        total += c
    return total % p


def mat_eval_at(poly: MatPoly, point: Sequence[int]) -> Matrix:
    """The matrix polynomial at point, entry by entry, reading every
    coordinate."""
    if len(point) != poly.n:
        raise StructuralError(f"point length {len(point)} != ambient {poly.n}")
    return tuple(
        tuple(_value(poly.entry(i, j), point) for j in range(poly.w)) for i in range(poly.w)
    )


def det_at_ones(layer: MatPoly) -> int:
    """The layer's determinant at the all-ones point, from the matrix
    evaluated there."""
    return mat_det(mat_eval_at(layer, (1,) * layer.n), layer.field)


def uncached(r: Roabp) -> Roabp:
    """The same instance on new layer objects, none of whose determinants
    is cached yet."""
    return r.replace(layers=tuple(MatPoly(m.field, m.n, m.w, m.terms) for m in r.layers))


def evaluate_reference(r: Roabp, point: Sequence[int]) -> int:
    """left^T (prod layers) right at point, every boundary entry and layer
    matrix evaluated whole, reading every coordinate: the value
    `Roabp.evaluate` must give."""
    if len(point) != r.n:
        raise StructuralError(f"point length {len(point)} != ambient {r.n}")
    p, w = r.field.p, r.width
    row = [_value(poly, point) for poly in r.left_boundary]
    for layer in r.layers:
        m = mat_eval_at(layer, point)
        row = [sum(row[i] * m[i][j] for i in range(w)) % p for j in range(w)]
    return sum(a * _value(poly, point) for a, poly in zip(row, r.right_boundary)) % p


def width2_alpha(r: Roabp, fact) -> ScalarPoly:
    """alpha of a `concentrate.Width2Factorization` of r: the product, over
    its split layers, of each layer's first nonzero entry in the order
    (0,0), (0,1), (1,0), (1,1), so that alpha * r = the chain's product."""
    alpha = ScalarPoly.const(r.field, r.n, 1)
    if fact.is_zero:
        return alpha
    for i in fact.split_layers:
        (a, b), (c, d) = r.layers[i].entry_grid()
        alpha = alpha * next(e for e in (a, b, c, d) if not e.is_zero())
    return alpha


# ---------------------------------------------------------------------------
# determinants


def det_cofactor(grid: Sequence[Sequence[ScalarPoly]]) -> ScalarPoly:
    """Symbolic determinant of a square grid of scalar polynomials by
    cofactor expansion along the first row, with polynomial arithmetic
    throughout: the definition `algebra.det_poly` must agree with."""
    w = len(grid)
    if w == 0 or any(len(row) != w for row in grid):
        raise StructuralError("grid is not square")

    def rec(rows: list[int], cols: list[int]) -> ScalarPoly:
        if len(rows) == 1:
            return grid[rows[0]][cols[0]]
        first = grid[rows[0]][0]
        acc = ScalarPoly.zero(first.field, first.n)
        for k, c in enumerate(cols):
            entry = grid[rows[0]][c]
            if entry.is_zero():
                continue
            term = entry * rec(rows[1:], cols[:k] + cols[k + 1:])
            acc = acc + (-term if k % 2 else term)
        return acc

    idx = list(range(w))
    return rec(idx, idx)


# ---------------------------------------------------------------------------
# conveniences


def variable(field: Field, n: int, index: int) -> ScalarPoly:
    """The polynomial x_index in n variables."""
    if not 0 <= index < n:
        raise StructuralError(f"variable index {index} out of range for n={n}")
    e = [0] * n
    e[index] = 1
    return ScalarPoly(field, n, {tuple(e): 1})


def all_blocks(r: Roabp) -> list[tuple[int, ...]]:
    """Boundary and interior blocks in layer order (left first)."""
    return [r.left_block, *r.blocks, r.right_block]


def choice(stream, seq: Sequence):
    """One element of seq, drawn from a `verify.DetStream`."""
    return seq[stream.randint(0, len(seq) - 1)]


def base_sets(decomposition) -> list[frozenset]:
    """The base sets of a `depth3.BaseSetDecomposition`, in order."""
    return [cert.base_set for cert in decomposition.certificates]


def paper_blackbox_set(r: Roabp):
    """The paper's blackbox roabp set for r's declared parameters, sized
    from its per-round lists read in full."""
    family = (r.n, max(1, r.d), max(1, r.layer_sparsity), r.width, r.delta)
    sides = [[wfn.side(r.delta) for wfn in maps] for maps in isolate._round_maps(*family)]
    return isolate._paper_blackbox_set(r, sides)


def paper_params_set(n: int, d: int, w: int, delta: int, s: int, mu: int, field: Field):
    """The paper's parameter-only invertible set, over every shift map of
    the declared parameters' family."""
    maps = [wfn for _, wfn in _shift_maps(n, d, w, delta, s, mu)]
    return _paper_params_set(n, d, w, delta, s, mu, field, maps)
