"""Blackbox hitting sets checked against their whole class, not sampled members.

A blackbox set claims to hit every ROABP with the declared (n, d, w, s,
delta).  When that class is the whole space V of polynomials of individual
degree <= delta in n variables, the claim is linear algebra: H hits V iff
no nonzero f in V vanishes on H, iff the |H| x (delta+1)^n matrix of the
monomials' values at the points of H has full column rank over GF(p).  So
the check is exact in both directions, with no sampling.

The class is all of V when some split of the variables into d nonempty
blocks has (delta+1)^b <= s for its largest block b, so a layer can hold
every monomial of its block, and min((delta+1)^left, (delta+1)^right) <= w
at every cut, so the width covers the rank of every coefficient matrix
across the cut.  README.md records the shortest full-rank prefix of each
set next to its generator's size formula.

The CLI emits the grid {g^0..g^delta}^n wherever the paper's set is not
smaller, and that grid has full rank at exactly (delta+1)^n points.  The
paper's sets, which the generators build only where they win, are checked
here through their builders, at the sizes the CLI emitted before the grid
floor.
"""

import itertools
import math

import pytest

from pitkit import concentrate
from pitkit.algebra import Field, MatPoly, RowSpan
from pitkit.io_cli import load_points, main, save_instance
from pitkit.isolate import roabp_hitting_set
from pitkit.roabp import Roabp
from reference import paper_blackbox_set, paper_params_set


def whole_space(n: int, d: int, w: int, s: int, delta: int) -> bool:
    """Whether the ROABPs with these parameters are every polynomial of
    individual degree <= delta in n variables: the split conditions, tried
    on every split of n into d nonempty consecutive blocks."""
    q = delta + 1
    for cuts in itertools.combinations(range(1, n), d - 1):
        bounds = (0, *cuts, n)
        largest = max(b - a for a, b in zip(bounds, bounds[1:]))
        if q**largest <= s and all(min(q**c, q ** (n - c)) <= w for c in cuts):
            return True
    return False


def full_rank_prefix(points, n: int, delta: int, field: Field) -> int | None:
    """The length of the shortest prefix of points whose evaluation matrix
    on the (delta+1)^n monomials has full column rank, by incremental
    elimination that stops there; None if the whole set falls short."""
    monomials = list(itertools.product(range(delta + 1), repeat=n))
    span, p = RowSpan(field), field.p
    for count, point in enumerate(points, 1):
        span.add([math.prod(pow(x, e, p) for x, e in zip(point, m)) % p for m in monomials])
        if len(span.rows) == len(monomials):
            return count
    return None


def declared_instance(n: int, d: int, w: int, s: int, delta: int, field: Field) -> Roabp:
    """An ROABP whose declared parameters are exactly (n, d, w, s, delta):
    d consecutive blocks as even as possible, each layer holding s of its
    block's monomials of individual degree <= delta, one of degree delta
    first.  Blackbox mode reads nothing else of it."""
    sizes = [n // d + (i < n % d) for i in range(d)]
    bounds = list(itertools.accumulate(sizes, initial=0))
    blocks = [tuple(range(a, b)) for a, b in zip(bounds, bounds[1:])]
    layers = []
    for blk in blocks:
        exps = sorted(itertools.product(range(delta + 1), repeat=len(blk)), key=max, reverse=True)
        terms = {}
        for k, sub in enumerate(exps[:s]):
            e = [0] * n
            for v, x in zip(blk, sub):
                e[v] = x
            terms[tuple(e)] = tuple(tuple(k + i + j + 1 for j in range(w)) for i in range(w))
        layers.append(MatPoly(field, n, w, terms))
    r = Roabp.with_constant_boundaries(field, n, blocks, layers, [1] * w, [1] * w)
    assert (r.n, r.d, r.width, r.layer_sparsity, r.delta) == (n, d, w, s, delta)
    return r


def ids(value) -> str:
    return str(value).replace(" ", "")


# the sets `hs --mode blackbox` emits:
# (family, (n, d, w, s, delta), p, shortest full-rank prefix, set size)
WHOLE_SPACE = [
    ("roabp", (2, 2, 3, 3, 2), 10007, 9, 9),
    ("roabp", (4, 2, 4, 4, 1), 10007, 16, 16),
    ("roabp", (2, 1, 1, 9, 2), 10007, 9, 9),
    ("roabp", (3, 3, 2, 2, 1), 10007, 8, 8),
    ("roabp", (2, 2, 3, 3, 2), 13, 9, 9),
    ("invertible", (2, 2, 2, 2, 1), 10007, 4, 4),
    # a curve through the grid's anchors, 1 + (d+2)^2 * delta * (delta+1)^n
    # points; the paper's anchors gave (3, 3, 2, 2, 1) a curve of 271,001
    ("width2", (2, 2, 2, 2, 1), 10007, 4, 65),
    ("width2", (2, 1, 2, 4, 1), 2**31 - 1, 4, 37),
    ("width2", (3, 3, 2, 2, 1), 10007, 8, 201),
]


@pytest.mark.parametrize("family, params, p, prefix, size", WHOLE_SPACE, ids=ids)
def test_emitted_blackbox_set_hits_its_whole_class(
    tmp_path, capsys, family, params, p, prefix, size
):
    assert whole_space(*params)
    n, _, _, _, delta = params
    field = Field(p)
    circuit, points = tmp_path / "c.json", tmp_path / "pts.txt"
    save_instance(declared_instance(*params, field), str(circuit))
    argv = ["hs", family, "--mode", "blackbox", "--input", str(circuit), "--out", str(points)]
    assert main(argv) == 0, capsys.readouterr().err
    hs = load_points(str(points))
    assert len(hs) == size
    assert full_rank_prefix(hs, n, delta, field) == prefix
    if family != "width2":
        # the grid reaches full rank at its last point
        assert prefix == size == (delta + 1) ** n


def paper_set(family: str, r: Roabp):
    """The paper's parameter-only set for the declared parameters of r: the
    roabp candidate sweeps, or the width-2 curve through the paper's
    invertible anchors."""
    if family == "roabp":
        return paper_blackbox_set(r)
    s = max(1, r.layer_sparsity)
    anchors = paper_params_set(r.n, r.d, 2, r.delta, s, r.layer_support, r.field)
    return concentrate._curve_sweep(anchors.points, r.n, r.d, r.delta, r.field, {"mode": "blackbox"})


# the paper's sets, built directly: same columns as WHOLE_SPACE
PAPER_WHOLE_SPACE = [
    ("roabp", (2, 2, 3, 3, 2), 10007, 30, 196),
    ("roabp", (4, 2, 4, 4, 1), 10007, 125, 2601),
    ("roabp", (2, 1, 1, 9, 2), 10007, 10, 14),
    ("roabp", (3, 3, 2, 2, 1), 10007, 219, 6859),
    # the largest round side is 9, so GF(13) holds every sweep
    ("roabp", (2, 2, 3, 3, 2), 13, 30, 196),
    ("width2", (2, 2, 2, 2, 1), 10007, 4, 6273),
    ("width2", (2, 1, 2, 4, 1), 2**31 - 1, 4, 2665),
]


@pytest.mark.parametrize("family, params, p, prefix, size", PAPER_WHOLE_SPACE, ids=ids)
def test_blackbox_set_hits_its_whole_class(family, params, p, prefix, size):
    assert whole_space(*params)
    n, _, _, _, delta = params
    field = Field(p)
    hs = tuple(paper_set(family, declared_instance(*params, field)))
    assert len(hs) == size
    assert full_rank_prefix(hs, n, delta, field) == prefix


def test_a_set_one_point_short_of_the_dimension_fails_the_check():
    n, delta, field = 2, 2, Field(10007)
    r = declared_instance(2, 2, 3, 3, 2, field)
    for points in (list(roabp_hitting_set(r, "blackbox")), list(paper_blackbox_set(r))):
        assert full_rank_prefix(points, n, delta, field) is not None
        assert full_rank_prefix(points[: (delta + 1) ** n - 1], n, delta, field) is None


@pytest.mark.parametrize("params, whole", [
    ((2, 2, 3, 3, 2), True),
    ((4, 2, 4, 4, 1), True),
    ((4, 2, 3, 4, 1), False),  # the 2|2 cut needs width 4, a 1|3 block needs s = 8
    ((2, 1, 1, 8, 2), False),  # one block of 9 monomials
    ((3, 3, 2, 2, 1), True),
    ((3, 2, 2, 2, 1), False),
])
def test_the_split_conditions(params, whole):
    assert whole_space(*params) is whole
