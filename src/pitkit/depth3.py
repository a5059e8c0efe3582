"""Multilinear depth-3 circuits, partition distance, and the reductions.

Each product gate of a multilinear depth-3 circuit induces a partition of
the variables (one color per linear form, absent variables padded as
singleton colors).  The distance of an ordered partition sequence measures
how far it is from a refinement chain: colors group into friendly
neighborhoods, the minimal color sets whose variable unions are exactly
partitioned by all upper partitions, and the distance is the largest
neighborhood size.  Small distance drives the ROABP reduction, and
distance-1 restrictions define the base-set decomposition, an analysis of
the circuit's partitions.  The sum-of-set-multilinear zero test does not use
it: the circuit is multilinear, so the Boolean cube {0,1}^n decides it, and
the test returns the first nonzero cube point in lexicographic order.  When
the gates multiply out to fewer terms than the cube has points (and within
EXPAND_CEILING), it reads that point off the coefficients, the all-zeros
value first; otherwise it sweeps the cube, a block of 2^CUBE_BLOCK points at
a time.  One bit-mask multiply-out, `_multiply_out`, gives the terms of
`Depth3Circuit.expand` and `Depth3Circuit.is_zero`, of that coefficient route
and of the ROABP reduction.
"""

from __future__ import annotations

import itertools
import math
from collections import Counter
from functools import cached_property
from typing import Iterable, Sequence

from .algebra import Field, Frozen, MatPoly, ScalarPoly, mono_zero, trusted
from .errors import (
    CapabilityError,
    InternalInconsistencyError,
    PreconditionError,
    StructuralError,
)
from .roabp import EXPAND_CEILING, Roabp

ORDER_SEARCH_LIMIT = 6
SWEEP_CEILING = 10**7
# low variables of one sum-sml sweep block: a larger block cuts the per-block
# cost of a full sweep, but every call pays for a whole first block of
# 2^CUBE_BLOCK values, also when the all-zeros point is a witness
CUBE_BLOCK = 6


# ---------------------------------------------------------------------------
# circuits


class LinearForm(Frozen):
    """b0 + sum of b_r x_r, stored sparsely (residues, nonzero only)."""

    __match_args__ = ("constant", "coeffs")

    def __init__(self, constant: int, coeffs: dict) -> None:
        self.__dict__.update(
            constant=constant, coeffs={int(v): int(c) for v, c in coeffs.items() if int(c)}
        )

    @property
    def support(self) -> frozenset[int]:
        return frozenset(self.coeffs)

    def eval_at(self, point: Sequence[int], field: Field) -> int:
        total = self.constant
        for v, c in self.coeffs.items():
            total += c * point[v]
        return total % field.p


class Gate(Frozen):
    __match_args__ = ("scale", "forms")

    def __init__(self, scale: int, forms: tuple) -> None:
        self.__dict__.update(scale=scale, forms=tuple(forms))


class Depth3Circuit(Frozen):
    """Sum of product gates of linear forms; forms inside a gate must use
    pairwise disjoint variables (multilinearity)."""

    __match_args__ = ("field", "n", "gates")

    def __init__(self, field: Field, n: int, gates: tuple) -> None:
        clean = []
        for g_idx, gate in enumerate(gates):
            forms = []
            seen: set[int] = set()
            for f in gate.forms:
                for v in f.support:
                    if not 0 <= v < n:
                        raise StructuralError(f"variable {v} out of range in gate {g_idx}")
                # multilinearity is a property of the reduced forms: a
                # coefficient divisible by p leaves the support
                form = LinearForm(
                    field.normalize(f.constant),
                    {v: field.normalize(c) for v, c in f.coeffs.items()},
                )
                for v in form.support:
                    if v in seen:
                        raise StructuralError(
                            f"gate {g_idx} is not multilinear: variable {v} repeats"
                        )
                    seen.add(v)
                forms.append(form)
            clean.append(Gate(field.normalize(gate.scale), tuple(forms)))
        self.__dict__.update(field=field, n=n, gates=tuple(clean))

    @property
    def k(self) -> int:
        return len(self.gates)

    def gate_partition(self, i: int) -> "Partition":
        """The partition induced by gate i; variables the gate omits become
        singleton colors so every partition covers [n].  The forms of a gate
        use disjoint variables, so the colors are only sorted, not checked."""
        colors = [f.support for f in self.gates[i].forms if f.coeffs]
        covered = set().union(*colors)
        colors += [frozenset([v]) for v in range(self.n) if v not in covered]
        return trusted(
            Partition, ground=frozenset(range(self.n)), colors=tuple(sorted(colors, key=min))
        )

    def distinct_partitions(self) -> list["Partition"]:
        """The gate partitions without repeats, in order of first occurrence;
        colors are sorted by their minimum, so equal partitions are equal
        values."""
        return list(dict.fromkeys(self.gate_partition(i) for i in range(self.k)))

    @cached_property
    def distance_order(self) -> tuple[tuple[int, ...], int]:
        """(gate order, distance): `minimal_distance_order` of the gate
        partitions, searched once per circuit."""
        return minimal_distance_order([self.gate_partition(i) for i in range(self.k)])

    def eval_at(self, point: Sequence[int]) -> int:
        if len(point) != self.n:
            raise StructuralError(f"point length {len(point)} != ambient {self.n}")
        p = self.field.p
        pt = [v % p for v in point]
        total = 0
        for gate in self.gates:
            val = gate.scale
            for form in gate.forms:
                val = (val * form.eval_at(pt, self.field)) % p
                if val == 0:
                    break
            total = (total + val) % p
        return total

    @cached_property
    def term_count(self) -> int:
        """The sum over gates of the product of form sizes (coefficients plus
        a nonzero constant): the number of terms the gates multiply out to,
        before gates that share a monomial are added up."""
        return sum(
            math.prod(len(f.coeffs) + (f.constant != 0) for f in gate.forms)
            for gate in self.gates
        )

    def _check_ceiling(self, ceiling: int) -> None:
        count = self.term_count
        if count > ceiling:
            raise CapabilityError(
                f"depth-3 expansion of {count} terms exceeds the ceiling {ceiling}"
            )

    def is_zero(self, ceiling: int = EXPAND_CEILING) -> bool:
        """Oracle verdict: whether every summed coefficient of `expand` is 0
        mod p, read off the bit masks, after the same ceiling check."""
        self._check_ceiling(ceiling)
        p = self.field.p
        return not any(x % p for x in _summed_terms(self).values())

    def expand(self, ceiling: int = EXPAND_CEILING) -> ScalarPoly:
        """Brute-force oracle: the gates multiplied out, after checking that
        `term_count` is within the ceiling.  Coefficients are reduced on the
        bit masks, so only the masks of nonzero terms become exponents."""
        self._check_ceiling(ceiling)
        p, n = self.field.p, self.n
        reduced = ((m, x % p) for m, x in _summed_terms(self).items())
        terms = {_bits(m, n): x for m, x in reduced if x}
        return ScalarPoly._canonical(self.field, n, terms)


def _multiply_out(scale: int, forms: Iterable[LinearForm], n: int, p: int) -> dict[int, int]:
    """scale times the product of forms over disjoint variables, as {bit
    mask: coefficient mod p} with x_0 the most significant of n bits; no two
    terms share a mask."""
    top = n - 1
    terms = {0: scale} if scale else {}
    for form in forms:
        parts = [(1 << (top - v), a) for v, a in form.coeffs.items()]
        if form.constant:
            parts.append((0, form.constant))
        terms = {m | bit: x * a % p for m, x in terms.items() for bit, a in parts}
    return terms


def _summed_terms(c: Depth3Circuit) -> Counter[int]:
    """The gates multiplied out and added, as {bit mask: coefficient}; a
    coefficient is a sum of residues, not reduced mod p."""
    coeffs: Counter[int] = Counter()
    for gate in c.gates:
        coeffs.update(_multiply_out(gate.scale, gate.forms, c.n, c.field.p))
    return coeffs


# the 0/1 vector of each byte, most significant bit first
_BYTE_BITS = [tuple(b >> k & 1 for k in range(7, -1, -1)) for b in range(256)]


def _bits(mask: int, n: int) -> tuple:
    """The 0/1 vector of an n-bit mask, x_0 from the most significant bit,
    joined from `_BYTE_BITS` a byte at a time, the lowest byte last."""
    out = _BYTE_BITS[mask & 255]
    for shift in range(8, n, 8):
        out = _BYTE_BITS[mask >> shift & 255] + out
    return out[len(out) - n:]


# ---------------------------------------------------------------------------
# partitions and distance


class Partition(Frozen):
    """Disjoint nonempty colors exactly covering a ground set."""

    __match_args__ = ("ground", "colors")

    def __init__(self, ground: frozenset, colors: tuple) -> None:
        colors = tuple(
            sorted((frozenset(c) for c in colors), key=lambda c: min(c))
        )
        self.__dict__.update(ground=frozenset(ground), colors=colors)
        seen: set[int] = set()
        for c in colors:
            if not c:
                raise StructuralError("empty color")
            if c & seen:
                raise StructuralError("colors overlap")
            seen |= c
        if seen != self.ground:
            raise StructuralError("colors do not cover the ground set")

    @classmethod
    def of_lists(cls, colors: Sequence[Iterable[int]]) -> "Partition":
        cs = [frozenset(c) for c in colors]
        ground = frozenset().union(*cs) if cs else frozenset()
        return cls(ground, tuple(cs))

    def restrict(self, base: Iterable[int]) -> "Partition":
        """The nonempty traces of the colors on base, a subset of the
        ground set: disjoint and covering base, so only sorted."""
        base = frozenset(base)
        if not base <= self.ground:
            raise StructuralError("base set not contained in the ground set")
        colors = [part for c in self.colors if (part := c & base)]
        return trusted(Partition, ground=base, colors=tuple(sorted(colors, key=min)))


class _DSU:
    def __init__(self, size: int):
        self.parent = list(range(size))

    def find(self, a: int) -> int:
        while self.parent[a] != a:
            self.parent[a] = self.parent[self.parent[a]]
            a = self.parent[a]
        return a

    def union(self, a: int, b: int) -> None:
        ra, rb = self.find(a), self.find(b)
        if ra != rb:
            self.parent[max(ra, rb)] = min(ra, rb)


def friendly_neighborhoods(seq: Sequence[Partition], j: int) -> list[list[frozenset]]:
    """Equivalence classes of the colors of seq[j] under reachability through
    the colors of the upper partitions seq[0..j-1].

    Two colors of seq[j] fall in one class when some chain of upper colors
    sharing variables connects them; each class's variable union is then
    exactly a union of colors in every upper partition (asserted).
    """
    if not 0 <= j < len(seq):
        raise StructuralError(f"index {j} out of range")
    ground = seq[j].ground
    for part in seq[: j + 1]:
        if part.ground != ground:
            raise StructuralError("partitions have inconsistent ground sets")
    colors = seq[j].colors
    var_to_color = {v: idx for idx, c in enumerate(colors) for v in c}
    dsu = _DSU(len(colors))
    for upper in seq[:j]:
        for x_color in upper.colors:
            touched = {var_to_color[v] for v in x_color}
            first = min(touched)
            for t in touched:
                dsu.union(first, t)
    classes: dict[int, list[frozenset]] = {}
    for idx in range(len(colors)):
        classes.setdefault(dsu.find(idx), []).append(colors[idx])
    out = [classes[root] for root in sorted(classes)]
    for klass in out:
        union = frozenset().union(*klass)
        for upper in seq[:j]:
            for c in upper.colors:
                if c & union and not c <= union:
                    raise InternalInconsistencyError(
                        "neighborhood union is not exactly partitioned above"
                    )
    return out


def compute_distance(seq: Sequence[Partition]) -> int:
    """Largest friendly-neighborhood size over the non-top partitions; a
    single partition has distance 1."""
    if not seq:
        raise StructuralError("empty partition sequence")
    dist = 1
    for j in range(1, len(seq)):
        for klass in friendly_neighborhoods(seq, j):
            dist = max(dist, len(klass))
    return dist


def minimal_distance_order(partitions: Sequence[Partition]) -> tuple[tuple[int, ...], int]:
    """Try every ordering (k <= 6) and return (order, distance) minimizing
    the distance; ties break lexicographically."""
    k = len(partitions)
    if k > ORDER_SEARCH_LIMIT:
        raise PreconditionError(
            f"{k} partitions exceed the k <= {ORDER_SEARCH_LIMIT} search limit"
        )
    best: tuple[tuple[int, ...], int] | None = None
    for perm in itertools.permutations(range(k)):
        d = compute_distance([partitions[i] for i in perm])
        if best is None or d < best[1]:
            best = (perm, d)
    assert best is not None
    return best


# ---------------------------------------------------------------------------
# reductions to ROABP


def _neighborhood_partitions(
    seq: Sequence[Partition],
) -> tuple[list[list[list[frozenset]]], list[Partition]]:
    """The friendly neighborhoods of each seq[i], and P'_i: the union of
    colors in each of them."""
    classes = [friendly_neighborhoods(seq, i) for i in range(len(seq))]
    primed = [
        Partition(part.ground, tuple(frozenset().union(*k) for k in ks))
        for part, ks in zip(seq, classes)
    ]
    return classes, primed


def _respecting_order(coarse_to_fine: Sequence[Partition]) -> list[int]:
    """A total variable order respecting every partition in the sequence
    (coarsest first, each refined by the next); arbitrary choices are fixed
    by smallest variable index."""
    blocks: list[frozenset] = sorted(coarse_to_fine[0].colors, key=min)
    for part in coarse_to_fine[1:]:
        new_blocks: list[frozenset] = []
        for blk in blocks:
            inner = sorted((c for c in part.colors if c <= blk), key=min)
            if frozenset().union(*inner) != blk:
                raise InternalInconsistencyError("refinement property violated")
            new_blocks.extend(inner)
        blocks = new_blocks
    return [v for blk in blocks for v in sorted(blk)]


def circuit_to_roabp(c: Depth3Circuit) -> Roabp:
    """Reduce a multilinear depth-3 circuit to an ROABP over single-variable
    blocks in a total order respecting every neighborhood partition.

    The gates are taken in `Depth3Circuit.distance_order`, and each gate is
    a lane of the block-diagonal layers, as wide as its largest neighborhood
    product.  Each neighborhood is a segment, an interval [start, end] of
    the order carrying the product of its forms: the lane enters it through
    its carry state (the lane's first), fans out to one state per monomial
    of the product, and funnels back to the carry at end.  With distance
    delta, neighborhood products multiply at most delta linear forms.
    """
    if c.k == 0:
        raise PreconditionError("circuit has no gates")
    gate_order, _ = c.distance_order
    classes, primed = _neighborhood_partitions([c.gate_partition(i) for i in gate_order])
    order = _respecting_order(primed[::-1])
    position = {v: i for i, v in enumerate(order)}
    lanes = []  # per gate: (gate, width, segments as (start, end, product terms))
    for g_idx, neighborhoods in zip(gate_order, classes):
        gate = c.gates[g_idx]
        form_by_color = {f.support: f for f in gate.forms if f.support}
        segments = []
        for klass in neighborhoods:
            positions = sorted(position[v] for color in klass for v in color)
            if positions[-1] - positions[0] != len(positions) - 1:
                raise InternalInconsistencyError("neighborhood is not an order interval")
            forms = [form_by_color[color] for color in klass if color in form_by_color]
            terms = _multiply_out(1, forms, c.n, c.field.p)
            segments.append((positions[0], positions[-1], sorted(terms.items())))
        width = max(len(terms) for _, _, terms in segments)
        lanes.append((gate, width, sorted(segments, key=lambda seg: seg[0])))
    total = sum(width for _, width, _ in lanes)
    # per position: the constant matrix and the x_v matrix, indexed by the
    # bit of x_v in a monomial's mask; MatPoly reduces them mod p
    mats = [[[[0] * total for _ in range(total)] for _ in range(2)] for _ in order]
    left, right = [0] * total, [0] * total
    offset = 0
    for gate, width, segments in lanes:
        left[offset], right[offset] = gate.scale, 1
        # constant forms scale the lane at its first segment's start
        scale = math.prod(f.constant for f in gate.forms if not f.support)
        for start, end, terms in segments:
            for idx, (m, coef) in enumerate(terms):
                for pos in range(start, end + 1):
                    row = offset if pos == start else offset + idx
                    col = offset if pos == end else offset + idx
                    bit = m >> (c.n - 1 - order[pos]) & 1
                    mats[pos][bit][row][col] += coef * scale if pos == start else 1
            scale = 1
        offset += width
    layers = [
        MatPoly(
            c.field, c.n, total,
            {mono_zero(c.n): const, tuple(int(u == v) for u in range(c.n)): var},
        )
        for v, (const, var) in zip(order, mats)
    ]
    return Roabp.with_constant_boundaries(
        c.field, c.n, [(v,) for v in order], layers, tuple(left), tuple(right)
    )


# ---------------------------------------------------------------------------
# base-set decomposition


class BaseSetCertificate(Frozen):
    # order is a permutation of the original partition indices
    __match_args__ = ("base_set", "order", "distance")

    def __init__(self, base_set: frozenset, order: tuple, distance: int) -> None:
        self.__dict__.update(base_set=base_set, order=order, distance=distance)


class BaseSetDecomposition(Frozen):
    """Disjoint base sets with per-set distance-1 orderings of the input
    partitions, and the proven cap on the number of sets."""

    __match_args__ = ("n", "partition_count", "certificates")

    def __init__(self, n: int, partition_count: int, certificates: tuple) -> None:
        self.__dict__.update(n=n, partition_count=partition_count, certificates=certificates)

    @property
    def m(self) -> int:
        return len(self.certificates)

    @property
    def cap(self) -> float:
        c = self.partition_count
        if c == 0:
            return 0.0
        return 2 ** (c - 1) * self.n ** (1 - 1.0 / 2 ** (c - 1))

    def within_cap(self) -> bool:
        if self.partition_count <= 1:
            return self.m == self.partition_count
        return self.m < self.cap


def _decompose(color_maps: Sequence[dict], indices: list[int], ground: frozenset):
    """Recursive split: big colors of the first partition become base sets
    refined by the rest (first partition ordered last); small colors
    contribute transversals (first partition ordered first).  Partitions
    are {variable: color index} maps; the first one's colors on ground are
    grouped by walking ground in sorted order, so they come ordered by
    their minimum, each with its members sorted."""
    if len(indices) == 1:
        return [(ground, (indices[0],))]
    head = color_maps[indices[0]]
    traces: dict[int, list[int]] = {}
    for v in sorted(ground):
        traces.setdefault(head[v], []).append(v)
    size = len(ground)
    big = [c for c in traces.values() if len(c) * len(c) >= size]
    small = [c for c in traces.values() if len(c) * len(c) < size]
    out = []
    for color in big:
        for base, perm in _decompose(color_maps, indices[1:], frozenset(color)):
            out.append((base, perm + (indices[0],)))
    if small:
        depth = max(len(c) for c in small)
        for a in range(depth):
            transversal = frozenset(c[a] for c in small if len(c) > a)
            for base, perm in _decompose(color_maps, indices[1:], transversal):
                out.append((base, (indices[0],) + perm))
    return out


def _refines_in_order(color_maps: Sequence[dict], base: frozenset) -> bool:
    """Whether the partitions, given as {variable: color index} maps and
    restricted to base, have distance 1 in this order.

    Distance 1 means every friendly neighborhood is a single color: no
    upper color meets two colors below it, so each partition refines every
    later one, and by transitivity that holds iff each refines the next,
    that is, iff on base its color of a variable fixes the next one's."""
    for upper, lower in zip(color_maps, color_maps[1:]):
        image: dict[int, int] = {}
        for v in base:
            if image.setdefault(upper[v], lower[v]) != lower[v]:
                return False
    return True


def decompose_base_sets(partitions: Sequence[Partition]) -> BaseSetDecomposition:
    """Split the ground set into base sets on which the partitions admit a
    distance-1 ordering; at most 2^(c-1) * n^(1-1/2^(c-1)) sets for c >= 2
    partitions (exactly one trivial set for c = 1, none for c = 0: a circuit
    without gates has nothing to decompose).  Each certificate's order is
    checked as a refinement chain on its base set (`_refines_in_order`);
    only a failed check computes the distance, for its message."""
    if not partitions:
        return BaseSetDecomposition(n=0, partition_count=0, certificates=())
    ground = partitions[0].ground
    for part in partitions:
        if part.ground != ground:
            raise StructuralError("partitions have inconsistent ground sets")
    color_maps = [{v: i for i, c in enumerate(part.colors) for v in c} for part in partitions]
    raw = _decompose(color_maps, list(range(len(partitions))), ground)
    certificates = []
    for base, perm in raw:
        if not _refines_in_order([color_maps[i] for i in perm], base):
            dist = compute_distance([partitions[i].restrict(base) for i in perm])
            raise InternalInconsistencyError(
                f"certificate for base set {sorted(base)} has distance {dist}"
            )
        certificates.append(BaseSetCertificate(base, perm, 1))
    decomp = BaseSetDecomposition(
        n=len(ground),
        partition_count=len(partitions),
        certificates=tuple(certificates),
    )
    covered: set[int] = set()
    for cert in certificates:
        if cert.base_set & covered:
            raise InternalInconsistencyError("base sets overlap")
        covered |= cert.base_set
    if covered != ground:
        raise InternalInconsistencyError("base sets do not cover the ground set")
    if not decomp.within_cap():
        raise InternalInconsistencyError(
            f"{decomp.m} base sets exceed the cap {decomp.cap}"
        )
    return decomp


# ---------------------------------------------------------------------------
# whitebox test for sums of set-multilinear circuits


class SumSmlResult(Frozen):
    """A sum-sml verdict ("zero" or "nonzero", with the witness point when
    nonzero) and the size 2^n of the cube it is decided over."""

    __match_args__ = ("verdict", "witness", "sweep")

    def __init__(self, verdict: str, witness: tuple | None, sweep: int) -> None:
        self.__dict__.update(verdict=verdict, witness=witness, sweep=sweep)


def _low_table(constant: int, coeffs: dict, low_vars: range) -> list[int]:
    """Values of constant + sum of coeffs[v] x_v on the low variables'
    cube, in lexicographic order (the first low variable most significant).

    Built by doubling from the last variable: the table of x_v, ..., x_{n-1}
    is that of x_{v+1}, ..., x_{n-1} followed by its copy plus c_v.  Entries
    are left unreduced (below (b + 1) p); the sweep reduces its products."""
    table = [constant]
    for v in reversed(low_vars):
        c = coeffs.get(v)
        table = table + [x + c for x in table] if c else table * 2
    return table


def sum_sml_whitebox_test(
    c: Depth3Circuit, sweep_ceiling: int = SWEEP_CEILING
) -> SumSmlResult:
    """Whitebox zero test for a sum of set-multilinear depth-3 circuits.

    Every gate multiplies forms over disjoint variables, so the circuit is
    multilinear, and the cube {0,1}^n hits any nonzero multilinear
    polynomial over any field: write f = x_v g + h with g, h free of x_v;
    x_v = 0 leaves h and x_v = 1 leaves g + h, so one of them is nonzero,
    and induction on n finishes.  The verdict and the witness are those of
    the sweep of the 2^n cube points in lexicographic order (all-zeros
    first) that stops at the first nonzero value, and `sweep` is 2^n.

    Two routes reach them, chosen from two counts before any work: with
    T = `term_count` below 2^n and within `EXPAND_CEILING`, the all-zeros
    value is read off the constants, and only when it is 0 are the gates
    multiplied out (`_coefficient_route`, O(T)); otherwise the cube is
    swept a block at a time (`_cube_route`, up to 2^n points).
    """
    if not c.gates:
        return SumSmlResult("zero", None, 0)
    total = 2**c.n
    if total > sweep_ceiling:
        raise CapabilityError(
            f"cube sweep of {total} evaluations exceeds the ceiling {sweep_ceiling}"
        )
    if c.term_count < total and c.term_count <= EXPAND_CEILING:
        witness = _coefficient_route(c)
    else:
        witness = _cube_route(c)
    if witness is None:
        return SumSmlResult("zero", None, total)
    return SumSmlResult("nonzero", witness, total)


def _coefficient_route(c: Depth3Circuit) -> tuple | None:
    """The first nonzero cube point, from the multiplied-out gates, or None
    for the zero polynomial.

    A monomial and a cube point are both bit masks with x_0 as the most
    significant bit, so lexicographic order is numeric order.  The smallest
    mask m with a nonzero coefficient is the witness: at a point y only the
    submasks of y survive, and for y < m they are all smaller than m, so of
    coefficient 0, while for y = m only m itself is not.  Mask 0 comes
    first, from the constants alone: its coefficient is the all-zeros value.
    """
    p = c.field.p
    if sum(gate.scale * math.prod(f.constant for f in gate.forms) for gate in c.gates) % p:
        return (0,) * c.n
    first = min((m for m, x in _summed_terms(c).items() if x % p), default=None)
    if first is None:
        return None
    return _bits(first, c.n)


def _cube_route(c: Depth3Circuit) -> tuple | None:
    """The first nonzero cube point in lexicographic order, or None, swept a
    block at a time.

    The last b = min(n, CUBE_BLOCK) variables are the low ones, and each
    block is the 2^b points that share one setting of the first n - b, the
    high ones.  Each form's low part is a 2^b table built once; per block a
    form adds the scalar value of its constant and high part, and the forms
    free of high variables are one table per gate.  The points, their order
    and the first witness are those of the point-by-point sweep.
    """
    p = c.field.p
    b = min(c.n, CUBE_BLOCK)
    high = c.n - b
    low_vars = range(high, c.n)
    # per gate: its scale; the forms free of low variables as (constant,
    # high coefficients); the product table of the forms free of high
    # variables, or None; the other forms as (constant, high coefficients,
    # low table from 0)
    plans = []
    for gate in c.gates:
        scalars, base, mixed = [], None, []
        for form in gate.forms:
            high_coeffs = {v: co for v, co in form.coeffs.items() if v < high}
            if len(high_coeffs) == len(form.coeffs):
                scalars.append((form.constant, high_coeffs))
            elif not high_coeffs:
                table = _low_table(form.constant, form.coeffs, low_vars)
                base = table if base is None else [x * y % p for x, y in zip(base, table)]
            else:
                mixed.append((form.constant, high_coeffs, _low_table(0, form.coeffs, low_vars)))
        plans.append((gate.scale, scalars, base, mixed))
    size = 2**b
    for high_point in itertools.product((0, 1), repeat=high):
        acc = [0] * size
        for scale, scalars, base, mixed in plans:
            s = scale
            for const, coeffs in scalars:
                s = s * (const + sum(co for v, co in coeffs.items() if high_point[v])) % p
            if not s:
                continue
            vec = base
            for const, coeffs, table in mixed:
                h = const + sum(co for v, co in coeffs.items() if high_point[v])
                if vec is None:
                    vec = [h + y for y in table]
                else:
                    vec = [x * (h + y) % p for x, y in zip(vec, table)]
            if vec is None:
                acc = [a + s for a in acc]
            else:
                acc = [a + s * x for a, x in zip(acc, vec)]
        acc = [a % p for a in acc]
        if any(acc):
            j = next(i for i, value in enumerate(acc) if value)
            return high_point + tuple((j >> k) & 1 for k in range(b - 1, -1, -1))
    return None
