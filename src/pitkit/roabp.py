"""The read-once oblivious branching-program model.

An instance is a layered product of matrix polynomials over pairwise
disjoint variable blocks, contracted on both sides by boundary vectors of
scalar polynomials (constant vectors being the degree-0 special case).  The
scalar polynomial computed is left^T (prod layers) right.

`expand` is the brute-force coefficient oracle used throughout the test
suites; its term ceiling keeps oracle use deliberate.  `is_zero` decides
the polynomial and `weighted_substitute` computes its univariate images
layer by layer, without expanding.
"""

from __future__ import annotations

from functools import cached_property
from operator import mul
from typing import Collection, Iterable, Sequence

from .algebra import (
    Field,
    Frozen,
    MatPoly,
    Monomial,
    RowSpan,
    ScalarPoly,
    mono_zero,
)
from .errors import CapabilityError, StructuralError
from .kron import WeightFn

EXPAND_CEILING = 10**6


class PointSet(Frozen):
    """Evaluation points plus a provenance record (generator and parameters).

    `points` is any sized, re-iterable family of n-tuples: a tuple, or a
    `kron.PointFamily` whose `len()` is its exact size (a generator's size
    formula, or a canonical point file's line count) and whose points are
    built only while it is iterated (a file's lines are parsed then), so a
    set is never held whole unless a caller makes it a tuple.  Duplicates
    are permitted; the exact-size count formulas of the generators are part
    of their contracts.
    """

    __match_args__ = ("n", "points", "provenance")

    def __init__(self, n: int, points: Collection[tuple], provenance: dict | None = None) -> None:
        self.__dict__.update(
            n=n, points=points, provenance={} if provenance is None else provenance
        )

    def __len__(self) -> int:
        return len(self.points)

    def __iter__(self):
        return iter(self.points)


class Roabp(Frozen):
    """Width-w layered matrix product over ordered disjoint variable blocks.

    `left_block`/`right_block` are the (possibly empty) boundary blocks; the
    boundary vectors are scalar polynomials supported only on them.
    """

    __match_args__ = (
        "field", "n", "width", "blocks", "layers",
        "left_boundary", "right_boundary", "left_block", "right_block",
    )

    def __init__(
        self,
        field: Field,
        n: int,
        width: int,
        blocks: tuple,
        layers: tuple,
        left_boundary: tuple,
        right_boundary: tuple,
        left_block: tuple = (),
        right_block: tuple = (),
    ) -> None:
        blocks = tuple(tuple(b) for b in blocks)
        self.__dict__.update(
            field=field,
            n=n,
            width=width,
            blocks=blocks,
            layers=tuple(layers),
            left_boundary=tuple(left_boundary),
            right_boundary=tuple(right_boundary),
            left_block=tuple(left_block),
            right_block=tuple(right_block),
        )
        if width < 1:
            raise StructuralError("width must be at least 1")
        if len(self.layers) != len(blocks):
            raise StructuralError("one layer per block required")
        seen: dict[int, int] = {}
        for idx, blk in enumerate([self.left_block, *blocks, self.right_block]):
            for v in blk:
                if not 0 <= v < self.n:
                    raise StructuralError(f"variable {v} out of range")
                if v in seen:
                    raise StructuralError(
                        f"blocks not disjoint: variable {v} in blocks {seen[v]} and {idx}"
                    )
                seen[v] = idx
        for i, (blk, layer) in enumerate(zip(blocks, self.layers)):
            if layer.field != self.field or layer.n != self.n or layer.w != self.width:
                raise StructuralError(f"layer {i} has mismatched field/ambient/width")
            if not layer.support_vars() <= set(blk):
                raise StructuralError(f"layer {i} uses variables outside its block")
        if len(self.left_boundary) != self.width or len(self.right_boundary) != self.width:
            raise StructuralError("boundary vectors must have length w")
        for side, blk, vec in (
            ("left", self.left_block, self.left_boundary),
            ("right", self.right_block, self.right_boundary),
        ):
            for poly in vec:
                if poly.field != self.field or poly.n != self.n:
                    raise StructuralError(f"{side} boundary entry mismatched")
                if not poly.support_vars() <= set(blk):
                    raise StructuralError(f"{side} boundary uses variables outside its block")

    # ------------------------------------------------------------------
    @classmethod
    def with_constant_boundaries(
        cls,
        field: Field,
        n: int,
        blocks: Sequence[Sequence[int]],
        layers: Sequence[MatPoly],
        left: Sequence[int],
        right: Sequence[int],
    ) -> "Roabp":
        lb = tuple(ScalarPoly.const(field, n, v) for v in left)
        rb = tuple(ScalarPoly.const(field, n, v) for v in right)
        return cls(field, n, len(left), tuple(blocks), tuple(layers), lb, rb)

    # derived parameters -------------------------------------------------
    @property
    def d(self) -> int:
        return len(self.layers)

    @cached_property
    def delta(self) -> int:
        parts = (*self.layers, *self.left_boundary, *self.right_boundary)
        return max((part.individual_degree() for part in parts), default=0)

    @cached_property
    def layer_sparsity(self) -> int:
        sps = [layer.sparsity for layer in self.layers]
        sps.append(sum(1 for _ in self._boundary_monomials(self.left_boundary)))
        sps.append(sum(1 for _ in self._boundary_monomials(self.right_boundary)))
        return max(sps, default=0)

    @cached_property
    def layer_support(self) -> int:
        parts = (*self.layers, *self.left_boundary, *self.right_boundary)
        return max((part.max_support() for part in parts), default=0)

    @staticmethod
    def _boundary_monomials(vec: Sequence[ScalarPoly]):
        monos: set[Monomial] = set()
        for poly in vec:
            monos.update(poly.terms)
        return monos

    def has_constant_boundaries(self) -> bool:
        return all(
            set(p.terms) <= {mono_zero(self.n)}
            for p in (*self.left_boundary, *self.right_boundary)
        )

    # evaluation -----------------------------------------------------------
    def evaluate(self, point: Sequence[int]) -> int:
        """left(point)^T (prod layers(point)) right(point), in one pass.

        Each part reads only the coordinates of its own block, as the
        constructor and the loader refuse a term outside it.  Each layer
        term's power product scales the row vector times its matrix, which
        is added straight into the next row, so no matrix is built."""
        if len(point) != self.n:
            raise StructuralError(f"point length {len(point)} != ambient {self.n}")
        p, w = self.field.p, self.width
        columns = range(w)

        def value(poly: ScalarPoly, block: tuple) -> int:
            total = 0
            for e, c in poly.terms.items():
                for i in block:
                    if exp := e[i]:
                        c = c * pow(point[i], exp, p) % p
                total += c
            return total % p

        row = [value(poly, self.left_block) for poly in self.left_boundary]
        for block, layer in zip(self.blocks, self.layers):
            nxt = [0] * w
            for e, m in layer.terms.items():
                v = 1
                for i in block:
                    if exp := e[i]:
                        v = v * pow(point[i], exp, p) % p
                if v:
                    for a, m_row in zip(row, m):
                        if a:
                            a *= v
                            for j in columns:
                                nxt[j] += a * m_row[j]
            row = [x % p for x in nxt]
        right = [value(poly, self.right_block) for poly in self.right_boundary]
        return sum(map(mul, row, right)) % p

    def expansion_estimate(self) -> int:
        est = 1
        for layer in self.layers:
            est *= layer.sparsity
        est *= max(1, len(self._boundary_monomials(self.left_boundary)))
        est *= max(1, len(self._boundary_monomials(self.right_boundary)))
        return est

    def expand(self, ceiling: int = EXPAND_CEILING) -> tuple[MatPoly, ScalarPoly]:
        """Brute-force oracle: the expanded matrix product and the
        boundary-contracted scalar polynomial."""
        est = self.expansion_estimate()
        if est > ceiling:
            raise CapabilityError(
                f"expansion estimate {est} exceeds the ceiling {ceiling}"
            )
        matrix_part = MatPoly.identity(self.field, self.n, self.width)
        for layer in self.layers:
            matrix_part = matrix_part * layer
        scalar_part = ScalarPoly.zero(self.field, self.n)
        for i in range(self.width):
            li = self.left_boundary[i]
            if li.is_zero():
                continue
            for j in range(self.width):
                rj = self.right_boundary[j]
                if rj.is_zero():
                    continue
                entry = matrix_part.entry(i, j)
                if not entry.is_zero():
                    scalar_part = scalar_part + li * entry * rj
        return matrix_part, scalar_part

    def weighted_substitute(self, wfn: WeightFn) -> dict[int, int]:
        """The univariate image of the computed polynomial under
        x_i -> t^(w(x_i)), as t exponent -> nonzero coefficient, computed
        layer by layer as a row of w sparse images.  The boundaries' images
        come from `WeightFn.image`; each layer monomial is weighed once and
        adds its coefficient matrix's share of the row times t^weight.
        Each layer costs O(w^2 * s * min(D + 1, S)) products, for D the
        image's degree and S the product of the sparsities so far; nothing
        is expanded."""
        if wfn.n != self.n:
            raise StructuralError("weight function ambient mismatch")
        p, w = self.field.p, self.width

        def reduced(out: dict) -> dict:
            return {e: c % p for e, c in out.items() if c % p}

        def times(row: Sequence[dict], layer: MatPoly) -> list[dict]:
            out: list[dict[int, int]] = [{} for _ in range(w)]
            for e, m in layer.terms.items():
                k = wfn.monomial_weight(e)
                for a, m_row in zip(row, m):
                    for acc, y in zip(out, m_row):
                        if y:
                            for f, x in a.items():
                                acc[f + k] = acc.get(f + k, 0) + x * y
            return [reduced(acc) for acc in out]

        def dot(row: Sequence[dict], col: Sequence[dict]) -> dict:
            out: dict[int, int] = {}
            for a, b in zip(row, col):
                for e, x in a.items():
                    for f, y in b.items():
                        out[e + f] = out.get(e + f, 0) + x * y
            return reduced(out)

        row = [wfn.image(poly.terms.items(), p) for poly in self.left_boundary]
        for layer in self.layers:
            row = times(row, layer)
        return dot(row, [wfn.image(poly.terms.items(), p) for poly in self.right_boundary])

    def is_zero(self) -> bool:
        """Whether the computed polynomial is identically zero, by span
        propagation (Raz and Shpilka, CCC 2004).

        The blocks are disjoint, so each monomial of f comes from exactly one
        tuple of boundary and layer monomials, and f = 0 iff
        u^T C_1 ... C_d v = 0 for every tuple of their coefficients.  A basis
        of at most w rows spans the products u^T C_1 ... C_i of each prefix,
        so the test costs O(d * s * w^3) and expands nothing."""
        p = self.field.p

        def coefficients(vec: Sequence[ScalarPoly]) -> list[list[int]]:
            return [[poly.coeff(m) for poly in vec] for m in self._boundary_monomials(vec)]

        def basis(rows: Iterable[Sequence[int]]) -> list[tuple[int, ...]]:
            span = RowSpan(self.field)
            for row in rows:
                span.add(row)
            return list(span.rows.values())

        rows = basis(coefficients(self.left_boundary))
        for layer in self.layers:
            rows = basis(
                [sum(row[i] * m[i][j] for i in range(self.width)) % p for j in range(self.width)]
                for row in rows
                for m in layer.terms.values()
            )
        return not any(
            sum(a * b for a, b in zip(row, col)) % p
            for row in rows
            for col in coefficients(self.right_boundary)
        )
