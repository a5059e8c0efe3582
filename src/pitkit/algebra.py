"""Exact arithmetic over a prime field.

Scalars are canonical residues in [0, p).  Matrices are immutable tuples of
row tuples.  Multivariate polynomials are sparse maps from dense exponent
tuples (length n, one entry per variable) to nonzero scalar or matrix
coefficients.  Everything here is pure and safe to share across threads.
"""

from __future__ import annotations

import math
from functools import cached_property, lru_cache
from operator import add, attrgetter
from typing import Callable, Mapping, Sequence

from .errors import CapabilityError, StructuralError

Monomial = tuple[int, ...]
Matrix = tuple[tuple[int, ...], ...]

DEFAULT_MODULUS = 10007

DET_WIDTH_LIMIT = 4
DET_TERM_CEILING = 10**6


# Strong-probable-prime tests to the first 13 prime bases are exact below
# MR_EXACT_BELOW (Sorenson and Webster, 2015).
MR_BASES = (2, 3, 5, 7, 11, 13, 17, 19, 23, 29, 31, 37, 41)
MR_EXACT_BELOW = 3317044064679887385961981


@lru_cache(maxsize=64)
def is_prime(m: int) -> bool:
    """Exact primality by deterministic Miller-Rabin; m at or above
    MR_EXACT_BELOW, where the test is no longer exact, is a CapabilityError.

    Answers are memoized, as every Field(p) asks again for its modulus;
    lru_cache stores no raised error, so the refusal raises on every call."""
    if m >= MR_EXACT_BELOW:
        raise CapabilityError(
            f"modulus {m} is not below {MR_EXACT_BELOW}, the bound of exact primality"
        )
    if m < 2:
        return False
    for q in MR_BASES:
        if m % q == 0:
            return m == q
    odd, twos = m - 1, 0
    while odd % 2 == 0:
        odd //= 2
        twos += 1
    for a in MR_BASES:
        x = pow(a, odd, m)
        if x in (1, m - 1):
            continue
        for _ in range(twos - 1):
            x = x * x % m
            if x == m - 1:
                break
        else:
            return False
    return True


class Frozen:
    """Base of pitkit's immutable value types.

    A subclass names its fields, in order, in `__match_args__`, and its
    `__init__` stores them in the instance `__dict__`.  Instances of one
    class are equal when their field tuples are, hash as that tuple, show
    as `Name(field=value, ...)` and refuse attribute assignment; a
    `cached_property` still caches, as it writes `__dict__` directly."""

    __match_args__: tuple[str, ...]

    def __init_subclass__(cls) -> None:
        get = attrgetter(*cls.__match_args__)
        # the field tuple, also of a class with one field
        one = len(cls.__match_args__) == 1
        cls._values = property((lambda self: (get(self),)) if one else get)

    def __eq__(self, other: object) -> bool:
        if other is self:
            return True
        if other.__class__ is self.__class__:
            return self._values == other._values
        return NotImplemented

    def __hash__(self) -> int:
        return hash(self._values)

    def __repr__(self) -> str:
        fields = ", ".join(f"{name}={getattr(self, name)!r}" for name in self.__match_args__)
        return f"{type(self).__qualname__}({fields})"

    def __setattr__(self, name: str, value) -> None:
        raise AttributeError(f"cannot assign to field {name!r}")

    def __delattr__(self, name: str) -> None:
        raise AttributeError(f"cannot delete field {name!r}")

    def replace(self, **changes):
        """A new instance with `changes` over this one's fields, built and
        checked by the class's own constructor."""
        return type(self)(**dict(zip(self.__match_args__, self._values), **changes))


class Field(Frozen):
    """The prime field GF(p).  Requires p prime and p > 2."""

    __match_args__ = ("p",)

    def __init__(self, p: int) -> None:
        if not is_prime(p):
            raise StructuralError(f"modulus {p} is not prime")
        if p <= 2:
            raise StructuralError(f"modulus {p} too small; need p > 2")
        self.__dict__["p"] = p

    def normalize(self, a: int) -> int:
        return a % self.p

    def inv(self, a: int) -> int:
        """Inverse of a nonzero residue."""
        a %= self.p
        if a == 0:
            raise StructuralError("0 has no inverse")
        return pow(a, -1, self.p)


def trusted(cls, **values):
    """An instance of the value type `cls` holding `values` as given,
    without running the checks and normalization of its `__init__`.  Only for
    values a caller has already checked and put in the canonical form that
    `cls(...)` would build: a loader that validated its input in one pass,
    or arithmetic whose results are canonical by construction."""
    obj = object.__new__(cls)
    obj.__dict__.update(values)
    return obj


# ---------------------------------------------------------------------------
# monomials


def mono_zero(n: int) -> Monomial:
    return (0,) * n


def mono_mul(e1: Monomial, e2: Monomial) -> Monomial:
    return tuple(map(add, e1, e2))


def mono_support(e: Monomial) -> tuple[int, ...]:
    return tuple(i for i, v in enumerate(e) if v)


def mono_support_size(e: Monomial) -> int:
    return len(e) - e.count(0)


# ---------------------------------------------------------------------------
# matrices (tuples of row tuples, residues)


def mat_zero(w: int) -> Matrix:
    return tuple((0,) * w for _ in range(w))


def mat_identity(w: int) -> Matrix:
    return tuple(tuple(1 if i == j else 0 for j in range(w)) for i in range(w))


def mat_normalize(rows: Sequence[Sequence[int]], field: Field) -> Matrix:
    return tuple(tuple(field.normalize(v) for v in row) for row in rows)


def mat_add(a: Matrix, b: Matrix, field: Field) -> Matrix:
    p = field.p
    return tuple(tuple((x + y) % p for x, y in zip(ra, rb)) for ra, rb in zip(a, b))


def mat_scale(a: Matrix, c: int, field: Field) -> Matrix:
    p = field.p
    c %= p
    return tuple(tuple((x * c) % p for x in row) for row in a)


def mat_mul(a: Matrix, b: Matrix, field: Field) -> Matrix:
    """Matrix product, skipping zero entries (lane matrices are very sparse)."""
    p = field.p
    w = len(a)
    out = [[0] * w for _ in range(w)]
    for i in range(w):
        row = a[i]
        acc = out[i]
        for k in range(w):
            aik = row[k]
            if aik:
                brow = b[k]
                for j in range(w):
                    bkj = brow[j]
                    if bkj:
                        acc[j] = (acc[j] + aik * bkj) % p
    return tuple(tuple(r) for r in out)


def mat_is_zero(a: Matrix) -> bool:
    return all(all(v == 0 for v in row) for row in a)


def mat_flatten(a: Matrix) -> tuple[int, ...]:
    return tuple(v for row in a for v in row)


def mat_det(a: Matrix, field: Field) -> int:
    """Numeric determinant by Gaussian elimination over GF(p)."""
    p = field.p
    w = len(a)
    m = [list(row) for row in a]
    det = 1
    for col in range(w):
        pivot = next((r for r in range(col, w) if m[r][col]), None)
        if pivot is None:
            return 0
        if pivot != col:
            m[col], m[pivot] = m[pivot], m[col]
            det = (-det) % p
        inv = field.inv(m[col][col])
        det = (det * m[col][col]) % p
        for r in range(col + 1, w):
            if m[r][col]:
                factor = (m[r][col] * inv) % p
                m[r] = [(x - factor * y) % p for x, y in zip(m[r], m[col])]
    return det


# ---------------------------------------------------------------------------
# row spans


class RowSpan:
    """Incremental row space over GF(p), kept in reduced echelon form."""

    def __init__(self, field: Field):
        self.field = field
        self.rows: dict[int, tuple[int, ...]] = {}

    def _reduce(self, vec: Sequence[int]) -> list[int]:
        p = self.field.p
        v = [x % p for x in vec]
        for pivot, row in self.rows.items():
            c = v[pivot]
            if c:
                v = [(x - c * y) % p for x, y in zip(v, row)]
        return v

    def add(self, vec: Sequence[int]) -> bool:
        """Add vec to the span.  Returns True iff it was independent."""
        v = self._reduce(vec)
        pivot = next((i for i, x in enumerate(v) if x), None)
        if pivot is None:
            return False
        inv = self.field.inv(v[pivot])
        p = self.field.p
        self.rows[pivot] = tuple((x * inv) % p for x in v)
        return True


# ---------------------------------------------------------------------------
# sparse polynomials


def _check_exponent(e: Monomial, n: int) -> None:
    if len(e) != n:
        raise StructuralError(f"exponent {e} has length {len(e)}, ambient is {n}")
    if any(v < 0 for v in e):
        raise StructuralError(f"negative exponent in {e}")


class TermMap(Frozen):
    """Base of the sparse polynomial types: `terms` maps each length-n
    exponent tuple of nonnegative entries to a nonzero coefficient, and the
    queries here read only its keys."""

    __match_args__ = ("field", "n", "terms")

    def is_zero(self) -> bool:
        return not self.terms

    @property
    def sparsity(self) -> int:
        return len(self.terms)

    def individual_degree(self) -> int:
        return max(map(max, self.terms), default=0)

    def max_support(self) -> int:
        return max(map(mono_support_size, self.terms), default=0)

    def support_vars(self) -> frozenset[int]:
        out: set[int] = set()
        for e in self.terms:
            out.update(mono_support(e))
        return frozenset(out)


def _canonical_terms(
    terms: Mapping[Monomial, int], n: int, field: Field
) -> dict[Monomial, int]:
    out: dict[Monomial, int] = {}
    for e, c in terms.items():
        _check_exponent(e, n)
        c = field.normalize(c)
        if c:
            out[tuple(e)] = c
    return out


def _add_product(
    acc: dict[Monomial, int], t1: Mapping[Monomial, int], t2: Mapping[Monomial, int], sign: int = 1
) -> None:
    """Add sign * t1 * t2 to the term map acc, whose sums are left unreduced."""
    for e1, c1 in t1.items():
        c1 *= sign
        for e2, c2 in t2.items():
            e = tuple(map(add, e1, e2))  # mono_mul, inlined
            acc[e] = acc.get(e, 0) + c1 * c2


def _reduced(acc: dict[Monomial, int], p: int) -> dict[Monomial, int]:
    """The nonzero residues of acc's sums, each reduced once."""
    return {e: r for e, c in acc.items() if (r := c % p)}


class ScalarPoly(TermMap):
    """Sparse polynomial in n variables with GF(p) coefficients.

    No zero coefficients are stored; treat instances as immutable.
    """

    def __init__(self, field: Field, n: int, terms: dict) -> None:
        self.__dict__.update(field=field, n=n, terms=_canonical_terms(terms, n, field))

    # constructors ---------------------------------------------------------
    @classmethod
    def _canonical(cls, field: Field, n: int, terms: dict) -> "ScalarPoly":
        """Wrap terms already in canonical form (length-n tuples of
        nonnegative exponents, nonzero residues mod p) without re-checking
        them: the arithmetic below builds only such dicts."""
        return trusted(cls, field=field, n=n, terms=terms)

    @classmethod
    def zero(cls, field: Field, n: int) -> "ScalarPoly":
        return cls(field, n, {})

    @classmethod
    def const(cls, field: Field, n: int, value: int) -> "ScalarPoly":
        return cls(field, n, {mono_zero(n): value})

    # queries --------------------------------------------------------------
    def total_degree(self) -> int:
        return max((sum(e) for e in self.terms), default=0)

    def coeff(self, e: Monomial) -> int:
        return self.terms.get(tuple(e), 0)

    # arithmetic -----------------------------------------------------------
    def _check_compatible(self, other: "ScalarPoly") -> None:
        if self.field != other.field or self.n != other.n:
            raise StructuralError("polynomial field/ambient mismatch")

    def __add__(self, other: "ScalarPoly") -> "ScalarPoly":
        self._check_compatible(other)
        out = dict(self.terms)
        p = self.field.p
        for e, c in other.terms.items():
            s = (out.get(e, 0) + c) % p
            if s:
                out[e] = s
            else:
                out.pop(e, None)
        return ScalarPoly._canonical(self.field, self.n, out)

    def __neg__(self) -> "ScalarPoly":
        p = self.field.p
        return ScalarPoly._canonical(
            self.field, self.n, {e: (-c) % p for e, c in self.terms.items()}
        )

    def __mul__(self, other: "ScalarPoly") -> "ScalarPoly":
        self._check_compatible(other)
        out: dict[Monomial, int] = {}
        _add_product(out, self.terms, other.terms)
        return ScalarPoly._canonical(self.field, self.n, _reduced(out, self.field.p))

    def eval_at(self, point: Sequence[int]) -> int:
        """Exact evaluation by per-term power products."""
        if len(point) != self.n:
            raise StructuralError(f"point length {len(point)} != ambient {self.n}")
        p = self.field.p
        total = 0
        for e, c in self.terms.items():
            for x, exp in zip(point, e):
                if exp:
                    c = c * pow(x, exp, p) % p
            total += c
        return total % p

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        return f"ScalarPoly(n={self.n}, terms={len(self.terms)})"


# ---------------------------------------------------------------------------
# matrix-coefficient polynomials


def _canonical_mat_terms(
    terms: Mapping[Monomial, Matrix], n: int, w: int, field: Field
) -> dict[Monomial, Matrix]:
    out: dict[Monomial, Matrix] = {}
    for e, m in terms.items():
        _check_exponent(e, n)
        if len(m) != w or any(len(row) != w for row in m):
            raise StructuralError(f"coefficient of {e} is not {w}x{w}")
        mm = mat_normalize(m, field)
        if not mat_is_zero(mm):
            out[tuple(e)] = mm
    return out


class MatPoly(TermMap):
    """Sparse polynomial in n variables with w-by-w matrix coefficients."""

    __match_args__ = ("field", "n", "w", "terms")

    def __init__(self, field: Field, n: int, w: int, terms: dict) -> None:
        if w < 1:
            raise StructuralError("width must be at least 1")
        self.__dict__.update(field=field, n=n, w=w, terms=_canonical_mat_terms(terms, n, w, field))

    @classmethod
    def _canonical(cls, field: Field, n: int, w: int, terms: dict) -> "MatPoly":
        """Wrap terms already in canonical form (length-n exponent tuples,
        nonzero w-by-w matrices of residues mod p) without re-checking them:
        the arithmetic below builds only such dicts."""
        return trusted(cls, field=field, n=n, w=w, terms=terms)

    @classmethod
    def zero(cls, field: Field, n: int, w: int) -> "MatPoly":
        return cls(field, n, w, {})

    @classmethod
    def constant(cls, field: Field, n: int, matrix: Sequence[Sequence[int]]) -> "MatPoly":
        return cls(field, n, len(matrix), {mono_zero(n): tuple(tuple(r) for r in matrix)})

    @classmethod
    def identity(cls, field: Field, n: int, w: int) -> "MatPoly":
        return cls.constant(field, n, mat_identity(w))

    @classmethod
    def from_entries(cls, grid: Sequence[Sequence[ScalarPoly]]) -> "MatPoly":
        """Assemble from a square grid of scalar polynomials."""
        w = len(grid)
        if any(len(row) != w for row in grid):
            raise StructuralError("entry grid is not square")
        field = grid[0][0].field
        n = grid[0][0].n
        terms: dict[Monomial, list[list[int]]] = {}
        for i, row in enumerate(grid):
            for j, poly in enumerate(row):
                if poly.field != field or poly.n != n:
                    raise StructuralError("entry grid mixes fields or ambients")
                for e, c in poly.terms.items():
                    m = terms.setdefault(e, [[0] * w for _ in range(w)])
                    m[i][j] = c
        return cls(field, n, w, {e: tuple(tuple(r) for r in m) for e, m in terms.items()})

    # queries --------------------------------------------------------------
    def coeff(self, e: Monomial) -> Matrix:
        return self.terms.get(tuple(e), mat_zero(self.w))

    def constant_term(self) -> Matrix:
        return self.coeff(mono_zero(self.n))

    def entry(self, i: int, j: int) -> ScalarPoly:
        terms = {e: m[i][j] for e, m in self.terms.items() if m[i][j]}
        return ScalarPoly._canonical(self.field, self.n, terms)

    def entry_grid(self) -> list[list[ScalarPoly]]:
        return [[self.entry(i, j) for j in range(self.w)] for i in range(self.w)]

    # arithmetic -----------------------------------------------------------
    def _check_compatible(self, other: "MatPoly") -> None:
        if self.field != other.field:
            raise StructuralError("modulus mismatch between matrix polynomials")
        if self.w != other.w:
            raise StructuralError(f"width mismatch: {self.w} vs {other.w}")
        if self.n != other.n:
            raise StructuralError("ambient variable count mismatch")

    def __mul__(self, other: "MatPoly") -> "MatPoly":
        self._check_compatible(other)
        out: dict[Monomial, Matrix] = {}
        for e1, m1 in self.terms.items():
            for e2, m2 in other.terms.items():
                e = mono_mul(e1, e2)
                prod = mat_mul(m1, m2, self.field)
                if e in out:
                    s = mat_add(out[e], prod, self.field)
                    if mat_is_zero(s):
                        del out[e]
                    else:
                        out[e] = s
                elif not mat_is_zero(prod):
                    out[e] = prod
        return MatPoly._canonical(self.field, self.n, self.w, out)

    def scale(self, c: int) -> "MatPoly":
        c = self.field.normalize(c)
        if c == 0:
            return MatPoly.zero(self.field, self.n, self.w)
        return MatPoly._canonical(
            self.field, self.n, self.w,
            {e: mat_scale(m, c, self.field) for e, m in self.terms.items()},
        )

    @cached_property
    def det(self) -> ScalarPoly:
        """The symbolic determinant, `det_poly` of the entry grid, computed
        once per matrix polynomial.  Whether it is nonzero is mostly decided
        without it: see `is_singular`."""
        return det_poly(self.entry_grid())

    @cached_property
    def _det_at_ones(self) -> int:
        """The determinant at the all-ones point, of the sum of the
        coefficient matrices, computed once per matrix polynomial."""
        p = self.field.p
        ones = [[sum(col) % p for col in zip(*rows)] for rows in zip(*self.terms.values())]
        return mat_det(ones, self.field) if ones else 0

    @cached_property
    def _det_term_bound(self) -> int:
        """The product of the rows' monomial counts, the determinant's term
        bound, counted once per matrix polynomial."""
        return math.prod(sum(1 for m in self.terms.values() if any(m[i])) for i in range(self.w))

    def invertible_at_ones(self) -> bool:
        """Whether the matrix at the all-ones point is invertible, after
        the determinant's refusals (`_det_refusals`), asked on every call
        against the limits as they stand."""
        _det_refusals(self.w, lambda: self._det_term_bound)
        return self._det_at_ones != 0

    def is_singular(self) -> bool:
        """Whether the determinant is the zero polynomial: no when the
        matrix is invertible at the all-ones point, which one numeric
        determinant decides; only when it is not is the symbolic `det`
        expanded."""
        return not self.invertible_at_ones() and self.det.is_zero()

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        return f"MatPoly(n={self.n}, w={self.w}, terms={len(self.terms)})"


# ---------------------------------------------------------------------------
# symbolic determinant


def _det_refusals(w: int, term_bound: Callable[[], int]) -> None:
    """The determinant's up-front refusals for a width-w grid: a width past
    DET_WIDTH_LIMIT, and, from width 2, a term bound (the product of the
    rows' distinct monomial counts) past DET_TERM_CEILING.  The bound is
    asked for only when the width check passes."""
    if w > DET_WIDTH_LIMIT:
        raise CapabilityError(
            f"determinant width {w} exceeds the configured limit {DET_WIDTH_LIMIT}"
        )
    if w > 1:
        count = term_bound()
        if count > DET_TERM_CEILING:
            raise CapabilityError(
                f"determinant of up to {count} terms exceeds the ceiling {DET_TERM_CEILING}"
            )


def det_poly(grid: Sequence[Sequence[ScalarPoly]]) -> ScalarPoly:
    """Symbolic determinant of a square grid of scalar polynomials.

    Each of the determinant's terms takes one monomial from every row, so
    it has at most the product of the rows' monomial counts (distinct
    monomials over a row's entries) terms; past DET_TERM_CEILING a grid of
    width 2 or more is refused before any product, as is a width past
    DET_WIDTH_LIMIT.  For a matrix polynomial with s monomials the count
    is at most s^w.

    The expansion runs row by row.  The minors on the first k rows are kept
    per set of columns they use (a bit mask), each a map from exponent tuple
    to int coefficient, so each minor is built once; row k + 1 extends them
    by its monomials.  Taking column j adds as many inversions as there are
    used columns right of j, which sets the sign.  Coefficients are reduced
    mod p once per row.
    """
    w = len(grid)
    if w == 0:
        raise StructuralError("empty grid")
    if any(len(row) != w for row in grid):
        raise StructuralError("grid is not square")
    _det_refusals(
        w, lambda: math.prod(len({e for entry in row for e in entry.terms}) for row in grid)
    )
    field = grid[0][0].field
    n = grid[0][0].n
    for row in grid:
        for entry in row:
            if entry.field != field or entry.n != n:
                raise StructuralError("grid mixes fields or ambients")
    if w == 1:
        return grid[0][0]
    p = field.p
    # the first row's minors are its entries, all of sign +1
    minors = {1 << j: entry.terms for j, entry in enumerate(grid[0]) if entry.terms}
    for row in grid[1:]:
        wider: dict[int, dict[Monomial, int]] = {}
        for used, minor in minors.items():
            for j, entry in enumerate(row):
                if used >> j & 1 or not entry.terms:
                    continue
                sign = -1 if (used >> j).bit_count() & 1 else 1
                _add_product(wider.setdefault(used | 1 << j, {}), entry.terms, minor, sign)
        minors = {used: _reduced(acc, p) for used, acc in wider.items()}
    return ScalarPoly._canonical(field, n, minors.get((1 << w) - 1, {}))
