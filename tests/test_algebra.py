"""Field, matrix, polynomial, rank, and determinant kernels."""

import itertools
import math
import random

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from pitkit import algebra
from pitkit.algebra import (
    Field,
    MatPoly,
    ScalarPoly,
    det_poly,
    mat_det,
    mat_identity,
    mat_mul,
    is_prime,
    MR_EXACT_BELOW,
)
from pitkit.errors import CapabilityError, StructuralError
from reference import (
    det_cofactor,
    mat_eval_at,
    rank_over_field,
    shift_mat,
    shift_scalar,
    variable,
)

F7 = Field(7)
F101 = Field(101)
F = Field(10007)


def random_scalar_poly(rnd, field, n, s, delta):
    terms = {}
    for _ in range(s):
        e = tuple(rnd.randint(0, delta) for _ in range(n))
        terms[e] = rnd.randint(0, field.p - 1)
    return ScalarPoly(field, n, terms)


def random_mat_poly(rnd, field, n, w, s, delta, variables=None):
    terms = {}
    for _ in range(s):
        e = [0] * n
        for v in variables if variables is not None else range(n):
            e[v] = rnd.randint(0, delta)
        terms[tuple(e)] = tuple(
            tuple(rnd.randint(0, field.p - 1) for _ in range(w)) for _ in range(w)
        )
    return MatPoly(field, n, w, terms)


# ---------------------------------------------------------------------------
# field


def test_field_requires_odd_prime():
    with pytest.raises(StructuralError):
        Field(6)
    with pytest.raises(StructuralError):
        Field(2)
    assert Field(3).p == 3


def test_is_prime_matches_trial_division():
    def by_trial_division(m):
        return m >= 2 and all(m % f for f in range(2, math.isqrt(m) + 1))

    assert [m for m in range(10**5) if is_prime(m)] == [
        m for m in range(10**5) if by_trial_division(m)
    ]


@pytest.mark.parametrize(
    "m", [2047, 3215031751, 3825123056546413051, 318665857834031151167461]
)
def test_is_prime_rejects_strong_pseudoprimes(m):
    # strong pseudoprimes to all prime bases up to 2, 7, 23 and 37 in turn
    assert not is_prime(m)


def test_moduli_past_exact_primality_are_a_capability_error():
    assert is_prime(2**61 - 1)
    for m in (MR_EXACT_BELOW, 2**89 - 1, 2**90):
        with pytest.raises(CapabilityError, match=str(MR_EXACT_BELOW)):
            Field(m)


def test_inverse_extended_euclid():
    for a in range(1, 7):
        assert (a * F7.inv(a)) % 7 == 1
    with pytest.raises(StructuralError):
        F7.inv(0)


# ---------------------------------------------------------------------------
# matrix-polynomial product


def test_poly_mul_identity_coefficients():
    eye = mat_identity(2)
    a = MatPoly(F7, 2, 2, {(1, 0): eye})
    b = MatPoly(F7, 2, 2, {(0, 1): eye})
    prod = a * b
    assert prod.terms == {(1, 1): eye}


def test_poly_mul_zero_annihilates():
    rnd = random.Random(0)
    b = random_mat_poly(rnd, F7, 2, 2, 3, 2)
    zero = MatPoly.zero(F7, 2, 2)
    assert (zero * b).is_zero()


def naive_matpoly_mul(a, b):
    """Brute-force convolution: iterate every exponent pair explicitly."""
    out = {}
    p = a.field.p
    w = a.w
    for e1 in a.terms:
        for e2 in b.terms:
            e = tuple(x + y for x, y in zip(e1, e2))
            m1, m2 = a.terms[e1], b.terms[e2]
            prod = [
                [sum(m1[i][k] * m2[k][j] for k in range(w)) % p for j in range(w)]
                for i in range(w)
            ]
            if e in out:
                out[e] = [
                    [(out[e][i][j] + prod[i][j]) % p for j in range(w)]
                    for i in range(w)
                ]
            else:
                out[e] = prod
    return {
        e: tuple(tuple(row) for row in m)
        for e, m in out.items()
        if any(any(row) for row in m)
    }


def test_poly_mul_disjoint_matches_bruteforce():
    rnd = random.Random(1)
    for _ in range(30):
        a = random_mat_poly(rnd, F101, 4, 2, 3, 2, variables=[0, 1])
        b = random_mat_poly(rnd, F101, 4, 2, 3, 2, variables=[2, 3])
        assert (a * b).terms == naive_matpoly_mul(a, b)
        # disjoint variables: each product coefficient has a unique factorization
        prod = a * b
        for e in prod.terms:
            e1 = tuple(v if i < 2 else 0 for i, v in enumerate(e))
            e2 = tuple(v if i >= 2 else 0 for i, v in enumerate(e))
            assert prod.terms[e] == mat_mul(a.terms[e1], b.terms[e2], F101)


def test_poly_mul_mismatch_errors():
    a = MatPoly.identity(F7, 2, 2)
    with pytest.raises(StructuralError):
        a * MatPoly.identity(F7, 2, 3)
    with pytest.raises(StructuralError):
        a * MatPoly.identity(Field(11), 2, 2)


@pytest.mark.parametrize("build", [
    lambda e: ScalarPoly(F7, 2, {e: 1}),
    lambda e: MatPoly(F7, 2, 1, {e: ((1,),)}),
], ids=["scalar", "matrix"])
@pytest.mark.parametrize("e, message", [
    ((-1, 0), "negative exponent in (-1, 0)"),
    ((1,), "exponent (1,) has length 1, ambient is 2"),
])
def test_both_polynomial_types_refuse_the_same_exponents(build, e, message):
    # a negative exponent would make x^-1 evaluate as a modular inverse
    with pytest.raises(StructuralError) as exc:
        build(e)
    assert str(exc.value) == message


@settings(max_examples=50, deadline=None)
@given(st.integers(0, 2**30))
def test_ring_laws_on_random_triples(seed):
    rnd = random.Random(seed)
    a = random_mat_poly(rnd, F101, 3, 2, 2, 1)
    b = random_mat_poly(rnd, F101, 3, 2, 2, 1)
    c = random_mat_poly(rnd, F101, 3, 2, 2, 1)
    assert (a * b) * c == a * (b * c)


# ---------------------------------------------------------------------------
# rank


def test_rank_examples():
    assert rank_over_field([(1, 0), (0, 1), (1, 1)], F7) == 2
    assert rank_over_field([], F7) == 0


def test_rank_ragged_errors():
    with pytest.raises(StructuralError):
        rank_over_field([(1, 0), (0, 1, 1)], F7)


def bruteforce_rank(vectors, field):
    """Largest independent subset, independence by square-submatrix
    determinants."""
    count = len(vectors)
    if count == 0:
        return 0
    k = len(vectors[0])
    for r in range(min(count, k), 0, -1):
        for rows in itertools.combinations(range(count), r):
            for cols in itertools.combinations(range(k), r):
                sub = tuple(
                    tuple(vectors[i][j] for j in cols) for i in rows
                )
                if mat_det(sub, field) != 0:
                    return r
    return 0


def test_rank_matches_bruteforce():
    rnd = random.Random(2)
    for _ in range(25):
        vecs = [tuple(rnd.randint(0, 100) for _ in range(4)) for _ in range(5)]
        assert rank_over_field(vecs, F101) == bruteforce_rank(vecs, F101)


@settings(max_examples=50, deadline=None)
@given(st.integers(0, 2**30))
def test_rank_permutation_invariant_and_bounded(seed):
    rnd = random.Random(seed)
    vecs = [tuple(rnd.randint(0, 6) for _ in range(3)) for _ in range(rnd.randint(1, 5))]
    rank = rank_over_field(vecs, F7)
    assert rank <= min(len(vecs), 3)
    shuffled = vecs[:]
    rnd.shuffle(shuffled)
    assert rank_over_field(shuffled, F7) == rank


# ---------------------------------------------------------------------------
# det_poly


def test_det_poly_examples():
    x1 = variable(F7, 1, 0)
    one = ScalarPoly.const(F7, 1, 1)
    det = det_poly([[x1, one], [one, x1]])
    assert det == x1 * x1 + -one
    eye = [[one, ScalarPoly.zero(F7, 1)], [ScalarPoly.zero(F7, 1), one]]
    assert det_poly(eye) == one


def test_det_poly_width_limit():
    one = ScalarPoly.const(F7, 1, 1)
    grid = [[one] * 5 for _ in range(5)]
    with pytest.raises(CapabilityError):
        det_poly(grid)


def test_det_poly_matches_numeric_determinant():
    # a matrix polynomial with s monomials has sp(det) <= s^w
    rnd = random.Random(3)
    for _ in range(10):
        mp = random_mat_poly(rnd, F101, 2, 2, 2, 1)
        grid = mp.entry_grid()
        det = det_poly(grid)
        assert det.sparsity <= mp.sparsity**2
        for _ in range(20):
            pt = [rnd.randint(0, 100) for _ in range(2)]
            numeric = tuple(
                tuple(entry.eval_at(pt) for entry in row) for row in grid
            )
            assert det.eval_at(pt) == mat_det(numeric, F101)


def test_det_poly_matches_numeric_on_general_grids():
    rnd = random.Random(13)
    for _ in range(10):
        grid = [
            [random_scalar_poly(rnd, F101, 2, 2, 1) for _ in range(2)]
            for _ in range(2)
        ]
        det = det_poly(grid)
        for _ in range(20):
            pt = [rnd.randint(0, 100) for _ in range(2)]
            numeric = tuple(
                tuple(entry.eval_at(pt) for entry in row) for row in grid
            )
            assert det.eval_at(pt) == mat_det(numeric, F101)


DET_PRIMES = [3, 5, 10007, 2**31 - 1, 2**61 - 1]


@pytest.mark.parametrize("p", DET_PRIMES)
def test_det_poly_matches_the_cofactor_expansion(p):
    # entries of a matrix polynomial with s monomials, and independent
    # entries of up to s terms each; p = 3 and 5 make many sums cancel
    field = Field(p)
    rnd = random.Random(p)
    for w in range(1, 5):
        for s in range(1, 6):
            grids = [
                random_mat_poly(rnd, field, 3, w, s, 2).entry_grid(),
                [
                    [random_scalar_poly(rnd, field, 3, rnd.randint(0, s), 2) for _ in range(w)]
                    for _ in range(w)
                ],
            ]
            for grid in grids:
                assert det_poly(grid) == det_cofactor(grid), (w, s)


@pytest.mark.parametrize("p", DET_PRIMES)
def test_det_poly_of_zero_singular_and_single_term_grids(p):
    field = Field(p)
    rnd = random.Random(p + 1)
    zero = ScalarPoly.zero(field, 3)
    for w in range(1, 5):
        assert det_poly([[zero] * w for _ in range(w)]).is_zero()
        # a single term e with matrix M has determinant det(M) x^(w e)
        e = tuple(rnd.randint(0, 2) for _ in range(3))
        m = tuple(tuple(rnd.randrange(p) for _ in range(w)) for _ in range(w))
        value = mat_det(m, field)
        single = det_poly(MatPoly(field, 3, w, {e: m}).entry_grid())
        assert single.terms == ({tuple(w * v for v in e): value} if value else {})
        if w == 1:
            continue
        # a repeated row, and the rank-one grid column * row
        rows = [[random_scalar_poly(rnd, field, 3, 3, 2) for _ in range(w)] for _ in range(w)]
        assert det_poly(rows[:-1] + rows[:1]).is_zero()
        col, row = rows[0], rows[1]
        assert det_poly([[c * r for r in row] for c in col]).is_zero()


def test_det_poly_refuses_past_its_limits_before_any_product(monkeypatch):
    one = ScalarPoly.const(F7, 1, 1)
    with pytest.raises(CapabilityError, match="determinant width 5 exceeds the configured limit 4"):
        det_poly([[one] * 5 for _ in range(5)])
    # 32 distinct monomials over each row of a width-4 grid: up to 32^4 terms
    wide = ScalarPoly(F7, 5, {e: 1 for e in itertools.product(range(2), repeat=5)})
    zero = ScalarPoly.zero(F7, 5)
    grid = [[wide if i == j else zero for j in range(4)] for i in range(4)]

    def no_product(*args):
        raise AssertionError("the ceiling is checked before any product")

    monkeypatch.setattr(ScalarPoly, "__mul__", no_product)
    with pytest.raises(
        CapabilityError, match="determinant of up to 1048576 terms exceeds the ceiling 1000000"
    ):
        det_poly(grid)
    monkeypatch.undo()
    # the count is the product of the rows' distinct monomials, wherever
    # in the row they sit: here 2 * 2, at and past the ceiling
    x, y, c = variable(F7, 2, 0), variable(F7, 2, 1), ScalarPoly.const(F7, 2, 1)
    grid = [[x, y], [c, x + c]]
    monkeypatch.setattr(algebra, "DET_TERM_CEILING", 4)
    assert det_poly(grid) == det_cofactor(grid)
    monkeypatch.setattr(algebra, "DET_TERM_CEILING", 3)
    with pytest.raises(CapabilityError, match="determinant of up to 4 terms exceeds the ceiling 3"):
        det_poly(grid)


# ---------------------------------------------------------------------------
# evaluation


def test_eval_examples():
    x1 = variable(F7, 2, 0)
    x2 = variable(F7, 2, 1)
    f = x1 * x2 + ScalarPoly.const(F7, 2, 3)
    assert f.eval_at([2, 3]) == 2
    assert ScalarPoly.zero(F7, 2).eval_at([5, 5]) == 0


def second_evaluator(poly, point):
    """Term-by-term sum with repeated multiplication instead of pow."""
    total = 0
    for e, c in poly.terms.items():
        v = c
        for i, exp in enumerate(e):
            for _ in range(exp):
                v = (v * point[i]) % poly.field.p
        total = (total + v) % poly.field.p
    return total


def test_eval_matches_second_evaluator():
    rnd = random.Random(4)
    for _ in range(25):
        f = random_scalar_poly(rnd, F101, 3, 5, 3)
        pt = [rnd.randint(0, 100) for _ in range(3)]
        assert f.eval_at(pt) == second_evaluator(f, pt)


def test_matrix_eval_is_the_entrywise_scalar_eval():
    # points past p and below 0 included, on entries that use every
    # variable and on block-local ones
    rnd = random.Random(6)
    for w in (1, 2, 3):
        for variables in (None, [1, 3]):
            f = random_mat_poly(rnd, F101, 5, w, 4, 3, variables)
            pt = [rnd.randint(-300, 300) for _ in range(5)]
            assert mat_eval_at(f, pt) == tuple(
                tuple(second_evaluator(f.entry(i, j), [v % 101 for v in pt]) for j in range(w))
                for i in range(w)
            )
            assert f.entry(0, 0).eval_at(pt) == mat_eval_at(f, pt)[0][0]
    with pytest.raises(StructuralError, match="width must be at least 1"):
        MatPoly.zero(F101, 2, 0)


@settings(max_examples=40, deadline=None)
@given(st.integers(0, 2**30))
def test_eval_distributes_over_mul(seed):
    rnd = random.Random(seed)
    a = random_mat_poly(rnd, F101, 3, 2, 2, 1)
    b = random_mat_poly(rnd, F101, 3, 2, 2, 1)
    pt = [rnd.randint(0, 100) for _ in range(3)]
    assert mat_eval_at(a * b, pt) == mat_mul(mat_eval_at(a, pt), mat_eval_at(b, pt), F101)


def test_shifted_constant_term_is_the_value_at_the_offsets():
    # the constant term of f(x + a) is f(a), for matrix coefficients too
    rnd = random.Random(8)
    for _ in range(20):
        f = random_mat_poly(rnd, F101, 3, 2, 4, 2)
        offs = [rnd.randint(0, 100) for _ in range(3)]
        assert shift_mat(f, offs).constant_term() == mat_eval_at(f, offs)


def test_shift_is_translation():
    rnd = random.Random(6)
    f = random_scalar_poly(rnd, F101, 3, 4, 2)
    offs = [rnd.randint(0, 100) for _ in range(3)]
    g = shift_scalar(f, offs)
    for _ in range(20):
        pt = [rnd.randint(0, 100) for _ in range(3)]
        moved = [(a + b) % 101 for a, b in zip(pt, offs)]
        assert g.eval_at(pt) == f.eval_at(moved)
