"""Exact linear algebra over Q and F_p: fields are characteristics, and every
routine agrees with sympy's ``DomainMatrix`` on seeded random matrices."""

import random
from fractions import Fraction

import pytest

from quiveralg.errors import PreconditionError
from quiveralg.linalg import GF, QQ, in_span, mat_inverse, mat_mul, mat_vec, reduce, rref

FIELDS = (QQ, 2, 3, 5, 7)


def test_fields_are_characteristics():
    assert QQ == 0
    assert [GF(p) for p in (2, 3, 5, 7, 101)] == [2, 3, 5, 7, 101]


def test_gf_primality_is_fast_for_large_primes():
    assert GF(1_000_000_000_039) == 1_000_000_000_039
    with pytest.raises(PreconditionError, match="is not prime"):
        GF(1_000_003 * 1_000_033)


@pytest.mark.parametrize("p", [0, 1, 4, -3, 9, 91])
def test_gf_rejects_non_primes(p):
    with pytest.raises(PreconditionError, match=f"{p} is not prime"):
        GF(p)


def test_inverse_edge_cases():
    assert mat_inverse(QQ, ()) == ()
    assert mat_inverse(5, ((2,),)) == ((3,),)
    with pytest.raises(ZeroDivisionError):
        mat_inverse(QQ, ((1, 2), (2, 4)))
    with pytest.raises(ZeroDivisionError):
        mat_inverse(3, ((1, 1), (2, 2)))
    with pytest.raises(PreconditionError):
        mat_inverse(QQ, ((1, 2),))
    with pytest.raises(PreconditionError):
        mat_mul(QQ, ((1, 2),), ((1, 2),))


# ------------------------------------------------------- sympy differential
#
# sympy's DomainMatrix over QQ and GF(p) is the independent oracle: the King
# search and its reference in test_scattering both run on ``linalg``.


def _element(rng, p):
    if rng.random() < 0.4:
        return 0 if p else Fraction(0)
    if p:
        return rng.randrange(p)
    return Fraction(rng.randint(-4, 4), rng.randint(1, 3))


def _matrix(rng, p, n, m):
    """An n x m matrix, often of lower rank: some rows are combinations of
    earlier ones."""
    rows = []
    for _ in range(n):
        if rows and rng.random() < 0.3:
            a, b = rng.choice(rows), rng.choice(rows)
            s, t = _element(rng, p), _element(rng, p)
            row = [s * x + t * y for x, y in zip(a, b)]
            rows.append(tuple(x % p for x in row) if p else tuple(row))
        else:
            rows.append(tuple(_element(rng, p) for _ in range(m)))
    return tuple(rows)


class Oracle:
    def __init__(self, p):
        sympy = pytest.importorskip("sympy")
        from sympy.polys.matrices import DomainMatrix

        self.p = p
        self.K = sympy.GF(p) if p else sympy.QQ
        self.DM = DomainMatrix

    def dm(self, rows, ncols):
        return self.DM([[self.K.convert(x) for x in r] for r in rows], (len(rows), ncols), self.K)

    def value(self, x):
        if self.p:
            return int(self.K.to_int(x)) % self.p
        return Fraction(int(x.numerator), int(x.denominator))

    def rows(self, M):
        return tuple(tuple(self.value(x) for x in r) for r in M.to_list())

    def rank(self, rows, ncols):
        return self.dm(rows, ncols).rank() if rows else 0


@pytest.mark.parametrize("p", FIELDS)
def test_rref_reduce_and_span_match_sympy(p):
    oracle = Oracle(p)
    rng = random.Random(f"linalg-rref:{p}")
    for _ in range(150):
        n, m = rng.randint(0, 5), rng.randint(0, 5)
        A = _matrix(rng, p, n, m)
        rows, pivots = rref(p, A)
        R, want_pivots = oracle.dm(A, m).rref()
        want = oracle.rows(R)
        assert pivots == tuple(want_pivots)
        assert rows == want[: len(pivots)]
        assert not any(any(r) for r in want[len(pivots) :])
        rank = len(pivots)
        for _ in range(4):
            if A and rng.random() < 0.5:
                coeffs = [_element(rng, p) for _ in A]
                v = [sum((c * r[j] for c, r in zip(coeffs, A)), Fraction(0)) for j in range(m)]
                v = tuple(int(x) % p for x in v) if p else tuple(v)
            else:
                v = tuple(_element(rng, p) for _ in range(m))
            spanned = oracle.rank(list(A) + [v], m) == rank
            assert in_span(p, rows, pivots, v) == spanned
            w = reduce(p, rows, pivots, v)
            assert (not any(w)) == spanned
            assert all(not w[c] for c in pivots)
            diff = [x - y for x, y in zip(v, w)]
            assert oracle.rank(list(rows) + [[x % p for x in diff] if p else diff], m) == rank


@pytest.mark.parametrize("p", FIELDS)
def test_products_and_inverse_match_sympy(p):
    oracle = Oracle(p)
    rng = random.Random(f"linalg-mul:{p}")
    singular = 0
    for _ in range(150):
        n, k, m = rng.randint(0, 4), rng.randint(1, 4), rng.randint(0, 4)
        A, B = _matrix(rng, p, n, k), _matrix(rng, p, k, m)
        assert mat_mul(p, A, B) == oracle.rows(oracle.dm(A, k) * oracle.dm(B, m))
        u = tuple(_element(rng, p) for _ in range(k))
        column = oracle.dm([(x,) for x in u], 1)
        assert mat_vec(p, A, u) == tuple(r[0] for r in oracle.rows(oracle.dm(A, k) * column))
        S = _matrix(rng, p, n, n)
        if oracle.rank(S, n) == n:
            assert mat_inverse(p, S) == oracle.rows(oracle.dm(S, n).inv())
        else:
            singular += 1
            with pytest.raises(ZeroDivisionError):
                mat_inverse(p, S)
    assert singular >= 10
