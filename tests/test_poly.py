"""Exact polynomial and factored-rational-function arithmetic."""

from __future__ import annotations

from fractions import Fraction
from functools import cmp_to_key

import pytest
from hypothesis import given, strategies as st

from quiveralg.errors import InternalConsistencyError, ScopeError
from quiveralg.hopf import PsiWord, TensorElement
from quiveralg.paths import CyclicWord, NCPoly, Path, Potential, Sym
from quiveralg.poly import Poly, Rat, fvar, var_str, xvar


X1 = xvar("1", 1)
X2 = xvar("1", 2)
Y1 = xvar("2", 1)
Z = fvar("z")


def test_basic_arithmetic():
    p = Poly.var(X1) + Poly.var(X2)
    q = Poly.var(X1) - Poly.var(X2)
    assert p * q == Poly.var(X1) ** 2 - Poly.var(X2) ** 2
    assert (p + q) == 2 * Poly.var(X1)
    assert p - p == Poly.zero()
    assert Poly.const(Fraction(1, 2)) * 2 == Poly.const(1)


def test_pow_and_degree():
    p = (Poly.var(X1) + 1) ** 3
    assert p.total_degree() == 3
    assert p.coeff_of_power(X1, 2) == Poly.const(3)
    assert p.degree_in(X2) == 0


def test_rename_merges_exponents():
    p = Poly.var(X1) * Poly.var(X2)
    q = p.rename_vars({X2: X1})
    assert q == Poly.var(X1) ** 2


def test_divide_linear_exact():
    p = Poly.var(X2) ** 3 - Poly.var(X1) ** 3
    q = p.divide_linear(X2, X1)
    expected = Poly.var(X2) ** 2 + Poly.var(X2) * Poly.var(X1) + Poly.var(X1) ** 2
    assert q == expected


def test_divide_linear_inexact_raises():
    p = Poly.var(X2) ** 2 + Poly.var(X1)
    with pytest.raises(InternalConsistencyError):
        p.divide_linear(X2, X1)


def test_divide_linear_inexact_from_carried_term():
    """x2*y1 has no x2-free part; its only remainder term is the carried
    x1*q_0 = x1*y1."""
    p = Poly.var(X2) * Poly.var(Y1)
    _q, r = p.divmod_in(X2, Poly.linear_diff(X2, X1))
    assert r == Poly.var(X1) * Poly.var(Y1)
    with pytest.raises(InternalConsistencyError):
        p.divide_linear(X2, X1)


@given(st.lists(st.integers(-4, 4), min_size=1, max_size=7))
def test_division_roundtrip(coeffs):
    """Terms free of x2, powers of x1 and a third variable y1 all occur."""
    p = Poly.zero()
    for k, c in enumerate(coeffs):
        p = p + Poly.const(c) * Poly.var(X1, k) * Poly.var(X2, (k * 2) % 3) * Poly.var(Y1, k % 2)
    d = Poly.linear_diff(X2, X1)
    prod = p * d
    if prod.is_zero():
        assert p.is_zero() or d.is_zero()
    else:
        assert prod.divide_linear(X2, X1) == p
        assert prod.divmod_in(X2, d) == (p, Poly.zero())
    # a polynomial that need not be a multiple: same verdict as long division
    q, r = p.divmod_in(X2, d)
    if r.is_zero():
        assert p.divide_linear(X2, X1) == q
    else:
        with pytest.raises(InternalConsistencyError):
            p.divide_linear(X2, X1)


def test_rat_factored_cancellation():
    d1 = Poly.linear_diff(X2, X1)
    r = Rat.from_poly(d1) * Rat.from_poly(d1).inverse()
    assert r == Rat.one()
    s = Rat(1, [(d1, 2), (d1, -1)])
    assert s == Rat.from_poly(d1)
    assert s.num() == d1 and s.den() == Poly.const(1)


def _rat_example():
    """3/2 (x12 - x11)^2 / (x21 - x11): a square numerator factor, a
    denominator factor, and a coefficient."""
    return Rat(Fraction(3, 2), [(Poly.linear_diff(X2, X1), 2), (Poly.linear_diff(Y1, X1), -1)])


def test_rat_power_is_repeated_product_and_inverse():
    """A negative power is the power of the inverse, power 0 is one and a
    positive power is the repeated product, factor by factor; the zero
    function has no negative power (it once returned 0)."""
    r = _rat_example()
    inv = r.inverse()
    for got, want in ((r**-2, inv * inv), (r**0, Rat.one()), (r**3, r * r * r)):
        assert (got.coeff, got.factors) == (want.coeff, want.factors)
        assert got == want
    assert Rat.zero() ** 0 == Rat.one() and Rat.zero() ** 2 == Rat.zero()
    for n in (-1, -3):
        with pytest.raises(ScopeError, match="inverse of zero rational function"):
            Rat.zero() ** n


def test_rat_str():
    assert str(Rat.zero()) == "0"
    assert str(Rat(Fraction(-2, 3))) == "-2/3"
    assert str(Rat(2, [(Poly.linear_diff(X1, X2), 1)])) == "2*x[1,1] - 2*x[1,2]"
    r = _rat_example()
    assert str(r) == "(-3/2*x[1,1]^2 + 3*x[1,1]*x[1,2] - 3/2*x[1,2]^2) / (x[1,1] - x[2,1])"
    assert repr(r) == str(r)


def test_rat_hash():
    """Equal functions built from differently ordered or signed factors hash
    alike, so a set keeps one of them."""
    a = _rat_example()
    d, e = Poly.linear_diff(X2, X1), Poly.linear_diff(Y1, X1)
    b = Rat(Fraction(3, 2), [(e, -1), (d, 1), (d, 1)])
    c = Rat(Fraction(-3, 2), [(Poly.linear_diff(X1, X2), 2), (Poly.linear_diff(X1, Y1), -1)])
    assert a == b == c and hash(a) == hash(b) == hash(c)
    assert hash(Rat(2)) == hash(Rat.from_poly(Poly.const(2)))
    assert len({a, b, c, Rat.one(), Rat(1)}) == 2


def test_rat_sign_normalization():
    a = Rat.from_poly(Poly.linear_diff(X2, X1))
    b = Rat.from_poly(Poly.linear_diff(X1, X2))
    assert a == b * Rat(-1)
    assert (a / b) == Rat(-1)


def test_rat_substitution_zero_and_error():
    d = Poly.linear_diff(X2, X1)
    r = Rat.from_poly(d)
    assert r.rename_vars({X2: X1}).is_zero()
    with pytest.raises(ScopeError):
        r.inverse().rename_vars({X2: X1})


def test_rat_equality_cross_multiplication():
    # (z - x1) / (x1 - z) == -1
    num = Rat.from_poly(Poly.linear_diff(Z, X1))
    den = Rat.from_poly(Poly.linear_diff(X1, Z))
    assert num / den == Rat(-1)


def test_poly_str_deterministic():
    p = Poly.var(X2) + Poly.var(X1) + 1
    assert str(p) == "x[1,1] + x[1,2] + 1"
    q = Poly.var(X1) ** 2 - Poly.const(Fraction(1, 2)) * Poly.var(X2)
    assert str(q) == "x[1,1]^2 - 1/2*x[1,2]"
    # the vertex name i is a proper prefix of i+, and the slot 43 is ord("+")
    r = Poly.var(xvar("i", 43)) + Poly.var(xvar("i+", 1))
    assert str(r) == "x[i,43] + x[i+,1]"
    assert r.leading() == (((xvar("i", 43), 1),), 1)


def _grlex_cmp(m1, m2):
    """Graded lex, written out: negative when m1 is the greater monomial."""
    d1, d2 = sum(e for _, e in m1), sum(e for _, e in m2)
    if d1 != d2:
        return d2 - d1
    e1, e2 = dict(m1), dict(m2)
    for v in sorted(set(e1) | set(e2)):
        if e1.get(v, 0) != e2.get(v, 0):
            return e2.get(v, 0) - e1.get(v, 0)
    return 0


_VARS = [xvar(v, k) for v in ("i", "i+", "1", "10", "a", "ab") for k in (1, 2, 9, 43, 98, 100)]
_VARS += [fvar("u"), fvar("z")]
_MONOS = st.dictionaries(st.sampled_from(_VARS), st.integers(1, 3), max_size=3)


@given(st.lists(_MONOS, min_size=1, max_size=8))
def test_print_order_matches_independent_grlex(monos):
    monos = {tuple(sorted(m.items())) for m in monos}
    p = Poly({m: 1 for m in monos})
    want = sorted(monos, key=cmp_to_key(_grlex_cmp))
    assert [m for m, _ in p.sorted_terms()] == want
    assert p.leading() == (want[0], 1)
    pieces = ("*".join(var_str(v) + (f"^{e}" if e > 1 else "") for v, e in m) for m in want)
    assert str(p) == " + ".join(piece or "1" for piece in pieces)


# One sample per Combination subclass: three distinct keys of its key type.
_KEYS = {
    Poly: [((X1, 1),), ((X2, 2),), ()],
    NCPoly: [Path((Sym("a"),)), Path((Sym("b"), Sym("a"))), Path.idempotent("1")],
    Potential: [
        CyclicWord((Sym("a"),)),
        CyclicWord((Sym("a"), Sym("b"))),
        CyclicWord((Sym("c"),)),
    ],
    TensorElement: [
        (PsiWord.unit(), PsiWord("psi", {("1", 1): 1})),
        (PsiWord("psi", {("1", 1): 1}), PsiWord.unit()),
        (PsiWord("psi", {("2", 1): 2}), PsiWord("psi", {("1", 1): -1})),
    ],
}


@pytest.mark.parametrize("cls", list(_KEYS), ids=lambda c: c.__name__)
def test_combination_contract(cls):
    """The dict-of-non-zero-Fraction contract every subclass inherits.  It
    fails for a base that keeps zero sums, hashes in insertion order, or
    lets values of two subclasses compare equal."""
    k1, k2, k3 = _KEYS[cls]
    a = cls({k1: 1, k2: Fraction(-2, 3), k3: 0})
    assert a.terms == {k1: 1, k2: Fraction(-2, 3)}
    assert all(type(c) is Fraction for c in a.terms.values())
    assert (a + cls({k1: -1, k2: Fraction(2, 3)})).terms == {}
    assert cls.from_pairs([(k1, 1), (k2, 2), (k1, -1), (k3, 0)]).terms == {k2: 2}
    assert a - a == cls.zero() and (a - a).terms == {}
    assert a.scale(0) == cls.zero() and a.scale(0).terms == {}
    assert a.scale(3) == cls({k1: 3, k2: -2})
    assert -(-a) == a and -a != a
    assert (a + a.scale(-1)).is_zero() and not a.is_zero()
    b = cls({k2: Fraction(-2, 3), k1: 1})
    assert list(a.terms) != list(b.terms)
    assert a == b and hash(a) == hash(b)
    assert hash(a + cls({k3: 1}) - cls({k3: 1})) == hash(a)
    for other in _KEYS:
        if other is not cls:
            assert cls.zero() != other.zero()
            assert a != other(a.terms)
            with pytest.raises(TypeError):
                a + other.zero()
