"""Sparse multivariate polynomials and factored rational functions over Q.

Everything is exact: coefficients are fractions.Fraction, variables are
tuples so they sort deterministically.  The two variable shapes used by the
shuffle layer are ("x", vertex, slot) -- printed x[vertex,slot] -- and
one-letter formal variables such as ("z",).  Monomials are tuples of
(variable, exponent) pairs sorted by variable; term order for printing and
normalization is graded lexicographic (degree first, then the exponent
vector over the ascending variable order).

`Combination` is the one storage format of the algebra layers: a dict from
key to non-zero Fraction, with its sums, negation, scaling and equality.
`Poly` here, and `NCPoly`, `Potential` and `TensorElement` above it, are
its subclasses.

Rational functions are kept in factored form (a rational coefficient and a
multiset of monic polynomial factors with integer exponents).  Every
rational function built here is a product of linear differences of
variables, so factored form is closed under the operations we need and is
automatically reduced.
"""

from __future__ import annotations

from fractions import Fraction
from functools import lru_cache

from .errors import InternalConsistencyError, ScopeError

# ---------------------------------------------------------------------------
# variables


@lru_cache(maxsize=4096, typed=True)
def xvar(vertex, slot):
    """The shuffle variable x[vertex,slot] (slot counts from 1).  The tuple
    is cached, so each variable is one tuple shared by every monomial that
    holds it; the cache is typed, so that True, 1 and 1.0 name different
    vertices."""
    return ("x", str(vertex), int(slot))


@lru_cache(maxsize=4096)
def xfactor(var, exp):
    """The monomial factor (var, exp), one cached tuple like xvar's."""
    return var, exp


def fvar(letter):
    """A one-letter formal variable such as z, u, w."""
    return (str(letter),)


def var_str(v):
    if len(v) == 3 and v[0] == "x":
        return f"x[{v[1]},{v[2]}]"
    return v[0]


def _mono_str(mono):
    parts = []
    for v, e in mono:
        parts.append(var_str(v) if e == 1 else f"{var_str(v)}^{e}")
    return "*".join(parts) if parts else "1"


def _mono_degree(mono):
    return sum(e for _, e in mono)


def _grlex_key(mono):
    """Sort key under which the graded-lex greater monomial comes first:
    higher degree, then, at the first variable (ascending) where the
    exponents differ, the higher exponent."""
    return -_mono_degree(mono), tuple((v, -e) for v, e in mono)


class Combination:
    """Finite Q-linear combination: a dict from key to non-zero Fraction.

    Subclasses fix the key type and the printing.  Values of different
    subclasses are never equal and do not add.
    """

    __slots__ = ("terms",)

    def __init__(self, terms=None):
        self.terms = {}
        if terms:
            for k, c in terms.items():
                c = Fraction(c)
                if c:
                    self.terms[k] = c

    @classmethod
    def from_pairs(cls, pairs):
        """The sum of c * key over the (key, c) pairs, built as repeated `+`
        would build it."""
        out = {}
        for k, c in pairs:
            c = out.get(k, 0) + Fraction(c)
            if c:
                out[k] = c
            else:
                out.pop(k, None)
        return cls._of(out)

    @classmethod
    def _of(cls, terms):
        """Wrap a dict that has no zero coefficient, without copying it."""
        out = cls.__new__(cls)
        out.terms = terms
        return out

    @classmethod
    def zero(cls):
        return cls._of({})

    def is_zero(self):
        return not self.terms

    def __add__(self, other):
        if type(other) is not type(self):
            return NotImplemented
        out = dict(self.terms)
        for k, c in other.terms.items():
            s = out.get(k, 0) + c
            if s:
                out[k] = s
            else:
                del out[k]
        return self._of(out)

    def __neg__(self):
        return self._of({k: -c for k, c in self.terms.items()})

    def __sub__(self, other):
        return self + (-other)

    def scale(self, c):
        c = Fraction(c)
        return self._of({k: v * c for k, v in self.terms.items()} if c else {})

    def __eq__(self, other):
        return type(other) is type(self) and self.terms == other.terms

    def __hash__(self):
        return hash(frozenset(self.terms.items()))


class Poly(Combination):
    """Sparse polynomial: dict from monomial to non-zero Fraction."""

    __slots__ = ()

    # -- constructors ------------------------------------------------------

    @staticmethod
    def const(c):
        c = Fraction(c)
        return Poly({(): c}) if c else Poly()

    @staticmethod
    def var(v, exp=1):
        if exp == 0:
            return Poly.const(1)
        return Poly({((v, exp),): Fraction(1)})

    @staticmethod
    def linear_diff(vb, va):
        """The difference vb - va of two variables."""
        return Poly.var(vb) - Poly.var(va)

    # -- basic queries ------------------------------------------------------

    def is_constant(self):
        return all(m == () for m in self.terms)

    def constant_value(self):
        if not self.is_constant():
            raise InternalConsistencyError("polynomial is not constant")
        return self.terms.get((), Fraction(0))

    def variables(self):
        vs = set()
        for m in self.terms:
            for v, _ in m:
                vs.add(v)
        return vs

    def total_degree(self):
        return max((_mono_degree(m) for m in self.terms), default=0)

    def degree_in(self, var):
        return max((dict(m).get(var, 0) for m in self.terms), default=0)

    def coeff_of_power(self, var, k):
        """Coefficient of var**k, a polynomial in the remaining variables."""
        out = {}
        for m, c in self.terms.items():
            d = dict(m)
            if d.pop(var, 0) == k:
                out[tuple(sorted(d.items()))] = out.get(tuple(sorted(d.items())), Fraction(0)) + c
        return Poly(out)

    def leading(self):
        """(monomial, coefficient) maximal in graded-lex order."""
        if not self.terms:
            raise InternalConsistencyError("leading term of zero polynomial")
        best = min(self.terms, key=_grlex_key)
        return best, self.terms[best]

    # -- arithmetic ----------------------------------------------------------

    def __add__(self, other):
        if isinstance(other, (int, Fraction)):
            other = Poly.const(other)
        return Combination.__add__(self, other)

    __radd__ = __add__

    def __rsub__(self, other):
        return Poly.const(other) - self

    def __mul__(self, other):
        if isinstance(other, (int, Fraction)):
            return self.scale(other)
        out = {}
        for m1, c1 in self.terms.items():
            d1 = dict(m1)
            for m2, c2 in other.terms.items():
                d = dict(d1)
                for v, e in m2:
                    d[v] = d.get(v, 0) + e
                key = tuple(sorted(d.items()))
                s = out.get(key, Fraction(0)) + c1 * c2
                if s:
                    out[key] = s
                else:
                    del out[key]
        return Poly._of(out)

    __rmul__ = __mul__

    def __pow__(self, n):
        if n < 0:
            raise InternalConsistencyError("negative polynomial power")
        result = Poly.const(1)
        base = self
        while n:
            if n & 1:
                result = result * base
            base = base * base
            n >>= 1
        return result

    def __eq__(self, other):
        if isinstance(other, (int, Fraction)):
            other = Poly.const(other)
        return Combination.__eq__(self, other)

    __hash__ = Combination.__hash__

    # -- substitution ---------------------------------------------------------

    def rename_vars(self, mapping):
        """Substitute variables by variables (collisions merge exponents)."""
        out = {}
        for m, c in self.terms.items():
            d = {}
            for v, e in m:
                nv = mapping.get(v, v)
                d[nv] = d.get(nv, 0) + e
            key = tuple(sorted(d.items()))
            s = out.get(key, Fraction(0)) + c
            if s:
                out[key] = s
            else:
                del out[key]
        return Poly._of(out)

    # -- division ---------------------------------------------------------------

    def divmod_in(self, var, den):
        """Long division by den, both viewed in `var`; the leading
        coefficient of den in var must be a non-zero rational constant."""
        d = den.degree_in(var)
        lc = den.coeff_of_power(var, d)
        if not lc.is_constant() or lc.is_zero():
            raise ScopeError("division requires a constant leading coefficient")
        lcv = lc.constant_value()
        q = Poly()
        r = self
        while not r.is_zero() and r.degree_in(var) >= d:
            k = r.degree_in(var)
            head = r.coeff_of_power(var, k)
            qterm = head.scale(Fraction(1) / lcv)
            qterm = qterm * Poly.var(var, k - d) if k - d > 0 else qterm
            q = q + qterm
            r = r - qterm * den
            if r.degree_in(var) == k and not r.coeff_of_power(var, k).is_zero():
                raise InternalConsistencyError("division failed to reduce degree")
        return q, r

    def divide_linear(self, vb, va):
        """Exact division by (vb - va); raises unless the remainder is 0.

        One pass of synthetic division in vb: with self = sum_k c_k vb^k,
        the quotient's coefficients are q_{k-1} = c_k + va*q_k from the top
        power down, and the remainder is c_0 + va*q_0.  The c_k are kept
        keyed by (monomial free of va and vb, power of va), so multiplying
        by va only raises the stored power.
        """
        coeffs = {}  # power of vb -> {(rest, power of va): coefficient}
        for m, c in self.terms.items():
            kb = ka = 0
            rest = []
            for v, e in m:
                if v == vb:
                    kb = e
                elif v == va:
                    ka = e
                else:
                    rest.append((v, e))
            coeffs.setdefault(kb, {})[tuple(rest), ka] = c
        out = {}
        q = {}
        for k in range(max(coeffs, default=0), -1, -1):
            carried = {(rest, ka + 1): c for (rest, ka), c in q.items()}
            for key, c in coeffs.get(k, {}).items():
                s = carried.get(key, 0) + c
                if s:
                    carried[key] = s
                else:
                    del carried[key]
            if k == 0:
                if carried:
                    raise InternalConsistencyError(
                        f"inexact division by ({var_str(vb)} - {var_str(va)})"
                    )
                break
            q = carried
            for (rest, ka), c in q.items():
                extra = [(vb, k - 1)] if k > 1 else []
                if ka:
                    extra.append((va, ka))
                out[tuple(sorted(rest + tuple(extra)))] = c
        return Poly._of(out)

    # -- printing ---------------------------------------------------------------

    def sorted_terms(self):
        return [(m, self.terms[m]) for m in sorted(self.terms, key=_grlex_key)]

    def __str__(self):
        if not self.terms:
            return "0"
        parts = []
        for m, c in self.sorted_terms():
            frag = _mono_str(m)
            if m == ():
                piece = str(c)
            elif c == 1:
                piece = frag
            elif c == -1:
                piece = "-" + frag
            else:
                piece = f"{c}*{frag}"
            parts.append(piece)
        out = parts[0]
        for piece in parts[1:]:
            out += " - " + piece[1:] if piece.startswith("-") else " + " + piece
        return out

    __repr__ = __str__


# ---------------------------------------------------------------------------
# factored rational functions


def _normalize_factor(p):
    """Monic-normalize a non-zero polynomial: returns (content, key_poly)
    with key_poly = p/content having leading graded-lex coefficient 1."""
    _, c = p.leading()
    return c, p.scale(Fraction(1) / c)


def _key_of(p):
    return tuple(sorted(p.terms.items()))


class Rat:
    """Rational function in factored form: coeff * prod factor**exp.

    Factors are monic polynomials; exponents are non-zero integers (negative
    for denominator factors).  Common factors cancel by construction, so the
    expanded numerator and denominator are coprime whenever the factors are
    irreducible -- which holds for the linear differences produced here.
    """

    __slots__ = ("coeff", "factors", "_polys")

    def __init__(self, coeff=1, factors=None):
        self.coeff = Fraction(coeff)
        self.factors = {}  # key -> exponent
        self._polys = {}  # key -> Poly
        if factors and self.coeff:
            for p, e in factors:
                self._mul_factor(p, e)

    def _mul_factor(self, p, e):
        if e == 0:
            return
        if p.is_constant():
            c = p.constant_value()
            if not c:
                if e > 0:
                    self.coeff = Fraction(0)
                    self.factors.clear()
                    self._polys.clear()
                    return
                raise ScopeError("division by zero rational function")
            self.coeff *= c**e
            return
        c, norm = _normalize_factor(p)
        self.coeff *= c**e
        k = _key_of(norm)
        newe = self.factors.get(k, 0) + e
        if newe:
            self.factors[k] = newe
            self._polys[k] = norm
        else:
            self.factors.pop(k, None)
            self._polys.pop(k, None)

    @staticmethod
    def one():
        return Rat(1)

    @staticmethod
    def zero():
        return Rat(0)

    @staticmethod
    def from_poly(p):
        r = Rat(1)
        r._mul_factor(p, 1)
        return r

    def is_zero(self):
        return not self.coeff

    def __mul__(self, other):
        if isinstance(other, (int, Fraction)):
            other = Rat(other)
        if isinstance(other, Poly):
            other = Rat.from_poly(other)
        out = Rat(self.coeff * other.coeff)
        if out.coeff:
            for k, e in self.factors.items():
                out._mul_factor(self._polys[k], e)
            for k, e in other.factors.items():
                out._mul_factor(other._polys[k], e)
        return out

    __rmul__ = __mul__

    def __truediv__(self, other):
        return self * other.inverse()

    def inverse(self):
        if self.is_zero():
            raise ScopeError("inverse of zero rational function")
        out = Rat(Fraction(1) / self.coeff)
        for k, e in self.factors.items():
            out._mul_factor(self._polys[k], -e)
        return out

    def __pow__(self, n):
        out = Rat(self.coeff**n) if self.coeff or n >= 0 else Rat(0)
        if n and not self.is_zero():
            for k, e in self.factors.items():
                out._mul_factor(self._polys[k], e * n)
        return out

    def rename_vars(self, mapping):
        """Substitute variables by variables in every factor.  A factor that
        collapses to zero kills the function (numerator) or is an error
        (denominator)."""
        out = Rat(self.coeff)
        if not out.coeff:
            return out
        for k, e in self.factors.items():
            p = self._polys[k].rename_vars(mapping)
            if p.is_zero():
                if e > 0:
                    return Rat(0)
                raise ScopeError("substitution sent a denominator factor to zero")
            out._mul_factor(p, e)
            if out.is_zero():
                return out
        return out

    def num(self):
        p = Poly.const(self.coeff.numerator if self.coeff.denominator == 1 else self.coeff)
        for k, e in self.factors.items():
            if e > 0:
                p = p * self._polys[k] ** e
        return p

    def den(self):
        p = Poly.const(1)
        for k, e in self.factors.items():
            if e < 0:
                p = p * self._polys[k] ** (-e)
        return p

    def is_polynomial(self):
        return all(e > 0 for e in self.factors.values()) or self.is_zero()

    def __eq__(self, other):
        if isinstance(other, (int, Fraction)):
            other = Rat(other)
        if isinstance(other, Poly):
            other = Rat.from_poly(other)
        if not isinstance(other, Rat):
            return NotImplemented
        return self.num() * other.den() == other.num() * self.den()

    def __hash__(self):
        return hash((self.coeff, tuple(sorted(self.factors.items()))))

    def __str__(self):
        if self.is_zero():
            return "0"
        num, den = self.num(), self.den()
        if den == Poly.const(1):
            return str(num)
        return f"({num}) / ({den})"

    __repr__ = __str__
