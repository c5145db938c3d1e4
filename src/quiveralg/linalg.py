"""Tiny exact linear algebra over Q and over prime fields F_p.

Matrices are tuples of row tuples.  Field elements are Fractions (QQ) or
ints in range(p) (GF(p)).  Just enough functionality for representation
contraction (products and inverses) and for row-space membership in the
spherical span (``rref``, ``in_span``).  The King stability brute force
keeps its own F_p helpers in ``scattering``, specialised to ints mod p.
"""

from __future__ import annotations

from fractions import Fraction

from .errors import PreconditionError


class QQ:
    name = "QQ"

    @staticmethod
    def conv(x):
        return Fraction(x)

    zero = Fraction(0)
    one = Fraction(1)

    @staticmethod
    def add(a, b):
        return a + b

    @staticmethod
    def sub(a, b):
        return a - b

    @staticmethod
    def mul(a, b):
        return a * b

    @staticmethod
    def inv(a):
        if not a:
            raise ZeroDivisionError
        return 1 / Fraction(a)


class GF:
    def __init__(self, p):
        if p < 2 or any(p % k == 0 for k in range(2, p)):
            raise PreconditionError(f"{p} is not prime")
        self.p = p
        self.name = f"F{p}"
        self.zero = 0
        self.one = 1 % p

    def conv(self, x):
        return int(x) % self.p

    def add(self, a, b):
        return (a + b) % self.p

    def sub(self, a, b):
        return (a - b) % self.p

    def mul(self, a, b):
        return (a * b) % self.p

    def inv(self, a):
        a %= self.p
        if not a:
            raise ZeroDivisionError
        return pow(a, self.p - 2, self.p)

    def __eq__(self, other):
        return isinstance(other, GF) and other.p == self.p

    def __hash__(self):
        return hash(("GF", self.p))


def identity(F, n):
    return tuple(tuple(F.one if i == j else F.zero for j in range(n)) for i in range(n))


def mat_mul(F, A, B):
    if A and B and len(A[0]) != len(B):
        raise PreconditionError("matrix shape mismatch")
    inner = len(B)
    cols = len(B[0]) if B else 0
    out = []
    for row in A:
        r = []
        for j in range(cols):
            s = F.zero
            for k in range(inner):
                s = F.add(s, F.mul(row[k], B[k][j]))
            r.append(s)
        out.append(tuple(r))
    return tuple(out)


def mat_inverse(F, A):
    """Gauss-Jordan inverse; raises ZeroDivisionError if singular."""
    n = len(A)
    if any(len(r) != n for r in A):
        raise PreconditionError("inverse of a non-square matrix")
    aug = [list(A[i]) + list(identity(F, n)[i]) for i in range(n)]
    for col in range(n):
        piv = next((r for r in range(col, n) if aug[r][col] != F.zero), None)
        if piv is None:
            raise ZeroDivisionError("singular matrix")
        aug[col], aug[piv] = aug[piv], aug[col]
        inv = F.inv(aug[col][col])
        aug[col] = [F.mul(inv, x) for x in aug[col]]
        for r in range(n):
            if r != col and aug[r][col] != F.zero:
                factor = aug[r][col]
                aug[r] = [F.sub(x, F.mul(factor, y)) for x, y in zip(aug[r], aug[col])]
    return tuple(tuple(row[n:]) for row in aug)


def rref(F, rows):
    """Reduced row echelon form; returns (rows_tuple, pivot_columns)."""
    rows = [list(r) for r in rows]
    if not rows:
        return (), ()
    ncols = len(rows[0])
    pivots = []
    r = 0
    for c in range(ncols):
        piv = next((i for i in range(r, len(rows)) if rows[i][c] != F.zero), None)
        if piv is None:
            continue
        rows[r], rows[piv] = rows[piv], rows[r]
        inv = F.inv(rows[r][c])
        rows[r] = [F.mul(inv, x) for x in rows[r]]
        for i in range(len(rows)):
            if i != r and rows[i][c] != F.zero:
                f = rows[i][c]
                rows[i] = [F.sub(x, F.mul(f, y)) for x, y in zip(rows[i], rows[r])]
        pivots.append(c)
        r += 1
        if r == len(rows):
            break
    rows = [tuple(row) for row in rows[:r]]
    return tuple(rows), tuple(pivots)


def in_span(F, basis_rref, pivots, v):
    """Is vector v in the row space given by its rref basis?"""
    v = list(v)
    for row, c in zip(basis_rref, pivots):
        if v[c] != F.zero:
            f = v[c]
            v = [F.sub(x, F.mul(f, y)) for x, y in zip(v, row)]
    return all(x == F.zero for x in v)
