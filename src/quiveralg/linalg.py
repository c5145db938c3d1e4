"""Exact linear algebra over Q and over prime fields F_p.

A field is its characteristic: ``QQ`` is 0 and ``GF(p)`` is the prime p.
Matrices are tuples of row tuples and vectors are tuples; their entries are
Fractions over Q and ints in range(p) over F_p.  Every matrix-vector
product, row reduction and span test of the package goes through here:
representation contraction (``mat_mul``, ``mat_inverse``), the spherical
span over Q (``rref``, ``in_span``) and the King stability search over F_p
(``mat_vec``, ``reduce``, ``in_span``).
"""

from __future__ import annotations

import math
from fractions import Fraction
from operator import mul

from .errors import PreconditionError

QQ = 0
_ZERO = Fraction(0)
_ONE = Fraction(1)


def GF(p):
    """The prime field F_p, that is p itself, after checking that p is prime."""
    if p < 2 or any(p % k == 0 for k in range(2, math.isqrt(p) + 1)):
        raise PreconditionError(f"{p} is not prime")
    return p


def mat_vec(p, M, u):
    """The product M u."""
    if p:
        return tuple(sum(map(mul, row, u)) % p for row in M)
    return tuple(sum(map(mul, row, u), _ZERO) for row in M)


def mat_mul(p, A, B):
    if A and B and len(A[0]) != len(B):
        raise PreconditionError("matrix shape mismatch")
    columns = tuple(zip(*B))
    return tuple(mat_vec(p, columns, row) for row in A)


def mat_inverse(p, A):
    """Gauss-Jordan inverse; raises ZeroDivisionError if singular."""
    n = len(A)
    if any(len(r) != n for r in A):
        raise PreconditionError("inverse of a non-square matrix")
    one = 1 if p else _ONE
    augmented = [tuple(r) + (0,) * i + (one,) + (0,) * (n - 1 - i) for i, r in enumerate(A)]
    rows, pivots = rref(p, augmented)
    if pivots != tuple(range(n)):
        raise ZeroDivisionError("singular matrix")
    return tuple(row[n:] for row in rows)


def rref(p, rows):
    """Reduced row echelon form; returns (nonzero rows, pivot columns), every
    row with pivot entry 1."""
    rows = [list(r) for r in rows]
    if not rows:
        return (), ()
    pivots = []
    r = 0
    for c in range(len(rows[0])):
        piv = next((i for i in range(r, len(rows)) if rows[i][c]), None)
        if piv is None:
            continue
        rows[r], rows[piv] = rows[piv], rows[r]
        if p:
            inv = pow(rows[r][c], -1, p)
            top = rows[r] = [inv * x % p for x in rows[r]]
        else:
            inv = _ONE / rows[r][c]
            top = rows[r] = [inv * x for x in rows[r]]
        for i, row in enumerate(rows):
            f = row[c]
            if f and i != r:
                if p:
                    rows[i] = [(x - f * y) % p for x, y in zip(row, top)]
                else:
                    rows[i] = [x - f * y for x, y in zip(row, top)]
        pivots.append(c)
        r += 1
        if r == len(rows):
            break
    return tuple(tuple(row) for row in rows[:r]), tuple(pivots)


def reduce(p, rows, pivots, v):
    """v minus its components along the rows of an rref basis (as returned
    by ``rref``): a list that is zero exactly when v lies in their span."""
    v = list(v)
    for row, c in zip(rows, pivots):
        f = v[c]
        if f:
            if p:
                v = [(x - f * y) % p for x, y in zip(v, row)]
            else:
                v = [x - f * y for x, y in zip(v, row)]
    return v


def in_span(p, rows, pivots, v):
    """Is v in the row space of an rref basis?"""
    return not any(reduce(p, rows, pivots, v))
