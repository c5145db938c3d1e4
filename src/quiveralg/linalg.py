"""Exact linear algebra over Q and over prime fields F_p.

A field is its characteristic: ``QQ`` is 0 and ``GF(p)`` is the prime p.
Matrices are tuples of row tuples and vectors are tuples; their entries are
Fractions over Q and ints in range(p) over F_p (ints are also accepted over
Q).  Every matrix-vector product, row reduction and span test of the
package goes through here: representation contraction (``mat_mul``,
``mat_inverse``), the spherical span over Q (``rref``, ``in_span``) and the
King stability search over F_p (``mat_vec``, ``in_span``, and ``reduce``
for Harder-Narasimhan quotients).

One Gauss-Jordan loop serves both fields.  Over Q it is fraction-free: rows
are scaled to integers and kept primitive, and only the result is divided
out into Fractions.  Over F_p a pivot row is scaled to pivot 1.  ``rref``
reads its rows one at a time and stops once every column has a pivot.
"""

from __future__ import annotations

import math
from fractions import Fraction
from operator import mul

from .errors import PreconditionError

QQ = 0
_ZERO = Fraction(0)


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
    augmented = [tuple(r) + (0,) * i + (1,) + (0,) * (n - 1 - i) for i, r in enumerate(A)]
    rows, pivots = rref(p, augmented)
    if pivots != tuple(range(n)):
        raise ZeroDivisionError("singular matrix")
    return tuple(row[n:] for row in rows)


def rref(p, rows):
    """Reduced row echelon form; returns (nonzero rows, pivot columns), every
    row with pivot entry 1: Fractions over Q, ints in range(p) over F_p.

    The rows, any iterable of equal-length sequences, are read one at a
    time.  Each is reduced against the pivot rows found so far, and a row
    that is not zero then becomes a pivot row and clears its pivot column
    from the earlier ones.  Over Q the elimination is fraction-free: a row
    is scaled to integers by the lcm of its denominators, a step is
    s*row - t*top with s, t coprime, and a pivot row is kept primitive
    (content 1, pivot positive), to be divided by its pivot only in the
    result.  Over F_p a pivot row is scaled to pivot 1.  Reading stops once
    every column has a pivot: the rref is then the identity, whatever the
    remaining rows hold."""
    basis = {}  # pivot column -> pivot row, a list of ints
    for row in rows:
        row = _as_ints(p, row)
        for c, top in basis.items():
            if row[c]:
                row = _eliminate(p, row, top, c)
        c = next((c for c, x in enumerate(row) if x), None)
        if c is None:
            continue
        row = _normalise(p, row, c)
        for k, top in basis.items():
            if top[c]:
                basis[k] = _normalise(p, _eliminate(p, top, row, c), k)
        basis[c] = row
        if len(basis) == len(row):
            break
    pivots = tuple(sorted(basis))
    rows = [basis[c] for c in pivots]
    if p:
        return tuple(map(tuple, rows)), pivots
    return tuple(
        tuple(Fraction(x, row[c]) if x else _ZERO for x in row) for row, c in zip(rows, pivots)
    ), pivots


def _as_ints(p, row):
    """A row as a list of ints: over F_p reduced mod p, over Q scaled by the
    lcm of its denominators."""
    if p:
        return [x % p for x in row]
    L = math.lcm(*(x.denominator for x in row))
    if L == 1:
        return [x.numerator for x in row]
    return [x.numerator * (L // x.denominator) for x in row]


def _eliminate(p, row, top, c):
    """row with column c cleared by top, a pivot row with pivot column c:
    row - t*top over F_p (top[c] = 1), s*row - t*top over Q with s = top[c]
    and t = row[c] divided by their gcd."""
    t = row[c]
    if p:
        return [(x - t * y) % p for x, y in zip(row, top)]
    s = top[c]
    g = math.gcd(s, t)
    if g != 1:
        s, t = s // g, t // g
    return [s * x - t * y for x, y in zip(row, top)]


def _normalise(p, row, c):
    """row made a pivot row with pivot column c: over F_p scaled to pivot 1,
    over Q divided by its content with the sign of its pivot."""
    if p:
        inv = pow(row[c], -1, p)
        return row if inv == 1 else [inv * x % p for x in row]
    g = math.gcd(*row)
    if row[c] < 0:
        g = -g
    if g == 1:
        return row
    return [x // g for x in row]


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
    """Is v in the row space of an rref basis?  A member is the combination
    of the rows with its own entries at the pivots, so v is rebuilt from
    those and compared: O(r*n), with no vector built on the way."""
    v = tuple(v)
    if not rows:
        return not any(v)
    if len(rows) == len(v):
        return True
    coeffs = [v[c] for c in pivots]
    if p:
        return v == tuple(sum(map(mul, coeffs, column)) % p for column in zip(*rows))
    return v == tuple(sum(map(mul, coeffs, column), _ZERO) for column in zip(*rows))
