"""Shared fixtures: small named quivers, random generators and the
reference row reduction."""

from __future__ import annotations

import random
from fractions import Fraction

import pytest

from quiveralg.paths import Path, Potential, Sym
from quiveralg.qp import QuiverWithPotential
from quiveralg.quiver import Arrow, Quiver


def word(*arrow_ids):
    """Path from arrow ids, rightmost letter acting first."""
    return Path(tuple(Sym(a) for a in arrow_ids))


def a2_quiver():
    return Quiver(["1", "2"], [Arrow("a", "1", "2")], name="A2")


def jordan_quiver():
    return Quiver(["1"], [Arrow("l", "1", "1")], name="Jordan")


def kronecker_quiver():
    return Quiver(["i+", "i-"], [Arrow("a0", "i+", "i-"), Arrow("a2", "i+", "i-")], name="Kronecker")


def point_quiver():
    return Quiver(["1"], [], name="pt")


def cyclic_quiver(n):
    vs = [str(k + 1) for k in range(n)]
    arrows = [Arrow(f"a{k+1}", vs[k], vs[(k + 1) % n]) for k in range(n)]
    return Quiver(vs, arrows, name=f"C{n}")


def showcase_qp():
    """Four-vertex quiver with two parallel arrows into the contracted
    vertex, a return arrow, two loops, and a feedback square; the potential
    has a degree-7 term through a0 and a square term avoiding it."""
    Q = Quiver(
        ["i+", "i-", "1", "2"],
        [
            Arrow("a0", "i+", "i-"),
            Arrow("a1", "i-", "i+"),
            Arrow("a2", "i+", "i-"),
            Arrow("l1", "i-", "i-"),
            Arrow("l2", "i-", "i-"),
            Arrow("b", "i-", "1"),
            Arrow("c", "1", "2"),
            Arrow("d", "2", "i-"),
        ],
        name="showcase",
    )
    W = Potential.from_paths(
        Q,
        [
            (word("a1", "l1", "l1", "l2", "l2", "l2", "a0"), 1),
            (word("l1", "d", "c", "b"), 1),
        ],
    )
    return QuiverWithPotential(Q, W)


def random_quiver(rng, max_vertices=4, max_arrows=6, loops=True, name="R"):
    nv = rng.randint(1, max_vertices)
    vs = [f"v{k}" for k in range(nv)]
    na = rng.randint(0, max_arrows)
    arrows = []
    for k in range(na):
        s = rng.choice(vs)
        t = rng.choice(vs)
        if not loops:
            if nv == 1:
                break
            while t == s:
                t = rng.choice(vs)
        arrows.append(Arrow(f"a{k}", s, t))
    return Quiver(vs, arrows, name=name)


def random_dimvec(rng, Q, max_entry=3):
    return {v: rng.randint(0, max_entry) for v in Q.vertices}


def random_cycle(rng, Q, max_len=6, tries=60):
    """A random closed composable path of length 1..max_len, or None.

    The walk follows arrows forward; symbols are returned in printing
    order (index 0 acts last)."""
    for _ in range(tries):
        start = rng.choice(Q.vertices)
        at = start
        action_order = []
        for _step in range(max_len):
            outgoing = Q.arrows_from(at)
            if not outgoing:
                break
            a = rng.choice(outgoing)
            action_order.append(a.id)
            at = a.target
            if at == start:
                break
        if at == start and action_order:
            return Path(tuple(Sym(a) for a in reversed(action_order)))
    return None


def random_potential(rng, Q, max_terms=3, max_len=6):
    """A random potential with small integer coefficients (possibly zero)."""
    W = Potential.zero()
    pairs = []
    for _ in range(rng.randint(0, max_terms)):
        p = random_cycle(rng, Q, max_len=max_len)
        if p is not None:
            pairs.append((p, rng.choice([1, -1, 2, -2, 3])))
    if pairs:
        W = Potential.from_paths(Q, pairs)
    return W


def power_sum(gamma, v, k):
    """Sum of x[v,a]^k over the slots of v (symmetric by construction)."""
    from quiveralg.poly import Poly, xvar

    out = Poly.zero()
    for a in range(1, gamma[v] + 1):
        out = out + Poly.var(xvar(v, a), k)
    return out


def random_sympoly(rng, Q, gamma, max_deg=2, nterms=2, coeffs=None):
    """Random symmetric element built from products of power sums, with
    coefficients drawn from `coeffs` (default: the integers -2..2)."""
    from quiveralg.poly import Poly
    from quiveralg.shuffle import SymPoly

    poly = Poly.zero()
    vs = [v for v in Q.vertices if gamma[v] > 0]
    for _ in range(nterms):
        c = rng.randint(-2, 2) if coeffs is None else rng.choice(coeffs)
        if not c:
            continue
        term = Poly.const(c)
        budget = rng.randint(0, max_deg)
        while budget > 0 and vs:
            v = rng.choice(vs)
            k = rng.randint(1, budget)
            term = term * power_sum(gamma, v, k)
            budget -= k
        poly = poly + term
    return SymPoly(Q, gamma, poly)


def reference_rref(rows):
    """Reduced row echelon form over Q by Gauss-Jordan on Fractions, column
    by column, every row rewritten at every pivot: the (nonzero rows, pivot
    columns) that ``linalg.rref(QQ, rows)`` must return."""
    rows = [[Fraction(x) for x in row] for row in rows]
    if not rows:
        return (), ()
    pivots = []
    r = 0
    for c in range(len(rows[0])):
        piv = next((i for i in range(r, len(rows)) if rows[i][c]), None)
        if piv is None:
            continue
        rows[r], rows[piv] = rows[piv], rows[r]
        inv = 1 / rows[r][c]
        top = rows[r] = [inv * x for x in rows[r]]
        for i, row in enumerate(rows):
            f = row[c]
            if f and i != r:
                rows[i] = [x - f * y for x, y in zip(row, top)]
        pivots.append(c)
        r += 1
        if r == len(rows):
            break
    return tuple(tuple(row) for row in rows[:r]), tuple(pivots)


@pytest.fixture
def rng():
    return random.Random(20260814)
