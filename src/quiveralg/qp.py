"""Quivers with potential and the trivial-part reduction.

A QuiverWithPotential bundles a quiver, a potential (rational combination
of cyclic words in its arrows), and an optional designated arrow that may
appear formally inverted in words.  The trivial-part reduction repeatedly
eliminates quadratic 2-cycle terms b.c, at any non-zero coefficient, by one
exact step (``eliminate_pair``: c -> -dW/db + c, b -> -dW/dc + b, then
delete b and c), which Higgsing shares; each step is a right-equivalence
followed by dropping a trivial summand.
"""

from __future__ import annotations

from .errors import InternalConsistencyError, PreconditionError, UnsupportedReductionError
from .paths import (
    NCPoly,
    Path,
    Potential,
    Sym,
    cyclic_derivative,
    quadratic_two_cycles,
    substitute_arrow,
    sym_source,
    sym_target,
)
from .quiver import Quiver


class QuiverWithPotential:
    """quiver + potential (+ optional formally invertible arrow)."""

    __slots__ = ("quiver", "potential", "inverted")

    def __init__(self, quiver, potential=None, inverted=None):
        self.quiver = quiver
        self.potential = potential if potential is not None else Potential.zero()
        self.inverted = inverted
        if inverted is not None:
            quiver.arrow(inverted)  # must exist
        self._validate()

    def _validate(self):
        Q = self.quiver
        for w in self.potential.terms:
            prev = None
            for s in w.syms:
                if s.inv and s.arrow != self.inverted:
                    raise PreconditionError(
                        f"inverse symbol {s} of a non-designated arrow in potential"
                    )
                Q.arrow(s.arrow)
                if prev is not None and sym_source(Q, prev) != sym_target(Q, s):
                    raise PreconditionError(f"potential term {w} is not composable")
                prev = s
            if sym_source(Q, w.syms[-1]) != sym_target(Q, w.syms[0]):
                raise PreconditionError(f"potential term {w} is not closed")

    def __eq__(self, other):
        return (
            isinstance(other, QuiverWithPotential)
            and self.quiver == other.quiver
            and self.potential == other.potential
            and self.inverted == other.inverted
        )

    def __repr__(self):
        return f"QP({self.quiver!r}, W = {self.potential})"


def delete_arrows(Q, ids):
    keep = [a for a in Q.arrows if a.id not in ids]
    return Quiver(Q.vertices, keep, name=Q.name)


def _holds(value, arrows):
    """Whether a letter of some term of value is one of arrows."""
    return any(s.arrow in arrows for t in value.terms for s in t.syms)


def eliminate_pair(qp, w, coeff):
    """Remove the quadratic term coeff * w of the potential, w = b.c, and
    the arrows b and c.

    Write W' = W/coeff = b.c + R, W1 = dR/db and W2 = dR/dc.  The step
    refuses (UnsupportedReductionError) only when both W1 and W2 hold b or
    c, or when b or c is the formally inverted arrow.  Otherwise it
    substitutes c -> -W1 and b -> -W2 into W, and that is exact for any
    non-zero coeff.  Say W2 is free of b and c: c.dR/dc is, up to rotation,
    the sum of R's terms weighted by their number of c letters, so every
    term of R with c holds it once and no b, and W' = (b + W2).c + S with S
    free of c.  The unitriangular changes b' = b + W2, then c' = c + T
    (b'.T the terms of S(b -> b' - W2) with b') give W' ~ b'.c' + S(b -> -W2),
    and the substitution yields exactly coeff * S(b -> -W2).  The case of W1
    free is symmetric.
    """
    b, c = (s.arrow for s in w.syms)  # word b.c, c acts first
    if qp.inverted in (b, c):
        raise UnsupportedReductionError(
            f"cannot eliminate the formally inverted arrow {qp.inverted}"
        )
    Q = qp.quiver
    W = qp.potential.scale(1 / coeff)
    W1 = cyclic_derivative(Q, W, b) - NCPoly.of_path(Path((Sym(c),)))
    W2 = cyclic_derivative(Q, W, c) - NCPoly.of_path(Path((Sym(b),)))
    if _holds(W1, (b, c)) and _holds(W2, (b, c)):
        raise UnsupportedReductionError(
            f"cannot eliminate {w}: both dW/d{b} - {c} and dW/d{c} - {b} hold {b} or {c}"
        )
    Wnew = substitute_arrow(Q, qp.potential, {c: -W1, b: -W2})
    if _holds(Wnew, (b, c)):
        raise InternalConsistencyError(f"eliminating {w} left {b} or {c} in {Wnew}")
    return QuiverWithPotential(delete_arrows(Q, {b, c}), Wnew, inverted=qp.inverted)


def reduce_trivial(qp):
    """Delete the trivial (quadratic) part of the potential: eliminate the
    least quadratic term by ``eliminate_pair`` until none is left."""
    while True:
        quads = quadratic_two_cycles(qp.quiver, qp.potential)
        if not quads:
            return qp
        qp = eliminate_pair(qp, *min(quads, key=lambda t: t[0].sort_key()))
