"""Noncommutative path algebra over Q, cyclic words, potentials.

Composition is function-style: in the word "fg" the right letter g acts
first, so the path fg runs s(g) -> t(g)=s(f) -> t(f).  Words are stored as
tuples of symbols in that printing order (index 0 is the LAST letter to
act).  At most one arrow may be formally inverted -- the designated
contraction arrow -- and only its symbols may carry the inverse flag.

A cyclic word is the rotation class of a closed path, canonicalized to the
lexicographically least rotation after cancelling a0 a0^{-1} pairs (also
across the cyclic seam).
"""

from __future__ import annotations

from typing import NamedTuple

from .errors import (
    DegenerateTermError,
    InternalConsistencyError,
    PreconditionError,
    UnsupportedReductionError,
)
from .poly import Combination


class Sym(NamedTuple):
    """One letter of a path: an arrow id plus a direction flag."""

    arrow: str
    inv: bool = False

    def __str__(self):
        return f"{self.arrow}^-1" if self.inv else self.arrow


def sym_source(Q, s):
    a = Q.arrow(s.arrow)
    return a.target if s.inv else a.source


def sym_target(Q, s):
    a = Q.arrow(s.arrow)
    return a.source if s.inv else a.target


class Path:
    """A composable word of symbols, or a lazy (length-0) vertex path e_v."""

    __slots__ = ("syms", "base")

    def __init__(self, syms=(), base=None):
        self.syms = tuple(syms)
        self.base = base
        if not self.syms and base is None:
            raise PreconditionError("empty path needs a base vertex")

    @staticmethod
    def idempotent(v):
        return Path((), base=v)

    def is_idempotent(self):
        return not self.syms

    def __len__(self):
        return len(self.syms)

    def __eq__(self, other):
        return isinstance(other, Path) and self.syms == other.syms and self.base == other.base

    def __hash__(self):
        return hash((self.syms, self.base))

    def __lt__(self, other):
        return self.sort_key() < other.sort_key()

    def sort_key(self):
        return (len(self.syms), tuple((s.arrow, s.inv) for s in self.syms), self.base or "")

    def source(self, Q):
        if not self.syms:
            return self.base
        return sym_source(Q, self.syms[-1])

    def target(self, Q):
        if not self.syms:
            return self.base
        return sym_target(Q, self.syms[0])

    def __str__(self):
        if not self.syms:
            return f"e_{self.base}"
        return ".".join(str(s) for s in self.syms)

    __repr__ = __str__


def check_composable(Q, syms):
    """Validate that consecutive symbols are composable (right acts first)."""
    for left, right in zip(syms, syms[1:]):
        if sym_source(Q, left) != sym_target(Q, right):
            raise PreconditionError(
                f"non-composable letters {left}.{right}: "
                f"s({left})={sym_source(Q, left)} != t({right})={sym_target(Q, right)}"
            )


def reduce_syms(syms):
    """Cancel adjacent inverse pairs a a^{-1} and a^{-1} a (open word)."""
    out = []
    for s in syms:
        if out and out[-1].arrow == s.arrow and out[-1].inv != s.inv:
            out.pop()
        else:
            out.append(s)
    return tuple(out)


class NCPoly(Combination):
    """Finite Q-linear combination of paths (no zero coefficients stored)."""

    __slots__ = ()

    @staticmethod
    def of_path(p, c=1):
        return NCPoly({p: c})

    def sorted_terms(self):
        return sorted(self.terms.items(), key=lambda t: t[0].sort_key())

    def __str__(self):
        if not self.terms:
            return "0"
        parts = []
        for p, c in self.sorted_terms():
            if c == 1:
                parts.append(str(p))
            elif c == -1:
                parts.append("-" + str(p))
            else:
                parts.append(f"{c}*{p}")
        out = parts[0]
        for piece in parts[1:]:
            out += " - " + piece[1:] if piece.startswith("-") else " + " + piece
        return out

    __repr__ = __str__


class CyclicWord:
    """Rotation class of a closed path, stored as the least rotation."""

    __slots__ = ("syms",)

    def __init__(self, syms):
        self.syms = tuple(syms)

    def __eq__(self, other):
        return isinstance(other, CyclicWord) and self.syms == other.syms

    def __hash__(self):
        return hash(self.syms)

    def __len__(self):
        return len(self.syms)

    def sort_key(self):
        return (len(self.syms), tuple((s.arrow, s.inv) for s in self.syms))

    def __lt__(self, other):
        return self.sort_key() < other.sort_key()

    def __str__(self):
        return ".".join(str(s) for s in self.syms)

    __repr__ = __str__


def _cancel_cyclic(syms):
    """Cancel inverse pairs including across the seam; [] means degenerate."""
    syms = list(reduce_syms(syms))
    while len(syms) >= 2 and syms[0].arrow == syms[-1].arrow and syms[0].inv != syms[-1].inv:
        syms = list(reduce_syms(syms[1:-1]))
    return syms


def least_rotation(syms):
    """The lexicographically least rotation of a word, by (arrow id, inverse
    flag), as a tuple; two words are rotations of each other exactly when
    their least rotations are equal.  No composability is checked."""
    syms = tuple(syms)
    return min((syms[k:] + syms[:k] for k in range(len(syms))), default=())


def cyclic_normal_form(Q, path):
    """Canonical cyclic word of a closed path.

    Cancels a a^{-1} / a^{-1} a pairs (also across the cyclic seam), then
    picks the lexicographically least rotation by (arrow id, inverse flag).
    A word that cancels away entirely is a degenerate (length-0) cycle and
    is an error.
    """
    if path.is_idempotent():
        raise DegenerateTermError("idempotent is not a cyclic word")
    if path.source(Q) != path.target(Q):
        raise PreconditionError(f"path {path} is not closed")
    check_composable(Q, path.syms)
    syms = _cancel_cyclic(path.syms)
    if not syms:
        raise DegenerateTermError(f"cyclic word {path} cancels away completely")
    return CyclicWord(least_rotation(syms))


class Potential(Combination):
    """Finite Q-linear combination of cyclic words."""

    __slots__ = ()

    @staticmethod
    def from_paths(Q, path_coeffs):
        return Potential.from_pairs((cyclic_normal_form(Q, p), c) for p, c in path_coeffs)

    def arrows_used(self):
        out = set()
        for w in self.terms:
            for s in w.syms:
                out.add(s.arrow)
        return out

    def sorted_terms(self):
        return sorted(self.terms.items(), key=lambda t: t[0].sort_key())

    def __str__(self):
        if not self.terms:
            return "0"
        parts = []
        for w, c in self.sorted_terms():
            parts.append(f"{c} * {w}")
        return " + ".join(parts)

    __repr__ = __str__


def cyclic_derivative(Q, W, arrow_id):
    """Cyclic partial derivative of a potential by a forward arrow.

    For each term and each occurrence of the arrow, rotate the cyclic word
    so that occurrence comes first and delete it; the remainder is an open
    path from t(arrow) back to s(arrow) read in word order.
    """

    def terms():
        for w, c in W.terms.items():
            for k, s in enumerate(w.syms):
                if s.arrow == arrow_id and not s.inv:
                    rest = w.syms[k + 1:] + w.syms[:k]  # the word rotated past s
                    if rest:
                        yield Path(reduce_syms(rest)), c
                    else:
                        yield Path.idempotent(Q.arrow(arrow_id).target), c

    return NCPoly.from_pairs(terms())


def substitute_arrow(Q, value, assignments):
    """Simultaneous substitution arrow -> NCPoly in an NCPoly or Potential.

    Replacement polynomials must share source and target with the replaced
    arrow.  Idempotent paths inside replacements act as scalars on the
    neighbouring letters.  Returns the same kind of object as `value`.
    """
    for aid, repl in assignments.items():
        a = Q.arrow(aid)
        for p in repl.terms:
            if p.source(Q) != a.source or p.target(Q) != a.target:
                raise PreconditionError(
                    f"replacement term {p} for {aid} has endpoints "
                    f"{p.source(Q)}->{p.target(Q)}, expected {a.source}->{a.target}"
                )

    def expand_word(syms, coeff):
        """Yield (symbol-tuple, coefficient) after substitution."""
        results = [((), coeff)]
        for s in syms:
            if not s.inv and s.arrow in assignments:
                repl = assignments[s.arrow]
                new = []
                for prefix, c in results:
                    for p, pc in repl.terms.items():
                        new.append((prefix + p.syms, c * pc))
                results = new
                if not results:
                    return []
            else:
                results = [(prefix + (s,), c) for prefix, c in results]
        return results

    def path_terms():
        for p, c in value.terms.items():
            if p.is_idempotent():
                yield p, c
                continue
            src = p.source(Q)
            for syms, cc in expand_word(p.syms, c):
                syms = reduce_syms(syms)
                yield (Path(syms) if syms else Path.idempotent(src)), cc

    def word_terms():
        for w, c in value.terms.items():
            for syms, cc in expand_word(w.syms, c):
                syms = _cancel_cyclic(syms)
                if not syms:
                    raise DegenerateTermError(
                        f"substitution degenerated the cyclic word {w}"
                    )
                yield cyclic_normal_form(Q, Path(syms)), cc

    if isinstance(value, NCPoly):
        return NCPoly.from_pairs(path_terms())
    if isinstance(value, Potential):
        return Potential.from_pairs(word_terms())
    raise InternalConsistencyError(f"cannot substitute into {type(value).__name__}")


def quadratic_two_cycles(Q, W):
    """Length-2 terms b.c of W whose letters are distinct forward arrows."""
    quads = []
    for w, c in W.terms.items():
        if len(w.syms) == 2:
            s1, s2 = w.syms
            if s1.inv or s2.inv or s1.arrow == s2.arrow:
                raise UnsupportedReductionError(f"unsupported quadratic term {w}")
            quads.append((w, c))
    return quads
