"""Edge contraction of quivers with potential, of representations, Higgsing.

Contracting a non-loop arrow a0: i+ -> i- merges i- into i+ (the surviving
vertex keeps the i+ identifier).  Every other arrow touching i- is replaced
by an a0-composite with a canonical name built from the constituent ids:

    a with s(a) = i-            ->  "a*a0"            (the path a.a0)
    a with t(a) = i-, a != a0   ->  "a0^-1*a"
    loop a at i-                ->  "a0^-1*a*a0"

The potential is rewritten by deleting a0 letters and replacing every other
letter by its hatted arrow; expanding the hatted letters back and cancelling
a0 a0^{-1} pairs recovers the original word, and contract_qp checks exactly
that for every term.
"""

from __future__ import annotations

from fractions import Fraction
from functools import partial, reduce

from .errors import InternalConsistencyError, PreconditionError, UnsupportedReductionError
from .linalg import GF, QQ, mat_inverse, mat_mul
from .paths import Path, Potential, Sym, _cancel_cyclic, cyclic_normal_form, least_rotation
from .qp import QuiverWithPotential, eliminate_pair
from .quiver import Arrow, Quiver, check_dimvec, contraction_ends


def hatted(a, a0_id, i_minus):
    """The name and the letters of the hatted arrow for a.  Its letters, in
    path order, are a0^-1 if a ends at i-, then a, then a0 if a starts at
    i-; its name is those letters joined by *, built alongside them."""
    name, letters = a.id, (Sym(a.id),)
    if a.target == i_minus:
        name, letters = f"{a0_id}^-1*{name}", (Sym(a0_id, True),) + letters
    if a.source == i_minus:
        name, letters = f"{name}*{a0_id}", letters + (Sym(a0_id),)
    return name, letters


def hat_arrow_name(a, a0_id, i_minus):
    """Canonical name of the hatted arrow for a (see ``hatted``)."""
    return hatted(a, a0_id, i_minus)[0]


def contract_quiver(Q, a0_id):
    """The contracted quiver plus the hatted-arrow maps.

    Returns (Qhat, hat_map, expansion) where hat_map sends old arrow ids to
    new ids (a0 absent) and expansion sends new ids to the symbol sequences
    they stand for in the old quiver.
    """
    ip, im = contraction_ends(Q, a0_id)
    vertices = tuple(v for v in Q.vertices if v != im)
    hat_map = {}
    expansion = {}
    arrows = []
    for a in Q.arrows:
        if a.id == a0_id:
            continue
        name, letters = hatted(a, a0_id, im)
        src = ip if a.source == im else a.source
        tgt = ip if a.target == im else a.target
        arrows.append(Arrow(name, src, tgt))
        hat_map[a.id] = name
        expansion[name] = letters
    Qhat = Quiver(vertices, arrows, name=Q.name + "_hat")
    return Qhat, hat_map, expansion


def expand_hatted(syms, expansion):
    """The word with every hatted letter replaced by its original letters."""
    return tuple(x for s in syms for x in expansion[s.arrow])


def hat_word(word_syms, a0_id, hat_map, expansion=None):
    """Rewrite a word of the old quiver in hatted letters.

    Deletes a0 (and a0^{-1}) letters and maps every remaining letter to its
    hatted arrow.  When `expansion` is supplied the rewrite is verified:
    expanding the hatted letters and cancelling must recover the original
    word up to rotation and cancellation.
    """
    out = []
    for s in word_syms:
        if s.arrow == a0_id:
            continue
        if s.inv:
            raise PreconditionError(f"cannot hat the inverse letter {s}")
        out.append(Sym(hat_map[s.arrow]))
    if expansion is not None:
        original = least_rotation(_cancel_cyclic(word_syms))
        if least_rotation(_cancel_cyclic(expand_hatted(out, expansion))) != original:
            raise InternalConsistencyError(
                f"hat rewrite of {'.'.join(map(str, word_syms))} failed verification"
            )
    return tuple(out)


def contract_potential(Qhat, W, a0_id, hat_map, expansion):
    def terms():
        for w, c in W.terms.items():
            syms = hat_word(w.syms, a0_id, hat_map, expansion)
            if not syms:
                raise UnsupportedReductionError(
                    f"potential term {w} contracts to a length-0 cycle"
                )
            yield cyclic_normal_form(Qhat, Path(syms)), c

    return Potential.from_pairs(terms())


def contract_qp(qp, a0_id):
    """Edge contraction of a quiver with potential along a0: i+ -> i-."""
    return _contract_qp(qp, a0_id)[0]


def _contract_qp(qp, a0_id):
    """contract_qp's result and the hat map of its arrows."""
    for w in qp.potential.terms:
        for s in w.syms:
            if s.inv:
                raise PreconditionError("cannot contract a potential with inverse letters")
    Qhat, hat_map, expansion = contract_quiver(qp.quiver, a0_id)
    What = contract_potential(Qhat, qp.potential, a0_id, hat_map, expansion)
    return QuiverWithPotential(Qhat, What, inverted=None), hat_map


def _read_matrix(aid, m, p):
    """The matrix m of arrow aid with every entry read by ``Fraction()``, then
    over F_p taken mod p; an entry whose denominator p divides is refused."""
    try:
        rows = tuple(tuple(map(Fraction, row)) for row in m)
    except (TypeError, ValueError, OverflowError, ZeroDivisionError):
        raise PreconditionError(f"matrix for {aid} is not rows of rationals: {m!r}") from None
    if not p:
        return rows
    if any(x.denominator % p == 0 for row in rows for x in row):
        raise PreconditionError(f"matrix for {aid} has a denominator that {p} divides: {m!r}")
    return tuple(tuple(x.numerator * pow(x.denominator, -1, p) % p for x in row) for row in rows)


class Representation:
    """Matrices over QQ or GF(p) attached to the arrows of a quiver; the
    field is its characteristic (``linalg.QQ`` or a prime).

    The matrix of an arrow a maps the source space into the target space,
    so its shape is dims[t(a)] x dims[s(a)].  It is the one reader of a
    representation's matrices, for ``contract_rep`` and
    ``scattering.hn_filtration``: see ``_read_matrix``.
    """

    __slots__ = ("field", "dims", "mats")

    def __init__(self, field, dims, mats, Q=None):
        self.field = p = field if field == QQ else GF(field)
        self.dims = dict(dims) if Q is None else dims  # validate reads them
        if not isinstance(mats, dict):
            got = type(mats).__name__
            raise PreconditionError(f"representation matrices must be a dict, got {got}")
        self.mats = {k: _read_matrix(k, m, p) for k, m in mats.items()}
        if Q is not None:
            self.validate(Q)

    def validate(self, Q):
        self.dims = check_dimvec(Q, self.dims, "representation dims")
        extra = sorted(set(self.mats) - {a.id for a in Q.arrows}, key=str)
        if extra:
            raise PreconditionError(f"matrices for arrows the quiver does not have: {extra}")
        for a in Q.arrows:
            m = self.mats.get(a.id)
            if m is None:
                raise PreconditionError(f"no matrix for arrow {a.id}")
            rows, cols = self.dims[a.target], self.dims[a.source]
            if len(m) != rows or any(len(row) != cols for row in m):
                raise PreconditionError(f"matrix for {a.id} is not {rows}x{cols}: {m!r}")
        return self


def contract_rep(qp, a0_id, M):
    """Contract a representation along a0 (requires M_{a0} invertible).

    A hatted arrow carries the product of the matrices of its letters
    (``hatted``, with M_{a0}^{-1} for a0^-1): the new arrow "a*a0"
    carries M_a M_{a0}, "a0^-1*a" carries M_{a0}^{-1} M_a, and the loop
    conjugate "a0^-1*a*a0" carries M_{a0}^{-1} M_a M_{a0}.
    """
    Q = qp.quiver
    ip, im = contraction_ends(Q, a0_id)
    if not isinstance(M, Representation):
        raise PreconditionError(f"contract_rep needs a Representation, got {type(M).__name__}")
    M.validate(Q)
    if M.dims[ip] != M.dims[im]:
        raise PreconditionError("M_{a0} is not square: endpoint dimensions differ")
    p = M.field
    try:
        inv0 = mat_inverse(p, M.mats[a0_id])
    except ZeroDivisionError:
        raise PreconditionError(f"M_{{{a0_id}}} is singular; not in the heart locus")
    Qhat, _, expansion = contract_quiver(Q, a0_id)
    dims = {v: M.dims[v] for v in Qhat.vertices}
    mats = {
        name: reduce(partial(mat_mul, p), (inv0 if s.inv else M.mats[s.arrow] for s in letters))
        for name, letters in expansion.items()
    }
    return Representation(p, dims, mats, Q=Qhat)


def higgs(qp, a0_id):
    """Higgsing along a0: integrate out the mass pairs born from cubic
    a0-terms, then contract.

    When a0 only appears in terms of length >= 4 this coincides with
    contract_qp.  A cubic term a0.b.c turns, after contraction, into the
    quadratic 2-cycle bhat.chat, and ``qp.eliminate_pair`` removes exactly
    those pairs.  A born pair with no quadratic term left is skipped: when
    two cubic a0-terms share a letter, eliminating the first pair absorbs
    the second pair's quadratic term, and no mass term is left on that
    pair.  A quadratic term containing a0 would be a mass term for a0
    itself and is unsupported.
    """
    cubic_pairs = []
    for w, _c in qp.potential.terms.items():
        arrows = [s.arrow for s in w.syms]
        if a0_id in arrows:
            if len(w.syms) == 2:
                raise UnsupportedReductionError(
                    f"a0 appears in the quadratic term {w} (mass term for a0)"
                )
            if len(w.syms) == 3:
                others = [a for a in arrows if a != a0_id]
                cubic_pairs.append(tuple(sorted(others)))
    cur, hat_map = _contract_qp(qp, a0_id)
    for x, y in cubic_pairs:
        pair = tuple(sorted((hat_map[x], hat_map[y])))
        quads = [
            (w, c)
            for w, c in cur.potential.terms.items()
            if len(w.syms) == 2 and tuple(sorted(s.arrow for s in w.syms)) == pair
        ]
        if quads:
            cur = eliminate_pair(cur, *quads[0])
    return cur
