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

from .errors import InternalConsistencyError, PreconditionError, UnsupportedReductionError
from .linalg import GF, QQ, mat_inverse, mat_mul
from .paths import Path, Potential, Sym, _cancel_cyclic, cyclic_normal_form
from .qp import QuiverWithPotential, delete_arrows
from .quiver import Arrow, Quiver


def hat_arrow_name(a, a0_id, i_minus):
    """Canonical name of the hatted arrow for a (an Arrow touching i-)."""
    if a.source == i_minus and a.target == i_minus:
        return f"{a0_id}^-1*{a.id}*{a0_id}"
    if a.source == i_minus:
        return f"{a.id}*{a0_id}"
    if a.target == i_minus:
        return f"{a0_id}^-1*{a.id}"
    return a.id


def contract_quiver(Q, a0_id):
    """The contracted quiver plus the hatted-arrow maps.

    Returns (Qhat, hat_map, expansion) where hat_map sends old arrow ids to
    new ids (a0 absent) and expansion sends new ids to the symbol sequences
    they stand for in the old quiver.
    """
    a0 = Q.arrow(a0_id)
    if a0.source == a0.target:
        raise PreconditionError(f"cannot contract the loop {a0_id!r}")
    ip, im = a0.source, a0.target
    vertices = tuple(v for v in Q.vertices if v != im)
    hat_map = {}
    expansion = {}
    arrows = []
    for a in Q.arrows:
        if a.id == a0_id:
            continue
        name = hat_arrow_name(a, a0_id, im)
        src = ip if a.source == im else a.source
        tgt = ip if a.target == im else a.target
        arrows.append(Arrow(name, src, tgt))
        hat_map[a.id] = name
        if a.source == im and a.target == im:
            expansion[name] = (Sym(a0_id, True), Sym(a.id), Sym(a0_id))
        elif a.source == im:
            expansion[name] = (Sym(a.id), Sym(a0_id))
        elif a.target == im:
            expansion[name] = (Sym(a0_id, True), Sym(a.id))
        else:
            expansion[name] = (Sym(a.id),)
    Qhat = Quiver(vertices, arrows, name=Q.name + "_hat")
    return Qhat, hat_map, expansion


def _cyclic_equal(syms1, syms2):
    s1, s2 = list(syms1), list(syms2)
    if len(s1) != len(s2):
        return False
    if not s1:
        return True
    return any(s1[k:] + s1[:k] == s2 for k in range(len(s1)))


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
        expanded = []
        for s in out:
            expanded.extend(expansion[s.arrow])
        if not _cyclic_equal(_cancel_cyclic(expanded), _cancel_cyclic(list(word_syms))):
            raise InternalConsistencyError(
                f"hat rewrite of {'.'.join(map(str, word_syms))} failed verification"
            )
    return tuple(out)


def contract_potential(Q, Qhat, W, a0_id, hat_map, expansion):
    What = Potential.zero()
    for w, c in W.terms.items():
        syms = hat_word(w.syms, a0_id, hat_map, expansion)
        if not syms:
            raise UnsupportedReductionError(
                f"potential term {w} contracts to a length-0 cycle"
            )
        What = What + Potential.of_word(cyclic_normal_form(Qhat, Path(syms)), c)
    return What


def contract_qp(qp, a0_id):
    """Edge contraction of a quiver with potential along a0: i+ -> i-."""
    Q = qp.quiver
    for w in qp.potential.terms:
        for s in w.syms:
            if s.inv:
                raise PreconditionError("cannot contract a potential with inverse letters")
    Qhat, hat_map, expansion = contract_quiver(Q, a0_id)
    What = contract_potential(Q, Qhat, qp.potential, a0_id, hat_map, expansion)
    return QuiverWithPotential(Qhat, What, inverted=None)


class Representation:
    """Matrices over QQ or GF(p) attached to the arrows of a quiver; the
    field is its characteristic (``linalg.QQ`` or a prime).

    The matrix of an arrow a maps the source space into the target space,
    so its shape is dims[t(a)] x dims[s(a)].
    """

    __slots__ = ("field", "dims", "mats")

    def __init__(self, field, dims, mats, Q=None):
        self.field = p = field if field == QQ else GF(field)
        conv = (lambda x: int(x) % p) if p else Fraction
        self.dims = dict(dims)
        self.mats = {k: tuple(tuple(map(conv, row)) for row in m) for k, m in mats.items()}
        if Q is not None:
            self.validate(Q)

    def validate(self, Q):
        if set(self.dims) != set(Q.vertices):
            raise PreconditionError("representation dims not keyed by the vertex set")
        for a in Q.arrows:
            m = self.mats.get(a.id)
            if m is None:
                raise PreconditionError(f"no matrix for arrow {a.id}")
            rows, cols = len(m), len(m[0]) if m else 0
            if rows != self.dims[a.target] or (rows and cols != self.dims[a.source]):
                raise PreconditionError(
                    f"matrix for {a.id} has shape {rows}x{cols}, expected "
                    f"{self.dims[a.target]}x{self.dims[a.source]}"
                )
        return self


def contract_rep(qp, a0_id, M):
    """Contract a representation along a0 (requires M_{a0} invertible).

    Composite arrows multiply matrices: the new arrow "a*a0" carries
    M_a M_{a0}, "a0^-1*a" carries M_{a0}^{-1} M_a, and the loop conjugate
    "a0^-1*a*a0" carries M_{a0}^{-1} M_a M_{a0}.
    """
    Q = qp.quiver
    a0 = Q.arrow(a0_id)
    ip, im = a0.source, a0.target
    M.validate(Q)
    if M.dims[ip] != M.dims[im]:
        raise PreconditionError("M_{a0} is not square: endpoint dimensions differ")
    p = M.field
    try:
        inv0 = mat_inverse(p, M.mats[a0_id])
    except ZeroDivisionError:
        raise PreconditionError(f"M_{{{a0_id}}} is singular; not in the heart locus")
    Qhat, hat_map, _ = contract_quiver(Q, a0_id)
    dims = {v: M.dims[v] for v in Qhat.vertices}
    mats = {}
    for a in Q.arrows:
        if a.id == a0_id:
            continue
        m = M.mats[a.id]
        if a.source == im and a.target == im:
            new = mat_mul(p, mat_mul(p, inv0, m), M.mats[a0_id])
        elif a.source == im:
            new = mat_mul(p, m, M.mats[a0_id])
        elif a.target == im:
            new = mat_mul(p, inv0, m)
        else:
            new = m
        mats[hat_map[a.id]] = new
    return Representation(p, dims, mats, Q=Qhat)


def higgs(qp, a0_id):
    """Higgsing along a0: integrate out the mass pairs born from cubic
    a0-terms, then contract.

    When a0 only appears in terms of length >= 4 this coincides with
    contract_qp.  A cubic term a0.b.c turns, after contraction, into the
    quadratic 2-cycle bhat.chat; the mass-integration recipe (cyclic
    derivatives with respect to the pair, substitute the negated remainders,
    delete the pair) is applied to exactly those pairs.  A quadratic term
    containing a0 would be a mass term for a0 itself and is unsupported.
    """
    Q = qp.quiver
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
    hatted = contract_qp(qp, a0_id)
    if not cubic_pairs:
        return hatted
    # eliminate exactly the quadratic 2-cycles descending from cubic a0-terms
    from .paths import NCPoly, cyclic_derivative, substitute_arrow

    cur = hatted
    _, hat_map, _ = contract_quiver(Q, a0_id)
    remaining = [tuple(sorted((hat_map[x], hat_map[y]))) for x, y in cubic_pairs]
    for pair in remaining:
        quads = [
            (w, c)
            for w, c in cur.potential.terms.items()
            if len(w.syms) == 2 and tuple(sorted(s.arrow for s in w.syms)) == pair
        ]
        if not quads:
            raise UnsupportedReductionError(
                f"expected a quadratic term on the pair {pair}; found none"
            )
        w, coeff = quads[0]
        if coeff not in (1, -1):
            raise UnsupportedReductionError(
                f"quadratic term {w} has non-unit coefficient {coeff}"
            )
        s1, s2 = w.syms
        b, c = s1.arrow, s2.arrow
        W = cur.potential.scale(1 / coeff) if coeff != 1 else cur.potential
        db = cyclic_derivative(cur.quiver, W, b)
        dc = cyclic_derivative(cur.quiver, W, c)
        W1 = db - NCPoly.of_path(Path((Sym(c),)))
        W2 = dc - NCPoly.of_path(Path((Sym(b),)))
        Wnew = substitute_arrow(cur.quiver, cur.potential, {c: -W1, b: -W2})
        for w2 in Wnew.terms:
            if any(s.arrow in (b, c) for s in w2.syms):
                raise UnsupportedReductionError(
                    f"mass integration left the eliminated arrow in {w2}"
                )
        cur = QuiverWithPotential(delete_arrows(cur.quiver, {b, c}), Wnew)
    return cur
