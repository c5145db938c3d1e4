"""Double/triple quivers, per-vertex quadratic relations, cuts, and the
compatibility of edge contraction with the loop-cut dimensional reduction.

The double quiver adds a dual arrow a*: j -> i per arrow a: i -> j; the
triple quiver further adds one loop per vertex and carries the cubic
potential sum_a (a.a*.l_{t(a)} - a*.a.l_{s(a)}).  Cutting the loops by
cyclic differentiation yields the per-vertex quadratic relation sets, and
both constructions commute with contracting an arrow a0: the contracted
triple re-expands to the original potential, and eliminating the dual of
a0 from the endpoint relations (conjugating the target-side relation by
a0) reproduces the relations of the contracted double quiver.
"""

from __future__ import annotations

from typing import NamedTuple

from .contraction import contract_potential, contract_quiver, expand_hatted, hat_word
from .errors import PreconditionError
from .paths import (
    CyclicWord,
    NCPoly,
    Path,
    Potential,
    Sym,
    cyclic_derivative,
    least_rotation,
    reduce_syms,
)
from .qp import QuiverWithPotential
from .quiver import Arrow, Quiver, contraction_ends, double_quiver, dual_name


def loop_name(v):
    return f"l_{v}"


def triple_qp(Q):
    """Double quiver plus one loop per vertex, with the cubic potential.

    Each arrow a contributes +a.a*.l_{t(a)} - a*.a.l_{s(a)} (the loop acts
    first in printing order, matching cyclic-word composability).
    """
    D = double_quiver(Q)
    arrows = list(D.arrows) + [Arrow(loop_name(v), v, v) for v in Q.vertices]
    T = Quiver(Q.vertices, arrows, name=f"triple({Q.name})")
    terms = []
    for a in Q.arrows:
        plus = Path((Sym(a.id), Sym(dual_name(a.id)), Sym(loop_name(a.target))))
        minus = Path((Sym(dual_name(a.id)), Sym(a.id), Sym(loop_name(a.source))))
        terms += [(plus, 1), (minus, -1)]
    return QuiverWithPotential(T, Potential.from_paths(T, terms))


class RelationSet(NamedTuple):
    """Per-vertex quadratic relation components, as (vertex, NCPoly) pairs.

    Several entries may share a vertex (e.g. the two loop derivatives at a
    merged vertex); `at` sums every component based at the given vertex.
    """

    entries: tuple

    def at(self, v):
        total = NCPoly.zero()
        for vertex, poly in self.entries:
            if vertex == v:
                total = total + poly
        return total


def cut_relations(Q, W, cut):
    """Cyclic derivatives of W by each cut loop, tagged by the loop's vertex."""
    entries = []
    for lid in cut:
        a = Q.arrow(lid)
        if a.source != a.target:
            raise PreconditionError(f"cut arrow {lid!r} is not a loop")
        entries.append((a.source, cyclic_derivative(Q, W, lid)))
    return RelationSet(tuple(entries))


def preprojective_relations(Q):
    """Per-vertex components of sum_a (a.a* - a*.a) over the double quiver."""

    def terms(v):
        for a in Q.arrows:
            if a.target == v:
                yield Path((Sym(a.id), Sym(dual_name(a.id)))), 1
            if a.source == v:
                yield Path((Sym(dual_name(a.id)), Sym(a.id))), -1

    return RelationSet(tuple((v, NCPoly.from_pairs(terms(v))) for v in Q.vertices))


def contract_triple_check(Q, a0_id):
    """Contracting the triple QP along a0 matches the triple of the
    contracted quiver.

    Two comparisons, both exact: (i) re-expanding every hatted letter of
    the contracted potential into original letters (with cyclic
    cancellation of a0.a0^-1 pairs) recovers the original cubic potential;
    (ii) after renaming dual arrows to the duals of the hatted base arrows
    and fusing the two merged-vertex loops into one, the contracted
    potential equals the cubic potential of the contracted quiver's triple
    -- the two leftover quadratic loop terms cancel each other under the
    fusion, eliminating the dual of a0.
    """
    ip, im = contraction_ends(Q, a0_id)
    T = triple_qp(Q)
    T_hat, hat_map_T, expansion_T = contract_quiver(T.quiver, a0_id)
    lhs = contract_potential(T_hat, T.potential, a0_id, hat_map_T, expansion_T)
    expanded = Potential.from_paths(
        T.quiver, ((Path(expand_hatted(w.syms, expansion_T)), c) for w, c in lhs.terms.items())
    )
    if expanded != T.potential:
        return False
    Qhat, hat_map_Q, _ = contract_quiver(Q, a0_id)
    rhs = triple_qp(Qhat)
    rename = {}
    for a in Q.arrows:
        if a.id == a0_id:
            continue
        rename[hat_map_T[a.id]] = hat_map_Q[a.id]
        rename[hat_map_T[dual_name(a.id)]] = dual_name(hat_map_Q[a.id])
    rename[hat_map_T[loop_name(im)]] = loop_name(ip)
    renamed = Potential.from_pairs(
        (CyclicWord(least_rotation(Sym(rename.get(s.arrow, s.arrow), s.inv) for s in w.syms)), c)
        for w, c in lhs.terms.items()
    )
    return renamed == rhs.potential


def adhm_elimination_check(Q, a0_id):
    """Eliminating the dual of a0 from the endpoint relations reproduces
    the relations of the contracted quiver.

    The source-endpoint relation plus the a0-conjugated target-endpoint
    relation cancels the dual-of-a0 terms; rewriting every word in hatted
    double-quiver letters must then equal the merged-vertex relation of
    the contracted quiver, and the relations away from the endpoints must
    match after the same rewrite, vertex by vertex.
    """
    ip, im = contraction_ends(Q, a0_id)
    D = double_quiver(Q)
    rel = preprojective_relations(Q)
    Qhat, hat_map_Q, _ = contract_quiver(Q, a0_id)
    rhs = preprojective_relations(Qhat)
    _, hat_map_D, expansion_D = contract_quiver(D, a0_id)
    star_fix = {
        hat_map_D[dual_name(a.id)]: dual_name(hat_map_Q[a.id])
        for a in Q.arrows
        if a.id != a0_id
    }

    def rewrite(poly):
        def terms():
            for p, c in poly.terms.items():
                syms = hat_word(p.syms, a0_id, hat_map_D, expansion_D)
                yield Path(tuple(Sym(star_fix.get(s.arrow, s.arrow), s.inv) for s in syms)), c

        return NCPoly.from_pairs(terms())

    def conjugate(poly):
        def terms():
            for p, c in poly.terms.items():
                syms = reduce_syms((Sym(a0_id, True),) + p.syms + (Sym(a0_id),))
                yield (Path(syms) if syms else Path.idempotent(ip)), c

        return NCPoly.from_pairs(terms())

    for v in Q.vertices:
        if v in (ip, im):
            continue
        if rewrite(rel.at(v)) != rhs.at(v):
            return False
    combined = rel.at(ip) + conjugate(rel.at(im))
    for p in combined.terms:
        if all(s.arrow in (a0_id, dual_name(a0_id)) for s in p.syms):
            return False  # the connector terms failed to cancel
    return rewrite(combined) == rhs.at(ip)
