"""Vertex premutation/mutation of quivers with potential, and the check
that the three-step mutation sequence at a contracted edge matches the
single mutation at the merged vertex of the contracted quiver.

Premutation at a vertex i reverses every arrow incident to i, adds one
composite arrow [b*a] for each length-2 path a-then-b through i, rewrites
the potential by fusing through-i letter pairs into the composites, and
appends the cubic terms [ba].a*.b*.  Mutation is premutation followed by
trivial-part reduction.
"""

from __future__ import annotations

from typing import NamedTuple

from .contraction import contract_qp, hat_arrow_name
from .errors import InternalConsistencyError, PreconditionError
from .paths import Path, Potential, Sym, cyclic_normal_form
from .qp import QuiverWithPotential, reduce_trivial
from .quiver import Arrow, Quiver, contraction_ends


def reversed_name(aid):
    """Name of the reversal of arrow `aid`; reversing twice restores it."""
    return aid[:-1] if aid.endswith("*") else aid + "*"


def composite_name(out_id, in_id):
    """Name of the composite arrow standing for out.in (in acts first)."""
    return f"[{out_id}*{in_id}]"


def _check_mutable(Q, i):
    if i not in Q.vertices:
        raise PreconditionError(f"no vertex named {i!r}")
    if Q.loops_at(i):
        raise PreconditionError(f"cannot mutate at {i!r}: it carries a loop")
    if Q.two_cycles_through(i):
        raise PreconditionError(
            f"cannot mutate at {i!r}: a two-cycle passes through it"
        )


def _bracket_syms(Q, syms, i):
    """Fuse each adjacent letter pair passing through i into its composite.

    In printing order the left letter of a through-i pair leaves i and the
    right letter enters it; with no loops and no two-cycles at i the pairs
    never overlap, so a single wrap-aware sweep rewrites the cyclic word.
    """
    k = len(syms)
    arrows = [Q.arrow(s.arrow) for s in syms]
    pair_at = {
        j
        for j in range(k)
        if arrows[j].source == i and arrows[(j + 1) % k].target == i
    }
    if not pair_at:
        return tuple(syms)
    second = {(j + 1) % k for j in pair_at}
    start = next((j for j in range(k) if j not in second), None)
    if start is None:
        raise InternalConsistencyError(
            f"every letter of {'.'.join(str(s) for s in syms)} enters {i!r}"
        )
    out = []
    j = start
    consumed = 0
    while consumed < k:
        if j in pair_at:
            nxt = (j + 1) % k
            out.append(Sym(composite_name(syms[j].arrow, syms[nxt].arrow)))
            j = (j + 2) % k
            consumed += 2
        else:
            out.append(syms[j])
            j = (j + 1) % k
            consumed += 1
    return tuple(out)


def premutate(qp, i):
    """Reverse the arrows at i, add through-i composites, rewrite W.

    The new potential is the bracketed potential (through-i pairs fused)
    plus one term [ba].a*.b* with coefficient +1 per composite, in that
    letter order.
    """
    Q = qp.quiver
    if qp.inverted is not None:
        raise PreconditionError(
            "cannot premutate a potential with a formally inverted arrow"
        )
    _check_mutable(Q, i)
    ins = [a for a in Q.arrows if a.target == i]
    outs = [a for a in Q.arrows if a.source == i]
    new_arrows = []
    for a in Q.arrows:
        if i in (a.source, a.target):
            new_arrows.append(Arrow(reversed_name(a.id), a.target, a.source))
        else:
            new_arrows.append(a)
    for b in outs:
        for a in ins:
            new_arrows.append(Arrow(composite_name(b.id, a.id), a.source, b.target))
    Qm = Quiver(Q.vertices, new_arrows, name=f"premut_{i}({Q.name})")
    terms = [(Path(_bracket_syms(Q, w.syms, i)), c) for w, c in qp.potential.terms.items()]
    for b in outs:
        for a in ins:
            ba, a_star, b_star = composite_name(b.id, a.id), reversed_name(a.id), reversed_name(b.id)
            terms.append((Path((Sym(ba), Sym(a_star), Sym(b_star))), 1))
    return QuiverWithPotential(Qm, Potential.from_paths(Qm, terms))


class MutationReport(NamedTuple):
    """Mutation at a vertex: premutation followed by trivial reduction."""

    input: QuiverWithPotential
    vertex: str
    premutated: QuiverWithPotential
    reduced: QuiverWithPotential
    naming: dict


def mutate(qp, i):
    """Mutation at i with a report mapping surviving old arrows to new ids."""
    pre = premutate(qp, i)
    red = reduce_trivial(pre)
    naming = {}
    for a in qp.quiver.arrows:
        nid = reversed_name(a.id) if i in (a.source, a.target) else a.id
        if red.quiver.has_arrow(nid):
            naming[a.id] = nid
    if len(set(naming.values())) != len(naming):
        raise InternalConsistencyError("mutation naming map is not injective")
    return MutationReport(qp, i, pre, red, naming)


class TheoremReport(NamedTuple):
    """Outcome of the three-step/one-step mutation comparison.

    `lhs` is the contracted three-step side already renamed into the
    vocabulary of `rhs` (the mutation of the contracted QP); `diff` is an
    empty string on success and a human-readable discrepancy list otherwise.
    """

    ok: bool
    case: str
    lhs: QuiverWithPotential
    rhs: QuiverWithPotential
    diff: str


def _correspondence(Q, a0_id, ip, im, case, alpha):
    """Rename map (three-step side -> merged side) plus sign-twisted ids.

    Built from the original arrows by replaying the deterministic naming of
    the three premutations, the reductions, and the final contraction along
    `alpha`.  One family of correspondents carries a -1 scalar twist: the
    images of the extra arrows into i- (case A) or out of i+ (case B).
    """
    rename = {}
    twisted = set()
    ins_ip = [a for a in Q.arrows if a.target == ip]
    ins_im = [a for a in Q.arrows if a.target == im and a.id != a0_id]
    outs_im = [a for a in Q.arrows if a.source == im]
    outs_ip = [a for a in Q.arrows if a.source == ip and a.id != a0_id]
    for a in Q.arrows:
        if a.id != a0_id and ip not in (a.source, a.target) and im not in (
            a.source,
            a.target,
        ):
            rename[a.id] = a.id

    def hat(aid):
        # name of the original arrow `aid` inside the contracted quiver
        return hat_arrow_name(Q.arrow(aid), a0_id, im)

    if case == "A":
        for a in ins_ip:
            rename[reversed_name(composite_name(a0_id, a.id))] = reversed_name(a.id)
        for b in ins_im:
            inner = reversed_name(composite_name(reversed_name(a0_id), b.id))
            lhs_name = f"{inner}*{alpha}"
            rename[lhs_name] = reversed_name(hat(b.id))
            twisted.add(lhs_name)
        for c in outs_im:
            rename[reversed_name(c.id)] = reversed_name(hat(c.id))
        for c in outs_im:
            for b in ins_im:
                rename[composite_name(c.id, b.id)] = composite_name(
                    hat(c.id), hat(b.id)
                )
            for a in ins_ip:
                rename[composite_name(c.id, composite_name(a0_id, a.id))] = (
                    composite_name(hat(c.id), a.id)
                )
    else:
        for a in ins_ip:
            rename[f"{reversed_name(a.id)}*{alpha}"] = reversed_name(a.id)
        for c in outs_im:
            inner = reversed_name(composite_name(c.id, a0_id))
            rename[f"{alpha}^-1*{inner}"] = reversed_name(hat(c.id))
        for d in outs_ip:
            lhs_name = reversed_name(composite_name(d.id, reversed_name(a0_id)))
            rename[lhs_name] = reversed_name(d.id)
            twisted.add(lhs_name)
        for c in outs_im:
            for a in ins_ip:
                rename[composite_name(composite_name(c.id, a0_id), a.id)] = (
                    composite_name(hat(c.id), a.id)
                )
        for d in outs_ip:
            for a in ins_ip:
                rename[composite_name(d.id, a.id)] = composite_name(d.id, a.id)
    return rename, twisted


def _apply_renaming(qp, rename, twisted, vertex_map):
    Q = qp.quiver
    vertices = [vertex_map.get(v, v) for v in Q.vertices]
    arrows = [
        Arrow(
            rename.get(a.id, a.id),
            vertex_map.get(a.source, a.source),
            vertex_map.get(a.target, a.target),
        )
        for a in Q.arrows
    ]
    Qr = Quiver(vertices, arrows, name=Q.name)

    def terms():
        for w, c in qp.potential.terms.items():
            sign = -1 if sum(1 for s in w.syms if s.arrow in twisted) % 2 else 1
            syms = tuple(Sym(rename.get(s.arrow, s.arrow), s.inv) for s in w.syms)
            yield cyclic_normal_form(Qr, Path(syms)), c * sign

    return QuiverWithPotential(Qr, Potential.from_pairs(terms()))


def _qp_diff(lhs, rhs):
    msgs = []
    lv, rv = set(lhs.quiver.vertices), set(rhs.quiver.vertices)
    if lv != rv:
        msgs.append(f"vertex sets differ: {sorted(lv)} vs {sorted(rv)}")
    la = {(a.id, a.source, a.target) for a in lhs.quiver.arrows}
    ra = {(a.id, a.source, a.target) for a in rhs.quiver.arrows}
    for entry in sorted(la - ra):
        msgs.append(f"extra arrow on the three-step side: {entry}")
    for entry in sorted(ra - la):
        msgs.append(f"missing arrow on the three-step side: {entry}")
    if not msgs and lhs.potential != rhs.potential:
        msgs.append(
            f"potential difference (three-step - merged): "
            f"{lhs.potential - rhs.potential}"
        )
    return (not msgs), "\n".join(msgs)


def theorem_check_366(qp, a0_id):
    """Compare the three-step mutation sequence at a contracted edge with
    the single mutation of the contracted QP at the merged vertex.

    Case A (i+ sources only a0) runs mutations at i+, i-, i+; case B
    (i- targets only a0) runs them at i-, i+, i-.  The three-step result is
    contracted along the final reversed connector and renamed through the
    documented arrow correspondence, which twists one arrow family by -1.
    """
    Q = qp.quiver
    ip, im = contraction_ends(Q, a0_id)
    loops = [a.id for a in Q.arrows if a.source == a.target]
    if loops:
        raise PreconditionError(f"quiver must be loop-free, found {loops}")
    for v in (ip, im):
        if Q.two_cycles_through(v):
            raise PreconditionError(f"two-cycle through endpoint {v!r}")
    hat = contract_qp(qp, a0_id)
    if hat.quiver.loops_at(ip):
        raise PreconditionError(
            "contraction creates a loop at the merged vertex "
            "(extra arrows between the endpoints)"
        )
    if hat.quiver.two_cycles_through(ip):
        raise PreconditionError(
            "two-cycle through the merged vertex of the contracted quiver "
            "(a length-three cycle through the contracted edge upstream)"
        )
    outs_ip = [a for a in Q.arrows if a.source == ip and a.id != a0_id]
    ins_im = [a for a in Q.arrows if a.target == im and a.id != a0_id]
    if not outs_ip:
        case, seq = "A", (ip, im, ip)
    elif not ins_im:
        case, seq = "B", (im, ip, im)
    else:
        raise PreconditionError(
            "need the contracted arrow to be the only one out of its source "
            "(case A) or the only one into its target (case B)"
        )
    cur = qp
    for v in seq:
        cur = mutate(cur, v).reduced
    conns = [a for a in cur.quiver.arrows if {a.source, a.target} == {ip, im}]
    if len(conns) != 1 or conns[0].source != im or conns[0].target != ip:
        raise InternalConsistencyError(
            f"expected a single reversed connector after three steps, got "
            f"{[(a.id, a.source, a.target) for a in conns]}"
        )
    alpha = conns[0].id
    lhs = contract_qp(cur, alpha)
    rhs = mutate(hat, ip).reduced
    rename, twisted = _correspondence(Q, a0_id, ip, im, case, alpha)
    lhs_renamed = _apply_renaming(lhs, rename, twisted, {im: ip})
    ok, diff = _qp_diff(lhs_renamed, rhs)
    return TheoremReport(ok, case, lhs_renamed, rhs, diff)
