"""Quivers, dimension/framing vectors, Euler forms, derived quivers.

A quiver is a finite directed multigraph.  Vertices and arrows are
identified by strings; the vertex order is fixed at construction and all
canonical printing depends on it.  The arrow-count matrix a_ij is computed
on demand from the arrow list, never stored.
"""

from __future__ import annotations

from typing import NamedTuple

from .errors import DimensionVectorError, PreconditionError

STAR = "*"  # suffix marking a reversed (dual) arrow


class Arrow(NamedTuple):
    id: str
    source: str
    target: str


class Quiver:
    """Finite directed multigraph with ordered string-identified vertices."""

    # arrow id -> contracted quiver; shuffle.contract_shuffle gives a quiver
    # its own dict on first use, so quivers never contracted carry none
    _contracted = None
    # (rank vector, degree) -> reduced Schur basis of the spherical span;
    # shuffle.spherical_membership gives a quiver its own dict on first use
    _spherical_bases = None
    # arrow id -> arrow, built by the first ``arrow`` or ``has_arrow`` call
    _by_id = None

    def __init__(self, vertices, arrows, name="Q"):
        self.name = name
        self.vertices = tuple(vertices)
        if len(set(self.vertices)) != len(self.vertices):
            raise PreconditionError("duplicate vertex identifiers")
        vset = set(self.vertices)
        arrs = []
        for a in arrows:
            if not isinstance(a, Arrow):
                a = Arrow(*a)
            if a.source not in vset or a.target not in vset:
                raise PreconditionError(
                    f"arrow {a.id}: endpoint not a vertex ({a.source} -> {a.target})"
                )
            arrs.append(a)
        self.arrows = tuple(arrs)
        ids = [a.id for a in self.arrows]
        if len(set(ids)) != len(ids):
            raise PreconditionError("duplicate arrow identifiers")

    def __repr__(self):
        return f"Quiver({self.name}: {len(self.vertices)} vertices, {len(self.arrows)} arrows)"

    def __eq__(self, other):
        return (
            isinstance(other, Quiver)
            and self.vertices == other.vertices
            and sorted(self.arrows) == sorted(other.arrows)
        )

    def __hash__(self):
        return hash((self.vertices, tuple(sorted(self.arrows))))

    def arrow(self, aid):
        if not self.has_arrow(aid):
            raise PreconditionError(f"no arrow named {aid!r}")
        return self._by_id[aid]

    def has_arrow(self, aid):
        if self._by_id is None:
            self._by_id = {a.id: a for a in self.arrows}
        return aid in self._by_id

    def arrows_from(self, v):
        return [a for a in self.arrows if a.source == v]

    def loops_at(self, v):
        return [a for a in self.arrows if a.source == v and a.target == v]

    def arrow_count(self, i, j):
        """Number a_ij of arrows from vertex i to vertex j."""
        return sum(1 for a in self.arrows if a.source == i and a.target == j)

    def two_cycles_through(self, v):
        """Pairs (a, b) with a: v -> w, b: w -> v (w != v)."""
        pairs = []
        for a in self.arrows_from(v):
            if a.target == v:
                continue
            for b in self.arrows_from(a.target):
                if b.target == v:
                    pairs.append((a, b))
        return pairs


def check_dimvec(Q, g, what="dimension vector"):
    """Validate that g is keyed exactly by Q's vertices, values >= 0."""
    if set(g) != set(Q.vertices):
        keys = sorted(g, key=str)  # keys and vertices of mixed types sort as text
        raise DimensionVectorError(f"{what} keys {keys} != vertices {sorted(Q.vertices, key=str)}")
    for v, n in g.items():
        if not isinstance(n, int) or n < 0:
            raise DimensionVectorError(f"{what} entry {v}={n!r} not a non-negative integer")


def euler_form(Q, g1, g2):
    """Euler form  -sum_{i,j} a_ij g1^i g2^j + sum_i g1^i g2^i  (exact int)."""
    check_dimvec(Q, g1)
    check_dimvec(Q, g2)
    total = sum(g1[v] * g2[v] for v in Q.vertices)
    for a in Q.arrows:
        total -= g1[a.source] * g2[a.target]
    return total


def antisym_form(Q, g1, g2):
    """Antisymmetrized Euler form  <g1,g2> = chi(g1,g2) - chi(g2,g1)."""
    return euler_form(Q, g1, g2) - euler_form(Q, g2, g1)


def dual_name(aid):
    """Name of the added dual arrow (always a fresh suffix, not an involution)."""
    return aid + STAR


def double_quiver(Q):
    """Q plus a reversed arrow a*: j -> i for every arrow a: i -> j."""
    doubled = list(Q.arrows) + [Arrow(dual_name(a.id), a.target, a.source) for a in Q.arrows]
    return Quiver(Q.vertices, doubled, name=Q.name + "_double")


def contraction_ends(Q, a0_id):
    """The ends (i+, i-) of the contracted arrow a0: i+ -> i-; a loop has
    no contraction."""
    a0 = Q.arrow(a0_id)
    if a0.source == a0.target:
        raise PreconditionError(f"cannot contract the loop {a0_id!r}")
    return a0.source, a0.target


def check_equal_rank(gamma, ip, im):
    """Contraction keeps only the equal-rank sector gamma^{i+} = gamma^{i-}."""
    if gamma[ip] != gamma[im]:
        raise PreconditionError(
            f"equal-rank precondition: gamma[{ip}]={gamma[ip]} != gamma[{im}]={gamma[im]}"
        )


def contract_vectors(Q, a0_id, g, w):
    """Dimension and framing vector of the contracted quiver.

    The contracted arrow a0: i+ -> i- must have g^{i+} = g^{i-}; the i-
    entry is dropped and the framing entries of the merged endpoints add:
    w^{i0} = w^{i+} + w^{i-}.
    """
    ip, im = contraction_ends(Q, a0_id)
    check_dimvec(Q, g)
    check_dimvec(Q, w, what="framing vector")
    check_equal_rank(g, ip, im)
    ghat = {v: g[v] for v in Q.vertices if v != im}
    what = {v: w[v] for v in Q.vertices if v != im}
    what[ip] = w[ip] + w[im]
    return ghat, what
