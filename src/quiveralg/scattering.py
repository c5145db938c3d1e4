"""Truncated quantum torus, wall complexes, path-ordered products, King
stability brute force over small finite fields, and the stability-space
embedding attached to an edge contraction.

Conventions used throughout this module:

- Dimension vectors gamma and stability vectors kappa are tuples of
  integers / rationals aligned with ``Q.vertices`` order (the operations
  that relate two different quivers -- ``eta_embed``, ``lift_gamma`` --
  use vertex-keyed dicts instead, to keep the slot correspondence
  explicit).
- Quantum torus elements are finite sums of symbols e_gamma with
  coefficients that are Laurent polynomials in a formal square root L½ of
  the weight symbol, stored as one ``poly.Combination`` keyed by
  (gamma, exponent of L *in half units*).  The product rule is
  e_g1 * e_g2 = L^(-chi(g1,g2)) e_(g1+g2), truncated to total dimension
  <= k, with chi the quiver's Euler form.
- Stability verdicts are only ever produced by explicit enumeration over
  F_p and are reported per sample point, never extrapolated.

King's criterion is searched by brute force, pruned by dimension vector: a
representation of dimension gamma is unstable exactly when it has an
arrow-stable subspace tuple whose dimension vector d <= gamma has
kappa(d) > 0.  That "destabilizing" set is read off one cached table of the
d <= gamma with an integer positive multiple of kappa (a "direction"), and
each d comes with its own cached search: the subspaces of rank d at every
vertex and the arrows that can fail, those whose source subspace is not
zero and whose target subspace is not everything.  When a d has no such
arrow, every representation has a subrepresentation of dimension d, and
the verdict is false with no enumeration.  Otherwise representations are
enumerated lazily, in a fixed order that decides the witness, and
``_stable_tuples``, the one stability check (it also serves
``hn_filtration``), chooses subspaces vertex by vertex and checks each
arrow once both its ends are chosen.  A representation's images M u are
computed once for all of its searches, and membership in a subspace
(``linalg.in_span``) rebuilds the image from its entries at the pivots.
The verdict depends on kappa only through the destabilizing set, and on
the quiver only through the arrows with both ends in the support of gamma
(an arrow that touches a zero-rank vertex has an empty matrix).  So
``wall_support_scan`` and ``eta_embedding_check`` read each verdict from
one bounded, process-wide table (``_support_verdict``) keyed by those
arrows, renumbered and without ids, gamma on its support, the set as a bit
mask over ``_dims_below(gamma)`` (``_mask``), and p.  An empty mask is true
with no table; that covers every gamma at one vertex, which a scan decides
itself.  On a miss, a d with no arrow that can fail makes the verdict false
with no enumeration (``_searches``); otherwise ``_first_semistable``, the
one enumeration loop, searches.  ``king_semistable_exists``, the witness
API, runs the same loop on the whole quiver and never reads the table.
The caps only gate whether a search may run, so scans and eta checks
still check them before their first query.  Scans and eta checks stay in
integers: a scan projects every sample to an integer direction and removes
repeats there, and the eta check lifts directions by ``_eta_lift``;
Fractions are built only for the kappas a scan reports.
"""

from __future__ import annotations

import itertools
import math
import operator
from fractions import Fraction
from functools import lru_cache
from typing import NamedTuple

from .contraction import contract_quiver
from .errors import InternalConsistencyError, PreconditionError, ScopeError
from .linalg import in_span, mat_vec, reduce
from .poly import Combination
from .quiver import contraction_ends, euler_form

DEFAULT_KPARAM_GRID = (
    Fraction(1, 4),
    Fraction(1, 3),
    Fraction(1, 2),
    Fraction(1),
    Fraction(2),
    Fraction(3),
    Fraction(4),
)


class Limits(NamedTuple):
    """Caps of the brute-force King searches, the primes they search over,
    and the quantum-torus truncation of the verification suites.  The CLI
    builds one per command from the environment; library calls take
    ``LIMITS`` unless given another."""

    max_total_dim: int = 4  # total dimension of any enumerated representation
    max_enumeration: int = 1 << 16  # representations one existence query may touch
    fields: tuple = (2, 3)
    truncation: int = 3


LIMITS = Limits()


# --------------------------------------------------------------------------
# vectors


def _by_vertices(Q, vec):
    """Accept a vertex-keyed mapping alongside plain sequences."""
    if not isinstance(vec, dict):
        return vec
    missing = [v for v in Q.vertices if v not in vec]
    extra = [k for k in vec if k not in set(Q.vertices)]
    if missing or extra:
        raise PreconditionError(
            f"vector keys do not match the vertices (missing {missing}, extra {extra})"
        )
    return tuple(vec[v] for v in Q.vertices)


def _vec(Q, v):
    """A rational vector: int entries as they are, the others as Fractions."""
    try:
        t = tuple(x if type(x) is int else Fraction(x) for x in _by_vertices(Q, v))
    except (TypeError, ValueError, OverflowError) as exc:
        raise PreconditionError(f"vector {v} has an entry that is not rational: {exc}") from None
    if len(t) != len(Q.vertices):
        raise PreconditionError(
            f"vector {v} has {len(t)} slots, quiver has {len(Q.vertices)} vertices"
        )
    return t


def _gamma_tuple(Q, gamma):
    return _dimensions(gamma, tuple(_by_vertices(Q, gamma)), len(Q.vertices))


def _dimensions(gamma, entries, slots=None):
    """The entries of the dimension vector ``gamma`` as ints: each must be
    an integer (equal to its ``int``) and non-negative, and there must be
    ``slots`` of them when that is given."""
    try:
        t = tuple(map(int, entries))
    except (TypeError, ValueError, OverflowError):
        t = None
    if t != entries:
        raise PreconditionError(f"dimension vector {gamma} has an entry that is not an integer")
    if slots is not None and len(t) != slots:
        raise PreconditionError(
            f"dimension vector {gamma} has {len(t)} slots, quiver has {slots} vertices"
        )
    if any(x < 0 for x in t):
        raise PreconditionError(f"dimension vector {gamma} has a negative entry")
    return t


def _gamma_dict(Q, t):
    return dict(zip(Q.vertices, t))


def dot(u, v):
    if len(u) != len(v):
        raise PreconditionError(f"dot of vectors of different lengths: {u} . {v}")
    return sum(Fraction(a) * Fraction(b) for a, b in zip(u, v))


def _chi(Q, g1, g2):
    return euler_form(Q, _gamma_dict(Q, g1), _gamma_dict(Q, g2))


# --------------------------------------------------------------------------
# the truncated quantum torus


def _half_exponent(h):
    """h, an exponent of L in half units, which must be an int."""
    if not isinstance(h, int):
        raise PreconditionError(f"half exponent {h!r} is not an integer")
    return h


def _poly_str(p):
    if not p:
        return "0"
    parts = []
    for h in sorted(p):
        c = p[h]
        if h == 0:
            parts.append(str(c))
            continue
        e = "L" if h == 2 else (f"L^{h // 2}" if h % 2 == 0 else f"L^({Fraction(h, 2)})")
        parts.append(e if c == 1 else (f"-{e}" if c == -1 else f"{c}*{e}"))
    return " + ".join(parts).replace("+ -", "- ")


class QuantumTorusElement(Combination):
    """Finite sum of L^(h/2) e_gamma over a fixed quiver.

    ``terms`` maps (gamma, h) to a non-zero Fraction: gamma is a dimension
    tuple in ``quiver.vertices`` order and h the exponent of L in half
    units.  The scalar part is the coefficient of e_0, a Laurent polynomial
    {h: Fraction}.
    """

    __slots__ = ("quiver",)

    def __init__(self, quiver, terms=None):
        super().__init__(
            {(_gamma_tuple(quiver, g), _half_exponent(h)): c for (g, h), c in terms.items()}
            if terms else None
        )
        self.quiver = quiver

    def _of(self, terms):
        """An element over this one's quiver.  An instance method, so the
        inherited ``from_pairs`` and classmethod ``zero``, which have no
        quiver to give, cannot build an element."""
        out = QuantumTorusElement.__new__(QuantumTorusElement)
        out.quiver, out.terms = self.quiver, terms
        return out

    @staticmethod
    def zero(Q):
        return QuantumTorusElement(Q)

    @staticmethod
    def one(Q):
        return QuantumTorusElement.generator(Q, (0,) * len(Q.vertices))

    @staticmethod
    def generator(Q, gamma, coeff=1, halfexp=0):
        return QuantumTorusElement(Q, {(tuple(gamma), halfexp): coeff})

    def scalar_part(self):
        return {h: c for (g, h), c in self.terms.items() if not any(g)}

    def support(self):
        return {g for g, _ in self.terms}

    def _require_same(self, other):
        if self.quiver.vertices != other.quiver.vertices:
            raise PreconditionError("elements live over different quivers")

    def __add__(self, other):
        if type(other) is QuantumTorusElement:
            self._require_same(other)
        return super().__add__(other)

    def __eq__(self, other):
        return super().__eq__(other) and self.quiver.vertices == other.quiver.vertices

    def __hash__(self):
        return hash((self.quiver.vertices, super().__hash__()))

    def __str__(self):
        if not self.terms:
            return "0"
        coefficients = {}
        for (g, h), c in self.terms.items():
            coefficients.setdefault(g, {})[h] = c
        return " + ".join(
            f"({_poly_str(coefficients[g])})*e{g}"
            for g in sorted(coefficients, key=lambda t: (sum(t), t))
        )

    __repr__ = __str__


def quantum_torus_mul(x, y, k):
    """Bilinear extension of e_g1 e_g2 = L^(-chi(g1,g2)) e_(g1+g2), keeping
    only total dimension <= k."""
    x._require_same(y)
    Q = x.quiver
    return x._of(
        Combination.from_pairs(
            ((tuple(map(operator.add, g1, g2)), h1 + h2 - 2 * _chi(Q, g1, g2)), c1 * c2)
            for (g1, h1), c1 in x.terms.items()
            for (g2, h2), c2 in y.terms.items()
            if sum(g1) + sum(g2) <= k
        ).terms
    )


def _power_series(x, k, coefficient):
    """The sum of coefficient(n) * x^n over n >= 1, truncated to total
    dimension <= k; x has a zero scalar part, so x^n vanishes for n > k."""
    total, power = QuantumTorusElement.zero(x.quiver), QuantumTorusElement.one(x.quiver)
    for n in range(1, k + 1):
        power = quantum_torus_mul(power, x, k)
        if power.is_zero():
            break
        total = total + power.scale(coefficient(n))
    return total


def exp_truncated(x, k):
    """exp of an element with zero scalar part, exact in the truncation."""
    if x.scalar_part():
        raise PreconditionError("exp needs a zero scalar part")
    return QuantumTorusElement.one(x.quiver) + _power_series(
        x, k, lambda n: Fraction(1, math.factorial(n))
    )


def log_truncated(g, k):
    """Inverse of exp_truncated on elements with scalar part exactly 1."""
    if g.scalar_part() != {0: Fraction(1)}:
        raise PreconditionError("log needs scalar part exactly 1")
    return _power_series(
        g - QuantumTorusElement.one(g.quiver), k, lambda n: Fraction((-1) ** (n + 1), n)
    )


# --------------------------------------------------------------------------
# walls, paths


class Wall(NamedTuple):
    """A codimension-one cone {y : y(normal) = 0, y(h) >= 0 for h in
    halfspaces} with an attached torus element."""

    normal: tuple
    element: QuantumTorusElement
    halfspaces: tuple = ()

    def contains(self, point):
        return dot(point, self.normal) == 0 and all(
            dot(point, h) >= 0 for h in self.halfspaces
        )


def _parallel_same_direction(g, normal):
    n = len(g)
    for i in range(n):
        for j in range(i + 1, n):
            if Fraction(g[i]) * Fraction(normal[j]) != Fraction(g[j]) * Fraction(normal[i]):
                return False
    return dot(g, normal) > 0


class GComplex:
    """A finite list of walls in the stability space of one quiver; each
    wall's element must be supported on non-negative dimension vectors
    parallel to the wall's normal (so the support is orthogonal to the
    wall)."""

    __slots__ = ("quiver", "walls")

    def __init__(self, quiver, walls):
        self.quiver = quiver
        self.walls = tuple(walls)
        for w in self.walls:
            if w.element.quiver.vertices != quiver.vertices:
                raise PreconditionError(
                    "wall element lives over a different quiver than the complex"
                )
            if not any(w.normal):
                raise PreconditionError("wall normal must be non-zero")
            for g in w.element.support():
                if sum(g) == 0:
                    raise PreconditionError(
                        f"wall element support {g} is not a positive dimension vector"
                    )
                if not _parallel_same_direction(g, w.normal):
                    raise PreconditionError(
                        f"wall element support {g} is not orthogonal to the wall "
                        f"(not parallel to the normal {w.normal})"
                    )


class PathSpec(NamedTuple):
    """Piecewise-linear path given by rational breakpoints."""

    points: tuple

    @staticmethod
    def of(points):
        pts = tuple(tuple(Fraction(x) for x in p) for p in points)
        if len(pts) < 2:
            raise PreconditionError("a path needs at least two breakpoints")
        n = len(pts[0])
        if any(len(p) != n for p in pts):
            raise PreconditionError("breakpoints of mixed dimensions")
        return PathSpec(pts)

    def is_closed(self):
        return self.points[0] == self.points[-1]


def _segment_crossings(A, B, wall):
    """Crossing times of segment A->B with a wall, with genericity guards."""
    nA, nB = dot(A, wall.normal), dot(B, wall.normal)
    if nA == 0 and nB == 0:
        mid = tuple((a + b) / 2 for a, b in zip(A, B))
        if any(wall.contains(x) for x in (A, mid, B)):
            raise PreconditionError(
                f"segment {A}->{B} lies inside the wall {wall.normal}: not generic"
            )
        return []
    if nA == nB:
        return []
    t = nA / (nA - nB)
    if t < 0 or t > 1:
        return []
    x = tuple(a + t * (b - a) for a, b in zip(A, B))
    sides = [dot(x, h) for h in wall.halfspaces]
    if any(s < 0 for s in sides):
        return []
    if t == 0 or t == 1:
        raise PreconditionError(
            f"path touches the wall {wall.normal} at a breakpoint {x}: not generic"
        )
    if any(s == 0 for s in sides):
        raise PreconditionError(
            f"path meets the boundary of the wall {wall.normal} at {x} "
            "(codimension two): not generic"
        )
    eps = 1 if nB - nA < 0 else -1  # minus the sign of d/dt [p(t)(normal)]
    return [(t, eps)]


def path_ordered_product(D, p, k):
    """Ordered product of exp(element)^(+-1) over the walls the path
    crosses, later crossings acting on the left; the sign at a crossing is
    the negative of the sign of the derivative of p(t)(normal)."""
    pts = p.points
    for end in (pts[0], pts[-1]):
        for w in D.walls:
            if w.contains(end):
                raise PreconditionError(
                    f"path endpoint {end} lies on a wall: not generic"
                )
    crossings = []
    for seg, (A, B) in enumerate(zip(pts, pts[1:])):
        for widx, wall in enumerate(D.walls):
            for t, eps in _segment_crossings(A, B, wall):
                crossings.append((seg, t, widx, eps))
    by_time = {}
    for seg, t, widx, eps in crossings:
        by_time.setdefault((seg, t), []).append(widx)
    for (seg, t), walls_here in by_time.items():
        if len(walls_here) > 1:
            raise PreconditionError(
                f"path crosses {len(walls_here)} walls at the same point "
                f"(segment {seg}, t={t}): not generic"
            )
    crossings.sort(key=lambda c: (c[0], c[1]))
    result = QuantumTorusElement.one(D.quiver)
    for seg, t, widx, eps in crossings:
        g = exp_truncated(D.walls[widx].element.scale(eps), k)
        result = quantum_torus_mul(g, result, k)
    return result


def consistency_check(D, loops, k):
    """True iff the path-ordered product around every given closed loop is
    the identity at truncation k (equivalently: the two products along the
    two sides of each loop agree)."""
    one = QuantumTorusElement.one(D.quiver)
    for loop in loops:
        if not loop.is_closed():
            raise PreconditionError("consistency loops must be closed paths")
        if path_ordered_product(D, loop, k) != one:
            return False
    return True


# --------------------------------------------------------------------------
# subspaces and subrepresentations over F_p (arithmetic in ``linalg``)


@lru_cache(maxsize=64)
def _subspaces(n, p):
    """All subspaces of F_p^n as (rref_rows, pivots) pairs, grouped by
    rank: entry r holds the subspaces of dimension r."""
    by_rank = []
    for r in range(n + 1):
        out = []
        for pivots in itertools.combinations(range(n), r):
            free = [
                (i, j)
                for i in range(r)
                for j in range(n)
                if j > pivots[i] and j not in pivots
            ]
            for values in itertools.product(range(p), repeat=len(free)):
                rows = [[0] * n for _ in range(r)]
                for i in range(r):
                    rows[i][pivots[i]] = 1
                for (i, j), v in zip(free, values):
                    rows[i][j] = v
                out.append((tuple(tuple(row) for row in rows), pivots))
        by_rank.append(tuple(out))
    return tuple(by_rank)


def _subspace_count(n, p):
    """The number of subspaces of F_p^n: the sum over r of the Gaussian
    binomials [n, r]_p."""
    total, binomial = 0, 1
    for r in range(n + 1):
        total += binomial
        binomial = binomial * (p ** (n - r) - 1) // (p ** (r + 1) - 1)
    return total


def _arrow_slots(Q):
    """(arrow id, source slot, target slot) for every arrow."""
    return _slots(Q.vertices, Q.arrows)


@lru_cache(maxsize=64)
def _slots(vertices, arrows):
    index = {v: i for i, v in enumerate(vertices)}
    return tuple((a.id, index[a.source], index[a.target]) for a in arrows)


def _levels(n, slots):
    """The arrow slots grouped by the later of their two ends: entry k holds
    the arrows that a vertex-by-vertex choice of subspaces can check once
    vertex k is chosen."""
    levels = [[] for _ in range(n)]
    for slot in slots:
        levels[max(slot[1], slot[2])].append(slot)
    return tuple(map(tuple, levels))


def _stable_tuples(levels, rep, candidates, p, images=None):
    """Arrow-stable tuples of subspaces, one drawn from each vertex's
    candidates, as tuples of (rows, pivots), in the order of
    ``itertools.product(*candidates)``.

    A tuple is chosen vertex by vertex, and the arrows in ``levels[k]`` (see
    ``_levels``) are checked as soon as vertex k is chosen.  The image M u
    of a basis vector u under an arrow's matrix is computed once and kept in
    ``images`` under (arrow id, u); a search of one representation for
    several dimension vectors passes them all one dict."""
    if not candidates:
        yield ()
        return
    if images is None:
        images = {}
    last = len(candidates) - 1
    choice = [None] * len(candidates)
    pending = [None] * len(candidates)  # the candidates left at each vertex
    pending[0] = iter(candidates[0])
    k = 0
    while k >= 0:
        for sub in pending[k]:
            choice[k] = sub
            if not levels[k] or _maps_into(p, rep, images, levels[k], choice):
                break
        else:
            k -= 1
            continue
        if k == last:
            yield tuple(choice)
        else:
            k += 1
            pending[k] = iter(candidates[k])


def _maps_into(p, rep, images, arrows, choice):
    """Does every arrow in ``arrows`` map the subspace chosen at its source
    into the one chosen at its target?"""
    for aid, si, ti in arrows:
        rows, pivots = choice[ti]
        for u in choice[si][0]:
            v = images.get((aid, u))
            if v is None:
                v = images[aid, u] = mat_vec(p, rep[aid], u)
            if not in_span(p, rows, pivots, v):
                return False
    return True


class KingVerdict(NamedTuple):
    exists: bool
    witness: dict | None


def _check_scope(gamma, p, limits):
    """The field and total-dimension caps of every brute-force search."""
    if p not in limits.fields:
        raise ScopeError(f"stability brute force supports F_p for p in {limits.fields}")
    total = sum(gamma)
    if total == 0:
        raise PreconditionError("stability needs a non-zero dimension vector")
    if total > limits.max_total_dim:
        raise ScopeError(
            f"total dimension {total} exceeds the brute-force bound "
            f"{limits.max_total_dim}"
        )


def _check_enumeration_bounds(Q, gamma, p, limits):
    """The caps of a search over every representation of dimension gamma."""
    _check_scope(gamma, p, limits)
    entries = sum(gamma[ti] * gamma[si] for _, si, ti in _arrow_slots(Q))
    if p**entries > limits.max_enumeration:
        raise ScopeError(
            f"{p}^{entries} representations exceed the enumeration bound "
            f"{limits.max_enumeration}"
        )


def _check_representation(Q, gamma, rep, p):
    """A representation of dimension gamma over F_p is a dict giving every
    arrow, and nothing else, a gamma[target] x gamma[source] matrix with
    entries in range(p)."""
    ids = [a.id for a in Q.arrows]
    if not isinstance(rep, dict) or set(rep) != set(ids):
        got = sorted(rep) if isinstance(rep, dict) else type(rep).__name__
        raise PreconditionError(
            f"representation must give a matrix for each of the arrows {ids}, got {got}"
        )
    for aid, si, ti in _arrow_slots(Q):
        M, rows, cols = rep[aid], gamma[ti], gamma[si]
        try:
            shaped = len(M) == rows and all(len(row) == cols for row in M)
        except TypeError:
            shaped = False
        if not shaped:
            raise PreconditionError(f"arrow {aid!r} needs a {rows}x{cols} matrix, got {M!r}")
        if not all(isinstance(x, int) and 0 <= x < p for row in M for x in row):
            raise PreconditionError(f"arrow {aid!r} has an entry outside range({p}): {M!r}")


def _all_representations(slots, gamma, p):
    """Every representation of dimension gamma over F_p as {arrow id:
    matrix}, for the arrows ``slots`` (see ``_arrow_slots``), generated
    lazily in lexicographic order of the arrows' row-major entries (the
    order that fixes which witness is reported)."""
    layout = []  # (arrow id, the slice of each matrix row in the flat entries)
    at = 0
    for aid, si, ti in slots:
        cols = gamma[si]
        layout.append((aid, [slice(at + r * cols, at + (r + 1) * cols) for r in range(gamma[ti])]))
        at += gamma[ti] * cols
    for flat in itertools.product(range(p), repeat=at):
        yield {aid: tuple(map(flat.__getitem__, rows)) for aid, rows in layout}


def _kappa_of_dims(kappa, dims):
    return sum(Fraction(k) * d for k, d in zip(kappa, dims))


def _clear_denominators(vec):
    """(m, m * vec) for a vector of Fractions, m the lcm of its denominators."""
    m = math.lcm(*(x.denominator for x in vec))
    return m, tuple(x.numerator * (m // x.denominator) for x in vec)


@lru_cache(maxsize=256)
def _dims_below(gamma):
    """Every dimension vector d <= gamma, in product order."""
    return tuple(itertools.product(*(range(g + 1) for g in gamma)))


@lru_cache(maxsize=1024)
def _search_table(slots, gamma, d, p):
    """The search for subrepresentations of dimension d in representations
    of dimension gamma over F_p: the subspaces of rank d[k] at each vertex k,
    and the ``_levels`` of the arrows that can fail, those whose source
    subspace is not zero and whose target subspace is not all of its space.
    None when no arrow can fail: then every representation has a
    subrepresentation of dimension d."""
    live = [slot for slot in slots if d[slot[1]] and d[slot[2]] < gamma[slot[2]]]
    if not live:
        return None
    return tuple(_subspaces(g, p)[r] for g, r in zip(gamma, d)), _levels(len(gamma), live)


def _searches(slots, gamma, mask, p):
    """The ``_search_table`` of every destabilizing d (see ``_mask``), or
    None when some d has no arrow that can fail: then no representation is
    semistable.  An empty table means nothing destabilizes, so every
    representation is."""
    searches = []
    for i, d in enumerate(_dims_below(gamma)):
        if mask >> i & 1:
            table = _search_table(slots, gamma, d, p)
            if table is None:
                return None
            searches.append(table)
    return tuple(searches)


@lru_cache(maxsize=1024)
def _mask(gamma, direction):
    """The dimension vectors d <= gamma with kappa(d) > 0, for kappa any
    positive multiple of the integer vector ``direction``, as a bit mask over
    ``_dims_below(gamma)``: bit i is set when its i-th d destabilizes.  A
    representation of dimension gamma is unstable exactly when it has a
    subrepresentation of one of these dimensions."""
    return sum(
        1 << i
        for i, d in enumerate(_dims_below(gamma))
        if sum(map(operator.mul, direction, d)) > 0
    )


def _first_semistable(slots, gamma, searches, p):
    """The first representation, in the order of ``_all_representations``,
    in which none of ``searches`` (see ``_searches``) finds a
    subrepresentation, or None.  The images of a representation's matrices
    are computed once for all of its searches."""
    for rep in _all_representations(slots, gamma, p):
        images = {}
        if not any(
            next(_stable_tuples(levels, rep, candidates, p, images), None) is not None
            for candidates, levels in searches
        ):
            return rep
    return None


def king_semistable_exists(Q, gamma, kappa, p, *, limits=LIMITS):
    """Brute-force existence of a semistable representation: some rep of
    dimension gamma whose every proper subrepresentation F has
    kappa(F) <= 0.  Requires kappa(gamma) = 0 exactly.

    The witness is the first semistable representation in the order of
    ``_all_representations``.  Each representation is searched only for
    subrepresentations whose dimension vector destabilizes."""
    gamma = _gamma_tuple(Q, gamma)
    kappa = _vec(Q, kappa)
    _, direction = _clear_denominators(kappa)
    if sum(map(operator.mul, direction, gamma)) != 0:
        raise PreconditionError(f"kappa(gamma) = {_kappa_of_dims(kappa, gamma)} != 0")
    _check_enumeration_bounds(Q, gamma, p, limits)
    slots = _arrow_slots(Q)
    searches = _searches(slots, gamma, _mask(gamma, direction), p)
    if searches is None:
        return KingVerdict(False, None)
    rep = _first_semistable(slots, gamma, searches, p)
    return KingVerdict(rep is not None, rep)


def _support(slots, gamma):
    """The arrows with both ends in the support of gamma, as the sorted
    (source, target) positions of their ends among the support's vertices,
    and gamma restricted to its support."""
    at = {i: k for k, i in enumerate(i for i, g in enumerate(gamma) if g)}
    arrows = sorted((at[si], at[ti]) for _, si, ti in slots if si in at and ti in at)
    return tuple(arrows), tuple(g for g in gamma if g)


@lru_cache(maxsize=1024)
def _support_verdict(arrows, gamma, mask, p):
    """Is some representation of dimension gamma over F_p, of the quiver
    with these arrows (see ``_support``), semistable for the destabilizing
    set ``mask`` (see ``_mask``)?  Arrows are numbered by their position."""
    slots = tuple((n, si, ti) for n, (si, ti) in enumerate(arrows))
    searches = _searches(slots, gamma, mask, p)
    return searches is not None and _first_semistable(slots, gamma, searches, p) is not None


def _exists_once(memo, Q, gamma, direction, p):
    """``king_semistable_exists(Q, gamma, kappa, p).exists`` for every
    kappa of which the integer vector ``direction`` is a positive multiple,
    read from the process-wide table ``_support_verdict``.  ``memo`` holds the
    ``_support`` of each gamma of one quiver.  The caller has checked the
    caps of gamma: a verdict in the table is a fact about the quiver, and
    the caps only gate whether a search may run."""
    g = math.gcd(*direction)
    mask = g and _mask(gamma, tuple(x // g for x in direction))
    if not mask:
        return True
    support = memo.get(gamma)
    if support is None:
        support = memo[gamma] = _support(_arrow_slots(Q), gamma)
    return _support_verdict(*support, mask, p)


def _quotient_rep(Q, gamma, rep, choice, p):
    """Quotient representation by an arrow-stable subspace tuple."""
    index = {v: i for i, v in enumerate(Q.vertices)}
    nonpivots = []
    for i in range(len(Q.vertices)):
        _, piv = choice[i]
        nonpivots.append([j for j in range(gamma[i]) if j not in piv])
    new_gamma = tuple(len(np) for np in nonpivots)
    new_rep = {}
    for a in Q.arrows:
        si, ti = index[a.source], index[a.target]
        rows_t, piv_t = choice[ti]
        cols = []
        for c in nonpivots[si]:
            e = tuple(1 if j == c else 0 for j in range(gamma[si]))
            w = reduce(p, rows_t, piv_t, mat_vec(p, rep[a.id], e))
            cols.append([w[x] for x in nonpivots[ti]])
        new_rep[a.id] = tuple(
            tuple(col[r] for col in cols) for r in range(new_gamma[ti])
        )
    return new_gamma, new_rep


def hn_filtration(Q, gamma, rep, kappa, p, *, limits=LIMITS):
    """Greedy maximal-slope filtration of a representation.

    Returns ((slope, dimension tuple), ...) for the filtration quotients,
    top slope first; computed by repeatedly taking the subrepresentation
    maximizing (kappa(F)/|F|, |F|) and passing to the quotient.
    """
    gamma = _gamma_tuple(Q, gamma)
    kappa = _vec(Q, kappa)
    _check_representation(Q, gamma, rep, p)
    _check_scope(gamma, p, limits)
    tuples = math.prod(_subspace_count(g, p) for g in gamma)
    if tuples > limits.max_enumeration:
        raise ScopeError(
            f"{tuples} subspace tuples exceed the enumeration bound {limits.max_enumeration}"
        )
    levels = _levels(len(gamma), _arrow_slots(Q))
    factors = []
    while sum(gamma):
        candidates = [tuple(itertools.chain.from_iterable(_subspaces(g, p))) for g in gamma]
        best = None
        for choice in _stable_tuples(levels, rep, candidates, p):
            dims = tuple(len(rows) for rows, _ in choice)
            total = sum(dims)
            if total == 0:
                continue
            slope = _kappa_of_dims(kappa, dims) / total
            key = (slope, total)
            if best is None or key > best[0]:
                best = (key, dims, choice)
        (slope, _), dims, choice = best
        factors.append((slope, dims))
        if dims == gamma:
            break
        gamma, rep = _quotient_rep(Q, gamma, rep, choice, p)
    for (s1, _), (s2, _) in zip(factors, factors[1:]):
        if not s1 > s2:
            raise InternalConsistencyError("filtration slopes are not decreasing")
    return tuple(factors)


# --------------------------------------------------------------------------
# wall scan and the contraction embedding of stability space


class WallScanEntry(NamedTuple):
    gamma: tuple
    normal: tuple
    verdicts: tuple  # ((kappa, bool), ...)

    @property
    def is_wall(self):
        return any(v for _, v in self.verdicts)


@lru_cache(maxsize=1024)
def _ratio(n, d):
    """Fraction(n, d), cached: the kappas of a scan repeat a few values."""
    return Fraction(n, d)


def wall_support_scan(Q, maxgamma, samples, p=2, *, limits=LIMITS):
    """For every non-zero gamma <= maxgamma, project each sample point onto
    the hyperplane gamma-perp and record whether a semistable representation
    of dimension gamma exists there.  Zero or repeated projections are
    dropped.  A gamma is a wall where any verdict is true.

    The brute-force caps of every gamma that has a projection to search are
    checked before the first search, so an over-cap scan refuses at once,
    with the error of the first such gamma in product order."""
    maxgamma = _gamma_tuple(Q, maxgamma)
    samples = [_vec(Q, s) for s in samples]
    # the samples times m, the lcm of all their denominators
    m = math.lcm(*(x.denominator for s in samples for x in s))
    samples = [tuple(x.numerator * (m // x.denominator) for x in s) for s in samples]
    queries = []
    for gamma in itertools.product(*(range(g + 1) for g in maxgamma)):
        if not any(gamma):
            continue
        gg = sum(g * g for g in gamma)
        # gg * m times the projection kappa = s - (s.gamma / gamma.gamma) gamma
        # of each sample s: one integer vector per kappa, kept in sample order
        # as the keys of a dict
        directions = {}
        for s in samples:
            sg = sum(map(operator.mul, s, gamma))
            direction = tuple(map(operator.sub, map(gg.__mul__, s), map(sg.__mul__, gamma)))
            if any(direction):
                directions[direction] = None
        if directions:
            _check_enumeration_bounds(Q, gamma, p, limits)
        queries.append((gamma, gg * m, directions))
    memo = {}
    entries = []
    for gamma, scale, directions in queries:
        # kappa(gamma) = 0 makes kappa vanish on every d <= gamma at one vertex
        one_vertex = sum(map(bool, gamma)) == 1
        verdicts = []
        for direction in directions:
            kappa = tuple(map(_ratio, direction, itertools.repeat(scale)))
            verdicts.append(
                (kappa, one_vertex or _exists_once(memo, Q, gamma, direction, p))
            )
        entries.append(WallScanEntry(gamma, gamma, tuple(verdicts)))
    return entries


def format_vector(Q, vec):
    """``vertex:entry`` pairs in ``Q.vertices`` order, comma separated."""
    return ",".join(f"{v}:{x}" for v, x in zip(Q.vertices, vec))


def wall_scan_lines(Q, entries):
    """Line-oriented export: gamma; normal; sample kappa; verdict."""
    lines = []
    for e in entries:
        for kappa, verdict in e.verdicts:
            lines.append(
                f"gamma={format_vector(Q, e.gamma)}; normal={format_vector(Q, e.normal)}; "
                f"kappa={format_vector(Q, kappa)}; verdict={'true' if verdict else 'false'}"
            )
    return lines


def eta_embed(kappa_hat, i0, ip, im, kparam):
    """Map a stability vector over the contracted vertex set to one over
    the original: far entries are copied, and the merged-vertex entry
    kappa_hat[i0] splits as kappa_ip = kappa_hat[i0]/(1+kparam),
    kappa_im = kparam*kappa_hat[i0]/(1+kparam), so kappa_ip + kappa_im =
    kappa_hat[i0]."""
    kparam = Fraction(kparam)
    if 1 + kparam == 0:
        raise PreconditionError("kparam = -1 divides by zero")
    if i0 not in kappa_hat:
        raise PreconditionError(f"kappa_hat has no entry for the merged vertex {i0!r}")
    kappa = {
        v: Fraction(x) for v, x in kappa_hat.items() if v != i0
    }
    k0 = Fraction(kappa_hat[i0])
    kappa[ip] = k0 / (1 + kparam)
    kappa[im] = kparam * k0 / (1 + kparam)
    return kappa


def lift_gamma(gamma_hat, i0, ip, im):
    """Equal-sector lift of a dimension vector: both endpoint entries equal
    the merged-vertex entry; kappa(lift) = kappa_hat(gamma_hat) for every
    eta_embed image."""
    if i0 not in gamma_hat:
        raise PreconditionError(f"gamma_hat has no entry for the merged vertex {i0!r}")
    gamma = dict(zip(gamma_hat, _dimensions(gamma_hat, tuple(gamma_hat.values()))))
    gamma[ip] = gamma[im] = gamma.pop(i0)
    return gamma


class EtaWallResult(NamedTuple):
    gamma_hat: tuple
    kparam: object  # Fraction, or None when no grid value worked
    ok: bool


class EtaReport(NamedTuple):
    ok: bool
    results: tuple


def _eta_lift(vertices, hat_vertices, i0, ip, im, kparam):
    """``eta_embed`` on integer vectors: ((slot, factor), ...) in
    ``vertices`` order such that the vector of ``d[slot] * factor`` is a
    positive multiple of eta_embed(d) for every vector d over
    ``hat_vertices``.  With kparam = a/b (b > 0), eta_embed(d) times
    |a + b| is: far entries times a + b, i+ takes b * d[i0] and i- takes
    a * d[i0], all times the sign of a + b."""
    kparam = Fraction(kparam)
    a, b = kparam.numerator, kparam.denominator
    if a + b == 0:
        raise PreconditionError("kparam = -1 divides by zero")
    sign = 1 if a + b > 0 else -1
    slot = {v: i for i, v in enumerate(hat_vertices)}
    factor = {ip: sign * b, im: sign * a}
    return tuple(
        (slot[i0 if v in factor else v], factor.get(v, sign * (a + b))) for v in vertices
    )


def eta_embedding_check(
    Q, a0_id, maxgamma_hat, samples, p=2, grid=DEFAULT_KPARAM_GRID, *, limits=LIMITS
):
    """Desk-scale check that contraction walls embed into walls.

    Scans the contracted quiver's walls; for every scanned gamma_hat with
    at least one semistable sample, searches the kparam grid for a value
    such that every true sample point, mapped by eta_embed, again admits a
    semistable representation for the equal-sector lift of gamma_hat.  The
    mapped points are searched as integer multiples (``_eta_lift``).

    The check is only as wide as the grid: ``DEFAULT_KPARAM_GRID`` holds
    positive values only, and some walls lift at kparam = 0 but at no grid
    value.  On v0 => v1 (a1, a2), a0: v1 -> v3, a3: v1 -> v2, contracting
    a0, gamma_hat = (0, 1, 1) is reported not ok over F_2 and F_3 with the
    default grid, while ``grid=(0,)`` lifts every wall."""
    ip, im = contraction_ends(Q, a0_id)
    Qhat, _, _ = contract_quiver(Q, a0_id)
    i0 = ip  # the merged vertex keeps the source's name
    entries = wall_support_scan(Qhat, maxgamma_hat, samples, p, limits=limits)
    memo = {}
    results = []
    all_ok = True
    for e in entries:
        true_samples = [_clear_denominators(kappa)[1] for kappa, v in e.verdicts if v]
        if not true_samples:
            continue
        gamma = lift_gamma(_gamma_dict(Qhat, e.gamma), i0, ip, im)
        gamma_t = tuple(gamma[v] for v in Q.vertices)
        found = None
        for n, kparam in enumerate(grid):
            lift = _eta_lift(Q.vertices, Qhat.vertices, i0, ip, im, kparam)
            if n == 0:  # the caps of the lift, before its first query
                _check_enumeration_bounds(Q, gamma_t, p, limits)
            lifted = [tuple(d[i] * f for i, f in lift) for d in true_samples]
            if all(_exists_once(memo, Q, gamma_t, k, p) for k in lifted):
                found = kparam
                break
        ok = found is not None
        all_ok = all_ok and ok
        results.append(EtaWallResult(e.gamma, found, ok))
    return EtaReport(all_ok, tuple(results))
