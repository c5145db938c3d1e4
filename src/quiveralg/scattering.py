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
  the weight symbol; a coefficient is stored as a map from the exponent
  *in half units* to a Fraction.  The product rule is
  e_g1 * e_g2 = L^(-chi(g1,g2)) e_(g1+g2), truncated to total dimension
  <= k, with chi the quiver's Euler form.
- Stability verdicts are only ever produced by explicit enumeration over
  F_p and are reported per sample point, never extrapolated.

King's criterion is searched by brute force, pruned by dimension vector: a
representation of dimension gamma is unstable exactly when it has an
arrow-stable subspace tuple whose dimension vector d <= gamma has
kappa(d) > 0.  That "destabilizing" set is computed once per query from
kappa scaled to integers, and each representation -- enumerated lazily, in
a fixed order that decides the witness -- is searched only for subspace
tuples of those dimensions.  The verdict depends on kappa only through the
set, so one ``wall_support_scan`` or ``eta_embedding_check`` call searches
each (gamma, set) pair once.
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
from .quiver import euler_form

DEFAULT_FIELDS = (2, 3)
DEFAULT_KPARAM_GRID = (
    Fraction(1, 4),
    Fraction(1, 3),
    Fraction(1, 2),
    Fraction(1),
    Fraction(2),
    Fraction(3),
    Fraction(4),
)
# Brute-force bounds: total dimension of any enumerated representation,
# and the number of representations a single existence query may touch.
MAX_TOTAL_DIM = 4
MAX_ENUMERATION = 1 << 16


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
    t = tuple(Fraction(x) for x in _by_vertices(Q, v))
    if len(t) != len(Q.vertices):
        raise PreconditionError(
            f"vector {v} has {len(t)} slots, quiver has {len(Q.vertices)} vertices"
        )
    return t


def _gamma_tuple(Q, gamma):
    t = tuple(int(x) for x in _by_vertices(Q, gamma))
    if len(t) != len(Q.vertices):
        raise PreconditionError(
            f"dimension vector {gamma} has {len(t)} slots, "
            f"quiver has {len(Q.vertices)} vertices"
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
# Laurent polynomials in L^(1/2), stored {half_exponent: Fraction}


def _poly(d):
    return {h: c for h, c in d.items() if c}


def _poly_add(p, q):
    out = dict(p)
    for h, c in q.items():
        c2 = out.get(h, 0) + c
        if c2:
            out[h] = c2
        else:
            out.pop(h, None)
    return out

def _poly_scale(p, c, shift=0):
    c = Fraction(c)
    if not c:
        return {}
    return {h + shift: v * c for h, v in p.items()}


def _poly_mul(p, q):
    out = {}
    for h1, c1 in p.items():
        for h2, c2 in q.items():
            h = h1 + h2
            c = out.get(h, 0) + c1 * c2
            if c:
                out[h] = c
            else:
                out.pop(h, None)
    return out


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


class QuantumTorusElement:
    """Finite sum of symbols e_gamma over a fixed quiver.

    ``terms`` maps a dimension tuple (in ``quiver.vertices`` order) to a
    Laurent-polynomial coefficient {half_exponent: Fraction}.  The scalar
    part is the coefficient of e_0.
    """

    __slots__ = ("quiver", "terms")

    def __init__(self, quiver, terms=None):
        self.quiver = quiver
        self.terms = {}
        if terms:
            for g, p in terms.items():
                g = _gamma_tuple(quiver, g)
                p = _poly(p)
                if p:
                    self.terms[g] = p

    @staticmethod
    def zero(Q):
        return QuantumTorusElement(Q)

    @staticmethod
    def one(Q):
        z = (0,) * len(Q.vertices)
        return QuantumTorusElement(Q, {z: {0: Fraction(1)}})

    @staticmethod
    def generator(Q, gamma, coeff=1, halfexp=0):
        return QuantumTorusElement(Q, {tuple(gamma): {halfexp: Fraction(coeff)}})

    def scalar_part(self):
        z = (0,) * len(self.quiver.vertices)
        return dict(self.terms.get(z, {}))

    def support(self):
        return set(self.terms)

    def _require_same(self, other):
        if self.quiver is not other.quiver and self.quiver.vertices != other.quiver.vertices:
            raise PreconditionError("elements live over different quivers")

    def __add__(self, other):
        self._require_same(other)
        out = {g: dict(p) for g, p in self.terms.items()}
        for g, p in other.terms.items():
            out[g] = _poly_add(out.get(g, {}), p)
        return QuantumTorusElement(self.quiver, out)

    def scale(self, c, halfshift=0):
        return QuantumTorusElement(
            self.quiver,
            {g: _poly_scale(p, c, halfshift) for g, p in self.terms.items()},
        )

    def __sub__(self, other):
        return self + other.scale(-1)

    def __eq__(self, other):
        return (
            isinstance(other, QuantumTorusElement)
            and self.quiver.vertices == other.quiver.vertices
            and self.terms == other.terms
        )

    def __hash__(self):
        return hash(
            (
                self.quiver.vertices,
                tuple(sorted((g, tuple(sorted(p.items()))) for g, p in self.terms.items())),
            )
        )

    def __str__(self):
        if not self.terms:
            return "0"
        bits = []
        for g in sorted(self.terms, key=lambda t: (sum(t), t)):
            bits.append(f"({_poly_str(self.terms[g])})*e{g}")
        return " + ".join(bits)

    __repr__ = __str__


def truncate(x, k):
    return QuantumTorusElement(
        x.quiver, {g: p for g, p in x.terms.items() if sum(g) <= k}
    )


def quantum_torus_mul(x, y, k):
    """Bilinear extension of e_g1 e_g2 = L^(-chi(g1,g2)) e_(g1+g2), keeping
    only total dimension <= k."""
    x._require_same(y)
    Q = x.quiver
    out = {}
    for g1, p1 in x.terms.items():
        for g2, p2 in y.terms.items():
            g = tuple(a + b for a, b in zip(g1, g2))
            if sum(g) > k:
                continue
            shift = -2 * _chi(Q, g1, g2)
            prod = _poly_scale(_poly_mul(p1, p2), 1, shift)
            out[g] = _poly_add(out.get(g, {}), prod)
    return QuantumTorusElement(Q, out)


def exp_truncated(x, k):
    """exp of an element with zero scalar part, exact in the truncation."""
    if x.scalar_part():
        raise PreconditionError("exp needs a zero scalar part")
    x = truncate(x, k)
    result = QuantumTorusElement.one(x.quiver)
    power = QuantumTorusElement.one(x.quiver)
    factorial = 1
    for n in range(1, k + 1):
        power = quantum_torus_mul(power, x, k)
        if not power.terms:
            break
        factorial *= n
        result = result + power.scale(Fraction(1, factorial))
    return result


def log_truncated(g, k):
    """Inverse of exp_truncated on elements with scalar part exactly 1."""
    if g.scalar_part() != {0: Fraction(1)}:
        raise PreconditionError("log needs scalar part exactly 1")
    y = truncate(g - QuantumTorusElement.one(g.quiver), k)
    result = QuantumTorusElement.zero(g.quiver)
    power = QuantumTorusElement.one(g.quiver)
    for n in range(1, k + 1):
        power = quantum_torus_mul(power, y, k)
        if not power.terms:
            break
        result = result + power.scale(Fraction((-1) ** (n + 1), n))
    return result


# --------------------------------------------------------------------------
# cones, walls, paths


class Cone(NamedTuple):
    """A cone given by generating rays and/or inequality normals (y >= 0)."""

    rays: tuple = ()
    inequalities: tuple = ()

    def contains(self, point):
        return all(dot(point, n) >= 0 for n in self.inequalities)

    def validate(self):
        for r in self.rays:
            if not self.contains(r):
                raise PreconditionError(f"ray {r} violates the cone inequalities")
        return True


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
                if sum(g) == 0 or any(x < 0 for x in g):
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


@lru_cache(maxsize=None)
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


def _arrow_slots(Q):
    """(arrow id, source slot, target slot) for every arrow."""
    index = {v: i for i, v in enumerate(Q.vertices)}
    return tuple((a.id, index[a.source], index[a.target]) for a in Q.arrows)


def _stable_tuples(slots, rep, candidates, p):
    """Arrow-stable tuples of subspaces, one drawn from each vertex's
    candidates, as tuples of (rows, pivots)."""
    for choice in itertools.product(*candidates):
        if all(
            in_span(p, *choice[ti], mat_vec(p, rep[aid], u))
            for aid, si, ti in slots
            for u in choice[si][0]
        ):
            yield choice


def _subrepresentations(Q, gamma, rep, p):
    """All arrow-stable tuples of subspaces, as tuples of (rows, pivots)."""
    candidates = [
        tuple(itertools.chain.from_iterable(_subspaces(g, p))) for g in gamma
    ]
    return _stable_tuples(_arrow_slots(Q), rep, candidates, p)


class KingVerdict(NamedTuple):
    exists: bool
    witness: dict | None


def _check_enumeration_bounds(Q, gamma, p):
    if p not in DEFAULT_FIELDS:
        raise ScopeError(f"stability brute force supports F_p for p in {DEFAULT_FIELDS}")
    total = sum(gamma)
    if total == 0:
        raise PreconditionError("stability needs a non-zero dimension vector")
    if total > MAX_TOTAL_DIM:
        raise ScopeError(
            f"total dimension {total} exceeds the brute-force bound {MAX_TOTAL_DIM}"
        )
    index = {v: i for i, v in enumerate(Q.vertices)}
    entries = sum(gamma[index[a.target]] * gamma[index[a.source]] for a in Q.arrows)
    if p**entries > MAX_ENUMERATION:
        raise ScopeError(
            f"{p}^{entries} representations exceed the enumeration bound {MAX_ENUMERATION}"
        )


def _all_representations(Q, gamma, p):
    """Every representation of dimension gamma over F_p as {arrow id:
    matrix}, generated lazily in lexicographic order of the arrows'
    row-major entries (the order that fixes which witness is reported)."""
    shapes = [(aid, gamma[ti], gamma[si]) for aid, si, ti in _arrow_slots(Q)]
    entries = sum(rows * cols for _, rows, cols in shapes)
    for flat in itertools.product(range(p), repeat=entries):
        rep = {}
        at = 0
        for aid, rows, cols in shapes:
            rep[aid] = tuple(flat[at + r * cols : at + (r + 1) * cols] for r in range(rows))
            at += rows * cols
        yield rep


def _kappa_of_dims(kappa, dims):
    return sum(Fraction(k) * d for k, d in zip(kappa, dims))


def _clear_denominators(vec):
    """(m, m * vec) for a vector of Fractions, m the lcm of its denominators."""
    m = math.lcm(*(x.denominator for x in vec))
    return m, tuple(x.numerator * (m // x.denominator) for x in vec)


def _destabilizing(gamma, direction):
    """Dimension vectors d <= gamma with kappa(d) > 0, for kappa any positive
    multiple of the integer vector ``direction``: a representation of
    dimension gamma is unstable exactly when it has a subrepresentation of
    one of these dimensions."""
    return tuple(
        d
        for d in itertools.product(*(range(g + 1) for g in gamma))
        if sum(map(operator.mul, direction, d)) > 0
    )


def king_semistable_exists(Q, gamma, kappa, p):
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
    _check_enumeration_bounds(Q, gamma, p)
    slots = _arrow_slots(Q)
    by_dims = [
        [_subspaces(g, p)[r] for g, r in zip(gamma, d)]
        for d in _destabilizing(gamma, direction)
    ]
    for rep in _all_representations(Q, gamma, p):
        if not any(
            next(_stable_tuples(slots, rep, candidates, p), None) is not None
            for candidates in by_dims
        ):
            return KingVerdict(True, rep)
    return KingVerdict(False, None)


def _exists_once(memo, Q, gamma, kappa, direction, p):
    """``king_semistable_exists(Q, gamma, kappa, p).exists``, searched once
    per (gamma, destabilizing dimension vectors) in ``memo``: the verdict
    depends on kappa only through that set.  ``direction`` is a positive
    integer multiple of kappa."""
    key = (gamma, _destabilizing(gamma, direction))
    if key not in memo:
        memo[key] = king_semistable_exists(Q, gamma, kappa, p).exists
    return memo[key]


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


def hn_filtration(Q, gamma, rep, kappa, p):
    """Greedy maximal-slope filtration of a representation.

    Returns ((slope, dimension tuple), ...) for the filtration quotients,
    top slope first; computed by repeatedly taking the subrepresentation
    maximizing (kappa(F)/|F|, |F|) and passing to the quotient.
    """
    gamma = _gamma_tuple(Q, gamma)
    kappa = _vec(Q, kappa)
    _check_enumeration_bounds(Q, gamma, p)
    factors = []
    while sum(gamma):
        best = None
        for choice in _subrepresentations(Q, gamma, rep, p):
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


def wall_support_scan(Q, maxgamma, samples, p=2):
    """For every non-zero gamma <= maxgamma, project each sample point onto
    the hyperplane gamma-perp and record whether a semistable representation
    of dimension gamma exists there.  Zero or repeated projections are
    dropped.  A gamma is a wall where any verdict is true.

    The brute-force caps of every gamma that has a projection to search are
    checked before the first search, so an over-cap scan refuses at once,
    with the error of the first such gamma in product order."""
    maxgamma = _gamma_tuple(Q, maxgamma)
    samples = [_clear_denominators(_vec(Q, s)) for s in samples]
    queries = []
    for gamma in itertools.product(*(range(m + 1) for m in maxgamma)):
        if not any(gamma):
            continue
        gg = sum(g * g for g in gamma)
        directions = {}
        for m, s in samples:
            # the projection kappa = s - (s.gamma / gamma.gamma) gamma of the
            # sample s / m, times gg * m
            sg = sum(map(operator.mul, s, gamma))
            direction = tuple(gg * x - sg * g for x, g in zip(s, gamma))
            if not any(direction):
                continue
            kappa = tuple(Fraction(x, gg * m) for x in direction)
            directions.setdefault(kappa, direction)
        if directions:
            _check_enumeration_bounds(Q, gamma, p)
        queries.append((gamma, directions))
    memo = {}
    entries = []
    for gamma, directions in queries:
        verdicts = tuple(
            (kappa, _exists_once(memo, Q, gamma, kappa, direction, p))
            for kappa, direction in directions.items()
        )
        entries.append(WallScanEntry(gamma, gamma, verdicts))
    return entries


def wall_scan_lines(Q, entries):
    """Line-oriented export: gamma; normal; sample kappa; verdict."""
    def fmt(vec):
        return ",".join(f"{v}:{x}" for v, x in zip(Q.vertices, vec))

    lines = []
    for e in entries:
        for kappa, verdict in e.verdicts:
            lines.append(
                f"gamma={fmt(e.gamma)}; normal={fmt(e.normal)}; "
                f"kappa={fmt(kappa)}; verdict={'true' if verdict else 'false'}"
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
    gamma = {v: int(x) for v, x in gamma_hat.items() if v != i0}
    gamma[ip] = int(gamma_hat[i0])
    gamma[im] = int(gamma_hat[i0])
    return gamma


class EtaWallResult(NamedTuple):
    gamma_hat: tuple
    kparam: object  # Fraction, or None when no grid value worked
    ok: bool


class EtaReport(NamedTuple):
    ok: bool
    results: tuple


def eta_embedding_check(Q, a0_id, maxgamma_hat, samples, p=2, grid=DEFAULT_KPARAM_GRID):
    """Desk-scale check that contraction walls embed into walls.

    Scans the contracted quiver's walls; for every scanned gamma_hat with
    at least one semistable sample, searches the kparam grid for a value
    such that every true sample point, mapped by eta_embed, again admits a
    semistable representation for the equal-sector lift of gamma_hat.

    The check is only as wide as the grid: ``DEFAULT_KPARAM_GRID`` holds
    positive values only, and some walls lift at kparam = 0 but at no grid
    value.  On v0 => v1 (a1, a2), a0: v1 -> v3, a3: v1 -> v2, contracting
    a0, gamma_hat = (0, 1, 1) is reported not ok over F_2 and F_3 with the
    default grid, while ``grid=(0,)`` lifts every wall."""
    a0 = Q.arrow(a0_id)
    ip, im = a0.source, a0.target
    Qhat, _, _ = contract_quiver(Q, a0_id)
    i0 = ip  # the merged vertex keeps the source's name
    entries = wall_support_scan(Qhat, maxgamma_hat, samples, p)
    memo = {}
    results = []
    all_ok = True
    for e in entries:
        true_samples = [kappa for kappa, v in e.verdicts if v]
        if not true_samples:
            continue
        gamma = lift_gamma(_gamma_dict(Qhat, e.gamma), i0, ip, im)
        gamma_t = tuple(gamma[v] for v in Q.vertices)
        found = None
        for kparam in grid:
            lifted = [
                tuple(
                    eta_embed(_gamma_dict(Qhat, kappa), i0, ip, im, kparam)[v]
                    for v in Q.vertices
                )
                for kappa in true_samples
            ]
            if all(
                _exists_once(memo, Q, gamma_t, kappa, _clear_denominators(kappa)[1], p)
                for kappa in lifted
            ):
                found = kparam
                break
        ok = found is not None
        all_ok = all_ok and ok
        results.append(EtaWallResult(e.gamma, found, ok))
    return EtaReport(all_ok, tuple(results))
