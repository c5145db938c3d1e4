"""Shuffle-algebra model of the cohomological Hall algebra.

An element of rank vector g is a Sym_g-invariant polynomial in variables
x[i,1..g^i].  The product of f (rank g1) and g (rank g2) sums, over all
per-vertex splittings of the slots 1..g1+g2 into a g1-block and a g2-block,
the relabelled product f*g times the arrow/vertex kernel

    fac = prod_{arrows i->j} prod_{a1 in block1(i), a2 in block2(j)}
              (x[j,a2] - x[i,a1])
          / prod_i prod_{a1 in block1(i), a2 in block2(i)} (x[i,a2] - x[i,a1]).

Both the product and the spherical span are read off alternants: Alt(x^e)
/ Vdm, Alt the signed sum over the slot permutations at every vertex, is 0
if e repeats an exponent at a vertex, and otherwise the sign of sorting e
times the product over vertices of the Schur polynomials s_lambda, lambda
= sorted(e) - (0, 1, ...) (_alternant_key).  A sparse integer vector over
these sorted keys is an element's Schur coordinates; one fold reads them
off (_alternant_fold), and f's are the fold of f*x^delta, delta = (0, 1,
..., n-1) on n slots, as f*Vdm = Alt(f*x^delta).  Back to monomials by
s_lambda = sum_mu K_lambda,mu m_mu (_kostka, _m_coordinates), each m_mu
the orbit of x^mu (_monomial_symmetric).

Over the common denominator prod_i Vdm(x[i,*]), the term of a split is its
shuffle's sign times f*g*Vdm(block1)*Vdm(block2)*arrows.  At a vertex with
an empty block there is one split, and the other block's Vandermonde
cancels against Vdm_i; call the other vertices mixed.  There f*Vdm(block
1) = Alt(F), F being f's Schur coordinates as monomials, and g*Vdm(block 2)
= Alt(G).  The arrow factor Cross of the standard split (block 1 = the
first g1^i slots at each vertex i) is symmetric inside each block, so the
product is Alt(F*G*Cross) / prod_{mixed i} Vdm_i (Macdonald I.3).  Cross's
symmetry and the order of every key read off are checked; a failure is an
internal bug, never a data error.

All of this runs on dense exponent tuples with integer coefficients.  The
sum(gamma) slot variables of a sector get positions (its _layout):
vertices in Q.vertices order, slots ascending, so x[v,slot] sits at
offset[v] + slot - 1.  A SymPoly holds either a Poly or such a dense form
({exponent tuple: int}, L), meaning the sum of c/L * x^e; products and
contractions are built dense, and a Poly is made only when asked for
(printing, hopf, ==); a parsed element's dense form is made for each
product or contraction and not kept.  A product's L is the product of f's
and g's.  Every symmetry check tries two slot permutations per vertex
(_symmetric_on).  The layouts (positions only), each product's block
placement and mixed slices, Cross (keyed by the ranks and the arrow
counts between the block vertices, so quivers of one shape share it), the
Kostka numbers and the orbits are cached.

Contraction acts on these polynomials by the slotwise substitution
x[i-,a] |-> x[i0,a], x[i+,a] |-> x[i0,a]: on exponent tuples, the exponent
at x[i-,a] is added onto x[i+,a] and i-'s positions are dropped.  It is a
homomorphism for the product above on the rank sectors with equal values
at the two merged vertices.

The spherical span, spanned by the word products x[w1]^k1 * ... *
x[wm]^km of rank-one generators, is built with no shuffle product.  Such a
product is Alt(x^k * A_w) / Vdm: A_w = prod_{p<q} (x[s(q)] - x[s(p)])^a_pq,
a_pq the arrows from w_p to w_q and s(p) the slot of letter p.  Products
are homogeneous, and each degree is row-reduced in Schur coordinates over
every Schur key of the degree, its products made only as rref reads them.
rref stops once every key has a pivot; such a full degree is the whole
symmetric space of its degree, whose reduced basis over monomials is the
monomial symmetric functions m_lambda.  In any other degree the basis rows
are taken to monomial-symmetric coordinates and row-reduced again, columns
ordered by each orbit's least monomial.  The degrees, which share no
monomial, are merged in pivot order.  A reduced row echelon form is
unique, so this is the basis that reducing every product over its
monomials gives.  The first product made in every span is also built by
shuffle_mul as a check.  Membership tests f's Schur coordinates against
the reduced Schur basis of the rank and degree, kept on the quiver.
"""

from __future__ import annotations

from collections import Counter
from fractions import Fraction
from functools import lru_cache
from itertools import accumulate, combinations, product
from math import lcm
from operator import add, eq, itemgetter, lt, sub

from .contraction import contract_quiver
from .errors import InternalConsistencyError, PreconditionError
from .linalg import QQ, _as_ints, in_span, rref
from .poly import Poly, Rat, xvar
from .quiver import check_dimvec, check_equal_rank, contraction_ends, read_int, read_rational

INCONCLUSIVE = "inconclusive"


class SymPoly:
    """Symmetric polynomial attached to a quiver and a rank vector.

    An element holds the form it was built from: a Poly (parsed or user
    input), or dense=(terms, L), the sum of c/L * x^e over the items e: c of
    terms, e an exponent tuple over the slot layout of (Q.vertices, ranks)
    (see _layout) and c a non-zero int, L a positive int.  Products and
    contractions are built dense.  The other form is made on first use:
    .poly for printing, hopf and ==/hash, .dense for the shuffle kernel;
    .poly is kept once made, a dense form made from a Poly is not.

    Invariance under slot permutations at every vertex is validated at
    construction, on the form given (the swap (1 2) and the cycle (1 2 ...
    n) suffice); asymmetric input is rejected, not symmetrized.
    """

    __slots__ = ("quiver", "gamma", "_poly", "_dense")

    def __init__(self, quiver, gamma, poly=None, *, dense=None):
        self.gamma = check_dimvec(quiver, gamma, what="rank vector")
        self.quiver = quiver
        if dense is None:
            self._poly = (
                poly if isinstance(poly, Poly) else Poly.const(read_rational(poly, "constant"))
            )
            self._dense = None
            self._validate_poly()
        else:
            self._poly = None
            self._dense = dense
            self._validate_dense()

    def _validate_poly(self):
        gamma = self.gamma
        slots = {}  # vertex -> the variables of its slots that the polynomial holds
        # in the terms' order, so the first bad variable is not the hash seed's
        for v in dict.fromkeys(v for m in self._poly.terms for v, _ in m):
            if len(v) != 3 or v[0] != "x":
                raise PreconditionError(f"foreign variable {v!r}")
            _, vertex, slot = v
            if vertex not in gamma:
                raise PreconditionError(f"variable at unknown vertex {vertex!r}")
            if not 1 <= slot <= gamma[vertex]:
                raise PreconditionError(
                    f"slot {slot} out of range 1..{gamma[vertex]} at vertex {vertex!r}"
                )
            slots.setdefault(vertex, []).append(v)
        # Renaming variables is a bijection on monomials, so the polynomial
        # is invariant iff every term's renamed monomial has its coefficient.
        # A vertex no variable mentions is invariant, and one with only some
        # of its slots mentioned is not; at the others, the renamings of the
        # swap (1 2) and the cycle (1 2 ... n) are made from its variables.
        terms = self._poly.terms
        for vertex, n in gamma.items():
            xs = sorted(slots.get(vertex, ()))
            renamings = [{xs[0]: xs[1], xs[1]: xs[0]}] if len(xs) > 1 else []
            if len(xs) > 2:
                renamings.append(dict(zip(xs, xs[1:] + xs[:1])))
            if len(xs) not in (0, n) or any(
                (renamed := tuple(sorted([(r.get(v, v), e) for v, e in m]))) != m
                and terms.get(renamed) != c
                for r in renamings for m, c in terms.items()
            ):
                raise PreconditionError(f"polynomial is not symmetric in the slots of {vertex!r}")

    def _validate_dense(self):
        """The checks of _validate_poly on exponent tuples: one entry per
        slot, no zero coefficient, and _symmetric_on at each vertex's slots,
        in gamma's vertex order."""
        terms, _L = self._dense
        layout = self.layout()
        n = len(layout.variables)
        if any(map(n.__ne__, map(len, terms))) or 0 in terms.values():
            raise PreconditionError(
                f"dense terms need {n}-entry exponent tuples and non-zero coefficients"
            )
        for vertex, r in self.gamma.items():
            lo = layout.offset[vertex]
            if not _symmetric_on(terms, lo, lo + r):
                raise PreconditionError(f"polynomial is not symmetric in the slots of {vertex!r}")

    @staticmethod
    def one(quiver, gamma):
        return SymPoly(quiver, gamma, Poly.const(1))

    @staticmethod
    def generator(quiver, vertex, power=1):
        """x[vertex,1]^power in the rank-one sector e_vertex."""
        return SymPoly(quiver, _unit_gamma(quiver, vertex), dense=({(power,): 1}, 1))

    def gamma_key(self):
        return tuple(map(self.gamma.__getitem__, self.quiver.vertices))

    def layout(self):
        return _layout(self.quiver.vertices, self.gamma_key())

    @property
    def poly(self):
        if self._poly is None:
            self._poly = _from_dense(*self._dense, self.layout())
        return self._poly

    @property
    def dense(self):
        """(terms, L) over the slot layout; made anew from a Poly."""
        if self._dense is None:
            return _to_dense(self._poly, self.layout())
        return self._dense

    def is_zero(self):
        if self._dense is not None:
            return not self._dense[0]
        return self._poly.is_zero()

    def __add__(self, other):
        return self._plus(other, 1)

    def __sub__(self, other):
        return self._plus(other, -1)

    def _plus(self, other, sign):
        """self + sign * other, on dense forms."""
        self._check_same_sector(other)
        (p, Lp), (q, Lq) = self.dense, other.dense
        L = lcm(Lp, Lq)
        out = {e: c * (L // Lp) for e, c in p.items()}
        scale = sign * (L // Lq)
        for e, c in q.items():
            s = out.get(e, 0) + c * scale
            if s:
                out[e] = s
            else:
                del out[e]
        return SymPoly(self.quiver, self.gamma, dense=(out, L))

    def _check_same_sector(self, other):
        if self.quiver != other.quiver or self.gamma != other.gamma:
            raise PreconditionError("elements live in different rank sectors")

    def __eq__(self, other):
        return (
            isinstance(other, SymPoly)
            and self.quiver == other.quiver
            and self.gamma == other.gamma
            and self.poly == other.poly
        )

    def __hash__(self):
        return hash((self.quiver, tuple(sorted(self.gamma.items())), self.poly))

    def __str__(self):
        return f"[{self.gamma_key()}] {self.poly}"

    __repr__ = __str__


def _arrow_factors(counts, block1, block2):
    """Arrow part of fac(block1|block2), as (vb, va, a_ij): one entry per
    arrow class i->j, va in block1[i] and vb in block2[j], standing for
    (vb - va)**a_ij.  A block maps a vertex to its list of variables, and
    counts maps (i, j) to a_ij (a missing pair has no arrows)."""
    for i, vas in block1.items():
        for j, vbs in block2.items():
            a_ij = counts.get((i, j))
            if not a_ij:
                continue
            for va in vas:
                for vb in vbs:
                    yield vb, va, a_ij


def fac(Q, block1, block2):
    """The shuffle kernel fac(block1|block2) as a factored rational
    function: the arrow factors over the same-vertex factors (vb - va),
    va in block1[i] and vb in block2[i]."""
    counts = Counter((a.source, a.target) for a in Q.arrows)
    factors = [
        (Poly.linear_diff(vb, va), a_ij) for vb, va, a_ij in _arrow_factors(counts, block1, block2)
    ]
    for i, vas in block1.items():
        for va in vas:
            factors.extend((Poly.linear_diff(vb, va), -1) for vb in block2.get(i, ()))
    return Rat(1, factors)


# -- dense kernel: {exponent tuple: int}, position offset[v] + slot - 1 ------


def _picker(positions):
    """The map taking a tuple to the tuple of its entries at `positions`."""
    if len(positions) == 1:
        (p,) = positions
        return lambda e: (e[p],)
    if not positions:
        return lambda e: ()
    return itemgetter(*positions)


class _Layout:
    """Positions of the slot variables of the sector with ranks[k] slots at
    vertices[k]: vertex v's slots start at offset[v], vertices in the
    quiver's order, slots ascending.  It depends only on these two tuples,
    so _layout caches it for every quiver; its dicts are never changed."""

    __slots__ = ("offset", "variables", "index", "names", "to_names")

    def __init__(self, vertices, ranks):
        self.offset = {}  # vertex -> position of its slot 1
        variables = []
        for v, r in zip(vertices, ranks):
            self.offset[v] = len(variables)
            variables.extend(xvar(v, a) for a in range(1, r + 1))
        n = len(variables)
        self.variables = tuple(variables)
        self.index = {x: i for i, x in enumerate(variables)}
        order = sorted(range(n), key=variables.__getitem__)
        self.names = tuple(variables[i] for i in order)  # as in a Poly monomial
        self.to_names = _picker(order)  # exponent tuple -> entries in names' order


_layout = lru_cache(maxsize=1024)(_Layout)


def _symmetric_on(terms, lo, hi):
    """Whether dense terms are invariant under the permutations of positions
    lo..hi-1, which the swap of the first two and, from three on, the cycle
    of all generate: each must take every term to one with its coefficient."""
    get = terms.get
    return (hi - lo < 2 or all(get(e[:lo] + (e[lo + 1], e[lo]) + e[lo + 2:]) == c
                               for e, c in terms.items())
            and (hi - lo == 2 or all(get(e[:lo] + e[lo + 1:hi] + e[lo:lo + 1] + e[hi:]) == c
                                     for e, c in terms.items())))


def _to_dense(poly, layout):
    """poly scaled to integers: ({exponent tuple: int}, L), L the lcm of the
    coefficient denominators."""
    index = layout.index
    n = len(index)
    L = lcm(*(c.denominator for c in poly.terms.values()))
    out = {}
    for m, c in poly.terms.items():
        e = [0] * n
        for v, k in m:
            e[index[v]] = k
        out[tuple(e)] = c.numerator * (L // c.denominator)
    return out, L


def _from_dense(terms, L, layout):
    """The Poly sum of c/L * x^e, its monomials sorted by variable."""
    names, to_names = layout.names, layout.to_names
    p = Poly.zero()
    p.terms.update(
        (tuple((v, k) for v, k in zip(names, to_names(e)) if k), Fraction(c, L))
        for e, c in terms.items()
    )
    return p


def _dense_mul(p, q):
    """p * q on exponent tuples."""
    out = {}
    for e1, c1 in p.items():
        for e2, c2 in q.items():
            e = tuple(map(add, e1, e2))
            out[e] = out.get(e, 0) + c1 * c2
    return {e: c for e, c in out.items() if c}


def _times_diff(p, b, a):
    """p * (x_b - x_a), for positions b != a."""
    out = {}
    for e, c in p.items():
        eb = e[:b] + (e[b] + 1,) + e[b + 1:]
        out[eb] = out.get(eb, 0) + c
        ea = e[:a] + (e[a] + 1,) + e[a + 1:]
        out[ea] = out.get(ea, 0) - c
    return {e: c for e, c in out.items() if c}


def _increasing(e, slices):
    """Whether e is strictly increasing on every slice (start, stop)."""
    return all(all(map(lt, e[lo:hi - 1], e[lo + 1:hi])) for lo, hi in slices)


def _alternant_fold(items, slices):
    """Schur coordinates {key: c} of Alt(sum c * x^e), Alt over the slices
    (start, stop): item (e, c) adds sign * c at _alternant_key's key.  Zero
    coordinates are dropped; every key is asserted strictly increasing."""
    coordinates = {}
    for e, c in items:
        hit = _alternant_key(e, slices)
        if hit:
            key, sign = hit
            coordinates[key] = coordinates.get(key, 0) + sign * c
    for key in coordinates:
        if not _increasing(key, slices):
            raise InternalConsistencyError(f"alternant key {key} is not strictly increasing")
    return {key: c for key, c in coordinates.items() if c}


def _schur_coordinates(terms, slices):
    """The Schur coordinates of dense terms symmetric on each slice (start,
    stop): terms * Vdm = Alt(terms * x^delta), Vdm the slices' Vandermondes
    and delta = (0, 1, ..., n - 1) on a slice of n slots (Macdonald I.3).
    With no slice, terms itself."""
    if not slices or not terms:
        return terms
    delta = [0] * len(next(iter(terms)))
    for lo, hi in slices:
        delta[lo:hi] = range(hi - lo)
    return _alternant_fold(((tuple(map(add, e, delta)), c) for e, c in terms.items()), slices)


@lru_cache(maxsize=1024)
def _product_plan(vertices, ranks1, ranks2):
    """(place, slices1, slices2, slices) of a product of ranks1 by ranks2,
    positions only.  place takes e1 + e2 (over ranks1's and ranks2's
    layouts) to the product's layout, e1 in block 1 and e2 in block 2 of
    the standard split.  slices are the (start, stop) of the mixed vertices
    in the product's layout; slices1 and slices2 those of the mixed
    vertices with more than one slot in the layouts of ranks1 and ranks2
    (one slot has Vdm 1 and is always increasing)."""
    layout1, layout2 = _layout(vertices, ranks1), _layout(vertices, ranks2)
    n1 = sum(ranks1)
    layout = _layout(vertices, tuple(map(add, ranks1, ranks2)))
    source = []
    slices1, slices2, slices = [], [], []
    for v, a, b in zip(vertices, ranks1, ranks2):
        lo1, lo2, lo = layout1.offset[v], layout2.offset[v], layout.offset[v]
        source.extend(range(lo1, lo1 + a))
        source.extend(range(n1 + lo2, n1 + lo2 + b))
        if a and b:
            slices.append((lo, lo + a + b))
            slices1.extend([(lo1, lo1 + a)] * (a > 1))
            slices2.extend([(lo2, lo2 + b)] * (b > 1))
    return _picker(source), tuple(slices1), tuple(slices2), tuple(slices)


def _cross_shape(Q, ranks1, ranks2):
    """All that Cross of a product of ranks1 by ranks2 depends on besides
    the ranks: the sorted ((i, j), a_ij) of the arrow classes i->j, i and j
    positions in Q.vertices, with slots at i in ranks1 and at j in ranks2."""
    position = Q.vertices.index
    counts = {}
    for a in Q.arrows:
        i, j = position(a.source), position(a.target)
        if ranks1[i] and ranks2[j]:
            counts[i, j] = counts.get((i, j), 0) + 1
    return tuple(sorted(counts.items()))


@lru_cache(maxsize=1024)
def _cross(ranks1, ranks2, shape):
    """Cross, the arrow factor of the standard split of a product of ranks1
    by ranks2 (_arrow_factors) on a quiver of this _cross_shape, dense over
    the product's layout; products on different quivers of one shape share
    it.  It is checked symmetric in the slots of each block
    (_symmetric_on): the alternant read-off of shuffle_mul relies on it."""
    starts = (0, *accumulate(map(add, ranks1, ranks2)))
    block1 = {k: range(lo, lo + a) for k, (lo, a) in enumerate(zip(starts, ranks1))}
    block2 = {k: range(lo + a, hi) for k, (lo, a, hi) in enumerate(zip(starts, ranks1, starts[1:]))}
    cross = {(0,) * starts[-1]: 1}
    for b, a, a_ij in _arrow_factors(dict(shape), block1, block2):
        for _ in range(a_ij):
            cross = _times_diff(cross, b, a)
    if not all(_symmetric_on(cross, b.start, b.stop) for b in [*block1.values(), *block2.values()]):
        raise InternalConsistencyError(
            "the arrow factor of a shuffle product is not symmetric in its blocks"
        )
    return cross


def shuffle_mul(f, g):
    """The shuffle product f*g, exact: Alt(F * G * Cross) / Vdm over the
    mixed vertices, F and G the Schur coordinates of f and g there as
    monomials and Cross from _cross, which checks it symmetric in each
    block.  F * G * Cross is folded (_alternant_fold) and expanded."""
    if f.quiver != g.quiver:
        raise PreconditionError("shuffle product requires a common quiver")
    Q = f.quiver
    ranks1, ranks2 = f.gamma_key(), g.gamma_key()
    gamma = dict(zip(Q.vertices, map(add, ranks1, ranks2)))
    if f.is_zero() or g.is_zero():
        return SymPoly(Q, gamma, dense=({}, 1))

    place, slices1, slices2, slices = _product_plan(Q.vertices, ranks1, ranks2)
    cross = _cross(ranks1, ranks2, _cross_shape(Q, ranks1, ranks2))
    (fd, Lf), (gd, Lg) = f.dense, g.dense
    F, G = _schur_coordinates(fd, slices1), _schur_coordinates(gd, slices2)
    term = _dense_mul({place(e1 + e2): c1 * c2 for e1, c1 in F.items() for e2, c2 in G.items()},
                      cross)
    if not slices:
        return SymPoly(Q, gamma, dense=(term, Lf * Lg))
    coordinates = _m_coordinates(_alternant_fold(term.items(), slices), slices)
    result = {e: c for s, c in coordinates.items() for e in _monomial_symmetric(s, slices)}
    return SymPoly(Q, gamma, dense=(result, Lf * Lg))


def _contracted_quiver(Q, a0_id):
    """The quiver of contract_quiver(Q, a0_id), built once per Quiver
    instance: a quiver is not changed after construction, so the memo is
    the quiver's own dict, made on first use, and dies with it."""
    memo = Q._contracted
    if memo is None:
        memo = Q._contracted = {}
    if a0_id not in memo:
        memo[a0_id] = contract_quiver(Q, a0_id)[0]
    return memo[a0_id]


@lru_cache(maxsize=1024)
def _merge_plan(vertices, ranks, ip, im):
    """The map on exponent tuples of contracting the arrow ip -> im: the
    contracted layout drops im's slots, and x[ip,a] gets the exponents of
    x[ip,a] and x[im,a] added."""
    offset = _layout(vertices, ranks).offset
    r = ranks[vertices.index(ip)]
    n = sum(ranks)
    kept = [p for v, rv in zip(vertices, ranks) if v != im
            for p in range(offset[v], offset[v] + rv)]
    added = [offset[im] + p - offset[ip] if offset[ip] <= p < offset[ip] + r else n
             for p in kept]
    keep, extra = _picker(kept), _picker(added)
    return lambda e: tuple(map(add, keep(e), extra(e + (0,))))


def contract_shuffle(f, a0_id):
    """Image of f under edge contraction: both merged blocks land on the
    surviving vertex, slotwise."""
    Q = f.quiver
    ip, im = contraction_ends(Q, a0_id)
    check_equal_rank(f.gamma, ip, im)
    Qhat = _contracted_quiver(Q, a0_id)
    ghat = {v: f.gamma[v] for v in Qhat.vertices}
    terms, L = f.dense
    merge = _merge_plan(Q.vertices, f.gamma_key(), ip, im)
    out = {}
    get = out.get
    for e, c in terms.items():
        e = merge(e)
        s = get(e, 0) + c
        if s:
            out[e] = s
        else:
            del out[e]
    return SymPoly(Qhat, ghat, dense=(out, L))


@lru_cache(maxsize=1024)
def _orderings(items):
    """Every distinct ordering of the tuple items, in lexicographic order,
    as a cached list.  Each is made once, by stepping to the next permutation
    of the multiset, so the work is the number of orderings, not len(items)!."""
    word = sorted(items)
    out = [tuple(word)]
    while True:
        i = len(word) - 2
        while i >= 0 and word[i] >= word[i + 1]:
            i -= 1
        if i < 0:
            return out
        j = len(word) - 1
        while word[j] <= word[i]:
            j -= 1
        word[i], word[j] = word[j], word[i]
        word[i + 1:] = reversed(word[i + 1:])
        out.append(tuple(word))


def _vertex_words(Q, gamma):
    """Every distinct word with gamma[v] letters v at each vertex v, in
    lexicographic order."""
    return _orderings(tuple(v for v in Q.vertices for _ in range(gamma[v])))


def _compositions(m, total):
    """All tuples of m non-negative integers with sum total, in
    lexicographic order.  Without their last entry they are the (m-1)-tuples
    with sum <= total, in lexicographic order too."""
    if m <= 1:
        if m or not total:
            yield (total,) * m
        return
    for first in range(total + 1):
        for rest in _compositions(m - 1, total - first):
            yield (first,) + rest


def _unit_gamma(Q, v):
    return {u: 1 if u == v else 0 for u in Q.vertices}


def _word_product(Q, word, ks):
    """x[w1]^k1 * x[w2]^k2 * ... by chained shuffle products, stopping at
    the first zero partial product; the empty word is the unit of rank 0."""
    if not word:
        return SymPoly.one(Q, dict.fromkeys(Q.vertices, 0))
    prod = None
    for v, k in zip(word, ks):
        gen = SymPoly.generator(Q, v, k)
        prod = gen if prod is None else shuffle_mul(prod, gen)
        if prod.is_zero():
            break
    return prod


def spherical_products(Q, gamma, d):
    """All products of rank-one generator powers of total rank gamma and
    polynomial degree <= d (ordered words, left factor acting first in the
    product notation f1 * f2 * ...)."""
    d = read_int(d, "degree")
    out = []
    for word, _slots, chi, _factors, _terms in _SchurRows(Q, gamma).words:
        if d + chi < 0:
            continue
        for ks in _compositions(len(word) + 1, d + chi):
            prod = _word_product(Q, word, ks[:-1])
            if not prod.is_zero():
                out.append(prod)
    return out


# -- spherical span in Schur coordinates -------------------------------------


def _vertex_slices(Q, gamma, offset):
    """(start, stop) of each vertex's slot positions, vertices of rank 0
    left out."""
    return tuple((offset[v], offset[v] + gamma[v]) for v in Q.vertices if gamma[v])


def _alternant_key(e, slices):
    """(key, sign) with Alt(x^e) = sign * Alt(x^key), Alt the signed sum over
    the slot permutations inside every slice (start, stop): key sorts e
    increasing within every slice and keeps the positions outside them,
    sign is the sign of that sort.  None if e repeats an exponent within a
    slice, where Alt(x^e) = 0."""
    key = ()
    start = 0
    swaps = 0  # transpositions undoing each sort: slots minus cycles, the sort's parity
    for lo, hi in slices:
        part = e[lo:hi]
        ordered = tuple(sorted(part))
        if any(map(eq, ordered, ordered[1:])):
            return None
        order = sorted(range(hi - lo), key=part.__getitem__)
        for i in range(hi - lo):
            while (j := order[i]) != i:
                order[i], order[j] = order[j], j
                swaps += 1
        key += e[start:lo] + ordered
        start = hi
    return key + e[start:], -1 if swaps % 2 else 1


class _SchurRows:
    """The word products of spherical_products(Q, gamma, d) in Schur
    coordinates, made on demand one degree at a time; products that vanish
    give no row.

    The product of the word w with exponents k is Alt(x^k * A_w) / Vdm, A_w
    being prod_{p<q} (x[s(q)] - x[s(p)])^a(w_p, w_q) with letter p in its
    standard slot s(p), and Alt(x^key) / Vdm is the product over vertices
    of s_lambda, lambda = key - (0, 1, ...) on the vertex's slice.  The
    product has degree sum(k) - chi(w), chi(w) = sum_{p<q} chi(w_p, w_q), so
    the rows of degree D are those of the k with sum D + chi(w).  A_w is
    multiplied out on first use.  The first row made is also built by
    shuffle_mul, and its Schur coordinates must agree.  The words, with
    chi(w), are also those of spherical_products."""

    def __init__(self, Q, gamma):
        self.gamma = gamma = check_dimvec(Q, gamma, what="rank vector")
        self.quiver = Q
        offset = _layout(Q.vertices, tuple(gamma[v] for v in Q.vertices)).offset
        self.slices = _vertex_slices(Q, gamma, offset)
        self.runs = tuple(hi - lo for lo, hi in self.slices)
        self.vdm = sum(n * (n - 1) // 2 for n in self.runs)  # deg Vdm: same-letter pairs
        counts = Counter((a.source, a.target) for a in Q.arrows)
        self.words = []  # [word, slots, chi(w), A_w's factors, A_w's terms once made]
        for word in _vertex_words(Q, gamma):
            filled = dict.fromkeys(Q.vertices, 0)
            slots = []
            for v in word:
                slots.append(offset[v] + filled[v])
                filled[v] += 1
            factors = [  # (s(q), s(p)) once per arrow from w_p to w_q, p < q
                (slots[q], slots[p])
                for p, q in combinations(range(len(word)), 2)
                for _ in range(counts[word[p], word[q]])
            ]
            self.words.append([word, slots, self.vdm - len(factors), factors, None])
        self.alternants = {}  # exponent tuple -> _alternant_key
        self.unchecked = True

    def degrees(self, d):
        """The degrees from the lowest of a product, but at least 0, to d: a
        degree D < 0 has no Schur key."""
        return range(max(0, min(-entry[2] for entry in self.words)), d + 1)

    def keys(self, D):
        """The Schur keys of degree D: a strictly increasing run on every
        slice, the entries summing to D + deg(Vdm)."""
        return _schur_keys(self.runs, D + self.vdm)

    def rows(self, D, index):
        """The rows of degree D as lists over index, a map from Schur key to
        column; a row key missing from index is an internal bug."""
        slices, alternants = self.slices, self.alternants
        n = sum(self.runs)
        for entry in self.words:
            word, slots, chi, factors, terms = entry
            if D + chi < 0:
                continue
            if terms is None:
                arrows = {(0,) * n: 1}
                for b, a in factors:
                    arrows = _times_diff(arrows, b, a)
                terms = entry[4] = list(arrows.items())
            for ks in _compositions(len(word), D + chi):
                shift = [0] * n
                for s, k in zip(slots, ks):
                    shift[s] = k
                row = {}
                for e, c in terms:
                    e = tuple(map(add, e, shift))
                    hit = alternants.get(e, False)
                    if hit is False:
                        hit = alternants[e] = _alternant_key(e, slices)
                    if hit:
                        key, sign = hit
                        row[key] = row.get(key, 0) + sign * c
                row = {key: c for key, c in row.items() if c}
                if self.unchecked:
                    first = _word_product(self.quiver, word, ks).dense[0]
                    if _schur_coordinates(first, slices) != row:
                        raise InternalConsistencyError(
                            f"Schur coordinates of the word {word} with exponents {ks}"
                            " disagree with its shuffle product"
                        )
                    self.unchecked = False
                if not row:
                    continue
                out = [0] * len(index)
                for key, c in row.items():
                    if key not in index:
                        raise InternalConsistencyError(
                            f"Schur key {key} of the word {word} with exponents {ks}"
                            f" is not a key of degree {D}"
                        )
                    out[index[key]] = c
                yield out


class _RowsRead(list):
    """The rows of an iterator, read on demand: iterating yields them and
    keeps each, so once a lazy reader such as rref stops, the list holds
    the rows it read.  Unlike a bare generator, it can still be measured and
    indexed after the call, as the benchmark's tracer does with rref's
    argument."""

    __slots__ = ("_rows",)

    def __init__(self, rows):
        super().__init__()
        self._rows = rows

    def __iter__(self):
        for row in self._rows:
            self.append(row)
            yield row


@lru_cache(maxsize=1024)
def _schur_keys(runs, total, low=0):
    """Every key with entry sum total over runs, in lexicographic order: a
    strictly increasing run of runs[0] entries, the first >= low, followed
    by a key over runs[1:]."""
    if not runs:
        return ((),) if total == 0 else ()
    n, rest = runs[0], runs[1:]
    if n == 0:
        return _schur_keys(rest, total)
    out = []
    a = low
    while n * a + n * (n - 1) // 2 <= total:  # the least sum of a run from a
        out.extend((a,) + key for key in _schur_keys((n - 1,) + rest, total - a, a + 1))
        a += 1
    return tuple(out)


@lru_cache(maxsize=4096)
def _kostka(lam, floor=0):
    """s_lam(x_1..x_n), lam weakly decreasing padded with zeros, on its weakly
    decreasing exponent tuples with entries >= floor, as a cached dict: with
    floor 0, the K_lam,mu of s_lam = sum_mu K_lam,mu m_mu (Macdonald I.6).
    Branching rule (I.5): s_lam sums s_mu(x_1..x_{n-1}) * x_n^(|lam| - |mu|)
    over mu with lam_{i+1} <= mu_i <= lam_i; x_n's exponent floors the rest."""
    if not lam:
        return {(): 1}
    out = {}
    size = sum(lam)
    for mu in product(*(range(lam[i + 1], lam[i] + 1) for i in range(len(lam) - 1))):
        top = size - sum(mu)
        if top >= floor:
            for e, c in _kostka(mu, top).items():
                e += (top,)
                out[e] = out.get(e, 0) + c
    return out


def _m_coordinates(coordinates, slices):
    """Schur coordinates {key: c} over the slices (start, stop) as
    monomial-symmetric ones, {e: c} for c times x^e's orbit: slice by slice,
    _kostka of lambda = key - (0, 1, ...) reversed gives e there, weakly
    decreasing; positions outside are kept and zero coordinates dropped."""
    for lo, hi in slices:
        out = {}
        for key, c in coordinates.items():
            head, tail = key[:lo], key[hi:]
            for mu, k in _kostka(tuple(map(sub, key[lo:hi], range(hi - lo)))[::-1]).items():
                e = head + mu + tail
                out[e] = out.get(e, 0) + c * k
        coordinates = out
    return {e: c for e, c in coordinates.items() if c}


@lru_cache(maxsize=4096)
def _monomial_symmetric(e, slices):
    """The orbit of e under the slot permutations inside the slices (start,
    stop), as a cached tuple: every ordering of e on each slice, the runs
    between slices kept; its sum is the product over slices of m_mu."""
    orbit = [()]
    start = 0
    for lo, hi in slices:
        orbit = [a + e[start:lo] + b for a in orbit for b in _orderings(e[lo:hi])]
        start = hi
    return tuple(a + e[start:] for a in orbit)


def _monomial_order(m):
    """Columns of the span: monomials by number of variables, then as tuples."""
    return len(m), m


def spherical_span(Q, gamma, d):
    """Row-reduced basis of the degree-<=d slice generated by rank-one
    elements, as SymPoly values: the reduced row echelon form of the span
    of spherical_products, columns in the order (len(m), m) of monomials.

    Each degree is row-reduced in Schur coordinates, over all its Schur
    keys, reading the products lazily: rref stops once every key has a
    pivot.  Such a full degree is the whole symmetric space of its degree,
    whose reduced basis over monomials is the monomial symmetric functions
    m_lambda, each with coefficient 1 (their supports are disjoint).  In
    any other degree the basis rows are taken to monomial-symmetric
    coordinates and row-reduced once more, columns in the order of each
    orbit's least monomial: the rows are symmetric, so this is their
    reduced form over monomials, orbit by orbit.  Degrees have disjoint
    monomials, so their reduced rows, merged in order of pivot, are the
    reduced form of the whole span."""
    d = read_int(d, "degree")
    source = _SchurRows(Q, gamma)
    gamma, slices = source.gamma, source.slices
    layout = _layout(Q.vertices, tuple(gamma[v] for v in Q.vertices))

    def orbit(s):
        """x^s's orbit as Poly monomials (named as by _from_dense), least first."""
        return sorted((tuple((v, k) for v, k in zip(layout.names, layout.to_names(e)) if k)
                       for e in _monomial_symmetric(s, slices)), key=_monomial_order)

    basis = []
    for D in source.degrees(d):
        keys = source.keys(D)
        if not keys:
            continue
        index = {key: i for i, key in enumerate(keys)}
        reduced, pivots = rref(QQ, _RowsRead(source.rows(D, index)))
        if not pivots:
            continue
        if len(pivots) == len(keys):  # m_lambda, lambda = key - (0, 1, ...) reversed
            rows = [{tuple(key[i] - i + lo for lo, hi in slices for i in reversed(range(lo, hi))):
                     Fraction(1)} for key in keys]
        else:
            rows = [_m_coordinates({key: c for key, c in zip(keys, _as_ints(QQ, row)) if c}, slices)
                    for row in reduced]
        orbits = {s: orbit(s) for row in rows for s in row}
        if len(pivots) < len(keys):
            columns = sorted(orbits, key=lambda s: _monomial_order(orbits[s][0]))
            reduced, _ = rref(QQ, [[row.get(s, 0) for s in columns] for row in rows])
            rows = [{s: c for s, c in zip(columns, row) if c} for row in reduced]
        for row in rows:
            p = Poly.zero()
            p.terms.update((m, c) for s, c in row.items() for m in orbits[s])
            basis.append((min(_monomial_order(orbits[s][0]) for s in row), p))
    basis.sort(key=itemgetter(0))
    return [SymPoly(Q, gamma, p) for _, p in basis]


def _schur_basis(Q, gamma, d):
    """(column index, rref rows, pivots) of the Schur coordinates of every
    word product of (gamma, d), over the Schur keys of all degrees <= d in
    one reduction.  Memoized per (gamma, d) on the quiver instance, like
    _contracted_quiver: the memo is the quiver's own dict, made on first
    use, and dies with it."""
    memo = Q._spherical_bases
    if memo is None:
        memo = Q._spherical_bases = {}
    sector = (tuple(gamma[v] for v in Q.vertices), d)
    if sector not in memo:
        source = _SchurRows(Q, gamma)
        keys = [key for D in source.degrees(d) for key in source.keys(D)]
        index = {key: i for i, key in enumerate(keys)}
        rows = (row for D in source.degrees(d) for row in source.rows(D, index))
        reduced, pivots = rref(QQ, _RowsRead(rows))
        memo[sector] = (index, reduced, pivots)
    return memo[sector]


def spherical_membership(f, d=None):
    """True / False / INCONCLUSIVE membership of f in the span of rank-one
    generator products.  Exact below the degree bound; degrees above the
    bound cannot be decided by the truncated span.  f's Schur coordinates
    are tested against the reduced Schur basis of (gamma, d), which is
    reduced once per quiver instance."""
    d = f.poly.total_degree() if d is None else read_int(d, "degree")
    if f.poly.total_degree() > d:
        return INCONCLUSIVE
    if f.poly.is_zero():
        return True
    index, reduced, pivots = _schur_basis(f.quiver, f.gamma, d)
    coords = _schur_coordinates(f.dense[0], _vertex_slices(f.quiver, f.gamma, f.layout().offset))
    if any(key not in index for key in coords):
        return False
    v = [0] * len(index)
    for key, c in coords.items():
        v[index[key]] = c
    return in_span(QQ, reduced, pivots, v)
