"""Series-action ratios, small-rank coproduct/antipode, the skew pairing,
and the cross-relation check for the combined double under edge contraction.

The diagonal series generators are never expanded into modes: everything
factors through (a) the conjugation ratio by which a series acts on a block
polynomial, (b) the group-like coproduct of series words, and (c) the
skew pairing.  Two families of series words are carried ("psi" for the
first factor of the double, "phi" for the second); the second family
differs from the first by the per-vertex sign (-1)^{r_i+1} (r_i = number of
loops), carried as metadata and never folded into the words themselves.
The cross relation (1 (x) g)(f (x) 1) at rank (1,1) is taken in closed
form, three terms in the block pairing p = (f, g), which is not modelled
(see skew_pairing); the counit and the antipode are public API that the
closed form's derivation rests on.
"""

from fractions import Fraction
from math import factorial
from typing import NamedTuple

from .contraction import contract_quiver
from .errors import (
    InternalConsistencyError,
    PreconditionError,
    ScopeError,
)
from .poly import Combination, Poly, fvar, xvar
from .quiver import check_dimvec, check_equal_rank, contraction_ends
from .shuffle import SymPoly, contract_shuffle, fac

ZVAR = fvar("z")
UVAR = fvar("u")
WVAR = fvar("w")


# ---------------------------------------------------------------------------
# action ratios


def psi_action_ratio(Q, i, gamma, var=ZVAR):
    """Conjugation ratio of the vertex-i diagonal series on a block of rank
    gamma: conjugating a block polynomial multiplies it by
    fac(z|x_{[1,gamma]}) / fac(x_{[1,gamma]}|z), returned as a factored
    rational function in z and the block variables."""
    check_dimvec(Q, gamma)
    if i not in Q.vertices:
        raise PreconditionError(f"no vertex named {i!r}")
    block = {j: [xvar(j, a) for a in range(1, gamma[j] + 1)] for j in Q.vertices}
    return fac(Q, {i: [var]}, block) / fac(Q, block, {i: [var]})


def contraction_ratio_check(Q, a0_id, gamma):
    """Merging the two endpoint series matches the merged-vertex series.

    For a0: i+ -> i- and an equal-sector gamma, the product of the i+ and
    i- action ratios, with every x[i-,alpha] renamed to x[i+,alpha], must
    equal the action ratio of the surviving vertex on the contracted
    quiver.  Returns the truth of that identity of rational functions."""
    ip, im = contraction_ends(Q, a0_id)
    check_dimvec(Q, gamma)
    check_equal_rank(gamma, ip, im)
    ratio = psi_action_ratio(Q, ip, gamma) * psi_action_ratio(Q, im, gamma)
    ren = {xvar(im, a): xvar(ip, a) for a in range(1, gamma[im] + 1)}
    lhs = ratio.rename_vars(ren)
    Qhat, _, _ = contract_quiver(Q, a0_id)
    ghat = {v: gamma[v] for v in Qhat.vertices}
    rhs = psi_action_ratio(Qhat, ip, ghat)
    return lhs == rhs


def localization_denominator(Q, g1, g2):
    """The cross-block linear product:  over all ordered vertex pairs
    (i, j), the factors (x[j,alpha2] - x[i,alpha1]) with alpha1 running
    through the first g1[i] slots at i and alpha2 through the g2[j] slots
    stacked after the first g1[j] at j.  No arrow multiplicities enter."""
    check_dimvec(Q, g1)
    check_dimvec(Q, g2)
    out = Poly.const(1)
    for i in Q.vertices:
        for j in Q.vertices:
            for a1 in range(1, g1[i] + 1):
                for a2 in range(g1[j] + 1, g1[j] + g2[j] + 1):
                    out = out * Poly.linear_diff(xvar(j, a2), xvar(i, a1))
    return out


# ---------------------------------------------------------------------------
# series words and tensors


class PsiWord:
    """A product of diagonal-series factors attached to block slots:
    prod over (vertex, slot) of series_vertex(x[vertex, slot])^exp.

    kind is "psi" (first family) or "phi" (second family); the empty word
    is the unit and belongs to both families (normalized to "psi").  Words
    are group-like for the coproduct."""

    __slots__ = ("kind", "exps")

    def __init__(self, kind="psi", exps=None):
        if kind not in ("psi", "phi"):
            raise InternalConsistencyError(f"unknown series family {kind!r}")
        cleaned = {}
        for (v, slot), e in (exps or {}).items():
            e = int(e)
            if not e:
                continue
            if not isinstance(slot, int) or slot < 1:
                raise InternalConsistencyError(f"bad slot {slot!r}")
            cleaned[(str(v), slot)] = e
        self.exps = cleaned
        self.kind = kind if cleaned else "psi"

    @staticmethod
    def unit():
        return PsiWord()

    @staticmethod
    def over_block(gamma, kind="psi", exp=1):
        """One factor per block slot (i, alpha <= gamma[i]), all to `exp`."""
        exps = {}
        for v, n in gamma.items():
            for a in range(1, n + 1):
                exps[(v, a)] = exp
        return PsiWord(kind, exps)

    def is_unit(self):
        return not self.exps

    def key(self):
        return (self.kind, tuple(sorted(self.exps.items())))

    def inverse(self):
        return PsiWord(self.kind, {s: -e for s, e in self.exps.items()})

    def __mul__(self, other):
        if not isinstance(other, PsiWord):
            return NotImplemented
        if self.is_unit():
            return other
        if other.is_unit():
            return self
        if self.kind != other.kind:
            raise ScopeError("cannot merge series words of different families")
        exps = dict(self.exps)
        for s, e in other.exps.items():
            exps[s] = exps.get(s, 0) + e
        return PsiWord(self.kind, exps)

    def __eq__(self, other):
        return isinstance(other, PsiWord) and self.key() == other.key()

    def __hash__(self):
        return hash(self.key())

    def __str__(self):
        if not self.exps:
            return "1"
        parts = []
        for (v, a), e in sorted(self.exps.items()):
            base = f"{self.kind}[{v}](x[{v},{a}])"
            parts.append(base if e == 1 else f"{base}^{e}")
        return "*".join(parts)

    __repr__ = __str__


def family_sign(Q, word):
    """Sign relating a second-family word to the first-family word on the
    same slots: the per-factor sign is (-1)^{r_v+1} with r_v the number of
    loops at the factor's vertex.  First-family words return 1."""
    if word.kind == "psi":
        return 1
    s = 1
    for (v, _slot), e in word.exps.items():
        s *= (-1) ** ((len(Q.loops_at(v)) + 1) * e)
    return s


def contract_psi_word(word, ip, im):
    """Image of a series word under edge contraction: slots at i- fuse with
    the matching slots at i+ (the merged generator is a single factor), all
    other slots are kept.  Requires matching exponents on paired slots."""
    out = {}
    for (v, a), e in word.exps.items():
        if v == im:
            if word.exps.get((ip, a), 0) != e:
                raise ScopeError(
                    "series word is not in the equal-sector domain of the contraction"
                )
            continue
        out[(v, a)] = e
    return PsiWord(word.kind, out)


class TensorElement(Combination):
    """Finite rational combination of n-fold tensors, keyed by the tuple of
    legs; legs are series words or block polynomials.  Scalar legs
    (rank-zero polynomials) are folded into the coefficient; zero
    polynomial legs kill their term."""

    __slots__ = ()

    @staticmethod
    def of(nlegs, *contributions):
        """The sum of coeff * legs[0] (x) ... (x) legs[-1] over the
        (coeff, legs) contributions, each with nlegs legs."""
        return TensorElement.from_pairs(TensorElement._normal_terms(nlegs, contributions))

    @staticmethod
    def _normal_terms(nlegs, contributions):
        for coeff, legs in contributions:
            coeff = Fraction(coeff)
            if not coeff:
                continue
            if len(legs) != nlegs:
                raise InternalConsistencyError(f"expected {nlegs} legs, got {len(legs)}")
            norm = []
            for leg in legs:
                if isinstance(leg, SymPoly):
                    if leg.is_zero():
                        break
                    if sum(leg.gamma.values()) == 0:
                        coeff *= leg.poly.constant_value()
                        norm.append(PsiWord.unit())
                    else:
                        norm.append(leg)
                elif isinstance(leg, PsiWord):
                    norm.append(leg)
                else:
                    raise InternalConsistencyError(f"bad tensor leg {leg!r}")
            else:
                yield tuple(norm), coeff

    def __str__(self):
        if not self.terms:
            return "0"
        bits = []
        for legs, c in sorted(self.terms.items(), key=lambda t: str(t[0])):
            body = " (x) ".join(str(l) for l in legs)
            bits.append(f"({c})*{body}" if c != 1 else body)
        return " + ".join(bits)

    __repr__ = __str__


# ---------------------------------------------------------------------------
# coproduct / counit / antipode at small rank


def _support(f):
    return [v for v in f.quiver.vertices if f.gamma[v]]


def coproduct_small(f):
    """Two-term coproduct at the ranks where it closes without localized
    middle terms: a single slot at one vertex, or one slot at each of two
    vertices with only the equal-bidegree terms kept."""
    if not isinstance(f, SymPoly):
        raise ScopeError("coproduct_small expects a block polynomial")
    support = _support(f)
    total = sum(f.gamma.values())
    unit = PsiWord.unit()
    if total == 1:
        (i,) = support
        series = PsiWord("psi", {(i, 1): 1})
        return TensorElement.of(2, (1, (series, f)), (1, (f, unit)))
    if total == 2 and len(support) == 2:
        u, v = support
        series = PsiWord("psi", {(u, 1): 1, (v, 1): 1})
        return TensorElement.of(2, (1, (series, f)), (1, (f, unit)))
    raise ScopeError(
        "coproduct_small covers single-slot ranks and (1,1) blocks only"
    )


def counit(x):
    """Counit: 1 on series words, the constant on rank-zero polynomials,
    0 on positive-rank polynomials."""
    if isinstance(x, PsiWord):
        return Fraction(1)
    if isinstance(x, SymPoly):
        if sum(x.gamma.values()) == 0:
            return x.poly.constant_value()
        return Fraction(0)
    raise ScopeError(f"counit undefined for {x!r}")


class AntipodeImage(NamedTuple):
    """(-1)^{sum gamma} times an inverse series word over the whole block,
    times the original polynomial."""

    sign: int
    word: "PsiWord"
    poly: "SymPoly"


def antipode_small(x):
    """Antipode: inverts series words; a block polynomial f of rank gamma
    maps to (-1)^{|gamma|} times the inverse full-block series word times
    f, with |gamma| the total number of slots."""
    if isinstance(x, PsiWord):
        return x.inverse()
    if isinstance(x, SymPoly):
        total = sum(x.gamma.values())
        word = PsiWord.over_block(x.gamma, kind="psi", exp=-1)
        return AntipodeImage((-1) ** total, word, x)
    raise ScopeError(f"antipode_small undefined for {x!r}")


def coassociativity_check(f):
    """(delta (x) id) delta(f) == (id (x) delta) delta(f), expanded with
    the group-like rule on series-word legs."""

    def expand(leg):
        if isinstance(leg, PsiWord):
            return [((leg, leg), Fraction(1))]
        return [(legs, c) for legs, c in coproduct_small(leg).terms.items()]

    delta = coproduct_small(f)
    left, right = [], []
    for (l1, l2), c in delta.terms.items():
        left += [(c * d, (m1, m2, l2)) for (m1, m2), d in expand(l1)]
        right += [(c * d, (l1, m1, m2)) for (m1, m2), d in expand(l2)]
    return TensorElement.of(3, *left) == TensorElement.of(3, *right)


# ---------------------------------------------------------------------------
# pairing


class PsiGenerator(NamedTuple):
    """First-family diagonal series at a vertex, in its own formal variable."""

    quiver: object
    vertex: str


class PhiGenerator(NamedTuple):
    """Second-family diagonal series at a vertex, in its own formal variable."""

    quiver: object
    vertex: str


def skew_pairing(f, g):
    """Pairing between the two halves of the double.

    Block polynomials of unequal rank pair to 0; equal ranks pair to the
    product of the constants at rank 0, to 0 at one or two slots (their
    residue formula's last residue is of a polynomial over 1), and are
    refused above: the double's block pairing needs a negative half in
    inverse powers, which is not represented.  A polynomial against a series
    generator is 0 either way round; a first-family generator at k against
    a second-family generator at l returns fac(u|w)/fac(w|u) in u, w."""
    if isinstance(f, PsiGenerator) and isinstance(g, PhiGenerator):
        Q = f.quiver
        if g.quiver != Q:
            raise PreconditionError("generators live on different quivers")
        k, l = f.vertex, g.vertex
        return fac(Q, {k: [UVAR]}, {l: [WVAR]}) / fac(Q, {l: [WVAR]}, {k: [UVAR]})
    if isinstance(f, SymPoly) and isinstance(g, PhiGenerator):
        return Fraction(0)
    if isinstance(f, PsiGenerator) and isinstance(g, SymPoly):
        return Fraction(0)
    if isinstance(f, SymPoly) and isinstance(g, SymPoly):
        if f.quiver != g.quiver:
            raise PreconditionError("pairing requires a common quiver")
        if f.gamma != g.gamma:
            return Fraction(0)
        total = sum(f.gamma.values())
        if total == 0:
            return f.poly.constant_value() * g.poly.constant_value()
        if total > 2:
            raise ScopeError("polynomial pairing implemented for blocks of at most two slots")
        return Fraction(0)
    raise ScopeError(f"skew_pairing undefined for {f!r}, {g!r}")


# ---------------------------------------------------------------------------
# cross relation of the combined double under contraction


def _cross_relation(f, g, slots, p):
    """The three terms (coeff, legs) of (1 (x) g)(f (x) 1) for positive-rank
    blocks f, g on the slots S, with p = (f, g):

        p * (psi_S (x) 1) + (f (x) g) - p * (1 (x) phi_S).

    Of the nine pairs of f's and g's iterated two-term coproducts, each
    giving (a1, S_B(b1)) * a2 (x) b2 * (a3, b3), the counit kills every
    block paired with a word, and S_B(g) paired with f gives -p."""
    unit = PsiWord.unit()
    return [
        (p, (PsiWord("psi", {s: 1 for s in slots}), unit)),
        (1, (f, g)),
        (-p, (unit, PsiWord("phi", {s: 1 for s in slots}))),
    ]


def double_cross_check(f, g, a0_id):
    """Cross relation versus contraction, at one slot on each endpoint of
    the contracted arrow.

    Takes the terms of (1 (x) g)(f (x) 1) on the source quiver
    (`_cross_relation`), applies the contraction to every leg (series
    words by slot fusion, block polynomials by substitution), and compares
    them with the terms of (1 (x) g^)(f^ (x) 1) computed on the contracted
    quiver, both at the contracted pairing p^: 0 while the block pairing is
    not modelled, so only the scope refusals and the legs are checked."""
    if not isinstance(f, SymPoly) or not isinstance(g, SymPoly):
        raise ScopeError("double_cross_check expects block polynomials")
    Q = f.quiver
    if g.quiver != Q:
        raise PreconditionError("cross check requires a common quiver")
    ip, im = contraction_ends(Q, a0_id)
    for h in (f, g):
        if h.gamma[ip] != 1 or h.gamma[im] != 1 or sum(h.gamma.values()) != 2:
            raise ScopeError(
                "cross check covers one slot at each contracted endpoint"
            )
    fhat = contract_shuffle(f, a0_id)
    ghat = contract_shuffle(g, a0_id)
    phat = skew_pairing(fhat, ghat)

    def contract(leg):
        if isinstance(leg, PsiWord):
            return contract_psi_word(leg, ip, im)
        return contract_shuffle(leg, a0_id)

    source = _cross_relation(f, g, [(ip, 1), (im, 1)], phat)
    contracted = [(c, tuple(map(contract, legs))) for c, legs in source]
    direct = _cross_relation(fhat, ghat, [(ip, 1)], phat)
    return TensorElement.of(2, *contracted) == TensorElement.of(2, *direct)


# ---------------------------------------------------------------------------
# normalization bookkeeping under contraction


def normalization_collapse_check(Q, a0_id, k, block_poly):
    """Counting content of the block-factorial change under contraction.

    Symmetrize over independent slot permutations of the i+ and i- blocks
    (rank k each), substitute x[i-,alpha] -> x[i+,alpha], and compare with
    k! times the single-block symmetrization on the survivor: for inputs
    supported on the surviving block the duplicate i- permutations collapse
    into exactly gamma^{i-}! = k! copies."""
    from itertools import permutations

    ip, im = contraction_ends(Q, a0_id)
    allowed = {xvar(ip, a) for a in range(1, k + 1)}
    if not set(block_poly.variables()) <= allowed:
        raise PreconditionError(
            "input must be supported on the surviving block's slots"
        )
    merge = {xvar(im, a): xvar(ip, a) for a in range(1, k + 1)}
    lhs = Poly.zero()
    for sigma in permutations(range(1, k + 1)):
        sp = {xvar(ip, a): xvar(ip, sigma[a - 1]) for a in range(1, k + 1)}
        for tau in permutations(range(1, k + 1)):
            tp = {xvar(im, a): xvar(im, tau[a - 1]) for a in range(1, k + 1)}
            lhs = lhs + block_poly.rename_vars(sp).rename_vars(tp).rename_vars(merge)
    rhs = Poly.zero()
    for sigma in permutations(range(1, k + 1)):
        sp = {xvar(ip, a): xvar(ip, sigma[a - 1]) for a in range(1, k + 1)}
        rhs = rhs + block_poly.rename_vars(sp)
    return lhs == rhs * factorial(k)
