"""Action ratios, small-rank coproduct/antipode, residue pairing, and the
double cross-relation check under contraction."""

from fractions import Fraction

import pytest

from quiveralg.errors import DimensionVectorError, PreconditionError, ScopeError
from quiveralg.hopf import (
    UVAR,
    WVAR,
    ZVAR,
    AntipodeImage,
    PhiGenerator,
    PsiGenerator,
    PsiWord,
    TensorElement,
    _cross_relation,
    antipode_small,
    coassociativity_check,
    contract_psi_word,
    contraction_ratio_check,
    coproduct_small,
    counit,
    double_cross_check,
    family_sign,
    localization_denominator,
    normalization_collapse_check,
    psi_action_ratio,
    skew_pairing,
)
from quiveralg.poly import Poly, Rat, xvar
from quiveralg.quiver import Arrow, Quiver
from quiveralg.shuffle import SymPoly

from conftest import (
    a2_quiver,
    jordan_quiver,
    kronecker_quiver,
    point_quiver,
    random_dimvec,
    random_quiver,
    showcase_qp,
)


def x(v, a=1, k=1):
    return Poly.var(xvar(v, a), k)


def sym(Q, gamma, poly):
    return SymPoly(Q, gamma, poly)


def rank11(Q, u, v, poly):
    gamma = {w: 1 if w in (u, v) else 0 for w in Q.vertices}
    return SymPoly(Q, gamma, poly)


# ---------------------------------------------------------------------------
# action ratios


def test_ratio_jordan_is_one():
    Q = jordan_quiver()
    assert psi_action_ratio(Q, "1", {"1": 1}) == Rat.one()


def test_ratio_point_is_minus_one():
    Q = point_quiver()
    assert psi_action_ratio(Q, "1", {"1": 1}) == Rat(-1)


def test_ratio_a2_single_arrow_factor():
    Q = a2_quiver()
    got = psi_action_ratio(Q, "1", {"1": 0, "2": 1})
    assert got == Rat.from_poly(Poly.linear_diff(xvar("2", 1), ZVAR))


def test_ratio_empty_block_is_one(rng):
    for _ in range(5):
        Q = random_quiver(rng)
        gamma = {v: 0 for v in Q.vertices}
        for i in Q.vertices:
            assert psi_action_ratio(Q, i, gamma) == Rat.one()


def test_ratio_multiplicative_in_block(rng):
    checked = 0
    while checked < 12:
        Q = random_quiver(rng, max_vertices=3, max_arrows=4)
        i = rng.choice(Q.vertices)
        g1 = random_dimvec(rng, Q, max_entry=2)
        g2 = random_dimvec(rng, Q, max_entry=2)
        total = {v: g1[v] + g2[v] for v in Q.vertices}
        lhs = psi_action_ratio(Q, i, total)
        shift = {}
        for v in Q.vertices:
            for a in range(1, g2[v] + 1):
                shift[xvar(v, a)] = xvar(v, a + g1[v])
        rhs = psi_action_ratio(Q, i, g1) * psi_action_ratio(Q, i, g2).rename_vars(shift)
        assert lhs == rhs
        checked += 1


def test_contraction_ratio_a2():
    Q = a2_quiver()
    assert contraction_ratio_check(Q, "a", {"1": 1, "2": 1})


def test_contraction_ratio_kronecker():
    Q = kronecker_quiver()
    assert contraction_ratio_check(Q, "a0", {"i+": 1, "i-": 1})
    assert contraction_ratio_check(Q, "a0", {"i+": 2, "i-": 2})


def test_contraction_ratio_showcase():
    Q = showcase_qp().quiver
    assert contraction_ratio_check(Q, "a0", {"i+": 1, "i-": 1, "1": 0, "2": 0})
    assert contraction_ratio_check(Q, "a0", {"i+": 1, "i-": 1, "1": 2, "2": 1})


def test_contraction_ratio_zero_block(rng):
    for _ in range(5):
        Q = random_quiver(rng)
        edges = [a for a in Q.arrows if a.source != a.target]
        if not edges:
            continue
        a0 = rng.choice(edges)
        gamma = {v: 0 for v in Q.vertices}
        assert contraction_ratio_check(Q, a0.id, gamma)


def test_contraction_ratio_random(rng):
    checked = 0
    while checked < 20:
        Q = random_quiver(rng, max_vertices=4, max_arrows=6)
        edges = [a for a in Q.arrows if a.source != a.target]
        if not edges:
            continue
        a0 = rng.choice(edges)
        gamma = random_dimvec(rng, Q, max_entry=2)
        gamma[a0.target] = gamma[a0.source]
        assert contraction_ratio_check(Q, a0.id, gamma)
        checked += 1


def test_contraction_ratio_rejects_loop_and_unequal():
    Q = jordan_quiver()
    with pytest.raises(PreconditionError):
        contraction_ratio_check(Q, "l", {"1": 1})
    Q2 = a2_quiver()
    with pytest.raises(PreconditionError):
        contraction_ratio_check(Q2, "a", {"1": 1, "2": 2})


# ---------------------------------------------------------------------------
# localization denominator


def test_localization_denominator_point():
    Q = point_quiver()
    assert localization_denominator(Q, {"1": 1}, {"1": 1}) == Poly.linear_diff(
        xvar("1", 2), xvar("1", 1)
    )
    got = localization_denominator(Q, {"1": 2}, {"1": 1})
    want = Poly.linear_diff(xvar("1", 3), xvar("1", 1)) * Poly.linear_diff(
        xvar("1", 3), xvar("1", 2)
    )
    assert got == want


def test_localization_denominator_a2_ignores_arrows():
    Q = a2_quiver()
    e1 = {"1": 1, "2": 0}
    e2 = {"1": 0, "2": 1}
    assert localization_denominator(Q, e1, e2) == Poly.linear_diff(
        xvar("2", 1), xvar("1", 1)
    )
    # the reverse order also carries a factor: no arrow multiplicities enter
    assert localization_denominator(Q, e2, e1) == Poly.linear_diff(
        xvar("1", 1), xvar("2", 1)
    )
    zero = {"1": 0, "2": 0}
    assert localization_denominator(Q, zero, zero) == Poly.const(1)


# ---------------------------------------------------------------------------
# series words and tensors


def test_psi_word_unit_and_merge():
    u = PsiWord.unit()
    w = PsiWord("psi", {("1", 1): 1})
    assert u.is_unit() and (u * w) == w and (w * u) == w
    assert w * w == PsiWord("psi", {("1", 1): 2})
    assert w * w.inverse() == PsiWord.unit()
    phi = PsiWord("phi", {("1", 1): 1})
    with pytest.raises(ScopeError):
        w * phi


def test_psi_word_contraction_fuses_slots():
    w = PsiWord("psi", {("i+", 1): 1, ("i-", 1): 1, ("u", 2): 3})
    got = contract_psi_word(w, "i+", "i-")
    assert got == PsiWord("psi", {("i+", 1): 1, ("u", 2): 3})
    phi = PsiWord("phi", {("i+", 1): -1, ("i-", 1): -1})
    assert contract_psi_word(phi, "i+", "i-") == PsiWord("phi", {("i+", 1): -1})
    bad = PsiWord("psi", {("i-", 1): 1})
    with pytest.raises(ScopeError):
        contract_psi_word(bad, "i+", "i-")


def test_family_sign_counts_loops():
    assert family_sign(point_quiver(), PsiWord("phi", {("1", 1): 1})) == -1
    assert family_sign(jordan_quiver(), PsiWord("phi", {("1", 1): 1})) == 1
    assert family_sign(point_quiver(), PsiWord("psi", {("1", 1): 1})) == 1
    two = PsiWord("phi", {("1", 1): 1, ("1", 2): 1})
    assert family_sign(point_quiver(), two) == 1


def test_tensor_folds_scalar_legs():
    Q = point_quiver()
    three = sym(Q, {"1": 0}, Poly.const(3))
    f = sym(Q, {"1": 1}, x("1"))
    te = TensorElement.of(2, (1, (three, f)))
    assert te == TensorElement.of(2, (3, (PsiWord.unit(), f)))
    zero = sym(Q, {"1": 1}, Poly.zero())
    assert TensorElement.of(2, (5, (zero, f))).is_zero()
    assert (te - te).is_zero()
    assert te.scale(2) == te + te


# ---------------------------------------------------------------------------
# coproduct, counit, antipode


def test_coproduct_rank_one_display():
    Q = point_quiver()
    f = sym(Q, {"1": 1}, x("1"))
    series = PsiWord("psi", {("1", 1): 1})
    want = TensorElement.of(2, (1, (series, f)), (1, (f, PsiWord.unit())))
    assert coproduct_small(f) == want


def test_coproduct_equal_sector_display():
    Q = a2_quiver()
    f = rank11(Q, "1", "2", x("1") * x("2") + 2)
    series = PsiWord("psi", {("1", 1): 1, ("2", 1): 1})
    want = TensorElement.of(2, (1, (series, f)), (1, (f, PsiWord.unit())))
    assert coproduct_small(f) == want


def test_coproduct_rejects_higher_rank():
    Q = point_quiver()
    f = sym(Q, {"1": 2}, x("1") + x("1", 2))
    with pytest.raises(ScopeError):
        coproduct_small(f)


def test_counit_values():
    Q = point_quiver()
    assert counit(PsiWord("psi", {("1", 1): -2})) == 1
    assert counit(sym(Q, {"1": 1}, x("1"))) == 0
    assert counit(sym(Q, {"1": 0}, Poly.const(7))) == 7


def test_coassociativity_small(rng):
    Q = point_quiver()
    assert coassociativity_check(sym(Q, {"1": 1}, x("1", k=3) + 2 * x("1")))
    Q2 = a2_quiver()
    assert coassociativity_check(rank11(Q2, "1", "2", x("1", k=2) * x("2") - 5))
    for _ in range(10):
        c = rng.randint(-3, 3)
        d = rng.randint(0, 4)
        assert coassociativity_check(sym(Q, {"1": 1}, Poly.const(c) * x("1", k=1) + x("1", k=d)))


def test_antipode_inverts_series_words():
    w = PsiWord("psi", {("1", 1): 1, ("2", 2): -3})
    assert antipode_small(w) == w.inverse()


def test_antipode_rank_one_sign():
    Q = point_quiver()
    f = sym(Q, {"1": 1}, x("1", k=2))
    got = antipode_small(f)
    assert got == AntipodeImage(-1, PsiWord("psi", {("1", 1): -1}), f)


def test_antipode_rank_zero_is_identity():
    Q = point_quiver()
    f = sym(Q, {"1": 0}, Poly.const(4))
    assert antipode_small(f) == AntipodeImage(1, PsiWord.unit(), f)


def test_antipode_equal_sector_sign():
    Q = a2_quiver()
    f = rank11(Q, "1", "2", x("1") + x("2"))
    got = antipode_small(f)
    assert got.sign == 1
    assert got.word == PsiWord("psi", {("1", 1): -1, ("2", 1): -1})


# ---------------------------------------------------------------------------
# pairing


def test_pairing_units_rank_one_vanishes():
    Q = point_quiver()
    one = sym(Q, {"1": 1}, Poly.const(1))
    assert skew_pairing(one, one) == 0
    f = sym(Q, {"1": 1}, x("1", k=5) + x("1"))
    g = sym(Q, {"1": 1}, 3 * x("1", k=2))
    assert skew_pairing(f, g) == 0


def test_pairing_unequal_ranks_vanish():
    Q = a2_quiver()
    f = sym(Q, {"1": 1, "2": 0}, x("1"))
    g = sym(Q, {"1": 0, "2": 1}, x("2"))
    assert skew_pairing(f, g) == 0
    assert skew_pairing(f, PhiGenerator(Q, "2")) == 0
    assert skew_pairing(PsiGenerator(Q, "1"), g) == 0


def test_pairing_generators_a2():
    Q = a2_quiver()
    got = skew_pairing(PsiGenerator(Q, "1"), PhiGenerator(Q, "2"))
    assert got == Rat.from_poly(Poly.linear_diff(WVAR, UVAR))
    rev = skew_pairing(PsiGenerator(Q, "2"), PhiGenerator(Q, "1"))
    assert rev == Rat.from_poly(Poly.linear_diff(UVAR, WVAR)).inverse()


def test_pairing_equal_sector_and_double_slot(rng):
    Q = kronecker_quiver()
    gamma = {"i+": 1, "i-": 1}
    for _ in range(6):
        f = rank11(Q, "i+", "i-", _random_two_var(rng, "i+", "i-"))
        g = rank11(Q, "i+", "i-", _random_two_var(rng, "i+", "i-"))
        assert skew_pairing(f, g) == 0
    J = jordan_quiver()
    sym2 = sym(J, {"1": 2}, x("1", 1) * x("1", 2, 1) + x("1") + x("1", 2))
    assert skew_pairing(sym2, sym2) == 0
    with pytest.raises(ScopeError):
        big = sym(J, {"1": 3}, Poly.const(1))
        skew_pairing(big, big)


def _random_two_var(rng, u, v):
    poly = Poly.zero()
    for _ in range(3):
        c = rng.randint(-3, 3)
        poly = poly + Poly.const(c) * x(u, 1, rng.randint(0, 2)) * x(v, 1, rng.randint(0, 2))
    return poly


# ---------------------------------------------------------------------------
# reference kernels: each fac(A|B) written out by hand, one formula per
# shape, as the independent slow path for the shared kernel


def _ref_counts(Q):
    counts = {}
    for a in Q.arrows:
        counts[(a.source, a.target)] = counts.get((a.source, a.target), 0) + 1
    return counts


def _ref_fac_distinguished_block(Q, i, gamma, var):
    """fac(z | x_{[1,gamma]}): (x[j,alpha]-z)^{a_ij} over (x[i,alpha]-z)."""
    counts = _ref_counts(Q)
    out = Rat.one()
    for j in Q.vertices:
        e = counts.get((i, j), 0)
        if e:
            for a in range(1, gamma[j] + 1):
                out = out * Rat(1, [(Poly.linear_diff(xvar(j, a), var), e)])
    for a in range(1, gamma[i] + 1):
        out = out * Rat(1, [(Poly.linear_diff(xvar(i, a), var), -1)])
    return out


def _ref_fac_block_distinguished(Q, i, gamma, var):
    """fac(x_{[1,gamma]} | z): (z-x[s,alpha])^{a_si} over (z-x[i,alpha])."""
    counts = _ref_counts(Q)
    out = Rat.one()
    for s in Q.vertices:
        e = counts.get((s, i), 0)
        if e:
            for a in range(1, gamma[s] + 1):
                out = out * Rat(1, [(Poly.linear_diff(var, xvar(s, a)), e)])
    for a in range(1, gamma[i] + 1):
        out = out * Rat(1, [(Poly.linear_diff(var, xvar(i, a)), -1)])
    return out


def _ref_fac_single_single(Q, k, l, vk, vl):
    """fac(vk|vl) with single slots: vk at vertex k, vl at vertex l."""
    e_l = {v: 1 if v == l else 0 for v in Q.vertices}
    r = _ref_fac_distinguished_block(Q, k, e_l, vk)
    return r.rename_vars({xvar(l, 1): vl})


def _oracle_quiver(rng, seen):
    """Random quiver on 1-3 vertices with up to 6 arrows; records in `seen`
    whether it has a loop, parallel arrows or a 2-cycle."""
    Q = random_quiver(rng, max_vertices=3, max_arrows=6)
    ends = [(a.source, a.target) for a in Q.arrows]
    if any(s == t for s, t in ends):
        seen.add("loop")
    if len(set(ends)) < len(ends):
        seen.add("parallel")
    if any(s != t and (t, s) in ends for s, t in ends):
        seen.add("2-cycle")
    return Q


def test_action_ratio_matches_reference_kernels(rng):
    seen = set()
    for _ in range(150):
        Q = _oracle_quiver(rng, seen)
        i = rng.choice(Q.vertices)
        gamma = random_dimvec(rng, Q, max_entry=2)
        want = _ref_fac_distinguished_block(Q, i, gamma, ZVAR) / _ref_fac_block_distinguished(
            Q, i, gamma, ZVAR
        )
        assert psi_action_ratio(Q, i, gamma) == want
        assert psi_action_ratio(Q, i, gamma, var=UVAR) == want.rename_vars({ZVAR: UVAR})
    assert seen == {"loop", "parallel", "2-cycle"}
    Q = a2_quiver()
    with pytest.raises(PreconditionError, match="no vertex named 'z'"):
        psi_action_ratio(Q, "z", {"1": 1, "2": 0})
    with pytest.raises(DimensionVectorError):
        psi_action_ratio(Q, "1", {"1": 1})


def test_generator_pairing_matches_reference_kernel(rng):
    seen = set()
    for _ in range(150):
        Q = _oracle_quiver(rng, seen)
        k, l = rng.choice(Q.vertices), rng.choice(Q.vertices)
        want = _ref_fac_single_single(Q, k, l, UVAR, WVAR) / _ref_fac_single_single(
            Q, l, k, WVAR, UVAR
        )
        assert skew_pairing(PsiGenerator(Q, k), PhiGenerator(Q, l)) == want
    assert seen == {"loop", "parallel", "2-cycle"}


# ---------------------------------------------------------------------------
# double cross relation under contraction


def test_double_cross_units():
    Q = a2_quiver()
    one = rank11(Q, "1", "2", Poly.const(1))
    assert double_cross_check(one, one, "a")


def test_double_cross_zero():
    Q = a2_quiver()
    zero = rank11(Q, "1", "2", Poly.zero())
    one = rank11(Q, "1", "2", Poly.const(1))
    assert double_cross_check(zero, one, "a")
    assert double_cross_check(zero, zero, "a")


def test_double_cross_instances(rng):
    cases = 0
    quivers = [
        (a2_quiver(), "a", "1", "2"),
        (kronecker_quiver(), "a0", "i+", "i-"),
        (showcase_qp().quiver, "a0", "i+", "i-"),
    ]
    while cases < 12:
        Q, a0, u, v = quivers[cases % len(quivers)]
        f = rank11(Q, u, v, _random_two_var(rng, u, v))
        g = rank11(Q, u, v, _random_two_var(rng, u, v))
        assert double_cross_check(f, g, a0)
        cases += 1


def test_double_cross_scope_errors():
    Q = a2_quiver()
    bad = sym(Q, {"1": 2, "2": 0}, x("1") + x("1", 2))
    one = rank11(Q, "1", "2", Poly.const(1))
    with pytest.raises(ScopeError):
        double_cross_check(bad, one, "a")
    other = kronecker_quiver()
    foreign = rank11(other, "i+", "i-", Poly.const(1))
    with pytest.raises(PreconditionError):
        double_cross_check(one, foreign, "a")


def _second_family(leg):
    return PsiWord("phi", leg.exps) if isinstance(leg, PsiWord) else leg


def _iterated_coproduct(h, mirror):
    """(Delta (x) id) Delta(h) as (coeff, (l1, l2, l3)) triples, Delta being
    coproduct_small with the group-like rule on words; mirrored, each
    coproduct has its legs swapped and second-family words (g's side)."""

    def delta(leg):
        if isinstance(leg, PsiWord):
            return [(1, (leg, leg))]
        terms = coproduct_small(leg).terms.items()
        if not mirror:
            return [(c, legs) for legs, c in terms]
        return [(c, (_second_family(l2), _second_family(l1))) for (l1, l2), c in terms]

    return [
        (c * d, (m1, m2, l2))
        for c, (l1, l2) in delta(h)
        for d, (m1, m2) in delta(l1)
    ]


def _nonzero_rank11(rng, Q, u, v):
    while True:
        h = rank11(Q, u, v, _random_two_var(rng, u, v))
        if not h.is_zero():
            return h


def test_cross_relation_matches_the_nine_way_expansion(rng):
    """`_cross_relation` against (1 (x) g)(f (x) 1) expanded from
    coproduct_small itself: each of the nine pairs of f's and g's iterated
    coproduct terms gives (a1, S_B(b1)) * a2 (x) b2 * (a3, b3), where a
    word pairs with anything through the counit, two blocks pair to p, and
    S_B(g) = -g * phi^-1 (from the mirrored coproduct g (x) phi + 1 (x) g)
    pairs with a block to -p.  At p = 7/3 this fails on three broken
    copies that pass `double_cross_check`, whose two sides share the
    closed form: the phi term's sign flipped, the psi word moved to the
    second leg, and p dropped from the psi term."""
    p = Fraction(7, 3)

    def pair(a, b, antipode=False):
        if isinstance(a, PsiWord) or isinstance(b, PsiWord):
            return counit(a) * counit(b)
        return -p if antipode else p

    quivers = [
        (a2_quiver(), "1", "2"),
        (kronecker_quiver(), "i+", "i-"),
        (showcase_qp().quiver, "i+", "i-"),
    ]
    for n in range(18):
        Q, u, v = quivers[n % len(quivers)]
        f, g = (_nonzero_rank11(rng, Q, u, v) for _ in range(2))
        a_triples = _iterated_coproduct(f, mirror=False)
        b_triples = _iterated_coproduct(g, mirror=True)
        assert len(a_triples) == len(b_triples) == 3
        nine = [
            (ca * cb * pair(a1, b1, antipode=True) * pair(a3, b3), (a2, b2))
            for ca, (a1, a2, a3) in a_triples
            for cb, (b1, b2, b3) in b_triples
        ]
        want = TensorElement.of(2, *nine)
        assert len(want.terms) == 3
        assert TensorElement.of(2, *_cross_relation(f, g, [(u, 1), (v, 1)], p)) == want


# ---------------------------------------------------------------------------
# normalization bookkeeping


def test_normalization_collapse_ranks_one_and_two(rng):
    Q = kronecker_quiver()
    assert normalization_collapse_check(Q, "a0", 1, x("i+", 1, 3))
    for _ in range(6):
        poly = Poly.zero()
        for _k in range(3):
            c = rng.randint(-2, 2)
            poly = poly + Poly.const(c) * x("i+", 1, rng.randint(0, 2)) * x(
                "i+", 2, rng.randint(0, 2)
            )
        assert normalization_collapse_check(Q, "a0", 2, poly)
    with pytest.raises(PreconditionError):
        normalization_collapse_check(Q, "a0", 1, x("i-", 1))
