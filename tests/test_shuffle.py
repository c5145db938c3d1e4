"""Shuffle product, contraction homomorphism, spherical spans."""

from __future__ import annotations

from fractions import Fraction
from collections import Counter
from itertools import combinations, permutations, product
from math import comb

import pytest

import quiveralg.shuffle as shuffle_module
from quiveralg.errors import InternalConsistencyError, PreconditionError, QPParseError
from quiveralg.linalg import rref
from quiveralg.poly import Poly, Rat, xvar
from quiveralg.qpformat import parse_qp
from quiveralg.quiver import Arrow, Quiver, euler_form
from quiveralg.shuffle import (
    INCONCLUSIVE,
    ShuffleElement,
    SymPoly,
    _alternant_key,
    _arrow_factors,
    _compositions,
    _from_dense,
    _layout,
    _merge_plan,
    _schur_keys,
    _schur_poly,
    _split_term,
    _standard_blocks,
    _to_dense,
    _vertex_words,
    contract_shuffle,
    fac_kernel,
    shuffle_mul,
    spherical_membership,
    spherical_products,
    spherical_span,
)

from conftest import (
    a2_quiver,
    cyclic_quiver,
    jordan_quiver,
    kronecker_quiver,
    point_quiver,
    power_sum,
    random_quiver,
    random_sympoly,
    reference_rref,
    showcase_qp,
)


def x(v, a=1, k=1):
    return Poly.var(xvar(v, a), k)


def unit(Q, v):
    return {u: 1 if u == v else 0 for u in Q.vertices}


# coefficients whose denominators make the product scale f and g to integers
RATIONALS = (Fraction(1, 2), Fraction(-2, 3), Fraction(5, 6), 1, -2)


# ------------------------------------------------------------- SymPoly


def test_sympoly_rejects_asymmetric():
    J = jordan_quiver()
    with pytest.raises(PreconditionError):
        SymPoly(J, {"1": 2}, x("1", 1))


def test_sympoly_rejects_out_of_range_slot():
    J = jordan_quiver()
    with pytest.raises(PreconditionError):
        SymPoly(J, {"1": 1}, x("1", 2))


def test_sympoly_accepts_symmetric():
    J = jordan_quiver()
    p = SymPoly(J, {"1": 2}, x("1", 1) + x("1", 2))
    assert p.gamma_key() == (2,)


def test_symmetry_check_scales_with_the_polynomial_not_the_rank(monkeypatch):
    """A vertex no variable mentions is skipped, and one with only some of
    its slots mentioned is refused at once: at rank 10^6 the check builds
    no more slot variables than the polynomial has terms."""
    calls = []
    real_xvar = shuffle_module.xvar

    def counting_xvar(vertex, slot):
        calls.append(slot)
        return real_xvar(vertex, slot)

    monkeypatch.setattr(shuffle_module, "xvar", counting_xvar)
    n = 10**6
    Q = Quiver(["1", "2"], [Arrow("a", "1", "2")])
    assert SymPoly(Q, {"1": n, "2": n}, Poly.const(3)).gamma == {"1": n, "2": n}
    el = SymPoly(Q, {"1": n, "2": 2}, x("2", 1) * x("2", 2) + 1)
    assert el.poly.terms and len(calls) <= len(el.poly.terms)
    for poly in (x("1", 1), x("1", 1) + x("1", 2) + x("2", 1), x("1", 1) * x("1", n)):
        calls.clear()
        with pytest.raises(PreconditionError) as err:
            SymPoly(Q, {"1": n, "2": 1}, poly)
        assert str(err.value) == "polynomial is not symmetric in the slots of '1'"
        assert len(calls) <= len(poly.terms)
    # through the parser, at ranks whose slots could never all be visited
    doc = parse_qp("vertices: u\narrows:\ngamma: u=300000; poly: 1\n")
    assert doc.elements[0].gamma == {"u": 300000}
    with pytest.raises(QPParseError, match="not symmetric in the slots of 'u'"):
        parse_qp(f"vertices: u\narrows:\ngamma: u={10**12}; poly: x[u,1]\n")


def _first_asymmetric_vertex(poly, gamma):
    """The symmetry check by renaming: the first vertex, in gamma's order,
    at which swapping two adjacent slots changes the polynomial."""
    for vertex, n in gamma.items():
        for a in range(1, n):
            swap = {xvar(vertex, a): xvar(vertex, a + 1), xvar(vertex, a + 1): xvar(vertex, a)}
            if poly.rename_vars(swap) != poly:
                return vertex
    return None


def test_sympoly_symmetry_check_matches_renaming(rng):
    """Symmetric polynomials, and the same with one coefficient perturbed or
    one term dropped: SymPoly accepts exactly those the renaming check
    accepts, and names the same vertex when it refuses."""
    verdicts = set()
    for _ in range(300):
        Q = random_quiver(rng, max_vertices=3, max_arrows=0)
        gamma = {v: rng.randint(0, 3) for v in Q.vertices}
        poly = random_sympoly(rng, Q, gamma, max_deg=3, nterms=3, coeffs=RATIONALS).poly
        if poly.terms:
            m = rng.choice(sorted(poly.terms))
            change = rng.choice(("keep", "perturb", "drop"))
            if change == "perturb":
                poly = poly + Poly({m: Fraction(1, 3)})
            elif change == "drop":
                poly = poly - Poly({m: poly.terms[m]})
        expected = _first_asymmetric_vertex(poly, gamma)
        if expected is None:
            SymPoly(Q, gamma, poly)
        else:
            with pytest.raises(PreconditionError) as err:
                SymPoly(Q, gamma, poly)
            assert str(err.value) == f"polynomial is not symmetric in the slots of {expected!r}"
        verdicts.add(expected is None)
    assert verdicts == {True, False}


def test_dense_symmetry_check_matches_the_poly_check(rng):
    """The same polynomials as above, built dense: SymPoly accepts exactly
    those the Poly check accepts, and refuses the others with the same
    message, naming the first asymmetric vertex in gamma's own order."""
    verdicts = set()
    for _ in range(300):
        Q = random_quiver(rng, max_vertices=3, max_arrows=0)
        ranks = [rng.randint(0, 3) for _ in Q.vertices]
        poly = random_sympoly(
            rng, Q, dict(zip(Q.vertices, ranks)), max_deg=3, nterms=3, coeffs=RATIONALS
        ).poly
        if poly.terms:
            m = rng.choice(sorted(poly.terms))
            if rng.random() < 0.5:
                poly = poly + Poly({m: Fraction(1, 3)})
            else:
                poly = poly - Poly({m: poly.terms[m]})
        pairs = list(zip(Q.vertices, ranks))
        gamma = dict(reversed(pairs) if rng.random() < 0.5 else pairs)
        dense = _to_dense(poly, _layout(Q.vertices, tuple(ranks)))
        try:
            SymPoly(Q, gamma, poly)
            want = None
        except PreconditionError as err:
            want = str(err)
        try:
            SymPoly(Q, gamma, dense=dense)
            got = None
        except PreconditionError as err:
            got = str(err)
        assert got == want, (gamma, poly)
        verdicts.add(want)
    assert None in verdicts and len(verdicts) > 2, verdicts


def test_dense_form_checks_its_slots():
    """A dense form needs one exponent per slot and no zero coefficient."""
    J = jordan_quiver()
    for terms in ({(1,): 1}, {(1, 1, 0): 1}, {(0, 0): 0}):
        with pytest.raises(PreconditionError, match="2-entry exponent tuples"):
            SymPoly(J, {"1": 2}, dense=(terms, 1))
    p = SymPoly(J, {"1": 2}, dense=({(1, 1): 3}, 2))
    assert p.poly == x("1", 1) * x("1", 2) * Fraction(3, 2)


# ------------------------------------------------------------- fac


def test_fac_kernel_single_arrow():
    A2 = a2_quiver()
    g = {"1": 1, "2": 1}
    got = fac_kernel(A2, g, g)
    expected = Rat(
        1,
        [
            (Poly.linear_diff(xvar("2", 2), xvar("1", 1)), 1),
            (Poly.linear_diff(xvar("1", 2), xvar("1", 1)), -1),
            (Poly.linear_diff(xvar("2", 2), xvar("2", 1)), -1),
        ],
    )
    assert got == expected


def test_fac_kernel_jordan_is_one():
    J = jordan_quiver()
    assert fac_kernel(J, {"1": 1}, {"1": 1}) == Rat.one()


def test_fac_kernel_loop_free_vertex():
    pt = point_quiver()
    got = fac_kernel(pt, {"1": 1}, {"1": 1})
    expected = Rat(1, [(Poly.linear_diff(xvar("1", 2), xvar("1", 1)), -1)])
    assert got == expected


def test_split_term_is_fac_kernel_times_vandermonde(rng):
    """The term shuffle_mul builds once is fac_kernel(Q, g1, g2) times the
    Vandermonde of every mixed vertex (both blocks non-empty), times f and
    the shifted g: the kernel checked above is the one the product uses.
    Mixed vertices, and vertices with one block empty, both occur."""
    seen = Counter()
    done = 0
    while done < 25:
        Q = random_quiver(rng, max_vertices=3, max_arrows=5)
        g1 = {v: rng.randint(0, 2) for v in Q.vertices}
        g2 = {v: rng.randint(0, 2) for v in Q.vertices}
        if sum(g1[a.source] * g2[a.target] for a in Q.arrows) > 6:
            continue
        f = random_sympoly(rng, Q, g1, max_deg=2, coeffs=RATIONALS)
        g = random_sympoly(rng, Q, g2, max_deg=2, coeffs=RATIONALS)
        shift = {xvar(v, q): xvar(v, g1[v] + q) for v in Q.vertices for q in range(1, g2[v] + 1)}
        mixed = [v for v in Q.vertices if g1[v] and g2[v]]
        vdm = Rat(1, [
            (Poly.linear_diff(xvar(v, b), xvar(v, a)), 1)
            for v in mixed
            for a, b in combinations(range(1, g1[v] + g2[v] + 1), 2)
        ])
        full = Rat.from_poly(f.poly * g.poly.rename_vars(shift)) * fac_kernel(Q, g1, g2) * vdm
        assert full.is_polynomial()
        term, L = _split_term(f, g, f.gamma_key(), g.gamma_key())
        layout = _layout(Q.vertices, tuple(g1[v] + g2[v] for v in Q.vertices))
        assert _from_dense(term, L, layout) == full.num()
        seen["mixed"] += bool(mixed)
        seen["one block"] += any(bool(g1[v]) != bool(g2[v]) for v in Q.vertices)
        done += 1
    assert seen["mixed"] >= 3 and seen["one block"] >= 3, seen


# ------------------------------------------------------------- product


def _reference_shuffle_mul(f, g):
    """The shuffle product term by term: f and g renamed into each split's
    blocks, times that split's kernel, summed over the Vandermonde and
    divided by long division."""
    Q = f.quiver
    g1, g2 = f.gamma, g.gamma
    gamma = {v: g1[v] + g2[v] for v in Q.vertices}
    choices = [list(combinations(range(1, gamma[v] + 1), g1[v])) for v in Q.vertices]
    numerator = Poly.zero()
    splits = [()]
    for c in choices:
        splits = [s + (b,) for s in splits for b in c]
    for blocks in splits:
        block1 = dict(zip(Q.vertices, blocks))
        block2 = {v: tuple(s for s in range(1, gamma[v] + 1) if s not in block1[v]) for v in Q.vertices}
        ren_f = {xvar(v, p): xvar(v, s) for v in Q.vertices for p, s in enumerate(block1[v], 1)}
        ren_g = {xvar(v, q): xvar(v, s) for v in Q.vertices for q, s in enumerate(block2[v], 1)}
        term = f.poly.rename_vars(ren_f) * g.poly.rename_vars(ren_g)
        sign = 1
        for v in Q.vertices:
            sign *= (-1) ** sum(1 for s in block1[v] for t in block2[v] if t < s)
            for block in (block1[v], block2[v]):
                for a, b in combinations(block, 2):
                    term = term * Poly.linear_diff(xvar(v, b), xvar(v, a))
        for i in Q.vertices:
            for j in Q.vertices:
                for a1 in block1[i]:
                    for a2 in block2[j]:
                        term = term * Poly.linear_diff(xvar(j, a2), xvar(i, a1)) ** Q.arrow_count(i, j)
        numerator = numerator + sign * term
    for v in Q.vertices:
        for a, b in combinations(range(1, gamma[v] + 1), 2):
            numerator, r = numerator.divmod_in(xvar(v, b), Poly.linear_diff(xvar(v, b), xvar(v, a)))
            assert r.is_zero()
    return SymPoly(Q, gamma, numerator)


def _poly_split_term(f, g):
    """The standard split's numerator term multiplied out as a Poly:
    f * g(shifted into block 2) * Vdm(block 1) * Vdm(block 2) * arrows."""
    Q = f.quiver
    block1, block2 = _standard_blocks(f.gamma, g.gamma)
    kernel = Poly.const(1)
    for v in Q.vertices:
        for block in (block1[v], block2[v]):
            for va, vb in combinations(block, 2):
                kernel = kernel * Poly.linear_diff(vb, va)
    for vb, va, a_ij in _arrow_factors(Q, block1, block2):
        kernel = kernel * Poly.linear_diff(vb, va) ** a_ij
    shift = {xvar(v, q): vb for v in Q.vertices for q, vb in enumerate(block2[v], start=1)}
    return f.poly * g.poly.rename_vars(shift) * kernel


def _poly_path_shuffle_mul(f, g):
    """The shuffle product on Poly values: the standard split's term with
    Fraction coefficients, renamed and re-sorted per shuffle, then divided
    by the Vandermonde with Poly.divide_linear."""
    Q = f.quiver
    g1, g2 = f.gamma, g.gamma
    gamma = {v: g1[v] + g2[v] for v in Q.vertices}
    term = list(_poly_split_term(f, g).terms.items())
    choices = [combinations(range(1, gamma[v] + 1), g1[v]) for v in Q.vertices]
    numerator = {}
    for blocks in product(*choices):
        ren = {}
        sign = 1
        for v, b1 in zip(Q.vertices, blocks):
            b2 = tuple(s for s in range(1, gamma[v] + 1) if s not in b1)
            for std, slot in enumerate(b1 + b2, start=1):
                ren[xvar(v, std)] = xvar(v, slot)
            sign *= (-1) ** sum(1 for s in b1 for t in b2 if t < s)
        for m, c in term:
            key = tuple(sorted([(ren[x], e) for x, e in m]))
            numerator[key] = numerator.get(key, 0) + sign * c
    result = Poly(numerator)
    for v in Q.vertices:
        for a, b in combinations(range(1, gamma[v] + 1), 2):
            result = result.divide_linear(xvar(v, b), xvar(v, a))
    return SymPoly(Q, gamma, result)


def _random_pair(rng, ranks, max_rank, max_shuffles, max_arrow_pairs, coeffs=None):
    """A random quiver and random f, g whose product has total rank in
    `ranks`, at most max_shuffles shuffles and at most max_arrow_pairs arrow
    factors; None when the draw misses those bounds."""
    Q = random_quiver(rng, max_vertices=3, max_arrows=5)
    g1 = {v: rng.randint(0, max_rank) for v in Q.vertices}
    g2 = {v: rng.randint(0, max_rank) for v in Q.vertices}
    shuffles = 1
    for v in Q.vertices:
        shuffles *= comb(g1[v] + g2[v], g1[v])
    if (
        sum(g1.values()) + sum(g2.values()) not in ranks
        or shuffles > max_shuffles
        or sum(g1[a.source] * g2[a.target] for a in Q.arrows) > max_arrow_pairs
    ):
        return None
    f = random_sympoly(rng, Q, g1, max_deg=2, coeffs=coeffs)
    g = random_sympoly(rng, Q, g2, max_deg=2, coeffs=coeffs)
    return f, g


def test_shuffle_mul_total_rank_seven_and_eight(rng):
    """Total rank 7-8, beyond the per-split reference, against the
    Poly-path product; six of the products are non-zero."""
    done = 0
    while done < 6:
        pair = _random_pair(rng, (7, 8), 3, 70, 6, coeffs=RATIONALS)
        if pair is None:
            continue
        f, g = pair
        got = shuffle_mul(f, g)
        assert got == _poly_path_shuffle_mul(f, g)
        done += not got.is_zero()


def test_shuffle_mul_matches_per_split_reference(rng):
    """Random quivers (loops, parallel arrows and 2-cycles occur), ranks 0-2
    per vertex, both orders f*g and g*f, against the per-split and the
    Poly-path products.  Every other case draws the coefficients 1/2, -2/3,
    5/6, so the product scales f and g by the lcm of their denominators."""
    done = zeros = 0
    while done < 40:
        # the per-split reference's long division is slow beyond total rank 6
        pair = _random_pair(rng, range(7), 2, 40, 6, coeffs=RATIONALS if done % 2 else None)
        if pair is None:
            continue
        f, g = pair
        for left, right in ((f, g), (g, f)):
            got = shuffle_mul(left, right)
            assert got == _reference_shuffle_mul(left, right), (left.quiver.arrows, f.gamma, g.gamma)
            assert got == _poly_path_shuffle_mul(left, right)
            zeros += got.is_zero() and not (left.is_zero() or right.is_zero())
        done += 1
    # products that cancel to zero: antisymmetry at a loop-free vertex
    pt = point_quiver()
    for k in range(3):
        xk = SymPoly(pt, {"1": 1}, x("1", 1, k))
        assert shuffle_mul(xk, xk).is_zero() and _reference_shuffle_mul(xk, xk).is_zero()
    assert zeros > 0


def test_shuffle_mul_matches_reference_on_every_vertex_kind(rng):
    """Seeded products against the per-split reference, on random quivers
    where loops, 2-cycles and parallel arrows occur.  Every kind of vertex
    occurs: mixed (both blocks non-empty), only block 1, only block 2, rank
    0; and so do products with no mixed vertex.  One mixed product of
    ranks (2, 2) and (1, 2) on a => b, b -> a is checked against the
    Poly-path product."""
    seen = Counter()
    done = 0
    while done < 40:
        pair = _random_pair(rng, range(1, 7), 2, 40, 6, coeffs=RATIONALS)
        if pair is None:
            continue
        f, g = pair
        assert shuffle_mul(f, g) == _reference_shuffle_mul(f, g), (f.quiver.arrows, f.gamma, g.gamma)
        kinds = {(bool(f.gamma[v]), bool(g.gamma[v])) for v in f.quiver.vertices}
        seen["mixed"] += (True, True) in kinds
        seen["block 1 only"] += (True, False) in kinds
        seen["block 2 only"] += (False, True) in kinds
        seen["rank 0"] += (False, False) in kinds
        seen["no mixed vertex"] += (True, True) not in kinds
        arrows = [(a.source, a.target) for a in f.quiver.arrows]
        seen["loop"] += any(s == t for s, t in arrows)
        seen["parallel"] += len(set(arrows)) < len(arrows)
        seen["2-cycle"] += any(s != t and (t, s) in arrows for s, t in arrows)
        done += 1
    assert all(seen[k] >= 3 for k in (
        "mixed", "block 1 only", "block 2 only", "rank 0", "no mixed vertex",
        "loop", "parallel", "2-cycle",
    )), seen
    Q = Quiver(("a", "b"), [Arrow("c1", "a", "b"), Arrow("c2", "a", "b"), Arrow("d", "b", "a")])
    g1, g2 = {"a": 2, "b": 2}, {"a": 1, "b": 2}
    f = SymPoly(Q, g1, Poly.const(2) + power_sum(g1, "a", 1) * power_sum(g1, "b", 1))
    g = SymPoly(Q, g2, power_sum(g2, "a", 1) - power_sum(g2, "b", 2) * Fraction(1, 2))
    got = shuffle_mul(f, g)
    assert not got.is_zero() and got == _poly_path_shuffle_mul(f, g)


def test_mul_loop_free_units_cancel():
    pt = point_quiver()
    one = SymPoly.one(pt, {"1": 1})
    assert shuffle_mul(one, one).is_zero()


def test_mul_jordan_units():
    J = jordan_quiver()
    one = SymPoly.one(J, {"1": 1})
    out = shuffle_mul(one, one)
    assert out.poly == Poly.const(2)


def test_mul_jordan_x_times_one():
    J = jordan_quiver()
    one = SymPoly.one(J, {"1": 1})
    f = SymPoly(J, {"1": 1}, x("1"))
    assert shuffle_mul(f, one).poly == x("1", 1) + x("1", 2)


def test_mul_a2_order_matters():
    A2 = a2_quiver()
    e1 = SymPoly.one(A2, unit(A2, "1"))
    e2 = SymPoly.one(A2, unit(A2, "2"))
    assert shuffle_mul(e1, e2).poly == x("2") - x("1")
    assert shuffle_mul(e2, e1).poly == Poly.const(1)


def test_mul_a2_full_sector_collapses():
    A2 = a2_quiver()
    one = SymPoly.one(A2, {"1": 1, "2": 1})
    assert shuffle_mul(one, one).is_zero()


def test_mul_grading():
    A2 = a2_quiver()
    e1 = SymPoly.one(A2, unit(A2, "1"))
    e2 = SymPoly.one(A2, unit(A2, "2"))
    assert shuffle_mul(e1, e2).gamma == {"1": 1, "2": 1}


def test_mul_rejects_mixed_quivers():
    with pytest.raises(PreconditionError):
        shuffle_mul(
            SymPoly.one(point_quiver(), {"1": 1}),
            SymPoly.one(jordan_quiver(), {"1": 1}),
        )


def test_mul_fermionic_closed_form(rng):
    """At a loop-free vertex, f*g = (f(x1)g(x2) - f(x2)g(x1)) / (x2-x1)."""
    pt = point_quiver()
    g1 = {"1": 1}
    for _ in range(25):
        f = random_sympoly(rng, pt, g1, max_deg=3)
        g = random_sympoly(rng, pt, g1, max_deg=3)
        got = shuffle_mul(f, g)
        f1 = f.poly
        f2 = f.poly.rename_vars({xvar("1", 1): xvar("1", 2)})
        h1 = g.poly
        h2 = g.poly.rename_vars({xvar("1", 1): xvar("1", 2)})
        num = f1 * h2 - f2 * h1
        expected = num.divide_linear(xvar("1", 2), xvar("1", 1))
        assert got.poly == expected
        # antisymmetry of the product
        assert (got.poly + shuffle_mul(g, f).poly).is_zero()


def test_mul_degree_formula(rng):
    """deg(f*g) = deg f + deg g - chi(g1,g2) on homogeneous non-zero parts."""
    for _ in range(15):
        Q = random_quiver(rng, max_vertices=3, max_arrows=4)
        g1 = {v: rng.randint(0, 1) for v in Q.vertices}
        g2 = {v: rng.randint(0, 1) for v in Q.vertices}
        f = SymPoly.one(Q, g1)
        g = SymPoly.one(Q, g2)
        out = shuffle_mul(f, g)
        if out.is_zero():
            continue
        assert out.poly.total_degree() == -euler_form(Q, g1, g2)


def test_mul_associative(rng):
    for _ in range(50):
        Q = random_quiver(rng, max_vertices=3, max_arrows=4)
        gs = [{v: rng.randint(0, 1) for v in Q.vertices} for _ in range(3)]
        if all(g[v] == 0 for g in gs for v in Q.vertices):
            continue
        f, g, h = (random_sympoly(rng, Q, gg, max_deg=2) for gg in gs)
        left = shuffle_mul(shuffle_mul(f, g), h)
        right = shuffle_mul(f, shuffle_mul(g, h))
        assert left == right


def test_shuffle_element_bilinearity():
    J = jordan_quiver()
    one = SymPoly.one(J, {"1": 1})
    fx = SymPoly(J, {"1": 1}, x("1"))
    a = ShuffleElement(J, [one, fx])
    b = ShuffleElement(J, [one])
    out = a.mul(b)
    expected = ShuffleElement(J, [shuffle_mul(one, one) + shuffle_mul(fx, one)])
    assert out == expected


# ------------------------------------------------------------- contraction


def test_contract_substitution():
    K = kronecker_quiver()
    f = SymPoly(K, {"i+": 1, "i-": 1}, x("i+") * x("i-"))
    img = contract_shuffle(f, "a0")
    assert img.gamma == {"i+": 1}
    assert img.poly == Poly.var(xvar("i+", 1), 2)


def test_contract_constant():
    K = kronecker_quiver()
    f = SymPoly.one(K, {"i+": 2, "i-": 2})
    img = contract_shuffle(f, "a0")
    assert img.poly == Poly.const(1)
    assert img.gamma == {"i+": 2}


def test_contract_builds_each_contracted_quiver_once(monkeypatch):
    """f, g and f*g contracted along one arrow share one contract_quiver
    call and one contracted quiver; another arrow gets its own."""
    calls = []
    real = shuffle_module.contract_quiver

    def counted(Q, a0_id):
        calls.append(a0_id)
        return real(Q, a0_id)

    monkeypatch.setattr(shuffle_module, "contract_quiver", counted)
    K = kronecker_quiver()
    f = SymPoly(K, {"i+": 1, "i-": 1}, x("i+") * x("i-"))
    g = SymPoly.one(K, {"i+": 1, "i-": 1})
    images = [contract_shuffle(p, "a0") for p in (f, g, shuffle_mul(f, g))]
    assert calls == ["a0"]
    assert all(img.quiver is images[0].quiver for img in images)
    contract_shuffle(f, "a2")
    assert calls == ["a0", "a2"]


def test_contract_equal_quivers_keep_their_names():
    arrows = [Arrow("a0", "u", "w"), Arrow("b", "w", "u")]
    P, R = Quiver(["u", "w"], arrows, name="P"), Quiver(["u", "w"], arrows, name="R")
    assert P == R
    for Q in (P, R, P):
        img = contract_shuffle(SymPoly.one(Q, {"u": 1, "w": 1}), "a0")
        assert img.quiver.name == Q.name + "_hat"


def test_contract_unequal_ranks_rejected():
    K = kronecker_quiver()
    f = SymPoly.one(K, {"i+": 1, "i-": 2})
    with pytest.raises(PreconditionError):
        contract_shuffle(f, "a0")


def test_contract_a2_product_vanishes():
    A2 = a2_quiver()
    one = SymPoly.one(A2, {"1": 1, "2": 1})
    img = contract_shuffle(shuffle_mul(one, one), "a")
    assert img.is_zero()
    # image of the factors multiplies to zero on the point quiver too
    c1 = contract_shuffle(one, "a")
    assert shuffle_mul(c1, c1).is_zero()


def test_contract_homomorphism_random(rng):
    done = 0
    while done < 30:
        Q = random_quiver(rng, max_vertices=3, max_arrows=4)
        candidates = [a for a in Q.arrows if a.source != a.target]
        if not candidates:
            continue
        a0 = rng.choice(candidates)
        g1 = {v: rng.randint(0, 1) for v in Q.vertices}
        g2 = {v: rng.randint(0, 1) for v in Q.vertices}
        g1[a0.source] = g1[a0.target]
        g2[a0.source] = g2[a0.target]
        f = random_sympoly(rng, Q, g1, max_deg=2)
        g = random_sympoly(rng, Q, g2, max_deg=2)
        lhs = contract_shuffle(shuffle_mul(f, g), a0.id)
        rhs = shuffle_mul(contract_shuffle(f, a0.id), contract_shuffle(g, a0.id))
        assert lhs == rhs
        done += 1


def _reference_contract_shuffle(f, a0_id):
    """The image under contraction by renaming x[i-,a] to x[i+,a] in
    f's Poly: contract_shuffle before it worked on exponent tuples."""
    Q = f.quiver
    a0 = Q.arrow(a0_id)
    Qhat = shuffle_module._contracted_quiver(Q, a0_id)
    ren = {xvar(a0.target, a): xvar(a0.source, a) for a in range(1, f.gamma[a0.target] + 1)}
    return SymPoly(Qhat, {v: f.gamma[v] for v in Qhat.vertices}, f.poly.rename_vars(ren))


def test_contract_shuffle_matches_rename_reference(rng):
    """Seeded quivers with loops, parallel arrows and 2-cycles; elements
    built from a Poly and shuffle products built dense: the image by
    exponent positions equals the renamed Poly, by == and by str."""
    seen = Counter()
    done = 0
    while done < 120:
        Q = random_quiver(rng, max_vertices=4, max_arrows=6)
        candidates = [a for a in Q.arrows if a.source != a.target]
        if not candidates:
            continue
        a0 = rng.choice(candidates)
        g1 = {v: rng.randint(0, 2) for v in Q.vertices}
        g2 = {v: rng.randint(0, 1) for v in Q.vertices}
        g1[a0.target] = g1[a0.source]
        g2[a0.target] = g2[a0.source]
        if sum(g1[a.source] * g2[a.target] for a in Q.arrows) > 6:
            continue
        f = random_sympoly(rng, Q, g1, max_deg=3, nterms=3, coeffs=RATIONALS)
        g = random_sympoly(rng, Q, g2, max_deg=2, coeffs=RATIONALS)
        for h in (f, shuffle_mul(f, g)):
            got = contract_shuffle(h, a0.id)
            want = _reference_contract_shuffle(h, a0.id)
            assert got == want and str(got) == str(want), (Q.arrows, a0, h)
            seen["non-zero"] += not got.is_zero()
        arrows = [(a.source, a.target) for a in Q.arrows]
        seen["loop"] += any(s == t for s, t in arrows)
        seen["parallel"] += len(set(arrows)) < len(arrows)
        seen["2-cycle"] += any(s != t and (t, s) in arrows for s, t in arrows)
        seen["rank 2 merged"] += g1[a0.source] == 2
        done += 1
    assert all(seen[k] >= 5 for k in (
        "loop", "parallel", "2-cycle", "rank 2 merged", "non-zero")), seen


def test_merge_plan_adds_each_slot_onto_its_own(rng):
    """The position map of contract_shuffle on arbitrary exponent tuples,
    not only symmetric sums of them: x[i-,a] lands on x[i+,a] for every
    slot a, as renaming the monomial does.  (On a symmetric element any
    bijection of the i- slots gives the same image.)"""
    checked = 0
    while checked < 200:
        Q = random_quiver(rng, max_vertices=4, max_arrows=4)
        candidates = [a for a in Q.arrows if a.source != a.target]
        if not candidates:
            continue
        a0 = rng.choice(candidates)
        ip, im = a0.source, a0.target
        gamma = {v: rng.randint(0, 3) for v in Q.vertices}
        gamma[im] = gamma[ip] = rng.randint(1, 3)
        ranks = tuple(gamma[v] for v in Q.vertices)
        e = tuple(rng.randint(0, 3) for _ in range(sum(ranks)))
        ren = {xvar(im, a): xvar(ip, a) for a in range(1, gamma[im] + 1)}
        want = _from_dense({e: 1}, 1, _layout(Q.vertices, ranks)).rename_vars(ren)
        hat = tuple(v for v in Q.vertices if v != im)
        hat_layout = _layout(hat, tuple(gamma[v] for v in hat))
        got = _from_dense({_merge_plan(Q.vertices, ranks, ip, im)(e): 1}, 1, hat_layout)
        assert got == want, (Q.vertices, ranks, ip, im, e)
        checked += 1


def test_dense_sums_match_poly_sums(rng):
    """Sums and differences, on dense forms with different denominators,
    of shuffle products and of elements built from a Poly, equal the sums
    of their Polys."""
    done = 0
    while done < 30:
        pair = _random_pair(rng, range(2, 6), 2, 20, 4, coeffs=RATIONALS)
        if pair is None:
            continue
        f, g = pair
        f2 = random_sympoly(rng, f.quiver, f.gamma, coeffs=RATIONALS)
        for p, q in ((shuffle_mul(f, g), shuffle_mul(f2, g)), (f, f2)):
            assert (p + q).poly == p.poly + q.poly
            assert (p - q).poly == p.poly - q.poly
            assert (p - p).is_zero() and (p - p).poly.is_zero()
        done += 1


# ------------------------------------------------------------- spherical


def test_span_loop_free_rank_two_is_full_symmetric_ring():
    """x^a * x^b lands on +-(Schur of (b-1,a)) for a<b, so the rank-two
    products over a loop-free vertex span every symmetric polynomial: the
    degree-<=4 slice has dimension 1+1+2+2+3 = 9 (partitions with at most
    two parts)."""
    pt = point_quiver()
    basis = spherical_span(pt, {"1": 2}, 4)
    assert len(basis) == 9
    one2 = SymPoly.one(pt, {"1": 2})
    assert spherical_membership(one2, 3) is True
    # the diagonal products are the ones the antisymmetry kills
    xk = lambda k: SymPoly(pt, {"1": 1}, Poly.var(xvar("1", 1), k))
    assert shuffle_mul(xk(1), xk(0)).poly == Poly.const(-1)
    assert shuffle_mul(xk(2), xk(2)).is_zero()


def test_span_jordan_rank_two():
    J = jordan_quiver()
    basis = spherical_span(J, {"1": 2}, 1)
    assert len(basis) == 2
    assert any(b.poly.is_constant() for b in basis)
    assert any(b.poly == x("1", 1) + x("1", 2) for b in basis)
    assert spherical_membership(SymPoly(J, {"1": 2}, Poly.const(2)), 1) is True
    assert spherical_membership(SymPoly(J, {"1": 2}, x("1", 1) + x("1", 2)), 1) is True


def test_span_rank_one_is_polynomials():
    J = jordan_quiver()
    basis = spherical_span(J, unit(J, "1"), 2)
    degs = sorted(b.poly.total_degree() for b in basis)
    assert degs == [0, 1, 2]


def test_membership_inconclusive_above_bound():
    J = jordan_quiver()
    f = SymPoly(J, {"1": 1}, x("1", 1, 5))
    assert spherical_membership(f, 2) == INCONCLUSIVE


def test_membership_zero_is_member():
    pt = point_quiver()
    f = SymPoly(pt, {"1": 2}, Poly.zero())
    assert spherical_membership(f, 2) is True


def test_cyclic_contraction_images_stay_spherical():
    """All six orders of the rank-one generator product on the 3-cycle have
    contraction images inside the 2-cycle spherical span at degree 4; the
    quadratic image has an explicit two-term product certificate."""
    C3 = cyclic_quiver(3)
    gens = {v: SymPoly.one(C3, unit(C3, v)) for v in C3.vertices}
    images = {}
    for order in permutations("123"):
        p = gens[order[0]]
        for v in order[1:]:
            p = shuffle_mul(p, gens[v])
        img = contract_shuffle(p, "a1")
        images[order] = img
        assert spherical_membership(img, 4) is True
    quad = images[("2", "3", "1")]
    assert quad.poly == -((x("1") - x("3")) ** 2)
    # certificate: x_{i0} * 1 - 1 * x_3 in the contracted 2-cycle
    C2hat = quad.quiver
    e1, e3 = unit(C2hat, "1"), unit(C2hat, "3")
    cert = shuffle_mul(SymPoly(C2hat, e1, x("1")), SymPoly.one(C2hat, e3)) - shuffle_mul(
        SymPoly.one(C2hat, e1), SymPoly(C2hat, e3, x("3"))
    )
    assert cert == quad


def test_spherical_products_all_validate():
    C2 = cyclic_quiver(2)
    for p in spherical_products(C2, {"1": 1, "2": 1}, 3):
        assert not p.is_zero()


def test_vertex_words_are_the_distinct_sorted_orderings(rng):
    for _ in range(30):
        Q = random_quiver(rng, max_vertices=3, max_arrows=0)
        gamma = {v: rng.randint(0, 3) for v in Q.vertices}
        if sum(gamma.values()) > 7:
            continue
        letters = [v for v in Q.vertices for _ in range(gamma[v])]
        assert _vertex_words(Q, gamma) == sorted(set(permutations(letters)))
    # vertex names whose sorted order is not the quiver's order
    Q = Quiver(["b", "a"], [])
    assert _vertex_words(Q, {"b": 1, "a": 2}) == [("a", "a", "b"), ("a", "b", "a"), ("b", "a", "a")]


def test_vertex_words_large_rank_is_immediate():
    """Twelve copies of one vertex are one word; eleven and one are twelve
    words (12! orderings would be 479 001 600 tuples)."""
    pt = point_quiver()
    assert _vertex_words(pt, {"1": 12}) == [("1",) * 12]
    A2 = a2_quiver()
    words = _vertex_words(A2, {"1": 11, "2": 1})
    assert len(words) == 12 and words == sorted(words)


def test_rank_zero_slice_is_empty_below_degree_zero():
    """The unit has degree 0: the rank-0 slice of degree <= d is empty for
    d < 0, as every slice of positive rank is, and is the unit from d = 0."""
    for Q in (jordan_quiver(), a2_quiver()):
        zero = dict.fromkeys(Q.vertices, 0)
        for d in (-3, -1):
            assert spherical_products(Q, zero, d) == []
            assert spherical_span(Q, zero, d) == []
        for d in (0, 2):
            assert spherical_products(Q, zero, d) == [SymPoly.one(Q, zero)]
            assert spherical_span(Q, zero, d) == [SymPoly.one(Q, zero)]


def test_generator_power_zero_is_the_unit():
    for Q in (jordan_quiver(), a2_quiver(), point_quiver()):
        for v in Q.vertices:
            assert SymPoly.generator(Q, v, 0) == SymPoly.one(Q, unit(Q, v))
            assert SymPoly.generator(Q, v, 2).poly == x(v, 1, 2)


# ------------------------------------------------------------- Schur route


def _reference_spherical_span(Q, gamma, d):
    """The span as one rref over the monomials of every word product, the
    columns ordered by (len(m), m): spherical_span before it moved to Schur
    coordinates."""
    products = spherical_products(Q, gamma, d)
    if not products:
        return []
    monos = sorted({m for p in products for m in p.poly.terms}, key=lambda m: (len(m), m))
    rows = [tuple(p.poly.terms.get(m, Fraction(0)) for m in monos) for p in products]
    basis = []
    for row in reference_rref(rows)[0]:
        p = Poly.zero()
        p.terms.update((m, c) for m, c in zip(monos, row) if c)
        basis.append(SymPoly(Q, gamma, p))
    return basis


def _reference_spherical_membership(f, d=None):
    """Membership by rank, reduced on every call: f is in the span when its
    row leaves the rank of the word products unchanged.  The verdicts of
    spherical_membership before Schur coordinates."""
    if d is None:
        d = f.poly.total_degree()
    if f.poly.total_degree() > d:
        return INCONCLUSIVE
    if f.poly.is_zero():
        return True
    polys = [p.poly for p in spherical_products(f.quiver, f.gamma, d)] + [f.poly]
    monos = sorted({m for p in polys for m in p.terms}, key=lambda m: (len(m), m))
    rows = [tuple(p.terms.get(m, Fraction(0)) for m in monos) for p in polys]
    return len(reference_rref(rows)[1]) == len(reference_rref(rows[:-1])[1])


def _partitions(size, parts, largest=None):
    """Partitions of size into at most `parts` parts, padded with zeros."""
    largest = size if largest is None else largest
    if parts == 0:
        if size == 0:
            yield ()
        return
    for first in range(min(size, largest), -1, -1):
        for rest in _partitions(size - first, parts - 1, first):
            yield (first,) + rest


def test_schur_poly_is_the_bialternant():
    """The branching-rule Schur polynomial equals a_{lam+delta} / a_delta,
    the alternant divided by the Vandermonde one linear factor at a time
    with Poly.divide_linear: every lam with |lam| <= 6 in 1-4 variables."""
    checked = 0
    for n in range(1, 5):
        layout = _layout(("t",), (n,))
        variables = layout.variables
        for size in range(7):
            for lam in _partitions(size, n):
                kappa = [lam[n - 1 - i] + i for i in range(n)]
                alternant = {}
                for perm in permutations(range(n)):
                    e = [0] * n
                    for i, j in enumerate(perm):
                        e[j] = kappa[i]
                    inversions = sum(1 for a, b in combinations(perm, 2) if a > b)
                    alternant[tuple(e)] = -1 if inversions % 2 else 1
                quotient = _from_dense(alternant, 1, layout)
                for a, b in combinations(range(n), 2):
                    quotient = quotient.divide_linear(variables[b], variables[a])
                assert _from_dense(_schur_poly(lam), 1, layout) == quotient, lam
                checked += 1
    assert checked == 7 + 16 + 23 + 27  # partitions of 0..6 into at most n parts


def _word_census(Q, gamma, d):
    """(number of (word, exponents) pairs, whether some word's degree bound
    is negative) for spherical_products(Q, gamma, d)."""
    pairs = 0
    negative = False
    for word in _vertex_words(Q, gamma):
        chi_sum = sum(
            euler_form(Q, unit(Q, word[p]), unit(Q, word[q]))
            for p, q in combinations(range(len(word)), 2)
        )
        if d + chi_sum < 0:
            negative = True
        else:
            pairs += sum(1 for _ in _compositions(len(word) + 1, d + chi_sum))
    return pairs, negative


def test_spherical_span_matches_reference(rng):
    """spherical_span equals the rref over the monomials of every product,
    by Poly equality and by str, on 160 seeded (Q, gamma, d)."""
    seen = Counter()
    cases = 0
    while cases < 160:
        Q = random_quiver(rng, max_vertices=3, max_arrows=4)
        gamma = {v: rng.choice((0, 0, 1, 1, 2, 3)) for v in Q.vertices}
        if sum(gamma.values()) > 4:
            continue
        d = rng.randint(-2, 3 if sum(gamma.values()) < 4 else 1)
        got = spherical_span(Q, gamma, d)
        want = _reference_spherical_span(Q, gamma, d)
        assert got == want, (Q.arrows, gamma, d)
        assert [str(b) for b in got] == [str(b) for b in want]
        cases += 1
        arrows = [(a.source, a.target) for a in Q.arrows]
        seen["loop"] += any(s == t for s, t in arrows)
        seen["parallel"] += len(set(arrows)) < len(arrows)
        seen["2-cycle"] += any(s != t and (t, s) in arrows for s, t in arrows)
        if not any(gamma.values()):
            seen["gamma 0"] += 1
            continue
        pairs, negative = _word_census(Q, gamma, d)
        seen["negative bound"] += negative
        seen["empty"] += not got
        seen["vanishing product"] += pairs > len(spherical_products(Q, gamma, d))
        seen["rank > 1"] += len(got) > 1
        ranks = [gamma[v] for v in Q.vertices]
        degrees = Counter(b.poly.total_degree() for b in got)
        seen["full degree"] += any(
            r == _symmetric_dimension(ranks, D) for D, r in degrees.items())
        seen["expanded degree"] += any(
            r < _symmetric_dimension(ranks, D) for D, r in degrees.items())
    assert all(seen[k] >= 3 for k in (
        "loop", "parallel", "2-cycle", "gamma 0", "negative bound", "empty",
        "vanishing product", "rank > 1", "full degree", "expanded degree",
    )), seen


def _symmetric_dimension(ranks, D):
    """The dimension of the degree-D polynomials symmetric in the slots of
    every vertex: the tuples of partitions, one into at most ranks[k] parts
    for each k, of total size D."""
    if not ranks:
        return int(D == 0)
    return sum(len(list(_partitions(s, ranks[0]))) * _symmetric_dimension(ranks[1:], D - s)
               for s in range(D + 1))


def test_schur_keys_count_the_symmetric_space():
    """A degree's Schur keys are distinct, strictly increasing on every
    run, of the degree's entry sum, and as many as the dimension of the
    symmetric polynomials of that degree; a negative degree has none."""
    for runs in ((1,), (2,), (3,), (4,), (2, 1), (1, 2, 1), (3, 2), (2, 2, 2)):
        vdm = sum(n * (n - 1) // 2 for n in runs)
        for D in range(-2, 7):
            keys = _schur_keys(runs, D + vdm)
            assert len(keys) == len(set(keys)) == _symmetric_dimension(list(runs), D)
            for key in keys:
                assert sum(key) == D + vdm
                start = 0
                for n in runs:
                    run = key[start:start + n]
                    assert all(a < b for a, b in zip(run, run[1:])) and run[0] >= 0
                    start += n
                assert start == len(key)
            assert list(keys) == sorted(keys)


def test_full_degree_reads_fewer_rows_than_it_has(monkeypatch):
    """On the point quiver at rank 2 every degree is full: degree 4 has
    the six products x^a * x^b, a + b = 5, and three Schur keys, and rref
    stops reading at its third pivot.  Its basis is m_(4), m_(3,1),
    m_(2,2)."""
    pt = point_quiver()
    per_degree = Counter(p.poly.total_degree() for p in spherical_products(pt, {"1": 2}, 4))
    assert per_degree[4] == 6
    read = []

    def counting_rref(p, rows):
        out = rref(p, rows)
        read.append((len(rows), len(out[1])))
        return out

    monkeypatch.setattr(shuffle_module, "rref", counting_rref)
    basis = spherical_span(pt, {"1": 2}, 4)
    assert len(read) == 5  # one reduction per degree, none over monomials
    rows_read, rank = read[4]
    assert rank == 3 and rows_read < per_degree[4]
    quartic = [b.poly for b in basis if b.poly.total_degree() == 4]
    assert sorted(quartic, key=str) == sorted([
        x("1", 1, 4) + x("1", 2, 4),
        x("1", 1, 3) * x("1", 2) + x("1", 1) * x("1", 2, 3),
        x("1", 1, 2) * x("1", 2, 2),
    ], key=str)
    assert basis == _reference_spherical_span(pt, {"1": 2}, 4)


def test_degree_one_short_of_full_takes_the_expansion_route():
    """On the 2-cycle at rank (1, 1) every product is a multiple of x2 - x1,
    so degree D has rank D of its D + 1 Schur keys: no degree is full, and
    a span that took rank len(keys) - 1 for full would print every
    monomial."""
    C2 = cyclic_quiver(2)
    gamma = {"1": 1, "2": 1}
    got = spherical_span(C2, gamma, 3)
    assert got == _reference_spherical_span(C2, gamma, 3)
    degrees = Counter(b.poly.total_degree() for b in got)
    assert [degrees[D] for D in range(4)] == [0, 1, 2, 3]
    assert [len(_schur_keys((1, 1), D)) for D in range(4)] == [1, 2, 3, 4]


def test_row_key_outside_its_degree_is_an_internal_error(monkeypatch):
    """Keys that miss one a row has would lay the row out without it; the
    span refuses instead.  On the point quiver at rank 2, degree 2 has the
    keys (0, 3) and (1, 2); without (0, 3), the first product of degree 2,
    1 * x^3, has a key outside its degree."""
    pt = point_quiver()
    keys = shuffle_module._SchurRows.keys
    monkeypatch.setattr(shuffle_module._SchurRows, "keys", lambda self, D: keys(self, D)[1:])
    with pytest.raises(InternalConsistencyError, match="is not a key of degree 2"):
        spherical_span(pt, {"1": 2}, 2)


def test_span_degree_blocks_merge_in_pivot_order():
    """A span with several degrees whose (len(m), m) column order
    interleaves them: the basis is the one rref, not the blocks in turn."""
    J = jordan_quiver()
    gamma = {"1": 2}
    got = spherical_span(J, gamma, 3)
    assert got == _reference_spherical_span(J, gamma, 3)
    degrees = [b.poly.total_degree() for b in got]
    assert degrees != sorted(degrees)


def test_span_checks_its_first_product_against_the_shuffle_kernel(monkeypatch):
    """The Schur route is checked on every call against the shuffle product
    of its first word.  Both read Schur coordinates with _alternant_key, so
    the check sees a broken copy of the product's expansion: a _schur_poly
    that drops its last term makes the first product of J at rank 2, 1 * 1,
    zero, while its row is 2 * s_(0,0)."""
    J = jordan_quiver()
    schur_poly = shuffle_module._schur_poly

    def dropping(lam):
        return dict(list(schur_poly(lam).items())[:-1])

    # the cached function recurses through the module's name, so the broken
    # copy's values reach its cache: clear it on both sides
    schur_poly.cache_clear()
    monkeypatch.setattr(shuffle_module, "_schur_poly", dropping)
    try:
        with pytest.raises(InternalConsistencyError, match="disagree with its shuffle product"):
            spherical_span(J, {"1": 2}, 1)
    finally:
        schur_poly.cache_clear()


def test_unsigned_alternant_key_is_caught_by_the_reference_product(monkeypatch):
    """Dropping the sign of the sort in _alternant_key breaks the span and
    the product alike, so the span's own check cannot see it; the per-split
    reference product does: 1 * 1 on J is 2, the unsigned read-off gives 0."""
    J = jordan_quiver()
    one = SymPoly.one(J, {"1": 1})
    want = _reference_shuffle_mul(one, one)
    assert want == SymPoly(J, {"1": 2}, Poly.const(2)) == shuffle_mul(one, one)

    def unsigned(e, slices):
        hit = _alternant_key(e, slices)
        return hit and (hit[0], 1)

    monkeypatch.setattr(shuffle_module, "_alternant_key", unsigned)
    assert shuffle_mul(one, one) != want


def _split_term_without_block_2_vandermonde(f, g, ranks1, ranks2):
    """A broken copy of _split_term: Vdm(block 2) is left out at every mixed
    vertex, so the numerator is symmetric, not antisymmetric, in block 2."""
    Q = f.quiver
    block1, block2 = _standard_blocks(f.gamma, g.gamma)
    shift = {xvar(v, q): vb for v in Q.vertices for q, vb in enumerate(block2[v], start=1)}
    term = f.poly * g.poly.rename_vars(shift)
    for v in Q.vertices:
        if block1[v] and block2[v]:
            for va, vb in combinations(block1[v], 2):
                term = term * Poly.linear_diff(vb, va)
    for vb, va, a_ij in _arrow_factors(Q, block1, block2):
        term = term * Poly.linear_diff(vb, va) ** a_ij
    return _to_dense(term, _layout(Q.vertices, tuple(map(sum, zip(ranks1, ranks2)))))


def test_product_checks_its_numerator_is_antisymmetric_in_its_blocks(monkeypatch):
    """x * x^2 on the point quiver at ranks 1 and 2: without Vdm(block 2)
    the numerator x1 * (x2^2 + x3^2) is symmetric in block 2."""
    pt = point_quiver()
    f = SymPoly(pt, {"1": 1}, x("1", 1))
    g = SymPoly(pt, {"1": 2}, x("1", 1, 2) + x("1", 2, 2))
    assert shuffle_mul(f, g) == _reference_shuffle_mul(f, g)
    monkeypatch.setattr(shuffle_module, "_split_term", _split_term_without_block_2_vandermonde)
    with pytest.raises(InternalConsistencyError, match="not antisymmetric in its blocks"):
        shuffle_mul(f, g)


def test_product_checks_its_schur_coordinates_divide_exactly(monkeypatch):
    """An _alternant_key that does not sort leaves each term of the
    numerator its own coordinate; the antisymmetry check cannot see it (the
    numerator is right), the division by g1! * g2! can.  1 * x^2 on the
    point quiver at ranks 2 and 1: the numerator (x2 - x1) * x3^2 has the
    coordinate 1 at (0, 1, 2), which 2! * 1! does not divide."""
    pt = point_quiver()
    f = SymPoly.one(pt, {"1": 2})
    g = SymPoly(pt, {"1": 1}, x("1", 1, 2))
    assert shuffle_mul(f, g) == _reference_shuffle_mul(f, g) == SymPoly.one(pt, {"1": 3})

    def unsorted(e, slices):
        hit = _alternant_key(e, slices)
        return hit and (e, 1)

    monkeypatch.setattr(shuffle_module, "_alternant_key", unsorted)
    with pytest.raises(InternalConsistencyError, match="not divisible by 2"):
        shuffle_mul(f, g)


def _criterion_9_queries():
    """The 98 membership queries of acceptance criterion 9: the images of
    the routed products and of every spherical product of C3 at rank
    (1, 1, 1) and degree 4, contracted along a0, on a fresh quiver."""
    c3 = Quiver(
        ("1", "2", "3"),
        [Arrow("a1", "1", "2"), Arrow("a2", "2", "3"), Arrow("a0", "3", "1")],
        name="C3",
    )
    gamma = {"1": 1, "2": 1, "3": 1}
    queries = []
    for order in (("2", "3", "1"), ("3", "1", "2")):
        for ks in ((0, 0, 0), (1, 0, 0), (0, 1, 0), (0, 0, 1)):
            prod = None
            for v, k in zip(order, ks):
                gen = SymPoly(c3, unit(c3, v), x(v, 1, k))
                prod = gen if prod is None else shuffle_mul(prod, gen)
            if not prod.is_zero():
                queries.append(contract_shuffle(prod, "a0"))
    queries += [contract_shuffle(f, "a0") for f in spherical_products(c3, gamma, 4)]
    return queries


def test_membership_matches_reference_on_criterion_9_queries():
    queries = _criterion_9_queries()
    assert len(queries) == 98
    verdicts = [spherical_membership(f, 4) for f in queries]
    assert verdicts == [_reference_spherical_membership(f, 4) for f in queries]
    assert all(v is True for v in verdicts)


def test_membership_reduces_once_per_sector(monkeypatch):
    """Criterion 9's queries all ask about one (contracted quiver, rank,
    degree): one reduction serves them all."""
    queries = _criterion_9_queries()
    sectors = {(id(f.quiver), f.gamma_key()) for f in queries}
    calls = []

    def counting_rref(p, rows):
        calls.append(len(rows))
        return rref(p, rows)

    monkeypatch.setattr(shuffle_module, "rref", counting_rref)
    for f in queries:
        spherical_membership(f, 4)
    assert len(sectors) == 1
    assert len(calls) == 1
    spherical_membership(next(f for f in queries if not f.is_zero()), 5)  # another sector
    assert len(calls) == 2


def test_membership_matches_reference_on_seeded_elements(rng):
    """Members (rational combinations of products), random symmetric
    polynomials, zero, elements above the degree bound, and the default
    degree: the verdicts of the Schur route and of the reference agree."""
    verdicts = Counter()
    cases = 0
    while cases < 120:
        Q = random_quiver(rng, max_vertices=3, max_arrows=4)
        gamma = {v: rng.choice((0, 1, 1, 2)) for v in Q.vertices}
        if sum(gamma.values()) > 3:
            continue
        d = rng.randint(0, 3)
        products = spherical_products(Q, gamma, d)
        candidates = [
            random_sympoly(rng, Q, gamma, max_deg=d + 1, nterms=3, coeffs=RATIONALS),
            SymPoly(Q, gamma, Poly.zero()),
        ]
        if products:
            member = Poly.zero()
            for p in rng.sample(products, min(3, len(products))):
                member = member + p.poly.scale(rng.choice(RATIONALS))
            candidates.append(SymPoly(Q, gamma, member))
        for f in candidates:
            for degree in (d, None):
                got = spherical_membership(f, degree)
                assert got == _reference_spherical_membership(f, degree), (Q.arrows, gamma, d, f)
                verdicts[got] += 1
        cases += 1
    assert verdicts[True] and verdicts[False] and verdicts[INCONCLUSIVE], verdicts
