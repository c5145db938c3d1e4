"""Shuffle product, contraction homomorphism, spherical spans."""

from __future__ import annotations

from itertools import combinations, permutations
from math import comb

import pytest

from quiveralg.errors import PreconditionError
from quiveralg.poly import Poly, Rat, xvar
from quiveralg.quiver import Arrow, Quiver, euler_form
from quiveralg.shuffle import (
    INCONCLUSIVE,
    ShuffleElement,
    SymPoly,
    _split_term,
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
    random_quiver,
    random_sympoly,
    showcase_qp,
)


def x(v, a=1, k=1):
    return Poly.var(xvar(v, a), k)


def unit(Q, v):
    return {u: 1 if u == v else 0 for u in Q.vertices}


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
    full Vandermonde, times f and the shifted g: the kernel checked above is
    the one the product uses."""
    done = 0
    while done < 25:
        Q = random_quiver(rng, max_vertices=3, max_arrows=5)
        g1 = {v: rng.randint(0, 2) for v in Q.vertices}
        g2 = {v: rng.randint(0, 2) for v in Q.vertices}
        if sum(g1[a.source] * g2[a.target] for a in Q.arrows) > 6:
            continue
        f = random_sympoly(rng, Q, g1, max_deg=2)
        g = random_sympoly(rng, Q, g2, max_deg=2)
        shift = {xvar(v, q): xvar(v, g1[v] + q) for v in Q.vertices for q in range(1, g2[v] + 1)}
        vdm = Rat(1, [
            (Poly.linear_diff(xvar(v, b), xvar(v, a)), 1)
            for v in Q.vertices
            for a, b in combinations(range(1, g1[v] + g2[v] + 1), 2)
        ])
        full = Rat.from_poly(f.poly * g.poly.rename_vars(shift)) * fac_kernel(Q, g1, g2) * vdm
        assert full.is_polynomial()
        assert _split_term(f, g) == full.num()
        done += 1


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


def test_shuffle_mul_matches_per_split_reference(rng):
    """Random quivers (loops, parallel arrows and 2-cycles occur), ranks 0-2
    per vertex, both orders f*g and g*f."""
    done = zeros = 0
    while done < 40:
        Q = random_quiver(rng, max_vertices=3, max_arrows=5)
        g1 = {v: rng.randint(0, 2) for v in Q.vertices}
        g2 = {v: rng.randint(0, 2) for v in Q.vertices}
        gamma = [g1[v] + g2[v] for v in Q.vertices]
        shuffles = 1
        for v in Q.vertices:
            shuffles *= comb(g1[v] + g2[v], g1[v])
        # the reference's long division is slow beyond total rank 6
        if sum(gamma) > 6 or shuffles > 40 or sum(g1[a.source] * g2[a.target] for a in Q.arrows) > 6:
            continue
        f = random_sympoly(rng, Q, g1, max_deg=2)
        g = random_sympoly(rng, Q, g2, max_deg=2)
        for left, right in ((f, g), (g, f)):
            got = shuffle_mul(left, right)
            assert got == _reference_shuffle_mul(left, right), (Q.arrows, g1, g2)
            zeros += got.is_zero() and not (left.is_zero() or right.is_zero())
        done += 1
    # products that cancel to zero: antisymmetry at a loop-free vertex
    pt = point_quiver()
    for k in range(3):
        xk = SymPoly(pt, {"1": 1}, x("1", 1, k))
        assert shuffle_mul(xk, xk).is_zero() and _reference_shuffle_mul(xk, xk).is_zero()
    assert zeros > 0


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
