"""Release gate: nine timed end-to-end checks, one PASS/FAIL line each.

Every test below exercises one release criterion, prints a single
``ACCEPTANCE n: PASS|FAIL (elapsed, budget)`` line on the real stdout
(visible even under capture), and then asserts both the check and its
time budget.  Nothing here is weakened to force green: criterion 9
asserts a non-membership claim exactly as stated, and the exact row
reduction over the rationals refutes it, so that test fails and is kept
failing (see README, acceptance status, for the analysis).
"""

import os
import random
import subprocess
import sys
import tempfile
import time
from fractions import Fraction
from math import comb

from quiveralg.contraction import contract_quiver
from quiveralg.hopf import (
    PsiWord,
    TensorElement,
    contraction_ratio_check,
    coproduct_small,
    double_cross_check,
)
from quiveralg.mutation import theorem_check_366
from quiveralg.poly import Poly, xvar
from quiveralg.preprojective import adhm_elimination_check, contract_triple_check
from quiveralg.qpformat import parse_qp
from quiveralg.quiver import Arrow, Quiver, euler_form
from quiveralg.scattering import (
    GComplex,
    PathSpec,
    QuantumTorusElement,
    Wall,
    consistency_check,
    eta_embedding_check,
    lift_gamma,
    wall_support_scan,
)
from quiveralg.shuffle import (
    SymPoly,
    contract_shuffle,
    shuffle_mul,
    spherical_membership,
    spherical_products,
)

from conftest import random_dimvec, random_quiver, random_sympoly
from test_mutation import family_case_a, family_case_b
from test_preprojective import random_contractions

BUDGETS = {1: 1.0, 2: 30.0, 3: 300.0, 4: 5.0, 5: 60.0, 6: 60.0, 7: 120.0, 8: 600.0, 9: 120.0}


def _gate(n, body, capfd):
    """Run one criterion, print its line outside capture, re-raise failures."""
    t0 = time.monotonic()
    failure = None
    try:
        body()
    except Exception as exc:  # report FAIL for errors as well as assertions
        failure = exc
    elapsed = time.monotonic() - t0
    budget = BUDGETS[n]
    ok = failure is None and elapsed <= budget
    with capfd.disabled():
        sys.stdout.write(
            f"ACCEPTANCE {n}: {'PASS' if ok else 'FAIL'}"
            f" ({elapsed:.2f}s, budget {budget:.0f}s)\n"
        )
        sys.stdout.flush()
    if failure is not None:
        raise failure
    assert elapsed <= budget, f"criterion {n} took {elapsed:.2f}s > {budget:.0f}s"


# ---------------------------------------------------------------------------
# 1. canonical contraction of the showcase quiver through the CLI


SHOWCASE_QP = """\
quiver showcase
vertices: i+, i-, 1, 2
arrows: a0: i+ -> i-; a1: i- -> i+; a2: i+ -> i-; l1: i- -> i-;
        l2: i- -> i-; b: i- -> 1; c: 1 -> 2; d: 2 -> i-
potential: 1 * a1.l1.l1.l2.l2.l2.a0 + 1 * l1.d.c.b
"""

CONTRACTED_QP = """\
quiver showcase_hat
vertices: i+, 1, 2
arrows: a1*a0: i+ -> i+; a0^-1*a2: i+ -> i+; a0^-1*l1*a0: i+ -> i+; a0^-1*l2*a0: i+ -> i+; b*a0: i+ -> 1; c: 1 -> 2; a0^-1*d: 2 -> i+
potential: 1 * a0^-1*d.c.b*a0.a0^-1*l1*a0 + 1 * a0^-1*l1*a0.a0^-1*l1*a0.a0^-1*l2*a0.a0^-1*l2*a0.a0^-1*l2*a0.a1*a0
"""


def _criterion_1():
    with tempfile.TemporaryDirectory() as td:
        path = os.path.join(td, "showcase.qp")
        with open(path, "w", encoding="utf-8") as fh:
            fh.write(SHOWCASE_QP)
        proc = subprocess.run(
            [sys.executable, "-m", "quiveralg.cli", "contract", "--arrow", "a0", path],
            capture_output=True,
            text=True,
        )
    assert proc.returncode == 0, proc.stderr
    assert proc.stderr == ""
    assert proc.stdout == CONTRACTED_QP

    before = parse_qp(SHOWCASE_QP)
    after = parse_qp(proc.stdout)
    assert len(before.quiver.vertices) == 4 and len(before.quiver.arrows) == 8
    assert len(after.quiver.vertices) == 3 and len(after.quiver.arrows) == 7
    loops = {a.id for a in after.quiver.arrows if a.source == a.target == "i+"}
    assert loops == {"a1*a0", "a0^-1*a2", "a0^-1*l1*a0", "a0^-1*l2*a0"}
    rest = {(a.id, a.source, a.target) for a in after.quiver.arrows if a.source != a.target}
    assert rest == {("b*a0", "i+", "1"), ("c", "1", "2"), ("a0^-1*d", "2", "i+")}
    assert str(after.potential) == (
        "1 * a0^-1*d.c.b*a0.a0^-1*l1*a0"
        " + 1 * a0^-1*l1*a0.a0^-1*l1*a0.a0^-1*l2*a0.a0^-1*l2*a0.a0^-1*l2*a0.a1*a0"
    )


def test_criterion_1_contraction_cli(capfd):
    _gate(1, _criterion_1, capfd)


# ---------------------------------------------------------------------------
# 2. shuffle kernel sanity: frozen squares and bulk polynomiality


def _criterion_2():
    point = Quiver(["1"], [], name="point")
    one = SymPoly(point, {"1": 1}, Poly.const(1))
    assert shuffle_mul(one, one).poly.is_zero()

    jordan = Quiver(["1"], [Arrow("l", "1", "1")], name="Jordan")
    onej = SymPoly(jordan, {"1": 1}, Poly.const(1))
    assert shuffle_mul(onej, onej).poly == Poly.const(2)

    # >= 500 random products; shuffle_mul's result is polynomial by
    # construction, and it asserts what that rests on (its arrow factor is
    # symmetric in each block, every Schur key it reads off is strictly
    # increasing), so completing the loop exercises both checks.
    rng = random.Random(924)
    done = 0
    while done < 500:
        Q = random_quiver(rng, max_vertices=3, max_arrows=4)
        g1 = {v: rng.choice((0, 0, 1, 1, 2)) for v in Q.vertices}
        g2 = {v: rng.choice((0, 0, 1, 1, 2)) for v in Q.vertices}
        pairs = sum(g1[a.source] * g2[a.target] for a in Q.arrows)
        shuffles = 1
        for v in Q.vertices:
            shuffles *= comb(g1[v] + g2[v], g1[v])
        if pairs > 6 or shuffles > 200:
            continue
        f = random_sympoly(rng, Q, g1, max_deg=2)
        g = random_sympoly(rng, Q, g2, max_deg=2)
        shuffle_mul(f, g)
        done += 1


def test_criterion_2_shuffle_kernel_sanity(capfd):
    _gate(2, _criterion_2, capfd)


# ---------------------------------------------------------------------------
# 3. contraction is multiplicative on the equal sector


def _criterion_3():
    rng = random.Random(20260814)
    done = 0
    while done < 100:
        Q = random_quiver(rng, max_vertices=4, max_arrows=6)
        nonloops = [a for a in Q.arrows if a.source != a.target]
        if not nonloops:
            continue
        a0 = rng.choice(nonloops)
        g1 = {v: rng.choice((0, 0, 1, 1, 2)) for v in Q.vertices}
        g2 = {v: rng.choice((0, 0, 1, 1, 2)) for v in Q.vertices}
        g1[a0.target] = g1[a0.source]
        g2[a0.target] = g2[a0.source]
        # keep each case desk-scale; ranks stay <= 2 either way
        pairs = sum(g1[a.source] * g2[a.target] for a in Q.arrows)
        shuffles = 1
        for v in Q.vertices:
            shuffles *= comb(g1[v] + g2[v], g1[v])
        if pairs > 8 or shuffles > 600:
            continue
        f = random_sympoly(rng, Q, g1, max_deg=3)
        g = random_sympoly(rng, Q, g2, max_deg=3)
        lhs = contract_shuffle(shuffle_mul(f, g), a0.id)
        rhs = shuffle_mul(contract_shuffle(f, a0.id), contract_shuffle(g, a0.id))
        assert lhs == rhs, (Q.arrows, a0.id, g1, g2)
        done += 1


def test_criterion_3_contraction_homomorphism(capfd):
    _gate(3, _criterion_3, capfd)


# ---------------------------------------------------------------------------
# 4. Euler form is preserved on the equal sector


def _criterion_4():
    rng = random.Random(4)
    done = 0
    while done < 200:
        Q = random_quiver(rng)
        nonloops = [a for a in Q.arrows if a.source != a.target]
        if not nonloops:
            continue
        a0 = rng.choice(nonloops)
        g1 = random_dimvec(rng, Q)
        g2 = random_dimvec(rng, Q)
        g1[a0.target] = g1[a0.source]
        g2[a0.target] = g2[a0.source]
        Qhat, _, _ = contract_quiver(Q, a0.id)
        h1 = {v: g1[v] for v in Qhat.vertices}
        h2 = {v: g2[v] for v in Qhat.vertices}
        assert euler_form(Q, g1, g2) == euler_form(Qhat, h1, h2), (Q.arrows, a0.id)
        done += 1


def test_criterion_4_euler_form_preserved(capfd):
    _gate(4, _criterion_4, capfd)


# ---------------------------------------------------------------------------
# 5. mutation/contraction commutation on both admissible families


def _criterion_5():
    case_a = family_case_a()
    case_b = family_case_b()
    assert len(case_a) >= 5 and len(case_b) >= 5
    for qp in case_a + case_b:
        report = theorem_check_366(qp, "a0")
        assert report.ok, (qp.quiver.arrows, report)


def test_criterion_5_mutation_commutes(capfd):
    _gate(5, _criterion_5, capfd)


# ---------------------------------------------------------------------------
# 6. triple-quiver contraction and ADHM elimination


def _criterion_6():
    cases = random_contractions(seed=41, count=10)
    cases.append((Quiver(["1", "2"], [Arrow("a", "1", "2")], name="A2"), "a"))
    cases.append(
        (
            Quiver(
                ["i+", "i-"],
                [Arrow("a0", "i+", "i-"), Arrow("a2", "i+", "i-")],
                name="Kronecker",
            ),
            "a0",
        )
    )
    assert len(cases) >= 12
    for Q, a0 in cases:
        assert contract_triple_check(Q, a0), (Q.name, a0)
        assert adhm_elimination_check(Q, a0), (Q.name, a0)


def test_criterion_6_adhm_reduction(capfd):
    _gate(6, _criterion_6, capfd)


# ---------------------------------------------------------------------------
# 7. Hopf-side compatibility: action ratios, coproduct at rank (1,1),
#    double cross relation


def _rank11(Q, u, v, poly):
    gamma = {w: 1 if w in (u, v) else 0 for w in Q.vertices}
    return SymPoly(Q, gamma, poly)


def _criterion_7():
    rng = random.Random(7)
    done = 0
    while done < 20:
        Q = random_quiver(rng)
        nonloops = [a for a in Q.arrows if a.source != a.target]
        if not nonloops:
            continue
        a0 = rng.choice(nonloops)
        gamma = {v: rng.randint(0, 2) for v in Q.vertices}
        gamma[a0.target] = gamma[a0.source]
        assert contraction_ratio_check(Q, a0.id, gamma), (Q.arrows, a0.id, gamma)
        done += 1

    # coproduct restriction at rank (1,1): psi (x) f + f (x) 1, exactly
    a2 = Quiver(["1", "2"], [Arrow("a", "1", "2")], name="A2")
    kron = Quiver(
        ["i+", "i-"], [Arrow("a0", "i+", "i-"), Arrow("a2", "i+", "i-")], name="Kronecker"
    )
    for Q, u, v, poly in [
        (a2, "1", "2", Poly.var(xvar("1", 1)) * Poly.var(xvar("2", 1)) + Poly.const(2)),
        (kron, "i+", "i-", Poly.var(xvar("i+", 1), 2) + Poly.var(xvar("i-", 1))),
        (a2, "1", "2", Poly.const(3) * Poly.var(xvar("2", 1), 2) - Poly.const(1)),
    ]:
        f = _rank11(Q, u, v, poly)
        series = PsiWord("psi", {(u, 1): 1, (v, 1): 1})
        want = TensorElement.of(2, (1, (series, f)), (1, (f, PsiWord.unit())))
        assert coproduct_small(f) == want, (Q.name, u, v)

    # double cross relation on rank-(1,1) classes across three quivers
    rng2 = random.Random(11)
    instances = [(a2, "a", "1", "2"), (kron, "a0", "i+", "i-")]
    done = 0
    while done < 10:
        Q, a0, u, v = instances[done % len(instances)]
        def two_var(rng, u, v):
            poly = Poly.zero()
            for _ in range(3):
                c = rng.randint(-3, 3)
                poly = poly + (
                    Poly.const(c)
                    * Poly.var(xvar(u, 1), rng.randint(0, 2))
                    * Poly.var(xvar(v, 1), rng.randint(0, 2))
                )
            return poly
        f = _rank11(Q, u, v, two_var(rng2, u, v))
        g = _rank11(Q, u, v, two_var(rng2, u, v))
        assert double_cross_check(f, g, a0), (Q.name, done)
        done += 1


def test_criterion_7_hopf_compatibility(capfd):
    _gate(7, _criterion_7, capfd)


# ---------------------------------------------------------------------------
# 8. stability-space embedding and scattering consistency at desk scale


AXES = [(1, 0), (0, 1), (-1, 0), (0, -1)]

ETA_Q = Quiver(
    ("j", "i+", "i-"), [Arrow("b", "j", "i+"), Arrow("a0", "i+", "i-")], name="P3"
)


def _criterion_8():
    # every detected wall of the contracted quiver lifts (total dim <= 4)
    # to a semistable-witnessed point, over F2 and F3
    for maxg in [(1, 1), (2, 1), (0, 2)]:
        for p in (2, 3):
            report = eta_embedding_check(ETA_Q, "a0", maxg, AXES, p=p)
            assert report.ok, (maxg, p)
            assert report.results, (maxg, p)
            for r in report.results:
                assert r.ok and r.kparam is not None, (maxg, p, r)
                lifted = lift_gamma(
                    {"j": r.gamma_hat[0], "i+": r.gamma_hat[1]}, "i+", "i+", "i-"
                )
                assert sum(lifted.values()) <= 4, (maxg, p, r)

    # wall list of the 2-vertex path quiver: both coordinate hyperplanes in
    # full, and the half of {k1 + k2 = 0} where k2 <= 0
    a2 = Quiver(("1", "2"), [Arrow("a", "1", "2")], name="A2")
    for p in (2, 3):
        scan = {entry.gamma: entry for entry in wall_support_scan(a2, (1, 1), AXES, p)}
        assert set(scan) == {(1, 0), (0, 1), (1, 1)}
        assert all(entry.is_wall for entry in scan.values())
        assert [v for _, v in scan[(1, 0)].verdicts] == [True, True]
        assert [v for _, v in scan[(0, 1)].verdicts] == [True, True]
        assert scan[(1, 1)].verdicts == (
            ((Fraction(1, 2), Fraction(-1, 2)), True),
            ((Fraction(-1, 2), Fraction(1, 2)), False),
        )

    # consistency separates the hand-built diagrams at truncation 3
    def gen(Q, gamma):
        return QuantumTorusElement.generator(Q, gamma)

    diamond = PathSpec.of([(2, 1), (-1, 2), (-2, -1), (1, -2), (2, 1)])
    bad = GComplex(a2, [Wall((1, 0), gen(a2, (1, 0))), Wall((0, 1), gen(a2, (0, 1)))])
    assert not consistency_check(bad, [diamond], 3)

    t3 = Quiver(("1", "2", "3"), [], name="T3")
    good = GComplex(
        t3, [Wall((1, 0, 0), gen(t3, (1, 0, 0))), Wall((0, 1, 0), gen(t3, (0, 1, 0)))]
    )
    loop = PathSpec.of([(2, 1, 1), (-1, 2, 1), (-2, -1, 1), (1, -2, 1), (2, 1, 1)])
    assert consistency_check(good, [loop], 3)


def test_criterion_8_stability_embedding(capfd):
    _gate(8, _criterion_8, capfd)


# ---------------------------------------------------------------------------
# 9. contracted 3-cycle spherical products against the 2-cycle span
#
# This asserts, verbatim, that some contracted spherical product at
# gamma = (1,1,1) escapes the contracted quiver's rank-one span within
# degree 4.  Exact row reduction shows the opposite: every contracted
# product is a multiple of (x[i+,1] - x[2,1]) of degree <= 4 and the
# 2-cycle span contains all of those, so the final assertion fails.  It
# is kept failing rather than weakened.  The companion claim — products
# routed through the rank-one pieces at i+ then i- land in the span —
# does hold and is asserted first.


def _criterion_9():
    c3 = Quiver(
        ("1", "2", "3"),
        [Arrow("a1", "1", "2"), Arrow("a2", "2", "3"), Arrow("a0", "3", "1")],
        name="C3",
    )
    gamma = {"1": 1, "2": 1, "3": 1}
    prods = spherical_products(c3, gamma, 4)
    assert prods

    def unit_rank(v, k=0):
        g = {w: 1 if w == v else 0 for w in c3.vertices}
        return SymPoly(c3, g, Poly.var(xvar(v, 1), k))

    # products routed through the i+ then i- rank-one pieces (i+ = 3 is the
    # source of a0, i- = 1 its target) must land in the contracted span
    routed = 0
    for order in (("2", "3", "1"), ("3", "1", "2")):
        for ks in ((0, 0, 0), (1, 0, 0), (0, 1, 0), (0, 0, 1)):
            prod = None
            for v, k in zip(order, ks):
                gen = unit_rank(v, k)
                prod = gen if prod is None else shuffle_mul(prod, gen)
            if prod.is_zero():
                continue
            image = contract_shuffle(prod, "a0")
            assert spherical_membership(image, 4) is True, (order, ks)
            routed += 1
    assert routed > 0

    # the stated escape: some contracted spherical product is NOT in the
    # 2-cycle rank-one span within degree 4
    verdicts = [
        spherical_membership(contract_shuffle(f, "a0"), 4) for f in prods
    ]
    assert any(v is False for v in verdicts), (
        f"all {len(verdicts)} contracted spherical products lie in the"
        " contracted rank-one span at degree <= 4; the stated escape does"
        " not occur"
    )


def test_criterion_9_spherical_escape(capfd):
    _gate(9, _criterion_9, capfd)
