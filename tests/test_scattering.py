"""Truncated quantum torus, path-ordered products, King stability brute
force, wall scans, and the contraction embedding of stability space."""

import contextlib
import hashlib
import itertools
import random
from fractions import Fraction

import pytest

from quiveralg import scattering
from quiveralg.cli import main
from quiveralg.errors import PreconditionError, ScopeError
from quiveralg.linalg import GF, rref
from quiveralg.quiver import Arrow, Quiver
from quiveralg.scattering import (
    DEFAULT_KPARAM_GRID,
    LIMITS,
    EtaReport,
    GComplex,
    KingVerdict,
    Limits,
    PathSpec,
    QuantumTorusElement,
    Wall,
    consistency_check,
    eta_embed,
    eta_embedding_check,
    exp_truncated,
    hn_filtration,
    king_semistable_exists,
    lift_gamma,
    log_truncated,
    path_ordered_product,
    quantum_torus_mul,
    _subspaces,
    wall_scan_lines,
    wall_support_scan,
)

A2 = Quiver(("1", "2"), [Arrow("a", "1", "2")], name="A2")
T3 = Quiver(("1", "2", "3"), [], name="T3")
QT = QuantumTorusElement


def e(Q, gamma, coeff=1, halfexp=0):
    return QT.generator(Q, gamma, coeff=coeff, halfexp=halfexp)


def random_element(rng, Q, max_entry=2, terms=3):
    x = QT.zero(Q)
    n = len(Q.vertices)
    for _ in range(terms):
        g = tuple(rng.randint(0, max_entry) for _ in range(n))
        if sum(g) == 0:
            continue
        x = x + e(Q, g, coeff=Fraction(rng.randint(-3, 3), rng.randint(1, 3)),
                  halfexp=rng.randint(-2, 2))
    return x


# --------------------------------------------------------------------- torus


def test_mul_weight_shift():
    x = quantum_torus_mul(e(A2, (1, 0)), e(A2, (0, 1)), 3)
    assert x.terms == {((1, 1), 2): 1}  # one full power of the weight symbol


def test_mul_opposite_order_no_shift():
    x = quantum_torus_mul(e(A2, (0, 1)), e(A2, (1, 0)), 3)
    assert x.terms == {((1, 1), 0): 1}


def test_mul_unit():
    x = e(A2, (1, 0), coeff=Fraction(3, 2), halfexp=1)
    assert quantum_torus_mul(x, QT.one(A2), 3) == x
    assert quantum_torus_mul(QT.one(A2), x, 3) == x


def test_mul_truncates():
    x = quantum_torus_mul(e(A2, (2, 1)), e(A2, (1, 1)), 3)
    assert x.terms == {}


def test_mul_associative_random():
    rng = random.Random(9)
    for _ in range(30):
        a, b, c = (random_element(rng, A2) for _ in range(3))
        lhs = quantum_torus_mul(quantum_torus_mul(a, b, 4), c, 4)
        rhs = quantum_torus_mul(a, quantum_torus_mul(b, c, 4), 4)
        assert lhs == rhs


def test_scalar_part_is_e0_coefficient():
    x = QT.one(A2).scale(Fraction(5, 2)) + e(A2, (1, 0))
    assert x.scalar_part() == {0: Fraction(5, 2)}


def test_str_prints_laurent_coefficients():
    """L, L^2, -L, 2*L and L^(1/2) as coefficients, and a sum of powers:
    half exponent 2 is L, a coefficient of +-1 is written as a sign."""
    x = (
        e(A2, (1, 0), halfexp=2)
        + e(A2, (0, 1), halfexp=4)
        + e(A2, (1, 1), coeff=-1, halfexp=2)
        + e(A2, (2, 0), coeff=2, halfexp=2)
        + e(A2, (0, 2), halfexp=1)
        + e(A2, (2, 2), coeff=Fraction(-3, 2), halfexp=0)
        + e(A2, (2, 2), coeff=-1, halfexp=-2)
    )
    assert str(x) == (
        "(L^2)*e(0, 1) + (L)*e(1, 0) + (L^(1/2))*e(0, 2) + (-L)*e(1, 1)"
        " + (2*L)*e(2, 0) + (-L^-1 - 3/2)*e(2, 2)"
    )
    assert str(QT.zero(A2)) == "0"


def test_half_exponent_must_be_an_integer():
    """L^(1/4) is no element: a half exponent of 0.5 is refused when the
    element is built, not when it is printed."""
    for h in (0.5, Fraction(1, 2), "1", None):
        with pytest.raises(PreconditionError, match="half exponent"):
            e(A2, (1, 0), halfexp=h)
        with pytest.raises(PreconditionError, match="half exponent"):
            QT(A2, {((1, 0), h): 1})
    assert str(e(A2, (1, 0), halfexp=1)) == "(L^(1/2))*e(1, 0)"


def test_elements_over_equal_quivers_add():
    """Equal but distinct quiver instances hold the same elements; only
    different vertex tuples refuse to add."""
    twin = Quiver(("1", "2"), [Arrow("a", "1", "2")], name="A2")
    assert twin is not A2
    total = e(A2, (1, 0)) + e(twin, (1, 0), coeff=2)
    assert total == e(A2, (1, 0), coeff=3)
    with pytest.raises(PreconditionError, match="different quivers"):
        e(A2, (1, 0)) + e(T3, (1, 0, 0))


def test_torus_elements_keep_the_combination_contract():
    """Twin quivers give equal elements with equal hashes, different vertex
    tuples give unequal ones, every derived element keeps its quiver, and
    no constructor builds an element without one."""
    twin = Quiver(("1", "2"), [Arrow("a", "1", "2")], name="A2")
    x = e(A2, (1, 0), coeff=2, halfexp=1) + e(A2, (0, 1))
    y = e(twin, (1, 0), coeff=2, halfexp=1) + e(twin, (0, 1))
    assert x == y and hash(x) == hash(y)
    other = Quiver(("1", "3"), [Arrow("a", "1", "3")])
    z = e(other, (1, 0), coeff=2, halfexp=1) + e(other, (0, 1))
    assert x.terms == z.terms and x != z
    assert x != e(A2, (1, 0), coeff=2, halfexp=1)
    for derived in (x.scale(0), -x, x - x, x.scale(3), QT.zero(A2)):
        assert derived.quiver is A2
    assert x.scale(0) == QT.zero(A2) and x.scale(0).is_zero()
    assert (x - x) + e(A2, (1, 0)) == e(A2, (1, 0))
    assert quantum_torus_mul(x, x, 3).quiver is A2
    for build in (lambda: QT.from_pairs([]), lambda: QT.from_pairs([(((1, 0), 0), 1)]),
                  lambda: QT.zero(), lambda: QT()):
        with pytest.raises(TypeError):
            build()
    with pytest.raises(PreconditionError, match="negative entry"):
        QT(A2, {((-1, 1), 0): 1})


def test_exp_low_truncation_is_affine():
    x = e(A2, (1, 0), coeff=Fraction(5, 2))
    assert exp_truncated(x, 1) == QT.one(A2) + x


def test_exp_zero_is_one():
    assert exp_truncated(QT.zero(A2), 3) == QT.one(A2)


def test_exp_rejects_scalar_part():
    with pytest.raises(PreconditionError):
        exp_truncated(QT.one(A2), 3)


def test_log_rejects_wrong_scalar():
    with pytest.raises(PreconditionError):
        log_truncated(e(A2, (1, 0)), 3)


def test_log_exp_roundtrip_random():
    rng = random.Random(5)
    for _ in range(15):
        x = random_element(rng, A2, max_entry=2, terms=4)  # total dimension <= 4
        assert log_truncated(exp_truncated(x, 4), 4) == x


# ------------------------------------------------------------ walls & paths


def test_gcomplex_requires_orthogonal_support():
    with pytest.raises(PreconditionError):
        GComplex(A2, [Wall((1, 0), e(A2, (0, 1)))])
    with pytest.raises(PreconditionError):
        GComplex(A2, [Wall((0, 0), e(A2, (1, 0)))])
    # parallel support, any positive multiple, is fine
    GComplex(A2, [Wall((1, 0), e(A2, (2, 0)) + e(A2, (1, 0)))])


def test_gcomplex_refuses_e0_terms_and_antiparallel_normals():
    """A wall element with an e_0 term is refused by the support check
    itself (the parallel check would refuse it too, with another message),
    and a normal pointing against the support is refused although the two
    are parallel."""
    with pytest.raises(PreconditionError, match=r"support \(0, 0\) is not a positive"):
        GComplex(A2, [Wall((1, 0), QT.one(A2) + e(A2, (1, 0)))])
    with pytest.raises(PreconditionError, match=r"support \(1, 0\) is not orthogonal"):
        GComplex(A2, [Wall((-1, 0), e(A2, (1, 0)))])
    with pytest.raises(PreconditionError, match=r"support \(1, 1\) is not orthogonal"):
        GComplex(A2, [Wall((-2, -2), e(A2, (1, 1)))])
    GComplex(A2, [Wall((2, 2), e(A2, (1, 1)))])


def diagram_noncommuting():
    return GComplex(A2, [Wall((1, 0), e(A2, (1, 0))), Wall((0, 1), e(A2, (0, 1)))])


DIAMOND = PathSpec.of([(2, 1), (-1, 2), (-2, -1), (1, -2), (2, 1)])


def test_single_wall_decreasing_crossing():
    D = GComplex(A2, [Wall((1, 0), e(A2, (1, 0)))])
    F = path_ordered_product(D, PathSpec.of([(1, 1), (-1, 1)]), 3)
    assert F == exp_truncated(e(A2, (1, 0)), 3)


def test_single_wall_increasing_crossing_inverts():
    D = GComplex(A2, [Wall((1, 0), e(A2, (1, 0)))])
    F = path_ordered_product(D, PathSpec.of([(-1, 1), (1, 1)]), 3)
    assert F == exp_truncated(e(A2, (1, 0), coeff=-1), 3)
    assert quantum_torus_mul(
        F, path_ordered_product(D, PathSpec.of([(1, 1), (-1, 1)]), 3), 3
    ) == QT.one(A2)


def test_path_missing_walls_is_identity():
    assert path_ordered_product(diagram_noncommuting(), PathSpec.of([(1, 1), (2, 2)]), 3) == QT.one(A2)


def test_commuting_walls_either_order():
    D = GComplex(T3, [Wall((1, 0, 0), e(T3, (1, 0, 0))), Wall((0, 1, 0), e(T3, (0, 1, 0)))])
    pa = PathSpec.of([(2, 1, 1), (-1, 2, 1), (-2, -1, 1)])
    pb = PathSpec.of([(2, 1, 1), (1, -2, 1), (-2, -1, 1)])
    assert path_ordered_product(D, pa, 3) == path_ordered_product(D, pb, 3)


def test_refinement_invariance():
    D = diagram_noncommuting()
    base = PathSpec.of([(2, 1), (-1, 2)])
    fine = PathSpec.of([(2, 1), (Fraction(1, 2), Fraction(3, 2)), (-1, 2)])
    assert path_ordered_product(D, base, 3) == path_ordered_product(D, fine, 3)


def test_noncommuting_diamond_loop_keeps_commutator():
    F = path_ordered_product(diagram_noncommuting(), DIAMOND, 3)
    # scalar part 1, plus a non-zero (1 - L) commutator term at (1,1)
    assert F.scalar_part() == {0: Fraction(1)}
    assert {h: c for (g, h), c in F.terms.items() if g == (1, 1)} == {
        0: Fraction(1), 2: Fraction(-1)
    }


def test_consistency_separates_diagrams():
    assert not consistency_check(diagram_noncommuting(), [DIAMOND], 3)
    Dc = GComplex(
        T3, [Wall((1, 0, 0), e(T3, (1, 0, 0))), Wall((0, 1, 0), e(T3, (0, 1, 0)))]
    )
    loop = PathSpec.of([(2, 1, 1), (-1, 2, 1), (-2, -1, 1), (1, -2, 1), (2, 1, 1)])
    assert consistency_check(Dc, [loop], 3)


def test_one_wall_is_consistent():
    D = GComplex(A2, [Wall((1, 0), e(A2, (1, 0)))])
    assert consistency_check(D, [DIAMOND], 3)


def test_consistency_requires_closed_loops():
    with pytest.raises(PreconditionError):
        consistency_check(diagram_noncommuting(), [PathSpec.of([(2, 1), (-1, 2)])], 3)


def test_genericity_errors():
    D = diagram_noncommuting()
    with pytest.raises(PreconditionError):  # two walls at the same point
        path_ordered_product(D, PathSpec.of([(1, 1), (-1, -1)]), 3)
    with pytest.raises(PreconditionError):  # endpoint on a wall
        path_ordered_product(D, PathSpec.of([(0, 1), (1, 2)]), 3)
    with pytest.raises(PreconditionError):  # interior breakpoint on a wall
        path_ordered_product(D, PathSpec.of([(1, 1), (0, 2), (-1, 1)]), 3)


def test_breakpoint_ending_a_segment_on_a_wall_is_not_generic():
    """A breakpoint on a wall is the crossing at t = 1 of the segment it
    ends, and is refused there, before the next segment, which here runs
    inside that wall, is looked at.  test_genericity_errors has only
    breakpoints the next segment refuses at t = 0, and path_ordered_product
    refuses a wall under the path's last endpoint before any segment."""
    D = diagram_noncommuting()
    with pytest.raises(PreconditionError, match=r"touches the wall \(0, 1\) at a breakpoint"):
        path_ordered_product(D, PathSpec.of([(1, 1), (1, 0), (-1, 0), (-1, 1)]), 3)


def test_segment_inside_wall_is_not_generic():
    w = Wall((1, 0, 0), e(T3, (1, 0, 0)), halfspaces=((0, 1, 0), (0, 0, 1)))
    D = GComplex(T3, [w])
    with pytest.raises(PreconditionError):
        path_ordered_product(D, PathSpec.of([(0, 2, -1), (0, -1, 2)]), 3)


def test_halfspace_bounded_wall():
    w = Wall((1, 1), e(A2, (1, 1)), halfspaces=((0, -1),))
    D = GComplex(A2, [w])
    miss = path_ordered_product(D, PathSpec.of([(1, 2), (-1, 1)]), 3)
    assert miss == QT.one(A2)
    hit = path_ordered_product(D, PathSpec.of([(2, -1), (-2, -1)]), 3)
    assert hit == exp_truncated(e(A2, (1, 1)), 3)
    with pytest.raises(PreconditionError):  # crossing at the cone boundary
        path_ordered_product(D, PathSpec.of([(1, 0), (-1, 0)]), 3)


# ------------------------------------------------------------ King stability


def test_king_a2_semistable_with_witness():
    verdict = king_semistable_exists(A2, (1, 1), (1, -1), 2)
    assert verdict.exists
    assert verdict.witness == {"a": ((1,),)}


def test_king_a2_opposite_side_fails():
    assert not king_semistable_exists(A2, (1, 1), (-1, 1), 2).exists


def test_king_simple_module():
    assert king_semistable_exists(A2, (1, 0), (0, 7), 2).exists
    assert king_semistable_exists(A2, (0, 1), (-3, 0), 3).exists


def test_king_errors():
    with pytest.raises(PreconditionError):
        king_semistable_exists(A2, (1, 1), (1, 1), 2)  # kappa(gamma) != 0
    with pytest.raises(PreconditionError):
        king_semistable_exists(A2, (0, 0), (1, -1), 2)  # zero dimension
    with pytest.raises(ScopeError):
        king_semistable_exists(A2, (3, 2), (2, -3), 2)  # total dim > 4
    with pytest.raises(ScopeError):
        king_semistable_exists(A2, (1, 1), (1, -1), 5)  # unsupported field


def test_hn_semistable_single_factor():
    factors = hn_filtration(A2, (1, 1), {"a": ((1,),)}, (1, -1), 2)
    assert factors == ((Fraction(0), (1, 1)),)


def test_hn_unstable_two_factors():
    factors = hn_filtration(A2, (1, 1), {"a": ((0,),)}, (1, -1), 2)
    assert factors == ((Fraction(1), (1, 0)), (Fraction(-1), (0, 1)))


def test_hn_passes_to_a_non_zero_quotient():
    """gamma = (2, 1), a = [1 0], kappa = (1, -2).  The sub (ker a, 0) has
    slope 1 and is the only one of positive slope.  The quotient is (1, 1)
    with a = [1]: its one proper sub (0, 1) has slope -2, so it is
    semistable of slope -1/2.  Reading the quotient's arrow off the wrong
    basis vector gives a = [0], a sub (1, 0) of slope 1, and slopes that
    do not decrease."""
    rep = {"a": ((1, 0),)}
    factors = hn_filtration(A2, (2, 1), rep, (1, -2), 2)
    assert factors == ((1, (1, 0)), (Fraction(-1, 2), (1, 1)))
    with pytest.raises(ScopeError):
        hn_filtration(A2, (2, 1), rep, (1, -2), 2, limits=Limits(max_total_dim=2))


def test_hn_single_factor_for_every_semistable_witness():
    for kappa in [(1, -1), (Fraction(1, 2), Fraction(-1, 2))]:
        verdict = king_semistable_exists(A2, (1, 1), kappa, 2)
        assert verdict.exists
        factors = hn_filtration(A2, (1, 1), verdict.witness, kappa, 2)
        assert len(factors) == 1


# ---------------------------------------------------------------- wall scan


AXES = [(1, 0), (0, 1), (-1, 0), (0, -1)]


def test_wall_scan_a2_frozen():
    scan = wall_support_scan(A2, (1, 1), AXES, 2)
    as_dict = {entry.gamma: entry for entry in scan}
    assert set(as_dict) == {(0, 1), (1, 0), (1, 1)}
    assert all(entry.normal == entry.gamma for entry in scan)
    # coordinate hyperplanes: every sample semistable
    assert [v for _, v in as_dict[(1, 0)].verdicts] == [True, True]
    assert [v for _, v in as_dict[(0, 1)].verdicts] == [True, True]
    # the (1,1) wall is the half where the second entry is non-positive
    assert as_dict[(1, 1)].verdicts == (
        ((Fraction(1, 2), Fraction(-1, 2)), True),
        ((Fraction(-1, 2), Fraction(1, 2)), False),
    )
    assert all(entry.is_wall for entry in scan)


def test_wall_scan_no_arrows_only_coordinate_walls():
    # With no arrows every representation splits into simples, so off the
    # coordinate hyperplanes some simple summand always destabilizes.
    Q = Quiver(("1", "2"), [], name="N")
    scan = wall_support_scan(Q, (1, 1), AXES, 2)
    walls = {entry.gamma for entry in scan if entry.is_wall}
    assert walls == {(1, 0), (0, 1)}


def test_wall_scan_excludes_zero():
    scan = wall_support_scan(A2, (1, 1), AXES, 2)
    assert (0, 0) not in {entry.gamma for entry in scan}


def test_wall_scan_export_lines():
    scan = wall_support_scan(A2, (1, 0), [(0, 1)], 2)
    assert wall_scan_lines(A2, scan) == [
        "gamma=1:1,2:0; normal=1:1,2:0; kappa=1:0,2:1; verdict=true"
    ]


def test_wall_scan_refuses_over_cap_before_searching(tmp_path, capsys, monkeypatch):
    """v0 => v1, v1 -> v3, v1 -> v2, v3 -> v0, v2 -> v0: max gamma
    (1,1,1,2) reaches total dimension 5, and the scan refuses before its
    first King query; in cap the export stays as it was."""
    f = tmp_path / "overcap.qp"
    f.write_text(
        "vertices: v0, v1, v2, v3\n"
        "arrows: a1: v0 -> v1; a2: v0 -> v1; a0: v1 -> v3; a3: v1 -> v2; "
        "b: v3 -> v0; c: v2 -> v0\n"
    )
    searches = []
    search = scattering._exists_once

    def counting(*args):
        searches.append(args)
        return search(*args)

    monkeypatch.setattr(scattering, "_exists_once", counting)
    over = ["walls", "--max-gamma", "v0=1,v1=1,v2=1,v3=2", "--field", "3", str(f)]
    assert main(over) == 4
    assert capsys.readouterr().err == "error: total dimension 5 exceeds the brute-force bound 4\n"
    assert searches == []
    # a scan that searches nothing refuses nothing: no samples, or a single
    # vertex, where every projection is zero
    assert all(not e.verdicts for e in wall_support_scan(A2, (9, 9), [], 3))
    point = Quiver(("1",), [], name="pt")
    assert all(not e.verdicts for e in wall_support_scan(point, (9,), [(1,), (-1,)], 3))
    assert searches == []
    assert main(["walls", "--max-gamma", "v0=1,v1=1,v2=1,v3=1", "--field", "3", str(f)]) == 0
    out = capsys.readouterr().out
    assert searches and len(out.splitlines()) == 120
    assert hashlib.sha256(out.encode()).hexdigest() == (
        "af14e5708bb28162a0e4519b2561e4417c26c766845bc847303207678b7072d0"
    )


# ------------------------------------------------------------- eta embedding


def test_eta_embed_frozen():
    k = eta_embed({"j": 1, "i0": -2}, "i0", "i+", "i-", 1)
    assert k == {"j": 1, "i+": -1, "i-": -1}
    k2 = eta_embed({"i0": 3}, "i0", "i+", "i-", 2)
    assert (k2["i+"], k2["i-"]) == (1, 2)


def test_eta_embed_rejects_kparam_minus_one():
    with pytest.raises(PreconditionError):
        eta_embed({"i0": 1}, "i0", "i+", "i-", -1)


def test_eta_embed_linear_and_additive_on_split():
    rng = random.Random(11)
    for _ in range(20):
        kh1 = {"j": Fraction(rng.randint(-4, 4)), "i0": Fraction(rng.randint(-4, 4))}
        kh2 = {"j": Fraction(rng.randint(-4, 4)), "i0": Fraction(rng.randint(-4, 4))}
        kp = Fraction(rng.randint(1, 4), rng.randint(1, 4))
        c = Fraction(rng.randint(-3, 3))
        combo = {v: kh1[v] + c * kh2[v] for v in kh1}
        img1 = eta_embed(kh1, "i0", "i+", "i-", kp)
        img2 = eta_embed(kh2, "i0", "i+", "i-", kp)
        img = eta_embed(combo, "i0", "i+", "i-", kp)
        assert img == {v: img1[v] + c * img2[v] for v in img}
        assert img["i+"] + img["i-"] == combo["i0"]


def test_lift_gamma_equal_sector_pairing():
    rng = random.Random(12)
    assert lift_gamma({"j": 2, "i0": 1}, "i0", "i+", "i-") == {"j": 2, "i+": 1, "i-": 1}
    for _ in range(20):
        kh = {"j": Fraction(rng.randint(-5, 5), 3), "i0": Fraction(rng.randint(-5, 5), 2)}
        gh = {"j": rng.randint(0, 3), "i0": rng.randint(0, 3)}
        kp = Fraction(rng.randint(1, 5), rng.randint(1, 5))
        km = eta_embed(kh, "i0", "i+", "i-", kp)
        gm = lift_gamma(gh, "i0", "i+", "i-")
        assert sum(km[v] * gm[v] for v in gm) == sum(kh[v] * gh[v] for v in gh)


ETA_Q = Quiver(("j", "i+", "i-"), [Arrow("b", "j", "i+"), Arrow("a0", "i+", "i-")], name="P3")


def test_eta_embedding_check_contraction_pair():
    report = eta_embedding_check(ETA_Q, "a0", (1, 1), AXES, p=2)
    assert isinstance(report, EtaReport)
    assert report.ok
    assert {r.gamma_hat for r in report.results} == {(0, 1), (1, 0), (1, 1)}
    assert all(r.kparam is not None for r in report.results)


def test_eta_embedding_check_f3_and_larger_hat():
    report = eta_embedding_check(ETA_Q, "a0", (2, 1), AXES, p=3)
    assert report.ok
    # (2,1) itself carries no semistable point, so only these walls lift
    assert {r.gamma_hat for r in report.results} == {(0, 1), (1, 0), (1, 1), (2, 0)}


def test_eta_embedding_check_lift_at_dimension_bound():
    # gamma_hat=(0,2) lifts to (0,2,2): total dimension exactly 4
    report = eta_embedding_check(ETA_Q, "a0", (0, 2), AXES, p=3)
    assert report.ok
    assert (0, 2) in {r.gamma_hat for r in report.results}


def test_eta_embedding_lift_beyond_bound_refused():
    # gamma_hat=(2,2) is a wall and lifts to total dimension 6
    with pytest.raises(ScopeError):
        eta_embedding_check(ETA_Q, "a0", (2, 2), AXES, p=2)
    report = eta_embedding_check(ETA_Q, "a0", (2, 2), AXES, p=2, limits=Limits(max_total_dim=6))
    assert (2, 2) in {r.gamma_hat for r in report.results}


def test_eta_embedding_check_searches_the_given_fields():
    with pytest.raises(ScopeError, match="for p in \\(2, 3\\)"):
        eta_embedding_check(ETA_Q, "a0", (1, 1), AXES, p=5)
    report = eta_embedding_check(ETA_Q, "a0", (1, 1), AXES, p=5, limits=Limits(fields=(5,)))
    assert report.ok and len(report.results) == 3


# ------------------------------------------------- King search against its oracle
#
# The reference below is the exhaustive search: every representation from an
# eager product of all matrices, every subspace tuple tested for stability by
# rank over GF(p), and Fraction kappa on every subrepresentation.
# It shares ``linalg`` with the search; tests/test_linalg.py checks ``linalg``
# against sympy.


def reference_matrices(rows, cols, p):
    if rows == 0 or cols == 0:
        return [tuple(() for _ in range(rows))]
    out = []
    for flat in itertools.product(range(p), repeat=rows * cols):
        out.append(tuple(flat[r * cols : (r + 1) * cols] for r in range(rows)))
    return out


def reference_representations(Q, gamma, p):
    index = {v: i for i, v in enumerate(Q.vertices)}
    arrow_mats = [
        reference_matrices(gamma[index[a.target]], gamma[index[a.source]], p)
        for a in Q.arrows
    ]
    for mats in itertools.product(*arrow_mats):
        yield {a.id: M for a, M in zip(Q.arrows, mats)}


def reference_subrepresentations(Q, gamma, rep, p):
    F = GF(p)
    index = {v: i for i, v in enumerate(Q.vertices)}
    per_vertex = [list(itertools.chain.from_iterable(_subspaces(g, p))) for g in gamma]
    for choice in itertools.product(*per_vertex):
        stable = True
        for a in Q.arrows:
            source, target = choice[index[a.source]][0], choice[index[a.target]][0]
            M = rep[a.id]
            images = [tuple(sum(x * y for x, y in zip(row, u)) % p for row in M) for u in source]
            if images and len(rref(F, list(target) + images)[0]) != len(target):
                stable = False
        if stable:
            yield choice


def reference_king(Q, gamma, kappa, p, *, limits=LIMITS):
    gamma = scattering._gamma_tuple(Q, gamma)
    kappa = tuple(Fraction(k) for k in scattering._by_vertices(Q, kappa))
    value = sum(k * g for k, g in zip(kappa, gamma))
    if value != 0:
        raise PreconditionError(f"kappa(gamma) = {value} != 0")
    scattering._check_enumeration_bounds(Q, gamma, p, limits)
    for rep in reference_representations(Q, gamma, p):
        if all(
            sum(k * len(rows) for k, (rows, _) in zip(kappa, choice)) <= 0
            for choice in reference_subrepresentations(Q, gamma, rep, p)
        ):
            return KingVerdict(True, rep)
    return KingVerdict(False, None)


def random_king_quiver(rng, max_vertices=3, max_groups=3):
    """Random quiver whose arrows come alone, as parallel pairs or as
    2-cycles (a pair of loops when source and target coincide)."""
    vs = [f"v{k}" for k in range(rng.randint(1, max_vertices))]
    arrows = []
    for _ in range(rng.randint(1, max_groups)):
        s, t = rng.choice(vs), rng.choice(vs)
        group = rng.choice(([(s, t)], [(s, t), (s, t)], [(s, t), (t, s)]))
        for s2, t2 in group:
            arrows.append(Arrow(f"a{len(arrows)}", s2, t2))
    return Quiver(vs, arrows, name="K")


def reference_work(Q, gamma, p):
    """Representations times subspace tuples: the exhaustive search's size."""
    index = {v: i for i, v in enumerate(Q.vertices)}
    entries = sum(gamma[index[a.source]] * gamma[index[a.target]] for a in Q.arrows)
    tuples = 1
    for g in gamma:
        tuples *= sum(len(group) for group in _subspaces(g, p))
    return p**entries * tuples


def random_projection(rng, gamma):
    """A random rational point projected onto gamma-perp."""
    s = [Fraction(rng.randint(-4, 4), rng.randint(1, 3)) for _ in gamma]
    coef = sum(x * g for x, g in zip(s, gamma)) / sum(g * g for g in gamma)
    return tuple(x - coef * g for x, g in zip(s, gamma))


def king_cases(seed, count):
    rng = random.Random(seed)
    cases = []
    while len(cases) < count:
        Q = random_king_quiver(rng)
        gamma = tuple(rng.randint(0, 2) for _ in Q.vertices)
        p = rng.choice((2, 3))
        if not 2 <= sum(gamma) <= 4 or reference_work(Q, gamma, p) > 20000:
            continue
        cases.append((Q, gamma, random_projection(rng, gamma), p))
    return cases


def outcome(fn, *args, **kwargs):
    try:
        return ("value", fn(*args, **kwargs))
    except (PreconditionError, ScopeError) as exc:
        return (type(exc).__name__, str(exc))


def test_king_matches_exhaustive_reference():
    cases = king_cases(seed=31, count=160)
    assert any(any(k.denominator > 1 for k in kappa) for _, _, kappa, _ in cases)
    assert any(a.source == a.target for Q, *_ in cases for a in Q.arrows)
    verdicts = []
    witnesses_past_first = 0
    for Q, gamma, kappa, p in cases:
        got = king_semistable_exists(Q, gamma, kappa, p)
        assert got == reference_king(Q, gamma, kappa, p), (Q.arrows, gamma, kappa, p)
        verdicts.append(got.exists)
        first = next(reference_representations(Q, gamma, p))
        witnesses_past_first += got.exists and got.witness != first
    assert any(verdicts) and not all(verdicts)
    assert witnesses_past_first >= 10


def test_king_errors_match_reference():
    K = Quiver(("1", "2"), [Arrow("a", "1", "2"), Arrow("b", "1", "2")], name="K2")
    limits = Limits(max_enumeration=1 << 7)
    cases = [
        ((1, 1), (1, 1), 2, "PreconditionError"),  # kappa(gamma) != 0 comes first,
        ((5, 0), (1, 1), 7, "PreconditionError"),  # before the field and the caps
        ((2, 2), (1, -1), 7, "ScopeError"),  # the field comes before the caps
        ((0, 0), (1, 1), 2, "PreconditionError"),
        ((3, 2), (2, -3), 2, "ScopeError"),  # total dimension 5
        ((2, 2), (1, -1), 2, "ScopeError"),  # 2^8 representations
        ({"1": 1, "2": 1}, {"1": 1, "2": -1}, 3, "value"),
    ]
    for gamma, kappa, p, kind in cases:
        got = outcome(king_semistable_exists, K, gamma, kappa, p, limits=limits)
        assert got[0] == kind
        assert got == outcome(reference_king, K, gamma, kappa, p, limits=limits)


def test_subspaces_grouped_by_rank():
    def gaussian_binomial(n, r, p):
        num = den = 1
        for i in range(r):
            num *= p ** (n - i) - 1
            den *= p ** (i + 1) - 1
        return num // den

    for p in (2, 3):
        for n in range(5):
            groups = _subspaces(n, p)
            assert len(groups) == n + 1
            for r, group in enumerate(groups):
                assert len(group) == gaussian_binomial(n, r, p)
                assert len(set(group)) == len(group)
                for rows, pivots in group:
                    assert len(rows) == len(pivots) == r
                    assert rref(GF(p), rows) == (rows, pivots)


def test_all_representations_order_matches_eager_product():
    arrows = [
        Arrow("l", "1", "1"),
        Arrow("a", "1", "2"),
        Arrow("b", "1", "2"),
        Arrow("c", "2", "1"),
        Arrow("z", "3", "1"),
        Arrow("w", "1", "3"),
    ]
    Q = Quiver(("1", "2", "3"), arrows, name="mixed")
    # zero entries give arrows with no rows, no columns, or neither
    for gamma, p in [((1, 1, 0), 2), ((2, 1, 0), 2), ((1, 0, 0), 3), ((0, 0, 0), 2), ((0, 2, 0), 3)]:
        fast = list(scattering._all_representations(scattering._arrow_slots(Q), gamma, p))
        assert fast == list(reference_representations(Q, gamma, p))
    assert list(scattering._all_representations((), (2,), 3)) == [{}]


def unmemoized_reference(memo, Q, gamma, direction, p):
    """Stand-in for the memoized search: runs the reference on the integer
    direction every time (test_wall_scan_matches_unmemoized_reference
    checks each reported kappa against the reference too)."""
    return reference_king(Q, gamma, direction, p).exists


def rational_samples(rng, n, count):
    return [
        tuple(Fraction(rng.randint(-3, 3), rng.choice((1, 1, 2, 3))) for _ in range(n))
        for _ in range(count)
    ]


@contextlib.contextmanager
def on_reference(monkeypatch):
    """Run the scans and the CLI with the search swapped for the reference."""
    with monkeypatch.context() as m:
        m.setattr(scattering, "_exists_once", unmemoized_reference)
        m.setattr(scattering, "king_semistable_exists", reference_king)
        yield


def same_on_reference(monkeypatch, fn, *args):
    fast = outcome(fn, *args)
    with on_reference(monkeypatch):
        assert outcome(fn, *args) == fast, args
    return fast


def test_wall_scan_matches_unmemoized_reference(monkeypatch):
    rng = random.Random(47)
    verdicts = []
    for _ in range(25):
        while True:
            Q = random_king_quiver(rng)
            p = rng.choice((2, 3))
            maxgamma = tuple(rng.randint(0, 2) for _ in Q.vertices)
            if any(maxgamma) and reference_work(Q, maxgamma, p) <= 3000:
                break
        samples = rational_samples(rng, len(Q.vertices), rng.randint(2, 5))
        samples.append(samples[0])  # a repeated sample is dropped
        kind, scan = same_on_reference(monkeypatch, wall_support_scan, Q, maxgamma, samples, p)
        assert kind == "value"
        for entry in scan:
            for kappa, v in entry.verdicts:
                assert v == reference_king(Q, entry.gamma, kappa, p).exists
                verdicts.append(v)
    assert True in verdicts and False in verdicts


# v0 => v1 (a1, a2), a0: v1 -> v3, a3: v1 -> v2; contracting a0, no value of
# the default grid lifts gamma_hat = (0, 1, 1)
ETA_GRID_GAP = Quiver(
    ("v0", "v1", "v2", "v3"),
    [Arrow("a1", "v0", "v1"), Arrow("a2", "v0", "v1"),
     Arrow("a0", "v1", "v3"), Arrow("a3", "v1", "v2")],
    name="gap",
)


def test_eta_check_matches_unmemoized_reference(monkeypatch):
    fixed = [
        (ETA_Q, "a0", (1, 1), AXES, 2),
        (ETA_Q, "a0", (2, 2), AXES, 2),  # refused: a lift beyond the dimension bound
        (ETA_GRID_GAP, "a0", (0, 1, 1), [(1, 0, 0), (0, 1, 0), (0, 0, -1)], 3),
    ]
    reports = [same_on_reference(monkeypatch, eta_embedding_check, *case) for case in fixed]
    assert reports[1][0] == "ScopeError" and not reports[2][1].ok
    rng = random.Random(53)
    results = []
    while len(results) < 40:
        Q = random_king_quiver(rng)
        a0 = next((a for a in Q.arrows if a.source != a.target), None)
        if a0 is None:
            continue
        p = rng.choice((2, 3))
        maxhat = {v: rng.randint(0, 2) for v in Q.vertices if v != a0.target}
        lifted_top = tuple(maxhat.get(v, maxhat[a0.source]) for v in Q.vertices)
        if not any(maxhat.values()) or reference_work(Q, lifted_top, p) > 3000:
            continue
        samples = rational_samples(rng, len(maxhat), 3)
        kind, report = same_on_reference(
            monkeypatch, eta_embedding_check, Q, a0.id, tuple(maxhat.values()), samples, p
        )
        assert kind == "value"
        results += report.results


def test_cli_wall_and_eta_bytes_match_reference(tmp_path, capsys, monkeypatch):
    f = tmp_path / "gap.qp"
    f.write_text(
        "vertices: v0, v1, v2, v3\n"
        "arrows: a1: v0 -> v1; a2: v0 -> v1; a0: v1 -> v3; a3: v1 -> v2\n"
    )
    commands = []
    for field in ("2", "3"):
        commands += [
            ["walls", "--max-gamma", "v0=1,v1=1,v2=1,v3=1", "--field", field, str(f)],
            ["eta-check", "--arrow", "a0", "--max-gamma", "v0=1,v1=1,v2=1", "--field", field, str(f)],
            ["eta-check", "--arrow", "a0", "--max-gamma", "v0=0,v1=1,v2=1", "--field", field, str(f)],
        ]
    for argv in commands:
        fast = main(argv), capsys.readouterr().out
        with on_reference(monkeypatch):
            assert (main(argv), capsys.readouterr().out) == fast, argv
    # the CLI samples only the axes and the diagonals; the export of rational
    # samples goes through the same lines
    samples = [(Fraction(1, 2), Fraction(-2, 3), 1, 0), (Fraction(-1, 3), 0, Fraction(5, 2), 1)]
    for p in (2, 3):
        fast = wall_scan_lines(ETA_GRID_GAP, wall_support_scan(ETA_GRID_GAP, (1, 1, 1, 1), samples, p))
        with on_reference(monkeypatch):
            slow = wall_support_scan(ETA_GRID_GAP, (1, 1, 1, 1), samples, p)
        assert wall_scan_lines(ETA_GRID_GAP, slow) == fast


# ------------------------------------------- integer directions and kernel


def test_eta_lift_is_a_positive_multiple_of_eta_embed():
    """The integer lift of an integer multiple of kappa_hat is a positive
    multiple of eta_embed(kappa_hat), for kparam on both sides of -1."""
    rng = random.Random(61)
    Q = Quiver(("u", "i+", "w", "i-"), [Arrow("a0", "i+", "i-")], name="L")
    hat = ("u", "i+", "w")  # the contracted vertices; i+ is the merged one
    kparams = [0, Fraction(1, 4), Fraction(-1, 4), Fraction(1, 3), 2, Fraction(-1, 2), -2, -3]
    checked = 0
    for _ in range(60):
        kappa_hat = {v: Fraction(rng.randint(-4, 4), rng.randint(1, 4)) for v in hat}
        _, direction = scattering._clear_denominators(tuple(kappa_hat.values()))
        for kparam in kparams:
            lift = scattering._eta_lift(Q.vertices, hat, "i+", "i+", "i-", kparam)
            got = tuple(direction[i] * f for i, f in lift)
            image = eta_embed(kappa_hat, "i+", "i+", "i-", kparam)
            want = scattering._clear_denominators(tuple(image[v] for v in Q.vertices))[1]
            ratios = {Fraction(g, w) for g, w in zip(got, want) if w}
            assert all(g == 0 for g, w in zip(got, want) if not w), (kappa_hat, kparam)
            assert len(ratios) <= 1 and all(r > 0 for r in ratios), (kappa_hat, kparam)
            checked += bool(ratios)
    assert checked > 400
    for lift in (
        lambda: scattering._eta_lift(Q.vertices, hat, "i+", "i+", "i-", -1),
        lambda: eta_embed({"u": 1, "i+": 1, "w": 1}, "i+", "i+", "i-", Fraction(-2, 2)),
    ):
        with pytest.raises(PreconditionError, match="kparam = -1 divides by zero"):
            lift()


def reference_eta_check(Q, a0_id, maxgamma_hat, samples, p, grid):
    """eta_embedding_check on Fraction stability vectors: every lifted
    point goes through eta_embed and the exhaustive reference."""
    a0 = Q.arrow(a0_id)
    ip, im = a0.source, a0.target
    Qhat, _, _ = scattering.contract_quiver(Q, a0_id)
    results = []
    for e in wall_support_scan(Qhat, maxgamma_hat, samples, p):
        true_samples = [kappa for kappa, v in e.verdicts if v]
        if not true_samples:
            continue
        gamma = lift_gamma(dict(zip(Qhat.vertices, e.gamma)), ip, ip, im)
        gamma_t = tuple(gamma[v] for v in Q.vertices)
        found = None
        for kparam in grid:
            lifted = [
                eta_embed(dict(zip(Qhat.vertices, k)), ip, ip, im, kparam) for k in true_samples
            ]
            if all(
                reference_king(Q, gamma_t, [k[v] for v in Q.vertices], p).exists for k in lifted
            ):
                found = kparam
                break
        results.append((e.gamma, found, found is not None))
    return EtaReport(all(ok for *_, ok in results), tuple(results))


def test_eta_check_matches_eta_embed_reference():
    """Grids with negative values, zero and -1: the integer lift gives the
    reference's results, and -1 raises when the reference's eta_embed
    would, not before."""
    gap_samples = [(1, 0, 0), (0, 1, 0), (0, 0, -1), (-1, -1, 1)]
    grids = [
        (0,),
        (Fraction(-1, 4), Fraction(1, 3), -2, Fraction(-1, 2), -3, 2),
        (-3, -1, 0),  # -1 is reached on a wall that -3 does not lift
        (0, -1),  # 0 lifts every wall, so -1 is never reached
        DEFAULT_KPARAM_GRID,
    ]
    outcomes = []
    for grid in grids:
        for p in (2, 3):
            case = (ETA_GRID_GAP, "a0", (1, 1, 1), gap_samples, p)
            got = outcome(eta_embedding_check, *case, grid=grid)
            want = outcome(reference_eta_check, *case, grid)
            assert got[0] == want[0]
            if got[0] == "value":
                assert got[1].ok == want[1].ok
                assert [tuple(r) for r in got[1].results] == list(want[1].results)
            else:
                assert got == want
            outcomes.append(got[0])
    assert "PreconditionError" in outcomes and "value" in outcomes


def random_representation(rng, Q, gamma, p):
    index = {v: i for i, v in enumerate(Q.vertices)}
    return {
        a.id: tuple(
            tuple(rng.randrange(p) for _ in range(gamma[index[a.source]]))
            for _ in range(gamma[index[a.target]])
        )
        for a in Q.arrows
    }


def reference_hn(Q, gamma, rep, kappa, p):
    factors = []
    while sum(gamma):
        best = None
        for choice in reference_subrepresentations(Q, gamma, rep, p):
            dims = tuple(len(rows) for rows, _ in choice)
            if sum(dims):
                key = (sum(Fraction(k) * d for k, d in zip(kappa, dims)) / sum(dims), sum(dims))
                if best is None or key > best[0]:
                    best = (key, dims, choice)
        (slope, _), dims, choice = best
        factors.append((slope, dims))
        if dims == gamma:
            break
        gamma, rep = scattering._quotient_rep(Q, gamma, rep, choice, p)
    return tuple(factors)


def test_stable_tuples_match_reference_subrepresentations():
    """The one kernel, as the King search runs it (one dimension vector at
    a time, the arrows that can fail, one image dict per representation)
    and as hn_filtration runs it (every rank, in product order)."""
    rng = random.Random(67)
    limits = Limits(fields=(2, 3, 5))
    cases = 0
    parallel = 0
    while cases < 90:
        Q = random_king_quiver(rng)
        p = (2, 3, 5)[cases % 3]
        gamma = tuple(rng.randint(0, 2) for _ in Q.vertices)
        if not 1 <= sum(gamma) <= 4 or reference_work(Q, gamma, p) > 4000:
            continue
        cases += 1
        parallel += len({(a.source, a.target) for a in Q.arrows}) < len(Q.arrows)
        slots = scattering._arrow_slots(Q)
        everything = [tuple(itertools.chain.from_iterable(_subspaces(g, p))) for g in gamma]
        for _ in range(3):
            rep = random_representation(rng, Q, gamma, p)
            want = list(reference_subrepresentations(Q, gamma, rep, p))
            every_arrow = scattering._levels(len(gamma), slots)
            got = list(scattering._stable_tuples(every_arrow, rep, everything, p))
            assert got == want, (Q.arrows, gamma, rep, p)
            realized = {tuple(len(rows) for rows, _ in choice) for choice in want}
            images = {}
            for d in scattering._dims_below(gamma):
                table = scattering._search_table(slots, gamma, d, p)
                if table is None:
                    assert d in realized
                    continue
                candidates, levels = table
                found = next(scattering._stable_tuples(levels, rep, candidates, p, images), None)
                assert (found is not None) == (d in realized), (Q.arrows, gamma, rep, d)
            kappa = random_projection(rng, gamma)
            assert hn_filtration(Q, gamma, rep, kappa, p, limits=limits) == reference_hn(
                Q, gamma, rep, kappa, p
            )
        if any(gamma) and reference_work(Q, gamma, p) <= 1500:
            kappa = random_projection(rng, gamma)
            assert king_semistable_exists(Q, gamma, kappa, p, limits=limits) == reference_king(
                Q, gamma, kappa, p, limits=limits
            )
    assert parallel >= 10


def test_wall_scan_drops_repeated_projections_of_rational_samples():
    """Samples with different denominators that project to one kappa give
    one verdict; distinct kappas that are multiples of each other stay."""
    samples = [(1, 0), (2, 1), (Fraction(1, 2), Fraction(-1, 2)), (Fraction(3, 2), Fraction(1, 2))]
    scan = {e.gamma: e.verdicts for e in wall_support_scan(A2, (1, 1), samples, 2)}
    assert scan[(1, 1)] == (((Fraction(1, 2), Fraction(-1, 2)), True),)
    assert [k for k, _ in scan[(1, 0)]] == [(0, 1), (0, Fraction(-1, 2)), (0, Fraction(1, 2))]


def test_king_refuses_non_integral_dimension_vectors(tmp_path, capsys):
    with pytest.raises(PreconditionError, match="not an integer"):
        king_semistable_exists(A2, (1.5, 1), (1, -1), 2)
    with pytest.raises(PreconditionError, match="not an integer"):
        wall_support_scan(A2, (Fraction(3, 2), 1), AXES, 2)
    for gamma in [(Fraction(2, 2), 1), {"1": 1, "2": Fraction(1)}, (True, 1)]:
        assert king_semistable_exists(A2, gamma, (1, -1), 2).exists
    f = tmp_path / "a2.qp"
    f.write_text("vertices: 1, 2\narrows: a: 1 -> 2\n")
    assert main(["walls", "--max-gamma", "1=1.5,2=1", str(f)]) == 3
    assert capsys.readouterr().out == ""


def test_bad_stability_vectors_raise_precondition_errors():
    for kappa in [(float("nan"), 1), ("x", 1), (float("inf"), -1), (None, 1)]:
        with pytest.raises(PreconditionError, match="not rational") as info:
            king_semistable_exists(A2, (1, 1), kappa, 2)
        assert str(kappa) in str(info.value)
        with pytest.raises(PreconditionError, match="not rational"):
            wall_support_scan(A2, (1, 1), [(1, 0), kappa], 2)
        with pytest.raises(PreconditionError, match="not rational"):
            hn_filtration(A2, (1, 1), {"a": ((1,),)}, kappa, 2)


def test_hn_filtration_validates_the_representation_before_searching(monkeypatch):
    """Malformed matrices are refused by ``contraction.Representation``
    before any search; integer entries outside range(p) are read mod p."""

    def no_search(*args, **kwargs):
        raise AssertionError("searched")

    monkeypatch.setattr(scattering, "_stable_tuples", no_search)
    bad = [
        ({}, "no matrix for arrow a"),
        ({"a": ((1,),), "b": ((1,),)}, r"arrows the quiver does not have: \['b'\]"),
        ({"a": ((1, 0),)}, "matrix for a is not 1x1"),
        ({"a": ()}, "matrix for a is not 1x1"),
        ({"a": 5}, "matrix for a is not rows of rationals"),
        ([("a", ((1,),))], "must be a dict, got list"),
    ]
    for rep, message in bad:
        with pytest.raises(PreconditionError, match=message):
            hn_filtration(A2, (1, 1), rep, (1, -1), 2)
    monkeypatch.undo()
    for entry, reduced in ((5, 1), (-1, 1), (Fraction(1), 1), (2, 0)):
        got = hn_filtration(A2, (1, 1), {"a": ((entry,),)}, (1, -1), 2)
        assert got == hn_filtration(A2, (1, 1), {"a": ((reduced,),)}, (1, -1), 2)
    assert hn_filtration(A2, (1, 1), {"a": [[2]]}, (1, -1), 3) == ((Fraction(0), (1, 1)),)


# ------------------------------------------- queries decided by the search table


def test_exists_once_decides_settled_queries_without_searching(monkeypatch):
    """Random in-cap queries over F_2 and F_3 on quivers with loops,
    parallel arrows and 2-cycles, each asked of an empty verdict table: the
    verdict equals the witness API's, and only queries with searches left
    enumerate.  Catches the two settled verdicts swapped and ``searches is
    None`` read as ``not searches`` (an empty table would then be false)."""
    rng = random.Random(71)
    searched = []
    search = scattering._first_semistable

    def counting(*args):
        searched.append(args)
        return search(*args)

    classes = {"none": 0, "empty": 0, "searched": 0}
    loops = parallel = cycles = 0
    while sum(classes.values()) < 300:
        Q = random_king_quiver(rng)
        gamma = tuple(rng.randint(0, 2) for _ in Q.vertices)
        p = rng.choice((2, 3))
        if not 1 <= sum(gamma) <= 4 or reference_work(Q, gamma, p) > 20000:
            continue
        kappa = random_projection(rng, gamma)
        direction = scattering._clear_denominators(kappa)[1]
        mask = scattering._mask(gamma, direction)
        searches = scattering._searches(scattering._arrow_slots(Q), gamma, mask, p)
        kind = "none" if searches is None else ("searched" if searches else "empty")
        classes[kind] += 1
        pairs = [(a.source, a.target) for a in Q.arrows]
        loops += any(s == t for s, t in pairs)
        parallel += len(set(pairs)) < len(pairs)
        cycles += any(s != t and (t, s) in pairs for s, t in pairs)
        want = king_semistable_exists(Q, gamma, kappa, p).exists
        scattering._support_verdict.cache_clear()
        with monkeypatch.context() as m:
            m.setattr(scattering, "_first_semistable", counting)
            got = scattering._exists_once({}, Q, gamma, direction, p)
        assert got == want, (Q.arrows, gamma, kappa, p)
        assert len(searched) == classes["searched"], kind
    assert min(classes.values()) >= 30, classes
    assert min(loops, parallel, cycles) >= 10


def quivers_sharing_a_support(rng):
    """Two quivers on the same support subquiver (vertices s0, s1, ... in
    that order, with loops, parallel arrows and 2-cycles) and ranks 1-2 on
    it; s0 has rank 2 and a loop.  Each adds zero-rank vertices z0, z1, ...
    at its own places in the vertex order, each carrying a loop and an
    arrow to or from another vertex; the two name and order their arrows
    differently."""
    support = [f"s{k}" for k in range(rng.randint(2, 3))]
    inner = [(support[0], support[0])]
    for _ in range(rng.randint(1, 3)):
        s, t = rng.choice(support), rng.choice(support)
        inner += rng.choice(([(s, t)], [(s, t), (s, t)], [(s, t), (t, s)]))
    ranks = {v: rng.randint(1, 2) for v in support}
    ranks[support[0]] = 2
    quivers = []
    for tag in "AB":
        vertices = list(support)
        zeros = [f"z{k}" for k in range(rng.randint(1, 2))]
        for z in zeros:
            vertices.insert(rng.randint(0, len(vertices)), z)
        outer = []
        for z in zeros:
            v = rng.choice(support + zeros)
            outer += [(z, z), rng.choice(((z, v), (v, z)))]
        pairs = inner + outer
        rng.shuffle(pairs)
        ids = rng.sample(range(100), len(pairs))
        arrows = [Arrow(f"{tag}{k}", s, t) for k, (s, t) in zip(ids, pairs)]
        quivers.append(Quiver(vertices, arrows, name=tag))
    return quivers, ranks


def test_verdict_table_matches_reference():
    """Verdicts read from the process-wide table equal the exhaustive
    reference's, on pairs of quivers that share a support subquiver but
    differ in arrow ids, arrow order, zero-rank vertices and the loops and
    arrows at them, and the kappa entries there.  Each query of the pair's
    second quiver is asked after the same query of the first, so it reads
    the first one's verdict.  A query over F_3 after the same one over F_2
    searches again.  Catches loops at support vertices dropped from the
    key, p left out of it, and the destabilizing mask replaced by gamma."""
    rng = random.Random(73)
    table = scattering._support_verdict
    hits_before = table.cache_info().hits
    verdicts = []
    pairs = 0
    while pairs < 60:
        (QA, QB), ranks = quivers_sharing_a_support(rng)
        p = rng.choice((2, 3))
        gammas = [tuple(ranks.get(v, 0) for v in Q.vertices) for Q in (QA, QB)]
        if sum(ranks.values()) > 4 or reference_work(QA, gammas[0], p) > 1500:
            continue
        pairs += 1
        for _ in range(3):
            on_support = dict(zip(ranks, random_projection(rng, tuple(ranks.values()))))
            for Q, gamma in zip((QA, QB), gammas):
                kappa = tuple(on_support.get(v, rng.randint(-3, 3)) for v in Q.vertices)
                direction = scattering._clear_denominators(kappa)[1]
                got = scattering._exists_once({}, Q, gamma, direction, p)
                assert got == reference_king(Q, gamma, kappa, p).exists, (Q.arrows, gamma, kappa, p)
                verdicts.append(got)
    assert True in verdicts and False in verdicts
    assert table.cache_info().hits - hits_before >= 60

    searched = []
    search = scattering._first_semistable

    def counting(slots, gamma, searches, p):
        searched.append(p)
        return search(slots, gamma, searches, p)

    K2 = Quiver(("1", "2"), [Arrow("a", "1", "2"), Arrow("b", "1", "2")], name="K2")
    table.cache_clear()
    with pytest.MonkeyPatch.context() as m:
        m.setattr(scattering, "_first_semistable", counting)
        for p in (2, 3, 2, 3):
            assert scattering._exists_once({}, K2, (1, 1), (1, -1), p)
    assert searched == [2, 3]


def test_one_vertex_scan_verdicts_match_reference():
    """A scanned gamma with one non-zero entry is true at every projection,
    decided in the scan itself: each such verdict equals the exhaustive
    reference's, also with loops at that vertex and at zero-rank ones."""
    rng = random.Random(79)
    checked = 0
    while checked < 150:
        Q = random_king_quiver(rng)
        p = rng.choice((2, 3))
        maxgamma = tuple(rng.randint(0, 2) for _ in Q.vertices)
        if not any(maxgamma) or reference_work(Q, maxgamma, p) > 3000:
            continue
        samples = rational_samples(rng, len(Q.vertices), 3)
        for entry in wall_support_scan(Q, maxgamma, samples, p):
            if sum(map(bool, entry.gamma)) != 1:
                continue
            for kappa, verdict in entry.verdicts:
                assert verdict and reference_king(Q, entry.gamma, kappa, p).exists
                checked += 1


def test_eta_check_checks_the_caps_of_each_lift():
    """On i+ -> j (b), i+ -> i- (a0), contracting a0, gamma_hat = (1, 1)
    is a wall within the caps and lifts to (1, 1, 1), beyond them.  Every
    lifted query needs no search: the sink i- has a positive entry at each
    grid value.  The check still refuses, with the search's message, before
    the first of them."""
    Q = Quiver(("j", "i+", "i-"), [Arrow("b", "i+", "j"), Arrow("a0", "i+", "i-")], name="fork")
    limits = Limits(max_total_dim=2)
    Qhat = scattering.contract_quiver(Q, "a0")[0]
    top = {e.gamma: e for e in wall_support_scan(Qhat, (1, 1), AXES, 2, limits=limits)}[(1, 1)]
    true_samples = [scattering._clear_denominators(k)[1] for k, v in top.verdicts if v]
    assert true_samples
    slots = scattering._arrow_slots(Q)
    lifted_top = (1, 1, 1)
    for kparam in DEFAULT_KPARAM_GRID:
        lift = scattering._eta_lift(Q.vertices, Qhat.vertices, "i+", "i+", "i-", kparam)
        for d in true_samples:
            direction = tuple(d[i] * f for i, f in lift)
            mask = scattering._mask(lifted_top, direction)
            assert scattering._searches(slots, lifted_top, mask, 2) is None
    got = outcome(eta_embedding_check, Q, "a0", (1, 1), AXES, 2, limits=limits)
    assert got == ("ScopeError", "total dimension 3 exceeds the brute-force bound 2")
    report = eta_embedding_check(Q, "a0", (1, 1), AXES, 2, limits=Limits(max_total_dim=3))
    assert [(r.gamma_hat, r.ok) for r in report.results][-1] == ((1, 1), False)


def test_lift_gamma_refuses_entries_that_are_not_dimensions():
    for gamma_hat, message in [
        ({"j": 1.5, "i0": 1}, "not an integer"),
        ({"j": 1, "i0": Fraction(1, 2)}, "not an integer"),
        ({"j": "1", "i0": 1}, "not an integer"),
        ({"j": None, "i0": 1}, "not an integer"),
        ({"j": -1, "i0": 1}, "negative entry"),
        ({"j": 1, "i0": -2}, "negative entry"),
        ({"j": 1}, "no entry for the merged vertex"),
    ]:
        with pytest.raises(PreconditionError, match=message):
            lift_gamma(gamma_hat, "i0", "i+", "i-")
    got = lift_gamma({"j": Fraction(4, 2), "i0": 1.0}, "i0", "i+", "i-")
    assert got == {"j": 2, "i+": 1, "i-": 1}
    assert all(type(x) is int for x in got.values())


def test_hn_filtration_bounds_the_subspace_tuples_it_searches():
    """hn_filtration searches one representation, so its cap is the number
    of subspace tuples, not of representations: K5 at (2, 2) over F_2 has
    2^20 representations but 5 * 5 subspace tuples."""
    for p in (2, 3):
        for n in range(6):
            count = sum(len(group) for group in _subspaces(n, p))
            assert scattering._subspace_count(n, p) == count
    K5 = Quiver(("1", "2"), [Arrow(f"a{k}", "1", "2") for k in range(5)], name="K5")
    rep = {a.id: ((1, 0), (0, 1)) for a in K5.arrows}
    assert hn_filtration(K5, (2, 2), rep, (1, -1), 2) == ((0, (2, 2)),)
    with pytest.raises(ScopeError) as info:
        hn_filtration(K5, (2, 2), rep, (1, -1), 2, limits=Limits(max_enumeration=24))
    assert str(info.value) == "25 subspace tuples exceed the enumeration bound 24"
    with pytest.raises(ScopeError, match="total dimension 5 exceeds the brute-force bound 4"):
        hn_filtration(K5, (3, 2), {a.id: ((1, 0, 0), (0, 1, 0)) for a in K5.arrows}, (2, -3), 2)
    with pytest.raises(ScopeError, match="for p in"):
        hn_filtration(K5, (2, 2), rep, (1, -1), 5)
