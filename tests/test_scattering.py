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
    Cone,
    EtaReport,
    GComplex,
    KingVerdict,
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
    truncate,
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
    assert x.terms == {(1, 1): {2: 1}}  # one full power of the weight symbol


def test_mul_opposite_order_no_shift():
    x = quantum_torus_mul(e(A2, (0, 1)), e(A2, (1, 0)), 3)
    assert x.terms == {(1, 1): {0: 1}}


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
        x = truncate(random_element(rng, A2, max_entry=2, terms=4), 4)
        assert log_truncated(exp_truncated(x, 4), 4) == x


# ------------------------------------------------------------ walls & paths


def test_cone_membership_and_validation():
    c = Cone(rays=((1, 0),), inequalities=((1, 0), (0, 1)))
    assert c.contains((2, 3))
    assert not c.contains((-1, 0))
    assert c.validate()
    with pytest.raises(PreconditionError):
        Cone(rays=((-1, 0),), inequalities=((1, 0),)).validate()


def test_gcomplex_requires_orthogonal_support():
    with pytest.raises(PreconditionError):
        GComplex(A2, [Wall((1, 0), e(A2, (0, 1)))])
    with pytest.raises(PreconditionError):
        GComplex(A2, [Wall((0, 0), e(A2, (1, 0)))])
    # parallel support, any positive multiple, is fine
    GComplex(A2, [Wall((1, 0), e(A2, (2, 0)) + e(A2, (1, 0)))])


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
    assert F.terms[(1, 1)] == {0: Fraction(1), 2: Fraction(-1)}


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
    first King search; in cap the export stays as it was."""
    f = tmp_path / "overcap.qp"
    f.write_text(
        "vertices: v0, v1, v2, v3\n"
        "arrows: a1: v0 -> v1; a2: v0 -> v1; a0: v1 -> v3; a3: v1 -> v2; "
        "b: v3 -> v0; c: v2 -> v0\n"
    )
    searches = []
    search = scattering.king_semistable_exists

    def counting(*args):
        searches.append(args)
        return search(*args)

    monkeypatch.setattr(scattering, "king_semistable_exists", counting)
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


def reference_king(Q, gamma, kappa, p):
    gamma = scattering._gamma_tuple(Q, gamma)
    kappa = tuple(Fraction(k) for k in scattering._by_vertices(Q, kappa))
    value = sum(k * g for k, g in zip(kappa, gamma))
    if value != 0:
        raise PreconditionError(f"kappa(gamma) = {value} != 0")
    scattering._check_enumeration_bounds(Q, gamma, p)
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


def outcome(fn, *args):
    try:
        return ("value", fn(*args))
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


def test_king_errors_match_reference(monkeypatch):
    K = Quiver(("1", "2"), [Arrow("a", "1", "2"), Arrow("b", "1", "2")], name="K2")
    monkeypatch.setattr(scattering, "MAX_ENUMERATION", 1 << 7)
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
        got = outcome(king_semistable_exists, K, gamma, kappa, p)
        assert got[0] == kind
        assert got == outcome(reference_king, K, gamma, kappa, p)


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
        fast = list(scattering._all_representations(Q, gamma, p))
        assert fast == list(reference_representations(Q, gamma, p))
    Q0 = Quiver(("1",), [], name="pt")
    assert list(scattering._all_representations(Q0, (2,), 3)) == [{}]


def unmemoized_reference(memo, Q, gamma, kappa, direction, p):
    """Stand-in for the memoized search: checks that ``direction`` is a
    positive multiple of kappa, then runs the reference every time."""
    ratios = {Fraction(d) / k for d, k in zip(direction, kappa) if k}
    assert len(ratios) == 1 and ratios.pop() > 0
    assert all(d == 0 for d, k in zip(direction, kappa) if not k)
    return reference_king(Q, gamma, kappa, p).exists


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
        verdicts += [v for entry in scan for _, v in entry.verdicts]
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
