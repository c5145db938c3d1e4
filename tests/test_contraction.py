"""Edge contraction: quivers, potentials, representations, Higgsing."""

from __future__ import annotations

import random
from fractions import Fraction

import pytest

from quiveralg.contraction import (
    Representation,
    contract_qp,
    contract_quiver,
    contract_rep,
    hat_word,
    higgs,
)
from quiveralg.errors import (
    InternalConsistencyError,
    PreconditionError,
    UnsupportedReductionError,
)
from quiveralg.hopf import (
    contraction_ratio_check,
    double_cross_check,
    normalization_collapse_check,
)
from quiveralg.linalg import GF, QQ, mat_mul
from quiveralg.mutation import theorem_check_366
from quiveralg.paths import Path, Potential, Sym
from quiveralg.poly import Poly
from quiveralg.preprojective import adhm_elimination_check, contract_triple_check
from quiveralg.qp import QuiverWithPotential
from quiveralg.quiver import Arrow, Quiver, contract_vectors, euler_form
from quiveralg.scattering import eta_embedding_check
from quiveralg.shuffle import SymPoly, contract_shuffle

from conftest import (
    jordan_quiver,
    kronecker_quiver,
    random_cycle,
    random_potential,
    random_quiver,
    showcase_qp,
    word,
)


def test_contract_quiver_showcase_arrows():
    qp = showcase_qp()
    Qhat, hat_map, expansion = contract_quiver(qp.quiver, "a0")
    assert Qhat.vertices == ("i+", "1", "2")
    got = {(a.id, a.source, a.target) for a in Qhat.arrows}
    assert got == {
        ("a1*a0", "i+", "i+"),
        ("a0^-1*a2", "i+", "i+"),
        ("a0^-1*l1*a0", "i+", "i+"),
        ("a0^-1*l2*a0", "i+", "i+"),
        ("b*a0", "i+", "1"),
        ("c", "1", "2"),
        ("a0^-1*d", "2", "i+"),
    }
    assert hat_map["l1"] == "a0^-1*l1*a0"
    assert hat_map["c"] == "c"
    assert "a0" not in hat_map
    assert expansion["a1*a0"] == (Sym("a1"), Sym("a0"))
    assert expansion["a0^-1*a2"] == (Sym("a0", True), Sym("a2"))
    assert expansion["a0^-1*l1*a0"] == (Sym("a0", True), Sym("l1"), Sym("a0"))


def test_contract_qp_showcase_potential():
    qp = showcase_qp()
    out = contract_qp(qp, "a0")
    L1, L2, A = "a0^-1*l1*a0", "a0^-1*l2*a0", "a1*a0"
    expected = Potential.from_paths(
        out.quiver,
        [
            (word(A, L1, L1, L2, L2, L2), 1),
            (word("b*a0", L1, "a0^-1*d", "c"), 1),
        ],
    )
    assert out.potential == expected
    # contracted potential mentions only arrows of the contracted quiver
    ids = {a.id for a in out.quiver.arrows}
    assert out.potential.arrows_used() <= ids


def test_contract_kronecker_to_one_loop():
    qp = QuiverWithPotential(kronecker_quiver())
    out = contract_qp(qp, "a0")
    assert out.quiver.vertices == ("i+",)
    assert [(a.id, a.source, a.target) for a in out.quiver.arrows] == [
        ("a0^-1*a2", "i+", "i+")
    ]
    assert out.potential.is_zero()


def test_contract_single_arrow_to_point():
    Q = Quiver(["1", "2"], [Arrow("a", "1", "2")])
    out = contract_qp(QuiverWithPotential(Q), "a")
    assert out.quiver.vertices == ("1",)
    assert out.quiver.arrows == ()


def test_contract_loop_rejected():
    qp = QuiverWithPotential(jordan_quiver())
    with pytest.raises(PreconditionError):
        contract_qp(qp, "l")


LOOPED = Quiver(("i+", "i-"), [Arrow("a0", "i+", "i-"), Arrow("l", "i-", "i-")], name="looped")
EQUAL = {"i+": 1, "i-": 1}
UNEQUAL = {"i+": 1, "i-": 2}


def _rep(dims):
    mats = {a.id: ((1,) * dims[a.source],) * dims[a.target] for a in LOOPED.arrows}
    return Representation(GF(2), dims, mats, Q=LOOPED)


# Every public entry point that contracts an arrow, called on (a0, ranks);
# those that take no rank vector ignore the ranks.
ENTRY_POINTS = {
    "contract_quiver": lambda a0, g: contract_quiver(LOOPED, a0),
    "contract_qp": lambda a0, g: contract_qp(QuiverWithPotential(LOOPED), a0),
    "contract_rep": lambda a0, g: contract_rep(QuiverWithPotential(LOOPED), a0, _rep(EQUAL)),
    "contract_shuffle": lambda a0, g: contract_shuffle(SymPoly(LOOPED, g, 1), a0),
    "contraction_ratio_check": lambda a0, g: contraction_ratio_check(LOOPED, a0, g),
    "double_cross_check": lambda a0, g: double_cross_check(
        SymPoly(LOOPED, EQUAL, 1), SymPoly(LOOPED, EQUAL, 1), a0
    ),
    "normalization_collapse_check": lambda a0, g: normalization_collapse_check(
        LOOPED, a0, 1, Poly.const(1)
    ),
    "contract_vectors": lambda a0, g: contract_vectors(LOOPED, a0, g, EQUAL),
    "contract_triple_check": lambda a0, g: contract_triple_check(LOOPED, a0),
    "adhm_elimination_check": lambda a0, g: adhm_elimination_check(LOOPED, a0),
    "eta_embedding_check": lambda a0, g: eta_embedding_check(LOOPED, a0, (1,), [(0,)]),
    "theorem_check_366": lambda a0, g: theorem_check_366(QuiverWithPotential(LOOPED), a0),
}
RANKED = ("contract_shuffle", "contraction_ratio_check", "contract_vectors")


@pytest.mark.parametrize("name", sorted(ENTRY_POINTS))
def test_contraction_entry_points_share_their_refusals(name):
    """Each entry point refuses a loop a0 with the one message, and each
    that takes a rank vector refuses unequal ranks at i+ and i- with the
    one message."""
    call = ENTRY_POINTS[name]
    with pytest.raises(PreconditionError) as err:
        call("l", EQUAL)
    assert str(err.value) == "cannot contract the loop 'l'"
    if name in RANKED:
        with pytest.raises(PreconditionError) as err:
            call("a0", UNEQUAL)
        assert str(err.value) == "equal-rank precondition: gamma[i+]=1 != gamma[i-]=2"
        call("a0", EQUAL)


def test_contract_rep_refuses_a_loop_before_reading_the_matrices():
    qp = QuiverWithPotential(LOOPED)
    bad = Representation(GF(2), EQUAL, {})
    with pytest.raises(PreconditionError, match="cannot contract the loop 'l'"):
        contract_rep(qp, "l", bad)
    with pytest.raises(PreconditionError, match="no matrix for arrow"):
        contract_rep(qp, "a0", bad)


def test_contract_counts():
    qp = showcase_qp()
    out = contract_qp(qp, "a0")
    assert len(out.quiver.vertices) == len(qp.quiver.vertices) - 1
    assert len(out.quiver.arrows) == len(qp.quiver.arrows) - 1


def test_hat_word_rejects_foreign_inverse():
    qp = showcase_qp()
    _, hat_map, _ = contract_quiver(qp.quiver, "a0")
    with pytest.raises(PreconditionError):
        hat_word((Sym("a1", True),), "a0", hat_map)


def test_hat_word_expansion_detects_corruption():
    qp = showcase_qp()
    _, hat_map, expansion = contract_quiver(qp.quiver, "a0")
    bad = dict(expansion)
    bad["a1*a0"] = (Sym("a1"),)  # drop the a0 factor: expansion no longer matches
    w = (Sym("a0"), Sym("a1"))
    with pytest.raises(InternalConsistencyError):
        hat_word(w, "a0", hat_map, bad)


def test_contract_random_soundness_and_euler(rng):
    """Contraction of random potentials passes the built-in expansion check
    and the contracted quiver preserves the Euler form on merged vectors."""
    done = 0
    while done < 60:
        Q = random_quiver(rng, max_vertices=4, max_arrows=7)
        candidates = [a for a in Q.arrows if a.source != a.target]
        if not candidates:
            continue
        a0 = rng.choice(candidates)
        W = random_potential(rng, Q)
        qp = QuiverWithPotential(Q, W)
        out = contract_qp(qp, a0.id)  # raises on any unsound rewrite
        assert len(out.quiver.vertices) == len(Q.vertices) - 1
        assert len(out.quiver.arrows) == len(Q.arrows) - 1
        ids = {a.id for a in out.quiver.arrows}
        assert out.potential.arrows_used() <= ids
        # Euler form on vectors equal across the contracted edge
        g1 = {v: rng.randint(0, 3) for v in Q.vertices}
        g2 = {v: rng.randint(0, 3) for v in Q.vertices}
        g1[a0.source] = g1[a0.target]
        g2[a0.source] = g2[a0.target]
        h1 = {v: g1[v] for v in out.quiver.vertices}
        h2 = {v: g2[v] for v in out.quiver.vertices}
        assert euler_form(Q, g1, g2) == euler_form(out.quiver, h1, h2)
        done += 1


# ---------------------------------------------------------------- reps


def _random_rep(rng, F, Q, dims):
    mats = {}
    for a in Q.arrows:
        rows, cols = dims[a.target], dims[a.source]
        mats[a.id] = tuple(
            tuple(rng.randrange(F) for _ in range(cols)) for _ in range(rows)
        )
    return Representation(F, dims, mats, Q=Q)


def _invertible(F, m):
    from quiveralg.linalg import mat_inverse

    try:
        mat_inverse(F, m)
        return True
    except ZeroDivisionError:
        return False


def test_contract_rep_matches_expansion_products(rng):
    """Oracle: the matrix of every contracted arrow equals the product of
    the matrices of its expansion symbols (inverse for inverted letters)."""
    from quiveralg.linalg import mat_inverse

    F = GF(5)
    done = 0
    while done < 25:
        Q = random_quiver(rng, max_vertices=4, max_arrows=6)
        candidates = [a for a in Q.arrows if a.source != a.target]
        if not candidates:
            continue
        a0 = rng.choice(candidates)
        dims = {v: rng.randint(1, 3) for v in Q.vertices}
        dims[a0.source] = dims[a0.target]
        if dims[a0.source] == 0:
            continue
        M = _random_rep(rng, F, Q, dims)
        if not _invertible(F, M.mats[a0.id]):
            continue
        out = contract_rep(QuiverWithPotential(Q), a0.id, M)
        Qhat, _, expansion = contract_quiver(Q, a0.id)
        assert out.dims == {v: dims[v] for v in Qhat.vertices}
        inv0 = mat_inverse(F, M.mats[a0.id])
        for ahat in Qhat.arrows:
            prod = None
            for s in expansion[ahat.id]:
                m = inv0 if s.inv else M.mats[s.arrow]
                prod = m if prod is None else mat_mul(F, prod, m)
            assert out.mats[ahat.id] == prod
        done += 1


def test_contract_rep_singular_rejected():
    F = GF(5)
    Q = kronecker_quiver()
    dims = {"i+": 2, "i-": 2}
    zero = ((0, 0), (0, 0))
    M = Representation(F, dims, {"a0": zero, "a2": zero}, Q=Q)
    with pytest.raises(PreconditionError):
        contract_rep(QuiverWithPotential(Q), "a0", M)


def test_contract_rep_dimension_mismatch_rejected():
    F = GF(5)
    Q = kronecker_quiver()
    M = Representation(
        F,
        {"i+": 1, "i-": 2},
        {"a0": ((1,), (0,)), "a2": ((0,), (1,))},
        Q=Q,
    )
    with pytest.raises(PreconditionError):
        contract_rep(QuiverWithPotential(Q), "a0", M)


def test_representation_validate_checks_every_row_and_arrow():
    """A ragged matrix is refused at its second row, and a matrix for an
    arrow the quiver does not have is refused, before contract_rep reads
    either."""
    F = GF(5)
    Q = Quiver(("a", "b", "c"), [Arrow("a0", "a", "b"), Arrow("x", "b", "c")])
    dims = {"a": 1, "b": 1, "c": 2}
    ragged = Representation(F, dims, {"a0": ((1,),), "x": ((1,), ())})
    with pytest.raises(PreconditionError, match="matrix for x is not 2x1"):
        ragged.validate(Q)
    with pytest.raises(PreconditionError, match="matrix for x is not 2x1"):
        contract_rep(QuiverWithPotential(Q), "a0", ragged)
    extra = {"a0": ((1,),), "x": ((1,), (0,)), "y": ((1,),)}
    with pytest.raises(PreconditionError, match=r"does not have: \['y'\]"):
        Representation(F, dims, extra, Q=Q)
    good = Representation(F, dims, {"a0": ((1,),), "x": ((1,), (0,))}, Q=Q)
    assert contract_rep(QuiverWithPotential(Q), "a0", good).mats == {"x*a0": ((1,), (0,))}


def test_contract_rep_rational_field():
    """QQ representation of the Kronecker quiver: explicit 2x2 contraction."""
    F = QQ
    Q = kronecker_quiver()
    a0 = ((1, 1), (0, 1))
    a2 = ((2, 0), (0, 3))
    M = Representation(F, {"i+": 2, "i-": 2}, {"a0": a0, "a2": a2}, Q=Q)
    out = contract_rep(QuiverWithPotential(Q), "a0", M)
    inv0 = ((Fraction(1), Fraction(-1)), (Fraction(0), Fraction(1)))
    expected = mat_mul(F, inv0, a2)
    assert out.mats["a0^-1*a2"] == expected


def _conjugated(F, a, a0, ip, im, M):
    """The contracted name and matrix of arrow a, from the case formulas of
    the module and ``contract_rep`` docstrings, read off a's ends."""
    from quiveralg.linalg import mat_inverse

    m, m0 = M.mats[a.id], M.mats[a0]
    inv0 = mat_inverse(F, m0)
    if a.source == im and a.target == im:
        return f"{a0}^-1*{a.id}*{a0}", mat_mul(F, mat_mul(F, inv0, m), m0)
    if a.source == im:
        return f"{a.id}*{a0}", mat_mul(F, m, m0)
    if a.target == im:
        return f"{a0}^-1*{a.id}", mat_mul(F, inv0, m)
    return a.id, m


def test_contract_rep_matches_the_case_formulas():
    """Oracle independent of the hatted letters: every contracted matrix is
    M_a M_a0 (a starts at i-), M_a0^-1 M_a (a ends at i-), M_a0^-1 M_a M_a0
    (a loop at i-) or M_a, over GF(2), GF(3) and QQ, on quivers with loops
    at i-, arrows from i- to i+ and arrows parallel to a0.  Half the cases
    give every vertex one dimension, so a copy that puts a0^-1 after a still
    makes matrices of the right shape; only their entries catch it.  Every
    hatted name is its expansion's letters joined by *."""
    rng = random.Random(37)
    pool = [("i+", "i-"), ("i-", "i-"), ("i-", "i+"), ("i+", "i+"), ("j", "i-"),
            ("i-", "j"), ("j", "i+"), ("i+", "j"), ("j", "j")]
    seen = {"loop at i-": 0, "i- to i+": 0, "parallel": 0, "equal dims": 0}
    for trial in range(120):
        F = (GF(2), GF(3), QQ)[trial % 3]
        ends = [rng.choice(pool) for _ in range(rng.randint(2, 5))]
        Q = Quiver(("i+", "i-", "j"), [Arrow("a0", "i+", "i-")] +
                   [Arrow(f"b{k}", s, t) for k, (s, t) in enumerate(ends)])
        n = rng.randint(1, 3)
        dims = {"i+": n, "i-": n, "j": n if trial % 2 else rng.randint(0, 3)}
        entries = range(F) if F else range(-2, 3)
        mats = {a.id: tuple(tuple(rng.choice(entries) for _ in range(dims[a.source]))
                            for _ in range(dims[a.target])) for a in Q.arrows}
        M = Representation(F, dims, mats, Q=Q)
        if not _invertible(F, M.mats["a0"]):
            continue
        out = contract_rep(QuiverWithPotential(Q), "a0", M)
        want = dict(_conjugated(F, a, "a0", "i+", "i-", M) for a in Q.arrows[1:])
        assert out.dims == {"i+": n, "j": dims["j"]}
        assert out.mats == want, (F, Q.arrows, dims)
        expansion = contract_quiver(Q, "a0")[2]
        assert all(name == "*".join(map(str, e)) for name, e in expansion.items())
        seen["loop at i-"] += ("i-", "i-") in ends
        seen["i- to i+"] += ("i-", "i+") in ends
        seen["parallel"] += ("i+", "i-") in ends
        seen["equal dims"] += trial % 2
    assert min(seen.values()) >= 15, seen


# ---------------------------------------------------------------- higgs


def test_higgs_equals_contraction_without_cubic_terms():
    qp = showcase_qp()
    assert higgs(qp, "a0") == contract_qp(qp, "a0")


def test_higgs_quadratic_mass_term_rejected():
    Q = Quiver(["i+", "i-"], [Arrow("a0", "i+", "i-"), Arrow("x", "i-", "i+")])
    qp = QuiverWithPotential(Q, Potential.from_paths(Q, [(word("a0", "x"), 1)]))
    with pytest.raises(UnsupportedReductionError):
        higgs(qp, "a0")


def test_higgs_integrates_cubic_pair():
    """A cubic term through a0 descends to a mass pair that is eliminated."""
    Q = Quiver(
        ["i+", "i-", "u"],
        [
            Arrow("a0", "i+", "i-"),
            Arrow("b", "i-", "u"),
            Arrow("c", "u", "i+"),
            Arrow("q", "i+", "u"),
        ],
    )
    W = Potential.from_paths(Q, [(word("c", "b", "a0"), 1), (word("c", "q"), 1)])
    qp = QuiverWithPotential(Q, W)
    out = higgs(qp, "a0")
    assert out.quiver.vertices == ("i+", "u")
    assert [(a.id, a.source, a.target) for a in out.quiver.arrows] == [
        ("q", "i+", "u")
    ]
    assert out.potential.is_zero()
    # plain contraction instead keeps the mass pair around
    plain = contract_qp(qp, "a0")
    assert len(plain.quiver.arrows) == 3
    assert any(len(w.syms) == 2 for w in plain.potential.terms)
