"""Vertex premutation/mutation and the three-step contraction compatibility."""

import pytest

from quiveralg.errors import InternalConsistencyError, PreconditionError
from quiveralg.mutation import (
    composite_name,
    mutate,
    premutate,
    reversed_name,
    theorem_check_366,
)
from quiveralg.paths import Path, Potential, Sym, cyclic_normal_form
from quiveralg.qp import QuiverWithPotential, reduce_trivial
from quiveralg.quiver import Arrow, Quiver

A0 = ("a0", "i+", "i-")


def qp_of(vertices, arrows, terms=()):
    Q = Quiver(vertices, [Arrow(*a) for a in arrows])
    W = Potential.zero()
    for coeff, *letters in terms:
        p = Path(tuple(Sym(x) for x in letters))
        W = W + Potential({cyclic_normal_form(Q, p): coeff})
    return QuiverWithPotential(Q, W)


def word(Q, *letters):
    return cyclic_normal_form(Q, Path(tuple(Sym(x) for x in letters)))


def arrow_set(Q):
    return {(a.id, a.source, a.target) for a in Q.arrows}


# ---------------------------------------------------------------- names


def test_reversed_name_is_an_involution():
    assert reversed_name("a") == "a*"
    assert reversed_name("a*") == "a"
    assert reversed_name("[a0*a]") == "[a0*a]*"
    assert reversed_name(reversed_name("[a0**b]")) == "[a0**b]"


def test_composite_name():
    assert composite_name("a0", "a") == "[a0*a]"
    assert composite_name("a0*", "b") == "[a0**b]"


# ---------------------------------------------------------------- premutate


def test_premutate_reverses_and_composes():
    qp = qp_of(["j", "i+", "i-"], [("a", "j", "i+"), A0])
    pre = premutate(qp, "i+")
    assert arrow_set(pre.quiver) == {
        ("a*", "i+", "j"),
        ("a0*", "i-", "i+"),
        ("[a0*a]", "j", "i-"),
    }
    expected = Potential({word(pre.quiver, "[a0*a]", "a*", "a0*"): 1})
    assert pre.potential == expected


def test_premutate_vertex_without_arrows_is_identity():
    qp = qp_of(["1", "2", "3"], [("a", "1", "2")], [])
    pre = premutate(qp, "3")
    assert pre.quiver.vertices == qp.quiver.vertices
    assert arrow_set(pre.quiver) == arrow_set(qp.quiver)
    assert pre.potential == qp.potential


def test_premutate_no_composable_pairs():
    qp = qp_of(["i+", "i-"], [A0])
    pre = premutate(qp, "i+")
    assert arrow_set(pre.quiver) == {("a0*", "i-", "i+")}
    assert pre.potential.is_zero()


def test_premutate_brackets_every_passage():
    # a 6-cycle passing through the mutated vertex twice
    qp = qp_of(
        ["j", "k", "i"],
        [
            ("a1", "j", "i"),
            ("a2", "j", "i"),
            ("b1", "i", "k"),
            ("b2", "i", "k"),
            ("g1", "k", "j"),
            ("g2", "k", "j"),
        ],
        [(1, "g1", "b1", "a1", "g2", "b2", "a2")],
    )
    pre = premutate(qp, "i")
    expected = Potential({word(pre.quiver, "g1", "[b1*a1]", "g2", "[b2*a2]"): 1}) + sum(
        (
            Potential({word(pre.quiver, composite_name(b, a), f"{a}*", f"{b}*"): 1})
            for b in ("b1", "b2")
            for a in ("a1", "a2")
        ),
        Potential.zero(),
    )
    assert pre.potential == expected
    assert len(pre.quiver.arrows) == 6 + 4


def test_premutate_invariants_random(rng):
    from conftest import random_quiver

    done = 0
    while done < 25:
        Q = random_quiver(rng, max_vertices=4, max_arrows=6, loops=True)
        candidates = [
            v
            for v in Q.vertices
            if not Q.loops_at(v) and not Q.two_cycles_through(v)
        ]
        if not candidates:
            continue
        i = rng.choice(candidates)
        qp = QuiverWithPotential(Q)
        pre = premutate(qp, i)
        assert pre.quiver.vertices == Q.vertices
        ins = [a for a in Q.arrows if a.target == i]
        outs = [a for a in Q.arrows if a.source == i]
        assert not pre.quiver.loops_at(i)
        assert len(pre.quiver.arrows) == len(Q.arrows) + len(ins) * len(outs)
        for a in Q.arrows:
            if i in (a.source, a.target):
                rev = pre.quiver.arrow(reversed_name(a.id))
                assert (rev.source, rev.target) == (a.target, a.source)
            else:
                kept = pre.quiver.arrow(a.id)
                assert (kept.source, kept.target) == (a.source, a.target)
        done += 1


def test_premutate_errors():
    with pytest.raises(PreconditionError):
        premutate(qp_of(["1"], [("l", "1", "1")]), "1")
    with pytest.raises(PreconditionError):
        premutate(qp_of(["1", "2"], [("a", "1", "2"), ("b", "2", "1")]), "1")
    with pytest.raises(PreconditionError):
        premutate(qp_of(["1"], []), "nope")
    inverted = QuiverWithPotential(
        Quiver(["1", "2"], [Arrow("a0", "1", "2")]), inverted="a0"
    )
    with pytest.raises(PreconditionError):
        premutate(inverted, "1")


# ---------------------------------------------------------------- mutate


def test_mutation_deletes_trivial_pair():
    qp = qp_of(["j", "i+", "i-"], [("a", "j", "i+"), A0])
    m1 = mutate(qp, "i+")
    m2 = mutate(m1.reduced, "i-")
    assert "[a0**[a0*a]]" in {a.id for a in m2.premutated.quiver.arrows}
    assert arrow_set(m2.reduced.quiver) == {
        ("a0", "i+", "i-"),
        ("[a0*a]*", "i-", "j"),
    }
    assert m2.reduced.potential.is_zero()
    assert m2.naming == {"a0*": "a0", "[a0*a]": "[a0*a]*"}


def test_mutate_twice_isolated_arrow_is_identity():
    qp = qp_of(["1", "2"], [("a", "1", "2")])
    once = mutate(qp, "1").reduced
    assert arrow_set(once.quiver) == {("a*", "2", "1")}
    twice = mutate(once, "1").reduced
    assert twice == qp


def test_mutate_report_contents():
    qp = qp_of(["j", "i+", "i-"], [("a", "j", "i+"), A0])
    rep = mutate(qp, "i+")
    assert rep.input == qp
    assert rep.vertex == "i+"
    assert rep.reduced == reduce_trivial(rep.premutated)
    # naming map: old arrow -> new arrow, injective, only survivors
    assert rep.naming == {"a": "a*", "a0": "a0*"}
    assert len(set(rep.naming.values())) == len(rep.naming)
    for nid in rep.naming.values():
        assert rep.reduced.quiver.has_arrow(nid)


def test_mutate_reduction_identity_without_pairs():
    qp = qp_of(["i+", "i-"], [A0])
    rep = mutate(qp, "i+")
    assert rep.reduced == rep.premutated


def test_mutate_reduces_non_unit_quadratic_coefficients():
    # the far quadratic two-cycle with coefficient 2 is eliminated
    qp = qp_of(
        ["1", "2", "3"],
        [("x", "1", "2"), ("y", "2", "1"), ("a", "1", "3")],
        [(2, "y", "x")],
    )
    red = mutate(qp, "3").reduced
    assert arrow_set(red.quiver) == {("a*", "3", "1")}
    assert red.potential.is_zero()


# ------------------------------------------------------- theorem check


def family_case_a():
    return [
        qp_of(["j", "k", "i+", "i-"], [("a", "j", "i+"), A0, ("b", "k", "i-")]),
        qp_of(
            ["j", "k", "m", "i+", "i-"],
            [("a", "j", "i+"), A0, ("b", "k", "i-"), ("c", "i-", "m")],
        ),
        qp_of(
            ["j", "k", "i+", "i-"],
            [("a", "j", "i+"), A0, ("c", "i-", "k"), ("e", "k", "j")],
            [(1, "e", "c", "a0", "a")],
        ),
        qp_of(
            ["j", "k", "n", "i+", "i-"],
            [
                ("a", "j", "i+"),
                A0,
                ("c", "i-", "k"),
                ("e", "k", "n"),
                ("f", "n", "j"),
            ],
            [(1, "f", "e", "c", "a0", "a")],
        ),
        qp_of(
            ["j", "k", "m", "n", "p", "i+", "i-"],
            [
                ("a1", "j", "i+"),
                ("a2", "k", "i+"),
                A0,
                ("b1", "m", "i-"),
                ("b2", "n", "i-"),
                ("c", "i-", "p"),
            ],
        ),
        qp_of(
            ["j", "k", "u", "v", "w", "i+", "i-"],
            [
                ("a", "j", "i+"),
                A0,
                ("c", "i-", "k"),
                ("e", "k", "j"),
                ("x", "u", "v"),
                ("y", "v", "w"),
                ("z", "w", "u"),
            ],
            [(1, "e", "c", "a0", "a"), (2, "z", "y", "x")],
        ),
    ]


def family_case_b():
    return [
        qp_of(["m", "i+", "i-"], [("d", "i+", "m"), A0]),
        qp_of(
            ["j", "k", "m", "i+", "i-"],
            [("a", "j", "i+"), ("d", "i+", "m"), A0, ("c", "i-", "k")],
        ),
        qp_of(
            ["j", "k", "m", "i+", "i-"],
            [
                ("a", "j", "i+"),
                ("d", "i+", "m"),
                A0,
                ("c", "i-", "k"),
                ("e", "k", "j"),
            ],
            [(1, "e", "c", "a0", "a")],
        ),
        qp_of(
            ["j", "k", "m", "i+", "i-"],
            [
                ("a", "j", "i+"),
                ("d", "i+", "m"),
                A0,
                ("c", "i-", "k"),
                ("h", "m", "j"),
            ],
            [(1, "h", "d", "a")],
        ),
        qp_of(
            ["j", "k", "m", "n", "i+", "i-"],
            [
                ("a", "j", "i+"),
                ("d1", "i+", "m"),
                ("d2", "i+", "n"),
                A0,
                ("c", "i-", "k"),
            ],
        ),
        qp_of(
            ["j", "k", "m", "n", "i+", "i-"],
            [
                ("a", "j", "i+"),
                ("d", "i+", "m"),
                A0,
                ("c", "i-", "k"),
                ("e", "k", "n"),
                ("f", "n", "j"),
            ],
            [(1, "f", "e", "c", "a0", "a")],
        ),
    ]


def test_theorem_spec_instance():
    qp = qp_of(["j", "k", "i+", "i-"], [("a", "j", "i+"), A0, ("b", "k", "i-")])
    rep = theorem_check_366(qp, "a0")
    assert rep.ok and rep.case == "A"
    assert rep.diff == ""


@pytest.mark.parametrize("idx", range(6))
def test_theorem_family_case_a(idx):
    rep = theorem_check_366(family_case_a()[idx], "a0")
    assert rep.case == "A"
    assert rep.ok, rep.diff


@pytest.mark.parametrize("idx", range(6))
def test_theorem_family_case_b(idx):
    rep = theorem_check_366(family_case_b()[idx], "a0")
    assert rep.case == "B"
    assert rep.ok, rep.diff


def test_theorem_comparisons_are_nonvacuous():
    # these instances keep composite arrows and nonzero potentials on both
    # sides, so the equality (including the -1-twisted family) has teeth
    rep_a = theorem_check_366(family_case_a()[1], "a0")
    rep_b = theorem_check_366(family_case_b()[1], "a0")
    for rep in (rep_a, rep_b):
        assert not rep.rhs.potential.is_zero()
        assert rep.lhs.potential == rep.rhs.potential
    twisted_a = "[c*a0*a0^-1*b]"
    assert any(
        any(s.arrow == twisted_a for s in w.syms) for w in rep_a.rhs.potential.terms
    )


def test_theorem_preconditions():
    cases = [
        # any loop in the quiver
        qp_of(["j", "i+", "i-"], [("a", "j", "i+"), A0, ("l", "j", "j")]),
        # two-cycle through the contracted edge's endpoints
        qp_of(["i+", "i-"], [A0, ("r", "i-", "i+")]),
        # parallel connector: contraction would create a loop
        qp_of(["i+", "i-"], [A0, ("p", "i+", "i-")]),
        # three-cycle through i+ contracts to a two-cycle at the merged vertex
        qp_of(["j", "i+", "i-"], [("a", "j", "i+"), A0, ("c", "i-", "j")]),
        # neither case applies: extra arrows out of i+ and into i-
        qp_of(
            ["j", "k", "m", "i+", "i-"],
            [("d", "i+", "m"), A0, ("b", "k", "i-")],
        ),
    ]
    for qp in cases:
        with pytest.raises(PreconditionError):
            theorem_check_366(qp, "a0")
    with pytest.raises(PreconditionError):
        theorem_check_366(qp_of(["1"], [("l", "1", "1")]), "l")
