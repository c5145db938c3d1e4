"""Path algebra: cyclic words, derivatives, substitution, trivial reduction."""

from __future__ import annotations

import random
from fractions import Fraction

import pytest

from quiveralg.errors import (
    DegenerateTermError,
    PreconditionError,
    UnsupportedReductionError,
)
from quiveralg.paths import (
    CyclicWord,
    NCPoly,
    Path,
    Potential,
    Sym,
    cyclic_derivative,
    cyclic_normal_form,
    substitute_arrow,
)
from quiveralg.contraction import contract_qp
from quiveralg.mutation import theorem_check_366
from quiveralg.poly import Combination
from quiveralg.preprojective import adhm_elimination_check, preprojective_relations
from quiveralg.qp import QuiverWithPotential, reduce_trivial
from quiveralg.quiver import Arrow, Quiver

from conftest import showcase_qp, word
from test_mutation import family_case_a


def seam_quiver():
    return Quiver(
        ["i+", "i-"],
        [Arrow("a0", "i+", "i-"), Arrow("a0*", "i-", "i+"), Arrow("l-", "i-", "i-")],
    )


def test_cyclic_normal_form_seam_cancellation():
    """a0^-1 . l- . a0 . a0* . a0 cancels across the seam to l- . a0 . a0*."""
    Q = seam_quiver()
    p = Path((Sym("a0", True), Sym("l-"), Sym("a0"), Sym("a0*"), Sym("a0")))
    got = cyclic_normal_form(Q, p)
    expected = cyclic_normal_form(Q, Path((Sym("l-"), Sym("a0"), Sym("a0*"))))
    assert got == expected
    assert len(got) == 3


def test_cyclic_normal_form_minimal_rotation():
    Q = Quiver(["1", "2", "3"], [Arrow("c", "3", "1"), Arrow("a", "1", "2"), Arrow("b", "2", "3")])
    # word c.a.b == rotation of a.b.c; canonical representative starts at 'a'
    got = cyclic_normal_form(Q, word("c", "b", "a"))
    assert got == CyclicWord((Sym("a"), Sym("c"), Sym("b")))


def test_cyclic_normal_form_degenerate():
    Q = seam_quiver()
    with pytest.raises(DegenerateTermError):
        cyclic_normal_form(Q, Path((Sym("a0"), Sym("a0", True))))


def test_cyclic_normal_form_not_closed():
    Q = seam_quiver()
    with pytest.raises(PreconditionError):
        cyclic_normal_form(Q, Path((Sym("a0"),)))


def test_cyclic_normal_form_rotation_invariant_random():
    rng = random.Random(5)
    Q = showcase_qp().quiver
    samples = [
        ["a0", "a1"],
        ["a1", "l1", "l1", "l2", "l2", "l2", "a0"],
        ["l1", "d", "c", "b"],
        ["l1", "l2", "d", "c", "b"],
    ]
    for ids in samples:
        base = None
        for _ in range(6):
            k = rng.randrange(len(ids))
            rotated = ids[k:] + ids[:k]
            # only rotations that remain composable as written are words of
            # the same cycle; all rotations of a closed word are closed
            w = cyclic_normal_form(Q, word(*rotated))
            if base is None:
                base = w
            assert w == base
        nf2 = cyclic_normal_form(Q, Path(base.syms))
        assert nf2 == base  # idempotent


def test_cyclic_derivative_three_cycle():
    Q = Quiver(["1", "2", "3"], [Arrow("a", "3", "1"), Arrow("b", "2", "3"), Arrow("c", "1", "2")])
    W = Potential.from_paths(Q, [(word("a", "b", "c"), 1)])
    d = cyclic_derivative(Q, W, "a")
    assert d == NCPoly.of_path(word("b", "c"))


def test_cyclic_derivative_degree_seven_term():
    qp = showcase_qp()
    d = cyclic_derivative(qp.quiver, qp.potential, "a0")
    assert d == NCPoly.of_path(word("a1", "l1", "l1", "l2", "l2", "l2"))


def test_cyclic_derivative_absent_arrow():
    qp = showcase_qp()
    assert cyclic_derivative(qp.quiver, qp.potential, "a2").is_zero()


def test_cyclic_derivative_counts_rotations():
    """For a cyclic word with n distinct letters, sum_a a.(dw/da) gives n
    copies of the cycle (as rotations)."""
    Q = Quiver(
        ["1", "2", "3", "4"],
        [
            Arrow("a", "1", "2"),
            Arrow("b", "2", "3"),
            Arrow("c", "3", "4"),
            Arrow("d", "4", "1"),
        ],
    )
    w = word("d", "c", "b", "a")
    W = Potential.from_paths(Q, [(w, 1)])
    total = Potential.zero()
    for aid in ["a", "b", "c", "d"]:
        der = cyclic_derivative(Q, W, aid)
        for p, c in der.terms.items():
            closed = Path((Sym(aid),) + p.syms)
            total = total + Potential({cyclic_normal_form(Q, closed): c})
    assert total == Potential.from_paths(Q, [(w, 4)])


def test_cyclic_derivative_linear():
    rng = random.Random(9)
    qp = showcase_qp()
    Q = qp.quiver
    words = [
        word("a0", "a1"),
        word("a1", "l1", "l1", "l2", "l2", "l2", "a0"),
        word("l1", "d", "c", "b"),
        word("l2", "l1", "d", "c", "b"),
    ]
    for _ in range(20):
        c1, c2 = Fraction(rng.randint(-3, 3)), Fraction(rng.randint(-3, 3))
        W1 = Potential.from_paths(Q, [(words[rng.randrange(4)], 1)])
        W2 = Potential.from_paths(Q, [(words[rng.randrange(4)], 1)])
        for aid in ["a0", "l1", "b"]:
            lhs = cyclic_derivative(Q, W1.scale(c1) + W2.scale(c2), aid)
            rhs = cyclic_derivative(Q, W1, aid).scale(c1) + cyclic_derivative(Q, W2, aid).scale(c2)
            assert lhs == rhs


def _two_cycle_tail_quiver():
    # a: u -> v, b: v -> u, d: u -> x, c: x -> v
    return Quiver(
        ["u", "v", "x"],
        [Arrow("a", "u", "v"), Arrow("b", "v", "u"), Arrow("d", "u", "x"), Arrow("c", "x", "v")],
    )


def test_substitute_identity():
    qp = showcase_qp()
    W = qp.potential
    same = substitute_arrow(qp.quiver, W, {"b": NCPoly.of_path(word("b"))})
    assert same == W


def test_substitute_parallel_scaling():
    Q = Quiver(["1", "2"], [Arrow("a", "2", "1"), Arrow("b", "1", "2"), Arrow("b'", "1", "2")])
    p = NCPoly.of_path(word("a", "b"))
    out = substitute_arrow(Q, p, {"b": NCPoly.of_path(word("b'"), 2)})
    assert out == NCPoly.of_path(word("a", "b'"), 2)


def test_substitute_expansion_cancellation():
    Q = _two_cycle_tail_quiver()
    W = Potential.from_paths(Q, [(word("a", "b"), 1), (word("b", "c", "d"), 1)])
    out = substitute_arrow(
        Q, W, {"a": -NCPoly.of_path(word("c", "d")), "b": NCPoly.zero()}
    )
    assert out == Potential.zero()


def test_substitute_endpoint_mismatch():
    Q = _two_cycle_tail_quiver()
    p = NCPoly.of_path(word("a", "b"))
    with pytest.raises(PreconditionError):
        substitute_arrow(Q, p, {"b": NCPoly.of_path(word("d"))})


def test_substitute_degenerate_word_raises():
    """A loop replaced by its vertex's idempotent leaves an empty cyclic
    word, which is refused while the sum is being built."""
    Q = Quiver(["1"], [Arrow("a", "1", "1")])
    W = Potential.from_paths(Q, [(word("a"), 1)])
    with pytest.raises(DegenerateTermError, match="degenerated the cyclic word"):
        substitute_arrow(Q, W, {"a": NCPoly.of_path(Path.idempotent("1"))})


def _fold(cls, pairs):
    """The sum of the pairs by repeated `+` of one-term combinations."""
    out = cls.zero()
    for k, c in pairs:
        out = out + cls({k: c})
    return out


def test_sums_equal_a_repeated_plus_fold(monkeypatch):
    """Every sum built from (key, coefficient) pairs has the terms, in the
    same order, that a repeated `+` gives; in the substitutions a key
    cancels and then comes back, so it moves to the end."""
    loops = Quiver(["1"], [Arrow(a, "1", "1") for a in "abcde"])
    paths = [(word("a", "d"), 1), (word("c", "d"), 1), (word("e", "d"), 1), (word("b", "d"), 1)]
    swap = {"a": NCPoly.of_path(word("b")), "e": NCPoly.of_path(word("b"), -1)}
    value = NCPoly.from_pairs(paths)
    W = Potential.from_paths(loops, paths)
    twice = Potential.from_paths(loops, [(word("a", "b", "a", "c"), 2), (word("a", "c"), -1)])
    qp = showcase_qp()
    cases = {
        "substitute paths": lambda: substitute_arrow(loops, value, swap),
        "substitute words": lambda: substitute_arrow(loops, W, swap),
        "cyclic derivative": lambda: cyclic_derivative(loops, twice, "a"),
        "contract potential": lambda: contract_qp(qp, "a0").potential,
        "preprojective": lambda: preprojective_relations(qp.quiver).at("i-"),
        "mutation renaming": lambda: theorem_check_366(family_case_a()[0], "a0").lhs.potential,
    }
    built = {name: list(make().terms.items()) for name, make in cases.items()}
    assert built["substitute paths"] == [(word("c", "d"), 1), (word("b", "d"), 1)]
    assert [w for w, _c in built["substitute words"]] == [
        cyclic_normal_form(loops, word("c", "d")), cyclic_normal_form(loops, word("b", "d"))
    ]
    adhm = adhm_elimination_check(qp.quiver, "a0")

    monkeypatch.setattr(Combination, "from_pairs", classmethod(_fold))
    assert {name: list(make().terms.items()) for name, make in cases.items()} == built
    assert adhm_elimination_check(qp.quiver, "a0") == adhm


def test_reduce_trivial_pure_quadratic():
    Q = Quiver(["u", "v"], [Arrow("a", "u", "v"), Arrow("b", "v", "u")])
    qp = QuiverWithPotential(Q, Potential.from_paths(Q, [(word("a", "b"), 1)]))
    out = reduce_trivial(qp)
    assert out.quiver.arrows == ()
    assert out.potential.is_zero()


def test_reduce_trivial_with_tail():
    Q = _two_cycle_tail_quiver()
    qp = QuiverWithPotential(
        Q, Potential.from_paths(Q, [(word("a", "b"), 1), (word("b", "c", "d"), 1)])
    )
    out = reduce_trivial(qp)
    assert sorted(a.id for a in out.quiver.arrows) == ["c", "d"]
    assert out.potential.is_zero()


def test_reduce_trivial_no_quadratic_part():
    qp = showcase_qp()
    assert reduce_trivial(qp) == qp


def test_reduce_trivial_non_unit_coefficient():
    Q = Quiver(["u", "v"], [Arrow("a", "u", "v"), Arrow("b", "v", "u")])
    qp = QuiverWithPotential(Q, Potential.from_paths(Q, [(word("a", "b"), 2)]))
    out = reduce_trivial(qp)
    assert out.quiver.arrows == ()
    assert out.potential.is_zero()


def test_reduce_trivial_refuses_when_both_remainders_hold_the_pair():
    """W = b.c + b.c.b.c: dW/db - c = 2 c.b.c and dW/dc - b = 2 b.c.b."""
    Q = Quiver(["u", "v"], [Arrow("b", "v", "u"), Arrow("c", "u", "v")])
    W = Potential.from_paths(Q, [(word("b", "c"), 1), (word("b", "c", "b", "c"), 1)])
    with pytest.raises(UnsupportedReductionError, match="both dW/db - c and dW/dc - b"):
        reduce_trivial(QuiverWithPotential(Q, W))


def test_reduce_trivial_refuses_to_eliminate_the_inverted_arrow():
    """No substitution reaches the letter a^-1 of d.l.a^-1, so eliminating
    a.b would leave it behind: a refusal, not a broken invariant."""
    Q = Quiver(
        ["u", "v"],
        [Arrow("a", "u", "v"), Arrow("b", "v", "u"), Arrow("d", "u", "v"), Arrow("l", "u", "u")],
    )
    inverse_term = Path((Sym("d"), Sym("l"), Sym("a", True)))
    W = Potential.from_paths(Q, [(word("a", "b"), 1), (inverse_term, 1)])
    with pytest.raises(UnsupportedReductionError, match="formally inverted arrow a"):
        reduce_trivial(QuiverWithPotential(Q, W, inverted="a"))


def _closed_walks(rng, Q, count):
    """Up to count random cycles of length 3 or 4 in Q, as words."""
    walks = []
    for _ in range(50 * count):
        if len(walks) == count:
            break
        letters = [rng.choice(Q.arrows)]
        for _ in range(rng.randint(2, 3)):
            outs = Q.arrows_from(letters[-1].target)
            if not outs:
                break
            letters.append(rng.choice(outs))
        if len(letters) > 2 and letters[-1].target == letters[0].source:
            walks.append(word(*reversed([a.id for a in letters])))
    return walks


def test_reduce_trivial_is_unchanged_by_rescaling_the_eliminated_arrow():
    """For W holding k * b.c, substituting b -> b/k (a right-equivalence that
    makes the quadratic coefficient 1) leaves the reduction unchanged: both
    refuse, or both give the same QP.  A step that substituted into W/k
    instead of W would scale the reduced potential by 1/k."""
    rng = random.Random(41)
    answered = 0
    for _ in range(400):
        n = rng.randint(2, 4)
        vertices = [f"v{i}" for i in range(n)]
        arrows = [Arrow("b", "v1", "v0"), Arrow("c", "v0", "v1")] + [
            Arrow(f"x{i}", rng.choice(vertices), rng.choice(vertices))
            for i in range(rng.randint(2, 5))
        ]
        Q = Quiver(vertices, arrows)
        kappa = Fraction(rng.choice([2, -1, 3, -2])) / rng.choice([1, 3])
        cycles = [(w, Fraction(rng.choice([1, -1, 2, 3])) / rng.choice([1, 2]))
                  for w in _closed_walks(rng, Q, rng.randint(1, 4))]
        qp = QuiverWithPotential(Q, Potential.from_paths(Q, [(word("b", "c"), kappa)] + cycles))
        b_over_kappa = {"b": NCPoly.of_path(word("b"), 1 / kappa)}
        rescaled = QuiverWithPotential(Q, substitute_arrow(Q, qp.potential, b_over_kappa))
        outcomes = []
        for case in (qp, rescaled):
            try:
                outcomes.append(reduce_trivial(case))
            except UnsupportedReductionError:
                outcomes.append(None)
        assert outcomes[0] == outcomes[1]
        answered += outcomes[0] is not None and not outcomes[0].potential.is_zero()
    assert answered > 50


def test_reduce_trivial_strictly_fewer_arrows_property():
    rng = random.Random(23)
    for _ in range(10):
        Q = _two_cycle_tail_quiver()
        qp = QuiverWithPotential(
            Q,
            Potential.from_paths(
                Q, [(word("a", "b"), rng.choice([1, -1])), (word("b", "c", "d"), rng.randint(-2, 2))]
            ),
        )
        out = reduce_trivial(qp)
        assert len(out.quiver.arrows) < len(Q.arrows)
        from quiveralg.paths import quadratic_two_cycles

        assert quadratic_two_cycles(out.quiver, out.potential) == []
