"""The one reader of a representation's matrices: ``contraction.Representation``
serves ``contract_rep`` and King stability's ``hn_filtration`` alike, so both
accept, reduce and refuse the same entries."""

from __future__ import annotations

import random
import re
from fractions import Fraction

import pytest

from quiveralg.contraction import Representation, contract_rep
from quiveralg.errors import PreconditionError, QuiverAlgError
from quiveralg.linalg import GF, QQ
from quiveralg.qp import QuiverWithPotential
from quiveralg.quiver import Arrow, Quiver
from quiveralg.scattering import hn_filtration, king_semistable_exists

# Every quiver has the non-loop arrow a: 1 -> 2, the arrow contract_rep contracts.
QUIVERS = (
    Quiver(("1", "2"), [Arrow("a", "1", "2")], name="A2"),
    Quiver(("1", "2"), [Arrow("a", "1", "2"), Arrow("b", "1", "2")], name="K2"),
    Quiver(("1", "2"), [Arrow("a", "1", "2"), Arrow("b", "2", "1")], name="cycle"),
    Quiver(
        ("1", "2", "3"),
        [Arrow("a", "1", "2"), Arrow("c", "2", "3"), Arrow("l", "3", "3")],
        name="tail",
    ),
)


def _random_case(rng):
    """A quiver, a dimension vector within the brute-force caps, and
    well-formed matrices over F_2 or F_3 (ints in range(p))."""
    Q = rng.choice(QUIVERS)
    while True:
        gamma = tuple(rng.randint(1, 2) for _ in Q.vertices)
        if sum(gamma) <= 4:
            break
    dims = dict(zip(Q.vertices, gamma))
    p = rng.choice((2, 3))
    mats = {
        a.id: [[rng.randrange(p) for _ in range(dims[a.source])] for _ in range(dims[a.target])]
        for a in Q.arrows
    }
    return Q, gamma, dims, p, mats


def _malformed(rng, kind, Q, dims, p, mats):
    """``mats`` with one defect of the given kind, and the message it must
    raise."""
    rows, cols = dims["2"], dims["1"]
    bad = {k: [list(r) for r in m] for k, m in mats.items()}
    if kind == "not a matrix":
        bad["a"] = 5
        return bad, "matrix for a is not rows of rationals: 5"
    if kind in ("x", None, "1/0", "denominator"):
        entry = Fraction(1, p) if kind == "denominator" else kind
        bad["a"][rng.randrange(rows)][rng.randrange(cols)] = entry
        if kind == "denominator":
            return bad, f"matrix for a has a denominator that {p} divides"
        return bad, "matrix for a is not rows of rationals"
    if kind == "not a dict":
        return list(bad.items()), "representation matrices must be a dict, got list"
    if kind == "ragged":
        bad["a"][-1].append(0)
        return bad, f"matrix for a is not {rows}x{cols}"
    if kind == "missing arrow":
        aid = rng.choice([a.id for a in Q.arrows])
        del bad[aid]
        return bad, f"no matrix for arrow {aid}"
    assert kind == "extra arrow"
    bad["z"] = [[1]]
    return bad, r"matrices for arrows the quiver does not have: \['z'\]"


KINDS = (
    "not a matrix", "x", None, "1/0", "not a dict", "ragged",
    "missing arrow", "extra arrow", "denominator",
)


def _outcome(call):
    try:
        call()
    except QuiverAlgError as exc:
        return type(exc), str(exc)
    raise AssertionError("a malformed representation was accepted")


def test_every_entry_point_refuses_a_malformed_representation_alike():
    """A seeded corpus of malformed matrices (not a matrix, entries "x",
    None and "1/0", mats not a dict, a ragged matrix, a missing and an extra
    arrow, an entry 1/p over F_p), over QQ, F_2 and F_3: ``Representation``,
    ``contract_rep`` and, over F_p, ``hn_filtration`` raise the same
    ``PreconditionError`` with the same message, where ``Representation``
    once let a bare ``TypeError``/``ValueError``/``ZeroDivisionError``
    escape.  This catches the denominator check dropped (``pow`` raises
    ``ValueError``) and an ``hn_filtration`` path that skips the shape
    checks."""
    rng = random.Random(46)
    seen = set()
    for _ in range(120):
        Q, gamma, dims, p, mats = _random_case(rng)
        kind = rng.choice(KINDS)
        field = p if kind == "denominator" else rng.choice((QQ, p))
        bad, message = _malformed(rng, kind, Q, dims, p, mats)
        qp = QuiverWithPotential(Q)
        calls = [
            lambda: Representation(field, dims, bad, Q=Q),
            lambda: contract_rep(qp, "a", Representation(field, dims, bad)),
        ]
        if field:
            calls.append(lambda: hn_filtration(Q, gamma, bad, (1, -1, 0)[: len(gamma)], field))
        outcomes = {_outcome(call) for call in calls}
        assert len(outcomes) == 1, (kind, outcomes)
        (cls, text), = outcomes
        assert cls is PreconditionError and re.search(message, text), (kind, text)
        seen.add((kind, field))
    assert {kind for kind, _ in seen} == set(KINDS)
    assert {field for _, field in seen} == {QQ, 2, 3}


def test_contract_rep_refuses_what_is_not_a_representation():
    Q = QUIVERS[0]
    with pytest.raises(PreconditionError, match="needs a Representation, got dict"):
        contract_rep(QuiverWithPotential(Q), "a", {"a": ((1,),)})


def test_extra_arrows_of_mixed_types_are_a_precondition_error():
    """Extra arrow ids that do not sort together (an int and a str) are
    listed as text, not a bare TypeError from sorting them."""
    mats = {"a": [[1]], 1: [[1]], "z": [[1]]}
    with pytest.raises(PreconditionError, match=r"does not have: \[1, 'z'\]"):
        Representation(GF(2), {"1": 1, "2": 1}, mats, Q=QUIVERS[0])


def test_a_rational_entry_is_reduced_mod_p_and_contract_rep_inverts_it():
    """1/2 over F_3 reads as 2, an invertible M_{a0}: truncating it to 0
    called M_{a0} singular.  Catches truncation by ``int(x) % p``."""
    Q = Quiver(("+", "-", "3"), [Arrow("a0", "+", "-"), Arrow("y", "3", "-")])
    dims = {"+": 1, "-": 1, "3": 1}
    qp = QuiverWithPotential(Q)
    for field, half, inverse in ((GF(3), 2, 2), (GF(5), 3, 2), (QQ, Fraction(1, 2), 2)):
        M = Representation(field, dims, {"a0": [[Fraction(1, 2)]], "y": [["1"]]}, Q=Q)
        assert M.mats == {"a0": ((half,),), "y": ((1,),)}
        assert contract_rep(qp, "a0", M).mats == {"a0^-1*y": ((inverse,),)}
    assert Representation(GF(5), dims, {"a0": [["2/3"]], "y": [[-1]]}).mats == {
        "a0": ((4,),), "y": ((4,),),
    }


def _reduce_by_search(x, p):
    """The r in range(p) with r * d = n mod p, for the rational x = n/d."""
    q = Fraction(x)
    return next(r for r in range(p) if (r * q.denominator - q.numerator) % p == 0)


def test_hn_filtration_reads_entries_mod_p():
    """Integer entries outside range(p) (-1, 5 and Fraction(1) over F_2
    among them) and rationals whose denominator p does not divide give the
    filtration of the reduced matrices, reduced here by search.
    ``hn_filtration`` once refused every entry outside range(p).  Catches
    truncation by ``int(x) % p``."""
    A2 = QUIVERS[0]
    for entry in (-1, 5, Fraction(1)):
        got = hn_filtration(A2, (1, 1), {"a": ((entry,),)}, (1, -1), 2)
        assert got == hn_filtration(A2, (1, 1), {"a": ((1,),)}, (1, -1), 2)
        assert got != hn_filtration(A2, (1, 1), {"a": ((0,),)}, (1, -1), 2)
    rng = random.Random(4646)
    pool = [*range(-7, 8), Fraction(-5, 7), Fraction(7, 5), Fraction(11, 35), "-4/7"]
    for _ in range(60):
        Q, gamma, dims, p, _ = _random_case(rng)
        raw = {
            a.id: [[rng.choice(pool) for _ in range(dims[a.source])] for _ in range(dims[a.target])]
            for a in Q.arrows
        }
        reduced = {
            k: tuple(tuple(_reduce_by_search(x, p) for x in row) for row in m)
            for k, m in raw.items()
        }
        assert Representation(p, dims, raw, Q=Q).mats == reduced
        kappa = tuple(rng.randint(-2, 2) for _ in gamma)
        want = hn_filtration(Q, gamma, reduced, kappa, p)
        assert hn_filtration(Q, gamma, raw, kappa, p) == want


def test_a_king_witness_goes_through_hn_filtration_unchanged():
    """A semistable witness of ``king_semistable_exists`` reads back as
    itself and has the one-step filtration (slope 0, gamma)."""
    rng = random.Random(460)
    witnesses = 0
    for _ in range(40):
        Q, gamma, dims, p, _ = _random_case(rng)
        kappa = [Fraction(rng.randint(-2, 2)) for _ in gamma[:-1]]
        kappa.append(-sum(k * g for k, g in zip(kappa, gamma)) / gamma[-1])
        verdict = king_semistable_exists(Q, gamma, kappa, p)
        if not verdict.exists:
            continue
        witnesses += 1
        assert Representation(p, dims, verdict.witness, Q=Q).mats == verdict.witness
        assert hn_filtration(Q, gamma, verdict.witness, kappa, p) == ((Fraction(0), gamma),)
    assert witnesses >= 10
