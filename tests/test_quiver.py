"""Euler forms, doubles, and contraction of dimension/framing vectors."""

from __future__ import annotations

import random

import pytest
from hypothesis import given, strategies as st

from quiveralg.errors import DimensionVectorError, PreconditionError
from quiveralg.poly import Poly
from quiveralg.quiver import (
    Arrow,
    Quiver,
    antisym_form,
    contract_vectors,
    double_quiver,
    euler_form,
)
from quiveralg.shuffle import SymPoly

from conftest import a2_quiver, jordan_quiver, random_dimvec, random_quiver


def test_euler_form_a2_off_diagonal():
    Q = a2_quiver()
    assert euler_form(Q, {"1": 1, "2": 0}, {"1": 0, "2": 1}) == -1


def test_mixed_key_types_are_a_dimension_vector_error():
    """Keys that do not sort together (an int and a str) still give the
    typed error; sorting them for the message raised a bare TypeError."""
    Q = a2_quiver()
    mixed = {1: 1, "a": 0}
    message = r"keys \[1, 'a'\] != vertices \['1', '2'\]"
    with pytest.raises(DimensionVectorError, match=message):
        euler_form(Q, mixed, {"1": 0, "2": 1})
    with pytest.raises(DimensionVectorError, match=message):
        SymPoly(Q, mixed, Poly.const(1))


def test_euler_form_jordan_vanishes():
    Q = jordan_quiver()
    for n in range(4):
        assert euler_form(Q, {"1": n}, {"1": n}) == 0


def test_euler_form_a2_diagonal():
    Q = a2_quiver()
    assert euler_form(Q, {"1": 1, "2": 1}, {"1": 1, "2": 1}) == 1


def test_euler_form_key_mismatch():
    Q = a2_quiver()
    with pytest.raises(DimensionVectorError):
        euler_form(Q, {"1": 1}, {"1": 0, "2": 1})


def test_antisym_form_values():
    Q = a2_quiver()
    g1, g2 = {"1": 1, "2": 0}, {"1": 0, "2": 1}
    assert antisym_form(Q, g1, g2) == -1
    assert antisym_form(Q, g1, g1) == 0
    sym = Quiver(["1", "2"], [Arrow("a", "1", "2"), Arrow("b", "2", "1")])
    assert antisym_form(sym, g1, g2) == 0


def test_double_quiver_shapes():
    Q = a2_quiver()
    D = double_quiver(Q)
    assert sorted(a.id for a in D.arrows) == ["a", "a*"]
    assert D.arrow("a*").source == "2" and D.arrow("a*").target == "1"
    J = double_quiver(jordan_quiver())
    assert sorted(a.id for a in J.arrows) == ["l", "l*"]
    E = Quiver(["1"], [])
    assert double_quiver(E).arrows == ()


def test_double_quiver_symmetrizes_counts():
    rng = random.Random(7)
    for _ in range(20):
        Q = random_quiver(rng)
        D = double_quiver(Q)
        assert len(D.arrows) == 2 * len(Q.arrows)
        for i in D.vertices:
            for j in D.vertices:
                assert D.arrow_count(i, j) == D.arrow_count(j, i) or i != j
                assert D.arrow_count(i, j) == Q.arrow_count(i, j) + Q.arrow_count(j, i)


def test_contract_vectors_merges_framing():
    Q = Quiver(["i+", "i-", "j"], [Arrow("a0", "i+", "i-")])
    g = {"i+": 2, "i-": 2, "j": 3}
    w = {"i+": 1, "i-": 1, "j": 0}
    ghat, what = contract_vectors(Q, "a0", g, w)
    assert ghat == {"i+": 2, "j": 3}
    assert what == {"i+": 2, "j": 0}


def test_contract_vectors_trivial_and_errors():
    Q = Quiver(["i+", "i-", "j"], [Arrow("a0", "i+", "i-"), Arrow("l", "j", "j")])
    ghat, what = contract_vectors(Q, "a0", {"i+": 0, "i-": 0, "j": 1}, {"i+": 0, "i-": 0, "j": 0})
    assert ghat == {"i+": 0, "j": 1} and what == {"i+": 0, "j": 0}
    with pytest.raises(PreconditionError):
        contract_vectors(Q, "a0", {"i+": 1, "i-": 2, "j": 0}, {"i+": 0, "i-": 0, "j": 0})
    with pytest.raises(PreconditionError):
        contract_vectors(Q, "l", {"i+": 0, "i-": 0, "j": 1}, {"i+": 0, "i-": 0, "j": 0})


@given(st.integers(0, 5), st.integers(0, 5), st.integers(0, 5), st.integers(0, 5), st.integers(0, 6))
def test_euler_form_bilinear(x1, x2, y1, y2, seed):
    rng = random.Random(seed)
    Q = random_quiver(rng)
    g1 = random_dimvec(rng, Q)
    g1p = random_dimvec(rng, Q)
    g2 = random_dimvec(rng, Q)
    lhs = euler_form(Q, {v: x1 * g1[v] + x2 * g1p[v] for v in Q.vertices}, g2)
    rhs = x1 * euler_form(Q, g1, g2) + x2 * euler_form(Q, g1p, g2)
    assert lhs == rhs
    del y1, y2


def test_antisym_antisymmetric_random():
    rng = random.Random(11)
    for _ in range(50):
        Q = random_quiver(rng)
        g1, g2 = random_dimvec(rng, Q), random_dimvec(rng, Q)
        assert antisym_form(Q, g1, g2) == -antisym_form(Q, g2, g1)


def test_euler_form_preserved_under_vector_contraction():
    """The a0-arrow term cancels the lost diagonal i- term, so the Euler
    form of the contracted quiver on contracted vectors agrees with the
    original on the equal sector."""
    from quiveralg.contraction import contract_quiver

    rng = random.Random(13)
    cases = 0
    while cases < 200:
        Q = random_quiver(rng, max_vertices=4, max_arrows=6)
        candidates = [a for a in Q.arrows if a.source != a.target]
        if not candidates:
            continue
        a0 = rng.choice(candidates)
        g1 = random_dimvec(rng, Q)
        g2 = random_dimvec(rng, Q)
        g1[a0.target] = g1[a0.source]
        g2[a0.target] = g2[a0.source]
        Qhat, _, _ = contract_quiver(Q, a0.id)
        h1 = {v: g1[v] for v in Qhat.vertices}
        h2 = {v: g2[v] for v in Qhat.vertices}
        assert euler_form(Qhat, h1, h2) == euler_form(Q, g1, g2)
        cases += 1
