"""The readers of numeric input in ``quiveralg.quiver``: ``check_dimvec`` is
the one reader of dimension vectors behind every layer (``read_dims`` its
entry rule), ``read_int`` reads integer arguments by the same rule, and
``read_rationals`` is the one reader of rational input.  A sweep of
ill-typed arguments over the library checks that only typed errors escape."""

from __future__ import annotations

import time
from fractions import Fraction

import pytest

from quiveralg.contraction import Representation
from quiveralg.errors import DimensionVectorError, PreconditionError, QuiverAlgError
from quiveralg.hopf import (
    contraction_ratio_check,
    localization_denominator,
    normalization_collapse_check,
    psi_action_ratio,
)
from quiveralg.poly import Poly, xvar
from quiveralg.quiver import Arrow, Quiver, contract_vectors, euler_form
from quiveralg.scattering import (
    GComplex,
    PathSpec,
    QuantumTorusElement as QT,
    Wall,
    eta_embed,
    eta_embedding_check,
    exp_truncated,
    hn_filtration,
    king_semistable_exists,
    lift_gamma,
    log_truncated,
    wall_support_scan,
)
from quiveralg.shuffle import SymPoly, spherical_membership, spherical_products, spherical_span

A2 = Quiver(("1", "2"), [Arrow("a", "1", "2")], name="A2")
KRONECKER = Quiver(("i+", "i-"), [Arrow("a0", "i+", "i-"), Arrow("a2", "i+", "i-")])
AXES = [(1, 0), (0, 1), (-1, 0), (0, -1)]
REP = {"a": ((1,),)}
E10 = QT.generator(A2, (1, 0))
F11 = SymPoly(A2, {"1": 1, "2": 1}, 1)

# Every entry point that reads a dimension vector g of A2, with the name
# check_dimvec gives the vector in its messages.
DIMVEC_READERS = {
    "SymPoly": ("rank vector", lambda g: SymPoly(A2, g, 1)),
    "euler_form": ("dimension vector", lambda g: euler_form(A2, g, {"1": 0, "2": 1})),
    "contract_vectors": ("dimension vector", lambda g: contract_vectors(A2, "a", g, (0, 0))),
    "psi_action_ratio": ("dimension vector", lambda g: psi_action_ratio(A2, "1", g)),
    "Representation": ("representation dims", lambda g: Representation(2, g, REP, Q=A2)),
    "king_semistable_exists": (
        "dimension vector", lambda g: king_semistable_exists(A2, g, (1, -1), 2)),
    "hn_filtration": ("dimension vector", lambda g: hn_filtration(A2, g, REP, (1, -1), 2)),
    "wall_support_scan": ("dimension vector", lambda g: wall_support_scan(A2, g, AXES, 2)),
    # a dict is no key, so the torus reads a dict through its generator
    "QuantumTorusElement": (
        "dimension vector",
        lambda g: QT.generator(A2, g) if isinstance(g, dict) else QT(A2, {(g, 0): 1}),
    ),
}


def _bad_dimension_vectors():
    """(g, message after the vector's name, quiver-free) for one corpus of
    bad dimension vectors of A2; a quiver-free input is one whose refusal
    is the entry rule's, which lift_gamma also applies."""
    out = []
    for entry in (1.5, "1", None, -1):
        reason = "a negative entry" if entry == -1 else "an entry that is not an integer"
        for g in ((entry, 1), {"1": entry, "2": 1}):
            out.append((g, f"{g} has {reason}", isinstance(g, dict)))
    out.append(((1,), "(1,) has 1 slots, quiver has 2 vertices", False))
    out.append(((1, 1, 0), "(1, 1, 0) has 3 slots, quiver has 2 vertices", False))
    out.append(({"1": 1}, "keys ['1'] != vertices ['1', '2']", False))
    out.append(({"1": 1, "2": 1, "3": 0}, "keys ['1', '2', '3'] != vertices ['1', '2']", False))
    out.append(({1: 1, "2": 1}, "keys [1, '2'] != vertices ['1', '2']", False))
    out.append((None, "None is neither a dict nor a sequence", False))
    return out


def _refusal(call):
    with pytest.raises(QuiverAlgError) as info:
        call()
    return type(info.value), str(info.value)


@pytest.mark.parametrize("g, message, quiver_free", _bad_dimension_vectors())
def test_every_reader_refuses_a_bad_dimension_vector_alike(g, message, quiver_free):
    for name, (what, call) in DIMVEC_READERS.items():
        assert _refusal(lambda: call(g)) == (DimensionVectorError, f"{what} {message}"), name
    if quiver_free:
        got = _refusal(lambda: lift_gamma(g, "1", "1+", "1-"))
        assert got == (DimensionVectorError, f"dimension vector {message}")
    assert issubclass(DimensionVectorError, PreconditionError)
    assert DimensionVectorError.exit_code == PreconditionError.exit_code == 3


@pytest.mark.parametrize("one", [1.0, Fraction(2, 2), True])
def test_integral_entries_and_vertex_order_tuples_read_as_ints(one):
    """Integral entries that are not ints, and tuples in vertex order, give
    the answers of plain int dicts, and every output holds ints."""
    ints = {"1": 1, "2": 1}
    for g in ({"1": one, "2": 1}, (one, 1), (1, 1)):
        chi = euler_form(A2, g, {"1": Fraction(4, 2), "2": 0.0})
        assert chi == euler_form(A2, ints, {"1": 2, "2": 0}) == 2 and type(chi) is int
        f = SymPoly(A2, g, 1)
        assert f == SymPoly(A2, ints, 1) and all(type(n) is int for n in f.gamma.values())
        x = QT.generator(A2, g)
        assert x == QT.generator(A2, (1, 1))
        assert all(type(n) is int for gamma, _ in x.terms for n in gamma)
        assert psi_action_ratio(A2, "1", g) == psi_action_ratio(A2, "1", ints)
        ghat, what = contract_vectors(A2, "a", g, (one, 0))
        assert ghat == {"1": 1} and what == {"1": 1}
        assert all(type(n) is int for n in (*ghat.values(), *what.values()))
        assert Representation(2, g, REP, Q=A2).dims == ints
        assert king_semistable_exists(A2, g, (1, -1), 2) == king_semistable_exists(
            A2, (1, 1), (1, -1), 2)
        assert hn_filtration(A2, g, REP, (1, -1), 2) == hn_filtration(A2, ints, REP, (1, -1), 2)
        assert wall_support_scan(A2, g, AXES, 2) == wall_support_scan(A2, (1, 1), AXES, 2)
    x = QT(A2, {((one, 0), 0): 1})
    assert x == QT.generator(A2, (1, 0)) and all(type(n) is int for n in next(iter(x.terms))[0])
    lifted = lift_gamma({"1": one, "2": Fraction(4, 2)}, "1", "1+", "1-")
    assert lifted == {"2": 2, "1+": 1, "1-": 1} and all(type(n) is int for n in lifted.values())


def test_symmetry_message_follows_the_callers_key_order():
    """check_dimvec keeps a dict's key order, and SymPoly names the first
    asymmetric vertex in that order."""
    Q = Quiver(("1", "2"), [])
    asym = Poly.var(xvar("1", 1)) * Poly.var(xvar("2", 1)) ** 2
    for order in (("1", "2"), ("2", "1")):
        gamma = {v: 2 for v in order}
        with pytest.raises(PreconditionError, match=f"slots of '{order[0]}'"):
            SymPoly(Q, gamma, asym)
        assert list(SymPoly(Q, gamma, 1).gamma) == list(order)


def test_integer_arguments_read_by_the_integer_rule():
    """Degrees and truncations: integral values read as ints, with any
    sign; a block rank is a dimension entry, so it is non-negative."""
    assert exp_truncated(E10, 2.0) == exp_truncated(E10, 2)
    assert exp_truncated(E10, -1) == QT.one(A2)
    assert log_truncated(exp_truncated(E10, 3), Fraction(6, 2)) == E10
    g = {"1": 1, "2": 1}
    assert spherical_span(A2, g, 1.0) == spherical_span(A2, g, 1)
    assert spherical_span(A2, g, -3) == []
    assert spherical_products(A2, g, True) == spherical_products(A2, g, 1)
    f = SymPoly(A2, g, 1)
    assert spherical_membership(f, 0.0) == spherical_membership(f, 0)
    p = Poly.var(xvar("i+", 1))
    assert normalization_collapse_check(KRONECKER, "a0", 1.0, p)
    for k, message in [("x", "has an entry that is not an integer"),
                       (-1, "has a negative entry")]:
        with pytest.raises(DimensionVectorError, match=f"block rank {k} {message}"):
            normalization_collapse_check(KRONECKER, "a0", k, p)


def test_quiver_refuses_an_arrow_that_is_not_a_triple():
    for arrow in [("a", "1"), ("a", "1", "1", "x"), 5, None]:
        with pytest.raises(PreconditionError, match="is not an .id, source, target. triple"):
            Quiver(["1"], [arrow])
    assert Quiver(["1"], [["a", "1", "1"]]).arrows == (Arrow("a", "1", "1"),)


def test_rational_inputs_refuse_with_precondition_errors():
    """The rational reader refuses what Fraction() cannot read, "1/0"
    included, at every rational input; integral and rational strings read."""
    for bad in ["x", None, float("nan"), float("inf"), "1/0"]:
        for call in (
            lambda: SymPoly(A2, {"1": 1, "2": 1}, bad),
            lambda: eta_embed({"1": bad, "2": 1}, "1", "1", "3", 1),
            lambda: eta_embed({"1": 1, "2": 1}, "1", "1", "3", bad),
            lambda: PathSpec.of([(bad, 1), (1, 1)]),
            lambda: QT(A2, {((1, 0), 0): bad}),
            lambda: GComplex(A2, [Wall((bad, 0), E10)]),
            lambda: king_semistable_exists(A2, (1, 1), (bad, 1), 2),
        ):
            with pytest.raises(PreconditionError, match="not rational"):
                call()
    assert SymPoly(A2, {"1": 1, "2": 1}, "3/2") == SymPoly(A2, {"1": 1, "2": 1}, Fraction(3, 2))
    assert eta_embed({"1": "1/2", "2": 1}, "1", "1", "3", "1") == {
        "2": 1, "1": Fraction(1, 4), "3": Fraction(1, 4)}
    assert PathSpec.of([("1/2", 1), (1, 1)]).points[0] == (Fraction(1, 2), Fraction(1))


# A fixed table of public entry points, each a call with one argument left
# to the sweep.
SWEEP = {
    "Quiver arrow": lambda x: Quiver(["1"], [x]),
    "SymPoly rank": lambda x: SymPoly(A2, {"1": x, "2": 1}, 1),
    "SymPoly constant": lambda x: SymPoly(A2, {"1": 1, "2": 1}, x),
    "euler_form": lambda x: euler_form(A2, (x, 1), (1, 1)),
    "contract_vectors framing": lambda x: contract_vectors(A2, "a", (1, 1), {"1": x, "2": 0}),
    "psi_action_ratio": lambda x: psi_action_ratio(A2, "1", (1, x)),
    "contraction_ratio_check": lambda x: contraction_ratio_check(KRONECKER, "a0", (x, x)),
    "localization_denominator": lambda x: localization_denominator(A2, (1, 0), (0, x)),
    "normalization_collapse_check": lambda x: normalization_collapse_check(
        KRONECKER, "a0", x, Poly.const(1)),
    "spherical_span degree": lambda x: spherical_span(A2, {"1": 1, "2": 1}, x),
    "spherical_products degree": lambda x: spherical_products(A2, {"1": 1, "2": 1}, x),
    "spherical_membership degree": lambda x: spherical_membership(F11, x),
    "Representation dims": lambda x: Representation(2, {"1": 1, "2": x}, REP, Q=A2),
    "Representation entry": lambda x: Representation(3, {"1": 1, "2": 1}, {"a": ((x,),)}, Q=A2),
    "king gamma": lambda x: king_semistable_exists(A2, (x, 1), (1, -1), 2),
    "king kappa": lambda x: king_semistable_exists(A2, (1, 1), (x, 1), 2),
    "hn_filtration gamma": lambda x: hn_filtration(A2, (1, x), REP, (1, -1), 2),
    "hn_filtration kappa": lambda x: hn_filtration(A2, (1, 1), REP, (1, x), 2),
    "wall_support_scan gamma": lambda x: wall_support_scan(A2, (x, 1), AXES, 2),
    "wall_support_scan sample": lambda x: wall_support_scan(A2, (1, 1), [(x, 1)], 2),
    "eta_embedding_check": lambda x: eta_embedding_check(KRONECKER, "a0", (x,), [(1,)], 2),
    "eta_embed kappa_hat": lambda x: eta_embed({"1": x, "2": 1}, "1", "1", "3", 1),
    "eta_embed kparam": lambda x: eta_embed({"1": 1, "2": 1}, "1", "1", "3", x),
    "lift_gamma": lambda x: lift_gamma({"1": 1, "2": x}, "1", "1+", "1-"),
    "QuantumTorusElement key": lambda x: QT(A2, {((x, 0), 0): 1}),
    "QuantumTorusElement coefficient": lambda x: QT(A2, {((1, 0), 0): x}),
    "QuantumTorusElement half exponent": lambda x: QT(A2, {((1, 0), x): 1}),
    "exp_truncated": lambda x: exp_truncated(E10, x),
    "log_truncated": lambda x: log_truncated(QT.one(A2) + E10, x),
    "PathSpec.of": lambda x: PathSpec.of([(x, 1), (1, 1)]),
    "GComplex normal": lambda x: GComplex(A2, [Wall((x, 0), E10)]),
}
ILL_TYPED = ("x", None, 1.5, -1, float("nan"), ("a", "1"))


def test_only_typed_errors_escape_the_library():
    """Every entry point of the table, on every ill-typed argument, returns
    or raises a QuiverAlgError; nothing else escapes."""
    escaped = []
    start = time.perf_counter()
    for name, call in SWEEP.items():
        for x in ILL_TYPED:
            try:
                call(x)
            except QuiverAlgError:
                pass
            except Exception as exc:  # noqa: BLE001 -- any other class is the failure
                escaped.append(f"{name}({x!r}): {type(exc).__name__}: {exc}")
    assert not escaped, escaped
    assert time.perf_counter() - start < 1
