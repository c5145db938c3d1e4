"""The benchmark's own tests: every output check accepts the package's real
output and rejects a corrupted copy of it.

    python3 -m pytest perfbench/test_checks.py -q     (from the repository root)
"""

import sys
from pathlib import Path
from types import SimpleNamespace

HERE = Path(__file__).resolve().parent
sys.path.insert(0, str(HERE.parent / "src"))
sys.path.insert(0, str(HERE))

import pytest  # noqa: E402

import inputs  # noqa: E402
import oracle  # noqa: E402
import workloads  # noqa: E402
from run import import_package, tail_index  # noqa: E402
from tracing import Tracer  # noqa: E402

SEED = 7


@pytest.fixture(scope="module")
def pkg():
    return import_package()


def _fake(sp, terms):
    """A stand-in for a SymPoly with other coefficients."""
    return SimpleNamespace(gamma=dict(sp.gamma), poly=SimpleNamespace(terms=terms))


def _flip_one_sign(sp):
    terms = dict(sp.poly.terms)
    mono = next(iter(terms))
    terms[mono] = -terms[mono]
    return _fake(sp, terms)


@pytest.fixture(scope="module")
def contraction_case(pkg):
    specs = [s for s in inputs.contraction_inputs(SEED, 1) if s["tier"] == "small"]
    for spec in specs:
        out = workloads.contraction_run(pkg, workloads.contraction_setup(pkg, spec))
        if not out[0].poly.is_zero() and not out[2].poly.is_zero():
            return spec, out
    pytest.skip("no small case with non-zero products")


def test_contraction_check_accepts_real_output(contraction_case):
    spec, out = contraction_case
    assert workloads.contraction_check(None, spec, out) == []


def test_contraction_check_rejects_flipped_sign_in_product(contraction_case):
    spec, (product_, lhs, rhs) = contraction_case
    problems = workloads.contraction_check(None, spec, (_flip_one_sign(product_), lhs, rhs))
    assert any("f*g differs" in p for p in problems)


def test_contraction_check_rejects_flipped_sign_on_one_side(contraction_case):
    spec, (product_, lhs, rhs) = contraction_case
    problems = workloads.contraction_check(None, spec, (product_, lhs, _flip_one_sign(rhs)))
    assert "c(f*g) != c(f)*c(g)" in problems
    assert any("c(f)*c(g) differs" in p for p in problems)


@pytest.fixture(scope="module")
def span_case(pkg):
    for spec in inputs.span_inputs(SEED, 1):
        if spec["tier"] == "small":
            basis = workloads.span_run(pkg, workloads.span_setup(pkg, spec))
            if len(basis) >= 3:
                return spec, basis, workloads.span_products(pkg, spec)
    pytest.skip("no small span with three basis rows")


def test_span_check_accepts_real_output(span_case):
    spec, basis, products = span_case
    assert basis
    assert workloads.span_check(None, spec, basis, products) == []


def test_span_check_rejects_dropped_basis_row(span_case):
    spec, basis, products = span_case
    problems = workloads.span_check(None, spec, basis[:-1], products)
    assert any("outside the basis row space" in p for p in problems)
    assert any("products have rank" in p for p in problems)


def test_span_check_rejects_rows_out_of_echelon_form(span_case):
    spec, basis, products = span_case
    merged = dict(basis[0].poly.terms)
    for m, c in basis[1].poly.terms.items():
        merged[m] = merged.get(m, 0) + c
    problems = workloads.span_check(None, spec, [_fake(basis[0], merged)] + basis[1:], products)
    assert any("pivot column" in p for p in problems)


def test_span_check_rejects_empty_span(span_case):
    spec, _basis, products = span_case
    assert workloads.span_check(None, spec, [], products) == ["empty span"]


@pytest.fixture(scope="module")
def wall_cases(pkg):
    specs = inputs.wall_inputs(SEED, 1)
    cases = {}
    for spec in specs:
        out = workloads.wall_run(pkg, workloads.wall_setup(pkg, spec))
        if spec["kind"] == "eta" and not out.results:
            continue
        cases.setdefault(spec["kind"], (spec, out))
    return cases


def _flip_first_verdict(entries):
    e = entries[0]
    (kappa, v), *rest = e.verdicts
    return [e._replace(verdicts=((kappa, not v), *rest))] + list(entries[1:])


@pytest.mark.parametrize("kind", ["scan", "a2", "eta"])
def test_wall_check_accepts_real_output(pkg, wall_cases, kind):
    spec, out = wall_cases[kind]
    assert workloads.wall_check(pkg, spec, out) == []


@pytest.mark.parametrize("kind", ["scan", "a2"])
def test_scan_check_rejects_flipped_verdict(pkg, wall_cases, kind):
    spec, entries = wall_cases[kind]
    first = next(k for k, e in enumerate(entries) if e.verdicts)
    flipped = entries[:first] + _flip_first_verdict(entries[first:])
    problems = workloads.wall_check(pkg, spec, flipped)
    assert any("opposite quiver" in p for p in problems)
    if kind == "a2":
        assert any("closed form" in p for p in problems)


def test_eta_check_rejects_flipped_verdict(pkg, wall_cases):
    spec, report = wall_cases["eta"]
    r = report.results[0]
    flipped = r._replace(ok=not r.ok, kparam=None if r.ok else r.kparam)
    bad = report._replace(results=(flipped,) + report.results[1:])
    assert workloads.wall_check(pkg, spec, bad)


def test_a2_closed_form_matches_criterion_8():
    # criterion 8's wall list of A2 at maxgamma (1,1) on the coordinate axes
    half = oracle.Fraction(1, 2)
    assert oracle.a2_closed_form((1, 0), (0, 1))
    assert oracle.a2_closed_form((0, 1), (1, 0))
    assert oracle.a2_closed_form((1, 1), (half, -half))
    assert not oracle.a2_closed_form((1, 1), (-half, half))


def test_point_oracle_matches_a_hand_computed_product():
    # one vertex, no arrows, f = x and g = 1 of rank one each:
    # f*g = x1/(x2 - x1) + x2/(x1 - x2) = -1
    point = {("v", 1): oracle.Fraction(2), ("v", 2): oracle.Fraction(5)}
    f = {((("v", 1), 1),): oracle.Fraction(1)}
    g = {(): oracle.Fraction(1)}
    assert oracle.shuffle_sum_at(("v",), {}, {"v": 1}, {"v": 1}, f, g, point) == -1


def test_echelon_mod_rank_and_membership():
    rows = [{0: 1, 1: 2}, {0: 2, 1: 4}, {1: 1, 2: 1}]
    basis = oracle.echelon_mod(rows)
    assert len(basis) == 2
    assert oracle.reduces_to_zero(basis, {0: 3, 1: 7, 2: 1})
    assert not oracle.reduces_to_zero(basis, {2: 1})


def test_tail_index_leaves_ten_operations_beyond():
    assert tail_index(500) == 489
    assert 500 - 1 - tail_index(500) == 10
    assert tail_index(5) == 0


def test_tracer_restores_every_wrapped_function(pkg):
    before = (pkg.shuffle.shuffle_mul, pkg.shuffle.rref, pkg.linalg.rref,
              pkg.poly.Poly.__mul__, pkg.shuffle.SymPoly.__init__)
    tracer = Tracer()
    tracer.install(pkg)
    assert pkg.shuffle.rref is not before[1] and pkg.linalg.rref is pkg.shuffle.rref
    spec = next(s for s in inputs.span_inputs(SEED, 1) if s["tier"] == "small")
    workloads.span_run(pkg, workloads.span_setup(pkg, spec))
    tracer.uninstall()
    after = (pkg.shuffle.shuffle_mul, pkg.shuffle.rref, pkg.linalg.rref,
             pkg.poly.Poly.__mul__, pkg.shuffle.SymPoly.__init__)
    assert after == before
    metrics = tracer.metrics()
    assert metrics["linalg.rref_calls"][0] == 1
    assert metrics["shuffle.mul_calls"][0] > 0
    assert metrics["shuffle.mul_self_s"][0] <= metrics["shuffle.mul_s"][0]


def test_tracer_metrics_are_the_per_layer_metrics_of_the_benchmark():
    import json

    declared = json.loads((HERE.parent / "BENCHMARK.json").read_text())["per_layer"]
    assert {m["name"]: m["unit"] for m in declared} == {
        k: u for k, (_v, u) in Tracer().metrics().items()
    }
