"""The three workloads: set-up, the timed operation, and its output checks.

`pkg` is a namespace holding the freshly imported `quiveralg` modules.  The
benchmark calls into them through module attributes (`pkg.shuffle.
shuffle_mul`, not an imported name), so the traced run sees its calls too.
Checks run after the timed region and return a list of problems.
"""

from __future__ import annotations

from fractions import Fraction
from itertools import product
from typing import Callable, NamedTuple

import inputs
import oracle

# ---------------------------------------------------------------------------
# contraction_homomorphism: both sides of c(f*g) = c(f)*c(g)


def contraction_setup(pkg, spec):
    doc = pkg.qpformat.parse_qp(spec["text"])
    f, g = doc.elements
    return f, g, spec["arrow"]


def contraction_run(pkg, inp):
    sh = pkg.shuffle
    f, g, a0 = inp
    product_ = sh.shuffle_mul(f, g)
    lhs = sh.contract_shuffle(product_, a0)
    rhs = sh.shuffle_mul(sh.contract_shuffle(f, a0), sh.contract_shuffle(g, a0))
    return product_, lhs, rhs


def _rename_vertex(terms, old, new):
    out = {}
    for mono, c in terms.items():
        exps = {}
        for (v, slot), e in mono:
            key = (new if v == old else v, slot)
            exps[key] = exps.get(key, 0) + e
        key = tuple(sorted(exps.items()))
        out[key] = out.get(key, 0) + c
    return {m: c for m, c in out.items() if c}


def contraction_check(_pkg, spec, out):
    product_, lhs, rhs = out
    vs, arrows, point = spec["vertices"], spec["arrows"], spec["point"]
    (g1, f), (g2, g) = spec["elements"]
    a0 = next(a for a in arrows if a[0] == spec["arrow"])
    ip, im = a0[1], a0[2]
    problems = []
    if lhs.gamma != rhs.gamma or lhs.poly.terms != rhs.poly.terms:
        problems.append("c(f*g) != c(f)*c(g)")
    gamma = {v: g1[v] + g2[v] for v in vs}
    if product_.gamma != gamma:
        problems.append(f"f*g has rank {product_.gamma}, expected {gamma}")
    expected = oracle.shuffle_sum_at(vs, inputs.arrow_counts(arrows), g1, g2, f, g, point)
    if oracle.eval_terms(product_.poly.terms, point) != expected:
        problems.append("f*g differs from the shuffle sum at the check point")
    vs_hat = tuple(v for v in vs if v != im)
    counts_hat = inputs.arrow_counts(oracle.contracted_arrows(arrows, a0[0], ip, im))
    h1 = {v: g1[v] for v in vs_hat}
    h2 = {v: g2[v] for v in vs_hat}
    expected = oracle.shuffle_sum_at(
        vs_hat, counts_hat, h1, h2, _rename_vertex(f, im, ip), _rename_vertex(g, im, ip), point
    )
    if oracle.eval_terms(rhs.poly.terms, point) != expected:
        problems.append("c(f)*c(g) differs from the shuffle sum at the check point")
    return problems


# ---------------------------------------------------------------------------
# spherical_span: one rank-one span per operation


def span_setup(pkg, spec):
    doc = pkg.qpformat.parse_qp(spec["text"])
    return doc.quiver, dict(spec["gamma"]), spec["degree"]


def span_run(pkg, inp):
    Q, gamma, d = inp
    return pkg.shuffle.spherical_span(Q, gamma, d)


def span_products(pkg, spec):
    """The products the span is built from, computed outside the timed region."""
    Q, gamma, d = span_setup(pkg, spec)
    return [p.poly.terms for p in pkg.shuffle.spherical_products(Q, gamma, d)]


def span_check(pkg, spec, basis, products=None):
    """`basis` is the span's output, `products` the rank-one products (as
    {monomial: coeff} dicts) it should span, computed when not given."""
    if products is None:
        products = span_products(pkg, spec)
    if not basis:
        return ["empty span"]
    problems = []
    if any(b.gamma != spec["gamma"] for b in basis):
        problems.append("basis element in the wrong rank sector")
    rows = [b.poly.terms for b in basis]
    order = sorted({m for p in products for m in p} | {m for r in rows for m in r},
                   key=lambda m: (len(m), m))
    problems += oracle.rref_problems(rows, order)
    index = {m: k for k, m in enumerate(order)}

    def mod_row(terms):
        return {index[m]: oracle.to_mod(c) for m, c in terms.items()}

    basis_ech = oracle.echelon_mod([mod_row(r) for r in rows])
    if len(basis_ech) != len(rows):
        problems.append(f"basis rows are dependent mod p: rank {len(basis_ech)} of {len(rows)}")
    product_ech = oracle.echelon_mod([mod_row(p) for p in products])
    if len(product_ech) != len(rows):
        problems.append(f"products have rank {len(product_ech)} mod p, basis has {len(rows)}")
    outside = sum(1 for p in products if not oracle.reduces_to_zero(basis_ech, mod_row(p)))
    if outside:
        problems.append(f"{outside} products lie outside the basis row space")
    return problems


# ---------------------------------------------------------------------------
# stability_walls: wall scans and contraction-embedding checks


def wall_setup(pkg, spec):
    doc = pkg.qpformat.parse_qp(spec["text"])
    return doc.quiver, spec


def wall_run(pkg, inp):
    Q, spec = inp
    sc = pkg.scattering
    if spec["kind"] == "eta":
        return sc.eta_embedding_check(Q, spec["arrow"], spec["maxgamma"], spec["samples"], spec["p"])
    return sc.wall_support_scan(Q, spec["maxgamma"], spec["samples"], spec["p"])


class KingOracle:
    """Verdicts of the package's brute force on the opposite quiver at
    -kappa, which must equal the verdict at kappa on the quiver itself:
    dualizing swaps subrepresentations and quotients."""

    def __init__(self, pkg, p):
        self.pkg, self.p = pkg, p

    def quiver(self, vertices, arrows):
        return self.pkg.quiver.Quiver(vertices, [self.pkg.quiver.Arrow(*a) for a in arrows])

    def opposite(self, vertices, arrows, gamma_t, kappa):
        Qop = self.quiver(vertices, oracle.opposite_arrows(arrows))
        neg = tuple(-k for k in kappa)
        return self.pkg.scattering.king_semistable_exists(Qop, gamma_t, neg, self.p).exists

    def direct(self, vertices, arrows, gamma_t, kappa):
        Q = self.quiver(vertices, arrows)
        return self.pkg.scattering.king_semistable_exists(Q, gamma_t, kappa, self.p).exists


# Bounds on the direct-sum queries one scan check may add: their number, and
# the brute-force work (representations times subspace tuples) of each.
CLOSURE_QUERIES = 4
CLOSURE_WORK = 5000


def _scan_gammas(maxgamma):
    return [g for g in product(*(range(m + 1) for m in maxgamma)) if any(g)]


def scan_check(pkg, spec, entries):
    vertices, arrows = spec["vertices"], spec["arrows"]
    king = KingOracle(pkg, spec["p"])
    problems = []
    gammas = _scan_gammas(spec["maxgamma"])
    if [tuple(e.gamma) for e in entries] != gammas:
        return [f"scan lists {[e.gamma for e in entries]}, expected {gammas}"]
    verdicts = {}
    for e in entries:
        kappas = [k for k, _ in e.verdicts]
        if kappas != inputs.projected_samples(e.gamma, spec["samples"]):
            problems.append(f"gamma {e.gamma}: sample points {kappas} are not the projections")
            continue
        for kappa, v in e.verdicts:
            verdicts[(tuple(e.gamma), kappa)] = v
            if v != king.opposite(vertices, arrows, e.gamma, kappa):
                problems.append(f"gamma {e.gamma}, kappa {kappa}: verdict differs on the opposite quiver")
            if spec["kind"] == "a2" and v != oracle.a2_closed_form(e.gamma, kappa):
                problems.append(f"A2 gamma {e.gamma}, kappa {kappa}: verdict {v} against the closed form")
    # direct sums of semistables of the same phase are semistable; sums the
    # scan did not decide are queried when small enough
    true = [key for key, v in verdicts.items() if v]
    queries = 0
    for (g1, k1), (g2, k2) in product(true, true):
        if k1 != k2 or g1 > g2:
            continue
        total = tuple(a + b for a, b in zip(g1, g2))
        v = verdicts.get((total, k1))
        if v is None:
            gamma = dict(zip(vertices, total))
            if (queries >= CLOSURE_QUERIES
                    or not oracle.in_king_caps(arrows, gamma, spec["p"])
                    or inputs.king_work(vertices, arrows, gamma, spec["p"]) > CLOSURE_WORK):
                continue
            queries += 1
            v = king.direct(vertices, arrows, total, k1)
        if not v:
            problems.append(f"{g1} + {g2} at kappa {k1}: direct sum of semistables not semistable")
    return problems


def eta_check(pkg, spec, report):
    """Re-derive the report from opposite-quiver verdicts and the embedding
    formula, and compare."""
    vs, arrows = spec["vertices"], spec["arrows"]
    a0 = next(a for a in arrows if a[0] == spec["arrow"])
    ip, im = a0[1], a0[2]
    vs_hat = tuple(v for v in vs if v != im)
    arrows_hat = oracle.contracted_arrows(arrows, a0[0], ip, im)
    king = KingOracle(pkg, spec["p"])
    expected = []
    for gamma_hat in _scan_gammas(spec["maxgamma"]):
        true_kappas = [
            k for k in inputs.projected_samples(gamma_hat, spec["samples"])
            if king.opposite(vs_hat, arrows_hat, gamma_hat, k)
        ]
        if not true_kappas:
            continue
        lift = dict(zip(vs_hat, gamma_hat))
        lift[im] = lift[ip]
        gamma_t = tuple(lift[v] for v in vs)
        found = None
        for kparam in pkg.scattering.DEFAULT_KPARAM_GRID:
            lifted = [oracle.eta_lift(k, vs_hat, vs, ip, im, Fraction(kparam)) for k in true_kappas]
            if all(king.opposite(vs, arrows, gamma_t, k) for k in lifted):
                found = kparam
                break
        expected.append((gamma_hat, found, found is not None))
    got = [(tuple(r.gamma_hat), r.kparam, r.ok) for r in report.results]
    problems = []
    if got != expected:
        problems.append(f"eta report {got} != re-derived {expected}")
    if report.ok != all(ok for _, _, ok in expected):
        problems.append("eta report's overall verdict disagrees with its results")
    return problems


def wall_check(pkg, spec, out):
    if spec["kind"] == "eta":
        return eta_check(pkg, spec, out)
    return scan_check(pkg, spec, out)


# ---------------------------------------------------------------------------


class Workload(NamedTuple):
    make_inputs: Callable  # (seed, seconds) -> operation specs
    setup: Callable  # (pkg, spec) -> the package's inputs for one operation
    run: Callable  # (pkg, inputs) -> output; the timed part
    check: Callable  # (pkg, spec, output) -> list of problems


WORKLOADS = {
    "contraction_homomorphism": Workload(
        inputs.contraction_inputs, contraction_setup, contraction_run, contraction_check
    ),
    "spherical_span": Workload(inputs.span_inputs, span_setup, span_run, span_check),
    "stability_walls": Workload(inputs.wall_inputs, wall_setup, wall_run, wall_check),
}
