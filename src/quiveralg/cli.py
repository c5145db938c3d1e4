"""Command-line interface: parse text documents, run the algebra, print
canonical byte-stable output.

Subcommands
    contract --arrow A FILE    contract the designated arrow, print the result
    higgs --arrow A FILE       integrate out cubic mass pairs, then contract
    mutate --vertex V FILE     mutation at V (premutation + trivial reduction)
    shuffle-mul FILE           product of the first two element entries
    contract-shuffle --arrow A FILE
                               image of the first element entry under contraction
    spherical-span --gamma G --degree D FILE
                               row-reduced basis of rank-one generator products
    pair FILE                  skew pairing of the first two element entries
    walls --max-gamma G [--field P] FILE
                               brute-force wall scan, line-oriented export
    eta-check --arrow A --max-gamma G [--field P] FILE
                               contracted walls embed into walls of the source
    verify SUITE [--seed N]    self-contained verification suites

Exit codes: 0 success; 1 verification failure; 2 parse error; 3 precondition
violation; 4 outside implemented scope or unsupported reduction.

Environment overrides, read once per command into one ``scattering.Limits``
that the command passes down: QUIVERALG_MAX_DIM (stability brute-force
total dimension bound), QUIVERALG_MAX_ENUM (representation enumeration
bound), QUIVERALG_FIELDS (comma-separated admissible primes; any other value
exits 3), QUIVERALG_TRUNCATION (quantum-torus truncation used by the
verification suites).  A value that does not parse exits 3.
"""

import argparse
import os
import random
import sys

from .contraction import contract_qp, contract_quiver, higgs
from .errors import PreconditionError, QPParseError, QuiverAlgError
from .hopf import (
    coassociativity_check,
    contraction_ratio_check,
    double_cross_check,
    skew_pairing,
)
from .linalg import GF
from .mutation import mutate, theorem_check_366
from .paths import Path, Potential, Sym
from .poly import Poly, xvar
from .preprojective import adhm_elimination_check, contract_triple_check
from .qp import QuiverWithPotential
from .qpformat import QPDocument, parse_qp, print_element, print_qp
from .quiver import Arrow, Quiver, contraction_ends, euler_form
from .scattering import (
    LIMITS,
    GComplex,
    PathSpec,
    QuantumTorusElement,
    Wall,
    consistency_check,
    eta_embedding_check,
    format_vector,
    wall_scan_lines,
    wall_support_scan,
)
from .shuffle import SymPoly, contract_shuffle, shuffle_mul, spherical_span

DEFAULT_SEED = 20260814


def _primes(text):
    primes = tuple(GF(int(x)) for x in text.split(",") if x.strip())
    if not primes:
        raise ValueError(f"QUIVERALG_FIELDS names no prime: {text!r}")
    return primes


# (variable, Limits field, parser), parsed in this order
_ENV_OVERRIDES = (
    ("QUIVERALG_MAX_DIM", "max_total_dim", int),
    ("QUIVERALG_MAX_ENUM", "max_enumeration", int),
    ("QUIVERALG_FIELDS", "fields", _primes),
    ("QUIVERALG_TRUNCATION", "truncation", int),
)


def _limits_from_env(env):
    """``LIMITS`` with the overrides set in ``env``."""
    try:
        return LIMITS._replace(
            **{f: parse(env[var]) for var, f, parse in _ENV_OVERRIDES if var in env}
        )
    except (ValueError, PreconditionError) as exc:
        raise PreconditionError(f"bad environment override: {exc}") from exc


# ---------------------------------------------------------------------------
# shared helpers


def _read_doc(path):
    with open(path, encoding="utf-8") as fh:
        return parse_qp(fh.read())


def _doc_of(qp):
    return QPDocument(qp.quiver.name, qp.quiver, qp.potential, qp.inverted)


def _parse_ranks(spec, Q, what):
    gamma = {v: 0 for v in Q.vertices}
    seen = set()
    for piece in spec.split(","):
        piece = piece.strip()
        if not piece:
            continue
        name, eq, val = piece.partition("=")
        name, val = name.strip(), val.strip()
        if not eq:
            raise PreconditionError(f"{what}: expected 'vertex=rank', got {piece!r}")
        if name not in gamma:
            raise PreconditionError(f"{what}: unknown vertex {name!r}")
        if name in seen:
            raise PreconditionError(f"{what}: duplicate rank for vertex {name!r}")
        seen.add(name)
        if not (val.isascii() and val.isdigit()):
            raise PreconditionError(
                f"{what}: rank must be a nonnegative integer, got {val!r}"
            )
        gamma[name] = int(val)
    return gamma


def _default_samples(n):
    out = []
    for k in range(n):
        e = [0] * n
        e[k] = 1
        out.append(tuple(e))
        out.append(tuple(-x for x in e))
    out.append((1,) * n)
    out.append((-1,) * n)
    return tuple(out)


def _need_elements(doc, count, command):
    if len(doc.elements) < count:
        noun = "entry" if count == 1 else "entries"
        raise PreconditionError(
            f"{command} needs {count} 'gamma:' element {noun} in the input file, "
            f"found {len(doc.elements)}"
        )


# ---------------------------------------------------------------------------
# subcommands


def cmd_contract(args):
    doc = _read_doc(args.file)
    sys.stdout.write(print_qp(_doc_of(contract_qp(doc.qp(), args.arrow))))
    return 0


def cmd_higgs(args):
    doc = _read_doc(args.file)
    sys.stdout.write(print_qp(_doc_of(higgs(doc.qp(), args.arrow))))
    return 0


def cmd_mutate(args):
    doc = _read_doc(args.file)
    report = mutate(doc.qp(), args.vertex)
    sys.stdout.write(print_qp(_doc_of(report.reduced)))
    return 0


def cmd_shuffle_mul(args):
    doc = _read_doc(args.file)
    _need_elements(doc, 2, "shuffle-mul")
    print(print_element(shuffle_mul(doc.elements[0], doc.elements[1])))
    return 0


def cmd_contract_shuffle(args):
    doc = _read_doc(args.file)
    _need_elements(doc, 1, "contract-shuffle")
    print(print_element(contract_shuffle(doc.elements[0], args.arrow)))
    return 0


def cmd_spherical_span(args):
    doc = _read_doc(args.file)
    gamma = _parse_ranks(args.gamma, doc.quiver, "--gamma")
    basis = spherical_span(doc.quiver, gamma, args.degree)
    for sp in basis:
        print(print_element(sp))
    print(f"rank: {len(basis)}")
    return 0


def cmd_pair(args):
    doc = _read_doc(args.file)
    _need_elements(doc, 2, "pair")
    print(f"pair: {skew_pairing(doc.elements[0], doc.elements[1])}")
    return 0


def cmd_walls(args):
    doc = _read_doc(args.file)
    Q = doc.quiver
    maxgamma = _parse_ranks(args.max_gamma, Q, "--max-gamma")
    entries = wall_support_scan(
        Q, maxgamma, _default_samples(len(Q.vertices)), p=args.field, limits=args.limits
    )
    for line in wall_scan_lines(Q, entries):
        print(line)
    return 0


def cmd_eta_check(args):
    doc = _read_doc(args.file)
    Q = doc.quiver
    Qhat, _, _ = contract_quiver(Q, args.arrow)
    ranks = _parse_ranks(args.max_gamma, Qhat, "--max-gamma")
    maxgamma_hat = tuple(ranks[v] for v in Qhat.vertices)
    samples = _default_samples(len(Qhat.vertices))
    report = eta_embedding_check(
        Q, args.arrow, maxgamma_hat, samples, p=args.field, limits=args.limits
    )
    for r in report.results:
        kp = "none" if r.kparam is None else str(r.kparam)
        print(
            f"gamma_hat={format_vector(Qhat, r.gamma_hat)}; kparam={kp}; "
            f"ok={'true' if r.ok else 'false'}"
        )
    print(f"eta: {'ok' if report.ok else 'FAIL'}")
    return 0 if report.ok else 1


# ---------------------------------------------------------------------------
# verification suites (self-contained fixtures, deterministic under --seed)

EXAMPLE31 = """\
quiver showcase
vertices: i+, i-, 1, 2
arrows: a0: i+ -> i-; a1: i- -> i+; a2: i+ -> i-; l1: i- -> i-; l2: i- -> i-; b: i- -> 1; c: 1 -> 2; d: 2 -> i-
potential: 1 * a1.l1.l1.l2.l2.l2.a0 + 1 * l1.d.c.b
"""

EXAMPLE31_CONTRACTED_POTENTIAL = (
    "1 * a0^-1*d.c.b*a0.a0^-1*l1*a0"
    " + 1 * a0^-1*l1*a0.a0^-1*l1*a0.a0^-1*l2*a0.a0^-1*l2*a0.a0^-1*l2*a0.a1*a0"
)


def _qp(vertices, arrows, terms=()):
    Q = Quiver(vertices, [Arrow(*a) for a in arrows])
    W = Potential.from_paths(
        Q, ((Path(tuple(Sym(x) for x in letters)), coeff) for coeff, *letters in terms)
    )
    return QuiverWithPotential(Q, W)


def suite_example31(seed, limits):
    doc = parse_qp(EXAMPLE31)
    res = contract_qp(doc.qp(), "a0")
    Qh = res.quiver
    loops = {a.id for a in Qh.arrows if a.source == a.target}
    rest = {a.id for a in Qh.arrows if a.source != a.target}
    return [
        ("vertices 4 -> 3", len(doc.quiver.vertices) == 4 and len(Qh.vertices) == 3),
        ("arrows 8 -> 7", len(doc.quiver.arrows) == 8 and len(Qh.arrows) == 7),
        (
            "four loops",
            loops == {"a1*a0", "a0^-1*a2", "a0^-1*l1*a0", "a0^-1*l2*a0"},
        ),
        ("three non-loop arrows", rest == {"b*a0", "c", "a0^-1*d"}),
        (
            "contracted potential",
            str(res.potential) == EXAMPLE31_CONTRACTED_POTENTIAL,
        ),
    ]


def suite_fermion(seed, limits):
    loop_free = Quiver(["u"], [])
    one = SymPoly(loop_free, {"u": 1}, 1)
    jordan = Quiver(["u"], [Arrow("l", "u", "u")])
    onej = SymPoly(jordan, {"u": 1}, 1)
    return [
        ("loop-free vertex: 1*1 = 0", shuffle_mul(one, one).poly.is_zero()),
        ("jordan vertex: 1*1 = 2", shuffle_mul(onej, onej).poly == Poly.const(2)),
    ]


def _random_instance(rng):
    while True:
        nv = rng.randint(2, 3)
        vertices = [f"v{k}" for k in range(1, nv + 1)]
        arrows = [
            Arrow(f"a{k}", rng.choice(vertices), rng.choice(vertices))
            for k in range(rng.randint(1, 4))
        ]
        nonloop = [a for a in arrows if a.source != a.target]
        if nonloop:
            return Quiver(vertices, arrows), rng.choice(nonloop).id


def _power_sum(gamma, v, k):
    p = Poly.zero()
    for slot in range(1, gamma[v] + 1):
        p = p + Poly.var(xvar(v, slot), k)
    return p


def _random_sympoly(rng, Q, gamma):
    poly = Poly.const(rng.randint(1, 3))
    for _ in range(rng.randint(0, 2)):
        v = rng.choice(Q.vertices)
        if gamma[v] > 0:
            poly = poly * _power_sum(gamma, v, rng.randint(1, 2))
    return SymPoly(Q, gamma, poly)


def suite_homomorphism(seed, limits):
    rng = random.Random(seed)
    trials = 25
    mult_ok = euler_ok = 0
    for _ in range(trials):
        Q, a0 = _random_instance(rng)
        ip, im = contraction_ends(Q, a0)
        g1 = {v: rng.randint(0, 1) for v in Q.vertices}
        g1[im] = g1[ip]
        g2 = {v: rng.randint(0, 1) for v in Q.vertices}
        g2[im] = g2[ip]
        f = _random_sympoly(rng, Q, g1)
        g = _random_sympoly(rng, Q, g2)
        lhs = contract_shuffle(shuffle_mul(f, g), a0)
        rhs = shuffle_mul(contract_shuffle(f, a0), contract_shuffle(g, a0))
        mult_ok += lhs == rhs
        Qh, _, _ = contract_quiver(Q, a0)
        h1 = {v: g1[v] for v in Qh.vertices}
        h2 = {v: g2[v] for v in Qh.vertices}
        euler_ok += euler_form(Q, g1, g2) == euler_form(Qh, h1, h2)
    return [
        (f"contraction is multiplicative ({trials} random cases)", mult_ok == trials),
        (f"euler form preserved ({trials} random cases)", euler_ok == trials),
    ]


def suite_mutation366(seed, limits):
    a0 = ("a0", "i+", "i-")
    sole_source = [
        _qp(["j", "k", "i+", "i-"], [("a", "j", "i+"), a0, ("b", "k", "i-")]),
        _qp(
            ["j", "k", "i+", "i-"],
            [("a", "j", "i+"), a0, ("c", "i-", "k"), ("e", "k", "j")],
            [(1, "e", "c", "a0", "a")],
        ),
        _qp(
            ["j", "k", "m", "i+", "i-"],
            [("a", "j", "i+"), a0, ("b", "k", "i-"), ("c", "i-", "m")],
        ),
    ]
    sole_target = [
        _qp(["m", "i+", "i-"], [("d", "i+", "m"), a0]),
        _qp(
            ["j", "k", "m", "i+", "i-"],
            [("a", "j", "i+"), ("d", "i+", "m"), a0, ("c", "i-", "k")],
        ),
        _qp(
            ["j", "k", "m", "i+", "i-"],
            [
                ("a", "j", "i+"),
                ("d", "i+", "m"),
                a0,
                ("c", "i-", "k"),
                ("e", "k", "j"),
            ],
            [(1, "e", "c", "a0", "a")],
        ),
    ]
    checks = []
    for idx, qp in enumerate(sole_source):
        checks.append(
            (f"sole-source instance {idx}", theorem_check_366(qp, "a0").ok)
        )
    for idx, qp in enumerate(sole_target):
        checks.append(
            (f"sole-target instance {idx}", theorem_check_366(qp, "a0").ok)
        )
    return checks


def suite_adhm(seed, limits):
    a2 = Quiver(["1", "2"], [Arrow("a", "1", "2")])
    kron = Quiver(["1", "2"], [Arrow("a", "1", "2"), Arrow("b", "1", "2")])
    return [
        ("A2 triple contraction", contract_triple_check(a2, "a")),
        ("A2 relation elimination", adhm_elimination_check(a2, "a")),
        ("Kronecker triple contraction", contract_triple_check(kron, "a")),
        ("Kronecker relation elimination", adhm_elimination_check(kron, "a")),
    ]


def suite_hopf(seed, limits):
    a2 = Quiver(["1", "2"], [Arrow("a", "1", "2")])
    kron = Quiver(["1", "2"], [Arrow("a", "1", "2"), Arrow("b", "1", "2")])
    rank11 = {"1": 1, "2": 1}
    f = SymPoly(a2, rank11, Poly.var(xvar("1", 1)))
    g = SymPoly(a2, rank11, Poly.var(xvar("2", 1)))
    return [
        ("ratio identity on A2 at (1,1)", contraction_ratio_check(a2, "a", rank11)),
        (
            "ratio identity on A2 at (2,2)",
            contraction_ratio_check(a2, "a", {"1": 2, "2": 2}),
        ),
        (
            "ratio identity on Kronecker at (1,1)",
            contraction_ratio_check(kron, "a", rank11),
        ),
        ("coproduct coassociativity", coassociativity_check(f)),
        ("double cross relation", double_cross_check(f, g, "a")),
    ]


def suite_eta(seed, limits):
    Q = Quiver(
        ("j", "i+", "i-"), [Arrow("b", "j", "i+"), Arrow("a0", "i+", "i-")], name="P3"
    )
    axes = [(1, 0), (0, 1), (-1, 0), (0, -1)]
    r2 = eta_embedding_check(Q, "a0", (1, 1), axes, p=2, limits=limits)
    r3 = eta_embedding_check(Q, "a0", (1, 1), axes, p=3, limits=limits)
    a2 = Quiver(("1", "2"), [Arrow("a", "1", "2")])
    t3 = Quiver(("1", "2", "3"), [])
    gen = QuantumTorusElement.generator
    noncommuting = GComplex(
        a2, [Wall((1, 0), gen(a2, (1, 0))), Wall((0, 1), gen(a2, (0, 1)))]
    )
    diamond = PathSpec.of([(2, 1), (-1, 2), (-2, -1), (1, -2), (2, 1)])
    commuting = GComplex(
        t3, [Wall((1, 0, 0), gen(t3, (1, 0, 0))), Wall((0, 1, 0), gen(t3, (0, 1, 0)))]
    )
    loop3 = PathSpec.of(
        [(2, 1, 1), (-1, 2, 1), (-2, -1, 1), (1, -2, 1), (2, 1, 1)]
    )
    k = limits.truncation
    separated = consistency_check(commuting, [loop3], k) and not consistency_check(
        noncommuting, [diamond], k
    )
    return [
        ("contracted walls embed over F_2", r2.ok),
        ("contracted walls embed over F_3", r3.ok),
        ("consistency separates the two-wall diagrams", separated),
    ]


SUITES = {
    "example31": suite_example31,
    "homomorphism": suite_homomorphism,
    "mutation366": suite_mutation366,
    "adhm": suite_adhm,
    "hopf": suite_hopf,
    "eta": suite_eta,
    "fermion": suite_fermion,
}


def cmd_verify(args):
    checks = SUITES[args.suite](args.seed, args.limits)
    ok = True
    for label, passed in checks:
        print(f"{label}: {'PASS' if passed else 'FAIL'}")
        ok = ok and passed
    print(f"suite {args.suite}: {'ok' if ok else 'FAIL'}")
    return 0 if ok else 1


# ---------------------------------------------------------------------------
# argument parsing and dispatch


def build_parser():
    ap = argparse.ArgumentParser(
        prog="quiveralg",
        description="Exact computer algebra for quivers with potential.",
    )
    sub = ap.add_subparsers(dest="command", required=True)

    def add(name, func, help_):
        p = sub.add_parser(name, help=help_)
        p.set_defaults(func=func)
        return p

    p = add("contract", cmd_contract, "contract an arrow of a quiver with potential")
    p.add_argument("--arrow", required=True)
    p.add_argument("file")

    p = add("higgs", cmd_higgs, "integrate out cubic mass pairs, then contract")
    p.add_argument("--arrow", required=True)
    p.add_argument("file")

    p = add("mutate", cmd_mutate, "mutation at a vertex")
    p.add_argument("--vertex", required=True)
    p.add_argument("file")

    p = add("shuffle-mul", cmd_shuffle_mul, "shuffle product of two elements")
    p.add_argument("file")

    p = add(
        "contract-shuffle",
        cmd_contract_shuffle,
        "image of an element under edge contraction",
    )
    p.add_argument("--arrow", required=True)
    p.add_argument("file")

    p = add(
        "spherical-span",
        cmd_spherical_span,
        "basis of the span of rank-one generator products",
    )
    p.add_argument("--gamma", required=True, help="ranks, e.g. 'v1=1,v2=1'")
    p.add_argument("--degree", required=True, type=int)
    p.add_argument("file")

    p = add("pair", cmd_pair, "skew pairing of two elements")
    p.add_argument("file")

    p = add("walls", cmd_walls, "brute-force stability wall scan")
    p.add_argument("--max-gamma", required=True, help="bounds, e.g. 'v1=1,v2=1'")
    p.add_argument("--field", type=int, default=2)
    p.add_argument("file")

    p = add("eta-check", cmd_eta_check, "contracted walls embed into source walls")
    p.add_argument("--arrow", required=True)
    p.add_argument("--max-gamma", required=True, help="bounds on the contracted quiver")
    p.add_argument("--field", type=int, default=2)
    p.add_argument("file")

    p = add("verify", cmd_verify, "run a named verification suite")
    p.add_argument("suite", choices=sorted(SUITES))
    p.add_argument("--seed", type=int, default=DEFAULT_SEED)

    return ap


def main(argv=None):
    args = build_parser().parse_args(argv)
    try:
        args.limits = _limits_from_env(os.environ)
        return args.func(args)
    except QPParseError as exc:
        for d in exc.diagnostics:
            print(f"error[{d.start}:{d.end}]: {d.message}", file=sys.stderr)
        return exc.exit_code
    except QuiverAlgError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return exc.exit_code
    except OSError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2


if __name__ == "__main__":
    raise SystemExit(main())
