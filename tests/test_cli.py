"""Command dispatch: exit codes, canonical byte-stable output, suites."""

import hashlib
import json
import os
import random
import subprocess
import sys
from fractions import Fraction
from pathlib import Path

import pytest

from quiveralg import cli
from quiveralg.cli import EXAMPLE31, main
from quiveralg.errors import ScopeError
from quiveralg.qpformat import print_element
from quiveralg.quiver import Arrow, Quiver
from quiveralg.scattering import Limits, king_semistable_exists

from conftest import random_quiver, random_sympoly

A2_ELEMENTS = """\
quiver pairq
vertices: 1, 2
arrows: a: 1 -> 2
gamma: 1=1,2=1; poly: x[1,1]*x[2,1] + 2
gamma: 1=1,2=1; poly: x[1,1] + x[2,1]
"""

EXPECTED_CONTRACTED = """\
quiver showcase_hat
vertices: i+, 1, 2
arrows: a1*a0: i+ -> i+; a0^-1*a2: i+ -> i+; a0^-1*l1*a0: i+ -> i+; a0^-1*l2*a0: i+ -> i+; b*a0: i+ -> 1; c: 1 -> 2; a0^-1*d: 2 -> i+
potential: 1 * a0^-1*d.c.b*a0.a0^-1*l1*a0 + 1 * a0^-1*l1*a0.a0^-1*l1*a0.a0^-1*l2*a0.a0^-1*l2*a0.a0^-1*l2*a0.a1*a0
"""


@pytest.fixture
def ex31(tmp_path):
    f = tmp_path / "ex31.qp"
    f.write_text(EXAMPLE31)
    return str(f)


@pytest.fixture
def pairq(tmp_path):
    f = tmp_path / "pairq.qp"
    f.write_text(A2_ELEMENTS)
    return str(f)


def run(capsys, *argv):
    code = main(list(argv))
    out = capsys.readouterr()
    return code, out.out, out.err


# ------------------------------------------------------------- contraction


def test_contract_showcase_prints_expected_bytes(ex31, capsys):
    code, out, err = run(capsys, "contract", "--arrow", "a0", ex31)
    assert code == 0
    assert err == ""
    assert out == EXPECTED_CONTRACTED


def test_output_is_byte_stable(ex31, capsys):
    runs = {run(capsys, "contract", "--arrow", "a0", ex31)[1] for _ in range(3)}
    assert len(runs) == 1


SHOWCASE_ELEMENTS = EXAMPLE31 + (
    "gamma: i+=1,i-=1,1=0,2=0; poly: x[i+,1]*x[i-,1] + 2\n"
    "gamma: i+=1,i-=1,1=0,2=0; poly: x[i+,1] + 3*x[i-,1]^2\n"
)

SEED_COMMANDS = (
    ("contract", "--arrow", "a0"),
    ("mutate", "--vertex", "1"),
    ("shuffle-mul",),
    ("contract-shuffle", "--arrow", "a0"),
    ("spherical-span", "--gamma", "i+=1,i-=1,1=0,2=0", "--degree", "2"),
    ("pair",),
    ("walls", "--max-gamma", "i+=1,i-=1,1=1,2=1"),
    ("eta-check", "--arrow", "a0", "--max-gamma", "i+=1,1=1,2=1"),
)

RUN_ALL = """
import contextlib, io, json, sys
from quiveralg.cli import main
for argv in json.loads(sys.argv[1]):
    out = io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(io.StringIO()):
        code = main(argv)
    print(code, repr(out.getvalue()))
"""


def test_cli_bytes_do_not_depend_on_the_hash_seed(tmp_path):
    """Each command's exit code and stdout on the showcase document with two
    rank-(1,1) elements, and `verify hopf`, are the same under hash seeds 0
    and 1: set order must never reach the output."""
    doc = tmp_path / "showcase.qp"
    doc.write_text(SHOWCASE_ELEMENTS)
    argvs = [[*c, str(doc)] for c in SEED_COMMANDS] + [["verify", "hopf"]]
    runs = [
        subprocess.run(
            [sys.executable, "-c", RUN_ALL, json.dumps(argvs)],
            capture_output=True, text=True, check=True, timeout=120,
            env={**os.environ, "PYTHONPATH": str(Path(cli.__file__).parents[1]),
                 "PYTHONHASHSEED": seed},
        ).stdout.splitlines()
        for seed in ("0", "1")
    ]
    assert len(runs[0]) == len(argvs)
    assert all(line.startswith("0 '") for line in runs[0])
    assert runs[0] == runs[1]


def test_contract_unknown_arrow_is_precondition(ex31, capsys):
    code, out, err = run(capsys, "contract", "--arrow", "nope", ex31)
    assert code == 3
    assert "nope" in err


def test_contract_loop_is_precondition(tmp_path, capsys):
    f = tmp_path / "loop.qp"
    f.write_text("vertices: u\narrows: l: u -> u\n")
    code, _, err = run(capsys, "contract", "--arrow", "l", str(f))
    assert code == 3


def test_higgs_cubic_term(tmp_path, capsys):
    f = tmp_path / "higgs.qp"
    f.write_text(
        "vertices: i+, i-, m\n"
        "arrows: a0: i+ -> i-; b: i- -> m; c: m -> i+; e: i- -> i+\n"
        "potential: 1 * a0.c.b + 1 * a0.e.a0.e\n"
    )
    code, out, err = run(capsys, "higgs", "--arrow", "a0", str(f))
    assert code == 0
    assert "potential: 1 * e*a0.e*a0" in out


def test_higgs_quadratic_is_unsupported(tmp_path, capsys):
    f = tmp_path / "quad.qp"
    f.write_text(
        "vertices: i+, i-\narrows: a0: i+ -> i-; e: i- -> i+\npotential: 1 * a0.e\n"
    )
    code, _, err = run(capsys, "higgs", "--arrow", "a0", str(f))
    assert code == 4


def test_higgs_skips_a_pair_whose_mass_term_was_absorbed(tmp_path, capsys):
    """The cubic a5-terms 3 * a4.a5.a6 and 3 * a5.a6.a3 share a6, so the
    contracted quadratic part 3 * (a3*a5 + a4*a5).a6 has rank one.
    Eliminating the first born pair (a4*a5, a6) substitutes a4*a5 -> -a3*a5
    and deletes a6, which leaves no quadratic term on the second pair
    (a3*a5, a6); earlier versions refused it ("found none", exit 4).
    By hand, A' = a3*a5 + a4*a5 turns the potential into
    3 * A'.a6 + 3 * D.E.B + (A' - B).E.B.E (B = a4*a5, D = a2*a5,
    E = a5^-1*a0), and integrating out (A', a6) leaves
    3 * D.E.B - B.E.B.E, which B -> -a3*a5 maps to the printed one."""
    f = tmp_path / "shared.qp"
    f.write_text(
        "vertices: v0, v1, v2\n"
        "arrows: a0: v0 -> v1; a1: v0 -> v2; a2: v1 -> v2; a3: v1 -> v0; a4: v1 -> v0;"
        " a5: v2 -> v1; a6: v0 -> v2\n"
        "potential: 1 * a0.a4.a0.a3 + 3 * a5.a2.a0.a4 + 3 * a4.a5.a6 + 3 * a5.a6.a3\n"
    )
    assert run(capsys, "higgs", "--arrow", "a5", str(f)) == (
        0,
        "quiver Q_hat\n"
        "vertices: v0, v2\n"
        "arrows: a5^-1*a0: v0 -> v2; a1: v0 -> v2; a2*a5: v2 -> v2; a3*a5: v2 -> v0\n"
        "potential: -3 * a2*a5.a5^-1*a0.a3*a5 + -1 * a3*a5.a5^-1*a0.a3*a5.a5^-1*a0\n",
        "",
    )


def test_higgs_and_mutate_answer_on_a_remainder_holding_the_pair(tmp_path, capsys):
    """contraction.higgs and qp.reduce_trivial share qp.eliminate_pair, which
    answers when either remainder dW/db - c or dW/dc - b is free of b and c.
    Here dW/da3 holds a3 through a4.a3.a4.a3, and the other remainder of
    each eliminated pair is free: a copy that accepted only one of the two
    sides would refuse one of these commands."""
    f = tmp_path / "pair.qp"
    f.write_text(
        "vertices: v0, v1, v2\n"
        "arrows: a0: v0 -> v1; a1: v2 -> v0; a2: v0 -> v1; a3: v2 -> v0; a4: v0 -> v2;"
        " a5: v1 -> v2\n"
        "potential: 1 * a4.a3 + 1 * a4.a3.a4.a3 + -1 * a3.a5.a0\n"
    )
    assert run(capsys, "higgs", "--arrow", "a0", str(f)) == (
        0,
        "quiver Q_hat\n"
        "vertices: v0, v2\n"
        "arrows: a1: v2 -> v0; a0^-1*a2: v0 -> v0; a4: v0 -> v2\n",
        "",
    )
    assert run(capsys, "mutate", "--vertex", "v1", str(f)) == (
        0,
        "quiver premut_v1(Q)\n"
        "vertices: v0, v1, v2\n"
        "arrows: a0*: v1 -> v0; a1: v2 -> v0; a2*: v1 -> v0; a4: v0 -> v2; a5*: v2 -> v1;"
        " [a5*a2]: v0 -> v2\n"
        "potential: 1 * [a5*a2].a2*.a5* + 1 * a0*.a5*.a4 + 1 * a0*.a5*.a4.a0*.a5*.a4\n",
        "",
    )


def test_mutate_ignores_the_scale_of_a_cubic_term(tmp_path, capsys):
    """Mutating the 3-cycle at 2 leaves the quadratic term [b*a].c, with the
    cubic term's coefficient; rescaling an arrow makes 2 * c.b.a and
    1 * c.b.a right-equivalent, so both print the same bytes."""
    outs = []
    for coeff in (2, 1):
        f = tmp_path / f"tri{coeff}.qp"
        f.write_text(
            "vertices: 1, 2, 3\narrows: a: 1 -> 2; b: 2 -> 3; c: 3 -> 1\n"
            f"potential: {coeff} * c.b.a\n"
        )
        outs.append(run(capsys, "mutate", "--vertex", "2", str(f)))
    assert outs[0] == outs[1] == (
        0, "quiver premut_2(Q)\nvertices: 1, 2, 3\narrows: a*: 2 -> 1; b*: 3 -> 2\n", ""
    )


@pytest.mark.parametrize("digit", ["\u00b2", "\u2460"])
@pytest.mark.parametrize(
    "command",
    [
        ("spherical-span", "--degree", "0", "--gamma"),
        ("walls", "--max-gamma"),
        ("eta-check", "--arrow", "a", "--max-gamma"),
    ],
)
def test_ranks_are_ascii_digits(tmp_path, capsys, command, digit):
    """str.isdigit accepts superscripts and circled digits, which int()
    refuses: every rank option exits 3 on them, and u=12 still parses."""
    f = tmp_path / "a2.qp"
    f.write_text("vertices: u, v\narrows: a: u -> v\n")
    code, out, err = run(capsys, *command, f"u={digit}", str(f))
    assert (code, out) == (3, "")
    assert f"rank must be a nonnegative integer, got '{digit}'" in err
    assert cli._parse_ranks("u=12", Quiver(["u", "v"], []), "--gamma") == {"u": 12, "v": 0}


# ---------------------------------------------------------------- mutation


def test_mutate_prints_reduced_qp(ex31, capsys):
    code, out, _ = run(capsys, "mutate", "--vertex", "1", ex31)
    assert code == 0
    assert out.startswith("quiver premut_1(showcase)\n")
    assert "[c*b]: i- -> 2" in out


def test_mutate_at_loop_vertex_exits_3(tmp_path, capsys):
    f = tmp_path / "loopy.qp"
    f.write_text("vertices: u, v\narrows: l: u -> u; a: u -> v\n")
    code, _, err = run(capsys, "mutate", "--vertex", "u", str(f))
    assert code == 3
    assert "loop" in err


# ---------------------------------------------------------------- elements


def test_shuffle_mul(pairq, capsys):
    code, out, _ = run(capsys, "shuffle-mul", pairq)
    assert code == 0
    assert out == "gamma: 1=2,2=2; poly: -x[1,1]*x[1,2] - x[2,1]*x[2,2] + 4\n"


def test_rank_3000_point_product_answers_under_an_address_space_cap(tmp_path):
    """1 * 1 at rank 3000 on the point quiver, in a child process whose
    address space is capped at 1.5 GB: no per-slot state grows
    quadratically with the rank, so it prints the zero element of rank
    6000 (the alternant of x^(delta + delta) repeats an exponent) and exits
    0.  A layout holding one slot-swap getter of 6,000 entries per slot
    ends in a MemoryError under this cap."""
    resource = pytest.importorskip("resource")
    f = tmp_path / "point.qp"
    f.write_text("vertices: u\narrows:\n" + "gamma: u=3000; poly: 1\n" * 2)
    cap = 1_500_000_000
    done = subprocess.run(
        [sys.executable, "-c",
         "import sys; from quiveralg.cli import main; sys.exit(main(sys.argv[1:]))",
         "shuffle-mul", str(f)],
        capture_output=True, text=True, timeout=120,
        env={**os.environ, "PYTHONPATH": str(Path(cli.__file__).parents[1])},
        preexec_fn=lambda: resource.setrlimit(resource.RLIMIT_AS, (cap, cap)),
    )
    assert (done.returncode, done.stdout, done.stderr) == (0, "gamma: u=6000; poly: 0\n", "")


def test_contract_shuffle(pairq, capsys):
    code, out, _ = run(capsys, "contract-shuffle", "--arrow", "a", pairq)
    assert code == 0
    assert out == "gamma: 1=1; poly: x[1,1]^2 + 2\n"


def test_pair(pairq, capsys):
    code, out, _ = run(capsys, "pair", pairq)
    assert code == 0
    assert out == "pair: 0\n"


PAIR_CASES = {
    "rank_0": ("gamma: 1=0,2=0; poly: 3\ngamma: 1=0,2=0; poly: -1/2\n", 0, "pair: -3/2\n", ""),
    "unequal_ranks": (
        "gamma: 1=1,2=0; poly: x[1,1]\ngamma: 1=0,2=1; poly: x[2,1] + 1\n", 0, "pair: 0\n", ""
    ),
    "one_slot": ("gamma: 1=1,2=0; poly: x[1,1]^2 + 1\ngamma: 1=1,2=0; poly: 2\n", 0, "pair: 0\n", ""),
    "two_slots_one_vertex": (
        "gamma: 1=0,2=2; poly: x[2,1] + x[2,2]\ngamma: 1=0,2=2; poly: x[2,1]*x[2,2]\n",
        0, "pair: 0\n", "",
    ),
    "three_slots": (
        "gamma: 1=2,2=1; poly: 1\ngamma: 1=2,2=1; poly: x[2,1]\n", 4, "",
        "error: polynomial pairing implemented for blocks of at most two slots\n",
    ),
}


@pytest.mark.parametrize("case", sorted(PAIR_CASES))
def test_pair_branches(case, tmp_path, capsys):
    """The other branches of the block pairing (test_pair has two slots on
    two vertices): the product of the constants at rank 0, 0 at unequal
    ranks and at equal ranks of one or two slots, and a scope refusal
    (exit 4) from three slots on."""
    elements, want_code, want_out, want_err = PAIR_CASES[case]
    f = tmp_path / "pair.qp"
    f.write_text("quiver pairq\nvertices: 1, 2\narrows: a: 1 -> 2\n" + elements)
    assert run(capsys, "pair", str(f)) == (want_code, want_out, want_err)


def test_missing_elements_is_precondition(ex31, capsys):
    code, _, err = run(capsys, "shuffle-mul", ex31)
    assert code == 3
    assert "element" in err


def test_spherical_span(pairq, capsys):
    code, out, _ = run(capsys, "spherical-span", "--gamma", "1=1,2=1",
                       "--degree", "2", pairq)
    assert code == 0
    lines = out.splitlines()
    assert lines[-1] == "rank: 6"
    assert lines[0] == "gamma: 1=1,2=1; poly: 1"


def test_spherical_span_rank_zero_below_degree_zero_is_empty(pairq, capsys):
    """The rank-0 slice of degree <= d holds the constant 1 from d = 0 on,
    and nothing below, like every other rank at d < 0."""
    for degree, expected in (("-3", "rank: 0\n"), ("-1", "rank: 0\n"),
                             ("0", "gamma: 1=0,2=0; poly: 1\nrank: 1\n")):
        code, out, _ = run(capsys, "spherical-span", "--gamma", "1=0,2=0",
                           "--degree", degree, pairq)
        assert (code, out) == (0, expected)
    code, out, _ = run(capsys, "spherical-span", "--gamma", "1=1,2=0",
                       "--degree", "-1", pairq)
    assert (code, out) == (0, "rank: 0\n")


# sha256 (first 16 hex digits) of the stdout of shuffle-mul and of
# contract-shuffle on each of _element_inputs(), recorded with the
# implementation that multiplied and contracted through Poly renaming; the
# exponent-tuple route must print the same bytes.
ELEMENT_STDOUT_SHA256 = (
    "7410bd0851b04321", "3ff49d1e8b83ed4b", "de3efec1fb6d7192", "16b8144e91bf491e",
    "6a7f70a70c6cb285", "76a170834d632c37", "ce81eed0efa3ff9f", "5a1769bfd81ebb2b",
    "933cfb5b68e919ff", "88f72cd0ce955151", "512b99b9d008703d", "e45ea593b441e1f6",
    "88812417ae24f1a9", "051b56a1f491c643", "eb7e51d55e51280d", "1d115bcf42df2b24",
    "bec32d7a5163e203", "41804d83e56c800e", "f2ab4e647bba1d51", "a1fb912213b623f3",
    "fe58f6fade88d4e6", "8e9213f6dfad4f4a", "f6537690fdd73b2a", "f53672559fc4d7e1",
    "d345c02706dea873", "332be25af8419531", "52c3282223ff6559", "3cb96f99b8df101e",
    "b807e5e3ee7935c8", "454688698de3645c", "853f911cb43dcedd", "6442e639440dadbc",
    "f63e0275d6004828", "7b80099ec12a2027", "a7ee85cea9951508", "2a7fb45add28dd9e",
    "9a4037c231db3c29", "65fdb59653c59097", "aaaba961de456f5a", "06f077b0f0d14349",
)


def _element_inputs(count=20, seed=1605):
    """(.qp text, arrow to contract) pairs: seeded quivers with loops,
    parallel arrows and 2-cycles, two elements of ranks 0-2 equal at the
    ends of the arrow, rational coefficients."""
    rng = random.Random(seed)
    coeffs = (Fraction(1, 2), Fraction(-2, 3), 1, -2, 3)
    out = []
    while len(out) < count:
        Q = random_quiver(rng, max_vertices=4, max_arrows=6)
        candidates = [a for a in Q.arrows if a.source != a.target]
        if not candidates:
            continue
        a0 = rng.choice(candidates)
        g1 = {v: rng.randint(0, 2) for v in Q.vertices}
        g2 = {v: rng.randint(0, 2) for v in Q.vertices}
        g1[a0.target] = g1[a0.source]
        g2[a0.target] = g2[a0.source]
        arrow_pairs = sum(g1[a.source] * g2[a.target] for a in Q.arrows)
        if arrow_pairs > 6 or sum(g1.values()) + sum(g2.values()) > 6:
            continue
        f = random_sympoly(rng, Q, g1, max_deg=3, nterms=3, coeffs=coeffs)
        g = random_sympoly(rng, Q, g2, max_deg=2, coeffs=coeffs)
        lines = [
            "quiver R",
            "vertices: " + ", ".join(Q.vertices),
            "arrows: " + "; ".join(f"{a.id}: {a.source} -> {a.target}" for a in Q.arrows),
            print_element(f),
            print_element(g),
        ]
        out.append(("\n".join(lines) + "\n", a0.id))
    return out


def test_element_commands_print_recorded_bytes(tmp_path, capsys):
    digests = []
    for k, (text, arrow) in enumerate(_element_inputs()):
        path = tmp_path / f"elements{k}.qp"
        path.write_text(text)
        for argv in (("shuffle-mul", str(path)),
                     ("contract-shuffle", "--arrow", arrow, str(path))):
            code, out, err = run(capsys, *argv)
            assert (code, err) == (0, ""), (argv, text)
            digests.append(hashlib.sha256(out.encode()).hexdigest()[:16])
    assert tuple(digests) == ELEMENT_STDOUT_SHA256


# sha256 (first 16 hex digits) of the stdout of spherical-span on each of
# _span_inputs(), recorded with the Gauss-Jordan rref on Fractions; the
# fraction-free rref must print the same bytes.
SPAN_STDOUT_SHA256 = (
    "2d6505b43bfff260", "65b235d93b16689d", "0ac81cd7f887f09e", "72f4ccfd6e03c941",
    "4536e16cd8422537", "debd3c5155858510", "b0fc8303bd6d4320", "45bd5d6ad0da0230",
    "f13558e0fadc59b3", "45bd5d6ad0da0230", "86a155ca8b61e701", "b6dd7cd3e0cbf757",
    "91e1fc7ab7e852e5", "d82a8a1c98861a78", "d9b12a8ad534db92", "673cc39e95e89778",
    "436f75090fed460d", "d3611be6e88ffe65", "c5faa648bc7c7430", "45bd5d6ad0da0230",
)


def _span_inputs(count=20, seed=1705):
    """(quiver, ranks, degree) triples: seeded quivers of 1-3 vertices with
    loops, parallel arrows and 2-cycles, ranks 0-2 per vertex of total 2-4,
    degrees 0 to 4, and -1 for every tenth."""
    rng = random.Random(seed)
    out = []
    while len(out) < count:
        Q = random_quiver(rng, max_vertices=3, max_arrows=4)
        gamma = {v: rng.randint(0, 2) for v in Q.vertices}
        if 2 <= sum(gamma.values()) <= 4:
            out.append((Q, gamma, -1 if len(out) % 10 == 9 else rng.randint(0, 4)))
    return out


def test_spherical_span_prints_recorded_bytes(tmp_path, capsys):
    inputs = _span_inputs()
    ends = [[(a.source, a.target) for a in Q.arrows] for Q, _, _ in inputs]
    assert any(s == t for e in ends for s, t in e)
    assert any(len(e) != len(set(e)) for e in ends)
    assert any((t, s) in e for e in ends for s, t in e if s != t)
    assert any(max(gamma.values()) > 1 for _, gamma, _ in inputs)
    assert any(d < 0 for _, _, d in inputs)
    digests = []
    for k, (Q, gamma, d) in enumerate(inputs):
        path = tmp_path / f"span{k}.qp"
        path.write_text(
            f"quiver R\nvertices: {', '.join(Q.vertices)}\narrows: "
            + "; ".join(f"{a.id}: {a.source} -> {a.target}" for a in Q.arrows) + "\n"
        )
        ranks = ",".join(f"{v}={n}" for v, n in gamma.items())
        code, out, err = run(capsys, "spherical-span", "--gamma", ranks, "--degree", str(d),
                             str(path))
        assert (code, err) == (0, ""), (Q.arrows, gamma, d)
        digests.append(hashlib.sha256(out.encode()).hexdigest()[:16])
    assert tuple(digests) == SPAN_STDOUT_SHA256


# ---------------------------------------------------------------- stability


def test_walls_export(pairq, capsys):
    code, out, _ = run(capsys, "walls", "--max-gamma", "1=1,2=1", pairq)
    assert code == 0
    assert out == (
        "gamma=1:0,2:1; normal=1:0,2:1; kappa=1:1,2:0; verdict=true\n"
        "gamma=1:0,2:1; normal=1:0,2:1; kappa=1:-1,2:0; verdict=true\n"
        "gamma=1:1,2:0; normal=1:1,2:0; kappa=1:0,2:1; verdict=true\n"
        "gamma=1:1,2:0; normal=1:1,2:0; kappa=1:0,2:-1; verdict=true\n"
        "gamma=1:1,2:1; normal=1:1,2:1; kappa=1:1/2,2:-1/2; verdict=true\n"
        "gamma=1:1,2:1; normal=1:1,2:1; kappa=1:-1/2,2:1/2; verdict=false\n"
    )


def test_walls_scope_refusal(pairq, capsys):
    code, _, err = run(capsys, "walls", "--max-gamma", "1=9,2=9", pairq)
    assert code == 4
    assert "bound" in err


def test_walls_scope_widens_with_env(pairq, capsys, monkeypatch):
    monkeypatch.setenv("QUIVERALG_MAX_DIM", "6")
    code, out, _ = run(capsys, "walls", "--max-gamma", "1=3,2=2", pairq)
    assert code == 0
    assert len(out.splitlines()) == 34


def test_bad_env_override_is_precondition(pairq, capsys, monkeypatch):
    monkeypatch.setenv("QUIVERALG_TRUNCATION", "abc")
    code, _, err = run(capsys, "verify", "fermion")
    assert code == 3


@pytest.mark.parametrize("fields", ["2,3,0", "1", "-3", "2,4"])
def test_non_prime_env_field_is_precondition(tmp_path, capsys, monkeypatch, fields):
    """A non-prime in QUIVERALG_FIELDS is refused, not searched over Z/n."""
    f = tmp_path / "kronecker.qp"
    f.write_text("vertices: v1, v2\narrows: a: v1 -> v2; b: v1 -> v2\n")
    monkeypatch.setenv("QUIVERALG_FIELDS", fields)
    bad = fields.split(",")[-1]
    code, out, err = run(capsys, "walls", "--max-gamma", "v1=1,v2=1", "--field", bad, str(f))
    assert (code, out) == (3, "")
    assert err == f"error: bad environment override: {bad} is not prime\n"


@pytest.mark.parametrize("fields", ["", " , "])
def test_env_fields_without_a_prime_is_precondition(pairq, capsys, monkeypatch, fields):
    """An empty QUIVERALG_FIELDS is a bad override, not a search over no fields."""
    monkeypatch.setenv("QUIVERALG_FIELDS", fields)
    code, out, err = run(capsys, "walls", "--max-gamma", "1=1,2=1", pairq)
    assert (code, out) == (3, "")
    assert err == f"error: bad environment override: QUIVERALG_FIELDS names no prime: {fields!r}\n"


def test_env_fields_admit_other_primes(pairq, capsys, monkeypatch):
    monkeypatch.setenv("QUIVERALG_FIELDS", "2,5")
    code, out, _ = run(capsys, "walls", "--max-gamma", "1=1,2=1", "--field", "5", pairq)
    assert code == 0
    assert out.splitlines()[-2].endswith("kappa=1:1/2,2:-1/2; verdict=true")


@pytest.mark.parametrize(
    "env, limits",
    [
        ({}, Limits(max_total_dim=4, max_enumeration=1 << 16, fields=(2, 3), truncation=3)),
        ({"QUIVERALG_MAX_DIM": "6"}, Limits(max_total_dim=6)),
        ({"QUIVERALG_MAX_ENUM": "100"}, Limits(max_enumeration=100)),
        ({"QUIVERALG_FIELDS": "2,5"}, Limits(fields=(2, 5))),
        ({"QUIVERALG_FIELDS": " 7, "}, Limits(fields=(7,))),  # blank entries are skipped
        ({"QUIVERALG_TRUNCATION": "2"}, Limits(truncation=2)),
        ({"QUIVERALG_OTHER": "x"}, Limits()),
    ],
)
def test_env_overrides_build_limits(env, limits):
    assert cli._limits_from_env(env) == limits


@pytest.mark.parametrize(
    "env, message",
    [
        ({"QUIVERALG_MAX_DIM": "six"}, "invalid literal for int() with base 10: 'six'"),
        ({"QUIVERALG_MAX_ENUM": "1e6"}, "invalid literal for int() with base 10: '1e6'"),
        ({"QUIVERALG_FIELDS": "2,x"}, "invalid literal for int() with base 10: 'x'"),
        ({"QUIVERALG_FIELDS": "2,4"}, "4 is not prime"),
        ({"QUIVERALG_TRUNCATION": "abc"}, "invalid literal for int() with base 10: 'abc'"),
        # parsed in the order MAX_DIM, MAX_ENUM, FIELDS, TRUNCATION
        (
            {"QUIVERALG_TRUNCATION": "t", "QUIVERALG_FIELDS": "4", "QUIVERALG_MAX_DIM": "d"},
            "invalid literal for int() with base 10: 'd'",
        ),
        ({"QUIVERALG_TRUNCATION": "t", "QUIVERALG_FIELDS": "4"}, "4 is not prime"),
    ],
)
def test_bad_env_override_message(pairq, capsys, monkeypatch, env, message):
    for var, value in env.items():
        monkeypatch.setenv(var, value)
    code, out, err = run(capsys, "walls", "--max-gamma", "1=1,2=1", pairq)
    assert (code, out) == (3, "")
    assert err == f"error: bad environment override: {message}\n"


def test_env_fields_reach_eta_check(tmp_path, capsys, monkeypatch):
    f = tmp_path / "eta.qp"
    f.write_text("vertices: j, i+, i-\narrows: b: j -> i+; a0: i+ -> i-\n")
    argv = ("eta-check", "--arrow", "a0", "--max-gamma", "j=1,i+=1", "--field", "5", str(f))
    assert run(capsys, *argv)[0] == 4
    monkeypatch.setenv("QUIVERALG_FIELDS", "5")
    code, out, err = run(capsys, *argv)
    assert (code, err, out.splitlines()[-1]) == (0, "", "eta: ok")


@pytest.mark.parametrize(
    "var, value, code, last",
    [
        ("QUIVERALG_FIELDS", "2", 4, "error: stability brute force supports F_p for p in (2,)"),
        ("QUIVERALG_FIELDS", "3", 4, "error: stability brute force supports F_p for p in (3,)"),
        ("QUIVERALG_TRUNCATION", "1", 1, "suite eta: FAIL"),  # no room for the commutator
        ("QUIVERALG_TRUNCATION", "2", 0, "suite eta: ok"),
    ],
)
def test_env_limits_reach_verify_eta(capsys, monkeypatch, var, value, code, last):
    monkeypatch.setenv(var, value)
    got, out, err = run(capsys, "verify", "eta")
    assert (got, (out + err).splitlines()[-1]) == (code, last)


A2 = Quiver(("1", "2"), [Arrow("a", "1", "2")])


def test_env_override_ends_with_its_command(pairq, capsys, monkeypatch):
    """A cap raised for one command stays at its default for library calls."""
    monkeypatch.setenv("QUIVERALG_MAX_DIM", "6")
    assert run(capsys, "walls", "--max-gamma", "1=3,2=2", pairq)[0] == 0
    with pytest.raises(ScopeError, match="total dimension 5 exceeds the brute-force bound 4"):
        king_semistable_exists(A2, (3, 2), (2, -3), 2)


def test_refused_env_override_changes_no_cap(pairq, capsys, monkeypatch):
    monkeypatch.setenv("QUIVERALG_MAX_DIM", "5")
    monkeypatch.setenv("QUIVERALG_FIELDS", "2,4")
    assert run(capsys, "walls", "--max-gamma", "1=3,2=2", pairq)[0] == 3
    with pytest.raises(ScopeError, match="total dimension 5 exceeds the brute-force bound 4"):
        king_semistable_exists(A2, (3, 2), (2, -3), 2)


def test_main_rebinds_no_module_name(pairq, capsys, monkeypatch):
    """Every module-level name of the package is bound to the same object
    after commands run with all four overrides, valid or refused: the
    overrides travel as an argument, not as configuration globals."""
    modules = [m for name, m in sys.modules.items() if name.split(".")[0] == "quiveralg"]
    before = {m.__name__: dict(vars(m)) for m in modules}
    monkeypatch.setenv("QUIVERALG_MAX_DIM", "5")
    monkeypatch.setenv("QUIVERALG_MAX_ENUM", "1000")
    monkeypatch.setenv("QUIVERALG_TRUNCATION", "2")
    for fields, code in (("2,3,5", 0), ("2,4", 3)):
        monkeypatch.setenv("QUIVERALG_FIELDS", fields)
        assert run(capsys, "walls", "--max-gamma", "1=1,2=1", "--field", "5", pairq)[0] == code
        assert run(capsys, "verify", "eta")[0] == code
    for m in modules:
        names = vars(m)
        assert names.keys() == before[m.__name__].keys(), m.__name__
        rebound = [k for k, v in before[m.__name__].items() if names[k] is not v]
        assert rebound == [], m.__name__


@pytest.mark.parametrize(
    "argv",
    [
        ("walls", "--max-gamma", "1=1,1=0,2=1"),
        ("spherical-span", "--gamma", "2=1,1=1,2=0", "--degree", "1"),
    ],
)
def test_repeated_vertex_in_ranks_is_precondition(pairq, capsys, argv):
    code, out, err = run(capsys, *argv, pairq)
    assert (code, out) == (3, "")
    assert "duplicate rank for vertex" in err


def test_eta_check(tmp_path, capsys):
    f = tmp_path / "eta.qp"
    f.write_text("vertices: j, i+, i-\narrows: b: j -> i+; a0: i+ -> i-\n")
    code, out, _ = run(capsys, "eta-check", "--arrow", "a0",
                       "--max-gamma", "j=1,i+=1", str(f))
    assert code == 0
    assert out.splitlines()[-1] == "eta: ok"
    assert "gamma_hat=j:1,i+:1; kparam=1/4; ok=true" in out


# ------------------------------------------------------------- exit codes


def test_parse_error_exits_2_with_spans(tmp_path, capsys):
    f = tmp_path / "bad.qp"
    text = "vertices: u\narrows: a: u -> w\n"
    f.write_text(text)
    code, _, err = run(capsys, "contract", "--arrow", "a", str(f))
    assert code == 2
    assert "error[28:29]: unknown vertex 'w'" in err


@pytest.mark.parametrize("command, text, span", [
    (("shuffle-mul",), "vertices: u\narrows:\ngamma: u=1; poly: 1/0*x[u,1]\n"
     "gamma: u=1; poly: 1\n", "[38:41]"),
    (("contract", "--arrow", "a"), "vertices: u, v\narrows: a: u -> v; l: v -> v\n"
     "potential: 1/0 * l\n", "[55:58]"),
])
def test_zero_denominator_exits_2_with_its_span(tmp_path, capsys, command, text, span):
    """A zero denominator is a parse error (exit 2), not an untyped crash."""
    f = tmp_path / "zero.qp"
    f.write_text(text)
    code, out, err = run(capsys, *command, str(f))
    assert (code, out) == (2, "")
    assert err == f"error{span}: zero denominator in coefficient '1/0'\n"


def test_missing_file_exits_2(capsys):
    code, _, err = run(capsys, "contract", "--arrow", "a", "/nonexistent.qp")
    assert code == 2
    assert err


def test_argparse_usage_error_exits_2(capsys):
    with pytest.raises(SystemExit) as exc:
        main(["contract"])  # missing --arrow and FILE
    assert exc.value.code == 2


# ------------------------------------------------------------------ verify


@pytest.mark.parametrize(
    "suite",
    ["example31", "fermion", "adhm", "mutation366", "hopf", "eta", "homomorphism"],
)
def test_verify_suites_pass(suite, capsys):
    code, out, _ = run(capsys, "verify", suite)
    assert code == 0
    lines = out.splitlines()
    assert lines[-1] == f"suite {suite}: ok"
    assert all(line.endswith(": PASS") for line in lines[:-1])


def test_verify_seed_reproducible(capsys):
    a = run(capsys, "verify", "homomorphism", "--seed", "7")
    b = run(capsys, "verify", "homomorphism", "--seed", "7")
    assert a == b
    assert a[0] == 0


def test_verify_fermion_reports_both_oracles(capsys):
    code, out, _ = run(capsys, "verify", "fermion")
    assert code == 0
    assert "loop-free vertex: 1*1 = 0: PASS" in out
    assert "jordan vertex: 1*1 = 2: PASS" in out
