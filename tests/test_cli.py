"""Command dispatch: exit codes, canonical byte-stable output, suites."""

import pytest

from quiveralg import cli
from quiveralg.cli import EXAMPLE31, main

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


def test_contract_shuffle(pairq, capsys):
    code, out, _ = run(capsys, "contract-shuffle", "--arrow", "a", pairq)
    assert code == 0
    assert out == "gamma: 1=1; poly: x[1,1]^2 + 2\n"


def test_pair(pairq, capsys):
    code, out, _ = run(capsys, "pair", pairq)
    assert code == 0
    assert out == "pair: 0\n"


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


def test_env_fields_admit_other_primes(pairq, capsys, monkeypatch):
    monkeypatch.setenv("QUIVERALG_FIELDS", "2,5")
    code, out, _ = run(capsys, "walls", "--max-gamma", "1=1,2=1", "--field", "5", pairq)
    assert code == 0
    assert out.splitlines()[-2].endswith("kappa=1:1/2,2:-1/2; verdict=true")


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
