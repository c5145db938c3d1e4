"""Text format: parsing, canonical printing, diagnostics with byte spans."""

from fractions import Fraction

import pytest

from conftest import (
    random_dimvec,
    random_potential,
    random_quiver,
    random_sympoly,
    showcase_qp,
    word,
)
from quiveralg.errors import QPParseError
from quiveralg.paths import Path, Sym, cyclic_normal_form
from quiveralg.poly import Combination, Poly, xvar
from quiveralg.qpformat import QPDocument, parse_qp, print_element, print_qp
from quiveralg.contraction import contract_qp
from quiveralg.mutation import mutate
from quiveralg.quiver import Arrow, Quiver
from quiveralg.shuffle import SymPoly

EX31 = """\
quiver showcase
vertices: i+, i-, 1, 2
arrows: a0: i+ -> i-; a1: i- -> i+; a2: i+ -> i-; l1: i- -> i-; l2: i- -> i-; b: i- -> 1; c: 1 -> 2; d: 2 -> i-
potential: 1 * a1.l1.l1.l2.l2.l2.a0 + 1 * l1.d.c.b
"""


def diags_of(text):
    with pytest.raises(QPParseError) as err:
        parse_qp(text)
    return err.value.diagnostics


def spanned(text, d):
    return text.encode()[d.start : d.end].decode()


# ------------------------------------------------------------------ parsing


def test_parse_showcase_instance():
    doc = parse_qp(EX31)
    qp = showcase_qp()
    assert doc.name == "showcase"
    assert doc.quiver == qp.quiver
    assert doc.potential == qp.potential
    assert doc.inverted is None
    assert doc.elements == ()
    assert doc.qp() == qp


def test_parse_is_layout_insensitive():
    wrapped = """\
# a comment line
quiver showcase
vertices: i+, i-,
  1, 2        # trailing comment
arrows: a0: i+ -> i-; a1: i- -> i+; a2: i+ -> i-;
  l1: i- -> i-; l2: i- -> i-;
  b: i- -> 1; c: 1 -> 2; d: 2 -> i-
potential: 1 * a1.l1.l1.l2.l2.l2.a0
  + 1 * l1.d.c.b
"""
    assert parse_qp(wrapped) == parse_qp(EX31)


def test_sections_in_any_order():
    text = "potential: 1 * l\narrows: l: u -> u\nvertices: u\nquiver late\n"
    doc = parse_qp(text)
    assert doc.name == "late"
    assert doc.potential.terms == {cyclic_normal_form(doc.quiver, word("l")): 1}


def test_empty_arrows_section_is_arrowless():
    doc = parse_qp("vertices: u, v\narrows:\n")
    assert doc.quiver.vertices == ("u", "v")
    assert doc.quiver.arrows == ()
    assert doc.name == "Q"  # default when no quiver line


def test_empty_input_is_the_empty_document():
    doc = parse_qp("")
    assert doc.quiver.vertices == ()
    assert not doc.potential.terms


def test_repeated_terms_accumulate():
    doc = parse_qp(
        "vertices: u\narrows: l: u -> u\npotential: 1/2 * l.l + 1/3 * l.l\n"
    )
    key = cyclic_normal_form(doc.quiver, word("l", "l"))
    assert doc.potential.terms == {key: Fraction(5, 6)}


def test_potential_term_canonicalized_to_cyclic_normal_form():
    base = parse_qp("vertices: u, v\narrows: a: u -> v; b: v -> u\npotential: 1 * a.b\n")
    rotated = parse_qp(
        "vertices: u, v\narrows: a: u -> v; b: v -> u\npotential: 1 * b.a\n"
    )
    assert base.potential == rotated.potential


def test_bare_word_has_coefficient_one():
    doc = parse_qp("vertices: u\narrows: l: u -> u\npotential: l.l\n")
    assert doc.potential.terms == {cyclic_normal_form(doc.quiver, word("l", "l")): 1}


def test_inverse_letter_with_designation():
    text = (
        "vertices: u, v\n"
        "arrows: a0: u -> v; e: u -> u; f: v -> v\n"
        "invert: a0\n"
        "potential: 1 * a0.e.a0^-1.f\n"
    )
    doc = parse_qp(text)
    (w,) = doc.potential.terms
    assert any(s.inv for s in w.syms)
    assert doc.inverted == "a0"
    assert parse_qp(print_qp(doc)) == doc


# ------------------------------------------------------------- round trips


def test_print_parse_roundtrip_on_showcase():
    doc = parse_qp(EX31)
    out = print_qp(doc)
    assert parse_qp(out) == doc
    assert print_qp(parse_qp(out)) == out


def test_contracted_document_roundtrips():
    res = contract_qp(showcase_qp(), "a0")
    doc = QPDocument(res.quiver.name, res.quiver, res.potential, res.inverted)
    assert parse_qp(print_qp(doc)) == doc


def test_mutated_document_roundtrips():
    red = mutate(showcase_qp(), "1").reduced
    doc = QPDocument(red.quiver.name, red.quiver, red.potential, red.inverted)
    assert parse_qp(print_qp(doc)) == doc


def test_roundtrip_random_documents(rng):
    for _ in range(40):
        Q = random_quiver(rng)
        W = random_potential(rng, Q)
        doc = QPDocument(Q.name, Q, W, None)
        printed = print_qp(doc)
        assert parse_qp(printed) == doc
        assert print_qp(parse_qp(printed)) == printed


def test_roundtrip_random_documents_with_elements(rng):
    for _ in range(15):
        Q = random_quiver(rng, max_vertices=3, max_arrows=3)
        gamma = random_dimvec(rng, Q, max_entry=2)
        els = tuple(random_sympoly(rng, Q, gamma) for _ in range(2))
        doc = QPDocument(Q.name, Q, random_potential(rng, Q), None, els)
        assert parse_qp(print_qp(doc)) == doc


# ------------------------------------------------------------- diagnostics


def test_composability_diagnostic():
    text = "vertices: u, v\narrows: a: u -> v; b: u -> v\npotential: 1 * a.b\n"
    (d,) = diags_of(text)
    assert "do not compose" in d.message
    assert spanned(text, d) == "b"


def test_non_closed_diagnostic():
    text = "vertices: u, v\narrows: a: u -> v\npotential: 1 * a\n"
    (d,) = diags_of(text)
    assert "not closed" in d.message
    assert spanned(text, d) == "a"


def test_unknown_ids_have_precise_spans():
    text = "vertices: u, v\narrows: a: u -> w\npotential: 1 * zz\ninvert: q\n"
    messages = {(spanned(text, d), d.message.split()[0]) for d in diags_of(text)}
    assert ("w", "unknown") in messages
    assert ("zz", "unknown") in messages
    assert ("q", "unknown") in messages


def test_multiple_diagnostics_reported_together():
    text = "vertices: u, u\narrows: a: u -> u; a: u -> u\npotential: 1 * a.a.c\n"
    ds = diags_of(text)
    assert len(ds) == 3
    assert [spanned(text, d) for d in ds] == ["u", "a", "c"]


def test_duplicate_section_diagnostic():
    ds = diags_of("vertices: u\nvertices: v\narrows:\n")
    assert any("duplicate 'vertices' section" in d.message for d in ds)


def test_content_before_section_diagnostic():
    text = "stray\nvertices: u\n"
    (d,) = diags_of(text)
    assert "before any section" in d.message
    assert spanned(text, d) == "stray"


def test_undesignated_inverse_diagnostic():
    text = "vertices: u\narrows: l: u -> u\npotential: 1 * l.l^-1.l.l^-1\n"
    ds = diags_of(text)
    assert all("not designated" in d.message for d in ds)
    assert [spanned(text, d) for d in ds] == ["l^-1", "l^-1"]


def test_degenerate_term_diagnostic():
    text = "vertices: u, v\narrows: a0: u -> v\ninvert: a0\npotential: 1 * a0.a0^-1\n"
    (d,) = diags_of(text)
    assert "cancels" in d.message
    assert spanned(text, d) == "a0.a0^-1"


def test_invalid_identifier_diagnostic():
    ds = diags_of("vertices: u, a.b\narrows:\n")
    assert any("invalid vertex name" in d.message for d in ds)


def test_arrow_syntax_diagnostics():
    ds = diags_of("vertices: u\narrows: a u -> u; b: u u\n")
    assert any("expected 'id: source -> target'" in d.message for d in ds)
    assert any("expected '->'" in d.message for d in ds)


def test_spans_are_within_source_bytes():
    bad_docs = [
        "vertices: u, v\narrows: a: u -> w\n",
        "vertices: ü\narrows: f: ü -> x\n",  # non-ascii source
        "quiver x\nquiver y\nvertices: u\n",
        "vertices: u\narrows: l: u -> u\npotential: 1 * l..l\n",
    ]
    for text in bad_docs:
        raw = text.encode()
        for d in diags_of(text):
            assert 0 <= d.start <= d.end <= len(raw)


# ---------------------------------------------------------------- elements


def test_element_entry_documented_form():
    text = (
        "quiver pair\nvertices: i1, i2\narrows:\n"
        "gamma: i1=1,i2=1; poly: x[i1,1]*x[i2,1] + 2\n"
    )
    doc = parse_qp(text)
    (el,) = doc.elements
    assert el.gamma == {"i1": 1, "i2": 1}
    expected = Poly.var(xvar("i1", 1)) * Poly.var(xvar("i2", 1)) + Poly.const(2)
    assert el.poly == expected
    assert print_element(el) == "gamma: i1=1,i2=1; poly: x[i1,1]*x[i2,1] + 2"
    assert print_qp(doc).endswith("gamma: i1=1,i2=1; poly: x[i1,1]*x[i2,1] + 2\n")


def test_element_polynomial_grammar():
    text = (
        "vertices: v\narrows: l: v -> v\n"
        "gamma: v=2; poly: -5/3*x[v,1]^2*x[v,2]^2 + x[v,1]*x[v,2] - 1\n"
    )
    doc = parse_qp(text)
    (el,) = doc.elements
    assert parse_qp(print_qp(doc)) == doc
    assert el.poly.total_degree() == 4


def test_element_missing_ranks_default_to_zero():
    doc = parse_qp("vertices: u, v\narrows:\ngamma: u=1; poly: x[u,1]\n")
    assert doc.elements[0].gamma == {"u": 1, "v": 0}


def test_element_zero_polynomial():
    doc = parse_qp("vertices: u\narrows:\ngamma: u=1; poly: 0\n")
    assert doc.elements[0].poly.is_zero()
    assert parse_qp(print_qp(doc)) == doc


def test_element_diagnostics():
    cases = [
        ("vertices: u\narrows:\ngamma: w=1; poly: 1\n", "unknown vertex"),
        ("vertices: u\narrows:\ngamma: u=1,u=1; poly: 1\n", "duplicate rank"),
        ("vertices: u\narrows:\ngamma: u=-1; poly: 1\n", "nonnegative"),
        ("vertices: u\narrows:\ngamma: u=1\n", "needs '; poly:"),
        ("vertices: u\narrows:\ngamma: u=1; poly: x[u,2]\n", "out of range"),
        ("vertices: u\narrows:\ngamma: u=1; poly: x[w,1]\n", "unknown vertex"),
        ("vertices: u\narrows:\ngamma: u=1; poly: x[u,1] x\n", "expected '*'"),
        ("vertices: u\narrows:\ngamma: u=1; poly: y + 1\n", "malformed monomial"),
        ("vertices: u\narrows:\ngamma: u=2; poly: x[u,1]\n", "not symmetric"),
    ]
    for text, fragment in cases:
        ds = diags_of(text)
        assert any(fragment in d.message for d in ds), (text, ds)


def test_zero_denominators_are_diagnostics_spanning_the_coefficient():
    head = "vertices: u\narrows: l: u -> u\n"
    cases = [
        ("gamma: u=1; poly: 1/0*x[u,1]\n", "1/0"),
        ("gamma: u=1; poly: x[u,1] + 7/0\n", "7/0"),
        ("gamma: u=1; poly: -3/0*x[u,1]\n", "-3/0"),
        ("potential: 1/0 * l\n", "1/0"),
        ("potential: 1 * l.l + -2/0*l\n", "-2/0"),
    ]
    for body, coeff in cases:
        text = head + body
        (d,) = diags_of(text)
        assert d.message == f"zero denominator in coefficient {coeff!r}"
        assert spanned(text, d) == coeff
    # a rational not read as a coefficient keeps its diagnostic
    (d,) = diags_of(head + "gamma: u=1; poly: 1/0x[u,1]\n")
    assert d.message.startswith("malformed monomial")
    assert parse_qp(head + "gamma: u=1; poly: 0/1*x[u,1] + 2/4\n").elements[0].poly == Poly.const(
        Fraction(1, 2))


def test_dangling_star_is_a_diagnostic_spanning_the_star():
    """A term that ends in '*', after a coefficient or after a factor, is
    refused instead of being read as the term without its last factor."""
    text = "vertices: u\narrows:\ngamma: u=1; poly: 3* + x[u,1]* - 0*\n"
    ds = diags_of(text)
    assert [d.message for d in ds] == ["dangling '*' ends the term"] * 3
    assert [spanned(text, d) for d in ds] == ["*"] * 3
    assert [d.start for d in ds] == [text.index("3*") + 1, text.index("]*") + 1, len(text) - 2]


def test_high_powers_parse_with_one_product_per_factor(monkeypatch):
    """x^k is read in one step, and the parse builds each term's monomial
    directly: it multiplies no polynomials at all."""
    calls = []
    mul = Poly.__mul__

    def counting_mul(self, other):
        calls.append(1)
        return mul(self, other)

    monkeypatch.setattr(Poly, "__mul__", counting_mul)
    u1 = xvar("u", 1)
    doc = parse_qp("vertices: u\narrows:\ngamma: u=1; poly: x[u,1]^2000\n")
    assert doc.elements[0].poly == Poly.var(u1, 2000)
    assert not calls
    text = " + ".join(f"{k}*x[u,1]^{k}" for k in range(1, 2001))
    doc = parse_qp(f"vertices: u\narrows:\ngamma: u=1; poly: {text}\n")
    assert not calls
    assert doc.elements[0].poly == Poly({((u1, k),): k for k in range(1, 2001)})


def test_many_terms_parse_in_one_pass(monkeypatch):
    """An element's terms are summed in one pass, not by one `+` per term,
    so the parse is linear in the number of terms."""
    calls = []
    add = Combination.__add__

    def counting_add(self, other):
        calls.append(1)
        return add(self, other)

    monkeypatch.setattr(Combination, "__add__", counting_add)
    u1 = xvar("u", 1)
    text = " - ".join(f"x[u,1]^{k}" for k in range(1, 4001))
    doc = parse_qp(f"vertices: u\narrows:\ngamma: u=1; poly: {text}\n")
    assert len(calls) <= 10
    expected = {((u1, k),): (1 if k == 1 else -1) for k in range(1, 4001)}
    assert doc.elements[0].poly == Poly(expected)
    # repeated and cancelling terms sum as they did term by term
    text = "x[u,1] + 2 - x[u,1] + 1/2*x[u,1]^2 + 1"
    doc = parse_qp(f"vertices: u\narrows:\ngamma: u=1; poly: {text}\n")
    assert doc.elements[0].poly == Poly({((u1, 2),): Fraction(1, 2), (): 3})
    assert list(doc.elements[0].poly.terms) == [(), ((u1, 2),)]


def test_multiple_elements_in_document_order():
    text = (
        "vertices: u\narrows:\n"
        "gamma: u=1; poly: x[u,1]\n"
        "gamma: u=2; poly: x[u,1] + x[u,2]\n"
    )
    doc = parse_qp(text)
    assert [el.gamma["u"] for el in doc.elements] == [1, 2]


# ------------------------------------------------------------------ sharing

SHARED = """\
quiver twin
vertices: left, right, top
arrows: ab: left -> right; ba: right -> left; up: right -> top; down: top -> left
potential: 1 * ba.ab + 2 * down.up.ab
invert: ab
gamma: left=2, right=1, top=0; poly: x[left,1]*x[left,2]*x[right,1] + 3*x[right,1]^2
gamma: left=1, right=1, top=1; poly: x[left,1]*x[top,1] + x[right,1]*x[top,1]
"""


def test_parsed_names_are_the_vertex_strings_and_shared_across_documents():
    """An arrow's ends are (`is`) the vertex list's strings, and equal names
    in two documents parsed from different texts are one object.  Names of
    more than one character, which CPython never shares by itself.  Catches
    parse_arrows keeping its own `end.strip()` for an arrow end, and a name
    kept without sys.intern."""
    docs = [parse_qp(SHARED), parse_qp(SHARED.replace("quiver twin", "quiver twin "))]
    first = {}
    for doc in docs:
        Q = doc.quiver
        vertex = {v: v for v in Q.vertices}
        for a in Q.arrows:
            assert a.source is vertex[a.source] and a.target is vertex[a.target]
        names = [doc.name, doc.inverted, *Q.vertices, *(a.id for a in Q.arrows)]
        names += [s.arrow for w in doc.potential.terms for s in w.syms]
        for name in names:
            assert first.setdefault(name, name) is name, name
    assert len(first) == 1 + 3 + 4


def test_parsed_variables_are_the_xvar_tuples():
    """Every variable of every parsed monomial is the one tuple xvar keeps
    for it.  Catches xvar without its cache."""
    doc = parse_qp(SHARED)
    seen = 0
    for el in doc.elements:
        for mono in el.poly.terms:
            for var, _ in mono:
                assert var is xvar(var[1], var[2])
                seen += 1
    assert seen == 8


def test_xvar_cache_tells_equal_keys_of_different_types_apart():
    """True == 1 == 1.0, yet they name the vertices "True", "1" and "1.0".
    Catches an xvar cache without typed=True."""
    assert xvar(1, 1) == ("x", "1", 1)
    assert xvar(True, 1) == ("x", "True", 1)
    assert xvar(1.0, 1) == ("x", "1.0", 1)


# ------------------------------------------------------------------ printer


def test_printer_layout_is_canonical():
    doc = parse_qp(EX31)
    lines = print_qp(doc).splitlines()
    assert lines[0] == "quiver showcase"
    assert lines[1] == "vertices: i+, i-, 1, 2"
    assert lines[2].startswith("arrows: a0: i+ -> i-; ")
    assert lines[3].startswith("potential: 1 * ")
    assert len(lines) == 4


def test_printer_omits_empty_potential():
    doc = parse_qp("vertices: u\narrows: l: u -> u\n")
    assert "potential" not in print_qp(doc)


def test_printer_keeps_invert_line():
    text = "vertices: u, v\narrows: a0: u -> v\ninvert: a0\n"
    doc = parse_qp(text)
    assert "invert: a0\n" in print_qp(doc)
    assert parse_qp(print_qp(doc)) == doc
