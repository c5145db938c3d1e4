"""Text format for quivers with potential: parser, printer, diagnostics.

File grammar (line oriented; ``#`` starts a comment running to end of line)::

    quiver NAME
    vertices: v1, v2, ...
    arrows: a: v1 -> v2; b: v2 -> v1
    potential: 1 * a.b + -1/2 * b.a
    invert: a0
    gamma: v1=1,v2=1; poly: x[v1,1]*x[v2,1] + 2

Sections may appear in any order and may wrap onto continuation lines
(a line that does not open a section belongs to the most recently opened
one).  Each of ``quiver`` / ``vertices`` / ``arrows`` / ``potential`` /
``invert`` may appear at most once; every ``gamma:`` line opens one
symmetric-polynomial element entry.

Identifiers (vertex and arrow names) may use any characters except
whitespace and ``# . , ; : = < >`` — so names such as ``i+``, ``l_i+`` or
``a0^-1*a1*a0`` round-trip.  In a potential word ``f.g`` the right letter
acts first.  A potential letter ``a^-1`` denotes the formal inverse of the
arrow ``a`` whenever ``a^-1`` itself is not an arrow id; inverse letters
require the arrow to be designated by ``invert:``.  A potential term may
start with a rational coefficient followed by ``*``; a bare word carries
coefficient 1.  All parse failures are reported together as diagnostics
carrying byte spans into the source text.
"""

import re
from fractions import Fraction
from typing import NamedTuple

from .errors import DegenerateTermError, PreconditionError, QPParseError
from .paths import Path, Potential, Sym, cyclic_normal_form, sym_source, sym_target
from .poly import Poly, xvar
from .qp import QuiverWithPotential
from .quiver import Arrow, Quiver
from .shuffle import SymPoly

__all__ = ["Diagnostic", "QPDocument", "parse_qp", "print_qp", "print_element"]


class Diagnostic(NamedTuple):
    """One parse problem: severity, byte span into the source, message."""

    severity: str
    start: int
    end: int
    message: str


class QPDocument(NamedTuple):
    """Parsed document: named quiver, potential, optional invertible arrow,
    plus any symmetric-polynomial element entries."""

    name: str
    quiver: Quiver
    potential: Potential
    inverted: str = None
    elements: tuple = ()

    def qp(self):
        return QuiverWithPotential(self.quiver, self.potential, self.inverted)


_ID_RE = re.compile(r"[^\s#.,;:=<>]+\Z")
_SECTION_RE = re.compile(r"(quiver)(\s+|$)|(vertices|arrows|potential|invert|gamma):")
_RAT_RE = re.compile(r"-?\d+(?:/\d+)?")
_XVAR_RE = re.compile(r"x\[([^\],]+),(\d+)\](?:\^(\d+))?")
_TERM_SEP_RE = re.compile(r" [+-] ")


class _Src:
    """A piece of parsed text with, per character, its offset in the original
    source, so every slice knows its own span."""

    __slots__ = ("text", "offs", "anchor")

    def __init__(self, text, offs, anchor):
        self.text = text
        self.offs = offs
        self.anchor = anchor

    def _anchor_at(self, i):
        if i < len(self.offs):
            return self.offs[i]
        if self.offs:
            return self.offs[-1] + 1
        return self.anchor

    def slice(self, i, j):
        return _Src(self.text[i:j], self.offs[i:j], self._anchor_at(i))

    def span(self):
        if self.offs:
            return (self.offs[0], self.offs[-1] + 1)
        return (self.anchor, self.anchor)

    def strip(self):
        lead = len(self.text) - len(self.text.lstrip())
        trail = len(self.text.rstrip())
        return self.slice(lead, trail)

    def split(self, sep):
        out = []
        start = 0
        while True:
            k = self.text.find(sep, start)
            if k < 0:
                out.append(self.slice(start, len(self.text)))
                return out
            out.append(self.slice(start, k))
            start = k + len(sep)


def _materialize(parts):
    """Join section fragments into one _Src, one space per line break."""
    chars = []
    offs = []
    for start, piece in parts:
        if chars:
            offs.append(offs[-1] + 1)
            chars.append(" ")
        for i, ch in enumerate(piece):
            chars.append(ch)
            offs.append(start + i)
    anchor = parts[0][0] if parts else 0
    return _Src("".join(chars), offs, anchor)


class _Parser:
    def __init__(self, text):
        self.text = text
        self.diags = []

    def error(self, src_or_span, message):
        span = src_or_span.span() if isinstance(src_or_span, _Src) else src_or_span
        self.diags.append(("error", span[0], span[1], message))

    # -- scanning ---------------------------------------------------------

    def scan(self):
        """Split the source into sections; returns (name_src, sections,
        gamma_records) where sections maps kind -> fragment list."""
        sections = {}
        gammas = []
        current = None
        name_src = None
        pos = 0
        for line in self.text.split("\n"):
            line_start = pos
            pos += len(line) + 1
            cut = line.find("#")
            content = line if cut < 0 else line[:cut]
            stripped = content.strip()
            if not stripped:
                continue
            lead = len(content) - len(content.lstrip())
            head = _SECTION_RE.match(stripped)
            if head is None:
                if current is None:
                    self.error(
                        (line_start + lead, line_start + len(content.rstrip())),
                        "content before any section header",
                    )
                else:
                    current.append((line_start + lead, stripped))
                continue
            payload_rel = lead + head.end()
            payload = content[payload_rel:].strip()
            payload_start = line_start + payload_rel + (
                len(content[payload_rel:]) - len(content[payload_rel:].lstrip())
            )
            kind = head.group(1) or head.group(3)
            if kind == "quiver":
                if name_src is not None:
                    self.error(
                        (line_start + lead, line_start + lead + 6),
                        "duplicate 'quiver' line",
                    )
                    current = None
                    continue
                name_src = _Src(
                    payload, tuple(range(payload_start, payload_start + len(payload))),
                    payload_start,
                )
                current = None
                continue
            record = [(payload_start, payload)]
            if kind == "gamma":
                gammas.append(record)
            elif kind in sections:
                self.error(
                    (line_start + lead, line_start + lead + len(kind) + 1),
                    f"duplicate '{kind}' section",
                )
                record = []  # swallow continuations of the duplicate
            else:
                sections[kind] = record
            current = record
        return name_src, sections, gammas

    # -- section passes ---------------------------------------------------

    def check_id(self, src, what):
        name = src.text
        if not name:
            self.error(src, f"empty {what} name")
            return None
        if not _ID_RE.match(name):
            self.error(src, f"invalid {what} name {name!r}")
            return None
        return name

    def parse_name(self, name_src):
        if name_src is None:
            return "Q"
        got = self.check_id(name_src.strip(), "quiver")
        return got if got is not None else "Q"

    def parse_vertices(self, parts):
        src = _materialize(parts).strip()
        vertices = []
        seen = set()
        if not src.text:
            return vertices
        for piece in src.split(","):
            piece = piece.strip()
            name = self.check_id(piece, "vertex")
            if name is None:
                continue
            if name in seen:
                self.error(piece, f"duplicate vertex {name!r}")
                continue
            seen.add(name)
            vertices.append(name)
        return vertices

    def parse_arrows(self, parts, vertex_set):
        src = _materialize(parts)
        arrows = []
        seen = set()
        for chunk in src.split(";"):
            chunk = chunk.strip()
            if not chunk.text:
                continue
            colon = chunk.text.find(":")
            if colon < 0:
                self.error(chunk, "expected 'id: source -> target'")
                continue
            aid = self.check_id(chunk.slice(0, colon).strip(), "arrow")
            rest = chunk.slice(colon + 1, len(chunk.text))
            sep = rest.text.find("->")
            if sep < 0:
                self.error(rest.strip() if rest.text.strip() else chunk,
                           "expected '->' between source and target")
                continue
            ends = [rest.slice(0, sep).strip(),
                    rest.slice(sep + 2, len(rest.text)).strip()]
            names = []
            for end in ends:
                name = self.check_id(end, "vertex")
                if name is not None and name not in vertex_set:
                    self.error(end, f"unknown vertex {name!r}")
                    name = None
                names.append(name)
            if aid is None or None in names:
                continue
            if aid in seen:
                self.error(chunk.slice(0, colon).strip(), f"duplicate arrow {aid!r}")
                continue
            seen.add(aid)
            arrows.append(Arrow(aid, names[0], names[1]))
        return arrows

    def parse_invert(self, parts, arrow_ids):
        src = _materialize(parts).strip()
        if "," in src.text:
            self.error(src, "exactly one arrow may be designated invertible")
            return None
        name = self.check_id(src, "arrow")
        if name is None:
            return None
        if name not in arrow_ids:
            self.error(src, f"unknown arrow {name!r}")
            return None
        return name

    def resolve_letter(self, letter, arrow_ids):
        name = letter.text
        if name in arrow_ids:
            return Sym(name)
        if name.endswith("^-1") and name[:-3] in arrow_ids:
            return Sym(name[:-3], inv=True)
        self.error(letter, f"unknown arrow {name!r} in potential term")
        return None

    def parse_potential(self, parts, Q, inverted):
        terms = {}
        src = _materialize(parts).strip()
        if not src.text:
            return Potential.zero()
        for term in src.split(" + "):
            term = term.strip()
            if not term.text:
                self.error(term, "empty potential term")
                continue
            coeff = Fraction(1)
            word_src = term
            m = re.match(r"(-?\d+(?:/\d+)?)\s*\*\s*", term.text)
            if m is not None:
                coeff = Fraction(m.group(1))
                word_src = term.slice(m.end(), len(term.text)).strip()
            if not word_src.text:
                self.error(term, "coefficient without a path")
                continue
            syms = []
            letter_srcs = []
            bad = False
            for letter in word_src.split("."):
                letter = letter.strip()
                if not letter.text:
                    self.error(word_src, "empty letter in path (stray '.')")
                    bad = True
                    continue
                sym = self.resolve_letter(letter, {a.id for a in Q.arrows})
                if sym is None:
                    bad = True
                    continue
                syms.append(sym)
                letter_srcs.append(letter)
            if bad or not syms:
                continue
            for k in range(1, len(syms)):
                if sym_source(Q, syms[k - 1]) != sym_target(Q, syms[k]):
                    self.error(
                        letter_srcs[k],
                        f"letters {syms[k - 1]}.{syms[k]} do not compose "
                        f"(source {sym_source(Q, syms[k - 1])!r} != "
                        f"target {sym_target(Q, syms[k])!r})",
                    )
                    bad = True
            if bad:
                continue
            if sym_source(Q, syms[-1]) != sym_target(Q, syms[0]):
                self.error(
                    word_src,
                    f"potential term is not closed (starts at "
                    f"{sym_target(Q, syms[0])!r}, ends at {sym_source(Q, syms[-1])!r})",
                )
                continue
            for sym, letter in zip(syms, letter_srcs):
                if sym.inv and sym.arrow != inverted:
                    self.error(
                        letter,
                        f"inverse letter {sym} of an arrow not designated by 'invert:'",
                    )
                    bad = True
            if bad:
                continue
            try:
                w = cyclic_normal_form(Q, Path(tuple(syms)))
            except DegenerateTermError:
                self.error(word_src, "potential term cancels to an empty cycle")
                continue
            terms[w] = terms.get(w, Fraction(0)) + coeff
        return Potential(terms)

    # -- element entries ----------------------------------------------------

    def parse_gamma_assignments(self, src, Q):
        gamma = {v: 0 for v in Q.vertices}
        seen = set()
        src = src.strip()
        if not src.text:
            return gamma
        for piece in src.split(","):
            piece = piece.strip()
            eq = piece.text.find("=")
            if eq < 0:
                self.error(piece, "expected 'vertex=rank'")
                continue
            vname_src = piece.slice(0, eq).strip()
            vname = vname_src.text
            if vname not in gamma:
                self.error(vname_src, f"unknown vertex {vname!r}")
                continue
            if vname in seen:
                self.error(vname_src, f"duplicate rank for vertex {vname!r}")
                continue
            val_src = piece.slice(eq + 1, len(piece.text)).strip()
            if not re.fullmatch(r"\d+", val_src.text):
                self.error(val_src, f"rank must be a nonnegative integer, got {val_src.text!r}")
                continue
            seen.add(vname)
            gamma[vname] = int(val_src.text)
        return gamma

    def parse_poly(self, src, Q, gamma):
        """The sum of the signed terms, built in one pass over their
        (monomial, coefficient) pairs."""
        # Split on " + " / " - " from left to right, keeping _Src slices.
        pieces = []
        start = 0
        sign = 1
        for cut in _TERM_SEP_RE.finditer(src.text):
            pieces.append((sign, src.slice(start, cut.start()).strip()))
            sign = 1 if cut.group() == " + " else -1
            start = cut.end()
        pieces.append((sign, src.slice(start, len(src.text)).strip()))
        pairs = []
        first = True
        for sign, piece in pieces:
            term = self.parse_poly_term(piece, Q, gamma, first)
            first = False
            if term is not None:
                pairs += ((m, c if sign > 0 else -c) for m, c in term.terms.items())
        return Poly.from_pairs(pairs)

    def parse_poly_term(self, piece, Q, gamma, allow_leading_minus):
        text = piece.text
        if not text:
            self.error(piece, "empty polynomial term")
            return None
        pos = 0
        coeff = Fraction(1)
        if allow_leading_minus and text[pos] == "-" and not _RAT_RE.match(text, pos):
            coeff = -coeff
            pos += 1
        m = _RAT_RE.match(text, pos)
        factors = []
        if m is not None:
            nxt = m.end()
            if nxt >= len(text):
                return Poly.const(coeff * Fraction(m.group(0)))
            if text[nxt] == "*":
                coeff *= Fraction(m.group(0))
                pos = nxt + 1
        while pos < len(text):
            v = _XVAR_RE.match(text, pos)
            if v is None:
                self.error(piece.slice(pos, len(text)),
                           f"malformed monomial near {text[pos:]!r}")
                return None
            vertex, slot, exp = v.group(1), int(v.group(2)), int(v.group(3) or 1)
            if vertex not in gamma:
                self.error(piece.slice(pos, v.end()), f"unknown vertex {vertex!r}")
                return None
            if not 1 <= slot <= gamma[vertex]:
                self.error(
                    piece.slice(pos, v.end()),
                    f"slot {slot} out of range for vertex {vertex!r} (rank {gamma[vertex]})",
                )
                return None
            factors.append((xvar(vertex, slot), exp))
            pos = v.end()
            if pos < len(text):
                if text[pos] != "*":
                    self.error(piece.slice(pos, len(text)),
                               f"expected '*' between factors, got {text[pos:]!r}")
                    return None
                pos += 1
        term = Poly.const(coeff)
        for var, exp in factors:
            term = term * Poly.var(var, exp)
        return term

    def parse_element(self, parts, Q):
        src = _materialize(parts)
        semi = src.text.find(";")
        if semi < 0:
            self.error(src.strip(), "element entry needs '; poly: ...' after the ranks")
            return None
        gamma_src = src.slice(0, semi)
        rest = src.slice(semi + 1, len(src.text)).strip()
        if not rest.text.startswith("poly:"):
            self.error(rest if rest.text else src.strip(),
                       "expected 'poly:' after ';' in element entry")
            return None
        poly_src = rest.slice(5, len(rest.text)).strip()
        before = len(self.diags)
        gamma = self.parse_gamma_assignments(gamma_src, Q)
        if len(self.diags) > before:
            return None
        poly = self.parse_poly(poly_src, Q, gamma)
        if len(self.diags) > before:
            return None
        try:
            return SymPoly(Q, gamma, poly)
        except PreconditionError as exc:
            self.error(poly_src, str(exc))
            return None

    # -- driver -------------------------------------------------------------

    def run(self):
        name_src, sections, gammas = self.scan()
        name = self.parse_name(name_src)
        vertices = self.parse_vertices(sections.get("vertices", []))
        arrows = self.parse_arrows(sections.get("arrows", []), set(vertices))
        Q = Quiver(vertices, arrows, name=name)
        inverted = None
        if "invert" in sections:
            inverted = self.parse_invert(sections["invert"], {a.id for a in arrows})
        potential = self.parse_potential(sections.get("potential", []), Q, inverted)
        elements = []
        for record in gammas:
            el = self.parse_element(record, Q)
            if el is not None:
                elements.append(el)
        if self.diags:
            raise QPParseError(self.finish_diagnostics())
        doc = QPDocument(name, Q, potential, inverted, tuple(elements))
        doc.qp()  # final cross-check; raises PreconditionError on internal error
        return doc

    def finish_diagnostics(self):
        btab = [0]
        for ch in self.text:
            btab.append(btab[-1] + len(ch.encode("utf-8")))
        out = []
        for severity, start, end, message in self.diags:
            out.append(Diagnostic(severity, btab[start], btab[end], message))
        return out


def parse_qp(text):
    """Parse the text format into a QPDocument; raise QPParseError carrying
    span-precise diagnostics on any failure."""
    return _Parser(text).run()


def print_element(sp):
    """Canonical one-line form of a symmetric-polynomial element."""
    ranks = ",".join(f"{v}={sp.gamma[v]}" for v in sp.quiver.vertices)
    return f"gamma: {ranks}; poly: {sp.poly}"


def print_qp(doc):
    """Canonical text of a document; parse_qp(print_qp(doc)) == doc."""
    Q = doc.quiver
    lines = [f"quiver {doc.name}"]
    lines.append("vertices: " + ", ".join(Q.vertices))
    lines.append("arrows: " + "; ".join(
        f"{a.id}: {a.source} -> {a.target}" for a in Q.arrows))
    if doc.potential.terms:
        lines.append(f"potential: {doc.potential}")
    if doc.inverted is not None:
        lines.append(f"invert: {doc.inverted}")
    for el in doc.elements:
        lines.append(print_element(el))
    return "\n".join(lines) + "\n"
