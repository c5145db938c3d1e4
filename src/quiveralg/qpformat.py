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

The parse reads plain strings: a section's lines are joined into one
text, its passes cut pieces of it by position, and element terms go
straight to (monomial, coefficient) pairs.  Source spans are computed
only for diagnostics, from the section's table of source offsets.

A parsed document holds each name once: vertex names, arrow ids, potential
letters and the document name are interned (sys.intern), so equal names
in any documents alive at once are one string object; an arrow's source
and target are the vertex list's own strings; and every (variable, exponent)
factor of element monomials is the one tuple poly.xfactor keeps for it.
"""

import re
import sys
from fractions import Fraction
from itertools import accumulate
from typing import NamedTuple

from .errors import DegenerateTermError, PreconditionError, QPParseError
from .paths import Path, Potential, Sym, cyclic_normal_form, sym_source, sym_target
from .poly import Poly, xfactor, xvar
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
_RAT = r"(-?\d+)(?:/(\d+))?"
_RAT_RE = re.compile(_RAT)
_COEFF_RE = re.compile(_RAT + r"\s*\*\s*")
_DIGITS_RE = re.compile(r"\d+")
_XVAR_RE = re.compile(r"x\[([^\],]+),(\d+)\](?:\^(\d+))?")
_TERM_SEP_RE = re.compile(r" [+-] ")


def _strip(piece, i):
    """piece, found at position i, stripped of whitespace, with its bounds;
    an all-blank piece strips to the empty piece at its end."""
    s = piece.lstrip()
    i += len(piece) - len(s)
    s = s.rstrip()
    return s, i, i + len(s)


def _rational(m):
    """The rational of a match of _RAT, or None if its denominator is 0."""
    num, den = int(m[1]), int(m[2] or 1)
    return None if den == 0 else num if den == 1 else Fraction(num, den)


class _Section:
    """A section's (source offset, text) fragments joined into one text,
    one space per line break once some text is out (only the header's
    fragment can be empty).  Passes read the text by position; source
    offsets are looked up only for diagnostics."""

    __slots__ = ("parts", "text", "_offs")

    def __init__(self, parts):
        self.parts = parts
        self.text = " ".join(piece for _, piece in parts if piece)
        self._offs = None

    def offsets(self):
        """The source offset of every character of text, a line break's
        space one past the end of its line's text; built on first use."""
        if self._offs is None:
            self._offs = offs = []
            for start, piece in self.parts:
                if offs:
                    offs.append(offs[-1] + 1)
                offs += range(start, start + len(piece))
        return self._offs


def _stripped(sec, a, b):
    """Where, for _Parser.error, the stripped piece of sec.text[a:b] sits:
    (sec, i, j, end), end being b if sec.text[a:b] is non-empty, else the
    end of the whole text."""
    _, i, j = _strip(sec.text[a:b], a)
    return sec, i, j, b if a < b else len(sec.text)


def _bad_id(name, what):
    """Why name is not a valid identifier, or None."""
    if not _ID_RE.match(name):
        return f"invalid {what} name {name!r}" if name else f"empty {what} name"


class _Parser:
    def __init__(self, text):
        self.text = text
        self.diags = []

    def error(self, where, message):
        """Record a diagnostic at `where`: a source span (start, end), or
        (section, i, j[, end]), the piece text[i:j] of a section's text
        stripped from a non-empty piece ending at end (the whole text by
        default).  A non-empty piece spans its characters.  An empty one
        sits at its character i, or one past the character before end when
        i is end; in an empty text, at the section's first fragment.  The
        other pieces around it are stripped, so their ends follow no line
        break and the offsets run on by one there: the whole text places
        an empty piece as the innermost non-empty piece around it would."""
        if len(where) > 2:
            sec, i, j, *end = where
            offs = sec.offsets()
            b = end[0] if end else len(offs)
            if i < j:
                where = (offs[i], offs[j - 1] + 1)
            else:
                k = offs[i] if i < b else offs[b - 1] + 1 if b else (
                    sec.parts[0][0] if sec.parts else 0)
                where = (k, k)
        self.diags.append(("error", where[0], where[1], message))

    # -- scanning ---------------------------------------------------------

    def scan(self):
        """Split the source into sections; returns (name, sections,
        gamma_records): name is (offset, text) or None, sections maps kind
        -> fragment list."""
        sections = {}
        gammas = []
        current = None
        name = None
        pos = 0
        for line in self.text.split("\n"):
            line_start = pos
            pos += len(line) + 1
            cut = line.find("#")
            content = line if cut < 0 else line[:cut]
            stripped = content.strip()
            if not stripped:
                continue
            s = line_start + len(content) - len(content.lstrip())
            head = _SECTION_RE.match(stripped)
            if head is None:
                if current is None:
                    self.error((s, s + len(stripped)), "content before any section header")
                else:
                    current.append((s, stripped))
                continue
            payload, start, _ = _strip(content[s - line_start + head.end():], s + head.end())
            kind = head.group(1) or head.group(3)
            if kind == "quiver":
                if name is not None:
                    self.error((s, s + 6), "duplicate 'quiver' line")
                else:
                    name = (start, payload)
                current = None
                continue
            record = [(start, payload)]
            if kind == "gamma":
                gammas.append(record)
            elif kind in sections:
                self.error((s, s + len(kind) + 1), f"duplicate '{kind}' section")
                record = []  # swallow continuations of the duplicate
            else:
                sections[kind] = record
            current = record
        return name, sections, gammas

    # -- section passes ---------------------------------------------------

    def parse_name(self, name):
        start, text = name or (0, "Q")
        problem = _bad_id(text, "quiver")
        if problem:
            self.error((start, start + len(text)), problem)
        return "Q" if problem else sys.intern(text)

    def parse_vertices(self, sec):
        """The vertex names, interned, in a dict mapping each to itself
        (in order), so that other sections can take the vertex's own
        string for an equal name."""
        src, i0, j0 = _strip(sec.text, 0)
        vertices = {}
        pos = i0
        for raw in src.split(",") if src else ():
            name = raw.strip()
            problem = _bad_id(name, "vertex") or (
                name in vertices and f"duplicate vertex {name!r}")
            if problem:
                self.error(_stripped(sec, pos, pos + len(raw)), problem)
            else:
                name = sys.intern(name)
                vertices[name] = name
            pos += len(raw) + 1
        return vertices

    def parse_arrows(self, sec, vertices):
        """The arrows, ids interned and ends the strings of `vertices`, the
        dict of parse_vertices."""
        arrows = []
        seen = set()
        pos = 0
        for raw in sec.text.split(";"):
            chunk, ci, cj = _strip(raw, pos)
            pos += len(raw) + 1
            if not chunk:
                continue
            head, colon, rest = chunk.partition(":")
            if not colon:
                self.error((sec, ci, cj), "expected 'id: source -> target'")
                continue
            aid = sys.intern(head.strip())
            problem = _bad_id(aid, "arrow")
            if problem:
                self.error(_stripped(sec, ci, ci + len(head)), problem)
            ri = ci + len(head) + 1
            source, arrow, target = rest.partition("->")
            if not arrow:
                self.error(_stripped(sec, ri, cj) if rest.strip() else (sec, ci, cj),
                           "expected '->' between source and target")
                continue
            names = []
            for a, end in ((ri, source), (ri + len(source) + 2, target)):
                name = end.strip()
                why = _bad_id(name, "vertex") or (
                    name not in vertices and f"unknown vertex {name!r}")
                if why:
                    self.error(_stripped(sec, a, a + len(end)), why)
                names.append(None if why else vertices[name])
            if problem or None in names:
                continue
            if aid in seen:
                self.error(_stripped(sec, ci, ci + len(head)), f"duplicate arrow {aid!r}")
                continue
            seen.add(aid)
            arrows.append(Arrow(aid, names[0], names[1]))
        return arrows

    def parse_invert(self, sec, arrow_ids):
        src, i, j = _strip(sec.text, 0)
        problem = ("," in src and "exactly one arrow may be designated invertible"
                   or _bad_id(src, "arrow")
                   or src not in arrow_ids and f"unknown arrow {src!r}")
        if problem:
            self.error((sec, i, j), problem)
            return None
        return sys.intern(src)

    def parse_potential(self, sec, Q, inverted):
        terms = {}
        src, i0, j0 = _strip(sec.text, 0)
        if not src:
            return Potential.zero()
        arrow_ids = {a.id for a in Q.arrows}
        pos = i0
        for raw in src.split(" + "):
            start, pos = pos, pos + len(raw) + 3
            term, ti, tj = _strip(raw, start)
            if not term:
                self.error(_stripped(sec, start, pos - 3), "empty potential term")
                continue
            coeff = 1
            word, wi, wj = term, ti, tj
            m = _COEFF_RE.match(term)
            if m is not None:
                coeff = _rational(m)
                if coeff is None:
                    self.error((sec, ti, ti + m.end(2)),
                               f"zero denominator in coefficient {term[:m.end(2)]!r}")
                    continue
                word, wi, wj = _strip(term[m.end():], ti + m.end())
            if not word:
                self.error((sec, ti, tj), "coefficient without a path")
                continue
            syms = []
            letters = []
            bad = False
            lpos = wi
            for raw_letter in word.split("."):
                letter, li, lj = _strip(raw_letter, lpos)
                lpos += len(raw_letter) + 1
                if letter in arrow_ids:
                    syms.append(Sym(sys.intern(letter)))
                elif letter.endswith("^-1") and letter[:-3] in arrow_ids:
                    syms.append(Sym(sys.intern(letter[:-3]), inv=True))
                else:
                    self.error((sec, li, lj) if letter else (sec, wi, wj),
                               f"unknown arrow {letter!r} in potential term" if letter
                               else "empty letter in path (stray '.')")
                    bad = True
                    continue
                letters.append((sec, li, lj))
            if bad or not syms:
                continue
            for k in range(1, len(syms)):
                if sym_source(Q, syms[k - 1]) != sym_target(Q, syms[k]):
                    self.error(
                        letters[k],
                        f"letters {syms[k - 1]}.{syms[k]} do not compose "
                        f"(source {sym_source(Q, syms[k - 1])!r} != "
                        f"target {sym_target(Q, syms[k])!r})",
                    )
                    bad = True
            if bad:
                continue
            if sym_source(Q, syms[-1]) != sym_target(Q, syms[0]):
                self.error(
                    (sec, wi, wj),
                    f"potential term is not closed (starts at "
                    f"{sym_target(Q, syms[0])!r}, ends at {sym_source(Q, syms[-1])!r})",
                )
                continue
            for sym, where in zip(syms, letters):
                if sym.inv and sym.arrow != inverted:
                    self.error(
                        where,
                        f"inverse letter {sym} of an arrow not designated by 'invert:'",
                    )
                    bad = True
            if bad:
                continue
            try:
                w = cyclic_normal_form(Q, Path(tuple(syms)))
            except DegenerateTermError:
                self.error((sec, wi, wj), "potential term cancels to an empty cycle")
                continue
            terms[w] = terms.get(w, Fraction(0)) + coeff
        return Potential(terms)

    # -- element entries ----------------------------------------------------

    def parse_gamma_assignments(self, sec, semi, Q):
        """The ranks before the element's ';' at semi."""
        gamma = {v: 0 for v in Q.vertices}
        seen = set()
        src, i0, j0 = _strip(sec.text[:semi], 0)
        pos = i0
        for raw in src.split(",") if src else ():
            piece, pi, pj = _strip(raw, pos)
            head, eq, tail = piece.partition("=")
            vname, val = head.strip(), tail.strip()
            if not eq:
                self.error(_stripped(sec, pos, pos + len(raw)), "expected 'vertex=rank'")
            elif vname in seen or vname not in gamma:
                what = "duplicate rank for" if vname in seen else "unknown"
                self.error(_stripped(sec, pi, pi + len(head)), f"{what} vertex {vname!r}")
            elif not _DIGITS_RE.fullmatch(val):
                self.error(_stripped(sec, pi + len(head) + 1, pj),
                           f"rank must be a nonnegative integer, got {val!r}")
            else:
                seen.add(vname)
                gamma[vname] = int(val)
            pos += len(raw) + 1
        return gamma

    def parse_poly(self, where, gamma):
        """The sum of the signed terms of the piece at `where`, built in one
        pass over their (monomial, coefficient) pairs."""
        sec, i0, j0 = where[:3]
        text = sec.text
        pairs = []
        start, sign = i0, 1
        for cut in (*_TERM_SEP_RE.finditer(text, i0, j0), None):
            end = j0 if cut is None else cut.start()
            term, ti, _ = _strip(text[start:end], start)
            if not term:
                self.error(_stripped(sec, start, end), "empty polynomial term")
            else:
                pair = self.parse_poly_term(sec, term, ti, start == i0, gamma)
                if pair is not None:
                    pairs.append(pair if sign > 0 else (pair[0], -pair[1]))
            if cut is not None:
                start, sign = cut.end(), (1 if cut.group() == " + " else -1)
        return Poly.from_pairs(pairs)

    def parse_poly_term(self, sec, text, ti, allow_leading_minus, gamma):
        """(monomial, coefficient) of the term text at ti, or None if the
        coefficient is 0 or the term is malformed."""
        pos = 0
        coeff = 1
        if allow_leading_minus and text[0] == "-" and not _RAT_RE.match(text):
            coeff = -1
            pos = 1
        m = _RAT_RE.match(text, pos)
        if m is not None and (m.end() == len(text) or text[m.end()] == "*"):
            c = _rational(m)
            if c is None:
                self.error((sec, ti + m.start(), ti + m.end()),
                           f"zero denominator in coefficient {m.group()!r}")
                return None
            coeff *= c
            pos = m.end() + 1
        exps = {}
        while pos < len(text):
            v = _XVAR_RE.match(text, pos)
            if v is None:
                self.error((sec, ti + pos, ti + len(text)),
                           f"malformed monomial near {text[pos:]!r}")
                return None
            vertex, slot, exp = v.group(1), int(v.group(2)), int(v.group(3) or 1)
            if vertex not in gamma:
                self.error((sec, ti + pos, ti + v.end()), f"unknown vertex {vertex!r}")
                return None
            if not 1 <= slot <= gamma[vertex]:
                self.error(
                    (sec, ti + pos, ti + v.end()),
                    f"slot {slot} out of range for vertex {vertex!r} (rank {gamma[vertex]})",
                )
                return None
            if exp:
                var = xvar(sys.intern(vertex), slot)
                exps[var] = exps.get(var, 0) + exp
            pos = v.end()
            if pos < len(text):
                if text[pos] != "*":
                    self.error((sec, ti + pos, ti + len(text)),
                               f"expected '*' between factors, got {text[pos:]!r}")
                    return None
                pos += 1
        if text[-1] == "*":  # a factor never ends in '*', so the loop took it as a separator
            self.error((sec, ti + len(text) - 1, ti + len(text)), "dangling '*' ends the term")
            return None
        return (tuple(xfactor(v, e) for v, e in sorted(exps.items())), coeff) if coeff else None

    def parse_element(self, sec, Q):
        text = sec.text
        semi = text.find(";")
        if semi < 0:
            self.error(_stripped(sec, 0, len(text)),
                       "element entry needs '; poly: ...' after the ranks")
            return None
        rest, ri, rj = _strip(text[semi + 1:], semi + 1)
        if not rest.startswith("poly:"):
            self.error((sec, ri, rj) if rest else _stripped(sec, 0, len(text)),
                       "expected 'poly:' after ';' in element entry")
            return None
        where = _stripped(sec, ri + 5, rj)
        before = len(self.diags)
        gamma = self.parse_gamma_assignments(sec, semi, Q)
        if len(self.diags) > before:
            return None
        poly = self.parse_poly(where, gamma)
        if len(self.diags) > before:
            return None
        try:
            return SymPoly(Q, gamma, poly)
        except PreconditionError as exc:
            self.error(where, str(exc))
            return None

    # -- driver -------------------------------------------------------------

    def run(self):
        name, sections, gammas = self.scan()
        name = self.parse_name(name)
        vertices = self.parse_vertices(_Section(sections.get("vertices", [])))
        arrows = self.parse_arrows(_Section(sections.get("arrows", [])), vertices)
        Q = Quiver(vertices, arrows, name=name)
        inverted = None
        if "invert" in sections:
            inverted = self.parse_invert(_Section(sections["invert"]), {a.id for a in arrows})
        potential = self.parse_potential(_Section(sections.get("potential", [])), Q, inverted)
        elements = []
        for record in gammas:
            el = self.parse_element(_Section(record), Q)
            if el is not None:
                elements.append(el)
        if self.diags:
            raise QPParseError(self.finish_diagnostics())
        doc = QPDocument(name, Q, potential, inverted, tuple(elements))
        doc.qp()  # final cross-check; raises PreconditionError on internal error
        return doc

    def finish_diagnostics(self):
        """The diagnostics, character offsets turned into byte offsets."""
        btab = [0, *accumulate(len(ch.encode()) for ch in self.text)]
        return [Diagnostic(sev, btab[start], btab[end], message)
                for sev, start, end, message in self.diags]


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
