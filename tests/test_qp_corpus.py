"""Seeded mutation corpus for the `.qp` parser.

Every document of the corpus must end in a `QPDocument` whose printed form
re-parses to an equal document, or in a `QPParseError` whose spans lie
within the source bytes; no other exception may escape.  Every outcome is
also pinned byte for byte: `qp_corpus_digests.json` holds one sha256 per
block of documents, so a changed diagnostic (message, byte span or order)
or a changed printed document names its block.  The digests record the
outcomes of the parser before its plain-string rewrite: they were generated
by running this file as a script against a `git archive` copy of commit
302240b,

    PYTHONPATH=<302240b>/src python3 tests/test_qp_corpus.py > tests/qp_corpus_digests.json

The documents listed there under `zero_division` raised `ZeroDivisionError`
in that parser; they must now give the zero-denominator diagnostic.  When a
term ending in a dangling `*` became a diagnostic, only the 16 blocks that
hold the 17 such documents were re-pinned from `src`, after checking that
each of those documents only gained the new diagnostic.
Regenerate the digests from `src` only when a diagnostic or a printed form
is meant to change, and record that change in CHANGES.md: digests taken from
a parser that has regressed would pin the regression.
"""

import hashlib
import json
import random
import sys
from functools import lru_cache
from pathlib import Path

from quiveralg.errors import QPParseError
from quiveralg.qpformat import parse_qp, print_qp

SEED = 20261019
DOCUMENTS = 20000
BLOCK = 100
DIGESTS = Path(__file__).with_name("qp_corpus_digests.json")
ZERO_DIVISION = "ZeroDivisionError"

# Every section, comments, continuation lines, a non-ASCII vertex, an
# inverse letter and elements of rank 2.
FULL = """\
# every section
quiver full
vertices: u, ü,
  w
arrows: a0: u -> ü; c: u -> ü; b: ü -> u;
  l: w -> w  # loop
invert: a0
potential: 1 * b.a0 + -1/2 * l.l.l
  + 3 * a0^-1.c
gamma: u=2,ü=1; poly: x[u,1]*x[u,2] - 3/4*x[ü,1]^2 + 5
gamma: w=1; poly: -x[w,1]^3 + 2*x[w,1]
"""

TOKENS = (
    ":", ";", ",", ".", "->", "=", "*", "+", " + ", " - ", "-", "/", "/0",
    "^", "^-1", "[", "]", "#", " ", "\t", "0", "1/0", "7", "u", "v0", "ü",
    "x[u,1]", "x[v0,2]", "a0", "gamma:", "; poly:", "potential:", "arrows:",
    "vertices:", "invert:", "quiver ", "1/0*", " + 7/0", " + 1/0 * b.a0",
)
COEFFICIENTS = ("", "2*", "-1*", "1/2*", "-3/2*", "0*")


def base_document(rng):
    """A small document shaped like the benchmark's inputs: a quiver and an
    element of rank at most one per vertex, or of rank two at one vertex."""
    vs = [f"v{i}" for i in range(rng.randint(1, 3))]
    arrows = "; ".join(
        f"a{k}: {rng.choice(vs)} -> {rng.choice(vs)}" for k in range(rng.randint(0, 2)))
    lines = [f"quiver {rng.choice('HSW')}", "vertices: " + ", ".join(vs), "arrows: " + arrows]
    v = rng.choice(vs)
    if rng.random() < 0.2:
        lines.append(f"gamma: {v}=2; poly: x[{v},1]*x[{v},2] + x[{v},1]^2 + x[{v},2]^2")
    elif rng.random() < 0.8:
        ranked = sorted({v, rng.choice(vs)})
        terms = [
            rng.choice(COEFFICIENTS) + "*".join(f"x[{u},1]^{rng.randint(1, 3)}" for u in ranked[:k])
            for k in range(1, len(ranked) + 1)
        ]
        ranks = ",".join(f"{u}=1" for u in ranked)
        lines.append(f"gamma: {ranks}; poly: {' + '.join(terms)} - 1")
    return "\n".join(lines) + "\n"


def mutate(text, rng):
    """One to three edits: insert a grammar token, delete up to three
    characters, or break the line."""
    for _ in range(rng.randint(1, 3)):
        k = rng.randrange(len(text) + 1)
        op = rng.random()
        if op < 0.5:
            text = text[:k] + rng.choice(TOKENS) + text[k:]
        elif op < 0.8:
            text = text[:k] + text[k + rng.randint(1, 3):]
        else:
            text = text[:k] + rng.choice(("\n", "\n  ")) + text[k:]
    return text


def corpus():
    rng = random.Random(SEED)
    for _ in range(DOCUMENTS):
        yield mutate(FULL if rng.random() < 0.1 else base_document(rng), rng)


@lru_cache(maxsize=None)
def outcomes():
    """(outcome, problem) per document.  An outcome is the printed document
    or the diagnostics, one `start end message` line each; a problem is a
    broken round trip, a span outside the source, or an untyped exception."""
    out = []
    for text in corpus():
        problem = None
        try:
            doc = parse_qp(text)
        except QPParseError as exc:
            size = len(text.encode("utf-8"))
            outcome = "error\n" + "".join(
                f"{d.start} {d.end} {d.message}\n" for d in exc.diagnostics)
            if not exc.diagnostics or any(
                    not 0 <= d.start <= d.end <= size for d in exc.diagnostics):
                problem = f"span outside the source: {outcome}"
        except Exception as exc:  # any other escape is a failure to record
            outcome = type(exc).__name__
            problem = f"{outcome} escaped: {exc}"
        else:
            outcome = "ok\n" + print_qp(doc)
            if parse_qp(print_qp(doc)) != doc:
                problem = "printed document re-parses to a different document"
        out.append((outcome, problem))
    return out


def block_digests(outs):
    return [
        hashlib.sha256("\0".join(outs[k:k + BLOCK]).encode("utf-8")).hexdigest()
        for k in range(0, len(outs), BLOCK)
    ]


def test_every_mutated_document_parses_or_raises_a_typed_error():
    problems = [(i, text, p) for i, (text, (_, p)) in enumerate(zip(corpus(), outcomes())) if p]
    assert not problems, problems[:5]
    parsed = sum(o.startswith("ok\n") for o, _ in outcomes())
    # the corpus exercises both outcomes, and the zero-denominator inputs
    assert 1000 < parsed < DOCUMENTS - 1000
    assert sum("zero denominator" in o for o, _ in outcomes()) > 20


def test_outcomes_match_the_recorded_digests():
    pinned = json.loads(DIGESTS.read_text(encoding="utf-8"))
    assert (pinned["seed"], pinned["documents"], pinned["block"]) == (SEED, DOCUMENTS, BLOCK)
    outs = [o for o, _ in outcomes()]
    for i in pinned["zero_division"]:
        assert outs[i].startswith("error\n") and "zero denominator" in outs[i], outs[i]
        outs[i] = ZERO_DIVISION
    got = block_digests(outs)
    changed = [k for k, (a, b) in enumerate(zip(got, pinned["blocks"])) if a != b]
    assert len(got) == len(pinned["blocks"]) and not changed, (
        f"outcomes changed in blocks {changed[:10]} (documents {BLOCK} per block)")


if __name__ == "__main__":
    outs = [o for o, _ in outcomes()]
    json.dump({
        "seed": SEED,
        "documents": DOCUMENTS,
        "block": BLOCK,
        "zero_division": [i for i, o in enumerate(outs) if o == ZERO_DIVISION],
        "blocks": block_digests(outs),
    }, sys.stdout, indent=0)
    sys.stdout.write("\n")
