"""Memory that parsed .qp documents keep alive, measured with tracemalloc.

usage: python3 tools/parse_memory.py [--src DIR] [--seed N]

Imports quiveralg from DIR (default: this checkout's src/), builds three
fixed sets of documents from the seed (default 1) and parses each set,
keeping every parsed document alive:

- wall: quivers of 2-4 vertices and 2-5 arrows, no elements, as a wall
  scan or eta check reads them;
- contraction: quivers of 2-4 vertices and 2-6 arrows with two symmetric
  polynomial elements of ranks 0-2, as a contraction check reads them;
- span: quivers of 1-3 vertices and 0-4 arrows, no elements, as a
  spherical span reads them.

It prints one JSON line per kind: the bytes traced between a snapshot
before the parse and one after it (with garbage collected), per document
and in all, and the five allocation sites that grew most.  Two checkouts
are compared by running it once with each one's src/.  Standard library
only; the documents are built here, so the tool runs on any checkout.
"""

from __future__ import annotations

import argparse
import gc
import json
import random
import sys
import tracemalloc
from itertools import permutations
from pathlib import Path

# (kind, documents, vertices (lo, hi), arrows (lo, hi), with elements)
KINDS = (
    ("wall", 2000, (2, 4), (2, 5), False),
    ("contraction", 1100, (2, 4), (2, 6), True),
    ("span", 320, (1, 3), (0, 4), False),
)
COEFFICIENTS = ("1", "-1", "2", "-2", "3", "1/2", "-3/2")


def _symmetric_terms(rng, gamma):
    """Monomials of a product, over the vertices, of one monomial symmetric
    function per vertex: each a list of (vertex, slot, exponent)."""
    monomials = [[]]
    for v, rank in gamma.items():
        if not rank:
            continue
        exps = tuple(rng.randint(0, 2) for _ in range(rank))
        orbit = sorted(set(permutations(exps)))
        monomials = [m + [(v, slot, e) for slot, e in enumerate(p, 1) if e]
                     for m in monomials for p in orbit]
    return monomials


def _poly_text(rng, gamma):
    terms = []
    for _ in range(rng.randint(1, 3)):
        c = rng.choice(COEFFICIENTS)
        for mono in _symmetric_terms(rng, gamma):
            factors = "*".join(f"x[{v},{slot}]" + (f"^{e}" if e > 1 else "")
                               for v, slot, e in mono)
            body = f"{c.lstrip('-')}*{factors}" if factors else c.lstrip("-")
            sign = "-" if c.startswith("-") else "+"
            terms.append((sign, body))
    (sign, body), rest = terms[0], terms[1:]
    return ("-" if sign == "-" else "") + body + "".join(f" {s} {b}" for s, b in rest)


def document(rng, kind, vertices, arrows, elements):
    vs = [f"v{k}" for k in range(rng.randint(*vertices))]
    lines = [f"quiver {kind[0].upper()}", "vertices: " + ", ".join(vs),
             "arrows: " + "; ".join(f"a{k}: {rng.choice(vs)} -> {rng.choice(vs)}"
                                    for k in range(rng.randint(*arrows)))]
    for _ in range(2 if elements else 0):
        gamma = {v: rng.choice((0, 1, 1, 2)) for v in vs}
        ranks = ",".join(f"{v}={r}" for v, r in gamma.items())
        lines.append(f"gamma: {ranks}; poly: {_poly_text(rng, gamma)}")
    return "\n".join(lines) + "\n"


def _site(stat, src):
    frame = stat.traceback[0]
    path = Path(frame.filename)
    name = path.relative_to(src).as_posix() if path.is_relative_to(src) else path.name
    return f"{name}:{frame.lineno}"


def main(argv=None):
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--src", default=str(Path(__file__).resolve().parents[1] / "src"))
    ap.add_argument("--seed", type=int, default=1)
    args = ap.parse_args(argv)
    src = Path(args.src).resolve()
    sys.path.insert(0, str(src))
    from quiveralg.qpformat import parse_qp

    for kind, count, vertices, arrows, elements in KINDS:
        rng = random.Random(f"{kind}:{args.seed}")
        texts = [document(rng, kind, vertices, arrows, elements) for _ in range(count)]
        parse_qp(texts[0])  # first-use work (regex compilation) is not counted
        gc.collect()
        tracemalloc.start()
        before = tracemalloc.take_snapshot()
        docs = [parse_qp(text) for text in texts]
        gc.collect()
        after = tracemalloc.take_snapshot()
        tracemalloc.stop()
        stats = after.compare_to(before, "lineno")
        retained = sum(s.size_diff for s in stats)
        top = sorted(stats, key=lambda s: -s.size_diff)[:5]
        print(json.dumps({
            "kind": kind,
            "documents": len(docs),
            "source_bytes": sum(len(t.encode()) for t in texts),
            "retained_bytes": retained,
            "bytes_per_document": round(retained / len(docs)),
            "top_sites": [{"site": _site(s, src), "bytes": s.size_diff, "objects": s.count_diff}
                          for s in top],
        }), flush=True)
        del docs
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
