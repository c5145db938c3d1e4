"""Mutation and Higgsing on seeded random quivers with potential.

usage: python3 tools/reduction_sampler.py [--src DIR] [--seed N] [--documents N]

Imports quiveralg from DIR (default: this checkout's src/) and builds N
seeded random documents (default 3,000, seed 1): 3-4 vertices, 3-7 arrows
and a potential of 1-4 closed walks of length 2-4 with coefficients from
{1, -1, 2, 1/2, 3}.  The documents depend only on the seed, never on the
package.  On each document it runs ``mutate --vertex V`` at every vertex
and ``higgs --arrow A`` along every non-loop arrow through ``cli.main``,
in process, and prints one JSON line per call: the document's number and
text, the command, its argument, the exit code, the sha256 of stdout and
the last line of stderr.  An exception that escapes ``cli.main`` is
recorded with exit "exception" and its repr.  A final line counts the
calls by command and exit code.  Two checkouts are compared by diffing
the outputs of one run with each one's src/.  Standard library only.
"""

from __future__ import annotations

import argparse
import contextlib
import hashlib
import io
import json
import os
import random
import sys
import tempfile
from collections import Counter
from pathlib import Path

ROOT = Path(__file__).resolve().parents[1]
COEFFICIENTS = ("1", "-1", "2", "1/2", "3")


def random_document(rng):
    """The text of one random quiver with potential, and its calls as
    (command, option, argument)."""
    vertices = [f"v{i}" for i in range(rng.randint(3, 4))]
    arrows = [
        (f"a{k}", rng.choice(vertices), rng.choice(vertices))
        for k in range(rng.randint(3, 7))
    ]
    terms, wanted = [], rng.randint(1, 4)
    for _ in range(50):
        if len(terms) == wanted:
            break
        walk = [rng.choice(arrows)]
        for _ in range(rng.randint(1, 3)):
            outs = [a for a in arrows if a[1] == walk[-1][2]]
            if not outs:
                break
            walk.append(rng.choice(outs))
        if len(walk) > 1 and walk[-1][2] == walk[0][1]:
            letters = ".".join(a[0] for a in reversed(walk))  # last letter acts first
            terms.append(f"{rng.choice(COEFFICIENTS)} * {letters}")
    text = (
        f"vertices: {', '.join(vertices)}\n"
        f"arrows: {'; '.join(f'{a}: {s} -> {t}' for a, s, t in arrows)}\n"
    )
    if terms:
        text += f"potential: {' + '.join(terms)}\n"
    calls = [("mutate", "--vertex", v) for v in vertices]
    calls += [("higgs", "--arrow", a) for a, s, t in arrows if s != t]
    return text, calls


def run(main, argv):
    """(exit, stdout, stderr) of one in-process call of cli.main."""
    out, err = io.StringIO(), io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        try:
            code = main(argv)
        except Exception as exc:  # recorded, so a comparison shows it
            code, err = "exception", io.StringIO(repr(exc))
    return code, out.getvalue(), err.getvalue()


def sample(main, seed, documents, emit):
    """Run every call on the seed's documents; return the summary counts."""
    rng = random.Random(seed)
    counts = Counter()
    with tempfile.TemporaryDirectory() as tmp:
        path = os.path.join(tmp, "doc.qp")
        for number in range(documents):
            text, calls = random_document(rng)
            with open(path, "w", encoding="utf-8") as fh:
                fh.write(text)
            for command, option, arg in calls:
                code, out, err = run(main, [command, option, arg, path])
                counts[command, code] += 1
                emit({
                    "document": number, "text": text, "command": command, "arg": arg,
                    "exit": code, "stdout_sha256": hashlib.sha256(out.encode()).hexdigest(),
                    "stderr": (err.strip().splitlines() or [""])[-1],
                })
    summary = {}
    for (command, code), n in sorted(counts.items(), key=str):
        summary.setdefault(command, {})[str(code)] = n
    return summary


def main(argv=None):
    parser = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    parser.add_argument("--src", default=str(ROOT / "src"))
    parser.add_argument("--seed", type=int, default=1)
    parser.add_argument("--documents", type=int, default=3000)
    args = parser.parse_args(argv)
    sys.path.insert(0, args.src)
    from quiveralg.cli import main as cli_main

    def emit(record):
        print(json.dumps(record, ensure_ascii=False, sort_keys=True))

    summary = sample(cli_main, args.seed, args.documents, emit)
    print(json.dumps({"summary": summary}, sort_keys=True))
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
