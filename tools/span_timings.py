"""In-process timings of spherical spans larger than the benchmark's tiers.

usage: python3 tools/span_timings.py [--src DIR] [--reps N]

Imports quiveralg from DIR (default: this checkout's src/), times
spherical_span on each span below N times (default 3) and prints one JSON
line per span: the seconds of every repetition, the rank of the basis, and
a digest of the str of every basis element, so that two checkouts can be
compared span by span.  Standard library only.
"""

from __future__ import annotations

import argparse
import hashlib
import json
import sys
import time
from pathlib import Path

SPANS = (
    # (label, vertices, arrows (id, source, target), ranks, degree)
    ("loop-free (2,2) d=4", ("a", "b"), (), (2, 2), 4),
    ("Kronecker (2,2) d=4", ("a", "b"), (("c1", "a", "b"), ("c2", "a", "b")), (2, 2), 4),
    ("A2 (2,2) d=5", ("a", "b"), (("c", "a", "b"),), (2, 2), 5),
    ("3-cycle (1,1,2) d=4", ("a", "b", "c"),
     (("x", "a", "b"), ("y", "b", "c"), ("z", "c", "a")), (1, 1, 2), 4),
)


def main(argv=None):
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--src", default=str(Path(__file__).resolve().parents[1] / "src"))
    ap.add_argument("--reps", type=int, default=3)
    args = ap.parse_args(argv)
    sys.path.insert(0, args.src)
    from quiveralg.quiver import Arrow, Quiver
    from quiveralg.shuffle import spherical_span

    for label, vertices, arrows, ranks, d in SPANS:
        Q = Quiver(vertices, [Arrow(*a) for a in arrows])
        gamma = dict(zip(vertices, ranks))
        seconds = []
        for _ in range(args.reps):
            start = time.perf_counter()
            basis = spherical_span(Q, gamma, d)
            seconds.append(round(time.perf_counter() - start, 4))
        digest = hashlib.sha256("\n".join(map(str, basis)).encode()).hexdigest()[:16]
        print(json.dumps({"span": label, "seconds": seconds,
                          "rank": len(basis), "digest": digest}), flush=True)
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
