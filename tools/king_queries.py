"""How the King queries of the stability_walls workload are decided.

usage: python3 tools/king_queries.py [--src DIR] [--seed N] [--seconds S]

Imports quiveralg from DIR (default: this checkout's src/), rebuilds the
seed's stability_walls operations (default seed 1, at the 10 seconds of
BENCHMARK.json) with this checkout's perfbench/inputs.py, which it only
reads, and runs them once in-process, in order, as perfbench/run.py times
them.  While they run it records the arguments of every
``scattering._exists_once`` call and counts the calls of
``scattering._all_representations``, one per search that enumerates.
Afterwards it classifies each recorded query by its own computation:

- empty_mask: no d <= gamma has kappa(d) > 0, so the verdict is true;
- settled: some such d has no arrow whose source is non-zero in d and
  whose target is below gamma there, so the verdict is false;
- searched: the rest, each with a support key: the arrows with both ends
  in the support of gamma (renumbered, without ids, sorted), gamma and
  the destabilizing d on that support, and p.

It prints one JSON line: those counts, the distinct support keys, the
enumerations, the verdicts the scans reported, and the seconds the
operations took (the recording included).  Searched queries that did not
enumerate were answered from an earlier search.  Two checkouts are
compared by running it once with each one's src/.  Standard library only.
"""

from __future__ import annotations

import argparse
import json
import sys
import time
from itertools import product
from pathlib import Path

ROOT = Path(__file__).resolve().parents[1]


def classify(Q, gamma, direction, p):
    """'empty_mask', 'settled', or the query's support key."""
    index = {v: i for i, v in enumerate(Q.vertices)}
    arrows = [(index[a.source], index[a.target]) for a in Q.arrows]
    destabilizing = [
        d for d in product(*(range(g + 1) for g in gamma))
        if sum(x * y for x, y in zip(direction, d)) > 0
    ]
    if not destabilizing:
        return "empty_mask"
    if any(not any(d[s] and d[t] < gamma[t] for s, t in arrows) for d in destabilizing):
        return "settled"
    support = [i for i, g in enumerate(gamma) if g]
    at = {i: k for k, i in enumerate(support)}
    return (
        tuple(sorted((at[s], at[t]) for s, t in arrows if s in at and t in at)),
        tuple(gamma[i] for i in support),
        tuple(tuple(d[i] for i in support) for d in destabilizing),
        p,
    )


def main(argv=None):
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--src", default=str(ROOT / "src"))
    ap.add_argument("--seed", type=int, default=1)
    ap.add_argument("--seconds", type=float, default=10)
    args = ap.parse_args(argv)
    sys.dont_write_bytecode = True  # leave no cache files in perfbench/
    sys.path.insert(0, str(ROOT / "perfbench"))
    sys.path.insert(0, str(Path(args.src).resolve()))
    import inputs
    from quiveralg import scattering
    from quiveralg.qpformat import parse_qp

    specs = inputs.wall_inputs(args.seed, args.seconds)
    quivers = [parse_qp(spec["text"]).quiver for spec in specs]

    queries = []
    exists_once, all_representations = scattering._exists_once, scattering._all_representations
    enumerations = 0

    def recording(memo, Q, gamma, direction, p):
        queries.append((Q, gamma, direction, p))
        return exists_once(memo, Q, gamma, direction, p)

    def counting(*a):
        nonlocal enumerations
        enumerations += 1
        return all_representations(*a)

    scattering._exists_once, scattering._all_representations = recording, counting
    scan_verdicts = 0
    seconds = 0.0
    for Q, spec in zip(quivers, specs):
        start = time.perf_counter()
        if spec["kind"] == "eta":
            scattering.eta_embedding_check(
                Q, spec["arrow"], spec["maxgamma"], spec["samples"], spec["p"]
            )
        else:
            entries = scattering.wall_support_scan(Q, spec["maxgamma"], spec["samples"], spec["p"])
            scan_verdicts += sum(len(e.verdicts) for e in entries)
        seconds += time.perf_counter() - start

    counts = {"empty_mask": 0, "settled": 0, "searched": 0}
    keys = set()
    for query in queries:
        kind = classify(*query)
        if isinstance(kind, str):
            counts[kind] += 1
        else:
            counts["searched"] += 1
            keys.add(kind)
    print(json.dumps({
        "seed": args.seed,
        "operations": len(specs),
        "scan_verdicts": scan_verdicts,
        "queries": counts,
        "support_keys": len(keys),
        "enumerations": enumerations,
        "seconds": round(seconds, 3),
    }), flush=True)
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
