"""Two checkouts timed in one process, operation by operation.

usage: python3 tools/ab_timings.py --a DIR --b DIR --workload W
           [--seed N] [--rounds N] [--seconds S] [--ops K]

DIR is the root of a checkout (it holds src/quiveralg).  The tool copies
each tree's quiveralg under a package name of its own (the package uses only
relative imports), plus a second copy of A for an A/A calibration, and
imports all three into one process.  It builds the workload's operations for
the seed (default 1, at the S seconds of BENCHMARK.json, default 10; with
--ops only the first K) with this checkout's perfbench/workloads.py and
perfbench/inputs.py, which it only reads.

A round sets up the operations for two trees (the workload's own set-up,
after clearing every ``lru_cache`` of both trees), so every round is a first
pass, as in perfbench/run.py; then, with the garbage collector frozen as
there, it runs every operation on the two trees back to back.  Each output is
checked with the workload's own check right after it runs, outside the timed
region, so a fast wrong tree cannot win.  A pair of rounds runs each order
once (A then B, B then A), because the tree that goes second can read a few
per cent faster or slower; a pair's ratio is B's total operation time over
A's.  Each of the N pairs (default 10) also runs the calibration pair, A
against its copy, in both orders.  The tool prints every pair's ratios, then
the median and quartiles of B/A and of A/A, and one JSON line last.  A ratio
below 1 means B is faster.  Exit status 1 when an operation raised or a
check failed on any tree.

Limits: the trees share one allocator and one garbage collector; the tool
times operations only, not import, set-up or memory, so ``setup_s`` and
``peak_rss_mb`` still come from perfbench/run.py.  Standard library only.
"""

from __future__ import annotations

import argparse
import gc
import importlib
import json
import shutil
import statistics
import sys
import tempfile
import time
from pathlib import Path
from types import SimpleNamespace

ROOT = Path(__file__).resolve().parents[1]
MODULES = ("quiver", "poly", "linalg", "contraction", "shuffle", "scattering", "qpformat")


def load_tree(checkout, name, into):
    """The checkout's quiveralg, copied to ``into/name`` and imported as
    ``name``, as a namespace of the modules the workloads call."""
    shutil.copytree(Path(checkout) / "src" / "quiveralg", Path(into) / name,
                    ignore=shutil.ignore_patterns("__pycache__"))
    importlib.import_module(name)
    return SimpleNamespace(**{m: importlib.import_module(f"{name}.{m}") for m in MODULES})


def clear_caches(pkg):
    """Empty every ``lru_cache`` defined in the tree's modules."""
    for module in vars(pkg).values():
        for obj in vars(module).values():
            if hasattr(obj, "cache_clear") and obj.__module__ == module.__name__:
                obj.cache_clear()


def run_round(workload, specs, trees):
    """Set up, then time every operation on each tree in ``trees`` in that
    order; returns each tree's total seconds and its failures."""
    inputs = []
    for pkg in trees:
        clear_caches(pkg)
        inputs.append([workload.setup(pkg, spec) for spec in specs])
    totals = [0.0] * len(trees)
    failures = [[] for _ in trees]
    gc.collect()
    gc.freeze()
    for k, spec in enumerate(specs):
        for t, pkg in enumerate(trees):
            start = time.perf_counter()
            try:
                out = workload.run(pkg, inputs[t][k])
            except Exception as exc:  # an operation that raises counts as failed
                totals[t] += time.perf_counter() - start
                failures[t].append(f"op {spec['index']} raised {exc!r}")
                continue
            totals[t] += time.perf_counter() - start
            failures[t] += [f"op {spec['index']}: {p}" for p in workload.check(pkg, spec, out)]
            del out
    gc.unfreeze()
    return totals, failures


def quartiles(xs):
    if len(xs) < 2:
        return xs[0], xs[0], xs[0]
    q1, q2, q3 = statistics.quantiles(xs, n=4, method="inclusive")
    return q1, q2, q3


def main(argv=None):
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--a", required=True, help="root of checkout A (the reference)")
    ap.add_argument("--b", required=True, help="root of checkout B")
    ap.add_argument("--workload", required=True)
    ap.add_argument("--seed", type=int, default=1)
    ap.add_argument("--rounds", type=int, default=10, help="pairs of rounds")
    ap.add_argument("--seconds", type=int, default=10)
    ap.add_argument("--ops", type=int, default=None, help="only the first K operations")
    args = ap.parse_args(argv)
    if args.rounds < 1:
        ap.error("--rounds must be at least 1")
    sys.dont_write_bytecode = True  # leave no cache files in perfbench/ or the copies
    sys.path.insert(0, str(ROOT / "perfbench"))
    from workloads import WORKLOADS

    workload = WORKLOADS[args.workload]
    specs = workload.make_inputs(args.seed, args.seconds)[: args.ops]
    with tempfile.TemporaryDirectory() as tmp:
        sys.path.insert(0, tmp)
        a, b, a2 = (load_tree(d, n, tmp) for d, n in
                    ((args.a, "tree_a"), (args.b, "tree_b"), (args.a, "tree_a_copy")))
        ratios = {"B/A": [], "A/A": []}
        failures = {"A": set(), "B": set(), "A copy": set()}
        for r in range(args.rounds):
            for label, other, other_name in (("B/A", b, "B"), ("A/A", a2, "A copy")):
                (ta, tb), (fa, fb) = run_round(workload, specs, (a, other))
                (tb2, ta2), (fb2, fa2) = run_round(workload, specs, (other, a))
                ratios[label].append((tb + tb2) / (ta + ta2))
                failures["A"].update(fa, fa2)
                failures[other_name].update(fb, fb2)
            print(f"pair {r + 1}: B/A {ratios['B/A'][-1]:.4f}  A/A {ratios['A/A'][-1]:.4f}",
                  flush=True)
    summary = {"workload": args.workload, "seed": args.seed, "operations": len(specs),
               "pairs": args.rounds, "python": sys.version.split()[0]}
    for label, xs in ratios.items():
        q1, med, q3 = quartiles(xs)
        print(f"{label}: median {med:.4f}, IQR {q1:.4f}-{q3:.4f}")
        summary[label] = {"median": med, "q1": q1, "q3": q3, "pairs": xs}
    for tree, problems in failures.items():
        for p in sorted(problems)[:20]:
            print(f"{tree}: {p}", file=sys.stderr)
    summary["failures"] = {tree: len(problems) for tree, problems in failures.items()}
    print(json.dumps(summary))
    return 1 if any(failures.values()) else 0


if __name__ == "__main__":
    sys.exit(main())
