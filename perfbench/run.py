"""Fixed-work benchmark of quiveralg.

    python3 perfbench/run.py --workload NAME --seed N --seconds S --trace 0|1
    python3 perfbench/run.py --workload all            # every workload, one process each
    python3 perfbench/run.py --workload NAME --dump-inputs DIR

Run from the root of a checkout; the package is imported from `src/`.
Each run builds a fixed, seeded list of operations (`--seconds` sets its
length for a 10-second reference: it scales the operation count, it is not a
deadline), times the set-up and every operation, checks every output after
the timed region, and prints one JSON object as its last line.  With
`--trace 1` the run wraps the package's layers and prints per-layer figures
instead of end-to-end ones, and writes its spans under `perfbench/out/`.
"""

from __future__ import annotations

import argparse
import gc
import importlib
import json
import resource
import statistics
import subprocess
import sys
import time
import traceback
from pathlib import Path
from types import SimpleNamespace

HERE = Path(__file__).resolve().parent
ROOT = Path.cwd()
SRC = ROOT / "src"
OUT = HERE / "out"
sys.path.insert(0, str(HERE))

from tracing import Tracer  # noqa: E402
from workloads import WORKLOADS  # noqa: E402

MODULES = ("quiver", "poly", "linalg", "contraction", "shuffle", "scattering", "qpformat")
SETUP_REPEATS = 5
DEFAULT_SEED = 1
MAX_REPORTED_PROBLEMS = 20


def import_package():
    """A fresh import of quiveralg and the modules the workloads call."""
    for name in [n for n in sys.modules if n.split(".")[0] == "quiveralg"]:
        del sys.modules[name]
    importlib.import_module("quiveralg")
    return SimpleNamespace(
        **{m: importlib.import_module(f"quiveralg.{m}") for m in MODULES}
    )


def tail_index(n):
    """Index, in ascending order, of the highest percentile with at least ten
    operations beyond it (the lowest latency when there are ten or fewer)."""
    return max(0, n - 11)


def set_up(workload, specs, tracer):
    """Import and parse SETUP_REPEATS times; the last pass's inputs are used.
    With a tracer, it is installed before the last pass parses."""
    times = []
    for rep in range(SETUP_REPEATS):
        gc.collect()
        start = time.perf_counter()
        pkg = import_package()
        if tracer is not None and rep == SETUP_REPEATS - 1:
            tracer.install(pkg)
            start = time.perf_counter()
        inputs = [workload.setup(pkg, spec) for spec in specs]
        times.append(time.perf_counter() - start)
    return pkg, inputs, times


def run_one(args):
    workload = WORKLOADS[args.workload]
    if not (SRC / "quiveralg" / "__init__.py").is_file():
        print(f"no package source at {SRC}/quiveralg; run from a checkout's root",
              file=sys.stderr)
        return 2
    sys.path.insert(0, str(SRC))
    specs = workload.make_inputs(args.seed, args.seconds)
    tracer = Tracer() if args.trace else None
    pkg, inputs, setup_times = set_up(workload, specs, tracer)
    if not Path(pkg.shuffle.__file__).resolve().is_relative_to(SRC.resolve()):
        print(f"quiveralg was imported from {pkg.shuffle.__file__}, not {SRC}", file=sys.stderr)
        return 2

    # Each output is checked right after its operation, outside the timed
    # region, and then dropped, so that memory and garbage-collection work do
    # not grow with the number of operations already run.
    latencies, errors, problems = [], [], []
    gc.collect()
    gc.freeze()
    for spec, inp in zip(specs, inputs):
        if tracer is not None:
            tracer.operation = spec["index"]
            tracer.active = True
        start = time.perf_counter()
        try:
            out = workload.run(pkg, inp)
        except Exception:  # an operation that raises counts as failed
            errors.append((spec["index"], traceback.format_exc()))
            out = None
        latencies.append(time.perf_counter() - start)
        if tracer is not None:
            tracer.active = False
        if out is not None:
            problems += [f"op {spec['index']} ({spec['tier']}): {p}"
                         for p in workload.check(pkg, spec, out)]
        del out
    peak_rss_mb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024
    if tracer is not None:
        tracer.uninstall()
    for index, tb in errors[:MAX_REPORTED_PROBLEMS]:
        print(f"op {index} failed:\n{tb}", file=sys.stderr)
    for p in problems[:MAX_REPORTED_PROBLEMS]:
        print(f"check failed: {p}", file=sys.stderr)

    n = len(latencies)
    ordered = sorted(latencies)
    ops_per_s = n / sum(latencies)
    if tracer is None:
        metrics = {
            "ops_per_s": {"value": ops_per_s, "unit": "1/s"},
            "op_p50_ms": {"value": 1000 * statistics.median(latencies), "unit": "ms"},
            "op_tail_ms": {"value": 1000 * ordered[tail_index(n)], "unit": "ms"},
            "setup_s": {"value": statistics.median(setup_times), "unit": "s"},
            "peak_rss_mb": {"value": peak_rss_mb, "unit": "MB"},
        }
    else:
        metrics = {k: {"value": v, "unit": u} for k, (v, u) in tracer.metrics().items()}
        OUT.mkdir(exist_ok=True)
        path = OUT / f"trace-{args.workload}-seed{args.seed}.json"
        tracer.write(path, {"workload": args.workload, "seed": args.seed,
                            "seconds": args.seconds, "operations": n,
                            "ops_per_s_traced": ops_per_s})
        print(f"trace written to {path.relative_to(ROOT)}; traced ops_per_s {ops_per_s:.4f}",
              file=sys.stderr)
    print(json.dumps({
        "correct": not problems,
        "attempted": n,
        "failed": len(errors),
        "metrics": metrics,
    }))
    return 0


def run_all(args):
    """Every workload in its own process, one after another."""
    summary = {}
    for name in WORKLOADS:
        cmd = [sys.executable, str(HERE / "run.py"), "--workload", name,
               "--seed", str(args.seed), "--seconds", str(args.seconds),
               "--trace", str(args.trace)]
        proc = subprocess.run(cmd, capture_output=True, text=True, check=False)
        sys.stderr.write(proc.stderr)
        lines = proc.stdout.strip().splitlines()
        if proc.returncode or not lines:
            print(f"{name}: exit {proc.returncode}", file=sys.stderr)
            return proc.returncode or 1
        result = json.loads(lines[-1])
        summary[name] = result
        print(f"{name}: correct={result['correct']} attempted={result['attempted']} "
              f"failed={result['failed']}")
        for metric, m in result["metrics"].items():
            print(f"  {metric} = {m['value']:.6g} {m['unit']}")
    print(json.dumps(summary))
    return 0


def dump_inputs(args):
    """Write a workload's generated inputs: one `.qp` file per operation
    plus its parameters as JSON."""
    target = Path(args.dump_inputs)
    target.mkdir(parents=True, exist_ok=True)
    specs = WORKLOADS[args.workload].make_inputs(args.seed, args.seconds)
    for spec in specs:
        stem = target / f"{args.workload}-{spec['index']:04d}"
        stem.with_suffix(".qp").write_text(spec["text"], encoding="utf-8")
        params = {k: v for k, v in spec.items()
                  if k not in ("text", "elements", "point", "vertices", "arrows")}
        stem.with_suffix(".json").write_text(json.dumps(params, default=str) + "\n",
                                             encoding="utf-8")
    print(f"{len(specs)} inputs written to {target}")
    return 0


def main(argv=None):
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=[*WORKLOADS, "all"])
    parser.add_argument("--seed", type=int, default=DEFAULT_SEED)
    parser.add_argument("--seconds", type=int, default=10)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--dump-inputs", metavar="DIR")
    args = parser.parse_args(argv)
    if args.seconds < 1:
        parser.error("--seconds must be at least 1")
    if args.dump_inputs:
        if args.workload == "all":
            parser.error("--dump-inputs needs one workload")
        return dump_inputs(args)
    if args.workload == "all":
        return run_all(args)
    return run_one(args)


if __name__ == "__main__":
    sys.exit(main())
