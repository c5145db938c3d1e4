"""Memory and time of the shuffle model at large ranks, which the
benchmark's tiers do not reach.

usage: python3 tools/rank_scaling.py [--src DIR]

Imports quiveralg from DIR (default: this checkout's src/) in a fresh
child process per measurement, each capped at 1.5 GB of address space
(RLIMIT_AS), and prints one JSON line per measurement:

- the slot layout of one vertex at ranks 300, 1,000 and 3,000: seconds to
  build it, then its tracemalloc peak in MB (built anew);
- parse_qp of the power sum x[u,1] + ... + x[u,n], n = 500 and 1,500:
  seconds;
- `quiveralg shuffle-mul` on two `gamma: u=3000; poly: 1` elements of the
  point quiver: seconds, exit code, stdout, and the last line of stderr.

A child that dies (a MemoryError under the cap, say) is reported by its
exit code and the last line of its stderr.  Standard library only.
"""

from __future__ import annotations

import argparse
import json
import resource
import subprocess
import sys
import tempfile
import time
from pathlib import Path

CAP_BYTES = 1_500_000_000

LAYOUT = """
import time, tracemalloc
from quiveralg.shuffle import _layout
start = time.perf_counter()
_layout(("u",), ({rank},))
seconds = time.perf_counter() - start
_layout.cache_clear()
tracemalloc.start()
_layout(("u",), ({rank},))
peak = tracemalloc.get_traced_memory()[1]
print(round(seconds, 4), round(peak / 1e6, 3))
"""

POWER_SUM = """
import time
from quiveralg.qpformat import parse_qp
text = "vertices: u\\narrows:\\ngamma: u={rank}; poly: " + " + ".join(
    f"x[u,{{a}}]" for a in range(1, {rank} + 1)) + "\\n"
start = time.perf_counter()
parse_qp(text)
print(round(time.perf_counter() - start, 4))
"""

PRODUCT = """
from quiveralg.cli import main
raise SystemExit(main(["shuffle-mul", {path!r}]))
"""


def _capped():
    resource.setrlimit(resource.RLIMIT_AS, (CAP_BYTES, CAP_BYTES))


def child(src, code):
    """(seconds, exit code, stdout, last stderr line) of code run by a fresh
    interpreter importing from src under the address-space cap."""
    start = time.perf_counter()
    done = subprocess.run([sys.executable, "-c", code], capture_output=True, text=True,
                          env={"PYTHONPATH": src, "PYTHONDONTWRITEBYTECODE": "1"},
                          preexec_fn=_capped)
    seconds = round(time.perf_counter() - start, 3)
    lines = done.stderr.strip().splitlines()
    return seconds, done.returncode, done.stdout.strip(), lines[-1] if lines else ""


def main(argv=None):
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--src", default=str(Path(__file__).resolve().parents[1] / "src"))
    args = ap.parse_args(argv)
    src = str(Path(args.src).resolve())
    for rank in (300, 1000, 3000):
        _, code, out, err = child(src, LAYOUT.format(rank=rank))
        row = {"measure": "layout", "rank": rank, "exit": code}
        if code == 0:
            seconds, peak = out.split()
            row.update(seconds=float(seconds), tracemalloc_peak_mb=float(peak))
        else:
            row["stderr"] = err
        print(json.dumps(row), flush=True)
    for rank in (500, 1500):
        _, code, out, err = child(src, POWER_SUM.format(rank=rank))
        row = {"measure": "parse power sum", "rank": rank, "exit": code}
        row.update({"seconds": float(out)} if code == 0 else {"stderr": err})
        print(json.dumps(row), flush=True)
    with tempfile.TemporaryDirectory() as tmp:
        path = Path(tmp) / "point_3000.qp"
        path.write_text("vertices: u\narrows:\n" + "gamma: u=3000; poly: 1\n" * 2)
        seconds, code, out, err = child(src, PRODUCT.format(path=str(path)))
    print(json.dumps({"measure": "point product u=3000 * u=3000", "seconds": seconds,
                      "exit": code, "stdout": out, "stderr": err}), flush=True)
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
