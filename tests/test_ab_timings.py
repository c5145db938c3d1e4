"""tools/ab_timings.py: two checkouts timed in one process."""

from __future__ import annotations

import json
import shutil
import subprocess
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parents[1]
TOOL = ROOT / "tools" / "ab_timings.py"


def ab_timings(a, b, workload):
    cmd = [sys.executable, str(TOOL), "--a", str(a), "--b", str(b), "--workload", workload,
           "--seconds", "1", "--ops", "5", "--rounds", "1"]
    proc = subprocess.run(cmd, capture_output=True, text=True, check=False, timeout=300)
    return proc.returncode, json.loads(proc.stdout.splitlines()[-1]), proc.stderr


def test_ab_timings_times_a_checkout_against_itself():
    code, summary, err = ab_timings(ROOT, ROOT, "stability_walls")
    assert code == 0, err
    assert summary["operations"] == 5 and summary["pairs"] == 1
    assert summary["failures"] == {"A": 0, "B": 0, "A copy": 0}
    for label in ("B/A", "A/A"):
        (ratio,) = summary[label]["pairs"]
        assert 0 < ratio and summary[label]["median"] == ratio


def test_ab_timings_checks_the_outputs_of_each_tree(tmp_path):
    """A B whose products are off by one fails the workload's own checks,
    and the tool exits 1 without blaming A."""
    shutil.copytree(ROOT / "src" / "quiveralg", tmp_path / "src" / "quiveralg",
                    ignore=shutil.ignore_patterns("__pycache__"))
    with open(tmp_path / "src" / "quiveralg" / "shuffle.py", "a", encoding="utf-8") as fh:
        fh.write(
            "\n\n_exact_mul = shuffle_mul\n\n\n"
            "def shuffle_mul(f, g):\n"
            "    h = _exact_mul(f, g)\n"
            "    return SymPoly(h.quiver, h.gamma, h.poly + 1)\n"
        )
    code, summary, err = ab_timings(ROOT, tmp_path, "contraction_homomorphism")
    assert code == 1
    assert summary["failures"]["A"] == summary["failures"]["A copy"] == 0
    assert summary["failures"]["B"] > 0
    assert "f*g differs from the shuffle sum" in err
