"""The benchmark's tracer finds every function it wraps."""

from __future__ import annotations

import importlib
import importlib.util
from pathlib import Path

TRACING = Path(__file__).resolve().parents[1] / "perfbench" / "tracing.py"


def test_trace_targets_resolve_on_the_package():
    """perfbench --trace 1 looks its targets up by name, so renaming or
    deleting one (say Poly.divide_linear, which src/ no longer calls) would
    break the traced run."""
    spec = importlib.util.spec_from_file_location("perfbench_tracing", TRACING)
    tracing = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(tracing)
    assert tracing.TARGETS
    for mod_name, owner_name, attr, *_ in tracing.TARGETS:
        module = importlib.import_module(f"quiveralg.{mod_name}")
        owner = getattr(module, owner_name) if owner_name else module
        assert callable(getattr(owner, attr, None)), (mod_name, owner_name, attr)
