"""Span tracing for the traced run, installed from the benchmark's side.

Each traced function is replaced by a wrapper wherever its callers look it
up: on its class for methods, and on every loaded `quiveralg` module that
holds it for functions (so `shuffle.rref` is wrapped as well as
`linalg.rref`).  A span records its name, start, end, parent span and the
operation it belongs to.  Spans of the hot polynomial methods are only
summed, not stored, to keep the trace small; every layer still gets its
call count, inclusive time (outermost calls only) and self time (minus the
time of traced calls nested inside it).
"""

from __future__ import annotations

import functools
import json
import math
import sys
import time


def _mul_counts(args, result):
    f, g = args[0], args[1]
    shuffles = 1
    for v in f.gamma:
        shuffles *= math.comb(f.gamma[v] + g.gamma[v], f.gamma[v])
    return {"shuffle.shuffles": shuffles, "shuffle.result_terms": len(result.poly.terms)}


def _div_terms(args, _result):
    return {"poly.div_terms_in": len(args[0].terms)}


def _rref_counts(args, result):
    rows = args[1]
    cols = len(rows[0]) if rows else 0
    return {
        "linalg.rref_rows": len(rows),
        "linalg.rref_cells": len(rows) * cols,
        "linalg.rref_rank": len(result[1]),
    }


def _king_counts(args, result):
    Q, gamma, _kappa, p = args[:4]
    if isinstance(gamma, dict):
        gamma = tuple(gamma[v] for v in Q.vertices)
    index = {v: i for i, v in enumerate(Q.vertices)}
    entries = sum(gamma[index[a.source]] * gamma[index[a.target]] for a in Q.arrows)
    return {"scattering.king_true": int(result.exists), "scattering.king_reps_bound": p**entries}


def _parse_bytes(args, _result):
    return {"qpformat.parse_bytes": len(args[0].encode("utf-8"))}


# (module, owner within the module or None, attribute, span name, stored, counter)
TARGETS = (
    ("shuffle", None, "shuffle_mul", "shuffle.mul", True, _mul_counts),
    ("shuffle", None, "contract_shuffle", "shuffle.contract", True, None),
    ("shuffle", None, "spherical_products", "shuffle.products", True, None),
    ("shuffle", "SymPoly", "__init__", "shuffle.sympoly_new", False, None),
    ("poly", "Poly", "__mul__", "poly.mul", False, None),
    ("poly", "Poly", "rename_vars", "poly.rename", False, None),
    ("poly", "Poly", "divide_linear", "poly.div", False, _div_terms),
    ("linalg", None, "rref", "linalg.rref", True, _rref_counts),
    ("scattering", None, "king_semistable_exists", "scattering.king", True, _king_counts),
    ("scattering", None, "wall_support_scan", "scattering.scan", True, None),
    ("scattering", None, "eta_embedding_check", "scattering.eta", True, None),
    ("contraction", None, "contract_quiver", "contraction.quiver", True, None),
    ("qpformat", None, "parse_qp", "qpformat.parse", True, _parse_bytes),
)


class Tracer:
    def __init__(self):
        self.spans = []  # (id, parent id, operation, name, start, end)
        self.totals = {}  # name -> [calls, inclusive seconds, self seconds]
        self.counters = {}
        self.operation = None
        self.active = True  # False while the benchmark checks outputs
        self._stack = []  # [name, span id, start, seconds in traced children]
        self._open = {}  # name -> number of open spans of that name
        self._next_id = 0
        self._restore = []

    # -- installation ---------------------------------------------------------

    def install(self, pkg):
        loaded = [m for name, m in sys.modules.items() if name.split(".")[0] == "quiveralg"]
        for mod_name, owner_name, attr, span, stored, counter in TARGETS:
            mod = getattr(pkg, mod_name)
            owner = getattr(mod, owner_name) if owner_name else mod
            original = getattr(owner, attr)
            wrapper = self._wrap(original, span, stored, counter)
            holders = [owner]
            if owner_name is None:
                holders = [m for m in loaded if getattr(m, attr, None) is original]
            elif attr == "__mul__":
                self._patch(owner, "__rmul__", wrapper)
            for holder in holders:
                self._patch(holder, attr, wrapper)
            self.totals.setdefault(span, [0, 0.0, 0.0])

    def _patch(self, holder, attr, value):
        self._restore.append((holder, attr, getattr(holder, attr)))
        setattr(holder, attr, value)

    def uninstall(self):
        for holder, attr, original in reversed(self._restore):
            setattr(holder, attr, original)
        self._restore.clear()

    # -- spans ------------------------------------------------------------------

    def _wrap(self, original, name, stored, counter):
        tracer = self
        clock = time.perf_counter

        @functools.wraps(original)
        def wrapper(*args, **kwargs):
            if not tracer.active:
                return original(*args, **kwargs)
            frame = tracer._enter(name, clock())
            try:
                result = original(*args, **kwargs)
            finally:
                tracer._exit(frame, stored, clock())
            if counter is not None:
                for key, value in counter(args, result).items():
                    tracer.counters[key] = tracer.counters.get(key, 0) + value
            return result

        return wrapper

    def _enter(self, name, now):
        self._next_id += 1
        frame = [name, self._next_id, now, 0.0]
        self._stack.append(frame)
        self._open[name] = self._open.get(name, 0) + 1
        return frame

    def _exit(self, frame, stored, now):
        name, span_id, start, child = frame
        self._stack.pop()
        self._open[name] -= 1
        duration = now - start
        total = self.totals[name]
        total[0] += 1
        if not self._open[name]:
            total[1] += duration
        total[2] += duration - child
        parent = self._stack[-1] if self._stack else None
        if parent is not None:
            parent[3] += duration
        if stored:
            self.spans.append(
                (span_id, parent[1] if parent else None, self.operation, name, start, now)
            )

    # -- results ----------------------------------------------------------------

    def metrics(self):
        """Per-layer figures named as in BENCHMARK.json."""
        t = {name: self.totals.get(name, [0, 0.0, 0.0]) for _m, _o, _a, name, _s, _c in TARGETS}
        c = self.counters
        rows = c.get("linalg.rref_rows", 0)
        return {
            "shuffle.mul_calls": (t["shuffle.mul"][0], "count"),
            "shuffle.mul_s": (t["shuffle.mul"][1], "s"),
            "shuffle.mul_self_s": (t["shuffle.mul"][2], "s"),
            "shuffle.shuffles": (c.get("shuffle.shuffles", 0), "count"),
            "shuffle.result_terms": (c.get("shuffle.result_terms", 0), "count"),
            "shuffle.products_s": (t["shuffle.products"][1], "s"),
            "shuffle.contract_calls": (t["shuffle.contract"][0], "count"),
            "shuffle.contract_s": (t["shuffle.contract"][1], "s"),
            "shuffle.sympoly_new_calls": (t["shuffle.sympoly_new"][0], "count"),
            "shuffle.sympoly_new_s": (t["shuffle.sympoly_new"][1], "s"),
            "poly.mul_calls": (t["poly.mul"][0], "count"),
            "poly.mul_s": (t["poly.mul"][1], "s"),
            "poly.rename_calls": (t["poly.rename"][0], "count"),
            "poly.rename_s": (t["poly.rename"][1], "s"),
            "poly.div_calls": (t["poly.div"][0], "count"),
            "poly.div_s": (t["poly.div"][1], "s"),
            "poly.div_terms_in": (c.get("poly.div_terms_in", 0), "count"),
            "linalg.rref_calls": (t["linalg.rref"][0], "count"),
            "linalg.rref_s": (t["linalg.rref"][1], "s"),
            "linalg.rref_cells": (c.get("linalg.rref_cells", 0), "count"),
            "linalg.rref_rank_per_row": (
                c.get("linalg.rref_rank", 0) / rows if rows else 0.0, "ratio"),
            "scattering.king_calls": (t["scattering.king"][0], "count"),
            "scattering.king_s": (t["scattering.king"][1], "s"),
            "scattering.king_true": (c.get("scattering.king_true", 0), "count"),
            "scattering.king_reps_bound": (c.get("scattering.king_reps_bound", 0), "count"),
            "scattering.scan_s": (t["scattering.scan"][1], "s"),
            "scattering.eta_s": (t["scattering.eta"][1], "s"),
            "contraction.quiver_calls": (t["contraction.quiver"][0], "count"),
            "contraction.quiver_s": (t["contraction.quiver"][1], "s"),
            "qpformat.parse_calls": (t["qpformat.parse"][0], "count"),
            "qpformat.parse_s": (t["qpformat.parse"][1], "s"),
            "qpformat.parse_bytes": (c.get("qpformat.parse_bytes", 0), "bytes"),
        }

    def write(self, path, extra):
        layers = {
            name: {"calls": calls, "inclusive_s": inc, "self_s": self_s}
            for name, (calls, inc, self_s) in sorted(self.totals.items())
        }
        doc = dict(extra, layers=layers, counters=self.counters,
                   span_fields=["id", "parent", "operation", "name", "start", "end"],
                   spans=self.spans)
        with open(path, "w", encoding="utf-8") as fh:
            json.dump(doc, fh)
