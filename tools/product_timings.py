"""In-process timings of large shuffle products, which the benchmark's tiers
do not reach.

usage: python3 tools/product_timings.py [--src DIR] [--reps N]

Imports quiveralg from DIR (default: this checkout's src/), times
shuffle_mul on each product below N times (default 3) and prints one JSON
line per product: the seconds of every repetition, the number of result
terms, and a digest of the sorted result terms, so that two checkouts can
be compared product by product.  An element is 2 + sum_v p1_v * p2_v, p_k
the k-th power sum of the slot variables at vertex v, unless the product
gives f and g as {k: coefficient} (sum_v c * p_k,v, k = 0 the constant c).
Standard library only.
"""

from __future__ import annotations

import argparse
import hashlib
import json
import sys
import time
from fractions import Fraction
from pathlib import Path

PRODUCTS = (
    # (label, vertices, arrows (id, source, target), ranks of f, ranks of g,
    #  optionally f and g as {k: coefficient})
    ("a=>b, b->a (2,2)*(2,2)", ("a", "b"),
     (("c1", "a", "b"), ("c2", "a", "b"), ("d", "b", "a")), (2, 2), (2, 2)),
    ("a=>b, b->a (2,2)*(1,2)", ("a", "b"),
     (("c1", "a", "b"), ("c2", "a", "b"), ("d", "b", "a")), (2, 2), (1, 2)),
    ("C3 (3 loops) (3)*(2)", ("v",),
     (("l1", "v", "v"), ("l2", "v", "v"), ("l3", "v", "v")), (3,), (2,)),
    ("C3 (3 loops) (3)*(3)", ("v",),
     (("l1", "v", "v"), ("l2", "v", "v"), ("l3", "v", "v")), (3,), (3,)),
    ("Jordan (8)*(1)", ("v",), (("l", "v", "v"),), (8,), (1,)),
    *((f"{m}-loop (2)*(3), f = -3p2 + 2, g = 3/4", ("v",),
       tuple((f"l{k}", "v", "v") for k in range(1, m + 1)), (2,), (3,),
       {0: 2, 2: -3}, {0: Fraction(3, 4)}) for m in (4, 5)),
)


def main(argv=None):
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--src", default=str(Path(__file__).resolve().parents[1] / "src"))
    ap.add_argument("--reps", type=int, default=3)
    args = ap.parse_args(argv)
    sys.path.insert(0, args.src)
    from quiveralg.poly import Poly, xvar
    from quiveralg.quiver import Arrow, Quiver
    from quiveralg.shuffle import SymPoly, shuffle_mul

    def power_sum(v, r, k):
        return sum((Poly.var(xvar(v, a), k) for a in range(1, r + 1)), Poly.zero())

    def element(Q, ranks, spec=None):
        """2 + sum_v p1_v * p2_v or, given spec, the sum over its items k: c
        of c * sum_v p_k,v (k = 0 standing for the constant c)."""
        gamma = dict(zip(Q.vertices, ranks))
        if spec is None:
            poly = Poly.const(2)
            for v, r in gamma.items():
                poly = poly + power_sum(v, r, 1) * power_sum(v, r, 2)
        else:
            poly = Poly.const(spec.get(0, 0))
            for k, c in spec.items():
                if k:
                    for v, r in gamma.items():
                        poly = poly + Poly.const(c) * power_sum(v, r, k)
        return SymPoly(Q, gamma, poly)

    for label, vertices, arrows, r1, r2, *specs in PRODUCTS:
        Q = Quiver(vertices, [Arrow(*a) for a in arrows])
        f, g = element(Q, r1, *specs[:1]), element(Q, r2, *specs[1:])
        seconds = []
        for _ in range(args.reps):
            start = time.perf_counter()
            result = shuffle_mul(f, g)
            seconds.append(round(time.perf_counter() - start, 4))
        terms = sorted((m, str(c)) for m, c in result.poly.terms.items())
        digest = hashlib.sha256(repr(terms).encode()).hexdigest()[:16]
        print(json.dumps({"product": label, "seconds": seconds,
                          "terms": len(terms), "digest": digest}), flush=True)
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
