"""Seeded inputs for the three workloads.

Everything here is built from the seed alone, without importing
`quiveralg`: the package under test only sees the `.qp` text and the plain
parameters (rank vectors, degrees, sample points, primes) produced below.

Each workload's operation list is made of tiers.  A tier is a band of
predicted cost with a fixed number of operations; candidates are drawn at
random and kept only when their predicted cost falls in the band, so every
seed gets the same mix of small and large operations and no single
operation carries more than a small share of a run.  The predictors are
cost models fitted once to the package as it stood when the benchmark was
written; they only choose inputs, so a faster package still receives the
same inputs.
"""

from __future__ import annotations

import math
import random
from fractions import Fraction
from itertools import permutations, product

from oracle import (
    chained_generators_at,
    contracted_arrows,
    euler_unit,
    in_king_caps,
    king_entries,
)

# Operation counts below are for a 10-second run; other `--seconds` values
# scale every tier's count in proportion (at least one operation each).
REFERENCE_SECONDS = 10

# (tier name, lowest predicted ms, highest predicted ms, operations)
# Contraction operations stay below about 12 ms: larger products, with their
# larger working sets, made run-to-run times swing with the load on a shared
# machine far more than these do.
CONTRACTION_TIERS = (
    ("small", 0.4, 1.6, 300),
    ("medium", 4.0, 12.0, 800),
)
SPAN_TIERS = (
    ("small", 3.0, 9.0, 80),
    ("medium", 12.0, 30.0, 160),
    ("large", 40.0, 90.0, 80),
)
# Stability tiers also fix the operation kind: (tier, kind, lo, hi, count).
WALL_TIERS = (
    ("scan-small", "scan", 1.0, 2.8, 500),
    ("scan-medium", "scan", 2.8, 9.0, 700),
    ("eta-small", "eta", 1.0, 4.5, 600),
)
# Values in the package's default splitting-parameter grid for eta checks.
ETA_GRID_SIZE = 7
# Every A2_EVERY-th stability operation is a wall scan of the A2 quiver,
# whose wall list has a closed form.
A2_EVERY = 10

COEFFICIENTS = (1, -1, 2, -2, 3, Fraction(1, 2), Fraction(-3, 2))


def scaled_tiers(tiers, seconds):
    return tuple(
        (*tier[:-1], max(1, round(tier[-1] * seconds / REFERENCE_SECONDS))) for tier in tiers
    )


# ---------------------------------------------------------------------------
# quivers and polynomials as plain data
#
# A quiver is (vertices, arrows) with arrows a tuple of (id, source, target).
# A polynomial is a dict {monomial: Fraction}; a monomial is a sorted tuple of
# ((vertex, slot), exponent) pairs.


def arrow_counts(arrows):
    counts = {}
    for _aid, s, t in arrows:
        counts[(s, t)] = counts.get((s, t), 0) + 1
    return counts


def poly_mul(p, q):
    out = {}
    for m1, c1 in p.items():
        for m2, c2 in q.items():
            exps = dict(m1)
            for v, e in m2:
                exps[v] = exps.get(v, 0) + e
            key = tuple(sorted(exps.items()))
            c = out.get(key, 0) + c1 * c2
            if c:
                out[key] = c
            else:
                out.pop(key, None)
    return out


def poly_add(p, q):
    out = dict(p)
    for m, c in q.items():
        s = out.get(m, 0) + c
        if s:
            out[m] = s
        else:
            out.pop(m, None)
    return out


def power_sum(vertex, rank, k):
    return {(((vertex, a), k),): Fraction(1) for a in range(1, rank + 1)}


def poly_degree(p):
    return max((sum(e for _, e in m) for m in p), default=0)


def random_sympoly(rng, gamma, max_deg=3):
    """A random symmetric polynomial: a short sum of products of power sums."""
    vs = [v for v in gamma if gamma[v]]
    poly = {}
    for _ in range(rng.randint(1, 3)):
        term = {(): Fraction(rng.choice(COEFFICIENTS))}
        budget = rng.randint(0, max_deg)
        while budget > 0:
            v = rng.choice(vs)
            k = rng.randint(1, budget)
            term = poly_mul(term, power_sum(v, gamma[v], k))
            budget -= k
        poly = poly_add(poly, term)
    return poly


def _term_text(mono, c, first):
    factors = "*".join(
        f"x[{v},{slot}]" + (f"^{e}" if e > 1 else "") for (v, slot), e in mono
    )
    mag = abs(c)
    body = f"{mag}*{factors}" if factors else f"{mag}"
    if first:
        return ("-" if c < 0 else "") + body
    return (" - " if c < 0 else " + ") + body


def poly_text(p):
    if not p:
        return "0"
    items = sorted(p.items())
    return "".join(_term_text(m, c, k == 0) for k, (m, c) in enumerate(items))


def qp_text(name, vertices, arrows, elements=()):
    """`.qp` text of a quiver with optional (gamma, polynomial) entries."""
    lines = [
        f"quiver {name}",
        "vertices: " + ", ".join(vertices),
        "arrows: " + "; ".join(f"{aid}: {s} -> {t}" for aid, s, t in arrows),
    ]
    for gamma, poly in elements:
        ranks = ",".join(f"{v}={gamma[v]}" for v in vertices)
        lines.append(f"gamma: {ranks}; poly: {poly_text(poly)}")
    return "\n".join(lines) + "\n"


def random_arrows(rng, vertices, extra, first=None):
    """`extra` random arrows (loops, parallels and 2-cycles all arise),
    after an optional fixed first arrow."""
    arrows = [first] if first else []
    for _ in range(extra):
        arrows.append((f"a{len(arrows)}", rng.choice(vertices), rng.choice(vertices)))
    return tuple(arrows)


def distinct_point(rng, variables):
    """Distinct random rationals for the given variables."""
    seen = set()
    point = {}
    for var in variables:
        while True:
            x = Fraction(rng.randint(-60, 60), rng.randint(1, 9))
            if x not in seen:
                break
        seen.add(x)
        point[var] = x
    return point


def _tiered(rng, tiers, draw):
    """Fill every tier by rejection sampling, then interleave the tiers.
    A tier is (name, lo, hi, count) or (name, kind, lo, hi, count); the
    kind is passed on to `draw`."""
    ops = []
    for tier, *kind, lo, hi, count in tiers:
        made = 0
        while made < count:
            op = draw(rng, *kind)
            if op is not None and lo <= op["predicted_ms"] < hi:
                op["tier"] = tier
                ops.append(op)
                made += 1
    rng.shuffle(ops)
    for k, op in enumerate(ops):
        op["index"] = k
    return ops


# ---------------------------------------------------------------------------
# contraction_homomorphism


def _contraction_candidate(rng):
    nv = rng.randint(2, 4)
    vs = tuple(f"v{k}" for k in range(nv))
    s, t = rng.sample(vs, 2)
    arrows = random_arrows(rng, vs, rng.randint(1, 5), first=("a0", s, t))
    arrows = tuple(rng.sample(arrows, len(arrows)))
    a0 = rng.choice([a for a in arrows if a[1] != a[2]])
    g1 = {v: rng.choice((0, 1, 1, 2)) for v in vs}
    g2 = {v: rng.choice((0, 1, 1, 2)) for v in vs}
    g1[a0[2]] = g1[a0[1]]
    g2[a0[2]] = g2[a0[1]]
    if not any(g1.values()) or not any(g2.values()):
        return None
    f = random_sympoly(rng, g1)
    g = random_sympoly(rng, g2)
    if not f or not g:
        return None
    pairs = sum(g1[src] * g2[tgt] for _aid, src, tgt in arrows)
    vdm = sum(math.comb(g1[v] + g2[v], 2) for v in vs)
    n = sum(g1.values()) + sum(g2.values())
    deg = poly_degree(f) + poly_degree(g)
    predicted = 0.256 * math.exp(
        0.62 * math.log(len(f) * len(g)) + 0.447 * pairs + 0.335 * vdm + 0.133 * n + 0.107 * deg
    )
    variables = [(v, a) for v in vs for a in range(1, g1[v] + g2[v] + 1)]
    return {
        "text": qp_text("H", vs, arrows, [(g1, f), (g2, g)]),
        "vertices": vs,
        "arrows": arrows,
        "elements": ((g1, f), (g2, g)),
        "arrow": a0[0],
        "point": distinct_point(rng, variables),
        "predicted_ms": predicted,
    }


def contraction_inputs(seed, seconds):
    rng = random.Random(f"contraction_homomorphism:{seed}")
    return _tiered(rng, scaled_tiers(CONTRACTION_TIERS, seconds), _contraction_candidate)


# ---------------------------------------------------------------------------
# spherical_span


def compositions_upto(m, bound):
    """All tuples of m non-negative integers with sum <= bound."""
    if m == 0:
        yield ()
        return
    for first in range(bound + 1):
        for rest in compositions_upto(m - 1, bound - first):
            yield (first,) + rest


def span_words(vertices, counts, gamma, d):
    """(word, exponent-sum bound) for every rank-one word of total rank gamma
    whose products can reach degree <= d."""
    letters = [v for v in vertices for _ in range(gamma[v])]
    out = []
    for word in sorted(set(permutations(letters))):
        m = len(word)
        chi = sum(
            euler_unit(counts, word[p], word[q]) for p in range(m) for q in range(p + 1, m)
        )
        if d + chi >= 0:
            out.append((word, d + chi))
    return out


def _span_cost_ms(words, d, n):
    w1 = w2 = 0
    for word, bound in words:
        m = len(word)
        products = math.comb(bound + m, m)
        seen = {}
        for j, v in enumerate(word):
            seen[v] = seen.get(v, 0) + 1
            if j:
                w1 += products * seen[v] * (j + 1)
                w2 += products * seen[v] * (j + 1) * (bound + 1)
    if not w1:
        return 0.0
    return 1000 * math.exp(
        -10.741 - 0.055 * math.log(w1) + 0.611 * math.log(w2) + 0.321 * d + 0.998 * n
    )


def _has_nonzero_product(rng, vertices, counts, words, tries=40):
    """Some rank-one product of the span is non-zero: its value at a random
    point is, computed by the benchmark's own shuffle sum."""
    gamma = {v: 0 for v in vertices}
    for v in words[0][0]:
        gamma[v] += 1
    variables = [(v, a) for v in vertices for a in range(1, gamma[v] + 1)]
    point = distinct_point(rng, variables)
    candidates = []
    for word, bound in words:
        for ks in compositions_upto(len(word), bound):
            distinct = all(
                len({k for w, k in zip(word, ks) if w == v}) == word.count(v) for v in set(word)
            )
            candidates.append((not distinct, word, ks))
            if len(candidates) >= 4 * tries:
                break
    candidates.sort(key=lambda c: c[0])
    for _flag, word, ks in candidates[:tries]:
        if chained_generators_at(vertices, counts, word, ks, point):
            return True
    return False


def _span_candidate(rng):
    nv = rng.randint(1, 3)
    vs = tuple(f"v{k}" for k in range(nv))
    arrows = random_arrows(rng, vs, rng.randint(0, 4))
    n = rng.randint(3, 4)
    gamma = {v: 0 for v in vs}
    for _ in range(n):
        gamma[rng.choice(vs)] += 1
    d = rng.randint(0, 5)
    counts = arrow_counts(arrows)
    words = span_words(vs, counts, gamma, d)
    predicted = _span_cost_ms(words, d, n)
    # the non-emptiness test only runs for candidates some tier can take
    if not any(lo <= predicted < hi for _, lo, hi, _ in SPAN_TIERS):
        return None
    if not _has_nonzero_product(rng, vs, counts, words):
        return None
    return {
        "text": qp_text("S", vs, arrows),
        "vertices": vs,
        "arrows": arrows,
        "gamma": gamma,
        "degree": d,
        "predicted_ms": predicted,
    }


def span_inputs(seed, seconds):
    rng = random.Random(f"spherical_span:{seed}")
    return _tiered(rng, scaled_tiers(SPAN_TIERS, seconds), _span_candidate)


# ---------------------------------------------------------------------------
# stability_walls


def _subspace_count(n, p):
    total = 0
    for k in range(n + 1):
        num = den = 1
        for i in range(k):
            num *= p ** (n - i) - 1
            den *= p ** (k - i) - 1
        total += num // den
    return total


def projected_samples(gamma_t, samples):
    """The distinct non-zero projections of the samples onto gamma-perp, in
    sample order (the points a wall scan queries for gamma)."""
    gg = sum(g * g for g in gamma_t)
    out = []
    for s in samples:
        coef = Fraction(sum(Fraction(x) * g for x, g in zip(s, gamma_t)), gg)
        kappa = tuple(Fraction(x) - coef * g for x, g in zip(s, gamma_t))
        if any(kappa) and kappa not in out:
            out.append(kappa)
    return out


def _projection_count(gamma_t, samples):
    """len(projected_samples(...)), in integers: gg*s - (s.gamma)*gamma is the
    projection scaled by gg = gamma.gamma."""
    gg = sum(g * g for g in gamma_t)
    scaled = set()
    for s in samples:
        sg = sum(x * g for x, g in zip(s, gamma_t))
        kappa = tuple(gg * x - sg * g for x, g in zip(s, gamma_t))
        if any(kappa):
            scaled.add(kappa)
    return len(scaled)


def king_work(vertices, arrows, gamma, p):
    """Worst-case brute-force work of one existence query: representations
    times subspace tuples."""
    subs = 1
    for v in vertices:
        subs *= _subspace_count(gamma[v], p)
    return p ** king_entries(arrows, gamma) * subs


def _scan_work(vertices, arrows, maxgamma, samples, p):
    work = 0
    for gamma_t in product(*(range(m + 1) for m in maxgamma)):
        if any(gamma_t):
            queries = _projection_count(gamma_t, samples)
            work += queries * king_work(vertices, arrows, dict(zip(vertices, gamma_t)), p)
    return work


def _wall_candidate(rng, kind):
    nv = rng.randint(2, 4)
    vs = tuple(f"v{k}" for k in range(nv))
    s, t = rng.sample(vs, 2)
    arrows = random_arrows(rng, vs, rng.randint(1, 4), first=("a0", s, t))
    arrows = tuple(rng.sample(arrows, len(arrows)))
    p = rng.choice((2, 3))
    if kind == "scan":
        scan_vs, scan_arrows = vs, arrows
    else:
        scan_vs = tuple(v for v in vs if v != t)
        scan_arrows = contracted_arrows(arrows, "a0", s, t)
    maxgamma = tuple(rng.randint(0, 2) for _ in scan_vs)
    if not any(maxgamma) or not in_king_caps(scan_arrows, dict(zip(scan_vs, maxgamma)), p):
        return None
    samples = []
    count = rng.randint(3, 5)
    while len(samples) < count:
        x = tuple(rng.randint(-3, 3) for _ in scan_vs)
        if any(x):
            samples.append(x)
    work = _scan_work(scan_vs, scan_arrows, maxgamma, samples, p)
    if kind == "eta":
        top = dict(zip(scan_vs, maxgamma))
        top[t] = top[s]
        lifted = {v: top[v] for v in vs}
        if not in_king_caps(arrows, lifted, p):
            return None
        # every lifted query may run for each grid value and true sample
        for gamma_t in product(*(range(m + 1) for m in maxgamma)):
            if any(gamma_t):
                g = dict(zip(scan_vs, gamma_t))
                g[t] = g[s]
                lifted_work = king_work(vs, arrows, {v: g[v] for v in vs}, p)
                work += ETA_GRID_SIZE * len(samples) * lifted_work
    op = {
        "kind": kind,
        "text": qp_text("W", vs, arrows),
        "vertices": vs,
        "arrows": arrows,
        "maxgamma": maxgamma,
        "samples": samples,
        "p": p,
        "predicted_ms": 0.18 * work**0.6,
    }
    if kind == "eta":
        op["arrow"] = "a0"
    return op


def _a2_op(rng):
    samples = []
    while len(samples) < 4:
        x = (rng.randint(-3, 3), rng.randint(-3, 3))
        if any(x):
            samples.append(x)
    return {
        "kind": "a2",
        "text": qp_text("A2", ("1", "2"), (("a", "1", "2"),)),
        "vertices": ("1", "2"),
        "arrows": (("a", "1", "2"),),
        "maxgamma": (2, 2),
        "samples": samples,
        "p": rng.choice((2, 3)),
        "tier": "a2",
        "predicted_ms": 0.0,
    }


def wall_inputs(seed, seconds):
    rng = random.Random(f"stability_walls:{seed}")
    ops = _tiered(rng, scaled_tiers(WALL_TIERS, seconds), _wall_candidate)
    out = []
    for op in ops:
        if len(out) % A2_EVERY == A2_EVERY - 1:
            out.append(_a2_op(rng))
        out.append(op)
    for k, op in enumerate(out):
        op["index"] = k
    return out
