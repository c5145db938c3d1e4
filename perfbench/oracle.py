"""Independent computations the benchmark checks the package against.

Nothing here imports `quiveralg`.  Polynomials from the package are read as
plain data: a dict from monomial to Fraction, a monomial being a tuple of
(("x", vertex, slot), exponent) pairs.
"""

from __future__ import annotations

from fractions import Fraction
from itertools import combinations, permutations, product

# Today's brute-force caps of King stability (total dimension of a
# representation, and representations one existence query may enumerate).
KING_MAX_TOTAL_DIM = 4
KING_MAX_ENUMERATION = 1 << 16

# The Mersenne prime 2^61 - 1, for elimination modulo p.
PRIME = (1 << 61) - 1


def euler_unit(counts, i, j):
    """Euler form chi(e_i, e_j) of two unit vectors."""
    return (1 if i == j else 0) - counts.get((i, j), 0)


def king_entries(arrows, gamma):
    """Matrix entries of a representation of dimension gamma."""
    return sum(gamma[s] * gamma[t] for _aid, s, t in arrows)


def contracted_arrows(arrows, a0, ip, im):
    """Arrows of the quiver contracted along a0: ip -> im (im merges into ip)."""
    return tuple(
        (aid, ip if s == im else s, ip if t == im else t) for aid, s, t in arrows if aid != a0
    )


def opposite_arrows(arrows):
    return tuple((aid, t, s) for aid, s, t in arrows)


# ---------------------------------------------------------------------------
# shuffle products evaluated at a point


def eval_terms(terms, values):
    """Value of a polynomial {monomial: coeff} whose variables are keys of
    `values` (either (vertex, slot) or ("x", vertex, slot) form)."""
    total = Fraction(0)
    for mono, c in terms.items():
        term = c
        for var, e in mono:
            term *= values[var[1:] if len(var) == 3 else var] ** e
        total += term
    return total


def shuffle_sum_at(vertices, counts, g1, g2, f_terms, g_terms, point):
    """f*g at `point` by the shuffle formula, summed term by term:

        sum over splittings (B1, B2) of f(x_B1) g(x_B2)
            * prod_{arrows i->j} prod_{a in B1(i), b in B2(j)} (x[j,b] - x[i,a])
            / prod_i prod_{a in B1(i), b in B2(i)} (x[i,b] - x[i,a]).
    """
    choices = [
        list(combinations(range(1, g1[v] + g2[v] + 1), g1[v])) for v in vertices
    ]
    total = Fraction(0)
    for blocks in product(*choices):
        b1 = dict(zip(vertices, blocks))
        b2 = {v: [s for s in range(1, g1[v] + g2[v] + 1) if s not in b1[v]] for v in vertices}
        val1 = {(v, k): point[(v, s)] for v in vertices for k, s in enumerate(b1[v], 1)}
        val2 = {(v, k): point[(v, s)] for v in vertices for k, s in enumerate(b2[v], 1)}
        term = eval_terms(f_terms, val1) * eval_terms(g_terms, val2)
        if not term:
            continue
        for (i, j), a in counts.items():
            for s in b1[i]:
                for t in b2[j]:
                    term *= (point[(j, t)] - point[(i, s)]) ** a
        for v in vertices:
            for s in b1[v]:
                for t in b2[v]:
                    term /= point[(v, t)] - point[(v, s)]
        total += term
    return total


def chained_generators_at(vertices, counts, word, ks, point):
    """The product x[w1,1]^k1 * x[w2,1]^k2 * ... of rank-one generators at
    `point`: by associativity, a sum over all ways of giving the letters of
    the word distinct slots at their vertices."""
    positions = {v: [p for p, w in enumerate(word) if w == v] for v in vertices}
    per_vertex = [list(permutations(range(1, len(positions[v]) + 1))) for v in vertices]
    total = Fraction(0)
    for assignment in product(*per_vertex):
        slot = [0] * len(word)
        for v, perm in zip(vertices, assignment):
            for p, s in zip(positions[v], perm):
                slot[p] = s
        xs = [point[(w, s)] for w, s in zip(word, slot)]
        term = Fraction(1)
        for x, k in zip(xs, ks):
            term *= x**k
        for p in range(len(word)):
            for q in range(p + 1, len(word)):
                diff = xs[q] - xs[p]
                term *= diff ** counts.get((word[p], word[q]), 0)
                if word[p] == word[q]:
                    term /= diff
        total += term
    return total


# ---------------------------------------------------------------------------
# elimination modulo PRIME, written apart from the package's linalg


def to_mod(c):
    c = Fraction(c)
    return c.numerator % PRIME * pow(c.denominator % PRIME, PRIME - 2, PRIME) % PRIME


def _reduce(basis, row):
    """Reduce a sparse row ({column: value mod PRIME}) against an echelon
    basis {pivot column: row} until its first column is not a pivot; the
    remainder is empty exactly when the row lies in the basis's span."""
    row = {c: v for c, v in row.items() if v}
    while row:
        c = min(row)
        if c not in basis:
            break
        f = row[c]
        for k, v in basis[c].items():
            x = (row.get(k, 0) - f * v) % PRIME
            if x:
                row[k] = x
            else:
                row.pop(k, None)
    return row


def echelon_mod(rows):
    """Echelon basis {pivot column: row} of the span of sparse rows."""
    basis = {}
    for row in rows:
        row = _reduce(basis, row)
        if row:
            c = min(row)
            inv = pow(row[c], PRIME - 2, PRIME)
            basis[c] = {k: v * inv % PRIME for k, v in row.items()}
    return basis


def reduces_to_zero(basis, row):
    return not _reduce(basis, row)


def rref_problems(rows, order):
    """Problems with `rows` ({monomial: coeff} each) as a reduced row echelon
    form over the column order `order`: each row's first column is a pivot
    with coefficient 1, the pivots increase strictly, and no other row has
    an entry in a pivot column."""
    index = {m: k for k, m in enumerate(order)}
    problems = []
    pivots = []
    for r, row in enumerate(rows):
        if not row:
            problems.append(f"row {r} is zero")
            continue
        first = min(row, key=index.__getitem__)
        if row[first] != 1:
            problems.append(f"row {r} pivot coefficient {row[first]}")
        pivots.append(index[first])
    if pivots != sorted(set(pivots)):
        problems.append("pivots not distinct and increasing")
    for c in set(pivots):
        holders = [r for r, row in enumerate(rows) if order[c] in row]
        if len(holders) != 1:
            problems.append(f"pivot column {c} is non-zero in rows {holders}")
    return problems


# ---------------------------------------------------------------------------
# King stability


def a2_closed_form(gamma, kappa):
    """Semistable representations of A2 = (1 -> 2) exist at kappa (with
    kappa(gamma) = 0) exactly for gamma = (n,0), (0,n), and for gamma = (n,n)
    when kappa_2 <= 0."""
    m, n = gamma
    if m == 0 or n == 0:
        return True
    if m == n:
        return kappa[1] <= 0
    return False


def eta_lift(kappa_hat, vertices_hat, vertices, ip, im, kparam):
    """The contraction embedding of stability space: the merged entry splits
    as kappa_hat/(1+t) at ip and t*kappa_hat/(1+t) at im."""
    kh = dict(zip(vertices_hat, kappa_hat))
    k0 = kh[ip]
    kh[ip] = k0 / (1 + kparam)
    kh[im] = kparam * k0 / (1 + kparam)
    return tuple(kh[v] for v in vertices)


def in_king_caps(arrows, gamma, p):
    return (
        sum(gamma.values()) <= KING_MAX_TOTAL_DIM
        and p ** king_entries(arrows, gamma) <= KING_MAX_ENUMERATION
    )
