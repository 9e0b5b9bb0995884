"""Independent reference computations used to cross-check the library.

Everything here is deliberately naive: determinants by Laplace expansion,
ranks by scanning all square minors or by Gaussian elimination over
``Fraction``, powers of linear forms by repeated polynomial multiplication.
Slow but obviously correct, which is the point; tests keep the inputs small
enough for the exponential algorithms.
"""

from fractions import Fraction
from itertools import combinations
from math import comb, factorial, prod


def laplace_det(rows):
    """Determinant by cofactor expansion along the first row."""
    size = len(rows)
    if size == 0:
        return Fraction(1)
    if size == 1:
        return Fraction(rows[0][0])
    total = Fraction(0)
    for col in range(size):
        entry = Fraction(rows[0][col])
        if entry == 0:
            continue
        minor = [
            [row[c] for c in range(size) if c != col] for row in rows[1:]
        ]
        sign = -1 if col % 2 else 1
        total += sign * entry * laplace_det(minor)
    return total


def minor_rank(rows):
    """Rank as the size of the largest nonzero square minor."""
    if not rows:
        return 0
    nrows = len(rows)
    ncols = len(rows[0])
    for size in range(min(nrows, ncols), 0, -1):
        for row_idx in combinations(range(nrows), size):
            for col_idx in combinations(range(ncols), size):
                sub = [[rows[r][c] for c in col_idx] for r in row_idx]
                if laplace_det(sub) != 0:
                    return size
    return 0


def fraction_rank(rows):
    """Rank by forward Gaussian elimination over ``Fraction`` on a copy of the rows.

    Only the rows below each pivot are reduced, and only from the pivot's
    column on: every entry left of it is already zero in those rows.
    """
    m = [[Fraction(x) for x in row] for row in rows]
    rank = 0
    for col in range(len(m[0]) if m else 0):
        hit = next((i for i in range(rank, len(m)) if m[i][col]), None)
        if hit is None:
            continue
        m[rank], m[hit] = m[hit], m[rank]
        pivot = m[rank]
        for row in m[rank + 1:]:
            if row[col]:
                factor = row[col] / pivot[col]
                row[col:] = [x - factor * y for x, y in zip(row[col:], pivot[col:])]
        rank += 1
    return rank


def rank_mod_p(rows, p):
    """Rank of the integer rows modulo the prime p.

    Plain Gaussian elimination over F_p on a list-of-lists copy: every
    entry reduced, every row below the pivot updated entry by entry.
    """
    m = [[x % p for x in row] for row in rows]
    rank = 0
    for col in range(len(m[0]) if m else 0):
        hit = next((i for i in range(rank, len(m)) if m[i][col]), None)
        if hit is None:
            continue
        m[rank], m[hit] = m[hit], m[rank]
        inv = pow(m[rank][col], -1, p)
        for i in range(rank + 1, len(m)):
            factor = m[i][col] * inv % p
            m[i] = [(x - factor * y) % p for x, y in zip(m[i], m[rank])]
        rank += 1
    return rank


def _poly_mul(f, g):
    out = {}
    for ea, ca in f.items():
        for eb, cb in g.items():
            key = tuple(x + y for x, y in zip(ea, eb))
            out[key] = out.get(key, Fraction(0)) + ca * cb
    return {e: c for e, c in out.items() if c != 0}


def _unit(j, nvars):
    return tuple(1 if k == j else 0 for k in range(nvars))


def form_power(f, nvars, d):
    """The form f (as {exponent tuple: value}) raised to the power d."""
    power = {tuple(0 for _ in range(nvars)): Fraction(1)}
    for _ in range(d):
        power = _poly_mul(power, f)
    return power


def linear_form_power(coords, d):
    """Coefficients of (c0*x0 + ... + cn*xn)**d as {exponent tuple: value}.

    Computed by repeated multiplication, independent of any multinomial
    formula.
    """
    nvars = len(coords)
    linear = {_unit(j, nvars): Fraction(c) for j, c in enumerate(coords) if c != 0}
    return form_power(linear, nvars, d)


def tangent_forms(coords, d):
    """The forms L**(d-1) * x_j, j = 0..n, with L = c0*x0 + ... + cn*xn.

    They span the affine cone over the tangent space to the degree-d
    Veronese variety at [L**d].
    """
    nvars = len(coords)
    power = linear_form_power(coords, d - 1)
    return [_poly_mul(power, {_unit(j, nvars): Fraction(1)}) for j in range(nvars)]


def apolarity_pairing(f, g):
    """Apolarity pairing of two forms of one degree: sum of alpha! f_alpha g_alpha.

    It is nondegenerate, so a nonzero form pairing to zero with every form
    of a family confines the family's span to a hyperplane.
    """
    return sum(prod(map(factorial, alpha)) * value * g[alpha]
               for alpha, value in f.items() if alpha in g)


def kernel_vector(rows):
    """A kernel vector of an m x (m+1) matrix from its signed maximal minors.

    Entry c is (-1)**c times the determinant with column c deleted, so each
    row pairs to the determinant of a matrix with a repeated row.  The
    vector is nonzero exactly when the matrix has rank m.
    """
    ncols = len(rows[0])
    return [
        (-1) ** c * laplace_det([[row[k] for k in range(ncols) if k != c]
                                 for row in rows])
        for c in range(ncols)
    ]


def monomial_values_by_powers(coord_rows, d):
    """The degree-d monomials of the lexicographic basis at each integer row.

    Built from a table of the powers x_j^0..x_j^d of each coordinate, one
    product per entry: the monomials of degree e in x_j..x_n are x_j^k times
    those of degree e - k in x_(j+1)..x_n, for k from e down to 0.  The
    library's former construction, kept as an oracle for its degree-by-
    degree one.
    """
    rows = []
    for coords in coord_rows:
        powers = []
        for x in coords:
            table = [1]
            for _ in range(d):
                table.append(table[-1] * x)
            powers.append(table)
        tail = [[v] for v in powers[-1]]
        for table in reversed(powers[1:-1]):
            tail = [[table[k] * v for k in range(e, -1, -1) for v in tail[e - k]]
                    for e in range(d + 1)]
        first = powers[0]
        rows.append([first[k] * v for k in range(d, -1, -1) for v in tail[d - k]])
    return rows


def brute_max_collinear(coord_rows):
    """Largest subset lying on one projective line, by exhaustive search."""
    count = len(coord_rows)
    if count <= 2:
        return count
    best = 2
    for size in range(count, 2, -1):
        for subset in combinations(range(count), size):
            sub = [list(coord_rows[i]) for i in subset]
            if minor_rank(sub) <= 2:
                return size
    return best


def kruskal_by_subsets(rows, rank):
    """Largest k such that every k-subset of the rows has rank k.

    Checks every subset size from 1 up, with the given rank function.
    """
    best = 0
    for size in range(1, len(rows) + 1):
        if any(rank([rows[i] for i in subset]) < size
               for subset in combinations(range(len(rows)), size)):
            break
        best = size
    return best


def generic_rank_from_one(n, d, trials=2, seed=0):
    """Least r whose generic Terracini dimension fills the degree-d forms.

    The plain sweep from r = 1 over the library's randomized Terracini
    oracle, for comparison with a sweep that starts later.
    """
    from waringcert import generic_terracini_dimension
    space = comb(n + d, d)
    r = 1
    while generic_terracini_dimension(n, d, r, trials=trials, seed=seed).dim != space - 1:
        r += 1
    return r


def reshaped_kruskal_by_count_caps(a, d):
    """The reshaping search with each k_j capped by min(len(a), C(n+j, j)).

    The library's pruned, cheapest-first search as it ran before it capped
    k_j by the Hilbert function h_A(j): the count caps ignore the set's
    position, so on special sets they keep partitions that cannot pass
    and sweep their degrees.  A ``ReshapingSearch`` for comparison.
    """
    from waringcert import (KruskalReport, ReshapingSearch, degree_partitions,
                            veronese_kruskal_rank)
    l, n = len(a), a.ambient_dim
    parts = degree_partitions(d)
    known = {}

    def cost(j):
        m = comb(n + j, j)
        return 1 if m >= l else comb(l, m)

    def upper(p):
        return sum(known.get(j, min(l, comb(n + j, j))) for j in p) - 2

    passing = None
    for p in sorted(parts, key=lambda p: sum(map(cost, p))):
        pending = sorted({j for j in p if j not in known}, key=lambda j: (cost(j), j))
        while pending and upper(p) >= 2 * l:
            j = pending.pop(0)
            known[j] = veronese_kruskal_rank(a, j)
        if upper(p) >= 2 * l:
            ranks = tuple(known[j] for j in p)
            passing = KruskalReport(set_size=l, partition=p, ranks=ranks)
            break
    return ReshapingSearch(passing=passing, ranks=tuple(sorted(known.items())),
                           bound=max(map(upper, parts)) // 2)


def reshaped_kruskal_table(a, d):
    """The reshaping test on every partition of d, with no bound or early stop.

    One ``KruskalReport`` per partition in ``degree_partitions`` order, each
    with the exact Veronese Kruskal ranks of its parts: the exhaustive table
    that the library's pruned, cheapest-first search must agree with.
    """
    from waringcert import KruskalReport, degree_partitions, veronese_kruskal_rank
    l = len(a)
    reports = []
    for part in degree_partitions(d):
        ranks = tuple(veronese_kruskal_rank(a, j) for j in part)
        reports.append(KruskalReport(set_size=l, partition=part, ranks=ranks))
    return tuple(reports)
