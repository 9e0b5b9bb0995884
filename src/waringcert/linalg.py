"""Exact linear algebra over the integers.

Every rank in this package is taken on integer rows, exactly, and proved as
a lower bound that meets an upper bound.  ``integer_rank`` first eliminates
modulo the prime p = 1073741789.  The rank r over F_p is a lower bound on
the rank over Q: a minor that is nonzero mod p is a nonzero integer.  The
upper bound is min(rows, cols); when the bounds meet, the rank is proved
with no entry growth.  Only matrices whose bounds do not meet are
eliminated exactly, by ``integer_kernel``'s fraction-free pass, the one
exact elimination in the package: the rank is cols less the number of
kernel vectors it finds.  A Terracini rank has an upper bound of its own,
checked kernel vectors built from forms vanishing on the points, and
``terracini._certified_rank`` proves it on the same terms.

The modular pass, ``_pivots_mod_p``, eliminates column by column from the
left and returns its pivot columns, so the pivots below column k count the
rank modulo p of the first k columns: the Hilbert profile reads a lower
bound on every degree's rank from one pass, and every rank modulo p in
the package is the number of its pivots.  Asked for at most ``target``
pivots, it eliminates the leading ``target`` columns first, and all of
them only when those fall short, a rule written once, in
``_leading_pivots``.  Each row is packed into one Python int of
fixed-width slots, W = 62 + min(rows, cols).bit_length() bits each, so
that a row update is a single multiply-add of whole ints, and the
elimination, ``_eliminate_mod_p``, proves that no slot overflows.
``_packed`` packs list rows; rows gathered from shorter rows v as
copies, entry w[i] at each column for a table of indices i, where w is v
weighted by the caller's weights modulo p, are written packed as they
are built, with no list row, no multiply and no reduction per slot
(``_gathered_pivots_mod_p``).  The Terracini rows are copies in both
frames of ``terracini``: the tangent forms' own coefficients, copied
from the points' monomial values weighted by multinomials, gathered
here modulo p in the modular frame, and as integer list rows in the
exact one.  ``integer_kernel`` gives a fraction-free kernel basis, for
the last resort of ``integer_rank`` and of the Terracini rank, and for
callers that build kernel vectors from smaller matrices.  For the Kruskal
subset sweeps, ``_standard_form_mod_p`` writes every row modulo p in terms
of the first ``size`` ones, C = R_Q B_Q^-1, by the same elimination, the
one modular elimination in the package, on the same packed rows, each
followed by ``size`` identity columns, with its pivots drawn from those
rows alone: Q is the set of columns where their prefix rank rises modulo
p, and the identity columns of every other row, reduced, hold its row of
-C.  ``_minors_nonzero_mod_p`` checks every square minor of C modulo p,
handing each one that is zero modulo p to its caller, which takes
``integer_rank`` of the one subset that minor names.  Callers build
integer rows directly (monomial values at primitive integer
representatives of the points), so no ``Fraction`` arithmetic runs here.
No floating point and no randomness is used anywhere.
"""

from __future__ import annotations

from functools import lru_cache
from itertools import combinations
from math import gcd, lcm
from operator import mul
from typing import Callable, Iterable, Sequence


# The largest prime below 2**30: a residue is one CPython digit, and the
# product of two residues is below 2**60.
_PRIME = 1073741789
# 2**30 modulo the prime: a slot folds its bits from 30 up onto its low bits
# times this.
_FOLD = (1 << 30) - _PRIME

# Gathered rows: per row, per column, the index i of the entry w[i].
_Index = Sequence[Sequence[int]]


def integer_rank(rows: Iterable[Sequence[int]]) -> int:
    """Rank of an integer matrix T, given as rows; the input is not modified.

    The rank modulo p = ``_PRIME`` is a lower bound on the rank over Q, and
    min(rows, cols) an upper bound; when they meet, that is the rank.
    Otherwise the rank is taken exactly, as cols - len(``integer_kernel(T)``).
    """
    rows = list(rows)
    ncols = len(rows[0]) if rows else 0
    full = min(len(rows), ncols)
    if len(_pivots_mod_p(rows, full)) == full:
        return full
    return ncols - len(integer_kernel(rows))


def _pivots_mod_p(rows: Sequence[Sequence[int]], target: int) -> list[int]:
    """The first min(target, r) pivot columns of the rows modulo ``_PRIME``,
    r their rank modulo p, in increasing order; the input is not modified.

    Column c is a pivot exactly when the rank modulo p of the first c + 1
    columns exceeds that of the first c, so the pivots below column k
    number the rank modulo p of the first k columns, and the list depends
    only on those prefix ranks.  ``_leading_pivots`` of the rows as
    ``_packed`` packs them.
    """
    ncols = len(rows[0]) if rows else 0
    return _leading_pivots(lambda k: _packed(rows if k == ncols else [row[:k] for row in rows],
                                             _slot_width(len(rows), k), 0), ncols, target)


def _gathered_pivots_mod_p(values: Sequence[Sequence[int]], weights: Sequence[int],
                           index: _Index, ncols: int, target: int) -> list[int]:
    """``_pivots_mod_p`` of the rows [w[i] for i in slots], one per row v
    of ``values`` and entry ``slots`` of ``index``, where w is v weighted
    by ``weights`` modulo p, w[i] = v[i] * weights[i] mod p, followed by
    one 0, which an index equal to len(v) reads.  The weights are reduced
    once, and the weighting is the one reduction pass over ``values``;
    each row is then a copy of entries of w, written packed as it is built
    (``_packed_gathered``)."""
    p = _PRIME
    weights = [c % p for c in weights]
    values = [[x % p for x in map(mul, v, weights)] + [0] for v in values]
    return _leading_pivots(lambda k: _packed_gathered(values, index, k), ncols, target)


def _leading_pivots(pack: Callable[[int], list[int]], ncols: int, target: int) -> list[int]:
    """``_pivots_mod_p`` of rows of ``ncols`` columns whose leading k
    columns ``pack(k)`` packs at the width ``_slot_width`` gives.  The
    leading ``target`` columns are eliminated first: if they have rank
    ``target``, every one is a pivot and the list is 0..target - 1, the
    list the full pass returns, since it stops at ``target`` pivots.  Only
    when they fall short are all the columns packed and eliminated."""
    if target < ncols:
        pivots = _eliminate_mod_p(pack(target), target, target)[0]
        if len(pivots) == target:
            return pivots
    return _eliminate_mod_p(pack(ncols), ncols, target)[0]


def _slot_width(nrows: int, ncols: int) -> int:
    """The slot width W = 62 + m.bit_length(), m = min(nrows, ncols), of
    the packed rows that ``_eliminate_mod_p`` takes."""
    return 62 + min(nrows, ncols).bit_length()


def _eliminate_mod_p(packed: Sequence[int], ncols: int, target: int,
                     leading: int | None = None) -> tuple[list[int], list[int]]:
    """One Gaussian elimination over F_p, column by column from the left,
    stopping as soon as the rank reaches ``target``; the input is not
    modified.  Pivots are drawn from the first ``leading`` rows alone, all
    of them by default: those rows come first and stay first as pivot rows
    are removed, and every row is reduced.  Returns the pivot columns, the
    first min(target, r) columns where the prefix rank modulo p of the
    leading rows rises, r their rank modulo p, and the rows not taken as
    pivots, reduced: each is zero modulo p on every pivot column.

    The rows come packed, each into one int of ``ncols`` fixed-width slots,
    as ``_packed`` and ``_packed_gathered`` lay them out: the entry of
    column c, a residue in [0, p), sits in slot ncols - 1 - c, and a slot
    is W = ``_slot_width(len(packed), ncols)`` = 62 + m.bit_length() bits
    wide for m = min(rows, cols); the proof below needs only the layout.
    Each column takes one sweep of the leading rows left: only that slot
    of each is extracted and reduced, and the first row with a nonzero
    residue is the pivot, so the rows before it need no update.  The pivot
    row is removed, and its slots right of the pivot column become
    ``tail`` after whole-int folds: since 2**30 = 35 mod p, a fold maps
    each slot s to (s & (2**30 - 1)) + 35 * (s >> 30), the same residue,
    with two masked operations on the whole row.  Every later row v with
    residue x becomes (v & low) + f * tail, f = -x / pivot mod p in [0, p):
    one multiply-add of whole ints, where ``& low`` drops the slots of the
    columns already eliminated.

    No slot overflows into its neighbour.  Suppose every slot is below
    2**(W - 1).  A fold maps a slot below b to one below
    2**30 + 35 * (b >> 30) < 2**W, so it carries nothing; starting from
    b = 2**(W - 1), folds are repeated until b <= 2p (two for every m below
    2**18), so each tail slot t is below 2p.  A slot starts below p, and an
    update adds f * t < 2 * p**2 < 2**61.  A row is updated at most once
    per pivot, so at most m times, and every slot stays below
    p + m * 2 * p**2 < m * 2**61 <= 2**(W - 1).  With no carries between
    slots, each slot holds an integer congruent modulo p to its entry of
    the row being eliminated over F_p.
    """
    p = _PRIME
    width = _slot_width(len(packed), ncols)
    mask = (1 << width) - 1
    folds, low30, high = _fold_masks(width, ncols)
    packed = list(packed)
    leading = len(packed) if leading is None else leading
    pivots: list[int] = []
    for col in range(ncols):
        shift = (ncols - 1 - col) * width
        for hit in range(leading):
            x = ((packed[hit] >> shift) & mask) % p
            if x:
                break
        else:
            continue
        pivots.append(col)
        neg_inv = p - pow(x, -1, p)
        low = (1 << shift) - 1
        tail = packed.pop(hit) & low
        leading -= 1
        for _ in range(folds):
            tail = (tail & low30) + _FOLD * ((tail >> 30) & high)
        for i in range(hit, len(packed)):
            v = packed[i]
            x = ((v >> shift) & mask) % p
            if x:
                packed[i] = (v & low) + (x * neg_inv % p) * tail
        if len(pivots) == target:
            break
    return pivots, packed


def _packed(rows: Sequence[Sequence[int]], width: int, pad: int) -> list[int]:
    """Each row packed into one int of ``width``-bit slots: the entry of
    column c, reduced to [0, p), in slot cols - 1 - c + pad, above ``pad``
    zero slots."""
    p = _PRIME
    packed = []
    for row in rows:
        v = 0
        for x in row:
            v = (v << width) | (x % p)
        packed.append(v << pad * width)
    return packed


def _packed_gathered(values: Sequence[Sequence[int]], index: _Index, ncols: int) -> list[int]:
    """The first ``ncols`` columns of the rows [w[i] for i in slots], one
    per row w of ``values`` and entry ``slots`` of ``index``, each written
    straight into the packed layout as it is built.  The entries of
    ``values`` must be residues in [0, p), as the weighting of
    ``_gathered_pivots_mod_p`` leaves them, so each slot is a plain copy.
    Equal, int for int, to ``_packed`` of those list rows at the width
    ``_slot_width`` gives for them."""
    width = _slot_width(len(values) * len(index), ncols)
    lead = [slots[:ncols] for slots in index]
    packed = []
    for w in values:
        for slots in lead:
            row = 0
            for i in slots:
                row = row << width | w[i]
            packed.append(row)
    return packed


@lru_cache(maxsize=128)
def _fold_masks(width: int, ncols: int) -> tuple[int, int, int]:
    """For packed rows of ``ncols`` slots of ``width`` bits: the number of
    folds that takes a slot below 2**(width - 1) below 2p, and the masks of
    the low 30 bits and of the rest of every slot."""
    folds, bound = 0, 1 << width - 1
    while bound > 2 * _PRIME:
        bound = (1 << 30) + _FOLD * (bound >> 30)
        folds += 1
    ones = ((1 << width * ncols) - 1) // ((1 << width) - 1)
    return folds, ones * ((1 << 30) - 1), ones * ((1 << width - 30) - 1)


def _standard_form_mod_p(rows: Sequence[Sequence[int]],
                         size: int) -> list[list[int]] | None:
    """C = R_Q B_Q^-1 modulo ``_PRIME``, as rows; None when the first ``size``
    rows have rank below size modulo p.  The input is not modified.

    B is the first ``size`` rows and R the others.  Q is the set of pivot
    columns of B, the columns where B's prefix rank rises modulo p; when
    size is the number of columns, Q is every column.  C has one row per
    row of R and one column per row of B, and C_r B_Q = r_Q, so C depends
    on the set Q alone.

    ``_eliminate_mod_p`` of [M | E], M the rows and E ``size`` identity
    columns, 1 in column i of row i of B and 0 elsewhere, drawing its
    pivots from B alone.  [B | I] has rank size, so it finds size pivots,
    all of them columns of M exactly when B has rank size modulo p.  Every
    pivot row is then [A B | A] modulo p for some A, so a row r of R is
    reduced to [r + A_r B | A_r], zero modulo p on Q: r_Q = -A_r B_Q, and
    its columns of E hold A_r = -C_r.
    """
    ncols = len(rows[0]) if rows else 0
    width = _slot_width(len(rows), ncols + size)
    packed = _packed(rows, width, size)
    for i in range(size):
        packed[i] |= 1 << (size - 1 - i) * width
    pivots, rest = _eliminate_mod_p(packed, ncols + size, size, leading=size)
    if any(col >= ncols for col in pivots):
        return None
    mask = (1 << width) - 1
    slots = range((size - 1) * width, -1, -width)
    return [[-(v >> s & mask) % _PRIME for s in slots] for v in rest]


def _minors_nonzero_mod_p(c: Sequence[Sequence[int]],
                          clear: Callable[[list[int], list[int]], bool]) -> bool:
    """Whether every square minor of c is nonzero modulo ``_PRIME`` or
    cleared by ``clear``.

    A depth-first walk over the subsets of rows of whichever of c and its
    transpose has more rows (both have the same square minors), visiting
    each square minor once.  A subset of k rows carries its exterior
    product: the k x k minors on those rows, one per k-subset of the
    columns.  Laplace expansion along a new row, taken as the last, gives
    the (k + 1)-minors: the minor on columns c_0 < ... < c_k is
    sum_i (-1)**i * row[c_i] * (the k-minor without c_i), up to one sign
    shared by the whole subset, which changes no zero.  So each minor is
    computed once, with k + 1 multiplies, and with w the number of
    columns walked, a carried vector has at most C(w, k) entries.

    At a minor that is zero modulo p, the walk calls ``clear(rows, cols)``
    with its row and column indices in c itself, increasing: the rows are
    the path of the walk, and the columns, the len(wider)-th
    (k + 1)-subset, are read off its expansion.  The walk goes on only
    when ``clear`` returns True.
    """
    if not c or not c[0]:
        return True
    flipped = len(c) < len(c[0])
    if flipped:
        c = list(zip(*c))
    p = _PRIME
    width = len(c[0])
    nrows = len(c)
    path: list[int] = []
    # Each row followed by its negation modulo p, built once for all the
    # visits of that row.
    signed_rows = [[*row, *(p - x for x in row)] for row in c]

    def extend(start: int, minors: list[int], k: int) -> bool:
        terms = _laplace_terms(width, k)
        for u in range(start, nrows):
            signed = signed_rows[u]
            path.append(u)
            wider = []
            for expansion in terms:
                s = 0
                for col, sub in expansion:
                    s += signed[col] * minors[sub]
                s %= p
                if not s:
                    cols = [col % width for col, _ in expansion]
                    if not (clear(cols, path[:]) if flipped else clear(path[:], cols)):
                        return False
                wider.append(s)
            if k + 1 < width and not extend(u + 1, wider, k + 1):
                return False
            path.pop()
        return True

    return extend(0, [1], 0)


@lru_cache(maxsize=64)
def _laplace_terms(width: int, k: int) -> tuple[tuple[tuple[int, int], ...], ...]:
    """For ``_minors_nonzero_mod_p``: one tuple per (k + 1)-subset of
    range(width), in ``combinations`` order, of the pairs (column, index of
    the k-subset without it), one per column of the subset.  A column at
    an odd place in the subset is offset by width, so that it reads the
    negated entry of the row."""
    index = {sub: i for i, sub in enumerate(combinations(range(width), k))}
    return tuple(tuple((col + width * (i % 2), index[sub[:i] + sub[i + 1:]])
                       for i, col in enumerate(sub))
                 for sub in combinations(range(width), k + 1))


def integer_kernel(rows: Iterable[Sequence[int]]) -> list[list[int]]:
    """A basis of the right kernel of an integer matrix, as primitive integer vectors.

    Fraction-free Gauss-Jordan elimination: each pivot clears its column in
    every other row by the integer row operation a * row - b * pivot, and
    each new row is divided by the gcd of its entries.  Row i of the result
    is then zero in every pivot column but its own, c_i, so each column f
    without a pivot gives the kernel vector with entry s at f and
    -row_i[f] * s / row_i[c_i] at each c_i, s the lcm of the row_i[c_i]
    with row_i[f] nonzero.  Pivots are taken left to right, so the columns
    without one are those in the span of the columns before them, row_i[f]
    is zero for every c_i > f, and the last nonzero entry of each kernel
    vector is its column f.  The rows must be nonempty.
    """
    m = [list(r) for r in rows]
    ncols = len(m[0])
    pivots: list[int] = []
    for col in range(ncols):
        top = len(pivots)
        hit = next((i for i in range(top, len(m)) if m[i][col]), None)
        if hit is None:
            continue
        m[top], m[hit] = m[hit], m[top]
        pivot = m[top]
        a = pivot[col]
        for i, row in enumerate(m):
            b = row[col]
            if b and i != top:
                row = [a * x - b * y for x, y in zip(row, pivot)]
                g = gcd(*row)
                m[i] = [x // g for x in row] if g > 1 else row
        pivots.append(col)
    basis = []
    for free in sorted(set(range(ncols)) - set(pivots)):
        used = [(m[i][free], m[i][c], c) for i, c in enumerate(pivots) if m[i][free]]
        scale = lcm(*(lead for _, lead, _ in used))
        v = [0] * ncols
        v[free] = scale
        for x, lead, c in used:
            v[c] = -x * scale // lead
        g = gcd(*v)
        basis.append([x // g for x in v])
    return basis

