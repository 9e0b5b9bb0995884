"""Exact linear algebra over the integers and the rationals.

Every rank in this package is taken on integer rows, exactly: a modular
full-rank proof, Bareiss otherwise.  ``integer_rank`` first eliminates
modulo the prime p = 1073741789; a rank over F_p is a lower bound on the rank
over Q (a minor that is nonzero mod p is a nonzero integer), so when it
reaches min(rows, cols) the rank is proved with no entry growth.  Only
matrices short of full rank mod p, which include every rank-deficient one,
go on to fraction-free Bareiss elimination, whose exact divisions keep
every intermediate value an integer minor of the input.  The Kruskal subset
sweeps run their own Bareiss elimination, sharing the work of common
subset prefixes.  Callers build integer rows directly (monomial values at
primitive integer representatives of the points), so no ``Fraction``
arithmetic runs on the hot path.  ``Matrix`` is the rational front end kept
for the public API and the tests: it scales each row to integers and then
calls ``integer_rank``.  No floating point and no randomness is used
anywhere.
"""

from __future__ import annotations

from fractions import Fraction
from math import lcm
from typing import Iterable, Sequence

Vector = tuple[Fraction, ...]


def _to_fraction_rows(rows: Iterable[Iterable[object]]) -> tuple[Vector, ...]:
    out = []
    for row in rows:
        out.append(tuple(Fraction(x) for x in row))
    return tuple(out)


class Matrix:
    """Immutable rational matrix.

    Entries are stored as a tuple of row tuples of ``Fraction``.  Construction
    accepts any nesting of iterables whose items ``Fraction`` accepts (ints,
    Fractions, numeric strings).  Rows must all have the same length.
    """

    __slots__ = ("entries", "rows", "cols", "_rank")

    def __init__(self, rows: Iterable[Iterable[object]]):
        entries = _to_fraction_rows(rows)
        if entries:
            width = len(entries[0])
            for i, row in enumerate(entries):
                if len(row) != width:
                    raise ValueError(
                        f"ragged matrix: row 0 has {width} entries, row {i} has {len(row)}"
                    )
        else:
            width = 0
        object.__setattr__(self, "entries", entries)
        object.__setattr__(self, "rows", len(entries))
        object.__setattr__(self, "cols", width)
        object.__setattr__(self, "_rank", None)

    def __setattr__(self, name: str, value: object) -> None:
        raise AttributeError("Matrix is immutable")

    def __eq__(self, other: object) -> bool:
        if not isinstance(other, Matrix):
            return NotImplemented
        return self.entries == other.entries

    def __hash__(self) -> int:
        return hash(self.entries)

    def __repr__(self) -> str:
        return f"Matrix({[list(map(str, row)) for row in self.entries]})"

    def row(self, i: int) -> Vector:
        return self.entries[i]

    def stack(self, other: "Matrix") -> "Matrix":
        """Vertical concatenation; both matrices must have the same width."""
        if self.cols != other.cols and self.rows and other.rows:
            raise ValueError(
                f"cannot stack: widths differ ({self.cols} vs {other.cols})"
            )
        return Matrix(self.entries + other.entries)

    def rank(self) -> int:
        """Rank, via ``integer_rank`` on the rows scaled to integers.

        Rank is invariant under nonzero row scaling, so each row is
        multiplied by the least common multiple of its denominators.
        """
        cached = self._rank
        if cached is None:
            cdef = integer_rank(_integer_rows(self.entries))
            object.__setattr__(self, "_rank", cdef)
            cached = cdef
        return cached


def _integer_rows(entries: Sequence[Vector]) -> list[list[int]]:
    out = []
    for row in entries:
        scale = lcm(*(x.denominator for x in row)) if row else 1
        out.append([int(x * scale) for x in row])
    return out


# The largest prime below 2**30: residues are one CPython digit.
_PRIME = 1073741789


def integer_rank(rows: Iterable[Sequence[int]]) -> int:
    """Rank of an integer matrix, given as rows; the input is not modified.

    When the rank modulo p = ``_PRIME`` is min(rows, cols), that is the rank:
    rank mod p <= rank over Q <= min(rows, cols).  Otherwise the rank is
    taken by Bareiss elimination.  Both steps are exact.
    """
    m = [list(r) for r in rows]
    full = min(len(m), len(m[0])) if m else 0
    if _reaches_rank_mod_p(m, full):
        return full
    return _bareiss_rank(m)


def _reaches_rank_mod_p(rows: Sequence[Sequence[int]], target: int) -> bool:
    """True when the rows reduced modulo ``_PRIME`` have rank ``target``.

    Gaussian elimination over F_p on a reduced copy.  Each step removes the
    pivot row and updates only the columns right of the pivot, in the rows
    with a nonzero entry in the pivot column.  It stops as soon as the
    remaining rows and columns can no longer reach ``target``.
    """
    m = [[x % _PRIME for x in r] for r in rows]
    ncols = len(m[0]) if m else 0
    rank = 0
    for col in range(ncols):
        if rank == target:
            break
        hit = next((i for i, r in enumerate(m) if r[col]), None)
        if hit is None:
            if rank + min(len(m), ncols - col - 1) < target:
                return False
            continue
        pivot = m.pop(hit)
        neg_inv = _PRIME - pow(pivot[col], -1, _PRIME)
        tail = pivot[col + 1:]
        for r in m:
            factor = r[col]
            if factor:
                factor = factor * neg_inv % _PRIME
                r[col + 1:] = [(x + factor * y) % _PRIME
                               for x, y in zip(r[col + 1:], tail)]
        rank += 1
    return rank == target


def _bareiss_rank(m: list[list[int]]) -> int:
    """Rank by fraction-free elimination, in place on the rows ``m``.

    Bareiss elimination: the division by the previous pivot is exact
    (Sylvester's determinant identity), so every entry stays an integer
    minor of the input.  The pivot in each column is the first remaining
    row with a nonzero entry; columns with no pivot are skipped and never
    touched again, which preserves exactness.
    """
    nrows = len(m)
    ncols = len(m[0]) if m else 0
    rank = 0
    prev = 1
    for col in range(ncols):
        hit = next((r for r in range(rank, nrows) if m[r][col]), None)
        if hit is None:
            continue
        m[rank], m[hit] = m[hit], m[rank]
        row_p = m[rank]
        p = row_p[col]
        for r in range(rank + 1, nrows):
            row_r = m[r]
            factor = row_r[col]
            # The update must run even when factor == 0: every row below the
            # pivot is rescaled so that the later exact divisions by prev
            # stay divisions of minors.
            for c in range(col + 1, ncols):
                row_r[c] = (p * row_r[c] - factor * row_p[c]) // prev
        prev = p
        rank += 1
        if rank == nrows:
            break
    return rank


def row_space_intersection_dim(m1: Matrix, m2: Matrix) -> int:
    """Dimension of the intersection of the two row spaces.

    Computed by the Grassmann formula rank(m1) + rank(m2) - rank(stacked).
    Raises ValueError when the ambient dimensions (column counts) differ.
    """
    if m1.cols != m2.cols:
        raise ValueError(
            f"row spaces live in different ambient spaces ({m1.cols} vs {m2.cols})"
        )
    return m1.rank() + m2.rank() - m1.stack(m2).rank()
