"""Exact linear algebra over the integers and the rationals.

Every rank in this package is taken by fraction-free Bareiss elimination on
integer rows, whose exact divisions keep every intermediate value an
integer minor of the input: by ``integer_rank`` here, and by the Kruskal
subset sweeps, which share the elimination of common subset prefixes.
Callers build integer rows directly (monomial values at primitive integer
representatives of the points), so no ``Fraction`` arithmetic runs on the
hot path.  ``Matrix`` is the rational front end kept for the public API and
the tests: it scales each row to integers and then calls ``integer_rank``.
No floating point is used anywhere.
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


def integer_rank(rows: Iterable[Sequence[int]]) -> int:
    """Rank of an integer matrix, given as rows, by fraction-free elimination.

    Bareiss elimination on a copy of the rows: the division by the previous
    pivot is exact (Sylvester's determinant identity), so every entry stays
    an integer minor of the input.  The pivot in each column is the first
    remaining row with a nonzero entry; columns with no pivot are skipped
    and never touched again, which preserves exactness.
    """
    m = [list(r) for r in rows]
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
