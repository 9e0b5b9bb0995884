"""Kruskal ranks of point sets and of their Veronese images.

The Kruskal rank k_A of a finite set A is the largest k such that every
subset of at most k points is linearly independent.  It is bounded by
min(len(A), n + 1) in P^n; a set attaining the bound is in linearly general
position (LGP).  A set is in general uniform position (GUP) when every
Veronese image v_j(A) has maximal Kruskal rank, for j up to the first degree
whose monomial space is at least as large as the set.

The reshaping criterion splits a degree d = a + b + c and compares twice the
set size against k_a + k_b + k_c - 2, where k_j is the Kruskal rank of the
degree-j Veronese image (Kruskal 1977; Chiantini, Ottaviani and
Vannieuwenhoven 2017).  Since k_j <= h_A(j), the Hilbert function, most
partitions are ruled out before any subset is swept.

The degree-j image is taken as the integer rows ``monomial_values(a, j)``:
they differ from the Veronese coordinates by a nonzero scaling of each row
and of each column (the multinomial weights), and such scalings keep every
subset's rank, hence the Kruskal rank.

Each rank is read from an invariant already at hand where one decides it,
and found by serial subset sweeps otherwise; it is cached on the point set,
so each Veronese degree of a set is computed at most once, whichever of the
Kruskal, GUP and reshaping tests asks first.  The degree-j images span
h_A(j) dimensions, read off the Hilbert profile, so k_j <= h_A(j), with
equality when h_A(j) = len(A) or h_A(j) <= 2; otherwise one sweep at size
h_A(j) decides whether k_j reaches it, and the sweeps climb from size 3
only when it does not.  Three distinct points are dependent exactly when
they are collinear, so k_1 >= 3 exactly when no three points are aligned:
in the plane, where k_1 <= 3, the collinearity search gives k_1, and in
higher dimensions k_1 >= 3 gives the largest aligned subset, 2
(``kruskal_and_collinear``).

A sweep asks whether every s-subset of the rows M is independent.  It is
first proved modulo the prime p of ``linalg``: with B the first s rows, Q
columns where B_Q is invertible modulo p and C = R_Q B_Q^-1 for the other
rows R, the minor of each s-subset on the columns Q is congruent to
+-det B_Q times a square minor of C, and every square minor of C is one
of them.  If no square minor of C is zero modulo p, every subset has a
nonzero integer minor and is independent.  The proof is sound for any s,
and complete up to minors divisible by p when s is the rank of M, as it
is at size h_A(j).  Otherwise the exact fraction-free sweep decides, so
every answer is exact.
"""

from __future__ import annotations

from dataclasses import dataclass
from math import comb
from typing import Sequence

from .geometry import (PointSet, max_collinear_subset_size, memo_on_set,
                       monomial_values)
from .hilbert import hilbert_profile
from .linalg import _minors_nonzero_mod_p, _standard_form_mod_p

IntRows = Sequence[Sequence[int]]


def _independent_from(cands: IntRows, pos: int, prev: int, need: int) -> bool:
    """Whether cands[pos] with any need - 1 later rows is independent.

    The rows in ``cands`` are the rows of one subset sweep after the
    fraction-free elimination steps of the pivots already chosen (prev is
    the last pivot, 1 before any), so "independent" includes those pivot
    rows.  A reduced row is zero exactly when its row lies in their span.
    Taking cands[pos] as the next pivot, at its first nonzero column, every
    later row r becomes (p*r - r[col]*pivot) / prev, an exact division
    (Sylvester's identity), and the pivot column is dropped.  Subsets that
    share a prefix thus share its elimination: each extra row costs one
    row reduction instead of a full elimination.
    """
    pivot = cands[pos]
    col = next((c for c, x in enumerate(pivot) if x), None)
    if col is None:
        return False
    if need == 1:
        return True
    p = pivot[col]
    rest = []
    for r in cands[pos + 1:]:
        f = r[col]
        row = [(p * x - f * y) // prev for x, y in zip(r, pivot)]
        del row[col]
        rest.append(row)
    if need == 2:
        return all(map(any, rest))
    return all(_independent_from(rest, i, p, need - 1)
               for i in range(len(rest) - need + 2))


def _all_subsets_independent(rows: IntRows, size: int) -> bool:
    """Whether every ``size``-subset of the rows is linearly independent.

    First a modular proof.  Let B be the first ``size`` rows, Q columns with
    B_Q invertible modulo p, and C = R_Q B_Q^-1 modulo p for the other rows
    R (``linalg._standard_form_mod_p``).  Then M_Q = [I; C] B_Q modulo p,
    so for every size-subset S, det M_{S,Q} is congruent to +-det B_Q times
    the minor of C on the rows of S outside B and the columns of the rows
    of B not in S; as S ranges over all size-subsets, these are every
    square minor of C.  If every one is nonzero modulo p
    (``linalg._minors_nonzero_mod_p``), each det M_{S,Q} is a nonzero
    integer and every M_S is independent.  That holds for any rank of M.
    When ``size`` is the rank, every column lies in the span of the columns
    Q, so a set of rows is independent exactly when its minor on Q is
    nonzero, and only a minor divisible by p can fail the proof.

    When the first rows are dependent modulo p or some minor is zero
    modulo p, nothing is proved, and the exact sweep decides: one depth-first sweep over the
    subsets in lexicographic order, branch by branch on the least index of
    the subset, stopping at the first dependent subset.
    """
    tail = _standard_form_mod_p(rows, size)
    if tail is not None and _minors_nonzero_mod_p(tail):
        return True
    return all(_independent_from(rows, i, 1, size)
               for i in range(len(rows) - size + 1))


def _climb(rows: IntRows, top: int) -> int:
    """Kruskal rank of rows whose top-subsets are not all independent.

    If every s-subset is independent then so is every smaller subset, since
    a dependent subset stays dependent under extension; so the answer is
    one below the first size from 3 up whose sweep finds a dependent subset.
    Needs top >= 3 and nonzero, pairwise nonproportional rows.
    """
    for s in range(3, top):
        if not _all_subsets_independent(rows, s):
            return s - 1
    return top - 1


def _veronese_kruskal(a: PointSet, j: int) -> int:
    """Kruskal rank of the degree-j image: h = h_A(j) where that decides it,
    and otherwise one sweep at size h, with a climb below h only when it
    finds a dependent subset.

    The images span h dimensions, so any h + 1 of them are dependent and
    k_j <= h.  When h = len(a) the images are independent and k_j = h.
    Distinct points have pairwise nonproportional images, so k_j >= 2 from
    two points on, and h <= 2 gives k_j = h.  Otherwise every h-subset is
    independent exactly when k_j = h; the sweep at size h runs through the
    modular proof of ``_all_subsets_independent``, which is complete here
    because h is the rank of the rows, and the exact sweep decides only
    when the proof fails.
    """
    h = hilbert_profile(a).value_at(j)
    if h == len(a) or h <= 2:
        return h
    rows = monomial_values(a, j)
    if _all_subsets_independent(rows, h):
        return h
    return _climb(rows, h)


@memo_on_set
def kruskal_and_collinear(a: PointSet) -> tuple[int, int]:
    """The Kruskal rank k_1 of a, and the size of its largest collinear subset.

    Each is read from the other where it can be: for len(a) >= 3, three
    distinct points are dependent exactly when they are collinear, so
    k_1 >= 3 exactly when the largest collinear subset has size 2.  In the
    plane k_1 <= 3, so the collinearity search ``max_collinear_subset_size``
    gives k_1 with no subset sweep.  Elsewhere k_1 comes from
    ``_veronese_kruskal`` (no work on the line or for at most two points),
    and the collinearity search runs only when k_1 < 3.
    """
    if a.ambient_dim == 2 and len(a) >= 3:
        m = max_collinear_subset_size(a)
        return (3 if m == 2 else 2), m
    k = _veronese_kruskal(a, 1)
    if k >= 3:
        return k, 2
    return k, max_collinear_subset_size(a)


@memo_on_set
def veronese_kruskal_rank(a: PointSet, j: int) -> int:
    """Kruskal rank of the degree-j Veronese image of a; j >= 1.

    Degree 1 is read from ``kruskal_and_collinear``, every other degree
    from ``_veronese_kruskal``.
    """
    if j < 1:
        raise ValueError(f"Veronese degree must be >= 1, got {j}")
    if j == 1:
        return kruskal_and_collinear(a)[0]
    return _veronese_kruskal(a, j)


def kruskal_rank(a: PointSet) -> int:
    """Largest k such that every k-subset of a is linearly independent.

    Always between 1 and min(len(a), n + 1); at least 2 unless a is a
    singleton, because distinct projective points are never proportional.
    """
    return veronese_kruskal_rank(a, 1)


def is_lgp(a: PointSet) -> bool:
    """Linearly general position: the Kruskal rank attains min(len, n + 1)."""
    return kruskal_rank(a) == min(len(a), a.ambient_dim + 1)


def gup_cutoff(n: int, size: int) -> int:
    """First degree j whose monomial space has dimension >= size."""
    j = 1
    while comb(n + j, j) < size:
        j += 1
    return j


def is_gup(a: PointSet) -> bool:
    """General uniform position: every early Veronese image has maximal k.

    Checks k(v_j(a)) = min(len(a), C(n+j, j)) for each j from 1 up to the
    first degree whose monomial space is at least as large as the set; from
    that degree on the condition asks for full linear independence, which
    is preserved in all higher degrees.
    """
    cutoff = gup_cutoff(a.ambient_dim, len(a))
    for j in range(1, cutoff + 1):
        target = min(len(a), comb(a.ambient_dim + j, j))
        if veronese_kruskal_rank(a, j) != target:
            return False
    return True


@dataclass(frozen=True)
class KruskalReport:
    """Outcome of the reshaping test for one partition d = a + b + c."""

    set_size: int
    partition: tuple[int, int, int]
    ranks: tuple[int, int, int]

    def __post_init__(self):
        if sorted(self.partition) != list(self.partition) or self.partition[0] < 1:
            raise ValueError(f"bad partition {self.partition}")

    @property
    def bound(self) -> int:
        """(k_a + k_b + k_c - 2) // 2, the largest set size the ranks allow."""
        return (sum(self.ranks) - 2) // 2

    @property
    def passes(self) -> bool:
        """Whether 2*set_size <= k_a + k_b + k_c - 2."""
        return self.set_size <= self.bound


def degree_partitions(d: int) -> tuple[tuple[int, int, int], ...]:
    """All partitions d = a + b + c with 1 <= a <= b <= c, most unbalanced first.

    Ordered by descending largest part, then ascending smallest;
    reshaped_kruskal breaks ties of sweep cost in this order.
    """
    if d < 3:
        raise ValueError(f"degree must be >= 3 to split into three parts, got {d}")
    parts = []
    for x in range(1, d // 3 + 1):
        for y in range(x, (d - x) // 2 + 1):
            parts.append((x, y, d - x - y))
    return tuple(sorted(parts, key=lambda p: (-p[2], p[0], p[1])))


@dataclass(frozen=True)
class ReshapingSearch:
    """Outcome of the reshaping test over the partitions of one degree.

    passing is the first partition found to pass, with its exact ranks, or
    None when no partition passes.  ranks lists (degree, Kruskal rank) for
    every Veronese degree the search swept, by degree.  bound is the largest
    proven upper bound on (k_x + k_y + k_z - 2) // 2 over all partitions,
    taking k_j exact where swept and h_A(j) elsewhere; it is below len(a)
    exactly when no partition passes.
    """

    passing: KruskalReport | None
    ranks: tuple[tuple[int, int], ...]
    bound: int


@memo_on_set
def reshaped_kruskal(a: PointSet, d: int) -> ReshapingSearch:
    """Reshaping test: does some partition d = x + y + z pass?

    A partition passes when 2*len(a) <= k_x + k_y + k_z - 2, with k_j the
    Kruskal rank of the degree-j Veronese image; one passing partition
    certifies that len(a) is the rank and the decomposition is unique.

    With l = len(a), each k_j is at most h_A(j): the degree-j images span
    h_A(j) dimensions, so any h_A(j) + 1 of them are dependent.  A partition
    whose sum of these caps, minus 2, is below 2*l could never pass, and is
    dropped with no sweep; so the cap changes neither whether a partition
    passes nor which passes first, only which degrees are swept.  Since
    h_A(j) <= min(l, C(n+j, j)), it drops every partition that cap would.
    The rest are tried cheapest first: degree j costs 1 when C(n+j, j) >= l
    (the Hilbert profile decides it unless the set is special) and
    C(l, C(n+j, j)) subsets otherwise, a partition the sum over its parts,
    ties in degree_partitions order.  Within a partition the cheapest
    degrees are swept first, and each exact rank replaces its cap, so a
    partition stops as soon as it cannot pass.  The search stops at the
    first partition that passes.
    """
    l = len(a)
    n = a.ambient_dim
    h = hilbert_profile(a)
    parts = degree_partitions(d)
    known: dict[int, int] = {}

    def cost(j: int) -> int:
        m = comb(n + j, j)
        return 1 if m >= l else comb(l, m)

    def upper(p: tuple[int, int, int]) -> int:
        return sum(known.get(j, h.value_at(j)) for j in p) - 2

    passing = None
    for p in sorted(parts, key=lambda p: sum(map(cost, p))):
        pending = sorted({j for j in p if j not in known}, key=lambda j: (cost(j), j))
        # A partition whose bound is below 2*l is dropped before any sweep.
        while pending and upper(p) >= 2 * l:
            j = pending.pop(0)
            known[j] = veronese_kruskal_rank(a, j)
        if upper(p) >= 2 * l:
            # Every part is exact now, so the partition passes.
            ranks = tuple(known[j] for j in p)
            passing = KruskalReport(set_size=l, partition=p, ranks=ranks)
            break
    return ReshapingSearch(passing=passing, ranks=tuple(sorted(known.items())),
                           bound=max(map(upper, parts)) // 2)
