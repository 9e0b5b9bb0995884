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

Each rank is found by ``veronese_kruskal_rank``, which holds every rule
for it: an invariant already at hand where one decides it, serial subset
sweeps otherwise.  It is cached on the point set, so each Veronese degree
of a set is computed at most once, whichever of the Kruskal, GUP and
reshaping tests asks first.  The degree-j images span h_A(j) dimensions,
read off the Hilbert profile, so k_j <= h_A(j), with equality when
h_A(j) = len(A) or h_A(j) <= 2; in the plane, k_1 is read from the
collinearity search; otherwise one sweep at size h_A(j) decides whether
k_j reaches it, and the sweeps climb from size 3 only when it does not.
``kruskal_and_collinear`` pairs k_1 with the largest aligned subset, read
off k_1 where k_1 decides it.

A sweep asks whether every s-subset of the rows M is independent.  It
runs modulo the prime p of ``linalg``, on C, the other rows written
modulo p in the basis of the first s by ``linalg``'s one modular
elimination, its pivots drawn from those s rows: each square minor of C
is, up to a unit, the minor of one s-subset (``_all_subsets_independent``),
so a nonzero residue proves its subset independent, and only a subset
whose residue is zero takes an exact rank.  C is kept on the set by
``hilbert._standard_form``.
"""

from __future__ import annotations

from functools import lru_cache
from itertools import combinations
from math import comb
from typing import Sequence

from .geometry import (PointSet, Record, max_collinear_subset_size,
                       memo_on_set, monomial_values)
from .hilbert import _standard_form, gup_cutoff, hilbert_profile
from .linalg import _minors_nonzero_mod_p, integer_rank

IntRows = Sequence[Sequence[int]]


def _all_subsets_independent(rows: IntRows, size: int, c: IntRows | None) -> bool:
    """Whether every ``size``-subset of the rows is linearly independent;
    exact and complete for every size.

    Let B be the first ``size`` rows, Q its pivot columns modulo p, where
    its prefix rank rises, so that B_Q is invertible modulo p, and
    C = R_Q B_Q^-1 modulo p for the other rows R
    (``hilbert._standard_form``).  Then M_Q = [I; C] B_Q modulo p,
    so for every size-subset S, det M_{S,Q} is congruent to +-det B_Q times
    the minor of C on the rows of S outside B and the columns of the rows
    of B not in S.  This is one to one: the minor of C on rows T and
    columns U belongs to S = {size + i : i in T} + (B - U), and the empty
    minor to S = B.  A minor nonzero modulo p makes det M_{S,Q} a nonzero
    integer, so M_S is independent; ``linalg._minors_nonzero_mod_p`` walks
    every minor, and hands each zero one to ``clear``, which takes the
    exact ``integer_rank`` of M_S.  So each subset is decided by a nonzero
    residue or by one exact rank, whatever the rank of M.

    ``c`` is that C, or None when B is singular modulo p.  Then there is
    no C, and every subset takes an exact rank, B first, so a B dependent
    over Q ends the sweep at once.
    """
    if c is None:
        return all(integer_rank([rows[i] for i in subset]) == size
                   for subset in combinations(range(len(rows)), size))

    def clear(others: list[int], dropped: list[int]) -> bool:
        subset = [size + i for i in others] + [i for i in range(size) if i not in dropped]
        return integer_rank([rows[i] for i in subset]) == size

    return _minors_nonzero_mod_p(c, clear)


@memo_on_set
def veronese_kruskal_rank(a: PointSet, j: int) -> int:
    """Kruskal rank k_j of the degree-j Veronese image of a; j >= 1.

    With h = h_A(j), the images span h dimensions, so any h + 1 of them
    are dependent and k_j <= h.  When h = len(a) the images are
    independent and k_j = h.  When h <= 2, k_j = h as well: in degree 1
    the points span a line, or are one point, and for j >= 2, h >=
    min(len(a), 3), as products of linear forms separate any three points,
    so h <= 2 only where h = len(a).  Otherwise h >= 3, and since three
    distinct points are dependent exactly when they are collinear, k_1 >= 3
    exactly when no three points are aligned: in the plane, where k_1 <= 3,
    the collinearity search ``max_collinear_subset_size`` gives k_1 with no
    subset sweep.  Elsewhere every h-subset is independent exactly when
    k_j = h, which one sweep at size h decides.  When it finds a dependent
    subset the sweeps climb from size 3: if every s-subset is independent
    then so is every smaller subset, since a dependent subset stays
    dependent under extension, so k_j is one below the first size whose
    sweep finds a dependent subset, and h - 1 when none below h does.  The
    rows of distinct points are nonzero and pairwise nonproportional, so
    k_j >= 2 and the climb may start at 3.
    """
    if j < 1:
        raise ValueError(f"Veronese degree must be >= 1, got {j}")
    h = hilbert_profile(a).value_at(j)
    if h == len(a) or h <= 2:
        return h
    if j == 1 and a.ambient_dim == 2:
        return 3 if max_collinear_subset_size(a) == 2 else 2
    rows = monomial_values(a, j)

    def sweep(size: int) -> bool:
        return _all_subsets_independent(rows, size, _standard_form(a, j, size))

    if sweep(h):
        return h
    return next((s - 1 for s in range(3, h) if not sweep(s)), h - 1)


def kruskal_and_collinear(a: PointSet) -> tuple[int, int]:
    """The Kruskal rank k_1 of a, and the size of its largest collinear subset.

    k_1 is ``veronese_kruskal_rank(a, 1)``.  When h_A(1) <= 2 every point
    lies on one line, so the whole set is aligned.  Otherwise k_1 >= 3
    exactly when the largest collinear subset has size 2, so the
    collinearity search ``max_collinear_subset_size`` runs only when
    k_1 < 3, and in the plane k_1 has already read it.
    """
    k = veronese_kruskal_rank(a, 1)
    if hilbert_profile(a).value_at(1) <= 2:
        return k, len(a)
    return k, 2 if k >= 3 else max_collinear_subset_size(a)


def kruskal_rank(a: PointSet) -> int:
    """Largest k such that every k-subset of a is linearly independent.

    Always between 1 and min(len(a), n + 1); at least 2 unless a is a
    singleton, because distinct projective points are never proportional.
    """
    return veronese_kruskal_rank(a, 1)


def is_lgp(a: PointSet) -> bool:
    """Linearly general position: the Kruskal rank attains min(len, n + 1)."""
    return kruskal_rank(a) == min(len(a), a.ambient_dim + 1)


def is_gup(a: PointSet) -> bool:
    """General uniform position: every early Veronese image has maximal k.

    Checks k(v_j(a)) = min(len(a), C(n+j, j)) for each j from 1 up to the
    first degree whose monomial space is at least as large as the set; from
    that degree on the condition asks for full linear independence, which
    is preserved in all higher degrees.
    """
    return _gup_failure(a) is None


def _gup_failure(a: PointSet) -> int | None:
    """The first degree j that ``is_gup`` checks with k(v_j(a)) short of
    min(len(a), C(n+j, j)), or None when every checked degree attains it."""
    cutoff = gup_cutoff(a.ambient_dim, len(a))
    for j in range(1, cutoff + 1):
        target = min(len(a), comb(a.ambient_dim + j, j))
        if veronese_kruskal_rank(a, j) != target:
            return j
    return None


class KruskalReport(Record):
    """Outcome of the reshaping test for one partition d = a + b + c: it
    passes when 2*set_size <= sum(ranks) - 2."""

    set_size: int
    partition: tuple[int, int, int]
    ranks: tuple[int, int, int]

    def __post_init__(self):
        if sorted(self.partition) != list(self.partition) or self.partition[0] < 1:
            raise ValueError(f"bad partition {self.partition}")


@lru_cache(maxsize=64)
def degree_partitions(d: int) -> tuple[tuple[int, int, int], ...]:
    """All partitions d = a + b + c with 1 <= a <= b <= c, most unbalanced first.

    Ordered by descending largest part, then ascending smallest;
    reshaped_kruskal breaks ties of sweep cost in this order.  The tuple
    depends on d alone, so it is built once per d (a raised error is not
    cached).
    """
    if d < 3:
        raise ValueError(f"degree must be >= 3 to split into three parts, got {d}")
    parts = []
    for x in range(1, d // 3 + 1):
        for y in range(x, (d - x) // 2 + 1):
            parts.append((x, y, d - x - y))
    return tuple(sorted(parts, key=lambda p: (-p[2], p[0], p[1])))


class ReshapingSearch(Record):
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
    h_A(j) dimensions, so any h_A(j) + 1 of them are dependent.  Each cap
    h_A(j) is read once into a list, and a swept degree's exact rank
    replaces its cap there, so every bound is a plain sum of the list.  A
    partition whose caps sum below 2*l + 2 could never pass, since exact
    ranks only lower a bound, and is dropped before the search sorts; so
    the cap changes neither whether a partition passes nor which passes
    first, only which degrees are swept.  Since h_A(j) <= min(l,
    C(n+j, j)), it drops every partition that cap would.  The rest are
    tried cheapest first: degree j costs 1 when C(n+j, j) >= l (the Hilbert
    profile decides it unless the set is special) and C(l, C(n+j, j))
    subsets otherwise, a partition the sum over its parts, ties in
    degree_partitions order.  Within a partition the cheapest degrees are
    swept first, so a partition stops as soon as it cannot pass.  The
    search stops at the first partition that passes.
    """
    l = len(a)
    n = a.ambient_dim
    h = hilbert_profile(a)
    parts = degree_partitions(d)
    # caps[j] is h_A(j) until degree j is swept, and k_j from then on.
    caps = [h.value_at(j) for j in range(d - 1)]
    cost = [1 if comb(n + j, j) >= l else comb(l, comb(n + j, j)) for j in range(d - 1)]
    known: dict[int, int] = {}

    def upper(p: tuple[int, int, int]) -> int:
        x, y, z = p
        return caps[x] + caps[y] + caps[z] - 2

    open_parts = [p for p in parts if upper(p) >= 2 * l]
    passing = None
    for p in sorted(open_parts, key=lambda p: cost[p[0]] + cost[p[1]] + cost[p[2]]):
        pending = sorted({j for j in p if j not in known}, key=lambda j: (cost[j], j))
        while pending and upper(p) >= 2 * l:
            j = pending.pop(0)
            known[j] = caps[j] = veronese_kruskal_rank(a, j)
        if upper(p) >= 2 * l:
            # Every part is exact now, so the partition passes.
            ranks = tuple(known[j] for j in p)
            passing = KruskalReport(set_size=l, partition=p, ranks=ranks)
            break
    return ReshapingSearch(passing=passing, ranks=tuple(sorted(known.items())),
                           bound=max(map(upper, parts)) // 2)
