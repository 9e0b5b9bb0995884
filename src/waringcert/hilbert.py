"""Hilbert functions of finite projective point sets, and separation tests.

For a finite set Z in P^n, the Hilbert function h_Z(d) is the rank of the
matrix that evaluates all degree-d monomials at the points of Z.  Its first
difference Dh_Z(d) = h_Z(d) - h_Z(d-1) encodes how the points impose new
conditions degree by degree; the nonzero differences form the h-vector.

Separation language: Z is separated in degree d when h_Z(d) = len(Z), and a
single point is separated when some degree-d form vanishes on the rest of Z
but not there.  A set has the Cayley-Bacharach property in degree i when no
point is separated in degree i.

The whole profile comes from one elimination modulo a prime (the idea of
Moeller and Buchberger, 1982: the Hilbert function of a set of points from one
incremental elimination, not one per degree).  In an affine chart, the
degree-t rows, t the least degree with C(n+t, n) >= len(Z), hold every
lower degree's rows as a column prefix, scaled row by row; the pivots of
one column-by-column pass below each prefix bound h from below, and a
bound that meets min(len(Z), C(n+j, n)) proves h(j).  A degree the pass
does not prove takes an exact rank of its own rows.  ``hilbert_profile``
has the proof, and every value of h in the package is read from it.  A
profile stores the values through the separation degree and no more; it
is kept on the set, and the range the CLI prints is the CLI's own.
"""

from __future__ import annotations

from bisect import bisect_left
from dataclasses import dataclass
from itertools import accumulate, count
from math import comb

from .geometry import PointSet, memo_on_set, monomial_rows, monomial_values, union
from .linalg import _PRIME, _pivots_mod_p, integer_kernel, integer_rank


def hilbert_function(a: PointSet, d: int) -> int:
    """h_Z(d): the number of independent conditions Z imposes in degree d.

    0 for negative d and 1 at d = 0, where the one monomial is the constant
    1.  Always between 1 and len(a) for d >= 0, and nondecreasing in d.
    For d >= 1, the rank of the integer monomial values at the primitive
    representatives.  A lookup of ``hilbert_profile``, kept on the set,
    which proves its values from one modular pass and takes an exact rank
    for any degree the pass leaves open.
    """
    return hilbert_profile(a).value_at(d)


def span_dim(a: PointSet) -> int:
    """Projective dimension of the linear span: h(1) - 1.

    The degree-1 monomial values are the primitive coordinates, so h(1),
    read from the profile, is the rank of the coordinate matrix.
    """
    return hilbert_function(a, 1) - 1


@dataclass(frozen=True)
class HilbertProfile:
    """Hilbert function values h(0), ..., h(s) of a point set.

    s is the separation degree, the first degree with h(s) = set_size: h
    is nondecreasing and bounded by the set size, so it equals set_size
    from degree s on and every later difference is zero.  The set size
    and the differences are read off the values.

    Invariants enforced at construction: h(0) = 1, the values never
    decrease, the last value, and no earlier one, is the set size, and
    the values have stabilised by degree set_size - 1.
    """

    values: tuple[int, ...]

    def __post_init__(self):
        if not self.values or self.values[0] != 1:
            raise ValueError("h(0) must equal 1")
        if any(v > w for v, w in zip(self.values, self.values[1:])):
            raise ValueError("h must not decrease")
        if self.set_size in self.values[:-1]:
            raise ValueError("values must end at the first degree with h = set_size")
        if len(self.values) > self.set_size:
            raise ValueError("h has not stabilised at the set size by degree set_size - 1")

    @classmethod
    def from_diffs(cls, diffs: tuple[int, ...] | list[int]) -> "HilbertProfile":
        """Profile with the given first differences; trailing zeros are dropped."""
        diffs = list(diffs)
        while len(diffs) > 1 and not diffs[-1]:
            diffs.pop()
        return cls(tuple(accumulate(diffs)))

    @property
    def set_size(self) -> int:
        return self.values[-1]

    @property
    def h_vector(self) -> tuple[int, ...]:
        """The differences through the separation degree; the last is nonzero."""
        return tuple(v - w for v, w in zip(self.values, (0,) + self.values))

    def value_at(self, d: int) -> int:
        """h(d), extending by 0 below degree 0 and by set_size above s."""
        if d < 0:
            return 0
        if d < len(self.values):
            return self.values[d]
        return self.set_size

    def diff_at(self, d: int) -> int:
        """Dh(d) = h(d) - h(d - 1)."""
        return self.value_at(d) - self.value_at(d - 1)

    @property
    def separation_degree(self) -> int:
        """The least d with h(d) = set_size."""
        return len(self.values) - 1


@memo_on_set
def hilbert_profile(a: PointSet) -> HilbertProfile:
    """Hilbert profile of a, kept on the set, so that the criteria that
    read it share one object.

    Values are proved, and stored, only up to the separation degree s, the
    first d with h(d) = len(a): h is nondecreasing and bounded by len(a),
    so every later value is len(a).

    Every value is proved exactly.  h(d) is the rank of the degree-d
    monomial values at any representatives of the points in any
    coordinates: an invertible change of coordinates acts invertibly on
    the degree-d forms, and scaling a point scales its row.  Let l =
    len(a), N_j = C(n+j, n) and t the least j with N_j >= l.

    - *Chart.*  L = x_0 + c*x_1 + ... + c**n * x_n, for the least c >= 0
      with L(P) nonzero modulo p = ``linalg._PRIME`` at every primitive
      point P.  L(P) is a polynomial in c of degree at most n, nonzero
      modulo p because P is primitive, so each point rules out at most n
      values of c modulo p, and of the l*n + 1 values 0..l*n, distinct
      modulo p, some c is left.  The coordinates
      (L, x_1, ..., x_n) differ from (x_0, ..., x_n) by a unimodular
      matrix, so the points keep integer coordinates.
    - *Pass.*  In the lexicographic order of ``monomial_rows`` the first
      N_j degree-t monomials in the chart are L**(t-j) times the degree-j
      monomials, in their own order.  So the first N_j columns of the
      degree-t rows are the degree-j rows with row P scaled by
      L(P)**(t-j), which is nonzero, and their rank over Q is h(j).
      ``_pivots_mod_p`` eliminates those rows modulo p column by column,
      stopping at rank l, and the pivots below column N_j count the rank
      modulo p of the first N_j columns.  That is a lower bound on h(j),
      since a minor that is nonzero modulo p is a nonzero integer, and
      h(j) <= min(l, N_j).  Where the two meet, h(j) is proved.  As L(P)
      is a unit modulo p, the bound falls short only where the points
      themselves are special, or special modulo p.
    - *Span.*  When the bound falls short at degree 1, ``_frame`` gives
      k = h(1) exactly.  Where k <= n, complete the basis B of the span
      to a basis of the whole space: in its coordinates every point has
      x_k = ... = x_n = 0, so each monomial in those coordinates vanishes
      on the points, and the degree-j rows are those of the first k
      coordinates, which ``_frame`` computes, padded by zero columns.  So
      the profile is that of those coordinates, points of P^(k-1).
    - *Fallback.*  Each degree whose bound falls short takes
      ``_exact_value``, the exact ``integer_rank`` of its own rows; so
      does every degree above t while h < l, where the count of pivots,
      below l, meets no bound.
    """
    l = len(a)
    n = a.ambient_dim
    t = next(j for j in count() if comb(n + j, n) >= l)
    pivots = _pivots_mod_p(monomial_rows(_chart(a), t), l) if t else []
    if t and bisect_left(pivots, n + 1) < min(l, n + 1):
        frame, framed = _frame(a)
        if len(frame) <= n:
            return hilbert_profile(PointSet.from_rows(framed))
    values = [1]
    while values[-1] < l:
        j = len(values)
        width = comb(n + j, n)
        full = min(l, width)
        values.append(full if bisect_left(pivots, width) == full else _exact_value(a, j))
    return HilbertProfile(tuple(values))


def _chart(a: PointSet) -> list[tuple[int, ...]]:
    """The primitive points in the coordinates (L, x_1, ..., x_n) of
    ``hilbert_profile``'s chart, L = x_0 + c*x_1 + ... + c**n * x_n for the
    least c >= 0 with every L(P) nonzero modulo ``_PRIME``."""
    points = [p.primitive_coords for p in a]
    for c in count():
        forms = []
        for point in points:
            value = 0
            for x in reversed(point):
                value = value * c + x
            if not value % _PRIME:
                break
            forms.append(value)
        else:
            return [(form, *point[1:]) for form, point in zip(forms, points)]


def _exact_value(a: PointSet, d: int) -> int:
    """h(d) as the exact ``integer_rank`` of the degree-d rows."""
    return integer_rank(monomial_values(a, d))


@memo_on_set
def _frame(a: PointSet) -> tuple[tuple[int, ...], tuple[tuple[int, ...], ...]]:
    """A frame of a: the indices of the points of B, the greedy maximal
    independent subset in point order, and the integer coordinates of
    every point in the basis B of the span, so that B's points are the
    coordinate points e_0..e_(k-1) of P^(k-1).

    One exact elimination gives both: ``integer_kernel`` of the matrix
    whose columns are the primitive rows takes its pivots left to right,
    so the pivot columns are B and each other point q has one kernel
    vector, whose last nonzero entry is at q.  That vector is a relation
    s q = -(sum over i of v_i b_i) with s != 0, so the coordinates of q
    in the basis B are its entries at B, up to scale.
    """
    coords = [p.primitive_coords for p in a]
    relations = {max(j for j, x in enumerate(v) if x): v
                 for v in integer_kernel(list(zip(*coords)))}
    frame = tuple(i for i in range(len(a)) if i not in relations)
    return frame, tuple(tuple(relations[i][c] if i in relations else int(c == i) for c in frame)
                        for i in range(len(a)))


@memo_on_set
def _unseparated(a: PointSet, d: int) -> frozenset[int]:
    """The indices of the points of a that no degree-d form separates.

    Point p is separated exactly when its row of degree-d monomial values
    is outside the span of the other rows, that is, when every linear
    relation among the rows, a left-kernel vector, is 0 at p.  So the
    points not separated are the union of the supports of one
    ``integer_kernel`` basis of the transposed rows, whatever the basis.
    """
    relations = integer_kernel(list(zip(*monomial_values(a, d))))
    return frozenset(j for v in relations for j, x in enumerate(v) if x)


def separates_point(a: PointSet, index: int, d: int) -> bool:
    """True when some degree-d form vanishes on a minus the point but not there.

    Equivalent to the coordinate vector e_index lying in the image of the
    evaluation map: removing the point lowers the Hilbert function by one,
    and no linear relation among the points' monomial values involves it.
    """
    if not 0 <= index < len(a):
        raise IndexError(f"point index {index} out of range")
    if d < 0:
        return False
    if len(a) == 1:
        return True
    return index not in _unseparated(a, d)


def satisfies_cb(a: PointSet, i: int) -> bool:
    """Cayley-Bacharach property in degree i: no point is separated.

    Every degree-i form vanishing at all points but one must vanish there
    too.  Defined as False for singletons (a nonzero constant separates the
    lone point, and every criterion using the property assumes len >= 2).
    """
    if i < 0:
        raise ValueError(f"degree must be >= 0, got {i}")
    if len(a) == 1:
        return False
    return len(_unseparated(a, i)) == len(a)


def check_gkr_inequality(profile: HilbertProfile, i: int) -> bool:
    """Necessary condition on the differences of a Cayley-Bacharach set.

    For a set with the degree-i Cayley-Bacharach property the differences
    satisfy, for every j with 0 <= j <= i + 1:

        Dh(0) + ... + Dh(j)  <=  Dh(i+1-j) + ... + Dh(i+1)

    The sums telescope, so this checks h(j) <= h(i+1) - h(i-j) for an
    arbitrary profile.  It is only a necessary condition, so True never
    certifies the Cayley-Bacharach property.
    """
    if i < 0:
        raise ValueError(f"degree must be >= 0, got {i}")
    return all(profile.value_at(j) <= profile.value_at(i + 1) - profile.value_at(i - j)
               for j in range(i + 2))


def union_profile_drop(a: PointSet, b: PointSet, d: int) -> bool:
    """True when the union of a and b is not separated in degree d.

    The union deduplicates shared points.  A drop (h strictly below the
    union's size) is a necessary condition for a and b to be two Waring
    decompositions of one degree-d form.
    """
    z = union(a, b)
    return hilbert_function(z, d) < len(z)


def span_intersection_dim(a: PointSet, b: PointSet, d: int) -> int:
    """Projective dimension of span(nu_d(a)) meet span(nu_d(b)), a, b disjoint.

    By the Grassmann formula the dimension is h_a(d) + h_b(d) - h_Z(d) - 1
    where Z is the union; -1 means the spans are disjoint.  When both
    embedded sets are linearly independent this reduces to the closed form
    len(Z) - h_Z(d) - 1.  Raises ValueError when the sets share a point,
    where neither formula counts the overlap.
    """
    shared = [p for p in a if p in b]
    if shared:
        raise ValueError(f"point sets share {len(shared)} point(s)")
    z = union(a, b)
    return (hilbert_function(a, d) + hilbert_function(b, d)
            - hilbert_function(z, d) - 1)
