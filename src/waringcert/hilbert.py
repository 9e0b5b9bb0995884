"""Hilbert functions of finite projective point sets, and separation tests.

For a finite set Z in P^n, the Hilbert function h_Z(d) is the rank of the
matrix that evaluates all degree-d monomials at the points of Z.  Its first
difference Dh_Z(d) = h_Z(d) - h_Z(d-1) encodes how the points impose new
conditions degree by degree; the nonzero differences form the h-vector.

Separation language: Z is separated in degree d when h_Z(d) = len(Z), and a
single point is separated when some degree-d form vanishes on the rest of Z
but not there.  A set has the Cayley-Bacharach property in degree i when no
point is separated in degree i.
"""

from __future__ import annotations

from dataclasses import dataclass

from .geometry import PointSet, memo_on_set, monomial_values, union
from .linalg import integer_kernel, integer_rank


@memo_on_set
def hilbert_function(a: PointSet, d: int) -> int:
    """h_Z(d): the number of independent conditions Z imposes in degree d.

    Defined as 0 for negative d and 1 at d = 0, where the one monomial is
    the constant 1; no rank is taken for either.  Always between 1 and
    len(a) for d >= 0, and nondecreasing in d.  For d >= 1, the rank of the
    integer monomial values at the primitive representatives, which differ
    from the values at any other representatives only by a nonzero scaling
    of each row.  This is one rank of the degree-d rows; ``hilbert_profile``
    gives h(d) above the separation degree with no rank.
    """
    if d <= 0:
        return 1 if d == 0 else 0
    return integer_rank(monomial_values(a, d))


def span_dim(a: PointSet) -> int:
    """Projective dimension of the linear span: h(1) - 1.

    The degree-1 monomial values are the primitive coordinates, so h(1) is
    the rank of the coordinate matrix, taken once for both.
    """
    return hilbert_function(a, 1) - 1


@dataclass(frozen=True)
class HilbertProfile:
    """Hilbert function values and first differences over degrees 0..j_max.

    Only degrees 0..s are stored, where s is the separation degree, the
    first degree with h(s) = set_size: h is nondecreasing and bounded by
    the set size, so it equals set_size from degree s on and every later
    difference is zero.  j_max is the requested range, at least s; the
    stored part takes O(s) memory however large j_max is.

    Invariants enforced at construction: values and diffs are consistent
    cumulative sums starting at h(0) = 1, no value exceeds set_size, the
    last stored value, and no earlier one, is set_size, and the values
    have stabilised by degree set_size - 1.
    """

    set_size: int
    values: tuple[int, ...]
    diffs: tuple[int, ...]
    j_max: int

    def __post_init__(self):
        if self.set_size < 1:
            raise ValueError("set_size must be >= 1")
        if len(self.values) != len(self.diffs) or not self.values:
            raise ValueError("values and diffs must be nonempty and of equal length")
        if self.j_max < len(self.values) - 1:
            raise ValueError("j_max is below the stored range")
        running = 0
        for j, (v, dv) in enumerate(zip(self.values, self.diffs)):
            running += dv
            if v != running:
                raise ValueError(f"values and diffs disagree at degree {j}")
            if dv < 0:
                raise ValueError(f"negative difference at degree {j}")
            if v > self.set_size:
                raise ValueError(f"h({j}) = {v} exceeds the set size")
            if j >= self.set_size - 1 and v != self.set_size:
                raise ValueError(f"h({j}) has not stabilised at the set size")
        if self.values[0] != 1:
            raise ValueError("h(0) must equal 1")
        if self.values[-1] != self.set_size or self.set_size in self.values[:-1]:
            raise ValueError("values must end at the first degree with h = set_size")

    @classmethod
    def from_diffs(cls, diffs: tuple[int, ...] | list[int]) -> "HilbertProfile":
        """Profile with the given first differences.

        The set size is the sum of the differences; the range reaches at
        least degree set_size - 1, and trailing zero differences only
        extend it.
        """
        size = sum(diffs)
        values = []
        running = 0
        for dv in diffs:
            running += dv
            values.append(running)
            if running == size:
                break
        if any(diffs[len(values):]):
            raise ValueError("nonzero difference after h reaches the set size")
        return cls(set_size=size, values=tuple(values), diffs=tuple(diffs[:len(values)]),
                   j_max=max(len(diffs), size) - 1)

    @property
    def h_vector(self) -> tuple[int, ...]:
        """The differences through the separation degree; the last is nonzero."""
        return self.diffs

    def value_at(self, d: int) -> int:
        """h(d), extending by 0 below degree 0 and by set_size above s."""
        if d < 0:
            return 0
        if d < len(self.values):
            return self.values[d]
        return self.set_size

    def diff_at(self, d: int) -> int:
        """Dh(d), zero outside the stored range."""
        if 0 <= d < len(self.diffs):
            return self.diffs[d]
        return 0

    @property
    def separation_degree(self) -> int:
        """The least d with h(d) = set_size."""
        return len(self.values) - 1


def hilbert_profile(a: PointSet, j_max: int | None = None) -> HilbertProfile:
    """Hilbert profile of a over degrees 0..max(j_max, len(a) - 1).

    The range always reaches degree len(a) - 1, where the function is
    guaranteed to have stabilised at len(a); callers may request more.
    Ranks are computed, and values stored, only up to the separation
    degree, the first d with h(d) = len(a): h is nondecreasing and bounded
    by len(a), so every later value is len(a).  The walk leaves each
    degree's rank and monomial values on the set, so each next degree's
    rows are one step from the last, and the profile of each range is kept
    there too: the criteria that read it share one object.
    """
    return _profile(a, len(a) - 1 if j_max is None else max(j_max, len(a) - 1))


@memo_on_set
def _profile(a: PointSet, top: int) -> HilbertProfile:
    """``hilbert_profile`` over degrees 0..top."""
    l = len(a)
    values = [hilbert_function(a, 0)]
    while values[-1] < l:
        values.append(hilbert_function(a, len(values)))
    diffs = tuple(v - (values[j - 1] if j else 0) for j, v in enumerate(values))
    return HilbertProfile(set_size=l, values=tuple(values), diffs=diffs, j_max=top)


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

    This checks the inequality verbatim for an arbitrary profile, treating
    differences outside the stored range as zero.  It is only a necessary
    condition, so True never certifies the Cayley-Bacharach property.
    """
    if i < 0:
        raise ValueError(f"degree must be >= 0, got {i}")
    for j in range(i + 2):
        low = sum(profile.diff_at(t) for t in range(j + 1))
        high = sum(profile.diff_at(t) for t in range(i + 1 - j, i + 2))
        if low > high:
            return False
    return True


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
