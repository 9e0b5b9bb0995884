"""Projective points, point sets, and the monomial values on them.

Points live in projective space P^n over the rationals.  A point is stored
as its primitive integer representative: coprime integer coordinates whose
first nonzero entry is positive.  Every rank in the package is taken on
integer rows built from it by ``monomial_values``, which keeps them on the
set.  The canonical rational coordinates, scaled so that the first nonzero
one is 1, are derived from it on request.  No ``Fraction`` is built
outside ``ProjectivePoint.coords``: ``repr`` and the CLI's digest write
each coordinate from the integers (``_canonical_texts``), so this module
loads without ``fractions`` and ``decimal``.  Degree-d monomials
in n+1 variables are enumerated in lexicographic order on exponent vectors,
largest first, so the basis for (n, d) = (1, 2) reads x0^2, x0*x1, x1^2.

The monomial values of a point differ from its image under the degree-d
Veronese map only by a scaling of each column (the multinomial weight
d!/prod(e_i!) of the exponent vector e) and by the scaling of the point,
so the rows of a set have the rank and the Kruskal rank of its Veronese
image.

``Record`` is the immutable base class of every layer's report classes.
"""

from __future__ import annotations

from collections.abc import Mapping, Set
from functools import lru_cache, wraps
from math import comb, gcd, lcm
from numbers import Rational
from typing import TYPE_CHECKING, Callable, Iterable, Iterator, Sequence

if TYPE_CHECKING:
    import random
    from fractions import Fraction


class DuplicatePointError(ValueError):
    """Raised when a point set contains the same projective point twice."""

    def __init__(self, first: int, second: int):
        self.first = first
        self.second = second
        super().__init__(
            f"points {first} and {second} coincide after canonical scaling"
        )


class Record:
    """An immutable record: its fields are its class annotations, in order.

    Set once, by position or keyword, then checked by ``__post_init__``.
    Equal by type and fields; hashed and printed in field order.
    """

    def __init_subclass__(cls):
        cls._fields = tuple(cls.__annotations__)

    def __init__(self, *args, **kwargs):
        fields = self._fields
        try:
            values = args + tuple(map(kwargs.pop, fields[len(args):]))
        except KeyError as missing:
            raise TypeError(f"{type(self).__name__} missing field {missing}") from None
        if kwargs or len(values) > len(fields):
            raise TypeError(f"{type(self).__name__} takes exactly the fields {fields}")
        self.__dict__.update(zip(fields, values))
        self.__post_init__()

    def __post_init__(self):
        pass

    def __setattr__(self, name: str, value: object = None) -> None:
        raise AttributeError(f"{type(self).__name__} is immutable")

    __delattr__ = __setattr__

    def __eq__(self, other: object) -> bool:
        same = type(other) is type(self)
        return self.__dict__ == other.__dict__ if same else NotImplemented

    def __hash__(self) -> int:
        return hash(tuple(self.__dict__.values()))

    def __repr__(self) -> str:
        fields = ", ".join(f"{k}={v!r}" for k, v in self.__dict__.items())
        return f"{type(self).__qualname__}({fields})"


def _exact_pair(x: object) -> tuple[int, int]:
    """The (numerator, denominator) of one exact coordinate, the denominator
    positive: a Rational through its two attributes, a string in the
    point-file syntax through ``int``."""
    if not isinstance(x, str):
        if isinstance(x, Rational):
            return x.numerator, x.denominator
        raise TypeError(f"coordinate {x!r} is not exact: give an int, a Fraction "
                        "or a decimal integer or p/q string")
    num, slash, den = x.partition("/")
    digits = num[1:] if num[:1] in ("+", "-") else num
    if not (x.isascii() and digits.isdigit() and (den.isdigit() or not slash)):
        raise ValueError(f"{x!r} is not a decimal integer or p/q rational")
    if slash and not int(den):
        raise ValueError(f"{x!r} has denominator zero")
    return int(num), int(den) if slash else 1


class ProjectivePoint:
    """A point of P^n, stored as its primitive integer representative.

    Each coordinate is exact: a ``numbers.Rational`` (an int, a bool, a
    Fraction) or a string in the point-file syntax, an ASCII decimal
    integer or ``p/q``.  Floats, Decimals and every other value raise
    TypeError.  Denominators are cleared, the gcd is divided out and the
    first nonzero entry is made positive.  A row whose entries are all
    exactly ``int`` takes one gcd and a sign, with no denominator or lcm
    work; any other row is read entry by entry as an integer pair by
    ``_exact_pair``, and no row builds a Fraction.  Both paths end in
    ``_take_ints``, which ``random_point_set`` calls on its draws directly.
    A row given as one string or bytes object raises TypeError, as it
    would otherwise be read one character or byte at a time, and so does
    a set or a mapping, which would be read in its iteration order.
    """

    __slots__ = ("primitive_coords",)

    primitive_coords: tuple[int, ...]

    def __init__(self, coords: Iterable[object]):
        if isinstance(coords, (str, bytes, bytearray, Set, Mapping)):
            raise TypeError(f"a row is a sequence of coordinates, not one "
                            f"{type(coords).__name__}")
        ints = tuple(coords)
        if {*map(type, ints)} != {int}:
            pairs = [_exact_pair(x) for x in ints]
            scale = lcm(*(q for _, q in pairs))
            ints = tuple([p * (scale // q) for p, q in pairs])
        if len(ints) < 2:
            raise ValueError("a projective point needs at least 2 coordinates")
        self._take_ints(ints)

    def _take_ints(self, ints: tuple[int, ...]) -> ProjectivePoint:
        """Store the primitive vector of a tuple of at least 2 exact ints,
        with one gcd and a sign, and return the point."""
        lead = next(filter(None, ints), 0)
        if not lead:
            raise ValueError("the zero vector is not a projective point")
        g = gcd(*ints) if lead > 0 else -gcd(*ints)
        object.__setattr__(self, "primitive_coords",
                           ints if g == 1 else tuple([x // g for x in ints]))
        return self

    def __setattr__(self, name: str, value: object) -> None:
        raise AttributeError("ProjectivePoint is immutable")

    def __reduce__(self):
        # The slot restore would go through the blocking __setattr__.
        return (ProjectivePoint, (self.primitive_coords,))

    @property
    def ambient_dim(self) -> int:
        return len(self.primitive_coords) - 1

    @property
    def coords(self) -> tuple[Fraction, ...]:
        """The canonical rational coordinates: the first nonzero one is 1."""
        from fractions import Fraction
        lead = next(x for x in self.primitive_coords if x)
        return tuple(Fraction(x, lead) for x in self.primitive_coords)

    def __eq__(self, other: object) -> bool:
        if not isinstance(other, ProjectivePoint):
            return NotImplemented
        return self.primitive_coords == other.primitive_coords

    def __hash__(self) -> int:
        return hash(self.primitive_coords)

    def __repr__(self) -> str:
        return "(" + " : ".join(_canonical_texts(self.primitive_coords)) + ")"


def _canonical_texts(primitive: Sequence[int]) -> list[str]:
    """``str`` of each canonical coordinate ``Fraction(x, lead)``, written
    from the integers: lead, the first nonzero entry, is positive, so with
    g = gcd(x, lead) the reduced fraction is (x // g) / (lead // g), printed
    without its denominator when that is 1."""
    lead = next(x for x in primitive if x)
    texts = []
    for x in primitive:
        g = gcd(x, lead)
        texts.append(str(x // g) if g == lead else f"{x // g}/{lead // g}")
    return texts


class PointSet:
    """An ordered, duplicate-free tuple of points of a common P^n.

    Invariants of the set computed with ``memo_on_set``, the rows of
    ``monomial_values`` among them, are kept in its ``_memo`` dict, so they
    live exactly as long as the set does.
    """

    __slots__ = ("points", "_memo")

    points: tuple[ProjectivePoint, ...]

    def __init__(self, points: Iterable[ProjectivePoint]):
        pts = tuple(points)
        if not pts:
            raise ValueError("a point set must contain at least one point")
        # A first item that is not a point is reported by the loop.
        n = pts[0].ambient_dim if isinstance(pts[0], ProjectivePoint) else None
        for i, p in enumerate(pts):
            if not isinstance(p, ProjectivePoint):
                raise TypeError(f"item {i} is not a ProjectivePoint")
            if p.ambient_dim != n:
                raise ValueError(
                    f"point {i} lives in P^{p.ambient_dim}, expected P^{n}"
                )
        seen: dict[ProjectivePoint, int] = {}
        for i, p in enumerate(pts):
            if p in seen:
                raise DuplicatePointError(seen[p], i)
            seen[p] = i
        object.__setattr__(self, "points", pts)
        object.__setattr__(self, "_memo", {})

    def __setattr__(self, name: str, value: object) -> None:
        raise AttributeError("PointSet is immutable")

    def __reduce__(self):
        # Rebuild from the points, so a copy or an unpickled set starts
        # with an empty memo.
        return (PointSet, (self.points,))

    @classmethod
    def from_rows(cls, rows: Iterable[Iterable[object]]) -> "PointSet":
        return cls(ProjectivePoint(row) for row in rows)

    @classmethod
    def _of_distinct(cls, points: tuple[ProjectivePoint, ...]) -> "PointSet":
        """The set of a nonempty tuple of distinct points of one P^n, which
        the caller has made so; none of ``__init__``'s checks is run."""
        a = object.__new__(cls)
        object.__setattr__(a, "points", points)
        object.__setattr__(a, "_memo", {})
        return a

    @property
    def ambient_dim(self) -> int:
        return self.points[0].ambient_dim

    def __len__(self) -> int:
        return len(self.points)

    def __iter__(self) -> Iterator[ProjectivePoint]:
        return iter(self.points)

    def __getitem__(self, index: int) -> ProjectivePoint:
        return self.points[index]

    def __contains__(self, p: object) -> bool:
        return p in self.points

    def __eq__(self, other: object) -> bool:
        if not isinstance(other, PointSet):
            return NotImplemented
        return self.points == other.points

    def __hash__(self) -> int:
        return hash(self.points)

    def __repr__(self) -> str:
        return f"PointSet({list(self.points)!r})"


def memo_on_set(fn: Callable) -> Callable:
    """Cache ``fn(a, *args)`` in ``a._memo``, keyed on fn and the args.

    Each invariant is computed once per set and freed with it; nothing
    module-level holds a point set alive.  Raised errors are not cached.
    """
    @wraps(fn)
    def cached(a: PointSet, *args):
        key = (fn, *args)
        try:
            return a._memo[key]
        except KeyError:
            value = a._memo[key] = fn(a, *args)
            return value
    return cached


def union(a: PointSet, b: PointSet) -> PointSet:
    """Union preserving order: a's points, then b's points not already in a."""
    if a.ambient_dim != b.ambient_dim:
        raise ValueError(
            f"sets live in different spaces (P^{a.ambient_dim} vs P^{b.ambient_dim})"
        )
    seen = set(a.points)
    merged = list(a.points) + [p for p in b.points if p not in seen]
    return PointSet(merged)


@lru_cache(maxsize=64)
def monomial_basis(n: int, d: int) -> tuple[tuple[int, ...], ...]:
    """The exponent vectors of the degree-d monomials in n+1 variables,
    lexicographically descending: vector j of degree k - 1 with coordinate
    i raised by one, for each pair (i, j) of ``_product_table(n, k)``."""
    if n < 0 or d < 0:
        raise ValueError(f"bad basis parameters n={n}, d={d}")
    basis = [(0,) * (n + 1)]
    for k in range(1, d + 1):
        basis = [basis[j][:i] + (basis[j][i] + 1,) + basis[j][i + 1:]
                 for i, j in _product_table(n, k)]
    return tuple(basis)


@lru_cache(maxsize=64)
def _product_table(n: int, k: int) -> tuple[tuple[int, int], ...]:
    """For ``monomial_basis`` and ``monomial_rows``: one pair (i, j) per
    monomial of the degree-k lexicographic basis in n+1 variables, in
    basis order, such that the monomial is x_i times monomial j of the
    degree-(k-1) basis.

    The degree-k basis is x_0 times the whole degree-(k-1) basis, then x_1
    times its monomials in x_1..x_n, and so on: x_i runs over the suffix
    of the degree-(k-1) basis free of x_0..x_(i-1), which holds its last
    C(n-i+k-1, n-i) monomials.
    """
    size = comb(n + k - 1, n)
    return tuple((i, j) for i in range(n + 1)
                 for j in range(size - comb(n - i + k - 1, n - i), size))


def monomial_rows(coords: Sequence[Sequence[int]], d: int) -> tuple[tuple[int, ...], ...]:
    """The degree-d monomials of the lexicographic basis at integer rows.

    Row i lists c^e for every exponent vector e of ``monomial_basis(n, d)``,
    c the i-th coordinate row.  Each degree-k monomial is one coordinate
    times one degree-(k-1) monomial, as ``_product_table(n, k)`` lists
    them, so a degree-k row is one product per pair of the table, and the
    step is iterated up from degree 0.
    """
    if d < 0:
        raise ValueError(f"monomial degree must be >= 0, got {d}")
    rows = [(1,)] * len(coords)
    n = len(coords[0]) - 1
    for k in range(1, d + 1):
        table = _product_table(n, k)
        rows = [tuple([c[i] * row[j] for i, j in table]) for c, row in zip(coords, rows)]
    return tuple(rows)


@memo_on_set
def monomial_values(a: PointSet, d: int) -> tuple[tuple[int, ...], ...]:
    """The degree-d monomials at the primitive representatives of the points.

    ``monomial_rows`` of the primitive integer representatives, kept on the
    set as tuples, so the Hilbert function, the Kruskal sweeps and the
    Terracini rows share one immutable table.

    These rows have the rank and the Kruskal rank of the evaluation matrix
    and of the Veronese coordinates of the set: they differ from either by a
    nonzero scaling of each row and of each column.
    """
    return monomial_rows([p.primitive_coords for p in a], d)


@memo_on_set
def max_collinear_subset_size(a: PointSet) -> int:
    """Size of the largest subset of a lying on one projective line.

    For each point p, the later points q are grouped by the line through
    p and q, named by a projection.  With z the first coordinate where
    p_z != 0, put w = p_z*q - q_z*p; it is nonzero, as q is not p, and
    w_z = 0.  The line is the span of p and w.  If w' = s*p + t*w for a
    later q', then coordinate z gives s*p_z = 0, so s = 0: two lines
    through p coincide exactly when their w are proportional.  So each
    line is keyed by w over the other n coordinates, divided by its gcd,
    with positive leading entry: n entries per pair, where the Pluecker
    vector has C(n+1, 2), in one path for every n.  A largest aligned
    subset is found from its first point, so the answer is 1 plus the
    largest group; O(l^2) lines, no rank.  The search stops at the first
    point whose later points are no more than the largest group yet.
    Returns 1 for a singleton and 2 when no three points are aligned.
    In the plane ``kruskal.veronese_kruskal_rank`` reads k_1 off this
    number; elsewhere ``kruskal.kruskal_and_collinear`` reads it off k_1
    when k_1 >= 3, and runs this search otherwise.
    """
    rows = [p.primitive_coords for p in a]
    # z -> (q_z, q without coordinate z) for every row q, built on first use.
    cuts: dict[int, list[tuple[int, tuple[int, ...]]]] = {}
    best = 0
    for i, p in enumerate(rows):
        if len(rows) - 1 - i <= best:
            break
        z = 0
        while not p[z]:
            z += 1
        cut = cuts.get(z)
        if cut is None:
            cut = cuts[z] = [(q[z], q[:z] + q[z + 1:]) for q in rows]
        pz, rest = cut[i]
        lines: dict[tuple[int, ...], int] = {}
        for qz, q in cut[i + 1:]:
            w = [pz * y - qz * x for x, y in zip(rest, q)]
            for x in w:
                if x:
                    break
            g = gcd(*w) if x > 0 else -gcd(*w)
            key = tuple([x // g for x in w])
            lines[key] = lines.get(key, 0) + 1
        best = max(best, *lines.values())
    return 1 + best


def _box_point_count(n: int, bound: int) -> int:
    """The number of points of P^n with coordinates in [-bound, bound].

    Each such point is the pair of primitive vectors +-v of the box.  The
    nonzero vectors of the box whose gcd is divisible by k are k times the
    nonzero vectors of the box of bound // k, so Moebius inversion over k
    counts the primitive ones.
    """
    mu = [0, 1] + [0] * (bound - 1)
    for k in range(1, bound + 1):
        for m in range(2 * k, bound + 1, k):
            mu[m] -= mu[k]
    return sum(mu[k] * ((2 * (bound // k) + 1) ** (n + 1) - 1)
               for k in range(1, bound + 1)) // 2


def random_point_set(n: int, size: int, rng: random.Random,
                     bound: int = 50) -> PointSet:
    """A random set of ``size`` distinct points of P^n.

    Coordinates are drawn uniformly from the integers in [-bound, bound]:
    each is x - bound for the first draw x of ``rng.getrandbits(k)``,
    k = (2 bound + 1).bit_length(), below 2 bound + 1.  That is the
    rejection loop of ``_randbelow(2 bound + 1)``, the one call that
    ``rng.randint(-bound, bound)`` makes, so the points and the state left
    in ``rng`` are those of ``randint`` draws.  Zero vectors and points
    already drawn (after canonical scaling) are rejected and redrawn.  The
    draws are exact ints, so each point takes ``ProjectivePoint._take_ints``
    alone, and the kept points are distinct points of P^n, so the set skips
    ``PointSet.__init__``'s checks.  Raises ValueError when
    the box holds fewer than ``size`` distinct points; the points
    (1 : x_1 : ... : x_n) alone number (2 bound + 1)^n, so only a larger
    ``size`` takes the exact count.
    Determinism is the caller's responsibility via the supplied rng.
    """
    if n < 1 or size < 1:
        raise ValueError(f"bad sampling parameters n={n}, size={size}")
    if bound < 1:
        raise ValueError(f"coordinate bound must be >= 1, got {bound}")
    if size > (2 * bound + 1) ** n:
        count = _box_point_count(n, bound)
        if size > count:
            raise ValueError(f"P^{n} has only {count} points with coordinates "
                             f"in [-{bound}, {bound}], fewer than {size}")
    # The distinct points drawn so far, in the order drawn.
    chosen: dict[ProjectivePoint, None] = {}
    draw, span = rng.getrandbits, 2 * bound + 1
    bits = span.bit_length()
    new = object.__new__
    while len(chosen) < size:
        raw = []
        for _ in range(n + 1):
            x = draw(bits)
            while x >= span:
                x = draw(bits)
            raw.append(x - bound)
        if any(raw):
            chosen.setdefault(new(ProjectivePoint)._take_ints(tuple(raw)))
    return PointSet._of_distinct(tuple(chosen))
