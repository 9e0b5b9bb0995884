"""Projective points, monomials, forms, and the Veronese embedding.

Points live in projective space P^n over the rationals and are stored in a
canonical scaling: the first nonzero coordinate equals 1.  Each point also
has a primitive integer representative, computed on first use, and every
rank in the package is taken on integer rows built from it by
``monomial_values``, which keeps them on the set.  Degree-d monomials in
n+1 variables are enumerated in lexicographic order on exponent vectors,
largest first, so the basis for (n, d) = (1, 2) reads x0^2, x0*x1, x1^2.

The Veronese map uses the power-expansion convention: the coordinate of
nu_d(p) at exponent vector e is the multinomial coefficient d!/prod(e_i!)
times p^e.  With this weighting the coordinates of nu_d(p) are exactly the
coefficients of the expanded d-th power of the linear form with coefficient
vector p.
"""

from __future__ import annotations

import random
from collections import Counter
from dataclasses import dataclass
from fractions import Fraction
from functools import lru_cache, wraps
from itertools import combinations
from math import comb, factorial, gcd, lcm
from typing import Callable, Iterable, Iterator, Mapping, Sequence

from .linalg import Matrix


class DuplicatePointError(ValueError):
    """Raised when a point set contains the same projective point twice."""

    def __init__(self, first: int, second: int):
        self.first = first
        self.second = second
        super().__init__(
            f"points {first} and {second} coincide after canonical scaling"
        )


class ProjectivePoint:
    """A point of P^n, stored with first nonzero coordinate scaled to 1."""

    __slots__ = ("coords", "_primitive", "_hash")

    coords: tuple[Fraction, ...]

    def __init__(self, coords: Iterable[object]):
        raw = tuple(Fraction(x) for x in coords)
        if len(raw) < 2:
            raise ValueError("a projective point needs at least 2 coordinates")
        lead = next((x for x in raw if x != 0), None)
        if lead is None:
            raise ValueError("the zero vector is not a projective point")
        coords = tuple(x / lead for x in raw)
        object.__setattr__(self, "coords", coords)
        # Hashing a Fraction takes a modular inverse, so the hash of the
        # coordinates is taken once, here, for the sets and dicts to come.
        object.__setattr__(self, "_hash", hash(coords))

    def __setattr__(self, name: str, value: object) -> None:
        raise AttributeError("ProjectivePoint is immutable")

    def __reduce__(self):
        # Rebuild from the coordinates: the slot restore would go through
        # the blocking __setattr__; the primitive cache starts empty and the
        # hash is taken afresh.
        return (ProjectivePoint, (self.coords,))

    @property
    def ambient_dim(self) -> int:
        return len(self.coords) - 1

    @property
    def primitive_coords(self) -> tuple[int, ...]:
        """The primitive integer representative, with positive leading entry.

        The canonical coordinates times the lcm of their denominators; the
        entries then have gcd 1, because for each prime the coordinate of
        largest denominator valuation keeps a unit there.  Computed on
        first use and cached.
        """
        try:
            return self._primitive
        except AttributeError:
            scale = lcm(*(c.denominator for c in self.coords))
            value = tuple(c.numerator * (scale // c.denominator) for c in self.coords)
            object.__setattr__(self, "_primitive", value)
            return value

    def __eq__(self, other: object) -> bool:
        if not isinstance(other, ProjectivePoint):
            return NotImplemented
        return self.coords == other.coords

    def __hash__(self) -> int:
        return self._hash

    def __repr__(self) -> str:
        return "(" + " : ".join(str(c) for c in self.coords) + ")"


class PointSet:
    """An ordered, duplicate-free tuple of points of a common P^n.

    Invariants of the set computed with ``memo_on_set``, and the rows of
    ``monomial_values``, are kept in its ``_memo`` dict, so they live
    exactly as long as the set does.
    """

    __slots__ = ("points", "_memo")

    points: tuple[ProjectivePoint, ...]

    def __init__(self, points: Iterable[ProjectivePoint]):
        pts = tuple(points)
        if not pts:
            raise ValueError("a point set must contain at least one point")
        n = pts[0].ambient_dim
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

    def without(self, index: int) -> "PointSet":
        """The set with the point at ``index`` removed; needs len >= 2."""
        if not 0 <= index < len(self.points):
            raise IndexError(f"point index {index} out of range")
        if len(self.points) == 1:
            raise ValueError("cannot remove the only point of a set")
        return PointSet(self.points[:index] + self.points[index + 1:])

    def subset(self, indices: Sequence[int]) -> "PointSet":
        return PointSet(self.points[i] for i in indices)


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


@dataclass(frozen=True, order=True)
class Monomial:
    """A monomial in n+1 variables, as its exponent vector.

    The dataclass ordering is lexicographic on exponent vectors; bases are
    listed largest first, so x0 sorts above x1 and x0^d opens every basis.
    """

    exponents: tuple[int, ...]

    def __post_init__(self):
        if not self.exponents or any(e < 0 for e in self.exponents):
            raise ValueError(f"bad exponent vector {self.exponents}")

    @property
    def degree(self) -> int:
        return sum(self.exponents)

    @property
    def num_variables(self) -> int:
        return len(self.exponents)

    def evaluate(self, coords: Sequence[Fraction]) -> Fraction:
        if len(coords) != len(self.exponents):
            raise ValueError("coordinate count does not match variable count")
        value = Fraction(1)
        for c, e in zip(coords, self.exponents):
            if e:
                value *= c ** e
        return value

    def __str__(self) -> str:
        parts = []
        for i, e in enumerate(self.exponents):
            if e == 1:
                parts.append(f"x{i}")
            elif e > 1:
                parts.append(f"x{i}^{e}")
        return "*".join(parts) if parts else "1"


@lru_cache(maxsize=None)
def monomial_basis(n: int, d: int) -> tuple[Monomial, ...]:
    """All degree-d monomials in n+1 variables, lexicographically descending."""
    if n < 0 or d < 0:
        raise ValueError(f"bad basis parameters n={n}, d={d}")
    exps: list[tuple[int, ...]] = []

    def build(prefix: list[int], remaining: int, position: int) -> None:
        if position == n:
            exps.append(tuple(prefix + [remaining]))
            return
        for e in range(remaining, -1, -1):
            build(prefix + [e], remaining - e, position + 1)

    build([], d, 0)
    return tuple(Monomial(e) for e in exps)


@lru_cache(maxsize=None)
def _suffix_starts(n: int, d: int) -> tuple[int, ...]:
    """For i = 0..n, the index in the degree-(d-1) basis at which the
    monomials in x_i..x_n alone begin; they run to the end of the basis."""
    size = comb(n + d - 1, n)
    return tuple(size - comb(n - i + d - 1, n - i) for i in range(n + 1))


def monomial_values(a: PointSet, d: int) -> tuple[tuple[int, ...], ...]:
    """The degree-d monomials at the primitive representatives of the points.

    Row i lists p^e for every exponent vector e of the lexicographic basis
    ``monomial_basis(n, d)``, p the primitive integer representative of point
    i.  The rows are kept on the set as tuples, so the Hilbert function, the
    Kruskal sweeps and the Terracini rows share one immutable table.

    The lexicographic basis of degree d is x_0 times the whole basis of
    degree d - 1, then x_1 times its monomials in x_1..x_n, and so on: each
    x_i times the suffix of the degree-(d-1) basis free of x_0..x_(i-1).  So
    a degree-d row is one product per entry of the degree-(d-1) row.  When
    degree d - 1 is kept on the set (the Hilbert walk leaves it there) that
    is one step; otherwise the step is iterated up from degree 0, keeping
    only degree d.

    These rows have the rank and the Kruskal rank of the evaluation matrix
    and of the Veronese coordinates of the set: they differ from either by a
    nonzero scaling of each row and of each column.
    """
    if d < 0:
        raise ValueError(f"monomial degree must be >= 0, got {d}")
    memo = a._memo
    rows = memo.get(("monomial_values", d))
    if rows is None:
        rows = memo.get(("monomial_values", d - 1))
        first = d
        if rows is None:
            rows, first = ((1,),) * len(a), 1
        coords = [p.primitive_coords for p in a]
        n = a.ambient_dim
        for k in range(first, d + 1):
            starts = _suffix_starts(n, k)
            rows = tuple(tuple([x * v for x, s in zip(p, starts) for v in row[s:]])
                         for p, row in zip(coords, rows))
        memo[("monomial_values", d)] = rows
    return rows


def multinomial(d: int, exponents: Sequence[int]) -> int:
    """d! / prod(e_i!) for an exponent vector summing to d."""
    if sum(exponents) != d:
        raise ValueError(f"exponents {exponents} do not sum to {d}")
    value = factorial(d)
    for e in exponents:
        value //= factorial(e)
    return value


class Form:
    """A homogeneous form of fixed degree in n+1 variables.

    Stored as a mapping from Monomial to nonzero Fraction coefficient.  The
    zero form is allowed and keeps its nominal degree and variable count.
    """

    __slots__ = ("num_variables", "degree", "terms")

    def __init__(self, num_variables: int, degree: int,
                 terms: Mapping[Monomial, object]):
        if num_variables < 1 or degree < 0:
            raise ValueError(f"bad form shape ({num_variables} vars, degree {degree})")
        clean: dict[Monomial, Fraction] = {}
        for mon, coeff in terms.items():
            c = Fraction(coeff)
            if mon.num_variables != num_variables:
                raise ValueError(f"monomial {mon} has the wrong variable count")
            if mon.degree != degree:
                raise ValueError(f"monomial {mon} has degree {mon.degree}, expected {degree}")
            if c != 0:
                clean[mon] = c
        object.__setattr__(self, "num_variables", num_variables)
        object.__setattr__(self, "degree", degree)
        object.__setattr__(self, "terms", clean)

    def __setattr__(self, name: str, value: object) -> None:
        raise AttributeError("Form is immutable")

    @classmethod
    def from_exponents(cls, num_variables: int, degree: int,
                       coeffs: Mapping[tuple[int, ...], object]) -> "Form":
        return cls(num_variables, degree,
                   {Monomial(e): c for e, c in coeffs.items()})

    @classmethod
    def linear_power(cls, coords: Sequence[object], k: int) -> "Form":
        """(c_0 x_0 + ... + c_n x_n)^k, expanded by the multinomial theorem."""
        cs = [Fraction(x) for x in coords]
        n = len(cs) - 1
        coeffs = {}
        for mon in monomial_basis(n, k):
            value = Fraction(multinomial(k, mon.exponents))
            for c, e in zip(cs, mon.exponents):
                if e:
                    value *= c ** e
            coeffs[mon] = value
        return cls(n + 1, k, coeffs)

    def is_zero(self) -> bool:
        return not self.terms

    def times_variable(self, j: int) -> "Form":
        """The product of this form with the variable x_j."""
        if not 0 <= j < self.num_variables:
            raise ValueError(f"variable index {j} out of range")
        shifted = {}
        for mon, coeff in self.terms.items():
            e = list(mon.exponents)
            e[j] += 1
            shifted[Monomial(tuple(e))] = coeff
        return Form(self.num_variables, self.degree + 1, shifted)

    def coefficient_vector(self) -> tuple[Fraction, ...]:
        """Coefficients in the lexicographic monomial basis of this degree."""
        basis = monomial_basis(self.num_variables - 1, self.degree)
        zero = Fraction(0)
        return tuple(self.terms.get(mon, zero) for mon in basis)

    def __eq__(self, other: object) -> bool:
        if not isinstance(other, Form):
            return NotImplemented
        return (self.num_variables == other.num_variables
                and self.degree == other.degree and self.terms == other.terms)

    def __repr__(self) -> str:
        if not self.terms:
            return "Form(0)"
        body = " + ".join(f"{c}*{m}" for m, c in sorted(
            self.terms.items(), key=lambda kv: kv[0], reverse=True))
        return f"Form({body})"


def evaluate_form(f: Form, p: ProjectivePoint) -> Fraction:
    """Evaluate at the canonical coordinates of p.

    The value depends on the chosen scaling of p; only vanishing versus
    nonvanishing is projectively meaningful, which is all callers use.
    """
    if f.num_variables != p.ambient_dim + 1:
        raise ValueError("form and point have different variable counts")
    return sum((c * m.evaluate(p.coords) for m, c in f.terms.items()), Fraction(0))


def veronese_embed(p: ProjectivePoint, d: int) -> ProjectivePoint:
    """Image of p under the degree-d Veronese embedding of P^n.

    Coordinates are multinomial(d, e) * p^e over the lexicographic basis,
    i.e. the coefficients of the d-th power of the linear form with
    coefficient vector p.
    """
    if d < 1:
        raise ValueError(f"Veronese degree must be >= 1, got {d}")
    return ProjectivePoint(Form.linear_power(p.coords, d).coefficient_vector())


def veronese_embed_set(a: PointSet, d: int) -> PointSet:
    """Pointwise Veronese image; injectivity keeps the set duplicate-free."""
    return PointSet(veronese_embed(p, d) for p in a)


def coordinate_matrix(a: PointSet) -> Matrix:
    """The len(a) x (n+1) matrix of canonical coordinate rows."""
    return Matrix(p.coords for p in a)


@memo_on_set
def max_collinear_subset_size(a: PointSet) -> int:
    """Size of the largest subset of a lying on one projective line.

    For each point i, the later points j are grouped by the line through i
    and j, named by its primitive Pluecker vector: the 2x2 minors of the
    two primitive coordinate rows, divided by their gcd, with positive
    leading entry.  A largest aligned subset is found from its first point,
    so the answer is 1 plus the largest group; O(l^2) lines, no rank.
    Returns 1 for a singleton and 2 when no three points are aligned.
    ``kruskal.kruskal_and_collinear`` reads the same number off the
    Kruskal rank where it can, and runs this search otherwise.
    """
    rows = [p.primitive_coords for p in a]
    pairs = list(combinations(range(len(rows[0])), 2))
    best = 0
    for i, p in enumerate(rows[:-1]):
        lines: Counter[tuple[int, ...]] = Counter()
        for q in rows[i + 1:]:
            minors = [p[u] * q[v] - p[v] * q[u] for u, v in pairs]
            g = gcd(*minors)
            if next(x for x in minors if x) < 0:
                g = -g
            lines[tuple(x // g for x in minors)] += 1
        best = max(best, *lines.values())
    return 1 + best


def random_point_set(n: int, size: int, rng: random.Random,
                     bound: int = 50) -> PointSet:
    """A random set of ``size`` distinct points of P^n.

    Coordinates are drawn uniformly from the integers in [-bound, bound];
    zero vectors and points already drawn (after canonical scaling) are
    rejected and redrawn.  Determinism is the caller's responsibility via
    the supplied rng.
    """
    if n < 1 or size < 1:
        raise ValueError(f"bad sampling parameters n={n}, size={size}")
    if bound < 1:
        raise ValueError(f"coordinate bound must be >= 1, got {bound}")
    chosen: list[ProjectivePoint] = []
    seen: set[ProjectivePoint] = set()
    while len(chosen) < size:
        raw = [rng.randint(-bound, bound) for _ in range(n + 1)]
        if all(x == 0 for x in raw):
            continue
        p = ProjectivePoint(raw)
        if p in seen:
            continue
        seen.add(p)
        chosen.append(p)
    return PointSet(chosen)
