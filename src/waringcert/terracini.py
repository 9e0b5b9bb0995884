"""Terracini spaces: joined tangent spaces of the Veronese variety.

At a point p of P^n, the tangent space to the degree-d Veronese variety at
nu_d(p) is spanned by the forms L^(d-1) * x_j for j = 0..n, where L is the
linear form with coefficient vector p.  The Terracini space of a point set
is the projective span of all these tangent spaces together; its dimension
controls the local geometry of the secant variety at the decomposition.

For r points the dimension can never exceed (n+1)r - 1, nor the dimension
N = C(n+d, d) - 1 of the space of degree-d forms; from d = 2r - 1 on it
is (n+1)r - 1, with no rank taken (``terracini_dimension`` has the
proof).  Random integer point
sets attain the generic value with overwhelming probability, which gives a
practical randomized oracle for generic Terracini dimensions.

The rank is taken on integer rows.  The coefficient of x^e in L^(d-1)*x_j is
e_j * multinomial(d, e) / d * p^(e - u_j), u_j the j-th unit vector, so
dividing column e by multinomial(d, e) and multiplying the row by d leaves
e_j * p^(e - u_j): the partial derivative of the monomial x^e at p.  Those
are read off the degree-(d-1) monomial values of the primitive integer
representatives; column and row scalings keep the rank.  Modulo a
prime, the rows are scaled once more, into divided powers (Modular frame
below).

In this integer scaling the right kernel has a meaning (Terracini's lemma).  Row
(p, j) pairs a vector c with d/dx_j G at p, where G = sum of c_e x^e, so c
is in the kernel exactly when the form G is singular at every point.  If F
vanishes on the points in degree e and H in degree d - e, the product rule
makes F*H such a form.  These products are the kernel vectors offered to
``integer_rank`` when the rows fall short of full rank modulo its prime;
the forms vanishing in degree e are the integer kernel of the degree-e
monomial values.  At the Alexander-Hirschowitz defective quartics, (2, 4)
at 5 points, (3, 4) at 9 and (4, 4) at 14, the square of the quadric
through the points proves the rank one short of full (Alexander-Hirschowitz,
J. Algebraic Geom. 1995; Brambilla-Ottaviani, J. Pure Appl. Algebra 2008).
Where no product closes the gap, the rank falls back to the exact
elimination of ``integer_kernel``; no rank is taken from the
Alexander-Hirschowitz list.

The rank is taken in a frame.  A change of coordinates does not change it:
for an invertible matrix M, F -> F(Mx) is an invertible linear map of the
degree-d forms, and it sends L_p^(d-1) * x_j to L_q^(d-1) * (x_j o M),
q = M^T p, where the x_j o M again span the linear forms.  So it carries
the tangent space at p onto the tangent space at q, and the Terracini
space of A onto that of M^T A.  ``_frame``, which the Hilbert profile
also reads for points spanning less than P^n, picks a maximal independent
subset B of the points, k = h_A(1) of them, and completes it by any
vectors to a basis of the whole space.  In that basis the points of B are
the coordinate points e_0..e_(k-1), and every point has coordinates zero
from k on: the first k are its coordinates in the basis B of its span,
which is all that ``_frame`` computes.

Cone formula: rank T_A = (Terracini rank of A in P^(k-1))
+ (n + 1 - k) * h_A(d - 1).  At a point whose coordinates vanish from k
on, d/dx_j x^e is nonzero, for j < k, only when e is a monomial in
x_0..x_(k-1), and for j >= k only when e - u_j is one.  So the matrix is
block diagonal: the rows with j < k form the Terracini matrix of A inside
its span, P^(k-1), and for each j >= k the rows with that j are the
degree-(d-1) monomial values of A in x_0..x_(k-1), on the columns x_j
times those monomials.  Monomials that involve x_k..x_n vanish on A, so
those values have rank h_A(d - 1), which is k at d = 2.  For k = n + 1
there is no second term.

Frame identity: in P^(k-1), rank T_A = |C| + rank R.  The row (e_i, j) is
d/dx_j x^e at e_i, which is nonzero only at the column e = (d-1)u_i + u_j,
so the rows of the points of B are multiples of unit vectors and span the
coordinate space of C, the set of columns they hit.  In degree 2 the rows
(e_i, j) and (e_j, i) hit the same column u_i + u_j.  Modulo that span a
row is its restriction to the columns outside C, so the rank is |C| plus
the rank of R, the other points' rows on those columns.

A right-kernel vector of the framed matrix vanishes on C, since the frame
rows are unit rows there.  Its restriction to the other columns is in the
kernel of R, and restriction keeps such vectors independent.  So the
kernel candidates are built from the framed rows and restricted; each is
checked against R exactly all the same.  No linear form vanishes on the
framed rows, which hold the coordinate points, so the products start in
degree e = 2, and d <= 3 offers none.

Modular frame: the same identity holds modulo p = ``linalg._PRIME``, and
needs no exact frame.  Let B be the first n + 1 points, with primitive
rows b_i independent modulo p, and M the matrix of those rows.  Each
other point q is congruent to the sum of c_i * b_i, c its row of
C = R B^-1 modulo p (``hilbert._frame_mod_p``).  Over F_p, G -> G^M,
G^M(y) = G(M^T y), is an invertible linear map of the degree-d forms,
and by the chain rule grad G^M(c) = M grad G(q), with M invertible.  So
the rows of q, the functionals G -> d/dx_j G at q, span the image of
those of c under an invertible map, and the Terracini matrix of A has the
rank modulo p of that of the framed set: e_0..e_n and the rows c.  The
frame rows' entries, e_j at e = (d-1)u_i + u_j, are d for j = i and 1
otherwise: units modulo p when d < p, which ``terracini_dimension``
checks, though every degree it ranks is below 2l - 1.  So the rank modulo
p is |C| plus the rank modulo p of R, the rows of the c on the columns
outside C, and it is a lower bound on the rank over Q, since the
Terracini matrix is an integer matrix and a minor nonzero modulo p is a
nonzero integer.  When it meets the upper bound min((n+1)l, C(n+d, d))
the rank is proved; otherwise the rank of R modulo p is still a lower
bound on the rank over Q of R in the exact frame (``_frame_mod_p``).

The rows of R are taken modulo p in divided powers: column e is scaled by
(e!)^-1, where e! = e_0! * ... * e_n!.  Every exponent is at most d < p,
so no factor e_i! is divisible by p and e! is a unit.  Since
e! = e_j * (e - u_j)!, the entry e_j * c^(e - u_j) of row (c, j) becomes
c^f / f! with f = e - u_j: the row is a copy of the divided powers
c^f / f!, one per degree-(d-1) monomial f, at the columns f + u_j, and 0
at the columns with e_j = 0, with no multiply per entry.  Scaling columns
by units keeps the rank of every leading block of columns, so the pivot
columns modulo p, and every rank read off them, are those of the integer
rows.  ``linalg._gathered_pivots_mod_p`` weights the degree-(d-1)
monomial values of the rows c by the (f!)^-1 of ``_divided_power_index``
in its one reduction pass, copies each row out of the weighted values,
and is asked for target = min((n+1)l, C(n+d, d)) - |C| pivots.
"""

from __future__ import annotations

import random
from functools import lru_cache
from math import comb, factorial, prod
from operator import add
from typing import Iterator, Sequence

from .geometry import (PointSet, Record, memo_on_set, monomial_basis,
                       monomial_rows, random_point_set)
from .hilbert import _frame, _frame_mod_p, hilbert_function
from .linalg import _PRIME, _Index, _gathered_pivots_mod_p, integer_kernel, integer_rank


# The random draws of ``generic_terracini_dimension``.
_TRIALS = 2

# Integer tangent rows: per variable, per column, (f, i) for the entry f * v[i].
_Partials = Sequence[Sequence[tuple[int, int]]]


class TerraciniReport(Record):
    """Dimension bookkeeping for one Terracini space computation.

    All dimensions are projective: ``dim`` is the rank of the coefficient
    matrix minus one.  ``max_possible`` is (n+1)r - 1, the dimension when
    all tangent spaces are in direct sum; ``veronese_dim`` is the ambient
    dimension N; ``expected_dim`` is the smaller of the two.
    """

    num_points: int
    ambient_dim: int
    degree: int
    dim: int

    def __post_init__(self):
        if self.dim > self.expected_dim:
            raise ValueError(f"dim {self.dim} exceeds its upper bound")

    @property
    def max_possible(self) -> int:
        return (self.ambient_dim + 1) * self.num_points - 1

    @property
    def veronese_dim(self) -> int:
        return comb(self.ambient_dim + self.degree, self.degree) - 1

    @property
    def expected_dim(self) -> int:
        return min(self.max_possible, self.veronese_dim)

    @property
    def is_expected(self) -> bool:
        """True when the tangent spaces fill as much as dimensions allow."""
        return self.dim == self.expected_dim

    @property
    def tangents_independent(self) -> bool:
        """True when the tangent spaces are in direct sum."""
        return self.dim == self.max_possible


@lru_cache(maxsize=64)
def _derivative_index(n: int, d: int) -> tuple[tuple[int, ...], _Partials]:
    """The columns of the degree-d basis that the framed tangent rows keep,
    and the table that builds those rows on them.

    The columns hit by the rows of the coordinate points are dropped: row
    (e_i, j) hits only (d-1)u_i + u_j, so the kept columns are the exponent
    vectors e with every e_i < d - 1.  The table gives, for each variable j
    and kept column e, (e_j, index of e - u_j in the degree-(d-1) basis),
    or (0, 0) where e_j = 0.
    """
    basis = monomial_basis(n, d)
    lower = {e: i for i, e in enumerate(monomial_basis(n, d - 1))}
    kept = tuple(c for c, e in enumerate(basis) if max(e) < d - 1)
    table = []
    for j in range(n + 1):
        entries = []
        for e in (basis[c] for c in kept):
            if e[j]:
                entries.append((e[j], lower[e[:j] + (e[j] - 1,) + e[j + 1:]]))
            else:
                entries.append((0, 0))
        table.append(tuple(entries))
    return kept, tuple(table)


@lru_cache(maxsize=64)
def _divided_power_index(n: int, d: int) -> tuple[tuple[int, ...], _Index]:
    """The weights and the table that copy the framed tangent rows, in
    divided powers, out of the degree-(d-1) monomial values modulo p.

    The weight of monomial f of the degree-(d-1) basis is (f!)^-1 modulo
    ``_PRIME``, f! the product of the factorials of its exponents, a unit
    for d < p.  The table gives, for each variable j and kept column e of
    ``_derivative_index``, the index of e - u_j in that basis, or the
    index past its last monomial where e_j = 0.
    """
    lower = monomial_basis(n, d - 1)
    weights = tuple(pow(prod(map(factorial, f)), -1, _PRIME) for f in lower)
    _, index = _derivative_index(n, d)
    return weights, tuple(tuple(i if e else len(lower) for e, i in partials)
                          for partials in index)


def _tangent_rows(values: Sequence[Sequence[int]], index: _Partials) -> list[list[int]]:
    """One integer row per point and variable j, from the degree-(d-1)
    monomial values of each point: d/dx_j of every degree-d monomial of
    ``index`` at the point."""
    return [[f * v[i] for f, i in partials] for v in values for partials in index]


@lru_cache(maxsize=64)
def _product_index(n: int, e: int, f: int) -> tuple[tuple[int, ...], ...]:
    """Entry [i][k]: the index in the degree-(e+f) basis of the product of
    monomial i of the degree-e basis and monomial k of the degree-f basis."""
    index = {m: i for i, m in enumerate(monomial_basis(n, e + f))}
    return tuple(tuple(index[tuple(map(add, x, y))] for y in monomial_basis(n, f))
                 for x in monomial_basis(n, e))


def _multiply(f: list[int], h: list[int], e: int, g: int, n: int) -> list[int]:
    """Coefficient vector of F*H, F of degree e and H of degree g on P^n,
    each given by its coefficients in the monomial basis of its degree."""
    v = [0] * comb(n + e + g, n)
    for x, slots in zip(f, _product_index(n, e, g)):
        if x:
            for y, k in zip(h, slots):
                v[k] += x * y
    return v


def _singular_products(rows: Sequence[Sequence[int]], d: int) -> Iterator[list[int]]:
    """Coefficient vectors of the products F*H, F in I(Z)_e and H in I(Z)_(d-e),
    Z the points with integer coordinate rows ``rows``.

    For e = 2..d//2 in turn, since no linear form vanishes on framed rows;
    I(Z)_e, the degree-e forms vanishing on the points, is the integer
    kernel of ``monomial_rows(rows, e)``.  Each product is singular at every
    point, so it lies in the right kernel of the Terracini matrix of Z
    (module docstring).  Built lazily: a degree e and each product are
    computed only when the consumer asks for more.
    """
    n = len(rows[0]) - 1
    for e in range(2, d // 2 + 1):
        low = integer_kernel(monomial_rows(rows, e))
        if not low:
            continue
        high = low if 2 * e == d else integer_kernel(monomial_rows(rows, d - e))
        for i, f in enumerate(low):
            for h in (high[i:] if 2 * e == d else high):
                yield _multiply(f, h, e, d - e, n)


@memo_on_set
def terracini_dimension(a: PointSet, d: int) -> TerraciniReport:
    """Projective dimension of the span of all tangent spaces along a.

    The rank of the Terracini matrix, one integer row per tangent form
    L^(d-1)*x_j of every point (the coefficient vector up to the scalings
    in the module docstring), minus one.  Requires d >= 2.

    It is first proved in the modular frame (module docstring), when
    ``hilbert._frame_mod_p`` finds the first n + 1 points independent
    modulo p and d < p: the rows of the other points, on the columns
    outside C, are ranked modulo p in divided powers by
    ``linalg._gathered_pivots_mod_p``, and when |C| plus that rank meets
    min((n+1)l, C(n+d, d)) the report returns with no exact frame and no
    integer row.  Otherwise the rank
    is taken in the exact frame of ``_frame``, by the frame identity and
    the cone formula: only the other points' integer rows outside the
    columns the frame rows hit are ranked, with the modular rank, where
    there was one, as ``integer_rank``'s lower bound, so those rows are
    not eliminated again.  ``_singular_products`` of the framed rows offers
    it right-kernel vectors, restricted to those columns.

    From d >= 2l - 1 on, l = len(a), the tangent spaces are in direct sum
    and no rank is taken.  Row (p, j) maps a degree-d form G to
    d/dx_j G at p, so the rows are independent when, for each point p,
    the forms singular at every other point have gradients at p that span
    all n + 1 directions.  G = product over q != p of L_q^2, with L_q
    linear, L_q(q) = 0 != L_q(p), is singular at every q != p and
    G(p) != 0.  G*M with M(p) = 0 has gradient G(p)*grad M at p, and these
    fill p-perp; G*L with L(p) != 0 leaves p-perp, since by Euler its
    gradient pairs with p to (2l - 1)*G(p)*L(p).  Multiplying by a power
    of a form nonzero at p reaches degree d and keeps both properties.
    The bound is sharp: l collinear points fall short at d = 2l - 2.
    """
    if d < 2:
        raise ValueError(f"Terracini dimension needs degree >= 2, got {d}")
    n = a.ambient_dim
    if d >= 2 * len(a) - 1:
        return TerraciniReport(num_points=len(a), ambient_dim=n, degree=d,
                               dim=(n + 1) * len(a) - 1)
    lower = None
    coords = _frame_mod_p(a) if d < _PRIME else None
    if coords is not None:
        kept, _ = _derivative_index(n, d)
        full = min((n + 1) * len(a), comb(n + d, d))
        # The rank that R must reach: |C| + target = full.
        target = full - (comb(n + d, d) - len(kept))
        lower = 0
        if target:
            weights, slots = _divided_power_index(n, d)
            lower = len(_gathered_pivots_mod_p(monomial_rows(coords, d - 1), weights,
                                               slots, len(kept), target))
        if lower == target:
            return TerraciniReport(num_points=len(a), ambient_dim=n, degree=d, dim=full - 1)
    frame, framed = _frame(a)
    k = len(frame)
    others = [q for i, q in enumerate(framed) if i not in frame]
    kept, index = _derivative_index(k - 1, d)
    rank = comb(k - 1 + d, d) - len(kept)
    if others and kept:
        rows = _tangent_rows(monomial_rows(others, d - 1), index)
        rank += integer_rank(rows, kernel=([v[c] for c in kept]
                                           for v in _singular_products(framed, d)),
                             lower=lower)
    if k <= n:
        # h(d-1) is k at d = 2, and when every point is in B (independent
        # points are separated in every degree >= 1).
        h = k if d == 2 or not others else hilbert_function(a, d - 1)
        rank += (n + 1 - k) * h
    return TerraciniReport(num_points=len(a), ambient_dim=n, degree=d, dim=rank - 1)


def generic_terracini_dimension(n: int, d: int, r: int, seed: int = 0) -> TerraciniReport:
    """Terracini dimension at r random points of P^n, maximised over
    ``_TRIALS`` draws.

    Each draw takes r distinct points with integer coordinates uniform in
    [-50, 50] from a generator seeded by ``seed`` and keeps the report
    of largest dimension.  The generic dimension is the maximum over all
    point sets, so random draws can only undershoot; a second draw shrinks
    the (already negligible) chance of a degenerate one.  Deterministic
    for fixed arguments.
    """
    if n < 1:
        raise ValueError(f"ambient dimension must be >= 1, got {n}")
    if r < 1:
        raise ValueError(f"point count must be >= 1, got {r}")
    rng = random.Random(seed)
    best: TerraciniReport | None = None
    for _ in range(_TRIALS):
        sample = random_point_set(n, r, rng, bound=50)
        report = terracini_dimension(sample, d)
        if best is None or report.dim > best.dim:
            best = report
        if best.dim == best.expected_dim:
            break
    return best
