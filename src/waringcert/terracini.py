"""Terracini spaces: joined tangent spaces of the Veronese variety.

At a point p of P^n, the tangent space to the degree-d Veronese variety at
nu_d(p) is spanned by the forms L^(d-1) * x_j for j = 0..n, where L is the
linear form with coefficient vector p.  The Terracini space of a point set
is the projective span of all these tangent spaces together; its dimension
controls the local geometry of the secant variety at the decomposition.

For r points the dimension can never exceed (n+1)r - 1, nor the dimension
N = C(n+d, d) - 1 of the space of degree-d forms; from d = 2r - 1 on it
is (n+1)r - 1, with no rank taken (``terracini_dimension`` has the
proof).  Random integer point sets attain the generic value with
overwhelming probability, which gives a practical randomized oracle for
generic Terracini dimensions; ``generic_terracini_dimension`` draws them
in their own frame (below).

The rank is taken on integer rows, the tangent forms' own coefficients.
With u_j the j-th unit vector, the coefficient of x^e in L^(d-1)*x_j is 0
when e_j = 0, and otherwise that of x^f in L^(d-1), f = e - u_j: the
multinomial (d-1)!/f! times p^f.  So row (p, j) is a copy of the weighted
values (d-1)!/f! * p^f, one per degree-(d-1) monomial f, at the columns
f + u_j, and 0 at the columns with e_j = 0.  ``_tangent_index`` holds the
weights and the copy table; the values are the degree-(d-1) monomial
values of the primitive integer representatives.

The right kernel has a meaning (Terracini's lemma) under the apolarity
pairing <F, G> = sum of e! F_e G_e (Iarrobino-Kanev, Power Sums,
Gorenstein Algebras, and Determinantal Loci, LNM 1721, 1999): the pairing
of L_p^(d-1)*x_j with G is (d-1)! * d/dx_j G at p.  So a vector v is in
the kernel exactly when the form G = sum of v_e x^e / e! is singular at
every point.  If F vanishes on the points in degree e and H in degree
d - e, the product rule makes F*H such a form, and a product with
coefficients g is the kernel vector v_e = e! g_e.  These are the kernel
vectors that ``_certified_rank`` checks when the rows fall short modulo p
of the upper bound ``_rank_bound``; the forms vanishing in degree e are
the integer kernel of the degree-e monomial values.  Some products exist
for every set of l points: l < N_t points lie on a form F of degree t,
and F*G is one for every G in I(A)_(d-t), so ``_rank_bound`` counts them
from (n, d, l) alone.  In degree 2 it counts the products of two linear
forms vanishing on the points, which makes it the rank of any l <= n + 1
independent points.  At the Alexander-Hirschowitz defective quartics,
(2, 4) at 5 points, (3, 4) at 9 and (4, 4) at 14, that count is the
square of the quadric through the points, and the bound is one short of
full (Alexander-Hirschowitz, J. Algebraic Geom. 1995; Brambilla-Ottaviani,
J. Pure Appl. Algebra 2008), so a rank modulo p that meets it proves the
rank with no kernel vector.  By their theorem, then, the count is the
generic Terracini rank at every (n, d, l) but one, seven points of P^4
in degree 3, where the kernel vector is the secant cubic of the rational
normal quartic through the points; ``certify.GenericInfo.generic_rank``
reads the generic rank from the count and cites only that case.  Where
the count gives nothing, as for six points of a conic in degree 4,
``_certified_rank`` checks the products it finds; where no product
closes the gap, the rank falls back to the exact elimination of
``integer_kernel``.  No rank is taken from the Alexander-Hirschowitz
list.

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
on, L^(d-1) is a form in x_0..x_(k-1), so L^(d-1)*x_j is one for j < k,
and x_j times one for j >= k.  So the matrix is block diagonal: the rows
with j < k form the Terracini matrix of A inside its span, P^(k-1), and
for each j >= k the rows with that j are the weighted degree-(d-1)
monomial values of A in x_0..x_(k-1), on the columns x_j times those
monomials.  The weights are nonzero, and monomials that involve
x_k..x_n vanish on A, so those values have rank h_A(d - 1), which is k at
d = 2.  For k = n + 1 there is no second term.

Frame identity: in P^(k-1), rank T_A = |U| + rank R.  The row (e_i, j) is
the form x_i^(d-1)*x_j, the unit row of the column e = (d-1)u_i + u_j, so
the rows of the points of B span the coordinate space of U, the set of
columns they hit.  In degree 2 the rows (e_i, j) and (e_j, i) hit the
same column u_i + u_j.  Modulo that span a row is its restriction to the
columns outside U, so the rank is |U| plus the rank of R, the other
points' rows on those columns.

A right-kernel vector of the framed matrix vanishes on U, since the frame
rows are unit rows there.  Its restriction to the other columns is in the
kernel of R, and restriction keeps such vectors independent.  So the
kernel candidates are built from the framed rows and restricted; each is
checked against R exactly all the same.  No linear form vanishes on the
framed rows, which hold the coordinate points, so the products start in
degree e = 2, and d <= 3 offers none.

Modular frame: the same identity holds modulo p = ``linalg._PRIME``, and
needs no exact frame.  Let B be the first n + 1 points, with primitive
rows b_i independent modulo p, and M the matrix of those rows.  Each other
point q is congruent to M^T c, the sum of c_i * b_i, c its row of
C = Y B^-1 modulo p, Y the other points' primitive rows: the standard form
of the degree-1 rows at size n + 1 that the k_1 sweep takes
(``hilbert._standard_form``).  The entries of the tangent forms are
integer polynomials in the point, so the rows of q modulo p are the
tangent forms of M^T c over F_p, and there, as over Q, F -> F(Mx) is an
invertible linear map of the degree-d forms that carries the tangent space
at c onto the one at M^T c.  So the Terracini matrix of A has the rank
modulo p of that of the framed set: e_0..e_n and the rows c.  Its frame
rows are unit rows, so the rank modulo p is |U| plus the rank modulo p of
R, the rows of the c on the columns outside U, and it is a lower bound on
the rank over Q, since the Terracini matrix is an integer matrix and a
minor nonzero modulo p is a nonzero integer.  When it meets the upper
bound ``_rank_bound(n, d, l)`` the rank is proved; otherwise the rank of R
modulo p is still a lower bound on the rank over Q of R in the exact
frame.  B, independent modulo p, is independent over Q, so it is the B of
``_frame``, the greedy maximal independent subset in point order, and both
frames have the same columns U: the rank modulo p of the Terracini matrix,
|U| plus that of R here, is at most its rank over Q, |U| plus that of R
there.

The generic witness (``generic_terracini_dimension``) past n + 1 points
is drawn in this frame: e_0..e_n followed by random integer points, so
B = I and C = Y,
the drawn rows themselves, of entries at most 50 in size in place of
residues below p, and no standard form is taken.

Both frames copy their rows of R out of the weighted values of one table,
``_tangent_index``.  In the modular frame, ``_framed_rank_mod_p`` hands
them to ``linalg._gathered_pivots_mod_p``, which
reduces the weights modulo p once, weights the degree-(d-1) monomial
values of the rows c in its one reduction pass, copies each row out of
them with no multiply per entry, and is asked for
target = ``_rank_bound(n, d, l)`` - |U| pivots.  When that rank falls
short, ``_certified_rank`` copies the integer weighted values of the other
points into exact rows of R and proves their rank, from the frame's
rows, the rank modulo p and no second modular pass of R.
"""

from __future__ import annotations

from functools import lru_cache
from math import comb, factorial, prod
from operator import add, mul
from typing import Iterator, Sequence

from .geometry import (PointSet, Record, memo_on_set, monomial_basis, monomial_rows,
                       random_point_set)
from .hilbert import _frame, _standard_form, gup_cutoff, hilbert_function
from .linalg import _Index, _gathered_pivots_mod_p, _pivots_mod_p, integer_kernel


# The random draws of ``generic_terracini_dimension``.
_TRIALS = 2

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
def _tangent_index(n: int, d: int) -> tuple[tuple[tuple[int, int], ...], tuple[int, ...], _Index]:
    """The columns of the degree-d basis that the framed tangent rows keep,
    and the weights and the table that copy those rows out of the
    degree-(d-1) monomial values.

    The columns hit by the rows of the coordinate points are dropped: row
    (e_i, j) hits only (d-1)u_i + u_j, so the kept columns are the exponent
    vectors e with every e_i < d - 1, each given as (its index, e!).  The
    weight of monomial f of the degree-(d-1) basis is the multinomial
    (d-1)!/f!, f! the product of the factorials of its exponents.  The
    table gives, for each variable j and kept column e, the index of
    e - u_j in that basis, or the index past its last monomial where
    e_j = 0.
    """
    basis = monomial_basis(n, d)
    lower = monomial_basis(n, d - 1)
    position = {f: i for i, f in enumerate(lower)}
    kept = tuple((c, prod(map(factorial, e))) for c, e in enumerate(basis) if max(e) < d - 1)
    weights = tuple(factorial(d - 1) // prod(map(factorial, f)) for f in lower)
    index = tuple(tuple(position[e[:j] + (e[j] - 1,) + e[j + 1:]] if e[j] else len(lower)
                        for e in (basis[c] for c, _ in kept))
                  for j in range(n + 1))
    return kept, weights, index


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


def _rank_bound(n: int, d: int, l: int) -> int:
    """An upper bound on the Terracini rank of any l points of P^n in
    degree d, counted from (n, d, l) alone; N_j = C(n+j, n).

    At d = 2 it is N_2 - C(n+2-l, 2), which is l(n+1) - C(l, 2) for
    l <= n + 1 and N_2 from there on.  The linear forms vanishing on A
    have dimension at least n + 1 - l.  Every product of two of them is
    singular at every point, so its e!-scaled coefficients lie in the
    right kernel (module docstring, apolarity).  Taken as variables,
    those linear forms give the quadrics in them, at least C(n+2-l, 2)
    independent ones.  The bound is exact for independent points: framed
    as e_0..e_(l-1), their rows x_i*x_j, i < l, are the unit rows of
    every quadric monomial that is not a quadric in x_l..x_n.

    For d >= 3 it is min((n+1)l, N_d - max(0, N_(d-t) - l)), with
    t = ``hilbert.gup_cutoff(n, l + 1)``, the least degree >= 1 with
    N_t > l; the second term is 0 when d < t.  There are (n+1)l rows.
    Since h_A(t) <= l < N_t, some nonzero form F of degree t vanishes on
    A.  For every G in I(A)_(d-t), the product F*G vanishes with its
    gradient at every point, so it too is a kernel vector.  G -> F*G is
    injective, and dim I(A)_(d-t) >= N_(d-t) - l, since the l
    evaluations at A cut it out of the degree-(d-t) forms; so the kernel
    has dimension at least N_(d-t) - l.  The least t gives the largest
    N_(d-t).  At (2, 4) at 5 points, (3, 4) at 9 and (4, 4) at 14, t = 2
    and the bound is one below min((n+1)l, N_d): F and G are the quadric
    Q through the points, and the kernel vector is Q^2, counted from
    (n, d, l) alone.  For l <= n + 1 it is (n+1)l, since n*l <= C(n+2, 3)
    for l <= n and (n+1)^2 <= N_3: the rank of the coordinate points,
    whose rows x_i^(d-1)*x_j are the unit rows of distinct monomials.
    """
    if d == 2:
        return comb(n + 2, 2) - comb(max(n + 2 - l, 0), 2)
    t = gup_cutoff(n, l + 1)
    short = max(0, comb(n + d - t, n) - l) if d >= t else 0
    return min((n + 1) * l, comb(n + d, n) - short)


def _filled(n: int, d: int, l: int) -> TerraciniReport:
    """The report of l points of P^n whose tangent spaces fill as much as
    any l points can: rank ``_rank_bound(n, d, l)``."""
    return TerraciniReport(num_points=l, ambient_dim=n, degree=d,
                           dim=_rank_bound(n, d, l) - 1)


def _framed_rank_mod_p(coords: Sequence[Sequence[int]], n: int, d: int) -> tuple[int, int]:
    """(lower, target) of the framed set e_0..e_n, then the points with
    integer rows ``coords``, in degree d (module docstring, modular frame):
    target = ``_rank_bound(n, d, l)`` - |U|, l the set's size, is the rank
    that its rows R off the columns U must reach to meet the bound, and
    lower is their rank modulo p, taken up to target."""
    kept, weights, index = _tangent_index(n, d)
    target = _rank_bound(n, d, n + 1 + len(coords)) - (comb(n + d, d) - len(kept))
    if not target:
        return 0, 0
    return len(_gathered_pivots_mod_p(monomial_rows(coords, d - 1), weights, index,
                                      len(kept), target)), target


def _certified_rank(framed: Sequence[Sequence[int]], others: Sequence[Sequence[int]],
                    m: int, d: int, lower: int) -> int:
    """|U| + rank R in degree d for a set framed in P^m: ``framed`` the
    integer rows of all its points, e_0..e_m among them, and ``others`` the
    rows of the points off the frame, whose tangent rows R off the columns
    U have rank ``lower`` modulo p, short of ``_rank_bound`` (module
    docstring).

    rank R is proved as a lower bound that meets an upper bound: ``lower``
    below, and above it cols - k, where k is the rank modulo p of checked
    kernel vectors of R (independence modulo p implies independence over
    Q).  The candidates are ``_singular_products`` of ``framed``, each
    restricted to the kept columns with g_e scaled by e!, built lazily and
    drawn only while the gap = cols - lower is at most lower: closing the
    gap takes at least gap checks of R v, each touching every entry, while
    the exact elimination takes lower pivot steps of about that cost, so a
    larger gap is left to it.  Each candidate is checked exactly, R v = 0
    over Z, and one that fails is never used; candidates are drawn until
    the checked ones have rank gap modulo p, or run out.  Only when the
    bounds do not meet is rank R taken exactly, as cols less the number of
    vectors in ``integer_kernel(R)``.
    """
    kept, weights, index = _tangent_index(m, d)
    space = comb(m + d, d)
    values = [[*map(mul, v, weights), 0] for v in monomial_rows(others, d - 1)]
    rows = [[w[i] for i in slots] for w in values for slots in index]
    gap = len(kept) - lower
    if gap <= lower:
        checked = []
        need = gap
        for g in _singular_products(framed, d):
            v = [g[c] * s for c, s in kept]
            if not any(sum(map(mul, row, v)) for row in rows):
                checked.append(v)
                if len(checked) == need:
                    k = len(_pivots_mod_p(checked, gap))
                    if k == gap:
                        return space - gap
                    # Each new vector adds at most one to k.
                    need += gap - k
    return space - len(integer_kernel(rows))


@memo_on_set
def terracini_dimension(a: PointSet, d: int) -> TerraciniReport:
    """Projective dimension of the span of all tangent spaces along a.

    The rank of the Terracini matrix, one integer row per tangent form
    L^(d-1)*x_j of every point, its coefficient vector, minus one.
    Requires d >= 2.

    It is first proved in the modular frame (module docstring), when
    ``hilbert._standard_form`` finds the first n + 1 points independent
    modulo p: the rows of the other points, on the columns outside U, are
    ranked modulo p by ``_framed_rank_mod_p``, and when |U| plus that rank
    meets ``_rank_bound(n, d, l)`` the report returns with no exact frame
    and no integer row: at the Alexander-Hirschowitz quartics too, where
    that bound is one short of full.  Otherwise the rank is taken in the
    exact frame of
    ``_frame``, by the frame identity and the cone formula: only the other
    points' rows outside the columns the frame rows hit are ranked.  Their
    rank modulo p is the modular frame's, where there was one, and
    otherwise ``_framed_rank_mod_p`` of the exact frame's rows; when it
    falls short, ``_certified_rank`` proves the rank over Q from it, so
    those rows are not eliminated modulo p again.

    From d >= 2l - 1 on, l = len(a), the tangent spaces are in direct sum
    and no rank is taken.  Under the apolarity pairing, row (p, j) maps a
    degree-d form G to (d-1)! * d/dx_j G at p, so the rows are independent
    when, for each point p, the forms singular at every other point have
    gradients at p that span all n + 1 directions.  G = product over q != p of L_q^2, with L_q
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
        # The direct sum reaches (n+1)l, so the bound is (n+1)l there.
        return _filled(n, d, len(a))
    coords = _standard_form(a, 1, n + 1) if len(a) > n else None
    if coords is not None:
        lower, target = _framed_rank_mod_p(coords, n, d)
        if lower == target:
            return _filled(n, d, len(a))
    frame, framed = _frame(a)
    k = len(frame)
    others = [q for i, q in enumerate(framed) if i not in frame]
    if coords is None:
        lower, target = _framed_rank_mod_p(others, k - 1, d)
    # When R reaches its target, |U| + target is the bound in P^(k-1).
    rank = (_rank_bound(k - 1, d, len(a)) if lower == target
            else _certified_rank(framed, others, k - 1, d, lower))
    if k <= n:
        # h(d-1) is k at d = 2, and when every point is in B (independent
        # points are separated in every degree >= 1).
        h = k if d == 2 or not others else hilbert_function(a, d - 1)
        rank += (n + 1 - k) * h
    return TerraciniReport(num_points=len(a), ambient_dim=n, degree=d, dim=rank - 1)


def generic_terracini_dimension(n: int, d: int, r: int, seed: int = 0) -> TerraciniReport:
    """Terracini dimension at r points of P^n drawn in their own frame,
    maximised over ``_TRIALS`` draws.

    The witness is the coordinate points e_0..e_n followed by r - n - 1
    distinct points with integer coordinates uniform in [-50, 50], none a
    coordinate point, drawn by ``random_point_set`` from a generator seeded
    by ``seed``: one draw of r - n - 1 points, or, when that draw holds a
    coordinate point, the first r - n - 1 other points of a draw of r
    (which raises, as the sampler does, when [-50, 50]^(n+1) holds fewer
    than r points).  For r <= n + 1 the witness is e_0..e_(r-1), and
    nothing is drawn and no rank is taken: their tangent rows are unit
    rows, one for each distinct monomial x_i^(d-1)*x_j with i < r, and
    there are exactly as many of those as ``_rank_bound(n, d, r)`` counts.
    From d >= 2r - 1 on nothing is drawn and no rank is taken either
    (``terracini_dimension`` has the proof).

    A set whose first n + 1 points are independent is carried by its
    frame's change of coordinates onto one whose first n + 1 points are
    e_0..e_n, with the same Terracini rank (module docstring), so the
    modular frame of ``terracini_dimension`` ranks sets of this kind; the
    witness draws one directly, still at random, not in a special
    position.  Its drawn rows are the rows C of that frame (B = I, so
    C = Y B^-1 = Y), and the frame is exact as well: ``_framed_rank_mod_p``
    ranks them modulo p, a draw that meets ``_rank_bound`` returns with
    no exact rank, and ``_certified_rank`` proves the rank of any other from
    its frame, its draws and that rank modulo p, so every report is exact.

    The generic dimension is the maximum over all point sets, so a draw
    can only undershoot; a second draw shrinks the (already negligible)
    chance of a degenerate one, and the largest dimension is kept.
    Deterministic for fixed arguments.
    """
    if n < 1:
        raise ValueError(f"ambient dimension must be >= 1, got {n}")
    if r < 1:
        raise ValueError(f"point count must be >= 1, got {r}")
    if d < 2:
        raise ValueError(f"Terracini dimension needs degree >= 2, got {d}")
    if d >= 2 * r - 1 or r <= n + 1:
        return _filled(n, d, r)
    axes = [tuple(int(i == j) for j in range(n + 1)) for i in range(n + 1)]
    import random
    rng = random.Random(seed)
    rank = 0
    for _ in range(_TRIALS):
        drawn = [p.primitive_coords for p in random_point_set(n, r - n - 1, rng, bound=50)]
        # A coordinate point has n zero coordinates; r distinct points hold
        # at most n + 1 of them.
        if any(row.count(0) == n for row in drawn):
            drawn = [row for row in (p.primitive_coords
                                     for p in random_point_set(n, r, rng, bound=50))
                     if row.count(0) != n][:r - n - 1]
        lower, target = _framed_rank_mod_p(drawn, n, d)
        if lower == target:
            return _filled(n, d, r)
        rank = max(rank, _certified_rank(axes + drawn, drawn, n, d, lower))
    return TerraciniReport(num_points=r, ambient_dim=n, degree=d, dim=rank - 1)
