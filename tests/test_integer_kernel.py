"""The integer rank paths against independent ``Fraction`` references.

Every rank in the library is taken on integer rows built from the primitive
integer representatives of the points.  These properties compare each of
them with the same invariant computed the long way, by ``fraction_rank`` of
``oracles``: monomial evaluations at the canonical coordinates, the tangent
forms L**(d-1) * x_j and the powers L**j expanded by repeated
multiplication.  Coordinates are rationals with denominators, zeros and
negative leading entries.
"""

from fractions import Fraction
from itertools import product
from math import gcd, prod

import pytest
from hypothesis import given, settings, strategies as st

from waringcert import (
    PointSet,
    ProjectivePoint,
    hilbert_function,
    hilbert_profile,
    integer_rank,
    kruskal_rank,
    linalg,
    max_collinear_subset_size,
    monomial_values,
    span_dim,
    terracini_dimension,
    veronese_kruskal_rank,
)
from waringcert.linalg import integer_kernel

from oracles import (brute_max_collinear, fraction_rank, kruskal_by_subsets,
                     linear_form_power, minor_rank, monomial_values_by_powers,
                     tangent_forms)

KERNEL_SETTINGS = dict(max_examples=40, deadline=None, derandomize=True)

coordinate = st.one_of(
    st.just(Fraction(0)),
    st.fractions(min_value=-6, max_value=6, max_denominator=5))


@st.composite
def point_sets(draw, max_n=3, max_size=7):
    n = draw(st.integers(1, max_n))
    size = draw(st.integers(1, max_size))
    row = st.lists(coordinate, min_size=n + 1, max_size=n + 1).filter(any)
    rows = draw(st.lists(row, min_size=size, max_size=size,
                         unique_by=lambda r: ProjectivePoint(r)))
    return PointSet.from_rows(rows)


@st.composite
def aligned_point_sets(draw):
    """Point sets of P^1..P^4 with extra points on the line of the first two."""
    a = draw(point_sets(max_n=4, max_size=4))
    rows = [p.coords for p in a]
    if len(rows) >= 2:
        weights = st.tuples(st.integers(-3, 3), st.integers(-3, 3)).filter(any)
        for s, t in draw(st.lists(weights, max_size=3)):
            point = ProjectivePoint(s * x + t * y for x, y in zip(rows[0], rows[1]))
            if point.coords not in rows:
                rows.append(point.coords)
    return PointSet.from_rows(draw(st.permutations(rows)))


def exponents(nvars, d):
    return [e for e in product(range(d + 1), repeat=nvars) if sum(e) == d]


def evaluation_rows(a, d):
    """Every degree-d monomial at the canonical coordinates of each point."""
    exps = exponents(a.ambient_dim + 1, d)
    return [[prod(c ** k for c, k in zip(p.coords, e)) for e in exps] for p in a]


def coefficient_rows(forms, nvars, d):
    """The degree-d forms ({exponent tuple: value}) as coefficient rows."""
    exps = exponents(nvars, d)
    return [[f.get(e, 0) for e in exps] for f in forms]


# The prime of the modular pass in integer_rank, the largest below 2**30.
P = 1073741789


@settings(**KERNEL_SETTINGS)
@given(st.lists(st.lists(st.integers(-4, 4), min_size=4, max_size=4),
                min_size=1, max_size=4))
def test_integer_rank_matches_minor_oracle_and_keeps_input(rows):
    before = [list(r) for r in rows]
    assert integer_rank(rows) == minor_rank(rows)
    assert rows == before


def test_integer_rank_falls_back_when_the_prime_divides_minors():
    assert integer_rank([[1, 0], [0, P]]) == 2
    assert integer_rank([[P, 2 * P, 0], [3 * P, -P, P]]) == 2
    assert integer_rank([[P], [-P]]) == 1
    # Rank 2 over Q, rank 1 modulo P: the second column carries the prime.
    rows = [[1, P, 2], [2, 3 * P, 4], [-1, 5 * P, -2]]
    assert integer_rank(rows) == minor_rank(rows) == 2


def matrix_product(a, b):
    return [[sum(x * y for x, y in zip(row, col)) for col in zip(*b)] for row in a]


big = st.integers(-2 ** 40, 2 ** 40)


@st.composite
def low_rank_products(draw, max_size=5):
    """A * B with inner size k below min(rows, cols), entries up to 2**40,
    and at most ``max_size`` rows and columns.

    In about half the draws the last column of A is multiplied by P, so the
    rank modulo P falls below the rank over Q whenever that column counts.
    """
    nrows, ncols = draw(st.integers(2, max_size)), draw(st.integers(2, max_size))
    k = draw(st.integers(1, min(nrows, ncols) - 1))
    a = draw(st.lists(st.lists(big, min_size=k, max_size=k),
                      min_size=nrows, max_size=nrows))
    b = draw(st.lists(st.lists(big, min_size=ncols, max_size=ncols),
                      min_size=k, max_size=k))
    if draw(st.booleans()):
        a = [row[:-1] + [row[-1] * P] for row in a]
    return matrix_product(a, b)


@settings(**KERNEL_SETTINGS)
@given(low_rank_products())
def test_integer_rank_of_rank_deficient_products(rows):
    assert integer_rank(rows) == minor_rank(rows) < min(len(rows), len(rows[0]))


@settings(**KERNEL_SETTINGS)
@given(low_rank_products(max_size=12))
def test_exact_elimination_ranks_larger_deficient_products(rows):
    # Up to 12 x 12: the rank is below min(rows, cols), so with no kernel
    # offered the two bounds never meet and the exact elimination, the
    # integer_kernel looked up in linalg, decides once.
    calls = []

    def counted(m):
        calls.append(len(m))
        return integer_kernel(m)

    with pytest.MonkeyPatch.context() as patch:
        patch.setattr(linalg, "integer_kernel", counted)
        assert integer_rank(rows) == fraction_rank(rows)
    assert calls == [len(rows)]


small_matrices = st.integers(1, 5).flatmap(lambda c: st.lists(
    st.lists(st.integers(-4, 4), min_size=c, max_size=c), min_size=1, max_size=5))


@settings(**KERNEL_SETTINGS)
@given(st.one_of(small_matrices, low_rank_products()))
def test_integer_kernel_is_a_primitive_basis_of_the_right_kernel(rows):
    basis = integer_kernel(rows)
    assert len(basis) == len(rows[0]) - minor_rank(rows)
    for v in basis:
        assert len(v) == len(rows[0]) and gcd(*v) == 1
        assert all(sum(x * y for x, y in zip(row, v)) == 0 for row in rows)
    if basis:
        assert minor_rank(basis) == len(basis)
    # Each vector ends at its column without a pivot: one in the span of
    # the columns before it.
    cols = list(zip(*rows))
    assert [max(j for j, x in enumerate(v) if x) for v in basis] == [
        j for j in range(len(cols)) if minor_rank(cols[:j + 1]) == minor_rank(cols[:j])]


@settings(**KERNEL_SETTINGS)
@given(point_sets())
def test_primitive_coords_are_primitive_and_proportional(a):
    for p in a:
        prim = p.primitive_coords
        assert all(isinstance(x, int) for x in prim)
        assert next(x for x in prim if x) > 0
        g = 0
        for x in prim:
            g = gcd(g, x)
        assert g == 1
        assert ProjectivePoint(prim) == p


@settings(**KERNEL_SETTINGS)
@given(point_sets(), st.integers(0, 4))
def test_monomial_values_evaluate_the_basis(a, d):
    expected = monomial_values_by_powers([p.primitive_coords for p in a], d)
    assert monomial_values(a, d) == tuple(map(tuple, expected))


@settings(**KERNEL_SETTINGS)
@given(point_sets(), st.integers(0, 4))
def test_hilbert_function_matches_evaluation_matrix(a, d):
    assert hilbert_function(a, d) == fraction_rank(evaluation_rows(a, d))


@settings(**KERNEL_SETTINGS)
@given(point_sets(), st.one_of(st.none(), st.integers(0, 10)))
def test_early_stopped_profile_matches_full_profile(a, j_max):
    profile = hilbert_profile(a)
    top = len(a) - 1 if j_max is None else max(j_max, len(a) - 1)
    full = tuple(fraction_rank(evaluation_rows(a, d)) for d in range(top + 1))
    assert tuple(profile.value_at(d) for d in range(top + 1)) == full
    assert profile.values == full[:full.index(len(a)) + 1]


@settings(**KERNEL_SETTINGS)
@given(point_sets(max_size=6), st.integers(2, 4))
def test_terracini_dimension_matches_tangent_forms(a, d):
    nvars = a.ambient_dim + 1
    rows = coefficient_rows([f for p in a for f in tangent_forms(p.coords, d)], nvars, d)
    assert terracini_dimension(a, d).dim == fraction_rank(rows) - 1


@settings(**KERNEL_SETTINGS)
@given(point_sets(max_size=6), st.integers(1, 3))
def test_veronese_kruskal_rank_matches_weighted_embedding(a, j):
    rows = coefficient_rows([linear_form_power(p.coords, j) for p in a],
                            a.ambient_dim + 1, j)
    assert veronese_kruskal_rank(a, j) == kruskal_by_subsets(rows, fraction_rank)


@settings(**KERNEL_SETTINGS)
@given(point_sets(max_size=6))
def test_kruskal_and_span_match_coordinate_matrix(a):
    rows = [p.coords for p in a]
    assert kruskal_rank(a) == kruskal_by_subsets(rows, fraction_rank)
    assert span_dim(a) == fraction_rank(rows) - 1


@settings(**KERNEL_SETTINGS)
@given(st.one_of(point_sets(max_n=3, max_size=6), aligned_point_sets()))
def test_max_collinear_matches_brute_force(a):
    assert max_collinear_subset_size(a) == brute_max_collinear([p.coords for p in a])


def test_collinear_rational_points_with_negative_leads():
    a = PointSet.from_rows([
        (Fraction(-1, 2), 0, 0), (0, Fraction(3, 7), 0), (-2, 1, 0),
        (0, 0, Fraction(-5, 3)), (Fraction(1, 2), Fraction(-1, 3), 2)])
    assert [p.primitive_coords for p in a][:4] == [(1, 0, 0), (0, 1, 0), (2, -1, 0), (0, 0, 1)]
    assert max_collinear_subset_size(a) == 3
