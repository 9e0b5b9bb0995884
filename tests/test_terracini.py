"""Terracini spaces: tangent rows, dimensions, and the generic oracle."""

import random
from fractions import Fraction
from math import comb
from operator import mul

import pytest
from hypothesis import given, settings, strategies as st

from waringcert import (
    PointSet,
    ProjectivePoint,
    TerraciniReport,
    generic_terracini_dimension,
    hilbert_function,
    integer_rank,
    monomial_basis,
    monomial_values,
    random_point_set,
    terracini_dimension,
)
from waringcert import linalg, terracini
from waringcert.terracini import _secant_cubic, _singular_products, _terracini_rows

from conftest import BAREISS, random_points
from oracles import apolarity_pairing, fraction_rank, tangent_forms


def test_tangent_span_contains_the_power_itself():
    # Euler's relation: sum of p_j * d/dx_j x^e at p is d * p^e, so the
    # monomial values of p lie in the span of its Terracini rows.
    rng = random.Random(61)
    for _ in range(8):
        n = rng.choice([1, 2])
        d = rng.randint(2, 4)
        a = random_points(n, 1, rng)
        rows = _terracini_rows(a, d)
        assert integer_rank(rows + [list(monomial_values(a, d)[0])]) == integer_rank(rows)


def test_tangent_basis_rejects_degree_one():
    a = random_points(2, 2, random.Random(62))
    with pytest.raises(ValueError):
        terracini_dimension(a, 1)


def test_single_point_dimension_is_ambient():
    for n, d in ((1, 3), (2, 2), (2, 4), (3, 2)):
        a = random_points(n, 1, random.Random(63))
        rep = terracini_dimension(a, d)
        assert rep.dim == n
        assert rep.max_possible == n


def test_quadric_veronese_pair_is_defective():
    rep = generic_terracini_dimension(2, 2, 2)
    assert rep.dim == 4
    assert rep.max_possible == 5
    assert not rep.tangents_independent


def test_plane_quartic_five_points_defect():
    # The secant variety of 5-fold sums of plane quartic powers is a
    # hypersurface: its dimension is 13, one short of filling P^14.
    rep = generic_terracini_dimension(2, 4, 5)
    assert rep.dim == 13
    assert rep.max_possible == 14
    assert rep.veronese_dim == 14
    assert not rep.tangents_independent


def test_plane_quartic_six_points_fill():
    rep = generic_terracini_dimension(2, 4, 6)
    assert rep.dim == 14
    assert rep.veronese_dim == 14
    assert rep.is_expected


def test_binary_cubic_pair_fills():
    rep = generic_terracini_dimension(1, 3, 2)
    assert rep.dim == 3
    assert rep.dim == rep.veronese_dim == rep.max_possible


def test_space_quartic_dimensions():
    assert generic_terracini_dimension(3, 4, 7).dim == 27
    assert generic_terracini_dimension(3, 4, 8).dim == 31
    # r = 9 is defective in P^3: dimension 33, not the expected 34.
    rep = generic_terracini_dimension(3, 4, 9)
    assert rep.dim == 33
    assert rep.veronese_dim == 34
    assert not rep.is_expected


def test_dimension_at_least_span_of_images():
    rng = random.Random(64)
    for _ in range(8):
        n = rng.choice([1, 2])
        d = rng.randint(2, 4)
        a = random_points(n, rng.randint(1, 5), rng)
        rep = terracini_dimension(a, d)
        assert rep.dim >= hilbert_function(a, d) - 1


def test_hyperplane_confinement_is_defective():
    # 5 points inside the plane x3 = 0 of P^3: the tangent spaces cannot
    # be in direct sum.
    rng = random.Random(65)
    plane = random_points(2, 5, rng, bound=20)
    a = PointSet.from_rows([p.coords + (0,) for p in plane])
    rep = terracini_dimension(a, 3)
    assert rep.dim < rep.max_possible


def test_invariance_under_coordinate_change():
    a = random_points(2, 4, random.Random(66))
    transform = [(1, 1, 0), (0, 1, 1), (1, 0, 1)]
    moved = PointSet.from_rows(
        [[sum(t[j] * p.coords[j] for j in range(3)) for t in transform]
         for p in a])
    assert terracini_dimension(moved, 3).dim == terracini_dimension(a, 3).dim


def test_generic_oracle_deterministic():
    first = generic_terracini_dimension(2, 3, 3, trials=2, seed=7)
    second = generic_terracini_dimension(2, 3, 3, trials=2, seed=7)
    assert first == second


def test_report_validation():
    with pytest.raises(ValueError):
        TerraciniReport(num_points=2, ambient_dim=2, degree=2, dim=4,
                        max_possible=6, veronese_dim=5)
    with pytest.raises(ValueError):
        TerraciniReport(num_points=2, ambient_dim=2, degree=2, dim=6,
                        max_possible=5, veronese_dim=5)


def test_generic_oracle_argument_validation():
    with pytest.raises(ValueError):
        generic_terracini_dimension(0, 2, 1)
    with pytest.raises(ValueError):
        generic_terracini_dimension(2, 2, 0)
    with pytest.raises(ValueError):
        generic_terracini_dimension(2, 2, 2, trials=0)


def coordinate_rows(a):
    return [p.primitive_coords for p in a]


def _rank_and_fallbacks(a, d, calls):
    """The Terracini rank of a at degree d, checked against Bareiss on the
    same rows, and the number of Bareiss fallbacks it took."""
    before = len(calls)
    rank = terracini_dimension(a, d).dim + 1
    assert rank == BAREISS(_terracini_rows(a, d))
    return rank, len(calls) - before


@pytest.mark.parametrize("seed", [0, 1, 2])
@pytest.mark.parametrize("n, d, l, rank", [(2, 4, 5, 14), (3, 4, 9, 34), (4, 4, 14, 69)])
def test_defective_quartic_rank_is_proved_by_the_square_of_the_quadric(
        bareiss_calls, seed, n, d, l, rank):
    # Alexander-Hirschowitz: one short of the expected rank.  The quadric Q
    # through the points gives the kernel vector Q**2.
    a = random_point_set(n, l, random.Random(seed), bound=50)
    assert _rank_and_fallbacks(a, d, bareiss_calls) == (rank, 0)


SUBSPACE_SETS = [
    # Three collinear points of P^2.
    [(1, 0, 0), (0, 1, 0), (1, 1, 0)],
    # Four points of the plane x3 = 0 in P^3.
    [(1, 0, 0, 0), (0, 1, 0, 0), (0, 0, 1, 0), (1, -2, 3, 0)],
    # Five points of P^4 spanning a plane.
    [(1, 0, 0, 0, 0), (0, 1, 0, 0, 0), (0, 0, 1, 0, 0), (1, 1, 1, 0, 0),
     (2, -1, 5, 0, 0)],
    # Three points of a line of P^3, on and off the coordinate axes.
    [(1, 0, 0, 0), (0, 1, 0, 0), (1, 1, 0, 0)],
    [(1, 2, 3, 4), (2, -1, 0, 5), (3, 1, 3, 9)],
]


@pytest.mark.parametrize("d", [2, 3])
@pytest.mark.parametrize("rows", SUBSPACE_SETS)
def test_sets_in_a_proper_subspace_are_proved_by_linear_products(bareiss_calls, rows, d):
    a = PointSet.from_rows(rows)
    rank, fallbacks = _rank_and_fallbacks(a, d, bareiss_calls)
    assert fallbacks == 0
    assert rank < min((a.ambient_dim + 1) * len(a), comb(a.ambient_dim + d, d))


def test_a_gap_wider_than_the_rank_is_left_to_bareiss(bareiss_calls):
    # Twelve points of a line of P^3 in degree 6: rank 19 of 84 columns.
    a = PointSet.from_rows([(1, t, 0, 0) for t in range(12)])
    assert _rank_and_fallbacks(a, 6, bareiss_calls) == (19, 1)


@pytest.mark.parametrize("seed", [0, 1, 2])
def test_seven_points_at_degree_three_in_p4_are_proved_by_the_secant_cubic(bareiss_calls, seed):
    # (4, 3, 7) is defective, but no product of forms vanishing on the
    # points is a cubic: I(Z)_1 = 0.  The secant cubic of the rational
    # normal curve through the points closes the gap instead.
    a = random_point_set(4, 7, random.Random(seed), bound=50)
    assert list(_singular_products(coordinate_rows(a), 3)) == []
    assert _rank_and_fallbacks(a, 3, bareiss_calls) == (34, 0)


FRAME = [(1, 0, 0, 0, 0), (0, 1, 0, 0, 0), (0, 0, 1, 0, 0), (0, 0, 0, 1, 0),
         (0, 0, 0, 0, 1)]

SPECIAL_SEVEN = [
    # P_5 on x0 = 0, the hyperplane through P_1..P_4: mu_0 = 0.
    FRAME + [(0, 1, 2, 3, 4), (1, 2, 3, 5, 7)],
    # P_6 on x2 = 0: nu_2 = 0.
    FRAME + [(1, 1, 1, 1, 1), (1, 2, 0, 5, 7)],
    # P_0, P_5 and P_6 collinear: nu_1 / mu_1 = nu_2 / mu_2, so delta_12 = 0.
    FRAME + [(1, 1, 1, 1, 1), (2, 1, 1, 1, 1)],
    # Five points on the hyperplane x4 = 0, the first five among them.
    [(1, 0, 0, 0, 0), (0, 1, 0, 0, 0), (0, 0, 1, 0, 0), (0, 0, 0, 1, 0),
     (1, 2, 3, 4, 0), (1, 1, 1, 1, 1), (2, -1, 3, 1, 5)],
    # Five points on x4 = 0, two of them P_5 and P_6: delta_34 = 0.
    [(1, 0, 0, 0, 0), (0, 1, 0, 0, 0), (0, 0, 1, 0, 0), (0, 0, 0, 1, 1),
     (3, 1, -2, 5, 7), (1, 1, 2, 1, 0), (2, -1, 3, 1, 0)],
    # Three collinear points among the first five: P_2 = P_0 + P_1.
    [(1, 2, 0, 1, 3), (0, 1, 1, -1, 2), (1, 3, 1, 0, 5), (2, 0, 1, 1, 1),
     (1, -1, 2, 0, 4), (3, 1, 1, 2, -1), (1, 1, -2, 3, 2)],
    # Three collinear points, one of them P_5: P_5 = P_0 - P_3.
    [(1, 2, 0, 1, 3), (0, 1, 1, -1, 2), (2, 0, 1, 1, 1), (1, 1, -2, 3, 2),
     (1, -1, 2, 0, 4), (0, 1, 2, -2, 1), (3, 1, 1, 2, -1)],
]


@pytest.mark.parametrize("rows", SPECIAL_SEVEN)
def test_the_secant_cubic_declines_on_special_sets(bareiss_calls, rows):
    # The rank is still exact: the helper compares it with Bareiss.
    a = PointSet.from_rows(rows)
    assert list(_secant_cubic(coordinate_rows(a))) == []
    _rank_and_fallbacks(a, 3, bareiss_calls)


def _dot(u, v):
    return sum(map(mul, u, v))


@pytest.mark.parametrize("change", ["coefficient", "sign"])
def test_a_wrong_secant_cubic_is_rejected(bareiss_calls, monkeypatch, change):
    # One coefficient moved, or the sign of one monomial flipped: the exact
    # check rejects the candidate and Bareiss decides, once.
    def altered(rows):
        for g in _secant_cubic(rows):
            k = next(i for i, c in enumerate(g) if c)
            g[k] = g[k] + 1 if change == "coefficient" else -g[k]
            yield g

    monkeypatch.setattr(terracini, "_secant_cubic", altered)
    a = random_point_set(4, 7, random.Random(0), bound=50)
    assert _rank_and_fallbacks(a, 3, bareiss_calls) == (34, 1)


def small_points(n, size):
    coordinate = st.integers(-3, 3)
    row = st.lists(coordinate, min_size=n + 1, max_size=n + 1).filter(any)
    return st.lists(row, min_size=size, max_size=size,
                    unique_by=lambda r: ProjectivePoint(r)).map(PointSet.from_rows)


@settings(max_examples=60, deadline=None, derandomize=True)
@given(small_points(4, 7))
def test_seven_small_points_of_p4_rank_exactly(a):
    # Small coordinates put many sets in special position, where the
    # construction declines; where it does not, its cubic is a kernel vector.
    rows = _terracini_rows(a, 3)
    for g in _secant_cubic(coordinate_rows(a)):
        assert any(g)
        assert not any(_dot(row, g) for row in rows)
    assert terracini_dimension(a, 3).dim + 1 == BAREISS(rows)


def _as_form(g):
    return {e: Fraction(c) for e, c in zip(monomial_basis(4, 3), g) if c}


@pytest.mark.parametrize("seed", [0, 1, 2])
def test_the_secant_cubic_is_apolar_to_every_tangent_form(seed):
    # Independent of the Terracini rows and their column scaling: G pairs to
    # zero with each L**2 * x_j, so G is singular at every point.
    a = random_point_set(4, 7, random.Random(seed), bound=50)
    (g,) = _secant_cubic(coordinate_rows(a))
    cubic = _as_form(g)
    assert cubic
    for p in a:
        for tangent in tangent_forms(p.primitive_coords, 3):
            assert apolarity_pairing(cubic, tangent) == 0


@pytest.mark.parametrize("order", [(6, 5, 4, 3, 2, 1, 0), (2, 5, 0, 6, 3, 1, 4),
                                   (1, 2, 3, 4, 5, 6, 0)])
def test_the_secant_cubic_does_not_depend_on_the_order_of_the_points(order):
    # Another five points form the basis, and P_5, P_6 change roles, but the
    # rational normal curve through seven points, and its secant cubic, is one.
    a = random_point_set(4, 7, random.Random(3), bound=50)
    (g,) = _secant_cubic(coordinate_rows(a))
    (h,) = _secant_cubic(coordinate_rows(a.subset(order)))
    assert h in (g, [-c for c in g])


def _tangent_matrix(a, d):
    """The tangent forms L**(d-1) * x_j of every point, as coefficient rows
    over the degree-d basis, built by polynomial multiplication."""
    basis = monomial_basis(a.ambient_dim, d)
    return [[form.get(e, 0) for e in basis]
            for p in a for form in tangent_forms(p.primitive_coords, d)]


@st.composite
def point_sets_and_degrees(draw):
    """Points of P^n spanning at most P^m: small points of P^m, padded
    with zeros and moved by a unipotent integer matrix, and a degree."""
    n = draw(st.integers(1, 4))
    m = draw(st.integers(1, n))
    size = draw(st.integers(1, 2 * (n + 1) + 2))
    a = draw(small_points(m, size))
    shear = draw(st.lists(st.integers(-2, 2), min_size=n * n, max_size=n * n))
    rows = []
    for p in a:
        x = list(p.primitive_coords) + [0] * (n - m)
        rows.append([x[i] + sum(shear[n * i + j - 1] * x[j] for j in range(i + 1, n + 1))
                     for i in range(n + 1)])
    return PointSet.from_rows(rows), draw(st.integers(2, 5))


@settings(max_examples=60, deadline=None, derandomize=True)
@given(point_sets_and_degrees())
def test_framed_rank_matches_the_fraction_rank_of_the_tangent_forms(case):
    # The draws hold sets in a proper subspace with points off the frame,
    # sets whose first n + 1 points are dependent, and l <= h(1); degree 2
    # gives frame rows that share a column.  The oracle never calls
    # integer_rank.
    a, d = case
    assert terracini_dimension(a, d).dim + 1 == fraction_rank(_tangent_matrix(a, d))


P = linalg._PRIME


@pytest.mark.parametrize("rows, d", [
    # (1 : 1 : P) is independent of the first two points over Q but not
    # modulo P: the frame must hold all three, and the set spans P^2.
    ([(1, 0, 0), (0, 1, 0), (1, 1, P)], 3),
    ([(1, 0, 0), (0, 1, 0), (1, 1, P), (2, -1, 0)], 2),
    ([(1, 2, 0, 0), (0, 1, 0, 0), (3, 1, P, 0), (1, 1, 0, 0)], 3),
])
def test_the_frame_is_exact_where_the_prime_sees_a_dependence(rows, d):
    a = PointSet.from_rows(rows)
    assert len(terracini._frame(a)[0]) == integer_rank([p.primitive_coords for p in a])
    assert terracini_dimension(a, d).dim + 1 == BAREISS(_terracini_rows(a, d))
