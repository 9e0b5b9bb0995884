"""Terracini spaces: tangent rows, dimensions, and the generic oracle."""

import random
from math import comb

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
    random_point_set,
    terracini_dimension,
)
from waringcert import linalg, terracini
from waringcert.geometry import monomial_rows
from waringcert.linalg import integer_kernel
from waringcert.terracini import _singular_products

from conftest import random_points
from oracles import fraction_rank, linear_form_power, tangent_forms


def _tangent_matrix(a, d):
    """The tangent forms L**(d-1) * x_j of every point, as coefficient rows
    over the degree-d basis, built by polynomial multiplication."""
    basis = monomial_basis(a.ambient_dim, d)
    return [[form.get(e, 0) for e in basis]
            for p in a for form in tangent_forms(p.primitive_coords, d)]


def test_tangent_span_contains_the_power_itself():
    # Euler's relation: sum of p_j * L**(d-1) * x_j is L**d, so the power
    # of p lies in the span of its tangent forms.
    rng = random.Random(61)
    for _ in range(8):
        n = rng.choice([1, 2])
        d = rng.randint(2, 4)
        a = random_points(n, 1, rng)
        rows = _tangent_matrix(a, d)
        power = linear_form_power(a[0].primitive_coords, d)
        rows_and_power = rows + [[power.get(e, 0) for e in monomial_basis(n, d)]]
        assert fraction_rank(rows_and_power) == fraction_rank(rows) == n + 1


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
        TerraciniReport(num_points=2, ambient_dim=2, degree=2, dim=6)
    report = TerraciniReport(num_points=2, ambient_dim=2, degree=2, dim=5)
    assert (report.max_possible, report.veronese_dim, report.expected_dim) == (5, 5, 5)


def test_generic_oracle_argument_validation():
    with pytest.raises(ValueError):
        generic_terracini_dimension(0, 2, 1)
    with pytest.raises(ValueError):
        generic_terracini_dimension(2, 2, 0)
    with pytest.raises(ValueError):
        generic_terracini_dimension(2, 2, 2, trials=0)


def _rank_and_fallbacks(a, d, calls):
    """The Terracini rank of a at degree d, checked against the fraction
    rank of its tangent forms, and the number of Bareiss fallbacks it took."""
    before = len(calls)
    rank = terracini_dimension(a, d).dim + 1
    assert rank == fraction_rank(_tangent_matrix(a, d))
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
def test_sets_in_a_proper_subspace_are_proved_by_the_cone_formula(bareiss_calls, rows, d):
    # The framed rows span P^(k-1), so the rank inside it takes no kernel
    # vector; the rest is (n + 1 - k) * h(d - 1).
    a = PointSet.from_rows(rows)
    rank, fallbacks = _rank_and_fallbacks(a, d, bareiss_calls)
    assert fallbacks == 0
    assert rank < min((a.ambient_dim + 1) * len(a), comb(a.ambient_dim + d, d))


def test_a_gap_wider_than_the_rank_is_left_to_bareiss(bareiss_calls):
    # Twelve points of a line of P^3: their degree-5 rows have rank 6 of 56
    # columns, a gap wider than the rank, so no kernel vector is asked for
    # and Bareiss ranks them.  Their Terracini rank in degree 6, 19 of 84,
    # takes no Bareiss: the cone formula reads h(5) from the profile,
    # proved by one pass in the coordinates of the line.
    a = PointSet.from_rows([(1, t, 0, 0) for t in range(12)])
    assert _rank_and_fallbacks(a, 6, bareiss_calls) == (19, 0)

    def refuse():
        raise AssertionError("no kernel vector is asked for past a gap of r")

    assert integer_rank(monomial_rows([p.primitive_coords for p in a], 5), kernel=refuse) == 6
    assert bareiss_calls == [12]


@pytest.mark.parametrize("seed", [0, 1, 2])
def test_seven_points_of_p4_in_degree_three_take_one_bareiss_rank(bareiss_calls, seed):
    # (4, 3, 7) is defective, but no product of forms vanishing on the
    # points is a cubic, so no kernel vector closes the gap: Bareiss ranks
    # the 10 x 10 matrix of the two points off the frame.
    a = random_point_set(4, 7, random.Random(seed), bound=50)
    assert list(_singular_products(terracini._frame(a)[1], 3)) == []
    assert _rank_and_fallbacks(a, 3, bareiss_calls) == (34, 1)
    assert bareiss_calls == [10]


FRAME = [(1, 0, 0, 0, 0), (0, 1, 0, 0, 0), (0, 0, 1, 0, 0), (0, 0, 0, 1, 0),
         (0, 0, 0, 0, 1)]

SPECIAL_SEVEN = [
    # P_5 on x0 = 0, the hyperplane through P_1..P_4.
    FRAME + [(0, 1, 2, 3, 4), (1, 2, 3, 5, 7)],
    # P_6 on x2 = 0.
    FRAME + [(1, 1, 1, 1, 1), (1, 2, 0, 5, 7)],
    # P_0, P_5 and P_6 collinear.
    FRAME + [(1, 1, 1, 1, 1), (2, 1, 1, 1, 1)],
    # Five points on the hyperplane x4 = 0, the first five among them.
    [(1, 0, 0, 0, 0), (0, 1, 0, 0, 0), (0, 0, 1, 0, 0), (0, 0, 0, 1, 0),
     (1, 2, 3, 4, 0), (1, 1, 1, 1, 1), (2, -1, 3, 1, 5)],
    # Five points on x4 = 0, two of them P_5 and P_6.
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
def test_special_seven_point_sets_of_p4_rank_exactly(bareiss_calls, rows):
    # Points on hyperplanes, collinear triples, and points off the frame
    # on its coordinate hyperplanes: the helper checks the rank against
    # the fraction rank of the tangent forms.
    _rank_and_fallbacks(PointSet.from_rows(rows), 3, bareiss_calls)


def small_points(n, size):
    coordinate = st.integers(-3, 3)
    row = st.lists(coordinate, min_size=n + 1, max_size=n + 1).filter(any)
    return st.lists(row, min_size=size, max_size=size,
                    unique_by=lambda r: ProjectivePoint(r)).map(PointSet.from_rows)


@settings(max_examples=60, deadline=None, derandomize=True)
@given(small_points(4, 7))
def test_seven_small_points_of_p4_rank_exactly(a):
    # Small coordinates put many sets in special position.
    assert terracini_dimension(a, 3).dim + 1 == fraction_rank(_tangent_matrix(a, 3))


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


@settings(max_examples=60, deadline=None, derandomize=True)
@given(point_sets_and_degrees())
def test_framed_rows_have_no_degree_one_kernel(case):
    # The frame holds the coordinate points of P^(k-1), so no linear form
    # vanishes on the framed rows: products of kernel vectors start in
    # degree 2, and a set in a proper subspace is left to the cone formula.
    a, d = case
    frame, framed = terracini._frame(a)
    assert integer_kernel(monomial_rows(framed, 1)) == []
    assert fraction_rank(framed) == len(frame) == len(framed[0])
    if d <= 3:
        assert list(_singular_products(framed, d)) == []


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
    assert terracini_dimension(a, d).dim + 1 == fraction_rank(_tangent_matrix(a, d))


def _collinear(n, l):
    """l points of a line of P^n."""
    return PointSet.from_rows([(1, t) + (0,) * (n - 1) for t in range(l)])


@pytest.mark.parametrize("n, l", [(1, 1), (1, 3), (2, 2), (2, 4), (3, 3)])
def test_tangent_spaces_are_independent_from_degree_2l_minus_1(n, l):
    # No rank is taken from d = 2l - 1 on; the fraction rank of the tangent
    # forms agrees, for general sets and for sets on a line.
    general = random_points(n, l, random.Random(10 * n + l), bound=4)
    for a in (general, _collinear(n, l)):
        for d in range(max(2, 2 * l - 1), 2 * l + 2):
            assert terracini_dimension(a, d).dim == (n + 1) * l - 1
            assert fraction_rank(_tangent_matrix(a, d)) == (n + 1) * l


@pytest.mark.parametrize("n, l", [(1, 2), (1, 4), (2, 2), (2, 3), (2, 5), (3, 4)])
def test_collinear_points_fall_short_at_degree_2l_minus_2(n, l):
    a = _collinear(n, l)
    report = terracini_dimension(a, 2 * l - 2)
    assert report.dim < report.max_possible
    assert report.dim + 1 == fraction_rank(_tangent_matrix(a, 2 * l - 2))


def test_high_degree_takes_no_rank(monkeypatch):
    def refuse(*args, **kwargs):
        raise AssertionError("integer_rank called")

    monkeypatch.setattr(terracini, "integer_rank", refuse)
    a = PointSet.from_rows([(1, 0, 0), (0, 1, 0), (0, 0, 1), (1, 1, 1)])
    report = terracini_dimension(a, 3000)
    assert (report.dim, report.max_possible) == (11, 11)
