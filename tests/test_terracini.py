"""Terracini spaces: tangent rows, dimensions, and the generic oracle."""

import random
from math import comb
from operator import mul

import pytest
from hypothesis import assume, example, given, settings, strategies as st

from waringcert import (
    PointSet,
    ProjectivePoint,
    TerraciniReport,
    generic_info,
    generic_terracini_dimension,
    hilbert_function,
    integer_rank,
    monomial_basis,
    random_point_set,
    terracini_dimension,
)
from waringcert import hilbert, linalg, terracini
from waringcert.geometry import monomial_rows
from waringcert.linalg import integer_kernel
from waringcert.terracini import _singular_products

from conftest import random_points, spy_fallbacks
from oracles import fraction_rank, linear_form_power, pivot_columns_mod_p, tangent_forms
from test_hilbert import PROFILE_CASES


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


# Every (n, d) of P^1..P^4 in degrees 2..5 with at most 60 forms of degree d.
COUNTED_SHAPES = [(n, d) for n in range(1, 5) for d in range(2, 6) if comb(n + d, d) <= 60]


@pytest.mark.parametrize("n, d", COUNTED_SHAPES)
def test_the_counted_bound_holds_for_the_fraction_rank_of_the_tangent_forms(n, d):
    # ``_rank_bound`` is a count from (n, d, l) alone, so it bounds the
    # rank of every set; the oracle ranks the tangent forms over Fraction,
    # with no call into linalg.  Every size up to one past the first that
    # can fill the space, drawn in boxes 2, 3 and 50: the small boxes put
    # many sets in special position, where the rank is lower still.
    rng = random.Random(100 * n + d)
    for l in range(1, -(-comb(n + d, d) // (n + 1)) + 2):
        for bound in (2, 3, 50):
            a = random_point_set(n, l, rng, bound=bound)
            assert fraction_rank(_tangent_matrix(a, d)) <= terracini._rank_bound(n, d, l)


@pytest.mark.parametrize("n, l", [(2, 5), (3, 9), (4, 14)])
def test_the_counted_bound_is_the_rank_of_the_alexander_hirschowitz_quartics(n, l):
    # One below min((n+1)l, C(n+4, 4)), and drawn sets reach it.
    assert terracini._rank_bound(n, 4, l) == min((n + 1) * l, comb(n + 4, 4)) - 1
    for seed in range(2):
        a = random_point_set(n, l, random.Random(seed), bound=50)
        assert fraction_rank(_tangent_matrix(a, 4)) == terracini._rank_bound(n, 4, l)


@pytest.mark.parametrize("n", range(2, 6))
def test_the_counted_bound_is_the_rank_of_general_points_in_degree_2(n):
    # Up to n + 1 points: the quadrics in the n + 1 - l linear forms
    # through them fill the kernel, so drawn sets meet l(n+1) - C(l, 2).
    rng = random.Random(n)
    for l in range(1, n + 2):
        assert terracini._rank_bound(n, 2, l) == l * (n + 1) - comb(l, 2)
        a = random_point_set(n, l, rng, bound=50)
        assert fraction_rank(_tangent_matrix(a, 2)) == terracini._rank_bound(n, 2, l)


@pytest.mark.parametrize("n", range(1, 6))
def test_the_coordinate_witness_is_counted(n):
    # Up to n + 1 points the witness is e_0..e_(r-1), reported from the
    # count with no rank taken: the count is their Fraction rank.
    for d in range(2, 6):
        for r in range(1, n + 2):
            axes = PointSet.from_rows([tuple(int(i == j) for j in range(n + 1))
                                       for i in range(r)])
            rank = fraction_rank(_tangent_matrix(axes, d))
            assert generic_terracini_dimension(n, d, r).dim == rank - 1, (d, r)


@pytest.mark.parametrize("n", range(1, 7))
def test_generic_quadrics_take_no_frame_or_kernel(monkeypatch, n):
    # The witness of n + 1 coordinate points is counted, so no standard
    # form, exact frame or integer kernel is taken.
    calls = []

    def spied(name, original):
        return lambda *args: calls.append(name) or original(*args)

    for name in ("_standard_form", "_frame"):
        monkeypatch.setattr(terracini, name, spied(name, getattr(terracini, name)))
    for module in (hilbert, terracini, linalg):
        monkeypatch.setattr(module, "integer_kernel", spied("integer_kernel", integer_kernel))
    info = generic_info(n, 2)
    assert (info.generic_rank, info.oracle_verified) == (n + 1, True)
    assert calls == []


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
    first = generic_terracini_dimension(2, 3, 3, seed=7)
    second = generic_terracini_dimension(2, 3, 3, seed=7)
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
    # Degree 1 is refused up front: past the check, one point (d >= 2r - 1)
    # and five points (a draw) would each return a report of degree 1.
    for r in (1, 5):
        with pytest.raises(ValueError, match="degree >= 2"):
            generic_terracini_dimension(2, 1, r)


def _axes(n, k):
    """The rows of the first k coordinate points of P^n."""
    return [tuple(int(i == j) for j in range(n + 1)) for i in range(k)]


def _documented_draws(n, r, seed):
    """The rows of each trial's witness, rebuilt from the recipe in
    ``generic_terracini_dimension``'s docstring: e_0..e_n, then one sampler
    draw of r - n - 1 points, or, when it holds a coordinate point, the
    first r - n - 1 other points of a draw of r."""
    if r <= n + 1:
        return [_axes(n, r)]
    rng, draws = random.Random(seed), []
    for _ in range(terracini._TRIALS):
        rows = [p.primitive_coords for p in random_point_set(n, r - n - 1, rng, bound=50)]
        if any(row.count(0) == n for row in rows):
            rows = [row for row in (p.primitive_coords
                                    for p in random_point_set(n, r, rng, bound=50))
                    if row.count(0) != n][:r - n - 1]
        draws.append(_axes(n, n + 1) + rows)
    return draws


def _spied_witness(monkeypatch, n, d, r, seed):
    """``generic_terracini_dimension(n, d, r, seed)``, with the rows that
    it hands ``_framed_rank_mod_p`` itself and the rows of the sets, frame
    and draws, that it hands ``_certified_rank`` itself."""
    framed, certified, inside = [], [], []
    rank_mod_p, certified_rank = terracini._framed_rank_mod_p, terracini._certified_rank
    dimension = terracini.terracini_dimension

    def spied_rank(coords, *args):
        if not inside:
            framed.append([tuple(row) for row in coords])
        return rank_mod_p(coords, *args)

    def spied_certified(rows, *args):
        if not inside:
            certified.append([tuple(row) for row in rows])
        return certified_rank(rows, *args)

    def spied_dimension(a, *args):
        inside.append(a)
        try:
            return dimension(a, *args)
        finally:
            inside.pop()

    with monkeypatch.context() as m:
        m.setattr(terracini, "_framed_rank_mod_p", spied_rank)
        m.setattr(terracini, "_certified_rank", spied_certified)
        m.setattr(terracini, "terracini_dimension", spied_dimension)
        report = generic_terracini_dimension(n, d, r, seed=seed)
    return report, framed, certified


# (n, d, r, seed): the coordinate points alone (r <= n + 1), no rank from
# d >= 2r - 1 on, witnesses that fill, the defective (2, 4) at 5 and
# (3, 4) at 9, and binary draws whose first sample holds (0 : 1): at
# seed 4 the draw of r that replaces it holds no coordinate point among
# the points kept, at seed 190 it holds (1 : 0) among them.  (3, 3, 5, 7)
# is why ``terracini._TRIALS`` is 2: the first draw, (9 : 31 : 0 : -33),
# lies on x_2 = 0 with e_0, e_1 and e_3, so that witness falls short
# (dimension 17 of 19), and only the second draw verifies
# ``generic_info(3, 3, seed=7)``.
WITNESS_CASES = [
    (2, 2, 2, 0), (2, 2, 3, 0), (3, 3, 2, 0), (3, 2, 4, 1), (1, 3, 2, 0), (2, 5, 3, 0),
    (2, 4, 6, 0), (2, 5, 7, 1), (4, 3, 8, 2), (3, 4, 10, 0), (1, 12, 7, 0),
    (2, 4, 5, 0), (3, 4, 9, 1), (1, 7, 6, 4), (1, 9, 8, 190), (3, 3, 5, 7),
]


@pytest.mark.parametrize("n, d, r, seed", WITNESS_CASES)
def test_generic_witness_is_its_frame_and_draws(monkeypatch, n, d, r, seed):
    # The report is terracini_dimension of the set of the frame and the
    # draws, which is the fraction rank of its tangent forms; the draws
    # are distinct (``PointSet.from_rows`` raises on a repeat), none a
    # coordinate point, and the same on a second call.
    report, framed, certified = _spied_witness(monkeypatch, n, d, r, seed)
    draws = _documented_draws(n, r, seed)
    if r > n + 1 and 2 <= d < 2 * r - 1:
        assert framed == [rows[n + 1:] for rows in draws[:len(framed)]]
    assert certified == draws[:len(certified)]
    sets = [PointSet.from_rows(rows) for rows in draws]
    for a in sets:
        assert [p.primitive_coords for p in a[:n + 1]] == _axes(n, min(r, n + 1))
        assert all(p.primitive_coords.count(0) != n for p in a[n + 1:])
    reports = [terracini_dimension(a, d) for a in sets]
    assert [rep.dim + 1 for rep in reports] == [fraction_rank(_tangent_matrix(a, d)) for a in sets]
    assert report == (reports[0] if reports[0].is_expected
                      else max(reports, key=lambda rep: rep.dim))
    if (n, d, r, seed) == (3, 3, 5, 7):
        assert [rep.is_expected for rep in reports] == [False, True]
    assert _spied_witness(monkeypatch, n, d, r, seed) == (report, framed, certified)


@pytest.mark.parametrize("n, d, r, dim", [(2, 4, 5, 13), (3, 4, 9, 33)])
def test_defective_witnesses_fall_back_to_the_exact_path(monkeypatch, n, d, r, dim):
    # The Alexander-Hirschowitz value is the counted bound, one below the
    # expected rank: the first draw's rank modulo p meets it, so that draw
    # alone is ranked, and nothing is handed to ``_certified_rank``.  The
    # report equals the fraction rank of that draw's tangent forms.
    report, framed, certified = _spied_witness(monkeypatch, n, d, r, 0)
    assert report.dim == dim
    rows = _documented_draws(n, r, 0)[0]
    assert framed == [rows[n + 1:]] and certified == []
    assert fraction_rank(_tangent_matrix(PointSet.from_rows(rows), d)) == dim + 1


@pytest.mark.parametrize("seed", [0, 1, 2])
@pytest.mark.parametrize("n, d, r, dim", [(2, 4, 5, 13), (3, 4, 9, 33), (4, 4, 14, 68)])
def test_a_short_witness_draw_is_ranked_modulo_p_once_and_takes_no_frame(monkeypatch, seed,
                                                                         n, d, r, dim):
    # The Alexander-Hirschowitz quartics: the first draw's rank modulo p
    # meets the counted target, the Alexander-Hirschowitz rank less the
    # columns the frame rows hit, in one pass.  No standard form, exact
    # frame, point set, certified rank or integer kernel is taken.
    def refused(*args, **kwargs):
        raise AssertionError("the witness took a frame, an exact rank or a point set")

    for module, name in ((hilbert, "_standard_form"), (terracini, "_standard_form"),
                         (terracini, "_frame"), (terracini, "terracini_dimension"),
                         (terracini, "_certified_rank"), (terracini, "integer_kernel"),
                         (linalg, "integer_kernel")):
        monkeypatch.setattr(module, name, refused)
    passes, pivots = [], []
    gathered = terracini._gathered_pivots_mod_p

    def counted(*args):
        passes.append(args[-1])
        pivots.append(gathered(*args))
        return pivots[-1]

    monkeypatch.setattr(terracini, "_gathered_pivots_mod_p", counted)
    report = generic_terracini_dimension(n, d, r, seed=seed)
    assert report == TerraciniReport(num_points=r, ambient_dim=n, degree=d, dim=dim)
    target = dim + 1 - comb(n + d, d) + len(_kept_columns(n, d))
    assert passes == [target] and len(pivots[0]) == target


@pytest.mark.parametrize("n, d, r", [(2, 4, 6), (4, 3, 8), (3, 4, 10), (2, 8, 15), (5, 3, 10),
                                     (1, 40, 21)])
def test_a_filling_witness_takes_no_frame(monkeypatch, n, d, r):
    # The witness draws its points in the frame: when its rank modulo p
    # fills the space, no standard form, frame or exact rank is taken.
    def refused(*args, **kwargs):
        raise AssertionError("the witness took a frame or an exact rank")

    for module, name in ((hilbert, "_standard_form"), (terracini, "_standard_form"),
                         (hilbert, "_standard_form_mod_p"), (linalg, "_standard_form_mod_p"),
                         (terracini, "_frame"), (terracini, "_certified_rank"),
                         (terracini, "terracini_dimension")):
        monkeypatch.setattr(module, name, refused)
    for seed in range(3):
        report = generic_terracini_dimension(n, d, r, seed=seed)
        assert report.dim == report.veronese_dim == report.expected_dim


def _rank_and_fallbacks(a, d, calls):
    """The Terracini rank of a at degree d, checked against the fraction
    rank of its tangent forms, and the number of exact eliminations it took."""
    before = len(calls)
    rank = terracini_dimension(a, d).dim + 1
    assert rank == fraction_rank(_tangent_matrix(a, d))
    return rank, len(calls) - before


@pytest.mark.parametrize("seed", [0, 1, 2])
@pytest.mark.parametrize("n, d, l, rank", [(2, 4, 5, 14), (3, 4, 9, 34), (4, 4, 14, 69)])
def test_defective_quartic_rank_is_proved_by_the_square_of_the_quadric(
        exact_eliminations, seed, n, d, l, rank):
    # Alexander-Hirschowitz: one short of the expected rank.  The quadric Q
    # through the points gives the kernel vector Q**2, which the count of
    # ``_rank_bound`` reads from (n, d, l), so no exact elimination is taken.
    a = random_point_set(n, l, random.Random(seed), bound=50)
    assert _rank_and_fallbacks(a, d, exact_eliminations) == (rank, 0)


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
def test_sets_in_a_proper_subspace_are_proved_by_the_cone_formula(exact_eliminations, rows, d):
    # The framed rows span P^(k-1), so the rank inside it takes no kernel
    # vector; the rest is (n + 1 - k) * h(d - 1).
    a = PointSet.from_rows(rows)
    rank, fallbacks = _rank_and_fallbacks(a, d, exact_eliminations)
    assert fallbacks == 0
    assert rank < min((a.ambient_dim + 1) * len(a), comb(a.ambient_dim + d, d))


def test_a_gap_wider_than_the_rank_is_left_to_exact_elimination(monkeypatch,
                                                                exact_eliminations):
    # Twelve points of a line of P^3: their Terracini rank in degree 6, 19
    # of 84, takes no exact elimination: the cone formula reads h(5) from
    # the profile, proved by one pass in the coordinates of the line.
    a = PointSet.from_rows([(1, t, 0, 0) for t in range(12)])
    assert _rank_and_fallbacks(a, 6, exact_eliminations) == (19, 0)

    # Three collinear points of P^2 and a fourth off their line: in degree
    # 4 the 3 tangent rows off the frame have rank 2 of 6 columns, a gap
    # wider than the rank, so no kernel vector is asked for and the exact
    # elimination ranks them.
    def refuse(framed, d):
        raise AssertionError("no kernel vector is asked for past a gap of r")

    monkeypatch.setattr(terracini, "_singular_products", refuse)
    b = PointSet.from_rows([(1, 0, 0), (0, 1, 0), (0, 0, 1), (1, 1, 0)])
    assert _rank_and_fallbacks(b, 4, exact_eliminations) == (11, 1)
    assert exact_eliminations == [3]


@pytest.mark.parametrize("seed", [0, 1, 2])
def test_seven_points_of_p4_in_degree_three_take_one_exact_elimination(exact_eliminations, seed):
    # (4, 3, 7) is defective, but no product of forms vanishing on the
    # points is a cubic, so no kernel vector closes the gap: the exact
    # elimination ranks the 10 x 10 matrix of the two points off the frame.
    a = random_point_set(4, 7, random.Random(seed), bound=50)
    assert list(_singular_products(terracini._frame(a)[1], 3)) == []
    assert _rank_and_fallbacks(a, 3, exact_eliminations) == (34, 1)
    assert exact_eliminations == [10]


# Seven points of the conic x_0 x_2 = x_1^2 of P^2.
CONIC = [(1, t, t * t) for t in (0, 1, -1, 2, -2, 3)] + [(0, 0, 1)]

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
def test_special_seven_point_sets_of_p4_rank_exactly(exact_eliminations, rows):
    # Points on hyperplanes, collinear triples, and points off the frame
    # on its coordinate hyperplanes: the helper checks the rank against
    # the fraction rank of the tangent forms.
    _rank_and_fallbacks(PointSet.from_rows(rows), 3, exact_eliminations)


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


@settings(max_examples=60, deadline=None, derandomize=True)
@given(point_sets_and_degrees())
@example((random_point_set(2, 5, random.Random(0), bound=50), 4))
@example((random_point_set(3, 9, random.Random(0), bound=50), 4))
@example((PointSet.from_rows(CONIC[:6]), 4))
@example((PointSet.from_rows(CONIC), 5))
def test_exact_rows_are_the_tangent_forms_and_every_drawn_candidate_is_in_the_kernel(case):
    # ``_certified_rank`` is handed the exact frame's rows and those of the
    # points off it; the rows it eliminates are the oracle's tangent forms
    # of the points off the frame, on the kept columns, and every kernel
    # candidate it draws, a product F*H scaled by e! per column, has
    # T v = 0 on them, so none is rejected.  Few draws reach the exact
    # step; points of a conic do, and there the square of the conic is
    # drawn.  The two Alexander-Hirschowitz quartics meet their counted
    # bound in the modular frame and take no exact step.
    a, d = case
    frame, framed = terracini._frame(a)
    others = [q for i, q in enumerate(framed) if i not in frame]
    handed, eliminated = [], []
    certified, products = terracini._certified_rank, terracini._singular_products

    def checked(rows, e):
        kept = terracini._tangent_index(len(rows[0]) - 1, e)[0]
        for g in products(rows, e):
            v = [g[c] * s for c, s in kept]
            assert not any(sum(map(mul, row, v)) for row in _oracle_rows(others, e))
            yield g

    def spied(rows, rest, m, e, lower):
        handed.append((rows, rest))
        rank = certified(rows, rest, m, e, lower)
        # A lower bound of 0 leaves the rank to the exact elimination.
        assert certified(rows, rest, m, e, 0) == rank
        return rank

    with pytest.MonkeyPatch.context() as patch:
        patch.setattr(terracini, "_certified_rank", spied)
        patch.setattr(terracini, "_singular_products", checked)
        spy_fallbacks(patch, eliminated.append)
        rank = terracini_dimension(a, d).dim + 1
    assert rank == fraction_rank(_tangent_matrix(a, d))
    # No exact step is taken when a frame's rank modulo p proves the rank,
    # or when no point or no column is left off the frame.
    assert handed == ([(framed, others)] if handed else [])
    assert all(rows == _oracle_rows(others, d) for rows in eliminated)
    assert bool(eliminated) == bool(handed)


@pytest.mark.parametrize("rows, d, rank", [(CONIC[:6], 4, 14), (CONIC, 5, 18)])
def test_points_of_a_conic_still_take_the_certified_rank(monkeypatch, rows, d, rank):
    # The count gives nothing here: six or seven points are at least
    # N_2 = 6, so its form F is a cubic and N_(d-3) - l <= 0.  Yet the
    # conic Q through the points makes Q*H singular at all of them for H in
    # I(A)_(d-2).  So the rank modulo p falls short of ``_rank_bound``, and
    # ``_certified_rank`` proves it once, from products it draws; it
    # agrees with the fraction rank of the tangent forms.
    a = PointSet.from_rows(rows)
    assert terracini._rank_bound(a.ambient_dim, d, len(a)) > rank
    certified, drawn = [], []
    certify, products = terracini._certified_rank, terracini._singular_products

    def spied(*args):
        certified.append(args)
        return certify(*args)

    def counted(framed, e):
        for g in products(framed, e):
            drawn.append(g)
            yield g

    monkeypatch.setattr(terracini, "_certified_rank", spied)
    monkeypatch.setattr(terracini, "_singular_products", counted)
    assert terracini_dimension(a, d).dim + 1 == rank == fraction_rank(_tangent_matrix(a, d))
    assert len(certified) == 1 and drawn


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


@pytest.fixture
def exact_frames(monkeypatch):
    """The size of every set whose exact frame ``terracini_dimension`` builds:
    empty exactly when every rank was proved in the modular frame."""
    calls = []
    original = terracini._frame

    def counted(a):
        calls.append(len(a))
        return original(a)

    monkeypatch.setattr(terracini, "_frame", counted)
    return calls


def _checked_rank(a, d):
    """The Terracini rank of a at degree d, checked against the fraction
    rank of its tangent forms."""
    rank = terracini_dimension(a, d).dim + 1
    assert rank == fraction_rank(_tangent_matrix(a, d))
    return rank


@pytest.mark.parametrize("n, l, degrees", [(1, 4, (2, 3, 5)), (2, 6, (3, 4, 5)),
                                           (3, 7, (3, 4)), (4, 9, (3, 4)), (3, 5, (2, 3))])
def test_general_spanning_sets_are_proved_in_the_modular_frame(exact_frames, n, l, degrees):
    # Rank modulo p of the tangent rows off the modular frame meets its
    # upper bound, so no exact frame is built.
    for seed in range(2):
        a = random_point_set(n, l, random.Random(100 * n + l + seed), bound=50)
        for d in degrees:
            assert _checked_rank(a, d) == min((n + 1) * l, comb(n + d, d))
    assert exact_frames == []


@st.composite
def spanning_sets_and_degrees(draw, dependent):
    """Small points of P^n, n + 2 to 2n + 3 of them, and a degree below
    2l - 1; with ``dependent``, point n is moved onto the line of points 0
    and 1, so the first n + 1 points are dependent (two distinct points
    never are, so then n >= 2)."""
    n = draw(st.integers(2 if dependent else 1, 3))
    l = draw(st.integers(n + 2, 2 * n + 3))
    rows = [list(p.primitive_coords) for p in draw(small_points(n, l))]
    if dependent:
        s, t = draw(st.integers(1, 3)), draw(st.integers(-3, 3).filter(bool))
        rows[n] = [s * x + t * y for x, y in zip(rows[0], rows[1])]
        assume(len({ProjectivePoint(r) for r in rows}) == l)
    return PointSet.from_rows(rows), draw(st.integers(2, min(5, 2 * l - 2)))


@settings(max_examples=60, deadline=None, derandomize=True)
@given(spanning_sets_and_degrees(dependent=False))
def test_the_modular_frame_matches_the_fraction_rank_on_spanning_sets(case):
    # Small coordinates put many draws in special position, where the
    # modular rank falls short and the exact path decides.
    _checked_rank(*case)


@settings(max_examples=40, deadline=None, derandomize=True)
@given(spanning_sets_and_degrees(dependent=True))
def test_sets_whose_first_points_are_dependent_take_the_exact_frame(case):
    a, d = case
    assert hilbert._standard_form(a, 1, a.ambient_dim + 1) is None
    _checked_rank(a, d)


@pytest.mark.parametrize("rows", PROFILE_CASES.values(), ids=PROFILE_CASES)
def test_special_sets_rank_exactly(rows):
    # Points of lines, conics and twisted cubics, congruent modulo p, or
    # with x_0 a multiple of p.
    a = PointSet.from_rows(rows)
    for d in range(2, min(5, 2 * len(a) - 2) + 1):
        _checked_rank(a, d)


@pytest.mark.parametrize("n, l", [(2, 5), (4, 14)])
def test_alexander_hirschowitz_quartics_meet_the_counted_bound_modulo_p(
        monkeypatch, exact_frames, n, l):
    # Every set of these shapes is one short of the expected rank, and the
    # count of ``_rank_bound`` says so: the rank modulo p meets that bound
    # in the modular frame, so no exact frame, certified rank or integer
    # kernel is taken.
    certified, kernels = [], []
    rank, kernel = terracini._certified_rank, linalg.integer_kernel
    monkeypatch.setattr(terracini, "_certified_rank",
                        lambda *args: certified.append(args) or rank(*args))
    for module in (hilbert, terracini, linalg):
        monkeypatch.setattr(module, "integer_kernel",
                            lambda rows: kernels.append(rows) or kernel(rows))
    for seed in range(2):
        a = random_point_set(n, l, random.Random(seed + 7), bound=50)
        assert hilbert._standard_form(a, 1, n + 1) is not None
        assert _checked_rank(a, 4) == comb(n + 4, 4) - 1
    assert exact_frames == [] and certified == [] and kernels == []


def _slots(v, ncols, width):
    """The ``ncols`` slots of a packed row, left to right, and what lies
    above them."""
    mask = (1 << width) - 1
    return [v >> (ncols - 1 - c) * width & mask for c in range(ncols)], v >> ncols * width


def _weighted(values, weights):
    """The values weighted as ``linalg._gathered_pivots_mod_p`` weights
    them: v[i] * weights[i] modulo p, then one 0."""
    return [[x * c % linalg._PRIME for x, c in zip(v, weights)] + [0] for v in values]


def _kept_columns(n, d):
    """The degree-d monomials with every exponent below d - 1: the columns
    the rows of the coordinate points of P^n do not hit."""
    return [e for e in monomial_basis(n, d) if max(e) < d - 1]


def _oracle_rows(coords, d):
    """The tangent forms L**(d-1) * x_j of every coordinate row, built by
    polynomial multiplication, as integer rows on the kept columns."""
    kept = _kept_columns(len(coords[0]) - 1, d)
    return [[int(form.get(e, 0)) for e in kept]
            for q in coords for form in tangent_forms(q, d)]


def _modular_witness_target(n, d, l):
    """The pivots ``terracini_dimension`` asks of the framed rows of l
    points: the counted bound ``_rank_bound(n, d, l)`` less the columns the
    frame rows hit."""
    return terracini._rank_bound(n, d, l) - comb(n + d, d) + len(_kept_columns(n, d))


@pytest.mark.parametrize("n, d, l", [(2, 4, 5), (4, 3, 7), (3, 4, 9), (4, 4, 9),
                                     (2, 8, 15), (5, 3, 10), (1, 5, 4)])
def test_witness_rows_are_packed_as_they_are_built(n, d, l):
    # The gathered rows are the tangent forms' own coefficients modulo p.
    # On exact and on reduced values, every width of leading block: the
    # rows written straight into the packed layout are, slot for slot,
    # ``_packed`` of the oracle's tangent forms, every slot is a residue,
    # and the block's pivots are those of the oracle rows.
    p = linalg._PRIME
    a = random_point_set(n, l, random.Random(31), bound=50)
    coords = hilbert._standard_form(a, 1, n + 1)
    kept, weights, index = terracini._tangent_index(n, d)
    assert [c for c, _ in kept] == [monomial_basis(n, d).index(e) for e in _kept_columns(n, d)]
    oracle = _oracle_rows(coords, d)
    exact = monomial_rows(coords, d - 1)
    for values in (exact, [[x % p for x in v] for v in exact]):
        weighted = _weighted(values, weights)
        for ncols in sorted({1, len(kept) // 2, len(kept) - 1, len(kept)} - {0}):
            width = 62 + min(len(oracle), ncols).bit_length()
            block = [row[:ncols] for row in oracle]
            packed = linalg._packed_gathered(weighted, index, ncols)
            assert packed == linalg._packed(block, width, 0)
            for v in packed:
                row_slots, above = _slots(v, ncols, width)
                assert above == 0 and all(0 <= x < p for x in row_slots)
            assert linalg._eliminate_mod_p(packed, ncols, ncols)[0] == pivot_columns_mod_p(block, p)
        for target in {1, _modular_witness_target(n, d, l), len(kept)}:
            assert (linalg._gathered_pivots_mod_p(values, weights, index, len(kept), target)
                    == pivot_columns_mod_p(oracle, p)[:target])


@settings(max_examples=80, deadline=None, derandomize=True)
@given(st.integers(1, 5), st.integers(2, 8), st.integers(0, 10), st.integers(0, 2**32),
       st.sampled_from([1, 2, 50, 10**12]))
def test_gathered_rows_have_the_pivots_of_the_tangent_forms(n, d, extra, seed, bound):
    # Random framed sets, some in special position (bound 1 or 2), some
    # with coordinates far above p: the gathered rows are ``_packed`` of
    # the oracle's tangent forms, and the gathered pass asked for the
    # witness target, and for every kept column, gives their pivot list.
    p = linalg._PRIME
    l = n + 2 + min(extra, comb(n + d, d) // (n + 1))
    assume(l <= (2 * bound + 1) ** n)
    coords = hilbert._standard_form(random_point_set(n, l, random.Random(seed), bound=bound),
                                    1, n + 1)
    assume(coords is not None)
    kept, weights, index = terracini._tangent_index(n, d)
    values = monomial_rows(coords, d - 1)
    oracle = _oracle_rows(coords, d)
    width = 62 + min(len(oracle), len(kept)).bit_length()
    assert (linalg._packed_gathered(_weighted(values, weights), index, len(kept))
            == linalg._packed(oracle, width, 0))
    for target in {_modular_witness_target(n, d, l), len(kept)} - {0}:
        assert (linalg._gathered_pivots_mod_p(values, weights, index, len(kept), target)
                == pivot_columns_mod_p(oracle, p)[:target])


def _sampled(n, d, l):
    """l random points of P^n, ``random_point_set`` at seed 0 and bound 50,
    and the degree d: a general set, whose first n + 1 points
    ``terracini_dimension`` carries into its modular frame."""
    return random_point_set(n, l, random.Random(0), bound=50), d


# Sets, degrees, and the (rows, cols, target) of every packed elimination
# that ``terracini_dimension`` takes in the modular frame.  At the
# Alexander-Hirschowitz defective sizes the counted target is one below
# the kept columns, and the leading block of that many columns meets it.
# (4, 3) at 7 is defective too, but no count sees it: its target is every
# kept column, and it falls short by one.  A general
# (4, 9, 4) is proved by its leading 20 of 45 columns.  Two plane sets have
# a leading block short of its target although target < kept, so every
# column is eliminated: the first reaches the target there, the second
# does not.
PACKED_WITNESSES = {
    "(2, 4) at 5": (_sampled(2, 4, 5), [(6, 5, 5)]),
    "(4, 3) at 7": (_sampled(4, 3, 7), [(10, 10, 10)]),
    "(3, 4) at 9": (_sampled(3, 4, 9), [(20, 18, 18)]),
    "(4, 9, 4)": ((random_points(4, 9, random.Random(94), bound=20), 4), [(20, 20, 20)]),
    "plane, short leading block": (
        (PointSet.from_rows([(2, 0, -1), (2, -1, 2), (1, -2, 2), (0, -1, -1),
                             (0, 2, -2), (0, 0, -1)]), 5), [(9, 9, 9), (9, 12, 9)]),
    "plane, short on every column": (
        (PointSet.from_rows([(1, 0, 1), (1, 0, 0), (1, 1, 0), (-1, 0, 1), (0, 0, -1)]), 5),
        [(6, 6, 6), (6, 12, 6)]),
}


@pytest.mark.parametrize("case", PACKED_WITNESSES.values(), ids=PACKED_WITNESSES)
def test_packed_witness_rows_keep_the_lower_bound_and_the_rank(monkeypatch, case):
    (a, d), shapes = case
    blocks, packs, lowers, pivots = [], [], [], []
    eliminate, certified = linalg._eliminate_mod_p, terracini._certified_rank
    gather = terracini._gathered_pivots_mod_p

    def counted(packed, ncols, target):
        blocks.append((len(packed), ncols, target))
        packs.append(packed)
        return eliminate(packed, ncols, target)

    def gathered(*args):
        with monkeypatch.context() as inside:
            inside.setattr(linalg, "_eliminate_mod_p", counted)
            pivots.append(gather(*args))
            return pivots[-1]

    def spied(framed, others, m, e, lower):
        lowers.append(lower)
        return certified(framed, others, m, e, lower)

    monkeypatch.setattr(terracini, "_gathered_pivots_mod_p", gathered)
    monkeypatch.setattr(terracini, "_certified_rank", spied)
    n, l = a.ambient_dim, len(a)
    rank = terracini_dimension(a, d).dim + 1
    assert rank == fraction_rank(_tangent_matrix(a, d))
    assert blocks == shapes
    # Every packed block is, slot for slot, ``_packed`` of the leading
    # columns of the oracle's tangent forms of the modular frame, and the
    # pivot list is theirs; its length is the lower bound, handed to the
    # exact path when it falls short of the target.
    oracle = _oracle_rows(hilbert._standard_form(a, 1, n + 1), d)
    for packed, (nrows, ncols, _) in zip(packs, blocks):
        block = [row[:ncols] for row in oracle]
        assert packed == linalg._packed(block, 62 + min(nrows, ncols).bit_length(), 0)
    target = _modular_witness_target(n, d, l)
    assert pivots == [pivot_columns_mod_p(oracle, linalg._PRIME)[:target]]
    lower = len(pivots[0])
    assert lowers == ([] if lower == target else [lower])


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
        raise AssertionError("an exact rank was taken")

    monkeypatch.setattr(terracini, "_certified_rank", refuse)
    a = PointSet.from_rows([(1, 0, 0), (0, 1, 0), (0, 0, 1), (1, 1, 1)])
    report = terracini_dimension(a, 3000)
    assert (report.dim, report.max_possible) == (11, 11)
