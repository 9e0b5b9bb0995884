"""Hilbert functions, profiles, separation, Cayley-Bacharach, and spans."""

import random
from math import comb

import pytest
from hypothesis import assume, given, settings, strategies as st

from waringcert import (
    HilbertProfile,
    PointSet,
    ProjectivePoint,
    check_gkr_inequality,
    gup_cutoff,
    hilbert_function,
    hilbert_profile,
    kruskal_rank,
    monomial_values,
    satisfies_cb,
    separates_point,
    span_dim,
    span_intersection_dim,
    union_profile_drop,
)
from waringcert import hilbert, linalg

from conftest import random_points
from oracles import fraction_rank, monomial_values_by_powers


def conic_points(count):
    return PointSet.from_rows([(1, t, t * t) for t in range(count)])


LINE5_PLUS_1 = PointSet.from_rows(
    [(1, t, 0) for t in range(5)] + [(0, 0, 1)])
GENERAL6 = PointSet.from_rows(
    [(1, 0, 0), (0, 1, 0), (0, 0, 1), (1, 1, 1), (1, 2, 3), (1, 4, 5)])
ALIGNED4 = PointSet.from_rows(
    [(1, 0, 0), (1, 1, 0), (1, 2, 0), (0, 0, 1)])
COLLINEAR3 = PointSet.from_rows([(1, 0, 0), (1, 1, 0), (1, 2, 0)])


def test_evaluation_matrix_degree_zero():
    a = conic_points(4)
    assert monomial_values(a, 0) == ((1,),) * 4
    assert hilbert_function(a, 0) == 1


def test_evaluation_matrix_coordinate_pair():
    a = PointSet.from_rows([(1, 0), (0, 1)])
    assert monomial_values(a, 1) == ((1, 0), (0, 1))


def test_evaluation_matrix_binary_vandermonde():
    a = PointSet.from_rows([(1, t) for t in range(3)])
    assert monomial_values(a, 2) == ((1, 0, 0), (1, 1, 1), (1, 2, 4))
    assert hilbert_function(a, 2) == 3


def test_hilbert_function_conic_profile():
    a = conic_points(6)
    assert [hilbert_function(a, d) for d in range(4)] == [1, 3, 5, 6]
    assert hilbert_profile(a).h_vector == (1, 2, 2, 1)


def test_hilbert_function_line_profile():
    assert hilbert_profile(LINE5_PLUS_1).h_vector == (1, 2, 1, 1, 1)


def test_hilbert_function_general_six():
    assert hilbert_profile(GENERAL6).h_vector == (1, 2, 3)
    assert hilbert_function(GENERAL6, 2) == 6


def test_hilbert_function_aligned_four():
    assert hilbert_profile(ALIGNED4).h_vector == (1, 2, 1)


def test_hilbert_function_singleton_and_negative_degrees():
    single = PointSet.from_rows([(1, 2, 3)])
    assert hilbert_profile(single).h_vector == (1,)
    assert hilbert_function(single, -1) == 0
    assert hilbert_function(conic_points(3), -2) == 0


P = linalg._PRIME


def check_profile(a):
    """Every value of the profile, and one degree past the separation
    degree, against the fraction rank of the oracle monomial rows."""
    profile = hilbert_profile(a)
    rows = [p.primitive_coords for p in a]
    top = profile.separation_degree + 1
    expected = [fraction_rank(monomial_values_by_powers(rows, j)) for j in range(top + 1)]
    assert [profile.value_at(j) for j in range(top + 1)] == expected
    assert [hilbert_function(a, j) for j in range(top + 1)] == expected


def twisted(m, n, ts):
    """Points (1 : t : ... : t**m) of a rational normal curve of degree m,
    in the first m + 1 coordinates of P^n."""
    return [[t ** i for i in range(m + 1)] + [0] * (n - m) for t in ts]


PROFILE_CASES = {
    "singleton": [(0, 3, -2)],
    "binary": [(1, t) for t in range(-3, 4)],
    "x_0 zero modulo p": [(P, 1, 0), (0, 1, 2), (1, 0, 0), (2, -1, 5)],
    "congruent modulo p": [(1, 0, 0), (1, P, 0), (0, 1, 0), (0, 0, 1), (1, 1, 1)],
    "on two lines": [(1, 1, 0), (1, 2, 0), (1, 3, 0), (1, 0, 1), (1, 0, 2)],
    "collinear in P^3": twisted(1, 3, range(6)),
    "conic in P^2": twisted(2, 2, range(7)),
    "conic in P^4": twisted(2, 4, range(-2, 5)),
    "twisted cubic": twisted(3, 3, range(1, 9)),
    "twisted cubic in P^5": twisted(3, 5, range(-3, 4)),
}


@pytest.mark.parametrize("rows", PROFILE_CASES.values(), ids=PROFILE_CASES)
def test_profile_matches_the_fraction_rank_of_every_degree(rows):
    check_profile(PointSet.from_rows(rows))


def test_the_chart_moves_off_points_with_x0_zero_modulo_p():
    a = PointSet.from_rows(PROFILE_CASES["x_0 zero modulo p"])
    chart = hilbert._chart([p.primitive_coords for p in a])
    assert all(row[0] % P for row in chart)
    assert [row[1:] for row in chart] == [p.primitive_coords[1:] for p in a]


@pytest.mark.parametrize("name, values, exact_degrees", [
    # (1, 0, 0) and (1, p, 0) have equal rows modulo p, so the pass stops
    # at rank 4 of 5 and degree 2 is ranked exactly; degree 1 is proved.
    ("congruent modulo p", (1, 3, 5), [2]),
    # The conic x1*x2 through the points zeroes the fifth column of the
    # degree-2 rows, so the fifth pivot is the sixth column: still below
    # N_2 = 6, and h(2) = 5 is proved by the pass.
    ("on two lines", (1, 3, 5), []),
])
def test_the_pass_proves_a_degree_exactly_when_its_pivots_reach_the_bound(
        monkeypatch, name, values, exact_degrees):
    exact = []
    original = hilbert._exact_value

    def counted(a, d):
        exact.append(d)
        return original(a, d)

    monkeypatch.setattr(hilbert, "_exact_value", counted)
    a = PointSet.from_rows(PROFILE_CASES[name])
    assert hilbert_profile(a).values == values
    assert exact == exact_degrees


# Sets on a line, some with points congruent modulo p: (1 : t) and
# (1 : t + p) are distinct points with equal rows modulo p.
LINE_CASES = {
    "binary": (1, [(1, t) for t in range(-3, 4)]),
    "binary, congruent modulo p": (1, [(1, 0), (1, P), (1, 1), (1, 1 + P), (0, 1),
                                       (2, 1 + 2 * P)]),
    "binary pair, congruent modulo p": (1, [(1, 5), (1, 5 + P)]),
    "binary singleton": (1, [(3, -2)]),
    "a line of P^3": (3, [(1, 2 + t, 3 * t, -1 + 2 * t) for t in range(-3, 3)]
                      + [(0, 1, 3, 2), (1, 2 + P, 3 * P, -1 + 2 * P)]),
}


@pytest.mark.parametrize("n, rows", LINE_CASES.values(), ids=LINE_CASES)
def test_a_set_on_a_line_has_the_profile_of_a_vandermonde_matrix(monkeypatch, n, rows):
    # h(j) = min(l, j + 1), with no pass and no exact rank in P^1, and in
    # P^3 the one pass of the set's own rows, which falls short at degree
    # 1 and hands the set to its frame of two points.
    passes, exact = [], []
    pivots, exact_value = hilbert._pivots_mod_p, hilbert._exact_value

    def counted_pass(rows, target):
        passes.append(len(rows))
        return pivots(rows, target)

    def counted_exact(rows_of, d):
        exact.append(d)
        return exact_value(rows_of, d)

    monkeypatch.setattr(hilbert, "_pivots_mod_p", counted_pass)
    monkeypatch.setattr(hilbert, "_exact_value", counted_exact)
    a = PointSet.from_rows(rows)
    assert a.ambient_dim == n
    assert hilbert_profile(a).values == tuple(range(1, len(a) + 1))
    assert passes == ([] if n == 1 else [len(a)])
    assert exact == []
    check_profile(a)


@pytest.mark.parametrize("n", [2, 3, 4])
def test_the_pass_runs_in_the_cutoff_degree(monkeypatch, n):
    # One pass over the rows of degree gup_cutoff(n, l), the least j >= 1
    # with C(n+j, n) >= l, and stopping at rank l; a single point takes a
    # one-row pass of degree 1, and its profile is (1,).
    passes = []
    pivots = hilbert._pivots_mod_p

    def counted(rows, target):
        passes.append((len(rows), len(rows[0]), target))
        return pivots(rows, target)

    monkeypatch.setattr(hilbert, "_pivots_mod_p", counted)
    for l in range(1, 12):
        passes.clear()
        a = random_points(n, l, random.Random(10 * n + l), bound=50)
        values = hilbert_profile(a).values
        assert passes[0] == (l, comb(n + gup_cutoff(n, l), n), l)
        assert values == tuple(min(l, comb(n + j, n)) for j in range(len(values)))
        if l == 1:
            assert passes == [(1, n + 1, 1)] and values == (1,)


@st.composite
def profile_sets(draw):
    """Sets of P^1..P^5 that reach every branch of the profile: general
    points; points of a line, a conic or a twisted cubic of a subspace,
    moved by a unimodular matrix, whose h is below its largest value; a
    point with x_0 a multiple of the prime, so the chart takes c > 0; and
    a point congruent modulo the prime to another."""
    n = draw(st.integers(1, 5))
    size = draw(st.integers(1, 7 if n <= 3 else 5))
    m = draw(st.integers(0, min(3, n)))
    if m:
        ts = draw(st.lists(st.integers(-4, 4), min_size=size, max_size=size, unique=True))
        shear = draw(st.lists(st.integers(-2, 2), min_size=n, max_size=n))
        rows = [[r[0] + sum(x * y for x, y in zip(shear, r[1:]))] + r[1:]
                for r in twisted(m, n, ts)]
    else:
        rows = draw(st.lists(st.lists(st.integers(-4, 4), min_size=n + 1, max_size=n + 1)
                             .filter(any), min_size=size, max_size=size))
    if draw(st.booleans()):
        rows[0][0] = P * draw(st.integers(-1, 1))
    if draw(st.booleans()):
        rows.append([rows[-1][0], rows[-1][1] + P * draw(st.sampled_from((-1, 1))),
                     *rows[-1][2:]])
    points = []
    for r in rows:
        if any(r) and ProjectivePoint(r) not in points:
            points.append(ProjectivePoint(r))
    assume(points)
    return PointSet(points)


@settings(max_examples=120, deadline=None, derandomize=True)
@given(profile_sets())
def test_random_profiles_match_the_fraction_rank_of_every_degree(a):
    check_profile(a)


def test_hilbert_degree_one_is_span_dim_plus_one():
    rng = random.Random(21)
    for _ in range(20):
        a = random_points(rng.choice([1, 2, 3]), rng.randint(1, 7), rng)
        assert hilbert_function(a, 1) == span_dim(a) + 1


def test_profile_accessors():
    p = HilbertProfile((1, 3, 5, 6))
    assert p.set_size == 6
    assert [p.value_at(d) for d in range(6)] == [1, 3, 5, 6, 6, 6]
    assert p.value_at(-1) == 0
    assert p.value_at(100) == 6
    assert p.separation_degree == 3
    assert p.h_vector == (1, 2, 2, 1)


def test_profile_validation_rejects_bad_data():
    for values in [
        (), (2, 2), (0, 1),           # h(0) != 1
        (1, 3, 2),                    # h decreases
        (1, 1), (1, 2, 2),            # the set size is reached before the end
        (1, 1, 2), (1, 2, 2, 3),      # not stabilised by degree set_size - 1
    ]:
        with pytest.raises(ValueError):
            HilbertProfile(values)


def test_profile_extension_beyond_stabilization():
    p = hilbert_profile(conic_points(4))
    assert p.values == (1, 3, 4)
    assert [p.value_at(d) for d in range(3, 8)] == [4, 4, 4, 4, 4]
    assert p.value_at(10 ** 9) == 4


def test_is_separated_examples():
    rng = random.Random(22)
    for _ in range(10):
        a = random_points(rng.choice([1, 2]), rng.randint(1, 6), rng)
        assert hilbert_function(a, len(a) - 1) == len(a)
    assert hilbert_function(COLLINEAR3, 1) != len(COLLINEAR3)
    assert hilbert_function(COLLINEAR3, 2) == len(COLLINEAR3)


def test_separation_from_kruskal_rank_bound():
    rng = random.Random(23)
    for _ in range(10):
        a = random_points(rng.choice([2, 3]), rng.randint(2, 7), rng)
        if len(a) <= 2 * kruskal_rank(a) - 1:
            assert hilbert_function(a, 2) == len(a)


def test_separates_point_examples():
    assert separates_point(LINE5_PLUS_1, 5, 1)
    assert not separates_point(LINE5_PLUS_1, 0, 1)
    for i in range(3):
        assert not separates_point(COLLINEAR3, i, 1)
    simplex = PointSet.from_rows([(1, 0, 0), (0, 1, 0), (0, 0, 1)])
    for i in range(3):
        assert separates_point(simplex, i, 1)
    single = PointSet.from_rows([(1, 1)])
    assert separates_point(single, 0, 0)
    with pytest.raises(IndexError):
        separates_point(simplex, 3, 1)


def test_gkr_check_rejects_a_negative_degree():
    with pytest.raises(ValueError):
        check_gkr_inequality(hilbert_profile(GENERAL6), -1)


@pytest.mark.parametrize("a", [GENERAL6, PointSet.from_rows([(1, 1)])],
                         ids=["six-points", "singleton"])
def test_no_point_is_separated_in_a_negative_degree(a):
    assert separates_point(a, 0, -1) is False


def test_satisfies_cb_examples():
    assert not satisfies_cb(ALIGNED4, 1)
    assert satisfies_cb(conic_points(6), 2)
    assert not satisfies_cb(GENERAL6, 2)
    assert not satisfies_cb(PointSet.from_rows([(1, 5)]), 0)
    with pytest.raises(ValueError):
        satisfies_cb(GENERAL6, -1)


@pytest.mark.parametrize("n", [1, 2, 3])
def test_a_singleton_is_separated_in_every_degree_and_never_cayley_bacharach(n):
    # Its one nonzero row of monomial values has no relation.
    a = PointSet.from_rows([tuple(range(1, n + 2))])
    for d in range(4):
        assert separates_point(a, 0, d) is True
        assert satisfies_cb(a, d) is False


def test_the_frame_and_the_degree_1_separation_tests_take_one_kernel(monkeypatch):
    # Six points spanning a plane of P^3, (a : b : c : a + b + c): the frame
    # and every degree-1 separation and Cayley-Bacharach test read the one
    # kernel of the transposed primitive rows kept on the set.
    taken = []
    kernel = hilbert.integer_kernel

    def counted(rows):
        taken.append(rows)
        return kernel(rows)

    monkeypatch.setattr(hilbert, "integer_kernel", counted)
    a = PointSet.from_rows([(1, 0, 0, 1), (0, 1, 0, 1), (0, 0, 1, 1), (1, 1, 1, 3),
                            (1, 2, 3, 6), (2, -1, 1, 2)])
    frame, framed = hilbert._frame(a)
    assert frame == (0, 1, 2)
    assert [separates_point(a, i, 1) for i in range(len(a))] == [False] * len(a)
    assert satisfies_cb(a, 1)
    assert taken == [list(zip(*(p.primitive_coords for p in a)))]


def small_point_sets():
    # Some points are put on the hyperplane x_n = 0, so that in low degree
    # some points are separated and others are not.
    def sets(n, size):
        row = st.tuples(st.lists(st.integers(-1, 2), min_size=n + 1, max_size=n + 1),
                        st.booleans()).map(lambda r: r[0][:-1] + [0] if r[1] else r[0])
        return st.lists(row.filter(any), min_size=size, max_size=size,
                        unique_by=lambda r: ProjectivePoint(r)).map(PointSet.from_rows)
    return st.tuples(st.integers(2, 3), st.integers(2, 8)).flatmap(lambda shape: sets(*shape))


@settings(max_examples=150, deadline=None, derandomize=True)
@given(small_point_sets(), st.integers(0, 3))
def test_separation_matches_the_per_point_rank_definition(a, d):
    # Point j is separated in degree d exactly when dropping its row of
    # monomial values lowers the rank by one; ranks over Fraction.
    rows = monomial_values_by_powers([p.primitive_coords for p in a], d)
    full = fraction_rank(rows)
    separated = [fraction_rank(rows[:j] + rows[j + 1:]) == full - 1 for j in range(len(a))]
    assert [separates_point(a, j, d) for j in range(len(a))] == separated
    assert satisfies_cb(a, d) == (not any(separated))


def test_cb_is_downward_closed():
    for a in (conic_points(6), LINE5_PLUS_1, GENERAL6):
        top = len(a) - 1
        flags = [satisfies_cb(a, i) for i in range(top)]
        for i in range(1, top):
            if flags[i]:
                assert flags[i - 1]


def test_cb_implies_not_separated_and_gkr():
    for a in (conic_points(6), LINE5_PLUS_1, GENERAL6, ALIGNED4):
        profile = hilbert_profile(a)
        for i in range(len(a) - 1):
            if satisfies_cb(a, i):
                assert hilbert_function(a, i) < len(a)
                assert check_gkr_inequality(profile, i)


def test_gkr_frozen_values():
    # h-vectors (1, 2, 2, 1), (1, 2, 1, 1, 1), (1,) and (1, 2, 3).
    conic = HilbertProfile((1, 3, 5, 6))
    assert check_gkr_inequality(conic, 2)
    line = HilbertProfile((1, 3, 4, 5, 6))
    assert check_gkr_inequality(line, 1)
    assert not check_gkr_inequality(line, 2)
    single = HilbertProfile((1,))
    assert not check_gkr_inequality(single, 0)
    general = HilbertProfile((1, 3, 6))
    assert check_gkr_inequality(general, 1)
    assert not check_gkr_inequality(general, 2)


def test_union_profile_drop_examples():
    a = PointSet.from_rows([(1, 0), (0, 1)])
    b = PointSet.from_rows([(1, 1), (1, -1)])
    assert union_profile_drop(a, b, 2)
    general = PointSet.from_rows([(1, 0, 0), (0, 1, 0), (0, 0, 1)])
    assert not union_profile_drop(general, general, 2)
    crowded = PointSet.from_rows([(1, t) for t in range(5)])
    assert union_profile_drop(crowded, crowded, 3)


def test_union_profile_drop_false_for_small_binary_unions():
    rng = random.Random(24)
    for _ in range(15):
        d = rng.randint(2, 8)
        total = rng.randint(2, d + 1)
        la = rng.randint(1, total - 1)
        z = random_points(1, total, rng)
        a, b = PointSet(z.points[:la]), PointSet(z.points[la:])
        assert not union_profile_drop(a, b, d)


def test_span_intersection_dim_examples():
    a = PointSet.from_rows([(1, 0), (0, 1)])
    b = PointSet.from_rows([(1, 1), (1, -1)])
    assert span_intersection_dim(a, b, 2) == 0
    c = PointSet.from_rows([(1, 2), (1, 3)])
    d = PointSet.from_rows([(1, 5), (1, 7)])
    assert span_intersection_dim(c, d, 3) == -1
    six = conic_points(6)
    assert span_intersection_dim(PointSet(six.points[:3]), PointSet(six.points[3:]), 2) == 0
    with pytest.raises(ValueError):
        span_intersection_dim(a, PointSet.from_rows([(1, 0), (1, 4)]), 2)
