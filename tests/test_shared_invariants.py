"""Invariants read from one another, against the computations they replace.

The library reads each invariant from the place that already computes it:
h(d) above the separation degree and the span from the Hilbert profile, a
Veronese Kruskal rank from h(j) when C(n+j, j) >= len(A), the plane's
Kruskal rank from the collinearity search and the largest aligned subset
from a Kruskal rank of at least 3.  Each shortcut is checked here against
the full computation (subset sweeps, ``integer_rank`` on the rows, the
power-table monomial values of ``oracles``) on special and random sets of
P^1..P^4, and a patched ``integer_rank`` counts the ranks that are left.
"""

import random
from fractions import Fraction
from math import comb

import pytest
from hypothesis import given, settings, strategies as st

from waringcert import (
    PointSet,
    ProjectivePoint,
    certify,
    check_minimal,
    hilbert_function,
    hilbert_profile,
    integer_rank,
    kruskal_and_collinear,
    kruskal_rank,
    max_collinear_subset_size,
    monomial_values,
    span_dim,
    terracini_dimension,
    veronese_kruskal_rank,
)
from waringcert import hilbert, kruskal, linalg, terracini

from conftest import random_points
from oracles import brute_max_collinear, kruskal_by_subsets, monomial_values_by_powers

SETTINGS = dict(max_examples=40, deadline=None, derandomize=True)

F = Fraction


def rows_of(a):
    return [p.primitive_coords for p in a]


def oracle_rows(a, d):
    return monomial_values_by_powers(rows_of(a), d)


def fresh(a):
    """The same points in a new set, with nothing kept on it yet."""
    return PointSet(a.points)


SPECIAL = {
    "collinear triple in P^2": [(1, 0, 0), (0, 1, 0), (1, 1, 0)],
    "collinear triple in P^4": [(1, 2, 0, 1, 3), (0, 1, 1, 0, 2), (1, 3, 1, 1, 5)],
    "four coplanar points of P^3": [(1, 0, 0, 0), (0, 1, 0, 0), (0, 0, 1, 0), (1, 1, 1, 0)],
    "four coplanar points of P^3, three aligned":
        [(1, 0, 0, 0), (0, 1, 0, 0), (1, 1, 0, 0), (0, 0, 1, 0)],
    "six points on a conic": [(1, t, t * t) for t in range(6)],
    "five points of a plane of P^3": [(1, 0, 0, 0), (0, 1, 0, 0), (0, 0, 1, 0),
                                      (1, 1, 1, 0), (1, 2, 3, 0)],
    "six points of a plane of P^4, four aligned":
        [(1, 0, 0, 0, 0), (0, 1, 0, 0, 0), (1, 1, 0, 0, 0), (1, -1, 0, 0, 0),
         (0, 0, 1, 0, 0), (1, 2, 3, 0, 0)],
    "rational points of P^2": [(F(1, 2), F(-1, 3), 1), (0, F(3, 7), F(5, 2)),
                               (F(-2, 5), 1, 0), (1, F(1, 3), F(-4, 9)), (F(2, 3), 1, 1)],
    "rational collinear points of P^3": [(F(1, 2), 0, 1, 0), (0, F(1, 3), 0, 1),
                                         (F(1, 2), F(1, 3), 1, 1), (F(1, 4), F(1, 3), F(1, 2), 1)],
    "binary points": [(1, t) for t in range(-2, 4)],
    "singleton of P^1": [(3, 5)],
    "singleton of P^4": [(1, F(1, 2), 0, -3, 2)],
    "pair of P^3": [(1, 0, 2, 0), (0, 1, 0, 3)],
    "simplex of P^4": [tuple(int(i == j) for j in range(5)) for i in range(5)],
    "three independent points of P^4": [(1, 0, 0, 0, 0), (1, 1, 0, 0, 0), (1, 1, 1, 0, 0)],
    "two points and a third on their line in P^3": [(1, 2, 3, 4), (0, 1, 1, 1), (1, 3, 4, 5)],
}
SPECIAL_SETS = [pytest.param(PointSet.from_rows(rows), id=name) for name, rows in SPECIAL.items()]

coordinate = st.one_of(st.just(Fraction(0)), st.integers(-4, 4).map(Fraction),
                       st.fractions(min_value=-4, max_value=4, max_denominator=3))


@st.composite
def point_sets(draw, max_size=7):
    """Sets of P^1..P^4, some with points on the line of the first two or
    in the hyperplane x_n = 0."""
    n = draw(st.integers(1, 4))
    size = draw(st.integers(1, max_size))
    flat = draw(st.booleans()) and n >= 2
    row = st.lists(coordinate, min_size=n + 1, max_size=n + 1).filter(any)
    if flat:
        row = st.lists(coordinate, min_size=n, max_size=n).filter(any).map(lambda r: r + [0])
    rows = draw(st.lists(row, min_size=size, max_size=size,
                         unique_by=lambda r: ProjectivePoint(r)))
    if size >= 2:
        for s, t in draw(st.lists(st.tuples(st.integers(-3, 3), st.integers(-3, 3)).filter(any),
                                  max_size=2)):
            point = ProjectivePoint(s * x + t * y for x, y in zip(rows[0], rows[1]))
            if all(point != ProjectivePoint(r) for r in rows):
                rows.append(list(point.coords))
    return PointSet.from_rows(rows)


def check_rows(a):
    """Cold, warm and walked monomial values all equal the power table."""
    top = 5 if a.ambient_dim <= 2 else 3
    for d in range(top + 1):
        expected = tuple(map(tuple, oracle_rows(a, d)))
        cold = fresh(a)
        assert monomial_values(cold, d) == expected
        assert [key[1] for key in cold._memo if key[0] == "monomial_values"] == [d]
    walked = fresh(a)
    for d in range(top + 1):
        assert monomial_values(walked, d) == tuple(map(tuple, oracle_rows(a, d)))


def check_degree_one(a):
    """k_1, the largest aligned subset and the span against sweeps and ranks."""
    rows = rows_of(a)
    k, m = kruskal_and_collinear(fresh(a))
    assert k == kruskal_by_subsets(rows, integer_rank)
    assert m == brute_max_collinear(rows) == max_collinear_subset_size(fresh(a))
    assert kruskal_rank(fresh(a)) == k
    assert span_dim(fresh(a)) == integer_rank(rows) - 1


def check_hilbert_shortcuts(a):
    """k_j where C(n+j, j) >= len(a), and check_minimal above the separation
    degree, against sweeps and ranks of the degree's rows."""
    l = len(a)
    n = a.ambient_dim
    s = hilbert_profile(fresh(a)).separation_degree
    for j in range(1, max(s, 1) + 3):
        rows = oracle_rows(a, j)
        if comb(n + j, j) >= l and l <= 7:
            assert veronese_kruskal_rank(fresh(a), j) == kruskal_by_subsets(rows, integer_rank)
        assert check_minimal(fresh(a), j) == (integer_rank(rows) == l)
        assert hilbert_profile(fresh(a)).value_at(j) == integer_rank(rows)


@pytest.mark.parametrize("a", SPECIAL_SETS)
def test_special_sets_match_the_full_computations(a):
    check_rows(a)
    check_degree_one(a)
    check_hilbert_shortcuts(a)


@settings(**SETTINGS)
@given(point_sets())
def test_random_sets_match_the_full_computations(a):
    check_rows(a)
    check_degree_one(a)
    check_hilbert_shortcuts(a)


def test_special_sets_take_the_expected_routes():
    conic = PointSet.from_rows(SPECIAL["six points on a conic"])
    assert hilbert_profile(conic).values == (1, 3, 5, 6)
    assert veronese_kruskal_rank(conic, 2) == 5
    coplanar = PointSet.from_rows(SPECIAL["four coplanar points of P^3"])
    assert kruskal_and_collinear(coplanar) == (3, 2)
    aligned = PointSet.from_rows(SPECIAL["four coplanar points of P^3, three aligned"])
    assert kruskal_and_collinear(aligned) == (2, 3)
    assert kruskal_and_collinear(PointSet.from_rows(SPECIAL["binary points"])) == (2, 6)
    assert kruskal_and_collinear(PointSet.from_rows(SPECIAL["singleton of P^4"])) == (1, 1)


def test_the_plane_reads_k1_from_collinearity_and_space_reads_collinearity_from_k1(monkeypatch):
    def refuse(*args):
        raise AssertionError("not expected here")

    rng = random.Random(5)
    monkeypatch.setattr(kruskal, "_all_subsets_independent", refuse)
    for size in (3, 6, 12):
        a = random_points(2, size, rng)
        assert kruskal_rank(a) == kruskal_by_subsets(rows_of(a), integer_rank)
    monkeypatch.undo()
    monkeypatch.setattr(kruskal, "max_collinear_subset_size", refuse)
    for n, size in ((3, 9), (4, 7), (4, 3)):
        a = random_points(n, size, rng, bound=20)
        assert kruskal_and_collinear(a)[1] == 2 == brute_max_collinear(rows_of(a))


def test_memoized_rows_cannot_be_mutated():
    a = PointSet.from_rows([(1, 2, 3), (0, 1, -1), (2, 0, 5)])
    rows = monomial_values(a, 2)
    with pytest.raises(TypeError):
        rows[0][0] = 7
    with pytest.raises(AttributeError):
        rows.append((1,) * 6)
    copy = [list(r) for r in rows]
    copy[0][0] = 7
    assert monomial_values(a, 2) is rows
    assert rows == tuple(map(tuple, oracle_rows(a, 2)))
    assert hilbert_function(a, 2) == 3


@pytest.fixture
def rank_calls(monkeypatch):
    """The (rows, cols) shape of every ``integer_rank`` call, in order."""
    calls = []
    original = linalg.integer_rank

    def counted(rows, kernel=None):
        rows = list(rows)
        calls.append((len(rows), len(rows[0]) if rows else 0))
        return original(rows, kernel=kernel)

    for module in (linalg, hilbert, terracini):
        monkeypatch.setattr(module, "integer_rank", counted)
    return calls


@pytest.fixture
def profile_passes(monkeypatch):
    """The (rows, cols, target) of every modular pass of the Hilbert profile."""
    calls = []
    original = hilbert._pivots_mod_p

    def counted(rows, target):
        calls.append((len(rows), len(rows[0]), target))
        return original(rows, target)

    monkeypatch.setattr(hilbert, "_pivots_mod_p", counted)
    return calls


def general_points(n, size, seed):
    return random_points(n, size, random.Random(seed), bound=20)


# (n, len, d) shapes of certify, special and general, with d above the
# separation degree in most of them.
CERTIFY_SHAPES = [(4, 9, 4), (4, 7, 3), (3, 12, 5), (2, 13, 9), (2, 16, 6),
                  (2, 5, 4), (1, 6, 9), (3, 4, 5), (4, 1, 3)]


def test_certify_takes_no_rank_of_degree_d_rows_above_separation(rank_calls):
    for n, size, d in CERTIFY_SHAPES:
        a = general_points(n, size, 7 * size + d)
        s = hilbert_profile(fresh(a)).separation_degree
        rank_calls.clear()
        cert = certify(a, d)
        assert cert.verdict.value != "NotMinimal"
        if d > s:
            assert (size, comb(n + d, d)) not in rank_calls
        # Every other rank of l rows is the walk's, up to degree s, or the
        # span's h(1), which a singleton (s = 0) still takes.
        top = max(s, 1)
        assert all(cols <= comb(n + top, top) or rows > size for rows, cols in rank_calls)


def test_certify_ranks_the_degree_one_rows_once(rank_calls):
    # The span is h(1) - 1, read from the profile.  Its one modular pass
    # ranks the degree-1 rows as the first n + 1 columns of the degree-t
    # rows, and where the points span less, h(1) is the size of their
    # frame: no integer_rank of the degree-1 rows is taken.
    sets = [general_points(n, size, size) for n, size, _ in CERTIFY_SHAPES]
    sets.append(PointSet.from_rows(SPECIAL["six points of a plane of P^4, four aligned"]))
    sets.append(PointSet.from_rows(SPECIAL["binary points"]))
    for a, d in zip(sets, [4, 3, 5, 9, 6, 4, 9, 5, 3, 3, 2]):
        rank_calls.clear()
        cert = certify(a, d)
        assert (len(a), a.ambient_dim + 1) not in rank_calls
        assert cert.diagnostics.span_dim == integer_rank(rows_of(a)) - 1


def test_certify_4_9_4_takes_no_9_by_70_rank(rank_calls):
    a = general_points(4, 9, 94)
    cert = certify(a, 4)
    assert cert.verdict.value == "Identifiable"
    assert (9, 70) not in rank_calls
    # The profile's one modular pass proves h(1) and h(2) with no rank;
    # what is left is the quartic's Terracini rank: the 20 rows of the
    # four points off the frame, on the 45 of 70 columns that the frame's
    # tangent rows miss.
    assert rank_calls == [(20, 45)]


@pytest.mark.parametrize("n, size, d, shape", [(4, 7, 3, (10, 10)), (2, 5, 4, (6, 6)),
                                               (5, 10, 3, (24, 20))])
def test_terracini_ranks_only_the_rows_off_the_frame(rank_calls, n, size, d, shape):
    # (n+1)(l - n - 1) rows, on the C(n+d, d) - |C| columns the (n+1)**2
    # unit rows of the frame points miss.
    a = general_points(n, size, 10 * size + d)
    terracini_dimension(a, d)
    assert rank_calls == [shape]


@pytest.mark.parametrize("n, size", [(1, 1), (1, 2), (2, 3), (3, 2), (4, 3), (4, 5)])
def test_independent_points_take_no_terracini_rank(rank_calls, n, size):
    a = general_points(n, size, 11 * size + n)
    assert span_dim(a) == size - 1
    rank_calls.clear()
    for d in (2, 3, 4):
        report = terracini_dimension(a, d)
        # In degree 2 two tangent spaces share L_p * L_q.
        assert report.tangents_independent == (d > 2 or size == 1)
    assert rank_calls == []


def test_not_minimal_note_reads_h_from_the_profile(rank_calls, profile_passes):
    a = PointSet.from_rows([(1, t) for t in range(5)])
    cert = certify(a, 2)
    assert cert.verdict.value == "NotMinimal"
    assert "(h(2) = 3 < 5)" in cert.notes[0]
    # One pass over the 5 x 5 rows of degree t = 4 proves the profile.
    assert profile_passes == [(5, 5, 5)]
    assert rank_calls == []


def test_one_certify_builds_one_hilbert_profile(monkeypatch):
    # certify, check_minimal, reshaped_kruskal and the Veronese Kruskal
    # ranks all read the profile kept on the set.
    built = []
    original = hilbert.HilbertProfile.__post_init__

    def counted(profile):
        built.append(profile.set_size)
        original(profile)

    monkeypatch.setattr(hilbert.HilbertProfile, "__post_init__", counted)
    sets = [general_points(n, size, 7 * size + d) for n, size, d in CERTIFY_SHAPES]
    sets += [PointSet.from_rows(rows) for rows in SPECIAL.values()]
    for a in sets:
        for d in (2, 3, 5):
            built.clear()
            certify(fresh(a), d)
            assert built == [len(a)]


# The certify shapes (n, len, d) of the benchmark's wide and plane mixes.
BENCHMARK_SHAPES = [(4, 7, 3), (3, 9, 4), (3, 11, 3), (4, 9, 4), (3, 12, 2), (3, 12, 5),
                    (4, 10, 4), (1, 4, 9), (2, 5, 4), (1, 6, 9), (2, 9, 6), (2, 11, 10),
                    (2, 13, 9), (2, 14, 6), (2, 15, 7), (2, 16, 6)]


def test_general_sets_of_the_benchmark_shapes_take_no_exact_hilbert_rank(
        monkeypatch, profile_passes):
    # One modular pass proves every value: no degree falls back to an
    # exact rank, and no set needs its frame.
    def refuse(*args):
        raise AssertionError("not expected here")

    monkeypatch.setattr(hilbert, "_exact_value", refuse)
    monkeypatch.setattr(hilbert, "_frame", refuse)
    for n, size, d in BENCHMARK_SHAPES:
        t = next(j for j in range(size) if comb(n + j, j) >= size)
        for seed in range(3):
            profile_passes.clear()
            a = general_points(n, size, 100 * size + 10 * d + seed)
            values = hilbert_profile(a).values
            assert values == tuple(min(size, comb(n + j, j)) for j in range(t + 1))
            assert profile_passes == [(size, comb(n + t, t), size)]


def test_a_profile_keeps_its_range_when_read_again():
    a = general_points(2, 6, 3)
    p = hilbert_profile(a)
    assert hilbert_profile(a) is p
    assert p.values == (1, 3, 6)
