"""Kruskal ranks, position properties, and the reshaping criterion."""

import importlib
import random
from itertools import product
from math import comb
from pathlib import Path

import pytest
from hypothesis import given, settings, strategies as st

from waringcert import hilbert, kruskal, linalg
from waringcert import (
    KruskalReport,
    PointSet,
    ProjectivePoint,
    certify,
    degree_partitions,
    gup_cutoff,
    hilbert_function,
    is_gup,
    is_lgp,
    kruskal_rank,
    reshaped_kruskal,
    span_dim,
    veronese_kruskal_rank,
)
from waringcert.cli import parse_point_file

from conftest import corpus, random_points
from oracles import (brute_max_collinear, fraction_rank, kruskal_by_subsets,
                     monomial_values_by_powers, reshaped_kruskal_by_count_caps,
                     reshaped_kruskal_by_profile_caps, reshaped_kruskal_table,
                     tangent_forms)


def simplex_plus_ones(n):
    rows = [[1 if i == j else 0 for j in range(n + 1)] for i in range(n + 1)]
    rows.append([1] * (n + 1))
    return PointSet.from_rows(rows)


ALIGNED4 = PointSet.from_rows(
    [(1, 0, 0), (1, 1, 0), (1, 2, 0), (0, 0, 1)])
COLLINEAR3 = PointSet.from_rows([(1, 0, 0), (1, 1, 0), (1, 2, 0)])


def rational_normal_curve(n, count):
    return PointSet.from_rows(
        [[t ** k for k in range(n + 1)] for t in range(count)])


def test_kruskal_rank_simplex_plus_ones():
    for n in (2, 3):
        a = simplex_plus_ones(n)
        assert kruskal_rank(a) == n + 1
        assert is_lgp(a)


def test_kruskal_rank_aligned_and_small_sets():
    assert kruskal_rank(ALIGNED4) == 2
    assert not is_lgp(ALIGNED4)
    assert kruskal_rank(PointSet.from_rows([(1, 2, 3)])) == 1
    assert kruskal_rank(PointSet.from_rows([(1, 0), (1, 1)])) == 2
    # Collinear in P^3: h_A(1) = 2 gives k_1 = 2 with no sweep.
    assert kruskal_rank(PointSet.from_rows([(1, 0, 0, 0), (1, 1, 0, 0), (1, 2, 0, 0)])) == 2


def test_kruskal_rank_binary_sets_always_lgp():
    a = PointSet.from_rows([(1, t) for t in range(6)])
    assert kruskal_rank(a) == 2
    assert is_lgp(a)


def test_rational_normal_curve_is_lgp():
    a = rational_normal_curve(3, 7)
    assert kruskal_rank(a) == 4
    assert is_lgp(a)


def test_three_collinear_breaks_lgp():
    assert not is_lgp(COLLINEAR3)


def test_veronese_kruskal_rank_degree_one():
    rng = random.Random(31)
    for _ in range(8):
        a = random_points(rng.choice([1, 2, 3]), rng.randint(1, 6), rng)
        assert veronese_kruskal_rank(a, 1) == kruskal_rank(a)


def test_veronese_kruskal_rank_doubles_general_sets():
    for n in (2, 3):
        a = random_points(n, 2 * n + 1, random.Random(100 + n), bound=20)
        assert veronese_kruskal_rank(a, 2) == 2 * n + 1


def test_veronese_kruskal_rank_collinear_squares():
    assert veronese_kruskal_rank(COLLINEAR3, 2) == 3


def test_gup_cutoff_values():
    assert gup_cutoff(2, 3) == 1
    assert gup_cutoff(2, 5) == 2
    assert gup_cutoff(2, 6) == 2
    assert gup_cutoff(2, 7) == 3
    assert gup_cutoff(3, 4) == 1
    assert gup_cutoff(1, 6) == 5
    # One home, in hilbert, whose profile pass runs in this degree.
    assert gup_cutoff is kruskal.gup_cutoff is hilbert.gup_cutoff


def test_is_gup_conic_examples():
    conic5 = PointSet.from_rows([(1, t, t * t) for t in range(5)])
    assert is_gup(conic5)
    conic6 = PointSet.from_rows([(1, t, t * t) for t in range(6)])
    assert not is_gup(conic6)


def test_is_gup_collinear_failure_and_small_sets():
    a = ALIGNED4
    assert not is_gup(a)
    simplex = PointSet.from_rows([(1, 0, 0), (0, 1, 0), (0, 0, 1)])
    assert is_gup(simplex)


def test_degree_partitions_order():
    assert degree_partitions(3) == ((1, 1, 1),)
    assert degree_partitions(4) == ((1, 1, 2),)
    assert degree_partitions(5) == ((1, 1, 3), (1, 2, 2))
    assert degree_partitions(7) == (
        (1, 1, 5), (1, 2, 4), (1, 3, 3), (2, 2, 3))
    for d in range(3, 13):
        # Every sorted triple of positive parts, by descending largest part,
        # then ascending smallest; the same tuple on every call.
        triples = {tuple(sorted(t)) for t in product(range(1, d + 1), repeat=3)
                   if sum(t) == d}
        brute = tuple(sorted(triples, key=lambda t: (-t[2], t[0])))
        assert degree_partitions(d) == brute
        assert degree_partitions(d) is degree_partitions(d)
    # A bad degree raises on every call: errors are not cached.
    for _ in range(2):
        with pytest.raises(ValueError):
            degree_partitions(2)


def _bound(rep):
    """(k_a + k_b + k_c - 2) // 2, the largest set size a report's ranks allow."""
    return (sum(rep.ranks) - 2) // 2


def _passes(rep):
    """Whether a report's partition passes: 2*set_size <= k_a + k_b + k_c - 2."""
    return 2 * rep.set_size <= sum(rep.ranks) - 2


def test_reshaped_kruskal_quartic_general_six_in_p3():
    a = random_points(3, 6, random.Random(41), bound=20)
    search = reshaped_kruskal(a, 4)
    rep = search.passing
    assert rep.partition == (1, 1, 2)
    assert rep.ranks == (4, 4, 6)
    assert _bound(rep) == 6
    assert _passes(rep)
    assert reshaped_kruskal_table(a, 4) == (rep,)
    assert search.ranks == ((1, 4), (2, 6))


def test_reshaped_kruskal_fails_above_two_n():
    for n in (2, 3):
        a = random_points(n, 2 * n + 1, random.Random(50 + n), bound=20)
        search = reshaped_kruskal(a, 4)
        reports = reshaped_kruskal_table(a, 4)
        assert search.passing is None
        assert not any(map(_passes, reports))
        assert _bound(reports[0]) == 2 * n
        # (1, 1, 2) is ruled out by the caps min(l, C(n+j, j)) alone.
        assert search.bound == 2 * n
        assert search.ranks == ()


def test_reshaped_kruskal_cubic_pair():
    a = random_points(2, 2, random.Random(43))
    rep = reshaped_kruskal(a, 3).passing
    assert rep.partition == (1, 1, 1)
    assert rep.ranks == (2, 2, 2)
    assert _bound(rep) == 2
    assert _passes(rep)
    assert reshaped_kruskal_table(a, 3) == (rep,)


def test_reshaped_kruskal_rejects_low_degree():
    a = random_points(2, 3, random.Random(44))
    with pytest.raises(ValueError):
        reshaped_kruskal(a, 2)


@pytest.mark.parametrize("rows", [[(2, 1)], [(1, 0), (1, 1)], [(1, 2, 3)], [(1, 0, 0), (0, 1, 1)],
                                  [(1, 0, 0, 0)], [(1, 2, 3, 4), (0, 1, 0, 1)]])
def test_one_or_two_points_have_full_veronese_kruskal_ranks_with_no_sweep(monkeypatch, rows):
    # h_A(j) = l for l <= 2 in every degree, so no standard form is taken.
    def refuse(*args):
        raise AssertionError("no sweep expected")

    monkeypatch.setattr(kruskal, "_standard_form", refuse)
    a = PointSet.from_rows(rows)
    assert [veronese_kruskal_rank(a, j) for j in range(1, 5)] == [len(a)] * 4


@pytest.mark.parametrize("j", [0, -1])
def test_veronese_kruskal_rank_rejects_degrees_below_1(j):
    a = random_points(2, 3, random.Random(44))
    with pytest.raises(ValueError):
        veronese_kruskal_rank(a, j)


def test_kruskal_report_validation():
    with pytest.raises(ValueError):
        KruskalReport(set_size=4, partition=(2, 1, 1), ranks=(2, 2, 2))
    with pytest.raises(ValueError):
        KruskalReport(set_size=4, partition=(0, 1, 2), ranks=(2, 2, 2))
    report = KruskalReport(set_size=4, partition=(1, 1, 2), ranks=(2, 2, 2))
    assert (_bound(report), _passes(report)) == (2, False)
    assert _passes(KruskalReport(set_size=2, partition=(1, 1, 2), ranks=(2, 2, 2)))


def test_report_ranks_within_bounds():
    rng = random.Random(45)
    for _ in range(6):
        n = rng.choice([2, 3])
        a = random_points(n, rng.randint(3, 6), rng)
        d = rng.choice([3, 4, 5])
        for rep in reshaped_kruskal_table(a, d):
            for part, rank in zip(rep.partition, rep.ranks):
                assert 1 <= rank <= min(len(a), comb(n + part, part))
        for part, rank in reshaped_kruskal(a, d).ranks:
            assert 1 <= rank <= min(len(a), comb(n + part, part))


def test_kruskal_rank_bounded_by_span():
    rng = random.Random(46)
    for _ in range(10):
        a = random_points(rng.choice([1, 2, 3]), rng.randint(1, 7), rng)
        k = kruskal_rank(a)
        assert k - 1 <= span_dim(a) <= len(a) - 1


def test_kruskal_rank_invariances():
    rng = random.Random(47)
    a = random_points(2, 6, rng)
    k = kruskal_rank(a)
    shuffled_idx = list(range(6))
    rng.shuffle(shuffled_idx)
    assert kruskal_rank(PointSet(a[i] for i in shuffled_idx)) == k
    # Invertible change of coordinates (determinant 7).
    transform = [(1, 2, 0), (0, 1, 3), (1, 0, 1)]
    moved = PointSet.from_rows(
        [[sum(t[j] * p.coords[j] for j in range(3)) for t in transform]
         for p in a])
    assert kruskal_rank(moved) == k


def test_veronese_rank_nondecreasing_in_degree():
    rng = random.Random(48)
    for _ in range(6):
        a = random_points(2, rng.randint(2, 6), rng)
        ranks = [veronese_kruskal_rank(a, j) for j in (1, 2, 3)]
        assert ranks == sorted(ranks)
        assert ranks[-1] <= len(a)


@st.composite
def small_integer_sets(draw):
    """Sets in P^1..P^3 with coordinates in [-2, 2]: small coordinates put
    many points on common lines and conics, so exact Veronese Kruskal ranks
    fall below their caps min(l, C(n+j, j))."""
    n = draw(st.integers(1, 3))
    row = st.lists(st.integers(-2, 2), min_size=n + 1, max_size=n + 1).filter(any)
    rows = draw(st.lists(row, min_size=2, max_size=10,
                         unique_by=lambda r: ProjectivePoint(r)))
    return PointSet.from_rows(rows)


def _oracle_outcome(a, d):
    """The cascade's outcome with each rule's hypothesis checked from first
    principles: ranks by Fraction elimination, alignment and Kruskal ranks
    by exhaustive subsets, tangent spaces by polynomial multiplication, and
    the reshaping test from the exhaustive table."""
    coords = [p.primitive_coords for p in a]
    l, n = len(a), a.ambient_dim
    if fraction_rank(monomial_values_by_powers(coords, d)) < l:
        return "NotMinimal"
    if n == 1 and 2 * l <= d + 1:
        return "sylvester"
    if 2 * l <= d + 1:
        return "half-degree"
    if fraction_rank(coords) == n + 1 and 2 * l <= d + n:
        return "half-degree-spanning"
    if l <= d and 2 * brute_max_collinear(coords) < d:
        return "alignment-bound"
    if n == 2 and 8 * l < d * d + d and _gup_by_subsets(coords):
        return "plane-gup"
    if any(map(_passes, reshaped_kruskal_table(a, d))):
        return "reshaped-kruskal"
    if d == 4 and l == 2 * kruskal_by_subsets(coords, fraction_rank) - 1:
        forms = [f for c in coords for f in tangent_forms(c, 4)]
        exponents = sorted({e for f in forms for e in f})
        if fraction_rank([[f.get(e, 0) for e in exponents] for f in forms]) == len(forms):
            return "quartic"
    return "Inconclusive"


def _gup_by_subsets(coords):
    """General uniform position: the degree-j images have Kruskal rank
    min(l, C(n+j, j)) for every j up to the first with C(n+j, j) >= l."""
    l, n = len(coords), len(coords[0]) - 1
    j = 1
    while True:
        rows = monomial_values_by_powers(coords, j)
        if kruskal_by_subsets(rows, fraction_rank) != min(l, comb(n + j, j)):
            return False
        if comb(n + j, j) >= l:
            return True
        j += 1


@settings(max_examples=200, deadline=None, derandomize=True)
@given(small_integer_sets(), st.integers(3, 8))
def test_reshaped_search_agrees_with_exhaustive_table(a, d):
    search = reshaped_kruskal(a, d)
    table = reshaped_kruskal_table(a, d)
    passing = [rep for rep in table if _passes(rep)]
    assert (search.passing is not None) == bool(passing)
    if passing:
        assert search.passing in passing
    assert search.bound >= max(map(_bound, table))
    assert (search.bound >= len(a)) == bool(passing)

    cert = certify(a, d)
    assert (cert.criterion or cert.verdict.value) == _oracle_outcome(a, d)
    assert cert.rank == (len(a) if cert.criterion else None)


@settings(max_examples=200, deadline=None, derandomize=True)
@given(small_integer_sets(), st.integers(3, 8))
def test_hilbert_caps_keep_the_verdict_and_witness_of_the_count_caps(a, d):
    # Capping k_j by h_A(j) instead of min(l, C(n+j, j)) drops only
    # partitions that cannot pass: the passing partition, and so the
    # certificate's verdict, criterion and rank, stay those of the count caps.
    assert reshaped_kruskal(a, d).passing == reshaped_kruskal_by_count_caps(a, d).passing
    fresh = PointSet.from_rows([p.primitive_coords for p in a])
    with pytest.MonkeyPatch.context() as patch:
        patch.setattr(importlib.import_module("waringcert.certify"), "reshaped_kruskal",
                      reshaped_kruskal_by_count_caps)
        old = certify(fresh, d)
    new = certify(a, d)
    assert (new.verdict, new.criterion, new.rank) == (old.verdict, old.criterion, old.rank)


P = linalg._PRIME


@st.composite
def planted_rows(draw):
    """Tall integer matrices, up to 7 x 4, with a subset size to sweep.

    Entries are small, or small plus a multiple of the prime P, so residues
    and minors vanish modulo P while the integers do not; then some rows
    are replaced by integer combinations of two others (coefficients that
    may be multiples of P too), planting dependent subsets.
    """
    cols = draw(st.integers(1, 4))
    size = draw(st.integers(1, cols))
    entry = st.one_of(st.integers(-3, 3),
                      st.tuples(st.integers(-3, 3), st.integers(-2, 2))
                      .map(lambda t: t[0] + t[1] * P))
    rows = draw(st.lists(st.lists(entry, min_size=cols, max_size=cols),
                         min_size=max(size, 2), max_size=7))
    coeff = st.sampled_from((-2, -1, 1, 2, P, 1 - P))
    for _ in range(draw(st.integers(0, 2))):
        target, first, second = (draw(st.integers(0, len(rows) - 1)) for _ in range(3))
        x, y = draw(coeff), draw(coeff)
        rows[target] = [x * u + y * v for u, v in zip(rows[first], rows[second])]
    return rows, size


@settings(max_examples=300, deadline=None, derandomize=True)
@given(planted_rows())
def test_all_subsets_independent_matches_the_subset_oracle(case):
    rows, size = case
    expected = kruskal_by_subsets(rows, fraction_rank) >= size
    c = linalg._standard_form_mod_p(rows, size)
    assert kruskal._all_subsets_independent(rows, size, c) == expected


@pytest.mark.parametrize("rows, size, expected", [
    # The third row is (1, 0) modulo P: the 1 x 1 minor P of C fails the
    # proof, and the exact sweep finds every pair independent.
    ([(1, 0), (0, 1), (1, P)], 2, True),
    # A 2 x 2 minor of C equal to P: zero modulo P, independent over Q.
    ([(1, 0), (0, 1), (1, 1), (1, 1 + P)], 2, True),
    # Proportional rows: the 2 x 2 minor of C is 1*2 - 1*2 = 0.
    ([(1, 0), (0, 1), (1, 1), (2, 2)], 2, False),
    # The first two rows are dependent, so B is singular and nothing is proved.
    ([(1, 2, 0), (2, 4, 0), (0, 0, 1)], 2, False),
])
def test_a_failed_modular_proof_falls_back_to_the_exact_sweep(exact_sweeps, rows, size,
                                                            expected):
    c = linalg._standard_form_mod_p(rows, size)
    assert kruskal._all_subsets_independent(rows, size, c) is expected
    assert exact_sweeps


def test_modular_proof_uses_pivot_columns_of_the_first_rows(exact_sweeps):
    # The first two columns of the first two rows are singular; the pivot
    # columns 1 and 2 are not, and the proof needs no exact sweep.
    rows = [(0, 1, 0), (0, 0, 1), (1, 1, 1), (2, 1, 3), (1, 5, 2)]
    assert kruskal._all_subsets_independent(rows, 2, linalg._standard_form_mod_p(rows, 2))
    assert exact_sweeps == []


def test_twisted_cubic_k3_is_capped_by_the_hilbert_function(exact_sweeps):
    # Twenty points (1 : t : t^2 : t^3): h_A(3) = 10, and every ten of the
    # degree-3 images are independent (binary forms of degree 9), so k_3 = 10
    # from one modular proof at size 10; climbing from size 3 took seconds.
    a = PointSet.from_rows([(1, t, t * t, t ** 3) for t in range(1, 21)])
    assert veronese_kruskal_rank(a, 3) == 10
    assert veronese_kruskal_rank(a, 2) == 7
    assert exact_sweeps == []


def test_conic_sets_prove_k2_and_dependent_sets_sweep(exact_sweeps):
    # Six points of a smooth conic: h_A(2) = 5 is the rank of the rows, so
    # the modular proof at size 5 is complete and k_2 = 5 needs no sweep.
    conic = PointSet.from_rows([(1, t, t * t) for t in range(6)])
    assert veronese_kruskal_rank(conic, 2) == 5
    assert exact_sweeps == []
    # Four of six points on a line: four collinear images are dependent in
    # degree 2, so the proof at h_A(2) = 5 fails, the exact sweep finds the
    # dependent subset, and the climb gives k_2 = 3.
    lined = PointSet.from_rows([(1, t, 0) for t in range(4)] + [(0, 0, 1), (1, 1, 1)])
    assert hilbert_function(lined, 2) == 5
    assert veronese_kruskal_rank(lined, 2) == 3
    assert exact_sweeps


def test_a_set_without_a_modular_frame_takes_no_second_standard_form(monkeypatch):
    # The first four of the eight points of aligned-p3-8-d5 are dependent
    # (the first three lie on one line), so the set has no modular frame.
    # The k_1 sweep at size 4 knows B is singular from the set's one
    # standard form at that size and goes straight to exact ranks; only
    # the climb's sweep at size 3 takes a standard form of its own.  Every
    # sweep's form is the set's, and kruskal names no elimination.
    text = (Path(__file__).with_name("golden") / "aligned-p3-8-d5.pts").read_text()
    a = parse_point_file(text).points
    forms = []
    standard_form = linalg._standard_form_mod_p

    def counted(rows, size):
        forms.append((len(rows), size))
        return standard_form(rows, size)

    monkeypatch.setattr(hilbert, "_standard_form_mod_p", counted)
    assert not hasattr(kruskal, "_standard_form_mod_p")
    assert veronese_kruskal_rank(a, 1) == 2
    assert forms == [(8, 4), (8, 3)]
    assert hilbert._standard_form(a, 1, 4) is None
    assert forms == [(8, 4), (8, 3)]


def _golden_set(case):
    return parse_point_file((Path(__file__).with_name("golden") / f"{case}.pts").read_text()).points


# Seeded general sets of P^1..P^4, and special ones whose caps h_A(j) sit
# below the count caps: points of a line of P^2 and of P^3, of a conic, of a
# twisted cubic, and the lined and aligned golden sets.
RESHAPING_SETS = {
    **{f"general {i}": a for i, a in enumerate(corpus(3030, 16, [1, 2, 3, 4], 12, min_size=2))},
    "line of P^2": PointSet.from_rows([(1, t, 2 * t - 1) for t in range(7)]),
    "line of P^3": PointSet.from_rows([(1, t, 0, -t) for t in range(-3, 4)]),
    "conic": PointSet.from_rows([(1, t, t * t) for t in range(-4, 5)]),
    "twisted cubic": rational_normal_curve(3, 10),
    "lined-p2-6-d4": _golden_set("lined-p2-6-d4"),
    "aligned-p3-8-d5": _golden_set("aligned-p3-8-d5"),
}


@pytest.mark.parametrize("a", RESHAPING_SETS.values(), ids=RESHAPING_SETS)
def test_dropping_partitions_by_their_caps_keeps_the_search(a):
    # Dropping a partition whose caps sum below 2l + 2 before the sort
    # keeps the passing partition, the swept degrees and the bound of the
    # search that skips it at its turn.
    for d in range(3, 12):
        assert reshaped_kruskal(a, d) == reshaped_kruskal_by_profile_caps(a, d), d


def test_sixteen_plane_points_at_degree_six_sweep_no_degree(monkeypatch):
    # h_A = (1, 3, 6, 10, 15, 16): the caps of every partition of 6 sum to
    # at most 21 < 2 * 16 + 2, so the search sweeps nothing.
    def refuse(a, j):
        raise AssertionError(f"degree {j} swept")

    monkeypatch.setattr(kruskal, "veronese_kruskal_rank", refuse)
    for seed in range(3):
        search = reshaped_kruskal(random_points(2, 16, random.Random(seed), bound=20), 6)
        assert search.passing is None
        assert search.ranks == ()
        assert search.bound == (3 + 3 + 15 - 2) // 2
