"""The certification cascade, its criteria, and generic rank reporting."""

import gc
import importlib
import random
from itertools import product
from math import comb

import pytest
from hypothesis import assume, given, settings
from hypothesis import strategies as st

from waringcert import kruskal
from waringcert import (
    Certificate,
    Diagnostics,
    GenericInfo,
    PointSet,
    ProjectivePoint,
    TerraciniReport,
    Verdict,
    certify,
    check_minimal,
    complementary_bound,
    generic_info,
    gup_cutoff,
    is_gup,
    is_lgp,
    kruskal_and_collinear,
    kruskal_rank,
    random_point_set,
    reshaped_kruskal,
    veronese_kruskal_rank,
)
from waringcert.certify import (SUBGENERIC_EXCEPTIONS, _alignment_bound, _half_degree,
                                _half_degree_spanning, _plane_gup, _quartic,
                                _reshaped_kruskal, _sylvester)
from waringcert.terracini import _rank_bound

from conftest import corpus, random_points
from oracles import (AH_DEFECTIVE, SECOND_DECOMPOSITION_CASES, alexander_hirschowitz_rank,
                     fraction_rank, full_support_relation, generic_rank_from_one,
                     monomial_values_by_powers)


def binary(count):
    return PointSet.from_rows([(1, t) for t in range(count)])


def general_points(n, count, seed, bound=20):
    return random_point_set(n, count, random.Random(seed), bound=bound)


MAXCOL3 = PointSet.from_rows(
    [(1, 0, 0), (1, 1, 0), (1, 2, 0), (0, 0, 1), (1, 3, 5), (1, 7, 2)])
CONIC6 = PointSet.from_rows([(1, t, t * t) for t in range(6)])


def test_check_minimal_examples():
    assert check_minimal(binary(4), 3)
    assert not check_minimal(binary(4), 2)
    rng = random.Random(71)
    for _ in range(8):
        a = random_points(rng.choice([2, 3]), rng.randint(2, 6), rng)
        if len(a) <= 2 * kruskal_rank(a) - 1:
            assert check_minimal(a, 2)
    with pytest.raises(ValueError):
        check_minimal(binary(2), 0)


def test_binary_generic_rank_values():
    # Degree 1 is out of generic_info's range: a linear form is its own
    # first power, so its rank is 1.
    assert [generic_info(1, d).generic_rank for d in range(2, 10)] == [
        2, 2, 3, 3, 4, 4, 5, 5]
    assert [generic_rank_from_one(1, d) for d in range(2, 10)] == [
        2, 2, 3, 3, 4, 4, 5, 5]


def fires(rule, a, d):
    """Whether a cascade rule fires on (a, d); each returns (fired, note, read)."""
    return rule(a, d)[0]


def test_criterion_sylvester():
    assert fires(_sylvester, binary(3), 5)
    assert not fires(_sylvester, binary(3), 4)
    assert fires(_sylvester, binary(2), 4)
    assert not fires(_sylvester, general_points(2, 3, 72), 5)


def test_sylvester_inequality_matches_the_two_branch_rule():
    # Sylvester's theorem as stated on the generic binary rank r: below r,
    # or at r with d odd.  The criterion checks the one inequality
    # 2l <= d + 1; the two agree for every d < 200 and l <= d + 1.
    points = binary(200)
    generic_rank = {d: (d + 2) // 2 for d in range(1, 200)}
    for l in range(1, 201):
        a = PointSet(points.points[:l])
        for d in range(max(1, l - 1), 200):
            r = generic_rank[d]
            two_branch = l < r or (l == r and d % 2 == 1)
            assert (2 * l <= d + 1) == two_branch, (l, d)
            assert fires(_sylvester, a, d) == two_branch, (l, d)


def test_criterion_half_degree():
    assert fires(_half_degree, general_points(2, 4, 73), 7)
    assert not fires(_half_degree, general_points(2, 3, 73), 4)
    assert fires(_half_degree, general_points(2, 1, 73), 2)


def test_half_degree_monotone_in_degree():
    rng = random.Random(74)
    for _ in range(10):
        a = random_points(rng.choice([1, 2, 3]), rng.randint(1, 6), rng)
        d = rng.randint(1, 9)
        if fires(_half_degree, a, d):
            assert fires(_half_degree, a, d + 2)


def test_criterion_half_degree_spanning():
    spanning = general_points(3, 4, 75)
    assert not fires(_half_degree, spanning, 5)
    assert fires(_half_degree_spanning, spanning, 5)
    planar = PointSet.from_rows(
        [(1, 0, 0, 0), (1, 1, 1, 0), (1, 2, 4, 0), (1, 3, 2, 0)])
    assert not fires(_half_degree_spanning, planar, 5)
    assert not fires(_half_degree, planar, 5)


def test_criterion_half_degree_spanning_binary_matches_strict_bound():
    for count in (2, 3, 4):
        a = binary(count)
        for d in range(2, 9):
            assert fires(_half_degree_spanning, a, d) == (2 * count <= d + 1)


def test_criterion_alignment_bound():
    assert fires(_alignment_bound, CONIC6, 6)
    assert not fires(_alignment_bound, MAXCOL3, 6)
    assert not fires(_alignment_bound, general_points(2, 5, 76), 4)


def test_criterion_plane_gup():
    a = general_points(2, 13, 80, bound=50)
    assert fires(_plane_gup, a, 10)
    assert not fires(_plane_gup, a, 4)
    with_line = PointSet.from_rows(
        [(1, 0, 0), (1, 1, 0), (1, 2, 0), (0, 0, 1), (1, 1, 1)])
    assert not fires(_plane_gup, with_line, 10)
    assert not fires(_plane_gup, general_points(3, 4, 77), 10)


def test_criterion_reshaped_kruskal():
    assert fires(_reshaped_kruskal, general_points(3, 6, 78), 4)
    assert fires(_reshaped_kruskal, general_points(2, 2, 79), 3)
    assert not fires(_reshaped_kruskal, general_points(2, 5, 79), 4)
    # Degree 2 cannot be split into three parts, so the cascade skips it.
    notes = certify(general_points(2, 3, 79), 2).notes
    assert not any(note.startswith("reshaped-kruskal") for note in notes)


def test_criterion_quartic_boundary_cases():
    seven = general_points(3, 7, 81)
    assert fires(_quartic, seven, 4)
    eight = general_points(3, 8, 82)
    assert not fires(_quartic, eight, 4)
    # Below the boundary reshaped-kruskal fires first (see the property
    # test of l <= 2k - 2 below).
    five = general_points(3, 5, 70)
    assert certify(five, 4).criterion == "reshaped-kruskal"


def test_criterion_quartic_plane_defect_blocks_boundary():
    # 5 general plane points sit at the boundary 2k - 1 = 5, but the
    # Terracini dimension is 13 < 14, so the tangent test cannot pass.
    five = general_points(2, 5, 83)
    assert kruskal_rank(five) == 3
    assert not fires(_quartic, five, 4)


def test_complementary_bound_cases():
    assert complementary_bound(binary(4), 7) == 5
    spanning = general_points(3, 4, 84)
    assert complementary_bound(spanning, 5) == 4
    non_spanning = PointSet.from_rows([(1, 0, 0), (0, 1, 0)])
    assert complementary_bound(non_spanning, 5) == 0
    with pytest.raises(ValueError):
        complementary_bound(binary(2), 0)


def test_certify_sylvester_path():
    cert = certify(binary(3), 5)
    assert cert.verdict is Verdict.IDENTIFIABLE
    assert cert.criterion == "sylvester"
    assert cert.rank == 3
    assert cert.diagnostics.complementary_bound == 4


def test_certify_quartic_path():
    cert = certify(general_points(3, 7, 81), 4)
    assert cert.verdict is Verdict.IDENTIFIABLE
    assert cert.criterion == "quartic"
    diag = cert.diagnostics
    assert diag.kruskal_rank == 4
    assert cert.set_size == 2 * diag.kruskal_rank - 1
    assert diag.terracini is not None
    assert diag.terracini.dim == diag.terracini.max_possible == 27


def test_certify_plane_gup_path():
    a = general_points(2, 13, 80, bound=50)
    cert = certify(a, 10)
    assert cert.verdict is Verdict.IDENTIFIABLE
    assert cert.criterion == "plane-gup"
    ranks = dict(cert.diagnostics.veronese_kruskal_ranks)
    cutoff = gup_cutoff(2, 13)
    assert cutoff == 4
    for j in range(1, cutoff + 1):
        assert ranks[j] == min(13, comb(2 + j, j))
    assert 8 * cert.set_size < cert.degree ** 2 + cert.degree


def test_certify_alignment_path():
    cert = certify(CONIC6, 6)
    assert cert.verdict is Verdict.IDENTIFIABLE
    assert cert.criterion == "alignment-bound"
    assert cert.set_size <= cert.degree
    assert 2 * cert.diagnostics.max_collinear < cert.degree


def test_certify_reshaped_path():
    cert = certify(general_points(3, 6, 78), 4)
    assert cert.verdict is Verdict.IDENTIFIABLE
    assert cert.criterion == "reshaped-kruskal"
    ranks = dict(cert.diagnostics.veronese_kruskal_ranks)
    assert 2 * cert.set_size <= ranks[1] + ranks[1] + ranks[2] - 2


def test_diagnostics_hold_only_the_ranks_the_cascade_took():
    # The quartic criterion takes the Terracini rank at its boundary l = 2k - 1.
    five = certify(general_points(2, 5, 83), 4)
    assert five.verdict is Verdict.INCONCLUSIVE
    assert five.diagnostics.terracini.dim == 13
    nine = certify(general_points(4, 9, 86), 4)
    assert nine.criterion == "quartic"
    assert nine.diagnostics.terracini.dim == nine.diagnostics.terracini.max_possible == 44
    # No other path computes it.
    for a, d in ((binary(3), 5), (general_points(3, 6, 78), 4),
                 (general_points(2, 6, 85), 4), (general_points(2, 9, 87), 6),
                 (general_points(3, 12, 88), 5)):
        assert certify(a, d).diagnostics.terracini is None, (len(a), d)
    # Nor k_1, when no rule that ran took it.
    diag = certify(binary(3), 5).diagnostics
    assert diag.veronese_kruskal_ranks == ()
    assert diag.kruskal_rank is None and diag.max_collinear is None


@pytest.fixture
def widths(monkeypatch):
    """The row width of every Kruskal subset sweep, in order."""
    widths = []
    sweep = kruskal._all_subsets_independent

    def counting(rows, size, c):
        widths.append(len(rows[0]))
        return sweep(rows, size, c)

    monkeypatch.setattr(kruskal, "_all_subsets_independent", counting)
    return widths


def test_certify_sweeps_no_veronese_degree_the_bound_rules_out(widths):
    # (2, 16, 6): every partition of 6 is ruled out by min(l, C(2+j, j)),
    # and in the plane the Kruskal rank of the set is read from the
    # collinearity search, so nothing is swept.
    a = general_points(2, 16, 90)
    cert = certify(a, 6)
    assert kruskal_rank(a) == 3
    assert cert.verdict is Verdict.INCONCLUSIVE
    assert widths == []
    assert cert.diagnostics.veronese_kruskal_ranks == ()
    assert cert.diagnostics.kruskal_rank is None
    # (2, 13, 9): (1, 4, 4) is the cheapest partition left; its degree 4
    # (width 15 >= 13 points) is read from the Hilbert profile and its
    # degree 1 from the collinearity search, so no wider rows are swept.
    widths.clear()
    cert = certify(general_points(2, 13, 91), 9)
    assert cert.criterion == "reshaped-kruskal"
    assert [w for w in widths if w > 3] == []
    assert "(1, 4, 4)" in cert.notes[-1]
    # (2, 11, 10): (3, 3, 4) is the cheapest partition left (degree 4 is
    # read from the Hilbert profile, degree 3 sweeps C(11, 10) subsets),
    # ahead of (1, 3, 6), which comes first in degree_partitions order;
    # degree 1 is not needed.
    widths.clear()
    search = reshaped_kruskal(general_points(2, 11, 92), 10)
    assert search.passing.partition == (3, 3, 4)
    assert widths == [10]


# General sets of the wide shapes: only (4, 9, 4), where l = 2*5 - 1 is
# within the quartic cap, reads k_1, by one sweep of the C(9, 5) subsets of
# its width-5 rows.  The others reach no rule that reads it: the reshaped
# caps rule out every partition, l exceeds the quartic cap, or the set is
# not minimal.
@pytest.mark.parametrize("n, l, d, swept", [
    (4, 7, 3, []), (3, 9, 4, []), (3, 11, 3, []), (3, 12, 2, []), (3, 12, 5, []),
    (4, 10, 4, []), (4, 9, 4, [5])])
def test_certify_sweeps_for_k1_only_where_a_rule_reads_it(widths, n, l, d, swept):
    for seed in range(3):
        a = general_points(n, l, seed)
        cert = certify(a, d)
        assert widths == swept, (seed, cert.notes)
        assert (cert.diagnostics.kruskal_rank is None) == (swept == [])
        assert is_lgp(a), seed
        widths.clear()


@pytest.mark.parametrize("n, l, d, swept", [(2, 11, 10, [6, 10]), (4, 9, 4, [5])])
def test_general_sets_prove_their_sweeps_modulo_p(widths, exact_sweeps, n, l, d, swept):
    # General sets: the sweeps that certify runs, at degrees 2 and 3 for
    # plane-gup on (2, 11, 10) and k_1 for quartic on (4, 9, 4), are each
    # proved by one modular standard form, with no exact subset sweep.
    for seed in range(3):
        cert = certify(general_points(n, l, 200 + seed), d)
        assert cert.verdict is Verdict.IDENTIFIABLE, (seed, cert.notes)
        assert widths == swept, seed
        assert exact_sweeps == [], seed
        widths.clear()


def _copy(a):
    return lambda: PointSet(a.points)


def _general(n, l, seed):
    return lambda: general_points(n, l, seed)


@pytest.mark.parametrize("build, d", [
    (_general(2, 16, 90), 6), (_general(3, 9, 88), 4), (_general(4, 9, 86), 4),
    (_general(3, 7, 81), 4), (_general(2, 5, 83), 4), (_general(3, 6, 78), 4),
    (_general(2, 13, 80), 10), (_general(3, 12, 88), 5), (_general(4, 7, 3), 3),
    (_copy(CONIC6), 6), (_copy(MAXCOL3), 6), (_copy(binary(3)), 5),
])
def test_certificate_does_not_depend_on_call_history(build, d):
    fresh = certify(build(), d)
    primed = build()
    kruskal_rank(primed)
    kruskal_and_collinear(primed)
    veronese_kruskal_rank(primed, 1)
    assert certify(primed, d) == fresh


@st.composite
def point_sets(draw, dims=(1, 2, 3, 4), min_size=1, max_size=9, bound=3):
    """Point sets with small coordinates, so special positions are common."""
    n = draw(st.sampled_from(dims))
    coords = st.tuples(*[st.integers(-bound, bound)] * (n + 1)).filter(any)
    rows = draw(st.lists(coords, min_size=min_size, max_size=max_size,
                         unique_by=ProjectivePoint))
    return PointSet.from_rows(rows)


@settings(max_examples=150, deadline=None, derandomize=True, database=None)
@given(a=point_sets(dims=(2, 3, 4), min_size=3, max_size=8))
def test_quartic_below_its_boundary_is_left_to_reshaping(a):
    # With l <= 2k - 2 the other l - 1 points split into two groups of at
    # most k - 1, each on a hyperplane missing the remaining point, so
    # k_2 = l and the partition (1, 1, 2) passes: reshaped-kruskal, or a
    # rule before it, fires, and the quartic rule is never reached.
    assume(len(a) <= 2 * kruskal_rank(a) - 2)
    assert reshaped_kruskal(a, 4).passing is not None
    cert = certify(a, 4)
    assert cert.verdict is Verdict.IDENTIFIABLE
    assert cert.criterion != "quartic"
    assert not any(note.startswith("quartic") for note in cert.notes)


def _assert_k1_reported_exactly_when_taken(a, d):
    # Diagnostics may only restate a k_1 that a criterion computed: the
    # rules' own kruskal_and_collinear calls leave it in the set's memo,
    # and the diagnostics block must find it there, never compute it anew.
    key = (kruskal.veronese_kruskal_rank.__wrapped__, 1)
    found = []
    module = importlib.import_module("waringcert.certify")
    original = module.kruskal_and_collinear

    def spy(points):
        found.append(key in points._memo)
        return original(points)

    with pytest.MonkeyPatch.context() as patch:
        patch.setattr(module, "kruskal_and_collinear", spy)
        cert = certify(a, d)
    took = key in a._memo
    diag = cert.diagnostics
    assert (diag.kruskal_rank is not None) == took
    assert (diag.max_collinear is not None) == took
    assert ((1, diag.kruskal_rank) in diag.veronese_kruskal_ranks) == took
    if took:
        assert found[-1]
        assert (diag.kruskal_rank, diag.max_collinear) == kruskal_and_collinear(a)


@settings(max_examples=200, deadline=None, derandomize=True, database=None)
@given(a=point_sets(), d=st.integers(1, 6))
def test_k1_is_reported_exactly_when_a_rule_took_it(a, d):
    _assert_k1_reported_exactly_when_taken(a, d)


def test_k1_is_reported_exactly_when_plane_gup_took_it():
    # plane-gup reads k_1 past its size test 8l < d^2 + d; with l > d, so
    # that alignment-bound has not read it already, that needs d >= 9.
    for a in corpus(93, 12, [2], 13, bound=4, min_size=10):
        for d in (9, 10):
            _assert_k1_reported_exactly_when_taken(a, d)


# Ten plane points, six on the conic y = x^2 and no three collinear: they
# pass plane-gup's size test at d = 9 and 10, and fail GUP at degree 2.
CONIC_SIX_PLUS_FOUR = [(1, t, t * t) for t in (-2, -1, 0, 1, 2, 3)] + [
    (1, -3, 2), (1, 2, -3), (1, -5, -1), (1, -5, 0)]


@pytest.mark.parametrize("d, criterion, ranks", [
    # plane-gup reads k_1 and k_2, the degree that fails GUP, and reports both.
    (9, "reshaped-kruskal", ((1, 3), (2, 5), (3, 10))),
    # alignment-bound fires before plane-gup runs.
    (10, "alignment-bound", ((1, 3),)),
])
def test_plane_gup_failing_gup_reports_ranks_through_the_failed_degree(d, criterion, ranks):
    a = PointSet.from_rows(CONIC_SIX_PLUS_FOUR)
    assert not is_gup(PointSet.from_rows(CONIC_SIX_PLUS_FOUR))
    cert = certify(a, d)
    assert cert.criterion == criterion
    assert (d == 9) == ("plane-gup: the points are not in general uniform position"
                        in cert.notes)
    assert cert.diagnostics.veronese_kruskal_ranks == ranks
    assert (cert.diagnostics.kruskal_rank, cert.diagnostics.max_collinear) == (3, 2)


def test_certify_inconclusive_beyond_criteria():
    cert = certify(general_points(2, 6, 85), 4)
    assert cert.verdict is Verdict.INCONCLUSIVE
    assert cert.criterion is None and cert.rank is None
    assert any("no criterion applies" in note for note in cert.notes)


def test_certify_plane_quartic_boundary_is_inconclusive():
    cert = certify(general_points(2, 5, 83), 4)
    assert cert.verdict is Verdict.INCONCLUSIVE
    assert any("Terracini dimension 13" in note for note in cert.notes)


def test_certify_not_minimal():
    cert = certify(binary(4), 2)
    assert cert.verdict is Verdict.NOT_MINIMAL
    assert cert.criterion is None and cert.rank is None
    assert not cert.diagnostics.minimal
    assert any("dependent" in note for note in cert.notes)


def test_certify_spanning_path():
    cert = certify(general_points(3, 4, 75), 5)
    assert cert.verdict is Verdict.IDENTIFIABLE
    assert cert.criterion == "half-degree-spanning"
    assert cert.diagnostics.span_dim == cert.ambient_dim
    assert 2 * cert.set_size <= cert.degree + cert.ambient_dim


def test_certify_notes_trace_cascade_order():
    cert = certify(general_points(2, 6, 85), 4)
    names = [note.split(":")[0] for note in cert.notes[:-1]]
    assert names == ["sylvester", "half-degree", "half-degree-spanning",
                     "alignment-bound", "plane-gup", "reshaped-kruskal",
                     "quartic"]


def test_certify_rejects_bad_degree():
    with pytest.raises(ValueError):
        certify(binary(2), 0)


def test_certificate_requires_consistent_fields():
    cert = certify(binary(2), 3)
    with pytest.raises(ValueError):
        Certificate(
            verdict=Verdict.INCONCLUSIVE, degree=3, set_size=2,
            ambient_dim=1, criterion="sylvester",
            diagnostics=cert.diagnostics, notes=())
    with pytest.raises(ValueError):
        Certificate(
            verdict=Verdict.IDENTIFIABLE, degree=3, set_size=2,
            ambient_dim=1, criterion=None,
            diagnostics=cert.diagnostics, notes=())


def test_generic_info_plane_quartics():
    info = generic_info(2, 4)
    assert info.space_dim == 15
    assert info.expected_generic_rank == 5
    assert info.generic_rank == 6
    assert info.oracle_verified


def test_generic_info_binary_quintics():
    info = generic_info(1, 5)
    assert info.generic_rank == 3
    assert info.oracle_verified


def test_generic_info_binary_quadrics():
    info = generic_info(1, 2)
    assert info.generic_rank == 2
    assert info.exceptions == ()


def test_generic_info_plane_quadrics_note():
    info = generic_info(2, 2)
    assert info.generic_rank == 3
    assert any("infinitely many" in note for note in info.exceptions)


def test_generic_info_space_quartics_two_decompositions():
    info = generic_info(3, 4)
    assert info.expected_generic_rank == 9
    assert info.generic_rank == 10
    assert any("rank 8" in note and "exactly two" in note
               for note in info.exceptions)


def test_generic_info_plane_sextics_two_decompositions():
    info = generic_info(2, 6)
    assert info.generic_rank == 10
    assert any("rank 9" in note and "exactly two" in note
               for note in info.exceptions)


def test_generic_info_budget_fallback():
    info = generic_info(5, 8)
    assert info.space_dim == comb(13, 8)
    assert not info.oracle_verified
    assert info.generic_rank == info.expected_generic_rank
    assert any("not verified" in note for note in info.exceptions)


def test_generic_info_argument_validation():
    with pytest.raises(ValueError):
        generic_info(0, 4)
    with pytest.raises(ValueError):
        generic_info(2, 1)


def test_generic_info_gives_the_alexander_hirschowitz_rank_with_a_witness():
    shapes = [(n, d) for d in range(2, 9) for n in range(1, 31) if comb(n + d, d) <= 500]
    assert len(shapes) == 69
    for n, d in shapes:
        info = generic_info(n, d)
        assert info.generic_rank == alexander_hirschowitz_rank(n, d), (n, d)
        assert info.oracle_verified, (n, d)
    for n, d in AH_DEFECTIVE:
        rank = alexander_hirschowitz_rank(n, d) - 1
        assert (f"rank {rank}: the generic form of rank {rank} has infinitely "
                "many decompositions") in generic_info(n, d).exceptions


def test_the_exception_table_holds_only_what_no_count_sees():
    # The one "infinitely many" entry is a defect the count misses: at its
    # rank the count is full.
    infinite = [(n, d, r) for (n, d), entries in SUBGENERIC_EXCEPTIONS.items()
                for r, count in entries if count == "infinitely many"]
    assert infinite == [(4, 3, 7)]
    for n, d, r in infinite:
        assert _rank_bound(n, d, r) == (n + 1) * r
    # Below the generic rank, for d >= 3, the count falls short of
    # min((n+1)r, N_d) only at the defective quartics.  Binary forms stop
    # at degree 99: their count, min(2r, d + 1), is never short.
    short = []
    for n in range(1, 30):
        for d in range(3, 100):
            space = comb(n + d, d)
            if space <= 5000:
                info = GenericInfo(ambient_dim=n, degree=d, oracle_verified=False,
                                   exceptions=())
                short += [(n, d, r) for r in range(1, info.generic_rank)
                          if _rank_bound(n, d, r) < min((n + 1) * r, space)]
    assert short == [(2, 4, 5), (3, 4, 9), (4, 4, 14)]


def test_generic_info_keeps_the_theorem_rank_when_no_witness_fills(monkeypatch):
    # A witness that falls short proves nothing: the rank stays the
    # theorem's, unverified, and a note says why.
    module = importlib.import_module("waringcert.certify")
    shapes = [(1, 5), (2, 4), (3, 2), (4, 4), (2, 7)]
    verified = {shape: generic_info(*shape) for shape in shapes}

    def short(n, d, r, seed=0):
        space = comb(n + d, d)
        return TerraciniReport(num_points=r, ambient_dim=n, degree=d, dim=space - 2)

    monkeypatch.setattr(module, "generic_terracini_dimension", short)
    for (n, d), good in verified.items():
        info = generic_info(n, d, seed=7)
        assert not info.oracle_verified
        assert info.generic_rank == good.generic_rank == alexander_hirschowitz_rank(n, d)
        assert info.exceptions == good.exceptions + (
            f"generic rank not verified: no Terracini witness of {info.generic_rank} "
            f"points filled the space of dimension {info.space_dim} in 2 trials "
            "(seed 7); reporting the Alexander-Hirschowitz value",)


def test_twisted_cubic_sets_take_no_kruskal_sweep():
    # Twenty points (1 : t : t^2 : t^3) at degree 11: h_A(j) = min(20, 3j + 1)
    # caps every k_j, so no partition of 11 can reach 2*20 and no degree is
    # swept.  Capped by min(l, C(n+j, j)) instead, the search swept subsets
    # for over a minute before finding the same answer.
    a = PointSet.from_rows([(1, t, t * t, t ** 3) for t in range(1, 21)])
    cert = certify(a, 11)
    assert cert.verdict is Verdict.INCONCLUSIVE
    assert reshaped_kruskal(a, 11).ranks == ()
    assert "reshaped-kruskal: no partition passes (proven bound 17 < 20)" in cert.notes


# Generic sets at these sizes are not identifiable, so no criterion may
# certify them: quadrics of rank 2..n+1 (every decomposition moves), the
# Alexander-Hirschowitz defective cases (n, d, r) = (2, 4, 5), (3, 4, 9),
# (4, 3, 7), (4, 4, 14), and the cases whose generic form has exactly two
# decompositions, (2, 6, 9), (3, 4, 8), (5, 3, 9).
QUADRIC_SIZES = [(n, 2, r) for n in range(1, 5) for r in range(2, n + 2)]
DEFECTIVE_SIZES = [(2, 4, 5), (3, 4, 9), (4, 3, 7), (4, 4, 14)]
TWO_DECOMPOSITION_SIZES = [(2, 6, 9), (3, 4, 8), (5, 3, 9)]


@pytest.mark.parametrize("n, d, r",
                         QUADRIC_SIZES + DEFECTIVE_SIZES + TWO_DECOMPOSITION_SIZES)
def test_non_identifiable_sizes_are_never_certified(n, d, r):
    for seed in range(3):
        cert = certify(general_points(n, r, seed), d)
        assert cert.verdict is not Verdict.IDENTIFIABLE, (
            f"{r} generic points of P^{n} at degree {d} (seed {seed}) were "
            f"certified by {cert.criterion}, but the generic form of rank {r} "
            "has more than one decomposition")


@pytest.mark.parametrize("z, d, split, c", SECOND_DECOMPOSITION_CASES,
                         ids=[f"binary-d{d}" for d in range(2, 11)]
                         + ["grid", "grid-C", "conic", "conic-C"])
def test_sets_with_a_second_decomposition_are_never_certified(z, d, split, c):
    rows = monomial_values_by_powers(z, d)
    assert fraction_rank(rows) == len(z) - 1
    relation = full_support_relation(rows)
    assert relation is not None and all(relation)
    assert all(sum(w * row[k] for w, row in zip(relation, rows)) == 0
               for k in range(len(rows[0])))
    extra = [] if c is None else [c]
    assert c not in z
    a = PointSet.from_rows(z[:split] + extra)
    assert len(z) - split + len(extra) <= len(a)
    cert = certify(a, d)
    assert cert.verdict is not Verdict.IDENTIFIABLE, (
        f"{a} at degree {d} was certified by {cert.criterion}, but "
        f"{z[split:] + extra} is a second decomposition")


def _distinct(draw, count, bound):
    return draw(st.lists(st.integers(-bound, bound), min_size=count, max_size=count,
                         unique=True))


@st.composite
def second_decompositions(draw):
    """(Z, split, C, d) for the test below, with Z drawn from four families
    whose degree-d images satisfy a relation with every coefficient nonzero:
    d + 2 points of P^1; a grid {(1, i_1, ..., i_n)} of type (a_1, ..., a_n),
    a complete intersection, Cayley-Bacharach in every degree
    d <= a_1 + ... + a_n - n - 1; 2d + 2 points of a smooth conic; and
    nd + 2 points of the rational normal curve (1 : t : ... : t^n) of P^n,
    n = 2..4.  The last two are rational normal curves of degree 2d and nd
    under the Veronese map, on which any such number of points satisfy one
    relation with full support.  Z is shuffled and split with
    |Z| - split <= split, and C is up to three points off Z."""
    family = draw(st.sampled_from(["binary", "grid", "conic", "curve"]))
    if family == "binary":
        n, d = 1, draw(st.integers(2, 8))
        z = [(1, t) for t in _distinct(draw, d + 2, 20)]
    elif family == "grid":
        sides = draw(st.sampled_from([(2, 3), (3, 3), (2, 4), (3, 4), (2, 2, 2), (2, 2, 3)]))
        n = len(sides)
        d = draw(st.integers(2, sum(sides) - n - 1))
        z = [(1, *p) for p in product(*(_distinct(draw, a, 5) for a in sides))]
    elif family == "conic":
        n, d = 2, draw(st.integers(2, 4))
        m = draw(st.lists(st.lists(st.integers(-2, 2), min_size=3, max_size=3),
                          min_size=3, max_size=3).filter(lambda m: fraction_rank(m) == 3))
        z = [tuple(sum(x * y for x, y in zip(row, (t * t, t, 1))) for row in m)
             for t in _distinct(draw, 2 * d + 2, 9)]
    else:
        n = draw(st.integers(2, 4))
        d = draw(st.integers(2, {2: 4, 3: 3, 4: 2}[n]))
        z = [tuple(t ** k for k in range(n + 1)) for t in _distinct(draw, n * d + 2, 8)]
    z = draw(st.permutations(z))
    split = draw(st.integers((len(z) + 1) // 2, len(z) - 1))
    taken = set(map(ProjectivePoint, z))
    extra = draw(st.lists(st.lists(st.integers(-3, 3), min_size=n + 1, max_size=n + 1)
                          .filter(any).filter(lambda c: ProjectivePoint(c) not in taken),
                          max_size=3, unique_by=ProjectivePoint))
    return z, split, [tuple(c) for c in extra], d


@settings(max_examples=100, deadline=None, derandomize=True)
@given(second_decompositions())
def test_drawn_sets_with_a_second_decomposition_are_never_certified(case):
    # The relation writes the form with coefficients on A1 = Z[:split] a
    # second time on B1 = Z[split:], and C joins both decompositions: B1 + C
    # is a second decomposition of size at most len(A1 + C).
    z, split, extra, d = case
    rows = monomial_values_by_powers(z, d)
    relation = full_support_relation(rows)
    assert relation is not None and all(relation)
    assert all(sum(w * row[k] for w, row in zip(relation, rows)) == 0
               for k in range(len(rows[0])))
    a = PointSet.from_rows(z[:split] + extra)
    cert = certify(a, d)
    assert cert.verdict is not Verdict.IDENTIFIABLE, (
        f"{a} at degree {d} was certified by {cert.criterion}, but "
        f"{z[split:] + extra} is a second decomposition")


@pytest.mark.parametrize("n, d", [(2, 4), (2, 6), (4, 3), (3, 4), (2, 7), (5, 3), (2, 8)])
def test_generic_sweep_start_matches_sweep_from_one(n, d):
    for seed in (0, 5):
        info = generic_info(n, d, seed=seed)
        assert info.oracle_verified
        assert info.generic_rank == generic_rank_from_one(n, d, seed=seed)
        assert info.generic_rank >= info.expected_generic_rank


def test_certify_keeps_no_point_set_alive():
    # Invariants are cached on the set itself, so once the caller drops the
    # set nothing in the package may still hold it.
    def certify_fresh_set():
        a = random_point_set(2, 7, random.Random(4242), bound=30)
        certify(a, 4)
        return tuple(p.coords for p in a)

    coords = certify_fresh_set()
    gc.collect()
    retained = [obj for obj in gc.get_objects() if isinstance(obj, PointSet)
                and tuple(p.coords for p in obj) == coords]
    assert retained == []
