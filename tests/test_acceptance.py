"""End-to-end acceptance checks.

Ten numbered checks, one test function per check, covering exact h-vector
tables, Hilbert-function properties on a 200-set random corpus, independent
rank oracles for the span and intersection formulas, the reshaped Kruskal
boundary, the quartic certification path, Terracini defect detection, the
binary suite, and refutation sampling against issued certificates.  Every
expected value is exact; there are no tolerances.
"""

import random
from collections import Counter
from math import prod

from oracles import (apolarity_pairing, form_power, fraction_rank,
                     kernel_vector, linear_form_power, minor_rank,
                     reshaped_kruskal_table, tangent_forms)

from waringcert import (PointSet, ProjectivePoint, Verdict, certify,
                        generic_info, generic_terracini_dimension,
                        hilbert_function, hilbert_profile, kruskal_rank,
                        monomial_basis, random_point_set, reshaped_kruskal,
                        satisfies_cb, span_dim, span_intersection_dim,
                        terracini_dimension, union_profile_drop)

_CORPUS = None


def _corpus():
    """200 random point sets in P^1, P^2, P^3 with at most 12 points each."""
    global _CORPUS
    if _CORPUS is None:
        rng = random.Random(2024)
        caps = {1: 12, 2: 10, 3: 8}
        sets = []
        for _ in range(200):
            n = rng.choice([1, 2, 3])
            sets.append(random_point_set(n, rng.randint(1, caps[n]), rng, bound=9))
        _CORPUS = sets
    return _CORPUS


def _plane_quintuple():
    """Five random points of P^2, the defective size at degree 4."""
    return random_point_set(2, 5, random.Random(302), bound=20)


def _hyperplane_degeneration(n, seed):
    """2n+1 points in P^n with n+2 of them forced into the hyperplane x_n = 0."""
    rng = random.Random(seed)
    inside = random_point_set(n - 1, n + 2, rng, bound=20)
    rows = [tuple(p.coords) + (0,) for p in inside.points]
    seen = {ProjectivePoint(r).coords for r in rows}
    while len(rows) < 2 * n + 1:
        cand = tuple(rng.randint(-20, 20) for _ in range(n)) + (rng.randint(1, 20),)
        key = ProjectivePoint(cand).coords
        if key in seen:
            continue
        seen.add(key)
        rows.append(cand)
    return PointSet.from_rows(rows)


def test_criterion_01_h_vector_tables():
    general6 = PointSet.from_rows(
        [(1, 0, 0), (0, 1, 0), (0, 0, 1), (1, 1, 1), (1, 2, 3), (1, 4, 5)])
    conic6 = PointSet.from_rows([(1, t, t * t) for t in range(6)])
    line5_plus_1 = PointSet.from_rows(
        [(1, t, 0) for t in range(5)] + [(0, 0, 1)])
    aligned4 = PointSet.from_rows([(1, 0, 0), (1, 1, 0), (1, 2, 0), (0, 0, 1)])

    assert hilbert_profile(general6).h_vector == (1, 2, 3)
    assert hilbert_profile(conic6).h_vector == (1, 2, 2, 1)
    assert hilbert_profile(line5_plus_1).h_vector == (1, 2, 1, 1, 1)
    assert satisfies_cb(aligned4, 1) is False


def test_criterion_02_hilbert_function_basic_properties():
    sets = _corpus()
    assert len(sets) == 200
    assert set(Counter(z.ambient_dim for z in sets)) == {1, 2, 3}
    assert max(len(z) for z in sets) <= 12

    for z in sets:
        l = len(z)
        # values in negative degrees vanish
        assert hilbert_function(z, -1) == 0
        assert hilbert_function(z, -2) == 0
        values = [hilbert_function(z, d) for d in range(0, l + 2)]
        diffs = [values[0]]
        diffs += [values[d] - values[d - 1] for d in range(1, l + 2)]
        # h(0) = 1, hence Dh(0) = 1
        assert values[0] == 1
        # bounded by the number of points
        assert all(v <= l for v in values)
        # first differences are nonnegative
        assert all(dh >= 0 for dh in diffs)
        # stabilizes at l from degree l - 1 on
        assert all(values[d] == l for d in range(l - 1, l + 2))
        # differences vanish beyond degree l - 1 and sum to l
        assert all(dh == 0 for dh in diffs[l:])
        assert sum(diffs) == l
        # once the function reaches l the next difference is zero
        for d in range(0, l + 1):
            if values[d] == l:
                assert diffs[d + 1] == 0
        # profile machinery agrees with the raw values and partial sums
        prof = hilbert_profile(z)
        assert all(prof.value_at(d) == values[d] for d in range(l + 2))
        assert all(prof.value_at(i) == sum(prof.h_vector[:i + 1]) for i in range(l + 2))


def _differences(profile, count):
    """Dh(j) = h(j) - h(j - 1) for j = 0 .. count - 1."""
    return [profile.value_at(j) - profile.value_at(j - 1) for j in range(count)]


def test_criterion_03_growth_and_subset_monotonicity():
    sets = _corpus()
    rng = random.Random(3024)
    for z in sets:
        l = len(z)
        prof = hilbert_profile(z)
        diffs = _differences(prof, l + 2)
        # once a difference falls to its index it can never grow again
        for j in range(1, l + 1):
            if diffs[j] <= j:
                assert diffs[j + 1] <= diffs[j]
        if l < 2:
            continue
        size = rng.randint(1, l - 1)
        sub = PointSet(z[i] for i in sorted(rng.sample(range(l), size)))
        sprof = hilbert_profile(sub)
        # removing points can only lower the function and its differences
        sdiffs = _differences(sprof, l + 1)
        for d in range(0, l + 1):
            assert sprof.value_at(d) <= prof.value_at(d)
            assert sdiffs[d] <= diffs[d]


def _veronese_rows(a, d):
    """The coefficients of L**d for the linear form L of each point."""
    basis = monomial_basis(a.ambient_dim, d)
    return [[power.get(e, 0) for e in basis]
            for power in (linear_form_power(p.coords, d) for p in a)]


def test_criterion_04_span_formula():
    rng = random.Random(404)
    caps = {1: 8, 2: 8, 3: 6}
    checked_small = 0
    for _ in range(100):
        n = rng.choice([1, 2, 3])
        z = random_point_set(n, rng.randint(1, caps[n]), rng, bound=9)
        d = rng.randint(1, 4)
        h = hilbert_function(z, d)
        rows = _veronese_rows(z, d)
        image = PointSet.from_rows(rows)
        # evaluation rank equals projective span dimension plus one ...
        assert h == span_dim(image) + 1
        # ... and equals the degree-1 value of the embedded set
        assert h == hilbert_function(image, 1)
        if len(z) <= 4 and len(rows[0]) <= 6:
            # independent cofactor-minor rank oracle on small instances
            assert h == minor_rank(rows)
            checked_small += 1
    assert checked_small >= 5


def test_criterion_05_span_intersection_oracle():
    rng = random.Random(505)
    nonempty = 0
    for _ in range(100):
        n = rng.choice([1, 2, 3])
        sa = rng.randint(1, 5)
        sb = rng.randint(1, 5)
        full = random_point_set(n, sa + sb, rng, bound=9)
        a, b = PointSet(full.points[:sa]), PointSet(full.points[sa:])
        d = rng.randint(1, 4)
        rows_a, rows_b = _veronese_rows(a, d), _veronese_rows(b, d)
        direct = (fraction_rank(rows_a) + fraction_rank(rows_b)
                  - fraction_rank(rows_a + rows_b))
        got = span_intersection_dim(a, b, d)
        assert got == direct - 1
        if got >= 0:
            nonempty += 1
    # the comparison must exercise both empty and nonempty intersections
    assert 0 < nonempty < 100


def test_criterion_06_reshaped_kruskal_boundary():
    for n in (2, 3, 4):
        at_boundary = random_point_set(n, 2 * n, random.Random(200 + n), bound=20)
        passing = reshaped_kruskal(at_boundary, 4).passing
        assert reshaped_kruskal_table(at_boundary, 4) == (passing,)
        assert passing.partition == (1, 1, 2)
        assert (sum(passing.ranks) - 2) // 2 == 2 * n
        assert 2 * passing.set_size <= sum(passing.ranks) - 2

        over = random_point_set(n, 2 * n + 1, random.Random(210 + n), bound=20)
        assert reshaped_kruskal(over, 4).passing is None
        failing = reshaped_kruskal_table(over, 4)[0]
        assert 2 * failing.set_size > sum(failing.ranks) - 2


def test_criterion_07_quartic_end_to_end():
    for n in (3, 4):
        a = random_point_set(n, 2 * n + 1, random.Random(300 + n), bound=20)
        cert = certify(a, 4)
        assert cert.verdict is Verdict.IDENTIFIABLE
        assert cert.criterion == "quartic"
        assert terracini_dimension(a, 4).dim == (2 * n + 1) * (n + 1) - 1

    for n in (2, 3, 4):
        degen = _hyperplane_degeneration(n, 400 + n)
        # n+2 points inside a hyperplane cap the Kruskal rank at n
        assert kruskal_rank(degen) == n
        dcert = certify(degen, 4)
        assert (dcert.verdict is Verdict.INCONCLUSIVE
                or dcert.criterion == "reshaped-kruskal")

    # (n, d) = (2, 4) is Alexander-Hirschowitz defective: at the boundary
    # l = 2k - 1 = 5 the tangent spaces are never in direct sum, so the
    # quartic criterion must refuse and nothing may be certified
    a = _plane_quintuple()
    cert = certify(a, 4)
    rep = terracini_dimension(a, 4)
    assert (rep.dim, rep.max_possible) == (13, 14), (
        "five points in P^2 at degree 4: expected Terracini dimension 13 "
        f"of at most 14, computed {rep.dim} of at most {rep.max_possible}; "
        "the Alexander-Hirschowitz defect at (2, 4) keeps the five tangent "
        "planes inside a hyperplane of P^14")
    assert not rep.tangents_independent
    assert cert.verdict is Verdict.INCONCLUSIVE and cert.criterion is None, (
        "five points in P^2 at degree 4: expected Inconclusive, got "
        f"{cert.verdict.value} with criterion {cert.criterion!r}; the generic "
        "quartic of rank 5 in three variables has infinitely many "
        "decompositions (Alexander-Hirschowitz defect at (2, 4))")
    assert ("quartic: boundary size 2k - 1 = 5 but the Terracini dimension "
            "13 is below 14") in cert.notes


def test_criterion_08_terracini_defect_detection():
    small = generic_terracini_dimension(2, 2, 2)
    assert small.dim == 4
    assert small.max_possible == 5
    assert small.dim < small.max_possible

    info = generic_info(2, 4)
    assert info.expected_generic_rank == 5
    assert info.generic_rank == 6
    assert info.generic_rank > info.expected_generic_rank
    assert info.oracle_verified

    five = generic_terracini_dimension(2, 4, 5)
    assert five.dim == 13, (
        "generic five-point Terracini dimension at (n, d) = (2, 4): expected "
        f"13, computed {five.dim}; by the Alexander-Hirschowitz defect the "
        "five tangent planes to the quartic Veronese surface span only a "
        "hyperplane of P^14")
    assert five.max_possible == five.veronese_dim == 14
    assert five.dim < five.max_possible
    assert not five.is_expected

    # Independent upper bound: a conic Q passes through any five plane
    # points, and Q^2 is singular at each of them, so Q^2 is apolar to every
    # tangent form L_p^3 * x_j and the 15 tangent forms span at most 14
    # dimensions.  The library's exact rank then gives equality.
    a = _plane_quintuple()
    exponents = sorted(linear_form_power((1, 1, 1), 2))
    rows = [[prod(c ** k for c, k in zip(p.coords, e)) for e in exponents]
            for p in a]
    q = kernel_vector(rows)
    assert any(q)
    assert all(sum(x * y for x, y in zip(row, q)) == 0 for row in rows)
    q_squared = form_power(dict(zip(exponents, q)), 3, 2)
    assert any(q_squared.values())
    for p in a:
        for form in tangent_forms(p.coords, 4):
            assert apolarity_pairing(q_squared, form) == 0
    assert terracini_dimension(a, 4).dim == 13


def test_criterion_09_binary_sylvester_suite():
    rng = random.Random(900)
    cases = 0
    for d in range(1, 10):
        # a linear form is its own first power, so its rank is 1
        r_gen = generic_info(1, d).generic_rank if d > 1 else 1
        for r in range(1, r_gen + 1):
            a = random_point_set(1, r, rng, bound=30)
            cert = certify(a, d)
            cases += 1
            if r < r_gen or d % 2 == 1:
                # below the generic rank, or at it with d odd: unique
                assert cert.verdict is Verdict.IDENTIFIABLE
                assert cert.criterion == "sylvester"
            else:
                # at the generic rank with d even the decomposition
                # is never unique, so no criterion may fire
                assert cert.verdict is Verdict.INCONCLUSIVE
    assert cases == 29


def test_criterion_10_soundness_refutation_sampling():
    rng = random.Random(1000)
    issued = 0
    while issued < 50:
        kind = rng.choice(["binary", "half", "span", "conic"])
        if kind == "binary":
            d = rng.randint(5, 9)
            n = 1
            r_gen = generic_info(1, d).generic_rank
            a = random_point_set(1, rng.randint(2, r_gen - 1), rng, bound=30)
        elif kind == "half":
            n = rng.choice([2, 3])
            d = rng.randint(5, 9)
            a = random_point_set(n, (d + 1) // 2, rng, bound=20)
        elif kind == "span":
            n = 3
            d = rng.randint(5, 7)
            a = random_point_set(3, min(4, (d + 3) // 2), rng, bound=20)
        else:
            n = 2
            d = 6
            a = PointSet.from_rows(
                [(1, t, t * t) for t in rng.sample(range(-8, 9), 6)])
        cert = certify(a, d)
        if cert.verdict is not Verdict.IDENTIFIABLE:
            continue
        issued += 1
        # a certified decomposition admits no alternative of equal or
        # smaller size: any such B must miss the span of the embedded A
        while True:
            b = random_point_set(n, rng.randint(1, len(a)), rng, bound=25)
            if not any(p in a for p in b.points):
                break
        assert union_profile_drop(a, b, d) is False
        assert span_intersection_dim(a, b, d) == -1
    assert issued == 50
