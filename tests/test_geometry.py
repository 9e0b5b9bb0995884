"""Projective points, monomials, and the monomial values of point sets."""

import copy
import pickle
import random
from fractions import Fraction
from itertools import product
from math import gcd

import pytest
from hypothesis import assume, given, settings, strategies as st

from waringcert import (
    DuplicatePointError,
    PointSet,
    ProjectivePoint,
    certify,
    hilbert_function,
    max_collinear_subset_size,
    monomial_basis,
    monomial_values,
    random_point_set,
    span_dim,
    union,
    veronese_kruskal_rank,
)
from waringcert.geometry import _box_point_count

from conftest import random_points
from oracles import brute_max_collinear, linear_form_power


def test_point_canonicalization():
    assert ProjectivePoint((2, 4, 6)).coords == (1, 2, 3)
    assert ProjectivePoint((0, 3, 6)).coords == (0, 1, 2)
    assert ProjectivePoint((Fraction(-1, 2), 1)).coords == (1, -2)
    assert ProjectivePoint((2, 4)) == ProjectivePoint((3, 6))
    with pytest.raises(ValueError):
        ProjectivePoint((0, 0, 0))
    with pytest.raises(ValueError):
        ProjectivePoint((5,))


def test_pickle_and_copies_rebuild_with_empty_caches():
    a = PointSet.from_rows([(2, Fraction(-1, 3), 0), (0, 1, 3), (2, 1, 1),
                            (1, 1, 1), (0, 0, 1), (3, -1, 2)])
    reference = certify(a, 3)
    assert a._memo
    for clone in (pickle.loads(pickle.dumps(a)), copy.copy(a), copy.deepcopy(a)):
        assert clone == a and hash(clone) == hash(a)
        assert clone._memo == {}
        assert certify(clone, 3) == reference
    p = a[0]
    assert p.primitive_coords == (6, -1, 0)
    for clone in (pickle.loads(pickle.dumps(p)), copy.copy(p), copy.deepcopy(p)):
        assert clone == p and clone.coords == p.coords
        assert clone.primitive_coords == (6, -1, 0)


def test_point_hash_reads_no_fraction_and_agrees_across_scalings_and_pickling(monkeypatch):
    pairs = [
        (ProjectivePoint((2, 4, 6)), ProjectivePoint((Fraction(1, 3), Fraction(2, 3), 1))),
        (ProjectivePoint((0, -3, 6)), ProjectivePoint((0, Fraction(1, 7), Fraction(-2, 7)))),
        (ProjectivePoint((5, 0, 0, 1)), ProjectivePoint((Fraction(-5, 2), 0, 0, Fraction(-1, 2)))),
    ]
    for p, q in pairs:
        assert p == q and hash(p) == hash(q)
        clone = pickle.loads(pickle.dumps(q))
        assert clone == p and hash(clone) == hash(p)
        assert {p: 1}[clone] == 1
    # Hashing a point hashes no Fraction, whatever it was built from.
    p = pairs[0][1]
    calls = []
    original = Fraction.__hash__
    monkeypatch.setattr(Fraction, "__hash__", lambda x: calls.append(x) or original(x))
    assert len({p, pairs[0][0]}) == 1
    assert PointSet([p, pairs[1][0]]) is not None
    assert calls == []


def _rational_entry():
    return st.one_of(
        st.integers(-6, 6),
        st.fractions(-6, 6, max_denominator=6),
        st.builds("{}/{}".format, st.integers(-6, 6), st.integers(1, 6)))


@settings(max_examples=150, deadline=None, derandomize=True)
@given(st.integers(2, 4).flatmap(
    lambda size: st.lists(_rational_entry(), min_size=size, max_size=size)),
    st.integers(-5, 5).filter(bool))
def test_a_point_is_its_primitive_vector_and_keeps_its_canonical_coordinates(row, scale):
    exact = [Fraction(x) for x in row]
    assume(any(exact))
    lead = next(x for x in exact if x)
    p = ProjectivePoint(row)
    assert p.coords == tuple(x / lead for x in exact)
    prim = p.primitive_coords
    assert all(type(x) is int for x in prim)
    assert gcd(*prim) == 1 and next(x for x in prim if x) > 0
    ratio = prim[exact.index(lead)] / lead
    assert prim == tuple(x * ratio for x in exact)
    spellings = [ProjectivePoint(exact), ProjectivePoint([str(x * scale) for x in exact])]
    old_repr = "(" + " : ".join(str(x / lead) for x in exact) + ")"
    for q in [p] + spellings:
        assert q == p and hash(q) == hash(p) and repr(q) == old_repr


def test_an_integer_row_builds_no_fraction(monkeypatch):
    made = []
    original = Fraction.__new__

    def counted(cls, *args, **kwargs):
        made.append(args)
        return original(cls, *args, **kwargs)

    monkeypatch.setattr(Fraction, "__new__", staticmethod(counted))
    p = ProjectivePoint((0, -4, 6, 10))
    assert p.primitive_coords == (0, 2, -3, -5)
    assert p == ProjectivePoint([0, 2, -3, -5]) and len({p, ProjectivePoint((0, 6, -9, -15))}) == 1
    random_point_set(3, 8, random.Random(0))
    assert made == []
    assert ProjectivePoint(("1/2", 1)).primitive_coords == (1, 2)
    assert made


def test_point_set_rejects_duplicates_with_indices():
    rows = [(1, 0), (0, 1), (2, 0)]
    with pytest.raises(DuplicatePointError) as exc:
        PointSet.from_rows(rows)
    assert exc.value.first == 0
    assert exc.value.second == 2


def test_point_set_order_and_containment():
    a = PointSet.from_rows([(1, 0, 0), (0, 1, 0), (1, 1, 1)])
    assert len(a) == 3
    assert a[1] == ProjectivePoint((0, 1, 0))
    assert ProjectivePoint((2, 2, 2)) in a
    assert a.subset([2, 0]) == PointSet.from_rows([(1, 1, 1), (1, 0, 0)])


def test_union_keeps_first_set_order():
    a = PointSet.from_rows([(1, 0), (0, 1)])
    b = PointSet.from_rows([(0, 1), (1, 1)])
    assert union(a, b) == PointSet.from_rows([(1, 0), (0, 1), (1, 1)])


def test_monomial_basis_lex_descending():
    basis = monomial_basis(2, 2)
    assert list(basis) == [
        (2, 0, 0), (1, 1, 0), (1, 0, 1), (0, 2, 0), (0, 1, 1), (0, 0, 2)]
    assert all(sum(e) == 2 for e in basis)
    assert len(monomial_basis(3, 4)) == 35


def veronese_image(p, d):
    """The Veronese coordinates of p, from its monomial values: each weighted
    by the coefficient of its monomial in (x_0 + ... + x_n)**d."""
    n = p.ambient_dim
    weights = linear_form_power((1,) * (n + 1), d)
    (values,) = monomial_values(PointSet([p]), d)
    return tuple(weights[e] * v for e, v in zip(monomial_basis(n, d), values))


def test_veronese_binary_examples():
    assert veronese_image(ProjectivePoint((1, 1)), 2) == (1, 2, 1)
    assert veronese_image(ProjectivePoint((1, 2)), 3) == (1, 6, 12, 8)


def test_veronese_degree_one_is_identity():
    p = ProjectivePoint((3, -1, 2))
    assert veronese_image(p, 1) == p.primitive_coords == (3, -1, 2)


def test_veronese_coordinate_point():
    image = veronese_image(ProjectivePoint((0, 1, 0)), 2)
    expected = tuple(int(e == (0, 2, 0)) for e in monomial_basis(2, 2))
    assert image == expected


def test_veronese_matches_power_expansion_oracle():
    rng = random.Random(11)
    for _ in range(25):
        n = rng.choice([1, 2, 3])
        d = rng.randint(1, 4)
        p = random_points(n, 1, rng)[0]
        oracle = linear_form_power(p.primitive_coords, d)
        for e, value in zip(monomial_basis(n, d), veronese_image(p, d)):
            assert value == oracle.get(e, 0)


def test_veronese_coordinate_sum_is_power_of_sum():
    rng = random.Random(12)
    for _ in range(25):
        n = rng.choice([1, 2, 3])
        d = rng.randint(1, 5)
        p = random_points(n, 1, rng)[0]
        assert sum(veronese_image(p, d)) == sum(p.primitive_coords) ** d


def test_veronese_set_injective_on_corpus():
    # Distinct points have independent images: a Kruskal rank of at least 2.
    rng = random.Random(13)
    for _ in range(10):
        a = random_points(rng.choice([1, 2, 3]), rng.randint(2, 8), rng)
        assert veronese_kruskal_rank(a, rng.randint(1, 4)) >= 2


def test_span_dim_examples():
    collinear = PointSet.from_rows([(1, 0, 0), (1, 1, 0), (1, 2, 0)])
    assert span_dim(collinear) == 1
    assert hilbert_function(collinear, 1) != len(collinear)
    simplex = PointSet.from_rows([(1, 0, 0), (0, 1, 0), (0, 0, 1)])
    assert span_dim(simplex) == 2
    assert hilbert_function(simplex, 1) == len(simplex)
    singleton = PointSet.from_rows([(1, 7)])
    assert span_dim(singleton) == 0


def test_max_collinear_examples():
    a = PointSet.from_rows(
        [(1, 0, 0), (0, 1, 0), (1, 1, 0), (0, 0, 1), (1, 0, 1)])
    assert max_collinear_subset_size(a) == 3
    pair = PointSet.from_rows([(1, 0), (0, 1)])
    assert max_collinear_subset_size(pair) == 2
    binary = PointSet.from_rows([(1, 0), (0, 1), (1, 1), (1, 2)])
    assert max_collinear_subset_size(binary) == 4
    # Two lines through (1:0:0), which is not the first point of either:
    # x2 = 0 holds three of the points, x1 = 0 holds four.
    two_lines = PointSet.from_rows([
        (0, 1, 0), (1, 1, 0), (0, 0, 1), (1, 0, 0), (1, 0, 1), (1, 0, -1)])
    assert max_collinear_subset_size(two_lines) == 4
    # From (1:0:0) the lines to the other points of x2 = 0 have Pluecker
    # vectors (1, 0, 0), (2, 0, 0) and (-3, 0, 0): one line, named three ways.
    scaled = PointSet.from_rows([(1, 0, 0), (0, 1, 0), (1, 2, 0), (1, -3, 0)])
    assert max_collinear_subset_size(scaled) == 4
    # A line of P^3 through p = (1:2:-1:3) and q = (0:1:1:-2) and the
    # points p + q, 2p - q, p - 3q: its pairs give minor vectors with gcd
    # up to 5 and both signs of leading entry.  Two points lie off it.
    p, q = (1, 2, -1, 3), (0, 1, 1, -2)
    line3 = [p, q] + [tuple(s * x + t * y for x, y in zip(p, q))
                      for s, t in ((1, 1), (2, -1), (1, -3))]
    assert max_collinear_subset_size(
        PointSet.from_rows(line3 + [(0, 0, 1, 0), (0, 0, 0, 1)])) == 5
    assert max_collinear_subset_size(
        PointSet.from_rows([(0, 0, 1, 0)] + line3[::-1])) == 5
    # A line of P^4 holding four points, with a collinear triple elsewhere.
    p, q = (2, 0, -4, 6, 2), (0, 3, 3, 0, -6)
    line4 = [tuple(s * x + t * y for x, y in zip(p, q))
             for s, t in ((1, 0), (0, 1), (1, 1), (3, -2))]
    triple = [(0, 0, 0, 1, 0), (0, 0, 0, 0, 1), (0, 0, 0, 1, -1)]
    assert max_collinear_subset_size(PointSet.from_rows(triple + line4)) == 4
    assert max_collinear_subset_size(
        PointSet.from_rows(triple + line4[:2])) == 3


def test_max_collinear_matches_brute_force():
    rng = random.Random(14)
    for _ in range(15):
        a = random_points(2, rng.randint(1, 6), rng, bound=3)
        rows = [p.coords for p in a]
        assert max_collinear_subset_size(a) == brute_max_collinear(rows)
    # In P^3 and P^4 random points are rarely aligned, so add points of the
    # line through the first two and shuffle.
    for n in (3, 4):
        for _ in range(8):
            rows = [p.coords for p in random_points(n, rng.randint(2, 4), rng, bound=3)]
            for _ in range(rng.randint(1, 3)):
                s, t = rng.choice([1, 2, -3]), rng.choice([1, -1, 4])
                point = ProjectivePoint(s * x + t * y for x, y in zip(rows[0], rows[1]))
                if point.coords not in rows:
                    rows.append(point.coords)
            rng.shuffle(rows)
            a = PointSet.from_rows(rows)
            assert max_collinear_subset_size(a) == brute_max_collinear(rows)


def test_random_point_set_deterministic():
    a = random_point_set(2, 6, random.Random(99))
    b = random_point_set(2, 6, random.Random(99))
    assert a == b
    assert len(a) == 6 and a.ambient_dim == 2


def test_box_point_count_matches_enumeration():
    for n in (1, 2):
        for bound in range(1, 5):
            points = {ProjectivePoint(v) for v in product(range(-bound, bound + 1),
                                                          repeat=n + 1) if any(v)}
            assert _box_point_count(n, bound) == len(points)


@pytest.mark.parametrize("n, bound", [(1, 1), (1, 2), (2, 1)])
def test_random_point_set_takes_every_point_of_a_small_box(n, bound):
    count = _box_point_count(n, bound)
    a = random_point_set(n, count, random.Random(0), bound=bound)
    assert len(set(a)) == count
    assert all(max(map(abs, p.primitive_coords)) <= bound for p in a)
    with pytest.raises(ValueError, match=f"only {count} points"):
        random_point_set(n, count + 1, random.Random(0), bound=bound)


def test_sampling_past_the_box_raises_instead_of_hanging():
    # P^1 has four points with coordinates in [-1, 1].
    assert _box_point_count(1, 1) == 4
    with pytest.raises(ValueError):
        random_point_set(1, 5, random.Random(0), bound=1)
