"""Shared helpers for the test suite: seeded random point-set corpora, and
counts of the Bareiss fallbacks and of the exact ranks of the Kruskal
subset sweeps."""

import random

import pytest

from waringcert import PointSet, ProjectivePoint, kruskal, linalg

BAREISS = linalg._bareiss_rank
EXACT_RANK = kruskal.integer_rank


def random_points(n, size, rng, bound=9):
    """A random PointSet of `size` distinct points in P^n, coordinates in [-bound, bound]."""
    points = []
    seen = set()
    while len(points) < size:
        coords = tuple(rng.randint(-bound, bound) for _ in range(n + 1))
        if all(c == 0 for c in coords):
            continue
        point = ProjectivePoint(coords)
        if point in seen:
            continue
        seen.add(point)
        points.append(point)
    return PointSet(tuple(points))


def corpus(seed, count, dims, max_size, bound=9, min_size=1):
    """Deterministic list of `count` random point sets across the given dims."""
    rng = random.Random(seed)
    sets = []
    for _ in range(count):
        n = rng.choice(dims)
        size = rng.randint(min_size, max_size)
        sets.append(random_points(n, size, rng, bound=bound))
    return sets


@pytest.fixture
def bareiss_calls(monkeypatch):
    """The row counts of every ``linalg._bareiss_rank`` call, in order."""
    calls = []

    def counted(m):
        calls.append(len(m))
        return BAREISS(m)

    monkeypatch.setattr(linalg, "_bareiss_rank", counted)
    return calls


@pytest.fixture
def exact_sweeps(monkeypatch):
    """The row count of every exact rank a Kruskal subset sweep takes
    (``kruskal.integer_rank``): empty exactly when the modular walk proved
    every subset of every sweep."""
    calls = []

    def counted(rows):
        calls.append(len(rows))
        return EXACT_RANK(rows)

    monkeypatch.setattr(kruskal, "integer_rank", counted)
    return calls
