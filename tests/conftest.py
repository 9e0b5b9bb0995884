"""Shared helpers for the test suite: seeded random point-set corpora, and
counts of the exact eliminations ``integer_rank`` falls back to and of the
exact ranks of the Kruskal subset sweeps."""

import random

import pytest

from waringcert import PointSet, ProjectivePoint, kruskal, linalg

KERNEL = linalg.integer_kernel
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
def exact_eliminations(monkeypatch):
    """The row counts of every exact elimination ``integer_rank`` falls
    back to, in order.  Its fallback is ``integer_kernel`` looked up in
    ``linalg``; the other modules import ``integer_kernel`` by name, so
    their own kernels are not counted."""
    calls = []

    def counted(rows):
        calls.append(len(rows))
        return KERNEL(rows)

    monkeypatch.setattr(linalg, "integer_kernel", counted)
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
