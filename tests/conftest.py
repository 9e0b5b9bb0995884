"""Shared helpers for the test suite: seeded random point-set corpora,
counts of the exact eliminations that ``integer_rank`` and the Terracini
rank fall back to and of the exact ranks of the Kruskal subset sweeps, and
the repository's scripts as modules."""

import functools
import importlib.util
import random
import sys
from pathlib import Path

import pytest

from waringcert import PointSet, ProjectivePoint, kruskal, linalg, terracini

KERNEL = linalg.integer_kernel
EXACT_RANK = kruskal.integer_rank
# The two rank proofs whose last resort is ``integer_kernel`` of their rows.
FALLBACKS = (linalg.integer_rank.__code__, terracini._certified_rank.__code__)


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


@functools.cache
def load_script(folder, name):
    """The script ``folder/name.py`` of the repository, loaded as a module;
    any ``sys.path`` entry it adds for its sibling modules is taken out
    again."""
    spec = importlib.util.spec_from_file_location(
        f"{folder}_{name}", Path(__file__).resolve().parents[1] / folder / f"{name}.py")
    module = importlib.util.module_from_spec(spec)
    saved = list(sys.path)
    try:
        spec.loader.exec_module(module)
    finally:
        sys.path[:] = saved
    return module


def spy_fallbacks(monkeypatch, record):
    """Hand ``record`` the rows of every exact elimination that
    ``linalg.integer_rank`` or ``terracini._certified_rank`` falls back to,
    in order: their ``integer_kernel`` calls.  The kernels that other code
    takes, of smaller matrices (``_singular_products``' forms vanishing on
    the points, the frames), are not recorded."""
    def spied(rows):
        if sys._getframe(1).f_code in FALLBACKS:
            record(rows)
        return KERNEL(rows)

    for module in (linalg, terracini):
        monkeypatch.setattr(module, "integer_kernel", spied)


@pytest.fixture
def exact_eliminations(monkeypatch):
    """The row counts of every exact elimination a rank falls back to
    (``spy_fallbacks``), in order."""
    calls = []
    spy_fallbacks(monkeypatch, lambda rows: calls.append(len(rows)))
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
