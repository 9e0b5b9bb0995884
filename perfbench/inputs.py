"""Seeded inputs for the benchmark, built without any waringcert code.

A later change to the library's own sampler must not change what the
benchmark feeds it, so point sets are drawn here: integer coordinates in
[-BOUND, BOUND] from the caller's ``random.Random``, deduplicated
projectively, and redrawn until the set is in linearly general position
(no n + 1 of the points on a hyperplane).  That last condition keeps a
rare special draw (three collinear plane points, say) from changing which
criterion fires, so one recorded answer per shape holds for every seed.
"""

from __future__ import annotations

import hashlib
import random
from fractions import Fraction
from itertools import combinations
from math import gcd

BOUND = 20


def _primitive(vec: list[int]) -> tuple[int, ...]:
    """The primitive integer vector of the projective point, leading sign +."""
    g = 0
    for x in vec:
        g = gcd(g, x)
    lead = next(x for x in vec if x)
    sign = 1 if lead > 0 else -1
    return tuple(sign * x // g for x in vec)


def _full_rank(rows: list[tuple[int, ...]]) -> bool:
    """Whether the integer rows are linearly independent (fraction-free elimination)."""
    m = [list(r) for r in rows]
    nrows, ncols = len(m), len(m[0])
    piv, prev = 0, 1
    for col in range(ncols):
        if piv == nrows:
            break
        hit = next((r for r in range(piv, nrows) if m[r][col]), None)
        if hit is None:
            continue
        m[piv], m[hit] = m[hit], m[piv]
        p = m[piv][col]
        for r in range(piv + 1, nrows):
            f = m[r][col]
            for c in range(col + 1, ncols):
                m[r][c] = (p * m[r][c] - f * m[piv][c]) // prev
            m[r][col] = 0
        prev = p
        piv += 1
    return piv == nrows


def in_general_position(rows: list[tuple[int, ...]]) -> bool:
    """No n + 1 of the points (in P^n) are linearly dependent."""
    k = min(len(rows), len(rows[0]))
    return all(_full_rank([rows[i] for i in sub])
               for sub in combinations(range(len(rows)), k))


def draw_points(rng: random.Random, n: int, size: int) -> list[tuple[int, ...]]:
    """``size`` distinct points of P^n in linearly general position."""
    while True:
        seen: set[tuple[int, ...]] = set()
        rows: list[tuple[int, ...]] = []
        while len(rows) < size:
            vec = [rng.randint(-BOUND, BOUND) for _ in range(n + 1)]
            if not any(vec):
                continue
            key = _primitive(vec)
            if key in seen:
                continue
            seen.add(key)
            rows.append(tuple(vec))
        if in_general_position(rows):
            return rows


def canonical_digest(rows: list[tuple[int, ...]]) -> str:
    """SHA-256 of the canonical coordinates (first nonzero coordinate 1).

    Computed independently of the library; it must equal the ``digest``
    field of the CLI's structured output for the same points.
    """
    lines = [f"dim: {len(rows[0]) - 1}"]
    for row in rows:
        lead = next(x for x in row if x)
        lines.append(" ".join(str(Fraction(x, lead)) for x in row))
    return hashlib.sha256("\n".join(lines).encode("utf-8")).hexdigest()


def point_file_text(rows: list[tuple[int, ...]]) -> str:
    """The CLI point-file format: a dim header, then one point per line."""
    body = "\n".join(" ".join(str(x) for x in row) for row in rows)
    return f"dim: {len(rows[0]) - 1}\n{body}\n"
