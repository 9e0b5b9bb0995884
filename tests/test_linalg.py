"""Exact linear algebra: frozen examples plus randomized invariants."""

import random
from itertools import combinations
from operator import mul

import pytest
from hypothesis import given, settings, strategies as st

from waringcert import PointSet, integer_rank, linalg, terracini, terracini_dimension

from oracles import (laplace_det, minor_rank, pivot_columns_mod_p, rank_mod_p,
                     standard_form_mod_p)

P = linalg._PRIME

LINALG_SETTINGS = dict(max_examples=60, deadline=None, derandomize=True)

entries = st.integers(-9, 9)


def matrices(max_rows=4, max_cols=5):
    return st.integers(1, max_rows).flatmap(
        lambda r: st.integers(1, max_cols).flatmap(
            lambda c: st.lists(
                st.lists(entries, min_size=c, max_size=c),
                min_size=r, max_size=r)))


def test_vandermonde_rank_full():
    nodes = [0, 1, 2, 3]
    assert integer_rank([[t ** k for k in range(4)] for t in nodes]) == 4


def test_collinear_rows_rank_and_kernel():
    assert integer_rank([[1, 0, 0], [1, 1, 0], [1, 2, 0]]) == 2


def test_diagonal_rank_counts_nonzero_entries(exact_eliminations):
    # Regression: the exact elimination must update every later row,
    # including rows with a zero entry in the pivot column.  The last
    # entry is P, so the rank modulo P is 2 and the fallback decides.
    assert integer_rank([[7, 0, 0], [0, 3, 0], [0, 0, P]]) == 3
    assert exact_eliminations == [3]


def test_proportional_rational_rows():
    # The rows (1/2, 1/3) and (1/4, 1/6), each scaled to integers.
    assert integer_rank([[3, 2], [3, 2]]) == 1
    assert integer_rank([[3, 2], [-6, -4]]) == 1


def test_identity_and_zero():
    assert integer_rank([[int(i == j) for j in range(5)] for i in range(5)]) == 5
    assert integer_rank([[0, 0], [0, 0], [0, 0]]) == 0


@settings(**LINALG_SETTINGS)
@given(matrices())
def test_rank_equals_transpose_rank(rows):
    assert integer_rank(rows) == integer_rank(list(zip(*rows)))


@settings(**LINALG_SETTINGS)
@given(matrices())
def test_rank_matches_minor_oracle(rows):
    assert integer_rank(rows) == minor_rank(rows)


@settings(**LINALG_SETTINGS)
@given(matrices(), st.integers(1, 7), st.integers(0, 3))
def test_rank_invariant_under_row_scaling(rows, num, which):
    idx = which % len(rows)
    scaled = [list(r) for r in rows]
    scaled[idx] = [num * x for x in scaled[idx]]
    assert integer_rank(scaled) == integer_rank(rows)


@settings(**LINALG_SETTINGS)
@given(matrices(), st.lists(st.integers(-3, 3), min_size=4, max_size=4))
def test_stacking_dependent_row_keeps_rank(rows, coeffs):
    combo = [sum(map(mul, coeffs, col)) for col in zip(*rows)]
    assert integer_rank(rows + [combo]) == integer_rank(rows)


@st.composite
def modular_matrices(draw):
    """Tall and wide integer matrices up to 40 x 40 of bounded rank modulo P.

    The residues are those of a product A * B over F_P with inner size k,
    so the rank modulo P is at most k, and rows past the pivots keep slots
    that vanish only modulo P.  Each residue x is then written either as
    x plus a multiple of P, up to about 2**40 either way ("big"), or as
    x or x - P at random ("worst": P - 1 and -1 are both -1 modulo P).
    """
    nrows, ncols = draw(st.integers(1, 40)), draw(st.integers(1, 40))
    k = draw(st.integers(1, min(nrows, ncols)))
    big = draw(st.booleans())
    rng = random.Random(draw(st.integers(0, 2 ** 32)))
    a = [[rng.randrange(P) for _ in range(k)] for _ in range(nrows)]
    b = [[rng.randrange(P) for _ in range(ncols)] for _ in range(k)]
    rows = []
    for left in a:
        row = []
        for col in zip(*b):
            x = sum(map(mul, left, col)) % P
            row.append(x + P * rng.randint(-2 ** 10, 2 ** 10) if big
                       else x - P * rng.randint(0, 1))
        rows.append(row)
    return rows


@settings(max_examples=80, deadline=None, derandomize=True)
@given(modular_matrices(), st.integers(0, 40))
def test_packed_rank_mod_p_matches_list_oracle_and_stops_at_target(rows, cut):
    before = [list(r) for r in rows]
    rank = rank_mod_p(rows, P)
    full = min(len(rows), len(rows[0]))
    for target in {full, min(cut, full), rank, max(rank - 1, 0)}:
        assert len(linalg._pivots_mod_p(rows, target)) == min(rank, target)
    assert rows == before


@st.composite
def huge_entry_matrices(draw):
    """Integer matrices up to 40 columns whose entries are multiples of P
    or at least 2**70 in size, with rank modulo P bounded as above."""
    rows = draw(modular_matrices())
    rng = random.Random(draw(st.integers(0, 2 ** 32)))
    zero = rng.random()
    return [[P * rng.randint(-2 ** 50, 2 ** 50) if rng.random() < zero
             else (x + P * rng.randint(2 ** 41, 2 ** 60)) * rng.choice((1, -1))
             for x in row] for row in rows]


@settings(max_examples=60, deadline=None, derandomize=True)
@given(huge_entry_matrices())
def test_folded_rank_mod_p_matches_list_oracle_at_every_target(rows):
    # The pivot tail is reduced by whole-int folds, not slot by slot: every
    # target, from 0 to min(rows, cols), must stop at the oracle's rank.
    rank = rank_mod_p(rows, P)
    for target in range(min(len(rows), len(rows[0])) + 1):
        assert len(linalg._pivots_mod_p(rows, target)) == min(rank, target)


@st.composite
def skipping_matrices(draw):
    """Integer matrices up to 12 x 12 in which some columns are multiples
    of P, or an earlier column plus a multiple of P, so that elimination
    modulo P skips them."""
    nrows, ncols = draw(st.integers(1, 12)), draw(st.integers(1, 12))
    rng = random.Random(draw(st.integers(0, 2 ** 32)))
    cols = []
    for c in range(ncols):
        kind = rng.random()
        if kind < 0.2:
            cols.append([P * rng.randint(-3, 3) for _ in range(nrows)])
        elif kind < 0.4 and c:
            cols.append([x + P * rng.randint(-3, 3) for x in rng.choice(cols)])
        else:
            cols.append([rng.randint(-3, 3) for _ in range(nrows)])
    return [list(row) for row in zip(*cols)]


@settings(**LINALG_SETTINGS)
@given(skipping_matrices())
def test_pivots_mod_p_are_the_columns_where_the_prefix_rank_rises(rows):
    ncols = len(rows[0])
    ranks = [rank_mod_p([row[:c] for row in rows], P) for c in range(ncols + 1)]
    rises = [c for c in range(ncols) if ranks[c + 1] > ranks[c]]
    for target in range(min(len(rows), ncols) + 1):
        assert linalg._pivots_mod_p(rows, target) == rises[:target]


@st.composite
def singular_leading_blocks(draw):
    """Integer matrices up to 8 x 14, mostly wider than tall, in which one
    column of a leading square block is dependent modulo P on the columns
    before it: P times small integers, or an earlier column plus that."""
    nrows, ncols = draw(st.integers(1, 8)), draw(st.integers(1, 14))
    rng = random.Random(draw(st.integers(0, 2 ** 32)))
    cols = [[rng.randint(-3, 3) for _ in range(nrows)] for _ in range(ncols)]
    lead = draw(st.integers(1, min(nrows, ncols)))
    c = draw(st.integers(0, lead - 1))
    base = rng.choice(cols[:c]) if c and draw(st.booleans()) else [0] * nrows
    cols[c] = [x + P * rng.randint(-2, 2) for x in base]
    return [list(row) for row in zip(*cols)]


@settings(max_examples=200, deadline=None, derandomize=True)
@given(st.one_of(singular_leading_blocks(), skipping_matrices()))
def test_pivots_mod_p_match_a_left_to_right_reference(rows):
    # The packed pass eliminates the leading `target` columns first and
    # all of them only when those fall short; the list it returns is the
    # full elimination's, whichever way it went.
    pivots = pivot_columns_mod_p(rows, P)
    for target in range(min(len(rows), len(rows[0])) + 1):
        assert linalg._pivots_mod_p(rows, target) == pivots[:target]


@settings(max_examples=200, deadline=None, derandomize=True)
@given(st.one_of(singular_leading_blocks(), skipping_matrices(), modular_matrices()),
       st.data())
def test_elimination_draws_its_pivots_from_the_leading_rows(rows, data):
    # Pivots drawn from the first `leading` rows alone are those rows' own
    # pivots; every row not taken as a pivot is returned, reduced to zero
    # modulo P on every pivot column.
    nrows, ncols = len(rows), len(rows[0])
    leading = data.draw(st.integers(0, nrows - 1))
    target = data.draw(st.integers(1, min(nrows, ncols)))
    width = linalg._slot_width(nrows, ncols)
    packed = linalg._packed(rows, width, 0)
    pivots, rest = linalg._eliminate_mod_p(packed, ncols, target, leading=leading)
    assert pivots == pivot_columns_mod_p(rows[:leading], P)[:target]
    assert len(rest) == nrows - len(pivots)
    mask = (1 << width) - 1
    for v in rest:
        assert all((v >> (ncols - 1 - c) * width & mask) % P == 0 for c in pivots)


def test_a_full_rank_leading_block_is_the_only_block_eliminated(monkeypatch):
    blocks = []
    eliminate = linalg._eliminate_mod_p

    def counted(packed, ncols, target):
        blocks.append((len(packed), ncols, target))
        return eliminate(packed, ncols, target)

    monkeypatch.setattr(linalg, "_eliminate_mod_p", counted)
    rows = [[1, 0, 5, 7, 9], [0, 1, 2, 4, 8]]
    assert linalg._pivots_mod_p(rows, 2) == [0, 1]
    assert blocks == [(2, 2, 2)]
    # The leading block [[1, P], [1, P]] has rank 1 modulo P, so every
    # column is eliminated; the second pivot is column 2.
    blocks.clear()
    rows = [[1, P, 3, 0], [1, P, 4, 1]]
    assert linalg._pivots_mod_p(rows, 2) == [0, 2]
    assert blocks == [(2, 2, 2), (2, 4, 2)]


def test_packed_rank_mod_p_of_all_minus_one_residues():
    rng = random.Random(7)
    for nrows, ncols in [(1, 1), (3, 40), (40, 3), (40, 40)]:
        rows = [[rng.choice((P - 1, -1)) for _ in range(ncols)] for _ in range(nrows)]
        assert len(linalg._pivots_mod_p(rows, min(nrows, ncols))) == rank_mod_p(rows, P) == 1


# e_0..e_2 and two more points of P^2: five points, the Alexander-Hirschowitz
# quartic case, whose 6 tangent rows off the frame have rank 5 of 6.
AXES = [(1, 0, 0), (0, 1, 0), (0, 0, 1)]
FIVE = AXES + [(1, 1, 1), (1, 2, 3)]


def _certified(rows, d, short=0):
    """``terracini._certified_rank`` of the points of P^2 with integer rows
    ``rows``, e_0..e_2 first, in degree d, handed the rank modulo p of
    their tangent rows off the frame less ``short``."""
    lower = terracini._framed_rank_mod_p(rows[3:], 2, d)[0] - short
    return terracini._certified_rank(rows, rows[3:], 2, d, lower)


def _offer(monkeypatch, candidates):
    """Let ``candidates`` stand for ``_singular_products``: the degree-d
    coefficient vectors that ``_certified_rank`` restricts and checks."""
    monkeypatch.setattr(terracini, "_singular_products", lambda framed, d: candidates)


def _then_fail(vectors=()):
    """The vectors, then a failure if one more is drawn."""
    yield from vectors
    raise AssertionError("a kernel candidate was drawn that the rank did not need")


def test_kernel_is_not_asked_for_at_full_rank_mod_p_or_past_a_gap_of_r(monkeypatch,
                                                                        exact_eliminations):
    _offer(monkeypatch, _then_fail())
    # Full rank modulo p, in the modular frame and, with the first three
    # points dependent, in the exact one: no exact step is taken.
    general = PointSet.from_rows(AXES + [(1, 1, 1)])
    dependent = PointSet.from_rows([(1, 0, 0), (0, 1, 0), (1, 1, 0), (0, 0, 1), (1, 2, 3)])
    assert terracini_dimension(general, 4).dim == 11
    assert terracini_dimension(dependent, 3).dim == 9
    assert exact_eliminations == []
    # Three collinear points fall short at degree 4: rank 2 of 6 columns, a
    # gap of 4 > 2, goes straight to the exact elimination.
    assert _certified(AXES + [(1, 1, 0)], 4) == 11
    assert exact_eliminations == [3]


def test_checked_kernel_vectors_close_the_gap_without_exact_elimination(monkeypatch,
                                                                        exact_eliminations):
    # The square of the conic through the five points closes the gap of 1,
    # and no second candidate is drawn.
    square = next(terracini._singular_products(FIVE, 4))
    assert _certified(FIVE, 4) == 14
    _offer(monkeypatch, _then_fail([square]))
    assert _certified(FIVE, 4) == 14
    assert exact_eliminations == []
    # One vector short of the gap: the exact elimination decides.
    _offer(monkeypatch, iter([]))
    assert _certified(FIVE, 4) == 14
    assert exact_eliminations == [6]


@pytest.mark.parametrize("candidates", [
    lambda q: [[int(i == 3) for i in range(15)], q],   # a non-kernel vector
    lambda q: [[0] * 15, q],                            # the zero vector
    lambda q: [q, q],                                   # one kernel vector given twice
    lambda q: [terracini._multiply(q, [1, 0, 0], 4, 1, 2), q],  # a product of degree 5
    lambda q: [[P * x for x in q], q],                  # a kernel vector that is zero modulo P
], ids=[f"candidates{i}" for i in range(5)])
def test_bad_kernel_candidates_leave_the_rank_exact(monkeypatch, exact_eliminations, candidates):
    # Handed a rank modulo p one below the rank over Q, with a
    # one-dimensional kernel: any two candidates accepted as independent
    # would "prove" the rank one short.
    _offer(monkeypatch, iter(candidates(next(terracini._singular_products(FIVE, 4)))))
    assert _certified(FIVE, 4, short=1) == 14
    assert exact_eliminations == [6]


@settings(max_examples=80, deadline=None, derandomize=True)
@given(modular_matrices(), st.integers(0, 40))
def test_standard_form_mod_p_writes_every_row_in_the_first_rows(rows, cut):
    # The matrices have rank at most k modulo P.  When the first `size` rows
    # have rank `size` and that is the rank of all rows, every other row r
    # lies in their span, and r = C_r B modulo P on every column, not only
    # on the pivot columns Q that C was solved on.  A cut of 0 takes the
    # size at the rank.
    size = min(cut, len(rows), len(rows[0])) or rank_mod_p(rows, P)
    form = linalg._standard_form_mod_p(rows, size)
    head = rows[:size]
    assert (form is None) == (rank_mod_p(head, P) < size)
    if form is not None:
        assert len(form) == len(rows) - size
        assert all(len(c) == size for c in form)
        if rank_mod_p(rows, P) == size:
            for c, r in zip(form, rows[size:]):
                assert [sum(map(mul, c, col)) % P for col in zip(*head)] == [x % P for x in r]


@st.composite
def standard_form_cases(draw):
    """Matrices up to 12 x 10 and a size from 1 to min(rows, cols): entries
    zero, small, multiples of P or up to +-2**40, and rows that repeat an
    earlier row modulo P, so that B is often singular modulo P."""
    nrows, ncols = draw(st.integers(1, 12)), draw(st.integers(1, 10))
    entry = st.one_of(st.just(0), st.integers(-3, 3), st.integers(-3, 3).map(lambda x: x * P),
                      st.integers(-2 ** 40, 2 ** 40))
    rows = []
    for _ in range(nrows):
        if rows and draw(st.integers(0, 3)) == 0:
            earlier = draw(st.sampled_from(rows))
            rows.append([x + P * draw(st.integers(-2, 2)) for x in earlier])
        else:
            rows.append(draw(st.lists(entry, min_size=ncols, max_size=ncols)))
    top = min(nrows, ncols)
    size = draw(st.one_of(st.integers(1, top), st.just(top)))
    return rows, size


@settings(max_examples=200, deadline=None, derandomize=True)
@given(standard_form_cases())
def test_packed_standard_form_matches_the_list_oracle(case):
    # The packed elimination, its pivots drawn from B, and the list-based
    # column elimination take the same pivot columns Q, so C is equal
    # entry by entry, or None on both.
    rows, size = case
    before = [list(r) for r in rows]
    assert linalg._standard_form_mod_p(rows, size) == standard_form_mod_p(rows, size, P)
    assert rows == before


@st.composite
def minor_matrices(draw):
    """Matrices up to 4 x 5 whose entries are small, or small plus a multiple
    of P: many of their minors vanish over Z or only modulo P."""
    nrows, ncols = draw(st.integers(1, 4)), draw(st.integers(1, 5))
    entry = st.one_of(st.integers(-2, 2), st.integers(-2, 2).map(lambda x: x + P),
                      st.integers(1, P - 1))
    return draw(st.lists(st.lists(entry, min_size=ncols, max_size=ncols),
                         min_size=nrows, max_size=nrows))


def refuse(rows, cols):
    """A ``clear`` for ``_minors_nonzero_mod_p`` that clears no minor."""
    return False


@settings(max_examples=300, deadline=None, derandomize=True)
@given(minor_matrices())
def test_minors_nonzero_mod_p_matches_every_laplace_minor(rows):
    expected = all(laplace_det([[rows[r][c] for c in cs] for r in rs]) % P
                   for k in range(1, min(len(rows), len(rows[0])) + 1)
                   for rs in combinations(range(len(rows)), k)
                   for cs in combinations(range(len(rows[0])), k))
    assert linalg._minors_nonzero_mod_p(rows, refuse) is expected


@settings(max_examples=300, deadline=None, derandomize=True)
@given(minor_matrices())
def test_minors_walk_clears_each_zero_minor_once_in_the_matrix_own_indices(rows):
    # Each matrix and its transpose, so tall and wide alike: the walk hands
    # every square minor that is zero modulo P, and no other, to `clear`
    # exactly once, with its row and column indices in the matrix itself,
    # not in the transpose it may walk.
    for m in (rows, [list(col) for col in zip(*rows)]):
        zeros = sorted((rs, cs) for k in range(1, min(len(m), len(m[0])) + 1)
                       for rs in combinations(range(len(m)), k)
                       for cs in combinations(range(len(m[0])), k)
                       if not laplace_det([[m[r][c] for c in cs] for r in rs]) % P)
        cleared = []

        def clear(rs, cs):
            cleared.append((tuple(rs), tuple(cs)))
            return True

        assert linalg._minors_nonzero_mod_p(m, clear) is True
        assert sorted(cleared) == zeros


def test_minors_walk_carries_minors_over_the_shorter_side(monkeypatch):
    # Both a 2 x 6 matrix and its transpose walk subsets of six rows, so
    # each carried vector has at most C(2, k) entries, not C(6, k).
    widths = []
    terms = linalg._laplace_terms

    def counted(width, k):
        widths.append(width)
        return terms(width, k)

    monkeypatch.setattr(linalg, "_laplace_terms", counted)
    rows = [[1, 2, 3, 4, 5, 6], [1, 4, 9, 16, 25, 36]]
    assert linalg._minors_nonzero_mod_p(rows, refuse)
    assert linalg._minors_nonzero_mod_p([list(col) for col in zip(*rows)], refuse)
    assert set(widths) == {2}
