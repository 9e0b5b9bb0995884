"""Exact linear algebra: frozen examples plus randomized invariants."""

import random
from fractions import Fraction
from operator import mul

import pytest
from hypothesis import given, settings, strategies as st

from waringcert import Matrix, integer_rank, linalg, row_space_intersection_dim

from oracles import minor_rank, rank_mod_p

P = linalg._PRIME

LINALG_SETTINGS = dict(max_examples=60, deadline=None, derandomize=True)

entries = st.fractions(
    min_value=-9, max_value=9, max_denominator=4)


def matrices(max_rows=4, max_cols=5):
    return st.integers(1, max_rows).flatmap(
        lambda r: st.integers(1, max_cols).flatmap(
            lambda c: st.lists(
                st.lists(entries, min_size=c, max_size=c),
                min_size=r, max_size=r)))


def test_vandermonde_rank_full():
    nodes = [0, 1, 2, 3]
    m = Matrix([[t ** k for k in range(4)] for t in nodes])
    assert m.rank() == 4


def test_collinear_rows_rank_and_kernel():
    m = Matrix([[1, 0, 0], [1, 1, 0], [1, 2, 0]])
    assert m.rank() == 2


def test_diagonal_rank_counts_nonzero_entries():
    # Regression: the elimination must rescale every lower row, including
    # rows with a zero entry in the pivot column.
    m = Matrix([[7, 0, 0], [0, 3, 0], [0, 0, 1]])
    assert m.rank() == 3


def test_proportional_rational_rows():
    m = Matrix([[Fraction(1, 2), Fraction(1, 3)],
                [Fraction(1, 4), Fraction(1, 6)]])
    assert m.rank() == 1


def test_identity_and_zero():
    identity = Matrix([[int(i == j) for j in range(5)] for i in range(5)])
    assert identity.rank() == 5
    zero = Matrix([[0, 0], [0, 0], [0, 0]])
    assert zero.rank() == 0


def test_row_space_intersection_example():
    m1 = Matrix([[1, 0, 0], [0, 1, 0]])
    m2 = Matrix([[0, 1, 0], [0, 0, 1]])
    assert row_space_intersection_dim(m1, m2) == 1
    disjoint = Matrix([[0, 0, 1]])
    assert row_space_intersection_dim(m1, disjoint) == 0


def test_width_mismatch_errors():
    m1 = Matrix([[1, 0]])
    m2 = Matrix([[1, 0, 0]])
    with pytest.raises(ValueError):
        m1.stack(m2)
    with pytest.raises(ValueError):
        row_space_intersection_dim(m1, m2)


def test_stack_and_transpose_shapes():
    m = Matrix([[1, 2, 3], [4, 5, 6]])
    transposed = Matrix(list(zip(*m.entries)))
    assert transposed.rows == 3 and transposed.cols == 2
    stacked = m.stack(Matrix([[1, 0, 0]]))
    assert stacked.rows == 3 and stacked.rank() == m.rank() + 1


@settings(**LINALG_SETTINGS)
@given(matrices())
def test_rank_equals_transpose_rank(rows):
    assert Matrix(rows).rank() == Matrix(list(zip(*rows))).rank()


@settings(**LINALG_SETTINGS)
@given(matrices())
def test_rank_matches_minor_oracle(rows):
    m = Matrix(rows)
    assert m.rank() == minor_rank(rows)


@settings(**LINALG_SETTINGS)
@given(matrices(), st.integers(1, 7), st.integers(0, 3))
def test_rank_invariant_under_row_scaling(rows, num, which):
    m = Matrix(rows)
    idx = which % len(rows)
    scaled = [list(r) for r in rows]
    scaled[idx] = [Fraction(num) * x for x in scaled[idx]]
    assert Matrix(scaled).rank() == m.rank()


@settings(**LINALG_SETTINGS)
@given(matrices(), st.lists(st.integers(-3, 3), min_size=4, max_size=4))
def test_stacking_dependent_row_keeps_rank(rows, coeffs):
    m = Matrix(rows)
    combo = [sum((Fraction(coeffs[i]) * rows[i][j] for i in range(len(rows))),
                 Fraction(0)) for j in range(m.cols)]
    assert m.stack(Matrix([combo])).rank() == m.rank()


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
        assert linalg._rank_mod_p(rows, target) == min(rank, target)
    assert rows == before


def test_packed_rank_mod_p_of_all_minus_one_residues():
    rng = random.Random(7)
    for nrows, ncols in [(1, 1), (3, 40), (40, 3), (40, 40)]:
        rows = [[rng.choice((P - 1, -1)) for _ in range(ncols)] for _ in range(nrows)]
        assert linalg._rank_mod_p(rows, min(nrows, ncols)) == rank_mod_p(rows, P) == 1


def _fail():
    raise AssertionError("the kernel was asked for on a full-rank matrix")


def test_kernel_is_not_asked_for_at_full_rank_mod_p_or_past_a_gap_of_r(bareiss_calls):
    assert integer_rank([[1, 2, 3], [4, 5, 6]], kernel=_fail) == 2
    assert integer_rank([[1, 0], [0, 1], [1, 1]], kernel=_fail) == 2
    assert bareiss_calls == []
    # Rank 1 in 3 columns: a gap of 2 > 1 goes straight to Bareiss.
    assert integer_rank([[1, 1, 0], [2, 2, 0]], kernel=_fail) == 1
    assert bareiss_calls == [2]


def test_checked_kernel_vectors_close_the_gap_without_bareiss(bareiss_calls):
    rows = [[1, 0, 1, 0], [0, 1, 1, 0], [1, 1, 2, 0]]
    kernel = [[1, 1, -1, 0], [0, 0, 0, 5]]
    assert integer_rank(rows, kernel=lambda: iter(kernel)) == 2
    assert bareiss_calls == []
    # One vector short of cols - r: the Bareiss fallback decides.
    assert integer_rank(rows, kernel=lambda: iter(kernel[:1])) == 2
    assert bareiss_calls == [3]


@pytest.mark.parametrize("candidates", [
    [[0, 0, 1, 0], [0, 0, 0, 1]],      # a non-kernel vector
    [[0, 0, 0, 0], [0, 0, 0, 1]],      # the zero vector
    [[0, 0, 0, 1], [0, 0, 0, 1]],      # one kernel vector given twice
    [[0, 0, 0], [0, 0, 0, 1]],         # a vector of the wrong length
    [[0, 0, 0, P], [0, 0, 0, 1]],      # a kernel vector that is zero modulo P
])
def test_bad_kernel_candidates_leave_the_rank_exact(bareiss_calls, candidates):
    # Rank 3 over Q but 2 modulo P, with a one-dimensional kernel: any two
    # candidates accepted as independent would "prove" rank 2.
    rows = [[1, 0, 0, 0], [0, 1, 0, 0], [0, 0, P, 0]]
    assert integer_rank(rows, kernel=lambda: iter(candidates)) == 3
    assert bareiss_calls == [3]
