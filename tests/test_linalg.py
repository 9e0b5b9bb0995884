"""Exact linear algebra: frozen examples plus randomized invariants."""

from fractions import Fraction

import pytest
from hypothesis import given, settings, strategies as st

from waringcert import Matrix, row_space_intersection_dim

from oracles import minor_rank

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
