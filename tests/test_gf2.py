"""Z2 linear algebra kernel used by the cohomology and comparison layers."""

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from gftrees import gf2


def test_rref_of_a_known_matrix():
    A = [[1, 1, 0],
         [1, 0, 1],
         [0, 1, 1]]
    R, pivots = gf2.rref(A)
    assert pivots == [0, 1]
    assert gf2.rank(A) == 2
    # third row is the sum of the first two
    assert np.array_equal(R[2], [0, 0, 0])


def test_nullspace_spans_the_kernel():
    A = [[1, 1, 0],
         [1, 0, 1],
         [0, 1, 1]]
    N = gf2.nullspace(A)
    assert N.shape == (3, 1)
    assert np.array_equal((gf2.asmat(A) @ N) % 2, np.zeros((3, 1)))
    assert np.array_equal(N[:, 0], [1, 1, 1])


def test_solve_finds_a_witness_or_reports_none():
    A = [[1, 1], [0, 1]]
    x = gf2.solve(A, [1, 1])
    assert x is not None
    assert np.array_equal((gf2.asmat(A) @ x) % 2, [1, 1])
    # inconsistent: rows sum to 0 but the right side does not
    B = [[1, 1], [1, 1]]
    assert gf2.solve(B, [1, 0]) is None


@st.composite
def small_matrix(draw):
    rows = draw(st.integers(1, 6))
    cols = draw(st.integers(1, 6))
    flat = draw(st.lists(st.integers(0, 1), min_size=rows * cols,
                         max_size=rows * cols))
    return np.array(flat, dtype=np.uint8).reshape(rows, cols)


@given(small_matrix())
@settings(max_examples=80, deadline=None)
def test_rank_plus_nullity_is_the_column_count(A):
    assert gf2.rank(A) + gf2.nullspace(A).shape[1] == A.shape[1]


@given(small_matrix())
@settings(max_examples=80, deadline=None)
def test_nullspace_columns_really_annihilate(A):
    N = gf2.nullspace(A)
    if N.shape[1]:
        assert not np.any((A @ N) % 2)
    # columns are linearly independent
    assert gf2.rank(N.T) == N.shape[1]


@given(small_matrix(), st.data())
@settings(max_examples=80, deadline=None)
def test_solve_agrees_with_membership(A, data):
    x = data.draw(st.lists(st.integers(0, 1), min_size=A.shape[1],
                           max_size=A.shape[1]))
    b = (A @ np.array(x, dtype=np.uint8)) % 2
    got = gf2.solve(A, b)
    assert got is not None
    assert np.array_equal((A @ got) % 2, b)
