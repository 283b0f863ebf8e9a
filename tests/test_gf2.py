"""Property tests of the GF(2) elimination helper and the solvers built on it.

Each property is checked against brute force: integer determinants for
invertibility and enumeration of every candidate vector for solvability.
"""

import itertools

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from hypothesis.extra.numpy import arrays

import oracles
from drbench.clifford import _gf2_rref
from drbench.compiling import _gf2_solve

MAX_ROWS, MAX_COLS = 6, 8


@st.composite
def binary_matrices(draw, min_cols=1, max_cols=MAX_COLS):
    rows = draw(st.integers(1, MAX_ROWS))
    cols = draw(st.integers(min_cols, max_cols))
    return draw(arrays(np.uint8, (rows, cols), elements=st.integers(0, 1)))


def gf2_matmul(a, b):
    return (np.asarray(a, dtype=np.int64) @ np.asarray(b, dtype=np.int64)) % 2


def invertible_by_det(m) -> bool:
    # a 0/1 matrix of size <= 6 has an integer determinant well inside
    # float precision, and it is odd exactly when m is invertible over GF(2)
    return int(round(np.linalg.det(m.astype(float)))) % 2 == 1


# rows are eliminated as Python ints, so rows wider than a machine word
# (here 63 to 80 columns) must reduce like narrow ones
@settings(max_examples=200, deadline=None)
@given(st.one_of(binary_matrices(), binary_matrices(min_cols=63, max_cols=80)))
def test_rref_transform_and_form(m):
    original = m.copy()
    r, t, pivots = _gf2_rref(m)
    assert np.array_equal(m, original)  # input untouched
    assert np.array_equal(gf2_matmul(t, m), r)
    assert invertible_by_det(t)
    assert len(pivots) == oracles.span_rank(m)
    assert pivots == sorted(set(pivots))
    for i, c in enumerate(pivots):
        assert not r[i, :c].any()
        assert np.array_equal(r[:, c], np.eye(len(m), dtype=np.uint8)[i])
    assert not r[len(pivots):].any()


@settings(max_examples=200, deadline=None)
@given(st.data())
def test_solve_satisfies_or_raises_when_inconsistent(data):
    a = data.draw(binary_matrices())
    b = data.draw(arrays(np.uint8, (a.shape[0],), elements=st.integers(0, 1)))
    solvable = any(
        np.array_equal(gf2_matmul(a, np.array(x)), b)
        for x in itertools.product((0, 1), repeat=a.shape[1])
    )
    if solvable:
        x = _gf2_solve(a, b)
        assert x.shape == (a.shape[1],)
        assert np.array_equal(gf2_matmul(a, x), b)
    else:
        with pytest.raises(ValueError, match="inconsistent"):
            _gf2_solve(a, b)
