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

from drbench.clifford import _gf2_rref
from drbench.compiling import _gf2_inv, _gf2_solve

MAX_ROWS, MAX_COLS = 6, 8


@st.composite
def binary_matrices(draw, square=False):
    rows = draw(st.integers(1, MAX_ROWS))
    cols = rows if square else draw(st.integers(1, MAX_COLS))
    return draw(arrays(np.uint8, (rows, cols), elements=st.integers(0, 1)))


def gf2_matmul(a, b):
    return (np.asarray(a, dtype=np.int64) @ np.asarray(b, dtype=np.int64)) % 2


def invertible_by_det(m) -> bool:
    # a 0/1 matrix of size <= 6 has an integer determinant well inside
    # float precision, and it is odd exactly when m is invertible over GF(2)
    return int(round(np.linalg.det(m.astype(float)))) % 2 == 1


def span_rank(m) -> int:
    """GF(2) rank as log2 of the number of distinct row combinations."""
    combos = {
        gf2_matmul(np.array(sel), m).tobytes()
        for sel in itertools.product((0, 1), repeat=m.shape[0])
    }
    return len(combos).bit_length() - 1


@settings(max_examples=200, deadline=None)
@given(binary_matrices())
def test_rref_transform_and_form(m):
    original = m.copy()
    r, t, pivots = _gf2_rref(m)
    assert np.array_equal(m, original)  # input untouched
    assert np.array_equal(gf2_matmul(t, m), r)
    assert invertible_by_det(t)
    assert len(pivots) == span_rank(m)
    assert pivots == sorted(set(pivots))
    for i, c in enumerate(pivots):
        assert not r[i, :c].any()
        assert np.array_equal(r[:, c], np.eye(len(m), dtype=np.uint8)[i])
    assert not r[len(pivots):].any()


@settings(max_examples=200, deadline=None)
@given(binary_matrices(square=True))
def test_inv_inverts_or_raises_on_singular(m):
    if invertible_by_det(m):
        inv = _gf2_inv(m)
        eye = np.eye(len(m), dtype=np.int64)
        assert np.array_equal(gf2_matmul(inv, m), eye)
        assert np.array_equal(gf2_matmul(m, inv), eye)
    else:
        with pytest.raises(ValueError, match="singular"):
            _gf2_inv(m)


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
