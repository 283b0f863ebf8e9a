"""Property tests of the variable-projection decay fit.

The search over p must do at least as well as a dense least-squares
oracle (tests/oracles.py) on every point of this file's own 201-point
grid and on a fine grid around the p it returns, for the anchored and
the full model, and a batch of fits must give each row the fit that row
gets alone.
"""

import numpy as np
import pytest
from hypothesis import assume, example, given, settings
from hypothesis import strategies as st

import oracles
from drbench.analysis import _fit_rows, _full_model, _search, fit_decay

GRID = np.linspace(0.0, 1.0, 201)


@st.composite
def decay_data(draw):
    """Lengths, success rates and positive weights of a few-length decay:
    an exact A + B p^m plus noise, or unstructured rates."""
    ms = np.array(sorted(draw(st.sets(st.integers(0, 40), min_size=3, max_size=7))))
    seed = draw(st.integers(0, 2**32 - 1))
    rng = np.random.default_rng(seed)
    if draw(st.booleans()):
        a, b, p = rng.uniform(0.0, 0.5), rng.uniform(0.1, 0.9), rng.uniform(0.5, 1.0)
        ys = a + b * p**ms + rng.normal(0.0, draw(st.sampled_from([0.0, 1e-3, 0.03])), len(ms))
    else:
        ys = rng.uniform(0.0, 1.0, len(ms))
    w = rng.uniform(0.1, 10.0, len(ms))
    return ms, ys, w


def assert_no_worse_than_oracle(sse, p, oracle):
    fine = np.linspace(max(p - 0.01, 0.0), min(p + 0.01, 1.0), 101)
    best = min(oracle(q) for q in np.concatenate([GRID, fine]))
    assert sse <= best * (1.0 + 1e-9) + 1e-12, (sse, best, p)


def case(ms, ys, w):
    return tuple(np.array(v) for v in (ms, ys, w))


# the examples below fit best toward p = 0, inside the first grid cell,
# or exactly (zero residual at p = 0.43 for [20, 21, 23]): a polish that
# stops early, leaves its bracket or gives up on a step that lands on the
# bracket's end returns a worse fit there
@settings(max_examples=150, deadline=None)
@given(decay_data(), st.integers(1, 4))
@example(case([18, 20, 21], [.85174948, .49364997, .39016178], [1.87811501, 1.09738832, 7.82437595]),
         1)
def test_anchored_search_matches_oracle(data, n):
    ms, ys, w = data
    sw = np.sqrt(w)[None]
    a0 = 2.0**-n
    sse, p, clamped, _ = _search(sw * (ys - a0), sw, ms, False)
    assert 0.0 <= p[0] <= 1.0
    assert clamped[0] == (p[0] in (0.0, 1.0))
    assert_no_worse_than_oracle(sse[0], p[0], lambda q: oracles.decay_sse(ms, ys, w, q, floor=a0))


@settings(max_examples=150, deadline=None)
@given(decay_data())
@example(case([5, 7, 8], [.94305611, .51132755, .97624371], [.90027664, 6.11282274, 3.82721719]))
@example(case([20, 21, 23], [.63696169, .26978671, .04097352], [.26362359, 8.15137537, 9.13628022]))
@example(case([4, 5, 6], [.53816435, .34327087, .36906724], [3.80751798, 9.8757054, 6.3642871]))
@example(case([6, 11, 12], [.53816435, .34327087, .36906724], [3.80751798, 9.8757054, 6.3642871]))
# long lengths fit at p near 0.5-0.7, where p^m - 1 is nearly the constant
# at every length and loses its direction once the constant is projected
@example(case([28, 29, 30, 32, 38], [.52719583, .43323986, .21724412, .18180118, .17750818],
              [3.78255887, 2.15438147, 1.07051149, 8.64557404, 8.67366399]))
@example(case([34, 35, 38, 40], [.11582271, .32758020, .87896245, .88486215],
              [2.06119581, 7.79561063, 8.79819385, 6.38814733]))
def test_full_search_matches_oracle(data):
    ms, ys, w = data
    sse, p, clamped, _ = _search(*_full_model(ms, ys[None], np.sqrt(w)[None]))
    assert 0.0 <= p[0] <= 1.0
    assert clamped[0] == (p[0] in (0.0, 1.0))
    assert_no_worse_than_oracle(sse[0], p[0], lambda q: oracles.decay_sse(ms, ys, w, q))


@settings(max_examples=60, deadline=None)
@given(st.lists(decay_data(), min_size=1, max_size=5), st.integers(1, 4), st.data())
def test_batch_invariance(rows, n, data):
    ms = rows[0][0]
    ys = np.array([np.resize(r[1], len(ms)) for r in rows])
    w = np.array([np.resize(r[2], len(ms)) for r in rows])
    batch = _fit_rows(ms, ys, w, n)
    k = data.draw(st.integers(0, len(rows) - 1))
    fit = fit_decay(dict(zip(ms.tolist(), ys[k])), dict(zip(ms.tolist(), w[k])), n=n)
    a, b, p, clamped, anchored, degenerate = (v[k] for v in batch)
    assert (fit.A, fit.B, fit.p) == (a, b, p)
    assert (fit.clamped, fit.anchored, fit.degenerate) == (clamped, anchored, degenerate)


@settings(max_examples=100, deadline=None)
@given(decay_data(), st.integers(1, 4))
def test_chi2_is_the_weighted_sse_of_the_fit(data, n):
    ms, ys, w = data
    fit = fit_decay(dict(zip(ms.tolist(), ys)), dict(zip(ms.tolist(), w)), n=n)
    assert fit.dof == len(ms) - (2 if fit.anchored else 3)
    # the oracle's dense least squares loses the decay column against the
    # constant once p^m is tiny at every length
    assume(fit.anchored or fit.p ** ms.min() > 1e-6)
    floor = 2.0**-n if fit.anchored else None
    assert fit.chi2 == pytest.approx(oracles.decay_sse(ms, ys, w, fit.p, floor=floor),
                                     rel=1e-9, abs=1e-12)
