"""Property tests of the variable-projection decay fit.

The search over p must do at least as well as a dense least-squares
oracle (tests/oracles.py) on every grid point and on a fine grid around
the p it returns, for the anchored and the full model, and a batch of
fits must give each row the fit that row gets alone.
"""

import numpy as np
from hypothesis import given, settings
from hypothesis import strategies as st

import oracles
from drbench.analysis import _GRID, _fit_rows, _full_model, _search, fit_decay


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
    best = min(oracle(q) for q in np.concatenate([_GRID, fine]))
    assert sse <= best * (1.0 + 1e-9) + 1e-12, (sse, best, p)


@settings(max_examples=150, deadline=None)
@given(decay_data(), st.integers(1, 4))
def test_anchored_search_matches_oracle(data, n):
    ms, ys, w = data
    sw = np.sqrt(w)[None]
    a0 = 2.0**-n
    sse, p, clamped, _ = _search(sw * (ys - a0), lambda q: sw[:, None] * q[..., None] ** ms)
    assert 0.0 <= p[0] <= 1.0
    assert clamped[0] == (p[0] in (0.0, 1.0))
    assert_no_worse_than_oracle(sse[0], p[0], lambda q: oracles.decay_sse(ms, ys, w, q, floor=a0))


@settings(max_examples=150, deadline=None)
@given(decay_data())
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
