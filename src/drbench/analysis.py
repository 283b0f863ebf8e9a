"""Decay fitting, uncertainty estimation, and error-rate decomposition.

The pipeline is: average a dataset per length, fit the exponential decay
A + B p^m with weighted least squares, convert p to an error rate, and
bootstrap over circuits for 2 sigma intervals.  Mixed-sampler experiments
are decomposed through a linear rate system.
"""

from __future__ import annotations

import dataclasses
from dataclasses import dataclass

import numpy as np

from .clifford import GateLabel
from .device import DeviceSpec
from .sampling import SamplerSpec, cnot_placement_distribution
from .simulate import Dataset, ErrorModel, layer_error_rate


def drb_error_rate(p, n: int):
    """Error rate implied by a fitted decay constant on n qubits; p may be
    an array of them, where a NaN (a failed fit) gives NaN."""
    if np.any((np.asarray(p) < 0.0) | (np.asarray(p) > 1.0)):
        raise ValueError(f"p must lie in [0, 1], got {p}")
    d = 4.0**n
    return (d - 1.0) * (1.0 - p) / d


@dataclass(frozen=True)
class DecayFit:
    """Result of fitting P_m = A + B p^m."""

    A: float
    B: float
    p: float
    n: int
    r: float
    lengths: tuple[int, ...]
    residuals: tuple[float, ...]
    chi2: float
    dof: int
    clamped: bool = False
    degenerate: bool = False
    anchored: bool = False

    def __post_init__(self):
        if not 0.0 <= self.p <= 1.0:
            raise ValueError("p must lie in [0, 1]")
        if abs(self.r - drb_error_rate(self.p, self.n)) > 1e-12:
            raise ValueError("r inconsistent with p")


@dataclass(frozen=True)
class RateSystem:
    """Linear system r = M eps linking observed rates to layer categories.

    ``matrix`` rows are experiments, columns are gate categories; each row
    must sum to 1 because every sampled layer falls in exactly one
    category.  ``solve_category_rates`` fills the epsilon fields.
    """

    matrix: tuple[tuple[float, ...], ...]
    observed: tuple[float, ...]
    sigmas: tuple[float, ...] | None = None
    epsilons: tuple[float, ...] | None = None
    epsilon_sigmas: tuple[float, ...] | None = None
    epsilon_covariance: tuple[tuple[float, ...], ...] | None = None

    def __post_init__(self):
        m = np.asarray(self.matrix, dtype=float)
        if m.ndim != 2 or m.size == 0:
            raise ValueError("matrix must be a nonempty 2d array")
        if len(self.observed) != m.shape[0]:
            raise ValueError("one observed rate per matrix row required")
        if self.sigmas is not None and len(self.sigmas) != m.shape[0]:
            raise ValueError("one sigma per matrix row required")
        bad = np.abs(m.sum(axis=1) - 1.0) > 1e-9
        if np.any(bad):
            raise ValueError(f"matrix rows must sum to 1 (rows {np.flatnonzero(bad).tolist()})")


@dataclass(frozen=True)
class BootstrapResult:
    fit: DecayFit
    p_sigma: float
    r_sigma: float
    a_sigma: float
    b_sigma: float
    p_interval: tuple[float, float]
    r_interval: tuple[float, float]
    a_interval: tuple[float, float]
    b_interval: tuple[float, float]
    resamples: int
    failures: int
    anchored_frac: float
    clamped_frac: float


@dataclass(frozen=True)
class BuildingBlockRates:
    local: float
    cnot_classes: tuple[float, ...]
    cnot: float
    flagged: bool
    local_sigma: float | None = None
    class_sigmas: tuple[float, ...] | None = None
    cnot_sigma: float | None = None


def _per_length(dataset: Dataset) -> dict[int, np.ndarray]:
    """Per length, in increasing order, a (2, circuits) array of each
    circuit's success rate and shots."""
    if not dataset.rows:
        raise ValueError("dataset has no rows")
    groups: dict[int, list[tuple[float, int]]] = {}
    for row in dataset.rows:
        if row.shots == 0:
            raise ValueError(f"row {row.circuit_id} has zero shots")
        groups.setdefault(row.m, []).append((row.successes / row.shots, row.shots))
    return {m: np.array(groups[m]).T for m in sorted(groups)}


def average_success(dataset: Dataset) -> dict[int, tuple[float, tuple[float, ...]]]:
    """Per-length mean success rate plus the per-circuit rates behind it."""
    return {m: (float(rates.mean()), tuple(rates.tolist()))
            for m, (rates, _) in _per_length(dataset).items()}


def _inverse_variance(p, shots):
    # elementwise, so one call weights a whole batch of resamples
    return 1.0 / (np.maximum(p * (1.0 - p), 0.25 / shots) / shots)


def _check_covered(lengths, table: dict, what: str) -> None:
    """A ValueError naming the lengths that ``table`` has no entry for."""
    if missing := sorted(m for m in lengths if m not in table):
        raise ValueError(f"{what} missing for lengths {missing}")


_GRID = np.linspace(0.0, 1.0, 201)
_NEWTON_STEPS = 64  # cap for rows whose polish only bisects, e.g. toward p -> 0+


def _best_multiple(e: np.ndarray, cols: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """Residual sum of squares and coefficient, each (rows, K), of the
    best multiple of each column of cols (rows, K, L) for each row of e
    (rows, L).  A zero column gets coefficient 0."""
    xx = np.einsum("rkl,rkl->rk", cols, cols)
    coef = np.divide(np.einsum("rkl,rl->rk", cols, e), xx, out=np.zeros_like(xx),
                     where=xx > 0.0)
    res = e[:, None, :] - coef[..., None] * cols
    return np.einsum("rkl,rkl->rk", res, res), coef


def _project(x: np.ndarray, sw: np.ndarray) -> np.ndarray:
    """x (rows, K, L) with each row's constant column sw projected out."""
    uk = (sw / np.linalg.norm(sw, axis=1, keepdims=True))[:, None, :]
    return x - np.sum(x * uk, axis=2, keepdims=True) * uk


def _full_model(exps: np.ndarray, ys: np.ndarray, sw: np.ndarray):
    """``_search`` arguments of A + B p^exps: the target sw y with the
    constant column sw projected out, which profiles A."""
    return _project((sw * ys)[:, None], sw)[:, 0], sw, exps, True


def _direction(p: np.ndarray, exps: np.ndarray, free: bool) -> np.ndarray:
    """The model's column before weighting, p^exps, at p (..., 1).

    The free model's column only matters once the constant is projected
    out, so it is recentred to p^exps - p^mid at the median exponent mid.
    p^exps itself is nearly parallel to the constant when it is near 1 at
    every length, and p^exps - 1 is when p^exps is near 0, and either then
    loses its direction in the projection.  From p = 0.5 up the column is
    built from expm1, accurate as p -> 1; at p = 1 it merges with the
    constant and its limit direction exps - mid is used.
    """
    if not free:
        return p**exps
    mid = np.sort(exps)[len(exps) // 2]
    near_one = p**mid * np.expm1((exps - mid) * np.log(np.maximum(p, 0.5)))
    return np.where(p == 1.0, exps - mid, np.where(p < 0.5, p**exps - p**mid, near_one))


def _columns(p: np.ndarray, sw: np.ndarray, exps: np.ndarray, free: bool) -> np.ndarray:
    """Columns sw p^exps, (rows, K, L), at p (rows, K); the free model's
    with the constant column sw projected out."""
    cols = sw[:, None] * _direction(p[..., None], exps, free)
    return _project(cols, sw) if free else cols


def _grid_sse(e: np.ndarray, sw: np.ndarray, exps: np.ndarray, free: bool) -> np.ndarray:
    """Residual (rows, len(_GRID)) at every grid p, from weighted moments.

    The grid's powers do not depend on the row, so one table d of them
    serves every row: with c = sw d, the residual is |e|^2 - (c.e)^2 / c.c,
    and the free model takes (c.u)^2 off c.c for the projected constant.
    einsum, unlike a BLAS product, rounds each row the same whatever the
    batch size.
    """
    d = _direction(_GRID[:, None], exps, free)
    w = sw * sw
    ce = np.einsum("rl,kl->rk", sw * e, d)
    cc = np.einsum("rl,kl->rk", w, d * d)
    if free:
        cc -= np.einsum("rl,kl->rk", w, d) ** 2 / np.sum(w, axis=1, keepdims=True)
    ee = np.einsum("rl,rl->r", e, e)[:, None]
    return ee - np.divide(ce * ce, cc, out=np.zeros_like(cc), where=cc > 0.0)


def _slopes(e: np.ndarray, sw: np.ndarray, exps: np.ndarray, free: bool, p: np.ndarray):
    """First and second derivative of the residual in t = log p, at p
    (rows,) inside (0, 1).

    With r = e - beta c the residual of the best multiple, d/dt c = exps c
    before projection, and the normal equation c.r = 0, the derivatives
    come from r itself, not from moments, so they stay accurate where the
    fit is nearly exact.  Only the column's direction matters, so the
    powers are taken relative to the smallest exponent, which keeps c and
    beta of order one as p -> 0.
    """
    exps = exps - exps.min()
    c = _columns(p[:, None], sw, exps, free)
    x = sw[:, None] * p[:, None, None] ** exps
    ct, ctt = x * exps, x * exps**2
    if free:
        ct, ctt = _project(ct, sw), _project(ctt, sw)

    def dot(a, b):
        return np.einsum("rkl,rkl->rk", a, b)[:, 0]

    cc = dot(c, c)
    beta = np.divide(dot(c, e[:, None]), cc, out=np.zeros_like(cc), where=cc > 0.0)
    r = e[:, None] - beta[:, None, None] * c
    g, c_ct = dot(ct, r), dot(c, ct)
    beta_t = np.divide(g - beta * c_ct, cc, out=np.zeros_like(cc), where=cc > 0.0)
    s_tt = 2.0 * (beta**2 * dot(ct, ct) + beta * beta_t * c_ct - beta_t * g - beta * dot(ctt, r))
    return -2.0 * beta * g, s_tt


def _polish(e, sw, exps, free, x, lo, hi):
    """Safeguarded Newton steps in log p toward a stationary point of the
    residual inside [lo, hi], from x, for every row at once.

    The slope's sign at each iterate shrinks the bracket.  A Newton step
    that leaves the bracket, or one from a point where the residual is not
    convex, is replaced by bisecting what is left of it; a step that lands
    on the bracket's end is kept.  A row stops once its step is below
    1e-10 p + 1e-15, or when it reaches p = 1.  x must lie inside (0, 1).
    """
    x, lo, hi = x.copy(), lo.copy(), hi.copy()
    act = np.arange(len(x))
    for _ in range(_NEWTON_STEPS):
        if not len(act):
            break
        xa = x[act]
        s_t, s_tt = _slopes(e[act], sw[act], exps, free, xa)
        la, ha = np.where(s_t < 0.0, xa, lo[act]), np.where(s_t > 0.0, xa, hi[act])
        with np.errstate(over="ignore", divide="ignore", invalid="ignore"):
            newton = xa * np.exp(-s_t / s_tt)
        ok = (s_tt > 0.0) & (newton >= la) & (newton <= ha) & (newton > 0.0)
        new = np.where(ok, newton, 0.5 * (la + ha))
        lo[act], hi[act], x[act] = la, ha, new
        act = act[(np.abs(new - xa) > 1e-10 * xa + 1e-15) & (new < 1.0)]
    return x


def _search(e: np.ndarray, sw: np.ndarray, exps: np.ndarray, free: bool):
    """Minimize over p in [0, 1], for every row of e at once, the residual
    of e against the best multiple of the column sw p^exps (``free``: with
    the constant sw projected out, see ``_full_model``).

    A 201-point grid, evaluated from weighted moments, brackets the
    minimum, and safeguarded Newton steps in log p polish it.  The result
    is the better of the polished point and the grid's best, each
    evaluated directly on its residual.  Returns (sse, p, clamped, coef),
    one entry per row; clamped means p is on the 0 or 1 boundary.
    """
    i = np.argmin(_grid_sse(e, sw, exps, free), axis=1)
    lo, hi = _GRID[np.maximum(i - 1, 0)], _GRID[np.minimum(i + 1, len(_GRID) - 1)]
    x = np.where((i > 0) & (i < len(_GRID) - 1), _GRID[i], 0.5 * (lo + hi))
    # the residual is evaluated on the columns themselves, so the polish
    # stays where their squares are normal floats; below that an infimum
    # toward p = 0 can no longer be seen
    m0 = exps.min()
    floor = 1e-150 ** (1.0 / m0) if m0 > 0 else 0.0
    x = _polish(e, sw, exps, free, x, np.maximum(lo, np.minimum(floor, x)), hi)
    cand = np.stack([x, _GRID[i], np.zeros_like(x), np.ones_like(x)], axis=1)
    sse, coef = _best_multiple(e, _columns(cand, sw, exps, free))
    rows = np.arange(len(e))
    pick = np.where(sse[:, 1] <= sse[:, 0], 1, 0)
    # the polish never lands exactly on a boundary; snap to it when the
    # boundary is at least as good, so growing data reports p = 1 exactly
    for k in (2, 3):
        s_edge = sse[:, k]
        snap = ((np.abs(cand[rows, pick] - cand[:, k]) < 1e-7)
                & (s_edge <= sse[rows, pick] + 1e-12 * np.maximum(s_edge, 1.0)))
        pick = np.where(snap, k, pick)
    return sse[rows, pick], cand[rows, pick], pick >= 2, coef[rows, pick]


def _fit_rows(ms: np.ndarray, ys: np.ndarray, w: np.ndarray, n: int):
    """fit_decay for every row of ys (rows, lengths) at once, with weights
    w of the same shape.  Returns arrays (A, B, p, clamped, anchored,
    degenerate), one entry per row."""
    sw = np.sqrt(w)
    a0 = 2.0**-n
    sse_anch, p_anch, clamped_anch, b_anch = _search(sw * (ys - a0), sw, ms, False)
    free = _full_model(ms, ys, sw)
    sse_free, p_free, clamped_free, b_free = _search(*free)
    # only data trending upward in m can fit better with p > 1; that side
    # is searched as q = 1/p on q^(max m - m) and reported at p = 1
    up = _best_multiple(free[0], _columns(np.ones((len(ys), 1)), sw, ms, True))[1][:, 0] > 0.0
    if up.any():
        sse_grow = np.full(len(ys), np.inf)
        sse_grow[up] = _search(*_full_model(ms.max() - ms, ys[up], sw[up]))[0]
        grows = sse_grow < sse_free
        sse_free = np.minimum(sse_free, sse_grow)
        p_free[grows], clamped_free[grows] = 1.0, True
    # the gate is scale invariant in the weights; 12 sits near the 1%
    # point of F(1, 8), so anchor-consistent noise rarely releases A
    dof = len(ms) - 3
    if dof > 0:
        anchored = (sse_anch - sse_free) * dof <= 12.0 * sse_free
    else:
        anchored = sse_anch <= sse_free
    # constant data cannot identify p; report the p = 1 limit, flagged
    degenerate = np.ptp(ys, axis=1) < 1e-14
    anchored &= ~degenerate
    p = np.where(anchored, p_anch, np.where(degenerate, 1.0, p_free))
    clamped = np.where(anchored, clamped_anch, clamped_free & ~degenerate)
    b = np.where(anchored, b_anch, b_free)
    wsum = np.sum(w, axis=1)
    a = np.sum(w * (ys - b[:, None] * np.power(p[:, None], ms)), axis=1) / wsum
    # a fit at p = 1 is a constant; split it at the floor
    at_one = p == 1.0
    b = np.where(at_one, np.sum(w * ys, axis=1) / wsum - a0, b)
    return np.where(anchored | at_one, a0, a), b, p, clamped, anchored, degenerate


def _check_fit_args(lengths, n) -> None:
    if n is None:
        raise ValueError("qubit count n is required")
    if n < 1:
        raise ValueError(f"qubit count n must be at least 1, got {n}")
    if len(lengths) < 3:
        raise ValueError("need at least 3 distinct lengths to fit 3 parameters")


def _decay_fit(ms: np.ndarray, ys: np.ndarray, w: np.ndarray, n: int, fits) -> DecayFit:
    """The DecayFit of row 0 of ``_fit_rows``' output ``fits``, the fit to
    ys with weights w at lengths ms."""
    a, b, p, clamped, anchored, degenerate = (v[0] for v in fits)
    a, b, p = float(a), float(b), float(p)
    residuals = ys - (a + b * np.power(p, ms))
    return DecayFit(A=a, B=b, p=p, n=n, r=drb_error_rate(p, n), lengths=tuple(ms.tolist()),
                    residuals=tuple(float(v) for v in residuals),
                    chi2=float(np.sum(w * residuals**2)), dof=len(ms) - (2 if anchored else 3),
                    clamped=bool(clamped), degenerate=bool(degenerate), anchored=bool(anchored))


def fit_decay(points: dict[int, float], weights: dict[int, float] | None = None,
              n: int | None = None) -> DecayFit:
    """Weighted least-squares fit of P_m = A + B p^m.

    A and B are linear once p is fixed, so they are profiled out (variable
    projection) and one search over p in [0, 1] fits each of two models:
    a 201-point grid brackets the minimum and a few safeguarded Newton
    steps polish it (``_search``).
    The anchored model holds A at the uniform-outcome floor 2^-n; the full
    model lets A float, and for data trending upward in m also searches
    p > 1, reporting such a fit at p = 1.  The full fit is kept only when
    its improvement passes an F-style gate against its own residual
    noise: slow decays leave A and p jointly unidentifiable, and on such
    data an unanchored optimum wanders the (A, p) ridge, scattering r by
    far more than the statistical error of the anchored estimate.  Exact
    data keep machine-level recovery because there the full fit drives
    the residual to zero while a wrong anchor cannot.  ``clamped`` means
    p sits on the 0 or 1 boundary.  A fit at p = 1 is a constant, which
    is reported as A = 2^-n and B = its weighted mean minus 2^-n.
    ``chi2`` is the weighted residual sum of squares of the reported fit
    and ``dof`` the lengths left over by its parameters (2 anchored, else
    3); with inverse-variance weights chi2 is the chi-square statistic.
    """
    lengths = tuple(sorted(int(m) for m in points))
    _check_fit_args(lengths, n)
    ms = np.array(lengths, dtype=int)
    ys = np.array([points[m] for m in lengths], dtype=float)
    if weights is None:
        w = np.ones_like(ys)
    else:
        _check_covered(lengths, weights, "weights")
        w = np.array([weights[m] for m in lengths], dtype=float)
        if np.any(w <= 0) or not np.all(np.isfinite(w)):
            raise ValueError("weights must be positive and finite")
    return _decay_fit(ms, ys, w, n, _fit_rows(ms, ys[None], w[None], n))


def _clamp_interval(center: float, sigma: float, lo: float, hi: float) -> tuple[float, float]:
    return (max(center - 2.0 * sigma, lo), min(center + 2.0 * sigma, hi))


def _resample_indices(rng: np.random.Generator, counts: np.ndarray, resamples: int):
    """Per length, the (resamples, count) indices of a circuit bootstrap:
    one child stream per resample, and one bounded draw per child for all
    lengths, which consumes each child exactly as one ``integers(0, k,
    size=k)`` call per length in turn."""
    bounds = np.repeat(counts, counts)
    draws = np.array([child.integers(0, bounds) for child in rng.spawn(resamples)])
    return np.split(draws, np.cumsum(counts)[:-1], axis=1)


def bootstrap(dataset: Dataset, resamples: int = 1000,
              rng: np.random.Generator | None = None, n: int | None = None) -> BootstrapResult:
    """Circuit-level bootstrap intervals for the decay fit.

    Circuits are resampled with replacement within each length, and every
    resample is refit in one batched call, with the point estimate
    (``fit_decay`` with binomial weights) as one more row.  Intervals are
    reported as the point estimate plus or minus twice the resample
    standard deviation.  ``n`` defaults to the length of the rows' target.
    """
    if resamples < 100:
        raise ValueError("resamples must be at least 100")
    if rng is None:
        rng = np.random.default_rng(0)
    groups = _per_length(dataset)
    if n is None:
        n = len(dataset.rows[0].target)
        if n == 0:
            raise ValueError("dataset rows carry no target; pass the qubit count n")
    lengths = list(groups)
    _check_fit_args(lengths, n)
    rates, shots = zip(*groups.values())
    idx = _resample_indices(rng, np.array([len(v) for v in rates]), resamples)
    ys = np.stack([v[i].mean(axis=1) for v, i in zip(rates, idx)], axis=1)
    totals = np.stack([t[i].sum(axis=1) for t, i in zip(shots, idx)], axis=1)
    # the point estimate rides along as row 0
    ys = np.vstack([[v.mean() for v in rates], ys])
    totals = np.vstack([[t.sum() for t in shots], totals])
    ms, w = np.array(lengths), _inverse_variance(ys, totals)
    fits = _fit_rows(ms, ys, w, n)
    point = _decay_fit(ms, ys[0], w[0], n, fits)
    a, b, p, clamped, anchored, _ = (v[1:] for v in fits)
    fits = np.stack([p, drb_error_rate(p, n), a, b], axis=1)
    ok = np.all(np.isfinite(fits), axis=1)
    if ok.sum() < 2:
        raise RuntimeError(f"{ok.sum()} of {resamples} bootstrap resamples fit; "
                           "the spread needs at least 2")
    p_sigma, r_sigma, a_sigma, b_sigma = (float(v) for v in fits[ok].std(axis=0, ddof=1))
    p_iv = _clamp_interval(point.p, p_sigma, 0.0, 1.0)
    r_iv = _clamp_interval(point.r, r_sigma, 0.0, 1.0)
    a_iv = (point.A - 2.0 * a_sigma, point.A + 2.0 * a_sigma)
    b_iv = (point.B - 2.0 * b_sigma, point.B + 2.0 * b_sigma)
    return BootstrapResult(fit=point, p_sigma=p_sigma, r_sigma=r_sigma, a_sigma=a_sigma,
                           b_sigma=b_sigma, p_interval=p_iv, r_interval=r_iv,
                           a_interval=a_iv, b_interval=b_iv,
                           resamples=resamples, failures=int(resamples - ok.sum()),
                           anchored_frac=float(anchored[ok].mean()),
                           clamped_frac=float(clamped[ok].mean()))


def predict_r_from_rates(spec: SamplerSpec, device: DeviceSpec, model: ErrorModel) -> float:
    """Sampler-weighted mean layer error rate, the calibration-based
    prediction for the fitted r."""
    if device.n != model.n:
        raise ValueError(f"device has {device.n} qubits but model has {model.n}")
    cnots = {edge: GateLabel("CNOT", edge) for edge in device.edges}
    idles = [GateLabel("I", (q,)) for q in range(device.n)]
    total = 0.0
    for placement, prob in cnot_placement_distribution(spec, device):
        covered = {q for pair in placement for q in pair}
        gates = [cnots[pair] for pair in placement]
        gates.extend(idle for q, idle in enumerate(idles) if q not in covered)
        total += prob * layer_error_rate(model, gates)
    return total


def solve_category_rates(system: RateSystem) -> RateSystem:
    """Invert r = M eps and propagate observation variances linearly.

    Square systems are solved exactly; overdetermined ones by least
    squares.  Covariance of eps is Minv diag(sigma^2) Minv^T.
    """
    m = np.asarray(system.matrix, dtype=float)
    rows, cols = m.shape
    if rows < cols:
        raise ValueError("underdetermined system: fewer experiments than categories")
    r = np.asarray(system.observed, dtype=float)
    if rows == cols:
        if abs(np.linalg.det(m)) < 1e-12:
            raise ValueError("singular mixing matrix")
        minv = np.linalg.inv(m)
    else:
        minv = np.linalg.pinv(m)
    eps = minv @ r
    sig = np.zeros(rows) if system.sigmas is None else np.asarray(system.sigmas, dtype=float)
    cov = minv @ np.diag(sig**2) @ minv.T
    return dataclasses.replace(
        system,
        epsilons=tuple(float(v) for v in eps),
        epsilon_sigmas=tuple(float(v) for v in np.sqrt(np.diag(cov))),
        epsilon_covariance=tuple(tuple(float(v) for v in row) for row in cov),
    )


def _building_blocks_raw(eps: np.ndarray, n: int) -> np.ndarray:
    local = 1.0 - (1.0 - eps[0]) ** (1.0 / n)
    base = (1.0 - local) ** (n - 2)
    classes = 1.0 - (1.0 - eps[1:]) / base
    return np.concatenate([[local], classes, [classes.mean()]])


def extract_building_block_rates(
    epsilons, n: int,
    covariance=None,
) -> BuildingBlockRates:
    """Break category rates into a per-qubit local rate and per-class CNOT
    rates.

    The first category must be the CNOT-free one; each further category is
    one CNOT class on top of n - 2 idling qubits.  Uncertainties, when a
    covariance for the categories is given, come from a numerical-Jacobian
    delta method.
    """
    eps = np.asarray(epsilons, dtype=float)
    if eps.ndim != 1 or len(eps) < 2:
        raise ValueError("need the local category plus at least one CNOT class")
    if np.any((eps < 0.0) | (eps > 1.0)):
        raise ValueError("category rates must lie in [0, 1]")
    if n < 2:
        raise ValueError("building-block split needs n >= 2")
    if covariance is not None:
        cov = np.asarray(covariance, dtype=float)
        if cov.shape != (len(eps), len(eps)):
            raise ValueError("covariance shape must match the category count")
    # a local rate of 1 leaves the classes undefined (the split divides by
    # (1 - local)^(n - 2) = 0), and near the ends of [0, 1] the Jacobian's
    # steps leave the domain: such values come out NaN or infinite, quietly,
    # and are flagged
    with np.errstate(all="ignore"):
        vals = _building_blocks_raw(eps, n)
        flagged = bool(np.any(~np.isfinite(vals)) or np.any((vals < 0.0) | (vals > 1.0)))
        local_sigma = class_sigmas = cnot_sigma = None
        if covariance is not None:
            h = 1e-7
            jac = np.empty((len(vals), len(eps)))
            for j in range(len(eps)):
                step = np.zeros_like(eps)
                step[j] = h
                jac[:, j] = (_building_blocks_raw(eps + step, n)
                             - _building_blocks_raw(eps - step, n)) / (2.0 * h)
            sig = np.sqrt(np.maximum(np.diag(jac @ cov @ jac.T), 0.0))
            flagged = flagged or not np.all(np.isfinite(sig))
            local_sigma = float(sig[0])
            class_sigmas = tuple(float(v) for v in sig[1:-1])
            cnot_sigma = float(sig[-1])
    return BuildingBlockRates(
        local=float(vals[0]),
        cnot_classes=tuple(float(v) for v in vals[1:-1]),
        cnot=float(vals[-1]),
        flagged=flagged,
        local_sigma=local_sigma,
        class_sigmas=class_sigmas,
        cnot_sigma=cnot_sigma,
    )


def crb_rescale(r: float, alpha: float) -> float:
    """Per-native-gate rescaling of a compiled-group error rate, where
    alpha is the mean native cost of one compiled element."""
    if not 0.0 <= r < 1.0:
        raise ValueError(f"r must lie in [0, 1), got {r}")
    if alpha <= 0.0:
        raise ValueError(f"alpha must be positive, got {alpha}")
    return 1.0 - (1.0 - r) ** (1.0 / alpha)
