"""Decay fitting, uncertainty estimation, and error-rate decomposition.

The pipeline is: average a dataset per length, fit the exponential decay
A + B p^m with weighted least squares, convert p to an error rate, and
bootstrap over circuits for 2 sigma intervals.  Mixed-sampler experiments
are decomposed through a linear rate system.
"""

from __future__ import annotations

import dataclasses
import math
from dataclasses import dataclass

import numpy as np

from .clifford import GateLabel
from .device import DeviceSpec
from .sampling import SamplerSpec, cnot_placement_distribution
from .simulate import Dataset, ErrorModel, layer_error_rate


def drb_error_rate(p: float, n: int) -> float:
    """Error rate implied by a fitted decay constant on n qubits."""
    if not 0.0 <= p <= 1.0:
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
    clamped: bool = False
    degenerate: bool = False
    anchored: bool = False
    p_interval: tuple[float, float] | None = None
    r_interval: tuple[float, float] | None = None

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


def average_success(dataset: Dataset) -> dict[int, tuple[float, tuple[float, ...]]]:
    """Per-length mean success rate plus the per-circuit rates behind it."""
    if not dataset.rows:
        raise ValueError("dataset has no rows")
    per: dict[int, list[float]] = {}
    for row in dataset.rows:
        if row.shots == 0:
            raise ValueError(f"row {row.circuit_id} has zero shots")
        per.setdefault(row.m, []).append(row.successes / row.shots)
    return {m: (float(np.mean(v)), tuple(v)) for m, v in sorted(per.items())}


def _inverse_variance(p, shots):
    # elementwise, so one call weights a whole batch of resamples
    return 1.0 / (np.maximum(p * (1.0 - p), 0.25 / shots) / shots)


def binomial_weights(points: dict[int, float], shots_by_length: dict[int, int]) -> dict[int, float]:
    """Inverse binomial-variance weights, floored so P_m in {0, 1} cannot
    produce an infinite weight."""
    out = {}
    for m, p in points.items():
        if shots_by_length[m] <= 0:
            raise ValueError(f"no shots recorded at length {m}")
        out[m] = float(_inverse_variance(p, shots_by_length[m]))
    return out


_GRID = np.linspace(0.0, 1.0, 201)
_GOLDEN = (math.sqrt(5.0) - 1.0) / 2.0
_POLISH_STEPS = 60  # shrinks the two-step grid bracket (0.01) below 1e-14


def _best_multiple(e: np.ndarray, cols: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """Residual sum of squares and coefficient, each (rows, K), of the
    best multiple of each column of cols (rows, K, L) for each row of e
    (rows, L).  A zero column gets coefficient 0."""
    xx = np.einsum("rkl,rkl->rk", cols, cols)
    coef = np.divide(np.einsum("rkl,rl->rk", cols, e), xx, out=np.zeros_like(xx),
                     where=xx > 0.0)
    res = e[:, None, :] - coef[..., None] * cols
    return np.einsum("rkl,rkl->rk", res, res), coef


def _full_model(exps: np.ndarray, ys: np.ndarray, sw: np.ndarray):
    """Target sw y and column function p -> sw p^exps of A + B p^exps,
    both with the constant column sw projected out, which profiles A.

    From p = 0.5 up the column is built from p^exps - 1 = expm1(exps log p),
    the same direction once sw is projected out but accurate as p -> 1.
    At p = 1 it merges with the constant; its limit direction exps is
    used there.
    """
    u = sw / np.linalg.norm(sw, axis=1, keepdims=True)
    uk = u[:, None, :]

    def columns(p):
        p = p[..., None]
        near_one = np.expm1(exps * np.log(np.maximum(p, 0.5)))
        x = sw[:, None] * np.where(p == 1.0, exps, np.where(p < 0.5, p**exps, near_one))
        return x - np.sum(x * uk, axis=2, keepdims=True) * uk

    return sw * ys - np.sum(sw * ys * u, axis=1, keepdims=True) * u, columns


def _search(e: np.ndarray, columns):
    """Minimize over p in [0, 1], for every row of e at once, the
    residual of e against the best multiple of ``columns(p)``.

    A 201-point grid brackets the minimum, a fixed number of vectorized
    golden-section steps polish it.  Returns (sse, p, clamped, coef), one
    entry per row; clamped means p is on the 0 or 1 boundary.
    """
    def sse(p):
        return _best_multiple(e, columns(p))[0]

    grid = sse(np.broadcast_to(_GRID, (len(e), len(_GRID))))
    i = np.argmin(grid, axis=1)
    lo, hi = _GRID[np.maximum(i - 1, 0)], _GRID[np.minimum(i + 1, len(_GRID) - 1)]
    c, d = hi - _GOLDEN * (hi - lo), lo + _GOLDEN * (hi - lo)
    fc, fd = sse(np.stack([c, d], axis=1)).T
    for _ in range(_POLISH_STEPS):
        left = fc < fd
        lo, hi = np.where(left, lo, c), np.where(left, d, hi)
        kept, f_kept = np.where(left, c, d), np.where(left, fc, fd)
        new = np.where(left, hi - _GOLDEN * (hi - lo), lo + _GOLDEN * (hi - lo))
        f_new = sse(new[:, None])[:, 0]
        c, fc = np.where(left, new, kept), np.where(left, f_new, f_kept)
        d, fd = np.where(left, kept, new), np.where(left, f_kept, f_new)
    on_grid = grid.min(axis=1) <= np.minimum(fc, fd)
    p = np.where(on_grid, _GRID[i], np.where(fc < fd, c, d))
    s = np.where(on_grid, grid.min(axis=1), np.minimum(fc, fd))
    clamped = np.zeros(len(e), dtype=bool)
    # the polish never lands exactly on a boundary; snap to it when the
    # boundary is at least as good, so growing data reports p = 1 exactly
    for edge, s_edge in ((0.0, grid[:, 0]), (1.0, grid[:, -1])):
        snap = (np.abs(p - edge) < 1e-7) & (s_edge <= s + 1e-12 * np.maximum(s_edge, 1.0))
        p, s, clamped = np.where(snap, edge, p), np.where(snap, s_edge, s), clamped | snap
    return s, p, clamped, _best_multiple(e, columns(p[:, None]))[1][:, 0]


def _fit_rows(ms: np.ndarray, ys: np.ndarray, w: np.ndarray, n: int):
    """fit_decay for every row of ys (rows, lengths) at once, with weights
    w of the same shape.  Returns arrays (A, B, p, clamped, anchored,
    degenerate), one entry per row."""
    sw = np.sqrt(w)
    a0 = 2.0**-n
    sse_anch, p_anch, clamped_anch, b_anch = _search(
        sw * (ys - a0), lambda p: sw[:, None] * np.power(p[..., None], ms))
    e_free, cols_free = _full_model(ms, ys, sw)
    sse_free, p_free, clamped_free, b_free = _search(e_free, cols_free)
    # only data trending upward in m can fit better with p > 1; that side
    # is searched as q = 1/p on q^(max m - m) and reported at p = 1
    up = _best_multiple(e_free, cols_free(np.ones((len(ys), 1))))[1][:, 0] > 0.0
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


def fit_decay(points: dict[int, float], weights: dict[int, float] | None = None,
              n: int | None = None) -> DecayFit:
    """Weighted least-squares fit of P_m = A + B p^m.

    A and B are linear once p is fixed, so they are profiled out (variable
    projection) and one search over p in [0, 1] fits each of two models.
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
    """
    if n is None:
        raise ValueError("qubit count n is required")
    if n < 1:
        raise ValueError(f"qubit count n must be at least 1, got {n}")
    lengths = tuple(sorted(int(m) for m in points))
    if len(lengths) < 3:
        raise ValueError("need at least 3 distinct lengths to fit 3 parameters")
    ms = np.array(lengths, dtype=int)
    ys = np.array([points[m] for m in lengths], dtype=float)
    if weights is None:
        w = np.ones_like(ys)
    else:
        w = np.array([weights[m] for m in lengths], dtype=float)
        if np.any(w <= 0) or not np.all(np.isfinite(w)):
            raise ValueError("weights must be positive and finite")
    a, b, p, clamped, anchored, degenerate = (v[0] for v in _fit_rows(ms, ys[None], w[None], n))
    p = float(p)
    return DecayFit(A=float(a), B=float(b), p=p, n=n, r=drb_error_rate(p, n), lengths=lengths,
                    residuals=tuple(float(v) for v in ys - (a + b * np.power(p, ms))),
                    clamped=bool(clamped), degenerate=bool(degenerate), anchored=bool(anchored))


def _clamp_interval(center: float, sigma: float, lo: float, hi: float) -> tuple[float, float]:
    return (max(center - 2.0 * sigma, lo), min(center + 2.0 * sigma, hi))


def bootstrap(dataset: Dataset, resamples: int = 1000,
              rng: np.random.Generator | None = None, n: int | None = None) -> BootstrapResult:
    """Circuit-level bootstrap intervals for the decay fit.

    Circuits are resampled with replacement within each length, every
    resample is refit in one batched call, and intervals are reported as
    the point estimate plus or minus twice the resample standard
    deviation.  ``n`` defaults to the length of the rows' target.
    """
    if resamples < 100:
        raise ValueError("resamples must be at least 100")
    if rng is None:
        rng = np.random.default_rng(0)
    if not dataset.rows:
        raise ValueError("dataset has no rows")
    if n is None:
        n = len(dataset.rows[0].target)
        if n == 0:
            raise ValueError("dataset rows carry no target; pass the qubit count n")
    groups: dict[int, list[tuple[float, int]]] = {}
    for row in dataset.rows:
        if row.shots == 0:
            raise ValueError(f"row {row.circuit_id} has zero shots")
        groups.setdefault(row.m, []).append((row.successes / row.shots, row.shots))
    lengths = sorted(groups)
    rates, shots = zip(*(np.array(groups[m]).T for m in lengths))
    points = {m: float(v.mean()) for m, v in zip(lengths, rates)}
    shots_by_length = {m: t.sum() for m, t in zip(lengths, shots)}
    point = fit_decay(points, binomial_weights(points, shots_by_length), n=n)

    draws = [[child.integers(0, len(v), size=len(v)) for v in rates]
             for child in rng.spawn(resamples)]
    idx = [np.array(per_length) for per_length in zip(*draws)]
    ys = np.stack([v[i].mean(axis=1) for v, i in zip(rates, idx)], axis=1)
    totals = np.stack([t[i].sum(axis=1) for t, i in zip(shots, idx)], axis=1)
    a, b, p, clamped, anchored, _ = _fit_rows(np.array(lengths), ys,
                                              _inverse_variance(ys, totals), n)
    d = 4.0**n
    fits = np.stack([p, (d - 1.0) * (1.0 - p) / d, a, b], axis=1)  # drb_error_rate
    ok = np.all(np.isfinite(fits), axis=1)
    if not ok.any():
        raise RuntimeError("every bootstrap resample failed to fit")
    p_sigma, r_sigma, a_sigma, b_sigma = (float(v) for v in fits[ok].std(axis=0, ddof=1))
    p_iv = _clamp_interval(point.p, p_sigma, 0.0, 1.0)
    r_iv = _clamp_interval(point.r, r_sigma, 0.0, 1.0)
    a_iv = (point.A - 2.0 * a_sigma, point.A + 2.0 * a_sigma)
    b_iv = (point.B - 2.0 * b_sigma, point.B + 2.0 * b_sigma)
    fit = dataclasses.replace(point, p_interval=p_iv, r_interval=r_iv)
    return BootstrapResult(fit=fit, p_sigma=p_sigma, r_sigma=r_sigma, a_sigma=a_sigma,
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
    total = 0.0
    for placement, prob in cnot_placement_distribution(spec, device):
        covered = {q for pair in placement for q in pair}
        gates = [GateLabel("CNOT", pair) for pair in placement]
        gates.extend(GateLabel("I", (q,)) for q in range(device.n) if q not in covered)
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


def theory_pm(m, eps_omega: float, n: int):
    """Predicted success probability at length m for layer error rate
    eps_omega, decaying to the uniform-outcome floor 2^-n."""
    if not 0.0 <= eps_omega <= 1.0:
        raise ValueError(f"eps_omega must lie in [0, 1], got {eps_omega}")
    a = 2.0**-n
    decay = np.power(1.0 - eps_omega, np.asarray(m, dtype=float))
    out = a + (1.0 - a) * decay
    return float(out) if np.ndim(out) == 0 else out
