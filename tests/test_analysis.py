"""Fitting and rate-decomposition checks, including the interval
calibration study behind the bootstrap defaults."""

import dataclasses
import inspect

import numpy as np
import pytest

from drbench.analysis import (
    BootstrapResult,
    _inverse_variance,
    _resample_indices,
    RateSystem,
    average_success,
    bootstrap,
    crb_rescale,
    drb_error_rate,
    extract_building_block_rates,
    fit_decay,
    predict_r_from_rates,
    solve_category_rates,
)
from drbench.device import all_to_all, ring_with_center
from drbench.protocols import ExperimentDesign, generate_experiment
from drbench.sampling import CategorySampler, PairingSampler, PCnotSampler
from drbench.simulate import (
    DataRow,
    Dataset,
    ErrorModel,
    build_model_crosstalk5,
    build_model_layer_depolarizing,
    build_model_main_sim,
    layer_error_rate,
    run_experiment,
)
from drbench.clifford import GateLabel
from drbench.streams import stream


def synthetic_dataset(a, b, p, lengths, circuits, shots, rng, n=2):
    """Binomial counts around the exact decay curve."""
    rows = []
    for m in lengths:
        pm = a + b * p**m
        for c in range(circuits):
            successes = int(rng.binomial(shots, pm))
            rows.append(DataRow(f"s_m{m:03d}_c{c:03d}", m, "0" * n, shots, successes))
    return Dataset(tuple(rows), {"kind": "synthetic"})


def exact_points(a, b, p, lengths):
    return {m: a + b * p**m for m in lengths}


def inverse_variance_weights(points, shots):
    """The weights ``bootstrap`` fits with: the inverse binomial variance
    at each length, floored so P_m in {0, 1} stays finite."""
    return {m: float(_inverse_variance(p, shots[m])) for m, p in points.items()}


class TestErrorRate:
    def test_values(self):
        assert drb_error_rate(1.0, 3) == 0.0
        assert drb_error_rate(0.9, 1) == pytest.approx(0.075)

    def test_validation(self):
        with pytest.raises(ValueError):
            drb_error_rate(1.2, 1)


class TestAverageSuccess:
    def test_means_and_percircuit(self):
        rows = (
            DataRow("a", 2, "00", 10, 4),
            DataRow("b", 2, "00", 10, 6),
            DataRow("c", 0, "00", 10, 10),
        )
        avg = average_success(Dataset(rows))
        assert avg[2][0] == pytest.approx(0.5)
        assert avg[2][1] == (0.4, 0.6)
        assert avg[0] == (1.0, (1.0,))
        assert list(avg) == [0, 2]

    def test_zero_shots_rejected(self):
        with pytest.raises(ValueError):
            average_success(Dataset((DataRow("a", 0, "0", 0, 0),)))
        with pytest.raises(ValueError):
            average_success(Dataset(()))

    def test_zero_error_simulation_is_flat(self):
        design = ExperimentDesign(
            protocol="DRB",
            device=all_to_all(2, "HPI"),
            sampler=PCnotSampler(p_cnot=0.5, pool="HPI"),
            lengths=(0, 2, 4),
            circuits_per_length=2,
            shots=40,
            seed=11,
        )
        circuits, _ = generate_experiment(design)
        data = run_experiment(circuits, ErrorModel(n=2), np.random.default_rng(0), shots=40)
        for pm, _ in average_success(data).values():
            assert pm == 1.0


class TestFitDecay:
    def test_exact_recovery(self):
        points = exact_points(0.25, 0.75, 0.98, range(0, 22, 3))
        fit = fit_decay(points, n=2)
        assert fit.A == pytest.approx(0.25, abs=1e-9)
        assert fit.B == pytest.approx(0.75, abs=1e-9)
        assert fit.p == pytest.approx(0.98, abs=1e-9)
        assert fit.r == pytest.approx(drb_error_rate(fit.p, 2))
        assert not fit.clamped and not fit.degenerate
        assert max(abs(v) for v in fit.residuals) < 1e-9

    def test_exact_recovery_random_parameters(self, rng):
        for _ in range(10):
            a = float(rng.uniform(0.05, 0.4))
            b = float(rng.uniform(0.3, 0.7))
            p = float(rng.uniform(0.5, 0.995))
            points = exact_points(a, b, p, (0, 1, 2, 4, 8, 16))
            weights = {m: float(rng.uniform(0.5, 2.0)) for m in points}
            fit = fit_decay(points, weights, n=3)
            assert fit.p == pytest.approx(p, abs=1e-9)
            assert fit.A == pytest.approx(a, abs=1e-8)

    def test_constant_data_flagged(self):
        fit = fit_decay({0: 0.25, 5: 0.25, 10: 0.25}, n=2)
        assert fit.degenerate
        assert fit.p == 1.0
        assert fit.r == 0.0

    def test_growing_data_clamps(self):
        # exactly A + B q^m with q = sqrt(2), so the unconstrained optimum
        # sits above 1
        fit = fit_decay({0: 0.30, 2: 0.40, 4: 0.60, 6: 1.00}, n=1)
        assert fit.clamped
        assert fit.p == 1.0

    def test_falling_data_keep_p_below_one(self):
        # a flat start with a late drop is fit exactly by A + B p^m with
        # p > 1 and B < 0 (the last point alone); falling data must not
        # take that fit, which would report p = 1
        fit = fit_decay({0: 0.95, 3: 0.95, 6: 0.95, 9: 0.7}, n=2)
        assert not fit.clamped
        assert fit.p == pytest.approx(0.96431301, abs=1e-7)

    def test_validation(self):
        points = exact_points(0.25, 0.75, 0.9, (0, 2, 4))
        with pytest.raises(ValueError):
            fit_decay({0: 1.0, 2: 0.9}, n=1)
        with pytest.raises(ValueError):
            fit_decay(points)
        for n in (0, -3):
            with pytest.raises(ValueError, match="at least 1"):
                fit_decay(points, n=n)
        with pytest.raises(ValueError):
            fit_decay(points, {0: 0.0, 2: 1.0, 4: 1.0}, n=1)

    def test_missing_weights_named(self):
        with pytest.raises(ValueError, match=r"weights missing for lengths \[10\]"):
            fit_decay({0: 1.0, 5: 0.9, 10: 0.8}, {0: 1.0, 5: 1.0}, n=1)


class TestBootstrap:
    def test_default_resamples(self):
        assert inspect.signature(bootstrap).parameters["resamples"].default == 1000

    def test_minimum_resamples(self):
        data = synthetic_dataset(0.25, 0.75, 0.9, (0, 2, 4), 3, 100, np.random.default_rng(0))
        with pytest.raises(ValueError):
            bootstrap(data, resamples=99)

    def test_qubit_count_required(self):
        bare = Dataset(tuple(DataRow(f"x{m}_{c}", m, "", 100, 90 - 5 * m)
                             for m in (0, 2, 4) for c in range(3)))
        with pytest.raises(ValueError, match="pass the qubit count"):
            bootstrap(bare, resamples=100)
        for n in (0, -1):
            with pytest.raises(ValueError, match="at least 1"):
                bootstrap(bare, resamples=100, n=n)
        assert bootstrap(bare, resamples=100, n=1).fit.n == 1

    def test_batched_resamples_match_per_resample_fits(self):
        """Reference: refit every resample one at a time from the same
        draws; lengths carry different circuit counts."""
        rng = np.random.default_rng(4)
        rows = [DataRow(f"r{m}_{c}", m, "00", 200, int(rng.binomial(200, 0.25 + 0.65 * 0.9**m)))
                for m, count in ((0, 3), (2, 5), (5, 2), (9, 4)) for c in range(count)]
        out = bootstrap(Dataset(tuple(rows)), resamples=120, rng=np.random.default_rng(6))
        groups = {}
        for row in rows:
            groups.setdefault(row.m, []).append(row)
        fits = []
        for child in np.random.default_rng(6).spawn(120):
            points, shots = {}, {}
            for m, group in sorted(groups.items()):
                chosen = [group[i] for i in child.integers(0, len(group), size=len(group))]
                points[m] = float(np.mean([r.successes / r.shots for r in chosen]))
                shots[m] = sum(r.shots for r in chosen)
            fit = fit_decay(points, inverse_variance_weights(points, shots), n=2)
            fits.append((fit.p, fit.r, fit.A, fit.B, fit.anchored, fit.clamped))
        fits = np.array(fits)
        sigmas = fits[:, :4].std(axis=0, ddof=1)
        assert np.allclose((out.p_sigma, out.r_sigma, out.a_sigma, out.b_sigma), sigmas,
                           rtol=1e-6, atol=1e-12)
        assert out.anchored_frac == pytest.approx(fits[:, 4].mean())
        assert out.clamped_frac == pytest.approx(fits[:, 5].mean())
        assert out.failures == 0

    def test_one_draw_per_resample_matches_per_length_draws(self):
        """A resample draws all its indices in one bounded call; numpy must
        consume the child stream exactly as one call per length in turn
        does, up to the next draw after it."""
        rng = np.random.default_rng(12)
        for seed in range(40):
            counts = rng.integers(1, 30, size=rng.integers(1, 9))
            counts[rng.integers(len(counts))] = 1
            one, per = (np.random.default_rng(seed).spawn(1)[0] for _ in range(2))
            joint = one.integers(0, np.repeat(counts, counts))
            assert np.array_equal(joint, np.concatenate([per.integers(0, k, size=k)
                                                         for k in counts]))
            assert one.integers(0, 2**40) == per.integers(0, 2**40)
        counts = np.array([3, 1, 7, 2])
        blocks = _resample_indices(np.random.default_rng(3), counts, 100)
        ref = [[child.integers(0, k, size=k) for k in counts]
               for child in np.random.default_rng(3).spawn(100)]
        for j, block in enumerate(blocks):
            assert np.array_equal(block, [draws[j] for draws in ref])

    def test_point_fit_is_fit_decay(self):
        """The point estimate rides in the batched refit as one more row and
        must be exactly fit_decay's fit with binomial weights."""
        data = synthetic_dataset(0.25, 0.75, 0.93, (0, 3, 6, 9, 14), 5, 300,
                                 np.random.default_rng(7))
        out = bootstrap(data, resamples=100, rng=np.random.default_rng(8))
        points = {m: mean for m, (mean, _) in average_success(data).items()}
        shots = {}
        for row in data.rows:
            shots[row.m] = shots.get(row.m, 0) + row.shots
        fit = fit_decay(points, inverse_variance_weights(points, shots), n=2)
        assert dataclasses.replace(out.fit, p_interval=None, r_interval=None) == fit

    def test_zero_variance_gives_zero_width(self):
        rows = []
        for m in (0, 3, 6, 9):
            pm = 0.25 + 0.75 * 0.9**m
            for c in range(4):
                rows.append(DataRow(f"z{m}_{c}", m, "00", 1000, round(1000 * pm)))
        out = bootstrap(Dataset(tuple(rows)), resamples=120, rng=np.random.default_rng(1))
        assert out.failures == 0
        assert out.p_sigma < 1e-12
        assert out.p_interval[1] - out.p_interval[0] < 1e-9
        assert out.fit.p_interval == out.p_interval

    def test_r_interval_clamped_nonnegative(self):
        rows = []
        for m in (0, 4, 8):
            for c in range(6):
                miss = 1 if (c == 0 and m == 8) else 0
                rows.append(DataRow(f"p{m}_{c}", m, "0", 200, 200 - miss))
        out = bootstrap(Dataset(tuple(rows)), resamples=150, rng=np.random.default_rng(2))
        assert out.r_interval[0] >= 0.0
        assert out.p_interval[1] <= 1.0

    def test_deterministic_and_thread_invariant(self):
        data = synthetic_dataset(0.25, 0.75, 0.93, (0, 3, 6, 9), 6, 300,
                                 np.random.default_rng(5))
        a = bootstrap(data, resamples=110, rng=np.random.default_rng(9))
        b = bootstrap(data, resamples=110, rng=np.random.default_rng(9))
        assert a == b

    def test_interval_calibration(self):
        """Two-sigma bootstrap intervals cover the truth in at least 95%
        of repeated binomial experiments."""
        p_true, n = 0.95, 2
        lengths = (0, 5, 10, 15, 20, 25, 30)
        hits = 0
        reps = 200
        for rep in range(reps):
            gen = stream(777, rep)
            data = synthetic_dataset(0.25, 0.75, p_true, lengths, 28, 1024, gen, n=n)
            out = bootstrap(data, resamples=150, rng=stream(778, rep), n=n)
            if abs(out.fit.p - p_true) <= 2.0 * out.p_sigma:
                hits += 1
        assert hits / reps >= 0.95, f"coverage {hits}/{reps}"

    def test_depolarizing_p_matches_lambda(self):
        lam = 0.95
        design = ExperimentDesign(
            protocol="DRB",
            device=all_to_all(1, "HPI"),
            sampler=PCnotSampler(p_cnot=0.0, pool="HPI"),
            lengths=(0, 2, 4, 8, 16),
            circuits_per_length=8,
            shots=500,
            seed=23,
        )
        circuits, _ = generate_experiment(design)
        model = build_model_layer_depolarizing(1, lam)
        data = run_experiment(circuits, model, stream(24), shots=500)
        out = bootstrap(data, resamples=200, rng=stream(25), n=1)
        assert abs(out.fit.p - lam) <= 2.0 * out.p_sigma


class TestPredictR:
    def test_zero_model(self):
        spec = PCnotSampler(p_cnot=0.5)
        assert predict_r_from_rates(spec, all_to_all(2), ErrorModel(n=2)) == 0.0

    def test_pairing_closed_form(self):
        for n in (2, 4, 6, 8, 10):
            spec = PairingSampler(p_cnot=0.5)
            got = predict_r_from_rates(spec, all_to_all(n), build_model_main_sim(n))
            want = 1.0 - (0.5 * 0.9975**2 + 0.5 * 0.9995**2) ** (n / 2)
            assert got == pytest.approx(want, abs=1e-12)

    def test_crosstalk5_category_mixtures(self):
        device = ring_with_center(4, "HPI")
        ring_edges = tuple((i, (i + 1) % 4) for i in range(4))
        center_edges = tuple((4, i) for i in range(4))
        model = build_model_crosstalk5()
        ones = [GateLabel("I", (q,)) for q in range(5)]
        eps1 = layer_error_rate(model, ones)
        eps2 = layer_error_rate(model, [GateLabel("CNOT", (0, 1))] + ones[2:])
        eps3 = layer_error_rate(model, [GateLabel("CNOT", (4, 0))] + ones[1:4])
        mixes = {
            (0.25, 0.50, 0.25): 0.0434,
            (0.25, 0.25, 0.50): 0.0533,
            (0.90, 0.05, 0.05): 0.0108,
        }
        for probs, published in mixes.items():
            spec = CategorySampler(pool="HPI", probabilities=probs,
                                   edge_groups=(ring_edges, center_edges))
            got = predict_r_from_rates(spec, device, model)
            want = probs[0] * eps1 + probs[1] * eps2 + probs[2] * eps3
            assert got == pytest.approx(want, abs=1e-12)
            assert got == pytest.approx(published, abs=5e-5)

    def test_mismatch(self):
        with pytest.raises(ValueError):
            predict_r_from_rates(PCnotSampler(p_cnot=0.5), all_to_all(2), ErrorModel(n=3))


class TestRateSystem:
    def test_row_sum_validated(self):
        with pytest.raises(ValueError):
            RateSystem(matrix=((0.5, 0.4),), observed=(0.1,))
        with pytest.raises(ValueError):
            RateSystem(matrix=((0.5, 0.5),), observed=(0.1, 0.2))

    def test_identity_solve(self):
        system = RateSystem(matrix=((1.0, 0.0), (0.0, 1.0)), observed=(0.04, 0.02))
        out = solve_category_rates(system)
        assert out.epsilons == pytest.approx((0.04, 0.02))

    def test_two_sampler_example(self):
        m = ((0.75, 0.25), (0.25, 0.75))
        eps = np.array([0.05, 0.01])
        r = np.asarray(m) @ eps
        assert r == pytest.approx((0.04, 0.02))
        out = solve_category_rates(RateSystem(matrix=m, observed=tuple(r)))
        assert out.epsilons == pytest.approx(tuple(eps), abs=1e-12)

    def test_singular_rejected(self):
        system = RateSystem(matrix=((0.5, 0.5), (0.5, 0.5)), observed=(0.1, 0.1))
        with pytest.raises(ValueError):
            solve_category_rates(system)

    def test_linearity(self, rng):
        for _ in range(5):
            m = rng.uniform(0.1, 1.0, size=(3, 3))
            m /= m.sum(axis=1, keepdims=True)
            r = rng.uniform(0.01, 0.2, size=3)
            base = solve_category_rates(RateSystem(tuple(map(tuple, m)), tuple(r)))
            scaled = solve_category_rates(RateSystem(tuple(map(tuple, m)), tuple(3.0 * r)))
            assert np.allclose(scaled.epsilons, 3.0 * np.asarray(base.epsilons))
            assert np.argsort(base.epsilons).tolist() == np.argsort(scaled.epsilons).tolist()

    def test_sigma_propagation_identity(self):
        system = RateSystem(matrix=((1.0, 0.0), (0.0, 1.0)), observed=(0.1, 0.2),
                            sigmas=(0.01, 0.03))
        out = solve_category_rates(system)
        assert out.epsilon_sigmas == pytest.approx((0.01, 0.03))
        assert out.epsilon_covariance[0][1] == pytest.approx(0.0)

    def test_overdetermined_least_squares(self):
        m = ((1.0, 0.0), (0.0, 1.0), (0.5, 0.5))
        eps = np.array([0.06, 0.02])
        r = tuple(np.asarray(m) @ eps)
        out = solve_category_rates(RateSystem(matrix=m, observed=r))
        assert out.epsilons == pytest.approx(tuple(eps), abs=1e-12)

    def test_underdetermined_rejected(self):
        with pytest.raises(ValueError):
            solve_category_rates(RateSystem(matrix=((0.2, 0.3, 0.5),), observed=(0.1,)))


class TestBuildingBlocks:
    def test_zero_local(self):
        out = extract_building_block_rates((0.0, 0.1), 3)
        assert out.local == 0.0

    def test_crosstalk5_published_rates(self):
        eta = 1 - (0.92 / 0.96) ** 0.25
        eps = (
            1 - 0.999**5,
            1 - 0.96 * 0.999**3,
            1 - 0.96 * (1 - eta) * ((1 - eta) * 0.999 + eta * 0.001 / 3) ** 3,
        )
        out = extract_building_block_rates(eps, 5)
        assert out.local == pytest.approx(0.001, abs=1e-9)
        assert out.cnot_classes[0] == pytest.approx(0.04, abs=1e-9)
        # the center CNOT entangles with spectators, so its extracted rate
        # lands near, not on, the bare 8% gate rate
        assert out.cnot_classes[1] == pytest.approx(0.08, abs=2e-3)
        assert out.cnot == pytest.approx(0.06, abs=1e-3)
        assert not out.flagged

    def test_round_trip(self, rng):
        n = 4
        for _ in range(8):
            local = float(rng.uniform(0.0, 0.05))
            classes = rng.uniform(0.0, 0.2, size=3)
            eps1 = 1 - (1 - local) ** n
            cats = [eps1] + [1 - (1 - local) ** (n - 2) * (1 - c) for c in classes]
            out = extract_building_block_rates(cats, n)
            assert out.local == pytest.approx(local, abs=1e-12)
            assert np.allclose(out.cnot_classes, classes, atol=1e-12)
            assert out.cnot == pytest.approx(float(classes.mean()), abs=1e-12)

    def test_inconsistent_rates_flagged(self):
        out = extract_building_block_rates((0.5, 0.01), 3)
        assert out.flagged

    def test_validation(self):
        with pytest.raises(ValueError):
            extract_building_block_rates((1.2, 0.1), 3)
        with pytest.raises(ValueError):
            extract_building_block_rates((0.1,), 3)
        with pytest.raises(ValueError):
            extract_building_block_rates((0.1, 0.1), 1)

    def test_delta_method_matches_analytic(self):
        n = 5
        eps = (0.005, 0.043)
        s1 = 0.002
        out = extract_building_block_rates(eps, n, covariance=((s1**2, 0.0), (0.0, 0.0)))
        dlocal = (1.0 / n) * (1 - eps[0]) ** (1.0 / n - 1.0)
        assert out.local_sigma == pytest.approx(dlocal * s1, rel=1e-4)
        assert out.cnot_sigma is not None


class TestRescale:
    def test_crb_rescale(self):
        assert crb_rescale(0.0, 3.0) == 0.0
        assert crb_rescale(0.3, 1.0) == pytest.approx(0.3)
        assert crb_rescale(0.19, 2.0) == pytest.approx(1 - 0.9)
        with pytest.raises(ValueError):
            crb_rescale(1.0, 2.0)
        with pytest.raises(ValueError):
            crb_rescale(0.1, 0.0)


class TestWeights:
    def test_floor_prevents_blowup(self):
        w0, w4 = _inverse_variance(np.array([1.0, 0.5]), 100)
        assert np.isfinite(w0)
        assert w4 == pytest.approx(100 / 0.25)
        assert w0 > w4
