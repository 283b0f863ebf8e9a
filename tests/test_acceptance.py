"""Shipping gate: one test per acceptance criterion.

Every test prints exactly one ``ACCEPTANCE <k> (<name>): PASS`` or ``FAIL``
line (run with ``pytest -s tests/test_acceptance.py`` to see them live).
Master seeds are fixed per criterion so the whole gate is deterministic.
The statistical checks compare point estimates against exact model
predictions at two bootstrap standard deviations.
"""

import contextlib
import itertools
import json
import math

import numpy as np
import pytest

import oracles
from drbench import (
    DEFAULT_CIRCUITS_PER_LENGTH,
    DEFAULT_LENGTHS,
    DEFAULT_SHOTS,
    CategorySampler,
    CliffordOp,
    CompileOptions,
    ExperimentDesign,
    GateLabel,
    PairingSampler,
    PCnotSampler,
    RateSystem,
    StabilizerState,
    all_to_all,
    bootstrap,
    build_model_crosstalk5,
    build_model_layer_depolarizing,
    build_model_main_sim,
    circuit_to_clifford,
    compile_clifford,
    compile_stabilizer_meas,
    compile_stabilizer_prep,
    crb_rescale,
    extract_building_block_rates,
    generate_experiment,
    layer_error_rate,
    predict_r_from_rates,
    ring,
    ring_center_edges,
    ring_with_center,
    run_experiment,
    sample_clifford_uniform,
    sample_stabilizer_state_uniform,
    solve_category_rates,
    stream,
    symplectic_from_index,
    symplectic_group_order,
)
from drbench.cli import main as cli_main


@contextlib.contextmanager
def criterion(num: int, name: str):
    try:
        yield
    except Exception:
        print(f"\nACCEPTANCE {num} ({name}): FAIL")
        raise
    print(f"\nACCEPTANCE {num} ({name}): PASS")


def fitted_rate(design, model, master, n):
    """Generate, simulate and bootstrap one run; returns (result, circuits)."""
    circuits, _ = generate_experiment(design)
    data = run_experiment(circuits, model, stream(master, "sim"), shots=design.shots)
    return bootstrap(data, rng=stream(master, "boot"), n=n), circuits


def test_criterion_1_pairing_rates_match_prediction():
    with criterion(1, "pairing-sampled rates match eps_Omega at n = 2..8"):
        opts = CompileOptions(trials=1)
        for n in (2, 4, 6, 8):
            device = all_to_all(n)
            sampler = PairingSampler(p_cnot=0.5)
            design = ExperimentDesign(
                protocol="DRB", device=device, sampler=sampler,
                lengths=tuple(range(0, 44, 4)), circuits_per_length=50,
                shots=100, seed=1000 + n, compile_options=opts)
            boot, _ = fitted_rate(design, build_model_main_sim(n), 1000 + n, n)
            eps = predict_r_from_rates(sampler, device, build_model_main_sim(n))
            closed = 1.0 - (0.5 * 0.9975 ** 2 + 0.5 * 0.9995 ** 2) ** (n / 2)
            assert eps == pytest.approx(closed, abs=1e-12)
            gap = abs(boot.fit.r - eps)
            assert gap <= 2.0 * boot.r_sigma, (n, boot.fit.r, eps, boot.r_sigma)
            assert gap <= 0.15 * eps, (n, boot.fit.r, eps)


def test_criterion_2_category_mixtures_recover_block_rates():
    with criterion(2, "category mixtures solve to the per-block error rates"):
        ring_edges, center_edges = ring_center_edges(4)
        # full local-Clifford dressing: the mixture decays stay single
        # exponential at v . eps, which the 3-gate pool's weaker per-layer
        # twirl does not deliver (its fitted rates sit ~5% low)
        device = ring_with_center(4, gate_set="C24")
        model = build_model_crosstalk5()
        mixes = ((0.25, 0.5, 0.25), (0.25, 0.25, 0.5), (0.9, 0.05, 0.05))
        published_r = (0.0434, 0.0533, 0.0108)
        # 12 lengths each, windows a few decay times deep; the third
        # mixture decays ~5x slower so its window stretches accordingly
        windows = (range(0, 48, 4), range(0, 48, 4), range(0, 120, 10))

        def cnot_layer(c, t):
            rest = [GateLabel("I", (q,)) for q in range(5) if q not in (c, t)]
            return [GateLabel("CNOT", (c, t))] + rest

        eps_true = (
            layer_error_rate(model, [GateLabel("I", (q,)) for q in range(5)]),
            float(np.mean([layer_error_rate(model, cnot_layer(c, t))
                           for c, t in ring_edges])),
            float(np.mean([layer_error_rate(model, cnot_layer(c, t))
                           for c, t in center_edges])),
        )
        assert tuple(round(e, 3) for e in eps_true) == (0.005, 0.043, 0.083)
        for probs, published in zip(mixes, published_r):
            assert float(np.dot(probs, eps_true)) == pytest.approx(published, abs=5e-5)

        opts = CompileOptions(trials=1)
        fitted, sigmas = [], []
        for i, probs in enumerate(mixes):
            sampler = CategorySampler(pool="C24", probabilities=probs,
                                      edge_groups=(ring_edges, center_edges))
            design = ExperimentDesign(
                protocol="DRB", device=device, sampler=sampler,
                lengths=tuple(windows[i]), circuits_per_length=50,
                shots=100, seed=2010 + i, compile_options=opts)
            boot, _ = fitted_rate(design, model, 2010 + i, 5)
            assert abs(boot.fit.r - published_r[i]) <= 2.0 * boot.r_sigma, (
                i, boot.fit.r, published_r[i], boot.r_sigma)
            fitted.append(boot.fit.r)
            sigmas.append(boot.r_sigma)

        system = solve_category_rates(RateSystem(
            matrix=mixes, observed=tuple(fitted), sigmas=tuple(sigmas)))
        for k, truth in enumerate((0.005, 0.043, 0.083)):
            assert abs(system.epsilons[k] - truth) <= 2.0 * system.epsilon_sigmas[k], (
                k, system.epsilons[k], truth, system.epsilon_sigmas[k])
        clipped = tuple(min(max(e, 0.0), 1.0) for e in system.epsilons)
        blocks = extract_building_block_rates(
            clipped, 5, covariance=system.epsilon_covariance)
        assert abs(blocks.local - 0.001) <= 2.0 * blocks.local_sigma, (
            blocks.local, blocks.local_sigma)
        assert abs(blocks.cnot - 0.06) <= 2.0 * blocks.cnot_sigma, (
            blocks.cnot, blocks.cnot_sigma)


def test_criterion_3_layer_depolarizing_exactness():
    with criterion(3, "layer depolarizing fits p = lambda and A = 2^-n"):
        lam = 0.96
        for n in (1, 2, 3):
            sampler = PCnotSampler(p_cnot=0.0 if n == 1 else 0.5)
            design = ExperimentDesign(
                protocol="DRB", device=all_to_all(n), sampler=sampler,
                lengths=tuple(range(0, 44, 4)), circuits_per_length=30,
                shots=200, seed=3000 + n)
            model = build_model_layer_depolarizing(n, lam)
            boot, _ = fitted_rate(design, model, 3000 + n, n)
            assert abs(boot.fit.p - lam) <= 2.0 * boot.p_sigma, (
                n, boot.fit.p, boot.p_sigma)
            assert abs(boot.fit.A - 0.5 ** n) <= 2.0 * boot.a_sigma, (
                n, boot.fit.A, boot.a_sigma)


def test_criterion_4_eigenstate_frequency_law():
    with criterion(4, "uniform states hit fixed Paulis at rate (2^n-1)/(4^n-1)"):
        fixed = {1: ("X", "Y", "Z"), 2: ("XI", "ZZ", "YX"), 3: ("XII", "ZZZ", "XYZ")}
        samples = 30000
        for n in (1, 2, 3):
            paulis = [oracles.pauli(lbl) for lbl in fixed[n]]
            rng = stream(4000, n)
            hits = np.zeros(len(paulis), dtype=np.int64)
            for _ in range(samples):
                # an eigenstate of p exactly when p commutes with every generator
                generators = sample_stabilizer_state_uniform(n, rng).generators
                for j, p in enumerate(paulis):
                    hits[j] += all(g.commutes(p) for g in generators)
            expected = (2 ** n - 1) / (4 ** n - 1)
            for j, label in enumerate(fixed[n]):
                freq = hits[j] / samples
                assert abs(freq - expected) <= 0.01, (n, label, freq, expected)


def _assert_device_legal(circ, device):
    for layer in circ.layers:
        for gate in layer:
            if gate.name == "CNOT":
                assert device.has_edge(*gate.qubits), (gate, device.edges)
            else:
                assert device.allows_one_qubit_gate(gate.name), gate


def test_criterion_5_group_and_compiler_oracles():
    with criterion(5, "symplectic sizes, compile round-trips, dense conjugation"):
        assert symplectic_group_order(1) == 6
        assert symplectic_group_order(2) == 720
        for n in (1, 2):
            order = symplectic_group_order(n)
            lam = np.zeros((2 * n, 2 * n), dtype=np.uint8)
            lam[:n, n:] = np.eye(n, dtype=np.uint8)
            lam[n:, :n] = np.eye(n, dtype=np.uint8)
            seen = set()
            for i in range(order):
                s = symplectic_from_index(i, n)
                assert np.array_equal(s.astype(int) @ lam @ s.T.astype(int) % 2, lam)
                seen.add(s.tobytes())
            assert len(seen) == order

        opts = CompileOptions(trials=1)
        devices = [all_to_all(n) for n in range(1, 7)] + [ring(n) for n in range(2, 7)]
        cliffords = states = 0
        for index, device in enumerate(devices):
            n = device.n
            rng = stream(5000, "roundtrip", index)
            for _ in range(91):
                op = sample_clifford_uniform(n, rng)
                circ, _ = compile_clifford(op, device, opts)
                assert circuit_to_clifford(circ, n) == op
                _assert_device_legal(circ, device)
                cliffords += 1
            for _ in range(46):
                state = sample_stabilizer_state_uniform(n, rng)
                prep, _ = compile_stabilizer_prep(state, device, opts)
                assert StabilizerState.zero_state(n).apply_circuit(prep) == state
                meas, bits, _ = compile_stabilizer_meas(state, device, opts)
                rotated = state.apply_circuit(meas)
                got = rotated.to_basis_bits()
                assert got is not None and np.array_equal(got, bits)
                _assert_device_legal(prep, device)
                _assert_device_legal(meas, device)
                states += 1
        assert cliffords >= 1000 and states >= 500

        # every Clifford at n <= 2: its compiled circuit's dense conjugation
        # of each generator gives back the tableau
        opts = CompileOptions(trials=1)
        for n in (1, 2):
            device = all_to_all(n)
            for index in range(symplectic_group_order(n)):
                s = symplectic_from_index(index, n)
                parity = np.einsum("ij,ij->j", s[:n].astype(np.int64),
                                   s[n:].astype(np.int64)) % 2
                for signs in itertools.product((0, 1), repeat=2 * n):
                    v = parity + 2 * np.array(signs, dtype=np.int64)
                    op = CliffordOp(n, s, v)
                    circ, _ = compile_clifford(op, device, opts)
                    s_dense, v_dense = oracles.clifford_of_unitary(oracles.circuit_unitary(circ), n)
                    assert CliffordOp(n, s_dense, v_dense) == op, (n, index, signs)


def test_criterion_6_crb_drb_consistency():
    with criterion(6, "DRB rate agrees with the rescaled CRB rate via eps_Omega"):
        lam = 0.99
        device = all_to_all(2)
        model = build_model_layer_depolarizing(2, lam)
        sampler = PCnotSampler(p_cnot=0.75)
        drb = ExperimentDesign(
            protocol="DRB", device=device, sampler=sampler,
            lengths=tuple(range(0, 66, 6)), circuits_per_length=30,
            shots=1000, seed=6001)
        dboot, _ = fitted_rate(drb, model, 6001, 2)
        eps_omega = predict_r_from_rates(sampler, device, model)
        assert eps_omega == pytest.approx((1 - lam) * (1 - 0.25 ** 2), abs=1e-15)

        crb = ExperimentDesign(
            protocol="CRB", device=device,
            lengths=(1, 2, 3, 4, 6, 8, 10, 12), circuits_per_length=30,
            shots=200, seed=6002)
        cboot, ccircs = fitted_rate(crb, model, 6002, 2)
        alpha = float(np.mean([d for c in ccircs for d in c.element_depths]))
        rescaled = crb_rescale(cboot.fit.r, alpha)
        # delta method: d/dr [1 - (1-r)^(1/a)] = (1-r)^(1/a - 1) / a
        slope = (1.0 - cboot.fit.r) ** (1.0 / alpha - 1.0) / alpha
        resc_sigma = slope * cboot.r_sigma

        assert abs(dboot.fit.r - eps_omega) <= 2.0 * dboot.r_sigma, (
            dboot.fit.r, eps_omega, dboot.r_sigma)
        assert abs(rescaled - eps_omega) <= 2.0 * resc_sigma, (
            rescaled, eps_omega, resc_sigma)
        both = math.hypot(2.0 * dboot.r_sigma, 2.0 * resc_sigma)
        assert abs(dboot.fit.r - rescaled) <= both, (dboot.fit.r, rescaled, both)


def test_criterion_7_envelope_and_external_ingestion(tmp_path, capsys):
    with criterion(7, "default design envelope and external dataset refit"):
        assert DEFAULT_LENGTHS == tuple(range(0, 35, 5))
        assert DEFAULT_CIRCUITS_PER_LENGTH == 28
        assert DEFAULT_SHOTS == 1024

        config = {
            "protocol": "DRB",
            "device": {"preset": "all_to_all", "n": 2, "gate_set": "C24"},
            "sampler": {"kind": "pcnot", "p_cnot": 0.5},
            "seed": 7001,
            "compile": {"trials": 2},
        }
        cfg = tmp_path / "design.json"
        cfg.write_text(json.dumps(config))
        out = tmp_path / "run"
        assert cli_main(["generate", "--config", str(cfg), "--out", str(out)]) == 0
        manifest = json.loads((out / "manifest.json").read_text())
        assert manifest["experiment"]["lengths"] == list(range(0, 35, 5))
        assert manifest["experiment"]["circuits_per_length"] == 28
        assert manifest["experiment"]["shots"] == 1024
        assert len(manifest["experiment"]["circuits"]) == 7 * 28
        assert len(list((out / "circuits").glob("*.txt"))) == 7 * 28

        # bare rows, no provenance line, no ids or targets; the asymptote
        # sits off 2^-n as it does for biased hardware readout
        a_true, b_true, p_true = 0.35, 0.60, 0.95
        rng = stream(7002, "synthetic")
        lines = []
        for m in DEFAULT_LENGTHS:
            prob = a_true + b_true * p_true ** m
            for _ in range(DEFAULT_CIRCUITS_PER_LENGTH):
                lines.append(json.dumps({
                    "m": m, "shots": DEFAULT_SHOTS,
                    "successes": int(rng.binomial(DEFAULT_SHOTS, prob))}))
        ext = tmp_path / "external.jsonl"
        ext.write_text("\n".join(lines) + "\n")
        res = tmp_path / "ext_results.json"
        code = cli_main(["analyze", str(ext), "--out", str(res),
                         "--n", "2", "--seed", "7003"])
        capsys.readouterr()
        assert code == 0
        run = json.loads(res.read_text())["runs"][0]
        assert abs(run["p"] - p_true) <= 2.0 * run["p_sigma"], (run["p"], run["p_sigma"])
        assert abs(run["A"] - a_true) <= 2.0 * run["a_sigma"], (run["A"], run["a_sigma"])
        assert abs(run["B"] - b_true) <= 2.0 * run["b_sigma"], (run["B"], run["b_sigma"])


def _pipeline(root, config, threads, monkeypatch):
    """Run the identical command sequence from ``root``; only the thread
    count and the absolute location may differ between invocations."""
    root.mkdir(parents=True, exist_ok=True)
    monkeypatch.chdir(root)
    (root / "design.json").write_text(json.dumps(config))
    assert cli_main(["generate", "--config", "design.json", "--out", "run"]) == 0
    assert cli_main(["simulate", "--run", "run", "--model", "main_sim",
                     "--seed", "42", "--threads", str(threads)]) == 0
    assert cli_main(["analyze", "run/dataset.jsonl",
                     "--out", "run/results.json", "--seed", "9",
                     "--resamples", "150", "--threads", str(threads)]) == 0
    assert cli_main(["report", "run", "--out", "run/report.svg"]) == 0
    return root / "run"


def _neutral_manifest(path):
    obj = json.loads(path.read_text())
    obj.pop("created", None)
    for sim in obj.get("simulations", []):
        sim.pop("created", None)
    return obj


def test_criterion_8_pipeline_byte_reproducibility(tmp_path, capsys, monkeypatch):
    with criterion(8, "pipeline bytes fixed by seeds, independent of threads"):
        config = {
            "protocol": "DRB",
            "device": {"preset": "all_to_all", "n": 2, "gate_set": "C24"},
            "sampler": {"kind": "pcnot", "p_cnot": 0.5},
            "lengths": [0, 3, 6, 9],
            "circuits_per_length": 4,
            "shots": 150,
            "seed": 8001,
            "compile": {"trials": 2},
        }
        run_a = _pipeline(tmp_path / "a", config, 1, monkeypatch)
        run_b = _pipeline(tmp_path / "b", config, 4, monkeypatch)
        capsys.readouterr()

        files = sorted(p.relative_to(run_a) for p in run_a.rglob("*") if p.is_file())
        assert [p.name for p in files if p.parent.name == "circuits"]
        for rel in files:
            if rel.name == "manifest.json":
                continue
            assert (run_a / rel).read_bytes() == (run_b / rel).read_bytes(), rel
        assert {p.relative_to(run_b) for p in run_b.rglob("*") if p.is_file()} == set(files)
        assert (run_a / "report.txt").exists()
        assert _neutral_manifest(run_a / "manifest.json") == _neutral_manifest(
            run_b / "manifest.json")
