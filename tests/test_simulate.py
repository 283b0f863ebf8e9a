"""Engine checks: exact channel math, dense-oracle equivalence, determinism."""

import math

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

import oracles
from drbench.clifford import Circuit, GateLabel, PauliOp, circuit_to_clifford
from drbench.device import all_to_all
from drbench.protocols import BenchmarkCircuit, ExperimentDesign, generate_drb_circuit, generate_experiment
from drbench.sampling import PCnotSampler
from drbench.simulate import (
    Dataset,
    ErrorModel,
    _distinct_positions,
    _effects,
    build_model_crosstalk5,
    build_model_from_calibration,
    build_model_layer_depolarizing,
    build_model_main_sim,
    layer_error_rate,
    run_experiment,
    simulate_circuit,
)
from drbench.streams import stream


def small_design(n=2, seed=5, **kw):
    base = dict(
        protocol="DRB",
        device=all_to_all(n, "HPI"),
        sampler=PCnotSampler(p_cnot=0.5, pool="HPI"),
        lengths=(0, 2, 4),
        circuits_per_length=2,
        shots=200,
        seed=seed,
    )
    base.update(kw)
    return ExperimentDesign(**base)


def core_circuit(n, layers, meas=()):
    """Hand-built benchmark circuit whose core is ``layers``, followed by
    the ``meas`` layers, with target 0...0."""
    return BenchmarkCircuit(
        circuit_id="test_c000",
        protocol="DRB",
        n=n,
        length=len(layers),
        prep=Circuit(n, ()),
        core=Circuit(n, tuple(layers)),
        meas=Circuit(n, tuple(meas)),
        target=(0,) * n,
        seed=(0, len(layers), 0),
    )


def trivial_circuit(n=1, m=1):
    """Hand-built benchmark circuit whose core is m identity layers."""
    return core_circuit(n, (tuple(GateLabel("I", (q,)) for q in range(n)),) * m)


# the 1 - 1e-4 point of the chi-square law with 7 degrees of freedom
# (29.8775), rounded up
CHI2_7DOF_1E4 = 29.88

ONE_QUBIT_NAMES = ("I", "X", "Y", "Z", "H", "P") + tuple(f"C{k}" for k in range(24))


@st.composite
def random_layers(draw):
    """(n, layers): up to 6 layers of CNOTs and 1Q gates on disjoint qubits."""
    n = draw(st.integers(1, 5))
    layers = []
    for _ in range(draw(st.integers(1, 6))):
        order = draw(st.permutations(range(n)))
        pairs = draw(st.integers(0, n // 2))
        layer = [GateLabel("CNOT", (order[2 * i], order[2 * i + 1])) for i in range(pairs)]
        layer += [GateLabel(draw(st.sampled_from(ONE_QUBIT_NAMES)), (q,))
                  for q in order[2 * pairs:]]
        layers.append(tuple(layer))
    return n, layers


ERROR_RATES = st.sampled_from([0.0, 1.0]) | st.floats(0.0, 1.0)


@st.composite
def noisy_layers(draw):
    """(n, gate_errors, layer keys, layer_depol): up to three gates, which
    may share qubits, with up to two error entries each on any qubits."""
    n = draw(st.integers(1, 3))
    keys = [("1Q", (q,)) for q in range(n)]
    keys += [("CNOT", (c, t)) for c in range(n) for t in range(n) if c != t]
    entries = st.lists(st.tuples(st.integers(0, n - 1), ERROR_RATES), max_size=2)
    errors = draw(st.dictionaries(st.sampled_from(keys), entries, max_size=3))
    return n, errors, draw(st.lists(st.sampled_from(keys), max_size=3)), draw(ERROR_RATES)


class TestErrorModel:
    def test_validation(self):
        with pytest.raises(ValueError):
            ErrorModel(n=2, gate_errors={("3Q", (0,)): ()})
        with pytest.raises(ValueError):
            ErrorModel(n=2, gate_errors={("CNOT", (0,)): ()})
        with pytest.raises(ValueError):
            ErrorModel(n=2, gate_errors={("1Q", (0,)): ((0, 1.5),)})
        with pytest.raises(ValueError):
            ErrorModel(n=2, gate_errors={("1Q", (5,)): ()})
        with pytest.raises(ValueError):
            ErrorModel(n=2, meas_flip=(0.5,))
        with pytest.raises(ValueError):
            ErrorModel(n=2, layer_depol=1.5)

    def test_default_meas_flip(self):
        model = ErrorModel(n=3)
        assert model.meas_flip == (0.0, 0.0, 0.0)

    def test_rates_lookup(self):
        model = ErrorModel(n=2, gate_errors={("CNOT", (0, 1)): ((0, 0.1), (1, 0.2))})
        assert model.rates_for(GateLabel("CNOT", (0, 1))) == ((0, 0.1), (1, 0.2))
        assert model.rates_for(GateLabel("CNOT", (1, 0))) == ()
        assert model.rates_for(GateLabel("H", (0,))) == ()


class TestLayerErrorRate:
    def test_single_entry(self):
        model = ErrorModel(n=1, gate_errors={("1Q", (0,)): ((0, 0.12),)})
        rate = layer_error_rate(model, [GateLabel("H", (0,))])
        assert rate == pytest.approx(0.12)

    def test_two_sources_can_cancel(self):
        p1, p2 = 0.3, 0.2
        model = ErrorModel(
            n=2, gate_errors={("CNOT", (0, 1)): ((0, p1),), ("1Q", (0,)): ((0, p2),)}
        )
        # both sources on qubit 0: identity iff neither fires or both draw
        # the same Pauli
        expected = 1.0 - ((1 - p1) * (1 - p2) + 3 * (p1 / 3) * (p2 / 3))
        gates = [GateLabel("CNOT", (0, 1))] + [GateLabel("H", (0,))]
        assert layer_error_rate(model, gates) == pytest.approx(expected)

    @settings(max_examples=60, deadline=None)
    @given(noisy_layers(), st.sampled_from(ONE_QUBIT_NAMES))
    # two entries on one qubit
    @example((2, {("CNOT", (0, 1)): ((0, 0.3), (0, 0.2))}, [("CNOT", (0, 1))], 0.0), "H")
    # crosstalk onto a qubit that a p = 1 entry also hits, under layer_depol
    @example((3, {("CNOT", (1, 2)): ((1, 0.1), (0, 0.05)), ("1Q", (0,)): ((0, 1.0),)},
              [("CNOT", (1, 2)), ("1Q", (0,))], 0.2), "P")
    # p = 0 under full depolarization
    @example((1, {("1Q", (0,)): ((0, 0.0),)}, [("1Q", (0,))], 1.0), "I")
    def test_matches_enumeration(self, setup, name):
        n, errors, layer, depol = setup
        model = ErrorModel(n=n, gate_errors=errors, layer_depol=depol)
        gates = [GateLabel("CNOT" if kind == "CNOT" else name, qubits) for kind, qubits in layer]
        entries = [entry for key in layer for entry in errors.get(key, ())]
        dist = oracles.layer_pauli_distribution(entries, n, depol)
        clean = dist.get(((0,) * n, (0,) * n), 0.0)
        assert layer_error_rate(model, gates) == pytest.approx(1.0 - clean, abs=1e-12)

    def test_depol_contribution(self):
        model = ErrorModel(n=2, layer_depol=0.4)
        rate = layer_error_rate(model, [])
        assert rate == pytest.approx(0.4 * (1 - 0.25**2))

    def test_crosstalk5_category_rates(self):
        model = build_model_crosstalk5()
        ones = {q: GateLabel("H", (q,)) for q in range(5)}
        eps1 = layer_error_rate(model, list(ones.values()))
        assert eps1 == pytest.approx(1 - 0.999**5)
        ring_layer = [GateLabel("CNOT", (0, 1)), ones[2], ones[3], ones[4]]
        eps2 = layer_error_rate(model, ring_layer)
        assert eps2 == pytest.approx(1 - 0.96 * 0.999**3)
        eta = 1 - (0.92 / 0.96) ** 0.25
        center_layer = [GateLabel("CNOT", (4, 0)), ones[1], ones[2], ones[3]]
        eps3 = layer_error_rate(model, center_layer)
        expected = 1 - 0.96 * (1 - eta) * ((1 - eta) * 0.999 + eta * 0.001 / 3) ** 3
        assert eps3 == pytest.approx(expected)
        assert eps3 == pytest.approx(0.0828, abs=5e-4)


class TestSimulateCircuit:
    def test_zero_error_always_succeeds(self, rng):
        model = ErrorModel(n=2)
        for m in (0, 3):
            circ = generate_drb_circuit(small_design(), m, rng)
            successes, hist = simulate_circuit(circ, model, 500, rng)
            assert successes == 500
            assert hist is None

    def test_certain_meas_flip_always_fails(self, rng):
        model = ErrorModel(n=1, meas_flip=(1.0,))
        successes, _ = simulate_circuit(trivial_circuit(), model, 100, rng)
        assert successes == 0

    def test_uniform_error_succeeds_one_third(self, rng):
        # a forced uniform non-identity Pauli leaves Z outcomes intact only
        # for the Z draw
        model = ErrorModel(n=1, gate_errors={("1Q", (0,)): ((0, 1.0),)})
        successes, _ = simulate_circuit(trivial_circuit(n=1, m=1), model, 30000, rng)
        assert successes / 30000 == pytest.approx(1 / 3, abs=0.015)

    def test_depolarizing_matches_closed_form(self):
        lam = 0.85
        n = 2
        model = build_model_layer_depolarizing(n, lam)
        design = small_design(n=n, seed=21)
        total = {m: [0, 0] for m in (0, 2, 5)}
        for m in total:
            for index in range(12):
                gen = stream(21, m, index)
                circ = generate_drb_circuit(design, m, gen)
                successes, _ = simulate_circuit(circ, model, 2000, stream(99, m, index))
                total[m][0] += successes
                total[m][1] += 2000
        for m, (succ, shots) in total.items():
            expected = (1 - 2.0**-n) * lam**m + 2.0**-n
            sigma = np.sqrt(expected * (1 - expected) / shots)
            assert abs(succ / shots - expected) <= 3 * sigma + 1e-12, f"m={m}"

    def test_histogram_zero_noise(self, rng):
        circ = generate_drb_circuit(small_design(seed=9), 2, rng)
        _, hist = simulate_circuit(circ, ErrorModel(n=2), 50, rng, histogram=True)
        target = "".join(str(b) for b in circ.target)
        assert hist == ((target, 50),)

    def test_histogram_counts_sum_to_shots(self, rng):
        model = build_model_crosstalk5()
        design = small_design(
            n=5,
            device=all_to_all(5, "HPI"),
            sampler=PCnotSampler(p_cnot=0.5, pool="HPI"),
            seed=31,
        )
        circ = generate_drb_circuit(design, 3, rng)
        _, hist = simulate_circuit(circ, model, 300, rng, histogram=True)
        assert sum(c for _, c in hist) <= 300
        assert len(hist) <= 64
        assert all(len(b) == 5 for b, _ in hist)

    def test_input_validation(self, rng):
        circ = trivial_circuit(n=1)
        with pytest.raises(ValueError):
            simulate_circuit(circ, ErrorModel(n=2), 10, rng)
        with pytest.raises(ValueError):
            simulate_circuit(circ, ErrorModel(n=1), 0, rng)

    def test_single_error_insertion_matches_dense(self, rng):
        """Frame propagation through the symplectic action must agree with
        inserting the error matrix into the dense circuit unitary."""
        circ = generate_drb_circuit(small_design(seed=13), 3, rng)
        n = 2
        full = circ.full_circuit
        layers = full.layers
        e0 = np.zeros(2**n, dtype=complex)
        e0[0] = 1.0
        paulis = [
            PauliOp(n, x, z)
            for x, z in [((1, 0), (0, 0)), ((0, 1), (0, 0)), ((0, 0), (1, 0)),
                         ((0, 0), (0, 1)), ((1, 0), (1, 0)), ((0, 1), (0, 1))]
        ]
        for cut in range(len(layers) + 1):
            prefix = Circuit(n, layers[:cut])
            suffix = Circuit(n, layers[cut:])
            s_suffix = circuit_to_clifford(suffix).s
            for p in paulis:
                moved = (s_suffix @ p.vec) % 2
                predicted = (circ.target_bits ^ moved[:n]) % 2
                u = (
                    oracles.circuit_unitary(suffix)
                    @ oracles.pauli_op_matrix(p)
                    @ oracles.circuit_unitary(prefix)
                )
                state = u @ e0
                idx = int("".join(str(b) for b in predicted), 2)
                assert abs(state[idx]) == pytest.approx(1.0, abs=1e-9)


def effect_bits(effects, n):
    """The effect table as (steps, 2n, n) 0/1 bits: [k, r, j] is measured bit j."""
    words = np.ascontiguousarray(effects, dtype="<u8").view(np.uint8)
    return np.unpackbits(words, axis=2, bitorder="little")[..., :n]


class TestEffectTable:
    """The backward effect table against forward suffix Cliffords."""

    @settings(max_examples=150, deadline=None)
    @given(random_layers())
    def test_effects_match_dense(self, circuit):
        # a flip of frame row l after layer k reaches the measurement as the
        # suffix's image of e_l, whose x part is the flipped outcome bits
        n, layers = circuit
        effects = _effects(layers, n)
        assert effects.shape == (len(layers) + 1, 2 * n, 1)
        bits = effect_bits(effects, n)
        for k in range(len(layers) + 1):
            s = circuit_to_clifford(Circuit(n, tuple(layers[k + 1:]))).s
            for row in range(2 * n):
                e = np.zeros(2 * n, dtype=np.uint8)
                e[row] = 1
                assert np.array_equal(bits[k, row], ((s @ e) % 2)[:n]), (k, row)

    def test_two_words(self):
        # n = 65: qubit 64 is bit 0 of the second word; the CNOT carries an
        # X on qubit 0 after layer 0 to qubits 0 and 64
        n = 65
        layers = [(GateLabel("I", (0,)),), (GateLabel("CNOT", (0, 64)),)]
        effects = _effects(layers, n)
        assert effects.shape == (3, 2 * n, 2)
        assert effects[0, 0].tolist() == [1, 1]
        assert effects[0, 64].tolist() == effects[2, 64].tolist() == [0, 1]
        assert not effects[:, n:].any()  # the CNOT keeps Z flips on Z's


class TestPackedKernel:
    """Whole simulations of hand-built circuits with known outcomes."""

    @pytest.mark.parametrize("shots", [1, 63, 64, 65, 200])
    def test_shot_counts(self, rng, shots):
        circ = generate_drb_circuit(small_design(n=3, device=all_to_all(3, "HPI"), seed=9), 3,
                                    rng)
        target = "".join(str(b) for b in circ.target)
        tally = {}
        assert simulate_circuit(circ, ErrorModel(n=3), shots, rng, histogram=True,
                                tally=tally) == (shots, ((target, shots),))
        depth = circ.prep.depth + circ.core.depth + circ.meas.depth
        assert tally == {"shot_layers": depth * shots, "error_events": 0}
        flipped = target[0] + str(1 - int(target[1])) + target[2]
        model = ErrorModel(n=3, meas_flip=(0.0, 1.0, 0.0))
        assert simulate_circuit(circ, model, shots, rng, histogram=True) == (
            0, ((flipped, shots),))

    @pytest.mark.parametrize("n", [64, 65])
    def test_wide_histogram(self, rng, n):
        # a certain readout flip on qubit 0, then on qubit n - 1
        for q in (0, n - 1):
            flips = [0.0] * n
            flips[q] = 1.0
            _, hist = simulate_circuit(trivial_circuit(n=n), ErrorModel(n=n, meas_flip=flips), 100,
                                       rng, histogram=True)
            assert hist == (("".join("1" if j == q else "0" for j in range(n)), 100),)

    def test_histogram_order(self, rng):
        # n = 10 spans two bytes of packed outcomes; with 30% readout flips
        # many of the top 64 outcomes tie on count, and ties go by bitstring
        n = 10
        model = ErrorModel(n=n, meas_flip=(0.3,) * n)
        _, hist = simulate_circuit(trivial_circuit(n=n), model, 2000, rng, histogram=True)
        assert len(hist) == 64
        assert list(hist) == sorted(hist, key=lambda entry: (-entry[1], entry[0]))
        assert len({count for _, count in hist}) < 64

    def test_two_word_error_carried_by_cnot(self, rng):
        # a gate error on qubit 0 before CNOT 0 -> 64: X and Y flip qubits 0
        # and 64, Z flips nothing
        n = 65
        model = ErrorModel(n=n, gate_errors={("1Q", (0,)): ((0, 1.0),)})
        layers = [(GateLabel("I", (0,)),), (GateLabel("CNOT", (0, 64)),)]
        shots = 3000
        successes, hist = simulate_circuit(core_circuit(n, layers), model, shots, rng,
                                           histogram=True)
        both = "1" + "0" * 63 + "1"
        assert dict(hist) == {"0" * n: successes, both: shots - successes}
        assert abs(successes / shots - 1 / 3) <= 4 * math.sqrt(2 / 9 / shots)

    def test_depolarizing_event_gives_uniform_outcomes(self):
        # a certain depolarizing event draws a uniform 6-bit Pauli, and any
        # Clifford after it leaves its x part, the outcome, uniform; the
        # chi-square bound is the 1 - 1e-4 point with 7 degrees of freedom
        n = 3
        model = build_model_layer_depolarizing(n, 0.0)
        idle = tuple(GateLabel("I", (q,)) for q in range(n))
        after = [(GateLabel("H", (0,)), GateLabel("C5", (1,)), GateLabel("C17", (2,))),
                 (GateLabel("CNOT", (0, 2)), GateLabel("C11", (1,)))]
        shots = 8000
        _, hist = simulate_circuit(core_circuit(n, [idle], meas=after), model, shots,
                                   stream(2024, "uniform"), histogram=True)
        counts = dict(hist)
        assert len(counts) == 8 and sum(counts.values()) == shots
        expected = shots / 8
        assert sum((c - expected) ** 2 / expected for c in counts.values()) < CHI2_7DOF_1E4

    def test_zero_noise_65_shots(self, rng):
        circ = generate_drb_circuit(small_design(seed=9), 4, rng)
        tally = {}
        successes, hist = simulate_circuit(circ, ErrorModel(n=2), 65, rng, histogram=True,
                                           tally=tally)
        target = "".join(str(b) for b in circ.target)
        assert successes == 65
        assert hist == ((target, 65),)
        depth = circ.prep.depth + circ.core.depth + circ.meas.depth
        assert tally == {"shot_layers": depth * 65, "error_events": 0}

    def test_certain_flip_on_one_qubit(self, rng):
        model = ErrorModel(n=3, meas_flip=(0.0, 1.0, 0.0))
        tally = {}
        successes, hist = simulate_circuit(trivial_circuit(n=3), model, 100, rng,
                                           histogram=True, tally=tally)
        assert successes == 0
        assert hist == (("010", 100),)
        assert tally["error_events"] == 100

    def test_certain_errors_hit_every_shot(self, rng):
        # two p = 1 entries on qubit 0 plus one on qubit 1, over two layers
        model = ErrorModel(n=2, gate_errors={
            ("1Q", (0,)): ((0, 1.0),), ("1Q", (1,)): ((1, 1.0), (0, 1.0))})
        for shots in (1, 64, 130):
            tally = {}
            simulate_circuit(trivial_circuit(n=2, m=2), model, shots, rng, tally=tally)
            assert tally["error_events"] == 6 * shots

    def test_errors_act_after_the_layer_on_their_qubit(self, rng):
        # the H gate's entry hits qubit 1, the CNOT control in the same
        # layer: after the layer, an X part flips qubit 1 alone
        model = ErrorModel(n=3, gate_errors={("1Q", (0,)): ((1, 1.0),)})
        layer = (GateLabel("H", (0,)), GateLabel("CNOT", (1, 2)))
        _, hist = simulate_circuit(core_circuit(3, [layer]), model, 300, rng, histogram=True)
        assert {bits for bits, _ in hist} == {"000", "010"}

    def test_depolarizing_randomizes_z_parts(self, rng):
        # a certain depolarizing event after the core layer, then H on both
        # qubits: only the z parts reach the measurement, so P = 1/4
        model = build_model_layer_depolarizing(2, 0.0)
        idle = (GateLabel("I", (0,)), GateLabel("I", (1,)))
        hadamards = (GateLabel("H", (0,)), GateLabel("H", (1,)))
        shots = 4000
        tally = {}
        successes, _ = simulate_circuit(core_circuit(2, [idle], meas=[hadamards]), model, shots,
                                        rng, tally=tally)
        assert tally["error_events"] == shots
        assert abs(successes / shots - 0.25) <= 3 * math.sqrt(0.25 * 0.75 / shots)

    def test_distinct_positions(self):
        rng = np.random.default_rng(3)
        counts = np.array([0, 1, 3, 8, 200, 256, 5, 0, 64])
        owner, pos = _distinct_positions(rng, 256, counts)
        assert np.array_equal(owner, np.repeat(np.arange(counts.size), counts))
        assert pos.min() >= 0 and pos.max() < 256
        for i, k in enumerate(counts):
            assert len(set(pos[owner == i].tolist())) == k

    def test_distinct_positions_uniform(self):
        # 20000 sources each hit 2 of 8 shots (the redraw path): all 28
        # pairs equally likely, chi-square with 27 dof below its 0.1% point
        rng = np.random.default_rng(11)
        owner, pos = _distinct_positions(rng, 8, np.full(20000, 2))
        pairs = np.sort(pos.reshape(-1, 2), axis=1)
        observed = np.bincount(pairs[:, 0] * 8 + pairs[:, 1], minlength=64)
        observed = observed[[a * 8 + b for a in range(8) for b in range(a + 1, 8)]]
        expected = 20000 / 28
        assert observed.sum() == 20000
        assert ((observed - expected) ** 2 / expected).sum() < 55.48

    def test_crosstalk5_layer_matches_closed_form(self):
        # center CNOT 4 -> 0 spreads crosstalk over ring qubits 0-3; the 1Q
        # gates on 1-3 add a second error source on those qubits
        model = build_model_crosstalk5()
        layer = (GateLabel("CNOT", (4, 0)), GateLabel("H", (1,)), GateLabel("P", (2,)),
                 GateLabel("C3", (3,)))
        entries = [entry for gate in layer for entry in model.rates_for(gate)]
        # a readout reads right when no x part hit its qubit and it did not
        # flip, or an x part hit and it flipped
        expected = sum(prob * math.prod(f if xq else 1 - f for xq, f in zip(x, model.meas_flip))
                       for (x, _), prob in oracles.layer_pauli_distribution(entries, 5).items())
        shots = 200_000
        successes, _ = simulate_circuit(core_circuit(5, [layer]), model, shots,
                                        stream(2024, "crosstalk5"))
        sigma = math.sqrt(expected * (1 - expected) / shots)
        assert abs(successes / shots - expected) <= 3 * sigma


class TestRunExperiment:
    def test_empty(self):
        data = run_experiment([], ErrorModel(n=2), np.random.default_rng(0), shots=10)
        assert data.rows == ()

    def test_rows_align(self):
        circuits, _ = generate_experiment(small_design(seed=3))
        data = run_experiment(circuits, ErrorModel(n=2), np.random.default_rng(1), shots=25)
        assert [r.circuit_id for r in data.rows] == [c.circuit_id for c in circuits]
        assert all(r.shots == 25 and r.successes == 25 for r in data.rows)

    def test_same_seed_identical(self):
        circuits, _ = generate_experiment(small_design(seed=4))
        model = build_model_main_sim(2)
        d1 = run_experiment(circuits, model, np.random.default_rng(7), shots=100)
        d2 = run_experiment(circuits, model, np.random.default_rng(7), shots=100)
        assert d1 == d2
        depth = sum(c.prep.depth + c.core.depth + c.meas.depth for c in circuits)
        assert d1.shot_layers == depth * 100
        assert d1.error_events > 0

    def test_provenance_attached(self):
        data = run_experiment([], ErrorModel(n=1), np.random.default_rng(0), shots=1,
                              provenance={"note": "x"})
        assert data.provenance == {"note": "x"}

    def test_spread_matches_binomial(self):
        """Independent-seed reruns of one circuit spread like a binomial."""
        lam = 0.9
        model = build_model_layer_depolarizing(2, lam)
        circ = generate_drb_circuit(small_design(seed=15), 4, stream(15, 4, 0))
        p_true = (1 - 0.25) * lam**4 + 0.25
        shots = 500
        rates = []
        for k in range(100):
            successes, _ = simulate_circuit(circ, model, shots, stream(1000, k))
            rates.append(successes / shots)
        observed_var = np.var(rates, ddof=1)
        expected_var = p_true * (1 - p_true) / shots
        assert 0.55 < observed_var / expected_var < 1.7


class TestModelBuilders:
    def test_main_sim_rates(self):
        model = build_model_main_sim(3)
        cnot_total = layer_error_rate(model, [GateLabel("CNOT", (0, 1)), GateLabel("H", (2,))])
        assert cnot_total == pytest.approx(1 - 0.9975**2 * 0.9995, rel=1e-9)
        assert model.meas_flip == (0.0, 0.0, 0.0)

    def test_crosstalk5_totals(self):
        model = build_model_crosstalk5()
        lone_ring = layer_error_rate(model, [GateLabel("CNOT", (1, 2))])
        assert lone_ring == pytest.approx(0.04)
        lone_center = layer_error_rate(model, [GateLabel("CNOT", (4, 2))])
        assert lone_center == pytest.approx(0.08)
        meas_total = 1 - (1 - 0.02) ** 5
        assert meas_total == pytest.approx(0.0961, abs=1e-4)

    def test_calibration_zero_rates(self):
        model = build_model_from_calibration(2, 0.0, {(0, 1): 0.0}, 0.0)
        assert all(all(p == 0 for _, p in v) for v in model.gate_errors.values())

    def test_calibration_cnot_split(self):
        model = build_model_from_calibration(2, 0.0, {(0, 1): 0.04}, 0.0)
        rate = layer_error_rate(model, [GateLabel("CNOT", (0, 1))])
        assert rate == pytest.approx(0.04)

    def test_calibration_z_failure_closed_form(self, rng):
        # uniform non-identity Pauli at rate q flips a Z measurement with
        # probability 2q/3
        q = 0.3
        model = build_model_from_calibration(1, q)
        successes, _ = simulate_circuit(trivial_circuit(n=1, m=1), model, 30000, rng)
        assert successes / 30000 == pytest.approx(1 - 2 * q / 3, abs=0.01)

    def test_calibration_missing_entries(self):
        with pytest.raises(ValueError):
            build_model_from_calibration(2, {0: 0.1})
        with pytest.raises(ValueError):
            build_model_from_calibration(2, 0.0, None, {0: 0.1})

    def test_depolarizing_validation(self):
        with pytest.raises(ValueError):
            build_model_layer_depolarizing(2, 1.2)
