"""Compiler correctness: linear maps, full Cliffords, stabilizer prep/meas."""

import dataclasses
import itertools

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import oracles
from drbench.clifford import (
    Circuit,
    CliffordOp,
    GateLabel,
    StabilizerState,
    _pack_rows,
    _unpack_rows,
    circuit_to_clifford,
    layer_to_clifford,
)
from drbench import compiling
from drbench.compiling import (
    CompileOptions,
    CompileStats,
    _cnot_sequence,
    _expand_ops,
    _flips_and_factor,
    _long_range_cnot_steps,
    _merge_one_qubit_runs,
    _ONE_QUBIT_INDEX,
    _one_qubit_products,
    _pack_layers,
    _word_table,
    circuit_stats,
    compile_clifford,
    compile_stabilizer_meas,
    compile_stabilizer_prep,
)
from drbench.device import DeviceSpec, all_to_all, ring, ring_with_center
from drbench.sampling import sample_clifford_uniform, sample_stabilizer_state_uniform
from drbench.streams import stream


def cnot_circuit(m: np.ndarray, device: DeviceSpec, options: CompileOptions | None = None) -> Circuit:
    """The CNOT stage the stabilizer compilers run, for the invertible
    matrix m, packed: |x> -> |m x> on the device."""
    ops, order, _ = _cnot_sequence(_pack_rows(np.asarray(m, dtype=np.uint8)), device,
                                   device.eccentricities(), options or CompileOptions())
    return _pack_layers(_expand_ops(ops, order, device), device.n)


def gf2_rank(m) -> int:
    """Rank over GF(2) by elimination with row swaps."""
    r = np.array(m, dtype=np.uint8) % 2
    rows, cols = r.shape
    rank = 0
    for c in range(cols):
        piv = next((i for i in range(rank, rows) if r[i, c]), None)
        if piv is None:
            continue
        r[[rank, piv]] = r[[piv, rank]]
        for i in range(rows):
            if i != rank and r[i, c]:
                r[i] ^= r[rank]
        rank += 1
    return rank


def random_invertible(n, rng):
    while True:
        m = rng.integers(0, 2, size=(n, n)).astype(np.uint8)
        if gf2_rank(m) == n:
            return m


def gates_of(circ):
    return [g for layer in circ.layers for g in layer]


def assert_device_legal(circ, device):
    for g in gates_of(circ):
        if g.name == "CNOT":
            assert device.has_edge(*g.qubits), f"undeclared edge {g.qubits}"
        else:
            assert device.allows_one_qubit_gate(g.name), f"illegal 1Q gate {g.name}"


def same_up_to_phase(u, w) -> bool:
    return np.isclose(abs(np.trace(u.conj().T @ w)), u.shape[0])


class TestOneQubitTables:
    def test_products_match_oracle_unitaries(self):
        units = oracles.one_qubit_clifford_unitaries()
        product = _one_qubit_products()
        assert len(product) == 24 and all(len(row) == 24 for row in product)
        for a, b in np.ndindex(24, 24):
            assert same_up_to_phase(units[product[a][b]], units[a] @ units[b]), (a, b)

    def test_names_index_their_gates(self):
        units = oracles.one_qubit_clifford_unitaries()
        index = _ONE_QUBIT_INDEX
        assert index["I"] == 8
        for name in ("I", "X", "Y", "Z", "H", "P"):
            assert same_up_to_phase(units[index[name]], oracles.GATE_MATRICES[name])
        assert all(index[f"C{k}"] == k for k in range(24))

    @pytest.mark.parametrize("gate_set", ["C24", "HPI"])
    def test_words_multiply_back_to_their_element(self, gate_set):
        units = oracles.one_qubit_clifford_unitaries()
        words = _word_table(gate_set)
        assert len(words) == 24
        for k, word in enumerate(words):
            u = np.eye(2, dtype=complex)
            for name in word:  # first name acts first
                u = oracles.gate_unitary(name, (0,), 1) @ u
            assert same_up_to_phase(u, units[k]), (k, word)

    def test_c24_words_are_single_gates(self):
        words = _word_table("C24")
        identity = _ONE_QUBIT_INDEX["I"]
        assert words[identity] == ()
        assert all(words[k] == (f"C{k}",) for k in range(24) if k != identity)

    @pytest.mark.parametrize("gate_set", ["C24", "HPI"])
    def test_identity_runs_vanish(self, gate_set):
        cnot = GateLabel("CNOT", (0, 1))
        seq = [GateLabel("H", (0,)), GateLabel("X", (1,)), GateLabel("H", (0,)),
               GateLabel("X", (1,)), cnot, GateLabel("C8", (1,))]
        assert _merge_one_qubit_runs(seq, all_to_all(2, gate_set)) == [cnot]


class TestCnotCompile:
    def test_action_all_to_all(self, rng):
        for n in range(1, 7):
            dev = all_to_all(n)
            for _ in range(5):
                m = random_invertible(n, rng)
                circ = cnot_circuit(m, dev)
                op = circuit_to_clifford(circ)
                assert np.array_equal(op.s[:n, :n], m)
                assert not np.any(op.v)
                assert all(g.name == "CNOT" for g in gates_of(circ))

    def test_z_block_is_inverse_transpose(self, rng):
        n = 4
        m = random_invertible(n, rng)
        op = circuit_to_clifford(cnot_circuit(m, all_to_all(n)))
        prod = (op.s[n:, n:].astype(int) @ m.T.astype(int)) % 2
        assert np.array_equal(prod, np.eye(n, dtype=int))

    def test_identity_matrix_gives_empty_circuit(self):
        circ = cnot_circuit(np.eye(3, dtype=np.uint8), all_to_all(3))
        assert circ.depth == 0

    def test_singular_matrix_rejected(self):
        m = np.array([[1, 1], [1, 1]], dtype=np.uint8)
        with pytest.raises(ValueError, match="singular"):
            cnot_circuit(m, all_to_all(2))

    def test_ring_action_and_legality(self, rng):
        for n in (3, 5):
            dev = ring(n)
            for _ in range(4):
                m = random_invertible(n, rng)
                circ = cnot_circuit(m, dev)
                assert_device_legal(circ, dev)
                op = circuit_to_clifford(circ)
                assert np.array_equal(op.s[:n, :n], m)

    def test_deterministic(self, rng):
        n = 5
        m = random_invertible(n, rng)
        dev = ring(n)
        assert cnot_circuit(m, dev) == cnot_circuit(m, dev)

    def test_long_range_steps_count(self):
        path = [0, 1, 2, 3, 4]
        assert len(_long_range_cnot_steps(path)) == 4 * 4 - 4

    def test_long_range_realization_matches_cnot(self):
        # a line with only forward edges, so every step is declared
        for k in range(1, 5):
            n = k + 1
            dev = DeviceSpec(n, tuple((i, i + 1) for i in range(k)))
            gates = _expand_ops([("CNOT", (0, k))], range(n), dev)
            circ = Circuit(n, tuple((g,) for g in gates))
            assert circuit_to_clifford(circ) == layer_to_clifford((GateLabel("CNOT", (0, k)),), n)

    def test_reversed_edge_realization(self):
        dev = DeviceSpec(2, ((1, 0),))
        gates = _expand_ops([("CNOT", (0, 1))], range(2), dev)
        circ = Circuit(2, tuple((g,) for g in gates))
        assert circuit_to_clifford(circ) == layer_to_clifford((GateLabel("CNOT", (0, 1)),), 2)

    def test_options_validation(self):
        assert [f.name for f in dataclasses.fields(CompileOptions)] == ["trials"]
        with pytest.raises(ValueError):
            CompileOptions(trials=0)


class TestCliffordCompile:
    def test_round_trip_all_to_all(self, rng):
        for n in range(1, 6):
            for gate_set in ("C24", "HPI"):
                dev = all_to_all(n, gate_set)
                for _ in range(6):
                    target = sample_clifford_uniform(n, rng)
                    circ, stats = compile_clifford(target, dev)
                    assert circuit_to_clifford(circ) == target
                    assert_device_legal(circ, dev)
                    assert stats == circuit_stats(circ)

    def test_round_trip_ring(self, rng):
        for n in (3, 4, 5):
            dev = ring(n, "HPI")
            for _ in range(4):
                target = sample_clifford_uniform(n, rng)
                circ, _ = compile_clifford(target, dev)
                assert circuit_to_clifford(circ) == target
                assert_device_legal(circ, dev)

    def test_round_trip_ring_with_center(self, rng):
        dev = ring_with_center(4, "HPI")
        for _ in range(4):
            target = sample_clifford_uniform(5, rng)
            circ, _ = compile_clifford(target, dev)
            assert circuit_to_clifford(circ) == target
            assert_device_legal(circ, dev)

    def test_identity_compiles_to_nothing(self):
        circ, stats = compile_clifford(CliffordOp.identity(3), all_to_all(3))
        assert circ.depth == 0
        assert stats.cnots == 0 and stats.gates == 0

    def test_dense_oracle_two_qubits(self, rng):
        dev = all_to_all(2, "HPI")
        for _ in range(6):
            target = sample_clifford_uniform(2, rng)
            circ, _ = compile_clifford(target, dev)
            s, v = oracles.clifford_of_unitary(oracles.circuit_unitary(circ), 2)
            assert np.array_equal(s, target.s) and np.array_equal(v, target.v)

    def test_dense_oracle_one_qubit(self, rng):
        dev = all_to_all(1, "HPI")
        for _ in range(8):
            target = sample_clifford_uniform(1, rng)
            circ, _ = compile_clifford(target, dev)
            s, v = oracles.clifford_of_unitary(oracles.circuit_unitary(circ), 1)
            assert np.array_equal(s, target.s) and np.array_equal(v, target.v)

    def test_deterministic(self, rng):
        target = sample_clifford_uniform(4, rng)
        dev = ring(4, "HPI")
        c1, s1 = compile_clifford(target, dev)
        c2, s2 = compile_clifford(target, dev)
        assert c1 == c2 and s1 == s2

    def test_qubit_count_mismatch(self, rng):
        with pytest.raises(ValueError):
            compile_clifford(sample_clifford_uniform(2, rng), all_to_all(3))


def per_qubit_shape_ok(circ, n):
    """Each qubit's own gate sequence must look like 1Q*, CNOT*, 1Q*."""
    for q in range(n):
        kinds = "".join(
            "2" if g.name == "CNOT" else "1"
            for g in gates_of(circ)
            if q in g.qubits
        )
        head = kinds.rstrip("1")
        assert "1" not in head.lstrip("1"), f"qubit {q}: {kinds}"


class TestStabilizerCompile:
    def test_meas_maps_to_reported_basis_state(self, rng):
        for n in range(1, 6):
            dev = all_to_all(n, "HPI")
            for _ in range(5):
                state = sample_stabilizer_state_uniform(n, rng)
                circ, bits, stats = compile_stabilizer_meas(state, dev)
                out = state.apply_circuit(circ)
                assert np.array_equal(out.to_basis_bits(), bits)
                assert_device_legal(circ, dev)
                assert stats == circuit_stats(circ)

    def test_prep_prepares_state(self, rng):
        for n in range(1, 6):
            dev = all_to_all(n, "HPI")
            for _ in range(5):
                state = sample_stabilizer_state_uniform(n, rng)
                circ, _ = compile_stabilizer_prep(state, dev)
                assert StabilizerState.zero_state(n).apply_circuit(circ) == state
                assert_device_legal(circ, dev)

    def test_ring_round_trips(self, rng):
        for n in (3, 5):
            for maker in (ring,):
                dev = maker(n, "HPI")
                for _ in range(4):
                    state = sample_stabilizer_state_uniform(n, rng)
                    pcirc, _ = compile_stabilizer_prep(state, dev)
                    mcirc, bits, _ = compile_stabilizer_meas(state, dev)
                    assert StabilizerState.zero_state(n).apply_circuit(pcirc) == state
                    out = state.apply_circuit(mcirc)
                    assert np.array_equal(out.to_basis_bits(), bits)
                    assert_device_legal(pcirc, dev)
                    assert_device_legal(mcirc, dev)

    def test_c24_gate_set(self, rng):
        dev = all_to_all(3, "C24")
        state = sample_stabilizer_state_uniform(3, rng)
        circ, _ = compile_stabilizer_prep(state, dev)
        assert StabilizerState.zero_state(3).apply_circuit(circ) == state
        assert_device_legal(circ, dev)

    def test_sandwich_structure_all_to_all(self, rng):
        dev = all_to_all(4, "HPI")
        for _ in range(6):
            state = sample_stabilizer_state_uniform(4, rng)
            pcirc, _ = compile_stabilizer_prep(state, dev)
            mcirc, _, _ = compile_stabilizer_meas(state, dev)
            per_qubit_shape_ok(pcirc, 4)
            per_qubit_shape_ok(mcirc, 4)

    def test_dense_oracle_prep(self, rng):
        dev = all_to_all(2, "HPI")
        for _ in range(6):
            state = sample_stabilizer_state_uniform(2, rng)
            circ, _ = compile_stabilizer_prep(state, dev)
            vec = oracles.circuit_unitary(circ)[:, 0]
            proj = oracles.stabilizer_projector(state)
            assert np.allclose(proj @ vec, vec)

    def test_dense_oracle_meas(self, rng):
        dev = all_to_all(2, "HPI")
        for _ in range(6):
            state = sample_stabilizer_state_uniform(2, rng)
            circ, bits, _ = compile_stabilizer_meas(state, dev)
            u = oracles.circuit_unitary(circ)
            proj = oracles.stabilizer_projector(state)
            idx = int(bits[0]) * 2 + int(bits[1])
            target = np.zeros((4, 4), dtype=complex)
            target[idx, idx] = 1.0
            assert np.allclose(u @ proj @ u.conj().T, target)

    def test_zero_state_round_trip(self):
        dev = all_to_all(3, "HPI")
        state = StabilizerState.zero_state(3)
        circ, bits, _ = compile_stabilizer_meas(state, dev)
        out = state.apply_circuit(circ)
        assert np.array_equal(out.to_basis_bits(), bits)

    def test_deterministic(self, rng):
        state = sample_stabilizer_state_uniform(4, rng)
        dev = ring(4, "HPI")
        p1, s1 = compile_stabilizer_prep(state, dev)
        p2, s2 = compile_stabilizer_prep(state, dev)
        assert p1 == p2 and s1 == s2
        m1 = compile_stabilizer_meas(state, dev)
        m2 = compile_stabilizer_meas(state, dev)
        assert m1[0] == m2[0] and np.array_equal(m1[1], m2[1])

    def test_mismatch_rejected(self, rng):
        with pytest.raises(ValueError):
            compile_stabilizer_prep(sample_stabilizer_state_uniform(2, rng), all_to_all(3))


class TestZBlockFactor:
    """The elimination that picks the P flips of a stabilizer compile also
    factors the flipped symmetric Z block."""

    @settings(max_examples=200, deadline=None)
    @given(st.data())
    def test_unit_lower_factor_of_flipped_block(self, data):
        n = data.draw(st.integers(1, 16))
        upper = data.draw(st.lists(st.integers(0, 1), min_size=n * (n + 1) // 2,
                                   max_size=n * (n + 1) // 2))
        a = np.zeros((n, n), dtype=np.uint8)
        a[np.triu_indices(n)] = upper
        a |= a.T
        d, mt_rows = _flips_and_factor(_pack_rows(a))
        m = _unpack_rows(mt_rows, n).T
        assert np.array_equal(np.tril(m), m) and np.all(np.diag(m) == 1)
        flipped = a ^ np.diag(np.array(d, dtype=np.uint8))
        product = np.zeros((n, n), dtype=np.uint8)
        for i in range(n):
            for j in range(n):
                product[i, j] = sum(int(m[i, k]) & int(m[j, k]) for k in range(n)) % 2
        assert np.array_equal(product, flipped)
        # every leading minor is invertible, and the other value of d_k
        # would make the k-th singular: d is forced
        for k in range(1, n + 1):
            block = flipped[:k, :k].copy()
            assert gf2_rank(block) == k
            block[k - 1, k - 1] ^= 1
            assert gf2_rank(block) == k - 1

    @pytest.mark.parametrize("which", ["d", "mt"])
    def test_wrong_factor_fails_the_alignment_check(self, rng, monkeypatch, which):
        original = _flips_and_factor

        def one_bit_off(a):
            d, mt = original(a)
            # the first P flip (the Z block the CNOT stage starts from) or
            # entry (1, 0) of m, in the rows of m^T (the map the CNOT stage
            # realizes); either way m stays invertible, so the CNOT stage
            # runs and the alignment check after it must catch the error
            if which == "d":
                d = [d[0] ^ 1, *d[1:]]
            else:
                mt = [mt[0] ^ 2, *mt[1:]]
            return d, mt

        monkeypatch.setattr(compiling, "_flips_and_factor", one_bit_off)
        state = sample_stabilizer_state_uniform(3, rng)
        with pytest.raises(RuntimeError, match="did not align"):
            compile_stabilizer_meas(state, all_to_all(3, "HPI"))


class TestStats:
    def test_counts(self):
        layers = (
            (GateLabel("H", (0,)), GateLabel("H", (1,))),
            (GateLabel("CNOT", (0, 1)),),
        )
        stats = circuit_stats(Circuit(2, layers))
        assert stats == CompileStats(cnots=1, gates=3, depth=2)


@st.composite
def compile_setups(draw, max_n: int = 4):
    """A device (ring or all-to-all, C24 or HPI, 1 to max_n qubits), compile
    options, and a generator for the target."""
    n = draw(st.integers(1, max_n))
    maker = draw(st.sampled_from((ring, all_to_all)))
    device = maker(n, draw(st.sampled_from(("C24", "HPI"))))
    options = CompileOptions(trials=draw(st.integers(1, 4)))
    return device, options, np.random.default_rng(draw(st.integers(0, 2**32 - 1)))


def basis_index(bits) -> int:
    # oracles put qubit 0 on the most significant bit
    return int("".join(str(int(b)) for b in bits) or "0", 2)


class TestCompilerProperties:
    """Every compiler against the dense oracles, over random small devices,
    gate sets and trial counts."""

    @settings(max_examples=40, deadline=None)
    @given(compile_setups())
    def test_cnot_circuit_realizes_matrix(self, setup):
        device, options, rng = setup
        n = device.n
        m = random_invertible(n, rng)
        circ = cnot_circuit(m, device, options)
        u = oracles.circuit_unitary(circ)
        for x in range(2**n):
            bits = [(x >> (n - 1 - q)) & 1 for q in range(n)]
            assert np.isclose(abs(u[basis_index(m.astype(int) @ bits % 2), x]), 1.0)
        assert_device_legal(circ, device)

    @settings(max_examples=25, deadline=None)
    @given(compile_setups())
    def test_clifford_matches_dense_unitary(self, setup):
        device, options, rng = setup
        n = device.n
        target = sample_clifford_uniform(n, rng)
        circ, stats = compile_clifford(target, device, options)
        s, v = oracles.clifford_of_unitary(oracles.circuit_unitary(circ), n)
        assert CliffordOp(n, s, v) == target
        assert stats == circuit_stats(circ)
        assert 1 <= stats.trials <= options.trials
        assert_device_legal(circ, device)

    @settings(max_examples=30, deadline=None)
    @given(compile_setups())
    def test_stabilizer_prep_and_meas_match_dense_states(self, setup):
        device, options, rng = setup
        n = device.n
        state = sample_stabilizer_state_uniform(n, rng)
        proj = oracles.stabilizer_projector(state)
        prep, prep_stats = compile_stabilizer_prep(state, device, options)
        vec = oracles.circuit_unitary(prep)[:, 0]
        assert np.allclose(proj @ vec, vec)
        meas, bits, meas_stats = compile_stabilizer_meas(state, device, options)
        u = oracles.circuit_unitary(meas)
        target = np.zeros((2**n, 2**n), dtype=complex)
        target[basis_index(bits), basis_index(bits)] = 1.0
        assert np.allclose(u @ proj @ u.conj().T, target)
        # each distinct order runs at least one CNOT elimination
        for stats in (prep_stats, meas_stats):
            assert 2 <= stats.trials <= options.trials * (1 + options.trials)
        assert_device_legal(prep, device)
        assert_device_legal(meas, device)

    @settings(max_examples=200, deadline=None)
    @given(st.data())
    def test_sequence_cost_matches_packed_circuit(self, data):
        # the oracle the compilers' op-list costs are checked against: it
        # must agree with the packed circuit
        n = data.draw(st.integers(1, 5))
        one_qubit = st.builds(lambda name, q: GateLabel(name, (q,)),
                              st.sampled_from(("H", "P", "C3", "X")), st.integers(0, n - 1))
        gates = [one_qubit]
        if n > 1:
            gates.append(st.builds(lambda pair: GateLabel("CNOT", tuple(pair)),
                                   st.permutations(range(n)).map(lambda p: p[:2])))
        seq = data.draw(st.lists(st.one_of(gates), max_size=25))
        circ = _pack_layers(seq, n)
        assert oracles.sequence_cost(seq, n) == (circ.cnot_count, circ.depth, circ.num_gates)


# ---------------------------------------------------------------------------
# The searches cost candidates from their op lists; these references build
# every candidate's gates, merge them where the search does and cost them
# with the oracle.


def reference_orders(eccs, trials, digest):
    """Every distinct order of the eccentricity order and all trials - 1
    draws, without stopping once every order is in hand."""
    n = len(eccs)
    orders = [tuple(sorted(range(n), key=lambda q: (-eccs[q], q)))]
    rng = stream(0, "compile-orders", digest)
    for _ in range(trials - 1):
        order = tuple(int(q) for q in rng.permutation(n))
        if order not in orders:
            orders.append(order)
    return orders


def reference_cnot_sequence(rows, device, eccs, options):
    n = device.n
    digest = compiling._digest(bytes(row >> j & 1 for row in rows for j in range(n)))
    candidates = [(compiling._cnot_ge_ops(compiling._permuted(rows, order)), order)
                  for order in reference_orders(eccs, options.trials, digest)]
    ops, order = min(candidates, key=lambda c: oracles.sequence_cost(_expand_ops(*c, device), n))
    return ops, order, len(candidates)


def clifford_candidates(op, device, orders):
    n = device.n
    rows = _pack_rows(op.s)
    for order in orders:
        yield compiling._gge_ops(compiling._permuted(rows, [*order, *(n + q for q in order)]), n), order


def reference_clifford_sequence(op, device, options):
    n = device.n
    digest = compiling._digest(op.s.tobytes(), op.v.tobytes())
    orders = reference_orders(device.eccentricities(), options.trials, digest)
    seqs = [_expand_ops(ops, order, device) for ops, order in clifford_candidates(op, device, orders)]
    best = min(seqs, key=lambda seq: oracles.sequence_cost(_merge_one_qubit_runs(seq, device), n))
    return best, len(orders)


def meas_candidates(state, device, orders, options):
    """(cost, gates in relabeled labels, gates in physical labels, inner
    trials) of each outer stabilizer candidate."""
    n = device.n
    rows = _pack_rows(state.b)
    eccs = device.eccentricities()
    for order in orders:
        pos = [order.index(q) for q in range(n)]
        idx = [*order, *(n + q for q in order)]
        cost, steps, inner = compiling._meas_sequence(
            [compiling._gather_bits(r, idx) for r in rows], compiling._relabeled_device(device, pos),
            tuple(eccs[q] for q in order), options)
        seq = compiling._step_gates(steps)
        yield cost, seq, [GateLabel(g.name, tuple(order[q] for q in g.qubits)) for g in seq], inner


def reference_meas_sequence(state, device, options):
    n = device.n
    canon = state.canonicalize()
    digest = compiling._digest(canon.b.tobytes(), canon.r.tobytes())
    orders = reference_orders(device.eccentricities(), options.trials, digest)
    candidates = list(meas_candidates(state, device, orders, options))
    best = min((physical for _, _, physical, _ in candidates),
               key=lambda seq: oracles.sequence_cost(_merge_one_qubit_runs(seq, device), n))
    return best, len(orders) + sum(inner for *_, inner in candidates)


@st.composite
def search_setups(draw):
    """Devices with reverse edges and long-range pairs (rings, the ring
    with a hub), all-to-all ones, C24 or HPI (whose 1Q words run longer
    than one gate), trials 1 to 10, and a generator for the target."""
    gate_set = draw(st.sampled_from(("C24", "HPI")))
    device = draw(st.sampled_from([
        *(ring(n, gate_set) for n in (3, 4, 5)),
        *(all_to_all(n, gate_set) for n in (1, 2, 3, 4)),
        *(ring_with_center(k, gate_set) for k in (3, 4)),
    ]))
    options = CompileOptions(trials=draw(st.integers(1, 10)))
    return device, options, np.random.default_rng(draw(st.integers(0, 2**32 - 1)))


class TestSearchCosts:
    @settings(max_examples=40, deadline=None)
    @given(search_setups())
    def test_op_list_keys_match_built_sequences(self, setup):
        device, options, rng = setup
        n, gate_set = device.n, device.gate_set
        orders = compiling._elimination_orders(device.eccentricities(), options.trials,
                                               int(rng.integers(2**32)))
        # Clifford candidates, costed after their 1Q runs are merged
        for ops, order in clifford_candidates(sample_clifford_uniform(n, rng), device, orders):
            merged = _merge_one_qubit_runs(_expand_ops(ops, order, device), device)
            assert compiling._merged_cost(compiling._op_steps(ops, order, device), n, gate_set) == \
                oracles.sequence_cost(merged, n)
        # CNOT-search candidates, costed as emitted
        rows = _pack_rows(random_invertible(n, rng))
        for order in orders:
            ops = compiling._cnot_ge_ops(compiling._permuted(rows, order))
            assert compiling._unmerged_cost(compiling._op_steps(ops, order, device), n) == \
                oracles.sequence_cost(_expand_ops(ops, order, device), n)
        # outer stabilizer candidates, costed merged in relabeled labels
        state = sample_stabilizer_state_uniform(n, rng)
        for cost, relabeled, physical, _ in meas_candidates(state, device, orders, options):
            assert cost == oracles.sequence_cost(_merge_one_qubit_runs(relabeled, device), n) == \
                oracles.sequence_cost(_merge_one_qubit_runs(physical, device), n)

    @settings(max_examples=40, deadline=None)
    @given(search_setups())
    def test_compilers_match_build_every_candidate_search(self, setup):
        device, options, rng = setup
        op = sample_clifford_uniform(device.n, rng)
        state = sample_stabilizer_state_uniform(device.n, rng)

        def compile_all():
            return (compile_clifford(op, device, options), compile_stabilizer_meas(state, device, options),
                    compile_stabilizer_prep(state, device, options))

        got = compile_all()
        with pytest.MonkeyPatch.context() as mp:
            mp.setattr(compiling, "_cnot_sequence", reference_cnot_sequence)
            mp.setattr(compiling, "_best_clifford_sequence", reference_clifford_sequence)
            mp.setattr(compiling, "_best_meas_sequence", reference_meas_sequence)
            want = compile_all()
        (clifford, meas, prep), (ref_clifford, ref_meas, ref_prep) = got, want
        assert clifford == ref_clifford and prep == ref_prep
        assert meas[0] == ref_meas[0] and np.array_equal(meas[1], ref_meas[1]) and meas[2] == ref_meas[2]
        for stats, ref_stats in ((clifford[1], ref_clifford[1]), (meas[2], ref_meas[2]), (prep[1], ref_prep[1])):
            assert stats.trials == ref_stats.trials

    def test_orders_stop_once_every_order_is_drawn(self):
        # 3 qubits have 3! = 6 orders; with them in hand no draw is made,
        # so a huge trial count costs what the draws up to the sixth cost
        drawn = []

        class Counting:
            def __init__(self, rng):
                self.rng = rng

            def permutation(self, n):
                drawn.append(n)
                assert len(drawn) <= 10_000, "drawing did not stop"
                return self.rng.permutation(n)

        eccs = (1, 1, 1)
        with pytest.MonkeyPatch.context() as mp:
            mp.setattr(compiling, "stream", lambda *key: Counting(stream(*key)))
            full = compiling._elimination_orders(eccs, 10**9, 7)
            assert full == tuple(reference_orders(eccs, 1000, 7))
            assert sorted(full) == sorted(itertools.permutations(range(3)))
            # the CNOT searches' memo draws once per input
            compiling._cnot_orders.cache_clear()
            draws = len(drawn)
            assert compiling._cnot_orders(eccs, 10**9, 7) == full and len(drawn) == 2 * draws
            assert compiling._cnot_orders(eccs, 10**9, 7) == full and len(drawn) == 2 * draws
            # one trial draws nothing and makes no stream
            mp.setattr(compiling, "stream", None)
            assert compiling._elimination_orders(eccs, 1, 7) == ((0, 1, 2),)
