"""Symplectic Pauli/Clifford algebra against the dense-unitary oracle."""

import itertools
import re

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import oracles
from drbench.clifford import (
    Circuit,
    CliffordOp,
    GateLabel,
    PauliOp,
    PauliRows,
    StabilizerState,
    _GATE_UPDATES,
    _ONE_QUBIT_CLIFFORDS,
    _product_phases,
    circuit_to_clifford,
    compose,
    invert,
    layer_to_clifford,
)
from drbench.compiling import _pack_layers


def random_circuit(n: int, depth: int, rng: np.random.Generator) -> Circuit:
    layers = []
    for _ in range(depth):
        order = list(rng.permutation(n))
        layer = []
        while order:
            q = order.pop()
            if len(order) >= 1 and rng.random() < 0.4:
                t = order.pop()
                layer.append(GateLabel("CNOT", (q, t)))
            else:
                layer.append(GateLabel(str(rng.choice(["H", "P", "I", "X"])), (q,)))
        layers.append(tuple(layer))
    return Circuit(n, tuple(layers))


def all_paulis(n: int):
    for bits in itertools.product((0, 1), repeat=2 * n):
        x = np.array(bits[:n], dtype=np.uint8)
        z = np.array(bits[n:], dtype=np.uint8)
        for phase in range(4):
            yield PauliOp(n, x, z, phase)


def one_gate(name: str, qubits: tuple[int, ...], n: int) -> CliffordOp:
    """The Clifford of one gate on n qubits, read off the row kernel."""
    return layer_to_clifford((GateLabel(name, qubits),), n)


def is_hermitian(p: PauliOp) -> bool:
    """i**phase X^x Z^z is Hermitian exactly when phase = x.z mod 2."""
    return p.phase % 2 == int(p.x @ p.z) % 2


def kernel_images(paulis: list[PauliOp], gates) -> list[PauliOp]:
    """The images of ``paulis`` under ``gates`` (a Circuit, or a gate
    sequence applied in order), carried through the row kernel."""
    rows = PauliRows.of(paulis)
    if isinstance(gates, Circuit):
        rows.apply_circuit(gates)
    else:
        rows.apply_layer(gates)
    return [rows.pauli(k) for k in range(len(paulis))]


class TestPauliOp:
    def test_label_roundtrip(self):
        for label in ["+XIZ", "-YZ", "+iXX", "+Y", "-iZ", "+III"]:
            assert repr(oracles.pauli(label)) == label
        dense = -1j * np.kron(oracles.Y, oracles.Z)
        assert np.allclose(oracles.pauli_op_matrix(oracles.pauli("-iYZ")), dense)

    def test_xz_is_minus_iy(self):
        xz = oracles.pauli("X") * oracles.pauli("Z")
        assert repr(xz) == "-iY"

    def test_products_match_dense(self, rng):
        paulis = list(all_paulis(2))
        for _ in range(200):
            a, b = rng.choice(len(paulis), size=2)
            pa, pb = paulis[a], paulis[b]
            dense = oracles.pauli_op_matrix(pa) @ oracles.pauli_op_matrix(pb)
            assert np.allclose(dense, oracles.pauli_op_matrix(pa * pb))

    def test_commutation(self):
        x = oracles.pauli("X")
        z = oracles.pauli("Z")
        y = oracles.pauli("Y")
        assert not x.commutes(z)
        assert not x.commutes(y)
        assert x.commutes(x)
        assert oracles.pauli("XX").commutes(oracles.pauli("ZZ"))

    def test_hermiticity(self):
        for p in all_paulis(2):
            m = oracles.pauli_op_matrix(p)
            assert is_hermitian(p) == np.allclose(m, m.conj().T)
        assert is_hermitian(oracles.pauli("Y"))
        assert is_hermitian(oracles.pauli("-XZ"))
        assert not is_hermitian(PauliOp(1, [1], [0], 1))  # iX

    def test_weight_and_identity(self):
        assert oracles.pauli("XIY").weight == 2
        assert PauliOp.identity(3).is_identity
        assert not PauliOp(1, [0], [0], 2).is_identity  # -I


class TestStandardGates:
    def test_hadamard_tableau(self):
        h = one_gate("H", (0,), 1)
        assert h.s.tolist() == [[0, 1], [1, 0]]
        assert h.v.tolist() == [0, 0]

    def test_phase_gate_squared_is_z(self):
        p = one_gate("P", (0,), 1)
        assert compose(p, p) == one_gate("Z", (0,), 1)

    def test_cnot_conjugations(self):
        paulis = [oracles.pauli(label) for label in ("XI", "IZ", "IX", "ZI")]
        images = [oracles.pauli(label) for label in ("XX", "ZZ", "IX", "ZI")]
        assert kernel_images(paulis, (GateLabel("CNOT", (0, 1)),)) == images

    @pytest.mark.parametrize("name", ["I", "X", "Y", "Z", "H", "P"])
    def test_one_qubit_gates_match_oracle(self, name):
        s, v = oracles.clifford_of_unitary(oracles.GATE_MATRICES[name], 1)
        op = one_gate(name, (0,), 1)
        assert np.array_equal(op.s, s)
        assert np.array_equal(op.v, v)

    @pytest.mark.parametrize("qubits", [(0, 1), (1, 0)])
    def test_cnot_matches_oracle(self, qubits):
        u = oracles.embed_unitary(oracles.CNOT, qubits, 2)
        s, v = oracles.clifford_of_unitary(u, 2)
        op = one_gate("CNOT", qubits, 2)
        assert np.array_equal(op.s, s)
        assert np.array_equal(op.v, v)

    def test_errors(self):
        for name, qubits, n in (("CNOT", (0, 0), 2), ("H", (3,), 2), ("FOO", (0,), 1),
                                ("C24", (0,), 1)):
            with pytest.raises(ValueError):
                layer_to_clifford((GateLabel(name, qubits),), n)


class TestOneQubitTable:
    def test_complete_valid_and_sorted(self):
        # each entry (a, b, c, d, vx, vz) is the (s, v) ((a, b), (c, d)), (vx, vz)
        table = _ONE_QUBIT_CLIFFORDS
        assert len(set(table)) == len(table) == 24
        for a, b, c, d, vx, vz in table:
            CliffordOp(1, ((a, b), (c, d)), (vx, vz))  # validates
        assert list(table) == sorted(table)

    def test_identity_is_c8(self):
        assert one_gate("C8", (0,), 1) == CliffordOp.identity(1)

    def test_labels_match_oracle_unitaries(self):
        for k, u in enumerate(oracles.one_qubit_clifford_unitaries()):
            s, v = oracles.clifford_of_unitary(u, 1)
            op = one_gate(f"C{k}", (0,), 1)
            assert np.array_equal(op.s, s) and np.array_equal(op.v, v)


class TestConjugation:
    def test_exhaustive_one_qubit(self):
        paulis = list(all_paulis(1))
        for k, u in enumerate(oracles.one_qubit_clifford_unitaries()):
            for p, img in zip(paulis, kernel_images(paulis, (GateLabel(f"C{k}", (0,)),))):
                dense = u @ oracles.pauli_op_matrix(p) @ u.conj().T
                assert np.allclose(oracles.pauli_op_matrix(img), dense)

    def test_random_two_qubit_circuits(self, rng):
        paulis = list(all_paulis(2))
        for _ in range(20):
            circ = random_circuit(2, int(rng.integers(1, 6)), rng)
            u = oracles.circuit_unitary(circ)
            for p, img in zip(paulis, kernel_images(paulis, circ)):
                dense = u @ oracles.pauli_op_matrix(p) @ u.conj().T
                assert np.allclose(oracles.pauli_op_matrix(img), dense)

    def test_preserves_hermiticity_and_commutation(self, rng):
        circ = random_circuit(3, 8, rng)
        paulis = [oracles.pauli(lbl) for lbl in ["XII", "IYI", "ZZI", "IIZ", "YXZ"]]
        images = kernel_images(paulis, circ)
        assert all(is_hermitian(img) for img in images)
        for i in range(len(paulis)):
            for j in range(len(paulis)):
                assert paulis[i].commutes(paulis[j]) == images[i].commutes(images[j])


class TestComposeInvert:
    def test_inverse_law(self, rng):
        for n in (1, 2, 3, 4):
            for _ in range(5):
                op = circuit_to_clifford(random_circuit(n, 6, rng))
                assert compose(invert(op), op).is_identity
                assert compose(op, invert(op)).is_identity

    def test_compose_matches_oracle(self, rng):
        for _ in range(10):
            ca = random_circuit(2, 3, rng)
            cb = random_circuit(2, 3, rng)
            net = compose(circuit_to_clifford(cb), circuit_to_clifford(ca))
            s, v = oracles.clifford_of_unitary(
                oracles.circuit_unitary(cb) @ oracles.circuit_unitary(ca), 2
            )
            assert np.array_equal(net.s, s) and np.array_equal(net.v, v)

    def test_compose_matches_the_kernel_on_the_joined_circuit(self, rng):
        for _ in range(10):
            ca, cb = random_circuit(3, 5, rng), random_circuit(3, 5, rng)
            net = compose(circuit_to_clifford(ca), circuit_to_clifford(cb))
            assert net == circuit_to_clifford(cb.concat(ca))


def _embed_pauli(letter: str, q: int, n: int) -> PauliOp:
    label = "".join(letter if i == q else "I" for i in range(n))
    return oracles.pauli(label)


class TestValidity:
    def test_parity_rule_counts(self):
        # For fixed s, exactly 2 of 4 values are valid per v coordinate,
        # so 4 of 16 full vectors at n=1.
        s = one_gate("P", (0,), 1).s
        valid = 0
        for v0 in range(4):
            for v1 in range(4):
                try:
                    CliffordOp(1, s, np.array([v0, v1]))
                    valid += 1
                except ValueError:
                    pass
        assert valid == 4

    def test_invalid_inputs(self):
        with pytest.raises(ValueError):
            CliffordOp(1, np.zeros((2, 2), dtype=np.uint8), np.zeros(2))  # not symplectic
        with pytest.raises(ValueError):
            CliffordOp(1, np.eye(2, dtype=np.uint8), np.array([1, 0]))  # parity


class TestCircuit:
    def test_layer_overlap_rejected(self):
        with pytest.raises(ValueError):
            Circuit(2, ((GateLabel("H", (0,)), GateLabel("CNOT", (0, 1))),))

    def test_out_of_range_rejected(self):
        with pytest.raises(ValueError):
            Circuit(2, ((GateLabel("H", (2,)),),))

    def test_counts(self):
        circ = Circuit(
            3,
            (
                (GateLabel("H", (0,)), GateLabel("CNOT", (1, 2))),
                (GateLabel("P", (1,)),),
            ),
        )
        assert circ.depth == 2
        assert circ.num_gates == 3
        assert circ.cnot_count == 1

    def test_layer_to_clifford_matches_composition(self, rng):
        layer = (GateLabel("H", (0,)), GateLabel("CNOT", (2, 1)))
        combined = layer_to_clifford(layer, 3)
        expected = compose(one_gate("CNOT", (2, 1), 3), one_gate("H", (0,), 3))
        assert combined == expected

    def test_bell_circuit_matches_oracle(self):
        circ = Circuit(2, ((GateLabel("H", (0,)),), (GateLabel("CNOT", (0, 1)),)))
        op = circuit_to_clifford(circ)
        s, v = oracles.clifford_of_unitary(oracles.circuit_unitary(circ), 2)
        assert np.array_equal(op.s, s) and np.array_equal(op.v, v)


class TestStabilizerState:
    def test_zero_state_eigenstates(self):
        state = StabilizerState.zero_state(3)
        assert oracles.is_eigenstate(state, _embed_pauli("Z", 0, 3))
        assert not oracles.is_eigenstate(state, _embed_pauli("X", 0, 3))
        minus_z = PauliOp(3, np.zeros(3), np.eye(3, dtype=np.uint8)[0], 2)
        assert oracles.is_eigenstate(state, minus_z)
        assert oracles.is_eigenstate(state, oracles.pauli("ZZI"))

    def test_plus_state(self):
        state = StabilizerState.zero_state(1).apply_circuit(Circuit(1, ((GateLabel("H", (0,)),),)))
        assert oracles.is_eigenstate(state, oracles.pauli("X"))
        assert not oracles.is_eigenstate(state, oracles.pauli("Z"))

    def test_bell_state(self):
        circ = Circuit(2, ((GateLabel("H", (0,)),), (GateLabel("CNOT", (0, 1)),)))
        state = StabilizerState.zero_state(2).apply_circuit(circ)
        assert oracles.is_eigenstate(state, oracles.pauli("XX"))
        assert oracles.is_eigenstate(state, oracles.pauli("ZZ"))
        assert not oracles.is_eigenstate(state, oracles.pauli("ZI"))
        assert state.to_basis_bits() is None
        assert state == StabilizerState([oracles.pauli("-YY"), oracles.pauli("ZZ")])

    def test_basis_state_roundtrip(self):
        bits = [1, 0, 1, 1]
        state = StabilizerState.basis_state(bits)
        assert state.to_basis_bits().tolist() == bits

    def test_equality_across_generator_choices(self):
        a = StabilizerState([oracles.pauli("ZI"), oracles.pauli("IZ")])
        b = StabilizerState([oracles.pauli("ZZ"), oracles.pauli("IZ")])
        assert a == b
        c = StabilizerState([oracles.pauli("ZZ"), oracles.pauli("-IZ")])
        assert a != c

    def test_apply_matches_dense(self, rng):
        for _ in range(10):
            circ = random_circuit(2, 5, rng)
            state = StabilizerState.zero_state(2).apply_circuit(circ)
            rho = oracles.stabilizer_projector(state)
            psi = oracles.circuit_unitary(circ)[:, 0]
            assert np.allclose(rho @ psi, psi)
            assert np.isclose(np.trace(rho), 1.0)
            assert oracles.states_equal_dense(state, state.canonicalize())

    def test_circuit_of_another_width_rejected(self):
        state = StabilizerState.zero_state(3)
        for circ in (Circuit(2, ((GateLabel("H", (0,)),),)),
                     Circuit(4, ((GateLabel("CNOT", (0, 3)),),))):
            with pytest.raises(ValueError, match="qubit-count mismatch"):
                state.apply_circuit(circ)

    def test_validation(self):
        with pytest.raises(ValueError):
            StabilizerState([oracles.pauli("XI"), oracles.pauli("ZI")])
        with pytest.raises(ValueError):
            StabilizerState([oracles.pauli("ZI"), oracles.pauli("ZI")])
        with pytest.raises(ValueError):
            StabilizerState([PauliOp(1, [1], [0], 1)])  # iX not Hermitian


ONE_QUBIT_NAMES = ("I", "X", "Y", "Z", "H", "P") + tuple(f"C{k}" for k in range(24))


@st.composite
def random_circuits(draw, n: int | None = None, max_depth: int = 5) -> Circuit:
    """Circuits on n qubits (1 to 5 when not given): layers of CNOTs and
    any of the 30 1Q gates on disjoint qubits."""
    if n is None:
        n = draw(st.integers(1, 5))
    layers = []
    for _ in range(draw(st.integers(0, max_depth))):
        order = draw(st.permutations(range(n)))
        pairs = draw(st.integers(0, n // 2))
        layer = [GateLabel("CNOT", (order[2 * i], order[2 * i + 1])) for i in range(pairs)]
        layer += [GateLabel(draw(st.sampled_from(ONE_QUBIT_NAMES)), (q,))
                  for q in order[2 * pairs:]]
        layers.append(tuple(layer))
    return Circuit(n, tuple(layers))


@st.composite
def paulis(draw, n: int) -> PauliOp:
    bits = st.lists(st.integers(0, 1), min_size=n, max_size=n)
    return PauliOp(n, draw(bits), draw(bits), draw(st.integers(0, 3)))


@st.composite
def remixed(draw, generators) -> list[PauliOp]:
    """The same stabilizer group: generators multiplied into each other at
    random and then permuted."""
    gens = list(generators)
    n = len(gens)
    for _ in range(draw(st.integers(0, 2 * n))):
        i, j = draw(st.integers(0, n - 1)), draw(st.integers(0, n - 1))
        if i != j:
            gens[i] = gens[i] * gens[j]
    return [gens[k] for k in draw(st.permutations(range(n)))]


@st.composite
def stabilizer_states(draw) -> StabilizerState:
    """States on 1 to 5 qubits: a basis state carried through a random
    circuit (basis states stay when the depth is 0), built from re-mixed
    generators through the validating constructor."""
    circ = draw(random_circuits(max_depth=6))
    bits = draw(st.lists(st.integers(0, 1), min_size=circ.n, max_size=circ.n))
    state = StabilizerState.basis_state(bits).apply_circuit(circ)
    return StabilizerState(draw(remixed(state.generators)))


class TestStabilizerRows:
    """The row-stack state against the sequential PauliOp products of
    :func:`oracles.canonical_generators`."""

    @settings(max_examples=60, deadline=None)
    @given(stabilizer_states())
    def test_canonicalize_matches_sequential_products(self, state):
        canon = state.canonicalize()
        assert list(canon.generators) == oracles.canonical_generators(state.generators)
        assert oracles.states_equal_dense(state, canon)
        assert StabilizerState(state.generators) == state
        assert not state.b.flags.writeable and not state.r.flags.writeable

    @settings(max_examples=60, deadline=None)
    @given(stabilizer_states())
    def test_basis_bits_match_sequential_products(self, state):
        bits = state.to_basis_bits()
        want = oracles.basis_bits_of_generators(state.generators)
        assert (bits is None and want is None) or bits.tolist() == want

    @settings(max_examples=60, deadline=None)
    @given(st.data())
    def test_equality_and_hash_match_sequential_products(self, data):
        state = data.draw(stabilizer_states())
        flip = data.draw(st.integers(0, state.n - 1))
        same = data.draw(remixed(state.generators))
        # one generator's sign flipped: a different state
        other = [PauliOp(g.n, g.x, g.z, g.phase + 2 * (k == flip))
                 for k, g in enumerate(data.draw(remixed(state.generators)))]
        want = oracles.canonical_generators(state.generators)
        for gens, equal in ((same, True), (other, False)):
            assert (oracles.canonical_generators(gens) == want) == equal
            assert (StabilizerState(gens) == state) == equal
        assert hash(StabilizerState(same)) == hash(state)


@st.composite
def row_stacks(draw, n: int) -> list[PauliOp]:
    """Stacks of 1 to 130 rows, so the bit-sliced columns cross 64-bit
    word boundaries: each row is one of a few distinct Paulis with its
    phase shifted."""
    pool = draw(st.lists(paulis(n), min_size=1, max_size=6))
    count = draw(st.integers(1, 130))
    picks = draw(st.lists(st.tuples(st.sampled_from(pool), st.integers(0, 3)),
                          min_size=count, max_size=count))
    return [PauliOp(n, p.x, p.z, p.phase + shift) for p, shift in picks]


class TestGateLabel:
    """GateLabel is the one gate rule: a native name with its qubit count,
    on distinct qubits >= 0; only the range is left to the width's owner."""

    @settings(max_examples=300, deadline=None)
    @given(st.one_of(st.sampled_from(ONE_QUBIT_NAMES + ("CNOT", "C08", "C24", "cnot", "h", "T", "")),
                     st.text(max_size=4)),
           st.lists(st.integers(-2, 5), max_size=3))
    def test_accepts_exactly_the_native_gates(self, name, qubits):
        native = name in ONE_QUBIT_NAMES or name == "CNOT"
        valid = (native and len(qubits) == (2 if name == "CNOT" else 1)
                 and len(set(qubits)) == len(qubits) and min(qubits) >= 0)
        if not valid:
            with pytest.raises(ValueError):
                GateLabel(name, qubits)
            return
        label = GateLabel(name, qubits)
        assert label.qubits == tuple(qubits)
        # an accepted label conjugates rows as its dense unitary does
        n = max(qubits) + 1
        if n <= 4:
            dense = CliffordOp(n, *oracles.clifford_of_unitary(oracles.gate_unitary(name, qubits, n), n))
            rows = PauliRows.identity(n)
            rows.apply_layer((label,))
            assert rows.clifford() == dense

    @pytest.mark.parametrize("name,qubits", [("H", (2,)), ("C17", (5,)), ("CNOT", (0, 2)),
                                             ("CNOT", (2, 1))])
    def test_qubit_beyond_n_is_out_of_range(self, name, qubits):
        # H on qubit 2 of 2 ended in a bare IndexError from the kernel
        label = GateLabel(name, qubits)
        with pytest.raises(ValueError, match=re.escape(f"qubit out of range in {name} {qubits} for n=2")):
            PauliRows.identity(2).apply_layer((label,))
        with pytest.raises(ValueError, match="out of range"):
            layer_to_clifford((label,), 2)
        with pytest.raises(ValueError, match="out of range"):
            Circuit(2, ((label,),))

    @pytest.mark.parametrize("name,qubits", [("H", (-1,)), ("CNOT", (0, -1)), ("CNOT", (-2, 1))])
    def test_negative_qubit_rejected_when_made(self, name, qubits):
        # the kernel applied H on qubit -1 to qubit n - 1 without an error
        text = f"{name} {','.join(map(str, qubits))}"
        with pytest.raises(ValueError, match=re.escape(f"negative qubit in {text}")):
            GateLabel(name, qubits)


class TestRowKernel:
    """The in-place row-stack kernel against dense conjugation."""

    @settings(max_examples=30, deadline=None)
    @given(st.data())
    def test_rows_match_dense_conjugation(self, data):
        circ = data.draw(random_circuits())
        rows_in = data.draw(row_stacks(circ.n))
        rows = PauliRows.of(rows_in)
        rows.apply_circuit(circ)
        u = oracles.circuit_unitary(circ)
        images = {}
        for p in set(rows_in):
            x, z, phase = oracles.decompose_pauli(u @ oracles.pauli_op_matrix(p) @ u.conj().T, circ.n)
            images[p] = PauliOp(circ.n, x, z, phase)
        assert [rows.pauli(k) for k in range(len(rows_in))] == [images[p] for p in rows_in]
        assert rows.b.tolist() == [images[p].vec.tolist() for p in rows_in]
        assert rows.r.tolist() == [images[p].phase for p in rows_in]

    def test_every_kernel_gate_matches_its_dense_unitary(self):
        assert tuple(_GATE_UPDATES) == ONE_QUBIT_NAMES + ("CNOT",)
        placements = [(name, (q,), n) for n in (1, 2, 3) for q in range(n) for name in ONE_QUBIT_NAMES]
        placements += [("CNOT", pair, n) for n in (2, 3) for pair in itertools.permutations(range(n), 2)]
        for name, qubits, n in placements:
            dense = CliffordOp(n, *oracles.clifford_of_unitary(oracles.gate_unitary(name, qubits, n), n))
            assert layer_to_clifford((GateLabel(name, qubits),), n) == dense, (name, qubits, n)

    @settings(max_examples=60, deadline=None)
    @given(st.data())
    def test_overlapping_gate_sequence_matches_its_packed_circuit(self, data):
        n = data.draw(st.integers(1, 5))
        one = st.builds(lambda name, q: GateLabel(name, (q,)),
                        st.sampled_from(ONE_QUBIT_NAMES), st.integers(0, n - 1))
        gates = [one]
        if n > 1:
            gates.append(st.permutations(range(n)).map(lambda order: GateLabel("CNOT", order[:2])))
        seq = data.draw(st.lists(st.one_of(gates), max_size=12))
        rows = PauliRows.identity(n)
        rows.apply_layer(seq)
        assert rows.clifford() == circuit_to_clifford(_pack_layers(seq, n))

    def test_rows_from_columns(self):
        b = np.array([[1, 0, 0, 1], [0, 1, 1, 1], [1, 1, 0, 0]], dtype=np.uint8)
        rows = PauliRows.from_columns(3, [0b101, 0b110], [0b010, 0b011])
        assert rows.b.tolist() == b.tolist() and rows.r.tolist() == [0, 0, 0]
        assert [rows.pauli(k) for k in range(3)] == [PauliRows(2, b, [0, 0, 0]).pauli(k) for k in range(3)]

    def test_identity_rows_give_the_layer_clifford(self):
        layer = (GateLabel("C5", (0,)), GateLabel("CNOT", (2, 1)))
        rows = PauliRows.identity(3)
        rows.apply_layer(layer)
        assert rows.clifford() == compose(one_gate("CNOT", (2, 1), 3), one_gate("C5", (0,), 3))

    def test_unknown_gates_raise_the_gate_error(self):
        rows = PauliRows.identity(2)
        with pytest.raises(ValueError, match="unknown gate name"):
            rows.apply_layer((GateLabel("T", (0,)),))
        with pytest.raises(ValueError, match="H takes exactly one qubit"):
            rows.apply_layer((GateLabel("H", (0, 1)),))

    @pytest.mark.parametrize("gates", [[("P", (0,)), ("H", (5,))],
                                       [("H", (1,)), ("CNOT", (1, 0)), ("C3", (0,)), ("CNOT", (0, 2))]])
    def test_raising_sequence_leaves_the_rows_unchanged(self, gates):
        # P 0 then H 5 left row 0 of identity(2) reading -iYI: P's image
        # stored in the columns, the phase planes not
        rows = PauliRows.identity(2)
        rows.apply_layer((GateLabel("H", (0,)), GateLabel("CNOT", (0, 1))))
        before = [rows.pauli(k) for k in range(rows.count)]
        with pytest.raises(ValueError, match="qubit out of range"):
            rows.apply_layer([GateLabel(name, qubits) for name, qubits in gates])
        assert [rows.pauli(k) for k in range(rows.count)] == before

    def test_circuit_of_another_width_rejected(self):
        for circ in (Circuit(2, ((GateLabel("H", (0,)),),)),
                     Circuit(4, ((GateLabel("CNOT", (0, 3)),),))):
            with pytest.raises(ValueError, match="qubit-count mismatch"):
                PauliRows.identity(3).apply_circuit(circ)

    def test_b_and_r_are_read_only(self):
        rows = PauliRows.of([oracles.pauli("XZ"), oracles.pauli("-YI")])
        with pytest.raises(ValueError, match="read-only"):
            rows.b[0, 0] = 1
        with pytest.raises(ValueError, match="read-only"):
            rows.r[:1] += 2
        assert rows.pauli(0) == oracles.pauli("XZ")


class TestBatchedAlgebra:
    """The batched phase form, compose and invert against reference copies."""

    @settings(max_examples=40, deadline=None)
    @given(st.data())
    def test_phase_form_matches_support_loop(self, data):
        op = circuit_to_clifford(data.draw(random_circuits(max_depth=8)))
        n = op.n
        c = np.array(data.draw(st.lists(st.lists(st.integers(0, 1), min_size=2 * n, max_size=2 * n),
                                        min_size=1, max_size=6)))
        phases = _product_phases(op.s.T, op.v, c)
        assert phases.tolist() == [oracles.phase_of_loop(op.s, op.v, row) for row in c]

    @settings(max_examples=15, deadline=None)
    @given(st.data())
    def test_compose_and_invert_match_dense(self, data):
        n = data.draw(st.integers(1, 5))
        a, b = data.draw(random_circuits(n)), data.draw(random_circuits(n))
        ua, ub = oracles.circuit_unitary(a), oracles.circuit_unitary(b)
        ca, cb = circuit_to_clifford(a), circuit_to_clifford(b)
        s, v = oracles.clifford_of_unitary(ua @ ub, n)
        assert compose(ca, cb) == CliffordOp(n, s, v)
        s, v = oracles.clifford_of_unitary(ua.conj().T, n)
        assert invert(ca) == CliffordOp(n, s, v)
