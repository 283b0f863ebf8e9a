"""Symplectic Pauli/Clifford algebra against the dense-unitary oracle."""

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
    PauliOp,
    PauliRows,
    StabilizerState,
    apply_clifford,
    circuit_to_clifford,
    compose,
    conjugate_pauli,
    invert,
    is_eigenstate,
    layer_to_clifford,
    one_qubit_clifford_table,
    standard_gate,
)


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


class TestPauliOp:
    def test_label_roundtrip(self):
        for label in ["+XIZ", "-YZ", "+iXX", "+Y", "-iZ", "+III"]:
            assert repr(PauliOp.from_label(label)) == label

    def test_xz_is_minus_iy(self):
        xz = PauliOp.from_label("X") * PauliOp.from_label("Z")
        assert repr(xz) == "-iY"

    def test_products_match_dense(self, rng):
        paulis = list(all_paulis(2))
        for _ in range(200):
            a, b = rng.choice(len(paulis), size=2)
            pa, pb = paulis[a], paulis[b]
            dense = oracles.pauli_op_matrix(pa) @ oracles.pauli_op_matrix(pb)
            assert np.allclose(dense, oracles.pauli_op_matrix(pa * pb))

    def test_commutation(self):
        x = PauliOp.from_label("X")
        z = PauliOp.from_label("Z")
        y = PauliOp.from_label("Y")
        assert not x.commutes(z)
        assert not x.commutes(y)
        assert x.commutes(x)
        assert PauliOp.from_label("XX").commutes(PauliOp.from_label("ZZ"))

    def test_hermiticity(self):
        assert PauliOp.from_label("Y").is_hermitian
        assert PauliOp.from_label("-XZ").is_hermitian
        assert not PauliOp(1, [1], [0], 1).is_hermitian  # iX

    def test_weight_and_identity(self):
        assert PauliOp.from_label("XIY").weight == 2
        assert PauliOp.identity(3).is_identity
        assert not PauliOp(1, [0], [0], 2).is_identity  # -I


class TestStandardGates:
    def test_hadamard_tableau(self):
        h = standard_gate("H", (0,), 1)
        assert h.s.tolist() == [[0, 1], [1, 0]]
        assert h.v.tolist() == [0, 0]

    def test_phase_gate_squared_is_z(self):
        p = standard_gate("P", (0,), 1)
        assert compose(p, p) == standard_gate("Z", (0,), 1)

    def test_cnot_conjugations(self):
        cnot = standard_gate("CNOT", (0, 1), 2)
        assert conjugate_pauli(cnot, PauliOp.from_label("XI")) == PauliOp.from_label("XX")
        assert conjugate_pauli(cnot, PauliOp.from_label("IZ")) == PauliOp.from_label("ZZ")
        assert conjugate_pauli(cnot, PauliOp.from_label("IX")) == PauliOp.from_label("IX")
        assert conjugate_pauli(cnot, PauliOp.from_label("ZI")) == PauliOp.from_label("ZI")

    @pytest.mark.parametrize("name", ["I", "X", "Y", "Z", "H", "P"])
    def test_one_qubit_gates_match_oracle(self, name):
        s, v = oracles.clifford_of_unitary(oracles.GATE_MATRICES[name], 1)
        op = standard_gate(name, (0,), 1)
        assert np.array_equal(op.s, s)
        assert np.array_equal(op.v, v)

    @pytest.mark.parametrize("qubits", [(0, 1), (1, 0)])
    def test_cnot_matches_oracle(self, qubits):
        u = oracles.embed_unitary(oracles.CNOT, qubits, 2)
        s, v = oracles.clifford_of_unitary(u, 2)
        op = standard_gate("CNOT", qubits, 2)
        assert np.array_equal(op.s, s)
        assert np.array_equal(op.v, v)

    def test_errors(self):
        with pytest.raises(ValueError):
            standard_gate("CNOT", (0, 0), 2)
        with pytest.raises(ValueError):
            standard_gate("H", (3,), 2)
        with pytest.raises(ValueError):
            standard_gate("FOO", (0,), 1)
        with pytest.raises(ValueError):
            standard_gate("C24", (0,), 1)


class TestOneQubitTable:
    def test_complete_valid_and_sorted(self):
        table = one_qubit_clifford_table()
        assert len(table) == 24
        assert len(set(table)) == 24
        assert all(op.is_valid() for op in table)
        keys = [(tuple(op.s.ravel().tolist()), tuple(op.v.tolist())) for op in table]
        assert keys == sorted(keys)

    def test_identity_is_c8(self):
        assert standard_gate("C8", (0,), 1) == CliffordOp.identity(1)

    def test_labels_match_oracle_unitaries(self):
        for k, u in enumerate(oracles.one_qubit_clifford_unitaries()):
            s, v = oracles.clifford_of_unitary(u, 1)
            op = standard_gate(f"C{k}", (0,), 1)
            assert np.array_equal(op.s, s) and np.array_equal(op.v, v)


class TestConjugation:
    def test_exhaustive_one_qubit(self):
        for u in oracles.one_qubit_clifford_unitaries():
            s, v = oracles.clifford_of_unitary(u, 1)
            op = CliffordOp(1, s, v)
            for p in all_paulis(1):
                img = op.conjugate_pauli(p)
                dense = u @ oracles.pauli_op_matrix(p) @ u.conj().T
                assert np.allclose(oracles.pauli_op_matrix(img), dense)

    def test_random_two_qubit_circuits(self, rng):
        for _ in range(20):
            circ = random_circuit(2, int(rng.integers(1, 6)), rng)
            op = circuit_to_clifford(circ)
            u = oracles.circuit_unitary(circ)
            for p in all_paulis(2):
                img = op.conjugate_pauli(p)
                dense = u @ oracles.pauli_op_matrix(p) @ u.conj().T
                assert np.allclose(oracles.pauli_op_matrix(img), dense)

    def test_preserves_hermiticity_and_commutation(self, rng):
        circ = random_circuit(3, 8, rng)
        op = circuit_to_clifford(circ)
        paulis = [PauliOp.from_label(lbl) for lbl in ["XII", "IYI", "ZZI", "IIZ", "YXZ"]]
        images = [op.conjugate_pauli(p) for p in paulis]
        assert all(img.is_hermitian for img in images)
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

    def test_conjugation_is_homomorphism(self, rng):
        a = circuit_to_clifford(random_circuit(3, 5, rng))
        b = circuit_to_clifford(random_circuit(3, 5, rng))
        for p in [PauliOp.from_label(lbl) for lbl in ["XIZ", "-YYI", "IZX"]]:
            assert compose(a, b).conjugate_pauli(p) == a.conjugate_pauli(b.conjugate_pauli(p))

    def test_pauli_part(self):
        for lbl, q in [("X", 0), ("Y", 1), ("Z", 2)]:
            circ = Circuit(3, ((GateLabel(lbl, (q,)),),))
            op = circuit_to_clifford(circ)
            assert op.is_pauli
            part = op.pauli_part()
            expected = PauliOp.identity(3) * _embed_pauli(lbl, q, 3)
            assert np.array_equal(part.x, expected.x) and np.array_equal(part.z, expected.z)


def _embed_pauli(letter: str, q: int, n: int) -> PauliOp:
    label = "".join(letter if i == q else "I" for i in range(n))
    return PauliOp.from_label(label)


class TestValidity:
    def test_parity_rule_counts(self):
        # For fixed s, exactly 2 of 4 values are valid per v coordinate,
        # so 4 of 16 full vectors at n=1.
        s = standard_gate("P", (0,), 1).s
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
        expected = compose(standard_gate("CNOT", (2, 1), 3), standard_gate("H", (0,), 3))
        assert combined == expected

    def test_bell_circuit_matches_oracle(self):
        circ = Circuit(2, ((GateLabel("H", (0,)),), (GateLabel("CNOT", (0, 1)),)))
        op = circuit_to_clifford(circ)
        s, v = oracles.clifford_of_unitary(oracles.circuit_unitary(circ), 2)
        assert np.array_equal(op.s, s) and np.array_equal(op.v, v)


class TestStabilizerState:
    def test_zero_state_eigenstates(self):
        state = StabilizerState.zero_state(3)
        assert is_eigenstate(state, _embed_pauli("Z", 0, 3))
        assert not is_eigenstate(state, _embed_pauli("X", 0, 3))
        minus_z = PauliOp(3, np.zeros(3), np.eye(3, dtype=np.uint8)[0], 2)
        assert is_eigenstate(state, minus_z)
        assert is_eigenstate(state, PauliOp.from_label("ZZI"))

    def test_plus_state(self):
        state = apply_clifford(standard_gate("H", (0,), 1), StabilizerState.zero_state(1))
        assert is_eigenstate(state, PauliOp.from_label("X"))
        assert not is_eigenstate(state, PauliOp.from_label("Z"))

    def test_bell_state(self):
        circ = Circuit(2, ((GateLabel("H", (0,)),), (GateLabel("CNOT", (0, 1)),)))
        state = StabilizerState.zero_state(2).apply(circuit_to_clifford(circ))
        assert is_eigenstate(state, PauliOp.from_label("XX"))
        assert is_eigenstate(state, PauliOp.from_label("ZZ"))
        assert not is_eigenstate(state, PauliOp.from_label("ZI"))
        assert state.to_basis_bits() is None
        assert state == StabilizerState([PauliOp.from_label("-YY"), PauliOp.from_label("ZZ")])

    def test_basis_state_roundtrip(self):
        bits = [1, 0, 1, 1]
        state = StabilizerState.basis_state(bits)
        assert state.to_basis_bits().tolist() == bits

    def test_equality_across_generator_choices(self):
        a = StabilizerState([PauliOp.from_label("ZI"), PauliOp.from_label("IZ")])
        b = StabilizerState([PauliOp.from_label("ZZ"), PauliOp.from_label("IZ")])
        assert a == b
        c = StabilizerState([PauliOp.from_label("ZZ"), PauliOp.from_label("-IZ")])
        assert a != c

    def test_apply_matches_dense(self, rng):
        for _ in range(10):
            circ = random_circuit(2, 5, rng)
            state = StabilizerState.zero_state(2).apply(circuit_to_clifford(circ))
            rho = oracles.stabilizer_projector(state)
            psi = oracles.circuit_unitary(circ)[:, 0]
            assert np.allclose(rho @ psi, psi)
            assert np.isclose(np.trace(rho), 1.0)
            assert oracles.states_equal_dense(state, state.canonicalize())

    def test_validation(self):
        with pytest.raises(ValueError):
            StabilizerState([PauliOp.from_label("XI"), PauliOp.from_label("ZI")])
        with pytest.raises(ValueError):
            StabilizerState([PauliOp.from_label("ZI"), PauliOp.from_label("ZI")])
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

    @settings(max_examples=60, deadline=None)
    @given(st.data())
    def test_eigenstate_matches_row_space(self, data):
        state = data.draw(stabilizer_states())
        n = state.n
        bits = data.draw(st.lists(st.integers(0, 1), min_size=2 * n, max_size=2 * n))
        if data.draw(st.booleans()):  # a product of generators
            bits = np.array(bits[:n]) @ state.b.astype(np.int64) % 2
        p = PauliOp(n, bits[:n], bits[n:], data.draw(st.integers(0, 3)))
        in_row_space = oracles.span_rank(np.vstack([state.b, p.vec])) == n
        assert is_eigenstate(state, p) == in_row_space


class TestRowKernel:
    """The in-place row-stack kernel against dense conjugation."""

    @settings(max_examples=30, deadline=None)
    @given(st.data())
    def test_rows_match_dense_conjugation(self, data):
        circ = data.draw(random_circuits())
        rows_in = data.draw(st.lists(paulis(circ.n), min_size=1, max_size=2))
        rows = PauliRows.of(rows_in)
        rows.apply_circuit(circ)
        u = oracles.circuit_unitary(circ)
        for k, p in enumerate(rows_in):
            x, z, phase = oracles.decompose_pauli(u @ oracles.pauli_op_matrix(p) @ u.conj().T, circ.n)
            assert rows.pauli(k) == PauliOp(circ.n, x, z, phase)

    def test_identity_rows_give_the_layer_clifford(self):
        layer = (GateLabel("C5", (0,)), GateLabel("CNOT", (2, 1)))
        rows = PauliRows.identity(3)
        rows.apply_layer(layer)
        assert rows.clifford() == compose(standard_gate("CNOT", (2, 1), 3), standard_gate("C5", (0,), 3))

    def test_unknown_gates_raise_the_gate_error(self):
        rows = PauliRows.identity(2)
        with pytest.raises(ValueError, match="unknown gate name"):
            rows.apply_layer((GateLabel("T", (0,)),))
        with pytest.raises(ValueError, match="H takes exactly one qubit"):
            rows.apply_layer((GateLabel("H", (0, 1)),))

    def test_multiply_row_matches_pauli_product(self):
        a, b = PauliOp.from_label("XZY"), PauliOp.from_label("-iYYZ")
        rows = PauliRows.of([b])
        rows.multiply_row(0, a)
        assert rows.pauli(0) == a * b


class TestBatchedAlgebra:
    """The batched phase form, compose and invert against reference copies."""

    @settings(max_examples=40, deadline=None)
    @given(st.data())
    def test_phase_form_matches_support_loop(self, data):
        op = circuit_to_clifford(data.draw(random_circuits(max_depth=8)))
        n = op.n
        c = np.array(data.draw(st.lists(st.lists(st.integers(0, 1), min_size=2 * n, max_size=2 * n),
                                        min_size=1, max_size=6)))
        assert op._phase_of(c).tolist() == [oracles.phase_of_loop(op.s, op.v, row) for row in c]

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
