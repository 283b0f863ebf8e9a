"""Compilation of linear-reversible maps, Cliffords and stabilizer prep or
measurement circuits onto a device's gate set and connectivity.

All compilers are deterministic: randomized elimination-order trials draw
from a stream keyed by the input itself, so the same input, device and
options always yield the same circuit.

Conventions.  A CNOT-only circuit realizes an invertible binary matrix m
acting on basis states as |x> -> |m x>.  Clifford compilation reduces the
target's symplectic matrix to the identity with row operations (each the
left action of an H, P or CNOT), emits the operations reversed, and fixes
the leftover sign data with one Pauli correction that is merged into the
neighboring 1Q gates.  Stabilizer prep and measurement circuits come out
in 1Q / CNOT-block / 1Q form; on devices whose gate set needs multi-gate
words for a general 1Q Clifford, each "1Q layer" may span a few layers.
"""

from __future__ import annotations

import functools
import zlib
from dataclasses import dataclass

import numpy as np

from .clifford import (
    Circuit,
    CliffordOp,
    GateLabel,
    PauliRows,
    StabilizerState,
    _conjugate_rows,
    _gf2_rref,
    circuit_to_clifford,
    compose,
    invert,
    one_qubit_clifford_table,
    standard_gate,
)
from .device import DeviceSpec
from .streams import stream

__all__ = [
    "CompileOptions",
    "CompileStats",
    "compile_cnot_circuit",
    "compile_clifford",
    "compile_stabilizer_prep",
    "compile_stabilizer_meas",
    "circuit_stats",
    "pauli_block",
    "fold_pauli_before_circuit",
]

COST_METRICS = ("cnots", "depth", "gates")


@dataclass(frozen=True)
class CompileOptions:
    """Knobs shared by all compilers.

    ``trials`` elimination orders are attempted (the first follows the
    eccentricity heuristic when enabled, the rest are random) and the
    cheapest circuit under ``cost`` wins.  ``seed`` only perturbs the
    random orders; it never affects correctness.
    """

    trials: int = 10
    respect_connectivity: bool = True
    use_heuristic: bool = True
    cost: str = "cnots"
    seed: int = 0

    def __post_init__(self):
        if self.trials < 1:
            raise ValueError("trials must be >= 1")
        if self.cost not in COST_METRICS:
            raise ValueError(f"cost must be one of {COST_METRICS}")


@dataclass(frozen=True)
class CompileStats:
    """Size measures of a compiled circuit; ``alpha`` is the value of the
    configured cost metric (the per-element depth measure used when
    rescaling group-benchmark error rates)."""

    cnots: int
    gates: int
    depth: int
    alpha: float


def circuit_stats(circ: Circuit, cost: str = "cnots") -> CompileStats:
    values = {"cnots": circ.cnot_count, "depth": circ.depth, "gates": circ.num_gates}
    return CompileStats(
        cnots=values["cnots"],
        gates=values["gates"],
        depth=values["depth"],
        alpha=float(values[cost]),
    )


def _cost_key(circ: Circuit, cost: str) -> tuple[int, int, int]:
    values = {"cnots": circ.cnot_count, "depth": circ.depth, "gates": circ.num_gates}
    order = {"cnots": ("cnots", "depth", "gates"), "depth": ("depth", "cnots", "gates"), "gates": ("gates", "depth", "cnots")}
    return tuple(values[k] for k in order[cost])


# ---------------------------------------------------------------------------
# GF(2) helpers


def _gf2_inv(m: np.ndarray) -> np.ndarray:
    """Inverse of a square matrix over GF(2); raises when singular."""
    r, t, pivots = _gf2_rref(m)
    # square with a pivot in every row means the RREF is the identity
    if r.shape != (len(pivots), len(pivots)):
        raise ValueError("matrix is singular over GF(2)")
    return t


def _gf2_solve(a: np.ndarray, b: np.ndarray) -> np.ndarray:
    """One solution x of a x = b over GF(2); raises when inconsistent."""
    _, t, pivots = _gf2_rref(a)
    tb = (t.astype(np.int64) @ (np.asarray(b, dtype=np.int64) % 2)) % 2
    if tb[len(pivots):].any():
        raise ValueError("inconsistent linear system over GF(2)")
    x = np.zeros(a.shape[1], dtype=np.uint8)
    x[pivots] = tb[: len(pivots)]
    return x


def _digest(*parts: bytes) -> int:
    acc = 0
    for part in parts:
        acc = zlib.crc32(part, acc)
    return acc


# ---------------------------------------------------------------------------
# CNOT-circuit compilation


def _long_range_cnot_steps(path: list[int]) -> list[tuple[int, int]]:
    """Nearest-neighbor CNOT sequence equal to CNOT(path[0] -> path[-1]).

    Uses 4(k-1) gates for a k-edge path, all directed forward along it.
    """
    k = len(path) - 1
    idx = (
        list(range(k))
        + list(range(k - 2, -1, -1))
        + list(range(1, k))
        + list(range(k - 2, 0, -1))
    )
    return [(path[i], path[i + 1]) for i in idx]


@functools.cache
def _cnot_realization(device: DeviceSpec, control: int, target: int) -> tuple[GateLabel, ...]:
    """Device gates implementing CNOT(control -> target) exactly.

    Declared edges are used directly; a declared reverse edge is wrapped
    in Hadamards; longer ranges expand along the shortest undirected path
    with per-step direction fixes.
    """
    if device.has_edge(control, target):
        return (GateLabel("CNOT", (control, target)),)
    if device.has_edge(target, control):
        return (
            GateLabel("H", (control,)),
            GateLabel("H", (target,)),
            GateLabel("CNOT", (target, control)),
            GateLabel("H", (control,)),
            GateLabel("H", (target,)),
        )
    path = device.shortest_path(control, target)
    gates: list[GateLabel] = []
    for a, b in _long_range_cnot_steps(path):
        gates.extend(_cnot_realization(device, a, b))
    return tuple(gates)


def _elimination_orders(n: int, device: DeviceSpec, options: CompileOptions, digest: int) -> list[list[int]]:
    first = device.eccentricity_order() if options.use_heuristic else list(range(n))
    orders = [first]
    rng = stream(options.seed, "compile-orders", digest)
    for _ in range(options.trials - 1):
        orders.append([int(q) for q in rng.permutation(n)])
    return orders


def _relabeled_device(device: DeviceSpec, pos: list[int]) -> DeviceSpec:
    return DeviceSpec(
        device.n,
        tuple((pos[a], pos[b]) for a, b in device.edges),
        device.gate_set,
        device.qubits,
    )


def _cnot_ge_ops(m: np.ndarray) -> list[tuple[int, int]]:
    """Row operations (as CNOT (control, target) pairs, in application
    order onto the matrix) reducing an invertible m to the identity."""
    w = m.copy()
    n = w.shape[0]
    ops: list[tuple[int, int]] = []

    def add_row(c: int, t: int):
        w[t] ^= w[c]
        ops.append((c, t))

    for k in range(n):
        if w[k, k] == 0:
            # a pivot below the diagonal always exists for invertible m;
            # rows above would re-pollute processed columns
            pivot = next((i for i in range(k + 1, n) if w[i, k]), None)
            if pivot is None:
                raise ValueError("matrix is singular over GF(2)")
            add_row(pivot, k)
        for i in range(n):
            if i != k and w[i, k]:
                add_row(k, i)
    return ops


def compile_cnot_circuit(matrix: np.ndarray, device: DeviceSpec, options: CompileOptions | None = None) -> Circuit:
    """A circuit of CNOTs realizing |x> -> |matrix @ x> on the device.

    On restricted connectivity, long-range CNOTs expand along shortest
    undirected paths (4 gates per extra edge) and wrong-way edges are
    Hadamard-wrapped, so the result can contain H gates on such devices.
    """
    options = options or CompileOptions()
    m = np.asarray(matrix, dtype=np.uint8) % 2
    n = device.n
    if m.shape != (n, n):
        raise ValueError(f"matrix must be {n} x {n} for this device")
    _gf2_inv(m)  # raises when singular
    orders = _elimination_orders(n, device, options, _digest(m.tobytes()))
    best = None
    best_key = None
    for order in orders:
        pos = [0] * n
        for k, q in enumerate(order):
            pos[q] = k
        m2 = m[np.ix_(order, order)]
        ops = _cnot_ge_ops(m2)
        # The matrix equals the product of the recorded operations applied
        # in reverse, so emit them reversed and in physical labels.
        seq: list[GateLabel] = []
        for c, t in reversed(ops):
            pc, pt = order[c], order[t]
            if options.respect_connectivity:
                seq.extend(_cnot_realization(device, pc, pt))
            else:
                seq.append(GateLabel("CNOT", (pc, pt)))
        circ = _pack_layers(seq, n)
        key = _cost_key(circ, options.cost)
        if best_key is None or key < best_key:
            best, best_key = circ, key
    return best


# ---------------------------------------------------------------------------
# 1Q-run merging and translation


@functools.cache
def _one_qubit_index() -> dict[str, int]:
    """Position in :func:`one_qubit_clifford_table` of every 1Q gate name."""
    table = one_qubit_clifford_table()
    index = {f"C{k}": k for k in range(len(table))}
    for name in ("I", "X", "Y", "Z", "H", "P"):
        index[name] = table.index(standard_gate(name, (0,), 1))
    return index


@functools.cache
def _one_qubit_products() -> tuple[tuple[int, ...], ...]:
    """``product[a][b]``: position of C<a> after C<b>."""
    table = one_qubit_clifford_table()
    position = {(op.s.tobytes(), op.v.tobytes()): k for k, op in enumerate(table)}
    # the columns of every C<b>, two rows each, carried through each C<a>
    columns = np.concatenate([op.s.T for op in table])
    phases = np.concatenate([op.v for op in table])
    product = []
    for a in range(len(table)):
        rows = PauliRows(1, columns, phases)
        rows.apply_layer((GateLabel(f"C{a}", (0,)),))
        product.append(tuple(
            position[rows.b[2 * b:2 * b + 2].T.tobytes(), (rows.r[2 * b:2 * b + 2] % 4).tobytes()]
            for b in range(len(table))
        ))
    return tuple(product)


@functools.cache
def _word_table(gate_set: str) -> tuple[tuple[str, ...], ...]:
    """``words[k]``: gate names from the gate set whose product is C<k>."""
    if gate_set == "C24":
        return tuple((f"C{k}",) for k in range(len(one_qubit_clifford_table())))
    if gate_set == "HPI":
        index = _one_qubit_index()
        product = _one_qubit_products()
        words: dict[int, tuple[str, ...]] = {index["I"]: ()}
        frontier = [index["I"]]
        while frontier:
            nxt = []
            for k in frontier:
                for name in ("H", "P"):
                    new = product[index[name]][k]
                    if new not in words:
                        words[new] = words[k] + (name,)
                        nxt.append(new)
            frontier = nxt
        return tuple(words[k] for k in range(len(product)))
    raise ValueError(f"unknown gate set {gate_set!r}")


def _merge_one_qubit_runs(seq: list[GateLabel], device: DeviceSpec) -> list[GateLabel]:
    """Fuse maximal runs of 1Q gates per qubit and re-emit them as words
    from the device's gate set; identity runs vanish."""
    words = _word_table(device.gate_set)
    index = _one_qubit_index()
    product = _one_qubit_products()
    identity = index["I"]
    pending: dict[int, int] = {}
    out: list[GateLabel] = []

    def flush(q: int):
        k = pending.pop(q, identity)
        if k != identity:
            out.extend(GateLabel(name, (q,)) for name in words[k])

    for gate in seq:
        if len(gate.qubits) == 2:
            for q in gate.qubits:
                flush(q)
            out.append(gate)
        else:
            q = gate.qubits[0]
            pending[q] = product[index[gate.name]][pending.get(q, identity)]
    for q in sorted(pending):
        flush(q)
    return out


def _pack_layers(seq: list[GateLabel], n: int) -> Circuit:
    """Greedy earliest-layer packing; per-qubit gate order is preserved."""
    last = [-1] * n
    layers: list[list[GateLabel]] = []
    for gate in seq:
        pos = 1 + max(last[q] for q in gate.qubits)
        if pos == len(layers):
            layers.append([])
        layers[pos].append(gate)
        for q in gate.qubits:
            last[q] = pos
    return Circuit(n, tuple(tuple(sorted(layer, key=lambda g: min(g.qubits))) for layer in layers))


def _pauli_gates(x: np.ndarray, z: np.ndarray) -> list[GateLabel]:
    gates = []
    for q in range(len(x)):
        if x[q] and z[q]:
            gates.append(GateLabel("Y", (q,)))
        elif x[q]:
            gates.append(GateLabel("X", (q,)))
        elif z[q]:
            gates.append(GateLabel("Z", (q,)))
    return gates


def pauli_block(x: np.ndarray, z: np.ndarray, device: DeviceSpec) -> Circuit:
    """The Pauli X^x Z^z as a block of gates from the device's gate set."""
    seq = _merge_one_qubit_runs(_pauli_gates(x, z), device)
    return _pack_layers(seq, device.n)


def fold_pauli_before_circuit(circ: Circuit, x: np.ndarray, z: np.ndarray, device: DeviceSpec) -> Circuit:
    """The circuit preceded by the Pauli X^x Z^z, with the Pauli absorbed
    into each qubit's leading 1Q word instead of adding a layer."""
    seq = _pauli_gates(x, z) + [g for layer in circ.layers for g in layer]
    return _pack_layers(_merge_one_qubit_runs(seq, device), device.n)


# ---------------------------------------------------------------------------
# Clifford compilation


def _gge_ops(s: np.ndarray, n: int) -> list[tuple[str, tuple[int, ...]]]:
    """Gate row-operations reducing the symplectic matrix s to the identity.

    Rows j and n+j of the working matrix are qubit j's X and Z rows.  The
    left action of a gate is: H(q) swaps rows q and n+q; P(q) adds row q
    to row n+q; CNOT(c, t) adds row c to row t and row n+t to row n+c.
    Columns j and n+j of a processed qubit are unit vectors and stay so:
    later operations only mix rows of unprocessed qubits, where processed
    columns are zero by symplectic orthogonality.
    """
    a = s.copy()
    ops: list[tuple[str, tuple[int, ...]]] = []

    def h(q: int):
        a[[q, n + q]] = a[[n + q, q]]
        ops.append(("H", (q,)))

    def p(q: int):
        a[n + q] ^= a[q]
        ops.append(("P", (q,)))

    def cnot(c: int, t: int):
        a[t] ^= a[c]
        a[n + c] ^= a[n + t]
        ops.append(("CNOT", (c, t)))

    for j in range(n):
        # put a 1 at (j, j)
        if a[j, j] == 0:
            xi = next((i for i in range(j + 1, n) if a[i, j]), None)
            if xi is not None:
                cnot(xi, j)
            elif a[n + j, j]:
                h(j)
            else:
                zi = next(i for i in range(j + 1, n) if a[n + i, j])
                h(zi)
                cnot(zi, j)
        # clear the rest of column j's X part
        for i in range(j + 1, n):
            if a[i, j]:
                cnot(j, i)
        # clear column j's Z part
        if a[n + j, j]:
            p(j)
        spread = [i for i in range(j + 1, n) if a[n + i, j]]
        if spread:
            h(j)
            for i in spread:
                cnot(i, j)
            h(j)
        # column n+j: clear its Z part off the diagonal
        for i in range(j + 1, n):
            if a[n + i, n + j]:
                cnot(i, j)
        # clear its X part
        if a[j, n + j]:
            h(j)
            p(j)
            h(j)
        tail = [i for i in range(j + 1, n) if a[i, n + j]]
        if tail:
            h(j)
            for i in tail:
                cnot(j, i)
            h(j)
    if not np.array_equal(a, np.eye(2 * n, dtype=np.uint8)):
        raise RuntimeError("symplectic reduction failed to reach the identity")
    return ops


def _expand_ops(
    ops: list[tuple[str, tuple[int, ...]]],
    order: list[int],
    device: DeviceSpec,
    options: CompileOptions,
) -> list[GateLabel]:
    """Map reduction ops (in relabeled space) back to physical gates,
    reversing them so the circuit composes to the reduced target."""
    seq: list[GateLabel] = []
    for name, qubits in reversed(ops):
        physical = tuple(order[q] for q in qubits)
        if name == "CNOT" and options.respect_connectivity:
            seq.extend(_cnot_realization(device, *physical))
        else:
            seq.append(GateLabel(name, physical))
    return seq


def compile_clifford(
    op: CliffordOp, device: DeviceSpec, options: CompileOptions | None = None
) -> tuple[Circuit, CompileStats]:
    """A device circuit implementing ``op`` exactly (up to global phase)."""
    options = options or CompileOptions()
    n = device.n
    if op.n != n:
        raise ValueError("operator and device disagree on qubit count")
    digest = _digest(op.s.tobytes(), op.v.tobytes())
    best = None
    best_key = None
    for order in _elimination_orders(n, device, options, digest):
        idx = np.array([*order, *(n + q for q in order)], dtype=np.intp)
        s2 = op.s[np.ix_(idx, idx)]
        ops = _gge_ops(s2, n)
        seq = _expand_ops(ops, order, device, options)
        circ = _pack_layers(_merge_one_qubit_runs(seq, device), n)
        key = _cost_key(circ, options.cost)
        if best_key is None or key < best_key:
            best, best_key, best_seq = circ, key, seq
    # one Pauli correction fixes the phase vector
    realized = circuit_to_clifford(best)
    fix = compose(invert(realized), op)
    pauli = fix.pauli_part()
    seq = _pauli_gates(pauli.x, pauli.z) + best_seq
    circuit = _pack_layers(_merge_one_qubit_runs(seq, device), n)
    final = circuit_to_clifford(circuit)
    if final != op:
        raise RuntimeError("compiled circuit does not match the target Clifford")
    return circuit, circuit_stats(circuit, options.cost)


# ---------------------------------------------------------------------------
# Stabilizer prep and measurement


def _diagonal_for_invertibility(a: np.ndarray) -> np.ndarray:
    """d with a + diag(d) invertible, for symmetric a over GF(2).

    Chosen so every leading principal minor is invertible: with the
    leading j x j block L fixed and b the next column, the bordered
    determinant is d_j-adjustable via the Schur complement c + b' L^-1 b.
    This also forces the (0, 0) entry to 1, so the result is never
    alternating.
    """
    n = a.shape[0]
    d = np.zeros(n, dtype=np.uint8)
    for j in range(n):
        if j == 0:
            d[0] = (a[0, 0] + 1) % 2
            continue
        lead = (a[:j, :j] + np.diag(d[:j])) % 2
        b = a[:j, j]
        y = _gf2_solve(lead, b)
        schur = (int(a[j, j]) + int(b @ y)) % 2
        d[j] = (schur + 1) % 2
    return d


def _albert_factor(a: np.ndarray) -> np.ndarray:
    """Invertible m with m m^T = a, for invertible symmetric non-alternating a.

    Congruence-orthonormalization: find a basis that is orthonormal under
    the bilinear form a.  When only hyperbolic pairs remain, borrow an
    already-normalized vector u: for a pair (p, q), the triple
    (u+p+q, u+p, u+q) is orthonormal.
    """
    n = a.shape[0]
    basis = np.eye(n, dtype=np.uint8)

    def gram() -> np.ndarray:
        return (basis.astype(np.int64) @ a.astype(np.int64) @ basis.T.astype(np.int64) % 2).astype(np.uint8)

    processed: list[int] = []
    unprocessed = list(range(n))
    g = gram()
    while unprocessed:
        i = next((k for k in unprocessed if g[k, k] == 1), None)
        if i is not None:
            for j in unprocessed:
                if j != i and g[j, i]:
                    basis[j] ^= basis[i]
            unprocessed.remove(i)
            processed.append(i)
            g = gram()
            continue
        pair = next(
            (p, q) for pi, p in enumerate(unprocessed) for q in unprocessed[pi + 1 :] if g[p, q]
        )
        p, q = pair
        for j in unprocessed:
            if j in (p, q):
                continue
            if g[j, p]:
                basis[j] ^= basis[q]
            if g[j, q]:
                basis[j] ^= basis[p]
        g = gram()
        if not processed:
            raise ValueError("matrix is alternating; no factorization exists")
        u = processed[0]
        bu, bp, bq = basis[u].copy(), basis[p].copy(), basis[q].copy()
        basis[u] = bu ^ bp ^ bq
        basis[p] = bu ^ bp
        basis[q] = bu ^ bq
        unprocessed.remove(p)
        unprocessed.remove(q)
        processed.extend([p, q])
        g = gram()
    if not np.array_equal(g, np.eye(n, dtype=np.uint8)):
        raise RuntimeError("orthonormalization failed")
    m = _gf2_inv(basis)
    if not np.array_equal((m.astype(np.int64) @ m.T.astype(np.int64)) % 2, a):
        raise RuntimeError("factor check failed")
    return m


def _meas_sequence(b: np.ndarray, device: DeviceSpec, options: CompileOptions) -> list[GateLabel]:
    """Gates mapping the state whose generators have (x | z) rows ``b`` to
    a computational basis state, in the form [1Q block][CNOT block][1Q block].

    Gate choice reads only the bits, so the rows are tracked without
    phases; the caller replays the chosen gates with phases.
    """
    n = device.n
    b = b.copy()
    seq: list[GateLabel] = []

    def emit(layer: list[GateLabel] | tuple[GateLabel, ...]):
        _conjugate_rows(b, None, layer, n)
        seq.extend(layer)

    # H on qubits without an X-block pivot makes the X block invertible.
    pivots = set(_gf2_rref(b[:, :n])[2])
    emit([GateLabel("H", (q,)) for q in range(n) if q not in pivots])
    # Re-mix generators so the X block becomes the identity (no gates).
    b = _gf2_rref(b)[0]
    if not np.array_equal(b[:, :n], np.eye(n, dtype=np.uint8)):
        raise RuntimeError("X block did not reduce to the identity")
    # With X = I the Z block is symmetric; P gates make it invertible.
    flips = _diagonal_for_invertibility(b[:, n:])
    emit([GateLabel("P", (q,)) for q in range(n) if flips[q]])
    # Factor Z = M M^T and run a CNOT word with column action M on the X
    # block, taking both blocks to M.
    m = _albert_factor(b[:, n:])
    cnot_circ = compile_cnot_circuit(m.T, device, options)
    for layer in cnot_circ.layers:
        emit(layer)
    if not (np.array_equal(b[:, :n], m) and np.array_equal(b[:, n:], m)):
        raise RuntimeError("CNOT stage did not align the X and Z blocks")
    # P everywhere cancels the Z block; H everywhere moves X to Z.
    seq.extend(GateLabel("P", (q,)) for q in range(n))
    seq.extend(GateLabel("H", (q,)) for q in range(n))
    return seq


def _best_meas_sequence(
    state: StabilizerState, device: DeviceSpec, options: CompileOptions
) -> list[GateLabel]:
    n = device.n
    canon = state.canonicalize()
    digest = _digest(
        canon._matrix().tobytes(),
        np.array([g.phase for g in canon.generators]).tobytes(),
    )
    bits = state._matrix()
    best_seq = None
    best_key = None
    for order in _elimination_orders(n, device, options, digest):
        pos = [0] * n
        for k, q in enumerate(order):
            pos[q] = k
        idx = np.array([*order, *(n + q for q in order)], dtype=np.intp)
        dev2 = _relabeled_device(device, pos)
        seq2 = _meas_sequence(bits[:, idx], dev2, options)
        seq = [GateLabel(g.name, tuple(order[q] for q in g.qubits)) for g in seq2]
        circ = _pack_layers(_merge_one_qubit_runs(seq, device), n)
        key = _cost_key(circ, options.cost)
        if best_key is None or key < best_key:
            best_seq, best_key = seq, key
    if best_seq is None:
        raise RuntimeError("no measurement sequence found")
    return best_seq


def compile_stabilizer_meas(
    state: StabilizerState, device: DeviceSpec, options: CompileOptions | None = None
) -> tuple[Circuit, np.ndarray, CompileStats]:
    """A circuit rotating ``state`` into the computational basis.

    Returns (circuit, bits): applying the circuit to the state gives the
    basis state |bits>, so a computational measurement after it checks
    the stabilizer outcome.
    """
    options = options or CompileOptions()
    if state.n != device.n:
        raise ValueError("state and device disagree on qubit count")
    seq = _best_meas_sequence(state, device, options)
    circuit = _pack_layers(_merge_one_qubit_runs(seq, device), device.n)
    bits = state.apply_circuit(circuit).to_basis_bits()
    if bits is None:
        raise RuntimeError("measurement circuit did not produce a basis state")
    return circuit, bits, circuit_stats(circuit, options.cost)


def compile_stabilizer_prep(
    state: StabilizerState, device: DeviceSpec, options: CompileOptions | None = None
) -> tuple[Circuit, CompileStats]:
    """A circuit preparing ``state`` from |0...0>, signs included."""
    options = options or CompileOptions()
    n = device.n
    if state.n != n:
        raise ValueError("state and device disagree on qubit count")
    meas_seq = _best_meas_sequence(state, device, options)
    seq = [g for g in reversed(meas_seq)]
    # Reversing H/P/CNOT gates inverts the symplectic action; the sign
    # mismatch left over is a single Pauli, solved from the canonical forms.
    zero = StabilizerState.zero_state(n)
    got = zero.apply_circuit(_pack_layers(seq, n)).canonicalize()
    want = state.canonicalize()
    mat_got = got._matrix()
    mat_want = want._matrix()
    if not np.array_equal(mat_got, mat_want):
        raise RuntimeError("prep candidate stabilizes the wrong group")
    rhs = np.array(
        [((want.generators[i].phase - got.generators[i].phase) // 2) % 2 for i in range(n)],
        dtype=np.uint8,
    )
    rows = np.concatenate([mat_want[:, n:], mat_want[:, :n]], axis=1)
    q = _gf2_solve(rows, rhs)
    seq = seq + _pauli_gates(q[:n], q[n:])
    circuit = _pack_layers(_merge_one_qubit_runs(seq, device), n)
    if zero.apply_circuit(circuit) != state:
        raise RuntimeError("prep circuit does not prepare the target state")
    return circuit, circuit_stats(circuit, options.cost)
