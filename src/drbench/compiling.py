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

Trials.  Each compiler tries ``options.trials`` elimination orders and
keeps the cheapest candidate; a stabilizer compile also runs a CNOT
compile of its own inside every order.  A trial reads only GF(2) bits,
so it works on Python-int rows (bit j of a row is column j; row
operations are XORs and the CHP-style gate updates are shifts, in the
manner of Aaronson & Gottesman, quant-ph/0406196), and it never builds a
Circuit: its cost key (cnots, depth, gates) is read off its merged gate
sequence, with depth by the same greedy earliest-layer rule that
``_pack_layers`` uses, so the key equals that of the packed circuit.
Only the winner is packed and validated as a Circuit, and only the
winner is replayed with phases: the Clifford compiler derives its Pauli
sign fix from it and checks the result against the target; prep and
meas circuits are checked by carrying the state through them.  An order
that repeats an earlier one is drawn (so the stream does not change) but
not evaluated: it would rebuild the same candidate, and a tie never
replaces the incumbent, so skipping it cannot change any circuit.
"""

from __future__ import annotations

import dataclasses
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
    _gf2_eliminate,
    _gf2_rref,
    _pack_rows,
    circuit_to_clifford,
    compose,
    invert,
    one_qubit_clifford_table,
    standard_gate,
)
from .device import GATE_SETS, DeviceSpec
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

    ``trials`` elimination orders are attempted (the first is the device's
    eccentricity order, the rest are drawn at random from a stream keyed by
    the input) and the cheapest circuit under ``cost`` wins.  Every CNOT is
    realized on the device's declared edges.
    """

    trials: int = 10
    cost: str = "cnots"

    def __post_init__(self):
        # every message starts with the option's name
        if isinstance(self.trials, bool) or not isinstance(self.trials, (int, np.integer)):
            raise ValueError(f"trials must be an integer, got {self.trials!r}")
        if self.trials < 1:
            raise ValueError(f"trials must be >= 1, got {self.trials}")
        if self.cost not in COST_METRICS:
            raise ValueError(f"cost must be one of {COST_METRICS}, got {self.cost!r}")


@dataclass(frozen=True)
class CompileStats:
    """Size measures of a compiled circuit; ``alpha`` is the value of the
    configured cost metric (the per-element depth measure used when
    rescaling group-benchmark error rates).

    ``trials`` counts the candidates evaluated to find the circuit: the
    distinct elimination orders, plus for stabilizer circuits the CNOT
    eliminations each order ran.  It describes the search, not the
    circuit, so it takes no part in equality; :func:`circuit_stats`
    leaves it 0.
    """

    cnots: int
    gates: int
    depth: int
    alpha: float
    trials: int = dataclasses.field(default=0, compare=False)


def circuit_stats(circ: Circuit, cost: str = "cnots") -> CompileStats:
    values = {"cnots": circ.cnot_count, "depth": circ.depth, "gates": circ.num_gates}
    return CompileStats(
        cnots=values["cnots"],
        gates=values["gates"],
        depth=values["depth"],
        alpha=float(values[cost]),
    )


def _cost_key(cnots: int, depth: int, gates: int, cost: str) -> tuple[int, int, int]:
    if cost == "cnots":
        return cnots, depth, gates
    if cost == "depth":
        return depth, cnots, gates
    return gates, depth, cnots


def _sequence_cost(seq: list[GateLabel], n: int, cost: str) -> tuple[int, int, int]:
    """The cost key of ``_pack_layers(seq, n)``, read off the sequence.

    Depth follows the same greedy earliest-layer rule: ``level[q]`` is the
    number of layers qubit q occupies so far.
    """
    level = [0] * n
    cnots = 0
    for gate in seq:
        q = gate.qubits
        if len(q) == 2:
            a, b = q
            level[a] = level[b] = max(level[a], level[b]) + 1
            cnots += 1
        else:
            level[q[0]] += 1
    return _cost_key(cnots, max(level), len(seq), cost)


@functools.cache
def _gate(name: str, qubits: tuple[int, ...]) -> GateLabel:
    """One shared GateLabel per (name, qubits): trials build the same few
    labels over and over."""
    return GateLabel(name, qubits)


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


def _gather_bits(row: int, idx: list[int]) -> int:
    """The int whose bit j is bit idx[j] of ``row``."""
    out = 0
    for j, c in enumerate(idx):
        out |= (row >> c & 1) << j
    return out


def _permuted(rows: list[int], idx: list[int]) -> list[int]:
    """Int rows of m[np.ix_(idx, idx)], for m given as int rows."""
    return [_gather_bits(rows[i], idx) for i in idx]


def _transpose(rows: list[int], width: int) -> list[int]:
    """Int rows of the transpose of a matrix given as int rows."""
    return [sum((row >> j & 1) << i for i, row in enumerate(rows)) for j in range(width)]


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


# Stabilizer compiles relabel the device per elimination order; 512 entries
# hold a 4-qubit ring's 24 relabelings x 12 ordered pairs, and bound the rest.
@functools.lru_cache(maxsize=512)
def _cnot_realization(device: DeviceSpec, control: int, target: int) -> tuple[GateLabel, ...]:
    """Device gates implementing CNOT(control -> target) exactly.

    Declared edges are used directly; a declared reverse edge is wrapped
    in Hadamards; longer ranges expand along the shortest undirected path
    with per-step direction fixes.
    """
    if device.has_edge(control, target):
        return (_gate("CNOT", (control, target)),)
    if device.has_edge(target, control):
        return (
            _gate("H", (control,)),
            _gate("H", (target,)),
            _gate("CNOT", (target, control)),
            _gate("H", (control,)),
            _gate("H", (target,)),
        )
    path = device.shortest_path(control, target)
    gates: list[GateLabel] = []
    for a, b in _long_range_cnot_steps(path):
        gates.extend(_cnot_realization(device, a, b))
    return tuple(gates)


def _expand_ops(ops: list[tuple[str, tuple[int, ...]]], order: list[int], device: DeviceSpec) -> list[GateLabel]:
    """Map reduction ops (in relabeled space) back to physical gates,
    reversing them so the circuit composes to the reduced target; each
    CNOT becomes its realization on the device's declared edges."""
    seq: list[GateLabel] = []
    for name, qubits in reversed(ops):
        physical = tuple(order[q] for q in qubits)
        if name == "CNOT":
            seq.extend(_cnot_realization(device, *physical))
        else:
            seq.append(_gate(name, physical))
    return seq


def _elimination_orders(device: DeviceSpec, trials: int, digest: int) -> list[list[int]]:
    """The distinct elimination orders to try, in draw order.

    All ``trials - 1`` random orders are drawn, so the stream never
    depends on which repeat; a repeat is dropped because it would rebuild
    the same candidate, which cannot beat the first under strict ``<``.
    """
    first = device.eccentricity_order()
    orders = [first]
    seen = {tuple(first)}
    # leading key 0: the stream every pinned golden circuit was drawn from
    rng = stream(0, "compile-orders", digest)
    for _ in range(trials - 1):
        order = tuple(int(q) for q in rng.permutation(device.n))
        if order not in seen:
            seen.add(order)
            orders.append(list(order))
    return orders


def _relabeled_device(device: DeviceSpec, pos: list[int]) -> DeviceSpec:
    return DeviceSpec(device.n, tuple((pos[a], pos[b]) for a, b in device.edges), device.gate_set)


def _cnot_ge_ops(w: list[int]) -> list[tuple[str, tuple[int, int]]]:
    """Row operations (CNOTs, in application order onto the matrix)
    reducing an invertible matrix, given as int rows (bit j is column j),
    to the identity."""
    w = list(w)
    n = len(w)
    ops: list[tuple[str, tuple[int, int]]] = []
    for k in range(n):
        bit = 1 << k
        if not w[k] & bit:
            # a pivot below the diagonal always exists for invertible m;
            # rows above would re-pollute processed columns
            pivot = next((i for i in range(k + 1, n) if w[i] & bit), None)
            if pivot is None:
                raise ValueError("matrix is singular over GF(2)")
            w[k] ^= w[pivot]
            ops.append(("CNOT", (pivot, k)))
        row = w[k]
        for i in range(n):
            if i != k and w[i] & bit:
                w[i] ^= row
                ops.append(("CNOT", (k, i)))
    return ops


def _cnot_sequence(rows: list[int], device: DeviceSpec, options: CompileOptions) -> tuple[list[GateLabel], int]:
    """The cheapest device gate sequence realizing |x> -> |m x> over the
    elimination orders, for m given as int rows, and the number of orders
    evaluated."""
    n = device.n
    digest = _digest(bytes(row >> j & 1 for row in rows for j in range(n)))
    orders = _elimination_orders(device, options.trials, digest)
    best_seq: list[GateLabel] = []
    best_key = None
    for order in orders:
        seq = _expand_ops(_cnot_ge_ops(_permuted(rows, order)), order, device)
        key = _sequence_cost(seq, n, options.cost)
        if best_key is None or key < best_key:
            best_seq, best_key = seq, key
    return best_seq, len(orders)


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
    seq, _ = _cnot_sequence(_pack_rows(m), device, options)
    return _pack_layers(seq, n)


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
    """``words[k]``: a shortest word of the gate set's generators whose
    product is C<k>, by breadth-first search from the identity's ``()``."""
    index = _one_qubit_index()
    product = _one_qubit_products()
    words: dict[int, tuple[str, ...]] = {index["I"]: ()}
    frontier = [index["I"]]
    while frontier:
        nxt = []
        for k in frontier:
            for name in GATE_SETS[gate_set].generators:
                new = product[index[name]][k]
                if new not in words:
                    words[new] = words[k] + (name,)
                    nxt.append(new)
        frontier = nxt
    return tuple(words[k] for k in range(len(product)))


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
            out.extend(_gate(name, (q,)) for name in words[k])

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
            gates.append(_gate("Y", (q,)))
        elif x[q]:
            gates.append(_gate("X", (q,)))
        elif z[q]:
            gates.append(_gate("Z", (q,)))
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


def _gge_ops(rows: list[int], n: int) -> list[tuple[str, tuple[int, ...]]]:
    """Gate row-operations reducing a symplectic matrix, given as int rows
    (bit j is column j), to the identity.

    Rows j and n+j of the working matrix are qubit j's X and Z rows.  The
    left action of a gate is: H(q) swaps rows q and n+q; P(q) adds row q
    to row n+q; CNOT(c, t) adds row c to row t and row n+t to row n+c.
    Columns j and n+j of a processed qubit are unit vectors and stay so:
    later operations only mix rows of unprocessed qubits, where processed
    columns are zero by symplectic orthogonality.
    """
    a = list(rows)
    ops: list[tuple[str, tuple[int, ...]]] = []

    def h(q: int):
        a[q], a[n + q] = a[n + q], a[q]
        ops.append(("H", (q,)))

    def p(q: int):
        a[n + q] ^= a[q]
        ops.append(("P", (q,)))

    def cnot(c: int, t: int):
        a[t] ^= a[c]
        a[n + c] ^= a[n + t]
        ops.append(("CNOT", (c, t)))

    for j in range(n):
        xj, zj = 1 << j, 1 << (n + j)
        # put a 1 at (j, j)
        if not a[j] & xj:
            xi = next((i for i in range(j + 1, n) if a[i] & xj), None)
            if xi is not None:
                cnot(xi, j)
            elif a[n + j] & xj:
                h(j)
            else:
                zi = next(i for i in range(j + 1, n) if a[n + i] & xj)
                h(zi)
                cnot(zi, j)
        # clear the rest of column j's X part
        for i in range(j + 1, n):
            if a[i] & xj:
                cnot(j, i)
        # clear column j's Z part
        if a[n + j] & xj:
            p(j)
        spread = [i for i in range(j + 1, n) if a[n + i] & xj]
        if spread:
            h(j)
            for i in spread:
                cnot(i, j)
            h(j)
        # column n+j: clear its Z part off the diagonal
        for i in range(j + 1, n):
            if a[n + i] & zj:
                cnot(i, j)
        # clear its X part
        if a[j] & zj:
            h(j)
            p(j)
            h(j)
        tail = [i for i in range(j + 1, n) if a[i] & zj]
        if tail:
            h(j)
            for i in tail:
                cnot(j, i)
            h(j)
    if a != [1 << i for i in range(2 * n)]:
        raise RuntimeError("symplectic reduction failed to reach the identity")
    return ops


def compile_clifford(
    op: CliffordOp, device: DeviceSpec, options: CompileOptions | None = None
) -> tuple[Circuit, CompileStats]:
    """A device circuit implementing ``op`` exactly (up to global phase)."""
    options = options or CompileOptions()
    n = device.n
    if op.n != n:
        raise ValueError("operator and device disagree on qubit count")
    digest = _digest(op.s.tobytes(), op.v.tobytes())
    rows = _pack_rows(op.s)
    orders = _elimination_orders(device, options.trials, digest)
    best_key = None
    for order in orders:
        idx = [*order, *(n + q for q in order)]
        seq = _expand_ops(_gge_ops(_permuted(rows, idx), n), order, device)
        merged = _merge_one_qubit_runs(seq, device)
        key = _sequence_cost(merged, n, options.cost)
        if best_key is None or key < best_key:
            best_key, best_seq, best_merged = key, seq, merged
    # one Pauli correction fixes the phase vector
    realized = circuit_to_clifford(_pack_layers(best_merged, n))
    fix = compose(invert(realized), op)
    pauli = fix.pauli_part()
    seq = _pauli_gates(pauli.x, pauli.z) + best_seq
    circuit = _pack_layers(_merge_one_qubit_runs(seq, device), n)
    final = circuit_to_clifford(circuit)
    if final != op:
        raise RuntimeError("compiled circuit does not match the target Clifford")
    return circuit, dataclasses.replace(circuit_stats(circuit, options.cost), trials=len(orders))


# ---------------------------------------------------------------------------
# Stabilizer prep and measurement


def _diagonal_for_invertibility(a: list[int]) -> list[int]:
    """d with a + diag(d) invertible, for symmetric a over GF(2) given as
    int rows.

    Chosen so every leading principal minor is invertible, which fixes d:
    Gaussian elimination without pivoting leaves the Schur complement
    c + b' L^-1 b of the leading j x j block L at (j, j), and d_j sets it
    to 1.  This also forces the (0, 0) entry to 1, so the result is never
    alternating.
    """
    rows = list(a)
    d = []
    for j in range(len(rows)):
        bit = 1 << j
        d.append(0 if rows[j] & bit else 1)
        rows[j] |= bit
        for i in range(j + 1, len(rows)):
            if rows[i] & bit:
                rows[i] ^= rows[j]
    return d


def _albert_factor(a: list[int]) -> list[int]:
    """Int rows of an invertible m with m m^T = a, for invertible symmetric
    non-alternating a given as int rows.

    Congruence-orthonormalization: find a basis that is orthonormal under
    the bilinear form a.  When only hyperbolic pairs remain, borrow an
    already-normalized vector u: for a pair (p, q), the triple
    (u+p+q, u+p, u+q) is orthonormal.
    """
    n = len(a)
    basis = [1 << i for i in range(n)]

    def gram() -> list[list[int]]:
        """basis a basis^T over GF(2), entry by entry."""
        images = [sum(((r & v).bit_count() & 1) << k for k, r in enumerate(a)) for v in basis]
        return [[(u & w).bit_count() & 1 for w in images] for u in basis]

    processed: list[int] = []
    unprocessed = list(range(n))
    g = gram()
    while unprocessed:
        i = next((k for k in unprocessed if g[k][k]), None)
        if i is not None:
            for j in unprocessed:
                if j != i and g[j][i]:
                    basis[j] ^= basis[i]
            unprocessed.remove(i)
            processed.append(i)
            g = gram()
            continue
        p, q = next(
            (p, q) for pi, p in enumerate(unprocessed) for q in unprocessed[pi + 1 :] if g[p][q]
        )
        for j in unprocessed:
            if j in (p, q):
                continue
            if g[j][p]:
                basis[j] ^= basis[q]
            if g[j][q]:
                basis[j] ^= basis[p]
        g = gram()
        if not processed:
            raise ValueError("matrix is alternating; no factorization exists")
        u = processed[0]
        bu, bp, bq = basis[u], basis[p], basis[q]
        basis[u] = bu ^ bp ^ bq
        basis[p] = bu ^ bp
        basis[q] = bu ^ bq
        unprocessed.remove(p)
        unprocessed.remove(q)
        processed.extend([p, q])
        g = gram()
    if g != [[int(i == k) for k in range(n)] for i in range(n)]:
        raise RuntimeError("orthonormalization failed")
    # m is the inverse of the basis: eliminate [basis | I]
    aug = [row | 1 << (n + i) for i, row in enumerate(basis)]
    if len(_gf2_eliminate(aug, n)) != n:
        raise RuntimeError("orthonormal basis is singular")
    m = [row >> n for row in aug]
    if [sum(((mi & mk).bit_count() & 1) << k for k, mk in enumerate(m)) for mi in m] != a:
        raise RuntimeError("factor check failed")
    return m


def _conjugate_bits(rows: list[int], gates: list[GateLabel], n: int):
    """Conjugate phase-free Pauli rows in place by H, P and CNOT gates, in
    order.  Bit q of a row is its x_q and bit n+q its z_q."""
    for gate in gates:
        if gate.name == "CNOT":
            c, t = gate.qubits
            for k, r in enumerate(rows):
                # x_t ^= x_c and z_c ^= z_t
                rows[k] = r ^ (r >> c & 1) << t ^ (r >> (n + t) & 1) << (n + c)
        elif gate.name == "H":
            (q,) = gate.qubits
            for k, r in enumerate(rows):
                # swap x_q and z_q
                flip = (r >> q ^ r >> (n + q)) & 1
                rows[k] = r ^ flip << q ^ flip << (n + q)
        elif gate.name == "P":
            (q,) = gate.qubits
            for k, r in enumerate(rows):
                # z_q ^= x_q
                rows[k] = r ^ (r >> q & 1) << (n + q)
        else:
            raise ValueError(f"bit tracking takes H, P and CNOT, not {gate.name!r}")


def _meas_sequence(rows: list[int], device: DeviceSpec, options: CompileOptions) -> tuple[list[GateLabel], int]:
    """Gates mapping the state whose generators have (x | z) int rows
    ``rows`` to a computational basis state, in the form [1Q block][CNOT
    block][1Q block], and the number of CNOT eliminations run.

    Gate choice reads only the bits, so the rows are tracked without
    phases; the caller replays the chosen gates with phases.
    """
    n = device.n
    xmask = (1 << n) - 1
    rows = list(rows)
    seq: list[GateLabel] = []

    def emit(gates: list[GateLabel]):
        _conjugate_bits(rows, gates, n)
        seq.extend(gates)

    # H on qubits without an X-block pivot makes the X block invertible.
    pivots = set(_gf2_eliminate([r & xmask for r in rows], n))
    emit([_gate("H", (q,)) for q in range(n) if q not in pivots])
    # Re-mix generators so the X block becomes the identity (no gates).
    _gf2_eliminate(rows, 2 * n)
    if any(r & xmask != 1 << i for i, r in enumerate(rows)):
        raise RuntimeError("X block did not reduce to the identity")
    # With X = I the Z block is symmetric; P gates make it invertible.
    flips = _diagonal_for_invertibility([r >> n for r in rows])
    emit([_gate("P", (q,)) for q in range(n) if flips[q]])
    # Factor Z = M M^T and run a CNOT word with column action M on the X
    # block, taking both blocks to M.
    m = _albert_factor([r >> n for r in rows])
    cnots, trials = _cnot_sequence(_transpose(m, n), device, options)
    emit(cnots)
    if rows != [r | r << n for r in m]:
        raise RuntimeError("CNOT stage did not align the X and Z blocks")
    # P everywhere cancels the Z block; H everywhere moves X to Z.
    seq.extend(_gate("P", (q,)) for q in range(n))
    seq.extend(_gate("H", (q,)) for q in range(n))
    return seq, trials


def _best_meas_sequence(
    state: StabilizerState, device: DeviceSpec, options: CompileOptions
) -> tuple[list[GateLabel], int]:
    """The cheapest measurement sequence over the elimination orders, and
    the candidates evaluated: the orders plus their CNOT eliminations."""
    n = device.n
    canon = state.canonicalize()
    digest = _digest(canon.b.tobytes(), canon.r.tobytes())
    rows = _pack_rows(state.b)
    orders = _elimination_orders(device, options.trials, digest)
    trials = len(orders)
    best_key = None
    for order in orders:
        pos = [0] * n
        for k, q in enumerate(order):
            pos[q] = k
        idx = [*order, *(n + q for q in order)]
        dev2 = _relabeled_device(device, pos)
        seq2, inner = _meas_sequence([_gather_bits(r, idx) for r in rows], dev2, options)
        trials += inner
        seq = [_gate(g.name, tuple(order[q] for q in g.qubits)) for g in seq2]
        key = _sequence_cost(_merge_one_qubit_runs(seq, device), n, options.cost)
        if best_key is None or key < best_key:
            best_seq, best_key = seq, key
    return best_seq, trials


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
    seq, trials = _best_meas_sequence(state, device, options)
    circuit = _pack_layers(_merge_one_qubit_runs(seq, device), device.n)
    bits = state.apply_circuit(circuit).to_basis_bits()
    if bits is None:
        raise RuntimeError("measurement circuit did not produce a basis state")
    return circuit, bits, dataclasses.replace(circuit_stats(circuit, options.cost), trials=trials)


def compile_stabilizer_prep(
    state: StabilizerState, device: DeviceSpec, options: CompileOptions | None = None
) -> tuple[Circuit, CompileStats]:
    """A circuit preparing ``state`` from |0...0>, signs included."""
    options = options or CompileOptions()
    n = device.n
    if state.n != n:
        raise ValueError("state and device disagree on qubit count")
    meas_seq, trials = _best_meas_sequence(state, device, options)
    seq = meas_seq[::-1]
    # Reversing H/P/CNOT gates inverts the symplectic action; the sign
    # mismatch left over is a single Pauli, solved from the canonical forms.
    zero = StabilizerState.zero_state(n)
    got = zero.apply_circuit(_pack_layers(seq, n)).canonicalize()
    want = state.canonicalize()
    if not np.array_equal(got.b, want.b):
        raise RuntimeError("prep candidate stabilizes the wrong group")
    rhs = (((want.r - got.r) // 2) % 2).astype(np.uint8)
    rows = np.concatenate([want.b[:, n:], want.b[:, :n]], axis=1)
    q = _gf2_solve(rows, rhs)
    seq = seq + _pauli_gates(q[:n], q[n:])
    circuit = _pack_layers(_merge_one_qubit_runs(seq, device), n)
    if zero.apply_circuit(circuit) != state:
        raise RuntimeError("prep circuit does not prepare the target state")
    return circuit, dataclasses.replace(circuit_stats(circuit, options.cost), trials=trials)
