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
A measurement circuit first makes the generators' X block the identity,
which leaves the Z block symmetric.  Gaussian elimination without
pivoting then picks the P flips d that keep every leading principal
minor of Z + diag(d) invertible, and the same elimination factors
Z + diag(d) = M M^T with M unit lower triangular; a CNOT block with
column action M takes both blocks to M.

Trials.  A search makes one candidate per distinct elimination order, in
the order ``_elimination_orders`` draws them: the reduction's op list, in
relabeled labels, plus the order that maps it back to physical qubits.  It
keeps ``min(candidates, key=cost)``: the first of the cheapest, so a tie
never replaces an earlier candidate.  The cost key (cnots, depth, gates)
is counted off the op list without building gates: each CNOT stands for
the int steps of its realization on the device (``_cnot_steps``), and
depth follows the same greedy earliest-layer rule that ``_pack_layers``
uses, so the key equals that of the packed sequence.  The CNOT search
costs its sequence as emitted; ``compile_clifford`` and the stabilizer
search cost theirs after 1Q runs are merged, holding a pending 1Q Clifford
per qubit that a CNOT or the end flushes as its word in the gate set.
Only the winner is expanded into gates, merged, packed and replayed.  A
stabilizer compile runs a CNOT search of its own inside every outer order
and builds and checks that search's winner; the outer candidates are
costed in relabeled labels, which the key does not depend on, and only
the outer winner is mapped back to physical qubits.  A trial reads only
GF(2) bits, so it works on Python-int rows (bit j of a row is column j;
row operations are XORs).

The first order is the device's eccentricity order; ``trials - 1`` more
are drawn from a stream keyed by the input.  An order that repeats an
earlier one is drawn (so the stream does not change) but not evaluated:
it would rebuild the same candidate, which cannot come first among the
cheapest.  Drawing stops once all n! orders are in hand, because later
draws can add none.  The inner CNOT searches' orders are memoized: such a
search takes its digest from a unit lower-triangular factor, so its
inputs repeat.

Every conjugation of Pauli rows by gates runs on the row kernel,
``PauliRows`` (CHP-style, Aaronson & Gottesman, quant-ph/0406196), one
call per gate sequence: each stabilizer candidate's CNOT-stage check and
the winner's replay with phases.  The Clifford compiler reads its Pauli
sign fix off the replay's phase difference to the target, the prep
compiler solves its fix from canonical forms, and only the emitted
circuit is packed, then checked against its target.
"""

from __future__ import annotations

import dataclasses
import functools
import math
import zlib
from collections.abc import Iterable, Sequence
from dataclasses import dataclass

import numpy as np

from .clifford import (
    _ONE_QUBIT_INDEX,
    Circuit,
    CliffordOp,
    GateLabel,
    PauliRows,
    StabilizerState,
    _gf2_eliminate,
    _gf2_rref,
    _one_qubit_products,
    _pack_rows,
    circuit_to_clifford,
)
from .device import GATE_SETS, DeviceSpec
from .streams import stream

__all__ = [
    "CompileOptions",
    "CompileStats",
    "compile_clifford",
    "compile_stabilizer_prep",
    "compile_stabilizer_meas",
    "circuit_stats",
]


@dataclass(frozen=True)
class CompileOptions:
    """Knobs shared by all compilers.

    ``trials`` elimination orders are attempted (the first is the device's
    eccentricity order, the rest are drawn at random from a stream keyed by
    the input) and the cheapest circuit wins: fewest CNOTs, then least
    depth, then fewest gates.  Every CNOT is realized on the device's
    declared edges.
    """

    trials: int = 10

    def __post_init__(self):
        # every message starts with the option's name
        if isinstance(self.trials, bool) or not isinstance(self.trials, (int, np.integer)):
            raise ValueError(f"trials must be an integer, got {self.trials!r}")
        if self.trials < 1:
            raise ValueError(f"trials must be >= 1, got {self.trials}")


@dataclass(frozen=True)
class CompileStats:
    """Size measures of a compiled circuit.

    ``trials`` counts the candidates evaluated to find the circuit: the
    distinct elimination orders, plus for stabilizer circuits the CNOT
    eliminations each order ran.  It describes the search, not the
    circuit, so it takes no part in equality; :func:`circuit_stats`
    leaves it 0.
    """

    cnots: int
    gates: int
    depth: int
    trials: int = dataclasses.field(default=0, compare=False)


def circuit_stats(circ: Circuit) -> CompileStats:
    return CompileStats(cnots=circ.cnot_count, gates=circ.num_gates, depth=circ.depth)


@functools.cache
def _gate(name: str, qubits: tuple[int, ...]) -> GateLabel:
    """One shared GateLabel per (name, qubits): compiles build the same few
    labels over and over."""
    return GateLabel(name, qubits)


# ---------------------------------------------------------------------------
# GF(2) helpers


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


# A step is one device gate as a pair of ints: (a, b) with b >= 0 is
# CNOT(a -> b), and (q, ~k) is the 1Q Clifford C<k> on qubit q.
Step = tuple[int, int]
_STEP_NAMES = {~_ONE_QUBIT_INDEX[name]: name for name in ("H", "P")}


# Stabilizer compiles relabel the device per elimination order; 512 entries
# hold a 4-qubit ring's 24 relabelings x 12 ordered pairs, and bound the rest.
@functools.lru_cache(maxsize=512)
def _cnot_steps(device: DeviceSpec, control: int, target: int) -> tuple[Step, ...]:
    """Device gates implementing CNOT(control -> target) exactly, as steps.

    Declared edges are used directly; a declared reverse edge is wrapped
    in Hadamards; longer ranges expand along the shortest undirected path
    with per-step direction fixes.
    """
    if device.has_edge(control, target):
        return ((control, target),)
    if device.has_edge(target, control):
        h = ~_ONE_QUBIT_INDEX["H"]
        return (control, h), (target, h), (target, control), (control, h), (target, h)
    path = device.shortest_path(control, target)
    return tuple(step for a, b in _long_range_cnot_steps(path) for step in _cnot_steps(device, a, b))


def _op_steps(ops: list[tuple[str, tuple[int, ...]]], order: Sequence[int], device: DeviceSpec) -> list[Step]:
    """Map reduction ops (in relabeled space) back to physical steps,
    reversing them so the circuit composes to the reduced target; each
    CNOT becomes its realization on the device's declared edges."""
    index = _ONE_QUBIT_INDEX
    steps: list[Step] = []
    for name, qubits in reversed(ops):
        if name == "CNOT":
            steps.extend(_cnot_steps(device, order[qubits[0]], order[qubits[1]]))
        else:
            steps.append((order[qubits[0]], ~index[name]))
    return steps


def _step_gates(steps: Iterable[Step]) -> list[GateLabel]:
    return [_gate("CNOT", (a, b)) if b >= 0 else _gate(_STEP_NAMES[b], (a,)) for a, b in steps]


def _expand_ops(ops: list[tuple[str, tuple[int, ...]]], order: Sequence[int], device: DeviceSpec) -> list[GateLabel]:
    """The gates of ``_op_steps(ops, order, device)``."""
    return _step_gates(_op_steps(ops, order, device))


def _elimination_orders(eccs: tuple[int, ...], trials: int, digest: int) -> tuple[tuple[int, ...], ...]:
    """The distinct elimination orders to try, in draw order, on a device
    whose qubits have eccentricities ``eccs``.

    The first is the device's eccentricity order (most peripheral first,
    ties by index).  Up to ``trials - 1`` random orders follow, drawn from
    a stream keyed by ``digest``; a repeat is dropped because it would
    rebuild the same candidate, and ``min`` keeps the first of equal
    candidates.  Drawing stops once all n! orders are in hand: a later
    draw could only repeat one.
    """
    n = len(eccs)
    orders = {tuple(sorted(range(n), key=lambda q: (-eccs[q], q))): None}
    total = math.factorial(n)
    if trials > 1 and total > 1:
        # leading key 0: the stream every pinned golden circuit was drawn from
        rng = stream(0, "compile-orders", digest)
        for _ in range(trials - 1):
            orders[tuple(rng.permutation(n).tolist())] = None
            if len(orders) == total:
                break
    return tuple(orders)


# The CNOT searches inside stabilizer compiles repeat their inputs: each
# takes its digest from a unit lower-triangular factor, which on 4 qubits
# has 64 values.  The outer searches' digests rarely repeat (a DRB circuit
# of length 0 compiles one state twice), so they are not memoized.
# Bounded: each entry holds at most ``trials`` orders.
_cnot_orders = functools.lru_cache(maxsize=256)(_elimination_orders)


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


def _cnot_sequence(
    rows: list[int], device: DeviceSpec, eccs: tuple[int, ...], options: CompileOptions
) -> tuple[list[tuple[str, tuple[int, int]]], tuple[int, ...], int]:
    """The cheapest CNOT circuit realizing |x> -> |m x> over the
    elimination orders, for m given as int rows, as its op list and order
    (``_expand_ops`` builds its gates), and the number of orders
    evaluated; ``eccs`` are the device's qubit eccentricities."""
    n = device.n
    digest = _digest(bytes(row >> j & 1 for row in rows for j in range(n)))
    orders = _cnot_orders(eccs, options.trials, digest)
    candidates = ((_cnot_ge_ops(_permuted(rows, order)), order) for order in orders)
    ops, order = min(candidates, key=lambda c: _unmerged_cost(_op_steps(*c, device), n))
    return ops, order, len(orders)


# ---------------------------------------------------------------------------
# 1Q-run merging and translation


@functools.cache
def _word_table(gate_set: str) -> tuple[tuple[str, ...], ...]:
    """``words[k]``: a shortest word of the gate set's generators whose
    product is C<k>, by breadth-first search from the identity's ``()``."""
    index = _ONE_QUBIT_INDEX
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
    index = _ONE_QUBIT_INDEX
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


def _unmerged_cost(steps: Iterable[Step], n: int) -> tuple[int, int, int]:
    """The cost key (cnots, depth, gates) of ``_pack_layers`` of the gate
    sequence ``steps`` stand for.

    Depth follows the same greedy earliest-layer rule: ``level[q]`` is the
    number of layers qubit q occupies so far.
    """
    level = [0] * n
    cnots = gates = 0
    for a, b in steps:
        gates += 1
        if b < 0:
            level[a] += 1
        else:
            level[a] = level[b] = max(level[a], level[b]) + 1
            cnots += 1
    return cnots, max(level), gates


def _merged_cost(steps: Iterable[Step], n: int, gate_set: str) -> tuple[int, int, int]:
    """The cost key of the same sequence after ``_merge_one_qubit_runs``.

    A qubit's run of 1Q steps is one pending Clifford; a CNOT on the qubit,
    or the end, flushes it as its word in the gate set, one gate and one
    layer per letter (the identity's word is empty).
    """
    words = _word_table(gate_set)
    product = _one_qubit_products()
    identity = _ONE_QUBIT_INDEX["I"]
    pending = [identity] * n
    level = [0] * n
    cnots = gates = 0
    for a, b in steps:
        if b < 0:
            pending[a] = product[~b][pending[a]]
            continue
        wa, wb = len(words[pending[a]]), len(words[pending[b]])
        pending[a] = pending[b] = identity
        level[a] = level[b] = max(level[a] + wa, level[b] + wb) + 1
        gates += wa + wb + 1
        cnots += 1
    for q in range(n):
        w = len(words[pending[q]])
        level[q] += w
        gates += w
    return cnots, max(level), gates


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


def _best_clifford_sequence(
    op: CliffordOp, device: DeviceSpec, options: CompileOptions
) -> tuple[list[GateLabel], int]:
    """The cheapest device gate sequence with ``op``'s symplectic action
    over the elimination orders, and the number of orders evaluated."""
    n = device.n
    digest = _digest(op.s.tobytes(), op.v.tobytes())
    rows = _pack_rows(op.s)
    orders = _elimination_orders(device.eccentricities(), options.trials, digest)
    candidates = ((_gge_ops(_permuted(rows, [*order, *(n + q for q in order)]), n), order) for order in orders)
    ops, order = min(candidates, key=lambda c: _merged_cost(_op_steps(*c, device), n, device.gate_set))
    return _expand_ops(ops, order, device), len(orders)


def compile_clifford(
    op: CliffordOp, device: DeviceSpec, options: CompileOptions | None = None
) -> tuple[Circuit, CompileStats]:
    """A device circuit implementing ``op`` exactly (up to global phase)."""
    options = options or CompileOptions()
    n = device.n
    if op.n != n:
        raise ValueError("operator and device disagree on qubit count")
    best_seq, trials = _best_clifford_sequence(op, device, options)
    # A Pauli run first negates column j exactly when it anticommutes with
    # W(e_j): X_q negates column n+q (Z_q) and Z_q negates column q (X_q).
    realized = PauliRows.identity(n)
    realized.apply_layer(_merge_one_qubit_runs(best_seq, device))
    flip = (op.v - realized.r) % 4 // 2
    seq = _pauli_gates(flip[n:], flip[:n]) + best_seq
    circuit = _pack_layers(_merge_one_qubit_runs(seq, device), n)
    final = circuit_to_clifford(circuit)
    if final != op:
        raise RuntimeError("compiled circuit does not match the target Clifford")
    return circuit, dataclasses.replace(circuit_stats(circuit), trials=trials)


# ---------------------------------------------------------------------------
# Stabilizer prep and measurement


def _flips_and_factor(a: list[int]) -> tuple[list[int], list[int]]:
    """(d, mt) for symmetric a over GF(2) given as int rows: mt holds the
    rows of m^T, where m is unit lower triangular with m m^T = a + diag(d).

    Gaussian elimination without pivoting leaves the Schur complement of
    the leading j x j block at (j, j); d_j sets it to 1, so every leading
    principal minor of a + diag(d) is invertible, which fixes d.  The
    elimination is then a + diag(d) = L U, with L[i][j] = 1 when row j was
    added into row i and U unit upper triangular, and symmetry makes
    U = L^T: m is L, recorded as it goes by its columns.
    """
    rows = list(a)
    n = len(rows)
    d = []
    mt = [1 << i for i in range(n)]
    for j in range(n):
        bit = 1 << j
        d.append(0 if rows[j] & bit else 1)
        rows[j] |= bit
        for i in range(j + 1, n):
            if rows[i] & bit:
                rows[i] ^= rows[j]
                mt[j] |= 1 << i
    return d, mt


def _meas_sequence(
    rows: list[int], device: DeviceSpec, eccs: tuple[int, ...], options: CompileOptions
) -> tuple[tuple[int, int, int], list[Step], int]:
    """Steps mapping the state whose generators have (x | z) int rows
    ``rows`` to a computational basis state, in the form [1Q block][CNOT
    block][1Q block], with their cost key after 1Q runs are merged, and
    the number of CNOT eliminations run; ``eccs`` are the device's qubit
    eccentricities.  Only the CNOT block is built into gates, for its
    check.

    Gate choice reads only the bits, so no phases are tracked; the caller
    replays the chosen gates with phases.
    """
    n = device.n
    xmask = (1 << n) - 1
    # H on qubits without an X-block pivot makes the X block invertible:
    # it swaps x_q and z_q in every row.
    pivots = set(_gf2_eliminate([r & xmask for r in rows], n))
    hmask = xmask ^ sum(1 << q for q in pivots)
    swaps = [(r ^ r >> n) & hmask for r in rows]
    rows = [r ^ w ^ w << n for r, w in zip(rows, swaps)]
    # Re-mix generators so the X block becomes the identity (no gates).
    _gf2_eliminate(rows, 2 * n)
    if any(r & xmask != 1 << i for i, r in enumerate(rows)):
        raise RuntimeError("X block did not reduce to the identity")
    # With X = I the Z block is symmetric.  One elimination without
    # pivoting picks the P flips d that keep every leading principal minor
    # invertible and factors Z + diag(d) = M M^T, M unit lower triangular;
    # the flips turn the Z block into Z + diag(d).
    flips, mt = _flips_and_factor([r >> n for r in rows])
    # A CNOT word with column action M on the X block (|x> -> |M^T x>)
    # takes both blocks to M, whose column q is row q of M^T.  Column q of
    # the symmetric Z + diag(d) is its row q.
    ops, order, trials = _cnot_sequence(mt, device, eccs, options)
    check = PauliRows.from_columns(n, [1 << q for q in range(n)],
                                   [r >> n ^ d << q for q, (r, d) in enumerate(zip(rows, flips))])
    check.apply_layer(_expand_ops(ops, order, device))
    if not check.x == check.z == mt:
        raise RuntimeError("CNOT stage did not align the X and Z blocks")
    # P everywhere cancels the Z block; H everywhere moves X to Z.
    h, p = ~_ONE_QUBIT_INDEX["H"], ~_ONE_QUBIT_INDEX["P"]
    steps = [*((q, h) for q in range(n) if hmask >> q & 1), *((q, p) for q in range(n) if flips[q]),
             *_op_steps(ops, order, device), *((q, p) for q in range(n)), *((q, h) for q in range(n))]
    return _merged_cost(steps, n, device.gate_set), steps, trials


def _best_meas_sequence(
    state: StabilizerState, device: DeviceSpec, options: CompileOptions
) -> tuple[list[GateLabel], int]:
    """The cheapest measurement sequence over the elimination orders, and
    the candidates evaluated: the orders plus their CNOT eliminations."""
    n = device.n
    canon = state.canonicalize()
    digest = _digest(canon.b.tobytes(), canon.r.tobytes())
    rows = _pack_rows(state.b)
    eccs = device.eccentricities()
    orders = _elimination_orders(eccs, options.trials, digest)
    candidates = []
    trials = len(orders)
    for order in orders:
        pos = [0] * n
        for k, q in enumerate(order):
            pos[q] = k
        idx = [*order, *(n + q for q in order)]
        # new label k is qubit order[k], at the same eccentricity; the cost
        # key does not depend on the labels
        cost, steps, inner = _meas_sequence([_gather_bits(r, idx) for r in rows], _relabeled_device(device, pos),
                                            tuple(eccs[q] for q in order), options)
        candidates.append((cost, steps, order))
        trials += inner
    _, steps, order = min(candidates, key=lambda c: c[0])
    # back to physical labels: both qubits of a CNOT step, the qubit of a 1Q one
    return _step_gates([(order[a], b if b < 0 else order[b]) for a, b in steps]), trials


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
    return circuit, bits, dataclasses.replace(circuit_stats(circuit), trials=trials)


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
    replay = PauliRows(n, zero.b, zero.r)
    replay.apply_layer(seq)
    got = StabilizerState.from_rows(replay.b, replay.r).canonicalize()
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
    return circuit, dataclasses.replace(circuit_stats(circuit), trials=trials)
