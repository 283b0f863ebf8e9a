"""Pauli-frame Monte Carlo simulation of benchmark circuits.

Errors are stochastic Paulis drawn after each ideal layer, plus optional
per-layer global depolarization and measurement bit flips.  In Pauli
fidelities the law is one product: a gate's error entry (q, p), a
uniformly random non-identity Pauli on qubit q with probability p, has
fidelity 1 - 4p/3; the fidelities on one qubit multiply; and a qubit of
net fidelity f comes out clean with probability (1 + 3f) / 4, which
:func:`layer_error_rate` multiplies over the qubits.  Outcomes come
from the error frame, not from state vectors: signs are irrelevant to
outcomes, so a frame is its x and z bits, and propagating it through a
Clifford is linear over GF(2).  One backward pass therefore gives the
effect of every possible flip, as in Stim's error analysis (Gidney,
arXiv:2103.02202): the measured Z_j are carried back through each
layer's inverse on a :class:`PauliRows` stack, and after each layer the
effect table records which measured bits a flip of each frame row
(x_0..x_{n-1}, then z_0..z_{n-1}) flips, n bits in ceil(n / 64) words, so
the width is unlimited.  Errors are drawn only for the shots they hit, a
depolarizing hit as 2n uniform bits on those frame rows; each shot's
outcome flips are the XOR of its hits' effects, and a shot succeeds when
they vanish.  This accounts exactly for error cancellation and for
errors the final measurement cannot see.
"""

from __future__ import annotations

import functools
import math
from dataclasses import dataclass, field

import numpy as np

from .clifford import _ONE_QUBIT_INDEX, GateLabel, PauliRows, _one_qubit_products
from .device import ring_center_edges
from .protocols import BenchmarkCircuit

__all__ = [
    "ErrorModel",
    "Dataset",
    "DataRow",
    "simulate_circuit",
    "run_experiment",
    "layer_error_rate",
    "build_model_main_sim",
    "build_model_crosstalk5",
    "build_model_from_calibration",
    "build_model_layer_depolarizing",
]

GateKey = tuple[str, tuple[int, ...]]
RateEntry = tuple[int, float]


@dataclass(frozen=True)
class ErrorModel:
    """Stochastic Pauli noise attached to gate labels.

    ``gate_errors`` maps ("1Q", (q,)) or ("CNOT", (c, t)) to entries
    (qubit, p): with probability p, a uniformly random non-identity Pauli
    hits that qubit, independently per entry (entries on qubits away from
    the gate express crosstalk).  Labels without an entry are error free.
    ``meas_flip`` holds per-qubit readout bit-flip probabilities and
    ``layer_depol`` the probability, applied after every core layer, of
    XORing a uniformly random n-qubit Pauli into the frame.
    """

    n: int
    gate_errors: dict[GateKey, tuple[RateEntry, ...]] = field(default_factory=dict)
    meas_flip: tuple[float, ...] = ()
    layer_depol: float = 0.0

    def __post_init__(self):
        if self.n < 1:
            raise ValueError("n must be positive")
        flips = tuple(float(f) for f in self.meas_flip) or (0.0,) * self.n
        if len(flips) != self.n:
            raise ValueError(f"meas_flip must have {self.n} entries")
        if any(not 0.0 <= f <= 1.0 for f in flips):
            raise ValueError("measurement flip probabilities must be in [0, 1]")
        object.__setattr__(self, "meas_flip", flips)
        if not 0.0 <= self.layer_depol <= 1.0:
            raise ValueError("layer_depol must be in [0, 1]")
        clean: dict[GateKey, tuple[RateEntry, ...]] = {}
        for key, entries in self.gate_errors.items():
            kind, qubits = key
            qubits = tuple(int(q) for q in qubits)
            if kind not in ("1Q", "CNOT"):
                raise ValueError(f"unknown gate kind {kind!r}")
            if len(qubits) != (2 if kind == "CNOT" else 1):
                raise ValueError(f"bad qubit count for {kind} key {qubits}")
            if any(not 0 <= q < self.n for q in qubits):
                raise ValueError(f"gate key {qubits} out of range")
            checked = []
            for q, p in entries:
                q, p = int(q), float(p)
                if not 0 <= q < self.n:
                    raise ValueError(f"error entry qubit {q} out of range")
                if not 0.0 <= p <= 1.0:
                    raise ValueError("error probabilities must be in [0, 1]")
                checked.append((q, p))
            clean[(kind, qubits)] = tuple(checked)
        object.__setattr__(self, "gate_errors", clean)

    @staticmethod
    def key(gate: GateLabel) -> GateKey:
        """The ``gate_errors`` key of a gate: ("CNOT", (c, t)) for a CNOT,
        ("1Q", (q,)) for any other gate."""
        return ("CNOT" if gate.name == "CNOT" else "1Q", gate.qubits)

    def rates_for(self, gate: GateLabel) -> tuple[RateEntry, ...]:
        return self.gate_errors.get(self.key(gate), ())


@dataclass(frozen=True)
class DataRow:
    circuit_id: str
    m: int
    target: str
    shots: int
    successes: int
    histogram: tuple[tuple[str, int], ...] | None = None

    def __post_init__(self):
        if not 0 <= self.successes <= self.shots:
            raise ValueError("successes must lie in [0, shots]")


@dataclass(frozen=True)
class Dataset:
    """Rows plus provenance; a simulated dataset also counts its
    shot-layers and injected error events (neither is written to JSONL)."""

    rows: tuple[DataRow, ...]
    provenance: dict = field(default_factory=dict)
    shot_layers: int = 0
    error_events: int = 0


def layer_error_rate(model: ErrorModel, gates) -> float:
    """Exact probability that a layer of gates leaves a net error, the
    layer-depolarizing term included.

    In Pauli fidelities (Flammia and Wallman, arXiv:1907.12976): an entry
    of rate p has fidelity 1 - 4p/3 on its qubit, the fidelities on one
    qubit multiply, and a qubit of net fidelity f comes out clean with
    probability (1 + 3f) / 4.  The layer-depolarizing term is affine.
    """
    n = model.n
    fidelities = [1.0] * n
    for gate in gates:
        for q, p in model.rates_for(gate):
            fidelities[q] *= 1.0 - 4.0 * p / 3.0
    identity_prob = math.prod((1.0 + 3.0 * f) / 4.0 for f in fidelities)
    if model.layer_depol > 0.0:
        lam = 1.0 - model.layer_depol
        identity_prob = lam * identity_prob + (1.0 - lam) * 0.25**n
    return 1.0 - identity_prob


@functools.cache
def _inverse(name: str, qubits: tuple[int, ...]) -> GateLabel:
    """The gate that undoes ``name`` on ``qubits``: a CNOT itself, a 1Q gate
    the C<b> whose product with it is the identity."""
    if name == "CNOT":
        return GateLabel(name, qubits)
    index = _ONE_QUBIT_INDEX
    return GateLabel(f"C{_one_qubit_products()[index[name]].index(index['I'])}", qubits)


def _effects(layers, n: int) -> np.ndarray:
    """The measured bits that a flip of each frame row flips, per step.

    Returns a (len(layers) + 1, 2n, ceil(n / 64)) uint64 table: bit j of
    ``effects[k, r]`` (word j // 64, bit j % 64) is set when flipping frame
    row r (x_0..x_{n-1}, then z_0..z_{n-1}) right after layer k flips
    measured bit j; the last step is the measurement.  The rows Z_j are
    carried backward through each layer's inverse: a flip anticommutes
    with the carried Z_j, and so flips bit j, where Z_j has a z part on
    the flipped x row's qubit or an x part on the flipped z row's qubit.
    """
    rows = PauliRows.from_columns(n, [0] * n, [1 << j for j in range(n)])
    table = (rows.z + rows.x) * min(len(layers) + 1, 2)  # steps L and L - 1, last first
    for layer in layers[:0:-1]:
        rows.apply_layer([_inverse(gate.name, gate.qubits) for gate in layer])
        table += rows.z + rows.x
    size = 8 * -(-n // 64)
    data = b"".join([column.to_bytes(size, "little") for column in table])
    return np.frombuffer(data, dtype="<u8").reshape(-1, 2 * n, size // 8)[::-1]


def _distinct_positions(rng: np.random.Generator, shots: int, counts: np.ndarray):
    """``counts[i]`` distinct shots drawn uniformly for each source i.

    Returns (owner, pos), one entry per hit, grouped by source.  Sparse
    sources draw with replacement and redraw repeats, which leaves every
    subset equally likely; sources that hit over a quarter of the shots
    sample without replacement directly.
    """
    owner = np.repeat(np.arange(counts.size), counts)
    pos = rng.integers(0, shots, size=owner.size)
    ends = np.cumsum(counts)
    for i in np.flatnonzero(counts > shots // 4):
        pos[ends[i] - counts[i]:ends[i]] = rng.choice(shots, counts[i], replace=False,
                                                      shuffle=False)
    while True:
        key = owner * shots + pos
        order = np.argsort(key, kind="stable")
        repeats = order[1:][key[order[1:]] == key[order[:-1]]]
        if repeats.size == 0:
            return owner, pos
        pos[repeats] = rng.integers(0, shots, size=repeats.size)


def _draw_hits(sources, shots: int, n: int, rng: np.random.Generator):
    """Sample the frame bits that the error sources flip.

    Returns (step, row, pos) per flipped bit and the number of error events
    (shots hit, summed over sources).  Only hit shots are drawn: a
    binomial count per source, then that many distinct shots, then a Pauli
    per hit.
    """
    if not sources:
        empty = np.empty(0, dtype=np.int64)
        return (empty, empty, empty), 0
    step, xrow, zrow, p = (np.array(column) for column in zip(*sources))
    counts = rng.binomial(shots, p)
    owner, pos = _distinct_positions(rng, shots, counts)
    # k in 1..3 encodes Z, X, Y via (x, z) = (k >> 1, k & 1); a readout flip is X
    k = rng.integers(1, 4, size=owner.size)
    k[zrow[owner] < 0] = 2
    gate = xrow[owner] >= 0
    has_x = gate & (k >= 2)
    has_z = gate & (k & 1 == 1)
    depol = np.flatnonzero(~gate)
    # a depolarizing hit XORs a uniformly random 2n-bit Pauli into all rows
    hit, row = np.nonzero(rng.integers(0, 2, size=(depol.size, 2 * n), dtype=np.uint8))
    depol = depol[hit]
    return (
        np.concatenate((step[owner[has_x]], step[owner[has_z]], step[owner[depol]])),
        np.concatenate((xrow[owner[has_x]], zrow[owner[has_z]], row)),
        np.concatenate((pos[has_x], pos[has_z], pos[depol])),
    ), int(counts.sum())


def simulate_circuit(
    circ: BenchmarkCircuit,
    model: ErrorModel,
    shots: int,
    rng: np.random.Generator,
    histogram: bool = False,
    *,
    tally: dict[str, int] | None = None,
) -> tuple[int, tuple[tuple[str, int], ...] | None]:
    """Monte Carlo estimate of the circuit's success count over ``shots``.

    Returns (successes, top-64 outcome histogram or None).  With ``tally``
    given, adds the circuit's ``shot_layers`` (layers x shots) and
    ``error_events`` (gate-error, depolarizing and readout-flip hits) to it.
    """
    n = circ.n
    if model.n != n:
        raise ValueError("model and circuit disagree on qubit count")
    if shots < 1:
        raise ValueError("shots must be >= 1")
    layers = circ.prep.layers + circ.core.layers + circ.meas.layers
    core = range(circ.prep.depth, circ.prep.depth + circ.core.depth)
    # error sources (step, x row, z row, p) act after their step: a gate
    # entry XORs in a uniform non-identity Pauli; a z row of -1 marks a
    # readout flip (X only) and an x row of -1 the depolarizing channel
    sources = []
    for k, layer in enumerate(layers):
        sources += [(k, q, n + q, p) for gate in layer for q, p in model.rates_for(gate) if p > 0.0]
        if k in core and model.layer_depol > 0.0:
            sources.append((k, -1, -1, model.layer_depol))
    sources += [(len(layers), q, -1, f) for q, f in enumerate(model.meas_flip) if f > 0.0]
    (step, row, pos), events = _draw_hits(sources, shots, n, rng)
    effects = _effects(layers, n)
    flips = np.zeros((shots, effects.shape[2]), dtype=np.uint64)
    np.bitwise_xor.at(flips, pos, effects[step, row])
    successes = shots - int(np.count_nonzero(flips.any(axis=1)))
    if tally is not None:
        tally["shot_layers"] = tally.get("shot_layers", 0) + len(layers) * shots
        tally["error_events"] = tally.get("error_events", 0) + events
    hist = None
    if histogram:
        # each shot's outcome packed in bitstring order (qubit 0 first) and
        # sorted as bytes; a stable sort by count keeps ties in that order
        bits = np.unpackbits(flips.astype("<u8").view(np.uint8), axis=1, bitorder="little")
        outcomes = np.packbits(circ.target_bits ^ bits[:, :n], axis=1)
        outcomes = outcomes[np.lexsort(outcomes.T[::-1])]
        starts = np.flatnonzero(np.r_[True, (outcomes[1:] != outcomes[:-1]).any(axis=1)])
        counts = np.diff(starts, append=shots)
        order = np.argsort(-counts, kind="stable")[:64]
        text = np.unpackbits(outcomes[starts[order]], axis=1)[:, :n] + ord("0")
        hist = tuple((chars.tobytes().decode(), int(count))
                     for chars, count in zip(text, counts[order]))
    return successes, hist


def run_experiment(
    circuits: list[BenchmarkCircuit],
    model: ErrorModel,
    rng: np.random.Generator,
    shots: int,
    histogram: bool = False,
    provenance: dict | None = None,
) -> Dataset:
    """Simulate every circuit with ``shots`` shots each.

    Circuit seeds are spawned from ``rng`` up front in list order, so each
    circuit's draws do not depend on the others.
    """
    children = rng.spawn(len(circuits)) if circuits else []
    tally = {"shot_layers": 0, "error_events": 0}
    rows = []
    for circ, child in zip(circuits, children):
        successes, hist = simulate_circuit(circ, model, shots, child, histogram, tally=tally)
        rows.append(DataRow(
            circuit_id=circ.circuit_id,
            m=circ.length,
            target=circ.target_text,
            shots=shots,
            successes=successes,
            histogram=hist,
        ))
    return Dataset(rows=tuple(rows), provenance=dict(provenance or {}), **tally)


# ---------------------------------------------------------------------------
# Bundled models


def build_model_main_sim(n: int) -> ErrorModel:
    """All-to-all model: 0.25% per CNOT qubit, 0.05% per 1Q gate, perfect
    state prep and measurement."""
    errors: dict[GateKey, tuple[RateEntry, ...]] = {}
    for q in range(n):
        errors[("1Q", (q,))] = ((q, 0.0005),)
    for c in range(n):
        for t in range(n):
            if c != t:
                errors[("CNOT", (c, t))] = ((c, 0.0025), (t, 0.0025))
    return ErrorModel(n=n, gate_errors=errors)


def build_model_crosstalk5() -> ErrorModel:
    """The 5-qubit ring-plus-center model with CNOT crosstalk.

    Ring CNOTs carry 4% total error split evenly over their two qubits.
    Center CNOTs carry 4% on the center qubit plus crosstalk on all four
    ring qubits at rate 1-(0.92/0.96)^(1/4) each, for 8% total.  1Q gates
    are 0.1% and every qubit has a 2% readout flip.
    """
    ring_edges, center_edges = ring_center_edges(4)
    ring_rate = 1.0 - 0.96 ** 0.5
    spect_rate = 1.0 - (0.92 / 0.96) ** 0.25
    errors: dict[GateKey, tuple[RateEntry, ...]] = {}
    for q in range(5):
        errors[("1Q", (q,))] = ((q, 0.001),)
    for c, t in ring_edges:
        errors[("CNOT", (c, t))] = ((c, ring_rate), (t, ring_rate))
    for c, t in center_edges:
        center = c if c == 4 else t
        errors[("CNOT", (c, t))] = ((center, 0.04),) + tuple(
            (q, spect_rate) for q in range(4)
        )
    return ErrorModel(n=5, gate_errors=errors, meas_flip=(0.02,) * 5)


def build_model_from_calibration(
    n: int,
    one_qubit_rates: dict[int, float] | float,
    cnot_rates: dict[tuple[int, int], float] | None = None,
    readout_rates: dict[int, float] | float = 0.0,
) -> ErrorModel:
    """Crosstalk-free model from calibration-style total error rates.

    ``one_qubit_rates[q]`` is the total error probability of a 1Q gate on
    qubit q; ``cnot_rates[(c, t)]`` the total rate of that CNOT, split as
    1-sqrt(1-rate) per involved qubit so the pair reproduces the total.
    """
    if isinstance(one_qubit_rates, (int, float)):
        one_qubit_rates = {q: float(one_qubit_rates) for q in range(n)}
    if isinstance(readout_rates, (int, float)):
        readout_rates = {q: float(readout_rates) for q in range(n)}
    missing = [q for q in range(n) if q not in one_qubit_rates]
    if missing:
        raise ValueError(f"missing 1Q calibration for qubits {missing}")
    missing = [q for q in range(n) if q not in readout_rates]
    if missing:
        raise ValueError(f"missing readout calibration for qubits {missing}")
    errors: dict[GateKey, tuple[RateEntry, ...]] = {}
    for q in range(n):
        errors[("1Q", (q,))] = ((q, float(one_qubit_rates[q])),)
    for (c, t), rate in (cnot_rates or {}).items():
        per_qubit = 1.0 - math.sqrt(1.0 - float(rate))
        errors[("CNOT", (int(c), int(t)))] = ((int(c), per_qubit), (int(t), per_qubit))
    flips = tuple(float(readout_rates[q]) for q in range(n))
    return ErrorModel(n=n, gate_errors=errors, meas_flip=flips)


def build_model_layer_depolarizing(n: int, lam: float) -> ErrorModel:
    """Perfect gates and SPAM; after every core layer the state is
    replaced by the maximally mixed one with probability 1 - lam."""
    if not 0.0 <= lam <= 1.0:
        raise ValueError("lam must be in [0, 1]")
    return ErrorModel(n=n, layer_depol=1.0 - lam)
