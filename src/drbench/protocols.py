"""Experiment designs and circuit generation for the two benchmarks.

A direct benchmark circuit is [stabilizer prep][m sampled layers][basis
rotation]; the group benchmark replaces the core with m uniform Clifford
elements plus the compiled inversion element.  Every generated circuit is
checked to map |0...0> to its recorded target bitstring before it is
returned.
"""

from __future__ import annotations

import functools
from dataclasses import dataclass, field

import numpy as np

from .clifford import (
    Circuit,
    CliffordOp,
    StabilizerState,
    _layer_text,
    compose,
    invert,
)
from .compiling import (
    CompileOptions,
    compile_clifford,
    compile_stabilizer_meas,
    compile_stabilizer_prep,
)
from .device import DeviceSpec
from .sampling import (
    SamplerSpec,
    sample_clifford_uniform,
    sample_layer,
    sample_stabilizer_state_uniform,
)
from .streams import stream

__all__ = [
    "ExperimentDesign",
    "BenchmarkCircuit",
    "generate_drb_circuit",
    "generate_crb_circuit",
    "generate_experiment",
    "DEFAULT_LENGTHS",
]

PROTOCOLS = ("DRB", "CRB")

# sampling envelope used throughout the reference experiments
DEFAULT_LENGTHS = (0, 5, 10, 15, 20, 25, 30)
DEFAULT_CIRCUITS_PER_LENGTH = 28
DEFAULT_SHOTS = 1024


@dataclass(frozen=True)
class ExperimentDesign:
    """Everything needed to regenerate an experiment bit for bit."""

    protocol: str
    device: DeviceSpec
    sampler: SamplerSpec | None = None
    lengths: tuple[int, ...] = DEFAULT_LENGTHS
    circuits_per_length: int = DEFAULT_CIRCUITS_PER_LENGTH
    shots: int = DEFAULT_SHOTS
    seed: int = 0
    compile_options: CompileOptions = field(default_factory=CompileOptions)

    def __post_init__(self):
        # every message starts with the name of the field at fault
        if self.protocol not in PROTOCOLS:
            raise ValueError(f"protocol must be one of {PROTOCOLS}")
        if self.protocol == "DRB" and self.sampler is None:
            raise ValueError("sampler is required by DRB designs")
        if self.protocol == "CRB" and self.sampler is not None:
            raise ValueError("sampler must be null or absent in CRB designs")
        lengths = tuple(int(m) for m in self.lengths)
        if not lengths:
            raise ValueError("lengths must hold at least one length")
        if any(m < 0 for m in lengths):
            raise ValueError("lengths must be nonnegative")
        if any(b <= a for a, b in zip(lengths, lengths[1:])):
            raise ValueError("lengths must be strictly increasing")
        object.__setattr__(self, "lengths", lengths)
        if self.circuits_per_length < 1:
            raise ValueError("circuits_per_length must be >= 1")
        if self.shots < 1:
            raise ValueError("shots must be >= 1")
        if self.seed < 0:
            raise ValueError(f"seed must be >= 0, got {self.seed}")


@dataclass(frozen=True)
class BenchmarkCircuit:
    """One generated circuit: prep, core and meas stages kept separate so
    the core layer sequence stays inspectable.

    ``target`` is the bitstring whose observation counts as success.
    ``sampled_layers`` records the core layers as text;
    ``element_cnots`` / ``element_depths`` hold the per-element
    compilation sizes for group-benchmark circuits.  ``segment_trials``
    counts the compile candidates evaluated for prep, core and meas
    (:attr:`CompileStats.trials`); it records how the circuit was found,
    is not written to the circuit file and takes no part in equality.
    """

    circuit_id: str
    protocol: str
    n: int
    length: int
    prep: Circuit
    core: Circuit
    meas: Circuit
    target: tuple[int, ...]
    seed: tuple[int, int, int]
    sampled_layers: tuple[str, ...] = ()
    element_cnots: tuple[int, ...] = ()
    element_depths: tuple[int, ...] = ()
    segment_trials: tuple[int, int, int] = field(default=(0, 0, 0), compare=False)

    @functools.cached_property
    def full_circuit(self) -> Circuit:
        """prep, core and meas as one circuit, built and validated once."""
        return self.prep.concat(self.core, self.meas)

    @property
    def target_text(self) -> str:
        """The target bitstring as text, qubit 0 first."""
        return "".join(str(b) for b in self.target)

    @property
    def target_bits(self) -> np.ndarray:
        return np.array(self.target, dtype=np.uint8)


def _check_composition(circ: BenchmarkCircuit):
    bits = StabilizerState.zero_state(circ.n).apply_circuit(circ.full_circuit).to_basis_bits()
    if bits is None or not np.array_equal(bits, circ.target_bits):
        raise RuntimeError(f"{circ.circuit_id}: composition does not reach the target bitstring")


def _circuit_id(protocol: str, m: int, index: int) -> str:
    return f"{protocol.lower()}_m{m:03d}_c{index:03d}"


def generate_drb_circuit(
    design: ExperimentDesign, m: int, rng: np.random.Generator, index: int = 0
) -> BenchmarkCircuit:
    """One direct-benchmark circuit of core length m: the state is drawn
    first, then the m layers."""
    if design.protocol != "DRB":
        raise ValueError("design is not a DRB design")
    device = design.device
    n = device.n
    psi = sample_stabilizer_state_uniform(n, rng)
    layers = [sample_layer(design.sampler, device, rng) for _ in range(m)]
    core = Circuit(n, tuple(layers))
    prep, prep_stats = compile_stabilizer_prep(psi, device, design.compile_options)
    state = psi.apply_circuit(core)
    meas, bits, meas_stats = compile_stabilizer_meas(state, device, design.compile_options)
    circ = BenchmarkCircuit(
        circuit_id=_circuit_id("DRB", m, index),
        protocol="DRB",
        n=n,
        length=m,
        prep=prep,
        core=core,
        meas=meas,
        target=tuple(int(b) for b in bits),
        seed=(design.seed, m, index),
        sampled_layers=tuple(_layer_text(layer) for layer in layers),
        segment_trials=(prep_stats.trials, 0, meas_stats.trials),
    )
    _check_composition(circ)
    return circ


def generate_crb_circuit(
    design: ExperimentDesign, m: int, rng: np.random.Generator, index: int = 0
) -> BenchmarkCircuit:
    """One group-benchmark circuit: m uniform elements plus the compiled
    inversion of their product (m+1 compiled elements total)."""
    if design.protocol != "CRB":
        raise ValueError("design is not a CRB design")
    device = design.device
    n = device.n
    elements = [sample_clifford_uniform(n, rng) for _ in range(m)]
    net = CliffordOp.identity(n)
    for op in elements:
        net = compose(op, net)
    elements.append(invert(net))

    subs = []
    cnots = []
    depths = []
    trials = 0
    for op in elements:
        sub, stats = compile_clifford(op, device, design.compile_options)
        subs.append(sub)
        cnots.append(stats.cnots)
        depths.append(stats.depth)
        trials += stats.trials
    circ = BenchmarkCircuit(
        circuit_id=_circuit_id("CRB", m, index),
        protocol="CRB",
        n=n,
        length=m,
        prep=Circuit(n, ()),
        core=Circuit(n, ()).concat(*subs),
        meas=Circuit(n, ()),
        target=(0,) * n,
        seed=(design.seed, m, index),
        element_cnots=tuple(cnots),
        element_depths=tuple(depths),
        segment_trials=(0, trials, 0),
    )
    _check_composition(circ)
    return circ


def generate_experiment(design: ExperimentDesign) -> tuple[list[BenchmarkCircuit], dict]:
    """All circuits of a design plus a manifest of ids, lengths, targets,
    per-circuit seed keys and, for each segment (prep, core, meas), its
    CNOT count, its depth and the compile candidates evaluated for it.

    Circuit (length, index) pairs map to independent child streams of the
    master seed, so generation can be parallelized or partially repeated
    without changing any circuit.
    """
    make = generate_drb_circuit if design.protocol == "DRB" else generate_crb_circuit
    circuits = []
    for m in design.lengths:
        for index in range(design.circuits_per_length):
            rng = stream(design.seed, m, index)
            circuits.append(make(design, m, rng, index=index))
    manifest = {
        "protocol": design.protocol,
        "n": design.device.n,
        "lengths": list(design.lengths),
        "circuits_per_length": design.circuits_per_length,
        "shots": design.shots,
        "master_seed": design.seed,
        "circuits": [
            {
                "id": c.circuit_id,
                "m": c.length,
                "target": c.target_text,
                "seed": list(c.seed),
                "segment_cnots": [seg.cnot_count for seg in (c.prep, c.core, c.meas)],
                "segment_depths": [seg.depth for seg in (c.prep, c.core, c.meas)],
                "segment_trials": list(c.segment_trials),
            }
            for c in circuits
        ],
    }
    return circuits, manifest
