"""Uniform sampling of symplectic matrices, Cliffords and stabilizer states,
plus the random-layer distributions used to drive benchmarking circuits.

Uniform symplectic sampling is index-based: the group of binary symplectic
matrices on 2n bits has order prod_{j=1..n} (4^j - 1) 2^(2j-1), and each
index below that order maps to a distinct element through a transvection
construction (map e1 to an arbitrary nonzero vector, fix the conjugate
basis vector with one more transvection, recurse on the direct summand).
Drawing the index uniformly therefore draws the element uniformly.  The
construction runs on Python-int rows in the interleaved packing, bit 2i
x_i and bit 2i+1 z_i, so the index's bits are a vector as they stand and
the symplectic form <u, h> is the parity of u AND h with each (x_i, z_i)
pair swapped.  The finished rows are unpacked once and permuted into the
(x | z) packing.  A uniform stabilizer state is |0..0> pushed through a
uniform Clifford, read straight off it: generator k is the image of Z_k,
column n + k of the Clifford's (s, v).

A layer sampler fills every qubit a layer's CNOTs leave free with an
independent uniform gate from its pool, so its law is fixed by the
probability of each placement P, a set of k disjoint declared CNOT edges:

- pcnot: 1 - p_cnot for no CNOT, p_cnot / |E| for each single edge;
- category: probabilities[0] for no CNOT; for one edge, the sum of
  probabilities[j] / |edge_groups[j-1]| over the groups that hold it;
- pairing: the product of p_cnot / |orientations of the pair| over P, times
  (1 - p_cnot)^(n//2 - k) for the other pairs, times the share of qubit
  pairings that hold P's pairs, pairings(n - 2k) / pairings(n).

A layer then has its placement's probability times |pool|^-(n - 2k).
``SamplerSpec.check_device`` rejects a sampler that could draw a layer the
device cannot run: a pool the device lacks, a category edge it does not
declare, p_cnot > 0 with no edges (pcnot) or with two unlinked qubits
(pairing).  Configs run it when the design is built, so each of these is a
config error naming the field.
"""

from __future__ import annotations

import itertools
import math
import numbers
from dataclasses import dataclass
from typing import ClassVar, Iterable, Sequence

import numpy as np

from .clifford import CliffordOp, GateLabel, Layer, StabilizerState, _unpack_rows
from .device import GATE_SET_IDS, DeviceSpec, pool_gate_names

__all__ = [
    "symplectic_group_order",
    "symplectic_from_index",
    "sample_symplectic_uniform",
    "sample_clifford_uniform",
    "sample_stabilizer_state_uniform",
    "SamplerSpec",
    "PCnotSampler",
    "CategorySampler",
    "PairingSampler",
    "SAMPLERS",
    "sample_layer",
    "layer_probability",
    "cnot_placement_distribution",
]


# ---------------------------------------------------------------------------
# Group sizes


def symplectic_group_order(n: int) -> int:
    order = 1
    for j in range(1, n + 1):
        order *= (4 ** j - 1) << (2 * j - 1)
    return order


# ---------------------------------------------------------------------------
# Index-based symplectic construction on int rows (interleaved packing)


def _swap_xz(h: int, n: int) -> int:
    """h with x_i and z_i exchanged on every qubit, so that the symplectic
    form <u, h> is the parity of ``u & _swap_xz(h, n)``."""
    even = ((1 << 2 * n) - 1) // 3  # bits 0, 2, 4, ...
    return (h & even) << 1 | (h >> 1) & even


def _apply_transvections(rows: list[int], hs: Iterable[int], n: int) -> list[int]:
    """The rows after Z_h(v) = v + <v, h> h for each h of ``hs`` in turn."""
    for h in hs:
        w = _swap_xz(h, n)
        rows = [v ^ h if (v & w).bit_count() & 1 else v for v in rows]
    return rows


def _find_transvections(x: int, y: int, n: int) -> tuple[int, int]:
    """Vectors (h1, h2) with Z_h2(Z_h1(x)) = y for nonzero x, y.

    Zero h means the identity map.  Uses the fact that any two distinct
    nonzero 2-bit pairs have symplectic inner product 1.
    """
    if x == y:
        return 0, 0
    if (x & _swap_xz(y, n)).bit_count() & 1:
        return x ^ y, 0
    pairs = [(x >> 2 * i & 3, y >> 2 * i & 3) for i in range(n)]
    for i, (a, b) in enumerate(pairs):
        if a and b:  # z's pair differs from both, or from a when a == b
            z = (a ^ b or (2 if a == 3 else 3)) << 2 * i
            return x ^ z, y ^ z
    z = 0
    for side in (0, 1):
        i, a = next((i, pair[side]) for i, pair in enumerate(pairs) if pair[side])
        z |= (2 if a == 3 else 3 - a) << 2 * i
    return x ^ z, y ^ z


def _symplectic_interleaved(index: int, n: int) -> list[int]:
    """Rows of the index-th symplectic matrix, interleaved packing."""
    nn = 2 * n
    s = (1 << nn) - 1
    f1 = index % s + 1
    index //= s
    t1, t2 = _find_transvections(1, f1, n)
    bits = index & ((1 << (nn - 1)) - 1)
    index >>= nn - 1
    (h0,) = _apply_transvections([1 | bits >> 1 << 2], (t1, t2), n)
    inner = _symplectic_interleaved(index, n - 1) if n > 1 else []
    rows = [1, 2] + [row << 2 for row in inner]
    return _apply_transvections(rows, (t1, t2, h0, 0 if bits & 1 else f1), n)


def symplectic_from_index(index: int, n: int) -> np.ndarray:
    """The index-th binary symplectic matrix in (x | z) packing.

    Bijective for 0 <= index < symplectic_group_order(n).
    """
    if not 0 <= index < symplectic_group_order(n):
        raise ValueError("index out of range")
    g = _unpack_rows(_symplectic_interleaved(int(index), n), 2 * n)
    # axes (qubit, x/z) of rows and columns to (x/z, qubit)
    return g.reshape(n, 2, n, 2).transpose(1, 0, 3, 2).reshape(2 * n, 2 * n)


def _uniform_below(bound: int, rng: np.random.Generator) -> int:
    nbits = bound.bit_length()
    nchunks = (nbits + 31) // 32
    mask = (1 << nbits) - 1
    while True:
        value = 0
        for _ in range(nchunks):
            value = (value << 32) | int(rng.integers(0, 1 << 32, dtype=np.uint64))
        value &= mask
        if value < bound:
            return value


def sample_symplectic_uniform(n: int, rng: np.random.Generator) -> np.ndarray:
    return symplectic_from_index(_uniform_below(symplectic_group_order(n), rng), n)


def sample_clifford_uniform(n: int, rng: np.random.Generator) -> CliffordOp:
    """Uniform over the 4^n * |Sp(2n, 2)| Cliffords modulo global phase."""
    s = sample_symplectic_uniform(n, rng)
    parity = np.einsum("ij,ij->j", s[:n].astype(np.int64), s[n:].astype(np.int64)) % 2
    v = parity + 2 * rng.integers(0, 2, size=2 * n, dtype=np.int64)
    return CliffordOp(n, s, v, validate=False)


def sample_stabilizer_state_uniform(n: int, rng: np.random.Generator) -> StabilizerState:
    """Uniform over all 2^n prod_k (2^k + 1) stabilizer states.

    The Clifford group acts transitively on stabilizer states with
    stabilizer subgroups of equal size, so pushing |0..0> through a
    uniform Clifford is uniform.  Generator k of the image is the image
    of Z_k: column n + k of the Clifford's (s, v).
    """
    c = sample_clifford_uniform(n, rng)
    return StabilizerState.from_rows(c.s[:, n:].T, c.v[n:])


# ---------------------------------------------------------------------------
# Layer samplers


def _is_number(value, kind=numbers.Real) -> bool:
    return isinstance(value, kind) and not isinstance(value, bool)


def _is_sequence(value) -> bool:
    return isinstance(value, (list, tuple))


@dataclass(frozen=True)
class SamplerSpec:
    """Base for layer-distribution descriptions; ``pool`` names the 1Q set.

    Each subclass holds its whole law in ``_draw`` (one layer's gates) and
    ``placement_probability``.  Every ValueError from construction or
    ``check_device`` starts with the name of the field at fault.
    """

    kind: ClassVar[str]
    max_cnots: ClassVar[float] = math.inf  # most CNOTs one layer can hold
    pool: str = "C24"

    def __post_init__(self):
        if self.pool not in GATE_SET_IDS:
            raise ValueError(f"pool must be one of {GATE_SET_IDS}, got {self.pool!r}")

    def check_device(self, device: DeviceSpec) -> None:
        """Raise ValueError unless ``device`` runs every layer the sampler
        can draw."""
        _check_pool(self, device)

    def _draw(self, device: DeviceSpec, names: Sequence[str], rng: np.random.Generator) -> list[GateLabel]:
        raise NotImplementedError

    def placement_probability(self, device: DeviceSpec, placement: tuple[tuple[int, int], ...]) -> float:
        """Chance that a draw's CNOTs sit on exactly ``placement``, a sorted
        tuple of at most ``max_cnots`` disjoint declared edges (laws in the
        module docstring)."""
        raise NotImplementedError


@dataclass(frozen=True)
class PCnotSampler(SamplerSpec):
    """With probability p_cnot the layer has one uniform CNOT (uniform over
    the device's directed edges) and independent uniform pool gates on all
    other qubits; otherwise pool gates on every qubit."""

    kind: ClassVar[str] = "pcnot"
    max_cnots: ClassVar[float] = 1
    p_cnot: float = 0.0

    def __post_init__(self):
        super().__post_init__()
        if not (_is_number(self.p_cnot) and 0 <= self.p_cnot <= 1):
            raise ValueError(f"p_cnot must be a number in [0, 1], got {self.p_cnot!r}")

    def check_device(self, device: DeviceSpec) -> None:
        super().check_device(device)
        if self.p_cnot > 0 and not device.edges:
            raise ValueError("p_cnot is positive on a device without CNOT edges")

    def _draw(self, device, names, rng):
        if rng.random() < self.p_cnot:
            if not device.edges:
                raise ValueError("p_cnot > 0 on a device without CNOT edges")
            c, t = device.edges[int(rng.integers(len(device.edges)))]
            rest = set(range(device.n)) - {c, t}
            return [GateLabel("CNOT", (c, t))] + _fill_one_qubit(rest, names, rng)
        return _fill_one_qubit(range(device.n), names, rng)

    def placement_probability(self, device, placement):
        return self.p_cnot / len(device.edges) if placement else 1.0 - self.p_cnot


@dataclass(frozen=True)
class CategorySampler(SamplerSpec):
    """Pick a layer category from ``probabilities``: category 0 is all-1Q,
    category k >= 1 places one uniform CNOT from ``edge_groups[k-1]``."""

    kind: ClassVar[str] = "category"
    max_cnots: ClassVar[float] = 1
    probabilities: tuple[float, ...] = (1.0,)
    edge_groups: tuple[tuple[tuple[int, int], ...], ...] = ()

    def __post_init__(self):
        super().__post_init__()
        probs, groups = self.probabilities, self.edge_groups
        if not (_is_sequence(probs) and all(_is_number(p) and 0 <= p <= 1 for p in probs)):
            raise ValueError(f"probabilities must be a list of numbers in [0, 1], got {probs!r}")
        if not (_is_sequence(groups) and all(
                _is_sequence(grp) and grp and all(_is_sequence(e) and len(e) == 2 for e in grp)
                and all(_is_number(q, numbers.Integral) for e in grp for q in e) for grp in groups)):
            raise ValueError("edge_groups must be nonempty lists of [control, target] integer pairs")
        object.__setattr__(self, "probabilities", tuple(float(p) for p in probs))
        object.__setattr__(self, "edge_groups", tuple(tuple((int(a), int(b)) for a, b in grp) for grp in groups))
        if len(self.probabilities) != len(self.edge_groups) + 1:
            raise ValueError("probabilities must have one entry per category (all-1Q first)")
        if abs(sum(self.probabilities) - 1.0) > 1e-9:
            raise ValueError("probabilities must sum to 1")
        if any(len(set(grp)) < len(grp) for grp in self.edge_groups):
            raise ValueError("edge_groups repeats an edge within a group")

    def check_device(self, device: DeviceSpec) -> None:
        super().check_device(device)
        for c, t in (edge for grp in self.edge_groups for edge in grp):
            if not device.has_edge(c, t):
                raise ValueError(f"edge_groups holds ({c}, {t}), which the device does not declare")

    def _draw(self, device, names, rng):
        u = rng.random()
        acc = 0.0
        category = len(self.probabilities) - 1
        for k, p in enumerate(self.probabilities):
            acc += p
            if u < acc:
                category = k
                break
        if category == 0:
            return _fill_one_qubit(range(device.n), names, rng)
        group = self.edge_groups[category - 1]
        c, t = group[int(rng.integers(len(group)))]
        if not device.has_edge(c, t):
            raise ValueError(f"category edge ({c}, {t}) not declared by the device")
        rest = set(range(device.n)) - {c, t}
        return [GateLabel("CNOT", (c, t))] + _fill_one_qubit(rest, names, rng)

    def placement_probability(self, device, placement):
        if not placement:
            return self.probabilities[0]
        groups = zip(self.probabilities[1:], self.edge_groups)
        return sum(p / len(group) for p, group in groups if placement[0] in group)


@dataclass(frozen=True)
class PairingSampler(SamplerSpec):
    """Draw a uniformly random pairing of the qubits (one left out when n
    is odd); each pair becomes a CNOT with probability p_cnot (orientation
    uniform over the declared directed edges for that pair), everything
    else gets pool gates.  A pair drawn for a CNOT must be linked."""

    kind: ClassVar[str] = "pairing"
    p_cnot: float = 0.0

    def __post_init__(self):
        super().__post_init__()
        if not (_is_number(self.p_cnot) and 0 <= self.p_cnot <= 1):
            raise ValueError(f"p_cnot must be a number in [0, 1], got {self.p_cnot!r}")

    def check_device(self, device: DeviceSpec) -> None:
        super().check_device(device)
        pairs = itertools.combinations(range(device.n), 2)
        unlinked = [pair for pair in pairs if not device.has_link(*pair)]
        if self.p_cnot > 0 and unlinked:
            raise ValueError(f"p_cnot is positive but a pairing can draw qubits {unlinked[0]}, "
                             "which have no CNOT edge")

    def _draw(self, device, names, rng):
        n = device.n
        perm = rng.permutation(n)
        pairs = sorted(
            (tuple(sorted((int(perm[2 * i]), int(perm[2 * i + 1])))) for i in range(n // 2)),
            key=lambda p: p[0],
        )
        leftover = int(perm[-1]) if n % 2 else None
        gates: list[GateLabel] = []
        for a, b in pairs:
            if rng.random() < self.p_cnot:
                orients = device.orientations(a, b)
                if not orients:
                    raise ValueError(f"pair ({a}, {b}) drawn for a CNOT but no edge is declared")
                c, t = orients[int(rng.integers(len(orients)))]
                gates.append(GateLabel("CNOT", (c, t)))
            else:
                gates.extend(_fill_one_qubit((a, b), names, rng))
        if leftover is not None:
            gates.extend(_fill_one_qubit((leftover,), names, rng))
        return gates

    def placement_probability(self, device, placement):
        prob = 1.0
        for c, t in placement:
            prob *= self.p_cnot / (1 + device.has_edge(t, c))  # (c, t) is declared
        k = len(placement)
        share = _pairings(device.n - 2 * k) / _pairings(device.n)
        return prob * share * (1.0 - self.p_cnot) ** (device.n // 2 - k)


SAMPLERS = {cls.kind: cls for cls in (PCnotSampler, CategorySampler, PairingSampler)}


def _pairings(m: int) -> int:
    """Pairings of m qubits, one of them left out when m is odd."""
    if m % 2:
        return m * _pairings(m - 1)
    return math.prod(range(m - 1, 0, -2))


def _check_pool(spec: SamplerSpec, device: DeviceSpec) -> tuple[str, ...]:
    names = pool_gate_names(spec.pool)
    if not all(device.allows_one_qubit_gate(name) for name in names):
        raise ValueError(f"pool is {spec.pool!r}, which a {device.gate_set!r} device lacks")
    return names


def _fill_one_qubit(qubits: Iterable[int], names: Sequence[str], rng: np.random.Generator) -> list[GateLabel]:
    return [GateLabel(names[int(rng.integers(len(names)))], (q,)) for q in sorted(qubits)]


def sample_layer(spec: SamplerSpec, device: DeviceSpec, rng: np.random.Generator) -> Layer:
    """One layer from the sampler's distribution, gates sorted by qubit."""
    gates = spec._draw(device, _check_pool(spec, device), rng)
    return tuple(sorted(gates, key=lambda g: min(g.qubits)))


def _placement(layer: Layer, device: DeviceSpec, names: Sequence[str]):
    """The layer's CNOT edges, sorted; None unless it covers every qubit
    once with declared CNOTs and pool gates."""
    cnots = []
    seen: set[int] = set()
    for g in layer:
        if any(q in seen for q in g.qubits):
            return None
        seen.update(g.qubits)
        if g.name == "CNOT" and device.has_edge(*g.qubits):
            cnots.append(g.qubits)
        elif g.name not in names:
            return None
    if len(seen) != device.n:
        return None
    return tuple(sorted(cnots))


def layer_probability(spec: SamplerSpec, device: DeviceSpec, layer: Layer) -> float:
    """Exact probability of drawing ``layer`` from the sampler; 0 when
    unreachable."""
    names = _check_pool(spec, device)
    placement = _placement(layer, device, names)
    if placement is None or len(placement) > spec.max_cnots:
        return 0.0
    return spec.placement_probability(device, placement) * len(names) ** -(device.n - 2 * len(placement))


def cnot_placement_distribution(spec: SamplerSpec, device: DeviceSpec) -> list[tuple[tuple[tuple[int, int], ...], float]]:
    """The distribution over CNOT placements (sorted tuples of directed
    edges) induced by the sampler, marginalized over 1Q gate choices, in
    lexicographic order.

    Used for exact layer-averaged error rates: with per-qubit 1Q error
    rates, a layer's error probability depends only on where the CNOTs sit.
    """
    spec.check_device(device)
    edges = sorted(device.edges)
    out = []

    def grow(placement, start, used):
        p = spec.placement_probability(device, placement)
        if p > 0:
            out.append((placement, p))
        if len(placement) == spec.max_cnots:
            return
        for i in range(start, len(edges)):
            c, t = edges[i]
            if c not in used and t not in used:
                grow(placement + ((c, t),), i + 1, used | {c, t})

    grow((), 0, frozenset())
    return out
