"""Device descriptions: qubit count, directed CNOT connectivity, 1Q gate set.

CNOT availability is directional; an undirected link is present when either
orientation is declared.  The 1Q gate set is named by id and described by
its row of :data:`GATE_SETS`: "HPI" allows the gates I, H and P (phase),
"C24" allows the full single-qubit Clifford group as labels C0..C23 plus
the aliases I, X, Y, Z, H, P.
"""

from __future__ import annotations

from collections import deque
from dataclasses import dataclass

__all__ = [
    "DeviceSpec",
    "GATE_SETS",
    "GATE_SET_IDS",
    "pool_gate_names",
    "all_to_all",
    "ring",
    "ring_with_center",
    "ring_center_edges",
]


@dataclass(frozen=True)
class GateSet:
    """One 1Q gate set: ``names`` a device with it runs, ``pool`` the labels
    a sampler draws from (in their canonical order), and ``generators`` the
    gates compiled 1Q runs are spelled in."""

    names: frozenset[str]
    pool: tuple[str, ...]
    generators: tuple[str, ...]


_C24 = tuple(f"C{k}" for k in range(24))
GATE_SETS = {
    "HPI": GateSet(frozenset(("I", "H", "P")), ("I", "H", "P"), ("H", "P")),
    "C24": GateSet(frozenset((*_C24, "I", "X", "Y", "Z", "H", "P")), _C24, _C24),
}
GATE_SET_IDS = tuple(GATE_SETS)


def pool_gate_names(gate_set: str) -> tuple[str, ...]:
    """The 1Q gate labels a sampler draws from, in their canonical order."""
    if gate_set not in GATE_SETS:
        raise ValueError(f"unknown gate set {gate_set!r}")
    return GATE_SETS[gate_set].pool


@dataclass(frozen=True)
class DeviceSpec:
    """An n-qubit device with directed CNOT edges and a named 1Q gate set."""

    n: int
    edges: tuple[tuple[int, int], ...]
    gate_set: str = "C24"

    def __post_init__(self):
        if self.n < 1:
            raise ValueError("device needs at least one qubit")
        if self.gate_set not in GATE_SET_IDS:
            raise ValueError(f"gate_set must be one of {GATE_SET_IDS}, got {self.gate_set!r}")
        edges = tuple((int(a), int(b)) for a, b in self.edges)
        object.__setattr__(self, "edges", edges)
        seen = set()
        for a, b in edges:
            if a == b:
                raise ValueError(f"self-loop edge ({a}, {b})")
            if not (0 <= a < self.n and 0 <= b < self.n):
                raise ValueError(f"edge ({a}, {b}) out of range for n={self.n}")
            if (a, b) in seen:
                raise ValueError(f"duplicate edge ({a}, {b})")
            seen.add((a, b))
        links = [set() for _ in range(self.n)]
        for a, b in edges:
            links[a].add(b)
            links[b].add(a)
        object.__setattr__(self, "_neighbors", tuple(tuple(sorted(nbs)) for nbs in links))

    def allows_one_qubit_gate(self, name: str) -> bool:
        return name in GATE_SETS[self.gate_set].names

    def has_edge(self, control: int, target: int) -> bool:
        return (control, target) in self.edges

    def has_link(self, a: int, b: int) -> bool:
        return (a, b) in self.edges or (b, a) in self.edges

    def orientations(self, a: int, b: int) -> tuple[tuple[int, int], ...]:
        """Declared directed edges between the unordered pair {a, b}."""
        out = []
        if (a, b) in self.edges:
            out.append((a, b))
        if (b, a) in self.edges:
            out.append((b, a))
        return tuple(out)

    def neighbors(self, q: int) -> tuple[int, ...]:
        return self._neighbors[q]

    def _search(self, source: int) -> dict[int, tuple[int, int]]:
        """(parent, distance) of every qubit reachable from ``source`` along
        undirected links, by breadth-first search visiting lower-indexed
        neighbors first; the source is its own parent."""
        found = {source: (source, 0)}
        queue = deque([source])
        while queue:
            q = queue.popleft()
            for nb in self._neighbors[q]:
                if nb not in found:
                    found[nb] = (q, found[q][1] + 1)
                    queue.append(nb)
        return found

    def is_connected(self) -> bool:
        return len(self._search(0)) == self.n

    def shortest_path(self, a: int, b: int) -> list[int]:
        """Qubit sequence from a to b along undirected links (BFS, ties to
        the lower-indexed neighbor)."""
        found = self._search(a)
        if b not in found:
            raise ValueError(f"no path between qubits {a} and {b}")
        path = [b]
        while path[-1] != a:
            path.append(found[path[-1]][0])
        return path[::-1]

    def eccentricity_order(self) -> list[int]:
        """Qubits from most to least peripheral, ties by index."""
        eccs = []
        for q in range(self.n):
            found = self._search(q)
            ecc = max(d for _, d in found.values()) if len(found) == self.n else self.n
            eccs.append((-(ecc), q))
        return [q for _, q in sorted(eccs)]


def all_to_all(n: int, gate_set: str = "C24") -> DeviceSpec:
    edges = tuple((a, b) for a in range(n) for b in range(n) if a != b)
    return DeviceSpec(n, edges, gate_set)


def ring(n: int, gate_set: str = "C24") -> DeviceSpec:
    """A directed ring: CNOT from each qubit to its successor only."""
    if n < 2:
        return DeviceSpec(n, (), gate_set)
    if n == 2:
        return DeviceSpec(n, ((0, 1),), gate_set)
    edges = tuple((i, (i + 1) % n) for i in range(n))
    return DeviceSpec(n, edges, gate_set)


def ring_center_edges(ring_size: int = 4) -> tuple[tuple[tuple[int, int], ...], tuple[tuple[int, int], ...]]:
    """(ring edges, center edges) for the ring-plus-central-qubit layout."""
    ring_edges = tuple((i, (i + 1) % ring_size) for i in range(ring_size))
    center = ring_size
    center_edges = tuple((center, i) for i in range(ring_size))
    return ring_edges, center_edges


def ring_with_center(ring_size: int = 4, gate_set: str = "HPI") -> DeviceSpec:
    """Qubits 0..ring_size-1 on a ring, plus a hub wired to each of them."""
    ring_edges, center_edges = ring_center_edges(ring_size)
    return DeviceSpec(ring_size + 1, ring_edges + center_edges, gate_set)
