"""Pauli and Clifford operators in the binary symplectic representation.

A Pauli operator on n qubits is stored as ``i**phase * X^x * Z^z`` where
``x`` and ``z`` are length-n bit vectors and, on every qubit, the X factor
stands to the left of the Z factor.  A Clifford is stored as a 2n x 2n
binary symplectic matrix ``s`` plus a length-2n phase vector ``v``:
conjugating the generator W(e_j) (a single X or Z) yields
``i**v[j] * W(s @ e_j)``.  Global phases are quotiented out by this
parametrization, so equality of (s, v) is equality of the physical map.

Bit vectors are packed as (x | z): indices [0, n) are X components and
[n, 2n) are Z components.

Circuits are tracked with one in-place kernel, :class:`PauliRows`, in the
manner of the CHP tableau (Aaronson & Gottesman, quant-ph/0406196).  It
holds a stack of Pauli rows ``i**r[k] * W(b[k])``: ``b`` is a (rows, 2n)
uint8 array in the (x | z) packing, so ``b[:, :n]`` and ``b[:, n:]`` are
the x and z bit columns, and ``r`` is an int64 vector of i-powers in the
convention above (X left of Z), reduced mod 4 when read out.  A gate
conjugates every row at once through a lookup table indexed by the row's
bits on the gate's qubits, ``e = sum_j c_j 2**j`` over the local (x | z)
bits c: entry e holds the image's local bits and the power of i the image
adds to the row's phase.  A 1Q gate's table has 4 entries and CNOT's 16.
The tables are built on first use from :func:`standard_gate`'s local
(s, v), so gate definitions live in one place.  The Clifford of a circuit
is the 2n identity rows W(e_j) carried through it, read back as the
columns of (s, v).

A :class:`StabilizerState` stores its n generators as one read-only stack
in the same layout: ``b`` is the (n, 2n) (x | z) matrix and ``r`` the
phases mod 4, and ``generators`` builds PauliOps from them only when
asked.  A circuit runs through the row kernel.  Canonicalizing brings
``b`` to reduced row echelon form over GF(2) and takes each new row's
phase from the elimination transform by one quadratic form,
:func:`_product_phases`, which also gives the phases of a Clifford's
images of products of generators.
"""

from __future__ import annotations

import functools
from dataclasses import dataclass
from typing import Iterable, Sequence

import numpy as np

__all__ = [
    "PauliOp",
    "PauliRows",
    "CliffordOp",
    "StabilizerState",
    "GateLabel",
    "Circuit",
    "standard_gate",
    "one_qubit_clifford_table",
    "compose",
    "invert",
    "conjugate_pauli",
    "apply_clifford",
    "is_eigenstate",
    "circuit_to_clifford",
    "layer_to_clifford",
]

_PHASE_STR = {0: "+", 1: "+i", 2: "-", 3: "-i"}


def _bits(a: Sequence[int] | np.ndarray, length: int, name: str) -> np.ndarray:
    arr = np.asarray(a, dtype=np.uint8) % 2
    if arr.shape != (length,):
        raise ValueError(f"{name} must have shape ({length},), got {arr.shape}")
    arr.setflags(write=False)
    return arr


class PauliOp:
    """An n-qubit Pauli operator ``i**phase * X^x * Z^z``."""

    __slots__ = ("n", "x", "z", "phase")

    def __init__(self, n: int, x: Sequence[int] | np.ndarray, z: Sequence[int] | np.ndarray, phase: int = 0):
        if n < 1:
            raise ValueError("n must be positive")
        object.__setattr__(self, "n", int(n))
        object.__setattr__(self, "x", _bits(x, n, "x"))
        object.__setattr__(self, "z", _bits(z, n, "z"))
        object.__setattr__(self, "phase", int(phase) % 4)

    def __setattr__(self, name, value):  # immutable
        raise AttributeError("PauliOp is immutable")

    @classmethod
    def identity(cls, n: int) -> "PauliOp":
        return cls(n, np.zeros(n, dtype=np.uint8), np.zeros(n, dtype=np.uint8), 0)

    @classmethod
    def from_label(cls, label: str) -> "PauliOp":
        """Parse e.g. ``"XIZ"``, ``"-YZ"`` or ``"+iXX"`` (sign prefix optional)."""
        s = label.strip()
        phase = 0
        for prefix, ph in (("-i", 3), ("+i", 1), ("i", 1), ("-", 2), ("+", 0)):
            if s.startswith(prefix):
                phase = ph
                s = s[len(prefix):]
                break
        if not s or any(c not in "IXYZ" for c in s):
            raise ValueError(f"bad Pauli label {label!r}")
        x = np.array([c in "XY" for c in s], dtype=np.uint8)
        z = np.array([c in "ZY" for c in s], dtype=np.uint8)
        # Each Y contributes XZ = -iY, so add one phase unit per Y.
        phase = (phase + int(np.count_nonzero(x & z))) % 4
        return cls(len(s), x, z, phase)

    @property
    def vec(self) -> np.ndarray:
        """The (x | z) bit vector of length 2n."""
        return np.concatenate([self.x, self.z])

    @property
    def weight(self) -> int:
        return int(np.count_nonzero(self.x | self.z))

    @property
    def is_identity(self) -> bool:
        return self.weight == 0 and self.phase == 0

    @property
    def is_hermitian(self) -> bool:
        return self.phase % 2 == int(self.x @ self.z) % 2

    def commutes(self, other: "PauliOp") -> bool:
        if self.n != other.n:
            raise ValueError("qubit-count mismatch")
        form = (int(self.x @ other.z) + int(self.z @ other.x)) % 2
        return form == 0

    def __mul__(self, other: "PauliOp") -> "PauliOp":
        if self.n != other.n:
            raise ValueError("qubit-count mismatch")
        # W(a) W(b) = i**(2 a_z.b_x) W(a xor b): move b's X block past a's Z block.
        phase = (self.phase + other.phase + 2 * int(self.z @ other.x)) % 4
        return PauliOp(self.n, self.x ^ other.x, self.z ^ other.z, phase)

    def __eq__(self, other) -> bool:
        if not isinstance(other, PauliOp):
            return NotImplemented
        return (
            self.n == other.n
            and self.phase == other.phase
            and bool(np.array_equal(self.x, other.x))
            and bool(np.array_equal(self.z, other.z))
        )

    def __hash__(self) -> int:
        return hash((self.n, self.phase, self.x.tobytes(), self.z.tobytes()))

    def __repr__(self) -> str:
        letters = "".join("IXZY"[int(xi) + 2 * int(zi)] for xi, zi in zip(self.x, self.z))
        # Display phase relative to the letters: XZ = -iY on each qubit with both bits.
        disp = (self.phase - int(np.count_nonzero(self.x & self.z))) % 4
        return _PHASE_STR[disp] + letters


def _product_phases(b: np.ndarray, r: np.ndarray, c: np.ndarray) -> np.ndarray:
    """Phase exponents of the products of the rows ``i**r[k] * W(b[k])``
    that each 0/1 selector along the last axis of ``c`` picks, multiplied
    in index order.

    Moving each row's X part past the Z parts of the earlier rows costs
    i**2 per overlap, so the exponent is the quadratic form
    ``c.r + 2 c^T triu(B_z B_x^T, 1) c`` (Dehaene & De Moor,
    quant-ph/0304125).
    """
    n = b.shape[1] // 2
    b = b.astype(np.int64)
    c = np.asarray(c, dtype=np.int64)
    form = np.triu(b[:, n:] @ b[:, :n].T, 1)
    return (c @ r + 2 * ((c @ form) * c).sum(axis=-1)) % 4


def _lambda_matrix(n: int) -> np.ndarray:
    lam = np.zeros((2 * n, 2 * n), dtype=np.uint8)
    lam[:n, n:] = np.eye(n, dtype=np.uint8)
    lam[n:, :n] = np.eye(n, dtype=np.uint8)
    return lam


class CliffordOp:
    """An n-qubit Clifford as a symplectic matrix ``s`` and phase vector ``v``.

    Column j of ``s`` is the (x | z) vector of the image of W(e_j) under
    conjugation and ``v[j]`` is the accompanying power of i.  Validity
    requires ``s.T @ Lambda @ s = Lambda`` over GF(2) and, per column,
    ``v[j] = x_img . z_img  (mod 2)`` so the image is Hermitian.
    """

    __slots__ = ("n", "s", "v")

    def __init__(self, n: int, s: np.ndarray, v: Sequence[int] | np.ndarray, validate: bool = True):
        if n < 1:
            raise ValueError("n must be positive")
        smat = np.asarray(s, dtype=np.uint8) % 2
        if smat.shape != (2 * n, 2 * n):
            raise ValueError(f"s must have shape ({2*n}, {2*n}), got {smat.shape}")
        vvec = np.asarray(v, dtype=np.int64) % 4
        if vvec.shape != (2 * n,):
            raise ValueError(f"v must have shape ({2*n},), got {vvec.shape}")
        smat.setflags(write=False)
        vvec.setflags(write=False)
        object.__setattr__(self, "n", int(n))
        object.__setattr__(self, "s", smat)
        object.__setattr__(self, "v", vvec)
        if validate and not self.is_valid():
            raise ValueError("(s, v) is not a valid Clifford: s not symplectic or v parity wrong")

    def __setattr__(self, name, value):
        raise AttributeError("CliffordOp is immutable")

    @classmethod
    def identity(cls, n: int) -> "CliffordOp":
        return cls(n, np.eye(2 * n, dtype=np.uint8), np.zeros(2 * n, dtype=np.int64), validate=False)

    def is_valid(self) -> bool:
        n = self.n
        lam = _lambda_matrix(n)
        if not np.array_equal((self.s.T.astype(np.int64) @ lam @ self.s) % 2, lam):
            return False
        parity = np.einsum("ij,ij->j", self.s[:n].astype(np.int64), self.s[n:].astype(np.int64)) % 2
        return bool(np.all(self.v % 2 == parity))

    def _phase_of(self, c: np.ndarray) -> np.ndarray:
        """Phase exponents of the images of the phase-free Paulis W(c), one
        per (x | z) vector along the last axis of ``c``.

        W(c) is the product of the generators in c's support in index order,
        so its image is the ordered product of the columns' images.
        """
        return _product_phases(self.s.T, self.v, c)

    def conjugate_pauli(self, p: PauliOp) -> PauliOp:
        """Return U p U^dagger for this Clifford U."""
        if p.n != self.n:
            raise ValueError("qubit-count mismatch")
        n = self.n
        vec = p.vec
        image = (self.s.astype(np.int64) @ vec) % 2
        phase = p.phase + int(self._phase_of(vec))
        return PauliOp(n, image[:n].astype(np.uint8), image[n:].astype(np.uint8), phase)

    def compose(self, other: "CliffordOp") -> "CliffordOp":
        """Return self after other (``other`` acts first)."""
        if self.n != other.n:
            raise ValueError("qubit-count mismatch")
        s = (self.s.astype(np.int64) @ other.s.astype(np.int64)) % 2
        v = (other.v + self._phase_of(other.s.T)) % 4
        return CliffordOp(self.n, s.astype(np.uint8), v, validate=False)

    def invert(self) -> "CliffordOp":
        n = self.n
        lam = _lambda_matrix(n)
        s_inv = (lam @ self.s.T.astype(np.int64) @ lam) % 2
        v = -self._phase_of(s_inv.T) % 4
        return CliffordOp(n, s_inv.astype(np.uint8), v, validate=False)

    @property
    def is_identity(self) -> bool:
        return bool(np.array_equal(self.s, np.eye(2 * self.n, dtype=np.uint8)) and np.all(self.v == 0))

    @property
    def is_pauli(self) -> bool:
        """True when the action is conjugation by a Pauli (s is the identity)."""
        return bool(np.array_equal(self.s, np.eye(2 * self.n, dtype=np.uint8)))

    def pauli_part(self) -> PauliOp:
        """For an s = identity Clifford, the Pauli whose conjugation it equals."""
        if not self.is_pauli:
            raise ValueError("Clifford is not a Pauli conjugation")
        n = self.n
        # Conjugation by W(q) flips the sign of W(e_j) iff <q, e_j> = 1, so
        # v[j] = 2 <q, e_j> and q = Lambda (v / 2).
        half = (self.v // 2).astype(np.uint8)
        q = (_lambda_matrix(n).astype(np.int64) @ half) % 2
        x = q[:n].astype(np.uint8)
        z = q[n:].astype(np.uint8)
        return PauliOp(n, x, z, int(x @ z) % 2)

    def __eq__(self, other) -> bool:
        if not isinstance(other, CliffordOp):
            return NotImplemented
        return (
            self.n == other.n
            and bool(np.array_equal(self.s, other.s))
            and bool(np.array_equal(self.v, other.v))
        )

    def __hash__(self) -> int:
        return hash((self.n, self.s.tobytes(), self.v.tobytes()))

    def __repr__(self) -> str:
        return f"CliffordOp(n={self.n}, s={self.s.tolist()}, v={self.v.tolist()})"


# ---------------------------------------------------------------------------
# Standard gates


def _embed(n: int, qubits: tuple[int, ...], s_local: np.ndarray, v_local: np.ndarray) -> CliffordOp:
    k = len(qubits)
    idx = np.array([*qubits, *(n + q for q in qubits)], dtype=np.intp)
    s = np.eye(2 * n, dtype=np.uint8)
    s[np.ix_(idx, idx)] = s_local
    v = np.zeros(2 * n, dtype=np.int64)
    v[idx] = v_local
    return CliffordOp(n, s, v, validate=False)


_ONE_QUBIT_GATES: dict[str, tuple[tuple[tuple[int, int], tuple[int, int]], tuple[int, int]]] = {
    # name: (s rows ((x_of_X, x_of_Z), (z_of_X, z_of_Z)), (v_X, v_Z))
    "I": (((1, 0), (0, 1)), (0, 0)),
    "X": (((1, 0), (0, 1)), (0, 2)),
    "Y": (((1, 0), (0, 1)), (2, 2)),
    "Z": (((1, 0), (0, 1)), (2, 0)),
    "H": (((0, 1), (1, 0)), (0, 0)),
    "P": (((1, 0), (1, 1)), (1, 0)),
}

_CNOT_S = np.array(
    # columns: images of X_c, X_t, Z_c, Z_t with local order (control, target)
    [
        [1, 0, 0, 0],
        [1, 1, 0, 0],
        [0, 0, 1, 1],
        [0, 0, 0, 1],
    ],
    dtype=np.uint8,
)


@functools.cache
def one_qubit_clifford_table() -> tuple[CliffordOp, ...]:
    """The 24 single-qubit Cliffords, ordered lexicographically by (s, v).

    The label ``C<k>`` refers to position k in this tuple.  The identity
    sits at C8.  Products over positions follow :func:`compose`:
    ``product[a][b]`` is the position of C<a> after C<b> (C<b> acts first).
    """
    ops = []
    for flat in sorted(
        (a, b, c, d)
        for a in (0, 1)
        for b in (0, 1)
        for c in (0, 1)
        for d in (0, 1)
        if (a * d + b * c) % 2 == 1
    ):
        a, b, c, d = flat
        s = np.array([[a, b], [c, d]], dtype=np.uint8)
        p0 = (a * c) % 2
        p1 = (b * d) % 2
        for v in sorted((v0, v1) for v0 in (p0, p0 + 2) for v1 in (p1, p1 + 2)):
            ops.append(CliffordOp(1, s, np.array(v, dtype=np.int64), validate=False))
    return tuple(ops)


def standard_gate(name: str, qubits: tuple[int, ...] | Sequence[int], n: int) -> CliffordOp:
    """The CliffordOp of a named gate acting on ``qubits`` within n qubits.

    Recognized names: I, X, Y, Z, H, P (phase gate, diag(1, i)), CNOT
    (control first), and C0..C23 from :func:`one_qubit_clifford_table`.
    """
    qubits = tuple(int(q) for q in qubits)
    if len(set(qubits)) != len(qubits):
        raise ValueError(f"repeated qubit in {name} {qubits}")
    if any(q < 0 or q >= n for q in qubits):
        raise ValueError(f"qubit out of range in {name} {qubits} for n={n}")
    if name == "CNOT":
        if len(qubits) != 2:
            raise ValueError("CNOT takes exactly two qubits")
        return _embed(n, qubits, _CNOT_S, np.zeros(4, dtype=np.int64))
    if len(qubits) != 1:
        raise ValueError(f"{name} takes exactly one qubit")
    if name in _ONE_QUBIT_GATES:
        rows, v = _ONE_QUBIT_GATES[name]
        return _embed(n, qubits, np.array(rows, dtype=np.uint8), np.array(v, dtype=np.int64))
    if name.startswith("C") and name[1:].isdigit():
        k = int(name[1:])
        table = one_qubit_clifford_table()
        if k < len(table):
            op = table[k]
            return _embed(n, qubits, op.s, op.v)
    raise ValueError(f"unknown gate name {name!r}")


# ---------------------------------------------------------------------------
# Circuits


@dataclass(frozen=True)
class GateLabel:
    """A named gate applied to an ordered tuple of qubit indices."""

    name: str
    qubits: tuple[int, ...]

    def __post_init__(self):
        object.__setattr__(self, "qubits", tuple(int(q) for q in self.qubits))
        if not self.qubits:
            raise ValueError("gate must act on at least one qubit")
        if len(set(self.qubits)) != len(self.qubits):
            raise ValueError(f"repeated qubit in {self}")

    def __str__(self) -> str:
        return f"{self.name} {','.join(str(q) for q in self.qubits)}"


Layer = tuple[GateLabel, ...]


@dataclass(frozen=True)
class Circuit:
    """A fixed-width circuit: a tuple of layers of non-overlapping gates."""

    n: int
    layers: tuple[Layer, ...]

    def __post_init__(self):
        object.__setattr__(self, "layers", tuple(tuple(layer) for layer in self.layers))
        for layer in self.layers:
            seen: set[int] = set()
            for gate in layer:
                for q in gate.qubits:
                    if q < 0 or q >= self.n:
                        raise ValueError(f"qubit {q} out of range for n={self.n}")
                    if q in seen:
                        raise ValueError(f"qubit {q} used twice in one layer")
                    seen.add(q)

    @property
    def depth(self) -> int:
        return len(self.layers)

    @property
    def num_gates(self) -> int:
        return sum(len(layer) for layer in self.layers)

    @property
    def cnot_count(self) -> int:
        return sum(1 for layer in self.layers for g in layer if len(g.qubits) == 2)

    def concat(self, other: "Circuit") -> "Circuit":
        if self.n != other.n:
            raise ValueError("width mismatch")
        return Circuit(self.n, self.layers + other.layers)

    def __str__(self) -> str:
        return "\n".join("; ".join(str(g) for g in layer) for layer in self.layers)


# ---------------------------------------------------------------------------
# Row-stack kernel

# gate names the kernel knows, by number of qubits
_KERNEL_GATES = {
    1: ("I", "X", "Y", "Z", "H", "P", *(f"C{k}" for k in range(24))),
    2: ("CNOT",),
}


@functools.cache
def _gate_lookup(k: int) -> tuple[dict[str, int], np.ndarray, np.ndarray]:
    """(offsets, table, weights): the lookup tables of every k-qubit gate.

    Gate ``name`` owns the 4**k rows of ``table`` from ``offsets[name]`` on.
    Row ``offsets[name] + e`` is for a Pauli row whose local (x | z) bits
    on the gate's qubits are c, with ``e = c @ weights = sum_j c_j 2**j``:
    it holds the image's 2k local bits, then the power of i the image adds.
    """
    weights = 1 << np.arange(2 * k)
    local = (np.arange(4**k)[:, None] >> np.arange(2 * k)) & 1
    offsets: dict[str, int] = {}
    parts = []
    for i, name in enumerate(_KERNEL_GATES[k]):
        op = standard_gate(name, tuple(range(k)), k)
        offsets[name] = i * 4**k
        parts.append(np.column_stack([(local @ op.s.T.astype(np.int64)) % 2, op._phase_of(local)]))
    return offsets, np.concatenate(parts).astype(np.uint8), weights


def _conjugate_rows(b: np.ndarray, r: np.ndarray, gates: Iterable[GateLabel], n: int):
    """Conjugate every row of ``(b, r)`` in place by the gates of one layer.

    The gates act on disjoint qubits, so their order does not matter and
    all gates with the same number of qubits go through one table lookup.
    """
    groups: dict[int, tuple[list[tuple[int, ...]], list[str]]] = {}
    for gate in gates:
        q = gate.qubits
        cols, names = groups.setdefault(len(q), ([], []))
        cols.append((*q, *(n + j for j in q)))
        names.append(gate.name)
    for k, (cols, names) in groups.items():
        try:
            offsets, table, weights = _gate_lookup(k)
            start = [offsets[name] for name in names]
        except KeyError:
            for name, c in zip(names, cols):
                standard_gate(name, c[:k], n)  # raises the gate's own error
            raise  # pragma: no cover
        cols = np.array(cols)
        idx = b[:, cols] @ weights
        idx += start
        image = table[idx]
        b[:, cols] = image[..., :-1]
        r += image[..., -1].sum(axis=1, dtype=np.int64)


class PauliRows:
    """A stack of Pauli rows ``i**r[k] * W(b[k])``, conjugated in place gate
    by gate (see the module docstring for the layout)."""

    __slots__ = ("n", "b", "r")

    def __init__(self, n: int, b: np.ndarray, r: Sequence[int] | np.ndarray):
        self.n = int(n)
        self.b = np.array(b, dtype=np.uint8)
        self.r = np.array(r, dtype=np.int64)

    @classmethod
    def of(cls, paulis: Sequence[PauliOp]) -> "PauliRows":
        return cls(paulis[0].n, np.stack([p.vec for p in paulis]), [p.phase for p in paulis])

    @classmethod
    def identity(cls, n: int) -> "PauliRows":
        """The 2n rows W(e_j), whose images under a Clifford are its columns."""
        return cls(n, np.eye(2 * n, dtype=np.uint8), np.zeros(2 * n, dtype=np.int64))

    def apply_layer(self, gates: Iterable[GateLabel]):
        """Conjugate every row by the gates of one layer (disjoint qubits)."""
        _conjugate_rows(self.b, self.r, gates, self.n)

    def apply_circuit(self, circuit: Circuit):
        for layer in circuit.layers:
            _conjugate_rows(self.b, self.r, layer, self.n)

    def multiply_row(self, k: int, p: PauliOp):
        """Row k becomes ``p`` times row k."""
        n = self.n
        # W(a) W(b) = i**(2 a_z.b_x) W(a xor b)
        self.r[k] += p.phase + 2 * int(p.z @ self.b[k, :n])
        self.b[k] ^= p.vec

    def pauli(self, k: int) -> PauliOp:
        n = self.n
        return PauliOp(n, self.b[k, :n], self.b[k, n:], int(self.r[k]))

    def clifford(self) -> CliffordOp:
        """The Clifford whose columns are these 2n rows."""
        return CliffordOp(self.n, self.b.T, self.r % 4, validate=False)


def layer_to_clifford(layer: Layer, n: int) -> CliffordOp:
    """Compose the disjoint gates of one layer into a single CliffordOp."""
    rows = PauliRows.identity(n)
    rows.apply_layer(layer)
    return rows.clifford()


def circuit_to_clifford(circuit: Circuit, n: int | None = None) -> CliffordOp:
    """The net CliffordOp of a circuit (first layer acts first)."""
    width = circuit.n if n is None else n
    if width != circuit.n:
        raise ValueError("width mismatch")
    rows = PauliRows.identity(width)
    rows.apply_circuit(circuit)
    return rows.clifford()


# ---------------------------------------------------------------------------
# Stabilizer states


def _pack_rows(m: np.ndarray) -> list[int]:
    """Row k of the binary matrix m as a Python int whose bit j is m[k, j].

    Ints have no width limit, so rows of any length pack without overflow.
    """
    packed = np.packbits(np.asarray(m, dtype=np.uint8), axis=1, bitorder="little")
    return [int.from_bytes(row.tobytes(), "little") for row in packed]


def _unpack_rows(rows: Sequence[int], width: int) -> np.ndarray:
    """Inverse of :func:`_pack_rows`: the low ``width`` bits of each row."""
    nbytes = (width + 7) // 8
    buf = b"".join(v.to_bytes(nbytes, "little") for v in rows)
    bits = np.frombuffer(buf, dtype=np.uint8).reshape(len(rows), nbytes)
    return np.unpackbits(bits, axis=1, bitorder="little")[:, :width]


def _gf2_eliminate(rows: list[int], cols: int) -> list[int]:
    """Bring int rows (bit j is column j) to reduced row echelon form over
    their low ``cols`` bits, in place, and return the pivot columns.

    Row i < len(pivots) ends with its leading one in column pivots[i] and
    the remaining rows are zero in those bits.  Bits from ``cols`` up are
    carried along by every row operation, so appending the identity there
    records the row transform.
    """
    pivots: list[int] = []
    count = len(rows)
    for c in range(cols):
        k = len(pivots)
        if k == count:
            break
        bit = 1 << c
        p = next((i for i in range(k, count) if rows[i] & bit), None)
        if p is None:
            continue
        rows[k], rows[p] = rows[p], rows[k]
        pivot = rows[k]
        for i in range(count):
            if i != k and rows[i] & bit:
                rows[i] ^= pivot
        pivots.append(c)
    return pivots


def _gf2_rref(m: np.ndarray) -> tuple[np.ndarray, np.ndarray, list[int]]:
    """Reduced row echelon form of a binary matrix over GF(2).

    Returns (r, t, pivots): r is the RREF, t the invertible row transform
    with ``t @ m = r`` (mod 2), and row i < len(pivots) of r has its
    leading one in column pivots[i]; the remaining rows are zero.  The
    elimination runs on the rows of [m | I] packed into ints.
    """
    r = np.asarray(m, dtype=np.uint8) % 2
    rows, cols = r.shape
    aug = _pack_rows(np.hstack([r, np.eye(rows, dtype=np.uint8)]))
    pivots = _gf2_eliminate(aug, cols)
    out = _unpack_rows(aug, cols + rows)
    return out[:, :cols], out[:, cols:], pivots


class StabilizerState:
    """An n-qubit stabilizer state given by n independent commuting generators.

    Each generator is a Hermitian Pauli with eigenvalue +1 on the state.
    The generators are one read-only row stack in the :class:`PauliRows`
    layout: row k of the (n, 2n) uint8 matrix ``b`` is generator k's
    (x | z) vector and ``r[k]`` its power of i, mod 4.
    """

    __slots__ = ("n", "b", "r")

    def __init__(self, generators: Iterable[PauliOp]):
        gens = tuple(generators)
        if not gens:
            raise ValueError("need at least one generator")
        n = gens[0].n
        if any(g.n != n for g in gens):
            raise ValueError("generator width mismatch")
        if len(gens) != n:
            raise ValueError(f"need exactly {n} generators, got {len(gens)}")
        self._store(np.stack([g.vec for g in gens]), [g.phase for g in gens])
        x, z = self.b[:, :n].astype(np.int64), self.b[:, n:].astype(np.int64)
        if np.any(self.r % 2 != np.einsum("ij,ij->i", x, z) % 2):
            raise ValueError("generators must be Hermitian")
        if np.any((x @ z.T + z @ x.T) % 2):
            raise ValueError("generators must commute")
        if len(_gf2_rref(self.b)[2]) != n:
            raise ValueError("generators must be independent")

    @classmethod
    def from_rows(cls, b: np.ndarray, r: Sequence[int] | np.ndarray) -> "StabilizerState":
        """The state whose generators are the rows ``i**r[k] * W(b[k])``,
        unchecked: they must be n Hermitian, commuting, independent Paulis."""
        state = cls.__new__(cls)
        state._store(b, r)
        return state

    def _store(self, b, r):
        b = np.array(b, dtype=np.uint8)
        r = np.array(r, dtype=np.int64) % 4
        b.setflags(write=False)
        r.setflags(write=False)
        object.__setattr__(self, "n", b.shape[1] // 2)
        object.__setattr__(self, "b", b)
        object.__setattr__(self, "r", r)

    def __setattr__(self, name, value):
        raise AttributeError("StabilizerState is immutable")

    @property
    def generators(self) -> tuple[PauliOp, ...]:
        n = self.n
        return tuple(PauliOp(n, row[:n], row[n:], int(k)) for row, k in zip(self.b, self.r))

    @classmethod
    def zero_state(cls, n: int) -> "StabilizerState":
        return cls.basis_state([0] * n)

    @classmethod
    def basis_state(cls, bits: Sequence[int]) -> "StabilizerState":
        n = len(bits)
        b = np.hstack([np.zeros((n, n), dtype=np.uint8), np.eye(n, dtype=np.uint8)])
        return cls.from_rows(b, 2 * np.asarray(bits, dtype=np.int64))

    def apply(self, c: CliffordOp) -> "StabilizerState":
        if c.n != self.n:
            raise ValueError("qubit-count mismatch")
        image = (self.b.astype(np.int64) @ c.s.T) % 2
        return StabilizerState.from_rows(image, self.r + c._phase_of(self.b))

    def apply_circuit(self, circuit: Circuit) -> "StabilizerState":
        """The state after ``circuit``, its generators carried through the
        row kernel layer by layer."""
        rows = PauliRows(self.n, self.b, self.r)
        rows.apply_circuit(circuit)
        return StabilizerState.from_rows(rows.b, rows.r)

    def canonicalize(self) -> "StabilizerState":
        """The same state with ``b`` in reduced row echelon form.

        New generator i is the product of the old ones that row i of the
        elimination transform selects; they commute, so the order of the
        product does not change its phase.
        """
        rref, t, _ = _gf2_rref(self.b)
        return StabilizerState.from_rows(rref, _product_phases(self.b, self.r, t))

    def to_basis_bits(self) -> np.ndarray | None:
        """Bits b with state = |b> when this is a computational basis state."""
        canon = self.canonicalize()
        if np.any(canon.b[:, :self.n]):
            return None
        # Z block of the RREF of an invertible matrix is the identity, so
        # generator q is +/- Z_q and the sign encodes the bit.
        return (canon.r // 2).astype(np.uint8)

    def __eq__(self, other) -> bool:
        if not isinstance(other, StabilizerState):
            return NotImplemented
        if self.n != other.n:
            return False
        a = self.canonicalize()
        b = other.canonicalize()
        return bool(np.array_equal(a.b, b.b) and np.array_equal(a.r, b.r))

    def __hash__(self) -> int:
        canon = self.canonicalize()
        return hash((self.n, canon.b.tobytes(), canon.r.tobytes()))

    def __repr__(self) -> str:
        return "StabilizerState[" + ", ".join(repr(g) for g in self.generators) + "]"


# ---------------------------------------------------------------------------
# Module-level operation aliases


def compose(a: CliffordOp, b: CliffordOp) -> CliffordOp:
    """The Clifford "b then a" (matrix product a.b of the unitaries)."""
    return a.compose(b)


def invert(c: CliffordOp) -> CliffordOp:
    return c.invert()


def conjugate_pauli(c: CliffordOp, p: PauliOp) -> PauliOp:
    return c.conjugate_pauli(p)


def apply_clifford(c: CliffordOp, state: StabilizerState) -> StabilizerState:
    return state.apply(c)


def is_eigenstate(state: StabilizerState, p: PauliOp) -> bool:
    """Whether ``p`` stabilizes or anti-stabilizes ``state``.

    True iff ``p`` commutes with all n generators.  A maximal stabilizer
    group is its own centralizer, so that is the same as the (x | z)
    vector lying in the row space of the tableau: the state is an
    eigenstate of ``p`` for either eigenvalue sign.
    """
    if p.n != state.n:
        raise ValueError("qubit-count mismatch")
    n = state.n
    x, z = state.b[:, :n].astype(np.int64), state.b[:, n:].astype(np.int64)
    return not np.any((x @ p.z + z @ p.x) % 2)
