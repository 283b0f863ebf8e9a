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

The native gates are defined once.  The 24 single-qubit Cliffords are a
table of ints ``(a, b, c, d, vx, vz)``: the gate maps X to ``i**vx W(a,
c)`` and Z to ``i**vz W(b, d)``, so its local (s, v) is ``((a, b), (c,
d)), (vx, vz)``.  The table is in lexicographic order, ``C<k>`` names
entry k, the identity is C8, and I, X, Y, Z, H and P are the entries
with their (s, v).  CNOT has no entry: its rule is the kernel's own.
These 30 names and CNOT are the only gates, and :class:`GateLabel` alone
checks it: a label names one of them, on two distinct qubits for CNOT and
one otherwise, none negative, or raises ValueError when it is made.  Only
the range, qubits < n, is left to :class:`Circuit` and the kernel.

Gates are applied by one in-place kernel, :class:`PauliRows`, in the
manner of the CHP tableau (Aaronson & Gottesman, quant-ph/0406196),
bit-sliced by column as in Stim (Gidney, arXiv:2103.02202).  It holds a
stack of Pauli rows ``i**r[k] * W(b[k])`` as Python ints: for each qubit
q, bit k of ``x[q]`` and of ``z[q]`` is row k's x and z bit there, and
the power of i mod 4 is held in two bit planes, ``lo`` (bit 0 of every
row's power) and ``hi`` (bit 1).  Adding powers whose bits are the masks
``ones`` and ``twos`` is ``hi ^= twos ^ lo & ones; lo ^= ones``: the low
plane's carry goes into the high one.  A gate updates every row at once
with a few XORs and ANDs of its qubits' columns.  CNOT is ``x[t] ^=
x[c]; z[c] ^= z[t]`` and leaves every phase alone in the X-left-of-Z
convention.  A 1Q gate maps its qubit's (x, z) columns by its local 2 x 2
bit matrix and adds the power of i its image carries for local X, Z and
XZ, all read straight from its table entry.  The (rows, 2n) (x | z)
matrix ``b`` and the powers ``r`` are built only when read, as read-only
arrays.  The (s, v) of a circuit or a layer is read off the kernel: the
2n identity rows W(e_j) carried through it, read back as the columns of
(s, v).
``apply_layer`` applies its gates in order, so it takes whole gate
sequences too.  Every conjugation of Pauli rows by gates in ``generate``
and ``simulate`` runs here: DRB tracking, circuit Cliffords, the
compilers' stage checks, replays and sign fixes, and the simulator's
effect tables.  The 1Q table's product table is built here on first use.

A :class:`CliffordOp` is an (s, v) value with validation and equality;
its operations are :func:`compose` and :func:`invert`.

A :class:`StabilizerState` stores its n generators as the read-only
arrays a row stack reads out: ``b`` is the (n, 2n) (x | z) matrix and
``r`` the phases mod 4, and ``generators`` builds PauliOps from them only
when asked.  A circuit runs through the row kernel.  Canonicalizing brings
``b`` to reduced row echelon form over GF(2) and takes each new row's
phase from the elimination transform by one quadratic form,
:func:`_product_phases`, which also gives the phases of a Clifford's
images of products of generators.
"""

from __future__ import annotations

import functools
import itertools
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
    "compose",
    "invert",
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

    @property
    def is_identity(self) -> bool:
        return bool(np.array_equal(self.s, np.eye(2 * self.n, dtype=np.uint8)) and np.all(self.v == 0))

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


# The 24 single-qubit Cliffords as (a, b, c, d, vx, vz): X maps to
# i**vx W(a, c) and Z to i**vz W(b, d).  ((a, b), (c, d)) is invertible over
# GF(2), and each image is Hermitian (vx = ac and vz = bd mod 2).
# Lexicographic order, so the identity is C8.
_ONE_QUBIT_CLIFFORDS = tuple(
    (a, b, c, d, vx, vz)
    for a, b, c, d in itertools.product((0, 1), repeat=4) if a * d ^ b * c
    for vx in (a * c, a * c + 2)
    for vz in (b * d, b * d + 2)
)

# position in the table of every 1Q gate name; P is diag(1, i)
_ONE_QUBIT_INDEX = {
    name: _ONE_QUBIT_CLIFFORDS.index(gate) for name, gate in (
        ("I", (1, 0, 0, 1, 0, 0)),
        ("X", (1, 0, 0, 1, 0, 2)),
        ("Y", (1, 0, 0, 1, 2, 2)),
        ("Z", (1, 0, 0, 1, 2, 0)),
        ("H", (0, 1, 1, 0, 0, 0)),
        ("P", (1, 0, 1, 1, 1, 0)),
    )
} | {f"C{k}": k for k in range(len(_ONE_QUBIT_CLIFFORDS))}

def _one_qubit_update(a: int, b: int, c: int, d: int, vx: int, vz: int) -> tuple[int, ...]:
    """The kernel's seven masks for the 1Q gate ``(a, b, c, d, vx, vz)``.

    Each mask is 0 or -1, so that ``col & mask`` keeps or drops a column:
    (xx, xz, zx, zz) give the new columns ``x' = x & xx ^ z & xz`` and
    ``z' = x & zx ^ z & zz``, and (tx, tz, txz) the rows whose power of i
    gains 2, ``x & tx ^ z & tz ^ x & z & txz``.  The rows that gain an odd
    power are ``x' & z' ^ x & z``: the image of a Hermitian row is
    Hermitian, and ``i**(x.z) W(x, z)`` is.  XZ maps to ``i**vx W(a, c)
    i**vz W(b, d)``, of power ``vx + vz + 2bc``, so its bit 1 splits as
    tx ^ tz ^ txz.
    """
    vxz = (vx + vz + 2 * b * c) % 4
    return tuple(-bit for bit in (a, b, c, d, vx >> 1, vz >> 1, (vx ^ vz ^ vxz) >> 1))


# The kernel update of every kernel gate, by name.  CNOT's is None: it is
# ``x_t ^= x_c; z_c ^= z_t`` with no phase.
_GATE_UPDATES: dict[str, tuple[int, ...] | None] = {
    name: _one_qubit_update(*_ONE_QUBIT_CLIFFORDS[k]) for name, k in _ONE_QUBIT_INDEX.items()
} | {"CNOT": None}


@functools.cache
def _one_qubit_products() -> tuple[tuple[int, ...], ...]:
    """``product[a][b]``: position of C<a> after C<b> (C<b> acts first),
    as :func:`compose` multiplies."""
    position = {gate: k for k, gate in enumerate(_ONE_QUBIT_CLIFFORDS)}
    # the images of X and Z under every C<b>, rows 2b and 2b + 1, carried
    # through each C<k>
    columns = [row for a, b, c, d, _, _ in _ONE_QUBIT_CLIFFORDS for row in ((a, c), (b, d))]
    phases = [v for *_, vx, vz in _ONE_QUBIT_CLIFFORDS for v in (vx, vz)]
    product = []
    for k in range(len(_ONE_QUBIT_CLIFFORDS)):
        rows = PauliRows(1, columns, phases)
        rows.apply_layer((GateLabel(f"C{k}", (0,)),))
        bits, powers = rows.b.tolist(), rows.r.tolist()
        images = zip(bits[0::2], bits[1::2], powers[0::2], powers[1::2])
        product.append(tuple(position[a, b, c, d, vx, vz] for (a, c), (b, d), vx, vz in images))
    return tuple(product)


# ---------------------------------------------------------------------------
# Circuits


@dataclass(frozen=True)
class GateLabel:
    """A native gate on an ordered tuple of qubits, checked when made: the
    name is one the kernel runs (a 1Q name or CNOT), CNOT takes two
    distinct qubits (control first) and every other gate one, and no qubit
    is negative.  A label that breaks this raises ValueError."""

    name: str
    qubits: tuple[int, ...]

    def __post_init__(self):
        name, qubits = self.name, tuple(map(int, self.qubits))
        object.__setattr__(self, "qubits", qubits)
        if name not in _GATE_UPDATES:
            raise ValueError(f"unknown gate name {name!r}")
        if name == "CNOT":
            if len(qubits) != 2:
                raise ValueError("CNOT takes exactly two qubits")
            if qubits[0] == qubits[1]:
                raise ValueError(f"repeated qubit in {self}")
        elif len(qubits) != 1:
            raise ValueError(f"{name} takes exactly one qubit")
        if min(qubits) < 0:
            raise ValueError(f"negative qubit in {self}")

    def __str__(self) -> str:
        return f"{self.name} {','.join(str(q) for q in self.qubits)}"


Layer = tuple[GateLabel, ...]


def _layer_text(layer: Iterable[GateLabel]) -> str:
    """One layer as a line of circuit text: its gates joined by "; "."""
    return "; ".join(str(g) for g in layer)


@dataclass(frozen=True)
class Circuit:
    """A fixed-width circuit: a tuple of layers of non-overlapping gates,
    each on qubits below n."""

    n: int
    layers: tuple[Layer, ...]

    def __post_init__(self):
        object.__setattr__(self, "layers", tuple(tuple(layer) for layer in self.layers))
        for layer in self.layers:
            seen: set[int] = set()
            for gate in layer:
                for q in gate.qubits:
                    if q >= self.n:
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

    def concat(self, *others: "Circuit") -> "Circuit":
        """This circuit followed by ``others``, validated once."""
        if any(other.n != self.n for other in others):
            raise ValueError("width mismatch")
        return Circuit(self.n, tuple(layer for c in (self, *others) for layer in c.layers))

    def __str__(self) -> str:
        return "\n".join(_layer_text(layer) for layer in self.layers)


# ---------------------------------------------------------------------------
# Row-stack kernel


class PauliRows:
    """A stack of Pauli rows ``i**r[k] * W(b[k])``, bit-sliced into Python
    ints and conjugated in place gate by gate (see the module docstring for
    the layout).  ``b`` and ``r`` are read-only arrays built on each read."""

    __slots__ = ("n", "count", "x", "z", "lo", "hi")

    def __init__(self, n: int, b: np.ndarray, r: Sequence[int] | np.ndarray):
        self.n = int(n)
        b = np.asarray(b, dtype=np.uint8)
        r = np.asarray(r, dtype=np.int64) % 4
        self.count = len(b)
        columns = _pack_rows(b.T)
        self.x, self.z = columns[:self.n], columns[self.n:]
        self.lo, self.hi = _pack_rows([r & 1, r >> 1])

    @classmethod
    def of(cls, paulis: Sequence[PauliOp]) -> "PauliRows":
        return cls(paulis[0].n, np.stack([p.vec for p in paulis]), [p.phase for p in paulis])

    @classmethod
    def from_columns(cls, count: int, x: Sequence[int], z: Sequence[int]) -> "PauliRows":
        """``count`` rows with power of i 0, given by their columns: bit k
        of ``x[q]`` and of ``z[q]`` is row k's x and z bit on qubit q."""
        rows = cls.__new__(cls)
        rows.n, rows.count = len(x), count
        rows.x, rows.z = list(x), list(z)
        rows.lo = rows.hi = 0
        return rows

    @classmethod
    def identity(cls, n: int) -> "PauliRows":
        """The 2n rows W(e_j), whose images under a Clifford are its columns."""
        return cls.from_columns(2 * n, [1 << q for q in range(n)], [1 << (n + q) for q in range(n)])

    def apply_layer(self, gates: Iterable[GateLabel]):
        """Conjugate every row by ``gates``, applied in order.

        The gates may overlap, so a whole gate sequence can be passed; a
        layer is the case where their qubits are disjoint.  A qubit not
        below n raises ValueError and leaves the rows as they were: the
        gates run on copies of the columns, stored only when all have run.
        """
        updates = _GATE_UPDATES
        x, z, lo, hi = self.x[:], self.z[:], self.lo, self.hi
        try:
            for gate in gates:
                update = updates[gate.name]
                if update is None:
                    c, t = gate.qubits
                    x[t] ^= x[c]
                    z[c] ^= z[t]
                    continue
                (q,) = gate.qubits
                xx, xz, zx, zz, tx, tz, txz = update
                cx, cz = x[q], z[q]
                both = cx & cz
                x[q] = nx = cx & xx ^ cz & xz
                z[q] = nz = cx & zx ^ cz & zz
                ones = nx & nz ^ both
                hi ^= cx & tx ^ cz & tz ^ both & txz ^ lo & ones
                lo ^= ones
        except IndexError:
            raise ValueError(f"qubit out of range in {gate.name} {gate.qubits} for n={self.n}") from None
        self.x, self.z, self.lo, self.hi = x, z, lo, hi

    def apply_circuit(self, circuit: Circuit):
        """Conjugate every row by each layer of ``circuit``, which must
        have the rows' width."""
        if circuit.n != self.n:
            raise ValueError("qubit-count mismatch")
        for layer in circuit.layers:
            self.apply_layer(layer)

    @property
    def b(self) -> np.ndarray:
        """The (rows, 2n) (x | z) bit matrix."""
        b = _unpack_rows([*self.x, *self.z], self.count).T
        b.setflags(write=False)
        return b

    @property
    def r(self) -> np.ndarray:
        """The rows' powers of i, mod 4."""
        lo, hi = _unpack_rows([self.lo, self.hi], self.count).astype(np.int64)
        r = lo + 2 * hi
        r.setflags(write=False)
        return r

    def pauli(self, k: int) -> PauliOp:
        n = self.n
        bits = [c >> k & 1 for c in (*self.x, *self.z)]
        return PauliOp(n, bits[:n], bits[n:], (self.lo >> k & 1) + 2 * (self.hi >> k & 1))

    def clifford(self) -> CliffordOp:
        """The Clifford whose columns are these 2n rows."""
        return CliffordOp(self.n, _unpack_rows([*self.x, *self.z], self.count), self.r, validate=False)


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
    The generators are stored as the read-only arrays a :class:`PauliRows`
    stack reads out: row k of the (n, 2n) uint8 matrix ``b`` is generator
    k's (x | z) vector and ``r[k]`` its power of i, mod 4.
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

    def apply_circuit(self, circuit: Circuit) -> "StabilizerState":
        """The state after ``circuit`` (of the state's width), its
        generators carried through the row kernel layer by layer."""
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
# Clifford operations


def compose(a: CliffordOp, b: CliffordOp) -> CliffordOp:
    """The Clifford "b then a" (matrix product a.b of the unitaries).

    Column j of b maps through a to the ordered product of a's images of
    the generators in its support.
    """
    if a.n != b.n:
        raise ValueError("qubit-count mismatch")
    s = (a.s.astype(np.int64) @ b.s.astype(np.int64)) % 2
    v = (b.v + _product_phases(a.s.T, a.v, b.s.T)) % 4
    return CliffordOp(a.n, s.astype(np.uint8), v, validate=False)


def invert(c: CliffordOp) -> CliffordOp:
    """The inverse Clifford: s^-1 = Lambda s^T Lambda, and column j's
    phase is minus the one c gives W(s^-1 e_j), so c maps it back to W(e_j)."""
    lam = _lambda_matrix(c.n)
    s_inv = (lam @ c.s.T.astype(np.int64) @ lam) % 2
    v = -_product_phases(c.s.T, c.v, s_inv.T) % 4
    return CliffordOp(c.n, s_inv.astype(np.uint8), v, validate=False)
