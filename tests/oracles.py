"""Independent brute-force oracles used to pin expected values in tests.

Everything here works on dense 2^n x 2^n complex matrices and plain
enumeration, with no reliance on the package's symplectic bookkeeping,
so agreement between the two is meaningful.  The package's PauliOp is
used only as a value type, for Paulis parsed from text.
"""

from __future__ import annotations

import functools
import itertools

import numpy as np

from drbench.clifford import PauliOp

I2 = np.eye(2, dtype=complex)
X = np.array([[0, 1], [1, 0]], dtype=complex)
Y = np.array([[0, -1j], [1j, 0]], dtype=complex)
Z = np.array([[1, 0], [0, -1]], dtype=complex)
H = np.array([[1, 1], [1, -1]], dtype=complex) / np.sqrt(2)
P = np.array([[1, 0], [0, 1j]], dtype=complex)
CNOT = np.array(
    [[1, 0, 0, 0], [0, 1, 0, 0], [0, 0, 0, 1], [0, 0, 1, 0]],
    dtype=complex,
)

GATE_MATRICES = {"I": I2, "X": X, "Y": Y, "Z": Z, "H": H, "P": P, "CNOT": CNOT}


def pauli_matrix(x, z, phase: int) -> np.ndarray:
    """Dense matrix of i**phase * X^x * Z^z with qubit 0 leftmost in the kron."""
    out = np.array([[1.0 + 0j]])
    for xi, zi in zip(x, z):
        local = (X if xi else I2) @ (Z if zi else I2)
        out = np.kron(out, local)
    return (1j ** (phase % 4)) * out


def pauli_op_matrix(p) -> np.ndarray:
    return pauli_matrix(p.x, p.z, p.phase)


def pauli(label: str) -> PauliOp:
    """Parse e.g. ``"XIZ"``, ``"-YZ"`` or ``"+iXX"`` (sign prefix optional)
    into the PauliOp of that operator; Y is iXZ in the X-left-of-Z form."""
    s = label.strip()
    phase = 0
    for prefix, ph in (("-i", 3), ("+i", 1), ("i", 1), ("-", 2), ("+", 0)):
        if s.startswith(prefix):
            phase, s = ph, s[len(prefix):]
            break
    if not s or any(c not in "IXYZ" for c in s):
        raise ValueError(f"bad Pauli label {label!r}")
    x = [int(c in "XY") for c in s]
    z = [int(c in "ZY") for c in s]
    return PauliOp(len(s), x, z, phase + s.count("Y"))


def embed_unitary(u_local: np.ndarray, qubits: tuple[int, ...], n: int) -> np.ndarray:
    """Embed a k-qubit unitary acting on ``qubits`` into n qubits.

    Basis ordering: qubit 0 is the most significant bit of the index.
    """
    k = len(qubits)
    dim = 2 ** n
    out = np.zeros((dim, dim), dtype=complex)
    shifts = [n - 1 - q for q in qubits]
    for col in range(dim):
        in_local = 0
        for pos, sh in enumerate(shifts):
            in_local |= ((col >> sh) & 1) << (k - 1 - pos)
        base = col
        for sh in shifts:
            base &= ~(1 << sh)
        for out_local in range(2 ** k):
            amp = u_local[out_local, in_local]
            if amp == 0:
                continue
            row = base
            for pos, sh in enumerate(shifts):
                row |= ((out_local >> (k - 1 - pos)) & 1) << sh
            out[row, col] += amp
    return out


def gate_unitary(name: str, qubits: tuple[int, ...], n: int) -> np.ndarray:
    if name in GATE_MATRICES:
        return embed_unitary(GATE_MATRICES[name], tuple(qubits), n)
    if name.startswith("C") and name[1:].isdigit():
        u = one_qubit_clifford_unitaries()[int(name[1:])]
        return embed_unitary(u, tuple(qubits), n)
    raise ValueError(f"no dense matrix for gate {name!r}")


def circuit_unitary(circuit) -> np.ndarray:
    """Dense unitary of a Circuit object, first layer applied first."""
    n = circuit.n
    u = np.eye(2 ** n, dtype=complex)
    for layer in circuit.layers:
        for gate in layer:
            u = gate_unitary(gate.name, gate.qubits, n) @ u
    return u


def _phase_canonical(u: np.ndarray) -> bytes:
    """Canonical bytes of a unitary modulo global phase."""
    flat = u.ravel()
    idx = np.argmax(np.abs(flat) > 1e-8)
    fixed = u * (np.conj(flat[idx]) / np.abs(flat[idx]))
    # Adding 0.0 collapses -0.0 and +0.0 to one byte pattern.
    return (np.round(fixed, 8) + 0.0).tobytes()


def close_group(generators: list[np.ndarray], limit: int = 100000) -> list[np.ndarray]:
    """BFS closure of a matrix group modulo global phase."""
    seen: dict[bytes, np.ndarray] = {}
    frontier = [np.eye(generators[0].shape[0], dtype=complex)]
    seen[_phase_canonical(frontier[0])] = frontier[0]
    while frontier:
        nxt = []
        for u in frontier:
            for g in generators:
                w = g @ u
                key = _phase_canonical(w)
                if key not in seen:
                    if len(seen) >= limit:
                        raise RuntimeError("group closure exceeded limit")
                    seen[key] = w
                    nxt.append(w)
        frontier = nxt
    return list(seen.values())


_ONE_QUBIT_CACHE: list[np.ndarray] | None = None


def one_qubit_clifford_unitaries() -> list[np.ndarray]:
    """The 24 single-qubit Cliffords ordered to match the C0..C23 labels.

    Built independently: close {H, P} under multiplication, extract each
    element's (s, v) data by dense conjugation, then sort by the same
    lexicographic (s, v) key the package uses for its labels.
    """
    global _ONE_QUBIT_CACHE
    if _ONE_QUBIT_CACHE is None:
        group = close_group([H, P])
        assert len(group) == 24
        keyed = []
        for u in group:
            s, v = clifford_of_unitary(u, 1)
            keyed.append(((tuple(s.ravel().tolist()), tuple(v.tolist())), u))
        keyed.sort(key=lambda kv: kv[0])
        _ONE_QUBIT_CACHE = [u for _, u in keyed]
    return _ONE_QUBIT_CACHE


def decompose_pauli(m: np.ndarray, n: int) -> tuple[np.ndarray, np.ndarray, int]:
    """Find (x, z, phase) with m = i**phase X^x Z^z, read off m's columns
    and then checked entry by entry against the rebuilt matrix.

    Column 0 of i**phase X^x Z^z is i**phase |x>: its one nonzero entry
    gives x by its row and the phase by its value, whatever z is.  Column
    2^(n-1-q) is the image of |e_q>, ``(-1)**z_q i**phase |x ^ e_q>``, so
    its sign against column 0 gives z_q.
    """
    row = int(np.argmax(np.abs(m[:, 0])))
    x = np.array([row >> (n - 1 - q) & 1 for q in range(n)], dtype=np.uint8)
    phase = int(np.round(np.angle(m[row, 0]) / (np.pi / 2))) % 4
    ref = np.conj(m[row, 0])
    z = np.array([(m[row ^ e, e] * ref).real < 0 for e in (1 << (n - 1 - q) for q in range(n))],
                 dtype=np.uint8)
    if np.allclose(m, pauli_matrix(x, z, phase), atol=1e-8):
        return x, z, phase
    raise ValueError("matrix is not a Pauli")


@functools.cache
def _generator_matrices(n: int) -> tuple[np.ndarray, ...]:
    """Dense X_0 .. X_{n-1}, Z_0 .. Z_{n-1}, read-only."""
    eye = np.eye(n, dtype=np.uint8)
    zero = np.zeros(n, dtype=np.uint8)
    out = tuple(pauli_matrix(eye[j], zero, 0) for j in range(n)) + \
        tuple(pauli_matrix(zero, eye[j], 0) for j in range(n))
    for w in out:
        w.setflags(write=False)
    return out


def clifford_of_unitary(u: np.ndarray, n: int) -> tuple[np.ndarray, np.ndarray]:
    """Extract (s, v) of a Clifford unitary by conjugating each generator."""
    s = np.zeros((2 * n, 2 * n), dtype=np.uint8)
    v = np.zeros(2 * n, dtype=np.int64)
    for j, w in enumerate(_generator_matrices(n)):
        img = u @ w @ u.conj().T
        x, z, phase = decompose_pauli(img, n)
        s[:n, j] = x
        s[n:, j] = z
        v[j] = phase
    return s, v


def stabilizer_projector(state) -> np.ndarray:
    """Density matrix Prod_i (I + g_i)/2 of a StabilizerState."""
    n = state.n
    rho = np.eye(2 ** n, dtype=complex)
    for g in state.generators:
        rho = rho @ (np.eye(2 ** n, dtype=complex) + pauli_op_matrix(g)) / 2
    return rho


def is_eigenstate(state, p) -> bool:
    """Whether the state is an eigenvector of the Pauli ``p``, of any
    eigenvalue: conjugating its projector by ``p`` leaves it unchanged."""
    rho = stabilizer_projector(state)
    m = pauli_op_matrix(p)
    return np.allclose(m @ rho @ m.conj().T, rho, atol=1e-8)


def states_equal_dense(state_a, state_b) -> bool:
    return np.allclose(stabilizer_projector(state_a), stabilizer_projector(state_b), atol=1e-8)


def canonical_generators(generators) -> list:
    """Stabilizer generators re-mixed so their (x | z) matrix is in reduced
    row echelon form, by plain Gauss-Jordan elimination on Python lists.
    New generator i is the product of the old ones that row i of the row
    transform selects, multiplied one PauliOp at a time in index order."""
    rows = [[int(bit) for bit in g.vec] + [int(k == i) for k in range(len(generators))]
            for i, g in enumerate(generators)]
    width = 2 * generators[0].n
    top = 0
    for col in range(width):
        pivot = next((i for i in range(top, len(rows)) if rows[i][col]), None)
        if pivot is None:
            continue
        rows[top], rows[pivot] = rows[pivot], rows[top]
        for i in range(len(rows)):
            if i != top and rows[i][col]:
                rows[i] = [a ^ b for a, b in zip(rows[i], rows[top])]
        top += 1
    out = []
    for row in rows:
        product = None
        for k, sel in enumerate(row[width:]):
            if sel:
                product = generators[k] if product is None else product * generators[k]
        out.append(product)
    return out


def basis_bits_of_generators(generators):
    """Bits b with state = |b> read off canonical generators +/- Z_q, or
    None when some generator has an X part."""
    canon = canonical_generators(generators)
    if any(g.x.any() for g in canon):
        return None
    bits = [0] * len(canon)
    for g in canon:
        bits[int(np.flatnonzero(g.z)[0])] = g.phase // 2
    return bits


def symplectic_group_size(n: int) -> int:
    """|Sp(2n, 2)| = 2^(n^2) * prod_{j=1..n} (4^j - 1)."""
    size = 2 ** (n * n)
    for j in range(1, n + 1):
        size *= 4 ** j - 1
    return size


def clifford_group_size_mod_phase_and_pauli(n: int) -> int:
    return symplectic_group_size(n)


def stabilizer_state_count(n: int) -> int:
    """2^n * prod_{k=1..n} (2^k + 1)."""
    count = 2 ** n
    for k in range(1, n + 1):
        count *= 2 ** k + 1
    return count


def enumerate_symplectics_by_bfs(n: int, cliffords_gens) -> set[bytes]:
    """Closure of the s-matrices of generating CliffordOps, as byte keys."""
    seen = {np.eye(2 * n, dtype=np.uint8).tobytes()}
    frontier = [np.eye(2 * n, dtype=np.uint8)]
    gens = [g.s.astype(np.int64) for g in cliffords_gens]
    while frontier:
        nxt = []
        for m in frontier:
            for g in gens:
                w = ((g @ m.astype(np.int64)) % 2).astype(np.uint8)
                key = w.tobytes()
                if key not in seen:
                    seen.add(key)
                    nxt.append(w)
        frontier = nxt
    return seen


def decay_sse(ms, ys, w, p: float, floor: float | None = None) -> float:
    """Weighted residual sum of squares of the best A + B p^m at a fixed p,
    by dense least squares over (A, B); with ``floor`` given, A is held
    there and only B is fit."""
    sw = np.sqrt(np.asarray(w, dtype=float))
    ys = np.asarray(ys, dtype=float)
    decay = np.power(float(p), np.asarray(ms, dtype=float))
    if floor is None:
        design, target = np.stack([np.ones_like(decay), decay], axis=1), ys
    else:
        design, target = decay[:, None], ys - floor
    coef = np.linalg.lstsq(design * sw[:, None], target * sw, rcond=None)[0]
    res = sw * (design @ coef - target)
    return float(res @ res)


# (x, z) bits of the single-qubit Paulis I, X, Y, Z
_PAULI_BITS = ((0, 0), (1, 0), (1, 1), (0, 1))


def layer_pauli_distribution(entries, n: int, depol: float = 0.0) -> dict:
    """The net n-qubit Pauli a layer's errors leave, by enumeration.

    ``entries`` lists (qubit, p): each entry is I with probability 1 - p
    and X, Y or Z with p/3 each, independently.  Every joint outcome of
    the entries is enumerated and each qubit's (x, z) bits are XORed;
    then, with probability ``depol``, each of the 4^n Paulis is XORed in
    with equal weight.  Returns {(x bits, z bits): probability}.
    """
    dist: dict = {}
    for outcome in itertools.product(range(4), repeat=len(entries)):
        prob = 1.0
        x, z = [0] * n, [0] * n
        for (q, p), k in zip(entries, outcome):
            prob *= 1.0 - p if k == 0 else p / 3.0
            x[q] ^= _PAULI_BITS[k][0]
            z[q] ^= _PAULI_BITS[k][1]
        key = (tuple(x), tuple(z))
        dist[key] = dist.get(key, 0.0) + prob
    if depol == 0.0:
        return dist
    out = {key: (1.0 - depol) * prob for key, prob in dist.items()}
    for (x, z), prob in dist.items():
        for paulis in itertools.product(range(4), repeat=n):
            key = (tuple(a ^ _PAULI_BITS[k][0] for a, k in zip(x, paulis)),
                   tuple(b ^ _PAULI_BITS[k][1] for b, k in zip(z, paulis)))
            out[key] = out.get(key, 0.0) + depol * prob / 4.0**n
    return out


def phase_of_loop(s: np.ndarray, v: np.ndarray, c: np.ndarray) -> int:
    """Phase exponent of the image of W(c) under the Clifford (s, v), one
    support bit at a time: the product of the images of c's generators in
    index order, each step moving the new X part past the Z part so far."""
    n = len(v) // 2
    phase = 0
    u = np.zeros(2 * n, dtype=np.int64)
    for j in np.flatnonzero(c):
        # W(u) W(col_j) = i**(2 u_z.col_x) W(u xor col_j)
        phase += int(v[j]) + 2 * int(u[n:] @ s[:n, j])
        u = (u + s[:, j]) % 2
    return phase % 4


# ---------------------------------------------------------------------------
# Per-bit reference for the index-based symplectic construction: the numpy
# form the package used before it moved to int rows.  Vectors are uint8
# arrays in the interleaved x1 z1 x2 z2 ... packing.


def _sym_inner(u: np.ndarray, w: np.ndarray) -> int:
    return int(np.sum(u[0::2] * w[1::2]) + np.sum(u[1::2] * w[0::2])) % 2


def _transvect(h: np.ndarray, v: np.ndarray) -> np.ndarray:
    if _sym_inner(v, h):
        return v ^ h
    return v.copy()


def _int_bits(k: int, width: int) -> np.ndarray:
    return np.array([(k >> j) & 1 for j in range(width)], dtype=np.uint8)


def _find_transvections(x: np.ndarray, y: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    nn = len(x)
    zero = np.zeros(nn, dtype=np.uint8)
    if np.array_equal(x, y):
        return zero, zero
    if _sym_inner(x, y) == 1:
        return (x ^ y), zero
    z = np.zeros(nn, dtype=np.uint8)
    for i in range(nn // 2):
        x0, x1 = int(x[2 * i]), int(x[2 * i + 1])
        y0, y1 = int(y[2 * i]), int(y[2 * i + 1])
        if (x0 | x1) and (y0 | y1):
            z[2 * i] = x0 ^ y0
            z[2 * i + 1] = x1 ^ y1
            if z[2 * i] == 0 and z[2 * i + 1] == 0:
                z[2 * i + 1] = 1
                if x0 != x1:
                    z[2 * i] = 1
            return (x ^ z), (y ^ z)
    for vec in (x, y):
        for i in range(nn // 2):
            v0, v1 = int(vec[2 * i]), int(vec[2 * i + 1])
            if v0 | v1:
                if v0 == v1:
                    z[2 * i + 1] = 1
                else:
                    z[2 * i] = v1
                    z[2 * i + 1] = v0
                break
    return (x ^ z), (y ^ z)


def _symplectic_interleaved(index: int, n: int) -> np.ndarray:
    nn = 2 * n
    s = (1 << nn) - 1
    k = (index % s) + 1
    index //= s
    f1 = _int_bits(k, nn)
    e1 = np.zeros(nn, dtype=np.uint8)
    e1[0] = 1
    t1, t2 = _find_transvections(e1, f1)
    bits = _int_bits(index % (1 << (nn - 1)), nn - 1)
    index >>= nn - 1
    eprime = e1.copy()
    eprime[2:nn] = bits[1 : nn - 1]
    h0 = _transvect(t2, _transvect(t1, eprime))
    if bits[0] == 1:
        f1 = np.zeros(nn, dtype=np.uint8)
    if n == 1:
        g = np.eye(2, dtype=np.uint8)
    else:
        g = np.zeros((nn, nn), dtype=np.uint8)
        g[:2, :2] = np.eye(2, dtype=np.uint8)
        g[2:, 2:] = _symplectic_interleaved(index, n - 1)
    for j in range(nn):
        row = _transvect(t1, g[j])
        row = _transvect(t2, row)
        row = _transvect(h0, row)
        row = _transvect(f1, row)
        g[j] = row
    return g


def symplectic_from_index_reference(index: int, n: int) -> np.ndarray:
    """The index-th binary symplectic matrix in (x | z) packing, built one
    bit at a time on numpy vectors."""
    g = _symplectic_interleaved(int(index), n)
    perm = np.empty(2 * n, dtype=np.intp)
    for q in range(n):
        perm[2 * q] = q
        perm[2 * q + 1] = n + q
    s = np.zeros_like(g)
    s[np.ix_(perm, perm)] = g
    return s


def span_rank(m: np.ndarray) -> int:
    """GF(2) rank as log2 of the number of distinct row combinations."""
    m = np.asarray(m, dtype=np.int64)
    combos = {
        (np.array(sel, dtype=np.int64) @ m % 2).tobytes()
        for sel in itertools.product((0, 1), repeat=m.shape[0])
    }
    return len(combos).bit_length() - 1


def sequence_cost(seq, n: int) -> tuple[int, int, int]:
    """The cost key (cnots, depth, gates) of a gate sequence packed by
    greedy earliest-layer packing: ``level[q]`` counts the layers qubit q
    occupies so far, and a gate goes to the first layer after all of its
    qubits' last gates."""
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
    return cnots, max(level), len(seq)
