"""Golden digests of generated circuit files.

A refactor of the Clifford algebra or the compilers that claims to keep
behaviour must keep every circuit byte-identical at the same seed.  The
pinned values are sha256 digests over all circuit files of a run (sorted
by name, each contributing its name and its own digest).
"""

import hashlib
import json
import sys
from pathlib import Path

import pytest

from drbench import clifford, compiling
from drbench.cli import main
from drbench.clifford import PauliOp, PauliRows
from drbench.device import DeviceSpec
from drbench.io import circuit_from_text, design_from_config

CONFIGS = {
    "drb_ring4_c24": {
        "protocol": "DRB",
        "device": {"preset": "ring", "n": 4, "gate_set": "C24"},
        "sampler": {"kind": "pcnot", "p_cnot": 0.3},
        "lengths": [0, 4, 8],
        "circuits_per_length": 2,
        "compile": {"trials": 3},
    },
    "drb_all8_pairing": {
        "protocol": "DRB",
        "device": {"preset": "all_to_all", "n": 8, "gate_set": "C24"},
        "sampler": {"kind": "pairing", "p_cnot": 0.5},
        "lengths": [0, 3, 6],
        "circuits_per_length": 2,
        "compile": {"trials": 1},
    },
    "drb_ring4_hpi": {
        "protocol": "DRB",
        "device": {"preset": "ring", "n": 4, "gate_set": "HPI"},
        "sampler": {"kind": "pcnot", "p_cnot": 0.3},
        "lengths": [0, 4, 8],
        "circuits_per_length": 2,
        "compile": {"trials": 3},
    },
    "crb_ring4_c24": {
        "protocol": "CRB",
        "device": {"preset": "ring", "n": 4, "gate_set": "C24"},
        "lengths": [1, 2],
        "circuits_per_length": 2,
        "compile": {"trials": 3},
    },
    "crb_ring3_hpi": {
        "protocol": "CRB",
        "device": {"preset": "ring", "n": 3, "gate_set": "HPI"},
        "lengths": [1, 2, 4],
        "circuits_per_length": 2,
        "compile": {"trials": 3},
    },
    "drb_ring4_c24_trials10": {
        "protocol": "DRB",
        "device": {"preset": "ring", "n": 4, "gate_set": "C24"},
        "sampler": {"kind": "pcnot", "p_cnot": 0.3},
        "lengths": [0, 4, 8],
        "circuits_per_length": 2,
        "compile": {"trials": 10},
    },
    "crb_ring4_c24_trials10": {
        "protocol": "CRB",
        "device": {"preset": "ring", "n": 4, "gate_set": "C24"},
        "lengths": [1, 2],
        "circuits_per_length": 2,
        "compile": {"trials": 10},
    },
    # a ring's eccentricity order is 0..n-1; on a 4-qubit line it starts
    # from the end qubits, so this pins a first order that is not 0..n-1
    "crb_line4_c24": {
        "protocol": "CRB",
        "device": {"n": 4, "edges": [[0, 1], [1, 2], [2, 3]], "gate_set": "C24"},
        "lengths": [1, 2],
        "circuits_per_length": 2,
        "compile": {"trials": 3},
    },
    # the category sampler on the ring-plus-hub layout: ring edges and
    # hub edges as two CNOT categories next to the all-1Q one
    "drb_rwc5_category": {
        "protocol": "DRB",
        "device": {"preset": "ring_with_center", "n": 5, "gate_set": "HPI"},
        "sampler": {
            "kind": "category",
            "probabilities": [0.5, 0.25, 0.25],
            "edge_groups": [[[0, 1], [1, 2], [2, 3], [3, 0]],
                            [[4, 0], [4, 1], [4, 2], [4, 3]]],
        },
        "lengths": [0, 4, 8],
        "circuits_per_length": 2,
        "compile": {"trials": 3},
    },
    # n = 12, the paper's 10+ qubit scale: the stabilizer compiler's
    # factor on wide blocks, all-to-all and on relabeled rings, where
    # CNOTs between far qubits expand along paths
    "drb_all12_pairing": {
        "protocol": "DRB",
        "device": {"preset": "all_to_all", "n": 12, "gate_set": "C24"},
        "sampler": {"kind": "pairing", "p_cnot": 0.5},
        "lengths": [0, 3, 6],
        "circuits_per_length": 2,
        "compile": {"trials": 1},
    },
    "drb_ring12_hpi": {
        "protocol": "DRB",
        "device": {"preset": "ring", "n": 12, "gate_set": "HPI"},
        "sampler": {"kind": "pcnot", "p_cnot": 0.3},
        "lengths": [0, 4],
        "circuits_per_length": 2,
        "compile": {"trials": 3},
    },
}

SEED = 5

GOLDEN = {
    "drb_ring4_c24": "767348fa370ca27e6cde4572751082411d8ee8b1616c94935318376f307fdbf8",
    "drb_all8_pairing": "834d3f368f4464852086b60458efc22b0b9423e965fd7e31d1fea793f6549f04",
    "drb_ring4_hpi": "d079635cf740c80f33b100d6f1eef1f94eb202687c7eda6b2940b7a95dff5d0b",
    "crb_ring4_c24": "88f085323040318cf863066642a0e6c38738b9dfe61ba59a3092c75eab8b5746",
    "crb_ring3_hpi": "de707ab69e33280ee962ee9804306473b67d60673c49d0ccbb587fa57c771d0a",
    "drb_ring4_c24_trials10": "4c1affb8764f078926ea3dd5c63578f775d49575df3d52a43838a9573b5c5826",
    "crb_ring4_c24_trials10": "48fac8072ed2f5551d39b515af21168e0f39a2ef6f860c4c600cfa95228b1f75",
    "crb_line4_c24": "fbb09bf9d4de9d63eb75f326b8d33c5b750a5612461bfe940435b816fa98f241",
    "drb_rwc5_category": "d652d522d284981f6bf1e2dd35d5501ac461aa07c0d699a10715358f26cfc07e",
    "drb_all12_pairing": "e974a2d29e6512eb77960fdeedae7cae56879191ae91a0ee72e7b93a0fc64a23",
    "drb_ring12_hpi": "734d21b544a5e29759e65bc09c2d36213676544b66c5e29286a975f31f86f691",
}


def circuits_digest(run: Path) -> str:
    acc = hashlib.sha256()
    for path in sorted((run / "circuits").glob("*.txt")):
        acc.update(path.name.encode() + b"\0" + hashlib.sha256(path.read_bytes()).digest())
    return acc.hexdigest()


def generate_run(tmp_path: Path, name: str) -> Path:
    config = tmp_path / f"{name}.json"
    config.write_text(json.dumps({**CONFIGS[name], "seed": SEED}), encoding="utf-8")
    run = tmp_path / name
    assert main(["generate", "--config", str(config), "--out", str(run)]) == 0
    return run


def generate_digest(tmp_path: Path, name: str) -> str:
    return circuits_digest(generate_run(tmp_path, name))


@pytest.mark.parametrize("name", sorted(CONFIGS))
def test_circuit_files_match_golden_digest(tmp_path, name):
    assert generate_digest(tmp_path, name) == GOLDEN[name]


@pytest.mark.parametrize("name", sorted(CONFIGS))
def test_every_cnot_on_a_declared_edge(tmp_path, name):
    device = design_from_config(CONFIGS[name]).device
    paths = sorted((generate_run(tmp_path, name) / "circuits").glob("*.txt"))
    assert paths
    for path in paths:
        circuit = circuit_from_text(path.read_text(encoding="utf-8")).full_circuit
        for gate in (g for layer in circuit.layers for g in layer if g.name == "CNOT"):
            assert device.has_edge(*gate.qubits), (path.name, gate)


# Calls of the Clifford operations compose and invert, PauliOp
# constructions and products while generating a config.  DRB tracks states
# through the row-stack kernel and keeps them as row stacks, and reads each
# sampled state straight off its Clifford, so it makes none; CRB composes
# only its sampled elements (6) and inverts each circuit's product once (4),
# and reads each compiled element's sign fix off one kernel replay.  A
# return to per-Pauli tracking or to dense sign algebra shows up here as a
# count.  ``protocols`` imports compose and invert by name, so every drbench
# binding of them is counted, as the benchmark's span recorder wraps them.
# PauliRows.apply_layer counts the calls into the row kernel.  DRB tracking,
# each segment's final check and the composition check call it per layer;
# each stabilizer candidate's CNOT-stage check (35 outer orders) and each
# prep's sign replay (6) call it once.  CRB calls it once per element for
# the sign fix (10) and per layer for the checks (the 1Q product table,
# built once per process, is built before counting).
WORK_COUNTS = {
    "drb_ring4_c24": {"compose": 0, "invert": 0, "PauliOp.__init__": 0, "PauliOp.__mul__": 0,
                      "PauliRows.apply_layer": 243},
    "crb_ring4_c24": {"compose": 6, "invert": 4, "PauliOp.__init__": 0, "PauliOp.__mul__": 0,
                      "PauliRows.apply_layer": 632},
}


@pytest.mark.parametrize("name", sorted(WORK_COUNTS))
def test_clifford_work_counts(tmp_path, monkeypatch, name):
    counts = dict.fromkeys(WORK_COUNTS[name], 0)
    compiling._one_qubit_products()
    for key in counts:
        cls_name, _, attr = key.rpartition(".")
        owner = {"": clifford, "PauliOp": PauliOp, "PauliRows": PauliRows}[cls_name]
        original = getattr(owner, attr)

        def counted(*args, _original=original, _key=key, **kwargs):
            counts[_key] += 1
            return _original(*args, **kwargs)

        if owner is clifford:
            for module in list(sys.modules.values()):
                if getattr(module, "__name__", "").startswith("drbench") and \
                        getattr(module, attr, None) is original:
                    monkeypatch.setattr(module, attr, counted)
        else:
            monkeypatch.setattr(owner, attr, counted)
    assert generate_digest(tmp_path, name) == GOLDEN[name]
    assert counts == WORK_COUNTS[name]


# Calls of the compilers' packing, elimination and 1Q-merging steps while
# generating a config, and the manifest's summed ``segment_trials``.  Trials
# are costed from their gate sequences and every replay runs on the row
# kernel, so each emitted circuit is packed once (DRB: 6 prep and 6 meas
# segments; CRB: 10 elements), and repeated elimination orders are skipped
# (at trials 3 every segment would otherwise run 3 outer orders of 3 CNOT
# eliminations each: 108, not 103).  Every
# distinct outer order is merged once to be costed and every winner once
# more (DRB: 35 orders + 12 segments = 47; CRB: 29 orders + 10 elements =
# 39), and ``segment_trials`` adds the inner CNOT eliminations to the outer
# orders (DRB: 35 + 103 = 138).  ``DeviceSpec._search`` counts breadth-first
# searches with the CNOT-realization cache emptied first: the eccentricities
# take one per qubit once per compile (4 x 12 DRB segments, 4 x 10 CRB
# elements), not once per relabeled device, and the rest are shortest
# paths and the config's connectivity check.
COMPILE_COUNTS = {
    "drb_ring4_c24": {"_pack_layers": 12, "_cnot_ge_ops": 103, "_gge_ops": 0,
                      "_merge_one_qubit_runs": 47, "segment_trials": 138,
                      "DeviceSpec._search": 65},
    "crb_ring4_c24": {"_pack_layers": 10, "_cnot_ge_ops": 0, "_gge_ops": 29,
                      "_merge_one_qubit_runs": 39, "segment_trials": 29,
                      "DeviceSpec._search": 44},
}


@pytest.mark.parametrize("name", sorted(COMPILE_COUNTS))
def test_compile_work_counts(tmp_path, monkeypatch, name):
    counts = dict.fromkeys(COMPILE_COUNTS[name], 0)
    for step in counts.keys() - {"segment_trials"}:
        owner, attr = (DeviceSpec, "_search") if step == "DeviceSpec._search" else (compiling, step)
        original = getattr(owner, attr)

        def counted(*args, _original=original, _step=step, **kwargs):
            counts[_step] += 1
            return _original(*args, **kwargs)

        monkeypatch.setattr(owner, attr, counted)
    compiling._cnot_realization.cache_clear()
    run = generate_run(tmp_path, name)
    assert circuits_digest(run) == GOLDEN[name]
    manifest = json.loads((run / "manifest.json").read_text(encoding="utf-8"))
    counts["segment_trials"] = sum(sum(c["segment_trials"]) for c in manifest["experiment"]["circuits"])
    assert counts == COMPILE_COUNTS[name]


# Dataset digests of golden runs simulated at a fixed seed.  The models
# have no layer-depolarizing term, so every draw lands on a named gate or
# readout source and the per-shot outcomes do not depend on how the
# simulator orders its frame rows.  A digest covers the dataset's row
# lines; its first line, the provenance, names the run directory.
SIM_SEED = 11
SIM_SHOTS = 1000
CALIBRATION8 = {"n": 8, "one_qubit": 0.0005, "cnot": 0.004, "readout": 0.01}
DATASETS = {
    ("drb_ring4_c24", "main_sim", False):
        "123fcb81b6ff4c74b79490091bbab4d798651954cae59e925873120f8625e256",
    ("crb_ring4_c24", "main_sim", False):
        "2a17858d72b918486f30bf0391b4e4f89ffd1e00cebbcb266c099ebbca296e24",
    ("drb_rwc5_category", "crosstalk5", False):
        "ad306dba57cdeb9e7d6b7c4db45accfbbcd5e7cf39d5826cbb86d34a6a6bc2a7",
    ("drb_all8_pairing", "calibration8", True):
        "7801d468e7001ec417a5eedb7ca6fba2cef4f403026db7d7dfce859fb381ed99",
}


def simulate_digest(tmp_path: Path, name: str, model: str, histogram: bool) -> str:
    run = generate_run(tmp_path, name)
    if model == "calibration8":
        model = str(tmp_path / "calibration8.json")
        Path(model).write_text(json.dumps(CALIBRATION8), encoding="utf-8")
    out = tmp_path / "dataset.jsonl"
    argv = ["simulate", "--run", str(run), "--model", model, "--seed", str(SIM_SEED),
            "--shots", str(SIM_SHOTS), "--out", str(out)]
    assert main(argv + ["--histogram"] * histogram) == 0
    rows = out.read_text(encoding="utf-8").splitlines()[1:]
    assert len(rows) == len(list((run / "circuits").glob("*.txt")))
    return hashlib.sha256("\n".join(rows).encode()).hexdigest()


@pytest.mark.parametrize("key", sorted(DATASETS), ids=lambda key: f"{key[0]}-{key[1]}")
def test_dataset_matches_golden_digest(tmp_path, key):
    assert simulate_digest(tmp_path, *key) == DATASETS[key]
