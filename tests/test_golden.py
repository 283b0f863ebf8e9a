"""Golden digests of generated circuit files.

A refactor of the Clifford algebra or the compilers that claims to keep
behaviour must keep every circuit byte-identical at the same seed.  The
pinned values are sha256 digests over all circuit files of a run (sorted
by name, each contributing its name and its own digest).
"""

import hashlib
import json
from pathlib import Path

import pytest

from drbench import compiling
from drbench.cli import main
from drbench.clifford import CliffordOp

CONFIGS = {
    "drb_ring4_c24": {
        "protocol": "DRB",
        "device": {"preset": "ring", "n": 4, "gate_set": "C24"},
        "sampler": {"kind": "pcnot", "p_cnot": 0.3},
        "lengths": [0, 4, 8],
        "circuits_per_length": 2,
        "compile": {"trials": 3},
    },
    "drb_ring4_c24_frames": {
        "protocol": "DRB",
        "device": {"preset": "ring", "n": 4, "gate_set": "C24"},
        "sampler": {"kind": "pcnot", "p_cnot": 0.3},
        "lengths": [0, 4, 8],
        "circuits_per_length": 2,
        "frame_randomization": True,
        "compile": {"trials": 3},
    },
    "drb_ring4_c24_frame_gates": {
        "protocol": "DRB",
        "device": {"preset": "ring", "n": 4, "gate_set": "C24"},
        "sampler": {"kind": "pcnot", "p_cnot": 0.3},
        "lengths": [0, 4, 8],
        "circuits_per_length": 2,
        "frame_randomization": True,
        "emit_frame_gates": True,
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
    # on C24 every 1Q word is one gate, so depth and gates order ring-4
    # trials like CNOTs do; HPI words of several gates tell them apart
    "drb_ring4_hpi_cost_depth": {
        "protocol": "DRB",
        "device": {"preset": "ring", "n": 4, "gate_set": "HPI"},
        "sampler": {"kind": "pcnot", "p_cnot": 0.3},
        "lengths": [0, 4, 8],
        "circuits_per_length": 2,
        "compile": {"trials": 3, "cost": "depth"},
    },
    "drb_ring4_hpi_cost_gates": {
        "protocol": "DRB",
        "device": {"preset": "ring", "n": 4, "gate_set": "HPI"},
        "sampler": {"kind": "pcnot", "p_cnot": 0.3},
        "lengths": [0, 4, 8],
        "circuits_per_length": 2,
        "compile": {"trials": 3, "cost": "gates"},
    },
    "drb_ring4_c24_any_connectivity": {
        "protocol": "DRB",
        "device": {"preset": "ring", "n": 4, "gate_set": "C24"},
        "sampler": {"kind": "pcnot", "p_cnot": 0.3},
        "lengths": [0, 4, 8],
        "circuits_per_length": 2,
        "compile": {"trials": 3, "respect_connectivity": False},
    },
    # a ring's eccentricity order is 0..n-1, so the heuristic only changes
    # the first elimination order on a less symmetric device: a 4-qubit line
    "crb_line4_c24_no_heuristic": {
        "protocol": "CRB",
        "device": {"n": 4, "edges": [[0, 1], [1, 2], [2, 3]], "gate_set": "C24"},
        "lengths": [1, 2],
        "circuits_per_length": 2,
        "compile": {"trials": 3, "use_heuristic": False},
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
}

SEED = 5

GOLDEN = {
    "drb_ring4_c24": "767348fa370ca27e6cde4572751082411d8ee8b1616c94935318376f307fdbf8",
    "drb_ring4_c24_frames": "30475c2fa55266d66e7b3d533ec526dee2d3f59a2ff31a292f6351e526741d91",
    "drb_ring4_c24_frame_gates": "3dc892d1e95f2fc37b81205fde05cd93b3bbe79c1504e9fa598f93d06e85486e",
    "drb_all8_pairing": "834d3f368f4464852086b60458efc22b0b9423e965fd7e31d1fea793f6549f04",
    "drb_ring4_hpi": "d079635cf740c80f33b100d6f1eef1f94eb202687c7eda6b2940b7a95dff5d0b",
    "crb_ring4_c24": "88f085323040318cf863066642a0e6c38738b9dfe61ba59a3092c75eab8b5746",
    "crb_ring3_hpi": "de707ab69e33280ee962ee9804306473b67d60673c49d0ccbb587fa57c771d0a",
    "drb_ring4_c24_trials10": "4c1affb8764f078926ea3dd5c63578f775d49575df3d52a43838a9573b5c5826",
    "crb_ring4_c24_trials10": "48fac8072ed2f5551d39b515af21168e0f39a2ef6f860c4c600cfa95228b1f75",
    "drb_ring4_hpi_cost_depth": "4fe8112e061b72781d836c56d44023e96a00abc5d1e42a6c553cef1e6f8e345d",
    "drb_ring4_hpi_cost_gates": "c0aa3e0f297757167af0a1c1f8ebcd9714f2af39e6cdcd3cfe5ca042b07bd2fe",
    "drb_ring4_c24_any_connectivity": "793a92bdb75e125d7157fcdaecaa5c4866725fe22b181f7bc417f68ad988934b",
    "crb_line4_c24_no_heuristic": "6db8faa1a93eedc75ea3cea9d4272dc37bf8cb5a1f16cab0cc7685d7dbfe5761",
    "drb_rwc5_category": "d652d522d284981f6bf1e2dd35d5501ac461aa07c0d699a10715358f26cfc07e",
}


def circuits_digest(run: Path) -> str:
    acc = hashlib.sha256()
    for path in sorted((run / "circuits").glob("*.txt")):
        acc.update(path.name.encode() + b"\0" + hashlib.sha256(path.read_bytes()).digest())
    return acc.hexdigest()


def generate_digest(tmp_path: Path, name: str) -> str:
    config = tmp_path / f"{name}.json"
    config.write_text(json.dumps({**CONFIGS[name], "seed": SEED}), encoding="utf-8")
    run = tmp_path / name
    assert main(["generate", "--config", str(config), "--out", str(run)]) == 0
    return circuits_digest(run)


@pytest.mark.parametrize("name", sorted(CONFIGS))
def test_circuit_files_match_golden_digest(tmp_path, name):
    assert generate_digest(tmp_path, name) == GOLDEN[name]


# Calls of CliffordOp.conjugate_pauli and CliffordOp.compose while generating
# a config.  DRB tracks states through the row-stack kernel and makes none;
# CRB composes its sampled elements and fixes each compiled element's signs
# with one compose.  A return to per-Pauli tracking shows up here as a count.
WORK_COUNTS = {
    "drb_ring4_c24": {"conjugate_pauli": 0, "compose": 0},
    "crb_ring4_c24": {"conjugate_pauli": 0, "compose": 16},
}


@pytest.mark.parametrize("name", sorted(WORK_COUNTS))
def test_clifford_work_counts(tmp_path, monkeypatch, name):
    counts = dict.fromkeys(WORK_COUNTS[name], 0)
    for method in counts:
        original = getattr(CliffordOp, method)

        def counted(*args, _original=original, _method=method, **kwargs):
            counts[_method] += 1
            return _original(*args, **kwargs)

        monkeypatch.setattr(CliffordOp, method, counted)
    assert generate_digest(tmp_path, name) == GOLDEN[name]
    assert counts == WORK_COUNTS[name]


# Calls of the compilers' packing and elimination steps while generating a
# config.  Trials are costed from their gate sequences, so only winners are
# packed into circuits (DRB: meas once, prep twice for the phase replay and
# the result; CRB: each element twice, before and after its sign fix), and
# repeated elimination orders are skipped (at trials 3 every segment would
# otherwise run 3 outer orders of 3 CNOT eliminations each: 108, not 103).
COMPILE_COUNTS = {
    "drb_ring4_c24": {"_pack_layers": 18, "_cnot_ge_ops": 103, "_gge_ops": 0},
    "crb_ring4_c24": {"_pack_layers": 20, "_cnot_ge_ops": 0, "_gge_ops": 29},
}


@pytest.mark.parametrize("name", sorted(COMPILE_COUNTS))
def test_compile_work_counts(tmp_path, monkeypatch, name):
    counts = dict.fromkeys(COMPILE_COUNTS[name], 0)
    for step in counts:
        original = getattr(compiling, step)

        def counted(*args, _original=original, _step=step, **kwargs):
            counts[_step] += 1
            return _original(*args, **kwargs)

        monkeypatch.setattr(compiling, step, counted)
    assert generate_digest(tmp_path, name) == GOLDEN[name]
    assert counts == COMPILE_COUNTS[name]
