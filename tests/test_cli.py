"""End-to-end command checks: exit codes, file outputs, reproducibility."""

import json
import os
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest

import drbench
from drbench.cli import main
from drbench.io import circuit_from_text, dataset_from_jsonl


def write_config(path: Path, **overrides) -> Path:
    cfg = {
        "protocol": "DRB",
        "device": {"n": 2, "preset": "all_to_all", "gate_set": "HPI"},
        "sampler": {"kind": "pcnot", "p_cnot": 0.5},
        "lengths": [0, 2, 4],
        "circuits_per_length": 3,
        "shots": 50,
        "seed": 7,
    }
    cfg.update(overrides)
    path.write_text(json.dumps(cfg), encoding="utf-8")
    return path


def read_manifest(run: Path) -> dict:
    return json.loads((run / "manifest.json").read_text(encoding="utf-8"))


def strip_timestamps(manifest: dict) -> dict:
    out = dict(manifest)
    out.pop("created", None)
    out["simulations"] = [
        {k: v for k, v in sim.items() if k != "created"}
        for sim in manifest.get("simulations", [])
    ]
    return out


def generate(tmp_path: Path, name="run", **overrides) -> Path:
    cfg = write_config(tmp_path / f"{name}.json", **overrides)
    run = tmp_path / name
    assert main(["generate", "--config", str(cfg), "--out", str(run)]) == 0
    return run


# compile options of a config with a value of the wrong type or range, or
# with a key that is no compile option; each must end in exit 2 naming the
# field, neither failing late nor being coerced.  seed, respect_connectivity,
# use_heuristic and cost name no option (every compile draws its random
# orders from one stream, realizes each CNOT on declared edges and keeps the
# candidate with the fewest CNOTs, then least depth, then fewest gates), so
# a config that sets one, to any value, names it as an unknown field.
BAD_COMPILE_FIELDS = [
    ("trials", 2.5),
    ("trials", "x"),
    ("trials", True),
    ("trials", 0),
    ("seed", -1),
    ("seed", 1.5),
    ("seed", 0),
    ("respect_connectivity", "no"),
    ("respect_connectivity", True),
    ("use_heuristic", 0),
    ("use_heuristic", True),
    ("cost", "swaps"),
    ("cost", "cnots"),
]


# top-level and device fields of the wrong type, or unknown; before the type
# checks "seed": "x" exited 3, "shots": "many" exited 2 naming no field and
# the rest were coerced or ignored and exited 0 (a misspelt top-level key ran
# the design without the setting it meant); frame_randomization and
# emit_frame_gates name no option, so any value of them is unknown too
HPI2 = {"n": 2, "preset": "all_to_all", "gate_set": "HPI"}
BAD_CONFIG_FIELDS = [
    ({"frame_randomisation": True}, "frame_randomisation"),
    ({"seed": "x"}, "seed"),
    ({"seed": -1}, "seed"),
    ({"shots": "many"}, "shots"),
    ({"lengths": [0, 2.5]}, "lengths"),
    ({"frame_randomization": "no"}, "frame_randomization"),
    ({"emit_frame_gates": False}, "emit_frame_gates"),
    ({"circuits_per_length": True}, "circuits_per_length"),
    ({"device": {"n": 2, "edges": [[0, 1.7]], "gate_set": "HPI"}}, "device.edges"),
    ({"device": {**HPI2, "colour": "red"}}, "device.colour"),
    ({"device": {**HPI2, "n": True}}, "device.n"),
    # design checks that named no field: "need at least one length", "CRB
    # designs take no layer sampler"
    ({"lengths": []}, "lengths"),
    ({"protocol": "CRB"}, "sampler"),
    ({"protocol": "CRB", "sampler": None, "frame_randomization": True}, "frame_randomization"),
]
UNKNOWN_FIELDS = ("frame_randomisation", "frame_randomization", "emit_frame_gates", "device.colour")


# sampler sections that are malformed or that the device cannot run, with
# the field each must name: before the design-time checks they exited 3
# (pool, undeclared edge, unlinked pairing pair) or 0 (the rest)
RING3 = {"n": 3, "preset": "ring", "gate_set": "HPI"}
BAD_SAMPLERS = [
    ({"kind": "pcnot", "p_cnot": 0.5, "pool": "C24"}, RING3, "pool"),
    ({"kind": "category", "probabilities": [0.5, 0.5], "edge_groups": [[[0, 2]]]}, RING3,
     "edge_groups"),
    ({"kind": "pairing", "p_cnot": 0.5}, {"n": 4, "preset": "ring", "gate_set": "HPI"}, "p_cnot"),
    ({"kind": "category", "probabilities": [float("nan"), 0.5], "edge_groups": [[[0, 1]]]}, RING3,
     "probabilities"),
    ({"kind": "pcnot", "p_cnot": True}, RING3, "p_cnot"),
    ({"kind": "pcnot", "p_cnot": 0.5, "p_cnto": 0.1}, RING3, "p_cnto"),
]


class TestGenerate:
    def test_writes_circuits_and_manifest(self, tmp_path, capsys):
        run = generate(tmp_path)
        files = sorted((run / "circuits").glob("*.txt"))
        assert len(files) == 9
        manifest = read_manifest(run)
        assert manifest["master_seed"] == 7
        assert len(manifest["outputs"]) == 9
        assert all(d.startswith("sha256:") for d in manifest["outputs"].values())
        assert "wrote 9 circuits" in capsys.readouterr().out

    def test_repeat_is_byte_identical(self, tmp_path):
        a = generate(tmp_path, "a")
        b = generate(tmp_path, "b")
        for fa in sorted((a / "circuits").glob("*.txt")):
            fb = b / "circuits" / fa.name
            assert fa.read_bytes() == fb.read_bytes()
        ma, mb = read_manifest(a), read_manifest(b)
        ma["inputs"] = mb["inputs"] = {}
        assert strip_timestamps(ma) == strip_timestamps(mb)

    def test_env_seed_override(self, tmp_path, monkeypatch):
        monkeypatch.setenv("DRBENCH_SEED", "99")
        run = generate(tmp_path)
        assert read_manifest(run)["master_seed"] == 99

    def test_config_errors(self, tmp_path, capsys):
        cfg = tmp_path / "bad.json"
        cfg.write_text('{"device": {"n": 2}}', encoding="utf-8")
        assert main(["generate", "--config", str(cfg), "--out", str(tmp_path / "x")]) == 2
        assert "device.edges" in capsys.readouterr().err
        cfg.write_text("{not json", encoding="utf-8")
        assert main(["generate", "--config", str(cfg), "--out", str(tmp_path / "x")]) == 2
        missing = tmp_path / "absent.json"
        assert main(["generate", "--config", str(missing), "--out", str(tmp_path / "x")]) == 2

    @pytest.mark.parametrize("field,value", BAD_COMPILE_FIELDS)
    def test_malformed_compile_field_exit2(self, tmp_path, capsys, field, value):
        cfg = write_config(tmp_path / "bad.json", compile={field: value})
        out = tmp_path / "run"
        assert main(["generate", "--config", str(cfg), "--out", str(out)]) == 2
        err = capsys.readouterr().err
        assert f"compile.{field}" in err
        if field != "trials":
            assert f"unknown field 'compile.{field}'" in err
        assert not out.exists()

    @pytest.mark.parametrize("overrides,field", BAD_CONFIG_FIELDS)
    def test_malformed_config_field_exit2(self, tmp_path, capsys, overrides, field):
        cfg = write_config(tmp_path / "bad.json", **overrides)
        out = tmp_path / "run"
        assert main(["generate", "--config", str(cfg), "--out", str(out)]) == 2
        err = capsys.readouterr().err
        assert f"'{field}'" in err
        if field in UNKNOWN_FIELDS:
            assert f"unknown field '{field}'" in err
        assert not out.exists()

    @pytest.mark.parametrize("sampler,device,field", BAD_SAMPLERS)
    def test_malformed_sampler_exit2(self, tmp_path, capsys, sampler, device, field):
        cfg = write_config(tmp_path / "bad.json", sampler=sampler, device=device)
        out = tmp_path / "run"
        assert main(["generate", "--config", str(cfg), "--out", str(out)]) == 2
        assert f"sampler.{field}" in capsys.readouterr().err
        assert not out.exists()


# fields simulate reads from a generated manifest, each with a way to delete it
MANIFEST_FIELDS = {
    "master_seed": lambda m: m.pop("master_seed"),
    "experiment.shots": lambda m: m["experiment"].pop("shots"),
    "experiment.protocol": lambda m: m["experiment"].pop("protocol"),
    "experiment.circuits": lambda m: m["experiment"].pop("circuits"),
    "experiment.circuits[0].id": lambda m: m["experiment"]["circuits"][0].pop("id"),
    "experiment.circuits[0].target": lambda m: m["experiment"]["circuits"][0].pop("target"),
}

# fields simulate reads from a generated manifest, each with a value of the
# wrong type or range (a master_seed of -1 ended in exit 3 "simulation failed")
MANIFEST_BAD_TYPES = [
    ("experiment.shots", lambda m: m["experiment"].update(shots="many")),
    ("experiment.shots", lambda m: m["experiment"].update(shots=True)),
    ("master_seed", lambda m: m.update(master_seed="x")),
    ("master_seed", lambda m: m.update(master_seed=-1)),
    ("experiment.circuits", lambda m: m["experiment"].update(circuits=5)),
    ("experiment.protocol", lambda m: m["experiment"].update(protocol=7)),
    ("experiment.protocol", lambda m: m["experiment"].update(protocol=None)),
    ("experiment.circuits[0].target", lambda m: m["experiment"]["circuits"][0].update(target=1)),
]

# malformed target headers of a circuit file on n = 3
BAD_TARGETS = ["0x1", "0121", "2", ""]

# header lines of a one-circuit run's file out of range, and the part of the
# message naming each: n = 0 ended in a ValueError traceback (exit 1), and
# m = -5 was written to the dataset, which analyze then refused
BAD_HEADERS = [
    ("# n=0\n# m=0\n# target=\n", "circuit header 'n' must be >= 1"),
    ("# n=2\n# m=-5\n# target={target}\n", "circuit header 'm' must be >= 0"),
]

# integer-list headers of a one-layer file with a negative entry, and the
# header each names: they loaded as given, and segments -1,2,0 (its sum
# matches the layer count) would have been written back as 0,1,0
BAD_LIST_HEADERS = [
    ("# seed=-4,0,0\n# segments=0,1,0\n", "seed"),
    ("# seed=0,0,0\n# segments=-1,2,0\n", "segments"),
    ("# seed=0,0,0\n# segments=0,1,0\n# element_cnots=-2\n", "element_cnots"),
    ("# seed=0,0,0\n# segments=0,1,0\n# element_depths=-3\n", "element_depths"),
]

# headers given twice, and the header each names: the last one was kept, so
# m=0 then m=7 loaded as m = 7 and simulate wrote 7 into the dataset rows
REPEATED_HEADERS = [
    ("# m=7\n", "m"),
    ("# seed=0,0,0\n", "seed"),
    ("# target=00\n", "target"),
]

# headers the reader does not know and a protocol it does not run, and
# the part of the message naming each: all loaded without an error, so a
# misspelt element_cnots was dropped and XYZ went into the dataset
UNKNOWN_HEADERS = [
    ("DRB", "# element_cnot=-3\n", "unknown circuit header 'element_cnot'"),
    ("DRB", "# bogus=1\n", "unknown circuit header 'bogus'"),
    ("XYZ", "", "circuit header 'protocol' must be one of ['CRB', 'DRB'], got 'XYZ'"),
]

# gates the row kernel does not run, which loaded and then failed the
# simulation with exit 3, and the part of the message naming each
BAD_GATES = [
    ("FOO 0", "unknown gate name 'FOO'"),
    ("CNOT 0", "CNOT takes exactly two qubits"),
    ("H 0,1", "H takes exactly one qubit"),
]

# model-file fields of the wrong kind: a bool or a string rate was coerced
# to a float and a null one ended in a TypeError traceback
BAD_MODELS = [
    ({"one_qubit": True}, "one_qubit"),
    ({"layer_depol": "0.1"}, "layer_depol"),
    ({"layer_depol": None}, "layer_depol"),
    ({"one_qubit": {"0": 0.1, "1": [1]}}, "one_qubit.1"),
    ({"cnot": {"0,1": "x"}}, "cnot.0,1"),
    ({"cnot": {"0,1": 1.5}}, "cnot.0,1"),
    ({"readout": {"0": 0.1}}, "readout.1"),
]


def corrupt_manifest(run: Path, corrupt) -> None:
    manifest = read_manifest(run)
    corrupt(manifest)
    (run / "manifest.json").write_text(json.dumps(manifest), encoding="utf-8")


class TestSimulate:
    def test_zero_model_all_success(self, tmp_path):
        run = generate(tmp_path)
        assert main(["simulate", "--run", str(run), "--model", "zero"]) == 0
        data = dataset_from_jsonl((run / "dataset.jsonl").read_text(encoding="utf-8"))
        assert len(data.rows) == 9
        assert all(r.successes == r.shots == 50 for r in data.rows)
        assert data.provenance["model"] == "zero"
        manifest = read_manifest(run)
        assert manifest["simulations"][0]["dataset"] == "dataset.jsonl"
        assert "dataset.jsonl" in manifest["outputs"]
        circuits = [circuit_from_text(path.read_text(encoding="utf-8"))
                    for path in (run / "circuits").glob("*.txt")]
        depth = sum(c.prep.depth + c.core.depth + c.meas.depth for c in circuits)
        assert manifest["simulations"][0]["shot_layers"] == depth * 50
        assert manifest["simulations"][0]["error_events"] == 0
        for entry in manifest["experiment"]["circuits"]:
            circ = circuit_from_text(
                (run / "circuits" / f"{entry['id']}.txt").read_text(encoding="utf-8"))
            segments = (circ.prep, circ.core, circ.meas)
            assert entry["segment_cnots"] == [seg.cnot_count for seg in segments]
            assert entry["segment_depths"] == [seg.depth for seg in segments]
        assert any(entry["segment_cnots"][0] for entry in manifest["experiment"]["circuits"])
        # DRB compiles prep and meas, each over at least one elimination
        # order and one CNOT elimination; the sampled core is not compiled
        for entry in manifest["experiment"]["circuits"]:
            prep, core, meas = entry["segment_trials"]
            assert prep >= 2 and core == 0 and meas >= 2

    def test_thread_invariance_and_shots_override(self, tmp_path):
        run = generate(tmp_path)
        out1 = run / "d1.jsonl"
        out4 = run / "d4.jsonl"
        base = ["simulate", "--run", str(run), "--model", "main_sim",
                "--shots", "200", "--seed", "5"]
        assert main(base + ["--threads", "1", "--out", str(out1)]) == 0
        assert main(base + ["--threads", "4", "--out", str(out4)]) == 0
        assert out1.read_bytes() == out4.read_bytes()
        rows = dataset_from_jsonl(out1.read_text(encoding="utf-8")).rows
        assert all(r.shots == 200 for r in rows)
        first, second = read_manifest(run)["simulations"]
        assert first["error_events"] == second["error_events"] > 0
        assert first["shot_layers"] == second["shot_layers"] > 0

    def test_histogram_flag(self, tmp_path):
        run = generate(tmp_path)
        assert main(["simulate", "--run", str(run), "--model", "zero",
                     "--histogram"]) == 0
        data = dataset_from_jsonl((run / "dataset.jsonl").read_text(encoding="utf-8"))
        assert all(r.histogram is not None for r in data.rows)

    def test_coverage_gap_exit3(self, tmp_path, capsys):
        run = generate(tmp_path)
        model = tmp_path / "sparse.json"
        model.write_text(json.dumps({"n": 2, "one_qubit": 0.0, "cnot": {"0,1": 0.0}}),
                         encoding="utf-8")
        assert main(["simulate", "--run", str(run), "--model", str(model)]) == 3
        assert "CNOT 1,0" in capsys.readouterr().err

    def test_bad_model_exit2(self, tmp_path, capsys):
        run = generate(tmp_path)
        assert main(["simulate", "--run", str(run), "--model", "nope"]) == 2
        assert "unknown model" in capsys.readouterr().err
        assert main(["simulate", "--run", str(tmp_path / "missing"), "--model", "zero"]) == 2

    @pytest.mark.parametrize("fields,name", BAD_MODELS)
    def test_malformed_model_field_exit2(self, tmp_path, capsys, fields, name):
        run = generate(tmp_path)
        model = tmp_path / "model.json"
        model.write_text(json.dumps({"n": 2, **fields}), encoding="utf-8")
        assert main(["simulate", "--run", str(run), "--model", str(model)]) == 2
        err = capsys.readouterr().err
        assert str(model) in err and f"field '{name}'" in err
        assert not (run / "dataset.jsonl").exists()

    @pytest.mark.parametrize("gate,problem", BAD_GATES)
    def test_unknown_gate_exit2(self, tmp_path, capsys, gate, problem):
        run = generate(tmp_path)
        entry = read_manifest(run)["experiment"]["circuits"][-1]
        path = run / "circuits" / f"{entry['id']}.txt"
        lines = path.read_text(encoding="utf-8").splitlines()
        lines[-1] = gate
        path.write_text("\n".join(lines) + "\n", encoding="utf-8")
        assert main(["simulate", "--run", str(run), "--model", "zero"]) == 2
        err = capsys.readouterr().err
        assert str(path) in err and problem in err
        assert not (run / "dataset.jsonl").exists()

    def test_unknown_model_field_exit2(self, tmp_path, capsys):
        # read as a zero-readout model before unknown fields were rejected
        run = generate(tmp_path)
        model = tmp_path / "model.json"
        model.write_text(json.dumps({"n": 2, "meas_flip": [0.3, 0.3]}), encoding="utf-8")
        assert main(["simulate", "--run", str(run), "--model", str(model)]) == 2
        assert "'meas_flip'" in capsys.readouterr().err
        assert not (run / "dataset.jsonl").exists()

    @pytest.mark.parametrize("field", MANIFEST_FIELDS)
    def test_manifest_missing_field_exit2(self, tmp_path, capsys, field):
        run = generate(tmp_path)
        manifest = read_manifest(run)
        MANIFEST_FIELDS[field](manifest)
        (run / "manifest.json").write_text(json.dumps(manifest), encoding="utf-8")
        assert main(["simulate", "--run", str(run), "--model", "zero"]) == 2
        assert f"field '{field}' is missing" in capsys.readouterr().err
        assert not (run / "dataset.jsonl").exists()

    @pytest.mark.parametrize("field,corrupt", MANIFEST_BAD_TYPES)
    def test_manifest_field_type_exit2(self, tmp_path, capsys, field, corrupt):
        run = generate(tmp_path)
        manifest = read_manifest(run)
        corrupt(manifest)
        (run / "manifest.json").write_text(json.dumps(manifest), encoding="utf-8")
        assert main(["simulate", "--run", str(run), "--model", "zero"]) == 2
        assert f"field '{field}' must be " in capsys.readouterr().err
        assert not (run / "dataset.jsonl").exists()

    @staticmethod
    def set_first_target(run: Path, target: str) -> str:
        """Rewrite the target header of the run's first circuit file; returns
        the target the manifest records for it."""
        entry = read_manifest(run)["experiment"]["circuits"][0]
        path = run / "circuits" / f"{entry['id']}.txt"
        text = path.read_text(encoding="utf-8")
        path.write_text(text.replace(f"# target={entry['target']}\n", f"# target={target}\n"),
                        encoding="utf-8")
        return entry["target"]

    @pytest.mark.parametrize("target", BAD_TARGETS)
    def test_malformed_circuit_target_exit2(self, tmp_path, capsys, target):
        run = generate(tmp_path, device={"n": 3, "preset": "all_to_all", "gate_set": "HPI"})
        self.set_first_target(run, target)
        assert main(["simulate", "--run", str(run), "--model", "zero"]) == 2
        assert "circuit header 'target' must be 3 characters, each 0 or 1" in capsys.readouterr().err
        assert not (run / "dataset.jsonl").exists()

    @pytest.mark.parametrize("headers,problem", BAD_HEADERS, ids=("n", "m"))
    def test_circuit_header_out_of_range_exit2(self, tmp_path, capsys, headers, problem):
        run = generate(tmp_path, lengths=[0], circuits_per_length=1)
        (entry,) = read_manifest(run)["experiment"]["circuits"]
        path = run / "circuits" / f"{entry['id']}.txt"
        path.write_text(f"# drbench circuit v1\n# id={entry['id']}\n# protocol=DRB\n"
                        + headers.format(target=entry["target"])
                        + "# seed=0,0,0\n# segments=0,0,0\n", encoding="utf-8")
        assert main(["simulate", "--run", str(run), "--model", "zero"]) == 2
        err = capsys.readouterr().err
        assert str(path) in err and problem in err
        assert not (run / "dataset.jsonl").exists()

    @pytest.mark.parametrize("headers,name", BAD_LIST_HEADERS, ids=[name for _, name in BAD_LIST_HEADERS])
    def test_negative_circuit_header_entries_exit2(self, tmp_path, capsys, headers, name):
        run = generate(tmp_path, lengths=[0], circuits_per_length=1)
        (entry,) = read_manifest(run)["experiment"]["circuits"]
        path = run / "circuits" / f"{entry['id']}.txt"
        path.write_text(f"# drbench circuit v1\n# id={entry['id']}\n# protocol=DRB\n# n=2\n# m=0\n"
                        f"# target={entry['target']}\n" + headers + "I 0\n", encoding="utf-8")
        assert main(["simulate", "--run", str(run), "--model", "zero"]) == 2
        err = capsys.readouterr().err
        assert str(path) in err and f"circuit header '{name}' entries must be >= 0" in err
        assert not (run / "dataset.jsonl").exists()

    @pytest.mark.parametrize("header,name", REPEATED_HEADERS, ids=[name for _, name in REPEATED_HEADERS])
    def test_repeated_circuit_header_exit2(self, tmp_path, capsys, header, name):
        run = generate(tmp_path, lengths=[0], circuits_per_length=1)
        (entry,) = read_manifest(run)["experiment"]["circuits"]
        path = run / "circuits" / f"{entry['id']}.txt"
        path.write_text(f"# drbench circuit v1\n# id={entry['id']}\n# protocol=DRB\n# n=2\n# m=0\n"
                        f"# target={entry['target']}\n# seed=0,0,0\n# segments=0,1,0\n"
                        + header + "I 0\n", encoding="utf-8")
        assert main(["simulate", "--run", str(run), "--model", "zero"]) == 2
        err = capsys.readouterr().err
        assert str(path) in err and f"circuit header '{name}' repeated" in err
        assert not (run / "dataset.jsonl").exists()

    @pytest.mark.parametrize("protocol,header,message", UNKNOWN_HEADERS,
                             ids=["element_cnot", "bogus", "protocol"])
    def test_unknown_circuit_header_exit2(self, tmp_path, capsys, protocol, header, message):
        run = generate(tmp_path, lengths=[0], circuits_per_length=1)
        (entry,) = read_manifest(run)["experiment"]["circuits"]
        path = run / "circuits" / f"{entry['id']}.txt"
        path.write_text(f"# drbench circuit v1\n# id={entry['id']}\n# protocol={protocol}\n# n=2\n"
                        f"# m=0\n# target={entry['target']}\n# seed=0,0,0\n# segments=0,1,0\n"
                        + header + "I 0\n", encoding="utf-8")
        assert main(["simulate", "--run", str(run), "--model", "zero"]) == 2
        err = capsys.readouterr().err
        assert str(path) in err and message in err
        assert not (run / "dataset.jsonl").exists()

    def test_circuit_widths_differ_exit2(self, tmp_path, capsys):
        # ended in exit 3, "model and circuit disagree on qubit count"
        run = generate(tmp_path)
        wide = generate(tmp_path, name="wide",
                        device={"n": 3, "preset": "all_to_all", "gate_set": "HPI"})
        entry = read_manifest(wide)["experiment"]["circuits"][-1]
        path = run / "circuits" / f"{entry['id']}.txt"
        path.write_bytes((wide / "circuits" / path.name).read_bytes())
        corrupt_manifest(run, lambda m: m["experiment"]["circuits"][-1].update(
            target=entry["target"]))
        assert main(["simulate", "--run", str(run), "--model", "zero"]) == 2
        err = capsys.readouterr().err
        assert str(path) in err and "circuit header 'n' is 3" in err
        assert not (run / "dataset.jsonl").exists()

    def test_circuit_target_disagrees_with_manifest_exit2(self, tmp_path, capsys):
        run = generate(tmp_path, device={"n": 3, "preset": "all_to_all", "gate_set": "HPI"})
        recorded = read_manifest(run)["experiment"]["circuits"][0]["target"]
        self.set_first_target(run, str(1 - int(recorded[0])) + recorded[1:])
        assert main(["simulate", "--run", str(run), "--model", "zero"]) == 2
        assert "manifest field experiment.circuits[0].target" in capsys.readouterr().err
        assert not (run / "dataset.jsonl").exists()

    def test_manifest_protocol_value_exit2(self, tmp_path, capsys):
        run = generate(tmp_path)
        corrupt_manifest(run, lambda m: m["experiment"].update(protocol="QRB"))
        assert main(["simulate", "--run", str(run), "--model", "zero"]) == 2
        assert "field 'experiment.protocol' must be DRB or CRB" in capsys.readouterr().err
        assert not (run / "dataset.jsonl").exists()

    def test_manifest_shots_nonpositive_exit2(self, tmp_path, capsys):
        run = generate(tmp_path)
        corrupt_manifest(run, lambda m: m["experiment"].update(shots=0))
        assert main(["simulate", "--run", str(run), "--model", "zero"]) == 2
        err = capsys.readouterr().err
        assert "field 'experiment.shots' must be >= 1" in err
        assert "--shots" not in err
        assert not (run / "dataset.jsonl").exists()

    def test_flag_shots_nonpositive_exit2(self, tmp_path, capsys):
        run = generate(tmp_path)
        assert main(["simulate", "--run", str(run), "--model", "zero", "--shots", "-3"]) == 2
        err = capsys.readouterr().err
        assert "--shots must be positive" in err
        assert "experiment.shots" not in err
        assert not (run / "dataset.jsonl").exists()

    def test_flag_seed_negative_exit2(self, tmp_path, capsys):
        # ended in exit 3, "simulation failed: expected non-negative integer"
        run = generate(tmp_path)
        manifest = (run / "manifest.json").read_bytes()
        assert main(["simulate", "--run", str(run), "--model", "depolarizing:0.99",
                     "--seed", "-1"]) == 2
        assert "--seed must be >= 0, got -1" in capsys.readouterr().err
        assert not (run / "dataset.jsonl").exists()
        assert (run / "manifest.json").read_bytes() == manifest


# dataset row fields of the wrong type: a list m and a histogram pair of
# one entry ended in a traceback, a float m and a string count were coerced
BAD_ROWS = [
    ({"m": [1]}, "m"),
    ({"m": 2.7}, "m"),
    ({"successes": "3"}, "successes"),
    ({"shots": True}, "shots"),
    ({"histogram": [[1]]}, "histogram"),
    ({"histogram": [["01", 9.0]]}, "histogram"),
    # out of range: a negative m fitted to a wrong rate with exit 0 and zero
    # shots ended in a traceback
    ({"m": -3}, "m"),
    ({"shots": 0, "successes": 0}, "shots"),
    # targets that are not bitstrings, or not as long as row 0's, set n in
    # analyze and exited 0
    ({"target": "xyz"}, "target"),
    ({"target": 7}, "target"),
    ({"target": "01"}, "target"),
    # histograms whose bitstrings are not 0/1 or not as long as the target
    # (on bare rows, as each other), or whose counts are negative or sum
    # above shots, loaded as they stood
    ({"histogram": [["xyz", 99], ["000", -4]]}, "histogram"),
    ({"histogram": [["0x", 5]]}, "histogram"),
    ({"histogram": [["01", 5], ["011", 4]]}, "histogram"),
    ({"histogram": [["01", 5], ["11", -4]]}, "histogram"),
    ({"histogram": [["01", 9], ["11", 2]]}, "histogram"),
    ({"target": "00", "histogram": [["000", 9]]}, "histogram"),
    # a misspelt key loaded as a row without it, and its histogram was lost
    ({"histgram": [["01", 9]], "circuit-id": "a"}, "histgram"),
]


class TestAnalyze:
    def simulate(self, run, model="main_sim", seed="5"):
        assert main(["simulate", "--run", str(run), "--model", model,
                     "--shots", "400", "--seed", seed]) == 0
        return run / "dataset.jsonl"

    def test_noisy_fit(self, tmp_path, capsys):
        run = generate(tmp_path, lengths=[0, 4, 8, 12], circuits_per_length=6)
        data = self.simulate(run)
        results = run / "results.json"
        assert main(["analyze", str(data), "--out", str(results),
                     "--resamples", "120", "--seed", "3"]) == 0
        obj = json.loads(results.read_text(encoding="utf-8"))
        runs = obj["runs"]
        assert len(runs) == 1
        fit = runs[0]
        assert fit["n"] == 2
        assert 0.0 <= fit["r"] <= 1.0
        assert fit["r_interval"][0] <= fit["r"] <= fit["r_interval"][1]
        assert fit["diagnostics"]["resamples"] == 120
        assert fit["diagnostics"]["chi2"] >= 0.0
        assert fit["diagnostics"]["dof"] == len(fit["lengths"]) - (
            2 if fit["diagnostics"]["anchored"] else 3)
        assert fit["diagnostics"]["bootstrap_failures"] == 0
        for key in ("bootstrap_anchored_frac", "bootstrap_clamped_frac"):
            assert 0.0 <= fit["diagnostics"][key] <= 1.0
        csv = results.with_name("results_plot.csv")
        assert csv.exists()
        assert csv.read_text(encoding="utf-8").startswith("m,P_m,q05")
        assert "r =" in capsys.readouterr().out

    def test_degenerate_zero_error_exit4(self, tmp_path, capsys):
        run = generate(tmp_path)
        data = self.simulate(run, model="zero")
        results = run / "results.json"
        assert main(["analyze", str(data), "--out", str(results),
                     "--resamples", "100"]) == 4
        assert "degenerate" in capsys.readouterr().err
        obj = json.loads(results.read_text(encoding="utf-8"))
        assert obj["runs"][0]["r"] == 0.0
        assert obj["runs"][0]["diagnostics"]["degenerate"] is True

    def test_one_fitted_resample_exit4(self, tmp_path, monkeypatch, capsys):
        # only the point fit (row 0) and resample 1 fit: one resample has no
        # spread, so analyze fails instead of writing NaN sigmas
        from drbench import analysis

        def fit_rows(*args, _original=analysis._fit_rows):
            a, b, p, *rest = _original(*args)
            p = p.copy()
            p[2:] = np.nan
            return (a, b, p, *rest)

        run = generate(tmp_path, lengths=[0, 4, 8, 12], circuits_per_length=6)
        data = self.simulate(run)
        monkeypatch.setattr(analysis, "_fit_rows", fit_rows)
        results = run / "results.json"
        assert main(["analyze", str(data), "--out", str(results), "--resamples", "100"]) == 4
        assert "1 of 100 bootstrap resamples fit" in capsys.readouterr().err
        assert not results.exists()

    def test_mixing_two_datasets(self, tmp_path):
        rng = np.random.default_rng(8)
        paths = []
        for i, p_true in enumerate((0.94, 0.97)):
            lines = [json.dumps({"provenance": {"protocol": "DRB"}})]
            for m in (0, 3, 6, 9):
                pm = 0.25 + 0.75 * p_true**m
                for c in range(6):
                    lines.append(json.dumps({
                        "circuit_id": f"c{m}_{c}", "m": m, "target": "00",
                        "shots": 300, "successes": int(rng.binomial(300, pm)),
                    }))
            path = tmp_path / f"ds{i}.jsonl"
            path.write_text("\n".join(lines) + "\n", encoding="utf-8")
            paths.append(str(path))
        results = tmp_path / "joint.json"
        assert main(["analyze", *paths, "--out", str(results),
                     "--resamples", "100", "--mixing", "0.75,0.25"]) == 0
        obj = json.loads(results.read_text(encoding="utf-8"))
        mix = obj["mixing"]
        assert mix["matrix"] == [[0.75, 0.25], [0.25, 0.75]]
        assert len(mix["epsilons"]) == 2
        assert "local" in mix and "cnot" in mix
        minv = np.linalg.inv(np.array(mix["matrix"]))
        want = minv @ np.array([run["r"] for run in obj["runs"]])
        assert np.allclose(mix["epsilons"], want)
        assert (results.with_name("joint_run0_plot.csv")).exists()
        assert (results.with_name("joint_run1_plot.csv")).exists()

    @staticmethod
    def write_bare_rows(path: Path, p: float) -> str:
        """Bare rows (no target) of an exact decay 1/2 + p^m / 2."""
        rows = [{"m": m, "shots": 1000, "successes": round(500 + 500 * p**m)}
                for m in (0, 2, 4, 8, 16)]
        path.write_text("".join(json.dumps(row) + "\n" for row in rows), encoding="utf-8")
        return str(path)

    def test_mixing_at_one_qubit_skips_the_split(self, tmp_path, capsys):
        # the building-block split needs n >= 2; at n = 1 it used to end in
        # a ValueError traceback after the fits
        paths = [self.write_bare_rows(tmp_path / f"d{i}.jsonl", p)
                 for i, p in enumerate((0.95, 0.9))]
        results = tmp_path / "results.json"
        assert main(["analyze", *paths, "--n", "1", "--mixing", "0.7,0.3",
                     "--out", str(results), "--resamples", "100"]) == 0
        assert "Traceback" not in capsys.readouterr().err
        mix = json.loads(results.read_text(encoding="utf-8"))["mixing"]
        assert len(mix["epsilons"]) == len(mix["epsilon_sigmas"]) == 2
        assert "local" not in mix and "flagged" not in mix

    def test_undefined_split_values_are_null(self, tmp_path):
        # the first category rate clips to 1, so at n = 3 the split divides
        # by (1 - local)^(n - 2) = 0; results.json must stay strict JSON
        paths = [self.write_bare_rows(tmp_path / f"d{i}.jsonl", p)
                 for i, p in enumerate((0.5, 0.97))]
        results = tmp_path / "results.json"
        assert main(["analyze", *paths, "--n", "3", "--mixing", "0.55,0.45",
                     "--mixing", "0.45,0.55", "--out", str(results),
                     "--resamples", "100"]) == 0

        def reject(constant):
            raise ValueError(f"{constant} in results.json")

        mix = json.loads(results.read_text(encoding="utf-8"), parse_constant=reject)["mixing"]
        assert mix["clipped"] is True and mix["flagged"] is True
        assert mix["local"] == 1.0
        for key in ("local_sigma", "cnot", "cnot_sigma"):
            assert mix[key] is None, key
        assert mix["cnot_classes"] == [None] and mix["class_sigmas"] == [None]

    def test_external_rows_need_n(self, tmp_path, capsys):
        path = tmp_path / "ext.jsonl"
        path.write_text(
            "\n".join(
                json.dumps({"m": m, "shots": 200, "successes": s})
                for m, s in ((0, 198), (2, 175), (4, 160), (8, 130))
            ) + "\n",
            encoding="utf-8",
        )
        assert main(["analyze", str(path), "--resamples", "100"]) == 2
        assert "--n" in capsys.readouterr().err
        assert main(["analyze", str(path), "--resamples", "100", "--n", "2",
                     "--out", str(tmp_path / "ext_results.json")]) == 0

    def test_n_disagreeing_with_targets_exit2(self, tmp_path, capsys):
        # --n 3 on 2-bit targets was taken as given: exit 0 with the rate of
        # a 3-qubit floor
        path = tmp_path / "two_bit.jsonl"
        rows = [{"m": m, "shots": 200, "successes": s, "target": "01"}
                for m, s in ((0, 198), (2, 175), (4, 160), (8, 130))]
        path.write_text("".join(json.dumps(row) + "\n" for row in rows), encoding="utf-8")
        results = tmp_path / "results.json"
        assert main(["analyze", str(path), "--n", "3", "--out", str(results),
                     "--resamples", "100"]) == 2
        err = capsys.readouterr().err
        assert "--n 3" in err and str(path) in err
        assert not results.exists()
        assert main(["analyze", str(path), "--n", "2", "--out", str(results),
                     "--resamples", "100"]) == 0

    # a negative --seed ended in exit 4, "fit of ... failed"
    @pytest.mark.parametrize("flag,value", [("--n", "0"), ("--n", "-3"), ("--resamples", "50"),
                                            ("--seed", "-2")])
    def test_bad_flag_exit2(self, tmp_path, capsys, flag, value):
        path = tmp_path / "ext.jsonl"
        path.write_text(
            "\n".join(
                json.dumps({"m": m, "shots": 200, "successes": s})
                for m, s in ((0, 198), (2, 175), (4, 160), (8, 130))
            ) + "\n",
            encoding="utf-8",
        )
        results = tmp_path / "results.json"
        args = {"--n": "2", "--resamples": "100", flag: value}
        assert main(["analyze", str(path), "--out", str(results),
                     *(v for item in args.items() for v in item)]) == 2
        assert flag in capsys.readouterr().err
        assert not results.exists()

    def test_plot_csv_with_several_datasets_exit2(self, tmp_path, capsys):
        # the flag was ignored and each run got its own <out>_run<i>_plot.csv
        paths = [self.write_bare_rows(tmp_path / f"d{i}.jsonl", p)
                 for i, p in enumerate((0.95, 0.9))]
        results = tmp_path / "results.json"
        assert main(["analyze", *paths, "--n", "1", "--out", str(results),
                     "--resamples", "100", "--plot-csv", str(tmp_path / "mine.csv")]) == 2
        assert "--plot-csv" in capsys.readouterr().err
        assert list(tmp_path.glob("*.csv")) == []
        assert not results.exists()

    @pytest.mark.parametrize("rows", [["nan,1", "1,0"], ["1,0", "0,inf"]])
    def test_mixing_non_finite_exit2(self, tmp_path, capsys, rows):
        path = tmp_path / "ext.jsonl"
        path.write_text(
            "\n".join(
                json.dumps({"m": m, "shots": 200, "successes": s})
                for m, s in ((0, 198), (2, 175), (4, 160), (8, 130))
            ) + "\n",
            encoding="utf-8",
        )
        results = tmp_path / "results.json"
        mixing = [arg for row in rows for arg in ("--mixing", row)]
        assert main(["analyze", str(path), str(path), "--n", "2", "--out", str(results),
                     "--resamples", "100", *mixing]) == 2
        assert "--mixing" in capsys.readouterr().err
        assert not results.exists()

    @pytest.mark.parametrize("row,field", BAD_ROWS)
    def test_malformed_dataset_row_exit2(self, tmp_path, capsys, row, field):
        path = tmp_path / "ext.jsonl"
        good = {"m": 0, "shots": 10, "successes": 9}
        path.write_text(json.dumps(good) + "\n" + json.dumps({**good, **row}) + "\n",
                        encoding="utf-8")
        results = tmp_path / "results.json"
        assert main(["analyze", str(path), "--n", "2", "--out", str(results)]) == 2
        err = capsys.readouterr().err
        assert "dataset row 1" in err and f"field '{field}'" in err
        assert not results.exists()

    def test_targets_of_unequal_length_exit2(self, tmp_path, capsys):
        path = tmp_path / "ext.jsonl"
        rows = [{"m": 0, "shots": 10, "successes": 9, "target": bits} for bits in ("01", "011")]
        path.write_text("".join(json.dumps(row) + "\n" for row in rows), encoding="utf-8")
        results = tmp_path / "results.json"
        assert main(["analyze", str(path), "--out", str(results)]) == 2
        err = capsys.readouterr().err
        assert "dataset row 1" in err and "field 'target'" in err
        assert not results.exists()

    def test_bad_dataset_exit2(self, tmp_path):
        path = tmp_path / "bad.jsonl"
        path.write_text("junk\n", encoding="utf-8")
        assert main(["analyze", str(path)]) == 2
        assert main(["analyze", str(tmp_path / "missing.jsonl")]) == 2


GOOD_RUN = {"n": 2, "protocol": "DRB", "A": 0.25, "B": 0.75, "p": 0.9, "r": 0.075,
            "r_sigma": 0.01, "points": {"0": 1.0, "4": 0.7}}
# results runs that report read without checks: a missing r ended in a
# KeyError and a string point in a TypeError; NaN, infinities and values
# outside the ranges analyze writes exited 0 and reached the SVG and table
BAD_RUNS = [
    ({"A": float("nan")}, "runs[1].A"),
    ({"B": float("-inf")}, "runs[1].B"),
    ({"r_sigma": float("nan")}, "runs[1].r_sigma"),
    ({"points": {"5": float("inf")}}, "runs[1].points.5"),
    ({"n": 0}, "runs[1].n"),
    ({"r": -0.5}, "runs[1].r"),
    ({"r": 1.5}, "runs[1].r"),
    ({"r_sigma": -1}, "runs[1].r_sigma"),
    ({"points": {"1": 1.7}}, "runs[1].points.1"),
    ({"points": {"0": 1.0, "4": -3}}, "runs[1].points.4"),
    ({"r": None}, "runs[1].r"),
    ({"n": 2.0}, "runs[1].n"),
    ({"r_sigma": "0.01"}, "runs[1].r_sigma"),
    ({"A": [0.25]}, "runs[1].A"),
    ({"B": True}, "runs[1].B"),
    ({"p": 1.5}, "runs[1].p"),
    ({"points": {"0": "x"}}, "runs[1].points.0"),
    ({"points": {}}, "runs[1].points"),
    ({"points": {"m0": 1.0}}, "runs[1].points"),
    # "1" and "01" were the same length, and the last one was kept
    ({"points": {"1": 0.9, "01": 0.5, "2": 0.8}}, "runs[1].points"),
    ({"points": {"00": 1.0}}, "runs[1].points"),
    ({"protocol": 7}, "runs[1].protocol"),
]


class TestReport:
    def test_svg_and_table(self, tmp_path, capsys):
        run = generate(tmp_path, lengths=[0, 4, 8, 12], circuits_per_length=6)
        assert main(["simulate", "--run", str(run), "--model", "main_sim",
                     "--shots", "400", "--seed", "5"]) == 0
        results = run / "results.json"
        assert main(["analyze", str(run / "dataset.jsonl"), "--out", str(results),
                     "--resamples", "100", "--seed", "3"]) == 0
        capsys.readouterr()
        svg = tmp_path / "plot.svg"
        assert main(["report", str(results), "--out", str(svg)]) == 0
        out = capsys.readouterr().out
        assert "n=2" in out
        first = svg.read_bytes()
        assert main(["report", str(run), "--out", str(svg)]) == 0
        assert svg.read_bytes() == first
        assert svg.with_suffix(".txt").exists()
        assert first.startswith(b"<svg")

    def test_missing_results_exit4(self, tmp_path, capsys):
        assert main(["report", str(tmp_path / "nothing.json")]) == 4
        assert "no results" in capsys.readouterr().err

    def test_empty_runs_exit4(self, tmp_path, capsys):
        results = tmp_path / "results.json"
        results.write_text(json.dumps({"runs": []}), encoding="utf-8")
        assert main(["report", str(results), "--out", str(tmp_path / "r.svg")]) == 4
        assert "lists no runs" in capsys.readouterr().err

    def test_out_at_the_table_path_exit2(self, tmp_path, capsys):
        # the SVG was written to out.txt and then overwritten by the rate
        # table, with exit 0
        results = tmp_path / "results.json"
        results.write_text(json.dumps({"runs": [GOOD_RUN]}), encoding="utf-8")
        out = tmp_path / "out.txt"
        assert main(["report", str(results), "--out", str(out)]) == 2
        assert f"--out {out}" in capsys.readouterr().err
        assert not out.exists()

    @pytest.mark.parametrize("change,name", BAD_RUNS)
    def test_malformed_run_exit2(self, tmp_path, capsys, change, name):
        results = tmp_path / "results.json"
        run = {**GOOD_RUN, **change}
        results.write_text(json.dumps({"runs": [GOOD_RUN, run]}), encoding="utf-8")
        svg = tmp_path / "r.svg"
        assert main(["report", str(results), "--out", str(svg)]) == 2
        err = capsys.readouterr().err
        assert str(results) in err and f"field '{name}'" in err
        assert not svg.exists()


class TestOutputPaths:
    """An output path that cannot be written, or that names another file
    the command reads or writes, exits 2 naming it before anything is
    written.  Each case ended in a traceback (exit 1) or wrote over the
    other file and exited 0."""

    def test_generate_out_is_a_file(self, tmp_path, capsys):
        out = tmp_path / "run"
        out.write_text("keep", encoding="utf-8")
        cfg = write_config(tmp_path / "cfg.json")
        assert main(["generate", "--config", str(cfg), "--out", str(out)]) == 2
        assert f"--out {out}" in capsys.readouterr().err
        assert out.read_text(encoding="utf-8") == "keep"

    def test_generate_config_is_a_directory(self, tmp_path, capsys):
        cfg = tmp_path / "cfg"
        cfg.mkdir()
        out = tmp_path / "run"
        assert main(["generate", "--config", str(cfg), "--out", str(out)]) == 2
        assert f"config file {cfg} is a directory" in capsys.readouterr().err
        assert not out.exists()

    def test_simulate_model_is_a_directory(self, tmp_path, capsys):
        run = generate(tmp_path)
        model = tmp_path / "model"
        model.mkdir()
        assert main(["simulate", "--run", str(run), "--model", str(model)]) == 2
        assert f"unknown model {str(model)!r}: not a file" in capsys.readouterr().err
        assert not (run / "dataset.jsonl").exists()

    def test_analyze_dataset_is_a_directory(self, tmp_path, capsys):
        assert main(["analyze", str(tmp_path), "--n", "1"]) == 2
        assert f"dataset {tmp_path} is a directory" in capsys.readouterr().err

    @pytest.mark.parametrize("command", ["analyze", "simulate", "report"])
    def test_out_is_a_directory(self, tmp_path, capsys, command):
        out = tmp_path / "taken"
        out.mkdir()
        if command == "analyze":
            args = [TestAnalyze.write_bare_rows(tmp_path / "d.jsonl", 0.9), "--n", "1",
                    "--resamples", "100"]
        elif command == "simulate":
            args = ["--run", str(generate(tmp_path)), "--model", "zero"]
        else:
            results = tmp_path / "results.json"
            results.write_text(json.dumps({"runs": [GOOD_RUN]}), encoding="utf-8")
            args = [str(results)]
        assert main([command, *args, "--out", str(out)]) == 2
        assert f"--out {out} is a directory" in capsys.readouterr().err
        assert list(out.iterdir()) == []
        assert list(tmp_path.glob("*.csv")) == []

    # flags, with file names taken within tmp_path, and words the message
    # must hold
    ANALYZE_COLLISIONS = [
        (["--out", "r.json", "--plot-csv", "r.json"], ["--plot-csv", "--out"]),
        (["--out", "d.jsonl"], ["--out", "dataset"]),
        (["--out", "r.json", "--plot-csv", "d.jsonl"], ["--plot-csv", "dataset"]),
    ]

    @pytest.mark.parametrize("flags,words", ANALYZE_COLLISIONS)
    def test_analyze_colliding_outputs(self, tmp_path, capsys, flags, words):
        data = Path(TestAnalyze.write_bare_rows(tmp_path / "d.jsonl", 0.9))
        before = data.read_bytes()
        args = [str(tmp_path / flag) if "." in flag else flag for flag in flags]
        assert main(["analyze", str(data), "--n", "1", "--resamples", "100", *args]) == 2
        err = capsys.readouterr().err
        assert all(word in err for word in words), err
        assert data.read_bytes() == before
        assert sorted(path.name for path in tmp_path.iterdir()) == ["d.jsonl"]

    def test_simulate_out_at_the_manifest(self, tmp_path, capsys):
        run = generate(tmp_path)
        manifest = run / "manifest.json"
        before = manifest.read_bytes()
        assert main(["simulate", "--run", str(run), "--model", "zero",
                     "--out", str(manifest)]) == 2
        err = capsys.readouterr().err
        assert f"--out {manifest}" in err and f"--run {run}" in err
        assert manifest.read_bytes() == before

    def test_simulate_out_at_a_circuit_file(self, tmp_path, capsys):
        run = generate(tmp_path)
        circuit = sorted((run / "circuits").glob("*.txt"))[0]
        before = circuit.read_bytes()
        assert main(["simulate", "--run", str(run), "--model", "zero",
                     "--out", str(circuit)]) == 2
        assert f"--out {circuit} would overwrite circuit file" in capsys.readouterr().err
        assert circuit.read_bytes() == before

    def test_report_out_at_its_results(self, tmp_path, capsys):
        results = tmp_path / "results.json"
        results.write_text(json.dumps({"runs": [GOOD_RUN]}), encoding="utf-8")
        before = results.read_bytes()
        assert main(["report", str(results), "--out", str(results)]) == 2
        assert f"--out {results} would overwrite results file" in capsys.readouterr().err
        assert results.read_bytes() == before
        assert not results.with_suffix(".txt").exists()


def test_import_does_not_load_scipy():
    src = str(Path(drbench.__file__).resolve().parents[1])
    env = {**os.environ, "PYTHONPATH": os.pathsep.join(
        [src, *filter(None, [os.environ.get("PYTHONPATH")])])}
    probe = ("import sys, drbench.cli\n"
             "print(sorted(m for m in sys.modules if m.split('.')[0] == 'scipy'))")
    proc = subprocess.run([sys.executable, "-c", probe], capture_output=True, text=True,
                          env=env, timeout=120, check=True)
    assert proc.stdout.strip() == "[]"
