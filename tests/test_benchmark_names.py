"""Every drbench name the benchmark times or imports still exists, its
counters still read what they expect from the calls they wrap, its
workloads' output checks pass, and the circuit files, datasets and
results files they write at seeds 5 and 7919 keep their pinned digests.

The benchmark under ``perfbench/`` wraps functions listed in
``spans.TARGETS``, reads counters off the wrapped calls' arguments and
results with ``spans.COUNTERS``, and imports readers in ``workloads.py``;
a rename or a changed call shape would only fail there.  This reads those
files' source and loads ``spans.py`` and ``workloads.py`` for their
tables, counters and checks; it runs each workload's pipeline through
``drbench.cli.main`` but never runs the benchmark's timing.
"""

import ast
import hashlib
import importlib
import importlib.util
import json
import sys
from pathlib import Path

import pytest

from drbench.cli import main

PERFBENCH = Path(__file__).resolve().parents[1] / "perfbench"


def module_tree(name: str) -> ast.Module:
    return ast.parse((PERFBENCH / name).read_text(encoding="utf-8"))


def test_span_targets_exist():
    tree = module_tree("spans.py")
    (targets,) = [node.value for node in tree.body if isinstance(node, ast.Assign)
                  and [t.id for t in node.targets if isinstance(t, ast.Name)] == ["TARGETS"]]
    entries = ast.literal_eval(targets)
    assert entries
    for _, module, function in entries:
        assert callable(getattr(importlib.import_module(module), function, None)), (module, function)


def test_workload_imports_exist():
    imports = [(node.module, alias.name) for node in ast.walk(module_tree("workloads.py"))
               if isinstance(node, ast.ImportFrom) and (node.module or "").startswith("drbench")
               for alias in node.names]
    assert {name for _, name in imports} >= {"design_from_config", "model_from_spec",
                                             "model_from_json", "predict_r_from_rates",
                                             "crb_rescale"}
    for module, name in imports:
        assert hasattr(importlib.import_module(module), name), (module, name)


def load_perfbench(name: str):
    """Load ``perfbench/<name>.py`` as a module without putting perfbench on
    the import path."""
    spec = importlib.util.spec_from_file_location(f"perfbench_{name}", PERFBENCH / f"{name}.py")
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


def test_counters_read_the_pipeline_calls(tmp_path, monkeypatch):
    # wrap every drbench binding of each counted function, as the span
    # recorder does, run a small DRB and CRB generate and simulate, and
    # check the counters' totals against the manifests
    spans = load_perfbench("spans")
    calls = {name: [] for name in spans.COUNTERS}
    for name, module, function in spans.TARGETS:
        if name not in calls:
            continue
        original = getattr(importlib.import_module(module), function)

        def recorded(*args, _original=original, _calls=calls[name], **kwargs):
            result = _original(*args, **kwargs)
            _calls.append((result, args))
            return result

        for mod in list(sys.modules.values()):
            if getattr(mod, "__name__", "").startswith("drbench") and \
                    getattr(mod, function, None) is original:
                monkeypatch.setattr(mod, function, recorded)
    configs = {
        "drb": {"protocol": "DRB", "sampler": {"kind": "pcnot", "p_cnot": 0.5},
                "lengths": [0, 2, 4]},
        "crb": {"protocol": "CRB", "lengths": [1, 2, 3]},
    }
    manifests = {}
    for name, config in configs.items():
        path = tmp_path / f"{name}.json"
        path.write_text(json.dumps({**config, "device": {"preset": "ring", "n": 3},
                                    "circuits_per_length": 1, "seed": 5}), encoding="utf-8")
        run = tmp_path / name
        assert main(["generate", "--config", str(path), "--out", str(run)]) == 0
        assert main(["simulate", "--run", str(run), "--model", "main_sim", "--shots", "70"]) == 0
        manifests[name] = json.loads((run / "manifest.json").read_text(encoding="utf-8"))
    totals = {}
    for name, recorded_calls in calls.items():
        assert recorded_calls, name
        for result, args in recorded_calls:
            for key, value in spans.COUNTERS[name](result, args).items():
                assert isinstance(value, int), (key, value)
                totals[key] = totals.get(key, 0) + value
    segments = {name: [c["segment_cnots"] for c in manifest["experiment"]["circuits"]]
                for name, manifest in manifests.items()}
    # DRB compiles each circuit's prep and meas, CRB every core element
    assert totals["compiling.cnots_emitted"] == (
        sum(prep + meas for prep, _, meas in segments["drb"])
        + sum(core for _, core, _ in segments["crb"]))
    assert totals["simulate.shot_layers"] == sum(
        manifest["simulations"][-1]["shot_layers"] for manifest in manifests.values())


workloads = load_perfbench("workloads")


# sha256 of the circuit files, datasets and results.json each workload
# writes, per workload seed and iteration (see ``outputs_digest``)
OUTPUT_DIGESTS = {
    "compare_ring4": {
        5: ["89a208960f2695237f8f131e4efe316bc09001104623a3745147f544604ff908",
            "8fba3d5f13c7ac05724cdcdd3d1c7acd44e17cc9ea6f3f9d069c44748094c884",
            "c8f3c0281bc9849ad11091f80fd7ae76d4cc24474f9fce906f3cd83e71902aec"],
        7919: ["ff20cc1d9f756938eedeb6d9d20260176192e7a3edb7c566fc4f3abea7836182",
               "db9d470c4672b47e3a8fd5be21875cc281fad56403577d0a7ec38ac8022a1a1e",
               "78b449e001d76f61eb468c7712bc72de9f399f093bcf515f5826c6132f9d70f5"],
    },
    "rates_external": {
        5: ["3a4f6723003ff69bdf112f699511048d9b187549a50d897947a51cb3fb1caab9",
            "6d1c32a42f3020d362683c8811fe5ce614570f65d28f7bc0477e90c3b6ff062c",
            "320afcbc63195cd3a4a4359ce0827e95a649d99e4dffcdf1fb1032c47efffcd0"],
        7919: ["693be57b1d47c9ad8892be780ba882c23e3e77fbc5cd4e53af045e1203ec0357",
               "d514416026804292440e3015f194d9a8954962e6434688472f18870ccf582ec3",
               "1656b61daba08df303c1c2221ded14fe1c1576d849993d7a118579d3c9a582e9"],
    },
    "sim_wide8": {
        5: ["e5f173ef883f494639c2ed72dc21db101cab763c95e573b5ca3861e9251a4af4",
            "0e2b321d05812758471feb7fc5149066ea0021ecc8355dd9cd7f273fd7bceecc",
            "d65b59577792f1b169f4f3311b1a6cb17bdcb87bad8bd7c048a485efd02e6bb5"],
        7919: ["cd71ba9526ecf3950598fc7a18608eeb3ef54a5e0e0ee0681ff98b928393a423",
               "d41a3d5a8414e7c0bda432909a827bf95bf141a05d60e7f305943089820feb1b",
               "0d38749f8d4027de9aa3a7f38d43220b278b3209655fac2953cf33cfd41ddea0"],
    },
}


def outputs_digest(cwd: Path, run_dirs: tuple[str, ...]) -> str:
    """One digest over every circuit file and ``dataset.jsonl`` of the
    runs, in order, then ``results.json``, each contributing its relative
    path and its own digest."""
    acc = hashlib.sha256()
    paths = []
    for run in (cwd / run_dir for run_dir in run_dirs):
        paths += [*sorted((run / "circuits").glob("*.txt")), run / "dataset.jsonl"]
    for path in [*paths, cwd / "results.json"]:
        rel = path.relative_to(cwd).as_posix()
        acc.update(rel.encode() + b"\0" + hashlib.sha256(path.read_bytes()).digest())
    return acc.hexdigest()


@pytest.mark.parametrize("name", sorted(workloads.WORKLOADS))
def test_workload_checks_pass(tmp_path, monkeypatch, name):
    # iterations 0-2 of seed 5 and of the held-out seed 7919 at full size,
    # as the benchmark runs them: a change that moves a workload's outputs
    # out of its checks fails here, and one that changes a byte of its
    # circuits, datasets or results fails the pins
    workload = workloads.WORKLOADS[name]("full")
    failures = []
    checks = workloads.Checks(failures.append)
    digests = {}
    for workload_seed in (5, 7919):
        for index in range(3):
            seed = workloads.iteration_seed(workload_seed, index)
            cwd = tmp_path / f"s{workload_seed}-it{index}"
            workload.write_inputs(cwd, seed)
            monkeypatch.chdir(cwd)
            for _, argv in workload.steps(seed):
                assert main(argv) == 0, argv
            workload.check(cwd, checks)
            digests.setdefault(workload_seed, []).append(outputs_digest(cwd, workload.run_dirs))
    assert checks.attempted > 0 and checks.failed == 0, failures
    assert digests == OUTPUT_DIGESTS[name]
