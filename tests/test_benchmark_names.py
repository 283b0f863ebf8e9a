"""Every drbench name the benchmark times or imports still exists, its
counters still read what they expect from the calls they wrap, its
workloads' output checks pass, and the circuit files and datasets they
write at seeds 5 and 7919 keep their pinned digests.

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


# sha256 of the circuit files and datasets each workload writes, per
# workload seed and iteration (see ``outputs_digest``); rates_external
# writes none
OUTPUT_DIGESTS = {
    "compare_ring4": {
        5: ["9b5f6c75c35446eadca5955b108872c4f60cc6413faa592fee60350d52c8c55c",
            "9d224ea2b13a7620500df5356a77090833dab16f95ec78f4b28a19af590ac5e6",
            "854abea80b395a3d0a61d788d694408ae79b618ef04dc9fb77125439a1504ad3"],
        7919: ["8f886d23a569ce2ff8514e7f15029a4a831eba40a4786f3349f1d4d301d069aa",
               "19e974d219a49b2a0d0edc3ce0ec678bf7cc03694d095665b6de382fc0f26cb7",
               "91a6627a5d2d812c902cd4e66c85e20a5abf4a74d30441f35b3c6e82a21987c5"],
    },
    "sim_wide8": {
        5: ["d1ede2d48df88f4a578cba886841c9df24e8741178726ab856a89cd80883f655",
            "56280c4a8fda2e99b1230be5950f4534995d400736945bed9e8815cb37757018",
            "1f00796db509adce383c43fd141f8cdb0afdb9d7dd5b1f951eb4a02d91500f05"],
        7919: ["3fe680a17c3228f78da5e184f1e48da3584bffea44210c5b53a48f2f43a98b8c",
               "f480b21da482b785ee206f0a76ee4a7271409ea56a6c445f1eaef9cd8ee932e5",
               "3da68f11452be1700633f5f3bbb30abeab192578b9a212667bfdfe9348f7f61a"],
    },
}


def outputs_digest(cwd: Path, run_dirs: tuple[str, ...]) -> str:
    """One digest over every circuit file and ``dataset.jsonl`` of the
    runs, in order, each contributing its relative path and its own digest."""
    acc = hashlib.sha256()
    for run_dir in run_dirs:
        run = cwd / run_dir
        for path in [*sorted((run / "circuits").glob("*.txt")), run / "dataset.jsonl"]:
            rel = path.relative_to(cwd).as_posix()
            acc.update(rel.encode() + b"\0" + hashlib.sha256(path.read_bytes()).digest())
    return acc.hexdigest()


@pytest.mark.parametrize("name", sorted(workloads.WORKLOADS))
def test_workload_checks_pass(tmp_path, monkeypatch, name):
    # iterations 0-2 of seed 5 and of the held-out seed 7919 at full size,
    # as the benchmark runs them: a change that moves a workload's outputs
    # out of its checks fails here, and one that changes a byte of its
    # circuits or datasets fails the pins
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
            if workload.run_dirs:
                digests.setdefault(workload_seed, []).append(
                    outputs_digest(cwd, workload.run_dirs))
    assert checks.attempted > 0 and checks.failed == 0, failures
    assert digests == OUTPUT_DIGESTS.get(name, {})
