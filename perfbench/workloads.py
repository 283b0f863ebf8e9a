"""The benchmark's workloads: the inputs each writes, the ``drbench``
subcommands it runs, and the checks its outputs must pass.

Every pipeline iteration runs in its own directory with relative paths,
so two runs of the same iteration write byte-identical results files.
Iteration ``i`` of workload seed ``s`` always gets the same inputs; the
inputs differ between iterations so that a cache keyed on inputs cannot
turn repeated iterations into free ones.
"""

from __future__ import annotations

import hashlib
import json
import math
from pathlib import Path

import numpy as np

# Allowed distance of a fitted rate from its prediction: SIGMAS bootstrap
# sigmas, but never less than REL_FLOOR of the prediction, because the
# bootstrap sigma of two or three circuits per length is itself noisy.
# Wide enough that legitimate changes in random draws pass; a broken
# compiler, simulator or fit is off by far more.
SIGMAS = 5.0
REL_FLOOR = 0.15

# Workload sizes.  "full" is what the benchmark measures; "tiny" runs all
# three workloads in seconds, for the self-test and the untimed warm-up.
SIZES = {
    "full": {
        "compare_ring4": {"drb_circuits": 3, "crb_circuits": 3, "crb_lengths": [1, 2, 4, 8],
                          "trials": 10, "resamples": 100},
        "sim_wide8": {"lengths": [0, 50, 100, 200], "circuits": 2, "shots": 8192,
                      "resamples": 100},
        "rates_external": {"rows": 28, "resamples": 300},
    },
    "tiny": {
        "compare_ring4": {"drb_circuits": 2, "crb_circuits": 2, "crb_lengths": [1, 2, 4, 8],
                          "trials": 2, "resamples": 100},
        "sim_wide8": {"lengths": [0, 50, 100], "circuits": 3, "shots": 1024, "resamples": 100},
        "rates_external": {"rows": 8, "resamples": 100},
    },
}


def iteration_seed(seed: int, iteration: int) -> int:
    """Master seed handed to the program for one pipeline iteration."""
    return int(np.random.SeedSequence((seed, iteration)).generate_state(1)[0])


def _write_json(path: Path, obj):
    path.parent.mkdir(parents=True, exist_ok=True)
    path.write_text(json.dumps(obj, sort_keys=True, indent=2) + "\n", encoding="utf-8")


def _sha256(path: Path) -> str:
    return "sha256:" + hashlib.sha256(path.read_bytes()).hexdigest()


class Checks:
    """Counts attempted and failed output checks; each failure is logged."""

    def __init__(self, log):
        self.attempted = 0
        self.failed = 0
        self.log = log

    def expect(self, ok: bool, what: str) -> bool:
        self.attempted += 1
        if not ok:
            self.failed += 1
            self.log(f"check failed: {what}")
        return ok


def check_manifest(run_dir: Path, cwd: Path, checks: Checks):
    """Recompute every digest the manifest records and count dataset rows."""
    manifest = json.loads((run_dir / "manifest.json").read_text(encoding="utf-8"))
    bad = [rel for rel, digest in manifest.get("outputs", {}).items()
           if _sha256(run_dir / rel) != digest]
    bad += [rel for rel, digest in manifest.get("inputs", {}).items()
            if _sha256(cwd / rel) != digest]
    checks.expect(not bad, f"{run_dir.name}: digest mismatch for {bad}")
    circuits = [c["id"] for c in manifest["experiment"]["circuits"]]
    lines = (run_dir / "dataset.jsonl").read_text(encoding="utf-8").splitlines()
    ids = [json.loads(line)["circuit_id"] for line in lines[1:]]
    checks.expect(ids == circuits,
                  f"{run_dir.name}: {len(ids)} dataset rows for {len(circuits)} circuits")


def read_circuits(run_dir: Path):
    """(headers, layer lines) of every circuit file of a run."""
    for path in sorted((run_dir / "circuits").glob("*.txt")):
        headers, layers = {}, []
        for line in path.read_text(encoding="utf-8").splitlines():
            if line.startswith("#"):
                key, _, value = line[1:].strip().partition("=")
                headers[key] = value
            elif line.strip():
                layers.append(line)
        yield headers, layers


def unit_cnots(run_dir: Path) -> list[int]:
    """CNOT count of each compiled unit in a run: DRB prep and meas
    segments, CRB elements (from the circuit files' headers)."""
    units = []
    for headers, layers in read_circuits(run_dir):
        if headers.get("element_cnots"):
            units.extend(int(v) for v in headers["element_cnots"].split(","))
        elif headers["protocol"] == "DRB":
            prep, core, _ = (int(v) for v in headers["segments"].split(","))
            units.append(sum(line.count("CNOT") for line in layers[:prep]))
            units.append(sum(line.count("CNOT") for line in layers[prep + core:]))
    return units


def _rate_check(checks: Checks, what: str, value: float, sigma: float, predicted: float):
    tolerance = max(SIGMAS * sigma, REL_FLOOR * abs(predicted))
    checks.expect(math.isfinite(value) and abs(value - predicted) <= tolerance,
                  f"{what}: {value:.6g} vs predicted {predicted:.6g} "
                  f"(tolerance {tolerance:.3g}, bootstrap sigma {sigma:.3g})")


class Workload:
    """One named workload: ``write_inputs`` makes an iteration's input
    files, ``steps`` lists its subcommands, ``check`` verifies outputs."""

    name = ""
    run_dirs: tuple[str, ...] = ()  # directories written by ``drbench generate``

    def __init__(self, size: str):
        self.size = SIZES[size][self.name]
        self._prediction = None

    def prediction(self) -> float:
        """Calibration prediction of the DRB layer error rate."""
        if self._prediction is None:
            from drbench.analysis import predict_r_from_rates
            from drbench.io import design_from_config

            design = design_from_config(self.drb_config(0))
            model = self.error_model(design.device.n)
            self._prediction = predict_r_from_rates(design.sampler, design.device, model)
        return self._prediction


class CompareRing4(Workload):
    name = "compare_ring4"
    run_dirs = ("drb", "crb")
    datasets = ("drb/dataset.jsonl", "crb/dataset.jsonl")
    model_spec = "depolarizing:0.99"

    def error_model(self, n: int):
        from drbench.io import model_from_spec

        return model_from_spec(self.model_spec, n)

    def drb_config(self, seed: int) -> dict:
        return {
            "protocol": "DRB",
            "device": {"preset": "ring", "n": 4, "gate_set": "C24"},
            "sampler": {"kind": "pcnot", "p_cnot": 0.3},
            "lengths": [0, 5, 10, 15, 20, 25, 30],
            "circuits_per_length": self.size["drb_circuits"],
            "shots": 1024,
            "seed": seed,
            "compile": {"trials": self.size["trials"]},
        }

    def write_inputs(self, cwd: Path, seed: int):
        _write_json(cwd / "drb.json", self.drb_config(seed))
        _write_json(cwd / "crb.json", {
            "protocol": "CRB",
            "device": {"preset": "ring", "n": 4, "gate_set": "C24"},
            "lengths": self.size["crb_lengths"],
            "circuits_per_length": self.size["crb_circuits"],
            "shots": 1024,
            "seed": seed + 1,
            "compile": {"trials": self.size["trials"]},
        })

    def steps(self, seed: int) -> list[tuple[str, list[str]]]:
        return [
            ("generate", ["generate", "--config", "drb.json", "--out", "drb"]),
            ("generate", ["generate", "--config", "crb.json", "--out", "crb"]),
            ("simulate", ["simulate", "--run", "drb", "--model", self.model_spec,
                          "--threads", "1"]),
            ("simulate", ["simulate", "--run", "crb", "--model", self.model_spec,
                          "--threads", "1"]),
            ("analyze", ["analyze", *self.datasets, "--out", "results.json",
                         "--resamples", str(self.size["resamples"]), "--threads", "1",
                         "--seed", str(seed)]),
            ("report", ["report", "results.json", "--out", "report.svg"]),
        ]

    def check(self, cwd: Path, checks: Checks):
        from drbench.analysis import crb_rescale

        for run_dir in self.run_dirs:
            check_manifest(cwd / run_dir, cwd, checks)
        drb, crb = json.loads((cwd / "results.json").read_text(encoding="utf-8"))["runs"]
        predicted = self.prediction()
        _rate_check(checks, "DRB r", drb["r"], drb["r_sigma"], predicted)
        depths = [int(v) for headers, _ in read_circuits(cwd / "crb")
                  for v in headers["element_depths"].split(",")]
        alpha = float(np.mean(depths))
        rescaled = crb_rescale(crb["r"], alpha)
        # delta method: d/dr [1 - (1-r)^(1/a)] = (1-r)^(1/a - 1) / a
        slope = (1.0 - crb["r"]) ** (1.0 / alpha - 1.0) / alpha
        _rate_check(checks, "rescaled CRB r", rescaled, slope * crb["r_sigma"], predicted)


class SimWide8(Workload):
    name = "sim_wide8"
    run_dirs = ("run",)
    model_spec = "model.json"
    model = {"n": 8, "one_qubit": 0.0005, "cnot": 0.004, "readout": 0.01, "layer_depol": 0.001}

    def error_model(self, n: int):
        from drbench.io import model_from_json

        return model_from_json(self.model, n)

    def drb_config(self, seed: int) -> dict:
        return {
            "protocol": "DRB",
            "device": {"preset": "all_to_all", "n": 8, "gate_set": "C24"},
            "sampler": {"kind": "pairing", "p_cnot": 0.5},
            "lengths": self.size["lengths"],
            "circuits_per_length": self.size["circuits"],
            "shots": self.size["shots"],
            "seed": seed,
            "compile": {"trials": 1},
        }

    def write_inputs(self, cwd: Path, seed: int):
        _write_json(cwd / "config.json", self.drb_config(seed))
        _write_json(cwd / "model.json", self.model)

    def steps(self, seed: int) -> list[tuple[str, list[str]]]:
        return [
            ("generate", ["generate", "--config", "config.json", "--out", "run"]),
            ("simulate", ["simulate", "--run", "run", "--model", self.model_spec,
                          "--threads", "1", "--histogram"]),
            ("analyze", ["analyze", "run/dataset.jsonl", "--out", "results.json",
                         "--resamples", str(self.size["resamples"]), "--threads", "1",
                         "--seed", str(seed)]),
            ("report", ["report", "results.json", "--out", "report.svg"]),
        ]

    def check(self, cwd: Path, checks: Checks):
        check_manifest(cwd / "run", cwd, checks)
        (drb,) = json.loads((cwd / "results.json").read_text(encoding="utf-8"))["runs"]
        _rate_check(checks, "DRB r", drb["r"], drb["r_sigma"], self.prediction())


class RatesExternal(Workload):
    """Bare-row datasets drawn from known category rates, so generation
    and simulation are bypassed and the analysis must recover the rates."""

    name = "rates_external"
    datasets = ("data0.jsonl", "data1.jsonl", "data2.jsonl")
    n = 5
    lengths = (0, 5, 10, 20, 30, 45, 60)
    shots = 1024
    epsilons = (0.012, 0.05, 0.08)
    mixing = ((0.7, 0.2, 0.1), (0.4, 0.5, 0.1), (0.4, 0.1, 0.5))

    def write_inputs(self, cwd: Path, seed: int):
        rng = np.random.default_rng(seed)
        dim = 4 ** self.n
        floor = 2.0 ** -self.n
        amplitude = 0.95 * (1.0 - floor)
        cwd.mkdir(parents=True, exist_ok=True)
        for path, row in zip(self.datasets, self.mixing):
            r = float(np.dot(row, self.epsilons))
            p = 1.0 - r * dim / (dim - 1)
            lines = []
            for m in self.lengths:
                prob = floor + amplitude * p ** m
                for successes in rng.binomial(self.shots, prob, size=self.size["rows"]):
                    lines.append(json.dumps({"m": m, "successes": int(successes),
                                             "shots": self.shots}))
            (cwd / path).write_text("\n".join(lines) + "\n", encoding="utf-8")

    def steps(self, seed: int) -> list[tuple[str, list[str]]]:
        mixing = []
        for row in self.mixing:
            mixing += ["--mixing", ",".join(str(v) for v in row)]
        return [
            ("analyze", ["analyze", *self.datasets, "--n", str(self.n), *mixing,
                         "--out", "results.json", "--resamples", str(self.size["resamples"]),
                         "--threads", "1", "--seed", str(seed)]),
            ("report", ["report", "results.json", "--out", "report.svg"]),
        ]

    def check(self, cwd: Path, checks: Checks):
        results = json.loads((cwd / "results.json").read_text(encoding="utf-8"))
        checks.expect(len(results["runs"]) == len(self.datasets),
                      f"{len(results['runs'])} fitted runs for {len(self.datasets)} datasets")
        mix = results["mixing"]
        for k, (got, sigma, want) in enumerate(
                zip(mix["epsilons"], mix["epsilon_sigmas"], self.epsilons)):
            _rate_check(checks, f"category {k} rate", got, sigma, want)


WORKLOADS = {w.name: w for w in (CompareRing4, SimWide8, RatesExternal)}
