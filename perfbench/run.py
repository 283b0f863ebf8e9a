"""Pipeline benchmark for drbench.

Drives the real ``generate -> simulate -> analyze -> report`` pipeline in
this process through ``drbench.cli.main`` on one named workload, checks
the outputs, and prints every metric by name with its unit.  The last
line of standard output is one JSON object:

    {"correct": ..., "attempted": ..., "failed": ..., "metrics": {...}}

With ``--trace 0`` the metrics are the end-to-end ones of BENCHMARK.json;
with ``--trace 1`` they are the per-layer ones, from spans recorded by
wrapping the program's public functions (see spans.py).

Run from the repository root:

    python3 perfbench/run.py --workload compare_ring4 --seed 1 --seconds 30 --trace 0

``--size tiny`` shrinks every workload so that all of them run in seconds
(used by the benchmark's self-test, test_selftest.py).
"""

from __future__ import annotations

import argparse
import contextlib
import io
import json
import os
import resource
import shutil
import statistics
import subprocess
import sys
import time
import traceback
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SRC = ROOT / "src"
WORK = ROOT / ".bench_work" / str(os.getpid())
SPANS = ROOT / ".bench_out"

sys.path.insert(0, str(HERE))

import spans  # noqa: E402
from workloads import SIZES, WORKLOADS, Checks, iteration_seed, unit_cnots  # noqa: E402

# At least this many timed pipeline iterations per run, however long
# they take; more while the time budget allows.
MIN_ITERATIONS = 3
MIN_TRACED_PAIRS = 1

IMPORT_PROBE = (
    "import sys, time\n"
    "sys.path.insert(0, sys.argv[1])\n"
    "t0 = time.perf_counter()\n"
    "import drbench, drbench.cli\n"
    "elapsed = time.perf_counter() - t0\n"
    "if not drbench.__file__.startswith(sys.argv[1]):\n"
    "    sys.exit(f'drbench imported from {drbench.__file__}')\n"
    "print(repr(elapsed))\n"
)


def log(message: str):
    print(message, file=sys.stderr, flush=True)


def fresh_import_seconds() -> float:
    """Time to import drbench in a new interpreter, measured inside it."""
    proc = subprocess.run([sys.executable, "-c", IMPORT_PROBE, str(SRC)],
                          capture_output=True, text=True, timeout=120, cwd=ROOT)
    if proc.returncode != 0:
        raise RuntimeError(f"importing drbench failed:\n{proc.stderr}")
    return float(proc.stdout.strip().splitlines()[-1])


def setup_seconds(workload, seed: int) -> float:
    """One set-up: a fresh-process import plus writing one iteration's inputs."""
    imported = fresh_import_seconds()
    target = WORK / "setup"
    t0 = time.perf_counter()
    workload.write_inputs(target, iteration_seed(seed, 0))
    elapsed = time.perf_counter() - t0
    shutil.rmtree(target)
    return imported + elapsed


class Iteration:
    """One pass of the workload's pipeline in its own directory."""

    def __init__(self, workload, seed: int, index: int, label: str):
        self.workload = workload
        self.seed = iteration_seed(seed, index)
        self.cwd = WORK / f"it{index:03d}{label}"
        self.stage_s: dict[str, float] = {}
        self.run_s = 0.0
        workload.write_inputs(self.cwd, self.seed)

    def run(self, cli, checks: Checks) -> bool:
        """Run every subcommand, timing each; False if one fails."""
        home = os.getcwd()
        os.chdir(self.cwd)
        out = io.StringIO()
        try:
            start = time.perf_counter()
            for stage, argv in self.workload.steps(self.seed):
                t0 = time.perf_counter()
                try:
                    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(out):
                        code = cli.main(argv)
                except Exception as exc:  # a crash is a failed operation, not a benchmark error
                    code = f"{type(exc).__name__}: {exc}"
                elapsed = time.perf_counter() - t0
                self.stage_s[stage] = self.stage_s.get(stage, 0.0) + elapsed
                if not checks.expect(code == 0, f"drbench {' '.join(argv)} -> {code}\n"
                                                f"{out.getvalue()[-2000:]}"):
                    return False
            self.run_s = time.perf_counter() - start
            return True
        finally:
            os.chdir(home)

    def collect(self):
        """Read what the metrics and the determinism check need, then
        delete the iteration's directory to keep disk use flat."""
        results = (self.cwd / "results.json").read_bytes()
        # files that must not depend on tracing: results and the program's
        # dataset rows (minus the provenance line, which names the run path)
        self.outputs = {"results.json": results}
        for run_dir in self.workload.run_dirs:
            lines = (self.cwd / run_dir / "dataset.jsonl").read_bytes().splitlines(keepends=True)
            self.outputs[run_dir] = b"".join(lines[1:])
        runs = json.loads(results)["runs"]
        self.bootstrap_failures = sum(r["diagnostics"]["bootstrap_failures"] for r in runs)
        self.resamples = sum(r["diagnostics"]["resamples"] for r in runs)
        self.cnots = [c for run_dir in self.workload.run_dirs
                      for c in unit_cnots(self.cwd / run_dir)]
        shutil.rmtree(self.cwd)


def run_and_check(workload, seed, index, label, cli, checks,
                  recorder: spans.SpanRecorder | None = None) -> Iteration | None:
    """One iteration, traced when a recorder is given; None if a
    subcommand failed."""
    it = Iteration(workload, seed, index, label)
    if recorder is not None:
        recorder.start_iteration()
        recorder.install()
    try:
        ok = it.run(cli, checks)
    finally:
        if recorder is not None:
            recorder.uninstall()
    if not ok:
        return None
    try:
        workload.check(it.cwd, checks)
        it.collect()
    except Exception:  # malformed or missing output fails the run, not the benchmark
        checks.expect(False, f"reading the outputs of {it.cwd.name}:\n{traceback.format_exc()}")
        return None
    return it


def warm_up(workload, seed, cli, checks):
    """Run the workload once at tiny size, untimed and unchecked beyond
    exit codes, so per-process lazy set-up (gate tables, lazy imports)
    happens before the timed iterations rather than in the first one."""
    it = Iteration(WORKLOADS[workload.name]("tiny"), seed, 0, "warmup")
    it.run(cli, checks)
    shutil.rmtree(it.cwd)


def median(values) -> float:
    return float(statistics.median(values)) if values else 0.0


def end_to_end(workload, args, cli, checks: Checks):
    done: list[Iteration] = []
    setups: list[float] = []
    warm_up(workload, args.seed, cli, checks)
    start = time.perf_counter()
    while True:
        it = run_and_check(workload, args.seed, len(done), "", cli, checks)
        if it is None:
            break
        done.append(it)
        # one set-up sample per iteration spreads them over the whole run
        setups.append(setup_seconds(workload, args.seed))
        elapsed = time.perf_counter() - start
        typical = median([d.run_s for d in done])
        if len(done) >= MIN_ITERATIONS and elapsed + typical > args.seconds:
            break
    metrics = {
        "run_s": (median([it.run_s for it in done]), "s"),
        "setup_s": (median(setups), "s"),
        "peak_rss_mb": (resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0, "MB"),
    }
    units = [c for it in done for c in it.cnots]
    stage = {s: median([it.stage_s.get(s, 0.0) for it in done]) for s in spans.STAGES}
    bypassed = not workload.run_dirs
    shown = {
        "run_s": metrics["run_s"],
        "generate_s": None if bypassed else (stage["generate"], "s"),
        "simulate_s": None if bypassed else (stage["simulate"], "s"),
        "analyze_s": (stage["analyze"], "s"),
        "setup_s": metrics["setup_s"],
        "peak_rss_mb": metrics["peak_rss_mb"],
        "compiled_cnots_mean": (sum(units) / len(units), "CNOTs") if units else None,
    }
    log(f"{workload.name}: {len(done)} timed iterations, run_s each: "
        + " ".join(f"{it.run_s:.3f}" for it in done))
    return metrics, shown


def per_layer(workload, args, cli, checks: Checks):
    recorder = spans.SpanRecorder(workload.name)
    untraced: list[Iteration] = []
    traced: list[Iteration] = []
    warm_up(workload, args.seed, cli, checks)
    start = time.perf_counter()
    index = 0
    while True:
        # each pair runs one iteration's inputs untraced and traced, in
        # alternating order; their outputs must match byte for byte
        pair = {}
        for label in (("u", "t") if index % 2 == 0 else ("t", "u")):
            it = run_and_check(workload, args.seed, index, label, cli, checks,
                               recorder if label == "t" else None)
            if it is None:
                break
            pair[label] = it
        if len(pair) < 2:
            break
        same = pair["u"].outputs == pair["t"].outputs
        checks.expect(same, f"iteration {index}: traced and untraced outputs differ")
        untraced.append(pair["u"])
        traced.append(pair["t"])
        index += 1
        elapsed = time.perf_counter() - start
        typical = median([u.run_s + t.run_s for u, t in zip(untraced, traced)])
        if index >= MIN_TRACED_PAIRS and elapsed + typical > args.seconds:
            break
    recorder.save(SPANS / f"spans_{workload.name}.npz")
    failures = sum(it.bootstrap_failures for it in traced)
    resamples = sum(it.resamples for it in traced)
    units = [c for it in traced for c in it.cnots]
    wall = {s: median([it.stage_s.get(s, 0.0) for it in untraced]) for s in spans.STAGES}
    metrics, notes = spans.summarize(
        recorder,
        untraced_run_s=median([it.run_s for it in untraced]) or 1.0,
        traced_run_s=median([it.run_s for it in traced]) or 1.0,
        bootstrap_fail_frac=failures / resamples if resamples else 0.0,
        wall=wall,
        cnots_mean=sum(units) / len(units) if units else 0.0,
    )
    log(f"{workload.name}: run_s untraced/traced per pair: " + " ".join(
        f"{u.run_s:.3f}/{t.run_s:.3f}" for u, t in zip(untraced, traced)))
    selfs = {m: metrics[f"{m}.self_s"][0] for m in spans.MODULES}
    log(f"{workload.name}: {len(traced)} traced iterations; largest self time: "
        f"{max(selfs, key=selfs.get)} ({max(selfs.values()):.4g} s)")
    return metrics, notes


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), required=True)
    parser.add_argument("--size", choices=sorted(SIZES), default="full")
    args = parser.parse_args(argv)

    if not (SRC / "drbench" / "cli.py").is_file():
        log(f"perfbench: no drbench sources under {SRC}; run from a full checkout")
        return 2
    os.environ.pop("DRBENCH_SEED", None)  # the CLI would let it override every seed
    workload = WORKLOADS[args.workload](args.size)
    try:
        sys.path.insert(0, str(SRC))
        import drbench.cli as cli

        if not Path(cli.__file__).resolve().is_relative_to(SRC.resolve()):
            raise RuntimeError(f"drbench imported from {cli.__file__}, not {SRC}")
        checks = Checks(log)
        if args.trace:
            metrics, notes = per_layer(workload, args, cli, checks)
            for name, (value, unit) in metrics.items():
                note = f"  ({notes[name]})" if name in notes else ""
                print(f"{name:40s} {value:.6g} {unit}{note}")
        else:
            metrics, shown = end_to_end(workload, args, cli, checks)
            shown["fail_frac"] = (checks.failed / max(checks.attempted, 1), "ratio")
            for name, entry in shown.items():
                text = f"{entry[0]:.6g} {entry[1]}" if entry else "n/a (stage bypassed)"
                print(f"{name:22s} {text}")
    finally:
        shutil.rmtree(WORK, ignore_errors=True)
        with contextlib.suppress(OSError):
            WORK.parent.rmdir()  # only when no other run is using it
    result = {
        "correct": checks.failed == 0,
        "attempted": checks.attempted,
        "failed": checks.failed,
        "metrics": {name: {"value": value, "unit": unit} for name, (value, unit) in metrics.items()},
    }
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
