"""Span recorder for the traced benchmark run.

The recorder wraps public functions of the ``drbench`` modules from the
outside: it replaces every module attribute bound to a listed function
(the defining module and every ``from ... import`` copy) with a timing
wrapper, and restores the originals on ``uninstall``.  Spans are kept in
flat in-memory arrays (name, start, end, parent, iteration) and written
out once when the run ends; self times and percentiles are derived from
them afterwards.

The pipeline runs single-threaded (``--threads 1``), so one parent stack
is enough: every span's children nest inside it and never overlap.
"""

from __future__ import annotations

import sys
import time
from array import array
from pathlib import Path

import numpy as np

# (span name, defining module, function).  Several functions may share a
# span name when they do the same job for different inputs.
TARGETS = (
    ("cli.generate", "drbench.cli", "cmd_generate"),
    ("cli.simulate", "drbench.cli", "cmd_simulate"),
    ("cli.analyze", "drbench.cli", "cmd_analyze"),
    ("cli.report", "drbench.cli", "cmd_report"),
    ("protocols.circuit", "drbench.protocols", "generate_drb_circuit"),
    ("protocols.circuit", "drbench.protocols", "generate_crb_circuit"),
    ("sampling.layer", "drbench.sampling", "sample_layer"),
    ("sampling.state", "drbench.sampling", "sample_stabilizer_state_uniform"),
    ("sampling.clifford", "drbench.sampling", "sample_clifford_uniform"),
    ("compiling.prep", "drbench.compiling", "compile_stabilizer_prep"),
    ("compiling.meas", "drbench.compiling", "compile_stabilizer_meas"),
    ("compiling.clifford", "drbench.compiling", "compile_clifford"),
    ("clifford.circuit_to_clifford", "drbench.clifford", "circuit_to_clifford"),
    ("clifford.layer_to_clifford", "drbench.clifford", "layer_to_clifford"),
    ("clifford.compose", "drbench.clifford", "compose"),
    ("clifford.invert", "drbench.clifford", "invert"),
    ("simulate.circuit", "drbench.simulate", "simulate_circuit"),
    ("analysis.fit", "drbench.analysis", "fit_decay"),
    ("analysis.bootstrap", "drbench.analysis", "bootstrap"),
    ("analysis.solve", "drbench.analysis", "solve_category_rates"),
    ("analysis.solve", "drbench.analysis", "extract_building_block_rates"),
    ("io.circuit_to_text", "drbench.io", "circuit_to_text"),
    ("io.circuit_from_text", "drbench.io", "circuit_from_text"),
    ("io.dataset_from_jsonl", "drbench.io", "dataset_from_jsonl"),
    ("io.write", "drbench.io", "write_text"),
    ("io.render", "drbench.io", "render_decay_svg"),
    ("io.render", "drbench.io", "plot_csv"),
)

SPAN_NAMES = tuple(dict.fromkeys(name for name, _, _ in TARGETS))
# program layers with a <module>.self_s metric; cli stages get one each
MODULES = ("protocols", "sampling", "compiling", "clifford", "simulate", "analysis", "io")
STAGES = ("generate", "simulate", "analyze", "report")


def _count_cnots(result, args) -> dict:
    return {"compiling.cnots_emitted": result[-1].cnots}


def _count_written(result, args) -> dict:
    return {"io.write.bytes": len(args[1].encode("utf-8"))}


def _count_shot_layers(result, args) -> dict:
    circ, shots = args[0], args[2]
    layers = circ.prep.depth + circ.core.depth + circ.meas.depth
    return {
        "simulate.shot_layers": layers * shots,
        "simulate.frame_bytes": layers * 2 * circ.n * shots,
    }


# Counters read from a call's arguments and result after its span closed.
COUNTERS = {
    "compiling.prep": _count_cnots,
    "compiling.meas": _count_cnots,
    "compiling.clifford": _count_cnots,
    "io.write": _count_written,
    "simulate.circuit": _count_shot_layers,
}


class SpanRecorder:
    """Records one span per call of every function in ``TARGETS``."""

    def __init__(self, workload: str):
        self.workload = workload
        self.name_ids = {name: i for i, name in enumerate(SPAN_NAMES)}
        self.names = array("i")
        self.parents = array("i")
        self.starts = array("d")
        self.ends = array("d")
        self.iterations = array("i")
        self.counters: list[dict[str, int]] = []
        self.iteration = -1
        self._stack = [-1]
        self._patched: list[tuple[object, str, object]] = []

    def start_iteration(self):
        self.iteration += 1
        self.counters.append({})

    def _wrap(self, name: str, fn):
        name_id = self.name_ids[name]
        counter = COUNTERS.get(name)
        names, parents, starts, ends, iterations = (
            self.names, self.parents, self.starts, self.ends, self.iterations)
        stack = self._stack
        clock = time.perf_counter

        def traced(*args, **kwargs):
            index = len(names)
            names.append(name_id)
            parents.append(stack[-1])
            iterations.append(self.iteration)
            starts.append(0.0)
            ends.append(0.0)
            stack.append(index)
            t0 = clock()
            try:
                result = fn(*args, **kwargs)
            finally:
                t1 = clock()
                stack.pop()
                starts[index] = t0
                ends[index] = t1
            if counter is not None:
                totals = self.counters[-1]
                for key, value in counter(result, args).items():
                    totals[key] = totals.get(key, 0) + value
            return result

        traced.__wrapped__ = fn
        return traced

    def install(self):
        """Wrap each target at every ``drbench`` module attribute bound to it."""
        for name, module_name, attr in TARGETS:
            original = getattr(sys.modules[module_name], attr)
            wrapper = self._wrap(name, original)
            for mod_name, module in list(sys.modules.items()):
                if module is None or not (mod_name == "drbench" or mod_name.startswith("drbench.")):
                    continue
                for key, value in list(vars(module).items()):
                    if value is original:
                        self._patched.append((module, key, original))
                        setattr(module, key, wrapper)

    def uninstall(self):
        for module, key, original in reversed(self._patched):
            setattr(module, key, original)
        self._patched.clear()

    def arrays(self) -> dict[str, np.ndarray]:
        return {
            "name": np.frombuffer(self.names, dtype=np.int32).copy(),
            "parent": np.frombuffer(self.parents, dtype=np.int32).copy(),
            "start": np.frombuffer(self.starts, dtype=np.float64).copy(),
            "end": np.frombuffer(self.ends, dtype=np.float64).copy(),
            "iteration": np.frombuffer(self.iterations, dtype=np.int32).copy(),
        }

    def save(self, path: Path):
        path.parent.mkdir(parents=True, exist_ok=True)
        np.savez_compressed(path, workload=np.array(self.workload),
                            span_names=np.array(SPAN_NAMES), **self.arrays())


def tail_percentile(count: int) -> float | None:
    """Highest of p90/p99/p99.9 with at least ten samples beyond it."""
    best = None
    for q in (90.0, 99.0, 99.9):
        if count * (100.0 - q) / 100.0 >= 10.0:
            best = q
    return best


def summarize(rec: SpanRecorder, untraced_run_s: float, traced_run_s: float,
              bootstrap_fail_frac: float, wall: dict[str, float], cnots_mean: float):
    """Per-layer metrics from the recorded spans.

    Counts and times are per pipeline iteration (medians over the traced
    iterations); duration percentiles pool every traced call.  Returns
    (metrics, notes) where notes say which percentile each tail is.
    """
    arr = rec.arrays()
    dur = arr["end"] - arr["start"]
    parent = arr["parent"]
    has_parent = parent >= 0
    child = np.bincount(parent[has_parent], weights=dur[has_parent], minlength=len(dur))
    self_time = dur - child
    n_iter = rec.iteration + 1
    it = arr["iteration"]

    def per_iter_sum(mask, values) -> float:
        sums = np.bincount(it[mask], weights=values[mask], minlength=n_iter)
        return float(np.median(sums)) if n_iter else 0.0

    metrics: dict[str, tuple[float, str]] = {}
    notes: dict[str, str] = {}
    for name in SPAN_NAMES:
        mask = arr["name"] == rec.name_ids[name]
        if name == "io.write":
            metrics["io.write.busy_s"] = (per_iter_sum(mask, dur), "s")
            continue
        if name.startswith("cli."):
            metrics[f"{name}.self_s"] = (per_iter_sum(mask, self_time), "s")
            continue
        samples = dur[mask] * 1e3
        calls = float(np.median(np.bincount(it[mask], minlength=n_iter))) if n_iter else 0.0
        metrics[f"{name}.calls"] = (calls, "count")
        metrics[f"{name}.busy_s"] = (per_iter_sum(mask, dur), "s")
        q = tail_percentile(len(samples))
        if len(samples) == 0:
            p50 = tail = 0.0
            notes[f"{name}.ms.tail"] = "no samples"
        else:
            p50 = float(np.percentile(samples, 50))
            tail = float(np.percentile(samples, q if q is not None else 100.0))
            label = f"p{q:g}" if q is not None else "max"
            notes[f"{name}.ms.tail"] = f"{label} of {len(samples)} samples"
        notes[f"{name}.ms.p50"] = f"p50 of {len(samples)} samples"
        metrics[f"{name}.ms.p50"] = (p50, "ms")
        metrics[f"{name}.ms.tail"] = (tail, "ms")
    for module in MODULES:
        ids = [rec.name_ids[n] for n in SPAN_NAMES if n.split(".")[0] == module]
        mask = np.isin(arr["name"], ids)
        metrics[f"{module}.self_s"] = (per_iter_sum(mask, self_time), "s")

    def counter(key: str) -> float:
        values = [c.get(key, 0) for c in rec.counters]
        return float(np.median(values)) if values else 0.0

    metrics["compiling.cnots_emitted"] = (counter("compiling.cnots_emitted"), "count")
    metrics["compiling.cnots_mean"] = (cnots_mean, "CNOTs")
    shot_layers = counter("simulate.shot_layers")
    sim_busy = metrics["simulate.circuit.busy_s"][0]
    metrics["simulate.shot_layers"] = (shot_layers, "count")
    metrics["simulate.shot_layers_per_s"] = (shot_layers / sim_busy if sim_busy > 0 else 0.0, "1/s")
    metrics["simulate.frame_bytes"] = (counter("simulate.frame_bytes"), "B")
    notes["simulate.frame_bytes"] = "computed as layers x 2n x shots"
    metrics["analysis.bootstrap_fail_frac"] = (bootstrap_fail_frac, "ratio")
    metrics["io.write.bytes"] = (counter("io.write.bytes"), "B")
    for stage in STAGES:
        metrics[f"cli.{stage}.wall_s"] = (wall.get(stage, 0.0), "s")
        notes[f"cli.{stage}.wall_s"] = "untraced"
    metrics["trace.overhead_frac"] = (traced_run_s / untraced_run_s - 1.0, "ratio")
    return metrics, notes
