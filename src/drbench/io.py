"""File formats for batch runs.

Circuits are diffable UTF-8 text, datasets are JSONL with a provenance
first line, configs and results are JSON, and reports are hand-rolled
deterministic SVG.  Every serializer here is byte-stable so pipelines can
be compared digest to digest.
"""

from __future__ import annotations

import dataclasses
import hashlib
import json
from pathlib import Path

import numpy as np

from .clifford import Circuit, GateLabel
from .compiling import CompileOptions
from .device import DeviceSpec, all_to_all, ring, ring_with_center
from .protocols import (
    DEFAULT_CIRCUITS_PER_LENGTH,
    DEFAULT_LENGTHS,
    DEFAULT_SHOTS,
    PROTOCOLS,
    BenchmarkCircuit,
    ExperimentDesign,
)
from .sampling import SAMPLERS, SamplerSpec
from .simulate import (
    DataRow,
    Dataset,
    ErrorModel,
    build_model_crosstalk5,
    build_model_from_calibration,
    build_model_main_sim,
)

TOOL_VERSION = "drbench 0.1.0"

BUNDLED_MODELS = ("main_sim", "crosstalk5", "zero", "depolarizing:<lam>")


class FormatError(ValueError):
    """A file or config does not match its documented format; the message
    names the offending field."""


def _is_int(value) -> bool:
    """A JSON integer: an int that is not a bool."""
    return isinstance(value, int) and not isinstance(value, bool)


def canonical_json(obj) -> str:
    """Stable JSON rendering used for every .json artifact."""
    return json.dumps(obj, sort_keys=True, indent=2) + "\n"


def sha256_digest(data: bytes) -> str:
    return "sha256:" + hashlib.sha256(data).hexdigest()


def file_digest(path) -> str:
    return sha256_digest(Path(path).read_bytes())


def write_text(path, text: str) -> str:
    """Write UTF-8 with unix newlines and return the content digest."""
    p = Path(path)
    p.parent.mkdir(parents=True, exist_ok=True)
    data = text.encode("utf-8")
    p.write_bytes(data)
    return sha256_digest(data)


# -- circuit text format ----------------------------------------------------

def _parse_gate(text: str) -> GateLabel:
    parts = text.strip().split()
    if len(parts) != 2:
        raise FormatError(f"malformed gate {text!r}")
    name, qubits = parts
    try:
        targets = tuple(int(q) for q in qubits.split(","))
    except ValueError:
        raise FormatError(f"malformed gate qubits {text!r}") from None
    return GateLabel(name, targets)


def _parse_layer_line(line: str) -> tuple[GateLabel, ...]:
    return tuple(_parse_gate(part) for part in line.split(";"))


def circuit_to_text(circ: BenchmarkCircuit) -> str:
    lines = [
        "# drbench circuit v1",
        f"# id={circ.circuit_id}",
        f"# protocol={circ.protocol}",
        f"# n={circ.n}",
        f"# m={circ.length}",
        "# target=" + "".join(str(b) for b in circ.target),
        "# seed=" + ",".join(str(s) for s in circ.seed),
        f"# segments={circ.prep.depth},{circ.core.depth},{circ.meas.depth}",
    ]
    lines.extend(f"# sampled={text}" for text in circ.sampled_layers)
    if circ.element_cnots:
        lines.append("# element_cnots=" + ",".join(map(str, circ.element_cnots)))
    if circ.element_depths:
        lines.append("# element_depths=" + ",".join(map(str, circ.element_depths)))
    lines.extend(
        "; ".join(str(g) for g in layer) for layer in circ.full_circuit.layers
    )
    return "\n".join(lines) + "\n"


def _int_tuple(value: str, field: str) -> tuple[int, ...]:
    if value == "":
        return ()
    try:
        return tuple(int(v) for v in value.split(","))
    except ValueError:
        raise FormatError(f"circuit header '{field}' must be comma-separated ints") from None


def circuit_from_text(text: str) -> BenchmarkCircuit:
    headers: dict[str, str] = {}
    sampled: list[str] = []
    layers: list[tuple[GateLabel, ...]] = []
    for raw in text.splitlines():
        line = raw.strip()
        if not line:
            continue
        if line.startswith("#"):
            body = line[1:].strip()
            key, eq, value = body.partition("=")
            if eq:
                if key == "sampled":
                    sampled.append(value)
                else:
                    headers[key] = value
            continue
        layers.append(_parse_layer_line(line))
    for field in ("id", "protocol", "n", "m", "target", "seed", "segments"):
        if field not in headers:
            raise FormatError(f"circuit header '{field}' missing")
    try:
        n = int(headers["n"])
        m = int(headers["m"])
    except ValueError:
        raise FormatError("circuit headers 'n' and 'm' must be integers") from None
    target_text = headers["target"]
    if len(target_text) != n or set(target_text) - {"0", "1"}:
        raise FormatError(f"circuit header 'target' must be {n} characters, each 0 or 1, "
                          f"got {target_text!r}")
    target = tuple(int(b) for b in target_text)
    seed = _int_tuple(headers["seed"], "seed")
    segments = _int_tuple(headers["segments"], "segments")
    if len(seed) != 3:
        raise FormatError("circuit header 'seed' must have three entries")
    if len(segments) != 3 or sum(segments) != len(layers):
        raise FormatError("circuit header 'segments' does not match the layer count")
    a, b, _ = segments
    try:
        return BenchmarkCircuit(
            circuit_id=headers["id"],
            protocol=headers["protocol"],
            n=n,
            length=m,
            prep=Circuit(n, tuple(layers[:a])),
            core=Circuit(n, tuple(layers[a:a + b])),
            meas=Circuit(n, tuple(layers[a + b:])),
            target=target,
            seed=(seed[0], seed[1], seed[2]),
            sampled_layers=tuple(sampled),
            element_cnots=_int_tuple(headers.get("element_cnots", ""), "element_cnots"),
            element_depths=_int_tuple(headers.get("element_depths", ""), "element_depths"),
        )
    except ValueError as exc:
        raise FormatError(f"invalid circuit file: {exc}") from None


# -- dataset JSONL ----------------------------------------------------------

def dataset_to_jsonl(dataset: Dataset) -> str:
    lines = [json.dumps({"provenance": dataset.provenance}, sort_keys=True,
                        separators=(",", ":"))]
    for row in dataset.rows:
        obj = {
            "circuit_id": row.circuit_id,
            "m": row.m,
            "target": row.target,
            "shots": row.shots,
            "successes": row.successes,
        }
        if row.histogram is not None:
            obj["histogram"] = [[bits, count] for bits, count in row.histogram]
        lines.append(json.dumps(obj, sort_keys=True, separators=(",", ":")))
    return "\n".join(lines) + "\n"


def _row_from_obj(obj: dict, index: int) -> DataRow:
    for key in ("m", "shots", "successes"):
        if key not in obj:
            raise FormatError(f"dataset row {index} missing field '{key}'")
        if not _is_int(obj[key]):
            raise FormatError(f"dataset row {index} field '{key}' must be an integer, "
                              f"got {obj[key]!r}")
    for key, low in (("m", 0), ("shots", 1)):
        if obj[key] < low:
            raise FormatError(f"dataset row {index} field '{key}' must be >= {low}, got {obj[key]}")
    target = obj.get("target", "")
    if not (isinstance(target, str) and set(target) <= {"0", "1"}):
        raise FormatError(f"dataset row {index} field 'target' must be a string of 0/1 "
                          f"characters, got {target!r}")
    hist = obj.get("histogram")
    if hist is not None:
        if not isinstance(hist, list) or not all(
            isinstance(pair, list) and len(pair) == 2
            and isinstance(pair[0], str) and _is_int(pair[1]) for pair in hist
        ):
            raise FormatError(f"dataset row {index} field 'histogram' must be a list of "
                              f"[string, integer] pairs, got {hist!r}")
        hist = tuple(map(tuple, hist))
    try:
        return DataRow(
            circuit_id=str(obj.get("circuit_id", f"ext_{index:05d}")),
            m=obj["m"],
            target=target,
            shots=obj["shots"],
            successes=obj["successes"],
            histogram=hist,
        )
    except ValueError as exc:
        raise FormatError(f"dataset row {index}: {exc}") from None


def dataset_from_jsonl(text: str) -> Dataset:
    """Parse a dataset; a leading provenance line is optional so bare
    externally produced row files load too."""
    provenance: dict = {}
    rows: list[DataRow] = []
    index = 0
    for lineno, raw in enumerate(text.splitlines()):
        line = raw.strip()
        if not line:
            continue
        try:
            obj = json.loads(line)
        except json.JSONDecodeError as exc:
            raise FormatError(f"dataset line {lineno + 1} is not JSON: {exc}") from None
        if not isinstance(obj, dict):
            raise FormatError(f"dataset line {lineno + 1} is not an object")
        if index == 0 and not rows and "provenance" in obj and "m" not in obj:
            provenance = obj["provenance"]
            continue
        row = _row_from_obj(obj, index)
        if rows and len(row.target) != len(rows[0].target):
            raise FormatError(f"dataset row {index} field 'target' has {len(row.target)} bits, "
                              f"but row 0's has {len(rows[0].target)}")
        rows.append(row)
        index += 1
    return Dataset(tuple(rows), provenance)


# -- experiment configs -----------------------------------------------------

def _get(obj: dict, key: str, path: str, default=None, required: bool = False,
         kind: type | None = None):
    """``obj[key]``, or ``default`` when absent; a FormatError naming
    ``path`` when it is absent but required or, with ``kind`` given, not of
    that type (a bool is not an int)."""
    if key not in obj:
        if required:
            raise FormatError(f"missing config field '{path}'")
        return default
    value = obj[key]
    if kind is not None and (not isinstance(value, kind) or (kind is int and not _is_int(value))):
        raise FormatError(f"config field '{path}' must be of type {kind.__name__}, got {value!r}")
    return value


_DEVICE_FIELDS = ("n", "gate_set", "preset", "edges")


def _device_from_config(obj, path: str = "device") -> DeviceSpec:
    if not isinstance(obj, dict):
        raise FormatError(f"missing config field '{path}'")
    for key in obj:
        if key not in _DEVICE_FIELDS:
            raise FormatError(f"unknown config field '{path}.{key}'")
    n = _get(obj, "n", f"{path}.n", required=True)
    if not _is_int(n) or n < 1:
        raise FormatError(f"config field '{path}.n' must be a positive integer")
    gate_set = _get(obj, "gate_set", f"{path}.gate_set", default="C24")
    preset = _get(obj, "preset", f"{path}.preset")
    try:
        if preset == "all_to_all":
            return all_to_all(n, gate_set)
        if preset == "ring":
            return ring(n, gate_set)
        if preset == "ring_with_center":
            return ring_with_center(n - 1, gate_set)
        if preset is not None:
            raise FormatError(f"unknown '{path}.preset' value {preset!r}")
        edges = _get(obj, "edges", f"{path}.edges", required=True, kind=list)
        if not all(isinstance(e, list) and len(e) == 2 and all(map(_is_int, e)) for e in edges):
            raise FormatError(f"config field '{path}.edges' must be a list of "
                              f"[control, target] integer pairs, got {edges!r}")
        return DeviceSpec(n=n, edges=tuple(map(tuple, edges)), gate_set=gate_set)
    except FormatError:
        raise
    except (TypeError, ValueError) as exc:
        raise FormatError(f"invalid '{path}': {exc}") from None


def _sampler_from_config(obj, device: DeviceSpec, path: str = "sampler") -> SamplerSpec:
    if not isinstance(obj, dict):
        raise FormatError(f"missing config field '{path}'")
    kind = _get(obj, "kind", f"{path}.kind", required=True)
    cls = SAMPLERS.get(kind) if isinstance(kind, str) else None
    if cls is None:
        raise FormatError(f"unknown '{path}.kind' value {kind!r}")
    names = [f.name for f in dataclasses.fields(cls)]
    for key in obj:
        if key != "kind" and key not in names:
            raise FormatError(f"unknown config field '{path}.{key}'")
    values = {name: _get(obj, name, f"{path}.{name}", required=True) for name in names if name != "pool"}
    try:
        spec = cls(pool=obj.get("pool", device.gate_set), **values)
        spec.check_device(device)
    except ValueError as exc:
        # sampler messages start with the field's name
        name, _, problem = str(exc).partition(" ")
        raise FormatError(f"config field '{path}.{name}' {problem}") from None
    return spec


_COMPILE_FIELDS = ("trials", "respect_connectivity", "use_heuristic", "cost", "seed")
_CONFIG_FIELDS = ("protocol", "device", "sampler", "compile", "lengths", "circuits_per_length",
                  "shots", "seed", "frame_randomization", "emit_frame_gates")


def design_from_config(obj: dict) -> ExperimentDesign:
    """Build an ExperimentDesign from a parsed config JSON object."""
    if not isinstance(obj, dict):
        raise FormatError("config must be a JSON object")
    for key in obj:
        if key not in _CONFIG_FIELDS:
            raise FormatError(f"unknown config field '{key}'")
    protocol = _get(obj, "protocol", "protocol", default="DRB")
    if protocol not in PROTOCOLS:
        raise FormatError(f"config field 'protocol' must be one of {sorted(PROTOCOLS)}")
    device = _device_from_config(_get(obj, "device", "device", required=True))
    sampler = None
    if protocol == "DRB" or obj.get("sampler") is not None:
        sampler = _sampler_from_config(_get(obj, "sampler", "sampler", required=True), device)
    compile_obj = _get(obj, "compile", "compile", default={})
    if not isinstance(compile_obj, dict):
        raise FormatError("config field 'compile' must be an object")
    for key in compile_obj:
        if key not in _COMPILE_FIELDS:
            raise FormatError(f"unknown config field 'compile.{key}'")
    try:
        options = CompileOptions(**compile_obj)
    except ValueError as exc:
        # CompileOptions starts each message with the option's name
        name, _, problem = str(exc).partition(" ")
        raise FormatError(f"config field 'compile.{name}' {problem}") from None
    lengths = _get(obj, "lengths", "lengths", default=list(DEFAULT_LENGTHS), kind=list)
    if not all(map(_is_int, lengths)):
        raise FormatError(f"config field 'lengths' must be a list of integers, got {lengths!r}")
    seed = _get(obj, "seed", "seed", default=0, kind=int)
    if seed < 0:
        raise FormatError(f"config field 'seed' must be >= 0, got {seed}")
    try:
        return ExperimentDesign(
            protocol=protocol,
            device=device,
            sampler=sampler,
            lengths=tuple(lengths),
            circuits_per_length=_get(obj, "circuits_per_length", "circuits_per_length",
                                     default=DEFAULT_CIRCUITS_PER_LENGTH, kind=int),
            shots=_get(obj, "shots", "shots", default=DEFAULT_SHOTS, kind=int),
            seed=seed,
            frame_randomization=_get(obj, "frame_randomization", "frame_randomization",
                                     default=False, kind=bool),
            emit_frame_gates=_get(obj, "emit_frame_gates", "emit_frame_gates",
                                  default=False, kind=bool),
            compile_options=options,
        )
    except (TypeError, ValueError) as exc:
        raise FormatError(f"invalid config: {exc}") from None


def design_to_config(design: ExperimentDesign) -> dict:
    """Inverse of design_from_config, with the device spelled out."""
    out = {
        "protocol": design.protocol,
        "device": {
            "n": design.device.n,
            "edges": [list(e) for e in design.device.edges],
            "gate_set": design.device.gate_set,
        },
        "lengths": list(design.lengths),
        "circuits_per_length": design.circuits_per_length,
        "shots": design.shots,
        "seed": design.seed,
        "frame_randomization": design.frame_randomization,
        "emit_frame_gates": design.emit_frame_gates,
        "compile": {key: getattr(design.compile_options, key) for key in _COMPILE_FIELDS},
    }
    spec = design.sampler
    out["sampler"] = None if spec is None else {"kind": spec.kind, **dataclasses.asdict(spec)}
    return out


# -- error-model files ------------------------------------------------------

def _per_qubit(value, n: int, field: str) -> dict[int, float] | float:
    if isinstance(value, (int, float)):
        return float(value)
    if isinstance(value, dict):
        try:
            return {int(q): float(p) for q, p in value.items()}
        except ValueError:
            raise FormatError(f"model field '{field}' has non-integer qubit keys") from None
    raise FormatError(f"model field '{field}' must be a number or a qubit map")


_MODEL_FIELDS = ("n", "one_qubit", "cnot", "readout", "layer_depol")


def model_from_json(obj: dict, n: int | None = None) -> ErrorModel:
    """Calibration-style model file: total rates per gate, optional global
    per-layer depolarizing."""
    if not isinstance(obj, dict):
        raise FormatError("model must be a JSON object")
    for key in obj:
        if key not in _MODEL_FIELDS:
            raise FormatError(f"unknown model field '{key}'; known fields: {', '.join(_MODEL_FIELDS)}")
    if "n" not in obj:
        raise FormatError("missing model field 'n'")
    file_n = obj["n"]
    if not isinstance(file_n, int) or file_n < 1:
        raise FormatError("model field 'n' must be a positive integer")
    if n is not None and file_n != n:
        raise FormatError(f"model is for n={file_n} but the circuits have n={n}")
    one_qubit = _per_qubit(obj.get("one_qubit", 0.0), file_n, "one_qubit")
    readout = _per_qubit(obj.get("readout", 0.0), file_n, "readout")
    cnot_value = obj.get("cnot", 0.0)
    if isinstance(cnot_value, (int, float)):
        cnot = {(c, t): float(cnot_value)
                for c in range(file_n) for t in range(file_n) if c != t}
    elif isinstance(cnot_value, dict):
        cnot = {}
        for key, rate in cnot_value.items():
            parts = str(key).split(",")
            if len(parts) != 2:
                raise FormatError(f"model field 'cnot' has malformed key {key!r}")
            cnot[(int(parts[0]), int(parts[1]))] = float(rate)
    else:
        raise FormatError("model field 'cnot' must be a number or an edge map")
    depol = obj.get("layer_depol", 0.0)
    try:
        model = build_model_from_calibration(file_n, one_qubit, cnot, readout)
        return dataclasses.replace(model, layer_depol=float(depol))
    except ValueError as exc:
        raise FormatError(f"invalid model: {exc}") from None


def model_from_spec(spec: str, n: int) -> ErrorModel:
    """Resolve a --model argument: bundled name, depolarizing:<lam>, or a
    JSON file path."""
    if spec == "main_sim":
        return build_model_main_sim(n)
    if spec == "crosstalk5":
        if n != 5:
            raise FormatError(f"model 'crosstalk5' needs n=5 circuits, got n={n}")
        return build_model_crosstalk5()
    if spec == "zero":
        return model_from_json({"n": n})
    if spec.startswith("depolarizing:"):
        try:
            lam = float(spec.split(":", 1)[1])
        except ValueError:
            raise FormatError(f"malformed model spec {spec!r}") from None
        if not 0.0 <= lam <= 1.0:
            raise FormatError("depolarizing parameter must be in [0, 1]")
        return model_from_json({"n": n, "layer_depol": 1.0 - lam})
    path = Path(spec)
    if path.exists():
        try:
            obj = json.loads(path.read_text(encoding="utf-8"))
        except json.JSONDecodeError as exc:
            raise FormatError(f"model file {spec} is not JSON: {exc}") from None
        return model_from_json(obj, n)
    raise FormatError(
        f"unknown model {spec!r}: not a file and not one of {', '.join(BUNDLED_MODELS)}"
    )


def model_coverage_gaps(model: ErrorModel, circuits) -> list[str]:
    """Gate labels used by the circuits but absent from the model."""
    gaps = []
    seen = set()
    for circ in circuits:
        for layer in circ.full_circuit.layers:
            for gate in layer:
                kind = "CNOT" if gate.name == "CNOT" else "1Q"
                key = (kind, gate.qubits)
                if key in seen:
                    continue
                seen.add(key)
                if key not in model.gate_errors:
                    gaps.append(str(gate) if kind == "CNOT" else f"1Q {gate.qubits[0]}")
    return sorted(gaps)


# -- plot CSV and SVG report ------------------------------------------------

def _fmt(value: float) -> str:
    return format(float(value), ".10g")


def plot_csv(averages: dict[int, tuple[float, tuple[float, ...]]],
             fit_a: float, fit_b: float, fit_p: float) -> str:
    """Per-length summary table: mean, spread quantiles, fitted curve."""
    lines = ["m,P_m,q05,q25,q50,q75,q95,fitted"]
    for m in sorted(averages):
        pm, rates = averages[m]
        qs = np.quantile(np.array(rates), [0.05, 0.25, 0.50, 0.75, 0.95])
        fitted = fit_a + fit_b * fit_p**m
        cells = [str(m), _fmt(pm), *(_fmt(q) for q in qs), _fmt(fitted)]
        lines.append(",".join(cells))
    return "\n".join(lines) + "\n"


_PALETTE = ("#4c72b0", "#dd8452", "#55a868", "#c44e52",
            "#8172b3", "#937860", "#da8bc3", "#8c8c8c")


def color_for_n(n: int) -> str:
    return _PALETTE[n % len(_PALETTE)]


def render_decay_svg(runs: list[dict]) -> str:
    """Static decay plot; ``runs`` entries carry label, n, points (m ->
    P_m), and fit parameters (A, B, p).  Output is deterministic."""
    if not runs:
        raise ValueError("nothing to plot")
    width, height = 640, 420
    left, right, top, bottom = 56, 16, 40, 44
    max_m = max(max(run["points"]) for run in runs)
    max_m = max(max_m, 1)

    def sx(m):
        return left + (width - left - right) * m / max_m

    def sy(p):
        return top + (height - top - bottom) * (1.05 - p) / 1.05

    parts = [
        f'<svg xmlns="http://www.w3.org/2000/svg" width="{width}" height="{height}" '
        f'viewBox="0 0 {width} {height}" font-family="monospace" font-size="12">',
        f'<rect width="{width}" height="{height}" fill="white"/>',
        f'<line x1="{left}" y1="{sy(0):.2f}" x2="{width - right}" y2="{sy(0):.2f}" stroke="black"/>',
        f'<line x1="{left}" y1="{sy(0):.2f}" x2="{left}" y2="{top}" stroke="black"/>',
        f'<text x="{(left + width - right) / 2:.2f}" y="{height - 10}" text-anchor="middle">sequence length m</text>',
        f'<text x="14" y="{(top + height - bottom) / 2:.2f}" text-anchor="middle" '
        f'transform="rotate(-90 14 {(top + height - bottom) / 2:.2f})">success probability</text>',
    ]
    for frac in (0.0, 0.25, 0.5, 0.75, 1.0):
        y = sy(frac)
        parts.append(f'<line x1="{left - 4}" y1="{y:.2f}" x2="{left}" y2="{y:.2f}" stroke="black"/>')
        parts.append(f'<text x="{left - 8}" y="{y + 4:.2f}" text-anchor="end">{frac:.2f}</text>')
    ticks = sorted({m for run in runs for m in run["points"]})
    for m in ticks:
        x = sx(m)
        parts.append(f'<line x1="{x:.2f}" y1="{sy(0):.2f}" x2="{x:.2f}" y2="{sy(0) + 4:.2f}" stroke="black"/>')
        parts.append(f'<text x="{x:.2f}" y="{sy(0) + 18:.2f}" text-anchor="middle">{m}</text>')
    for index, run in enumerate(runs):
        color = color_for_n(run["n"])
        a, b, p = run["fit"]
        curve = []
        for k in range(101):
            m = max_m * k / 100.0
            curve.append(f"{sx(m):.2f},{sy(min(max(a + b * p**m, 0.0), 1.05)):.2f}")
        parts.append(f'<polyline points="{" ".join(curve)}" fill="none" stroke="{color}" stroke-width="1.5"/>')
        for m in sorted(run["points"]):
            parts.append(
                f'<circle cx="{sx(m):.2f}" cy="{sy(run["points"][m]):.2f}" r="3" '
                f'fill="{color}" fill-opacity="0.8"/>'
            )
        parts.append(
            f'<text x="{width - right - 4}" y="{top + 16 * index + 4}" text-anchor="end" '
            f'fill="{color}">{run["label"]}</text>'
        )
    parts.append("</svg>")
    return "\n".join(parts) + "\n"
