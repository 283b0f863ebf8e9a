"""File formats for batch runs.

Circuits are diffable UTF-8 text, datasets are JSONL with a provenance
first line, configs, model files and results are JSON, and reports are
hand-rolled deterministic SVG.  Every serializer here is byte-stable so
pipelines can be compared digest to digest.

Every JSON value a reader takes goes through :func:`field`, which checks
its JSON kind without coercion (a bool is neither an integer nor a
number, null is not an absent field) and, for numbers, that they are
finite and in range; keys a reader does not know fail
:func:`check_keys`.  Circuit files take only gates a
:class:`~drbench.clifford.GateLabel` accepts.  Every reader raises
FormatError alone, with a message naming the field (``field
'device.edges' ...``, ``field 'runs[0].p' ...``); the command line exits
with code 2 on it.
"""

from __future__ import annotations

import dataclasses
import hashlib
import json
import math
from pathlib import Path

import numpy as np

from .clifford import Circuit, GateLabel, _layer_text
from .compiling import CompileOptions
from .device import GATE_SET_IDS, DeviceSpec, all_to_all, ring, ring_with_center
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


_REQUIRED = object()
# each JSON kind: its Python types (a tuple passes as a list, so the Python
# output of design_to_config reads back), its name and its plural
_KINDS = {
    int: (int, "an integer", "integers"),
    float: ((int, float), "a number", "numbers"),
    bool: (bool, "true or false", "booleans"),
    str: (str, "a string", "strings"),
    list: ((list, tuple), "a list", "lists"),
    dict: (dict, "an object", "objects"),
}


def _is_kind(value, kind) -> bool:
    if isinstance(kind, tuple):
        return any(_is_kind(value, k) for k in kind)
    if isinstance(kind, list):
        return _is_kind(value, list) and all(_is_kind(v, kind[0]) for v in value)
    return isinstance(value, _KINDS[kind][0]) and (kind is bool or not isinstance(value, bool))


def _kind_name(kind, plural: bool = False) -> str:
    if isinstance(kind, tuple):
        return " or ".join(_kind_name(k, plural) for k in kind)
    if isinstance(kind, list):
        return _KINDS[list][1 + plural] + " of " + _kind_name(kind[0], True)
    return _KINDS[kind][1 + plural]


def field(obj, key, name: str, kind, default=_REQUIRED, low=None, high=None):
    """``obj[key]`` of a JSON object (or list, by index), or ``default``
    when absent; a FormatError naming field ``name`` when it is absent with
    no default, not of the JSON ``kind``, or a number outside [low, high].

    A kind is ``int``, ``float`` (any number), ``bool``, ``str``, ``list``
    or ``dict``; ``[kind]`` is a list of that kind and a tuple of kinds
    takes any of them.  A bool is neither an integer nor a number, and
    nothing is coerced.  Null is a value, not an absent field, and NaN
    and +-Infinity (which Python's json reads) are no JSON numbers.
    """
    try:
        value = obj[key]
    except (KeyError, IndexError):
        if default is _REQUIRED:
            raise FormatError(f"field '{name}' is missing") from None
        return default
    if not _is_kind(value, kind):
        raise FormatError(f"field '{name}' must be {_kind_name(kind)}, got {value!r}")
    if _is_kind(value, float) and not ((low is None or value >= low)
                                       and (high is None or value <= high)):
        bounds = f">= {low}" if high is None else f"in [{low}, {high}]"
        raise FormatError(f"field '{name}' must be {bounds}, got {value!r}")
    if isinstance(value, float) and not math.isfinite(value):
        raise FormatError(f"field '{name}' must be a finite number, got {value!r}")
    return value


def check_keys(obj: dict, known, within: str = "") -> None:
    """A FormatError naming the first key of ``obj`` not in ``known``."""
    for key in obj:
        if key not in known:
            raise FormatError(f"unknown field '{within}{key}'")


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
    text = text.strip()
    parts = text.split()
    if len(parts) != 2:
        raise FormatError(f"malformed gate {text!r}")
    name, qubits = parts
    try:
        targets = tuple(int(q) for q in qubits.split(","))
    except ValueError:
        raise FormatError(f"malformed gate qubits {text!r}") from None
    try:
        return GateLabel(name, targets)
    except ValueError as exc:
        raise FormatError(f"gate {text!r}: {exc}") from None


def _parse_layer_line(line: str) -> tuple[GateLabel, ...]:
    return tuple(_parse_gate(part) for part in line.split(";"))


def circuit_to_text(circ: BenchmarkCircuit) -> str:
    lines = [
        "# drbench circuit v1",
        f"# id={circ.circuit_id}",
        f"# protocol={circ.protocol}",
        f"# n={circ.n}",
        f"# m={circ.length}",
        f"# target={circ.target_text}",
        "# seed=" + ",".join(str(s) for s in circ.seed),
        f"# segments={circ.prep.depth},{circ.core.depth},{circ.meas.depth}",
    ]
    lines.extend(f"# sampled={text}" for text in circ.sampled_layers)
    if circ.element_cnots:
        lines.append("# element_cnots=" + ",".join(map(str, circ.element_cnots)))
    if circ.element_depths:
        lines.append("# element_depths=" + ",".join(map(str, circ.element_depths)))
    lines.extend(_layer_text(layer) for layer in circ.full_circuit.layers)
    return "\n".join(lines) + "\n"


def _int_tuple(value: str, field: str) -> tuple[int, ...]:
    if value == "":
        return ()
    try:
        values = tuple(int(v) for v in value.split(","))
    except ValueError:
        raise FormatError(f"circuit header '{field}' must be comma-separated ints") from None
    if any(v < 0 for v in values):
        raise FormatError(f"circuit header '{field}' entries must be >= 0, got {value!r}")
    return values


# every ``# key=value`` header a circuit file may hold; ``sampled`` repeats
_CIRCUIT_HEADERS = ("id", "protocol", "n", "m", "target", "seed", "segments", "sampled",
                    "element_cnots", "element_depths")


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
                if key not in _CIRCUIT_HEADERS:
                    raise FormatError(f"unknown circuit header '{key}'")
                if key == "sampled":
                    sampled.append(value)
                elif key in headers:
                    raise FormatError(f"circuit header '{key}' repeated")
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
    if headers["protocol"] not in PROTOCOLS:
        raise FormatError(f"circuit header 'protocol' must be one of {sorted(PROTOCOLS)}, "
                          f"got {headers['protocol']!r}")
    if n < 1:
        raise FormatError(f"circuit header 'n' must be >= 1, got {n}")
    if m < 0:
        raise FormatError(f"circuit header 'm' must be >= 0, got {m}")
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
        raise FormatError(f"invalid gate layers: {exc}") from None


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
    check_keys(obj, ("circuit_id", "m", "target", "shots", "successes", "histogram"))
    m = field(obj, "m", "m", int, low=0)
    shots = field(obj, "shots", "shots", int, low=1)
    successes = field(obj, "successes", "successes", int, low=0, high=shots)
    target = field(obj, "target", "target", str, "")
    if not set(target) <= {"0", "1"}:
        raise FormatError(f"field 'target' must be a string of 0/1 characters, got {target!r}")
    hist = field(obj, "histogram", "histogram", [list], None)
    if hist is not None:
        if not all(len(pair) == 2 and _is_kind(pair[0], str) and _is_kind(pair[1], int)
                   for pair in hist):
            raise FormatError(f"field 'histogram' must be a list of [bitstring, count] pairs, "
                              f"got {hist!r}")
        # bare rows have no target: their bitstrings need only agree
        width = len(target) if target else len(hist[0][0]) if hist else 0
        if not all(len(bits) == width and set(bits) <= {"0", "1"} for bits, _ in hist):
            raise FormatError(f"field 'histogram' bitstrings must be {width} characters, "
                              f"each 0 or 1, got {hist!r}")
        if any(count < 0 for _, count in hist) or sum(count for _, count in hist) > shots:
            raise FormatError(f"field 'histogram' counts must be >= 0 with a total of at most "
                              f"shots ({shots}), got {hist!r}")
        hist = tuple(map(tuple, hist))
    circuit_id = field(obj, "circuit_id", "circuit_id", str, f"ext_{index:05d}")
    return DataRow(circuit_id, m, target, shots, successes, histogram=hist)


def dataset_from_jsonl(text: str) -> Dataset:
    """Parse a dataset; a leading provenance line is optional so bare
    externally produced row files load too."""
    provenance: dict = {}
    rows: list[DataRow] = []
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
        if not rows and "provenance" in obj and "m" not in obj:
            provenance = field(obj, "provenance", "provenance", dict)
            continue
        try:
            row = _row_from_obj(obj, len(rows))
            if rows and len(row.target) != len(rows[0].target):
                raise FormatError(f"field 'target' has {len(row.target)} bits, "
                                  f"but row 0's has {len(rows[0].target)}")
        except FormatError as exc:
            raise FormatError(f"dataset row {len(rows)}: {exc}") from None
        rows.append(row)
    return Dataset(tuple(rows), provenance)


# -- experiment configs -----------------------------------------------------

def _call(within: str, func, *args, **kwargs):
    """``func(*args, **kwargs)``.  Samplers, compile options and designs
    start every ValueError with the name of the field at fault, so each
    becomes a FormatError naming that field, prefixed by ``within``."""
    try:
        return func(*args, **kwargs)
    except ValueError as exc:
        key, _, problem = str(exc).partition(" ")
        raise FormatError(f"field '{within}{key}' {problem}") from None


def _json_kind(default):
    """The JSON kind of a dataclass field, read from its default."""
    return list if isinstance(default, tuple) else type(default)


_PRESETS = {
    "all_to_all": all_to_all,
    "ring": ring,
    "ring_with_center": lambda n, gate_set: ring_with_center(n - 1, gate_set),
}


def _device_from_config(obj: dict) -> DeviceSpec:
    check_keys(obj, ["preset", *(f.name for f in dataclasses.fields(DeviceSpec))], "device.")
    n = field(obj, "n", "device.n", int, low=1)
    gate_set = field(obj, "gate_set", "device.gate_set", str, "C24")
    if gate_set not in GATE_SET_IDS:
        raise FormatError(f"field 'device.gate_set' must be one of {GATE_SET_IDS}, "
                          f"got {gate_set!r}")
    preset = field(obj, "preset", "device.preset", str, None)
    if preset is not None:
        if preset not in _PRESETS:
            raise FormatError(f"field 'device.preset' must be one of {sorted(_PRESETS)}, "
                              f"got {preset!r}")
        try:
            return _PRESETS[preset](n, gate_set)
        except ValueError as exc:
            raise FormatError(f"field 'device.n' is invalid for preset {preset!r}: {exc}") from None
    edges = field(obj, "edges", "device.edges", [[int]])
    if any(len(e) != 2 for e in edges):
        raise FormatError(f"field 'device.edges' must be a list of [control, target] "
                          f"integer pairs, got {edges!r}")
    try:
        device = DeviceSpec(n=n, edges=tuple(map(tuple, edges)), gate_set=gate_set)
    except ValueError as exc:
        raise FormatError(f"field 'device.edges' is invalid: {exc}") from None
    # every compiler routes CNOTs along shortest paths between qubits
    if not device.is_connected():
        raise FormatError(f"field 'device.edges' must link every qubit, got {edges!r}")
    return device


def _sampler_from_config(obj: dict, device: DeviceSpec) -> SamplerSpec:
    kind = field(obj, "kind", "sampler.kind", str)
    if kind not in SAMPLERS:
        raise FormatError(f"field 'sampler.kind' must be one of {sorted(SAMPLERS)}, got {kind!r}")
    fields = dataclasses.fields(SAMPLERS[kind])
    check_keys(obj, ["kind", *(f.name for f in fields)], "sampler.")
    values = {f.name: field(obj, f.name, f"sampler.{f.name}", _json_kind(f.default),
                            device.gate_set if f.name == "pool" else _REQUIRED)
              for f in fields}
    spec = _call("sampler.", SAMPLERS[kind], **values)
    _call("sampler.", spec.check_device, device)
    return spec


def design_from_config(obj: dict) -> ExperimentDesign:
    """Build an ExperimentDesign from a parsed config JSON object."""
    if not isinstance(obj, dict):
        raise FormatError("config must be a JSON object")
    check_keys(obj, ("protocol", "device", "sampler", "compile", "lengths", "circuits_per_length",
                     "shots", "seed"))
    protocol = field(obj, "protocol", "protocol", str, "DRB")
    if protocol not in PROTOCOLS:
        raise FormatError(f"field 'protocol' must be one of {sorted(PROTOCOLS)}, got {protocol!r}")
    device = _device_from_config(field(obj, "device", "device", dict))
    sampler = None
    if protocol == "DRB" or obj.get("sampler") is not None:
        sampler = _sampler_from_config(field(obj, "sampler", "sampler", dict), device)
    compile_obj = field(obj, "compile", "compile", dict, {})
    options = dataclasses.fields(CompileOptions)
    check_keys(compile_obj, [f.name for f in options], "compile.")
    compile_options = _call("compile.", CompileOptions, **{
        f.name: field(compile_obj, f.name, f"compile.{f.name}", _json_kind(f.default), f.default)
        for f in options})
    return _call(
        "",
        ExperimentDesign,
        protocol=protocol,
        device=device,
        sampler=sampler,
        lengths=tuple(field(obj, "lengths", "lengths", [int], DEFAULT_LENGTHS)),
        circuits_per_length=field(obj, "circuits_per_length", "circuits_per_length", int,
                                  DEFAULT_CIRCUITS_PER_LENGTH),
        shots=field(obj, "shots", "shots", int, DEFAULT_SHOTS),
        seed=field(obj, "seed", "seed", int, 0),
        compile_options=compile_options,
    )


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
        "compile": dataclasses.asdict(design.compile_options),
    }
    spec = design.sampler
    out["sampler"] = None if spec is None else {"kind": spec.kind, **dataclasses.asdict(spec)}
    return out


# -- error-model files ------------------------------------------------------

def _rates(obj: dict, key: str, names: list[str], partial: bool = False) -> dict[str, float]:
    """Model field ``key``: a rate in [0, 1] for each of ``names``, given
    as one number for all of them or as a map from name to rate.  A
    ``partial`` map may leave names out."""
    value = field(obj, key, key, (float, dict), 0.0, 0, 1)
    if not isinstance(value, dict):
        return dict.fromkeys(names, float(value))
    check_keys(value, names, f"{key}.")
    return {name: float(field(value, name, f"{key}.{name}", float, low=0, high=1))
            for name in (value if partial else names)}


def model_from_json(obj: dict, n: int | None = None) -> ErrorModel:
    """Calibration-style model file: total rates per gate, optional global
    per-layer depolarizing."""
    if not isinstance(obj, dict):
        raise FormatError("model must be a JSON object")
    check_keys(obj, ("n", "one_qubit", "cnot", "readout", "layer_depol"))
    file_n = field(obj, "n", "n", int, low=1)
    if n is not None and file_n != n:
        raise FormatError(f"model is for n={file_n} but the circuits have n={n}")
    qubits = [str(q) for q in range(file_n)]
    pairs = [f"{c},{t}" for c in range(file_n) for t in range(file_n) if c != t]
    one_qubit, readout = ({int(q): p for q, p in _rates(obj, key, qubits).items()}
                          for key in ("one_qubit", "readout"))
    cnot = {tuple(map(int, pair.split(","))): p
            for pair, p in _rates(obj, "cnot", pairs, partial=True).items()}
    model = build_model_from_calibration(file_n, one_qubit, cnot, readout)
    depol = field(obj, "layer_depol", "layer_depol", float, 0.0, 0, 1)
    return dataclasses.replace(model, layer_depol=float(depol))


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
    if path.is_file():
        try:
            obj = json.loads(path.read_text(encoding="utf-8"))
        except json.JSONDecodeError as exc:
            raise FormatError(f"model file {spec} is not JSON: {exc}") from None
        try:
            return model_from_json(obj, n)
        except FormatError as exc:
            raise FormatError(f"model file {spec}: {exc}") from None
    raise FormatError(
        f"unknown model {spec!r}: not a file and not one of {', '.join(BUNDLED_MODELS)}"
    )


def model_coverage_gaps(model: ErrorModel, circuits) -> list[str]:
    """Gate keys used by the circuits but absent from the model."""
    keys = {model.key(gate) for circ in circuits
            for layer in circ.full_circuit.layers for gate in layer}
    return sorted(f"{kind} {','.join(map(str, qubits))}"
                  for kind, qubits in keys - model.gate_errors.keys())


# -- results files ----------------------------------------------------------

def runs_from_results(obj) -> list[dict]:
    """The fitted runs of a results file, as ``drbench report`` reads
    them: ``n``, ``r``, ``r_sigma``, the fit ``A``, ``B`` and ``p``, the
    mean success ``points`` per length and the ``protocol``."""
    if not isinstance(obj, dict):
        raise FormatError("results must be a JSON object")
    runs = []
    for i, run in enumerate(field(obj, "runs", "runs", [dict])):
        name = f"runs[{i}]"
        # each with the range ``analyze`` writes
        values = {key: field(run, key, f"{name}.{key}", kind, _REQUIRED, *bounds) for key, kind, *bounds in (
            ("n", int, 1), ("r", float, 0, 1), ("r_sigma", float, 0), ("A", float), ("B", float),
            ("p", float, 0, 1), ("points", dict))}
        values["protocol"] = field(run, "protocol", f"{name}.protocol", str, "DRB")
        points = values["points"]
        if not points or not all(m.isascii() and m.isdigit() and m == str(int(m)) for m in points):
            raise FormatError(f"field '{name}.points' must map lengths m (no leading zeros) to "
                              f"success probabilities, got {points!r}")
        values["points"] = {int(m): field(points, m, f"{name}.points.{m}", float, low=0, high=1)
                            for m in points}
        runs.append(values)
    return runs


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
