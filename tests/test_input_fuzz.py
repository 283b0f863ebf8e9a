"""Mutation fuzz of every file the command line reads.

Each test takes a valid document, replaces one of its fields by a value of
another JSON kind (or, for circuit text, one header or gate by a malformed
one) and runs the subcommand that reads it through ``cli.main``: it must
exit 2 and name the field, never exit 0 or 3 or raise.
"""

import contextlib
import copy
import io
import json
from pathlib import Path

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from drbench.cli import main

FUZZ = settings(max_examples=120, deadline=None)

# small values of every JSON kind; integers stay small so that a mutated
# qubit count cannot ask for a huge device
VALUES = st.one_of(
    st.none(),
    st.booleans(),
    st.integers(-3, 5),
    st.floats(),
    st.text(max_size=3),
    st.lists(st.integers(0, 2), max_size=2),
    st.dictionaries(st.text(max_size=2), st.integers(0, 2), max_size=2),
)


def kind_of(value) -> str:
    if value is None:
        return "null"
    if isinstance(value, bool):
        return "bool"
    if isinstance(value, (int, float)):
        return "number"
    return type(value).__name__


def paths(doc, prefix=()):
    """The path of every value below the root of a JSON document."""
    items = doc.items() if isinstance(doc, dict) else enumerate(doc) if isinstance(doc, list) else ()
    for key, value in items:
        yield prefix + (key,)
        yield from paths(value, prefix + (key,))


def get(doc, path):
    for key in path:
        doc = doc[key]
    return doc


def mutate(doc, path, value):
    out = copy.deepcopy(doc)
    get(out, path[:-1])[path[-1]] = value
    return out


def field_names(path) -> list[str]:
    """Names an error may give the field at ``path``: its own, or that of a
    list holding it, since lists of one kind are checked whole."""
    names, text = [], ""
    for key in path:
        if isinstance(key, int):
            names.append(text)
            text += f"[{key}]"
        else:
            text += ("." if text else "") + key
    return names + [text]


def draw_mutation(data, doc, also_valid=lambda path: (), depth=1):
    """(path, mutated document): one field at least ``depth`` deep replaced
    by a value whose kind is neither the field's own nor one of
    ``also_valid(path)``."""
    path = data.draw(st.sampled_from([p for p in paths(doc) if len(p) >= depth]), label="path")
    valid = {kind_of(get(doc, path)), *also_valid(path)}
    value = data.draw(VALUES.filter(lambda v: kind_of(v) not in valid), label="value")
    return path, mutate(doc, path, value)


def run(argv) -> tuple[int, str]:
    err = io.StringIO()
    with contextlib.redirect_stderr(err), contextlib.redirect_stdout(io.StringIO()):
        code = main(argv)
    return code, err.getvalue()


def assert_names_field(code: int, err: str, path):
    assert code == 2, (path, err)
    assert any(f"field '{name}'" in err for name in field_names(path)), (path, err)


CONFIGS = [
    {
        "protocol": "DRB",
        "device": {"n": 2, "edges": [[0, 1], [1, 0]], "gate_set": "HPI"},
        "sampler": {"kind": "pcnot", "p_cnot": 0.5, "pool": "HPI"},
        "lengths": [0, 2],
        "circuits_per_length": 1,
        "shots": 10,
        "seed": 3,
        "compile": {"trials": 2},
    },
    {
        "device": {"n": 3, "preset": "ring", "gate_set": "C24"},
        "sampler": {"kind": "category", "probabilities": [0.5, 0.5], "edge_groups": [[[0, 1]]]},
        "lengths": [0, 2],
        "circuits_per_length": 1,
    },
    {
        "protocol": "CRB",
        "device": {"n": 2, "preset": "all_to_all"},
        "lengths": [1, 2],
        "circuits_per_length": 1,
        "compile": {"trials": 1},
    },
]


@pytest.fixture(scope="module")
def workdir(tmp_path_factory):
    return tmp_path_factory.mktemp("fuzz")


@pytest.mark.parametrize("index", range(len(CONFIGS)))
def test_valid_documents_load(workdir, index):
    """The fuzz's starting configs are valid, so each mutation is the fault."""
    path = workdir / f"valid{index}.json"
    path.write_text(json.dumps(CONFIGS[index]), encoding="utf-8")
    assert run(["generate", "--config", str(path), "--out", str(workdir / f"v{index}")])[0] == 0


@FUZZ
@given(data=st.data())
def test_config_fuzz(workdir, data):
    config = data.draw(st.sampled_from(CONFIGS), label="config")
    path, doc = draw_mutation(data, config)
    cfg = workdir / "config.json"
    cfg.write_text(json.dumps(doc), encoding="utf-8")
    out = workdir / "generated"
    code, err = run(["generate", "--config", str(cfg), "--out", str(out)])
    assert_names_field(code, err, path)
    assert not out.exists()


@pytest.fixture(scope="module")
def run_dir(workdir):
    cfg = workdir / "run.json"
    cfg.write_text(json.dumps(CONFIGS[0]), encoding="utf-8")
    out = workdir / "run"
    assert run(["generate", "--config", str(cfg), "--out", str(out)])[0] == 0
    return out


MODEL = {"n": 2, "one_qubit": {"0": 0.001, "1": 0.002}, "cnot": {"0,1": 0.01, "1,0": 0.02},
         "readout": 0.02, "layer_depol": 0.001}


def test_fuzz_model_is_valid(run_dir, workdir):
    model = workdir / "valid_model.json"
    model.write_text(json.dumps(MODEL), encoding="utf-8")
    out = workdir / "valid_model.jsonl"
    assert run(["simulate", "--run", str(run_dir), "--model", str(model), "--out", str(out)])[0] == 0


@FUZZ
@given(data=st.data())
def test_model_file_fuzz(run_dir, workdir, data):
    # a rate field takes a number or a map, so neither kind is a fault there
    path, doc = draw_mutation(data, MODEL, lambda p: {"number", "dict"} if len(p) == 1 else ())
    model = workdir / "model.json"
    model.write_text(json.dumps(doc), encoding="utf-8")
    out = workdir / "model_dataset.jsonl"
    code, err = run(["simulate", "--run", str(run_dir), "--model", str(model), "--out", str(out)])
    assert_names_field(code, err, path)
    assert not out.exists()


DATASET = [
    {"provenance": {"protocol": "DRB"}},
    {"circuit_id": "a", "m": 0, "target": "01", "shots": 10, "successes": 9,
     "histogram": [["01", 9], ["11", 1]]},
    {"circuit_id": "b", "m": 4, "target": "01", "shots": 10, "successes": 7,
     "histogram": [["01", 7], ["00", 2], ["10", 1]]},
    {"circuit_id": "c", "m": 8, "target": "01", "shots": 10, "successes": 5},
]


def write_lines(path: Path, lines) -> None:
    path.write_text("".join(json.dumps(line) + "\n" for line in lines), encoding="utf-8")


def test_fuzz_dataset_is_valid(workdir):
    dataset = workdir / "valid_dataset.jsonl"
    write_lines(dataset, DATASET)
    results = workdir / "valid_dataset_results.json"
    assert run(["analyze", str(dataset), "--out", str(results), "--resamples", "100"])[0] == 0


@FUZZ
@given(data=st.data())
def test_dataset_row_fuzz(workdir, data):
    # a whole line is an object or not JSON at all, with no field to name
    path, doc = draw_mutation(data, DATASET, depth=2)
    dataset = workdir / "dataset.jsonl"
    write_lines(dataset, doc)
    results = workdir / "dataset_results.json"
    code, err = run(["analyze", str(dataset), "--out", str(results), "--resamples", "100"])
    assert_names_field(code, err, path[1:])
    assert not results.exists()


RESULTS = {
    "tool": "drbench",
    "runs": [
        {"n": 2, "protocol": "DRB", "A": 0.25, "B": 0.75, "p": 0.9, "r": 0.075,
         "r_sigma": 0.01, "points": {"0": 1.0, "4": 0.7}},
        {"n": 3, "A": 0.125, "B": 0.875, "p": 0.8, "r": 0.17, "r_sigma": 0.02,
         "points": {"2": 0.6}},
    ],
}


def test_fuzz_results_are_valid(workdir):
    results = workdir / "valid_results.json"
    results.write_text(json.dumps(RESULTS), encoding="utf-8")
    assert run(["report", str(results), "--out", str(workdir / "valid.svg")])[0] == 0


@FUZZ
@given(data=st.data())
def test_results_file_fuzz(workdir, data):
    path, doc = draw_mutation(data, {"runs": RESULTS["runs"]})
    results = workdir / "results.json"
    results.write_text(json.dumps(doc), encoding="utf-8")
    svg = workdir / "fuzz.svg"
    code, err = run(["report", str(results), "--out", str(svg)])
    assert_names_field(code, err, path)
    assert not svg.exists()


# malformed values of each circuit header that has a format, and malformed gates
NOT_INT = st.text(alphabet="0123456789,.x -", max_size=4).filter(
    lambda s: not s.strip().lstrip("-").isdigit())
NOT_TRIPLE = st.text(alphabet="0123456789,x", max_size=7).filter(
    lambda s: not (s.count(",") == 2 and all(p.isdigit() for p in s.split(","))))
HEADERS = {
    "n": NOT_INT,
    "m": NOT_INT,
    "target": st.text(alphabet="012x", max_size=4).filter(
        lambda s: not (len(s) == 2 and set(s) <= {"0", "1"})),
    "seed": NOT_TRIPLE,
    "segments": NOT_TRIPLE,
}
BAD_GATES = st.one_of(
    st.sampled_from(["FOO 0", "CNOT 0", "H 0,1", "CNOT 0,0", "CNOT 0,1,0", "X 2", "Y -1",
                     "C24 0", "cnot 0,1", "H", "H 0 1", "H a"]),
    st.builds("{} {}".format, st.text(alphabet="ABXYZ", min_size=2, max_size=4),
              st.sampled_from(["0", "1", "0,1"])),
)


@FUZZ
@given(data=st.data())
def test_circuit_text_fuzz(run_dir, workdir, data):
    circuit = sorted((run_dir / "circuits").glob("*.txt"))[-1]
    original = circuit.read_text(encoding="utf-8")
    lines = original.splitlines()
    gates = [i for i, line in enumerate(lines) if not line.startswith("#")]
    header = data.draw(st.sampled_from([None, *HEADERS]), label="header")
    if header is None:
        i = data.draw(st.sampled_from(gates), label="line")
        parts = lines[i].split("; ")
        parts[data.draw(st.integers(0, len(parts) - 1))] = data.draw(BAD_GATES, label="gate")
        lines[i] = "; ".join(parts)
        needle = "gate"
    else:
        i = next(i for i, line in enumerate(lines) if line.startswith(f"# {header}="))
        lines[i] = f"# {header}=" + data.draw(HEADERS[header], label="value")
        needle = f"'{header}'"
    out = workdir / "circuit_dataset.jsonl"
    try:
        circuit.write_text("\n".join(lines) + "\n", encoding="utf-8")
        code, err = run(["simulate", "--run", str(run_dir), "--model", "zero", "--out", str(out)])
    finally:
        circuit.write_text(original, encoding="utf-8")
    assert code == 2, (lines[i], err)
    assert str(circuit) in err and needle in err, (lines[i], err)
    assert not out.exists()
