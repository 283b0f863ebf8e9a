"""Format round trips and validation messages for every file kind."""

import dataclasses
import json
import re
from pathlib import Path

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from drbench.clifford import GateLabel
from drbench.compiling import CompileOptions
from drbench.device import all_to_all
from drbench.io import (
    FormatError,
    canonical_json,
    circuit_from_text,
    circuit_to_text,
    color_for_n,
    dataset_from_jsonl,
    dataset_to_jsonl,
    design_from_config,
    design_to_config,
    field,
    model_coverage_gaps,
    model_from_json,
    model_from_spec,
    plot_csv,
    render_decay_svg,
)
from drbench.protocols import ExperimentDesign, generate_experiment
from drbench.sampling import PCnotSampler, sample_layer
from drbench.simulate import DataRow, Dataset
from drbench.streams import stream


def design(protocol="DRB", **kw):
    base = dict(
        protocol=protocol,
        device=all_to_all(2, "HPI"),
        sampler=None if protocol == "CRB" else PCnotSampler(p_cnot=0.5, pool="HPI"),
        lengths=(0, 2, 4),
        circuits_per_length=2,
        shots=64,
        seed=9,
    )
    base.update(kw)
    return ExperimentDesign(**base)


class TestField:
    def test_kinds_do_not_coerce(self):
        obj = {"flag": True, "count": 3, "rate": 0.5, "name": "x", "none": None}
        assert field(obj, "count", "count", int) == 3
        assert field(obj, "count", "count", float) == 3
        assert field(obj, "flag", "flag", bool) is True
        for key, kind in [("flag", int), ("flag", float), ("rate", int), ("name", float),
                          ("none", str), ("count", str), ("count", bool)]:
            with pytest.raises(FormatError, match=f"field 'x.{key}' must be"):
                field(obj, key, f"x.{key}", kind)

    def test_absent_default_and_null(self):
        assert field({}, "k", "k", int, 7) == 7
        with pytest.raises(FormatError, match="field 'k' is missing"):
            field({}, "k", "k", int)
        with pytest.raises(FormatError, match="field 'k' must be an integer, got None"):
            field({"k": None}, "k", "k", int, 7)

    def test_nested_kinds_and_bounds(self):
        assert field({"l": [[0, 1]]}, "l", "l", [[int]]) == [[0, 1]]
        assert field({"v": {}}, "v", "v", (float, dict)) == {}
        with pytest.raises(FormatError, match="must be a list of lists of integers"):
            field({"l": [[0, 1.5]]}, "l", "l", [[int]])
        assert field({"p": 1}, "p", "p", float, low=0, high=1) == 1
        for bad in (-0.1, 1.5, float("nan")):
            with pytest.raises(FormatError, match=r"field 'p' must be in \[0, 1\]"):
                field({"p": bad}, "p", "p", float, low=0, high=1)
        with pytest.raises(FormatError, match="field 'n' must be >= 1, got 0"):
            field({"n": 0}, "n", "n", int, low=1)
        for bad in (float("nan"), float("inf"), float("-inf")):
            with pytest.raises(FormatError, match="field 'a' must be a finite number"):
                field({"a": bad}, "a", "a", float)
            with pytest.raises(FormatError, match="field 'v' must be a finite number"):
                field({"v": bad}, "v", "v", (float, dict))
        with pytest.raises(FormatError, match="field 'q' must be a finite number, got inf"):
            field({"q": float("inf")}, "q", "q", float, low=0)
        assert field([5, 6], 1, "l[1]", int) == 6


class TestCircuitText:
    @pytest.mark.parametrize("protocol", ["DRB", "CRB"])
    def test_round_trip(self, protocol):
        circuits, _ = generate_experiment(design(protocol))
        for circ in circuits:
            text = circuit_to_text(circ)
            assert circuit_from_text(text) == circ

    def test_drb_core_is_written_from_its_sampled_layers(self, monkeypatch):
        # each sampled layer is formatted once, for ``sampled_layers``; the
        # file's core lines reuse that text
        circ = next(c for c in generate_experiment(design())[0] if c.length)
        body = ["; ".join(map(str, layer)) for layer in circ.full_circuit.layers]
        formatted = []
        original = GateLabel.__str__
        monkeypatch.setattr(GateLabel, "__str__", lambda g: formatted.append(g) or original(g))
        lines = circuit_to_text(circ).splitlines()
        assert len(formatted) == circ.prep.num_gates + circ.meas.num_gates
        assert lines[-len(body):] == body

    def test_header_layout(self):
        circuits, _ = generate_experiment(design())
        text = circuit_to_text(circuits[0])
        for key in ("# id=", "# protocol=", "# n=", "# m=", "# target=",
                    "# seed=", "# segments="):
            assert key in text

    def test_missing_header_rejected(self):
        circuits, _ = generate_experiment(design())
        lines = circuit_to_text(circuits[0]).splitlines()
        broken = "\n".join(l for l in lines if not l.startswith("# target="))
        with pytest.raises(FormatError, match="target"):
            circuit_from_text(broken)

    def test_segment_mismatch_rejected(self):
        circuits, _ = generate_experiment(design())
        text = circuit_to_text(circuits[0]).replace("# segments=", "# segments=9")
        with pytest.raises(FormatError, match="segments"):
            circuit_from_text(text)

    def test_malformed_gate_rejected(self):
        with pytest.raises(FormatError, match="gate"):
            circuit_from_text(
                "# id=x\n# protocol=DRB\n# n=1\n# m=0\n# target=0\n"
                "# seed=0,0,0\n# segments=1,0,0\nH0\n"
            )


class TestDatasetJsonl:
    def test_round_trip(self):
        rows = (
            DataRow("a", 0, "01", 100, 99, histogram=(("01", 99), ("11", 1))),
            DataRow("b", 4, "01", 100, 80),
        )
        data = Dataset(rows, {"model": "zero", "seed": 4})
        back = dataset_from_jsonl(dataset_to_jsonl(data))
        assert back == data

    def test_bare_external_rows(self):
        text = (
            '{"m": 0, "shots": 100, "successes": 97}\n'
            '{"m": 5, "shots": 100, "successes": 60}\n'
        )
        data = dataset_from_jsonl(text)
        assert data.provenance == {}
        assert data.rows[0].circuit_id == "ext_00000"
        assert data.rows[1].m == 5
        assert data.rows[0].target == ""

    def test_missing_field_named(self):
        with pytest.raises(FormatError, match="successes"):
            dataset_from_jsonl('{"m": 0, "shots": 100}\n')

    def test_bad_json_line(self):
        with pytest.raises(FormatError, match="line 1"):
            dataset_from_jsonl("not json\n")

    def test_impossible_counts_rejected(self):
        with pytest.raises(FormatError, match="row 0"):
            dataset_from_jsonl('{"m": 0, "shots": 10, "successes": 11}\n')


class TestConfig:
    def test_round_trip(self):
        for protocol in ("DRB", "CRB"):
            d = design(protocol)
            assert design_from_config(design_to_config(d)) == d

    def test_presets(self):
        cfg = {
            "protocol": "DRB",
            "device": {"n": 5, "preset": "ring_with_center", "gate_set": "HPI"},
            # a pairing can draw the unlinked ring qubits 0 and 2, so this
            # device takes the pcnot sampler
            "sampler": {"kind": "pcnot", "p_cnot": 0.5},
            "lengths": [0, 2],
            "circuits_per_length": 1,
            "shots": 10,
        }
        d = design_from_config(cfg)
        assert d.device.n == 5
        assert d.sampler.pool == "HPI"
        cfg["device"] = {"n": 3, "preset": "ring"}
        cfg["sampler"] = {"kind": "pcnot", "p_cnot": 0.25}
        assert design_from_config(cfg).device.edges == ((0, 1), (1, 2), (2, 0))

    def test_missing_fields_named(self):
        base = {
            "device": {"n": 2, "edges": [[0, 1]], "gate_set": "HPI"},
            "sampler": {"kind": "pcnot", "p_cnot": 0.5},
        }
        cases = [
            ({}, "device"),
            ({"device": {"edges": [[0, 1]]}}, "device.n"),
            ({"device": {"n": 2}}, "device.edges"),
            ({"device": {"n": 2, "preset": "torus"}}, "device.preset"),
            # a traceback (self-loop edge) and a late exit 3 (no path between qubits)
            ({"device": {"n": 2, "preset": "ring_with_center"}}, "device.n"),
            ({**base, "device": {"n": 3, "edges": []}}, "device.edges"),
            ({**base, "device": {"n": 4, "edges": [[0, 1], [2, 3]]}}, "device.edges"),
            ({**base, "sampler": {}}, "sampler.kind"),
            ({**base, "sampler": {"kind": "pcnot"}}, "sampler.p_cnot"),
            ({**base, "sampler": {"kind": "magic"}}, "sampler.kind"),
            ({**base, "protocol": "XRB"}, "protocol"),
            ({**base, "compile": {"bogus": 1}}, "compile.bogus"),
        ]
        for overrides, needle in cases:
            with pytest.raises(FormatError, match=needle):
                design_from_config(overrides)

    def test_category_config(self):
        cfg = {
            "device": {"n": 2, "edges": [[0, 1], [1, 0]], "gate_set": "HPI"},
            "sampler": {
                "kind": "category",
                "probabilities": [0.5, 0.5],
                "edge_groups": [[[0, 1], [1, 0]]],
            },
        }
        d = design_from_config(cfg)
        assert d.sampler.kind == "category"
        assert d.sampler.edge_groups == (((0, 1), (1, 0)),)
        assert design_from_config(design_to_config(d)) == d


README = Path(__file__).resolve().parent.parent / "README.md"


def readme_config_fields() -> list[str]:
    """The keys in the first column of README's generate config table."""
    section = README.read_text(encoding="utf-8").split("### generate", 1)[1].split("\n### ", 1)[0]
    return re.findall(r"^\| `([a-z_.]+)` \|", section, flags=re.M)


class TestReadmeConfigTable:
    """README's config table and the config reader list the same keys, so
    a key cannot leave one without the other."""

    def test_every_documented_key_is_accepted(self):
        spelled_out = design_to_config(design())
        keys = readme_config_fields()
        assert keys
        for key in keys:
            head, _, tail = key.partition(".")
            config = {"device": {"n": 2, "edges": [[0, 1]], "gate_set": "HPI"},
                      "sampler": {"kind": "pcnot", "p_cnot": 0.5}}
            if tail:
                config.setdefault(head, {})[tail] = spelled_out[head][tail]
            else:
                config[head] = spelled_out[head]
            design_from_config(config)

    def test_every_design_field_is_documented(self):
        expected = {f.name for f in dataclasses.fields(ExperimentDesign)} - {"compile_options"}
        expected |= {f"compile.{f.name}" for f in dataclasses.fields(CompileOptions)}
        assert expected - set(readme_config_fields()) == set()


# JSON values of every type, nested, with NaN and infinities among the
# floats, and values shaped like valid sampler fields
JSON_VALUES = st.recursive(
    st.none() | st.booleans() | st.integers(-3, 5) | st.floats() | st.text(max_size=3)
    | st.sampled_from(["pcnot", "pairing", "category", "HPI", "C24"]),
    lambda inner: st.lists(inner, max_size=3) | st.dictionaries(st.text(max_size=2), inner, max_size=2),
    max_leaves=8,
)
SAMPLER_VALUES = st.one_of(
    JSON_VALUES,
    st.floats(0, 1),
    st.sampled_from([[1.0], [0.5, 0.5], [0.25, 0.75], [0.5, 0.25, 0.25]]),
    st.lists(
        st.lists(st.sampled_from([[0, 1], [1, 0], [1, 2], [2, 0], [2, 3], [3, 0]]), min_size=1, max_size=3),
        max_size=2,
    ),
)
SAMPLER_DEVICES = [
    {"n": 4, "preset": "ring", "gate_set": "HPI"},
    {"n": 3, "preset": "all_to_all", "gate_set": "C24"},
]
# a valid section per kind on both devices; the fuzz overrides its fields,
# the kind among them, and adds unknown ones
VALID_SAMPLERS = {
    "pcnot": {"p_cnot": 0.5},
    "pairing": {"p_cnot": 0.0},
    "category": {"probabilities": [0.5, 0.5], "edge_groups": [[[0, 1]]]},
}


@settings(max_examples=400, deadline=None)
@given(
    device=st.sampled_from(SAMPLER_DEVICES),
    kind=st.sampled_from(sorted(VALID_SAMPLERS)),
    overrides=st.dictionaries(
        st.sampled_from(["kind", "pool", "p_cnot", "probabilities", "edge_groups", "p_cnto", ""]),
        SAMPLER_VALUES,
        max_size=2,
    ),
)
def test_sampler_config_fuzz(device, kind, overrides):
    """Any sampler section builds a design that draws layers, or fails with
    a FormatError naming a sampler field; nothing else escapes."""
    sampler = {"kind": kind, **VALID_SAMPLERS.get(kind, {}), **overrides}
    try:
        d = design_from_config({"device": device, "sampler": sampler})
    except FormatError as exc:
        assert "'sampler." in str(exc), str(exc)
        return
    assert d.sampler.kind == sampler["kind"]
    assert design_from_config(design_to_config(d)) == d
    for i in range(5):
        sample_layer(d.sampler, d.device, stream(i))


class TestModelFiles:
    def test_scalar_broadcast(self):
        model = model_from_json({"n": 2, "one_qubit": 0.001, "cnot": 0.01, "readout": 0.02})
        assert ("CNOT", (1, 0)) in model.gate_errors
        assert model.meas_flip == (0.02, 0.02)

    def test_explicit_maps(self):
        model = model_from_json(
            {"n": 2, "one_qubit": {"0": 0.001, "1": 0.002}, "cnot": {"0,1": 0.04}}
        )
        assert model.rates_for(GateLabel("CNOT", (0, 1))) != ()
        assert ("CNOT", (1, 0)) not in model.gate_errors

    def test_layer_depol_passthrough(self):
        model = model_from_json({"n": 1, "layer_depol": 0.25})
        assert model.layer_depol == 0.25

    def test_validation(self):
        with pytest.raises(FormatError, match="'n'"):
            model_from_json({"one_qubit": 0.1})
        with pytest.raises(FormatError, match="n=3"):
            model_from_json({"n": 3}, n=2)
        with pytest.raises(FormatError, match="cnot"):
            model_from_json({"n": 2, "cnot": {"0-1": 0.1}})
        with pytest.raises(FormatError, match="one_qubit"):
            model_from_json({"n": 2, "one_qubit": "lots"})

    def test_bundled_specs(self):
        assert model_from_spec("main_sim", 3).n == 3
        assert model_from_spec("crosstalk5", 5).meas_flip == (0.02,) * 5
        assert model_from_spec("zero", 2).layer_depol == 0.0
        assert model_from_spec("depolarizing:0.9", 2).layer_depol == pytest.approx(0.1)
        with pytest.raises(FormatError, match="crosstalk5"):
            model_from_spec("crosstalk5", 4)
        with pytest.raises(FormatError, match="unknown model"):
            model_from_spec("nope", 2)
        with pytest.raises(FormatError, match="depolarizing"):
            model_from_spec("depolarizing:2.0", 2)

    def test_coverage_gaps(self):
        circuits, _ = generate_experiment(design())
        full = model_from_spec("zero", 2)
        assert model_coverage_gaps(full, circuits) == []
        sparse = model_from_json({"n": 2, "one_qubit": 0.0, "cnot": {"0,1": 0.0}})
        gaps = model_coverage_gaps(sparse, circuits)
        assert "CNOT 1,0" in gaps


class TestPlotAndReport:
    def test_plot_csv_shape(self):
        averages = {0: (1.0, (1.0, 1.0)), 4: (0.8, (0.7, 0.9))}
        text = plot_csv(averages, 0.25, 0.75, 0.9)
        lines = text.strip().splitlines()
        assert lines[0] == "m,P_m,q05,q25,q50,q75,q95,fitted"
        assert len(lines) == 3
        row = lines[2].split(",")
        assert row[0] == "4"
        assert float(row[7]) == pytest.approx(0.25 + 0.75 * 0.9**4)
        assert float(row[2]) <= float(row[4]) <= float(row[6])

    def test_svg_deterministic(self):
        runs = [
            {"label": "n=2: r=1e-3", "n": 2, "points": {0: 1.0, 4: 0.9, 8: 0.8},
             "fit": (0.25, 0.75, 0.97)},
            {"label": "n=3: r=2e-3", "n": 3, "points": {0: 1.0, 4: 0.85},
             "fit": (0.125, 0.875, 0.95)},
        ]
        one = render_decay_svg(runs)
        two = render_decay_svg(runs)
        assert one == two
        assert one.startswith("<svg")
        assert one.count("<polyline") == 2
        assert color_for_n(2) in one and color_for_n(3) in one
        assert color_for_n(2) != color_for_n(3)

    def test_svg_empty_rejected(self):
        with pytest.raises(ValueError):
            render_decay_svg([])


class TestCanonicalJson:
    def test_sorted_and_stable(self):
        a = canonical_json({"b": 1, "a": [1, 2]})
        b = canonical_json({"a": [1, 2], "b": 1})
        assert a == b
        assert a.endswith("\n")
        assert json.loads(a) == {"a": [1, 2], "b": 1}
