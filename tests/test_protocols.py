"""Experiment generation: determinism and composition invariants."""

import numpy as np
import pytest

from drbench.clifford import StabilizerState
from drbench.device import all_to_all, ring
from drbench.protocols import (
    ExperimentDesign,
    generate_crb_circuit,
    generate_drb_circuit,
    generate_experiment,
)
from drbench.sampling import PCnotSampler, PairingSampler


def drb_design(n=3, **kw):
    base = dict(
        protocol="DRB",
        device=all_to_all(n, "HPI"),
        sampler=PCnotSampler(p_cnot=0.5, pool="HPI"),
        lengths=(0, 2, 4),
        circuits_per_length=3,
        shots=64,
        seed=7,
    )
    base.update(kw)
    return ExperimentDesign(**base)


def crb_design(n=2, **kw):
    base = dict(
        protocol="CRB",
        device=all_to_all(n, "HPI"),
        lengths=(0, 2, 4),
        circuits_per_length=3,
        shots=64,
        seed=7,
    )
    base.update(kw)
    return ExperimentDesign(**base)


class TestDesignValidation:
    def test_drb_needs_sampler(self):
        with pytest.raises(ValueError):
            ExperimentDesign(protocol="DRB", device=all_to_all(2))

    def test_crb_rejects_sampler(self):
        with pytest.raises(ValueError):
            crb_design(sampler=PCnotSampler(p_cnot=0.5, pool="HPI"))

    def test_lengths_must_increase(self):
        with pytest.raises(ValueError):
            drb_design(lengths=(0, 4, 4))
        with pytest.raises(ValueError):
            drb_design(lengths=(4, 0))
        with pytest.raises(ValueError):
            drb_design(lengths=(-1, 3))

    def test_unknown_protocol(self):
        with pytest.raises(ValueError):
            ExperimentDesign(protocol="XEB", device=all_to_all(2))


class TestDrbGeneration:
    def test_core_layer_count(self, rng):
        design = drb_design()
        for m in (0, 1, 5):
            circ = generate_drb_circuit(design, m, rng)
            assert circ.core.depth == m

    def test_composition_reaches_target(self, rng):
        design = drb_design(n=4)
        for m in (0, 3):
            circ = generate_drb_circuit(design, m, rng)
            final = StabilizerState.zero_state(4).apply_circuit(circ.full_circuit)
            assert np.array_equal(final.to_basis_bits(), circ.target_bits)

    def test_layers_cover_device(self, rng):
        design = drb_design()
        circ = generate_drb_circuit(design, 4, rng)
        for layer in circ.core.layers:
            covered = sorted(q for g in layer for q in g.qubits)
            assert covered == [0, 1, 2]

    def test_pairing_sampler_design(self, rng):
        design = drb_design(n=4, sampler=PairingSampler(p_cnot=0.5, pool="HPI"))
        circ = generate_drb_circuit(design, 3, rng)
        assert circ.core.depth == 3

    def test_ring_device(self, rng):
        design = drb_design(n=4, device=ring(4, "HPI"))
        circ = generate_drb_circuit(design, 2, rng)
        assert circ.core.depth == 2

    def test_wrong_protocol_rejected(self, rng):
        with pytest.raises(ValueError):
            generate_drb_circuit(crb_design(), 2, rng)


class TestCrbGeneration:
    def test_element_counts(self, rng):
        design = crb_design(n=2)
        for m in (0, 1, 4):
            circ = generate_crb_circuit(design, m, rng)
            assert len(circ.element_cnots) == m + 1
            assert len(circ.element_depths) == m + 1

    def test_composition_is_identity(self, rng):
        design = crb_design(n=3, device=all_to_all(3, "HPI"))
        for m in (0, 2, 5):
            circ = generate_crb_circuit(design, m, rng)
            assert circ.target == (0, 0, 0)
            final = StabilizerState.zero_state(3).apply_circuit(circ.full_circuit)
            assert np.array_equal(final.to_basis_bits(), np.zeros(3, dtype=np.uint8))

    def test_m0_is_trivial_element(self, rng):
        circ = generate_crb_circuit(crb_design(n=2), 0, rng)
        assert circ.length == 0
        assert circ.core.num_gates == 0

    def test_prep_and_meas_empty(self, rng):
        circ = generate_crb_circuit(crb_design(n=2), 3, rng)
        assert circ.prep.depth == 0 and circ.meas.depth == 0

    def test_wrong_protocol_rejected(self, rng):
        with pytest.raises(ValueError):
            generate_crb_circuit(drb_design(), 2, rng)


class TestExperiment:
    def test_circuit_count_and_ids(self):
        circuits, manifest = generate_experiment(drb_design())
        assert len(circuits) == 9
        ids = [c.circuit_id for c in circuits]
        assert len(set(ids)) == 9
        assert manifest["circuits"][0]["id"] == ids[0]
        assert [row["m"] for row in manifest["circuits"]] == [0, 0, 0, 2, 2, 2, 4, 4, 4]

    def test_manifest_reproducible(self):
        c1, m1 = generate_experiment(drb_design())
        c2, m2 = generate_experiment(drb_design())
        assert m1 == m2
        assert all(a.full_circuit == b.full_circuit for a, b in zip(c1, c2))

    def test_different_seeds_differ(self):
        _, m1 = generate_experiment(drb_design(seed=1))
        _, m2 = generate_experiment(drb_design(seed=2))
        assert m1 != m2

    def test_crb_experiment(self):
        circuits, manifest = generate_experiment(crb_design())
        assert len(circuits) == 9
        assert all(row["target"] == "00" for row in manifest["circuits"])

    def test_manifest_targets_match(self):
        circuits, manifest = generate_experiment(drb_design(seed=3))
        for c, row in zip(circuits, manifest["circuits"]):
            assert row["target"] == "".join(str(b) for b in c.target)
            assert tuple(row["seed"]) == c.seed
