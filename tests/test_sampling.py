"""Device graphs, uniform group sampling, and layer distributions."""

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import oracles
from drbench.clifford import CliffordOp, GateLabel, StabilizerState, standard_gate
from drbench.device import DeviceSpec, all_to_all, pool_gate_names, ring, ring_center_edges, ring_with_center
from drbench.sampling import (
    CategorySampler,
    PairingSampler,
    PCnotSampler,
    clifford_count,
    cnot_placement_distribution,
    layer_probability,
    sample_clifford_uniform,
    sample_layer,
    sample_stabilizer_state_uniform,
    sample_symplectic_uniform,
    stabilizer_state_count,
    symplectic_from_index,
    symplectic_group_order,
)
from drbench.streams import stream


class TestDeviceSpec:
    def test_validation(self):
        with pytest.raises(ValueError):
            DeviceSpec(2, ((0, 0),))
        with pytest.raises(ValueError):
            DeviceSpec(2, ((0, 2),))
        with pytest.raises(ValueError):
            DeviceSpec(2, ((0, 1), (0, 1)))
        with pytest.raises(ValueError):
            DeviceSpec(2, (), gate_set="XYZ")

    def test_gate_membership(self):
        hpi = all_to_all(2, "HPI")
        assert hpi.allows_one_qubit_gate("H") and not hpi.allows_one_qubit_gate("C3")
        c24 = all_to_all(2, "C24")
        assert c24.allows_one_qubit_gate("C17") and c24.allows_one_qubit_gate("X")

    def test_graph_helpers(self):
        dev = ring(4)
        assert dev.has_edge(0, 1) and not dev.has_edge(1, 0)
        assert dev.has_link(1, 0)
        assert dev.neighbors(0) == (1, 3)
        assert dev.shortest_path(0, 2) in ([0, 1, 2], [0, 3, 2])
        assert dev.is_connected()
        assert not DeviceSpec(3, ((0, 1),)).is_connected()

    def test_ring_with_center(self):
        dev = ring_with_center(4)
        assert dev.n == 5
        ring_edges, center_edges = ring_center_edges(4)
        assert set(ring_edges) | set(center_edges) == set(dev.edges)
        assert all(e[0] == 4 for e in center_edges)
        # hub has minimum eccentricity, so it comes last
        assert dev.eccentricity_order()[-1] == 4

    def test_pool_names(self):
        assert pool_gate_names("HPI") == ("I", "H", "P")
        assert len(pool_gate_names("C24")) == 24
        with pytest.raises(ValueError):
            pool_gate_names("NOPE")


class TestSymplecticConstruction:
    def test_group_orders(self):
        assert symplectic_group_order(1) == 6
        assert symplectic_group_order(2) == 720
        for n in (1, 2, 3):
            assert symplectic_group_order(n) == oracles.symplectic_group_size(n)

    def test_counts(self):
        assert clifford_count(1) == 24
        assert stabilizer_state_count(1) == 6
        assert stabilizer_state_count(2) == 60

    @pytest.mark.parametrize("n", [1, 2])
    def test_index_enumeration_is_bijective(self, n):
        seen = set()
        lam = np.zeros((2 * n, 2 * n), dtype=np.int64)
        lam[: n, n:] = np.eye(n)
        lam[n:, :n] = np.eye(n)
        for i in range(symplectic_group_order(n)):
            s = symplectic_from_index(i, n)
            assert np.array_equal((s.T.astype(np.int64) @ lam @ s) % 2, lam)
            assert np.array_equal(s, oracles.symplectic_from_index_reference(i, n))
            seen.add(s.tobytes())
        assert len(seen) == symplectic_group_order(n)

    # the int-row construction against the per-bit numpy one it replaced:
    # the same matrix, so every index, and so every draw, is unchanged
    @settings(max_examples=200, deadline=None)
    @given(st.data())
    def test_index_matches_per_bit_reference(self, data):
        n = data.draw(st.integers(1, 8))
        index = data.draw(st.integers(0, symplectic_group_order(n) - 1))
        s = symplectic_from_index(index, n)
        assert s.dtype == np.uint8
        assert np.array_equal(s, oracles.symplectic_from_index_reference(index, n))

    def test_n2_enumeration_matches_group_closure(self):
        gens = [
            standard_gate("H", (0,), 2),
            standard_gate("H", (1,), 2),
            standard_gate("P", (0,), 2),
            standard_gate("P", (1,), 2),
            standard_gate("CNOT", (0, 1), 2),
        ]
        closure = oracles.enumerate_symplectics_by_bfs(2, gens)
        assert len(closure) == 720
        mine = {symplectic_from_index(i, 2).tobytes() for i in range(720)}
        assert mine == closure

    def test_out_of_range_index(self):
        with pytest.raises(ValueError):
            symplectic_from_index(6, 1)


class TestUniformSampling:
    def test_symplectic_frequencies(self, rng):
        counts = {}
        for _ in range(6000):
            key = sample_symplectic_uniform(1, rng).tobytes()
            counts[key] = counts.get(key, 0) + 1
        assert len(counts) == 6
        assert all(abs(c - 1000) < 200 for c in counts.values())

    def test_clifford_validity_and_coverage(self, rng):
        seen = set()
        for _ in range(2000):
            op = sample_clifford_uniform(1, rng)
            assert op.is_valid()
            seen.add(op)
        assert len(seen) == 24

    def test_clifford_larger_n_valid(self, rng):
        for n in (2, 3, 5):
            op = sample_clifford_uniform(n, rng)
            assert op.is_valid()

    def test_stabilizer_state_counts(self, rng):
        seen1 = {sample_stabilizer_state_uniform(1, rng) for _ in range(300)}
        assert len(seen1) == 6
        seen2 = {sample_stabilizer_state_uniform(2, rng) for _ in range(3000)}
        assert len(seen2) == 60

    @pytest.mark.parametrize("n", [1, 2, 3, 5, 8])
    def test_state_is_zero_state_through_sampled_clifford(self, n):
        a, b = stream(11, "twin", n), stream(11, "twin", n)
        for _ in range(40):
            state = sample_stabilizer_state_uniform(n, a)
            pushed = StabilizerState.zero_state(n).apply(sample_clifford_uniform(n, b))
            assert np.array_equal(state.b, pushed.b) and np.array_equal(state.r, pushed.r)
            assert state.b.dtype == pushed.b.dtype and state.r.dtype == pushed.r.dtype
        assert a.bit_generator.state == b.bit_generator.state

    def test_stream_determinism(self):
        a = sample_clifford_uniform(4, stream(7, "clifford", 3))
        b = sample_clifford_uniform(4, stream(7, "clifford", 3))
        c = sample_clifford_uniform(4, stream(7, "clifford", 4))
        assert a == b
        assert a != c


def enumerate_layers(n, pool, device):
    """Every full-width layer with disjoint declared CNOTs and pool 1Q gates."""
    names = pool_gate_names(pool)

    def rec(remaining):
        if not remaining:
            yield ()
            return
        q, rest = remaining[0], remaining[1:]
        for name in names:
            for sub in rec(rest):
                yield (GateLabel(name, (q,)),) + sub
        for other in rest:
            for c, t in ((q, other), (other, q)):
                if device.has_edge(c, t):
                    rest2 = tuple(x for x in rest if x != other)
                    for sub in rec(rest2):
                        yield (GateLabel("CNOT", (c, t)),) + sub

    for gates in rec(tuple(range(n))):
        yield tuple(sorted(gates, key=lambda g: min(g.qubits)))


class TestLayerSamplers:
    def test_layers_cover_all_qubits(self, rng):
        device = all_to_all(5, "C24")
        for spec in (
            PCnotSampler(p_cnot=0.5, pool="C24"),
            PairingSampler(p_cnot=0.5, pool="C24"),
            CategorySampler(
                probabilities=(0.5, 0.5),
                edge_groups=(((0, 1), (1, 2)),),
                pool="C24",
            ),
        ):
            for _ in range(50):
                layer = sample_layer(spec, device, rng)
                qubits = sorted(q for g in layer for q in g.qubits)
                assert qubits == list(range(5))

    def test_same_seed_same_layers(self):
        device = ring_with_center(4)
        spec = PCnotSampler(p_cnot=0.4, pool="HPI")
        a = [sample_layer(spec, device, stream(11, "layer", i)) for i in range(5)]
        b = [sample_layer(spec, device, stream(11, "layer", i)) for i in range(5)]
        assert a == b

    def test_pcnot_rate(self, rng):
        device = all_to_all(4, "HPI")
        spec = PCnotSampler(p_cnot=0.3, pool="HPI")
        hits = sum(
            any(g.name == "CNOT" for g in sample_layer(spec, device, rng)) for _ in range(4000)
        )
        assert abs(hits / 4000 - 0.3) < 0.03

    def test_pairing_saturated(self, rng):
        device = all_to_all(4, "HPI")
        layer = sample_layer(PairingSampler(p_cnot=1.0, pool="HPI"), device, rng)
        assert sum(1 for g in layer if g.name == "CNOT") == 2
        device5 = all_to_all(5, "HPI")
        layer5 = sample_layer(PairingSampler(p_cnot=1.0, pool="HPI"), device5, rng)
        assert sum(1 for g in layer5 if g.name == "CNOT") == 2
        assert sum(1 for g in layer5 if g.name != "CNOT") == 1

    def test_pairing_missing_edge_raises(self):
        device = DeviceSpec(4, ((0, 1),), gate_set="HPI")
        spec = PairingSampler(p_cnot=1.0, pool="HPI")
        with pytest.raises(ValueError):
            for i in range(50):
                sample_layer(spec, device, stream(3, i))

    def test_pool_validation(self):
        device = all_to_all(2, "HPI")
        with pytest.raises(ValueError):
            sample_layer(PCnotSampler(p_cnot=0.1, pool="C24"), device, stream(0))
        # HPI pool is fine on a C24 device (aliases)
        sample_layer(PCnotSampler(p_cnot=0.1, pool="HPI"), all_to_all(2, "C24"), stream(0))

    def test_category_validation(self):
        with pytest.raises(ValueError):
            CategorySampler(probabilities=(0.5, 0.5), edge_groups=())
        with pytest.raises(ValueError):
            CategorySampler(probabilities=(0.7, 0.5), edge_groups=(((0, 1),),))

    @pytest.mark.parametrize(
        "make,field",
        [
            (lambda: CategorySampler(probabilities=(float("nan"), 0.5), edge_groups=(((0, 1),),)),
             "probabilities"),
            (lambda: CategorySampler(probabilities=(0.5, 0.5), edge_groups=(((0, 1), (0, 1)),)),
             "edge_groups"),
            (lambda: CategorySampler(probabilities=(0.5, 0.5), edge_groups=((("0", 1),),)),
             "edge_groups"),
            (lambda: PCnotSampler(p_cnot=True), "p_cnot"),
            (lambda: PairingSampler(p_cnot=float("inf")), "p_cnot"),
            (lambda: PCnotSampler(pool="XYZ"), "pool"),
        ],
    )
    def test_malformed_values_name_the_field(self, make, field):
        with pytest.raises(ValueError, match=f"^{field} "):
            make()

    def test_kind_is_not_a_field(self):
        assert [PCnotSampler.kind, CategorySampler.kind, PairingSampler.kind] == [
            "pcnot", "category", "pairing"]
        with pytest.raises(TypeError):
            PCnotSampler(p_cnot=0.5, kind="pairing")


RING_EDGES, CENTER_EDGES = ring_center_edges(4)

# every kind on all_to_all(2..4), ring(3) and ring_with_center(4), HPI pool;
# a pairing with p_cnot > 0 can draw the unlinked ring-with-center qubits
# 0 and 2, so there it runs at p_cnot = 0 only
LAW_CASES = [
    (PCnotSampler(p_cnot=0.35, pool="HPI"), all_to_all(2, "HPI")),
    (PCnotSampler(p_cnot=0.0, pool="HPI"), all_to_all(2, "HPI")),
    (PCnotSampler(p_cnot=0.6, pool="HPI"), ring(3, "HPI")),
    (PairingSampler(p_cnot=0.5, pool="HPI"), all_to_all(2, "HPI")),
    (PairingSampler(p_cnot=0.5, pool="HPI"), all_to_all(3, "HPI")),
    (PairingSampler(p_cnot=0.7, pool="HPI"), all_to_all(4, "HPI")),
    (
        CategorySampler(
            probabilities=(0.5, 0.3, 0.2),
            edge_groups=(((0, 1), (1, 2)), ((2, 0),)),
            pool="HPI",
        ),
        all_to_all(3, "HPI"),
    ),
    (PCnotSampler(p_cnot=0.4, pool="HPI"), all_to_all(3, "HPI")),
    (PCnotSampler(p_cnot=0.5, pool="HPI"), all_to_all(4, "HPI")),
    (PCnotSampler(p_cnot=0.3, pool="HPI"), ring_with_center(4, "HPI")),
    (PairingSampler(p_cnot=0.5, pool="HPI"), ring(3, "HPI")),
    (PairingSampler(p_cnot=0.0, pool="HPI"), ring_with_center(4, "HPI")),
    (
        CategorySampler(probabilities=(0.4, 0.6), edge_groups=(((0, 1), (1, 0)),), pool="HPI"),
        all_to_all(2, "HPI"),
    ),
    (
        # edge (0, 1) sits in both groups, so its probability is a sum
        CategorySampler(
            probabilities=(0.2, 0.5, 0.3),
            edge_groups=(((0, 1), (2, 3)), ((1, 2), (0, 1))),
            pool="HPI",
        ),
        all_to_all(4, "HPI"),
    ),
    (
        CategorySampler(probabilities=(0.5, 0.5), edge_groups=(((0, 1), (1, 2), (2, 0)),), pool="HPI"),
        ring(3, "HPI"),
    ),
    (
        CategorySampler(
            probabilities=(0.5, 0.25, 0.25),
            edge_groups=(RING_EDGES, CENTER_EDGES),
            pool="HPI",
        ),
        ring_with_center(4, "HPI"),
    ),
]


def placement_of(layer):
    return tuple(sorted(g.qubits for g in layer if g.name == "CNOT"))


class TestLayerProbability:
    @pytest.mark.parametrize("spec,device", LAW_CASES)
    def test_normalization_by_enumeration(self, spec, device):
        total = sum(
            layer_probability(spec, device, layer)
            for layer in enumerate_layers(device.n, "HPI", device)
        )
        assert total == pytest.approx(1.0, abs=1e-12)

    @pytest.mark.parametrize("spec,device", LAW_CASES)
    def test_marginal_over_fillings_is_placement_distribution(self, spec, device):
        marginal = {}
        for layer in enumerate_layers(device.n, "HPI", device):
            key = placement_of(layer)
            marginal[key] = marginal.get(key, 0.0) + layer_probability(spec, device, layer)
        dist = dict(cnot_placement_distribution(spec, device))
        assert set(dist) <= set(marginal)
        for placement, p in marginal.items():
            assert dist.get(placement, 0.0) == pytest.approx(p, abs=1e-12), placement

    @pytest.mark.parametrize("spec,device", LAW_CASES)
    def test_sample_frequencies_match_law(self, spec, device):
        # Poisson-style bounds: a count misses its mean by more than
        # 5 sqrt(mean) + 4 with probability below 1e-6 at any mean, so the
        # few thousand comparisons over all cases fail by chance well under
        # 1% of the time
        draws = 4000
        rng = stream(17, "law")
        counts, placements = {}, {}
        for _ in range(draws):
            layer = sample_layer(spec, device, rng)
            counts[layer] = counts.get(layer, 0) + 1
            key = placement_of(layer)
            placements[key] = placements.get(key, 0) + 1
        for layer in enumerate_layers(device.n, "HPI", device):
            mean = draws * layer_probability(spec, device, layer)
            assert abs(counts.pop(layer, 0) - mean) <= 5 * np.sqrt(mean) + 4, layer
        assert not counts  # every drawn layer is one of the enumerated
        for placement, p in cnot_placement_distribution(spec, device):
            mean = draws * p
            assert abs(placements.pop(placement, 0) - mean) <= 5 * np.sqrt(mean) + 4, placement
        assert not placements

    def test_matches_empirical_frequency(self, rng):
        device = all_to_all(3, "HPI")
        spec = PairingSampler(p_cnot=0.5, pool="HPI")
        draws = 20000
        counts = {}
        for _ in range(draws):
            layer = sample_layer(spec, device, rng)
            counts[layer] = counts.get(layer, 0) + 1
        for layer, c in sorted(counts.items(), key=lambda kv: -kv[1])[:10]:
            expected = layer_probability(spec, device, layer)
            assert abs(c / draws - expected) < 5 * np.sqrt(expected / draws) + 1e-3

    def test_unreachable_layers(self):
        device = ring(3, "HPI")
        spec = PCnotSampler(p_cnot=0.5, pool="HPI")
        bad_edge = (GateLabel("CNOT", (1, 0)), GateLabel("I", (2,)))
        assert layer_probability(spec, device, bad_edge) == 0.0
        partial = (GateLabel("H", (0,)),)
        assert layer_probability(spec, device, partial) == 0.0
        alien = (GateLabel("C3", (0,)), GateLabel("I", (1,)), GateLabel("I", (2,)))
        assert layer_probability(spec, device, alien) == 0.0

    def test_placement_distribution_sums_to_one(self):
        device = all_to_all(5, "HPI")
        for spec in (
            PCnotSampler(p_cnot=0.4, pool="HPI"),
            PairingSampler(p_cnot=0.6, pool="HPI"),
            CategorySampler(
                probabilities=(0.25, 0.5, 0.25),
                edge_groups=(((0, 1),), ((1, 2), (2, 3))),
                pool="HPI",
            ),
        ):
            dist = cnot_placement_distribution(spec, device)
            assert sum(p for _, p in dist) == pytest.approx(1.0, abs=1e-12)

    def test_placement_distribution_checks_device(self):
        undeclared = CategorySampler(probabilities=(0.5, 0.5), edge_groups=(((0, 2),),), pool="HPI")
        with pytest.raises(ValueError, match="edge_groups"):
            cnot_placement_distribution(undeclared, ring(3, "HPI"))
        with pytest.raises(ValueError, match="p_cnot"):
            cnot_placement_distribution(PairingSampler(p_cnot=0.5, pool="HPI"), ring(4, "HPI"))
        with pytest.raises(ValueError, match="pool"):
            cnot_placement_distribution(PCnotSampler(p_cnot=0.5, pool="C24"), ring(3, "HPI"))

    def test_placement_pairing_saturated(self):
        device = all_to_all(4, "HPI")
        dist = cnot_placement_distribution(PairingSampler(p_cnot=1.0, pool="HPI"), device)
        assert all(len(placement) == 2 for placement, p in dist if p > 0)
