import functools
import importlib

import numpy as np
import pytest
from hypothesis import given
from hypothesis import strategies as st

from cdgcn.graphs import SpeakerGraph
from cdgcn.leiden import (
    GAIN_TOLERANCE,
    LeidenConfig,
    Partition,
    aggregate_graph,
    leiden,
    local_move,
    quality,
    refine_partition,
)
from helpers import (
    best_partition,
    clique_pair_graph,
    edge_dict,
    graph_from_edges,
    graph_from_matrix,
    matrix_from_graph,
    quality_of_blocks,
    random_weight_matrix,
    reference_hierarchy_pass,
    singletons,
)


# The attribute cdgcn.leiden is the re-exported function, not the module.
leiden_module = importlib.import_module("cdgcn.leiden")


def triangle():
    return graph_from_edges(3, [(0, 1, 1.0), (1, 2, 1.0), (0, 2, 1.0)])


def random_graph_and_partition(seed):
    rng = np.random.default_rng(seed)
    a = random_weight_matrix(rng, planted=bool(seed % 2))
    g = graph_from_matrix(a)
    labels = rng.integers(0, max(2, g.node_count // 2), g.node_count)
    return g, Partition.from_labels(g, labels)


class TestQuality:
    def test_triangle_single_community(self):
        # m = 3, m_c = 3, K_c = 6: Q = 3 - 36/12 = 0
        p = Partition.from_labels(triangle(), [0, 0, 0])
        assert quality(triangle(), p, 1.0) == pytest.approx(0.0)

    def test_edgeless_graph_is_zero(self):
        g = SpeakerGraph(4)
        assert quality(g, Partition.from_labels(g, [0, 1, 0, 1]), 2.5) == 0.0

    def test_triangle_singletons(self):
        # each singleton: m_c = 0, K_c = 2: Q = -3 * 4/12 = -1
        p = Partition.from_labels(triangle(), [0, 1, 2])
        assert quality(triangle(), p, 1.0) == pytest.approx(-1.0)

    def test_partition_must_cover_graph(self):
        with pytest.raises(ValueError, match="cover"):
            quality(triangle(), Partition.from_labels(SpeakerGraph(2), [0, 1]), 1.0)

    @given(seed=st.integers(0, 5000))
    def test_matches_block_oracle(self, seed):
        g, p = random_graph_and_partition(seed)
        blocks = [np.flatnonzero(p.labels == c) for c in range(p.community_count)]
        expected = quality_of_blocks(matrix_from_graph(g), blocks, 0.7)
        assert quality(g, p, 0.7) == pytest.approx(expected, abs=1e-9)


class TestSingletonPartition:
    def test_labels_are_identity(self):
        p = singletons(triangle())
        assert p.labels.tolist() == [0, 1, 2]
        assert p.community_count == 3

    def test_quality_closed_form(self, rng):
        a = random_weight_matrix(rng, planted=False, n=7)
        g = graph_from_matrix(a)
        k = g.weighted_degrees
        m = g.total_weight
        gamma = 0.8
        expected = -gamma * np.sum(k**2) / (4.0 * m)
        assert quality(g, singletons(g), gamma) == pytest.approx(expected)

    def test_empty_graph(self):
        p = singletons(SpeakerGraph(0))
        assert p.labels.size == 0 and p.community_count == 0


class TestLocalMove:
    def test_two_cliques_from_singletons(self):
        g = clique_pair_graph(4)
        qstar, blocks = best_partition(matrix_from_graph(g), 1.0)
        assert sorted(map(sorted, blocks)) == [[0, 1, 2, 3], [4, 5, 6, 7]]
        for seed in range(5):
            p = local_move(g, singletons(g), 1.0, seed=seed)
            assert quality(g, p, 1.0) == pytest.approx(qstar)
            assert len(set(p.labels[:4])) == 1 and len(set(p.labels[4:])) == 1
            assert p.labels[0] != p.labels[4]

    def test_fixpoint_is_stable(self):
        g = clique_pair_graph(4)
        p = local_move(g, singletons(g), 1.0, seed=0)
        again = local_move(g, p, 1.0, seed=3)
        assert again.labels.tolist() == p.labels.tolist()

    def test_single_node(self):
        g = SpeakerGraph(1)
        p = local_move(g, singletons(g), 1.0, seed=0)
        assert p.labels.tolist() == [0]

    @given(seed=st.integers(0, 3000))
    def test_never_decreases_quality(self, seed):
        g, p = random_graph_and_partition(seed)
        moved = local_move(g, p, 1.0, seed=seed)
        assert quality(g, moved, 1.0) >= quality(g, p, 1.0) - GAIN_TOLERANCE


class TestRefinePartition:
    def test_singletons_stay_singletons(self):
        g = clique_pair_graph(4)
        p = singletons(g)
        refined = refine_partition(g, p, 1.0, seed=0)
        assert refined.community_count == g.node_count

    def test_triangle_kept_together(self):
        g = triangle()
        p = Partition.from_labels(g, [0, 0, 0])
        refined = refine_partition(g, p, 1.0, seed=0)
        assert refined.community_count == 1

    def test_community_count_never_shrinks(self):
        g = clique_pair_graph(4)
        p = Partition.from_labels(g, [0] * 4 + [1] * 4)
        refined = refine_partition(g, p, 1.0, seed=0)
        assert refined.community_count >= 2

    @given(seed=st.integers(0, 3000))
    def test_refines_input_partition(self, seed):
        g, p = random_graph_and_partition(seed)
        refined = refine_partition(g, p, 1.0, seed=seed)
        # same refined community implies same original community
        for c in range(refined.community_count):
            members = np.flatnonzero(refined.labels == c)
            assert len(set(p.labels[members].tolist())) == 1


class TestAggregateGraph:
    def test_singleton_refinement_is_identity(self, rng):
        a = random_weight_matrix(rng, planted=True, n=7)
        g = graph_from_matrix(a)
        agg = aggregate_graph(g, singletons(g))
        assert agg.node_count == g.node_count
        assert edge_dict(agg) == edge_dict(g)
        assert agg.self_loops.tolist() == [0.0] * g.node_count

    def test_two_cliques_collapse(self):
        g = clique_pair_graph(4)
        refined = Partition.from_labels(g, [0] * 4 + [1] * 4)
        agg = aggregate_graph(g, refined)
        assert agg.node_count == 2
        assert edge_dict(agg) == {(0, 1): pytest.approx(1.0)}
        assert agg.self_loops.tolist() == [6.0, 6.0]

    @given(seed=st.integers(0, 3000))
    def test_degree_conservation(self, seed):
        g, p = random_graph_and_partition(seed)
        agg = aggregate_graph(g, p)
        assert agg.weighted_degrees.sum() == pytest.approx(
            g.weighted_degrees.sum(), abs=1e-9)

    @given(seed=st.integers(0, 3000))
    def test_quality_invariance(self, seed):
        g, refined = random_graph_and_partition(seed)
        agg = aggregate_graph(g, refined)
        induced = Partition.from_labels(agg, np.arange(agg.node_count))
        assert quality(agg, induced, 0.9) == pytest.approx(
            quality(g, refined, 0.9), abs=1e-9)


class TestLeiden:
    def test_two_five_cliques_exact_optimum(self):
        g = clique_pair_graph(5)
        qstar, _ = best_partition(matrix_from_graph(g), 1.0)
        p = leiden(g, LeidenConfig(gamma=1.0, seed=0))
        assert quality(g, p, 1.0) == pytest.approx(qstar, abs=1e-9)
        assert p.community_count == 2
        assert len(set(p.labels[:5])) == 1 and len(set(p.labels[5:])) == 1

    def test_complete_graph_low_gamma_single_community(self):
        g = graph_from_matrix(np.ones((4, 4)))
        p = leiden(g, LeidenConfig(gamma=1e-9, seed=0))
        assert p.community_count == 1

    def test_single_node(self):
        p = leiden(SpeakerGraph(1), LeidenConfig(seed=0))
        assert p.labels.tolist() == [0]

    def test_empty_graph_rejected(self):
        with pytest.raises(ValueError):
            leiden(SpeakerGraph(0), LeidenConfig(seed=0))

    def test_negative_total_weight_rejected(self):
        g = graph_from_edges(3, [(0, 1, -1.0), (1, 2, 0.5)])
        with pytest.raises(ValueError, match=r"^graph has negative total weight m = -0\.5$"):
            leiden(g, LeidenConfig(seed=0))

    def test_non_finite_total_weight_rejected(self):
        # Two finite weights whose sum overflows: m = inf.
        with np.errstate(over="ignore"):
            g = SpeakerGraph(3, [0, 1], [1, 2], [1.7e308, 1.7e308])
        message = "^graph has non-finite total weight m = inf$"
        with pytest.raises(ValueError, match=message):
            leiden(g, LeidenConfig(seed=0))
        for phase in (quality, local_move, refine_partition):
            with pytest.raises(ValueError, match=message):
                phase(g, singletons(g), 1.0)

    @pytest.mark.parametrize("phase", [quality, local_move, refine_partition])
    def test_negative_total_weight_rejected_by_every_phase(self, phase):
        g = graph_from_edges(3, [(0, 1, -1.0), (1, 2, 0.5)])
        with pytest.raises(ValueError, match=r"^graph has negative total weight m = -0\.5$"):
            phase(g, singletons(g), 1.0)

    def test_aggregate_whose_m_rounds_below_zero_ends_the_climb(self, monkeypatch):
        # m = 1 summed in stream order; an aggregate sums the same weights to -1.
        g = graph_from_edges(4, [(1, 3, 1e16), (0, 1, -1.0), (0, 2, -1e16), (1, 2, 1.0)])
        assert g.total_weight == 1.0
        aggregated_m = []

        def recording_aggregate(graph, refined):
            aggregate = aggregate_graph(graph, refined)
            aggregated_m.append(aggregate.total_weight)
            return aggregate

        reference_pass = functools.partial(reference_hierarchy_pass,
                                           aggregate=recording_aggregate)
        for seed in range(4):
            config = LeidenConfig(gamma=1.0, seed=seed)
            p = leiden(g, config)
            assert quality(g, p, 1.0) == 1.0
            with monkeypatch.context() as patched:
                patched.setattr(leiden_module, "_hierarchy_pass", reference_pass)
                expected = leiden(g, config)
            assert p.labels.tolist() == expected.labels.tolist()
            assert p.community_count == expected.community_count
        # The reference pass met the aggregate of m < 0 and stopped there.
        assert min(aggregated_m) < 0.0

    def test_aggregate_of_non_finite_m_is_one_line_error(self, monkeypatch):
        # m = 8e307 summed in stream order; the aggregate of the three pairs
        # holds self-loops of 8e307 each, whose sum overflows to inf.
        w = 8e307
        g = graph_from_edges(6, [(0, 1, w), (1, 2, -w), (2, 3, w), (3, 4, -w), (4, 5, w)])
        assert g.total_weight == w
        config = LeidenConfig(gamma=1.0, seed=0)
        with pytest.raises(ValueError, match="^an aggregate graph has non-finite total weight m$"):
            leiden(g, config)
        monkeypatch.setattr(leiden_module, "_hierarchy_pass", reference_hierarchy_pass)
        with pytest.raises(ValueError, match="^graph has non-finite total weight m = inf$"):
            leiden(g, config)

    def test_negative_degrees_allowed(self):
        # m = 2.5 > 0 while node 3 has weighted degree -0.5.
        g = graph_from_edges(4, [(0, 1, 1.0), (1, 2, 1.0), (0, 2, 1.0), (2, 3, -0.5)])
        assert g.weighted_degrees[3] < 0.0 < g.total_weight
        p = leiden(g, LeidenConfig(gamma=1.0, seed=0))
        qstar, _ = best_partition(matrix_from_graph(g), 1.0)
        assert quality(g, p, 1.0) == pytest.approx(qstar, abs=1e-9)

    def test_edgeless_graph_returns_singletons(self):
        p = leiden(SpeakerGraph(5), LeidenConfig(seed=0))
        assert p.labels.tolist() == [0, 1, 2, 3, 4]

    def test_labels_contiguous(self, rng):
        a = random_weight_matrix(rng, planted=True, n=8)
        g = graph_from_matrix(a)
        p = leiden(g, LeidenConfig(gamma=1.0, seed=1))
        assert sorted(set(p.labels.tolist())) == list(range(p.community_count))

    @given(seed=st.integers(0, 500))
    def test_deterministic(self, seed):
        rng = np.random.default_rng(seed)
        g = graph_from_matrix(random_weight_matrix(rng, planted=False, n=7))
        if g.node_count == 0:
            return
        cfg = LeidenConfig(gamma=1.0, seed=seed)
        first = leiden(g, cfg)
        second = leiden(g, cfg)
        assert first.labels.tolist() == second.labels.tolist()

    def test_gamma_validation(self):
        with pytest.raises(ValueError):
            LeidenConfig(gamma=0.0)

    @pytest.mark.parametrize("gamma", [float("nan"), float("inf"), -1.0])
    def test_gamma_must_be_finite_and_positive(self, gamma):
        with pytest.raises(ValueError, match=f"^gamma must be finite and positive, got {gamma}$"):
            LeidenConfig(gamma=gamma)
