"""Bit-for-bit checks of the array-backed Leiden sweeps against the former
per-node dict loops (tests/helpers.py), on signed, real, wide-range,
tie-heavy and aggregated graphs from singleton, mid-way, converged and
nearly-singleton start partitions."""

import importlib

import numpy as np
import pytest
from hypothesis import given
from hypothesis import strategies as st

from cdgcn.graphs import SpeakerGraph, cosine_affinity, knn_graph
from cdgcn.leiden import (
    LeidenConfig,
    Partition,
    _movers,
    aggregate_graph,
    leiden,
    local_move,
    refine_partition,
    singleton_partition,
)
from cdgcn.synthetic import make_session
from helpers import (
    graph_from_matrix,
    random_weight_matrix,
    reference_local_move,
    reference_movers,
    reference_refine_partition,
)

# The attribute cdgcn.leiden is the re-exported function, not the module.
leiden_module = importlib.import_module("cdgcn.leiden")
KINDS = ("dyadic", "real", "wide", "ties", "aggregated")
STARTS = ("singletons", "midway", "converged", "fine")


def same_partition(got: Partition, expected: Partition) -> bool:
    return (got.labels.tobytes() == expected.labels.tobytes()
            and got.internal_weight.tobytes() == expected.internal_weight.tobytes()
            and got.community_degree.tobytes() == expected.community_degree.tobytes())


def sweep_graph(rng, kind: str) -> SpeakerGraph:
    """A random graph with zero-weight edges allowed: signed multiples of
    1/8, signed reals, signed reals over twelve decades (sums depend on
    their order), unit weights on a circulant graph (every degree equal, so
    gains tie), or an aggregation of a signed graph, which has self-loops."""
    n = int(rng.integers(2, 36))
    heads, tails = np.nonzero(np.triu(rng.random((n, n)) < rng.uniform(0.2, 1.0), 1))
    weights = rng.integers(-8, 17, heads.size) / 8.0
    if kind == "real":
        weights = rng.normal(0.3, 1.0, heads.size)
    elif kind == "wide":
        weights = rng.normal(0.3, 1.0, heads.size) * 10.0 ** rng.uniform(-6, 6, heads.size)
    elif kind == "ties":
        offsets = rng.permutation(np.arange(1, n // 2 + 1))[:rng.integers(1, 4)]
        heads = np.repeat(np.arange(n), offsets.size)
        tails = (heads + np.tile(offsets, n)) % n
        weights = np.ones(heads.size)
    graph = SpeakerGraph(n, heads, tails, weights)
    if kind == "aggregated":
        graph = aggregate_graph(graph, Partition.from_labels(graph, rng.integers(0, n, n)))
    return graph


def start_partition(rng, graph: SpeakerGraph, start: str, gamma: float) -> Partition:
    """Singletons; a few random communities (the non-mover pre-pass runs);
    a local-move optimum (the pre-pass finds no mover); or nearly as many
    communities as nodes (the pre-pass is skipped for memory)."""
    n = graph.node_count
    if start == "singletons":
        return singleton_partition(graph)
    if start == "midway":
        return Partition.from_labels(graph, rng.integers(0, max(1, n // 4), n))
    if start == "converged":
        return reference_local_move(graph, singleton_partition(graph), gamma, int(rng.integers(99)))
    return Partition.from_labels(graph, np.minimum(np.arange(n), n - 2))


@given(seed=st.integers(0, 10**6), kind=st.sampled_from(KINDS), start=st.sampled_from(STARTS),
       gamma=st.sampled_from([0.3, 1.0, 2.5]))
def test_local_move_matches_reference(seed, kind, start, gamma):
    rng = np.random.default_rng(seed)
    graph = sweep_graph(rng, kind)
    partition = start_partition(rng, graph, start, gamma)
    assert same_partition(local_move(graph, partition, gamma, seed),
                          reference_local_move(graph, partition, gamma, seed))


@given(seed=st.integers(0, 10**6), kind=st.sampled_from(KINDS),
       start=st.sampled_from(STARTS), gamma=st.sampled_from([0.3, 1.0, 2.5]),
       theta=st.sampled_from([0.0, 0.05, 1.0]))
def test_refine_partition_matches_reference(seed, kind, start, gamma, theta):
    rng = np.random.default_rng(seed)
    graph = sweep_graph(rng, kind)
    partition = start_partition(rng, graph, start, gamma)
    assert same_partition(refine_partition(graph, partition, gamma, seed, theta),
                          reference_refine_partition(graph, partition, gamma, seed, theta))


@given(seed=st.integers(0, 10**6), kind=st.sampled_from(KINDS),
       start=st.sampled_from(STARTS), gamma=st.sampled_from([0.3, 1.0, 2.5]))
def test_movers_prepass_matches_reference_scan(seed, kind, start, gamma):
    rng = np.random.default_rng(seed)
    graph = sweep_graph(rng, kind)
    if graph.total_weight == 0.0:
        return
    partition = start_partition(rng, graph, start, gamma)
    assert (_movers(graph, partition, gamma) == reference_movers(graph, partition, gamma)).all()


def test_prepass_returns_early_from_a_converged_start(monkeypatch):
    rng = np.random.default_rng(5)
    graph = graph_from_matrix(random_weight_matrix(rng, planted=True, n=12))
    converged = reference_local_move(graph, singleton_partition(graph), 1.0, 3)
    midway = Partition.from_labels(graph, rng.integers(0, 3, graph.node_count))
    assert not _movers(graph, converged, 1.0).any() and _movers(graph, midway, 1.0).any()

    def no_queue(*args):
        raise AssertionError("the node queue was built")

    # The queue is built only after the pre-pass found a node that moves.
    monkeypatch.setattr(leiden_module, "deque", no_queue)
    assert same_partition(local_move(graph, converged, 1.0, 7), converged)
    with pytest.raises(AssertionError, match="queue"):
        local_move(graph, midway, 1.0, 7)


@pytest.mark.parametrize("theta", [0.0, 0.05])
def test_leiden_on_bench_like_graph_matches_reference_sweeps(monkeypatch, theta):
    sess = make_session(num_speakers=3, segments_per_speaker=40, dim=16, seed=7)
    aff = cosine_affinity(sess.embeddings)
    for graph in (knn_graph(aff, 30), knn_graph(aff, aff.shape[0] - 1)):
        config = LeidenConfig(gamma=0.6, seed=11, theta=theta)
        fast = leiden(graph, config)
        monkeypatch.setattr(leiden_module, "local_move", reference_local_move)
        monkeypatch.setattr(leiden_module, "refine_partition", reference_refine_partition)
        slow = leiden(graph, config)
        monkeypatch.undo()
        assert same_partition(fast, slow)


def test_frozen_corpus_matches_reference():
    """A fixed sweep over every graph kind and start, so that rare events
    (exact gain ties, order-dependent sums) are met on every run."""
    for seed in range(24):
        for kind in KINDS:
            for start in STARTS:
                rng = np.random.default_rng([seed, KINDS.index(kind), STARTS.index(start)])
                graph = sweep_graph(rng, kind)
                gamma = (0.3, 1.0, 2.5)[seed % 3]
                partition = start_partition(rng, graph, start, gamma)
                if graph.total_weight != 0.0:
                    assert (_movers(graph, partition, gamma)
                            == reference_movers(graph, partition, gamma)).all()
                assert same_partition(local_move(graph, partition, gamma, seed),
                                      reference_local_move(graph, partition, gamma, seed))
                theta = (0.0, 0.05)[seed % 2]
                assert same_partition(
                    refine_partition(graph, partition, gamma, seed, theta),
                    reference_refine_partition(graph, partition, gamma, seed, theta))


def test_sums_run_in_row_order():
    """Node 0's row sums 1 + 2**53 - 2**53 to 0.0 in row order and to 1.0 in
    reverse, which decides whether it joins the part holding 1, 2 and 3."""
    big = 2.0 ** 53
    graph = SpeakerGraph(5, [0, 0, 0, 1, 3, 1, 2, 1], [1, 2, 3, 4, 4, 2, 3, 3],
                         [1.0, big, -big, 1.0, 1.0, 10.0, 10.0, 10.0])
    for labels in ([0, 1, 1, 1, 2], [0, 0, 0, 0, 0]):
        partition = Partition.from_labels(graph, labels)
        for seed in range(16):
            gamma = (0.3, 1.0)[seed % 2]
            assert same_partition(local_move(graph, partition, gamma, seed),
                                  reference_local_move(graph, partition, gamma, seed))
            assert same_partition(refine_partition(graph, partition, gamma, seed),
                                  reference_refine_partition(graph, partition, gamma, seed))
