"""Bit-for-bit checks of the compiled Leiden sweeps against the per-node
dict loops of tests/helpers.py, on signed, real, wide-range, tie-heavy,
aggregated and degenerate graphs from singleton, mid-way, converged and
nearly-singleton start partitions; of the compiled aggregation and
community sums against the numpy oracles there, on the same graphs and on
graphs of negative total weight or signed zero weights; of the compiled
climb against the pass that climbs one level at a time through the
per-phase entry points; and the checks that keep malformed partitions away
from the compiled code."""

import ctypes
import functools

import numpy as np
import pytest
from hypothesis import given
from hypothesis import strategies as st

import cdgcn.leiden as leiden_module
from cdgcn.graphs import EmbeddingSet, SpeakerGraph, cosine_affinity, knn_graph
from cdgcn.leiden import (
    LeidenConfig,
    Partition,
    _community_sums,
    aggregate_graph,
    climb,
    leiden,
    local_move,
    quality,
    refine_partition,
)
from cdgcn.synthetic import make_session
from helpers import (
    graph_from_edges,
    reference_aggregate_graph,
    reference_community_sums,
    reference_hierarchy_pass,
    reference_local_move,
    reference_refine_partition,
    singletons,
)

KINDS = ("dyadic", "real", "wide", "ties", "aggregated")
STARTS = ("singletons", "midway", "converged", "fine")


def same_partition(got: Partition, expected: Partition) -> bool:
    return (got.labels.tobytes() == expected.labels.tobytes()
            and got.community_count == expected.community_count)


def same_graph(got: SpeakerGraph, expected: SpeakerGraph) -> bool:
    """Equal node and edge counts, m to the bit, and every array of the
    same dtype and bytes."""
    arrays = lambda g: (g.indptr, g.indices, g.weights, g.weighted_degrees, g.self_loops,
                        *g.edges)
    return (got.node_count == expected.node_count and got.edge_count == expected.edge_count
            and np.float64(got.total_weight).tobytes()
            == np.float64(expected.total_weight).tobytes()
            and all(a.dtype == b.dtype and a.tobytes() == b.tobytes()
                    for a, b in zip(arrays(got), arrays(expected), strict=True)))


def assert_aggregates_like_reference(graph: SpeakerGraph, partition: Partition) -> None:
    """The kernel's aggregate equals the numpy oracle's and the same arrays
    passed through the public constructor."""
    aggregate = aggregate_graph(graph, partition)
    assert same_graph(aggregate, reference_aggregate_graph(graph, partition))
    rebuilt = SpeakerGraph(aggregate.node_count, *aggregate.edges,
                           self_loops=aggregate.self_loops)
    assert same_graph(aggregate, rebuilt)


def sweep_graph(rng, kind: str) -> SpeakerGraph:
    """A random graph with zero-weight edges allowed: signed multiples of
    1/8, signed reals, signed reals over twelve decades (sums depend on
    their order), unit weights on a circulant graph (every degree equal, so
    gains tie), or an aggregation of a signed graph, which has self-loops.
    The sweeps refuse a negative total weight m, so a graph whose m comes
    out negative has its weights negated: the same magnitudes in the same
    order, summing to exactly -m."""
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
    if graph.total_weight < 0.0:
        graph = SpeakerGraph(n, heads, tails, -weights)
    if kind == "aggregated":
        graph = aggregate_graph(graph, Partition.from_labels(graph, rng.integers(0, n, n)))
    return graph


def start_partition(rng, graph: SpeakerGraph, start: str, gamma: float) -> Partition:
    """Singletons; a few random communities; a local-move optimum (no node
    moves); or nearly as many communities as nodes."""
    n = graph.node_count
    if start == "singletons":
        return singletons(graph)
    if start == "midway":
        return Partition.from_labels(graph, rng.integers(0, max(1, n // 4), n))
    if start == "converged":
        return reference_local_move(graph, singletons(graph), gamma, int(rng.integers(99)))
    return Partition.from_labels(graph, np.minimum(np.arange(n), n - 2))


@given(seed=st.integers(0, 2**32 - 1), kind=st.sampled_from(KINDS), start=st.sampled_from(STARTS),
       gamma=st.sampled_from([0.3, 1.0, 2.5]))
def test_local_move_matches_reference(seed, kind, start, gamma):
    rng = np.random.default_rng(seed)
    graph = sweep_graph(rng, kind)
    partition = start_partition(rng, graph, start, gamma)
    assert same_partition(local_move(graph, partition, gamma, seed),
                          reference_local_move(graph, partition, gamma, seed))


@given(seed=st.integers(0, 2**32 - 1), kind=st.sampled_from(KINDS), start=st.sampled_from(STARTS),
       gamma=st.sampled_from([0.3, 1.0, 2.5]))
def test_refine_partition_matches_reference(seed, kind, start, gamma):
    rng = np.random.default_rng(seed)
    graph = sweep_graph(rng, kind)
    partition = start_partition(rng, graph, start, gamma)
    assert same_partition(refine_partition(graph, partition, gamma, seed),
                          reference_refine_partition(graph, partition, gamma, seed))


def negated(graph: SpeakerGraph) -> SpeakerGraph:
    """Every weight and self-loop negated: m < 0 wherever it was > 0."""
    heads, tails, weights = graph.edges
    return SpeakerGraph(graph.node_count, heads, tails, -weights, self_loops=-graph.self_loops)


AGGREGATIONS = ("singletons", "one community", "few", "two", "one pair merged", "refined")


def aggregation_partition(rng, graph: SpeakerGraph, how: str) -> Partition:
    """Singletons (every edge crosses); one community (no edge crosses); a
    few random communities; two communities, which have C(C-1)/2 = 1 pair
    for the crossing edges of most graphs; singletons but for one merged
    pair, whose C(C-1)/2 pairs outnumber the crossing edges of all but the
    densest graphs; or a level's refinement, as the climb makes."""
    n = graph.node_count
    if how == "singletons":
        return singletons(graph)
    if how == "one community":
        return Partition.from_labels(graph, np.zeros(n, dtype=int))
    if how == "two":
        return Partition.from_labels(graph, rng.permutation(np.arange(n) % 2))
    if how == "one pair merged":
        return Partition.from_labels(graph, np.minimum(np.arange(n), n - 2))
    if how == "few" or graph.total_weight < 0.0:   # the sweeps refuse m < 0
        return Partition.from_labels(graph, rng.integers(0, max(1, n // 4), n))
    moved = local_move(graph, singletons(graph), 1.0, int(rng.integers(99)))
    return refine_partition(graph, moved, 1.0, int(rng.integers(99)))


@given(seed=st.integers(0, 10**6), kind=st.sampled_from(KINDS),
       how=st.sampled_from(AGGREGATIONS), negate=st.booleans())
def test_aggregate_graph_matches_reference(seed, kind, how, negate):
    rng = np.random.default_rng(seed)
    graph = sweep_graph(rng, kind)
    if negate:
        graph = negated(graph)
    assert_aggregates_like_reference(graph, aggregation_partition(rng, graph, how))


def test_aggregations_meet_both_sides_of_the_pair_bound():
    """The kernel's table holds min(edges, C(C-1)/2) pairs. Over a fixed
    corpus, two communities give fewer possible pairs than crossing edges,
    one merged pair gives more, and every aggregate matches the oracle."""
    sides = set()
    for seed in range(24):
        for kind in KINDS:
            rng = np.random.default_rng([seed, KINDS.index(kind)])
            graph = sweep_graph(rng, kind)
            heads, tails, _ = graph.edges
            for how in ("two", "one pair merged"):
                partition = aggregation_partition(rng, graph, how)
                c, labels = partition.community_count, partition.labels
                crossing = np.count_nonzero(labels[heads] != labels[tails])
                sides.add((how, np.sign(c * (c - 1) // 2 - crossing)))
                assert_aggregates_like_reference(graph, partition)
    assert {("two", -1), ("one pair merged", 1)} <= sides


def with_signed_zeros(rng, graph: SpeakerGraph) -> SpeakerGraph:
    """The graph with about a third of its weights and self-loops set to
    +0.0 or -0.0 at random."""
    heads, tails, weights = graph.edges
    n, zeros = graph.node_count, np.array([0.0, -0.0])
    weights = np.where(rng.random(weights.size) < 0.3, rng.choice(zeros, weights.size), weights)
    loops = np.where(rng.random(n) < 0.3, rng.choice(zeros, n), graph.self_loops)
    return SpeakerGraph(n, heads, tails, weights, self_loops=loops)


@given(seed=st.integers(0, 10**6), kind=st.sampled_from(KINDS), start=st.sampled_from(STARTS),
       zeros=st.booleans(), negate=st.booleans())
def test_community_sums_match_reference(seed, kind, start, zeros, negate):
    rng = np.random.default_rng(seed)
    graph = sweep_graph(rng, kind)
    partition = start_partition(rng, graph, start, 1.0)
    if zeros:
        graph = with_signed_zeros(rng, graph)
    if negate:
        graph = negated(graph)
    c = partition.community_count
    got = _community_sums(graph, partition.labels, c)
    expected = reference_community_sums(graph, partition.labels, c)
    assert all(a.tobytes() == b.tobytes() for a, b in zip(got, expected, strict=True))


@given(seed=st.integers(0, 10**6), kind=st.sampled_from(KINDS), start=st.sampled_from(STARTS),
       gamma=st.sampled_from([0.3, 1.0, 2.5]))
def test_lifted_labels_are_already_compact(seed, kind, start, gamma):
    """The climb takes each level's lifted labels (the moved community of
    each refined part) as they are: they equal their own compaction."""
    rng = np.random.default_rng(seed)
    graph = sweep_graph(rng, kind)
    moved = local_move(graph, start_partition(rng, graph, start, gamma), gamma, seed)
    refined = refine_partition(graph, moved, gamma, seed + 1)
    lifted = np.empty(refined.community_count, np.int64)
    lifted[refined.labels] = moved.labels
    assert same_partition(Partition(lifted, moved.community_count),
                          Partition.from_labels(SpeakerGraph(lifted.size), lifted))


@given(seed=st.integers(0, 10**6), kind=st.sampled_from(KINDS), start=st.sampled_from(STARTS),
       gamma=st.sampled_from([0.3, 1.0, 2.5]))
def test_hierarchy_pass_labels_are_already_compact(seed, kind, start, gamma):
    """leiden hands each pass's flat partition to quality and to the next
    pass as it is: its labels equal their own compaction by first
    appearance, and its count is the largest label plus one."""
    rng = np.random.default_rng(seed)
    graph = sweep_graph(rng, kind)
    partition = start_partition(rng, graph, start, gamma)
    flat = leiden_module._hierarchy_pass(graph, partition, gamma, np.random.default_rng(seed))
    assert same_partition(flat, Partition.from_labels(graph, flat.labels))
    assert flat.community_count == flat.labels.max() + 1


def climb_graph(rng, kind: str, zeros: bool) -> SpeakerGraph:
    """A sweep graph, with signed zeros among its weights if asked; negated
    if the zeros left its m negative."""
    graph = sweep_graph(rng, kind)
    if zeros:
        graph = with_signed_zeros(rng, graph)
    return negated(graph) if graph.total_weight < 0.0 else graph


def test_hierarchy_pass_corpus_meets_negative_degrees():
    """A fixed sweep over every graph kind and start, with and without
    signed zeros: it meets graphs with negative node degrees and passes
    that aggregate two and more times, and on every pass the climb's flat
    labels are compact and equal the level-by-level pass's, which leaves
    the generator in the same state."""
    aggregations, negative = [], 0

    def counted_aggregate(graph, refined):
        aggregations[-1] += 1
        return aggregate_graph(graph, refined)

    oracle = functools.partial(reference_hierarchy_pass, aggregate=counted_aggregate)
    for seed in range(8):
        for kind in KINDS:
            for start in STARTS:
                for zeros in (False, True):
                    rng = np.random.default_rng([seed, KINDS.index(kind), STARTS.index(start),
                                                 zeros])
                    graph = climb_graph(rng, kind, zeros)
                    negative += bool((graph.weighted_degrees < 0.0).any())
                    gamma = (0.3, 1.0, 2.5)[seed % 3]
                    partition = start_partition(rng, graph, start, gamma)
                    got_rng, expected_rng = np.random.default_rng(seed), np.random.default_rng(seed)
                    flat = leiden_module._hierarchy_pass(graph, partition, gamma, got_rng)
                    assert same_partition(flat, Partition.from_labels(graph, flat.labels))
                    aggregations.append(0)
                    assert same_partition(flat, oracle(graph, partition, gamma, expected_rng))
                    assert got_rng.bit_generator.state == expected_rng.bit_generator.state
    assert negative > 0
    assert max(aggregations) >= 2


@given(seed=st.integers(0, 2**32 - 1), kind=st.sampled_from(KINDS), start=st.sampled_from(STARTS),
       gamma=st.sampled_from([0.3, 1.0, 2.5]), zeros=st.booleans())
def test_hierarchy_pass_matches_reference(seed, kind, start, gamma, zeros):
    """leiden's pass (level 0's local move, then the compiled climb) gives
    the labels and count of the pass that climbs one level at a time, and
    leaves the generator in the same state: the climb draws each seed from
    it as rng.integers(2**32) does."""
    rng = np.random.default_rng(seed)
    graph = climb_graph(rng, kind, zeros)
    partition = start_partition(rng, graph, start, gamma)
    got_rng, expected_rng = np.random.default_rng([seed, 1]), np.random.default_rng([seed, 1])
    got = leiden_module._hierarchy_pass(graph, partition, gamma, got_rng)
    assert same_partition(got, reference_hierarchy_pass(graph, partition, gamma, expected_rng))
    assert got_rng.bit_generator.state == expected_rng.bit_generator.state


def leiden_with_reference_sweeps(monkeypatch, graph, config) -> Partition:
    """leiden with each pass climbed one level at a time by the per-node
    sweeps and the numpy aggregation of tests/helpers.py."""
    monkeypatch.setattr(leiden_module, "_hierarchy_pass", functools.partial(
        reference_hierarchy_pass, move=reference_local_move, refine=reference_refine_partition,
        aggregate=reference_aggregate_graph))
    try:
        return leiden(graph, config)
    finally:
        monkeypatch.undo()


def test_leiden_on_bench_like_graph_matches_reference_sweeps(monkeypatch):
    sess = make_session(num_speakers=3, segments_per_speaker=40, dim=16, seed=7)
    aff = cosine_affinity(sess.embeddings)
    for graph in (knn_graph(aff, 30), knn_graph(aff, aff.shape[0] - 1)):
        config = LeidenConfig(gamma=0.6, seed=11)
        assert same_partition(leiden(graph, config),
                              leiden_with_reference_sweeps(monkeypatch, graph, config))


def embedding_graph(vectors, k: int) -> SpeakerGraph:
    vectors = np.asarray(vectors, dtype=float)
    segments = np.column_stack([np.arange(len(vectors), dtype=float), np.ones(len(vectors))])
    return knn_graph(cosine_affinity(EmbeddingSet(vectors, segments)), k)


def degenerate_graph(name: str) -> SpeakerGraph:
    rng = np.random.default_rng(17)
    # Embeddings around a shared direction, so cosine graphs have m > 0.
    around = lambda rows: 1.0 + 0.5 * rng.normal(size=(rows, 4))
    if name == "one node":
        return SpeakerGraph(1)
    if name == "two nodes":
        return embedding_graph(around(2), 1)
    if name == "edgeless":
        return SpeakerGraph(5)
    if name == "k at least N":
        return embedding_graph(around(7), 9)
    if name == "identical embeddings":
        return embedding_graph(np.ones((10, 4)), 4)
    if name == "duplicate embeddings":
        return embedding_graph(np.repeat(around(4), 3, axis=0), 5)
    # Two triangles and two isolated nodes; each triangle becomes one node,
    # so all weight lands on the self-loops.
    triangles = SpeakerGraph(8, [0, 1, 0, 3, 4, 3], [1, 2, 2, 4, 5, 5], [1.0, 0.5, 0.25] * 2)
    return aggregate_graph(triangles, Partition.from_labels(triangles, [0, 0, 0, 1, 1, 1, 2, 3]))


DEGENERATE = ("one node", "two nodes", "edgeless", "k at least N", "identical embeddings",
              "duplicate embeddings", "self-loops only")


@pytest.mark.parametrize("name", DEGENERATE)
def test_degenerate_graphs_match_reference_sweeps(monkeypatch, name):
    """The starts give refinement parent communities of one member each, of
    all nodes, and of both kinds at once; each start is aggregated too."""
    graph = degenerate_graph(name)
    n = graph.node_count
    starts = [singletons(graph), Partition.from_labels(graph, np.zeros(n, dtype=int)),
              Partition.from_labels(graph, np.minimum(np.arange(n), 2))]
    for seed, partition in enumerate(starts):
        for gamma in (0.3, 1.0):
            assert same_partition(local_move(graph, partition, gamma, seed),
                                  reference_local_move(graph, partition, gamma, seed))
            assert same_partition(refine_partition(graph, partition, gamma, seed),
                                  reference_refine_partition(graph, partition, gamma, seed))
        assert_aggregates_like_reference(graph, partition)
    config = LeidenConfig(gamma=0.6, seed=3)
    assert same_partition(leiden(graph, config),
                          leiden_with_reference_sweeps(monkeypatch, graph, config))


@given(seed=st.integers(0, 2**32 - 1), n=st.integers(0, 3000))
def test_permutation_kernel_draws_as_numpy(seed, n):
    """The kernels' generator and shuffle give np.random.default_rng(seed)
    .permutation(n), which the sweeps' visit orders are drawn by."""
    from cdgcn._kernel import load

    order = np.empty(n, np.int64)
    load().permutation(n, seed, order)
    assert order.tolist() == np.random.default_rng(seed).permutation(n).tolist()


@pytest.mark.parametrize("phase", [local_move, refine_partition])
@pytest.mark.parametrize("seed", [-1, 2**32, 1.5])
def test_seed_outside_one_word_is_one_line_error(phase, seed):
    """The kernels' generator reads a seed as one 32-bit word."""
    graph = SpeakerGraph(4, [0, 1, 2, 0], [1, 2, 3, 3], [1.0, 0.5, 1.0, 0.25])
    with pytest.raises(ValueError) as caught:
        phase(graph, singletons(graph), 1.0, seed)
    assert str(caught.value) == f"seed must be an integer in 0..2**32-1, got {seed!r}"


def malformed_partition(name: str) -> Partition:
    """A partition of a four-node graph that breaks one rule the sweeps
    index by."""
    labels = {"label past the last community": [0, 1, 2, 3], "negative label": [-1, 0, 1, 2],
              "float labels": [0.0, 1.0, 1.0, 2.0], "too few labels": [0, 1, 2],
              "empty community": [0, 0, 2, 2]}.get(name, [0, 1, 1, 2])
    return Partition(np.array(labels), 3)


MALFORMED = {"label past the last community": "partition labels must lie in 0..2",
             "negative label": "partition labels must lie in 0..2",
             "float labels": "partition needs 4 integer labels, got float64 labels of shape (4,)",
             "too few labels": "partition needs 4 integer labels, got int64 labels of shape (3,)",
             "empty community": "partition has an empty community"}


def phase_args(phase) -> tuple:
    """What a phase takes after the graph and the partition."""
    if phase is aggregate_graph:
        return ()
    return (1.0, np.random.default_rng(0)) if phase is climb else (1.0,)


@pytest.mark.parametrize("phase", [local_move, refine_partition, aggregate_graph, climb])
@pytest.mark.parametrize("name", ["label past the last community", "negative label",
                                  "float labels", "too few labels", "empty community"])
def test_malformed_partition_is_one_line_error(phase, name):
    """Shape and dtype are checked in Python, the label range and empty
    communities by the kernels, each with the same one line."""
    graph = SpeakerGraph(4, [0, 1, 2, 0], [1, 2, 3, 3], [1.0, 0.5, 1.0, 0.25])
    with pytest.raises(ValueError) as caught:
        phase(graph, malformed_partition(name), *phase_args(phase))
    assert str(caught.value) == MALFORMED[name]


@pytest.mark.parametrize("name", ["label past the last community", "negative label",
                                  "empty community"])
@pytest.mark.parametrize("weights", [[1.0, 0.5, 1.0, 0.25], [0.0] * 4], ids=["m > 0", "m = 0"])
def test_kernels_check_labels_at_any_total_weight(weights, name):
    """Every Leiden kernel refuses labels it cannot take, also on a graph of
    total weight 0, where the sweeps move nothing and quality is 0."""
    graph = SpeakerGraph(4, [0, 1, 2, 0], [1, 2, 3, 3], weights)
    for phase in (local_move, refine_partition, aggregate_graph, climb, quality):
        with pytest.raises(ValueError) as caught:
            phase(graph, malformed_partition(name), *phase_args(phase))
        assert str(caught.value) == MALFORMED[name]
    more_communities_than_nodes = Partition(np.arange(4), 5)
    with pytest.raises(ValueError, match="^partition has an empty community$"):
        local_move(graph, more_communities_than_nodes, 1.0)


def test_kernel_arguments_reject_wrong_dtype_and_strides():
    """A graph goes in as its one _kernel.Graph handle, so an array there is
    refused; arrays made per call keep ndpointer's checks."""
    from cdgcn._kernel import load

    graph = SpeakerGraph(4, [0, 1, 2, 0], [1, 2, 3, 3], [1.0, 0.5, 1.0, 0.25])
    # The first bad argument stops the call before any later one is read.
    for indptr in (graph.indptr.astype(float), np.repeat(graph.indptr, 2)[::2]):
        with pytest.raises(ctypes.ArgumentError, match="argument 1"):
            load().local_move(indptr, *[None] * 5)
    for labels in (np.zeros(4), np.zeros(4, np.int32), np.zeros(8, np.int64)[::2]):
        with pytest.raises(ctypes.ArgumentError, match="argument 5"):
            load().local_move(graph.handle, 1.0, 0.0, 4, labels, 0)


def test_kernels_return_minus_one_when_scratch_cannot_be_had():
    """Scratch for 2**62 nodes (or edges) overflows; each kernel gives up
    before it reads an argument array."""
    from cdgcn._kernel import Graph, load

    ids, reals, huge = np.zeros(1, np.int64), np.zeros(1), 2**62
    nodes, edges = Graph.__new__(Graph), Graph.__new__(Graph)   # every array NULL
    nodes.n, edges.n, edges.edges = huge, 1, huge
    assert load().local_move(nodes, 1.0, 0.0, 1, ids, 0) == -1
    assert load().refine_partition(nodes, ids, 1.0, 0.0, 1, 0, ids) == -1
    assert load().aggregate_graph(edges, 1, ids, reals, ids, ids, reals) == -1
    assert load().build_graph(huge, 0, ids, ids, reals, ids, ids, reals) == -1
    bits = np.random.default_rng(0).bit_generator
    assert load().climb(nodes, 1.0, 0.0, 1, ids, bits.ctypes.next_uint32,
                        bits.ctypes.state_address) == -1


@pytest.mark.parametrize("phase", [local_move, refine_partition, aggregate_graph, climb])
def test_failed_allocation_is_one_line_memory_error(monkeypatch, phase):
    from cdgcn import _kernel

    class OutOfMemory:
        def __getattr__(self, kernel):
            return lambda *args: -1

    graph = SpeakerGraph(4, [0, 1, 2, 0], [1, 2, 3, 3], [1.0, 0.5, 1.0, 0.25])
    monkeypatch.setattr(_kernel, "load", OutOfMemory)
    with pytest.raises(MemoryError, match=f"^{phase.__name__}: cannot allocate") as caught:
        phase(graph, singletons(graph), *phase_args(phase))
    assert "\n" not in str(caught.value)


def test_frozen_corpus_matches_reference():
    """A fixed sweep over every graph kind and start, so that rare events
    (exact gain ties, order-dependent sums) are met on every run. Each
    start, its local move and its refinement are aggregated too, on the
    graph and on its negation (m < 0)."""
    for seed in range(24):
        for kind in KINDS:
            for start in STARTS:
                rng = np.random.default_rng([seed, KINDS.index(kind), STARTS.index(start)])
                graph = sweep_graph(rng, kind)
                gamma = (0.3, 1.0, 2.5)[seed % 3]
                partition = start_partition(rng, graph, start, gamma)
                moved = local_move(graph, partition, gamma, seed)
                refined = refine_partition(graph, partition, gamma, seed)
                assert same_partition(moved,
                                      reference_local_move(graph, partition, gamma, seed))
                assert same_partition(refined,
                                      reference_refine_partition(graph, partition, gamma, seed))
                for level in (partition, moved, refined):
                    assert_aggregates_like_reference(graph, level)
                    assert_aggregates_like_reference(negated(graph), level)


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


def test_merged_part_weight_rounds_as_in_python():
    """At seed 0 node 4 joins node 3. Their part's weight to the rest of the
    parent is then 4.2 + (2.1 - 2 * 2.1) = 2.1, just under the well-connectedness
    bound (2.1000000000000005 at this gamma), so node 0 stays alone. Summed
    as (4.2 + 2.1) - 2 * 2.1 it would be 2.1000000000000005, and node 0
    would join that part."""
    graph = graph_from_edges(5, [(1, 2, 5.9), (2, 3, 0.8), (0, 3, 1.3), (0, 2, 0.7),
                                        (3, 4, 2.1)])
    partition = Partition.from_labels(graph, [0] * 5)
    gamma = 0.4705882352941177
    expected = reference_refine_partition(graph, partition, gamma, seed=0)
    assert expected.labels.tolist() == [0, 1, 1, 2, 2]
    assert same_partition(refine_partition(graph, partition, gamma, seed=0), expected)
