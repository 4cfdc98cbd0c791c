"""Property tests of the CSR graph core against direct dense-matrix formulas,
and of the compiled graph builder against the numpy sorts it replaced.

Most weights are signed multiples of 1/8, so every sum is exact in any
order and the vectorized bookkeeping must match the dense formulas
bit for bit. With a one-hot community matrix S and the dense adjacency A
(self-loops as 2s on the diagonal): K = S^T k, m_c = diag(S^T A S) / 2,
the aggregated graph is S^T A S, and belonging strengths are S^T A_off,
A_off being A without its diagonal. One test uses arbitrary real weights
and checks bit for bit that every sum runs in edge-stream order, as the
loops over the former dict-of-dicts graph did; RTTM output depends on
those last bits.
"""

import copy
import gc
import pickle

import numpy as np
import pytest
from hypothesis import example, given
from hypothesis import strategies as st

from cdgcn.graphs import Pinned, SpeakerGraph, cosine_affinity, knn_graph, merge_subgraphs
from cdgcn.leiden import LeidenConfig, Partition, _community_sums, aggregate_graph, leiden, quality
from cdgcn.osd import belonging_coefficients
from helpers import (
    edge_dict,
    graph_from_edges,
    matrix_from_graph,
    neighbors,
    one_line_error_in_small_memory,
    quality_of_blocks,
    reference_complete_graph,
    reference_graph_arrays,
    reference_graph_rows,
)

dyadic = st.integers(-8, 8).map(lambda q: q / 8.0)


@st.composite
def edge_streams(draw):
    """(node_count, [(i, j, w), ...]) with repeated and reversed pairs likely."""
    n = draw(st.integers(1, 8))
    if n == 1:
        return n, []
    pair = st.tuples(st.integers(0, n - 1), st.integers(0, n - 1)).filter(
        lambda p: p[0] != p[1])
    stream = draw(st.lists(st.tuples(pair, dyadic), max_size=3 * n))
    return n, [(i, j, w) for (i, j), w in stream]


@st.composite
def graphs_and_labels(draw):
    n, stream = draw(edge_streams())
    loops = draw(st.lists(dyadic, min_size=n, max_size=n))
    if draw(st.booleans()):
        loops = [0.0] * n
    graph = graph_from_edges(n, stream, self_loops=loops)
    labels = draw(st.lists(st.integers(0, 4), min_size=n, max_size=n))
    return graph, labels


@st.composite
def entry_streams(draw, finite=st.floats(allow_nan=False, allow_infinity=False)):
    """(n, heads, tails, weights) over up to 40 nodes: pairs drawn from a
    small pool, so they repeat, either way round, with arbitrary finite
    weights (or those of `finite`), signed zeros or both; sometimes an
    empty stream."""
    n = draw(st.integers(0, 40))
    if n < 2 or draw(st.integers(0, 9)) == 0:
        return n, [], [], []
    pair = st.tuples(st.integers(0, n - 1), st.integers(0, n - 1)).filter(
        lambda p: p[0] != p[1])
    pool = draw(st.lists(pair, min_size=1, max_size=n))
    zero = st.sampled_from([0.0, -0.0])
    weight = draw(st.sampled_from([finite, zero, finite | zero]))
    stream = draw(st.lists(st.tuples(st.sampled_from(pool), st.booleans(), weight),
                           max_size=120))
    heads = [p[flip] for p, flip, _ in stream]
    tails = [p[not flip] for p, flip, _ in stream]
    return n, heads, tails, [w for *_, w in stream]


def one_hot(labels, count):
    return np.eye(count)[labels]


def insertion_reference(n, stream):
    """The dict-of-dicts reference: a repeated pair keeps its first
    position in each row and its largest weight."""
    adj = [{} for _ in range(n)]
    for i, j, w in stream:
        best = max(w, adj[i].get(j, w))
        adj[i][j] = adj[j][i] = best
    return adj


@given(graphs_and_labels())
def test_from_labels_caches_match_dense(case):
    graph, labels = case
    p = Partition.from_labels(graph, labels)
    _, first = np.unique(labels, return_index=True)
    assert p.labels[np.sort(first)].tolist() == list(range(first.size))
    a = matrix_from_graph(graph)
    s = one_hot(p.labels, p.community_count)
    internal = _community_sums(graph, p.labels, p.community_count)[0]   # m_c, as quality sums it
    assert internal.tolist() == (np.diag(s.T @ a @ s) / 2.0).tolist()


@given(graphs_and_labels(), st.sampled_from([0.3, 1.0, 2.5]))
def test_quality_matches_block_oracle(case, gamma):
    graph, labels = case
    p = Partition.from_labels(graph, labels)
    if graph.total_weight < 0.0:   # Q is undefined there
        with pytest.raises(ValueError, match="negative total weight"):
            quality(graph, p, gamma)
        return
    blocks = [np.flatnonzero(p.labels == c) for c in range(p.community_count)]
    expected = quality_of_blocks(matrix_from_graph(graph), blocks, gamma)
    assert quality(graph, p, gamma) == pytest.approx(expected, rel=1e-9, abs=1e-9)


@given(graphs_and_labels())
def test_aggregate_graph_is_st_a_s(case):
    graph, labels = case
    p = Partition.from_labels(graph, labels)
    agg = aggregate_graph(graph, p)
    a = matrix_from_graph(graph)
    s = one_hot(p.labels, p.community_count)
    assert agg.node_count == p.community_count
    np.testing.assert_array_equal(matrix_from_graph(agg), s.T @ a @ s)
    # Aggregation conserves the total weighted degree exactly.
    assert agg.weighted_degrees.sum() == graph.weighted_degrees.sum()
    assert agg.total_weight == graph.total_weight


@given(graphs_and_labels())
def test_belonging_is_st_a(case):
    graph, labels = case
    p = Partition.from_labels(graph, labels)
    a = matrix_from_graph(graph)
    np.fill_diagonal(a, 0.0)
    s = one_hot(p.labels, p.community_count)
    np.testing.assert_array_equal(belonging_coefficients(graph, p), s.T @ a)


@given(edge_streams())
def test_rows_keep_first_insertion_order(case):
    n, stream = case
    graph = graph_from_edges(n, stream)
    adj = insertion_reference(n, stream)
    for i in range(n):
        assert neighbors(graph, i) == list(adj[i].items())
        assert graph.weighted_degrees[i] == sum(adj[i].values())
    edges = [(i, j, w) for i, row in enumerate(adj) for j, w in row.items() if i < j]
    assert list(zip(*(a.tolist() for a in graph.edges))) == edges
    assert graph.edge_count == len(edges)
    assert graph.total_weight == sum(w for _, _, w in edges)


def dense_real_graph(seed):
    """A dense stream with repeated pairs, arbitrary real weights, self-loops
    on half the graphs, and three communities, so that summing in another
    order usually changes the last bits."""
    rng = np.random.default_rng(seed)
    n = int(rng.integers(2, 13))
    heads = rng.integers(0, n, 8 * n)
    tails = (heads + rng.integers(1, n, 8 * n)) % n
    loops = rng.uniform(-1.0, 1.0, n) * (seed % 2)
    graph = SpeakerGraph(n, heads, tails, rng.uniform(-1.0, 1.0, 8 * n), self_loops=loops)
    return graph, rng.integers(0, 3, n)


@given(st.integers(0, 10_000))
def test_sums_run_in_edge_stream_order(seed):
    graph, labels = dense_real_graph(seed)
    n, loops = graph.node_count, graph.self_loops
    stream = [(i, j, w) for i in range(n) for j, w in neighbors(graph, i) if i < j]
    k = 2.0 * loops
    for i in range(n):
        k[i] += sum(w for _, w in neighbors(graph, i))
    assert graph.weighted_degrees.tolist() == k.tolist()
    assert graph.total_weight == float(sum(w for _, _, w in stream) + loops.sum())

    p = Partition.from_labels(graph, labels)
    lab, c = p.labels, p.community_count
    internal = np.zeros(c)
    b = np.zeros((c, n))
    agg_loops = np.bincount(lab, weights=loops, minlength=c)
    cross = {}
    for i, j, w in stream:
        b[lab[j], i] += w
        b[lab[i], j] += w
        if lab[i] == lab[j]:
            internal[lab[i]] += w
            agg_loops[lab[i]] += w
        else:
            key = (min(lab[i], lab[j]), max(lab[i], lab[j]))
            cross[key] = cross.get(key, 0.0) + w
    internal += np.bincount(lab, weights=loops, minlength=c)
    assert _community_sums(graph, lab, c)[0].tolist() == internal.tolist()
    assert belonging_coefficients(graph, p).tolist() == b.tolist()
    agg = aggregate_graph(graph, p)
    assert agg.self_loops.tolist() == agg_loops.tolist()
    assert list(edge_dict(agg).items()) == sorted(cross.items())
    # The aggregate's derived arrays, pinned from its rows and the pair sums.
    agg_k = 2.0 * agg.self_loops
    for c in range(agg.node_count):
        agg_k[c] += sum(w for _, w in neighbors(agg, c))
    assert agg.weighted_degrees.tolist() == agg_k.tolist()
    lo, hi, summed = agg.edges
    assert lo.dtype == hi.dtype == np.int64 and summed.dtype == np.float64
    assert list(zip(lo.tolist(), hi.tolist())) == sorted(cross)
    assert summed.tolist() == [cross[pair] for pair in sorted(cross)]


@given(edge_streams())
def test_merge_keeps_largest_probability(case):
    n, stream = case
    # One stacked sub-graph per entry: its pivot and one neighbor.
    members = np.array([(i, j) for i, j, _ in stream], dtype=np.int64).reshape(-1, 2)
    probs = np.array([abs(w) for _, _, w in stream]).reshape(-1, 1)
    expected = {}
    for i, j, w in stream:
        key = (min(i, j), max(i, j))
        expected[key] = max(abs(w), expected.get(key, 0.0))
    assert edge_dict(merge_subgraphs(members, probs, n)) == expected


def test_graph_arrays_are_read_only():
    graph = graph_from_edges(3, [(0, 1, 0.5), (1, 2, 0.25)])
    for array in (graph.indices, graph.weights, graph.weighted_degrees, graph.edges[2]):
        with pytest.raises(ValueError):
            array[0] = 1.0


@pytest.mark.parametrize("array", [np.zeros(3, np.int32), np.zeros(3, np.float32),
                                   np.zeros(6)[::2]], ids=["int32", "float32", "strided"])
def test_pinned_refuses_what_the_kernels_cannot_read(array):
    with pytest.raises(ValueError, match="^a kernel array must be int64 or float64 in C order, "
                                         "got ") as caught:
        Pinned(np.zeros(2, np.int64), array)
    assert "\n" not in str(caught.value)


@pytest.mark.parametrize("clone", [copy.copy, copy.deepcopy,
                                   lambda graph: pickle.loads(pickle.dumps(graph))],
                         ids=["copy", "deepcopy", "pickle"])
def test_copies_pin_their_own_arrays(clone, four_speaker_session):
    """The kernels read a graph's arrays at its pinned addresses, so a copy
    must pin the arrays it holds, and they must outlive the original."""
    graph = knn_graph(cosine_affinity(four_speaker_session.embeddings), 20)
    expected = leiden(graph, LeidenConfig(seed=3)).labels
    twin = clone(graph)
    del graph
    gc.collect()
    for pinned, arrays in ((twin.rows, (twin.indptr, twin.indices, twin.weights,
                                        twin.weighted_degrees)),
                           (twin.stream, (twin.self_loops, *twin.edges))):
        assert pinned.addresses == tuple(a.ctypes.data for a in arrays)
        assert not any(a.flags.writeable for a in arrays)
    assert leiden(twin, LeidenConfig(seed=3)).labels.tolist() == expected.tolist()


def test_non_finite_weight_rejected():
    with pytest.raises(ValueError, match="finite"):
        graph_from_edges(2, [(0, 1, float("nan"))])


@pytest.mark.parametrize("loop", [float("nan"), float("inf"), -float("inf")])
def test_non_finite_self_loop_rejected(loop):
    with pytest.raises(ValueError, match="^self_loops must hold one finite weight per node$"):
        SpeakerGraph(3, [0, 1], [1, 2], [1.0, 1.0], self_loops=[loop, 0.0, 0.0])


# One pair given nine zeros, the last one -0.0: np.maximum.reduceat alone
# keeps 0.0 here where its vectorized loop runs.
@example((2, [0, 1, 0] * 3, [1, 0, 1] * 3, [-0.0, 0.0, 0.0] + [-0.0] * 6))
@example((0, [], [], []))
@example((1, [], [], []))
@given(entry_streams())
def test_build_graph_matches_numpy_rows_bit_for_bit(case):
    n, heads, tails, weights = case
    indptr, indices, both = reference_graph_rows(n, heads, tails, weights)
    # Lists and strided arrays build the same rows.
    strided = (np.repeat(np.array(a, dtype), 2)[::2]
               for a, dtype in ((heads, np.int64), (tails, np.int64), (weights, float)))
    for graph in (SpeakerGraph(n, heads, tails, weights), SpeakerGraph(n, *strided)):
        assert graph.indptr.dtype == graph.indices.dtype == np.int64
        assert graph.indptr.tolist() == indptr.tolist()
        assert graph.indices.tolist() == indices.tolist()
        # Compared as bits, so that the sign of a zero counts.
        assert graph.weights.view(np.int64).tolist() == both.view(np.int64).tolist()


def test_failed_build_is_one_line_memory_error(monkeypatch):
    from cdgcn import _kernel

    class OutOfMemory:
        def __getattr__(self, kernel):
            return lambda *args: -1

    monkeypatch.setattr(_kernel, "load", OutOfMemory)
    message = one_line_error_in_small_memory(SpeakerGraph, 3, [0, 1], [1, 2], [0.5, 0.25],
                                             error=MemoryError)
    assert message == "build_graph: cannot allocate scratch for a graph of 3 nodes and 2 edges"


def same_bits(got: np.ndarray, expected: np.ndarray) -> bool:
    return got.dtype == expected.dtype and got.tobytes() == expected.tobytes()


# Weights no sum of which overflows, signed zeros among them.
bounded = st.floats(-1e300, 1e300) | st.sampled_from([0.0, -0.0])


@example((2, [0, 1], [1, 0], [-0.0, -0.0]), [-0.0, -0.0], [0, 0])
@given(entry_streams(finite=bounded), st.lists(bounded, min_size=40, max_size=40),
       st.lists(st.integers(0, 3), min_size=40, max_size=40))
def test_derived_arrays_match_numpy_bit_for_bit(case, loops, labels):
    """The degrees, edge stream and m the seal_graph kernel derives, from the
    rows of a build and of an aggregation, equal the numpy derivation's."""
    n, heads, tails, weights = case
    graph = SpeakerGraph(n, heads, tails, weights, self_loops=loops[:n])
    for built in (graph, aggregate_graph(graph, Partition.from_labels(graph, labels[:n]))):
        degrees, edges, m = reference_graph_arrays(built)
        assert same_bits(built.weighted_degrees, degrees)
        assert all(same_bits(a, b) for a, b in zip(built.edges, edges, strict=True))
        assert built.edge_count == edges[0].size
        assert np.float64(built.total_weight).tobytes() == np.float64(m).tobytes()


@given(n=st.integers(0, 40), seed=st.integers(0, 2**32 - 1), kind=st.sampled_from(
    ["real", "quarters", "symmetric quarters", "signed zeros"]))
def test_complete_layout_matches_numpy_bit_for_bit(n, seed, kind):
    """knn_graph at k = N - 1 equals the numpy layout on affinities with many
    ties, either way round or both, and signed zeros; the NaN diagonal is
    never read."""
    rng = np.random.default_rng(seed)
    aff = rng.uniform(-1.0, 1.0, (n, n))
    if kind != "real":
        aff = np.round(aff * 4.0) / 4.0
    if kind == "symmetric quarters":
        aff = np.triu(aff, 1) + np.triu(aff, 1).T
    if kind == "signed zeros":
        aff = np.where(rng.random((n, n)) < 0.5, rng.choice([0.0, -0.0], (n, n)), aff)
    aff[np.diag_indices(n)] = np.nan
    graph = knn_graph(aff, max(n - 1, 1))
    indptr, indices, weights = reference_complete_graph(aff)
    assert same_bits(graph.indptr, indptr)
    assert same_bits(graph.indices, indices)
    assert same_bits(graph.weights, weights)
