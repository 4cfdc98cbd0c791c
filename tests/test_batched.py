"""The batched paths (all-rows top-k, stacked sub-graphs, stacked forward
and backward, masked runner-up) against the per-item references in
helpers.py, bit for bit."""

import numpy as np
import pytest
from helpers import (
    random_gcn_weights,
    reference_forward,
    reference_loss_and_gradients,
    reference_second_community,
    reference_top_neighbors,
    unstack,
)
from hypothesis import example, given
from hypothesis import strategies as st

from cdgcn import gcn, graphs, pipeline
from cdgcn.gcn import GcnWeights, gcn_forward, loss_and_gradients, train
from cdgcn.graphs import (
    EmbeddingSet,
    SpeakerGraph,
    build_subgraph,
    cosine_affinity,
    knn_graph,
    merge_subgraphs,
    top_neighbors,
)
from cdgcn.osd import second_community
from cdgcn.pipeline import refine_graph
from cdgcn.synthetic import rotate_batches, shared_speaker_labels


def embeddings(rng, n, dim=3, pool=None):
    """Random embeddings; drawn from a pool of `pool` vectors, rows repeat
    and their affinities tie."""
    vectors = rng.normal(size=(pool or n, dim)) + 0.1
    if pool:
        vectors = vectors[rng.integers(0, pool, n)]
    segments = np.column_stack([np.arange(n) * 0.75, np.full(n, 1.5)])
    return EmbeddingSet(vectors, segments)


def same_bits(a, b):
    a, b = np.asarray(a), np.asarray(b)
    return a.dtype == b.dtype and a.shape == b.shape and a.tobytes() == b.tobytes()


def reference_subgraph_members(aff, pivot, k):
    return np.concatenate(([pivot], reference_top_neighbors(aff, pivot, min(k, len(aff) - 1))))


@given(n=st.integers(1, 60), k=st.integers(1, 40), complete=st.booleans(),
       symmetric=st.booleans(), levels=st.integers(1, 4), seed=st.integers(0, 10_000))
@example(n=2 * graphs.BLOCK + 6, k=5, complete=False, symmetric=False, levels=1, seed=0)
@example(n=2 * graphs.BLOCK + 6, k=5, complete=False, symmetric=False, levels=2**40, seed=0)
def test_top_neighbors_match_per_row_lexsort(n, k, complete, symmetric, levels, seed):
    """Few affinity levels give many ties. An asymmetric matrix with random
    signs holds both +0.0 and -0.0, so a pair's two entries can differ, in
    sign alone too. At k >= N - 1 knn_graph lays out the complete graph
    without the union-of-top-k build, which stays the oracle. The examples
    span three knn_graph blocks: at one level every row has more than k
    scores tied with its k-th, at 2**40 levels no row has."""
    rng = np.random.default_rng(seed)
    if complete:
        k = max(1, n - 1 + k % 3)
    raw = rng.uniform(-1.0, 1.0, (n, n))
    if symmetric:
        aff = np.round((raw + raw.T) / 2.0 * levels) / levels
    else:
        aff = np.round(raw * levels) / levels * rng.choice([-1.0, 1.0], (n, n))
    np.fill_diagonal(aff, 1.0)
    k_eff = min(k, n - 1)
    expected = np.array([reference_top_neighbors(aff, i, k_eff) for i in range(n)])
    assert same_bits(top_neighbors(aff, k_eff, np.arange(n)),
                     expected.reshape(n, k_eff).astype(np.intp))
    rows = rng.permutation(n)[: max(1, n // 2)]
    assert (top_neighbors(aff, k_eff, rows) == expected.reshape(n, k_eff)[rows]).all()

    graph = knn_graph(aff, k)
    heads = np.repeat(np.arange(n), k_eff)
    tails = expected.reshape(-1)
    oracle = SpeakerGraph(n, heads, tails, aff[heads, tails])
    arrays = lambda g: (g.indptr, g.indices, g.weights, g.weighted_degrees, *g.edges,
                        np.float64(g.total_weight))
    for a, b in zip(arrays(graph), arrays(oracle), strict=True):
        assert same_bits(a, b)


@given(n=st.integers(1, 14), k=st.integers(1, 16), pool=st.sampled_from([None, 2, 4]),
       seed=st.integers(0, 10_000))
def test_stacked_subgraphs_equal_per_pivot_ones(n, k, pool, seed):
    emb = embeddings(np.random.default_rng(seed), n, pool=pool)
    aff = cosine_affinity(emb)
    stacked = build_subgraph(aff, emb, np.arange(n), k)
    rows = unstack([(stacked, np.zeros(stacked.members[:, 1:].shape))])
    for pivot in range(n):
        members = reference_subgraph_members(aff, pivot, k)
        adjacency = np.maximum(aff[np.ix_(members, members)], 0.0)
        np.fill_diagonal(adjacency, 0.0)
        for sub in (build_subgraph(aff, emb, np.array([pivot]), k), rows[pivot][0]):
            assert (sub.members == members[None]).all()
            assert same_bits(sub.features, (emb.vectors[members] - emb.vectors[pivot])[None])
            assert same_bits(sub.adjacency, adjacency[None])


@given(n=st.integers(1, 40), k=st.integers(1, 12), layers=st.integers(1, 3),
       dtype=st.sampled_from([np.float32, np.float64]), seed=st.integers(0, 10_000))
def test_batched_forward_and_refined_graph_match_reference(n, k, layers, dtype, seed):
    rng = np.random.default_rng(seed)
    emb = embeddings(rng, n, dim=4, pool=int(rng.integers(2, 6)) if seed % 2 else None)
    aff = cosine_affinity(emb)
    weights = random_gcn_weights(rng, 4, layers=layers).astype(dtype)
    stacked = build_subgraph(aff, emb, np.arange(n), k)
    probs = gcn_forward(stacked, weights)
    expected = reference_forward(stacked, weights)
    assert same_bits(probs, expected)

    if dtype is np.float32:   # the pipeline's precision
        refined = refine_graph(emb, aff, weights, k)
        oracle = merge_subgraphs(stacked.members, expected, n)
        for a, b in zip((refined.indptr, refined.indices, refined.weights),
                        (oracle.indptr, oracle.indices, oracle.weights)):
            assert same_bits(a, b)


@given(n=st.integers(1, 40), k=st.integers(1, 12), block=st.sampled_from([1, 3, 8, 64]),
       seed=st.integers(0, 10_000))
def test_inference_does_not_depend_on_block_size(n, k, block, seed):
    # 64 exceeds every n drawn here: all rows or pivots in one block.
    rng = np.random.default_rng(seed)
    emb = embeddings(rng, n, dim=4, pool=int(rng.integers(2, 6)) if seed % 2 else None)
    aff = cosine_affinity(emb)
    weights = random_gcn_weights(rng, 4, layers=2).astype(np.float32)
    expected = (refine_graph(emb, aff, weights, k), knn_graph(aff, k))
    with pytest.MonkeyPatch.context() as patch:
        patch.setattr(graphs, "BLOCK", block)
        patch.setattr(pipeline, "BLOCK", block)
        got = (refine_graph(emb, aff, weights, k), knn_graph(aff, k))
    for a, b in zip(got, expected):
        for x, y in zip((a.indptr, a.indices, a.weights), (b.indptr, b.indices, b.weights)):
            assert same_bits(x, y)


def mixed_batches(rng, dim=3):
    """Stacks of several and of one sub-graph, of interleaved sizes, one
    without neighbors, sometimes followed by rotated copies."""
    batches = []
    for _ in range(int(rng.integers(2, 6))):
        n = int(rng.integers(1, 8))
        emb = embeddings(rng, n, dim=dim)
        sub = build_subgraph(cosine_affinity(emb), emb, np.arange(n), int(rng.integers(1, 6)))
        labels = rng.integers(0, 2, sub.members[:, 1:].shape).astype(float)
        batches += [(sub, labels)] if rng.random() < 0.5 else unstack([(sub, labels)])
    alone = embeddings(rng, 1, dim=dim)
    batches.append((build_subgraph(cosine_affinity(alone), alone, np.arange(1), 3),
                    np.zeros((1, 0))))
    batches = [batches[i] for i in rng.permutation(len(batches))]
    return rotate_batches(batches, int(rng.integers(0, 2)), seed=int(rng.integers(100)))


@given(seed=st.integers(0, 10_000), block=st.sampled_from([1, 2, 3, 16]),
       dtype=st.sampled_from([np.float32, np.float64]))
def test_batched_loss_and_gradients_match_reference(seed, block, dtype):
    rng = np.random.default_rng(seed)
    batches = mixed_batches(rng)
    weights = random_gcn_weights(rng, 3, layers=int(rng.integers(1, 4))).astype(dtype)
    with pytest.MonkeyPatch.context() as patch:
        patch.setattr(gcn, "BLOCK", block)
        loss, grads = loss_and_gradients(batches, weights)
    ref_loss, ref_grads = reference_loss_and_gradients(batches, weights)
    assert same_bits(loss, ref_loss)
    for a, b in zip(grads.tensors, ref_grads.tensors):
        assert same_bits(a, b)


@example(dims=[4, 6, 3], zero_column=True, dtype=np.float64, seed=0)
@example(dims=[3, 5], zero_column=True, dtype=np.float32, seed=1)
@given(dims=st.lists(st.integers(1, 6), min_size=2, max_size=4), zero_column=st.booleans(),
       dtype=st.sampled_from([np.float32, np.float64]), seed=st.integers(0, 10_000))
def test_unequal_layer_widths_match_reference(dims, zero_column, dtype, seed):
    """dims are the feature dim, then each layer's width: every layer's
    [H || A_hat @ H] buffer differs in width from the next. A zero weight
    column makes that layer's pre-activations exactly 0 in that column, so
    the relu masks read 0 there."""
    rng = np.random.default_rng(seed)
    batches = mixed_batches(rng, dim=dims[0])
    weights = random_gcn_weights(rng, dims[0], layers=dims[1:]).astype(dtype)
    if zero_column:
        layer = int(rng.integers(len(dims) - 1))
        weights.tensors[layer][:, rng.integers(dims[layer + 1])] = 0.0
    for sub, _ in batches:
        assert same_bits(gcn_forward(sub, weights), reference_forward(sub, weights))
    loss, grads = loss_and_gradients(batches, weights)
    ref_loss, ref_grads = reference_loss_and_gradients(batches, weights)
    assert same_bits(loss, ref_loss)
    for a, b in zip(grads.tensors, ref_grads.tensors, strict=True):
        assert same_bits(a, b)


@given(seed=st.integers(0, 10_000))
def test_training_matches_reference_steps(seed):
    rng = np.random.default_rng(seed)
    batches = mixed_batches(rng)
    init = GcnWeights.glorot(3, layers=2, seed=seed)
    lr, epochs = 0.3, 3
    expected = init.astype(np.float64)
    for _ in range(epochs):
        _, grads = reference_loss_and_gradients(batches, expected)
        expected = GcnWeights([t - lr * g for t, g in zip(expected.tensors, grads.tensors)])
    trained = train(batches, init=init, lr=lr, epochs=epochs)
    for a, b in zip(trained.tensors, expected.astype(np.float32).tensors):
        assert same_bits(a, b)


@given(c=st.integers(1, 5), n=st.integers(0, 12), seed=st.integers(0, 10_000))
def test_second_community_matches_per_node_loop(c, n, seed):
    rng = np.random.default_rng(seed)
    belonging = rng.integers(-2, 3, (c, n)) / 2.0   # ties, zeros and negatives
    primary = rng.integers(0, c, n)
    expected = [-1 if s is None else s for s in reference_second_community(belonging, primary)]
    assert second_community(belonging, primary).tolist() == expected


@given(n=st.integers(1, 10), width=st.integers(1, 5), seed=st.integers(0, 10_000))
def test_shared_speaker_labels_match_set_intersection(n, width, seed):
    rng = np.random.default_rng(seed)
    speakers = rng.integers(0, 4, (n, 2))
    members = rng.integers(0, n, (3, width))
    sets = [set(row) for row in speakers.tolist()]
    expected = [[float(bool(sets[row[0]] & sets[j])) for j in row[1:]] for row in members]
    assert shared_speaker_labels(speakers, members).tolist() == expected
