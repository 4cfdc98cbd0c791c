"""Independent oracles and fixture generators shared by the tests."""

import heapq
import math
import os
import subprocess
import sys
import tracemalloc
from collections import deque
from pathlib import Path

import numpy as np
import pytest

import cdgcn
from cdgcn.gcn import PROB_EPSILON, GcnWeights
from cdgcn.graphs import SpeakerGraph, SubGraph
from cdgcn.leiden import (
    GAIN_TOLERANCE,
    Partition,
    aggregate_graph,
    local_move,
    refine_partition,
)
from cdgcn.pipeline import _EPS
from cdgcn.timeline import FRAME_DURATION, RttmRecord


def random_gcn_weights(rng, feature_dim, layers=2, hidden_dim=None, scale=0.5):
    """Fully random weights (biases included) at a generic point, so ReLU
    pre-activations never sit exactly on the kink during gradient checks."""
    hidden = feature_dim if hidden_dim is None else hidden_dim
    aggregation = [rng.normal(scale=scale, size=(2 * feature_dim, feature_dim))
                   for _ in range(layers)]
    w1 = rng.normal(scale=scale, size=(feature_dim, hidden))
    w2 = rng.normal(scale=scale, size=(hidden, 2))
    b1 = rng.normal(scale=scale, size=hidden)
    b2 = rng.normal(scale=scale, size=2)
    return GcnWeights([*aggregation, w1, b1, w2, b2])


def neighbors(g: SpeakerGraph, i: int) -> list[tuple[int, float]]:
    """(neighbor, weight) pairs of node i in insertion order."""
    s, e = g.indptr[i], g.indptr[i + 1]
    return list(zip(g.indices[s:e].tolist(), g.weights[s:e].tolist()))


def edge_dict(g: SpeakerGraph) -> dict[tuple[int, int], float]:
    """{(head, tail): weight} over the head < tail edge stream, in stream order."""
    heads, tails, weights = (a.tolist() for a in g.edges)
    return dict(zip(zip(heads, tails), weights))


def singletons(g: SpeakerGraph) -> Partition:
    """One community per node."""
    return Partition.from_labels(g, np.arange(g.node_count))


def graph_from_edges(node_count: int, edges, self_loops=None) -> SpeakerGraph:
    """A graph from a sequence of (i, j, weight) triples, in insertion order."""
    heads, tails, weights = zip(*edges) if edges else ((), (), ())
    return SpeakerGraph(node_count, heads, tails, weights, self_loops)


def graph_from_matrix(weight: np.ndarray) -> SpeakerGraph:
    """Non-zero upper-triangle entries as pair edges, in row-major order."""
    heads, tails = np.nonzero(np.triu(weight, 1))
    return SpeakerGraph(weight.shape[0], heads, tails, weight[heads, tails])


def matrix_from_graph(g: SpeakerGraph) -> np.ndarray:
    """Dense adjacency; a self-loop of weight s sits on the diagonal as 2s,
    so row sums are weighted degrees and the matrix sum is 2m."""
    a = np.diag(2.0 * g.self_loops)
    for i in range(g.node_count):
        for j, w in neighbors(g, i):
            a[i, j] = w
    return a


def quality_of_blocks(weight: np.ndarray, blocks, gamma: float) -> float:
    """Direct evaluation of the quality function for an explicit partition."""
    k = weight.sum(axis=1)
    m = weight.sum() / 2.0
    if m == 0.0:
        return 0.0
    q = 0.0
    for block in blocks:
        block = list(block)
        q += weight[np.ix_(block, block)].sum() / 2.0 - gamma * k[block].sum() ** 2 / (4.0 * m)
    return q


def best_partition(weight: np.ndarray, gamma: float):
    """Exhaustively enumerate all set partitions; return (max Q, argmax blocks).

    Block statistics are maintained incrementally during the recursion, so
    graphs up to ~10 nodes enumerate in well under a second.
    """
    n = weight.shape[0]
    w = [[float(weight[i, j]) for j in range(n)] for i in range(n)]
    k = [sum(row) for row in w]
    m = sum(k) / 2.0
    if m == 0.0:
        return 0.0, [[i] for i in range(n)]
    best_q = [-np.inf]
    best_blocks = [None]
    blocks, degrees, internal = [], [], []

    def place(i):
        if i == n:
            q = sum(mb - gamma * kb * kb / (4.0 * m) for kb, mb in zip(degrees, internal))
            if q > best_q[0]:
                best_q[0] = q
                best_blocks[0] = [list(b) for b in blocks]
            return
        for b in range(len(blocks)):
            added = sum(w[i][j] for j in blocks[b])
            blocks[b].append(i)
            degrees[b] += k[i]
            internal[b] += added
            place(i + 1)
            blocks[b].pop()
            degrees[b] -= k[i]
            internal[b] -= added
        blocks.append([i])
        degrees.append(k[i])
        internal.append(0.0)
        place(i + 1)
        blocks.pop()
        degrees.pop()
        internal.pop()

    place(0)
    return best_q[0], best_blocks[0]


def clique_pair_graph(size: int) -> SpeakerGraph:
    """Two unit-weight cliques of `size` nodes joined by a single bridge."""
    n = 2 * size
    edges = []
    for group in (range(size), range(size, n)):
        group = list(group)
        for a in range(len(group)):
            for b in range(a + 1, len(group)):
                edges.append((group[a], group[b], 1.0))
    edges.append((size - 1, size, 1.0))
    return graph_from_edges(n, edges)


def random_weight_matrix(rng, planted: bool, n: int | None = None) -> np.ndarray:
    """Random symmetric weight matrix, either with two planted groups or
    Erdos-Renyi with uniform weights."""
    if n is None:
        n = int(rng.integers(4, 9))
    if planted:
        labels = rng.integers(0, 2, n)
        a = np.zeros((n, n))
        for i in range(n):
            for j in range(i + 1, n):
                same = labels[i] == labels[j]
                if rng.random() < (0.9 if same else 0.25):
                    a[i, j] = a[j, i] = rng.uniform(0.3, 1.0) if same else rng.uniform(0.05, 0.4)
    else:
        a = np.triu((rng.random((n, n)) < 0.6) * rng.uniform(0.05, 1.0, (n, n)), 1)
        a = a + a.T
    return a


def random_fixture_graphs(fixture_seed: int, count: int):
    """The frozen random-graph corpus: alternating planted and ER matrices."""
    rng = np.random.default_rng(fixture_seed)
    return [random_weight_matrix(rng, planted=(t % 2 == 0)) for t in range(count)]


def printed_by(code: str) -> str:
    """What `code` prints when run in a fresh interpreter that imports cdgcn
    from the same source tree as the tests."""
    env = dict(os.environ, PYTHONPATH=str(Path(cdgcn.__file__).resolve().parents[1]))
    return subprocess.run([sys.executable, "-c", code], env=env, check=True,
                          capture_output=True, text=True, timeout=120).stdout


def modules_after(code: str) -> set:
    """Names in sys.modules after running `code` in a fresh interpreter."""
    return set(printed_by(code + "\nimport sys\nprint(' '.join(sys.modules))").split())


def one_line_error_in_small_memory(call, *args, error=ValueError) -> str:
    """The message of the error (a ValueError unless given) that call(*args)
    raises, checked to be one line and to come before anything near a
    megabyte is allocated."""
    tracemalloc.start()
    try:
        with pytest.raises(error) as caught:
            call(*args)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert "\n" not in str(caught.value)
    assert peak < 2**20
    return str(caught.value)


# ------------------------------------------------- per-item reference paths

def reference_top_neighbors(aff: np.ndarray, node: int, k: int) -> np.ndarray:
    """Top-k affinities of one row by a full lexsort, ties to lower ids."""
    row = aff[node].copy()
    row[node] = -np.inf
    order = np.lexsort((np.arange(row.size), -row))
    return order[:k]


def _reference_covered(start, end, total):
    """[f0, f1) of the frames whose centers fall in [start, end), clipped to
    a timeline of `total` frames, in Python floats."""
    clip = lambda frame: min(total, max(0, frame))
    return (clip(math.ceil(start / FRAME_DURATION - 0.5 - _EPS)),
            clip(math.ceil(end / FRAME_DURATION - 0.5 - _EPS)))


def reference_region_frames(regions, total: int) -> np.ndarray:
    """Speech frames marked one (start, end) region at a time."""
    speech = np.zeros(total, dtype=bool)
    for start, end in regions:
        f0, f1 = _reference_covered(start, end, total)
        speech[f0:f1] = True
    return speech


def reference_records(primary: np.ndarray, secondary: np.ndarray, file_id: str) -> list:
    """A timeline's RTTM records by a per-frame scan: one record per run of
    frames carrying a label >= 0, sorted by onset, then speaker."""
    frames = list(zip(primary.tolist(), secondary.tolist())) + [(-1, -1)]
    records = []
    for label in sorted({*primary.tolist(), *secondary.tolist()}):
        start = None
        for i, pair in enumerate(frames):
            if label >= 0 and label in pair and start is None:
                start = i
            elif label not in pair and start is not None:
                records.append(RttmRecord(file_id, round(start * FRAME_DURATION, 3),
                                          round((i - start) * FRAME_DURATION, 3), f"spk{label}"))
                start = None
    return sorted(records, key=lambda r: (r.onset, r.speaker))


def reference_frame_attribution(segments: np.ndarray, labels: np.ndarray, vad_regions=None):
    """Frame attribution one segment at a time: a frame keeps the first
    segment whose center is strictly nearer than any before it."""
    ends = segments[:, 0] + segments[:, 1]
    total = max(1, math.ceil(ends.max() / FRAME_DURATION - _EPS))
    frame_segment = np.full(total, -1, dtype=np.int64)
    best = np.full(total, np.inf)
    for idx in range(len(segments)):
        start, duration = segments[idx]
        f0, f1 = _reference_covered(start, start + duration, total)
        if f1 <= f0:
            continue
        centers = (np.arange(f0, f1) + 0.5) * FRAME_DURATION
        dist = np.abs(centers - (start + duration / 2.0))
        better = dist < best[f0:f1]
        frame_segment[f0:f1][better] = idx
        best[f0:f1][better] = dist[better]
    if vad_regions is not None:
        frame_segment[~reference_region_frames(vad_regions, total)] = -1
    primary = np.full(total, -1, dtype=np.int64)
    covered_frames = frame_segment >= 0
    primary[covered_frames] = labels[frame_segment[covered_frames]]
    return primary, frame_segment


def reference_second_community(belonging: np.ndarray, primary) -> list:
    """Runner-up community of each node, one column at a time."""
    out = []
    for i in range(belonging.shape[1]):
        column = belonging[:, i].copy()
        column[primary[i]] = -np.inf
        best = int(np.argmax(column))
        out.append(best if column[best] > 0.0 else None)
    return out


def _neighbor_lists(graph: SpeakerGraph):
    """Per row, (neighbour ids, weights) as Python lists."""
    ptr = graph.indptr.tolist()
    return [(graph.indices[s:e].tolist(), graph.weights[s:e].tolist())
            for s, e in zip(ptr[:-1], ptr[1:])]


def _reference_best_move(w_to, a, k_i, comm_degree, comm_size, gamma, m):
    """(community, gain) of the best move of a node in community a with
    degree k_i and weights w_to into the neighbouring communities; the
    community is -1 for a fresh singleton and None when no gain is positive."""
    # Gain of staying relative to sitting alone in an empty community.
    stay = w_to.get(a, 0.0) - gamma * k_i * (comm_degree[a] - k_i) / (2.0 * m)
    best_gain = 0.0
    best_comm = None
    for cand in sorted(w_to):
        if cand == a:
            continue
        gain = w_to[cand] - gamma * k_i * comm_degree[cand] / (2.0 * m) - stay
        if gain > best_gain:
            best_gain = gain
            best_comm = cand
    if -stay > best_gain and comm_size[a] > 1:
        best_gain = -stay
        best_comm = -1  # fresh singleton
    return best_comm, best_gain


def reference_local_move(graph: SpeakerGraph, partition: Partition, gamma: float,
                         seed: int = 0) -> Partition:
    """local_move as a per-node dict loop over Python neighbour lists, with
    a sorted candidate scan: the bit-for-bit oracle of the compiled sweep."""
    n = graph.node_count
    if n == 0:
        return partition
    m = graph.total_weight
    if m == 0.0:
        return Partition.from_labels(graph, partition.labels)

    rows = _neighbor_lists(graph)
    labels = partition.labels.tolist()
    k = graph.weighted_degrees.tolist()
    # Community slots: at most n communities can be live at any point.
    c = partition.community_count
    comm_degree = np.bincount(partition.labels, weights=graph.weighted_degrees,
                              minlength=n).tolist()
    comm_size = np.bincount(partition.labels, minlength=n).tolist()
    free_ids: list[int] = []
    next_fresh = c

    rng = np.random.default_rng(seed)
    queue = deque(rng.permutation(n).tolist())
    in_queue = [True] * n

    while queue:
        i = queue.popleft()
        in_queue[i] = False
        a = labels[i]
        neighbors, weights = rows[i]
        w_to: dict[int, float] = {}
        for j, w in zip(neighbors, weights):
            lbl = labels[j]
            w_to[lbl] = w_to.get(lbl, 0.0) + w
        k_i = k[i]
        best_comm, best_gain = _reference_best_move(w_to, a, k_i, comm_degree, comm_size,
                                                    gamma, m)
        if best_comm is None or best_gain <= GAIN_TOLERANCE:
            continue
        if best_comm == -1:
            if free_ids:
                best_comm = heapq.heappop(free_ids)
            else:
                best_comm = next_fresh
                next_fresh += 1
        comm_degree[a] -= k_i
        comm_size[a] -= 1
        if comm_size[a] == 0:
            comm_degree[a] = 0.0
            heapq.heappush(free_ids, a)
        comm_degree[best_comm] += k_i
        comm_size[best_comm] += 1
        labels[i] = best_comm
        for j in neighbors:
            if labels[j] != best_comm and not in_queue[j]:
                queue.append(j)
                in_queue[j] = True

    return Partition.from_labels(graph, labels)


def reference_refine_partition(graph: SpeakerGraph, partition: Partition, gamma: float,
                               seed: int = 0) -> Partition:
    """refine_partition as a per-node dict loop that tests every neighbour's
    parent and the well-connectedness of every candidate: the bit-for-bit
    oracle of the compiled sweep."""
    n = graph.node_count
    m = graph.total_weight
    if n == 0 or m == 0.0:
        return singletons(graph)

    rows = _neighbor_lists(graph)
    parent = partition.labels
    parent_of = parent.tolist()
    k = graph.weighted_degrees.tolist()
    ref_labels = list(range(n))
    ref_degree = list(k)
    ref_size = [1] * n
    # Edge weight from each refined community to the rest of its parent,
    # starting from each node's weight into its own parent community.
    row_of = np.repeat(np.arange(n), np.diff(graph.indptr))
    inside = parent[row_of] == parent[graph.indices]
    cross = np.bincount(row_of[inside], weights=graph.weights[inside], minlength=n).tolist()

    rng = np.random.default_rng(seed)
    two_m = 2.0 * m

    by_parent = np.argsort(parent, kind="stable")
    bounds = np.searchsorted(parent[by_parent], np.arange(partition.community_count + 1))
    # Python floats: fast scalar math.
    parent_degree = np.bincount(parent, weights=graph.weighted_degrees).tolist()
    for comm in range(partition.community_count):
        members = by_parent[bounds[comm]:bounds[comm + 1]]
        if members.size < 2:
            continue
        k_total = parent_degree[comm]
        for v in rng.permutation(members).tolist():
            own = ref_labels[v]
            if ref_size[own] > 1:
                continue
            if cross[v] < gamma * k[v] * (k_total - k[v]) / two_m:
                continue
            w_to: dict[int, float] = {}
            for j, w in zip(*rows[v]):
                if parent_of[j] == comm:
                    lbl = ref_labels[j]
                    if lbl != own:
                        w_to[lbl] = w_to.get(lbl, 0.0) + w
            candidates = []
            for cand in sorted(w_to):
                if cross[cand] < gamma * ref_degree[cand] * (k_total - ref_degree[cand]) / two_m:
                    continue
                gain = w_to[cand] - gamma * k[v] * ref_degree[cand] / two_m
                candidates.append((cand, gain))
            target = None
            best_gain = GAIN_TOLERANCE
            for cand, gain in candidates:
                if gain > best_gain:
                    best_gain = gain
                    target = cand
            if target is None:
                continue
            ref_degree[target] += k[v]
            cross[target] += cross[v] - 2.0 * w_to[target]
            ref_size[target] += 1
            ref_size[own] = 0
            ref_labels[v] = target

    return Partition.from_labels(graph, ref_labels)


def reference_hierarchy_pass(graph: SpeakerGraph, partition: Partition, gamma: float, rng,
                             move=local_move, refine=refine_partition,
                             aggregate=aggregate_graph) -> Partition:
    """leiden's pass one level at a time through the per-phase entry points
    (or the given stand-ins): the oracle of the compiled climb, labels,
    count and draws from rng alike.

    Each level draws its move seed, then its refinement seed, moves, and
    refines; it stops when aggregation would be the identity or when an
    aggregate's m rounds below 0. The partition of each aggregated graph
    starts from the communities the merged nodes held before refinement.
    """
    level_graph, level_partition = graph, partition
    node_map = np.arange(graph.node_count, dtype=np.int64)
    while True:
        move_seed = int(rng.integers(2**32))
        refine_seed = int(rng.integers(2**32))
        level_partition = move(level_graph, level_partition, gamma, move_seed)
        refined = refine(level_graph, level_partition, gamma, refine_seed)
        if refined.community_count == level_graph.node_count:
            break
        # Each refined community becomes a node that inherits the community
        # its members held before refinement (all of them held the same one).
        lifted = np.empty(refined.community_count, np.int64)
        lifted[refined.labels] = level_partition.labels
        coarse = aggregate(level_graph, refined)
        if coarse.total_weight < 0.0:   # a near-zero m, summed anew, rounded below 0
            break
        level_graph = coarse
        node_map = refined.labels[node_map]
        # Compact as lifted: parts nest in parents, both compacted by first node.
        level_partition = Partition(lifted, level_partition.community_count)
    return Partition(level_partition.labels[node_map], level_partition.community_count)


def reference_graph_rows(n: int, heads, tails, weights):
    """(indptr, indices, weights) of SpeakerGraph(n, heads, tails, weights)
    by numpy sorts: the bit-for-bit oracle of the compiled build_graph.

    Each distinct pair keeps its first position and its largest weight, the
    later of equal ones; np.maximum.reduceat alone may keep the other zero's
    sign once a pair repeats nine or more times, so the winner is picked by
    position. Both directions of every pair, in pair order, are then
    stable-sorted by row, so each row lists its pairs by first position.
    """
    heads, tails = (np.asarray(a, dtype=np.int64).reshape(-1) for a in (heads, tails))
    weights = np.asarray(weights, dtype=np.float64).reshape(-1)
    key = np.minimum(heads, tails) * n + np.maximum(heads, tails)
    order = np.argsort(key, kind="stable")
    key, ordered = key[order], weights[order]
    starts = np.flatnonzero(np.diff(key, prepend=-1))   # keys are >= 0
    largest = np.maximum.reduceat(ordered, starts)
    hit = ordered == np.repeat(largest, np.diff(np.append(starts, key.size)))
    largest = ordered[np.maximum.reduceat(np.where(hit, np.arange(key.size), -1), starts)]
    by_position = np.argsort(order[starts])
    lo, hi = np.divmod(key[starts[by_position]], n)
    src = np.stack([lo, hi], axis=1).reshape(-1)
    rows = np.argsort(src, kind="stable")
    indptr = np.concatenate(([0], np.cumsum(np.bincount(src, minlength=n))))
    return (indptr, np.stack([hi, lo], axis=1).reshape(-1)[rows],
            np.repeat(largest[by_position], 2)[rows])


def reference_graph_arrays(graph: SpeakerGraph):
    """(weighted_degrees, edges, total_weight) of a graph derived from its
    rows and self-loops by numpy: the bit-for-bit oracle of the seal_graph
    kernel. Each row is summed from 0.0 in row order; a pair's head < tail
    entry sits in the row of its low end; cumsum adds in stream order."""
    n = graph.node_count
    rows = np.repeat(np.arange(n), np.diff(graph.indptr))
    upper = rows < graph.indices
    edges = (rows[upper], graph.indices[upper], graph.weights[upper])
    with np.errstate(over="ignore", invalid="ignore"):   # finite weights may sum past the range
        degrees = 2.0 * graph.self_loops + np.bincount(rows, weights=graph.weights, minlength=n)
        pair = np.cumsum(edges[2])[-1] if edges[0].size else 0.0
        return degrees, edges, float(pair + graph.self_loops.sum())


def reference_complete_graph(aff: np.ndarray):
    """(indptr, indices, weights) of knn_graph(aff, N - 1) by numpy sorts:
    the bit-for-bit oracle of the complete_graph kernel. Row i lists 0..i-1,
    then j > i by descending aff[i, j], ties to the lower id, from one stable
    argsort; pair lo < hi keeps aff[hi, lo] if >= aff[lo, hi]."""
    n = aff.shape[0]
    upper = np.triu(np.ones((n, n), bool), 1)
    # -inf puts the lower ids first, in id order; +inf puts i itself last.
    scores = np.where(upper, np.negative(aff), -np.inf)
    scores.flat[::n + 1] = np.inf
    indices = np.argsort(scores, axis=1, kind="stable")[:, :-1]
    pair = np.where(aff.T >= aff, aff.T, aff)   # right above the diagonal
    weights = np.take_along_axis(np.where(upper, pair, pair.T), indices, axis=1)
    return np.arange(n + 1) * (n - 1), indices.ravel(), weights.ravel()


def reference_community_sums(graph: SpeakerGraph, labels: np.ndarray, c: int):
    """(m_c, K_c) for labels in 0..c-1 by numpy bincounts, each summed from
    0.0 in input order: the bit-for-bit oracle of the compiled kernel."""
    heads, tails, weights = graph.edges
    a = labels[heads]
    inside = a == labels[tails]
    internal = (np.bincount(a[inside], weights=weights[inside], minlength=c)
                + np.bincount(labels, weights=graph.self_loops, minlength=c))
    degree = np.bincount(labels, weights=graph.weighted_degrees, minlength=c)
    return internal, degree


def reference_aggregate_graph(graph: SpeakerGraph, refined: Partition) -> SpeakerGraph:
    """aggregate_graph as numpy bincounts over the edge stream, built through
    the public constructor: the bit-for-bit oracle of the compiled kernel."""
    labels = refined.labels
    c = refined.community_count
    heads, tails, weights = graph.edges
    a, b = labels[heads], labels[tails]
    inside = a == b
    # Each self-loop sums the old self-loops first, then the inside edges in stream order.
    loops = np.bincount(np.concatenate((labels, a[inside])),
                        weights=np.concatenate((graph.self_loops, weights[inside])),
                        minlength=c)
    lo, hi = np.minimum(a, b)[~inside], np.maximum(a, b)[~inside]
    pairs, slot = np.unique(lo * c + hi, return_inverse=True)
    summed = np.bincount(slot, weights=weights[~inside], minlength=pairs.size)
    return SpeakerGraph(c, pairs // c, pairs % c, summed, self_loops=loops)


def unstack(batches):
    """(SubGraph, labels) batches split into one batch per sub-graph: a
    stack of one with its row of labels."""
    return [(SubGraph(sub.members[i:i + 1], sub.features[i:i + 1], sub.adjacency[i:i + 1]),
             np.asarray(labels)[i:i + 1])
            for sub, labels in batches for i in range(len(sub.members))]


def _normalize(a):
    a_tilde = a + np.eye(a.shape[0], dtype=a.dtype)
    inv_sqrt = 1.0 / np.sqrt(a_tilde.sum(axis=1))
    return a_tilde * inv_sqrt[:, None] * inv_sqrt[None, :]


def _softmax(logits):
    shifted = logits - logits.max(axis=1, keepdims=True)
    e = np.exp(shifted)
    return e / e.sum(axis=1, keepdims=True)


def _bce(pred, labels):
    p = np.clip(np.asarray(pred, dtype=np.float64), PROB_EPSILON, 1.0 - PROB_EPSILON)
    labels = np.asarray(labels, dtype=np.float64)
    return float(np.mean(-(labels * np.log(p) + (1.0 - labels) * np.log(1.0 - p))))


def reference_forward(sub: SubGraph, weights: GcnWeights) -> np.ndarray:
    """Linkage probabilities of a stack of sub-graphs, one row each, computed
    one sub-graph at a time, layer by layer."""
    dtype = weights.dtype
    *layers, w1, b1, w2, b2 = weights.tensors
    rows = []
    for features, adjacency in zip(sub.features, sub.adjacency):
        a_hat = _normalize(adjacency.astype(dtype))
        h = features.astype(dtype)
        for w in layers:
            h = np.maximum(np.concatenate([h, a_hat @ h], axis=1) @ w, 0)
        z = np.maximum(h @ w1 + b1, 0)
        rows.append(_softmax(z @ w2 + b2)[1:, 1])
    return np.array(rows)


def _reference_sub_loss_and_grads(features, a_hat, labels, weights):
    *lw, w1, b1, w2, b2 = weights.tensors

    h = features
    hs = [h]
    concats = []
    pre_acts = []
    for w in lw:
        m = np.concatenate([h, a_hat @ h], axis=1)
        pre = m @ w
        h = np.maximum(pre, 0)
        concats.append(m)
        pre_acts.append(pre)
        hs.append(h)

    s = h @ w1 + b1
    z = np.maximum(s, 0)
    logits = z @ w2 + b2
    sm = _softmax(logits)
    probs = sm[1:, 1]
    k = probs.size
    loss = _bce(probs, labels)

    dlogits = np.zeros_like(logits)
    active = (probs > PROB_EPSILON) & (probs < 1.0 - PROB_EPSILON)
    target = np.zeros_like(sm[1:])
    target[np.arange(k), labels.astype(np.int64)] = 1.0
    dlogits[1:] = (sm[1:] - target) * (active[:, None] / k)

    dz = dlogits @ w2.T
    ds = dz * (s > 0)
    grad_w2 = z.T @ dlogits
    grad_b2 = dlogits.sum(axis=0)
    grad_w1 = hs[-1].T @ ds
    grad_b1 = ds.sum(axis=0)
    dh = ds @ w1.T

    grad_layers = [None] * len(lw)
    for l in range(len(lw) - 1, -1, -1):
        dpre = dh * (pre_acts[l] > 0)
        grad_layers[l] = concats[l].T @ dpre
        dm = dpre @ lw[l].T
        d_in = hs[l].shape[1]
        dh = dm[:, :d_in] + a_hat.T @ dm[:, d_in:]
    return loss, [*grad_layers, grad_w1, grad_b1, grad_w2, grad_b2]


def reference_loss_and_gradients(batches, weights: GcnWeights):
    """Mean BCE and its gradients, backpropagated one sub-graph at a time."""
    dtype = weights.dtype
    counted = [(sub, np.asarray(labels[0], dtype=dtype)) for sub, labels in unstack(batches)
               if np.size(labels)]
    total_loss = 0.0
    total = [np.zeros_like(t) for t in weights.tensors]
    for sub, labels in counted:
        loss, grads = _reference_sub_loss_and_grads(
            sub.features[0].astype(dtype), _normalize(sub.adjacency[0].astype(dtype)),
            labels, weights)
        total_loss += loss
        for acc, g in zip(total, grads):
            acc += g
    scale = 1.0 / max(len(counted), 1)
    return total_loss * scale, GcnWeights([t * scale for t in total])
