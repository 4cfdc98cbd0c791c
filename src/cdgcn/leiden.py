"""Community detection on weighted speaker graphs.

Greedy optimization of a resolution-scaled quality function through the
classic three phases: queue-driven local moving of single nodes, a
refinement pass that splits communities into well-connected parts, and
aggregation of refined communities into super-nodes, iterated until the
quality stops improving.

For a partition into communities c the quality is

    Q = sum_c ( m_c - gamma * K_c**2 / (4 * m) )

where m_c is the total edge weight inside community c, K_c the summed
weighted degree of its nodes, m the total edge weight of the graph and
gamma the resolution. Degrees, m and m_c are all weighted; self-loops
(from aggregation) count once in m_c and twice in a node's degree. An
edgeless graph has Q defined as 0.

Local moving and the refinement of each parent community run as C loops
(`_sweeps.c`, built on first use by `_kernel.py`); Python keeps the random
draws, the theta > 0 sampling (called back from C) and the bookkeeping.
They are bit-exact with the per-node loops the tests keep as oracles: the
same visit order, sums from 0.0 in CSR row order, every gain in the same
operand order, the smallest label among equal best gains (what an ascending
scan picks), and -ffp-contract=off, so no multiply-add is fused.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .graphs import SpeakerGraph

#: Quality gains at or below this threshold are treated as noise.
GAIN_TOLERANCE = 1e-12


@dataclass
class LeidenConfig:
    gamma: float = 0.6
    seed: int = 0
    max_iterations: int = 100
    theta: float = 0.0
    restarts: int = 4

    def __post_init__(self):
        if self.gamma <= 0:
            raise ValueError("gamma must be positive")
        if self.theta < 0:
            raise ValueError("theta must be non-negative")
        if self.max_iterations < 1:
            raise ValueError("max_iterations must be at least 1")
        if self.restarts < 1:
            raise ValueError("restarts must be at least 1")


@dataclass
class Partition:
    """Node-to-community assignment with per-community bookkeeping.

    labels are contiguous in 0..C-1 with no empty community.
    internal_weight[c] caches m_c, community_degree[c] caches K_c.
    """

    labels: np.ndarray
    internal_weight: np.ndarray
    community_degree: np.ndarray

    @property
    def community_count(self) -> int:
        return len(self.internal_weight)

    @classmethod
    def from_labels(cls, graph: SpeakerGraph, labels) -> "Partition":
        """Build a partition from arbitrary labels, compacting them to
        0..C-1 by first appearance and recomputing the caches from scratch."""
        labels = np.asarray(labels, dtype=np.int64)
        if labels.shape != (graph.node_count,):
            raise ValueError(
                f"{labels.size} labels do not cover a graph of {graph.node_count} nodes"
            )
        _, first, inverse = np.unique(labels, return_index=True, return_inverse=True)
        compact = np.argsort(np.argsort(first))[inverse]
        return cls(compact, *_community_sums(graph, compact, first.size))


def _community_sums(graph: SpeakerGraph, labels: np.ndarray, c: int):
    """(m_c, K_c) for labels in 0..c-1, each summed in edge-stream order."""
    heads, tails, weights = graph.edges
    a = labels[heads]
    inside = a == labels[tails]
    internal = (np.bincount(a[inside], weights=weights[inside], minlength=c)
                + np.bincount(labels, weights=graph.self_loops, minlength=c))
    degree = np.bincount(labels, weights=graph.weighted_degrees, minlength=c)
    return internal, degree


def quality(graph: SpeakerGraph, partition: Partition, gamma: float) -> float:
    """Evaluate Q from scratch (independent of the partition's caches)."""
    labels = partition.labels
    if labels.shape != (graph.node_count,):
        raise ValueError("partition does not cover the graph")
    _check_total_weight(graph)
    m = graph.total_weight
    if m == 0.0:
        return 0.0
    c = int(labels.max()) + 1 if labels.size else 0
    internal, degree = _community_sums(graph, labels, c)
    return float(internal.sum() - gamma * np.sum(degree**2) / (4.0 * m))


def singleton_partition(graph: SpeakerGraph) -> Partition:
    """One community per node; m_c is the node's self-loop (zero on plain graphs)."""
    return Partition(np.arange(graph.node_count, dtype=np.int64), graph.self_loops.copy(),
                     graph.weighted_degrees.copy())


def _check_total_weight(graph: SpeakerGraph) -> None:
    if graph.total_weight < 0.0:
        raise ValueError(f"graph has negative total weight m = {graph.total_weight:.6g}")


def _checked_labels(graph: SpeakerGraph, partition: Partition) -> np.ndarray:
    """The labels as a fresh int64 array, once m >= 0 and what the compiled sweeps
    index by are checked: n integer labels in 0..C-1, none unused, caches of length C."""
    _check_total_weight(graph)
    labels, c = partition.labels, partition.community_count
    if labels.shape != (graph.node_count,) or labels.dtype.kind not in "iu":
        raise ValueError(f"partition needs {graph.node_count} integer labels, "
                         f"got {labels.dtype} labels of shape {labels.shape}")
    if partition.internal_weight.shape != (c,) or partition.community_degree.shape != (c,):
        raise ValueError(f"partition caches must both have length {c}")
    if labels.size and (labels.min() < 0 or labels.max() >= c):
        raise ValueError(f"partition labels must lie in 0..{c - 1}")
    labels = labels.astype(np.int64)
    if np.bincount(labels, minlength=c).min(initial=1) == 0:
        raise ValueError("partition has an empty community")
    return labels


def local_move(graph: SpeakerGraph, partition: Partition, gamma: float, seed: int = 0) -> Partition:
    """Queue-driven single-node moves to the neighboring community (or a
    fresh singleton) with maximal quality gain.

    Nodes start queued in seeded random order; an accepted move re-queues
    the moved node's neighbors outside its new community. Gains must
    exceed GAIN_TOLERANCE, so the quality is non-decreasing and the queue
    drains in finite time. Ties go to the smallest community label, with a
    fresh singleton considered last. Labels are compacted on return.
    """
    labels = _checked_labels(graph, partition)
    n, m = graph.node_count, graph.total_weight
    if n == 0 or m == 0.0:
        return Partition.from_labels(graph, labels)

    from ._kernel import load

    # Community slots: at most n communities can be live at any point.
    c = partition.community_count
    comm_degree = np.pad(partition.community_degree.astype(float), (0, n - c))
    queue = np.random.default_rng(seed).permutation(n)
    load().local_move(n, graph.indptr, graph.indices, graph.weights, graph.weighted_degrees,
                      gamma, 2.0 * m, GAIN_TOLERANCE, c, labels, comm_degree,
                      np.bincount(labels, minlength=n), queue, np.ones(n, dtype=np.uint8),
                      np.zeros(n), np.zeros(n, dtype=np.uint8), np.empty(n, dtype=np.int64))
    return Partition.from_labels(graph, labels)


def _sample_target(rng, gains: np.ndarray, theta: float) -> int:
    """Position of the part a theta > 0 refinement merges into, drawn with
    probability proportional to exp(gain / theta) among non-negative gains,
    or -1 to stay alone: staying put competes with gain zero."""
    keep = np.flatnonzero(gains >= 0.0)
    if keep.size == 0:
        return -1
    top = gains[keep].max()
    odds = np.exp((gains[keep] - top) / theta)
    pick = rng.uniform(0.0, odds.sum() + np.exp((0.0 - top) / theta))
    # cumsum adds in order from the first odd, as a running sum does.
    hit = np.flatnonzero(pick < np.cumsum(odds))
    return int(keep[hit[0]]) if hit.size else -1


def refine_partition(graph: SpeakerGraph, partition: Partition, gamma: float,
                     seed: int = 0, theta: float = 0.0) -> Partition:
    """Split each community into well-connected sub-communities.

    Starts from singletons and only merges nodes into sub-communities of
    their own original community, so the result always refines the input.
    A node is only merged while still alone, and only when both it and the
    target are well connected inside the original community. theta = 0
    merges greedily into the best-gain target, ties going to the smallest
    label; theta > 0 samples targets with probability proportional to
    exp(gain / theta) among non-negative gains.
    """
    parent = _checked_labels(graph, partition)
    n, m = graph.node_count, graph.total_weight
    if n == 0 or m == 0.0:
        return singleton_partition(graph)

    from ._kernel import PICK, load

    # Per-part state, indexed by the part's founding node, and scratch.
    ref_labels, ref_size, connected = np.arange(n), np.ones(n, np.int64), np.zeros(n, np.uint8)
    ref_degree, cross, w_to = graph.weighted_degrees.copy(), np.zeros(n), np.zeros(n)
    seen, cands, gains = np.zeros(n, np.uint8), np.empty(n, np.int64), np.empty(n)
    rng = np.random.default_rng(seed)
    errors = []

    def pick(count):
        try:
            return _sample_target(rng, gains[:count], theta)
        except BaseException as exc:   # ctypes would print and drop it
            errors.append(exc)
            return -1

    callback = PICK(pick)
    refine = load().refine_community
    by_parent = np.argsort(parent, kind="stable")
    bounds = np.searchsorted(parent[by_parent], np.arange(partition.community_count + 1))
    for comm in range(partition.community_count):
        members = by_parent[bounds[comm]:bounds[comm + 1]]
        if members.size < 2:
            continue
        order = rng.permutation(members)
        refine(graph.indptr, graph.indices, graph.weights, graph.weighted_degrees, parent, comm,
               float(partition.community_degree[comm]), gamma, 2.0 * m, theta, GAIN_TOLERANCE,
               order, order.size, ref_labels, ref_size, ref_degree, cross, connected,
               w_to, seen, cands, gains, callback)
        if errors:
            raise errors[0]

    return Partition.from_labels(graph, ref_labels)


def aggregate_graph(graph: SpeakerGraph, refined: Partition) -> SpeakerGraph:
    """Collapse each refined community c into super-node c.

    Cross-community weights accumulate into single edges, listed in sorted
    (a, b) order; intra-community weights (plus pre-existing self-loops)
    accumulate on the new node's self-loop, so the total weighted degree is
    conserved exactly.
    """
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


def _hierarchy_pass(graph: SpeakerGraph, flat_labels: np.ndarray, gamma: float,
                    rng, theta: float) -> np.ndarray:
    """One local-move / refine / aggregate cascade, starting from the given
    flat partition and climbing levels until aggregation stops shrinking.

    The partition of each aggregated graph starts from the communities the
    merged nodes held before refinement, not from singletons. Returns the
    resulting flat labels on the original node set.
    """
    level_graph = graph
    level_partition = Partition.from_labels(graph, flat_labels)
    node_map = np.arange(graph.node_count, dtype=np.int64)
    while True:
        move_seed = int(rng.integers(2**32))
        refine_seed = int(rng.integers(2**32))
        level_partition = local_move(level_graph, level_partition, gamma, move_seed)
        refined = refine_partition(level_graph, level_partition, gamma, refine_seed, theta)
        if refined.community_count == level_graph.node_count:
            # Aggregation would be the identity; this level has converged.
            break
        # Each refined community becomes a node that inherits the community
        # its members held before refinement.
        first_member = np.unique(refined.labels, return_index=True)[1]
        lifted = level_partition.labels[first_member]
        aggregate = aggregate_graph(level_graph, refined)
        if aggregate.total_weight < 0.0:   # a near-zero m, summed anew, rounded below 0
            break
        level_graph = aggregate
        node_map = refined.labels[node_map]
        level_partition = Partition.from_labels(level_graph, lifted)
    return level_partition.labels[node_map]


def leiden(graph: SpeakerGraph, config: LeidenConfig | None = None) -> Partition:
    """Full community-detection loop, reported on the original node set.

    Each iteration runs the local-move / refine / aggregate cascade and
    then restarts it from the resulting flat partition, so individual
    nodes get fresh chances to move after coarse-level rearrangements;
    iterating stops when an iteration improves Q by less than
    GAIN_TOLERANCE or after max_iterations. Because greedy moving can
    settle in a local optimum, the whole climb is repeated from
    singletons `restarts` times with fresh seeded orders and the best
    partition wins. Deterministic given the seed. Graphs with negative total
    weight m are refused: Q is undefined there. Node degrees may be negative.
    """
    if config is None:
        config = LeidenConfig()
    if graph.node_count == 0:
        raise ValueError("graph needs at least one node")
    _check_total_weight(graph)

    rng = np.random.default_rng(config.seed)
    best_labels = None
    best_q = -np.inf
    for _ in range(config.restarts):
        flat = np.arange(graph.node_count, dtype=np.int64)
        prev_q = -np.inf
        for _ in range(config.max_iterations):
            flat = _hierarchy_pass(graph, flat, config.gamma, rng, config.theta)
            q = quality(graph, Partition.from_labels(graph, flat), config.gamma)
            if q - prev_q < GAIN_TOLERANCE:
                break
            prev_q = q
        if q > best_q:
            best_q = q
            best_labels = flat
    return Partition.from_labels(graph, best_labels)
