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

Local moving, refinement and aggregation each run as one C call per level
(`_sweeps.c`, built on first use by `_kernel.py`); Python keeps the random
draws and the input checks, and the kernels own their scratch. Each sweep
sums the K_c it needs from the labels and ends by compacting its labels by
first appearance, so its result needs no `Partition.from_labels`;
aggregation emits the finished CSR of the aggregate graph. Refinement is
greedy: a node joins the part of largest gain, the zero-temperature limit
of Traag et al.'s randomized merge. The sweeps are bit-exact with the
per-node loops the tests keep as oracles, and aggregation with the numpy
code they keep: the same visit order, sums from 0.0 in CSR row or
edge-stream order, every gain in the same operand order, the smallest label
among equal best gains (what an ascending scan picks), and
-ffp-contract=off, so no multiply-add is fused.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .graphs import SpeakerGraph, seeded_rng

#: Quality gains at or below this threshold are treated as noise.
GAIN_TOLERANCE = 1e-12
#: Climbs from singletons per run; the best partition wins.
RESTARTS = 4
#: Cap on the cascades one climb runs before it stops improving.
MAX_ITERATIONS = 100


@dataclass
class LeidenConfig:
    gamma: float = 0.6
    seed: int = 0

    def __post_init__(self):
        if not 0 < self.gamma < np.inf:
            raise ValueError(f"gamma must be finite and positive, got {self.gamma}")
        seeded_rng(self.seed)   # refuses a seed leiden could not draw from


@dataclass
class Partition:
    """Node-to-community assignment: labels are contiguous in 0..C-1, C
    being community_count, with no empty community."""

    labels: np.ndarray
    community_count: int

    @classmethod
    def from_labels(cls, graph: SpeakerGraph, labels) -> "Partition":
        """Build a partition from arbitrary labels, compacting them to
        0..C-1 by first appearance."""
        labels = np.asarray(labels, dtype=np.int64)
        if labels.shape != (graph.node_count,):
            raise ValueError(
                f"{labels.size} labels do not cover a graph of {graph.node_count} nodes"
            )
        _, first, inverse = np.unique(labels, return_index=True, return_inverse=True)
        return cls(np.argsort(np.argsort(first))[inverse], first.size)


def _community_sums(graph: SpeakerGraph, labels: np.ndarray, c: int):
    """(m_c, K_c) for int64 labels in 0..c-1 by the community_sums kernel: m_c
    is the inside edges' weight, summed in stream order, plus the self-loops."""
    from ._kernel import load

    sums = np.empty((3, c))
    load().community_sums(graph.node_count, c, graph.edge_count, labels, graph.self_loops,
                          graph.weighted_degrees, *graph.edges, sums)
    return sums[0] + sums[1], sums[2]


def quality(graph: SpeakerGraph, partition: Partition, gamma: float) -> float:
    """Evaluate Q from the partition's labels."""
    if partition.labels.shape != (graph.node_count,):
        raise ValueError("partition does not cover the graph")
    labels, m = _checked_labels(graph, partition), graph.total_weight
    if m == 0.0:
        return 0.0
    internal, degree = _community_sums(graph, labels, partition.community_count)
    return float(internal.sum() - gamma * np.sum(degree**2) / (4.0 * m))


def _check_total_weight(graph: SpeakerGraph) -> None:
    if not np.isfinite(graph.total_weight):
        raise ValueError(f"graph has non-finite total weight m = {graph.total_weight}")
    if graph.total_weight < 0.0:
        raise ValueError(f"graph has negative total weight m = {graph.total_weight:.6g}")


def _valid_labels(graph: SpeakerGraph, partition: Partition) -> np.ndarray:
    """The labels as a fresh int64 array, once what the compiled kernels index
    by is checked: n integer labels in 0..C-1, none unused."""
    labels, c = partition.labels, partition.community_count
    if labels.shape != (graph.node_count,) or labels.dtype.kind not in "iu":
        raise ValueError(f"partition needs {graph.node_count} integer labels, "
                         f"got {labels.dtype} labels of shape {labels.shape}")
    if labels.size and (labels.min() < 0 or labels.max() >= c):
        raise ValueError(f"partition labels must lie in 0..{c - 1}")
    labels = labels.astype(np.int64)
    if np.bincount(labels, minlength=c).min(initial=1) == 0:
        raise ValueError("partition has an empty community")
    return labels


def _checked_labels(graph: SpeakerGraph, partition: Partition) -> np.ndarray:
    """_valid_labels, once m >= 0 is checked: the sweeps divide by 2m."""
    _check_total_weight(graph)
    return _valid_labels(graph, partition)


def _counted(count: int, kernel: str, graph: SpeakerGraph) -> int:
    """A kernel's returned count; -1 means it could not allocate its scratch."""
    if count < 0:
        raise MemoryError(f"{kernel}: cannot allocate scratch for a graph of "
                          f"{graph.node_count} nodes and {graph.edge_count} edges")
    return count


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

    queue = np.random.default_rng(seed).permutation(n)
    count = load().local_move(n, graph.indptr, graph.indices, graph.weights,
                              graph.weighted_degrees, gamma, 2.0 * m, GAIN_TOLERANCE,
                              partition.community_count, labels, queue)
    return Partition(labels, _counted(count, "local_move", graph))


def refine_partition(graph: SpeakerGraph, partition: Partition, gamma: float,
                     seed: int = 0) -> Partition:
    """Split each community into well-connected sub-communities.

    Starts from singletons and only merges nodes into sub-communities of
    their own original community, so the result always refines the input.
    A node is only merged while still alone, and only when both it and the
    target are well connected inside the original community; it merges
    greedily into the best-gain target, ties going to the smallest label.
    """
    parent = _checked_labels(graph, partition)
    n, m = graph.node_count, graph.total_weight
    if n == 0 or m == 0.0:
        return Partition.from_labels(graph, np.arange(n))

    from ._kernel import load

    # Each community of two or more members is visited in its own random
    # order, the orders drawn in label order and handed over back to back.
    rng = np.random.default_rng(seed)
    by_parent = np.argsort(parent, kind="stable")
    bounds = np.searchsorted(parent[by_parent], np.arange(partition.community_count + 1))
    order = np.concatenate([np.empty(0, np.int64)] + [
        rng.permutation(by_parent[bounds[c]:bounds[c + 1]])
        for c in np.flatnonzero(np.diff(bounds) > 1)])
    ref_labels = np.empty(n, np.int64)
    count = load().refine_partition(n, graph.indptr, graph.indices, graph.weights,
                                    graph.weighted_degrees, parent, gamma, 2.0 * m,
                                    GAIN_TOLERANCE, order, order.size, ref_labels)
    return Partition(ref_labels, _counted(count, "refine_partition", graph))


def aggregate_graph(graph: SpeakerGraph, refined: Partition) -> SpeakerGraph:
    """Collapse each refined community c into super-node c.

    Cross-community weights accumulate into single edges, listed in sorted
    (a, b) order; intra-community weights (plus pre-existing self-loops)
    accumulate on the new node's self-loop, so the total weighted degree is
    conserved exactly. Each self-loop sums the old self-loops first, then the
    inside edges in stream order; each edge sums its pair's weights from 0.0
    in stream order. Graphs of any total weight are accepted.
    """
    labels = _valid_labels(graph, refined)
    c, edges = refined.community_count, graph.edge_count

    from ._kernel import load

    loops, indptr = np.empty(c), np.empty(c + 1, np.int64)
    indices, weights = np.empty(2 * edges, np.int64), np.empty(2 * edges)
    pairs = _counted(load().aggregate_graph(graph.node_count, c, edges, labels, graph.self_loops,
                                            *graph.edges, loops, indptr, indices, weights),
                     "aggregate_graph", graph)
    # Copies trimmed to the pairs, so the aggregate pins no parent-sized buffer.
    return SpeakerGraph._adopt(indptr, indices[:2 * pairs].copy(), weights[:2 * pairs].copy(),
                               loops)


def _hierarchy_pass(graph: SpeakerGraph, flat_labels: np.ndarray, gamma: float,
                    rng) -> np.ndarray:
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
        refined = refine_partition(level_graph, level_partition, gamma, refine_seed)
        if refined.community_count == level_graph.node_count:
            # Aggregation would be the identity; this level has converged.
            break
        # Each refined community becomes a node that inherits the community
        # its members held before refinement (all of them held the same one).
        lifted = np.empty(refined.community_count, np.int64)
        lifted[refined.labels] = level_partition.labels
        aggregate = aggregate_graph(level_graph, refined)
        if aggregate.total_weight < 0.0:   # a near-zero m, summed anew, rounded below 0
            break
        level_graph = aggregate
        node_map = refined.labels[node_map]
        # Compact as lifted: parts nest in parents, both compacted by first node.
        level_partition = Partition(lifted, level_partition.community_count)
    return level_partition.labels[node_map]


def leiden(graph: SpeakerGraph, config: LeidenConfig | None = None) -> Partition:
    """Full community-detection loop, reported on the original node set.

    Each iteration runs the local-move / refine / aggregate cascade and
    then restarts it from the resulting flat partition, so individual
    nodes get fresh chances to move after coarse-level rearrangements;
    iterating stops when an iteration improves Q by less than
    GAIN_TOLERANCE or after MAX_ITERATIONS. Because greedy moving can
    settle in a local optimum, the whole climb is repeated from
    singletons RESTARTS times with fresh seeded orders and the best
    partition wins. Deterministic given the seed. Graphs with a negative or
    non-finite total weight m are refused: Q is undefined there. Node
    degrees may be negative.
    """
    if config is None:
        config = LeidenConfig()
    if graph.node_count == 0:
        raise ValueError("graph needs at least one node")
    _check_total_weight(graph)

    rng = np.random.default_rng(config.seed)
    best_labels = None
    best_q = -np.inf
    for _ in range(RESTARTS):
        flat = np.arange(graph.node_count, dtype=np.int64)
        prev_q = -np.inf
        for _ in range(MAX_ITERATIONS):
            flat = _hierarchy_pass(graph, flat, config.gamma, rng)
            q = quality(graph, Partition.from_labels(graph, flat), config.gamma)
            if q - prev_q < GAIN_TOLERANCE:
                break
            prev_q = q
        if q > best_q:
            best_q = q
            best_labels = flat
    return Partition.from_labels(graph, best_labels)
