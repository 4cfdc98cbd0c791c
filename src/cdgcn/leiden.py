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
"""

from __future__ import annotations

import heapq
from collections import deque
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


def _well_connected(cross, degree, k_total, gamma, two_m):
    """Refinement's well-connectedness test of parts, for scalars or arrays."""
    return cross >= gamma * degree * (k_total - degree) / two_m


def _movers(graph: SpeakerGraph, partition: Partition, gamma: float) -> np.ndarray:
    """Which nodes local_move would move if popped before any other move, all
    scored at once with its sums and gain expressions; O(n * c) memory."""
    n, c = graph.node_count, partition.community_count
    labels, k = partition.labels, graph.weighted_degrees
    two_m = 2.0 * graph.total_weight
    bins = np.repeat(np.arange(n) * c, np.diff(graph.indptr)) + labels[graph.indices]
    w_to = np.bincount(bins, weights=graph.weights, minlength=n * c).reshape(n, c)
    present = np.bincount(bins, minlength=n * c).reshape(n, c) > 0
    g_k = gamma * k
    own = (np.arange(n), labels)
    stay = w_to[own] - g_k * (partition.community_degree[labels] - k) / two_m
    gains = w_to - g_k[:, None] * partition.community_degree / two_m - stay[:, None]
    present[own] = False
    best = np.where(present, gains, -np.inf).max(axis=1)
    fresh = np.where(np.bincount(labels, minlength=c)[labels] > 1, -stay, -np.inf)
    return np.maximum(best, fresh) > GAIN_TOLERANCE


def local_move(graph: SpeakerGraph, partition: Partition, gamma: float, seed: int = 0) -> Partition:
    """Queue-driven single-node moves to the neighboring community (or a
    fresh singleton) with maximal quality gain.

    Nodes start queued in seeded random order; an accepted move re-queues
    the moved node's neighbors outside its new community. Gains must
    exceed GAIN_TOLERANCE, so the quality is non-decreasing and the queue
    drains in finite time. Ties go to the smallest community label, with a
    fresh singleton considered last. Labels are compacted on return.

    A node's weights into its neighboring communities are one np.bincount
    over its CSR row, which sums in row order from 0.0 exactly as a running
    per-neighbor sum does; candidates are scanned in ascending label order.
    From a start that is not all singletons, _movers scores every node
    against it first: nothing changes before the first move, so the queue's
    leading non-movers are dropped, and if none would move the call returns.
    """
    n = graph.node_count
    if n == 0:
        return partition
    m = graph.total_weight
    if m == 0.0:
        return Partition.from_labels(graph, partition.labels)

    ptr = graph.indptr.tolist()
    labels = partition.labels.copy()
    k = graph.weighted_degrees.tolist()
    # Community slots: at most n communities can be live at any point.
    c = partition.community_count
    comm_degree = partition.community_degree.tolist() + [0.0] * (n - c)
    comm_size = np.bincount(labels, minlength=n).tolist()
    free_ids: list[int] = []
    next_fresh = c
    two_m = 2.0 * m

    order = np.random.default_rng(seed).permutation(n)
    in_queue = np.ones(n, dtype=bool)
    # The n x c scores of the pre-pass are kept within O(edges).
    if c < n and n * c <= graph.indices.size:
        lead = _movers(graph, partition, gamma)[order].nonzero()[0]
        if lead.size == 0:
            return Partition.from_labels(graph, labels)
        in_queue[order[:lead[0]]] = False
        order = order[lead[0]:]
    queue = deque(order.tolist())

    while queue:
        i = queue.popleft()
        in_queue[i] = False
        a = labels.item(i)
        s, e = ptr[i], ptr[i + 1]
        row = graph.indices[s:e]
        row_labels = labels[row]
        w_to = np.bincount(row_labels, weights=graph.weights[s:e])
        present = np.bincount(row_labels).nonzero()[0]
        k_i = k[i]
        g_k = gamma * k_i
        # Gain of staying relative to sitting alone in an empty community.
        stay = (w_to.item(a) if a < w_to.size else 0.0) - g_k * (comm_degree[a] - k_i) / two_m
        best_gain = 0.0
        best_comm = None
        for cand, w in zip(present.tolist(), w_to[present].tolist()):
            if cand == a:
                continue
            gain = w - g_k * comm_degree[cand] / two_m - stay
            if gain > best_gain:
                best_gain = gain
                best_comm = cand
        if -stay > best_gain and comm_size[a] > 1:
            best_gain = -stay
            best_comm = -1  # fresh singleton
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
        # A row holds distinct neighbors other than i: one mask keeps row order.
        requeue = row[(row_labels != best_comm) & ~in_queue[row]]
        in_queue[requeue] = True
        queue.extend(requeue.tolist())

    return Partition.from_labels(graph, labels)


def refine_partition(graph: SpeakerGraph, partition: Partition, gamma: float,
                     seed: int = 0, theta: float = 0.0) -> Partition:
    """Split each community into well-connected sub-communities.

    Starts from singletons and only merges nodes into sub-communities of
    their own original community, so the result always refines the input.
    A node is only merged while still alone, and only when both it and the
    target are well connected inside the original community. theta = 0
    merges greedily into the best-gain target; theta > 0 samples targets
    with probability proportional to exp(gain / theta) among non-negative
    gains.

    CSR rows are masked to same-parent neighbors once per call, and a node's
    weights into each part are one np.bincount over its masked row, in row
    order. Every part's well-connectedness is computed once and again only
    when the part grows; targets are scanned in ascending label order.
    """
    n = graph.node_count
    m = graph.total_weight
    if n == 0 or m == 0.0:
        return singleton_partition(graph)

    parent = partition.labels
    k = graph.weighted_degrees
    row_of = np.repeat(np.arange(n), np.diff(graph.indptr))
    inside = parent[row_of] == parent[graph.indices]
    row_of, indices, weights = row_of[inside], graph.indices[inside], graph.weights[inside]
    ptr = np.concatenate(([0], np.cumsum(np.bincount(row_of, minlength=n)))).tolist()
    ref_labels, ref_degree, ref_size = np.arange(n), k.copy(), [1] * n
    # Edge weight from each refined community to the rest of its parent,
    # starting from each node's weight into its own parent community.
    cross = np.bincount(row_of, weights=weights, minlength=n)
    two_m = 2.0 * m
    connected = _well_connected(cross, k, partition.community_degree[parent], gamma, two_m)

    rng = np.random.default_rng(seed)
    by_parent = np.argsort(parent, kind="stable")
    bounds = np.searchsorted(parent[by_parent], np.arange(partition.community_count + 1))
    for comm in range(partition.community_count):
        members = by_parent[bounds[comm]:bounds[comm + 1]]
        if members.size < 2:
            continue
        k_total = float(partition.community_degree[comm])   # Python float: fast scalar math
        for v in rng.permutation(members).tolist():
            # A node is alone exactly while its own part has size 1.
            if ref_size[v] != 1 or not connected[v]:
                continue
            s, e = ptr[v], ptr[v + 1]
            row_labels = ref_labels[indices[s:e]]
            w_to = np.bincount(row_labels, weights=weights[s:e])
            cands = np.bincount(row_labels).nonzero()[0]
            cands = cands[connected[cands]]
            gains = w_to[cands] - gamma * k[v] * ref_degree[cands] / two_m
            target = None
            if theta == 0.0:
                if gains.size and gains.max() > GAIN_TOLERANCE:
                    target = cands.item(gains.argmax())   # the first, smallest label
            else:
                keep = gains >= 0.0
                if keep.any():
                    gains = gains[keep]
                    odds = np.exp((gains - gains.max()) / theta)
                    # Staying put competes with gain zero.
                    stay_weight = np.exp((0.0 - gains.max()) / theta)
                    total = odds.sum() + stay_weight
                    pick = rng.uniform(0.0, total)
                    acc = 0.0
                    for cand, wgt in zip(cands[keep].tolist(), odds.tolist()):
                        acc += wgt
                        if pick < acc:
                            target = cand
                            break
            if target is None:
                continue
            ref_degree[target] += k[v]
            cross[target] += cross[v] - 2.0 * w_to[target]
            connected[target] = _well_connected(cross[target], ref_degree[target], k_total,
                                                gamma, two_m)
            ref_size[target] += 1
            ref_size[v] = 0
            ref_labels[v] = target

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
        level_graph = aggregate_graph(level_graph, refined)
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
    if graph.total_weight < 0.0:
        raise ValueError(f"graph has negative total weight m = {graph.total_weight:.6g}")

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
