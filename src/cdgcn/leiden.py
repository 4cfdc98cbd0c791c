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

Each cascade is two C calls (`_sweeps.c`, built on first use by
`_kernel.py`): level 0's local move, then `climb`, which runs level 0's
refinement and every level after it in one loop whose aggregates never leave
C; each `quality` is one more. The exported phases run one phase each
through the same C code. Every call passes the SpeakerGraph itself, which is
the kernels' `graph` struct and whose arrays were checked when it was
sealed; the kernels check their labels, derive 2m from m themselves, and
draw the sweeps' orders from numpy's generator, reproduced in C and seeded
per level from `leiden`'s own generator, which the climb draws from through
numpy's `next_uint32`. Each sweep and each level's lift compact labels by
first appearance, so a climb's flat labels go to `quality` and the next
climb as they are, and `leiden` calls `Partition.from_labels` once, for its
answer. Refinement is greedy: a node joins the part of largest gain, the
zero-temperature limit of Traag et al.'s randomized merge. The kernels are
bit-exact with the per-node loops and numpy code the tests keep as oracles,
the climb with the level-by-level pass: the same visit order, sums from 0.0
in CSR row or edge-stream order, every gain in the same operand order, the
smallest label among equal best gains (what an ascending scan picks), and
-ffp-contract=off, so no multiply-add is fused.
"""

from __future__ import annotations

import ctypes
import numbers
from dataclasses import dataclass

import numpy as np

from . import _kernel
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
        if not isinstance(self.gamma, numbers.Real):
            raise ValueError(f"gamma must be a real number, got {self.gamma!r}")
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


def quality(graph: SpeakerGraph, partition: Partition, gamma: float) -> float:
    """Evaluate Q from the partition's labels, by the quality kernel."""
    if partition.labels.shape != (graph.node_count,):
        raise ValueError("partition does not cover the graph")
    c, q = partition.community_count, ctypes.c_double()
    labels = _checked_labels(graph, partition)
    _counted(_kernel.load().quality(graph, c, labels, gamma, ctypes.byref(q)), "quality", graph, c)
    return q.value


def _check_total_weight(graph: SpeakerGraph) -> None:
    if not np.isfinite(graph.total_weight):
        raise ValueError(f"graph has non-finite total weight m = {graph.total_weight}")
    if graph.total_weight < 0.0:
        raise ValueError(f"graph has negative total weight m = {graph.total_weight:.6g}")


def _valid_labels(graph: SpeakerGraph, partition: Partition) -> np.ndarray:
    """The labels as a fresh int64 array, once they are n integers; the
    kernels check that they lie in 0..C-1 with none unused."""
    labels = partition.labels
    if labels.shape != (graph.node_count,) or labels.dtype.kind not in "iu":
        raise ValueError(f"partition needs {graph.node_count} integer labels, "
                         f"got {labels.dtype} labels of shape {labels.shape}")
    return labels.astype(np.int64)


def _checked_labels(graph: SpeakerGraph, partition: Partition) -> np.ndarray:
    """_valid_labels, once m >= 0 is checked: the sweeps divide by 2m."""
    _check_total_weight(graph)
    return _valid_labels(graph, partition)


def _seed(seed) -> int:
    """A sweep's seed, which the kernels' generator reads as one 32-bit word."""
    if not isinstance(seed, numbers.Integral) or not 0 <= seed < 2**32:
        raise ValueError(f"seed must be an integer in 0..2**32-1, got {seed!r}")
    return int(seed)


def _counted(count: int, kernel: str, graph: SpeakerGraph, c: int) -> int:
    """A kernel's returned count; -1 means it lacked scratch, -2 and -3 that
    its labels for c communities left 0..c-1 or left a community empty, -4
    that the climb met an aggregate whose total weight is not finite."""
    if count == -4:
        raise ValueError("an aggregate graph has non-finite total weight m")
    if count == -2:
        raise ValueError(f"partition labels must lie in 0..{c - 1}")
    if count == -3:
        raise ValueError("partition has an empty community")
    if count < 0:
        raise MemoryError(f"{kernel}: cannot allocate scratch for a graph of "
                          f"{graph.node_count} nodes and {graph.edge_count} edges")
    return count


def local_move(graph: SpeakerGraph, partition: Partition, gamma: float, seed: int = 0) -> Partition:
    """Queue-driven single-node moves to the neighboring community (or a
    fresh singleton) with maximal quality gain.

    Nodes start queued as np.random.default_rng(seed).permutation orders
    them (seed in 0..2**32-1); an accepted move re-queues the moved node's
    neighbors outside its new community. Gains must exceed GAIN_TOLERANCE,
    so the quality is non-decreasing and the queue drains in finite time.
    Ties go to the smallest community label, with a fresh singleton
    considered last. Labels are compacted on return.
    """
    labels, c = _checked_labels(graph, partition), partition.community_count

    count = _kernel.load().local_move(graph, gamma, GAIN_TOLERANCE, c, labels, _seed(seed))
    return Partition(labels, _counted(count, "local_move", graph, c))


def refine_partition(graph: SpeakerGraph, partition: Partition, gamma: float,
                     seed: int = 0) -> Partition:
    """Split each community into well-connected sub-communities.

    Starts from singletons and only merges nodes into sub-communities of
    their own original community, so the result always refines the input.
    Communities of two or more members are visited in random orders drawn
    in label order from one np.random.default_rng(seed) (seed in
    0..2**32-1). A node is only merged while still alone, and only when both
    it and the target are well connected inside the original community; it
    merges greedily into the best-gain target, ties going to the smallest
    label.
    """
    parent, c = _checked_labels(graph, partition), partition.community_count

    ref_labels = np.empty(graph.node_count, np.int64)
    count = _kernel.load().refine_partition(graph, parent, gamma, GAIN_TOLERANCE, c,
                                            _seed(seed), ref_labels)
    return Partition(ref_labels, _counted(count, "refine_partition", graph, c))


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

    loops, indptr = np.empty(c), np.empty(c + 1, np.int64)
    indices, weights = np.empty(2 * edges, np.int64), np.empty(2 * edges)
    pairs = _counted(_kernel.load().aggregate_graph(graph, c, labels, loops, indptr, indices,
                                                    weights), "aggregate_graph", graph, c)
    # Copies trimmed to the pairs, so the aggregate pins no parent-sized buffer.
    return SpeakerGraph._adopt(indptr, indices[:2 * pairs].copy(), weights[:2 * pairs].copy(),
                               loops)


def climb(graph: SpeakerGraph, moved: Partition, gamma: float, rng) -> Partition:
    """The rest of a local-move / refine / aggregate cascade after level 0's
    local move gave `moved`, in one kernel call: refine, aggregate the parts
    into nodes that start in their members' moved community, move, and so
    on until aggregation would be the identity or an aggregate's m rounds
    below 0. Draws each level's seeds from rng as rng.integers(2**32) does,
    the move's, then the refinement's (level 0 only the refinement's).
    Returns the flat partition of the original nodes, compact as it comes:
    every level is, and its nodes keep the order of their first original
    node."""
    labels, c = _checked_labels(graph, moved), moved.community_count

    bits = rng.bit_generator
    with bits.lock:
        count = _kernel.load().climb(graph, gamma, GAIN_TOLERANCE, c, labels,
                                     bits.ctypes.next_uint32, bits.ctypes.state_address)
    return Partition(labels, _counted(count, "climb", graph, c))


def _hierarchy_pass(graph: SpeakerGraph, partition: Partition, gamma: float,
                    rng) -> Partition:
    """One cascade from the given flat partition: level 0's local move, then
    the climb over it and every level after it."""
    moved = local_move(graph, partition, gamma, int(rng.integers(2**32)))
    return climb(graph, moved, gamma, rng)


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
    best_labels, best_q = None, -np.inf
    for _ in range(RESTARTS):
        flat = Partition(np.arange(graph.node_count, dtype=np.int64), graph.node_count)
        prev_q = -np.inf
        for _ in range(MAX_ITERATIONS):
            flat = _hierarchy_pass(graph, flat, config.gamma, rng)
            q = quality(graph, flat, config.gamma)
            if q - prev_q < GAIN_TOLERANCE:
                break
            prev_q = q
        if q > best_q:
            best_q = q
            best_labels = flat.labels
    return Partition.from_labels(graph, best_labels)
