"""Affinity graphs over speech-segment embeddings.

Everything downstream (linkage refinement, community detection, overlap
assignment) runs on the structures built here: the dense cosine affinity
matrix, the union-of-top-k sparsified graph, pivot-centered sub-graphs for
the linkage predictor, and the max-merge of refined sub-graph edges. The
sparse graphs are SpeakerGraph objects: immutable CSR graphs, built from
edge arrays in one compiled pass, whose rows keep insertion order.
"""

from __future__ import annotations

import ctypes
import numbers
import struct
from dataclasses import dataclass
from pathlib import Path

import numpy as np

EMBEDDING_MAGIC = b"EMB1"
# Rows per knn_graph block and pivots per refine_graph block: few enough
# that a block's arrays and activations stay in cache and off peak memory.
BLOCK = 32


def seeded_rng(seed) -> np.random.Generator:
    """numpy's generator for a non-negative integer seed; any other seed
    is refused with one line that names it."""
    if not isinstance(seed, numbers.Integral) or seed < 0:
        raise ValueError(f"seed must be a non-negative integer, got {seed}")
    return np.random.default_rng(seed)


@dataclass
class EmbeddingSet:
    """Per-segment speaker embeddings with their timestamps.

    vectors: (N, D) float array, one row per speech segment.
    segments: (N, 2) float array of (start_seconds, duration_seconds).
    """

    vectors: np.ndarray
    segments: np.ndarray

    def __post_init__(self):
        self.vectors = np.asarray(self.vectors, dtype=np.float64)
        self.segments = np.asarray(self.segments, dtype=np.float64).reshape(-1, 2)
        if self.vectors.ndim != 2:
            raise ValueError("vectors must be a 2-d array")
        bad = np.flatnonzero(~np.isfinite(self.vectors).all(axis=1))
        if bad.size:
            raise ValueError(f"segment {bad[0]} has a non-finite embedding")
        if self.segments.shape[0] != self.vectors.shape[0]:
            raise ValueError(
                f"{self.segments.shape[0]} segments do not match "
                f"{self.vectors.shape[0]} embedding rows"
            )
        with np.errstate(over="ignore", invalid="ignore"):   # inf + -inf, or an end past 1.8e308
            bad = np.flatnonzero(~np.isfinite(self.segments.sum(axis=1)))
        if bad.size:
            raise ValueError(f"segment {bad[0]} has a non-finite time")
        starts = self.segments[:, 0]
        durations = self.segments[:, 1]
        if starts.size:
            if (starts < 0).any() or (durations <= 0).any():
                raise ValueError("segments need start >= 0 and duration > 0")
            if (np.diff(starts) < 0).any():
                raise ValueError("segment start times must be non-decreasing")

    @property
    def count(self) -> int:
        return self.vectors.shape[0]

    @property
    def dim(self) -> int:
        return self.vectors.shape[1]


def write_embeddings(path, emb: EmbeddingSet) -> None:
    """Serialize an EmbeddingSet (vectors as float32, timestamps as float64)."""
    header = struct.pack("<4sII", EMBEDDING_MAGIC, emb.count, emb.dim)
    body = emb.vectors.astype("<f4").tobytes() + emb.segments.astype("<f8").tobytes()
    Path(path).write_bytes(header + body)


def read_embeddings(path) -> EmbeddingSet:
    """Load an embedding file written by :func:`write_embeddings`."""
    data = Path(path).read_bytes()
    if len(data) < 12:
        raise ValueError(f"{path}: truncated embedding file")
    magic, n, d = struct.unpack_from("<4sII", data, 0)
    if magic != EMBEDDING_MAGIC:
        raise ValueError(f"{path}: bad magic {magic!r}, expected {EMBEDDING_MAGIC!r}")
    expected = 12 + n * d * 4 + n * 16
    if len(data) != expected:
        raise ValueError(f"{path}: expected {expected} bytes, found {len(data)}")
    vectors = np.frombuffer(data, dtype="<f4", count=n * d, offset=12).reshape(n, d)
    segments = np.frombuffer(data, dtype="<f8", count=n * 2, offset=12 + n * d * 4)
    return EmbeddingSet(vectors.astype(np.float64), segments.reshape(n, 2).copy())


def cosine_affinity(emb: EmbeddingSet) -> np.ndarray:
    """Dense cosine similarity between all segment pairs.

    Returns an (N, N) matrix that is exactly symmetric with a unit
    diagonal and values clipped to [-1, 1]. Zero-norm rows are rejected
    because cosine similarity is undefined for them.
    """
    norms = np.linalg.norm(emb.vectors, axis=1)
    bad = np.flatnonzero(norms == 0.0)
    if bad.size:
        raise ValueError(f"segment {bad[0]} has a zero-norm embedding")
    unit = emb.vectors / norms[:, None]
    # numpy computes a matrix times its own transposed view as a symmetric
    # rank-k update and mirrors the triangle, so this is exactly symmetric.
    scores = unit @ unit.T
    np.clip(scores, -1.0, 1.0, out=scores)
    np.fill_diagonal(scores, 1.0)
    return scores


class SpeakerGraph(ctypes.Structure):
    """Immutable weighted undirected graph over segment nodes, in CSR form.

    Every pair edge is stored in both rows of (indptr, indices, weights);
    row order equals insertion order, and a pair given more than once keeps
    its first position and its largest weight. Self-loops only appear on
    aggregated graphs and live in the self_loops vector; a self-loop counts
    twice in a node's weighted degree. Derived once from the rows and
    self-loops: weighted_degrees, total_weight (m) and edges, the (heads,
    tails, weights) stream of pair edges with head < tail in row order,
    edge_count long. A SpeakerGraph is the kernels' `graph` struct, field
    for field; _seal fills it, and copies and pickles are sealed anew.
    """

    _fields_ = [("_n", ctypes.c_int64), ("_edges", ctypes.c_int64),
                *((name, ctypes.c_void_p) for name in
                  ("_ptr", "_nbr", "_w", "_k", "_loops", "_heads", "_tails", "_weights")),
                ("_m", ctypes.c_double)]

    def __init__(self, node_count: int, heads=(), tails=(), weights=(), self_loops=None):
        if node_count < 0:
            raise ValueError("node_count must be non-negative")
        n = node_count
        heads = np.ascontiguousarray(heads, dtype=np.int64).reshape(-1)
        tails = np.ascontiguousarray(tails, dtype=np.int64).reshape(-1)
        weights = np.ascontiguousarray(weights, dtype=np.float64).reshape(-1)
        if not heads.shape == tails.shape == weights.shape:
            raise ValueError("heads, tails and weights must have the same length")
        loop = np.flatnonzero(heads == tails)
        if loop.size:
            raise ValueError(f"self-loop on node {heads[loop[0]]} not allowed as a pair edge")
        bad = np.flatnonzero((np.minimum(heads, tails) < 0) | (np.maximum(heads, tails) >= n))
        if bad.size:
            raise ValueError(f"edge ({heads[bad[0]]}, {tails[bad[0]]}) outside graph of {n} nodes")
        if not np.isfinite(weights).all():
            raise ValueError("edge weights must be finite")
        loops = np.array(np.zeros(n) if self_loops is None else self_loops, dtype=float)
        if loops.shape != (n,) or not np.isfinite(loops).all():
            raise ValueError("self_loops must hold one finite weight per node")

        from ._kernel import load

        entries = heads.size
        indptr = np.empty(n + 1, np.int64)
        indices, both = np.empty(2 * entries, np.int64), np.empty(2 * entries)
        pairs = load().build_graph(n, entries, heads, tails, weights, indptr, indices, both)
        if pairs < 0:
            raise MemoryError(f"build_graph: cannot allocate scratch for a graph of {n} nodes "
                              f"and {entries} edges")
        # Copies trimmed to the pairs, so the graph pins no room left for repeats.
        self._seal(indptr, indices[:2 * pairs].copy(), both[:2 * pairs].copy(), loops)

    def _seal(self, indptr, indices, weights, self_loops) -> None:
        """Takes the rows and self-loops, checks each array once to be int64 or
        float64 in C order, makes it read-only and keeps it alive, and fills
        the fields, deriving the degrees, stream and m in one kernel call; m is
        the stream's weights summed in stream order plus np.sum of the
        self-loops, each bit for bit as numpy sums them."""
        from ._kernel import load

        n, edges = len(self_loops), len(indices) // 2   # each pair sits in two rows
        self.indptr, self.indices, self.weights, self.self_loops = (indptr, indices, weights,
                                                                    self_loops)
        self.weighted_degrees = np.empty(n)
        self.edges = (np.empty(edges, np.int64), np.empty(edges, np.int64), np.empty(edges))
        arrays = (indptr, indices, weights, self.weighted_degrees, self_loops, *self.edges)
        for array in arrays:
            if array.dtype not in (np.int64, np.float64) or not array.flags.c_contiguous:
                raise ValueError(f"a kernel array must be int64 or float64 in C order, "
                                 f"got {array.dtype} with strides {array.strides}")
            array.flags.writeable = False
        ctypes.Structure.__init__(self, n, edges, *(array.ctypes.data for array in arrays))
        load().seal_graph(self)

    node_count = property(lambda self: self._n)
    edge_count = property(lambda self: self._edges)
    total_weight = property(lambda self: self._m)

    @classmethod
    def _adopt(cls, indptr, indices, weights, self_loops) -> "SpeakerGraph":
        """A graph over float64 and int64 arrays already laid out as the
        constructor lays them out (rows in pair order), taken as they are;
        aggregate_graph's kernel and knn_graph's complete layout build them."""
        graph = cls.__new__(cls)
        graph._seal(indptr, indices, weights, self_loops)
        return graph

    def __reduce__(self):
        return SpeakerGraph._adopt, (self.indptr, self.indices, self.weights, self.self_loops)


def top_neighbors(aff: np.ndarray, k: int, rows: np.ndarray) -> np.ndarray:
    """(len(rows), k) ids of the k largest affinities in each given row, the
    row's own node left out, largest first with ties going to lower ids.
    k outside [0, max(N - 1, 0)] and rows outside the graph are refused."""
    n = aff.shape[1]
    if not 0 <= k <= max(n - 1, 0):
        raise ValueError(f"k must lie in [0, {max(n - 1, 0)}] for a graph of {n} nodes, got {k}")
    bad = rows[(rows < 0) | (rows >= n)]
    if bad.size:
        raise ValueError(f"row {bad[0]} outside graph of {n} nodes")
    scores = np.negative(aff[rows])
    scores[np.arange(rows.size), rows] = np.inf
    ids = np.broadcast_to(np.arange(n), scores.shape)
    if 0 < k < n - 1:
        # Keep each row's scores up to its k-th smallest, in id order; where
        # more than k reach the k-th, those equal to it go to the lowest ids.
        kth = np.partition(scores, k - 1, axis=1)[:, k - 1:k]
        keep = scores <= kth
        tied = np.flatnonzero(keep.sum(axis=1) > k)
        if tied.size:
            at = scores[tied] == kth[tied]
            room = k - np.count_nonzero(scores[tied] < kth[tied], axis=1)
            keep[tied] &= ~at | (np.cumsum(at, axis=1) <= room[:, None])
        ids = np.flatnonzero(keep).reshape(-1, k) % n
        scores = np.take_along_axis(scores, ids, axis=1)
    order = np.argsort(scores, axis=1, kind="stable")[:, :k]
    return np.take_along_axis(ids, order, axis=1)


def _square(aff: np.ndarray) -> int:
    """N for an (N, N) affinity; any other shape is refused with one line."""
    if aff.ndim != 2 or aff.shape[0] != aff.shape[1]:
        raise ValueError(f"affinity must be a square matrix, got shape {aff.shape}")
    return aff.shape[0]


def knn_graph(aff: np.ndarray, k: int) -> SpeakerGraph:
    """Sparsify an affinity matrix to the union-of-top-k neighbor graph.

    An edge (i, j) survives when j ranks among i's top-k affinities or i
    among j's; its weight is the raw (signed) affinity. k is clamped to
    N - 1, so k = N - 1 reproduces the full graph minus the diagonal. A
    non-finite entry off the diagonal is refused at any k.
    """
    if k < 1:
        raise ValueError("k must be >= 1")
    n = _square(aff)
    finite = np.isfinite(aff)
    finite.flat[::n + 1] = True   # the diagonal is never read
    if not finite.all():
        raise ValueError("edge weights must be finite")
    if k >= n - 1:
        return _complete_graph(np.ascontiguousarray(aff, dtype=np.float64), n)
    tails = np.concatenate([top_neighbors(aff, k, np.arange(start, min(n, start + BLOCK)))
                            for start in range(0, n, BLOCK)]).ravel()
    heads = np.repeat(np.arange(n), k)
    return SpeakerGraph(n, heads, tails, aff[heads, tails])


def _complete_graph(aff: np.ndarray, n: int) -> SpeakerGraph:
    """knn_graph at k >= N - 1: the rows of the union-of-top-k build, laid out
    by the complete_graph kernel without its sort and dedup of N(N-1) entries."""
    from ._kernel import load

    indptr, entries = np.empty(n + 1, np.int64), n * (n - 1)
    indices, weights = np.empty(entries, np.int64), np.empty(entries)
    if load().complete_graph(n, aff, indptr, indices, weights) < 0:
        raise MemoryError(f"complete_graph: cannot allocate scratch for a graph of {n} nodes")
    return SpeakerGraph._adopt(indptr, indices, weights, np.zeros(n))


@dataclass
class SubGraph:
    """A stack of equal-size pivot-centered local graphs for the linkage
    predictor. members holds one row per sub-graph, its pivot first and then
    the pivot's nearest neighbors, so the pivots are members[:, 0]. features
    holds the member embeddings minus the pivot's (row 0 of each is zero);
    adjacency is the members' pairwise affinity clamped at zero with a zero
    diagonal.
    """

    members: np.ndarray
    features: np.ndarray
    adjacency: np.ndarray

    def __post_init__(self):
        if self.members.ndim != 2 or self.features.shape[:-1] != self.members.shape:
            raise ValueError(f"a SubGraph is a stack: members {self.members.shape} need two "
                             f"axes and features {self.features.shape} one more")


def build_subgraph(aff: np.ndarray, emb: EmbeddingSet, pivots, k: int) -> SubGraph:
    """The stacked sub-graphs of the given 1-D array of pivots, in that
    order, each of a pivot and its top-min(k, N-1) neighbors."""
    n = _square(aff)
    pivots = np.asarray(pivots)
    if pivots.ndim != 1 or pivots.dtype.kind not in "iu":
        raise ValueError(f"pivots must be a 1-d integer array, got {pivots.ndim}-d {pivots.dtype}")
    bad = pivots[(pivots < 0) | (pivots >= n)]
    if bad.size:
        raise ValueError(f"pivot {bad[0]} outside graph of {n} nodes")
    if k < 1:
        raise ValueError("k must be >= 1")
    members = np.column_stack((pivots, top_neighbors(aff, max(min(k, n - 1), 0), pivots)))
    features = emb.vectors[members]
    features -= emb.vectors[pivots][:, None, :]
    adjacency = np.take(aff.ravel(), members[:, :, None] * n + members[:, None, :])
    np.maximum(adjacency, 0.0, out=adjacency)
    diagonal = np.arange(members.shape[1])
    adjacency[:, diagonal, diagonal] = 0.0
    return SubGraph(members, features, adjacency)


def merge_subgraphs(members: np.ndarray, probs: np.ndarray, node_count: int) -> SpeakerGraph:
    """Combine linkage probabilities into one refined graph.

    members: (P, k+1) sub-graph members, the pivots first; probs: (P, k)
    probabilities of the edges from each pivot to its neighbors, in [0, 1].
    A pair predicted by several sub-graphs keeps its largest probability.
    """
    members, probs = np.asarray(members), np.asarray(probs, dtype=np.float64)
    heads = np.broadcast_to(members[:, :1], probs.shape)
    bad = ~((probs >= 0.0) & (probs <= 1.0))
    if bad.any():
        raise ValueError(f"sub-graph of pivot {heads[bad][0]}: edge probability outside [0, 1]")
    return SpeakerGraph(node_count, heads, members[:, 1:], probs)
