"""Affinity graphs over speech-segment embeddings.

Everything downstream (linkage refinement, community detection, overlap
assignment) runs on the structures built here: the dense cosine affinity
matrix, the union-of-top-k sparsified graph, pivot-centered sub-graphs for
the linkage predictor, and the max-merge of refined sub-graph edges. The
sparse graphs are SpeakerGraph objects: immutable CSR graphs, built from
edge arrays in one compiled pass, whose rows keep insertion order.
"""

from __future__ import annotations

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
        bad = np.flatnonzero(~np.isfinite(self.segments).all(axis=1))
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
    scores = unit @ unit.T
    scores = np.clip((scores + scores.T) / 2.0, -1.0, 1.0)
    np.fill_diagonal(scores, 1.0)
    return scores


class SpeakerGraph:
    """Immutable weighted undirected graph over segment nodes, in CSR form.

    Every pair edge is stored in both rows of (indptr, indices, weights);
    row order equals insertion order, and a pair given more than once keeps
    its first position and its largest weight. Self-loops only appear on
    aggregated graphs and live in the self_loops vector; a self-loop counts
    twice in a node's weighted degree. Derived once from the rows and
    self-loops: weighted_degrees, total_weight (m) and edges, the (heads,
    tails, weights) stream of pair edges with head < tail in row order.
    """

    def __init__(self, node_count: int, heads=(), tails=(), weights=(), self_loops=None):
        if node_count < 0:
            raise ValueError("node_count must be non-negative")
        n = self.node_count = node_count
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
        self.self_loops = np.array(np.zeros(n) if self_loops is None else self_loops, dtype=float)
        if self.self_loops.shape != (n,):
            raise ValueError("self_loops must have one entry per node")

        from ._kernel import load

        entries = heads.size
        self.indptr = np.empty(n + 1, np.int64)
        indices, both = np.empty(2 * entries, np.int64), np.empty(2 * entries)
        pairs = load().build_graph(n, entries, heads, tails, weights, self.indptr, indices, both)
        if pairs < 0:
            raise MemoryError(f"build_graph: cannot allocate scratch for a graph of {n} nodes "
                              f"and {entries} edges")
        # Copies trimmed to the pairs, so the graph pins no room left for repeats.
        self.indices, self.weights = indices[:2 * pairs].copy(), both[:2 * pairs].copy()
        self._seal()

    def _seal(self) -> None:
        """Derives weighted_degrees, edges, edge_count and m from the rows
        and self-loops, and makes every array read-only."""
        n = self.node_count
        rows = np.repeat(np.arange(n), np.diff(self.indptr))
        # Each row is summed from 0.0 in row order.
        self.weighted_degrees = 2.0 * self.self_loops + np.bincount(
            rows, weights=self.weights, minlength=n)
        # A pair's head < tail entry sits in the row of its low end.
        upper = rows < self.indices
        self.edges = (rows[upper], self.indices[upper], self.weights[upper])
        self.edge_count = len(self.edges[0])
        # cumsum adds in stream order, as the per-edge sums elsewhere do.
        pair = np.cumsum(self.edges[2])[-1] if self.edge_count else 0.0
        self.total_weight = float(pair + self.self_loops.sum())
        for array in (self.self_loops, self.indices, self.weights, self.indptr,
                      self.weighted_degrees, *self.edges):
            array.flags.writeable = False

    @classmethod
    def _adopt(cls, indptr, indices, weights, self_loops) -> "SpeakerGraph":
        """A graph over float64 and int64 arrays already laid out as the
        constructor lays them out (rows in pair order), taken as they are;
        aggregate_graph's kernel builds them."""
        graph = cls.__new__(cls)
        graph.node_count = len(self_loops)
        graph.indptr, graph.indices, graph.weights = indptr, indices, weights
        graph.self_loops = self_loops
        graph._seal()
        return graph


def top_neighbors(aff: np.ndarray, k: int, rows: np.ndarray) -> np.ndarray:
    """(len(rows), k) ids of the k largest affinities in each given row, the
    row's own node left out, largest first with ties going to lower ids."""
    n = aff.shape[1]
    scores = np.negative(aff[rows])
    scores[np.arange(rows.size), rows] = np.inf
    ids = np.broadcast_to(np.arange(n), scores.shape)
    if k < n - 1:
        # Keep only scores up to each row's k-th smallest, ties included:
        # a stable sort of the exceeds-flag moves them first, in id order.
        beyond = scores > np.partition(scores, k - 1, axis=1)[:, k - 1:k]
        ids = np.argsort(beyond, axis=1, kind="stable")[:, :n - beyond.sum(axis=1).min()]
        scores = np.take_along_axis(scores, ids, axis=1)
    order = np.argsort(scores, axis=1, kind="stable")[:, :k]
    return np.take_along_axis(ids, order, axis=1)


def knn_graph(aff: np.ndarray, k: int) -> SpeakerGraph:
    """Sparsify an affinity matrix to the union-of-top-k neighbor graph.

    An edge (i, j) survives when j ranks among i's top-k affinities or i
    among j's; its weight is the raw (signed) affinity. k is clamped to
    N - 1, so k = N - 1 reproduces the full graph minus the diagonal.
    """
    if k < 1:
        raise ValueError("k must be >= 1")
    n = aff.shape[0]
    if n <= 1:
        return SpeakerGraph(n)
    k_eff = min(k, n - 1)
    tails = np.concatenate([top_neighbors(aff, k_eff, np.arange(start, min(n, start + BLOCK)))
                            for start in range(0, n, BLOCK)]).ravel()
    heads = np.repeat(np.arange(n), k_eff)
    return SpeakerGraph(n, heads, tails, aff[heads, tails])


@dataclass
class SubGraph:
    """Pivot-centered local graph fed to the linkage predictor, or a stack
    of equal-size ones along a leading axis.

    members lists the pivot first, then its nearest neighbors. features
    holds the member embeddings with the pivot's embedding subtracted
    (row 0 is therefore zero); adjacency is the members' pairwise affinity
    clamped at zero with a zero diagonal. A stack has an array of pivots
    and one more leading axis on every other field.
    """

    pivot: int | np.ndarray
    members: np.ndarray
    features: np.ndarray
    adjacency: np.ndarray


def build_subgraph(aff: np.ndarray, emb: EmbeddingSet, pivot, k: int) -> SubGraph:
    """Build the sub-graph of `pivot` and its top-min(k, N-1) neighbors;
    given an array of pivots, their sub-graphs stacked in that order."""
    n = aff.shape[0]
    pivots = np.asarray(pivot, dtype=np.int64)
    bad = pivots[(pivots < 0) | (pivots >= n)]
    if bad.size:
        raise ValueError(f"pivot {bad[0]} outside graph of {n} nodes")
    if k < 1:
        raise ValueError("k must be >= 1")
    neighbors = top_neighbors(aff, min(k, n - 1), pivots.reshape(-1)).reshape(*pivots.shape, -1)
    members = np.concatenate((pivots[..., None], neighbors), axis=-1)
    features = emb.vectors[members]
    features -= emb.vectors[pivots][..., None, :]
    adjacency = np.take(aff.ravel(), members[..., :, None] * n + members[..., None, :])
    np.maximum(adjacency, 0.0, out=adjacency)
    diagonal = np.arange(members.shape[-1])
    adjacency[..., diagonal, diagonal] = 0.0
    return SubGraph(pivot=pivot, members=members, features=features, adjacency=adjacency)


def merge_subgraphs(refined, node_count: int) -> SpeakerGraph:
    """Combine per-pivot linkage probabilities into one refined graph.

    refined: iterable of (pivot, neighbor ids, edge probabilities), one
    entry per sub-graph or per stack of them (pivots in an array). A pair
    predicted by several sub-graphs keeps its largest probability.
    Probabilities must lie in [0, 1].
    """
    parts = []
    for pivot, neighbors, probs in refined:
        probs = np.asarray(probs, dtype=np.float64)
        heads = np.broadcast_to(np.asarray(pivot)[..., None], probs.shape)
        bad = ~((probs >= 0.0) & (probs <= 1.0))
        if bad.any():
            raise ValueError(f"sub-graph of pivot {heads[bad][0]}: edge probability outside [0, 1]")
        parts.append((heads.ravel(), np.ravel(neighbors), probs.ravel()))
    if not parts:
        return SpeakerGraph(node_count)
    return SpeakerGraph(node_count, *(np.concatenate(column) for column in zip(*parts)))
