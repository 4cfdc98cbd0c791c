import re
import struct

import numpy as np
import pytest
from hypothesis import given
from hypothesis import strategies as st

from cdgcn.graphs import (
    EMBEDDING_MAGIC,
    EmbeddingSet,
    SpeakerGraph,
    SubGraph,
    build_subgraph,
    cosine_affinity,
    knn_graph,
    merge_subgraphs,
    read_embeddings,
    write_embeddings,
)
from helpers import edge_dict, graph_from_edges, one_line_error_in_small_memory


def embedding_set(vectors):
    vectors = np.asarray(vectors, dtype=float)
    segments = np.column_stack([np.arange(len(vectors)) * 0.75,
                                np.full(len(vectors), 1.5)])
    return EmbeddingSet(vectors, segments)


def random_embeddings(rng, n, d=5):
    return embedding_set(rng.normal(size=(n, d)) + 0.1)


class TestEmbeddingSet:
    def test_segment_count_mismatch(self):
        with pytest.raises(ValueError, match="segments"):
            EmbeddingSet(np.ones((3, 2)), np.zeros((2, 2)) + [0.0, 1.0])

    def test_decreasing_starts_rejected(self):
        segments = [(1.0, 1.0), (0.5, 1.0)]
        with pytest.raises(ValueError, match="non-decreasing"):
            EmbeddingSet(np.ones((2, 2)), np.array(segments))

    def test_nonpositive_duration_rejected(self):
        with pytest.raises(ValueError, match="duration"):
            EmbeddingSet(np.ones((1, 2)), np.array([(0.0, 0.0)]))

    @pytest.mark.parametrize("bad", [np.nan, np.inf, -np.inf])
    def test_non_finite_embedding_rejected(self, bad):
        vectors = np.ones((3, 2))
        vectors[1, 0] = bad
        with pytest.raises(ValueError, match="segment 1 has a non-finite embedding"):
            embedding_set(vectors)

    @pytest.mark.parametrize("bad", [np.nan, np.inf, -np.inf])
    @pytest.mark.parametrize("column", [0, 1])
    def test_non_finite_time_rejected(self, column, bad):
        segments = np.array([[0.0, 1.5], [0.75, 1.5], [1.5, 1.5]])
        segments[2, column] = bad
        with pytest.raises(ValueError, match="^segment 2 has a non-finite time$"):
            EmbeddingSet(np.ones((3, 2)), segments)

    def test_file_round_trip(self, tmp_path, rng):
        emb = random_embeddings(rng, 7, d=4)
        path = tmp_path / "x.emb"
        write_embeddings(path, emb)
        back = read_embeddings(path)
        assert back.segments == pytest.approx(emb.segments)
        assert back.vectors == pytest.approx(emb.vectors.astype(np.float32))

    def test_bad_magic(self, tmp_path):
        path = tmp_path / "x.emb"
        path.write_bytes(b"NOPE" + b"\x00" * 16)
        with pytest.raises(ValueError, match="EMB1"):
            read_embeddings(path)

    @pytest.mark.parametrize("rows, dims, body", [(2**32 - 1, 2**32 - 1, 64), (2**32 - 1, 1, 64),
                                                  (1, 2**32 - 1, 64), (3, 2, 0)],
                             ids=["huge rows and dims", "huge rows", "huge dims", "header only"])
    def test_bad_header_is_one_line_error(self, tmp_path, rows, dims, body):
        path = tmp_path / "x.emb"
        path.write_bytes(struct.pack("<4sII", EMBEDDING_MAGIC, rows, dims) + bytes(body))
        message = one_line_error_in_small_memory(read_embeddings, path)
        assert message.startswith(f"{path}: expected ")

    def test_truncated_file(self, tmp_path, rng):
        emb = random_embeddings(rng, 4)
        path = tmp_path / "x.emb"
        write_embeddings(path, emb)
        path.write_bytes(path.read_bytes()[:-9])
        with pytest.raises(ValueError):
            read_embeddings(path)


class TestCosineAffinity:
    def test_identical_vectors(self):
        aff = cosine_affinity(embedding_set([[2.0, 1.0], [2.0, 1.0]]))
        assert aff[0, 1] == pytest.approx(1.0)

    def test_orthogonal_vectors(self):
        aff = cosine_affinity(embedding_set([[1.0, 0.0], [0.0, 1.0]]))
        assert aff[0, 1] == pytest.approx(0.0, abs=1e-12)

    def test_hand_computed_pair(self):
        # dot((1,1),(1,0)) / (sqrt(2)*1) = 1/sqrt(2)
        aff = cosine_affinity(embedding_set([[1.0, 1.0], [1.0, 0.0]]))
        assert aff[0, 1] == pytest.approx(1.0 / np.sqrt(2.0), abs=1e-12)

    def test_symmetric_unit_diagonal(self, rng):
        aff = cosine_affinity(random_embeddings(rng, 9))
        assert (aff == aff.T).all()
        assert (np.diag(aff) == 1.0).all()
        assert aff.min() >= -1.0 and aff.max() <= 1.0

    def test_zero_norm_row_rejected(self):
        vectors = np.ones((3, 2))
        vectors[1] = 0.0
        with pytest.raises(ValueError, match="segment 1"):
            cosine_affinity(embedding_set(vectors))

    @given(seed=st.integers(0, 10_000))
    def test_scale_invariance(self, seed):
        rng = np.random.default_rng(seed)
        emb = random_embeddings(rng, 6)
        scales = rng.uniform(0.1, 50.0, size=6)
        scaled = embedding_set(emb.vectors * scales[:, None])
        assert np.abs(cosine_affinity(emb) - cosine_affinity(scaled)).max() < 1e-9


def brute_force_top_k(aff, i, k):
    scores = [(-aff[i, j], j) for j in range(aff.shape[0]) if j != i]
    return [j for _, j in sorted(scores)[:k]]


class TestKnnGraph:
    def test_three_nodes_k2_complete(self, rng):
        aff = cosine_affinity(random_embeddings(rng, 3))
        g = knn_graph(aff, 2)
        assert g.edge_count == 3

    def test_union_semantics_against_brute_force(self, rng):
        for _ in range(10):
            aff = cosine_affinity(random_embeddings(rng, 8))
            k = int(rng.integers(1, 4))
            g = knn_graph(aff, k)
            expected = set()
            for i in range(8):
                for j in brute_force_top_k(aff, i, k):
                    expected.add((min(i, j), max(i, j)))
            assert set(edge_dict(g)) == expected
            for (i, j), w in edge_dict(g).items():
                assert w == aff[i, j]

    @given(n=st.integers(2, 12), k=st.integers(11, 40), seed=st.integers(0, 1000))
    def test_k_clamped_to_full_graph(self, n, k, seed):
        aff = cosine_affinity(random_embeddings(np.random.default_rng(seed), n))
        g = knn_graph(aff, k)
        assert g.edge_count == n * (n - 1) // 2

    def test_k_below_one_rejected(self, rng):
        aff = cosine_affinity(random_embeddings(rng, 3))
        with pytest.raises(ValueError):
            knn_graph(aff, 0)

    def test_single_node(self):
        g = knn_graph(np.ones((1, 1)), 5)
        assert g.node_count == 1 and g.edge_count == 0

    @pytest.mark.parametrize("bad", [np.inf, -np.inf, np.nan])
    @pytest.mark.parametrize("k", [1, 2, 3])
    def test_non_finite_affinity_rejected(self, rng, k, bad):
        """At every k, also where no row ranks the entry among its top k
        (-inf and NaN at k = 1), and at k >= N - 1, where the complete graph
        is laid out directly; the diagonal is never read."""
        aff = cosine_affinity(random_embeddings(rng, 4))
        aff[0, 0] = np.nan
        assert knn_graph(aff, k).node_count == 4
        aff[3, 1] = bad
        with pytest.raises(ValueError, match="^edge weights must be finite$"):
            knn_graph(aff, k)

    @pytest.mark.parametrize("shape", [(5, 3), (3, 5), (4,), (2, 2, 2)])
    def test_non_square_affinity_is_one_line_error(self, rng, shape):
        aff, emb = np.full(shape, 0.5), random_embeddings(rng, 5)
        message = f"^affinity must be a square matrix, got shape {re.escape(str(shape))}$"
        for build in (lambda: knn_graph(aff, 2), lambda: build_subgraph(aff, emb, [0], 2)):
            with pytest.raises(ValueError, match=message):
                build()


class TestBuildSubgraph:
    def test_two_nodes_pivot_row_zero(self, rng):
        emb = random_embeddings(rng, 2)
        sub = build_subgraph(cosine_affinity(emb), emb, pivots=[0], k=1)
        assert sub.members.tolist() == [[0, 1]]
        assert (sub.features[0, 0] == 0.0).all()

    def test_member_count_at_paper_setting(self, rng):
        # k = 6 neighbors out of 12 nodes gives a 7-node sub-graph
        emb = random_embeddings(rng, 12)
        sub = build_subgraph(cosine_affinity(emb), emb, pivots=[3], k=6)
        assert sub.members.shape == (1, 7)
        assert sub.members[0, 0] == 3

    def test_negative_affinity_clamped(self):
        emb = embedding_set([[1.0, 0.0], [-1.0, 0.1], [0.0, 1.0]])
        aff = cosine_affinity(emb)
        assert aff[0, 1] < 0.0
        sub = build_subgraph(aff, emb, pivots=[2], k=2)
        row = {int(m): idx for idx, m in enumerate(sub.members[0])}
        assert sub.adjacency[0, row[0], row[1]] == 0.0
        assert (sub.adjacency >= 0.0).all()
        assert (np.diag(sub.adjacency[0]) == 0.0).all()

    def test_adjacency_symmetric(self, rng):
        emb = random_embeddings(rng, 9)
        sub = build_subgraph(cosine_affinity(emb), emb, pivots=[4], k=5)
        assert (sub.adjacency == sub.adjacency.swapaxes(1, 2)).all()

    def test_pivot_out_of_range(self, rng):
        emb = random_embeddings(rng, 3)
        with pytest.raises(ValueError, match="pivot"):
            build_subgraph(cosine_affinity(emb), emb, pivots=[3], k=1)

    @pytest.mark.parametrize("pivots, shape", [
        (0, "0-d int64"), ([[0, 1]], "2-d int64"), ([0.0], "1-d float64"),
    ], ids=["scalar", "matrix", "float"])
    def test_pivots_must_be_a_1d_integer_array(self, rng, pivots, shape):
        emb = random_embeddings(rng, 3)
        message = f"pivots must be a 1-d integer array, got {shape}"
        with pytest.raises(ValueError, match=f"^{message}$"):
            build_subgraph(cosine_affinity(emb), emb, pivots, k=1)

    def test_unstacked_subgraph_refused(self, rng):
        emb = random_embeddings(rng, 4)
        sub = build_subgraph(cosine_affinity(emb), emb, np.arange(4), k=2)
        with pytest.raises(ValueError, match=r"^a SubGraph is a stack: members \(3,\)"):
            SubGraph(sub.members[0], sub.features[0], sub.adjacency[0])
        with pytest.raises(ValueError, match=r"^a SubGraph is a stack: .* features \(3, 5\) "):
            SubGraph(sub.members, sub.features[0], sub.adjacency)

    @given(n=st.integers(2, 12), k=st.integers(1, 15), seed=st.integers(0, 1000))
    def test_member_invariants(self, n, k, seed):
        emb = random_embeddings(np.random.default_rng(seed), n)
        pivot = seed % n
        sub = build_subgraph(cosine_affinity(emb), emb, [pivot], k)
        members = sub.members[0].tolist()
        assert members.count(pivot) == 1
        assert len(members) == len(set(members)) == min(k, n - 1) + 1


class TestMergeSubgraphs:
    def test_max_rule(self):
        g = merge_subgraphs([[2, 5], [5, 2]], [[0.7], [0.4]], node_count=6)
        assert edge_dict(g) == {(2, 5): 0.7}

    def test_single_occurrence_identity(self):
        g = merge_subgraphs([[0, 3]], [[0.3]], node_count=4)
        assert edge_dict(g) == {(0, 3): 0.3}
        assert g.edge_count == 1

    def test_empty_input(self):
        g = merge_subgraphs(np.zeros((0, 1), np.int64), np.zeros((0, 0)), node_count=5)
        assert g.node_count == 5 and g.edge_count == 0

    def test_probability_out_of_range_rejected(self):
        with pytest.raises(ValueError, match=r"\[0, 1\]"):
            merge_subgraphs([[0, 1]], [[1.2]], node_count=2)
        with pytest.raises(ValueError, match=r"\[0, 1\]"):
            merge_subgraphs([[0, 1]], [[-0.1]], node_count=2)
        with pytest.raises(ValueError, match=r"\[0, 1\]"):
            merge_subgraphs([[0, 1]], [[float("nan")]], node_count=2)

    @given(seed=st.integers(0, 10_000))
    def test_idempotent(self, seed):
        rng = np.random.default_rng(seed)
        n = 8
        members, probs = [], []
        for pivot in range(n):
            # The pivot's sub-graph, stacked as one (pivot, neighbor) row per neighbor.
            neighbors = [j for j in range(n) if j != pivot and rng.random() < 0.5]
            members += [(pivot, j) for j in neighbors]
            probs += rng.random(len(neighbors)).tolist()
        once = merge_subgraphs(np.reshape(members, (-1, 2)), np.reshape(probs, (-1, 1)), n)
        pairs = edge_dict(once)
        again = merge_subgraphs(np.reshape(list(pairs), (-1, 2)),
                                np.reshape(list(pairs.values()), (-1, 1)), n)
        assert edge_dict(once) == edge_dict(again)


class TestSpeakerGraph:
    def test_no_self_loop_edges(self):
        with pytest.raises(ValueError, match="self-loop"):
            graph_from_edges(3, [(0, 2, 0.3), (1, 1, 0.5)])

    def test_out_of_range_edge_rejected(self):
        with pytest.raises(ValueError, match="outside graph"):
            SpeakerGraph(3, [0], [3], [0.5])
        with pytest.raises(ValueError, match="outside graph"):
            SpeakerGraph(3, [-1], [2], [0.5])

    def test_degrees_count_self_loops_twice(self):
        g = SpeakerGraph(2, [0], [1], [2.0], self_loops=[1.5, 0.0])
        assert g.weighted_degrees.tolist() == [5.0, 2.0]
        assert g.total_weight == 3.5
