import re
import struct

import numpy as np
import pytest
from hypothesis import given
from hypothesis import strategies as st

from cdgcn.gcn import (
    WEIGHTS_MAGIC,
    GcnWeights,
    _softmax,
    bce_loss,
    gcn_forward,
    load_weights,
    loss_and_gradients,
    normalize_adjacency,
    save_weights,
    train,
)
from cdgcn.graphs import SubGraph
from helpers import _softmax as reference_softmax
from helpers import one_line_error_in_small_memory


def stack_of_one(features, adjacency):
    """The sub-graph of pivot 0 over nodes 0..len(features)-1, as a stack of one."""
    return SubGraph(np.arange(len(features))[None], features[None], adjacency[None])


def random_subgraph(rng, nodes=4, dim=3):
    features = rng.normal(size=(nodes, dim))
    features[0] = 0.0
    adjacency = np.abs(rng.normal(size=(nodes, nodes)))
    adjacency = (adjacency + adjacency.T) / 2.0
    np.fill_diagonal(adjacency, 0.0)
    return stack_of_one(features, adjacency)


def flatten(weights):
    return np.concatenate([t.ravel() for t in weights.tensors])


def unflatten(vector, like):
    tensors, offset = [], 0
    for t in like.tensors:
        tensors.append(vector[offset:offset + t.size].reshape(t.shape))
        offset += t.size
    return GcnWeights(tensors)


class TestNormalizeAdjacency:
    def test_single_isolated_node(self):
        assert normalize_adjacency(np.array([[0.0]])) == pytest.approx(np.array([[1.0]]))

    def test_two_connected_nodes(self):
        # A + I has uniform rows of sum 2, so every entry becomes 1/2
        out = normalize_adjacency(np.array([[0.0, 1.0], [1.0, 0.0]]))
        assert out == pytest.approx(np.full((2, 2), 0.5))

    def test_isolated_pair_is_identity(self):
        out = normalize_adjacency(np.zeros((2, 2)))
        assert out == pytest.approx(np.eye(2))

    def test_matches_direct_matrix_formula(self, rng):
        for _ in range(20):
            a = np.abs(rng.normal(size=(10, 10)))
            a = (a + a.T) / 2.0
            np.fill_diagonal(a, 0.0)
            a_tilde = a + np.eye(10)
            d_inv_sqrt = np.diag(1.0 / np.sqrt(a_tilde.sum(axis=1)))
            oracle = d_inv_sqrt @ a_tilde @ d_inv_sqrt
            assert np.abs(normalize_adjacency(a) - oracle).max() < 1e-9

    def test_eigenvalues_in_unit_interval(self, rng):
        for _ in range(20):
            a = np.abs(rng.normal(size=(10, 10)))
            a = (a + a.T) / 2.0
            np.fill_diagonal(a, 0.0)
            eigenvalues = np.linalg.eigvalsh(normalize_adjacency(a))
            assert eigenvalues.min() >= -1.0 - 1e-9
            assert eigenvalues.max() <= 1.0 + 1e-9


class TestLayerForward:
    def test_aggregation_infinity_norm_bound(self, rng):
        for _ in range(10):
            h = rng.normal(size=(6, 4))
            a = np.abs(rng.normal(size=(6, 6)))
            a = (a + a.T) / 2.0
            np.fill_diagonal(a, 0.0)
            a_hat = normalize_adjacency(a)
            bound = a_hat.sum(axis=1).max() * np.abs(h).max()
            assert np.abs(a_hat @ h).max() <= bound + 1e-12


class TestForward:
    def test_zero_weights_give_half(self, rng):
        sub = random_subgraph(rng, nodes=5, dim=3)
        weights = GcnWeights([np.zeros((6, 3)), np.zeros((6, 3)),
                              np.zeros((3, 3)), np.zeros(3), np.zeros((3, 2)), np.zeros(2)])
        assert gcn_forward(sub, weights) == pytest.approx(np.full((1, 4), 0.5))

    def test_one_neighbor_closed_form(self):
        # Scalar pipeline, worked by hand below.
        features = np.array([[0.0], [2.0]])
        adjacency = np.array([[0.0, 1.0], [1.0, 0.0]])
        sub = stack_of_one(features, adjacency)
        weights = GcnWeights([np.array([[0.5], [1.0]]), np.array([[1.0]]), np.array([0.5]),
                              np.array([[2.0, -1.0]]), np.array([0.1, 0.2])])
        # a_hat = [[1/2, 1/2], [1/2, 1/2]]; agg row1 = (0+2)/2 = 1
        # layer row1: relu(2*0.5 + 1*1.0) = 2; head: z = relu(2*1 + 0.5) = 2.5
        # logits = (2.5*2 + 0.1, 2.5*-1 + 0.2) = (5.1, -2.3)
        expected = 1.0 / (1.0 + np.exp(5.1 - (-2.3)))
        probs = gcn_forward(sub, weights.astype(np.float64))
        assert probs == pytest.approx(np.array([[expected]]), abs=1e-12)

    def test_duplicate_neighbors_identical_probability(self, rng):
        features = np.array([[0.0, 0.0], [1.0, 2.0], [1.0, 2.0], [3.0, -1.0]])
        adjacency = np.array([
            [0.0, 0.6, 0.6, 0.2],
            [0.6, 0.0, 0.4, 0.1],
            [0.6, 0.4, 0.0, 0.1],
            [0.2, 0.1, 0.1, 0.0],
        ])
        # rows 1 and 2 are indistinguishable except for their mutual edge,
        # which is symmetric, so their probabilities must match
        sub = stack_of_one(features, adjacency)
        probs = gcn_forward(sub, GcnWeights.glorot(2, layers=2, seed=5))
        assert probs[0, 0] == pytest.approx(probs[0, 1], abs=1e-6)

    def test_neighbor_permutation_equivariance(self, rng):
        sub = random_subgraph(rng, nodes=6, dim=4)
        weights = GcnWeights.glorot(4, layers=3, seed=2).astype(np.float64)
        base = gcn_forward(sub, weights)
        perm = np.concatenate([[0], 1 + rng.permutation(5)])
        permuted = SubGraph(sub.members[:, perm], sub.features[:, perm],
                            sub.adjacency[:, perm][:, :, perm])
        out = gcn_forward(permuted, weights)
        assert out == pytest.approx(base[:, perm[1:] - 1], abs=1e-12)

    def test_feature_dim_mismatch(self, rng):
        sub = random_subgraph(rng, nodes=3, dim=3)
        with pytest.raises(ValueError, match="feature dim"):
            gcn_forward(sub, GcnWeights.glorot(5))

    def test_adjacency_shape_mismatch(self, rng):
        sub = random_subgraph(rng, nodes=4, dim=3)
        for adjacency in (sub.adjacency[:, :3, :3], sub.adjacency[:, :, :3], sub.adjacency[None]):
            bad = SubGraph(sub.members, sub.features, adjacency)
            message = f"adjacency shape {adjacency.shape} does not match 4 nodes"
            with pytest.raises(ValueError, match=f"^{re.escape(message)}$"):
                gcn_forward(bad, GcnWeights.glorot(3))

    def test_probabilities_in_unit_interval(self, rng):
        sub = random_subgraph(rng, nodes=8, dim=4)
        probs = gcn_forward(sub, GcnWeights.glorot(4, seed=9))
        assert probs.shape == (1, 7)
        assert (probs >= 0.0).all() and (probs <= 1.0).all()


@given(seed=st.integers(0, 2**32 - 1), dtype=st.sampled_from([np.float32, np.float64]),
       shape=st.sampled_from([(1, 2), (9, 2), (4, 7, 2), (2, 3, 5, 2)]),
       scale=st.sampled_from([1e-3, 1.0, 30.0, 1e3]))
def test_two_column_softmax_equals_the_reductions(seed, dtype, shape, scale):
    """Random blocks in which about a third of the rows tie and a tenth of
    the logits are +0.0 or -0.0 give the general softmax's bits."""
    rng = np.random.default_rng(seed)
    logits = rng.normal(scale=scale, size=shape)
    logits[..., 1] = np.where(rng.random(shape[:-1]) < 0.3, logits[..., 0], logits[..., 1])
    logits = np.where(rng.random(shape) < 0.1, rng.choice([0.0, -0.0], shape), logits)
    logits = logits.astype(dtype)
    got = _softmax(logits)
    expected = reference_softmax(logits.reshape(-1, 2)).reshape(shape)
    assert got.dtype == expected.dtype == dtype
    assert got.tobytes() == expected.tobytes()


class TestBceLoss:
    def test_perfect_prediction(self):
        assert bce_loss([1.0 - 1e-7], [1.0]) == pytest.approx(0.0, abs=1e-6)

    def test_uniform_prediction_is_ln2(self):
        assert bce_loss([0.5, 0.5], [0.0, 1.0]) == pytest.approx(np.log(2.0))

    def test_worst_case_clipped(self):
        assert bce_loss([1e-7], [1.0]) == pytest.approx(-np.log(1e-7))
        assert bce_loss([0.0], [1.0]) == pytest.approx(-np.log(1e-7))

    def test_length_mismatch(self):
        message = "predictions of shape (1,) vs labels of shape (2,)"
        with pytest.raises(ValueError, match=f"^{re.escape(message)}$"):
            bce_loss([0.5], [1.0, 0.0])
        message = "predictions of shape () vs labels of shape (1,)"
        with pytest.raises(ValueError, match=f"^{re.escape(message)}$"):
            bce_loss(0.5, [1.0])


class TestGradients:
    def test_matches_finite_differences(self, rng):
        from helpers import random_gcn_weights

        weights = random_gcn_weights(rng, 3, layers=2)
        batches = [(random_subgraph(rng, nodes=4, dim=3),
                    rng.integers(0, 2, size=(1, 3)).astype(float)) for _ in range(3)]
        _, grads = loss_and_gradients(batches, weights)
        x0 = flatten(weights)
        analytic = flatten(grads)
        step = 1e-6
        numeric = np.zeros_like(x0)
        for i in range(x0.size):
            plus, minus = x0.copy(), x0.copy()
            plus[i] += step
            minus[i] -= step
            lp, _ = loss_and_gradients(batches, unflatten(plus, weights))
            lm, _ = loss_and_gradients(batches, unflatten(minus, weights))
            numeric[i] = (lp - lm) / (2.0 * step)
        rel = np.linalg.norm(analytic - numeric) / max(np.linalg.norm(analytic),
                                                       np.linalg.norm(numeric))
        assert rel < 1e-6


class TestTrain:
    def toy_batches(self, rng, count=6):
        batches = []
        for _ in range(count):
            sub = random_subgraph(rng, nodes=5, dim=3)
            # separable rule: positive first feature -> same speaker
            labels = (sub.features[:, 1:, 0] > 0).astype(float)
            batches.append((sub, labels))
        return batches

    def test_zero_epochs_returns_init(self, rng):
        init = GcnWeights.glorot(3, seed=4)
        out = train(self.toy_batches(rng), init=init, epochs=0)
        for a, b in zip(out.tensors, init.tensors):
            assert (a == b).all()

    def test_loss_decreases_on_separable_toy(self, rng):
        batches = self.toy_batches(rng)
        losses = []
        train(batches, init=GcnWeights.glorot(3, seed=4), lr=1e-2, epochs=200,
              on_epoch=lambda _, loss: losses.append(loss))
        assert losses[-1] < losses[0]

    def test_loss_monotone_at_small_lr(self, rng):
        batches = self.toy_batches(rng)
        losses = []
        train(batches, init=GcnWeights.glorot(3, seed=4), lr=1e-3, epochs=120,
              on_epoch=lambda _, loss: losses.append(loss))
        assert all(b <= a + 1e-12 for a, b in zip(losses, losses[1:]))

    @pytest.mark.parametrize("lr, epochs, message", [
        (0.0, 1, "learning rate must be finite and positive, got 0.0"),
        (np.nan, 1, "learning rate must be finite and positive, got nan"),
        (np.inf, 1, "learning rate must be finite and positive, got inf"),
        (0.1, -1, "epochs must be non-negative, got -1"),
    ], ids=["lr-zero", "lr-nan", "lr-inf", "epochs-negative"])
    def test_bad_learning_rate_or_epochs_rejected(self, rng, lr, epochs, message):
        with pytest.raises(ValueError, match=f"^{message}$"):
            train(self.toy_batches(rng), lr=lr, epochs=epochs)

    def test_non_finite_loss_aborts_with_epoch(self, rng):
        init = GcnWeights.glorot(3, seed=4).astype(np.float64)
        init.tensors[0][0, 0] = np.nan
        with pytest.raises(FloatingPointError, match="epoch 0"):
            train(self.toy_batches(rng), init=init, epochs=3)

    def test_feature_dim_mismatch_refused_like_the_forward_pass(self, rng):
        batches = [(random_subgraph(rng, nodes=4, dim=3), np.zeros((1, 3))),
                   (random_subgraph(rng, nodes=4, dim=2), np.zeros((1, 3)))]
        message = "^sub-graph feature dim 2 does not match weights feature dim 3$"
        with pytest.raises(ValueError, match=message):
            loss_and_gradients(batches, GcnWeights.glorot(3))
        with pytest.raises(ValueError, match=message):
            train(batches, epochs=1)

    def test_default_init_seeded(self, rng):
        batches = self.toy_batches(rng)
        a = train(batches, lr=0.1, epochs=3, seed=7)
        b = train(batches, lr=0.1, epochs=3, seed=7)
        for ta, tb in zip(a.tensors, b.tensors):
            assert (ta == tb).all()


class TestSerialization:
    def test_round_trip_bitwise(self):
        weights = GcnWeights.glorot(5, layers=4, seed=3)
        again = load_weights(save_weights(weights))
        for a, b in zip(weights.tensors, again.tensors):
            assert a.dtype == b.dtype == np.float32
            assert (a == b).all()
        assert save_weights(again) == save_weights(weights)

    def test_truncated_data(self):
        data = save_weights(GcnWeights.glorot(3, seed=0))
        with pytest.raises(ValueError, match="truncated"):
            load_weights(data[:-3])

    def test_wrong_magic_names_expected(self):
        data = b"XXXX" + save_weights(GcnWeights.glorot(3, seed=0))[4:]
        with pytest.raises(ValueError, match="GCNW"):
            load_weights(data)

    @pytest.mark.parametrize("name, message", [
        ("huge layer count", "truncated"), ("huge layer", "truncated"),
        ("no layers", "at least one aggregation layer"), ("trailing bytes", "trailing"),
        ("seven bytes", "truncated")])
    def test_bad_header_is_one_line_error(self, name, message):
        data = save_weights(GcnWeights.glorot(3, layers=1, seed=0))
        layer_end = 8 + 8 + 6 * 3 * 4
        data = {"huge layer count": struct.pack("<4sI", WEIGHTS_MAGIC, 2**32 - 1) + data[8:],
                "huge layer": data[:8] + struct.pack("<II", 2**32 - 1, 2**32 - 1) + data[16:],
                "no layers": struct.pack("<4sI", WEIGHTS_MAGIC, 0) + data[layer_end:],
                "trailing bytes": data + b"\0",
                "seven bytes": data[:7]}[name]
        assert message in one_line_error_in_small_memory(load_weights, data)

    def test_dim_chain_violation(self):
        weights = GcnWeights.glorot(3, layers=2, seed=0)
        data = bytearray(save_weights(weights))
        # corrupt layer 1's row count: header (8) + layer-0 dims (8) + layer-0 data
        offset = 8 + 8 + 6 * 3 * 4
        rows, cols = struct.unpack_from("<II", data, offset)
        struct.pack_into("<II", data, offset, rows + 2, cols)
        with pytest.raises(ValueError):
            load_weights(bytes(data))

    @pytest.mark.parametrize("bad", [np.nan, np.inf, -np.inf])
    @pytest.mark.parametrize("index, name", [(0, "layer 0"), (3, "layer 3"), (4, "head layer 0"),
                                             (5, "head layer 0"), (7, "head layer 1")])
    def test_non_finite_weight_rejected(self, index, name, bad):
        weights = GcnWeights.glorot(3, layers=4, seed=0)
        weights.tensors[index].flat[-1] = bad
        with pytest.raises(ValueError, match=f"^{name} has a non-finite weight$"):
            load_weights(save_weights(weights))

    @given(layers=st.integers(1, 4), dim=st.integers(1, 6), seed=st.integers(0, 100))
    def test_round_trip_any_shape(self, layers, dim, seed):
        weights = GcnWeights.glorot(dim, layers=layers, seed=seed)
        data = save_weights(weights)
        assert save_weights(load_weights(data)) == data
