"""Linkage predictor: graph-convolution layers with a two-way softmax head.

Each aggregation layer computes relu([H || A_hat @ H] @ W) on a pivot
sub-graph; a two-layer head then scores every node and the positive-class
softmax component becomes the probability that the node shares the pivot's
speaker. Forward and backward passes are plain numpy so the analytic
gradients can be checked against finite differences; inference runs in
float32 and training in float64.

Both passes run on stacks of equal-size sub-graphs (a leading sub-graph
axis). A stacked matmul computes each sub-graph's product as an unstacked
one would, and training adds each sub-graph's loss and gradient to the
totals in sub-graph order, so no result depends on how sub-graphs are
stacked: inference stacks graphs.BLOCK (32) pivots, training BLOCK (8).
"""

from __future__ import annotations

import struct
from dataclasses import dataclass

import numpy as np

from .graphs import SubGraph, seeded_rng

WEIGHTS_MAGIC = b"GCNW"
PROB_EPSILON = 1e-7
BLOCK = 8   # sub-graphs per training block: larger float64 ones fall out of cache


@dataclass
class GcnWeights:
    """Parameters in one flat order: each aggregation layer's (2 * d_in, d_out)
    weight, then the head's W1, b1, W2, b2. Gradients come, and .gcnw files
    store the tensors, in the same order.

    Consecutive layers must chain (rows of layer l+1 equal twice the columns
    of layer l). The head maps the last layer's output through a hidden relu
    layer (W1, b1) to 2 logits (W2, b2).
    """

    tensors: list[np.ndarray]

    def __post_init__(self):
        *layers, w1, b1, w2, b2 = self.tensors
        if not layers:
            raise ValueError("need at least one aggregation layer")
        for idx, w in enumerate(layers):
            if w.ndim != 2 or w.shape[0] % 2:
                raise ValueError(f"layer {idx}: weight shape {w.shape} is not (2*d_in, d_out)")
            if idx and w.shape[0] != 2 * layers[idx - 1].shape[1]:
                raise ValueError(
                    f"layer {idx}: expected {2 * layers[idx - 1].shape[1]} rows, "
                    f"got {w.shape[0]}"
                )
        if w1.shape[0] != layers[-1].shape[1]:
            raise ValueError(
                f"head: expected {layers[-1].shape[1]} input rows, got {w1.shape[0]}"
            )
        if w2.shape != (w1.shape[1], 2):
            raise ValueError(f"head: output layer shape {w2.shape} is not ({w1.shape[1]}, 2)")
        if b1.shape != (w1.shape[1],) or b2.shape != (2,):
            raise ValueError("head bias shapes do not match the head weights")

    @property
    def feature_dim(self) -> int:
        return self.tensors[0].shape[0] // 2

    @property
    def dtype(self):
        return self.tensors[0].dtype

    def astype(self, dtype) -> "GcnWeights":
        return GcnWeights([t.astype(dtype) for t in self.tensors])

    @classmethod
    def glorot(cls, feature_dim: int, layers: int = 4, seed: int = 0) -> "GcnWeights":
        """Seeded float32 uniform init in +-sqrt(6 / (fan_in + fan_out)), zero
        biases; the head's hidden layer is feature_dim wide."""
        rng = seeded_rng(seed)

        def draw(rows, cols):
            bound = np.sqrt(6.0 / (rows + cols))
            return rng.uniform(-bound, bound, size=(rows, cols)).astype(np.float32)

        aggregation = [draw(2 * feature_dim, feature_dim) for _ in range(layers)]
        w1 = draw(feature_dim, feature_dim)
        w2 = draw(feature_dim, 2)
        return cls([*aggregation, w1, np.zeros(feature_dim, dtype=np.float32),
                    w2, np.zeros(2, dtype=np.float32)])


def normalize_adjacency(adjacency: np.ndarray) -> np.ndarray:
    """Symmetrically normalized adjacency with self-connections added.

    Adds the identity, then rescales by the inverse square root of the
    resulting row sums on both sides. The self-connection keeps every
    degree positive, so no entry can divide by zero. A stack of
    adjacencies is normalized one matrix at a time.
    """
    a = np.asarray(adjacency)
    a_tilde = a + np.eye(a.shape[-1], dtype=a.dtype)
    inv_sqrt = 1.0 / np.sqrt(a_tilde.sum(axis=-1))
    a_tilde *= inv_sqrt[..., :, None]
    a_tilde *= inv_sqrt[..., None, :]
    return a_tilde


def _softmax(logits: np.ndarray) -> np.ndarray:
    """Softmax over a last axis of 2, bit-exact with max and sum over it: the
    maximum of two values is exact, and numpy sums two with one addition."""
    shifted = logits - np.maximum(logits[..., 0], logits[..., 1])[..., None]
    e = np.exp(shifted)
    return e / (e[..., 0] + e[..., 1])[..., None]


def _forward(h: np.ndarray, a_hat: np.ndarray, weights: GcnWeights):
    """Every activation of the forward pass: each layer's [H || A_hat @ H] and
    pre-activation, the last layer's output, the head's hidden z and softmax."""
    *layers, w1, b1, w2, b2 = weights.tensors
    concats = []
    pre_acts = []
    for w in layers:
        m = np.concatenate([h, a_hat @ h], axis=-1)
        pre = m @ w
        h = np.maximum(pre, 0)
        concats.append(m)
        pre_acts.append(pre)
    z = np.maximum(h @ w1 + b1, 0)
    return concats, pre_acts, h, z, _softmax(z @ w2 + b2)


def _check_stack(sub: SubGraph, weights: GcnWeights) -> None:
    """Refuses a stack whose features or adjacency the weights cannot take."""
    if sub.features.shape[-1] != weights.feature_dim:
        raise ValueError(f"sub-graph feature dim {sub.features.shape[-1]} does not match "
                         f"weights feature dim {weights.feature_dim}")
    if sub.adjacency.shape != sub.members.shape + sub.members.shape[1:]:
        raise ValueError(f"adjacency shape {sub.adjacency.shape} does not match "
                         f"{sub.members.shape[1]} nodes")


def gcn_forward(sub: SubGraph, weights: GcnWeights) -> np.ndarray:
    """Per-neighbor probability that the neighbor shares the pivot's speaker,
    one row per sub-graph of the stack.

    Runs the aggregation stack in the weights' precision, applies the
    two-layer head to every node, and returns the positive-class softmax
    component for the non-pivot members, in member order.
    """
    _check_stack(sub, weights)
    dtype = weights.dtype
    a_hat = normalize_adjacency(sub.adjacency.astype(dtype))
    return _forward(sub.features.astype(dtype), a_hat, weights)[-1][:, 1:, 1]


def bce_loss(pred: np.ndarray, labels: np.ndarray):
    """Mean binary cross entropy with predictions clipped to [eps, 1-eps];
    over the last axis, so a stack of rows gives one loss per row."""
    pred = np.asarray(pred, dtype=np.float64)
    labels = np.asarray(labels, dtype=np.float64)
    if pred.shape != labels.shape:
        raise ValueError(f"predictions of shape {pred.shape} vs labels of shape {labels.shape}")
    if pred.size == 0:
        return 0.0
    p = np.clip(pred, PROB_EPSILON, 1.0 - PROB_EPSILON)
    return np.mean(-(labels * np.log(p) + (1.0 - labels) * np.log(1.0 - p)), axis=-1)


def _training_blocks(batches, weights: GcnWeights):
    """(features, normalized adjacency, labels) of each batch's sub-graphs in
    the weights' precision, BLOCK at a time, in order. Sub-graphs without
    neighbors carry no loss and are left out."""
    blocks = []
    for sub, labels in batches:
        _check_stack(sub, weights)
        labels = np.asarray(labels, dtype=np.float64)
        if labels.shape != sub.members[:, 1:].shape:
            raise ValueError(f"labels of shape {labels.shape} for neighbors of shape "
                             f"{sub.members[:, 1:].shape}")
        if not np.isin(labels, (0.0, 1.0)).all():
            raise ValueError("labels must be 0 or 1")
        if sub.members.shape[1] > 1:
            features, adjacency, labels = (array.astype(weights.dtype, copy=False)
                                           for array in (sub.features, sub.adjacency, labels))
            blocks += [(features[i:i + BLOCK], normalize_adjacency(adjacency[i:i + BLOCK]),
                        labels[i:i + BLOCK]) for i in range(0, len(labels), BLOCK)]
    return blocks


def _block_loss_and_grads(features, a_hat, labels, weights: GcnWeights):
    """Per-sub-graph losses and stacked parameter gradients (in the order of
    weights.tensors) of one block, by backpropagation."""
    concats, pre_acts, h, z, sm = _forward(features, a_hat, weights)
    *layers, w1, _, w2, _ = weights.tensors
    probs = sm[:, 1:, 1]
    k = probs.shape[1]
    losses = bce_loss(probs, labels)

    # Clipped predictions contribute a flat loss, hence zero gradient.
    active = (probs > PROB_EPSILON) & (probs < 1.0 - PROB_EPSILON)
    target = np.stack([1.0 - labels, labels], axis=-1)
    dlogits = np.zeros_like(sm)
    dlogits[:, 1:] = (sm[:, 1:] - target) * (active[..., None] / k)

    ds = (dlogits @ w2.T) * (z > 0)
    grads = [None] * len(layers) + [h.transpose(0, 2, 1) @ ds, ds.sum(axis=1),
                                    z.transpose(0, 2, 1) @ dlogits, dlogits.sum(axis=1)]
    dh = ds @ w1.T
    for l in range(len(layers) - 1, -1, -1):
        dpre = dh * (pre_acts.pop() > 0)
        grads[l] = concats.pop().transpose(0, 2, 1) @ dpre
        if l:   # the input gradient of layer 0 is never used
            dm = dpre @ layers[l].T
            d_in = layers[l].shape[0] // 2
            dh = dm[..., :d_in] + a_hat.transpose(0, 2, 1) @ dm[..., d_in:]
    return losses, grads


def loss_and_gradients(batches, weights: GcnWeights):
    """Mean BCE over (SubGraph, labels) batches, each a stack of sub-graphs
    with a row of labels per sub-graph, and its parameter gradients."""
    return _loss_and_gradients(_training_blocks(batches, weights), weights)


def _loss_and_gradients(blocks, weights: GcnWeights):
    count = sum(len(labels) for _, _, labels in blocks)
    if not count:
        return 0.0, GcnWeights([np.zeros_like(t) for t in weights.tensors])
    # Each sub-graph's loss and gradient join the totals in sub-graph
    # order, so the sums do not depend on how sub-graphs are blocked.
    total_loss = 0.0
    total = [np.zeros_like(t) for t in weights.tensors]
    for block in blocks:
        losses, grads = _block_loss_and_grads(*block, weights)
        for loss in losses.tolist():
            total_loss += loss
        for acc, grad in zip(total, grads):
            for g in grad:
                acc += g
    scale = 1.0 / count
    return total_loss * scale, GcnWeights([t * scale for t in total])


def train(batches, init: GcnWeights | None = None, lr: float = 1e-2, epochs: int = 100,
          seed: int = 0, on_epoch=None) -> GcnWeights:
    """Full-batch gradient descent on the mean BCE across sub-graphs.

    When init is omitted, a seeded Glorot initialization is drawn from the
    first batch's feature dimension. Optimization runs in float64 and the
    result is cast back to init's precision; epochs = 0 returns init
    unchanged. on_epoch, when given, receives (epoch, loss) before each
    update. A non-finite loss aborts with the offending epoch index.
    """
    if not 0 < lr < np.inf:
        raise ValueError(f"learning rate must be finite and positive, got {lr}")
    if epochs < 0:
        raise ValueError(f"epochs must be non-negative, got {epochs}")
    if not batches:
        raise ValueError("no training batches")
    if init is None:
        init = GcnWeights.glorot(batches[0][0].features.shape[-1], seed=seed)
    weights = init.astype(np.float64)
    blocks = _training_blocks(batches, weights)
    if epochs == 0:
        return init
    for epoch in range(epochs):
        loss, grads = _loss_and_gradients(blocks, weights)
        if not np.isfinite(loss):
            raise FloatingPointError(f"non-finite training loss at epoch {epoch}")
        if on_epoch is not None:
            on_epoch(epoch, loss)
        weights = GcnWeights([t - lr * g for t, g in zip(weights.tensors, grads.tensors)])
    return weights.astype(init.dtype)


def save_weights(weights: GcnWeights) -> bytes:
    """Serialize weights: magic and aggregation layer count, then each tensor
    in order as float32 data, a matrix preceded by its (rows, cols)."""
    out = [struct.pack("<4sI", WEIGHTS_MAGIC, len(weights.tensors) - 4)]
    for tensor in weights.tensors:
        if tensor.ndim == 2:
            out.append(struct.pack("<II", *tensor.shape))
        out.append(tensor.astype("<f4").tobytes())
    return b"".join(out)


def load_weights(data: bytes) -> GcnWeights:
    """Parse bytes produced by :func:`save_weights`; exact float32 round-trip."""
    if len(data) < 8:
        raise ValueError("truncated weights data")
    magic, layer_count = struct.unpack_from("<4sI", data, 0)
    if magic != WEIGHTS_MAGIC:
        raise ValueError(f"bad magic {magic!r}, expected {WEIGHTS_MAGIC!r}")
    offset = 8

    def take(dtype, count):
        nonlocal offset
        if offset + np.dtype(dtype).itemsize * count > len(data):
            raise ValueError("truncated weights data")
        out = np.frombuffer(data, dtype=dtype, count=count, offset=offset).copy()
        offset += out.nbytes
        return out

    tensors = []
    for index in range(layer_count + 4):
        if index in (layer_count + 1, layer_count + 3):   # b1, b2: one per column of W1, W2
            tensors.append(take("<f4", tensors[-1].shape[1]))
        else:
            rows, cols = take("<u4", 2).tolist()
            tensors.append(take("<f4", rows * cols).reshape(rows, cols))
    if offset != len(data):
        raise ValueError(f"{len(data) - offset} trailing bytes in weights data")
    weights = GcnWeights(tensors)
    for index, tensor in enumerate(tensors):
        if not np.isfinite(tensor).all():
            name = (f"layer {index}" if index < layer_count
                    else f"head layer {(index - layer_count) // 2}")
            raise ValueError(f"{name} has a non-finite weight")
    return weights
