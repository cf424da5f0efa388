"""Comparison classifiers: energy-feature SVM and autoencoder, tapered MLP.

The energy methods collapse each feature row into per-interval statistics
(mean, sum, Euclidean norm, infinity norm) before classification; the
tapered MLP consumes the flattened feature matrix directly. Both take the
stacked (N, rows, W) features of a whole set at once. Every method keeps the
convolutional model's contracts: train(features, labels, config, seed) ->
(model, per-epoch losses), deterministic in the seed, and predict(model,
(N, d) stack) -> (N,) class codes. In a comparison run every method sees the
convolutional model's train/test index sets. Every trained model is one
DenseNet, predicted by _dense_predict: the SVM one linear layer, the tapered
MLP a tanh stack, the autoencoder classifier its tanh encoder under the
softmax head. The tapered MLP and both autoencoder stages are trained as
dense nets over (B, d) batches by tinycnn's minibatch engine (fit_sgdm) with
its softmax cross-entropy head (cross_entropy) or a squared-error head. The
SVM's per-sample subgradient loop stays sequential, because its result
depends on the sample order. It holds w as scale * v and every training
row's v . x in margins, so a step outside the margin multiplies one scalar
and a step inside it costs one (n, dim) product. Every model file is a
swec.store tensor file of the same layout under its method's magic.
"""
from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .store import TensorFileReader, write_tensor_file
from .synthgrid import NUM_CLASSES
from .tinycnn import TrainerConfig, cross_entropy, fit_sgdm, predict_in_blocks

SVM_MAGIC = b"SWSV"
TMLP_MAGIC = b"SWML"
AE_MAGIC = b"SWAE"


ENERGY_INTERVALS = 8  # fits the 8-wide feature rows of the lowest rate, 1000 Hz


def energy_feature_set(xs) -> np.ndarray:
    """Per-interval statistics of every feature row of a (N, rows, W) stack,
    one vector per matrix, bus-major interval-minor.

    Each row is cut into ENERGY_INTERVALS contiguous segments (the last
    absorbs the remainder); each segment contributes (mean, sum, L2 norm,
    Linf norm). The reductions run on a C-ordered copy, so the result does
    not depend on the memory layout of xs.
    """
    xs = np.ascontiguousarray(xs, dtype=float)
    width = xs.shape[-1]
    if width < ENERGY_INTERVALS:
        raise ValueError(f"feature rows of width {width} are narrower than the "
                         f"{ENERGY_INTERVALS} energy intervals")
    seg = width // ENERGY_INTERVALS
    cut = (ENERGY_INTERVALS - 1) * seg
    segments = (xs[..., :cut].reshape(*xs.shape[:-1], ENERGY_INTERVALS - 1, seg),
                xs[..., None, cut:])
    stats = [np.stack([s.mean(axis=-1), s.sum(axis=-1), np.linalg.norm(s, axis=-1),
                       np.abs(s).max(axis=-1)], axis=-1) for s in segments]
    return np.concatenate(stats, axis=-2).reshape(len(xs), -1)


def flatten_features(xs) -> np.ndarray:
    """One row per feature matrix of a (N, rows, W) stack."""
    return np.asarray(xs, dtype=float).reshape(len(xs), -1)


# ── Dense nets (all three baselines) ────────────────────────────────────────

LEARNING_RATE = 0.01  # the dense nets' SGD rate; batch and momentum are tinycnn's
INIT_STD = 0.1


@dataclass
class DenseNet:
    """Affine layers, tanh between them, logits out; sizes are the layer
    widths, input first."""

    weights: list  # (out, in) per layer
    biases: list   # (out,) per layer

    @property
    def sizes(self) -> tuple:
        return (self.weights[0].shape[1], *(w.shape[0] for w in self.weights))


def _init_layers(sizes, rng, std):
    weights = [rng.normal(0.0, std, (sizes[i + 1], sizes[i]))
               for i in range(len(sizes) - 1)]
    biases = [np.zeros(sizes[i + 1]) for i in range(len(sizes) - 1)]
    return weights, biases


def _dense_forward(weights, biases, x):
    """Per-layer activations of a (B, d) batch, input first. Hidden layers
    are tanh, the output layer is linear."""
    acts = [x]
    for w, b in zip(weights[:-1], biases[:-1]):
        acts.append(np.tanh(acts[-1] @ w.T + b))
    acts.append(acts[-1] @ weights[-1].T + biases[-1])
    return acts


def _dense_backward(weights, acts, delta):
    """Backprop from the (B, d_out) output delta of the batch loss; returns
    [*dW, *db]."""
    grads_w, grads_b = [], []
    for i in range(len(weights) - 1, -1, -1):
        grads_w.insert(0, delta.T @ acts[i])
        grads_b.insert(0, delta.sum(axis=0))
        if i > 0:
            delta = (delta @ weights[i]) * (1.0 - acts[i] ** 2)
    return [*grads_w, *grads_b]


def _squared_error(out, target):
    """Batch mean of each example's mean squared error, and its output delta."""
    err = out - target
    return float(np.mean(err ** 2)), 2.0 * err / err.size


def _dense_loss_and_grads(weights, biases, x, targets, head):
    """Mean loss and gradients ([*dW, *db]) over a (B, d) batch;
    head(output, targets) returns (loss, output delta)."""
    acts = _dense_forward(weights, biases, x)
    loss, delta = head(acts[-1], targets)
    return loss, _dense_backward(weights, acts, delta)


def _fit_dense(weights, biases, inputs, targets, head, epochs, rng):
    """Train the dense net in place on the rows of inputs and targets;
    returns the per-epoch losses."""
    return fit_sgdm(
        [*weights, *biases],
        lambda idx: _dense_loss_and_grads(weights, biases, inputs[idx],
                                          targets[idx], head),
        len(inputs), epochs, LEARNING_RATE, rng)


def _dense_predict(model: DenseNet, features) -> np.ndarray:
    """The baselines' predictor: tinycnn.predict_in_blocks over the logits."""
    return predict_in_blocks(
        lambda block: _dense_forward(model.weights, model.biases, block)[-1], features)


# ── Linear one-vs-rest SVM ───────────────────────────────────────────────────

SVM_C = 1.0
SVM_STEP = 1e-3  # decays as SVM_STEP / epoch


@dataclass(frozen=True)
class SvmConfig(TrainerConfig):
    epochs: int = 200


def train_svm_ovr(features, labels, config: SvmConfig = SvmConfig(), seed: int = 0):
    """Seeded subgradient descent on the L2-regularized hinge loss, per class;
    the model is one linear layer, one row per class. Returns (model, []):
    the per-sample loop has no per-epoch objective to report."""
    features = np.asarray(features, dtype=float)
    labels = np.asarray(labels, dtype=int)
    n, dim = features.shape
    present = set(labels.tolist())
    missing = [c for c in range(1, NUM_CLASSES + 1) if c not in present]
    if missing:
        raise ValueError(f"no training examples for classes {missing}")
    lam = 1.0 / (SVM_C * n)
    weights = np.zeros((NUM_CLASSES, dim))
    biases = np.zeros(NUM_CLASSES)
    rng = np.random.default_rng(seed)
    for c in range(NUM_CLASSES):
        y = np.where(labels == c + 1, 1.0, -1.0).tolist()
        v, margins = np.zeros(dim), np.zeros(n)  # w = scale * v; margins = X @ v
        scale, b = 1.0, 0.0
        for epoch in range(1, config.epochs + 1):
            eta = SVM_STEP / epoch
            shrink = 1.0 - eta * lam
            for i in rng.permutation(n).tolist():
                hinge = y[i] * (scale * margins.item(i) + b) < 1.0
                scale *= shrink
                if hinge:
                    dv = (eta * y[i] / scale) * features[i]
                    v += dv
                    margins += features @ dv
                    b += eta * y[i]
        weights[c] = scale * v
        biases[c] = b
    return DenseNet([weights], [biases]), []


def svm_predict(model: DenseNet, features) -> np.ndarray:
    return _dense_predict(model, features)


# ── Tapered MLP ──────────────────────────────────────────────────────────────

HIDDEN = (64, 16)  # the tapered MLP's hidden widths, those below the input kept


@dataclass(frozen=True)
class MlpConfig(TrainerConfig):
    epochs: int = 50


def _taper(input_dim: int) -> tuple:
    """Strictly decreasing layer widths from the input down to the 4 classes."""
    widths = [w for w in HIDDEN if w < input_dim]
    sizes = (input_dim, *widths, NUM_CLASSES)
    if any(a <= b for a, b in zip(sizes, sizes[1:])):
        raise ValueError(f"layer widths {sizes} are not strictly decreasing")
    return sizes


def train_tmlp(features, labels, config: MlpConfig = MlpConfig(), seed: int = 0):
    """Same trainer as the convolutional model's, on flat features; returns
    (model, per-epoch losses)."""
    features = np.asarray(features, dtype=float)
    labels = np.asarray(labels, dtype=int)
    sizes = _taper(features.shape[1])
    rng = np.random.default_rng(seed)
    weights, biases = _init_layers(sizes, rng, INIT_STD)
    losses = _fit_dense(weights, biases, features, labels, cross_entropy,
                        config.epochs, rng)
    return DenseNet(weights, biases), losses


def tmlp_predict(model: DenseNet, features) -> np.ndarray:
    return _dense_predict(model, features)


# ── Autoencoder classifier ───────────────────────────────────────────────────

CODE_WIDTH = 32


@dataclass(frozen=True)
class AeConfig(TrainerConfig):
    recon_epochs: int = 60
    head_epochs: int = 60


def train_autoencoder_clf(features, labels, config: AeConfig = AeConfig(),
                          seed: int = 0):
    """Stage 1 minimizes reconstruction MSE through a linear decoder; stage 2
    trains the softmax head on the frozen code. The model is the encoder
    under the head. Returns (model, losses): the recon_epochs reconstruction
    losses followed by the head_epochs cross-entropy losses, in one list."""
    features = np.asarray(features, dtype=float)
    labels = np.asarray(labels, dtype=int)
    dim = features.shape[1]
    rng = np.random.default_rng(seed)
    (enc_w, dec_w), (enc_b, dec_b) = _init_layers((dim, CODE_WIDTH, dim), rng, INIT_STD)
    (head_w,), (head_b,) = _init_layers((CODE_WIDTH, NUM_CLASSES), rng, INIT_STD)
    losses = _fit_dense([enc_w, dec_w], [enc_b, dec_b], features, features,
                        _squared_error, config.recon_epochs, rng)
    codes = _dense_forward([enc_w, dec_w], [enc_b, dec_b], features)[1]
    losses += _fit_dense([head_w], [head_b], codes, labels, cross_entropy,
                         config.head_epochs, rng)
    return DenseNet([enc_w, head_w], [enc_b, head_b]), losses


def ae_predict(model: DenseNet, features) -> np.ndarray:
    return _dense_predict(model, features)


# ── Model files (the store's tensor files, one magic per method) ────────────

def save_dense(model: DenseNet, path, magic: bytes, run: dict | None = None) -> None:
    """Layer i as tensors w{i} and b{i}, under run's fields and the sizes."""
    tensors = {}
    for i, (w, b) in enumerate(zip(model.weights, model.biases)):
        tensors[f"w{i}"], tensors[f"b{i}"] = w, b
    write_tensor_file(path, magic, tensors, **(run or {}), sizes=list(model.sizes))


def load_dense(path, magic: bytes) -> DenseNet:
    f = TensorFileReader(path, magic)
    sizes = f.field("sizes", list, int)
    if len(sizes) < 2:
        raise f.header_error("sizes", f"{len(sizes)} layer sizes, expected at least 2")
    if sizes[-1] != NUM_CLASSES:
        raise f.header_error("sizes", f"{sizes[-1]} classes, expected {NUM_CLASSES}")
    expected = {}
    for i, (n_in, n_out) in enumerate(zip(sizes, sizes[1:])):
        expected[f"w{i}"], expected[f"b{i}"] = (n_out, n_in), (n_out,)
    t = f.tensors(expected)
    layers = range(len(sizes) - 1)
    return DenseNet([t[f"w{i}"] for i in layers], [t[f"b{i}"] for i in layers])
