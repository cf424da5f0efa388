"""Comparison classifiers: energy-feature SVM and autoencoder, tapered MLP.

The energy methods collapse each feature row into per-interval statistics
(mean, sum, Euclidean norm, infinity norm) before classification; the
tapered MLP consumes the flattened feature matrix directly. Both take the
stacked (N, rows, W) features of a whole set at once. All trainers are
seeded and deterministic, and in a comparison run every method sees exactly
the same train/test index sets as the convolutional model. The tapered MLP
and both autoencoder stages are one dense net code over (B, d) batches,
trained by the convolutional model's minibatch engine (tinycnn.fit_sgdm)
with the same softmax cross-entropy head (tinycnn.cross_entropy) or a
squared-error head. The SVM's per-sample subgradient loop stays sequential,
because its result depends on the sample order.
"""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np

from .synthgrid import NUM_CLASSES
from .tinycnn import (ModelFileReader, central_difference_errors, cross_entropy,
                      fit_sgdm, predict_in_blocks, stack_examples, write_model_file)

SVM_MAGIC = b"SWSV"
TMLP_MAGIC = b"SWML"
AE_MAGIC = b"SWAE"


def energy_feature_set(xs, num_intervals: int = 8) -> np.ndarray:
    """Per-interval statistics of every feature row of a (N, rows, W) stack,
    one vector per matrix, bus-major interval-minor.

    Each row is cut into num_intervals contiguous segments (the last absorbs
    the remainder); each segment contributes (mean, sum, L2 norm, Linf norm).
    The reductions run on a C-ordered copy, so the result does not depend on
    the memory layout of xs.
    """
    xs = np.ascontiguousarray(xs, dtype=float)
    width = xs.shape[-1]
    if not 1 <= num_intervals <= width:
        raise ValueError(f"num_intervals {num_intervals} outside 1..{width}")
    seg = width // num_intervals
    cut = (num_intervals - 1) * seg
    segments = (xs[..., :cut].reshape(*xs.shape[:-1], num_intervals - 1, seg),
                xs[..., None, cut:])
    stats = [np.stack([s.mean(axis=-1), s.sum(axis=-1), np.linalg.norm(s, axis=-1),
                       np.abs(s).max(axis=-1)], axis=-1) for s in segments]
    return np.concatenate(stats, axis=-2).reshape(len(xs), -1)


def flatten_features(xs) -> np.ndarray:
    """One row per feature matrix of a (N, rows, W) stack."""
    return np.asarray(xs, dtype=float).reshape(len(xs), -1)


# ── Linear one-vs-rest SVM ───────────────────────────────────────────────────

@dataclass(frozen=True)
class SvmConfig:
    C: float = 1.0
    epochs: int = 200
    step: float = 1e-3  # decays as step / epoch
    seed: int = 0


@dataclass
class LinearOvrSvm:
    weights: np.ndarray  # (num_classes, dim)
    biases: np.ndarray   # (num_classes,)

    def decision_values(self, features: np.ndarray) -> np.ndarray:
        return np.atleast_2d(features) @ self.weights.T + self.biases


def train_svm_ovr(features, labels, config: SvmConfig = SvmConfig()) -> LinearOvrSvm:
    """Seeded subgradient descent on the L2-regularized hinge loss, per class."""
    features = np.asarray(features, dtype=float)
    labels = np.asarray(labels, dtype=int)
    n, dim = features.shape
    present = set(labels.tolist())
    missing = [c for c in range(1, NUM_CLASSES + 1) if c not in present]
    if missing:
        raise ValueError(f"no training examples for classes {missing}")
    lam = 1.0 / (config.C * n)
    weights = np.zeros((NUM_CLASSES, dim))
    biases = np.zeros(NUM_CLASSES)
    rng = np.random.default_rng(config.seed)
    for c in range(NUM_CLASSES):
        y = np.where(labels == c + 1, 1.0, -1.0)
        w = weights[c]
        b = 0.0
        for epoch in range(1, config.epochs + 1):
            eta = config.step / epoch
            for i in rng.permutation(n):
                if y[i] * (w @ features[i] + b) < 1.0:
                    w *= 1.0 - eta * lam
                    w += eta * y[i] * features[i]
                    b += eta * y[i]
                else:
                    w *= 1.0 - eta * lam
        biases[c] = b
    return LinearOvrSvm(weights, biases)


def svm_predict(model: LinearOvrSvm, features) -> np.ndarray:
    """Argmax of per-class decision values; ties go to the lowest class code."""
    return np.argmax(model.decision_values(np.asarray(features, dtype=float)),
                     axis=1) + 1


# ── Shared dense-network machinery (tapered MLP, autoencoder) ────────────────

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


def _fit_dense(weights, biases, inputs, targets, head, epochs, config, rng):
    """Train the dense net in place on (inputs[i], targets[i]) pairs; returns
    the per-epoch losses."""
    return fit_sgdm(
        [*weights, *biases],
        lambda idx: _dense_loss_and_grads(weights, biases, inputs[idx],
                                          targets[idx], head),
        len(inputs), epochs, config, rng)


def _dense_predict(weights, biases, features) -> np.ndarray:
    return predict_in_blocks(lambda block: _dense_forward(weights, biases, block)[-1],
                             np.atleast_2d(np.asarray(features, dtype=float)))


# ── Tapered MLP ──────────────────────────────────────────────────────────────

@dataclass(frozen=True)
class MlpConfig:
    hidden: tuple = (64, 16)
    epochs: int = 50
    batch_size: int = 8
    learning_rate: float = 0.01
    momentum: float = 0.9
    init_std: float = 0.1
    seed: int = 0


@dataclass
class TaperedMlp:
    sizes: tuple
    weights: list
    biases: list


def _taper(input_dim: int, hidden: tuple) -> tuple:
    """Strictly decreasing layer widths from the input down to the 4 classes."""
    widths = [w for w in hidden if w < input_dim]
    sizes = (input_dim, *widths, NUM_CLASSES)
    if any(a <= b for a, b in zip(sizes, sizes[1:])):
        raise ValueError(f"layer widths {sizes} are not strictly decreasing")
    return sizes


def tmlp_loss_and_grad(model: TaperedMlp, batch):
    """Mean cross-entropy over (features, class) pairs and its exact
    gradients, in [*weights, *biases] order."""
    return _dense_loss_and_grads(model.weights, model.biases,
                                 *stack_examples(batch), cross_entropy)


def train_tmlp(features, labels, config: MlpConfig = MlpConfig()) -> TaperedMlp:
    """Same trainer contract as the convolutional model, on flat features."""
    features = np.asarray(features, dtype=float)
    labels = np.asarray(labels, dtype=int)
    sizes = _taper(features.shape[1], config.hidden)
    rng = np.random.default_rng(config.seed)
    weights, biases = _init_layers(sizes, rng, config.init_std)
    _fit_dense(weights, biases, features, labels, cross_entropy, config.epochs,
               config, rng)
    return TaperedMlp(sizes, weights, biases)


def tmlp_predict(model: TaperedMlp, features) -> np.ndarray:
    return _dense_predict(model.weights, model.biases, features)


def mlp_grad_check(model: TaperedMlp, x, label: int, h: float = 1e-5) -> float:
    """Max relative error of analytic vs central-difference gradients."""
    _, grads = tmlp_loss_and_grad(model, [(x, label)])
    errors = central_difference_errors(
        lambda: tmlp_loss_and_grad(model, [(x, label)])[0],
        [*model.weights, *model.biases], grads, h)
    return max(errors)


# ── Autoencoder classifier ───────────────────────────────────────────────────

@dataclass(frozen=True)
class AeConfig:
    code_width: int = 32
    recon_epochs: int = 60
    head_epochs: int = 60
    batch_size: int = 8
    learning_rate: float = 0.01
    momentum: float = 0.9
    init_std: float = 0.1
    seed: int = 0


@dataclass
class AutoencoderClassifier:
    enc_w: np.ndarray   # (code, dim), tanh encoder
    enc_b: np.ndarray
    dec_w: np.ndarray   # (dim, code), linear decoder
    dec_b: np.ndarray
    head_w: np.ndarray  # (num_classes, code), softmax head
    head_b: np.ndarray
    recon_trace: list = field(default_factory=list)


def train_autoencoder_clf(features, labels,
                          config: AeConfig = AeConfig()) -> AutoencoderClassifier:
    """Stage 1 minimizes reconstruction MSE; stage 2 trains the softmax head
    on the frozen code."""
    features = np.asarray(features, dtype=float)
    labels = np.asarray(labels, dtype=int)
    dim = features.shape[1]
    rng = np.random.default_rng(config.seed)
    (enc_w, dec_w), (enc_b, dec_b) = _init_layers(
        (dim, config.code_width, dim), rng, config.init_std)
    (head_w,), (head_b,) = _init_layers(
        (config.code_width, NUM_CLASSES), rng, config.init_std)
    recon_trace = _fit_dense([enc_w, dec_w], [enc_b, dec_b], features, features,
                             _squared_error, config.recon_epochs, config, rng)
    codes = _dense_forward([enc_w, dec_w], [enc_b, dec_b], features)[1]
    _fit_dense([head_w], [head_b], codes, labels, cross_entropy,
               config.head_epochs, config, rng)
    return AutoencoderClassifier(enc_w, enc_b, dec_w, dec_b, head_w, head_b,
                                 recon_trace)


def ae_predict(model: AutoencoderClassifier, features) -> np.ndarray:
    return _dense_predict([model.enc_w, model.head_w], [model.enc_b, model.head_b],
                          features)


# ── Model files (same header scheme as the CNN, distinct magic) ──────────────

def save_svm(model: LinearOvrSvm, path) -> None:
    write_model_file(path, SVM_MAGIC, model.weights.shape,
                     [model.weights, model.biases])


def load_svm(path) -> LinearOvrSvm:
    f = ModelFileReader(path, SVM_MAGIC)
    n_cls = f.class_count()
    (dim,) = f.uints(1)
    model = LinearOvrSvm(f.tensor(n_cls, dim), f.tensor(n_cls))
    f.expect_end()
    return model


def save_tmlp(model: TaperedMlp, path) -> None:
    tensors = [t for pair in zip(model.weights, model.biases) for t in pair]
    write_model_file(path, TMLP_MAGIC, (len(model.sizes), *model.sizes), tensors)


def load_tmlp(path) -> TaperedMlp:
    f = ModelFileReader(path, TMLP_MAGIC)
    (n_sizes,) = f.uints(1)
    if n_sizes < 2:
        raise ValueError(f"{path}: offset 8: {n_sizes} layer sizes, expected at least 2")
    sizes = (*f.uints(n_sizes - 1), f.class_count())
    weights, biases = [], []
    for n_in, n_out in zip(sizes, sizes[1:]):
        weights.append(f.tensor(n_out, n_in))
        biases.append(f.tensor(n_out))
    f.expect_end()
    return TaperedMlp(sizes, weights, biases)


def save_autoencoder(model: AutoencoderClassifier, path) -> None:
    write_model_file(path, AE_MAGIC, model.enc_w.shape,
                     [model.enc_w, model.enc_b, model.dec_w, model.dec_b,
                      model.head_w, model.head_b])


def load_autoencoder(path) -> AutoencoderClassifier:
    f = ModelFileReader(path, AE_MAGIC)
    code, dim = f.uints(2)
    model = AutoencoderClassifier(
        f.tensor(code, dim), f.tensor(code), f.tensor(dim, code), f.tensor(dim),
        f.tensor(NUM_CLASSES, code), f.tensor(NUM_CLASSES))
    f.expect_end()
    return model
