"""Comparison classifiers: energy-feature SVM and autoencoder, tapered MLP.

The energy methods collapse each feature row into per-interval statistics
(mean, sum, Euclidean norm, infinity norm) before classification; the
tapered MLP consumes the flattened feature matrix directly. All trainers are
seeded and deterministic, and in a comparison run every method sees exactly
the same train/test index sets as the convolutional model.
"""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np

from .synthgrid import NUM_CLASSES
from .tinycnn import (ModelFileReader, central_difference_errors, sgdm_step,
                      softmax, write_model_file)

SVM_MAGIC = b"SWSV"
TMLP_MAGIC = b"SWML"
AE_MAGIC = b"SWAE"


def energy_features(fm, num_intervals: int = 8) -> np.ndarray:
    """Per-interval statistics of each feature row, bus-major interval-minor.

    Each row is cut into num_intervals contiguous segments (the last absorbs
    the remainder); each segment contributes (mean, sum, L2 norm, Linf norm).
    """
    values = np.asarray(getattr(fm, "values", fm), dtype=float)
    if values.ndim == 1:
        values = values[None, :]
    n_rows, width = values.shape
    if not 1 <= num_intervals <= width:
        raise ValueError(f"num_intervals {num_intervals} outside 1..{width}")
    seg = width // num_intervals
    out = np.empty(n_rows * num_intervals * 4)
    pos = 0
    for row in values:
        for i in range(num_intervals):
            lo = i * seg
            hi = (i + 1) * seg if i < num_intervals - 1 else width
            chunk = row[lo:hi]
            out[pos:pos + 4] = (chunk.mean(), chunk.sum(),
                                np.linalg.norm(chunk), np.abs(chunk).max())
            pos += 4
    return out


def energy_feature_set(fms, num_intervals: int = 8) -> np.ndarray:
    return np.vstack([energy_features(fm, num_intervals) for fm in fms])


def flatten_features(fms) -> np.ndarray:
    return np.vstack([np.asarray(getattr(fm, "values", fm), dtype=float).ravel()
                      for fm in fms])


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
    config: SvmConfig

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
    return LinearOvrSvm(weights, biases, config)


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


def _dense_forward(weights, biases, x, tanh_last: bool):
    """Returns the per-layer activations, input first. Hidden layers are tanh."""
    acts = [np.asarray(x, dtype=float)]
    last = len(weights) - 1
    for i, (w, b) in enumerate(zip(weights, biases)):
        z = w @ acts[-1] + b
        acts.append(np.tanh(z) if (i < last or tanh_last) else z)
    return acts


def _dense_backward(weights, acts, delta_out, tanh_last: bool):
    """Backprop from the output-layer delta; returns per-layer (dW, db)."""
    grads_w = [None] * len(weights)
    grads_b = [None] * len(weights)
    delta = delta_out
    last = len(weights) - 1
    for i in range(last, -1, -1):
        if i < last or tanh_last:
            delta = delta * (1.0 - acts[i + 1] ** 2)
        grads_w[i] = np.outer(delta, acts[i])
        grads_b[i] = delta.copy()
        if i > 0:
            delta = weights[i].T @ delta
    return grads_w, grads_b


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
    config: MlpConfig


def _taper(input_dim: int, hidden: tuple) -> tuple:
    """Strictly decreasing layer widths from the input down to the 4 classes."""
    widths = [w for w in hidden if w < input_dim]
    sizes = (input_dim, *widths, NUM_CLASSES)
    if any(a <= b for a, b in zip(sizes, sizes[1:])):
        raise ValueError(f"layer widths {sizes} are not strictly decreasing")
    return sizes


def tmlp_loss_and_grad(model: TaperedMlp, batch):
    """Mean cross-entropy and exact gradients over (features, class) pairs."""
    if not batch:
        raise ValueError("empty batch")
    total = 0.0
    gw = [np.zeros_like(w) for w in model.weights]
    gb = [np.zeros_like(b) for b in model.biases]
    for x, label in batch:
        acts = _dense_forward(model.weights, model.biases, x, tanh_last=False)
        probs = softmax(acts[-1])
        total -= np.log(probs[label - 1])
        delta = probs.copy()
        delta[label - 1] -= 1.0
        dws, dbs = _dense_backward(model.weights, acts, delta, tanh_last=False)
        for acc, d in zip(gw, dws):
            acc += d
        for acc, d in zip(gb, dbs):
            acc += d
    n = len(batch)
    for g in gw:
        g /= n
    for g in gb:
        g /= n
    return total / n, (gw, gb)


def train_tmlp(features, labels, config: MlpConfig = MlpConfig()) -> TaperedMlp:
    """Same trainer contract as the convolutional model, on flat features."""
    features = np.asarray(features, dtype=float)
    labels = np.asarray(labels, dtype=int)
    sizes = _taper(features.shape[1], config.hidden)
    rng = np.random.default_rng(config.seed)
    weights, biases = _init_layers(sizes, rng, config.init_std)
    model = TaperedMlp(sizes, weights, biases, config)
    vel_w = [np.zeros_like(w) for w in weights]
    vel_b = [np.zeros_like(b) for b in biases]
    n = len(labels)
    for _ in range(config.epochs):
        order = rng.permutation(n)
        for start in range(0, n, config.batch_size):
            idx = order[start:start + config.batch_size]
            _, (gw, gb) = tmlp_loss_and_grad(
                model, [(features[i], labels[i]) for i in idx]
            )
            sgdm_step(weights, gw, vel_w, config)
            sgdm_step(biases, gb, vel_b, config)
    return model


def tmlp_predict(model: TaperedMlp, features) -> np.ndarray:
    features = np.atleast_2d(np.asarray(features, dtype=float))
    out = np.empty(len(features), dtype=int)
    for i, x in enumerate(features):
        acts = _dense_forward(model.weights, model.biases, x, tanh_last=False)
        out[i] = int(np.argmax(acts[-1])) + 1
    return out


def mlp_grad_check(model: TaperedMlp, x, label: int, h: float = 1e-5) -> float:
    """Max relative error of analytic vs central-difference gradients."""
    _, (gw, gb) = tmlp_loss_and_grad(model, [(x, label)])
    errors = central_difference_errors(
        lambda: tmlp_loss_and_grad(model, [(x, label)])[0],
        [*model.weights, *model.biases], [*gw, *gb], h)
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
    config: AeConfig
    recon_trace: list = field(default_factory=list)

    def encode(self, x):
        return np.tanh(self.enc_w @ x + self.enc_b)

    def reconstruct(self, x):
        return self.dec_w @ self.encode(x) + self.dec_b


def reconstruction_error(model: AutoencoderClassifier, features) -> float:
    """Mean squared reconstruction error over the feature set."""
    features = np.atleast_2d(np.asarray(features, dtype=float))
    errs = [np.mean((model.reconstruct(x) - x) ** 2) for x in features]
    return float(np.mean(errs))


def train_autoencoder_clf(features, labels,
                          config: AeConfig = AeConfig()) -> AutoencoderClassifier:
    """Stage 1 minimizes reconstruction MSE; stage 2 trains the softmax head
    on the frozen code."""
    features = np.asarray(features, dtype=float)
    labels = np.asarray(labels, dtype=int)
    if len(features) == 0:
        raise ValueError("empty training set")
    n, dim = features.shape
    rng = np.random.default_rng(config.seed)
    enc_w = rng.normal(0.0, config.init_std, (config.code_width, dim))
    enc_b = np.zeros(config.code_width)
    dec_w = rng.normal(0.0, config.init_std, (dim, config.code_width))
    dec_b = np.zeros(dim)
    head_w = rng.normal(0.0, config.init_std, (NUM_CLASSES, config.code_width))
    head_b = np.zeros(NUM_CLASSES)
    model = AutoencoderClassifier(enc_w, enc_b, dec_w, dec_b, head_w, head_b, config)

    params = [enc_w, enc_b, dec_w, dec_b]
    velocity = [np.zeros_like(p) for p in params]
    for _ in range(config.recon_epochs):
        order = rng.permutation(n)
        epoch_err = 0.0
        for start in range(0, n, config.batch_size):
            idx = order[start:start + config.batch_size]
            grads = [np.zeros_like(p) for p in params]
            for i in idx:
                x = features[i]
                z = enc_w @ x + enc_b
                code = np.tanh(z)
                recon = dec_w @ code + dec_b
                err = recon - x
                epoch_err += float(np.mean(err ** 2))
                dout = 2.0 * err / dim
                grads[2] += np.outer(dout, code)
                grads[3] += dout
                dcode = (dec_w.T @ dout) * (1.0 - code ** 2)
                grads[0] += np.outer(dcode, x)
                grads[1] += dcode
            for g in grads:
                g /= len(idx)
            sgdm_step(params, grads, velocity, config)
        model.recon_trace.append(epoch_err / n)

    head = [head_w, head_b]
    head_vel = [np.zeros_like(p) for p in head]
    codes = np.vstack([model.encode(x) for x in features])
    for _ in range(config.head_epochs):
        order = rng.permutation(n)
        for start in range(0, n, config.batch_size):
            idx = order[start:start + config.batch_size]
            grads = [np.zeros_like(p) for p in head]
            for i in idx:
                probs = softmax(head_w @ codes[i] + head_b)
                delta = probs.copy()
                delta[labels[i] - 1] -= 1.0
                grads[0] += np.outer(delta, codes[i])
                grads[1] += delta
            for g in grads:
                g /= len(idx)
            sgdm_step(head, grads, head_vel, config)
    return model


def ae_predict(model: AutoencoderClassifier, features) -> np.ndarray:
    features = np.atleast_2d(np.asarray(features, dtype=float))
    out = np.empty(len(features), dtype=int)
    for i, x in enumerate(features):
        out[i] = int(np.argmax(model.head_w @ model.encode(x) + model.head_b)) + 1
    return out


# ── Model files (same header scheme as the CNN, distinct magic) ──────────────

def save_svm(model: LinearOvrSvm, path) -> None:
    write_model_file(path, SVM_MAGIC, model.weights.shape,
                     [model.weights, model.biases])


def load_svm(path) -> LinearOvrSvm:
    f = ModelFileReader(path, SVM_MAGIC)
    n_cls, dim = f.uints(2)
    model = LinearOvrSvm(f.tensor(n_cls, dim), f.tensor(n_cls), SvmConfig())
    f.expect_end()
    return model


def save_tmlp(model: TaperedMlp, path) -> None:
    tensors = []
    for w, b in zip(model.weights, model.biases):
        tensors += [w, b]
    write_model_file(path, TMLP_MAGIC, (len(model.sizes), *model.sizes), tensors)


def load_tmlp(path) -> TaperedMlp:
    f = ModelFileReader(path, TMLP_MAGIC)
    (n_sizes,) = f.uints(1)
    sizes = f.uints(n_sizes)
    weights, biases = [], []
    for n_in, n_out in zip(sizes, sizes[1:]):
        weights.append(f.tensor(n_out, n_in))
        biases.append(f.tensor(n_out))
    f.expect_end()
    return TaperedMlp(sizes, weights, biases, MlpConfig())


def save_autoencoder(model: AutoencoderClassifier, path) -> None:
    write_model_file(path, AE_MAGIC, model.enc_w.shape,
                     [model.enc_w, model.enc_b, model.dec_w, model.dec_b,
                      model.head_w, model.head_b])


def load_autoencoder(path) -> AutoencoderClassifier:
    f = ModelFileReader(path, AE_MAGIC)
    code, dim = f.uints(2)
    model = AutoencoderClassifier(
        f.tensor(code, dim), f.tensor(code), f.tensor(dim, code), f.tensor(dim),
        f.tensor(NUM_CLASSES, code), f.tensor(NUM_CLASSES), AeConfig())
    f.expect_end()
    return model
