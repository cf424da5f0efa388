"""Minimal convolutional classifier, written out by hand in numpy.

One valid-mode convolutional layer (ten 2x20 filters by default), ReLU,
1x2 max pooling, one fully connected layer, and a softmax head, trained
with mini-batch stochastic gradient descent with momentum on the
cross-entropy loss. Double precision throughout so the finite-difference
gradient oracle and the bit-determinism contracts are sharp.

Filter dimensions clamp to the input when a sweep configuration makes the
feature matrix smaller than the nominal 2x20 filter; the width additionally
backs off by one column when the valid convolution would leave a single
column, which would make the 1x2 pool empty.

The minibatch engine (fit_sgdm and its helpers) also trains the dense
baselines.
"""

from __future__ import annotations

import math
import struct
from dataclasses import dataclass
from pathlib import Path

import numpy as np

from .synthgrid import NUM_CLASSES

MODEL_MAGIC = b"SWEC"
MODEL_FORMAT_VERSION = 1


@dataclass(frozen=True)
class CnnArch:
    """Architecture constants plus the input-dependent derived dimensions."""

    input_h: int
    input_w: int
    num_filters: int = 10
    filter_h: int = 2
    filter_w: int = 20
    pool_w: int = 2
    num_classes: int = NUM_CLASSES

    def __post_init__(self):
        if self.input_h < 1 or self.input_w < 2:
            raise ValueError(
                f"input dims {self.input_h}x{self.input_w} too small for a 1x2 pool"
            )

    @property
    def eff_filter_h(self) -> int:
        return min(self.filter_h, self.input_h)

    @property
    def eff_filter_w(self) -> int:
        fw = min(self.filter_w, self.input_w)
        if self.input_w - fw + 1 < self.pool_w:
            fw = self.input_w - 1
        return fw

    @property
    def conv_h(self) -> int:
        return self.input_h - self.eff_filter_h + 1

    @property
    def conv_w(self) -> int:
        return self.input_w - self.eff_filter_w + 1

    @property
    def pooled_w(self) -> int:
        return self.conv_w // self.pool_w

    @property
    def flat_size(self) -> int:
        return self.num_filters * self.conv_h * self.pooled_w


@dataclass
class CnnModel:
    arch: CnnArch
    conv_w: np.ndarray  # (num_filters, eff_filter_h, eff_filter_w)
    conv_b: np.ndarray  # (num_filters,)
    fc_w: np.ndarray    # (num_classes, flat_size)
    fc_b: np.ndarray    # (num_classes,)

    def params(self) -> dict[str, np.ndarray]:
        return {"conv_w": self.conv_w, "conv_b": self.conv_b,
                "fc_w": self.fc_w, "fc_b": self.fc_b}


@dataclass(frozen=True)
class TrainConfig:
    epochs: int = 50
    batch_size: int = 8
    learning_rate: float = 1e-4
    momentum: float = 0.9
    init_std: float = 0.01
    seed: int = 0

    def __post_init__(self):
        if min(self.epochs, self.batch_size) < 1 or self.learning_rate <= 0 \
                or self.momentum < 0 or self.init_std <= 0:
            raise ValueError(f"invalid training configuration {self}")


def init_model(arch: CnnArch, seed: int, init_std: float = 0.01) -> CnnModel:
    """Gaussian weights (std init_std), zero biases, from one seeded stream."""
    rng = np.random.default_rng(seed)
    conv_w = rng.normal(0.0, init_std,
                        (arch.num_filters, arch.eff_filter_h, arch.eff_filter_w))
    fc_w = rng.normal(0.0, init_std, (arch.num_classes, arch.flat_size))
    return CnnModel(arch, conv_w, np.zeros(arch.num_filters),
                    fc_w, np.zeros(arch.num_classes))


def zero_state(model: CnnModel) -> dict[str, np.ndarray]:
    """Momentum velocity buffers, one per parameter tensor, in params() order."""
    return {name: np.zeros_like(p) for name, p in model.params().items()}


def _as_matrix(x) -> np.ndarray:
    values = getattr(x, "values", x)
    return np.asarray(values, dtype=float)


def im2col(x: np.ndarray, arch: CnnArch) -> np.ndarray:
    """Valid-mode patches, shape (conv_h * conv_w, eff_fh * eff_fw)."""
    fh, fw = arch.eff_filter_h, arch.eff_filter_w
    windows = np.lib.stride_tricks.sliding_window_view(x, (fh, fw))
    return windows.reshape(arch.conv_h * arch.conv_w, fh * fw)


def softmax(logits: np.ndarray) -> np.ndarray:
    shifted = logits - logits.max()
    e = np.exp(shifted)
    return e / e.sum()


def _forward_patches(model: CnnModel, patches: np.ndarray):
    arch = model.arch
    w_flat = model.conv_w.reshape(arch.num_filters, -1)
    pre = (patches @ w_flat.T).T.reshape(arch.num_filters, arch.conv_h, arch.conv_w)
    pre += model.conv_b[:, None, None]
    relu = np.maximum(pre, 0.0)
    trimmed = relu[:, :, : arch.pooled_w * arch.pool_w].reshape(
        arch.num_filters, arch.conv_h, arch.pooled_w, arch.pool_w
    )
    winners = trimmed.argmax(axis=3)
    pooled = np.take_along_axis(trimmed, winners[..., None], axis=3)[..., 0]
    flat = pooled.reshape(-1)
    logits = model.fc_w @ flat + model.fc_b
    probs = softmax(logits)
    cache = {"patches": patches, "pre": pre, "winners": winners, "flat": flat,
             "probs": probs}
    return probs, cache


def forward(model: CnnModel, x) -> tuple[np.ndarray, dict]:
    """Class probabilities for one feature matrix, plus the backprop cache."""
    x = _as_matrix(x)
    arch = model.arch
    if x.shape != (arch.input_h, arch.input_w):
        raise ValueError(
            f"input shape {x.shape} does not match architecture "
            f"{(arch.input_h, arch.input_w)}"
        )
    return _forward_patches(model, im2col(x, arch))


def _backward(model: CnnModel, cache: dict, dlogits: np.ndarray) -> list:
    """Gradients of one example, in params() order."""
    arch = model.arch
    dflat = model.fc_w.T @ dlogits
    dpool = dflat.reshape(arch.num_filters, arch.conv_h, arch.pooled_w)
    dtrim = np.zeros(
        (arch.num_filters, arch.conv_h, arch.pooled_w, arch.pool_w)
    )
    np.put_along_axis(dtrim, cache["winners"][..., None], dpool[..., None], axis=3)
    dpre = np.zeros_like(cache["pre"])
    dpre[:, :, : arch.pooled_w * arch.pool_w] = dtrim.reshape(
        arch.num_filters, arch.conv_h, arch.pooled_w * arch.pool_w
    )
    dpre *= cache["pre"] > 0.0
    dpre_flat = dpre.reshape(arch.num_filters, -1)
    return [(dpre_flat @ cache["patches"]).reshape(model.conv_w.shape),
            dpre_flat.sum(axis=1), np.outer(dlogits, cache["flat"]), dlogits]


def _cnn_loss_and_grads(model: CnnModel, examples):
    """Mean cross-entropy and gradients (params() order) over (patches,
    class code) pairs."""
    def example(pair):
        probs, cache = _forward_patches(model, pair[0])
        loss, dlogits = cross_entropy(probs, pair[1])
        return loss, _backward(model, cache, dlogits)
    return mean_loss_and_grads(model.params().values(), examples, example)


def loss_and_grad(model: CnnModel, batch) -> tuple[float, dict[str, np.ndarray]]:
    """Mean cross-entropy over (feature matrix, class code) pairs + gradients."""
    examples = []
    for x, label in batch:
        x = _as_matrix(x)
        if x.shape != (model.arch.input_h, model.arch.input_w):
            raise ValueError(f"batch item shape {x.shape} does not match arch")
        if not 1 <= int(label) <= model.arch.num_classes:
            raise ValueError(f"class code {label} outside 1..{model.arch.num_classes}")
        examples.append((im2col(x, model.arch), int(label)))
    loss, grads = _cnn_loss_and_grads(model, examples)
    return loss, dict(zip(model.params(), grads))


# ── Training engine (shared with the dense baselines) ────────────────────────

def cross_entropy(probs: np.ndarray, label: int):
    """Loss -log p[label] and its logit delta probs - onehot(label), for the
    softmax output probs and a class code label in 1..len(probs)."""
    delta = probs.copy()
    delta[label - 1] -= 1.0
    return -np.log(probs[label - 1]), delta


def mean_loss_and_grads(params, examples, example_loss_grads):
    """Mean loss and mean gradients over a batch. example_loss_grads(example)
    returns (loss, gradients parallel to params); the gradients are summed
    onto zeros in example order, then divided by the batch length."""
    if not examples:
        raise ValueError("empty batch")
    total = 0.0
    grads = [np.zeros_like(p) for p in params]
    for example in examples:
        loss, example_grads = example_loss_grads(example)
        total += loss
        for acc, g in zip(grads, example_grads):
            acc += g
    n = len(examples)
    for g in grads:
        g /= n
    return total / n, grads


def sgdm_step(params, grads, velocity, cfg) -> None:
    """v <- momentum*v - lr*g; w <- w + v, in place, over parallel sequences
    of parameter, gradient and velocity tensors. cfg supplies learning_rate
    and momentum."""
    for p, g, v in zip(params, grads, velocity):
        v *= cfg.momentum
        v -= cfg.learning_rate * g
        p += v


def fit_sgdm(params, batch_loss_grads, n: int, epochs: int, cfg, rng) -> list[float]:
    """Minibatch SGD with momentum over examples 0..n-1, updating params in
    place: each epoch cuts one permutation from rng into batches of
    cfg.batch_size (the last may be short), and batch_loss_grads(indices)
    returns (mean loss, gradients parallel to params). Returns each epoch's
    example-weighted mean batch loss."""
    if n == 0:
        raise ValueError("empty training set")
    velocity = [np.zeros_like(p) for p in params]
    losses = []
    for _ in range(epochs):
        order = rng.permutation(n)
        epoch_loss = 0.0
        for start in range(0, n, cfg.batch_size):
            idx = order[start:start + cfg.batch_size]
            loss, grads = batch_loss_grads(idx)
            sgdm_step(params, grads, velocity, cfg)
            epoch_loss += loss * len(idx)
        losses.append(epoch_loss / n)
    return losses


def train(model: CnnModel, train_set, cfg: TrainConfig):
    """Epoch loop with seeded reshuffling; returns (model, per-epoch losses)."""
    examples = [(im2col(_as_matrix(x), model.arch), int(label))
                for x, label in train_set]
    losses = fit_sgdm(
        list(model.params().values()),
        lambda idx: _cnn_loss_and_grads(model, [examples[i] for i in idx]),
        len(examples), cfg.epochs, cfg, np.random.default_rng(cfg.seed))
    return model, losses


def predict(model: CnnModel, x) -> int:
    """Most probable class code; ties resolve to the lowest code."""
    probs, _ = forward(model, x)
    return int(np.argmax(probs)) + 1


def predict_batch(model: CnnModel, xs) -> np.ndarray:
    return np.array([predict(model, x) for x in xs], dtype=int)


# ── Finite-difference verification ───────────────────────────────────────────

@dataclass
class GradCheckReport:
    max_rel_error: float
    per_tensor: dict[str, float]
    num_parameters: int


def grad_check(model: CnnModel, x, h: float = 1e-5, label: int = 1) -> GradCheckReport:
    """Central finite differences against the analytic gradient, every parameter.

    Relative error as in central_difference_errors.
    """
    if h <= 0:
        raise ValueError("step h must be positive")
    patches = im2col(_as_matrix(x), model.arch)
    _, grads = _cnn_loss_and_grads(model, [(patches, label)])
    params = model.params()
    errors = central_difference_errors(
        lambda: cross_entropy(_forward_patches(model, patches)[0], label)[0],
        params.values(), grads, h)
    per_tensor = dict(zip(params, errors))
    count = sum(p.size for p in params.values())
    return GradCheckReport(max(per_tensor.values()), per_tensor, count)


def central_difference_errors(loss, params, grads, h: float) -> list[float]:
    """Worst relative error per tensor of central differences of loss()
    against the analytic grads, nudging each entry of params in place (and
    restoring it). The denominator is max(1e-8, |analytic| + |numeric|)."""
    out = []
    for p, g in zip(params, grads):
        worst = 0.0
        flat_p = p.reshape(-1)
        flat_g = g.reshape(-1)
        for i in range(flat_p.size):
            orig = flat_p[i]
            flat_p[i] = orig + h
            up = loss()
            flat_p[i] = orig - h
            down = loss()
            flat_p[i] = orig
            fd = (up - down) / (2.0 * h)
            err = abs(fd - flat_g[i]) / max(1e-8, abs(fd) + abs(flat_g[i]))
            worst = max(worst, err)
        out.append(worst)
    return out


def make_gradcheck_case(seed: int, input_h: int = 3, input_w: int = 166,
                        h: float = 1e-5):
    """Seeded random (model, input, label) on which central differences are valid.

    The loss is piecewise smooth (ReLU kinks, pool winner switches), so a
    random draw can park a unit within h of a kink and corrupt the numeric
    derivative. Draws are rejected until every pre-activation, every pool
    margin, and every nonzero analytic gradient clears a safety band.
    """
    arch = CnnArch(input_h=input_h, input_w=input_w)
    margin = 4.0 * h * (1.0 + 1.0)  # biggest single-parameter shift is h*max|x|
    for attempt in range(1000):
        rng = np.random.default_rng([seed, attempt])
        model = CnnModel(
            arch,
            rng.normal(0.0, 0.3, (arch.num_filters, arch.eff_filter_h, arch.eff_filter_w)),
            rng.normal(0.0, 0.3, arch.num_filters),
            rng.normal(0.0, 0.05, (arch.num_classes, arch.flat_size)),
            rng.normal(0.0, 0.1, arch.num_classes),
        )
        x = rng.uniform(0.0, 1.0, (input_h, input_w))
        label = int(rng.integers(1, arch.num_classes + 1))
        _, cache = forward(model, x)
        pre = cache["pre"]
        if np.abs(pre).min() <= margin:
            continue
        trimmed = pre[:, :, : arch.pooled_w * arch.pool_w].reshape(
            arch.num_filters, arch.conv_h, arch.pooled_w, arch.pool_w
        )
        gaps = np.abs(trimmed[..., 0] - trimmed[..., 1])
        both_dead = (trimmed[..., 0] < 0) & (trimmed[..., 1] < 0)
        if np.any(~both_dead & (gaps <= margin)):
            continue
        _, grads = loss_and_grad(model, [(x, label)])
        ok = True
        for g in grads.values():
            nz = np.abs(g[g != 0.0])
            if nz.size and nz.min() <= 1e-6:
                ok = False
                break
        if ok:
            return model, x, label
    raise RuntimeError(f"no finite-difference-safe case found for seed {seed}")


# ── Model file format ────────────────────────────────────────────────────────

def write_model_file(path, magic: bytes, dims, tensors) -> None:
    """Magic, u32 format version, u32 dims, then little-endian float64 tensors."""
    header = magic + struct.pack("<I", MODEL_FORMAT_VERSION)
    header += struct.pack(f"<{len(dims)}I", *dims)
    body = b"".join(np.ascontiguousarray(t, dtype="<f8").tobytes() for t in tensors)
    Path(path).write_bytes(header + body)


class ModelFileReader:
    """Bounds-checked reader of one write_model_file file.

    Opening checks the magic and the format version; every read checks the
    remaining length first, and expect_end() rejects trailing bytes. Each
    failure is a ValueError naming the path and the byte offset.
    """

    def __init__(self, path, magic: bytes):
        self.path = path
        self.data = Path(path).read_bytes()
        self.offset = 0
        if len(self.data) >= len(magic) and self.data[:len(magic)] != magic:
            raise ValueError(
                f"{path}: offset 0: bad magic {self.data[:len(magic)]!r}, "
                f"expected {magic!r}"
            )
        self._take(len(magic))
        (version,) = self.uints(1)
        if version != MODEL_FORMAT_VERSION:
            raise ValueError(f"{path}: offset 4: unsupported format version {version}")

    def _take(self, nbytes: int) -> int:
        start = self.offset
        if start + nbytes > len(self.data):
            raise ValueError(
                f"{self.path}: offset {start}: truncated file, expected {nbytes} "
                f"bytes, {len(self.data) - start} left"
            )
        self.offset += nbytes
        return start

    def uints(self, count: int) -> tuple[int, ...]:
        return struct.unpack_from(f"<{count}I", self.data, self._take(4 * count))

    def class_count(self) -> int:
        """One u32 class count, which must be NUM_CLASSES."""
        start = self.offset
        (count,) = self.uints(1)
        if count != NUM_CLASSES:
            raise ValueError(f"{self.path}: offset {start}: {count} classes, "
                             f"expected {NUM_CLASSES}")
        return count

    def tensor(self, *shape: int) -> np.ndarray:
        count = math.prod(shape)
        start = self._take(8 * count)
        t = np.frombuffer(self.data, dtype="<f8", count=count, offset=start)
        return t.reshape(shape).astype(float)

    def expect_end(self) -> None:
        if self.offset != len(self.data):
            raise ValueError(f"{self.path}: offset {self.offset}: "
                             f"{len(self.data) - self.offset} trailing bytes")


def save_model(model: CnnModel, path) -> None:
    arch = model.arch
    dims = (arch.num_filters, arch.eff_filter_h, arch.eff_filter_w,
            arch.input_h, arch.input_w, arch.num_classes)
    write_model_file(path, MODEL_MAGIC, dims,
                     [model.conv_w, model.conv_b, model.fc_w, model.fc_b])


def load_model(path) -> CnnModel:
    f = ModelFileReader(path, MODEL_MAGIC)
    num_filters, fh, fw, input_h, input_w = f.uints(5)
    num_classes = f.class_count()
    arch = CnnArch(input_h=input_h, input_w=input_w, num_filters=num_filters,
                   num_classes=num_classes)
    if (arch.eff_filter_h, arch.eff_filter_w) != (fh, fw):
        raise ValueError(
            f"{path}: filter dims {fh}x{fw} inconsistent with input "
            f"{input_h}x{input_w}"
        )
    model = CnnModel(arch, f.tensor(num_filters, fh, fw), f.tensor(num_filters),
                     f.tensor(num_classes, arch.flat_size), f.tensor(num_classes))
    f.expect_end()
    return model
