"""Minimal convolutional classifier, written out by hand in numpy.

One valid-mode convolutional layer (ten 2x20 filters by default), ReLU,
1x2 max pooling (the left column wins ties), one fully connected layer, and
a softmax head, trained with mini-batch stochastic gradient descent with
momentum on the cross-entropy loss. Double precision throughout so the
finite-difference gradient oracle and the bit-determinism contracts are
sharp.

Filter dimensions clamp to the input when a sweep configuration makes the
feature matrix smaller than the nominal 2x20 filter; the width additionally
backs off by one column when the valid convolution would leave a single
column, which would make the 1x2 pool empty.

Training and prediction run one batch at a time: the batch's im2col
patches sit in one matrix, so the convolution and its weight gradient are one
GEMM each (Chellapilla, Puri & Simard, 2006). The minibatch engine
(fit_sgdm) and the batched softmax cross-entropy head (cross_entropy) also
train the dense baselines.
"""

from __future__ import annotations

import math
import struct
from dataclasses import dataclass
from pathlib import Path
from typing import ClassVar

import numpy as np

from .synthgrid import NUM_CLASSES

MODEL_MAGIC = b"SWEC"
MODEL_FORMAT_VERSION = 1
PREDICT_BLOCK = 8  # inputs per forward pass in predict_in_blocks


@dataclass(frozen=True)
class CnnArch:
    """Architecture constants plus the input-dependent derived dimensions."""

    input_h: int
    input_w: int
    num_filters: int = 10
    filter_h: int = 2
    filter_w: int = 20
    pool_w: ClassVar[int] = 2  # the batch kernel pools column pairs
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


def stack_examples(pairs):
    """Inputs stacked on a new first axis and the (B,) class codes of a
    sequence of (input, class code) pairs."""
    if len(pairs) == 0:
        raise ValueError("no examples")
    return (np.array([x for x, _ in pairs], dtype=float),
            np.array([int(label) for _, label in pairs]))


def im2col(xs: np.ndarray, arch: CnnArch) -> np.ndarray:
    """Valid-mode patches of a (B, H, W) batch, transposed to
    (eff_fh * eff_fw, B * conv_h * conv_w) so the convolution is one GEMM."""
    fh, fw = arch.eff_filter_h, arch.eff_filter_w
    windows = np.lib.stride_tricks.sliding_window_view(xs, (fh, fw), axis=(1, 2))
    return windows.transpose(3, 4, 0, 1, 2).reshape(fh * fw, -1)


def softmax(logits: np.ndarray) -> np.ndarray:
    """Softmax along the last axis."""
    e = np.exp(logits - logits.max(axis=-1, keepdims=True))
    return e / e.sum(axis=-1, keepdims=True)


def _forward_batch(model: CnnModel, xs) -> tuple[np.ndarray, dict]:
    """Logits (B, classes) of a (B, H, W) batch, plus the backprop cache.

    Filter-major throughout: the pre-activations are (F, B, conv_h, conv_w).
    Pooling runs before the ReLU (the two commute) and takes the right
    column only where it is strictly larger, so ties go to the left one."""
    arch = model.arch
    xs = np.asarray(xs, dtype=float)
    if xs.ndim != 3 or xs.shape[1:] != (arch.input_h, arch.input_w):
        raise ValueError(f"input shape {xs.shape[1:]} does not match architecture "
                         f"{(arch.input_h, arch.input_w)}")
    f, b = arch.num_filters, len(xs)
    cols = im2col(xs, arch)
    pre = (model.conv_w.reshape(f, -1) @ cols).reshape(f, b, arch.conv_h, arch.conv_w)
    pre += model.conv_b[:, None, None, None]
    pairs = pre[..., : arch.pooled_w * arch.pool_w].reshape(
        f, b, arch.conv_h, arch.pooled_w, arch.pool_w)
    right = pairs[..., 1] > pairs[..., 0]
    pooled = np.maximum(np.maximum(pairs[..., 0], pairs[..., 1]), 0.0)
    flat = pooled.transpose(1, 0, 2, 3).reshape(b, -1)
    logits = flat @ model.fc_w.T + model.fc_b
    return logits, {"cols": cols, "pre": pre, "right": right, "pooled": pooled,
                    "flat": flat}


def forward(model: CnnModel, x) -> tuple[np.ndarray, dict]:
    """Class probabilities for one feature matrix, plus its pre-activations
    (F, conv_h, conv_w) and flattened pooled activations."""
    logits, cache = _forward_batch(model, [x])
    return softmax(logits[0]), {"pre": cache["pre"][:, 0], "flat": cache["flat"][0]}


def batch_loss_and_grads(model: CnnModel, xs, labels):
    """Mean cross-entropy over a (B, H, W) batch with (B,) class codes, and
    its gradients in params() order."""
    arch = model.arch
    f, b = arch.num_filters, len(xs)
    logits, cache = _forward_batch(model, xs)
    loss, dlogits = cross_entropy(logits, labels)
    dpooled = (dlogits @ model.fc_w).reshape(b, f, arch.conv_h, arch.pooled_w)
    dpooled = dpooled.transpose(1, 0, 2, 3) * (cache["pooled"] > 0.0)
    to_right = dpooled * cache["right"]
    dpre = np.zeros_like(cache["pre"])
    pooled_cols = arch.pooled_w * arch.pool_w
    dpre[..., 1:pooled_cols:2] = to_right
    dpre[..., 0:pooled_cols:2] = dpooled - to_right
    dpre = dpre.reshape(f, -1)
    return loss, [(dpre @ cache["cols"].T).reshape(model.conv_w.shape),
                  dpre.sum(axis=1), dlogits.T @ cache["flat"], dlogits.sum(axis=0)]


def loss_and_grad(model: CnnModel, batch) -> tuple[float, dict[str, np.ndarray]]:
    """Mean cross-entropy over (feature matrix, class code) pairs + gradients."""
    loss, grads = batch_loss_and_grads(model, *stack_examples(batch))
    return loss, dict(zip(model.params(), grads))


# ── Training engine (shared with the dense baselines) ────────────────────────

def cross_entropy(logits: np.ndarray, labels: np.ndarray):
    """Mean loss -log softmax(logits)[label] over a (B, classes) batch with
    (B,) class codes, and its logit delta (softmax - onehot) / B."""
    if labels.min() < 1 or labels.max() > logits.shape[1]:
        raise ValueError(f"class codes {np.unique(labels).tolist()} outside "
                         f"1..{logits.shape[1]}")
    probs = softmax(logits)
    at = np.arange(len(labels)), labels - 1
    loss = float(-np.log(probs[at]).mean())
    probs[at] -= 1.0
    return loss, probs / len(labels)


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
    """Epoch loop with seeded reshuffling over (feature matrix, class code)
    pairs, stacked once; returns (model, per-epoch losses)."""
    xs, labels = stack_examples(train_set)
    losses = fit_sgdm(
        list(model.params().values()),
        lambda idx: batch_loss_and_grads(model, xs[idx], labels[idx]),
        len(xs), cfg.epochs, cfg, np.random.default_rng(cfg.seed))
    return model, losses


def predict_in_blocks(logits, xs) -> np.ndarray:
    """Most probable class code of each input of the array xs, ties to the
    lowest code, from logits(block) over PREDICT_BLOCK inputs at a time.
    Blocks the size of a training batch reuse the GEMM shapes training
    already ran; a whole-set product can take OpenBLAS's slower threaded
    path (and the CNN's im2col matrix is about 40x its inputs)."""
    return np.concatenate([
        np.argmax(logits(xs[start:start + PREDICT_BLOCK]), axis=1) + 1
        for start in range(0, max(len(xs), 1), PREDICT_BLOCK)])


def predict_batch(model: CnnModel, xs) -> np.ndarray:
    """Most probable class code of each (H, W) input of xs; ties resolve to
    the lowest code."""
    return predict_in_blocks(lambda block: _forward_batch(model, block)[0],
                             np.asarray(xs, dtype=float))


def predict(model: CnnModel, x) -> int:
    """predict_batch of one feature matrix."""
    return int(predict_batch(model, [x])[0])


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
    xs, labels = np.asarray([x], dtype=float), np.array([label])
    _, grads = batch_loss_and_grads(model, xs, labels)
    params = model.params()
    errors = central_difference_errors(
        lambda: cross_entropy(_forward_batch(model, xs)[0], labels)[0],
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
    remaining length first, a tensor must hold only finite values, and
    expect_end() rejects trailing bytes. Each failure is a ValueError naming
    the path and the byte offset.
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
        if not np.isfinite(t).all():
            raise ValueError(f"{self.path}: offset {start}: non-finite value in tensor")
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
