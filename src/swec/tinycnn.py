"""Minimal convolutional classifier, written out by hand in numpy.

One valid-mode convolutional layer of ten 2x20 filters, ReLU, 1x2 max
pooling (the left column wins ties), one fully connected layer, and a
softmax head, trained with mini-batch stochastic gradient descent with
momentum on the cross-entropy loss. Double precision throughout so the
finite-difference gradient oracle and the bit-determinism contracts are
sharp.

Filter dimensions clamp to the input when a sweep configuration makes the
feature matrix smaller than the nominal 2x20 filter; the width additionally
backs off by one column when the valid convolution would leave a single
column, which would make the 1x2 pool empty.

Training and prediction run one batch at a time through one kernel,
Workspace: the batch's im2col patches sit in one matrix, so the convolution
and its weight gradient are one GEMM each (Chellapilla, Puri & Simard,
2006). A Workspace holds every buffer of one batch size (the gathered
batch, the patches, pre-activations, pool winners, pooled and flat rows,
deltas and gradients), and train and predict_batch allocate one per batch
size per call: the full batch and a short last one. batch_loss_and_grads,
grad_check and make_gradcheck_case run the same kernel on a single batch,
so the gradient oracle checks the code that trains. Inputs are checked once
per call. Functions take stacked (N, H, W) inputs and (N,) class codes;
train stacks its pairs once. train and predict_batch keep the contracts of
all four methods (swec.baselines), and the predictors' block loop
(predict_in_blocks), the minibatch engine (fit_sgdm) and the softmax
cross-entropy head (cross_entropy) also serve the dense baselines. A model
file is a swec.store tensor file.
"""

from __future__ import annotations

import functools
import math
from dataclasses import dataclass, fields
from typing import ClassVar

import numpy as np

from .store import HEADER_OFFSET, TensorFileReader, write_tensor_file
from .synthgrid import NUM_CLASSES, ConfigError

MODEL_MAGIC = b"SWEC"
PREDICT_BLOCK = 8  # rows per forward pass of every predictor (predict_in_blocks)


@dataclass(frozen=True)
class CnnArch:
    """The input dims, the paper's constants (ten 2x20 filters, 1x2 pool,
    class count) and the dimensions derived from them."""

    input_h: int
    input_w: int
    num_filters: ClassVar[int] = 10
    filter_h: ClassVar[int] = 2
    filter_w: ClassVar[int] = 20
    pool_w: ClassVar[int] = 2  # the batch kernel pools column pairs
    num_classes: ClassVar[int] = NUM_CLASSES

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
class TrainerConfig:
    """Base of the trainer configs, whose fields are all epoch counts:
    construction rejects one below 1 with a ConfigError naming the field."""

    def __post_init__(self):
        for f in fields(self):
            value = getattr(self, f.name)
            if not value >= 1:
                raise ConfigError(f"{f.name}: {value!r} is not >= 1")


BATCH_SIZE = 8  # examples per step of every SGD trainer (fit_sgdm)
MOMENTUM = 0.9
LEARNING_RATE = 1e-4  # the CNN's; the dense baselines have their own
INIT_STD = 0.01


@dataclass(frozen=True)
class TrainConfig(TrainerConfig):
    epochs: int = 50
    batch_size: ClassVar[int] = BATCH_SIZE  # readable, not a field


def init_model(arch: CnnArch, seed: int) -> CnnModel:
    """Gaussian weights (std INIT_STD), zero biases, from one seeded stream."""
    rng = np.random.default_rng(seed)
    conv_w = rng.normal(0.0, INIT_STD,
                        (arch.num_filters, arch.eff_filter_h, arch.eff_filter_w))
    fc_w = rng.normal(0.0, INIT_STD, (arch.num_classes, arch.flat_size))
    return CnnModel(arch, conv_w, np.zeros(arch.num_filters),
                    fc_w, np.zeros(arch.num_classes))


# ── The batch kernel ─────────────────────────────────────────────────────────

class Workspace:
    """The one forward and backward pass of the CNN, over batches of `rows`
    inputs, in buffers allocated once and reused by every batch of that size.

    Load a batch into x (and, to train, its class codes minus one into
    codes), then call forward or loss_and_grads; what they leave in the
    buffers, the returned logits and gradients too, holds until the next
    call. Nothing is checked here: workspace() and the callers check a
    call's inputs once.

    Filter-major throughout: the pre-activations are (F, rows, conv_h,
    conv_w). Pooling runs before the ReLU (the two commute) and takes the
    right column only where it is strictly larger, so ties go to the left
    one."""

    def __init__(self, arch: CnnArch, rows: int):
        f, ch, cw, pw = arch.num_filters, arch.conv_h, arch.conv_w, arch.pooled_w
        fh, fw, paired = arch.eff_filter_h, arch.eff_filter_w, pw * arch.pool_w
        self.x = np.empty((rows, arch.input_h, arch.input_w))
        self.codes = np.empty(rows, dtype=np.intp)
        # The im2col patches, transposed to (fh * fw, rows * conv_h * conv_w)
        # so the convolution and its weight gradient are one GEMM each. They
        # are copied through one window view of x, so the matrix is always
        # C-contiguous and never shares memory with the batch.
        self.cols = np.empty((fh * fw, rows * ch * cw))
        self._windows = np.lib.stride_tricks.sliding_window_view(
            self.x, (fh, fw), axis=(1, 2)).transpose(3, 4, 0, 1, 2)
        self._patches = self.cols.reshape(fh, fw, rows, ch, cw)
        self.pre = np.empty((f, rows, ch, cw))
        self._pre_rows = self.pre.reshape(f, -1)
        # The pooled column pairs, copied apart into two contiguous halves:
        # one strided copy, then the pool's passes run on contiguous rows.
        self._pairs = self.pre[..., :paired].reshape(
            f, rows, ch, pw, arch.pool_w).transpose(4, 0, 1, 2, 3)
        self._halves = np.empty(self._pairs.shape)
        self.right = np.empty((f, rows, ch, pw), dtype=bool)  # pool winners
        self.pooled = np.empty((f, rows, ch, pw))
        self.flat = np.empty((rows, arch.flat_size))
        self._flat_by_filter = self.flat.reshape(rows, f, ch, pw).transpose(1, 0, 2, 3)
        self.logits = np.empty((rows, arch.num_classes))
        self.dlogits = np.empty((rows, arch.num_classes))
        self._at = np.arange(rows), self.codes
        self._alive = np.empty((f, rows, ch, pw), dtype=bool)
        self._dflat = np.empty((rows, arch.flat_size))
        self._dflat_by_filter = self._dflat.reshape(rows, f, ch, pw).transpose(1, 0, 2, 3)
        self._dpooled = np.empty((f, rows, ch, pw))
        dpre = np.zeros((f, rows, ch, cw))  # an unpaired last column stays 0
        self._dpre_rows = dpre.reshape(f, -1)
        self._dpre_left, self._dpre_right = dpre[..., 0:paired:2], dpre[..., 1:paired:2]
        self.grads = [np.empty((f, fh, fw)), np.empty(f),
                      np.empty((arch.num_classes, arch.flat_size)),
                      np.empty(arch.num_classes)]  # in params() order
        self._conv_w_grad = self.grads[0].reshape(f, -1)

    def forward(self, model: CnnModel) -> np.ndarray:
        """Logits (rows, classes) of the batch in x: the convolution, pooling
        and ReLU into flat, then the head."""
        np.copyto(self._patches, self._windows)
        np.matmul(model.conv_w.reshape(len(self.pre), -1), self.cols, out=self._pre_rows)
        self.pre += model.conv_b[:, None, None, None]
        np.copyto(self._halves, self._pairs)
        left, right = self._halves
        np.greater(right, left, out=self.right)
        np.maximum(left, right, out=self.pooled)
        np.maximum(self.pooled, 0.0, out=self.pooled)
        np.copyto(self._flat_by_filter, self.pooled)
        return self.head(model)

    def head(self, model: CnnModel) -> np.ndarray:
        """The fully connected layer: logits of the rows in flat."""
        np.matmul(self.flat, model.fc_w.T, out=self.logits)
        self.logits += model.fc_b
        return self.logits

    def loss(self) -> float:
        """Mean cross-entropy of the logits against codes; leaves its logit
        delta in dlogits."""
        return _cross_entropy_into(self.logits, self._at, self.dlogits)

    def backward(self, model: CnnModel) -> list[np.ndarray]:
        """Gradients of the loss, in params() order, from dlogits and the
        forward pass's buffers."""
        g = self.grads
        np.matmul(self.dlogits, model.fc_w, out=self._dflat)
        np.greater(self.pooled, 0.0, out=self._alive)
        np.multiply(self._dflat_by_filter, self._alive, out=self._dpooled)
        np.multiply(self._dpooled, self.right, out=self._dpre_right)
        np.subtract(self._dpooled, self._dpre_right, out=self._dpre_left)
        np.matmul(self._dpre_rows, self.cols.T, out=self._conv_w_grad)
        np.sum(self._dpre_rows, axis=1, out=g[1])
        np.matmul(self.dlogits.T, self.flat, out=g[2])
        np.sum(self.dlogits, axis=0, out=g[3])
        return g

    def loss_and_grads(self, model: CnnModel):
        """Mean cross-entropy of the batch and its gradients in params() order."""
        self.forward(model)
        loss = self.loss()
        return loss, self.backward(model)


def _check_batch(arch: CnnArch, xs: np.ndarray, labels=None) -> None:
    """ValueError unless xs is a non-empty (N, H, W) stack of arch's inputs
    and labels, if given, are class codes of arch."""
    if xs.ndim and len(xs) == 0:
        raise ValueError("empty batch")
    if xs.ndim != 3 or xs.shape[1:] != (arch.input_h, arch.input_w):
        raise ValueError(f"input shape {xs.shape[1:]} does not match architecture "
                         f"{(arch.input_h, arch.input_w)}")
    if labels is not None:
        _check_codes(labels, arch.num_classes)


def workspace(model: CnnModel, xs, labels=None) -> Workspace:
    """A Workspace of len(xs) rows loaded with the checked (N, H, W) batch xs
    and, if given, its (N,) class codes."""
    xs = np.asarray(xs, dtype=float)
    labels = None if labels is None else np.asarray(labels)
    _check_batch(model.arch, xs, labels)
    ws = Workspace(model.arch, len(xs))
    ws.x[...] = xs
    if labels is not None:
        np.subtract(labels, 1, out=ws.codes)
    return ws


def batch_loss_and_grads(model: CnnModel, xs, labels):
    """Mean cross-entropy over a (B, H, W) batch with (B,) class codes, and
    its gradients in params() order: one batch through a fresh Workspace."""
    return workspace(model, xs, labels).loss_and_grads(model)


# ── Training engine (shared with the dense baselines) ────────────────────────

def softmax(logits: np.ndarray, out: np.ndarray | None = None) -> np.ndarray:
    """Softmax along the last axis, into out if given."""
    out = np.subtract(logits, np.maximum.reduce(logits, axis=-1, keepdims=True), out=out)
    np.exp(out, out=out)
    out /= np.add.reduce(out, axis=-1, keepdims=True)
    return out


def cross_entropy(logits: np.ndarray, labels: np.ndarray):
    """Mean loss -log softmax(logits)[label] over a (B, classes) batch with
    (B,) class codes, and its logit delta (softmax - onehot) / B."""
    _check_codes(labels, logits.shape[1])
    delta = np.empty(logits.shape)
    loss = _cross_entropy_into(logits, (np.arange(len(labels)), labels - 1), delta)
    return loss, delta


def _check_codes(labels: np.ndarray, classes: int) -> None:
    if len(labels) == 0:
        raise ValueError("empty batch")
    if labels.min() < 1 or labels.max() > classes:
        raise ValueError(f"class codes {np.unique(labels).tolist()} outside "
                         f"1..{classes}")


def _cross_entropy_into(logits, at, delta) -> float:
    """cross_entropy's loss, unchecked, with its delta written into delta;
    at is the (row, class code - 1) index of each example's probability."""
    softmax(logits, out=delta)
    loss = float(-np.log(delta[at]).mean())
    delta[at] -= 1.0
    delta /= len(delta)
    return loss


def sgdm_step(params, grads, velocity, learning_rate: float) -> None:
    """v <- MOMENTUM*v - learning_rate*g; w <- w + v, in place, over parallel
    sequences of parameter, gradient and velocity tensors."""
    for p, g, v in zip(params, grads, velocity):
        v *= MOMENTUM
        v -= learning_rate * g
        p += v


def fit_sgdm(params, batch_loss_grads, n: int, epochs: int, learning_rate: float,
             rng) -> list[float]:
    """Minibatch SGD with momentum over examples 0..n-1, updating params in
    place: each epoch cuts one permutation from rng into batches of
    BATCH_SIZE (the last may be short), and batch_loss_grads(indices)
    returns (mean loss, gradients parallel to params). Returns each epoch's
    example-weighted mean batch loss; one that is not finite ends training
    with a ValueError, since the parameters have diverged."""
    if n == 0:
        raise ValueError("empty training set")
    velocity = [np.zeros_like(p) for p in params]
    losses = []
    for epoch in range(1, epochs + 1):
        order = rng.permutation(n)
        epoch_loss = 0.0
        for start in range(0, n, BATCH_SIZE):
            idx = order[start:start + BATCH_SIZE]
            loss, grads = batch_loss_grads(idx)
            sgdm_step(params, grads, velocity, learning_rate)
            epoch_loss += loss * len(idx)
        losses.append(epoch_loss / n)
        if not math.isfinite(losses[-1]):
            raise ValueError(f"epoch {epoch}: loss {losses[-1]} is not finite; training "
                             f"diverged at learning_rate {learning_rate:g}")
    return losses


def train(model: CnnModel, train_set, cfg: TrainConfig, seed: int = 0):
    """Epoch loop with reshuffling seeded by seed over (feature matrix, class
    code) pairs, stacked and checked once; returns (model, per-epoch losses).
    Each batch is gathered into the Workspace of its size: the full one, and
    a short last one when BATCH_SIZE does not divide the set."""
    xs = np.array([x for x, _ in train_set], dtype=float)
    labels = np.array([int(label) for _, label in train_set])
    if len(xs):  # fit_sgdm rejects an empty set
        _check_batch(model.arch, xs, labels)
    codes = labels - 1
    sized = functools.cache(functools.partial(Workspace, model.arch))

    def batch_loss_grads(idx):
        ws = sized(len(idx))
        np.take(xs, idx, axis=0, out=ws.x)
        np.take(codes, idx, out=ws.codes)
        return ws.loss_and_grads(model)

    losses = fit_sgdm(list(model.params().values()), batch_loss_grads, len(xs),
                      cfg.epochs, LEARNING_RATE, np.random.default_rng(seed))
    return model, losses


def predict_in_blocks(logits, xs) -> np.ndarray:
    """(N,) class codes of an (N, ...) stack: argmax + 1 of logits(block), ties
    to the lowest code, PREDICT_BLOCK rows at a time. A whole-set product runs
    OpenBLAS threads that spin on the grid workers' cores after it, and the
    CNN's im2col matrix of a whole set is ~24x its 20 kHz inputs."""
    xs = np.asarray(xs, dtype=float)
    if len(xs) == 0:
        raise ValueError("empty batch")
    return np.concatenate([
        np.argmax(logits(xs[start:start + PREDICT_BLOCK]), axis=1) + 1
        for start in range(0, len(xs), PREDICT_BLOCK)])


def predict_batch(model: CnnModel, xs) -> np.ndarray:
    """The CNN's predictor: predict_in_blocks over the forward pass, each
    block copied into the Workspace of its size."""
    xs = np.asarray(xs, dtype=float)
    _check_batch(model.arch, xs)
    sized = functools.cache(functools.partial(Workspace, model.arch))

    def logits(block):
        ws = sized(len(block))
        ws.x[...] = block
        return ws.forward(model)

    return predict_in_blocks(logits, xs)


# ── Finite-difference verification ───────────────────────────────────────────

@dataclass
class GradCheckReport:
    max_rel_error: float
    per_tensor: dict[str, float]
    num_parameters: int


def grad_check(model: CnnModel, x, h: float = 1e-5, label: int = 1) -> GradCheckReport:
    """Central finite differences against the analytic gradient, every parameter.

    Relative error as in central_difference_errors. Both come from one
    Workspace, the kernel that trains. A nudged convolution parameter runs
    the whole forward pass; a nudged head parameter (fc_w, fc_b) cannot
    change the conv stage, so its loss runs the head alone on the conv
    stage's rows of the unnudged model, which gives the same bits.
    """
    _check_step(h)
    ws = workspace(model, [x], [label])
    _, grads = ws.loss_and_grads(model)
    params = model.params()

    def loss(stage):
        stage(model)
        return ws.loss()

    errors = central_difference_errors(lambda: loss(ws.forward),
                                       [model.conv_w, model.conv_b], grads[:2], h)
    ws.forward(model)  # the conv stage's rows of the unnudged model
    errors += central_difference_errors(lambda: loss(ws.head),
                                        [model.fc_w, model.fc_b], grads[2:], h)
    per_tensor = dict(zip(params, errors))
    count = sum(p.size for p in params.values())
    return GradCheckReport(max(per_tensor.values()), per_tensor, count)


def _check_step(h: float) -> None:
    if not (math.isfinite(h) and h > 0):
        raise ValueError(f"step h {h!r} is not finite and positive")


def central_difference_errors(loss, params, grads, h: float) -> list[float]:
    """Worst relative error per tensor of central differences of loss()
    against the analytic grads, nudging each entry of params in place (and
    restoring it). The denominator is max(1e-8, |analytic| + |numeric|); a
    NaN error (from a non-finite loss) counts as the worst, inf."""
    out = []
    for p, g in zip(params, grads):
        worst = 0.0
        flat_p = p.reshape(-1)
        flat_g = g.reshape(-1).tolist()  # Python floats: the same bits, less overhead
        for i in range(flat_p.size):
            orig = float(flat_p[i])
            flat_p[i] = orig + h
            up = loss()
            flat_p[i] = orig - h
            down = loss()
            flat_p[i] = orig
            fd = (up - down) / (2.0 * h)
            err = abs(fd - flat_g[i]) / max(1e-8, abs(fd) + abs(flat_g[i]))
            worst = max(worst, math.inf if math.isnan(err) else err)
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
    _check_step(h)
    if seed < 0:
        raise ValueError(f"gradcheck seed {seed} is negative")
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
        ws = workspace(model, x[None], [label])
        ws.forward(model)
        pre = ws.pre
        if np.abs(pre).min() <= margin:
            continue
        trimmed = pre[..., : arch.pooled_w * arch.pool_w].reshape(
            arch.num_filters, arch.conv_h, arch.pooled_w, arch.pool_w
        )
        gaps = np.abs(trimmed[..., 0] - trimmed[..., 1])
        both_dead = (trimmed[..., 0] < 0) & (trimmed[..., 1] < 0)
        if np.any(~both_dead & (gaps <= margin)):
            continue
        _, grads = ws.loss_and_grads(model)
        if all(np.abs(g[g != 0.0]).min(initial=np.inf) > 1e-6 for g in grads):
            return model, x, label
    raise RuntimeError(f"no finite-difference-safe case found for seed {seed} "
                       f"at step h {h!r}")


# ── Model file ───────────────────────────────────────────────────────────────

def save_model(model: CnnModel, path, run: dict) -> None:
    write_tensor_file(path, MODEL_MAGIC, model.params(), **run,
                      input_h=model.arch.input_h, input_w=model.arch.input_w)


def load_model(path) -> CnnModel:
    f = TensorFileReader(path, MODEL_MAGIC)
    dims = [f.field(k, int) for k in ("input_h", "input_w")]
    try:
        arch = CnnArch(*dims)
    except ValueError as exc:
        raise ValueError(f"{path}: offset {HEADER_OFFSET}: {exc}") from None
    return CnnModel(arch, **f.tensors({
        "conv_w": (arch.num_filters, arch.eff_filter_h, arch.eff_filter_w),
        "conv_b": (arch.num_filters,), "fc_w": ("classes", arch.flat_size),
        "fc_b": ("classes",)}, classes=NUM_CLASSES))
