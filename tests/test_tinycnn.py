import math
from dataclasses import fields

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from swec import tinycnn
from swec.store import TensorFileReader
from swec.tinycnn import (CnnArch, CnnModel, TrainConfig, Workspace,
                          batch_loss_and_grads, fit_sgdm, grad_check, init_model,
                          make_gradcheck_case, predict_batch, sgdm_step, softmax,
                          train, workspace)
from conftest import RUN_FIELDS as RUN

# Worst relative error per tensor (conv_w, conv_b, fc_w, fc_b) of the ten
# criterion-3 cases (3x166 input, h = 1e-5), from central differences that
# run the whole forward pass for every parameter (numpy 2.4, OpenBLAS 0.3).
FULL_FORWARD_ERRORS = {
    0: (1.442522417897331e-08, 3.1770486277933703e-10,
        1.1936820959503144e-07, 3.142913030156239e-11),
    1: (4.161372442085303e-08, 2.889847380047865e-09,
        1.5214698154533965e-08, 2.52112930790858e-11),
    2: (1.1286236617933074e-08, 3.198905818940583e-10,
        5.437002342583134e-07, 6.353138968509528e-11),
    3: (2.5452716094932834e-08, 3.090397156933226e-10,
        4.202170089610656e-08, 5.1476715412757074e-11),
    4: (2.6484422459848536e-09, 1.2213112427667852e-10,
        1.2565439305337884e-07, 6.097734537806484e-11),
    5: (2.3628987980629705e-08, 4.419770993325116e-10,
        3.055161684235696e-08, 9.009005268391522e-11),
    6: (9.446763809914654e-09, 8.421348278400877e-11,
        4.227942552384573e-08, 2.1203518573086506e-11),
    7: (1.1962346023140324e-08, 1.5511717417773872e-10,
        1.642334839622766e-08, 3.591554244451751e-11),
    8: (1.830848359284656e-08, 3.300311694508475e-10,
        2.1577646904087792e-08, 8.116692332401612e-11),
    9: (6.530622865697363e-09, 1.4004441765332622e-10,
        1.1772735906622822e-08, 3.006903770713932e-11),
}


@pytest.fixture
def one_filter(monkeypatch):
    """CnnArch at one filter, for kernels small enough to check by hand."""
    monkeypatch.setattr(CnnArch, "num_filters", 1)


def init_at_std(arch, seed, std):
    """init_model with its weights drawn at std `std` in place of INIT_STD."""
    with pytest.MonkeyPatch.context() as patch:
        patch.setattr(tinycnn, "INIT_STD", std)
        return init_model(arch, seed)


def manual_model(arch, conv_w, conv_b, fc_w, fc_b):
    return CnnModel(arch, np.asarray(conv_w, dtype=float),
                    np.asarray(conv_b, dtype=float),
                    np.asarray(fc_w, dtype=float),
                    np.asarray(fc_b, dtype=float))


def probs_of(model, xs):
    """Class probabilities of each input of xs."""
    return softmax(workspace(model, xs).forward(model))


def forwarded(model, xs):
    """A fresh workspace after the forward pass of xs."""
    ws = workspace(model, xs)
    ws.forward(model)
    return ws


class TestArch:
    def test_paper_dimensions(self):
        arch = CnnArch(input_h=3, input_w=166)
        assert (arch.eff_filter_h, arch.eff_filter_w) == (2, 20)
        assert (arch.conv_h, arch.conv_w) == (2, 147)
        assert arch.pooled_w == 73
        assert arch.flat_size == 1460

    def test_single_bus_clamps_height(self):
        arch = CnnArch(input_h=1, input_w=166)
        assert arch.eff_filter_h == 1
        assert arch.conv_h == 1

    def test_narrow_input_clamps_width_keeping_pool_alive(self):
        arch = CnnArch(input_h=1, input_w=10)
        assert arch.eff_filter_w == 9
        assert arch.conv_w == 2
        assert arch.pooled_w == 1

    def test_too_small_rejected(self):
        with pytest.raises(ValueError):
            CnnArch(input_h=1, input_w=1)

    def test_filter_dims_and_class_count_are_constants(self):
        # model files record only input_h and input_w
        assert [f.name for f in fields(CnnArch)] == ["input_h", "input_w"]
        assert CnnArch.num_filters == 10
        for knob in ("num_filters", "filter_h", "filter_w", "num_classes"):
            with pytest.raises(TypeError):
                CnnArch(3, 166, **{knob: 10})


class TestInit:
    def test_biases_zero(self):
        model = init_model(CnnArch(3, 166), seed=1)
        assert np.all(model.conv_b == 0.0)
        assert np.all(model.fc_b == 0.0)

    def test_conv_weight_sample_std(self):
        model = init_model(CnnArch(3, 166), seed=2)
        assert model.conv_w.size == 400
        assert 0.007 <= model.conv_w.std() <= 0.013

    def test_same_seed_identical(self):
        a = init_model(CnnArch(3, 166), seed=3)
        b = init_model(CnnArch(3, 166), seed=3)
        np.testing.assert_array_equal(a.conv_w, b.conv_w)
        np.testing.assert_array_equal(a.fc_w, b.fc_w)


class TestForward:
    def test_hand_convolution(self, one_filter):
        arch = CnnArch(input_h=2, input_w=3)  # 2x2 filter
        model = manual_model(arch, np.ones((1, 2, 2)), [0.0],
                             np.zeros((4, arch.flat_size)), np.zeros(4))
        ws = forwarded(model, np.ones((1, 2, 3)))
        np.testing.assert_array_equal(ws.pre, [[[[4.0, 4.0]]]])

    def test_max_pool(self, one_filter):
        # a 1x20 filter that passes its first tap: pre-activations 1, 3, 2, 5
        arch = CnnArch(input_h=1, input_w=23)
        conv_w = np.zeros((1, 1, 20))
        conv_w[0, 0, 0] = 1.0
        model = manual_model(arch, conv_w, [0.0],
                             np.zeros((4, arch.flat_size)), np.zeros(4))
        x = np.zeros((1, 1, 23))
        x[0, 0, :4] = [1.0, 3.0, 2.0, 5.0]
        np.testing.assert_array_equal(forwarded(model, x).flat, [[3.0, 5.0]])

    def test_zero_logits_uniform(self):
        arch = CnnArch(3, 24)
        model = manual_model(
            arch, np.zeros((arch.num_filters, 2, 20)), np.zeros(10),
            np.zeros((4, arch.flat_size)), np.zeros(4),
        )
        probs = probs_of(model, np.random.default_rng(0).random((1, 3, 24)))
        np.testing.assert_allclose(probs, 0.25, atol=1e-12)

    def test_softmax_extreme_logits(self):
        p = softmax(np.array([1e4, -1e4, 0.0, 5e3]))
        assert abs(p.sum() - 1.0) < 1e-9
        assert np.all(p >= 0.0)

    def test_dimension_mismatch(self):
        model = init_model(CnnArch(3, 24), seed=0)
        for run in (lambda: workspace(model, np.zeros((1, 2, 24))),
                    lambda: predict_batch(model, np.zeros((1, 2, 24)))):
            with pytest.raises(ValueError, match=r"input shape \(2, 24\) does not "
                                                 r"match architecture \(3, 24\)"):
                run()

    @pytest.mark.parametrize("rows, h, w", [(1, 1, 166), (1, 1, 41), (8, 1, 166),
                                            (1, 3, 166), (5, 2, 24), (1, 1, 10)])
    def test_patch_matrix_is_contiguous_and_owns_its_memory(self, rows, h, w):
        # a one-row input once gave a one-record batch a (8, 8)-strided view
        # of the batch here, so its GEMMs ran on another memory layout
        model = init_model(CnnArch(h, w), seed=0)
        xs = np.random.default_rng(rows * h * w).random((rows, h, w))
        ws = forwarded(model, xs)
        assert ws.cols.flags.c_contiguous
        assert not np.shares_memory(ws.cols, ws.x)
        arch = model.arch
        patches = np.array([
            [xs[b, r + i, c + j] for b in range(rows) for r in range(arch.conv_h)
             for c in range(arch.conv_w)]
            for i in range(arch.eff_filter_h) for j in range(arch.eff_filter_w)])
        np.testing.assert_array_equal(ws.cols, patches)

    def test_filter_permutation_consistency(self):
        # permuting filters together with the matching FC blocks keeps logits
        arch = CnnArch(3, 30)
        model = init_model(arch, seed=8)
        x = np.random.default_rng(8).random((1, 3, 30))
        base = probs_of(model, x)
        perm = np.random.default_rng(9).permutation(arch.num_filters)
        block = arch.conv_h * arch.pooled_w
        fc_blocks = model.fc_w.reshape(4, arch.num_filters, block)
        permuted = manual_model(
            arch, model.conv_w[perm], model.conv_b[perm],
            fc_blocks[:, perm, :].reshape(4, -1), model.fc_b,
        )
        swapped = probs_of(permuted, x)
        np.testing.assert_allclose(swapped, base, atol=1e-12)


class TestLossGrad:
    def test_uniform_loss_is_ln4(self):
        arch = CnnArch(3, 24)
        model = manual_model(
            arch, np.zeros((10, 2, 20)), np.zeros(10),
            np.zeros((4, arch.flat_size)), np.zeros(4),
        )
        x = np.random.default_rng(1).random((3, 24))
        loss, _ = batch_loss_and_grads(model, x[None], np.array([2]))
        assert loss == pytest.approx(math.log(4.0), abs=1e-12)

    def test_duplicated_batch_invariance(self):
        model = init_model(CnnArch(3, 24), seed=4)
        x = np.random.default_rng(4).random((3, 24))
        y = np.random.default_rng(5).random((3, 24))
        single, g1 = batch_loss_and_grads(model, np.array([x, y]), np.array([1, 3]))
        double, g2 = batch_loss_and_grads(model, np.array([x, y, x, y]),
                                          np.array([1, 3, 1, 3]))
        assert single == pytest.approx(double, abs=1e-12)
        for a, b in zip(g1, g2):
            np.testing.assert_allclose(a, b, atol=1e-12)

    def test_empty_batch(self):
        with pytest.raises(ValueError, match="empty batch"):
            batch_loss_and_grads(init_model(CnnArch(3, 24), 0), np.zeros((0, 3, 24)),
                                 np.zeros(0, dtype=int))

    def test_fc_bias_gradient_zero_at_balanced_saddle(self):
        arch = CnnArch(3, 24)
        model = manual_model(
            arch, np.zeros((10, 2, 20)), np.zeros(10),
            np.zeros((4, arch.flat_size)), np.zeros(4),
        )
        x = np.random.default_rng(2).random((3, 24))
        _, grads = batch_loss_and_grads(model, np.array([x] * 4), np.arange(1, 5))
        fc_b = grads[list(model.params()).index("fc_b")]
        assert np.abs(fc_b).max() < 1e-12

    @pytest.mark.parametrize("seed", [0, 1, 2])
    def test_matches_finite_differences(self, seed):
        model, x, label = make_gradcheck_case(seed, input_h=3, input_w=24)
        report = grad_check(model, x, label=label)
        assert report.max_rel_error < 1e-4

    @pytest.mark.parametrize("h", [math.nan, math.inf, 0.0, -1e-5])
    def test_bad_step_rejected(self, h):
        model, x, label = make_gradcheck_case(0, input_h=3, input_w=24)
        for check in (lambda: grad_check(model, x, h=h, label=label),
                      lambda: make_gradcheck_case(0, input_h=3, input_w=24, h=h)):
            with pytest.raises(ValueError, match=rf"step h {h!r} is not finite"):
                check()

    def test_nan_error_counts_as_worst(self):
        p, g = np.zeros(3), np.zeros(3)
        losses = iter([0.0, 0.0, math.nan, 0.0, 0.0, 0.0])
        assert tinycnn.central_difference_errors(lambda: next(losses), [p], [g],
                                                 1e-5) == [math.inf]

    @pytest.mark.parametrize("seed, h", [(0, 1e-5), (1, 1e-5), (2, 5e-4)])
    def test_head_errors_equal_full_forward_differences(self, seed, h):
        # the head's differences reuse the conv stage's rows, to the last bit
        model, x, label = make_gradcheck_case(seed, input_h=3, input_w=24, h=h)
        report = grad_check(model, x, h=h, label=label)
        xs, labels = x[None], np.array([label])
        _, grads = batch_loss_and_grads(model, xs, labels)
        full = tinycnn.central_difference_errors(
            lambda: tinycnn.cross_entropy(workspace(model, xs).forward(model),
                                          labels)[0],
            model.params().values(), grads, h)
        assert list(report.per_tensor.values()) == full

    @pytest.mark.parametrize("seed", range(4, 10))
    def test_criterion3_errors_pinned(self, seed):
        # seeds 0-3 are pinned through `swec gradcheck` (test_cli)
        model, x, label = make_gradcheck_case(seed, input_h=3, input_w=166)
        report = grad_check(model, x, h=1e-5, label=label)
        assert tuple(report.per_tensor.values()) == FULL_FORWARD_ERRORS[seed]

    def test_report_covers_every_tensor(self):
        model, x, label = make_gradcheck_case(5, input_h=2, input_w=16)
        report = grad_check(model, x, label=label)
        assert set(report.per_tensor) == {"conv_w", "conv_b", "fc_w", "fc_b"}
        expected = sum(p.size for p in model.params().values())
        assert report.num_parameters == expected


class TestBatchRelations:
    """The batch kernel against its B = 1 calls and against the same batch
    permuted. Permuting reorders the sums inside each GEMM, so it holds to
    rounding rather than to the last bit."""

    def _case(self):
        rng = np.random.default_rng(21)
        model = init_at_std(CnnArch(3, 166), 21, 0.3)
        return model, rng.random((8, 3, 166)), rng.integers(1, 5, 8)

    def test_batch_equals_mean_of_single_examples(self):
        model, xs, labels = self._case()
        _, grads = batch_loss_and_grads(model, xs, labels)
        singles = [batch_loss_and_grads(model, xs[i:i + 1], labels[i:i + 1])[1]
                   for i in range(len(xs))]
        for k, g in enumerate(grads):
            mean = np.mean([s[k] for s in singles], axis=0)
            assert np.abs(g - mean).max() <= 1e-14 * np.abs(g).max()

    def test_permuted_batch_same_gradients(self):
        model, xs, labels = self._case()
        perm = np.random.default_rng(22).permutation(len(xs))
        _, grads = batch_loss_and_grads(model, xs, labels)
        _, permuted = batch_loss_and_grads(model, xs[perm], labels[perm])
        for g, p in zip(grads, permuted):
            assert np.abs(g - p).max() <= 1e-11 * np.abs(g).max()

    def test_pool_tie_goes_to_left_column(self, one_filter):
        # both pool columns pre-activate to 1.0 but see different patches
        arch = CnnArch(input_h=1, input_w=3)  # 1x2 filter
        model = manual_model(arch, np.ones((1, 1, 2)), [0.0],
                             np.arange(1.0, 5.0)[:, None], np.zeros(4))
        _, tie = batch_loss_and_grads(model, np.array([[[1.0, 0.0, 1.0]]]),
                                      np.array([1]))
        _, left = batch_loss_and_grads(model, np.array([[[1.0, 0.0, 0.5]]]),
                                       np.array([1]))
        np.testing.assert_array_equal(tie[0], left[0])
        assert tie[0][0, 0, 0] != 0.0 and tie[0][0, 0, 1] == 0.0

    def test_class_code_out_of_range_rejected(self):
        model = init_model(CnnArch(3, 24), seed=0)
        with pytest.raises(ValueError, match="class codes"):
            batch_loss_and_grads(model, np.zeros((2, 3, 24)), np.array([1, 5]))


class TestWorkspaceReuse:
    """train and predict_batch reuse one Workspace per batch size; a buffer
    left stale by the previous batch would show against fresh ones."""

    @pytest.mark.parametrize("h", [1, 2, 3])
    @pytest.mark.parametrize("w", [10, 166])
    def test_train_equals_fresh_single_batch_steps(self, h, w):
        rng = np.random.default_rng([h, w])
        xs, labels = rng.random((13, h, w)), rng.integers(1, 5, 13)  # batches 8 + 5
        cfg = TrainConfig(epochs=3)
        trained, losses = train(init_at_std(CnnArch(h, w), 7, 0.1),
                                list(zip(xs, labels)), cfg, 5)
        model = init_at_std(CnnArch(h, w), 7, 0.1)
        params = list(model.params().values())
        velocity = [np.zeros_like(p) for p in params]
        order_rng, expected = np.random.default_rng(5), []
        for _ in range(cfg.epochs):
            order, total = order_rng.permutation(len(xs)), 0.0
            for start in range(0, len(xs), tinycnn.BATCH_SIZE):
                idx = order[start:start + tinycnn.BATCH_SIZE]
                loss, grads = batch_loss_and_grads(model, xs[idx], labels[idx])
                sgdm_step(params, grads, velocity, tinycnn.LEARNING_RATE)
                total += loss * len(idx)
            expected.append(total / len(xs))
        assert losses == expected
        for name, p in model.params().items():
            assert trained.params()[name].tobytes() == p.tobytes(), name

    @pytest.mark.parametrize("h, w", [(1, 10), (3, 166)])
    def test_predict_blocks_match_fresh_workspaces(self, h, w):
        rng = np.random.default_rng(h * w)
        model = init_at_std(CnnArch(h, w), 3, 0.5)
        xs = rng.normal(size=(26, h, w)) * rng.uniform(0, 4, (26, 1, 1))
        reused = {8: Workspace(model.arch, 8), 5: Workspace(model.arch, 5)}
        for start, stop in [(0, 8), (8, 13), (13, 21), (21, 26), (5, 13), (0, 5)]:
            ws = reused[stop - start]
            ws.x[...] = xs[start:stop]
            fresh = workspace(model, xs[start:stop]).forward(model)
            assert ws.forward(model).tobytes() == fresh.tobytes()
        for n in (8, 5, 16, 13, 21, 26):
            expected = [np.argmax(workspace(model, xs[s:min(s + 8, n)]).forward(model),
                                  axis=1) + 1 for s in range(0, n, 8)]
            codes = predict_batch(model, xs[:n])
            assert codes.tolist() == np.concatenate(expected).tolist()
            assert len(set(codes.tolist())) > 1


@pytest.mark.usefixtures("one_filter")
class TestSgdm:
    def _scalarish_model(self):
        arch = CnnArch(input_h=1, input_w=3)  # 1x2 filter
        return manual_model(arch, np.zeros((1, 1, 2)), [0.0],
                            np.zeros((4, arch.flat_size)), np.zeros(4))

    def test_single_step(self):
        model = self._scalarish_model()
        state = {n: np.zeros_like(p) for n, p in model.params().items()}
        grads = {n: np.full_like(p, 2.0) for n, p in model.params().items()}
        sgdm_step(model.params().values(), grads.values(), state.values(), 1e-4)
        assert model.conv_w[0, 0, 0] == pytest.approx(-2e-4, abs=1e-18)

    def test_second_step_velocity(self):
        model = self._scalarish_model()
        state = {n: np.zeros_like(p) for n, p in model.params().items()}
        grads = {n: np.full_like(p, 2.0) for n, p in model.params().items()}
        for _ in range(2):  # momentum 0.9
            sgdm_step(model.params().values(), grads.values(), state.values(), 1e-4)
        assert state["conv_w"][0, 0, 0] == pytest.approx(-3.8e-4, abs=1e-18)

    def test_zero_learning_rate_is_identity(self):
        model = self._scalarish_model()
        model.conv_w[0, 0, 0] = 1.5
        state = {n: np.zeros_like(p) for n, p in model.params().items()}
        grads = {n: np.full_like(p, 7.0) for n, p in model.params().items()}
        sgdm_step(model.params().values(), grads.values(), state.values(), 0.0)
        assert model.conv_w[0, 0, 0] == 1.5

    def test_config_validation(self):
        with pytest.raises(ValueError, match=r"^epochs: 0 is not >= 1$"):
            TrainConfig(epochs=0)
        with pytest.raises(TypeError):
            TrainConfig(learning_rate=1e-4)

    def test_batch_size_is_the_constant_not_a_field(self):
        assert TrainConfig().batch_size == tinycnn.BATCH_SIZE == 8
        with pytest.raises(TypeError):
            TrainConfig(batch_size=16)


class TestFitSgdm:
    def test_short_last_batch(self):
        param = np.zeros(1)
        batches = []

        def batch_loss_grads(idx):
            batches.append(list(idx))
            return float(sum(idx)) + 0.5, [np.ones(1)]

        losses = fit_sgdm([param], batch_loss_grads, 21, 3, 0.1,
                          np.random.default_rng(0))
        assert len(losses) == 3 and len(batches) == 9
        for epoch, loss in enumerate(losses):
            epoch_batches = batches[3 * epoch:3 * epoch + 3]
            assert [len(b) for b in epoch_batches] == [8, 8, 5]
            assert sorted(i for b in epoch_batches for i in b) == list(range(21))
            weighted = sum((sum(b) + 0.5) * len(b) for b in epoch_batches) / 21
            assert loss == pytest.approx(weighted, rel=1e-15)
        velocity = position = 0.0
        for _ in range(9):  # one momentum step per batch
            velocity = 0.9 * velocity - 0.1
            position += velocity
        assert param[0] == pytest.approx(position, abs=1e-14)

    def test_diverging_loss_names_epoch_and_learning_rate(self, monkeypatch):
        data = TestTrain._toy_set(None)
        model = init_model(CnnArch(2, 24), seed=0)
        monkeypatch.setattr(tinycnn, "LEARNING_RATE", 1e200)
        with np.errstate(all="ignore"), pytest.raises(
                ValueError, match=r"^epoch 1: loss nan is not finite; training "
                                  r"diverged at learning_rate 1e\+200$"):
            train(model, data, TrainConfig(epochs=3), 0)


class TestTrain:
    def _toy_set(self):
        # class-constant feature matrices, separable by construction
        a = np.zeros((2, 24))
        a[0, :12] = 1.0
        b = np.zeros((2, 24))
        b[1, 12:] = 1.0
        return [(a, 1), (b, 2)] * 40

    def test_separable_toy_reaches_full_accuracy(self):
        data = self._toy_set()
        arch = CnnArch(2, 24)
        model = init_model(arch, seed=0)
        model, losses = train(model, data, TrainConfig(), 0)
        preds = predict_batch(model, [x for x, _ in data])
        assert preds.tolist() == [label for _, label in data]
        assert losses[-1] < losses[0]

    def test_training_deterministic(self):
        data = self._toy_set()
        arch = CnnArch(2, 24)
        runs = []
        for _ in range(2):
            model = init_model(arch, seed=3)
            model, _ = train(model, data, TrainConfig(epochs=5), 3)
            runs.append(model)
        np.testing.assert_array_equal(runs[0].conv_w, runs[1].conv_w)
        np.testing.assert_array_equal(runs[0].fc_w, runs[1].fc_w)

    def test_loss_trace_length(self):
        data = self._toy_set()
        model = init_model(CnnArch(2, 24), seed=1)
        _, losses = train(model, data, TrainConfig(epochs=7), 1)
        assert len(losses) == 7

    def test_empty_training_set(self):
        with pytest.raises(ValueError):
            train(init_model(CnnArch(2, 24), 0), [], TrainConfig())


class TestPredict:
    def test_argmax_from_bias(self):
        arch = CnnArch(3, 24)
        model = manual_model(
            arch, np.zeros((10, 2, 20)), np.zeros(10),
            np.zeros((4, arch.flat_size)), np.log([0.1, 0.7, 0.1, 0.1]),
        )
        assert predict_batch(model, np.zeros((1, 3, 24))).tolist() == [2]

    def test_exact_tie_takes_lowest_code(self):
        arch = CnnArch(3, 24)
        model = manual_model(
            arch, np.zeros((10, 2, 20)), np.zeros(10),
            np.zeros((4, arch.flat_size)), np.zeros(4),
        )
        assert predict_batch(model, np.ones((1, 3, 24))).tolist() == [1]

    def test_logit_shift_invariance(self):
        arch = CnnArch(3, 24)
        xs = np.random.default_rng(11).random((5, 3, 24))
        model = init_model(arch, seed=11)
        before = predict_batch(model, xs)
        model.fc_b += 123.0
        np.testing.assert_array_equal(predict_batch(model, xs), before)


class TestModelFile:
    def test_round_trip(self, tmp_path):
        model = init_model(CnnArch(3, 166), seed=6)
        model.conv_b[:] = np.arange(10) * 0.1
        path = tmp_path / "model.bin"
        tinycnn.save_model(model, path, RUN)
        header = TensorFileReader(path, tinycnn.MODEL_MAGIC).header
        assert {k: v for k, v in header.items() if k != "tensors"} == \
            {**RUN, "input_h": 3, "input_w": 166}
        loaded = tinycnn.load_model(path)
        np.testing.assert_array_equal(loaded.conv_w, model.conv_w)
        np.testing.assert_array_equal(loaded.conv_b, model.conv_b)
        np.testing.assert_array_equal(loaded.fc_w, model.fc_w)
        np.testing.assert_array_equal(loaded.fc_b, model.fc_b)
        assert loaded.arch == model.arch

    def test_magic_bytes(self, tmp_path):
        path = tmp_path / "model.bin"
        tinycnn.save_model(init_model(CnnArch(3, 166), 0), path, RUN)
        assert path.read_bytes()[:4] == b"SWEC"

    def test_truncated_file_rejected(self, tmp_path):
        path = tmp_path / "model.bin"
        tinycnn.save_model(init_model(CnnArch(3, 166), 0), path, RUN)
        data = path.read_bytes()
        path.write_bytes(data[: len(data) // 2])
        with pytest.raises(ValueError, match="truncated"):
            tinycnn.load_model(path)

    def test_bad_magic_rejected(self, tmp_path):
        path = tmp_path / "model.bin"
        tinycnn.save_model(init_model(CnnArch(3, 166), 0), path, RUN)
        data = path.read_bytes()
        path.write_bytes(b"XXXX" + data[4:])
        with pytest.raises(ValueError, match="magic"):
            tinycnn.load_model(path)


@settings(max_examples=50, derandomize=True, deadline=None)
@given(st.integers(1, 3), st.integers(2, 200), st.integers(0, 2**32 - 1))
def test_every_arch_round_trips(tmp_path_factory, input_h, input_w, seed):
    model = init_model(CnnArch(input_h, input_w), seed)
    path = tmp_path_factory.getbasetemp() / "arch_round_trip.bin"
    tinycnn.save_model(model, path, RUN)
    loaded = tinycnn.load_model(path)
    assert loaded.arch == model.arch
    for name, tensor in model.params().items():
        np.testing.assert_array_equal(loaded.params()[name], tensor)
