import math
from types import SimpleNamespace

import numpy as np
import pytest

from swec import tinycnn
from swec.tinycnn import (CnnArch, CnnModel, TrainConfig, batch_loss_and_grads,
                          fit_sgdm, forward, grad_check, init_model, loss_and_grad,
                          make_gradcheck_case, predict, sgdm_step, softmax,
                          train)


def manual_model(arch, conv_w, conv_b, fc_w, fc_b):
    return CnnModel(arch, np.asarray(conv_w, dtype=float),
                    np.asarray(conv_b, dtype=float),
                    np.asarray(fc_w, dtype=float),
                    np.asarray(fc_b, dtype=float))


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
    def test_hand_convolution(self):
        arch = CnnArch(input_h=2, input_w=3, num_filters=1, filter_h=2,
                       filter_w=2)
        model = manual_model(arch, np.ones((1, 2, 2)), [0.0],
                             np.zeros((4, arch.flat_size)), np.zeros(4))
        _, cache = forward(model, np.ones((2, 3)))
        np.testing.assert_array_equal(cache["pre"], [[[4.0, 4.0]]])

    def test_max_pool(self):
        arch = CnnArch(input_h=1, input_w=4, num_filters=1, filter_h=1,
                       filter_w=1)
        model = manual_model(arch, np.ones((1, 1, 1)), [0.0],
                             np.zeros((4, arch.flat_size)), np.zeros(4))
        _, cache = forward(model, np.array([[1.0, 3.0, 2.0, 5.0]]))
        np.testing.assert_array_equal(cache["flat"], [3.0, 5.0])

    def test_zero_logits_uniform(self):
        arch = CnnArch(3, 24)
        model = manual_model(
            arch, np.zeros((arch.num_filters, 2, 20)), np.zeros(10),
            np.zeros((4, arch.flat_size)), np.zeros(4),
        )
        probs, _ = forward(model, np.random.default_rng(0).random((3, 24)))
        np.testing.assert_allclose(probs, 0.25, atol=1e-12)

    def test_softmax_extreme_logits(self):
        p = softmax(np.array([1e4, -1e4, 0.0, 5e3]))
        assert abs(p.sum() - 1.0) < 1e-9
        assert np.all(p >= 0.0)

    def test_dimension_mismatch(self):
        model = init_model(CnnArch(3, 24), seed=0)
        with pytest.raises(ValueError):
            forward(model, np.zeros((2, 24)))

    def test_filter_permutation_consistency(self):
        # permuting filters together with the matching FC blocks keeps logits
        arch = CnnArch(3, 30)
        model = init_model(arch, seed=8)
        x = np.random.default_rng(8).random((3, 30))
        base, _ = forward(model, x)
        perm = np.random.default_rng(9).permutation(arch.num_filters)
        block = arch.conv_h * arch.pooled_w
        fc_blocks = model.fc_w.reshape(4, arch.num_filters, block)
        permuted = manual_model(
            arch, model.conv_w[perm], model.conv_b[perm],
            fc_blocks[:, perm, :].reshape(4, -1), model.fc_b,
        )
        swapped, _ = forward(permuted, x)
        np.testing.assert_allclose(swapped, base, atol=1e-12)


class TestLossGrad:
    def test_uniform_loss_is_ln4(self):
        arch = CnnArch(3, 24)
        model = manual_model(
            arch, np.zeros((10, 2, 20)), np.zeros(10),
            np.zeros((4, arch.flat_size)), np.zeros(4),
        )
        x = np.random.default_rng(1).random((3, 24))
        loss, _ = loss_and_grad(model, [(x, 2)])
        assert loss == pytest.approx(math.log(4.0), abs=1e-12)

    def test_duplicated_batch_invariance(self):
        model = init_model(CnnArch(3, 24), seed=4)
        x = np.random.default_rng(4).random((3, 24))
        y = np.random.default_rng(5).random((3, 24))
        single, g1 = loss_and_grad(model, [(x, 1), (y, 3)])
        double, g2 = loss_and_grad(model, [(x, 1), (y, 3), (x, 1), (y, 3)])
        assert single == pytest.approx(double, abs=1e-12)
        for name in g1:
            np.testing.assert_allclose(g1[name], g2[name], atol=1e-12)

    def test_empty_batch(self):
        with pytest.raises(ValueError):
            loss_and_grad(init_model(CnnArch(3, 24), 0), [])

    def test_fc_bias_gradient_zero_at_balanced_saddle(self):
        arch = CnnArch(3, 24)
        model = manual_model(
            arch, np.zeros((10, 2, 20)), np.zeros(10),
            np.zeros((4, arch.flat_size)), np.zeros(4),
        )
        x = np.random.default_rng(2).random((3, 24))
        _, grads = loss_and_grad(model, [(x, c) for c in (1, 2, 3, 4)])
        assert np.abs(grads["fc_b"]).max() < 1e-12

    @pytest.mark.parametrize("seed", [0, 1, 2])
    def test_matches_finite_differences(self, seed):
        model, x, label = make_gradcheck_case(seed, input_h=3, input_w=24)
        report = grad_check(model, x, label=label)
        assert report.max_rel_error < 1e-4

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
        model = init_model(CnnArch(3, 166), seed=21, init_std=0.3)
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

    def test_pool_tie_goes_to_left_column(self):
        # both pool columns pre-activate to 1.0 but see different patches
        arch = CnnArch(input_h=1, input_w=3, num_filters=1, filter_h=1, filter_w=2)
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


class TestSgdm:
    def _scalarish_model(self):
        arch = CnnArch(input_h=1, input_w=3, num_filters=1, filter_h=1,
                       filter_w=1)
        return manual_model(arch, np.zeros((1, 1, 1)), [0.0],
                            np.zeros((4, arch.flat_size)), np.zeros(4))

    def test_single_step(self):
        model = self._scalarish_model()
        state = {n: np.zeros_like(p) for n, p in model.params().items()}
        grads = {n: np.full_like(p, 2.0) for n, p in model.params().items()}
        cfg = TrainConfig(learning_rate=1e-4, momentum=0.9)
        sgdm_step(model.params().values(), grads.values(), state.values(), cfg)
        assert model.conv_w[0, 0, 0] == pytest.approx(-2e-4, abs=1e-18)

    def test_second_step_velocity(self):
        model = self._scalarish_model()
        state = {n: np.zeros_like(p) for n, p in model.params().items()}
        grads = {n: np.full_like(p, 2.0) for n, p in model.params().items()}
        cfg = TrainConfig(learning_rate=1e-4, momentum=0.9)
        sgdm_step(model.params().values(), grads.values(), state.values(), cfg)
        sgdm_step(model.params().values(), grads.values(), state.values(), cfg)
        assert state["conv_w"][0, 0, 0] == pytest.approx(-3.8e-4, abs=1e-18)

    def test_zero_learning_rate_is_identity(self):
        model = self._scalarish_model()
        model.conv_w[0, 0, 0] = 1.5
        state = {n: np.zeros_like(p) for n, p in model.params().items()}
        grads = {n: np.full_like(p, 7.0) for n, p in model.params().items()}
        cfg = SimpleNamespace(learning_rate=0.0, momentum=0.9)
        sgdm_step(model.params().values(), grads.values(), state.values(), cfg)
        assert model.conv_w[0, 0, 0] == 1.5

    def test_config_validation(self):
        with pytest.raises(ValueError):
            TrainConfig(learning_rate=0.0)
        with pytest.raises(ValueError):
            TrainConfig(epochs=0)


class TestFitSgdm:
    def test_short_last_batch(self):
        param = np.zeros(1)
        batches = []

        def batch_loss_grads(idx):
            batches.append(list(idx))
            return float(sum(idx)) + 0.5, [np.ones(1)]

        cfg = SimpleNamespace(batch_size=2, learning_rate=0.1, momentum=0.0)
        losses = fit_sgdm([param], batch_loss_grads, 5, 3, cfg,
                          np.random.default_rng(0))
        assert len(losses) == 3 and len(batches) == 9
        for epoch, loss in enumerate(losses):
            epoch_batches = batches[3 * epoch:3 * epoch + 3]
            assert [len(b) for b in epoch_batches] == [2, 2, 1]
            assert sorted(i for b in epoch_batches for i in b) == [0, 1, 2, 3, 4]
            weighted = sum((sum(b) + 0.5) * len(b) for b in epoch_batches) / 5
            assert loss == pytest.approx(weighted, rel=1e-15)
        assert param[0] == pytest.approx(-0.9, abs=1e-15)  # one step per batch


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
        model, losses = train(model, data, TrainConfig(seed=0))
        preds = [predict(model, x) for x, _ in data]
        assert preds == [label for _, label in data]
        assert losses[-1] < losses[0]

    def test_training_deterministic(self):
        data = self._toy_set()
        arch = CnnArch(2, 24)
        runs = []
        for _ in range(2):
            model = init_model(arch, seed=3)
            model, _ = train(model, data, TrainConfig(seed=3, epochs=5))
            runs.append(model)
        np.testing.assert_array_equal(runs[0].conv_w, runs[1].conv_w)
        np.testing.assert_array_equal(runs[0].fc_w, runs[1].fc_w)

    def test_loss_trace_length(self):
        data = self._toy_set()
        model = init_model(CnnArch(2, 24), seed=1)
        _, losses = train(model, data, TrainConfig(seed=1, epochs=7))
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
        assert predict(model, np.zeros((3, 24))) == 2

    def test_exact_tie_takes_lowest_code(self):
        arch = CnnArch(3, 24)
        model = manual_model(
            arch, np.zeros((10, 2, 20)), np.zeros(10),
            np.zeros((4, arch.flat_size)), np.zeros(4),
        )
        assert predict(model, np.ones((3, 24))) == 1

    def test_logit_shift_invariance(self):
        arch = CnnArch(3, 24)
        x = np.random.default_rng(11).random((3, 24))
        model = init_model(arch, seed=11)
        before = predict(model, x)
        model.fc_b += 123.0
        assert predict(model, x) == before

    def test_batch_over_several_blocks_matches_single_predictions(self):
        arch = CnnArch(3, 24)
        model = init_model(arch, seed=5, init_std=1.0)
        xs = np.random.default_rng(5).normal(size=(2 * tinycnn.PREDICT_BLOCK + 5, 3, 24))
        codes = tinycnn.predict_batch(model, xs)
        assert codes.shape == (len(xs),)
        assert len(set(codes.tolist())) > 1
        assert codes.tolist() == [predict(model, x) for x in xs]


class TestModelFile:
    def test_round_trip(self, tmp_path):
        model = init_model(CnnArch(3, 166), seed=6)
        model.conv_b[:] = np.arange(10) * 0.1
        path = tmp_path / "model.bin"
        tinycnn.save_model(model, path)
        loaded = tinycnn.load_model(path)
        np.testing.assert_array_equal(loaded.conv_w, model.conv_w)
        np.testing.assert_array_equal(loaded.conv_b, model.conv_b)
        np.testing.assert_array_equal(loaded.fc_w, model.fc_w)
        np.testing.assert_array_equal(loaded.fc_b, model.fc_b)
        assert loaded.arch == model.arch

    def test_magic_bytes(self, tmp_path):
        path = tmp_path / "model.bin"
        tinycnn.save_model(init_model(CnnArch(3, 166), 0), path)
        assert path.read_bytes()[:4] == b"SWEC"

    def test_truncated_file_rejected(self, tmp_path):
        path = tmp_path / "model.bin"
        tinycnn.save_model(init_model(CnnArch(3, 166), 0), path)
        data = path.read_bytes()
        path.write_bytes(data[: len(data) // 2])
        with pytest.raises(ValueError, match="truncated"):
            tinycnn.load_model(path)

    def test_bad_magic_rejected(self, tmp_path):
        path = tmp_path / "model.bin"
        tinycnn.save_model(init_model(CnnArch(3, 166), 0), path)
        data = path.read_bytes()
        path.write_bytes(b"XXXX" + data[4:])
        with pytest.raises(ValueError, match="magic"):
            tinycnn.load_model(path)
