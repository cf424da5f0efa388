import os
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest

from swec import baselines, expharness
from swec.baselines import (AeConfig, MlpConfig, SvmConfig, ae_predict,
                            energy_feature_set, svm_predict, tmlp_predict,
                            train_autoencoder_clf, train_svm_ovr, train_tmlp)
from swec.synthgrid import MONITORED_BUSES, NUM_CLASSES
from swec.tinycnn import central_difference_errors, cross_entropy
from conftest import tiny_config


def separable_clouds(n_per_class=12, dim=10, spread=0.05, seed=0):
    """Four tight, well-separated clusters; trivially linearly separable."""
    rng = np.random.default_rng(seed)
    centers = np.zeros((4, dim))
    for c in range(4):
        centers[c, c] = 4.0
        centers[c, (c + 4) % dim] = -3.0
    X, y = [], []
    for c in range(4):
        X.append(centers[c] + spread * rng.standard_normal((n_per_class, dim)))
        y += [c + 1] * n_per_class
    return np.vstack(X), np.array(y)


class TestEnergyFeatures:
    def test_single_interval_statistics(self):
        fm = np.ones((1, 16))
        fm[0, :2] = [3.0, -4.0]
        feats = energy_feature_set(fm[None])[0].reshape(8, 4)
        np.testing.assert_allclose(feats[0], [-0.5, -1.0, 5.0, 4.0])
        np.testing.assert_allclose(feats[1:], [[1.0, 2.0, np.sqrt(2.0), 1.0]] * 7)

    def test_all_zero(self):
        fm = np.zeros((2, 8))
        assert np.all(energy_feature_set(fm[None])[0] == 0.0)

    def test_length(self):
        fm = np.random.default_rng(0).random((3, 166))
        assert energy_feature_set(fm[None])[0].shape == (3 * 8 * 4,)

    def test_remainder_goes_to_last_interval(self):
        row = np.arange(10.0)
        fm = row[None, :]
        feats = energy_feature_set(fm[None])[0]
        # segments: [0], [1], ..., [6], [7,8,9]
        assert feats[1 * 4 + 1] == pytest.approx(1.0)    # sum of the second
        assert feats[7 * 4 + 1] == pytest.approx(24.0)   # sum of last
        assert feats[7 * 4 + 3] == pytest.approx(9.0)    # Linf of last

    def test_bus_permutation_covariance(self):
        rng = np.random.default_rng(1)
        a, b = rng.random((2, 12)), rng.random((2, 12))[0]
        top = np.vstack([a[0], b])
        swapped = np.vstack([b, a[0]])
        f_top = energy_feature_set(top[None])[0]
        f_sw = energy_feature_set(swapped[None])[0]
        half = len(f_top) // 2
        np.testing.assert_allclose(f_top[:half], f_sw[half:])
        np.testing.assert_allclose(f_top[half:], f_sw[:half])

    def test_stack_matches_per_interval_loop(self):
        xs = np.random.default_rng(2).random((5, 3, 37))
        bounds = [0, 4, 8, 12, 16, 20, 24, 28, 37]  # the last absorbs 37 % 8
        want = []
        for fm in xs:
            stats = []
            for row in fm:
                for lo, hi in zip(bounds, bounds[1:]):
                    c = row[lo:hi]
                    stats += [c.mean(), c.sum(), np.sqrt(np.sum(c * c)), np.abs(c).max()]
            want.append(stats)
        np.testing.assert_allclose(baselines.energy_feature_set(xs), want,
                                   rtol=1e-14, atol=0.0)

    def test_independent_of_memory_layout(self):
        xs = np.random.default_rng(3).random((40, 3, 166))
        fortran = np.asfortranarray(xs)
        np.testing.assert_array_equal(baselines.energy_feature_set(fortran),
                                      baselines.energy_feature_set(xs))

    def test_invalid_interval_count(self):  # for rows narrower than the count
        with pytest.raises(ValueError, match=r"^feature rows of width 7 are narrower "
                                             r"than the 8 energy intervals$"):
            energy_feature_set(np.zeros((1, 2, 7)))
        assert energy_feature_set(np.zeros((1, 2, 8))).shape == (1, 2 * 8 * 4)


class TestSvm:
    def test_separable_clouds_perfect_training_accuracy(self):
        X, y = separable_clouds()
        model, _ = train_svm_ovr(X, y, SvmConfig(), 1)
        assert np.all(svm_predict(model, X) == y)

    def test_scale_consistency(self, monkeypatch):
        X, y = separable_clouds(seed=2)
        base, _ = train_svm_ovr(X, y, SvmConfig(), 3)
        monkeypatch.setattr(baselines, "SVM_STEP", baselines.SVM_STEP / 100.0)
        scaled, _ = train_svm_ovr(10.0 * X, y, SvmConfig(), 3)
        np.testing.assert_array_equal(svm_predict(base, X),
                                      svm_predict(scaled, 10.0 * X))

    def test_deterministic(self):
        X, y = separable_clouds(seed=4)
        a, _ = train_svm_ovr(X, y, SvmConfig(), 5)
        b, _ = train_svm_ovr(X, y, SvmConfig(), 5)
        np.testing.assert_array_equal(a.weights[0], b.weights[0])
        np.testing.assert_array_equal(a.biases[0], b.biases[0])

    def test_missing_class_rejected(self):
        X, y = separable_clouds()
        with pytest.raises(ValueError, match="4"):
            train_svm_ovr(X[y != 4], y[y != 4])

    def test_decision_values_affine(self):
        X, y = separable_clouds(seed=6)
        model, _ = train_svm_ovr(X, y, SvmConfig(), 6)
        rng = np.random.default_rng(7)
        u, v = rng.random(X.shape[1]), rng.random(X.shape[1])

        def decision_values(x):
            return baselines._dense_forward(model.weights, model.biases, x)[-1]

        lhs = decision_values((u + v)[None, :]) + model.biases[0]
        rhs = decision_values(u[None, :]) + decision_values(v[None, :])
        np.testing.assert_allclose(lhs, rhs, atol=1e-9)

    def test_tie_breaks_to_lowest_class(self):
        model = baselines.DenseNet([np.zeros((4, 3))], [np.zeros(4)])
        assert svm_predict(model, np.ones((1, 3)))[0] == 1


def _sequential_svm(features, labels, config: SvmConfig, seed: int):
    """Reference trainer: the step-by-step loop that shrinks and updates the
    weight vector itself at every sample."""
    features = np.asarray(features, dtype=float)
    labels = np.asarray(labels, dtype=int)
    n, dim = features.shape
    present = set(labels.tolist())
    missing = [c for c in range(1, NUM_CLASSES + 1) if c not in present]
    if missing:
        raise ValueError(f"no training examples for classes {missing}")
    lam = 1.0 / (baselines.SVM_C * n)
    weights = np.zeros((NUM_CLASSES, dim))
    biases = np.zeros(NUM_CLASSES)
    rng = np.random.default_rng(seed)
    for c in range(NUM_CLASSES):
        y = np.where(labels == c + 1, 1.0, -1.0)
        w = weights[c]
        b = 0.0
        for epoch in range(1, config.epochs + 1):
            eta = baselines.SVM_STEP / epoch
            for i in rng.permutation(n):
                if y[i] * (w @ features[i] + b) < 1.0:
                    w *= 1.0 - eta * lam
                    w += eta * y[i] * features[i]
                    b += eta * y[i]
                else:
                    w *= 1.0 - eta * lam
        biases[c] = b
    return baselines.DenseNet([weights], [biases])


def _compare_tiny_energy_features():
    """Energy features and labels of the compare-tiny training split."""
    config = tiny_config()
    dataset = expharness._build(config, 4000.0, 0)
    features, split = expharness.features_and_split(config, dataset, MONITORED_BUSES)
    xs, labels = features.values[split.train], features.labels[split.train]
    return energy_feature_set(xs), labels


def _random_set(n=200, dim=96, seed=0):
    rng = np.random.default_rng(seed)
    return rng.standard_normal((n, dim)), np.resize([1, 2, 3, 4], n)


class TestSvmAgainstSequential:
    """train_svm_ovr against the per-step loop: the same hinge-active steps
    (equal biases and predictions) and weights equal to rounding."""

    @pytest.mark.parametrize("data, config, seed", [
        (_compare_tiny_energy_features, SvmConfig(), 3),
        (_compare_tiny_energy_features, SvmConfig(epochs=5), 4),
        (_random_set, SvmConfig(epochs=40), 5),
    ], ids=["compare_tiny", "compare_tiny_5_epochs", "random"])
    def test_matches_sequential_loop(self, data, config, seed):
        X, y = data()
        got, _ = train_svm_ovr(X, y, config, seed)
        want = _sequential_svm(X, y, config, seed)
        np.testing.assert_array_equal(got.biases[0], want.biases[0])
        np.testing.assert_array_equal(svm_predict(got, X), svm_predict(want, X))
        [got_w], [want_w] = got.weights, want.weights
        scale = np.abs(want_w).max(axis=1, keepdims=True)
        assert np.all(np.abs(got_w - want_w) <= 1e-12 * scale)

    def test_model_file_independent_of_blas_threads(self, tmp_path):
        script = ("import sys, numpy as np; from swec import baselines as b; "
                  "rng = np.random.default_rng(9); "
                  "x = rng.standard_normal((480, 96)); y = np.resize([1, 2, 3, 4], 480); "
                  "b.save_dense(b.train_svm_ovr(x, y, b.SvmConfig(epochs=20), 9)[0], "
                  "sys.argv[1], b.SVM_MAGIC)")
        src = str(Path(baselines.__file__).resolve().parents[1])
        path = os.pathsep.join([src, *filter(None, [os.environ.get("PYTHONPATH")])])
        files = []
        for threads in ("1", "2"):
            env = dict(os.environ, OPENBLAS_NUM_THREADS=threads, PYTHONPATH=path)
            files.append(tmp_path / f"svm{threads}.bin")
            subprocess.run([sys.executable, "-c", script, str(files[-1])], env=env,
                           check=True, timeout=300)
        assert files[0].read_bytes() == files[1].read_bytes()


class TestTaperedMlp:
    def test_gradients_match_finite_differences(self):
        rng = np.random.default_rng(8)
        X, y = separable_clouds(n_per_class=3, dim=80, seed=8)
        model, _ = train_tmlp(X, y, MlpConfig(epochs=1), 8)
        assert model.sizes == (80, 64, 16, 4)
        xs, labels = rng.random((1, X.shape[1])), np.array([2])

        def loss_and_grads():
            return baselines._dense_loss_and_grads(model.weights, model.biases, xs,
                                                   labels, cross_entropy)

        _, grads = loss_and_grads()
        errors = central_difference_errors(lambda: loss_and_grads()[0],
                                           [*model.weights, *model.biases], grads, 1e-5)
        assert max(errors) < 1e-4

    def test_separable_clouds_perfect_training_accuracy(self):
        X, y = separable_clouds(seed=9)
        model, _ = train_tmlp(X, y, MlpConfig(), 9)
        assert np.all(tmlp_predict(model, X) == y)

    def test_deterministic(self):
        X, y = separable_clouds(seed=10)
        a, _ = train_tmlp(X, y, MlpConfig(epochs=3), 11)
        b, _ = train_tmlp(X, y, MlpConfig(epochs=3), 11)
        for wa, wb in zip(a.weights, b.weights):
            np.testing.assert_array_equal(wa, wb)

    def test_widths_taper_to_input(self):
        # only the hidden widths 64 and 16 that lie below the input are kept
        for sizes in [(10, 4), (16, 4), (17, 16, 4), (64, 16, 4), (65, 64, 16, 4)]:
            X, y = separable_clouds(dim=sizes[0])
            model, _ = train_tmlp(X, y, MlpConfig(epochs=1), 0)
            assert model.sizes == sizes

    def test_non_decreasing_widths_rejected(self):
        X, y = separable_clouds(dim=4)
        with pytest.raises(ValueError, match=r"layer widths \(4, 4\) are not strictly"):
            train_tmlp(X, y, MlpConfig(epochs=1))

    def test_class_code_outside_range_rejected(self):
        X, y = separable_clouds()
        y[0] = 0
        with pytest.raises(ValueError, match="class codes"):
            train_tmlp(X, y, MlpConfig(epochs=1), 1)

    def test_empty_batch_rejected(self):
        X, y = separable_clouds()
        model, _ = train_tmlp(X, y, MlpConfig(epochs=1), 1)
        with pytest.raises(ValueError, match="empty batch"):
            baselines._dense_loss_and_grads(model.weights, model.biases, X[:0], y[:0],
                                            cross_entropy)


def _reconstruction_trace(X, config: AeConfig, seed: int):
    """Per-epoch losses of the autoencoder's stage 1: the features as their
    own targets through the encoder and linear decoder."""
    rng = np.random.default_rng(seed)
    dim = X.shape[1]
    weights, biases = baselines._init_layers((dim, baselines.CODE_WIDTH, dim), rng,
                                             baselines.INIT_STD)
    return baselines._fit_dense(weights, biases, X, X, baselines._squared_error,
                                config.recon_epochs, rng)


class TestAutoencoder:
    def test_reconstruction_improves(self):
        X = np.random.default_rng(12).random((60, 24))
        trace = _reconstruction_trace(X, AeConfig(), 12)
        assert trace[-1] < trace[0]

    def test_identity_capable_reconstruction(self):
        X = np.random.default_rng(13).random((80, 6))
        trace = _reconstruction_trace(X, AeConfig(recon_epochs=200), 13)
        assert trace[-1] < trace[0] / 10.0

    def test_model_is_encoder_under_head(self):
        X, y = separable_clouds(seed=16)
        model, _ = train_autoencoder_clf(X, y, AeConfig(recon_epochs=1, head_epochs=1),
                                         16)
        assert model.sizes == (X.shape[1], baselines.CODE_WIDTH, NUM_CLASSES)

    def test_deterministic(self):
        rng = np.random.default_rng(14)
        X = rng.random((40, 12))
        y = np.array(([1, 2, 3, 4] * 10))
        cfg = AeConfig(recon_epochs=3, head_epochs=3)
        a, _ = train_autoencoder_clf(X, y, cfg, 15)
        b, _ = train_autoencoder_clf(X, y, cfg, 15)
        for wa, wb in zip(a.weights, b.weights):
            np.testing.assert_array_equal(wa, wb)
        np.testing.assert_array_equal(ae_predict(a, X), ae_predict(b, X))

    def test_predicts_separable_classes(self):
        X, y = separable_clouds(seed=16)
        model, _ = train_autoencoder_clf(X, y, AeConfig(), 16)
        assert (ae_predict(model, X) == y).mean() > 0.9

    def test_empty_set_rejected(self):
        with pytest.raises(ValueError):
            train_autoencoder_clf(np.zeros((0, 4)), np.zeros(0, dtype=int))

    def test_reconstruction_gradients_match_finite_differences(self):
        rng = np.random.default_rng(22)
        weights = [rng.normal(0.0, 0.5, (3, 5)), rng.normal(0.0, 0.5, (5, 3))]
        biases = [rng.normal(0.0, 0.1, 3), rng.normal(0.0, 0.1, 5)]
        xs = rng.random((2, 5))

        def loss_and_grads():
            return baselines._dense_loss_and_grads(weights, biases, xs, xs,
                                                   baselines._squared_error)

        _, grads = loss_and_grads()
        errors = central_difference_errors(lambda: loss_and_grads()[0],
                                           [*weights, *biases], grads, 1e-5)
        assert max(errors) < 1e-4


class TestDenseBatchRelations:
    """The dense kernel on a batch against its B = 1 calls and against the
    same batch permuted, for both heads."""

    @pytest.fixture(params=["cross_entropy", "squared_error"])
    def case(self, request):
        rng = np.random.default_rng(23)
        weights = [rng.normal(0.0, 0.3, (6, 12)), rng.normal(0.0, 0.3, (4, 6))]
        biases = [rng.normal(0.0, 0.1, 6), rng.normal(0.0, 0.1, 4)]
        xs = rng.random((8, 12))
        if request.param == "cross_entropy":
            return weights, biases, xs, rng.integers(1, 5, 8), cross_entropy
        return weights, biases, xs, rng.random((8, 4)), baselines._squared_error

    def test_batch_equals_mean_of_single_examples(self, case):
        weights, biases, xs, targets, head = case
        _, grads = baselines._dense_loss_and_grads(weights, biases, xs, targets, head)
        singles = [baselines._dense_loss_and_grads(weights, biases, xs[i:i + 1],
                                                   targets[i:i + 1], head)[1]
                   for i in range(len(xs))]
        for k, g in enumerate(grads):
            mean = np.mean([s[k] for s in singles], axis=0)
            assert np.abs(g - mean).max() <= 1e-14 * np.abs(g).max()

    def test_permuted_batch_same_gradients(self, case):
        weights, biases, xs, targets, head = case
        perm = np.random.default_rng(24).permutation(len(xs))
        _, grads = baselines._dense_loss_and_grads(weights, biases, xs, targets, head)
        _, permuted = baselines._dense_loss_and_grads(weights, biases, xs[perm],
                                                      targets[perm], head)
        for g, p in zip(grads, permuted):
            assert np.abs(g - p).max() <= 1e-11 * np.abs(g).max()


def _assert_round_trip(model, path, magic):
    """save_dense then load_dense under magic gives the same layers."""
    baselines.save_dense(model, path, magic)
    loaded = baselines.load_dense(path, magic)
    assert loaded.sizes == model.sizes
    for got, want in zip([*loaded.weights, *loaded.biases],
                         [*model.weights, *model.biases]):
        np.testing.assert_array_equal(got, want)


class TestModelFiles:
    def test_svm_round_trip(self, tmp_path):
        X, y = separable_clouds(seed=17)
        model, _ = train_svm_ovr(X, y, SvmConfig(epochs=3), 17)
        _assert_round_trip(model, tmp_path / "m.bin", baselines.SVM_MAGIC)

    def test_tmlp_round_trip(self, tmp_path):
        X, y = separable_clouds(seed=18, dim=20)
        model, _ = train_tmlp(X, y, MlpConfig(epochs=1), 18)
        _assert_round_trip(model, tmp_path / "m.bin", baselines.TMLP_MAGIC)

    def test_autoencoder_round_trip(self, tmp_path):
        rng = np.random.default_rng(19)
        X = rng.random((24, 8))
        y = np.array(([1, 2, 3, 4] * 6))
        model, _ = train_autoencoder_clf(
            X, y, AeConfig(recon_epochs=2, head_epochs=2), 19
        )
        _assert_round_trip(model, tmp_path / "m.bin", baselines.AE_MAGIC)

    def test_distinct_magics(self, tmp_path):
        X, y = separable_clouds(seed=20)
        svm, _ = train_svm_ovr(X, y, SvmConfig(epochs=1), 20)
        for magic in (b"SWSV", b"SWML", b"SWAE"):
            baselines.save_dense(svm, tmp_path / "m.bin", magic)
            assert (tmp_path / "m.bin").read_bytes()[:4] == magic

    def test_wrong_magic_cross_load(self, tmp_path):
        X, y = separable_clouds(seed=21)
        svm, _ = train_svm_ovr(X, y, SvmConfig(epochs=1), 21)
        baselines.save_dense(svm, tmp_path / "svm.bin", baselines.SVM_MAGIC)
        with pytest.raises(ValueError, match="magic"):
            baselines.load_dense(tmp_path / "svm.bin", baselines.TMLP_MAGIC)
