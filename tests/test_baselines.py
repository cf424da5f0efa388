import numpy as np
import pytest

from swec import baselines
from swec.baselines import (AeConfig, MlpConfig, SvmConfig, ae_predict,
                            energy_feature_set, mlp_grad_check, svm_predict,
                            tmlp_predict, train_autoencoder_clf,
                            train_svm_ovr, train_tmlp, tmlp_loss_and_grad)
from swec.tinycnn import PREDICT_BLOCK, central_difference_errors, cross_entropy


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
        fm = np.array([[1.0, 1.0, 1.0, 1.0]])
        np.testing.assert_allclose(energy_feature_set(fm[None], 1)[0], [1.0, 4.0, 2.0, 1.0])

    def test_all_zero(self):
        fm = np.zeros((2, 8))
        assert np.all(energy_feature_set(fm[None], 2)[0] == 0.0)

    def test_length(self):
        fm = np.random.default_rng(0).random((3, 166))
        assert energy_feature_set(fm[None], 8)[0].shape == (3 * 8 * 4,)

    def test_remainder_goes_to_last_interval(self):
        row = np.arange(10.0)
        fm = row[None, :]
        feats = energy_feature_set(fm[None], 3)[0]
        # segments: [0,1,2], [3,4,5], [6,7,8,9]
        assert feats[1 * 4 + 1] == pytest.approx(12.0)   # sum of middle
        assert feats[2 * 4 + 1] == pytest.approx(30.0)   # sum of last
        assert feats[2 * 4 + 3] == pytest.approx(9.0)    # Linf of last

    def test_bus_permutation_covariance(self):
        rng = np.random.default_rng(1)
        a, b = rng.random((2, 12)), rng.random((2, 12))[0]
        top = np.vstack([a[0], b])
        swapped = np.vstack([b, a[0]])
        f_top = energy_feature_set(top[None], 4)[0]
        f_sw = energy_feature_set(swapped[None], 4)[0]
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
        np.testing.assert_allclose(baselines.energy_feature_set(xs, 8), want,
                                   rtol=1e-14, atol=0.0)

    def test_independent_of_memory_layout(self):
        xs = np.random.default_rng(3).random((40, 3, 166))
        fortran = np.asfortranarray(xs)
        np.testing.assert_array_equal(baselines.energy_feature_set(fortran, 8),
                                      baselines.energy_feature_set(xs, 8))

    def test_invalid_interval_count(self):
        fm = np.zeros((1, 8))
        with pytest.raises(ValueError):
            energy_feature_set(fm[None], 0)[0]
        with pytest.raises(ValueError):
            energy_feature_set(fm[None], 9)[0]


class TestSvm:
    def test_separable_clouds_perfect_training_accuracy(self):
        X, y = separable_clouds()
        model = train_svm_ovr(X, y, SvmConfig(seed=1))
        assert np.all(svm_predict(model, X) == y)

    def test_scale_consistency(self):
        X, y = separable_clouds(seed=2)
        base = train_svm_ovr(X, y, SvmConfig(seed=3))
        scaled = train_svm_ovr(10.0 * X, y,
                               SvmConfig(step=SvmConfig().step / 100.0, seed=3))
        np.testing.assert_array_equal(svm_predict(base, X),
                                      svm_predict(scaled, 10.0 * X))

    def test_deterministic(self):
        X, y = separable_clouds(seed=4)
        a = train_svm_ovr(X, y, SvmConfig(seed=5))
        b = train_svm_ovr(X, y, SvmConfig(seed=5))
        np.testing.assert_array_equal(a.weights, b.weights)
        np.testing.assert_array_equal(a.biases, b.biases)

    def test_missing_class_rejected(self):
        X, y = separable_clouds()
        with pytest.raises(ValueError, match="4"):
            train_svm_ovr(X[y != 4], y[y != 4])

    def test_decision_values_affine(self):
        X, y = separable_clouds(seed=6)
        model = train_svm_ovr(X, y, SvmConfig(seed=6))
        rng = np.random.default_rng(7)
        u, v = rng.random(X.shape[1]), rng.random(X.shape[1])
        lhs = model.decision_values((u + v)[None, :]) + model.biases
        rhs = model.decision_values(u[None, :]) + model.decision_values(v[None, :])
        np.testing.assert_allclose(lhs, rhs, atol=1e-9)

    def test_tie_breaks_to_lowest_class(self):
        model = baselines.LinearOvrSvm(np.zeros((4, 3)), np.zeros(4))
        assert svm_predict(model, np.ones((1, 3)))[0] == 1


class TestTaperedMlp:
    def test_gradients_match_finite_differences(self):
        rng = np.random.default_rng(8)
        X, y = separable_clouds(n_per_class=3, seed=8)
        model = train_tmlp(X, y, MlpConfig(hidden=(6, 5), epochs=1, seed=8))
        err = mlp_grad_check(model, rng.random(X.shape[1]), label=2)
        assert err < 1e-4

    def test_separable_clouds_perfect_training_accuracy(self):
        X, y = separable_clouds(seed=9)
        model = train_tmlp(X, y, MlpConfig(seed=9))
        assert np.all(tmlp_predict(model, X) == y)

    def test_deterministic(self):
        X, y = separable_clouds(seed=10)
        a = train_tmlp(X, y, MlpConfig(epochs=3, seed=11))
        b = train_tmlp(X, y, MlpConfig(epochs=3, seed=11))
        for wa, wb in zip(a.weights, b.weights):
            np.testing.assert_array_equal(wa, wb)

    def test_widths_taper_to_input(self):
        X, y = separable_clouds(dim=10)
        model = train_tmlp(X, y, MlpConfig(epochs=1, seed=0))
        assert model.sizes == (10, 4)  # default 64/16 hidden exceed the input

    def test_non_decreasing_widths_rejected(self):
        X, y = separable_clouds(dim=10)
        with pytest.raises(ValueError):
            train_tmlp(X, y, MlpConfig(hidden=(8, 8), epochs=1))

    def test_class_code_outside_range_rejected(self):
        X, y = separable_clouds()
        y[0] = 0
        with pytest.raises(ValueError, match="class codes"):
            train_tmlp(X, y, MlpConfig(epochs=1, seed=1))

    def test_empty_batch_rejected(self):
        X, y = separable_clouds()
        model = train_tmlp(X, y, MlpConfig(epochs=1, seed=1))
        with pytest.raises(ValueError):
            tmlp_loss_and_grad(model, [])


class TestAutoencoder:
    def test_reconstruction_improves(self):
        rng = np.random.default_rng(12)
        X = rng.random((60, 24))
        y = np.array(([1, 2, 3, 4] * 15))
        model = train_autoencoder_clf(X, y, AeConfig(code_width=8, seed=12))
        assert model.recon_trace[-1] < model.recon_trace[0]

    def test_identity_capable_reconstruction(self):
        rng = np.random.default_rng(13)
        X = rng.random((80, 6))
        y = np.array(([1, 2, 3, 4] * 20))
        model = train_autoencoder_clf(
            X, y, AeConfig(code_width=8, recon_epochs=200, seed=13)
        )
        assert model.recon_trace[-1] < model.recon_trace[0] / 10.0

    def test_deterministic(self):
        rng = np.random.default_rng(14)
        X = rng.random((40, 12))
        y = np.array(([1, 2, 3, 4] * 10))
        cfg = AeConfig(recon_epochs=3, head_epochs=3, seed=15)
        a = train_autoencoder_clf(X, y, cfg)
        b = train_autoencoder_clf(X, y, cfg)
        np.testing.assert_array_equal(a.enc_w, b.enc_w)
        np.testing.assert_array_equal(a.head_w, b.head_w)
        np.testing.assert_array_equal(ae_predict(a, X), ae_predict(b, X))

    def test_predicts_separable_classes(self):
        X, y = separable_clouds(seed=16)
        model = train_autoencoder_clf(X, y, AeConfig(code_width=6, seed=16))
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


class TestModelFiles:
    def test_svm_round_trip(self, tmp_path):
        X, y = separable_clouds(seed=17)
        model = train_svm_ovr(X, y, SvmConfig(epochs=3, seed=17))
        baselines.save_svm(model, tmp_path / "m.bin")
        loaded = baselines.load_svm(tmp_path / "m.bin")
        np.testing.assert_array_equal(loaded.weights, model.weights)
        np.testing.assert_array_equal(loaded.biases, model.biases)

    def test_tmlp_round_trip(self, tmp_path):
        X, y = separable_clouds(seed=18, dim=20)
        model = train_tmlp(X, y, MlpConfig(hidden=(8, 6), epochs=1, seed=18))
        baselines.save_tmlp(model, tmp_path / "m.bin")
        loaded = baselines.load_tmlp(tmp_path / "m.bin")
        assert loaded.sizes == model.sizes
        for wa, wb in zip(loaded.weights, model.weights):
            np.testing.assert_array_equal(wa, wb)

    def test_autoencoder_round_trip(self, tmp_path):
        rng = np.random.default_rng(19)
        X = rng.random((24, 8))
        y = np.array(([1, 2, 3, 4] * 6))
        model = train_autoencoder_clf(
            X, y, AeConfig(code_width=4, recon_epochs=2, head_epochs=2, seed=19)
        )
        baselines.save_autoencoder(model, tmp_path / "m.bin")
        loaded = baselines.load_autoencoder(tmp_path / "m.bin")
        np.testing.assert_array_equal(loaded.enc_w, model.enc_w)
        np.testing.assert_array_equal(loaded.dec_w, model.dec_w)
        np.testing.assert_array_equal(loaded.head_w, model.head_w)

    def test_distinct_magics(self, tmp_path):
        X, y = separable_clouds(seed=20)
        svm = train_svm_ovr(X, y, SvmConfig(epochs=1, seed=20))
        baselines.save_svm(svm, tmp_path / "svm.bin")
        assert (tmp_path / "svm.bin").read_bytes()[:4] == b"SWSV"

    def test_wrong_magic_cross_load(self, tmp_path):
        X, y = separable_clouds(seed=21)
        svm = train_svm_ovr(X, y, SvmConfig(epochs=1, seed=21))
        baselines.save_svm(svm, tmp_path / "svm.bin")
        with pytest.raises(ValueError, match="magic"):
            baselines.load_tmlp(tmp_path / "svm.bin")


class TestBlockedPredict:
    """Dense-net predictions over several PREDICT_BLOCK blocks against one
    record at a time."""

    def test_tmlp_blocks_match_single_records(self):
        X, y = separable_clouds(n_per_class=6, seed=25)
        xs = X[:2 * PREDICT_BLOCK + 5]
        model = train_tmlp(X, y, MlpConfig(hidden=(6,), epochs=1, init_std=1.0,
                                           seed=25))
        codes = tmlp_predict(model, xs)
        assert codes.shape == (len(xs),) and len(set(codes.tolist())) > 1
        assert codes.tolist() == [tmlp_predict(model, x)[0] for x in xs]

    def test_autoencoder_blocks_match_single_records(self):
        X, y = separable_clouds(n_per_class=6, seed=26)
        xs = X[:2 * PREDICT_BLOCK + 5]
        model = train_autoencoder_clf(X, y, AeConfig(code_width=6, recon_epochs=1,
                                                     head_epochs=1, init_std=1.0,
                                                     seed=26))
        codes = ae_predict(model, xs)
        assert codes.shape == (len(xs),) and len(set(codes.tolist())) > 1
        assert codes.tolist() == [ae_predict(model, x)[0] for x in xs]
