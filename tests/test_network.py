import json
import math

import numpy as np
import pytest

from multicred import network as nn
from multicred.domain import DomainError


def softmax_ce_net(seed=0):
    spec = nn.NetworkSpec((nn.dense(51, 8), nn.relu(8), nn.dense(8, 4), nn.softmax(4)))
    return nn.Model(spec, rng=np.random.default_rng(seed))


def one_hot(labels, num_classes):
    out = np.zeros((len(labels), num_classes))
    out[np.arange(len(labels)), labels] = 1.0
    return out


class TestSpecs:
    def test_adjacent_dims_must_match(self):
        with pytest.raises(DomainError):
            nn.NetworkSpec((nn.dense(4, 8), nn.dense(7, 2)))

    def test_dropout_rate_range(self):
        with pytest.raises(DomainError):
            nn.dropout(4, rate=1.0)

    def test_unknown_kind(self):
        with pytest.raises(DomainError):
            nn.LayerSpec("conv", 4, 4)


class TestCountParams:
    def test_hidden_layer_1_row(self):
        assert nn.count_params(nn.NetworkSpec((nn.dense(51, 256),))) == (13312, 13312)

    def test_batchnorm_row(self):
        assert nn.count_params(nn.NetworkSpec((nn.batchnorm(256),))) == (1024, 512)

    def test_empty_spec(self):
        assert nn.count_params(nn.NetworkSpec(())) == (0, 0)

    def test_activation_layers_are_free(self):
        spec = nn.NetworkSpec((nn.dropout(16), nn.relu(16), nn.softmax(16)))
        assert nn.count_params(spec) == (0, 0)


class TestForward:
    def test_softmax_of_zeros_is_uniform(self):
        model = nn.Model(nn.NetworkSpec((nn.softmax(4),)))
        out = nn.forward(model.inference_mode(), np.zeros((1, 4))).outputs
        np.testing.assert_allclose(out, 0.25, atol=1e-12)

    def test_softmax_rows_sum_to_one(self):
        model = nn.Model(nn.NetworkSpec((nn.softmax(7),))).inference_mode()
        x = np.random.default_rng(0).normal(scale=50, size=(40, 7))
        out = nn.forward(model, x).outputs
        np.testing.assert_allclose(out.sum(axis=1), 1.0, atol=1e-9)

    def test_softmax_shift_invariance(self):
        model = nn.Model(nn.NetworkSpec((nn.softmax(5),))).inference_mode()
        x = np.random.default_rng(1).normal(size=(10, 5))
        a = nn.forward(model, x).outputs
        b = nn.forward(model, x + 123.456).outputs
        np.testing.assert_allclose(a, b, atol=1e-12)

    def test_dropout_is_identity_in_inference(self):
        model = nn.Model(nn.NetworkSpec((nn.dropout(6, 0.5),))).inference_mode()
        x = np.random.default_rng(2).normal(size=(5, 6))
        np.testing.assert_array_equal(nn.forward(model, x).outputs, x)

    def test_dropout_scales_at_train_time(self):
        model = nn.Model(nn.NetworkSpec((nn.dropout(1000, 0.3),))).train_mode()
        x = np.ones((4, 1000))
        out = nn.forward(model, x, rng=np.random.default_rng(3)).outputs
        kept = out[out > 0]
        np.testing.assert_allclose(kept, 1.0 / 0.7, atol=1e-12)
        assert 0.6 < np.mean(out > 0) < 0.8

    def test_dropout_in_train_mode_requires_rng(self):
        model = nn.Model(nn.NetworkSpec((nn.dropout(4, 0.3),))).train_mode()
        with pytest.raises(nn.StateError, match="rng"):
            nn.forward(model, np.ones((2, 4)))

    def test_batchnorm_standardizes_batch(self):
        # Tiny epsilon so the variance contract is visible at 1e-4.
        model = nn.Model(nn.NetworkSpec((nn.batchnorm(3, epsilon=1e-10),))).train_mode()
        x = np.random.default_rng(4).normal(loc=5.0, scale=3.0, size=(64, 3))
        out = nn.forward(model, x).outputs  # scale 1, shift 0: pure x_hat
        np.testing.assert_allclose(out.mean(axis=0), 0.0, atol=1e-6)
        np.testing.assert_allclose(out.var(axis=0), 1.0, atol=1e-4)

    def test_batchnorm_inference_uses_running_stats(self):
        model = nn.Model(nn.NetworkSpec((nn.batchnorm(2),)))
        model.running[0]["mean"][...] = [1.0, 2.0]
        model.running[0]["var"][...] = [4.0, 9.0]
        model.inference_mode()
        out = nn.forward(model, np.array([[3.0, 8.0]])).outputs
        expected = (np.array([[3.0, 8.0]]) - [1.0, 2.0]) / np.sqrt(np.array([4.0, 9.0]) + 1e-3)
        np.testing.assert_allclose(out, expected, atol=1e-12)

    def test_dimension_mismatch_names_layer(self):
        model = softmax_ce_net()
        with pytest.raises(nn.ShapeError, match="layer 0"):
            nn.forward(model, np.zeros((2, 50)))

    def test_inference_is_deterministic_and_rng_free(self):
        model = softmax_ce_net().inference_mode()
        x = np.random.default_rng(5).normal(size=(6, 51))
        a = nn.forward(model, x).outputs
        b = nn.forward(model, x, rng=np.random.default_rng(99)).outputs
        np.testing.assert_array_equal(a, b)


class TestCrossEntropy:
    def test_exact_one_hot_is_zero(self):
        y = one_hot([0, 1], 2)
        assert nn.cross_entropy(y, y).scalar == 0.0

    def test_binary_half_is_ln2(self):
        probs = np.array([[0.5, 0.5]])
        loss = nn.cross_entropy(probs, one_hot([0], 2))
        assert loss.scalar == pytest.approx(math.log(2), abs=1e-9)

    def test_uniform_ten_is_ln10(self):
        probs = np.full((3, 10), 0.1)
        loss = nn.cross_entropy(probs, one_hot([0, 4, 9], 10))
        assert loss.scalar == pytest.approx(math.log(10), abs=1e-9)

    def test_scalar_is_mean_of_per_sample(self):
        rng = np.random.default_rng(6)
        probs = rng.dirichlet(np.ones(4), size=8)
        loss = nn.cross_entropy(probs, one_hot(rng.integers(4, size=8), 4))
        assert loss.scalar == pytest.approx(float(loss.per_sample.mean()))
        assert np.all(loss.per_sample >= 0.0)

    def test_confident_miss_stays_finite(self):
        probs = np.array([[1.0, 0.0]])
        loss = nn.cross_entropy(probs, one_hot([1], 2))
        assert np.isfinite(loss.scalar) and loss.scalar > 20

    def test_rows_must_sum_to_one(self):
        with pytest.raises(DomainError):
            nn.cross_entropy(np.array([[0.9, 0.3]]), one_hot([0], 2))

    def test_shape_mismatch(self):
        with pytest.raises(nn.ShapeError):
            nn.cross_entropy(np.full((2, 4), 0.25), one_hot([0], 2))


class TestBackward:
    def test_softmax_ce_output_gradient_closed_form(self):
        # One dense layer into softmax: dW = x^T (p - y) / batch.
        spec = nn.NetworkSpec((nn.dense(3, 2), nn.softmax(2)))
        model = nn.Model(spec, rng=np.random.default_rng(7)).train_mode()
        x = np.random.default_rng(8).normal(size=(5, 3))
        y = one_hot([0, 1, 1, 0, 1], 2)
        activations = nn.forward(model, x)
        grads = nn.backward(model, activations, y)
        probs = activations.outputs
        np.testing.assert_allclose(grads[0]["weight"], x.T @ ((probs - y) / 5), atol=1e-12)
        np.testing.assert_allclose(grads[0]["bias"], ((probs - y) / 5).sum(axis=0), atol=1e-12)

    def test_dead_relu_kills_gradient(self):
        spec = nn.NetworkSpec((nn.dense(2, 2), nn.relu(2), nn.dense(2, 2), nn.softmax(2)))
        model = nn.Model(spec, rng=np.random.default_rng(9)).train_mode()
        # Force unit 0 of the first dense layer negative on the whole batch.
        model.params[0]["weight"][:, 0] = -5.0
        model.params[0]["bias"][0] = -10.0
        x = np.abs(np.random.default_rng(10).normal(size=(6, 2)))
        activations = nn.forward(model, x)
        grads = nn.backward(model, activations, one_hot([0, 1] * 3, 2))
        np.testing.assert_array_equal(grads[0]["weight"][:, 0], 0.0)
        assert grads[0]["bias"][0] == 0.0

    def test_stale_after_adam_step(self):
        model = softmax_ce_net().train_mode()
        x = np.random.default_rng(11).normal(size=(4, 51))
        y = one_hot([0, 1, 2, 3], 4)
        activations = nn.forward(model, x)
        grads = nn.backward(model, activations, y)
        nn.adam_step(model, grads, nn.init_adam(model), lr=0.01)
        with pytest.raises(nn.StateError, match="stale"):
            nn.backward(model, activations, y)

    def test_inference_activations_rejected(self):
        model = softmax_ce_net().inference_mode()
        x = np.random.default_rng(12).normal(size=(4, 51))
        activations = nn.forward(model, x)
        model.train_mode()
        with pytest.raises(nn.StateError, match="train-mode"):
            nn.backward(model, activations, one_hot([0, 1, 2, 3], 4))

    def test_target_batch_mismatch(self):
        model = softmax_ce_net().train_mode()
        x = np.random.default_rng(13).normal(size=(4, 51))
        activations = nn.forward(model, x, rng=np.random.default_rng(0))
        with pytest.raises(nn.ShapeError):
            nn.backward(model, activations, one_hot([0, 1], 4))


class TestGradCheck:
    def test_random_51_8_4_network(self):
        model = softmax_ce_net(seed=42)
        rng = np.random.default_rng(1)
        x = rng.normal(size=(6, 51))
        y = one_hot(rng.integers(4, size=6), 4)
        assert nn.grad_check(model, (x, y), eps=1e-5) < 1e-4

    def test_linear_model_squared_loss_nearly_exact(self):
        model = nn.Model(nn.NetworkSpec((nn.dense(4, 3),)), rng=np.random.default_rng(2))
        rng = np.random.default_rng(3)
        assert nn.grad_check(model, (rng.normal(size=(7, 4)), rng.normal(size=(7, 3))),
                             eps=1e-4) < 1e-8

    def test_batchnorm_path(self):
        spec = nn.NetworkSpec((nn.dense(6, 5), nn.relu(5), nn.batchnorm(5),
                               nn.dense(5, 3), nn.softmax(3)))
        model = nn.Model(spec, rng=np.random.default_rng(4))
        rng = np.random.default_rng(5)
        x = rng.normal(size=(8, 6))
        y = one_hot(rng.integers(3, size=8), 3)
        assert nn.grad_check(model, (x, y), eps=1e-5) < 1e-4

    def test_eps_zero_violates_precondition(self):
        model = softmax_ce_net()
        with pytest.raises(DomainError, match="eps"):
            nn.grad_check(model, (np.zeros((2, 51)), one_hot([0, 1], 4)), eps=0.0)

    def test_dropout_must_be_disabled(self):
        spec = nn.NetworkSpec((nn.dropout(4, 0.3), nn.dense(4, 2), nn.softmax(2)))
        model = nn.Model(spec, rng=np.random.default_rng(6))
        with pytest.raises(DomainError, match="dropout"):
            nn.grad_check(model, (np.zeros((2, 4)), one_hot([0, 1], 2)), eps=1e-5)

    def test_leaves_model_state_untouched(self):
        model = softmax_ce_net(seed=7)
        model.inference_mode()
        rng = np.random.default_rng(8)
        x = rng.normal(size=(4, 51))
        y = one_hot(rng.integers(4, size=4), 4)
        before = model.copy_params()
        nn.grad_check(model, (x, y), eps=1e-5)
        assert model.mode == nn.INFERENCE
        for p0, p1 in zip(before, model.params):
            for key in p0:
                np.testing.assert_array_equal(p0[key], p1[key])


class TestAdam:
    def test_zero_gradients_leave_parameters(self):
        model = softmax_ce_net()
        state = nn.init_adam(model)
        before = model.copy_params()
        zero_grads = [{k: np.zeros_like(v) for k, v in p.items()} for p in model.params]
        nn.adam_step(model, zero_grads, state, lr=0.5)
        assert state.t == 1
        for p0, p1 in zip(before, model.params):
            for key in p0:
                np.testing.assert_array_equal(p0[key], p1[key])

    def test_first_step_is_signed_lr(self):
        model = nn.Model(nn.NetworkSpec((nn.dense(2, 2),)), rng=np.random.default_rng(0))
        state = nn.init_adam(model)
        before = model.params[0]["weight"].copy()
        g = np.array([[3.0, -2.0], [0.5, -7.0]])
        grads = [{"weight": g, "bias": np.zeros(2)}]
        nn.adam_step(model, grads, state, lr=0.01)
        update = model.params[0]["weight"] - before
        np.testing.assert_allclose(update, -0.01 * np.sign(g), rtol=1e-6)

    def test_determinism(self):
        def run():
            model = softmax_ce_net(seed=3)
            state = nn.init_adam(model)
            rng = np.random.default_rng(4)
            x = rng.normal(size=(8, 51))
            y = one_hot(rng.integers(4, size=8), 4)
            for epoch in range(5):
                model.train_mode()
                acts = nn.forward(model, x, rng=rng)
                grads = nn.backward(model, acts, y)
                nn.adam_step(model, grads, state, nn.lr_at(epoch))
            return model.copy_params()

        a, b = run(), run()
        for p0, p1 in zip(a, b):
            for key in p0:
                np.testing.assert_array_equal(p0[key], p1[key])

    def test_non_finite_gradient_named(self):
        model = softmax_ce_net()
        state = nn.init_adam(model)
        grads = [{k: np.zeros_like(v) for k, v in p.items()} for p in model.params]
        grads[0]["weight"][0, 0] = np.nan
        with pytest.raises(nn.NumericError, match="layer 0.*weight"):
            nn.adam_step(model, grads, state, lr=0.01)


class TestLearningRate:
    def test_schedule_values(self):
        assert nn.lr_at(0) == pytest.approx(0.01)
        assert nn.lr_at(1) == pytest.approx(0.009)
        assert nn.lr_at(2) == pytest.approx(0.0081)

    def test_negative_epoch(self):
        with pytest.raises(DomainError):
            nn.lr_at(-1)


class TestSerialization:
    def test_roundtrip_preserves_forward(self):
        model = softmax_ce_net(seed=11).inference_mode()
        x = np.random.default_rng(12).normal(size=(5, 51))
        expected = nn.forward(model, x).outputs
        text = json.dumps(nn.model_to_dict(model, artifact_kind="classifier"))
        loaded = nn.model_from_dict(json.loads(text), expected_kind="classifier")
        np.testing.assert_array_equal(nn.forward(loaded, x).outputs, expected)

    def test_version_mismatch_fails(self, tmp_path):
        model = softmax_ce_net()
        doc = nn.model_to_dict(model, artifact_kind="classifier")
        doc["format_version"] = 99
        with pytest.raises(nn.StateError, match="version"):
            nn.model_from_dict(doc)

    def test_kind_mismatch_fails(self):
        model = softmax_ce_net()
        doc = nn.model_to_dict(model, artifact_kind="autoencoder")
        with pytest.raises(nn.StateError, match="classifier"):
            nn.model_from_dict(doc, expected_kind="classifier")
