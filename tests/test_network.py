import base64
import io
import json
import math
import tracemalloc

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from multicred import network as nn
from multicred import store
from multicred.autoencoder import (Autoencoder, AutoencoderSpec, _build_network,
                                   autoencoder_document, train_autoencoder)
from multicred.classifier import build_multicred, classifier_spec
from multicred.domain import DomainError

from conftest import (count_params, grad_check, model_dict, retouch, stored,
                      untrained_autoencoder_model)


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

    def test_unknown_kind(self):
        with pytest.raises(DomainError):
            nn.LayerSpec("conv", 4, 4)


class TestCountParams:
    def test_hidden_layer_1_row(self):
        assert count_params(nn.NetworkSpec((nn.dense(51, 256),))) == (13312, 13312)

    def test_batchnorm_row(self):
        assert count_params(nn.NetworkSpec((nn.batchnorm(256),))) == (1024, 512)

    def test_empty_spec(self):
        assert count_params(nn.NetworkSpec(())) == (0, 0)

    def test_activation_layers_are_free(self):
        spec = nn.NetworkSpec((nn.dropout(16), nn.relu(16), nn.softmax(16)))
        assert count_params(spec) == (0, 0)


class TestForward:
    def test_softmax_of_zeros_is_uniform(self):
        model = nn.Model(nn.NetworkSpec((nn.softmax(4),)))
        out = nn.forward(model, np.zeros((1, 4))).outputs
        np.testing.assert_allclose(out, 0.25, atol=1e-12)

    def test_softmax_rows_sum_to_one(self):
        model = nn.Model(nn.NetworkSpec((nn.softmax(7),)))
        x = np.random.default_rng(0).normal(scale=50, size=(40, 7))
        out = nn.forward(model, x).outputs
        np.testing.assert_allclose(out.sum(axis=1), 1.0, atol=1e-9)

    def test_softmax_shift_invariance(self):
        model = nn.Model(nn.NetworkSpec((nn.softmax(5),)))
        x = np.random.default_rng(1).normal(size=(10, 5))
        a = nn.forward(model, x).outputs
        b = nn.forward(model, x + 123.456).outputs
        np.testing.assert_allclose(a, b, atol=1e-12)

    def test_dropout_is_identity_in_inference(self):
        model = nn.Model(nn.NetworkSpec((nn.dropout(6),)))
        x = np.random.default_rng(2).normal(size=(5, 6))
        np.testing.assert_array_equal(nn.forward(model, x).outputs, x)

    def test_dropout_scales_at_train_time(self):
        model = nn.Model(nn.NetworkSpec((nn.dropout(1000),)))
        x = np.ones((4, 1000))
        out = nn.forward(model, x, rng=np.random.default_rng(3)).outputs
        kept = out[out > 0]
        np.testing.assert_allclose(kept, 1.0 / 0.7, atol=1e-12)
        assert 0.6 < np.mean(out > 0) < 0.8

    def test_batchnorm_standardizes_batch(self):
        model = nn.Model(nn.NetworkSpec((nn.batchnorm(3),)))
        x = np.random.default_rng(4).normal(loc=5.0, scale=3.0, size=(64, 3))
        # A training pass at scale 1, shift 0: pure x_hat.
        out = nn.forward(model, x, rng=np.random.default_rng(0)).outputs
        np.testing.assert_allclose(out.mean(axis=0), 0.0, atol=1e-6)
        # epsilon shrinks each variance from 1 to var / (var + epsilon).
        var = x.var(axis=0)
        np.testing.assert_allclose(out.var(axis=0), var / (var + 1e-3), rtol=1e-12)

    def test_batchnorm_inference_uses_running_stats(self):
        model = nn.Model(nn.NetworkSpec((nn.batchnorm(2),)))
        model.running[0]["mean"][...] = [1.0, 2.0]
        model.running[0]["var"][...] = [4.0, 9.0]
        out = nn.forward(model, np.array([[3.0, 8.0]])).outputs
        expected = (np.array([[3.0, 8.0]]) - [1.0, 2.0]) / np.sqrt(np.array([4.0, 9.0]) + 1e-3)
        np.testing.assert_allclose(out, expected, atol=1e-12)

    def test_dimension_mismatch_names_layer(self):
        model = softmax_ce_net()
        with pytest.raises(nn.ShapeError, match="layer 0"):
            nn.forward(model, np.zeros((2, 50)))

    def test_forward_trains_exactly_when_given_an_rng(self):
        spec = nn.NetworkSpec((nn.dropout(6), nn.dense(6, 4), nn.batchnorm(4), nn.softmax(4)))
        model = nn.Model(spec, rng=np.random.default_rng(5))
        x = np.random.default_rng(6).normal(size=(8, 6))
        stats = model.stats.copy()
        inference = nn.forward(model, x)
        assert not inference.train and inference.caches == []
        assert model.stats.tobytes() == stats.tobytes()
        np.testing.assert_array_equal(nn.forward(model, x).outputs, inference.outputs)

        training = nn.forward(model, x, rng=np.random.default_rng(7))
        assert training.train and len(training.caches) == len(spec.layers)
        assert "mask" in training.caches[0] and "x_hat" in training.caches[2]
        assert model.stats.tobytes() != stats.tobytes()
        assert training.outputs.tobytes() != inference.outputs.tobytes()


class TestCrossEntropy:
    def test_exact_one_hot_is_zero(self):
        y = one_hot([0, 1], 2)
        assert nn.cross_entropy(y, y) == 0.0

    def test_binary_half_is_ln2(self):
        probs = np.array([[0.5, 0.5]])
        loss = nn.cross_entropy(probs, one_hot([0], 2))
        assert loss == pytest.approx(math.log(2), abs=1e-9)

    def test_uniform_ten_is_ln10(self):
        probs = np.full((3, 10), 0.1)
        loss = nn.cross_entropy(probs, one_hot([0, 4, 9], 10))
        assert loss == pytest.approx(math.log(10), abs=1e-9)

    def test_confident_miss_stays_finite(self):
        probs = np.array([[1.0, 0.0]])
        loss = nn.cross_entropy(probs, one_hot([1], 2))
        assert np.isfinite(loss) and loss > 20

    def test_rows_must_sum_to_one(self):
        with pytest.raises(DomainError):
            nn.cross_entropy(np.array([[0.9, 0.3]]), one_hot([0], 2))

    # The tolerance is np.allclose's at atol=1e-6: 1e-6 + 1e-5 * |1.0| = 1.1e-5.
    @pytest.mark.parametrize("offset, accepted", [
        (1.09e-5, True), (-1.09e-5, True), (1.11e-5, False), (-1.11e-5, False),
    ])
    def test_row_sum_tolerance_boundary(self, offset, accepted):
        probs = np.array([[0.5, 0.5], [0.5 + offset, 0.5]])
        if accepted:
            assert np.isfinite(nn.cross_entropy(probs, one_hot([0, 1], 2)))
        else:
            with pytest.raises(DomainError, match="sum to 1"):
                nn.cross_entropy(probs, one_hot([0, 1], 2))

    def test_shape_mismatch(self):
        with pytest.raises(nn.ShapeError):
            nn.cross_entropy(np.full((2, 4), 0.25), one_hot([0], 2))


class TestBackward:
    def test_softmax_ce_output_gradient_closed_form(self):
        # One dense layer into softmax: dW = x^T (p - y) / batch.
        spec = nn.NetworkSpec((nn.dense(3, 2), nn.softmax(2)))
        model = nn.Model(spec, rng=np.random.default_rng(7))
        x = np.random.default_rng(8).normal(size=(5, 3))
        y = one_hot([0, 1, 1, 0, 1], 2)
        activations = nn.forward(model, x, rng=np.random.default_rng(0))
        grads = model.views(nn.backward(model, activations, y))
        probs = activations.outputs
        np.testing.assert_allclose(grads[0]["weight"], x.T @ ((probs - y) / 5), atol=1e-12)
        np.testing.assert_allclose(grads[0]["bias"], ((probs - y) / 5).sum(axis=0), atol=1e-12)

    def test_dead_relu_kills_gradient(self):
        spec = nn.NetworkSpec((nn.dense(2, 2), nn.relu(2), nn.dense(2, 2), nn.softmax(2)))
        model = nn.Model(spec, rng=np.random.default_rng(9))
        # Force unit 0 of the first dense layer negative on the whole batch.
        model.params[0]["weight"][:, 0] = -5.0
        model.params[0]["bias"][0] = -10.0
        x = np.abs(np.random.default_rng(10).normal(size=(6, 2)))
        activations = nn.forward(model, x, rng=np.random.default_rng(0))
        grads = model.views(nn.backward(model, activations, one_hot([0, 1] * 3, 2)))
        np.testing.assert_array_equal(grads[0]["weight"][:, 0], 0.0)
        assert grads[0]["bias"][0] == 0.0

    def test_stale_after_adam_step(self):
        model = softmax_ce_net()
        x = np.random.default_rng(11).normal(size=(4, 51))
        y = one_hot([0, 1, 2, 3], 4)
        activations = nn.forward(model, x, rng=np.random.default_rng(0))
        grads = nn.backward(model, activations, y)
        nn.adam_step(model, grads, nn.init_adam(model), lr=0.01)
        with pytest.raises(nn.StateError, match="stale"):
            nn.backward(model, activations, y)

    def test_inference_activations_rejected(self):
        model = softmax_ce_net()
        x = np.random.default_rng(12).normal(size=(4, 51))
        activations = nn.forward(model, x)
        with pytest.raises(nn.StateError, match="training pass"):
            nn.backward(model, activations, one_hot([0, 1, 2, 3], 4))

    def test_target_batch_mismatch(self):
        model = softmax_ce_net()
        x = np.random.default_rng(13).normal(size=(4, 51))
        activations = nn.forward(model, x, rng=np.random.default_rng(0))
        with pytest.raises(nn.ShapeError):
            nn.backward(model, activations, one_hot([0, 1], 4))


class TestBatchnormBits:
    def test_forward_and_backward_match_the_textbook_formulas_bitwise(self):
        # dense -> batchnorm -> dense -> softmax, against the batchnorm
        # formulas written out with x.mean, x.var and x - mu at every use.
        spec = nn.NetworkSpec((nn.dense(6, 5), nn.batchnorm(5), nn.dense(5, 3), nn.softmax(3)))
        model = nn.Model(spec, rng=np.random.default_rng(21))
        model.params[1]["scale"][...] = np.random.default_rng(22).normal(size=5)
        model.params[1]["shift"][...] = np.random.default_rng(23).normal(size=5)
        rng = np.random.default_rng(24)
        # 13 rows: dividing by a batch size that is not a power of two rounds,
        # so a reordered expression shows in the bits.
        x0 = rng.normal(loc=3.0, scale=2.0, size=(13, 6))
        y = one_hot(rng.integers(3, size=13), 3)
        eps, m, n = 1e-3, 0.99, 13

        running = {key: stats.copy() for key, stats in model.running[1].items()}
        activations = nn.forward(model, x0, rng=rng)
        x = x0 @ model.params[0]["weight"] + model.params[0]["bias"]
        mu, var = x.mean(axis=0), x.var(axis=0)
        inv_std = 1.0 / np.sqrt(var + eps)
        x_hat = (x - mu) * inv_std
        out = model.params[1]["scale"] * x_hat + model.params[1]["shift"]
        assert activations.caches[2]["x"].tobytes() == out.tobytes()  # the next layer's input
        assert model.running[1]["mean"].tobytes() == \
            (m * running["mean"] + (1.0 - m) * mu).tobytes()
        assert model.running[1]["var"].tobytes() == \
            (m * running["var"] + (1.0 - m) * var).tobytes()

        grads = model.views(nn.backward(model, activations, y))
        delta = (activations.outputs - y) / n
        delta = delta @ model.params[2]["weight"].T
        scale_grad, shift_grad = (delta * x_hat).sum(axis=0), delta.sum(axis=0)
        dx_hat = delta * model.params[1]["scale"]
        dvar = (dx_hat * (x - mu)).sum(axis=0) * (-0.5) * inv_std**3
        dmu = (-dx_hat * inv_std).sum(axis=0) + dvar * (-2.0 * (x - mu)).sum(axis=0) / n
        delta = dx_hat * inv_std + dvar * 2.0 * (x - mu) / n + dmu / n
        assert grads[1]["scale"].tobytes() == scale_grad.tobytes()
        assert grads[1]["shift"].tobytes() == shift_grad.tobytes()
        assert grads[0]["weight"].tobytes() == (x0.T @ delta).tobytes()
        assert grads[0]["bias"].tobytes() == np.sum(delta, axis=0).tobytes()


class TestGradCheck:
    def test_random_51_8_4_network(self):
        model = softmax_ce_net(seed=42)
        rng = np.random.default_rng(1)
        x = rng.normal(size=(6, 51))
        y = one_hot(rng.integers(4, size=6), 4)
        assert grad_check(model, (x, y), eps=1e-5) < 1e-4

    def test_linear_model_squared_loss_nearly_exact(self):
        model = nn.Model(nn.NetworkSpec((nn.dense(4, 3),)), rng=np.random.default_rng(2))
        rng = np.random.default_rng(3)
        assert grad_check(model, (rng.normal(size=(7, 4)), rng.normal(size=(7, 3))),
                             eps=1e-4) < 1e-8

    def test_batchnorm_path(self):
        spec = nn.NetworkSpec((nn.dense(6, 5), nn.relu(5), nn.batchnorm(5),
                               nn.dense(5, 3), nn.softmax(3)))
        model = nn.Model(spec, rng=np.random.default_rng(4))
        rng = np.random.default_rng(5)
        x = rng.normal(size=(8, 6))
        y = one_hot(rng.integers(3, size=8), 3)
        assert grad_check(model, (x, y), eps=1e-5) < 1e-4

    def test_eps_zero_violates_precondition(self):
        model = softmax_ce_net()
        with pytest.raises(DomainError, match="eps"):
            grad_check(model, (np.zeros((2, 51)), one_hot([0, 1], 4)), eps=0.0)

    def test_dropout_must_be_disabled(self):
        spec = nn.NetworkSpec((nn.dropout(4), nn.dense(4, 2), nn.softmax(2)))
        model = nn.Model(spec, rng=np.random.default_rng(6))
        with pytest.raises(DomainError, match="dropout"):
            grad_check(model, (np.zeros((2, 4)), one_hot([0, 1], 2)), eps=1e-5)

    def test_leaves_model_state_untouched(self):
        # The forwards grad_check runs are training passes: they move the
        # running statistics, which it must put back with the parameters.
        spec = nn.NetworkSpec((nn.dense(6, 5), nn.batchnorm(5), nn.dense(5, 3), nn.softmax(3)))
        model = nn.Model(spec, rng=np.random.default_rng(7))
        rng = np.random.default_rng(8)
        x = rng.normal(size=(4, 6))
        y = one_hot(rng.integers(3, size=4), 3)
        flat, stats = model.flat.copy(), model.stats.copy()
        grad_check(model, (x, y), eps=1e-5)
        assert model.flat.tobytes() == flat.tobytes()
        assert model.stats.tobytes() == stats.tobytes()


class TestAdam:
    def test_zero_gradients_leave_parameters(self):
        model = softmax_ce_net()
        state = nn.init_adam(model)
        before = model.flat.copy()
        nn.adam_step(model, np.zeros_like(model.flat), state, lr=0.5)
        assert state.t == 1
        np.testing.assert_array_equal(model.flat, before)

    def test_first_step_is_signed_lr(self):
        model = nn.Model(nn.NetworkSpec((nn.dense(2, 2),)), rng=np.random.default_rng(0))
        state = nn.init_adam(model)
        before = model.params[0]["weight"].copy()
        g = np.array([[3.0, -2.0], [0.5, -7.0]])
        grad = np.zeros_like(model.flat)
        model.views(grad)[0]["weight"][...] = g
        nn.adam_step(model, grad, state, lr=0.01)
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
                acts = nn.forward(model, x, rng=rng)
                nn.adam_step(model, nn.backward(model, acts, y), state, nn.lr_at(epoch))
            return model.snapshot()

        np.testing.assert_array_equal(run(), run())

    def test_non_finite_gradient_named(self):
        model = softmax_ce_net()
        state = nn.init_adam(model)
        grad = np.zeros_like(model.flat)
        model.views(grad)[0]["weight"][0, 0] = np.nan
        with pytest.raises(nn.NumericError, match="layer 0.*weight"):
            nn.adam_step(model, grad, state, lr=0.01)


# The two training loops as they were written out before train_epoch, one
# per network: the reference train_epoch must match bit for bit.

def reference_classifier_epochs(model, x, targets, epochs, batch_size, seed):
    rng = np.random.default_rng(seed)
    state = nn.init_adam(model)
    n = x.shape[0]
    history = []
    for epoch in range(epochs):
        lr = nn.lr_at(epoch)
        order = rng.permutation(n)
        batch_losses = []
        for start in range(0, n, batch_size):
            idx = order[start:start + batch_size]
            activations = nn.forward(model, x[idx], rng=rng)
            batch_losses.append(nn.cross_entropy(activations.outputs, targets[idx]))
            nn.adam_step(model, nn.backward(model, activations, targets[idx]), state, lr)
        history.append(float(np.mean(batch_losses)))
    return history


def reference_autoencoder(x, spec):
    rng = np.random.default_rng(spec.seed)
    model = nn.Model(_build_network(), rng=rng)
    state = nn.init_adam(model)
    n = x.shape[0]
    history = []
    for epoch in range(spec.epochs):
        lr = nn.lr_at(epoch)
        order = rng.permutation(n)
        epoch_losses = []
        for start in range(0, n, spec.batch_size):
            batch = x[order[start:start + spec.batch_size]]
            activations = nn.forward(model, batch, rng=rng)
            epoch_losses.append(nn.mean_squared_error(activations.outputs, batch))
            nn.adam_step(model, nn.backward(model, activations, batch), state, lr)
        history.append(float(np.mean(epoch_losses)))
    return model, history


class TestTrainEpoch:
    def test_classifier_matches_reference_loop_bitwise(self):
        # 40 rows at batch 16 leave a partial last batch; the network has
        # dropout and batchnorm, so masks and running statistics are compared too.
        data = np.random.default_rng(8)
        x = data.normal(size=(40, 51))
        targets = one_hot(data.integers(4, size=40), 4)
        model, ref = build_multicred(4, seed=2), build_multicred(4, seed=2)
        rng, state = np.random.default_rng(9), nn.init_adam(model)
        history = [nn.train_epoch(model, x, targets, state, epoch, 16, rng)
                   for epoch in range(4)]
        assert history == reference_classifier_epochs(ref, x, targets, 4, 16, seed=9)
        np.testing.assert_array_equal(model.flat, ref.flat)
        np.testing.assert_array_equal(model.stats, ref.stats)
        assert state.t == 4 * 3

    def test_autoencoder_matches_reference_loop_bitwise(self):
        x = np.random.default_rng(10).normal(size=(40, 768)) * 0.1
        spec = AutoencoderSpec(epochs=3, batch_size=16, seed=4)
        ae, history = train_autoencoder(x, spec)
        ref, ref_history = reference_autoencoder(x, spec)
        assert history == ref_history
        np.testing.assert_array_equal(ae.model.flat, ref.flat)
        np.testing.assert_array_equal(ae.model.stats, ref.stats)

    def test_loss_follows_the_final_layer(self):
        probs, y = np.array([[0.25, 0.75]]), np.array([[0.0, 1.0]])
        assert nn.loss(softmax_ce_net(), probs, y) == nn.cross_entropy(probs, y)
        linear = nn.Model(nn.NetworkSpec((nn.dense(2, 2),)))
        assert nn.loss(linear, probs, y) == nn.mean_squared_error(probs, y)


def reference_adam(params, grads, m, v, t, lr, b1=0.9, b2=0.999, eps=1e-8):
    """Per-array Adam: the formula and operation order adam_step must match bitwise."""
    for i, layer_grads in enumerate(grads):
        for key, g in layer_grads.items():
            m[i][key] = b1 * m[i][key] + (1.0 - b1) * g
            v[i][key] = b2 * v[i][key] + (1.0 - b2) * g**2
            m_hat = m[i][key] / (1.0 - b1**t)
            v_hat = v[i][key] / (1.0 - b2**t)
            params[i][key] -= lr * m_hat / (np.sqrt(v_hat) + eps)


def classifier_net():
    return build_multicred(4, seed=3)


def autoencoder_net():
    return untrained_autoencoder_model(AutoencoderSpec(seed=3))


def batch_for(model, rng, rows=16):
    x = rng.normal(size=(rows, model.spec.input_dim))
    if model.spec.layers[-1].kind == "softmax":
        return x, one_hot(rng.integers(model.spec.output_dim, size=rows), model.spec.output_dim)
    return x, x


class TestFlatBuffer:
    @pytest.mark.parametrize("build", [classifier_net, autoencoder_net])
    def test_adam_matches_per_array_reference_bitwise(self, build, monkeypatch):
        # 7 and 4,096 leave a partial last block on both networks; the default
        # covers the classifier in three blocks and the autoencoder in seven.
        assert 1.0 - 0.9**355 != 1.0 and 1.0 - 0.9**356 == 1.0
        for block in (7, 4_096, nn.ADAM_BLOCK):
            monkeypatch.setattr(nn, "ADAM_BLOCK", block)
            fused, ref = build(), build()
            state = nn.init_adam(fused)
            # Start past step 350 so the run crosses step 356, where 1 - 0.9**t
            # first rounds to 1.0 and adam_step stops dividing m by it.
            start = 350
            state.t = start
            m = [{k: np.zeros_like(a) for k, a in p.items()} for p in ref.params]
            v = [{k: np.zeros_like(a) for k, a in p.items()} for p in ref.params]
            data = np.random.default_rng(5)
            rng_fused, rng_ref = np.random.default_rng(6), np.random.default_rng(6)
            for step in range(50):
                x, y = batch_for(fused, data)
                lr = nn.lr_at(step // 10)
                nn.adam_step(fused,
                             nn.backward(fused, nn.forward(fused, x, rng=rng_fused), y),
                             state, lr)
                grads = ref.views(nn.backward(ref, nn.forward(ref, x, rng=rng_ref), y))
                reference_adam(ref.params, grads, m, v, start + step + 1, lr)
            assert state.t == start + 50
            for p_fused, p_ref in zip(fused.params, ref.params):
                for key in p_ref:
                    np.testing.assert_array_equal(p_fused[key], p_ref[key],
                                                  err_msg=f"ADAM_BLOCK={block}")

    @pytest.mark.parametrize("build", [classifier_net, autoencoder_net])
    def test_params_and_grads_are_views_of_their_buffers(self, build):
        model = build()
        x, y = batch_for(model, np.random.default_rng(7))
        grad = nn.backward(model, nn.forward(model, x, rng=np.random.default_rng(8)), y)
        assert grad is model.grad
        assert model.flat.size == count_params(model.spec)[1]
        assert grad.shape == model.flat.shape
        for params, layer_grads in zip(model.params, model.views(grad)):
            assert params.keys() == layer_grads.keys()
            for key in params:
                assert np.shares_memory(params[key], model.flat)
                assert np.shares_memory(layer_grads[key], grad)
                assert not np.shares_memory(layer_grads[key], model.flat)
        stats = [arr for layer in model.running if layer for arr in layer.values()]
        assert model.stats.size == sum(arr.size for arr in stats)
        assert all(np.shares_memory(arr, model.stats) for arr in stats)

    def test_copy_mutate_load_restores_bitwise(self):
        model = classifier_net()
        rng = np.random.default_rng(12)
        nn.forward(model, rng.normal(size=(16, 51)), rng=rng)  # moves the running statistics
        saved = model.snapshot()
        flat, stats = model.flat.copy(), model.stats.copy()
        version = model._version
        model.flat += 1.0
        model.params[1]["weight"][0, 0] = np.pi
        nn.forward(model, rng.normal(size=(16, 51)), rng=rng)
        model.running[3]["var"][0] = np.e
        assert model.stats.tobytes() != stats.tobytes()
        model.restore(saved)
        assert model.flat.tobytes() == flat.tobytes()
        assert model.stats.tobytes() == stats.tobytes()
        assert model._version == version + 1
        assert not np.shares_memory(saved, model.flat)
        assert not np.shares_memory(saved, model.stats)

    def test_adam_step_allocates_no_parameter_sized_temporaries(self):
        for model in (build_multicred(4), autoencoder_net()):
            x, y = batch_for(model, np.random.default_rng(9))
            grads = nn.backward(model, nn.forward(model, x, rng=np.random.default_rng(10)), y)
            state = nn.init_adam(model)
            block = min(nn.ADAM_BLOCK, model.flat.size)
            assert [a.shape for a in state.scratch] == [(block,), (block,)]
            tracemalloc.start()
            try:
                nn.adam_step(model, grads, state, lr=0.01)
                _, peak = tracemalloc.get_traced_memory()
            finally:
                tracemalloc.stop()
            assert peak < 8 * model.flat.size

    def test_inference_allocates_no_gradient_buffer(self):
        doc = model_dict(classifier_net(), artifact_kind="classifier")
        model = nn.model_from_dict(doc, classifier_spec(4), "classifier", "classifier file")
        nn.forward(model, np.zeros((3, model.spec.input_dim)))
        assert model.grad is None

    def test_caller_gradients_must_match_layout(self):
        model = softmax_ce_net()
        before = model.flat.copy()
        with pytest.raises(nn.ShapeError, match=r"gradient has shape \(451,\)"):
            nn.adam_step(model, np.zeros(model.flat.size - 1), nn.init_adam(model), lr=0.01)
        assert model.flat.tobytes() == before.tobytes()

    def test_overflowing_finite_gradient_is_not_rejected(self):
        model = nn.Model(nn.NetworkSpec((nn.dense(2, 2),)), rng=np.random.default_rng(0))
        with np.errstate(over="ignore"):  # the sum and g**2 overflow to inf
            nn.adam_step(model, np.full(6, 1e308), nn.init_adam(model), lr=0.01)
        assert np.all(np.isfinite(model.flat))


class TestLearningRate:
    def test_schedule_values(self):
        assert nn.lr_at(0) == pytest.approx(0.01)
        assert nn.lr_at(1) == pytest.approx(0.009)
        assert nn.lr_at(2) == pytest.approx(0.0081)

    def test_negative_epoch(self):
        with pytest.raises(DomainError):
            nn.lr_at(-1)


def with_stored_arrays(doc):
    """``doc`` with every numpy array replaced by the string a file stores."""
    if isinstance(doc, np.ndarray):
        return stored(doc)
    if isinstance(doc, dict):
        return {k: with_stored_arrays(v) for k, v in doc.items()}
    if isinstance(doc, list):
        return [with_stored_arrays(v) for v in doc]
    return doc


def written(doc) -> str:
    out = io.StringIO()
    store.write_json(out, doc)
    return out.getvalue()


# Edge bit patterns: both zeros, the smallest and largest subnormals, the
# smallest normal, the largest finite magnitudes.
_EDGES = [0.0, -0.0, 5e-324, -5e-324, 2.225073858507201e-308, 2.2250738585072014e-308,
          1.7976931348623157e308, -1.7976931348623157e308]


def _finite_bit_patterns(seed: int, n: int) -> np.ndarray:
    """``n`` uniformly drawn float64 bit patterns, an all-ones exponent
    (infinity or NaN) turned finite by clearing its top exponent bit."""
    bits = np.random.default_rng(seed).integers(0, 2**64, size=n, dtype=np.uint64,
                                               endpoint=False)
    exponent_all_ones = (bits & np.uint64(0x7FF0000000000000)) == np.uint64(0x7FF0000000000000)
    bits[exponent_all_ones] ^= np.uint64(0x4000000000000000)
    return bits.view(np.float64)


class TestArrayCodec:
    @settings(max_examples=60, deadline=None)
    @given(st.lists(st.floats(allow_nan=False, allow_infinity=False) | st.sampled_from(_EDGES),
                    max_size=40),
           st.integers(0, 2**32 - 1), st.integers(0, 2 * store.WRITE_BLOCK + 5))
    def test_round_trip_is_bit_exact_and_equals_base64_of_the_bytes(self, drawn, seed, n):
        values = np.concatenate([np.array(drawn, dtype=float), _finite_bit_patterns(seed, n)])
        text = store.encode_array(values)
        assert text == base64.b64encode(values.astype("<f8").tobytes()).decode()
        back = store.decode_array(text, values.size, "values")
        assert back.tobytes() == values.astype("<f8").tobytes()
        doc = {"v": values, "list": [values[:3], {"n": 1}]}
        assert written(doc) == json.dumps(
            {"v": text, "list": [store.encode_array(values[:3]), {"n": 1}]}, sort_keys=True)

    def test_two_dimensional_arrays_are_stored_row_major(self):
        a = np.arange(6.0).reshape(2, 3)
        assert store.encode_array(a) == store.encode_array(a.ravel()) == stored([0, 1, 2, 3, 4, 5])
        assert store.encode_array(a.T) == stored([0, 3, 1, 4, 2, 5])

    def test_write_block_ends_on_a_base64_group(self):
        assert store.WRITE_BLOCK * 8 % 3 == 0

    @pytest.mark.parametrize("value, problem", [
        ([1.0, 2.0], "is not a base64 string"),
        (None, "is not a base64 string"),
        (4, "is not a base64 string"),
        (stored([1.0, 2.0])[:-4] + " " + stored([1.0, 2.0])[-3:], "is not valid base64"),
        (stored([1.0, 2.0]).replace("A", "-", 1), "is not valid base64"),
        (stored([1.0, 2.0]) + "\n", "is not valid base64"),
        ("\u00e9" + stored([1.0, 2.0])[1:], "is not valid base64"),
        (stored([1.0, 2.0]).rstrip("="), "is not valid base64"),
        (stored([1.0, 2.0]) + "=", "is not valid base64"),
        (stored([1.0, 2.0, 3.0]) + "=", "is not valid base64"),
        (stored([1.0]) + "AAAA", "is not valid base64"),
        (base64.b64encode(bytes(12)).decode(), "holds 12 bytes, not a whole number of float64"),
        (stored([1.0]), r"has shape \(1,\), expected \(2,\)"),
        (stored([1.0, 2.0, 3.0]), r"has shape \(3,\), expected \(2,\)"),
        (stored([1.0, np.nan]), "holds non-finite values"),
        (stored([np.inf, 1.0]), "holds non-finite values"),
        (stored([1.0, -np.inf]), "holds non-finite values"),
    ], ids=["list", "null", "int", "space", "non-alphabet", "newline", "non-ascii",
            "no-padding", "extra-padding", "padding-after-whole-group", "data-after-padding", "12-bytes", "one-value",
            "three-values", "nan", "inf", "minus-inf"])
    def test_decode_failure_names_the_field(self, value, problem):
        with pytest.raises(nn.StateError, match=r"^parameters\[3\]\.weight " + problem):
            store.decode_array(value, 2, "parameters[3].weight")


class TestWriteJson:
    def test_classifier_bytes_equal_json_dumps(self):
        model = build_multicred(6, seed=3)
        rng = np.random.default_rng(4)
        for _ in range(3):  # moves the running statistics off their start
            nn.forward(model, rng.normal(size=(16, 51)), rng=rng)
        model.flat[:4] = [-0.0, 5e-324, 1.7976931348623157e308, -1e-300]
        doc = nn.model_document(model, "classifier")
        assert written(doc) == json.dumps(with_stored_arrays(doc), sort_keys=True)
        assert json.loads(written(doc))["format_version"] == 2

    def test_autoencoder_bytes_equal_json_dumps(self):
        spec = AutoencoderSpec(seed=5)
        ae = Autoencoder(spec, untrained_autoencoder_model(spec))
        assert ae.model.params[0]["weight"].size > store.WRITE_BLOCK
        expected = dict(with_stored_arrays(nn.model_document(ae.model, "autoencoder")),
                        autoencoder={"epochs": 200, "batch_size": 16, "seed": 5, "trained": True})
        assert written(autoencoder_document(ae)) == json.dumps(expected, sort_keys=True)

    def test_nested_plain_values_and_empty_arrays(self):
        doc = {"b": [1, None, True, "s\u00e9", {"z": 1.5, "a": np.array([])}],
               "a": {"n": np.array([[1.0, -2.5], [3.0, 0.1]]), "m": 7}}
        plain = {"b": [1, None, True, "s\u00e9", {"z": 1.5, "a": ""}],
                 "a": {"n": stored([1.0, -2.5, 3.0, 0.1]), "m": 7}}
        assert written(doc) == json.dumps(plain, sort_keys=True)

    def test_no_float_list_or_document_string_is_built(self):
        class Sink:
            size = 0

            def write(self, text):
                self.size += len(text)

        model = build_multicred(4, seed=0)
        doc = nn.model_document(model, "classifier")
        out = Sink()
        tracemalloc.start()
        try:
            store.write_json(out, doc)
            _, peak = tracemalloc.get_traced_memory()
        finally:
            tracemalloc.stop()
        # One block's bytes and their base64 text: under 30 bytes per value.
        # The document string alone would take a byte per character written
        # (1 MB here), a float list of the parameters 32 bytes per value.
        assert peak < 128 * store.WRITE_BLOCK + 100_000
        assert 5 * peak < out.size


class TestSerialization:
    def test_roundtrip_preserves_forward(self):
        model = softmax_ce_net(seed=11)
        x = np.random.default_rng(12).normal(size=(5, 51))
        expected = nn.forward(model, x).outputs
        loaded = nn.model_from_dict(model_dict(model, artifact_kind="classifier"),
                                    model.spec, "classifier", "classifier file")
        np.testing.assert_array_equal(nn.forward(loaded, x).outputs, expected)

    @pytest.mark.parametrize("net", [
        lambda: build_multicred(4, seed=3),
        lambda: untrained_autoencoder_model(AutoencoderSpec(seed=5)),
    ], ids=["classifier", "autoencoder"])
    def test_loading_draws_no_normal_sample(self, net, monkeypatch):
        # Loading writes every weight, so a normal draw would be work thrown away.
        model = net()
        model.stats[...] = np.random.default_rng(6).random(model.stats.size)
        doc = model_dict(model, "any")

        class NoNormalDraws(np.random.Generator):
            def normal(self, *args, **kwargs):
                pytest.fail("model_from_dict drew a normal sample")

        monkeypatch.setattr(np.random, "default_rng",
                            lambda seed=None: NoNormalDraws(np.random.PCG64(seed)))
        loaded = nn.model_from_dict(doc, model.spec, "any", "model file")
        assert loaded.flat.tobytes() == model.flat.tobytes()
        assert loaded.stats.tobytes() == model.stats.tobytes()

    def test_version_mismatch_fails(self, tmp_path):
        model = softmax_ce_net()
        doc = model_dict(model, artifact_kind="classifier")
        doc["format_version"] = 99
        with pytest.raises(nn.StateError, match="version"):
            nn.model_from_dict(doc, model.spec, "classifier", "classifier file")

    def test_version_1_document_rejected_by_name(self):
        model = softmax_ce_net()
        doc = model_dict(model, artifact_kind="classifier")
        doc["format_version"] = 1
        with pytest.raises(nn.StateError, match="^classifier file has unsupported model "
                                                "format version 1, expected 2$"):
            nn.model_from_dict(doc, model.spec, "classifier", "classifier file")

    def test_kind_mismatch_fails(self):
        model = softmax_ce_net()
        doc = model_dict(model, artifact_kind="autoencoder")
        with pytest.raises(nn.StateError, match="classifier"):
            nn.model_from_dict(doc, model.spec, "classifier", "classifier file")

    @pytest.mark.parametrize("tamper, named", [
        (lambda d: d.pop("layers"), "no field layers"),
        (lambda d: d["layers"][0].pop("input_dim"), r"no field layers\[0\]\.input_dim"),
        (lambda d: d["parameters"].pop(), "parameters has 4 entries for 5 layers"),
        (lambda d: retouch(d["parameters"][3], "weight", lambda a: a[:-1]),
         r"parameters\[3\]\.weight has shape \(7,\), expected \(8,\)"),
        (lambda d: retouch(d["parameters"][0], "bias", lambda a: a.__setitem__(1, np.nan)),
         r"parameters\[0\]\.bias holds non-finite"),
        (lambda d: d["running_stats"].__setitem__(2, None),
         r"field running_stats\[2\] is null, expected a JSON object$"),
        (lambda d: retouch(d["running_stats"][2], "mean", lambda a: a[:1]),
         r"running_stats\[2\]\.mean has shape \(1,\)"),
        (lambda d: d["parameters"][0].update(bias=[0.0, 0.0, 0.0, 0.0]),
         r"parameters\[0\]\.bias is not a base64 string"),
        (lambda d: d["parameters"][0].pop("bias"), r"no field parameters\[0\]\.bias"),
        (lambda d: d["layers"][2].update(epsilon=-1000.0), r"layers\[2\]\.epsilon is -1000\.0"),
        (lambda d: d["layers"][2].update(epsilon=0), r"layers\[2\]\.epsilon is 0,"),
        (lambda d: d["layers"][2].update(epsilon=10**400), r"layers\[2\]\.epsilon"),
        (lambda d: d["layers"][2].update(momentum="a"),
         r'layers\[2\]\.momentum is "a", expected a finite number equal to 0\.99$'),
        (lambda d: d["layers"][2].update(momentum=True), r"layers\[2\]\.momentum is true,"),
        (lambda d: d["layers"][2].update(momentum=1.01), r"layers\[2\]\.momentum"),
        (lambda d: d["layers"][1].update(dropout_rate="x"), r"layers\[1\]\.dropout_rate"),
        (lambda d: d["layers"][1].update(dropout_rate=1.0), r"layers\[1\]\.dropout_rate"),
        (lambda d: d["layers"][1].update(dropout_rate=None), r"layers\[1\]\.dropout_rate"),
        (lambda d: d["layers"].append(d["layers"][1]), "field layers has 6 entries, expected 5$"),
        (lambda d: d["layers"].pop(), "field layers has 4 entries, expected 5$"),
        (lambda d: d["layers"][1].update(kind="x"),
         r'layers\[1\]\.kind is "x", expected a string equal to "relu"$'),
        (lambda d: d["layers"][3].update(output_dim=3),
         r"layers\[3\]\.output_dim is 3, expected an integer equal to 2$"),
        (lambda d: d["layers"][2].update(epsilon=0.5),
         r"layers\[2\]\.epsilon is 0\.5, expected a finite number equal to 0\.001$"),
        (lambda d: d["layers"][0].update(momentum=0.99),
         r"has the unexpected field layers\[0\]\.momentum$"),
        (lambda d: d["layers"].__setitem__(2, 3),
         r"field layers\[2\] is 3, expected a JSON object$"),
        (lambda d: d.pop("artifact_kind"), "artifact kind None where 'classifier' was expected$"),
        (lambda d: d["parameters"].__setitem__(1, 5),
         r"field parameters\[1\] is 5, expected a JSON object$"),
        (lambda d: d["parameters"][1].update(weight=stored([1.0])),
         r"has the unexpected field parameters\[1\]\.weight$"),
        (lambda d: d["parameters"][0].update(scale=stored([1.0])),
         r"has the unexpected field parameters\[0\]\.scale$"),
        (lambda d: d["running_stats"].__setitem__(0, "junk"),
         r'field running_stats\[0\] is "junk", expected null$'),
        (lambda d: d["running_stats"].__setitem__(1, {}),
         r"field running_stats\[1\] is \{\}, expected null$"),
        (lambda d: d["running_stats"].append(None),
         r"field running_stats has 6 entries for 5 layers$"),
        (lambda d: d["running_stats"].pop(), r"field running_stats has 4 entries for 5 layers$"),
        (lambda d: d.pop("running_stats"), r"has no field running_stats$"),
        (lambda d: d["running_stats"][2].update(count=stored([1.0])),
         r"has the unexpected field running_stats\[2\]\.count$"),
    ], ids=["no-layers", "no-input-dim", "truncated-parameters", "short-weight",
            "nan-bias", "running-stats-none", "one-element-mean", "listed-bias", "no-bias",
            "negative-epsilon",
            "zero-epsilon", "huge-int-epsilon", "string-momentum", "bool-momentum",
            "momentum-above-one", "string-dropout-rate", "dropout-rate-one",
            "null-dropout-rate", "extra-layer", "missing-layer", "other-kind",
            "other-width", "other-epsilon", "unexpected-key", "non-object-layer",
            "no-artifact-kind", "relu-parameters-number", "relu-parameters-array",
            "extra-parameter-array", "dense-running-stats-string", "relu-running-stats-object",
            "extra-running-stats-entry", "truncated-running-stats", "no-running-stats",
            "extra-running-stats-array"])
    def test_malformed_document_rejected_by_name(self, tamper, named):
        spec = nn.NetworkSpec((nn.dense(3, 4), nn.relu(4), nn.batchnorm(4),
                               nn.dense(4, 2), nn.softmax(2)))
        doc = model_dict(nn.Model(spec), "classifier")
        tamper(doc)
        with pytest.raises(nn.StateError, match=named) as caught:
            nn.model_from_dict(doc, spec, "classifier", "classifier file")
        assert str(caught.value).startswith("classifier file ")
