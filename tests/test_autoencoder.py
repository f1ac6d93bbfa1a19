import numpy as np
import pytest

from multicred import network as nn
from multicred.autoencoder import (
    AutoencoderSpec,
    autoencoder_from_dict,
    load_autoencoder,
    save_autoencoder,
    train_autoencoder,
)
from multicred.domain import DomainError

from conftest import model_dict, reconstruction_mse, untrained_autoencoder_model


@pytest.fixture(scope="module")
def small_corpus():
    return np.random.default_rng(0).normal(size=(48, 768)) * 0.1


@pytest.fixture(scope="module")
def trained(small_corpus):
    return train_autoencoder(small_corpus, AutoencoderSpec(epochs=8, batch_size=16, seed=1))


class TestSpec:
    def test_training_knobs_validated(self):
        with pytest.raises(DomainError):
            AutoencoderSpec(epochs=0)

    @pytest.mark.parametrize("knobs, named", [
        ({"epochs": 0}, "autoencoder epochs must be >= 1, got 0"),
        ({"batch_size": -2}, "autoencoder batch_size must be >= 1, got -2"),
        ({"seed": -1}, "autoencoder seed must be >= 0, got -1"),
    ])
    def test_each_knob_named(self, knobs, named):
        with pytest.raises(DomainError, match=f"^{named}$"):
            AutoencoderSpec(**knobs)


class TestEncode:
    def test_latent_has_ten_components(self, trained):
        ae, _ = trained
        latent = ae.encode_batch(np.ones((3, 768)))
        assert latent.shape == (3, 10)

    def test_deterministic(self, trained):
        ae, _ = trained
        x = np.random.default_rng(2).normal(size=(2, 768))
        np.testing.assert_array_equal(ae.encode_batch(x), ae.encode_batch(x))

    def test_codes_equal_full_forward_latent_layer(self, trained, small_corpus):
        ae, _ = trained
        full = nn.forward(ae.model.inference_mode(), small_corpus)
        np.testing.assert_array_equal(ae.encode_batch(small_corpus), full.layer_outputs[2])

    def test_wrong_width_is_shape_error(self, trained):
        ae, _ = trained
        with pytest.raises(nn.ShapeError):
            ae.encode_batch(np.ones((1, 767)))

    def test_decode_restores_dimension(self, trained, small_corpus):
        ae, _ = trained
        assert nn.forward(ae.model, small_corpus[:3]).outputs.shape == (3, 768)


class TestTraining:
    def test_deterministic_history_and_parameters(self, small_corpus):
        spec = AutoencoderSpec(epochs=4, batch_size=16, seed=5)
        ae1, hist1 = train_autoencoder(small_corpus, spec)
        ae2, hist2 = train_autoencoder(small_corpus, spec)
        assert hist1 == hist2
        for p1, p2 in zip(ae1.model.params, ae2.model.params):
            for key in p1:
                np.testing.assert_array_equal(p1[key], p2[key])

    def test_nan_input_rejected_before_training(self):
        bad = np.zeros((4, 768))
        bad[1, 7] = np.nan
        with pytest.raises(nn.NumericError):
            train_autoencoder(bad, AutoencoderSpec(epochs=1))

    def test_diverging_corpus_named_by_epoch(self):
        corpus = np.full((8, 768), 1e200)
        with np.errstate(over="ignore"), pytest.raises(
                nn.NumericError, match="^non-finite training loss at epoch 0$"):
            train_autoencoder(corpus, AutoencoderSpec(epochs=2, batch_size=4))

    def test_needs_two_vectors(self):
        with pytest.raises(DomainError):
            train_autoencoder(np.zeros((1, 768)), AutoencoderSpec(epochs=1))

    def test_history_finite_with_nonincreasing_trend(self):
        corpus = np.random.default_rng(6).normal(size=(120, 768)) * 0.1
        _, history = train_autoencoder(corpus, AutoencoderSpec(epochs=60, batch_size=16, seed=7))
        history = np.asarray(history)
        assert np.all(np.isfinite(history))
        window = 20
        moving = np.convolve(history, np.ones(window) / window, mode="valid")
        # Non-increasing up to blips: no step may rise by more than 5%.
        assert np.all(np.diff(moving) <= 0.05 * moving[:-1])

    def test_training_reduces_error(self, small_corpus, trained):
        ae, _ = trained
        untrained = untrained_autoencoder_model(AutoencoderSpec(seed=1))
        assert reconstruction_mse(ae.model, small_corpus) < reconstruction_mse(
            untrained, small_corpus
        )

    def test_zero_corpus_converges_to_zero(self):
        zeros = np.zeros((32, 768))
        ae, _ = train_autoencoder(zeros, AutoencoderSpec(epochs=200, batch_size=16, seed=3))
        assert reconstruction_mse(ae.model, zeros) < 1e-6


class TestReconstructionError:
    def test_nonnegative(self, trained, small_corpus):
        ae, _ = trained
        assert reconstruction_mse(ae.model, small_corpus) >= 0.0

    def test_shape_mismatch(self, trained):
        ae, _ = trained
        with pytest.raises(nn.ShapeError):
            nn.forward(ae.model, np.zeros((3, 100)))


class TestSerialization:
    def test_roundtrip(self, trained, small_corpus, tmp_path):
        ae, _ = trained
        path = tmp_path / "ae.json"
        save_autoencoder(ae, path)
        loaded = load_autoencoder(path)
        assert loaded.spec == ae.spec
        np.testing.assert_array_equal(
            loaded.encode_batch(small_corpus[:4]), ae.encode_batch(small_corpus[:4])
        )

    def test_non_encoder_layers_rejected(self, trained):
        net = nn.NetworkSpec((
            nn.dense(768, 128), nn.batchnorm(128), nn.dense(128, 10),
            nn.dense(10, 128), nn.relu(128), nn.dense(128, 768),
        ))
        doc = model_dict(nn.Model(net), artifact_kind="autoencoder")
        named = r'layers\[1\]\.kind is "batchnorm", expected a string equal to "relu"$'
        with pytest.raises(nn.StateError, match="^autoencoder file x field " + named):
            autoencoder_from_dict(doc, "autoencoder file x")

    def test_other_decoder_rejected(self):
        net = nn.NetworkSpec((
            nn.dense(768, 128), nn.relu(128), nn.dense(128, 10),
            nn.dense(10, 3), nn.relu(3), nn.dense(3, 768),
        ))
        doc = model_dict(nn.Model(net), artifact_kind="autoencoder")
        named = r"layers\[3\]\.output_dim is 3, expected an integer equal to 128$"
        with pytest.raises(nn.StateError, match="^autoencoder file x field " + named):
            autoencoder_from_dict(doc, "autoencoder file x")

    @pytest.mark.parametrize("flag, named", [
        (False, "autoencoder.trained is false, expected true or false equal to true$"),
        (1, "autoencoder.trained is 1,"),
    ], ids=["false", "one"])
    def test_trained_must_be_true(self, trained, flag, named):
        ae, _ = trained
        doc = model_dict(ae.model, artifact_kind="autoencoder")
        doc["autoencoder"] = {"trained": flag}
        with pytest.raises(nn.StateError, match=f"^autoencoder file x field {named}"):
            autoencoder_from_dict(doc, "autoencoder file x")

    def test_kind_tag_prevents_cross_loading(self, trained):
        ae, _ = trained
        doc = model_dict(ae.model, artifact_kind="classifier")
        with pytest.raises(nn.StateError):
            autoencoder_from_dict(doc, "autoencoder file x")
