import numpy as np
import pytest

from multicred import network as nn
from multicred.autoencoder import AutoencoderSpec, _build_network, train_autoencoder
from multicred.embedding import EmbedderSpec


@pytest.fixture(scope="session")
def hash_embedder():
    return EmbedderSpec(hash_seed=0)


@pytest.fixture(scope="session")
def tiny_autoencoder():
    """A quickly trained autoencoder for feature-pipeline tests."""
    corpus = np.random.default_rng(0).normal(size=(8, 768)) * 0.1
    ae, _ = train_autoencoder(corpus, AutoencoderSpec(epochs=2, batch_size=4, seed=0))
    return ae


def untrained_autoencoder_model(spec: AutoencoderSpec) -> nn.Model:
    """The network ``train_autoencoder(corpus, spec)`` starts from."""
    return nn.Model(_build_network(spec), rng=np.random.default_rng(spec.seed))


def reconstruction_mse(model: nn.Model, x: np.ndarray) -> float:
    """Mean over rows of the squared Euclidean reconstruction distance."""
    return nn.mean_squared_error(nn.forward(model.inference_mode(), x).outputs, x).scalar
