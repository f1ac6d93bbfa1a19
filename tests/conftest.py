import numpy as np
import pytest

from multicred.autoencoder import AutoencoderSpec, train_autoencoder
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
