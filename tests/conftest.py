import base64
import io
import json

import numpy as np
import pytest

from multicred import network as nn
from multicred.autoencoder import AutoencoderSpec, _build_network, train_autoencoder
from multicred.dataset import write_dataset
from multicred.embedding import EmbedderSpec
from multicred.features import fill_latents, scan_dataset


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
    return nn.Model(_build_network(), rng=np.random.default_rng(spec.seed))


def reconstruction_mse(model: nn.Model, x: np.ndarray) -> float:
    """Mean over rows of the squared Euclidean reconstruction distance."""
    return nn.mean_squared_error(nn.forward(model.inference_mode(), x).outputs, x)


def model_dict(model: nn.Model, artifact_kind: str) -> dict:
    """A model's JSON document as read back from its file."""
    out = io.StringIO()
    nn.write_json(out, nn.model_document(model, artifact_kind))
    return json.loads(out.getvalue())


# The stored array format, written out here independently of the codec in
# network.py: a float array's little-endian float64 bytes, row-major, in base64.

def stored(values) -> str:
    """The string a state file stores for the float array ``values``."""
    return base64.b64encode(np.asarray(values, dtype=float).astype("<f8").tobytes()).decode()


def stored_values(text: str) -> np.ndarray:
    """A writable copy of the float64 values the stored string ``text`` holds."""
    return np.frombuffer(base64.b64decode(text), dtype="<f8").copy()


def retouch(container: dict, key: str, change) -> None:
    """Decode the array stored at ``container[key]``, pass it to ``change``,
    and store the result there again: ``change``'s return value, or the
    array itself if ``change`` returns None (having changed it in place)."""
    values = stored_values(container[key])
    changed = change(values)
    container[key] = stored(values if changed is None else changed)


def feature_rows(records, root, embedder, ae) -> np.ndarray:
    """The raw feature rows prepare and predict build for ``records``, in
    user-id order, written as a dataset under ``root`` first."""
    write_dataset(records, root)
    scan = scan_dataset(root)
    fill_latents(scan, embedder, ae)
    return scan.x
