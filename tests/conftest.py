import base64
import io
import json
import os

import numpy as np
import pytest

from multicred import network as nn
from multicred import features, store
from multicred.autoencoder import AutoencoderSpec, SparseCorpus, _build_network, train_autoencoder
from multicred.dataset import write_dataset
from multicred.domain import DomainError
from multicred.embedding import EMOTIONS, EmbedderSpec, default_lexicon
from multicred.features import fill_latents, scan_dataset


def use_cpus(monkeypatch, count: int) -> None:
    """Make ``count`` CPUs usable, as the feature passes see them, and let
    a pass of any size use them all."""
    monkeypatch.setattr(os, "sched_getaffinity", lambda pid: set(range(count)))
    monkeypatch.setattr(features, "MIN_USERS_PER_WORKER", 1)
    monkeypatch.setattr(features, "MIN_TWEETS_PER_WORKER", 1)


@pytest.fixture
def one_cpu(monkeypatch):
    """The feature passes run in this process, where a spy sees every call."""
    use_cpus(monkeypatch, 1)


@pytest.fixture(scope="session")
def hash_embedder():
    return EmbedderSpec(hash_seed=0)


@pytest.fixture(scope="session")
def tiny_autoencoder():
    """A quickly trained autoencoder for feature-pipeline tests."""
    corpus = np.random.default_rng(0).normal(size=(8, 768)) * 0.1
    ae, _ = train_autoencoder(SparseCorpus.from_chunks([corpus]),
                              AutoencoderSpec(epochs=2, batch_size=4, seed=0))
    return ae


def untrained_autoencoder_model(spec: AutoencoderSpec) -> nn.Model:
    """The network ``train_autoencoder(corpus, spec)`` starts from."""
    return nn.Model(_build_network(), rng=np.random.default_rng(spec.seed))


def reconstruction_mse(model: nn.Model, x: np.ndarray) -> float:
    """Mean over rows of the squared Euclidean reconstruction distance."""
    return nn.mean_squared_error(nn.forward(model, x).outputs, x)


def model_dict(model: nn.Model, artifact_kind: str) -> dict:
    """A model's JSON document as read back from its file."""
    out = io.StringIO()
    store.write_json(out, nn.model_document(model, artifact_kind))
    return json.loads(out.getvalue())


def count_params(spec: nn.NetworkSpec) -> tuple[int, int]:
    """Total and trainable parameter counts for a layer graph.

    Dense: in*out weights plus out biases, all trainable. Batchnorm:
    scale and shift are trainable, the running mean/variance pair is not.
    """
    total = trainable = 0
    for layer in spec.layers:
        if layer.kind == "dense":
            n = layer.input_dim * layer.output_dim + layer.output_dim
            total += n
            trainable += n
        elif layer.kind == "batchnorm":
            total += 4 * layer.output_dim
            trainable += 2 * layer.output_dim
    return total, trainable


def grad_check(model: nn.Model, batch: tuple[np.ndarray, np.ndarray], eps: float = 1e-5) -> float:
    """Max relative error between analytic and central-difference gradients.

    A verification oracle for small networks: perturbs every parameter by
    +/- eps and compares (L(t+eps)-L(t-eps))/(2 eps) against backward's
    output, every loss from a training pass. The model must have no
    dropout layer, whose masks would differ between passes, and eps must
    lie in [1e-6, 1e-4].
    """
    if not 1e-6 <= eps <= 1e-4:
        raise DomainError(f"eps must lie in [1e-6, 1e-4], got {eps}")
    total, _ = count_params(model.spec)
    if total > 10_000:
        raise DomainError(f"model too large for finite differences: {total} parameters")
    if any(layer.kind == "dropout" for layer in model.spec.layers):
        raise DomainError("cannot gradient-check through a dropout layer")

    inputs, targets = batch
    rng = np.random.default_rng(0)  # draws nothing without dropout
    saved = model.snapshot()
    try:
        # Only backward writes model.grad, so the forwards below leave it be.
        analytic = nn.backward(model, nn.forward(model, inputs, rng), targets)

        def loss_now() -> float:
            return nn.loss(model, nn.forward(model, inputs, rng).outputs, targets)

        worst = 0.0
        flat = model.flat
        for j in range(flat.size):
            orig = flat[j]
            flat[j] = orig + eps
            plus = loss_now()
            flat[j] = orig - eps
            minus = loss_now()
            flat[j] = orig
            numeric = (plus - minus) / (2.0 * eps)
            a = float(analytic[j])
            worst = max(worst, abs(a - numeric) / max(abs(a), abs(numeric), 1e-8))
        return worst
    finally:
        model.restore(saved)


# The stored array format, written out here independently of the codec in
# store.py: a float array's little-endian float64 bytes, row-major, in base64.

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


def comment_emotions(clean) -> np.ndarray:
    """One cleaned comment's emotion distribution, counted token by token
    and emotion by emotion: the reference whose mean over a user's comments
    is the user's sentiment block."""
    lexicon = default_lexicon()
    counts = np.array([sum(1 for t in clean.tokens if t in lexicon[e]) for e in EMOTIONS],
                      dtype=float)
    counts += 1.0
    return counts / counts.sum()
