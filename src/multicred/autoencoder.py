"""Compresses 768-dimensional text embeddings to a 10-dimensional latent code.

A symmetric dense autoencoder (768 -> 128 -> 10 -> 128 -> 768, ReLU on
the hidden layers, linear elsewhere) trained unsupervised to minimize
mean squared reconstruction error. After training only the encoder half
is used by the feature pipeline, through :meth:`Autoencoder.encode_batch`.
"""

from __future__ import annotations

import json
from dataclasses import dataclass
from pathlib import Path
from typing import Optional

import numpy as np

from .atomic import atomic_write
from .domain import DomainError
from . import network as nn

INPUT_DIM = 768
LATENT_DIM = 10


@dataclass(frozen=True)
class AutoencoderSpec:
    """Architecture and training configuration.

    The latent width (10) and input width (768) are contract constants;
    only the hidden width and the training knobs vary.
    """

    input_dim: int = INPUT_DIM
    hidden_dim: int = 128
    latent_dim: int = LATENT_DIM
    epochs: int = 200
    batch_size: int = 16
    seed: int = 0

    def __post_init__(self):
        if self.input_dim != INPUT_DIM:
            raise DomainError(f"input_dim must be {INPUT_DIM}")
        if self.latent_dim != LATENT_DIM:
            raise DomainError(f"latent_dim must be {LATENT_DIM}")
        if self.hidden_dim < 1 or self.epochs < 1 or self.batch_size < 1:
            raise DomainError("hidden_dim, epochs, and batch_size must be positive")


def _build_network(spec: AutoencoderSpec) -> nn.NetworkSpec:
    return nn.NetworkSpec((
        nn.dense(spec.input_dim, spec.hidden_dim),
        nn.relu(spec.hidden_dim),
        nn.dense(spec.hidden_dim, spec.latent_dim),
        nn.dense(spec.latent_dim, spec.hidden_dim),
        nn.relu(spec.hidden_dim),
        nn.dense(spec.hidden_dim, spec.input_dim),
    ))


# Output of layers[ENCODER_END - 1] is the latent code.
_ENCODER_END = 3
_ENCODER_KINDS = ("dense", "relu", "dense")


class Autoencoder:
    """A (possibly trained) encoder/decoder pair."""

    def __init__(self, spec: AutoencoderSpec, model: nn.Model, trained: bool = False):
        self.spec = spec
        self.model = model
        self.trained = trained

    def encode_batch(self, vectors: np.ndarray) -> np.ndarray:
        """Map an [n x 768] matrix to its [n x 10] latent codes.

        Runs the encoder layers only, with the arithmetic of
        :func:`network.forward`, so the codes equal its layer-2 outputs.
        """
        if not self.trained:
            raise nn.StateError("autoencoder is untrained; train it before encoding")
        x = np.asarray(vectors, dtype=float)
        if x.ndim != 2 or x.shape[1] != self.spec.input_dim:
            raise nn.ShapeError(
                f"expected [n x {self.spec.input_dim}] input, got {x.shape}"
            )
        for layer, params in zip(self.model.spec.layers[:_ENCODER_END], self.model.params):
            if layer.kind == "relu":
                x = np.maximum(x, 0.0)
            else:
                x = x @ params["weight"] + params["bias"]
        return x


def train_autoencoder(
    vectors: np.ndarray, spec: Optional[AutoencoderSpec] = None
) -> tuple[Autoencoder, list[float]]:
    """Fit an autoencoder to a corpus; returns it with the per-epoch losses.

    Deterministic for a fixed spec (seed included): batches reshuffle
    each epoch from one seeded generator, Adam steps at the shared
    exponentially decaying rate.
    """
    spec = spec or AutoencoderSpec()
    x = np.asarray(vectors, dtype=float)
    if x.ndim != 2 or x.shape[1] != spec.input_dim:
        raise nn.ShapeError(f"expected [n x {spec.input_dim}] corpus, got {x.shape}")
    if x.shape[0] < 2:
        raise DomainError(f"need at least 2 training vectors, got {x.shape[0]}")
    if not np.all(np.isfinite(x)):
        raise nn.NumericError("training corpus contains non-finite values")

    rng = np.random.default_rng(spec.seed)
    ae = Autoencoder(spec, nn.Model(_build_network(spec), rng=rng))
    state = nn.init_adam(ae.model)
    n = x.shape[0]

    history: list[float] = []
    for epoch in range(spec.epochs):
        lr = nn.lr_at(epoch)
        order = rng.permutation(n)
        epoch_losses = []
        ae.model.train_mode()
        for start in range(0, n, spec.batch_size):
            batch = x[order[start:start + spec.batch_size]]
            activations = nn.forward(ae.model, batch, rng=rng)
            epoch_losses.append(nn.mean_squared_error(activations.outputs, batch).scalar)
            grads = nn.backward(ae.model, activations, batch)
            nn.adam_step(ae.model, grads, state, lr)
        history.append(float(np.mean(epoch_losses)))

    ae.trained = True
    ae.model.inference_mode()
    return ae, history


def save_autoencoder(ae: Autoencoder, path: str | Path) -> None:
    with atomic_write(path) as fh:
        nn.write_json(fh, autoencoder_document(ae))


def load_autoencoder(path: str | Path) -> Autoencoder:
    doc = json.loads(Path(path).read_text("utf-8"))
    return autoencoder_from_dict(doc)


def autoencoder_from_dict(doc: dict) -> Autoencoder:
    model = nn.model_from_dict(doc, expected_kind="autoencoder")
    layers = model.spec.layers
    if model.spec.input_dim != INPUT_DIM:
        raise nn.StateError(
            f"autoencoder input width is {model.spec.input_dim}, expected {INPUT_DIM}"
        )
    if tuple(layer.kind for layer in layers[:_ENCODER_END]) != _ENCODER_KINDS:
        raise nn.StateError(f"autoencoder encoder layers are not {', '.join(_ENCODER_KINDS)}")
    if layers[_ENCODER_END - 1].output_dim != LATENT_DIM:
        raise nn.StateError(f"autoencoder latent width is not {LATENT_DIM}")
    meta = doc.get("autoencoder", {})
    spec = AutoencoderSpec(
        hidden_dim=meta.get("hidden_dim", 128),
        epochs=meta.get("epochs", 200),
        batch_size=meta.get("batch_size", 16),
        seed=meta.get("seed", 0),
    )
    return Autoencoder(spec, model, trained=bool(meta.get("trained", True)))


def autoencoder_document(ae: Autoencoder) -> dict:
    """The model document of ``ae`` (see :func:`network.model_document`) plus
    its spec under the key ``autoencoder``."""
    doc = nn.model_document(ae.model, artifact_kind="autoencoder")
    doc["autoencoder"] = {
        "hidden_dim": ae.spec.hidden_dim,
        "epochs": ae.spec.epochs,
        "batch_size": ae.spec.batch_size,
        "seed": ae.spec.seed,
        "trained": ae.trained,
    }
    return doc
