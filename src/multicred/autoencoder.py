"""Compresses 768-dimensional text embeddings to a 10-dimensional latent code.

A symmetric dense autoencoder (768 -> 128 -> 10 -> 128 -> 768, ReLU on
the hidden layers, linear elsewhere) trained unsupervised to minimize
mean squared reconstruction error. After training only the encoder half
is used by the feature pipeline, through :meth:`Autoencoder.encode_batch`.

The layers are :func:`_build_network`'s and nothing else states them: an
:class:`Autoencoder` exists only once trained, and a stored one loads only
if its layers equal these (:func:`autoencoder_from_dict`).
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import partial
from pathlib import Path

import numpy as np

from .domain import DomainError, StateError
from . import network as nn
from . import store

INPUT_DIM = 768
HIDDEN_DIM = 128
LATENT_DIM = 10


@dataclass(frozen=True)
class AutoencoderSpec:
    """Training configuration; the widths are the constants above."""

    epochs: int = 200
    batch_size: int = 16
    seed: int = 0

    def __post_init__(self):
        for name, least in (("epochs", 1), ("batch_size", 1), ("seed", 0)):
            value = getattr(self, name)
            if value < least:
                raise DomainError(f"autoencoder {name} must be >= {least}, got {value}")


def _build_network() -> nn.NetworkSpec:
    return nn.NetworkSpec((
        nn.dense(INPUT_DIM, HIDDEN_DIM),
        nn.relu(HIDDEN_DIM),
        nn.dense(HIDDEN_DIM, LATENT_DIM),
        nn.dense(LATENT_DIM, HIDDEN_DIM),
        nn.relu(HIDDEN_DIM),
        nn.dense(HIDDEN_DIM, INPUT_DIM),
    ))


# Output of layers[ENCODER_END - 1] is the latent code.
_ENCODER_END = 3


@dataclass(frozen=True)
class Autoencoder:
    """A trained encoder/decoder pair and the spec it was trained with."""

    spec: AutoencoderSpec
    model: nn.Model

    def encode_batch(self, vectors: np.ndarray) -> np.ndarray:
        """Map an [n x 768] matrix to its [n x 10] latent codes.

        Runs the encoder layers only, with the arithmetic of
        :func:`network.forward`, so the codes equal its layer-2 outputs.
        """
        x = np.asarray(vectors, dtype=float)
        if x.ndim != 2 or x.shape[1] != INPUT_DIM:
            raise nn.ShapeError(f"expected [n x {INPUT_DIM}] input, got {x.shape}")
        for layer, params in zip(self.model.spec.layers[:_ENCODER_END], self.model.params):
            if layer.kind == "relu":
                x = np.maximum(x, 0.0)
            else:
                x = x @ params["weight"] + params["bias"]
        return x


def train_autoencoder(vectors: np.ndarray, spec: AutoencoderSpec
                      ) -> tuple[Autoencoder, list[float]]:
    """Fit an autoencoder to a corpus; returns it with the per-epoch losses.

    Deterministic for a fixed spec (seed included): one seeded generator
    initializes the network and drives every :func:`network.train_epoch`,
    which reconstructs the corpus as its own target.
    """
    x = np.asarray(vectors, dtype=float)
    if x.ndim != 2 or x.shape[1] != INPUT_DIM:
        raise nn.ShapeError(f"expected [n x {INPUT_DIM}] corpus, got {x.shape}")
    if x.shape[0] < 2:
        raise DomainError(f"need at least 2 training vectors, got {x.shape[0]}")
    if not np.all(np.isfinite(x)):
        raise nn.NumericError("training corpus contains non-finite values")

    rng = np.random.default_rng(spec.seed)
    model = nn.Model(_build_network(), rng=rng)
    state = nn.init_adam(model)
    history = [nn.train_epoch(model, x, x, state, epoch, spec.batch_size, rng)
               for epoch in range(spec.epochs)]
    return Autoencoder(spec, model.inference_mode()), history


def save_autoencoder(ae: Autoencoder, path: str | Path) -> None:
    with store.atomic_write(path) as fh:
        store.write_json(fh, autoencoder_document(ae))


def load_autoencoder(path: str | Path) -> Autoencoder:
    return autoencoder_from_dict(store.read_json(path, "autoencoder file", StateError),
                                 f"autoencoder file {path}")


def autoencoder_from_dict(doc: dict, what: str) -> Autoencoder:
    """The autoencoder :func:`autoencoder_document` stored in ``doc``, the
    parsed JSON of a file ``what`` names. Its network must have the layers
    of :func:`_build_network` (see :func:`network.model_from_dict`), and
    its ``autoencoder.trained`` must be true; a StateError beginning with
    ``what`` names a field that breaks this."""
    model = nn.model_from_dict(doc, _build_network(), "autoencoder", what)
    get = partial(store.field, doc, what=what, error=StateError)
    default = AutoencoderSpec()
    spec = AutoencoderSpec(
        epochs=get("autoencoder.epochs", int, default=default.epochs,
                   valid=lambda v: v >= 1, requirement=">= 1"),
        batch_size=get("autoencoder.batch_size", int, default=default.batch_size,
                       valid=lambda v: v >= 1, requirement=">= 1"),
        seed=get("autoencoder.seed", int, default=default.seed,
                 valid=lambda v: v >= 0, requirement=">= 0"),
    )
    get("autoencoder.trained", bool, default=True, valid=lambda trained: trained,
        requirement="equal to true")
    return Autoencoder(spec, model)


def autoencoder_document(ae: Autoencoder) -> dict:
    """The model document of ``ae`` (see :func:`network.model_document`) plus
    its spec under the key ``autoencoder``."""
    doc = nn.model_document(ae.model, artifact_kind="autoencoder")
    doc["autoencoder"] = {
        "epochs": ae.spec.epochs,
        "batch_size": ae.spec.batch_size,
        "seed": ae.spec.seed,
        "trained": True,
    }
    return doc
