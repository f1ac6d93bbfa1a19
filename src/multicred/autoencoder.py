"""Compresses 768-dimensional text embeddings to a 10-dimensional latent code.

A symmetric dense autoencoder (768 -> 128 -> 10 -> 128 -> 768, ReLU on
the hidden layers, linear elsewhere) trained unsupervised to minimize
mean squared reconstruction error. After training only the encoder half
is used by the feature pipeline, through :meth:`Autoencoder.encode_batch`.

The layers are :func:`_build_network`'s and nothing else states them: an
:class:`Autoencoder` exists only once trained, and a stored one loads only
if its layers equal these (:func:`autoencoder_from_dict`).

The training corpus is a :class:`SparseCorpus`: hash embeddings have a few
non-zero buckets per row (16 of 768 on the standard config), so it keeps
those only and hands each training batch out as dense rows.
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import partial
from pathlib import Path
from typing import Iterable

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
        An overflow gives non-finite codes without a numpy warning; the
        caller checks them (:func:`features.fill_latents` names the user).
        """
        x = np.asarray(vectors, dtype=float)
        if x.ndim != 2 or x.shape[1] != INPUT_DIM:
            raise nn.ShapeError(f"expected [n x {INPUT_DIM}] input, got {x.shape}")
        with np.errstate(over="ignore", invalid="ignore"):
            for layer, params in zip(self.model.spec.layers[:_ENCODER_END], self.model.params):
                if layer.kind == "relu":
                    x = np.maximum(x, 0.0)
                else:
                    x = x @ params["weight"] + params["bias"]
        return x


@dataclass(frozen=True)
class SparseCorpus:
    """Float rows held as compressed sparse rows (CSR): row ``i``'s non-zero
    values are ``values[indptr[i]:indptr[i + 1]]``, at the column numbers
    ``indices`` holds in the same slots.

    Column numbers are ``int16``, so a row of ``width`` <= 2**15 costs 10 B
    per non-zero (8 B value, 2 B column) against 8 B per column dense.
    Indexing with an array of row numbers, as :func:`network.train_epoch`
    takes its batches, returns those rows dense and in that order, with the
    values the dense matrix holds (a -0.0 reads back as 0.0;
    :func:`embedding.embed_texts` gives none).
    """

    width: int
    indptr: np.ndarray   # int64 [n + 1]
    indices: np.ndarray  # int16 [nnz]
    values: np.ndarray   # float64 [nnz]

    @classmethod
    def from_chunks(cls, chunks: Iterable[np.ndarray]) -> "SparseCorpus":
        """The corpus whose rows are those of the dense 2-D ``chunks``, in
        order. Only one chunk needs to be dense at a time; chunks of another
        width than the first, or wider than 2**15, raise a ShapeError."""
        width = None
        counts = [np.zeros(1, dtype=np.int64)]
        indices, values = [np.zeros(0, dtype=np.int16)], [np.zeros(0)]
        for chunk in chunks:
            chunk = np.asarray(chunk, dtype=float)
            if chunk.ndim == 2 and width is None:
                width = chunk.shape[1]
            if chunk.ndim != 2 or chunk.shape[1] != width or width > 2**15:
                raise nn.ShapeError(f"corpus chunk of shape {chunk.shape}, expected "
                                    f"2-D rows of one width <= 2**15")
            rows, cols = np.nonzero(chunk)
            counts.append(np.bincount(rows, minlength=chunk.shape[0]))
            indices.append(cols.astype(np.int16))
            values.append(chunk[rows, cols])
            # Unbound before the next chunk is made, so one dense chunk is held at a time.
            del chunk
        return cls(width or 0, np.cumsum(np.concatenate(counts)), np.concatenate(indices),
                   np.concatenate(values))

    @property
    def shape(self) -> tuple[int, int]:
        return self.indptr.size - 1, self.width

    def __getitem__(self, rows: np.ndarray) -> np.ndarray:
        """The [len(rows) x width] dense matrix of the rows numbered ``rows``."""
        rows = np.asarray(rows, dtype=np.intp)
        starts = self.indptr[rows]
        counts = self.indptr[rows + 1] - starts
        # Stored slot of each batch entry: its batch position, shifted to its row's start.
        slots = np.arange(counts.sum()) + np.repeat(starts - np.cumsum(counts) + counts, counts)
        out = np.zeros((rows.size, self.width))
        out[np.repeat(np.arange(rows.size), counts), self.indices[slots]] = self.values[slots]
        return out


def train_autoencoder(corpus: SparseCorpus, spec: AutoencoderSpec
                      ) -> tuple[Autoencoder, list[float]]:
    """Fit an autoencoder to a corpus of 768-wide rows; returns it with the
    per-epoch losses.

    The corpus needs at least 2 rows, all finite. Deterministic for a fixed
    spec (seed included): one seeded generator initializes the network and
    drives every :func:`network.train_epoch`, which reconstructs the corpus
    as its own target. Each batch is gathered dense from the corpus with
    the values a dense corpus holds, so the network trains to the same bits.
    """
    if corpus.shape[1] != INPUT_DIM:
        raise nn.ShapeError(f"expected [n x {INPUT_DIM}] corpus, got {corpus.shape}")
    if corpus.shape[0] < 2:
        raise DomainError(f"need at least 2 training vectors, got {corpus.shape[0]}")
    if not np.all(np.isfinite(corpus.values)):
        raise nn.NumericError("training corpus contains non-finite values")

    rng = np.random.default_rng(spec.seed)
    model = nn.Model(_build_network(), rng=rng)
    state = nn.init_adam(model)
    history = [nn.train_epoch(model, corpus, corpus, state, epoch, spec.batch_size, rng)
               for epoch in range(spec.epochs)]
    return Autoencoder(spec, model), history


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
    its ``autoencoder`` entry must hold ``epochs``, ``batch_size``, ``seed``
    and a ``trained`` that is true; a StateError beginning with ``what``
    names a field that breaks this."""
    model = nn.model_from_dict(doc, _build_network(), "autoencoder", what)
    get = partial(store.field, doc, what=what, error=StateError)
    spec = AutoencoderSpec(
        epochs=get("autoencoder.epochs", int, valid=lambda v: v >= 1, requirement=">= 1"),
        batch_size=get("autoencoder.batch_size", int, valid=lambda v: v >= 1,
                       requirement=">= 1"),
        seed=get("autoencoder.seed", int, valid=lambda v: v >= 0, requirement=">= 0"),
    )
    get("autoencoder.trained", bool, valid=lambda trained: trained, requirement="equal to true")
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
