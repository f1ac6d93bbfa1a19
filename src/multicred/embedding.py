"""Pluggable text-embedding and comment-sentiment stages.

The default embedder is a deterministic signed feature hasher producing
the same 768-dimensional interface a transformer encoder would, with no
model weights involved: every unigram and bigram is hashed into one of
768 buckets with a hash-derived sign, accumulated, then L2-normalized.
A remote HTTP embedder can be plugged in instead to supply real
transformer vectors.

Sentiment over comments is a six-emotion lexicon counter with add-one
smoothing, producing a probability distribution over
(sadness, joy, love, anger, fear, surprise).
"""

from __future__ import annotations

import hashlib
import json
import time
from dataclasses import dataclass
from functools import lru_cache
from importlib import resources
from typing import Optional, Sequence

import numpy as np
import requests

from .preprocess import CleanText

EMBEDDING_DIM = 768
EMOTIONS = ("sadness", "joy", "love", "anger", "fear", "surprise")

# One initial attempt plus up to three retries of transient failures.
_REMOTE_ATTEMPTS = 4
_BACKOFF_BASE_SECONDS = 0.1


class EmbeddingError(Exception):
    """Base class for embedding failures."""


class TransportError(EmbeddingError):
    """The remote endpoint stayed unreachable after all retries."""


class ProtocolError(EmbeddingError):
    """The remote endpoint answered, but not with the agreed format."""


@dataclass(frozen=True)
class EmbedderSpec:
    """Selects and configures an embedder.

    ``endpoint`` must be present exactly when ``kind`` is "remote".
    """

    kind: str = "hash"
    endpoint: Optional[str] = None
    hash_seed: int = 0

    def __post_init__(self):
        if self.kind not in ("hash", "remote"):
            raise ValueError(f"unknown embedder kind: {self.kind!r}")
        if (self.kind == "remote") != (self.endpoint is not None):
            raise ValueError("endpoint must be set iff kind is 'remote'")
        if self.hash_seed < 0:
            raise ValueError("hash_seed must be unsigned")


def _hash_features(tokens: Sequence[str]) -> list[str]:
    # Unigrams and adjacent bigrams, namespaced so they can never collide.
    feats = ["1|" + t for t in tokens]
    feats.extend("2|" + a + " " + b for a, b in zip(tokens, tokens[1:]))
    return feats


def _bucket_sign(feature: str, seed: int) -> tuple[int, float]:
    key = seed.to_bytes(8, "little", signed=False)
    digest = hashlib.blake2b(feature.encode("utf-8"), digest_size=8, key=key).digest()
    h = int.from_bytes(digest, "little")
    return h % EMBEDDING_DIM, 1.0 if (h >> 63) & 1 == 0 else -1.0


def accumulate_hash_embedding(clean: CleanText, hash_seed: int = 0) -> np.ndarray:
    """Unnormalized signed-hash accumulation of one text's features.

    Additive by construction: accumulating several texts separately and
    summing equals accumulating them together.
    """
    vec = np.zeros(EMBEDDING_DIM)
    for feature in _hash_features(clean.tokens):
        bucket, sign = _bucket_sign(feature, hash_seed)
        vec[bucket] += sign
    return vec


def _l2_normalize(vec: np.ndarray) -> np.ndarray:
    norm = float(np.linalg.norm(vec))
    return vec / norm if norm > 0.0 else vec


def embed_text(spec: EmbedderSpec, clean: CleanText) -> np.ndarray:
    """Embed one cleaned text into a 768-vector.

    Hash kind: deterministic for a fixed seed; the zero vector stays zero
    (empty text). Remote kind: delegates to :func:`remote_embed_batch`.
    """
    if spec.kind == "remote":
        return remote_embed_batch(spec.endpoint, [clean.joined])[0]
    return _l2_normalize(accumulate_hash_embedding(clean, spec.hash_seed))


@lru_cache(maxsize=None)
def default_lexicon() -> dict[str, frozenset[str]]:
    """The shipped emotion→words lexicon."""
    raw = resources.files("multicred.data").joinpath("emotion_lexicon.json").read_text("utf-8")
    return _as_lexicon(json.loads(raw))


def _as_lexicon(data: dict) -> dict[str, frozenset[str]]:
    missing = [e for e in EMOTIONS if e not in data]
    if missing:
        raise ValueError(f"lexicon missing emotions: {missing}")
    return {e: frozenset(w.lower() for w in data[e]) for e in EMOTIONS}


def analyze_sentiment(clean: CleanText) -> np.ndarray:
    """Score one cleaned text against the six emotions of the shipped lexicon.

    Counts lexicon hits per emotion, applies add-one smoothing, and
    normalizes; an empty text therefore yields the uniform distribution.
    """
    lexicon = default_lexicon()
    counts = np.array(
        [sum(1 for t in clean.tokens if t in lexicon[e]) for e in EMOTIONS], dtype=float
    )
    counts += 1.0
    return counts / counts.sum()


def remote_embed_batch(endpoint: str, texts: Sequence[str]) -> list[np.ndarray]:
    """Fetch 768-vectors for a batch of texts from an HTTP embedding service.

    POSTs ``{"texts": [...]}`` and expects ``{"vectors": [[...], ...]}``,
    order-preserving. Connection failures and 5xx responses are retried
    up to 3 times with exponential backoff; an empty batch sends nothing.
    """
    if not texts:
        return []

    payload = {"texts": list(texts)}
    last_failure = None
    for attempt in range(_REMOTE_ATTEMPTS):
        try:
            response = requests.post(endpoint, json=payload, timeout=30)
        except requests.RequestException as exc:
            last_failure = str(exc)
        else:
            if response.status_code == 200:
                return _parse_vectors(response, len(texts))
            if response.status_code < 500:
                raise ProtocolError(
                    f"embedding endpoint returned HTTP {response.status_code}"
                )
            last_failure = f"HTTP {response.status_code}"
        if attempt < _REMOTE_ATTEMPTS - 1:
            time.sleep(_BACKOFF_BASE_SECONDS * 2**attempt)
    raise TransportError(
        f"embedding endpoint unreachable after {_REMOTE_ATTEMPTS} attempts: {last_failure}"
    )


def _parse_vectors(response, expected: int) -> list[np.ndarray]:
    try:
        body = response.json()
    except ValueError as exc:
        raise ProtocolError(f"embedding response is not JSON: {exc}") from None
    vectors = body.get("vectors")
    if not isinstance(vectors, list) or len(vectors) != expected:
        raise ProtocolError(
            f"expected {expected} vectors, got "
            f"{len(vectors) if isinstance(vectors, list) else type(vectors).__name__}"
        )
    out = []
    for i, values in enumerate(vectors):
        arr = np.asarray(values, dtype=float)
        if arr.shape != (EMBEDDING_DIM,):
            raise ProtocolError(
                f"vector at index {i} has {arr.shape[0] if arr.ndim == 1 else 'bad'} "
                f"components, expected {EMBEDDING_DIM}"
            )
        if not np.all(np.isfinite(arr)):
            raise ProtocolError(f"vector at index {i} contains non-finite values")
        out.append(arr)
    return out
