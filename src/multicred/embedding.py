"""Text-embedding and comment-sentiment stages.

Tweet text is embedded by a deterministic signed feature hasher that
stands in for the paper's transformer encoder behind the same
768-dimensional interface, with no model weights involved: every unigram
and bigram is hashed into one of 768 buckets with a hash-derived sign,
accumulated, then L2-normalized.

Sentiment over comments is a six-emotion lexicon counter with add-one
smoothing, producing a probability distribution over
(sadness, joy, love, anger, fear, surprise).
"""

from __future__ import annotations

import hashlib
import json
from dataclasses import dataclass
from functools import lru_cache
from importlib import resources
from typing import Sequence

import numpy as np

from .preprocess import CleanText

EMBEDDING_DIM = 768
EMOTIONS = ("sadness", "joy", "love", "anger", "fear", "surprise")


@dataclass(frozen=True)
class EmbedderSpec:
    """Configures the hash embedder.

    ``hash_seed`` keys the feature hash; it comes from the command line or
    a model bundle, so it is checked to be an unsigned 64-bit integer.
    """

    hash_seed: int = 0

    def __post_init__(self):
        if (not isinstance(self.hash_seed, int) or isinstance(self.hash_seed, bool)
                or not 0 <= self.hash_seed < 2**64):
            raise ValueError(f"hash_seed must be an unsigned 64-bit integer, "
                             f"got {self.hash_seed!r}")


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

    Deterministic for a fixed seed; the zero vector stays zero (empty text).
    """
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

