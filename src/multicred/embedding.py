"""Text-embedding and comment-sentiment stages.

Tweet text is embedded by a deterministic signed feature hasher that
stands in for the paper's transformer encoder behind the same
768-dimensional interface, with no model weights involved: every unigram
and bigram is hashed into one of 768 buckets with a hash-derived sign,
accumulated, then L2-normalized (Weinberger et al. 2009).

:func:`embed_texts` embeds a batch of texts (one user's tweets, or the
autoencoder corpus) into one matrix: each distinct feature of the batch
is hashed once with a keyed 64-bit blake2b, and the signed counts of all
rows are summed by one ``np.bincount``. The sums are over +-1.0, so they
are exact in any order, and a row does not depend on the rest of its
batch.

Sentiment over a user's comments is a six-emotion lexicon counter with
add-one smoothing: each comment gets a probability distribution over
(sadness, joy, love, anger, fear, surprise), and :func:`analyze_sentiment`
averages them over the user's comments, all in one [n x 6] matrix.
"""

from __future__ import annotations

import hashlib
from dataclasses import dataclass
from functools import lru_cache, partial
from importlib import resources
from typing import Sequence

import numpy as np

from .domain import StateError
from .preprocess import CleanText
from .store import field, read_json

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


def _hash_counts(cleans: Sequence[CleanText], seed: int) -> np.ndarray:
    """Signed bucket counts of each text's features: one 768-wide row per text."""
    per_text = [_hash_features(clean.tokens) for clean in cleans]
    features = [f for feats in per_text for f in feats]
    if not features:
        return np.zeros((len(per_text), EMBEDDING_DIM))
    # Hash each distinct feature of the batch once, in C: keyed 64-bit blake2b,
    # bucket = code mod 768, sign from bit 63.
    distinct = dict.fromkeys(features)
    hasher = partial(hashlib.blake2b, digest_size=8, key=seed.to_bytes(8, "little"))
    digests = b"".join(map(hashlib.blake2b.digest, map(hasher, map(str.encode, distinct))))
    codes = np.frombuffer(digests, "<u8")
    bucket = (codes % EMBEDDING_DIM).astype(np.intp)
    sign = np.where(codes >> np.uint64(63), -1.0, 1.0)

    index = dict(zip(distinct, range(len(distinct))))
    which = np.fromiter(map(index.__getitem__, features), np.intp, len(features))
    row = np.repeat(np.arange(len(per_text)), [len(feats) for feats in per_text])
    counts = np.bincount(row * EMBEDDING_DIM + bucket[which], weights=sign[which],
                         minlength=len(per_text) * EMBEDDING_DIM)
    return counts.reshape(len(per_text), EMBEDDING_DIM)


def embed_texts(spec: EmbedderSpec, cleans: Sequence[CleanText]) -> np.ndarray:
    """Embed cleaned texts into an [n x 768] matrix of L2-normalized rows.

    Deterministic for a fixed seed; a row depends on its own text only,
    and the zero row stays zero (empty text).
    """
    rows = _hash_counts(cleans, spec.hash_seed)
    norms = np.sqrt(np.einsum("ij,ij->i", rows, rows))[:, None]
    return np.divide(rows, norms, out=rows, where=norms > 0.0)


@lru_cache(maxsize=None)
def default_lexicon() -> dict[str, frozenset[str]]:
    """The shipped emotion→words lexicon."""
    path = resources.files("multicred.data").joinpath("emotion_lexicon.json")
    data = read_json(path, "emotion lexicon", StateError)
    return {e: frozenset(w.lower() for w in field(data, e, list, "emotion lexicon", StateError))
            for e in EMOTIONS}


@lru_cache(maxsize=None)
def _emotions_of() -> dict[str, tuple[int, ...]]:
    """Each lexicon word's emotions, as indices into :data:`EMOTIONS`."""
    lexicon = default_lexicon()
    words = set().union(*lexicon.values())
    return {w: tuple(e for e, name in enumerate(EMOTIONS) if w in lexicon[name])
            for w in words}


def analyze_sentiment(cleans: Sequence[CleanText]) -> np.ndarray:
    """The mean emotion distribution of a user's cleaned comments, scored
    against the six emotions of the shipped lexicon.

    The comments' lexicon hits are counted into one [n x 6] matrix; each
    row gets add-one smoothing and is divided by its sum, and the rows are
    averaged. An empty comment therefore counts as the uniform
    distribution; ``cleans`` must hold at least one comment.
    """
    emotions_of = _emotions_of()
    width = len(EMOTIONS)
    cells = [row * width + e for row, clean in enumerate(cleans)
             for t in clean.tokens for e in emotions_of.get(t, ())]
    counts = np.bincount(np.array(cells, dtype=np.intp), minlength=len(cleans) * width)
    counts = counts.reshape(len(cleans), width) + 1.0
    return (counts / counts.sum(axis=1, keepdims=True)).mean(axis=0)
