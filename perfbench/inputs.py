"""Deterministic input writers for the three benchmark workloads.

Every writer takes the workload seed and writes dataset directories in
the layout ``multicred`` reads; the program itself never sees the seed.
The same seed always yields byte-identical directories.
"""

from __future__ import annotations

import json
from dataclasses import replace
from datetime import timedelta
from pathlib import Path

import numpy as np

from multicred import (
    ClassificationSystem,
    SyntheticConfig,
    bin_score,
    generate_synthetic,
    preprocess,
    write_dataset,
)

CLASSES = 4
SYSTEM = ClassificationSystem(CLASSES)

# standard: the paper configuration the ROADMAP baseline was taken on.
STANDARD_USERS = 400
STANDARD_TWEETS = 30
STANDARD_COMMENTS = 20

# bulk-score: a small labeled set the scoring bundle is trained on, and a
# tweet-heavy unlabeled set it scores.
BUNDLE_USERS = 320
BUNDLE_TWEETS = 16
BUNDLE_COMMENTS = 8
BULK_USERS = 120
BULK_TWEETS = 120
BULK_COMMENTS = 5
# Assumed, not measured from real tweets: a Zipf-shaped word distribution
# with this exponent over this many words, at 8-24 words per text. The
# distinct-feature ratio they give is printed by every run (see
# hash_feature_stats).
ZIPF_VOCABULARY = 50_000
ZIPF_EXPONENT = 1.1
ZIPF_WORDS = (8, 24)

# skewed-prepare: many users per class, few tweets each, skewed class mix.
SKEW_KEEP = {0: 1320, 1: 600, 2: 288, 3: 192}  # 55 / 25 / 12 / 8 % of 2,400
SKEW_TWEETS = 5
SKEW_SCORE_STRIDE = 10  # every 10th user also goes into the unlabeled scoring set


def write_standard(seed: int, data_dir: Path) -> dict:
    records = generate_synthetic(SyntheticConfig(
        num_users=STANDARD_USERS, system=SYSTEM, tweets_per_user=STANDARD_TWEETS,
        comments_per_user=STANDARD_COMMENTS, seed=seed,
    ))
    write_dataset(records, data_dir)
    return {"users": len(records), "tweets": sum(len(r.tweets) for r in records)}


def _zipf_texts(rng: np.random.Generator, count: int) -> list[str]:
    # Word rank r is drawn with probability ~ r**-s: a few words repeat
    # heavily and most hash features are rare.
    ranks = np.arange(1, ZIPF_VOCABULARY + 1, dtype=float)
    probs = ranks ** -ZIPF_EXPONENT
    probs /= probs.sum()
    lengths = rng.integers(ZIPF_WORDS[0], ZIPF_WORDS[1] + 1, size=count)
    words = rng.choice(ZIPF_VOCABULARY, size=int(lengths.sum()), p=probs)
    texts, start = [], 0
    for n in lengths:
        texts.append(" ".join(f"w{w:x}" for w in words[start:start + n]))
        start += n
    return texts


def write_bulk(seed: int, bundle_dir: Path, score_dir: Path) -> dict:
    """Labeled bundle-training set, plus the tweet-heavy unlabeled scoring set.

    The scoring set starts from generated users with one tweet each; each
    user then gets ``BULK_TWEETS`` tweets that keep the generated tweet's
    scalar fields and carry fresh Zipf-drawn texts.
    """
    bundle = generate_synthetic(SyntheticConfig(
        num_users=BUNDLE_USERS, system=SYSTEM, tweets_per_user=BUNDLE_TWEETS,
        comments_per_user=BUNDLE_COMMENTS, seed=seed,
    ))
    write_dataset(bundle, bundle_dir)

    base = generate_synthetic(SyntheticConfig(
        num_users=BULK_USERS, system=SYSTEM, tweets_per_user=1,
        comments_per_user=BULK_COMMENTS, seed=seed + 1,
    ))
    texts = iter(_zipf_texts(np.random.default_rng([seed, 2]), BULK_USERS * BULK_TWEETS))
    scored = []
    for record in base:
        t0 = record.tweets[0]
        tweets = tuple(
            replace(t0, text=next(texts), created_at=t0.created_at - timedelta(minutes=j))
            for j in range(BULK_TWEETS)
        )
        scored.append(replace(record, tweets=tweets, score=None))
    write_dataset(scored, score_dir)
    return {
        "bundle_users": len(bundle),
        "bundle_tweets": sum(len(r.tweets) for r in bundle),
        "users": len(scored),
        "tweets": len(scored) * BULK_TWEETS,
    }


def write_skewed(seed: int, data_dir: Path, score_dir: Path) -> dict:
    """2,400 labeled users in a 55/25/12/8 % class mix, 5 tweets each.

    Generated users come round-robin by class, so the writer generates
    enough for the largest class and drops the rest in id order. Each
    kept user's one generated tweet becomes five tweets whose texts are
    reshuffles of its own words, which keeps the class signal in the text.
    A strided unlabeled subset is written for the scoring step.
    """
    generated = generate_synthetic(SyntheticConfig(
        num_users=CLASSES * max(SKEW_KEEP.values()), system=SYSTEM,
        tweets_per_user=1, comments_per_user=1, seed=seed,
    ))
    rng = np.random.default_rng([seed, 3])
    left = dict(SKEW_KEEP)
    kept = []
    for record in generated:
        c = bin_score(record.score, SYSTEM)
        if left[c] == 0:
            continue
        left[c] -= 1
        t0 = record.tweets[0]
        words = t0.text.split()
        tweets = tuple(
            replace(t0, text=" ".join(rng.permutation(words)),
                    created_at=t0.created_at - timedelta(hours=j))
            for j in range(SKEW_TWEETS)
        )
        kept.append(replace(record, tweets=tweets))
    write_dataset(kept, data_dir)
    write_dataset([replace(r, score=None) for r in kept[::SKEW_SCORE_STRIDE]], score_dir)
    return {
        "users": len(kept),
        "tweets": len(kept) * SKEW_TWEETS,
        "score_users": len(kept[::SKEW_SCORE_STRIDE]),
        "score_tweets": len(kept[::SKEW_SCORE_STRIDE]) * SKEW_TWEETS,
    }


def hash_feature_stats(data_dir: Path) -> dict:
    """Hash features of the tweets in ``data_dir``: total, distinct, and ratio.

    Features are those the hash embedder looks up: the unigrams and adjacent
    bigrams of each tweet's cleaned tokens. ``distinct_ratio`` is the share
    of lookups over the input that an unbounded per-feature memo would miss
    (each tweet embedded once).
    """
    total, distinct = 0, set()
    for path in sorted((data_dir / "tweets").glob("*.json")):
        for tweet in json.loads(path.read_text("utf-8")):
            tokens = preprocess(tweet["text"]).tokens
            total += 2 * len(tokens) - 1 if tokens else 0
            distinct.update(tokens)
            distinct.update(zip(tokens, tokens[1:]))
    return {"features": total, "distinct": len(distinct),
            "distinct_ratio": round(len(distinct) / total, 4) if total else 0.0}
