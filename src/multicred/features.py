"""Turns account records into 51-dimensional feature vectors and prepares
labeled datasets: min-max normalization, stratified splitting, and SMOTE
oversampling.

Vector layout (stable, exported via :func:`feature_layout`):
  [ 0..17]  18 profile scalars (booleans as 0/1, creation time decomposed)
  [18..34]  17 tweet scalars, averaged over the user's tweets
  [35..44]  10 latent components: mean encoded tweet-text embedding
  [45..50]   6 sentiment components: mean comment emotion distribution

Only the 35 scalar components are min-max normalized; the latent block is
already compact and the sentiment block is a probability vector.
"""

from __future__ import annotations

import csv
import json
import warnings
from dataclasses import dataclass, field
from pathlib import Path
from typing import Callable, Optional, Sequence

import numpy as np

from .atomic import atomic_write
from .autoencoder import Autoencoder
from .domain import DomainError, Tweet, UserProfile, UserRecord, validate_record
from .embedding import EMOTIONS, EmbedderSpec, analyze_sentiment, embed_text
from .network import ShapeError, StateError
from .preprocess import preprocess

LAYOUT_VERSION = 1

PROFILE_FEATURES = (
    "has_location", "has_description", "has_url", "protected",
    "followers_count", "friends_count", "listed_count",
    "created_year", "created_month", "created_day",
    "created_hour", "created_minute", "created_second",
    "favourites_count", "geo_enabled", "verified", "statuses_count",
    "profile_use_background_image",
)

TWEET_FEATURES = (
    "tweet_year", "tweet_month", "tweet_day",
    "tweet_hour", "tweet_minute", "tweet_second",
    "tweet_truncated", "tweet_retweet_count", "tweet_favorite_count",
    "tweet_favorited", "tweet_retweeted", "tweet_is_quote_status",
    "tweet_hashtag_count", "tweet_mention_count", "tweet_url_count",
    "tweet_symbol_count", "tweet_has_poll",
)

LATENT_FEATURES = tuple(f"tweet_latent_{i:02d}" for i in range(10))
SENTIMENT_FEATURES = tuple(f"sentiment_{e}" for e in EMOTIONS)

FEATURE_NAMES = PROFILE_FEATURES + TWEET_FEATURES + LATENT_FEATURES + SENTIMENT_FEATURES
NUM_SCALAR_FEATURES = len(PROFILE_FEATURES) + len(TWEET_FEATURES)  # 35
NUM_FEATURES = len(FEATURE_NAMES)  # 51

TRAIN_FRACTION = 0.7
TEST_FRACTION = 0.2


@dataclass(frozen=True)
class NormalizationStats:
    """Column-wise minima and maxima observed on the fitting set."""

    minimum: np.ndarray
    maximum: np.ndarray

    def __post_init__(self):
        if self.minimum.shape != self.maximum.shape or self.minimum.ndim != 1:
            raise ShapeError("minimum and maximum must be 1-D and congruent")
        if np.any(self.minimum > self.maximum):
            raise DomainError("per-dimension minimum exceeds maximum")


@dataclass(frozen=True)
class UserFeatureVector:
    """One user's 51-component embedding plus data-quality flags."""

    user_id: str
    values: np.ndarray
    flags: frozenset[str] = field(default_factory=frozenset)

    def __post_init__(self):
        if self.values.shape != (NUM_FEATURES,):
            raise ShapeError(f"expected {NUM_FEATURES} components, got {self.values.shape}")
        if not np.all(np.isfinite(self.values)):
            raise DomainError(f"non-finite feature values for user {self.user_id}")


@dataclass(frozen=True)
class LabeledDataset:
    items: tuple[tuple[UserFeatureVector, int], ...]
    num_classes: int

    def __post_init__(self):
        if not isinstance(self.items, tuple):
            object.__setattr__(self, "items", tuple(self.items))
        for vec, label in self.items:
            if not 0 <= label < self.num_classes:
                raise DomainError(
                    f"class index {label} out of range for {self.num_classes} classes "
                    f"(user {vec.user_id})"
                )

    def __len__(self) -> int:
        return len(self.items)

    def class_counts(self) -> list[int]:
        counts = [0] * self.num_classes
        for _, label in self.items:
            counts[label] += 1
        return counts


@dataclass(frozen=True)
class SplitDataset:
    train: LabeledDataset
    test: LabeledDataset
    validation: LabeledDataset


def feature_layout() -> dict:
    """The versioned component-index-to-name map."""
    return {"version": LAYOUT_VERSION, "features": list(FEATURE_NAMES)}


def fit_minmax(matrix: np.ndarray) -> NormalizationStats:
    """Exact column-wise minimum and maximum of a non-empty matrix."""
    x = np.asarray(matrix, dtype=float)
    if x.ndim != 2 or x.shape[0] < 1:
        raise DomainError("fit_minmax needs a matrix with at least one row")
    return NormalizationStats(minimum=x.min(axis=0), maximum=x.max(axis=0))


def apply_minmax(stats: NormalizationStats, x: np.ndarray) -> np.ndarray:
    """Rescale to [0,1] via (x - min) / (max - min), clipping unseen values.

    Constant dimensions (min == max) map to 0.
    """
    v = np.asarray(x, dtype=float)
    if v.shape[-1] != stats.minimum.shape[0]:
        raise ShapeError(
            f"vector width {v.shape[-1]} != fitted width {stats.minimum.shape[0]}"
        )
    span = stats.maximum - stats.minimum
    safe = np.where(span > 0.0, span, 1.0)
    scaled = (v - stats.minimum) / safe
    scaled = np.where(span > 0.0, scaled, 0.0)
    return np.clip(scaled, 0.0, 1.0)


def aggregate_mean(vectors: Sequence[np.ndarray], dim: Optional[int] = None) -> np.ndarray:
    """Component-wise mean; an empty list yields zeros and a warning.

    ``dim`` is required to size the zero vector when the list may be empty.
    """
    if len(vectors) == 0:
        if dim is None:
            raise ShapeError("cannot infer dimension of an empty aggregation")
        warnings.warn("aggregating an empty vector list; yielding zeros", stacklevel=2)
        return np.zeros(dim)
    first = np.asarray(vectors[0], dtype=float)
    for v in vectors[1:]:
        if np.asarray(v).shape != first.shape:
            raise ShapeError("aggregate_mean requires vectors of one dimension")
    return np.mean(np.asarray(vectors, dtype=float), axis=0)


def profile_scalars(profile: UserProfile) -> np.ndarray:
    """The 18 profile-block scalars, in layout order."""
    c = profile.created_at
    return np.array([
        float(bool(profile.location)),
        float(bool(profile.description)),
        float(bool(profile.url)),
        float(profile.protected),
        float(profile.followers_count),
        float(profile.friends_count),
        float(profile.listed_count),
        float(c.year), float(c.month), float(c.day),
        float(c.hour), float(c.minute), float(c.second),
        float(profile.favourites_count),
        float(profile.geo_enabled),
        float(profile.verified),
        float(profile.statuses_count),
        float(profile.profile_use_background_image),
    ])


def tweet_scalars(tweet: Tweet) -> np.ndarray:
    """The 17 per-tweet scalars, in layout order."""
    c = tweet.created_at
    return np.array([
        float(c.year), float(c.month), float(c.day),
        float(c.hour), float(c.minute), float(c.second),
        float(tweet.truncated),
        float(tweet.retweet_count),
        float(tweet.favorite_count),
        float(tweet.favorited),
        float(tweet.retweeted),
        float(tweet.is_quote_status),
        float(tweet.hashtag_count),
        float(tweet.mention_count),
        float(tweet.url_count),
        float(tweet.symbol_count),
        float(tweet.has_poll),
    ])


def build_user_vector(
    record: UserRecord,
    embedder: EmbedderSpec,
    ae: Autoencoder,
    sentiment: Callable[..., np.ndarray] = analyze_sentiment,
) -> UserFeatureVector:
    """Assemble one user's raw 51-component vector.

    Users without tweets get zero tweet-scalar and latent blocks; users
    without comments get a zero sentiment block (no opinions is not the
    same as neutral opinions). Both cases are flagged. The scalar block
    is left raw; :func:`normalize_vectors` rescales it.
    """
    violations = validate_record(record)
    if violations:
        raise DomainError(f"invalid record {record.user_id}: {'; '.join(violations)}")
    if not ae.trained:
        raise StateError("autoencoder is untrained; train it before building features")

    flags = set()

    tweet_block = aggregate_mean(
        [tweet_scalars(t) for t in record.tweets], dim=len(TWEET_FEATURES)
    )
    if record.tweets:
        embedded = np.stack([embed_text(embedder, preprocess(t.text)) for t in record.tweets])
        latent_block = ae.encode_batch(embedded).mean(axis=0)
    else:
        flags.add("no_tweets")
        latent_block = np.zeros(len(LATENT_FEATURES))

    if record.comments:
        sentiment_block = np.mean(
            [sentiment(preprocess(c.text)) for c in record.comments], axis=0
        )
    else:
        flags.add("no_comments")
        sentiment_block = np.zeros(len(SENTIMENT_FEATURES))

    values = np.concatenate([
        profile_scalars(record.profile), tweet_block, latent_block, sentiment_block,
    ])
    return UserFeatureVector(
        user_id=record.user_id, values=values, flags=frozenset(flags)
    )


def fit_scalar_stats(vectors: Sequence[UserFeatureVector]) -> NormalizationStats:
    """Fit min-max stats over the 35 scalar components of raw vectors."""
    matrix = np.stack([v.values[:NUM_SCALAR_FEATURES] for v in vectors])
    return fit_minmax(matrix)


def normalize_vectors(
    vectors: Sequence[UserFeatureVector], stats: NormalizationStats
) -> list[UserFeatureVector]:
    """Min-max normalize the 35 scalar components of raw vectors with ``stats``."""
    out = []
    for v in vectors:
        values = v.values.copy()
        values[:NUM_SCALAR_FEATURES] = apply_minmax(stats, values[:NUM_SCALAR_FEATURES])
        out.append(UserFeatureVector(v.user_id, values, v.flags))
    return out


def _largest_remainder(targets: list[float], total: int, caps: list[int]) -> list[int]:
    # Floors first, then hand out the shortfall by descending fractional
    # remainder (ties to the lower class index), never exceeding a cap.
    counts = [min(int(t), cap) for t, cap in zip(targets, caps)]
    remainders = sorted(
        range(len(targets)), key=lambda i: (-(targets[i] - int(targets[i])), i)
    )
    shortfall = total - sum(counts)
    while shortfall > 0:
        progressed = False
        for i in remainders:
            if shortfall == 0:
                break
            if counts[i] < caps[i]:
                counts[i] += 1
                shortfall -= 1
                progressed = True
        if not progressed:
            raise DomainError("cannot satisfy split sizes with the given class counts")
    return counts


def split(dataset: LabeledDataset, seed: int) -> SplitDataset:
    """Stratified 0.7 / 0.2 / 0.1 partition into train, test, validation.

    Global sizes are exactly floor(0.7 n), floor(0.2 n), and the
    remainder; each class is represented proportionally within one sample.
    """
    n = len(dataset)
    if n < 10:
        raise DomainError(f"need at least 10 samples to split, got {n}")

    by_class: dict[int, list[int]] = {c: [] for c in range(dataset.num_classes)}
    for idx, (_, label) in enumerate(dataset.items):
        by_class[label].append(idx)
    present = [c for c in sorted(by_class) if by_class[c]]
    too_small = [c for c in present if len(by_class[c]) < 3]
    if too_small:
        raise DomainError(f"classes with fewer than 3 samples cannot be stratified: {too_small}")

    rng = np.random.default_rng(seed)
    for c in present:
        order = rng.permutation(len(by_class[c]))
        by_class[c] = [by_class[c][i] for i in order]

    sizes = [len(by_class[c]) for c in present]
    train_total = int(TRAIN_FRACTION * n)
    test_total = int(TEST_FRACTION * n)
    train_counts = _largest_remainder(
        [TRAIN_FRACTION * s for s in sizes], train_total, sizes
    )
    test_counts = _largest_remainder(
        [TEST_FRACTION * s for s in sizes], test_total,
        [s - t for s, t in zip(sizes, train_counts)],
    )

    train_idx: list[int] = []
    test_idx: list[int] = []
    val_idx: list[int] = []
    for c, n_train, n_test in zip(present, train_counts, test_counts):
        pool = by_class[c]
        train_idx.extend(pool[:n_train])
        test_idx.extend(pool[n_train:n_train + n_test])
        val_idx.extend(pool[n_train + n_test:])

    pick = lambda idx: LabeledDataset(
        tuple(dataset.items[i] for i in idx), dataset.num_classes
    )
    return SplitDataset(train=pick(train_idx), test=pick(test_idx), validation=pick(val_idx))


@dataclass(frozen=True)
class SmoteTrace:
    """Provenance of one synthetic point, for independent verification."""

    class_index: int
    base: np.ndarray
    neighbor: np.ndarray
    synthetic: np.ndarray


def smote(train: LabeledDataset, k: int = 5, seed: int = 0) -> LabeledDataset:
    """Oversample every class up to the majority count.

    Each synthetic point is base + lam * (neighbor - base) with the
    neighbor drawn from the base's k nearest same-class points
    (Euclidean; effectively min(k, class size - 1) neighbors) and lam
    uniform in [0, 1]. Originals are retained; an already balanced input
    comes back unchanged.
    """
    balanced, _ = smote_with_trace(train, k=k, seed=seed)
    return balanced


def smote_with_trace(
    train: LabeledDataset, k: int = 5, seed: int = 0
) -> tuple[LabeledDataset, list[SmoteTrace]]:
    """Like :func:`smote`, also returning per-synthetic-point provenance."""
    if k < 1:
        raise DomainError(f"k must be >= 1, got {k}")

    counts = train.class_counts()
    present = [c for c, n in enumerate(counts) if n > 0]
    singletons = [c for c in present if counts[c] == 1]
    if singletons:
        raise DomainError(f"cannot oversample singleton classes: {singletons}")
    target = max(counts)
    if all(counts[c] == target for c in present):
        return train, []

    by_class: dict[int, list[UserFeatureVector]] = {c: [] for c in present}
    for vec, label in train.items:
        by_class[label].append(vec)

    rng = np.random.default_rng(seed)
    synthetic_items: list[tuple[UserFeatureVector, int]] = []
    traces: list[SmoteTrace] = []
    for c in present:
        need = target - counts[c]
        if need == 0:
            continue
        points = np.stack([v.values for v in by_class[c]])
        n_c = points.shape[0]
        k_eff = min(k, n_c - 1)
        # Pairwise distances; self excluded by skipping rank 0 (distance 0).
        deltas = points[:, None, :] - points[None, :, :]
        distances = np.sqrt((deltas**2).sum(axis=2))
        neighbor_ids = np.argsort(distances, axis=1, kind="stable")[:, 1:k_eff + 1]

        for j in range(need):
            base_id = int(rng.integers(n_c))
            nb_id = int(neighbor_ids[base_id][int(rng.integers(k_eff))])
            lam = float(rng.random())
            base = points[base_id]
            neighbor = points[nb_id]
            synthetic = base + lam * (neighbor - base)
            vec = UserFeatureVector(
                user_id=f"smote:{c}:{j}", values=synthetic, flags=frozenset()
            )
            synthetic_items.append((vec, c))
            traces.append(SmoteTrace(
                class_index=c, base=base.copy(), neighbor=neighbor.copy(),
                synthetic=synthetic.copy(),
            ))

    balanced = LabeledDataset(train.items + tuple(synthetic_items), train.num_classes)
    return balanced, traces


def dataset_to_matrix(dataset: LabeledDataset) -> tuple[np.ndarray, np.ndarray]:
    """Feature matrix [n x 51] and label vector [n]."""
    x = np.stack([vec.values for vec, _ in dataset.items])
    y = np.array([label for _, label in dataset.items], dtype=int)
    return x, y


def write_feature_csv(dataset: LabeledDataset, path: str | Path) -> None:
    """Export as CSV: header ``user_id,f000..f050,class``."""
    with atomic_write(path, newline="") as fh:
        writer = csv.writer(fh)
        writer.writerow(
            ["user_id"] + [f"f{i:03d}" for i in range(NUM_FEATURES)] + ["class"]
        )
        for vec, label in dataset.items:
            writer.writerow([vec.user_id] + [repr(float(v)) for v in vec.values] + [label])


def read_feature_csv(path: str | Path, num_classes: int) -> LabeledDataset:
    """Load a dataset previously written by :func:`write_feature_csv`."""
    items = []
    with open(path, newline="", encoding="utf-8") as fh:
        reader = csv.reader(fh)
        header = next(reader)
        if len(header) != NUM_FEATURES + 2:
            raise DomainError(f"feature CSV has {len(header)} columns, "
                              f"expected {NUM_FEATURES + 2}")
        for row in reader:
            values = np.array([float(v) for v in row[1:-1]])
            items.append((UserFeatureVector(row[0], values), int(row[-1])))
    return LabeledDataset(tuple(items), num_classes)


def write_feature_layout(path: str | Path) -> None:
    with atomic_write(path) as fh:
        fh.write(json.dumps(feature_layout(), indent=2, sort_keys=True))
