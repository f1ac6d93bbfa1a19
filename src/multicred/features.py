"""Turns account records into 51-dimensional feature vectors and prepares
labeled datasets: min-max normalization, stratified splitting, and SMOTE
oversampling.

Feature rows are built in two passes over a dataset directory, so memory
grows with the number of users, not of tweets. :func:`scan_dataset`, the
one reader of a dataset, reads and validates every user once, each
profile and tweet field through the tables of :mod:`multicred.dataset`,
and keeps per user only its id, score, tweet count and the 41 components
that need no autoencoder. :func:`fill_latents` then re-reads each user's
tweet texts alone and writes the 10 latent components.
:func:`tweet_texts_at` re-reads the texts of chosen tweets, such as the
autoencoder's training sample.

A :class:`LabeledDataset` holds its users as arrays: a tuple of user ids,
an [n x 51] float64 matrix with one row per user, and an [n] label
vector. Splitting, SMOTE, the feature CSVs and the classifier all work
on those arrays directly.

SMOTE draws every synthetic point's base, neighbour rank and lam first,
then searches neighbours only for the distinct drawn bases, by exact
brute-force kNN in blocks of at most :data:`SMOTE_BLOCK_FLOATS` float64
differences (8 MiB), so its memory grows with the class size, not its
square. :func:`smote_plan` gives each synthetic row's provenance as
indices into the training split.

Vector layout (stable, exported via :func:`feature_layout`):
  [ 0..17]  18 profile scalars (booleans as 0/1, creation time decomposed),
            named by :data:`~multicred.dataset.PROFILE`
  [18..34]  17 tweet scalars, averaged over the user's tweets, named by
            :data:`~multicred.dataset.TWEET`
  [35..44]  10 latent components: mean encoded tweet-text embedding
  [45..50]   6 sentiment components: mean comment emotion distribution

Only the 35 scalar components are min-max normalized; the latent block is
already compact and the sentiment block is a probability vector.
"""

from __future__ import annotations

import csv
import itertools
import json
import operator
from dataclasses import dataclass
from pathlib import Path
from typing import Optional

import numpy as np

from .autoencoder import Autoencoder
from .dataset import (PROFILE, TWEET, DatasetLoadError, DatasetManifest, open_dataset,
                      read_tweet_texts)
from .domain import MAX_COMMENTS_PER_USER, MAX_TWEETS_PER_USER, DomainError
from .embedding import EMOTIONS, EmbedderSpec, analyze_sentiment, embed_texts
from .network import ShapeError
from .preprocess import preprocess
from .store import atomic_write, field, read_csv, read_json

LAYOUT_VERSION = 1

PROFILE_FEATURES = PROFILE.columns
TWEET_FEATURES = TWEET.columns

LATENT_FEATURES = tuple(f"tweet_latent_{i:02d}" for i in range(10))
SENTIMENT_FEATURES = tuple(f"sentiment_{e}" for e in EMOTIONS)

FEATURE_NAMES = PROFILE_FEATURES + TWEET_FEATURES + LATENT_FEATURES + SENTIMENT_FEATURES
NUM_SCALAR_FEATURES = len(PROFILE_FEATURES) + len(TWEET_FEATURES)  # 35
NUM_FEATURES = len(FEATURE_NAMES)  # 51

# Column blocks of a feature row.
_PROFILE = slice(0, len(PROFILE_FEATURES))
_TWEET = slice(_PROFILE.stop, NUM_SCALAR_FEATURES)
_LATENT = slice(NUM_SCALAR_FEATURES, NUM_SCALAR_FEATURES + len(LATENT_FEATURES))
_SENTIMENT = slice(_LATENT.stop, NUM_FEATURES)

TRAIN_FRACTION = 0.7
TEST_FRACTION = 0.2

# SMOTE's neighbour search holds at most this many float64 differences
# (8 MiB) at once, whatever the class size.
SMOTE_BLOCK_FLOATS = 1 << 20


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
class LabeledDataset:
    """Labeled users as arrays: row ``i`` of ``x`` is user ``user_ids[i]``,
    of class ``y[i]``.

    ``x`` is a C-contiguous float64 [n x 51] matrix and ``y`` an intp [n]
    vector; both are converted on construction, without a copy when they
    already are. Every value must be finite and every label in
    ``[0, num_classes)``; a failure names the first offending user.
    """

    user_ids: tuple[str, ...]
    x: np.ndarray
    y: np.ndarray
    num_classes: int

    def __post_init__(self):
        ids = tuple(self.user_ids)
        x = np.ascontiguousarray(self.x, dtype=np.float64)
        y = np.asarray(self.y)
        if y.size and not np.issubdtype(y.dtype, np.integer):
            raise DomainError(f"class labels must be integers, got {y.dtype}")
        y = y.astype(np.intp, copy=False)
        object.__setattr__(self, "user_ids", ids)
        object.__setattr__(self, "x", x)
        object.__setattr__(self, "y", y)
        if x.ndim != 2 or x.shape[1] != NUM_FEATURES:
            raise ShapeError(f"expected {NUM_FEATURES} components per user, got {x.shape}")
        if y.ndim != 1 or not len(ids) == x.shape[0] == y.shape[0]:
            raise ShapeError(f"{len(ids)} user ids, {x.shape[0]} feature rows "
                             f"and labels of shape {y.shape}")
        finite = np.isfinite(x).all(axis=1)
        if not finite.all():
            raise DomainError(
                f"non-finite feature values for user {ids[int(np.argmin(finite))]}")
        in_range = (y >= 0) & (y < self.num_classes)
        if not in_range.all():
            i = int(np.argmin(in_range))
            raise DomainError(
                f"class index {y[i]} out of range for {self.num_classes} classes "
                f"(user {ids[i]})"
            )

    def __len__(self) -> int:
        return len(self.user_ids)

    def class_counts(self) -> list[int]:
        return np.bincount(self.y, minlength=self.num_classes).tolist()


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


@dataclass(frozen=True)
class UserScan:
    """What :func:`scan_dataset` keeps of a dataset: row ``i`` of each array
    is user ``manifest.user_ids[i]``.

    ``x`` is the users' raw [n x 51] feature matrix, its latent block zero
    until :func:`fill_latents` writes it; ``tweet_counts`` the number of
    tweets each user has after the ingest cap; ``scores`` their
    credibility scores, or None for an unlabeled dataset.
    """

    manifest: DatasetManifest
    x: np.ndarray
    tweet_counts: np.ndarray
    scores: Optional[np.ndarray]

    def __len__(self) -> int:
        return len(self.manifest.user_ids)


def scan_dataset(root: str | Path) -> UserScan:
    """Read and validate a dataset directory once, one user at a time.

    Each user's profile, tweets and comments files are read through the
    tables of :mod:`multicred.dataset` and its row built from them: the
    profile's columns, the mean of its tweets' columns and the mean
    emotion distribution of its comments. Users without tweets get a zero
    tweet block (their ``tweet_counts`` is 0), users without comments a
    zero sentiment block (no opinions is not the same as neutral
    opinions); a missing tweets or comments file means none. Tweet and
    comment lists are truncated at the ingest caps after every entry has
    been checked. The scalar block is left raw: ``prepare`` and
    ``predict`` rescale it with :func:`apply_minmax`.

    Every malformed or missing file, every invalid field or score (the
    first of each user), and every labeled user without a profile is
    collected and raised together, as one
    :class:`~multicred.dataset.DatasetLoadError`, after the last user has
    been read and before anything is embedded.
    """
    manifest, labels = open_dataset(root)
    root = manifest.root
    n = len(manifest.user_ids)
    x = np.zeros((n, NUM_FEATURES))
    tweet_counts = np.zeros(n, dtype=np.intp)
    scores = None if labels is None else np.zeros(n)
    failures: list[tuple[str, str]] = []
    for i, user_id in enumerate(manifest.user_ids):
        try:
            tweet_counts[i] = _scan_user(root, user_id, x[i])
            if labels is not None:
                if user_id not in labels:
                    raise DomainError(f"user {user_id} missing from labels.csv")
                score = labels[user_id]
                if not 0.0 <= score <= 100.0:
                    raise DomainError(f"labels file {root / 'labels.csv'} gives user "
                                      f"{user_id!r} the score {score!r}, "
                                      f"expected a number in [0, 100]")
                scores[i] = score
        except DomainError as exc:
            failures.append((user_id, str(exc)))

    known_ids = set(manifest.user_ids)
    failures += [(labeled_id, "appears in labels.csv but has no profile file")
                 for labeled_id in labels or () if labeled_id not in known_ids]
    if failures:
        raise DatasetLoadError(failures)
    return UserScan(manifest, x, tweet_counts, scores)


def _scan_user(root: Path, user_id: str, row: np.ndarray) -> int:
    """Fill ``row`` from one user's files; the number of tweets it has
    after the cap. A fault raises a DomainError naming the file."""
    path = root / "profiles" / f"{user_id}.json"
    row[_PROFILE] = PROFILE.read(read_json(path, "profile file", DomainError),
                                 f"profile file {path}")

    tweets: list[list] = []
    path = root / "tweets" / f"{user_id}.json"
    if path.is_file():
        what = f"tweets file {path}"
        tweets = [TWEET.read(t, what, f"[{i}].")
                  for i, t in enumerate(read_json(path, "tweets file", DomainError, list))]
        del tweets[MAX_TWEETS_PER_USER:]

    comments: list[str] = []
    path = root / "comments" / f"{user_id}.json"
    if path.is_file():
        what = f"comments file {path}"
        comments = [field(c, "text", str, what, DomainError, at=f"[{i}].")
                    for i, c in enumerate(read_json(path, "comments file", DomainError, list))]
        del comments[MAX_COMMENTS_PER_USER:]

    if tweets:
        row[_TWEET] = np.array(tweets, dtype=np.float64).mean(axis=0)
    if comments:
        row[_SENTIMENT] = np.mean([analyze_sentiment(preprocess(c)) for c in comments], axis=0)
    return len(tweets)


def fill_latents(scan: UserScan, embedder: EmbedderSpec, ae: Autoencoder) -> None:
    """Write each user's latent block into ``scan.x``: the mean encoded
    embedding of its tweet texts, re-read one user at a time.

    Users without tweets keep a zero latent block. A tweets file whose
    count changed since the scan raises a
    :class:`~multicred.dataset.DatasetLoadError` naming the user; a
    non-finite row raises a DomainError naming the first such user.
    """
    root, user_ids = scan.manifest.root, scan.manifest.user_ids
    for row, user_id, count in zip(scan.x, user_ids, scan.tweet_counts.tolist()):
        if count:
            texts = read_tweet_texts(root, user_id, count)
            embedded = embed_texts(embedder, [preprocess(t) for t in texts])
            row[_LATENT] = ae.encode_batch(embedded).mean(axis=0)
    finite = np.isfinite(scan.x).all(axis=1)
    if not finite.all():
        raise DomainError(f"non-finite feature values for user {user_ids[int(np.argmin(finite))]}")


def tweet_texts_at(scan: UserScan, positions: np.ndarray) -> list[str]:
    """The texts of the tweets at ``positions``, re-read from the dataset.

    Positions are ascending indices into all the scanned tweets, taken
    user by user in id order and each user's tweets in file order; each
    user's file is read once, and only if one of its tweets is wanted.
    """
    counts = scan.tweet_counts
    ends = np.cumsum(counts)
    starts = (ends - counts).tolist()
    owners = np.searchsorted(ends, positions, side="right").tolist()
    root, user_ids = scan.manifest.root, scan.manifest.user_ids
    texts: list[str] = []
    for user, group in itertools.groupby(zip(owners, positions.tolist()),
                                         key=operator.itemgetter(0)):
        own = read_tweet_texts(root, user_ids[user], int(counts[user]))
        texts.extend(own[position - starts[user]] for _, position in group)
    return texts


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

    by_class = {c: np.flatnonzero(dataset.y == c) for c in range(dataset.num_classes)}
    present = [c for c in sorted(by_class) if len(by_class[c])]
    too_small = [c for c in present if len(by_class[c]) < 3]
    if too_small:
        raise DomainError(f"classes with fewer than 3 samples cannot be stratified: {too_small}")

    rng = np.random.default_rng(seed)
    for c in present:
        by_class[c] = by_class[c][rng.permutation(len(by_class[c]))]

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

    # Each class's shuffled rows, cut into its train, test and validation parts.
    cuts = [np.split(by_class[c], [n_train, n_train + n_test])
            for c, n_train, n_test in zip(present, train_counts, test_counts)]

    def pick(idx: np.ndarray) -> LabeledDataset:
        return LabeledDataset(tuple(dataset.user_ids[i] for i in idx.tolist()),
                              dataset.x[idx], dataset.y[idx], dataset.num_classes)

    return SplitDataset(*(pick(np.concatenate(part)) for part in zip(*cuts)))


def _neighbor_ids(points: np.ndarray, rows: np.ndarray, k_eff: int) -> np.ndarray:
    """The ``k_eff`` nearest neighbours of ``points[rows]`` among ``points``.

    Exact brute-force Euclidean kNN, one block of at most
    :data:`SMOTE_BLOCK_FLOATS` differences at a time. Each row's ids come
    from a stable argsort of its distances, so a tie goes to the lower
    index, with rank 0 skipped: the point itself, or an identical point of
    lower index (the point itself is then one of its neighbours).
    """
    n, width = points.shape
    step = max(1, SMOTE_BLOCK_FLOATS // (n * width))
    ids = np.empty((len(rows), k_eff), dtype=np.intp)
    for start in range(0, len(rows), step):
        block = rows[start:start + step]
        diff = points[block, None, :] - points[None, :, :]
        diff **= 2  # in place: one block-sized temporary
        distances = np.sqrt(diff.sum(axis=2))
        del diff  # freed before the next block is allocated
        ids[start:start + step] = np.argsort(distances, axis=1, kind="stable")[:, 1:k_eff + 1]
    return ids


def check_smote_k(k: int) -> None:
    """SMOTE's rule on its neighbour count: ``k`` is at least 1."""
    if k < 1:
        raise DomainError(f"smote k must be >= 1, got {k}")


def smote_plan(
    train: LabeledDataset, k: int = 5, seed: int = 0
) -> tuple[np.ndarray, np.ndarray, np.ndarray, np.ndarray]:
    """Which rows :func:`smote` synthesizes, as row indices into ``train``.

    Returns four arrays with one entry per synthetic row, in output order:
    its class, its base row, its neighbour row and its ``lam``; the row is
    ``base + lam * (neighbor - base)``. For each class short of the
    majority count, in class order, every synthetic point's base, neighbour
    rank and ``lam`` are drawn first; neighbours are then searched only for
    the distinct drawn bases (see :func:`_neighbor_ids`).
    """
    check_smote_k(k)

    counts = train.class_counts()
    present = [c for c, n in enumerate(counts) if n > 0]
    singletons = [c for c in present if counts[c] == 1]
    if singletons:
        raise DomainError(f"cannot oversample singleton classes: {singletons}")
    target = max(counts)
    if all(counts[c] == target for c in present):
        no_rows = np.empty(0, dtype=np.intp)
        return no_rows, no_rows, no_rows, np.empty(0)

    x, y = train.x, train.y
    rng = np.random.default_rng(seed)
    classes, bases, neighbors, lams = [], [], [], []
    for c in present:
        need = target - counts[c]
        if need == 0:
            continue
        members = np.flatnonzero(y == c)
        n_c = len(members)
        k_eff = min(k, n_c - 1)
        draws = [(int(rng.integers(n_c)), int(rng.integers(k_eff)), float(rng.random()))
                 for _ in range(need)]
        base, rank, lam = (np.array(column) for column in zip(*draws))
        drawn, slot = np.unique(base, return_inverse=True)
        neighbor = _neighbor_ids(x[members], drawn, k_eff)[slot, rank]
        classes.append(np.full(need, c))
        bases.append(members[base])
        neighbors.append(members[neighbor])
        lams.append(lam)
    return tuple(np.concatenate(parts) for parts in (classes, bases, neighbors, lams))


def smote(train: LabeledDataset, k: int = 5, seed: int = 0) -> LabeledDataset:
    """Oversample every class up to the majority count.

    Each synthetic point is base + lam * (neighbor - base) with the
    neighbor drawn from the base's k nearest same-class points
    (Euclidean; effectively min(k, class size - 1) neighbors) and lam
    uniform in [0, 1]; :func:`smote_plan` gives the indices and lams.
    Originals are retained; an already balanced input comes back unchanged.
    """
    classes, base, neighbor, lam = smote_plan(train, k=k, seed=seed)
    if len(classes) == 0:
        return train
    b = train.x[base]
    rows = b + lam[:, None] * (train.x[neighbor] - b)
    # The plan runs class by class, in class order: number each class's rows.
    ids = [f"smote:{c}:{j}"
           for c, n in zip(*np.unique(classes, return_counts=True)) for j in range(n)]
    return LabeledDataset(train.user_ids + tuple(ids), np.concatenate([train.x, rows]),
                          np.concatenate([train.y, classes]), train.num_classes)


def write_feature_csv(dataset: LabeledDataset, path: str | Path) -> None:
    """Export as CSV: header ``user_id,f000..f050,class``."""
    with atomic_write(path, newline="") as fh:
        writer = csv.writer(fh)
        writer.writerow(
            ["user_id"] + [f"f{i:03d}" for i in range(NUM_FEATURES)] + ["class"]
        )
        for user_id, values, label in zip(dataset.user_ids, dataset.x, dataset.y.tolist()):
            writer.writerow([user_id] + [repr(v) for v in values.tolist()] + [label])


def read_feature_csv(path: str | Path, num_classes: int) -> LabeledDataset:
    """Load a dataset previously written by :func:`write_feature_csv`.

    A missing header, a malformed row or a byte that is not UTF-8 raises a
    DomainError naming the path and its 1-based line.
    """
    ids, rows, labels = [], [], []
    lines = read_csv(path, DomainError)
    _, header = next(lines, (1, None))
    if header is None:
        raise DomainError(f"{path}:1: missing header, the file is empty")
    if len(header) != NUM_FEATURES + 2:
        raise DomainError(f"{path}:1: header has {len(header)} columns, "
                          f"expected {NUM_FEATURES + 2}")
    for line, row in lines:
        try:
            if len(row) != NUM_FEATURES + 2:
                raise DomainError(f"{len(row)} columns, expected {NUM_FEATURES + 2}")
            values = np.fromiter(map(float, row[1:-1]), np.float64, NUM_FEATURES)
            label = int(row[-1])
            if not 0 <= label < num_classes:
                raise DomainError(f"class index {label} out of range for "
                                  f"{num_classes} classes")
            if not np.isfinite(values).all():
                raise DomainError(f"non-finite feature values for user {row[0]}")
        except ValueError as exc:
            raise DomainError(f"{path}:{line}: {exc}") from None
        ids.append(row[0])
        rows.append(values)
        labels.append(label)
    x = np.array(rows, dtype=np.float64).reshape(len(rows), NUM_FEATURES)
    return LabeledDataset(tuple(ids), x, np.array(labels, dtype=np.intp), num_classes)


def write_feature_layout(path: str | Path) -> None:
    with atomic_write(path) as fh:
        fh.write(json.dumps(feature_layout(), indent=2, sort_keys=True))
