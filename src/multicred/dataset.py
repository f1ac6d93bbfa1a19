"""Dataset ingestion, persistence, and synthetic generation.

On-disk layout, one dataset per directory:

    <root>/profiles/<user_id>.json    profile fields, created_at as ISO-8601 UTC
    <root>/tweets/<user_id>.json      array of tweet objects, entity counts
                                      under an "entities" object
    <root>/comments/<user_id>.json    array of {"text": ...}
    <root>/labels.csv                 header "user_id,score"; absent for
                                      unlabeled prediction sets

Files are read strictly, through :mod:`multicred.store`: UTF-8 JSON with
no repeated key and no ``NaN`` or ``Infinity``, and typed fields, none
coerced. Booleans are ``true``/``false``; counts integers in
[0, 2**63 - 1], or an entity list (as raw API dumps give it) counted by
length; ``created_at`` and ``text`` strings, a tweet's text at most
4,000 characters; ``location``, ``description`` and ``url`` a string or
null. Absent fields take their defaults; any other value, or a labels
score that is not a finite number or not in [0, 100], names the file.

:func:`iter_records` reads one user at a time and reports every
malformed file at once, when the last user has been read, instead of
stopping at the first; tweet and comment lists are truncated at the
ingest caps, after every entry has been checked. :func:`read_tweet_texts`
re-reads one user's tweet texts only, for passes that need nothing else.

The synthetic generator plants one credibility class per user and draws
trust-criteria flags whose summed weights land inside that class's score
bin. Low-credibility users get more hashtags and links per tweet,
younger accounts, and angrier comments; ``class_separation`` scales that
signal from none (0) to fully separable (1).
"""

from __future__ import annotations

import csv
import itertools
import json
import math
from dataclasses import dataclass
from datetime import datetime, timedelta, timezone
from pathlib import Path
from typing import Iterator

import numpy as np

from .domain import (
    CRITERIA,
    MAX_COMMENTS_PER_USER,
    MAX_COUNT,
    MAX_TWEET_TEXT_LEN,
    MAX_TWEETS_PER_USER,
    ClassificationSystem,
    Comment,
    CriteriaFlags,
    DomainError,
    Tweet,
    UserProfile,
    UserRecord,
    bin_score,
    format_timestamp,
    newsguard_score,
    parse_timestamp,
)
from .embedding import default_lexicon
from .store import atomic_write, field, read_csv, read_json

# Fixed "now" for generated timestamps, so identical configs give
# identical bytes regardless of when they run.
REFERENCE_INSTANT = datetime(2023, 1, 1, tzinfo=timezone.utc)

_CREDIBLE_WORDS = (
    "report", "analysis", "policy", "economy", "council", "budget",
    "election", "sources", "confirmed", "update", "statement", "minister",
    "parliament", "study", "research", "data", "survey", "official",
    "announcement", "coverage", "investigation", "briefing", "committee",
    "legislation", "infrastructure", "diplomacy", "testimony", "audit",
    "forecast", "review", "summit", "negotiations", "ruling", "verdict",
    "transcript", "documents", "evidence", "experts", "findings", "context",
)

_SENSATIONAL_WORDS = (
    "shocking", "exposed", "secret", "miracle", "banned", "hoax",
    "scandal", "outrage", "viral", "unbelievable", "clickbait", "conspiracy",
    "coverup", "bombshell", "insane", "destroyed", "slams", "furious",
    "panic", "chaos", "disaster", "meltdown", "explosive", "shameless",
    "rigged", "fake", "corrupt", "lies", "fraud", "scam",
    "wake", "sheeple", "truth", "they", "hidden", "revealed",
    "urgent", "warning", "alert", "exclusive",
)

_NEUTRAL_COMMENT_WORDS = (
    "article", "thread", "point", "source", "link", "story", "take",
    "opinion", "question", "reply", "agree", "disagree", "interesting",
    "read", "share", "thoughts", "context", "details", "claim", "facts",
)


@dataclass(frozen=True)
class DatasetManifest:
    """What a dataset directory contains."""

    root: Path
    user_ids: tuple[str, ...]
    labels_present: bool


@dataclass(frozen=True)
class SyntheticConfig:
    num_users: int
    system: ClassificationSystem
    tweets_per_user: int = 30
    comments_per_user: int = 20
    class_separation: float = 1.0
    seed: int = 0

    def __post_init__(self):
        if self.num_users < 1:
            raise DomainError("num_users must be positive")
        if not 1 <= self.tweets_per_user <= MAX_TWEETS_PER_USER:
            raise DomainError(f"tweets_per_user must lie in [1, {MAX_TWEETS_PER_USER}]")
        if not 1 <= self.comments_per_user <= MAX_COMMENTS_PER_USER:
            raise DomainError(f"comments_per_user must lie in [1, {MAX_COMMENTS_PER_USER}]")
        if not 0.0 <= self.class_separation <= 1.0:
            raise DomainError("class_separation must lie in [0, 1]")
        if self.seed < 0:
            raise DomainError("seed must be unsigned")


class DatasetLoadError(Exception):
    """One or more files in a dataset failed to load.

    Carries every failure so a bad batch surfaces completely in one pass.
    """

    def __init__(self, failures: list[tuple[str, str]]):
        self.failures = failures
        lines = [f"{name}: {reason}" for name, reason in failures]
        super().__init__(
            f"{len(failures)} dataset entries failed to load:\n  " + "\n  ".join(lines)
        )


# A profile's typed fields: JSON key (also the UserProfile field), type
# and default. Optional texts are a string or null; every integer is a count.
_TEXT_OR_NULL = (str, type(None))
_PROFILE_FIELDS = (
    ("name", str, ""), ("screen_name", str, ""), ("location", _TEXT_OR_NULL, None),
    ("description", _TEXT_OR_NULL, None), ("url", _TEXT_OR_NULL, None),
    ("protected", bool, False), ("followers_count", int, 0), ("friends_count", int, 0),
    ("listed_count", int, 0), ("favourites_count", int, 0), ("geo_enabled", bool, False),
    ("verified", bool, False), ("statuses_count", int, 0),
    ("profile_use_background_image", bool, False),
)
# The counts under a tweet's "entities".
_ENTITIES = ("hashtags", "user_mentions", "urls", "symbols", "polls")
# The store.field rules on a count and on a tweet's text. An entity list
# counts by its length, so it is always in range.
_IN_RANGE = "in [0, 2**63 - 1]"
_FITS = f"of at most {MAX_TWEET_TEXT_LEN} characters"


def _in_range(count) -> bool:
    return type(count) is list or 0 <= count <= MAX_COUNT


def _fits(text: str) -> bool:
    return len(text) <= MAX_TWEET_TEXT_LEN


def _timestamp(data: dict, what: str, at: str) -> datetime:
    """``data["created_at"]``, a string, as aware UTC; a DomainError naming
    it if it does not parse or leaves the datetime range in UTC."""
    value = field(data, "created_at", str, what, DomainError, at=at)
    try:
        return parse_timestamp(value)
    except (DomainError, OverflowError):
        raise DomainError(f"{what} field {at}created_at is {json.dumps(value)}, expected "
                          f"an ISO-8601 time within the datetime range in UTC") from None


def _profile_from_json(data: dict, what: str) -> UserProfile:
    return UserProfile(created_at=_timestamp(data, what, ""), **{
        key: field(data, key, kind, what, DomainError, default,
                   valid=_in_range if kind is int else None, requirement=_IN_RANGE)
        for key, kind, default in _PROFILE_FIELDS})


def _tweet_text(data: dict, what: str, at: str) -> str:
    return field(data, "text", str, what, DomainError, "", at=at, valid=_fits,
                 requirement=_FITS)


def _tweet_from_json(data: dict, what: str, at: str) -> Tweet:
    entities = field(data, "entities", dict, what, DomainError, {}, at=at)
    counts, in_entities = [], at + "entities."
    for key in _ENTITIES:
        count = field(entities, key, (int, list), what, DomainError, 0, at=in_entities,
                      valid=_in_range, requirement=_IN_RANGE)
        # Raw API dumps list the entities themselves, which count by length.
        counts.append(len(count) if type(count) is list else count)
    hashtags, mentions, urls, symbols, polls = counts
    return Tweet(
        created_at=_timestamp(data, what, at),
        text=_tweet_text(data, what, at),
        truncated=field(data, "truncated", bool, what, DomainError, False, at=at),
        retweet_count=field(data, "retweet_count", int, what, DomainError, 0, at=at,
                            valid=_in_range, requirement=_IN_RANGE),
        favorite_count=field(data, "favorite_count", int, what, DomainError, 0, at=at,
                             valid=_in_range, requirement=_IN_RANGE),
        favorited=field(data, "favorited", bool, what, DomainError, False, at=at),
        retweeted=field(data, "retweeted", bool, what, DomainError, False, at=at),
        is_quote_status=field(data, "is_quote_status", bool, what, DomainError, False, at=at),
        hashtag_count=hashtags, mention_count=mentions, url_count=urls, symbol_count=symbols,
        has_poll=field(data, "has_poll", bool, what, DomainError, polls > 0, at=at),
    )


def _profile_to_json(p: UserProfile) -> dict:
    return dict(vars(p), created_at=format_timestamp(p.created_at))


def _tweet_to_json(t: Tweet) -> dict:
    return {
        "created_at": format_timestamp(t.created_at),
        "text": t.text,
        "truncated": t.truncated,
        "retweet_count": t.retweet_count,
        "favorite_count": t.favorite_count,
        "favorited": t.favorited,
        "retweeted": t.retweeted,
        "is_quote_status": t.is_quote_status,
        "has_poll": t.has_poll,
        "entities": {
            "hashtags": t.hashtag_count,
            "user_mentions": t.mention_count,
            "urls": t.url_count,
            "symbols": t.symbol_count,
            "polls": int(t.has_poll),
        },
    }


def _read_labels(path: Path) -> dict[str, float]:
    labels: dict[str, float] = {}
    lines = read_csv(path, DomainError)
    _, header = next(lines, (1, None))
    if header != ["user_id", "score"]:
        raise DomainError(f"labels file {path} needs header 'user_id,score', got {header}")
    for line, row in lines:
        if len(row) != 2:
            raise DomainError(f"labels file {path} has a malformed row on line {line}: {row}")
        if row[0] in labels:
            raise DomainError(f"labels file {path} lists user {row[0]!r} twice, "
                              f"again on line {line}")
        try:
            score = float(row[1])
        except ValueError:
            score = math.nan
        if not math.isfinite(score):
            raise DomainError(f"labels file {path} gives user {row[0]!r} the score "
                              f"{row[1]!r} on line {line}, expected a finite number")
        labels[row[0]] = score
    return labels


def _read_record(root: Path, user_id: str, labels: dict[str, float] | None) -> UserRecord:
    """One user's files as a record, every field checked, truncated at the
    caps; its score comes from ``labels``, None for an unlabeled dataset."""
    path = root / "profiles" / f"{user_id}.json"
    profile = _profile_from_json(read_json(path, "profile file", DomainError),
                                 f"profile file {path}")

    tweets: list[Tweet] = []
    path = root / "tweets" / f"{user_id}.json"
    if path.is_file():
        what = f"tweets file {path}"
        tweets = [_tweet_from_json(t, what, f"[{i}].")
                  for i, t in enumerate(read_json(path, "tweets file", DomainError, list))]

    comments: list[Comment] = []
    path = root / "comments" / f"{user_id}.json"
    if path.is_file():
        what = f"comments file {path}"
        comments = [Comment(text=field(c, "text", str, what, DomainError, at=f"[{i}]."))
                    for i, c in enumerate(read_json(path, "comments file", DomainError, list))]

    score = None
    if labels is not None:
        if user_id not in labels:
            raise DomainError(f"user {user_id} missing from labels.csv")
        score = labels[user_id]
        if not 0.0 <= score <= 100.0:
            raise DomainError(f"labels file {root / 'labels.csv'} gives user {user_id!r} "
                              f"the score {score!r}, expected a number in [0, 100]")

    return UserRecord(
        user_id=user_id,
        profile=profile,
        tweets=tuple(tweets[:MAX_TWEETS_PER_USER]),
        comments=tuple(comments[:MAX_COMMENTS_PER_USER]),
        score=score,
    )


def iter_records(root: str | Path) -> tuple[DatasetManifest, Iterator[UserRecord]]:
    """A dataset directory's manifest, and its records one at a time, by user_id.

    The manifest (the user ids and whether labels are present) is read
    at once; a missing profiles/ directory or a bad labels.csv raises
    here. Each record is read, checked field by field and truncated at the
    ingest caps only when the iterator reaches it, and only one is held
    at a time. Missing tweet or comment files mean empty lists. Every
    malformed or missing file, every invalid field or score, and every
    labeled user without a profile is collected and raised together
    as one :class:`DatasetLoadError` once the last user has been read,
    rather than dropping records silently; the records yielded before
    are then not a dataset.
    """
    root = Path(root)
    profiles_dir = root / "profiles"
    if not profiles_dir.is_dir():
        raise DatasetLoadError([(str(root), "no profiles/ directory")])

    labels_path = root / "labels.csv"
    labels: dict[str, float] | None = None
    if labels_path.is_file():
        try:
            labels = _read_labels(labels_path)
        except DomainError as exc:
            raise DatasetLoadError([(str(labels_path), str(exc))]) from None

    user_ids = sorted(p.stem for p in profiles_dir.glob("*.json"))
    manifest = DatasetManifest(
        root=root, user_ids=tuple(user_ids), labels_present=labels is not None
    )

    def records() -> Iterator[UserRecord]:
        failures: list[tuple[str, str]] = []
        for user_id in user_ids:
            try:
                record = _read_record(root, user_id, labels)
            except DomainError as exc:
                failures.append((user_id, str(exc)))
                continue
            yield record

        known_ids = set(user_ids)
        for labeled_id in labels or ():
            if labeled_id not in known_ids:
                failures.append((labeled_id, "appears in labels.csv but has no profile file"))
        if failures:
            raise DatasetLoadError(failures)

    return manifest, records()


def read_tweet_texts(root: str | Path, user_id: str, count: int) -> list[str]:
    """The texts of one user's tweets, read again for a later pass.

    The file goes through the same parse and text extraction as
    :func:`iter_records`, with the tweet cap applied, and must still hold
    the ``count`` tweets that pass counted; a file that fails to parse, or
    changed its count since, raises a :class:`DatasetLoadError` naming
    the user and the file.
    """
    path = Path(root) / "tweets" / f"{user_id}.json"
    what = f"tweets file {path}"
    try:
        tweets = read_json(path, "tweets file", DomainError, list)[:MAX_TWEETS_PER_USER]
        texts = [_tweet_text(t, what, f"[{i}].") for i, t in enumerate(tweets)]
    except (DomainError, OSError) as exc:
        raise DatasetLoadError([(user_id, f"re-reading {path}: {exc}")]) from None
    if len(texts) != count:
        raise DatasetLoadError([(user_id, f"{path} holds {len(texts)} tweets, but "
                                          f"{count} were read earlier in this run; "
                                          f"it changed during the run")])
    return texts


def write_dataset(records: list[UserRecord], root: str | Path) -> DatasetManifest:
    """Write records in the documented layout; inverse of :func:`iter_records`.

    Records must be all labeled or all unlabeled; labels.csv is written
    only in the first case. Output is deterministic: users sorted by id,
    JSON keys sorted. Each file is replaced atomically (see
    :func:`~multicred.store.atomic_write`).
    """
    scored = [r.score is not None for r in records]
    if any(scored) and not all(scored):
        raise DomainError("records must be all labeled or all unlabeled")
    labels_present = bool(records) and all(scored)

    root = Path(root)
    for sub in ("profiles", "tweets", "comments"):
        (root / sub).mkdir(parents=True, exist_ok=True)

    ordered = sorted(records, key=lambda r: r.user_id)
    for record in ordered:
        _dump_json(root / "profiles" / f"{record.user_id}.json",
                   _profile_to_json(record.profile))
        _dump_json(root / "tweets" / f"{record.user_id}.json",
                   [_tweet_to_json(t) for t in record.tweets])
        _dump_json(root / "comments" / f"{record.user_id}.json",
                   [{"text": c.text} for c in record.comments])

    if labels_present:
        with atomic_write(root / "labels.csv", newline="") as fh:
            writer = csv.writer(fh)
            writer.writerow(["user_id", "score"])
            for record in ordered:
                writer.writerow([record.user_id, repr(float(record.score))])

    return DatasetManifest(
        root=root,
        user_ids=tuple(r.user_id for r in ordered),
        labels_present=labels_present,
    )


def _dump_json(path: Path, obj) -> None:
    with atomic_write(path) as fh:
        fh.write(json.dumps(obj, indent=2, sort_keys=True))


def _in_bin_flag_sets(system: ClassificationSystem) -> dict[int, list[tuple[bool, ...]]]:
    # All 2^9 criteria combinations, grouped by the class their score bins to.
    by_class: dict[int, list[tuple[bool, ...]]] = {c: [] for c in range(system.num_classes)}
    for combo in itertools.product((False, True), repeat=len(CRITERIA)):
        score = newsguard_score(CriteriaFlags(combo))
        by_class[bin_score(score, system)].append(combo)
    return by_class


def _sample_flags_for_class(
    rng: np.random.Generator,
    planted: int,
    system: ClassificationSystem,
    fallback: dict[int, list[tuple[bool, ...]]],
) -> CriteriaFlags:
    # Bernoulli criteria aimed at the bin center, with a guaranteed
    # in-bin fallback after too many rejections.
    center = (planted + 0.5) / system.num_classes
    for _ in range(64):
        combo = tuple(bool(rng.random() < center) for _ in CRITERIA)
        if bin_score(newsguard_score(CriteriaFlags(combo)), system) == planted:
            return CriteriaFlags(combo)
    options = fallback[planted]
    return CriteriaFlags(options[int(rng.integers(len(options)))])


def _pick_word(rng: np.random.Generator, pool: tuple[str, ...]) -> str:
    # A scalar draw takes the same value from the stream as ``size=1`` and
    # skips numpy's per-call ``size`` handling.
    return pool[int(rng.integers(len(pool)))]


def generate_synthetic(config: SyntheticConfig) -> list[UserRecord]:
    """Generate a labeled synthetic dataset, deterministic per config.

    Classes are planted round-robin; each user's trust-criteria flags are
    sampled so the resulting score bins to the planted class.
    """
    rng = np.random.default_rng(config.seed)
    system = config.system
    c_total = system.num_classes
    separation = config.class_separation
    fallback = _in_bin_flag_sets(system)

    lexicon = default_lexicon()
    anger_pool = tuple(sorted(lexicon["anger"]))
    upbeat_pool = tuple(sorted(lexicon["joy"] | lexicon["love"]))

    records: list[UserRecord] = []
    for i in range(config.num_users):
        planted = i % c_total
        flags = _sample_flags_for_class(rng, planted, system, fallback)
        score = newsguard_score(flags)

        # Feature-level credibility: 0.5 at zero separation for every
        # class, spreading to the class's bin center at full separation.
        cred = 0.5 + separation * ((planted + 0.5) / c_total - 0.5)

        age_days = 300.0 + cred * 3300.0 + float(rng.uniform(0.0, 120.0))
        created = (REFERENCE_INSTANT - timedelta(
            days=age_days, seconds=float(rng.integers(86400))
        )).replace(microsecond=0)
        profile = UserProfile(
            name=f"Account {i}",
            screen_name=f"user{i:05d}",
            created_at=created,
            location="Springfield" if rng.random() < 0.3 + 0.6 * cred else None,
            description="News and commentary" if rng.random() < 0.3 + 0.6 * cred else None,
            url=f"https://example.org/{i}" if rng.random() < 0.2 + 0.7 * cred else None,
            protected=bool(rng.random() < 0.05),
            followers_count=int(np.exp(rng.normal(4.0 + 4.0 * cred, 0.3))),
            friends_count=int(np.exp(rng.normal(6.0 - 2.0 * cred, 0.3))),
            listed_count=int(rng.poisson(2.0 + 40.0 * cred)),
            favourites_count=int(rng.poisson(200.0)),
            geo_enabled=bool(rng.random() < 0.5),
            verified=bool(rng.random() < 0.05 + 0.6 * cred),
            statuses_count=int(rng.poisson(1000.0 + 2000.0 * cred)),
            profile_use_background_image=bool(rng.random() < 0.7),
        )

        tweets = []
        for _ in range(config.tweets_per_user):
            hashtags = int(rng.poisson(0.5 + 4.0 * (1.0 - cred)))
            urls = int(rng.poisson(0.2 + 2.5 * (1.0 - cred)))
            mentions = int(rng.poisson(0.5 + 1.5 * (1.0 - cred)))
            n_words = int(rng.integers(6, 13))
            words = [
                (_pick_word(rng, _SENSATIONAL_WORDS)
                 if rng.random() < (1.0 - cred)
                 else _pick_word(rng, _CREDIBLE_WORDS))
                for _ in range(n_words)
            ]
            words.extend(f"#tag{int(rng.integers(50))}" for _ in range(hashtags))
            words.extend("https://t.co/link" for _ in range(urls))
            words.extend(f"@user{int(rng.integers(200)):05d}" for _ in range(mentions))
            tweets.append(Tweet(
                created_at=REFERENCE_INSTANT - timedelta(
                    seconds=int(rng.integers(30 * 86400))
                ),
                text=" ".join(words),
                truncated=bool(rng.random() < 0.2),
                retweet_count=int(rng.poisson(5.0 + 50.0 * cred)),
                favorite_count=int(rng.poisson(10.0 + 80.0 * cred)),
                favorited=bool(rng.random() < 0.1),
                retweeted=bool(rng.random() < 0.1),
                is_quote_status=bool(rng.random() < 0.15),
                hashtag_count=hashtags,
                mention_count=mentions,
                url_count=urls,
                symbol_count=int(rng.poisson(0.1 + 1.0 * (1.0 - cred))),
                has_poll=bool(rng.random() < 0.05),
            ))

        angry = 0.1 + 0.75 * (1.0 - cred)
        comments = []
        for _ in range(config.comments_per_user):
            n_words = int(rng.integers(5, 11))
            words = [
                (_pick_word(rng, anger_pool) if rng.random() < angry
                 else _pick_word(rng, upbeat_pool) if rng.random() < 0.5
                 else _pick_word(rng, _NEUTRAL_COMMENT_WORDS))
                for _ in range(n_words)
            ]
            comments.append(Comment(text=" ".join(words)))

        records.append(UserRecord(
            user_id=f"user{i:05d}",
            profile=profile,
            tweets=tuple(tweets),
            comments=tuple(comments),
            score=score,
        ))
    return records
