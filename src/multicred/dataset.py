"""Dataset ingestion, persistence, and synthetic generation.

On-disk layout, one dataset per directory:

    <root>/profiles/<user_id>.json    profile fields, created_at as ISO-8601 UTC
    <root>/tweets/<user_id>.json      array of tweet objects, entity counts
                                      under an "entities" object
    <root>/comments/<user_id>.json    array of {"text": ...}
    <root>/labels.csv                 header "user_id,score"; absent for
                                      unlabeled prediction sets

Each record kind, a profile or a tweet, is stated once as a table of
:class:`Field` rows, :data:`PROFILE` and :data:`TWEET`: a row gives a
field's JSON key, its type, the default an absent key takes, its range
rule and the feature columns it fills. The reader
(:meth:`RecordKind.read`), the writer (:meth:`RecordKind.to_json`), the
generator's record classes (:class:`UserProfile`, :class:`Tweet`) and the
feature layout names all come from those tables.

Files are read strictly, through :mod:`multicred.store`: UTF-8 JSON with
no repeated key and no ``NaN`` or ``Infinity``, and typed fields, none
coerced. Booleans are ``true``/``false``; counts integers in
[0, 2**63 - 1], or an entity list (as raw API dumps give it) counted by
length; ``created_at`` and ``text`` strings, a tweet's text at most
4,000 characters; ``location``, ``description`` and ``url`` a string or
null. Absent fields take their defaults; any other value, or a labels
score that is not a finite number or not in [0, 100], names the file.

:func:`~multicred.features.scan_dataset` is the one reader of a whole
dataset: it opens it with :func:`open_dataset` and reads each user's
files through the tables. :func:`read_tweet_texts` re-reads one user's
tweet texts only, for passes that need nothing else.

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
from dataclasses import dataclass, make_dataclass
from datetime import datetime, timedelta, timezone
from pathlib import Path
from typing import Callable, Optional

import numpy as np

from .domain import (
    CRITERIA,
    MAX_COUNT,
    MAX_TWEET_TEXT_LEN,
    MAX_TWEETS_PER_USER,
    MAX_COMMENTS_PER_USER,
    ClassificationSystem,
    CriteriaFlags,
    DomainError,
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

    def __reduce__(self):
        # Rebuilt from its failures, so it crosses a process boundary whole.
        return type(self), (self.failures,)


# The kind of an optional text, whose feature column is its presence.
_TEXT_OR_NULL = (str, type(None))


@dataclass(frozen=True)
class Field:
    """One field of a record kind.

    ``key`` is its JSON key, dotted under a nested object; the record
    class's attribute is the key's last part. ``kind`` is what
    :func:`~multicred.store.field` accepts there, except ``datetime``: a
    required ISO-8601 string, read as aware UTC. ``default`` is what an
    absent key gives, or a function of the values read before it.
    ``valid`` and ``requirement`` are the store.field range rule and its
    wording. ``columns`` names the feature columns the field fills: six
    for a time (year to second), a 0/1 presence flag for a string or
    null, else the value itself.
    """

    key: str
    kind: type | tuple[type, ...]
    default: object = None
    columns: tuple[str, ...] = ()
    valid: Optional[Callable] = None
    requirement: str = ""

    @property
    def name(self) -> str:
        return self.key.rpartition(".")[2]


def _timestamp(doc: dict, key: str, what: str, at: str) -> datetime:
    """``doc[key]``, a string, as aware UTC; a DomainError naming it if it
    does not parse or leaves the datetime range in UTC."""
    value = field(doc, key, str, what, DomainError, at=at)
    try:
        return parse_timestamp(value)
    except (DomainError, OverflowError):
        raise DomainError(f"{what} field {at}{key} is {json.dumps(value)}, expected "
                          f"an ISO-8601 time within the datetime range in UTC") from None


class RecordKind:
    """A kind of input record, stated once as a table of fields in feature
    column order: ``columns`` are the layout names, ``type`` the frozen
    dataclass the generator builds, :meth:`read` the checked reader and
    :meth:`to_json` the writer."""

    def __init__(self, name: str, fields: tuple[Field, ...]):
        self.fields = fields
        self.columns = tuple(c for f in fields for c in f.columns)
        self.type = make_dataclass(name, [f.name for f in fields], frozen=True)
        starts = itertools.accumulate((len(f.columns) for f in fields), initial=0)
        # The check order decides which fault a record with several is named
        # by, and is kept stable: a nested object's fields first, then the
        # creation time, then the rest in table order. Each check holds the
        # field, its first column, and where it sits: the key of its object
        # ("" for the record itself) and its own key there.
        self._checks = [(f, start, *f.key.rpartition(".")[::2]) for f, start in sorted(
            zip(fields, starts), key=lambda pair: ("." not in pair[0].key,
                                                   pair[0].kind is not datetime))]

    def read(self, doc: dict, what: str, at: str = "") -> list:
        """The feature columns of the record ``doc``, every field checked.

        A field that breaks its rule raises a DomainError naming ``what``
        and the field ``at + key``; only the first fault is named.
        """
        row: list = [0] * len(self.columns)
        got = {}
        objects = {"": (doc, at)}  # the objects fields sit in, each with its path
        for f, start, outer, key in self._checks:
            kind, default = f.kind, f.default
            if kind is datetime:
                t = _timestamp(doc, key, what, at)
                row[start:start + 6] = t.year, t.month, t.day, t.hour, t.minute, t.second
                continue
            if outer not in objects:  # a nested object, read once; absent, it is empty
                objects[outer] = (field(doc, outer, dict, what, DomainError, {}, at=at),
                                  f"{at}{outer}.")
            obj, where = objects[outer]
            if callable(default):
                default = default(got)
            value = field(obj, key, kind, what, DomainError, default, f.valid, f.requirement, where)
            if type(value) is list:  # raw API dumps list the entities, which count by length
                value = len(value)
            got[f.key] = value
            if f.columns:
                row[start] = bool(value) if kind is _TEXT_OR_NULL else value
        return row

    def to_json(self, record) -> dict:
        """The JSON object of a record of :attr:`type`."""
        doc: dict = {}
        for f in self.fields:
            value = getattr(record, f.name)
            outer, _, key = f.key.rpartition(".")
            (doc.setdefault(outer, {}) if outer else doc)[key] = (
                format_timestamp(value) if f.kind is datetime else value)
        return doc


def _in_range(count) -> bool:
    return type(count) is list or 0 <= count <= MAX_COUNT


def _fits(text: str) -> bool:
    return len(text) <= MAX_TWEET_TEXT_LEN


def _time_columns(prefix: str) -> tuple[str, ...]:
    return tuple(f"{prefix}_{part}" for part in
                 ("year", "month", "day", "hour", "minute", "second"))


# Every integer is a count: in range, or an entity list, counted by length.
_COUNT = (_in_range, "in [0, 2**63 - 1]")
_TEXT = Field("text", str, "", (), _fits, f"of at most {MAX_TWEET_TEXT_LEN} characters")

PROFILE = RecordKind("UserProfile", (
    Field("name", str, ""),
    Field("screen_name", str, ""),
    Field("location", _TEXT_OR_NULL, None, ("has_location",)),
    Field("description", _TEXT_OR_NULL, None, ("has_description",)),
    Field("url", _TEXT_OR_NULL, None, ("has_url",)),
    Field("protected", bool, False, ("protected",)),
    Field("followers_count", int, 0, ("followers_count",), *_COUNT),
    Field("friends_count", int, 0, ("friends_count",), *_COUNT),
    Field("listed_count", int, 0, ("listed_count",), *_COUNT),
    Field("created_at", datetime, None, _time_columns("created")),
    Field("favourites_count", int, 0, ("favourites_count",), *_COUNT),
    Field("geo_enabled", bool, False, ("geo_enabled",)),
    Field("verified", bool, False, ("verified",)),
    Field("statuses_count", int, 0, ("statuses_count",), *_COUNT),
    Field("profile_use_background_image", bool, False, ("profile_use_background_image",)),
))

TWEET = RecordKind("Tweet", (
    Field("created_at", datetime, None, _time_columns("tweet")),
    _TEXT,
    Field("truncated", bool, False, ("tweet_truncated",)),
    Field("retweet_count", int, 0, ("tweet_retweet_count",), *_COUNT),
    Field("favorite_count", int, 0, ("tweet_favorite_count",), *_COUNT),
    Field("favorited", bool, False, ("tweet_favorited",)),
    Field("retweeted", bool, False, ("tweet_retweeted",)),
    Field("is_quote_status", bool, False, ("tweet_is_quote_status",)),
    Field("entities.hashtags", (int, list), 0, ("tweet_hashtag_count",), *_COUNT),
    Field("entities.user_mentions", (int, list), 0, ("tweet_mention_count",), *_COUNT),
    Field("entities.urls", (int, list), 0, ("tweet_url_count",), *_COUNT),
    Field("entities.symbols", (int, list), 0, ("tweet_symbol_count",), *_COUNT),
    Field("entities.polls", (int, list), 0, (), *_COUNT),
    Field("has_poll", bool, lambda got: got["entities.polls"] > 0, ("tweet_has_poll",)),
))

# The generator's records: one attribute per table row.
UserProfile = PROFILE.type
Tweet = TWEET.type


@dataclass(frozen=True)
class UserRecord:
    """One generated account: profile, recent tweets, the texts of recent
    comments, optional label."""

    user_id: str
    profile: UserProfile
    tweets: tuple[Tweet, ...] = ()
    comments: tuple[str, ...] = ()
    score: Optional[float] = None

    def __post_init__(self):
        # Accept lists on construction but store immutable tuples.
        if not isinstance(self.tweets, tuple):
            object.__setattr__(self, "tweets", tuple(self.tweets))
        if not isinstance(self.comments, tuple):
            object.__setattr__(self, "comments", tuple(self.comments))


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


def open_dataset(root: str | Path) -> tuple[DatasetManifest, Optional[dict[str, float]]]:
    """A dataset directory's manifest, and its labels by user id (None for
    an unlabeled dataset).

    A missing profiles/ directory or a bad labels.csv raises a
    :class:`DatasetLoadError`; the user ids are the profile files' names,
    sorted.
    """
    root = Path(root)
    profiles_dir = root / "profiles"
    if not profiles_dir.is_dir():
        raise DatasetLoadError([(str(root), "no profiles/ directory")])

    labels_path = root / "labels.csv"
    labels: Optional[dict[str, float]] = None
    if labels_path.is_file():
        try:
            labels = _read_labels(labels_path)
        except DomainError as exc:
            raise DatasetLoadError([(str(labels_path), str(exc))]) from None

    user_ids = tuple(sorted(p.stem for p in profiles_dir.glob("*.json")))
    manifest = DatasetManifest(root=root, user_ids=user_ids, labels_present=labels is not None)
    return manifest, labels


def read_tweet_texts(root: str | Path, user_id: str, count: int) -> list[str]:
    """The texts of one user's tweets, read again for a later pass.

    The file goes through the same parse and the same check of the text
    field as the scan, with the tweet cap applied, and must still hold
    the ``count`` tweets that pass counted; a file that fails to parse, or
    changed its count since, raises a :class:`DatasetLoadError` naming
    the user and the file.
    """
    path = Path(root) / "tweets" / f"{user_id}.json"
    what = f"tweets file {path}"
    try:
        tweets = read_json(path, "tweets file", DomainError, list)[:MAX_TWEETS_PER_USER]
        texts = [field(t, _TEXT.key, _TEXT.kind, what, DomainError, _TEXT.default, _TEXT.valid,
                       _TEXT.requirement, f"[{i}].") for i, t in enumerate(tweets)]
    except (DomainError, OSError) as exc:
        raise DatasetLoadError([(user_id, f"re-reading {path}: {exc}")]) from None
    if len(texts) != count:
        raise DatasetLoadError([(user_id, f"{path} holds {len(texts)} tweets, but "
                                          f"{count} were read earlier in this run; "
                                          f"it changed during the run")])
    return texts


def write_dataset(records: list[UserRecord], root: str | Path) -> DatasetManifest:
    """Write records in the documented layout, each profile and tweet as
    its table gives it.

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
                   PROFILE.to_json(record.profile))
        _dump_json(root / "tweets" / f"{record.user_id}.json",
                   [TWEET.to_json(t) for t in record.tweets])
        _dump_json(root / "comments" / f"{record.user_id}.json",
                   [{"text": text} for text in record.comments])

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
        fh.write(json.dumps(obj, sort_keys=True))


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
                hashtags=hashtags,
                user_mentions=mentions,
                urls=urls,
                symbols=int(rng.poisson(0.1 + 1.0 * (1.0 - cred))),
                has_poll=(has_poll := bool(rng.random() < 0.05)),
                polls=int(has_poll),
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
            comments.append(" ".join(words))

        records.append(UserRecord(
            user_id=f"user{i:05d}",
            profile=profile,
            tweets=tuple(tweets),
            comments=tuple(comments),
            score=score,
        ))
    return records
