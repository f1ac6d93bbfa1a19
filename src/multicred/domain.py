"""Core domain types: credibility scores, class binning, ingest caps and times.

Credibility scores live on a 0-100 scale (0 = least credible). A
:class:`ClassificationSystem` partitions that scale into equal-width bins;
class 0 is always the lowest-credibility bin.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from datetime import datetime, timezone

MAX_TWEETS_PER_USER = 3250
MAX_COMMENTS_PER_USER = 800
MAX_TWEET_TEXT_LEN = 4000

ALLOWED_CLASS_COUNTS = (4, 6, 8, 10)

# Largest count a record may hold: a signed 64-bit integer, which every
# feature converts to a float without overflow.
MAX_COUNT = 2**63 - 1

# The nine trust criteria and their score weights, ordered from most to
# least valuable. Weights sum to exactly 100.
CRITERIA = (
    ("no_false_content", 22.0),
    ("responsible_reporting", 18.0),
    ("corrects_errors", 12.5),
    ("news_opinion_distinction", 12.5),
    ("avoids_deceptive_headlines", 10.0),
    ("discloses_ownership", 7.5),
    ("labels_advertising", 7.5),
    ("reveals_management", 5.0),
    ("names_content_creators", 5.0),
)

class DomainError(ValueError):
    """A value violates a domain contract (range, membership, shape)."""


class StateError(RuntimeError):
    """An operation ran against stale or inconsistent model state."""


@dataclass(frozen=True)
class ClassificationSystem:
    """A partition of [0, 100] into num_classes equal-width credibility bins."""

    num_classes: int

    def __post_init__(self):
        if self.num_classes not in ALLOWED_CLASS_COUNTS:
            raise DomainError(
                f"num_classes must be one of {ALLOWED_CLASS_COUNTS}, got {self.num_classes}"
            )


@dataclass(frozen=True)
class CriteriaFlags:
    """Nine booleans, one per trust criterion, in CRITERIA order."""

    flags: tuple[bool, ...]

    def __post_init__(self):
        if not isinstance(self.flags, tuple):
            object.__setattr__(self, "flags", tuple(self.flags))
        if len(self.flags) != len(CRITERIA):
            raise DomainError(f"expected {len(CRITERIA)} criteria flags, got {len(self.flags)}")


def bin_score(score: float, system: ClassificationSystem) -> int:
    """Map a credibility score in [0, 100] to a class index in [0, C).

    Bins are equal width (100/C); the top boundary score == 100 folds into
    the last class. Class 0 is the lowest-credibility interval.
    """
    if not math.isfinite(score) or score < 0.0 or score > 100.0:
        raise DomainError(f"score out of [0,100]: {score}")
    c = system.num_classes
    if score >= 100.0:
        return c - 1
    return int(score * c // 100)


def newsguard_score(flags: CriteriaFlags) -> float:
    """Sum the criterion weights of all satisfied criteria (0 to 100)."""
    return float(sum(w for (_, w), on in zip(CRITERIA, flags.flags) if on))


def parse_timestamp(value: str) -> datetime:
    """Parse an ISO-8601 timestamp (or legacy Twitter format) to aware UTC.

    Naive timestamps are assumed to already be UTC.
    """
    text = value.strip()
    dt = None
    iso = text[:-1] + "+00:00" if text.endswith("Z") else text
    try:
        dt = datetime.fromisoformat(iso)
    except ValueError:
        try:
            dt = datetime.strptime(text, "%a %b %d %H:%M:%S %z %Y")
        except ValueError:
            raise DomainError(f"unparseable timestamp: {value!r}") from None
    if dt.tzinfo is None:
        dt = dt.replace(tzinfo=timezone.utc)
    return dt.astimezone(timezone.utc)


def format_timestamp(dt: datetime) -> str:
    """Render an aware datetime as canonical ISO-8601 UTC with a Z suffix."""
    if dt.tzinfo is None:
        dt = dt.replace(tzinfo=timezone.utc)
    return dt.astimezone(timezone.utc).isoformat().replace("+00:00", "Z")
