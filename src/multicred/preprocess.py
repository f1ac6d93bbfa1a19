"""Text cleaning applied before any vectorization or sentiment analysis.

Five rules, applied in a fixed order: lowercase, strip URL tokens, strip
hashtag tokens, strip mention tokens, strip stopwords. Tokens that are
pure punctuation are dropped as well. Removal always takes the whole
token, not just the sigil.
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import lru_cache
from importlib import resources


@dataclass(frozen=True)
class CleanText:
    """Cleaned, whitespace-tokenized text.

    Invariants: every token is lowercase, is not a URL, does not start
    with '#' or '@', and is not a stopword.
    """

    tokens: tuple[str, ...]


@lru_cache(maxsize=None)
def default_stopwords() -> frozenset[str]:
    """The stopword list shipped with the package."""
    text = resources.files("multicred.data").joinpath("stopwords.txt").read_text("utf-8")
    return frozenset(w for w in text.splitlines() if w and not w.startswith("#"))


# URL, hashtag and mention tokens are dropped whole.
_DROPPED_PREFIXES = ("http://", "https://", "www.", "#", "@")


def _is_punctuation_only(token: str) -> bool:
    return not (token.isalnum() or any(ch.isalnum() for ch in token))


def preprocess(text: str) -> CleanText:
    """Clean raw text into a :class:`CleanText`; empty input yields no tokens."""
    stopwords = default_stopwords()
    return CleanText(tuple([
        token for token in text.lower().split()
        if not (token.startswith(_DROPPED_PREFIXES) or token in stopwords
                or _is_punctuation_only(token))
    ]))
