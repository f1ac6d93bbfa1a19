from hypothesis import given, settings
from hypothesis import strategies as st

from multicred.preprocess import CleanText, default_stopwords, preprocess


class TestRules:
    def test_lowercase(self):
        assert preprocess("Hello WORLD").tokens == ("hello", "world")

    def test_urls_hashtags_mentions_stripped(self):
        assert preprocess("check #news http://t.co/x @user").tokens == ("check",)

    def test_www_counts_as_url(self):
        assert preprocess("see www.example.com now").tokens == ("see", "now")

    def test_stopwords_from_shipped_list(self):
        # "this", "is", "a" are all in the shipped list
        assert preprocess("this is a breaking story").tokens == ("breaking", "story")

    def test_punctuation_only_tokens_dropped(self):
        assert preprocess("wow !!! ... ?").tokens == ("wow",)

    def test_empty_input(self):
        assert preprocess("").tokens == ()

    def test_uppercase_url_scheme_still_stripped(self):
        assert preprocess("HTTP://LOUD.example").tokens == ()


class TestShippedStopwords:
    def test_size_and_content(self):
        words = default_stopwords()
        assert 150 <= len(words) <= 200
        assert {"this", "is", "a", "the"} <= words
        assert all(w == w.lower() for w in words)


def _invariants_hold(clean: CleanText):
    stopwords = default_stopwords()
    for token in clean.tokens:
        assert token == token.lower()
        assert not token.startswith(("#", "@"))
        assert not token.startswith(("http://", "https://", "www."))
        assert token not in stopwords
        assert any(ch.isalnum() for ch in token)


class TestProperties:
    @settings(max_examples=300, deadline=None)
    @given(st.text(max_size=200))
    def test_output_invariants_for_any_unicode(self, text):
        _invariants_hold(preprocess(text))

    @settings(max_examples=200, deadline=None)
    @given(st.text(max_size=200))
    def test_idempotence(self, text):
        once = preprocess(text)
        twice = preprocess(" ".join(once.tokens))
        assert twice.tokens == once.tokens


def _rule_by_rule(text: str) -> tuple[str, ...]:
    """The cleaning rules applied one at a time, each dropping the token."""
    stopwords = default_stopwords()
    kept = []
    for token in text.lower().split():
        if token.startswith(("http://", "https://", "www.")):
            continue
        if token.startswith("#") or token.startswith("@"):
            continue
        if token in stopwords:
            continue
        if not any(ch.isalnum() for ch in token):
            continue
        kept.append(token)
    return tuple(kept)


_TOKENS = st.one_of(
    st.sampled_from(["http://t.co/x", "HTTPS://A.b", "www.site.org", "wwwx", "http:/no"]),
    st.sampled_from(["#news", "@user", "#", "@", "a#b", "x@y"]),
    st.sampled_from(sorted(default_stopwords())).map(lambda w: w.upper() if len(w) % 2 else w),
    st.sampled_from(["—", "–", "‐", "...", "!!!", "?!", "-—-", "'", "“”", "·"]),
    st.sampled_from(["42", "2024", "٣", "²", "7th", "-5", "3.14", "—1", "é", "ǅ"]),
    st.text(st.characters(exclude_categories=("Cs",)), min_size=1, max_size=8),
)


class TestRuleEquivalence:
    @settings(max_examples=400, deadline=None)
    @given(st.lists(st.tuples(_TOKENS, st.sampled_from([" ", "\t", "\n", "  ", "　"]))))
    def test_comprehension_matches_rule_by_rule_loop(self, parts):
        text = "".join(token + gap for token, gap in parts)
        assert preprocess(text).tokens == _rule_by_rule(text)
