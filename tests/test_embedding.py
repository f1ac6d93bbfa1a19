import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from multicred.embedding import (
    EMBEDDING_DIM,
    EMOTIONS,
    EmbedderSpec,
    accumulate_hash_embedding,
    analyze_sentiment,
    default_lexicon,
    embed_text,
)
from multicred.preprocess import CleanText, preprocess


class TestHashEmbedder:
    def test_empty_text_is_zero_vector(self, hash_embedder):
        vec = embed_text(hash_embedder, preprocess(""))
        assert vec.shape == (EMBEDDING_DIM,)
        assert np.all(vec == 0.0)

    def test_deterministic_for_fixed_seed(self, hash_embedder):
        clean = preprocess("breaking story tonight")
        np.testing.assert_array_equal(
            embed_text(hash_embedder, clean), embed_text(hash_embedder, clean)
        )

    def test_different_seeds_differ(self):
        clean = preprocess("breaking story tonight")
        a = embed_text(EmbedderSpec(hash_seed=0), clean)
        b = embed_text(EmbedderSpec(hash_seed=1), clean)
        assert not np.allclose(a, b)

    def test_nonempty_text_has_unit_norm(self, hash_embedder):
        vec = embed_text(hash_embedder, preprocess("quick brown fox"))
        assert np.linalg.norm(vec) == pytest.approx(1.0, abs=1e-9)

    def test_whitespace_never_changes_output(self, hash_embedder):
        a = embed_text(hash_embedder, preprocess("quick   brown\t\tfox"))
        b = embed_text(hash_embedder, preprocess("quick brown fox"))
        np.testing.assert_array_equal(a, b)

    def test_accumulation_linear_over_texts(self):
        texts = ["breaking story develops", "quick brown fox", "markets rally again"]
        cleans = [preprocess(t) for t in texts]
        summed = sum(accumulate_hash_embedding(c, 7) for c in cleans)
        pooled_parts = [accumulate_hash_embedding(c, 7) for c in cleans]
        np.testing.assert_allclose(sum(pooled_parts), summed, atol=0)
        # Joining the texts adds exactly one bigram per boundary between them.
        acc = lambda *tokens: accumulate_hash_embedding(CleanText.from_tokens(tokens), 7)
        bridges = sum(
            acc(a.tokens[-1], b.tokens[0]) - acc(a.tokens[-1]) - acc(b.tokens[0])
            for a, b in zip(cleans, cleans[1:])
        )
        joined = CleanText.from_tokens(t for c in cleans for t in c.tokens)
        np.testing.assert_array_equal(accumulate_hash_embedding(joined, 7), summed + bridges)

    def test_bigrams_contribute(self, hash_embedder):
        # Same unigram multiset, different order: bigrams must differ.
        a = embed_text(hash_embedder, CleanText.from_tokens(["alpha", "beta", "gamma"]))
        b = embed_text(hash_embedder, CleanText.from_tokens(["gamma", "beta", "alpha"]))
        assert not np.allclose(a, b)

    def test_spec_validation(self):
        EmbedderSpec(hash_seed=2**64 - 1)
        for bad in (-1, 2**64, 1.5, "3", True):
            with pytest.raises(ValueError, match="hash_seed"):
                EmbedderSpec(hash_seed=bad)


class TestSentiment:
    def test_empty_text_is_uniform(self):
        dist = analyze_sentiment(preprocess(""))
        np.testing.assert_allclose(dist, np.full(6, 1 / 6), atol=1e-12)

    def test_joy_word_maxes_joy(self):
        word = sorted(default_lexicon()["joy"])[0]
        dist = analyze_sentiment(preprocess(word))
        assert EMOTIONS[int(np.argmax(dist))] == "joy"

    def test_anger_text_leans_angry(self):
        dist = analyze_sentiment(preprocess("furious outrage disgusting lies"))
        assert EMOTIONS[int(np.argmax(dist))] == "anger"

    @settings(max_examples=200, deadline=None)
    @given(st.lists(st.text(min_size=1, max_size=12), max_size=30))
    def test_distribution_invariants(self, tokens):
        dist = analyze_sentiment(CleanText.from_tokens(tokens))
        assert dist.shape == (6,)
        assert np.all(dist >= 0)
        assert abs(float(dist.sum()) - 1.0) < 1e-9

    def test_lexicon_has_six_emotions_with_words(self):
        lex = default_lexicon()
        assert set(lex) == set(EMOTIONS)
        for emotion in EMOTIONS:
            assert len(lex[emotion]) >= 40

