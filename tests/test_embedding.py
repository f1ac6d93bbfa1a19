import hashlib
import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from multicred.embedding import (
    EMBEDDING_DIM,
    EMOTIONS,
    EmbedderSpec,
    _hash_counts,
    analyze_sentiment,
    default_lexicon,
    embed_texts,
)
from multicred.preprocess import CleanText, preprocess

from conftest import comment_emotions


def embed_one(spec, clean):
    return embed_texts(spec, [clean])[0]


class TestHashEmbedder:
    def test_empty_text_is_zero_vector(self, hash_embedder):
        vec = embed_one(hash_embedder, preprocess(""))
        assert vec.shape == (EMBEDDING_DIM,)
        assert np.all(vec == 0.0)

    def test_deterministic_for_fixed_seed(self, hash_embedder):
        clean = preprocess("breaking story tonight")
        np.testing.assert_array_equal(
            embed_one(hash_embedder, clean), embed_one(hash_embedder, clean)
        )

    def test_different_seeds_differ(self):
        clean = preprocess("breaking story tonight")
        a = embed_one(EmbedderSpec(hash_seed=0), clean)
        b = embed_one(EmbedderSpec(hash_seed=1), clean)
        assert not np.allclose(a, b)

    def test_nonempty_text_has_unit_norm(self, hash_embedder):
        vec = embed_one(hash_embedder, preprocess("quick brown fox"))
        assert np.linalg.norm(vec) == pytest.approx(1.0, abs=1e-9)

    def test_whitespace_never_changes_output(self, hash_embedder):
        a = embed_one(hash_embedder, preprocess("quick   brown\t\tfox"))
        b = embed_one(hash_embedder, preprocess("quick brown fox"))
        np.testing.assert_array_equal(a, b)

    def test_accumulation_linear_over_texts(self):
        texts = ["breaking story develops", "quick brown fox", "markets rally again"]
        cleans = [preprocess(t) for t in texts]
        summed = sum(_hash_counts([c], 7)[0] for c in cleans)
        pooled_parts = list(_hash_counts(cleans, 7))
        np.testing.assert_allclose(sum(pooled_parts), summed, atol=0)
        # Joining the texts adds exactly one bigram per boundary between them.
        acc = lambda *tokens: _hash_counts([CleanText(tokens)], 7)[0]
        bridges = sum(
            acc(a.tokens[-1], b.tokens[0]) - acc(a.tokens[-1]) - acc(b.tokens[0])
            for a, b in zip(cleans, cleans[1:])
        )
        joined = CleanText(tuple(t for c in cleans for t in c.tokens))
        np.testing.assert_array_equal(_hash_counts([joined], 7)[0], summed + bridges)

    def test_bigrams_contribute(self, hash_embedder):
        # Same unigram multiset, different order: bigrams must differ.
        a = embed_one(hash_embedder, CleanText(("alpha", "beta", "gamma")))
        b = embed_one(hash_embedder, CleanText(("gamma", "beta", "alpha")))
        assert not np.allclose(a, b)

    def test_spec_validation(self):
        EmbedderSpec(hash_seed=2**64 - 1)
        for bad in (-1, 2**64, 1.5, "3", True):
            with pytest.raises(ValueError, match="hash_seed"):
                EmbedderSpec(hash_seed=bad)


def _reference_counts(cleans, seed):
    """Per-feature signed hashing, one blake2b call per feature occurrence."""
    key = seed.to_bytes(8, "little")
    out = np.zeros((len(cleans), EMBEDDING_DIM))
    for r, clean in enumerate(cleans):
        toks = clean.tokens
        feats = ["1|" + t for t in toks] + ["2|" + a + " " + b for a, b in zip(toks, toks[1:])]
        for feat in feats:
            digest = hashlib.blake2b(feat.encode("utf-8"), digest_size=8, key=key).digest()
            h = int.from_bytes(digest, "little")
            out[r, h % EMBEDDING_DIM] += -1.0 if h >> 63 else 1.0
    return out


def _reference_rows(cleans, seed):
    out = _reference_counts(cleans, seed)
    for r in range(len(out)):
        norm = math.sqrt(sum(v * v for v in out[r].tolist()))
        if norm > 0.0:
            out[r] = out[r] / norm
    return out


# Few distinct words, so features repeat within and across texts, plus any
# non-surrogate text (surrogates cannot be UTF-8 encoded).
_TOKEN = st.one_of(
    st.sampled_from(["fox", "red", "fox red", "ünï", "42", "—"]),
    st.text(st.characters(exclude_categories=("Cs",)), min_size=1, max_size=6),
)
_BATCH = st.lists(st.lists(_TOKEN, max_size=10).map(tuple).map(CleanText), max_size=6)
_SEED = st.one_of(st.sampled_from([0, 2**64 - 1]), st.integers(0, 2**64 - 1))


class TestBatchedOracle:
    @settings(max_examples=200, deadline=None)
    @given(_BATCH, _SEED)
    def test_rows_bitwise_equal_per_feature_reference(self, cleans, seed):
        got = embed_texts(EmbedderSpec(hash_seed=seed), cleans)
        assert got.shape == (len(cleans), EMBEDDING_DIM) and got.dtype == np.float64
        assert got.tobytes() == _reference_rows(cleans, seed).tobytes()

    @settings(max_examples=100, deadline=None)
    @given(_BATCH.filter(bool), _SEED)
    def test_row_independent_of_its_batch(self, cleans, seed):
        spec = EmbedderSpec(hash_seed=seed)
        batch = embed_texts(spec, cleans)
        for i, clean in enumerate(cleans):
            assert batch[i].tobytes() == embed_texts(spec, [clean])[0].tobytes()

    @pytest.mark.parametrize("seed", [0, 2**64 - 1])
    def test_edge_batches_match_reference(self, seed):
        spec = EmbedderSpec(hash_seed=seed)
        empty = embed_texts(spec, [])
        assert empty.shape == (0, EMBEDDING_DIM) and empty.dtype == np.float64
        cases = [
            [preprocess("")],
            [preprocess(""), preprocess("")],
            [CleanText(("fox", "fox", "fox", "fox"))],  # repeats in one text
            [preprocess("quick fox"), preprocess(""), preprocess("quick fox quick fox")],
        ]
        for cleans in cases:
            got = embed_texts(spec, cleans)
            assert got.tobytes() == _reference_rows(cleans, seed).tobytes()

    @settings(max_examples=100, deadline=None)
    @given(_BATCH, _SEED)
    def test_unnormalized_accumulation_matches_reference_counts(self, cleans, seed):
        counts = _hash_counts(cleans, seed)
        assert counts.shape == (len(cleans), EMBEDDING_DIM)
        assert counts.tobytes() == _reference_counts(cleans, seed).tobytes()


class TestSentiment:
    def test_empty_text_is_uniform(self):
        dist = analyze_sentiment([preprocess("")])
        np.testing.assert_allclose(dist, np.full(6, 1 / 6), atol=1e-12)

    def test_joy_word_maxes_joy(self):
        word = sorted(default_lexicon()["joy"])[0]
        dist = analyze_sentiment([preprocess(word)])
        assert EMOTIONS[int(np.argmax(dist))] == "joy"

    def test_anger_text_leans_angry(self):
        dist = analyze_sentiment([preprocess("furious outrage disgusting lies")])
        assert EMOTIONS[int(np.argmax(dist))] == "anger"

    @settings(max_examples=200, deadline=None)
    @given(st.lists(st.text(min_size=1, max_size=12), max_size=30))
    def test_distribution_invariants(self, tokens):
        dist = analyze_sentiment([CleanText(tuple(tokens))])
        assert dist.shape == (6,)
        assert np.all(dist >= 0)
        assert abs(float(dist.sum()) - 1.0) < 1e-9

    @settings(max_examples=100, deadline=None)
    @given(st.lists(st.lists(st.sampled_from(
        sorted(set().union(*default_lexicon().values())))
        | st.text(min_size=1, max_size=6), max_size=12), min_size=1, max_size=25))
    def test_user_block_bit_equal_to_mean_of_comment_distributions(self, comments):
        cleans = [CleanText(tuple(tokens)) for tokens in comments]
        expected = np.mean([comment_emotions(c) for c in cleans], axis=0)
        assert analyze_sentiment(cleans).tobytes() == expected.tobytes()

    def test_lexicon_has_six_emotions_with_words(self):
        lex = default_lexicon()
        assert set(lex) == set(EMOTIONS)
        for emotion in EMOTIONS:
            assert len(lex[emotion]) >= 40

