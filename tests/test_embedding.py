import json
import threading
from http.server import BaseHTTPRequestHandler, HTTPServer

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from multicred.embedding import (
    EMBEDDING_DIM,
    EMOTIONS,
    EmbedderSpec,
    ProtocolError,
    TransportError,
    accumulate_hash_embedding,
    analyze_sentiment,
    default_lexicon,
    embed_text,
    remote_embed_batch,
)
from multicred.preprocess import CleanText, preprocess


class _MockEmbedServer:
    """Serves scripted responses; records how many requests arrived."""

    def __init__(self, script):
        self.script = list(script)
        self.requests = 0
        outer = self

        class Handler(BaseHTTPRequestHandler):
            def do_POST(self):
                outer.requests += 1
                length = int(self.headers["Content-Length"])
                body = json.loads(self.rfile.read(length))
                action = outer.script.pop(0) if outer.script else "echo_zeros"
                if action == "echo_zeros":
                    vectors = [[0.0] * EMBEDDING_DIM for _ in body["texts"]]
                    payload = json.dumps({"vectors": vectors}).encode()
                    self.send_response(200)
                elif action == "short_vector_at_2":
                    vectors = [[0.0] * EMBEDDING_DIM for _ in body["texts"]]
                    vectors[2] = [0.0] * (EMBEDDING_DIM - 1)
                    payload = json.dumps({"vectors": vectors}).encode()
                    self.send_response(200)
                elif action == "error_500":
                    payload = b"boom"
                    self.send_response(500)
                else:
                    raise AssertionError(f"unknown action {action}")
                self.send_header("Content-Type", "application/json")
                self.send_header("Content-Length", str(len(payload)))
                self.end_headers()
                self.wfile.write(payload)

            def log_message(self, *args):
                pass

        self.server = HTTPServer(("127.0.0.1", 0), Handler)
        self.endpoint = f"http://127.0.0.1:{self.server.server_port}/embed"
        self.thread = threading.Thread(target=self.server.serve_forever, daemon=True)
        self.thread.start()

    def close(self):
        self.server.shutdown()
        self.server.server_close()


@pytest.fixture
def mock_server():
    servers = []

    def factory(script=()):
        server = _MockEmbedServer(script)
        servers.append(server)
        return server

    yield factory
    for server in servers:
        server.close()


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
        with pytest.raises(ValueError):
            EmbedderSpec(kind="remote")  # endpoint missing
        with pytest.raises(ValueError):
            EmbedderSpec(kind="hash", endpoint="http://x")
        with pytest.raises(ValueError):
            EmbedderSpec(kind="bert")


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


class TestRemoteEmbedding:
    def test_zeros_echo_preserves_order_and_length(self, mock_server):
        server = mock_server(["echo_zeros"])
        vectors = remote_embed_batch(server.endpoint, ["a", "b", "c"])
        assert len(vectors) == 3
        for v in vectors:
            assert v.shape == (EMBEDDING_DIM,)
            assert np.all(v == 0.0)

    def test_short_vector_names_index(self, mock_server):
        server = mock_server(["short_vector_at_2"])
        with pytest.raises(ProtocolError, match="index 2"):
            remote_embed_batch(server.endpoint, ["a", "b", "c", "d"])

    def test_empty_batch_sends_nothing(self, mock_server):
        server = mock_server()
        assert remote_embed_batch(server.endpoint, []) == []
        assert server.requests == 0

    def test_transient_500_is_retried(self, mock_server):
        server = mock_server(["error_500", "error_500", "echo_zeros"])
        vectors = remote_embed_batch(server.endpoint, ["a"])
        assert len(vectors) == 1
        assert server.requests == 3

    def test_connection_failure_after_retries(self):
        with pytest.raises(TransportError, match="4 attempts"):
            remote_embed_batch("http://127.0.0.1:9/embed", ["a"])

    def test_embed_text_delegates_to_remote(self, mock_server):
        server = mock_server(["echo_zeros"])
        spec = EmbedderSpec(kind="remote", endpoint=server.endpoint)
        vec = embed_text(spec, preprocess("hello world"))
        assert vec.shape == (EMBEDDING_DIM,)
        assert server.requests == 1
