import copy
import csv
import ctypes
import json
import os
import pickle
import tempfile
import tracemalloc
from datetime import datetime
from pathlib import Path

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from dataclasses import replace

from multicred import features as feat_mod
from multicred.dataset import (
    PROFILE,
    TWEET,
    DatasetLoadError,
    SyntheticConfig,
    generate_synthetic,
    write_dataset,
)
from multicred.domain import MAX_COUNT, MAX_TWEET_TEXT_LEN, ClassificationSystem, DomainError
from multicred.embedding import embed_texts
from multicred.preprocess import preprocess
from multicred.features import (
    FEATURE_NAMES,
    NUM_FEATURES,
    NUM_SCALAR_FEATURES,
    LabeledDataset,
    NormalizationStats,
    apply_minmax,
    feature_layout,
    fill_latents,
    fit_minmax,
    read_feature_csv,
    scan_dataset,
    smote,
    smote_plan,
    split,
    write_feature_csv,
)
from multicred.network import ShapeError

from conftest import comment_emotions, feature_rows, use_cpus


def make_record(user_id="u1", n_tweets=3, n_comments=2, score=50.0):
    [record] = synthetic_records(1, max(n_tweets, 1), max(n_comments, 1))
    return replace(record, user_id=user_id, tweets=record.tweets[:n_tweets],
                   comments=record.comments[:n_comments], score=score)


# The profile and tweet feature columns, written out here independently of
# the field tables in dataset.py that the scan reads them through.

def profile_scalars(profile) -> np.ndarray:
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


def tweet_scalars(tweet) -> np.ndarray:
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
        float(tweet.hashtags),
        float(tweet.user_mentions),
        float(tweet.urls),
        float(tweet.symbols),
        float(tweet.has_poll),
    ])


class TestMinMax:
    def test_fit_exact_min_max(self):
        stats = fit_minmax(np.array([[0.0], [5.0], [10.0]]))
        assert stats.minimum[0] == 0.0 and stats.maximum[0] == 10.0

    def test_midpoint_maps_to_half(self):
        stats = NormalizationStats(np.array([0.0]), np.array([10.0]))
        assert apply_minmax(stats, np.array([5.0]))[0] == pytest.approx(0.5)

    def test_boundaries(self):
        stats = NormalizationStats(np.array([2.0]), np.array([8.0]))
        assert apply_minmax(stats, np.array([2.0]))[0] == 0.0
        assert apply_minmax(stats, np.array([8.0]))[0] == 1.0

    def test_constant_dimension_maps_to_zero(self):
        stats = fit_minmax(np.array([[3.0], [3.0]]))
        assert apply_minmax(stats, np.array([3.0]))[0] == 0.0

    def test_single_row_fit(self):
        stats = fit_minmax(np.array([[1.0, 2.0]]))
        np.testing.assert_array_equal(stats.minimum, stats.maximum)

    def test_unseen_values_clipped(self):
        stats = NormalizationStats(np.array([0.0]), np.array([10.0]))
        assert apply_minmax(stats, np.array([-5.0]))[0] == 0.0
        assert apply_minmax(stats, np.array([25.0]))[0] == 1.0

    def test_fitting_set_lands_in_unit_box(self):
        matrix = np.random.default_rng(0).normal(scale=40, size=(50, 7))
        stats = fit_minmax(matrix)
        scaled = apply_minmax(stats, matrix)
        assert scaled.min() >= 0.0 and scaled.max() <= 1.0

    def test_empty_matrix_rejected(self):
        with pytest.raises(DomainError):
            fit_minmax(np.zeros((0, 3)))

    def test_dimension_mismatch(self):
        stats = NormalizationStats(np.zeros(3), np.ones(3))
        with pytest.raises(ShapeError):
            apply_minmax(stats, np.zeros(4))


class TestAggregateMean:
    """A user's tweet block is the component-wise mean of its tweets' columns."""

    @staticmethod
    def tweet_block(root, tweets) -> np.ndarray:
        [record] = synthetic_records(1, 1)
        write_dataset([replace(record, tweets=tweets)], root)
        return scan_dataset(root).x[0, 18:35]

    def test_mean_of_duplicates(self, tmp_path):
        [tweet] = synthetic_records(1, 1)[0].tweets
        block = self.tweet_block(tmp_path, (tweet, tweet))
        np.testing.assert_array_equal(block, tweet_scalars(tweet))

    def test_mean_of_basis_vectors(self, tmp_path):
        [tweet] = synthetic_records(1, 1)[0].tweets
        block = self.tweet_block(tmp_path, (replace(tweet, truncated=True, favorited=False),
                                            replace(tweet, truncated=False, favorited=True)))
        truncated = FEATURE_NAMES.index("tweet_truncated") - 18
        favorited = FEATURE_NAMES.index("tweet_favorited") - 18
        assert block[truncated] == block[favorited] == 0.5

    def test_empty_list_zeroes(self, tmp_path):
        block = self.tweet_block(tmp_path, ())
        np.testing.assert_array_equal(block, np.zeros(17))


class TestBuildUserVector:
    def test_has_exactly_51_components(self, hash_embedder, tiny_autoencoder, tmp_path):
        rows = feature_rows([make_record()], tmp_path, hash_embedder, tiny_autoencoder)
        assert rows.shape == (1, NUM_FEATURES) and rows.dtype == np.float64
        assert rows[0].shape == (51,)

    def test_layout_is_versioned_and_complete(self):
        layout = feature_layout()
        assert layout["version"] == 1
        assert len(layout["features"]) == 51
        assert layout["features"] == list(FEATURE_NAMES)

    def test_no_tweets_zeroes_blocks_and_flags(self, hash_embedder, tiny_autoencoder, tmp_path):
        record = make_record(n_tweets=0)
        vec = feature_rows([record], tmp_path, hash_embedder, tiny_autoencoder)[0]
        np.testing.assert_array_equal(vec[18:35], 0.0)  # tweet scalars
        np.testing.assert_array_equal(vec[35:45], 0.0)  # latent

    def test_no_comments_zero_sentiment_not_uniform(self, hash_embedder, tiny_autoencoder,
                                                    tmp_path):
        vec = feature_rows([make_record(n_comments=0)], tmp_path, hash_embedder,
                           tiny_autoencoder)[0]
        np.testing.assert_array_equal(vec[45:], 0.0)

    def test_stats_normalize_scalar_block_only(self, hash_embedder, tiny_autoencoder, tmp_path):
        records = [make_record(user_id=f"u{i}", n_tweets=2 + i) for i in range(4)]
        raw = feature_rows(records, tmp_path, hash_embedder, tiny_autoencoder)
        # What prepare does: fit on the scalar block, rescale it in place.
        normalized = raw.copy()
        stats = fit_minmax(raw[:, :NUM_SCALAR_FEATURES])
        normalized[:, :NUM_SCALAR_FEATURES] = apply_minmax(stats, raw[:, :NUM_SCALAR_FEATURES])
        scalars = normalized[:, :NUM_SCALAR_FEATURES]
        assert scalars.min() >= 0.0 and scalars.max() <= 1.0
        np.testing.assert_array_equal(
            normalized[:, NUM_SCALAR_FEATURES:], raw[:, NUM_SCALAR_FEATURES:]
        )

    def test_wrong_width_vector_rejected(self):
        with pytest.raises(ShapeError, match="51 components"):
            LabeledDataset(("u",), np.zeros((1, 50)), np.zeros(1, dtype=np.intp), 4)


def labeled(rows, num_classes):
    """A dataset of ``(user_id, values, label)`` rows."""
    ids, values, labels = zip(*rows) if rows else ((), (), ())
    return LabeledDataset(ids, np.array(values, dtype=float).reshape(-1, NUM_FEATURES),
                          np.array(labels, dtype=np.intp), num_classes)


def dataset_from_counts(counts, num_classes=None, spread=3.0, seed=0):
    rng = np.random.default_rng(seed)
    num_classes = num_classes or len(counts)
    rows = [(f"u{c}_{i}", rng.normal(size=NUM_FEATURES) + spread * c, c)
            for c, n in enumerate(counts) for i in range(n)]
    return labeled(rows, num_classes)


def oracle_vector(record, embedder, ae) -> np.ndarray:
    """One user's raw 51-component vector from the whole record in memory."""
    tweet_block = (np.mean([tweet_scalars(t) for t in record.tweets], axis=0)
                   if record.tweets else np.zeros(17))
    latent_block = (ae.encode_batch(embed_texts(
        embedder, [preprocess(t.text) for t in record.tweets])).mean(axis=0)
        if record.tweets else np.zeros(10))
    sentiment_block = (np.mean([comment_emotions(preprocess(c))
                                for c in record.comments], axis=0)
                       if record.comments else np.zeros(6))
    return np.concatenate([profile_scalars(record.profile), tweet_block,
                           latent_block, sentiment_block])


def synthetic_records(users, tweets, comments=2, seed=3):
    return generate_synthetic(SyntheticConfig(
        num_users=users, system=ClassificationSystem(4), tweets_per_user=tweets,
        comments_per_user=comments, seed=seed))


class TestScan:
    def test_streamed_matrix_bit_equal_to_records_in_memory(self, hash_embedder,
                                                            tiny_autoencoder, tmp_path):
        records = synthetic_records(12, 4)
        records[0] = replace(records[0], tweets=())
        records[1] = replace(records[1], comments=())
        records[2] = replace(records[2], tweets=(), comments=())
        write_dataset(records, tmp_path)
        (tmp_path / "tweets" / f"{records[3].user_id}.json").unlink()  # absent: no tweets
        records[3] = replace(records[3], tweets=())
        loaded = sorted(records, key=lambda r: r.user_id)
        expected = np.array([oracle_vector(r, hash_embedder, tiny_autoencoder)
                             for r in loaded])

        scan = scan_dataset(tmp_path)
        assert not scan.x[[0, 2, 3], 18:35].any()  # the users without tweets
        fill_latents(scan, hash_embedder, tiny_autoencoder)
        assert not scan.x[[0, 2, 3], 35:45].any()
        assert scan.manifest.user_ids == tuple(r.user_id for r in loaded)
        assert scan.x.tobytes() == expected.tobytes()
        assert scan.tweet_counts.tolist() == [len(r.tweets) for r in loaded]
        assert scan.tweet_counts.tolist()[:4] == [0, 4, 0, 0]
        assert scan.scores.tolist() == [r.score for r in loaded]

    def test_overflowing_latent_codes_name_the_first_user(self, hash_embedder,
                                                         tiny_autoencoder, tmp_path):
        records = synthetic_records(3, 2)
        records[0] = replace(records[0], tweets=())
        write_dataset(records, tmp_path)
        ae = copy.deepcopy(tiny_autoencoder)
        ae.model.params[0]["bias"][:] = 1.7e308  # finite; the first layer's sums overflow
        scan = scan_dataset(tmp_path)
        # Warnings fail the suite: only the check reports the overflow.
        with pytest.raises(DomainError, match=f"non-finite feature values for user "
                                              f"{scan.manifest.user_ids[1]}$"):
            fill_latents(scan, hash_embedder, ae)

    def test_unlabeled_scan_has_no_scores(self, tmp_path):
        write_dataset([replace(r, score=None) for r in synthetic_records(3, 2)], tmp_path)
        scan = scan_dataset(tmp_path)
        assert scan.scores is None and len(scan) == 3

    def test_texts_at_positions_follow_user_then_file_order(self, tmp_path):
        records = synthetic_records(5, 3)
        records[1] = replace(records[1], tweets=())
        write_dataset(records, tmp_path)
        every = [t.text for r in records for t in r.tweets]
        scan = scan_dataset(tmp_path)
        assert not scan.x[1, 18:35].any()  # the user without tweets
        positions = np.array([0, 2, 3, 4, 7, len(every) - 1])
        assert feat_mod.tweet_texts_at(scan, positions) == [every[i] for i in positions]
        assert feat_mod.tweet_texts_at(scan, np.arange(len(every))) == every

    @pytest.mark.parametrize("change", ["append", "drop", "delete", "garble"])
    def test_tweets_file_changed_after_scan_rejected_by_name(
            self, hash_embedder, tiny_autoencoder, tmp_path, change):
        records = synthetic_records(4, 3)
        write_dataset(records, tmp_path)
        scan = scan_dataset(tmp_path)
        path = tmp_path / "tweets" / "user00002.json"
        tweets = json.loads(path.read_text("utf-8"))
        if change == "append":
            path.write_text(json.dumps(tweets + tweets[:1]), "utf-8")
        elif change == "drop":
            path.write_text(json.dumps(tweets[1:]), "utf-8")
        elif change == "delete":
            path.unlink()
        else:
            path.write_text("[{", "utf-8")
        with pytest.raises(DatasetLoadError) as err:
            fill_latents(scan, hash_embedder, tiny_autoencoder)
        assert err.value.failures[0][0] == "user00002"
        assert "user00002.json" in str(err.value)
        with pytest.raises(DatasetLoadError, match="user00002"):
            feat_mod.tweet_texts_at(scan, np.arange(9))

    def test_scan_memory_does_not_grow_with_tweets(self, tmp_path, one_cpu):
        def scan_peak(tweets):
            root = tmp_path / f"t{tweets}"
            write_dataset(synthetic_records(40, tweets), root)
            tracemalloc.start()
            try:
                scan_dataset(root)
                _, peak = tracemalloc.get_traced_memory()
            finally:
                tracemalloc.stop()
            return peak

        base, tenfold = scan_peak(4), scan_peak(40)
        # Holding every record would add 40 users x 36 tweets x ~0.6 KB.
        assert tenfold - base < 160_000, (base, tenfold)



def field_faults(f) -> list[tuple[str, object]]:
    """The faults that the table row ``f`` rejects: a value of a JSON type
    it does not take, a value just outside its ``valid`` rule, and, for a
    field read without a default (a time), the key deleted."""
    kinds = (str,) if f.kind is datetime else f.kind if type(f.kind) is tuple else (f.kind,)
    faults = [("type", v) for v in (True, 1, 1.5, "x", None, [], {}) if type(v) not in kinds]
    if f.valid is not None:
        faults += [("range", v) for v in (-1, MAX_COUNT + 1, "x" * (MAX_TWEET_TEXT_LEN + 1))
                   if type(v) in kinds and not f.valid(v)]
    if f.kind is datetime:
        faults.append(("delete", None))
    return faults


FIELD_FAULTS = st.sampled_from([
    (kind, f.key, fault, value) for kind, table in (("profiles", PROFILE), ("tweets", TWEET))
    for f in table.fields for fault, value in field_faults(f)])

# Faults in the entries no field table reads: a comment's text, and the
# user's labels.csv row (a score outside [0, 100], or no row at all).
ENTRY_FAULTS = st.sampled_from(
    [("comments", "text", "delete", None)]
    + [("comments", "text", "type", v) for v in (True, 1, 1.5, None, [], {})]
    + [("labels", None, "delete", None)]
    + [("labels", None, "range", v) for v in (-0.5, 100.5, 1e308)])


def plant_fault(root: Path, user_id: str, kind: str, key, fault: str, value) -> None:
    """Write one fault into user ``user_id``'s profile, first tweet or first
    comment, at the dotted ``key``, or into its row of labels.csv."""
    if kind == "labels":
        path = root / "labels.csv"
        with open(path, newline="", encoding="utf-8") as fh:
            rows = [row for row in csv.reader(fh)
                    if row[0] != user_id or fault != "delete"]
        with open(path, "w", newline="", encoding="utf-8") as fh:
            csv.writer(fh).writerows([row[0], repr(value)] if row[0] == user_id else row
                                     for row in rows)
        return
    path = root / kind / f"{user_id}.json"
    doc = json.loads(path.read_text("utf-8"))
    *outer, key = key.split(".")
    record = doc if kind == "profiles" else doc[0]
    for part in outer:
        record = record[part]
    if fault == "delete":
        del record[key]
    else:
        record[key] = value
    path.write_text(json.dumps(doc), "utf-8")


class TestUserRanges:
    """The feature passes map contiguous user ranges, in a fork pool when
    more than one CPU is usable; what they return does not depend on it."""

    @pytest.mark.parametrize("n", [0, 1, 3, 20])
    @pytest.mark.parametrize("cpus", [1, 3])
    @pytest.mark.parametrize("max_workers", [1, 2, 64])
    def test_ranges_per_worker_cover_every_user_in_order(self, monkeypatch, n, cpus,
                                                         max_workers):
        use_cpus(monkeypatch, cpus)
        got = feat_mod._map_users(lambda start, stop: (start, stop, os.getpid()), n,
                                  max_workers)
        bounds = [(start, stop) for start, stop, _ in got]
        assert bounds[0][0] == 0 and bounds[-1][1] == n
        assert all(a[1] == b[0] < b[1] for a, b in zip(bounds, bounds[1:]))
        workers = min(cpus, n, max_workers)
        assert len(bounds) == max(workers, 1)
        sizes = [stop - start for start, stop in bounds]
        assert max(sizes) - min(sizes) <= 1
        assert all((pid != os.getpid()) == (workers > 1) for _, _, pid in got)
        assert len({pid for _, _, pid in got}) <= max(workers, 1)

    @staticmethod
    def pooled_ranges(monkeypatch) -> list[list[tuple[int, int]]]:
        """The ranges of each pass that runs in a pool, from now on: one
        worker each."""
        passes = []
        real = feat_mod.map_ranges_in_workers
        monkeypatch.setattr(feat_mod, "map_ranges_in_workers",
                            lambda fn, bounds: passes.append(bounds) or real(fn, bounds))
        return passes

    @pytest.mark.parametrize("users, workers", [(19, []), (20, [2]), (45, [3])])
    def test_scan_forks_a_worker_per_floor_of_users(self, tmp_path, monkeypatch, users,
                                                    workers):
        write_dataset(synthetic_records(users, 1, 1), tmp_path)
        use_cpus(monkeypatch, 3)
        monkeypatch.setattr(feat_mod, "MIN_USERS_PER_WORKER", 10)
        pooled = self.pooled_ranges(monkeypatch)
        scan_dataset(tmp_path)
        assert [len(bounds) for bounds in pooled] == workers

    @pytest.mark.parametrize("tweets, workers", [(3, []), (4, [2]), (7, [3])])
    def test_latent_pass_forks_a_worker_per_floor_of_tweets(
            self, hash_embedder, tiny_autoencoder, tmp_path, monkeypatch, tweets, workers):
        write_dataset(synthetic_records(6, tweets, 1), tmp_path)
        use_cpus(monkeypatch, 3)
        scan = scan_dataset(tmp_path)
        monkeypatch.setattr(feat_mod, "MIN_TWEETS_PER_WORKER", 10)
        pooled = self.pooled_ranges(monkeypatch)
        fill_latents(scan, hash_embedder, tiny_autoencoder)
        assert [len(bounds) for bounds in pooled] == workers

    def test_small_dataset_stays_in_process_with_many_cpus(
            self, hash_embedder, tiny_autoencoder, tmp_path, monkeypatch):
        write_dataset(synthetic_records(20, 30), tmp_path)
        monkeypatch.setattr(os, "sched_getaffinity", lambda pid: set(range(64)))
        pooled = self.pooled_ranges(monkeypatch)
        fill_latents(scan_dataset(tmp_path), hash_embedder, tiny_autoencoder)
        assert pooled == []

    def test_workers_run_openblas_on_one_thread(self, monkeypatch):
        with open("/proc/self/maps", encoding="utf-8") as maps:
            libs = [ctypes.CDLL(path) for path in
                    sorted({line.split()[-1] for line in maps if "openblas" in line})]
        calls = [(getattr(lib, f"{prefix}get_num_threads{suffix}"),
                  getattr(lib, f"{prefix}set_num_threads{suffix}"))
                 for lib in libs for prefix, suffix in (("openblas_", ""),
                                                        ("scipy_openblas_", "64_"),
                                                        ("scipy_openblas_", ""))
                 if hasattr(lib, f"{prefix}get_num_threads{suffix}")]
        if not calls:
            pytest.skip("numpy's BLAS is not an OpenBLAS")
        get, set_ = calls[0]
        before = get()
        set_(2)
        try:
            if get() != 2:
                pytest.skip("this OpenBLAS runs on one thread at most")
            use_cpus(monkeypatch, 2)
            assert feat_mod._map_users(lambda start, stop: get(), 2, 2) == [1, 1]
            assert get() == 2
        finally:
            set_(before)

    @pytest.mark.parametrize("users, labeled", [(2, True), (20, True), (20, False)])
    def test_pooled_passes_bit_equal_to_one_cpu(self, hash_embedder, tiny_autoencoder,
                                                 tmp_path, monkeypatch, users, labeled):
        # 2 users are fewer than 3 CPUs: they get a worker each.
        records = synthetic_records(users, 4, seed=5)
        records[0] = replace(records[0], tweets=())
        records[-1] = replace(records[-1], comments=())
        if not labeled:
            records = [replace(r, score=None) for r in records]
        write_dataset(records, tmp_path)
        scans = []
        for cpus in (1, 2, 3):
            use_cpus(monkeypatch, cpus)
            scan = scan_dataset(tmp_path)
            fill_latents(scan, hash_embedder, tiny_autoencoder)
            scans.append(scan)
        serial = scans[0]
        assert serial.x[:, 35:45].any() and (serial.scores is not None) == labeled
        for pooled in scans[1:]:
            assert pooled.manifest == serial.manifest
            for got, want in ((pooled.x, serial.x), (pooled.tweet_counts, serial.tweet_counts),
                              (pooled.scores, serial.scores)):
                assert want is got is None or (
                    got.dtype == want.dtype and got.tobytes() == want.tobytes())

    def test_faults_in_several_ranges_named_as_with_one_cpu(self, tmp_path, monkeypatch):
        records = synthetic_records(20, 3)
        write_dataset(records, tmp_path)
        ids = sorted(r.user_id for r in records)
        for i in (1, 9, 18):
            path = tmp_path / "tweets" / f"{ids[i]}.json"
            tweets = json.loads(path.read_text("utf-8"))
            tweets[0]["retweet_count"] = -1
            path.write_text(json.dumps(tweets), "utf-8")
        (tmp_path / "profiles" / f"{ids[12]}.json").write_text("{broken", "utf-8")
        with open(tmp_path / "labels.csv", "a", encoding="utf-8") as fh:
            fh.write("ghost,50\n")
        messages = []
        pooled = self.pooled_ranges(monkeypatch)
        for cpus in (1, 2):
            use_cpus(monkeypatch, cpus)
            with pytest.raises(DatasetLoadError) as err:
                scan_dataset(tmp_path)
            messages.append(str(err.value))
            assert [user for user, _ in err.value.failures] == [
                ids[1], ids[9], ids[12], ids[18], "ghost"]
        assert pooled == [[(0, 10), (10, 20)]]  # faults in both ranges
        assert messages[0] == messages[1]

    @settings(max_examples=20, deadline=None, derandomize=True)
    @given(planted=st.dictionaries(st.integers(0, 19), FIELD_FAULTS, min_size=1, max_size=3))
    def test_field_faults_named_alike_at_every_cut(self, planted):
        self.assert_faults_named_alike_at_every_cut(planted)

    @settings(max_examples=20, deadline=None, derandomize=True)
    @given(planted=st.dictionaries(st.integers(0, 19), ENTRY_FAULTS, min_size=1, max_size=3))
    def test_comment_and_label_faults_named_alike_at_every_cut(self, planted):
        self.assert_faults_named_alike_at_every_cut(planted)

    @staticmethod
    def assert_faults_named_alike_at_every_cut(planted):
        """Each fault of ``planted`` (user number -> fault) written into a
        20-user dataset; the scan names exactly those users, in user order,
        with the same text at 1, 2 and 3 usable CPUs."""
        records = synthetic_records(20, 2, 1)
        ids = sorted(r.user_id for r in records)
        with tempfile.TemporaryDirectory() as tmp, pytest.MonkeyPatch.context() as mp:
            root = Path(tmp)
            write_dataset(records, root)
            for i, fault in planted.items():
                plant_fault(root, ids[i], *fault)
            messages = []
            for cpus in (1, 2, 3):
                use_cpus(mp, cpus)
                with pytest.raises(DatasetLoadError) as err:
                    scan_dataset(root)
                messages.append(str(err.value))
                assert [user for user, _ in err.value.failures] == [ids[i] for i in
                                                                    sorted(planted)]
        assert messages[0] == messages[1] == messages[2]

    def test_tweets_changed_in_several_ranges_named_as_with_one_cpu(
            self, hash_embedder, tiny_autoencoder, tmp_path, monkeypatch):
        records = synthetic_records(20, 3)
        write_dataset(records, tmp_path)
        ids = sorted(r.user_id for r in records)
        scans = {}
        for cpus in (1, 2):
            use_cpus(monkeypatch, cpus)
            scans[cpus] = scan_dataset(tmp_path)
        for i in (6, 17):
            path = tmp_path / "tweets" / f"{ids[i]}.json"
            path.write_text(json.dumps(json.loads(path.read_text("utf-8"))[1:]), "utf-8")
        messages = []
        for cpus, scan in scans.items():
            use_cpus(monkeypatch, cpus)
            with pytest.raises(DatasetLoadError) as err:
                fill_latents(scan, hash_embedder, tiny_autoencoder)
            messages.append(str(err.value))
            assert [user for user, _ in err.value.failures] == [ids[6]]
        assert messages[0] == messages[1]

    def test_load_error_survives_pickling(self):
        error = DatasetLoadError([("u1", "bad"), ("u2", "worse")])
        copy = pickle.loads(pickle.dumps(error))
        assert type(copy) is DatasetLoadError
        assert copy.failures == error.failures and str(copy) == str(error)

class TestSplit:
    def test_balanced_100_gives_70_20_10(self):
        ds = dataset_from_counts([25, 25, 25, 25])
        s = split(ds, seed=0)
        assert (len(s.train), len(s.test), len(s.validation)) == (70, 20, 10)

    def test_same_seed_identical(self):
        ds = dataset_from_counts([25, 25, 25, 25])
        a, b = split(ds, seed=3), split(ds, seed=3)
        assert a.train.user_ids == b.train.user_ids
        assert a.test.user_ids == b.test.user_ids

    def test_partition_property(self):
        ds = dataset_from_counts([40, 25, 20, 15])
        s = split(ds, seed=1)
        ids = lambda d: set(d.user_ids)
        train, test, val = ids(s.train), ids(s.test), ids(s.validation)
        assert train.isdisjoint(test) and train.isdisjoint(val) and test.isdisjoint(val)
        assert train | test | val == ids(ds)
        assert len(s.train) + len(s.test) + len(s.validation) == len(ds)

    def test_stratified_within_one_sample(self):
        ds = dataset_from_counts([40, 25, 20, 15])
        s = split(ds, seed=2)
        for c, n_c in enumerate([40, 25, 20, 15]):
            got = s.train.class_counts()[c]
            assert abs(got - 0.7 * n_c) <= 1.0

    def test_small_class_is_named(self):
        ds = dataset_from_counts([10, 2, 10, 10])
        with pytest.raises(DomainError, match=r"\[1\]"):
            split(ds, seed=0)

    def test_minimum_size(self):
        ds = dataset_from_counts([3, 3])
        with pytest.raises(DomainError, match="at least 10"):
            split(ds, seed=0)


class TestSmote:
    def test_skewed_counts_equalize_to_majority(self):
        ds = dataset_from_counts([507, 83, 33, 24])
        balanced = smote(ds, k=5, seed=9)
        assert balanced.class_counts() == [507, 507, 507, 507]

    def test_already_balanced_unchanged(self):
        ds = dataset_from_counts([20, 20, 20, 20])
        assert smote(ds, k=5, seed=0) is ds

    def test_synthetic_points_on_segments(self):
        ds = dataset_from_counts([60, 12, 8, 5])
        x, y = ds.x, ds.y
        classes, base_ids, neighbor_ids, lams = smote_plan(ds, k=5, seed=4)
        assert len(classes)
        synthetic_rows = smote(ds, k=5, seed=4).x[len(ds):]
        for c, b, nb, synthetic in zip(classes, base_ids, neighbor_ids, synthetic_rows):
            assert y[b] == c and y[nb] == c
            base, neighbor = x[b], x[nb]
            direction = neighbor - base
            denom = float(direction @ direction)
            assert denom > 0.0
            lam = float((synthetic - base) @ direction) / denom
            residual = np.linalg.norm((synthetic - base) - lam * direction)
            assert residual < 1e-9
            assert -1e-12 <= lam <= 1.0 + 1e-12

    def test_originals_retained(self):
        ds = dataset_from_counts([30, 6])
        balanced = smote(ds, k=3, seed=1)
        original_ids = set(ds.user_ids)
        balanced_ids = set(balanced.user_ids)
        assert original_ids <= balanced_ids

    def test_deterministic(self):
        ds = dataset_from_counts([30, 6])
        a = smote(ds, k=3, seed=5)
        b = smote(ds, k=3, seed=5)
        np.testing.assert_array_equal(a.x, b.x)

    def test_singleton_class_named(self):
        ds = dataset_from_counts([10, 1])
        with pytest.raises(DomainError, match=r"\[1\]"):
            smote(ds, k=5, seed=0)

    def test_k_must_be_positive(self):
        ds = dataset_from_counts([10, 5])
        with pytest.raises(DomainError):
            smote(ds, k=0, seed=0)

    def test_neighbor_count_capped_by_class_size(self):
        # class of 2: only 1 possible neighbor, k=5 must still work
        ds = dataset_from_counts([10, 2])
        balanced = smote(ds, k=5, seed=2)
        assert balanced.class_counts() == [10, 10]


def brute_force_neighbors(points, k):
    """Every point's k nearest neighbours, from the full n x n x d tensor."""
    distances = np.sqrt(((points[:, None, :] - points[None, :, :]) ** 2).sum(axis=2))
    return np.argsort(distances, axis=1, kind="stable")[:, 1:k + 1]


def reference_smote_plan(train, k, seed):
    """SMOTE's (class, base, neighbour, lam) drawn point by point, with one
    brute-force neighbour table per class."""
    x, y = train.x, train.y
    counts = train.class_counts()
    rng = np.random.default_rng(seed)
    plan = []
    for c, n_c in enumerate(counts):
        need = max(counts) - n_c
        if n_c == 0 or need == 0:
            continue
        members = np.flatnonzero(y == c)
        k_eff = min(k, n_c - 1)
        table = brute_force_neighbors(x[members], k_eff)
        for _ in range(need):
            base = int(rng.integers(n_c))
            neighbor = int(table[base][int(rng.integers(k_eff))])
            plan.append((c, int(members[base]), int(members[neighbor]), float(rng.random())))
    return plan


# Rows on a small grid, so that distances tie and points repeat: the first
# four are at distance 1 from the origin, and each candidate can be drawn
# more than once.
_EYE = np.eye(NUM_FEATURES)
_CANDIDATES = np.stack([np.zeros(NUM_FEATURES), _EYE[0], -_EYE[0], _EYE[1],
                        2 * _EYE[0], np.full(NUM_FEATURES, 0.5)])
_GRID_CLASSES = st.lists(
    st.lists(st.integers(0, len(_CANDIDATES) - 1), min_size=2, max_size=9)
    | st.just([]),
    min_size=1, max_size=4,
).filter(any)


def grid_dataset(classes):
    return labeled([(f"u{c}_{i}", _CANDIDATES[pick], c)
                    for c, picks in enumerate(classes) for i, pick in enumerate(picks)],
                   num_classes=len(classes))


class TestSmoteOracles:
    @settings(max_examples=300, deadline=None)
    @given(points=st.integers(2, 12).flatmap(lambda n: st.lists(
               st.lists(st.sampled_from([0.0, 1.0, 2.0, -0.5]), min_size=3, max_size=3),
               min_size=n, max_size=n)),
           k=st.integers(1, 14), block_floats=st.integers(1, 400), data=st.data())
    def test_blocked_search_matches_brute_force(self, points, k, block_floats, data):
        points = np.array(points)
        n = len(points)
        k_eff = min(k, n - 1)
        rows = np.array(data.draw(st.lists(st.integers(0, n - 1), unique=True).map(sorted)),
                        dtype=np.intp)
        with pytest.MonkeyPatch.context() as mp:
            mp.setattr(feat_mod, "SMOTE_BLOCK_FLOATS", block_floats)
            got = feat_mod._neighbor_ids(points, rows, k_eff)
        np.testing.assert_array_equal(got, brute_force_neighbors(points, k_eff)[rows])

    @settings(max_examples=150, deadline=None)
    @given(classes=_GRID_CLASSES, k=st.integers(1, 10), seed=st.integers(0, 2**32),
           one_row_blocks=st.booleans())
    def test_plan_matches_point_by_point_reference(self, classes, k, seed, one_row_blocks):
        ds = grid_dataset(classes)
        with pytest.MonkeyPatch.context() as mp:
            if one_row_blocks:
                mp.setattr(feat_mod, "SMOTE_BLOCK_FLOATS", 1)
            plan = smote_plan(ds, k=k, seed=seed)
        assert list(zip(*(a.tolist() for a in plan))) == reference_smote_plan(ds, k, seed)

    @pytest.mark.parametrize("ds", [
        dataset_from_counts([507, 83, 33, 24]),
        grid_dataset([[0] * 9, [0, 0, 1, 2, 3], [4, 5], [1, 1, 1]]),
    ], ids=["gaussian", "grid-with-ties"])
    def test_rows_bitwise_equal_rows_rebuilt_from_plan(self, ds):
        x, y, n = ds.x, ds.y, len(ds)
        classes, base_ids, neighbor_ids, lams = smote_plan(ds, k=5, seed=3)
        balanced = smote(ds, k=5, seed=3)
        assert balanced.user_ids[:n] == ds.user_ids
        assert balanced.x[:n].tobytes() == x.tobytes()
        assert balanced.y[:n].tolist() == y.tolist()
        synthetic = list(zip(balanced.user_ids[n:], balanced.x[n:], balanced.y[n:]))
        assert len(synthetic) == len(classes)
        made = [0] * ds.num_classes
        for (user_id, values, label), c, b, nb, lam in zip(synthetic, classes, base_ids,
                                                           neighbor_ids, lams):
            rebuilt = x[b] + float(lam) * (x[nb] - x[b])
            assert values.tobytes() == rebuilt.tobytes()
            assert label == c == y[b] == y[nb]
            assert user_id == f"smote:{c}:{made[c]}"
            made[c] += 1

    def test_balanced_input_has_empty_plan(self):
        plan = smote_plan(dataset_from_counts([20, 20]), k=5, seed=0)
        assert [a.shape for a in plan] == [(0,)] * 4

    def test_memory_bounded_by_one_block(self):
        # A 500-point class: the full n x n x 51 tensor and its square take
        # about 200 MiB; one block is at most 8 MiB.
        ds = dataset_from_counts([1000, 500])
        tracemalloc.start()
        try:
            balanced = smote(ds, k=5, seed=0)
            _, peak = tracemalloc.get_traced_memory()
        finally:
            tracemalloc.stop()
        assert balanced.class_counts() == [1000, 1000]
        assert peak < 32 * 2**20


class TestCsvRoundtrip:
    def test_write_read_identity(self, tmp_path):
        ds = dataset_from_counts([4, 3])
        path = tmp_path / "features.csv"
        write_feature_csv(ds, path)
        loaded = read_feature_csv(path, num_classes=2)
        assert loaded.x.tobytes() == ds.x.tobytes()
        np.testing.assert_array_equal(loaded.y, ds.y)
        assert loaded.user_ids == ds.user_ids

    def test_header_shape_checked(self, tmp_path):
        path = tmp_path / "bad.csv"
        path.write_text("user_id,f000,class\nu,1.0,0\n", "utf-8")
        with pytest.raises(DomainError):
            read_feature_csv(path, num_classes=2)


class TestLabeledDataset:
    def test_label_range_enforced(self):
        with pytest.raises(DomainError, match=r"class index 4 .* \(user u\)"):
            labeled([("u", np.zeros(NUM_FEATURES), 4)], num_classes=4)

    def test_first_offending_user_named(self):
        values = np.zeros((4, NUM_FEATURES))
        values[2, 7] = np.inf
        values[3, 0] = np.nan
        with pytest.raises(DomainError, match="non-finite feature values for user u2$"):
            LabeledDataset(("u0", "u1", "u2", "u3"), values, np.zeros(4, dtype=np.intp), 4)
        with pytest.raises(DomainError, match=r"class index -1 .* \(user u1\)"):
            LabeledDataset(("u0", "u1", "u2", "u3"), np.zeros((4, NUM_FEATURES)),
                           np.array([0, -1, 9, 0]), 4)

    @pytest.mark.parametrize("ids, rows, labels", [
        (("a", "b"), 3, 3), (("a", "b", "c"), 2, 3), (("a", "b", "c"), 3, 2),
    ])
    def test_lengths_must_agree(self, ids, rows, labels):
        with pytest.raises(ShapeError, match="user ids"):
            LabeledDataset(ids, np.zeros((rows, NUM_FEATURES)),
                           np.zeros(labels, dtype=np.intp), 4)

    def test_fractional_labels_rejected(self):
        with pytest.raises(DomainError, match="integers"):
            LabeledDataset(("u",), np.zeros((1, NUM_FEATURES)), np.array([1.5]), 4)

    def test_arrays_normalized_and_counted(self):
        x = np.asfortranarray(np.arange(3 * NUM_FEATURES, dtype=np.int64)
                              .reshape(3, NUM_FEATURES))
        ds = LabeledDataset(["a", "b", "c"], x, [2, 0, 2], 4)
        assert ds.user_ids == ("a", "b", "c") and len(ds) == 3
        assert ds.x.dtype == np.float64 and ds.x.flags.c_contiguous
        assert ds.y.dtype == np.intp
        np.testing.assert_array_equal(ds.x, x)
        assert ds.class_counts() == [1, 0, 2, 0]
        empty = labeled([], num_classes=4)
        assert len(empty) == 0 and empty.class_counts() == [0, 0, 0, 0]
