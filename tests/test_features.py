from datetime import datetime, timezone

import numpy as np
import pytest

from multicred.domain import Comment, DomainError, Tweet, UserProfile, UserRecord
from multicred.features import (
    FEATURE_NAMES,
    NUM_FEATURES,
    NUM_SCALAR_FEATURES,
    LabeledDataset,
    NormalizationStats,
    UserFeatureVector,
    aggregate_mean,
    apply_minmax,
    build_user_vector,
    dataset_to_matrix,
    feature_layout,
    fit_minmax,
    fit_scalar_stats,
    normalize_vectors,
    read_feature_csv,
    smote,
    smote_with_trace,
    split,
    write_feature_csv,
)
from multicred.network import ShapeError, StateError
from multicred.autoencoder import Autoencoder, AutoencoderSpec


def make_record(user_id="u1", n_tweets=3, n_comments=2, score=50.0):
    created = datetime(2016, 5, 4, 3, 2, 1, tzinfo=timezone.utc)
    tweets = tuple(
        Tweet(
            created_at=created, text=f"breaking story number {i}",
            retweet_count=i, favorite_count=2 * i, hashtag_count=1,
            mention_count=0, url_count=1, symbol_count=0,
        )
        for i in range(n_tweets)
    )
    comments = tuple(Comment(text="happy wonderful news") for _ in range(n_comments))
    profile = UserProfile(
        name="N", screen_name="n", created_at=created, location="X",
        followers_count=120, friends_count=80, listed_count=3,
        favourites_count=10, statuses_count=400, verified=True,
    )
    return UserRecord(user_id=user_id, profile=profile, tweets=tweets,
                      comments=comments, score=score)


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
    def test_mean_of_duplicates(self):
        v = np.array([1.0, 2.0])
        np.testing.assert_array_equal(aggregate_mean([v, v]), v)

    def test_mean_of_opposites_is_zero(self):
        v = np.array([1.0, -3.0])
        np.testing.assert_array_equal(aggregate_mean([v, -v]), np.zeros(2))

    def test_mean_of_basis_vectors(self):
        e1, e2 = np.array([1.0, 0.0]), np.array([0.0, 1.0])
        np.testing.assert_array_equal(aggregate_mean([e1, e2]), np.array([0.5, 0.5]))

    def test_empty_list_warns_and_zeroes(self):
        with pytest.warns(UserWarning, match="empty"):
            out = aggregate_mean([], dim=4)
        np.testing.assert_array_equal(out, np.zeros(4))

    def test_mixed_dimensions_rejected(self):
        with pytest.raises(ShapeError):
            aggregate_mean([np.zeros(2), np.zeros(3)])


class TestBuildUserVector:
    def test_has_exactly_51_components(self, hash_embedder, tiny_autoencoder):
        vec = build_user_vector(make_record(), hash_embedder, tiny_autoencoder)
        assert vec.values.shape == (NUM_FEATURES,)
        assert vec.values.shape == (51,)

    def test_layout_is_versioned_and_complete(self):
        layout = feature_layout()
        assert layout["version"] == 1
        assert len(layout["features"]) == 51
        assert layout["features"] == list(FEATURE_NAMES)

    def test_no_tweets_zeroes_blocks_and_flags(self, hash_embedder, tiny_autoencoder):
        record = make_record(n_tweets=0)
        with pytest.warns(UserWarning):
            vec = build_user_vector(record, hash_embedder, tiny_autoencoder)
        assert "no_tweets" in vec.flags
        np.testing.assert_array_equal(vec.values[18:35], 0.0)  # tweet scalars
        np.testing.assert_array_equal(vec.values[35:45], 0.0)  # latent

    def test_no_comments_zero_sentiment_not_uniform(self, hash_embedder, tiny_autoencoder):
        vec = build_user_vector(make_record(n_comments=0), hash_embedder, tiny_autoencoder)
        assert "no_comments" in vec.flags
        np.testing.assert_array_equal(vec.values[45:], 0.0)

    def test_untrained_autoencoder_is_state_error(self, hash_embedder):
        ae = Autoencoder.initialize(AutoencoderSpec())
        with pytest.raises(StateError):
            build_user_vector(make_record(), hash_embedder, ae)

    def test_invalid_record_rejected(self, hash_embedder, tiny_autoencoder):
        record = make_record(score=130.0)
        with pytest.raises(DomainError, match="score"):
            build_user_vector(record, hash_embedder, tiny_autoencoder)

    def test_stats_normalize_scalar_block_only(self, hash_embedder, tiny_autoencoder):
        records = [make_record(user_id=f"u{i}", n_tweets=2 + i) for i in range(4)]
        raw = [build_user_vector(r, hash_embedder, tiny_autoencoder) for r in records]
        stats = fit_scalar_stats(raw)
        normalized = normalize_vectors(raw, stats)[0]
        scalars = normalized.values[:NUM_SCALAR_FEATURES]
        assert scalars.min() >= 0.0 and scalars.max() <= 1.0
        np.testing.assert_array_equal(
            normalized.values[NUM_SCALAR_FEATURES:], raw[0].values[NUM_SCALAR_FEATURES:]
        )

    def test_wrong_width_vector_rejected(self):
        with pytest.raises(ShapeError):
            UserFeatureVector("u", np.zeros(50))


def dataset_from_counts(counts, num_classes=None, spread=3.0, seed=0):
    rng = np.random.default_rng(seed)
    num_classes = num_classes or len(counts)
    items = []
    for c, n in enumerate(counts):
        for i in range(n):
            values = rng.normal(size=NUM_FEATURES) + spread * c
            items.append((UserFeatureVector(f"u{c}_{i}", values), c))
    return LabeledDataset(tuple(items), num_classes=num_classes)


class TestSplit:
    def test_balanced_100_gives_70_20_10(self):
        ds = dataset_from_counts([25, 25, 25, 25])
        s = split(ds, seed=0)
        assert (len(s.train), len(s.test), len(s.validation)) == (70, 20, 10)

    def test_same_seed_identical(self):
        ds = dataset_from_counts([25, 25, 25, 25])
        a, b = split(ds, seed=3), split(ds, seed=3)
        assert [v.user_id for v, _ in a.train.items] == [v.user_id for v, _ in b.train.items]
        assert [v.user_id for v, _ in a.test.items] == [v.user_id for v, _ in b.test.items]

    def test_partition_property(self):
        ds = dataset_from_counts([40, 25, 20, 15])
        s = split(ds, seed=1)
        ids = lambda d: {v.user_id for v, _ in d.items}
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
        _, traces = smote_with_trace(ds, k=5, seed=4)
        assert traces
        for t in traces:
            direction = t.neighbor - t.base
            denom = float(direction @ direction)
            assert denom > 0.0
            lam = float((t.synthetic - t.base) @ direction) / denom
            residual = np.linalg.norm((t.synthetic - t.base) - lam * direction)
            assert residual < 1e-9
            assert -1e-12 <= lam <= 1.0 + 1e-12

    def test_originals_retained(self):
        ds = dataset_from_counts([30, 6])
        balanced = smote(ds, k=3, seed=1)
        original_ids = {v.user_id for v, _ in ds.items}
        balanced_ids = {v.user_id for v, _ in balanced.items}
        assert original_ids <= balanced_ids

    def test_deterministic(self):
        ds = dataset_from_counts([30, 6])
        a = smote(ds, k=3, seed=5)
        b = smote(ds, k=3, seed=5)
        xa, _ = dataset_to_matrix(a)
        xb, _ = dataset_to_matrix(b)
        np.testing.assert_array_equal(xa, xb)

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


class TestCsvRoundtrip:
    def test_write_read_identity(self, tmp_path):
        ds = dataset_from_counts([4, 3])
        path = tmp_path / "features.csv"
        write_feature_csv(ds, path)
        loaded = read_feature_csv(path, num_classes=2)
        x0, y0 = dataset_to_matrix(ds)
        x1, y1 = dataset_to_matrix(loaded)
        np.testing.assert_array_equal(x0, x1)
        np.testing.assert_array_equal(y0, y1)
        assert [v.user_id for v, _ in loaded.items] == [v.user_id for v, _ in ds.items]

    def test_header_shape_checked(self, tmp_path):
        path = tmp_path / "bad.csv"
        path.write_text("user_id,f000,class\nu,1.0,0\n", "utf-8")
        with pytest.raises(DomainError):
            read_feature_csv(path, num_classes=2)


class TestLabeledDataset:
    def test_label_range_enforced(self):
        vec = UserFeatureVector("u", np.zeros(NUM_FEATURES))
        with pytest.raises(DomainError):
            LabeledDataset(((vec, 4),), num_classes=4)
