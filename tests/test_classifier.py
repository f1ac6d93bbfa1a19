import numpy as np
import pytest

from multicred import network as nn
from multicred.classifier import (
    TrainConfig,
    build_multicred,
    evaluate,
    metrics_from_predictions,
    predict,
    predict_batch,
    train,
    write_history_csv,
)
from multicred.domain import DomainError
from multicred.features import NUM_FEATURES, LabeledDataset, SplitDataset

from conftest import count_params

TABLE_ROWS = (13312, 1024, 65792, 1024, 16448, 650)


def make_dataset(values, labels, num_classes):
    ids = tuple(f"u{i}" for i in range(len(labels)))
    return LabeledDataset(ids, np.array(values, dtype=float).reshape(-1, NUM_FEATURES),
                          np.array(labels, dtype=np.intp), num_classes=num_classes)


def subset(ds, idx):
    """The rows ``idx`` of ``ds``, in that order."""
    idx = np.asarray(idx, dtype=np.intp)
    return LabeledDataset(tuple(ds.user_ids[i] for i in idx), ds.x[idx], ds.y[idx],
                          ds.num_classes)


def empty_dataset(num_classes):
    return make_dataset([], [], num_classes)


def separable_splits(n_per_class=40, num_classes=2, seed=0, margin=4.0, scale=0.3):
    rng = np.random.default_rng(seed)
    values, labels = [], []
    for c in range(num_classes):
        center = np.zeros(NUM_FEATURES)
        center[:8] = margin * c
        for _ in range(n_per_class):
            values.append(center + rng.normal(scale=scale, size=NUM_FEATURES))
            labels.append(c)
    ds = make_dataset(values, labels, num_classes)
    cut1 = int(0.7 * len(ds))
    cut2 = int(0.9 * len(ds))
    order = np.random.default_rng(seed + 1).permutation(len(ds))
    return SplitDataset(
        train=subset(ds, order[:cut1]),
        test=subset(ds, order[cut1:cut2]),
        validation=subset(ds, order[cut2:]),
    )


class TestBuildMulticred:
    def test_ten_class_parameter_totals(self):
        model = build_multicred(10)
        assert count_params(model.spec) == (98250, 97226)

    def test_per_row_parameter_counts(self):
        model = build_multicred(10)
        per_layer = []
        for layer in model.spec.layers:
            total, _ = count_params(nn.NetworkSpec((layer,)))
            if total:
                per_layer.append(total)
        assert tuple(per_layer) == TABLE_ROWS

    def test_output_row_scales_with_classes(self):
        out_params = lambda c: 64 * c + c
        for c in (4, 6, 8, 10):
            model = build_multicred(c)
            dense_out = model.spec.layers[-2]
            total, _ = count_params(nn.NetworkSpec((dense_out,)))
            assert total == out_params(c)
        assert out_params(4) == 260 and out_params(10) == 650

    def test_unsupported_class_count(self):
        with pytest.raises(DomainError):
            build_multicred(5)

    def test_seeded_build_is_reproducible(self):
        a, b = build_multicred(4, seed=3), build_multicred(4, seed=3)
        for p0, p1 in zip(a.params, b.params):
            for key in p0:
                np.testing.assert_array_equal(p0[key], p1[key])


class TestTrain:
    def test_separable_two_class_reaches_low_loss(self):
        splits = separable_splits(n_per_class=150, margin=1.2, scale=0.5)
        spec = nn.NetworkSpec((
            nn.dense(NUM_FEATURES, 16), nn.relu(16), nn.dense(16, 2), nn.softmax(2),
        ))
        model = nn.Model(spec, rng=np.random.default_rng(0))
        config = TrainConfig(num_classes=2, max_epochs=80, patience=40,
                             batch_size=16, seed=0)
        model, history = train(model, splits, config)
        assert history.train_loss[history.best_epoch] < 0.1
        assert evaluate(model, splits.test).accuracy == 1.0

    def test_same_seed_identical_history(self):
        splits = separable_splits()
        config = TrainConfig(num_classes=2, max_epochs=12, patience=12,
                             batch_size=16, seed=4)

        def run():
            spec = nn.NetworkSpec((
                nn.dense(NUM_FEATURES, 8), nn.relu(8), nn.dense(8, 2), nn.softmax(2),
            ))
            model = nn.Model(spec, rng=np.random.default_rng(1))
            _, history = train(model, splits, config)
            return history

        a, b = run(), run()
        assert a.train_loss == b.train_loss
        assert a.val_accuracy == b.val_accuracy
        assert a.best_epoch == b.best_epoch

    def test_frozen_validation_stops_at_first_best_plus_patience(self):
        rng = np.random.default_rng(2)
        train_ds = make_dataset(rng.normal(size=(8, NUM_FEATURES)), [0] * 8, 4)
        val_ds = make_dataset(rng.normal(size=(4, NUM_FEATURES)), [0] * 4, 4)
        splits = SplitDataset(train=train_ds, test=val_ds, validation=val_ds)
        spec = nn.NetworkSpec((nn.dense(NUM_FEATURES, 4), nn.softmax(4)))
        model = nn.Model(spec, rng=np.random.default_rng(3))
        config = TrainConfig(num_classes=4, max_epochs=2000, patience=50,
                             batch_size=16, seed=5)
        model, history = train(model, splits, config)
        assert history.stopped_early
        assert history.epochs_run - 1 == history.best_epoch + config.patience

    def test_returned_model_is_best_epoch_snapshot(self):
        rng = np.random.default_rng(6)
        train_ds = make_dataset(rng.normal(size=(8, NUM_FEATURES)), [0] * 8, 4)
        val_ds = make_dataset(rng.normal(size=(4, NUM_FEATURES)), [0] * 4, 4)
        splits = SplitDataset(train=train_ds, test=val_ds, validation=val_ds)
        config = TrainConfig(num_classes=4, max_epochs=2000, patience=30,
                             batch_size=16, seed=7)

        def fresh_model():
            spec = nn.NetworkSpec((nn.dense(NUM_FEATURES, 4), nn.softmax(4)))
            return nn.Model(spec, rng=np.random.default_rng(8))

        stopped, history = train(fresh_model(), splits, config)
        # Retrain to exactly the best epoch: deterministic, so the final
        # parameters are the snapshot early stopping must have restored.
        replay_config = TrainConfig(num_classes=4, max_epochs=history.best_epoch + 1,
                                    patience=history.best_epoch + 1, batch_size=16, seed=7)
        replay, _ = train(fresh_model(), splits, replay_config)
        for p0, p1 in zip(stopped.params, replay.params):
            for key in p0:
                np.testing.assert_array_equal(p0[key], p1[key])

    def test_never_returns_worse_than_best(self):
        splits = separable_splits(n_per_class=20)
        spec = nn.NetworkSpec((
            nn.dense(NUM_FEATURES, 8), nn.relu(8), nn.dense(8, 2), nn.softmax(2),
        ))
        model = nn.Model(spec, rng=np.random.default_rng(9))
        config = TrainConfig(num_classes=2, max_epochs=15, patience=15,
                             batch_size=16, seed=10)
        model, history = train(model, splits, config)
        x_val, y_val = splits.validation.x, splits.validation.y
        probs = predict_batch(model, x_val, splits.validation.user_ids)
        returned_accuracy = float(np.mean(probs.argmax(axis=1) == y_val))
        assert returned_accuracy == max(history.val_accuracy)

    def test_empty_split_rejected(self):
        empty = empty_dataset(4)
        splits = SplitDataset(train=empty, test=empty, validation=empty)
        model = build_multicred(4)
        with pytest.raises(DomainError):
            train(model, splits, TrainConfig(num_classes=4, max_epochs=1, patience=1))

    def test_non_finite_loss_names_epoch(self):
        splits = separable_splits(n_per_class=10)
        # Poison one feature value after construction (arrays stay mutable).
        splits.train.x[0, 0] = np.nan
        spec = nn.NetworkSpec((nn.dense(NUM_FEATURES, 2), nn.softmax(2)))
        model = nn.Model(spec, rng=np.random.default_rng(11))
        config = TrainConfig(num_classes=2, max_epochs=3, patience=3, seed=0)
        with pytest.raises(nn.NumericError, match="epoch"):
            train(model, splits, config)

    def test_config_invariants(self):
        with pytest.raises(DomainError):
            TrainConfig(num_classes=4, max_epochs=10, patience=11)
        with pytest.raises(DomainError):
            TrainConfig(num_classes=4, batch_size=0)


class TestPredict:
    def test_probabilities_sum_to_one(self):
        model = build_multicred(4, seed=0)
        rng = np.random.default_rng(1)
        for _ in range(5):
            probs = predict(model, rng.normal(size=NUM_FEATURES), "u0")
            assert probs.shape == (4,)
            assert abs(float(probs.sum()) - 1.0) < 1e-9

    def test_deterministic(self):
        model = build_multicred(4, seed=0)
        x = np.random.default_rng(2).normal(size=NUM_FEATURES)
        np.testing.assert_array_equal(predict(model, x, "u0"), predict(model, x, "u0"))

    def test_wrong_width_is_shape_error(self):
        model = build_multicred(4, seed=0)
        with pytest.raises(nn.ShapeError):
            predict(model, np.zeros(50), "u0")

    def test_first_non_finite_row_named(self):
        model = build_multicred(4, seed=0)
        x = np.zeros((4, NUM_FEATURES))
        x[2:] = 1e308  # finite; the network's sums overflow
        # Warnings fail the suite: only the check reports the overflow.
        with pytest.raises(nn.NumericError,
                           match="^non-finite class probabilities for user u2$"):
            predict_batch(model, x, ("u0", "u1", "u2", "u3"))


class TestEvaluate:
    def test_all_correct(self):
        report = metrics_from_predictions([0, 1, 2, 3], [0, 1, 2, 3], 4)
        assert report.accuracy == 1.0
        assert all(m.f1 == 1.0 for m in report.per_class)
        assert report.macro_f1 == 1.0

    def test_two_class_hand_oracle(self):
        # truth (0,1,1,1), predictions (0,0,1,1):
        # class 1: TP=2, FP=0, FN=1 -> precision 1, recall 2/3, F1 0.8
        report = metrics_from_predictions([0, 1, 1, 1], [0, 0, 1, 1], 2)
        m1 = report.per_class[1]
        assert m1.precision == pytest.approx(1.0)
        assert m1.recall == pytest.approx(2 / 3)
        assert m1.f1 == pytest.approx(0.8)
        assert report.accuracy == pytest.approx(0.75)

    def test_absent_class_zero_rates(self):
        report = metrics_from_predictions([0, 0, 1], [0, 0, 1], 4)
        for c in (2, 3):
            m = report.per_class[c]
            assert (m.precision, m.recall, m.f1) == (0.0, 0.0, 0.0)

    def test_counts_consistent_with_confusion(self):
        rng = np.random.default_rng(3)
        truth = rng.integers(4, size=60)
        pred = rng.integers(4, size=60)
        report = metrics_from_predictions(truth, pred, 4)
        for c, m in enumerate(report.per_class):
            assert m.tp + m.fn == int(np.sum(truth == c))
            assert m.tp + m.fp == int(np.sum(pred == c))
            assert m.tp + m.fp + m.tn + m.fn == 60
            assert 0.0 <= m.precision <= 1.0 and 0.0 <= m.recall <= 1.0

    def test_f1_between_precision_and_recall(self):
        rng = np.random.default_rng(4)
        for _ in range(30):
            truth = rng.integers(3, size=40)
            pred = rng.integers(3, size=40)
            report = metrics_from_predictions(truth, pred, 3)
            for m in report.per_class:
                if m.precision > 0 and m.recall > 0:
                    assert min(m.precision, m.recall) - 1e-12 <= m.f1
                    assert m.f1 <= max(m.precision, m.recall) + 1e-12

    def test_permutation_invariance(self):
        splits = separable_splits(n_per_class=15)
        spec = nn.NetworkSpec((nn.dense(NUM_FEATURES, 2), nn.softmax(2)))
        model = nn.Model(spec, rng=np.random.default_rng(5))
        report_a = evaluate(model, splits.test)
        shuffled = subset(splits.test,
                          np.random.default_rng(6).permutation(len(splits.test)))
        report_b = evaluate(model, shuffled)
        assert report_a.to_dict() == report_b.to_dict()

    def test_empty_test_set(self):
        model = build_multicred(4)
        with pytest.raises(DomainError):
            evaluate(model, empty_dataset(4))

    @pytest.mark.parametrize("test_classes", [2, 6])
    def test_class_count_mismatch_is_state_error(self, test_classes):
        model = build_multicred(4)
        test = make_dataset(np.zeros((3, NUM_FEATURES)), [0, 1, 1], test_classes)
        with pytest.raises(nn.StateError, match=f"num_classes 4 .* num_classes {test_classes}"):
            evaluate(model, test)

    def test_report_json_is_stable(self):
        report = metrics_from_predictions([0, 1, 1], [0, 1, 0], 2)
        assert report.to_json() == report.to_json()
        parsed = __import__("json").loads(report.to_json())
        assert {"accuracy", "macro", "per_class"} <= set(parsed)


class TestArtifacts:
    def test_history_csv(self, tmp_path):
        splits = separable_splits(n_per_class=10)
        spec = nn.NetworkSpec((nn.dense(NUM_FEATURES, 2), nn.softmax(2)))
        model = nn.Model(spec, rng=np.random.default_rng(7))
        _, history = train(model, splits, TrainConfig(num_classes=2, max_epochs=4,
                                                      patience=4, seed=0))
        path = tmp_path / "history.csv"
        write_history_csv(history, path)
        lines = path.read_text("utf-8").strip().splitlines()
        assert lines[0] == "epoch,train_loss,val_accuracy,lr"
        assert len(lines) == history.epochs_run + 1
