"""Acceptance suite: one test per release criterion, each printing a
PASS/FAIL line (run with -s or check captured output).

The end-to-end criteria share a module-scoped fixture that runs the full
CLI pipeline twice with identical seeds on the standard benchmark
configuration (400 users, 4 classes, full separation, seed 7).
"""

import functools
import json
import math
import time

import numpy as np
import pytest

from multicred import network as nn
from multicred.autoencoder import AutoencoderSpec, SparseCorpus, train_autoencoder
from multicred.classifier import TrainConfig, build_multicred, predict, train
from multicred.cli import run
from multicred.dataset import SyntheticConfig, generate_synthetic
from multicred.domain import ClassificationSystem
from multicred.embedding import EmbedderSpec, analyze_sentiment
from multicred.features import (
    LabeledDataset,
    NormalizationStats,
    SplitDataset,
    apply_minmax,
    fit_minmax,
    smote,
    smote_plan,
)
from multicred.preprocess import preprocess

from conftest import (count_params, feature_rows, grad_check, reconstruction_mse,
                      untrained_autoencoder_model)

NUM_FEATURES = 51


def criterion(number, title):
    def decorate(fn):
        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            try:
                fn(*args, **kwargs)
            except BaseException:
                print(f"[acceptance] criterion {number:2d} FAIL  {title}")
                raise
            print(f"[acceptance] criterion {number:2d} PASS  {title}")
        return wrapper
    return decorate


@pytest.fixture(scope="module")
def pipeline_runs(tmp_path_factory):
    """The criterion-7 pipeline executed twice with identical seeds."""
    results = []
    for name in ("first", "second"):
        root = tmp_path_factory.mktemp(name)
        data, prep = root / "data", root / "prep"
        model, report = root / "model.json", root / "report.json"
        started = time.monotonic()
        assert run(["generate", "--users", "400", "--classes", "4", "--seed", "7",
                    "--out", str(data)]) == 0
        assert run(["prepare", "--data", str(data), "--out", str(prep),
                    "--classes", "4", "--seed", "7"]) == 0
        assert run(["train", "--prepared", str(prep), "--out", str(model),
                    "--seed", "0"]) == 0
        assert run(["evaluate", "--model", str(model), "--prepared", str(prep),
                    "--out", str(report)]) == 0
        results.append({
            "root": root,
            "report_bytes": report.read_bytes(),
            "meta": json.loads((prep / "prepare_meta.json").read_text("utf-8")),
            "elapsed": time.monotonic() - started,
        })
    return results


@criterion(1, "classifier parameter counts match the golden values exactly")
def test_parameter_golden():
    model = build_multicred(10)
    assert count_params(model.spec) == (98250, 97226)
    rows = []
    for layer in model.spec.layers:
        total, _ = count_params(nn.NetworkSpec((layer,)))
        if total:
            rows.append(total)
    assert rows == [13312, 1024, 65792, 1024, 16448, 650]


@criterion(2, "cross-entropy analytics: ln 2 and ln 10 within 1e-9")
def test_loss_analytics():
    binary = nn.cross_entropy(np.array([[0.5, 0.5]]), np.array([[1.0, 0.0]]))
    assert abs(binary - math.log(2)) < 1e-9
    uniform = nn.cross_entropy(np.full((1, 10), 0.1), np.eye(10)[:1])
    assert abs(uniform - math.log(10)) < 1e-9


@criterion(3, "analytic gradients match central differences within 1e-4")
def test_gradient_oracle():
    spec = nn.NetworkSpec((nn.dense(51, 8), nn.relu(8), nn.dense(8, 4), nn.softmax(4)))
    model = nn.Model(spec, rng=np.random.default_rng(42))
    rng = np.random.default_rng(7)
    inputs = rng.normal(size=(8, 51))
    targets = np.eye(4)[rng.integers(4, size=8)]
    assert grad_check(model, (inputs, targets), eps=1e-5) < 1e-4


@criterion(4, "SMOTE equalizes a skewed class distribution and stays on segments")
def test_smote_equalization_and_geometry():
    rng = np.random.default_rng(0)
    ids, rows, labels = [], [], []
    for c, count in enumerate((507, 83, 33, 24)):
        for i in range(count):
            ids.append(f"u{c}_{i}")
            rows.append(rng.normal(size=NUM_FEATURES) + 2.5 * c)
            labels.append(c)
    dataset = LabeledDataset(tuple(ids), np.array(rows), np.array(labels), num_classes=4)

    balanced = smote(dataset, k=5, seed=13)
    assert balanced.class_counts() == [507, 507, 507, 507]

    # Independent projection oracle over every synthetic point, rebuilt
    # from the plan's row indices.
    x, y = dataset.x, dataset.y
    classes, base_ids, neighbor_ids, _ = smote_plan(dataset, k=5, seed=13)
    synthetic_rows = balanced.x[len(dataset):]
    assert len(classes) == len(synthetic_rows) == 3 * 507 - 83 - 33 - 24
    for c, b, nb, synthetic in zip(classes, base_ids, neighbor_ids, synthetic_rows):
        assert y[b] == c and y[nb] == c
        base, neighbor = x[b], x[nb]
        direction = neighbor - base
        denom = float(direction @ direction)
        assert denom > 0.0
        lam = float((synthetic - base) @ direction) / denom
        residual = float(np.linalg.norm((synthetic - base) - lam * direction))
        assert residual < 1e-9
        assert -1e-12 <= lam <= 1.0 + 1e-12


@criterion(5, "min-max normalization maps the fitting set into [0,1] and 5 -> 0.5")
def test_normalization():
    matrix = np.random.default_rng(3).normal(scale=25, size=(200, 12))
    stats = fit_minmax(matrix)
    scaled = apply_minmax(stats, matrix)
    assert scaled.min() >= 0.0 and scaled.max() <= 1.0

    hand = NormalizationStats(np.array([0.0]), np.array([10.0]))
    assert apply_minmax(hand, np.array([5.0]))[0] == 0.5
    assert apply_minmax(hand, np.array([0.0]))[0] == 0.0
    assert apply_minmax(hand, np.array([10.0]))[0] == 1.0


@criterion(6, "autoencoder convergence: <1% of initial on constant corpus; training helps")
def test_autoencoder_convergence():
    base = np.random.default_rng(11).normal(size=768)
    base /= np.linalg.norm(base)
    constant = np.tile(base, (64, 1))
    spec = AutoencoderSpec(epochs=200, batch_size=16, seed=3)
    initial = reconstruction_mse(untrained_autoencoder_model(spec), constant)
    trained_ae, _ = train_autoencoder(SparseCorpus.from_chunks([constant]), spec)
    final = reconstruction_mse(trained_ae.model, constant)
    assert final < 0.01 * initial

    corpus = np.random.default_rng(5).normal(size=(500, 768)) * 0.05
    quick_spec = AutoencoderSpec(epochs=8, batch_size=16, seed=3)
    untrained_err = reconstruction_mse(untrained_autoencoder_model(quick_spec), corpus)
    quick_ae, _ = train_autoencoder(SparseCorpus.from_chunks([corpus]), quick_spec)
    assert reconstruction_mse(quick_ae.model, corpus) < untrained_err


@criterion(7, "end-to-end pipeline reaches macro-F1 >= 0.90 with exact split sizes")
def test_end_to_end_quality(pipeline_runs):
    first = pipeline_runs[0]
    report = json.loads(first["report_bytes"])
    assert report["macro"]["f1"] >= 0.90
    assert first["meta"]["split_sizes"] == {"train": 280, "test": 80, "validation": 40}
    assert first["elapsed"] < 300.0


@criterion(8, "identical seeds give byte-identical metrics reports")
def test_end_to_end_determinism(pipeline_runs):
    assert pipeline_runs[0]["report_bytes"] == pipeline_runs[1]["report_bytes"]


@criterion(9, "structural contracts: 51 components, distributions sum to 1")
def test_structural_contracts(tmp_path):
    config = SyntheticConfig(num_users=8, system=ClassificationSystem(4),
                             tweets_per_user=3, comments_per_user=2, seed=21)
    records = generate_synthetic(config)
    embedder = EmbedderSpec(hash_seed=0)
    corpus = np.random.default_rng(0).normal(size=(8, 768)) * 0.1
    ae, _ = train_autoencoder(SparseCorpus.from_chunks([corpus]),
                              AutoencoderSpec(epochs=2, batch_size=4, seed=0))
    rows = feature_rows(records, tmp_path, embedder, ae)
    assert rows.shape == (8, 51)

    rng = np.random.default_rng(1)
    for _ in range(50):
        text = " ".join(rng.choice(["angry", "happy", "story", "fear", "x"], size=6))
        dist = analyze_sentiment([preprocess(text)])
        assert abs(float(dist.sum()) - 1.0) < 1e-9

    model = build_multicred(4, seed=0)
    for _ in range(20):
        probs = predict(model, rng.normal(size=51), "u0")
        assert abs(float(probs.sum()) - 1.0) < 1e-9


@criterion(10, "early stopping halts at first_best + 200 and restores the snapshot")
def test_early_stopping_contract():
    rng = np.random.default_rng(2)
    # Single-label data: validation accuracy saturates immediately and can
    # never improve afterwards.
    train_set = LabeledDataset(tuple(f"t{i}" for i in range(8)),
                               np.array([rng.normal(size=NUM_FEATURES) for _ in range(8)]),
                               np.zeros(8, dtype=np.intp), 4)
    val_set = LabeledDataset(tuple(f"v{i}" for i in range(4)),
                             np.array([rng.normal(size=NUM_FEATURES) for _ in range(4)]),
                             np.zeros(4, dtype=np.intp), 4)
    splits = SplitDataset(train=train_set, test=val_set, validation=val_set)

    def fresh_model():
        spec = nn.NetworkSpec((nn.dense(NUM_FEATURES, 4), nn.softmax(4)))
        return nn.Model(spec, rng=np.random.default_rng(3))

    config = TrainConfig(num_classes=4, max_epochs=2000, patience=200,
                         batch_size=16, seed=5)
    stopped, history = train(fresh_model(), splits, config)
    assert history.stopped_early
    assert history.epochs_run - 1 == history.best_epoch + 200

    # Deterministic replay up to the best epoch reproduces the snapshot
    # the early-stopped model must have been restored to.
    replay_config = TrainConfig(num_classes=4, max_epochs=history.best_epoch + 1,
                                patience=history.best_epoch + 1, batch_size=16, seed=5)
    replay, _ = train(fresh_model(), splits, replay_config)
    for p0, p1 in zip(stopped.params, replay.params):
        for key in p0:
            np.testing.assert_array_equal(p0[key], p1[key])
