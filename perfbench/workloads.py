"""The three workloads: what each builds in set-up and which commands it times.

Every workload reports every end-to-end metric. The commands a workload
exists for are named in its docstring; the others run at a small size so
that each metric is measured, and each layer exercised, on every workload.
"""

from __future__ import annotations

import shutil
import time
from pathlib import Path

import inputs
from checks import check_predictions, check_prepared, check_report, read_macro_f1
from harness import Bench, Command, user_ids

# The ROADMAP's quality gate on the paper configuration, and a floor well
# below what the side models of the other two workloads score (see README).
MIN_MACRO_F1 = {"standard": 0.90, "bulk-score": 0.80, "skewed-prepare": 0.80}
# standard trains this many epochs: the ROADMAP baseline's count (early
# stop at best epoch 4 + patience 200), fixed for every seed.
STANDARD_EPOCHS = 205


def _prepare(b: Bench, data: Path, prep: Path, users: int, tweets: int, *extra,
             peak: bool = True) -> Command:
    shutil.rmtree(prep, ignore_errors=True)
    c = b.cli("prepare", "--data", data, "--out", prep, "--classes", inputs.CLASSES,
              "--seed", 7, *extra, tweets=tweets, peak=peak,
              check=lambda: check_prepared(prep, users))
    b.samples["prepare_s"].append(c.wall_s)
    return c


def _train(b: Bench, prep: Path, model: Path, *extra, peak: bool = True) -> Command:
    c = b.cli("train", "--prepared", prep, "--out", model, "--seed", 0, *extra, peak=peak,
              check=lambda: b.same_bytes("model", model))
    b.samples["train_s"].append(c.wall_s)
    return c


def _evaluate(b: Bench, model: Path, prep: Path, peak: bool = True) -> Command:
    report = b.dir / "report.json"
    c = b.cli("evaluate", "--model", model, "--prepared", prep, "--out", report, peak=peak,
              check=lambda: check_report(report, MIN_MACRO_F1[b.workload])
              + b.same_bytes("report", report))
    if c.ok:
        b.samples["macro_f1"].append(read_macro_f1(report))
    return c


def _predict(b: Bench, model: Path, data: Path, users: list[str], tweets: int) -> Command:
    preds = b.dir / "predictions.csv"
    c = b.cli("predict", "--model", model, "--input", data, "--out", preds, tweets=tweets,
              check=lambda: check_predictions(preds, users, inputs.CLASSES)
              + b.same_bytes("predictions", preds))
    b.samples["score_users_per_s"].append(len(users) / c.wall_s)
    return c


def _run(b: Bench, build, dirs: list[Path], steps: list) -> None:
    """Set up with ``steps`` spread over the builds (see :meth:`Bench.setup`),
    then repeat all the steps until ``b.seconds`` are measured. Each step
    gets the build's info dict. A traced run also records the inputs'
    hash-feature statistics, which depend on the seed only."""
    started = time.perf_counter()
    info = b.setup(build, dirs, steps)
    if b.trace:
        b.input_stats = {d.name: inputs.hash_feature_stats(d) for d in dirs}
        for name, stats in b.input_stats.items():
            print(f"  input     {name}: {stats}")
    last = time.perf_counter() - started
    while b.measuring(started, last):
        begun = time.perf_counter()
        for step in steps:
            step(info)
        last = time.perf_counter() - begun


def run_standard(b: Bench) -> None:
    """The paper configuration: prepare, train, evaluate, predict over 400 users.

    Training runs a fixed STANDARD_EPOCHS (patience == max-epochs), so that
    train time does not depend on the epoch at which a seed's validation
    accuracy peaks. train and evaluate run twice and predict three times, so
    that their outputs are compared byte for byte within every run and
    train_s is not one heap layout's luck (see harness.LAYOUT_PAD).
    """
    data, prep, model = b.dir / "data", b.dir / "prepared", b.dir / "model.json"

    def train(info):
        _train(b, prep, model, "--max-epochs", STANDARD_EPOCHS, "--patience", STANDARD_EPOCHS)

    def score(info):
        _predict(b, model, data, user_ids(data), info["tweets"])

    def prepare_train_score(info):
        _prepare(b, data, prep, info["users"], info["tweets"])
        train(info)
        _evaluate(b, model, prep)
        score(info)

    def train_score(info):
        train(info)
        score(info)

    def evaluate_score(info):
        _evaluate(b, model, prep)
        score(info)

    _run(b, lambda: inputs.write_standard(b.seed, data), [data],
         [prepare_train_score, train_score, evaluate_score])


def run_bulk_score(b: Bench) -> None:
    """Predict three times over a tweet-heavy unlabeled set. The bundle it
    scores with is prepared, trained and evaluated in set-up, on a small
    labeled set."""
    bundle_data, score = b.dir / "bundle-data", b.dir / "score-data"
    prep, model = b.dir / "prepared", b.dir / "model.json"

    def build() -> dict:
        info = inputs.write_bulk(b.seed, bundle_data, score)
        _prepare(b, bundle_data, prep, inputs.BUNDLE_USERS, info["bundle_tweets"],
                 "--ae-epochs", 1, peak=False)
        # patience == max-epochs gives a fixed epoch count, so train time does
        # not depend on the epoch at which validation accuracy peaks.
        _train(b, prep, model, "--max-epochs", 10, "--patience", 10, peak=False)
        _evaluate(b, model, prep, peak=False)
        return info

    def predict(info):
        _predict(b, model, score, user_ids(score), info["tweets"])

    _run(b, build, [bundle_data, score], [predict] * 3)


def run_skewed_prepare(b: Bench) -> None:
    """Prepare over 2,400 users in a 55/25/12/8 % class mix; then a short
    training, evaluate, and three scorings of a strided 240-user subset.

    Training runs four epochs and keeps the best (patience == max-epochs, so
    the epoch count is fixed): after one epoch macro-F1 ranged 0.62-0.93
    over seeds 1-5, after four 0.93-0.98.
    """
    data, score = b.dir / "data", b.dir / "score-data"
    prep, model = b.dir / "prepared", b.dir / "model.json"

    def predict(info):
        _predict(b, model, score, user_ids(score), info["score_tweets"])

    def prepare_train_predict(info):
        _prepare(b, data, prep, info["users"], info["tweets"], "--ae-epochs", 2)
        _train(b, prep, model, "--max-epochs", 4, "--patience", 4)
        predict(info)

    def evaluate_predict(info):
        _evaluate(b, model, prep)
        predict(info)

    _run(b, lambda: inputs.write_skewed(b.seed, data, score), [data, score],
         [prepare_train_predict, predict, evaluate_predict])


RUNNERS = {
    "standard": run_standard,
    "bulk-score": run_bulk_score,
    "skewed-prepare": run_skewed_prepare,
}
