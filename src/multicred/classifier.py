"""The credibility classifier: architecture, training loop, and metrics.

The network (for C classes):

    dropout -> dense 51->256 -> relu -> batchnorm -> dropout
            -> dense 256->256 -> relu -> batchnorm -> dropout
            -> dense 256->64 -> relu -> dense 64->C -> softmax

trained with categorical cross-entropy, Adam, an exponentially decaying
learning rate, and early stopping on validation accuracy with
best-weights restoration.
"""

from __future__ import annotations

import csv
import json
from dataclasses import dataclass
from pathlib import Path
from typing import Sequence

import numpy as np

from .domain import ALLOWED_CLASS_COUNTS, DomainError
from .features import NUM_FEATURES, LabeledDataset, SplitDataset
from . import network as nn
from .store import atomic_write

INPUT_DIM = NUM_FEATURES
HIDDEN_WIDE = 256
HIDDEN_NARROW = 64


@dataclass(frozen=True)
class TrainConfig:
    num_classes: int
    max_epochs: int = 2000
    patience: int = 200
    batch_size: int = 16
    seed: int = 0

    def __post_init__(self):
        if self.num_classes < 2:
            raise DomainError(f"num_classes must be >= 2, got {self.num_classes}")
        if self.batch_size < 1:
            raise DomainError("batch_size must be >= 1")
        if not 1 <= self.patience <= self.max_epochs:
            raise DomainError("patience must lie in [1, max_epochs]")
        if self.seed < 0:
            raise DomainError(f"seed must be >= 0, got {self.seed}")


@dataclass
class TrainHistory:
    """Per-epoch training curves plus where early stopping landed."""

    train_loss: list[float]
    val_accuracy: list[float]
    learning_rate: list[float]
    best_epoch: int
    stopped_early: bool

    @property
    def epochs_run(self) -> int:
        return len(self.train_loss)


@dataclass(frozen=True)
class ClassMetrics:
    tp: int
    fp: int
    tn: int
    fn: int
    precision: float
    recall: float
    f1: float


@dataclass(frozen=True)
class MetricsReport:
    """Per-class one-vs-rest counts and rates, macro averages, accuracy."""

    per_class: tuple[ClassMetrics, ...]
    macro_precision: float
    macro_recall: float
    macro_f1: float
    accuracy: float

    def to_dict(self) -> dict:
        return {
            "accuracy": self.accuracy,
            "macro": {
                "precision": self.macro_precision,
                "recall": self.macro_recall,
                "f1": self.macro_f1,
            },
            "per_class": [
                {
                    "class": c,
                    "tp": m.tp, "fp": m.fp, "tn": m.tn, "fn": m.fn,
                    "precision": m.precision, "recall": m.recall, "f1": m.f1,
                }
                for c, m in enumerate(self.per_class)
            ],
        }

    def to_json(self) -> str:
        return json.dumps(self.to_dict(), indent=2, sort_keys=True)


def classifier_spec(num_classes: int) -> nn.NetworkSpec:
    """The classifier's layers for ``num_classes`` classes, one of
    ALLOWED_CLASS_COUNTS."""
    if num_classes not in ALLOWED_CLASS_COUNTS:
        raise DomainError(
            f"num_classes must be one of {ALLOWED_CLASS_COUNTS}, got {num_classes}"
        )
    return nn.NetworkSpec((
        nn.dropout(INPUT_DIM),
        nn.dense(INPUT_DIM, HIDDEN_WIDE),
        nn.relu(HIDDEN_WIDE),
        nn.batchnorm(HIDDEN_WIDE),
        nn.dropout(HIDDEN_WIDE),
        nn.dense(HIDDEN_WIDE, HIDDEN_WIDE),
        nn.relu(HIDDEN_WIDE),
        nn.batchnorm(HIDDEN_WIDE),
        nn.dropout(HIDDEN_WIDE),
        nn.dense(HIDDEN_WIDE, HIDDEN_NARROW),
        nn.relu(HIDDEN_NARROW),
        nn.dense(HIDDEN_NARROW, num_classes),
        nn.softmax(num_classes),
    ))


def build_multicred(num_classes: int, seed: int = 0) -> nn.Model:
    """Build the classifier network with seeded initialization."""
    return nn.Model(classifier_spec(num_classes), rng=np.random.default_rng(seed))


def _one_hot(labels: np.ndarray, num_classes: int) -> np.ndarray:
    out = np.zeros((labels.shape[0], num_classes))
    out[np.arange(labels.shape[0]), labels] = 1.0
    return out


def train(
    model: nn.Model, splits: SplitDataset, config: TrainConfig
) -> tuple[nn.Model, TrainHistory]:
    """Run the full training protocol; the model comes back at its best epoch.

    Each epoch is one :func:`network.train_epoch` on the seeded
    generator; after it validation accuracy is recorded, and training
    stops once that has not strictly improved for ``patience`` epochs
    (or at max_epochs).
    """
    if len(splits.train) == 0 or len(splits.validation) == 0:
        raise DomainError("train and validation splits must be non-empty")
    if splits.train.num_classes != config.num_classes:
        raise DomainError(
            f"splits carry {splits.train.num_classes} classes, config says "
            f"{config.num_classes}"
        )

    targets = _one_hot(splits.train.y, config.num_classes)
    rng = np.random.default_rng(config.seed)
    state = nn.init_adam(model)

    history = TrainHistory(
        train_loss=[], val_accuracy=[], learning_rate=[],
        best_epoch=0, stopped_early=False,
    )
    best_accuracy = -1.0
    best = model.snapshot()
    epochs_since_best = 0

    for epoch in range(config.max_epochs):
        history.train_loss.append(nn.train_epoch(
            model, splits.train.x, targets, state, epoch, config.batch_size, rng))
        predicted = predict_batch(model, splits.validation.x,
                                  splits.validation.user_ids).argmax(axis=1)
        accuracy = float(np.mean(predicted == splits.validation.y))
        history.val_accuracy.append(accuracy)
        history.learning_rate.append(nn.lr_at(epoch))

        if accuracy > best_accuracy:
            best_accuracy = accuracy
            history.best_epoch = epoch
            best = model.snapshot()
            epochs_since_best = 0
        else:
            epochs_since_best += 1
            if epochs_since_best >= config.patience:
                history.stopped_early = True
                break

    model.restore(best)
    return model, history


def predict(model: nn.Model, vector: np.ndarray, user_id: str) -> np.ndarray:
    """Class probabilities for user ``user_id``'s 51-component feature vector."""
    return predict_batch(model, np.asarray(vector, dtype=float)[None, :], (user_id,))[0]


def predict_batch(model: nn.Model, matrix: np.ndarray,
                  user_ids: Sequence[str]) -> np.ndarray:
    """Class probabilities for each row of ``matrix``, row ``i`` being user
    ``user_ids[i]``.

    A row of probabilities that is not finite, which a feature or weight
    large enough to overflow the network's arithmetic gives, raises a
    NumericError naming the first such user.
    """
    # The check below reports an overflow; numpy's warnings would repeat it.
    with np.errstate(over="ignore", invalid="ignore"):
        probs = nn.forward(model, matrix).outputs
    finite = np.isfinite(probs).all(axis=1)
    if not finite.all():
        raise nn.NumericError(f"non-finite class probabilities for user "
                              f"{user_ids[int(np.argmin(finite))]}")
    return probs


def evaluate(model: nn.Model, test: LabeledDataset) -> MetricsReport:
    """Score a test set: per-class one-vs-rest counts, macro rates, accuracy.

    Rates with zero denominators are defined as 0 so macro averages stay
    finite even for classes absent from both truth and predictions.
    """
    if model.spec.output_dim != test.num_classes:
        raise nn.StateError(
            f"model has num_classes {model.spec.output_dim} but the test set has "
            f"num_classes {test.num_classes}"
        )
    if len(test) == 0:
        raise DomainError("test set is empty")
    predicted = predict_batch(model, test.x, test.user_ids).argmax(axis=1)
    return metrics_from_predictions(test.y, predicted, test.num_classes)


def metrics_from_predictions(
    truth: np.ndarray, predicted: np.ndarray, num_classes: int
) -> MetricsReport:
    truth = np.asarray(truth, dtype=int)
    predicted = np.asarray(predicted, dtype=int)
    total = truth.shape[0]

    per_class = []
    for c in range(num_classes):
        tp = int(np.sum((predicted == c) & (truth == c)))
        fp = int(np.sum((predicted == c) & (truth != c)))
        fn = int(np.sum((predicted != c) & (truth == c)))
        tn = total - tp - fp - fn
        precision = tp / (tp + fp) if tp + fp > 0 else 0.0
        recall = tp / (tp + fn) if tp + fn > 0 else 0.0
        f1 = (
            2.0 * precision * recall / (precision + recall)
            if precision + recall > 0 else 0.0
        )
        per_class.append(ClassMetrics(tp, fp, tn, fn, precision, recall, f1))

    return MetricsReport(
        per_class=tuple(per_class),
        macro_precision=float(np.mean([m.precision for m in per_class])),
        macro_recall=float(np.mean([m.recall for m in per_class])),
        macro_f1=float(np.mean([m.f1 for m in per_class])),
        accuracy=float(np.mean(predicted == truth)),
    )


def write_history_csv(history: TrainHistory, path: str | Path) -> None:
    """Export curves as CSV: ``epoch,train_loss,val_accuracy,lr``."""
    with atomic_write(path, newline="") as fh:
        writer = csv.writer(fh)
        writer.writerow(["epoch", "train_loss", "val_accuracy", "lr"])
        rows = zip(history.train_loss, history.val_accuracy, history.learning_rate)
        for epoch, (loss, acc, lr) in enumerate(rows):
            writer.writerow([epoch, repr(loss), repr(acc), repr(lr)])

