"""Output checks run on every command the benchmark times.

Each check returns a list of problems; an empty list means the output
is correct. The checks read only the files the command wrote.
"""

from __future__ import annotations

import csv
import json
import math
from collections import Counter
from pathlib import Path

TRAIN_FRACTION, TEST_FRACTION = 0.7, 0.2


def expected_split_sizes(users: int) -> dict[str, int]:
    train, test = int(TRAIN_FRACTION * users), int(TEST_FRACTION * users)
    return {"train": train, "test": test, "validation": users - train - test}


def check_prepared(prep_dir: Path, users: int) -> list[str]:
    """Split sizes are 70/20/10 % of the input, and SMOTE balanced train.csv.

    Every class in train.csv must hold the majority count of the original
    (non-synthetic) training rows.
    """
    problems = []
    meta = json.loads((prep_dir / "prepare_meta.json").read_text("utf-8"))
    if meta["split_sizes"] != expected_split_sizes(users):
        problems.append(f"split sizes {meta['split_sizes']} != {expected_split_sizes(users)}")
    with open(prep_dir / "train.csv", newline="", encoding="utf-8") as fh:
        rows = list(csv.reader(fh))[1:]
    real = Counter(r[-1] for r in rows if not r[0].startswith("smote:"))
    total = Counter(r[-1] for r in rows)
    majority = max(real.values(), default=0)
    unbalanced = {c: n for c, n in total.items() if n != majority}
    if not rows or unbalanced:
        problems.append(f"train.csv classes {dict(total)} do not all hold the majority {majority}")
    if sum(real.values()) != meta["split_sizes"]["train"]:
        problems.append(f"train.csv has {sum(real.values())} real rows, "
                        f"meta says {meta['split_sizes']['train']}")
    return problems


def read_macro_f1(report_path: Path) -> float:
    return float(json.loads(report_path.read_text("utf-8"))["macro"]["f1"])


def check_report(report_path: Path, min_macro_f1: float) -> list[str]:
    f1 = read_macro_f1(report_path)
    if not math.isfinite(f1) or not 0.0 <= f1 <= 1.0:
        return [f"macro F1 {f1} outside [0, 1]"]
    if f1 < min_macro_f1:
        return [f"macro F1 {f1:.4f} below {min_macro_f1}"]
    return []


def check_predictions(path: Path, user_ids: list[str], num_classes: int) -> list[str]:
    """One row per input user, in order; probabilities sum to 1 within 1e-9;
    ``predicted_class`` is the argmax (first index on ties)."""
    with open(path, newline="", encoding="utf-8") as fh:
        rows = list(csv.reader(fh))
    header = ["user_id"] + [f"p_class{i}" for i in range(num_classes)] + ["predicted_class"]
    if not rows or rows[0] != header:
        return [f"predictions header {rows[0] if rows else None} != {header}"]
    body = rows[1:]
    if [r[0] for r in body] != list(user_ids):
        return [f"predictions cover {len(body)} rows, expected one per each of "
                f"{len(user_ids)} users in input order"]
    problems = []
    for row in body:
        if len(row) != num_classes + 2:
            problems.append(f"{row[0]}: {len(row)} columns, expected {num_classes + 2}")
            continue
        try:
            probs = [float(p) for p in row[1:-1]]
            predicted = int(row[-1])
        except ValueError as exc:
            problems.append(f"{row[0]}: unparsable value ({exc})")
            continue
        if any(not math.isfinite(p) or p < 0.0 for p in probs) or abs(sum(probs) - 1.0) > 1e-9:
            problems.append(f"{row[0]}: probabilities {probs} are not a distribution")
        if predicted != max(range(num_classes), key=lambda i: (probs[i], -i)):
            problems.append(f"{row[0]}: predicted_class {predicted} is not the argmax")
    return problems[:10]
