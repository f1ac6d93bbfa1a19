"""Golden outputs: one small pipeline run, every file it writes pinned by SHA-256.

The run generates a dataset whose class mix is skewed (so SMOTE synthesizes
rows in several classes), with one user whose tweets file is absent and one
with no comments, and with four copies of one user that each flip another
profile flag: distinct points at exactly equal distances, so that SMOTE's
tie order shows in the rows it writes. It then prepares with a short
autoencoder training, trains until early stopping fires, evaluates and
predicts, all through ``cli.run``, with one to four usable CPUs, so
that the feature passes run in this process and in a pool, with ranges
of equal and of unequal size.
``golden.json`` holds the digest of the dataset tree and of every output
file, and the environment the digests were taken in: float results may
differ in the last bit on another numpy, BLAS, Python or machine, so there
the test fails and names what differs.

A change that alters output bits on purpose regenerates the file with

    PYTHONPATH=src python3 tests/test_golden.py

(which prints each environment field and each digest that differs from
the old file before it rewrites it) and says which files changed, and why.
"""

import hashlib
import json
import platform
import sys
from dataclasses import replace
from pathlib import Path

import numpy as np
import pytest

from multicred.cli import run
from multicred.dataset import SyntheticConfig, generate_synthetic, write_dataset
from multicred.domain import ClassificationSystem, bin_score

from conftest import use_cpus

GOLDEN = Path(__file__).with_name("golden.json")

SYSTEM = ClassificationSystem(4)
# Users kept per class, in id order, as perfbench's skewed workload does.
KEEP = {0: 24, 1: 12, 2: 8, 3: 6}
FLAGS = ("protected", "geo_enabled", "verified", "profile_use_background_image")


def environment() -> dict:
    blas = np.show_config(mode="dicts")["Build Dependencies"]["blas"]
    return {"python": platform.python_version(), "numpy": np.__version__,
            "blas": f"{blas['name']} {blas['version']}", "machine": platform.machine()}


def sha256(data: bytes) -> str:
    return hashlib.sha256(data).hexdigest()


def tree_sha256(root: Path) -> str:
    h = hashlib.sha256()
    for p in sorted(root.rglob("*")):
        if p.is_file():
            h.update(str(p.relative_to(root).as_posix()).encode())
            h.update(p.read_bytes())
    return h.hexdigest()


def write_data(root: Path) -> None:
    generated = generate_synthetic(SyntheticConfig(
        num_users=4 * max(KEEP.values()), system=SYSTEM, tweets_per_user=4,
        comments_per_user=3, seed=7))
    left, kept = dict(KEEP), []
    for record in generated:
        c = bin_score(record.score, SYSTEM)
        if left[c]:
            left[c] -= 1
            kept.append(record)
    kept[1] = replace(kept[1], comments=())
    base = next(r for r in kept if bin_score(r.score, SYSTEM) == 3)
    kept += [replace(base, user_id=f"{base.user_id}-{flag}", profile=replace(
        base.profile, **{flag: not getattr(base.profile, flag)})) for flag in FLAGS]
    write_dataset(kept, root)
    (root / "tweets" / f"{kept[0].user_id}.json").unlink()


def run_pipeline(root: Path) -> dict:
    """The digests of one pipeline run under ``root``: of the dataset tree
    and of each file the commands wrote. Stdout holds paths and is left out."""
    data, prep, model = root / "data", root / "prep", root / "model.json"
    write_data(data)
    steps = [
        ["prepare", "--data", str(data), "--out", str(prep), "--classes", "4",
         "--seed", "7", "--ae-epochs", "2", "--ae-corpus-cap", "80"],
        ["train", "--prepared", str(prep), "--out", str(model), "--seed", "0",
         "--max-epochs", "40", "--patience", "6"],
        ["evaluate", "--model", str(model), "--prepared", str(prep),
         "--out", str(root / "report.json")],
        ["predict", "--model", str(model), "--input", str(data),
         "--out", str(root / "predictions.csv")],
    ]
    for argv in steps:
        assert run(argv) == 0, argv
    files = {"data/": tree_sha256(data)}
    for p in sorted(root.rglob("*")):
        if p.is_file() and data not in p.parents:
            files[p.relative_to(root).as_posix()] = sha256(p.read_bytes())
    return files


def check_golden(tmp_path):
    """Run the pipeline under ``tmp_path`` and compare every digest with golden.json."""
    golden = json.loads(GOLDEN.read_text("utf-8"))
    here = environment()
    differs = {k: (golden["environment"].get(k), v) for k, v in here.items()
               if golden["environment"].get(k) != v}
    assert not differs, (f"golden.json was taken in another environment, (then, now): "
                         f"{differs}; regenerate it there, see this file's docstring")

    files = run_pipeline(tmp_path)
    # What the run must exercise for the digests to cover it.
    train_ids = [line.split(",", 1)[0] for line in
                 (tmp_path / "prep" / "train.csv").read_text("utf-8").splitlines()[1:]]
    assert len({i.split(":")[1] for i in train_ids if i.startswith("smote:")}) >= 2
    history = (tmp_path / "model.history.csv").read_text("utf-8").splitlines()
    assert len(history) - 1 < 40, "early stopping did not fire"

    changed = sorted(set(files) ^ set(golden["files"])
                     | {k for k in files if files[k] != golden["files"].get(k)})
    assert not changed, f"outputs differ from golden.json: {changed}"


@pytest.mark.parametrize("cpus", [1, 2, 3, 4])
def test_outputs_match_golden(tmp_path, monkeypatch, cpus):
    """With one usable CPU the feature passes run in this process; with
    more, in a fork pool. The 54 users make ranges of equal size at two
    and three CPUs, and of 13 and 14 users at four."""
    use_cpus(monkeypatch, cpus)
    check_golden(tmp_path)


if __name__ == "__main__":
    import tempfile

    old = json.loads(GOLDEN.read_text("utf-8"))
    with tempfile.TemporaryDirectory() as tmp:
        doc = {"environment": environment(), "files": run_pipeline(Path(tmp))}
    for section in ("environment", "files"):
        for key in sorted(set(old[section]) | set(doc[section])):
            then, now = old[section].get(key), doc[section].get(key)
            if then != now:
                print(f"{section} {key}: {then} -> {now}", file=sys.stderr)
    GOLDEN.write_text(json.dumps(doc, indent=2, sort_keys=True) + "\n", "utf-8")
    print(f"wrote {GOLDEN}", file=sys.stderr)
