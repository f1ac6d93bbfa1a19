"""Command-line front end: generate / prepare / train / evaluate / predict.

Workflows write plain files; every stage is reproducible from its inputs
plus the seeds in the run configuration. A JSON config file can supply
any option; explicit flags win over file values. Logs go to stderr,
results to stdout or ``--out``.

Exit codes: 0 success, 1 validation/usage error, 2 I/O error or an
invalid dataset entry.
"""

from __future__ import annotations

import argparse
import csv
import json
import logging
import sys
from dataclasses import dataclass
from pathlib import Path
from typing import Sequence

import numpy as np

from . import autoencoder as ae_mod
from . import classifier as clf_mod
from . import features as feat_mod
from . import network as nn
from .dataset import DatasetLoadError, SyntheticConfig, generate_synthetic, load_dataset, write_dataset
from .domain import ClassificationSystem, DomainError, bin_score
from .embedding import EmbedderSpec, embed_text
from .network import ShapeError, StateError
from .preprocess import preprocess

logger = logging.getLogger("multicred")

BUNDLE_KIND = "pipeline"
BUNDLE_VERSION = 1


class UsageError(Exception):
    """Bad command line; maps to exit code 1 with the usage text."""


class _Parser(argparse.ArgumentParser):
    def error(self, message):
        raise UsageError(f"{self.prog}: {message}\n{self.format_usage()}")


@dataclass(frozen=True)
class RunConfig:
    """Merged options for one command: config-file values under flags."""

    command: str
    values: dict

    def __getattr__(self, name):
        try:
            return self.values[name]
        except KeyError:
            raise AttributeError(name) from None


_DEFAULTS: dict[str, dict] = {
    "generate": {
        "users": 400, "classes": 4, "seed": 7, "tweets_per_user": 30,
        "comments_per_user": 20, "separation": 1.0,
    },
    "prepare": {
        "classes": 4, "seed": 7, "smote_k": 5, "embed_seed": 0,
        "ae_epochs": 20, "ae_batch_size": 16, "ae_corpus_cap": 2000,
    },
    "train": {
        "seed": 0, "max_epochs": 2000, "patience": 200, "batch_size": 16,
    },
    "evaluate": {"out": None},
    "predict": {},
}

# Flags that must end up set after merging file values under CLI values.
_REQUIRED: dict[str, tuple[str, ...]] = {
    "generate": ("out",),
    "prepare": ("data", "out"),
    "train": ("prepared", "out"),
    "evaluate": ("model", "prepared"),
    "predict": ("model", "input", "out"),
}


def _build_parser() -> _Parser:
    parser = _Parser(prog="multicred", description=__doc__)
    parser.add_argument("--config", help="JSON file with option defaults")
    sub = parser.add_subparsers(dest="command", required=True)

    g = sub.add_parser("generate", help="write a labeled synthetic dataset")
    g.add_argument("--out", help="dataset directory to create")
    g.add_argument("--users", type=int)
    g.add_argument("--classes", type=int)
    g.add_argument("--seed", type=int)
    g.add_argument("--tweets-per-user", type=int, dest="tweets_per_user")
    g.add_argument("--comments-per-user", type=int, dest="comments_per_user")
    g.add_argument("--separation", type=float)

    p = sub.add_parser("prepare", help="features, autoencoder, stats, and splits")
    p.add_argument("--data", help="labeled dataset directory")
    p.add_argument("--out", help="directory for prepared artifacts")
    p.add_argument("--classes", type=int)
    p.add_argument("--seed", type=int)
    p.add_argument("--smote-k", type=int, dest="smote_k")
    p.add_argument("--embed-seed", type=int, dest="embed_seed")
    p.add_argument("--ae-epochs", type=int, dest="ae_epochs")
    p.add_argument("--ae-batch-size", type=int, dest="ae_batch_size")
    p.add_argument("--ae-corpus-cap", type=int, dest="ae_corpus_cap")

    t = sub.add_parser("train", help="train the classifier on prepared splits")
    t.add_argument("--prepared", help="directory written by prepare")
    t.add_argument("--out", help="path for the model bundle JSON")
    t.add_argument("--seed", type=int)
    t.add_argument("--max-epochs", type=int, dest="max_epochs")
    t.add_argument("--patience", type=int)
    t.add_argument("--batch-size", type=int, dest="batch_size")

    e = sub.add_parser("evaluate", help="score a trained model on the test split")
    e.add_argument("--model", help="model bundle JSON")
    e.add_argument("--prepared", help="directory written by prepare")
    e.add_argument("--out", help="also write the report JSON here")

    r = sub.add_parser("predict", help="per-user class probabilities for a dataset")
    r.add_argument("--model", help="model bundle JSON")
    r.add_argument("--input", help="dataset directory (labels optional)")
    r.add_argument("--out", help="predictions CSV path")

    return parser


def _merge_config(args: argparse.Namespace) -> RunConfig:
    file_values: dict = {}
    if args.config:
        path = Path(args.config)
        if not path.is_file():
            raise FileNotFoundError(f"config file not found: {path}")
        file_values = json.loads(path.read_text("utf-8"))
        if not isinstance(file_values, dict):
            raise DomainError("config file must hold a JSON object")

    command = args.command
    merged = dict(_DEFAULTS.get(command, {}))
    merged.update({k: v for k, v in file_values.items() if k in merged or k in vars(args)})
    for key, value in vars(args).items():
        if key in ("config", "command"):
            continue
        if value is not None:
            merged[key] = value
        elif key not in merged:
            merged[key] = None

    missing = [k for k in _REQUIRED[command] if merged.get(k) is None]
    if missing:
        flags = ", ".join("--" + k.replace("_", "-") for k in missing)
        raise UsageError(f"multicred {command}: missing required option(s): {flags}")
    return RunConfig(command=command, values=merged)


def _require_file(path: str | Path, what: str) -> Path:
    p = Path(path)
    if not p.is_file():
        raise FileNotFoundError(f"{what} not found: {p}")
    return p


def _require_dir(path: str | Path, what: str) -> Path:
    p = Path(path)
    if not p.is_dir():
        raise FileNotFoundError(f"{what} not found: {p}")
    return p


def _cmd_generate(cfg: RunConfig) -> int:
    config = SyntheticConfig(
        num_users=cfg.users,
        system=ClassificationSystem(cfg.classes),
        tweets_per_user=cfg.tweets_per_user,
        comments_per_user=cfg.comments_per_user,
        class_separation=cfg.separation,
        seed=cfg.seed,
    )
    records = generate_synthetic(config)
    manifest = write_dataset(records, cfg.out)
    logger.info("generated %d users into %s", len(manifest.user_ids), manifest.root)
    print(json.dumps({
        "users": len(manifest.user_ids),
        "classes": cfg.classes,
        "root": str(manifest.root),
    }, sort_keys=True))
    return 0


def _cmd_prepare(cfg: RunConfig) -> int:
    data_dir = _require_dir(cfg.data, "dataset directory")
    system = ClassificationSystem(cfg.classes)
    embedder = EmbedderSpec(kind="hash", hash_seed=cfg.embed_seed)

    manifest, records = load_dataset(data_dir)
    if not manifest.labels_present:
        raise DomainError("prepare needs a labeled dataset (labels.csv)")
    logger.info("loaded %d users from %s", len(records), data_dir)

    # Draw the autoencoder corpus from tweet positions first, so only the
    # sampled tweets are embedded here; the rest are embedded once, below.
    texts = [tweet.text for record in records for tweet in record.tweets]
    if len(texts) < 2:
        raise DomainError("dataset has fewer than 2 tweets; cannot train the autoencoder")
    if cfg.ae_corpus_cap < 2:
        raise DomainError(f"ae_corpus_cap must be at least 2, got {cfg.ae_corpus_cap}")
    keep = range(len(texts))
    if len(texts) > cfg.ae_corpus_cap:
        picker = np.random.default_rng(cfg.seed)
        keep = np.sort(picker.choice(len(texts), size=cfg.ae_corpus_cap, replace=False))
    corpus = np.stack([embed_text(embedder, preprocess(texts[i])) for i in keep])
    logger.info("training autoencoder on %d tweet embeddings", corpus.shape[0])
    ae, ae_history = ae_mod.train_autoencoder(corpus, ae_mod.AutoencoderSpec(
        epochs=cfg.ae_epochs, batch_size=cfg.ae_batch_size, seed=cfg.seed,
    ))
    logger.info("autoencoder loss %.6f -> %.6f", ae_history[0], ae_history[-1])

    raw_vectors = [feat_mod.build_user_vector(r, embedder, ae) for r in records]
    labels = [bin_score(r.score, system) for r in records]
    dataset = feat_mod.LabeledDataset(
        tuple(zip(raw_vectors, labels)), num_classes=system.num_classes
    )

    splits = feat_mod.split(dataset, seed=cfg.seed)
    stats = feat_mod.fit_scalar_stats([v for v, _ in splits.train.items])

    def _normalized(ds: feat_mod.LabeledDataset) -> feat_mod.LabeledDataset:
        normals = feat_mod.normalize_vectors([v for v, _ in ds.items], stats)
        return feat_mod.LabeledDataset(
            tuple(zip(normals, (lbl for _, lbl in ds.items))), ds.num_classes
        )

    train_ds = feat_mod.smote(_normalized(splits.train), k=cfg.smote_k, seed=cfg.seed)
    test_ds = _normalized(splits.test)
    val_ds = _normalized(splits.validation)
    logger.info(
        "splits: train %d (balanced from %d), test %d, validation %d",
        len(train_ds), len(splits.train), len(test_ds), len(val_ds),
    )

    out = Path(cfg.out)
    out.mkdir(parents=True, exist_ok=True)
    ae_mod.save_autoencoder(ae, out / "autoencoder.json")
    (out / "norm_stats.json").write_text(json.dumps({
        "minimum": stats.minimum.tolist(),
        "maximum": stats.maximum.tolist(),
    }, sort_keys=True), "utf-8")
    feat_mod.write_feature_layout(out / "feature_layout.json")
    feat_mod.write_feature_csv(train_ds, out / "train.csv")
    feat_mod.write_feature_csv(test_ds, out / "test.csv")
    feat_mod.write_feature_csv(val_ds, out / "validation.csv")
    (out / "prepare_meta.json").write_text(json.dumps({
        "num_classes": system.num_classes,
        "embedder": {"kind": embedder.kind, "hash_seed": embedder.hash_seed},
        "seed": cfg.seed,
        "smote_k": cfg.smote_k,
        "split_sizes": {
            "train": len(splits.train), "test": len(test_ds), "validation": len(val_ds),
        },
    }, indent=2, sort_keys=True), "utf-8")
    print(json.dumps({"prepared": str(out), "train": len(train_ds),
                      "test": len(test_ds), "validation": len(val_ds)}, sort_keys=True))
    return 0


def _load_prepared(prepared: Path):
    meta = json.loads(_require_file(prepared / "prepare_meta.json", "prepare metadata")
                      .read_text("utf-8"))
    num_classes = meta["num_classes"]
    splits = feat_mod.SplitDataset(
        train=feat_mod.read_feature_csv(
            _require_file(prepared / "train.csv", "train split"), num_classes),
        test=feat_mod.read_feature_csv(
            _require_file(prepared / "test.csv", "test split"), num_classes),
        validation=feat_mod.read_feature_csv(
            _require_file(prepared / "validation.csv", "validation split"), num_classes),
    )
    return meta, splits


def _cmd_train(cfg: RunConfig) -> int:
    prepared = _require_dir(cfg.prepared, "prepared directory")
    meta, splits = _load_prepared(prepared)
    num_classes = meta["num_classes"]

    config = clf_mod.TrainConfig(
        num_classes=num_classes,
        max_epochs=cfg.max_epochs,
        patience=cfg.patience,
        batch_size=cfg.batch_size,
        seed=cfg.seed,
    )
    model = clf_mod.build_multicred(num_classes, seed=cfg.seed)
    logger.info("training classifier (%d classes, %d train samples)",
                num_classes, len(splits.train))
    model, history = clf_mod.train(model, splits, config)
    logger.info(
        "stopped at epoch %d (best %d, val accuracy %.4f)",
        history.epochs_run - 1, history.best_epoch,
        history.val_accuracy[history.best_epoch],
    )

    stats_doc = json.loads(
        _require_file(prepared / "norm_stats.json", "normalization stats").read_text("utf-8")
    )
    ae = ae_mod.load_autoencoder(_require_file(prepared / "autoencoder.json", "autoencoder"))

    bundle = {
        "format_version": BUNDLE_VERSION,
        "artifact_kind": BUNDLE_KIND,
        "num_classes": num_classes,
        "embedder": meta["embedder"],
        "normalization": stats_doc,
        "classifier": nn.model_to_dict(model, artifact_kind="classifier"),
        "autoencoder": ae_mod.autoencoder_to_dict(ae),
    }
    out = Path(cfg.out)
    out.write_text(json.dumps(bundle, sort_keys=True), "utf-8")
    clf_mod.write_history_csv(history, out.with_suffix(".history.csv"))
    print(json.dumps({
        "model": str(out),
        "epochs_run": history.epochs_run,
        "best_epoch": history.best_epoch,
        "best_val_accuracy": history.val_accuracy[history.best_epoch],
        "stopped_early": history.stopped_early,
    }, sort_keys=True))
    return 0


def _load_bundle(path: Path):
    doc = json.loads(path.read_text("utf-8"))
    if doc.get("format_version") != BUNDLE_VERSION:
        raise StateError(
            f"unsupported bundle version {doc.get('format_version')!r}, "
            f"expected {BUNDLE_VERSION}"
        )
    if doc.get("artifact_kind") != BUNDLE_KIND:
        raise StateError(f"not a pipeline bundle: {doc.get('artifact_kind')!r}")
    model = nn.model_from_dict(doc["classifier"], expected_kind="classifier")
    if doc["num_classes"] != model.spec.output_dim:
        raise StateError(
            f"bundle num_classes {doc['num_classes']!r} does not match the "
            f"classifier's output width {model.spec.output_dim}"
        )
    ae = ae_mod.autoencoder_from_dict(doc["autoencoder"])
    bounds = {}
    for key in ("minimum", "maximum"):
        bounds[key] = np.asarray(doc["normalization"][key], dtype=float)
        if bounds[key].shape != (feat_mod.NUM_SCALAR_FEATURES,):
            raise StateError(
                f"bundle normalization.{key} has shape {bounds[key].shape}, "
                f"expected ({feat_mod.NUM_SCALAR_FEATURES},)"
            )
    stats = feat_mod.NormalizationStats(**bounds)
    embedder = EmbedderSpec(
        kind=doc["embedder"].get("kind", "hash"),
        endpoint=doc["embedder"].get("endpoint"),
        hash_seed=doc["embedder"].get("hash_seed", 0),
    )
    return doc["num_classes"], model, ae, stats, embedder


def _cmd_evaluate(cfg: RunConfig) -> int:
    bundle_path = _require_file(cfg.model, "model bundle")
    prepared = _require_dir(cfg.prepared, "prepared directory")
    _, model, _, _, _ = _load_bundle(bundle_path)
    _, splits = _load_prepared(prepared)

    report = clf_mod.evaluate(model, splits.test)
    text = report.to_json()
    print(text)
    if cfg.out:
        Path(cfg.out).write_text(text + "\n", "utf-8")
        logger.info("report written to %s", cfg.out)
    return 0


def _cmd_predict(cfg: RunConfig) -> int:
    bundle_path = _require_file(cfg.model, "model bundle")
    data_dir = _require_dir(cfg.input, "input dataset")
    num_classes, model, ae, stats, embedder = _load_bundle(bundle_path)

    _, records = load_dataset(data_dir)
    raw_vectors = [feat_mod.build_user_vector(r, embedder, ae) for r in records]
    rows = []
    for vec in feat_mod.normalize_vectors(raw_vectors, stats):
        probs = clf_mod.predict(model, vec.values)
        rows.append([vec.user_id] + [repr(float(p)) for p in probs]
                    + [int(probs.argmax())])

    out = Path(cfg.out)
    with open(out, "w", newline="", encoding="utf-8") as fh:
        writer = csv.writer(fh)
        writer.writerow(
            ["user_id"] + [f"p_class{i}" for i in range(num_classes)] + ["predicted_class"]
        )
        writer.writerows(rows)
    logger.info("wrote %d predictions to %s", len(rows), out)
    print(json.dumps({"predictions": len(rows), "out": str(out)}, sort_keys=True))
    return 0


_HANDLERS = {
    "generate": _cmd_generate,
    "prepare": _cmd_prepare,
    "train": _cmd_train,
    "evaluate": _cmd_evaluate,
    "predict": _cmd_predict,
}


def run(argv: Sequence[str]) -> int:
    """Parse and execute one command; returns the process exit code."""
    logging.basicConfig(
        stream=sys.stderr, level=logging.INFO, format="%(levelname)s %(message)s"
    )
    parser = _build_parser()
    try:
        args = parser.parse_args(list(argv))
        cfg = _merge_config(args)
        return _HANDLERS[cfg.command](cfg)
    except SystemExit as exc:  # argparse --help
        return int(exc.code or 0)
    except UsageError as exc:
        print(str(exc), file=sys.stderr)
        return 1
    except (DomainError, ShapeError, StateError, ValueError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1
    except DatasetLoadError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    except (FileNotFoundError, OSError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2


def main() -> None:
    sys.exit(run(sys.argv[1:]))


if __name__ == "__main__":
    main()
