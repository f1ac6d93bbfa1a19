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
from .atomic import atomic_write
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


# Each command's flags, dest -> (type, help); a config file may set exactly
# these keys, with values of the flag's type.
_FLAGS: dict[str, dict[str, tuple[type, str | None]]] = {
    "generate": {
        "out": (str, "dataset directory to create"),
        "users": (int, None), "classes": (int, None), "seed": (int, None),
        "tweets_per_user": (int, None), "comments_per_user": (int, None),
        "separation": (float, None),
    },
    "prepare": {
        "data": (str, "labeled dataset directory"),
        "out": (str, "directory for prepared artifacts"),
        "classes": (int, None), "seed": (int, None), "smote_k": (int, None),
        "embed_seed": (int, None), "ae_epochs": (int, None),
        "ae_batch_size": (int, None), "ae_corpus_cap": (int, None),
    },
    "train": {
        "prepared": (str, "directory written by prepare"),
        "out": (str, "path for the model bundle JSON"),
        "seed": (int, None), "max_epochs": (int, None), "patience": (int, None),
        "batch_size": (int, None),
    },
    "evaluate": {
        "model": (str, "model bundle JSON"),
        "prepared": (str, "directory written by prepare"),
        "out": (str, "also write the report JSON here"),
    },
    "predict": {
        "model": (str, "model bundle JSON"),
        "input": (str, "dataset directory (labels optional)"),
        "out": (str, "predictions CSV path"),
    },
}

_COMMAND_HELP = {
    "generate": "write a labeled synthetic dataset",
    "prepare": "features, autoencoder, stats, and splits",
    "train": "train the classifier on prepared splits",
    "evaluate": "score a trained model on the test split",
    "predict": "per-user class probabilities for a dataset",
}


def _build_parser() -> _Parser:
    parser = _Parser(prog="multicred", description=__doc__)
    parser.add_argument("--config", help="JSON file with option defaults")
    sub = parser.add_subparsers(dest="command", required=True)
    for command, flags in _FLAGS.items():
        sp = sub.add_parser(command, help=_COMMAND_HELP[command])
        for dest, (kind, text) in flags.items():
            sp.add_argument("--" + dest.replace("_", "-"), dest=dest, type=kind, help=text)
    return parser


def _config_value(command: str, key: str, value):
    """A config-file value checked against the flag's type, as the flag gives it."""
    if key not in _FLAGS[command]:
        raise UsageError(f"multicred {command}: config key {key!r} is not an option "
                         f"of this command")
    kind = _FLAGS[command][key][0]
    accepted = (int, float) if kind is float else (kind,)
    if isinstance(value, bool) or not isinstance(value, accepted):
        raise UsageError(f"multicred {command}: config key {key!r} must be "
                         f"{kind.__name__}, got {json.dumps(value)}")
    return kind(value)


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
    merged.update({k: _config_value(command, k, v) for k, v in file_values.items()})
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
    embedder = EmbedderSpec(hash_seed=cfg.embed_seed)

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
    with atomic_write(out / "norm_stats.json") as fh:
        fh.write(json.dumps({
            "minimum": stats.minimum.tolist(),
            "maximum": stats.maximum.tolist(),
        }, sort_keys=True))
    feat_mod.write_feature_layout(out / "feature_layout.json")
    feat_mod.write_feature_csv(train_ds, out / "train.csv")
    feat_mod.write_feature_csv(test_ds, out / "test.csv")
    feat_mod.write_feature_csv(val_ds, out / "validation.csv")
    with atomic_write(out / "prepare_meta.json") as fh:
        fh.write(json.dumps({
            "num_classes": system.num_classes,
            "embedder": {"kind": "hash", "hash_seed": embedder.hash_seed},
            "seed": cfg.seed,
            "smote_k": cfg.smote_k,
            "split_sizes": {
                "train": len(splits.train), "test": len(test_ds), "validation": len(val_ds),
            },
        }, indent=2, sort_keys=True))
    print(json.dumps({"prepared": str(out), "train": len(train_ds),
                      "test": len(test_ds), "validation": len(val_ds)}, sort_keys=True))
    return 0


def _read_object(path: Path, what: str) -> dict:
    doc = json.loads(_require_file(path, what).read_text("utf-8"))
    if not isinstance(doc, dict):
        raise StateError(f"{what} {path} does not hold a JSON object")
    return doc


def _field(doc: dict, name: str, what: str):
    """The value at dotted ``name`` in ``doc``; a StateError naming it if absent."""
    value = doc
    for key in name.split("."):
        if not isinstance(value, dict) or key not in value:
            raise StateError(f"{what} has no field {name}")
        value = value[key]
    return value


def _load_prepared(prepared: Path):
    meta = _read_object(prepared / "prepare_meta.json", "prepare metadata")
    num_classes = _field(meta, "num_classes", "prepare metadata")
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
    embedder = _field(meta, "embedder", "prepare metadata")

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

    stats_doc = _read_object(prepared / "norm_stats.json", "normalization stats")
    ae = ae_mod.load_autoencoder(_require_file(prepared / "autoencoder.json", "autoencoder"))

    bundle = {
        "format_version": BUNDLE_VERSION,
        "artifact_kind": BUNDLE_KIND,
        "num_classes": num_classes,
        "embedder": embedder,
        "normalization": stats_doc,
        "classifier": nn.model_to_dict(model, artifact_kind="classifier"),
        "autoencoder": ae_mod.autoencoder_to_dict(ae),
    }
    out = Path(cfg.out)
    with atomic_write(out) as fh:
        fh.write(json.dumps(bundle, sort_keys=True))
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
    doc = _read_object(path, "model bundle")
    field = lambda name: _field(doc, name, "model bundle")
    if doc.get("format_version") != BUNDLE_VERSION:
        raise StateError(
            f"unsupported bundle version {doc.get('format_version')!r}, "
            f"expected {BUNDLE_VERSION}"
        )
    if doc.get("artifact_kind") != BUNDLE_KIND:
        raise StateError(f"not a pipeline bundle: {doc.get('artifact_kind')!r}")
    kind = field("embedder.kind")
    if kind != "hash":
        raise StateError(f"bundle embedder.kind is {kind!r}; only 'hash' is supported")
    embedder = EmbedderSpec(hash_seed=field("embedder.hash_seed"))
    model = nn.model_from_dict(field("classifier"), expected_kind="classifier")
    num_classes = field("num_classes")
    if num_classes != model.spec.output_dim:
        raise StateError(
            f"bundle num_classes {num_classes!r} does not match the "
            f"classifier's output width {model.spec.output_dim}"
        )
    ae = ae_mod.autoencoder_from_dict(field("autoencoder"))
    bounds = {}
    for key in ("minimum", "maximum"):
        bounds[key] = np.asarray(field("normalization." + key), dtype=float)
        if bounds[key].shape != (feat_mod.NUM_SCALAR_FEATURES,):
            raise StateError(
                f"bundle normalization.{key} has shape {bounds[key].shape}, "
                f"expected ({feat_mod.NUM_SCALAR_FEATURES},)"
            )
    stats = feat_mod.NormalizationStats(**bounds)
    return num_classes, model, ae, stats, embedder


def _cmd_evaluate(cfg: RunConfig) -> int:
    bundle_path = _require_file(cfg.model, "model bundle")
    prepared = _require_dir(cfg.prepared, "prepared directory")
    _, model, _, _, _ = _load_bundle(bundle_path)
    _, splits = _load_prepared(prepared)

    report = clf_mod.evaluate(model, splits.test)
    text = report.to_json()
    print(text)
    if cfg.out:
        with atomic_write(cfg.out) as fh:
            fh.write(text + "\n")
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
    with atomic_write(out, newline="") as fh:
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
