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
from functools import partial
from pathlib import Path
from typing import Sequence

import numpy as np

from . import autoencoder as ae_mod
from . import classifier as clf_mod
from . import features as feat_mod
from . import network as nn
from .dataset import DatasetLoadError, SyntheticConfig, generate_synthetic, write_dataset
from .domain import ALLOWED_CLASS_COUNTS, ClassificationSystem, DomainError, StateError, bin_score
from .embedding import EmbedderSpec, embed_texts
from .network import ShapeError
from .preprocess import preprocess
from .store import atomic_write, decode_array, field, read_json, write_json

logger = logging.getLogger("multicred")

BUNDLE_KIND = "pipeline"
BUNDLE_VERSION = 2


class UsageError(Exception):
    """Bad command line; maps to exit code 1 with the usage text."""


class _Parser(argparse.ArgumentParser):
    def error(self, message):
        raise UsageError(f"{self.prog}: {message}\n{self.format_usage()}")


# Marks a flag that the config file or the command line must set.
_REQUIRED = object()

# Each command's help text and flags, dest -> (type, default, help); a
# config file may set exactly these keys, with values of the flag's type.
_COMMANDS: dict[str, tuple[str, dict[str, tuple[type, object, str | None]]]] = {
    "generate": ("write a labeled synthetic dataset", {
        "out": (str, _REQUIRED, "dataset directory to create"),
        "users": (int, 400, None), "classes": (int, 4, None), "seed": (int, 7, None),
        "tweets_per_user": (int, 30, None), "comments_per_user": (int, 20, None),
        "separation": (float, 1.0, None),
    }),
    "prepare": ("features, autoencoder, stats, and splits", {
        "data": (str, _REQUIRED, "labeled dataset directory"),
        "out": (str, _REQUIRED, "directory for prepared artifacts"),
        "classes": (int, 4, None), "seed": (int, 7, None), "smote_k": (int, 5, None),
        "embed_seed": (int, 0, None), "ae_epochs": (int, 20, None),
        "ae_batch_size": (int, 16, None), "ae_corpus_cap": (int, 2000, None),
    }),
    "train": ("train the classifier on prepared splits", {
        "prepared": (str, _REQUIRED, "directory written by prepare"),
        "out": (str, _REQUIRED, "path for the model bundle JSON"),
        "seed": (int, 0, None), "max_epochs": (int, 2000, None),
        "patience": (int, 200, None), "batch_size": (int, 16, None),
    }),
    "evaluate": ("score a trained model on the test split", {
        "model": (str, _REQUIRED, "model bundle JSON"),
        "prepared": (str, _REQUIRED, "directory written by prepare"),
        "out": (str, None, "also write the report JSON here"),
    }),
    "predict": ("per-user class probabilities for a dataset", {
        "model": (str, _REQUIRED, "model bundle JSON"),
        "input": (str, _REQUIRED, "dataset directory (labels optional)"),
        "out": (str, _REQUIRED, "predictions CSV path"),
    }),
}


def _build_parser() -> _Parser:
    parser = _Parser(prog="multicred", description=__doc__)
    parser.add_argument("--config", help="JSON file with option defaults")
    sub = parser.add_subparsers(dest="command", required=True)
    for command, (summary, flags) in _COMMANDS.items():
        sp = sub.add_parser(command, help=summary)
        for dest, (kind, _, text) in flags.items():
            sp.add_argument("--" + dest.replace("_", "-"), dest=dest, type=kind, help=text)
    return parser


def _merge_config(args: argparse.Namespace) -> argparse.Namespace:
    """The command's options: its defaults, under config-file values, under flags."""
    file_values: dict = {}
    if args.config:
        path = Path(args.config)
        if not path.is_file():
            raise FileNotFoundError(f"config file not found: {path}")
        file_values = read_json(path, "config file", StateError)

    command = args.command
    flags = _COMMANDS[command][1]
    merged = {key: None if default is _REQUIRED else default
              for key, (_, default, _) in flags.items()}
    for key in file_values:
        if key not in flags:
            raise UsageError(f"multicred {command}: config key {key!r} is not an option "
                             f"of this command")
        merged[key] = field(file_values, key, flags[key][0], f"config file {path}", UsageError)
    merged.update((key, value) for key, value in vars(args).items()
                  if key in flags and value is not None)

    missing = [key for key, (_, default, _) in flags.items()
               if default is _REQUIRED and merged[key] is None]
    if missing:
        names = ", ".join("--" + k.replace("_", "-") for k in missing)
        raise UsageError(f"multicred {command}: missing required option(s): {names}")
    return argparse.Namespace(command=command, **merged)


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


def _cmd_generate(cfg: argparse.Namespace) -> int:
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


def _train_autoencoder(scan: feat_mod.UserScan, embedder: EmbedderSpec,
                       spec: ae_mod.AutoencoderSpec, cap: int):
    """The autoencoder and its loss history, trained on a sample of at most
    ``cap`` of the scanned tweets, drawn with the spec's seed.

    Only the sampled tweets are re-read and embedded here; the corpus is
    freed when this returns.
    """
    total = int(scan.tweet_counts.sum())
    if total < 2:
        raise DomainError("dataset has fewer than 2 tweets; cannot train the autoencoder")
    keep = np.arange(total)
    if total > cap:
        picker = np.random.default_rng(spec.seed)
        keep = np.sort(picker.choice(total, size=cap, replace=False))
    corpus = embed_texts(embedder, [preprocess(t) for t in feat_mod.tweet_texts_at(scan, keep)])
    logger.info("training autoencoder on %d tweet embeddings", corpus.shape[0])
    return ae_mod.train_autoencoder(corpus, spec)


def _log_tweetless(scan: feat_mod.UserScan) -> None:
    """Log how many scanned users have no tweets, and the first of them."""
    tweetless = np.flatnonzero(scan.tweet_counts == 0)
    if tweetless.size:
        logger.warning("%d of %d users have no tweets (first: %s); their tweet and latent "
                       "components are zero", tweetless.size, len(scan),
                       scan.manifest.user_ids[tweetless[0]])


def _cmd_prepare(cfg: argparse.Namespace) -> int:
    data_dir = _require_dir(cfg.data, "dataset directory")
    # Every option is checked before the dataset is read.
    system = ClassificationSystem(cfg.classes)
    embedder = EmbedderSpec(hash_seed=cfg.embed_seed)
    ae_spec = ae_mod.AutoencoderSpec(
        epochs=cfg.ae_epochs, batch_size=cfg.ae_batch_size, seed=cfg.seed)
    if cfg.ae_corpus_cap < 2:
        raise DomainError(f"ae_corpus_cap must be at least 2, got {cfg.ae_corpus_cap}")
    feat_mod.check_smote_k(cfg.smote_k)

    scan = feat_mod.scan_dataset(data_dir)
    if not scan.manifest.labels_present:
        raise DomainError("prepare needs a labeled dataset (labels.csv)")
    logger.info("loaded %d users from %s", len(scan), data_dir)
    _log_tweetless(scan)

    ae, ae_history = _train_autoencoder(scan, embedder, ae_spec, cfg.ae_corpus_cap)
    logger.info("autoencoder loss %.6f -> %.6f", ae_history[0], ae_history[-1])

    feat_mod.fill_latents(scan, embedder, ae)
    dataset = feat_mod.LabeledDataset(
        scan.manifest.user_ids,
        scan.x,
        np.array([bin_score(s, system) for s in scan.scores.tolist()], dtype=np.intp),
        num_classes=system.num_classes,
    )

    splits = feat_mod.split(dataset, seed=cfg.seed)
    scalars = slice(0, feat_mod.NUM_SCALAR_FEATURES)
    stats = feat_mod.fit_minmax(splits.train.x[:, scalars])
    for part in (splits.train, splits.test, splits.validation):
        # split gave each part its own matrix, so it is rescaled in place.
        part.x[:, scalars] = feat_mod.apply_minmax(stats, part.x[:, scalars])
    train_ds = feat_mod.smote(splits.train, k=cfg.smote_k, seed=cfg.seed)
    test_ds, val_ds = splits.test, splits.validation
    logger.info(
        "splits: train %d (balanced from %d), test %d, validation %d",
        len(train_ds), len(splits.train), len(test_ds), len(val_ds),
    )

    out = Path(cfg.out)
    out.mkdir(parents=True, exist_ok=True)
    ae_mod.save_autoencoder(ae, out / "autoencoder.json")
    with atomic_write(out / "norm_stats.json") as fh:
        write_json(fh, {"minimum": stats.minimum, "maximum": stats.maximum})
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
    return read_json(_require_file(path, what), what, StateError)


def _num_classes(doc: dict, what: str) -> int:
    """``doc["num_classes"]``, one of ALLOWED_CLASS_COUNTS; a StateError
    names the field otherwise."""
    return field(doc, "num_classes", int, what, StateError,
                 valid=lambda n: n in ALLOWED_CLASS_COUNTS,
                 requirement=f"in {ALLOWED_CLASS_COUNTS}")


def _prepare_meta(prepared: Path) -> tuple[dict, int]:
    """``prepare_meta.json`` of a prepared directory, and its checked ``num_classes``."""
    meta = _read_object(prepared / "prepare_meta.json", "prepare metadata")
    return meta, _num_classes(meta, "prepare metadata")


def _read_split(prepared: Path, part: str, num_classes: int) -> feat_mod.LabeledDataset:
    return feat_mod.read_feature_csv(
        _require_file(prepared / f"{part}.csv", f"{part} split"), num_classes)


def _read_splits(prepared: Path, num_classes: int) -> feat_mod.SplitDataset:
    return feat_mod.SplitDataset(**{part: _read_split(prepared, part, num_classes)
                                    for part in ("train", "test", "validation")})


def _cmd_train(cfg: argparse.Namespace) -> int:
    prepared = _require_dir(cfg.prepared, "prepared directory")
    meta, num_classes = _prepare_meta(prepared)
    embedder = _embedder(meta, "prepare metadata")
    config = clf_mod.TrainConfig(
        num_classes=num_classes,
        max_epochs=cfg.max_epochs,
        patience=cfg.patience,
        batch_size=cfg.batch_size,
        seed=cfg.seed,
    )
    splits = _read_splits(prepared, num_classes)
    # The autoencoder first: a prepared directory of an older format fails on its version.
    ae = ae_mod.load_autoencoder(_require_file(prepared / "autoencoder.json", "autoencoder"))
    stats = _normalization_stats(
        _read_object(prepared / "norm_stats.json", "normalization stats"),
        "normalization stats", "")

    model = clf_mod.build_multicred(num_classes, seed=cfg.seed)
    logger.info("training classifier (%d classes, %d train samples)",
                num_classes, len(splits.train))
    model, history = clf_mod.train(model, splits, config)
    logger.info(
        "stopped at epoch %d (best %d, val accuracy %.4f)",
        history.epochs_run - 1, history.best_epoch,
        history.val_accuracy[history.best_epoch],
    )

    bundle = {
        "format_version": BUNDLE_VERSION,
        "artifact_kind": BUNDLE_KIND,
        "num_classes": num_classes,
        "embedder": {"kind": "hash", "hash_seed": embedder.hash_seed},
        "normalization": {"minimum": stats.minimum, "maximum": stats.maximum},
        "classifier": nn.model_document(model, artifact_kind="classifier"),
        "autoencoder": ae_mod.autoencoder_document(ae),
    }
    out = Path(cfg.out)
    with atomic_write(out) as fh:
        write_json(fh, bundle)
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
    what = f"model bundle {path}"
    get = partial(field, doc, what=what, error=StateError)
    if doc.get("format_version") != BUNDLE_VERSION:
        raise StateError(
            f"{what} has unsupported bundle version {doc.get('format_version')!r}, "
            f"expected {BUNDLE_VERSION}"
        )
    if doc.get("artifact_kind") != BUNDLE_KIND:
        raise StateError(f"{what} is not a pipeline bundle: {doc.get('artifact_kind')!r}")
    num_classes = _num_classes(doc, what)
    embedder = _embedder(doc, what)
    model = nn.model_from_dict(get("classifier", dict), clf_mod.classifier_spec(num_classes),
                               "classifier", f"{what} classifier (num_classes {num_classes})")
    ae = ae_mod.autoencoder_from_dict(get("autoencoder", dict), f"{what} autoencoder")
    stats = _normalization_stats(doc, what, "normalization.")
    return num_classes, model, ae, stats, embedder


def _embedder(doc: dict, what: str) -> EmbedderSpec:
    """The embedder at ``doc["embedder"]``: kind "hash", the only one supported,
    and a ``hash_seed`` in [0, 2**64 - 1]; a StateError names a field that is not."""
    get = partial(field, doc, what=what, error=StateError)
    get("embedder.kind", str, valid=lambda kind: kind == "hash",
        requirement='"hash", the only embedder supported')
    return EmbedderSpec(hash_seed=get("embedder.hash_seed", int,
                                      valid=lambda seed: 0 <= seed < 2**64,
                                      requirement="in [0, 2**64 - 1]"))


def _normalization_stats(doc: dict, what: str, prefix: str) -> feat_mod.NormalizationStats:
    """The min-max bounds at ``prefix + "minimum"`` and ``prefix + "maximum"``
    in ``doc``: each 35 finite numbers stored by :func:`store.encode_array`,
    no minimum above its maximum. A StateError names the field that breaks
    this."""
    bounds = {}
    for key in ("minimum", "maximum"):
        name = prefix + key
        bounds[key] = decode_array(field(doc, name, object, what, StateError),
                                   feat_mod.NUM_SCALAR_FEATURES, f"{what} field {name}")
    above = np.flatnonzero(bounds["minimum"] > bounds["maximum"])
    if above.size:
        raise StateError(f"{what} {prefix}minimum exceeds {prefix}maximum "
                         f"at component {above[0]}")
    return feat_mod.NormalizationStats(**bounds)


def _cmd_evaluate(cfg: argparse.Namespace) -> int:
    bundle_path = _require_file(cfg.model, "model bundle")
    prepared = _require_dir(cfg.prepared, "prepared directory")
    _, model, _, _, _ = _load_bundle(bundle_path)
    test = _read_split(prepared, "test", _prepare_meta(prepared)[1])

    report = clf_mod.evaluate(model, test)
    text = report.to_json()
    print(text)
    if cfg.out:
        with atomic_write(cfg.out) as fh:
            fh.write(text + "\n")
        logger.info("report written to %s", cfg.out)
    return 0


def _cmd_predict(cfg: argparse.Namespace) -> int:
    bundle_path = _require_file(cfg.model, "model bundle")
    data_dir = _require_dir(cfg.input, "input dataset")
    num_classes, model, ae, stats, embedder = _load_bundle(bundle_path)

    scan = feat_mod.scan_dataset(data_dir)
    _log_tweetless(scan)
    feat_mod.fill_latents(scan, embedder, ae)
    x = scan.x
    scalars = slice(0, feat_mod.NUM_SCALAR_FEATURES)
    x[:, scalars] = feat_mod.apply_minmax(stats, x[:, scalars])
    rows = []
    for user_id, vector in zip(scan.manifest.user_ids, x):
        probs = clf_mod.predict(model, vector)
        rows.append([user_id] + [repr(float(p)) for p in probs] + [int(probs.argmax())])

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
