import csv
import hashlib
import json
import logging
import multiprocessing
import os
import shutil
import signal
import subprocess
import sys
import tracemalloc
import warnings
from pathlib import Path

import numpy as np
import pytest
from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st

import multicred
from multicred import cli
from multicred import features as feat_mod
from multicred import network as nn
from multicred.cli import run
from multicred.autoencoder import load_autoencoder
from multicred.dataset import SyntheticConfig, generate_synthetic
from multicred.domain import ClassificationSystem
from multicred.embedding import EmbedderSpec, embed_texts
from multicred.preprocess import preprocess

from conftest import model_dict, retouch, stored, stored_values, use_cpus


def run_without_warnings(argv: list[str]) -> int:
    """``run(argv)``, failing the test if the command emits any warning."""
    with warnings.catch_warnings(record=True) as caught:
        warnings.simplefilter("always")
        code = run(argv)
    assert [str(w.message) for w in caught] == []
    return code


def overflow_column(path: Path) -> list[str]:
    """Set column f004 of every row of the feature CSV at ``path`` to 1e308;
    the rows' user ids, in file order."""
    with open(path, newline="", encoding="utf-8") as fh:
        rows = list(csv.reader(fh))
    at = rows[0].index("f004")
    for row in rows[1:]:
        row[at] = "1e308"
    with open(path, "w", newline="", encoding="utf-8") as fh:
        csv.writer(fh).writerows(rows)
    return [row[0] for row in rows[1:]]


def tree_digest(root: Path) -> str:
    h = hashlib.sha256()
    for p in sorted(root.rglob("*")):
        if p.is_file():
            h.update(str(p.relative_to(root)).encode())
            h.update(p.read_bytes())
    return h.hexdigest()


SMALL = ["--users", "60", "--classes", "4", "--seed", "7",
         "--tweets-per-user", "4", "--comments-per-user", "3"]
FAST_PREPARE = ["--classes", "4", "--seed", "7", "--ae-epochs", "2",
                "--ae-corpus-cap", "120"]
FAST_TRAIN = ["--seed", "0", "--max-epochs", "25", "--patience", "10"]


@pytest.fixture(scope="module")
def pipeline(tmp_path_factory):
    """One small end-to-end run shared by the read-only CLI tests."""
    root = tmp_path_factory.mktemp("pipeline")
    data, prep = root / "data", root / "prep"
    model = root / "model.json"
    assert run(["generate", "--out", str(data)] + SMALL) == 0
    assert run(["prepare", "--data", str(data), "--out", str(prep)] + FAST_PREPARE) == 0
    assert run(["train", "--prepared", str(prep), "--out", str(model)] + FAST_TRAIN) == 0
    return root


class TestGenerate:
    def test_rerun_is_byte_identical(self, tmp_path):
        a, b = tmp_path / "a", tmp_path / "b"
        assert run(["generate", "--out", str(a)] + SMALL) == 0
        assert run(["generate", "--out", str(b)] + SMALL) == 0
        assert tree_digest(a) == tree_digest(b)

    def test_layout(self, pipeline):
        data = pipeline / "data"
        assert (data / "profiles").is_dir()
        assert (data / "labels.csv").is_file()
        assert len(list((data / "profiles").glob("*.json"))) == 60


class TestPrepare:
    def test_artifacts_written(self, pipeline):
        prep = pipeline / "prep"
        for name in ("autoencoder.json", "norm_stats.json", "feature_layout.json",
                     "train.csv", "test.csv", "validation.csv", "prepare_meta.json"):
            assert (prep / name).is_file(), name

    def test_split_sizes_recorded(self, pipeline):
        meta = json.loads((pipeline / "prep" / "prepare_meta.json").read_text("utf-8"))
        sizes = meta["split_sizes"]
        assert sizes == {"train": 42, "test": 12, "validation": 6}

    def test_unlabeled_data_is_validation_error(self, tmp_path, pipeline):
        data = pipeline / "data"
        unlabeled = tmp_path / "unlabeled"
        shutil.copytree(data, unlabeled)
        (unlabeled / "labels.csv").unlink()
        code = run(["prepare", "--data", str(unlabeled), "--out", str(tmp_path / "p")]
                   + FAST_PREPARE)
        assert code == 1

    def test_invalid_records_all_named_before_training(self, tmp_path, pipeline,
                                                       monkeypatch, capsys):
        data = tmp_path / "data"
        shutil.copytree(pipeline / "data", data)
        for user_id in ("user00003", "user00011"):
            path = data / "tweets" / f"{user_id}.json"
            tweets = json.loads(path.read_text("utf-8"))
            tweets[0]["retweet_count"] = -1
            path.write_text(json.dumps(tweets), "utf-8")
        monkeypatch.setattr(cli.ae_mod, "train_autoencoder",
                            lambda *a, **k: pytest.fail("trained on an invalid dataset"))
        code = run(["prepare", "--data", str(data), "--out", str(tmp_path / "p")]
                   + FAST_PREPARE)
        assert code == 2
        err = capsys.readouterr().err
        assert "user00003" in err and "user00011" in err

    @pytest.mark.parametrize("command", ["prepare", "predict"])
    def test_bad_dataset_reports_every_failure_before_embedding(self, tmp_path, pipeline,
                                                                monkeypatch, capsys, command,
                                                                one_cpu):
        data = tmp_path / "data"
        shutil.copytree(pipeline / "data", data)
        (data / "profiles" / "user00002.json").write_text("{broken", "utf-8")
        (data / "tweets" / "user00030.json").write_text('{"text": "x"}', "utf-8")
        profile = json.loads((data / "profiles" / "user00041.json").read_text("utf-8"))
        profile["followers_count"] = 10**400
        (data / "profiles" / "user00041.json").write_text(json.dumps(profile), "utf-8")
        never = lambda *a, **k: pytest.fail("embedded a tweet of an invalid dataset")
        monkeypatch.setattr(cli, "embed_texts", never)
        monkeypatch.setattr(feat_mod, "embed_texts", never)
        args = (["prepare", "--data", str(data), "--out", str(tmp_path / "p")] + FAST_PREPARE
                if command == "prepare" else
                ["predict", "--model", str(pipeline / "model.json"), "--input", str(data),
                 "--out", str(tmp_path / "preds.csv")])
        assert run(args) == 2
        err = capsys.readouterr().err
        assert "3 dataset entries failed to load" in err and "Traceback" not in err
        bad = data / "profiles" / "user00002.json"
        assert f"user00002: profile file {bad} is not valid JSON" in err
        assert "user00030: " in err and "user00030.json does not hold a JSON array" in err
        big = data / "profiles" / "user00041.json"
        assert (f"user00041: profile file {big} field followers_count is 1{'0' * 59}... "
                f"(401 characters of JSON), expected an integer in [0, 2**63 - 1]") in err

    @pytest.mark.parametrize("flags, named", [
        (["--ae-epochs", "1", "--smote-k", "0"], "smote k must be >= 1, got 0"),
        (["--ae-corpus-cap", "1"], "ae_corpus_cap must be at least 2, got 1"),
        (["--ae-epochs", "0"], "autoencoder epochs must be >= 1, got 0"),
        (["--ae-batch-size", "-3"], "autoencoder batch_size must be >= 1, got -3"),
        (["--seed", "-1"], "autoencoder seed must be >= 0, got -1"),
    ])
    def test_bad_option_rejected_before_the_scan(self, tmp_path, pipeline, monkeypatch,
                                                 capsys, flags, named):
        monkeypatch.setattr(feat_mod, "scan_dataset",
                            lambda *a, **k: pytest.fail("scanned before checking options"))
        out = tmp_path / "p"
        assert run(["prepare", "--data", str(pipeline / "data"), "--out", str(out)]
                   + flags) == 1
        err = capsys.readouterr().err
        assert f"error: {named}\n" in err and "Traceback" not in err
        assert not out.exists()

    def test_corpus_cap_below_two_is_validation_error(self, tmp_path, pipeline, capsys):
        code = run(["prepare", "--data", str(pipeline / "data"), "--out", str(tmp_path / "p"),
                    "--ae-corpus-cap", "0"])
        assert code == 1
        assert "ae_corpus_cap" in capsys.readouterr().err

    def test_each_tweet_embedded_once_plus_corpus_sample(self, tmp_path, pipeline,
                                                         monkeypatch, one_cpu):
        rows = []

        def counting(spec, cleans):
            rows.extend(cleans)
            return embed_texts(spec, cleans)

        monkeypatch.setattr(cli, "embed_texts", counting)
        monkeypatch.setattr(feat_mod, "embed_texts", counting)
        assert run(["prepare", "--data", str(pipeline / "data"),
                    "--out", str(tmp_path / "p")] + FAST_PREPARE) == 0
        tweets, cap = 60 * 4, 120
        assert len(rows) == tweets + cap

    @pytest.mark.parametrize("cap", [120, 240, 1000])
    def test_corpus_is_the_seeded_sample_of_all_tweets(self, tmp_path, pipeline,
                                                       monkeypatch, cap):
        class Captured(Exception):
            pass

        def capture(corpus, spec):
            raise Captured(corpus)

        monkeypatch.setattr(cli.ae_mod, "train_autoencoder", capture)
        args = ["prepare", "--data", str(pipeline / "data"), "--out", str(tmp_path / "p"),
                "--classes", "4", "--seed", "7", "--ae-corpus-cap", str(cap)]
        with pytest.raises(Captured) as got:
            run(args)

        texts = [t["text"] for path in sorted((pipeline / "data" / "tweets").glob("*.json"))
                 for t in json.loads(path.read_text("utf-8"))]
        spec = EmbedderSpec(hash_seed=0)
        full = embed_texts(spec, [preprocess(t) for t in texts])
        if cap < full.shape[0]:
            keep = np.random.default_rng(7).choice(full.shape[0], size=cap, replace=False)
            full = full[np.sort(keep)]
        corpus = got.value.args[0]
        assert corpus.shape == full.shape
        np.testing.assert_array_equal(corpus[np.arange(full.shape[0])], full)

    def test_corpus_build_holds_one_dense_chunk(self):
        records = generate_synthetic(SyntheticConfig(num_users=67, system=ClassificationSystem(4),
                                                     seed=7))
        texts = [tweet.text for record in records for tweet in record.tweets][:2000]
        tracemalloc.start()
        try:
            corpus = cli._embedded_corpus(EmbedderSpec(hash_seed=0), texts)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert corpus.shape == (2000, 768)
        # 2.64 MB measured with 256-text chunks: one 1.5 MB dense chunk, its
        # texts' hash features, and the 0.34 MB corpus. Dense, the corpus
        # alone is 2,000 x 768 x 8 B = 12.3 MB.
        assert peak < 3 * 2**20

    def test_only_the_scalar_block_is_normalized(self, pipeline):
        prep = pipeline / "prep"
        ae = load_autoencoder(prep / "autoencoder.json")
        bounds = json.loads((prep / "norm_stats.json").read_text("utf-8"))
        stats = feat_mod.NormalizationStats(stored_values(bounds["minimum"]),
                                            stored_values(bounds["maximum"]))
        scan = feat_mod.scan_dataset(pipeline / "data")
        feat_mod.fill_latents(scan, EmbedderSpec(), ae)
        row_of = {u: i for i, u in enumerate(scan.manifest.user_ids)}
        test = feat_mod.read_feature_csv(prep / "test.csv", num_classes=4)
        raw = scan.x[[row_of[u] for u in test.user_ids]]
        scalars = feat_mod.NUM_SCALAR_FEATURES
        expected = np.hstack([feat_mod.apply_minmax(stats, raw[:, :scalars]),
                              raw[:, scalars:]])
        assert test.x.tobytes() == expected.tobytes()


def _network_doc(kind, *layers):
    """The stored document of a seeded network of ``layers``."""
    return model_dict(nn.Model(nn.NetworkSpec(layers), rng=np.random.default_rng(0)), kind)


def _autoencoder_doc(input_dim, latent_dim, meta, hidden=128, decoder_hidden=128):
    doc = _network_doc(
        "autoencoder",
        nn.dense(input_dim, hidden), nn.relu(hidden), nn.dense(hidden, latent_dim),
        nn.dense(latent_dim, decoder_hidden), nn.relu(decoder_hidden),
        nn.dense(decoder_hidden, input_dim))
    doc["autoencoder"] = meta
    return doc


class TestBundleCrossCheck:
    @pytest.mark.parametrize("tamper, named", [
        (lambda b: b.update(num_classes=6), "num_classes"),
        (lambda b: b.update(num_classes=6),
         "classifier (num_classes 6) field layers[11].output_dim is 4, expected an integer "
         "equal to 6"),
        (lambda b: b.update(num_classes=5), "field num_classes is 5, expected an integer in"),
        (lambda b: b.update(classifier=_network_doc("classifier", nn.dense(51, 4),
                                                    nn.softmax(4))),
         "classifier (num_classes 4) field layers has 2 entries, expected 13"),
        (lambda b: b["classifier"]["layers"][3].update(epsilon=0.5),
         "classifier (num_classes 4) field layers[3].epsilon is 0.5, expected a finite number "
         "equal to 0.001"),
        (lambda b: b.update(autoencoder=_autoencoder_doc(768, 10, b["autoencoder"]["autoencoder"],
                                                         decoder_hidden=3)),
         "autoencoder field layers[3].output_dim is 3, expected an integer equal to 128"),
        (lambda b: b.update(num_classes=4.0), "field num_classes is 4.0, expected an integer"),
        (lambda b: retouch(b["normalization"], "minimum", lambda a: a.__setitem__(0, np.nan)),
         "normalization.minimum holds non-finite values"),
        (lambda b: retouch(b["normalization"], "maximum", lambda a: a.__setitem__(3, np.inf)),
         "normalization.maximum holds non-finite values"),
        (lambda b: retouch(b["normalization"], "minimum", lambda a: a.__setitem__(
            2, stored_values(b["normalization"]["maximum"])[2] + 1.0)),
         "normalization.minimum exceeds normalization.maximum at component 2"),
        (lambda b: b["normalization"].update(
            maximum=stored_values(b["normalization"]["maximum"]).tolist()),
         "normalization.maximum is not a base64 string"),
        (lambda b: retouch(b["normalization"], "minimum", lambda a: a[:-1]),
         "normalization.minimum"),
        (lambda b: retouch(b["normalization"], "maximum", lambda a: np.append(a, 1.0)),
         "normalization.maximum"),
        (lambda b: b.update(
            autoencoder=_autoencoder_doc(700, 10, b["autoencoder"]["autoencoder"])),
         "autoencoder field layers[0].input_dim is 700, expected an integer equal to 768"),
        (lambda b: b.update(
            autoencoder=_autoencoder_doc(768, 12, b["autoencoder"]["autoencoder"])),
         "autoencoder field layers[2].output_dim is 12, expected an integer equal to 10"),
        (lambda b: b["embedder"].update(kind="remote"), "embedder.kind"),
        (lambda b: b["embedder"].pop("hash_seed"), "no field embedder.hash_seed"),
        (lambda b: b.pop("num_classes"), "no field num_classes"),
        (lambda b: b.pop("embedder"), "no field embedder"),
        (lambda b: b.pop("normalization"), "no field normalization"),
        (lambda b: b.pop("classifier"), "no field classifier"),
        (lambda b: b.pop("autoencoder"), "no field autoencoder"),
        (lambda b: b["classifier"].pop("layers"), "no field layers"),
        (lambda b: b["classifier"]["layers"][0].update(dropout_rate="x"),
         "layers[0].dropout_rate"),
        (lambda b: b["classifier"]["layers"][3].update(epsilon=-1000.0), "layers[3].epsilon"),
        (lambda b: b["classifier"]["layers"][7].update(momentum="a"), "layers[7].momentum"),
        (lambda b: b["autoencoder"].update(autoencoder=[]),
         "field autoencoder is [], expected a JSON object"),
        (lambda b: b["autoencoder"]["autoencoder"].update(epochs=0), "autoencoder.epochs is 0"),
        (lambda b: b["autoencoder"]["autoencoder"].update(batch_size=16.0),
         "autoencoder.batch_size is 16.0"),
        (lambda b: b["autoencoder"]["autoencoder"].update(seed=-1), "autoencoder.seed is -1"),
        (lambda b: b["autoencoder"]["autoencoder"].update(trained=1), "autoencoder.trained is 1"),
        (lambda b: b.update(autoencoder=_autoencoder_doc(768, 10, b["autoencoder"]["autoencoder"],
                                                         hidden=7)),
         "autoencoder field layers[0].output_dim is 7, expected an integer equal to 128"),
        (lambda b: b.update(format_version=1), "unsupported bundle version 1, expected 2"),
        (lambda b: b["classifier"].update(format_version=1),
         "unsupported model format version 1, expected 2"),
        (lambda b: (retouch(b["normalization"], "minimum", lambda a: a.__setitem__(4, -1.7e308)),
                    retouch(b["normalization"], "maximum", lambda a: a.__setitem__(4, 1.7e308))),
         "normalization.maximum - normalization.minimum overflows at component 4"),
    ])
    def test_mismatched_bundle_rejected_by_name(self, pipeline, tmp_path, capsys,
                                                tamper, named):
        bundle = json.loads((pipeline / "model.json").read_text("utf-8"))
        tamper(bundle)
        model = tmp_path / "model.json"
        model.write_text(json.dumps(bundle), "utf-8")
        code = run_without_warnings(["predict", "--model", str(model), "--input",
                                     str(pipeline / "data"), "--out", str(tmp_path / "preds.csv")])
        assert code == 1
        err = capsys.readouterr().err
        assert f"model bundle {model} " in err and named in err and "Traceback" not in err
        assert not (tmp_path / "preds.csv").exists()

    def test_train_rejects_an_autoencoder_of_another_architecture(self, pipeline, tmp_path,
                                                                  capsys):
        prep = tmp_path / "prep"
        shutil.copytree(pipeline / "prep", prep)
        path = prep / "autoencoder.json"
        meta = json.loads(path.read_text("utf-8"))["autoencoder"]
        path.write_text(json.dumps(_autoencoder_doc(768, 10, meta, decoder_hidden=3)), "utf-8")
        code = run(["train", "--prepared", str(prep), "--out", str(tmp_path / "model.json")]
                   + FAST_TRAIN)
        assert code == 1
        err = capsys.readouterr().err
        assert (f"autoencoder file {path} field layers[3].output_dim is 3, "
                f"expected an integer equal to 128") in err and "Traceback" not in err
        assert not (tmp_path / "model.json").exists()

    @pytest.mark.parametrize("width", [2**33, 2**64])
    def test_oversized_spec_named_before_allocation(self, pipeline, tmp_path, capsys,
                                                    monkeypatch, width):
        bundle = json.loads((pipeline / "model.json").read_text("utf-8"))
        layers = bundle["autoencoder"]["layers"]
        layers[0]["output_dim"] = layers[1]["input_dim"] = layers[1]["output_dim"] = width
        layers[2]["input_dim"] = width
        model = tmp_path / "model.json"
        model.write_text(json.dumps(bundle), "utf-8")
        real = nn.Model

        def sized(spec, rng=None):
            if max(layer.output_dim for layer in spec.layers) > 10**6:
                pytest.fail("allocated a model from an oversized spec")
            return real(spec, rng)

        monkeypatch.setattr(nn, "Model", sized)
        code = run(["predict", "--model", str(model), "--input", str(pipeline / "data"),
                    "--out", str(tmp_path / "preds.csv")])
        assert code == 1
        err = capsys.readouterr().err
        assert (f"model bundle {model} autoencoder field layers[0].output_dim is {width}, "
                f"expected an integer equal to 128") in err and "Traceback" not in err
        assert not (tmp_path / "preds.csv").exists()

    @pytest.mark.parametrize("tamper, named", [
        (lambda d: retouch(d, "minimum", lambda a: a.__setitem__(0, np.nan)),
         "minimum holds non-finite"),
        (lambda d: retouch(d, "maximum", lambda a: a.__setitem__(1, -np.inf)),
         "maximum holds non-finite"),
        (lambda d: retouch(d, "minimum", lambda a: a.__setitem__(
            4, stored_values(d["maximum"])[4] + 1.0)),
         "minimum exceeds maximum at component 4"),
        (lambda d: (retouch(d, "minimum", lambda a: a.__setitem__(7, -1e308)),
                    retouch(d, "maximum", lambda a: a.__setitem__(7, 1e308))),
         "maximum - minimum overflows at component 7"),
        (lambda d: retouch(d, "maximum", lambda a: a[:-1]), "maximum has shape (34,)"),
        (lambda d: d.pop("minimum"), "no field minimum"),
    ], ids=["nan", "minus-infinity", "min-above-max", "span-overflow", "short", "missing"])
    def test_train_rejects_bad_norm_stats_by_name(self, pipeline, tmp_path, capsys,
                                                  tamper, named):
        prep = tmp_path / "prep"
        shutil.copytree(pipeline / "prep", prep)
        stats = json.loads((prep / "norm_stats.json").read_text("utf-8"))
        tamper(stats)
        (prep / "norm_stats.json").write_text(json.dumps(stats), "utf-8")
        code = run_without_warnings(["train", "--prepared", str(prep),
                                     "--out", str(tmp_path / "model.json")] + FAST_TRAIN)
        assert code == 1
        err = capsys.readouterr().err
        assert f"normalization stats {prep / 'norm_stats.json'} " in err and named in err
        assert "Traceback" not in err
        assert not (tmp_path / "model.json").exists()

    @pytest.mark.parametrize("embedder, named", [
        ({"kind": "remote", "hash_seed": 0}, 'field embedder.kind is "remote", expected'),
        ({"kind": "hash", "hash_seed": -5}, "field embedder.hash_seed is -5, expected"),
    ], ids=["remote-kind", "negative-seed"])
    def test_train_rejects_an_embedder_predict_would_reject(self, pipeline, tmp_path, capsys,
                                                            embedder, named):
        prep = tmp_path / "prep"
        shutil.copytree(pipeline / "prep", prep)
        meta = json.loads((prep / "prepare_meta.json").read_text("utf-8"))
        meta["embedder"] = embedder
        (prep / "prepare_meta.json").write_text(json.dumps(meta), "utf-8")
        code = run(["train", "--prepared", str(prep), "--out", str(tmp_path / "model.json")]
                   + FAST_TRAIN)
        assert code == 1
        err = capsys.readouterr().err
        assert f"prepare metadata {prep / 'prepare_meta.json'} {named}" in err
        assert "Traceback" not in err
        assert not (tmp_path / "model.json").exists()

    @pytest.mark.parametrize("field", ["num_classes", "embedder"])
    def test_prepare_meta_missing_field_rejected_by_name(self, pipeline, tmp_path, capsys,
                                                         field):
        prep = tmp_path / "prep"
        shutil.copytree(pipeline / "prep", prep)
        meta = json.loads((prep / "prepare_meta.json").read_text("utf-8"))
        del meta[field]
        (prep / "prepare_meta.json").write_text(json.dumps(meta), "utf-8")
        code = run(["train", "--prepared", str(prep), "--out", str(tmp_path / "model.json")]
                   + FAST_TRAIN)
        assert code == 1
        assert (f"prepare metadata {prep / 'prepare_meta.json'} has no field {field}"
                in capsys.readouterr().err)
        assert not (tmp_path / "model.json").exists()

    @pytest.mark.parametrize("value", ["4", True, 5, None], ids=["str", "bool", "5", "null"])
    def test_prepare_meta_bad_num_classes_rejected_by_name(self, pipeline, tmp_path, capsys,
                                                           value):
        prep = tmp_path / "prep"
        shutil.copytree(pipeline / "prep", prep)
        meta = json.loads((prep / "prepare_meta.json").read_text("utf-8"))
        meta["num_classes"] = value
        (prep / "prepare_meta.json").write_text(json.dumps(meta), "utf-8")
        code = run(["train", "--prepared", str(prep), "--out", str(tmp_path / "model.json")]
                   + FAST_TRAIN)
        assert code == 1
        err = capsys.readouterr().err
        assert f"prepare metadata {prep / 'prepare_meta.json'} field num_classes" in err
        assert json.dumps(value) in err
        assert "Traceback" not in err
        assert not (tmp_path / "model.json").exists()

    @pytest.mark.parametrize("prepared_classes", [6, 8])
    def test_evaluate_rejects_class_count_of_other_prepared_dir(
            self, pipeline, tmp_path, capsys, prepared_classes):
        prep = tmp_path / "prep"
        shutil.copytree(pipeline / "prep", prep)
        meta = json.loads((prep / "prepare_meta.json").read_text("utf-8"))
        meta["num_classes"] = prepared_classes
        (prep / "prepare_meta.json").write_text(json.dumps(meta), "utf-8")
        code = run(["evaluate", "--model", str(pipeline / "model.json"),
                    "--prepared", str(prep), "--out", str(tmp_path / "report.json")])
        assert code == 1
        captured = capsys.readouterr()
        assert "num_classes 4" in captured.err
        assert f"num_classes {prepared_classes}" in captured.err
        assert captured.out == "" and not (tmp_path / "report.json").exists()


_BAD_STATE_FILES = {
    "deep-nesting": (b"[" * 100_000 + b"]" * 100_000, "nests JSON arrays or objects too deeply"),
    "invalid-utf8": (b'{"num_classes": 4, "x": "\xff"}', "is not UTF-8 text"),
    "repeated-key": (b'{"num_classes": 4, "x": {"a": 1, "a": 2}}', "repeats the key 'a'"),
    "nan-literal": (b'{"num_classes": NaN}', "holds NaN, which is not a JSON number"),
    "truncated": (b'{"num_classes": ', "is not valid JSON"),
    "empty": (b"", "is not valid JSON"),
    "array": (b"[]", "does not hold a JSON object"),
}


class TestStateFiles:
    """Every state file a command reads goes through one reader, which names
    the file on a fault: exit 1, and no traceback."""

    @pytest.mark.parametrize("case", sorted(_BAD_STATE_FILES))
    @pytest.mark.parametrize("name", ["model.json", "autoencoder.json", "prepare_meta.json",
                                      "norm_stats.json", "config.json"])
    def test_malformed_state_file_named(self, pipeline, tmp_path, capsys, name, case):
        content, problem = _BAD_STATE_FILES[case]
        prep, out = tmp_path / "prep", tmp_path / "out"
        shutil.copytree(pipeline / "prep", prep)
        bad = tmp_path / name if name in ("model.json", "config.json") else prep / name
        bad.write_bytes(content)
        if name == "model.json":
            argv = ["predict", "--model", str(bad), "--input", str(pipeline / "data"),
                    "--out", str(out)]
        elif name == "config.json":
            argv = ["--config", str(bad), "generate", "--out", str(out)]
        else:
            argv = ["train", "--prepared", str(prep), "--out", str(out)] + FAST_TRAIN
        assert run(argv) == 1
        err = capsys.readouterr().err
        assert f"{bad} {problem}" in err and "Traceback" not in err
        assert not out.exists()

    def test_version_1_prepared_directory_named(self, pipeline, tmp_path, capsys):
        prep = tmp_path / "prep"
        shutil.copytree(pipeline / "prep", prep)
        ae = json.loads((prep / "autoencoder.json").read_text("utf-8"))
        ae["format_version"] = 1
        (prep / "autoencoder.json").write_text(json.dumps(ae), "utf-8")
        bounds = json.loads((prep / "norm_stats.json").read_text("utf-8"))
        listed = {key: stored_values(text).tolist() for key, text in bounds.items()}
        (prep / "norm_stats.json").write_text(json.dumps(listed), "utf-8")
        code = run(["train", "--prepared", str(prep), "--out", str(tmp_path / "model.json")]
                   + FAST_TRAIN)
        assert code == 1
        err = capsys.readouterr().err
        assert "unsupported model format version 1, expected 2" in err
        assert "Traceback" not in err and not (tmp_path / "model.json").exists()

    def test_duplicate_label_row_is_dataset_error(self, pipeline, tmp_path, capsys):
        data = tmp_path / "data"
        shutil.copytree(pipeline / "data", data)
        labels = data / "labels.csv"
        first_row = labels.read_text("utf-8").splitlines()[1]
        with open(labels, "a", encoding="utf-8") as fh:
            fh.write(first_row + "\n")
        code = run(["prepare", "--data", str(data), "--out", str(tmp_path / "prep")]
                   + FAST_PREPARE)
        assert code == 2
        err = capsys.readouterr().err
        assert str(labels) in err and "twice" in err and "Traceback" not in err
        assert not (tmp_path / "prep").exists()


def _retyped(key, value, index=None, under=None):
    """A change to a JSON file that sets ``key`` to ``value`` in its object,
    or in its item ``index``, or in the object at ``under`` there."""
    def change(raw: bytes) -> bytes:
        doc = json.loads(raw)
        target = doc if index is None else doc[index]
        (target if under is None else target[under])[key] = value
        return json.dumps(doc).encode()
    return change


def _cell(line: int, column: int, value: bytes):
    """A change to a CSV file that sets the cell at 1-based ``line`` and
    0-based ``column`` to ``value``."""
    def change(raw: bytes) -> bytes:
        lines = raw.split(b"\n")
        cells = lines[line - 1].split(b",")
        cells[column] = value
        lines[line - 1] = b",".join(cells)
        return b"\n".join(lines)
    return change


class TestInputFaultGate:
    """Every fault in every file a command reads is named, with no traceback:
    dataset JSON files and labels.csv exit 2, the split CSVs exit 1."""

    def test_every_input_fault_is_named_without_traceback(self, pipeline, tmp_path, capsys):
        data, prep = tmp_path / "data", tmp_path / "prep"
        assert run(["generate", "--out", str(data), "--users", "4", "--classes", "4",
                    "--tweets-per-user", "2", "--comments-per-user", "2"]) == 0
        shutil.copytree(pipeline / "prep", prep)
        prepare = lambda root: ["prepare", "--data", str(root), "--out", str(root / "out")]
        train = lambda root: (["train", "--prepared", str(root), "--out", str(root / "m.json")]
                              + FAST_TRAIN)

        cases = []  # (label, file, its new bytes or a change to them, command, exit code)
        for sub, wrong_type in (("profiles", b"[]"), ("tweets", b"{}"), ("comments", b"[3]")):
            faults = dict(_BAD_STATE_FILES, array=(wrong_type, None))
            for case, (content, _) in sorted(faults.items()):
                cases.append((f"{sub} {case}", f"{sub}/user00001.json", content, prepare, 2))
        for label, sub, change in (
                ('verified "false"', "profiles", _retyped("verified", "false")),
                ("followers_count 3.7", "profiles", _retyped("followers_count", 3.7)),
                ("followers_count true", "profiles", _retyped("followers_count", True)),
                ("location 0", "profiles", _retyped("location", 0)),
                ("tweet text null", "tweets", _retyped("text", None, index=1)),
                ("comment text null", "comments", _retyped("text", None, index=0)),
                ("friends_count -1", "profiles", _retyped("friends_count", -1)),
                ("retweet_count 2**63", "tweets", _retyped("retweet_count", 2**63, index=0)),
                ("tweet text 4,001 characters", "tweets", _retyped("text", "x" * 4001, index=1)),
                ("entities.polls -1", "tweets", _retyped("polls", -1, index=0, under="entities")),
                ("tweet text lone surrogate", "tweets",
                 _retyped("text", "ab\ud800cd", index=1))):
            cases.append((label, f"{sub}/user00002.json", change, prepare, 2))
        csv_faults = lambda non_finite_cell: {
            "empty": b"",
            "invalid UTF-8": _cell(2, 0, b"user\xff"),
            "truncated row": lambda raw: raw[:raw.rindex(b",") - 1],
            "non-finite cell": non_finite_cell,
        }.items()
        for case, content in csv_faults(_cell(3, 1, b"nan")):
            cases.append((f"labels.csv {case}", "labels.csv", content, prepare, 2))
        for split in ("train.csv", "test.csv", "validation.csv"):
            for case, content in csv_faults(_cell(3, 7, b"inf")):
                cases.append((f"{split} {case}", split, content, train, 1))
        assert len(cases) == 3 * 7 + 6 + 5 + 4 + 3 * 4

        wrong = []
        for label, name, content, command, code in cases:
            root = tmp_path / "case"
            shutil.copytree(prep if command is train else data, root)
            path = root / name
            path.write_bytes(content(path.read_bytes()) if callable(content) else content)
            got = run(command(root))
            err = capsys.readouterr().err
            if got != code or str(path) not in err or "Traceback" in err:
                wrong.append(f"{label}: exit {got}, stderr {err!r}")
            shutil.rmtree(root)
        assert wrong == []


# Single mutations of the state files, for TestStateFileFuzz.

_OTHER_TYPES = (None, True, 1, "x", [], {})
# Numbers outside the range of most integer fields, and one beyond every float.
_OUT_OF_RANGE = (-1, 0, 3, 5, 2**63, 2**64, -2**63 - 1, 10**400)
# The keys under which a state file stores a float array.
_ARRAY_KEYS = {"weight", "bias", "scale", "shift", "mean", "var", "minimum", "maximum"}


def _json_kind(value) -> type:
    """The JSON type of a parsed value, with every number as one type."""
    return float if type(value) in (int, float) else type(value)


def _json_paths(doc, at=()):
    """The path of every value inside the parsed JSON ``doc``, in document order."""
    for key, value in (doc.items() if type(doc) is dict else enumerate(doc)):
        yield at + (key,)
        if type(value) in (dict, list):
            yield from _json_paths(value, at + (key,))


def _raw_fault(raw: bytes, pick: int, choice: int) -> bytes:
    """One of six byte-level faults of a file, ``choice`` selecting it."""
    cut = pick % len(raw)
    return (
        b"",
        b"\xef\xbb\xbf" + raw,  # a byte-order mark
        raw[:cut],  # truncated
        raw[:cut] + b"\xff" + raw[cut:],  # not UTF-8
        b"[" * 100_000 + b"]" * 100_000,  # nested beyond the parser's depth
        b'{"a": "\\ud800"}',  # an unpaired surrogate escape
    )[choice % 6]


def _value_at(doc, path: tuple):
    """The value at ``path``, a tuple of keys and indices, in the parsed JSON ``doc``."""
    for key in path:
        doc = doc[key]
    return doc


def _json_fault(raw: bytes, kind: str, pick: int, choice: int) -> tuple[bytes, tuple]:
    """The JSON file ``raw`` with one value retyped, set out of range or
    deleted, and the path of that value."""
    doc = json.loads(raw)
    paths = list(_json_paths(doc))
    if kind == "range":
        paths = [p for p in paths if p[-1] in _ARRAY_KEYS or type(_value_at(doc, p)) is int]
    path = paths[pick % len(paths)]
    parent, key = _value_at(doc, path[:-1]), path[-1]
    value = parent[key]
    if kind == "delete":
        del parent[key]
    elif kind == "retype":
        others = [v for v in _OTHER_TYPES if _json_kind(v) is not _json_kind(value)]
        parent[key] = others[choice % len(others)]
    elif type(value) is int:
        parent[key] = _OUT_OF_RANGE[choice % len(_OUT_OF_RANGE)]
    else:  # a stored float array, one of its values made non-finite
        values = stored_values(value)
        values[choice % values.size] = (np.nan, np.inf, -np.inf)[choice % 3]
        parent[key] = stored(values)
    return json.dumps(doc).encode(), path


def _csv_fault(raw: bytes, kind: str, pick: int, choice: int) -> bytes:
    """The split CSV ``raw`` with one cell made text, set out of range or deleted."""
    lines = raw.split(b"\r\n")  # csv.writer ends every row with CRLF
    row = pick % (len(lines) - 1)
    cells = lines[row].split(b",")
    column = choice % len(cells)
    if kind == "delete":
        del cells[column]
    elif kind == "retype":
        cells[column] = b"x"
    elif column == len(cells) - 1:  # the class index
        cells[column] = (b"-1", b"4", b"99999999999999999999")[choice // len(cells) % 3]
    else:
        cells[column] = (b"nan", b"inf", b"-inf", b"1e400")[choice // len(cells) % 4]
    lines[row] = b",".join(cells)
    return b"\r\n".join(lines)


@pytest.fixture(scope="module")
def fuzz_root(pipeline, tmp_path_factory):
    """A copy of the pipeline's prepared directory and bundle, with a config
    file for a small generate run."""
    root = tmp_path_factory.mktemp("fuzz")
    shutil.copytree(pipeline / "prep", root / "prep")
    shutil.copy(pipeline / "model.json", root / "model.json")
    (root / "out").mkdir()
    (root / "config.json").write_text(json.dumps({
        "users": 4, "classes": 4, "seed": 7, "tweets_per_user": 1, "comments_per_user": 1,
    }), "utf-8")
    return root


def _fuzz_command(root: Path, name: str) -> tuple[Path, list[str]]:
    """The state file ``name`` under ``root`` and a command that reads it."""
    if name == "model.json":
        return root / name, ["evaluate", "--model", str(root / name),
                             "--prepared", str(root / "prep")]
    if name == "config.json":
        return root / name, ["--config", str(root / name), "generate",
                             "--out", str(root / "out" / "data")]
    return root / "prep" / name, ["train", "--prepared", str(root / "prep"),
                                  "--out", str(root / "out" / "model.json"),
                                  "--seed", "0", "--max-epochs", "1", "--patience", "1"]


def _run_with(path: Path, content: bytes, argv: list[str], capsys) -> tuple[int, str]:
    """The exit code and stderr of ``argv`` run with ``content`` in place of
    the file at ``path``, which is put back afterwards."""
    original = path.read_bytes()
    path.write_bytes(content)
    try:
        code = run(argv)
    finally:
        path.write_bytes(original)
    return code, capsys.readouterr().err


class TestStateFileFuzz:
    """A single mutation of a state file, run through a command that reads
    it: no exception escapes ``cli.run``, the exit code is 0 or 1, and on
    exit 1 the last stderr line names the file, and for a fault inside a
    bundle's network, that network.

    A mutation retypes a value, sets it out of range, deletes it, or
    replaces the file's bytes. Out of range means an integer beyond most
    fields' ranges or a stored float made non-finite; the config file's
    numbers are option values, which each command checks as it checks a
    flag, so the config file gets the other three kinds only.
    """

    @pytest.mark.parametrize("name", ["prepare_meta.json", "norm_stats.json", "autoencoder.json",
                                      "train.csv", "test.csv", "validation.csv", "model.json",
                                      "config.json"])
    @settings(derandomize=True, max_examples=25, deadline=None, database=None,
              suppress_health_check=[HealthCheck.function_scoped_fixture])
    @given(kind=st.integers(0, 3), pick=st.integers(0, 2**32), choice=st.integers(0, 2**16))
    def test_single_mutation_is_named_or_harmless(self, fuzz_root, capsys, name,
                                                  kind, pick, choice):
        path, argv = _fuzz_command(fuzz_root, name)
        raw = path.read_bytes()
        kinds = ("retype", "delete", "bytes") + (() if name == "config.json" else ("range",))
        kind = kinds[kind % len(kinds)]
        network = None
        if kind == "bytes":
            content = _raw_fault(raw, pick, choice)
        elif name.endswith(".csv"):
            content = _csv_fault(raw, kind, pick, choice)
        else:
            content, at = _json_fault(raw, kind, pick, choice)
            if name == "model.json" and at[0] in ("classifier", "autoencoder"):
                network = at[0]
        code, err = _run_with(path, content, argv, capsys)
        assert code in (0, 1), err
        if code == 1:
            last = err.splitlines()[-1]
            assert str(path) in last and (network is None or network in last), err

    @pytest.mark.parametrize("name, change, named", [
        ("model.json", lambda b: (b["classifier"]["parameters"].__setitem__(2, 5),
                                  b["classifier"]["running_stats"].__setitem__(0, "junk"),
                                  b["classifier"]["running_stats"].append(None)),
         "classifier (num_classes 4) field parameters[2] is 5, expected a JSON object"),
        ("autoencoder.json", lambda doc: doc.update(autoencoder={}),
         "has no field autoencoder.epochs"),
    ], ids=["lenient-classifier-entries", "empty-autoencoder-entry"])
    def test_once_accepted_documents_are_named(self, fuzz_root, capsys, name, change, named):
        path, argv = _fuzz_command(fuzz_root, name)
        doc = json.loads(path.read_bytes())
        change(doc)
        code, err = _run_with(path, json.dumps(doc).encode(), argv, capsys)
        assert code == 1
        last = err.splitlines()[-1]
        assert str(path) in last and last.endswith(named) and "Traceback" not in err


class TestFeatureCsvRows:
    @pytest.mark.parametrize("tamper, named", [
        (lambda row: row[:-2] + row[-1:], "52 columns, expected 53"),
        (lambda row: [], "0 columns, expected 53"),
        (lambda row: row[:11] + ["abc"] + row[12:], "could not convert string to float: 'abc'"),
        (lambda row: row[:5] + ["nan"] + row[6:], "non-finite feature values"),
        (lambda row: row[:-1] + ["1.5"], "invalid literal for int()"),
        (lambda row: row[:-1] + ["4"], "class index 4 out of range for 4 classes"),
    ], ids=["short-row", "blank-row", "non-numeric", "nan", "fractional-class",
            "class-out-of-range"])
    def test_malformed_row_named_by_path_and_line(self, pipeline, tmp_path, capsys,
                                                  tamper, named):
        prep = tmp_path / "prep"
        shutil.copytree(pipeline / "prep", prep)
        path = prep / "test.csv"
        with open(path, newline="", encoding="utf-8") as fh:
            rows = list(csv.reader(fh))
        rows[2] = tamper(rows[2])
        with open(path, "w", newline="", encoding="utf-8") as fh:
            csv.writer(fh).writerows(rows)
        code = run(["evaluate", "--model", str(pipeline / "model.json"),
                    "--prepared", str(prep)])
        assert code == 1
        err = capsys.readouterr().err
        assert f"{path}:3: {named}" in err and "Traceback" not in err

    def test_empty_file_named_as_missing_header(self, pipeline, tmp_path, capsys):
        prep = tmp_path / "prep"
        shutil.copytree(pipeline / "prep", prep)
        (prep / "test.csv").write_bytes(b"")
        code = run(["evaluate", "--model", str(pipeline / "model.json"),
                    "--prepared", str(prep)])
        assert code == 1
        err = capsys.readouterr().err
        assert f"{prep / 'test.csv'}:1: missing header" in err and "Traceback" not in err


    @pytest.mark.parametrize("part, command", [
        ("train", "train"), ("validation", "train"), ("test", "evaluate")])
    def test_split_of_only_a_header_named(self, pipeline, tmp_path, capsys, part, command):
        prep = tmp_path / "prep"
        shutil.copytree(pipeline / "prep", prep)
        path = prep / f"{part}.csv"
        path.write_text(path.read_text("utf-8").splitlines()[0] + "\n", "utf-8")
        args = (["train", "--prepared", str(prep), "--out", str(tmp_path / "m.json")]
                if command == "train" else
                ["evaluate", "--model", str(pipeline / "model.json"), "--prepared", str(prep)])
        assert run(args) == 1
        err = capsys.readouterr().err
        assert err.splitlines()[-1] == f"error: {part} split {path} holds no rows"


class TestTrainEvaluate:
    def test_evaluate_writes_parsable_report(self, pipeline, tmp_path, capsys):
        report_path = tmp_path / "report.json"
        code = run(["evaluate", "--model", str(pipeline / "model.json"),
                    "--prepared", str(pipeline / "prep"), "--out", str(report_path)])
        assert code == 0
        stdout = capsys.readouterr().out
        parsed = json.loads(stdout)
        assert "f1" in parsed["macro"]
        assert json.loads(report_path.read_text("utf-8")) == parsed

    def test_evaluate_reads_only_the_test_split(self, pipeline, tmp_path, capsys):
        prep = tmp_path / "prep"
        shutil.copytree(pipeline / "prep", prep)
        intact = run(["evaluate", "--model", str(pipeline / "model.json"),
                      "--prepared", str(prep)])
        report = capsys.readouterr().out
        (prep / "train.csv").write_bytes(b"")
        (prep / "validation.csv").unlink()
        assert intact == 0 and run(["evaluate", "--model", str(pipeline / "model.json"),
                                    "--prepared", str(prep)]) == 0
        assert capsys.readouterr().out == report

    @pytest.mark.parametrize("flags, named", [
        (["--seed", "-1"], "seed must be >= 0, got -1"),
        (["--batch-size", "0"], "batch_size must be >= 1"),
        (["--max-epochs", "5", "--patience", "6"], "patience must lie in [1, max_epochs]"),
    ])
    def test_bad_option_rejected_before_reading_the_splits(self, pipeline, tmp_path,
                                                           monkeypatch, capsys, flags, named):
        monkeypatch.setattr(feat_mod, "read_feature_csv",
                            lambda *a, **k: pytest.fail("read a split before checking options"))
        out = tmp_path / "model.json"
        assert run(["train", "--prepared", str(pipeline / "prep"), "--out", str(out)]
                   + flags) == 1
        err = capsys.readouterr().err
        assert f"error: {named}\n" in err and "Traceback" not in err
        assert not out.exists()

    def test_overflowing_features_end_in_an_error_not_a_traceback(self, pipeline, tmp_path,
                                                                  capsys):
        prep = tmp_path / "prep"
        shutil.copytree(pipeline / "prep", prep)
        overflow_column(prep / "train.csv")
        code = run_without_warnings(["train", "--prepared", str(prep),
                                     "--out", str(tmp_path / "m.json")] + FAST_TRAIN)
        assert code == 1
        assert capsys.readouterr().err.splitlines() == [
            "error: epoch 0: probabilities contain non-finite values"]
        assert not (tmp_path / "m.json").exists()

    def test_overflowing_test_split_named_not_scored(self, pipeline, tmp_path, capsys):
        prep = tmp_path / "prep"
        shutil.copytree(pipeline / "prep", prep)
        user_ids = overflow_column(prep / "test.csv")
        report = tmp_path / "report.json"
        code = run_without_warnings(["evaluate", "--model", str(pipeline / "model.json"),
                                     "--prepared", str(prep), "--out", str(report)])
        assert code == 1
        captured = capsys.readouterr()
        assert captured.err.splitlines() == [
            f"error: test split {prep / 'test.csv'}: non-finite class probabilities "
            f"for user {user_ids[0]}"]
        assert captured.out == "" and not report.exists()

    def test_model_files_are_sorted_key_json_dumps(self, pipeline):
        for path in (pipeline / "model.json", pipeline / "prep" / "autoencoder.json"):
            text = path.read_text("utf-8")
            assert text == json.dumps(json.loads(text), sort_keys=True)

    def test_history_csv_next_to_model(self, pipeline):
        assert (pipeline / "model.history.csv").is_file()


class TestPredict:
    def test_rows_and_probability_sums(self, pipeline, tmp_path):
        out = tmp_path / "preds.csv"
        code = run(["predict", "--model", str(pipeline / "model.json"),
                    "--input", str(pipeline / "data"), "--out", str(out)])
        assert code == 0
        with open(out, newline="", encoding="utf-8") as fh:
            rows = list(csv.reader(fh))
        assert rows[0] == ["user_id", "p_class0", "p_class1", "p_class2", "p_class3",
                           "predicted_class"]
        assert len(rows) == 61
        for row in rows[1:]:
            probs = [float(x) for x in row[1:-1]]
            assert abs(sum(probs) - 1.0) < 1e-9
            assert int(row[-1]) == max(range(4), key=lambda i: probs[i])

    def test_overflowing_weights_named_not_predicted(self, pipeline, tmp_path, capsys):
        bundle = json.loads((pipeline / "model.json").read_text("utf-8"))
        # Finite, so the bundle loads; the first dense layer's sums overflow.
        retouch(bundle["classifier"]["parameters"][1], "weight",
                lambda w: np.where(np.arange(w.size) % 2, 1.7e308, -1.7e308))
        model = tmp_path / "model.json"
        model.write_text(json.dumps(bundle), "utf-8")
        out = tmp_path / "preds.csv"
        code = run_without_warnings(["predict", "--model", str(model),
                                     "--input", str(pipeline / "data"), "--out", str(out)])
        assert code == 1
        first = min(p.stem for p in (pipeline / "data" / "profiles").glob("*.json"))
        assert capsys.readouterr().err.splitlines() == [
            f"error: non-finite class probabilities for user {first}"]
        assert not out.exists()

    def test_users_without_tweets_counted_in_one_line(self, pipeline, tmp_path, capsys,
                                                      caplog):
        data = tmp_path / "data"
        shutil.copytree(pipeline / "data", data)
        for user_id in ("user00007", "user00003"):
            (data / "tweets" / f"{user_id}.json").unlink()
        line = ("2 of 60 users have no tweets (first: user00003); their tweet and latent "
                "components are zero")
        caplog.set_level(logging.INFO, logger="multicred")
        for argv in (["prepare", "--data", str(data), "--out", str(tmp_path / "prep")]
                     + FAST_PREPARE,
                     ["predict", "--model", str(pipeline / "model.json"), "--input", str(data),
                      "--out", str(tmp_path / "preds.csv")]):
            caplog.clear()
            assert run(argv) == 0
            assert [r.getMessage() for r in caplog.records].count(line) == 1
            assert "no tweets" not in capsys.readouterr().out



class TestWorkerPool:
    """With two usable CPUs the feature passes run in a fork pool."""

    def test_unreadable_profile_exits_2_as_with_one_cpu(self, pipeline, tmp_path, capsys,
                                                        monkeypatch):
        data = tmp_path / "data"
        shutil.copytree(pipeline / "data", data)
        (data / "profiles" / "user00003.json").write_text("{broken", "utf-8")
        # A directory in its place: root reads a file whatever its mode.
        bad = data / "profiles" / "user00045.json"
        bad.unlink()
        bad.mkdir()
        outcomes = []
        for cpus in (1, 2):
            use_cpus(monkeypatch, cpus)
            code = run(["predict", "--model", str(pipeline / "model.json"), "--input", str(data),
                        "--out", str(tmp_path / "preds.csv")])
            outcomes.append((code, capsys.readouterr().err))
            assert multiprocessing.active_children() == []
        assert outcomes[0] == outcomes[1]
        code, err = outcomes[0]
        assert code == 2 and err.splitlines()[-1] == f"error: [Errno 21] Is a directory: '{bad}'"

    @pytest.mark.parametrize("code", [0, 1, 2])
    def test_no_worker_outlives_the_command(self, pipeline, tmp_path, monkeypatch, code):
        use_cpus(monkeypatch, 2)
        data = tmp_path / "data"
        shutil.copytree(pipeline / "data", data)
        if code == 1:
            (data / "labels.csv").unlink()  # prepare needs labels, and says so after the scan
        if code == 2:
            (data / "profiles" / "user00030.json").write_text("{broken", "utf-8")
        args = (["predict", "--model", str(pipeline / "model.json"), "--input", str(data),
                 "--out", str(tmp_path / "preds.csv")] if code == 0 else
                ["prepare", "--data", str(data), "--out", str(tmp_path / "p")] + FAST_PREPARE)
        assert run(args) == code
        assert multiprocessing.active_children() == []

    def test_killed_worker_exits_2(self, pipeline, tmp_path, capsys, monkeypatch):
        use_cpus(monkeypatch, 2)
        command, scan_range = os.getpid(), feat_mod._scan_range

        def killed_in_a_worker(*args):
            if os.getpid() != command:
                os.kill(os.getpid(), signal.SIGKILL)
            return scan_range(*args)

        monkeypatch.setattr(feat_mod, "_scan_range", killed_in_a_worker)
        code = run(["predict", "--model", str(pipeline / "model.json"),
                    "--input", str(pipeline / "data"), "--out", str(tmp_path / "preds.csv")])
        assert code == 2
        assert capsys.readouterr().err.splitlines()[-1] == (
            "error: a feature worker process was killed before it finished its users")
        assert multiprocessing.active_children() == []
        assert not (tmp_path / "preds.csv").exists()

class TestAtomicWrites:
    def test_failed_write_keeps_previous_file_and_leaves_no_temporary(
            self, pipeline, tmp_path, monkeypatch, capsys):
        out = tmp_path / "preds.csv"
        args = ["predict", "--model", str(pipeline / "model.json"),
                "--input", str(pipeline / "data"), "--out", str(out)]
        assert run(args) == 0
        previous = out.read_bytes()
        real_writer = csv.writer

        class FailsAfterOneRow:
            def __init__(self, fh):
                self._writer = real_writer(fh)
                self.writerow = self._writer.writerow

            def writerows(self, rows):
                self._writer.writerow(next(iter(rows)))
                raise OSError("disk full")

        monkeypatch.setattr(cli.csv, "writer", FailsAfterOneRow)
        assert run(args) == 2
        assert "disk full" in capsys.readouterr().err
        assert out.read_bytes() == previous
        assert [p.name for p in tmp_path.iterdir()] == ["preds.csv"]


class TestErrors:
    def test_unknown_flag_is_usage_error(self, capsys):
        assert run(["generate", "--out", "x", "--bogus"]) == 1
        assert "usage" in capsys.readouterr().err

    def test_missing_artifact_is_io_error(self, tmp_path, capsys):
        code = run(["evaluate", "--model", str(tmp_path / "nope.json"),
                    "--prepared", str(tmp_path)])
        assert code == 2
        assert "nope.json" in capsys.readouterr().err

    def test_missing_required_option(self, capsys):
        assert run(["generate"]) == 1
        assert "--out" in capsys.readouterr().err

    def test_bad_class_count_is_validation_error(self, tmp_path):
        code = run(["generate", "--out", str(tmp_path / "d"), "--classes", "5"])
        assert code == 1

    def test_help_exits_zero(self):
        assert run(["--help"]) == 0


class TestConfigFile:
    def test_config_supplies_values_and_flags_win(self, tmp_path):
        config = tmp_path / "run.json"
        config.write_text(json.dumps({
            "out": str(tmp_path / "from_config"),
            "users": 12, "classes": 4, "seed": 1,
            "tweets_per_user": 2, "comments_per_user": 2,
        }), "utf-8")
        assert run(["--config", str(config), "generate"]) == 0
        assert (tmp_path / "from_config" / "labels.csv").is_file()

        # Flag overrides the file's out directory.
        assert run(["--config", str(config), "generate",
                    "--out", str(tmp_path / "flag_wins")]) == 0
        assert (tmp_path / "flag_wins" / "labels.csv").is_file()

    def test_missing_config_file(self, capsys):
        assert run(["--config", "/does/not/exist.json", "generate", "--out", "x"]) == 2

    @pytest.mark.parametrize("values, named", [
        ({"users": 20, "sead": 3, "clases": 6}, "'sead'"),
        ({"users": 20, "ae_epochs": 3}, "'ae_epochs'"),  # a prepare flag, not generate's
        ({"users": 20, "command": "prepare"}, "'command'"),
        ({"users": "20"}, 'field users is "20", expected an integer'),
        ({"seed": 7.5}, "field seed is 7.5, expected an integer"),
        ({"users": True}, "field users is true, expected an integer"),
        ({"separation": "1.0"}, 'field separation is "1.0", expected a finite number'),
        ({"out": 3}, "field out is 3, expected a string"),
        pytest.param({"separation": 10**400}, "field separation is 1" + "0" * 59 + "... (401 "
                     "characters of JSON), expected a finite number", id="separation-10**400"),
    ])
    def test_bad_config_key_or_type_is_usage_error(self, tmp_path, capsys, values, named):
        config = tmp_path / "run.json"
        config.write_text(json.dumps(values), "utf-8")
        out = tmp_path / "data"
        assert run(["--config", str(config), "generate", "--out", str(out)]) == 1
        err = capsys.readouterr().err
        assert named in err and "Traceback" not in err
        assert err.startswith(f"config file {config} " + ("field " if "field" in named
                                                          else "has the key "))
        assert not out.exists()

    def test_int_config_value_for_float_flag(self, tmp_path):
        config = tmp_path / "run.json"
        config.write_text(json.dumps({"users": 12, "separation": 1}), "utf-8")
        assert run(["--config", str(config), "generate", "--out", str(tmp_path / "d"),
                    "--tweets-per-user", "2", "--comments-per-user", "2"]) == 0


def test_package_exports_resolve():
    for name in multicred.__all__:
        assert getattr(multicred, name) is not None, name
    namespace = {}
    exec("from multicred import *", namespace)
    assert set(multicred.__all__) <= set(namespace)


def test_cli_import_pulls_in_no_http_client():
    src = str(Path(multicred.__file__).resolve().parents[1])
    env = dict(os.environ, PYTHONPATH=os.pathsep.join(
        filter(None, [src, os.environ.get("PYTHONPATH")])))
    probe = ("import sys, multicred.cli; "
             "print(sorted(m for m in ('requests', 'urllib3') if m in sys.modules))")
    done = subprocess.run([sys.executable, "-c", probe], env=env, capture_output=True,
                          text=True, check=True)
    assert done.stdout.strip() == "[]"
