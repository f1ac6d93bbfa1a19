import csv
import hashlib
import json
import os
import shutil
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest

import multicred
from multicred import cli
from multicred import features as feat_mod
from multicred import network as nn
from multicred.cli import run
from multicred.dataset import load_dataset
from multicred.embedding import EmbedderSpec, embed_text
from multicred.preprocess import preprocess


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

    def test_corpus_cap_below_two_is_validation_error(self, tmp_path, pipeline, capsys):
        code = run(["prepare", "--data", str(pipeline / "data"), "--out", str(tmp_path / "p"),
                    "--ae-corpus-cap", "0"])
        assert code == 1
        assert "ae_corpus_cap" in capsys.readouterr().err

    def test_each_tweet_embedded_once_plus_corpus_sample(self, tmp_path, pipeline,
                                                         monkeypatch):
        calls = []

        def counting(spec, clean):
            calls.append(clean)
            return embed_text(spec, clean)

        monkeypatch.setattr(cli, "embed_text", counting)
        monkeypatch.setattr(feat_mod, "embed_text", counting)
        assert run(["prepare", "--data", str(pipeline / "data"),
                    "--out", str(tmp_path / "p")] + FAST_PREPARE) == 0
        tweets, cap = 60 * 4, 120
        assert len(calls) == tweets + cap

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

        _, records = load_dataset(pipeline / "data")
        spec = EmbedderSpec(hash_seed=0)
        full = np.stack([embed_text(spec, preprocess(t.text))
                         for r in records for t in r.tweets])
        if cap < full.shape[0]:
            keep = np.random.default_rng(7).choice(full.shape[0], size=cap, replace=False)
            full = full[np.sort(keep)]
        np.testing.assert_array_equal(got.value.args[0], full)


def _autoencoder_doc(input_dim, latent_dim, meta):
    net = nn.NetworkSpec((
        nn.dense(input_dim, 128), nn.relu(128), nn.dense(128, latent_dim),
        nn.dense(latent_dim, 128), nn.relu(128), nn.dense(128, input_dim),
    ))
    doc = nn.model_to_dict(nn.Model(net, rng=np.random.default_rng(0)), "autoencoder")
    doc["autoencoder"] = meta
    return doc


class TestBundleCrossCheck:
    @pytest.mark.parametrize("tamper, named", [
        (lambda b: b.update(num_classes=6), "num_classes"),
        (lambda b: b["normalization"]["minimum"].pop(), "normalization.minimum"),
        (lambda b: b["normalization"]["maximum"].append(1.0), "normalization.maximum"),
        (lambda b: b.update(
            autoencoder=_autoencoder_doc(700, 10, b["autoencoder"]["autoencoder"])),
         "autoencoder input width"),
        (lambda b: b.update(
            autoencoder=_autoencoder_doc(768, 12, b["autoencoder"]["autoencoder"])),
         "autoencoder latent width"),
        (lambda b: b["embedder"].update(kind="remote"), "embedder.kind"),
        (lambda b: b["embedder"].pop("hash_seed"), "no field embedder.hash_seed"),
        (lambda b: b.pop("num_classes"), "no field num_classes"),
        (lambda b: b.pop("embedder"), "no field embedder"),
        (lambda b: b.pop("normalization"), "no field normalization"),
        (lambda b: b.pop("classifier"), "no field classifier"),
        (lambda b: b.pop("autoencoder"), "no field autoencoder"),
        (lambda b: b["classifier"].pop("layers"), "no field layers"),
    ])
    def test_mismatched_bundle_rejected_by_name(self, pipeline, tmp_path, capsys,
                                                tamper, named):
        bundle = json.loads((pipeline / "model.json").read_text("utf-8"))
        tamper(bundle)
        model = tmp_path / "model.json"
        model.write_text(json.dumps(bundle), "utf-8")
        code = run(["predict", "--model", str(model), "--input", str(pipeline / "data"),
                    "--out", str(tmp_path / "preds.csv")])
        assert code == 1
        err = capsys.readouterr().err
        assert named in err and "Traceback" not in err
        assert not (tmp_path / "preds.csv").exists()

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
        assert f"no field {field}" in capsys.readouterr().err
        assert not (tmp_path / "model.json").exists()


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
        ({"users": "20"}, "'users'"),
        ({"seed": 7.5}, "'seed'"),
        ({"users": True}, "'users'"),
        ({"separation": "1.0"}, "'separation'"),
        ({"out": 3}, "'out'"),
    ])
    def test_bad_config_key_or_type_is_usage_error(self, tmp_path, capsys, values, named):
        config = tmp_path / "run.json"
        config.write_text(json.dumps(values), "utf-8")
        out = tmp_path / "data"
        assert run(["--config", str(config), "generate", "--out", str(out)]) == 1
        err = capsys.readouterr().err
        assert named in err and "Traceback" not in err
        assert not out.exists()

    def test_int_config_value_for_float_flag(self, tmp_path):
        config = tmp_path / "run.json"
        config.write_text(json.dumps({"users": 12, "separation": 1}), "utf-8")
        assert run(["--config", str(config), "generate", "--out", str(tmp_path / "d"),
                    "--tweets-per-user", "2", "--comments-per-user", "2"]) == 0


def test_cli_import_pulls_in_no_http_client():
    src = str(Path(multicred.__file__).resolve().parents[1])
    env = dict(os.environ, PYTHONPATH=os.pathsep.join(
        filter(None, [src, os.environ.get("PYTHONPATH")])))
    probe = ("import sys, multicred.cli; "
             "print(sorted(m for m in ('requests', 'urllib3') if m in sys.modules))")
    done = subprocess.run([sys.executable, "-c", probe], env=env, capture_output=True,
                          text=True, check=True)
    assert done.stdout.strip() == "[]"
