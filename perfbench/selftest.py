"""Self-tests of the benchmark itself (not of multicred).

Run from the repository root:

    python3 -m pytest perfbench/selftest.py -q

They check that tracing changes no output and leaves no wrapper behind,
that the input writers are deterministic, that the output checks reject
corrupted outputs, and that BENCHMARK.json names exactly what run.py prints.
"""

from __future__ import annotations

import csv
import json
import os
import subprocess
import sys
from pathlib import Path
from types import FunctionType

import numpy as np
import pytest

BENCH_DIR = Path(__file__).resolve().parent
REPO = BENCH_DIR.parent
sys.path[:0] = [str(BENCH_DIR), str(REPO / "src")]

import checks  # noqa: E402
import cli_child  # noqa: E402
import harness  # noqa: E402
import inputs  # noqa: E402
import run  # noqa: E402
import tracer  # noqa: E402
import trajectory  # noqa: E402
from multicred import cli  # noqa: E402


def _bindings() -> dict:
    """Every function-valued name and default in the multicred package."""
    seen = {}
    for module in tracer._package_modules():
        for name, obj in vars(module).items():
            if isinstance(obj, FunctionType):
                seen[(module.__name__, name)] = obj
                seen[(module.__name__, name, "defaults")] = obj.__defaults__
            elif isinstance(obj, type) and obj.__module__.startswith("multicred"):
                for attr, fn in vars(obj).items():
                    if isinstance(fn, FunctionType):
                        seen[(module.__name__, name, attr)] = fn
    return seen


@pytest.fixture(scope="module")
def tiny(tmp_path_factory):
    """A small labeled dataset in the layout multicred reads."""
    root = tmp_path_factory.mktemp("tiny")
    records = inputs.generate_synthetic(inputs.SyntheticConfig(
        num_users=40, system=inputs.SYSTEM, tweets_per_user=4, comments_per_user=3, seed=5,
    ))
    inputs.write_dataset(records, root / "data")
    return root


def _pipeline(root: Path, data: Path, runner) -> dict[str, bytes]:
    """prepare, train, evaluate, predict through ``runner(args)``; output bytes."""
    prep, model = root / "prepared", root / "model.json"
    report, preds = root / "report.json", root / "predictions.csv"
    for args in (
        ["prepare", "--data", data, "--out", prep, "--seed", 7, "--ae-epochs", 1],
        ["train", "--prepared", prep, "--out", model, "--seed", 0,
         "--max-epochs", 3, "--patience", 3],
        ["evaluate", "--model", model, "--prepared", prep, "--out", report],
        ["predict", "--model", model, "--input", data, "--out", preds],
    ):
        assert runner([str(a) for a in args]) == 0
    return {p.name: p.read_bytes() for p in (prep / "train.csv", model, report, preds)}


def test_traced_run_changes_no_output_and_restores_every_function(tiny, tmp_path):
    before = _bindings()
    plain = _pipeline(tmp_path / "plain", tiny / "data", cli.run)
    assert _bindings() == before

    summaries = []

    def traced(args):
        out = tmp_path / f"spans{len(summaries)}.json"
        code = cli_child.main(["--trace", str(out), "--", *args])
        summaries.append(json.loads(out.read_text())["summary"])
        return code

    assert _pipeline(tmp_path / "traced", tiny / "data", traced) == plain
    assert _bindings() == before

    prepare, train, _, predict = summaries
    tweets = 40 * 4
    assert prepare["embedding.embed_text"]["calls"] == 2 * tweets
    assert predict["embedding.embed_text"]["calls"] == tweets
    assert predict["network.clf.forward"]["rows"] == predict["network.clf.forward"]["calls"] == 40
    assert train["classifier.train"]["count"] == 3
    assert prepare["dataset.load_dataset"]["count"] == 40
    # The default-argument binding is traced too.
    assert prepare["embedding.analyze_sentiment"]["calls"] == 40 * 3
    for summary in summaries:
        assert summary["cli.run"]["calls"] == 1


def test_tracer_installs_at_every_binding():
    t = tracer.Tracer()
    t.install()
    try:
        from multicred import embedding, features
        preprocess = sys.modules["multicred.preprocess"]  # the package exports a same-named function
        for wrapped in (features.embed_text, features.preprocess, cli.load_dataset):
            assert wrapped.__wrapped__ is not wrapped
        assert features.embed_text is cli.embed_text is embedding.embed_text
        assert features.preprocess is cli.preprocess is preprocess.preprocess
        assert features.build_user_vector.__wrapped__.__defaults__[-1] is \
            features.analyze_sentiment
        assert features.analyze_sentiment is embedding.analyze_sentiment
    finally:
        t.uninstall()


def test_child_reports_its_own_peak_rss(tmp_path):
    ballast = np.ones(200 * 2**20 // 8)  # 200 MB more in this, the spawning, process
    out = tmp_path / "report.json"
    proc = subprocess.run(
        [sys.executable, str(BENCH_DIR / "cli_child.py"), str(out), "--", "--help"],
        cwd=REPO, env=dict(os.environ, PYTHONPATH=str(REPO / "src")),
        capture_output=True, timeout=60,
    )
    assert proc.returncode == 0 and ballast[-1] == 1.0
    assert 0.0 < json.loads(out.read_text())["peak_rss_mb"] < 150.0


def test_self_time_subtracts_children():
    spans = [[0, None, "a", 0.0, 10.0, None, None], [1, 0, "b", 1.0, 4.0, 16, None],
             [2, 0, "b", 5.0, 6.0, 16, None], [3, 1, "c", 2.0, 3.0, None, 7]]
    table = tracer.summarize(spans)
    assert table["a"]["self_s"] == pytest.approx(6.0)
    assert table["b"] == {"calls": 2, "s": pytest.approx(4.0), "self_s": pytest.approx(3.0),
                          "rows": 32, "count": 0}
    assert table["c"]["count"] == 7


@pytest.fixture
def small_sizes(monkeypatch):
    monkeypatch.setattr(inputs, "STANDARD_USERS", 20)
    monkeypatch.setattr(inputs, "BUNDLE_USERS", 20)
    monkeypatch.setattr(inputs, "BULK_USERS", 6)
    monkeypatch.setattr(inputs, "BULK_TWEETS", 15)
    monkeypatch.setattr(inputs, "SKEW_KEEP", {0: 44, 1: 20, 2: 10, 3: 6})


@pytest.mark.parametrize("seed", [0, 3])
def test_input_writers_are_deterministic(small_sizes, tmp_path, seed):
    def build(tag, s):
        d = tmp_path / tag
        inputs.write_standard(s, d / "standard")
        inputs.write_bulk(s, d / "bundle", d / "bulk")
        info = inputs.write_skewed(s, d / "skewed", d / "skewed-score")
        return {p.name: harness.tree_digest(p) for p in d.iterdir()}, info

    first, info = build("a", seed)
    again, _ = build("b", seed)
    other, _ = build("c", seed + 1)
    assert first == again
    assert all(first[k] != other[k] for k in first)
    assert info["users"] == 80 and info["tweets"] == 80 * inputs.SKEW_TWEETS
    labels = (tmp_path / "a" / "skewed" / "labels.csv").read_text().splitlines()[1:]
    classes = [inputs.bin_score(float(line.split(",")[1]), inputs.SYSTEM) for line in labels]
    assert [classes.count(c) for c in range(4)] == [44, 20, 10, 6]
    assert not (tmp_path / "a" / "bulk" / "labels.csv").exists()


def test_hash_feature_stats_count_unigrams_and_bigrams(tmp_path):
    (tmp_path / "tweets").mkdir()
    (tmp_path / "tweets" / "u1.json").write_text(json.dumps(
        [{"text": "alpha beta alpha beta"}, {"text": "gamma"}, {"text": ""}]))
    # alpha beta alpha beta: 4 unigrams + 3 bigrams; gamma: 1 unigram.
    assert inputs.hash_feature_stats(tmp_path) == {
        "features": 8, "distinct": 5, "distinct_ratio": round(5 / 8, 4)}


def test_trajectory_point_and_compare(tmp_path, monkeypatch, capsys):
    spec = json.loads((REPO / "BENCHMARK.json").read_text())
    monkeypatch.setattr(trajectory, "RESULTS", tmp_path)
    env = {"code": "c", "git_commit": None}
    for workload in run.WORKLOADS:
        for seed in range(1, 11):
            metrics = {m["name"]: {"value": 10.0 + seed / 100, "unit": m["unit"]}
                       for m in spec["end_to_end"]}
            (tmp_path / f"{workload}-seed{seed}-trace0.json").write_text(json.dumps({
                "environment": env, "input_digests": {"data": str(seed)},
                "input_stats": {}, "command_walls": {"train": [2.0]}, "problems": [],
                "result": {"correct": True, "metrics": metrics}}))
        (tmp_path / f"{workload}-seed1-trace1.json").write_text(json.dumps({
            "environment": env, "command_walls": {"train": [3.0]}, "problems": [],
            "result": {"correct": True, "metrics": {"train.cli.s": {"value": 3.0}}}}))
    point = tmp_path / "BENCH_9.json"
    assert trajectory.main(["write", str(point), "--point", "9", "--what", "test"]) == 0
    doc = json.loads(point.read_text())
    standard = doc["workloads"]["standard"]
    assert standard["train_s"]["median"] == pytest.approx(10.055)
    assert standard["train_s"]["runs"] == 10
    assert standard["inputs"]["3"]["digests"] == {"data": "3"}
    assert standard["tracing_overhead"] == {"train": pytest.approx(0.5)}
    assert trajectory.main(["compare", str(point)]) == 0
    for name in [f"standard-seed{s}-trace0.json" for s in range(1, 11)]:
        d = json.loads((tmp_path / name).read_text())
        d["result"]["metrics"]["train_s"]["value"] *= 2
        (tmp_path / name).write_text(json.dumps(d))
    capsys.readouterr()
    assert trajectory.main(["compare", str(point)]) == 1
    assert "train_s" in [line.split()[0] for line in capsys.readouterr().out.splitlines()
                         if line.endswith("WORSE")]


def _write_rows(path: Path, rows: list[list]) -> None:
    with open(path, "w", newline="") as fh:
        csv.writer(fh).writerows(rows)


def test_prediction_check_rejects_corruption(tmp_path):
    header = ["user_id", "p_class0", "p_class1", "p_class2", "p_class3", "predicted_class"]
    good = [["u1", "0.1", "0.2", "0.3", "0.4", "3"], ["u2", "0.7", "0.1", "0.1", "0.1", "0"]]
    path = tmp_path / "p.csv"
    corruptions = {
        "good": [header] + good,
        "missing user": [header] + good[:1],
        "extra user": [header] + good + [["u3"] + good[0][1:]],
        "reordered": [header] + good[::-1],
        "not a distribution": [header, good[0], ["u2", "0.7", "0.1", "0.1", "0.2", "0"]],
        "wrong argmax": [header, good[0], ["u2", "0.7", "0.1", "0.1", "0.1", "1"]],
        "unparsable": [header, good[0], ["u2", "x", "0.1", "0.1", "0.1", "0"]],
        "bad header": [header[:-1] + ["class"]] + good,
    }
    for name, rows in corruptions.items():
        _write_rows(path, rows)
        problems = checks.check_predictions(path, ["u1", "u2"], 4)
        assert (problems == []) == (name == "good"), name


def test_prepared_check_rejects_unbalanced_train(tmp_path):
    (tmp_path / "prepare_meta.json").write_text(json.dumps(
        {"split_sizes": {"train": 3, "test": 1, "validation": 1}}))
    rows = [["user_id", "f000", "class"], ["a", "0", "0"], ["b", "0", "0"], ["c", "0", "1"],
            ["smote:1:0", "0", "1"]]
    _write_rows(tmp_path / "train.csv", rows)
    assert checks.check_prepared(tmp_path, 5) == []
    _write_rows(tmp_path / "train.csv", rows[:-1])
    assert checks.check_prepared(tmp_path, 5)
    assert checks.check_prepared(tmp_path, 6)  # split sizes no longer 70/20/10 %


def test_benchmark_json_names_what_run_prints():
    spec = json.loads((REPO / "BENCHMARK.json").read_text())
    assert [w["name"] for w in spec["workloads"]] == list(run.WORKLOADS)
    assert {m["name"]: m["unit"] for m in spec["end_to_end"]} == run.END_TO_END
    assert spec["per_layer"] == harness.per_layer_spec()
    assert spec["paths"] == ["perfbench"]


def test_exits_nonzero_without_sources(tmp_path):
    proc = subprocess.run(
        [sys.executable, str(BENCH_DIR / "run.py"), "--workload", "standard",
         "--seed", "1", "--seconds", "1"],
        cwd=tmp_path, capture_output=True, text=True, timeout=60,
    )
    assert proc.returncode != 0
    assert proc.stdout.strip() == ""
