"""The benchmark's input writers, perfbench/inputs.py, against today's package.

The benchmark builds its datasets through ``generate_synthetic``,
``write_dataset`` and ``dataclasses.replace`` on the generated records, so
a change to those can break the benchmark's set-up. Each writer runs here
at tiny sizes, and every directory it writes must scan, holding the users
and tweets the writer reports.
"""

import importlib.util
from pathlib import Path

import pytest

from multicred.features import scan_dataset

INPUTS = Path(__file__).resolve().parents[1] / "perfbench" / "inputs.py"


@pytest.fixture
def inputs(monkeypatch):
    spec = importlib.util.spec_from_file_location("perfbench_inputs", INPUTS)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    for name, value in {"STANDARD_USERS": 8, "STANDARD_TWEETS": 3, "STANDARD_COMMENTS": 2,
                        "BUNDLE_USERS": 8, "BUNDLE_TWEETS": 2, "BUNDLE_COMMENTS": 2,
                        "BULK_USERS": 4, "BULK_TWEETS": 3, "BULK_COMMENTS": 2,
                        "SKEW_KEEP": {0: 12, 1: 6, 2: 4, 3: 3}}.items():
        assert hasattr(module, name), name
        monkeypatch.setattr(module, name, value)
    return module


def scanned(root: Path) -> tuple[int, int]:
    scan = scan_dataset(root)
    return len(scan), int(scan.tweet_counts.sum())


def test_standard(inputs, tmp_path):
    info = inputs.write_standard(1, tmp_path)
    assert scanned(tmp_path) == (info["users"], info["tweets"]) == (8, 24)


def test_bulk(inputs, tmp_path):
    bundle, score = tmp_path / "bundle", tmp_path / "score"
    info = inputs.write_bulk(1, bundle, score)
    assert scanned(bundle) == (info["bundle_users"], info["bundle_tweets"]) == (8, 16)
    assert scanned(score) == (info["users"], info["tweets"]) == (4, 12)
    assert scan_dataset(score).scores is None


def test_skewed(inputs, tmp_path):
    data, score = tmp_path / "data", tmp_path / "score"
    info = inputs.write_skewed(1, data, score)
    assert scanned(data) == (info["users"], info["tweets"]) == (25, 125)
    assert scanned(score) == (info["score_users"], info["score_tweets"]) == (3, 15)
