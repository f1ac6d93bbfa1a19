import csv
import hashlib
import json
from pathlib import Path

import numpy as np
import pytest

from multicred import dataset as dataset_mod
from multicred.dataset import (
    REFERENCE_INSTANT,
    DatasetLoadError,
    SyntheticConfig,
    generate_synthetic,
    read_tweet_texts,
    write_dataset,
)
from multicred.domain import ClassificationSystem, DomainError, bin_score
from multicred.embedding import default_lexicon
from multicred.features import FEATURE_NAMES, scan_dataset
from multicred.preprocess import preprocess

from conftest import comment_emotions
from test_features import profile_scalars, tweet_scalars


PROFILE = {
    "name": "Daily News", "screen_name": "dailynews",
    "location": "NYC", "description": "All the news", "url": "https://example.org",
    "protected": False, "followers_count": 1200, "friends_count": 300,
    "listed_count": 10, "created_at": "2014-02-03T04:05:06Z",
    "favourites_count": 42, "geo_enabled": True, "verified": True,
    "statuses_count": 9000, "profile_use_background_image": True,
    "profile_text_color": "333333",  # extra API field: accepted and ignored
}

TWEET = {
    "created_at": "2022-11-30T12:00:00Z", "text": "breaking update",
    "truncated": False, "retweet_count": 5, "favorite_count": 9,
    "favorited": False, "retweeted": False, "is_quote_status": False,
    "entities": {"hashtags": 2, "user_mentions": 1, "urls": 1, "symbols": 0},
}


def write_fixture(root: Path, user_ids=("u1", "u2", "u3"), with_labels=True):
    (root / "profiles").mkdir(parents=True)
    (root / "tweets").mkdir()
    (root / "comments").mkdir()
    for uid in user_ids:
        (root / "profiles" / f"{uid}.json").write_text(json.dumps(PROFILE), "utf-8")
        (root / "tweets" / f"{uid}.json").write_text(json.dumps([TWEET]), "utf-8")
        (root / "comments" / f"{uid}.json").write_text(
            json.dumps([{"text": "nice story"}]), "utf-8"
        )
    if with_labels:
        lines = ["user_id,score"] + [f"{uid},62.5" for uid in user_ids]
        (root / "labels.csv").write_text("\n".join(lines) + "\n", "utf-8")


def read_all(root: Path):
    """Every user of ``root``, read through scan_dataset."""
    return scan_dataset(root)


def column(name: str) -> int:
    return FEATURE_NAMES.index(name)


def sentiment(*texts: str) -> np.ndarray:
    """The sentiment block of a user with these comments."""
    return np.mean([comment_emotions(preprocess(t)) for t in texts], axis=0)


def tree_digest(root: Path) -> str:
    h = hashlib.sha256()
    for p in sorted(root.rglob("*")):
        if p.is_file():
            h.update(str(p.relative_to(root)).encode())
            h.update(p.read_bytes())
    return h.hexdigest()


class TestLoad:
    def test_three_user_fixture(self, tmp_path):
        write_fixture(tmp_path)
        scan = read_all(tmp_path)
        assert len(scan) == 3
        assert scan.manifest.labels_present
        assert scan.scores.tolist() == [62.5] * 3
        assert scan.x[0, column("followers_count")] == 1200
        assert scan.x[0, column("tweet_hashtag_count")] == 2
        assert scan.x[0, -6:].tobytes() == sentiment("nice story").tobytes()

    def test_absent_comments_file_means_empty(self, tmp_path):
        write_fixture(tmp_path, user_ids=("u1",))
        (tmp_path / "comments" / "u1.json").unlink()
        scan = read_all(tmp_path)
        assert not scan.x[0, -6:].any()

    def test_truncated_json_names_file_and_offset(self, tmp_path):
        write_fixture(tmp_path, user_ids=("u1", "u2"))
        (tmp_path / "tweets" / "u2.json").write_text('[{"created_at": "2022-', "utf-8")
        with pytest.raises(DatasetLoadError) as err:
            read_all(tmp_path)
        message = str(err.value)
        assert "u2.json" in message and "byte offset" in message

    def test_label_without_profile_named(self, tmp_path):
        write_fixture(tmp_path, user_ids=("u1",))
        (tmp_path / "labels.csv").write_text("user_id,score\nu1,50\nghost,10\n", "utf-8")
        with pytest.raises(DatasetLoadError, match="ghost"):
            read_all(tmp_path)

    def test_user_missing_from_labels_named(self, tmp_path):
        write_fixture(tmp_path, user_ids=("u1", "u2"))
        (tmp_path / "labels.csv").write_text("user_id,score\nu1,50\n", "utf-8")
        with pytest.raises(DatasetLoadError, match="u2"):
            read_all(tmp_path)

    def test_duplicate_label_row_named(self, tmp_path):
        write_fixture(tmp_path, user_ids=("u1", "u2"))
        labels = tmp_path / "labels.csv"
        labels.write_text("user_id,score\nu1,10\nu2,50\nu1,90\n", "utf-8")
        with pytest.raises(DatasetLoadError) as err:
            read_all(tmp_path)
        assert err.value.failures == [
            (str(labels), f"labels file {labels} lists user 'u1' twice, again on line 4")]

    def test_batch_reports_every_failure(self, tmp_path):
        write_fixture(tmp_path, user_ids=("u1", "u2", "u3"))
        (tmp_path / "profiles" / "u1.json").write_text("{broken", "utf-8")
        (tmp_path / "tweets" / "u3.json").write_text("[broken", "utf-8")
        with pytest.raises(DatasetLoadError) as err:
            read_all(tmp_path)
        assert len(err.value.failures) == 2

    def test_invalid_records_all_named(self, tmp_path):
        write_fixture(tmp_path, user_ids=("u1", "u2", "u3", "u4", "u5", "u6", "u7", "u8"))
        (tmp_path / "tweets" / "u1.json").write_text(
            json.dumps([TWEET, dict(TWEET, retweet_count=-4)]), "utf-8")
        (tmp_path / "profiles" / "u4.json").write_text(
            json.dumps(dict(PROFILE, created_at=["2014"])), "utf-8")
        (tmp_path / "tweets" / "u5.json").write_text(
            json.dumps([dict(TWEET, created_at="0001-01-01T00:00:00+01:00")]), "utf-8")
        (tmp_path / "tweets" / "u6.json").write_text(
            json.dumps([TWEET, TWEET, dict(TWEET, entities=None)]), "utf-8")
        (tmp_path / "tweets" / "u7.json").write_text(
            json.dumps([TWEET]).replace('"favorite_count": 9', '"favorite_count": 1e400'),
            "utf-8")
        deep = tmp_path / "comments" / "u8.json"
        deep.write_text("[" * 100_000 + "]" * 100_000, "utf-8")
        (tmp_path / "labels.csv").write_text(
            "user_id,score\nu1,62.5\nu2,62.5\nu3,130\n"
            "u4,62.5\nu5,62.5\nu6,62.5\nu7,62.5\nu8,62.5\n", "utf-8")
        with pytest.raises(DatasetLoadError) as err:
            read_all(tmp_path)
        tweets = lambda uid: f"tweets file {tmp_path / 'tweets' / uid}.json"
        assert err.value.failures == [
            ("u1", f"{tweets('u1')} field [1].retweet_count is -4, "
                   f"expected an integer in [0, 2**63 - 1]"),
            ("u3", f"labels file {tmp_path / 'labels.csv'} gives user 'u3' the score 130.0, "
                   f"expected a number in [0, 100]"),
            ("u4", f"profile file {tmp_path / 'profiles' / 'u4.json'} field created_at "
                   f"is [\"2014\"], expected a string"),
            ("u5", f"{tweets('u5')} field [0].created_at is \"0001-01-01T00:00:00+01:00\", "
                   f"expected an ISO-8601 time within the datetime range in UTC"),
            ("u6", f"{tweets('u6')} field [2].entities is null, expected a JSON object"),
            ("u7", f"{tweets('u7')} field [0].favorite_count is Infinity, expected an integer "
                   f"in [0, 2**63 - 1]"),
            ("u8", f"comments file {deep} nests JSON arrays or objects too deeply"),
        ]

    def test_oversized_count_named(self, tmp_path):
        write_fixture(tmp_path, user_ids=("u1", "u2"))
        profile = dict(PROFILE, followers_count=10**400)
        (tmp_path / "profiles" / "u2.json").write_text(json.dumps(profile), "utf-8")
        with pytest.raises(DatasetLoadError) as err:
            read_all(tmp_path)
        assert err.value.failures == [
            ("u2", f"profile file {tmp_path / 'profiles' / 'u2.json'} field followers_count "
                   f"is 1{'0' * 59}... (401 characters of JSON), "
                   f"expected an integer in [0, 2**63 - 1]"),
        ]

    def test_values_at_the_range_bounds_load(self, tmp_path):
        write_fixture(tmp_path, user_ids=("u1", "u2"))
        top = 2**63 - 1
        (tmp_path / "profiles" / "u1.json").write_text(
            json.dumps(dict(PROFILE, followers_count=top, friends_count=0)), "utf-8")
        tweet = dict(TWEET, text="x" * 4000, retweet_count=top, favorite_count=0,
                     entities={"hashtags": top, "user_mentions": 0, "polls": top})
        (tmp_path / "tweets" / "u1.json").write_text(json.dumps([tweet]), "utf-8")
        (tmp_path / "labels.csv").write_text("user_id,score\nu1,0\nu2,100\n", "utf-8")
        scan = read_all(tmp_path)
        u1 = scan.x[0]
        assert u1[column("followers_count")] == float(top)
        assert scan.scores.tolist() == [0.0, 100.0]
        assert u1[column("tweet_retweet_count")] == float(top)
        assert u1[column("tweet_hashtag_count")] == float(top)
        assert u1[column("tweet_has_poll")] == 1.0
        [text] = read_tweet_texts(tmp_path, "u1", 1)
        assert len(text) == 4000

    def test_range_fault_past_the_cap_named(self, tmp_path):
        write_fixture(tmp_path, user_ids=("u1",))
        path = tmp_path / "tweets" / "u1.json"
        path.write_text(json.dumps([TWEET] * 3250 + [dict(TWEET, retweet_count=-1)]), "utf-8")
        with pytest.raises(DatasetLoadError) as err:
            read_all(tmp_path)
        assert err.value.failures == [
            ("u1", f"tweets file {path} field [3250].retweet_count is -1, "
                   f"expected an integer in [0, 2**63 - 1]")]

    def test_only_the_first_fault_of_a_user_named(self, tmp_path):
        write_fixture(tmp_path, user_ids=("u1",))
        profile = tmp_path / "profiles" / "u1.json"
        profile.write_text(json.dumps(dict(PROFILE, listed_count=-1)), "utf-8")
        (tmp_path / "tweets" / "u1.json").write_text(
            json.dumps([dict(TWEET, favorite_count=-1)]), "utf-8")
        (tmp_path / "labels.csv").write_text("user_id,score\nu1,101\n", "utf-8")
        with pytest.raises(DatasetLoadError) as err:
            read_all(tmp_path)
        assert err.value.failures == [
            ("u1", f"profile file {profile} field listed_count is -1, "
                   f"expected an integer in [0, 2**63 - 1]")]

    @pytest.mark.parametrize("sub, content, named", [
        ("profiles", "[]", "u1.json does not hold a JSON object"),
        ("tweets", '{"text": "x"}', "u1.json does not hold a JSON array of objects"),
        ("tweets", '["x"]', "u1.json does not hold a JSON array of objects"),
        ("comments", '[{"text": "x"}, 3]', "u1.json does not hold a JSON array of objects"),
        ("profiles", '{"created_at": 5}', "u1.json field created_at is 5, expected a string"),
        ("profiles", '{"created_at": "0001-01-01T00:00:00+01:00"}',
         "u1.json field created_at is \"0001-01-01T00:00:00+01:00\", expected an ISO-8601 "
         "time within the datetime range in UTC"),
        ("profiles", '{"created_at": "2014-02-03T04:05:06Z", "followers_count": 1e400}',
         "u1.json field followers_count is Infinity, expected an integer"),
        ("tweets", '[{"created_at": "2022-11-30T12:00:00Z", "entities": []}]',
         "u1.json field [0].entities is [], expected a JSON object"),
        ("tweets", '[{"created_at": "2022-11-30T12:00:00Z", "entities": null}]',
         "u1.json field [0].entities is null, expected a JSON object"),
        ("tweets", '[{"created_at": "2022-11-30T12:00:00Z", "entities": {"urls": 1e400}}]',
         "u1.json field [0].entities.urls is Infinity, expected an integer or a JSON array"),
    ])
    def test_wrong_json_shape_named(self, tmp_path, sub, content, named):
        write_fixture(tmp_path, user_ids=("u1", "u2"))
        (tmp_path / sub / "u1.json").write_text(content, "utf-8")
        with pytest.raises(DatasetLoadError) as err:
            read_all(tmp_path)
        [(user_id, reason)] = err.value.failures
        assert user_id == "u1" and named in reason

    @pytest.mark.parametrize("sub, content, named", [
        ("profiles", '{"created_at": "2014-02-03T04:05:06Z", "statuses_count": -1}',
         "field statuses_count is -1, expected an integer in [0, 2**63 - 1]"),
        ("tweets", '[{"created_at": "2022-11-30T12:00:00Z", "entities": {"polls": -1}}]',
         "field [0].entities.polls is -1, expected an integer or a JSON array "
         "in [0, 2**63 - 1]"),
        ("tweets", '[{"created_at": "2022-11-30T12:00:00Z", "favorite_count": %d}]' % 2**63,
         "field [0].favorite_count is 9223372036854775808, expected an integer "
         "in [0, 2**63 - 1]"),
        ("tweets", '[{"created_at": "2022-11-30T12:00:00Z", "text": "%s"}]' % ("x" * 4001),
         'field [0].text is "' + "x" * 59 + '... (4003 characters of JSON), '
         "expected a string of at most 4000 characters"),
        ("comments", r'[{"text": "a\ud800"}]',
         r"holds \ud800, an unpaired UTF-16 surrogate escape"),
        ("profiles", '{"created_at": "2014-02-03T04:05:06Z", "verified": "yes"}',
         'field verified is "yes", expected true or false'),
        ("profiles", '{"created_at": "2014-02-03T04:05:06Z", "location": 3}',
         "field location is 3, expected a string or null"),
    ], ids=["negative-count", "negative-polls", "count-2**63", "text-4001", "lone-surrogate",
            "flag-string", "location-number"])
    def test_value_out_of_range_named(self, tmp_path, sub, content, named):
        write_fixture(tmp_path, user_ids=("u1", "u2"))
        path = tmp_path / sub / "u1.json"
        path.write_text(content, "utf-8")
        with pytest.raises(DatasetLoadError) as err:
            read_all(tmp_path)
        what = "profile" if sub == "profiles" else sub
        assert err.value.failures == [("u1", f"{what} file {path} {named}")]

    @pytest.mark.parametrize("sub, record, named", [
        ("tweets", dict(TWEET, created_at=5, entities={"urls": -1}), "[0].entities.urls is -1"),
        ("tweets", dict(TWEET, created_at=5, truncated=1), "[0].created_at is 5"),
        ("tweets", dict(TWEET, text=5, favorited=1), "[0].text is 5"),
        ("tweets", dict(TWEET, has_poll=1, retweet_count=-1), "[0].retweet_count is -1"),
        ("profiles", dict(PROFILE, name=5, created_at=5), "created_at is 5"),
        ("profiles", dict(PROFILE, verified=1, location=5), "location is 5"),
    ], ids=["entities-first", "then-created_at", "then-text", "has_poll-last",
            "profile-created_at-first", "profile-table-order"])
    def test_first_fault_of_a_record_named_in_check_order(self, tmp_path, sub, record, named):
        write_fixture(tmp_path, user_ids=("u1",))
        path = tmp_path / sub / "u1.json"
        path.write_text(json.dumps(record if sub == "profiles" else [record]), "utf-8")
        with pytest.raises(DatasetLoadError) as err:
            read_all(tmp_path)
        [(_, reason)] = err.value.failures
        what = "profile" if sub == "profiles" else sub
        assert reason.startswith(f"{what} file {path} field {named}"), reason

    @pytest.mark.parametrize("sub, fields", [
        ("profiles", [(key,) for key in PROFILE]),
        ("tweets", [(key,) for key in TWEET] + [("has_poll",)] + [
            ("entities", key) for key in ("hashtags", "user_mentions", "urls", "symbols", "polls")
        ]),
        ("comments", [("text",)]),
    ])
    def test_every_json_type_in_every_field_loads_or_is_named(self, tmp_path, sub, fields):
        write_fixture(tmp_path, user_ids=("u1",))
        base = {"profiles": PROFILE, "tweets": TWEET, "comments": {"text": "nice story"}}[sub]
        for path in fields:
            for raw in ("null", "true", "3", "1e400", '"text"', "[1, 2]", '{"a": 1}'):
                doc = json.loads(json.dumps(base))
                leaf = doc
                for key in path[:-1]:
                    leaf = leaf[key]
                leaf[path[-1]] = "@"
                text = json.dumps(doc).replace('"@"', raw)
                (tmp_path / sub / "u1.json").write_text(
                    text if sub == "profiles" else f"[{text}]", "utf-8")
                try:
                    read_all(tmp_path)
                except DatasetLoadError:
                    pass
                except Exception as exc:
                    pytest.fail(f"{sub} {'.'.join(path)} = {raw}: {exc!r}")

    def test_unlabeled_dataset_loads(self, tmp_path):
        write_fixture(tmp_path, with_labels=False)
        scan = read_all(tmp_path)
        assert not scan.manifest.labels_present
        assert scan.scores is None and len(scan) == 3

    def test_tweet_cap_enforced_on_ingest(self, tmp_path):
        write_fixture(tmp_path, user_ids=("u1",))
        (tmp_path / "tweets" / "u1.json").write_text(json.dumps([TWEET] * 3300), "utf-8")
        scan = read_all(tmp_path)
        assert scan.tweet_counts.tolist() == [3250]

    def test_comment_cap_enforced_on_ingest(self, tmp_path):
        write_fixture(tmp_path, user_ids=("u1",))
        angry = " ".join(sorted(default_lexicon()["anger"])[:3])
        (tmp_path / "comments" / "u1.json").write_text(
            json.dumps([{"text": "nice story"}] * 800 + [{"text": angry}]), "utf-8")
        scan = read_all(tmp_path)
        assert scan.x[0, -6:].tobytes() == sentiment(*["nice story"] * 800).tobytes()
        assert scan.x[0, -6:].tobytes() != sentiment(*["nice story"] * 800, angry).tobytes()

    def test_entity_lists_tolerated(self, tmp_path):
        write_fixture(tmp_path, user_ids=("u1",))
        tweet = dict(TWEET, entities={"hashtags": ["a", "b", "c"], "urls": []})
        (tmp_path / "tweets" / "u1.json").write_text(json.dumps([tweet]), "utf-8")
        scan = read_all(tmp_path)
        assert scan.x[0, column("tweet_hashtag_count")] == 3
        assert scan.x[0, column("tweet_url_count")] == 0


class TestWrite:
    def test_roundtrip_identity(self, tmp_path):
        cfg = SyntheticConfig(num_users=12, system=ClassificationSystem(4),
                              tweets_per_user=4, comments_per_user=3, seed=1)
        records = sorted(generate_synthetic(cfg), key=lambda r: r.user_id)
        root = tmp_path / "ds"
        write_dataset(records, root)
        scan = read_all(root)
        assert scan.manifest.user_ids == tuple(r.user_id for r in records)
        assert scan.scores.tolist() == [r.score for r in records]
        for row, r in zip(scan.x, records):
            assert row[:18].tobytes() == profile_scalars(r.profile).tobytes()
            assert row[18:35].tobytes() == np.mean(
                [tweet_scalars(t) for t in r.tweets], axis=0).tobytes()
            assert row[45:].tobytes() == sentiment(*r.comments).tobytes()
            assert read_tweet_texts(root, r.user_id, len(r.tweets)) == [t.text for t in r.tweets]
            profile = json.loads((root / "profiles" / f"{r.user_id}.json").read_text("utf-8"))
            assert (profile["name"], profile["screen_name"], profile["location"]) == (
                r.profile.name, r.profile.screen_name, r.profile.location)

    def test_empty_record_list(self, tmp_path):
        manifest = write_dataset([], tmp_path / "empty")
        assert manifest.user_ids == ()
        assert not manifest.labels_present
        assert len(read_all(tmp_path / "empty")) == 0

    def test_unwritable_path_raises_os_error(self, tmp_path):
        # A file where the layout needs a directory.
        (tmp_path / "blocked").write_text("file", "utf-8")
        cfg = SyntheticConfig(num_users=2, system=ClassificationSystem(4),
                              tweets_per_user=1, comments_per_user=1, seed=0)
        with pytest.raises(OSError):
            write_dataset(generate_synthetic(cfg), tmp_path / "blocked" / "nested")

    def test_failed_write_keeps_previous_file_and_leaves_no_temporary(
            self, tmp_path, monkeypatch):
        root = tmp_path / "ds"
        config = lambda seed: SyntheticConfig(num_users=6, system=ClassificationSystem(4),
                                              tweets_per_user=2, comments_per_user=1,
                                              seed=seed)
        write_dataset(generate_synthetic(config(1)), root)
        previous = (root / "labels.csv").read_bytes()
        real_writer = csv.writer

        class FailsAfterTwoRows:
            def __init__(self, fh, **kwargs):
                self._writer = real_writer(fh, **kwargs)
                self._rows = 0

            def writerow(self, row):
                if self._rows == 2:
                    raise OSError("disk full")
                self._rows += 1
                self._writer.writerow(row)

        monkeypatch.setattr(dataset_mod.csv, "writer", FailsAfterTwoRows)
        with pytest.raises(OSError, match="disk full"):
            write_dataset(generate_synthetic(config(2)), root)
        assert (root / "labels.csv").read_bytes() == previous
        assert [p for p in root.rglob("*") if p.name.endswith(".tmp")] == []

    def test_mixed_labels_rejected(self, tmp_path):
        cfg = SyntheticConfig(num_users=2, system=ClassificationSystem(4),
                              tweets_per_user=1, comments_per_user=1, seed=0)
        a, b = generate_synthetic(cfg)
        from dataclasses import replace
        with pytest.raises(DomainError, match="all labeled or all unlabeled"):
            write_dataset([a, replace(b, score=None)], tmp_path / "mixed")


class TestGenerator:
    def test_determinism_byte_identical(self, tmp_path):
        cfg = SyntheticConfig(num_users=30, system=ClassificationSystem(4),
                              tweets_per_user=5, comments_per_user=4, seed=7)
        write_dataset(generate_synthetic(cfg), tmp_path / "a")
        write_dataset(generate_synthetic(cfg), tmp_path / "b")
        assert tree_digest(tmp_path / "a") == tree_digest(tmp_path / "b")

    def test_scores_respect_planted_bins(self):
        for c in (4, 6, 8, 10):
            cfg = SyntheticConfig(num_users=4 * c, system=ClassificationSystem(c),
                                  tweets_per_user=1, comments_per_user=1, seed=3)
            records = generate_synthetic(cfg)
            for i, record in enumerate(records):
                assert 0.0 <= record.score <= 100.0
                assert bin_score(record.score, cfg.system) == i % c

    def test_caps_validated(self):
        with pytest.raises(DomainError):
            SyntheticConfig(num_users=5, system=ClassificationSystem(4),
                            tweets_per_user=4000)
        with pytest.raises(DomainError):
            SyntheticConfig(num_users=5, system=ClassificationSystem(4),
                            comments_per_user=900)
        with pytest.raises(DomainError):
            SyntheticConfig(num_users=5, system=ClassificationSystem(4),
                            class_separation=1.5)

    def test_full_separation_plants_the_documented_signal(self):
        cfg = SyntheticConfig(num_users=200, system=ClassificationSystem(4),
                              tweets_per_user=6, comments_per_user=6,
                              class_separation=1.0, seed=11)
        records = generate_synthetic(cfg)
        anger = default_lexicon()["anger"]
        by_class = {c: [r for i, r in enumerate(records) if i % 4 == c] for c in (0, 3)}

        def mean_hashtags(rs):
            return np.mean([t.hashtags for r in rs for t in r.tweets])

        def mean_age_days(rs):
            return np.mean([
                (REFERENCE_INSTANT - r.profile.created_at).total_seconds() / 86400
                for r in rs
            ])

        def anger_fraction(rs):
            words = [w for r in rs for c in r.comments for w in c.split()]
            return np.mean([w in anger for w in words])

        assert mean_hashtags(by_class[0]) > 2.0 * mean_hashtags(by_class[3])
        assert mean_age_days(by_class[0]) < mean_age_days(by_class[3])
        assert anger_fraction(by_class[0]) > 2.0 * anger_fraction(by_class[3])

    def test_zero_separation_erases_feature_signal(self):
        # Derived oracle: with no separation, class-conditional means of
        # every planted feature stay within 0.1 pooled standard
        # deviations of each other, computed directly from the records.
        cfg = SyntheticConfig(num_users=12800, system=ClassificationSystem(4),
                              tweets_per_user=2, comments_per_user=2,
                              class_separation=0.0, seed=0)
        records = generate_synthetic(cfg)
        anger = default_lexicon()["anger"]

        def user_row(r):
            age = (REFERENCE_INSTANT - r.profile.created_at).total_seconds() / 86400
            words = [w for c in r.comments for w in c.split()]
            return [
                r.profile.followers_count, r.profile.friends_count,
                r.profile.statuses_count, age,
                np.mean([t.hashtags for t in r.tweets]),
                np.mean([t.urls for t in r.tweets]),
                np.mean([w in anger for w in words]),
            ]

        feats = np.array([user_row(r) for r in records])
        classes = np.arange(len(records)) % 4
        for j in range(feats.shape[1]):
            col = feats[:, j]
            means = [col[classes == c].mean() for c in range(4)]
            pooled_sd = np.sqrt(np.mean([col[classes == c].var() for c in range(4)]))
            for a in range(4):
                for b in range(a + 1, 4):
                    assert abs(means[a] - means[b]) < 0.1 * pooled_sd
