from datetime import datetime, timezone

import numpy as np
import pytest

from multicred.domain import (
    CRITERIA,
    ClassificationSystem,
    CriteriaFlags,
    DomainError,
    bin_score,
    format_timestamp,
    newsguard_score,
    parse_timestamp,
)


class TestBinScore:
    def test_lower_boundary(self):
        assert bin_score(0, ClassificationSystem(4)) == 0

    def test_upper_boundary_folds_into_top_bin(self):
        assert bin_score(100, ClassificationSystem(4)) == 3

    def test_equal_width_rule(self):
        assert bin_score(62.5, ClassificationSystem(10)) == 6

    def test_out_of_range_names_value(self):
        with pytest.raises(DomainError, match="150"):
            bin_score(150, ClassificationSystem(4))
        with pytest.raises(DomainError):
            bin_score(-0.5, ClassificationSystem(4))

    def test_in_range_and_monotone(self):
        rng = np.random.default_rng(0)
        for c in (4, 6, 8, 10):
            system = ClassificationSystem(c)
            scores = np.sort(rng.uniform(0, 100, size=500))
            bins = [bin_score(s, system) for s in scores]
            assert all(0 <= b < c for b in bins)
            assert all(b2 >= b1 for b1, b2 in zip(bins, bins[1:]))

    def test_class_count_membership(self):
        with pytest.raises(DomainError):
            ClassificationSystem(5)


class TestNewsguardScore:
    def test_all_true_sums_to_100(self):
        assert newsguard_score(CriteriaFlags((True,) * 9)) == 100.0

    def test_all_false(self):
        assert newsguard_score(CriteriaFlags((False,) * 9)) == 0.0

    def test_top_criterion_alone(self):
        flags = CriteriaFlags((True,) + (False,) * 8)
        assert newsguard_score(flags) == 22.0

    def test_additive_over_disjoint_flag_sets(self):
        rng = np.random.default_rng(1)
        for _ in range(50):
            mask = rng.random(9) < 0.5
            a = CriteriaFlags(tuple(bool(m) for m in mask))
            b = CriteriaFlags(tuple(bool(~m) for m in mask))
            union = CriteriaFlags((True,) * 9)
            assert newsguard_score(a) + newsguard_score(b) == pytest.approx(
                newsguard_score(union)
            )

    def test_needs_nine_flags(self):
        with pytest.raises(DomainError):
            CriteriaFlags((True,) * 8)

    def test_weights_match_the_scoring_rubric(self):
        assert [w for _, w in CRITERIA] == [22, 18, 12.5, 12.5, 10, 7.5, 7.5, 5, 5]


class TestTimestamps:
    def test_roundtrip(self):
        dt = datetime(2019, 3, 4, 5, 6, 7, tzinfo=timezone.utc)
        assert parse_timestamp(format_timestamp(dt)) == dt

    def test_accepts_legacy_twitter_format(self):
        dt = parse_timestamp("Mon Nov 29 21:18:15 +0000 2010")
        assert dt.year == 2010 and dt.tzinfo is not None

    def test_unparseable_raises(self):
        with pytest.raises(DomainError, match="unparseable"):
            parse_timestamp("not a date")
