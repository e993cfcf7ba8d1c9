"""Tests for label learning from complete observations."""

import numpy as np
import pytest

from betacircuits.learn import Dataset, fit_complete, sample_observations


def make_dataset(columns):
    """Build a dataset from per-variable boolean columns."""
    rows = tuple(zip(*columns))
    return Dataset(len(columns), tuple(tuple(r) for r in rows))


class TestDataset:
    def test_counts(self):
        d = make_dataset([[True, True, False], [False, False, False]])
        assert d.counts(0) == (2, 1)
        assert d.counts(1) == (0, 3)
        assert len(d) == 3

    def test_ragged_rows_rejected(self):
        with pytest.raises(ValueError, match="row 1"):
            Dataset(2, ((True, False), (True,)))


class TestFitComplete:
    def test_posterior_counts(self):
        # 1 positive + 17 negatives with the uniform prior -> Beta(2, 18).
        d = make_dataset([[True] + [False] * 17])
        table, cov = fit_complete(d)
        lab = table.label_of(1)
        assert lab.alpha_pos == pytest.approx(2.0)
        assert lab.alpha_neg == pytest.approx(18.0)
        assert cov.cross_entries == {}

    def test_prior_only(self):
        table, _ = fit_complete(Dataset(1, ()))
        lab = table.label_of(1)
        assert lab.alpha_pos == pytest.approx(1.0)
        assert lab.alpha_neg == pytest.approx(1.0)

    def test_all_positive(self):
        d = make_dataset([[True] * 5])
        table, _ = fit_complete(d)
        assert table.label_of(1).alpha_pos == pytest.approx(6.0)
        assert table.label_of(1).alpha_neg == pytest.approx(1.0)

    def test_variable_mapping(self):
        d = make_dataset([[True], [False]])
        table, _ = fit_complete(d, variables=[7, 9])
        assert 7 in table and 9 in table and 1 not in table
        with pytest.raises(ValueError, match="one variable id"):
            fit_complete(d, variables=[7])

    def test_tied_groups_pool_counts(self):
        d = make_dataset([[True, True], [False, True]])
        table, _ = fit_complete(d, tied_groups=[(1, 2)])
        # Pooled: 3 positives, 1 negative + Beta(1,1) prior.
        for v in (1, 2):
            assert table.label_of(v).alpha_pos == pytest.approx(4.0)
            assert table.label_of(v).alpha_neg == pytest.approx(2.0)


class TestSampling:
    def test_deterministic_for_seed(self):
        d1, v1 = sample_observations({3: 0.4, 5: 0.8}, 50, rng=123)
        d2, v2 = sample_observations({3: 0.4, 5: 0.8}, 50, rng=123)
        assert d1 == d2
        assert v1 == v2 == [3, 5]

    def test_extreme_probabilities_rejected(self):
        with pytest.raises(ValueError, match="\\(0,1\\)"):
            sample_observations({1: 0.0, 2: 0.5}, 10)

    def test_posterior_converges_to_truth(self):
        truth = {1: 0.3, 2: 0.85}
        d, variables = sample_observations(truth, 100000, rng=7)
        table, _ = fit_complete(d, variables)
        for v, p in truth.items():
            assert table.label_of(v).mean == pytest.approx(p, abs=0.01)

    def test_empirical_rate_matches(self):
        d, _ = sample_observations({1: 0.2}, 20000, rng=11)
        r, s = d.counts(0)
        assert r / (r + s) == pytest.approx(0.2, abs=0.02)
