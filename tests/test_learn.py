"""Tests for label learning from complete observations."""

import numpy as np
import pytest

from betacircuits.learn import fit_complete, sample_observations


def make_dataset(columns):
    """Build a rows x variables matrix from per-variable boolean columns."""
    return np.array(columns, dtype=bool).T


class TestFitComplete:
    def test_counts_each_column(self):
        d = make_dataset([[True, True, False], [False, False, False]])
        table, _ = fit_complete(d)
        assert (table.label_of(1).alpha_pos,
                table.label_of(1).alpha_neg) == (3.0, 2.0)
        assert (table.label_of(2).alpha_pos,
                table.label_of(2).alpha_neg) == (1.0, 4.0)

    @pytest.mark.parametrize("data", [
        np.zeros(3, dtype=bool), np.zeros((2, 2, 2), dtype=bool),
        np.ones((2, 2), dtype=int)], ids=["1-d", "3-d", "not-boolean"])
    def test_non_2d_rejected(self, data):
        with pytest.raises(ValueError, match="2-D boolean array"):
            fit_complete(data)

    def test_ragged_rows_rejected(self):
        with pytest.raises(ValueError):
            fit_complete([[True, False], [True]])

    def test_posterior_counts(self):
        # 1 positive + 17 negatives with the uniform prior -> Beta(2, 18).
        d = make_dataset([[True] + [False] * 17])
        table, cov = fit_complete(d)
        lab = table.label_of(1)
        assert lab.alpha_pos == pytest.approx(2.0)
        assert lab.alpha_neg == pytest.approx(18.0)
        assert cov == {}

    def test_prior_only(self):
        table, _ = fit_complete(np.zeros((0, 1), dtype=bool))
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
        assert d1.dtype == bool and d1.shape == (50, 2)
        assert np.array_equal(d1, d2)
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
        assert d[:, 0].mean() == pytest.approx(0.2, abs=0.02)
