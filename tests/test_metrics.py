"""Concordance and MAE against a brute-force pair-enumeration oracle."""

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from survtower.errors import MetricUndefinedError
from survtower.metrics import concordance_counts, concordance_index, mae


def oracle_counts(pred, obs, ev):
    """O(n^2) enumeration, half-pairs counted in integer units of 1/2."""
    num2 = den2 = 0
    n = len(pred)
    for i in range(n):
        for j in range(n):
            if i == j or not (obs[i] < obs[j] and ev[i]):
                continue
            den2 += 2
            if pred[i] < pred[j]:
                num2 += 2
            elif pred[i] == pred[j]:
                num2 += 1
    return num2, den2


def records(pred, obs, ev):
    return np.array(pred, dtype=float), np.array(obs, dtype=float), np.array(ev)


class TestConcordance:
    def test_perfect_ordering(self):
        recs = records([0.1, 0.2, 0.3], [2, 4, 6], [1, 1, 1])
        assert concordance_index(recs) == 1.0

    def test_reversed_ordering(self):
        recs = records([0.3, 0.2, 0.1], [2, 4, 6], [1, 1, 1])
        assert concordance_index(recs) == 0.0

    def test_censored_tied_case_matches_oracle(self):
        pred, obs, ev = [0.2, 0.2, 0.3], [2, 4, 6], [1, 0, 1]
        got = concordance_counts(records(pred, obs, ev))
        assert got == oracle_counts(pred, obs, ev)
        # pairs: (1,2) comparable tied -> 1/2; (1,3) comparable concordant;
        # (2,3) not comparable (event_2=0)
        assert concordance_index(records(pred, obs, ev)) == pytest.approx(0.75)

    def test_constant_predictions_are_half(self):
        recs = records([0.5] * 4, [1, 2, 3, 4], [1, 1, 1, 1])
        assert concordance_index(recs) == 0.5

    def test_no_comparable_pairs(self):
        with pytest.raises(MetricUndefinedError):
            concordance_index(records([0.1, 0.2], [5, 9], [0, 1]))

    def test_matches_oracle_on_random_instances(self):
        rng = np.random.default_rng(0)
        for _ in range(200):
            n = int(rng.integers(2, 51))
            obs = np.round(rng.uniform(1, 20, n), 1)  # deliberate time ties
            pred = np.round(rng.uniform(0, 1, n), 2)  # deliberate prediction ties
            ev = rng.random(n) > rng.uniform(0, 0.5)
            got = concordance_counts((pred, obs, ev))
            want = oracle_counts(list(pred), list(obs), list(ev))
            assert got == want

    @given(st.integers(0, 2**32 - 1))
    @settings(max_examples=30, deadline=None)
    def test_invariant_under_increasing_transform(self, seed):
        rng = np.random.default_rng(seed)
        n = int(rng.integers(2, 20))
        obs = rng.uniform(1, 10, n)
        pred = rng.uniform(0, 1, n)
        ev = np.ones(n, dtype=int)
        base = concordance_counts((pred, obs, ev))
        transformed = concordance_counts((3.0 * pred + 2.0, obs, ev))
        assert base == transformed


class TestMae:
    def test_perfect(self):
        assert mae(records([0.3, 0.6], [0.3, 0.6], [1, 1])) == 0.0

    def test_paper_scale_magnitude(self):
        assert mae(records([0.543], [0.5], [1])) == pytest.approx(0.043)

    def test_censored_records_excluded(self):
        base = records([0.3, 0.9], [0.4, 0.8], [1, 1])
        with_censored = records([0.3, 0.9, 0.0], [0.4, 0.8, 0.5], [1, 1, 0])
        assert mae(base) == mae(with_censored)

    def test_all_censored_rejected(self):
        with pytest.raises(MetricUndefinedError):
            mae(records([0.1], [0.5], [0]))
