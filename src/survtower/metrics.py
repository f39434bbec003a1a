"""Censoring-aware evaluation: Harrell's concordance and MAE.

Every metric takes one ``(predicted, observed, event)`` tuple of
equal-length arrays. Predictions are survival times (not risks): a pair
is concordant when the patient observed to die earlier also has the
smaller predicted time. A pair (i, j) with observed_i < observed_j is
comparable iff event_i = 1; prediction ties count one half. Counting is
done in exact integer arithmetic (half-pairs as units of 1/2), so
results match a brute-force pair enumeration exactly.
"""

from __future__ import annotations

import numpy as np

from .errors import MetricUndefinedError


def _as_arrays(records):
    pred, obs, ev = records
    pred = np.asarray(pred, dtype=np.float64)
    obs = np.asarray(obs, dtype=np.float64)
    ev = np.asarray(ev).astype(bool)
    return pred, obs, ev


def concordance_counts(records) -> tuple[int, int]:
    """(2*concordant + ties, 2*comparable) over all comparable pairs."""
    pred, obs, ev = _as_arrays(records)
    comparable = (obs[:, None] < obs[None, :]) & ev[:, None]
    concordant = pred[:, None] < pred[None, :]
    tied = pred[:, None] == pred[None, :]
    num2 = 2 * int(np.count_nonzero(comparable & concordant)) + int(
        np.count_nonzero(comparable & tied)
    )
    den2 = 2 * int(np.count_nonzero(comparable))
    return num2, den2


def concordance_index(records) -> float:
    """Harrell's C in [0,1]; raises when no pair is comparable."""
    num2, den2 = concordance_counts(records)
    if den2 == 0:
        raise MetricUndefinedError("concordance undefined: no comparable pairs")
    return num2 / den2


def mae(records) -> float:
    """Mean absolute error over uncensored records only."""
    pred, obs, ev = _as_arrays(records)
    if not ev.any():
        raise MetricUndefinedError("MAE undefined: no uncensored records")
    return float(np.abs(pred[ev] - obs[ev]).mean())
