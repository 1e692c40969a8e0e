"""Summary statistics and the EER cross-check used by the benchmark."""

from __future__ import annotations

import math
import statistics

import numpy as np

# percentiles tried for the tail figure, highest first
_TAIL_PERCENTILES = (99.9, 99.0, 95.0, 90.0, 75.0, 50.0)


def tail_percentile(samples):
    """Highest percentile that still has ten samples above it.

    Returns (percentile, value, sample_count), or None when there are
    too few samples for even the median to qualify. Values use the
    nearest-rank definition, so the reported value is one of the samples.
    """
    values = sorted(samples)
    n = len(values)
    for p in _TAIL_PERCENTILES:
        rank = math.ceil(n * p / 100.0)
        if rank >= 1 and n - rank >= 10:
            return p, values[rank - 1], n
    return None


def relative_spread(values) -> float:
    """Interquartile distance over the median, as the acceptance check takes it."""
    q1, q2, q3 = statistics.quantiles(values, n=4)
    return (q3 - q1) / q2


def sweep_eer(scores, labels) -> float:
    """Equal error rate (percent) from a sweep over every distinct score.

    Label 1 is the positive class. At threshold t, FAR is the share of
    label-0 scores >= t and FRR the share of label-1 scores < t; the
    sweep also takes one threshold above every score. The FAR/FRR
    crossing is interpolated linearly between adjacent thresholds.
    Counts come from one joint sort with running sums rather than a
    per-class binary search, so this is an independent derivation.
    """
    scores = np.asarray(scores, dtype=np.float64)
    labels = np.asarray(labels)
    order = np.argsort(scores, kind="stable")
    s, y = scores[order], labels[order] == 1
    n_pos = int(y.sum())
    n_neg = y.size - n_pos
    if n_pos == 0 or n_neg == 0:
        raise ValueError("EER needs both classes")
    thresholds, first = np.unique(s, return_index=True)
    # frames strictly below each threshold, by class
    pos_below = np.concatenate(([0], np.cumsum(y)))[first]
    neg_below = first - pos_below
    far = np.append((n_neg - neg_below) / n_neg, 0.0)
    frr = np.append(pos_below / n_pos, 1.0)
    diff = far - frr
    k = int(np.flatnonzero(diff <= 0.0)[0])
    if diff[k] == 0.0:
        return 100.0 * far[k]
    frac = diff[k - 1] / (diff[k - 1] - diff[k])
    return 100.0 * (far[k - 1] + frac * (far[k] - far[k - 1]))
