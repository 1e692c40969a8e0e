import json

import numpy as np
import pytest

from tdl import metrics
from tdl.data import FrameLabels, REAL1_FAKE0
from tdl.errors import MetricError, ShapeError, ValidationError

from oracles import confusion_reference, eer_reference


def _pool(scores, labels, n_utts=1):
    return metrics.EvalPool(np.asarray(scores, dtype=np.float64),
                            np.asarray(labels, dtype=np.int8), n_utts)


def _random_pool(rng, n):
    labels = np.zeros(n, dtype=np.int8)
    labels[: max(1, n // 2)] = 1
    rng.shuffle(labels)
    # real frames biased high so pools are usually non-degenerate
    scores = np.where(labels == 1,
                      rng.beta(4, 2, size=n), rng.beta(2, 4, size=n))
    return _pool(scores, labels)


# ---------------------------------------------------------------------------
# EER
# ---------------------------------------------------------------------------


def test_eer_perfect_separation_is_zero():
    pool = _pool([0.9, 0.8, 0.95, 0.2, 0.1, 0.3], [1, 1, 1, 0, 0, 0])
    eer_pct, threshold = metrics.eer(pool)
    assert eer_pct == 0.0
    assert 0.3 <= threshold <= 0.8


def test_eer_chance_level_for_coin_labels():
    rng = np.random.default_rng(0)
    scores = rng.random(4000)
    labels = (rng.random(4000) < 0.5).astype(np.int8)
    eer_pct, _ = metrics.eer(_pool(scores, labels))
    assert 45.0 < eer_pct < 55.0


def test_eer_matches_brute_force_sweep():
    rng = np.random.default_rng(1)
    for i in range(50):
        n = int(rng.integers(4, 51))
        pool = _random_pool(rng, n)
        got, got_thr = metrics.eer(pool)
        want, want_thr = eer_reference(pool.scores, pool.labels)
        assert abs(got - want) < 1e-9, f"case {i}"
        assert abs(got_thr - want_thr) < 1e-9, f"threshold case {i}"


def test_eer_invariant_under_monotone_transform():
    rng = np.random.default_rng(2)
    pool = _random_pool(rng, 80)
    base, _ = metrics.eer(pool)
    warped = _pool(np.exp(3.0 * pool.scores), pool.labels)
    assert abs(metrics.eer(warped)[0] - base) < 1e-12


def test_eer_symmetric_under_label_flip_and_negation():
    rng = np.random.default_rng(3)
    pool = _random_pool(rng, 101)
    flipped = _pool(-pool.scores, 1 - pool.labels)
    assert abs(metrics.eer(flipped)[0] - metrics.eer(pool)[0]) < 1e-9


def test_eer_single_class_rejected():
    with pytest.raises(MetricError):
        metrics.eer(_pool([0.1, 0.9], [1, 1]))


def test_eer_with_tied_scores():
    pool = _pool([0.5, 0.5, 0.5, 0.5], [1, 0, 1, 0])
    eer_pct, _ = metrics.eer(pool)
    want, _ = eer_reference(pool.scores, pool.labels)
    assert abs(eer_pct - want) < 1e-9


# ---------------------------------------------------------------------------
# precision / recall / F1
# ---------------------------------------------------------------------------


def test_prf_perfect_predictions():
    prf = metrics.precision_recall_f1(_pool([0.9, 0.9, 0.1], [1, 1, 0]), 0.5)
    assert prf["precision_pct"] == 100.0
    assert prf["recall_pct"] == 100.0
    assert prf["f1_pct"] == 100.0


def test_prf_all_predicted_real_half_are():
    prf = metrics.precision_recall_f1(
        _pool([0.9, 0.8, 0.7, 0.6], [1, 0, 1, 0]), 0.5)
    assert prf["precision_pct"] == 50.0
    assert prf["recall_pct"] == 100.0
    assert np.isclose(prf["f1_pct"], 200.0 / 3.0)


def test_prf_matches_confusion_recount():
    rng = np.random.default_rng(4)
    for _ in range(30):
        pool = _random_pool(rng, int(rng.integers(5, 60)))
        threshold = float(rng.uniform(0.2, 0.8))
        prf = metrics.precision_recall_f1(pool, threshold)
        tp, tn, fp, fn = confusion_reference(pool.scores, pool.labels, threshold)
        assert (prf["tp"], prf["tn"], prf["fp"], prf["fn"]) == (tp, tn, fp, fn)
        assert prf["tp"] + prf["tn"] + prf["fp"] + prf["fn"] == pool.size


def test_prf_undefined_precision_convention():
    prf = metrics.precision_recall_f1(_pool([0.1, 0.2], [1, 0]), 0.5)
    assert prf["precision_pct"] is None
    assert prf["f1_pct"] == 0.0


def test_f1_recomputable_from_p_and_r():
    rng = np.random.default_rng(5)
    pool = _random_pool(rng, 73)
    prf = metrics.precision_recall_f1(pool, 0.5)
    p, r = prf["precision_pct"], prf["recall_pct"]
    assert abs(prf["f1_pct"] - 2 * p * r / (p + r)) < 1e-9


# ---------------------------------------------------------------------------
# pooling
# ---------------------------------------------------------------------------


def _labels(bits, true_labels=None):
    bits = np.asarray(bits, dtype=np.int8).copy()
    n = bits.size if true_labels is None else true_labels
    bits[n:] = 0
    return FrameLabels("u", 0.16, bits, n, REAL1_FAKE0)


def test_pool_trims_padding():
    labels = _labels([1, 0, 1, 0, 0, 0], true_labels=3)
    pool = metrics.pool_predictions([np.linspace(0.1, 0.6, 6)], [labels])
    assert pool.size == 3
    assert np.array_equal(pool.labels, [1, 0, 1])


def test_pool_size_is_sum_of_true_labels():
    scores = [np.full(8, 0.5), np.full(8, 0.5)]
    labels = [_labels([1] * 8, 5), _labels([0] * 8, 3)]
    pool = metrics.pool_predictions(scores, labels)
    assert pool.size == 8 and pool.num_utterances == 2


def test_pool_invariant_under_reordering():
    rng = np.random.default_rng(6)
    scores = [rng.random(6), rng.random(6), rng.random(6)]
    labels = [_labels((rng.random(6) < 0.5).astype(np.int8), k) for k in (4, 6, 5)]
    a = metrics.pool_predictions(scores, labels)
    b = metrics.pool_predictions(scores[::-1], labels[::-1])
    assert sorted(zip(a.scores, a.labels)) == sorted(zip(b.scores, b.labels))


def test_pool_three_utterance_fixture():
    scores = [np.array([0.9, 0.8]), np.array([0.1, 0.2, 0.3]), np.array([0.7])]
    labels = [_labels([1, 1]), _labels([0, 0, 0]), _labels([1])]
    pool = metrics.pool_predictions(scores, labels)
    assert pool.size == 6
    pairs = set(zip(pool.scores.tolist(), pool.labels.tolist()))
    assert pairs == {(0.9, 1), (0.8, 1), (0.1, 0), (0.2, 0), (0.3, 0), (0.7, 1)}


def test_pool_score_shorter_than_labels_rejected():
    with pytest.raises(ShapeError):
        metrics.pool_predictions([np.array([0.5])], [_labels([1, 0])])


def test_pool_validates_contents():
    with pytest.raises(ValidationError):
        _pool([np.nan], [1])
    with pytest.raises(ValidationError):
        _pool([], [])


# ---------------------------------------------------------------------------
# reports
# ---------------------------------------------------------------------------


def test_report_render_deterministic_and_parseable():
    rng = np.random.default_rng(7)
    pool = _random_pool(rng, 64)
    report = metrics.compute_report(pool, threshold=0.5)
    text1, json1 = metrics.render_report(report, metadata={"run": "x"})
    text2, json2 = metrics.render_report(report, metadata={"run": "x"})
    assert text1 == text2 and json1 == json2
    obj = json.loads(json1)
    assert set(obj) == {"eer_pct", "eer_threshold", "precision_pct",
                        "recall_pct", "f1_pct", "counts", "threshold",
                        "num_frames", "num_utterances", "metadata"}
    assert set(obj["counts"]) == {"tp", "tn", "fp", "fn"}
    assert obj == dict(report, metadata={"run": "x"})
    assert obj["num_frames"] == pool.size


def test_report_includes_all_four_metrics():
    rng = np.random.default_rng(8)
    report = metrics.compute_report(_random_pool(rng, 50))
    for key in ("eer_pct", "precision_pct", "recall_pct", "f1_pct"):
        value = report[key]
        assert value is not None and np.isfinite(value)


_PINNED_POOL = ([0.9, 0.8, 0.3, 0.6, 0.2, 0.1], [1, 1, 1, 0, 0, 0], 2)

_PINNED_TEXT = """\
frame-level evaluation
  utterances : 2
  frames     : 6
  EER        : 33.3333 %  (threshold 0.600000)
  precision  : 66.6667 %
  recall     : 66.6667 %
  F1         : 66.6667 %  (threshold 0.5)
  counts     : TP=2 TN=2 FP=1 FN=1
"""

_PINNED_JSON = """\
{
  "counts": {
    "fn": 1,
    "fp": 1,
    "tn": 2,
    "tp": 2
  },
  "eer_pct": 33.33333333333333,
  "eer_threshold": 0.6,
  "f1_pct": 66.66666666666666,
%s  "num_frames": 6,
  "num_utterances": 2,
  "precision_pct": 66.66666666666666,
  "recall_pct": 66.66666666666666,
  "threshold": 0.5
}
"""


def test_report_rendering_is_pinned_without_metadata():
    report = metrics.compute_report(_pool(*_PINNED_POOL))
    assert metrics.render_report(report) == (_PINNED_TEXT, _PINNED_JSON % "")


def test_report_rendering_is_pinned_with_metadata():
    report = metrics.compute_report(_pool(*_PINNED_POOL))
    text, json_str = metrics.render_report(report, {"run": "pin", "epochs": 3})
    assert text == _PINNED_TEXT + "  epochs : 3\n  run : pin\n"
    assert json_str == _PINNED_JSON % (
        '  "metadata": {\n    "epochs": 3,\n    "run": "pin"\n  },\n')


def test_report_rendering_is_pinned_when_precision_is_undefined():
    # every score is below the 0.5 decision threshold: no predicted positives
    report = metrics.compute_report(_pool([0.4, 0.3, 0.2, 0.1], [1, 0, 1, 0]))
    assert metrics.render_report(report) == ("""\
frame-level evaluation
  utterances : 1
  frames     : 4
  EER        : 50.0000 %  (threshold 0.300000)
  precision  : undefined
  recall     : 0.0000 %
  F1         : 0.0000 %  (threshold 0.5)
  counts     : TP=0 TN=2 FP=0 FN=2
""", """\
{
  "counts": {
    "fn": 2,
    "fp": 0,
    "tn": 2,
    "tp": 0
  },
  "eer_pct": 50.0,
  "eer_threshold": 0.3,
  "f1_pct": 0.0,
  "num_frames": 4,
  "num_utterances": 1,
  "precision_pct": null,
  "recall_pct": 0.0,
  "threshold": 0.5
}
""")
