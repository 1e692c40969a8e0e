"""Frame-level evaluation: EER, precision/recall/F1, report rendering.

The positive class is label 1, i.e. real frames under the default
real1_fake0 convention (a high score means "this frame is genuine").
A pool holds true label frames only: model.score_pool keeps each
utterance's first true_labels frames as it scores a set.
"""

from __future__ import annotations

import json
from dataclasses import dataclass

import numpy as np

from .errors import MetricError, ShapeError, ValidationError


@dataclass
class EvalPool:
    """Flat (score, label) pairs pooled over all true frames."""

    scores: np.ndarray
    labels: np.ndarray
    num_utterances: int

    def __post_init__(self):
        self.scores = np.asarray(self.scores, dtype=np.float64)
        self.labels = np.asarray(self.labels, dtype=np.int8)
        if self.scores.ndim != 1 or self.scores.shape != self.labels.shape:
            raise ShapeError(
                f"pool shapes {self.scores.shape} vs {self.labels.shape}"
            )
        if self.scores.size == 0:
            raise ValidationError("empty evaluation pool")
        if not np.all(np.isfinite(self.scores)):
            raise ValidationError("non-finite scores in pool")
        if not np.all((self.labels == 0) | (self.labels == 1)):
            raise ValidationError("pool labels must be 0/1")

    @property
    def size(self) -> int:
        return self.scores.size


def pool_predictions(scores_list, labels_list) -> EvalPool:
    """Per-utterance scores with their frame labels, padding frames
    dropped; ``bench/`` is its last caller, and ROADMAP item 2 deletes it."""
    scores_list = list(scores_list)
    labels_list = list(labels_list)
    if len(scores_list) != len(labels_list):
        raise ShapeError(
            f"{len(scores_list)} score arrays vs {len(labels_list)} label sets"
        )
    if not scores_list:
        raise ValidationError("pool_predictions: empty input")
    chunks_s, chunks_y = [], []
    for scores, labels in zip(scores_list, labels_list):
        scores = np.asarray(scores, dtype=np.float64)
        n = labels.true_labels
        if scores.size < n:
            raise ShapeError(
                f"{labels.sample_id}: {scores.size} scores < {n} true labels"
            )
        chunks_s.append(scores[:n])
        chunks_y.append(labels.labels[:n])
    return EvalPool(np.concatenate(chunks_s), np.concatenate(chunks_y),
                    num_utterances=len(scores_list))


def _far_frr(pool: EvalPool, thresholds: np.ndarray):
    """FAR = fraction of label-0 frames with score >= t; FRR = fraction
    of label-1 frames with score < t."""
    pos = np.sort(pool.scores[pool.labels == 1])
    neg = np.sort(pool.scores[pool.labels == 0])
    far = (neg.size - np.searchsorted(neg, thresholds, side="left")) / neg.size
    frr = np.searchsorted(pos, thresholds, side="left") / pos.size
    return far, frr


def eer(pool: EvalPool):
    """Equal error rate (percent) and its threshold.

    Sweeps every distinct score; the FAR/FRR crossing is located with
    linear interpolation between adjacent thresholds. Requires both
    classes in the pool.
    """
    n_pos = int((pool.labels == 1).sum())
    if n_pos == 0 or n_pos == pool.size:
        raise MetricError("EER needs both classes in the pool")
    cand = np.unique(pool.scores)
    cand = np.append(cand, cand[-1] + 1.0)  # FAR=0, FRR=1 endpoint
    far, frr = _far_frr(pool, cand)
    diff = far - frr
    k = int(np.argmax(diff <= 0.0))  # diff[0] = 1, last entry = -1
    if diff[k] == 0.0:
        return 100.0 * far[k], float(cand[k])
    t = diff[k - 1] / (diff[k - 1] - diff[k])
    eer_val = far[k - 1] + t * (far[k] - far[k - 1])
    threshold = cand[k - 1] + t * (cand[k] - cand[k - 1])
    return 100.0 * eer_val, float(threshold)


def precision_recall_f1(pool: EvalPool, threshold: float = 0.5):
    """Confusion counts and P/R/F1 (percent) at a fixed threshold.

    Predicted positive means score >= threshold. A precision or recall
    with an empty denominator is None, and F1 is then 0 by convention.
    """
    pred = pool.scores >= threshold
    actual = pool.labels == 1
    tp = int(np.sum(pred & actual))
    fp = int(np.sum(pred & ~actual))
    fn = int(np.sum(~pred & actual))
    tn = int(np.sum(~pred & ~actual))
    precision = tp / (tp + fp) if tp + fp > 0 else None
    recall = tp / (tp + fn) if tp + fn > 0 else None
    if precision is not None and recall is not None and precision + recall > 0:
        f1 = 200.0 * precision * recall / (precision + recall)
    else:
        f1 = 0.0
    return {
        "tp": tp, "tn": tn, "fp": fp, "fn": fn,
        "precision_pct": None if precision is None else 100.0 * precision,
        "recall_pct": None if recall is None else 100.0 * recall,
        "f1_pct": f1,
    }


def compute_report(pool: EvalPool, threshold: float = 0.5) -> dict:
    """The JSON object ``tdl eval`` writes: EER, P/R/F1 and confusion
    counts at ``threshold``, and the pool's size."""
    eer_pct, eer_thr = eer(pool)
    prf = precision_recall_f1(pool, threshold)
    counts = {key: prf.pop(key) for key in ("tp", "tn", "fp", "fn")}
    return {"eer_pct": eer_pct, "eer_threshold": eer_thr, **prf, "counts": counts,
            "threshold": threshold, "num_frames": pool.size,
            "num_utterances": pool.num_utterances}


def _fmt_pct(value) -> str:
    return "undefined" if value is None else f"{value:.4f} %"


def render_report(report: dict, metadata: dict | None = None):
    """Deterministic (text, json_string) rendering of a compute_report
    object; ``metadata``, when given, is added under its own key."""
    obj = dict(report, metadata=metadata) if metadata else report
    json_str = json.dumps(obj, indent=2, sort_keys=True) + "\n"
    counts = report["counts"]
    lines = [
        "frame-level evaluation",
        f"  utterances : {report['num_utterances']}",
        f"  frames     : {report['num_frames']}",
        f"  EER        : {report['eer_pct']:.4f} %  "
        f"(threshold {report['eer_threshold']:.6f})",
        f"  precision  : {_fmt_pct(report['precision_pct'])}",
        f"  recall     : {_fmt_pct(report['recall_pct'])}",
        f"  F1         : {report['f1_pct']:.4f} %  (threshold {report['threshold']})",
        f"  counts     : TP={counts['tp']} TN={counts['tn']} "
        f"FP={counts['fp']} FN={counts['fn']}",
    ]
    if metadata:
        for key in sorted(metadata):
            lines.append(f"  {key} : {metadata[key]}")
    return "\n".join(lines) + "\n", json_str
