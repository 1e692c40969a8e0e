"""Embedding-space separation losses over frame pairs.

Three hinge terms act on cosine similarities between L2-normalized
frame embeddings: same-class pairs (real-real and fake-fake) are pushed
above ``tau_same``, cross-class pairs below ``tau_diff``. Each term is
the worst violation over its pair set, so gradients flow only through
one pair per active term.

The worst pairs come from one cosine Gram matrix per utterance, built
channel by channel so that every entry equals the pair's sequential dot
product bit for bit. The loss takes a block of B utterances: embeddings
(B, D, T) with classes (B, T).
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .data import BOUNDARY1, REAL1_FAKE0, FrameLabels
from .errors import ConfigError, ShapeError, ValidationError

# frame_class codes
FAKE = 0
REAL = 1
PADDING = -1

_COS_EPS = 1e-12


@dataclass
class EsmConfig:
    """Margins of the hinge losses."""

    tau_same: float = 0.9
    tau_diff: float = 0.0

    def __post_init__(self):
        if not -1.0 < self.tau_same <= 1.0:
            raise ConfigError(f"tau_same {self.tau_same} outside (-1, 1]")
        if not -1.0 <= self.tau_diff < 1.0:
            raise ConfigError(f"tau_diff {self.tau_diff} outside [-1, 1)")
        if self.tau_same <= self.tau_diff:
            raise ConfigError(
                f"tau_same {self.tau_same} must exceed tau_diff {self.tau_diff}; "
                "the margins are jointly unsatisfiable otherwise"
            )


@dataclass
class EsmLoss:
    l_real: float
    l_fake: float
    l_diff: float

    @property
    def total(self) -> float:
        return self.l_real + self.l_fake + self.l_diff


def align_labels_to_embedding(labels: FrameLabels, t_e: int) -> np.ndarray:
    """Map each embedding frame onto the label timeline.

    Embedding frame t reads label index floor(t * L / t_e); real is label
    1 under real1_fake0 and 0 under real0_fake1 (boundary1 labels mark
    transitions, not classes, and raise), and indices past true_labels are
    padding. The map is exact integer arithmetic, so it is monotone with
    j(0) = 0 and j(t_e - 1) = L - 1 whenever t_e >= L.
    """
    if labels.setting == BOUNDARY1:
        raise ValidationError(f"{labels.sample_id}: boundary1 labels have no classes")
    if t_e < 1:
        raise ShapeError("t_e must be >= 1")
    length = labels.labels.size
    j = (np.arange(t_e) * length) // t_e
    real = 1 if labels.setting == REAL1_FAKE0 else 0
    classes = np.where(labels.labels[j] == real, REAL, FAKE).astype(np.int8)
    classes[j >= labels.true_labels] = PADDING
    return classes


# ---------------------------------------------------------------------------
# pair scans
# ---------------------------------------------------------------------------


def _channel_dot(a: np.ndarray, b: np.ndarray) -> np.ndarray:
    """Per-column dot product over axis -2 with a fixed sequential channel order.

    numpy's reductions switch between sequential and pairwise summation
    depending on strides; accumulating explicitly keeps pair
    similarities bit-stable across array shapes, which the exact
    brute-force oracle equality relies on.
    """
    acc = a[..., 0, :] * b[..., 0, :]
    for c in range(1, a.shape[-2]):
        acc = acc + a[..., c, :] * b[..., c, :]
    return acc


def _normalized(values: np.ndarray):
    norms = np.maximum(np.sqrt(_channel_dot(values, values)), _COS_EPS)
    return values / norms[..., None, :], norms


def _gram(normed: np.ndarray) -> np.ndarray:
    """Clipped cosines of every frame pair, (B, T, T) from (B, D, T).

    Channel outer products are added in _channel_dot's order, so entry
    [b, x, y] equals the sequential dot product of columns x and y.
    """
    gram = normed[:, 0, :, None] * normed[:, 0, None, :]
    term = np.empty_like(gram)
    for c in range(1, normed.shape[1]):
        gram += np.multiply(normed[:, c, :, None], normed[:, c, None, :], out=term)
    return np.clip(gram, -1.0, 1.0, out=gram)


def _candidate_pairs(frame_class: np.ndarray):
    """(B, T, T) masks of the pairs each term scans: real-real and fake-fake
    pairs x < y, and cross pairs (real x, fake y)."""
    real = frame_class == REAL
    fake = frame_class == FAKE
    upper = np.triu(np.ones((frame_class.shape[-1],) * 2, dtype=bool), k=1)
    return (real[:, :, None] & real[:, None, :] & upper,
            fake[:, :, None] & fake[:, None, :] & upper,
            real[:, :, None] & fake[:, None, :])


def _pair_sims(gram: np.ndarray, candidates: np.ndarray, fill: float) -> np.ndarray:
    """The Gram with every cell outside the candidate pairs set to ``fill``.

    A function of its own so that the benchmark's traced run can count
    the cells scanned (bench/probes.py).
    """
    return np.where(candidates, gram, fill)


def _worst_pairs(gram: np.ndarray, candidates: np.ndarray, lowest: bool):
    """Per utterance, the first extreme candidate in row-major (x, y) order,
    which is the lexicographic pair order: (similarity, x, y). An utterance
    with no candidate reads +-inf."""
    num, t_len = gram.shape[0], gram.shape[-1]
    flat = _pair_sims(gram, candidates, np.inf if lowest else -np.inf)
    flat = flat.reshape(num, -1)
    w = flat.argmin(axis=1) if lowest else flat.argmax(axis=1)
    return flat[np.arange(num), w], w // t_len, w % t_len


def _components(values: np.ndarray, frame_class: np.ndarray, cfg: EsmConfig):
    """Hinge terms of a (B, D, T) block.

    Returns the (B, 3) real/fake/diff losses, each term's worst pairs as
    (similarity, x, y) arrays over the block, and the normalized columns
    with their norms.
    """
    normed, norms = _normalized(values)
    gram = _gram(normed)
    real, fake, cross = _candidate_pairs(frame_class)
    worst = (_worst_pairs(gram, real, True), _worst_pairs(gram, fake, True),
             _worst_pairs(gram, cross, False))
    losses = np.stack([np.maximum(0.0, cfg.tau_same - worst[0][0]),
                       np.maximum(0.0, cfg.tau_same - worst[1][0]),
                       np.maximum(0.0, worst[2][0] - cfg.tau_diff)], axis=1)
    return losses, worst, normed, norms


def esm_loss_from_arrays(values: np.ndarray, frame_class: np.ndarray,
                         cfg: EsmConfig):
    """All three components of a (B, D, T) block plus the subgradient.

    Each component is the sum over the block's utterances, and the
    gradient has the block's shape. Columns need not be exactly unit.
    Only the worst pair of each active component carries gradient; ties
    break toward the lowest pair index, and the subgradient at a hinge
    kink is zero, so training is deterministic.
    """
    losses, worst, normed, norms = _components(values, frame_class, cfg)
    grad = np.zeros_like(values)
    for term, ((sims, xs, ys), sign) in enumerate(zip(worst, (-1.0, -1.0, 1.0))):
        # d cos(u, v) / du = (v_hat - cos * u_hat) / |u|, and likewise for v
        bs = np.nonzero(losses[:, term] > 0.0)[0]
        x, y, s = xs[bs], ys[bs], sims[bs, None]
        u, v = normed[bs, :, x], normed[bs, :, y]
        grad[bs, :, x] += sign * (v - s * u) / norms[bs, x][:, None]
        grad[bs, :, y] += sign * (u - s * v) / norms[bs, y][:, None]
    summed = EsmLoss(*(float(v) for v in losses.sum(axis=0)))
    return summed, grad

