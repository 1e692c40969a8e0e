"""Embedding-space separation losses over frame pairs.

Three hinge terms act on cosine similarities between L2-normalized
frame embeddings: same-class pairs (real-real and fake-fake) are pushed
above ``tau_same``, cross-class pairs below ``tau_diff``. Each term is
the worst violation over its pair set, so gradients flow only through
one pair per active term.

The worst pairs come from one cosine Gram matrix per utterance, built
channel by channel so that every entry equals the pair's sequential dot
product bit for bit. Functions that take raw arrays accept one utterance
(D, T) or a block (B, D, T) with classes (B, T).
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .data import FrameLabels
from .errors import ConfigError, ShapeError, ValidationError

# frame_class codes
FAKE = 0
REAL = 1
PADDING = -1

_COS_EPS = 1e-12


@dataclass
class EsmConfig:
    """Margins and optional pair-sampling budget for the hinge losses."""

    tau_same: float = 0.9
    tau_diff: float = 0.0
    pair_budget: int | None = None
    sample_seed: int = 0

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
        if self.pair_budget is not None and self.pair_budget < 1:
            raise ConfigError("pair_budget must be positive when set")

    def to_dict(self) -> dict:
        return {"tau_same": self.tau_same, "tau_diff": self.tau_diff,
                "pair_budget": self.pair_budget, "sample_seed": self.sample_seed}

    @classmethod
    def from_dict(cls, obj: dict) -> "EsmConfig":
        unknown = set(obj) - set(cls.__dataclass_fields__)
        if unknown:
            raise ConfigError(f"unknown esm keys: {sorted(unknown)}")
        return cls(**obj)


@dataclass
class EsmLoss:
    l_real: float
    l_fake: float
    l_diff: float

    @property
    def total(self) -> float:
        return self.l_real + self.l_fake + self.l_diff

    def to_dict(self) -> dict:
        return {"l_real": self.l_real, "l_fake": self.l_fake,
                "l_diff": self.l_diff, "total": self.total}


@dataclass
class EmbeddingSequence:
    """Unit-norm embedding columns plus a real/fake/padding class per frame.

    ``values`` is (dim, num_frames) with ``frame_class`` (num_frames,),
    or a block (B, dim, num_frames) with ``frame_class`` (B, num_frames).
    """

    dim: int
    num_frames: int
    values: np.ndarray
    frame_class: np.ndarray

    def __post_init__(self):
        self.values = np.asarray(self.values, dtype=np.float64)
        self.frame_class = np.asarray(self.frame_class, dtype=np.int8)
        if (self.values.ndim not in (2, 3)
                or self.values.shape[-2:] != (self.dim, self.num_frames)):
            raise ShapeError(f"embedding shape {self.values.shape}")
        if self.frame_class.shape != self.values.shape[:-2] + (self.num_frames,):
            raise ShapeError(f"frame_class shape {self.frame_class.shape}")
        # the codes are the consecutive integers PADDING < FAKE < REAL
        if self.frame_class.size and (self.frame_class.min() < PADDING
                                      or self.frame_class.max() > REAL):
            raise ValidationError("frame_class entries must be real/fake/padding")
        live = self.frame_class != PADDING
        norms = np.sqrt((self.values ** 2).sum(axis=-2))[live]
        if norms.size and np.max(np.abs(norms - 1.0)) > 1e-9:
            raise ValidationError("non-padding embedding columns must be unit norm")


def cosine_similarity(u: np.ndarray, v: np.ndarray) -> float:
    """S(u, v) = u.v / (|u||v|), clamped into [-1, 1] against rounding.

    Identical vectors short-circuit to exactly 1.0 (self-similarity is
    scale invariant, so its gradient is zero anyway).
    """
    u = np.asarray(u, dtype=np.float64)
    v = np.asarray(v, dtype=np.float64)
    if u.shape != v.shape:
        raise ShapeError(f"cosine on shapes {u.shape} vs {v.shape}")
    nu = float(np.linalg.norm(u))
    nv = float(np.linalg.norm(v))
    if nu < _COS_EPS or nv < _COS_EPS:
        raise ValidationError("cosine_similarity: zero vector")
    if np.array_equal(u, v):
        return 1.0
    return float(np.clip(u @ v / (nu * nv), -1.0, 1.0))


def align_labels_to_embedding(labels: FrameLabels, t_e: int) -> np.ndarray:
    """Map each embedding frame onto the label timeline.

    Embedding frame t reads label index floor(t * L / t_e); label value
    1 is treated as real and 0 as fake, and indices past true_labels are
    padding. The map is exact integer arithmetic, so it is monotone with
    j(0) = 0 and j(t_e - 1) = L - 1 whenever t_e >= L.
    """
    if t_e < 1:
        raise ShapeError("t_e must be >= 1")
    length = labels.labels.size
    j = (np.arange(t_e) * length) // t_e
    classes = np.where(labels.labels[j] == 1, REAL, FAKE).astype(np.int8)
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


def _keep_only(mask: np.ndarray, xs: np.ndarray, ys: np.ndarray) -> None:
    mask[...] = False
    mask[xs, ys] = True


def _sample_pairs(masks, b: int, real_idx: np.ndarray, fake_idx: np.ndarray,
                  cfg: EsmConfig) -> None:
    """Cut utterance b's pair sets down to ``pair_budget`` seeded samples.

    Pairs are numbered in lexicographic order; each term with more pairs
    than the budget draws a sorted sample from one ``sample_seed`` stream
    per utterance, in the order real, fake, cross.
    """
    rng = np.random.default_rng(cfg.sample_seed)
    for mask, idx in ((masks[0], real_idx), (masks[1], fake_idx)):
        count = idx.size * (idx.size - 1) // 2
        if count > cfg.pair_budget:
            keep = np.sort(rng.choice(count, size=cfg.pair_budget, replace=False))
            pi, pj = np.triu_indices(idx.size, k=1)
            _keep_only(mask[b], idx[pi[keep]], idx[pj[keep]])
    total = real_idx.size * fake_idx.size
    if total > cfg.pair_budget:
        flat = np.sort(rng.choice(total, size=cfg.pair_budget, replace=False))
        _keep_only(masks[2][b], real_idx[flat // fake_idx.size],
                   fake_idx[flat % fake_idx.size])


def _candidate_pairs(frame_class: np.ndarray, cfg: EsmConfig):
    """(B, T, T) masks of the pairs each term scans: real-real and fake-fake
    pairs x < y, and cross pairs (real x, fake y)."""
    real = frame_class == REAL
    fake = frame_class == FAKE
    upper = np.triu(np.ones((frame_class.shape[-1],) * 2, dtype=bool), k=1)
    masks = (real[:, :, None] & real[:, None, :] & upper,
             fake[:, :, None] & fake[:, None, :] & upper,
             real[:, :, None] & fake[:, None, :])
    if cfg.pair_budget is not None:
        for b in range(frame_class.shape[0]):
            _sample_pairs(masks, b, np.nonzero(real[b])[0], np.nonzero(fake[b])[0],
                          cfg)
    return masks


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
    real, fake, cross = _candidate_pairs(frame_class, cfg)
    worst = (_worst_pairs(gram, real, True), _worst_pairs(gram, fake, True),
             _worst_pairs(gram, cross, False))
    losses = np.stack([np.maximum(0.0, cfg.tau_same - worst[0][0]),
                       np.maximum(0.0, cfg.tau_same - worst[1][0]),
                       np.maximum(0.0, worst[2][0] - cfg.tau_diff)], axis=1)
    return losses, worst, normed, norms


def _as_block(values: np.ndarray, frame_class: np.ndarray):
    values = np.asarray(values, dtype=np.float64)
    if values.ndim == 2:
        return values[None], np.asarray(frame_class)[None]
    return values, np.asarray(frame_class)


def _summed(losses: np.ndarray) -> EsmLoss:
    return EsmLoss(*(float(v) for v in losses.sum(axis=0)))


def _esm_losses(e: EmbeddingSequence, cfg: EsmConfig) -> EsmLoss:
    return _summed(_components(*_as_block(e.values, e.frame_class), cfg)[0])


def esm_real_loss(e: EmbeddingSequence, cfg: EsmConfig) -> float:
    """Worst same-class hinge over distinct real-frame pairs."""
    return _esm_losses(e, cfg).l_real


def esm_fake_loss(e: EmbeddingSequence, cfg: EsmConfig) -> float:
    return _esm_losses(e, cfg).l_fake


def esm_diff_loss(e: EmbeddingSequence, cfg: EsmConfig) -> float:
    """Worst cross-class hinge: max over (real, fake) of [S - tau_diff]+."""
    return _esm_losses(e, cfg).l_diff


def esm_loss(e: EmbeddingSequence, cfg: EsmConfig):
    """All three components plus the subgradient with respect to e.values.

    Only the worst pair of each active component carries gradient; ties
    break toward the lowest pair index, and the subgradient at a hinge
    kink is zero, so training is deterministic.
    """
    return esm_loss_from_arrays(e.values, e.frame_class, cfg)


def esm_loss_from_arrays(values: np.ndarray, frame_class: np.ndarray,
                         cfg: EsmConfig):
    """Validation-free core of esm_loss; columns need not be exactly unit.

    For a block each component is the sum over its utterances, and the
    gradient keeps the block's shape.
    """
    block, classes = _as_block(values, frame_class)
    losses, worst, normed, norms = _components(block, classes, cfg)
    grad = np.zeros_like(block)
    for term, ((sims, xs, ys), sign) in enumerate(zip(worst, (-1.0, -1.0, 1.0))):
        # d cos(u, v) / du = (v_hat - cos * u_hat) / |u|, and likewise for v
        bs = np.nonzero(losses[:, term] > 0.0)[0]
        x, y, s = xs[bs], ys[bs], sims[bs, None]
        u, v = normed[bs, :, x], normed[bs, :, y]
        grad[bs, :, x] += sign * (v - s * u) / norms[bs, x][:, None]
        grad[bs, :, y] += sign * (u - s * v) / norms[bs, y][:, None]
    return _summed(losses), grad if np.ndim(values) == 3 else grad[0]


def esm_loss_batch(sequences, cfg: EsmConfig) -> EsmLoss:
    """Mean of per-utterance components across a batch."""
    sequences = list(sequences)
    if not sequences:
        raise ValidationError("esm_loss_batch: empty batch")
    parts = [_esm_losses(e, cfg) for e in sequences]
    n = len(parts)
    return EsmLoss(
        sum(p.l_real for p in parts) / n,
        sum(p.l_fake for p in parts) / n,
        sum(p.l_diff for p in parts) / n,
    )
