"""Embedding-space separation losses over frame pairs.

Three hinge terms act on cosine similarities between L2-normalized
frame embeddings: same-class pairs (real-real and fake-fake) are pushed
above ``tau_same``, cross-class pairs below ``tau_diff``. Each term is
the worst violation over its pair set, so gradients flow only through
one pair per active term: the batch-hard mining of Hermans et al.
(arXiv 1703.07737). The loss takes arrays only, a block of B
utterances: embeddings (B, D, T) with classes (B, T) of FAKE, REAL or
PADDING, which the model derives from its labels.

Each worst pair is exact: the first in (similarity, x, y) order when a
similarity is the sequential channel sum of _channel_dot, as the
brute-force oracle computes it. A block finds them in three steps:

- one GEMM gives every pair's cosine, (B, T, T), clipped to [-1, 1];
- one scan takes each column's extreme cell over each term's rows (the
  cross term negated, so that every term is a minimum), and a term's
  GEMM extremum is the least of its columns';
- the columns, and then their cells, within SHORTLIST_GAMMAS * gamma_D
  of that extremum are rescored in the sequential order, and the first
  extremum among them wins.

Why no sequential extremum is missed: a GEMM and the sequential sum each
give the dot product of two length-D columns a and b within
gamma_D * |a|.|b| <= gamma_D * ||a|| ||b|| of its exact value, whatever
their summation order or fused multiply-adds, where
gamma_D = D u / (1 - D u) and u = 2**-53 (Higham, Accuracy and
Stability of Numerical Algorithms, 2nd ed., section 3.1; gradual
underflow adds far less than the slack below). _normalized divides each
column by its computed norm, or by a larger floor, so
||a|| ||b|| <= 1 + gamma_D + 4u to first order, and a cell's GEMM and
sequential values differ by at most 2 gamma_D (1 + gamma_D + 4u);
clipping both to [-1, 1] only narrows that. The sequential values are
symmetric in (x, y), so every cell that ties with the sequential
extremum lies within 4 gamma_D (1 + gamma_D + 4u) < 8 gamma_D of the
GEMM extremum, and so does its column's extreme cell.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .errors import ConfigError

# frame_class codes
FAKE = 0
REAL = 1
PADDING = -1

_COS_EPS = 1e-12

# A term keeps for rescoring the cells within this many gamma_D of its
# GEMM extremum; the module docstring shows why 4 would do.
SHORTLIST_GAMMAS = 8
_UNIT_ROUNDOFF = np.finfo(np.float64).eps / 2
# the cross term is a maximum and is scanned negated
_SIGNS = np.array([1.0, 1.0, -1.0])
# shortlisted cells rescored at a time, which bounds the gathered columns
_RESCORE_CELLS = 1 << 16


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


def _pair_sims(gram: np.ndarray, rows: np.ndarray) -> np.ndarray:
    """Each frame's most extreme Gram cell per term, (3, B, T): column y's
    lowest cell in the rows x that ``rows`` (3, B, T, T) marks for the two
    same-class terms, and its highest one for the cross term, negated, so
    that every term is a minimum. +inf for a column with no marked row,
    NaN for one with a NaN cell.

    A function of its own so that the benchmark's traced run can count
    the cells scanned (bench/probes.py).
    """
    columns = np.empty(rows.shape[:2] + rows.shape[3:])
    np.min(np.broadcast_to(gram, (2,) + gram.shape), axis=2, out=columns[:2],
           where=rows[:2], initial=np.inf)
    np.max(gram, axis=1, out=columns[2], where=rows[2], initial=-np.inf)
    np.negative(columns[2], out=columns[2])
    return columns


def _rescored(normed: np.ndarray, b: np.ndarray, x: np.ndarray,
              y: np.ndarray) -> np.ndarray:
    """Clipped cosines of the pairs (x, y) of utterances b, each summed
    over the channels in _channel_dot's order: a running sum (cumsum) of
    the channel products is the same sequential sum."""
    sims = np.empty(b.size)
    for lo in range(0, b.size, _RESCORE_CELLS):
        s = slice(lo, lo + _RESCORE_CELLS)
        products = normed[b[s], :, x[s]] * normed[b[s], :, y[s]]
        sims[s] = np.cumsum(products, axis=1)[:, -1]
    return np.clip(sims, -1.0, 1.0, out=sims)


def _hardest_pairs(normed: np.ndarray, frame_class: np.ndarray):
    """Each term's worst pair in each utterance as (3, B) arrays of
    (similarity, x, y): the lowest real-real and fake-fake and the
    highest cross similarity, the first in (similarity, x, y) order under
    _channel_dot's sum. An utterance with no candidate reads +inf (-inf
    for the cross term) at (0, 0)."""
    num, dim, t_len = normed.shape
    gram = np.matmul(normed.transpose(0, 2, 1), normed)
    np.clip(gram, -1.0, 1.0, out=gram)
    gram.reshape(num, -1)[:, ::t_len + 1] = np.inf  # no frame pairs with itself
    # a term's pairs (x, y) join one of its rows x to one of its columns y,
    # with x < y in a same-class term
    real, fake = frame_class == REAL, frame_class == FAKE
    rows, columns = np.stack((real, fake, real)), np.stack((real, fake, fake))
    col_sims = _pair_sims(gram, np.broadcast_to(rows[..., None], (3, num, t_len, t_len)))
    col_sims[~columns] = np.inf
    lowest = col_sims.min(axis=2)  # +inf without candidates, NaN with a NaN cell
    gamma = dim * _UNIT_ROUNDOFF / (1.0 - dim * _UNIT_ROUNDOFF)
    # no +inf column passes the cap at 1, and a NaN limit passes none
    limit = np.minimum(lowest + SHORTLIST_GAMMAS * gamma, 1.0)
    # the shortlist: the columns within the limit, then their cells
    group, ys = np.divmod(np.flatnonzero(col_sims <= limit[..., None]), t_len)
    term, b = np.divmod(group, num)  # group = term * B + b
    cells = gram[b, :, ys] * _SIGNS[term, None] <= limit.reshape(-1)[group, None]
    cells &= rows[term, b]
    cells &= (term == 2)[:, None] | (np.arange(t_len) < ys[:, None])
    col, xs = np.nonzero(cells)
    group, ys = group[col], ys[col]
    exact = _rescored(normed, b[col], xs, ys) * _SIGNS[term[col]]
    order = np.lexsort((ys, xs, exact, group))
    first = order[np.diff(group[order], prepend=-1) != 0]
    best, at = lowest.reshape(-1), np.zeros((2, 3 * num), dtype=np.intp)
    best[group[first]], at[:, group[first]] = exact[first], (xs[first], ys[first])
    return best.reshape(3, num) * _SIGNS[:, None], *at.reshape(2, 3, num)


def _components(values: np.ndarray, frame_class: np.ndarray, cfg: EsmConfig):
    """Hinge terms of a (B, D, T) block.

    Returns the (B, 3) real/fake/diff losses, each term's worst pairs as
    (3, B) arrays (similarity, x, y), and the normalized columns with
    their norms.
    """
    normed, norms = _normalized(values)
    worst = _hardest_pairs(normed, frame_class)
    sims = worst[0]
    losses = np.stack([np.maximum(0.0, cfg.tau_same - sims[0]),
                       np.maximum(0.0, cfg.tau_same - sims[1]),
                       np.maximum(0.0, sims[2] - cfg.tau_diff)], axis=1)
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
    losses, (sims, xs, ys), normed, norms = _components(values, frame_class, cfg)
    term, bs = np.nonzero(losses.T > 0.0)
    x, y, s, sign = xs[term, bs], ys[term, bs], sims[term, bs, None], -_SIGNS[term, None]
    # d cos(u, v) / du = (v_hat - cos * u_hat) / |u|, and likewise for v
    u, v = normed[bs, :, x], normed[bs, :, y]
    parts = np.concatenate((sign * (v - s * u) / norms[bs, x][:, None],
                            sign * (u - s * v) / norms[bs, y][:, None]))
    # added term by term, each term's x columns before its y columns
    order = np.argsort(np.concatenate((2 * term, 2 * term + 1)), kind="stable")
    grad = np.zeros_like(values)
    np.add.at(grad, (np.tile(bs, 2)[order], slice(None), np.concatenate((x, y))[order]),
              parts[order])
    summed = EsmLoss(*(float(v) for v in losses.sum(axis=0)))
    return summed, grad

