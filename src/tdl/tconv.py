"""Similarity-modulated temporal convolution.

A local similarity matrix a[i, t] (cosine between frame t and its i-th
neighbor, rectified at zero) scales each input column before the kernel
is applied, so the convolution attends only to neighbors that look like
the current frame. Out-of-range or padding neighbors get similarity 0,
which masks them out entirely.

Like the ``nn`` primitives, everything here takes one utterance or a
block with a leading batch axis: embeddings (B, D, T), similarity
matrices (B, k, T), tconv inputs (B, C, T).
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .errors import ConfigError, ShapeError
from .esm import PADDING, EmbeddingSequence, _channel_dot, _normalized
from .nn import (
    Conv1dLayer,
    _apply_taps,
    _grad_taps,
    _scatter_taps,
    _tap_param_grads,
    _taps,
    conv1d_init,
)


@dataclass
class SimilarityMatrix:
    """values[..., i, t]: (kernel, num_frames), or (B, kernel, num_frames)."""

    kernel: int
    num_frames: int
    values: np.ndarray

    def __post_init__(self):
        if (self.values.ndim not in (2, 3)
                or self.values.shape[-2:] != (self.kernel, self.num_frames)):
            raise ShapeError(f"similarity matrix shape {self.values.shape}")


@dataclass
class TconvLayer(Conv1dLayer):
    """Conv1dLayer whose channel count is preserved (in == out)."""

    def __post_init__(self):
        super().__post_init__()
        if self.in_channels != self.out_channels:
            raise ConfigError(
                f"tconv requires in_channels == out_channels, got "
                f"{self.in_channels} vs {self.out_channels}"
            )


def tconv_init(channels: int, kernel: int, rng: np.random.Generator) -> TconvLayer:
    """conv1d_init's draws for a channels -> channels layer."""
    conv = conv1d_init(channels, channels, kernel, rng)
    return TconvLayer(channels, channels, kernel, conv.weights, conv.bias)


def _neighbor_cells(normed: np.ndarray, live: np.ndarray, off: int,
                    rectify: bool):
    """Similarity cells of frames t in [t0, t1) with frames t + off.

    Returns (t0, t1, sims, valid): the cosines, accumulated channel by
    channel and rectified when asked, and where both frames are live.
    """
    t_len = normed.shape[-1]
    t0, t1 = max(0, -off), min(t_len, t_len - off)
    sims = np.clip(_channel_dot(normed[..., t0:t1], normed[..., t0 + off:t1 + off]),
                   -1.0, 1.0)
    if rectify:
        sims = np.maximum(sims, 0.0)
    valid = live[..., t0:t1] & live[..., t0 + off:t1 + off]
    return t0, t1, sims, valid


def neighbor_similarity(e: EmbeddingSequence, k: int,
                        rectify: bool = True) -> SimilarityMatrix:
    """a[i, t] = [S(e_t, e_{t - k//2 + i})]+ over valid, non-padding pairs.

    The center row is exactly 1 on non-padding frames (cosine
    self-similarity is scale invariant, so its gradient is zero and the
    constant is exact). With ``rectify`` off, negative similarities are
    kept instead of clipped.
    """
    if k % 2 != 1:
        raise ConfigError(f"neighbor kernel must be odd, got {k}")
    live = e.frame_class != PADDING
    normed, _ = _normalized(e.values)
    half = k // 2
    a = np.zeros(live.shape[:-1] + (k, e.num_frames))
    a[..., half, :] = live
    for i in range(k):
        off = i - half
        if off == 0 or abs(off) >= e.num_frames:
            continue
        t0, t1, sims, valid = _neighbor_cells(normed, live, off, rectify)
        a[..., i, t0:t1] = np.where(valid, sims, 0.0)
    return SimilarityMatrix(k, e.num_frames, a)


def neighbor_similarity_backward(e: EmbeddingSequence, k: int,
                                 grad_a: np.ndarray,
                                 rectify: bool = True) -> np.ndarray:
    """Gradient of the similarity cells with respect to e.values.

    Constant cells (center row, masked borders/padding, rectified
    negatives) pass no gradient.
    """
    live = e.frame_class != PADDING
    normed, norms = _normalized(e.values)
    half = k // 2
    grad = np.zeros_like(e.values)
    for i in range(k):
        off = i - half
        if off == 0 or abs(off) >= e.num_frames:
            continue
        # same cells as the forward pass, so the rectification mask matches
        t0, t1, sims, active = _neighbor_cells(normed, live, off, rectify)
        if rectify:
            active &= sims > 0.0
        n0, n1 = t0 + off, t1 + off
        active, sims = active[..., None, :], sims[..., None, :]
        ga = grad_a[..., None, i, t0:t1]
        u, v = normed[..., t0:t1], normed[..., n0:n1]
        # each t (and each n = t + off) appears once per offset
        grad[..., t0:t1] += np.where(
            active, ga * ((v - sims * u) / norms[..., None, t0:t1]), 0.0)
        grad[..., n0:n1] += np.where(
            active, ga * ((u - sims * v) / norms[..., None, n0:n1]), 0.0)
    return grad


def tconv_forward(layer: TconvLayer, x: np.ndarray,
                  a: SimilarityMatrix) -> np.ndarray:
    """Convolution over similarity-scaled columns.

    out[m, t] = bias[m] + sum_i w_m[i, :] . (x[:, t - k//2 + i] * a[i, t])
    with out-of-range columns contributing zero. With a identically 1
    this reduces exactly to conv1d_forward.
    """
    if a.kernel != layer.kernel:
        raise ShapeError(f"similarity kernel {a.kernel} != layer {layer.kernel}")
    if x.ndim not in (2, 3) or x.shape[-2] != layer.in_channels:
        raise ShapeError(f"tconv input shape {x.shape}")
    if a.values.shape[:-2] + (a.num_frames,) != x.shape[:-2] + x.shape[-1:]:
        raise ShapeError(f"similarity frames {a.values.shape} != input {x.shape}")
    return _apply_taps(layer, _taps(x, layer.kernel) * a.values[..., None, :])


def tconv_backward(layer: TconvLayer, x: np.ndarray, a: SimilarityMatrix,
                   grad_out: np.ndarray, input_grad: bool = True):
    """Adjoints for (x, a, weights, bias); the x adjoint is None when
    ``input_grad`` is off."""
    if grad_out.shape != x.shape[:-2] + (layer.out_channels, x.shape[-1]):
        raise ShapeError(f"grad_out shape {grad_out.shape}")
    taps = _taps(x, layer.kernel)
    scale = a.values[..., None, :]
    grad_weights, grad_bias = _tap_param_grads(layer, taps * scale, grad_out)
    grad_mod = _grad_taps(layer, grad_out)
    grad_a = (grad_mod * taps).sum(axis=-2)
    grad_x = _scatter_taps(grad_mod * scale) if input_grad else None
    return grad_x, grad_a, grad_weights, grad_bias
