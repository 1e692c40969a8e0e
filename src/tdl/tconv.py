"""Similarity-modulated temporal convolution.

A local similarity array a[i, t] (cosine between frame t and its i-th
neighbor, rectified at zero) scales each input column before the kernel
is applied, so the convolution attends only to neighbors that look like
the current frame. Out-of-range or padding neighbors get similarity 0,
which masks them out entirely. Each neighbor is read as a window of the
embeddings and live mask zero-padded by ``nn._padded``, as the tconv's
similarity and weight gradients read its input; its forward scales the
fresh tap array ``nn._taps`` builds in place.

Like the ``nn`` primitives, everything here works on plain arrays of
one utterance or a block with a leading batch axis: embeddings e
(B, D, T) with a boolean live-frame mask (B, T) that is False on
padding, similarity arrays a (B, k, T), tconv inputs x (B, C, T). The
embeddings are the unit columns of the l2_normalize row, so the
similarity of two frames is their plain dot product and is not
normalized again. The similarity adjoint takes the forward's a, whose
positive cells are the only ones that pass gradient, so it needs no
mask. A tconv layer is a plain Conv1dLayer.
"""

from __future__ import annotations

import numpy as np

from .errors import ConfigError, ShapeError
from .esm import _channel_dot
from .nn import Conv1dLayer, _apply_taps, _grad_taps, _padded, _scatter_taps, _taps


def neighbor_similarity(e: np.ndarray, live: np.ndarray, k: int) -> np.ndarray:
    """a[i, t] = [e_t . e_{t - k//2 + i}]+ over pairs of live frames,
    as a (..., k, T) array.

    ``e`` must have unit columns, as the l2_normalize row leaves them, so
    each dot product is the pair's cosine. The center row is the
    constant 1 on live frames.
    """
    if k % 2 != 1:
        raise ConfigError(f"neighbor kernel must be odd, got {k}")
    half, t_len = k // 2, e.shape[-1]
    ep, livep = _padded(e, half), _padded(live, half) > 0.0
    a = np.empty(live.shape[:-1] + (k, t_len))
    a[..., half, :] = live
    for i in range(k):
        if i == half:
            continue
        sims = np.clip(_channel_dot(e, ep[..., i:i + t_len]), -1.0, 1.0)
        sims = np.maximum(sims, 0.0)  # np.clip(..., 0, 1) would leave -0.0 cells
        a[..., i, :] = np.where(live & livep[..., i:i + t_len], sims, 0.0)
    return a


def neighbor_similarity_backward(e: np.ndarray, a: np.ndarray,
                                 grad_a: np.ndarray) -> np.ndarray:
    """Gradient of the similarity cells ``a`` of ``neighbor_similarity``
    with respect to e: the adjoint of the dot product e_t . e_n.

    Only positive cells pass gradient. The forward writes 0 to every cell
    that touches a padding frame, so a positive cell has two live frames
    and no mask is needed; the constant center row passes none either.
    """
    half, t_len = a.shape[-2] // 2, e.shape[-1]
    ep, gp = _padded(e, half), _padded(np.where(a > 0.0, grad_a, 0.0), half)
    grad = np.zeros_like(e)
    for i in range(a.shape[-2]):
        if i == half:
            continue
        # cell (i, t) pairs frame t with frame n = t + i - half: t gets the
        # cell's gradient times e_n (window i), and n gets it times e_t,
        # reading cell (i, n - i + half) through window j
        j = 2 * half - i
        grad += gp[..., i, None, half:half + t_len] * ep[..., i:i + t_len]
        grad += gp[..., i, None, j:j + t_len] * ep[..., j:j + t_len]
    return grad


def tconv_forward(layer: Conv1dLayer, x: np.ndarray, a: np.ndarray) -> np.ndarray:
    """Convolution over similarity-scaled columns.

    out[m, t] = bias[m] + sum_i w_m[i, :] . (x[:, t - k//2 + i] * a[i, t])
    with out-of-range columns contributing zero. With a identically 1
    this reduces exactly to conv1d_forward. The taps are scaled in
    place, so the forward holds one tap array.
    """
    if x.ndim not in (2, 3) or x.shape[-2] != layer.in_channels:
        raise ShapeError(f"tconv input shape {x.shape}")
    if a.shape != x.shape[:-2] + (layer.kernel, x.shape[-1]):
        raise ShapeError(f"similarity shape {a.shape} does not fit kernel "
                         f"{layer.kernel} and input {x.shape}")
    taps = _taps(x, layer.kernel)
    taps *= a[..., None, :]
    return _apply_taps(layer, taps)


def tconv_backward(layer: Conv1dLayer, x: np.ndarray, a: np.ndarray,
                   grad_out: np.ndarray, input_grad: bool = True):
    """Adjoints (grad_x, grad_a) of tconv_forward; grad_x is None when
    ``input_grad`` is off. conv_param_grads with ``scale`` a gives the
    weight and bias adjoints."""
    if grad_out.shape != x.shape[:-2] + (layer.out_channels, x.shape[-1]):
        raise ShapeError(f"grad_out shape {grad_out.shape}")
    t_len = x.shape[-1]
    grad_mod = _grad_taps(layer, grad_out)
    # grad_a[i, t] = grad_mod[i, :, t] . x[:, t - k//2 + i], one tap at a
    # time from the padded x: no tap array is built. Each product keeps
    # all T columns, so numpy sums its channels in the order it sums the
    # tap array's (a 1-column product sums pairwise).
    xp = _padded(x, layer.kernel // 2)
    grad_a = np.empty(a.shape)
    for i in range(layer.kernel):
        grad_a[..., i, :] = (grad_mod[..., i, :, :] * xp[..., i:i + t_len]).sum(axis=-2)
    grad_x = None
    if input_grad:
        grad_mod *= a[..., None, :]
        grad_x = _scatter_taps(grad_mod)
    return grad_x, grad_a
