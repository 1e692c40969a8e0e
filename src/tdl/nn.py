"""Differentiable primitives with hand-written adjoints.

Everything runs in float64 on plain numpy arrays. Each ``*_backward``
is the exact adjoint of its forward linear map (or exact Jacobian
product), which a central finite-difference checker verifies.

Every layer primitive takes one utterance or a block of them: an
optional leading batch axis, (C, T) or (B, C, T) for the convolutions
and (F,) or (B, F) for the dense layer. A block is computed one GEMM per
utterance, each the same GEMM a lone utterance runs, so an utterance's
outputs do not depend on which other utterances share its block. Each
layer has two adjoints: its ``*_backward`` gives the input gradient, and
its ``*_param_grads`` the weight and bias gradients, summed over the
block in utterance order; the caller decides where the latter runs.

Only a convolution's forward builds the (kernel, C, T) tap array,
``_taps``: it writes each tap straight from x and zeroes that tap's
columns past either end, so the forward makes no padded copy. Every
other shifted read of a time axis takes a window of one zero-padded
copy, ``_padded``: the weight gradient, one GEMM per tap, the tconv
similarity gradient and both neighbor similarity functions. No forward,
adjoint or tap helper returns its input or a view of it, so a caller
may write into any result.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .errors import ConfigError, NumericError, ShapeError, brief

# ---------------------------------------------------------------------------
# layers
# ---------------------------------------------------------------------------


@dataclass
class Conv1dLayer:
    """Same-padding 1D convolution, stride 1, odd kernel.

    weights[i, c, m] multiplies input channel c at tap i for output
    channel m; its shape (kernel, in_channels, out_channels) gives the dims.
    """

    weights: np.ndarray
    bias: np.ndarray
    kernel = property(lambda self: self.weights.shape[0])
    in_channels = property(lambda self: self.weights.shape[1])
    out_channels = property(lambda self: self.weights.shape[2])

    def __post_init__(self):
        if self.weights.ndim != 3 or self.kernel % 2 != 1:
            raise ConfigError(f"conv weights {self.weights.shape}: want 3-D, odd kernel")
        if self.bias.shape != (self.out_channels,):
            raise ShapeError(f"conv bias shape {self.bias.shape}")


@dataclass
class FcLayer:
    """Dense layer; its weights' shape (out_features, in_features) gives the dims."""

    weights: np.ndarray
    bias: np.ndarray
    out_features = property(lambda self: self.weights.shape[0])
    in_features = property(lambda self: self.weights.shape[1])

    def __post_init__(self):
        if self.weights.ndim != 2:
            raise ShapeError(f"fc weights shape {self.weights.shape}")
        if self.bias.shape != (self.out_features,):
            raise ShapeError(f"fc bias shape {self.bias.shape}")


def conv1d_init(in_channels: int, out_channels: int, kernel: int,
                rng: np.random.Generator) -> Conv1dLayer:
    """Uniform init in +-sqrt(1/fan_in), fan_in = kernel * in_channels."""
    bound = np.sqrt(1.0 / (kernel * in_channels))
    w = rng.uniform(-bound, bound, size=(kernel, in_channels, out_channels))
    b = rng.uniform(-bound, bound, size=out_channels)
    return Conv1dLayer(w, b)


def fc_init(in_features: int, out_features: int,
            rng: np.random.Generator) -> FcLayer:
    bound = np.sqrt(1.0 / in_features)
    w = rng.uniform(-bound, bound, size=(out_features, in_features))
    b = rng.uniform(-bound, bound, size=out_features)
    return FcLayer(w, b)


# ---------------------------------------------------------------------------
# convolution
# ---------------------------------------------------------------------------


def _padded(x: np.ndarray, half: int) -> np.ndarray:
    """A fresh float64 copy of x (..., T) with ``half`` zero columns at
    each end, so its window [i, i + T) holds each frame's neighbor at
    offset i - half."""
    t_len = x.shape[-1]
    xp = np.zeros(x.shape[:-1] + (t_len + 2 * half,))
    xp[..., half:half + t_len] = x
    return xp


def _taps(x: np.ndarray, kernel: int) -> np.ndarray:
    """Kernel taps of x (..., C, T) as one (..., kernel, C, T) float64 array.

    taps[..., i, c, t] = x[..., c, t - kernel//2 + i], zero outside the
    time axis. It is a fresh contiguous array, so each utterance's taps
    form one contiguous (kernel*C, T) block, the operand of its forward
    GEMM; each tap is written once, from x, and only its columns past
    either end are zeroed.
    """
    half, t_len = kernel // 2, x.shape[-1]
    taps = np.empty(x.shape[:-2] + (kernel,) + x.shape[-2:])
    for i in range(kernel):
        # tap i reads frame t + i - half: columns [lo, hi) reach a frame,
        # none of them when the tap is wider than the input
        lo = min(t_len, max(0, half - i))
        hi = max(lo, min(t_len, t_len + half - i))
        tap = taps[..., i, :, :]
        if lo:
            tap[..., :lo] = 0.0
        if lo < hi:
            tap[..., lo:hi] = x[..., lo + i - half:hi + i - half]
        if hi < t_len:
            tap[..., hi:] = 0.0
    return taps


def _flat_weights(layer: Conv1dLayer) -> np.ndarray:
    """(kernel*in, out) view of the weights; row i*in + c is tap i, channel c."""
    return layer.weights.reshape(-1, layer.out_channels)


def _apply_taps(layer: Conv1dLayer, taps: np.ndarray) -> np.ndarray:
    """bias + weights over a (..., kernel, C, T) tap array."""
    lead, t_len = taps.shape[:-3], taps.shape[-1]
    flat = taps.reshape(lead + (-1, t_len))
    out = np.matmul(_flat_weights(layer).T, flat)
    out += layer.bias[:, None]
    return out


def conv_param_grads(layer: Conv1dLayer, x: np.ndarray, grad_out: np.ndarray,
                     scale: np.ndarray | None = None):
    """(grad_weights, grad_bias) of a conv row with input x, each summed
    over the block in utterance order; a tconv row's taps are scaled by
    its similarities ``scale`` (..., kernel, T). Tap i's gradient is one
    GEMM per utterance on window i of the padded x, so a task of it holds
    one padded x and one scaled window, not a tap array."""
    t_len = x.shape[-1]
    xp = _padded(x, layer.kernel // 2).reshape(-1, layer.in_channels,
                                               t_len + layer.kernel - 1)
    grad = grad_out.reshape(-1, layer.out_channels, t_len)
    grad_t = grad.transpose(0, 2, 1)
    if scale is not None:
        scale = scale.reshape(-1, layer.kernel, 1, t_len)
    grad_weights = np.empty(layer.weights.shape)
    # one utterance's product is its sum and lands in grad_weights itself;
    # a block's products are summed in utterance order from one buffer
    prods = np.empty((len(xp),) + grad_weights.shape[1:]) if len(xp) > 1 else None
    for i in range(layer.kernel):
        window = xp[..., i:i + t_len]
        if scale is not None:
            window = window * scale[:, i]
        if prods is None:
            np.matmul(window, grad_t, out=grad_weights[i:i + 1])
        else:
            np.matmul(window, grad_t, out=prods).sum(axis=0, out=grad_weights[i])
    return grad_weights, grad.sum(axis=2).sum(axis=0)


def _grad_taps(layer: Conv1dLayer, grad_out: np.ndarray) -> np.ndarray:
    """Gradient of the loss with respect to each tap, (..., kernel, C, T)."""
    g = np.matmul(_flat_weights(layer), grad_out)
    return g.reshape(grad_out.shape[:-2]
                     + (layer.kernel, layer.in_channels, grad_out.shape[-1]))


def _scatter_taps(grad_taps: np.ndarray) -> np.ndarray:
    """Adjoint of _taps: add each tap's gradient back onto its source frame."""
    kernel, t_len = grad_taps.shape[-3], grad_taps.shape[-1]
    half = kernel // 2
    grad_xp = np.zeros(grad_taps.shape[:-3] + grad_taps.shape[-2:-1]
                       + (t_len + kernel - 1,))
    for i in range(kernel):
        grad_xp[..., i:i + t_len] += grad_taps[..., i, :, :]
    return grad_xp[..., half:half + t_len]


def conv1d_forward(layer: Conv1dLayer, x: np.ndarray) -> np.ndarray:
    """out[m, t] = bias[m] + sum_{i,c} w[i,c,m] * x[c, t - k//2 + i].

    Out-of-range time indices contribute zero, so the output keeps the
    input's time length. x is (C, T) or a block (B, C, T).
    """
    if x.ndim not in (2, 3) or x.shape[-2] != layer.in_channels:
        raise ShapeError(
            f"conv input has {x.shape} but layer expects {layer.in_channels} channels"
        )
    return _apply_taps(layer, _taps(x, layer.kernel))


def conv1d_backward(layer: Conv1dLayer, x: np.ndarray,
                    grad_out: np.ndarray) -> np.ndarray:
    """Adjoint of conv1d_forward in x; conv_param_grads gives the rest."""
    if grad_out.shape != x.shape[:-2] + (layer.out_channels, x.shape[-1]):
        raise ShapeError(f"grad_out shape {grad_out.shape}")
    return _scatter_taps(_grad_taps(layer, grad_out))


# ---------------------------------------------------------------------------
# dense / activations
# ---------------------------------------------------------------------------


def fc_forward(layer: FcLayer, x: np.ndarray) -> np.ndarray:
    """weights @ x + bias for x (F,) or a block (B, F)."""
    if x.ndim not in (1, 2) or x.shape[-1] != layer.in_features:
        raise ShapeError(f"fc input shape {x.shape} != ({layer.in_features},)")
    return np.matmul(layer.weights, x[..., None])[..., 0] + layer.bias


def fc_backward(layer: FcLayer, x: np.ndarray, grad_out: np.ndarray) -> np.ndarray:
    """Adjoint of fc_forward in x; fc_param_grads gives the rest."""
    if grad_out.shape != x.shape[:-1] + (layer.out_features,):
        raise ShapeError(f"fc grad shape {grad_out.shape}")
    return np.matmul(layer.weights.T, grad_out[..., None])[..., 0]


def fc_param_grads(layer: FcLayer, x: np.ndarray, grad_out: np.ndarray):
    """(grad_weights, grad_bias) of fc_forward, summed over the block."""
    grad = grad_out.reshape(-1, layer.out_features)
    grad_weights = (grad[:, :, None] * x.reshape(-1, layer.in_features)[:, None, :]
                    ).sum(axis=0)
    return grad_weights, grad.sum(axis=0)


def relu_forward(x: np.ndarray) -> np.ndarray:
    return np.maximum(x, 0.0)


def relu_backward(x: np.ndarray, grad_out: np.ndarray) -> np.ndarray:
    """Subgradient 0 at exactly 0."""
    return np.where(x > 0.0, grad_out, 0.0)


def extend_columns_forward(x: np.ndarray, t_len: int) -> np.ndarray:
    """A fresh copy of x (..., W) widened to t_len columns by repeating
    its last column."""
    width = x.shape[-1]
    return x[..., np.minimum(np.arange(t_len), width - 1)]


def extend_columns_backward(grad_out: np.ndarray, width: int) -> np.ndarray:
    """Adjoint of extend_columns_forward from ``width`` columns: the
    gradients of the last column and its repeats are summed into it."""
    grad = grad_out[..., :width].copy()
    grad[..., -1] = grad_out[..., width - 1:].sum(axis=-1)
    return grad


def sigmoid_forward(x: np.ndarray) -> np.ndarray:
    out = np.empty_like(x, dtype=np.float64)
    pos = x >= 0
    out[pos] = 1.0 / (1.0 + np.exp(-x[pos]))
    ex = np.exp(x[~pos])
    out[~pos] = ex / (1.0 + ex)
    return out


def sigmoid_backward(y: np.ndarray, grad_out: np.ndarray) -> np.ndarray:
    """Takes the forward *output* y = sigmoid(x)."""
    return grad_out * y * (1.0 - y)


NORM_EPS = 1e-12


def l2_normalize_forward(x: np.ndarray) -> np.ndarray:
    """Normalize each column (time step) over the channel axis, x (..., C, T).

    Columns with norm below NORM_EPS are divided by NORM_EPS instead, so
    the map stays differentiable everywhere it is evaluated.
    """
    norms = np.sqrt((x * x).sum(axis=-2, keepdims=True))
    return x / np.maximum(norms, NORM_EPS)


def l2_normalize_backward(x: np.ndarray, grad_out: np.ndarray) -> np.ndarray:
    norms = np.sqrt((x * x).sum(axis=-2, keepdims=True))
    denom = np.maximum(norms, NORM_EPS)
    dots = (x * grad_out).sum(axis=-2, keepdims=True)
    grad = grad_out / denom - x * (dots / denom ** 3)
    # below the floor the denominator is the constant NORM_EPS
    return np.where(norms < NORM_EPS, grad_out / NORM_EPS, grad)


# ---------------------------------------------------------------------------
# binary cross-entropy
# ---------------------------------------------------------------------------

BCE_CLAMP = 1e-7


def bce_loss(scores: np.ndarray, labels: np.ndarray,
             weights: np.ndarray | None = None):
    """Mean weighted BCE and its gradient with respect to ``scores``.

    loss = -(1/L) sum_j w_j [y_j log s_j + (1-y_j) log(1-s_j)]
    with s clamped to [1e-7, 1 - 1e-7]; the gradient is exact for the
    clamped expression (zero where the clamp is active). For a block of
    score rows (B, L) the loss is one mean per row.
    """
    if scores.shape != labels.shape:
        raise ShapeError(f"scores {scores.shape} vs labels {labels.shape}")
    n = scores.shape[-1]
    w = (np.ones(scores.shape) if weights is None
         else np.asarray(weights, dtype=np.float64))
    if w.shape != scores.shape:
        raise ShapeError(f"weights shape {w.shape}")
    y = np.asarray(labels, dtype=np.float64)
    s = np.clip(scores, BCE_CLAMP, 1.0 - BCE_CLAMP)
    loss = -(w * (y * np.log(s) + (1.0 - y) * np.log1p(-s))).sum(axis=-1) / n
    inside = (scores > BCE_CLAMP) & (scores < 1.0 - BCE_CLAMP)
    grad = np.where(inside, -(w / n) * (y / s - (1.0 - y) / (1.0 - s)), 0.0)
    return loss, grad


# ---------------------------------------------------------------------------
# optimizer
# ---------------------------------------------------------------------------


@dataclass
class OptimizerConfig:
    """Adam with classic additive-L2 weight decay and a step-halving
    learning-rate schedule: lr(epoch) = base_lr * 0.5 ** (epoch // period).
    """

    beta1: float = 0.9
    beta2: float = 0.999
    eps: float = 1e-9
    weight_decay: float = 1e-4
    base_lr: float = 1e-5
    halving_period_epochs: int = 5

    def __post_init__(self):
        # written so that NaN fails every check
        for name, ok, rule in (
                ("beta1", 0.0 <= self.beta1 < 1.0, "in [0, 1)"),
                ("beta2", 0.0 <= self.beta2 < 1.0, "in [0, 1)"),
                ("eps", self.eps > 0.0, "positive"),
                ("weight_decay", self.weight_decay >= 0.0, "non-negative"),
                ("base_lr", self.base_lr > 0.0, "positive"),
                ("halving_period_epochs", self.halving_period_epochs >= 1, "at least 1")):
            if not ok:
                raise ConfigError(
                    f"optimizer {name} must be {rule}, got {brief(getattr(self, name))}")

    def lr_for_epoch(self, epoch: int) -> float:
        return self.base_lr * 0.5 ** (epoch // self.halving_period_epochs)


# elements of each row that adam_step updates at a time
ADAM_SLICE = 1 << 16


def adam_step(config: OptimizerConfig, flat: np.ndarray, grad: np.ndarray,
              step: int, epoch: int) -> None:
    """Adam's update number ``step`` of ``flat`` (3, N), whose rows are the
    parameters, m and v, in place from the gradient ``grad`` (N,).

    Weight decay enters as an additive wd*theta gradient term before the
    moment updates (coupled L2 form). The gradient is checked before any
    row changes. The rows are updated ADAM_SLICE elements at a time with
    two scratch arrays of that size, so a buffer that holds many
    parameters (TdlModel's) needs only cache-sized temporaries; every
    operation is elementwise, so the slices change no bit.
    """
    if grad.ndim != 1 or flat.shape != (3, len(grad)):
        raise ShapeError(f"gradient shape {grad.shape} does not fit Adam buffer "
                         f"{flat.shape}")
    if not np.all(np.isfinite(grad)):
        raise NumericError("non-finite gradient")
    theta, m, v = flat
    lr = config.lr_for_epoch(epoch)
    bc1 = 1.0 - config.beta1 ** step
    bc2 = 1.0 - config.beta2 ** step
    g_all, t_all = np.empty_like(theta[:ADAM_SLICE]), np.empty_like(theta[:ADAM_SLICE])
    for lo in range(0, len(theta), ADAM_SLICE):
        s = slice(lo, lo + ADAM_SLICE)
        th, ms, vs = theta[s], m[s], v[s]
        g, t = g_all[:len(th)], t_all[:len(th)]
        np.multiply(th, config.weight_decay, out=g)
        g += grad[s]
        ms *= config.beta1
        ms += np.multiply(g, 1.0 - config.beta1, out=t)
        vs *= config.beta2
        np.multiply(g, g, out=t)
        t *= 1.0 - config.beta2
        vs += t
        # theta -= lr * (m / bc1) / (sqrt(v / bc2) + eps)
        np.sqrt(np.divide(vs, bc2, out=t), out=t)
        t += config.eps
        np.divide(ms, bc1, out=g)
        g *= lr
        g /= t
        th -= g


# ---------------------------------------------------------------------------
# gradient checking / parameter counting
# ---------------------------------------------------------------------------


@dataclass
class GradCheckEntry:
    name: str
    max_rel_err: float
    coords_checked: int
    passed: bool


@dataclass
class GradReport:
    tolerance: float
    entries: list

    @property
    def passed(self) -> bool:
        return all(e.passed for e in self.entries)

    @property
    def max_rel_err(self) -> float:
        return max((e.max_rel_err for e in self.entries), default=0.0)

    def worst(self) -> GradCheckEntry | None:
        return max(self.entries, key=lambda e: e.max_rel_err, default=None)


def grad_check(loss_fn, params: dict, analytic: dict, *, h: float = 1e-5,
               tolerance: float = 1e-6, max_coords: int = 200,
               seed: int = 0) -> GradReport:
    """Compare analytic gradients against central finite differences.

    ``loss_fn()`` re-evaluates the scalar loss from the current contents
    of ``params``; entries are perturbed in place and restored. Tensors
    larger than ``max_coords`` are sampled (seeded), smaller ones are
    checked exhaustively. Relative error uses the max(1, |a|, |n|)
    denominator; failures are reported, never raised.
    """
    rng = np.random.default_rng(seed)
    entries = []
    for name, theta in params.items():
        a = analytic[name]
        if a.shape != theta.shape:
            raise ShapeError(f"analytic gradient shape mismatch for {name}")
        size = theta.size
        if size > max_coords:
            coords = np.sort(rng.choice(size, size=max_coords, replace=False))
        else:
            coords = np.arange(size)
        worst = 0.0
        for c in coords:
            idx = np.unravel_index(c, theta.shape)
            orig = theta[idx]
            theta[idx] = orig + h
            f_plus = loss_fn()
            theta[idx] = orig - h
            f_minus = loss_fn()
            theta[idx] = orig
            numeric = (f_plus - f_minus) / (2.0 * h)
            ana = float(a[idx])
            rel = abs(ana - numeric) / max(1.0, abs(ana), abs(numeric))
            worst = max(worst, rel)
        entries.append(GradCheckEntry(name, worst, len(coords), worst < tolerance))
    return GradReport(tolerance, entries)


def count_params(params) -> int:
    """Exact count of trainable scalars in a name->array dict."""
    arrays = params.values() if hasattr(params, "values") else params
    return int(sum(int(np.asarray(a).size) for a in arrays))
