"""The full detection network: assembly, loss, training, checkpoints.

``NETWORK`` is the one description of the layer stack: an embedding
branch (conv_a, relu, conv_b, l2 normalize) whose neighbor similarities
modulate two tconv layers over the features, then a k=1 conv head, fc
and sigmoid that score every label frame. Time length is preserved up
to the fc. Forward, backward, layer construction, parameter and
checkpoint order, and the gradient-check battery all loop over its rows,
and ``OPS`` gives each row's op its forward and input backward, and a
layer op also its parameter gradients and init.

Total loss is BCE(scores, labels) plus ``esm_weight`` times the
embedding-separation loss, whose frame classes _esm_classes maps from
the same stacked labels; gradients flow through both the hinge terms
and the similarity-modulation path.

One core runs the stack on a block of B utterances, padded or not,
zero-filled to one (B, C, T) array. Training runs each minibatch through
it, ``score_pool`` scores and pools a set in blocks for dev EER and ``tdl
eval``, in forked runs of at least RUN_MIN_BLOCKS blocks where the set
has enough, and ``forward``/``predict``/``total_loss`` call it with B = 1. Every
primitive computes a block one GEMM per utterance, so an utterance's
scores do not depend on which other utterances share its block. At full
scale a block is one utterance, run on its live frame columns only and
widened to t_max before the fc, and a minibatch's blocks run on a thread
pool, at most workers + 1 unfinished at a time, when single-threaded
BLAS leaves cores free. Each layer row of a pooled block hands its
weight gradient to the same pool as a task of its own, and no task
waits on another; gradients are still added in block order.
"""

from __future__ import annotations

import ctypes
import io
import json
import math
import os
import pickle
import platform
import signal
import struct
import threading
import time
from dataclasses import asdict, dataclass, field

import numpy as np

from . import esm as esm_mod
from . import metrics as metrics_mod
from .data import (BOUNDARY1, LABEL_SETTINGS, REAL1_FAKE0, FeatureSequence,
                   FrameLabels, config_from_dict, parse_json, write_atomic)
from .errors import (
    ConfigError,
    FormatError,
    NumericError,
    ShapeError,
    ValidationError,
    brief,
)
from .esm import EsmConfig, EsmLoss
from .nn import (
    Conv1dLayer,
    FcLayer,
    GradReport,
    OptimizerConfig,
    adam_step,
    bce_loss,
    conv1d_backward,
    conv1d_forward,
    conv1d_init,
    conv_param_grads,
    count_params,
    extend_columns_backward,
    extend_columns_forward,
    fc_backward,
    fc_forward,
    fc_init,
    fc_param_grads,
    grad_check,
    l2_normalize_backward,
    l2_normalize_forward,
    relu_backward,
    relu_forward,
    sigmoid_backward,
    sigmoid_forward,
)
from .tconv import (
    neighbor_similarity,
    neighbor_similarity_backward,
    tconv_backward,
    tconv_forward,
)

BOUNDARY_BCE_WEIGHT = 100.0

# A block holds whole utterances and at most this many frame columns, or
# a single utterance that is longer on its own. At full scale (t_max
# 1050) that is one utterance per block, so a block run in turn holds one
# utterance's activations whatever the batch size, and so does the pool,
# which keeps at most workers + 1 blocks unfinished: train() on 8
# full-scale utterances on 2 workers peaked at 531-554 MB at batch 8 and
# 546-553 MB at batch 2 (693-709 MB at batch 8 queueing every block at
# once). The spare block is queued before the first blocks' weight tasks:
# with at most workers unfinished, train() on 3 full-scale utterances took
# 2.61-2.81 s, with workers + 1 2.14-2.45 s (2 cores, one BLAS thread).
# Only a one-utterance block is cut to its live columns (_live_width): a
# GEMM's column bits depend on its width, and an utterance's scores must
# be bit-identical alone and in any block.
BLOCK_FRAMES = 1024

# score_pool gives each process at least this many blocks: forked desk
# `tdl eval` runs, one per core, read 0.69x the speed of one process at 2
# blocks, 0.81x at 4, 1.12x at 8, 1.29x at 16 and 1.51x at 32 (2 cores,
# OPENBLAS_NUM_THREADS=1, medians of 30 alternating in-process pairs).
RUN_MIN_BLOCKS = 4

# glibc's M_MMAP_THRESHOLD (bytes) while blocks run on a thread pool, and
# after. Inside, a buffer a worker frees is unmapped instead of staying
# in that thread's malloc arena, where the main thread cannot reuse it;
# afterwards the main thread's buffers up to 16 MiB, full-scale
# activations among them, come from its heap again. Chosen on
# `bench/run.py --workload full-train` peak RSS, 2 cores, 3-4 seeds each:
# no setting 970-1019 MB (parent 826-849); 1 MiB for good 833-834 MB but
# set-up 1.25x slower; 1 MiB then 16 MiB 837-840 MB, no set-up cost seen
# in those runs; then 32 MiB 846-852 MB; 4 or 8 MiB inside 868-878 MB.
_POOL_MMAP_THRESHOLD = 1 << 20
_AFTER_POOL_MMAP_THRESHOLD = 16 << 20

# named sub-streams of the run seed
_STREAM_INIT = 1
_STREAM_BATCH = 2

# Keys of deleted settings as (section, key, value): TDLC v1 headers
# carry each at its one remaining value, which to_dict still writes and
# from_dict alone accepts.
_RETIRED_KEYS = ((None, "rectify_similarity", True),
                 ("esm", "pair_budget", None),
                 ("esm", "sample_seed", 0))


@dataclass
class TdlConfig:
    """Network, loss, and training configuration.

    The config-file key for ``esm_weight`` is ``lambda``; either spelling
    is accepted on load, but not both. The tconv width is feat_dim; a
    ``tconv_channels`` key, as TDLC v1 headers carry, must equal it, and
    each key of ``_RETIRED_KEYS`` must hold its v1 value.
    """

    feat_dim: int = 1024
    t_max: int = 1050
    embed_dim: int = 32
    conv_hidden: int = 512
    kernel: int = 3
    label_len: int = 132
    label_resolution_s: float = 0.16
    label_setting: str = REAL1_FAKE0
    esm: EsmConfig = field(default_factory=EsmConfig)
    esm_weight: float = 0.1
    optimizer: OptimizerConfig = field(default_factory=OptimizerConfig)
    epochs: int = 100
    batch_size: int = 8
    seed: int = 0

    def __post_init__(self):
        for name in ("feat_dim", "t_max", "embed_dim", "conv_hidden", "kernel",
                     "label_len", "epochs", "batch_size"):
            if getattr(self, name) <= 0:
                raise ConfigError(f"{name} must be positive")
        if self.seed < 0:
            raise ConfigError(f"seed {brief(self.seed)} must be non-negative")
        if self.kernel % 2 != 1:
            raise ConfigError("kernel must be odd")
        if self.label_len > self.t_max:
            raise ConfigError(
                f"label_len {brief(self.label_len)} exceeds t_max {brief(self.t_max)}"
            )
        if not self.esm_weight >= 0:  # NaN fails too
            raise ConfigError("lambda (esm_weight) must be >= 0")
        if self.label_setting not in LABEL_SETTINGS:
            raise ConfigError(f"unknown label_setting {brief(self.label_setting)}")
        if not self.label_resolution_s > 0:
            raise ConfigError("label_resolution_s must be positive")

    def to_dict(self) -> dict:
        obj = asdict(self)
        obj["lambda"] = obj.pop("esm_weight")
        obj["tconv_channels"] = self.feat_dim
        for section, key, value in _RETIRED_KEYS:
            (obj[section] if section else obj)[key] = value
        return obj

    @classmethod
    def from_dict(cls, obj: dict) -> "TdlConfig":
        obj = dict(obj)
        if isinstance(obj.get("esm"), dict):
            obj["esm"] = dict(obj["esm"])  # retired keys are popped from copies
        for section, key, value in _RETIRED_KEYS:
            where = obj.get(section) if section else obj
            if isinstance(where, dict) and key in where:
                given = where.pop(key)
                if type(given) is not type(value) or given != value:
                    name = f"{section}.{key}" if section else key
                    raise ConfigError(
                        f"{name} {brief(given)} is retired: only its TDLC v1 "
                        f"value {json.dumps(value)} is accepted")
        if "lambda" in obj and "esm_weight" in obj:
            raise ConfigError("config gives both lambda and esm_weight; keep one")
        if "lambda" in obj:
            obj["esm_weight"] = obj.pop("lambda")
        has_channels = "tconv_channels" in obj
        channels = obj.pop("tconv_channels", None)
        config = config_from_dict(cls, obj, "config")  # types feat_dim first
        if has_channels and (type(channels) is not int or channels != config.feat_dim):
            raise ConfigError(
                f"tconv_channels {brief(channels)} must equal feat_dim "
                f"{brief(config.feat_dim)}: the tconv stack runs on the features")
        return config


def full_scale_config(**overrides) -> TdlConfig:
    """The full-size configuration (1024-dim features, 1050 frames)."""
    return TdlConfig(**overrides)


def desk_config(**overrides) -> TdlConfig:
    """Scaled-down configuration that trains in seconds on a laptop."""
    base = dict(feat_dim=16, t_max=64, embed_dim=8, conv_hidden=16,
                kernel=3, label_len=16,
                optimizer=OptimizerConfig(base_lr=1e-2),
                epochs=30, batch_size=8, seed=7)
    base.update(overrides)
    return TdlConfig(**base)


# The layer stack in forward order. Each row is (output, op, inputs,
# layer, dims): ``op`` names a primitive, ``inputs`` name the feature
# block "x", its (B, T) mask "live" of non-padding frames or outputs of
# earlier rows, ``layer`` names the key of the row's parameters in
# TdlModel.layers and ``dims(config)`` gives that layer's (in, out,
# kernel), or (in, out) for the fc. The layer order is also the
# parameter order of checkpoints and the order of the seeded init draws.
NETWORK = (
    ("g1", "conv1d", ("x",), "conv_a",
     lambda c: (c.feat_dim, c.conv_hidden, c.kernel)),
    ("h1", "relu", ("g1",), None, None),
    ("g2", "conv1d", ("h1",), "conv_b",
     lambda c: (c.conv_hidden, c.embed_dim, c.kernel)),
    ("e", "l2_normalize", ("g2",), None, None),
    # one similarity matrix modulates both tconv layers
    ("a", "neighbor_similarity", ("e", "live"), None, None),
    ("t1", "tconv", ("x", "a"), "tconv_1",
     lambda c: (c.feat_dim, c.feat_dim, c.kernel)),
    ("h2", "relu", ("t1",), None, None),
    ("t2", "tconv", ("h2", "a"), "tconv_2",
     lambda c: (c.feat_dim, c.feat_dim, c.kernel)),
    ("h3", "relu", ("t2",), None, None),
    ("head", "conv1d", ("h3",), "conv_head", lambda c: (c.feat_dim, 2, 1)),
    # a block cut to its live columns ends in padding frames, where head is
    # one constant column per utterance: repeat it out to t_max
    ("head_t", "extend_columns", ("head",), None, None),
    ("logits", "fc", ("head_t",), "fc", lambda c: (2 * c.t_max, c.label_len)),
    ("scores", "sigmoid", ("logits",), None, None),
)
LAYERS = tuple(row[3] for row in NETWORK if row[3] is not None)


# Each NETWORK op's (forward, backward), plus the params and init of a
# layer op. forward(config, layer, args) is the row's output on its
# inputs ``args``. backward(layer, args, out, grad_out, first_grad)
# returns the gradients of ``args``: the first is None unless
# ``first_grad``, and the live mask's is None. params(layer, args,
# grad_out) returns the gradients of the layer's weights and bias, and
# init(*dims, rng) builds the layer. Entries look each primitive up as a
# tdl.model global when called, as bench/probes.py patches it there.
OPS = {
    "conv1d": (lambda c, w, a: conv1d_forward(w, a[0]),
               lambda w, a, out, g, first: (
                   conv1d_backward(w, a[0], g) if first else None,),
               lambda w, a, g: conv_param_grads(w, a[0], g),
               conv1d_init),
    "tconv": (lambda c, w, a: tconv_forward(w, a[0], a[1]),
              lambda w, a, out, g, first: tconv_backward(w, a[0], a[1], g, first),
              lambda w, a, g: conv_param_grads(w, a[0], g, a[1]),
              conv1d_init),
    "fc": (lambda c, w, a: fc_forward(w, a[0].reshape(len(a[0]), -1)),
           lambda w, a, out, g, *_: (
               fc_backward(w, a[0].reshape(len(a[0]), -1), g).reshape(a[0].shape),),
           lambda w, a, g: fc_param_grads(w, a[0], g),
           fc_init),
    "relu": (lambda c, w, a: relu_forward(a[0]),
             lambda w, a, out, g, *_: (relu_backward(a[0], g),)),
    "l2_normalize": (lambda c, w, a: l2_normalize_forward(a[0]),
                     lambda w, a, out, g, *_: (l2_normalize_backward(a[0], g),)),
    "neighbor_similarity": (
        lambda c, w, a: neighbor_similarity(a[0], a[1], c.kernel),
        lambda w, a, out, g, *_: (neighbor_similarity_backward(a[0], out, g), None)),
    "extend_columns": (
        lambda c, w, a: extend_columns_forward(a[0], c.t_max),
        lambda w, a, out, g, *_: (extend_columns_backward(g, a[0].shape[-1]),)),
    "sigmoid": (lambda c, w, a: sigmoid_forward(a[0]),
                lambda w, a, out, g, *_: (sigmoid_backward(out, g),)),
}


@dataclass
class TdlModel:
    """A network's layers and Adam state. ``flat`` (3, N) holds the
    parameters, Adam's m and Adam's v, one row each, in TDLC payload
    order; every layer array is a view of its first row (None in a
    shape_model). ``step`` counts adam_step's updates of it."""

    config: TdlConfig
    layers: dict[str, Conv1dLayer | FcLayer]  # in LAYERS order
    step: int = 0
    epoch: int = 0
    flat: np.ndarray | None = None

    def param_items(self) -> dict:
        out = {}
        for name, layer in self.layers.items():
            out[f"{name}.weights"] = layer.weights
            out[f"{name}.bias"] = layer.bias
        return out


@dataclass
class TdlLoss:
    total: float
    bce: float
    esm: EsmLoss


def _views(model: TdlModel, row: np.ndarray) -> dict:
    """Views of a flat buffer ``row`` in TDLC payload order, keyed and
    shaped as model.param_items()."""
    views, lo = {}, 0
    for name, value in model.param_items().items():
        views[name] = row[lo:lo + value.size].reshape(value.shape)
        lo += value.size
    return views


def _attach(model: TdlModel, flat: np.ndarray) -> TdlModel:
    """``model`` with ``flat`` (3, N) as its parameters and Adam moments:
    each layer array becomes a view of its first row."""
    params = _views(model, flat[0])
    for name, layer in model.layers.items():
        layer.weights, layer.bias = params[f"{name}.weights"], params[f"{name}.bias"]
    model.flat = flat
    return model


def _layers_only(config: TdlConfig, rng) -> TdlModel:
    """The model's layers, each drawing its arrays from ``rng``."""
    layers = {layer: OPS[op][3](*dims(config), rng)
              for _, op, _, layer, dims in NETWORK if layer is not None}
    return TdlModel(config=config, layers=layers)


def build_model(config: TdlConfig) -> TdlModel:
    """Seeded construction; parameters are uniform in +-sqrt(1/fan_in).
    Adam's moments start at 0."""
    model = _layers_only(config, np.random.default_rng([config.seed, _STREAM_INIT]))
    params = model.param_items()
    # zeroed pages are mapped on first write: moments cost no memory until
    # the first Adam step
    flat = np.zeros((3, count_params(params)))
    np.concatenate([value.ravel() for value in params.values()], out=flat[0])
    return _attach(model, flat)


class _ShapeDraws:
    """An init rng whose draws are read-only zero-stride zeros, so each
    layer gets its parameters' shapes but not their memory."""

    uniform = staticmethod(lambda low, high, size: np.broadcast_to(0.0, size))


def shape_model(config: TdlConfig) -> TdlModel:
    """The layers of build_model with each parameter's shape but not its
    memory, and no flat buffers; ConfigError when a dim is past numpy or
    float range."""
    try:
        return _layers_only(config, _ShapeDraws())
    except (ValueError, OverflowError) as exc:
        raise ConfigError(f"config too large: {exc}") from exc


def param_count_table(model: TdlModel):
    """Per-layer (name, count) rows plus the exact total."""
    rows = [(name, count_params([layer.weights, layer.bias]))
            for name, layer in model.layers.items()]
    return rows, sum(c for _, c in rows)


# ---------------------------------------------------------------------------
# forward / loss
# ---------------------------------------------------------------------------


def _check_pair(config: TdlConfig, seq: FeatureSequence,
                labels: FrameLabels | None = None) -> None:
    """ShapeError unless ``seq`` has feat_dim channels and at most t_max
    true frames, padded or not, and ``labels``, when given, are padded to
    label_len; ValidationError unless they were compiled at the config's
    label resolution and under its label_setting."""
    if seq.dim != config.feat_dim:
        raise ShapeError(
            f"{seq.sample_id}: feature dim {seq.dim} != feat_dim {config.feat_dim}"
        )
    if seq.true_frames > config.t_max:
        raise ShapeError(f"{seq.sample_id}: {seq.true_frames} true frames exceed "
                         f"t_max {config.t_max}")
    if labels is None:
        return
    if labels.labels.size != config.label_len:
        raise ShapeError(
            f"{labels.sample_id}: {labels.labels.size} labels != label_len "
            f"{config.label_len}"
        )
    if labels.resolution_s != config.label_resolution_s:
        raise ValidationError(f"{labels.sample_id}: labels at {labels.resolution_s} s "
                              f"!= label_resolution_s {config.label_resolution_s}")
    if labels.setting != config.label_setting:
        raise ValidationError(f"{labels.sample_id}: {labels.setting} labels != "
                              f"label_setting {config.label_setting}")


def _block_size(config: TdlConfig) -> int:
    """The utterances a block holds (see BLOCK_FRAMES)."""
    return max(1, BLOCK_FRAMES // config.t_max)


def _live_width(config: TdlConfig, true_frames) -> int:
    """The frame columns a block of utterances with ``true_frames`` runs on.

    A one-utterance block (see BLOCK_FRAMES) runs on its live frames and
    a halo of 2*(kernel//2), at least 1: conv_b at the last live frame
    reads h1 kernel//2 frames on, conv_a's input gradient reaches
    kernel//2 further, and the last column must be a padding frame for
    the extend_columns row to repeat. Any other block runs on t_max.
    """
    if _block_size(config) > 1:
        return config.t_max
    return min(config.t_max, max(true_frames) + max(1, 2 * (config.kernel // 2)))


def _zero_extended(array: np.ndarray, t_len: int) -> np.ndarray:
    """A fresh copy of ``array`` (..., W) with zero columns appended up
    to t_len."""
    out = np.zeros(array.shape[:-1] + (t_len,))
    out[..., :array.shape[-1]] = array
    return out


def _stack_block(config: TdlConfig, pairs):
    """(features (B, C, W) float64, true frame counts, labels) of
    (FeatureSequence, FrameLabels) pairs: each utterance's true frames,
    then zeros out to the block's _live_width W. Every pair passes
    _check_pair before the block is allocated; labels may be None."""
    for seq, labels in pairs:
        _check_pair(config, seq, labels)
    true_frames = [seq.true_frames for seq, _ in pairs]
    xv = np.zeros((len(pairs), config.feat_dim, _live_width(config, true_frames)))
    for row, (seq, _) in zip(xv, pairs):
        row[:, :seq.true_frames] = seq.values[:, :seq.true_frames]
    return xv, true_frames, [lab for _, lab in pairs]


def _run_rows(model: TdlModel, rows, acts: dict) -> dict:
    """Run ``rows`` forward, adding each output to the activations ``acts``."""
    for out, op, inputs, layer, _ in rows:
        acts[out] = OPS[op][0](model.config, layer and model.layers[layer],
                               [acts[n] for n in inputs])
    return acts


def _backprop_rows(model: TdlModel, rows, acts: dict, grads: dict,
                   input_grad: bool, submit=None) -> dict:
    """Walk ``rows`` in reverse from the output gradients in ``grads``.

    Each row's output gradient is popped and each input's gradient is
    added into ``grads``; the feature block "x" gets one only with
    ``input_grad``. Returns the parameter gradients keyed
    "<layer>.weights" and "<layer>.bias". Each layer row's OPS params run
    here, or with ``submit``, an executor's, as one task while the walk
    goes on; the task's Future stands under both keys.
    """
    param_grads = {}
    for out, op, inputs, layer, _ in reversed(rows):
        w, args, grad_out = (layer and model.layers[layer], [acts[n] for n in inputs],
                             grads.pop(out))
        if layer is not None:
            keys, params = (f"{layer}.weights", f"{layer}.bias"), OPS[op][2]
            if submit is None:
                param_grads.update(zip(keys, params(w, args, grad_out)))
            else:
                param_grads.update(dict.fromkeys(keys, submit(params, w, args, grad_out)))
        row_grads = OPS[op][1](w, args, acts[out], grad_out,
                               input_grad or inputs[0] != "x")
        for name, grad in zip(inputs, row_grads):
            if grad is not None:
                grads[name] = grads[name] + grad if name in grads else grad
    return param_grads


def _forward_block(model: TdlModel, xv: np.ndarray, true_frames) -> dict:
    """The stack on a block xv (B, C, W), as _stack_block builds it; frames
    past true_frames are padding.

    Every row up to head runs on the W columns, and head_t on t_max.
    Returns every activation by its NETWORK name, plus the row inputs "x",
    which is xv, and "live", the (B, W) mask of non-padding frames.
    """
    live = np.arange(xv.shape[-1]) < np.asarray(true_frames)[:, None]
    return _run_rows(model, NETWORK, {"x": xv, "live": live})


def forward(model: TdlModel, x: FeatureSequence):
    """Run the network on one utterance, padded or not.

    Returns the arrays (scores in (0,1)^L, embedding (embed_dim, t_max),
    similarity (kernel, t_max)). Where the utterance runs on its live
    columns only (_live_width), the embedding and similarity read 0 past
    them; the similarity is 0 on every padding frame anyway.
    """
    xv, true_frames, _ = _stack_block(model.config, [(x, None)])
    acts = _forward_block(model, xv, true_frames)
    t_max = model.config.t_max
    return (acts["scores"][0], _zero_extended(acts["e"][0], t_max),
            _zero_extended(acts["a"][0], t_max))


def total_loss(model: TdlModel, x: FeatureSequence, labels: FrameLabels):
    """BCE + lambda * ESM with gradients for every parameter and the input,
    the latter (feat_dim, t_max) whether ``x`` is padded or not.

    Under the boundary1 setting the BCE is weighted (100 on boundary
    frames) and the ESM term is skipped, since boundary labels do not
    carry per-frame authenticity classes.
    """
    losses, grads = _loss_block(model, *_stack_block(model.config, [(x, labels)]),
                                input_grad=True)
    grads["input"] = grads["input"][0]
    return losses, grads


def _loss_block(model: TdlModel, xv: np.ndarray, true_frames, labels,
                input_grad: bool = False, submit=None):
    """Loss core on a block xv (B, C, T) with one FrameLabels per utterance.

    Returns the block's TdlLoss, each term summed over its utterances,
    and the parameter gradients summed over them; with ``input_grad``
    also the (B, C, t_max) input gradient under "input", 0 past the
    block's _live_width columns. ``submit`` leaves the weight gradients
    to tasks (see _backprop_rows).
    """
    cfg = model.config
    acts = _forward_block(model, xv, true_frames)

    y = np.stack([lab.labels for lab in labels]).astype(np.float64)
    boundary = cfg.label_setting == BOUNDARY1
    weights = np.where(y == 1, BOUNDARY_BCE_WEIGHT, 1.0) if boundary else None
    bce, grad_scores = bce_loss(acts["scores"], y, weights)
    grads = {"scores": grad_scores}

    if cfg.esm_weight > 0 and not boundary:
        classes = _esm_classes(cfg, y, [lab.true_labels for lab in labels], acts["live"])
        esm_losses, grad_e_esm = esm_mod.esm_loss_from_arrays(acts["e"], classes, cfg.esm)
        grads["e"] = cfg.esm_weight * grad_e_esm
    else:
        esm_losses = EsmLoss(0.0, 0.0, 0.0)

    bce_total = float(bce.sum())
    total = bce_total + cfg.esm_weight * esm_losses.total
    if not np.isfinite(total):
        bad = [lab.sample_id for lab, v in zip(labels, bce) if not np.isfinite(v)]
        term = "bce" if bad else "esm"
        ids = ", ".join(bad or [lab.sample_id for lab in labels])
        raise NumericError(f"{ids}: non-finite {term} loss")

    param_grads = _backprop_rows(model, NETWORK, acts, grads, input_grad, submit)
    if input_grad:
        param_grads["input"] = _zero_extended(grads["x"], cfg.t_max)
    return TdlLoss(total, bce_total, esm_losses), param_grads


def _esm_classes(config: TdlConfig, labels: np.ndarray, true_labels,
                 live: np.ndarray) -> np.ndarray:
    """(B, W) int8 ESM classes of a block's (B, label_len) ``labels``:
    column t reads label floor(t * label_len / t_max), monotone in t, 0 at
    t = 0 and label_len - 1 at t = t_max - 1. Real is label 1 under
    real1_fake0, else 0 (_check_pair holds each label to the config's
    setting). Columns past an utterance's ``true_labels``, or where the
    (B, W) mask ``live`` is False, are PADDING."""
    j = (np.arange(live.shape[-1]) * labels.shape[1]) // config.t_max
    real = 1 if config.label_setting == REAL1_FAKE0 else 0
    classes = np.where(labels[:, j] == real, esm_mod.REAL, esm_mod.FAKE).astype(np.int8)
    classes[(j >= np.asarray(true_labels)[:, None]) | ~live] = esm_mod.PADDING
    return classes


def predict(model: TdlModel, x: FeatureSequence, true_labels: int) -> np.ndarray:
    """Per-frame scores trimmed to the utterance's ``true_labels`` label
    count, as ``compile_labels`` gives it."""
    label_len = model.config.label_len
    if not 0 < true_labels <= label_len:
        raise ShapeError(f"true_labels {true_labels} outside (0, {label_len}]")
    scores, _, _ = forward(model, x)
    return scores[:true_labels].copy()


# ---------------------------------------------------------------------------
# checkpoints (TDLC)
# ---------------------------------------------------------------------------

TDLC_MAGIC = b"TDLC"
TDLC_VERSION = 1
_TDLC_HEAD = struct.Struct("<4sII")


def _checkpoint_chunks(model: TdlModel) -> list:
    """The TDLC encoding of ``model`` as a list of buffers: the fixed and
    JSON headers, then a zero-copy view of its flat buffers."""
    params = model.param_items()
    header = {
        "format": "TDLC",
        "version": TDLC_VERSION,
        "config": model.config.to_dict(),
        "epoch": model.epoch,
        "adam": {**asdict(model.config.optimizer), "step": model.step},
        "params": list(params.keys()),
        "param_shapes": {k: list(v.shape) for k, v in params.items()},
    }
    header_bytes = json.dumps(header, sort_keys=True,
                              separators=(",", ":")).encode("utf-8")
    # a view unless the host is big-endian
    payload = np.ascontiguousarray(model.flat, dtype="<f8")
    return [_TDLC_HEAD.pack(TDLC_MAGIC, TDLC_VERSION, len(header_bytes)),
            header_bytes, memoryview(payload).cast("B")]


def encode_checkpoint(model: TdlModel) -> bytes:
    return b"".join(_checkpoint_chunks(model))


_TDLC_KEYS = ("adam", "config", "epoch", "params", "param_shapes")


def _check_header(header) -> None:
    """FormatError unless the JSON header has every key, each of its kind."""
    if not isinstance(header, dict):
        raise FormatError("checkpoint header is not a JSON object")
    missing = [key for key in _TDLC_KEYS if key not in header]
    if missing:
        raise FormatError(f"checkpoint header lacks {missing}")
    for key in ("adam", "config", "param_shapes"):
        if not isinstance(header[key], dict):
            raise FormatError(f"checkpoint {key} is not a JSON object")
    adam_keys = set(OptimizerConfig.__dataclass_fields__) | {"step"}
    if set(header["adam"]) != adam_keys:
        raise FormatError(
            f"checkpoint adam keys {brief(sorted(header['adam']))} != "
            f"{sorted(adam_keys)}"
        )
    for name, value in (("epoch", header["epoch"]),
                        ("adam step", header["adam"]["step"])):
        if isinstance(value, bool) or not isinstance(value, int) or value < 0:
            raise FormatError(
                f"checkpoint {name} {brief(value)} is not a non-negative integer")


def _read_checkpoint(fh, size: int) -> TdlModel:
    """The model in the TDLC stream ``fh`` of ``size`` bytes. Every check
    runs before any array is allocated; the payload is then read straight
    into the model's flat buffers."""
    head = fh.read(_TDLC_HEAD.size)
    if len(head) < _TDLC_HEAD.size:
        raise FormatError("checkpoint truncated in fixed header")
    magic, version, header_len = _TDLC_HEAD.unpack(head)
    if magic != TDLC_MAGIC:
        raise FormatError(f"bad checkpoint magic {magic!r}")
    if version != TDLC_VERSION:
        raise FormatError(f"unsupported checkpoint version {version}")
    offset = _TDLC_HEAD.size + header_len
    if size < offset:
        raise FormatError("checkpoint truncated in JSON header")
    try:
        text = fh.read(header_len).decode("utf-8")
    except UnicodeDecodeError as exc:
        raise FormatError(f"checkpoint header: not UTF-8 text: {exc}") from exc
    header = parse_json(text, "checkpoint header")
    _check_header(header)

    try:
        config = TdlConfig.from_dict(header["config"])
        # shapes only: memory is allocated once the payload is known to fit
        model = shape_model(config)
    except ConfigError as exc:
        raise FormatError(f"checkpoint header: {exc}") from exc
    # training reads config.optimizer; the adam copy must agree with it
    for key, value in asdict(config.optimizer).items():
        if header["adam"][key] != value:
            raise FormatError(f"checkpoint adam {key} {brief(header['adam'][key])} "
                              f"!= config.optimizer {key} {brief(value)}")
    model.epoch = header["epoch"]
    model.step = header["adam"]["step"]

    shapes = {name: value.shape for name, value in model.param_items().items()}
    if header["params"] != list(shapes) or header["param_shapes"] != {
            name: list(shape) for name, shape in shapes.items()}:
        raise FormatError("checkpoint parameter list mismatch")
    count = sum(math.prod(shape) for shape in shapes.values())
    if size != offset + 3 * 8 * count:
        raise FormatError(
            f"checkpoint payload is {size - offset} bytes, expected {3 * 8 * count}"
        )
    flat = np.empty((3, count), dtype="<f8")
    if fh.readinto(memoryview(flat).cast("B")) != flat.nbytes:
        raise FormatError("checkpoint truncated while reading")
    return _attach(model, flat.astype(np.float64, copy=False))


def decode_checkpoint(blob: bytes) -> TdlModel:
    return _read_checkpoint(io.BytesIO(blob), len(blob))


def save_checkpoint(model: TdlModel, path) -> None:
    write_atomic(path, *_checkpoint_chunks(model))


def load_checkpoint(path) -> TdlModel:
    with open(path, "rb") as fh:
        try:
            return _read_checkpoint(fh, os.fstat(fh.fileno()).st_size)
        except FormatError as exc:
            raise FormatError(f"{path}: {exc}") from exc


# ---------------------------------------------------------------------------
# training
# ---------------------------------------------------------------------------


@dataclass
class TrainRecord:
    epoch: int
    mean_bce: float
    mean_esm_real: float
    mean_esm_fake: float
    mean_esm_diff: float
    mean_esm_total: float
    mean_total: float
    learning_rate: float
    wall_time_s: float
    dev_eer_pct: float

    def to_dict(self) -> dict:
        return asdict(self)


@dataclass
class TrainResult:
    last_model: TdlModel
    best_checkpoint: bytes
    best_epoch: int
    best_dev_eer: float
    records: list
    diverged: bool = False


def _validate_set(config: TdlConfig, dataset, name: str,
                  both_classes: bool = False):
    """_check_pair on every pair; with ``both_classes`` the set must also hold
    frames of both label values, without which its EER is undefined."""
    if not dataset:
        raise ValidationError(f"{name} set is empty")
    for seq, labels in dataset:
        try:
            _check_pair(config, seq, labels)
        except (ShapeError, ValidationError) as exc:
            raise type(exc)(f"{name}: {exc}") from exc
    if both_classes:
        pooled = np.concatenate([lab.labels[:lab.true_labels] for _, lab in dataset])
        if pooled.min() == pooled.max():
            raise ValidationError(
                f"{name} set has only label-{pooled[0]} frames; its EER needs "
                "both classes"
            )


def score_pool(model: TdlModel, dataset) -> metrics_mod.EvalPool:
    """The pooled per-frame scores and labels of ``dataset``, a sequence of
    (features, labels) pairs whose slices are lists; scores equal
    ``predict``'s.

    Its B blocks of _block_size utterances are scored in W contiguous
    runs, run i starting at block i*B//W, W = min(_block_workers(), B //
    RUN_MIN_BLOCKS) or 1, and 1 where os.fork is missing or another thread
    runs (a fork copies only the calling thread). This process scores run
    0 and a forked child each other run. A run slices each block when it
    reaches it and pools its live label frames (the first true_labels of
    each row, row-major) before it slices the next, so no per-utterance
    object outlives its block. Scores do not depend on the block, so the
    pools joined in run order hold one run's arrays. A run whose child
    ends without a result is scored here after the runs before it, so the
    first failing run raises one run's error; children still running are
    killed and reaped.
    """
    cfg, size, count = model.config, _block_size(model.config), len(dataset)
    if not count:
        raise ValidationError("no utterances to score")
    blocks = -(-count // size)
    runs = max(1, min(_block_workers(), blocks // RUN_MIN_BLOCKS))
    if not hasattr(os, "fork") or threading.active_count() > 1:
        runs = 1
    cuts = [i * blocks // runs * size for i in range(runs + 1)]

    def score(run: int):
        scores, labels = [], []
        for lo in range(cuts[run], cuts[run + 1], size):
            block = dataset[lo:lo + size]
            xv, true_frames, labs = _stack_block(cfg, block)
            live = np.arange(cfg.label_len) < [[lab.true_labels] for lab in labs]
            scores.append(_forward_block(model, xv, true_frames)["scores"][live])
            labels.append(np.stack([lab.labels for lab in labs])[live])
            del block, labs, xv  # freed before the next is read: fewer page faults
        return np.concatenate(scores), np.concatenate(labels)

    children = {}  # run -> (pid, fd of the pipe its result comes on)
    try:
        for run in range(1, runs):
            children[run] = _forked(score, run)
        parts = [score(0)]
        for run in range(1, runs):
            parts.append(_joined(*children.pop(run)) or score(run))
    finally:
        for pid, fd in children.values():
            os.kill(pid, signal.SIGKILL)
            os.close(fd)
            os.waitpid(pid, 0)
    scores, labels = zip(*parts)
    return metrics_mod.EvalPool(np.concatenate(scores), np.concatenate(labels),
                                count)


def _forked(fn, *args):
    """(pid, fd) of a forked child that writes ``fn(*args)`` pickled to the
    pipe ``fd`` reads and exits with status 0, or exits with status 1 when
    ``fn`` raises."""
    read_fd, write_fd = os.pipe()
    try:
        pid = os.fork()
    except BaseException:
        os.close(read_fd)
        os.close(write_fd)
        raise
    if pid == 0:
        status = 1
        try:
            os.close(read_fd)
            raw = pickle.dumps(fn(*args), pickle.HIGHEST_PROTOCOL)
            with open(write_fd, "wb") as pipe:
                pipe.write(raw)
            status = 0
        finally:
            os._exit(status)  # no traceback, atexit handler or stdio flush
    os.close(write_fd)
    return pid, read_fd


def _joined(pid: int, fd: int):
    """The result of the child ``pid`` that ``_forked`` started, once it
    has exited, or None when it exits without one."""
    try:
        with open(fd, "rb") as pipe:
            raw = pipe.read()
    finally:
        status = os.waitpid(pid, 0)[1]
    return pickle.loads(raw) if os.waitstatus_to_exitcode(status) == 0 else None


def dev_eer(model: TdlModel, dev_set) -> float:
    """Frame-level EER (percent) of the dev set, scored in blocks."""
    return metrics_mod.eer(score_pool(model, dev_set))[0]


def _block_workers() -> int:
    """Blocks that can run at once: the usable cores over the BLAS threads
    one GEMM takes, which is every core unless OPENBLAS_NUM_THREADS, or
    else OMP_NUM_THREADS, is a positive count in ASCII digits."""
    cores = (len(os.sched_getaffinity(0)) if hasattr(os, "sched_getaffinity")
             else os.cpu_count() or 1)
    counts = [os.environ.get(name, "").lstrip("0")
              for name in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS")]
    per_call = next((c for c in counts if c.isascii() and c.isdigit()), str(cores))
    # ten digits or more are past any core count (and past int()'s limit)
    return max(1, cores // int(per_call)) if len(per_call) < 10 else 1


def _mmap_threshold(nbytes: int) -> None:
    """Have glibc map each buffer over ``nbytes`` on its own, so that
    freeing one returns its pages to the system, and return a free heap
    top over ``nbytes`` too: freeing a mapped buffer before (as
    build_model does with its drawn arrays) raises glibc's trim
    threshold to twice that buffer, and the heap keeps that much freed
    memory. Other C libraries are left alone."""
    if platform.libc_ver()[0] == "glibc":
        mallopt = ctypes.CDLL(None).mallopt
        mallopt.argtypes, mallopt.restype = (ctypes.c_int, ctypes.c_int), ctypes.c_int
        mallopt(-3, nbytes)  # M_MMAP_THRESHOLD
        mallopt(-1, nbytes)  # M_TRIM_THRESHOLD


def _block_losses(model: TdlModel, batch):
    """(TdlLoss, parameter gradients) of each block of ``batch``, in order.

    A minibatch of several blocks runs on a thread pool with at most
    workers + 1 blocks unfinished, weight tasks included (see
    BLOCK_FRAMES): the first workers + 1 are submitted back to back, and
    the next each time this thread has a block's gradients. Each block's
    layer rows submit their weight gradients to the same pool, which
    runs tasks in the order queued. No task waits on another: this
    thread waits for each block and then its weight tasks, in block
    order, so the results do not depend on the worker count. An
    exception cancels the blocks still queued.
    """
    size = _block_size(model.config)
    blocks = [batch[lo:lo + size] for lo in range(0, len(batch), size)]
    workers = min(len(blocks), _block_workers())
    run = lambda block, submit=None: _loss_block(
        model, *_stack_block(model.config, block), submit=submit)
    if workers == 1:
        yield from map(run, blocks)
        return
    # imported here, as only a pooled minibatch needs it (and the logging
    # module it loads)
    from concurrent.futures import ThreadPoolExecutor
    pool = ThreadPoolExecutor(workers)
    _mmap_threshold(_POOL_MMAP_THRESHOLD)
    try:
        start = lambda block: pool.submit(run, block, pool.submit)
        window = [start(block) for block in blocks[:workers + 1]]
        for i in range(len(blocks)):
            losses, grads = window.pop(0).result()
            # a layer row's two keys hold the Future of its (weights, bias)
            grads = {key: grad.result()[1 if key.endswith(".bias") else 0]
                     for key, grad in grads.items()}
            if i + workers + 1 < len(blocks):
                window.append(start(blocks[i + workers + 1]))
            yield losses, grads
    finally:
        pool.shutdown(cancel_futures=True)  # what an exception left queued
        _mmap_threshold(_AFTER_POOL_MMAP_THRESHOLD)


def _minibatch_step(model: TdlModel, batch, epoch: int) -> np.ndarray:
    """One Adam step on the mean gradient of a minibatch of (features,
    labels) pairs; returns its summed (bce, real, fake, diff, total).

    The blocks' gradients are summed in block order into one flat buffer
    that lives only as long as the step. Every gradient is checked before
    the Adam state or any parameter changes.
    """
    grad, sums = np.empty(model.flat.shape[1]), np.zeros(5)
    views = _views(model, grad)
    for i, (losses, grads) in enumerate(_block_losses(model, batch)):
        sums += (losses.bce, losses.esm.l_real, losses.esm.l_fake,
                 losses.esm.l_diff, losses.total)
        while grads:  # each array is freed once it is added
            key, value = grads.popitem()
            if i:
                views[key] += value
            else:
                views[key][...] = value
        del value
    grad /= len(batch)
    try:
        adam_step(model.config.optimizer, model.flat, grad, model.step + 1, epoch)
    except NumericError:
        bad = next(k for k, value in views.items() if not np.isfinite(value).all())
        raise NumericError(f"non-finite gradient for parameter {bad}") from None
    model.step += 1
    return sums


class _Snapshot:
    """The training state a divergence restores, copied into a buffer that
    the first copy allocates. Adam's moments are 0 before its first step,
    and only the parameters are copied then."""

    buffer = None

    def take(self, model: TdlModel) -> None:
        self.counters = model.epoch, model.step
        if self.buffer is None:
            self.buffer = np.empty_like(model.flat)
        rows = 3 if model.step else 1
        np.copyto(self.buffer[:rows], model.flat[:rows])

    def restore(self, model: TdlModel) -> None:
        """Copy the snapshot back into ``model``'s own buffers."""
        model.epoch, model.step = self.counters
        rows = 3 if model.step else 1
        np.copyto(model.flat[:rows], self.buffer[:rows])
        model.flat[rows:] = 0.0


def epochs(config: TdlConfig, train_set, dev_set, model: TdlModel):
    """Seeded full-batch-shuffled minibatch training of ``model`` in place,
    yielding each completed epoch's TrainRecord after its dev EER.

    Datasets are iterables of (FeatureSequence, FrameLabels), features
    of at most t_max true frames, padded or not, and labels padded to
    label_len; each is taken whole into a list. Each minibatch runs as
    one block (several when it exceeds BLOCK_FRAMES columns), its
    gradients are averaged over its utterances in one flat buffer that
    lives only as long as the step, and one adam_step updates the
    model's (3, N) buffer of parameters, m and v (TdlModel.flat) from it.
    If the loss goes non-finite the last completed epoch's state is
    restored and the generator returns, so a run diverged when it leaves
    ``model.epoch < config.epochs``. ``model`` must have epochs left to
    train under a config that differs from its own in ``epochs`` at most;
    that is checked before either set is read.

    A minibatch of several blocks runs them on a thread pool, at most
    workers + 1 unfinished at a time, when the usable cores exceed the
    BLAS threads per call (see _block_workers). The weight-gradient GEMMs
    (one per tap) and bias sum of each of their conv and tconv rows are a
    pool task too, so a worker left without a block computes them while
    the last block runs; no task waits on another, and gradients are
    added in block order, so the result does not depend on the worker count.
    The first such minibatch changes malloc settings for the whole
    process under glibc: the dynamic mmap threshold is switched off and
    left at _AFTER_POOL_MMAP_THRESHOLD, and the trim threshold with it,
    as glibc cannot report the previous settings to restore.
    """
    # resuming may extend the epoch budget but nothing else
    a, b = model.config.to_dict(), config.to_dict()
    a.pop("epochs"), b.pop("epochs")
    if a != b:
        raise ConfigError("resume checkpoint config differs from run config")
    if model.epoch >= config.epochs:
        raise ConfigError(
            f"resume checkpoint is at epoch {model.epoch}, which leaves "
            f"nothing to train in epochs {config.epochs}")
    train_set, dev_set = list(train_set), list(dev_set)
    _validate_set(config, train_set, "train")
    _validate_set(config, dev_set, "dev", both_classes=True)
    model.config = config
    n = len(train_set)
    last_good = _Snapshot()

    for epoch in range(model.epoch, config.epochs):
        last_good.take(model)
        start = time.perf_counter()
        order = np.random.default_rng(
            [config.seed, _STREAM_BATCH, epoch]
        ).permutation(n)
        sums = np.zeros(5)  # bce, real, fake, diff, total
        try:
            for lo in range(0, n, config.batch_size):
                batch = [train_set[i] for i in order[lo:lo + config.batch_size]]
                sums += _minibatch_step(model, batch, epoch)
        except NumericError:
            last_good.restore(model)
            return

        if epoch + 1 == config.epochs:
            last_good = None  # freed before the last dev pass and encode
        model.epoch = epoch + 1
        eer_pct = dev_eer(model, dev_set)
        yield TrainRecord(
            epoch=epoch,
            mean_bce=sums[0] / n,
            mean_esm_real=sums[1] / n,
            mean_esm_fake=sums[2] / n,
            mean_esm_diff=sums[3] / n,
            mean_esm_total=(sums[1] + sums[2] + sums[3]) / n,
            mean_total=sums[4] / n,
            learning_rate=config.optimizer.lr_for_epoch(epoch),
            wall_time_s=time.perf_counter() - start,
            dev_eer_pct=eer_pct,
        )


def train(config: TdlConfig, train_set, dev_set,
          init_model: TdlModel | None = None) -> TrainResult:
    """``epochs`` run to the end on ``init_model``, or on a model built
    from ``config``, with the model encoded as the best checkpoint
    whenever dev EER improves (the last model when no epoch completed)."""
    model = init_model if init_model is not None else build_model(config)
    records, best_bytes, best_eer, best_epoch = [], None, math.inf, model.epoch
    for record in epochs(config, train_set, dev_set, model):
        records.append(record)
        if record.dev_eer_pct < best_eer:
            best_eer, best_epoch = record.dev_eer_pct, record.epoch
            best_bytes = None  # freed before the new one is encoded
            best_bytes = encode_checkpoint(model)
    diverged = model.epoch < config.epochs
    if diverged and not records:
        best_eer = math.nan
    return TrainResult(model, best_bytes or encode_checkpoint(model), best_epoch,
                       best_eer, records, diverged)


# ---------------------------------------------------------------------------
# gradient-check battery
# ---------------------------------------------------------------------------

GRADCHECK_CONFIGS = {
    "tiny": dict(feat_dim=8, t_max=12, embed_dim=4, conv_hidden=8, label_len=4),
    "small": dict(feat_dim=12, t_max=24, embed_dim=6, conv_hidden=12, label_len=8),
}


def _checked(name: str, rng, tolerance: float, loss_fn, params: dict,
             analytic: dict) -> list:
    """grad_check entries of ``params``, each named "<name>.<param>"."""
    rep = grad_check(loss_fn, params, analytic, tolerance=tolerance,
                     seed=int(rng.integers(1 << 31)))
    for en in rep.entries:
        en.name = f"{name}.{en.name}"
    return rep.entries


def _row_check(model: TdlModel, row, acts: dict, rng, tolerance: float) -> list:
    """Finite-difference check of one NETWORK row at ``acts``.

    The scalar is a fixed random projection of the row's output; the
    checked tensors are the row's inputs that take a gradient (not the
    live mask) and its layer parameters, through the same forward and
    backward loops as training.
    """
    out, op, inputs, layer, _ = row
    proj = rng.standard_normal(acts[out].shape)

    def loss_fn():
        return float(np.sum(_run_rows(model, (row,), dict(acts))[out] * proj))

    grads = {out: proj}
    layer_grads = _backprop_rows(model, (row,), acts, grads, True)
    params = {name: acts[name] for name in inputs if name in grads}
    analytic = {name: grads[name] for name in params}
    if layer is not None:
        for part in ("weights", "bias"):
            params[part] = getattr(model.layers[layer], part)
            analytic[part] = layer_grads[f"{layer}.{part}"]
    name = op if layer is None else f"{op}.{layer}"
    return _checked(name, rng, tolerance, loss_fn, params, analytic)


def _op_reports(model: TdlModel, acts: dict, labels: FrameLabels, rng,
                tolerance: float) -> list:
    """Checks of every NETWORK row and both loss terms at ``acts``."""
    entries = []
    for row in NETWORK:
        entries += _row_check(model, row, acts, rng, tolerance)

    scores, e = acts["scores"], acts["e"]
    y = labels.labels[None].astype(np.float64)
    entries += _checked("bce", rng, tolerance,
                        lambda: float(bce_loss(scores, y)[0].sum()),
                        {"scores": scores}, {"scores": bce_loss(scores, y)[1]})
    classes = _esm_classes(model.config, y, [labels.true_labels], acts["live"])
    esm_cfg = model.config.esm
    entries += _checked(
        "esm", rng, tolerance,
        lambda: esm_mod.esm_loss_from_arrays(e, classes, esm_cfg)[0].total,
        {"e": e}, {"e": esm_mod.esm_loss_from_arrays(e, classes, esm_cfg)[1]})
    return entries


def gradcheck_battery(size: str = "tiny", seed: int = 0,
                      tolerance: float = 1e-4) -> GradReport:
    """Finite-difference audit of every NETWORK row, both loss terms and
    the full model loss, all on one random utterance whose last quarter
    of frames is zero padding.

    The row and loss-term checks run at the utterance's activations. The
    model check perturbs all parameters and all input coordinates and
    compares against the analytic gradients from the block loss.
    """
    if size not in GRADCHECK_CONFIGS:
        raise ConfigError(f"unknown gradcheck size {size!r}")
    rng = np.random.default_rng([seed, 17])
    dims = GRADCHECK_CONFIGS[size]
    config = TdlConfig(**dims, seed=seed, esm_weight=0.1,
                       esm=EsmConfig(tau_same=0.9, tau_diff=0.0))
    model = build_model(config)
    t = config.t_max - config.t_max // 4
    x64 = rng.standard_normal((config.feat_dim, config.t_max))
    x64[:, t:] = 0.0
    lab = np.zeros(config.label_len, dtype=np.int8)
    lab[: config.label_len // 2] = 1
    labels = FrameLabels("gradcheck", config.label_resolution_s, lab,
                         config.label_len, REAL1_FAKE0)
    xv = x64[None, :, :_live_width(config, [t])]  # a view: it sees x64 perturbed
    entries = _op_reports(model, _forward_block(model, xv, [t]), labels, rng,
                          tolerance)

    def model_loss():
        return _loss_block(model, xv, [t], [labels])[0].total

    _, grads = _loss_block(model, xv, [t], [labels], input_grad=True)
    grads["input"] = grads["input"][0]
    params = dict(model.param_items())
    params["input"] = x64
    analytic = {k: grads[k] for k in params}
    rep = grad_check(model_loss, params, analytic, tolerance=tolerance,
                     max_coords=1 << 30, seed=seed)
    for en in rep.entries:
        en.name = f"model.{en.name}"
    return GradReport(tolerance, entries + rep.entries)
