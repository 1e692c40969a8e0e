"""The full detection network: assembly, loss, training, checkpoints.

Layer stack (time length is preserved throughout):

    features (D x T) --conv_a k3--> hidden --relu--conv_b k3--> embed
                                                   --l2 normalize--> e
    e --neighbor similarity--> a (k x T, shared by both tconv layers)
    features --tconv_1/a--relu--tconv_2/a--relu--conv_head k1--> (2 x T)
    flatten --fc--> logits (L) --sigmoid--> per-frame scores

Total loss is BCE(scores, labels) plus ``esm_weight`` times the
embedding-separation loss; gradients flow through both the hinge terms
and the similarity-modulation path.

One core runs the stack on a block of B padded utterances stacked as a
(B, C, T) array. Training runs each minibatch through it, dev EER
forwards the dev set in blocks, and ``forward``/``predict``/``total_loss``
call it with B = 1. Every primitive computes a block one GEMM per
utterance, so an utterance's scores do not depend on which other
utterances share its block.
"""

from __future__ import annotations

import json
import struct
import time
from dataclasses import dataclass, field
from pathlib import Path

import numpy as np

from . import esm as esm_mod
from . import metrics as metrics_mod
from .data import BOUNDARY1, REAL1_FAKE0, FeatureSequence, FrameLabels, LABEL_SETTINGS
from .errors import (
    ConfigError,
    FormatError,
    NumericError,
    ShapeError,
    ValidationError,
)
from .esm import EmbeddingSequence, EsmConfig, EsmLoss
from .nn import (
    AdamState,
    Conv1dLayer,
    FcLayer,
    GradReport,
    adam_step,
    bce_loss,
    conv1d_backward,
    conv1d_forward,
    conv1d_init,
    count_params,
    fc_backward,
    fc_forward,
    fc_init,
    grad_check,
    l2_normalize_backward,
    l2_normalize_forward,
    relu_backward,
    relu_forward,
    sigmoid_backward,
    sigmoid_forward,
)
from .tconv import (
    SimilarityMatrix,
    TconvLayer,
    neighbor_similarity,
    neighbor_similarity_backward,
    tconv_backward,
    tconv_forward,
    tconv_init,
)

BOUNDARY_BCE_WEIGHT = 100.0

# A block holds whole utterances and at most this many frame columns, or
# a single utterance that is longer on its own. At full scale (t_max
# 1050) that is one utterance per block, so the working set does not
# grow with the batch size.
BLOCK_FRAMES = 1024

# named sub-streams of the run seed
_STREAM_INIT = 1
_STREAM_BATCH = 2


@dataclass
class OptimizerConfig:
    beta1: float = 0.9
    beta2: float = 0.999
    eps: float = 1e-9
    weight_decay: float = 1e-4
    base_lr: float = 1e-5
    halving_period_epochs: int = 5

    def make_state(self) -> AdamState:
        return AdamState(
            beta1=self.beta1, beta2=self.beta2, eps=self.eps,
            weight_decay=self.weight_decay, base_lr=self.base_lr,
            halving_period_epochs=self.halving_period_epochs,
        )

    def to_dict(self) -> dict:
        return {
            "beta1": self.beta1, "beta2": self.beta2, "eps": self.eps,
            "weight_decay": self.weight_decay, "base_lr": self.base_lr,
            "halving_period_epochs": self.halving_period_epochs,
        }

    @classmethod
    def from_dict(cls, obj: dict) -> "OptimizerConfig":
        unknown = set(obj) - set(cls.__dataclass_fields__)
        if unknown:
            raise ConfigError(f"unknown optimizer keys: {sorted(unknown)}")
        return cls(**obj)


@dataclass
class TdlConfig:
    """Network, loss, and training configuration.

    The config-file key for ``esm_weight`` is ``lambda``; both spellings
    are accepted on load.
    """

    feat_dim: int = 1024
    t_max: int = 1050
    embed_dim: int = 32
    conv_hidden: int = 512
    tconv_channels: int = 1024
    kernel: int = 3
    label_len: int = 132
    label_resolution_s: float = 0.16
    label_setting: str = REAL1_FAKE0
    esm: EsmConfig = field(default_factory=EsmConfig)
    esm_weight: float = 0.1
    rectify_similarity: bool = True
    optimizer: OptimizerConfig = field(default_factory=OptimizerConfig)
    epochs: int = 100
    batch_size: int = 8
    seed: int = 0

    def __post_init__(self):
        for name in ("feat_dim", "t_max", "embed_dim", "conv_hidden",
                     "tconv_channels", "label_len", "epochs", "batch_size"):
            if getattr(self, name) <= 0:
                raise ConfigError(f"{name} must be positive")
        if self.kernel % 2 != 1:
            raise ConfigError("kernel must be odd")
        if self.label_len > self.t_max:
            raise ConfigError(
                f"label_len {self.label_len} exceeds t_max {self.t_max}"
            )
        if self.esm_weight < 0:
            raise ConfigError("lambda (esm_weight) must be >= 0")
        if self.tconv_channels != self.feat_dim:
            raise ConfigError(
                "tconv_channels must equal feat_dim: the tconv stack runs "
                "directly on the front-end features"
            )
        if self.label_setting not in LABEL_SETTINGS:
            raise ConfigError(f"unknown label_setting {self.label_setting!r}")
        if self.label_resolution_s <= 0:
            raise ConfigError("label_resolution_s must be positive")

    def to_dict(self) -> dict:
        return {
            "feat_dim": self.feat_dim, "t_max": self.t_max,
            "embed_dim": self.embed_dim, "conv_hidden": self.conv_hidden,
            "tconv_channels": self.tconv_channels, "kernel": self.kernel,
            "label_len": self.label_len,
            "label_resolution_s": self.label_resolution_s,
            "label_setting": self.label_setting,
            "esm": self.esm.to_dict(), "lambda": self.esm_weight,
            "rectify_similarity": self.rectify_similarity,
            "optimizer": self.optimizer.to_dict(),
            "epochs": self.epochs, "batch_size": self.batch_size,
            "seed": self.seed,
        }

    @classmethod
    def from_dict(cls, obj: dict) -> "TdlConfig":
        obj = dict(obj)
        if "lambda" in obj:
            obj["esm_weight"] = obj.pop("lambda")
        if "esm" in obj and isinstance(obj["esm"], dict):
            obj["esm"] = EsmConfig.from_dict(obj["esm"])
        if "optimizer" in obj and isinstance(obj["optimizer"], dict):
            obj["optimizer"] = OptimizerConfig.from_dict(obj["optimizer"])
        unknown = set(obj) - set(cls.__dataclass_fields__)
        if unknown:
            raise ConfigError(f"unknown config keys: {sorted(unknown)}")
        try:
            return cls(**obj)
        except TypeError as exc:
            raise ConfigError(str(exc)) from exc


def full_scale_config(**overrides) -> TdlConfig:
    """The full-size configuration (1024-dim features, 1050 frames)."""
    return TdlConfig(**overrides)


def desk_config(**overrides) -> TdlConfig:
    """Scaled-down configuration that trains in seconds on a laptop."""
    base = dict(feat_dim=16, t_max=64, embed_dim=8, conv_hidden=16,
                tconv_channels=16, kernel=3, label_len=16,
                optimizer=OptimizerConfig(base_lr=1e-2),
                epochs=30, batch_size=8, seed=7)
    base.update(overrides)
    return TdlConfig(**base)


@dataclass
class TdlModel:
    config: TdlConfig
    conv_a: Conv1dLayer
    conv_b: Conv1dLayer
    tconv_1: TconvLayer
    tconv_2: TconvLayer
    conv_head: Conv1dLayer
    fc: FcLayer
    adam: AdamState
    epoch: int = 0

    def layer_items(self):
        return [("conv_a", self.conv_a), ("conv_b", self.conv_b),
                ("tconv_1", self.tconv_1), ("tconv_2", self.tconv_2),
                ("conv_head", self.conv_head), ("fc", self.fc)]

    def param_items(self) -> dict:
        out = {}
        for name, layer in self.layer_items():
            out[f"{name}.weights"] = layer.weights
            out[f"{name}.bias"] = layer.bias
        return out


@dataclass
class TdlLoss:
    total: float
    bce: float
    esm: EsmLoss

    def to_dict(self) -> dict:
        return {"total": self.total, "bce": self.bce, "esm": self.esm.to_dict()}


def build_model(config: TdlConfig) -> TdlModel:
    """Seeded construction; parameters are uniform in +-sqrt(1/fan_in)."""
    rng = np.random.default_rng([config.seed, _STREAM_INIT])
    k = config.kernel
    return TdlModel(
        config=config,
        conv_a=conv1d_init(config.feat_dim, config.conv_hidden, k, rng),
        conv_b=conv1d_init(config.conv_hidden, config.embed_dim, k, rng),
        tconv_1=tconv_init(config.tconv_channels, k, rng),
        tconv_2=tconv_init(config.tconv_channels, k, rng),
        conv_head=conv1d_init(config.tconv_channels, 2, 1, rng),
        fc=fc_init(2 * config.t_max, config.label_len, rng),
        adam=config.optimizer.make_state(),
    )


def param_count_table(model: TdlModel):
    """Per-layer (name, count) rows plus the exact total."""
    rows = [(name, count_params([layer.weights, layer.bias]))
            for name, layer in model.layer_items()]
    return rows, sum(c for _, c in rows)


# ---------------------------------------------------------------------------
# forward / loss
# ---------------------------------------------------------------------------


def _check_input(model: TdlModel, x: FeatureSequence):
    cfg = model.config
    if x.dim != cfg.feat_dim:
        raise ShapeError(
            f"{x.sample_id}: feature dim {x.dim} != model feat_dim {cfg.feat_dim}"
        )
    if x.num_frames != cfg.t_max:
        raise ShapeError(
            f"{x.sample_id}: {x.num_frames} frames, expected padded t_max "
            f"{cfg.t_max}"
        )


def _blocks(indices, t_max: int) -> list:
    """Consecutive runs of ``indices`` that fit in one block each."""
    size = max(1, BLOCK_FRAMES // t_max)
    return [indices[lo:lo + size] for lo in range(0, len(indices), size)]


def _stack_block(pairs):
    """(features (B, C, T) float64, true frame counts, labels) of
    (FeatureSequence, FrameLabels) pairs."""
    xv = np.stack([seq.values for seq, _ in pairs]).astype(np.float64)
    return xv, [seq.true_frames for seq, _ in pairs], [lab for _, lab in pairs]


def _forward_block(model: TdlModel, xv: np.ndarray, true_frames) -> dict:
    """The stack on a block xv (B, C, T); frames past true_frames are padding."""
    cfg = model.config
    t_len = xv.shape[-1]
    g1 = conv1d_forward(model.conv_a, xv)
    h1 = relu_forward(g1)
    g2 = conv1d_forward(model.conv_b, h1)
    live = np.arange(t_len) < np.asarray(true_frames)[:, None]
    sim_class = np.where(live, esm_mod.REAL, esm_mod.PADDING)
    e_seq = EmbeddingSequence(cfg.embed_dim, t_len, l2_normalize_forward(g2),
                              sim_class)
    a = neighbor_similarity(e_seq, cfg.kernel, cfg.rectify_similarity)

    t1 = tconv_forward(model.tconv_1, xv, a)
    h2 = relu_forward(t1)
    t2 = tconv_forward(model.tconv_2, h2, a)
    h3 = relu_forward(t2)
    flat = conv1d_forward(model.conv_head, h3).reshape(len(xv), -1)
    scores = sigmoid_forward(fc_forward(model.fc, flat))
    return {
        "g1": g1, "h1": h1, "g2": g2, "e_seq": e_seq, "a": a, "t1": t1,
        "h2": h2, "t2": t2, "h3": h3, "flat": flat, "scores": scores,
    }


def forward(model: TdlModel, x: FeatureSequence):
    """Run the network on one padded utterance.

    Returns (scores in (0,1)^L, embedding sequence, similarity matrix).
    The embedding's frame classes only distinguish padding here; during
    training the label alignment supplies real/fake classes.
    """
    _check_input(model, x)
    xv, true_frames, _ = _stack_block([(x, None)])
    cache = _forward_block(model, xv, true_frames)
    e, a = cache["e_seq"], cache["a"]
    return (cache["scores"][0],
            EmbeddingSequence(e.dim, e.num_frames, e.values[0], e.frame_class[0]),
            SimilarityMatrix(a.kernel, a.num_frames, a.values[0]))


def _esm_classes(labels: FrameLabels, true_frames: int, t_len: int) -> np.ndarray:
    """Per-frame ESM classes; all padding under boundary1, whose labels
    mark transitions rather than authenticity."""
    if labels.setting == BOUNDARY1:
        return np.full(t_len, esm_mod.PADDING, dtype=np.int8)
    classes = esm_mod.align_labels_to_embedding(labels, t_len)
    # feature padding trumps label alignment at the tail
    classes[true_frames:] = esm_mod.PADDING
    return classes


def total_loss(model: TdlModel, x: FeatureSequence, labels: FrameLabels):
    """BCE + lambda * ESM with gradients for every parameter and the input.

    Under the boundary1 setting the BCE is weighted (100 on boundary
    frames) and the ESM term is skipped, since boundary labels do not
    carry per-frame authenticity classes.
    """
    _check_input(model, x)
    if labels.labels.size != model.config.label_len:
        raise ShapeError(
            f"{labels.sample_id}: {labels.labels.size} labels != label_len "
            f"{model.config.label_len}"
        )
    losses, grads = _loss_block(model, *_stack_block([(x, labels)]),
                                input_grad=True)
    grads["input"] = grads["input"][0]
    return losses, grads


def _loss_block(model: TdlModel, xv: np.ndarray, true_frames, labels,
                input_grad: bool = False):
    """Loss core on a block xv (B, C, T) with one FrameLabels per utterance.

    Returns the block's TdlLoss, each term summed over its utterances,
    and the parameter gradients summed over them; with ``input_grad``
    also the (B, C, T) input gradient under "input".
    """
    cfg = model.config
    num, t_len = xv.shape[0], xv.shape[-1]
    cache = _forward_block(model, xv, true_frames)
    scores, e_seq, a = cache["scores"], cache["e_seq"], cache["a"]

    y = np.stack([lab.labels for lab in labels]).astype(np.float64)
    boundary = np.array([lab.setting == BOUNDARY1 for lab in labels])
    weights = np.where(boundary[:, None] & (y == 1), BOUNDARY_BCE_WEIGHT, 1.0)
    bce, grad_scores = bce_loss(scores, y, weights)

    use_esm = cfg.esm_weight > 0 and not boundary.all()
    if use_esm:
        classes = np.stack([_esm_classes(lab, tf, t_len)
                            for lab, tf in zip(labels, true_frames)])
        esm_losses, grad_e_esm = esm_mod.esm_loss_from_arrays(
            e_seq.values, classes, cfg.esm
        )
    else:
        esm_losses, grad_e_esm = EsmLoss(0.0, 0.0, 0.0), None

    bce_total = float(bce.sum())
    total = bce_total + cfg.esm_weight * esm_losses.total
    if not np.isfinite(total):
        bad = [lab.sample_id for lab, v in zip(labels, bce) if not np.isfinite(v)]
        term = "bce" if bad else "esm"
        ids = ", ".join(bad or [lab.sample_id for lab in labels])
        raise NumericError(f"{ids}: non-finite {term} loss")

    # score head backward
    grad_logits = sigmoid_backward(scores, grad_scores)
    grad_flat, grad_fc_w, grad_fc_b = fc_backward(model.fc, cache["flat"],
                                                  grad_logits)
    grad_head = grad_flat.reshape(num, 2, t_len)
    grad_h3, grad_hd_w, grad_hd_b = conv1d_backward(model.conv_head,
                                                    cache["h3"], grad_head)
    grad_t2 = relu_backward(cache["t2"], grad_h3)
    grad_h2, grad_a2, grad_t2_w, grad_t2_b = tconv_backward(
        model.tconv_2, cache["h2"], a, grad_t2
    )
    grad_t1 = relu_backward(cache["t1"], grad_h2)
    grad_x_t, grad_a1, grad_t1_w, grad_t1_b = tconv_backward(
        model.tconv_1, xv, a, grad_t1, input_grad
    )

    # both tconv layers share one similarity matrix
    grad_e = neighbor_similarity_backward(
        e_seq, cfg.kernel, grad_a1 + grad_a2, cfg.rectify_similarity
    )
    if use_esm:
        grad_e = grad_e + cfg.esm_weight * grad_e_esm

    grad_g2 = l2_normalize_backward(cache["g2"], grad_e)
    grad_h1, grad_cb_w, grad_cb_b = conv1d_backward(model.conv_b, cache["h1"],
                                                    grad_g2)
    grad_g1 = relu_backward(cache["g1"], grad_h1)
    grad_x_e, grad_ca_w, grad_ca_b = conv1d_backward(model.conv_a, xv,
                                                     grad_g1, input_grad)

    grads = {
        "conv_a.weights": grad_ca_w, "conv_a.bias": grad_ca_b,
        "conv_b.weights": grad_cb_w, "conv_b.bias": grad_cb_b,
        "tconv_1.weights": grad_t1_w, "tconv_1.bias": grad_t1_b,
        "tconv_2.weights": grad_t2_w, "tconv_2.bias": grad_t2_b,
        "conv_head.weights": grad_hd_w, "conv_head.bias": grad_hd_b,
        "fc.weights": grad_fc_w, "fc.bias": grad_fc_b,
    }
    if input_grad:
        grads["input"] = grad_x_t + grad_x_e
    return TdlLoss(total, bce_total, esm_losses), grads


def predict(model: TdlModel, x: FeatureSequence,
            true_labels: int | None = None) -> np.ndarray:
    """Per-frame scores trimmed to the utterance's true label count.

    When ``true_labels`` is not given it is derived from the feature
    true length via the label/feature time ratio.
    """
    scores, _, _ = forward(model, x)
    cfg = model.config
    if true_labels is None:
        true_labels = (x.true_frames - 1) * cfg.label_len // cfg.t_max + 1
    if not 0 < true_labels <= cfg.label_len:
        raise ShapeError(f"true_labels {true_labels} outside (0, {cfg.label_len}]")
    return scores[:true_labels].copy()


# ---------------------------------------------------------------------------
# checkpoints (TDLC)
# ---------------------------------------------------------------------------

TDLC_MAGIC = b"TDLC"
TDLC_VERSION = 1
_TDLC_HEAD = struct.Struct("<4sII")


def encode_checkpoint(model: TdlModel) -> bytes:
    params = model.param_items()
    header = {
        "format": "TDLC",
        "version": TDLC_VERSION,
        "config": model.config.to_dict(),
        "epoch": model.epoch,
        "adam": {**model.adam.hyperparams(), "step": model.adam.step},
        "params": list(params.keys()),
        "param_shapes": {k: list(v.shape) for k, v in params.items()},
    }
    header_bytes = json.dumps(header, sort_keys=True,
                              separators=(",", ":")).encode("utf-8")
    chunks = [_TDLC_HEAD.pack(TDLC_MAGIC, TDLC_VERSION, len(header_bytes)),
              header_bytes]
    for name, value in params.items():
        chunks.append(np.ascontiguousarray(value, dtype="<f8").tobytes())
    for moments in (model.adam.m, model.adam.v):
        for name, value in params.items():
            m = moments.get(name)
            m = np.zeros_like(value) if m is None else m
            chunks.append(np.ascontiguousarray(m, dtype="<f8").tobytes())
    return b"".join(chunks)


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
    adam_keys = set(AdamState().hyperparams()) | {"step"}
    if set(header["adam"]) != adam_keys:
        raise FormatError(
            f"checkpoint adam keys {sorted(header['adam'])} != {sorted(adam_keys)}"
        )


def decode_checkpoint(blob: bytes) -> TdlModel:
    if len(blob) < _TDLC_HEAD.size:
        raise FormatError("checkpoint truncated in fixed header")
    magic, version, header_len = _TDLC_HEAD.unpack_from(blob)
    if magic != TDLC_MAGIC:
        raise FormatError(f"bad checkpoint magic {magic!r}")
    if version != TDLC_VERSION:
        raise FormatError(f"unsupported checkpoint version {version}")
    offset = _TDLC_HEAD.size
    if len(blob) < offset + header_len:
        raise FormatError("checkpoint truncated in JSON header")
    try:
        header = json.loads(blob[offset:offset + header_len].decode("utf-8"))
    except (UnicodeDecodeError, json.JSONDecodeError) as exc:
        raise FormatError(f"corrupt checkpoint header: {exc}") from exc
    offset += header_len
    _check_header(header)

    config = TdlConfig.from_dict(header["config"])
    model = build_model(config)
    model.epoch = int(header["epoch"])
    adam_info = dict(header["adam"])
    step = int(adam_info.pop("step"))
    model.adam = AdamState(step=step, **adam_info)

    params = model.param_items()
    if header["params"] != list(params.keys()) \
            or set(header["param_shapes"]) != set(params):
        raise FormatError("checkpoint parameter list mismatch")

    def read_into(target: np.ndarray, off: int) -> int:
        nbytes = target.size * 8
        if len(blob) < off + nbytes:
            raise FormatError("checkpoint truncated in payload")
        flat = np.frombuffer(blob, dtype="<f8", count=target.size, offset=off)
        target[...] = flat.reshape(target.shape)
        return off + nbytes

    for name, value in params.items():
        if list(value.shape) != header["param_shapes"][name]:
            raise FormatError(f"checkpoint shape mismatch for {name}")
        offset = read_into(value, offset)
    for moments in (model.adam.m, model.adam.v):
        for name, value in params.items():
            buf = np.zeros_like(value)
            offset = read_into(buf, offset)
            moments[name] = buf
    if offset != len(blob):
        raise FormatError(f"{len(blob) - offset} trailing bytes in checkpoint")
    return model


def save_checkpoint(model: TdlModel, path) -> None:
    Path(path).write_bytes(encode_checkpoint(model))


def load_checkpoint(path) -> TdlModel:
    return decode_checkpoint(Path(path).read_bytes())


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
        return {
            "epoch": self.epoch, "mean_bce": self.mean_bce,
            "mean_esm_real": self.mean_esm_real,
            "mean_esm_fake": self.mean_esm_fake,
            "mean_esm_diff": self.mean_esm_diff,
            "mean_esm_total": self.mean_esm_total,
            "mean_total": self.mean_total,
            "learning_rate": self.learning_rate,
            "wall_time_s": self.wall_time_s,
            "dev_eer_pct": self.dev_eer_pct,
        }


@dataclass
class TrainResult:
    last_model: TdlModel
    best_checkpoint: bytes
    best_epoch: int
    best_dev_eer: float
    records: list
    diverged: bool = False

    @property
    def best_model(self) -> TdlModel:
        return decode_checkpoint(self.best_checkpoint)


def _validate_set(config: TdlConfig, dataset, name: str,
                  both_classes: bool = False):
    """Shape checks; with ``both_classes`` the set must also hold frames of
    both label values, without which its EER is undefined."""
    if not dataset:
        raise ValidationError(f"{name} set is empty")
    for seq, labels in dataset:
        if seq.num_frames != config.t_max:
            raise ShapeError(
                f"{name}: {seq.sample_id} not pre-padded to t_max {config.t_max}"
            )
        if seq.dim != config.feat_dim:
            raise ShapeError(
                f"{name}: {seq.sample_id} feat dim {seq.dim} != {config.feat_dim}"
            )
        if labels.labels.size != config.label_len:
            raise ShapeError(
                f"{name}: {labels.sample_id} labels not padded to {config.label_len}"
            )
    if both_classes:
        pooled = np.concatenate([lab.labels[:lab.true_labels] for _, lab in dataset])
        if pooled.min() == pooled.max():
            raise ValidationError(
                f"{name} set has only label-{pooled[0]} frames; its EER needs "
                "both classes"
            )


def dev_eer(model: TdlModel, dev_set) -> float:
    """Frame-level EER (percent) of the dev set, forwarded in blocks."""
    scores = []
    for block in _blocks(dev_set, model.config.t_max):
        xv, true_frames, _ = _stack_block(block)
        scores.extend(_forward_block(model, xv, true_frames)["scores"])
    pool = metrics_mod.pool_predictions(scores, [lab for _, lab in dev_set])
    return metrics_mod.eer(pool)[0]


def _minibatch_step(model: TdlModel, params: dict, batch, epoch: int) -> np.ndarray:
    """One Adam step on the mean gradient of a minibatch of (features,
    labels) pairs; returns its summed (bce, real, fake, diff, total)."""
    grad_sum, sums = {}, np.zeros(5)
    for block in _blocks(batch, model.config.t_max):
        losses, grads = _loss_block(model, *_stack_block(block))
        for key, grad in grads.items():
            grad_sum[key] = grad_sum[key] + grad if key in grad_sum else grad
        sums += (losses.bce, losses.esm.l_real, losses.esm.l_fake,
                 losses.esm.l_diff, losses.total)
    for grad in grad_sum.values():
        grad /= len(batch)
    adam_step(model.adam, params, grad_sum, epoch)
    return sums


def train(config: TdlConfig, train_set, dev_set,
          init_model: TdlModel | None = None) -> TrainResult:
    """Seeded full-batch-shuffled minibatch training.

    Datasets are lists of (FeatureSequence, FrameLabels), features
    pre-padded to t_max and labels to label_len. Each minibatch runs as
    one block (several when it exceeds BLOCK_FRAMES columns) and its
    gradients are averaged over its utterances. Per-epoch dev EER is
    recorded and the best-dev-EER checkpoint retained. If the loss goes
    non-finite the run stops and the last completed epoch's parameters
    are restored (diverged=True).
    """
    _validate_set(config, train_set, "train")
    _validate_set(config, dev_set, "dev", both_classes=True)
    model = init_model if init_model is not None else build_model(config)
    if init_model is not None:
        # resuming may extend the epoch budget but nothing else
        a, b = init_model.config.to_dict(), config.to_dict()
        a.pop("epochs"), b.pop("epochs")
        if a != b:
            raise ConfigError("resume checkpoint config differs from run config")
        model.config = config
    params = model.param_items()
    n = len(train_set)

    records = []
    best_bytes = encode_checkpoint(model)
    best_eer = float("inf")
    best_epoch = model.epoch
    last_good = best_bytes
    diverged = False

    for epoch in range(model.epoch, config.epochs):
        start = time.perf_counter()
        order = np.random.default_rng(
            [config.seed, _STREAM_BATCH, epoch]
        ).permutation(n)
        sums = np.zeros(5)  # bce, real, fake, diff, total
        try:
            for lo in range(0, n, config.batch_size):
                batch = [train_set[i] for i in order[lo:lo + config.batch_size]]
                sums += _minibatch_step(model, params, batch, epoch)
        except NumericError:
            model = decode_checkpoint(last_good)
            diverged = True
            break

        model.epoch = epoch + 1
        eer_pct = dev_eer(model, dev_set)
        records.append(TrainRecord(
            epoch=epoch,
            mean_bce=sums[0] / n,
            mean_esm_real=sums[1] / n,
            mean_esm_fake=sums[2] / n,
            mean_esm_diff=sums[3] / n,
            mean_esm_total=(sums[1] + sums[2] + sums[3]) / n,
            mean_total=sums[4] / n,
            learning_rate=model.adam.lr_for_epoch(epoch),
            wall_time_s=time.perf_counter() - start,
            dev_eer_pct=eer_pct,
        ))
        last_good = encode_checkpoint(model)
        if eer_pct < best_eer:
            best_eer = eer_pct
            best_epoch = epoch
            best_bytes = last_good

    if diverged and not records:
        best_eer = float("nan")
    return TrainResult(
        last_model=model,
        best_checkpoint=best_bytes,
        best_epoch=best_epoch,
        best_dev_eer=best_eer,
        records=records,
        diverged=diverged,
    )


# ---------------------------------------------------------------------------
# gradient-check battery
# ---------------------------------------------------------------------------

GRADCHECK_CONFIGS = {
    "tiny": dict(feat_dim=8, t_max=12, embed_dim=4, conv_hidden=8,
                 tconv_channels=8, label_len=4),
    "small": dict(feat_dim=12, t_max=24, embed_dim=6, conv_hidden=12,
                  tconv_channels=12, label_len=8),
}


def _scalarized(forward_fn, proj):
    """Reduce an array-valued op to a scalar with a fixed projection."""
    return lambda: float(np.sum(forward_fn() * proj))


def _op_reports(rng, tolerance):
    """Finite-difference checks for each primitive, one entry per input."""
    entries = []

    def run(name, loss_fn, params, analytic):
        rep = grad_check(loss_fn, params, analytic, tolerance=tolerance,
                         seed=int(rng.integers(1 << 31)))
        for en in rep.entries:
            en.name = f"{name}.{en.name}"
            entries.append(en)

    # conv1d
    layer = conv1d_init(3, 4, 3, rng)
    x = rng.standard_normal((3, 7))
    proj = rng.standard_normal((4, 7))
    gx, gw, gb = conv1d_backward(layer, x, proj)
    run("conv1d",
        _scalarized(lambda: conv1d_forward(layer, x), proj),
        {"x": x, "weights": layer.weights, "bias": layer.bias},
        {"x": gx, "weights": gw, "bias": gb})

    # fc
    fc = fc_init(6, 5, rng)
    xf = rng.standard_normal(6)
    pf = rng.standard_normal(5)
    gx, gw, gb = fc_backward(fc, xf, pf)
    run("fc",
        _scalarized(lambda: fc_forward(fc, xf), pf),
        {"x": xf, "weights": fc.weights, "bias": fc.bias},
        {"x": gx, "weights": gw, "bias": gb})

    # relu, away from the kink
    xr = rng.uniform(0.1, 1.0, size=(4, 6)) * rng.choice([-1.0, 1.0], size=(4, 6))
    pr = rng.standard_normal((4, 6))
    run("relu",
        _scalarized(lambda: relu_forward(xr), pr),
        {"x": xr}, {"x": relu_backward(xr, pr)})

    # sigmoid
    xs = rng.standard_normal(9)
    ps = rng.standard_normal(9)
    run("sigmoid",
        _scalarized(lambda: sigmoid_forward(xs), ps),
        {"x": xs}, {"x": sigmoid_backward(sigmoid_forward(xs), ps)})

    # l2 normalize
    xn = rng.standard_normal((5, 6)) + 0.5
    pn = rng.standard_normal((5, 6))
    run("l2_normalize",
        _scalarized(lambda: l2_normalize_forward(xn), pn),
        {"x": xn}, {"x": l2_normalize_backward(xn, pn)})

    # bce
    sc = rng.uniform(0.05, 0.95, size=8)
    yb = (rng.random(8) < 0.5).astype(np.float64)
    run("bce",
        lambda: bce_loss(sc, yb)[0],
        {"scores": sc}, {"scores": bce_loss(sc, yb)[1]})

    # esm losses on raw embeddings
    ev = rng.standard_normal((4, 10))
    cls = np.array([1, 1, 0, 0, 1, 0, 1, 0, -1, -1], dtype=np.int8)
    cfg = EsmConfig(tau_same=0.9, tau_diff=0.0)
    run("esm",
        lambda: esm_mod.esm_loss_from_arrays(ev, cls, cfg)[0].total,
        {"e": ev}, {"e": esm_mod.esm_loss_from_arrays(ev, cls, cfg)[1]})

    # neighbor similarity on raw (pre-normalization) embedding columns;
    # the gradient chains through l2_normalize
    ev2 = rng.standard_normal((4, 8))
    cls2 = np.full(8, esm_mod.REAL, dtype=np.int8)
    cls2[-1] = esm_mod.PADDING
    pa = rng.standard_normal((3, 8))

    def sim_grad():
        normed = l2_normalize_forward(ev2)
        e_seq = EmbeddingSequence(4, 8, normed, cls2)
        ge = neighbor_similarity_backward(e_seq, 3, pa)
        return l2_normalize_backward(ev2, ge)

    run("neighbor_similarity",
        _scalarized(lambda: _sim_forward_raw(ev2, cls2), pa),
        {"e": ev2}, {"e": sim_grad()})

    # tconv chain e -> a -> tconv -> scalar
    tl = tconv_init(6, 3, rng)
    xt = rng.standard_normal((6, 9))
    et = rng.standard_normal((4, 9))
    ct = np.full(9, esm_mod.REAL, dtype=np.int8)
    pt = rng.standard_normal((6, 9))

    def tconv_scalar():
        normed = l2_normalize_forward(et)
        e_seq = EmbeddingSequence(4, 9, normed, ct)
        a = neighbor_similarity(e_seq, 3)
        return float(np.sum(tconv_forward(tl, xt, a) * pt))

    def tconv_grads():
        normed = l2_normalize_forward(et)
        e_seq = EmbeddingSequence(4, 9, normed, ct)
        a = neighbor_similarity(e_seq, 3)
        gx, ga, gw, gb = tconv_backward(tl, xt, a, pt)
        ge = neighbor_similarity_backward(e_seq, 3, ga)
        return gx, l2_normalize_backward(et, ge), gw, gb

    gx, ge, gw, gb = tconv_grads()
    run("tconv",
        tconv_scalar,
        {"x": xt, "e": et, "weights": tl.weights, "bias": tl.bias},
        {"x": gx, "e": ge, "weights": gw, "bias": gb})

    return entries


def _sim_forward_raw(ev: np.ndarray, classes: np.ndarray) -> np.ndarray:
    normed = l2_normalize_forward(ev)
    e_seq = EmbeddingSequence(ev.shape[0], ev.shape[1], normed, classes)
    return neighbor_similarity(e_seq, 3).values


def gradcheck_battery(size: str = "tiny", seed: int = 0,
                      tolerance: float = 1e-4) -> GradReport:
    """Finite-difference audit of every primitive plus the full model loss.

    The model check perturbs all parameters and all input coordinates of
    a random utterance and compares against the analytic gradients from
    total_loss.
    """
    if size not in GRADCHECK_CONFIGS:
        raise ConfigError(f"unknown gradcheck size {size!r}")
    rng = np.random.default_rng([seed, 17])
    entries = _op_reports(rng, tolerance)

    dims = GRADCHECK_CONFIGS[size]
    config = TdlConfig(**dims, seed=seed, esm_weight=0.1,
                       esm=EsmConfig(tau_same=0.9, tau_diff=0.0))
    model = build_model(config)
    t = config.t_max
    x64 = rng.standard_normal((config.feat_dim, t))
    lab = np.zeros(config.label_len, dtype=np.int8)
    lab[: config.label_len // 2] = 1
    labels = FrameLabels("gradcheck", config.label_resolution_s, lab,
                         config.label_len, REAL1_FAKE0)

    def model_loss():
        return _loss_block(model, x64[None], [t], [labels])[0].total

    _, grads = _loss_block(model, x64[None], [t], [labels], input_grad=True)
    grads["input"] = grads["input"][0]
    params = dict(model.param_items())
    params["input"] = x64
    analytic = {k: grads[k] for k in params}
    rep = grad_check(model_loss, params, analytic, tolerance=tolerance,
                     max_coords=1 << 30, seed=seed)
    for en in rep.entries:
        en.name = f"model.{en.name}"
    return GradReport(tolerance, entries + rep.entries)
