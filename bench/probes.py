"""Where the traced run hooks into tdl, and the per-layer metrics it derives.

Each probe names the module the *caller* looks the function up in.
Counters are computed from arguments and results, so they are exact and
must repeat from one traced iteration to the next.
"""

from __future__ import annotations

import os
import statistics
from pathlib import Path

from tracing import durations, self_times, totals


def _file_bytes(counts, args, result):
    counts["data.bytes_read"] += os.path.getsize(args[0])


def _manifest_bytes(counts, args, result):
    counts["data.bytes_read"] += os.path.getsize(Path(args[0]) / "manifest.json")


def _pad_call(counts, args, result):
    counts["nn.pad_calls"] += 1


def _pairs(counts, args, result):
    counts["esm.pairs_scanned"] += int(args[1].size)


def _active_terms(counts, args, result):
    losses = result[0]
    counts["esm.active_terms"] += sum(
        v > 0.0 for v in (losses.l_real, losses.l_fake, losses.l_diff))


def _tconv_flops(gemms):
    """Multiply-add FLOPs of the channel GEMMs: 2*k*C_in*C_out*T each."""
    def count(counts, args, result):
        layer, x = args[0], args[1]
        counts["tconv.flops"] += (gemms * 2 * layer.kernel * layer.in_channels
                                  * layer.out_channels * x.shape[1])
    return count


def _encoded_bytes(counts, args, result):
    counts["model.checkpoint_bytes"] += len(result)


def _loaded_bytes(counts, args, result):
    counts["model.checkpoint_bytes"] += os.path.getsize(args[0])


POINTWISE = ("nn.relu_fwd", "nn.relu_bwd", "nn.sigmoid_fwd", "nn.sigmoid_bwd",
             "nn.l2_fwd", "nn.l2_bwd", "nn.bce", "nn.fc_fwd", "nn.fc_bwd")

PROBES = [
    ("tdl.cli", "main", "cli.main", None),
    ("tdl.cli", "run_eval", "cli.run_eval", None),
    ("tdl.data", "load_dataset", "data.load_dataset", _manifest_bytes),
    ("tdl.data", "load_feature_file", "data.load_feature_file", _file_bytes),
    ("tdl.data", "load_annotation_file", "data.load_annotation_file", _file_bytes),
    ("tdl.data", "pad_features", "data.pad_features", None),
    ("tdl.data", "compile_frame_labels", "data.compile_frame_labels", None),
    ("tdl.model", "train", "model.train", None),
    ("tdl.model", "total_loss", "model.loss_grad", None),
    ("tdl.model", "predict", "model.predict", None),
    ("tdl.model", "forward", "model.forward", None),
    ("tdl.model", "dev_eer", "model.dev_eer", None),
    ("tdl.model", "encode_checkpoint", "model.encode_checkpoint", _encoded_bytes),
    ("tdl.model", "load_checkpoint", "model.load_checkpoint", _loaded_bytes),
    ("tdl.model", "conv1d_forward", "nn.conv1d_fwd", None),
    ("tdl.model", "conv1d_backward", "nn.conv1d_bwd", None),
    ("tdl.model", "relu_forward", "nn.relu_fwd", None),
    ("tdl.model", "relu_backward", "nn.relu_bwd", None),
    ("tdl.model", "sigmoid_forward", "nn.sigmoid_fwd", None),
    ("tdl.model", "sigmoid_backward", "nn.sigmoid_bwd", None),
    ("tdl.model", "l2_normalize_forward", "nn.l2_fwd", None),
    ("tdl.model", "l2_normalize_backward", "nn.l2_bwd", None),
    ("tdl.model", "bce_loss", "nn.bce", None),
    ("tdl.model", "fc_forward", "nn.fc_fwd", None),
    ("tdl.model", "fc_backward", "nn.fc_bwd", None),
    ("tdl.model", "adam_step", "nn.adam_step", None),
    ("numpy", "pad", None, _pad_call),
    ("tdl.esm", "esm_loss_from_arrays", "esm.loss", _active_terms),
    ("tdl.esm", "_pair_sims", None, _pairs),
    ("tdl.model", "neighbor_similarity", "tconv.sim_fwd", None),
    ("tdl.model", "neighbor_similarity_backward", "tconv.sim_bwd", None),
    ("tdl.model", "tconv_forward", "tconv.fwd", _tconv_flops(1)),
    ("tdl.model", "tconv_backward", "tconv.bwd", _tconv_flops(2)),
    ("tdl.metrics", "pool_predictions", "metrics.pool", None),
    ("tdl.metrics", "compute_report", "metrics.report", None),
    ("tdl.metrics", "render_report", "metrics.render", None),
    ("tdl.metrics", "eer", "metrics.eer", None),
]

# Per-layer metrics in report order. Layers a workload never calls read 0.
LAYER_UNITS = {
    "data.load_dataset_s": "s",
    "data.prepare_s": "s",
    "data.bytes_read": "bytes",
    "nn.conv1d_fwd_s": "s",
    "nn.conv1d_bwd_s": "s",
    "nn.conv1d_calls": "count",
    "nn.pad_calls": "count",
    "nn.pointwise_s": "s",
    "nn.adam_step_s": "s",
    "esm.loss_s": "s",
    "esm.pairs_scanned": "count",
    "esm.active_terms_frac": "fraction",
    "tconv.sim_fwd_s": "s",
    "tconv.sim_bwd_s": "s",
    "tconv.fwd_s": "s",
    "tconv.bwd_s": "s",
    "tconv.gflop": "GFLOP",
    "tconv.gflop_per_s": "GFLOP/s",
    "model.loss_grad_s.p50": "s",
    "model.forward_s.p50": "s",
    "model.encode_checkpoint_s": "s",
    "model.checkpoint_mb": "MB",
    "model.load_checkpoint_s": "s",
    "model.dev_eer_s": "s",
    "model.train_self_s": "s",
    "metrics.pool_s": "s",
    "metrics.report_s": "s",
    "cli.eval_self_s": "s",
    "trace.overhead_pct": "%",
}

# counts that must be identical in every traced iteration of one run
EXACT = ("data.bytes_read", "nn.conv1d_calls", "nn.pad_calls",
         "esm.pairs_scanned", "tconv.gflop", "model.checkpoint_mb")


def iteration_metrics(spans, counts) -> dict:
    """Per-layer totals for one traced iteration (p50s and overhead excluded)."""
    inclusive, own = totals(spans), self_times(spans)

    def t(*names):
        return sum(inclusive.get(n, 0.0) for n in names)

    tconv_s = t("tconv.fwd", "tconv.bwd")
    checkpoints = counts["model.encode_checkpoint"] + counts["model.load_checkpoint"]
    esm_calls = counts["esm.loss"]
    return {
        "data.load_dataset_s": t("data.load_dataset"),
        "data.prepare_s": t("data.pad_features", "data.compile_frame_labels"),
        "data.bytes_read": counts["data.bytes_read"],
        "nn.conv1d_fwd_s": t("nn.conv1d_fwd"),
        "nn.conv1d_bwd_s": t("nn.conv1d_bwd"),
        "nn.conv1d_calls": counts["nn.conv1d_fwd"] + counts["nn.conv1d_bwd"],
        "nn.pad_calls": counts["nn.pad_calls"],
        "nn.pointwise_s": t(*POINTWISE),
        "nn.adam_step_s": t("nn.adam_step"),
        "esm.loss_s": t("esm.loss"),
        "esm.pairs_scanned": counts["esm.pairs_scanned"],
        "esm.active_terms_frac": (counts["esm.active_terms"] / (3 * esm_calls)
                                  if esm_calls else 0.0),
        "tconv.sim_fwd_s": t("tconv.sim_fwd"),
        "tconv.sim_bwd_s": t("tconv.sim_bwd"),
        "tconv.fwd_s": t("tconv.fwd"),
        "tconv.bwd_s": t("tconv.bwd"),
        "tconv.gflop": counts["tconv.flops"] / 1e9,
        "tconv.gflop_per_s": counts["tconv.flops"] / 1e9 / tconv_s if tconv_s else 0.0,
        "model.encode_checkpoint_s": t("model.encode_checkpoint"),
        "model.checkpoint_mb": (counts["model.checkpoint_bytes"] / 1e6 / checkpoints
                                if checkpoints else 0.0),
        "model.load_checkpoint_s": t("model.load_checkpoint"),
        "model.dev_eer_s": t("model.dev_eer"),
        "model.train_self_s": own.get("model.train", 0.0),
        "metrics.pool_s": t("metrics.pool"),
        "metrics.report_s": t("metrics.report", "metrics.render"),
        "cli.eval_self_s": own.get("cli.main", 0.0) + own.get("cli.run_eval", 0.0),
    }


def step_p50s(all_spans) -> dict:
    """Median single-call times pooled over every traced iteration."""
    out = {}
    for metric, name in (("model.loss_grad_s.p50", "model.loss_grad"),
                         ("model.forward_s.p50", "model.forward")):
        values = durations(all_spans, name)
        out[metric] = statistics.median(values) if values else 0.0
    return out
