"""Command-line entry points: synth, train, eval, stats, gradcheck, params.

Exit codes: 0 success, 1 validation/config error or an input too large
for memory, 2 numeric failure (training divergence or a failed gradient
check). Every run prints its resolved configuration and seed before
doing work; given the same seed, config, and inputs, runs with one BLAS
thread are bit-reproducible at any core count. ``tdl eval`` scores its
test set through ``model.score_pool``, which reads it one block at a
time and may score runs of blocks in forked processes; the report holds
the bytes one process writes.
"""

from __future__ import annotations

import argparse
import json
import math
import sys
from pathlib import Path

from . import data as data_mod
from . import metrics as metrics_mod
from . import model as model_mod
from .errors import ConfigError, NumericError, TdlError, brief

EXIT_OK = 0
EXIT_CONFIG = 1
EXIT_NUMERIC = 2


class _Parser(argparse.ArgumentParser):
    """argparse that raises instead of exiting, so usage errors map to 1."""

    def error(self, message):
        raise ConfigError(message)


def _print_resolved(config: dict, seed) -> None:
    print("resolved config:")
    print(json.dumps(config, indent=2, sort_keys=True, default=str))
    print(f"seed: {seed}")


def _parse_once(text: str, path):
    """The JSON value of the config or spec ``text`` read from ``path``;
    ConfigError naming the file and the key when an object gives a key
    twice, which json.loads would take as its last value."""
    def once(pairs):
        obj = {}
        for key, value in pairs:
            if key in obj:
                raise ConfigError(f"{path}: key {brief(key)} is given twice")
            obj[key] = value
        return obj
    return data_mod.parse_json(text, path, ConfigError, object_pairs_hook=once)


def _load_train_config(path) -> model_mod.TdlConfig:
    """Read a TdlConfig from JSON or from key=value lines (each key set
    once; dotted keys nest; values parse as JSON literals when possible)."""
    text = data_mod.read_utf8(path, ConfigError)
    if text.lstrip().startswith("{"):
        obj = _parse_once(text, path)
    else:
        obj = {}
        for ln, line in enumerate(text.splitlines(), start=1):
            line = line.strip()
            if not line or line.startswith("#"):
                continue
            if "=" not in line:
                raise ConfigError(f"{path}:{ln}: expected key=value")
            key, _, value = line.partition("=")
            try:
                parsed = data_mod.parse_json(value.strip(), f"{path}:{ln}", ConfigError)
            except ConfigError:  # a bare string
                parsed = value.strip()
            node = obj
            parts = key.strip().split(".")
            for part in parts[:-1]:
                node = node.setdefault(part, {})
                if not isinstance(node, dict):
                    raise ConfigError(
                        f"{path}:{ln}: {key.strip()} nests under {part}, "
                        "which is already set to a value"
                    )
            if parts[-1] in node:  # a second value, or a section over its keys
                raise ConfigError(f"{path}:{ln}: {key.strip()} is already set")
            node[parts[-1]] = parsed
    return model_mod.TdlConfig.from_dict(obj)


class _LabelledSet:
    """The dataset in ``data_dir`` as the sequence of (features, labels)
    pairs for ``config`` that ``model.score_pool`` takes. Its manifest is
    checked when the set is built; each slice reads its samples' files and
    compiles their labels to label_len in one pass. Features stay as read:
    the model pads each block itself, and checks each pair's shapes,
    feature dim and true frames included, first."""

    def __init__(self, data_dir, config: model_mod.TdlConfig):
        self.root, self.manifest, self.entries = data_mod.check_manifest(data_dir)
        self.config = config

    def __len__(self) -> int:
        return len(self.entries)

    def __getitem__(self, index: slice) -> list:
        cfg, pairs = self.config, list(data_mod.read_samples(
            self.root, self.manifest, self.entries[index]))
        labels = data_mod.compile_labels([ann for _, ann in pairs], cfg.label_resolution_s,
                                         cfg.label_len, cfg.label_setting)
        return [(seq, lab) for (seq, _), lab in zip(pairs, labels)]


def _prepared(data_dir, config: model_mod.TdlConfig):
    """Yield each utterance of the dataset in ``data_dir`` as a (features,
    labels) pair for ``config``; the whole ``_LabelledSet`` is read when
    the first pair is taken."""
    yield from _LabelledSet(data_dir, config)[:]


def _seed(text: str) -> int:
    if int(text) < 0:
        raise argparse.ArgumentTypeError(f"seed {text} is negative")
    return int(text)


def _finite(name: str, positive: bool = False):
    """argparse type for the option ``name``: a finite float, above 0 when
    ``positive``."""
    low, what = (0.0, "positive and finite") if positive else (-math.inf, "finite")

    def parse(text: str) -> float:
        value = float(text)
        if not low < value < math.inf:
            raise argparse.ArgumentTypeError(f"{name} {text} is not {what}")
        return value
    parse.__name__ = name  # argparse names the type in "invalid ... value"
    return parse


# ---------------------------------------------------------------------------
# commands
# ---------------------------------------------------------------------------


def run_synth(args) -> int:
    spec = data_mod.SynthSpec.from_dict(
        _parse_once(data_mod.read_utf8(args.spec, ConfigError), args.spec))
    _print_resolved(spec.to_dict(), args.seed)

    features, annotations = data_mod.synth_dataset(spec, args.seed)
    out_dir = Path(args.out)
    data_mod.write_dataset(out_dir, features, annotations)
    stats = data_mod.dataset_stats(annotations)
    print(f"wrote {len(features)} utterances to {out_dir}")
    print(f"fake frames: {stats.frame_fake_pct:.2f} %  "
          f"fake utterances: {stats.utterance_fake_pct:.2f} %")
    return EXIT_OK


def _write_run(out_dir: Path, model, records: list, best: bool) -> None:
    """Write last.tdlc, best.tdlc when ``best``, then train_log.jsonl, each renamed."""
    out_dir.mkdir(parents=True, exist_ok=True)
    model_mod.save_checkpoint(model, out_dir / "last.tdlc")
    if best:
        model_mod.save_checkpoint(model, out_dir / "best.tdlc")
    data_mod.write_atomic(out_dir / "train_log.jsonl", "".join(
        json.dumps(record.to_dict(), sort_keys=True) + "\n"
        for record in records).encode("utf-8"))


def run_train(args) -> int:
    # a file where the output directory goes would fail only after training
    out_dir = Path(args.out)
    for path in (out_dir, *out_dir.parents):
        if path.exists() and not path.is_dir():
            raise ConfigError(f"--out {out_dir}: {path} is not a directory")
    config = _load_train_config(args.config)
    _print_resolved(config.to_dict(), config.seed)
    # a bad checkpoint, or a model past memory, is reported before the data
    # is read, and so is a resume that epochs() refuses
    if args.resume:
        model = model_mod.load_checkpoint(args.resume)
        print(f"resuming from {args.resume} at epoch {model.epoch}")
    else:
        model = model_mod.build_model(config)
    records, best_eer, best_epoch = [], math.inf, model.epoch
    for record in model_mod.epochs(config, _prepared(args.train, config),
                                   _prepared(args.dev, config), model):
        records.append(record)
        if record.dev_eer_pct < best_eer:
            best_eer, best_epoch = record.dev_eer_pct, record.epoch
        _write_run(out_dir, model, records, best_epoch == record.epoch)
        print(f"epoch {record.epoch:3d}  loss {record.mean_total:.6f}  "
              f"bce {record.mean_bce:.6f}  esm {record.mean_esm_total:.6f}  "
              f"lr {record.learning_rate:.2e}  dev EER {record.dev_eer_pct:.3f} %",
              flush=True)
    if not records:  # diverged in its first epoch: the restored model is both
        _write_run(out_dir, model, records, True)
    if model.epoch < config.epochs:
        print("training diverged: loss went non-finite; "
              "last good checkpoint written", file=sys.stderr)
        return EXIT_NUMERIC
    print(f"best dev EER {best_eer:.3f} % at epoch {best_epoch}")
    print(f"checkpoints in {out_dir}")
    return EXIT_OK


def run_eval(args) -> int:
    # a bad report path would fail only after every utterance is scored
    report_path = Path(args.report)
    if report_path.is_dir():
        raise ConfigError(f"--report {report_path} is a directory")
    if not report_path.parent.is_dir():
        raise ConfigError(
            f"--report {report_path}: {report_path.parent} is not a directory")
    model = model_mod.load_checkpoint(args.checkpoint)
    config = model.config
    _print_resolved(config.to_dict(), config.seed)
    pool = model_mod.score_pool(model, _LabelledSet(args.test, config))
    report = metrics_mod.compute_report(pool, threshold=args.threshold)
    text, json_str = metrics_mod.render_report(
        report, metadata={"checkpoint": str(args.checkpoint),
                          "test_dir": str(args.test)},
    )
    data_mod.write_atomic(args.report, json_str.encode("utf-8"))
    print(text, end="")
    print(f"report written to {args.report}")
    return EXIT_OK


def run_stats(args) -> int:
    _print_resolved({"data": str(args.data), "resolution_s": args.resolution},
                    "none")
    stats = data_mod.dataset_stats(
        (ann for _, ann in data_mod.stream_dataset(args.data)), args.resolution)
    print(f"{'subset':>12} {'frame-level':>12} {'utterance-level':>16}")
    print(f"{Path(str(args.data)).name:>12} {stats.frame_fake_pct:>12.2f} "
          f"{stats.utterance_fake_pct:>16.2f}")
    print(f"utterances: {stats.num_utterances}  frames: {stats.num_frames}")
    return EXIT_OK


def run_gradcheck(args) -> int:
    _print_resolved({"size": args.size, "tolerance": args.tolerance}, args.seed)
    report = model_mod.gradcheck_battery(args.size, args.seed, args.tolerance)
    for entry in report.entries:
        status = "ok" if entry.passed else "FAIL"
        print(f"{status:>4}  {entry.name:<28} max rel err {entry.max_rel_err:.3e} "
              f"({entry.coords_checked} coords)")
    print(f"max relative error: {report.max_rel_err:.3e} "
          f"(tolerance {report.tolerance:.1e})")
    if not report.passed:
        print("gradient check FAILED", file=sys.stderr)
        return EXIT_NUMERIC
    print("gradient check passed")
    return EXIT_OK


def run_params(args) -> int:
    config = _load_train_config(args.config)
    _print_resolved(config.to_dict(), config.seed)
    model = model_mod.shape_model(config)  # counting needs no parameter memory
    rows, total = model_mod.param_count_table(model)
    print(f"{'layer':<12} {'parameters':>12} {'thousands':>12}")
    for name, count in rows:
        print(f"{name:<12} {count:>12d} {count / 1000.0:>12.1f}")
    print(f"{'total':<12} {total:>12d} {total / 1000.0:>12.1f}")
    return EXIT_OK


# ---------------------------------------------------------------------------
# parser
# ---------------------------------------------------------------------------


def build_parser() -> argparse.ArgumentParser:
    parser = _Parser(prog="tdl", description=__doc__,
                     formatter_class=argparse.RawDescriptionHelpFormatter)
    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser("synth", help="generate a synthetic dataset")
    p.add_argument("--out", required=True, help="output dataset directory")
    p.add_argument("--spec", required=True, help="generator spec JSON")
    p.add_argument("--seed", type=_seed, required=True)
    p.set_defaults(func=run_synth)

    p = sub.add_parser("train", help="train a model")
    p.add_argument("--config", required=True, help="TdlConfig JSON or key=value")
    p.add_argument("--train", required=True, help="training dataset directory")
    p.add_argument("--dev", required=True, help="dev dataset directory")
    p.add_argument("--out", required=True, help="output directory")
    p.add_argument("--resume", default=None, help="checkpoint to resume from")
    p.set_defaults(func=run_train)

    p = sub.add_parser("eval", help="evaluate a checkpoint")
    p.add_argument("--checkpoint", required=True)
    p.add_argument("--test", required=True, help="test dataset directory")
    p.add_argument("--report", required=True, help="output report JSON path")
    p.add_argument("--threshold", type=_finite("threshold"), default=0.5)
    p.set_defaults(func=run_eval)

    p = sub.add_parser("stats", help="dataset fake-class statistics")
    p.add_argument("--data", required=True, help="dataset directory")
    p.add_argument("--resolution", type=_finite("resolution", positive=True),
                   default=data_mod.DEFAULT_RESOLUTION_S)
    p.set_defaults(func=run_stats)

    p = sub.add_parser("gradcheck", help="finite-difference gradient audit")
    p.add_argument("--size", choices=sorted(model_mod.GRADCHECK_CONFIGS),
                   default="tiny")
    p.add_argument("--seed", type=_seed, default=0)
    p.add_argument("--tolerance", type=_finite("tolerance", positive=True),
                   default=1e-4)
    p.set_defaults(func=run_gradcheck)

    p = sub.add_parser("params", help="per-layer parameter count table")
    p.add_argument("--config", required=True)
    p.set_defaults(func=run_params)

    return parser


def main(argv=None) -> int:
    parser = build_parser()
    try:
        args = parser.parse_args(argv)
        return args.func(args)
    except NumericError as exc:
        print(f"numeric error: {exc}", file=sys.stderr)
        return EXIT_NUMERIC
    except TdlError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_CONFIG
    except OSError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_CONFIG
    except MemoryError as exc:
        print(f"error: out of memory: {exc}", file=sys.stderr)
        return EXIT_CONFIG


if __name__ == "__main__":
    sys.exit(main())
