"""The three benchmark workloads: seeded set-up, one timed operation, checks.

Every input is generated from the workload seed during set-up, so the
program only sees generated lists (training) or generated files (eval).
An operation returns an Outcome; ``check`` lists what is wrong with it.
"""

from __future__ import annotations

import contextlib
import hashlib
import io
import json
import math
from dataclasses import dataclass, field
from pathlib import Path
from time import perf_counter

from tdl import cli as cli_mod
from tdl import data as data_mod
from tdl import model as model_mod

from stats import sweep_eer


@dataclass
class Outcome:
    wall_s: float
    utterances: int  # utterance-steps for training, utterances scored for eval
    frames: int      # true (unpadded) label frames behind those utterances
    quality: dict = field(default_factory=dict)
    result: object = None
    scale: float = 1.0  # host-speed factor; wall_s * scale is the reported time

    @property
    def seconds(self) -> float:
        return self.wall_s * self.scale


def _prepare(features, annotations, config):
    return [
        (data_mod.pad_features(seq, config.t_max),
         data_mod.compile_frame_labels(ann, config.label_resolution_s,
                                       config.label_len, config.label_setting))
        for seq, ann in zip(features, annotations)
    ]


def _true_label_count(annotations, resolution_s) -> int:
    # same tolerance as the label compiler: durations sit on a 1 ms grid
    return sum(math.ceil(ann.duration_s / resolution_s - 1e-9) for ann in annotations)


class TrainWorkload:
    """``train()`` on in-memory splits, repeated on identical inputs.

    Subclasses give ``config(seed)`` and ``splits()``, the (train, dev)
    SynthSpecs. Repeats must reproduce the first repeat's best checkpoint
    byte for byte (single-threaded runs are deterministic).
    """

    def expect(self, state) -> None:
        """Training checks need no precomputed answers."""

    def setup(self, seed: int, work_dir: Path) -> dict:
        config = self.config(seed)
        train_spec, dev_spec = self.splits()
        train_set = _prepare(*data_mod.synth_dataset(train_spec, [seed, 1]), config)
        dev_set = _prepare(*data_mod.synth_dataset(dev_spec, [seed, 2]), config)
        return {"config": config, "train": train_set, "dev": dev_set,
                "first_digest": None}

    def run(self, state) -> Outcome:
        config, train_set = state["config"], state["train"]
        start = perf_counter()
        result = model_mod.train(config, train_set, state["dev"])
        wall = perf_counter() - start
        frames = sum(labels.true_labels for _, labels in train_set)
        return Outcome(
            wall_s=wall,
            utterances=len(train_set) * config.epochs,
            frames=frames * config.epochs,
            quality={"final_loss": result.records[-1].mean_total if result.records
                     else math.nan,
                     "eer_pct": result.best_dev_eer},
            result=result,
        )

    def check(self, state, outcome: Outcome) -> list:
        result, config = outcome.result, state["config"]
        errors = []
        if result.diverged:
            errors.append("training diverged")
        if len(result.records) != config.epochs:
            errors.append(f"{len(result.records)} epoch records, "
                          f"expected {config.epochs}")
        for record in result.records:
            bad = [k for k, v in record.to_dict().items() if not math.isfinite(v)]
            if bad:
                errors.append(f"epoch {record.epoch}: non-finite {bad}")
        # the best checkpoint must decode to exactly the parameters it holds
        # (decode then encode is the identity) and so to the model that
        # scored best_dev_eer
        best = model_mod.decode_checkpoint(result.best_checkpoint)
        if model_mod.encode_checkpoint(best) != result.best_checkpoint:
            errors.append("best checkpoint does not survive decode + encode")
        replay = model_mod.dev_eer(best, state["dev"])
        if replay != result.best_dev_eer:
            errors.append(f"decoded best checkpoint scores dev EER {replay!r}, "
                          f"recorded {result.best_dev_eer!r}")
        digest = hashlib.sha256(result.best_checkpoint).hexdigest()
        if state["first_digest"] is None:
            state["first_digest"] = digest
        elif digest != state["first_digest"]:
            errors.append("best checkpoint differs from the first repeat's")
        return errors


class DeskTrain(TrainWorkload):
    """Criterion-5 shape: 200 train / 50 dev desk utterances, batch 8, lambda 0.1."""

    name = "desk-train"
    epochs = 2
    scaled = True  # numpy dispatch-bound: times follow the host-speed probe

    def config(self, seed):
        return model_mod.desk_config(epochs=self.epochs, seed=seed)

    def splits(self):
        return (data_mod.desk_benchmark_spec(200, sample_prefix="train"),
                data_mod.desk_benchmark_spec(50, sample_prefix="dev"))


class FullTrain(TrainWorkload):
    """Full-scale stack (1024 x 1050, 8.2M parameters) on 15-21 s utterances."""

    name = "full-train"
    epochs = 1
    scaled = False  # BLAS-bound: its speed does not follow the probe

    def config(self, seed):
        return model_mod.full_scale_config(epochs=self.epochs, seed=seed)

    def splits(self):
        # 50 Hz frames, every utterance partly spoofed so that both ESM
        # classes and both EER classes are present
        base = dict(dim=1024, frame_rate_hz=50.0, duration_range_s=(15.0, 21.0),
                    spoof_probability=1.0)
        return (data_mod.SynthSpec(num_utterances=3, sample_prefix="train", **base),
                data_mod.SynthSpec(num_utterances=1, sample_prefix="dev", **base))


class EvalCorpus:
    """``tdl eval`` through ``cli.main`` on a 2,000-utterance desk corpus."""

    name = "eval-corpus"
    utterances = 2000
    scaled = True

    def setup(self, seed: int, work_dir: Path) -> dict:
        config = model_mod.desk_config(epochs=2, seed=seed)
        test_spec = data_mod.desk_benchmark_spec(self.utterances, sample_prefix="test")
        features, annotations = data_mod.synth_dataset(test_spec, [seed, 3])
        test_dir = work_dir / "test"
        data_mod.write_dataset(test_dir, features, annotations)
        # a briefly trained checkpoint, so scores are spread as in real use
        train_set = _prepare(*data_mod.synth_dataset(
            data_mod.desk_benchmark_spec(60, sample_prefix="train"), [seed, 1]), config)
        dev_set = _prepare(*data_mod.synth_dataset(
            data_mod.desk_benchmark_spec(20, sample_prefix="dev"), [seed, 2]), config)
        checkpoint = work_dir / "model.tdlc"
        checkpoint.write_bytes(model_mod.train(config, train_set, dev_set).best_checkpoint)
        # read every file once so the timed runs start from a warm page cache
        for path in sorted(test_dir.rglob("*")):
            if path.is_file():
                path.read_bytes()
        return {"config": config, "test_dir": test_dir, "checkpoint": checkpoint,
                "report": work_dir / "report.json", "features": features,
                "annotations": annotations}

    def expect(self, state) -> None:
        """Reference answers, computed once outside the timed region."""
        config = state["config"]
        model = model_mod.decode_checkpoint(state["checkpoint"].read_bytes())
        scores, labels = [], []
        for seq, lab in _prepare(state["features"], state["annotations"], config):
            scores.extend(model_mod.predict(model, seq, lab.true_labels))
            labels.extend(lab.labels[:lab.true_labels])
        state["expected_eer"] = sweep_eer(scores, labels)
        state["expected_frames"] = _true_label_count(state["annotations"],
                                                     config.label_resolution_s)

    def run(self, state) -> Outcome:
        argv = ["eval", "--checkpoint", str(state["checkpoint"]),
                "--test", str(state["test_dir"]), "--report", str(state["report"])]
        state["report"].unlink(missing_ok=True)
        with contextlib.redirect_stdout(io.StringIO()):
            start = perf_counter()
            code = cli_mod.main(argv)
            wall = perf_counter() - start
        report = json.loads(state["report"].read_text(encoding="utf-8"))
        return Outcome(wall_s=wall, utterances=self.utterances,
                       frames=state["expected_frames"],
                       quality={"eer_pct": report["eer_pct"]},
                       result=(code, report))

    def check(self, state, outcome: Outcome) -> list:
        code, report = outcome.result
        errors = []
        if code != 0:
            errors.append(f"tdl eval exited with {code}")
        if report["num_utterances"] != self.utterances:
            errors.append(f"report counts {report['num_utterances']} utterances")
        if report["num_frames"] != state["expected_frames"]:
            errors.append(f"report counts {report['num_frames']} frames, true labels "
                          f"sum to {state['expected_frames']}")
        if not abs(report["eer_pct"] - state["expected_eer"]) <= 1e-9:
            errors.append(f"report EER {report['eer_pct']!r} != threshold sweep "
                          f"{state['expected_eer']!r}")
        return errors


WORKLOADS = {w.name: w for w in (DeskTrain(), FullTrain(), EvalCorpus())}
