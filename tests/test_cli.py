import hashlib
import json
import os
import signal
import subprocess
import sys
import threading
from pathlib import Path

import pytest

from tdl import cli
from tdl.errors import NumericError
from tdl.data import desk_benchmark_spec
from tdl.model import desk_config

from oracles import pooled_reference


def _dir_digest(root):
    h = hashlib.sha256()
    for path in sorted(Path(root).rglob("*")):
        if path.is_file():
            h.update(path.name.encode())
            h.update(path.read_bytes())
    return h.hexdigest()


@pytest.fixture()
def synth_spec_file(tmp_path):
    spec = desk_benchmark_spec(num_utterances=8)
    path = tmp_path / "spec.json"
    path.write_text(json.dumps(spec.to_dict()))
    return path


@pytest.fixture()
def smoke_config_file(tmp_path):
    cfg = desk_config(epochs=2, batch_size=2, seed=1)
    path = tmp_path / "config.json"
    path.write_text(json.dumps(cfg.to_dict()))
    return path


def _make_dataset(tmp_path, spec_file, name, seed):
    out = tmp_path / name
    rc = cli.main(["synth", "--out", str(out), "--spec", str(spec_file),
                   "--seed", str(seed)])
    assert rc == 0
    return out


# ---------------------------------------------------------------------------
# synth / stats
# ---------------------------------------------------------------------------


def test_synth_writes_manifest_listing_every_utterance(tmp_path, synth_spec_file,
                                                       capsys):
    out = _make_dataset(tmp_path, synth_spec_file, "ds", 4)
    stdout = capsys.readouterr().out
    assert "resolved config" in stdout and "seed: 4" in stdout
    manifest = json.loads((out / "manifest.json").read_text())
    assert len(manifest["samples"]) == 8
    for entry in manifest["samples"]:
        assert (out / entry["features"]).is_file()
        assert (out / entry["annotations"]).is_file()


def test_synth_same_seed_identical_files(tmp_path, synth_spec_file):
    a = _make_dataset(tmp_path, synth_spec_file, "a", 9)
    b = _make_dataset(tmp_path, synth_spec_file, "b", 9)
    c = _make_dataset(tmp_path, synth_spec_file, "c", 10)
    assert _dir_digest(a) == _dir_digest(b)
    assert _dir_digest(a) != _dir_digest(c)


def test_stats_reports_corpus_composition(tmp_path, synth_spec_file, capsys):
    out = _make_dataset(tmp_path, synth_spec_file, "ds", 4)
    capsys.readouterr()
    rc = cli.main(["stats", "--data", str(out)])
    assert rc == 0
    stdout = capsys.readouterr().out
    assert "frame-level" in stdout and "utterance-level" in stdout


def test_stats_holds_one_feature_file_at_a_time(tmp_path, synth_spec_file,
                                                monkeypatch, capsys):
    import weakref

    from tdl import data as data_mod

    out = _make_dataset(tmp_path, synth_spec_file, "ds", 4)
    refs, alive = [], []
    real_load = data_mod.load_feature_file

    def tracked_load(path):
        alive.append(sum(ref() is not None for ref in refs))
        seq = real_load(path)
        refs.append(weakref.ref(seq))
        return seq

    monkeypatch.setattr(data_mod, "load_feature_file", tracked_load)
    capsys.readouterr()
    assert cli.main(["stats", "--data", str(out)]) == 0
    assert "utterances: 8" in capsys.readouterr().out
    # every feature file is still read and checked, but only the last
    # sample's matrix is alive when the next file is read
    assert len(refs) == 8 and max(alive) <= 1


def test_stats_missing_manifest_exits_one(tmp_path, capsys):
    assert cli.main(["stats", "--data", str(tmp_path)]) == 1
    assert "error" in capsys.readouterr().err


def _break_manifest(data_dir):
    manifest = data_dir / "manifest.json"
    obj = json.loads(manifest.read_text())
    del obj["samples"][0]["features"]
    manifest.write_text(json.dumps(obj))


def test_stats_and_eval_malformed_manifest_exit_one(tmp_path, synth_spec_file,
                                                    capsys):
    from tdl.model import build_model, save_checkpoint

    out = _make_dataset(tmp_path, synth_spec_file, "ds", 4)
    _break_manifest(out)
    checkpoint = tmp_path / "m.tdlc"
    save_checkpoint(build_model(desk_config()), checkpoint)
    capsys.readouterr()
    for argv in (["stats", "--data", str(out)],
                 ["eval", "--checkpoint", str(checkpoint), "--test", str(out),
                  "--report", str(tmp_path / "r.json")]):
        assert cli.main(argv) == 1, argv
        err = capsys.readouterr().err
        assert "error:" in err and "features" in err, argv
        assert "Traceback" not in err, argv


@pytest.mark.parametrize("command", ["stats", "eval", "train"])
def test_empty_dataset_exits_one_naming_its_directory(tmp_path, command, capsys,
                                                      smoke_config_file):
    from tdl.model import build_model, save_checkpoint

    empty = tmp_path / "empty-set"
    empty.mkdir()
    (empty / "manifest.json").write_text(json.dumps({"samples": []}))
    checkpoint = tmp_path / "m.tdlc"
    save_checkpoint(build_model(desk_config()), checkpoint)
    argv = {"stats": ["stats", "--data", str(empty)],
            "eval": ["eval", "--checkpoint", str(checkpoint), "--test", str(empty),
                     "--report", str(tmp_path / "r.json")],
            "train": ["train", "--config", str(smoke_config_file), "--train",
                      str(empty), "--dev", str(empty), "--out", str(tmp_path / "run")],
            }[command]
    capsys.readouterr()
    assert cli.main(argv) == 1
    err = capsys.readouterr().err
    assert f"error: {empty} holds no utterances" in err
    assert "Traceback" not in err
    assert not (tmp_path / "r.json").exists() and not (tmp_path / "run").exists()


# ---------------------------------------------------------------------------
# gradcheck / params
# ---------------------------------------------------------------------------


def test_gradcheck_tiny_passes_and_lists_ops(capsys):
    rc = cli.main(["gradcheck", "--size", "tiny", "--seed", "0"])
    assert rc == 0
    stdout = capsys.readouterr().out
    for op in ("conv1d", "fc", "relu", "sigmoid", "l2_normalize", "bce",
               "esm", "neighbor_similarity", "tconv", "model.fc.weights"):
        assert op in stdout
    assert "gradient check passed" in stdout


def test_gradcheck_impossible_tolerance_exits_two(capsys):
    rc = cli.main(["gradcheck", "--size", "tiny", "--seed", "0",
                   "--tolerance", "1e-18"])
    assert rc == 2


def test_params_table_matches_library_count(tmp_path, smoke_config_file, capsys):
    rc = cli.main(["params", "--config", str(smoke_config_file)])
    assert rc == 0
    stdout = capsys.readouterr().out
    assert "thousands" in stdout
    rows = [ln.split() for ln in stdout.splitlines()
            if ln.split() and ln.split()[0] in
            ("conv_a", "conv_b", "tconv_1", "tconv_2", "conv_head", "fc", "total")]
    counts = {r[0]: int(r[1]) for r in rows}
    assert counts["total"] == sum(v for k, v in counts.items() if k != "total")

    from tdl.model import build_model, desk_config as dc, param_count_table
    _, total = param_count_table(build_model(dc(epochs=2, batch_size=2, seed=1)))
    assert counts["total"] == total


def test_params_accepts_key_value_config(tmp_path, capsys):
    path = tmp_path / "kv.cfg"
    path.write_text(
        "feat_dim = 8\nt_max = 12\nembed_dim = 4\nconv_hidden = 8\n"
        "tconv_channels = 8\nlabel_len = 4\n# comment\n"
        "esm.tau_same = 0.8\noptimizer.base_lr = 0.001\nlambda = 0.2\n"
    )
    rc = cli.main(["params", "--config", str(path)])
    assert rc == 0
    stdout = capsys.readouterr().out
    assert '"tau_same": 0.8' in stdout
    assert '"lambda": 0.2' in stdout


def test_params_counts_without_allocating_the_parameters(tmp_path, capsys):
    # about 1.1 TiB of conv weights if allocated
    path = tmp_path / "kv.cfg"
    path.write_text("feat_dim = 100000000\ntconv_channels = 100000000\n")
    assert cli.main(["params", "--config", str(path)]) == 0
    total = capsys.readouterr().out.splitlines()[-1].split()
    assert total[:2] == ["total", "60000154000327030"]


@pytest.mark.parametrize("command, name, text", [
    ("params", "c.cfg", 'esm.tau_same = "abc"\n'),
    ("params", "c.cfg", 'seed = "x"\n'),
    ("params", "c.cfg", "esm = 5\n"),
    ("params", "c.cfg", "feat_dim = 16.5\ntconv_channels = 16.5\n"),
    ("params", "c.cfg", "rectify_similarity = 1\n"),
    ("params", "c.json", '{"optimizer": {"halving_period_epochs": true}}'),
    ("params", "c.json", '{"lambda": 0.1, "esm_weight": 0.5}'),
    ("synth", "s.json", '{"dim": "x", "num_utterances": 4}'),
    ("synth", "s.json", '{"dim": 4, "num_utterances": 2.5}'),
    ("synth", "s.json", '{"dim": 4, "num_utterances": 4, "duration_range_s": 5}'),
    ("params", "c.json", '{"esm": {"tau_same": null}}'),
    ("params", "c.cfg", "seed = null\n"),
], ids=["tau-str", "seed-str", "esm-int", "dims-float", "bool-int",
        "period-bool", "lambda-and-esm_weight", "dim-str", "count-float",
        "range-int", "tau-null", "seed-null"])
def test_wrong_typed_config_value_exits_one(tmp_path, capsys, command, name, text):
    path = tmp_path / name
    path.write_text(text)
    flag = "--config" if command == "params" else "--spec"
    argv = [command, flag, str(path)]
    if command == "synth":
        argv += ["--out", str(tmp_path / "out"), "--seed", "1"]
    assert cli.main(argv) == 1
    assert "error:" in capsys.readouterr().err


@pytest.mark.parametrize("prefix", ["../../esc", "a\0b"], ids=["climbs-out", "nul"])
def test_synth_with_an_unsafe_sample_prefix_exits_one_and_writes_nothing(
        tmp_path, capsys, prefix):
    spec = tmp_path / "spec.json"
    spec.write_text(json.dumps({"dim": 4, "num_utterances": 2, "sample_prefix": prefix}))
    before = sorted(tmp_path.rglob("*"))
    rc = cli.main(["synth", "--out", str(tmp_path / "sub" / "ds"), "--spec", str(spec),
                   "--seed", "1"])
    err = capsys.readouterr().err
    assert rc == 1
    assert err == f"error: sample id {prefix + '00000'!r} is not a plain file name\n"
    assert sorted(tmp_path.rglob("*")) == before


# ---------------------------------------------------------------------------
# train / eval
# ---------------------------------------------------------------------------


def test_train_eval_pipeline(tmp_path, synth_spec_file, smoke_config_file, capsys):
    train_dir = _make_dataset(tmp_path, synth_spec_file, "train", 1)
    dev_dir = _make_dataset(tmp_path, synth_spec_file, "dev", 2)
    out = tmp_path / "run"
    rc = cli.main(["train", "--config", str(smoke_config_file),
                   "--train", str(train_dir), "--dev", str(dev_dir),
                   "--out", str(out)])
    assert rc == 0
    assert (out / "best.tdlc").is_file() and (out / "last.tdlc").is_file()
    log_lines = (out / "train_log.jsonl").read_text().splitlines()
    assert len(log_lines) == 2  # one record per epoch
    for line in log_lines:
        record = json.loads(line)
        assert {"epoch", "mean_bce", "mean_esm_total", "learning_rate",
                "dev_eer_pct", "wall_time_s"} <= set(record)

    capsys.readouterr()
    report_path = tmp_path / "report.json"
    rc = cli.main(["eval", "--checkpoint", str(out / "best.tdlc"),
                   "--test", str(dev_dir), "--report", str(report_path)])
    assert rc == 0
    stdout = capsys.readouterr().out
    assert "EER" in stdout
    report = json.loads(report_path.read_text())
    assert {"eer_pct", "eer_threshold", "precision_pct", "recall_pct",
            "f1_pct", "counts", "threshold", "num_frames",
            "num_utterances"} <= set(report)
    assert report["num_utterances"] == 8


def test_train_with_kernel_wider_than_t_max(tmp_path):
    spec = tmp_path / "spec.json"
    spec.write_text('{"dim": 4, "num_utterances": 4, "frame_rate_hz": 2.0}')
    config = tmp_path / "c.cfg"
    config.write_text(
        "feat_dim = 4\ntconv_channels = 4\nembed_dim = 4\nconv_hidden = 4\n"
        "t_max = 6\nkernel = 15\nlabel_len = 6\nlabel_resolution_s = 0.5\n"
        "epochs = 2\nbatch_size = 2\nseed = 7\n"
    )
    train_dir = _make_dataset(tmp_path, spec, "train", 1)
    dev_dir = _make_dataset(tmp_path, spec, "dev", 2)
    assert cli.main(["train", "--config", str(config), "--train", str(train_dir),
                     "--dev", str(dev_dir), "--out", str(tmp_path / "run")]) == 0


@pytest.mark.parametrize("out", ["outfile", "outfile/run"])
def test_train_refuses_a_file_as_out_before_training(tmp_path, synth_spec_file,
                                                     smoke_config_file, monkeypatch,
                                                     capsys, out):
    from tdl import model as model_mod

    data_dir = _make_dataset(tmp_path, synth_spec_file, "ds", 4)
    (tmp_path / "outfile").write_text("")

    def no_training(*args, **kw):
        raise AssertionError("trained before checking --out")

    monkeypatch.setattr(model_mod, "epochs", no_training)
    capsys.readouterr()
    assert cli.main(["train", "--config", str(smoke_config_file),
                     "--train", str(data_dir), "--dev", str(data_dir),
                     "--out", str(tmp_path / out)]) == 1
    assert "error:" in capsys.readouterr().err
    assert (tmp_path / "outfile").read_text() == ""


def test_train_resume_reproduces_uninterrupted_run(tmp_path, synth_spec_file,
                                                   capsys):
    train_dir = _make_dataset(tmp_path, synth_spec_file, "train", 1)
    dev_dir = _make_dataset(tmp_path, synth_spec_file, "dev", 2)

    cfg2 = desk_config(epochs=2, batch_size=2, seed=1)
    cfg1 = desk_config(epochs=1, batch_size=2, seed=1)
    f2 = tmp_path / "cfg2.json"
    f1 = tmp_path / "cfg1.json"
    f2.write_text(json.dumps(cfg2.to_dict()))
    f1.write_text(json.dumps(cfg1.to_dict()))

    full = tmp_path / "full"
    assert cli.main(["train", "--config", str(f2), "--train", str(train_dir),
                     "--dev", str(dev_dir), "--out", str(full)]) == 0
    part = tmp_path / "part"
    assert cli.main(["train", "--config", str(f1), "--train", str(train_dir),
                     "--dev", str(dev_dir), "--out", str(part)]) == 0
    resumed = tmp_path / "resumed"
    assert cli.main(["train", "--config", str(f2), "--train", str(train_dir),
                     "--dev", str(dev_dir), "--out", str(resumed),
                     "--resume", str(part / "last.tdlc")]) == 0

    full_log = [json.loads(l) for l in
                (full / "train_log.jsonl").read_text().splitlines()]
    res_log = [json.loads(l) for l in
               (resumed / "train_log.jsonl").read_text().splitlines()]
    assert res_log[-1]["epoch"] == 1
    assert res_log[-1]["mean_total"] == full_log[-1]["mean_total"]
    assert (resumed / "last.tdlc").read_bytes() == (full / "last.tdlc").read_bytes()


def test_train_reports_a_missing_resume_before_reading_the_data(
        tmp_path, smoke_config_file, capsys):
    no_manifest = tmp_path / "no_manifest"
    no_manifest.mkdir()
    assert cli.main(["train", "--config", str(smoke_config_file),
                     "--train", str(no_manifest), "--dev", str(no_manifest),
                     "--out", str(tmp_path / "run"),
                     "--resume", str(tmp_path / "gone.tdlc")]) == 1
    err = capsys.readouterr().err
    assert "gone.tdlc" in err and "manifest" not in err
    assert not (tmp_path / "run").exists()


def test_train_resume_from_a_damaged_checkpoint_names_it(tmp_path,
                                                        smoke_config_file, capsys):
    from tdl.model import build_model, encode_checkpoint

    bad = tmp_path / "bad.tdlc"
    blob = encode_checkpoint(build_model(desk_config(epochs=2, batch_size=2, seed=1)))
    bad.write_bytes(b"XXXX" + blob[4:])
    missing = str(tmp_path / "missing")
    capsys.readouterr()
    assert cli.main(["train", "--config", str(smoke_config_file), "--train", missing,
                     "--dev", missing, "--out", str(tmp_path / "run"),
                     "--resume", str(bad)]) == 1
    # the error names the file, and no traceback or output directory is left
    assert capsys.readouterr().err == f"error: {bad}: bad checkpoint magic b'XXXX'\n"
    assert not (tmp_path / "run").exists()


def test_resume_past_the_epoch_budget_exits_one_and_writes_nothing(
        tmp_path, synth_spec_file, smoke_config_file, capsys):
    train_dir = _make_dataset(tmp_path, synth_spec_file, "train", 1)
    dev_dir = _make_dataset(tmp_path, synth_spec_file, "dev", 2)
    run = ["train", "--config", str(smoke_config_file), "--train", str(train_dir),
           "--dev", str(dev_dir)]
    assert cli.main(run + ["--out", str(tmp_path / "run")]) == 0
    capsys.readouterr()
    again = tmp_path / "again"
    assert cli.main(run + ["--out", str(again),
                           "--resume", str(tmp_path / "run" / "last.tdlc")]) == 1
    assert "nothing to train" in capsys.readouterr().err
    assert not again.exists()


@pytest.mark.parametrize("overrides, message", [
    (dict(epochs=2, seed=2), "resume checkpoint config differs from run config"),
    (dict(epochs=1), "resume checkpoint is at epoch 1, which leaves nothing to "
                     "train in epochs 1"),
], ids=["seed-differs", "no-epochs-left"])
def test_a_resume_that_cannot_train_exits_one_before_reading_the_data(
        tmp_path, capsys, overrides, message):
    from tdl.model import build_model, save_checkpoint

    model = build_model(desk_config(epochs=1, batch_size=2, seed=1))
    model.epoch = 1  # as a 1-epoch run's last.tdlc
    save_checkpoint(model, tmp_path / "last.tdlc")
    config = tmp_path / "config.json"
    config.write_text(json.dumps(
        desk_config(**{"batch_size": 2, "seed": 1, **overrides}).to_dict()))
    missing = str(tmp_path / "missing")
    capsys.readouterr()
    assert cli.main(["train", "--config", str(config), "--train", missing,
                     "--dev", missing, "--out", str(tmp_path / "run"),
                     "--resume", str(tmp_path / "last.tdlc")]) == 1
    err = capsys.readouterr().err
    assert f"error: {message}" in err
    assert "manifest" not in err and "Traceback" not in err
    assert not (tmp_path / "run").exists()


def test_converged_run_scores_own_training_data(tmp_path, capsys):
    # the long CLI pipeline check: a converged run must nearly memorize
    # its training corpus (EER well under 5% when evaluated on it)
    spec = desk_benchmark_spec(num_utterances=150)
    spec_path = tmp_path / "bench.json"
    spec_path.write_text(json.dumps(spec.to_dict()))
    train_dir = _make_dataset(tmp_path, spec_path, "train", 7)
    dev_spec = desk_benchmark_spec(num_utterances=50)
    dev_path = tmp_path / "dev.json"
    dev_path.write_text(json.dumps(dev_spec.to_dict()))
    dev_dir = _make_dataset(tmp_path, dev_path, "dev", 8)

    config = desk_config()  # full 30-epoch schedule
    config_path = tmp_path / "config.json"
    config_path.write_text(json.dumps(config.to_dict()))
    out = tmp_path / "run"
    assert cli.main(["train", "--config", str(config_path),
                     "--train", str(train_dir), "--dev", str(dev_dir),
                     "--out", str(out)]) == 0

    report_path = tmp_path / "train_report.json"
    assert cli.main(["eval", "--checkpoint", str(out / "best.tdlc"),
                     "--test", str(train_dir),
                     "--report", str(report_path)]) == 0
    report = json.loads(report_path.read_text())
    assert report["eer_pct"] < 5.0
    capsys.readouterr()


def test_eval_dim_mismatch_is_clear_error(tmp_path, synth_spec_file,
                                          smoke_config_file, capsys):
    train_dir = _make_dataset(tmp_path, synth_spec_file, "train", 1)
    dev_dir = _make_dataset(tmp_path, synth_spec_file, "dev", 2)
    out = tmp_path / "run"
    assert cli.main(["train", "--config", str(smoke_config_file),
                     "--train", str(train_dir), "--dev", str(dev_dir),
                     "--out", str(out)]) == 0

    wide_spec = desk_benchmark_spec(num_utterances=3, dim=24)
    spec_path = tmp_path / "wide.json"
    spec_path.write_text(json.dumps(wide_spec.to_dict()))
    wide_dir = _make_dataset(tmp_path, spec_path, "wide", 3)
    capsys.readouterr()
    rc = cli.main(["eval", "--checkpoint", str(out / "best.tdlc"),
                   "--test", str(wide_dir), "--report",
                   str(tmp_path / "r.json")])
    assert rc == 1
    err = capsys.readouterr().err
    assert "feature dim 24" in err and "16" in err


def test_unknown_flag_exits_one(capsys):
    assert cli.main(["synth", "--out", "x", "--spec", "y", "--seed", "1",
                     "--bogus"]) == 1


def test_unknown_command_exits_one():
    assert cli.main(["frobnicate"]) == 1


def test_missing_spec_file_exits_one(tmp_path):
    assert cli.main(["synth", "--out", str(tmp_path / "o"),
                     "--spec", str(tmp_path / "missing.json"),
                     "--seed", "1"]) == 1


# ---------------------------------------------------------------------------
# block eval
# ---------------------------------------------------------------------------


def _eval_corpus(tmp_path, dims):
    """A desk test corpus (one utterance per entry of ``dims``, mixed true
    lengths) and an untrained desk checkpoint."""
    from tdl import data as data_mod
    from tdl.model import build_model, save_checkpoint

    features, annotations = [], []
    for i, dim in enumerate(dims):
        f, a = data_mod.synth_dataset(
            desk_benchmark_spec(num_utterances=1, dim=dim,
                                sample_prefix=f"u{i:02d}"), [11, i])
        features += f
        annotations += a
    test_dir = tmp_path / "test"
    data_mod.write_dataset(test_dir, features, annotations)
    checkpoint = tmp_path / "m.tdlc"
    save_checkpoint(build_model(desk_config(seed=3)), checkpoint)
    return test_dir, checkpoint


def _one_run(monkeypatch):
    """Have ``tdl eval`` score its test set in one run, in this process: a
    forked run's calls are not seen by this process's monkeypatches."""
    from tdl import model as model_mod

    monkeypatch.setattr(model_mod, "_block_workers", lambda: 1)


def test_block_eval_report_matches_per_utterance_predict(tmp_path, monkeypatch,
                                                         capsys):
    from tdl import data as data_mod
    from tdl import metrics as metrics_mod
    from tdl import model as model_mod

    test_dir, checkpoint = _eval_corpus(tmp_path, [16] * 37)
    config = desk_config()
    features, annotations = zip(*data_mod.stream_dataset(test_dir))
    assert len({seq.true_frames for seq in features}) > 1
    assert model_mod._block_size(config) == 16  # blocks 16/16/5

    block_sizes = []
    real_forward_block = model_mod._forward_block

    def counting_forward_block(model, xv, true_frames):
        block_sizes.append(len(xv))
        return real_forward_block(model, xv, true_frames)

    monkeypatch.setattr(model_mod, "_forward_block", counting_forward_block)
    _one_run(monkeypatch)
    path = tmp_path / "report.json"
    assert cli.main(["eval", "--checkpoint", str(checkpoint), "--test",
                     str(test_dir), "--report", str(path)]) == 0
    assert block_sizes == [16, 16, 5]

    model = model_mod.load_checkpoint(checkpoint)
    labels = data_mod.compile_labels(annotations, config.label_resolution_s,
                                     config.label_len, config.label_setting)
    scores = [model_mod.predict(model, seq, lab.true_labels)
              for seq, lab in zip(features, labels)]
    expected = metrics_mod.compute_report(
        metrics_mod.EvalPool(*pooled_reference(scores, labels), len(labels)))
    report = json.loads(path.read_bytes())
    assert set(report) == set(expected) | {"metadata"}
    for key, value in expected.items():
        assert report[key] == value, key
    capsys.readouterr()


def test_eval_checks_each_feature_matrix_and_annotation_once(tmp_path,
                                                            monkeypatch, capsys):
    from tdl import data as data_mod

    test_dir, checkpoint = _eval_corpus(tmp_path, [16] * 20)
    checks = {"features": 0, "annotations": 0}
    real_validate = data_mod.FeatureSequence.validate
    real_post_init = data_mod.SegmentAnnotation.__post_init__

    def counting_validate(seq):
        checks["features"] += 1
        real_validate(seq)

    def counting_post_init(ann):
        checks["annotations"] += 1
        real_post_init(ann)

    monkeypatch.setattr(data_mod.FeatureSequence, "validate", counting_validate)
    monkeypatch.setattr(data_mod.SegmentAnnotation, "__post_init__",
                        counting_post_init)
    _one_run(monkeypatch)
    assert cli.main(["eval", "--checkpoint", str(checkpoint), "--test",
                     str(test_dir), "--report", str(tmp_path / "r.json")]) == 0
    assert checks == {"features": 20, "annotations": 20}
    capsys.readouterr()


@pytest.mark.parametrize("report", ["nodir/r.json", "adir", "afile/r.json"])
def test_eval_refuses_a_bad_report_path_before_scoring(tmp_path, monkeypatch,
                                                       capsys, report):
    from tdl import model as model_mod

    test_dir, checkpoint = _eval_corpus(tmp_path, [16] * 6)
    (tmp_path / "adir").mkdir()
    (tmp_path / "afile").write_text("")
    before = sorted(p.relative_to(tmp_path) for p in tmp_path.rglob("*"))

    def no_scoring(*args, **kw):
        raise AssertionError("loaded the checkpoint before checking --report")

    monkeypatch.setattr(model_mod, "load_checkpoint", no_scoring)
    capsys.readouterr()
    assert cli.main(["eval", "--checkpoint", str(checkpoint), "--test",
                     str(test_dir), "--report", str(tmp_path / report)]) == 1
    assert "error: --report" in capsys.readouterr().err
    assert sorted(p.relative_to(tmp_path) for p in tmp_path.rglob("*")) == before


def test_eval_of_an_utterance_longer_than_t_max_exits_one(tmp_path, capsys):
    from tdl import data as data_mod
    from tdl.model import build_model, save_checkpoint

    checkpoint = tmp_path / "m.tdlc"
    save_checkpoint(build_model(desk_config()), checkpoint)
    # 75 frames at 30 Hz, past desk t_max 64, in 16 label frames of 0.16 s
    f, a = data_mod.synth_dataset(desk_benchmark_spec(
        num_utterances=1, frame_rate_hz=30.0, duration_range_s=(2.5, 2.5),
        sample_prefix="long"), 5)
    assert f[0].true_frames == 75
    long_dir = tmp_path / "long"
    data_mod.write_dataset(long_dir, f, a)
    report = tmp_path / "r.json"
    capsys.readouterr()
    assert cli.main(["eval", "--checkpoint", str(checkpoint), "--test",
                     str(long_dir), "--report", str(report)]) == 1
    err = capsys.readouterr().err
    assert f"error: {f[0].sample_id}: 75 true frames exceed t_max 64" in err
    assert "Traceback" not in err
    assert not report.exists()


def test_block_eval_dim_mismatch_in_last_block_writes_no_report(tmp_path, capsys):
    test_dir, checkpoint = _eval_corpus(tmp_path, [16] * 36 + [24])
    report = tmp_path / "r.json"
    capsys.readouterr()
    assert cli.main(["eval", "--checkpoint", str(checkpoint), "--test",
                     str(test_dir), "--report", str(report)]) == 1
    err = capsys.readouterr().err
    assert "feature dim 24" in err and "16" in err
    assert not report.exists()


def test_eval_opens_each_file_once(tmp_path, monkeypatch, capsys):
    from tdl import data as data_mod

    test_dir, checkpoint = _eval_corpus(tmp_path, [16] * 20)
    opened, os_open = [], os.open

    def counting_open(path, *args, **kwargs):
        if sys._getframe(1).f_globals["__name__"] == data_mod.__name__:
            opened.append(Path(path))
        return os_open(path, *args, **kwargs)

    monkeypatch.setattr(os, "open", counting_open)
    _one_run(monkeypatch)
    assert cli.main(["eval", "--checkpoint", str(checkpoint), "--test",
                     str(test_dir), "--report", str(tmp_path / "r.json")]) == 0
    samples = json.loads((test_dir / "manifest.json").read_text())["samples"]
    expected = [test_dir / "manifest.json"] + [
        test_dir / entry[key] for entry in samples
        for key in ("features", "annotations")]
    assert opened == expected
    capsys.readouterr()


def _truncated(path):
    raw = path.read_bytes()
    path.write_bytes(raw[:-4])
    return f"{path}: payload is {len(raw) - 24} bytes, expected {len(raw) - 20}"


def _not_utf8(path):
    path.write_bytes(b"\xff\xfe" + path.read_bytes())
    return (f"{path}: not UTF-8 text: 'utf-8' codec can't decode byte 0xff in "
            "position 0: invalid start byte")


def _bad_json(path):
    text = path.read_text(encoding="utf-8")[:-3]
    path.write_text(text, encoding="utf-8")
    try:
        json.loads(text)
    except ValueError as exc:
        return f"{path}: invalid JSON: {exc}"
    raise AssertionError("cut annotation still parses")


_LATE_DAMAGE = {"truncated-tdlf": ("features", _truncated),
                "not-utf8-annotation": ("annotations", _not_utf8),
                "bad-json-annotation": ("annotations", _bad_json)}


@pytest.fixture(scope="module")
def late_error_corpus(tmp_path_factory):
    """A 37-utterance desk corpus (three blocks), a checkpoint and a report
    of the intact corpus, shared read-only by the late-error cases."""
    tmp = tmp_path_factory.mktemp("late")
    test_dir, checkpoint = _eval_corpus(tmp, [16] * 37)
    report = tmp / "good.json"
    assert cli.main(["eval", "--checkpoint", str(checkpoint), "--test",
                     str(test_dir), "--report", str(report)]) == 0
    return test_dir, checkpoint, report.read_bytes()


@pytest.mark.parametrize("position", [0, 18, 36], ids=["first", "middle", "last"])
@pytest.mark.parametrize("damage", sorted(_LATE_DAMAGE))
def test_bad_file_late_in_the_stream_exits_one_and_writes_no_report(
        tmp_path, late_error_corpus, capsys, damage, position):
    import shutil

    source, checkpoint, good_report = late_error_corpus
    test_dir = tmp_path / "test"
    shutil.copytree(source, test_dir)
    key, damage_fn = _LATE_DAMAGE[damage]
    entry = json.loads((test_dir / "manifest.json").read_text())["samples"][position]
    message = damage_fn(test_dir / entry[key])
    out = tmp_path / "out"
    out.mkdir()
    previous = out / "previous.json"
    previous.write_bytes(good_report)
    capsys.readouterr()
    for report in (out / "new.json", previous):
        assert cli.main(["eval", "--checkpoint", str(checkpoint), "--test",
                         str(test_dir), "--report", str(report)]) == 1
        assert capsys.readouterr().err == f"error: {message}\n"
    assert previous.read_bytes() == good_report
    assert sorted(p.name for p in out.iterdir()) == ["previous.json"]


@pytest.mark.parametrize("segments, problem", [
    ([], "no segments"),
    ([{"start_s": 0.0, "end_s": 1.0, "label": "spoof"}], "bad label 'spoof'"),
    ([{"start_s": 0.0, "end_s": 0.5, "label": "real"}],
     "segments end at 0.5, duration is 1.0"),
], ids=["no-segments", "bad-label", "ends-early"])
def test_eval_of_an_annotation_that_does_not_tile_exits_one(tmp_path, capsys,
                                                            segments, problem):
    test_dir, checkpoint = _eval_corpus(tmp_path, [16, 16])
    entry = json.loads((test_dir / "manifest.json").read_text())["samples"][1]
    (test_dir / entry["annotations"]).write_text(json.dumps(
        {"sample_id": entry["id"], "duration_s": 1.0, "segments": segments}))
    report = tmp_path / "r.json"
    capsys.readouterr()
    assert cli.main(["eval", "--checkpoint", str(checkpoint), "--test",
                     str(test_dir), "--report", str(report)]) == 1
    assert capsys.readouterr().err == (
        f"error: {test_dir / entry['annotations']}: {entry['id']}: {problem}\n")
    assert not report.exists()


# ---------------------------------------------------------------------------
# eval runs in forked processes
# ---------------------------------------------------------------------------


def _runs(monkeypatch, workers, run_min_blocks=1):
    """Set the worker count and the blocks per run ``score_pool`` splits
    a set by; returns the list that gets the pid of each child it forks."""
    from tdl import model as model_mod

    monkeypatch.setattr(model_mod, "_block_workers", lambda: workers)
    monkeypatch.setattr(model_mod, "RUN_MIN_BLOCKS", run_min_blocks)
    forked, fork = [], os.fork

    def recording_fork():
        pid = fork()
        if pid:
            forked.append(pid)
        return pid

    monkeypatch.setattr(os, "fork", recording_fork)
    return forked


def _no_child_left():
    with pytest.raises(ChildProcessError):
        os.waitpid(-1, os.WNOHANG)


def test_eval_report_bytes_do_not_depend_on_the_runs(tmp_path, monkeypatch,
                                                     capsys):
    from tdl import model as model_mod

    test_dir, checkpoint = _eval_corpus(tmp_path, [16] * 37)  # blocks 16/16/5
    model = model_mod.load_checkpoint(checkpoint)
    one_run = model_mod.score_pool(model, cli._LabelledSet(test_dir, model.config))
    reports = []
    for workers in (1, 2, 3):
        forked = _runs(monkeypatch, workers)
        path = tmp_path / f"r{workers}.json"
        assert cli.main(["eval", "--checkpoint", str(checkpoint), "--test",
                         str(test_dir), "--report", str(path)]) == 0
        assert len(forked) == workers - 1
        reports.append(path.read_bytes())
        # the report does not show the frames' order; the pool does
        pool = model_mod.score_pool(model, cli._LabelledSet(test_dir, model.config))
        assert pool.scores.tobytes() == one_run.scores.tobytes()
        assert pool.labels.tobytes() == one_run.labels.tobytes()
        assert pool.num_utterances == 37
        _no_child_left()
    assert reports[1] == reports[0] and reports[2] == reports[0]
    capsys.readouterr()


@pytest.mark.parametrize("blocks", [7, 8])
def test_eval_forks_once_each_run_has_run_min_blocks(tmp_path, monkeypatch,
                                                      capsys, blocks):
    from tdl import model as model_mod

    assert model_mod.RUN_MIN_BLOCKS == 4
    test_dir, checkpoint = _eval_corpus(tmp_path, [16] * (16 * blocks))
    want = tmp_path / "want.json"
    _one_run(monkeypatch)
    assert cli.main(["eval", "--checkpoint", str(checkpoint), "--test",
                     str(test_dir), "--report", str(want)]) == 0
    forked = _runs(monkeypatch, 2, model_mod.RUN_MIN_BLOCKS)
    path = tmp_path / "r.json"
    assert cli.main(["eval", "--checkpoint", str(checkpoint), "--test",
                     str(test_dir), "--report", str(path)]) == 0
    assert len(forked) == blocks // 8  # 8 blocks: two runs of 4
    assert path.read_bytes() == want.read_bytes()
    _no_child_left()
    capsys.readouterr()


@pytest.mark.parametrize("case", ["one-block", "no-fork", "a-thread-runs"])
def test_eval_runs_inline_with_no_fork(tmp_path, monkeypatch, capsys, case):
    import threading

    from tdl import model as model_mod

    test_dir, checkpoint = _eval_corpus(tmp_path, [16] * (5 if case == "one-block"
                                                          else 20))
    want = tmp_path / "want.json"
    _one_run(monkeypatch)
    assert cli.main(["eval", "--checkpoint", str(checkpoint), "--test",
                     str(test_dir), "--report", str(want)]) == 0
    monkeypatch.setattr(model_mod, "_block_workers", lambda: 3)
    monkeypatch.setattr(model_mod, "RUN_MIN_BLOCKS", 1)

    def no_fork():
        raise AssertionError("forked")

    if case == "no-fork":
        monkeypatch.delattr(os, "fork")
    else:
        monkeypatch.setattr(os, "fork", no_fork)
    stop = threading.Event()
    thread = threading.Thread(target=stop.wait)
    if case == "a-thread-runs":
        thread.start()
    try:
        path = tmp_path / "r.json"
        assert cli.main(["eval", "--checkpoint", str(checkpoint), "--test",
                         str(test_dir), "--report", str(path)]) == 0
    finally:
        stop.set()
        if case == "a-thread-runs":
            thread.join(timeout=10)
    assert not thread.is_alive()
    assert path.read_bytes() == want.read_bytes()
    _no_child_left()
    capsys.readouterr()


def _untiled(path):
    ann = json.loads(path.read_text())
    path.write_text(json.dumps({**ann, "segments": []}))
    return f"{path}: {ann['sample_id']}: no segments"


@pytest.mark.parametrize("workers", [1, 2, 3])
@pytest.mark.parametrize("damage, key", [(_truncated, "features"),
                                         (_untiled, "annotations")],
                         ids=["truncated-tdlf", "untiled-annotation"])
def test_a_bad_file_in_the_last_run_exits_one_as_one_run_does(
        tmp_path, late_error_corpus, monkeypatch, capsys, damage, key, workers):
    import shutil

    source, checkpoint, _ = late_error_corpus
    test_dir = tmp_path / "test"
    shutil.copytree(source, test_dir)
    entry = json.loads((test_dir / "manifest.json").read_text())["samples"][-1]
    message = damage(test_dir / entry[key])
    forked = _runs(monkeypatch, workers)
    report = tmp_path / "r.json"
    capsys.readouterr()
    assert cli.main(["eval", "--checkpoint", str(checkpoint), "--test",
                     str(test_dir), "--report", str(report)]) == 1
    assert capsys.readouterr().err == f"error: {message}\n"
    assert len(forked) == workers - 1
    assert not report.exists()
    _no_child_left()


def test_a_failure_in_run_zero_kills_and_reaps_the_children(
        tmp_path, late_error_corpus, monkeypatch, capsys):
    import shutil
    import signal

    source, checkpoint, _ = late_error_corpus
    test_dir = tmp_path / "test"
    shutil.copytree(source, test_dir)
    entry = json.loads((test_dir / "manifest.json").read_text())["samples"][0]
    message = _truncated(test_dir / entry["features"])
    forked = _runs(monkeypatch, 3)
    killed, kill = [], os.kill

    def recording_kill(pid, sig):
        killed.append((pid, sig))
        kill(pid, sig)

    monkeypatch.setattr(os, "kill", recording_kill)
    report = tmp_path / "r.json"
    capsys.readouterr()
    assert cli.main(["eval", "--checkpoint", str(checkpoint), "--test",
                     str(test_dir), "--report", str(report)]) == 1
    assert capsys.readouterr().err == f"error: {message}\n"
    assert len(forked) == 2
    assert killed == [(pid, signal.SIGKILL) for pid in forked]
    assert not report.exists()
    _no_child_left()


def test_a_run_whose_child_ends_without_a_result_is_scored_here(
        tmp_path, late_error_corpus, monkeypatch, capsys):
    from tdl import model as model_mod

    test_dir, checkpoint, good_report = late_error_corpus
    parent, stack_block, scored_here = os.getpid(), model_mod._stack_block, []

    def failing_in_a_child(config, pairs):  # each run is one block
        if os.getpid() != parent:
            raise MemoryError("a child ran out of memory")
        scored_here.append(pairs)
        return stack_block(config, pairs)

    monkeypatch.setattr(model_mod, "_stack_block", failing_in_a_child)
    forked = _runs(monkeypatch, 3)
    report = tmp_path / "r.json"
    assert cli.main(["eval", "--checkpoint", str(checkpoint), "--test",
                     str(test_dir), "--report", str(report)]) == 0
    assert len(forked) == 2 and len(scored_here) == 3
    assert report.read_bytes() == good_report
    _no_child_left()
    capsys.readouterr()


def _diverge_in_epoch_one(monkeypatch):
    """Patch model._minibatch_step to raise NumericError at the second step
    of epoch 1; returns a list that gets the encoded model epoch 0 left,
    which train() must restore."""
    from tdl import model as model_mod

    step, epoch_ends = model_mod._minibatch_step, []

    def diverging(model, batch, epoch):
        if epoch == 1:
            if epoch_ends:  # the first step of epoch 1 has moved the model
                raise NumericError("diverged")
            epoch_ends.append(model_mod.encode_checkpoint(model))
        return step(model, batch, epoch)

    monkeypatch.setattr(model_mod, "_minibatch_step", diverging)
    return epoch_ends


def test_train_that_diverges_exits_two_and_keeps_the_last_good_model(
        tmp_path, synth_spec_file, smoke_config_file, monkeypatch, capsys):
    train_dir = _make_dataset(tmp_path, synth_spec_file, "train", 1)
    dev_dir = _make_dataset(tmp_path, synth_spec_file, "dev", 2)
    epoch_ends = _diverge_in_epoch_one(monkeypatch)
    out = tmp_path / "run"
    capsys.readouterr()
    assert cli.main(["train", "--config", str(smoke_config_file), "--train",
                     str(train_dir), "--dev", str(dev_dir), "--out", str(out)]) == 2
    assert capsys.readouterr().err == ("training diverged: loss went non-finite; "
                                       "last good checkpoint written\n")
    assert (out / "last.tdlc").read_bytes() == epoch_ends[0]
    assert len((out / "train_log.jsonl").read_text().splitlines()) == 1


def test_train_that_diverges_in_its_first_epoch_writes_the_initial_model(
        tmp_path, synth_spec_file, smoke_config_file, monkeypatch, capsys):
    from tdl import model as model_mod

    train_dir = _make_dataset(tmp_path, synth_spec_file, "train", 1)
    dev_dir = _make_dataset(tmp_path, synth_spec_file, "dev", 2)
    step, steps = model_mod._minibatch_step, []

    def diverging(model, batch, epoch):
        if steps:  # the first step of epoch 0 has moved every row
            raise NumericError("diverged")
        steps.append(epoch)
        return step(model, batch, epoch)

    monkeypatch.setattr(model_mod, "_minibatch_step", diverging)
    out = tmp_path / "run"
    capsys.readouterr()
    assert cli.main(["train", "--config", str(smoke_config_file), "--train",
                     str(train_dir), "--dev", str(dev_dir), "--out", str(out)]) == 2
    captured = capsys.readouterr()
    assert captured.err == ("training diverged: loss went non-finite; "
                            "last good checkpoint written\n")
    assert "epoch " not in captured.out and steps == [0]
    initial = model_mod.encode_checkpoint(
        model_mod.build_model(desk_config(epochs=2, batch_size=2, seed=1)))
    assert (out / "best.tdlc").read_bytes() == initial
    assert (out / "last.tdlc").read_bytes() == initial
    assert (out / "train_log.jsonl").read_bytes() == b""


def _tdl_child(*argv) -> dict:
    """Popen arguments that run ``python -m tdl.cli ARGV`` in a child
    process that imports this tdl."""
    path = [str(Path(cli.__file__).parents[1]), os.environ.get("PYTHONPATH", "")]
    return dict(args=[sys.executable, "-m", "tdl.cli", *argv], text=True,
                env=dict(os.environ, PYTHONPATH=os.pathsep.join(path)),
                stdout=subprocess.PIPE, stderr=subprocess.DEVNULL)


def test_a_killed_train_keeps_each_epoch_and_resumes_to_the_same_bytes(
        tmp_path, synth_spec_file):
    from tdl.model import load_checkpoint

    train_dir = _make_dataset(tmp_path, synth_spec_file, "train", 1)
    dev_dir = _make_dataset(tmp_path, synth_spec_file, "dev", 2)
    budget = 20  # epochs; the killed run asks for 1,000 and dies after its first

    def argv(epochs, out, *resume):
        config = tmp_path / f"config{epochs}.json"
        config.write_text(json.dumps(
            desk_config(epochs=epochs, batch_size=2, seed=1).to_dict()))
        return ["train", "--config", str(config), "--train", str(train_dir),
                "--dev", str(dev_dir), "--out", str(tmp_path / out), *resume]

    killed = tmp_path / "killed"
    with subprocess.Popen(**_tdl_child(*argv(1000, "killed"))) as proc:
        watchdog = threading.Timer(120, proc.kill)  # a child that prints no epoch
        watchdog.start()
        try:
            line = next((ln for ln in proc.stdout if ln.startswith("epoch ")), "")
            # the epoch's files are on disk before its line is printed
            written = [(killed / name).is_file()
                       for name in ("last.tdlc", "train_log.jsonl")]
        finally:
            watchdog.cancel()
        proc.kill()
    watchdog.join()
    assert proc.returncode == -signal.SIGKILL
    assert line.startswith("epoch   0 ") and written == [True, True]
    assert 1 <= load_checkpoint(killed / "last.tdlc").epoch < budget

    resume = ("--resume", str(killed / "last.tdlc"))
    for out, more in (("full", ()), ("resumed", resume)):
        assert subprocess.run(**_tdl_child(*argv(budget, out, *more)),
                              timeout=120).returncode == 0
    assert (tmp_path / "resumed" / "last.tdlc").read_bytes() == \
        (tmp_path / "full" / "last.tdlc").read_bytes()


def test_numeric_error_out_of_a_command_exits_two(tmp_path, synth_spec_file,
                                                  smoke_config_file, monkeypatch,
                                                  capsys):
    from tdl import model as model_mod

    data_dir = _make_dataset(tmp_path, synth_spec_file, "ds", 1)

    def non_finite_dev_eer(model, dev_set):
        raise NumericError("non-finite dev scores")

    monkeypatch.setattr(model_mod, "dev_eer", non_finite_dev_eer)
    capsys.readouterr()
    assert cli.main(["train", "--config", str(smoke_config_file), "--train",
                     str(data_dir), "--dev", str(data_dir), "--out",
                     str(tmp_path / "run")]) == 2
    assert capsys.readouterr().err == "numeric error: non-finite dev scores\n"
    assert not (tmp_path / "run").exists()


# ---------------------------------------------------------------------------
# unreadable inputs
# ---------------------------------------------------------------------------


def test_dotted_config_key_under_a_scalar_exits_one(tmp_path, capsys):
    path = tmp_path / "c.cfg"
    path.write_text("esm = 5\nesm.tau_same = 0.8\n")
    assert cli.main(["params", "--config", str(path)]) == 1
    err = capsys.readouterr().err
    assert "error:" in err and f"{path}:2" in err


@pytest.mark.parametrize("lines, key", [
    ("lambda = 0.1\nlambda = 0.3\n", "lambda"),
    ("esm.tau_same = 0.8\nesm = {}\n", "esm"),
    ('esm = {"tau_same": 0.8}\nesm.tau_same = 0.9\n', "esm.tau_same"),
], ids=["key-twice", "section-after-its-key", "key-in-a-set-section"])
def test_key_value_config_sets_each_key_once(tmp_path, capsys, lines, key):
    path = tmp_path / "c.cfg"
    path.write_text(lines)
    assert cli.main(["params", "--config", str(path)]) == 1
    assert capsys.readouterr().err == f"error: {path}:2: {key} is already set\n"


@pytest.mark.parametrize("command, text, key", [
    ("params", '{"lambda": 0.1, "lambda": 0.3}', "lambda"),
    ("params", '{"seed": 1, "esm": {"tau_same": 0.8, "tau_same": 0.9}}', "tau_same"),
    ("synth", '{"dim": 16, "num_utterances": 2, "dim": 8}', "dim"),
], ids=["config", "config-esm-section", "spec"])
def test_json_config_or_spec_giving_a_key_twice_exits_one(tmp_path, capsys,
                                                          command, text, key):
    path = tmp_path / "c.json"
    path.write_text(text)
    out = tmp_path / "out"
    argv = (["params", "--config", str(path)] if command == "params" else
            ["synth", "--spec", str(path), "--out", str(out), "--seed", "1"])
    assert cli.main(argv) == 1
    assert capsys.readouterr().err == f"error: {path}: key '{key}' is given twice\n"
    assert not out.exists()


_NOT_UTF8 = b"\xff\xfe"


def _first_sample(data_dir, key):
    manifest = json.loads((data_dir / "manifest.json").read_text())
    return data_dir / manifest["samples"][0][key]


def _break_input(case, tmp_path, data_dir):
    """Damage one input for ``case``; returns the argv that reads it."""
    from tdl.model import build_model, save_checkpoint

    config = tmp_path / "config.json"
    config.write_text(json.dumps(desk_config(epochs=1).to_dict()))
    checkpoint = tmp_path / "m.tdlc"
    save_checkpoint(build_model(desk_config()), checkpoint)
    eval_argv = ["eval", "--checkpoint", str(checkpoint), "--test", str(data_dir),
                 "--report", str(tmp_path / "r.json")]
    if case == "config":
        config.write_bytes(_NOT_UTF8)
        return ["params", "--config", str(config)]
    if case == "spec":
        spec = tmp_path / "spec.json"
        spec.write_bytes(_NOT_UTF8)
        return ["synth", "--out", str(tmp_path / "o"), "--spec", str(spec),
                "--seed", "1"]
    if case.startswith("manifest"):
        (data_dir / "manifest.json").write_bytes(_NOT_UTF8)
        return ["stats", "--data", str(data_dir)] if case == "manifest-stats" \
            else eval_argv
    if case.startswith("annotation"):
        _first_sample(data_dir, "annotations").write_bytes(_NOT_UTF8)
        return eval_argv if case == "annotation-eval" else \
            ["train", "--config", str(config), "--train", str(data_dir),
             "--dev", str(data_dir), "--out", str(tmp_path / "run")]
    features = _first_sample(data_dir, "features")
    features.unlink()
    features.mkdir()
    return eval_argv


@pytest.mark.parametrize("case", ["config", "spec", "manifest-stats",
                                  "manifest-eval", "annotation-eval",
                                  "annotation-train", "features-dir"])
def test_unreadable_input_exits_one(tmp_path, synth_spec_file, capsys, case):
    data_dir = _make_dataset(tmp_path, synth_spec_file, "ds", 4)
    argv = _break_input(case, tmp_path, data_dir)
    capsys.readouterr()
    assert cli.main(argv) == 1
    assert "error:" in capsys.readouterr().err


# lines that put an optimizer value out of range
_OPTIMIZER_LINES = {
    "train-halving-0": "optimizer.halving_period_epochs = 0",
    "train-beta2-1": "optimizer.beta2 = 1.0",
    "train-base-lr-negative": "optimizer.base_lr = -1",
    "train-eps-0": "optimizer.eps = 0",
    "train-beta1-1.5": "optimizer.beta1 = 1.5",
    "train-weight-decay-negative": "optimizer.weight_decay = -1",
}


def _key_value_lines(obj, prefix=""):
    for key, value in obj.items():
        if isinstance(value, dict):
            yield from _key_value_lines(value, f"{prefix}{key}.")
        else:
            yield f"{prefix}{key} = {json.dumps(value)}"


def _numeric_input(case, tmp_path, data_dir):
    """Write the input for ``case``; returns the argv that reads it."""
    if case.startswith("stats-resolution"):
        return ["stats", "--data", str(data_dir),
                "--resolution", case.rsplit("-", 1)[1]]
    if case.startswith("synth"):
        obj = desk_benchmark_spec(num_utterances=2).to_dict()
        if case == "synth-segment-count-past-int64":
            obj["fake_segment_count_range"] = [1, 2 ** 64]
        elif case == "synth-dim-past-memory":
            obj["dim"] = 10 ** 15
        spec = tmp_path / "spec.json"
        spec.write_text(json.dumps(obj))
        return ["synth", "--out", str(tmp_path / "o"), "--spec", str(spec),
                "--seed", "-1" if case == "synth-seed" else "1"]
    if case == "gradcheck-seed":
        return ["gradcheck", "--seed", "-1"]
    if case.startswith("gradcheck-tolerance"):
        return ["gradcheck", "--tolerance", case.rsplit("-", 1)[1]]
    if case.startswith("eval-threshold"):
        from tdl.model import build_model, save_checkpoint

        checkpoint = tmp_path / "m.tdlc"
        save_checkpoint(build_model(desk_config(seed=3)), checkpoint)
        return ["eval", "--checkpoint", str(checkpoint), "--test", str(data_dir),
                "--report", str(tmp_path / "r.json"),
                "--threshold", case.rsplit("-", 1)[1]]
    if case == "stats-duration-nan":
        path = _first_sample(data_dir, "annotations")
        obj = json.loads(path.read_text())
        obj["duration_s"] = float("nan")  # written as the JSON literal NaN
        path.write_text(json.dumps(obj))
        return ["stats", "--data", str(data_dir)]
    config = tmp_path / "c.cfg"
    if case.startswith("params"):
        config.write_text({"params-seed": "seed = -1\n",
                           "params-base-lr-nan": "optimizer.base_lr = NaN\n",
                           "params-kernel-negative": "kernel = -1\n",
                           "params-dim-past-numpy":
                               f"feat_dim = {10**20}\ntconv_channels = {10**20}\n",
                           }[case])
        return ["params", "--config", str(config)]
    obj = desk_config(epochs=1, batch_size=2).to_dict()
    if case.startswith("train-t-max-past-memory"):
        obj["t_max"] = 10 ** 15  # fc weights past any address space
        config.write_text("\n".join(_key_value_lines(obj)) + "\n")
        if case.endswith("missing-data"):  # the model is built before any set is read
            data_dir = tmp_path / "missing"
    elif case in _OPTIMIZER_LINES:
        # a desk key=value config with one line added
        lines = [*_key_value_lines(obj), _OPTIMIZER_LINES[case]]
        config.write_text("\n".join(lines) + "\n")
    else:
        if case == "train-sample-seed":
            obj["esm"].update(pair_budget=4, sample_seed=-1)
        elif case == "train-kernel-negative":
            obj["kernel"] = -1
        else:
            obj["label_resolution_s"] = float("nan")
        config.write_text(json.dumps(obj))
    return ["train", "--config", str(config), "--train", str(data_dir),
            "--dev", str(data_dir), "--out", str(tmp_path / "run")]


@pytest.mark.parametrize("case", [
    "stats-resolution-0", "stats-resolution-nan", "synth-seed", "gradcheck-seed",
    "gradcheck-tolerance-inf", "gradcheck-tolerance-nan", "gradcheck-tolerance-0",
    "eval-threshold-nan", "eval-threshold-inf",
    "params-seed", "train-sample-seed", "train-resolution-nan",
    "stats-duration-nan", "params-base-lr-nan", "params-dim-past-numpy",
    "params-kernel-negative", "train-kernel-negative",
    "synth-segment-count-past-int64", "synth-dim-past-memory",
    "train-t-max-past-memory", "train-t-max-past-memory-missing-data",
    *_OPTIMIZER_LINES])
def test_bad_numeric_input_exits_one(tmp_path, synth_spec_file, capsys, case):
    data_dir = _make_dataset(tmp_path, synth_spec_file, "ds", 4)
    argv = _numeric_input(case, tmp_path, data_dir)
    capsys.readouterr()
    assert cli.main(argv) == 1
    err = capsys.readouterr().err
    assert "error:" in err and "Traceback" not in err
    if "kernel" in case:
        assert "kernel" in err
    if "past-memory" in case:
        assert "error: out of memory" in err
        assert not (tmp_path / "run").exists() and not (tmp_path / "o").exists()


_DEEP = "[" * 100_000 + "]" * 100_000  # nests past the JSON decoder's recursion limit


def _deep_input(case, tmp_path, data_dir):
    """Write ``_DEEP`` into the input for ``case``; returns the argv that reads it."""
    from tdl import model as M

    if case in ("annotation", "manifest"):
        path = (_first_sample(data_dir, "annotations") if case == "annotation"
                else data_dir / "manifest.json")
        path.write_text(_DEEP)
        return ["stats", "--data", str(data_dir)]
    if case == "checkpoint":
        checkpoint = tmp_path / "m.tdlc"
        checkpoint.write_bytes(M._TDLC_HEAD.pack(M.TDLC_MAGIC, M.TDLC_VERSION,
                                                 len(_DEEP)) + _DEEP.encode())
        return ["eval", "--checkpoint", str(checkpoint), "--test", str(data_dir),
                "--report", str(tmp_path / "r.json")]
    path = tmp_path / "input"
    path.write_text({"json-config": f'{{"seed": {_DEEP}}}',
                     "key-value": f"seed = {_DEEP}\n", "spec": _DEEP}[case])
    if case == "spec":
        return ["synth", "--out", str(tmp_path / "o"), "--spec", str(path),
                "--seed", "1"]
    return ["params", "--config", str(path)]


@pytest.mark.parametrize("case", ["annotation", "manifest", "json-config",
                                  "key-value", "spec", "checkpoint"])
def test_deeply_nested_json_exits_one(tmp_path, synth_spec_file, capsys, case):
    data_dir = _make_dataset(tmp_path, synth_spec_file, "ds", 4)
    argv = _deep_input(case, tmp_path, data_dir)
    capsys.readouterr()
    assert cli.main(argv) == 1
    assert "error:" in capsys.readouterr().err


@pytest.mark.parametrize("value, message", [
    (_DEEP, "error: config.seed must be int"),  # not JSON: read as a bare string
    ("-" + "9" * 4000, "error: seed -999"),
], ids=["bare-string", "4000-digit-int"])
def test_error_quotes_a_bounded_prefix_of_the_value(tmp_path, capsys, value, message):
    config = tmp_path / "c.cfg"
    config.write_text(f"seed = {value}\n")
    capsys.readouterr()
    assert cli.main(["params", "--config", str(config)]) == 1
    err = capsys.readouterr().err
    assert err.startswith(message)
    assert len(err.encode()) < 1000


@pytest.mark.parametrize("in_manifest", [True, False], ids=["manifest", "annotation"])
def test_huge_sample_id_gives_a_bounded_error(tmp_path, capsys, in_manifest):
    from tdl.data import synth_dataset, write_dataset
    from tdl.model import build_model, save_checkpoint

    data_dir = tmp_path / "ds"
    write_dataset(data_dir, *synth_dataset(desk_benchmark_spec(3), 4))
    huge = "x" * 100_000
    manifest = json.loads((data_dir / "manifest.json").read_text())
    if in_manifest:
        manifest["samples"][0]["id"] = huge
        (data_dir / "manifest.json").write_text(json.dumps(manifest))
    ann_path = data_dir / manifest["samples"][0]["annotations"]
    ann = json.loads(ann_path.read_text())
    ann["sample_id"] = huge
    ann["segments"][0]["label"] = "bogus"
    ann_path.write_text(json.dumps(ann))
    checkpoint = tmp_path / "m.tdlc"
    save_checkpoint(build_model(desk_config()), checkpoint)
    capsys.readouterr()
    for argv in (["stats", "--data", str(data_dir)],
                 ["eval", "--checkpoint", str(checkpoint), "--test", str(data_dir),
                  "--report", str(tmp_path / "r.json")]):
        assert cli.main(argv) == 1, argv
        err = capsys.readouterr().err
        assert err.startswith("error:") and "255 UTF-8 bytes" in err, argv
        assert len(err.encode()) < 1000, argv


# ---------------------------------------------------------------------------
# atomic writes
# ---------------------------------------------------------------------------


def _fail_writes_halfway(monkeypatch, name_part=""):
    """Make every file ``tdl.data`` opens whose name contains ``name_part``
    write half its bytes, then fail."""
    import builtins

    from tdl import data as data_mod

    class HalfWrite:
        def __init__(self, fh):
            self.fh = fh

        def __enter__(self):
            return self

        def __exit__(self, *exc):
            self.fh.close()

        def write(self, blob):
            self.fh.write(blob[:len(blob) // 2])
            raise OSError(28, "No space left on device")

    def half_open(path, *args, **kw):
        fh = builtins.open(path, *args, **kw)
        return HalfWrite(fh) if name_part in Path(path).name else fh

    monkeypatch.setattr(data_mod, "open", half_open, raising=False)


def test_failed_checkpoint_write_keeps_the_previous_file(tmp_path, monkeypatch):
    from tdl.model import build_model, save_checkpoint

    path = tmp_path / "last.tdlc"
    save_checkpoint(build_model(desk_config(seed=1)), path)
    before = path.read_bytes()
    _fail_writes_halfway(monkeypatch)
    with pytest.raises(OSError):
        save_checkpoint(build_model(desk_config(seed=2)), path)
    assert path.read_bytes() == before
    assert sorted(p.name for p in tmp_path.iterdir()) == ["last.tdlc"]


def test_failed_report_write_keeps_the_previous_report(tmp_path, monkeypatch,
                                                       capsys):
    test_dir, checkpoint = _eval_corpus(tmp_path, [16] * 4)
    out = tmp_path / "out"
    out.mkdir()
    report = out / "r.json"
    argv = ["eval", "--checkpoint", str(checkpoint), "--test", str(test_dir),
            "--report", str(report)]
    assert cli.main(argv) == 0
    before = report.read_bytes()
    _fail_writes_halfway(monkeypatch)
    capsys.readouterr()
    assert cli.main(argv + ["--threshold", "0.3"]) == 1
    assert "error:" in capsys.readouterr().err
    assert report.read_bytes() == before
    assert sorted(p.name for p in out.iterdir()) == ["r.json"]


def test_failed_log_write_keeps_the_previous_log(tmp_path, synth_spec_file,
                                                 monkeypatch, capsys):
    data_dir = _make_dataset(tmp_path, synth_spec_file, "ds", 4)
    out = tmp_path / "run"
    argv = ["train", "--train", str(data_dir), "--dev", str(data_dir),
            "--out", str(out), "--config"]
    for seed in (1, 2):
        config = tmp_path / f"c{seed}.json"
        config.write_text(json.dumps(desk_config(epochs=2, batch_size=4,
                                                 seed=seed).to_dict()))
    assert cli.main(argv + [str(tmp_path / "c1.json")]) == 0
    before = (out / "train_log.jsonl").read_bytes()
    _fail_writes_halfway(monkeypatch, "train_log")
    capsys.readouterr()
    assert cli.main(argv + [str(tmp_path / "c2.json")]) == 1
    assert "error:" in capsys.readouterr().err
    assert (out / "train_log.jsonl").read_bytes() == before
    assert sorted(p.name for p in out.iterdir()) == ["best.tdlc", "last.tdlc",
                                                     "train_log.jsonl"]
