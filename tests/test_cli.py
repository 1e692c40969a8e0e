import hashlib
import json
from pathlib import Path

import pytest

from tdl import cli
from tdl.data import desk_benchmark_spec
from tdl.model import desk_config


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


def test_synth_threads_do_not_change_output(tmp_path, synth_spec_file):
    a = _make_dataset(tmp_path, synth_spec_file, "st1", 5)
    out = tmp_path / "st4"
    rc = cli.main(["synth", "--out", str(out), "--spec", str(synth_spec_file),
                   "--seed", "5", "--threads", "4"])
    assert rc == 0
    assert _dir_digest(a) == _dir_digest(out)


def test_stats_reports_corpus_composition(tmp_path, synth_spec_file, capsys):
    out = _make_dataset(tmp_path, synth_spec_file, "ds", 4)
    capsys.readouterr()
    rc = cli.main(["stats", "--data", str(out)])
    assert rc == 0
    stdout = capsys.readouterr().out
    assert "frame-level" in stdout and "utterance-level" in stdout


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
