import json

import numpy as np
import pytest

from tdl import model as M
from tdl.data import (
    BOUNDARY1,
    REAL1_FAKE0,
    FeatureSequence,
    FrameLabels,
    compile_frame_labels,
    desk_benchmark_spec,
    pad_features,
    synth_dataset,
)
from tdl.errors import ConfigError, FormatError, ShapeError, ValidationError
from tdl.nn import bce_loss, count_params


def tiny_config(**overrides):
    base = dict(feat_dim=8, t_max=12, embed_dim=4, conv_hidden=8,
                tconv_channels=8, label_len=4, epochs=2, batch_size=2, seed=3)
    base.update(overrides)
    return M.TdlConfig(**base)


def _input(config, rng, true_frames=None):
    t = config.t_max
    true = t if true_frames is None else true_frames
    vals = rng.standard_normal((config.feat_dim, t)).astype(np.float32)
    vals[:, true:] = 0.0
    return FeatureSequence("x", config.feat_dim, t, vals, true)


def _labels(config, bits, true_labels=None, setting=REAL1_FAKE0):
    arr = np.zeros(config.label_len, dtype=np.int8)
    bits = np.asarray(bits, dtype=np.int8)
    n = bits.size if true_labels is None else true_labels
    arr[:bits.size] = bits
    arr[n:] = 0
    return FrameLabels("x", config.label_resolution_s, arr, n, setting)


def _tiny_sets(config, n_train=4, n_dev=2, seed=0):
    spec = desk_benchmark_spec(
        num_utterances=n_train + n_dev, dim=config.feat_dim,
        frame_rate_hz=config.t_max / 2.56,
        duration_range_s=(2.56 * config.label_len / 16 * 0.7,
                          2.56 * config.label_len / 16),
    )
    feats, anns = synth_dataset(spec, seed)
    pairs = [
        (pad_features(f, config.t_max),
         compile_frame_labels(a, config.label_resolution_s, config.label_len,
                              config.label_setting))
        for f, a in zip(feats, anns)
    ]
    return pairs[:n_train], pairs[n_train:]


# ---------------------------------------------------------------------------
# config
# ---------------------------------------------------------------------------


def test_config_round_trip_with_lambda_key():
    cfg = tiny_config(esm_weight=0.25)
    obj = cfg.to_dict()
    assert obj["lambda"] == 0.25 and "esm_weight" not in obj
    assert M.TdlConfig.from_dict(obj) == cfg


def test_config_rejects_label_len_above_t_max():
    with pytest.raises(ConfigError):
        tiny_config(label_len=13)


def test_config_requires_tconv_channels_equal_feat_dim():
    with pytest.raises(ConfigError):
        tiny_config(tconv_channels=16)


def test_config_rejects_unknown_keys():
    with pytest.raises(ConfigError):
        M.TdlConfig.from_dict({"feat_dim": 8, "bogus": 1})


def test_full_scale_config_shapes():
    cfg = M.full_scale_config()
    assert (cfg.feat_dim, cfg.t_max) == (1024, 1050)
    assert (cfg.conv_hidden, cfg.embed_dim) == (512, 32)
    assert (cfg.tconv_channels, cfg.label_len) == (1024, 132)
    assert cfg.esm_weight == 0.1 and cfg.kernel == 3
    assert cfg.optimizer.base_lr == 1e-5
    assert cfg.optimizer.halving_period_epochs == 5
    assert cfg.epochs == 100


# ---------------------------------------------------------------------------
# forward / loss
# ---------------------------------------------------------------------------


def test_forward_output_is_label_length_and_in_unit_interval():
    cfg = tiny_config()
    mdl = M.build_model(cfg)
    scores, e, a = M.forward(mdl, _input(cfg, np.random.default_rng(0)))
    assert scores.shape == (cfg.label_len,)
    assert np.all((scores > 0.0) & (scores < 1.0))
    assert e.values.shape == (cfg.embed_dim, cfg.t_max)
    assert a.values.shape == (cfg.kernel, cfg.t_max)


def test_forward_deterministic():
    cfg = tiny_config()
    mdl = M.build_model(cfg)
    x = _input(cfg, np.random.default_rng(1))
    s1, _, _ = M.forward(mdl, x)
    s2, _, _ = M.forward(mdl, x)
    assert np.array_equal(s1, s2)


def test_forward_shape_errors():
    cfg = tiny_config()
    mdl = M.build_model(cfg)
    rng = np.random.default_rng(2)
    bad_dim = FeatureSequence("b", 4, cfg.t_max,
                              rng.standard_normal((4, cfg.t_max)).astype(np.float32),
                              cfg.t_max)
    with pytest.raises(ShapeError):
        M.forward(mdl, bad_dim)
    unpadded = FeatureSequence("u", cfg.feat_dim, 6,
                               rng.standard_normal((cfg.feat_dim, 6)).astype(np.float32),
                               6)
    with pytest.raises(ShapeError):
        M.forward(mdl, unpadded)


def test_lambda_zero_reduces_to_bce():
    cfg = tiny_config(esm_weight=0.0)
    mdl = M.build_model(cfg)
    rng = np.random.default_rng(3)
    x = _input(cfg, rng)
    labels = _labels(cfg, [1, 0, 1, 0])
    losses, _ = M.total_loss(mdl, x, labels)
    scores, _, _ = M.forward(mdl, x)
    plain, _ = bce_loss(scores, labels.labels.astype(np.float64))
    assert losses.total == losses.bce == plain
    assert losses.esm.total == 0.0


def test_total_loss_adds_weighted_esm():
    cfg = tiny_config(esm_weight=0.5)
    mdl = M.build_model(cfg)
    x = _input(cfg, np.random.default_rng(4))
    labels = _labels(cfg, [1, 0, 1, 0])
    losses, _ = M.total_loss(mdl, x, labels)
    assert losses.esm.total > 0.0
    assert np.isclose(losses.total, losses.bce + 0.5 * losses.esm.total)


def test_boundary1_uses_weighted_bce_and_skips_esm():
    cfg = tiny_config(esm_weight=0.1, label_setting=BOUNDARY1)
    mdl = M.build_model(cfg)
    x = _input(cfg, np.random.default_rng(5))
    labels = _labels(cfg, [0, 1, 1, 0], setting=BOUNDARY1)
    losses, _ = M.total_loss(mdl, x, labels)
    scores, _, _ = M.forward(mdl, x)
    weights = np.where(labels.labels == 1, 100.0, 1.0)
    want, _ = bce_loss(scores, labels.labels.astype(np.float64), weights)
    assert losses.bce == want
    assert losses.esm.total == 0.0 and losses.total == want


def test_total_loss_gradients_cover_all_parameters():
    cfg = tiny_config()
    mdl = M.build_model(cfg)
    x = _input(cfg, np.random.default_rng(6))
    _, grads = M.total_loss(mdl, x, _labels(cfg, [1, 0, 0, 1]))
    names = set(mdl.param_items())
    assert names | {"input"} == set(grads)
    for name in names:
        assert grads[name].any(), f"zero gradient for {name}"


def test_predict_trims_to_true_labels():
    cfg = tiny_config()
    mdl = M.build_model(cfg)
    x = _input(cfg, np.random.default_rng(7))
    scores, _, _ = M.forward(mdl, x)
    assert M.predict(mdl, x, cfg.label_len).shape == (cfg.label_len,)
    out = M.predict(mdl, x, 3)
    assert out.shape == (3,)
    assert np.array_equal(out, scores[:3])


def test_predict_derives_length_from_true_frames():
    cfg = tiny_config()
    mdl = M.build_model(cfg)
    x = _input(cfg, np.random.default_rng(8), true_frames=6)
    # 6 of 12 feature frames at ratio 4/12 -> floor(5*4/12)+1 = 2 labels
    assert M.predict(mdl, x).shape == (2,)


# ---------------------------------------------------------------------------
# gradcheck battery
# ---------------------------------------------------------------------------


def test_gradcheck_battery_small_config():
    report = M.gradcheck_battery("small", seed=1, tolerance=1e-4)
    assert report.passed, report.worst()
    names = {e.name for e in report.entries}
    assert any(n.startswith("model.") for n in names)


def test_gradcheck_battery_rejects_unknown_size():
    with pytest.raises(ConfigError):
        M.gradcheck_battery("huge")


# ---------------------------------------------------------------------------
# checkpoints
# ---------------------------------------------------------------------------


def test_checkpoint_save_load_save_identical(tmp_path):
    cfg = tiny_config()
    mdl = M.build_model(cfg)
    blob = M.encode_checkpoint(mdl)
    again = M.encode_checkpoint(M.decode_checkpoint(blob))
    assert blob == again
    path = tmp_path / "m.tdlc"
    M.save_checkpoint(mdl, path)
    assert path.read_bytes() == blob


def test_checkpoint_truncated_rejected(tmp_path):
    mdl = M.build_model(tiny_config())
    blob = M.encode_checkpoint(mdl)
    with pytest.raises(FormatError):
        M.decode_checkpoint(blob[:-9])
    with pytest.raises(FormatError):
        M.decode_checkpoint(b"NOPE" + blob[4:])


def _rewrite_header(blob, edit):
    """The checkpoint with its JSON header passed through ``edit``."""
    _, _, header_len = M._TDLC_HEAD.unpack_from(blob)
    start = M._TDLC_HEAD.size
    header = json.loads(blob[start:start + header_len])
    edit(header)
    raw = json.dumps(header).encode("utf-8")
    return (M._TDLC_HEAD.pack(M.TDLC_MAGIC, M.TDLC_VERSION, len(raw)) + raw
            + blob[start + header_len:])


@pytest.mark.parametrize("key", ["adam", "config", "epoch", "params",
                                 "param_shapes"])
def test_checkpoint_missing_header_key_is_format_error(key):
    blob = M.encode_checkpoint(M.build_model(tiny_config()))
    with pytest.raises(FormatError, match=key):
        M.decode_checkpoint(_rewrite_header(blob, lambda h: h.pop(key)))


@pytest.mark.parametrize("edit", [
    lambda h: h["adam"].update(momentum=0.5),
    lambda h: h["adam"].pop("step"),
    lambda h: h.update(config=[1, 2]),
    lambda h: h.update(config="tiny"),
    lambda h: h["param_shapes"].pop("fc.bias"),
], ids=["extra-adam-key", "missing-adam-step", "list-config", "string-config",
        "missing-shape"])
def test_checkpoint_malformed_header_is_format_error(edit):
    blob = M.encode_checkpoint(M.build_model(tiny_config()))
    with pytest.raises(FormatError):
        M.decode_checkpoint(_rewrite_header(blob, edit))


def test_checkpoint_header_rewrite_round_trips():
    blob = M.encode_checkpoint(M.build_model(tiny_config()))
    restored = M.decode_checkpoint(_rewrite_header(blob, lambda h: None))
    assert M.encode_checkpoint(restored) == blob


def test_checkpoint_preserves_predictions(tmp_path):
    cfg = tiny_config()
    mdl = M.build_model(cfg)
    x = _input(cfg, np.random.default_rng(9))
    before = M.predict(mdl, x, cfg.label_len)
    M.save_checkpoint(mdl, tmp_path / "m.tdlc")
    restored = M.load_checkpoint(tmp_path / "m.tdlc")
    assert np.array_equal(M.predict(restored, x, cfg.label_len), before)


def test_checkpoint_carries_adam_state():
    cfg = tiny_config()
    train_set, dev_set = _tiny_sets(cfg)
    result = M.train(cfg, train_set, dev_set)
    blob = M.encode_checkpoint(result.last_model)
    restored = M.decode_checkpoint(blob)
    assert restored.adam.step == result.last_model.adam.step
    for key, value in result.last_model.adam.m.items():
        assert np.array_equal(restored.adam.m[key], value)


# ---------------------------------------------------------------------------
# training
# ---------------------------------------------------------------------------


def test_train_smoke_one_epoch():
    cfg = tiny_config(epochs=1)
    train_set, dev_set = _tiny_sets(cfg)
    result = M.train(cfg, train_set, dev_set)
    assert not result.diverged
    assert len(result.records) == 1
    assert np.isfinite(result.records[0].dev_eer_pct)
    restored = M.decode_checkpoint(result.best_checkpoint)
    assert restored.config.to_dict() == cfg.to_dict()


def test_train_deterministic_given_seed():
    cfg = tiny_config(epochs=2)
    train_set, dev_set = _tiny_sets(cfg)
    a = M.train(cfg, train_set, dev_set)
    b = M.train(cfg, train_set, dev_set)
    assert M.encode_checkpoint(a.last_model) == M.encode_checkpoint(b.last_model)


def test_train_records_follow_lr_schedule():
    cfg = tiny_config(epochs=7)
    cfg.optimizer.halving_period_epochs = 3
    train_set, dev_set = _tiny_sets(cfg)
    result = M.train(cfg, train_set, dev_set)
    for record in result.records:
        want = cfg.optimizer.base_lr * 0.5 ** (record.epoch // 3)
        assert record.learning_rate == want


def test_train_resume_matches_uninterrupted():
    cfg = tiny_config(epochs=3)
    train_set, dev_set = _tiny_sets(cfg)
    full = M.train(cfg, train_set, dev_set)

    first = M.train(tiny_config(epochs=2), train_set, dev_set)
    resumed = M.train(cfg, train_set, dev_set,
                      init_model=M.decode_checkpoint(
                          M.encode_checkpoint(first.last_model)))
    # resumed model must only run epoch 2 and land exactly where the
    # uninterrupted run did
    assert resumed.records[-1].epoch == 2
    assert resumed.records[-1].mean_total == full.records[-1].mean_total
    assert M.encode_checkpoint(resumed.last_model) == \
        M.encode_checkpoint(full.last_model)


def test_train_resume_epoch_config_must_match():
    cfg = tiny_config(epochs=2)
    train_set, dev_set = _tiny_sets(cfg)
    result = M.train(cfg, train_set, dev_set)
    with pytest.raises(ConfigError):
        M.train(tiny_config(epochs=2, esm_weight=0.9), train_set, dev_set,
                init_model=result.last_model)


def test_train_divergence_keeps_last_good_checkpoint():
    cfg = tiny_config(epochs=3)
    train_set, dev_set = _tiny_sets(cfg)
    mdl = M.build_model(cfg)
    mdl.conv_a.weights[0, 0, 0] = np.nan
    before = M.encode_checkpoint(mdl)
    result = M.train(cfg, train_set, dev_set, init_model=mdl)
    assert result.diverged
    assert not result.records
    assert M.encode_checkpoint(result.last_model) == before


def test_train_loss_decreases_on_separable_data():
    spec = desk_benchmark_spec(num_utterances=80)
    feats, anns = synth_dataset(spec, 7)
    cfg = M.desk_config(epochs=10)
    pairs = [
        (pad_features(f, cfg.t_max),
         compile_frame_labels(a, cfg.label_resolution_s, cfg.label_len,
                              cfg.label_setting))
        for f, a in zip(feats, anns)
    ]
    result = M.train(cfg, pairs[:60], pairs[60:])
    losses = [r.mean_total for r in result.records]
    assert len(losses) == 10
    violations = sum(b >= a for a, b in zip(losses, losses[1:]))
    assert violations <= 1, losses
    assert losses[-1] < losses[0]


def test_train_rejects_single_class_dev_set_before_any_epoch(monkeypatch):
    cfg = tiny_config()
    train_set, dev_set = _tiny_sets(cfg)
    real_only = [(seq, FrameLabels(lab.sample_id, lab.resolution_s,
                                   np.where(np.arange(lab.labels.size)
                                            < lab.true_labels, 1, 0),
                                   lab.true_labels, lab.setting))
                 for seq, lab in dev_set]

    def no_training(*args, **kwargs):
        raise AssertionError("an epoch ran before the dev set was checked")

    monkeypatch.setattr(M, "_loss_block", no_training)
    with pytest.raises(ValidationError, match="both classes"):
        M.train(cfg, train_set, real_only)


def test_train_rejects_unpadded_features():
    cfg = tiny_config()
    train_set, dev_set = _tiny_sets(cfg)
    rng = np.random.default_rng(10)
    short = FeatureSequence("s", cfg.feat_dim, 6,
                            rng.standard_normal((cfg.feat_dim, 6)).astype(np.float32),
                            6)
    with pytest.raises(ShapeError):
        M.train(cfg, [(short, train_set[0][1])], dev_set)


# ---------------------------------------------------------------------------
# parameter counting
# ---------------------------------------------------------------------------


def test_param_table_sums_to_total():
    mdl = M.build_model(tiny_config())
    rows, total = M.param_count_table(mdl)
    assert sum(c for _, c in rows) == total
    assert total == count_params(mdl.param_items())


def test_full_scale_config_param_count_closed_form():
    mdl = M.build_model(M.full_scale_config())
    _, total = M.param_count_table(mdl)
    # independent arithmetic over the full-size layer shapes
    closed_form = (
        (3 * 1024 * 512 + 512)        # conv_a
        + (3 * 512 * 32 + 32)         # conv_b
        + 2 * (3 * 1024 * 1024 + 1024)  # two tconv layers
        + (1 * 1024 * 2 + 2)          # conv_head
        + (2 * 1050 * 132 + 132)      # fc
    )
    assert total == closed_form == 8_195_446
    assert abs(total - 8_718_000) / 8_718_000 < 0.10
