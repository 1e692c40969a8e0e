import dataclasses
import io
import json
import re
import tracemalloc
from pathlib import Path

import numpy as np
import pytest

from tdl import model as M
from tdl.data import (
    BOUNDARY1,
    REAL0_FAKE1,
    REAL1_FAKE0,
    FeatureSequence,
    FrameLabels,
    compile_labels,
    desk_benchmark_spec,
    synth_dataset,
)
from tdl import nn
from tdl.errors import ConfigError, FormatError, NumericError, ShapeError, ValidationError
from tdl.nn import bce_loss, count_params

from oracles import adam_reference


def tiny_config(**overrides):
    base = dict(feat_dim=8, t_max=12, embed_dim=4, conv_hidden=8,
                label_len=4, epochs=2, batch_size=2, seed=3)
    base.update(overrides)
    return M.TdlConfig(**base)


def _input(config, rng, true_frames=None):
    t = config.t_max
    true = t if true_frames is None else true_frames
    vals = rng.standard_normal((config.feat_dim, t)).astype(np.float32)
    vals[:, true:] = 0.0
    return FeatureSequence("x", vals, true)


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
    pairs = list(zip(feats, compile_labels(anns, config.label_resolution_s,
                                           config.label_len, config.label_setting)))
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
    obj = tiny_config().to_dict()
    assert obj["tconv_channels"] == 8
    assert M.TdlConfig.from_dict(obj) == tiny_config()
    for channels in (16, 8.0, True):
        with pytest.raises(ConfigError, match="tconv_channels"):
            M.TdlConfig.from_dict({**obj, "tconv_channels": channels})
    with pytest.raises(ConfigError, match="tconv_channels"):
        M.TdlConfig.from_dict({"tconv_channels": 8})  # feat_dim 1024
    # feat_dim is typed before tconv_channels is compared with it
    for feat_dim, channels in ((16.5, 16.5), ("16", 16)):
        with pytest.raises(ConfigError, match="config.feat_dim must be int"):
            M.TdlConfig.from_dict({**obj, "feat_dim": feat_dim,
                                   "tconv_channels": channels})
    with pytest.raises(TypeError):
        tiny_config(tconv_channels=8)


def test_retired_keys_load_only_at_their_v1_values():
    obj = tiny_config().to_dict()
    assert obj["rectify_similarity"] is True
    assert obj["esm"]["pair_budget"] is None and obj["esm"]["sample_seed"] == 0
    snapshot = json.dumps(obj)
    assert M.TdlConfig.from_dict(obj).to_dict() == obj
    assert json.dumps(obj) == snapshot  # neither obj nor obj["esm"] was touched
    for key, bad in (("rectify_similarity", False), ("rectify_similarity", 1),
                     ("esm.pair_budget", 4), ("esm.pair_budget", 0),
                     ("esm.sample_seed", 3), ("esm.sample_seed", False),
                     ("esm.sample_seed", 0.0), ("esm.sample_seed", None)):
        section, _, name = key.rpartition(".")
        wrong = json.loads(snapshot)
        (wrong[section] if section else wrong)[name] = bad
        with pytest.raises(ConfigError, match=re.escape(key)):
            M.TdlConfig.from_dict(wrong)
    # absent keys, and a non-object esm section, go to the usual checks
    assert M.TdlConfig.from_dict({}) == M.TdlConfig()
    with pytest.raises(ConfigError, match="config.esm must be a JSON object"):
        M.TdlConfig.from_dict({"esm": 5})
    with pytest.raises(TypeError):
        tiny_config(rectify_similarity=True)
    with pytest.raises(TypeError):
        M.EsmConfig(pair_budget=None)


@pytest.mark.parametrize("key, value", [
    ("esm_weight", -0.1), ("esm_weight", float("nan")),
    ("label_resolution_s", 0.0), ("label_resolution_s", float("nan")),
])
def test_config_rejects_out_of_range_values(key, value):
    with pytest.raises(ConfigError, match=key):
        tiny_config(**{key: value})


@pytest.mark.parametrize("overrides, message", [
    (dict(kernel=4), "kernel must be odd"),
    (dict(label_setting="fake1"), "unknown label_setting 'fake1'"),
], ids=["even-kernel", "unknown-label-setting"])
def test_config_rejects_an_even_kernel_and_an_unknown_label_setting(overrides,
                                                                     message):
    with pytest.raises(ConfigError) as exc:
        tiny_config(**overrides)
    assert str(exc.value) == message


def test_config_rejects_unknown_keys():
    with pytest.raises(ConfigError):
        M.TdlConfig.from_dict({"feat_dim": 8, "bogus": 1})


def test_config_rejects_both_lambda_and_esm_weight():
    with pytest.raises(ConfigError, match="both lambda and esm_weight"):
        M.TdlConfig.from_dict({"lambda": 0.1, "esm_weight": 0.5})


def test_full_scale_config_shapes():
    cfg = M.full_scale_config()
    assert (cfg.feat_dim, cfg.t_max) == (1024, 1050)
    assert (cfg.conv_hidden, cfg.embed_dim) == (512, 32)
    assert cfg.label_len == 132
    layers = M.shape_model(cfg).layers
    assert [(layers[name].in_channels, layers[name].out_channels)
            for name in ("tconv_1", "tconv_2")] == [(1024, 1024)] * 2
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
    assert e.shape == (cfg.embed_dim, cfg.t_max)
    assert a.shape == (cfg.kernel, cfg.t_max)


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
    bad_dim = FeatureSequence(
        "b", rng.standard_normal((4, cfg.t_max)).astype(np.float32), cfg.t_max)
    with pytest.raises(ShapeError):
        M.forward(mdl, bad_dim)
    frames = cfg.t_max + 1
    too_long = FeatureSequence(
        "u", rng.standard_normal((cfg.feat_dim, frames)).astype(np.float32), frames)
    with pytest.raises(ShapeError, match=r"^u: 13 true frames exceed t_max 12$"):
        M.forward(mdl, too_long)


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


def test_boundary1_uses_weighted_bce_and_skips_esm(monkeypatch):
    def no_classes(*args):
        raise AssertionError("boundary1 labels reached the ESM class map")

    monkeypatch.setattr(M, "_esm_classes", no_classes)
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


# the NETWORK primitives bench/probes.py patches on tdl.model
_PROBED_PRIMITIVES = (
    "conv1d_forward", "conv1d_backward", "tconv_forward", "tconv_backward",
    "fc_forward", "fc_backward", "relu_forward", "relu_backward",
    "l2_normalize_forward", "l2_normalize_backward", "neighbor_similarity",
    "neighbor_similarity_backward", "sigmoid_forward", "sigmoid_backward")


def test_ops_call_each_primitive_through_its_module_global(monkeypatch):
    calls = dict.fromkeys(_PROBED_PRIMITIVES, 0)
    for name in _PROBED_PRIMITIVES:
        def counted(*args, _name=name, _call=getattr(M, name)):
            calls[_name] += 1
            return _call(*args)
        monkeypatch.setattr(M, name, counted)
    cfg = tiny_config()
    x = _input(cfg, np.random.default_rng(6))
    M.total_loss(M.build_model(cfg), x, _labels(cfg, [1, 0, 0, 1]))
    assert all(calls.values()), calls


def test_predict_trims_to_true_labels():
    cfg = tiny_config()
    mdl = M.build_model(cfg)
    x = _input(cfg, np.random.default_rng(7))
    scores, _, _ = M.forward(mdl, x)
    assert M.predict(mdl, x, cfg.label_len).shape == (cfg.label_len,)
    out = M.predict(mdl, x, 3)
    assert out.shape == (3,)
    assert np.array_equal(out, scores[:3])


@pytest.mark.parametrize("true_labels", [0, -1, 5])
def test_predict_rejects_a_label_count_before_the_forward(true_labels, monkeypatch):
    cfg = tiny_config()  # label_len 4
    mdl = M.build_model(cfg)
    x = _input(cfg, np.random.default_rng(7))

    def no_forward(*args):
        raise AssertionError("predict ran the network on a bad true_labels")

    monkeypatch.setattr(M, "_forward_block", no_forward)
    with pytest.raises(ShapeError, match="true_labels"):
        M.predict(mdl, x, true_labels)


# ---------------------------------------------------------------------------
# gradcheck battery
# ---------------------------------------------------------------------------


def test_gradcheck_battery_small_config():
    report = M.gradcheck_battery("small", seed=1, tolerance=1e-4)
    assert report.passed, report.worst()
    names = {e.name for e in report.entries}
    assert any(n.startswith("model.") for n in names)


def test_gradcheck_battery_covers_every_network_row_and_layer():
    names = {e.name for e in M.gradcheck_battery("tiny").entries}
    prefixes = {n.split(".")[0] for n in names}
    assert {op for _, op, _, _, _ in M.NETWORK} | {"bce", "esm"} <= prefixes
    assert set(M.OPS) == {op for _, op, *_ in M.NETWORK}  # no dead entry
    # the similarity row is checked on its own, at its embedding input
    assert "neighbor_similarity.e" in names
    for layer in M.LAYERS:
        assert {f"model.{layer}.weights", f"model.{layer}.bias"} <= names


def test_gradcheck_battery_checks_a_real_fold_on_live_columns(monkeypatch):
    # one utterance per block: the padded battery utterance runs on its
    # live columns, so the extend_columns row folds a real tail
    cfg = M.TdlConfig(**M.GRADCHECK_CONFIGS["tiny"])
    monkeypatch.setattr(M, "BLOCK_FRAMES", cfg.t_max)
    true_frames = cfg.t_max - cfg.t_max // 4
    width = M._live_width(cfg, [true_frames])
    assert true_frames < width < cfg.t_max
    report = M.gradcheck_battery("tiny")
    assert report.passed, report.worst()
    entries = {e.name: e for e in report.entries}
    assert entries["extend_columns.head"].coords_checked == 2 * width
    assert entries["model.input"].coords_checked == cfg.feat_dim * cfg.t_max


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


def _reframed(blob, version=M.TDLC_VERSION, header_len=None, header=None):
    """The checkpoint with its fixed header's version or header length, or
    its JSON header bytes, replaced."""
    _, _, old_len = M._TDLC_HEAD.unpack_from(blob)
    start = M._TDLC_HEAD.size
    header = blob[start:start + old_len] if header is None else header
    length = len(header) if header_len is None else header_len
    return (M._TDLC_HEAD.pack(M.TDLC_MAGIC, version, length) + header
            + blob[start + old_len:])


_DAMAGED_FRAMING = {
    "under-12-bytes": (lambda blob: blob[:11], "checkpoint truncated in fixed header"),
    "version-2": (lambda blob: _reframed(blob, version=2),
                  "unsupported checkpoint version 2"),
    "header-past-the-end": (lambda blob: _reframed(blob, header_len=len(blob)),
                            "checkpoint truncated in JSON header"),
    "header-not-utf8": (lambda blob: _reframed(blob, header=b"\xff{}"),
                        "checkpoint header: not UTF-8 text: 'utf-8' codec can't "
                        "decode byte 0xff in position 0: invalid start byte"),
    "header-not-an-object": (lambda blob: _reframed(blob, header=b"[1, 2]"),
                             "checkpoint header is not a JSON object"),
}


@pytest.mark.parametrize("damage", sorted(_DAMAGED_FRAMING))
def test_checkpoint_with_damaged_framing_is_format_error(tmp_path, capsys, damage):
    from tdl import cli

    edit, message = _DAMAGED_FRAMING[damage]
    blob = edit(M.encode_checkpoint(M.build_model(tiny_config())))
    with pytest.raises(FormatError) as exc:
        M.decode_checkpoint(blob)
    assert str(exc.value) == message
    # tdl eval names it and exits 1, with no traceback, before any data is read
    path = tmp_path / "bad.tdlc"
    path.write_bytes(blob)
    capsys.readouterr()
    assert cli.main(["eval", "--checkpoint", str(path), "--test",
                     str(tmp_path / "missing"), "--report",
                     str(tmp_path / "r.json")]) == 1
    assert capsys.readouterr().err == f"error: {path}: {message}\n"


def test_checkpoint_cut_short_after_its_size_check_is_format_error():
    # a file that shrinks between its size check and its read
    blob = M.encode_checkpoint(M.build_model(tiny_config()))
    with pytest.raises(FormatError, match="^checkpoint truncated while reading$"):
        M._read_checkpoint(io.BytesIO(blob[:-8]), len(blob))


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


@pytest.mark.parametrize("key, value", [
    ("epoch", "x"), ("epoch", None), ("epoch", 1.5), ("epoch", -3),
    ("epoch", True), ("step", "x"), ("step", -1), ("beta1", "x"),
    ("base_lr", None), ("beta1", 0.8),
])
def test_checkpoint_header_values_are_typed(key, value):
    blob = M.encode_checkpoint(M.build_model(tiny_config()))

    def edit(header):
        (header if key == "epoch" else header["adam"])[key] = value

    with pytest.raises(FormatError, match=key):
        M.decode_checkpoint(_rewrite_header(blob, edit))


@pytest.mark.parametrize("key, value", [
    ("halving_period_epochs", 0), ("beta2", 1.0), ("base_lr", -1), ("eps", 0),
    ("beta1", 1.5), ("weight_decay", -1),
])
def test_checkpoint_optimizer_out_of_range_is_format_error(key, value):
    blob = M.encode_checkpoint(M.build_model(tiny_config()))

    def edit(header):
        header["config"]["optimizer"][key] = header["adam"][key] = value

    with pytest.raises(FormatError, match=key):
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


def test_tdlc_v1_fixture_from_before_the_layer_table_still_loads():
    # tiny_v1.tdlc: TdlConfig(**GRADCHECK_CONFIGS["tiny"], epochs=1) trained
    # one epoch on _tiny_sets(n_train=8, n_dev=4, seed=0) by the code before
    # NETWORK existed; tiny_v1_scores.npy holds its predict scores below.
    data = Path(__file__).parent / "data"
    blob = (data / "tiny_v1.tdlc").read_bytes()
    mdl = M.decode_checkpoint(blob)
    assert M.encode_checkpoint(mdl) == blob
    _, _, header_len = M._TDLC_HEAD.unpack_from(blob)
    start = M._TDLC_HEAD.size
    header = json.loads(blob[start:start + header_len])
    assert header["params"] == list(mdl.param_items())
    x = _input(mdl.config, np.random.default_rng(2024), true_frames=10)
    np.testing.assert_allclose(M.predict(mdl, x, mdl.config.label_len),
                               np.load(data / "tiny_v1_scores.npy"),
                               rtol=0, atol=1e-12)


def test_checkpoint_carries_adam_state():
    cfg = tiny_config()
    train_set, dev_set = _tiny_sets(cfg)
    result = M.train(cfg, train_set, dev_set)
    blob = M.encode_checkpoint(result.last_model)
    restored = M.decode_checkpoint(blob)
    assert restored.step == result.last_model.step > 0
    assert restored.flat.tobytes() == result.last_model.flat.tobytes()


def _traced_peak(fn) -> int:
    """Peak bytes traced while ``fn`` runs, above what was traced before."""
    tracemalloc.start()
    try:
        base = tracemalloc.get_traced_memory()[0]
        fn()
        return tracemalloc.get_traced_memory()[1] - base
    finally:
        tracemalloc.stop()


@pytest.mark.parametrize("moments", [False, True])
def test_checkpoint_encode_save_and_load_hold_one_payload(tmp_path, moments):
    # a payload of about 3 MB, its Adam moments set or absent
    mdl = M.build_model(M.desk_config(feat_dim=128, conv_hidden=64))
    params = mdl.param_items()
    if moments:
        mdl.flat[1] = 0.5
        mdl.flat[2] = 0.25
    payload = 3 * 8 * count_params(list(params.values()))
    assert payload > 2_000_000
    path = tmp_path / "m.tdlc"
    assert _traced_peak(lambda: M.encode_checkpoint(mdl)) <= 1.1 * payload
    assert _traced_peak(lambda: M.save_checkpoint(mdl, path)) < 0.5 * payload
    assert _traced_peak(lambda: M.load_checkpoint(path)) <= 1.1 * payload
    blob = path.read_bytes()
    assert _traced_peak(lambda: M.decode_checkpoint(blob)) <= 1.1 * payload
    assert M.encode_checkpoint(M.load_checkpoint(path)) == blob
    assert M.encode_checkpoint(mdl) == blob


# ---------------------------------------------------------------------------
# flat parameter and Adam buffers
# ---------------------------------------------------------------------------


def _assert_flat_views(mdl):
    """mdl.flat is one (3, N) buffer of parameters, m and v, and every
    layer array is a view of its parameter row, in TDLC payload order."""
    params = mdl.param_items()
    assert mdl.flat.shape == (3, count_params(params))
    assert all(np.shares_memory(value, mdl.flat[0]) for value in params.values())
    assert np.array_equal(np.concatenate([v.ravel() for v in params.values()]),
                          mdl.flat[0])


def test_built_and_decoded_models_are_views_of_their_flat_buffers():
    cfg = tiny_config(epochs=1)
    mdl = M.build_model(cfg)
    _assert_flat_views(mdl)
    assert not mdl.flat[1:].any()
    trained = M.train(cfg, *_tiny_sets(cfg)).last_model
    _assert_flat_views(trained)
    assert trained.flat[2].any()
    _assert_flat_views(M.decode_checkpoint(M.encode_checkpoint(trained)))


def test_divergence_restores_into_the_flat_buffers(monkeypatch):
    cfg = tiny_config(epochs=3)
    train_set, dev_set = _tiny_sets(cfg)
    want = M.train(tiny_config(epochs=1), train_set, dev_set).last_model
    step, steps = M._minibatch_step, []

    def diverging(model, batch, epoch):
        if 1 in steps:  # after one step of epoch 1 has moved every row
            raise NumericError("diverged")
        steps.append(epoch)
        return step(model, batch, epoch)

    monkeypatch.setattr(M, "_minibatch_step", diverging)
    result = M.train(cfg, train_set, dev_set)
    assert result.diverged and steps[-1] == 1
    got = result.last_model
    _assert_flat_views(got)
    assert (got.epoch, got.step) == (want.epoch, want.step) == (1, 2)
    assert got.flat.tobytes() == want.flat.tobytes()


def test_flat_adam_steps_equal_per_array_updates(monkeypatch):
    cfg = tiny_config()
    train_set, _ = _tiny_sets(cfg)
    mdl = M.build_model(cfg)
    # each array's parameters, m and v, updated whole by the reference
    want = {name: [value.copy(), np.zeros_like(value), np.zeros_like(value)]
            for name, value in mdl.param_items().items()}
    monkeypatch.setattr(nn, "ADAM_SLICE", 100)  # slices cut through arrays
    assert mdl.flat.shape[1] > 4 * nn.ADAM_SLICE
    for epoch in range(3):
        batch = train_set[:cfg.batch_size]
        _, grads = M._loss_block(mdl, *M._stack_block(cfg, batch))
        for name, (theta, m, v) in want.items():
            adam_reference(cfg.optimizer, epoch + 1, epoch, theta,
                           grads[name] / len(batch), m, v)
        M._minibatch_step(mdl, batch, epoch)
        assert mdl.step == epoch + 1
        for row, got in enumerate(mdl.flat):
            assert got.tobytes() == b"".join(arrays[row].tobytes()
                                             for arrays in want.values())


def test_non_finite_gradient_names_its_parameter_and_writes_nothing(monkeypatch):
    cfg = tiny_config()
    train_set, _ = _tiny_sets(cfg)
    mdl = M.build_model(cfg)
    batch = train_set[:cfg.batch_size]
    M._minibatch_step(mdl, batch, 0)  # every row nonzero
    before = mdl.flat.tobytes()
    block_losses = M._block_losses

    def poisoned(model, batch):
        for losses, grads in block_losses(model, batch):
            grads["conv_b.bias"][1] = np.nan
            yield losses, grads

    monkeypatch.setattr(M, "_block_losses", poisoned)
    with pytest.raises(NumericError, match=r"parameter conv_b\.bias$"):
        M._minibatch_step(mdl, batch, 0)
    assert mdl.flat.tobytes() == before
    assert mdl.step == 1


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
    mdl.layers["conv_a"].weights[0, 0, 0] = np.nan
    before = M.encode_checkpoint(mdl)
    result = M.train(cfg, train_set, dev_set, init_model=mdl)
    assert result.diverged
    assert not result.records
    assert M.encode_checkpoint(result.last_model) == before


@pytest.mark.parametrize("resumed", [False, True])
def test_divergence_in_the_first_epoch_returns_the_initial_model(resumed):
    cfg = tiny_config(epochs=3)
    train_set, dev_set = _tiny_sets(cfg)
    if resumed:  # at epoch 1, with Adam moments
        mdl = M.train(tiny_config(epochs=1), train_set, dev_set).last_model
        mdl.config = cfg
    else:
        mdl = M.build_model(cfg)
    start = mdl.epoch
    mdl.layers["conv_a"].weights[0, 0, 0] = np.nan
    before = M.encode_checkpoint(mdl)
    result = M.train(cfg, train_set, dev_set, init_model=mdl)
    assert result.diverged
    assert result.best_checkpoint == before
    assert result.best_epoch == start
    assert M.encode_checkpoint(result.last_model) == before


def test_epochs_hands_each_epoch_to_its_caller():
    cfg = tiny_config(epochs=4)
    train_set, dev_set = _tiny_sets(cfg)

    def fields(records):
        return [{**record.to_dict(), "wall_time_s": None} for record in records]

    mdl = M.build_model(cfg)
    run = M.epochs(cfg, train_set, dev_set, mdl)
    first = [next(run), next(run)]
    run.close()  # the caller stops after 2 epochs
    want = M.train(tiny_config(epochs=2), train_set, dev_set)
    assert fields(first) == fields(want.records)
    assert (mdl.epoch, mdl.step) == (want.last_model.epoch, want.last_model.step)
    assert mdl.flat.tobytes() == want.last_model.flat.tobytes()

    mdl = M.build_model(cfg)
    assert fields(M.epochs(cfg, train_set, dev_set, mdl)) == \
        fields(M.train(cfg, train_set, dev_set).records)
    assert mdl.epoch == cfg.epochs


def test_train_loss_decreases_on_separable_data():
    spec = desk_benchmark_spec(num_utterances=80)
    feats, anns = synth_dataset(spec, 7)
    cfg = M.desk_config(epochs=10)
    pairs = list(zip(feats, compile_labels(anns, cfg.label_resolution_s,
                                           cfg.label_len, cfg.label_setting)))
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


@pytest.mark.parametrize("set_name", ["train", "dev"])
def test_train_rejects_a_row_of_another_label_setting_before_any_epoch(
        monkeypatch, set_name):
    cfg = tiny_config()
    sets = dict(zip(("train", "dev"), _tiny_sets(cfg)))
    seq, lab = sets[set_name][1]
    sets[set_name][1] = (seq, FrameLabels(lab.sample_id, lab.resolution_s, lab.labels,
                                          lab.true_labels, REAL0_FAKE1))

    def no_training(*args, **kwargs):
        raise AssertionError("an epoch ran before the label settings were checked")

    monkeypatch.setattr(M, "_loss_block", no_training)
    pattern = f"^{set_name}: {re.escape(lab.sample_id)}: real0_fake1 .*real1_fake0"
    with pytest.raises(ValidationError, match=pattern):
        M.train(cfg, sets["train"], sets["dev"])


@pytest.mark.parametrize("empty", ["train", "dev"])
def test_train_rejects_an_empty_set(empty):
    cfg = tiny_config()
    sets = dict(zip(("train", "dev"), _tiny_sets(cfg)), **{empty: []})
    with pytest.raises(ValidationError, match=f"^{empty} set is empty$"):
        M.train(cfg, sets["train"], sets["dev"])


def test_check_pair_rejects_labels_of_another_length():
    cfg = tiny_config()
    seq = _input(cfg, np.random.default_rng(0))
    M._check_pair(cfg, seq, _labels(cfg, [1, 0, 1]))
    longer = _labels(tiny_config(label_len=5), [1, 0, 1])
    with pytest.raises(ShapeError, match="^x: 5 labels != label_len 4$"):
        M._check_pair(cfg, seq, longer)


def test_train_rejects_features_longer_than_t_max(monkeypatch):
    cfg = tiny_config()
    train_set, dev_set = _tiny_sets(cfg)
    rng = np.random.default_rng(10)
    frames = cfg.t_max + 1
    too_long = FeatureSequence(
        "s", rng.standard_normal((cfg.feat_dim, frames)).astype(np.float32), frames)

    def no_training(*args, **kwargs):
        raise AssertionError("an epoch ran before the features were checked")

    monkeypatch.setattr(M, "_loss_block", no_training)
    with pytest.raises(ShapeError, match=r"^train: s: 13 true frames exceed t_max 12$"):
        M.train(cfg, [(too_long, train_set[0][1])], dev_set)


def test_train_takes_unpadded_features():
    cfg = tiny_config()
    train_set, dev_set = _tiny_sets(cfg)
    assert any(seq.true_frames < cfg.t_max for seq, _ in train_set + dev_set)

    def padded(pairs):
        return [(FeatureSequence(seq.sample_id, np.pad(
                     seq.values, ((0, 0), (0, cfg.t_max - seq.num_frames))),
                     seq.true_frames),
                 lab) for seq, lab in pairs]

    want = M.train(cfg, padded(train_set), padded(dev_set)).best_checkpoint
    assert M.train(cfg, train_set, dev_set).best_checkpoint == want


def test_labels_at_another_resolution_are_rejected():
    cfg = M.desk_config()
    mdl = M.build_model(cfg)
    feats, anns = synth_dataset(desk_benchmark_spec(num_utterances=4), 2)
    labels = compile_labels(anns, cfg.label_resolution_s, cfg.label_len,
                            cfg.label_setting)
    pairs = [(f, dataclasses.replace(lab, resolution_s=0.02))
             for f, lab in zip(feats, labels)]
    seq, lab = pairs[0]
    pattern = rf"^{re.escape(lab.sample_id)}: labels at 0.02 s != label_resolution_s 0.16$"
    with pytest.raises(ValidationError, match=pattern):
        M.total_loss(mdl, seq, lab)
    with pytest.raises(ValidationError, match=pattern):
        M.score_pool(mdl, pairs)
    with pytest.raises(ValidationError, match=f"^train: {pattern[1:]}"):
        M.train(cfg, pairs, pairs)


# ---------------------------------------------------------------------------
# parameter counting
# ---------------------------------------------------------------------------


def test_network_table_builds_layers_in_checkpoint_order():
    mdl = M.build_model(tiny_config())
    assert list(mdl.layers) == list(M.LAYERS)
    assert list(mdl.param_items()) == [
        "conv_a.weights", "conv_a.bias", "conv_b.weights", "conv_b.bias",
        "tconv_1.weights", "tconv_1.bias", "tconv_2.weights", "tconv_2.bias",
        "conv_head.weights", "conv_head.bias", "fc.weights", "fc.bias"]


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
