import numpy as np
import pytest

from tdl import nn
from tdl.errors import ConfigError, NumericError, ShapeError
from tdl.model import _zero_extended

from oracles import adam_reference, conv1d_reference, padded_taps_reference


def _rand_conv(rng, cin, cout, k):
    bound = 0.5
    w = rng.uniform(-bound, bound, size=(k, cin, cout))
    b = rng.uniform(-bound, bound, size=cout)
    return nn.Conv1dLayer(w, b)


# ---------------------------------------------------------------------------
# convolution
# ---------------------------------------------------------------------------


def test_conv_identity_1x1_kernel():
    d = 3
    w = np.zeros((1, d, d))
    w[0] = np.eye(d)
    layer = nn.Conv1dLayer(w, np.zeros(d))
    x = np.random.default_rng(0).standard_normal((d, 9))
    assert np.array_equal(nn.conv1d_forward(layer, x), x)


def test_conv_zero_input_broadcasts_bias():
    rng = np.random.default_rng(1)
    layer = _rand_conv(rng, 2, 3, 3)
    out = nn.conv1d_forward(layer, np.zeros((2, 5)))
    assert np.allclose(out, layer.bias[:, None])


def test_conv_matches_naive_loop():
    rng = np.random.default_rng(2)
    layer = _rand_conv(rng, 2, 2, 3)
    x = rng.standard_normal((2, 5))
    ref = conv1d_reference(layer.weights, layer.bias, x)
    assert np.max(np.abs(nn.conv1d_forward(layer, x) - ref)) < 1e-12


@pytest.mark.parametrize("k,cin,cout,t", [(1, 1, 1, 1), (3, 4, 2, 7), (5, 3, 6, 11)])
def test_conv_matches_naive_loop_shapes(k, cin, cout, t):
    rng = np.random.default_rng(k * 100 + cin)
    layer = _rand_conv(rng, cin, cout, k)
    x = rng.standard_normal((cin, t))
    ref = conv1d_reference(layer.weights, layer.bias, x)
    assert np.max(np.abs(nn.conv1d_forward(layer, x) - ref)) < 1e-12


def test_conv_even_kernel_rejected():
    with pytest.raises(ConfigError):
        nn.Conv1dLayer(np.zeros((2, 2, 2)), np.zeros(2))


def test_conv_channel_mismatch():
    rng = np.random.default_rng(3)
    layer = _rand_conv(rng, 2, 3, 3)
    with pytest.raises(ShapeError):
        nn.conv1d_forward(layer, np.zeros((4, 5)))


@pytest.mark.parametrize("dtype", [np.float64, np.float32])
@pytest.mark.parametrize("t_len", [1, 3, 7, 64])
@pytest.mark.parametrize("k", [1, 3, 5, 15, 21])
def test_taps_are_bit_equal_to_windows_of_the_padded_copy(k, t_len, dtype):
    rng = np.random.default_rng(k * 100 + t_len)
    # a block as a strided view of a wider one, then one utterance as a
    # 2-D input
    block = rng.standard_normal((3, 4, t_len + 5)).astype(dtype)[..., :t_len]
    for x in (block, block[1].copy()):
        taps = nn._taps(x, k)
        assert taps.dtype == np.float64
        assert taps.shape == x.shape[:-2] + (k,) + x.shape[-2:]
        assert taps.tobytes() == padded_taps_reference(x, k).tobytes()
        # a kernel-1 tap array too is a fresh copy of x
        assert not np.shares_memory(taps, x)


def test_taps_are_bit_equal_to_windows_of_the_padded_copy_at_full_scale():
    x = np.random.default_rng(0).standard_normal((1, 1024, 1037))
    assert nn._taps(x, 3).tobytes() == padded_taps_reference(x, 3).tobytes()


def test_conv_backward_zero_grad():
    rng = np.random.default_rng(4)
    layer = _rand_conv(rng, 3, 2, 3)
    x = rng.standard_normal((3, 6))
    gx = nn.conv1d_backward(layer, x, np.zeros((2, 6)))
    gw, gb = nn.conv_param_grads(layer, x, np.zeros((2, 6)))
    assert not gx.any() and not gw.any() and not gb.any()


def test_conv_backward_one_hot_picks_input_slice():
    rng = np.random.default_rng(5)
    layer = _rand_conv(rng, 2, 2, 3)
    x = rng.standard_normal((2, 6))
    grad_out = np.zeros((2, 6))
    grad_out[1, 3] = 1.0
    gw, gb = nn.conv_param_grads(layer, x, grad_out)
    # grad_weights[i, c, 1] = x[c, 3 - 1 + i]; other output channel zero
    for i in range(3):
        assert np.allclose(gw[i, :, 1], x[:, 2 + i])
    assert not gw[:, :, 0].any()
    assert np.array_equal(gb, [0.0, 1.0])


def test_conv_backward_finite_difference():
    rng = np.random.default_rng(6)
    layer = _rand_conv(rng, 3, 4, 3)
    x = rng.standard_normal((3, 7))
    proj = rng.standard_normal((4, 7))
    gx = nn.conv1d_backward(layer, x, proj)
    gw, gb = nn.conv_param_grads(layer, x, proj)
    report = nn.grad_check(
        lambda: float(np.sum(nn.conv1d_forward(layer, x) * proj)),
        {"x": x, "w": layer.weights, "b": layer.bias},
        {"x": gx, "w": gw, "b": gb},
        tolerance=1e-6,
    )
    assert report.passed, report.worst()


# ---------------------------------------------------------------------------
# fc / activations / normalize
# ---------------------------------------------------------------------------


def test_fc_backward_finite_difference():
    rng = np.random.default_rng(7)
    layer = nn.fc_init(6, 4, rng)
    x = rng.standard_normal(6)
    proj = rng.standard_normal(4)
    gx = nn.fc_backward(layer, x, proj)
    gw, gb = nn.fc_param_grads(layer, x, proj)
    report = nn.grad_check(
        lambda: float(np.sum(nn.fc_forward(layer, x) * proj)),
        {"x": x, "w": layer.weights, "b": layer.bias},
        {"x": gx, "w": gw, "b": gb},
        tolerance=1e-6,
    )
    assert report.passed, report.worst()


def test_relu_backward_finite_difference_away_from_kink():
    rng = np.random.default_rng(8)
    x = rng.uniform(0.1, 1.0, size=(5, 4)) * rng.choice([-1.0, 1.0], size=(5, 4))
    proj = rng.standard_normal((5, 4))
    report = nn.grad_check(
        lambda: float(np.sum(nn.relu_forward(x) * proj)),
        {"x": x},
        {"x": nn.relu_backward(x, proj)},
        tolerance=1e-6,
    )
    assert report.passed, report.worst()


def test_relu_subgradient_zero_at_zero():
    x = np.array([0.0, -1.0, 2.0])
    grad = nn.relu_backward(x, np.ones(3))
    assert np.array_equal(grad, [0.0, 0.0, 1.0])


def test_sigmoid_at_zero():
    assert nn.sigmoid_forward(np.zeros(1))[0] == 0.5


def test_sigmoid_stable_at_extremes():
    out = nn.sigmoid_forward(np.array([-1000.0, 1000.0]))
    assert out[0] == 0.0 and out[1] == 1.0


def test_sigmoid_backward_finite_difference():
    rng = np.random.default_rng(9)
    x = rng.standard_normal(9)
    proj = rng.standard_normal(9)
    report = nn.grad_check(
        lambda: float(np.sum(nn.sigmoid_forward(x) * proj)),
        {"x": x},
        {"x": nn.sigmoid_backward(nn.sigmoid_forward(x), proj)},
        tolerance=1e-6,
    )
    assert report.passed, report.worst()


def test_extend_columns_repeats_the_last_column_and_folds_its_gradient():
    x = np.arange(6.0).reshape(1, 2, 3)
    out = nn.extend_columns_forward(x, 5)
    assert np.array_equal(out, [[[0, 1, 2, 2, 2], [3, 4, 5, 5, 5]]])
    grad_out = np.arange(10.0).reshape(1, 2, 5)
    grad = nn.extend_columns_backward(grad_out, 3)
    assert np.array_equal(grad, [[[0, 1, 2 + 3 + 4], [5, 6, 7 + 8 + 9]]])
    # at full width the row copies its array and its gradient, bit for bit
    for got, arr in ((nn.extend_columns_forward(x, 3), x),
                     (nn.extend_columns_backward(grad_out, 5), grad_out)):
        assert got.tobytes() == arr.tobytes()
        assert not np.shares_memory(got, arr)


@pytest.mark.parametrize("helper", [
    pytest.param(lambda x: nn._padded(x, 0), id="padded-half-0"),
    pytest.param(lambda x: nn._padded(x, 2), id="padded-half-2"),
    pytest.param(lambda x: nn._taps(x, 1), id="taps-kernel-1"),
    pytest.param(lambda x: nn._taps(x, 3), id="taps-kernel-3"),
    pytest.param(lambda x: nn.extend_columns_forward(x, 5), id="extend-full-width"),
    pytest.param(lambda x: nn.extend_columns_forward(x, 8), id="extend-wider"),
    pytest.param(lambda x: nn.extend_columns_backward(x, 5), id="fold-full-width"),
    pytest.param(lambda x: nn.extend_columns_backward(x, 2), id="fold-narrower"),
    pytest.param(lambda x: _zero_extended(x, 5), id="zero-extended-full-width"),
    pytest.param(lambda x: _zero_extended(x, 8), id="zero-extended-wider"),
])
def test_helpers_never_share_memory_with_their_input(helper):
    # a caller may write into any result without touching the input
    x = np.random.default_rng(0).standard_normal((2, 3, 5))
    before = x.tobytes()
    out = helper(x)
    assert not np.shares_memory(out, x)
    out[...] = 0.0
    assert x.tobytes() == before


def test_l2_normalize_unit_column_unchanged():
    x = np.zeros((3, 1))
    x[0, 0] = 1.0
    assert np.array_equal(nn.l2_normalize_forward(x), x)


def test_l2_normalize_columns_become_unit():
    rng = np.random.default_rng(10)
    x = rng.standard_normal((4, 6)) + 0.3
    y = nn.l2_normalize_forward(x)
    assert np.allclose(np.sqrt((y * y).sum(axis=0)), 1.0, atol=1e-12)


def test_l2_normalize_backward_finite_difference():
    rng = np.random.default_rng(11)
    x = rng.standard_normal((4, 5)) + 0.5
    proj = rng.standard_normal((4, 5))
    report = nn.grad_check(
        lambda: float(np.sum(nn.l2_normalize_forward(x) * proj)),
        {"x": x},
        {"x": nn.l2_normalize_backward(x, proj)},
        tolerance=1e-6,
    )
    assert report.passed, report.worst()


# ---------------------------------------------------------------------------
# bce
# ---------------------------------------------------------------------------


def test_bce_perfect_prediction_near_zero():
    labels = np.array([1.0, 0.0, 1.0, 0.0])
    loss, _ = nn.bce_loss(labels.copy(), labels)
    assert loss <= 1e-6


def test_bce_half_scores_is_ln2():
    scores = np.full(10, 0.5)
    labels = (np.arange(10) % 2).astype(np.float64)
    loss, _ = nn.bce_loss(scores, labels)
    assert np.isclose(loss, np.log(2.0), atol=1e-12)


def test_bce_gradient_finite_difference():
    rng = np.random.default_rng(12)
    scores = rng.uniform(0.05, 0.95, size=12)
    labels = (rng.random(12) < 0.5).astype(np.float64)
    weights = rng.uniform(0.5, 2.0, size=12)
    _, grad = nn.bce_loss(scores, labels, weights)
    report = nn.grad_check(
        lambda: nn.bce_loss(scores, labels, weights)[0],
        {"s": scores}, {"s": grad}, tolerance=1e-6,
    )
    assert report.passed, report.worst()


def test_bce_weights_scale_loss():
    rng = np.random.default_rng(13)
    scores = rng.uniform(0.1, 0.9, size=8)
    labels = (rng.random(8) < 0.5).astype(np.float64)
    plain, _ = nn.bce_loss(scores, labels)
    doubled, _ = nn.bce_loss(scores, labels, np.full(8, 2.0))
    assert np.isclose(doubled, 2.0 * plain)


def test_bce_length_mismatch():
    with pytest.raises(ShapeError):
        nn.bce_loss(np.array([0.5]), np.array([1.0, 0.0]))


# ---------------------------------------------------------------------------
# adam
# ---------------------------------------------------------------------------


def _flat(theta):
    """A (3, N) Adam buffer: parameters theta, m and v at 0."""
    flat = np.zeros((3, len(theta)))
    flat[0] = theta
    return flat


def test_adam_zero_grad_no_decay_is_noop():
    config = nn.OptimizerConfig(weight_decay=0.0)
    flat = _flat([1.0, -2.0])
    nn.adam_step(config, flat, np.zeros(2), step=1, epoch=0)
    assert np.array_equal(flat, [[1.0, -2.0], [0.0, 0.0], [0.0, 0.0]])


def test_adam_first_step_moves_by_lr():
    config = nn.OptimizerConfig(weight_decay=0.0, base_lr=1e-5)
    flat, grad = _flat([0.0]), np.ones(1)
    nn.adam_step(config, flat, grad, step=1, epoch=0)
    assert np.isclose(flat[0, 0], -1e-5, rtol=1e-6)
    want = [np.zeros(1), np.zeros(1), np.zeros(1)]
    adam_reference(config, 1, 0, want[0], grad, *want[1:])
    assert flat.tobytes() == np.stack(want).tobytes()


def test_adam_descends_convex_quadratic():
    config = nn.OptimizerConfig(weight_decay=0.0, base_lr=1e-2)
    flat = _flat(np.full(5, 3.0))
    want = [np.full(5, 3.0), np.zeros(5), np.zeros(5)]
    losses = []
    for step in range(1, 101):
        losses.append(0.5 * float(np.sum(flat[0] ** 2)))
        nn.adam_step(config, flat, flat[0].copy(), step, epoch=0)
        adam_reference(config, step, 0, want[0], want[0].copy(), *want[1:])
    tail = losses[10:]
    assert all(b <= a + 1e-12 for a, b in zip(tail, tail[1:]))
    assert losses[-1] < losses[0]
    assert flat.tobytes() == np.stack(want).tobytes()


def test_lr_schedule_halves_every_period():
    config = nn.OptimizerConfig(base_lr=1e-5, halving_period_epochs=5)
    for epoch in range(20):
        assert config.lr_for_epoch(epoch) == 1e-5 * 0.5 ** (epoch // 5)
    assert config.lr_for_epoch(4) == 1e-5
    assert config.lr_for_epoch(5) == 5e-6
    assert config.lr_for_epoch(10) == 2.5e-6


@pytest.mark.parametrize("key, value", [
    ("beta1", -0.1), ("beta1", 1.5), ("beta2", 1.0), ("eps", 0.0),
    ("weight_decay", -1.0), ("base_lr", -1.0), ("base_lr", float("nan")),
    ("halving_period_epochs", 0),
])
def test_optimizer_config_rejects_out_of_range_values(key, value):
    with pytest.raises(ConfigError, match=key):
        nn.OptimizerConfig(**{key: value})


def test_adam_rejects_non_finite_gradient():
    with pytest.raises(NumericError, match="non-finite gradient"):
        nn.adam_step(nn.OptimizerConfig(), _flat(np.zeros(2)),
                     np.array([np.nan, 0.0]), step=1, epoch=0)


@pytest.mark.parametrize("bad", [np.nan, "shape"])
def test_adam_checks_every_gradient_before_it_writes(bad):
    config, flat = nn.OptimizerConfig(), _flat(np.ones(9))
    nn.adam_step(config, flat, np.full(9, 0.5), step=1, epoch=0)
    before = flat.tobytes()
    if bad == "shape":
        grad = np.zeros(10)
    else:
        grad = np.full(9, 0.5)
        grad[-1] = bad
    with pytest.raises(ShapeError if bad == "shape" else NumericError):
        nn.adam_step(config, flat, grad, step=2, epoch=0)
    assert flat.tobytes() == before


@pytest.mark.parametrize("size", [1, nn.ADAM_SLICE - 1, nn.ADAM_SLICE,
                                  nn.ADAM_SLICE + 1, 2 * nn.ADAM_SLICE + 7])
def test_sliced_adam_step_equals_the_whole_array_update(size):
    rng = np.random.default_rng(size)
    config = nn.OptimizerConfig(base_lr=1e-3, halving_period_epochs=2)
    flat = _flat(rng.standard_normal(size))
    want = [flat[0].copy(), np.zeros(size), np.zeros(size)]
    for step in range(1, 4):
        grad = rng.standard_normal(size)
        nn.adam_step(config, flat, grad, step, epoch=step)
        adam_reference(config, step, step, want[0], grad, *want[1:])
    assert flat.tobytes() == np.stack(want).tobytes()


# ---------------------------------------------------------------------------
# grad_check / count_params
# ---------------------------------------------------------------------------


def test_grad_check_passes_linear_map_tightly():
    rng = np.random.default_rng(14)
    w = rng.standard_normal((3, 4))
    x = rng.standard_normal(4)
    report = nn.grad_check(
        lambda: float(np.sum(w @ x)),
        {"w": w},
        {"w": np.tile(x, (3, 1))},
        tolerance=1e-8,
    )
    assert report.passed, report.worst()


def test_grad_check_flags_broken_gradient():
    rng = np.random.default_rng(15)
    w = rng.standard_normal((3, 4))
    x = rng.standard_normal(4)
    report = nn.grad_check(
        lambda: float(np.sum(w @ x)),
        {"w": w},
        {"w": np.tile(x, (3, 1)) * 1.1},  # deliberately wrong by 10%
        tolerance=1e-6,
    )
    assert not report.passed


def test_grad_check_samples_large_tensors():
    rng = np.random.default_rng(16)
    w = rng.standard_normal(500)
    report = nn.grad_check(
        lambda: float(np.sum(w)),
        {"w": w},
        {"w": np.ones(500)},
        tolerance=1e-8,
        max_coords=200,
    )
    assert report.entries[0].coords_checked == 200
    assert report.passed


def test_count_params_fc_and_conv():
    rng = np.random.default_rng(17)
    fc = nn.fc_init(3, 2, rng)
    assert nn.count_params([fc.weights, fc.bias]) == 8
    conv = nn.conv1d_init(4, 4, 3, rng)
    assert nn.count_params([conv.weights, conv.bias]) == 52
