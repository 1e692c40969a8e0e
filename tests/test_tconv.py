import numpy as np
import pytest

from tdl import model as M
from tdl import tconv
from tdl.errors import ConfigError, ShapeError
from tdl.esm import FAKE, PADDING, REAL
from tdl.nn import (
    Conv1dLayer,
    _apply_taps,
    _grad_taps,
    _taps,
    conv1d_backward,
    conv1d_forward,
    conv1d_init,
    conv_param_grads,
    grad_check,
    l2_normalize_backward,
    l2_normalize_forward,
)

from oracles import (
    conv1d_reference,
    neighbor_similarity_backward_reference,
    neighbor_similarity_reference,
    padded_taps_reference,
    tconv_reference,
)


def _embedding(rng, dim, t_len, n_pad=0):
    """Unit (dim, t_len) embedding columns and their frame classes."""
    values = l2_normalize_forward(rng.standard_normal((dim, t_len)))
    classes = np.full(t_len, REAL, dtype=np.int8)
    if n_pad:
        classes[-n_pad:] = PADDING
    return values, classes


def _layer(rng, channels, k=3):
    return conv1d_init(channels, channels, k, rng)


def _similarity(e, k):
    values, classes = e
    return tconv.neighbor_similarity(values, classes != PADDING, k)


def _similarity_backward(e, k, grad_a):
    return tconv.neighbor_similarity_backward(e[0], _similarity(e, k), grad_a)


# ---------------------------------------------------------------------------
# neighbor similarity
# ---------------------------------------------------------------------------


def test_identical_columns_give_ones_inside_borders():
    col = np.zeros(4)
    col[0] = 1.0
    values = np.tile(col[:, None], (1, 6))
    e = (values, np.full(6, REAL, dtype=np.int8))
    a = _similarity(e, 3)
    expected = np.ones((3, 6))
    expected[0, 0] = 0.0   # t-1 out of range
    expected[2, 5] = 0.0   # t+1 out of range
    assert np.array_equal(a, expected)


def test_center_row_is_one_on_live_frames():
    rng = np.random.default_rng(0)
    e = _embedding(rng, 5, 9, n_pad=2)
    a = _similarity(e, 5)
    assert np.array_equal(a[2, :7], np.ones(7))
    assert not a[:, 7:].any()


def test_padding_neighbors_masked():
    rng = np.random.default_rng(1)
    e = _embedding(rng, 4, 6, n_pad=2)
    a = _similarity(e, 3)
    # frame 3's right neighbor (4) is padding; frame 4/5 are padding
    assert a[2, 3] == 0.0
    assert not a[:, 4:].any()


def test_similarity_matches_reference():
    rng = np.random.default_rng(2)
    for k in (3, 5):
        e = _embedding(rng, 4, 11, n_pad=1)
        a = _similarity(e, k)
        ref = neighbor_similarity_reference(*e, k)
        assert np.max(np.abs(a - ref)) < 1e-12


def test_rectification_clips_negative_similarity():
    values = np.zeros((2, 2))
    values[0, 0], values[0, 1] = 1.0, -1.0
    e = (values, np.full(2, REAL, dtype=np.int8))
    a = _similarity(e, 3)
    assert a[2, 0] == 0.0 and a[0, 1] == 0.0


def test_similarity_values_bounded():
    rng = np.random.default_rng(3)
    e = _embedding(rng, 3, 30)
    a = _similarity(e, 3)
    assert a.min() >= 0.0 and a.max() <= 1.0


def test_even_kernel_rejected():
    rng = np.random.default_rng(4)
    with pytest.raises(ConfigError):
        _similarity(_embedding(rng, 3, 5), 4)


# ---------------------------------------------------------------------------
# modulated convolution
# ---------------------------------------------------------------------------


def test_all_ones_similarity_reduces_to_conv():
    rng = np.random.default_rng(5)
    layer = _layer(rng, 4)
    x = rng.standard_normal((4, 10))
    out = tconv.tconv_forward(layer, x, np.ones((3, 10)))
    plain = conv1d_forward(layer, x)
    assert np.max(np.abs(out - plain)) <= 1e-12


def test_center_only_similarity_is_pointwise_conv():
    rng = np.random.default_rng(6)
    layer = _layer(rng, 3)
    x = rng.standard_normal((3, 8))
    a = np.zeros((3, 8))
    a[1] = 1.0
    out = tconv.tconv_forward(layer, x, a)
    center = Conv1dLayer(layer.weights[1:2], layer.bias)
    assert np.allclose(out, conv1d_forward(center, x), atol=1e-12)


def test_tconv_matches_reference():
    rng = np.random.default_rng(7)
    layer = _layer(rng, 3)
    x = rng.standard_normal((3, 7))
    e = _embedding(rng, 4, 7)
    a = _similarity(e, 3)
    ref = tconv_reference(layer.weights, layer.bias, x, a)
    assert np.max(np.abs(tconv.tconv_forward(layer, x, a) - ref)) < 1e-12


@pytest.mark.parametrize("shape, k", [
    ((8, 16, 64), 3),      # a desk block
    ((8, 16, 64), 1),      # a kernel-1 desk block
    ((1, 1024, 1037), 3),  # a full-scale utterance on its live columns
    ((2, 4, 7), 5),        # a 5-tap kernel on a short input
    ((2, 3, 6), 15),       # a kernel wider than the input
])
def test_forward_is_bit_equal_to_scaled_padded_taps(shape, k):
    rng = np.random.default_rng(k)
    layer = _layer(rng, shape[1], k)
    # a strided view of a wider block
    x = rng.standard_normal(shape[:-1] + (shape[-1] + 3,))[..., :shape[-1]]
    a = rng.uniform(0.0, 1.0, (shape[0], k, shape[2]))
    x_before, a_before = x.tobytes(), a.tobytes()
    for xs, scale in ((x, a), (x[0], a[0])):
        got = tconv.tconv_forward(layer, xs, scale)
        want = _apply_taps(layer, padded_taps_reference(xs, k) * scale[..., None, :])
        assert got.tobytes() == want.tobytes()
    assert x.tobytes() == x_before and a.tobytes() == a_before


def test_kernel_1_forward_writes_no_input_and_keeps_every_activation(monkeypatch):
    # a tconv scales its tap array in place, which must be a fresh copy
    # of the row's input even at kernel 1, or it would rewrite x and h2
    cfg = M.desk_config(kernel=1)
    mdl = M.build_model(cfg)
    rng = np.random.default_rng(1)
    true_frames = [64, 40, 17, 1]
    xv = rng.standard_normal((len(true_frames), cfg.feat_dim, cfg.t_max))
    for row, n in zip(xv, true_frames):
        row[:, n:] = 0.0
    inputs = (xv, np.array(true_frames), mdl.flat)
    before = [arr.copy() for arr in inputs]
    acts = M._forward_block(mdl, xv, true_frames)
    for arr, copy in zip(inputs, before):
        assert arr.tobytes() == copy.tobytes()
    # every tap array built as a fresh padded copy, scaled out of place
    monkeypatch.setattr(M, "conv1d_forward", lambda layer, x: _apply_taps(
        layer, padded_taps_reference(x, layer.kernel)))
    monkeypatch.setattr(M, "tconv_forward", lambda layer, x, a: _apply_taps(
        layer, padded_taps_reference(x, layer.kernel) * a[..., None, :]))
    want = M._forward_block(mdl, before[0], true_frames)
    assert acts.keys() == want.keys()
    for name, arr in want.items():
        assert acts[name].tobytes() == arr.tobytes(), name


@pytest.mark.parametrize("k", [15, 21])
def test_kernel_wider_than_input_matches_references(k):
    # taps and neighbors reaching past both ends of a 6-frame or a 1-frame
    # input see only zeros
    rng = np.random.default_rng(k)
    layer = _layer(rng, 3, k)
    for t_len in (6, 1):
        x = rng.standard_normal((3, t_len))
        raw = rng.standard_normal((4, t_len))
        e = (l2_normalize_forward(raw), np.full(t_len, REAL, dtype=np.int8))
        a = _similarity(e, k)
        assert np.max(np.abs(a - neighbor_similarity_reference(*e, k))) < 1e-12
        grad_a = rng.standard_normal(a.shape)
        # the cosine adjoint's radial term is projected out by l2_normalize
        grad_e = l2_normalize_backward(raw, _similarity_backward(e, k, grad_a))
        ref = l2_normalize_backward(
            raw, neighbor_similarity_backward_reference(*e, k, grad_a))
        assert np.max(np.abs(grad_e - ref)) < 1e-12
        ref = conv1d_reference(layer.weights, layer.bias, x)
        assert np.max(np.abs(conv1d_forward(layer, x) - ref)) < 1e-12
        ref = tconv_reference(layer.weights, layer.bias, x, a)
        assert np.max(np.abs(tconv.tconv_forward(layer, x, a) - ref)) < 1e-12
        proj = rng.standard_normal((3, t_len))
        gx, ga = tconv.tconv_backward(layer, x, a, proj)
        gw, gb = conv_param_grads(layer, x, proj, a)
        report = grad_check(
            lambda: float(np.sum(tconv.tconv_forward(layer, x, a) * proj)),
            {"x": x, "a": a, "w": layer.weights, "b": layer.bias},
            {"x": gx, "a": ga, "w": gw, "b": gb},
            tolerance=1e-6,
        )
        assert report.passed, (t_len, report.worst())


def test_zero_similarity_cell_masks_input_column():
    rng = np.random.default_rng(8)
    layer = _layer(rng, 3)
    x = rng.standard_normal((3, 8))
    a = np.ones((3, 8))
    a[0, 4] = 0.0  # output frame 4 ignores input column 3
    out1 = tconv.tconv_forward(layer, x, a)
    x2 = x.copy()
    x2[:, 3] += rng.standard_normal(3)
    out2 = tconv.tconv_forward(layer, x2, a)
    assert np.array_equal(out1[:, 4], out2[:, 4])
    assert not np.allclose(out1[:, 3], out2[:, 3])


def test_linearity_in_input_for_fixed_similarity():
    rng = np.random.default_rng(9)
    layer = _layer(rng, 4)
    x1 = rng.standard_normal((4, 6))
    x2 = rng.standard_normal((4, 6))
    e = _embedding(rng, 3, 6)
    a = _similarity(e, 3)
    alpha, beta = 0.7, -1.3
    lhs = tconv.tconv_forward(layer, alpha * x1 + beta * x2, a)
    out1 = tconv.tconv_forward(layer, x1, a) - layer.bias[:, None]
    out2 = tconv.tconv_forward(layer, x2, a) - layer.bias[:, None]
    rhs = alpha * out1 + beta * out2 + layer.bias[:, None]
    assert np.allclose(lhs, rhs, atol=1e-12)


def test_shape_mismatches_rejected():
    rng = np.random.default_rng(10)
    layer = _layer(rng, 3)
    x = rng.standard_normal((3, 8))
    with pytest.raises(ShapeError):
        tconv.tconv_forward(layer, x, np.ones((5, 8)))
    with pytest.raises(ShapeError):
        tconv.tconv_forward(layer, x, np.ones((3, 9)))
    with pytest.raises(ShapeError):
        tconv.tconv_forward(layer, rng.standard_normal((2, 8)), np.ones((3, 8)))
    block = rng.standard_normal((3, 3, 8))
    with pytest.raises(ShapeError):  # a block of 2 utterances for 3
        tconv.tconv_forward(layer, block, np.ones((2, 3, 8)))
    with pytest.raises(ShapeError):  # one utterance's a for a block
        tconv.tconv_forward(layer, block, np.ones((3, 8)))


# ---------------------------------------------------------------------------
# backward
# ---------------------------------------------------------------------------


def test_backward_zero_grad_out():
    rng = np.random.default_rng(11)
    layer = _layer(rng, 3)
    x = rng.standard_normal((3, 6))
    a = np.ones((3, 6))
    gx, ga = tconv.tconv_backward(layer, x, a, np.zeros((3, 6)))
    gw, gb = conv_param_grads(layer, x, np.zeros((3, 6)), a)
    assert not gx.any() and not ga.any() and not gw.any() and not gb.any()


def test_backward_with_ones_matches_conv_backward():
    rng = np.random.default_rng(12)
    layer = _layer(rng, 4)
    x = rng.standard_normal((4, 9))
    grad_out = rng.standard_normal((4, 9))
    gx, _ = tconv.tconv_backward(layer, x, np.ones((3, 9)), grad_out)
    gw, gb = conv_param_grads(layer, x, grad_out, np.ones((3, 9)))
    cx = conv1d_backward(layer, x, grad_out)
    cw, cb = conv_param_grads(layer, x, grad_out)
    assert np.allclose(gx, cx, atol=1e-12)
    assert np.allclose(gw, cw, atol=1e-12)
    assert np.array_equal(gb, cb)


@pytest.mark.parametrize("shape, k", [
    ((8, 16, 64), 3),    # a desk block
    ((1, 1024, 1037), 3),  # a full-scale utterance on its live columns
    ((2, 3, 6), 15),     # a kernel wider than the input
    ((1, 40, 3), 5),     # taps that reach one frame each
])
def test_grad_a_is_bit_equal_to_the_tap_array_formula(shape, k):
    rng = np.random.default_rng(k)
    layer = _layer(rng, shape[1], k)
    x = rng.standard_normal(shape)
    a = rng.uniform(0.0, 1.0, (shape[0], k, shape[2]))
    grad_out = rng.standard_normal(shape)
    _, ga = tconv.tconv_backward(layer, x, a, grad_out)
    want = (_grad_taps(layer, grad_out) * _taps(x, k)).sum(axis=-2)
    assert ga.tobytes() == want.tobytes()


def _tap_array_param_grads(layer, x, grad_out, a):
    """conv_param_grads as the whole tap array computes it: the taps
    scaled by a, one (k*C_in, T) GEMM per utterance, summed over the block."""
    taps = _taps(x, layer.kernel)
    if a is not None:
        taps *= a[..., None, :]
    t_len = x.shape[-1]
    flat = taps.reshape(-1, layer.kernel * layer.in_channels, t_len)
    grad = grad_out.reshape(-1, layer.out_channels, t_len)
    prods = np.matmul(flat, grad.transpose(0, 2, 1))
    grad_weights = prods[0] if len(prods) == 1 else prods.sum(axis=0)
    return grad_weights.reshape(layer.weights.shape), grad.sum(axis=2).sum(axis=0)


@pytest.mark.parametrize("shape, c_out, k, scaled", [
    ((1, 1024, 1037), 1024, 3, True),  # a full-scale tconv row, live columns
    ((1, 1024, 1037), 512, 3, False),  # conv_a at full scale
    ((1, 1024, 1037), 2, 1, False),    # conv_head
    ((8, 16, 64), 16, 3, True),        # desk blocks
    ((8, 16, 64), 16, 3, False),
    ((2, 4, 7), 4, 5, True),           # a 5-tap kernel on a short input
    ((2, 4, 3), 4, 15, True),          # a kernel wider than the input
])
def test_weight_gradients_are_bit_equal_to_the_tap_array_formula(shape, c_out, k,
                                                                 scaled):
    rng = np.random.default_rng(k)
    layer = conv1d_init(shape[1], c_out, k, rng)
    x = rng.standard_normal(shape)
    a = rng.uniform(0.0, 1.0, (shape[0], k, shape[2])) if scaled else None
    grad_out = rng.standard_normal((shape[0], c_out, shape[2]))
    # the block, then its first utterance alone as a 2-D input
    one = None if a is None else a[0]
    for xs, gs, scale in ((x, grad_out, a), (x[0], grad_out[0], one)):
        got = conv_param_grads(layer, xs, gs, scale)
        want = _tap_array_param_grads(layer, xs, gs, scale)
        assert got[0].shape == layer.weights.shape
        assert got[0].tobytes() == want[0].tobytes()
        assert got[1].tobytes() == want[1].tobytes()


def test_full_chain_finite_difference():
    rng = np.random.default_rng(13)
    layer = _layer(rng, 6)
    x = rng.standard_normal((6, 9))
    raw_e = rng.standard_normal((4, 9))
    classes = np.full(9, REAL, dtype=np.int8)
    classes[4] = FAKE  # classes do not matter for similarity, only padding
    proj = rng.standard_normal((6, 9))

    def scalar():
        e = (l2_normalize_forward(raw_e), classes)
        a = _similarity(e, 3)
        return float(np.sum(tconv.tconv_forward(layer, x, a) * proj))

    e = (l2_normalize_forward(raw_e), classes)
    a = _similarity(e, 3)
    gx, ga = tconv.tconv_backward(layer, x, a, proj)
    gw, gb = conv_param_grads(layer, x, proj, a)
    ge = l2_normalize_backward(raw_e, _similarity_backward(e, 3, ga))
    report = grad_check(
        scalar,
        {"x": x, "e": raw_e, "w": layer.weights, "b": layer.bias},
        {"x": gx, "e": ge, "w": gw, "b": gb},
        tolerance=1e-4,
    )
    assert report.passed, report.worst()


def test_similarity_backward_ignores_masked_cells():
    rng = np.random.default_rng(14)
    e = _embedding(rng, 4, 7, n_pad=2)
    grad_a = rng.standard_normal((3, 7))
    grad = _similarity_backward(e, 3, grad_a)
    # padding columns receive no gradient
    assert not grad[:, 5:].any()
    # center row gradient contributes nothing: doubling it changes nothing
    grad_a2 = grad_a.copy()
    grad_a2[1] *= 2.0
    assert np.array_equal(grad, _similarity_backward(e, 3, grad_a2))


def test_similarity_backward_at_exact_zero_cosines():
    # orthogonal neighbours: both off-center cells are cosines of exactly 0
    values = np.array([[2.0, 0.0], [0.0, 4.0]])
    e = (values, np.full(2, REAL, dtype=np.int8))
    grad_a = np.array([[5.0, 1.0], [7.0, 9.0], [2.0, 3.0]])
    assert not _similarity(e, 3)[[0, 2], [1, 0]].any()
    # a cell of exactly 0 passes nothing
    assert not _similarity_backward(e, 3, grad_a).any()


def test_dot_adjoint_matches_cosine_adjoint_through_l2_normalize():
    # the similarity adjoint treats e as unit columns, so it lacks the
    # cosine adjoint's radial term; l2_normalize_backward projects that
    # term out, and the two chains agree on a padded block of two
    rng = np.random.default_rng(15)
    k, t_len = 5, 12
    scale = rng.uniform(0.5, 5.0, (2, 1, t_len))
    g2 = scale * rng.standard_normal((2, 4, t_len))
    e = l2_normalize_forward(g2)
    live = np.arange(t_len) < np.array([[t_len], [8]])
    a = tconv.neighbor_similarity(e, live, k)
    grad_a = rng.standard_normal(a.shape)
    grad = l2_normalize_backward(g2, tconv.neighbor_similarity_backward(e, a, grad_a))
    classes = np.where(live, REAL, PADDING)
    ref = np.stack([neighbor_similarity_backward_reference(e[b], classes[b], k,
                                                           grad_a[b])
                    for b in range(2)])
    assert (a > 0).any() and grad.any()
    assert np.max(np.abs(grad - l2_normalize_backward(g2, ref))) <= 1e-12
