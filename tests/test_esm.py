import numpy as np
import pytest

from tdl import esm
from tdl import model as M
from tdl.data import REAL0_FAKE1, REAL1_FAKE0
from tdl.errors import ConfigError
from tdl.nn import grad_check, l2_normalize_forward

from oracles import esm_reference, esm_worst_pairs_reference


def _loss(values, classes, cfg):
    """The ESM of one (D, T) utterance as a block of one; grad is (D, T)."""
    losses, grad = esm.esm_loss_from_arrays(
        np.asarray(values, dtype=np.float64)[None],
        np.asarray(classes, dtype=np.int8)[None], cfg)
    return losses, grad[0]


def _random_embedding(rng, dim, t_len, pad=0):
    values = l2_normalize_forward(rng.standard_normal((dim, t_len)))
    classes = (rng.random(t_len) < 0.5).astype(np.int8)
    if pad:
        classes[-pad:] = esm.PADDING
    return values, classes


# ---------------------------------------------------------------------------
# label classes (model._esm_classes)
# ---------------------------------------------------------------------------


def _esm_classes(bits, t_max, true_labels=None, setting=REAL1_FAKE0, live=None):
    """model._esm_classes of the (B, L) label rows ``bits`` on t_max frames;
    every frame is live unless the (B, W) mask ``live`` says otherwise."""
    labels = np.atleast_2d(np.asarray(bits, dtype=np.int8)).astype(np.float64)
    num, length = labels.shape
    cfg = M.TdlConfig(feat_dim=2, t_max=t_max, embed_dim=2, conv_hidden=2,
                      label_len=length, label_setting=setting)
    true = [length] * num if true_labels is None else true_labels
    live = np.ones((num, t_max), dtype=bool) if live is None else live
    return M._esm_classes(cfg, labels, true, live)


def test_align_identity_when_lengths_match():
    classes = _esm_classes([1, 0, 1, 1], 4)
    assert np.array_equal(classes, [[esm.REAL, esm.FAKE, esm.REAL, esm.REAL]])


def test_align_full_scale_endpoints():
    t_e = 1050
    j = (np.arange(t_e) * 132) // t_e
    assert j[0] == 0 and j[1049] == 131
    classes = _esm_classes(np.ones(132), t_e)
    assert classes.size == t_e and np.all(classes == esm.REAL)
    # every frame reads label j: real on even label frames only
    classes = _esm_classes(np.arange(132) % 2 == 0, t_e)
    assert np.array_equal(classes[0], np.where(j % 2 == 0, esm.REAL, esm.FAKE))


def test_align_monotone_nondecreasing_random():
    rng = np.random.default_rng(0)
    for _ in range(50):
        length = int(rng.integers(1, 40))
        t_e = int(rng.integers(length, 200))
        bits = (rng.random(length) < 0.5).astype(np.int8)
        j = (np.arange(t_e) * length) // t_e
        assert np.all(np.diff(j) >= 0)
        classes = _esm_classes(bits, t_e)
        assert classes.size == t_e
        assert np.array_equal(classes[0], np.where(bits[j] == 1, esm.REAL, esm.FAKE))


def test_align_marks_padding():
    classes = _esm_classes([1, 0, 0, 0], 8, true_labels=[2])
    assert np.array_equal(classes[0, :4], [esm.REAL, esm.REAL, esm.FAKE, esm.FAKE])
    assert np.all(classes[0, 4:] == esm.PADDING)
    # feature padding: columns the live mask leaves out, here past frame 3
    live = np.arange(6)[None] < 3
    classes = _esm_classes([1, 0, 0, 0], 8, true_labels=[4], live=live)
    assert np.array_equal(classes, [[esm.REAL, esm.REAL, esm.FAKE] + [esm.PADDING] * 3])


def test_align_classes_follow_the_label_setting():
    # the same annotation, real frames first, in both encodings
    want = [esm.REAL, esm.REAL, esm.FAKE, esm.FAKE, esm.PADDING, esm.PADDING]
    for setting, bits in ((REAL1_FAKE0, [1, 0, 0]), (REAL0_FAKE1, [0, 1, 0])):
        classes = _esm_classes(bits, 6, true_labels=[2], setting=setting)
        assert np.array_equal(classes, [want]), setting


def test_block_alignment_equals_each_utterance_aligned_alone():
    rng = np.random.default_rng(11)
    for setting in (REAL1_FAKE0, REAL0_FAKE1):
        bits = rng.integers(0, 2, (5, 16))
        true = rng.integers(1, 17, size=5)
        bits[np.arange(16) >= true[:, None]] = 0
        for t_e in (16, 17, 64, 100):
            width = int(rng.integers(1, t_e + 1))
            live = np.arange(width) < rng.integers(1, t_e + 1, size=(5, 1))
            want = np.concatenate([
                _esm_classes(bits[b], t_e, [true[b]], setting, live[b:b + 1])
                for b in range(5)])
            got = _esm_classes(bits, t_e, true, setting, live)
            assert got.dtype == np.int8 and got.shape == (5, width)
            assert np.array_equal(got, want)
            # W live columns read the t_max timeline: the full width cut to W
            full = _esm_classes(bits, t_e, true, setting)
            assert np.array_equal(got, np.where(live, full[:, :width], esm.PADDING))


# ---------------------------------------------------------------------------
# hinge components
# ---------------------------------------------------------------------------


def test_real_loss_zero_for_identical_embeddings():
    col = np.array([1.0, 0.0, 0.0])
    values = np.tile(col[:, None], (1, 4))
    cfg = esm.EsmConfig(tau_same=0.9)
    assert _loss(values, [esm.REAL] * 4, cfg)[0].l_real == 0.0


def test_real_loss_single_pair_value():
    values = np.array([[1.0, 0.5], [0.0, np.sqrt(0.75)]])
    cfg = esm.EsmConfig(tau_same=0.9)
    loss = _loss(values, [esm.REAL, esm.REAL], cfg)[0].l_real
    assert np.isclose(loss, 0.4, atol=1e-12)


def test_real_loss_needs_two_real_frames():
    values = np.array([[1.0], [0.0]])
    assert _loss(values, [esm.REAL], esm.EsmConfig())[0].l_real == 0.0


def test_fake_loss_vacuous_without_fakes():
    values = l2_normalize_forward(np.random.default_rng(1).standard_normal((3, 5)))
    assert _loss(values, [esm.REAL] * 5, esm.EsmConfig())[0].l_fake == 0.0


def test_fake_loss_orthogonal_pair():
    values = np.array([[1.0, 0.0], [0.0, 1.0]])
    cfg = esm.EsmConfig(tau_same=0.9)
    assert np.isclose(_loss(values, [esm.FAKE, esm.FAKE], cfg)[0].l_fake, 0.9)


def test_diff_loss_zero_for_all_real():
    values = l2_normalize_forward(np.random.default_rng(2).standard_normal((3, 6)))
    assert _loss(values, [esm.REAL] * 6, esm.EsmConfig())[0].l_diff == 0.0


def test_diff_loss_single_pair_value():
    values = np.array([[1.0, 0.3], [0.0, np.sqrt(0.91)]])
    cfg = esm.EsmConfig(tau_diff=0.0)
    loss = _loss(values, [esm.REAL, esm.FAKE], cfg)[0].l_diff
    assert np.isclose(loss, 0.3, atol=1e-12)


def test_padding_frames_excluded():
    # a wildly different padding column must not affect any component
    rng = np.random.default_rng(3)
    base = l2_normalize_forward(rng.standard_normal((4, 6)))
    classes = np.array([1, 1, 0, 0, 1, -1], dtype=np.int8)
    cfg = esm.EsmConfig()
    e1 = (base, classes)
    swapped = base.copy()
    swapped[:, 5] = l2_normalize_forward(rng.standard_normal((4, 1)))[:, 0]
    e2 = (swapped, classes)
    assert _loss(*e1, cfg)[0] == _loss(*e2, cfg)[0]


def test_components_match_brute_force_exactly():
    rng = np.random.default_rng(4)
    cfg = esm.EsmConfig(tau_same=0.9, tau_diff=0.0)
    for i in range(50):
        t_len = int(rng.integers(2, 65))
        dim = int(rng.integers(2, 9))
        e = _random_embedding(rng, dim, t_len, pad=int(rng.integers(0, 3)))
        ref = esm_reference(e[0], e[1], cfg.tau_same, cfg.tau_diff)
        losses = _loss(*e, cfg)[0]
        assert losses.l_real == ref[0], f"real mismatch at {i}"
        assert losses.l_fake == ref[1], f"fake mismatch at {i}"
        assert losses.l_diff == ref[2], f"diff mismatch at {i}"


def test_swapping_classes_exchanges_real_and_fake():
    rng = np.random.default_rng(5)
    e = _random_embedding(rng, 4, 12)
    cfg = esm.EsmConfig()
    swapped = (e[0], 1 - e[1])
    a, _ = _loss(*e, cfg)
    b, _ = _loss(*swapped, cfg)
    assert a.l_real == b.l_fake and a.l_fake == b.l_real
    assert a.l_diff == b.l_diff


def test_losses_invariant_under_class_preserving_permutation():
    rng = np.random.default_rng(6)
    e = _random_embedding(rng, 4, 10)
    perm = rng.permutation(10)
    shuffled = (e[0][:, perm], e[1][perm])
    cfg = esm.EsmConfig()
    a, _ = _loss(*e, cfg)
    b, _ = _loss(*shuffled, cfg)
    assert (a.l_real, a.l_fake, a.l_diff) == (b.l_real, b.l_fake, b.l_diff)


def test_diff_loss_invariant_under_rotation():
    rng = np.random.default_rng(7)
    e = _random_embedding(rng, 5, 9)
    q, _ = np.linalg.qr(rng.standard_normal((5, 5)))
    rotated = (l2_normalize_forward(q @ e[0]), e[1])
    cfg = esm.EsmConfig()
    assert np.isclose(_loss(*e, cfg)[0].l_diff,
                      _loss(*rotated, cfg)[0].l_diff,
                      atol=1e-9)


def test_separated_clusters_zero_loss_and_gradient():
    u = np.array([1.0, 0.0, 0.0, 0.0])
    v = np.array([0.0, 1.0, 0.0, 0.0])
    values = np.stack([u, u, v, v, u], axis=1)
    cfg = esm.EsmConfig(tau_same=0.9, tau_diff=0.0)
    losses, grad = _loss(values, [1, 1, 0, 0, 1], cfg)
    assert losses.total == 0.0
    assert not grad.any()


def test_total_is_sum_of_components():
    rng = np.random.default_rng(8)
    e = _random_embedding(rng, 4, 14)
    losses, _ = _loss(*e, esm.EsmConfig())
    assert losses.total == losses.l_real + losses.l_fake + losses.l_diff


def test_gradient_matches_finite_differences():
    rng = np.random.default_rng(10)
    values = rng.standard_normal((1, 4, 10))
    classes = np.array([[1, 1, 0, 0, 1, 0, 1, 0, 1, 0]], dtype=np.int8)
    cfg = esm.EsmConfig(tau_same=0.9, tau_diff=0.0)
    _, grad = esm.esm_loss_from_arrays(values, classes, cfg)
    report = grad_check(
        lambda: esm.esm_loss_from_arrays(values, classes, cfg)[0].total,
        {"e": values}, {"e": grad}, tolerance=1e-4,
    )
    assert report.passed, report.worst()


def test_config_rejects_unusable_margins():
    with pytest.raises(ConfigError):
        esm.EsmConfig(tau_same=0.0, tau_diff=0.5)
    with pytest.raises(ConfigError):
        esm.EsmConfig(tau_same=1.5)


# ---------------------------------------------------------------------------
# worst pairs
# ---------------------------------------------------------------------------


def _worst_pairs(values, classes):
    """Each utterance's three (similarity, x, y) worst pairs from the block
    scan, None for a term without pairs."""
    sims, xs, ys = esm._components(values, classes, esm.EsmConfig())[1]
    return [tuple(None if np.isinf(sims[term, b])
                  else (float(sims[term, b]), int(xs[term, b]), int(ys[term, b]))
                  for term in range(3))
            for b in range(len(classes))]


def _assert_reference_pairs(values, classes):
    for b, got in enumerate(_worst_pairs(values, classes)):
        assert got == esm_worst_pairs_reference(values[b], classes[b]), b


def _classes(rng, num, t_len):
    classes = rng.integers(-1, 2, size=(num, t_len)).astype(np.int8)
    classes[rng.random((num, t_len)) < 0.5] = esm.REAL
    return classes


def test_worst_pairs_equal_the_lexicographic_oracle_on_random_blocks():
    rng = np.random.default_rng(31)
    for _ in range(25):
        num, dim, t_len = (int(rng.integers(1, 6)), int(rng.integers(1, 17)),
                           int(rng.integers(2, 41)))
        _assert_reference_pairs(rng.standard_normal((num, dim, t_len)),
                                _classes(rng, num, t_len))


def test_worst_pairs_take_the_first_of_exact_ties():
    # every column appears three times, so each term's extremum is tied
    rng = np.random.default_rng(32)
    base = rng.standard_normal((3, 6, 10))
    values = np.concatenate([base, base, base], axis=-1)[..., rng.permutation(30)]
    _assert_reference_pairs(values, _classes(rng, 3, 30))


def test_worst_pairs_resolve_columns_a_few_ulps_apart():
    rng = np.random.default_rng(33)
    column = rng.standard_normal((2, 12, 1))
    steps = rng.integers(-3, 4, size=(2, 12, 24))
    values = column + steps * np.spacing(column)
    _assert_reference_pairs(values, _classes(rng, 2, 24))


def test_worst_pairs_of_columns_that_clip_at_plus_and_minus_one():
    rng = np.random.default_rng(34)
    column = rng.standard_normal((2, 9, 1))
    scale = rng.uniform(0.5, 2.0, size=(2, 1, 20)) * rng.choice([-1.0, 1.0], size=(2, 1, 20))
    _assert_reference_pairs(column * scale, _classes(rng, 2, 20))


def test_worst_pairs_of_a_collapsed_utterance_scan_every_cell():
    # one utterance whose columns are all one column: every cell of it is
    # in the shortlist
    rng = np.random.default_rng(35)
    values = rng.standard_normal((3, 8, 32))
    values[1] = values[1, :, :1]
    _assert_reference_pairs(values, _classes(rng, 3, 32))


def test_worst_pairs_of_utterances_without_candidates():
    rng = np.random.default_rng(36)
    values = rng.standard_normal((5, 4, 12))
    classes = _classes(rng, 5, 12)
    classes[1] = esm.PADDING  # all padding
    classes[2] = esm.REAL  # one class only: no fake-fake or cross pair
    classes[3, :] = esm.PADDING
    classes[3, 4] = esm.FAKE  # a single frame
    _assert_reference_pairs(values, classes)
    assert _worst_pairs(values, classes)[1] == (None, None, None)
    lone = rng.standard_normal((4, 3, 1))  # T = 1
    assert _worst_pairs(lone, np.array([[1], [0], [-1], [1]], dtype=np.int8)) == \
        [(None, None, None)] * 4
