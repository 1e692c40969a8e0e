import numpy as np
import pytest

from tdl import esm
from tdl.data import BOUNDARY1, REAL0_FAKE1, REAL1_FAKE0, FrameLabels
from tdl.errors import ConfigError, ValidationError
from tdl.nn import grad_check, l2_normalize_forward

from oracles import esm_reference


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
# alignment
# ---------------------------------------------------------------------------


def _labels(bits, true_labels=None, resolution=0.16, setting=REAL1_FAKE0):
    bits = np.asarray(bits, dtype=np.int8)
    return FrameLabels("t", resolution, bits,
                       bits.size if true_labels is None else true_labels,
                       setting)


def test_align_identity_when_lengths_match():
    labels = _labels([1, 0, 1, 1])
    classes = esm.align_labels_to_embedding(labels, 4)
    assert np.array_equal(classes, [esm.REAL, esm.FAKE, esm.REAL, esm.REAL])


def test_align_full_scale_endpoints():
    bits = np.ones(132, dtype=np.int8)
    labels = _labels(bits)
    t_e = 1050
    j = (np.arange(t_e) * 132) // t_e
    assert j[0] == 0 and j[1049] == 131
    classes = esm.align_labels_to_embedding(labels, t_e)
    assert classes.size == t_e and np.all(classes == esm.REAL)


def test_align_monotone_nondecreasing_random():
    rng = np.random.default_rng(0)
    for _ in range(50):
        length = int(rng.integers(1, 40))
        t_e = int(rng.integers(length, 200))
        labels = _labels((rng.random(length) < 0.5).astype(np.int8))
        j = (np.arange(t_e) * length) // t_e
        assert np.all(np.diff(j) >= 0)
        classes = esm.align_labels_to_embedding(labels, t_e)
        assert classes.size == t_e


def test_align_marks_padding():
    labels = _labels([1, 0, 0, 0], true_labels=2)
    classes = esm.align_labels_to_embedding(labels, 8)
    assert np.array_equal(classes[:4], [esm.REAL, esm.REAL, esm.FAKE, esm.FAKE])
    assert np.all(classes[4:] == esm.PADDING)


def test_align_classes_follow_the_label_setting():
    # the same annotation, real frames first, in both encodings
    want = [esm.REAL, esm.REAL, esm.FAKE, esm.FAKE, esm.PADDING, esm.PADDING]
    for setting, bits in ((REAL1_FAKE0, [1, 0, 0]), (REAL0_FAKE1, [0, 1, 0])):
        classes = esm.align_labels_to_embedding(
            _labels(bits, true_labels=2, setting=setting), 6)
        assert np.array_equal(classes, want), setting
    with pytest.raises(ValidationError, match="boundary1"):
        esm.align_labels_to_embedding(_labels([0, 1, 0], setting=BOUNDARY1), 6)


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
