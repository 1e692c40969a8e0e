import numpy as np
import pytest

from tdl import esm
from tdl.data import FrameLabels, REAL1_FAKE0
from tdl.errors import ConfigError, ShapeError, ValidationError
from tdl.nn import grad_check, l2_normalize_forward

from oracles import esm_reference


def _embedding(values, classes):
    values = np.asarray(values, dtype=np.float64)
    return esm.EmbeddingSequence(values.shape[0], values.shape[1], values,
                                 np.asarray(classes, dtype=np.int8))


def _random_embedding(rng, dim, t_len, pad=0):
    values = l2_normalize_forward(rng.standard_normal((dim, t_len)))
    classes = (rng.random(t_len) < 0.5).astype(np.int8)
    if pad:
        classes[-pad:] = esm.PADDING
    return _embedding(values, classes)


# ---------------------------------------------------------------------------
# alignment
# ---------------------------------------------------------------------------


def _labels(bits, true_labels=None, resolution=0.16):
    bits = np.asarray(bits, dtype=np.int8)
    return FrameLabels("t", resolution, bits,
                       bits.size if true_labels is None else true_labels,
                       REAL1_FAKE0)


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


# ---------------------------------------------------------------------------
# hinge components
# ---------------------------------------------------------------------------


def test_real_loss_zero_for_identical_embeddings():
    col = np.array([1.0, 0.0, 0.0])
    values = np.tile(col[:, None], (1, 4))
    e = _embedding(values, [esm.REAL] * 4)
    assert esm.esm_loss(e, esm.EsmConfig(tau_same=0.9))[0].l_real == 0.0


def test_real_loss_single_pair_value():
    values = np.array([[1.0, 0.5], [0.0, np.sqrt(0.75)]])
    e = _embedding(values, [esm.REAL, esm.REAL])
    loss = esm.esm_loss(e, esm.EsmConfig(tau_same=0.9))[0].l_real
    assert np.isclose(loss, 0.4, atol=1e-12)


def test_real_loss_needs_two_real_frames():
    e = _embedding(np.array([[1.0], [0.0]]), [esm.REAL])
    assert esm.esm_loss(e, esm.EsmConfig())[0].l_real == 0.0


def test_fake_loss_vacuous_without_fakes():
    values = l2_normalize_forward(np.random.default_rng(1).standard_normal((3, 5)))
    e = _embedding(values, [esm.REAL] * 5)
    assert esm.esm_loss(e, esm.EsmConfig())[0].l_fake == 0.0


def test_fake_loss_orthogonal_pair():
    values = np.array([[1.0, 0.0], [0.0, 1.0]])
    e = _embedding(values, [esm.FAKE, esm.FAKE])
    assert np.isclose(esm.esm_loss(e, esm.EsmConfig(tau_same=0.9))[0].l_fake, 0.9)


def test_diff_loss_zero_for_all_real():
    values = l2_normalize_forward(np.random.default_rng(2).standard_normal((3, 6)))
    e = _embedding(values, [esm.REAL] * 6)
    assert esm.esm_loss(e, esm.EsmConfig())[0].l_diff == 0.0


def test_diff_loss_single_pair_value():
    values = np.array([[1.0, 0.3], [0.0, np.sqrt(0.91)]])
    e = _embedding(values, [esm.REAL, esm.FAKE])
    loss = esm.esm_loss(e, esm.EsmConfig(tau_diff=0.0))[0].l_diff
    assert np.isclose(loss, 0.3, atol=1e-12)


def test_padding_frames_excluded():
    # a wildly different padding column must not affect any component
    rng = np.random.default_rng(3)
    base = l2_normalize_forward(rng.standard_normal((4, 6)))
    classes = np.array([1, 1, 0, 0, 1, -1], dtype=np.int8)
    cfg = esm.EsmConfig()
    e1 = _embedding(base, classes)
    swapped = base.copy()
    swapped[:, 5] = l2_normalize_forward(rng.standard_normal((4, 1)))[:, 0]
    e2 = _embedding(swapped, classes)
    assert esm.esm_loss(e1, cfg)[0] == esm.esm_loss(e2, cfg)[0]


def test_components_match_brute_force_exactly():
    rng = np.random.default_rng(4)
    cfg = esm.EsmConfig(tau_same=0.9, tau_diff=0.0)
    for i in range(50):
        t_len = int(rng.integers(2, 65))
        dim = int(rng.integers(2, 9))
        e = _random_embedding(rng, dim, t_len, pad=int(rng.integers(0, 3)))
        ref = esm_reference(e.values, e.frame_class, cfg.tau_same, cfg.tau_diff)
        losses = esm.esm_loss(e, cfg)[0]
        assert losses.l_real == ref[0], f"real mismatch at {i}"
        assert losses.l_fake == ref[1], f"fake mismatch at {i}"
        assert losses.l_diff == ref[2], f"diff mismatch at {i}"


def test_swapping_classes_exchanges_real_and_fake():
    rng = np.random.default_rng(5)
    e = _random_embedding(rng, 4, 12)
    cfg = esm.EsmConfig()
    swapped = _embedding(e.values, 1 - e.frame_class)
    a, _ = esm.esm_loss(e, cfg)
    b, _ = esm.esm_loss(swapped, cfg)
    assert a.l_real == b.l_fake and a.l_fake == b.l_real
    assert a.l_diff == b.l_diff


def test_losses_invariant_under_class_preserving_permutation():
    rng = np.random.default_rng(6)
    e = _random_embedding(rng, 4, 10)
    perm = rng.permutation(10)
    shuffled = _embedding(e.values[:, perm], e.frame_class[perm])
    cfg = esm.EsmConfig()
    a, _ = esm.esm_loss(e, cfg)
    b, _ = esm.esm_loss(shuffled, cfg)
    assert (a.l_real, a.l_fake, a.l_diff) == (b.l_real, b.l_fake, b.l_diff)


def test_diff_loss_invariant_under_rotation():
    rng = np.random.default_rng(7)
    e = _random_embedding(rng, 5, 9)
    q, _ = np.linalg.qr(rng.standard_normal((5, 5)))
    rotated = _embedding(l2_normalize_forward(q @ e.values), e.frame_class)
    cfg = esm.EsmConfig()
    assert np.isclose(esm.esm_loss(e, cfg)[0].l_diff,
                      esm.esm_loss(rotated, cfg)[0].l_diff,
                      atol=1e-9)


def test_separated_clusters_zero_loss_and_gradient():
    u = np.array([1.0, 0.0, 0.0, 0.0])
    v = np.array([0.0, 1.0, 0.0, 0.0])
    values = np.stack([u, u, v, v, u], axis=1)
    e = _embedding(values, [1, 1, 0, 0, 1])
    losses, grad = esm.esm_loss(e, esm.EsmConfig(tau_same=0.9, tau_diff=0.0))
    assert losses.total == 0.0
    assert not grad.any()


def test_total_is_sum_of_components():
    rng = np.random.default_rng(8)
    e = _random_embedding(rng, 4, 14)
    losses, _ = esm.esm_loss(e, esm.EsmConfig())
    assert losses.total == losses.l_real + losses.l_fake + losses.l_diff


def test_gradient_matches_finite_differences():
    rng = np.random.default_rng(10)
    values = rng.standard_normal((4, 10))
    classes = np.array([1, 1, 0, 0, 1, 0, 1, 0, 1, 0], dtype=np.int8)
    cfg = esm.EsmConfig(tau_same=0.9, tau_diff=0.0)
    _, grad = esm.esm_loss_from_arrays(values, classes, cfg)
    report = grad_check(
        lambda: esm.esm_loss_from_arrays(values, classes, cfg)[0].total,
        {"e": values}, {"e": grad}, tolerance=1e-4,
    )
    assert report.passed, report.worst()


def test_pair_budget_deterministic_and_bounded():
    rng = np.random.default_rng(11)
    e = _random_embedding(rng, 4, 40)
    cfg = esm.EsmConfig(pair_budget=20, sample_seed=3)
    a, _ = esm.esm_loss(e, cfg)
    b, _ = esm.esm_loss(e, cfg)
    assert (a.l_real, a.l_fake, a.l_diff) == (b.l_real, b.l_fake, b.l_diff)
    full, _ = esm.esm_loss(e, esm.EsmConfig())
    # a sampled max never exceeds the exhaustive max
    assert a.l_real <= full.l_real and a.l_fake <= full.l_fake
    assert a.l_diff <= full.l_diff


def test_large_pair_budget_equals_exhaustive():
    rng = np.random.default_rng(12)
    e = _random_embedding(rng, 4, 20)
    capped, _ = esm.esm_loss(e, esm.EsmConfig(pair_budget=10 ** 6))
    full, _ = esm.esm_loss(e, esm.EsmConfig())
    assert (capped.l_real, capped.l_fake, capped.l_diff) == \
        (full.l_real, full.l_fake, full.l_diff)


def test_config_rejects_unusable_margins():
    with pytest.raises(ConfigError):
        esm.EsmConfig(tau_same=0.0, tau_diff=0.5)
    with pytest.raises(ConfigError):
        esm.EsmConfig(tau_same=1.5)
    with pytest.raises(ConfigError):
        esm.EsmConfig(pair_budget=0)


def test_embedding_sequence_validates_norms():
    values = np.ones((3, 2))  # columns have norm sqrt(3)
    with pytest.raises(ValidationError):
        _embedding(values, [esm.REAL, esm.FAKE])


def test_embedding_sequence_shape_checks():
    with pytest.raises(ShapeError):
        esm.EmbeddingSequence(3, 4, np.zeros((3, 5)), np.zeros(4, dtype=np.int8))
