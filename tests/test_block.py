"""The block core: B padded utterances computed as one (B, C, T) array.

Scores must not depend on which utterances share a block, a block's
loss and gradients must equal the sum of its utterances' B = 1 calls,
and the Gram-matrix ESM must equal the pair-scan oracles exactly.
"""

import numpy as np
import pytest

from tdl import esm
from tdl import model as M
from tdl.data import (
    BOUNDARY1,
    REAL0_FAKE1,
    REAL1_FAKE0,
    FeatureSequence,
    compile_frame_labels,
    desk_benchmark_spec,
    pad_features,
    synth_dataset,
)
from tdl.esm import EsmConfig
from tdl.nn import l2_normalize_forward

from oracles import esm_reference, esm_sampled_reference

MIXED_TRUE_FRAMES = (64, 40, 17, 64, 33, 1, 58, 25)


def _padded(cfg, rng, true_frames, sample_id="x"):
    values = rng.standard_normal((cfg.feat_dim, cfg.t_max)).astype(np.float32)
    values[:, true_frames:] = 0.0
    return FeatureSequence(sample_id, cfg.feat_dim, cfg.t_max, values, true_frames)


def _desk_pairs(cfg, num, seed):
    feats, anns = synth_dataset(desk_benchmark_spec(num_utterances=num), seed)
    return [
        (pad_features(f, cfg.t_max),
         compile_frame_labels(a, cfg.label_resolution_s, cfg.label_len,
                              cfg.label_setting))
        for f, a in zip(feats, anns)
    ]


def _rel(got, want):
    scale = max(float(np.max(np.abs(want))), 1e-300)
    return float(np.max(np.abs(np.asarray(got) - np.asarray(want)))) / scale


# ---------------------------------------------------------------------------
# scores do not depend on the block
# ---------------------------------------------------------------------------


def test_scores_bit_identical_alone_and_in_a_mixed_block():
    cfg = M.desk_config()
    mdl = M.build_model(cfg)
    rng = np.random.default_rng(0)
    seqs = [_padded(cfg, rng, tf, f"u{i}") for i, tf in enumerate(MIXED_TRUE_FRAMES)]
    xv, true_frames, _ = M._stack_block([(seq, None) for seq in seqs])
    assert xv.shape == (8, cfg.feat_dim, cfg.t_max)
    block = M._forward_block(mdl, xv, true_frames)["scores"]
    reordered = M._forward_block(mdl, xv[::-1].copy(), true_frames[::-1])["scores"]
    for b, seq in enumerate(seqs):
        alone = M.predict(mdl, seq, cfg.label_len)
        assert np.array_equal(alone, block[b]), f"utterance {b}"
        assert np.array_equal(alone, reordered[len(seqs) - 1 - b]), f"utterance {b}"


def test_dev_eer_does_not_depend_on_the_block_size(monkeypatch):
    cfg = M.desk_config()
    pairs = _desk_pairs(cfg, 20, 3)
    mdl = M.build_model(cfg)
    default = M.dev_eer(mdl, pairs)
    assert len(M._blocks(pairs, cfg.t_max)) == 2
    monkeypatch.setattr(M, "BLOCK_FRAMES", 3 * cfg.t_max)
    assert [len(b) for b in M._blocks(pairs, cfg.t_max)] == [3] * 6 + [2]
    assert M.dev_eer(mdl, pairs) == default
    monkeypatch.setattr(M, "BLOCK_FRAMES", 1)  # never less than one utterance
    assert len(M._blocks(pairs, cfg.t_max)) == 20
    assert M.dev_eer(mdl, pairs) == default


# ---------------------------------------------------------------------------
# a block's loss and gradients are the sum of its utterances'
# ---------------------------------------------------------------------------


@pytest.mark.parametrize("setting,weight", [
    (REAL1_FAKE0, 0.1), (REAL0_FAKE1, 0.1), (BOUNDARY1, 0.1), (REAL1_FAKE0, 0.0),
])
def test_block_loss_and_gradients_match_sum_of_single_calls(setting, weight):
    cfg = M.desk_config(label_setting=setting, esm_weight=weight,
                        esm=EsmConfig(tau_same=0.99, tau_diff=-0.5))
    pairs = _desk_pairs(cfg, 8, 5)
    mdl = M.build_model(cfg)
    block_loss, block_grads = M._loss_block(mdl, *M._stack_block(pairs),
                                            input_grad=True)
    singles = [M.total_loss(mdl, seq, lab) for seq, lab in pairs]

    for name in ("total", "bce"):
        want = sum(getattr(loss, name) for loss, _ in singles)
        assert _rel(getattr(block_loss, name), want) <= 1e-12, name
    for name in ("l_real", "l_fake", "l_diff"):
        want = sum(getattr(loss.esm, name) for loss, _ in singles)
        assert _rel(getattr(block_loss.esm, name), want) <= 1e-12, name
    if weight == 0.0 or setting == BOUNDARY1:
        assert block_loss.esm.total == 0.0
    else:
        assert block_loss.esm.total > 0.0

    for key in mdl.param_items():
        want = sum(grads[key] for _, grads in singles)
        assert _rel(block_grads[key], want) <= 1e-12, key
    for b, (_, grads) in enumerate(singles):
        assert _rel(block_grads["input"][b], grads["input"]) <= 1e-12


def test_training_block_skips_the_input_gradient():
    cfg = M.desk_config()
    pairs = _desk_pairs(cfg, 4, 6)
    mdl = M.build_model(cfg)
    _, grads = M._loss_block(mdl, *M._stack_block(pairs))
    assert set(grads) == set(mdl.param_items())


# ---------------------------------------------------------------------------
# Gram-matrix ESM against the pair-scan oracles
# ---------------------------------------------------------------------------


def _random_block(rng, num, dim, t_len):
    values = l2_normalize_forward(rng.standard_normal((num, dim, t_len)))
    classes = (rng.random((num, t_len)) < 0.5).astype(np.int8)
    for b in range(num):
        pad = int(rng.integers(0, t_len // 2 + 1))
        if pad:
            classes[b, -pad:] = esm.PADDING
    return values, classes


def test_gram_esm_block_equals_oracle_exactly():
    rng = np.random.default_rng(21)
    cfg = EsmConfig(tau_same=0.9, tau_diff=0.0)
    mismatches = 0
    for _ in range(40):
        num, dim, t_len = (int(rng.integers(1, 9)), int(rng.integers(2, 17)),
                           int(rng.integers(2, 65)))
        values, classes = _random_block(rng, num, dim, t_len)
        losses = esm._components(values, classes, cfg)[0]
        for b in range(num):
            ref = esm_reference(values[b], classes[b], cfg.tau_same, cfg.tau_diff)
            mismatches += tuple(losses[b]) != ref
            single, _ = esm.esm_loss_from_arrays(values[b], classes[b], cfg)
            mismatches += (single.l_real, single.l_fake, single.l_diff) != ref
    assert mismatches == 0


def _pair_counts(classes):
    real, fake = int((classes == esm.REAL).sum()), int((classes == esm.FAKE).sum())
    return real * (real - 1) // 2, fake * (fake - 1) // 2, real * fake


def test_pair_budget_at_or_above_pair_count_equals_exhaustive_oracle():
    rng = np.random.default_rng(22)
    for _ in range(20):
        values, classes = _random_block(rng, 1, int(rng.integers(2, 9)),
                                        int(rng.integers(4, 40)))
        ref = esm_reference(values[0], classes[0], 0.9, 0.0)
        largest = max(max(_pair_counts(classes[0])), 1)
        for budget in (largest, largest + 1, 10 ** 6):
            cfg = EsmConfig(tau_same=0.9, tau_diff=0.0, pair_budget=budget)
            got, _ = esm.esm_loss_from_arrays(values[0], classes[0], cfg)
            assert (got.l_real, got.l_fake, got.l_diff) == ref


def test_sampled_pair_budget_equals_scan_of_the_same_drawn_pairs():
    rng = np.random.default_rng(23)
    sampled_terms = 0
    for _ in range(30):
        num = int(rng.integers(1, 5))
        values, classes = _random_block(rng, num, int(rng.integers(2, 9)),
                                        int(rng.integers(6, 48)))
        budget, seed = int(rng.integers(1, 60)), int(rng.integers(0, 1000))
        cfg = EsmConfig(tau_same=0.9, tau_diff=0.0, pair_budget=budget,
                        sample_seed=seed)
        losses = esm._components(values, classes, cfg)[0]
        for b in range(num):
            ref = esm_sampled_reference(values[b], classes[b], 0.9, 0.0, budget, seed)
            assert tuple(losses[b]) == ref
            sampled_terms += sum(c > budget for c in _pair_counts(classes[b]))
    assert sampled_terms > 20  # the draws were exercised, not just the full scan


def test_esm_gradient_of_a_block_stacks_single_gradients():
    rng = np.random.default_rng(24)
    values, classes = _random_block(rng, 5, 6, 30)
    raw = values * rng.uniform(0.5, 2.0, size=(5, 1, 30))  # not unit norm
    cfg = EsmConfig(tau_same=0.95, tau_diff=-0.2)
    total, grad = esm.esm_loss_from_arrays(raw, classes, cfg)
    singles = [esm.esm_loss_from_arrays(raw[b], classes[b], cfg) for b in range(5)]
    for b, (_, g) in enumerate(singles):
        assert np.array_equal(grad[b], g)
    assert _rel(total.total, sum(s.total for s, _ in singles)) <= 1e-12


# ---------------------------------------------------------------------------
# divergence inside a block
# ---------------------------------------------------------------------------


@pytest.mark.parametrize("poisoned", [0, 3, 6])
def test_non_finite_utterance_in_a_block_restores_last_good_epoch(poisoned):
    cfg = M.desk_config(epochs=1, batch_size=4)
    pairs = _desk_pairs(cfg, 10, 9)
    train_set, dev_set = pairs[:8], pairs[8:]
    first = M.train(cfg, train_set, dev_set)
    assert not first.diverged
    good = M.encode_checkpoint(first.last_model)

    seq, labels = train_set[poisoned]
    values = seq.values.copy()
    values[0, 0] = np.nan  # bypasses the file-level finiteness check
    bad = FeatureSequence(seq.sample_id, seq.dim, seq.num_frames, seq.values,
                          seq.true_frames)
    bad.values = values
    poisoned_set = list(train_set)
    poisoned_set[poisoned] = (bad, labels)

    result = M.train(M.desk_config(epochs=2, batch_size=4), poisoned_set,
                     dev_set, init_model=M.decode_checkpoint(good))
    assert result.diverged
    assert not result.records
    restored = result.last_model
    restored.config = cfg  # the resumed run's config differs in epochs only
    assert M.encode_checkpoint(restored) == good
