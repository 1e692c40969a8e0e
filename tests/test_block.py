"""The block core: B padded utterances computed as one (B, C, T) array.

Scores must not depend on which utterances share a block, a block's
loss and gradients must equal the sum of its utterances' B = 1 calls,
and the Gram-matrix ESM must equal the pair-scan oracles exactly.
"""

import concurrent.futures
import dataclasses
import os
import threading
import weakref
from collections import Counter
from concurrent.futures import ThreadPoolExecutor

import numpy as np
import pytest

from tdl import esm
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
from tdl.esm import EsmConfig
from tdl.errors import ValidationError
from tdl.nn import l2_normalize_forward

from oracles import esm_reference, pooled_reference

MIXED_TRUE_FRAMES = (64, 40, 17, 64, 33, 1, 58, 25)


def _padded(cfg, rng, true_frames, sample_id="x"):
    values = rng.standard_normal((cfg.feat_dim, cfg.t_max)).astype(np.float32)
    values[:, true_frames:] = 0.0
    return FeatureSequence(sample_id, values, true_frames)


def _desk_pairs(cfg, num, seed):
    """``num`` desk utterances, unpadded as synthesized, with their labels."""
    feats, anns = synth_dataset(desk_benchmark_spec(num_utterances=num), seed)
    return list(zip(feats, compile_labels(anns, cfg.label_resolution_s,
                                          cfg.label_len, cfg.label_setting)))


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
    xv, true_frames, _ = M._stack_block(cfg, [(seq, None) for seq in seqs])
    assert xv.shape == (8, cfg.feat_dim, cfg.t_max)
    block = M._forward_block(mdl, xv, true_frames)["scores"]
    reordered = M._forward_block(mdl, xv[::-1].copy(), true_frames[::-1])["scores"]
    for b, seq in enumerate(seqs):
        alone = M.predict(mdl, seq, cfg.label_len)
        assert np.array_equal(alone, block[b]), f"utterance {b}"
        assert np.array_equal(alone, reordered[len(seqs) - 1 - b]), f"utterance {b}"


def _stacked_sizes(monkeypatch):
    """Score in one run, in this process; returns the list that gets the
    utterance count of each block it stacks."""
    monkeypatch.setattr(M, "_block_workers", lambda: 1)
    sizes, stack = [], M._stack_block
    monkeypatch.setattr(M, "_stack_block",
                        lambda cfg, pairs: sizes.append(len(pairs)) or stack(cfg, pairs))
    return sizes


def test_dev_eer_does_not_depend_on_the_block_size(monkeypatch):
    cfg = M.desk_config()
    pairs = _desk_pairs(cfg, 20, 3)
    mdl = M.build_model(cfg)
    sizes = _stacked_sizes(monkeypatch)
    default = M.dev_eer(mdl, pairs)
    assert len(sizes) == 2
    monkeypatch.setattr(M, "BLOCK_FRAMES", 3 * cfg.t_max)
    sizes.clear()
    assert M.dev_eer(mdl, pairs) == default
    assert sizes == [3] * 6 + [2]
    monkeypatch.setattr(M, "BLOCK_FRAMES", 1)  # never less than one utterance
    sizes.clear()
    assert M.dev_eer(mdl, pairs) == default
    assert len(sizes) == 20


def test_score_pool_pools_each_block_and_keeps_no_labels():
    cfg = M.desk_config()
    mdl = M.build_model(cfg)
    pairs = _desk_pairs(cfg, 37, 21)
    want_scores, want_labels = pooled_reference(
        [M.predict(mdl, seq, lab.true_labels) for seq, lab in pairs],
        [lab for _, lab in pairs])
    refs, alive, sliced = [], [], []

    class Fresh:  # fresh labels, so that only score_pool can keep them
        def __len__(self):
            return len(pairs)

        def __getitem__(self, index):
            out = []
            for seq, lab in pairs[index]:
                alive.append(sum(ref() is not None for ref in refs))
                lab = dataclasses.replace(lab)
                refs.append(weakref.ref(lab))
                out.append((seq, lab))
            sliced.append(len(out))
            return out

    pool = M.score_pool(mdl, Fresh())
    assert sliced == [16, 16, 5]
    # the labels of a scored block are gone before the next block is read
    assert max(alive) == 15
    assert pool.scores.tobytes() == want_scores.tobytes()
    assert pool.labels.tobytes() == want_labels.tobytes()
    assert pool.num_utterances == 37


def test_score_pool_of_no_utterances_says_so():
    mdl = M.build_model(M.desk_config())
    with pytest.raises(ValidationError) as info:
        M.score_pool(mdl, [])
    assert str(info.value) == "no utterances to score"


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
    block_loss, block_grads = M._loss_block(mdl, *M._stack_block(cfg, pairs),
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


def test_esm_terms_do_not_depend_on_the_label_encoding():
    # real1_fake0 and real0_fake1 encode the same annotations; the real
    # frames must be the ESM's real class under both
    losses = []
    for setting in (REAL1_FAKE0, REAL0_FAKE1):
        cfg = M.desk_config(seed=3, label_setting=setting)
        block = M._stack_block(cfg, _desk_pairs(cfg, 8, 5))
        losses.append(M._loss_block(M.build_model(cfg), *block)[0].esm)
    assert losses[0].l_real != losses[0].l_fake
    assert losses[0] == losses[1]


def test_training_block_skips_the_input_gradient():
    cfg = M.desk_config()
    pairs = _desk_pairs(cfg, 4, 6)
    mdl = M.build_model(cfg)
    _, grads = M._loss_block(mdl, *M._stack_block(cfg, pairs))
    assert set(grads) == set(mdl.param_items())


# ---------------------------------------------------------------------------
# one-utterance blocks run on their live columns
# ---------------------------------------------------------------------------

LIVE_CFG = M.TdlConfig(feat_dim=6, t_max=600, embed_dim=4, conv_hidden=6,
                       label_len=16, esm=EsmConfig(tau_same=0.99, tau_diff=-0.5),
                       seed=2)


@pytest.mark.parametrize("true_frames", [600, 599, 437, 1])
def test_live_columns_match_the_full_width_path(true_frames, monkeypatch):
    cfg = LIVE_CFG  # t_max > BLOCK_FRAMES / 2: one utterance per block
    rng = np.random.default_rng(true_frames)
    seq = _padded(cfg, rng, true_frames)
    bits = (rng.random(cfg.label_len) < 0.5).astype(np.int8)
    true_labels = -(-true_frames * cfg.label_len // cfg.t_max)
    bits[true_labels:] = 0
    labels = FrameLabels("x", cfg.label_resolution_s, bits, true_labels,
                         REAL1_FAKE0)
    mdl = M.build_model(cfg)
    width = min(cfg.t_max, true_frames + 2)  # kernel 3: a halo of 2
    assert M._live_width(cfg, [true_frames]) == width

    def run():
        return (M.total_loss(mdl, seq, labels),
                M.score_pool(mdl, [(seq, labels)]).scores, M.forward(mdl, seq))

    (loss, grads), scores, (_, e, a) = run()
    monkeypatch.setattr(M, "BLOCK_FRAMES", 2 * cfg.t_max)  # full width
    assert M._live_width(cfg, [true_frames]) == cfg.t_max
    (want_loss, want_grads), want_scores, (_, want_e, want_a) = run()

    assert _rel(loss.total, want_loss.total) <= 1e-12
    assert _rel(scores, want_scores) <= 1e-12
    assert set(grads) == set(want_grads) == set(mdl.param_items()) | {"input"}
    for key, want in want_grads.items():
        assert grads[key].shape == want.shape
        assert _rel(grads[key], want) <= 1e-12, key
    # forward keeps its shapes; the cut columns read 0
    assert e.shape == want_e.shape and a.shape == want_a.shape
    assert not e[:, width:].any() and not a[:, width:].any()
    assert _rel(e[:, :true_frames], want_e[:, :true_frames]) <= 1e-12
    assert _rel(a, want_a) <= 1e-12


# ---------------------------------------------------------------------------
# padded and unpadded features are one input
# ---------------------------------------------------------------------------


@pytest.mark.parametrize("block_frames", [M.BLOCK_FRAMES, 1])
def test_padded_and_unpadded_features_give_the_same_bytes(block_frames, monkeypatch):
    cfg = M.desk_config()
    mdl = M.build_model(cfg)
    unpadded = _desk_pairs(cfg, 20, 5)
    padded = [(FeatureSequence(seq.sample_id, np.pad(
                   seq.values, ((0, 0), (0, cfg.t_max - seq.num_frames))),
                   seq.true_frames),
               lab) for seq, lab in unpadded]
    assert all(seq.num_frames == seq.true_frames for seq, _ in unpadded)
    assert len({seq.true_frames for seq, _ in unpadded}) > 1
    # the default scores mixed blocks at full width, and 1 one-utterance
    # blocks on their live columns
    monkeypatch.setattr(M, "BLOCK_FRAMES", block_frames)
    assert M._live_width(cfg, [1]) == (cfg.t_max if block_frames > 1 else 3)
    size = M._block_size(cfg)
    for lo in range(0, len(unpadded), size):  # true frames, then zeros
        block = unpadded[lo:lo + size]
        xv, true_frames, _ = M._stack_block(cfg, block)
        for row, (seq, _) in zip(xv, block):
            assert row[:, :seq.true_frames].tobytes() == seq.values.astype(float).tobytes()
            assert not row[:, seq.true_frames:].any()

    want, got = M.score_pool(mdl, padded), M.score_pool(mdl, unpadded)
    assert got.scores.tobytes() == want.scores.tobytes()
    assert got.labels.tobytes() == want.labels.tobytes()
    for (seq, lab), (short, _) in zip(padded, unpadded):
        assert (M.predict(mdl, short, lab.true_labels).tobytes()
                == M.predict(mdl, seq, lab.true_labels).tobytes())
        (loss, grads), (want_loss, want_grads) = (M.total_loss(mdl, short, lab),
                                                  M.total_loss(mdl, seq, lab))
        assert loss == want_loss
        assert set(grads) == set(want_grads)
        for key, value in want_grads.items():
            assert grads[key].shape == value.shape, key
            assert grads[key].tobytes() == value.tobytes(), key


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
            single, _ = esm.esm_loss_from_arrays(values[b:b + 1], classes[b:b + 1], cfg)
            mismatches += (single.l_real, single.l_fake, single.l_diff) != ref
    assert mismatches == 0


def test_esm_gradient_of_a_block_stacks_single_gradients():
    rng = np.random.default_rng(24)
    values, classes = _random_block(rng, 5, 6, 30)
    raw = values * rng.uniform(0.5, 2.0, size=(5, 1, 30))  # not unit norm
    cfg = EsmConfig(tau_same=0.95, tau_diff=-0.2)
    total, grad = esm.esm_loss_from_arrays(raw, classes, cfg)
    singles = [esm.esm_loss_from_arrays(raw[b:b + 1], classes[b:b + 1], cfg)
               for b in range(5)]
    for b, (_, g) in enumerate(singles):
        assert np.array_equal(grad[b:b + 1], g)
    assert _rel(total.total, sum(s.total for s, _ in singles)) <= 1e-12


# ---------------------------------------------------------------------------
# one-utterance blocks on a thread pool
# ---------------------------------------------------------------------------


def _workers(monkeypatch, cores):
    """``cores`` usable cores at one BLAS thread a call; returns the list
    of pool sizes each ThreadPoolExecutor the model builds is given."""
    monkeypatch.setattr(os, "sched_getaffinity", lambda pid: set(range(cores)),
                        raising=False)
    monkeypatch.setenv("OPENBLAS_NUM_THREADS", "1")
    built = []
    monkeypatch.setattr(concurrent.futures, "ThreadPoolExecutor",
                        lambda workers: built.append(workers) or ThreadPoolExecutor(workers))
    return built


def _records(result):
    return [{k: v for k, v in record.to_dict().items() if k != "wall_time_s"}
            for record in result.records]


@pytest.mark.parametrize("per_block", [1, 2])
def test_pooled_training_is_bit_identical_to_one_worker(per_block, monkeypatch):
    cfg = M.desk_config(epochs=2, batch_size=5)
    pairs = _desk_pairs(cfg, 14, 11)
    monkeypatch.setattr(M, "BLOCK_FRAMES", per_block * cfg.t_max)
    runs, pools = [], []
    for cores in (1, 2, 3):
        pools.append(_workers(monkeypatch, cores))
        runs.append(M.train(cfg, pairs[:11], pairs[11:]))
    # minibatches of 5, 5 and 1 utterances: the last is one block, never pooled
    assert pools == [[], [2] * 4, [3] * 4]
    for result in runs[1:]:
        assert result.best_checkpoint == runs[0].best_checkpoint
        assert _records(result) == _records(runs[0])


def test_pooled_rows_submit_their_weight_gradients_as_pool_tasks(monkeypatch):
    _workers(monkeypatch, 2)
    submitted = []

    class Recording(ThreadPoolExecutor):
        def submit(self, fn, *args, **kwargs):
            submitted.append((fn, args))
            return super().submit(fn, *args, **kwargs)

    monkeypatch.setattr(concurrent.futures, "ThreadPoolExecutor", Recording)
    cfg = M.desk_config(batch_size=3)
    monkeypatch.setattr(M, "BLOCK_FRAMES", cfg.t_max)  # one utterance per block
    model = M.build_model(cfg)
    M._minibatch_step(model, _desk_pairs(cfg, 3, 13), 0)
    # three blocks and one task per layer row of each block: the row's OPS
    # params, whose first argument is the row's layer
    params = {entry[2] for entry in M.OPS.values() if len(entry) == 4}
    weight_tasks = [args for fn, args in submitted if fn in params]
    assert len(submitted) - len(weight_tasks) == 3
    names = {id(layer): name for name, layer in model.layers.items()}
    rows = Counter(names[id(args[0])] for args in weight_tasks)
    assert rows == {name: 3 for name in M.LAYERS}


def test_at_most_workers_plus_one_blocks_are_unfinished(monkeypatch):
    main, lock, local = threading.current_thread(), threading.Lock(), threading.local()
    events, tasks = [], []  # tasks[i]: block i's own task and weight tasks not yet done
    widths = []  # unfinished blocks as each task is submitted

    class Recording(ThreadPoolExecutor):
        def submit(self, fn, *args, **kwargs):
            with lock:
                if threading.current_thread() is main:
                    events.append("block")
                    block = len(tasks)
                    tasks.append(0)
                else:  # a weight task of the block this worker runs
                    events.append("weights")
                    block = local.block
                tasks[block] += 1
                widths.append(sum(map(bool, tasks)))

            def task():
                local.block = block
                try:
                    return fn(*args, **kwargs)
                finally:
                    with lock:
                        tasks[block] -= 1

            future = super().submit(task)
            result = future.result

            def waited(*args):
                if threading.current_thread() is main:
                    events.append("wait")
                return result(*args)

            future.result = waited
            return future

    cfg = M.desk_config(batch_size=7)
    monkeypatch.setattr(M, "BLOCK_FRAMES", cfg.t_max)  # one utterance per block
    pairs = _desk_pairs(cfg, 7, 13)
    _workers(monkeypatch, 1)
    alone = M.build_model(cfg)
    M._minibatch_step(alone, pairs, 0)
    _workers(monkeypatch, 2)
    monkeypatch.setattr(concurrent.futures, "ThreadPoolExecutor", Recording)
    model = M.build_model(cfg)
    M._minibatch_step(model, pairs, 0)
    assert events.count("block") == 7
    assert max(widths) <= 3  # workers + 1
    assert events[:events.index("wait")].count("block") == 3
    assert events.count("weights") == 7 * len(M.LAYERS)
    assert model.flat.tobytes() == alone.flat.tobytes()


def test_desk_minibatches_never_build_a_pool(monkeypatch):
    _workers(monkeypatch, 4)

    def refuse(workers):
        raise AssertionError("a desk-scale minibatch built a thread pool")

    monkeypatch.setattr(concurrent.futures, "ThreadPoolExecutor", refuse)
    cfg = M.desk_config(epochs=1, batch_size=8)  # 8 utterances of 64 frames: one block
    pairs = _desk_pairs(cfg, 50, 12)
    assert len(M.train(cfg, pairs[:40], pairs[40:]).records) == 1


def test_default_blas_threads_keep_blocks_sequential(monkeypatch):
    _workers(monkeypatch, 4)
    monkeypatch.delenv("OPENBLAS_NUM_THREADS")
    monkeypatch.delenv("OMP_NUM_THREADS", raising=False)
    assert M._block_workers() == 1  # BLAS already takes every core
    monkeypatch.setenv("OMP_NUM_THREADS", "2")
    assert M._block_workers() == 2
    monkeypatch.setenv("OPENBLAS_NUM_THREADS", "1")  # read before OMP's
    assert M._block_workers() == 4
    # a digit outside ASCII counts as unset, so OMP's is read
    monkeypatch.setenv("OPENBLAS_NUM_THREADS", "²")
    assert M._block_workers() == 2
    monkeypatch.delenv("OMP_NUM_THREADS")
    assert M._block_workers() == 1
    monkeypatch.setenv("OPENBLAS_NUM_THREADS", "9" * 5000)  # past int()'s digit limit
    assert M._block_workers() == 1


# ---------------------------------------------------------------------------
# runs of blocks in forked processes
# ---------------------------------------------------------------------------


_FORK = os.fork


def _forks(monkeypatch):
    """The list that gets the pid of each child os.fork starts from now on."""
    forked = []

    def recording_fork():
        pid = _FORK()
        if pid:
            forked.append(pid)
        return pid

    monkeypatch.setattr(os, "fork", recording_fork)
    return forked


def _no_child_left():
    with pytest.raises(ChildProcessError):
        os.waitpid(-1, os.WNOHANG)


@pytest.mark.parametrize("utterances", [1, 2, 3, 5, 8, 9])
def test_score_pool_runs_equal_one_run(utterances, monkeypatch):
    cfg = M.desk_config()
    mdl = M.build_model(cfg)
    pairs = _desk_pairs(cfg, utterances, 17)
    monkeypatch.setattr(M, "BLOCK_FRAMES", 2 * cfg.t_max)  # two utterances a block
    monkeypatch.setattr(M, "RUN_MIN_BLOCKS", 1)
    blocks = -(-utterances // 2)
    _workers(monkeypatch, 1)
    want = M.score_pool(mdl, pairs)
    for workers in (1, 2, 3, 4):
        _workers(monkeypatch, workers)
        forked = _forks(monkeypatch)
        pool = M.score_pool(mdl, pairs)
        assert len(forked) == min(workers, blocks) - 1, workers
        assert pool.scores.tobytes() == want.scores.tobytes()
        assert pool.labels.tobytes() == want.labels.tobytes()
        assert pool.num_utterances == utterances
        _no_child_left()


def test_training_with_a_forked_dev_eer_is_bit_identical(monkeypatch):
    cfg = M.desk_config(epochs=2, batch_size=8)
    pairs = _desk_pairs(cfg, 144, 19)
    train_set, dev_set = pairs[:16], pairs[16:]  # a dev set of 8 blocks
    assert -(-len(dev_set) // M._block_size(cfg)) == 2 * M.RUN_MIN_BLOCKS
    runs, forks = [], []
    for cores in (1, 2):
        _workers(monkeypatch, cores)
        forks.append(_forks(monkeypatch))
        runs.append(M.train(cfg, train_set, dev_set))
    assert [len(forked) for forked in forks] == [0, cfg.epochs]
    assert runs[1].best_checkpoint == runs[0].best_checkpoint
    assert _records(runs[1]) == _records(runs[0])
    _no_child_left()


# ---------------------------------------------------------------------------
# divergence inside a block
# ---------------------------------------------------------------------------


@pytest.mark.parametrize("poisoned,pooled", [
    pytest.param(poisoned, pooled, id=f"{poisoned}-pooled" if pooled else str(poisoned))
    for pooled in (False, True) for poisoned in (0, 3, 6)])
def test_non_finite_utterance_in_a_block_restores_last_good_epoch(
        poisoned, pooled, monkeypatch):
    if pooled:  # one utterance per block, two workers
        monkeypatch.setattr(M, "BLOCK_FRAMES", 1)
        pools = _workers(monkeypatch, 2)
    threads = set(threading.enumerate())
    cfg = M.desk_config(epochs=1, batch_size=4)
    pairs = _desk_pairs(cfg, 10, 9)
    train_set, dev_set = pairs[:8], pairs[8:]
    first = M.train(cfg, train_set, dev_set)
    assert not first.diverged
    good = M.encode_checkpoint(first.last_model)

    seq, labels = train_set[poisoned]
    values = seq.values.copy()
    values[0, 0] = np.nan  # bypasses the file-level finiteness check
    bad = FeatureSequence(seq.sample_id, seq.values, seq.true_frames)
    bad.values = values
    poisoned_set = list(train_set)
    poisoned_set[poisoned] = (bad, labels)

    stacked, stack = [], M._stack_block
    monkeypatch.setattr(M, "_stack_block", lambda config, pairs: stacked.extend(
        seq.sample_id for seq, _ in pairs) or stack(config, pairs))
    result = M.train(M.desk_config(epochs=2, batch_size=4), poisoned_set,
                     dev_set, init_model=M.decode_checkpoint(good))
    # epoch 1's order: the poisoned block's window is itself and, pooled,
    # the two blocks after it in its minibatch; one block holds it unpooled
    order = list(np.random.default_rng([cfg.seed, M._STREAM_BATCH, 1]).permutation(8))
    at = order.index(poisoned)
    end = min(at + 3, at // 4 * 4 + 4) if pooled else at // 4 * 4 + 4
    allowed = {train_set[i][0].sample_id for i in order[:end]}
    assert train_set[poisoned][0].sample_id in stacked
    assert set(stacked) <= allowed, set(stacked) - allowed
    assert result.diverged
    assert not result.records
    restored = result.last_model
    assert restored.config.epochs == 2  # the run's config, not the checkpoint's
    assert result.best_checkpoint == M.encode_checkpoint(restored)
    restored.config = cfg  # the resumed run's config differs in epochs only
    assert M.encode_checkpoint(restored) == good
    if pooled:  # the worker's NumericError ended its pool, threads and all
        assert pools and set(threading.enumerate()) == threads
