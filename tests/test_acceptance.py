"""Acceptance suite: every criterion at its stated tolerance.

Each test prints one PASS/FAIL line (run with ``pytest -s`` to see them
live). The end-to-end benchmark (criterion 5) trains two desk-scale
models and takes a few minutes of the ten allowed.
"""

import time

import numpy as np
import pytest

from tdl import esm, metrics, tconv
from tdl.data import (
    REAL1_FAKE0,
    Segment,
    SegmentAnnotation,
    compile_labels,
    dataset_stats,
    desk_benchmark_spec,
    synth_dataset,
)
from tdl.esm import EsmConfig
from tdl.metrics import compute_report, eer
from tdl.model import (
    GRADCHECK_CONFIGS,
    TdlConfig,
    _esm_classes,
    build_model,
    decode_checkpoint,
    desk_config,
    encode_checkpoint,
    gradcheck_battery,
    full_scale_config,
    param_count_table,
    predict,
    score_pool,
    train,
)
from tdl.nn import conv1d_forward, conv1d_init, l2_normalize_forward

from oracles import eer_reference, esm_reference, majority_labels_ms, random_ms_annotation


def check(criterion: int, ok: bool, detail: str):
    print(f"{'PASS' if ok else 'FAIL'} criterion {criterion}: {detail}")
    assert ok, f"criterion {criterion}: {detail}"


# ---------------------------------------------------------------------------
# 1. gradient integrity
# ---------------------------------------------------------------------------


def test_criterion_1_gradient_integrity():
    assert GRADCHECK_CONFIGS["tiny"] == dict(
        feat_dim=8, t_max=12, embed_dim=4, conv_hidden=8, label_len=4)
    start = time.perf_counter()
    report = gradcheck_battery("tiny", seed=0, tolerance=1e-4)
    elapsed = time.perf_counter() - start
    covered = {e.name.split(".")[0] for e in report.entries}
    assert {"conv1d", "fc", "relu", "sigmoid", "l2_normalize", "bce", "esm",
            "neighbor_similarity", "tconv", "model"} <= covered
    check(1, report.passed and report.max_rel_err < 1e-4 and elapsed < 60.0,
          f"max rel err {report.max_rel_err:.3e} < 1e-4 over "
          f"{sum(e.coords_checked for e in report.entries)} coords "
          f"in {elapsed:.1f}s")


# ---------------------------------------------------------------------------
# 2. modulation identity
# ---------------------------------------------------------------------------


def test_criterion_2_modulation_identity():
    rng = np.random.default_rng(2)
    worst = 0.0
    for _ in range(100):
        channels = int(rng.integers(1, 9))
        t_len = int(rng.integers(1, 33))
        k = int(rng.choice([1, 3, 5]))
        layer = conv1d_init(channels, channels, k, rng)
        x = rng.standard_normal((channels, t_len))
        ones = np.ones((k, t_len))
        diff = np.max(np.abs(tconv.tconv_forward(layer, x, ones)
                             - conv1d_forward(layer, x)))
        worst = max(worst, float(diff))
    check(2, worst <= 1e-12,
          f"100 instances, max |tconv(a=1) - conv| = {worst:.2e} <= 1e-12")


# ---------------------------------------------------------------------------
# 3. ESM oracle equivalence
# ---------------------------------------------------------------------------


def test_criterion_3_esm_brute_force_equivalence():
    rng = np.random.default_rng(3)
    cfg = EsmConfig(tau_same=0.9, tau_diff=0.0)
    mismatches = 0
    for i in range(200):
        t_len = int(rng.integers(2, 65))
        dim = int(rng.integers(2, 17))
        values = l2_normalize_forward(rng.standard_normal((dim, t_len)))
        classes = (rng.random(t_len) < 0.5).astype(np.int8)
        if t_len > 3 and rng.random() < 0.3:
            classes[-int(rng.integers(1, 3)):] = esm.PADDING
        ref = esm_reference(values, classes, cfg.tau_same, cfg.tau_diff)
        losses = esm.esm_loss_from_arrays(values[None], classes[None], cfg)[0]
        got = (losses.l_real, losses.l_fake, losses.l_diff)
        if got != ref:
            mismatches += 1
    check(3, mismatches == 0,
          f"200 random embeddings, {mismatches} brute-force mismatches "
          "(exact equality, every pair scanned)")


# ---------------------------------------------------------------------------
# 4. EER oracle equivalence
# ---------------------------------------------------------------------------


def test_criterion_4_eer_brute_force_equivalence():
    rng = np.random.default_rng(4)
    worst = 0.0
    for _ in range(200):
        n = int(rng.integers(4, 201))
        labels = np.zeros(n, dtype=np.int8)
        labels[: int(rng.integers(1, n))] = 1
        rng.shuffle(labels)
        scores = np.where(labels == 1, rng.beta(3, 2, n), rng.beta(2, 3, n))
        pool = metrics.EvalPool(scores, labels, 1)
        got, _ = eer(pool)
        want, _ = eer_reference(scores, labels)
        worst = max(worst, abs(got - want))

    separated_exact = True
    for _ in range(20):
        n_real = int(rng.integers(1, 30))
        n_fake = int(rng.integers(1, 30))
        scores = np.concatenate([rng.uniform(0.6, 1.0, n_real),
                                 rng.uniform(0.0, 0.4, n_fake)])
        labels = np.concatenate([np.ones(n_real, dtype=np.int8),
                                 np.zeros(n_fake, dtype=np.int8)])
        if eer(metrics.EvalPool(scores, labels, 1))[0] != 0.0:
            separated_exact = False
    check(4, worst < 1e-9 and separated_exact,
          f"200 random pools, max |eer - sweep| = {worst:.2e} < 1e-9; "
          "separated pools give exactly 0.0")


# ---------------------------------------------------------------------------
# 5. end-to-end synthetic benchmark
# ---------------------------------------------------------------------------


@pytest.fixture(scope="module")
def benchmark_runs():
    start = time.perf_counter()
    spec = desk_benchmark_spec(num_utterances=300)
    feats, anns = synth_dataset(spec, 7)
    results = {}
    for weight in (0.1, 0.0):
        config = desk_config(esm_weight=weight)
        assert (config.feat_dim, config.t_max, config.label_len,
                config.epochs, config.seed) == (16, 64, 16, 30, 7)
        assert spec.separation == 2.0
        pairs = list(zip(feats, compile_labels(anns, config.label_resolution_s,
                                               config.label_len,
                                               config.label_setting)))
        train_set, dev_set, test_set = pairs[:200], pairs[200:250], pairs[250:]
        result = train(config, train_set, dev_set)
        assert not result.diverged
        best = decode_checkpoint(result.best_checkpoint)
        results[weight] = compute_report(score_pool(best, test_set), threshold=0.5)
    results["elapsed"] = time.perf_counter() - start
    return results


def test_criterion_5_end_to_end_benchmark(benchmark_runs):
    full = benchmark_runs[0.1]
    ablated = benchmark_runs[0.0]
    elapsed = benchmark_runs["elapsed"]
    ok = (full["eer_pct"] < 5.0 and full["f1_pct"] > 90.0
          and full["eer_pct"] <= ablated["eer_pct"] + 1.0
          and elapsed < 600.0)
    check(5, ok,
          f"test EER {full['eer_pct']:.3f}% < 5, F1 {full['f1_pct']:.2f}% > 90; "
          f"with-similarity-loss EER {full['eer_pct']:.3f} <= "
          f"without {ablated['eer_pct']:.3f} + 1; both runs in {elapsed:.0f}s")


# ---------------------------------------------------------------------------
# 6. parameter count
# ---------------------------------------------------------------------------


def test_criterion_6_parameter_count():
    model = build_model(full_scale_config())
    rows, total = param_count_table(model)
    closed_form = (
        (3 * 1024 * 512 + 512)
        + (3 * 512 * 32 + 32)
        + 2 * (3 * 1024 * 1024 + 1024)
        + (1 * 1024 * 2 + 2)
        + (2 * 1050 * 132 + 132)
    )
    reference_total = 8_718_000  # design parameter budget for this stack
    rel = abs(total - reference_total) / reference_total
    print(f"     layer table: {rows}")
    print(f"     counted {total} vs budget {reference_total} "
          f"(residual {total - reference_total:+d}, {100 * rel:.2f}%)")
    check(6, total == closed_form and rel < 0.10,
          f"count {total} == closed form {closed_form}; "
          f"within 10% of {reference_total} ({100 * rel:.2f}%)")


# ---------------------------------------------------------------------------
# 7. label pipeline
# ---------------------------------------------------------------------------


def test_criterion_7_label_pipeline():
    rng = np.random.default_rng(7)
    mismatches = 0
    for i in range(500):
        ann = random_ms_annotation(rng, f"acc{i}")
        ref = majority_labels_ms(ann, 0.16)
        labels = compile_labels([ann], 0.16, ref.size + 2, REAL1_FAKE0)[0]
        if labels.true_labels != ref.size or \
                not np.array_equal(labels.labels[:ref.size], ref):
            mismatches += 1

    j = (np.arange(1050) * 132) // 1050
    align_ok = j[0] == 0 and j[1049] == 131 and np.all(np.diff(j) >= 0)
    config = TdlConfig(feat_dim=2, embed_dim=2, conv_hidden=2)  # t_max 1050, label_len 132
    classes = _esm_classes(config, np.ones((1, 132)), [132], np.ones((1, 1050), bool))
    align_ok = align_ok and classes.size == 1050 and np.all(classes == esm.REAL)
    check(7, mismatches == 0 and align_ok,
          f"500 annotations, {mismatches} mismatches vs 1 ms oracle; "
          "1050->132 alignment: j(0)=0, j(1049)=131, monotone")


# ---------------------------------------------------------------------------
# 8. determinism and persistence
# ---------------------------------------------------------------------------


def test_criterion_8_determinism_and_persistence():
    spec = desk_benchmark_spec(num_utterances=40)
    feats, anns = synth_dataset(spec, 8)
    config = desk_config(epochs=3, seed=11)
    pairs = list(zip(feats, compile_labels(anns, config.label_resolution_s,
                                           config.label_len, config.label_setting)))
    train_set, dev_set = pairs[:30], pairs[30:]
    blob_a = encode_checkpoint(train(config, train_set, dev_set).last_model)
    blob_b = encode_checkpoint(train(config, train_set, dev_set).last_model)
    identical = blob_a == blob_b

    model = decode_checkpoint(blob_a)
    x, labels = train_set[0]
    before = predict(model, x, labels.true_labels)
    after = predict(decode_checkpoint(encode_checkpoint(model)), x,
                    labels.true_labels)
    preserved = np.array_equal(before, after)
    check(8, identical and preserved,
          f"two seeded runs bit-identical ({len(blob_a)} byte checkpoints); "
          "round trip preserves predictions exactly")


# ---------------------------------------------------------------------------
# 9. exact corpus statistics
# ---------------------------------------------------------------------------


def test_criterion_9_exact_stats():
    # 10000 utterances of 100 frames; 8983 spoofed; 530000 fake frames
    res = 0.16
    frames = 100
    duration = frames * res
    anns = []
    fake_counts = [60] * 3 + [59] * 8980 + [0] * 1017
    assert sum(fake_counts) == 530_000 and len(fake_counts) == 10_000
    for i, k in enumerate(fake_counts):
        if k == 0:
            segs = [Segment(0.0, duration, "real")]
        else:
            segs = [Segment(0.0, k * res, "fake"),
                    Segment(k * res, duration, "real")]
        anns.append(SegmentAnnotation(f"c{i}", duration, segs))
    stats = dataset_stats(anns, res)
    check(9, stats.frame_fake_pct == 53.0 and stats.utterance_fake_pct == 89.83,
          f"frame {stats.frame_fake_pct}% == 53.00 exactly, "
          f"utterance {stats.utterance_fake_pct}% == 89.83 exactly "
          f"({stats.num_utterances} utterances, {stats.num_frames} frames)")
