"""Independent reference implementations used as test oracles.

Everything here is written as plain loops straight from the defining
formulas, with no code shared with the package. Cosines accumulate
channel terms sequentially (left to right), which matches how numpy
reduces over the channel axis, so pair-scan comparisons can be exact.
``synth_reference`` is the synthetic corpus generator as first written;
being in the tests rather than a pinned digest, it stays valid under a
numpy whose Generator streams differ.
"""

import numpy as np

from tdl.data import FeatureSequence, Segment, SegmentAnnotation


def conv1d_reference(weights, bias, x):
    """Direct triple-loop same-padding convolution."""
    k, cin, cout = weights.shape
    t_len = x.shape[1]
    half = k // 2
    out = np.zeros((cout, t_len))
    for m in range(cout):
        for t in range(t_len):
            acc = float(bias[m])
            for i in range(k):
                src = t - half + i
                if 0 <= src < t_len:
                    for c in range(cin):
                        acc += float(weights[i, c, m]) * float(x[c, src])
            out[m, t] = acc
    return out


def padded_taps_reference(x, k):
    """(..., k, C, T) tap array as the k windows of one fresh zero-padded
    float64 copy of x (..., C, T): tap i holds frame t - k//2 + i."""
    half, t_len = k // 2, x.shape[-1]
    xp = np.zeros(x.shape[:-1] + (t_len + 2 * half,))
    xp[..., half:half + t_len] = x
    return np.stack([xp[..., i:i + t_len] for i in range(k)], axis=-3)


def tconv_reference(weights, bias, x, a):
    """Direct evaluation of the modulated convolution: each input column
    is scaled by a[i, t] before the kernel tap is applied."""
    k, cin, cout = weights.shape
    t_len = x.shape[1]
    half = k // 2
    out = np.zeros((cout, t_len))
    for m in range(cout):
        for t in range(t_len):
            acc = float(bias[m])
            for i in range(k):
                src = t - half + i
                if 0 <= src < t_len:
                    for c in range(cin):
                        acc += float(weights[i, c, m]) * float(x[c, src]) * float(a[i, t])
            out[m, t] = acc
    return out


def cosine_reference(values, x, y):
    """Cosine of columns x and y with sequential channel accumulation."""
    d = values.shape[0]
    sx = 0.0
    sy = 0.0
    for c in range(d):
        sx += float(values[c, x]) * float(values[c, x])
        sy += float(values[c, y]) * float(values[c, y])
    nx = max(np.sqrt(sx), 1e-12)
    ny = max(np.sqrt(sy), 1e-12)
    s = 0.0
    for c in range(d):
        s += (float(values[c, x]) / nx) * (float(values[c, y]) / ny)
    return min(1.0, max(-1.0, s))


def esm_reference(values, classes, tau_same, tau_diff):
    """O(T^2) pair scans for the three hinge components."""
    t_len = values.shape[1]
    real = [t for t in range(t_len) if classes[t] == 1]
    fake = [t for t in range(t_len) if classes[t] == 0]

    def same_loss(idx):
        worst = 0.0
        for i in range(len(idx)):
            for j in range(i + 1, len(idx)):
                worst = max(worst, max(0.0, tau_same - cosine_reference(values, idx[i], idx[j])))
        return worst

    l_real = same_loss(real)
    l_fake = same_loss(fake)
    l_diff = 0.0
    for r in real:
        for f in fake:
            l_diff = max(l_diff, max(0.0, cosine_reference(values, r, f) - tau_diff))
    return l_real, l_fake, l_diff


def neighbor_similarity_reference(values, classes, k):
    """Per-cell cosine computation for the similarity matrix."""
    t_len = values.shape[1]
    half = k // 2
    a = np.zeros((k, t_len))
    for t in range(t_len):
        if classes[t] == -1:
            continue
        for i in range(k):
            n = t - half + i
            if not 0 <= n < t_len or classes[n] == -1:
                continue
            if n == t:
                a[i, t] = 1.0
                continue
            a[i, t] = max(cosine_reference(values, t, n), 0.0)
    return a


def neighbor_similarity_backward_reference(values, classes, k, grad_a):
    """Per-cell cosine adjoint of the similarity matrix: a positive cell
    a[i, t] = cos(u, v) of frame t's column u and neighbor n's column v
    adds grad_a[i, t] * (v_hat - cos * u_hat) / |u| to column t and
    grad_a[i, t] * (u_hat - cos * v_hat) / |v| to column n."""
    d, t_len = values.shape
    half = k // 2
    grad = np.zeros((d, t_len))
    a = neighbor_similarity_reference(values, classes, k)

    def norm(x):
        sq = 0.0
        for c in range(d):
            sq += float(values[c, x]) * float(values[c, x])
        return max(np.sqrt(sq), 1e-12)

    for t in range(t_len):
        for i in range(k):
            n = t - half + i
            if n == t or not 0 <= n < t_len or a[i, t] <= 0.0:
                continue
            s, nt, nn = a[i, t], norm(t), norm(n)
            for c in range(d):
                ut, vn = float(values[c, t]) / nt, float(values[c, n]) / nn
                grad[c, t] += grad_a[i, t] * (vn - s * ut) / nt
                grad[c, n] += grad_a[i, t] * (ut - s * vn) / nn
    return grad


def eer_reference(scores, labels):
    """Exhaustive threshold sweep with linear interpolation at the
    FAR/FRR crossing. Returns (eer_pct, threshold)."""
    scores = [float(s) for s in scores]
    labels = [int(y) for y in labels]
    real = [s for s, y in zip(scores, labels) if y == 1]
    fake = [s for s, y in zip(scores, labels) if y == 0]
    cands = sorted(set(scores))
    cands.append(cands[-1] + 1.0)
    prev = None
    for th in cands:
        far = sum(1 for s in fake if s >= th) / len(fake)
        frr = sum(1 for s in real if s < th) / len(real)
        d = far - frr
        if d == 0.0:
            return 100.0 * far, th
        if d < 0.0:
            th0, far0, frr0, d0 = prev
            frac = d0 / (d0 - d)
            return (100.0 * (far0 + frac * (far - far0)),
                    th0 + frac * (th - th0))
        prev = (th, far, frr, d)
    raise AssertionError("no FAR/FRR crossing found")


def confusion_reference(scores, labels, threshold):
    tp = tn = fp = fn = 0
    for s, y in zip(scores, labels):
        pred = s >= threshold
        if pred and y == 1:
            tp += 1
        elif pred and y == 0:
            fp += 1
        elif not pred and y == 1:
            fn += 1
        else:
            tn += 1
    return tp, tn, fp, fn


def pooled_reference(scores_list, labels_list):
    """(scores, labels) as float64 and int8 arrays: the first true_labels
    scores and labels of each utterance, utterance after utterance."""
    scores, labels = [], []
    for utt_scores, lab in zip(scores_list, labels_list):
        for t in range(lab.true_labels):
            scores.append(float(utt_scores[t]))
            labels.append(int(lab.labels[t]))
    return np.array(scores, dtype=np.float64), np.array(labels, dtype=np.int8)


def majority_labels_ms(ann, resolution_s):
    """1 ms occupancy counter: frame label = class of the majority of
    its millisecond cells, ties to fake. Assumes ms-aligned segments."""
    dur_ms = int(round(ann.duration_s * 1000))
    res_ms = int(round(resolution_s * 1000))
    cell_label = np.zeros(dur_ms, dtype=np.int8)
    for seg in ann.segments:
        lo = int(round(seg.start_s * 1000))
        hi = int(round(seg.end_s * 1000))
        cell_label[lo:hi] = 1 if seg.label == "real" else 0
    n_frames = (dur_ms + res_ms - 1) // res_ms
    out = np.zeros(n_frames, dtype=np.int8)
    for j in range(n_frames):
        cells = cell_label[j * res_ms:(j + 1) * res_ms]
        real_ms = int(cells.sum())
        fake_ms = cells.size - real_ms
        out[j] = 1 if real_ms > fake_ms else 0
    return out


def random_ms_annotation(rng, sample_id="rnd", max_ms=4000):
    """Random ms-aligned annotation: 1..8 segments with random labels."""
    dur_ms = int(rng.integers(200, max_ms + 1))
    n_cuts = int(rng.integers(0, 8))
    cuts = sorted(set(rng.integers(1, dur_ms, size=n_cuts).tolist()))
    bounds = [0] + cuts + [dur_ms]
    segs = []
    for lo, hi in zip(bounds[:-1], bounds[1:]):
        label = "real" if rng.random() < 0.5 else "fake"
        segs.append(Segment(lo / 1000.0, hi / 1000.0, label))
    return SegmentAnnotation(sample_id, dur_ms / 1000.0, segs)


def esm_worst_pairs_reference(values, classes):
    """The pair each hinge term picks, by a lexicographic brute-force scan:
    the first (similarity, x, y) minimum over real-real and over fake-fake
    pairs x < y, and the first (-similarity, x, y) minimum over cross
    pairs (real x, fake y), each similarity from cosine_reference. Returns
    three (similarity, x, y) tuples, None for a term without pairs."""
    t_len = values.shape[1]
    real = [t for t in range(t_len) if classes[t] == 1]
    fake = [t for t in range(t_len) if classes[t] == 0]

    def first(pairs, sign):
        best = None
        for x, y in pairs:
            s = cosine_reference(values, x, y)
            if best is None or (sign * s, x, y) < (sign * best[0], best[1], best[2]):
                best = (s, x, y)
        return best

    return (first([(x, y) for x in real for y in real if x < y], 1.0),
            first([(x, y) for x in fake for y in fake if x < y], 1.0),
            first([(x, y) for x in real for y in fake], -1.0))


def adam_reference(config, step, epoch, theta, grad, m, v):
    """Adam's update number ``step`` of whole arrays theta, m and v, in
    place from grad, one expression per line."""
    g = grad + config.weight_decay * theta
    m *= config.beta1
    m += (1.0 - config.beta1) * g
    v *= config.beta2
    v += (1.0 - config.beta2) * (g * g)
    theta -= (config.lr_for_epoch(epoch) * (m / (1.0 - config.beta1 ** step))
              / (np.sqrt(v / (1.0 - config.beta2 ** step)) + config.eps))


def synth_reference(spec, rng_seed):
    """The (features, annotations) of a SynthSpec as first written, with
    its two helpers below: numpy scalars and arrays for every draw and
    time, each spec constant computed again per utterance, and the fake
    frames found by comparing every frame center with every fake segment.
    Each utterance draws from its own child of SeedSequence(rng_seed)."""
    root = np.random.SeedSequence(rng_seed)
    features, annotations = [], []
    for i, child in enumerate(root.spawn(spec.num_utterances)):
        rng = np.random.default_rng(child)
        sample_id = f"{spec.sample_prefix}{i:05d}"
        ann = _synth_annotation_reference(spec, rng, sample_id)
        features.append(_synth_features_reference(spec, rng, ann))
        annotations.append(ann)
    return features, annotations


_MIN_SEG_MS_REFERENCE = 10  # shortest fake segment / interior real gap


def _synth_annotation_reference(spec, rng, sample_id):
    lo_ms = int(round(spec.duration_range_s[0] * 1000))
    hi_ms = int(round(spec.duration_range_s[1] * 1000))
    dur_ms = int(rng.integers(lo_ms, hi_ms + 1))

    cmin, cmax = spec.fake_segment_count_range
    n = int(rng.integers(cmin, cmax + 1))
    if rng.random() >= spec.spoof_probability:
        n = 0
    min_ms = _MIN_SEG_MS_REFERENCE
    n = min(n, max(1, (dur_ms + min_ms) // (2 * min_ms)))

    if n == 0:
        segs = [Segment(0.0, dur_ms / 1000.0, "real")]
        return SegmentAnnotation(sample_id, dur_ms / 1000.0, segs)

    frac = rng.uniform(*spec.fake_fraction_range)
    fake_ms = int(round(frac * dur_ms))
    fake_ms = max(fake_ms, n * min_ms)
    fake_ms = min(fake_ms, dur_ms - (n - 1) * min_ms)

    seg_ms = min_ms + rng.multinomial(fake_ms - n * min_ms, np.full(n, 1.0 / n))
    real_ms = dur_ms - fake_ms
    gap_extra = rng.multinomial(
        real_ms - (n - 1) * min_ms, np.full(n + 1, 1.0 / (n + 1)))
    gaps = gap_extra.copy()
    gaps[1:n] += min_ms

    segs = []
    pos = 0
    for j in range(n):
        if gaps[j] > 0:
            segs.append(Segment(pos / 1000.0, (pos + gaps[j]) / 1000.0, "real"))
            pos += int(gaps[j])
        segs.append(Segment(pos / 1000.0, (pos + seg_ms[j]) / 1000.0, "fake"))
        pos += int(seg_ms[j])
    if gaps[n] > 0:
        segs.append(Segment(pos / 1000.0, (pos + gaps[n]) / 1000.0, "real"))
        pos += int(gaps[n])
    return SegmentAnnotation(sample_id, dur_ms / 1000.0, segs)


def _synth_features_reference(spec, rng, ann):
    frames = int(np.ceil(ann.duration_s * spec.frame_rate_hz - 1e-9))
    centers = (np.arange(frames) + 0.5) / spec.frame_rate_hz
    fake = np.zeros(frames, dtype=bool)
    for start, end in ann.fake_intervals():
        fake |= (centers >= start) & (centers < end)
    direction = np.full(spec.dim, 1.0 / np.sqrt(spec.dim))
    values = spec.noise_scale * rng.standard_normal((spec.dim, frames))
    values += spec.separation * direction[:, None] * fake[None, :]
    return FeatureSequence(ann.sample_id, values.astype(np.float32), frames)
