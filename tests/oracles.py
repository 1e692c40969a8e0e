"""Independent reference implementations used as test oracles.

Everything here is written as plain loops straight from the defining
formulas, with no code shared with the package. Cosines accumulate
channel terms sequentially (left to right), which matches how numpy
reduces over the channel axis, so pair-scan comparisons can be exact.
"""

import numpy as np

from tdl.data import Segment, SegmentAnnotation


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


def neighbor_similarity_reference(values, classes, k, rectify=True):
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
            s = cosine_reference(values, t, n)
            a[i, t] = max(s, 0.0) if rectify else s
    return a


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


def esm_sampled_reference(values, classes, tau_same, tau_diff, budget, seed):
    """Hinge components over seeded pair samples, scanned pair by pair.

    Pairs are numbered lexicographically: (i, j) with i < j within a
    class, (r, f) over real x fake. A term with more pairs than ``budget``
    keeps a sorted sample of ``budget`` pair numbers drawn without
    replacement from one generator seeded with ``seed``, drawn for the
    real, fake and cross terms in that order.
    """
    rng = np.random.default_rng(seed)
    t_len = values.shape[1]
    real = [t for t in range(t_len) if classes[t] == 1]
    fake = [t for t in range(t_len) if classes[t] == 0]

    def sample(pairs):
        if len(pairs) > budget:
            keep = np.sort(rng.choice(len(pairs), size=budget, replace=False))
            return [pairs[k] for k in keep]
        return pairs

    def same_pairs(idx):
        return [(idx[i], idx[j]) for i in range(len(idx))
                for j in range(i + 1, len(idx))]

    real_pairs = sample(same_pairs(real))
    fake_pairs = sample(same_pairs(fake))
    cross_pairs = sample([(r, f) for r in real for f in fake])

    def same_loss(pairs):
        worst = 0.0
        for x, y in pairs:
            worst = max(worst, max(0.0, tau_same - cosine_reference(values, x, y)))
        return worst

    l_diff = 0.0
    for r, f in cross_pairs:
        l_diff = max(l_diff, max(0.0, cosine_reference(values, r, f) - tau_diff))
    return same_loss(real_pairs), same_loss(fake_pairs), l_diff
