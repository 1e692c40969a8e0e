"""Similarity-modulated temporal convolution.

Each input column is scaled by its cosine similarity to the current
frame's embedding before the kernel is applied: neighbors that look
like the frame contribute fully, dissimilar or out-of-range neighbors
are suppressed. With all similarities at 1 the operation reduces
exactly to a plain convolution.
"""

import numpy as np

from tdl import neighbor_similarity, tconv_forward
from tdl.nn import conv1d_forward, conv1d_init, l2_normalize_forward

rng = np.random.default_rng(2)
t_len = 10

# an embedding that jumps to a new direction at frame 5 (a splice point)
raw = np.tile(np.array([1.0, 0.0, 0.0])[:, None], (1, t_len))
raw[:, 5:] = np.array([0.0, 1.0, 0.0])[:, None]
raw += 0.05 * rng.standard_normal((3, t_len))
e = l2_normalize_forward(raw)
live = np.ones(t_len, dtype=bool)  # no padding frames

a = neighbor_similarity(e, live, k=3)
print("similarity matrix (rows: left neighbor / self / right neighbor):")
print(np.array_str(a, precision=2, suppress_small=True))
print("note the suppressed cells around the frame-5 boundary\n")

layer = conv1d_init(4, 4, 3, rng)
x = rng.standard_normal((4, t_len))
ones = np.ones((3, t_len))
diff = np.max(np.abs(tconv_forward(layer, x, ones) - conv1d_forward(layer, x)))
print(f"modulation identity: max |tconv(a=1) - conv| = {diff:.2e}")

masked = ones.copy()
masked[0, 4] = 0.0  # output frame 4 now ignores input column 3
out_before = tconv_forward(layer, x, masked)
x2 = x.copy()
x2[:, 3] += 100.0
out_after = tconv_forward(layer, x2, masked)
print("zero-similarity masking: output frame 4 unchanged under a huge "
      f"perturbation of input column 3 -> {np.array_equal(out_before[:, 4], out_after[:, 4])}")
