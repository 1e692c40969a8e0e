"""The embedding-separation hinge losses on toy clusters.

Same-class frame pairs are pushed above tau_same in cosine similarity,
cross-class pairs below tau_diff. Each component is the single worst
violation over its pair set, so the gradient touches exactly one pair
per active component. The loss takes a block of utterances, here a
block of one: embeddings (1, D, T) with classes (1, T).
"""

import numpy as np

from tdl import EsmConfig, esm_loss_from_arrays
from tdl.esm import FAKE, REAL
from tdl.nn import l2_normalize_forward

cfg = EsmConfig(tau_same=0.9, tau_diff=0.0)
rng = np.random.default_rng(1)


def toy(spread):
    """A block of one utterance: two noisy clusters of unit embeddings,
    4 real + 4 fake frames."""
    real_center = np.array([1.0, 0.0, 0.0, 0.0])
    fake_center = np.array([0.0, 1.0, 0.0, 0.0])
    cols = [real_center + spread * rng.standard_normal(4) for _ in range(4)]
    cols += [fake_center + spread * rng.standard_normal(4) for _ in range(4)]
    values = l2_normalize_forward(np.stack(cols, axis=1))
    classes = np.array([REAL] * 4 + [FAKE] * 4, dtype=np.int8)
    return values[None], classes[None]


for spread in (0.0, 0.05, 0.3, 0.8):
    losses, grad = esm_loss_from_arrays(*toy(spread), cfg)
    print(f"spread {spread:.2f}: real {losses.l_real:.4f}  "
          f"fake {losses.l_fake:.4f}  diff {losses.l_diff:.4f}  "
          f"total {losses.total:.4f}  |grad| {np.abs(grad).sum():.4f}")

print("\nexact clusters satisfy both margins, so loss and gradient vanish;"
      "\nthe noisier the clusters, the larger the worst-pair violations")
