"""Host-speed probe for workloads whose time goes to numpy dispatch.

On a shared host the speed of small-array numpy calls and interpreter work
swings by up to 2x over tens of seconds, as neighbours come and go (the
same desk-train repeat took 0.7 s to 1.7 s in back-to-back processes),
while BLAS GEMMs barely move. A probe of that kind of work, which never
touches tdl, brackets each timed interval; the interval is scaled by
NOMINAL_S over the probe's mean time, so the figure reads as seconds on a
host where the probe takes NOMINAL_S. A change to tdl does not change the
probe, so it still moves the scaled figure in full.
"""

from __future__ import annotations

import json
from time import perf_counter

import numpy as np

# probe time on a quiet 2-vCPU Xeon host with numpy 2.4 / OpenBLAS 0.3.31
NOMINAL_S = 0.04


class HostProbe:
    """A fixed slice of small-array numpy calls, JSON parsing and bytecode."""

    def __init__(self):
        rng = np.random.default_rng(0)
        self._x = rng.standard_normal((16, 66))
        self._w = rng.standard_normal((3, 16, 16))
        self._doc = json.dumps({"segments": [
            {"start_s": i / 10, "end_s": (i + 1) / 10, "label": "real"}
            for i in range(20)]})

    def seconds(self) -> float:
        x, w, doc = self._x, self._w, self._doc
        start = perf_counter()
        for _ in range(400):
            padded = np.pad(x, ((0, 0), (1, 1)))
            taps = np.lib.stride_tricks.sliding_window_view(padded, 64, axis=1)
            np.tensordot(w, taps[:, :3].transpose(1, 0, 2), axes=([0, 1], [0, 1]))
            np.maximum(x, 0.0).sum(axis=0)
            json.loads(doc)
            sum(i * i for i in range(60))
        return perf_counter() - start

    def bracket(self, fn):
        """Run fn between two probes; returns (result, scale factor)."""
        before = self.seconds()
        result = fn()
        after = self.seconds()
        return result, NOMINAL_S / ((before + after) / 2.0)
