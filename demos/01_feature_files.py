"""Feature files: the TDLF binary format, padding, and validation.

Feature matrices are float32 with one column per time frame. Files
carry the true (pre-padding) frame count so padding can be stripped
before evaluation.
"""

import shutil
import tempfile
from pathlib import Path

import numpy as np

from tdl import FeatureSequence, load_feature_file, write_feature_file
from tdl.errors import FormatError

workdir = Path(tempfile.mkdtemp(prefix="tdl-demo-"))

rng = np.random.default_rng(0)
values = rng.standard_normal((4, 6)).astype(np.float32)
seq = FeatureSequence("demo", values=values, true_frames=6)

path = workdir / "demo.tdlf"
write_feature_file(seq, path)
print(f"wrote {path} ({path.stat().st_size} bytes: 20 header + 4*6 f32 payload)")

loaded = load_feature_file(path)
print("round trip bit-exact:", loaded.values.tobytes() == values.tobytes())

# a padded file: trailing zero columns, with true_frames counting the rest
padded = FeatureSequence("demo", np.pad(values, ((0, 0), (0, 4))), true_frames=6)
write_feature_file(padded, workdir / "padded.tdlf")
padded = load_feature_file(workdir / "padded.tdlf")
print(f"padded file: {padded.num_frames} frames, true_frames {padded.true_frames}")
print("padding columns are all zero:", not padded.values[:, 6:].any())

# corrupt files are rejected, never silently mis-read
bad = workdir / "truncated.tdlf"
bad.write_bytes(path.read_bytes()[:-7])
try:
    load_feature_file(bad)
except FormatError as exc:
    print("truncated file rejected:", exc)

shutil.rmtree(workdir)
