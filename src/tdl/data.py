"""Feature files, segment annotations, frame labels, synthetic corpora.

On-disk formats:

* TDLF feature file (little-endian): magic ``TDLF``, u32 version=1,
  u32 D, u32 T, u32 true_frames, then D*T IEEE-754 f32 values in
  row-major order (channel-contiguous).
* Annotation sidecar: UTF-8 JSON
  ``{"sample_id", "duration_s", "segments": [{"start_s", "end_s", "label"}]}``
  where label is ``"real"`` or ``"fake"`` and the segments tile
  ``[0, duration_s]`` exactly.
* Dataset manifest: ``{"samples": [{"id", "features", "annotations"}]}``
  with paths relative to the manifest's directory.
"""

from __future__ import annotations

import json
import struct
from dataclasses import dataclass
from pathlib import Path
from typing import NamedTuple

import numpy as np

from .errors import (
    AnnotationError,
    ConfigError,
    FormatError,
    ShapeError,
    ValidationError,
)

TDLF_MAGIC = b"TDLF"
TDLF_VERSION = 1
_TDLF_HEADER = struct.Struct("<4sIIII")
_MAX_CELLS = 1 << 31  # refuse absurd D*T products before allocating

LABEL_REAL = "real"
LABEL_FAKE = "fake"

REAL1_FAKE0 = "real1_fake0"
REAL0_FAKE1 = "real0_fake1"
BOUNDARY1 = "boundary1"
LABEL_SETTINGS = (REAL1_FAKE0, REAL0_FAKE1, BOUNDARY1)

DEFAULT_RESOLUTION_S = 0.16
BOUNDARY_FRAMES_PER_SIDE = 2

# absorbs float noise when comparing times that live on a 1 ms grid
_TIME_EPS = 1e-9


# ---------------------------------------------------------------------------
# domain types
# ---------------------------------------------------------------------------


@dataclass
class FeatureSequence:
    """Front-end feature matrix (dim x num_frames) plus true length.

    Values are float32 (the on-disk precision); columns at index >=
    true_frames are zero padding.
    """

    sample_id: str
    dim: int
    num_frames: int
    values: np.ndarray
    true_frames: int

    def __post_init__(self):
        self.values = np.ascontiguousarray(self.values, dtype=np.float32)
        self.validate()

    def validate(self):
        if self.dim <= 0 or self.num_frames <= 0:
            raise ValidationError(f"{self.sample_id}: non-positive dimensions")
        if not (0 < self.true_frames <= self.num_frames):
            raise ValidationError(
                f"{self.sample_id}: true_frames {self.true_frames} not in "
                f"[1, {self.num_frames}]"
            )
        if self.values.shape != (self.dim, self.num_frames):
            raise ValidationError(
                f"{self.sample_id}: values shape {self.values.shape} != "
                f"({self.dim}, {self.num_frames})"
            )
        if not np.all(np.isfinite(self.values)):
            raise ValidationError(f"{self.sample_id}: non-finite feature values")
        if self.true_frames < self.num_frames and np.any(
            self.values[:, self.true_frames:] != 0.0
        ):
            raise ValidationError(f"{self.sample_id}: nonzero padding columns")


class Segment(NamedTuple):
    start_s: float
    end_s: float
    label: str


@dataclass
class SegmentAnnotation:
    """Ordered real/fake segments that tile [0, duration_s] exactly."""

    sample_id: str
    duration_s: float
    segments: list

    def validate(self):
        if self.duration_s <= 0:
            raise AnnotationError(f"{self.sample_id}: non-positive duration")
        if not self.segments:
            raise AnnotationError(f"{self.sample_id}: no segments")
        cursor = 0.0
        for seg in self.segments:
            if seg.label not in (LABEL_REAL, LABEL_FAKE):
                raise AnnotationError(f"{self.sample_id}: bad label {seg.label!r}")
            if not seg.start_s < seg.end_s:
                raise AnnotationError(
                    f"{self.sample_id}: empty segment at {seg.start_s}"
                )
            if abs(seg.start_s - cursor) > _TIME_EPS:
                raise AnnotationError(
                    f"{self.sample_id}: gap or overlap at {seg.start_s} "
                    f"(expected {cursor})"
                )
            cursor = seg.end_s
        if abs(cursor - self.duration_s) > _TIME_EPS:
            raise AnnotationError(
                f"{self.sample_id}: segments end at {cursor}, "
                f"duration is {self.duration_s}"
            )

    def fake_intervals(self):
        return [(s.start_s, s.end_s) for s in self.segments if s.label == LABEL_FAKE]


@dataclass
class FrameLabels:
    """Per-frame labels at a fixed resolution, zero on padding frames."""

    sample_id: str
    resolution_s: float
    labels: np.ndarray
    true_labels: int
    setting: str

    def __post_init__(self):
        self.labels = np.ascontiguousarray(self.labels, dtype=np.int8)
        if self.setting not in LABEL_SETTINGS:
            raise ValidationError(f"unknown label setting {self.setting!r}")
        if not (0 < self.true_labels <= self.labels.size):
            raise ValidationError(
                f"{self.sample_id}: true_labels {self.true_labels} out of range"
            )
        if np.any(self.labels[self.true_labels:] != 0):
            raise ValidationError(f"{self.sample_id}: nonzero padding labels")
        if not np.all((self.labels == 0) | (self.labels == 1)):
            raise ValidationError(f"{self.sample_id}: labels must be 0/1")


@dataclass
class DatasetStats:
    frame_fake_pct: float
    utterance_fake_pct: float
    num_utterances: int
    num_frames: int


# ---------------------------------------------------------------------------
# TDLF feature files
# ---------------------------------------------------------------------------


def write_feature_file(seq: FeatureSequence, path) -> None:
    seq.validate()
    header = _TDLF_HEADER.pack(
        TDLF_MAGIC, TDLF_VERSION, seq.dim, seq.num_frames, seq.true_frames
    )
    payload = np.ascontiguousarray(seq.values, dtype="<f4").tobytes()
    with open(path, "wb") as fh:
        fh.write(header)
        fh.write(payload)


def load_feature_file(path) -> FeatureSequence:
    path = Path(path)
    raw = path.read_bytes()
    if len(raw) < _TDLF_HEADER.size:
        raise FormatError(f"{path}: truncated header")
    magic, version, dim, frames, true_frames = _TDLF_HEADER.unpack_from(raw)
    if magic != TDLF_MAGIC:
        raise FormatError(f"{path}: bad magic {magic!r}")
    if version != TDLF_VERSION:
        raise FormatError(f"{path}: unsupported version {version}")
    if dim * frames > _MAX_CELLS:
        raise ValidationError(f"{path}: dimension overflow ({dim} x {frames})")
    expected = _TDLF_HEADER.size + 4 * dim * frames
    if len(raw) != expected:
        raise FormatError(
            f"{path}: payload is {len(raw) - _TDLF_HEADER.size} bytes, "
            f"expected {expected - _TDLF_HEADER.size}"
        )
    values = np.frombuffer(raw, dtype="<f4", offset=_TDLF_HEADER.size)
    values = values.reshape(dim, frames).copy()
    try:
        return FeatureSequence(path.stem, dim, frames, values, true_frames)
    except ValidationError as exc:
        raise ValidationError(f"{path}: {exc}") from exc


# ---------------------------------------------------------------------------
# annotations
# ---------------------------------------------------------------------------


def annotation_to_dict(ann: SegmentAnnotation) -> dict:
    return {
        "sample_id": ann.sample_id,
        "duration_s": ann.duration_s,
        "segments": [
            {"start_s": s.start_s, "end_s": s.end_s, "label": s.label}
            for s in ann.segments
        ],
    }


def annotation_from_dict(obj: dict) -> SegmentAnnotation:
    try:
        segments = [
            Segment(float(s["start_s"]), float(s["end_s"]), str(s["label"]))
            for s in obj["segments"]
        ]
        ann = SegmentAnnotation(str(obj["sample_id"]), float(obj["duration_s"]), segments)
    except (KeyError, TypeError, ValueError) as exc:
        raise FormatError(f"malformed annotation object: {exc}") from exc
    ann.validate()
    return ann


def save_annotation_file(ann: SegmentAnnotation, path) -> None:
    ann.validate()
    Path(path).write_text(
        json.dumps(annotation_to_dict(ann), indent=2, sort_keys=True) + "\n",
        encoding="utf-8",
    )


def load_annotation_file(path) -> SegmentAnnotation:
    try:
        obj = json.loads(Path(path).read_text(encoding="utf-8"))
    except json.JSONDecodeError as exc:
        raise FormatError(f"{path}: invalid JSON: {exc}") from exc
    return annotation_from_dict(obj)


# ---------------------------------------------------------------------------
# frame-label compilation
# ---------------------------------------------------------------------------


def _tolerant_ceil(x: float) -> int:
    """ceil that forgives sub-nanosecond float noise below an integer."""
    return int(np.ceil(x - _TIME_EPS))


def num_true_labels(duration_s: float, resolution_s: float) -> int:
    return _tolerant_ceil(duration_s / resolution_s)


def _majority_real(ann: SegmentAnnotation, resolution_s: float,
                   true_labels: int) -> np.ndarray:
    """Boolean per frame: True where real occupancy strictly exceeds fake.

    Exact 50/50 ties go to fake (conservative for a security task).
    """
    real_t = np.zeros(true_labels)
    fake_t = np.zeros(true_labels)
    for seg in ann.segments:
        j0 = max(0, int(np.floor(seg.start_s / resolution_s + _TIME_EPS)))
        j1 = min(true_labels, _tolerant_ceil(seg.end_s / resolution_s))
        if j1 <= j0:
            continue
        js = np.arange(j0, j1)
        lo = np.maximum(js * resolution_s, seg.start_s)
        hi = np.minimum((js + 1) * resolution_s, seg.end_s)
        overlap = np.maximum(hi - lo, 0.0)
        if seg.label == LABEL_FAKE:
            fake_t[js] += overlap
        else:
            real_t[js] += overlap
    return real_t > fake_t + _TIME_EPS


def compile_frame_labels(ann: SegmentAnnotation, resolution_s: float,
                         padded_len: int, setting: str) -> FrameLabels:
    """Turn a segment annotation into per-frame labels.

    A frame is assigned the class occupying the majority of its time
    span; under ``boundary1`` the four frames straddling each real/fake
    transition (two on each side) are 1 and everything else is 0.
    Padding frames are 0 in every setting.
    """
    ann.validate()
    if setting not in LABEL_SETTINGS:
        raise ValidationError(f"unknown label setting {setting!r}")
    if resolution_s <= 0:
        raise ValidationError("resolution_s must be positive")
    true_labels = num_true_labels(ann.duration_s, resolution_s)
    if padded_len < true_labels:
        raise ShapeError(
            f"{ann.sample_id}: padded_len {padded_len} < true_labels {true_labels}"
        )
    real = _majority_real(ann, resolution_s, true_labels)
    labels = np.zeros(padded_len, dtype=np.int8)
    if setting == REAL1_FAKE0:
        labels[:true_labels] = real
    elif setting == REAL0_FAKE1:
        labels[:true_labels] = ~real
    else:  # BOUNDARY1
        flips = np.nonzero(real[:-1] != real[1:])[0]
        for i in flips:
            lo = max(0, i - (BOUNDARY_FRAMES_PER_SIDE - 1))
            hi = min(true_labels, i + BOUNDARY_FRAMES_PER_SIDE + 1)
            labels[lo:hi] = 1
    return FrameLabels(ann.sample_id, resolution_s, labels, true_labels, setting)


def pad_features(seq: FeatureSequence, target_frames: int) -> FeatureSequence:
    """Zero-pad (or no-op) the time axis out to target_frames."""
    if target_frames < seq.true_frames:
        raise ShapeError(
            f"{seq.sample_id}: cannot pad to {target_frames} < "
            f"true_frames {seq.true_frames}"
        )
    if target_frames == seq.num_frames:
        return seq
    out = np.zeros((seq.dim, target_frames), dtype=np.float32)
    keep = min(seq.num_frames, target_frames)
    out[:, :keep] = seq.values[:, :keep]
    return FeatureSequence(seq.sample_id, seq.dim, target_frames, out, seq.true_frames)


# ---------------------------------------------------------------------------
# synthetic corpus generation
# ---------------------------------------------------------------------------

_MIN_SEG_MS = 10  # shortest fake segment / interior real gap


@dataclass
class SynthSpec:
    """Generator config for a Gaussian mean-shift synthetic corpus.

    Real frames are drawn N(0, noise_scale^2 I); fake frames are shifted
    by ``separation`` along a fixed unit direction. Segment boundaries
    land on a 1 ms grid.
    """

    dim: int
    num_utterances: int
    frame_rate_hz: float = 25.0
    duration_range_s: tuple = (1.8, 2.56)
    fake_segment_count_range: tuple = (1, 3)
    fake_fraction_range: tuple = (0.43, 0.63)
    spoof_probability: float = 0.9
    separation: float = 2.0
    noise_scale: float = 1.0
    sample_prefix: str = "utt"

    def validate(self):
        if self.dim <= 0 or self.num_utterances <= 0:
            raise ConfigError("dim and num_utterances must be positive")
        if self.frame_rate_hz <= 0:
            raise ConfigError("frame_rate_hz must be positive")
        lo, hi = self.duration_range_s
        if not 0 < lo <= hi:
            raise ConfigError(f"bad duration range {self.duration_range_s}")
        cmin, cmax = self.fake_segment_count_range
        if not 0 <= cmin <= cmax:
            raise ConfigError(
                f"bad fake segment count range {self.fake_segment_count_range}"
            )
        fmin, fmax = self.fake_fraction_range
        if not 0 < fmin <= fmax < 1:
            raise ConfigError(f"bad fake fraction range {self.fake_fraction_range}")
        if not 0 <= self.spoof_probability <= 1:
            raise ConfigError("spoof_probability must be in [0, 1]")
        if self.separation <= 0 and self.noise_scale <= 0:
            raise ConfigError(
                "non-positive separation with zero noise is unlearnable"
            )

    def to_dict(self) -> dict:
        return {
            "dim": self.dim,
            "num_utterances": self.num_utterances,
            "frame_rate_hz": self.frame_rate_hz,
            "duration_range_s": list(self.duration_range_s),
            "fake_segment_count_range": list(self.fake_segment_count_range),
            "fake_fraction_range": list(self.fake_fraction_range),
            "spoof_probability": self.spoof_probability,
            "separation": self.separation,
            "noise_scale": self.noise_scale,
            "sample_prefix": self.sample_prefix,
        }

    @classmethod
    def from_dict(cls, obj: dict) -> "SynthSpec":
        known = {f: obj[f] for f in cls.__dataclass_fields__ if f in obj}
        unknown = set(obj) - set(cls.__dataclass_fields__)
        if unknown:
            raise ConfigError(f"unknown generator keys: {sorted(unknown)}")
        for key in ("duration_range_s", "fake_segment_count_range",
                    "fake_fraction_range"):
            if key in known:
                known[key] = tuple(known[key])
        try:
            spec = cls(**known)
        except TypeError as exc:
            raise ConfigError(str(exc)) from exc
        spec.validate()
        return spec


def desk_benchmark_spec(num_utterances: int = 300, **overrides) -> SynthSpec:
    """Generator spec matched to the desk-scale model config.

    25 feature frames per second and durations up to 2.56 s give at most
    64 feature frames and 16 label frames per utterance.
    """
    base = dict(dim=16, num_utterances=num_utterances, frame_rate_hz=25.0,
                duration_range_s=(1.8, 2.56), fake_segment_count_range=(1, 3),
                fake_fraction_range=(0.43, 0.63), spoof_probability=0.9,
                separation=2.0, noise_scale=1.0)
    base.update(overrides)
    spec = SynthSpec(**base)
    spec.validate()
    return spec


def _synth_annotation(spec: SynthSpec, rng: np.random.Generator,
                      sample_id: str) -> SegmentAnnotation:
    lo_ms = int(round(spec.duration_range_s[0] * 1000))
    hi_ms = int(round(spec.duration_range_s[1] * 1000))
    dur_ms = int(rng.integers(lo_ms, hi_ms + 1))

    cmin, cmax = spec.fake_segment_count_range
    n = int(rng.integers(cmin, cmax + 1))
    if rng.random() >= spec.spoof_probability:
        n = 0
    # shrink n until n fake segments plus interior gaps fit
    while n > 1 and n * _MIN_SEG_MS + (n - 1) * _MIN_SEG_MS > dur_ms:
        n -= 1

    if n == 0:
        segs = [Segment(0.0, dur_ms / 1000.0, LABEL_REAL)]
        return SegmentAnnotation(sample_id, dur_ms / 1000.0, segs)

    frac = rng.uniform(*spec.fake_fraction_range)
    fake_ms = int(round(frac * dur_ms))
    fake_ms = max(fake_ms, n * _MIN_SEG_MS)
    fake_ms = min(fake_ms, dur_ms - (n - 1) * _MIN_SEG_MS)

    seg_ms = _MIN_SEG_MS + rng.multinomial(
        fake_ms - n * _MIN_SEG_MS, np.full(n, 1.0 / n)
    )
    real_ms = dur_ms - fake_ms
    gap_extra = rng.multinomial(
        real_ms - (n - 1) * _MIN_SEG_MS, np.full(n + 1, 1.0 / (n + 1))
    )
    gaps = gap_extra.copy()
    gaps[1:n] += _MIN_SEG_MS  # interior gaps keep segments separated

    segs = []
    pos = 0
    for j in range(n):
        if gaps[j] > 0:
            segs.append(Segment(pos / 1000.0, (pos + gaps[j]) / 1000.0, LABEL_REAL))
            pos += int(gaps[j])
        segs.append(Segment(pos / 1000.0, (pos + seg_ms[j]) / 1000.0, LABEL_FAKE))
        pos += int(seg_ms[j])
    if gaps[n] > 0:
        segs.append(Segment(pos / 1000.0, (pos + gaps[n]) / 1000.0, LABEL_REAL))
        pos += int(gaps[n])
    ann = SegmentAnnotation(sample_id, dur_ms / 1000.0, segs)
    ann.validate()
    return ann


def _synth_features(spec: SynthSpec, rng: np.random.Generator,
                    ann: SegmentAnnotation) -> FeatureSequence:
    frames = _tolerant_ceil(ann.duration_s * spec.frame_rate_hz)
    centers = (np.arange(frames) + 0.5) / spec.frame_rate_hz
    fake = np.zeros(frames, dtype=bool)
    for start, end in ann.fake_intervals():
        fake |= (centers >= start) & (centers < end)
    direction = np.full(spec.dim, 1.0 / np.sqrt(spec.dim))
    values = spec.noise_scale * rng.standard_normal((spec.dim, frames))
    values += spec.separation * direction[:, None] * fake[None, :]
    return FeatureSequence(ann.sample_id, spec.dim, frames,
                           values.astype(np.float32), frames)


def synth_dataset(spec: SynthSpec, rng_seed: int):
    """Deterministic synthetic corpus: (features, annotations) lists.

    Each utterance draws from its own child seed, so results do not
    depend on generation order.
    """
    spec.validate()
    root = np.random.SeedSequence(rng_seed)
    features, annotations = [], []
    for i, child in enumerate(root.spawn(spec.num_utterances)):
        rng = np.random.default_rng(child)
        sample_id = f"{spec.sample_prefix}{i:05d}"
        ann = _synth_annotation(spec, rng, sample_id)
        features.append(_synth_features(spec, rng, ann))
        annotations.append(ann)
    return features, annotations


# ---------------------------------------------------------------------------
# corpus statistics
# ---------------------------------------------------------------------------


def dataset_stats(anns, resolution_s: float = DEFAULT_RESOLUTION_S) -> DatasetStats:
    """Fake-class percentages at frame and utterance level, padding excluded.

    An utterance counts as fake iff it contains at least one fake frame
    after majority-rule label compilation.
    """
    anns = list(anns)
    if not anns:
        raise ValidationError("dataset_stats: empty annotation list")
    total_frames = 0
    fake_frames = 0
    fake_utts = 0
    for ann in anns:
        n = num_true_labels(ann.duration_s, resolution_s)
        labels = compile_frame_labels(ann, resolution_s, n, REAL1_FAKE0)
        k = int(n - labels.labels[:n].sum())
        total_frames += n
        fake_frames += k
        fake_utts += k > 0
    return DatasetStats(
        frame_fake_pct=100.0 * fake_frames / total_frames,
        utterance_fake_pct=100.0 * fake_utts / len(anns),
        num_utterances=len(anns),
        num_frames=total_frames,
    )


# ---------------------------------------------------------------------------
# dataset directories
# ---------------------------------------------------------------------------


def write_dataset(out_dir, features, annotations) -> Path:
    """Write TDLF files, annotation sidecars, and a manifest; returns
    the manifest path."""
    out_dir = Path(out_dir)
    (out_dir / "features").mkdir(parents=True, exist_ok=True)
    (out_dir / "annotations").mkdir(parents=True, exist_ok=True)
    samples = []
    for seq, ann in zip(features, annotations, strict=True):
        if seq.sample_id != ann.sample_id:
            raise ValidationError(
                f"feature/annotation id mismatch: {seq.sample_id} vs {ann.sample_id}"
            )
        feat_rel = f"features/{seq.sample_id}.tdlf"
        ann_rel = f"annotations/{seq.sample_id}.json"
        write_feature_file(seq, out_dir / feat_rel)
        save_annotation_file(ann, out_dir / ann_rel)
        samples.append({"id": seq.sample_id, "features": feat_rel,
                        "annotations": ann_rel})
    manifest = out_dir / "manifest.json"
    manifest.write_text(
        json.dumps({"samples": samples}, indent=2, sort_keys=True) + "\n",
        encoding="utf-8",
    )
    return manifest


_MANIFEST_KEYS = ("id", "features", "annotations")


def load_dataset(data_dir):
    """Read a manifest directory back into (features, annotations) lists."""
    data_dir = Path(data_dir)
    manifest = data_dir / "manifest.json"
    if not manifest.exists():
        raise FormatError(f"no manifest.json in {data_dir}")
    try:
        obj = json.loads(manifest.read_text(encoding="utf-8"))
        samples = obj["samples"]
    except (json.JSONDecodeError, KeyError, TypeError) as exc:
        raise FormatError(f"{manifest}: {exc}") from exc
    if not isinstance(samples, list):
        raise FormatError(f"{manifest}: samples is not a list")
    features, annotations = [], []
    for entry in samples:
        if not (isinstance(entry, dict) and all(
                isinstance(entry.get(key), str) for key in _MANIFEST_KEYS)):
            raise FormatError(
                f"{manifest}: sample entry {entry!r} needs string "
                f"{', '.join(_MANIFEST_KEYS)}"
            )
        seq = load_feature_file(data_dir / entry["features"])
        ann = load_annotation_file(data_dir / entry["annotations"])
        if ann.sample_id != entry["id"]:
            raise FormatError(
                f"{manifest}: annotation id {ann.sample_id!r} != {entry['id']!r}"
            )
        # TDLF carries no id; trust the manifest
        seq.sample_id = entry["id"]
        features.append(seq)
        annotations.append(ann)
    return features, annotations
