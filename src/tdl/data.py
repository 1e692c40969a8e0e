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
  with paths relative to the manifest's directory. Sample ids are
  unique and at most MAX_ID_BYTES UTF-8 bytes, since ``write_dataset``
  puts them in file names; it writes only ids that are plain file names.

A dataset is read as a stream by ``stream_dataset``: the manifest is
checked whole (``check_manifest``), then each sample's two files are
read when the stream reaches it (``read_samples``, which reads any run
of the checked entries).

Frame labels are compiled a block of annotations at a time by
``compile_labels``, one vectorized pass over all their segments.
"""

from __future__ import annotations

import json
import math
import os
import struct
import sys
import typing
import uuid
from dataclasses import asdict, dataclass, is_dataclass
from pathlib import Path
from typing import NamedTuple

import numpy as np

from .errors import (
    AnnotationError,
    ConfigError,
    FormatError,
    ShapeError,
    ValidationError,
    brief,
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

# the usual file-name limit: write_dataset puts sample ids into file names
MAX_ID_BYTES = 255


# ---------------------------------------------------------------------------
# domain types
# ---------------------------------------------------------------------------


@dataclass
class FeatureSequence:
    """Feature matrix plus true length; its shape gives dim x num_frames.

    Values are float32 (the on-disk precision); columns at index >=
    true_frames are zero padding.
    """

    sample_id: str
    values: np.ndarray
    true_frames: int
    dim = property(lambda self: self.values.shape[0])
    num_frames = property(lambda self: self.values.shape[1])

    def __post_init__(self):
        self.values = np.ascontiguousarray(self.values, dtype=np.float32)
        self.validate()

    def validate(self):
        if self.values.ndim != 2 or not self.values.size:
            raise ValidationError(f"{self.sample_id}: non-positive dimensions")
        if not (0 < self.true_frames <= self.num_frames):
            raise ValidationError(
                f"{self.sample_id}: true_frames {self.true_frames} not in "
                f"[1, {self.num_frames}]"
            )
        # array methods, not np.all/np.any: a few microseconds less per file
        if not np.isfinite(self.values).all():
            raise ValidationError(f"{self.sample_id}: non-finite feature values")
        # every value is finite here, so any() is "some value != 0.0"
        padding = self.values[:, self.true_frames:]
        if padding.size and padding.any():
            raise ValidationError(f"{self.sample_id}: nonzero padding columns")


def _long_id(sample_id: str) -> bool:
    return len(sample_id.encode("utf-8", "surrogatepass")) > MAX_ID_BYTES


class Segment(NamedTuple):
    start_s: float
    end_s: float
    label: str


@dataclass(frozen=True)
class SegmentAnnotation:
    """Ordered real/fake segments that tile [0, duration_s] exactly;
    checked when built and immutable after, so no reader checks it again."""

    sample_id: str
    duration_s: float
    segments: tuple

    def __post_init__(self):
        object.__setattr__(self, "segments", tuple(self.segments))
        if _long_id(self.sample_id):  # every message below quotes the id whole
            raise AnnotationError(
                f"sample_id {brief(self.sample_id)} is longer than "
                f"{MAX_ID_BYTES} UTF-8 bytes")
        # segments must tile a finite duration, so every time is finite too
        if not 0 < self.duration_s < math.inf:
            raise AnnotationError(
                f"{self.sample_id}: duration {self.duration_s} is not positive "
                "and finite")
        if not self.segments:
            raise AnnotationError(f"{self.sample_id}: no segments")
        cursor = 0.0
        for seg in self.segments:
            if seg.label not in (LABEL_REAL, LABEL_FAKE):
                raise AnnotationError(f"{self.sample_id}: bad label {brief(seg.label)}")
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
            raise ValidationError(f"unknown label setting {brief(self.setting)}")
        if not (0 < self.true_labels <= self.labels.size):
            raise ValidationError(
                f"{self.sample_id}: true_labels {self.true_labels} out of range"
            )
        # checked on the raw bytes: for rows of tens of labels that is about
        # ten times cheaper than numpy reductions
        raw = self.labels.tobytes()
        if raw[self.true_labels:].strip(b"\0"):
            raise ValidationError(f"{self.sample_id}: nonzero padding labels")
        if raw.translate(None, b"\0\1"):
            raise ValidationError(f"{self.sample_id}: labels must be 0/1")


@dataclass
class DatasetStats:
    frame_fake_pct: float
    utterance_fake_pct: float
    num_utterances: int
    num_frames: int


# ---------------------------------------------------------------------------
# text and atomic files
# ---------------------------------------------------------------------------


# bytes of the first read of a file; a file this size or larger is sized
# with one fstat and read again, whole, in one call
_FIRST_READ = 1 << 16


def _read_bytes(path) -> bytes:
    """The bytes of the file at ``path``: os.read calls on one descriptor
    until EOF, with no file object. A file shorter than _FIRST_READ takes
    two reads, the second at EOF, and no fstat or lseek. A longer one is
    sized with one fstat and read again from its start into one buffer of
    its size plus one, as io.FileIO.readall does, so no pieces are joined.
    Errors carry the messages io.FileIO(path).readall() gives, a
    directory's included."""
    path = os.fspath(path)
    fd = os.open(path, os.O_RDONLY)
    try:
        try:
            raw = os.read(fd, _FIRST_READ)
        except IsADirectoryError as exc:  # os.open takes a directory
            raise IsADirectoryError(exc.errno, exc.strerror, path) from None
        if len(raw) == _FIRST_READ:
            os.lseek(fd, 0, os.SEEK_SET)
            raw = os.read(fd, os.fstat(fd).st_size + 1)
        chunks = [raw]
        while chunk := os.read(fd, _FIRST_READ):  # only a file that grew
            chunks.append(chunk)
        return b"".join(chunks)  # one chunk is returned as is
    finally:
        os.close(fd)


def read_utf8(path, error=FormatError) -> str:
    """The text of a UTF-8 file, newlines translated as ``open`` in text
    mode does; ``error`` (a TdlError class) when its bytes do not decode."""
    try:
        text = _read_bytes(path).decode("utf-8")
    except UnicodeDecodeError as exc:
        raise error(f"{path}: not UTF-8 text: {exc}") from exc
    return text.replace("\r\n", "\n").replace("\r", "\n")


def parse_json(text: str, where, error=FormatError, object_pairs_hook=None):
    """The JSON value of ``text``; ``error`` (a TdlError class) naming
    ``where`` when it is not JSON, holds an integer too long to parse
    (ValueError) or nests too deep to decode (RecursionError). A hook
    builds each object from its (key, value) pairs, as in ``json.loads``."""
    try:
        return json.loads(text, object_pairs_hook=object_pairs_hook)
    except (ValueError, RecursionError) as exc:
        raise error(f"{where}: invalid JSON: {exc}") from exc


def write_atomic(path, *chunks) -> None:
    """Write the bytes-like ``chunks`` one after another to ``path``
    through a temporary file in the same directory and a rename, so a
    failed or killed write never leaves a truncated file under ``path``
    (the data is not fsynced, so this does not guard against a power cut).
    The temporary name keeps at most 32 characters (128 bytes) of
    ``path``'s name, so any name the file system takes can be written."""
    path = Path(path)
    tmp = path.with_name(f".{path.name[:32]}.{uuid.uuid4().hex}.tmp")
    try:
        with open(tmp, "xb") as fh:
            for chunk in chunks:
                fh.write(chunk)
        os.replace(tmp, path)
    except BaseException:
        tmp.unlink(missing_ok=True)
        raise


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


def _stem(path) -> str:
    """``Path(path).stem`` of a path that names a readable file."""
    name = os.path.basename(os.fspath(path))
    dot = name.rfind(".")
    return name[:dot] if 0 < dot < len(name) - 1 else name


def load_feature_file(path) -> FeatureSequence:
    raw = _read_bytes(path)
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
        return FeatureSequence(_stem(path), values, true_frames)
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
        return SegmentAnnotation(str(obj["sample_id"]), float(obj["duration_s"]),
                                 segments)
    except (KeyError, TypeError, ValueError, OverflowError) as exc:
        raise FormatError(f"malformed annotation object: {exc}") from exc


def save_annotation_file(ann: SegmentAnnotation, path) -> None:
    Path(path).write_text(
        json.dumps(annotation_to_dict(ann), indent=2, sort_keys=True) + "\n",
        encoding="utf-8",
    )


def load_annotation_file(path) -> SegmentAnnotation:
    obj = parse_json(read_utf8(path), path)  # its errors name the path already
    try:
        return annotation_from_dict(obj)
    except (AnnotationError, FormatError) as exc:
        raise type(exc)(f"{path}: {exc}") from exc


# ---------------------------------------------------------------------------
# frame-label compilation
# ---------------------------------------------------------------------------


def _tolerant_ceil(x: float) -> int:
    """ceil that forgives sub-nanosecond float noise below an integer."""
    return math.ceil(x - _TIME_EPS)


def num_true_labels(duration_s: float, resolution_s: float) -> int:
    return _tolerant_ceil(duration_s / resolution_s)


def _majority_real(anns, resolution_s: float, counts, padded_len: int) -> np.ndarray:
    """(N, padded_len) bool: True where real occupancy strictly exceeds fake.

    Exact 50/50 ties go to fake (conservative for a security task); padding
    frames are False. Every segment of every annotation is handled in one
    pass, and each frame sums its overlaps in segment order, so a frame's
    label does not depend on the other annotations in ``anns``.
    """
    # one column per segment: its times, its utterance's label count and
    # its first (class, utterance) cell; float64 holds these integers
    # exactly, as bincount could not hold 2**53 cells
    rows = []
    for u, (ann, n) in enumerate(zip(anns, counts)):
        for seg in ann.segments:
            rows += (seg.start_s, seg.end_s, n,
                     ((seg.label == LABEL_FAKE) * len(anns) + u) * padded_len)
    table = np.array(rows, dtype=np.float64).reshape(-1, 4).T
    start, end, count, _ = table
    # segment s covers frames j0[s] <= j < j1[s]
    j0 = np.maximum(np.floor(start / resolution_s + _TIME_EPS), 0.0)
    j1 = np.minimum(np.ceil(end / resolution_s - _TIME_EPS), count)
    width = np.maximum(j1 - j0, 0.0).astype(np.int64)
    # the count row now holds each segment's first pair index less j0; the
    # flat arrays from here hold one (segment, frame) pair per entry
    table[2] = width.cumsum() - width - j0
    start, end, offset, first_cell = table.repeat(width, axis=1)
    js = np.arange(offset.size) - offset
    lo = np.maximum(js * resolution_s, start)
    hi = np.minimum((js + 1) * resolution_s, end)
    overlap = np.maximum(hi - lo, 0.0)
    # one (class, utterance, frame) cell per pair; bincount adds in pair order
    cell = (first_cell + js).astype(np.int64)
    sums = np.bincount(cell, weights=overlap, minlength=2 * len(anns) * padded_len)
    real_t, fake_t = sums.reshape(2, len(anns), padded_len)
    return real_t > fake_t + _TIME_EPS


def compile_labels(anns, resolution_s: float, padded_len: int,
                   setting: str) -> list:
    """Turn segment annotations into per-frame labels, one FrameLabels each.

    A frame is assigned the class occupying the majority of its time
    span; under ``boundary1`` the four frames straddling each real/fake
    transition (two on each side) are 1 and everything else is 0.
    Padding frames are 0 in every setting. All annotations are compiled
    in one vectorized pass; each one's labels are the same alone as in
    any block. An annotation is checked when it is built, so this does
    not check it again.
    """
    anns = list(anns)
    if setting not in LABEL_SETTINGS:
        raise ValidationError(f"unknown label setting {brief(setting)}")
    if not resolution_s > 0:  # NaN fails too
        raise ValidationError("resolution_s must be positive")
    counts = [num_true_labels(ann.duration_s, resolution_s) for ann in anns]
    for ann, n in zip(anns, counts):
        if padded_len < n:
            raise ShapeError(
                f"{ann.sample_id}: padded_len {padded_len} < true_labels {n}")
    labels = _majority_real(anns, resolution_s, counts, padded_len)
    if setting != REAL1_FAKE0:  # real is False on padding already
        live = np.arange(padded_len) < np.array(counts)[:, None]
        if setting == REAL0_FAKE1:
            labels = ~labels & live
        else:  # BOUNDARY1
            side = BOUNDARY_FRAMES_PER_SIDE
            # flips[:, i]: frames i and i + 1 differ; it marks frames
            # i - side + 1 .. i + side, which sit at marks[:, i + 1 .. i + 2 * side]
            flips = (labels[:, :-1] != labels[:, 1:]) & live[:, 1:]
            marks = np.zeros((len(anns), padded_len + 2 * side), dtype=bool)
            for d in range(1, 2 * side + 1):
                marks[:, d:d + padded_len - 1] |= flips
            labels = marks[:, side:side + padded_len] & live
    labels = labels.astype(np.int8)
    return [FrameLabels(ann.sample_id, resolution_s, row, n, setting)
            for ann, row, n in zip(anns, labels, counts)]


def compile_frame_labels(ann: SegmentAnnotation, resolution_s: float,
                         padded_len: int, setting: str) -> FrameLabels:
    """``compile_labels`` of the single annotation ``ann``. ``bench/`` is its
    last caller, and ROADMAP item 2 deletes it."""
    return compile_labels([ann], resolution_s, padded_len, setting)[0]


def pad_features(seq: FeatureSequence, target_frames: int) -> FeatureSequence:
    """Zero-pad (or no-op) the time axis out to target_frames. ``bench/`` is
    its last caller, and ROADMAP item 2 deletes it."""
    if target_frames < seq.true_frames:
        raise ShapeError(
            f"{seq.sample_id}: cannot pad to {target_frames} < "
            f"true_frames {seq.true_frames}"
        )
    if target_frames == seq.num_frames:
        return seq
    out = np.zeros((seq.dim, target_frames), dtype=np.float32)
    out[:, :seq.true_frames] = seq.values[:, :seq.true_frames]
    # seq was checked when it was built and out holds only its live columns
    # and zeros, so the result skips __post_init__ and a second check
    padded = object.__new__(FeatureSequence)
    padded.__dict__.update(seq.__dict__, values=out)
    return padded


# ---------------------------------------------------------------------------
# config objects from JSON
# ---------------------------------------------------------------------------


def config_from_dict(cls, obj, section: str):
    """Build the config dataclass ``cls`` from a JSON object.

    Raises ConfigError for a non-object, an unknown key or a value of the
    wrong JSON type: integer fields take integers but not booleans, float
    fields any finite real number, tuple fields arrays of their length,
    and nested config sections objects.
    """
    if not isinstance(obj, dict):
        raise ConfigError(f"{section} must be a JSON object, got {brief(obj)}")
    unknown = set(obj) - set(cls.__dataclass_fields__)
    if unknown:
        raise ConfigError(f"unknown {section} keys: {brief(sorted(unknown))}")
    hints = typing.get_type_hints(cls)
    try:
        return cls(**{key: _typed(value, hints[key], f"{section}.{key}")
                      for key, value in obj.items()})
    except TypeError as exc:
        raise ConfigError(f"{section}: {exc}") from exc


def _typed(value, hint, name: str):
    """``value`` checked against the field type ``hint``."""
    if is_dataclass(hint):
        return config_from_dict(hint, value, name)
    args = typing.get_args(hint)
    if typing.get_origin(hint) is tuple:
        if not isinstance(value, (list, tuple)) or len(value) != len(args):
            raise ConfigError(
                f"{name} must be an array of {len(args)}, got {brief(value)}")
        return tuple(_typed(v, h, name) for v, h in zip(value, args))
    if hint is float:
        # exact comparisons: NaN, infinities and ints beyond float fail
        ok = (isinstance(value, (int, float)) and not isinstance(value, bool)
              and -sys.float_info.max <= value <= sys.float_info.max)
    elif hint is int:
        ok = isinstance(value, int) and not isinstance(value, bool)
    else:
        ok = isinstance(value, hint)
    if not ok:
        raise ConfigError(f"{name} must be {hint.__name__}, got {brief(value)}")
    return value


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
    duration_range_s: tuple[float, float] = (1.8, 2.56)
    fake_segment_count_range: tuple[int, int] = (1, 3)
    fake_fraction_range: tuple[float, float] = (0.43, 0.63)
    spoof_probability: float = 0.9
    separation: float = 2.0
    noise_scale: float = 1.0
    sample_prefix: str = "utt"

    def __post_init__(self):
        if self.dim <= 0 or self.num_utterances <= 0:
            raise ConfigError("dim and num_utterances must be positive")
        # written so that NaN fails every range check
        if not 0 < self.frame_rate_hz < math.inf:
            raise ConfigError("frame_rate_hz must be positive and finite")
        lo, hi = self.duration_range_s
        if not 0 < lo <= hi < math.inf:
            raise ConfigError(f"bad duration range {self.duration_range_s}")
        cmin, cmax = self.fake_segment_count_range
        if not 0 <= cmin <= cmax < 2 ** 63:  # the count is an int64 draw
            raise ConfigError(
                f"bad fake segment count range {brief(self.fake_segment_count_range)}"
            )
        fmin, fmax = self.fake_fraction_range
        if not 0 < fmin <= fmax < 1:
            raise ConfigError(f"bad fake fraction range {self.fake_fraction_range}")
        if not 0 <= self.spoof_probability <= 1:
            raise ConfigError("spoof_probability must be in [0, 1]")
        if not (math.isfinite(self.separation) and math.isfinite(self.noise_scale)):
            raise ConfigError("separation and noise_scale must be finite")
        if self.separation <= 0 and self.noise_scale <= 0:
            raise ConfigError(
                "non-positive separation with zero noise is unlearnable"
            )

    def to_dict(self) -> dict:
        return asdict(self)

    @classmethod
    def from_dict(cls, obj: dict) -> "SynthSpec":
        return config_from_dict(cls, obj, "generator")


def desk_benchmark_spec(num_utterances: int = 300, **overrides) -> SynthSpec:
    """Generator spec matched to the desk-scale model config.

    SynthSpec's default 25 feature frames per second and durations up to
    2.56 s give at most 64 feature frames and 16 label frames per utterance.
    """
    base = dict(dim=16, num_utterances=num_utterances)
    base.update(overrides)
    return SynthSpec(**base)


def _synth_annotation(spec: SynthSpec, rng: np.random.Generator, sample_id: str,
                      lo_ms: int, hi_ms: int) -> SegmentAnnotation:
    """Draws a duration in [lo_ms, hi_ms] ms, then its fake segments."""
    dur_ms = int(rng.integers(lo_ms, hi_ms + 1))

    cmin, cmax = spec.fake_segment_count_range
    n = int(rng.integers(cmin, cmax + 1))
    if rng.random() >= spec.spoof_probability:
        n = 0
    # at most as many fake segments as fit with their interior gaps
    n = min(n, max(1, (dur_ms + _MIN_SEG_MS) // (2 * _MIN_SEG_MS)))

    pieces = [(dur_ms, LABEL_REAL)]  # (length in ms, label), in time order
    if n:
        frac = rng.uniform(*spec.fake_fraction_range)
        fake_ms = int(round(frac * dur_ms))
        fake_ms = max(fake_ms, n * _MIN_SEG_MS)
        fake_ms = min(fake_ms, dur_ms - (n - 1) * _MIN_SEG_MS)
        seg_ms = rng.multinomial(fake_ms - n * _MIN_SEG_MS, [1.0 / n] * n).tolist()
        gaps = rng.multinomial(dur_ms - fake_ms - (n - 1) * _MIN_SEG_MS,
                               [1.0 / (n + 1)] * (n + 1)).tolist()
        for j in range(1, n):  # interior gaps keep segments separated
            gaps[j] += _MIN_SEG_MS
        pieces = [(gaps[0], LABEL_REAL)]
        for extra_ms, gap_ms in zip(seg_ms, gaps[1:]):
            pieces += [(_MIN_SEG_MS + extra_ms, LABEL_FAKE), (gap_ms, LABEL_REAL)]
    segs, pos = [], 0
    for ms, label in pieces:
        if ms > 0:
            segs.append(Segment(pos / 1000.0, (pos + ms) / 1000.0, label))
            pos += ms
    return SegmentAnnotation(sample_id, dur_ms / 1000.0, segs)


def _synth_features(spec: SynthSpec, rng: np.random.Generator, ann: SegmentAnnotation,
                    shift: np.ndarray, centers: np.ndarray) -> FeatureSequence:
    """Noise draws for ``ann``'s frames. A fake frame, one whose center
    lies in a fake segment, is moved by the (dim, 1) column ``shift``;
    ``centers`` holds frame centers in seconds, at least one per frame."""
    frames = _tolerant_ceil(ann.duration_s * spec.frame_rate_hz)
    # frames lo <= t < hi have start <= centers[t] < end
    edges = centers[:frames].searchsorted(
        [t for interval in ann.fake_intervals() for t in interval]).tolist()
    fake = np.zeros(frames)
    for lo, hi in zip(edges[::2], edges[1::2]):
        fake[lo:hi] = 1.0
    values = spec.noise_scale * rng.standard_normal((spec.dim, frames))
    values += shift * fake
    return FeatureSequence(ann.sample_id, values.astype(np.float32), frames)


def synth_dataset(spec: SynthSpec, rng_seed: int):
    """Deterministic synthetic corpus: (features, annotations) lists.

    Each utterance draws from its own child seed, so results do not
    depend on generation order.
    """
    lo_ms, hi_ms = (int(round(s * 1000)) for s in spec.duration_range_s)
    shift = np.full((spec.dim, 1), spec.separation * (1.0 / math.sqrt(spec.dim)))
    # no utterance has more frames than one of hi_ms
    most = _tolerant_ceil(hi_ms / 1000.0 * spec.frame_rate_hz)
    centers = (np.arange(most) + 0.5) / spec.frame_rate_hz
    root = np.random.SeedSequence(rng_seed)
    features, annotations = [], []
    for i, child in enumerate(root.spawn(spec.num_utterances)):
        rng = np.random.default_rng(child)
        sample_id = f"{spec.sample_prefix}{i:05d}"
        ann = _synth_annotation(spec, rng, sample_id, lo_ms, hi_ms)
        features.append(_synth_features(spec, rng, ann, shift, centers))
        annotations.append(ann)
    return features, annotations


# ---------------------------------------------------------------------------
# corpus statistics
# ---------------------------------------------------------------------------


# annotations per compile_labels call in dataset_stats: one pass holds about
# 70 bytes per label frame, so a whole corpus in one pass would grow with it
_STATS_CHUNK = 1024


def dataset_stats(anns, resolution_s: float = DEFAULT_RESOLUTION_S) -> DatasetStats:
    """Fake-class percentages at frame and utterance level, padding excluded.

    An utterance counts as fake iff it contains at least one fake frame
    after majority-rule label compilation.
    """
    anns = list(anns)
    if not anns:
        raise ValidationError("no annotations")
    total_frames = 0
    fake_frames = 0
    fake_utts = 0
    for i in range(0, len(anns), _STATS_CHUNK):
        chunk = anns[i:i + _STATS_CHUNK]
        padded_len = max(num_true_labels(ann.duration_s, resolution_s)
                         for ann in chunk)
        for labels in compile_labels(chunk, resolution_s, padded_len, REAL1_FAKE0):
            n = labels.true_labels
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


def _plain_name(name: str) -> bool:
    """True when ``name`` is one plain file-name component: not empty,
    ``.`` or ``..``, and holding no path separator or NUL."""
    return name not in ("", ".", "..") and not any(
        sep in name for sep in ("/", "\0", os.sep, os.altsep) if sep)


def write_dataset(out_dir, features, annotations) -> Path:
    """Write TDLF files, annotation sidecars, and a manifest; returns
    the manifest path. Every id is checked before anything is written."""
    pairs, seen = list(zip(features, annotations, strict=True)), set()
    for seq, ann in pairs:
        if seq.sample_id != ann.sample_id:
            raise ValidationError(
                f"feature/annotation id mismatch: {seq.sample_id} vs {ann.sample_id}"
            )
        if not _plain_name(seq.sample_id):  # it names the sample's two files
            raise ValidationError(
                f"sample id {brief(seq.sample_id)} is not a plain file name")
        if seq.sample_id in seen:  # its files would overwrite the first's
            raise ValidationError(f"sample id {brief(seq.sample_id)} is repeated")
        seen.add(seq.sample_id)
    out_dir = Path(out_dir)
    (out_dir / "features").mkdir(parents=True, exist_ok=True)
    (out_dir / "annotations").mkdir(exist_ok=True)
    samples = []
    for seq, ann in pairs:
        entry = {"id": seq.sample_id, "features": f"features/{seq.sample_id}.tdlf",
                 "annotations": f"annotations/{seq.sample_id}.json"}
        write_feature_file(seq, out_dir / entry["features"])
        save_annotation_file(ann, out_dir / entry["annotations"])
        samples.append(entry)
    manifest = out_dir / "manifest.json"
    manifest.write_text(
        json.dumps({"samples": samples}, indent=2, sort_keys=True) + "\n",
        encoding="utf-8",
    )
    return manifest


_MANIFEST_KEYS = ("id", "features", "annotations")


def stream_dataset(data_dir):
    """The (features, annotation) pairs of a manifest directory, in
    manifest order, as an iterator: ``read_samples`` of what
    ``check_manifest`` returns. The manifest is checked before this
    returns; each sample's two files are read when the iterator reaches
    that sample."""
    return read_samples(*check_manifest(data_dir))


def check_manifest(data_dir):
    """(root, manifest path, entries) of the manifest directory
    ``data_dir``, once the manifest and every entry in it are checked; it
    must list at least one sample. ``read_samples`` reads any run of
    ``entries``."""
    data_dir = Path(data_dir)
    manifest = data_dir / "manifest.json"
    if not manifest.exists():
        raise FormatError(f"no manifest.json in {data_dir}")
    obj = parse_json(read_utf8(manifest), manifest)
    try:
        samples = obj["samples"]
    except (KeyError, TypeError) as exc:
        raise FormatError(f"{manifest}: {exc}") from exc
    if not isinstance(samples, list):
        raise FormatError(f"{manifest}: samples is not a list")
    if not samples:
        raise ValidationError(f"{data_dir} holds no utterances")
    seen = set()
    for entry in samples:
        if not (isinstance(entry, dict) and all(
                isinstance(entry.get(key), str) for key in _MANIFEST_KEYS)):
            raise FormatError(
                f"{manifest}: sample entry {brief(entry)} needs string "
                f"{', '.join(_MANIFEST_KEYS)}"
            )
        if _long_id(entry["id"]):
            raise FormatError(
                f"{manifest}: sample id {brief(entry['id'])} is longer than "
                f"{MAX_ID_BYTES} UTF-8 bytes")
        if entry["id"] in seen:
            raise FormatError(
                f"{manifest}: sample id {brief(entry['id'])} is listed twice")
        seen.add(entry["id"])
    return str(data_dir), manifest, samples


def read_samples(root: str, manifest: Path, entries):
    """Yield the (features, annotation) pair of each checked manifest
    entry in ``entries`` (any iterable), its two files under the directory
    ``root`` read when the iterator reaches it."""
    for entry in entries:
        # OSError: a missing or unreadable file; ValueError: a NUL or a
        # lone surrogate in its path
        try:
            seq = load_feature_file(os.path.join(root, entry["features"]))
            ann = load_annotation_file(os.path.join(root, entry["annotations"]))
        except (OSError, ValueError) as exc:
            raise FormatError(
                f"{manifest}: sample entry {brief(entry['id'])}: {exc}") from exc
        if ann.sample_id != entry["id"]:
            raise FormatError(
                f"{manifest}: annotation id {brief(ann.sample_id)} != "
                f"{brief(entry['id'])}"
            )
        # TDLF carries no id; trust the manifest
        seq.sample_id = entry["id"]
        yield seq, ann


def load_dataset(data_dir):
    """``stream_dataset`` taken whole into (features, annotations) lists.
    ``bench/`` is its last caller, and ROADMAP item 2 deletes it."""
    features, annotations = [], []
    for seq, ann in stream_dataset(data_dir):
        features.append(seq)
        annotations.append(ann)
    return features, annotations
