import json

import numpy as np
import pytest

from tdl import data
from tdl.errors import AnnotationError, ConfigError, FormatError, ShapeError, ValidationError

from oracles import majority_labels_ms, random_ms_annotation


def _seq(values, true_frames=None, sample_id="s"):
    values = np.asarray(values, dtype=np.float32)
    d, t = values.shape
    return data.FeatureSequence(sample_id, d, t, values,
                                t if true_frames is None else true_frames)


def _ann(segments, sample_id="a"):
    segs = [data.Segment(*s) for s in segments]
    return data.SegmentAnnotation(sample_id, segs[-1].end_s, segs)


# ---------------------------------------------------------------------------
# TDLF files
# ---------------------------------------------------------------------------


def test_feature_file_round_trip_exact(tmp_path):
    seq = _seq([[1, 2, 3], [4, 5, 6]])
    path = tmp_path / "x.tdlf"
    data.write_feature_file(seq, path)
    loaded = data.load_feature_file(path)
    assert loaded.dim == 2 and loaded.num_frames == 3 and loaded.true_frames == 3
    assert np.array_equal(loaded.values, seq.values)


def test_feature_file_truncated_payload(tmp_path):
    seq = _seq([[1, 2, 3], [4, 5, 6]])
    path = tmp_path / "x.tdlf"
    data.write_feature_file(seq, path)
    blob = path.read_bytes()
    path.write_bytes(blob[:-5])
    with pytest.raises(FormatError):
        data.load_feature_file(path)


def test_feature_file_bad_magic_and_version(tmp_path):
    seq = _seq([[1.0]])
    path = tmp_path / "x.tdlf"
    data.write_feature_file(seq, path)
    blob = bytearray(path.read_bytes())
    blob[:4] = b"WHAT"
    path.write_bytes(bytes(blob))
    with pytest.raises(FormatError):
        data.load_feature_file(path)
    data.write_feature_file(seq, path)
    blob = bytearray(path.read_bytes())
    blob[4] = 9
    path.write_bytes(bytes(blob))
    with pytest.raises(FormatError):
        data.load_feature_file(path)


def test_feature_file_random_round_trips(tmp_path):
    rng = np.random.default_rng(0)
    path = tmp_path / "r.tdlf"
    for i in range(1000):
        d = int(rng.integers(1, 9))
        t = int(rng.integers(1, 17))
        true = int(rng.integers(1, t + 1))
        vals = rng.standard_normal((d, t)).astype(np.float32)
        vals[:, true:] = 0.0
        seq = data.FeatureSequence(f"r{i}", d, t, vals, true)
        data.write_feature_file(seq, path)
        loaded = data.load_feature_file(path)
        assert loaded.values.tobytes() == seq.values.tobytes()
        assert (loaded.dim, loaded.num_frames, loaded.true_frames) == (d, t, true)


def test_feature_sequence_rejects_nonzero_padding():
    with pytest.raises(ValidationError):
        _seq([[1, 2, 3], [4, 5, 6]], true_frames=2)


def test_feature_sequence_rejects_non_finite():
    with pytest.raises(ValidationError):
        _seq([[np.inf, 0.0]])


def test_write_validates_mutated_sequence(tmp_path):
    seq = _seq([[1, 2, 0], [4, 5, 0]], true_frames=2)
    seq.values[0, 2] = 7.0  # corrupt the padding after construction
    with pytest.raises(ValidationError):
        data.write_feature_file(seq, tmp_path / "bad.tdlf")


def test_random_feature_file_d16_t64(tmp_path):
    rng = np.random.default_rng(42)
    vals = rng.standard_normal((16, 64)).astype(np.float32)
    seq = data.FeatureSequence("big", 16, 64, vals, 64)
    data.write_feature_file(seq, tmp_path / "big.tdlf")
    loaded = data.load_feature_file(tmp_path / "big.tdlf")
    assert loaded.values.tobytes() == vals.tobytes()


# ---------------------------------------------------------------------------
# annotations
# ---------------------------------------------------------------------------


def test_annotation_json_round_trip(tmp_path):
    ann = _ann([(0.0, 0.32, "real"), (0.32, 0.64, "fake")])
    path = tmp_path / "a.json"
    data.save_annotation_file(ann, path)
    loaded = data.load_annotation_file(path)
    assert loaded == ann


def test_annotation_gap_rejected():
    ann = data.SegmentAnnotation("g", 1.0, [
        data.Segment(0.0, 0.4, "real"), data.Segment(0.5, 1.0, "fake"),
    ])
    with pytest.raises(AnnotationError):
        ann.validate()


def test_annotation_overlap_rejected():
    ann = data.SegmentAnnotation("o", 1.0, [
        data.Segment(0.0, 0.6, "real"), data.Segment(0.5, 1.0, "fake"),
    ])
    with pytest.raises(AnnotationError):
        ann.validate()


def test_annotation_empty_segment_rejected():
    ann = data.SegmentAnnotation("e", 1.0, [
        data.Segment(0.0, 0.0, "real"), data.Segment(0.0, 1.0, "fake"),
    ])
    with pytest.raises(AnnotationError):
        ann.validate()


# ---------------------------------------------------------------------------
# frame labels
# ---------------------------------------------------------------------------


def test_compile_exact_tiling():
    ann = _ann([(0.0, 0.32, "real"), (0.32, 0.64, "fake")])
    labels = data.compile_frame_labels(ann, 0.16, 4, data.REAL1_FAKE0)
    assert labels.true_labels == 4
    assert np.array_equal(labels.labels, [1, 1, 0, 0])


def test_compile_real0_fake1_complement():
    ann = _ann([(0.0, 0.32, "real"), (0.32, 0.64, "fake")])
    labels = data.compile_frame_labels(ann, 0.16, 4, data.REAL0_FAKE1)
    assert np.array_equal(labels.labels, [0, 0, 1, 1])


def test_compile_majority_and_tie_to_fake():
    # frame 0: 90 ms real / 70 ms fake -> real; frame 1: 80/80 tie -> fake
    ann = _ann([(0.0, 0.09, "real"), (0.09, 0.16, "fake"),
                (0.16, 0.24, "real"), (0.24, 0.32, "fake")])
    labels = data.compile_frame_labels(ann, 0.16, 2, data.REAL1_FAKE0)
    assert np.array_equal(labels.labels, [1, 0])


def test_compile_padding_is_zero_in_all_settings():
    ann = _ann([(0.0, 0.32, "fake")])
    for setting in data.LABEL_SETTINGS:
        labels = data.compile_frame_labels(ann, 0.16, 6, setting)
        assert not labels.labels[2:].any()


def test_compile_boundary1_marks_four_frames():
    segs = [(0.0, 0.64, "real"), (0.64, 1.28, "fake")]
    labels = data.compile_frame_labels(_ann(segs), 0.16, 8, data.BOUNDARY1)
    # transition between frames 3 and 4 -> frames 2..5 set
    assert np.array_equal(labels.labels, [0, 0, 1, 1, 1, 1, 0, 0])
    assert labels.labels.sum() == 4


def test_compile_boundary1_clips_at_edges():
    segs = [(0.0, 0.16, "fake"), (0.16, 1.28, "real")]
    labels = data.compile_frame_labels(_ann(segs), 0.16, 8, data.BOUNDARY1)
    # transition between frames 0 and 1; the left side is clipped
    assert np.array_equal(labels.labels, [1, 1, 1, 0, 0, 0, 0, 0])


def test_compile_padded_len_too_small():
    ann = _ann([(0.0, 0.64, "real")])
    with pytest.raises(ShapeError):
        data.compile_frame_labels(ann, 0.16, 3, data.REAL1_FAKE0)


def test_compile_matches_millisecond_oracle():
    rng = np.random.default_rng(7)
    for i in range(100):
        ann = random_ms_annotation(rng, f"r{i}")
        ref = majority_labels_ms(ann, 0.16)
        labels = data.compile_frame_labels(ann, 0.16, ref.size, data.REAL1_FAKE0)
        assert labels.true_labels == ref.size
        assert np.array_equal(labels.labels, ref), f"mismatch on {i}"


def test_compile_complement_property_random():
    rng = np.random.default_rng(8)
    for i in range(25):
        ann = random_ms_annotation(rng, f"c{i}")
        n = data.num_true_labels(ann.duration_s, 0.16)
        a = data.compile_frame_labels(ann, 0.16, n + 3, data.REAL1_FAKE0)
        b = data.compile_frame_labels(ann, 0.16, n + 3, data.REAL0_FAKE1)
        assert np.array_equal(a.labels[:n] + b.labels[:n], np.ones(n, dtype=np.int8))
        assert not a.labels[n:].any() and not b.labels[n:].any()


# ---------------------------------------------------------------------------
# padding
# ---------------------------------------------------------------------------


def test_pad_features_appends_zero_columns():
    seq = _seq([[1, 2, 3], [4, 5, 6]])
    padded = data.pad_features(seq, 5)
    assert padded.num_frames == 5 and padded.true_frames == 3
    assert not padded.values[:, 3:].any()
    assert np.array_equal(padded.values[:, :3], seq.values)


def test_pad_features_to_own_length_is_identity():
    seq = _seq([[1, 2, 3], [4, 5, 6]])
    assert data.pad_features(seq, 3) is seq


def test_pad_then_slice_recovers_original():
    rng = np.random.default_rng(9)
    vals = rng.standard_normal((4, 6)).astype(np.float32)
    seq = data.FeatureSequence("p", 4, 6, vals, 6)
    padded = data.pad_features(seq, 11)
    assert np.array_equal(padded.values[:, :6], vals)


def test_pad_below_true_frames_rejected():
    seq = _seq([[1, 2, 3], [4, 5, 6]])
    with pytest.raises(ShapeError):
        data.pad_features(seq, 2)


# ---------------------------------------------------------------------------
# synthetic generation
# ---------------------------------------------------------------------------


def test_synth_no_fake_segments_gives_single_real_segment():
    spec = data.desk_benchmark_spec(num_utterances=10,
                                    fake_segment_count_range=(0, 0))
    _, anns = data.synth_dataset(spec, 3)
    for ann in anns:
        assert len(ann.segments) == 1
        assert ann.segments[0].label == "real"


def test_synth_deterministic_given_seed():
    spec = data.desk_benchmark_spec(num_utterances=12)
    feats_a, anns_a = data.synth_dataset(spec, 5)
    feats_b, anns_b = data.synth_dataset(spec, 5)
    for fa, fb in zip(feats_a, feats_b):
        assert fa.values.tobytes() == fb.values.tobytes()
    assert anns_a == anns_b
    feats_c, _ = data.synth_dataset(spec, 6)
    assert any(a.values.tobytes() != c.values.tobytes()
               for a, c in zip(feats_a, feats_c))


def test_synth_degenerate_separation_rejected():
    with pytest.raises(ConfigError):
        data.desk_benchmark_spec(num_utterances=5, separation=0.0,
                                 noise_scale=0.0)


def test_synth_annotations_tile_and_fit_frames():
    spec = data.desk_benchmark_spec(num_utterances=40)
    feats, anns = data.synth_dataset(spec, 1)
    for seq, ann in zip(feats, anns):
        ann.validate()
        assert seq.true_frames == seq.num_frames <= 64
        assert data.num_true_labels(ann.duration_s, 0.16) <= 16


def test_synth_calibration_hits_53_percent():
    spec = data.desk_benchmark_spec(num_utterances=200,
                                    fake_fraction_range=(0.49, 0.69))
    _, anns = data.synth_dataset(spec, 23)
    stats = data.dataset_stats(anns)
    assert abs(stats.frame_fake_pct - 53.0) <= 2.0


def test_synth_fake_frames_carry_mean_shift():
    spec = data.desk_benchmark_spec(num_utterances=60, separation=8.0)
    feats, anns = data.synth_dataset(spec, 2)
    u = np.full(16, 1.0 / 4.0)
    fake_proj, real_proj = [], []
    for seq, ann in zip(feats, anns):
        centers = (np.arange(seq.num_frames) + 0.5) / 25.0
        fake = np.zeros(seq.num_frames, dtype=bool)
        for lo, hi in ann.fake_intervals():
            fake |= (centers >= lo) & (centers < hi)
        proj = u @ seq.values.astype(np.float64)
        fake_proj.extend(proj[fake])
        real_proj.extend(proj[~fake])
    assert np.mean(fake_proj) - np.mean(real_proj) > 6.0


# ---------------------------------------------------------------------------
# dataset stats
# ---------------------------------------------------------------------------


def test_stats_all_real_is_zero():
    stats = data.dataset_stats([_ann([(0.0, 1.6, "real")])])
    assert stats.frame_fake_pct == 0.0 and stats.utterance_fake_pct == 0.0


def test_stats_half_and_half():
    anns = [_ann([(0.0, 1.6, "fake")], "f"), _ann([(0.0, 1.6, "real")], "r")]
    stats = data.dataset_stats(anns)
    assert stats.frame_fake_pct == 50.0 and stats.utterance_fake_pct == 50.0
    assert stats.num_frames == 20 and stats.num_utterances == 2


def test_stats_permutation_invariant():
    rng = np.random.default_rng(10)
    anns = [random_ms_annotation(rng, f"p{i}") for i in range(12)]
    a = data.dataset_stats(anns)
    b = data.dataset_stats(list(reversed(anns)))
    assert a == b


def test_stats_empty_rejected():
    with pytest.raises(ValidationError):
        data.dataset_stats([])


def test_stats_matches_label_recount():
    rng = np.random.default_rng(11)
    anns = [random_ms_annotation(rng, f"s{i}") for i in range(30)]
    stats = data.dataset_stats(anns, 0.16)
    total = fake = utts = 0
    for ann in anns:
        n = data.num_true_labels(ann.duration_s, 0.16)
        labels = data.compile_frame_labels(ann, 0.16, n, data.REAL1_FAKE0)
        k = n - int(labels.labels[:n].sum())
        total += n
        fake += k
        utts += k > 0
    assert stats.frame_fake_pct == 100.0 * fake / total
    assert stats.utterance_fake_pct == 100.0 * utts / len(anns)


# ---------------------------------------------------------------------------
# dataset directories
# ---------------------------------------------------------------------------


def test_write_and_load_dataset(tmp_path):
    spec = data.desk_benchmark_spec(num_utterances=6)
    feats, anns = data.synth_dataset(spec, 4)
    manifest = data.write_dataset(tmp_path / "ds", feats, anns)
    obj = json.loads(manifest.read_text())
    assert [s["id"] for s in obj["samples"]] == [f.sample_id for f in feats]
    feats2, anns2 = data.load_dataset(tmp_path / "ds")
    assert anns2 == anns
    for a, b in zip(feats, feats2):
        assert a.values.tobytes() == b.values.tobytes()
        assert a.sample_id == b.sample_id


def test_load_dataset_without_manifest(tmp_path):
    with pytest.raises(FormatError):
        data.load_dataset(tmp_path)


@pytest.mark.parametrize("entry", [
    {"id": "u0", "annotations": "annotations/u0.json"},
    {"id": "u0", "features": "features/u0.tdlf"},
    {"features": "features/u0.tdlf", "annotations": "annotations/u0.json"},
    ["u0", "features/u0.tdlf", "annotations/u0.json"],
    "u0",
    {"id": 7, "features": "features/u0.tdlf", "annotations": "annotations/u0.json"},
], ids=["no-features", "no-annotations", "no-id", "list", "string", "int-id"])
def test_load_dataset_malformed_manifest_entry(tmp_path, entry):
    feats, anns = data.synth_dataset(data.desk_benchmark_spec(num_utterances=1), 0)
    data.write_dataset(tmp_path, feats, anns)
    (tmp_path / "manifest.json").write_text(json.dumps({"samples": [entry]}))
    with pytest.raises(FormatError, match="sample entry"):
        data.load_dataset(tmp_path)


def test_load_dataset_samples_not_a_list(tmp_path):
    (tmp_path / "manifest.json").write_text(json.dumps({"samples": {"id": "u0"}}))
    with pytest.raises(FormatError):
        data.load_dataset(tmp_path)
