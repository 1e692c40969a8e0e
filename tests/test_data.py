import dataclasses
import io
import json
import os
import re
import time

import numpy as np
import pytest

from tdl import data
from tdl.errors import AnnotationError, ConfigError, FormatError, ShapeError, ValidationError

from oracles import majority_labels_ms, random_ms_annotation, synth_reference


def _seq(values, true_frames=None, sample_id="s"):
    values = np.asarray(values, dtype=np.float32)
    true_frames = values.shape[1] if true_frames is None else true_frames
    return data.FeatureSequence(sample_id, values, true_frames)


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
        seq = data.FeatureSequence(f"r{i}", vals, true)
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
    seq = data.FeatureSequence("big", vals, 64)
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


def test_annotation_file_that_is_not_an_object_is_named(tmp_path):
    path = tmp_path / "a.json"
    path.write_text("[1, 2]")
    with pytest.raises(FormatError, match=rf"^{re.escape(str(path))}: malformed "
                                          "annotation object: "):
        data.load_annotation_file(path)


def test_annotation_is_frozen_with_tuple_segments():
    ann = _ann([(0.0, 0.32, "real"), (0.32, 0.64, "fake")])
    assert isinstance(ann.segments, tuple)
    for name, value in (("sample_id", "b"), ("duration_s", 5.0), ("segments", ())):
        with pytest.raises(dataclasses.FrozenInstanceError):
            setattr(ann, name, value)


def test_annotation_gap_rejected():
    with pytest.raises(AnnotationError):
        data.SegmentAnnotation("g", 1.0, [
            data.Segment(0.0, 0.4, "real"), data.Segment(0.5, 1.0, "fake"),
        ])


def test_annotation_overlap_rejected():
    with pytest.raises(AnnotationError):
        data.SegmentAnnotation("o", 1.0, [
            data.Segment(0.0, 0.6, "real"), data.Segment(0.5, 1.0, "fake"),
        ])


def test_annotation_empty_segment_rejected():
    with pytest.raises(AnnotationError):
        data.SegmentAnnotation("e", 1.0, [
            data.Segment(0.0, 0.0, "real"), data.Segment(0.0, 1.0, "fake"),
        ])


@pytest.mark.parametrize("segments, message", [
    ([], "n: no segments"),
    ([(0.0, 1.0, "spoof")], "n: bad label 'spoof'"),
    ([(0.0, 0.5, "real"), (0.5, 0.75, "fake")],
     "n: segments end at 0.75, duration is 1.0"),
], ids=["no-segments", "bad-label", "ends-early"])
def test_annotation_that_does_not_tile_its_duration_rejected(segments, message):
    with pytest.raises(AnnotationError) as exc:
        data.SegmentAnnotation("n", 1.0, [data.Segment(*s) for s in segments])
    assert str(exc.value) == message


# ---------------------------------------------------------------------------
# frame labels
# ---------------------------------------------------------------------------


def test_compile_exact_tiling():
    ann = _ann([(0.0, 0.32, "real"), (0.32, 0.64, "fake")])
    labels = data.compile_labels([ann], 0.16, 4, data.REAL1_FAKE0)[0]
    assert labels.true_labels == 4
    assert np.array_equal(labels.labels, [1, 1, 0, 0])


def test_compile_real0_fake1_complement():
    ann = _ann([(0.0, 0.32, "real"), (0.32, 0.64, "fake")])
    labels = data.compile_labels([ann], 0.16, 4, data.REAL0_FAKE1)[0]
    assert np.array_equal(labels.labels, [0, 0, 1, 1])


def test_compile_majority_and_tie_to_fake():
    # frame 0: 90 ms real / 70 ms fake -> real; frame 1: 80/80 tie -> fake
    ann = _ann([(0.0, 0.09, "real"), (0.09, 0.16, "fake"),
                (0.16, 0.24, "real"), (0.24, 0.32, "fake")])
    labels = data.compile_labels([ann], 0.16, 2, data.REAL1_FAKE0)[0]
    assert np.array_equal(labels.labels, [1, 0])


def test_compile_padding_is_zero_in_all_settings():
    ann = _ann([(0.0, 0.32, "fake")])
    for setting in data.LABEL_SETTINGS:
        labels = data.compile_labels([ann], 0.16, 6, setting)[0]
        assert not labels.labels[2:].any()


def test_compile_boundary1_marks_four_frames():
    segs = [(0.0, 0.64, "real"), (0.64, 1.28, "fake")]
    labels = data.compile_labels([_ann(segs)], 0.16, 8, data.BOUNDARY1)[0]
    # transition between frames 3 and 4 -> frames 2..5 set
    assert np.array_equal(labels.labels, [0, 0, 1, 1, 1, 1, 0, 0])
    assert labels.labels.sum() == 4


def test_compile_boundary1_clips_at_edges():
    segs = [(0.0, 0.16, "fake"), (0.16, 1.28, "real")]
    labels = data.compile_labels([_ann(segs)], 0.16, 8, data.BOUNDARY1)[0]
    # transition between frames 0 and 1; the left side is clipped
    assert np.array_equal(labels.labels, [1, 1, 1, 0, 0, 0, 0, 0])


def test_compile_padded_len_too_small():
    ann = _ann([(0.0, 0.64, "real")])
    with pytest.raises(ShapeError):
        data.compile_labels([ann], 0.16, 3, data.REAL1_FAKE0)[0]


@pytest.mark.parametrize("resolution_s", [0.0, -0.16, float("nan")])
def test_compile_rejects_non_positive_resolution(resolution_s):
    ann = _ann([(0.0, 0.64, "real")])
    with pytest.raises(ValidationError, match="resolution_s"):
        data.compile_labels([ann], resolution_s, 16, data.REAL1_FAKE0)


def test_compile_matches_millisecond_oracle():
    rng = np.random.default_rng(7)
    for i in range(100):
        ann = random_ms_annotation(rng, f"r{i}")
        ref = majority_labels_ms(ann, 0.16)
        labels = data.compile_labels([ann], 0.16, ref.size, data.REAL1_FAKE0)[0]
        assert labels.true_labels == ref.size
        assert np.array_equal(labels.labels, ref), f"mismatch on {i}"


def test_compile_complement_property_random():
    rng = np.random.default_rng(8)
    for i in range(25):
        ann = random_ms_annotation(rng, f"c{i}")
        n = data.num_true_labels(ann.duration_s, 0.16)
        a = data.compile_labels([ann], 0.16, n + 3, data.REAL1_FAKE0)[0]
        b = data.compile_labels([ann], 0.16, n + 3, data.REAL0_FAKE1)[0]
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
    seq = data.FeatureSequence("p", vals, 6)
    padded = data.pad_features(seq, 11)
    assert np.array_equal(padded.values[:, :6], vals)


def test_pad_features_zeroes_padding_corrupted_after_construction():
    seq = _seq([[1, 2, 0, 0], [4, 5, 0, 0]], true_frames=2)
    seq.values[:, 2:] = 7.0  # corrupt the padding after construction
    for target in (3, 6):
        padded = data.pad_features(seq, target)
        assert padded.num_frames == target and padded.values.shape == (2, target)
        assert np.array_equal(padded.values[:, :2], [[1, 2], [4, 5]])
        assert not padded.values[:, 2:].any()
    assert seq.num_frames == 4


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


@pytest.mark.parametrize("key, value", [
    ("frame_rate_hz", float("nan")), ("frame_rate_hz", float("inf")),
    ("separation", float("nan")), ("noise_scale", float("nan")),
    ("duration_range_s", (1.8, float("inf"))),
])
def test_synth_spec_rejects_nan_and_infinite_values(key, value):
    with pytest.raises(ConfigError):
        data.desk_benchmark_spec(num_utterances=2, **{key: value})


def test_synth_annotations_tile_and_fit_frames():
    spec = data.desk_benchmark_spec(num_utterances=40)
    feats, anns = data.synth_dataset(spec, 1)
    for seq, ann in zip(feats, anns):
        segs = ann.segments
        assert segs[0].start_s == 0.0 and segs[-1].end_s == ann.duration_s
        assert all(a.end_s == b.start_s for a, b in zip(segs, segs[1:]))
        assert seq.true_frames == seq.num_frames <= 64
        assert data.num_true_labels(ann.duration_s, 0.16) <= 16


@pytest.mark.parametrize("most", [20_000_000, 2 ** 63 - 1])
def test_synth_huge_segment_counts_are_cut_to_fit_at_once(most):
    spec = data.desk_benchmark_spec(num_utterances=20,
                                    fake_segment_count_range=(1, most))
    start = time.perf_counter()
    _, anns = data.synth_dataset(spec, 1)
    assert time.perf_counter() - start < 1.0
    for ann in anns:
        segs = ann.segments
        assert segs[0].start_s == 0.0 and segs[-1].end_s == ann.duration_s
        assert all(a.end_s == b.start_s for a, b in zip(segs, segs[1:]))


def test_synth_segment_count_past_int64_rejected():
    with pytest.raises(ConfigError, match="segment count"):
        data.desk_benchmark_spec(num_utterances=2,
                                 fake_segment_count_range=(1, 2 ** 63))


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


# (spec, seed) pairs that synth_dataset must generate as synth_reference does
_REFERENCE_CASES = {
    **{f"desk-seed{seed}": (data.desk_benchmark_spec(200), seed) for seed in range(4)},
    "noise-0": (data.desk_benchmark_spec(40, noise_scale=0.0), 4),
    "spoof-0": (data.desk_benchmark_spec(40, spoof_probability=0.0), 5),
    "spoof-1": (data.desk_benchmark_spec(40, spoof_probability=1.0), 6),
    "negative-separation": (data.desk_benchmark_spec(40, separation=-2.0), 7),
    "short-many-fakes": (data.desk_benchmark_spec(
        40, duration_range_s=(0.03, 0.4), fake_segment_count_range=(0, 9)), 8),
    "dim-1024": (data.SynthSpec(dim=1024, num_utterances=2, frame_rate_hz=50.0,
                                duration_range_s=(15.0, 21.0), spoof_probability=1.0), 1),
}


def _label_rows(labels):
    return [(lab.sample_id, lab.true_labels, lab.labels.tobytes()) for lab in labels]


@pytest.mark.parametrize("case", list(_REFERENCE_CASES))
def test_synth_dataset_and_its_labels_match_the_reference(case):
    spec, seed = _REFERENCE_CASES[case]
    feats, anns = data.synth_dataset(spec, seed)
    ref_feats, ref_anns = synth_reference(spec, seed)
    assert len(feats) == len(ref_feats) == spec.num_utterances
    for seq, ref in zip(feats, ref_feats):
        assert (seq.sample_id, seq.true_frames, seq.values.dtype, seq.values.shape) == (
            ref.sample_id, ref.true_frames, ref.values.dtype, ref.values.shape)
        assert seq.values.tobytes() == ref.values.tobytes()
    assert ([json.dumps(data.annotation_to_dict(a), sort_keys=True) for a in anns]
            == [json.dumps(data.annotation_to_dict(a), sort_keys=True) for a in ref_anns])
    res = data.DEFAULT_RESOLUTION_S
    padded_len = 1 + max(data.num_true_labels(a.duration_s, res) for a in anns)
    for setting in data.LABEL_SETTINGS:
        want = _label_rows(data.compile_labels(ref_anns, res, padded_len, setting))
        one = [data.compile_labels([a], res, padded_len, setting)[0] for a in anns]
        blocks = [lab for i in range(0, len(anns), 16)
                  for lab in data.compile_labels(anns[i:i + 16], res, padded_len, setting)]
        assert _label_rows(one) == want
        assert _label_rows(blocks) == want
        if setting == data.REAL1_FAKE0:
            for ann, lab in zip(anns, one):
                assert np.array_equal(lab.labels[:lab.true_labels],
                                      majority_labels_ms(ann, res))


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
    for anns in ([], iter([])):
        with pytest.raises(ValidationError, match=r"^no annotations$"):
            data.dataset_stats(anns)


def test_stats_matches_label_recount():
    rng = np.random.default_rng(11)
    anns = [random_ms_annotation(rng, f"s{i}") for i in range(30)]
    stats = data.dataset_stats(anns, 0.16)
    total = fake = utts = 0
    for ann in anns:
        n = data.num_true_labels(ann.duration_s, 0.16)
        labels = data.compile_labels([ann], 0.16, n, data.REAL1_FAKE0)[0]
        k = n - int(labels.labels[:n].sum())
        total += n
        fake += k
        utts += k > 0
    assert stats.frame_fake_pct == 100.0 * fake / total
    assert stats.utterance_fake_pct == 100.0 * utts / len(anns)


# ---------------------------------------------------------------------------
# dataset directories
# ---------------------------------------------------------------------------


@pytest.mark.parametrize("name", ["r" * 250 + ".json", "\N{HEADPHONE}" * 63 + ".js"])
def test_write_atomic_takes_a_255_byte_name(tmp_path, name):
    # the longest name most file systems take, with no room for a suffix
    assert len(name.encode()) == 255
    path = tmp_path / name
    data.write_atomic(path, b"{}", b"\n")
    assert path.read_bytes() == b"{}\n"
    assert [p.name for p in tmp_path.iterdir()] == [path.name]  # no temp file left


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


def test_write_dataset_rejects_mismatched_ids(tmp_path):
    feats, anns = data.synth_dataset(data.desk_benchmark_spec(num_utterances=2), 4)
    with pytest.raises(ValidationError, match="id mismatch"):
        data.write_dataset(tmp_path / "ds", feats, anns[::-1])


def test_write_dataset_refuses_a_repeated_id_before_writing(tmp_path):
    spec = data.desk_benchmark_spec(2)
    (f1, a1), (f2, a2) = data.synth_dataset(spec, 1), data.synth_dataset(spec, 2)
    assert [f.sample_id for f in f1] == [f.sample_id for f in f2]
    with pytest.raises(ValidationError, match="^sample id 'utt00000' is repeated$"):
        data.write_dataset(tmp_path / "ds", f1 + f2, a1 + a2)
    assert not (tmp_path / "ds").exists()


@pytest.mark.parametrize("bad_id", [
    "", ".", "..", "../../esc00000", "a/b", "/abs", "a\0b", "utt" + os.sep,
] + ([f"a{os.altsep}b"] if os.altsep else []))
def test_write_dataset_refuses_an_id_that_is_not_a_plain_file_name(tmp_path, bad_id):
    (seq,), (ann,) = data.synth_dataset(data.desk_benchmark_spec(1), 1)
    bad = (data.FeatureSequence(bad_id, seq.values, seq.true_frames),
           data.SegmentAnnotation(bad_id, ann.duration_s, ann.segments))
    # the bad sample comes last, so nothing may be written for the good one
    out = tmp_path / "sub" / "ds"
    with pytest.raises(ValidationError, match=re.escape(
            f"sample id {bad_id!r} is not a plain file name")):
        data.write_dataset(out, [seq, bad[0]], [ann, bad[1]])
    assert list(tmp_path.iterdir()) == []


def test_stream_dataset_refuses_an_id_listed_twice(tmp_path):
    feats, anns = data.synth_dataset(data.desk_benchmark_spec(2), 1)
    manifest = data.write_dataset(tmp_path, feats, anns)
    samples = json.loads(manifest.read_text())["samples"]
    manifest.write_text(json.dumps({"samples": samples + samples[:1]}))
    with pytest.raises(FormatError) as exc:
        data.stream_dataset(tmp_path)  # before any sample is read
    assert str(exc.value) == f"{manifest}: sample id 'utt00000' is listed twice"


def test_manifest_entry_whose_annotation_names_another_id(tmp_path):
    feats, anns = data.synth_dataset(data.desk_benchmark_spec(2), 1)
    manifest = data.write_dataset(tmp_path, feats, anns)
    samples = json.loads(manifest.read_text())["samples"]
    samples[1]["annotations"] = samples[0]["annotations"]
    manifest.write_text(json.dumps({"samples": samples}))
    stream = data.stream_dataset(tmp_path)
    assert next(stream)[1].sample_id == "utt00000"
    with pytest.raises(FormatError) as exc:
        next(stream)
    assert str(exc.value) == f"{manifest}: annotation id 'utt00000' != 'utt00001'"


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
    {"id": "u0", "features": "features/u0\u0000.tdlf", "annotations": "a.json"},
    {"id": "u0", "features": "features/missing.tdlf", "annotations": "a.json"},
], ids=["no-features", "no-annotations", "no-id", "list", "string", "int-id",
        "nul-in-path", "missing-file"])
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


# ---------------------------------------------------------------------------
# the file reader
# ---------------------------------------------------------------------------


@pytest.mark.parametrize("size", [0, 1, 65_535, 65_536, 65_537, 300_000])
def test_read_bytes_returns_what_fileio_reads(tmp_path, size):
    path = tmp_path / "f.bin"
    path.write_bytes(np.random.default_rng(size).bytes(size))
    with io.FileIO(path) as fh:
        want = fh.readall()
    assert data._read_bytes(path) == want
    assert data._read_bytes(str(path)) == want


def test_read_bytes_reads_on_past_a_stale_size(tmp_path, monkeypatch):
    # a file that grows after its fstat is still read to EOF
    path = tmp_path / "f.bin"
    want = np.random.default_rng(7).bytes(300_000)
    path.write_bytes(want)
    stale = os.stat_result((0,) * 6 + (70_000,) + (0,) * 3)
    monkeypatch.setattr(os, "fstat", lambda fd: stale)
    assert data._read_bytes(path) == want


@pytest.mark.parametrize("name", ["missing", "directory", "nul"])
def test_read_bytes_raises_what_fileio_raises(tmp_path, name):
    path = {"missing": str(tmp_path / "missing.tdlf"), "directory": str(tmp_path),
            "nul": str(tmp_path / "a\0b")}[name]
    with pytest.raises(Exception) as want:
        with io.FileIO(path) as fh:
            fh.readall()
    with pytest.raises(Exception) as got:
        data._read_bytes(path)
    assert type(got.value) is type(want.value)
    assert str(got.value) == str(want.value)
