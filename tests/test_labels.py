"""Frame-label compilation over blocks of annotations (``compile_labels``)."""

from pathlib import Path

import numpy as np
import pytest

from tdl import data
from tdl.errors import AnnotationError, ShapeError

from oracles import majority_labels_ms, random_ms_annotation

GOLDEN = Path(__file__).parent / "data" / "labels_v1.npz"
GOLDEN_RESOLUTIONS = (0.16, 0.07)


def golden_annotations():
    """The 400 annotations of labels_v1.npz: 300 random ms-aligned ones and
    100 desk-benchmark ones."""
    rng = np.random.default_rng(80)
    anns = [random_ms_annotation(rng, f"rnd{i}") for i in range(300)]
    _, desk = data.synth_dataset(data.desk_benchmark_spec(100), 81)
    return anns + desk


def golden_padded_len(anns, resolution_s):
    """Two padding frames past the longest annotation."""
    return 2 + max(data.num_true_labels(a.duration_s, resolution_s) for a in anns)


def golden_key(setting, resolution_s):
    return f"{setting}@{resolution_s}"


def write_golden(path=GOLDEN):
    """Rewrite labels_v1.npz from ``compile_labels``, one utterance at a
    time; each key holds the (400, padded_len) int8 labels of one setting
    and resolution, and ``true_labels@<res>`` their true label counts."""
    anns = golden_annotations()
    arrays = {}
    for res in GOLDEN_RESOLUTIONS:
        padded = golden_padded_len(anns, res)
        for setting in data.LABEL_SETTINGS:
            labs = [data.compile_labels([a], res, padded, setting)[0] for a in anns]
            arrays[golden_key(setting, res)] = np.stack([lab.labels for lab in labs])
            arrays[f"true_labels@{res}"] = np.array([lab.true_labels for lab in labs])
    np.savez_compressed(path, **arrays)


def _in_blocks(anns, size, *args):
    out = []
    for i in range(0, len(anns), size):
        out += data.compile_labels(anns[i:i + size], *args)
    return out


@pytest.mark.parametrize("block", [400, 16])
@pytest.mark.parametrize("res", GOLDEN_RESOLUTIONS)
def test_compile_labels_reproduces_the_golden_fixture(block, res):
    anns = golden_annotations()
    golden = np.load(GOLDEN)
    padded = golden_padded_len(anns, res)
    for setting in data.LABEL_SETTINGS:
        labs = _in_blocks(anns, block, res, padded, setting)
        assert np.array_equal(np.stack([lab.labels for lab in labs]),
                              golden[golden_key(setting, res)]), setting
        assert np.array_equal([lab.true_labels for lab in labs],
                              golden[f"true_labels@{res}"])
        assert [lab.sample_id for lab in labs] == [a.sample_id for a in anns]
        assert all(lab.setting == setting and lab.resolution_s == res for lab in labs)


def _boundary_oracle(real):
    """1 on the two frames either side of every change of class in ``real``."""
    n = real.size
    changes = [b for b in range(1, n) if real[b] != real[b - 1]]
    return np.array([any(b - 2 <= j < b + 2 for b in changes) for j in range(n)],
                    dtype=np.int8)


@pytest.mark.parametrize("res", [0.02, 0.07, 0.16, 0.333])
def test_compile_labels_matches_the_ms_oracle_in_every_setting(res):
    rng = np.random.default_rng(int(res * 1000))
    anns = [random_ms_annotation(rng, f"o{i}") for i in range(60)]
    refs = [majority_labels_ms(a, res) for a in anns]
    padded = max(r.size for r in refs) + 3
    expected = {
        data.REAL1_FAKE0: refs,
        data.REAL0_FAKE1: [1 - r for r in refs],
        data.BOUNDARY1: [_boundary_oracle(r) for r in refs],
    }
    for setting, want in expected.items():
        for lab, ref in zip(data.compile_labels(anns, res, padded, setting), want):
            assert lab.true_labels == ref.size
            assert np.array_equal(lab.labels[:ref.size], ref), (setting, lab.sample_id)
            assert not lab.labels[ref.size:].any()


@pytest.mark.parametrize("setting", data.LABEL_SETTINGS)
def test_labels_do_not_depend_on_the_block(setting):
    rng = np.random.default_rng(5)
    others = [random_ms_annotation(rng, f"b{i}") for i in range(15)]
    target = random_ms_annotation(rng, "target")
    args = (0.16, 30, setting)
    alone = data.compile_labels([target], *args)[0]
    assert np.array_equal(alone.labels,
                          data.compile_frame_labels(target, *args).labels)
    for pos in (0, 7, 15):
        block = others[:pos] + [target] + others[pos:]
        lab = data.compile_labels(block, *args)[pos]
        assert lab.sample_id == "target" and lab.true_labels == alone.true_labels
        assert np.array_equal(lab.labels, alone.labels), pos
    block = others + [target]
    order = rng.permutation(len(block))
    shuffled = data.compile_labels([block[i] for i in order], *args)
    lab = shuffled[int(np.nonzero(order == len(others))[0][0])]
    assert lab.sample_id == "target" and np.array_equal(lab.labels, alone.labels)


def _block_with_fifth(fifth):
    block = [data.SegmentAnnotation(f"ok{i}", 1.0, [data.Segment(0.0, 1.0, "real")])
             for i in range(8)]
    block[4] = fifth
    return block


def test_fifth_annotation_too_long_for_padded_len_is_named():
    long = data.SegmentAnnotation("fifth", 3.0, [data.Segment(0.0, 1.0, "fake"),
                                                 data.Segment(1.0, 3.0, "real")])
    with pytest.raises(ShapeError, match="fifth"):
        data.compile_labels(_block_with_fifth(long), 0.16, 10, data.REAL1_FAKE0)


def test_invalid_fifth_annotation_is_named():
    with pytest.raises(AnnotationError, match="fifth"):
        gap = data.SegmentAnnotation("fifth", 1.0, [data.Segment(0.0, 0.4, "fake"),
                                                    data.Segment(0.5, 1.0, "real")])
        data.compile_labels(_block_with_fifth(gap), 0.16, 10, data.REAL1_FAKE0)


def test_sample_id_longer_than_a_file_name_is_rejected():
    with pytest.raises(AnnotationError) as err:
        data.SegmentAnnotation("x" * 256, 1.0, [data.Segment(0.0, 1.0, "real")])
    assert len(str(err.value)) < 200
    data.SegmentAnnotation("é" * 127, 1.0, [data.Segment(0.0, 1.0, "real")])
    with pytest.raises(AnnotationError):
        data.SegmentAnnotation("é" * 128, 1.0, [data.Segment(0.0, 1.0, "real")])


if __name__ == "__main__":
    write_golden()
