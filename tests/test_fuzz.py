"""Property-based fuzzing of the decoders: whatever the input, a decoder
returns a value or raises a TdlError, never another exception.

Runs are derandomized and keep no example database, so the suite is
deterministic, and Hypothesis's cache of source constants goes to a
temporary home directory, so nothing is written into the working tree.
"""

import json
import struct
import tempfile
from pathlib import Path

import pytest
from hypothesis import configuration, given, settings
from hypothesis import strategies as st

from tdl import cli
from tdl import model as M
from tdl.data import (SynthSpec, annotation_from_dict, desk_benchmark_spec,
                      load_feature_file, stream_dataset, synth_dataset, write_dataset)
from tdl.errors import TdlError

# Hypothesis's pytest plugin caches the constants of local source under
# this directory when it collects the module.
configuration.set_hypothesis_home_dir(Path(tempfile.gettempdir()) / "tdl-hypothesis")

FUZZ = settings(derandomize=True, database=None, max_examples=150,
                deadline=None)

json_values = st.recursive(
    st.none() | st.booleans() | st.integers() | st.floats() | st.text(max_size=8),
    lambda inner: (st.lists(inner, max_size=4)
                   | st.dictionaries(st.text(max_size=8), inner, max_size=4)),
    max_leaves=10,
)


def _decodes_or_tdl_error(decode, *args):
    try:
        decode(*args)
    except TdlError:
        pass


# ---------------------------------------------------------------------------
# annotations
# ---------------------------------------------------------------------------

segment = st.fixed_dictionaries(
    {"start_s": json_values, "end_s": json_values, "label": json_values})
annotation_like = st.fixed_dictionaries({
    "sample_id": json_values,
    "duration_s": json_values,
    "segments": st.lists(segment, max_size=3) | json_values,
})


@FUZZ
@given(json_values | annotation_like)
def test_annotation_from_dict_raises_only_tdl_errors(obj):
    _decodes_or_tdl_error(annotation_from_dict, obj)


# ---------------------------------------------------------------------------
# dataset manifests
# ---------------------------------------------------------------------------

# paths of the one sample on disk, paths no file can have, or any short text
sample_path = st.sampled_from(["features/utt00000.tdlf", "annotations/utt00000.json",
                               ".", "", "a\x00b", "a\ud800b"]) | st.text(max_size=6)
manifest_entry = st.fixed_dictionaries({
    "id": st.just("utt00000") | st.text(max_size=8),
    "features": sample_path,
    "annotations": sample_path,
})
manifest_like = st.fixed_dictionaries(
    {"samples": st.lists(manifest_entry | json_values, max_size=3) | json_values})


@FUZZ
@given(json_values | manifest_like)
def test_load_dataset_raises_only_tdl_errors(obj):
    with tempfile.TemporaryDirectory() as tmp:
        write_dataset(tmp, *synth_dataset(desk_benchmark_spec(1), 0))
        (Path(tmp) / "manifest.json").write_text(json.dumps(obj), encoding="utf-8")
        _decodes_or_tdl_error(lambda path: list(stream_dataset(path)), tmp)


# ---------------------------------------------------------------------------
# synth specs
# ---------------------------------------------------------------------------

spec_like = st.dictionaries(
    st.sampled_from(sorted(SynthSpec.__dataclass_fields__)) | st.text(max_size=8),
    json_values | st.lists(st.integers() | st.floats(), min_size=2, max_size=2),
    max_size=12)


@FUZZ
@given(json_values | spec_like)
def test_synth_spec_from_dict_raises_only_tdl_errors(obj):
    _decodes_or_tdl_error(SynthSpec.from_dict, obj)


# ---------------------------------------------------------------------------
# key=value configs
# ---------------------------------------------------------------------------

_CONFIG_KEYS = sorted(M.TdlConfig().to_dict()) + [
    f"{section}.{key}" for section in ("esm", "optimizer")
    for key in M.TdlConfig().to_dict()[section]]
text_chars = st.characters(blacklist_categories=("Cs",))
config_line = st.one_of(
    st.text(text_chars, max_size=20),
    st.builds("{} = {}".format,
              st.sampled_from(_CONFIG_KEYS) | st.text(text_chars, max_size=8),
              st.text(text_chars, max_size=8) | json_values.map(json.dumps)),
)


@FUZZ
@given(st.lists(config_line, max_size=6).map("\n".join))
def test_key_value_config_raises_only_tdl_errors(text):
    with tempfile.TemporaryDirectory() as tmp:
        path = Path(tmp) / "c.cfg"
        path.write_text(text, encoding="utf-8")
        _decodes_or_tdl_error(cli._load_train_config, path)


# ---------------------------------------------------------------------------
# TDLC checkpoints
# ---------------------------------------------------------------------------

_BLOB = M.encode_checkpoint(
    M.build_model(M.TdlConfig(**M.GRADCHECK_CONFIGS["tiny"])))
_, _, _HEADER_LEN = M._TDLC_HEAD.unpack_from(_BLOB)
_START = M._TDLC_HEAD.size
_HEADER = json.loads(_BLOB[_START:_START + _HEADER_LEN])


def _paths(node, prefix=()):
    """Every key path of the header, to objects and to leaves."""
    for key, value in node.items():
        yield prefix + (key,)
        if isinstance(value, dict):
            yield from _paths(value, prefix + (key,))


_HEADER_PATHS = sorted(_paths(_HEADER))


def _with_value(path, value) -> bytes:
    header = json.loads(json.dumps(_HEADER))
    node = header
    for key in path[:-1]:
        node = node[key]
    node[path[-1]] = value
    return _with_header(json.dumps(header))


def _with_header(text: str) -> bytes:
    raw = text.encode("utf-8")
    return (M._TDLC_HEAD.pack(M.TDLC_MAGIC, M.TDLC_VERSION, len(raw)) + raw
            + _BLOB[_START + _HEADER_LEN:])


@FUZZ
@given(st.sampled_from(_HEADER_PATHS), json_values)
def test_checkpoint_header_values_raise_only_tdl_errors(path, value):
    _decodes_or_tdl_error(M.decode_checkpoint, _with_value(path, value))


def test_checkpoint_config_is_checked_before_its_parameters_are_allocated():
    # about 190 GB of conv_a weights if built; the payload holds a tiny model
    blob = _with_value(("config", "conv_hidden"), 8 * 10**9)
    try:
        M.decode_checkpoint(blob)
    except TdlError as exc:
        assert "mismatch" in str(exc)
    else:
        raise AssertionError("decoded a checkpoint whose shapes disagree")


# ---------------------------------------------------------------------------
# TDLF feature files
# ---------------------------------------------------------------------------

_TDLF = struct.Struct("<4sIIII")


@st.composite
def tdlf_files(draw):
    """A TDLF header, mostly well-formed, and a payload of about its size."""
    count = st.integers(0, 6) | st.integers(0, 2**32 - 1)
    dim, frames = draw(count), draw(count)
    head = _TDLF.pack(draw(st.sampled_from([b"TDLF", b"TDLX"])),
                      draw(st.sampled_from([1, 2])), dim, frames, draw(count))
    size = min(4 * dim * frames, 256) + draw(st.sampled_from([0, 0, -1, 3]))
    return head + draw(st.binary(min_size=max(size, 0), max_size=max(size, 0)))


@FUZZ
@given(st.binary(max_size=64) | tdlf_files())
def test_feature_file_raises_only_tdl_errors(raw):
    with tempfile.TemporaryDirectory() as tmp:
        path = Path(tmp) / "f.tdlf"
        path.write_bytes(raw)
        _decodes_or_tdl_error(load_feature_file, path)


@st.composite
def damaged_files(draw):
    """(sample index, manifest key, new bytes or None, cut): one sample's
    feature or annotation file, replaced, or else cut to ``cut`` bytes."""
    key = draw(st.sampled_from(["features", "annotations"]))
    if key == "features":
        new = st.binary(max_size=64) | tdlf_files()
    else:
        new = st.binary(max_size=32) | (json_values | annotation_like).map(
            lambda obj: json.dumps(obj).encode())
    return (draw(st.integers(0, 2)), key, draw(st.none() | new),
            draw(st.integers(0, 4000)))


@FUZZ
@given(damaged_files())
def test_streamed_eval_raises_only_tdl_errors(damage):
    index, key, new, cut = damage
    cfg = M.desk_config()
    with tempfile.TemporaryDirectory() as tmp:
        write_dataset(tmp, *synth_dataset(desk_benchmark_spec(3), 0))
        entry = json.loads((Path(tmp) / "manifest.json").read_text())["samples"][index]
        path = Path(tmp) / entry[key]
        path.write_bytes(path.read_bytes()[:cut] if new is None else new)
        _decodes_or_tdl_error(
            lambda: M.score_pool(M.build_model(cfg), cli._LabelledSet(tmp, cfg)))


# ---------------------------------------------------------------------------
# numbers the strategies do not reach
# ---------------------------------------------------------------------------

_LONG_INT = "1" * 5000  # past Python's 4,300-digit int parsing limit


def _annotation(duration):
    return {"sample_id": "a", "duration_s": duration,
            "segments": [{"start_s": 0, "end_s": duration, "label": "real"}]}


def _config_file(tmp_path, text):
    path = tmp_path / "c.cfg"
    path.write_text(text, encoding="utf-8")
    return path


@pytest.mark.parametrize("case", [
    "annotation-beyond-float", "kv-long-int", "json-long-int",
    "kv-float-beyond-float", "checkpoint-long-int"])
def test_numbers_beyond_float_or_int_parsing_raise_tdl_errors(tmp_path, case):
    with pytest.raises(TdlError):
        if case == "annotation-beyond-float":
            annotation_from_dict(_annotation(10**400))
        elif case == "kv-long-int":
            cli._load_train_config(_config_file(tmp_path, f"seed = {_LONG_INT}"))
        elif case == "json-long-int":
            cli._load_train_config(_config_file(tmp_path, f'{{"seed": {_LONG_INT}}}'))
        elif case == "kv-float-beyond-float":
            cli._load_train_config(_config_file(tmp_path, f"lambda = 1{'0' * 400}"))
        else:
            text = json.dumps(_HEADER)
            assert '"epoch": 0' in text
            M.decode_checkpoint(_with_header(
                text.replace('"epoch": 0', f'"epoch": {_LONG_INT}')))
