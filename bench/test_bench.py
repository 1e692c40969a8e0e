"""Tests for the benchmark's own helpers: python3 -m pytest bench"""

import json
import shutil
import subprocess
import sys
import types
from pathlib import Path

import numpy as np
import pytest

BENCH = Path(__file__).resolve().parent
ROOT = BENCH.parent
sys.path.insert(0, str(BENCH))
sys.path.insert(0, str(ROOT / "src"))

from hostspeed import HostProbe  # noqa: E402
from probes import LAYER_UNITS  # noqa: E402
from run import END_TO_END_UNITS  # noqa: E402
from stats import relative_spread, sweep_eer, tail_percentile  # noqa: E402
from tracing import Tracer, self_times, totals  # noqa: E402


def test_tail_percentile_needs_ten_samples_beyond():
    assert tail_percentile(range(1, 101)) == (90.0, 90, 100)
    assert tail_percentile(range(1, 1001)) == (99.0, 990, 1000)
    assert tail_percentile(range(1, 21)) == (50.0, 10, 20)
    assert tail_percentile(range(1, 20)) is None
    assert tail_percentile([3.0] * 40) == (75.0, 3.0, 40)


def test_relative_spread():
    assert relative_spread([10.0] * 10) == 0.0
    assert relative_spread([1, 2, 3, 4, 5, 6, 7, 8, 9, 10]) == pytest.approx(5.5 / 5.5)


def test_self_time_of_nested_spans():
    spans = [
        ("a", 0.0, 10.0, -1),
        ("b", 1.0, 4.0, 0),
        ("c", 2.0, 3.0, 1),
        ("b", 5.0, 7.0, 0),
        ("a", 20.0, 21.0, -1),
    ]
    assert self_times(spans) == {"a": 6.0, "b": 4.0, "c": 1.0}
    assert totals(spans) == {"a": 11.0, "b": 5.0, "c": 1.0}


def test_tracer_records_parents_and_counts_then_restores():
    toy = types.ModuleType("toy_traced")

    def inner(x):
        return x + 1

    def outer(x):
        return toy.inner(x) + toy.inner(x)

    toy.inner, toy.outer = inner, outer
    sys.modules["toy_traced"] = toy
    try:
        def count(counts, args, result):
            counts["total"] += result

        tracer = Tracer("toy")
        tracer.install([("toy_traced", "outer", "outer", None),
                        ("toy_traced", "inner", "inner", count)], iteration=7)
        assert toy.outer(1) == 4
        tracer.uninstall()
        assert toy.inner is inner and toy.outer is outer
    finally:
        del sys.modules["toy_traced"]

    (iteration, spans, counts), = tracer.iterations
    assert iteration == 7
    assert [(name, parent) for name, _, _, parent in spans] == [
        ("outer", -1), ("inner", 0), ("inner", 0)]
    assert counts == {"outer": 1, "inner": 2, "total": 4}
    own, inclusive = self_times(spans), totals(spans)
    assert own["outer"] == pytest.approx(inclusive["outer"] - inclusive["inner"])


def test_host_probe_brackets_the_call():
    probe = HostProbe()
    result, scale = probe.bracket(lambda: "done")
    assert result == "done"
    assert scale > 0.0 and probe.seconds() > 0.0


def _eer_by_loop(scores, labels):
    """Threshold-by-threshold sweep, written as plainly as possible."""
    pos = [s for s, y in zip(scores, labels) if y == 1]
    neg = [s for s, y in zip(scores, labels) if y == 0]
    thresholds = sorted(set(scores)) + [max(scores) + 1.0]
    prev = None
    for th in thresholds:
        far = sum(s >= th for s in neg) / len(neg)
        frr = sum(s < th for s in pos) / len(pos)
        if far - frr == 0.0:
            return 100.0 * far
        if far - frr < 0.0:
            far0, d0 = prev
            frac = d0 / (d0 - (far - frr))
            return 100.0 * (far0 + frac * (far - far0))
        prev = (far, far - frr)
    raise AssertionError("no crossing")


@pytest.mark.parametrize("seed", range(6))
def test_sweep_eer_matches_loop_and_tdl(seed):
    from tdl.metrics import EvalPool, eer

    rng = np.random.default_rng(seed)
    n = int(rng.integers(5, 300))
    labels = rng.integers(0, 2, n)
    labels[:2] = (0, 1)
    # coarse rounding forces tied scores across and within classes
    scores = np.round(rng.normal(labels * 0.8, 1.0), 1)
    expected = _eer_by_loop(scores.tolist(), labels.tolist())
    assert sweep_eer(scores, labels) == pytest.approx(expected, abs=1e-12)
    assert sweep_eer(scores, labels) == pytest.approx(
        eer(EvalPool(scores, labels, 1))[0], abs=1e-12)


def test_sweep_eer_edge_cases():
    assert sweep_eer([0.1, 0.2, 0.8, 0.9], [0, 0, 1, 1]) == 0.0
    assert sweep_eer([0.9, 0.8, 0.2, 0.1], [0, 0, 1, 1]) == 100.0
    with pytest.raises(ValueError):
        sweep_eer([0.1, 0.2], [1, 1])


def test_benchmark_json_matches_what_run_reports():
    spec = json.loads((ROOT / "BENCHMARK.json").read_text(encoding="utf-8"))
    assert {m["name"]: m["unit"] for m in spec["end_to_end"]} == END_TO_END_UNITS
    assert {m["name"]: m["unit"] for m in spec["per_layer"]} == LAYER_UNITS
    assert spec["paths"] == ["bench"]


def test_run_fails_without_tdl_sources(tmp_path):
    shutil.copytree(BENCH, tmp_path / "bench",
                    ignore=shutil.ignore_patterns("__pycache__"))
    shutil.copy(ROOT / "BENCHMARK.json", tmp_path)
    proc = subprocess.run(
        [sys.executable, "bench/run.py", "--workload", "desk-train", "--seed", "1",
         "--seconds", "1", "--trace", "0"],
        cwd=tmp_path, capture_output=True, text=True, timeout=120)
    assert proc.returncode not in (0, None)
    assert proc.stdout == ""
