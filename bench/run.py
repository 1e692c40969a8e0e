"""Benchmark of the tdl pipeline, run from the root of a source checkout.

    python3 bench/run.py --workload desk-train --seed 1 --seconds 20 --trace 0

Workloads (see BENCHMARK.json for why each was chosen):

- desk-train   ``train()`` on 200/50 desk utterances, 2 epochs per repeat
- full-train   ``train()`` at full scale on 3 utterances of 15-21 s, 1 epoch
- eval-corpus  ``tdl eval`` via ``cli.main`` on 2,000 desk utterances

The workload is set up from the seed, then its operation repeats on
identical inputs until ``--seconds`` have been spent in repeats. Further
set-ups are timed between repeats (``setup_s`` is the median of all).
Every repeat is checked; a repeat that raises or fails a check counts as
failed, and any failure makes the exit code 1.

Times of desk-train and eval-corpus, which are bound by numpy dispatch,
are scaled by a host-speed probe (see hostspeed.py); full-train, bound by
BLAS, is reported in plain wall time. Raw wall times are printed too.

With ``--trace 0`` the result line holds the end-to-end metrics, taken as
medians over repeats. With ``--trace 1`` repeats alternate between untraced
and traced (at least two of each); the traced ones give the per-layer
metrics, the gap between the two kinds gives the tracing overhead, and the
exact counters must agree between traced repeats. Spans go to
``.bench_work/trace-<workload>-seed<seed>.tsv``.

The last line of standard output is the JSON result. Exit code 2 means the
tdl sources were not found next to this directory.
"""

from __future__ import annotations

import argparse
import json
import os
import resource
import shutil
import statistics
import sys
import traceback
from collections import Counter
from pathlib import Path
from time import perf_counter

# one BLAS thread: the load comes from this process alone, and
# single-threaded tdl runs are bit-reproducible
for _var in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS"):
    os.environ[_var] = "1"

from probes import EXACT, LAYER_UNITS, PROBES, iteration_metrics, step_p50s  # noqa: E402
from hostspeed import HostProbe  # noqa: E402
from stats import tail_percentile  # noqa: E402
from tracing import Tracer, self_times  # noqa: E402

ROOT = Path(__file__).resolve().parent.parent
WORK = ROOT / ".bench_work"
# set-up is timed at least MIN_SETUPS times, and more while the set-ups so
# far took under SETUP_SECONDS, so that a short set-up still gets a steady median
MIN_SETUPS, MAX_SETUPS, SETUP_SECONDS = 3, 9, 1.0

END_TO_END_UNITS = {
    "setup_s": "s",
    "utt_per_s": "utt/s",
    "frames_per_s": "frames/s",
    "peak_rss_mb": "MB",
}


def _import_tdl():
    src = ROOT / "src"
    if not (src / "tdl" / "__init__.py").is_file():
        print(f"bench: no tdl sources under {src}", file=sys.stderr)
        sys.exit(2)
    sys.path.insert(0, str(src))
    import tdl

    if Path(tdl.__file__).resolve().parent != (src / "tdl").resolve():
        print(f"bench: imported tdl from {tdl.__file__}, not {src}", file=sys.stderr)
        sys.exit(2)


def machine_info() -> dict:
    import platform

    import numpy as np

    blas = np.show_config(mode="dicts")["Build Dependencies"]["blas"]
    return {
        "nproc": os.cpu_count(),
        "cpus_usable": len(os.sched_getaffinity(0)),
        "cpu": _cpu_model(),
        "cpu_quota": _cpu_quota(),
        "blas": blas.get("name"),
        "blas_version": blas.get("version"),
        "blas_threads": _blas_threads(),
        "numpy": np.__version__,
        "python": platform.python_version(),
    }


def _read(path):
    try:
        return Path(path).read_text(encoding="utf-8")
    except OSError:
        return None


def _cpu_model():
    for line in (_read("/proc/cpuinfo") or "").splitlines():
        if line.startswith("model name"):
            return line.partition(":")[2].strip()
    return None


def _cpu_quota():
    """CPUs allowed by the cgroup quota, "max" if unlimited, None if unreadable."""
    text = _read("/sys/fs/cgroup/cpu.max")  # cgroup v2
    if text:
        quota, period = text.split()[:2]
        return "max" if quota == "max" else int(quota) / int(period)
    quota = _read("/sys/fs/cgroup/cpu/cpu.cfs_quota_us")  # cgroup v1
    period = _read("/sys/fs/cgroup/cpu/cpu.cfs_period_us")
    if quota and period:
        return "max" if int(quota) < 0 else int(quota) / int(period)
    return None


def _blas_threads():
    """Thread count of the OpenBLAS that numpy loaded, or None."""
    import ctypes

    for line in (_read("/proc/self/maps") or "").splitlines():
        path = line.split()[-1]
        if "openblas" in path.lower() and ".so" in path:
            lib = ctypes.CDLL(path)
            for symbol in ("scipy_openblas_get_num_threads64_",
                           "openblas_get_num_threads64_", "openblas_get_num_threads"):
                fn = getattr(lib, symbol, None)
                if fn is not None:
                    fn.restype = ctypes.c_int
                    return fn()
    return None


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True,
                        choices=["desk-train", "full-train", "eval-corpus"])
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=[0, 1], default=0)
    args = parser.parse_args(argv)

    _import_tdl()
    from workloads import WORKLOADS

    workload = WORKLOADS[args.workload]
    probe = HostProbe() if workload.scaled else None
    run_dir = WORK / f"{args.workload}-seed{args.seed}-{os.getpid()}"
    try:
        setups = []  # (wall seconds, host-speed scale)

        def set_up(work_dir):
            shutil.rmtree(work_dir, ignore_errors=True)
            work_dir.mkdir(parents=True)
            (state, wall), scale = _bracket(
                probe, lambda: _timed(lambda: workload.setup(args.seed, work_dir)))
            setups.append((wall, scale))
            return state

        state = set_up(run_dir / "setup")
        workload.expect(state)
        tracer = Tracer(args.workload) if args.trace else None
        # further set-ups are timed only, their state thrown away
        run = _measure(workload, state, args.seconds, tracer, probe, setups,
                       lambda: set_up(run_dir / "again"))
    finally:
        shutil.rmtree(run_dir, ignore_errors=True)
    plain, traced, errors = run["plain"], run["traced"], run["errors"]
    setup_times = [wall * scale for wall, scale in setups]

    if not plain or (tracer and not traced):
        metrics = {}
    elif tracer:
        values = _layer_metrics(tracer, traced, plain, errors)
        metrics = {k: {"value": values[k], "unit": u} for k, u in LAYER_UNITS.items()}
        tracer.write(WORK / f"trace-{args.workload}-seed{args.seed}.tsv")
    else:
        values = {
            "setup_s": statistics.median(setup_times),
            "utt_per_s": statistics.median(o.utterances / o.seconds for o in plain),
            "frames_per_s": statistics.median(o.frames / o.seconds for o in plain),
            "peak_rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0,
        }
        metrics = {k: {"value": values[k], "unit": u}
                   for k, u in END_TO_END_UNITS.items()}

    machine = machine_info()
    print(f"bench: workload={args.workload} seed={args.seed} "
          f"seconds={args.seconds:g} trace={args.trace}")
    print("machine: " + json.dumps(machine, sort_keys=True))
    walls = [o.wall_s for o in plain]
    print(f"repeats: {run['attempted']} attempted, {run['failed']} failed, "
          f"{len(plain)} untraced, {len(traced)} traced; {len(setups)} set-ups")
    for label, times in (("untraced repeat wall", walls),
                         ("untraced repeat scaled", [o.seconds for o in plain]),
                         ("set-up wall", [wall for wall, _ in setups])):
        if times:
            tail = tail_percentile(times)
            print(f"{label}: p50 {statistics.median(times):.4f} s"
                  + (f", p{tail[0]:g} {tail[1]:.4f} s" if tail else "")
                  + f" (n={len(times)})")
    if probe:
        print(f"host speed (probe nominal / measured): p50 "
              f"{statistics.median(o.scale for o in plain + traced):.3f}")
    if tracer and traced:
        _print_self_times(tracer)
    for line in errors:
        print(f"FAILED {line}", file=sys.stderr)
    # the quality figures and failed_frac are shown but not gated: EER and
    # loss swing with the seed, and failed_frac is 0 on a correct run
    shown = {**{k: (v["value"], v["unit"]) for k, v in metrics.items()},
             **{k: (v, "") for k, v in run["quality"].items()},
             "failed_frac": (run["failed"] / run["attempted"], "fraction")}
    for name, (value, unit) in shown.items():
        print(f"  {name:<26} {value:>14.6g} {unit}")

    correct = not errors and bool(metrics)
    result = {"correct": correct, "attempted": run["attempted"],
              "failed": run["failed"], "metrics": metrics}
    record = {**result, "machine": machine, "quality": run["quality"],
              "setups_wall_scale": setups,
              "repeats_wall_scale": [(o.wall_s, o.scale) for o in plain]}
    (WORK / f"result-{args.workload}-seed{args.seed}-trace{args.trace}.json"
     ).write_text(json.dumps(record, indent=1, sort_keys=True) + "\n")
    print(json.dumps(result, sort_keys=True))
    return 0 if correct else 1


def _more_setups(setups) -> bool:
    total = sum(wall for wall, _ in setups)
    return len(setups) < MIN_SETUPS or (
        total < SETUP_SECONDS and len(setups) < MAX_SETUPS)


def _timed(fn):
    start = perf_counter()
    result = fn()
    return result, perf_counter() - start


def _bracket(probe, fn):
    """(fn(), host-speed scale); the scale is 1 for unscaled workloads."""
    return probe.bracket(fn) if probe else (fn(), 1.0)


def _measure(workload, state, seconds, tracer, probe, setups, set_up_again):
    """Repeat the operation until ``seconds`` were spent in repeats.

    With a tracer, odd-numbered repeats are traced; at least two of each
    kind run. Checks run outside the measured time. The remaining set-up
    timings are taken between repeats, so that they sample the host over
    the same span of time as the repeats do.
    """
    run = {"plain": [], "traced": [], "errors": [], "quality": {},
           "attempted": 0, "failed": 0}
    min_repeats = 4 if tracer else 1
    measured = 0.0
    while run["attempted"] < min_repeats or measured < seconds:
        if run["attempted"] and _more_setups(setups):
            set_up_again()
        use_trace = tracer is not None and run["attempted"] % 2 == 1
        run["attempted"] += 1
        label = f"repeat {run['attempted']}"

        def repeat():
            # the tracer sees the operation only, not the host-speed probe
            if use_trace:
                tracer.install(PROBES, run["attempted"])
            try:
                return workload.run(state)
            finally:
                if use_trace:
                    tracer.uninstall()

        try:
            start = perf_counter()
            try:
                outcome, outcome_scale = _bracket(probe, repeat)
            finally:
                measured += perf_counter() - start
            outcome.scale = outcome_scale
            problems = workload.check(state, outcome)
        except Exception:  # a repeat that raises is counted as failed, not fatal
            run["failed"] += 1
            run["errors"].append(f"{label}: {traceback.format_exc()}")
            continue
        outcome.result = None  # a full-scale result holds ~0.5 GB
        if problems:
            run["failed"] += 1
            run["errors"].extend(f"{label}: {p}" for p in problems)
            continue
        run["traced" if use_trace else "plain"].append(outcome)
        run["quality"] = outcome.quality
    while _more_setups(setups):
        set_up_again()
    return run


def _print_self_times(tracer) -> None:
    own = Counter()
    for _, spans, _ in tracer.iterations:
        own.update(self_times(spans))
    print("self time per traced repeat, largest first:")
    for name, seconds in own.most_common(12):
        print(f"  {name:<26} {seconds / len(tracer.iterations):>14.6g} s")


def _layer_metrics(tracer, traced, plain, errors) -> dict:
    """Medians of per-repeat layer totals, plus p50s and tracing overhead.

    Appends to ``errors`` when an exact counter differs between repeats.
    """
    per_repeat = [iteration_metrics(spans, counts)
                  for _, spans, counts in tracer.iterations]
    for name in EXACT:
        seen = {m[name] for m in per_repeat}
        if len(seen) > 1:
            errors.append(f"{name} differs between traced repeats: {sorted(seen)}")
    out = {name: statistics.median(m[name] for m in per_repeat)
           for name in per_repeat[0]}
    out.update(step_p50s([s for _, spans, _ in tracer.iterations for s in spans]))
    ratio = (statistics.median(o.seconds for o in traced)
             / statistics.median(o.seconds for o in plain))
    out["trace.overhead_pct"] = 100.0 * (ratio - 1.0)
    return out


if __name__ == "__main__":
    sys.exit(main())
