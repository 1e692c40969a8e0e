"""Run-to-run spread of the end-to-end metrics, as the acceptance check takes it.

    python3 bench/spread.py --workload desk-train --seeds 1-10

Runs the benchmark once per seed, one run at a time, with BENCHMARK.json's
run length, and prints each metric's median and interquartile distance
over median next to its bound.
"""

from __future__ import annotations

import argparse
import json
import statistics
import subprocess
import sys
from pathlib import Path

from stats import relative_spread

ROOT = Path(__file__).resolve().parent.parent


def _seeds(text: str):
    lo, _, hi = text.partition("-")
    return range(int(lo), int(hi or lo) + 1)


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seeds", default="1-10", help="inclusive range, e.g. 1-10")
    args = parser.parse_args()
    spec = json.loads((ROOT / "BENCHMARK.json").read_text(encoding="utf-8"))

    values = {m["name"]: [] for m in spec["end_to_end"]}
    for seed in _seeds(args.seeds):
        cmd = spec["command"] + ["--workload", args.workload, "--seed", str(seed),
                                 "--seconds", str(spec["run_seconds"]), "--trace", "0"]
        proc = subprocess.run(cmd, cwd=ROOT, capture_output=True, text=True,
                              timeout=180)
        result = json.loads(proc.stdout.strip().splitlines()[-1])
        if proc.returncode != 0 or not result["correct"]:
            print(f"seed {seed}: exit {proc.returncode}\n{proc.stderr}", file=sys.stderr)
            return 1
        row = {k: v["value"] for k, v in result["metrics"].items()}
        print(f"seed {seed}: " + "  ".join(f"{k}={v:.5g}" for k, v in row.items()),
              flush=True)
        for name, value in row.items():
            values[name].append(value)

    for metric in spec["end_to_end"]:
        vals = values[metric["name"]]
        spread = relative_spread(vals)
        print(f"{metric['name']:<14} median {statistics.median(vals):.5g}  "
              f"spread {spread:.3f}  bound {metric['bound']}  "
              f"{'ok' if spread < metric['bound'] / 3 else 'WIDE'}")
    return 0


if __name__ == "__main__":
    sys.exit(main())
