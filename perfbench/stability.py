"""Repeat the benchmark and report how steady each end-to-end metric is.

    python3 perfbench/stability.py [--runs 10] [--first-seed 101] [WORKLOAD ...]

Runs perfbench/run.py --trace 0 once per seed, one run at a time, for each
workload named (all of BENCHMARK.json by default).  For every end-to-end
metric it prints the median and the quartile spread (q3 - q1) / median, as
statistics.quantiles(values, n=4) gives the quartiles, next to the metric's
bound; a spread under a third of the bound is the target.  It also prints the
share of failed operations, which must not vary.  Raw results go to
perfbench/results/stability-<workload>.json.
"""

from __future__ import annotations

import argparse
import json
import statistics
import subprocess
import sys
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent


def main() -> int:
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("workloads", nargs="*", default=[w["name"] for w in spec["workloads"]])
    ap.add_argument("--runs", type=int, default=10)
    ap.add_argument("--first-seed", type=int, default=101)
    args = ap.parse_args()
    (HERE / "results").mkdir(exist_ok=True)
    steady = True
    for wl in args.workloads:
        runs = []
        for seed in range(args.first_seed, args.first_seed + args.runs):
            cmd = spec["command"] + ["--workload", wl, "--seed", str(seed), "--seconds",
                                     str(spec["run_seconds"]), "--trace", "0"]
            out = subprocess.run(cmd, cwd=ROOT, capture_output=True, text=True, timeout=600)
            if out.returncode != 0:
                print(out.stderr, file=sys.stderr)
                return 1
            runs.append(json.loads(out.stdout.strip().splitlines()[-1]))
        (HERE / "results" / f"stability-{wl}.json").write_text(json.dumps(runs, indent=1))
        shares = {r["failed"] / r["attempted"] for r in runs}
        correct = all(r["correct"] for r in runs)
        print(f"{wl}: correct={correct} failed shares={sorted(shares)}")
        steady &= correct and len(shares) == 1
        for m in spec["end_to_end"]:
            vals = [r["metrics"][m["name"]]["value"] for r in runs]
            q1, med, q3 = statistics.quantiles(vals, n=4)
            spread = (q3 - q1) / med
            ok = spread < m["bound"] / 3
            steady &= ok
            print(f"  {m['name']:<12} median {med:12.5g} {m['unit']:<4} spread "
                  f"{spread:6.3f}  bound {m['bound']:.2f}  {'ok' if ok else 'WIDE'}")
    return 0 if steady else 1


if __name__ == "__main__":
    sys.exit(main())
