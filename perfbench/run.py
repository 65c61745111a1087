"""omska benchmark: one workload, one closed loop, one JSON result line.

    python3 perfbench/run.py --workload NAME --seed N --seconds S --trace 0|1

Run from the root of a source checkout; the package is imported from ./src.
Each operation starts when the previous one ends.  With --trace 0 the last
stdout line carries the end-to-end metrics of BENCHMARK.json, with --trace 1
the per-layer metrics from a run whose omska functions are wrapped in spans.
A copy of every result, with the machine and the seed, goes to
perfbench/results/.  See perfbench/README.md.
"""

from __future__ import annotations

import argparse
import json
import os
import platform
import resource
import statistics
import subprocess
import sys
import time
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SRC = ROOT / "src"
RESULTS = HERE / "results"
SETUP_REPEATS = 3
SPAN_FILE_LIMIT = 200_000  # spans written out; the metrics use every span
BLAS_THREAD_VARS = ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS")


def pin_blas_threads() -> int:
    """Pin BLAS to one thread, whatever the shell set, and return the usable
    core count; must run before numpy is imported."""
    for var in BLAS_THREAD_VARS:
        os.environ[var] = "1"
    return len(os.sched_getaffinity(0))


def import_seconds() -> float:
    """Median time to import omska in a fresh interpreter."""
    code = ("import sys, time; sys.path.insert(0, sys.argv[1]); "
            "t = time.perf_counter(); import omska; print(time.perf_counter() - t)")
    times = []
    for _ in range(SETUP_REPEATS):
        out = subprocess.run([sys.executable, "-c", code, str(SRC)], capture_output=True,
                             text=True, check=True, timeout=120)
        times.append(float(out.stdout.strip()))
    return statistics.median(times)


def closed_loop(wl, seconds: float, min_ops: int, head_ops: int, tracer=None,
                record: bool = True):
    """Whole rounds of wl's operations until `seconds` have passed and at
    least min_ops ran.  Returns the operation count, the summed latency of
    the first head_ops operations and the error texts."""
    clock = time.perf_counter
    errors = []
    head = 0.0
    i = 0
    t0 = clock()
    while True:
        for _ in range(wl.round_len):
            start = clock()
            failed = False
            try:
                if tracer is None:
                    res = wl.op(i)
                else:
                    with tracer.span(f"bench.{wl.kind(i)}"):
                        res = wl.op(i)
            except Exception as exc:  # an operation failed: count it, keep going
                res, failed = None, True
                errors.append(f"operation {i}: {exc!r}")
            lat = clock() - start
            if i < head_ops:
                head += lat
            if record:
                wl.record(i, res, lat, failed)
            i += 1
        if clock() - t0 >= seconds and i >= min_ops:
            return i, head, errors


def main(argv=None) -> int:
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--workload", required=True)
    ap.add_argument("--seed", type=int, required=True, help="non-negative")
    ap.add_argument("--seconds", type=float, required=True)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = ap.parse_args(argv)

    if args.seed < 0:
        ap.error("--seed must be non-negative")
    spec_path = ROOT / "BENCHMARK.json"
    if not (SRC / "omska" / "__init__.py").is_file() or not spec_path.is_file():
        print(f"error: run from an omska checkout; {SRC / 'omska'} or {spec_path} "
              "is missing", file=sys.stderr)
        return 2
    spec = json.loads(spec_path.read_text())
    if args.workload not in {w["name"] for w in spec["workloads"]}:
        print(f"error: unknown workload {args.workload!r}", file=sys.stderr)
        return 2

    nproc = pin_blas_threads()
    import_s = import_seconds()
    sys.path.insert(0, str(SRC))
    import numpy as np
    import omska
    import omska.cli
    if Path(omska.__file__).resolve().parent != SRC / "omska":
        print(f"error: imported omska from {omska.__file__}, not {SRC}", file=sys.stderr)
        return 2
    from tracer import Tracer
    from workloads import WORKLOADS, common_layers

    wl = WORKLOADS[args.workload](omska, args.seed)
    setups = []
    for _ in range(SETUP_REPEATS):
        t0 = time.perf_counter()
        wl.setup()
        setups.append(time.perf_counter() - t0)
    setup_s = import_s + statistics.median(setups)

    tracer = None
    overhead_ops = wl.overhead_ops()
    if args.trace:
        _, untraced_head, _ = closed_loop(wl, 0.0, overhead_ops, overhead_ops, record=False)
        tracer = Tracer()
        tracer.hooks.update(wl.hooks())
        tracer.install()
        with tracer.span("bench.setup"):
            wl.setup()
    wl.start()
    attempted, head, errors = closed_loop(wl, args.seconds, wl.min_ops(), overhead_ops, tracer)
    peak_rss_mb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0

    if tracer is None:
        problems, info = wl.check()
    else:
        with tracer.span("bench.check"):
            problems, info = wl.check()
        tracer.uninstall()

    if args.trace:
        agg = tracer.aggregate()
        metrics = {**common_layers(agg, tracer.counts), **wl.layers(agg, tracer.counts, info)}
        metrics["bench.trace_overhead_pct"] = (head / untraced_head - 1.0) * 100.0
        wanted = spec["per_layer"]
    else:
        metrics = {"setup_s": setup_s, "peak_rss_mb": peak_rss_mb,
                   **wl.end_to_end()}
        wanted = spec["end_to_end"]
    names = {m["name"] for m in wanted}
    # a workload reports 0 for a layer it never reaches; every end-to-end
    # metric must be measured
    if set(metrics) - names or (not args.trace and names - set(metrics)):
        print(f"error: metrics {sorted(set(metrics) ^ names)} disagree with "
              "BENCHMARK.json", file=sys.stderr)
        return 2
    report = {m["name"]: {"value": float(metrics.get(m["name"], 0.0)), "unit": m["unit"]}
              for m in wanted}

    env = {"workload": args.workload, "seed": args.seed, "seconds": args.seconds,
           "trace": args.trace, "nproc": nproc, "python": platform.python_version(),
           "numpy": np.__version__,
           "blas_threads": {var: os.environ[var] for var in BLAS_THREAD_VARS},
           "windows": len(wl.windows), "setup_runs_s": setups, "import_s": import_s}
    RESULTS.mkdir(exist_ok=True)
    stem = f"{args.workload}-seed{args.seed}-trace{args.trace}"
    (RESULTS / f"{stem}.json").write_text(json.dumps(
        {"env": env, "metrics": report, "attempted": attempted, "failed": len(errors),
         "errors": errors[:20], "problems": problems[:50], "info": info},
        indent=1, default=str))
    if tracer is not None:
        np.savez(RESULTS / f"{stem}.spans.npz", names=np.array(tracer.names),
                 **tracer.arrays(SPAN_FILE_LIMIT))

    for line in errors[:10] + problems[:20]:
        print(line, file=sys.stderr)
    print("# " + json.dumps(env))
    print(json.dumps({"correct": not problems, "attempted": attempted,
                      "failed": len(errors), "metrics": report}))
    return 0


if __name__ == "__main__":
    sys.exit(main())
