"""Command-line front end.

Subcommands:
  bounds     evaluate every key-length bound over a block-length sweep
  plan       print the session parameters for one block length
  run        Monte Carlo reliability check over full sessions (desk plans)
  verify     exact secrecy check by seed/block enumeration
  threshold  smallest block length at which a bound turns positive

Exit codes: 0 success, 1 a check failed or the plan is infeasible (a
threshold search whose crossing fails its own local check included), 2 bad
usage or malformed input, 3 search budget exceeded.

The source is given either as --bsc p,q (binary cascade) or --source FILE
(JSON, see load_joint_pmf).  --config FILE supplies defaults for any long
flag; explicit flags win.  Row output (bounds) supports csv and json; the
other subcommands emit json objects.
"""

from __future__ import annotations

import argparse
import csv
import functools
import io
import json
import os
import sys
from collections import Counter
from dataclasses import asdict

import numpy as np

from .planner import (BOUND_NAMES, PLAN_MODES, bound_sweep, min_positive_n,
                      plan_desk_exact, plan_remark, plan_theorem_main)
from .protocol import BudgetExceededError
from .source import JointSource, bsc_chain, entropy_profile, load_joint_pmf, \
    ow_capacity_less_noisy
from .verifier import run_batch, secrecy_sd_exact, summarize_outcomes

EXIT_OK = 0
EXIT_CHECK_FAILED = 1
EXIT_USAGE = 2
EXIT_BUDGET = 3

CSV_COLUMNS = ("bound_name", "n", "eps", "sigma", "value_bits", "rate")

# most block lengths one bounds sweep evaluates; a 10,000-point sweep takes
# about a second, and a larger one is refused before any list is built
MAX_SWEEP_POINTS = 10_000

class UsageError(Exception):
    """Input problem surfaced after argparse: malformed source, bad range."""


def _parse_bsc(text: str) -> tuple[float, float]:
    parts = text.split(",")
    if len(parts) != 2:
        raise UsageError(f"--bsc expects 'p,q', got {text!r}")
    try:
        return float(parts[0]), float(parts[1])
    except ValueError as exc:
        raise UsageError(f"--bsc expects numeric 'p,q', got {text!r}") from exc


def _parse_n_range(text: str) -> range:
    parts = text.split(":")
    if len(parts) != 3:
        raise UsageError(f"--n-range expects 'start:stop:step', got {text!r}")
    try:
        start, stop, step = (int(p) for p in parts)
    except ValueError as exc:
        raise UsageError(f"--n-range expects integers, got {text!r}") from exc
    if start < 1 or stop < start or step < 1:
        raise UsageError(f"bad --n-range {text!r}")
    # counted, not len(range): a range longer than sys.maxsize has no len()
    points = (stop - start) // step + 1
    if points > MAX_SWEEP_POINTS:
        raise UsageError(f"--n-range {text!r} has {points} points; "
                         f"a sweep takes at most {MAX_SWEEP_POINTS}")
    return range(start, stop + 1, step)


def _load_source(args) -> JointSource:
    if getattr(args, "bsc", None) is not None and getattr(args, "source", None) is not None:
        raise UsageError("give either --bsc or --source, not both")
    if getattr(args, "bsc", None) is not None:
        p, q = _parse_bsc(args.bsc)
        try:
            return bsc_chain(p, q)
        except ValueError as exc:
            raise UsageError(str(exc)) from exc
    if getattr(args, "source", None) is not None:
        desc = args.source
        if not desc.lstrip().startswith("{"):
            try:
                with open(desc, "r", encoding="utf-8") as fh:
                    desc = fh.read()
            except OSError as exc:
                raise UsageError(f"cannot read source file {args.source!r}: {exc}") from exc
        try:
            return load_joint_pmf(desc)
        except ValueError as exc:
            raise UsageError(str(exc)) from exc
    raise UsageError("a source is required: --bsc p,q or --source FILE")


def _emit(args, text: str) -> None:
    if getattr(args, "out", None):
        with open(args.out, "w", encoding="utf-8") as fh:
            fh.write(text)
    else:
        sys.stdout.write(text)
        if not text.endswith("\n"):
            sys.stdout.write("\n")


def _rows_to_csv(rows: list[dict]) -> str:
    buf = io.StringIO()
    writer = csv.DictWriter(buf, fieldnames=CSV_COLUMNS, lineterminator="\n")
    writer.writeheader()
    for row in rows:
        writer.writerow({k: ("" if row.get(k) is None else row.get(k)) for k in CSV_COLUMNS})
    return buf.getvalue()


def _json_default(obj):
    if isinstance(obj, (np.integer,)):
        return int(obj)
    if isinstance(obj, (np.floating,)):
        return float(obj)
    raise TypeError(f"not JSON serializable: {type(obj)!r}")


def _emit_json(args, payload) -> None:
    _emit(args, json.dumps(payload, indent=2, sort_keys=True, default=_json_default) + "\n")


def cmd_bounds(args) -> int:
    src = _load_source(args)
    profile = entropy_profile(src)
    ax = int(src.alphabet_sizes[0])
    ay = int(src.alphabet_sizes[1])
    if args.n_range is not None:
        ns = _parse_n_range(args.n_range)
    elif args.n is not None:
        ns = [args.n]
    else:
        raise UsageError("bounds needs --n or --n-range")
    rows: list[dict] = []
    capacity = ow_capacity_less_noisy(src)
    rows.append({"bound_name": "capacity", "n": 0, "eps": args.eps,
                 "sigma": args.sigma, "value_bits": None, "rate": capacity})
    for name in BOUND_NAMES:
        for rep in bound_sweep(name, ns, args.eps, args.sigma, profile, ax, ay):
            rows.append({"bound_name": rep.bound_name, "n": rep.n, "eps": args.eps,
                         "sigma": args.sigma, "value_bits": rep.value_bits,
                         "rate": rep.rate})
    if args.format == "csv":
        _emit(args, _rows_to_csv(rows))
    else:
        _emit_json(args, rows)
    return EXIT_OK


def _need_n(args) -> int:
    if args.n is None:
        raise UsageError("this subcommand needs --n")
    return args.n


def _desk_plan(args, src: JointSource):
    n = _need_n(args)
    try:
        return plan_desk_exact(src, n, args.eps, args.sigma)
    except ValueError as exc:
        raise UsageError(str(exc)) from exc


def _build_plan(args, src: JointSource):
    """The plan of `omska plan`, in any of PLAN_MODES."""
    if args.mode == "desk_exact":
        return _desk_plan(args, src)
    n = _need_n(args)
    ax = int(src.alphabet_sizes[0])
    if args.mode == "theorem_main":
        return plan_theorem_main(n, args.eps, args.sigma, entropy_profile(src), ax)
    if args.mode == "remark":
        return plan_remark(n, args.eps, args.sigma, entropy_profile(src), ax)
    raise UsageError(f"unknown plan mode {args.mode!r}")


def cmd_plan(args) -> int:
    src = _load_source(args)
    plan = _build_plan(args, src)
    _emit_json(args, asdict(plan))
    return EXIT_OK if plan.feasible else EXIT_CHECK_FAILED


def cmd_run(args) -> int:
    # the bound-driven modes never run a session: their lists exceed the
    # search budget, or their checks the field; a --config file can still
    # plant one past argparse's choices
    if args.mode != "desk_exact":
        raise UsageError(f"run takes desk_exact plans only, not mode {args.mode!r}")
    src = _load_source(args)
    plan = _desk_plan(args, src)
    if args.trials < 1:
        raise UsageError("--trials must be positive")
    seqs = np.random.SeedSequence(args.seed).spawn(args.trials)
    jobs = max(1, min(args.jobs, args.trials, os.cpu_count() or 1))
    if jobs == 1:
        counts = run_batch(src, plan, seqs)
    else:
        chunks = [seqs[i::jobs] for i in range(jobs)]
        counts = Counter()
        # imported here: multiprocessing adds about 2 MB to every process that
        # imports the CLI, and only a parallel run needs it
        from concurrent.futures import ProcessPoolExecutor
        with ProcessPoolExecutor(max_workers=jobs) as pool:
            for part in pool.map(run_batch, [src] * jobs, [plan] * jobs, chunks):
                counts.update(part)
    est = summarize_outcomes(counts, plan.eps)
    payload = asdict(est)
    payload["plan"] = asdict(plan)
    _emit_json(args, payload)
    return EXIT_OK if est.meets_target else EXIT_CHECK_FAILED


def cmd_verify(args) -> int:
    src = _load_source(args)
    plan = _desk_plan(args, src)
    try:
        report = secrecy_sd_exact(src, plan, seed_pairs=args.seed_pairs,
                                  rng_seed=args.seed,
                                  recon_seeds=args.recon_seeds)
    except ValueError as exc:
        raise UsageError(str(exc)) from exc
    payload = asdict(report)
    payload["plan"] = asdict(plan)
    _emit_json(args, payload)
    return EXIT_OK if report.meets_target else EXIT_CHECK_FAILED


def cmd_threshold(args) -> int:
    src = _load_source(args)
    profile = entropy_profile(src)
    ax = int(src.alphabet_sizes[0])
    ay = int(src.alphabet_sizes[1])
    names = list(BOUND_NAMES) if args.mode in (None, "all") else [args.mode]
    result = {}
    for name in names:
        result[name] = min_positive_n(name, args.eps, args.sigma, profile, ax, ay,
                                      ceiling=args.ceiling)
    _emit_json(args, result)
    return EXIT_OK if all(v is not None for v in result.values()) else EXIT_CHECK_FAILED


def _add_common(sub: argparse.ArgumentParser) -> None:
    sub.add_argument("--bsc", help="binary cascade source as 'p,q'")
    sub.add_argument("--source", help="JSON source description (file or inline)")
    sub.add_argument("--eps", type=float, default=0.05,
                     help="reliability target (default 0.05)")
    sub.add_argument("--sigma", type=float, default=0.05,
                     help="secrecy target (default 0.05)")
    sub.add_argument("--out", help="write output to this file instead of stdout")
    sub.add_argument("--format", choices=("csv", "json"), default="json",
                     help="output format (csv only for row output)")
    sub.add_argument("--config", help="JSON file with default values for long flags")


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="omska",
        description="finite-length planning, simulation, and verification of "
                    "one-message secret-key agreement")
    subs = parser.add_subparsers(dest="command", required=True)

    p_bounds = subs.add_parser("bounds", help="evaluate key-length bounds over n")
    _add_common(p_bounds)
    p_bounds.add_argument("--n", type=int, help="single block length")
    p_bounds.add_argument("--n-range", dest="n_range",
                          help="block-length sweep 'start:stop:step' (stop inclusive)")
    p_bounds.set_defaults(func=cmd_bounds)

    p_plan = subs.add_parser("plan", help="print session parameters")
    _add_common(p_plan)
    p_plan.add_argument("--n", type=int, help="block length")
    p_plan.add_argument("--mode", choices=PLAN_MODES, default="theorem_main")
    p_plan.set_defaults(func=cmd_plan)

    p_run = subs.add_parser("run", help="Monte Carlo reliability over sessions")
    _add_common(p_run)
    p_run.add_argument("--n", type=int, help="block length")
    p_run.add_argument("--mode", choices=("desk_exact",), default="desk_exact")
    p_run.add_argument("--trials", type=int, default=1000)
    p_run.add_argument("--seed", type=int, default=0)
    p_run.add_argument("--jobs", type=int, default=1,
                       help="worker processes for the trial loop")
    p_run.set_defaults(func=cmd_run)

    p_verify = subs.add_parser("verify", help="exact secrecy check (desk scale)")
    _add_common(p_verify)
    p_verify.add_argument("--n", type=int, help="block length")
    p_verify.add_argument("--seed", type=int, default=0,
                          help="rng seed for sampled seed pairs")
    p_verify.add_argument("--seed-pairs", dest="seed_pairs", type=int, default=None,
                          help="sample this many hash-seed pairs instead of "
                               "enumerating all of them")
    p_verify.add_argument("--recon-seeds", dest="recon_seeds", type=int, default=None,
                          help="sample this many reconciliation seeds, each "
                               "paired with every key seed")
    p_verify.set_defaults(func=cmd_verify)

    p_thresh = subs.add_parser("threshold", help="smallest n with a positive bound")
    _add_common(p_thresh)
    p_thresh.add_argument("--mode", default="all",
                          help="bound name or 'all' (default)")
    p_thresh.add_argument("--ceiling", type=int, default=10 ** 12,
                          help="give up above this block length")
    p_thresh.set_defaults(func=cmd_threshold)

    # subparsers re-parse into a fresh namespace, so config-file defaults
    # must be planted on each of them, not just on the root parser
    parser.omska_subparsers = {
        "bounds": p_bounds, "plan": p_plan, "run": p_run,
        "verify": p_verify, "threshold": p_thresh,
    }
    return parser


def _apply_config(parser: argparse.ArgumentParser, path: str) -> None:
    """Fold the values of the JSON config file at path into parser and its
    subcommands as defaults."""
    try:
        with open(path, "r", encoding="utf-8") as fh:
            config = json.load(fh)
    except (OSError, json.JSONDecodeError) as exc:
        raise UsageError(f"cannot load config {path!r}: {exc}") from exc
    if not isinstance(config, dict):
        raise UsageError(f"config {path!r} must hold a JSON object")
    defaults = {k.replace("-", "_"): v for k, v in config.items()}
    parser.set_defaults(**defaults)
    for sub in parser.omska_subparsers.values():
        sub.set_defaults(**defaults)


@functools.cache
def _shared_parser() -> argparse.ArgumentParser:
    """The parser of every call without --config, built on first use."""
    return build_parser()


def _parse(argv: list[str]) -> argparse.Namespace:
    """Parse argv.  argparse itself finds --config in any spelling it accepts
    (--config FILE, --config=FILE, an abbreviation); the file's values are
    planted as defaults on a parser of the call's own, which parses argv
    again, so later calls still see the built-in defaults."""
    args = _shared_parser().parse_args(argv)
    if args.config is None:
        return args
    parser = build_parser()
    _apply_config(parser, args.config)
    return parser.parse_args(argv)


def main(argv: list[str] | None = None) -> int:
    argv = list(sys.argv[1:] if argv is None else argv)
    try:
        try:
            args = _parse(argv)
        except SystemExit as exc:
            # argparse has printed the usage error, or the help, already
            return exc.code
        if args.format == "csv" and args.command != "bounds":
            raise UsageError("--format csv is only available for 'bounds'")
        return args.func(args)
    except UsageError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_USAGE
    except BudgetExceededError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_BUDGET
    except ArithmeticError as exc:
        # numerical failures, such as a threshold search whose crossing is
        # not locally monotone
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_CHECK_FAILED
    except ValueError as exc:
        # domain errors from the library: asked for impossible parameters
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_USAGE


if __name__ == "__main__":
    sys.exit(main())
