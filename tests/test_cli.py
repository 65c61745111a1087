"""Command-line behavior: formats, exit codes, config defaults, parallel runs."""

import concurrent.futures
import json
import subprocess
import sys
import time
import tracemalloc

import pytest

import omska
from omska import cli, protocol, verifier
from omska.planner import PLAN_MODES

BSC = ["--bsc", "0.02,0.15"]


def _run(capsys, argv):
    code = cli.main(argv)
    captured = capsys.readouterr()
    return code, captured.out


def _run_err(capsys, argv):
    code = cli.main(argv)
    captured = capsys.readouterr()
    return code, (captured.out, captured.err)


def test_bounds_csv_shape(capsys):
    code, out = _run(capsys, ["bounds", *BSC, "--n-range", "1000:3000:1000",
                              "--format", "csv"])
    assert code == 0
    lines = out.strip().split("\n")
    assert lines[0] == "bound_name,n,eps,sigma,value_bits,rate"
    assert len(lines) == 1 + 1 + 5 * 3  # header, capacity, five bounds x three n
    cap = lines[1].split(",")
    assert cap[0] == "capacity" and cap[4] == ""
    assert float(cap[5]) == pytest.approx(0.502353, abs=1e-6)
    assert lines[2].startswith("theorem_main,1000,")
    assert lines[-1].startswith("hr_concat,3000,")


def test_bounds_json_values(capsys):
    code, out = _run(capsys, ["bounds", *BSC, "--n", "2000"])
    assert code == 0
    rows = json.loads(out)
    assert len(rows) == 6
    by_name = {r["bound_name"]: r for r in rows}
    assert by_name["capacity"]["value_bits"] is None
    assert by_name["theorem_main"]["value_bits"] == pytest.approx(316.7244, abs=1e-3)
    assert by_name["berry_esseen"]["rate"] == pytest.approx(854.1705 / 2000, abs=1e-6)
    assert by_name["hr_linear"]["value_bits"] == 0.0


def test_plan_feasible_exit_codes(capsys):
    code, out = _run(capsys, ["plan", *BSC, "--n", "1000"])
    assert code == 0
    plan = json.loads(out)
    assert plan["mode"] == "theorem_main"
    assert plan["key_bits"] == 5 and plan["feasible"] is True
    code, out = _run(capsys, ["plan", *BSC, "--n", "900"])
    assert code == 1
    assert json.loads(out)["feasible"] is False


def test_plan_desk_mode(capsys):
    code, out = _run(capsys, ["plan", *BSC, "--n", "32", "--mode", "desk_exact"])
    assert code == 1  # desk scale never clears 1 key bit at these targets
    plan = json.loads(out)
    assert plan["ball_radius"] == 3 and plan["list_size"] == 5489
    assert plan["recon_bits"] == 18


def test_run_reports_and_exit_matches_meets(capsys):
    argv = ["run", *BSC, "--n", "16", "--mode", "desk_exact", "--trials", "300",
            "--seed", "3"]
    code, out = _run(capsys, argv)
    est = json.loads(out)
    assert est["trials"] == 300
    assert sum(est["outcome_counts"].values()) == 300
    assert est["plan"]["n"] == 16
    assert code == (0 if est["meets_target"] else 1)
    assert est["wilson_lower"] <= est["failure_rate"] <= est["wilson_upper"]


def test_run_jobs_do_not_change_counts(capsys):
    argv = ["run", *BSC, "--n", "16", "--mode", "desk_exact", "--trials", "120",
            "--seed", "9"]
    _, out1 = _run(capsys, argv)
    _, out2 = _run(capsys, argv + ["--jobs", "2"])
    a, b = json.loads(out1), json.loads(out2)
    assert a["outcome_counts"] == b["outcome_counts"]
    assert a["failure_rate"] == b["failure_rate"]


class _InlineExecutor:
    """Stands in for ProcessPoolExecutor: records max_workers, maps in-process."""

    requested = []

    def __init__(self, max_workers):
        self.requested.append(max_workers)

    def __enter__(self):
        return self

    def __exit__(self, *exc):
        return False

    def map(self, fn, *iterables):
        return map(fn, *iterables)


def test_run_jobs_clamped_to_trials_and_cores(capsys, monkeypatch):
    monkeypatch.setattr(concurrent.futures, "ProcessPoolExecutor", _InlineExecutor)
    monkeypatch.setattr(cli.os, "cpu_count", lambda: 64)
    _InlineExecutor.requested.clear()
    argv = ["run", *BSC, "--n", "16", "--mode", "desk_exact", "--trials", "3",
            "--seed", "5"]
    _, serial = _run(capsys, argv + ["--jobs", "1"])
    assert _InlineExecutor.requested == []
    _, wide = _run(capsys, argv + ["--jobs", "10000"])
    assert _InlineExecutor.requested == [3]
    assert json.loads(wide) == json.loads(serial)
    # and never more workers than cores
    monkeypatch.setattr(cli.os, "cpu_count", lambda: 2)
    _, capped = _run(capsys, argv + ["--jobs", "10000"])
    assert _InlineExecutor.requested == [3, 2]
    assert json.loads(capped) == json.loads(serial)


def test_verify_uniform_block(capsys):
    code, out = _run(capsys, ["verify", "--bsc", "0.5,0.5", "--n", "4",
                              "--eps", "0.5", "--sigma", "0.5"])
    assert code == 0
    rep = json.loads(out)
    assert rep["exact"] is True
    assert rep["key_bits"] == 0 and rep["sd"] == 0.0 and rep["cells"] == 0
    assert rep["avg_min_entropy"] == pytest.approx(4.0)
    assert rep["plan"]["mode"] == "desk_exact"


def test_verify_reports_cells(capsys):
    # a noiseless receiver and a useless eavesdropper link leave a 4-bit key
    # at n = 6: every seed pair's 2^(t + l) (check, key) cells are counted
    code, out = _run(capsys, ["verify", "--bsc", "0.0,0.5", "--n", "6",
                              "--eps", "0.5", "--sigma", "0.5"])
    rep = json.loads(out)
    assert (rep["recon_bits"], rep["key_bits"], rep["seed_pairs"]) == (2, 4, 4096)
    assert rep["cells"] == 4096 << 6
    assert code == (0 if rep["meets_target"] else 1)


def test_verify_sampled_pairs(capsys):
    code, out = _run(capsys, ["verify", *BSC, "--n", "9", "--seed-pairs", "50",
                              "--seed", "7"])
    rep = json.loads(out)
    assert rep["exact"] is False and rep["seed_pairs"] == 50
    t, ell = rep["recon_bits"], rep["key_bits"]
    assert rep["cells"] == (0 if ell == 0 else 50 << (t + ell))
    assert rep["std_error"] is not None
    assert code == (0 if rep["meets_target"] else 1)


def test_verify_sampled_recon_seeds(capsys):
    code, out = _run(capsys, ["verify", *BSC, "--n", "9", "--recon-seeds", "8",
                              "--seed", "7"])
    rep = json.loads(out)
    assert rep["exact"] is False and rep["seed_pairs"] == 8 * 512
    assert rep["std_error"] is not None
    assert code == (0 if rep["meets_target"] else 1)


def test_threshold_single_bound(capsys):
    code, out = _run(capsys, ["threshold", *BSC, "--mode", "berry_esseen"])
    assert code == 0
    assert json.loads(out) == {"berry_esseen": 67}
    code, out = _run(capsys, ["threshold", *BSC, "--mode", "hr_linear"])
    assert code == 0
    assert json.loads(out) == {"hr_linear": 2219549}


def test_threshold_all_with_ceiling(capsys):
    code, out = _run(capsys, ["threshold", *BSC, "--mode", "hr_linear",
                              "--ceiling", "1000000"])
    assert code == 1
    assert json.loads(out) == {"hr_linear": None}
    code, out = _run(capsys, ["threshold", *BSC])
    assert code == 0
    result = json.loads(out)
    assert set(result) == {"theorem_main", "remark", "berry_esseen", "hr_linear",
                           "hr_concat"}
    assert result["hr_concat"] == 1143045317
    assert 900 < result["theorem_main"] <= 1000


def test_threshold_ceiling_below_least_n(capsys):
    # a bad ceiling is bad usage (exit 2), not a failed check
    for ceiling in ("1", "0", "-5"):
        code, out = _run_err(capsys, ["threshold", *BSC, "--ceiling", ceiling])
        assert code == 2 and out[0] == ""
        assert out[1] == f"error: ceiling must be at least 2, got {ceiling}\n"
    for ceiling in ("2", "3"):
        code, out = _run(capsys, ["threshold", *BSC, "--ceiling", ceiling])
        assert code == 1
        assert set(json.loads(out).values()) == {None}


def test_bounds_refuses_a_huge_sweep(capsys):
    # the sweep is counted, not built: a billion points exit 2 at once
    tracemalloc.start()
    try:
        start = time.perf_counter()
        code, (out, err) = _run_err(capsys, ["bounds", *BSC, "--n-range", "1:1000000000:1"])
        elapsed = time.perf_counter() - start
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert code == 2 and out == ""
    assert "1000000000 points" in err and "10000" in err
    assert elapsed < 1.0 and peak < 1 << 20
    # a range too long for len() is counted all the same
    assert cli.main(["bounds", *BSC, "--n-range", f"1:{10 ** 30}:1"]) == 2
    assert "points" in capsys.readouterr().err
    # the cap itself is allowed
    assert len(cli._parse_n_range("2:20000:2")) == cli.MAX_SWEEP_POINTS == 10_000


def test_threshold_checks_inputs_like_bounds(capsys):
    # a noiseless receiver has zero conditional variance: the normal
    # approximation is undefined, for the search as for the bound itself
    assert cli.main(["threshold", "--bsc", "0,0.15", "--mode", "berry_esseen"]) == 2
    threshold_err = capsys.readouterr().err
    assert cli.main(["bounds", "--bsc", "0,0.15", "--n", "27"]) == 2
    bounds_err = capsys.readouterr().err
    assert "positive conditional variances" in threshold_err
    assert threshold_err == bounds_err


def test_threshold_search_error_exits_cleanly(capsys, monkeypatch):
    # a crossing that fails the search's local check ends in an error line
    # and exit 1, not a traceback
    def not_monotone(*args, **kwargs):
        raise ArithmeticError("positivity crossing not locally monotone near n=42")

    monkeypatch.setattr(cli, "min_positive_n", not_monotone)
    code = cli.main(["threshold", *BSC, "--mode", "remark"])
    captured = capsys.readouterr()
    assert code == 1
    assert captured.out == ""
    assert captured.err == "error: positivity crossing not locally monotone near n=42\n"


def test_usage_errors_exit_2(capsys):
    bad_calls = [
        ["bounds", "--n", "100"],                       # no source
        ["bounds", *BSC],                              # no n
        ["bounds", "--bsc", "0.02", "--n", "100"],     # malformed pair
        ["bounds", *BSC, "--source", "x.json", "--n", "100"],  # both sources
        ["plan", *BSC, "--n", "100", "--format", "csv"],  # csv not row output
        ["bounds", *BSC, "--n-range", "10:5:1"],       # empty range
        ["bounds", *BSC, "--n-range", "10:20"],        # wrong arity
        ["threshold", *BSC, "--mode", "nope"],
        ["plan", *BSC, "--n", "100", "--eps", "2.0"],  # library domain error
        ["verify", *BSC, "--n", "13"],                 # over the exact-n cap
        ["verify", *BSC, "--n", "8", "--seed-pairs", "100000000000"],  # over 2^24
        ["verify", *BSC, "--n", "8", "--recon-seeds", "100000000000"],  # seed pairs
        ["bounds", "--source", "/no/such/file.json", "--n", "10"],
        ["plan", *BSC, "--n", "100", "--mode", "berry_esseen"],  # a bound, not a plan
        ["run", *BSC, "--n", "16", "--mode", "theorem_main"],  # run takes desk plans
        ["run", *BSC, "--n", "100", "--mode", "remark"],
    ]
    for argv in bad_calls:
        code = cli.main(argv)
        capsys.readouterr()
        assert code == 2, argv


def test_inline_source_json(capsys):
    desc = json.dumps({"generator": "bsc_chain", "p": 0.02, "q": 0.15})
    code, out = _run(capsys, ["plan", "--source", desc, "--n", "1000"])
    assert code == 0
    assert json.loads(out)["key_bits"] == 5


def test_budget_exit_3(capsys, monkeypatch):
    monkeypatch.setenv("OMSKA_BUDGET", "10")
    code = cli.main(["run", *BSC, "--n", "32", "--mode", "desk_exact",
                     "--trials", "1"])
    capsys.readouterr()
    assert code == 3


def test_config_defaults_and_precedence(capsys, tmp_path):
    cfg = tmp_path / "cfg.json"
    cfg.write_text(json.dumps({"bsc": "0.02,0.15", "n": 1000}))
    code, out = _run(capsys, ["plan", "--config", str(cfg)])
    assert code == 0
    assert json.loads(out)["n"] == 1000
    # explicit flag beats the config value
    code, out = _run(capsys, ["plan", "--config", str(cfg), "--n", "2000"])
    assert code == 0
    assert json.loads(out)["n"] == 2000


def test_config_does_not_leak_between_calls(capsys, tmp_path, monkeypatch):
    # calls without --config share one parser, built on first use; a --config
    # call builds its own, so its defaults never reach a later call
    builds = []
    build = cli.build_parser

    def counted():
        builds.append(1)
        return build()

    monkeypatch.setattr(cli, "build_parser", counted)
    cli._shared_parser.cache_clear()
    argv = ["plan", *BSC, "--n", "1000"]
    first = _run(capsys, argv)
    assert json.loads(first[1])["eps"] == 0.05 and len(builds) == 1
    cfg = tmp_path / "cfg.json"
    cfg.write_text(json.dumps({"eps": 0.2, "mode": "remark"}))
    _, out = _run(capsys, [*argv, "--config", str(cfg)])
    assert json.loads(out)["eps"] == 0.2 and json.loads(out)["mode"] == "remark"
    assert len(builds) == 2
    assert _run(capsys, argv) == first and len(builds) == 2


def test_config_every_spelling_is_read(capsys, tmp_path):
    # argparse takes --config FILE, --config=FILE and any unambiguous
    # abbreviation, each with or without "="; every one of them is read
    cfg = tmp_path / "cfg.json"
    cfg.write_text(json.dumps({"n": 1000, "eps": 0.2}))
    for flags in (["--config", str(cfg)], [f"--config={cfg}"], ["--conf", str(cfg)],
                  [f"--co={cfg}"]):
        code, out = _run(capsys, ["plan", *BSC, *flags])
        assert code == 0, flags
        plan = json.loads(out)
        assert plan["n"] == 1000 and plan["eps"] == 0.2, flags
    # a prefix that argparse finds ambiguous (--ceiling, --config) exits 2
    assert cli.main(["threshold", *BSC, "--c", str(cfg)]) == 2
    assert "ambiguous option: --c" in capsys.readouterr().err


def test_config_errors(capsys, tmp_path):
    assert cli.main(["plan", "--config"]) == 2
    assert "--config: expected one argument" in capsys.readouterr().err
    assert cli.main(["plan", "--config="]) == 2
    assert "cannot load config ''" in capsys.readouterr().err
    missing = tmp_path / "absent.json"
    assert cli.main(["plan", "--config", str(missing)]) == 2
    capsys.readouterr()
    bad = tmp_path / "list.json"
    bad.write_text("[1, 2]")
    assert cli.main(["plan", "--config", str(bad)]) == 2
    capsys.readouterr()
    # argparse does not check planted defaults against --mode's choices; run
    # names the planted mode before it looks for a source or builds a plan
    for mode in ("bogus", "remark"):
        planted = tmp_path / f"{mode}.json"
        planted.write_text(json.dumps({"mode": mode}))
        assert cli.main(["run", "--config", str(planted)]) == 2
        assert f"not mode {mode!r}" in capsys.readouterr().err


def test_public_surface():
    for name in omska.__all__:
        assert getattr(omska, name) is not None, name
    for module, name in ((protocol, "alice_send"), (verifier, "avg_min_entropy_exact")):
        assert name not in omska.__all__ and not hasattr(omska, name)
        assert not hasattr(module, name)
    actions = cli.build_parser().omska_subparsers["plan"]._actions
    assert next(a for a in actions if a.dest == "mode").choices == PLAN_MODES
    # berry_esseen stays a bound name: test_threshold_single_bound runs it


def test_out_writes_file(capsys, tmp_path):
    target = tmp_path / "rows.json"
    code, out = _run(capsys, ["bounds", *BSC, "--n", "1000", "--out", str(target)])
    assert code == 0
    assert out == ""
    rows = json.loads(target.read_text())
    assert len(rows) == 6


def test_source_file_argument(capsys, tmp_path):
    src_file = tmp_path / "src.json"
    src_file.write_text(json.dumps({"generator": "bsc_chain", "p": 0.02,
                                    "q": 0.15}))
    code, out = _run(capsys, ["plan", "--source", str(src_file), "--n", "1000"])
    assert code == 0
    assert json.loads(out)["feasible"] is True


def test_console_script_runs():
    proc = subprocess.run([sys.executable, "-c",
                           "import omska.cli, sys; "
                           "sys.exit(omska.cli.main(['bounds', '--bsc', '0.02,0.15', "
                           "'--n', '1000']))"],
                          capture_output=True, text=True)
    assert proc.returncode == 0
    assert json.loads(proc.stdout)[0]["bound_name"] == "capacity"


def test_cli_import_leaves_multiprocessing_unloaded():
    # only a parallel run needs the process pool; importing the CLI stays lean
    proc = subprocess.run([sys.executable, "-c",
                           "import omska.cli, sys; print('multiprocessing' in sys.modules)"],
                          capture_output=True, text=True)
    assert proc.returncode == 0 and proc.stdout.strip() == "False"
