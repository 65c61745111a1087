"""Command-line behavior: formats, exit codes, config defaults, parallel runs."""

import ast
import json
import subprocess
import sys
import time
import tracemalloc
from collections import Counter
from pathlib import Path

import numpy as np
import pytest

import omska
from omska import cli, protocol, source, uhash, verifier
from omska.planner import PLAN_MODES

BSC = ["--bsc", "0.02,0.15"]
NAN_PMF = '{"alphabet_sizes": [2, 2, 2], "pmf": [NaN, 0, 0, 0, 0, 0, 0, 1]}'


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


def test_run_plans_a_ternary_symmetric_source(capsys):
    # X uniform on three symbols, Y and Z ternary symmetric channels of X:
    # every y holds one cost column of two costs, so run plans it at desk
    # scale; the secrecy audit still takes binary X and Z only
    def channel(err):
        return np.full((3, 3), err / 2) + np.eye(3) * (1 - 1.5 * err)
    pmf = np.einsum("x,xy,xz->xyz", np.full(3, 1 / 3), channel(0.03), channel(0.3))
    ternary = ["--source", json.dumps({"alphabet_sizes": [3, 3, 3],
                                       "pmf": pmf.ravel().tolist()})]
    code, out = _run(capsys, ["run", *ternary, "--n", "16", "--trials", "300", "--seed", "3"])
    est = json.loads(out)
    assert code == (0 if est["meets_target"] else 1)
    assert est["plan"]["list_size"] == 513 and est["plan"]["recon_bits"] == 15
    code, (out, err) = _run_err(capsys, ["verify", *ternary, "--n", "8"])
    assert code == 2 and out == ""
    assert err == "error: exact secrecy enumeration supports binary X and Z only\n"


def test_run_jobs_do_not_change_counts(capsys):
    argv = ["run", *BSC, "--n", "16", "--mode", "desk_exact", "--trials", "120",
            "--seed", "9"]
    _, out1 = _run(capsys, argv)
    _, out2 = _run(capsys, argv + ["--jobs", "2"])
    a, b = json.loads(out1), json.loads(out2)
    assert a["outcome_counts"] == b["outcome_counts"]
    assert a["failure_rate"] == b["failure_rate"]
    # trial i runs on the i-th child that SeedSequence(seed).spawn makes
    src = omska.bsc_chain(0.02, 0.15)
    plan = omska.plan_desk_exact(src, 16, 0.05, 0.05)
    spawned = Counter(protocol.run_session(src, plan, seq).outcome
                      for seq in np.random.SeedSequence(9).spawn(120))
    assert a["outcome_counts"] == dict(spawned)


def test_run_jobs_clamped_to_trials_and_cores(capsys, monkeypatch, inline_pool):
    monkeypatch.setattr(verifier.os, "cpu_count", lambda: 64)
    argv = ["run", *BSC, "--n", "16", "--mode", "desk_exact", "--trials", "3",
            "--seed", "5"]
    _, serial = _run(capsys, argv + ["--jobs", "1"])
    assert inline_pool == []
    _, wide = _run(capsys, argv + ["--jobs", "10000"])
    assert inline_pool == [3]
    assert json.loads(wide) == json.loads(serial)
    # and never more workers than cores
    monkeypatch.setattr(verifier.os, "cpu_count", lambda: 2)
    _, capped = _run(capsys, argv + ["--jobs", "10000"])
    assert inline_pool == [3, 2]
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


def test_verify_default_enumerates_every_pair(capsys):
    # the desk plans on the default cascade leave a 0-bit key from n = 9 to
    # 12, whose audit is charged nothing: each reports every seed pair, exact
    for n in range(9, 13):
        code, out = _run(capsys, ["verify", *BSC, "--n", str(n)])
        rep = json.loads(out)
        assert code == 0 and rep["key_bits"] == 0, n
        assert rep["exact"] is True and rep["seed_pairs"] == 4 ** n, n
        assert rep["std_error"] is None and rep["computed_cells"] == 0, n


def test_verify_over_budget_exits_3(capsys):
    # a noiseless receiver and a useless eavesdropper link plan (2, 10) at
    # n = 12: 2^24 seed pairs of 2^12 cells each charge 2^24 x 4097, which
    # the default budget refuses before anything is computed; so are 10^11
    # seed pairs, drawn (4 words a pair) or by reconciliation seed (1 word),
    # on its (2, 6) plan at n = 8
    keyed = ["--bsc", "0.0,0.5", "--eps", "0.5", "--sigma", "0.5"]
    for extra, charge in ((["--n", "12"], (1 << 24) * 4097),
                          (["--n", "8", "--seed-pairs", "100000000000"], 10 ** 11 * 260),
                          (["--n", "8", "--recon-seeds", "100000000000"], 10 ** 11 * 256 * 257)):
        code, (out, err) = _run_err(capsys, ["verify", *keyed, *extra])
        assert code == 3 and out == "", extra
        assert str(charge) in err and str(10 ** 8) in err, extra
    # a 0-bit key is charged nothing, and its 10^11 pairs are never drawn
    code, out = _run(capsys, ["verify", *BSC, "--n", "8", "--seed-pairs", "100000000000"])
    rep = json.loads(out)
    assert code == 0 and rep["key_bits"] == 0 and rep["sd"] == 0.0
    assert rep["seed_pairs"] == 10 ** 11 and rep["exact"] is False


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
        ["verify", *BSC, "--n", "8", "--seed-pairs", "0"],  # no seed pair
        ["verify", *BSC, "--n", "8", "--seed-pairs", "5", "--recon-seeds", "5"],
        ["bounds", "--source", "/no/such/file.json", "--n", "10"],
        ["plan", *BSC, "--n", "100", "--mode", "berry_esseen"],  # a bound, not a plan
        ["run", *BSC, "--n", "16", "--mode", "theorem_main"],  # run takes desk plans
        ["run", *BSC, "--n", "100", "--mode", "remark"],
        # past 2^53 floats skip integers; below the smallest normal float a
        # target's reciprocal overflows
        ["plan", *BSC, "--n", str(10 ** 400)],
        ["bounds", *BSC, "--n", str(10 ** 400)],
        ["plan", *BSC, "--n", str(2 ** 53 + 1)],
        ["bounds", *BSC, "--n-range", f"{2 ** 53 - 1}:{2 ** 53 + 2}:1"],
        ["plan", *BSC, "--n", "100", "--eps", "1e-320"],
        ["bounds", *BSC, "--n", "100", "--eps", "1e-320"],
        ["plan", *BSC, "--n", "100", "--mode", "remark", "--sigma", "1e-320"],
        ["threshold", *BSC, "--sigma", "1e-320"],
        ["run", *BSC, "--n", "8", "--mode", "desk_exact", "--eps", "1e-320"],
        # a NaN entry passes the sign and sum checks, as NaN compares false
        ["plan", "--source", NAN_PMF, "--n", "10"],
        ["run", "--source", NAN_PMF, "--n", "10", "--trials", "1"],
    ]
    for argv in bad_calls:
        code = cli.main(argv)
        capsys.readouterr()
        assert code == 2, argv


def test_tiny_targets_plan_cleanly(capsys):
    # eps = sigma = 1e-200 are normal floats, but eps_collide * margin^2
    # underflows to 0: the key length sums the logs instead of taking the log
    # of the product
    tiny = ["--eps", "1e-200", "--sigma", "1e-200"]
    for mode in ("theorem_main", "remark"):
        code, out = _run(capsys, ["plan", *BSC, "--n", "100", "--mode", mode, *tiny])
        plan = json.loads(out)
        # infeasible, so exit 1, not a usage error
        assert code == 1 and plan["key_bits"] == 0 and plan["key_real"] < -1000.0, mode
    code, out = _run(capsys, ["bounds", *BSC, "--n", "100", *tiny])
    assert code == 0 and out
    for mode, n_star in (("theorem_main", 121630), ("remark", 121592)):
        code, out = _run(capsys, ["threshold", *BSC, "--mode", mode, *tiny])
        assert code == 0 and json.loads(out) == {mode: n_star}


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


def test_config_values_are_typed_as_on_the_command_line(capsys, tmp_path):
    # each value is planted as its text, so argparse converts it through the
    # flag's type: a bad one exits 2 with argparse's message, no traceback
    def run(config, *argv):
        cfg = tmp_path / "cfg.json"
        cfg.write_text(json.dumps(config))
        return subprocess.run([sys.executable, "-m", "omska.cli", "run", *BSC, *argv,
                               "--config", str(cfg)], capture_output=True, text=True)

    for config in ({"n": 8.5}, {"n": 8, "trials": 2.5}, {"n": [8]}):
        proc = run(config)
        assert proc.returncode == 2 and proc.stdout == "", config
        assert "invalid int value" in proc.stderr and "Traceback" not in proc.stderr, config
    # a null leaves the built-in default
    proc = run({"eps": None}, "--n", "8", "--trials", "20")
    assert proc.returncode in (0, 1) and "Traceback" not in proc.stderr
    assert json.loads(proc.stdout)["plan"]["eps"] == 0.05
    # good values give the plan the flags give
    cfg = tmp_path / "good.json"
    cfg.write_text(json.dumps({"n": 8, "eps": 0.1}))
    flags = ["plan", *BSC, "--mode", "desk_exact"]
    assert _run(capsys, [*flags, "--config", str(cfg)]) == \
        _run(capsys, [*flags, "--n", "8", "--eps", "0.1"])


def test_config_keys_reach_only_the_flags_that_take_them(capsys, tmp_path):
    # a key that no flag takes, an internal dest or an unknown name, exits 2
    # naming it, before anything runs: a planted func would replace the handler
    cfg = tmp_path / "cfg.json"
    for config, named in (({"func": "x"}, "'func'"), ({"command": "run"}, "'command'"),
                          ({"bogus": 1}, "'bogus'"), ({"n": 8, "no-such": None}, "'no-such'")):
        cfg.write_text(json.dumps(config))
        code, (out, err) = _run_err(capsys, ["plan", *BSC, "--n", "8", "--config", str(cfg)])
        assert code == 2 and out == "", config
        assert err == f"error: config {str(cfg)!r}: no flag takes {named}\n", config
    # a key that some subcommand takes is planted on that one alone
    cfg.write_text(json.dumps({"n": 8, "trials": 5, "ceiling": 100}))
    args = cli._parse(["plan", *BSC, "--config", str(cfg)])
    assert args.n == 8 and not hasattr(args, "trials") and not hasattr(args, "ceiling")
    args = cli._parse(["threshold", *BSC, "--config", str(cfg)])
    assert args.ceiling == 100 and not hasattr(args, "n") and not hasattr(args, "trials")


def test_library_errors_exit_2_from_main(capsys):
    # library ValueErrors reach main unwrapped, which prints them and exits 2
    short = '{"alphabet_sizes": [2, 2, 2], "pmf": [0.5, 0.5]}'
    for argv, err in (
            (["plan", "--bsc", "0.7,0.1", "--n", "8"],
             "error: p must lie in [0, 1/2], got 0.7\n"),
            (["plan", "--source", short, "--n", "8"],
             "error: pmf must be a flat list of 8 entries (row-major x, y, z)\n"),
            (["verify", *BSC, "--n", "13"],
             "error: exact secrecy enumeration caps n at 12, got 13\n"),
            (["run", *BSC, "--n", "65"],
             "error: desk-exact planning supports 1 <= n <= 64, got 65\n")):
        assert _run_err(capsys, argv) == (2, ("", err)), argv


def test_public_surface():
    for name in omska.__all__:
        assert getattr(omska, name) is not None, name
    gone = ((protocol, "alice_send"), (verifier, "avg_min_entropy_exact"),
            (source, "detect_bsc_chain"), (source, "hamming_ball_size"),
            (source, "crossover_convolve"), (source, "binary_entropy"),
            (verifier, "run_batch"), (uhash.SeedHasher, "symbol_table"),
            (uhash, "_seed_bases"), (protocol, "_slot_starts"))
    for module, name in gone:
        assert name not in omska.__all__ and not hasattr(omska, name)
        assert not hasattr(module, name)
    actions = cli.build_parser().omska_subparsers["plan"]._actions
    assert next(a for a in actions if a.dest == "mode").choices == PLAN_MODES
    # berry_esseen stays a bound name: test_threshold_single_bound runs it


def test_no_private_cross_module_imports():
    # a module's private names are its own: no relative import in the
    # package brings in a name that starts with an underscore
    found = []
    for path in sorted(Path(omska.__file__).parent.glob("*.py")):
        for node in ast.walk(ast.parse(path.read_text(), filename=str(path))):
            if isinstance(node, ast.ImportFrom) and node.level > 0:
                found += [(path.name, node.module, alias.name) for alias in node.names
                          if alias.name.startswith("_")]
    assert found == []


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
    # only a parallel run needs the process pool, and only a normal quantile
    # needs statistics (with decimal and fractions); importing stays lean
    for module in ("omska", "omska.cli"):
        proc = subprocess.run([sys.executable, "-c",
                               f"import {module}, sys; "
                               "print([m in sys.modules for m in "
                               "('multiprocessing', 'statistics')])"],
                              capture_output=True, text=True)
        assert proc.returncode == 0 and proc.stdout.strip() == "[False, False]", module
