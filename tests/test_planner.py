"""Planners and bounds: closed forms, frozen values, search, desk-scale plan."""

import math
import sys
from dataclasses import asdict

import numpy as np
import pytest
import scipy.special
import scipy.stats
from hypothesis import given, settings
from hypothesis import strategies as st

from cascade_oracles import detect_bsc_chain, hamming_ball_size
from omska import planner
from omska.planner import (BOUND_NAMES, MIN_PLAN_N, PLAN_MODES, Plan, bound_berry_esseen,
                           bound_hr_concatenated, bound_hr_random_linear, bound_remark,
                           bound_report, bound_sweep, bound_theorem_main, comm_cost,
                           min_positive_n, plan_desk_exact, plan_remark, plan_theorem_main,
                           qfunc, qfunc_inv)
from omska.protocol import guess_set
from omska.source import PMF_TOL, JointSource, bsc_chain, entropy_profile
from omska.uhash import BitString, GFContext, hash as uhf_hash
from omska.verifier import avg_min_entropy_product

CHAIN = bsc_chain(0.02, 0.15)
PROF = entropy_profile(CHAIN)
EPS = SIGMA = 0.05

# key lengths on the reference source, frozen from a 40-digit evaluation
FROZEN_MAIN = {900: -20.417, 1000: 5.9951, 2000: 316.7244, 4000: 1051.662,
               10000: 3532.495, 20000: 7956.4873}
FROZEN_REMARK = {900: -30.3473, 1000: -4.9975, 2000: 296.8269, 4000: 1018.5934,
                 10000: 3472.4486, 20000: 7865.486}
FROZEN_NORMAL = {900: 347.4489, 1000: 392.5907, 2000: 854.1705, 4000: 1801.836,
                 10000: 4703.7712, 20000: 9601.6085}
FROZEN_RATES = {10 ** 4: 0.470377116115, 10 ** 5: 0.492622470208,
                10 ** 6: 0.499324810993, 10 ** 7: 0.501401354506,
                10 ** 8: 0.502052753252}


def test_qfunc_inv_matches_scipy():
    for p in (1e-9, 1e-6, 1e-4, 0.01, 0.025, 0.05, 0.3, 0.5, 0.7, 0.99, 1 - 1e-6):
        expect = -float(scipy.special.ndtri(p))
        assert qfunc_inv(p) == pytest.approx(expect, abs=1e-9)
    assert qfunc_inv(0.05) == pytest.approx(1.6448536269514729, abs=1e-12)
    assert qfunc_inv(0.025) == pytest.approx(1.9599639845400545, abs=1e-12)


def test_qfunc_inv_within_ulps_of_scipy():
    # p log-spaced from 1e-307 to 1/2, and p just below 1/2, where the
    # quantile is near 0 and only a relative error shows: within 4e-15
    # relative of scipy's isf
    ps = np.concatenate([np.logspace(-307, math.log10(0.5), 5000)[:-1],
                         0.5 - np.logspace(-12, -1, 200)])
    expect = scipy.stats.norm.isf(ps)
    got = np.array([qfunc_inv(float(p)) for p in ps])
    assert np.max(np.abs(got - expect) / np.abs(expect)) <= 4e-15
    assert qfunc_inv(0.5) == 0.0
    assert math.isfinite(qfunc_inv(sys.float_info.min))


def test_qfunc_roundtrip():
    for p in (1e-8, 1e-3, 0.2, 0.5, 0.8, 1 - 1e-5):
        assert qfunc(qfunc_inv(p)) == pytest.approx(p, rel=1e-12, abs=1e-15)


def test_qfunc_inv_rejects_out_of_range():
    for bad in (0.0, 1.0, -0.2, 1.5):
        with pytest.raises(ValueError):
            qfunc_inv(bad)


def test_main_plan_matches_substituted_closed_form():
    # transcribe the fully substituted key-length expression and compare
    log_alpha = math.log2(2 + 3)
    for n in (900, 1000, 2000, 4000, 10000, 20000):
        for eps, sigma in [(0.05, 0.05), (0.01, 0.02), (0.2, 0.001)]:
            plan = plan_theorem_main(n, eps, sigma, PROF, 2)
            expect = (n * (PROF.h_x_given_z - PROF.h_x_given_y) + 2
                      + math.log2(eps * sigma ** 2 / n ** 3)
                      - math.sqrt(2 * n) * log_alpha
                      * (math.sqrt(math.log2(n / ((n - 1) * eps)))
                         + math.sqrt(math.log2(2 * n / ((n - 1) * sigma)))))
            assert plan.key_real == pytest.approx(expect, rel=1e-9, abs=1e-9)


def test_remark_plan_matches_general_form():
    log_alpha = math.log2(2 + 3)
    for n in (1000, 4000, 20000):
        plan = plan_remark(n, EPS, SIGMA, PROF, 2)
        rt, rt4 = math.sqrt(n), n ** 0.25
        e1 = (rt - 1) / (2 * rt) * EPS
        e2 = EPS / rt
        ep = (rt4 - 1) / (2 * rt4) * SIGMA
        expect = (n * (PROF.h_x_given_z - PROF.h_x_given_y) + 2
                  + math.log2(e2 * (SIGMA - 2 * ep) ** 2)
                  - math.sqrt(2 * n) * log_alpha
                  * (math.sqrt(math.log2(1 / ep)) + math.sqrt(math.log2(1 / e1))))
        assert plan.key_real == pytest.approx(expect, rel=1e-9, abs=1e-9)


def test_frozen_key_length_ladders():
    for n, expect in FROZEN_MAIN.items():
        assert plan_theorem_main(n, EPS, SIGMA, PROF, 2).key_real == \
            pytest.approx(expect, abs=2e-3)
    for n, expect in FROZEN_REMARK.items():
        assert plan_remark(n, EPS, SIGMA, PROF, 2).key_real == \
            pytest.approx(expect, abs=2e-3)
    for n, expect in FROZEN_NORMAL.items():
        got = bound_berry_esseen(n, EPS, SIGMA, PROF).value_bits
        assert got == pytest.approx(expect, abs=2e-3)


def test_plan_structure_invariants():
    for n in (1000, 5000, 20000):
        plan = plan_theorem_main(n, EPS, SIGMA, PROF, 2)
        assert plan.eps_miss + plan.eps_collide <= EPS + 1e-12
        assert plan.eps_smooth < SIGMA / 2
        assert plan.list_log_threshold == pytest.approx(
            n * (PROF.h_x_given_y + plan.miss_slack), rel=1e-12)
        assert plan.recon_bits == math.ceil(
            plan.list_log_threshold - math.log2(plan.eps_collide))
        assert plan.key_bits == max(0, math.floor(plan.key_real))
        assert plan.feasible == (plan.key_bits >= 1)


def test_feasibility_transition():
    assert not plan_theorem_main(900, EPS, SIGMA, PROF, 2).feasible
    plan = plan_theorem_main(1000, EPS, SIGMA, PROF, 2)
    assert plan.feasible and plan.key_bits == 5


def test_recon_bits_frozen_at_10k():
    plan = plan_theorem_main(10 ** 4, EPS, SIGMA, PROF, 2)
    assert plan.recon_bits == 2115
    assert plan.list_log_threshold == pytest.approx(2097.0738, abs=1e-3)


def test_bound_reports_clamped_nonnegative():
    rep = bound_remark(900, EPS, SIGMA, PROF, 2)
    assert rep.value_bits == 0.0 and rep.rate == 0.0
    assert not rep.details["feasible"]
    rep2 = bound_theorem_main(2000, EPS, SIGMA, PROF, 2)
    assert rep2.value_bits > 0 and rep2.rate == rep2.value_bits / 2000


def test_normal_approx_rates_frozen_and_monotone():
    prev = 0.0
    for n, expect in FROZEN_RATES.items():
        rate = bound_berry_esseen(n, EPS, SIGMA, PROF).rate
        assert rate == pytest.approx(expect, abs=1e-10)
        assert rate > prev
        prev = rate


def test_normal_approx_rate_approaches_entropy_gap():
    cap = PROF.h_x_given_z - PROF.h_x_given_y
    gaps = [abs(cap - bound_berry_esseen(n, EPS, SIGMA, PROF).rate)
            for n in (10 ** 4, 10 ** 5, 10 ** 6, 10 ** 7, 10 ** 8)]
    assert all(a > b for a, b in zip(gaps, gaps[1:]))
    assert gaps[-1] < 5e-4


def test_normal_approx_strict_details():
    rep = bound_berry_esseen(2000, EPS, SIGMA, PROF)
    det = rep.details
    rn = math.sqrt(2000)
    theta = (1 + 3 * PROF.rho_x_given_y / PROF.var_x_given_y ** 1.5) / rn
    assert det["theta_n"] == pytest.approx(theta, rel=1e-12)
    assert det["eta_n"] == pytest.approx(2 / rn, rel=1e-12)
    # on this source the finite-n correction exceeds eps until n is huge
    assert det["strict_ok"] is False
    assert det["strict_value_bits"] is None

    big = bound_berry_esseen(200000, EPS, SIGMA, PROF)
    assert big.details["strict_ok"] is True
    assert big.details["strict_value_bits"] < big.value_bits


def test_ordering_on_reference_grid():
    # observed ordering on this source: normal approx above both hash plans,
    # and the aggressive split above the conservative one throughout
    for n in range(2000, 20001, 2000):
        main = plan_theorem_main(n, EPS, SIGMA, PROF, 2).key_real
        rem = plan_remark(n, EPS, SIGMA, PROF, 2).key_real
        normal = bound_berry_esseen(n, EPS, SIGMA, PROF).value_bits
        assert main > rem
        assert normal > main
        assert normal / n < PROF.h_x_given_z - PROF.h_x_given_y


def test_hr_linear_values():
    rep = bound_hr_random_linear(2000, EPS, SIGMA, PROF, 2, 2)
    assert rep.details["penalty_sqrt_n"] == pytest.approx(748.412908157925, abs=1e-9)
    assert rep.value_bits == 0.0
    assert "small_n_caution" not in rep.details
    small = bound_hr_random_linear(50, EPS, SIGMA, PROF, 2, 2)
    assert "small_n_caution" in small.details
    big = bound_hr_random_linear(3 * 10 ** 6, EPS, SIGMA, PROF, 2, 2)
    expect = 3e6 * (PROF.h_x_given_z - PROF.h_x_given_y) - math.sqrt(3e6) * 748.412908157925
    assert big.value_bits == pytest.approx(expect, rel=1e-12)


def test_hr_concat_values():
    rep = bound_hr_concatenated(2000, EPS, SIGMA, PROF, 2, 2)
    assert rep.details["penalty_n34"] == pytest.approx(92.2782517987921, abs=1e-9)
    assert rep.details["penalty_sqrt_n"] == pytest.approx(16.631397959065, abs=1e-9)
    assert rep.value_bits == 0.0


def test_hr_preconditions():
    for eps, sigma in [(0.25, 0.05), (0.05, 0.3), (0.5, 0.5)]:
        with pytest.raises(ValueError, match="1/4"):
            bound_hr_random_linear(1000, eps, sigma, PROF, 2, 2)
        with pytest.raises(ValueError, match="1/4"):
            bound_hr_concatenated(1000, eps, sigma, PROF, 2, 2)


def test_min_positive_n_frozen_crossings():
    assert min_positive_n("hr_linear", EPS, SIGMA, PROF, 2, 2) == 2219549
    assert min_positive_n("hr_concat", EPS, SIGMA, PROF, 2, 2) == 1143045317
    assert min_positive_n("berry_esseen", EPS, SIGMA, PROF, 2, 2) == 67
    n_main = min_positive_n("theorem_main", EPS, SIGMA, PROF, 2, 2)
    assert 900 < n_main <= 1000
    assert plan_theorem_main(n_main, EPS, SIGMA, PROF, 2).key_real > 0
    assert plan_theorem_main(n_main - 1, EPS, SIGMA, PROF, 2).key_real <= 0


def test_min_positive_n_none_when_gap_zero():
    # equal conditional entropies: no bound ever turns positive
    flat = entropy_profile(bsc_chain(0.02, 0.0))
    assert flat.h_x_given_z == pytest.approx(flat.h_x_given_y, abs=1e-12)
    assert min_positive_n("hr_linear", EPS, SIGMA, flat, 2, 2, ceiling=10 ** 6) is None


def test_min_positive_n_checks_inputs_like_the_bound():
    with pytest.raises(ValueError, match="1/4") as from_bound:
        bound_hr_random_linear(1000, 0.3, 0.05, PROF, 2, 2)
    with pytest.raises(ValueError, match="1/4") as from_search:
        min_positive_n("hr_linear", 0.3, 0.05, PROF, 2, 2)
    assert str(from_search.value) == str(from_bound.value)
    noiseless = entropy_profile(bsc_chain(0.0, 0.15))
    with pytest.raises(ValueError, match="positive conditional variances"):
        min_positive_n("berry_esseen", EPS, SIGMA, noiseless, 2, 2)
    with pytest.raises(ValueError, match="sigma"):
        min_positive_n("theorem_main", EPS, 1.5, PROF, 2, 2)


@settings(max_examples=25, deadline=None)
@given(p=st.floats(0.005, 0.2), q=st.floats(0.05, 0.3),
       eps=st.floats(0.01, 0.2), sigma=st.floats(0.01, 0.2))
def test_min_positive_n_is_the_bounds_crossing(p, q, eps, sigma):
    prof = entropy_profile(bsc_chain(p, q))
    for name in BOUND_NAMES:
        n_star = min_positive_n(name, eps, sigma, prof, 2, 2)
        if n_star is None:  # no crossing at or below the default ceiling
            assert bound_report(name, 10 ** 12, eps, sigma, prof, 2, 2).value_bits == 0.0
            continue
        assert bound_report(name, n_star, eps, sigma, prof, 2, 2).value_bits > 0.0, name
        if n_star - 1 >= 2:
            assert bound_report(name, n_star - 1, eps, sigma, prof, 2, 2).value_bits \
                == 0.0, name


def test_bound_report_dispatch():
    assert BOUND_NAMES == ("theorem_main", "remark", "berry_esseen", "hr_linear",
                           "hr_concat")
    assert bound_report("theorem_main", 2000, EPS, SIGMA, PROF, 2, 2) == \
        bound_theorem_main(2000, EPS, SIGMA, PROF, 2)
    assert bound_report("berry_esseen", 2000, EPS, SIGMA, PROF, 2, 2) == \
        bound_berry_esseen(2000, EPS, SIGMA, PROF)
    assert bound_report("hr_concat", 2000, EPS, SIGMA, PROF, 2, 2) == \
        bound_hr_concatenated(2000, EPS, SIGMA, PROF, 2, 2)
    with pytest.raises(ValueError, match="unknown bound"):
        bound_report("nothing", 2000, EPS, SIGMA, PROF, 2, 2)


def test_min_positive_n_rejects_unknown():
    with pytest.raises(ValueError):
        min_positive_n("nothing", EPS, SIGMA, PROF, 2, 2)
    with pytest.raises(ValueError):
        min_positive_n("hr_linear", EPS, SIGMA, PROF, 2, 2, ceiling=10 ** 13)


def test_min_positive_n_ceiling_below_least_n(evaluations):
    # a ceiling below MIN_PLAN_N is refused by name before any evaluation,
    # where 0 would divide by zero and -5 take the square root of a negative
    for ceiling in (1, 0, -5):
        for name in BOUND_NAMES:
            with pytest.raises(ValueError, match=f"ceiling must be at least 2, got {ceiling}"):
                min_positive_n(name, EPS, SIGMA, PROF, 2, 2, ceiling=ceiling)
    assert sum(evaluations.values()) == 0
    for ceiling in (2, 3):
        for name in BOUND_NAMES:
            assert min_positive_n(name, EPS, SIGMA, PROF, 2, 2, ceiling=ceiling) is None


def _doubling_search(bound_name, eps, sigma, profile, alphabet_x, alphabet_y,
                     ceiling=10 ** 12):
    """The reference search: double from MIN_PLAN_N, then bisect."""
    if ceiling > 10 ** 12:
        raise ValueError("ceiling above 1e12 not supported")
    value = planner._BOUNDS[bound_name][0](eps, sigma, profile, alphabet_x, alphabet_y)[0]
    lo = MIN_PLAN_N
    if value(lo) > 0.0:
        return lo
    hi = lo
    while True:
        hi = min(hi * 2, ceiling)
        if value(hi) > 0.0:
            break
        if hi >= ceiling:
            return None
    while hi - lo > 1:
        mid = (lo + hi) // 2
        if value(mid) > 0.0:
            hi = mid
        else:
            lo = mid
    if not (value(hi) > 0.0 and value(hi - 1) <= 0.0):
        raise ArithmeticError(f"positivity crossing not locally monotone near n={hi}")
    return hi


def _outcome(search, *args, **kwargs):
    """A search's result, or the type and text of what it raised."""
    try:
        return search(*args, **kwargs)
    except (ValueError, ArithmeticError) as exc:
        return type(exc), str(exc)


def _assert_matches_reference(name, p, q, eps, sigma, ceiling):
    prof = entropy_profile(bsc_chain(p, q))
    args = (name, eps, sigma, prof, 2, 2)
    assert _outcome(min_positive_n, *args, ceiling=ceiling) == \
        _outcome(_doubling_search, *args, ceiling=ceiling), (args, ceiling)


@settings(max_examples=300, deadline=None)
@given(name=st.sampled_from(BOUND_NAMES), p=st.floats(0.0, 0.5), q=st.floats(0.0, 0.5),
       eps=st.floats(1e-4, 0.2), sigma=st.floats(1e-4, 0.2),
       ceiling=st.integers(MIN_PLAN_N, 10 ** 12))
def test_min_positive_n_matches_doubling_search(name, p, q, eps, sigma, ceiling):
    _assert_matches_reference(name, p, q, eps, sigma, ceiling)


def test_min_positive_n_matches_doubling_search_on_a_grid():
    # the ceilings include the reference source's hr crossings, met exactly
    for p in (0.0, 0.02, 0.05, 0.2):
        for q in (0.0, 0.05, 0.15, 0.4):
            for eps, sigma in ((1e-4, 1e-4), (0.05, 0.05), (0.01, 0.2), (0.2, 0.2)):
                for ceiling in (2, 3, 1000, 2219549, 10 ** 6, 1143045317, 10 ** 12):
                    for name in BOUND_NAMES:
                        _assert_matches_reference(name, p, q, eps, sigma, ceiling)


@pytest.fixture
def evaluations(monkeypatch):
    """Every bound's formula wrapped so that each evaluation of value(n) is
    counted by bound name."""
    counts = dict.fromkeys(BOUND_NAMES, 0)

    def wrap(name, formula):
        def counted_formula(*args):
            value, details = formula(*args)

            def counted(n):
                counts[name] += 1
                return value(n)
            return counted, details
        return counted_formula

    monkeypatch.setattr(planner, "_BOUNDS", {
        name: (wrap(name, formula), least) for name, (formula, least)
        in planner._BOUNDS.items()})
    return counts


def test_min_positive_n_evaluation_count(evaluations):
    # the planning grid: cascades around p in {0.01, 0.02, 0.05}, q in
    # {0.1, 0.15, 0.25}, moved by -10 %, 0 and +10 %; the doubling search
    # took up to 70 evaluations there (hr_concat)
    worst = dict.fromkeys(BOUND_NAMES, 0)
    for p in (0.01, 0.02, 0.05):
        for q in (0.1, 0.15, 0.25):
            for dp in (0.9, 1.0, 1.1):
                prof = entropy_profile(bsc_chain(p * dp, q * (2.0 - dp)))
                for eps, sigma in ((0.05, 0.05), (0.01, 0.1)):
                    for name in BOUND_NAMES:
                        before = evaluations[name]
                        assert min_positive_n(name, eps, sigma, prof, 2, 2) is not None
                        worst[name] = max(worst[name], evaluations[name] - before)
    assert max(worst.values()) <= 20, worst


def test_bound_sweep_matches_bound_report():
    # one formula for the whole sweep gives the reports of one formula per n,
    # details included, and refuses what bound_report refuses
    ns = range(2, 300001, 1999)
    for name in BOUND_NAMES:
        assert bound_sweep(name, ns, EPS, SIGMA, PROF, 2, 2) == \
            [bound_report(name, n, EPS, SIGMA, PROF, 2, 2) for n in ns]
    with pytest.raises(ValueError, match="n must be at least 2, got 1"):
        bound_sweep("theorem_main", [5, 1, 7], EPS, SIGMA, PROF, 2, 2)
    with pytest.raises(ValueError, match="1/4"):
        bound_sweep("hr_linear", ns, 0.3, SIGMA, PROF, 2, 2)
    with pytest.raises(ValueError, match="unknown bound"):
        bound_sweep("nothing", ns, EPS, SIGMA, PROF, 2, 2)


def test_extreme_inputs_name_the_input():
    # past 2^53 floats skip integers, and below the smallest normal float a
    # target's reciprocal overflows: both are refused by name, before any
    # arithmetic, by every plan mode, bound and search
    huge, tiny = 10 ** 400, 1e-320
    for n in (huge, 2 ** 53 + 1):
        with pytest.raises(ValueError, match=r"n must be at most 2\^53.*got"):
            plan_theorem_main(n, EPS, SIGMA, PROF, 2)
        for name in BOUND_NAMES:
            with pytest.raises(ValueError, match=r"n must be at most 2\^53"):
                bound_report(name, n, EPS, SIGMA, PROF, 2, 2)
    assert plan_remark(2 ** 53, EPS, SIGMA, PROF, 2).n == 2 ** 53
    for eps, sigma, name, got in ((tiny, SIGMA, "eps", tiny), (EPS, tiny, "sigma", tiny),
                                  (5e-324, SIGMA, "eps", 5e-324)):
        want = f"target {name} must be at least 2.2250738585072014e-308.*got {got!r}"
        with pytest.raises(ValueError, match=want):
            plan_theorem_main(100, eps, sigma, PROF, 2)
        with pytest.raises(ValueError, match=want):
            plan_desk_exact(CHAIN, 8, eps, sigma)
        for bound in BOUND_NAMES:
            with pytest.raises(ValueError, match=want):
                bound_report(bound, 100, eps, sigma, PROF, 2, 2)
            with pytest.raises(ValueError, match=want):
                min_positive_n(bound, eps, sigma, PROF, 2, 2)


def test_reports_share_no_details():
    # changing one report's details leaves every other report as it was
    for name in ("hr_linear", "hr_concat"):
        first, second = bound_sweep(name, (1000, 2000), EPS, SIGMA, PROF, 2, 2)
        fresh = bound_report(name, 1000, EPS, SIGMA, PROF, 2, 2).details
        first.details["penalty_sqrt_n"] = -1.0
        assert second.details["penalty_sqrt_n"] == fresh["penalty_sqrt_n"] > 0.0
        assert bound_sweep(name, (1000,), EPS, SIGMA, PROF, 2, 2)[0].details == fresh


def test_comm_cost_frozen():
    assert comm_cost(10 ** 4, EPS, PROF, 2, iid=True) == \
        pytest.approx(1550.344544, abs=1e-5)
    assert comm_cost(10 ** 4, EPS, PROF, 2, iid=False) == \
        pytest.approx(2103.706258, abs=1e-5)
    # dispersion form transcription
    n = 10 ** 4
    expect = n * PROF.h_x_given_y + math.sqrt(n) * qfunc_inv(EPS) \
        * math.sqrt(PROF.var_x_given_y) + 0.5 * math.log2(n)
    assert comm_cost(n, EPS, PROF, 2, iid=True) == pytest.approx(expect, rel=1e-12)


def test_comm_cost_guards():
    with pytest.raises(ValueError):
        comm_cost(0, EPS, PROF, 2)
    with pytest.raises(ValueError):
        comm_cost(100, 0.0, PROF, 2)
    # the planners' checks: past 2^53 (an int too large for a float) and
    # below the smallest normal float, in either form
    with pytest.raises(ValueError, match="2\\^53"):
        comm_cost(10 ** 400, EPS, PROF, 2)
    for iid in (True, False):
        with pytest.raises(ValueError, match="smallest normal float"):
            comm_cost(100, 1e-320, PROF, 2, iid=iid)


def test_desk_plan_frozen_reference():
    plan = plan_desk_exact(CHAIN, 32, 0.05, 0.05)
    assert plan.mode == "desk_exact"
    assert plan.ball_radius == 3
    assert plan.list_size == 5489
    assert plan.recon_bits == 18
    assert plan.list_log_threshold == pytest.approx(17.77681259, abs=1e-7)
    assert plan.key_bits == 0 and not plan.feasible
    assert plan.key_real == pytest.approx(-16.374251, abs=1e-5)


def test_desk_plan_feasible_configuration():
    plan = plan_desk_exact(CHAIN, 64, 0.3, 0.4)
    assert plan.ball_radius == 2
    assert plan.list_size == 2081
    assert plan.recon_bits == 14
    assert plan.key_real == pytest.approx(1.8953535754, abs=1e-9)
    assert plan.key_bits == 1 and plan.feasible


def test_desk_radius_matches_scipy_binomial():
    for n, eps in [(8, 0.05), (8, 0.005), (16, 0.05), (32, 0.05), (64, 0.3),
                   (64, 0.05)]:
        plan = plan_desk_exact(CHAIN, n, eps, 0.1)
        d = 0
        while scipy.stats.binom.sf(d, n, 0.02) > eps / 2:
            d += 1
        assert plan.ball_radius == d, (n, eps)


def test_desk_threshold_matches_radius_cost():
    plan = plan_desk_exact(CHAIN, 32, 0.05, 0.05)
    d = plan.ball_radius
    expect = d * math.log2(1 / 0.02) + (32 - d) * math.log2(1 / 0.98)
    assert plan.list_log_threshold == pytest.approx(expect, rel=1e-12)


def test_desk_plan_collision_mass_at_the_cap():
    # n = 8: recon_bits sits at the cap, so every nonzero seed hashes the ball
    # injectively, but the zero seed sends all of it to 0; enumerate all 256
    plan = plan_desk_exact(CHAIN, 8, EPS, SIGMA)
    assert plan.recon_bits == 8 and plan.ball_radius == 1
    ctx = GFContext.for_bits(8)
    ball = [e for e in range(256) if bin(e).count("1") <= plan.ball_radius]
    prob = {e: 0.02 ** bin(e).count("1") * 0.98 ** (8 - bin(e).count("1")) for e in ball}
    total = 0.0
    for s in range(256):
        # y xor f matches e's check iff h_s(f) = h_s(e), by linearity
        syndromes = [uhf_hash(BitString(e, 8), BitString(s, 8), plan.recon_bits, ctx).value
                     for e in ball]
        total += sum(prob[e] for e, h in zip(ball, syndromes) if syndromes.count(h) > 1)
    collision = total / 256
    assert collision == pytest.approx(sum(prob.values()) / 256, rel=1e-12)
    assert collision == pytest.approx(0.00387, abs=5e-6)
    assert collision <= plan.eps_collide


def test_desk_hash_length_capped_at_block():
    # uniform source: the collision term wants more bits than the block has
    plan = plan_desk_exact(bsc_chain(0.5, 0.5), 4, 0.5, 0.5)
    assert plan.recon_bits == 4


def test_desk_min_entropy_matches_product_form():
    plan = plan_desk_exact(CHAIN, 32, 0.05, 0.05)
    hmin = avg_min_entropy_product(CHAIN, 32, given="z")
    assert plan.key_real == pytest.approx(hmin - plan.recon_bits + 2
                                          + 2 * math.log2(0.05), rel=1e-12)
    assert hmin == pytest.approx(-32 * math.log2(0.836), rel=1e-12)


def test_desk_plan_guards():
    # half the cascade plus 1/16 is no cascade, but its X-Y pair is a BSC(0.26):
    # one cost column of two costs, so it plans, at the check's 8-bit cap
    mixed = JointSource((2, 2, 2), CHAIN.pmf * 0.5 + 0.0625)
    plan = plan_desk_exact(mixed, 8, 0.05, 0.05)
    assert (plan.ball_radius, plan.list_size, plan.recon_bits) == (5, 219, 8)
    assert plan.list_log_threshold == pytest.approx(
        3 * -math.log2(0.74) + 5 * -math.log2(0.26), rel=1e-12)
    # refused: a binary pmf whose two y columns differ, a column of three
    # costs, and a cascade moved within PMF_TOL, whose columns differ by rounding
    two_columns = np.array([[[0.20, 0.05], [0.10, 0.05]], [[0.02, 0.18], [0.25, 0.15]]])
    near = bsc_chain(0.1, 0.2).pmf.copy()
    near[1, :, 0] += 0.9 * PMF_TOL
    near[0, :, 1] -= 0.9 * PMF_TOL
    for bad in (JointSource((2, 2, 2), two_columns),
                JointSource((3, 1, 1), np.array([0.5, 0.3, 0.2]).reshape(3, 1, 1)),
                JointSource((2, 2, 2), near)):
        with pytest.raises(ValueError, match="one cost column of at most two distinct costs"):
            plan_desk_exact(bad, 8, 0.05, 0.05)
    with pytest.raises(ValueError, match="64"):
        plan_desk_exact(CHAIN, 65, 0.05, 0.05)
    with pytest.raises(ValueError):
        plan_desk_exact(CHAIN, 8, 1.5, 0.05)


def _cascade_desk_reference(src, n, eps, sigma):
    """The desk plan of a cascade, from the oracle's fitted p: the Hamming
    ball whose binomial tail is at most eps/2, the check capped at n bits."""
    p = detect_bsc_chain(src).p
    pmf = [math.comb(n, k) * p ** k * (1.0 - p) ** (n - k) for k in range(n + 1)]
    radius = next(d for d in range(n + 1) if sum(pmf[d + 1:]) <= eps / 2.0)
    size = hamming_ball_size(n, radius)
    recon_bits = min(n, math.ceil(math.log2(size) + math.log2(2.0 / eps)))
    threshold = (n - radius) * -math.log2(1.0 - p)
    if radius > 0:
        threshold += radius * -math.log2(p)
    key_real = avg_min_entropy_product(src, n) - recon_bits + 2.0 + 2.0 * math.log2(sigma)
    key_bits = max(0, math.floor(key_real))
    return Plan(mode="desk_exact", n=n, eps=eps, sigma=sigma, eps_miss=eps / 2.0,
                eps_collide=eps / 2.0, eps_smooth=0.0, miss_slack=0.0, smooth_slack=0.0,
                list_log_threshold=threshold, recon_bits=recon_bits, key_bits=key_bits,
                key_real=key_real, feasible=key_bits >= 1, ball_radius=radius,
                list_size=size)


def _hex_fields(plan):
    return {k: v.hex() if isinstance(v, float) else v for k, v in asdict(plan).items()}


def test_cascade_desk_plans_match_the_cascade_reference():
    # the cost-column planner, on every cascade of the grid with p < 1/2,
    # gives the plan that the cascade's own closed form gives, bit for bit
    for p in (0.0, 0.001, 0.01, 0.02, 0.05, 0.1, 0.13, 0.2, 0.3, 0.37, 0.45, 0.49, 0.4999):
        for q in (0.0, 0.05, 0.15, 0.3, 0.5):
            src = bsc_chain(p, q)
            for n in range(1, 65):
                for eps, sigma in ((0.05, 0.05), (0.3, 0.4), (0.005, 0.1), (0.5, 0.5)):
                    got = _hex_fields(plan_desk_exact(src, n, eps, sigma))
                    assert got == _hex_fields(_cascade_desk_reference(src, n, eps, sigma)), \
                        (p, q, n, eps, sigma)


def _ternary_symmetric():
    # X uniform, Y and Z ternary symmetric channels of X keeping the symbol
    # w.p. 0.97 and 0.7: one cost column (one cheap symbol, two dear ones)
    def channel(err):
        return np.full((3, 3), err / 2) + np.eye(3) * (1 - 1.5 * err)
    return JointSource((3, 3, 3), np.einsum("x,xy,xz->xyz", np.full(3, 1 / 3),
                                            channel(0.03), channel(0.3)))


def _bsc_lopsided_z():
    # X uniform, Y a BSC(0.1) of X, Z a lopsided binary channel of X
    bsc = np.array([[0.9, 0.1], [0.1, 0.9]])
    wire = np.array([[0.8, 0.2], [0.35, 0.65]])
    return JointSource((2, 2, 2), np.einsum("x,xy,xz->xyz", np.full(2, 0.5), bsc, wire))


def test_desk_list_size_is_the_decoders_list():
    # list_size counts the blocks guess_set lists, for y = 0 and a random y;
    # at p = 1/2 every block costs n bits, so the list holds all of them, and
    # just below 1/2 the two costs lie within the decoder's tolerance, which
    # lists every block too
    rng = np.random.default_rng(7)
    for src, ns in ((bsc_chain(0.0, 0.2), (1, 5, 16)), (bsc_chain(0.5, 0.1), (1, 4, 9)),
                    (bsc_chain(0.5 - 1e-12, 0.1), (1, 8)),
                    (CHAIN, (1, 8, 16)), (_ternary_symmetric(), (1, 8, 16, 21)),
                    (_bsc_lopsided_z(), (1, 6, 12))):
        size_y = src.alphabet_sizes[1]
        for n in ns:
            for eps in (0.05, 0.3):
                plan = plan_desk_exact(src, n, eps, 0.1)
                for y in (np.zeros(n, dtype=np.int64), rng.integers(0, size_y, n)):
                    assert guess_set(y, plan, src).shape[0] == plan.list_size, (src, n, eps)
    plan = plan_desk_exact(bsc_chain(0.5, 0.5), 4, 0.5, 0.5)
    assert (plan.ball_radius, plan.list_size, plan.list_log_threshold) == (0, 16, 4.0)


def test_plan_validation():
    assert PLAN_MODES == ("theorem_main", "remark", "desk_exact")
    with pytest.raises(ValueError, match="mode"):
        Plan(mode="nope", n=8, eps=0.1, sigma=0.1, eps_miss=0.05, eps_collide=0.05,
             eps_smooth=0.0, miss_slack=0.0, smooth_slack=0.0, list_log_threshold=1.0,
             recon_bits=1, key_bits=0, key_real=0.0, feasible=False)
    with pytest.raises(ValueError, match="split"):
        Plan(mode="desk_exact", n=8, eps=0.1, sigma=0.1, eps_miss=0.09, eps_collide=0.02,
             eps_smooth=0.0, miss_slack=0.0, smooth_slack=0.0, list_log_threshold=1.0,
             recon_bits=1, key_bits=0, key_real=0.0, feasible=False)
    # a bound name that no planner emits is not a plan mode
    with pytest.raises(ValueError, match="mode"):
        Plan(mode="berry_esseen", n=8, eps=0.1, sigma=0.1, eps_miss=0.05,
             eps_collide=0.05, eps_smooth=0.0, miss_slack=0.0, smooth_slack=0.0,
             list_log_threshold=1.0, recon_bits=1, key_bits=0, key_real=0.0,
             feasible=False)


@settings(max_examples=200, deadline=None)
@given(data=st.data())
def test_plan_rejects_each_invalid_field(data):
    # a valid plan builds; breaking any one checked field raises ValueError
    eps = data.draw(st.floats(1e-6, 0.99), label="eps")
    eps_miss = data.draw(st.floats(0.0, eps), label="eps_miss")
    sigma = data.draw(st.floats(1e-6, 0.99), label="sigma")
    fields = dict(mode=data.draw(st.sampled_from(PLAN_MODES), label="mode"),
                  n=data.draw(st.integers(1, 10 ** 6), label="n"), eps=eps, sigma=sigma,
                  eps_miss=eps_miss,
                  eps_collide=data.draw(st.floats(0.0, eps - eps_miss), label="eps_collide"),
                  eps_smooth=data.draw(st.floats(0.0, sigma / 2, exclude_max=True),
                                       label="eps_smooth"),
                  miss_slack=0.0, smooth_slack=0.0,
                  list_log_threshold=data.draw(st.floats(0.0, 1e6), label="lam"),
                  recon_bits=data.draw(st.integers(0, 4096), label="t"),
                  key_bits=data.draw(st.integers(0, 4096), label="ell"),
                  key_real=0.0, feasible=False)
    Plan(**fields)
    broken = data.draw(st.sampled_from(["mode", "n", "split", "eps_smooth",
                                        "list_log_threshold", "recon_bits", "key_bits"]),
                       label="broken field")
    if broken == "mode":
        fields["mode"] = data.draw(st.text().filter(lambda m: m not in PLAN_MODES), label="bad")
    elif broken == "n":
        fields["n"] = data.draw(st.integers(-10, 0), label="bad")
    elif broken == "split":
        fields["eps_collide"] = eps - eps_miss + data.draw(st.floats(1e-9, 1.0), label="over")
    elif broken == "eps_smooth":
        fields["eps_smooth"] = sigma / 2 + data.draw(st.floats(0.0, 1.0), label="over")
    elif broken == "list_log_threshold":
        fields[broken] = -data.draw(st.floats(1e-9, 1e6), label="bad")
    else:
        fields[broken] = data.draw(st.integers(-4096, -1), label="bad")
    with pytest.raises(ValueError):
        Plan(**fields)


def test_planner_target_guards():
    for bad_eps in (0.0, 1.0, -0.1):
        with pytest.raises(ValueError):
            plan_theorem_main(1000, bad_eps, 0.05, PROF, 2)
    with pytest.raises(ValueError):
        plan_theorem_main(1, 0.05, 0.05, PROF, 2)
    with pytest.raises(ValueError):
        bound_berry_esseen(1000, 0.05, 1.5, PROF)
