"""Reliability MC, min-entropy enumeration, exact secrecy distance, census."""

import itertools
from collections import Counter

import numpy as np
import pytest

from omska.planner import Plan, plan_desk_exact
from omska.source import JointSource, bsc_chain
from omska.uhash import BitString, GFContext, encode_symbols, field_for_source
from omska.uhash import hash as uhf_hash
from omska.verifier import (avg_min_entropy_exact, avg_min_entropy_product,
                            estimate_reliability, run_batch, secrecy_sd_exact,
                            summarize_outcomes, uhf_collision_census,
                            wilson_interval)

CHAIN = bsc_chain(0.02, 0.15)


def _hand_plan(n, lam, t, ell):
    return Plan(mode="desk_exact", n=n, eps=0.5, sigma=0.5, eps_miss=0.25,
                eps_collide=0.25, eps_smooth=0.1, miss_slack=0.0, smooth_slack=0.0,
                list_log_threshold=lam, recon_bits=t, key_bits=ell,
                key_real=float(ell), feasible=ell >= 1)


def test_wilson_frozen_values():
    cases = {
        (0, 100): (0.0, 0.036993498206985676),
        (5, 100): (0.021543679154367973, 0.11175046923191914),
        (14, 1000): (0.0083575751304239224, 0.023362034117535657),
        (100, 100): (0.96300650179301432, 1.0),
    }
    for (f, t), (lo, hi) in cases.items():
        got_lo, got_hi = wilson_interval(f, t)
        assert got_lo == pytest.approx(lo, abs=1e-12)
        assert got_hi == pytest.approx(hi, abs=1e-12)


def test_wilson_properties():
    lo, hi = wilson_interval(0, 10)
    assert lo == 0.0 and 0 < hi < 1
    lo, hi = wilson_interval(10, 10)
    assert hi == 1.0 and 0 < lo < 1
    lo, hi = wilson_interval(3, 60)
    assert lo < 3 / 60 < hi
    with pytest.raises(ValueError):
        wilson_interval(0, 0)
    with pytest.raises(ValueError):
        wilson_interval(-1, 10)
    with pytest.raises(ValueError):
        wilson_interval(11, 10)


def test_estimate_reliability_frozen():
    plan = plan_desk_exact(CHAIN, 32, 0.05, 0.05)
    est = estimate_reliability(CHAIN, plan, trials=2000, rng_seed=1)
    assert est.trials == 2000
    assert est.failures == 28
    assert est.failure_rate == pytest.approx(0.014)
    assert sum(est.outcome_counts.values()) == 2000
    assert est.outcome_counts["agreed"] == 1972
    assert est.wilson_upper < 0.05 and est.meets_target
    lo, hi = wilson_interval(28, 2000)
    assert est.wilson_lower == lo and est.wilson_upper == hi


def test_run_batch_stride_chunks_compose():
    plan = plan_desk_exact(CHAIN, 32, 0.05, 0.05)
    seqs = np.random.SeedSequence(1).spawn(60)
    whole = run_batch(CHAIN, plan, seqs)
    parts = Counter()
    for k in range(3):
        parts += run_batch(CHAIN, plan, seqs[k::3])
    assert whole == parts
    assert sum(whole.values()) == 60


def test_summarize_outcomes():
    est = summarize_outcomes(Counter({"agreed": 90, "aborted": 8, "mismatched": 2}),
                             eps_target=0.05)
    assert est.failures == 10 and est.trials == 100
    assert not est.meets_target  # upper end of 10/100 is well above 5%
    est2 = summarize_outcomes(Counter({"agreed": 100}), eps_target=0.05)
    assert est2.meets_target


def test_min_entropy_enumeration_matches_product_form():
    for n in range(1, 6):
        for given in ("y", "z"):
            brute = avg_min_entropy_exact(CHAIN, n, given=given)
            closed = avg_min_entropy_product(CHAIN, n, given=given)
            assert brute == pytest.approx(closed, abs=1e-12), (n, given)
    # also on a lopsided non-cascade source
    pmf = np.array([[[0.20, 0.05], [0.10, 0.05]],
                    [[0.02, 0.18], [0.25, 0.15]]])
    src = JointSource((2, 2, 2), pmf)
    for n in (1, 3):
        assert avg_min_entropy_exact(src, n) == \
            pytest.approx(avg_min_entropy_product(src, n), abs=1e-12)


def test_min_entropy_frozen_values():
    assert avg_min_entropy_product(CHAIN, 8) == pytest.approx(2.067401, abs=1e-5)
    assert avg_min_entropy_product(CHAIN, 32) == pytest.approx(8.269604883, abs=1e-7)


def test_min_entropy_guards():
    with pytest.raises(ValueError, match="given"):
        avg_min_entropy_exact(CHAIN, 2, given="w")
    with pytest.raises(ValueError, match="positive"):
        avg_min_entropy_exact(CHAIN, 0)
    with pytest.raises(ValueError, match="cells"):
        avg_min_entropy_exact(CHAIN, 14)


def test_secrecy_uniform_source_closed_form():
    # uniform 4-bit block hashed down to 4 bits with no check value: the key
    # is a bijection of the block for nonzero seeds and constant for the zero
    # seed, so the average distance is (1/16)*(15/16) = 15/256
    flat = bsc_chain(0.5, 0.5)
    rep = secrecy_sd_exact(flat, _hand_plan(4, 4.0, 0, 4))
    assert rep.exact and rep.seed_pairs == 256
    assert rep.std_error is None
    assert rep.sd == pytest.approx(15 / 256, abs=1e-15)
    assert rep.avg_min_entropy == pytest.approx(4.0, abs=1e-12)
    assert rep.lhl_bound == pytest.approx(0.5, abs=1e-12)
    assert rep.meets_lhl


def test_secrecy_zero_length_key():
    rep = secrecy_sd_exact(bsc_chain(0.5, 0.5), _hand_plan(4, 4.0, 0, 0))
    assert rep.sd == 0.0
    assert rep.meets_lhl and rep.meets_target


def _sd_bruteforce(src, n, t, ell):
    """Definition of the seed-averaged distance, written as literally as
    possible: dict accumulation, scalar probability products, library hash."""
    ctx = field_for_source(n, 2)
    m = ctx.bits
    pair = src.p_xz()
    z_blocks = list(itertools.product((0, 1), repeat=n))
    total = 0.0
    count = 0
    for s in range(1 << m):
        sb = BitString(s, m)
        for s2 in range(1 << m):
            s2b = BitString(s2, m)
            dist = {}
            margin = {}
            for xe in itertools.product((0, 1), repeat=n):
                enc = encode_symbols(np.array(xe), 2)
                v = uhf_hash(enc, sb, t, ctx).value
                k = uhf_hash(enc, s2b, ell, ctx).value
                for ze in z_blocks:
                    p = 1.0
                    for xi, zi in zip(xe, ze):
                        p = p * pair[xi, zi]
                    dist[(v, k, ze)] = dist.get((v, k, ze), 0.0) + p
                    margin[(v, ze)] = margin.get((v, ze), 0.0) + p
            sd = 0.0
            for v in range(1 << t):
                for k in range(1 << ell):
                    for ze in z_blocks:
                        p = dist.get((v, k, ze), 0.0)
                        ideal = margin.get((v, ze), 0.0) / (1 << ell)
                        sd += 0.5 * abs(p - ideal)
            total += sd
            count += 1
    return total / count


def test_secrecy_matches_bruteforce_definition():
    plan = _hand_plan(3, 3.0, 2, 1)
    rep = secrecy_sd_exact(CHAIN, plan)
    assert rep.exact and rep.seed_pairs == 64
    assert rep.sd == pytest.approx(_sd_bruteforce(CHAIN, 3, 2, 1), abs=1e-12)
    plan2 = _hand_plan(3, 3.0, 1, 2)
    rep2 = secrecy_sd_exact(CHAIN, plan2)
    assert rep2.sd == pytest.approx(_sd_bruteforce(CHAIN, 3, 1, 2), abs=1e-12)


def test_secrecy_accumulators_agree(monkeypatch):
    # the bincount route (used for wide hashes) must match both the matmul
    # route and the raw definition on the same points
    from omska import verifier
    plan = _hand_plan(3, 3.0, 2, 1)
    via_matmul = secrecy_sd_exact(CHAIN, plan).sd
    monkeypatch.setattr(verifier, "_MATMUL_MAX_BUCKETS", 0)
    via_bincount = secrecy_sd_exact(CHAIN, plan).sd
    assert via_bincount == pytest.approx(via_matmul, abs=1e-14)
    assert via_bincount == pytest.approx(_sd_bruteforce(CHAIN, 3, 2, 1), abs=1e-12)
    # a zero-length key must come out exactly zero on this route too
    assert secrecy_sd_exact(CHAIN, _hand_plan(3, 3.0, 3, 0)).sd == 0.0


def test_secrecy_accumulators_agree_medium(monkeypatch):
    # n=6 exercises ragged buckets (zero seeds) at a size where both routes
    # run in well under a second
    from omska import verifier
    for t, ell in [(3, 3), (4, 2), (6, 0), (0, 6)]:
        plan = _hand_plan(6, 6.0, t, ell)
        via_matmul = secrecy_sd_exact(CHAIN, plan).sd
        monkeypatch.setattr(verifier, "_MATMUL_MAX_BUCKETS", 0)
        via_bincount = secrecy_sd_exact(CHAIN, plan).sd
        monkeypatch.setattr(verifier, "_MATMUL_MAX_BUCKETS", 10 ** 6)
        assert via_bincount == pytest.approx(via_matmul, abs=1e-13), (t, ell)


def test_secrecy_zero_key_skips_enumeration(monkeypatch):
    # a 0-bit key is uniform by definition: no seed table is built, and the
    # report matches the enumerated one field for field
    from omska.uhash import SeedHasher

    def refuse(self):
        raise AssertionError("seed table built for a 0-bit key")

    plan = plan_desk_exact(CHAIN, 8, 0.05, 0.05)
    assert plan.key_bits == 0
    monkeypatch.setattr(SeedHasher, "product_table", refuse)
    rep = secrecy_sd_exact(CHAIN, plan)
    assert rep.sd == 0.0 and rep.exact and rep.seed_pairs == 65536
    sampled = secrecy_sd_exact(CHAIN, plan, seed_pairs=50)
    assert sampled.sd == 0.0 and sampled.seed_pairs == 50 and sampled.std_error == 0.0
    recon = secrecy_sd_exact(CHAIN, plan, recon_seeds=3)
    assert recon.sd == 0.0 and recon.seed_pairs == 3 * 256 and recon.std_error == 0.0


def test_secrecy_frozen_n8_point():
    rep = secrecy_sd_exact(CHAIN, _hand_plan(8, 8.0, 2, 1))
    assert rep.exact and rep.seed_pairs == 65536
    assert rep.sd == pytest.approx(0.1994094354, abs=1e-9)
    assert rep.lhl_bound == pytest.approx(0.6907805607, abs=1e-9)
    assert rep.meets_lhl


def test_secrecy_sampled_mode_tracks_exact():
    plan = _hand_plan(8, 8.0, 2, 1)
    sampled = secrecy_sd_exact(CHAIN, plan, seed_pairs=3000, rng_seed=0)
    assert not sampled.exact
    assert sampled.seed_pairs == 3000
    assert sampled.std_error is not None and sampled.std_error > 0
    assert abs(sampled.sd - 0.1994094354) <= 5 * sampled.std_error


def test_secrecy_recon_sampled_mode():
    # key seeds stay fully enumerated: 64 drawn recon seeds x 256 key seeds
    plan = _hand_plan(8, 8.0, 2, 1)
    rep = secrecy_sd_exact(CHAIN, plan, recon_seeds=64, rng_seed=0)
    assert not rep.exact
    assert rep.seed_pairs == 64 * 256
    assert rep.std_error is not None and rep.std_error > 0
    assert abs(rep.sd - 0.1994094354) <= 5 * rep.std_error
    single = secrecy_sd_exact(CHAIN, plan, recon_seeds=1, rng_seed=0)
    assert single.seed_pairs == 256 and single.std_error is None


def test_secrecy_guards(monkeypatch):
    pmf = np.full((3, 2, 2), 1 / 12)
    with pytest.raises(ValueError, match="binary"):
        secrecy_sd_exact(JointSource((3, 2, 2), pmf), _hand_plan(3, 3.0, 1, 1))
    with pytest.raises(ValueError, match="caps n"):
        secrecy_sd_exact(CHAIN, _hand_plan(13, 4.0, 1, 1))
    with pytest.raises(ValueError, match="exceeds"):
        secrecy_sd_exact(CHAIN, _hand_plan(8, 8.0, 5, 4))
    with pytest.raises(ValueError, match="positive"):
        secrecy_sd_exact(CHAIN, _hand_plan(8, 8.0, 2, 1), seed_pairs=0)
    with pytest.raises(ValueError, match="positive"):
        secrecy_sd_exact(CHAIN, _hand_plan(8, 8.0, 2, 1), recon_seeds=0)
    with pytest.raises(ValueError, match="not both"):
        secrecy_sd_exact(CHAIN, _hand_plan(8, 8.0, 2, 1),
                         seed_pairs=10, recon_seeds=10)
    # explicit sampling works past the full-enumeration cap
    rep = secrecy_sd_exact(CHAIN, _hand_plan(9, 8.0, 2, 1), seed_pairs=40)
    assert 0.0 <= rep.sd <= 1.0 and not rep.exact


def test_secrecy_wide_field_falls_back_to_sampling(monkeypatch):
    # a 9-bit field cannot enumerate both seeds; the default run samples
    # reconciliation seeds instead of failing (count shrunk here for speed)
    from omska import verifier
    monkeypatch.setattr(verifier, "_FALLBACK_RECON_SAMPLE", 4)
    rep = secrecy_sd_exact(CHAIN, _hand_plan(9, 8.0, 2, 1))
    assert not rep.exact
    assert rep.seed_pairs == 4 * 512
    assert rep.std_error is not None and rep.std_error >= 0.0


def test_collision_census_balanced():
    for m in (4, 6):
        ctx = GFContext.for_bits(m)
        for t in range(1, m + 1):
            counts = uhf_collision_census(ctx, t)
            size = 1 << m
            off = counts[~np.eye(size, dtype=bool)]
            assert np.all(off == 1 << (m - t)), (m, t)
            assert np.all(np.diag(counts) == size)


def test_collision_census_guards():
    with pytest.raises(ValueError, match="census"):
        uhf_collision_census(GFContext.for_bits(11), 4)
    ctx = GFContext.for_bits(4)
    with pytest.raises(ValueError, match="out_bits"):
        uhf_collision_census(ctx, 0)
    with pytest.raises(ValueError, match="out_bits"):
        uhf_collision_census(ctx, 5)
