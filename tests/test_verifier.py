"""Reliability MC, min-entropy enumeration, exact secrecy distance, census."""

import itertools
import math
import os
import resource
import subprocess
import sys
import threading
import time
import tracemalloc
from collections import Counter
from fractions import Fraction
from functools import reduce

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from cascade_oracles import crossover_convolve, detect_bsc_chain
from omska import verifier
from omska.planner import Plan, plan_desk_exact
from omska.protocol import BudgetExceededError, run_session
from omska.source import PMF_TOL, JointSource, bsc_chain
from omska.uhash import (BitString, GFContext, encode_symbols, field_for_source, gf_mul,
                         subset_xors)
from omska.uhash import hash as uhf_hash
from omska.verifier import (_BLAS_TILE, _CHUNK_CELLS, _field_masks, _hadamard,
                            _seed_pair_blocks, _walsh_hadamard, _walsh_pair_distances,
                            _z_classes, avg_min_entropy_product, estimate_reliability,
                            run_children, secrecy_sd_exact, summarize_outcomes,
                            uhf_collision_census, wilson_interval)

CHAIN = bsc_chain(0.02, 0.15)
# binary (2,2,2) pmf with a non-uniform X: not a cascade
LOPSIDED = JointSource((2, 2, 2), np.array([[[0.20, 0.05], [0.10, 0.05]],
                                            [[0.02, 0.18], [0.25, 0.15]]]))
# dyadic sources, on which every coefficient, product and sum of the audit is
# exact, so its terms come out the same in any summation order: a cascade
# with bias r = 1/2, and a pair law with biases 1/2 and 1 and P(z) = 2^-m,
# one class per eavesdropper block
DYADIC_CHAIN = bsc_chain(0.25, 0.0)
DYADIC_PAIR = np.array([[0.375, 0.0], [0.125, 0.5]])
# bound on a term's or a report's rounding in non-dyadic sums, whose order
# BLAS picks
SUM_ORDER_TOL = 1e-13


def _assert_same(got, want, tol, context):
    """got equals want bit for bit at tol = 0, else within tol; None (a
    report's std_error after one draw) only matches None."""
    if got is None or want is None:
        assert got is want, context
        return
    got, want = np.asarray(got, dtype=np.float64), np.asarray(want, dtype=np.float64)
    if tol == 0.0:
        assert np.array_equal(got, want), context
    else:
        assert got.shape == want.shape and np.max(np.abs(got - want), initial=0.0) <= tol, \
            context


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


def _spawned_counts(plan, seqs):
    """Outcome tally of one session per given seed sequence: the oracle of
    the trial loop, written without it."""
    return Counter(run_session(CHAIN, plan, seq).outcome for seq in seqs)


def test_run_batch_stride_chunks_compose():
    plan = plan_desk_exact(CHAIN, 32, 0.05, 0.05)
    entropy = np.random.SeedSequence(1).entropy
    whole = run_children(CHAIN, plan, entropy, range(60))
    parts = Counter()
    for k in range(3):
        parts += run_children(CHAIN, plan, entropy, range(k, 60, 3))
    assert whole == parts
    assert sum(whole.values()) == 60


def test_reliability_seeds_are_the_spawned_children():
    # each trial's seed is made on demand, yet it is the child spawn() makes
    plan = plan_desk_exact(CHAIN, 16, 0.05, 0.05)
    for rng_seed in (1, 12345, [3, 4]):
        spawned = _spawned_counts(plan, np.random.SeedSequence(rng_seed).spawn(150))
        est = estimate_reliability(CHAIN, plan, trials=150, rng_seed=rng_seed)
        assert est.outcome_counts == dict(spawned) and est.trials == 150
        entropy = np.random.SeedSequence(rng_seed).entropy
        assert run_children(CHAIN, plan, entropy, range(1, 150, 2)) \
            == _spawned_counts(plan, np.random.SeedSequence(rng_seed).spawn(150)[1::2])


@pytest.mark.parametrize("pool", ["inline", "processes"])
def test_reliability_jobs_match_the_serial_estimate(request, monkeypatch, pool):
    # strided ranges over worker processes give the serial counts, whether
    # the pool maps in-process or runs two real workers
    monkeypatch.setattr(verifier.os, "cpu_count", lambda: 2)
    requested = request.getfixturevalue("inline_pool") if pool == "inline" else None
    plan = plan_desk_exact(CHAIN, 16, 0.05, 0.05)
    for rng_seed in (2, 777, [5, 6]):
        serial = estimate_reliability(CHAIN, plan, trials=90, rng_seed=rng_seed)
        for jobs in (2, 3):
            assert estimate_reliability(CHAIN, plan, trials=90, rng_seed=rng_seed,
                                        jobs=jobs) == serial, (rng_seed, jobs)
    if requested is not None:
        # jobs 3 is clamped to the two cores
        assert requested == [2] * 6


def test_reliability_memory_stays_flat(monkeypatch):
    # 10^6 trials with the session stubbed out: seeds are made one at a time,
    # so the batch grows the process by well under a few MiB, where the
    # spawned list of 10^6 seed sequences held about 370 MB
    try:
        with open("/proc/self/statm") as f:
            f.read()
    except OSError:
        pytest.skip("needs /proc/self/statm to read the resident set")
    page = os.sysconf("SC_PAGE_SIZE")

    def resident():
        with open("/proc/self/statm") as f:
            return int(f.read().split()[1]) * page

    class Agreed:
        outcome = "agreed"

    peak, calls = [0], [0]

    def stub(src, plan, seq):
        calls[0] += 1
        if calls[0] % 50_000 == 0:
            peak[0] = max(peak[0], resident())
        return Agreed

    monkeypatch.setattr(verifier, "run_session", stub)
    plan = plan_desk_exact(CHAIN, 8, 0.05, 0.05)
    estimate_reliability(CHAIN, plan, trials=10, rng_seed=3)  # first-use allocations
    before = resident()
    est = estimate_reliability(CHAIN, plan, trials=10 ** 6, rng_seed=3)
    assert est.outcome_counts == {"agreed": 10 ** 6} and calls[0] == 10 ** 6 + 10
    assert peak[0] - before < 4 << 20


def test_summarize_outcomes():
    est = summarize_outcomes(Counter({"agreed": 90, "aborted": 8, "mismatched": 2}),
                             eps_target=0.05)
    assert est.failures == 10 and est.trials == 100
    assert not est.meets_target  # upper end of 10/100 is well above 5%
    est2 = summarize_outcomes(Counter({"agreed": 100}), eps_target=0.05)
    assert est2.meets_target


def _avg_min_entropy_exact(src, n, given="z"):
    """Oracle: average conditional min-entropy of the length-n block given the
    named side (-log2 of the best-guess success probability), by visiting
    every (block, side-block) cell, capped at 1e8 cells.  Nothing exploits
    the product structure, so it checks the closed form independently."""
    pair = src.p_x_and(given)
    if n < 1:
        raise ValueError(f"n must be positive, got {n}")
    size_x, size_v = pair.shape
    cells = (size_x * size_v) ** n
    if cells > 10 ** 8:
        raise ValueError(f"enumeration would touch {cells} cells, cap is {10 ** 8}")
    total = 0.0
    for digits in itertools.product(range(size_v), repeat=n):
        # probability column over all x-blocks for this fixed side-block
        column = reduce(np.kron, (pair[:, d] for d in digits))
        total += float(column.max())
    return -math.log2(total)


def test_min_entropy_enumeration_matches_product_form():
    for n in range(1, 6):
        for given in ("y", "z"):
            brute = _avg_min_entropy_exact(CHAIN, n, given=given)
            closed = avg_min_entropy_product(CHAIN, n, given=given)
            assert brute == pytest.approx(closed, abs=1e-12), (n, given)
    # also on a lopsided non-cascade source
    for n in (1, 3):
        assert _avg_min_entropy_exact(LOPSIDED, n) == \
            pytest.approx(avg_min_entropy_product(LOPSIDED, n), abs=1e-12)


def test_min_entropy_frozen_values():
    assert avg_min_entropy_product(CHAIN, 8) == pytest.approx(2.067401, abs=1e-5)
    assert avg_min_entropy_product(CHAIN, 32) == pytest.approx(8.269604883, abs=1e-7)


def test_min_entropy_guards():
    with pytest.raises(ValueError, match="given"):
        _avg_min_entropy_exact(CHAIN, 2, given="w")
    with pytest.raises(ValueError, match="positive"):
        _avg_min_entropy_exact(CHAIN, 0)
    with pytest.raises(ValueError, match="cells"):
        _avg_min_entropy_exact(CHAIN, 14)


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


def _sd_bruteforce_pair(src, n, t, ell, s, s2):
    """One seed pair's distance, written as literally as possible: dict
    accumulation, scalar probability products, library hash."""
    ctx = field_for_source(n, 2)
    m = ctx.bits
    pair = src.p_xz()
    z_blocks = list(itertools.product((0, 1), repeat=n))
    sb, s2b = BitString(s, m), BitString(s2, m)
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
    return sd


def _sd_bruteforce(src, n, t, ell):
    """Definition of the seed-averaged distance: every seed pair, literally."""
    size = 1 << n
    return sum(_sd_bruteforce_pair(src, n, t, ell, s, s2)
               for s in range(size) for s2 in range(size)) / size ** 2


def test_secrecy_matches_bruteforce_definition():
    plan = _hand_plan(3, 3.0, 2, 1)
    rep = secrecy_sd_exact(CHAIN, plan)
    assert rep.exact and rep.seed_pairs == 64
    assert rep.sd == pytest.approx(_sd_bruteforce(CHAIN, 3, 2, 1), abs=1e-12)
    plan2 = _hand_plan(3, 3.0, 1, 2)
    rep2 = secrecy_sd_exact(CHAIN, plan2)
    assert rep2.sd == pytest.approx(_sd_bruteforce(CHAIN, 3, 1, 2), abs=1e-12)


def test_secrecy_accumulators_agree():
    # a binary pmf that is not a cascade audits one class per eavesdropper
    # block, which must match the raw definition
    assert detect_bsc_chain(LOPSIDED) is None
    for t, ell in [(2, 1), (1, 2)]:
        rep = secrecy_sd_exact(LOPSIDED, _hand_plan(3, 3.0, t, ell))
        assert rep.exact and rep.seed_pairs == 64
        assert rep.sd == pytest.approx(_sd_bruteforce(LOPSIDED, 3, t, ell), abs=1e-12)
    # a zero-length key must come out exactly zero on this route too
    assert secrecy_sd_exact(LOPSIDED, _hand_plan(3, 3.0, 3, 0)).sd == 0.0


def _terms(distances, seeds, key_seeds):
    """The terms of distances on the pairs of seeds and key_seeds broadcast
    together, in a fresh array."""
    return distances(seeds, key_seeds, np.empty(np.broadcast(seeds, key_seeds).size))


def _kernel(pair, ctx, t, ell):
    """The Walsh kernel's distances on the pair law `pair`, without its chunk."""
    return _walsh_pair_distances(pair, ctx, t, ell)[0]


def _products(s, ctx):
    """x (.) s for every x < 2^m, by a carry-less multiply and a reduction of
    the oracle's own over numpy arrays, with no package table."""
    m = ctx.bits
    x = np.arange(1 << m, dtype=np.uint64)
    prod = np.zeros_like(x)
    for j in range(m):
        if s >> j & 1:
            prod ^= x << np.uint64(j)
    for k in range(2 * m - 2, m - 1, -1):
        prod ^= (prod >> np.uint64(k) & np.uint64(1)) * np.uint64(ctx.poly << (k - m))
    return prod


def _pair_distances(pair, ctx, t, ell):
    """Oracle: per seed pair, the distance of the ell-bit key from uniform
    given the t-bit check value and the eavesdropper block, by scattering the
    dense block law into (check, key) buckets; any binary pmf, blocks of m
    bits, 4^m cells a pair.

    Returns distances(seeds, key_seeds, out), which writes one term per pair
    of the two index arrays broadcast together, in C order, into out and
    returns it."""
    m = ctx.bits
    # joint block distribution over (x-block, z-block), big-endian kron order
    M = reduce(np.kron, (pair,) * m)
    # bucket = check value then key; t = 0 shifts every product out to 0
    to_check, to_key = np.uint64(m - t), np.uint64(m - ell)
    n_buckets = 1 << (t + ell)
    z_cols = M.shape[1]
    cols = np.arange(z_cols, dtype=np.int64)
    flat_weights = np.ascontiguousarray(M).ravel()
    inv_keys = 1.0 / (1 << ell)

    def distances(seeds, key_seeds, out):
        seeds, key_seeds = (a.ravel() for a in np.broadcast_arrays(seeds, key_seeds))
        # products of every x-block, once per distinct seed
        table = {s: _products(s, ctx) for s in set(seeds.tolist()) | set(key_seeds.tolist())}
        for j, (s, s2) in enumerate(zip(seeds.tolist(), key_seeds.tolist())):
            bucket = ((table[s] >> to_check) << np.uint64(ell)
                      | table[s2] >> to_key).astype(np.int64)
            flat = bucket[:, None] * z_cols + cols[None, :]
            joint = np.bincount(flat.ravel(), weights=flat_weights,
                                minlength=n_buckets * z_cols).reshape(n_buckets, z_cols)
            by_check = joint.reshape(1 << t, 1 << ell, z_cols)
            ideal = by_check.sum(axis=1, keepdims=True) * inv_keys
            out[j] = 0.5 * np.abs(by_check - ideal).sum()
        return out

    return distances


def test_secrecy_accumulators_agree_medium():
    # n=6 exercises ragged buckets (zero seeds): the dense oracle's and the
    # Walsh kernel's per-pair terms against the definition, pair by pair
    ctx = field_for_source(6, 2)
    seeds = np.array([0, 0, 37, 1, 63, 20])
    key_seeds = np.array([0, 45, 0, 1, 2, 63])
    for t, ell in [(3, 3), (4, 2), (6, 0), (0, 6)]:
        want = [_sd_bruteforce_pair(LOPSIDED, 6, t, ell, int(s), int(s2))
                for s, s2 in zip(seeds, key_seeds)]
        for kernel in (_pair_distances, _kernel):
            terms = _terms(kernel(LOPSIDED.p_xz(), ctx, t, ell), seeds, key_seeds)
            assert terms == pytest.approx(want, abs=1e-13), (kernel, t, ell)


def _exact_sd(pair, n, t, ell):
    """The seed-averaged distance as a Fraction: the dense block law of the
    binary pair law `pair` in exact rationals, scaled to integers, and every
    seed pair's (check, key, eavesdropper block) law summed in integers,
    with the oracle's own multiply (_products)."""
    ctx = field_for_source(n, 2)
    m = ctx.bits
    cells = [[Fraction(p) for p in row] for row in pair.tolist()]
    law = [[math.prod(cells[x >> i & 1][z >> i & 1] for i in range(m)) for z in range(1 << m)]
           for x in range(1 << m)]
    scale = math.lcm(*(p.denominator for row in law for p in row))
    weights = np.array([[int(p * scale) for p in row] for row in law], dtype=np.int64)
    products = [_products(s, ctx).astype(np.int64) for s in range(1 << m)]
    total = 0
    for s in range(1 << m):
        check = products[s] >> (m - t) << ell
        for s2 in range(1 << m):
            joint = np.zeros((1 << (t + ell), 1 << m), dtype=np.int64)
            np.add.at(joint, check | products[s2] >> (m - ell), weights)
            by_check = joint.reshape(1 << t, 1 << ell, -1)
            total += int(np.abs((by_check << ell) - by_check.sum(axis=1, keepdims=True)).sum())
    # 1/2 sum |P(c, k, z) - P(c, z) 2^-ell|, averaged over 4^m seed pairs
    return Fraction(total, scale << (1 + ell + 2 * m))


def test_secrecy_dyadic_reports_are_exact():
    # on dyadic sources every sum of the audit is exact, so a report's sd is
    # the exact rational distance bit for bit: every (t, l >= 1) at n = 3 and
    # 4, on a cascade (one class) and on a pair law with a class per
    # eavesdropper block, against an oracle that shares no table with the
    # audit
    pmf = np.zeros((2, 2, 2))
    pmf[0, 0], pmf[1, 1] = DYADIC_PAIR  # Y = X
    points = [(n, t, ell) for n in (3, 4) for t in range(n) for ell in range(1, n + 1 - t)]
    for src, one_class in ((DYADIC_CHAIN, True), (JointSource((2, 2, 2), pmf), False)):
        for n, t, ell in points:
            assert len(_z_classes(src.p_xz(), n)[0]) == (1 if one_class else 1 << n)
            rep = secrecy_sd_exact(src, _hand_plan(n, float(n), t, ell))
            assert rep.exact and Fraction(rep.sd) == _exact_sd(src.p_xz(), n, t, ell), \
                (one_class, n, t, ell)


def _all_pairs(m):
    return next(_seed_pair_blocks(m, None, 1 << 2 * m))


def _assert_walsh_matches_dense(pair, n, points, seeds, key_seeds, tol=1e-13):
    ctx = field_for_source(n, 2)
    for t, ell in points:
        spectral = _terms(_kernel(pair, ctx, t, ell), seeds, key_seeds)
        dense = _terms(_pair_distances(pair, ctx, t, ell), seeds, key_seeds)
        assert np.max(np.abs(spectral - dense)) <= tol, (n, t, ell)


def test_secrecy_cascade_matches_dense(monkeypatch):
    # the Walsh-spectrum terms against the dense scatter on the same pairs:
    # every (t, l) and every pair at n = 3, 5, 6, then 512 drawn pairs at
    # n = 8, l = 1 (check rows only) at every t among them
    for n in (3, 5, 6):
        points = [(t, ell) for t in range(n + 1) for ell in range(n + 1 - t)]
        _assert_walsh_matches_dense(CHAIN.p_xz(), n, points, *_all_pairs(n))
    draws = np.random.default_rng(8).integers(0, 256, size=(512, 2))
    _assert_walsh_matches_dense(CHAIN.p_xz(), 8,
                                [(0, 8), (4, 4)] + [(t, 1) for t in range(8)],
                                draws[:, 0], draws[:, 1])
    # edge cascades: noiseless receiver, a useless eavesdropper block (delta
    # = 1/2, every nonzero coefficient 0) and a noiseless eavesdropper link
    for edge in (bsc_chain(0.0, 0.15), bsc_chain(0.5, 0.5), bsc_chain(0.1, 0.0)):
        points = [(t, ell) for t in range(6) for ell in range(1, 6 - t)]
        _assert_walsh_matches_dense(edge.p_xz(), 5, points, *_all_pairs(5))
    # a cascade audit builds one class
    built = []

    def recording(*args):
        classes = _z_classes(*args)
        built.append(len(classes[0]))
        return classes

    monkeypatch.setattr(verifier, "_z_classes", recording)
    assert secrecy_sd_exact(CHAIN, _hand_plan(3, 3.0, 2, 1)).sd == \
        pytest.approx(_sd_bruteforce(CHAIN, 3, 2, 1), abs=1e-12)
    assert built == [1]


@settings(max_examples=25, deadline=None)
@given(p=st.floats(0.0, 0.5), q=st.floats(0.0, 0.5), t=st.integers(0, 4),
       ell=st.integers(1, 5))
def test_secrecy_cascade_matches_dense_property(p, q, t, ell):
    ell = min(ell, 5 - t)
    _assert_walsh_matches_dense(bsc_chain(p, q).p_xz(), 5, [(t, ell)], *_all_pairs(5))


def _binary_pair(kind, a, b, c):
    """A 2 x 2 pair law P(x, z) of the named kind from three numbers in [0, 1]:
    any law, one with a Z symbol of mass 0, X independent of Z, or X = Z xor E
    with E ~ Bernoulli(c) independent of a non-uniform Z."""
    if kind == "any":
        pair = np.array([[a, b], [c, 1.0]])
    elif kind == "z-mass-0":
        pair = np.array([[a, 0.0], [b + c, 0.0]])
    elif kind == "independent":
        pair = np.outer([a, 1.0 - a], [b, 1.0 - b])
    else:
        pz = np.array([0.1 + 0.8 * a, 0.9 - 0.8 * a])
        pair = np.array([[1.0 - c, c], [c, 1.0 - c]]) * pz
    total = pair.sum()
    return pair / total if total > 0.0 else np.array([[1.0, 0.0], [0.0, 0.0]])


# hundredths, 0 and 1 among them: a subnormal column mass would leave too few
# digits for the biases to agree within _BIAS_TOL
_HUNDREDTHS = st.integers(0, 100).map(lambda k: k / 100)


@settings(max_examples=40, deadline=None)
@given(kind=st.sampled_from(["any", "z-mass-0", "independent", "xor"]),
       a=_HUNDREDTHS, b=_HUNDREDTHS, c=_HUNDREDTHS,
       n=st.sampled_from([3, 4]), t=st.integers(0, 4), ell=st.integers(1, 4))
def test_secrecy_binary_pmf_matches_dense_property(kind, a, b, c, n, t, ell):
    # random binary pair laws, each kind's class count, and every pair's term
    # against the dense scatter
    t, ell = min(t, n - 1), min(ell, n - min(t, n - 1))
    pair = _binary_pair(kind, a, b, c)
    classes = _z_classes(pair, n)[0]
    if kind != "any":
        # a mass-0 Z symbol, X independent of Z (r0 = r1, with biases of the
        # same sign) and X = Z xor E (r0 = r1) each collapse to one class
        assert len(classes) == 1, kind
    if kind == "xor" and a != 0.5:
        # yet with Y = X it is no cascade, whose Z is uniform
        pmf = np.zeros((2, 2, 2))
        pmf[0, 0], pmf[1, 1] = pair
        assert detect_bsc_chain(JointSource((2, 2, 2), pmf)) is None
    _assert_walsh_matches_dense(pair, n, [(t, ell)], *_all_pairs(n))


@pytest.mark.parametrize("n", [3, 5])
def test_secrecy_subnormal_z_mass_collapses(n):
    # X independent of Z with P(Z = 0) = 5e-324: dividing by that mass leaves
    # the bias of Z = 0 no digits, yet the blocks holding it carry at most
    # n * 5e-324, so the symbol counts as one of no mass and one class
    pair = _binary_pair("independent", 0.3, 5e-324, 0.0)
    assert pair.sum(axis=0)[0] == 5e-324
    classes, coeff = _z_classes(pair, n)
    assert np.array_equal(classes, [0]) and coeff[1] == pytest.approx(0.4, abs=1e-15)
    points = [(t, ell) for t in range(n) for ell in range(1, n + 1 - t)]
    _assert_walsh_matches_dense(pair, n, points, *_all_pairs(n))


def test_cascade_biases_collapse_to_one_class():
    # on every cascade of the grid p, q in {0, 0.01, ..., 0.5} the biases
    # |1 - 2 P(X != v | Z = v)| are equal bit for bit and build one class; at
    # (0.02, 0.15) the base is 1 - 2 delta bit for bit
    grid = np.arange(51) / 100
    for p in grid:
        for q in grid:
            pair = bsc_chain(p, q).p_xz()
            mass = pair.sum(axis=0)
            assert abs(1 - 2 * pair[1, 0] / mass[0]) == abs(1 - 2 * pair[0, 1] / mass[1]), (p, q)
            assert len(_z_classes(pair, 4)[0]) == 1, (p, q)
    coeff = _z_classes(CHAIN.p_xz(), 4)[1]
    assert coeff[1] == _cascade_base(CHAIN) == 1.0 - 2.0 * crossover_convolve(0.02, 0.15)


def test_secrecy_perturbed_cascade_collapses():
    # a bsc_chain pmf moved within PMF_TOL, in the directions that pull the
    # two biases apart, is still detected as a cascade and still audits one
    # class, within 1e-9 of the dense oracle
    pmf = bsc_chain(0.1, 0.2).pmf.copy()
    step = 0.9 * PMF_TOL
    pmf[1, :, 0] += step
    pmf[0, :, 1] -= step
    src = JointSource((2, 2, 2), pmf)
    assert detect_bsc_chain(src) is not None
    classes, coeff = _z_classes(src.p_xz(), 4)
    assert np.array_equal(classes, [0]) and coeff[0] == 1.0
    draws = np.random.default_rng(4).integers(0, 16, size=(64, 2))
    ctx = field_for_source(4, 2)
    for t, ell in ((0, 2), (1, 1), (2, 2)):
        rep = secrecy_sd_exact(src, _hand_plan(4, 4.0, t, ell))
        dense = _terms(_pair_distances(src.p_xz(), ctx, t, ell), *_all_pairs(4)).mean()
        assert abs(rep.sd - dense) <= 1e-9, (t, ell)
        _assert_walsh_matches_dense(src.p_xz(), 4, [(t, ell)], draws[:, 0], draws[:, 1],
                                    tol=1e-9)


def _pairs_in_audit_order(m, draws):
    """The audited seed pairs as flat arrays, written from the pair index:
    reconciliation seed major, every key seed against each."""
    if draws is not None and draws.ndim == 2:
        return draws[:, 0], draws[:, 1]
    j = np.arange((1 << 2 * m) if draws is None else len(draws) << m)
    return (j >> m) if draws is None else draws[j >> m], j & ((1 << m) - 1)


def test_secrecy_grid_matches_per_pair_terms():
    # grid blocks (a run of reconciliation seeds against every key seed)
    # give the same terms as explicit pairs in the same order, also where a
    # block is a lone pair: chunk 1, and 49 drawn pairs in chunks of 16, which
    # leave one pair in the last block; on cascades (one class) and on pair
    # laws with a class per eavesdropper block.  BLAS picks the summation
    # order by block width, so the terms agree bit for bit on dyadic sources
    # and within SUM_ORDER_TOL on the others
    rng = np.random.default_rng(9)
    # a full grid in lone blocks is 4^n kernel calls a point, so it runs up
    # to n = 5 on the first cascade and n = 3 on the other sources; drawn
    # pairs run in lone blocks at every n
    for pair, sizes, lone_max, tol in (
            (bsc_chain(0.17, 0.0).p_xz(), (3, 5, 6), 5, SUM_ORDER_TOL),
            (LOPSIDED.p_xz(), (3, 5), 3, SUM_ORDER_TOL),
            (DYADIC_CHAIN.p_xz(), (3, 5, 6), 3, 0.0),
            (DYADIC_PAIR, (3, 5), 3, 0.0)):
        for n in sizes:
            _assert_grid_matches_per_pair_terms(pair, n, rng, n <= lone_max, tol)


def _assert_grid_matches_per_pair_terms(pair, n, rng, lone_grid, tol):
    ctx = field_for_source(n, 2)
    modes = (None, rng.integers(0, 1 << n, size=7), rng.integers(0, 1 << n, size=(49, 2)))
    for t in range(n + 1):
        for ell in range(n + 1 - t):
            distances, audit_chunk = _walsh_pair_distances(pair, ctx, t, ell)
            for draws in modes:
                seeds, key_seeds = _pairs_in_audit_order(n, draws)
                chunks = (audit_chunk, 16, 1)
                if draws is None and not lone_grid:
                    chunks = chunks[:2]
                for chunk in chunks:
                    blocks = list(_seed_pair_blocks(n, draws, chunk))
                    assert all(np.broadcast(*b).size <= chunk for b in blocks)
                    pairs = [np.broadcast_arrays(*b) for b in blocks]
                    assert np.array_equal(np.concatenate([a.ravel() for a, _ in pairs]), seeds)
                    assert np.array_equal(np.concatenate([b.ravel() for _, b in pairs]),
                                          key_seeds)
                    grid = np.concatenate([_terms(distances, *b) for b in blocks])
                    _assert_same(grid, _terms(distances, seeds, key_seeds), tol,
                                 (n, t, ell, chunk))


def _cascade_base(src):
    """The bias 1 - 2 P(X = 1 | Z = 0) of a cascade, read from its p_xz as
    the Walsh kernel reads it: its Walsh coefficient at v is base^wt(v)."""
    pair = src.p_xz()
    return abs(1.0 - 2.0 * pair[1, 0] / pair.sum(axis=0)[0])


def _full_spectrum_terms(base, ctx, t, ell, seeds, key_seeds):
    """Per seed pair (flat arrays), the term of the full-spectrum kernel of a
    cascade with the bias `base`: gather every (a, b) cell, clear b = 0,
    transform all t + l bits and add |.| row by row.  Columns never interact,
    so pairs are taken 512 at a time."""
    m = ctx.bits
    masks = _field_masks(ctx)
    coeff = base ** np.bitwise_count(np.arange(1 << m))
    out = []
    for lo in range(0, len(seeds), 512):
        va = subset_xors(masks[m - t:, seeds[lo:lo + 512]])
        vb = subset_xors(masks[m - ell:, key_seeds[lo:lo + 512]])
        spectrum = coeff[va[:, None] ^ vb[None, :]]
        spectrum[:, 0] = 0.0
        diff = np.abs(_walsh_hadamard(spectrum.reshape(1 << (t + ell), -1)))
        total = diff[0].copy()
        for row in diff[1:]:
            total += row
        total *= 0.5 / (1 << (t + ell))
        out.append(total)
    return np.concatenate(out)


def _reference_report(base, n, t, ell, draws):
    """(sd, std_error) of the audit of `draws` (as _seed_pair_blocks takes
    them), from the full-spectrum terms of every pair in audit order."""
    ctx = field_for_source(n, 2)
    seeds, key_seeds = (a.astype(np.int64) for a in _pairs_in_audit_order(n, draws))
    terms = _full_spectrum_terms(base, ctx, t, ell, seeds, key_seeds)
    if draws is None or len(draws) == 1:
        return float(terms.mean()), None
    samples = terms if draws.ndim == 2 else terms.reshape(len(draws), -1).mean(axis=1)
    return float(terms.mean()), float(samples.std(ddof=1) / np.sqrt(len(samples)))


def test_secrecy_shared_slices_match_full_spectrum():
    # t = 0 audits (one row of key seeds) in every mode and every l, and
    # l = 1 audits (check rows only) at every t, against the full spectrum
    # of every pair: sd and std_error bit for bit on a dyadic cascade, within
    # SUM_ORDER_TOL on another
    rng = np.random.default_rng
    for src, tol in ((CHAIN, SUM_ORDER_TOL), (DYADIC_CHAIN, 0.0)):
        base = _cascade_base(src)
        for n in (3, 5, 8):
            # each mode's keywords and the seeds secrecy_sd_exact draws with them
            modes = (({}, None),
                     ({"recon_seeds": 5, "rng_seed": n},
                      rng(n).integers(0, 1 << n, size=5, dtype=np.uint64)),
                     ({"seed_pairs": 300, "rng_seed": n},
                      rng(n).integers(0, 1 << n, size=(300, 2), dtype=np.uint64)))
            points = [(0, ell) for ell in range(1, n + 1)] + [(t, 1) for t in range(1, n)]
            for t, ell in points:
                plan = _hand_plan(n, float(n), t, ell)
                for kw, draws in modes:
                    rep = secrecy_sd_exact(src, plan, **kw)
                    want = _reference_report(base, n, t, ell, draws)
                    for got, ref in zip((rep.sd, rep.std_error), want):
                        _assert_same(got, ref, tol, (src, n, t, ell, kw))


def test_secrecy_grid_blocks_match_full_spectrum():
    # the kernel's terms on grid blocks of several reconciliation seeds
    # (the a = 0 slice gathered once per key seed) and on drawn pairs,
    # against the full spectrum of every pair: bit for bit on a dyadic
    # cascade, within SUM_ORDER_TOL on another
    for src, tol in ((bsc_chain(0.23, 0.0), SUM_ORDER_TOL), (DYADIC_CHAIN, 0.0)):
        base = _cascade_base(src)
        for n in (3, 5, 6):
            ctx = field_for_source(n, 2)
            draws = np.random.default_rng(n).integers(0, 1 << n, size=(40, 2))
            for t in range(n):
                for ell in range(1, n + 1 - t):
                    distances = _kernel(src.p_xz(), ctx, t, ell)
                    for pairs, chunk in ((None, 4 << n), (draws, 16)):
                        for block in _seed_pair_blocks(n, pairs, chunk):
                            s, s2 = (a.ravel() for a in np.broadcast_arrays(*block))
                            want = _full_spectrum_terms(base, ctx, t, ell, s, s2)
                            _assert_same(_terms(distances, *block), want, tol, (n, t, ell))
        # a grid block of 4 reconciliation seeds at n = 8, l = 1
        ctx = field_for_source(8, 2)
        block = next(_seed_pair_blocks(8, np.array([0, 3, 200, 255]), 4 << 8))
        assert block[0].shape == (4, 1) and block[1].shape == (1, 256)
        s, s2 = (a.ravel() for a in np.broadcast_arrays(*block))
        for t in range(8):
            got = _terms(_kernel(src.p_xz(), ctx, t, 1), *block)
            _assert_same(got, _full_spectrum_terms(base, ctx, t, 1, s, s2), tol, t)


def test_secrecy_t0_audit_computes_one_row(monkeypatch):
    # with no check value a term depends on the key seed alone: a full
    # n = 8 audit runs the kernel on one row of 256 pairs, not 65,536, and
    # drawn pairs on each distinct key seed once
    kernel = verifier._walsh_pair_distances
    counted = []

    def counting(*args):
        distances, chunk = kernel(*args)

        def wrapped(seeds, key_seeds, out):
            counted.append(np.broadcast(seeds, key_seeds).size)
            return distances(seeds, key_seeds, out)

        return wrapped, chunk

    monkeypatch.setattr(verifier, "_walsh_pair_distances", counting)
    for ell in (1, 3, 8):
        counted.clear()
        rep = secrecy_sd_exact(CHAIN, _hand_plan(8, 8.0, 0, ell))
        assert rep.exact and rep.seed_pairs == 65536 and rep.cells == 65536 << ell
        assert sum(counted) <= 256, (ell, counted)
    counted.clear()
    rep = secrecy_sd_exact(CHAIN, _hand_plan(8, 8.0, 0, 2), seed_pairs=2000, rng_seed=1)
    keys = np.random.default_rng(1).integers(0, 256, size=(2000, 2), dtype=np.uint64)[:, 1]
    assert sum(counted) == len(np.unique(keys)) < 2000
    assert rep.seed_pairs == 2000


def test_secrecy_lone_pair_term_matches_its_block():
    # 257 drawn pairs at n = 8, (4, 4) leave pair 257 alone in the audit's
    # second chunk of 256; its term, and so sd and std_error, must be the
    # ones the same pairs give in a single block, on a dyadic cascade and on
    # another
    plan = _hand_plan(8, 8.0, 4, 4)
    assert _CHUNK_CELLS >> 8 == 256
    draws = np.random.default_rng(257).integers(0, 256, size=(257, 2), dtype=np.uint64)
    for src in (CHAIN, DYADIC_CHAIN):
        rep = secrecy_sd_exact(src, plan, seed_pairs=257, rng_seed=257)
        distances, chunk = _walsh_pair_distances(src.p_xz(), field_for_source(8, 2), 4, 4)
        assert chunk == 256
        terms = _terms(distances, draws[:, 0].astype(np.int64), draws[:, 1].astype(np.int64))
        assert rep.sd == float(terms.mean())
        assert rep.std_error == float(terms.std(ddof=1) / np.sqrt(257))
        assert rep.seed_pairs == 257 and rep.cells == 257 * 256


@pytest.mark.parametrize("t, ell", [(1, 1), (2, 1), (3, 2), (4, 4), (6, 1), (5, 5)])
def test_secrecy_pair_terms_do_not_depend_on_block_width(t, ell):
    # the kernel's terms on 43 drawn pairs, in one block and cut into blocks
    # of 1 to 9 pairs, are equal bit for bit on non-dyadic sources, with one
    # class and with many, at k = t + ell (k = t at ell = 1) of each parity:
    # the transform sums every column in one order, whatever its neighbours
    ctx = field_for_source(8, 2)
    seeds, key_seeds = np.random.default_rng(43).integers(0, 256, size=(2, 43))
    for pair in (CHAIN.p_xz(), LOPSIDED.p_xz()):
        distances = _kernel(pair, ctx, t, ell)
        whole = _terms(distances, seeds, key_seeds)
        for width in (1, 2, 5, 9):
            parts = [_terms(distances, seeds[lo:lo + width], key_seeds[lo:lo + width])
                     for lo in range(0, 43, width)]
            assert np.array_equal(np.concatenate(parts), whole), (width, pair)


def test_field_masks_built_once_and_read_only(monkeypatch):
    _field_masks.cache_clear()
    plan = _hand_plan(8, 8.0, 2, 1)
    first = secrecy_sd_exact(CHAIN, plan)
    masks = _field_masks(field_for_source(8, 2))
    assert masks.shape == (8, 256) and masks.dtype == np.int64
    assert not masks.flags.writeable
    # further audits on the field, any point and mode, build no seed table
    monkeypatch.setattr(verifier, "SeedHasher", None)
    assert secrecy_sd_exact(CHAIN, plan) == first
    secrecy_sd_exact(CHAIN, _hand_plan(8, 8.0, 4, 4), seed_pairs=9)
    secrecy_sd_exact(CHAIN, _hand_plan(8, 8.0, 0, 3), recon_seeds=2)
    info = _field_masks.cache_info()
    assert info.misses == 1 and info.hits == 4  # three audits and the lookup above


def test_field_masks_match_gf_mul():
    # bit p of x (.) s is the parity of masks[p, s] & x: checked against
    # gf_mul for every seed and 8 drawn inputs a seed, at each m an audit may
    # use, on the int64 read-only table
    rng = np.random.default_rng(12)
    for m in range(1, 13):
        ctx = GFContext.for_bits(m)
        masks = _field_masks(ctx)
        assert masks.shape == (m, 1 << m) and masks.dtype == np.int64, m
        assert not masks.flags.writeable and masks.flags.c_contiguous, m
        xs = rng.integers(0, 1 << m, size=(1 << m, 8))
        products = np.array([[gf_mul(int(x), s, ctx) for x in row] for s, row in enumerate(xs)])
        parity = np.bitwise_count(masks[:, :, None] & xs[None]) & 1
        assert np.array_equal(parity, products[None] >> np.arange(m)[:, None, None] & 1), m


def _hadamard_entries(k):
    """H_(2^k) from its entries, (-1)^wt(i & j)."""
    i = np.arange(1 << k)
    parity = np.zeros((1 << k, 1 << k), dtype=np.int64)
    for bit in range(k):
        parity ^= (i[:, None] >> bit) & (i[None, :] >> bit) & 1
    return 1.0 - 2.0 * parity


def _walsh_by_bits(a):
    """The transform along axis 0 as one 2 x 2 butterfly per row bit, on a
    (2, ..., 2, cols) view; exact on integer entries."""
    k = a.shape[0].bit_length() - 1
    x = a.reshape((2,) * k + (-1,))
    for axis in range(k):
        x = np.moveaxis(np.tensordot([[1.0, 1.0], [1.0, -1.0]], x, axes=([1], [axis])), 0, axis)
    return x.reshape(a.shape)


def test_walsh_hadamard_any_layout():
    # integer entries keep every sum exact in any order, so the transform
    # must match one butterfly per row bit exactly at every k, on both paths
    # (k = 1 adds and subtracts, k >= 2 multiplies by the two Sylvester
    # factors, split evenly or not), in every memory layout, with fewer
    # columns than a BLAS tile and with more
    rng = np.random.default_rng(3)
    for k in range(13):
        for cols in (1 + k % 4, _BLAS_TILE + 1 + k % 4):
            base = rng.integers(-9, 10, size=(1 << k, cols)).astype(np.float64)
            want = _walsh_by_bits(base)
            # each layout of a fresh copy: a C-contiguous input is overwritten
            for layout in (np.copy, np.asfortranarray, lambda b: b[::-1].copy()[::-1],
                           lambda b: np.repeat(b, 2, axis=1)[:, ::2],
                           lambda b: b[:, ::-1].copy()[:, ::-1]):
                got = _walsh_hadamard(layout(base.copy()))
                assert np.array_equal(got, want), (k, cols)
                assert got.flags.c_contiguous
            # the result lands in the C-contiguous input's own buffer or in
            # the scratch, never in a third array: the scratch at k = 1, the
            # input elsewhere; and with a scratch and a whole BLAS tile of
            # columns the transform allocates no array (one of a's shape
            # takes 4 KiB or more from k = 6 on)
            a, scratch = base.copy(), np.empty_like(base)
            tracemalloc.start()
            try:
                got = _walsh_hadamard(a, scratch=scratch)
                peak = tracemalloc.get_traced_memory()[1]
            finally:
                tracemalloc.stop()
            assert got is (scratch if k == 1 else a), k
            assert np.array_equal(got, want), (k, cols)
            if cols >= _BLAS_TILE:
                assert peak < 4096, (k, peak)


def test_hadamard_factors_cached_read_only():
    # the Sylvester factors are built on first use, once per k, read-only;
    # importing the verifier builds none
    code = "import omska.verifier as v; print(v._hadamard.cache_info().currsize)"
    env = {**os.environ, "PYTHONPATH": os.pathsep.join(sys.path)}
    out = subprocess.run([sys.executable, "-c", code], env=env, capture_output=True,
                         text=True, check=True).stdout
    assert out.strip() == "0"
    for k in range(7):
        h = _hadamard(k)
        assert h is _hadamard(k) and not h.flags.writeable
        assert np.array_equal(h, _hadamard_entries(k)), k
    with pytest.raises(ValueError):
        _hadamard(3)[0, 0] = 2.0


def test_secrecy_zero_key_skips_enumeration(monkeypatch):
    # a 0-bit key is uniform by definition: no seed table is built, and the
    # report matches the enumerated one field for field
    def refuse(*args):
        raise AssertionError("seed table built for a 0-bit key")

    plan = plan_desk_exact(CHAIN, 8, 0.05, 0.05)
    assert plan.key_bits == 0
    _field_masks.cache_clear()
    monkeypatch.setattr(verifier, "SeedHasher", refuse)
    rep = secrecy_sd_exact(CHAIN, plan)
    assert rep.sd == 0.0 and rep.exact and rep.seed_pairs == 65536
    sampled = secrecy_sd_exact(CHAIN, plan, seed_pairs=50)
    assert sampled.sd == 0.0 and sampled.seed_pairs == 50 and sampled.std_error == 0.0
    recon = secrecy_sd_exact(CHAIN, plan, recon_seeds=3)
    assert recon.sd == 0.0 and recon.seed_pairs == 3 * 256 and recon.std_error == 0.0
    assert secrecy_sd_exact(CHAIN, plan, seed_pairs=1).std_error is None


def test_secrecy_zero_key_audit_streams_pairs():
    # the n = 10 desk plan, 256 reconciliation seeds against all 1024 key
    # seeds; with a 0-bit key the count follows from the sampling mode and
    # no per-pair storage is made
    plan = plan_desk_exact(CHAIN, 10, 0.05, 0.05)
    assert plan.key_bits == 0
    secrecy_sd_exact(CHAIN, plan, recon_seeds=256)  # warm imports and caches
    tracemalloc.start()
    try:
        rep = secrecy_sd_exact(CHAIN, plan, recon_seeds=256)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak < 4 * 2 ** 20, peak
    assert rep.sd == 0.0 and not rep.exact
    assert rep.seed_pairs == 256 * 1024 and rep.std_error == 0.0


def test_secrecy_audit_memory_stays_within_a_chunk():
    # an 11-bit field: a table of v_b over all 2048 key seeds at l = 11 would
    # take 16 MiB, one chunk's cells take 0.5 MiB
    secrecy_sd_exact(CHAIN, _hand_plan(11, 8.0, 1, 1), recon_seeds=1)  # warm caches
    for t, ell in ((0, 11), (10, 1)):
        tracemalloc.start()
        try:
            rep = secrecy_sd_exact(CHAIN, _hand_plan(11, 8.0, t, ell), recon_seeds=1)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak < 4 * 2 ** 20, (t, ell, peak)
        assert rep.seed_pairs == 2048 and 0.0 < rep.sd <= 1.0


@pytest.mark.parametrize("n", [11, 12])
def test_secrecy_non_cascade_audit_memory_stays_within_a_chunk(n):
    # a class per eavesdropper block, 2^n of them, in class blocks of at most
    # one chunk: the dense law alone would take 4^n cells, 128 MiB at n = 12
    plan = _hand_plan(n, 8.0, 1, 1)
    secrecy_sd_exact(LOPSIDED, plan, seed_pairs=2)  # warm caches
    tracemalloc.start()
    try:
        rep = secrecy_sd_exact(LOPSIDED, plan, recon_seeds=1)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak < 8 * rep.seed_pairs + 4 * 2 ** 20, peak
    assert rep.seed_pairs == 1 << n and 0.0 < rep.sd <= 1.0


def test_secrecy_workspace_reused_across_audits():
    # the chunk buffers of a first audit serve the second: at n = 8, (4, 4)
    # a chunk is 256 pairs x 256 cells, and one of its buffers alone takes
    # 512 KiB, which the second audit must not allocate again
    plan = _hand_plan(8, 8.0, 4, 4)
    first = secrecy_sd_exact(CHAIN, plan, seed_pairs=512)
    tracemalloc.start()
    try:
        second = secrecy_sd_exact(CHAIN, plan, seed_pairs=512)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert second == first
    assert peak < 512 * 1024, peak


@pytest.mark.parametrize("n, t, ell, kw, rest", [
    # a chunk of 16,384 pairs x 4 cells, 512 KiB a buffer; the audit holds
    # about 145 KiB beside its terms
    (8, 1, 1, {}, 256 * 1024),
    # t = 0: one row of 4,096 key seeds x 8 cells, 256 KiB a buffer; the audit
    # holds about 840 KiB beside its terms, most of it the row's key
    # functionals and the transform's temporaries
    (12, 0, 3, {"recon_seeds": 1}, 960 * 1024)], ids=["n8-full-1-1", "n12-recon-0-3"])
def test_secrecy_workspace_reused_by_shared_slice_audits(n, t, ell, kw, rest):
    # beside its terms, 8 bytes a seed pair, a second audit stays within
    # `rest`, which one chunk buffer allocated again would break
    plan = _hand_plan(n, float(n), t, ell)
    first = secrecy_sd_exact(CHAIN, plan, **kw)
    tracemalloc.start()
    try:
        second = secrecy_sd_exact(CHAIN, plan, **kw)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert second == first
    assert peak < 8 * first.seed_pairs + rest, peak


def test_secrecy_audits_fault_in_no_fresh_pages():
    # after one warm-up, repeated audits at the benchmark's four n = 8 points
    # and at n = 12, (6, 6) on 256 drawn pairs write into pages already
    # mapped in: the chunk workspace, the transform's two products included,
    # and the terms array, which the allocator hands out again.  A transform
    # that allocated chunk-sized temporaries would fault: about 200 KB of
    # them per stage made 129 faults here in a fresh process, while glibc's
    # mmap threshold is still at its 128 KiB start
    audits = [(_hand_plan(8, 8.0, 0, 1), {}), (_hand_plan(8, 8.0, 1, 1), {}),
              (_hand_plan(8, 8.0, 1, 2), {"recon_seeds": 64, "rng_seed": 2}),
              (_hand_plan(8, 8.0, 4, 4), {"seed_pairs": 512, "rng_seed": 3}),
              (_hand_plan(12, 12.0, 6, 6), {"seed_pairs": 256, "rng_seed": 4})]
    first = [secrecy_sd_exact(CHAIN, plan, **kw) for plan, kw in audits]
    rounds = 4
    before = resource.getrusage(resource.RUSAGE_SELF).ru_minflt
    for _ in range(rounds):
        assert [secrecy_sd_exact(CHAIN, plan, **kw) for plan, kw in audits] == first
    faults = resource.getrusage(resource.RUSAGE_SELF).ru_minflt - before
    assert faults < rounds * len(audits), faults


def test_secrecy_workspace_per_thread():
    # threads auditing different (t, l) points at once, more threads than
    # cores and with frequent switches, each compute in their own workspace
    # and return the serial reports
    jobs = [(_hand_plan(8, 8.0, 1, 1), {}), (_hand_plan(8, 8.0, 4, 4), {"seed_pairs": 512}),
            (_hand_plan(8, 8.0, 0, 3), {"recon_seeds": 32}),
            (_hand_plan(8, 8.0, 2, 5), {"seed_pairs": 700}),
            (_hand_plan(8, 8.0, 0, 5), {"seed_pairs": 600})]
    serial = [secrecy_sd_exact(CHAIN, plan, **kw) for plan, kw in jobs]
    got = {}
    start = threading.Barrier(len(jobs))

    def audit(i):
        start.wait(timeout=60)
        got[i] = [secrecy_sd_exact(CHAIN, jobs[i][0], **jobs[i][1]) for _ in range(3)]

    threads = [threading.Thread(target=audit, args=(i,)) for i in range(len(jobs))]
    interval = sys.getswitchinterval()
    sys.setswitchinterval(1e-5)
    try:
        for th in threads:
            th.start()
        for th in threads:
            th.join(timeout=120)
    finally:
        sys.setswitchinterval(interval)
    assert not any(th.is_alive() for th in threads)
    for i, want in enumerate(serial):
        assert got[i] == [want] * 3, i


def test_secrecy_cells_count():
    # cells = seed pairs x 2^(t + l) in every mode, on a cascade and not; 0 for a
    # 0-bit key, whose audit computes none
    assert secrecy_sd_exact(CHAIN, _hand_plan(8, 8.0, 1, 2)).cells == 65536 * 8
    assert secrecy_sd_exact(CHAIN, _hand_plan(8, 8.0, 4, 4), seed_pairs=9).cells == 9 * 256
    assert secrecy_sd_exact(CHAIN, _hand_plan(8, 8.0, 0, 3), recon_seeds=2).cells == \
        2 * 256 * 8
    lopsided = secrecy_sd_exact(LOPSIDED, _hand_plan(3, 3.0, 2, 1))
    assert lopsided.cells == 64 * 8
    zero = secrecy_sd_exact(CHAIN, _hand_plan(8, 8.0, 3, 0))
    assert zero.cells == zero.computed_cells == 0 and zero.seed_pairs == 65536
    # computed_cells = terms computed x classes x cells a term: at the
    # benchmark's four n = 8 points, one row of 256 key seeds at t = 0, 2
    # check cells a pair at l = 1 and 256 at (4, 4); on LOPSIDED, every pair
    # at n = 3, (2, 1), times 8 classes
    for (t, ell), kw, cells in (((0, 1), {}, 256), ((1, 1), {}, 65536 * 2),
                                ((1, 2), {"recon_seeds": 64}, 64 * 256 * 8),
                                ((4, 4), {"seed_pairs": 512}, 512 * 256)):
        rep = secrecy_sd_exact(CHAIN, _hand_plan(8, 8.0, t, ell), **kw)
        assert rep.computed_cells == cells, (t, ell)
    assert lopsided.computed_cells == 64 * 8 * 4


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
    single = secrecy_sd_exact(CHAIN, plan, seed_pairs=1, rng_seed=0)
    assert single.seed_pairs == 1 and single.std_error is None


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
    # explicit sampling works on a 9-bit field as on an 8-bit one
    rep = secrecy_sd_exact(CHAIN, _hand_plan(9, 8.0, 2, 1), seed_pairs=40)
    assert 0.0 <= rep.sd <= 1.0 and not rep.exact


def _refusing(what):
    """A stand-in that fails the test with `what` when it is called."""
    def refused(*args, **kwargs):
        raise AssertionError(what)
    return refused


def test_secrecy_budget_checked_before_drawing(monkeypatch):
    # an audit is charged its seed pairs and computed cells before any seed
    # is drawn or any table built, at (1, 1) on the cascade: 3 a grid pair
    # (its term and its 2 check cells), 6 a drawn pair (its two draws, its
    # term, the standard error's temporary and its 2 check cells).  So a
    # budget of 3 x 2^24 refuses one grid pair more than 2^24 and lets 2^24
    # through to the draw.  A 0-bit key is charged nothing and draws
    # nothing, at any count
    budget = 3 << 24
    monkeypatch.setenv("OMSKA_BUDGET", str(budget))
    monkeypatch.setattr(np.random, "default_rng", _refusing("seeds drawn"))
    monkeypatch.setattr(verifier, "_field_masks", _refusing("mask table built"))
    zero_key = plan_desk_exact(CHAIN, 8, 0.05, 0.05)
    assert zero_key.key_bits == 0
    for kw, pairs, words in (({"seed_pairs": 10 ** 11}, 10 ** 11, 6),
                             ({"recon_seeds": 10 ** 11}, 10 ** 11 << 8, 3),
                             ({"seed_pairs": (1 << 24) + 1}, (1 << 24) + 1, 6),
                             ({"recon_seeds": (1 << 16) + 1}, (1 << 24) + 256, 3)):
        with pytest.raises(BudgetExceededError) as exc:
            secrecy_sd_exact(CHAIN, _hand_plan(8, 8.0, 1, 1), **kw)
        assert (exc.value.count, exc.value.budget) == (words * pairs, budget), kw
        rep = secrecy_sd_exact(CHAIN, zero_key, **kw)
        assert rep.sd == 0.0 and rep.seed_pairs == pairs and rep.computed_cells == 0, kw
    with pytest.raises(AssertionError, match="seeds drawn"):
        secrecy_sd_exact(CHAIN, _hand_plan(8, 8.0, 1, 1), recon_seeds=1 << 16)


def test_secrecy_drawn_pairs_charged_four_words(monkeypatch):
    # 99,000,000 drawn pairs at n = 8, (0, 1) would hold about 3 GB of draws,
    # terms and the standard error's temporary: 4 words a pair and 256
    # computed cells are over the default budget, so nothing is drawn
    monkeypatch.setattr(np.random, "default_rng", _refusing("seeds drawn"))
    with pytest.raises(BudgetExceededError) as exc:
        secrecy_sd_exact(CHAIN, _hand_plan(8, 8.0, 0, 1), seed_pairs=99_000_000)
    assert (exc.value.count, exc.value.budget) == (396_000_256, 10 ** 8)


@pytest.mark.parametrize("t", [0, 1])
def test_secrecy_drawn_audit_memory_within_its_charge(t):
    # a 10^6-pair drawn audit at n = 8 holds no more than the 4 words a pair
    # it is charged, and 2 MiB: at t = 0 the distinct key seeds come from a
    # count table of the 2^m seeds, with no sorted copy or inverse index
    pairs = 10 ** 6
    plan = _hand_plan(8, 8.0, t, 1)
    secrecy_sd_exact(CHAIN, plan, seed_pairs=1000)  # warm imports and caches
    tracemalloc.start()
    try:
        rep = secrecy_sd_exact(CHAIN, plan, seed_pairs=pairs, rng_seed=t)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert rep.seed_pairs == pairs and rep.std_error > 0.0
    assert peak <= 4 * 8 * pairs + (2 << 20), peak


def test_secrecy_non_cascade_audit_refused_at_once(monkeypatch):
    # LOPSIDED at n = 12, (2, 3), one reconciliation seed: 4,096 pairs x
    # 4,096 classes x 32 cells, 11.6 s of work when audits had no budget, is
    # refused by the default one before anything is drawn or built
    monkeypatch.setattr(np.random, "default_rng", _refusing("seeds drawn"))
    monkeypatch.setattr(verifier, "_field_masks", _refusing("mask table built"))
    start = time.perf_counter()
    with pytest.raises(BudgetExceededError) as exc:
        secrecy_sd_exact(LOPSIDED, _hand_plan(12, 12.0, 2, 3), recon_seeds=1)
    assert time.perf_counter() - start < 0.5
    charge = 4096 + 4096 * 4096 * 32
    assert (exc.value.count, exc.value.budget) == (charge, 10 ** 8) == (536_875_008, 10 ** 8)
    assert str(charge) in str(exc.value) and str(10 ** 8) in str(exc.value)


def test_secrecy_raised_budget_admits(monkeypatch):
    # OMSKA_BUDGET at an audit's charge admits it, one below refuses it: the
    # n = 12 audit above gets through to its draw, and a full n = 4, (1, 2)
    # audit on LOPSIDED (256 pairs x 16 classes x 8 cells) runs to the
    # default budget's report
    plan = _hand_plan(4, 4.0, 1, 2)
    want = secrecy_sd_exact(LOPSIDED, plan)
    charge = 256 + 256 * 16 * 8
    assert want.exact and want.computed_cells == charge - 256
    monkeypatch.setenv("OMSKA_BUDGET", str(charge))
    assert secrecy_sd_exact(LOPSIDED, plan) == want
    monkeypatch.setenv("OMSKA_BUDGET", str(charge - 1))
    with pytest.raises(BudgetExceededError):
        secrecy_sd_exact(LOPSIDED, plan)
    monkeypatch.setattr(np.random, "default_rng", _refusing("seeds drawn"))
    monkeypatch.setenv("OMSKA_BUDGET", str(536_875_008))
    with pytest.raises(AssertionError, match="seeds drawn"):
        secrecy_sd_exact(LOPSIDED, _hand_plan(12, 12.0, 2, 3), recon_seeds=1)


def test_secrecy_merged_biases_are_not_exact():
    # [[0, 1e-12], [1, 1]], normalised: biases 1 and about 1 - 2e-12 share
    # one class, which moves the n = 3, (0, 1) terms off the dense oracle, so
    # the report says it is not exact, though every pair is enumerated; a
    # cascade's two biases are equal bit for bit, and its report is exact
    pair = _binary_pair("any", 0.0, 1e-12, 1.0)
    r0, r1, mass_z = verifier._z_biases(pair, 3)
    assert mass_z is None and r0 != r1
    pmf = np.zeros((2, 2, 2))
    pmf[0, 0], pmf[1, 1] = pair
    rep = secrecy_sd_exact(JointSource((2, 2, 2), pmf), _hand_plan(3, 3.0, 0, 1))
    dense = _terms(_pair_distances(pair, field_for_source(3, 2), 0, 1), *_all_pairs(3))
    assert not rep.exact and rep.seed_pairs == 64 and rep.std_error is None
    assert 1e-13 < abs(rep.sd - dense.mean()) <= 1e-10
    assert secrecy_sd_exact(CHAIN, _hand_plan(3, 3.0, 0, 1)).exact


def test_secrecy_wide_field_enumerates_every_pair():
    # a default audit enumerates every seed pair, whatever the field's width,
    # or is refused: a 9-bit field's 2^18 pairs, 4 cells each at (2, 1)
    rep = secrecy_sd_exact(CHAIN, _hand_plan(9, 8.0, 2, 1))
    assert rep.exact and rep.std_error is None
    assert rep.seed_pairs == 1 << 18 and rep.computed_cells == 4 << 18
    assert 0.0 < rep.sd <= rep.lhl_bound


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
