"""Source model: joint pmf handling, entropy profiles, sampling."""

import json
import math
import pickle

import mpmath
import numpy as np
import pytest

from cascade_oracles import binary_entropy, crossover_convolve, detect_bsc_chain
from omska.source import (BscChainParams, EntropyProfile, JointSource, bsc_chain,
                          entropy_profile, load_joint_pmf, ow_capacity_less_noisy,
                          sample)

CHAIN = bsc_chain(0.02, 0.15)


def test_binary_entropy_edges():
    assert binary_entropy(0.0) == 0.0
    assert binary_entropy(1.0) == 0.0
    assert binary_entropy(0.5) == 1.0
    for p in (0.01, 0.2, 0.37):
        assert binary_entropy(p) == pytest.approx(binary_entropy(1.0 - p), abs=1e-15)


def test_binary_entropy_against_high_precision():
    mpmath.mp.dps = 40
    for p in (0.02, 0.164, 0.3, 0.45):
        mp = mpmath.mpf(repr(p))
        expect = float(-mp * mpmath.log(mp, 2) - (1 - mp) * mpmath.log(1 - mp, 2))
        assert binary_entropy(p) == pytest.approx(expect, abs=1e-14)
    # spot literals, frozen from a 40-digit evaluation
    assert binary_entropy(0.02) == pytest.approx(0.14144054254182064515, abs=1e-14)
    assert binary_entropy(0.164) == pytest.approx(0.64379352148510333894, abs=1e-14)


def test_crossover_convolve():
    assert crossover_convolve(0.02, 0.15) == pytest.approx(0.164, abs=1e-15)
    assert crossover_convolve(0.0, 0.3) == pytest.approx(0.3, abs=1e-15)
    assert crossover_convolve(0.25, 0.0) == pytest.approx(0.25, abs=1e-15)
    assert crossover_convolve(0.5, 0.1) == pytest.approx(0.5, abs=1e-15)


def test_chain_pmf_structure():
    src = CHAIN
    assert src.alphabet_sizes == (2, 2, 2)
    pmf = src.pmf
    assert pmf.shape == (2, 2, 2)
    assert pmf.sum() == pytest.approx(1.0, abs=1e-12)
    p_neq_xy = pmf[0, 1, :].sum() + pmf[1, 0, :].sum()
    assert p_neq_xy == pytest.approx(0.02, abs=1e-15)
    p_neq_yz = pmf[:, 0, 1].sum() + pmf[:, 1, 0].sum()
    assert p_neq_yz == pytest.approx(0.15, abs=1e-15)
    # first marginal uniform by construction
    assert pmf[0].sum() == pytest.approx(0.5, abs=1e-15)
    for x, y, z in np.ndindex(2, 2, 2):
        leg1 = 0.02 if x != y else 1.0 - 0.02
        leg2 = 0.15 if y != z else 1.0 - 0.15
        assert pmf[x, y, z] == 0.5 * leg1 * leg2  # the literal product, bit for bit


def test_chain_params_validation():
    with pytest.raises(ValueError):
        BscChainParams(-0.01, 0.1)
    with pytest.raises(ValueError):
        BscChainParams(0.1, 0.6)
    params = BscChainParams(0.02, 0.15)
    assert bsc_chain(params).pmf == pytest.approx(CHAIN.pmf)


def test_pmf_is_read_only():
    with pytest.raises(ValueError):
        CHAIN.pmf[0, 0, 0] = 1.0


def test_detect_chain_roundtrip():
    for p, q in [(0.02, 0.15), (0.0, 0.3), (0.5, 0.5), (0.11, 0.0)]:
        params = detect_bsc_chain(bsc_chain(p, q))
        assert params is not None
        assert params.p == pytest.approx(p, abs=1e-12)
        assert params.q == pytest.approx(q, abs=1e-12)


def test_detect_chain_rejects_non_chain():
    pmf = CHAIN.pmf.copy()
    pmf[0, 0, 0] += 0.01
    pmf[1, 1, 1] -= 0.01
    assert detect_bsc_chain(JointSource((2, 2, 2), pmf)) is None
    ternary = np.full((3, 2, 2), 1.0 / 12)
    assert detect_bsc_chain(JointSource((3, 2, 2), ternary)) is None


def test_detect_chain_builds_no_source(monkeypatch):
    # detection compares pmf arrays; it neither builds nor validates a source
    from omska import source

    def refuse(self):
        raise AssertionError("JointSource built during detection")

    lopsided = CHAIN.pmf.copy()
    lopsided[0, 0, 0] += 0.01
    lopsided[1, 1, 1] -= 0.01
    lopsided = JointSource((2, 2, 2), lopsided)
    monkeypatch.setattr(source.JointSource, "__post_init__", refuse)
    params = detect_bsc_chain(CHAIN)
    assert (params.p, params.q) == pytest.approx((0.02, 0.15), abs=1e-15)
    assert detect_bsc_chain(lopsided) is None


def test_source_kind_resolved_once_and_pickled():
    # the derived columns are stored with the source and survive pickling
    lopsided = CHAIN.pmf.copy()
    lopsided[0, 0, 0] += 0.01
    lopsided[1, 1, 1] -= 0.01
    ternary = np.full((3, 2, 2), 1.0 / 12)
    for src in (CHAIN, JointSource((2, 2, 2), lopsided), JointSource((3, 2, 2), ternary)):
        # process pools ship sources to workers
        back = pickle.loads(pickle.dumps(src))
        assert back.cost_columns == src.cost_columns
        assert np.array_equal(back.column_ids, src.column_ids)
        assert np.array_equal(back.rank_symbols, src.rank_symbols)


def test_ranked_columns_sort_by_cost_then_symbol():
    # y = 0: x = 1, 2 and 4 tie, x = 3 is inadmissible; y = 1 is never observed
    p_xy = np.array([[0.1, 0.0], [0.3, 0.0], [0.3, 0.0], [0.0, 0.0], [0.3, 0.0]])
    src = JointSource((5, 2, 1), p_xy[:, :, None])
    cond = p_xy[:, 0] / p_xy[:, 0].sum()
    assert src.rank_symbols.tolist() == [[1, 2, 4, 0, 0], [0, 0, 0, 0, 0]]
    assert src.cost_columns == (tuple(-math.log2(cond[a]) for a in (1, 2, 4, 0)), ())
    assert not src.rank_symbols.flags.writeable
    back = pickle.loads(pickle.dumps(src))
    assert back.cost_columns == src.cost_columns
    assert np.array_equal(back.rank_symbols, src.rank_symbols)
    # the cascade: y's own symbol first
    keep, flip = -math.log2(0.98), -math.log2(0.02)
    assert CHAIN.rank_symbols.tolist() == [[0, 1], [1, 0]]
    for column in CHAIN.cost_columns:
        assert column == pytest.approx((keep, flip), abs=1e-12)


def test_entropy_profile_chain_frozen():
    prof = entropy_profile(CHAIN)
    assert prof.h_x_given_y == pytest.approx(0.141440542541821, abs=1e-12)
    assert prof.h_x_given_z == pytest.approx(0.643793521485103, abs=1e-12)
    assert prof.var_x_given_y == pytest.approx(0.617889346018643, abs=1e-12)
    assert prof.var_x_given_z == pytest.approx(0.757032560197444, abs=1e-12)
    assert prof.rho_x_given_y == pytest.approx(3.33327403343312, abs=1e-11)


def test_entropy_profile_matches_literal_sums():
    # independent transcription of the defining sums on a lopsided source
    pmf = np.array([[[0.10, 0.05], [0.20, 0.05]],
                    [[0.05, 0.15], [0.10, 0.02]],
                    [[0.08, 0.05], [0.10, 0.05]]])
    src = JointSource((3, 2, 2), pmf)
    prof = entropy_profile(src)
    p_xy = pmf.sum(axis=2)
    p_y = p_xy.sum(axis=0)
    mean = var = 0.0
    for xv in range(3):
        for yv in range(2):
            if p_xy[xv, yv] == 0:
                continue
            info = -math.log2(p_xy[xv, yv] / p_y[yv])
            mean += p_xy[xv, yv] * info
    for xv in range(3):
        for yv in range(2):
            if p_xy[xv, yv] == 0:
                continue
            info = -math.log2(p_xy[xv, yv] / p_y[yv])
            var += p_xy[xv, yv] * (info - mean) ** 2
    assert prof.h_x_given_y == pytest.approx(mean, abs=1e-12)
    assert prof.var_x_given_y == pytest.approx(var, abs=1e-12)


def test_capacity_frozen_value():
    cap = ow_capacity_less_noisy(CHAIN)
    assert cap == pytest.approx(0.50235297894328269378, abs=1e-12)
    prof = entropy_profile(CHAIN)
    assert cap == pytest.approx(prof.h_x_given_z - prof.h_x_given_y, abs=1e-15)


def test_capacity_negative_when_eavesdropper_sees_more():
    # z is a copy of x, helper only sees x through noise
    pmf = np.zeros((2, 2, 2))
    for xv in range(2):
        for yv in range(2):
            p = 0.5 * (0.9 if xv == yv else 0.1)
            pmf[xv, yv, xv] = p
    src = JointSource((2, 2, 2), pmf)
    assert ow_capacity_less_noisy(src) < 0.0


def test_load_joint_pmf_generator():
    src = load_joint_pmf({"generator": "bsc_chain", "p": 0.02, "q": 0.15})
    assert src.pmf == pytest.approx(CHAIN.pmf)
    src2 = load_joint_pmf(json.dumps({"generator": "bsc_chain", "p": 0.02, "q": 0.15}))
    assert src2.pmf == pytest.approx(CHAIN.pmf)


def test_load_joint_pmf_explicit():
    flat = CHAIN.pmf.ravel().tolist()
    desc = {"alphabet_sizes": [2, 2, 2], "pmf": flat}
    src = load_joint_pmf(desc)
    assert src.pmf == pytest.approx(CHAIN.pmf)
    assert src.labels is None


def test_load_joint_pmf_errors():
    with pytest.raises(ValueError, match="JSON"):
        load_joint_pmf("{not json")
    with pytest.raises(ValueError, match="generator"):
        load_joint_pmf({"generator": "elsewhere"})
    with pytest.raises(ValueError):
        load_joint_pmf({"alphabet_sizes": [2, 2, 2], "pmf": [1.0, 0.0]})
    with pytest.raises(ValueError):
        load_joint_pmf({"pmf": [1.0]})
    # NaN compares false, so neither the sign nor the sum check catches it
    for bad in ("NaN", "Infinity"):
        with pytest.raises(ValueError, match="non-finite"):
            load_joint_pmf(f'{{"alphabet_sizes": [2, 2, 2], "pmf": [{bad}, 0, 0, 0, 0, 0, 0, 1]}}')


def test_joint_source_validation():
    with pytest.raises(ValueError, match="shape"):
        JointSource((2, 2, 2), np.full((2, 2), 0.25))
    bad = np.full((2, 2, 2), 0.125)
    bad[0, 0, 0] = -0.125
    bad[1, 1, 1] = 0.375
    with pytest.raises(ValueError, match="negative"):
        JointSource((2, 2, 2), bad)
    with pytest.raises(ValueError, match="sum"):
        JointSource((2, 2, 2), np.full((2, 2, 2), 0.2))


def test_marginals_consistent():
    src = CHAIN
    assert src.p_xy().sum() == pytest.approx(1.0, abs=1e-12)
    assert src.p_xz().sum() == pytest.approx(1.0, abs=1e-12)
    assert src.p_xy() == pytest.approx(src.pmf.sum(axis=2))
    assert src.p_xz() == pytest.approx(src.pmf.sum(axis=1))
    assert src.p_y() == pytest.approx(src.pmf.sum(axis=(0, 2)))
    assert src.p_z() == pytest.approx(src.pmf.sum(axis=(0, 1)))


def test_sample_reproducible():
    x1, y1, z1 = sample(CHAIN, 200, rng_seed=42)
    x2, y2, z2 = sample(CHAIN, 200, rng_seed=42)
    assert (x1 == x2).all() and (y1 == y2).all() and (z1 == z2).all()
    x3, _, _ = sample(CHAIN, 200, rng_seed=43)
    assert (x1 != x3).any()


def test_sample_accepts_generator():
    rng = np.random.default_rng(7)
    x, y, z = sample(CHAIN, 50, rng)
    assert x.shape == (50,) and y.shape == (50,) and z.shape == (50,)
    assert set(np.unique(x)) <= {0, 1}


def test_sample_draws_what_generator_choice_draws():
    # the kept CDF and searchsorted must reproduce choice(p=pmf) cell for cell,
    # zero-mass cells included, on the same random stream
    shapes = [(2, 2, 2), (3, 3, 3), (3, 2, 1), (5, 1, 2)]
    for k, shape in enumerate(shapes):
        g = np.random.default_rng(100 + k)
        pmf = g.dirichlet(np.full(int(np.prod(shape)), 0.5))
        pmf[g.integers(pmf.size)] = 0.0
        src = JointSource(shape, (pmf / pmf.sum()).reshape(shape))
        for seed in range(25):
            for n in (1, 32, 500):
                cells = np.random.default_rng(seed).choice(pmf.size, size=n,
                                                           p=src.pmf.ravel())
                want = np.unravel_index(cells, shape)
                got = sample(src, n, seed)
                for a, b in zip(got, want):
                    assert a.dtype == np.int64 and np.array_equal(a, b)


def test_sample_frequencies_track_pmf():
    n = 40000
    x, y, z = sample(CHAIN, n, rng_seed=3)
    # X<->Y disagreement should sit near p = 0.02 (4-sigma slack)
    rate_xy = float((x != y).mean())
    slack = 4 * math.sqrt(0.02 * 0.98 / n)
    assert abs(rate_xy - 0.02) < slack
    rate_yz = float((y != z).mean())
    slack2 = 4 * math.sqrt(0.15 * 0.85 / n)
    assert abs(rate_yz - 0.15) < slack2
