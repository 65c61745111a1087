"""Empirical and exact verification of reliability and secrecy claims.

Reliability is checked by Monte Carlo over full sessions with a Wilson score
interval on the failure rate.  Secrecy is checked exactly at desk scale: the
statistical distance between (key, transcript, eavesdropper block) and an
ideal uniform key is computed by enumerating every source block, eavesdropper
block, and (for small fields) every seed pair.  No concentration inequality
stands between the reported number and the definition; the only approximation
ever introduced is seed-pair sampling, and then the report says so and
carries a standard error.
"""

from __future__ import annotations

import itertools
import math
from collections import Counter
from dataclasses import dataclass
from functools import reduce

import numpy as np

from .planner import Plan
from .protocol import run_session
from .source import JointSource, avg_min_entropy_product
from .uhash import BitString, GFContext, SeedHasher, field_for_source

# two-sided 95% normal quantile, fixed so intervals are reproducible
_WILSON_Z = 1.959963984540054

_CENSUS_MAX_BITS = 10
_EXACT_SD_MAX_N = 12
_ENUM_SEED_MAX_BITS = 8
_FALLBACK_RECON_SAMPLE = 256
_MINENTROPY_MAX_CELLS = 10 ** 8
_MATMUL_MAX_BUCKETS = 64


@dataclass(frozen=True)
class ReliabilityEstimate:
    """Monte Carlo failure-rate estimate with a 95% Wilson score interval.

    A trial fails unless its outcome is 'agreed'.  meets_target compares the
    interval's upper end against the plan's reliability budget.
    """

    trials: int
    failures: int
    outcome_counts: dict
    failure_rate: float
    wilson_lower: float
    wilson_upper: float
    eps_target: float
    meets_target: bool


def wilson_interval(failures: int, trials: int) -> tuple[float, float]:
    """95% Wilson score interval for a binomial proportion."""
    if trials < 1:
        raise ValueError("need at least one trial")
    if not (0 <= failures <= trials):
        raise ValueError(f"failures {failures} out of range for {trials} trials")
    z2 = _WILSON_Z * _WILSON_Z
    denom = trials + z2
    center = (failures + z2 / 2.0) / denom
    half = _WILSON_Z * math.sqrt(failures * (trials - failures) / trials + z2 / 4.0) / denom
    return max(0.0, center - half), min(1.0, center + half)


def run_batch(src: JointSource, plan: Plan, seed_seqs, method: str = "auto") -> Counter:
    """Run one session per seed sequence and tally outcomes.

    Module-level so process pools can ship it to workers.
    """
    counts: Counter = Counter()
    for seq in seed_seqs:
        counts[run_session(src, plan, seq, method=method).outcome] += 1
    return counts


def estimate_reliability(src: JointSource, plan: Plan, trials: int, rng_seed=0,
                         method: str = "auto") -> ReliabilityEstimate:
    """Monte Carlo reliability check: `trials` independent sessions, seeds
    spawned from one sequence so results are reproducible."""
    if trials < 1:
        raise ValueError("need at least one trial")
    seq = np.random.SeedSequence(rng_seed)
    counts = run_batch(src, plan, seq.spawn(trials), method=method)
    return summarize_outcomes(counts, plan.eps)


def summarize_outcomes(counts: Counter, eps_target: float) -> ReliabilityEstimate:
    trials = sum(counts.values())
    failures = trials - counts.get("agreed", 0)
    low, high = wilson_interval(failures, trials)
    return ReliabilityEstimate(
        trials=trials, failures=failures, outcome_counts=dict(counts),
        failure_rate=failures / trials, wilson_lower=low, wilson_upper=high,
        eps_target=eps_target, meets_target=high <= eps_target,
    )


def avg_min_entropy_exact(src: JointSource, n: int, given: str = "z") -> float:
    """Average conditional min-entropy of the length-n block given the named
    side (-log2 of the best-guess success probability), by full enumeration.

    Every (block, side-block) cell is visited; nothing exploits the product
    structure, so this doubles as an independent check of closed forms.
    Capped at 1e8 cells.
    """
    pair = src.p_x_and(given)
    if n < 1:
        raise ValueError(f"n must be positive, got {n}")
    size_x, size_v = pair.shape
    cells = (size_x * size_v) ** n
    if cells > _MINENTROPY_MAX_CELLS:
        raise ValueError(f"enumeration would touch {cells} cells, cap is {_MINENTROPY_MAX_CELLS}")
    total = 0.0
    for digits in itertools.product(range(size_v), repeat=n):
        # probability column over all x-blocks for this fixed side-block
        column = reduce(np.kron, (pair[:, d] for d in digits))
        total += float(column.max())
    if total <= 0.0:
        raise ValueError("side information has zero total mass")
    return -math.log2(total)


@dataclass(frozen=True)
class SecrecyReport:
    """Exact (or seed-sampled) statistical distance from an ideal uniform key.

    sd averages, over hash-seed pairs, the statistical distance between
    (key, check value, eavesdropper block) and (uniform key, check value,
    eavesdropper block).  exact=True means every seed pair was enumerated and
    sd is the definition, bit for bit; otherwise seed pairs were sampled and
    std_error estimates the Monte Carlo error.  lhl_bound is the two-hash
    leftover-hash guarantee (1/2)*sqrt(2^(recon_bits + key_bits - Hmin)).
    """

    n: int
    recon_bits: int
    key_bits: int
    sd: float
    exact: bool
    seed_pairs: int
    std_error: float | None
    avg_min_entropy: float
    lhl_bound: float
    sigma_target: float
    meets_lhl: bool
    meets_target: bool


def _pair_distances(pair: np.ndarray, ctx: GFContext, t: int, ell: int,
                    pairs: list) -> np.ndarray:
    """Per seed pair, the distance of the ell-bit key from uniform given the
    t-bit check value and the eavesdropper block; binary blocks of m bits."""
    m = ctx.bits
    # joint block distribution over (x-block, z-block), big-endian kron order
    M = reduce(np.kron, (pair,) * m)
    # products of every x-block, once per distinct seed
    table = {s: SeedHasher(BitString(s, m), ctx).product_table()
             for s in set(itertools.chain(*pairs))}
    # bucket = check value then key; t = 0 shifts every product out to 0
    to_check, to_key = np.uint64(m - t), np.uint64(m - ell)

    n_buckets = 1 << (t + ell)
    z_cols = M.shape[1]
    # bucket scatter-add: a one-hot matmul is fastest while the bucket count
    # stays small (cost grows with it), a flat weighted bincount costs the
    # same regardless of bucket count and wins for wide hashes
    use_matmul = n_buckets <= _MATMUL_MAX_BUCKETS
    eye = np.eye(n_buckets, dtype=np.float64) if use_matmul else None
    cols = np.arange(z_cols, dtype=np.int64)
    flat_weights = np.ascontiguousarray(M).ravel()
    inv_keys = 1.0 / (1 << ell)
    terms = np.empty(len(pairs), dtype=np.float64)
    for j, (s, s2) in enumerate(pairs):
        bucket = ((table[s] >> to_check) << np.uint64(ell)
                  | table[s2] >> to_key).astype(np.int64)
        if use_matmul:
            joint = eye[bucket].T @ M
        else:
            flat = bucket[:, None] * z_cols + cols[None, :]
            joint = np.bincount(flat.ravel(), weights=flat_weights,
                                minlength=n_buckets * z_cols
                                ).reshape(n_buckets, z_cols)
        by_check = joint.reshape(1 << t, 1 << ell, z_cols)
        ideal = by_check.sum(axis=1, keepdims=True) * inv_keys
        terms[j] = 0.5 * np.abs(by_check - ideal).sum()
    return terms


def secrecy_sd_exact(src: JointSource, plan: Plan, seed_pairs: int | None = None,
                     rng_seed=0, recon_seeds: int | None = None) -> SecrecyReport:
    """Statistical distance of the extracted key from uniform, given the full
    transcript and the eavesdropper's block, by direct enumeration.

    Binary source and eavesdropper alphabets only, n <= 12.  With seed_pairs
    and recon_seeds both None every (reconciliation seed, key seed) pair is
    enumerated while the field has at most 8 bits; wider fields fall back to
    sampling 256 reconciliation seeds.  seed_pairs samples that many seed
    pairs outright; recon_seeds samples reconciliation seeds while still
    enumerating every key seed against each one, which keeps the inner
    average exact and only samples the outer one.  Either sampling mode
    reports a standard error; they cannot be combined.
    """
    if src.alphabet_sizes[0] != 2 or src.alphabet_sizes[2] != 2:
        raise ValueError("exact secrecy enumeration supports binary X and Z only")
    n = plan.n
    if n > _EXACT_SD_MAX_N:
        raise ValueError(f"exact secrecy enumeration caps n at {_EXACT_SD_MAX_N}, got {n}")
    ctx = field_for_source(n, 2)
    m = ctx.bits
    t, ell = plan.recon_bits, plan.key_bits
    if t + ell > m:
        raise ValueError(f"recon_bits + key_bits = {t + ell} exceeds the {m}-bit field")

    if seed_pairs is not None and recon_seeds is not None:
        raise ValueError("give seed_pairs or recon_seeds, not both")
    if seed_pairs is None and recon_seeds is None and m > _ENUM_SEED_MAX_BITS:
        # seed space too wide to enumerate both sides; the mean over the
        # reconciliation seed is what the secrecy claim averages, so sample it
        recon_seeds = _FALLBACK_RECON_SAMPLE
    recon_groups = None
    if seed_pairs is None and recon_seeds is None:
        pairs = [(s, s2) for s in range(1 << m) for s2 in range(1 << m)]
        exact = True
    elif seed_pairs is not None:
        if seed_pairs < 1:
            raise ValueError("seed_pairs must be positive")
        rng = np.random.default_rng(rng_seed)
        draws = rng.integers(0, 1 << m, size=(seed_pairs, 2), dtype=np.uint64)
        pairs = [(int(a), int(b)) for a, b in draws]
        exact = False
    else:
        if recon_seeds < 1:
            raise ValueError("recon_seeds must be positive")
        rng = np.random.default_rng(rng_seed)
        draws = rng.integers(0, 1 << m, size=recon_seeds, dtype=np.uint64)
        pairs = [(int(s), s2) for s in draws for s2 in range(1 << m)]
        recon_groups = recon_seeds
        exact = False

    # a 0-bit key is uniform by definition: every term is exactly zero
    terms = _pair_distances(src.p_xz(), ctx, t, ell, pairs) if ell > 0 \
        else np.zeros(len(pairs), dtype=np.float64)

    sd = float(terms.mean())
    if exact:
        std_error = None
    elif recon_groups is not None:
        # the inner key-seed average is exact; only the outer draw varies
        group_means = terms.reshape(recon_groups, 1 << m).mean(axis=1)
        std_error = None if recon_groups == 1 else \
            float(group_means.std(ddof=1) / math.sqrt(recon_groups))
    else:
        std_error = float(terms.std(ddof=1) / math.sqrt(len(terms)))
    hmin = avg_min_entropy_product(src, n, given="z")
    lhl = min(1.0, 0.5 * math.sqrt(2.0 ** (t + ell - hmin)))
    return SecrecyReport(
        n=n, recon_bits=t, key_bits=ell, sd=sd, exact=exact,
        seed_pairs=len(pairs), std_error=std_error,
        avg_min_entropy=hmin, lhl_bound=lhl, sigma_target=plan.sigma,
        meets_lhl=sd <= lhl + 1e-12, meets_target=sd <= plan.sigma + 1e-12,
    )


def uhf_collision_census(ctx: GFContext, out_bits: int) -> np.ndarray:
    """Seed-collision counts for every pair of field elements.

    Returns counts[x, x2] = number of seeds s with hash(x, s) == hash(x2, s),
    computed literally (every seed, every pair).  The family is pairwise
    balanced: every off-diagonal entry must equal 2^(m - out_bits), the
    diagonal equals 2^m.  Fields up to 10 bits.
    """
    m = ctx.bits
    if m > _CENSUS_MAX_BITS:
        raise ValueError(f"census limited to {_CENSUS_MAX_BITS}-bit fields, got {m}")
    if not (0 < out_bits <= m):
        raise ValueError(f"out_bits must be in [1, {m}], got {out_bits}")
    size = 1 << m
    counts = np.zeros((size, size), dtype=np.int64)
    shift = np.uint64(m - out_bits)
    for s in range(size):
        h = SeedHasher(BitString(s, m), ctx).product_table() >> shift
        counts += h[:, None] == h[None, :]
    return counts
