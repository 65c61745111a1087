"""Empirical and exact verification of reliability and secrecy claims.

Reliability is checked by Monte Carlo over full sessions with a Wilson score
interval on the failure rate.  Secrecy is checked exactly at desk scale: the
statistical distance between (key, transcript, eavesdropper block) and an
ideal uniform key is computed per seed pair, over every seed pair for small
fields.  Given the eavesdropper block z, the source block has a product law,
so each pair's distance comes in closed form from the Walsh spectrum of L x,
the (check, key) map applied to the block, read from a table of seed masks
built once per field.  The spectrum depends on z only through the biases of
X given Z = 0 and Z = 1: where they agree, as on the binary cascade, one
class stands for every z, and otherwise each z is a class of its own,
weighted by P(z).  The dense block law is the tests' oracle.  The audit
walks a grid of reconciliation seeds, each against every key seed, or the
drawn pairs themselves, in chunks of at most 2^16 (seed pair, class, check,
key) cells, in buffers that its thread keeps from chunk to chunk and audit
to audit; each chunk writes its terms straight into the audit's array, so a
steady run of cascade audits maps in no fresh pages.  Cells shared between
seed pairs are computed once: with no check value (t = 0) a term depends on
the key seed alone, so one term per key seed serves every reconciliation
seed; a grid block gathers the spectrum slice that does not involve the
reconciliation seed once per key seed; and a 1-bit key transforms only the
check rows.  The Walsh-Hadamard transform runs as two BLAS matrix products,
by the two Sylvester factors of the Hadamard matrix, written into the same
workspace.  No concentration inequality stands between the reported number
and the definition; seed-pair sampling, and one class for two biases that
differ, are the only approximations, and either makes a report inexact.  Its
sums run in the order BLAS picks, which may change with the BLAS build, so
the last bits of a report may too, though not with the chunking; on dyadic
sources (biases and P(z) dyadic rationals) every sum is exact.  The
report's leftover-hash bound takes the average min-entropy in closed form
from the product law (source.avg_min_entropy_product); its dense enumeration
is a test oracle.
"""

from __future__ import annotations

import math
import os
import sys
import threading
from collections import Counter
from dataclasses import dataclass
from functools import lru_cache

import numpy as np

from .planner import Plan
from .protocol import BudgetExceededError, run_session, search_budget
from .source import PMF_TOL, JointSource, avg_min_entropy_product
from .uhash import BitString, GFContext, SeedHasher, field_for_source, subset_xors

# two-sided 95% normal quantile, fixed so intervals are reproducible
_WILSON_Z = 1.959963984540054

_CENSUS_MAX_BITS = 10
_EXACT_SD_MAX_N = 12
# cells (seed pairs x (check, key) buckets) handled per vectorised chunk
_CHUNK_CELLS = 1 << 16


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


def run_children(src: JointSource, plan: Plan, entropy: int | list[int],
                 indices: range) -> Counter:
    """Run one session on each child `indices` of SeedSequence(entropy) and
    tally outcomes.  Child i is SeedSequence(entropy, spawn_key=(i,)), the
    i-th that SeedSequence(entropy).spawn makes, made as its session starts,
    so memory stays flat however many trials.  Module-level, so a process
    pool ships it a range, not the seeds."""
    counts: Counter = Counter()
    for i in indices:
        seq = np.random.SeedSequence(entropy, spawn_key=(i,))
        counts[run_session(src, plan, seq).outcome] += 1
    return counts


def estimate_reliability(src: JointSource, plan: Plan, trials: int,
                         rng_seed=0, jobs: int = 1) -> ReliabilityEstimate:
    """Monte Carlo reliability check: `trials` independent sessions, trial i
    on the i-th child of SeedSequence(rng_seed), so results are reproducible.

    jobs is clamped to min(jobs, trials, cores); above one, worker processes
    run the strided ranges i, i + jobs, ... of the trials, and the counts
    equal those of one job."""
    if trials < 1:
        raise ValueError("need at least one trial")
    entropy = np.random.SeedSequence(rng_seed).entropy
    jobs = max(1, min(jobs, trials, os.cpu_count() or 1))
    if jobs == 1:
        counts = run_children(src, plan, entropy, range(trials))
    else:
        # imported here: multiprocessing adds about 2 MB to every process that
        # imports the package, and only a parallel run needs it
        from concurrent.futures import ProcessPoolExecutor
        with ProcessPoolExecutor(max_workers=jobs) as pool:
            counts = sum(pool.map(run_children, [src] * jobs, [plan] * jobs, [entropy] * jobs,
                                  [range(i, trials, jobs) for i in range(jobs)]), Counter())
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


@dataclass(frozen=True)
class SecrecyReport:
    """Exact (or seed-sampled) statistical distance from an ideal uniform key.

    sd averages, over hash-seed pairs, the statistical distance between
    (key, check value, eavesdropper block) and (uniform key, check value,
    eavesdropper block).  exact=True means every seed pair was enumerated
    and sd is the definition, up to the rounding of sums in BLAS order, whose
    last bits may differ between BLAS builds; it is False where seed pairs
    were sampled (std_error estimates that error) or one class merged two
    unequal biases (_z_biases).  cells counts the (check, key) cells the
    audit covers, seed_pairs x 2^(recon_bits + key_bits), and computed_cells
    those it computed and was charged for (secrecy_sd_exact); both are 0 for
    a 0-bit key, whose distance is 0 by definition.  lhl_bound is the
    two-hash leftover-hash guarantee (1/2)*sqrt(2^(recon_bits + key_bits -
    Hmin)).
    """

    n: int
    recon_bits: int
    key_bits: int
    sd: float
    exact: bool
    seed_pairs: int
    cells: int
    computed_cells: int
    std_error: float | None
    avg_min_entropy: float
    lhl_bound: float
    sigma_target: float
    meets_lhl: bool
    meets_target: bool


def _seed_pair_blocks(m: int, draws: np.ndarray | None, chunk: int):
    """Seed pairs in audit order, reconciliation seed major, as int64 index
    arrays (seeds, key_seeds) that broadcast to at most `chunk` pairs each.

    draws None is every reconciliation seed and 1-D draws are drawn ones; each
    is paired with every key seed, so a block is a grid seeds[:, None] x
    key_seeds[None, :] (a run of whole key-seed rows, or part of one row when
    a row holds more than `chunk` pairs).  2-D draws are the drawn pairs
    themselves, as two 1-D arrays.
    """
    if draws is not None and draws.ndim == 2:
        for lo in range(0, len(draws), chunk):
            block = draws[lo:lo + chunk].astype(np.int64)
            yield block[:, 0], block[:, 1]
        return
    recon = np.arange(1 << m, dtype=np.int64) if draws is None else draws.astype(np.int64)
    keys = np.arange(1 << m, dtype=np.int64)[None, :]
    width, rows = min(chunk, 1 << m), max(1, chunk >> m)
    for lo in range(0, len(recon), rows):
        for k in range(0, 1 << m, width):
            yield recon[lo:lo + rows, None], keys[:, k:k + width]


@lru_cache(maxsize=_EXACT_SD_MAX_N)
def _hadamard(k: int) -> np.ndarray:
    """The read-only Sylvester matrix H_(2^k) of +-1 entries, built on first
    use: H[i, j] = (-1)^wt(i & j)."""
    h = np.ones((1, 1))
    for _ in range(k):
        h = np.block([[h, h], [h, -h]])
    h.setflags(write=False)
    return h


# OpenBLAS (0.3.31, AVX-512 kernels) sums each column of a product in one
# order wherever it sits among whole tiles of 8 columns; the last 1-4 columns
# of a narrower tile, and the matrix-vector product numpy takes for a lone
# column, are summed in others
_BLAS_TILE = 8
# the multiply-adds of one BLAS call, up to which OpenBLAS stays on the
# calling thread: on two cores, a product past it, 16 x 16 by 16 x 4,096,
# took 254 us on two threads, and one of half its width 28 us on one
_BLAS_MACS = 1 << 18


def _hadamard_product(h: np.ndarray, src: np.ndarray, dst: np.ndarray) -> None:
    """dst = h @ src over the last two axes, with every column of src sent to
    BLAS in a whole tile of _BLAS_TILE, so that its sums do not depend on its
    neighbours, and in blocks of at most _BLAS_MACS multiply-adds a call, so
    that none runs on BLAS's threads.  Fewer columns than a tile go through a
    zero-padded copy; otherwise nothing is allocated."""
    cols = src.shape[-1]
    if cols < _BLAS_TILE:
        pad = np.zeros((*src.shape[:-1], _BLAS_TILE))
        pad[..., :cols] = src
        dst[...] = np.matmul(h, pad)[..., :cols]
        return
    whole = cols - cols % _BLAS_TILE
    step = max(1, _BLAS_MACS // (h.size * _BLAS_TILE)) * _BLAS_TILE
    for lo in range(0, whole, step):
        hi = min(lo + step, whole)
        np.matmul(h, src[..., lo:hi], out=dst[..., lo:hi])
    if whole < cols:
        # the columns past the last whole tile go in one ending at the last
        # column: the ones it shares with the tile before are summed again,
        # in the same order
        np.matmul(h, src[..., -_BLAS_TILE:], out=dst[..., -_BLAS_TILE:])


def _walsh_hadamard(a: np.ndarray, scratch: np.ndarray | None = None) -> np.ndarray:
    """Unnormalised Walsh-Hadamard transform along axis 0 (length 2^k) of a
    2-D array, in any memory layout.  A C-contiguous input's buffer is reused;
    `scratch` is a C-contiguous array of a's shape, or a fresh one when it is
    None, and the result lands in one of the two.

    From k = 2 on, the rows split into their k - k//2 low bits and k//2 high
    bits, and the transform is the Sylvester product H_(2^k) = H_(2^(k//2))
    (x) H_(2^(k - k//2)): a batched matrix product by the low-bit factor
    writes into the scratch, one by the high-bit factor writes back into the
    input's buffer, both in BLAS (_hadamard_product), whose summation order
    may differ between builds but, within one, not with a column's
    neighbours.  k = 1 is one add and one subtract."""
    # the products write through reshaped views, which only a C-ordered
    # buffer guarantees: reshaping any other layout would copy, and the
    # writes would land in the copy
    a = np.ascontiguousarray(a)
    size, cols = a.shape
    k = size.bit_length() - 1
    if k == 0:
        return a
    out = np.empty_like(a) if scratch is None else scratch
    if k == 1:
        np.add(a[0], a[1], out=out[0])
        np.subtract(a[0], a[1], out=out[1])
        return out
    high, low = k // 2, k - k // 2
    _hadamard_product(_hadamard(low), a.reshape(1 << high, 1 << low, cols),
                      out.reshape(1 << high, 1 << low, cols))
    _hadamard_product(_hadamard(high), out.reshape(1 << high, -1), a.reshape(1 << high, -1))
    return a


@lru_cache(maxsize=_EXACT_SD_MAX_N)
def _field_masks(ctx: GFContext) -> np.ndarray:
    """Read-only int64 masks of a field of m <= 12 bits, built once: bit p of
    x (.) s is the parity of masks[p, s] & x, for every seed s.

    Bit i of masks[p, s] is bit p of x^i (.) s, and the product is linear in
    the seed, so column s is the XOR of the unit seeds' columns over the set
    bits of s: the m unit seeds' chains, bit-transposed, and one
    subset_xors."""
    m = ctx.bits
    units = np.array([SeedHasher(BitString(1 << j, m), ctx).table for j in range(m)],
                     dtype=np.int64)
    bits = np.arange(m)
    # unit_masks[j, p]: bit i is bit p of x^i (.) x^j = units[j, i]
    unit_masks = (((units[:, None, :] >> bits[:, None]) & 1) << bits).sum(axis=2)
    masks = np.ascontiguousarray(subset_xors(unit_masks).T)
    masks.setflags(write=False)
    return masks


_workspace = threading.local()


def _chunk_buffers(cells: int) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """This thread's chunk workspace, cut to `cells`: an int64 XOR index, a
    float64 spectrum and a float64 scratch, into which the transform's first
    matrix product writes.

    The flat buffers grow to the largest chunk the thread has run and are
    then kept, so later chunks and audits reuse pages already mapped in
    instead of allocating and faulting in three fresh ones each."""
    buffers = getattr(_workspace, "buffers", None)
    if buffers is None or len(buffers[0]) < cells:
        buffers = (np.empty(cells, dtype=np.int64), np.empty(cells, dtype=np.float64),
                   np.empty(cells, dtype=np.float64))
        _workspace.buffers = buffers
    return tuple(b[:cells] for b in buffers)


# biases this close make one class: a pmf within PMF_TOL of a cascade in each
# (x, y, z) cell moves each by about 16 PMF_TOL
_BIAS_TOL = 64 * PMF_TOL


def _z_biases(pair: np.ndarray, m: int) -> tuple[float, float, np.ndarray | None]:
    """(r0, r1, mass_z) of the binary pair law P(x, z) on m-bit blocks: the
    biases r_v = |1 - 2 P(X != v | Z = v)| and mass_z[w] = P(z) of a block z
    of weight w, None where one class stands for every z: biases equal within
    _BIAS_TOL, or a Z symbol of no mass (r0 = r1, the other's bias).  A Z
    symbol of subnormal mass counts as one of no mass: its bias, divided by
    that mass, keeps too few digits to match the other, and the blocks that
    hold it carry at most m * 2.3e-308 of probability."""
    (p00, p01), (p10, p11) = pair.tolist()
    mass = (p00 + p10, p01 + p11)
    r0, r1 = (abs(1.0 - 2.0 * p / s) if s >= sys.float_info.min else None
              for p, s in zip((p10, p01), mass))
    if r0 is None or r1 is None:
        r0 = r1 = r1 if r0 is None else r0
    if abs(r0 - r1) <= _BIAS_TOL:
        return r0, r1, None
    w = np.arange(m + 1)
    return r0, r1, mass[0] ** (m - w) * mass[1] ** w


def _z_classes(pair: np.ndarray, m: int) -> tuple[np.ndarray, np.ndarray]:
    """(classes, coeff) of _z_biases on m-bit blocks: the one class z = 0 with
    coeff[v] = r0^wt(v) for every v < 2^m, or the blocks z with P(z) > 0 and
    coeff[wt(z), k0, k1] = P(z) r0^k0 r1^k1, flat."""
    r0, r1, mass_z = _z_biases(pair, m)
    weights = np.bitwise_count(np.arange(1 << m))
    if mass_z is None:
        return np.zeros(1, dtype=np.int64), r0 ** weights
    w = np.arange(m + 1)
    return (np.flatnonzero(mass_z[weights] > 0.0),
            (mass_z[:, None, None] * np.outer(r0 ** w, r1 ** w)).ravel())


def _walsh_pair_distances(pair: np.ndarray, ctx: GFContext, t: int, ell: int):
    """Per seed pair, the distance of the ell-bit key from uniform given the
    t-bit check value and the eavesdropper block, from the Walsh spectrum of
    the block law; any binary pair law P(x, z), blocks of m bits.

    L x = (check, key) is linear.  Given Z = z, X has a product law whose
    Walsh coefficient at the mask v is P(z) r0^wt(v & ~z) r1^wt(v & z) up to
    a sign character, which only shifts (check, key) and leaves the distance
    as it is (r_v as in _z_classes).  L x has the coefficient at L^T w for
    each w = (a, b), the ideal-key law the same ones where the key part b is
    0 and none elsewhere, so a pair's term sums 1/2 2^-(t+ell) |inverse
    transform of the spectrum with b = 0 cleared| over the classes z.  With
    r0 = r1 one class, z = 0, stands for all: the binary cascade's case, X
    uniform and Z = X xor e with e i.i.d. Bernoulli(delta), r0 = 1 - 2 delta.

    L^T (a, b) = v_a(s) xor v_b(s2), where v_a(s) is the mask of the
    functional x -> a . top_t(x (.) s), read from the field's cached mask
    table; a grid block tabulates v_a for its reconciliation seeds and v_b
    for its key seeds.  The classes are further columns of the transform, in
    blocks sized by their number and (t, ell) alone, and each block is
    computed in the calling thread's chunk workspace.  The a = 0 cells do not
    depend on the reconciliation seed, so a block gathers them once per key
    seed.  The b = 0 slice is cleared, which at ell = 1 leaves one key
    column: the key-axis transform turns its (0, x) into (x, -x), so only
    the b = 1 cells are transformed, over the t check bits, and each |row|
    is added once and counted twice.

    Returns (distances, chunk): distances(seeds, key_seeds, out) writes one
    term per pair of the two index arrays broadcast together, in C order,
    into out and returns it; a call on at most chunk pairs holds at most
    _CHUNK_CELLS cells.  A pair's term never depends on its neighbours: the
    transform sums every column in one order, and a lone pair's column is
    added row by row, as in a block."""
    m = ctx.bits
    masks = _field_masks(ctx)
    classes, coeff = _z_classes(pair, m)
    block = min(len(classes), max(1, _CHUNK_CELLS >> (t + ell)))
    check_rows, key_rows = masks[m - t:], masks[m - ell:]
    # at ell = 1 each transformed check row x stands for the two rows x and
    # -x of the full transform, so its |x| counts twice
    scale = (1.0 if ell == 1 else 0.5) / (1 << (t + ell))

    def functionals(rows: np.ndarray, index: np.ndarray) -> np.ndarray:
        # [a, *index.shape]: v_a of every seed in index
        return subset_xors(rows.take(index.ravel(), axis=1)).reshape(-1, *index.shape)

    def coefficients(v: np.ndarray, z: np.ndarray, out: np.ndarray) -> None:
        # out[..., c, pairs...]: class z[c]'s coefficient at v[..., 0, pairs...].
        # "clip" lets take write straight into out ("raise" buffers it); no
        # index is out of range, so nothing is clipped
        if len(classes) > 1:
            # the flat index of coeff[wt(z), wt(v) - k1, k1], k1 = wt(v & z),
            # in int64: the weights' uint8 would wrap
            index = np.bitwise_count(v & z).astype(np.int64)
            index *= -m
            index += (m + 1) * ((m + 1) * np.bitwise_count(z).astype(np.int64)
                                + np.bitwise_count(v))
            v = index
        coeff.take(v, mode="clip", out=out)

    def distances(seeds: np.ndarray, key_seeds: np.ndarray, out: np.ndarray) -> np.ndarray:
        pairs = np.broadcast_shapes(seeds.shape, key_seeds.shape)
        size = math.prod(pairs)
        # the key functionals gathered (b = 1 alone at ell = 1, else every b)
        # and the check ones with a >= 1, each with a unit class axis
        keys = functionals(key_rows, key_seeds)[int(ell == 1):, None]
        checks = functionals(check_rows, seeds)[1:, None, None]
        for lo in range(0, len(classes), block):
            z = classes[lo:lo + block].reshape(-1, *(1,) * len(pairs))
            index, spectrum, scratch = _chunk_buffers((size * len(z)) << (t + ell))
            # [a, b, class, pairs...]: the class's coefficient at v_a(s) xor v_b(s2)
            shape = (1 << t, len(keys), len(z), *pairs)
            cells = spectrum[:math.prod(shape)].reshape(shape)
            # a = 0 is gathered into the scratch that the transform uses later
            top = scratch[:keys.size * len(z)].reshape(len(keys), len(z), *keys.shape[2:])
            coefficients(keys, z, top)
            np.copyto(cells[0], top)
            below = index[:cells[1:].size // len(z)].reshape(-1, len(keys), 1, *pairs)
            np.bitwise_xor(checks, keys[None], out=below)
            coefficients(below, z, cells[1:])
            rows = 1 << t
            if ell != 1:
                cells[:, 0] = 0.0
                rows <<= ell
            diff = _walsh_hadamard(cells.reshape(rows, -1),
                                   scratch=scratch[:cells.size].reshape(rows, -1))
            np.abs(diff, out=diff)
            # each pair's column, rows x classes, is added row by row: numpy
            # would sum a lone column pairwise, so that one is accumulated
            sums = diff.reshape(-1, size)
            if size == 1:
                sums = np.add.accumulate(sums, axis=0)[-1:]
            if lo == 0:
                np.add.reduce(sums, axis=0, out=out)
            else:
                out += sums.sum(axis=0)
        out *= scale
        return out

    return distances, max(1, (_CHUNK_CELLS >> (t + ell)) // block)


def secrecy_sd_exact(src: JointSource, plan: Plan, seed_pairs: int | None = None,
                     rng_seed=0, recon_seeds: int | None = None) -> SecrecyReport:
    """Statistical distance of the extracted key from uniform, given the full
    transcript and the eavesdropper's block, computed exactly per seed pair.

    Binary source and eavesdropper alphabets only, n <= 12; each pair's term
    comes from _walsh_pair_distances.  By default every (reconciliation seed,
    key seed) pair is enumerated.  seed_pairs samples that many seed pairs
    outright; recon_seeds samples reconciliation seeds while still
    enumerating every key seed against each one, which keeps the inner
    average exact and only samples the outer one.  Either sampling mode
    reports a standard error (None after a single draw); they cannot be
    combined.

    Full enumeration and recon_seeds both walk a grid, blocks of
    reconciliation seeds against every key seed, reconciliation seed major;
    seed_pairs walks its drawn pairs.  At t = 0 there is no check value and a
    term depends on the key seed alone, so each distinct key seed (every one
    of the 2^m in the grid modes, the drawn ones for seed_pairs) is computed
    once and copied to every pair that holds it.  Before a seed is drawn or a
    table built, the audit is charged w P + T K c against search_budget(),
    and an overrun raises BudgetExceededError: P seed pairs of w words each
    (1 in a grid, its term; 4 drawn, its two draws, its term and the
    standard error's temporary), and T K c computed cells (computed_cells),
    for T terms (P, or at t = 0 at most 2^m), K classes and c cells a term
    (2^t at ell = 1, else 2^(t+ell)).  A 0-bit key is charged nothing and
    draws nothing.
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
    for name, value in (("seed_pairs", seed_pairs), ("recon_seeds", recon_seeds)):
        if value is not None and value < 1:
            raise ValueError(f"{name} must be positive")
    # the outer draws: seed pairs, reconciliation seeds, or None when enumerated
    drawn = seed_pairs if seed_pairs is not None else recon_seeds
    # seed pairs: the drawn ones, or 2^m for each reconciliation seed
    count = seed_pairs or (recon_seeds or 1 << m) << m
    exact = drawn is None
    # a single draw has no spread; a 0-bit key's terms are all exactly 0
    std_error = None if drawn is None or drawn == 1 else 0.0
    terms, sd, computed = None, 0.0, 0

    if ell > 0:
        pair = src.p_xz()
        r0, r1, mass_z = _z_biases(pair, m)
        # one class for two biases that differ moves the terms off the definition
        exact = exact and (mass_z is not None or r0 == r1)
        classes = 1 if mass_z is None else \
            sum(math.comb(m, w) for w in range(m + 1) if mass_z[w] > 0.0)
        computed = (count if t else min(count, 1 << m)) * classes << (t if ell == 1 else t + ell)
        # a drawn pair holds its two draws, its term and the standard error's
        # temporary; a grid pair its term
        charge, budget = (count << 2 if seed_pairs else count) + computed, search_budget()
        if charge > budget:
            raise BudgetExceededError(f"secrecy audit of {count} seed pairs and {computed} cells "
                                      f"charges {charge}, over budget {budget}", charge, budget)
        draws = None if drawn is None else np.random.default_rng(rng_seed).integers(
            0, 1 << m, size=recon_seeds or (seed_pairs, 2), dtype=np.uint64)
        distances, chunk = _walsh_pair_distances(pair, ctx, t, ell)

        def walk(pairs, out: np.ndarray) -> np.ndarray:
            # each block writes its terms in place: a fresh array per block
            # would be mapped in and faulted in again on every block
            lo = 0
            for s, s2 in _seed_pair_blocks(m, pairs, chunk):
                hi = lo + np.broadcast(s, s2).size
                distances(s, s2, out[lo:hi])
                lo = hi
            return out

        terms = np.empty(count, dtype=np.float64)
        if t > 0:
            walk(draws, terms)
        else:
            # with no check value a term depends on the key seed alone: each
            # distinct key seed, in ascending order, is computed once, against
            # reconciliation seed 0, and serves every pair (every grid row) it
            # appears in.  Drawn seeds are below 2^m, so their int64 view
            # indexes the count and term tables of every seed
            key_seeds = draws.view(np.int64)[:, 1] if seed_pairs is not None else \
                np.arange(1 << m)
            keys = np.flatnonzero(np.bincount(key_seeds, minlength=1 << m))
            by_seed = np.zeros(1 << m)
            by_seed[keys] = walk(np.stack([np.zeros_like(keys), keys], axis=1),
                                 np.empty(len(keys)))
            terms.reshape(-1, key_seeds.size)[:] = by_seed[key_seeds]
        sd = float(terms.mean())
        if std_error is not None:
            # a drawn reconciliation seed's inner key-seed average is exact;
            # only the outer draw varies
            samples = terms if seed_pairs is not None else \
                terms.reshape(recon_seeds, 1 << m).mean(axis=1)
            std_error = float(samples.std(ddof=1) / math.sqrt(len(samples)))

    hmin = avg_min_entropy_product(src, n, given="z")
    lhl = min(1.0, 0.5 * math.sqrt(2.0 ** (t + ell - hmin)))
    return SecrecyReport(
        n=n, recon_bits=t, key_bits=ell, sd=sd, exact=exact,
        seed_pairs=count, cells=0 if terms is None else count << (t + ell),
        computed_cells=computed, std_error=std_error,
        avg_min_entropy=hmin, lhl_bound=lhl, sigma_target=plan.sigma,
        meets_lhl=sd <= lhl + 1e-12, meets_target=sd <= plan.sigma + 1e-12,
    )


def uhf_collision_census(ctx: GFContext, out_bits: int) -> np.ndarray:
    """Seed-collision counts for every pair of field elements.

    Returns counts[x, x2] = number of seeds s with hash(x, s) == hash(x2, s),
    computed literally: every seed, with every input's product from that
    seed's own SeedHasher table, and every pair.  The family is pairwise
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
    for s in range(size):
        h = subset_xors(np.array(SeedHasher(BitString(s, m), ctx).table, dtype=np.uint64))
        h >>= np.uint64(m - out_bits)
        counts += h[:, None] == h[None, :]
    return counts
