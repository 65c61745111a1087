"""Empirical and exact verification of reliability and secrecy claims.

Reliability is checked by Monte Carlo over full sessions with a Wilson score
interval on the failure rate.  Secrecy is checked exactly at desk scale: the
statistical distance between (key, transcript, eavesdropper block) and an
ideal uniform key is computed per seed pair, over every seed pair for small
fields.  On the binary cascade each pair's distance comes in closed form from
the Walsh spectrum of L e, the (check, key) map applied to the end-to-end
flip pattern, read from a table of seed masks that is built once per field;
any other binary pmf enumerates every source block and eavesdropper block of
the dense law, which also serves as the cascade's oracle in the tests.  Both
walk the same seed pairs in the same order: a grid of reconciliation seeds,
each against every key seed, or the drawn pairs themselves.  The cascade
computes each chunk of at most 2^16 (check, key) cells in buffers that its
thread keeps from chunk to chunk and audit to audit, and each chunk writes
its terms straight into the audit's array, so a steady run of audits maps
in no fresh pages.  Cells shared between seed pairs are computed once: with
no check value (t = 0) a term depends on the key seed alone, so one term per
key seed serves every reconciliation seed; a grid block gathers the spectrum
slice that does not involve the reconciliation seed once per key seed; and a
1-bit key transforms only the check rows.  No concentration inequality
stands between the reported number and the definition; the only
approximation ever introduced is seed-pair sampling, and then the report
says so and carries a standard error.  The report's leftover-hash bound
takes the average min-entropy in closed form from the product law
(source.avg_min_entropy_product); its dense enumeration is a test oracle.
"""

from __future__ import annotations

import math
import threading
from collections import Counter
from dataclasses import dataclass
from functools import lru_cache, reduce

import numpy as np

from .planner import Plan
from .protocol import run_session
from .source import JointSource, avg_min_entropy_product, crossover_convolve
from .uhash import BitString, GFContext, SeedHasher, field_for_source

# two-sided 95% normal quantile, fixed so intervals are reproducible
_WILSON_Z = 1.959963984540054

_CENSUS_MAX_BITS = 10
_EXACT_SD_MAX_N = 12
_ENUM_SEED_MAX_BITS = 8
_FALLBACK_RECON_SAMPLE = 256
# seed pairs an audit may cover: a full enumeration at the 12-bit cap, whose
# terms array takes 128 MiB
_MAX_SEED_PAIRS = 1 << 24
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


def run_batch(src: JointSource, plan: Plan, seed_seqs) -> Counter:
    """Run one session per seed sequence and tally outcomes.

    Module-level so process pools can ship it to workers.
    """
    counts: Counter = Counter()
    for seq in seed_seqs:
        counts[run_session(src, plan, seq).outcome] += 1
    return counts


def run_children(src: JointSource, plan: Plan, entropy: int | list[int],
                 indices: range) -> Counter:
    """run_batch over the children `indices` of SeedSequence(entropy), each
    made as its session starts: child i is SeedSequence(entropy, spawn_key=(i,)),
    the i-th that SeedSequence(entropy).spawn makes.  Memory stays flat
    however many trials, and a process pool ships a range, not the seeds."""
    return run_batch(src, plan, (np.random.SeedSequence(entropy, spawn_key=(i,))
                                 for i in indices))


def estimate_reliability(src: JointSource, plan: Plan, trials: int,
                         rng_seed=0) -> ReliabilityEstimate:
    """Monte Carlo reliability check: `trials` independent sessions, seeded
    by the children of one sequence so results are reproducible."""
    if trials < 1:
        raise ValueError("need at least one trial")
    entropy = np.random.SeedSequence(rng_seed).entropy
    return summarize_outcomes(run_children(src, plan, entropy, range(trials)), plan.eps)


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
    eavesdropper block).  exact=True means every seed pair was enumerated and
    sd is the definition, bit for bit; otherwise seed pairs were sampled and
    std_error estimates the Monte Carlo error.  cells counts the (check, key)
    cells the audit covers, seed_pairs x 2^(recon_bits + key_bits), or 0 for
    a 0-bit key, whose distance is 0 by definition; cells that several seed
    pairs share are computed once, so an audit may compute fewer.  lhl_bound
    is the two-hash leftover-hash guarantee (1/2)*sqrt(2^(recon_bits +
    key_bits - Hmin)).
    """

    n: int
    recon_bits: int
    key_bits: int
    sd: float
    exact: bool
    seed_pairs: int
    cells: int
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


def _pair_distances(pair: np.ndarray, ctx: GFContext, t: int, ell: int):
    """Per seed pair, the distance of the ell-bit key from uniform given the
    t-bit check value and the eavesdropper block, by scattering the dense
    block law into (check, key) buckets; any binary pmf, blocks of m bits.

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

    def distances(seeds: np.ndarray, key_seeds: np.ndarray, out: np.ndarray) -> np.ndarray:
        seeds, key_seeds = (a.ravel() for a in np.broadcast_arrays(seeds, key_seeds))
        # products of every x-block, once per distinct seed
        table = {s: SeedHasher(BitString(s, m), ctx).product_table()
                 for s in set(seeds.tolist()) | set(key_seeds.tolist())}
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


def _subset_xors(rows: np.ndarray) -> np.ndarray:
    """out[a, c] = XOR of rows[j, c] over the set bits j of a, by subset
    doubling: the a with top bit j take the XORs below 2^j XOR row j."""
    width, count = rows.shape
    out = np.zeros((1 << width, count), dtype=np.int64)
    for j in range(width):
        out[1 << j:2 << j] = out[:1 << j] ^ rows[j]
    return out


def _walsh_hadamard(a: np.ndarray, scratch: np.ndarray | None = None) -> np.ndarray:
    """Unnormalised Walsh-Hadamard transform along axis 0 (length 2^k) of a
    2-D array, by butterflies over whole rows.  Any memory layout; a
    C-contiguous input's buffer is reused as scratch.  The butterflies
    ping-pong between that buffer and `scratch`, a C-contiguous array of a's
    shape, or a fresh one when it is None; the result is one of the two."""
    # the butterflies write through reshaped views, which only a C-ordered
    # buffer guarantees: reshaping any other layout would copy, and the
    # writes would land in the copy
    a = np.ascontiguousarray(a)
    size, cols = a.shape
    out = np.empty_like(a) if scratch is None else scratch
    h = 1
    while h < size:
        v, w = a.reshape(-1, 2, h * cols), out.reshape(-1, 2, h * cols)
        np.add(v[:, 0], v[:, 1], out=w[:, 0])
        np.subtract(v[:, 0], v[:, 1], out=w[:, 1])
        a, out = out, a
        h *= 2
    return a


@lru_cache(maxsize=_EXACT_SD_MAX_N)
def _field_masks(ctx: GFContext) -> tuple[np.ndarray, np.ndarray]:
    """Read-only (masks, popcount) of a field of m <= 12 bits, built once.

    masks[p, s]: bit p of x (.) s is the parity of masks[p, s] & x, for every
    seed s; popcount[v] is the Hamming weight of every v < 2^m."""
    m = ctx.bits
    # row i: x^i (.) s for every seed s (the seeds' basis tables, column-wise)
    basis = np.stack([SeedHasher(BitString(1 << i, m), ctx).product_table()
                      for i in range(m)])
    weights = (np.uint64(1) << np.arange(m, dtype=np.uint64))[:, None]
    masks = np.stack([(((basis >> np.uint64(p)) & np.uint64(1)) * weights).sum(axis=0)
                      for p in range(m)]).astype(np.int64)
    popcount = np.zeros(1 << m, dtype=np.int64)
    for i in range(m):
        popcount[1 << i:2 << i] = popcount[:1 << i] + 1
    masks.setflags(write=False)
    popcount.setflags(write=False)
    return masks, popcount


_workspace = threading.local()


def _chunk_buffers(cells: int) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """This thread's chunk workspace, cut to `cells`: an int64 XOR index, a
    float64 spectrum and a float64 butterfly scratch.

    The flat buffers grow to the largest chunk the thread has run and are
    then kept, so later chunks and audits reuse pages already mapped in
    instead of allocating and faulting in three fresh ones each."""
    buffers = getattr(_workspace, "buffers", None)
    if buffers is None or len(buffers[0]) < cells:
        buffers = (np.empty(cells, dtype=np.int64), np.empty(cells, dtype=np.float64),
                   np.empty(cells, dtype=np.float64))
        _workspace.buffers = buffers
    return tuple(b[:cells] for b in buffers)


def _cascade_pair_distances(delta: float, ctx: GFContext, t: int, ell: int):
    """Per seed pair, the _pair_distances term for the binary cascade, where
    X is uniform and Z = X xor e with e i.i.d. Bernoulli(delta), from the
    Walsh spectrum of L e.

    L x = (check, key) is linear, so given Z = z the pair is L z xor L e, a
    shift of the law Q of L e, and the distance is 1/2 sum_{c,k} |Q(c,k) -
    Q(c)/2^ell| for every z.  Q has the Walsh coefficients (1 - 2 delta)^wt(L^T
    w); the ideal-key law has the same ones where the key part b of w = (a, b)
    is 0 and none elsewhere, so the difference is one inverse transform of the
    spectrum with b = 0 cleared.  L^T (a, b) = v_a(s) xor v_b(s2), where v_a(s)
    is the mask of the functional x -> a . top_t(x (.) s), read from the
    field's cached mask table.  A grid block tabulates v_a for its
    reconciliation seeds and v_b for its key seeds, not for each pair.  Each
    block's cells are computed in the calling thread's chunk workspace.

    Two slices of the spectrum cost less than a gather per pair.  At a = 0
    the cell is coeff[v_b(s2)], whatever the reconciliation seed, so a block
    gathers it once per key seed and copies it to the block's other seeds.
    The b = 0 slice is cleared, which at ell = 1 leaves one key column: the
    key-axis butterfly turns its (0, x) into (x, -x), so only the b = 1 cells
    are gathered and transformed, over the t check bits, and each |row| is
    then added twice, in the order of the full (a, b) transform.

    Returns distances(seeds, key_seeds, out), which writes one term per pair
    of the two index arrays broadcast together, in C order, into out and
    returns it.  A pair's |diff| column is summed row by row wherever it
    falls, alone in its block or not, so its term never depends on its
    neighbours."""
    m = ctx.bits
    masks, popcount = _field_masks(ctx)
    # Walsh coefficient of L e at the mask v: (1 - 2 delta)^wt(v)
    coeff = (1.0 - 2.0 * delta) ** popcount
    check_rows, key_rows = masks[m - t:], masks[m - ell:]
    scale = 0.5 / (1 << (t + ell))

    def functionals(rows: np.ndarray, index: np.ndarray) -> np.ndarray:
        # [a, *index.shape]: v_a of every seed in index
        return _subset_xors(rows.take(index.ravel(), axis=1)).reshape(-1, *index.shape)

    def distances(seeds: np.ndarray, key_seeds: np.ndarray, out: np.ndarray) -> np.ndarray:
        pairs = np.broadcast_shapes(seeds.shape, key_seeds.shape)
        index, spectrum, scratch = _chunk_buffers(math.prod(pairs) << (t + ell))
        # the key functionals gathered: b = 1 alone at ell = 1, else every b
        keys = functionals(key_rows, key_seeds)[int(ell == 1):]
        # [a, b, pairs...]: the coefficient at v_a(s) xor v_b(s2)
        shape = (1 << t, len(keys), *pairs)
        cells = spectrum[:math.prod(shape)].reshape(shape)
        # "clip" lets take write straight into out ("raise" buffers it); every
        # index is a mask below 2^m, so nothing is clipped.  a = 0 is gathered
        # once per key seed, into the scratch that the transform uses later
        top = scratch[:keys.size].reshape(keys.shape)
        np.take(coeff, keys, mode="clip", out=top)
        np.copyto(cells[0], top)
        below = index[:cells[1:].size].reshape(cells[1:].shape)
        np.bitwise_xor(functionals(check_rows, seeds)[1:, None], keys[None], out=below)
        np.take(coeff, below, mode="clip", out=cells[1:])
        rows = 1 << t
        if ell != 1:
            cells[:, 0] = 0.0
            rows <<= ell
        diff = _walsh_hadamard(cells.reshape(rows, -1),
                               scratch=scratch[:cells.size].reshape(rows, -1))
        if ell == 1:
            # |x|, |-x| of each check row, written into the dead XOR index
            total = index.view(np.float64).reshape(rows, 2, -1)
            np.abs(diff[:, None], out=total)
            diff = total.reshape(2 * rows, -1)
        else:
            np.abs(diff, out=diff)
        if diff.shape[1] == 1:
            # numpy sums a lone column pairwise; accumulate adds it row by
            # row, as the sum over a wider block does
            out[0] = np.add.accumulate(diff[:, 0])[-1]
        else:
            np.sum(diff, axis=0, out=out)
        out *= scale
        return out

    return distances


def secrecy_sd_exact(src: JointSource, plan: Plan, seed_pairs: int | None = None,
                     rng_seed=0, recon_seeds: int | None = None) -> SecrecyReport:
    """Statistical distance of the extracted key from uniform, given the full
    transcript and the eavesdropper's block, computed exactly per seed pair.

    Binary source and eavesdropper alphabets only, n <= 12.  The binary
    cascade takes each pair's term from the Walsh spectrum of L e; any other
    binary pmf enumerates the dense block law.  With seed_pairs and
    recon_seeds both None every (reconciliation seed, key seed) pair is
    enumerated while the field has at most 8 bits; wider fields fall back to
    sampling 256 reconciliation seeds.  seed_pairs samples that many seed
    pairs outright; recon_seeds samples reconciliation seeds while still
    enumerating every key seed against each one, which keeps the inner
    average exact and only samples the outer one.  Either sampling mode
    reports a standard error (None after a single draw); they cannot be
    combined.

    Full enumeration and recon_seeds both walk a grid, blocks of
    reconciliation seeds against every key seed, reconciliation seed major;
    seed_pairs walks its drawn pairs.  At t = 0 there is no check value and a
    term depends on the key seed alone, so each distinct key seed (every one
    of the 2^m in the grid modes, the drawn ones for seed_pairs) is computed
    once and copied to every pair that holds it.  On the cascade the field's
    mask table is built once and cached, so a call pays for at most its
    cells, seed pairs x 2^(t+ell) (reported as cells), and holds at most one
    chunk of them at a time, in its thread's reused chunk workspace.  More
    than 2^24 seed pairs are refused before anything is drawn.
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
    if seed_pairs is not None:
        if seed_pairs < 1:
            raise ValueError("seed_pairs must be positive")
        count = seed_pairs
    elif recon_seeds is not None:
        if recon_seeds < 1:
            raise ValueError("recon_seeds must be positive")
        count = recon_seeds << m
    else:
        count = 1 << 2 * m
    if count > _MAX_SEED_PAIRS:
        # checked before anything is drawn: the draws and the terms array
        # both grow with the count
        raise ValueError(f"an audit of {count} seed pairs exceeds the cap of "
                         f"{_MAX_SEED_PAIRS} (2^24)")
    size = (seed_pairs, 2) if seed_pairs is not None else recon_seeds
    draws = None if size is None else np.random.default_rng(rng_seed).integers(
        0, 1 << m, size=size, dtype=np.uint64)
    exact = draws is None

    if ell == 0:
        # a 0-bit key is uniform by definition: every term is exactly zero
        terms = None
        sd = 0.0
    else:
        chain = src.cascade
        if chain is None:
            distances = _pair_distances(src.p_xz(), ctx, t, ell)
        else:
            distances = _cascade_pair_distances(crossover_convolve(chain.p, chain.q),
                                                ctx, t, ell)
        chunk = max(1, _CHUNK_CELLS >> (t + ell))

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
            # distinct key seed is computed once, against reconciliation seed
            # 0, and serves every pair (every grid row) it appears in
            key_seeds = draws[:, 1] if draws is not None and draws.ndim == 2 else \
                np.arange(1 << m, dtype=np.uint64)
            keys, spread = np.unique(key_seeds, return_inverse=True)
            once = walk(np.stack([np.zeros_like(keys), keys], axis=1), np.empty(len(keys)))
            terms.reshape(-1, key_seeds.size)[:] = once[spread]
        sd = float(terms.mean())

    if exact or len(draws) == 1:
        std_error = None
    elif terms is None:
        std_error = 0.0
    else:
        # a drawn reconciliation seed's inner key-seed average is exact; only
        # the outer draw varies
        samples = terms if draws.ndim == 2 else \
            terms.reshape(len(draws), 1 << m).mean(axis=1)
        std_error = float(samples.std(ddof=1) / math.sqrt(len(samples)))
    hmin = avg_min_entropy_product(src, n, given="z")
    lhl = min(1.0, 0.5 * math.sqrt(2.0 ** (t + ell - hmin)))
    return SecrecyReport(
        n=n, recon_bits=t, key_bits=ell, sd=sd, exact=exact,
        seed_pairs=count, cells=0 if terms is None else count << (t + ell),
        std_error=std_error,
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
