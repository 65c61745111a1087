"""One-message key-agreement sessions over a sampled source.

The sender observes x, publishes two hash seeds and a short check value, and
both sides extract keys from their reconstructed source block.  The receiver
builds the list of source blocks whose conditional surprisal given y stays
under the plan's threshold, keeps the candidates whose check hash matches,
and aborts unless exactly one survives.  run_session plays the sender: it
encodes x once and hashes it to the check value and to Alice's key.
bob_decode and bob_extract are the receiver's two steps.

One builder lists every source.  On a binary cascade the list is the
Hamming ball around y, but that needs no code of its own: it is the same set
under the same definition.  The threshold carries a tolerance of LIST_TOL
bits.  Enumeration is deterministic: positions in natural order and
per-position symbols by ascending cost given y (ties by symbol), in
depth-first order, that is lexicographic in rank.  On a cascade rank 1 is the
flip, so that is not by ascending flip weight: y comes first, then y with its
last position flipped, and the blocks that flip position 0 come last.

The list is stored as a read-only, column-major deviation table around a
center block, the cheapest block: each slot's rank-0 symbol given y.  One row
per listed block holds the flat index i*k + r - 1 of every slot i at rank r
>= 1 (k = |X| - 1 alternatives a slot, the costlier symbols of the slot's y
column), padded with n*k, the index of a zero that callers append.  Whether a
block is listed depends only on those ranks, so the table is built once per
sequence of y columns, keyed by the source's cost columns and the column id
of each slot's y; a source whose columns are permutations of one another, a
cascade among them, builds it once for every y.  Tables live in one LRU
cache of at most 16 tables and _RANK_CACHE_BYTES in all.

The hash is linear in the encoded bits, so one kernel decodes the list: a
listed block's product is the center's product XOR, along its row, the
differences P[i, alternative] ^ P[i, center_i] of the products of each
slot's listed symbols under the seed.
guess_set expands the same table into blocks.

Searches are capped by a node budget (default 1e8, or OMSKA_BUDGET): the
running count of list nodes, checked before each level is built and before
any cached table is read (the budget is part of the cache's key).  An
overrun raises BudgetExceededError, carrying the count and the budget,
instead of thrashing.
"""

from __future__ import annotations

import json
import os
import threading
from collections import OrderedDict
from dataclasses import dataclass, asdict

import numpy as np

from .planner import LIST_TOL, Plan
from .source import JointSource, sample
from .uhash import (BitString, GFContext, SeedHasher, encode_symbols, field_for_source,
                    fresh_seed, hash as uhf_hash)

DEFAULT_SEARCH_BUDGET = 10 ** 8

# most bytes of deviation tables pinned at once; a larger table is rebuilt on
# every call
_RANK_CACHE_BYTES = 64 << 20


class BudgetExceededError(RuntimeError):
    """Raised when list enumeration would exceed the configured node budget;
    count is the running node total at the level that crossed the budget."""

    def __init__(self, message: str, count: int, budget: int):
        super().__init__(message)
        self.count = count
        self.budget = budget

    def __reduce__(self):  # keep the attributes across process pools
        return type(self), (str(self), self.count, self.budget)


def search_budget() -> int:
    raw = os.environ.get("OMSKA_BUDGET")
    if raw is None:
        return DEFAULT_SEARCH_BUDGET
    try:
        budget = int(float(raw))
    except (ValueError, OverflowError) as exc:  # not a number, NaN, or infinite
        raise ValueError(f"OMSKA_BUDGET must be a finite number, got {raw!r}") from exc
    if budget < 1:
        raise ValueError(f"OMSKA_BUDGET must be positive once rounded down, got {raw!r}")
    return budget


@dataclass(frozen=True)
class Transcript:
    """Everything the eavesdropper sees: both seeds, the check value, the plan."""

    recon_seed: BitString
    key_seed: BitString
    check_value: BitString
    plan: Plan

    def to_json_dict(self) -> dict:
        def bs(b: BitString) -> dict:
            return {"hex": b.to_hex(), "bits": b.length}
        return {
            "recon_seed": bs(self.recon_seed),
            "key_seed": bs(self.key_seed),
            "check_value": bs(self.check_value),
            "plan": asdict(self.plan),
        }

    def to_json(self) -> str:
        return json.dumps(self.to_json_dict(), indent=2, sort_keys=True)

    @classmethod
    def from_json_dict(cls, data: dict) -> "Transcript":
        def bs(d: dict) -> BitString:
            return BitString.from_hex(d["hex"], d["bits"])
        return cls(
            recon_seed=bs(data["recon_seed"]),
            key_seed=bs(data["key_seed"]),
            check_value=bs(data["check_value"]),
            plan=Plan(**data["plan"]),
        )

    @classmethod
    def from_json(cls, text: str) -> "Transcript":
        return cls.from_json_dict(json.loads(text))


@dataclass(frozen=True)
class SessionResult:
    """Outcome of one run: 'agreed', 'mismatched', or 'aborted'.

    'agreed' means the receiver decoded a unique candidate and both extracted
    keys coincide; 'mismatched' means a unique candidate survived but the keys
    differ (an undetected hash collision); 'aborted' means zero or several
    candidates matched the check value.
    """

    outcome: str
    key_alice: BitString
    key_bob: BitString | None
    decoded: np.ndarray | None
    x: np.ndarray
    y: np.ndarray
    z: np.ndarray
    transcript: Transcript


def _received(y, src: JointSource) -> np.ndarray:
    """y as an int64 vector of receiver symbols; ValueError for any other shape
    or for a symbol outside [0, |Y|)."""
    y = np.asarray(y, dtype=np.int64)
    # one comparison: a negative symbol viewed as uint64 is at least 2^63
    if y.ndim != 1 or np.count_nonzero(y.view(np.uint64) >= src.alphabet_sizes[1]):
        raise ValueError(f"y must be a vector of symbols below {src.alphabet_sizes[1]}")
    return y


def _level_list(y: np.ndarray, plan: Plan, src: JointSource, budget: int):
    """The guess list as (table, ranked): the cached deviation table of y's
    column-cost sequence, and ranked[i, r], the rank-r symbol of slot i given
    y (0 past a short column), whose column 0 is the center."""
    columns, ids = src.cost_columns, src.column_ids.take(y)
    if () in columns:
        unseen = np.flatnonzero(ids == columns.index(()))
        if unseen.shape[0]:
            i = int(unseen[0])
            raise ValueError(f"observed symbol {y[i]} at position {i} has probability zero")
    lam, size_x = plan.list_log_threshold, src.alphabet_sizes[0]
    # y's cost sequence keyed by column ids, which hash far faster than costs
    key = (columns, ids.tobytes(), lam, budget, size_x)
    table = _rank_list(key, lambda: _build_rank_list(
        tuple(map(columns.__getitem__, ids.tolist())), lam, budget, size_x))
    return table, src.rank_symbols.take(y, axis=0)


def _block(row: np.ndarray, ranked: np.ndarray) -> np.ndarray:
    """The block of one deviation-table row: the center with slot e // k set
    to alt.flat[e] for every entry e, alt = ranked[:, 1:] and k = |X| - 1;
    entries equal to alt.size are padding."""
    alt = ranked[:, 1:]
    entries = row[row < alt.size]
    block = ranked[:, 0].copy()
    block[entries // alt.shape[1]] = alt.take(entries)
    return block


def _expand(table: np.ndarray, ranked: np.ndarray) -> np.ndarray:
    """_block of every row of a deviation table, as one writable int64 array."""
    alt = ranked[:, 1:]
    blocks = np.repeat(ranked[None, :, 0], table.shape[0], axis=0)
    rows, cols = np.nonzero(table < alt.size)
    entries = table[rows, cols]
    blocks[rows, entries // alt.shape[1]] = alt.take(entries)
    return blocks


def guess_set(y: np.ndarray, plan: Plan, src: JointSource) -> np.ndarray:
    """All source blocks whose surprisal given y is at most the plan threshold.

    Returns a writable int64 array of shape (count, n) in the deterministic
    enumeration order described in the module docstring.  Raises ValueError
    unless y is a vector of receiver symbols, and BudgetExceededError when the
    enumeration would exceed the search budget.
    """
    return _expand(*_level_list(_received(y, src), plan, src, search_budget()))


class _PinnedCache:
    """LRU cache of read-only arrays, each made by build() on a miss: at most
    maxsize arrays and max_bytes in all, the least recently used evicted
    first.  An array over max_bytes alone is returned but not pinned, and an
    exception is never cached, so a smaller budget still raises on a key
    built before."""

    def __init__(self, maxsize: int, max_bytes: int):
        self.maxsize, self.max_bytes = maxsize, max_bytes
        self.tables: OrderedDict = OrderedDict()
        self.hits = self.misses = self.nbytes = 0
        self.lock = threading.Lock()

    def clear(self) -> None:
        with self.lock:
            self.tables.clear()
            self.nbytes = 0

    def __call__(self, key, build) -> np.ndarray:
        with self.lock:
            table = self.tables.get(key)
            if table is not None:
                self.tables.move_to_end(key)
                self.hits += 1
                return table
            self.misses += 1
        table = build()
        table.setflags(write=False)
        if table.nbytes <= self.max_bytes:
            with self.lock:
                if key not in self.tables:  # another thread may have built it too
                    self.tables[key] = table
                    self.nbytes += table.nbytes
                while len(self.tables) > self.maxsize or self.nbytes > self.max_bytes:
                    self.nbytes -= self.tables.popitem(last=False)[1].nbytes
        return table


def _build_rank_list(columns: tuple[tuple[float, ...], ...], lam: float,
                     budget: int, alphabet_size: int) -> np.ndarray:
    """The deviation table of every rank pattern r with sum_i columns[i][r_i]
    within lam (plus LIST_TOL), built level by level: each row is repeated
    for the ranks that keep acc + cost + suffix_min[i+1] within the threshold.
    Columns are sorted, so those ranks are a prefix of each row, and the
    expansion is row-stable: rows come out in depth-first order (lexicographic
    in rank).  A level's node count is checked before it is built; an overrun
    reports the running node total.

    A row carries only its deviations, so the build holds rows x (most
    deviations) entries, not rows x n ranks: in slot order, the index
    i*(|X|-1) + r - 1 of each slot i at rank r >= 1, padded with n*(|X|-1),
    the index of the zero that callers append.  Column-major, so that a
    gather through it comes out column-major too, and numpy's XOR-reduce
    along each row is then about ten times faster than on C order."""
    lam += LIST_TOL
    # cheapest completion after each position, summed right to left
    suffix_min = np.append(np.cumsum([costs[0] for costs in columns[::-1]])[::-1], 0.0)
    stride = alphabet_size - 1
    pad = len(columns) * stride
    dtype = np.min_scalar_type(pad)  # narrow while building, int64 once built
    acc = np.zeros(1)
    devs = np.empty((1, 0), dtype=dtype)  # each row's entries, then padding
    width = np.zeros(1, dtype=np.int64)  # deviations a row holds
    nodes = 0
    for i, costs in enumerate(columns):
        # flat (row, rank) cells, row-major; the kept ranks are a prefix of
        # each row, as its costs are sorted
        totals = (acc[:, None] + np.array(costs)).ravel()
        kept = np.flatnonzero(totals + suffix_min[i + 1] <= lam)
        nodes += kept.shape[0]
        if nodes > budget:
            raise BudgetExceededError(
                f"list search exceeded budget {budget} at depth {i}", nodes, budget)
        acc = totals.take(kept)
        rows, ranks = np.divmod(kept, len(costs))
        # take, not fancy indexing: about ten times faster on rows of a 2-D array
        devs, width = devs.take(rows, axis=0), width.take(rows)
        off = np.flatnonzero(ranks)  # rows that leave rank 0 at this slot
        if off.shape[0]:
            at = width.take(off)
            if at.max() == devs.shape[1]:
                devs = np.concatenate((devs, np.full((devs.shape[0], 1), pad, dtype)), axis=1)
            devs[off, at] = i * stride + ranks.take(off) - 1
            width[off] = at + 1
    # a row pruned before the last slot may have been the widest
    return np.asfortranarray(devs[:, :width.max(initial=0)], dtype=np.int64)


_rank_list = _PinnedCache(maxsize=16, max_bytes=_RANK_CACHE_BYTES)


def _unique_hit(prods: np.ndarray, check_value: BitString, bits: int) -> int | None:
    """Row of the one product whose top check_value.length bits equal the check
    value, None on no match or several.  An empty check matches every row:
    numpy shifts a uint64 by 64 to 0, as Python shifts an m-bit int by m."""
    hits = np.flatnonzero((prods >> (bits - check_value.length)) == check_value.value)
    return int(hits[0]) if hits.shape[0] == 1 else None


def _level_inputs(y: np.ndarray, recon_seed: BitString, plan: Plan, ctx: GFContext,
                  src: JointSource):
    """Kernel inputs: the guess list (table, ranked), the product differences
    diffs[i*k + r - 1] = P[i, r] ^ P[i, 0] (k = |X| - 1) of the products P of
    the ranked symbols in their slots (SeedHasher.products), with a zero
    appended for padding, and the center's product base."""
    table, ranked = _level_list(y, plan, src, search_budget())
    products = SeedHasher(recon_seed, ctx).products(ranked, src.alphabet_sizes[0])
    # a zero of the products' own dtype (uint64, or a Python int above 64 bits)
    diffs = np.concatenate(((products[:, 1:] ^ products[:, :1]).ravel(),
                            np.zeros(1, products.dtype)))
    return table, ranked, diffs, np.bitwise_xor.reduce(products[:, 0])


def bob_decode(y: np.ndarray, check_value: BitString, recon_seed: BitString,
               plan: Plan, ctx: GFContext, src: JointSource):
    """Receiver's list decode: ('ok', block) on a unique hash match, else
    ('abort', None) for zero or multiple matches.

    The hash is linear, so a listed block's product is the center's product
    (base) XOR the product differences (diffs) its deviation-table row points
    at.
    """
    if check_value.length != plan.recon_bits:
        raise ValueError(
            f"check value has {check_value.length} bits, plan says {plan.recon_bits}")
    if plan.recon_bits > ctx.bits:
        raise ValueError(f"a {plan.recon_bits}-bit check does not fit a {ctx.bits}-bit field")
    y = _received(y, src)
    table, ranked, diffs, base = _level_inputs(y, recon_seed, plan, ctx, src)
    hit = _unique_hit(np.bitwise_xor.reduce(diffs[table], axis=1) ^ base,
                      check_value, ctx.bits)
    if hit is None:
        return "abort", None  # no match, or an ambiguous list
    return "ok", _block(table[hit], ranked)


def bob_extract(block: np.ndarray, key_seed: BitString, plan: Plan, ctx: GFContext,
                alphabet_size: int) -> BitString:
    """Key hash of a reconstructed block; empty key when the plan allots 0 bits."""
    encoded = encode_symbols(block, alphabet_size)
    return uhf_hash(encoded, key_seed, plan.key_bits, ctx)


def run_session(src: JointSource, plan: Plan, rng_seed) -> SessionResult:
    """Sample one block triple, run the full exchange, and report the outcome.

    rng_seed feeds a SeedSequence split three ways (source sample, hash seed,
    key seed), so runs are reproducible and seeds are independent.
    """
    size_x = src.alphabet_sizes[0]
    ctx = field_for_source(plan.n, size_x)
    if plan.recon_bits > ctx.bits:
        raise ValueError(
            f"plan wants a {plan.recon_bits}-bit check but the field has {ctx.bits} bits")
    if plan.key_bits > ctx.bits:
        raise ValueError(
            f"plan wants a {plan.key_bits}-bit key but the field has {ctx.bits} bits")
    seq = rng_seed if isinstance(rng_seed, np.random.SeedSequence) \
        else np.random.SeedSequence(rng_seed)
    # derive children without seq.spawn(): spawning advances the parent's
    # counter, which would make repeat runs on the same sequence diverge
    children = [np.random.SeedSequence(seq.entropy,
                                       spawn_key=tuple(seq.spawn_key) + (i,),
                                       pool_size=seq.pool_size) for i in range(3)]
    rng_sample, rng_recon, rng_key = (np.random.default_rng(s) for s in children)
    x, y, z = sample(src, plan.n, rng_sample)
    recon_seed = fresh_seed(ctx, rng_recon)
    key_seed = fresh_seed(ctx, rng_key)

    # Alice's check value and key, sharing one encode of x
    encoded = encode_symbols(x, size_x)
    check_value = uhf_hash(encoded, recon_seed, plan.recon_bits, ctx)
    transcript = Transcript(recon_seed=recon_seed, key_seed=key_seed,
                            check_value=check_value, plan=plan)
    key_alice = uhf_hash(encoded, key_seed, plan.key_bits, ctx)

    status, decoded = bob_decode(y, check_value, recon_seed, plan, ctx, src)
    if status != "ok":
        return SessionResult("aborted", key_alice, None, None, x, y, z, transcript)
    key_bob = bob_extract(decoded, key_seed, plan, ctx, size_x)
    outcome = "agreed" if key_bob == key_alice else "mismatched"
    return SessionResult(outcome, key_alice, key_bob, decoded, x, y, z, transcript)
