"""One-message key-agreement sessions over a sampled source.

The sender observes x, publishes two hash seeds and a short check value, and
both sides extract keys from their reconstructed source block.  The receiver
builds the list of source blocks whose conditional surprisal given y stays
under the plan's threshold, keeps the candidates whose check hash matches,
and aborts unless exactly one survives.  run_session plays the sender: it
encodes x once and hashes it to the check value and to Alice's key.
bob_decode and bob_extract are the receiver's two steps.

The source picks the list: on a binary cascade (`JointSource.cascade`) it
is a Hamming ball around y, any other source takes a level-wise list.
Enumeration is deterministic: the ball walks flip patterns by increasing
Hamming weight (lexicographic within a weight), the level-wise list takes
positions in natural order and per-position symbols by ascending cost, in
depth-first order.  Both apply the threshold tolerance in bits and enumerate
the same set; tests pin that down.

Both lists are stored the same way, as a read-only, column-major deviation
table around a center block: one row per listed block, holding the flat index
i*k + r - 1 of every slot i that takes its r-th alternative symbol (k
alternatives a slot), padded with n*k, the index of a zero that callers
append.  The ball's center is y, its one alternative a slot the flipped
symbol, and its table is built once per (n, radius).  The level-wise center
is the cheapest block, each slot's rank-0 symbol given y, and the
alternatives are the costlier symbols of the slot's y column by rank.  Whether
a block is listed depends only on those ranks, so that table is built once per
column-cost sequence; a source whose columns are permutations of one another
builds it once for every y.  Both tables live in small LRU caches (the
level-wise one up to _RANK_CACHE_BYTES a table).

The hash is linear in the encoded bits, so one kernel decodes both lists: a
listed block's product is the center's product XOR, along its row, the
differences T[i, alternative] ^ T[i, center_i] of the seed's symbol table.
Only those inputs differ, where the maths does: on a cascade T[i, 0] is zero,
so every flip adds T[i, 1].  guess_set expands the same tables into blocks.

Searches are capped by a node/candidate budget (default 1e8, or
OMSKA_BUDGET), checked before any table is read or list level built (the
budget is part of the rank cache's key), and raise BudgetExceededError,
carrying the count and the budget, instead of thrashing.
"""

from __future__ import annotations

import itertools
import json
import math
import os
import threading
from collections import OrderedDict
from dataclasses import dataclass, asdict
from functools import lru_cache

import numpy as np

from .planner import Plan
from .source import JointSource, hamming_ball_size, sample
from .uhash import (BitString, GFContext, SeedHasher, encode_symbols, field_for_source,
                    fresh_seed, hash as uhf_hash)

DEFAULT_SEARCH_BUDGET = 10 ** 8

# floor() guard: threshold arithmetic may land a hair under an exact radius
_RADIUS_TOL = 1e-9

# rank lists over this size are built on every call rather than pinned
_RANK_CACHE_BYTES = 1 << 20


class BudgetExceededError(RuntimeError):
    """Raised when list enumeration would exceed the configured node budget;
    count is the list size (ball paths) or, on the general path, the running
    node total at the level that crossed the budget."""

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


def _hamming_ball(plan: Plan, n: int, p: float) -> tuple[int, int]:
    """(radius, size) of the cascade's guess list: the largest flip weight whose
    surprisal stays within the plan threshold (-1: empty) and the block count
    within it, which must not exceed the search budget."""
    lam = plan.list_log_threshold
    if p == 0.0:
        # flips have probability zero; only the exact copy can qualify
        radius = 0 if lam + _RADIUS_TOL >= 0.0 else -1
    elif p == 0.5:
        # all blocks equally likely at n bits of surprisal
        radius = n if lam + _RADIUS_TOL >= n else -1
    else:
        # the tolerance is in bits, as on the level-wise list
        base = n * -math.log2(1.0 - p)
        step = math.log2((1.0 - p) / p)
        radius = -1 if lam + _RADIUS_TOL < base \
            else min(n, math.floor((lam + _RADIUS_TOL - base) / step))
    budget = search_budget()
    count = hamming_ball_size(n, radius)
    if count > budget:
        raise BudgetExceededError(
            f"guess list holds {count} blocks, budget is {budget}", count, budget)
    return radius, count


@lru_cache(maxsize=16)
def _pattern_table(n: int, radius: int) -> np.ndarray:
    """Read-only (hamming_ball_size(n, radius), radius) array of flip positions:
    one row per pattern, weight ascending and lexicographic within a weight.
    A row of weight w pads its radius - w unused slots with n, the index of a
    column that callers append (a zero basis row, a discarded flip).  Stored
    column-major: a gather through it comes out column-major too, and numpy's
    XOR-reduce along each row is then about ten times faster than on C order."""
    table = np.full((hamming_ball_size(n, radius), radius), n, dtype=np.int64, order="F")
    row = 1  # weight 0 is the all-padding first row
    for w in range(1, radius + 1):
        count = math.comb(n, w)
        flat = itertools.chain.from_iterable(itertools.combinations(range(n), w))
        table[row:row + count, :w] = np.fromiter(flat, dtype=np.int64,
                                                  count=count * w).reshape(count, w)
        row += count
    table.setflags(write=False)
    return table


def _received(y, src: JointSource) -> np.ndarray:
    """y as an int64 vector of receiver symbols; ValueError for any other shape
    or for a symbol outside [0, |Y|)."""
    y = np.asarray(y, dtype=np.int64)
    # one comparison: a negative symbol viewed as uint64 is at least 2^63
    if y.ndim != 1 or np.count_nonzero(y.view(np.uint64) >= src.alphabet_sizes[1]):
        raise ValueError(f"y must be a vector of symbols below {src.alphabet_sizes[1]}")
    return y


# the deviation table of an empty list
_NO_ROWS = np.empty((0, 0), dtype=np.int64)
_NO_ROWS.setflags(write=False)


def _ball_list(y: np.ndarray, plan: Plan, src: JointSource):
    """The cascade's Hamming ball around y as (table, center, alt): the flip
    patterns are a deviation table whose entry i sets slot i to alt[i, 0],
    the flipped symbol."""
    n = y.shape[0]
    radius, _ = _hamming_ball(plan, n, src.cascade.p)
    table = _pattern_table(n, radius) if radius >= 0 else _NO_ROWS
    return table, y, (y ^ 1)[:, None]


def _level_list(y: np.ndarray, plan: Plan, src: JointSource, budget: int):
    """The level-wise list as (table, center, alt): the cached deviation table
    of y's column-cost sequence, the rank-0 symbol of every slot, and alt[i,
    r - 1], the rank-r symbol of slot i (padded with 0 past a short column)."""
    columns = tuple(src.cost_columns[v] for v in y.tolist())
    if () in columns:
        i = columns.index(())
        raise ValueError(f"observed symbol {y[i]} at position {i} has probability zero")
    table = _rank_list(columns, plan.list_log_threshold, budget, src.alphabet_sizes[0])
    symbols = src.rank_symbols[y]
    return table, symbols[:, 0], symbols[:, 1:]


def _block(row: np.ndarray, center: np.ndarray, alt: np.ndarray) -> np.ndarray:
    """The block of one deviation-table row: the center with slot e // k set
    to alt.flat[e] for every entry e, k = alt.shape[1]; entries equal to
    alt.size are padding."""
    entries = row[row < alt.size]
    block = center.copy()
    block[entries // alt.shape[1]] = alt.take(entries)
    return block


def _expand(table: np.ndarray, center: np.ndarray, alt: np.ndarray) -> np.ndarray:
    """_block of every row of a deviation table, as one writable int64 array."""
    blocks = np.repeat(center[None, :], table.shape[0], axis=0)
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
    y = _received(y, src)
    if src.cascade is None:
        return _expand(*_level_list(y, plan, src, search_budget()))
    return _expand(*_ball_list(y, plan, src))


class _PinnedCache:
    """LRU cache of a builder's read-only arrays, keyed by its arguments.  An
    array over max_bytes is returned but not pinned, and an exception is never
    cached, so a smaller budget still raises on a key built before."""

    def __init__(self, build, maxsize: int, max_bytes: int):
        self.build, self.maxsize, self.max_bytes = build, maxsize, max_bytes
        self.tables: OrderedDict = OrderedDict()
        self.hits = self.misses = 0
        self.lock = threading.Lock()

    def __call__(self, *key) -> np.ndarray:
        with self.lock:
            table = self.tables.get(key)
            if table is not None:
                self.tables.move_to_end(key)
                self.hits += 1
                return table
            self.misses += 1
        table = self.build(*key)
        table.setflags(write=False)
        if table.nbytes <= self.max_bytes:
            with self.lock:
                self.tables[key] = table
                if len(self.tables) > self.maxsize:
                    self.tables.popitem(last=False)
        return table


def _build_rank_list(columns: tuple[tuple[float, ...], ...], lam: float,
                     budget: int, alphabet_size: int) -> np.ndarray:
    """Every rank pattern r with sum_i columns[i][r_i] within lam (plus the
    tolerance), built level by level: each prefix row is repeated for the ranks
    that keep acc + cost + suffix_min[i+1] within the threshold.  Columns are
    sorted, so those ranks are a prefix of each row, and the expansion is
    row-stable: rows come out in depth-first order (lexicographic in rank).
    A level's node count is checked before it is built; an overrun reports the
    running node total.

    Returned as a deviation table, the form of the ball's flip patterns: one
    row per pattern, holding in slot order the index i*(|X|-1) + r - 1 of each
    slot i at rank r >= 1, padded with n*(|X|-1), the index of the zero that
    callers append.  Column-major, as _pattern_table is."""
    lam += _RADIUS_TOL
    # cheapest completion after each position, summed right to left
    suffix_min = np.append(np.cumsum([costs[0] for costs in columns[::-1]])[::-1], 0.0)
    dtype = np.min_scalar_type(max(map(len, columns), default=1) - 1)
    acc, ranks = np.zeros(1), np.empty((1, 0), dtype=dtype)
    nodes = 0
    for i, costs in enumerate(columns):
        totals = acc[:, None] + np.array(costs)
        keep = totals + suffix_min[i + 1] <= lam  # a prefix of each sorted row
        nodes += int(np.count_nonzero(keep))
        if nodes > budget:
            raise BudgetExceededError(
                f"list search exceeded budget {budget} at depth {i}", nodes, budget)
        rows, cols = np.nonzero(keep)
        acc = totals[rows, cols]
        ranks = np.concatenate((ranks[rows], cols[:, None].astype(dtype)), axis=1)
    stride = alphabet_size - 1
    rows, slots = np.nonzero(ranks)
    per_row = np.bincount(rows, minlength=ranks.shape[0])
    table = np.full((ranks.shape[0], per_row.max(initial=0)), len(columns) * stride,
                    dtype=np.int64, order="F")
    # the k-th deviation of a row goes to its column k
    place = np.arange(rows.shape[0]) - np.repeat(np.cumsum(per_row) - per_row, per_row)
    table[rows, place] = slots * stride + ranks[rows, slots] - 1
    return table


_rank_list = _PinnedCache(_build_rank_list, maxsize=16, max_bytes=_RANK_CACHE_BYTES)


def _unique_hit(prods: np.ndarray, check_value: BitString, bits: int) -> int | None:
    """Row of the one product whose top check_value.length bits equal the check
    value, None on no match or several.  An empty check matches every row:
    numpy shifts a uint64 by 64 to 0, as Python shifts an m-bit int by m."""
    hits = np.flatnonzero((prods >> (bits - check_value.length)) == check_value.value)
    return int(hits[0]) if hits.shape[0] == 1 else None


def _ball_inputs(y: np.ndarray, recon_seed: BitString, plan: Plan, ctx: GFContext,
                 src: JointSource):
    """Kernel inputs on a binary cascade: the ball around y.  T[i, 0] is zero,
    so a flip at slot i adds T[i, 1] whatever y_i is."""
    table, center, alt = _ball_list(y, plan, src)
    n = y.shape[0]
    symbols = SeedHasher(recon_seed, ctx).symbol_table(n, 2)
    # index n is the zero that padding points at, a zero of the table's own
    # dtype (uint64, or a Python int above 64 bits)
    diffs = np.concatenate((symbols[:, 1], symbols[:1, 0]))
    base = np.bitwise_xor.reduce(symbols[np.arange(n), y])
    return table, center, alt, diffs, base


def _level_inputs(y: np.ndarray, recon_seed: BitString, plan: Plan, ctx: GFContext,
                  src: JointSource):
    """Kernel inputs on any source: the level-wise list.  Slot i at rank r
    adds T[i, alt[i, r - 1]] ^ T[i, center[i]]."""
    table, center, alt = _level_list(y, plan, src, search_budget())
    n = y.shape[0]
    symbols = SeedHasher(recon_seed, ctx).symbol_table(n, src.alphabet_sizes[0])
    slots = np.arange(n)
    at_center = symbols[slots, center]
    diffs = np.concatenate(((symbols[slots[:, None], alt] ^ at_center[:, None]).ravel(),
                            symbols[:1, 0]))
    return table, center, alt, diffs, np.bitwise_xor.reduce(at_center)


def _list_decode(inputs, y: np.ndarray, check_value: BitString, recon_seed: BitString,
                 plan: Plan, ctx: GFContext, src: JointSource):
    """The one list decoder, fed by _ball_inputs or _level_inputs.  The hash is
    linear, so a listed block's product is the center's product (base) XOR
    the product differences (diffs) its deviation-table row points at.  y is
    validated by bob_decode."""
    table, center, alt, diffs, base = inputs(y, recon_seed, plan, ctx, src)
    hit = _unique_hit(np.bitwise_xor.reduce(diffs[table], axis=1) ^ base,
                      check_value, ctx.bits)
    if hit is None:
        return "abort", None  # no match, or an ambiguous list
    return "ok", _block(table[hit], center, alt)


def bob_decode(y: np.ndarray, check_value: BitString, recon_seed: BitString,
               plan: Plan, ctx: GFContext, src: JointSource):
    """Receiver's list decode: ('ok', block) on a unique hash match, else
    ('abort', None) for zero or multiple matches.

    A binary cascade source decodes over its Hamming ball's flip patterns,
    in any field size; any other source hashes its level-wise guess list.
    """
    if check_value.length != plan.recon_bits:
        raise ValueError(
            f"check value has {check_value.length} bits, plan says {plan.recon_bits}")
    if plan.recon_bits > ctx.bits:
        raise ValueError(f"a {plan.recon_bits}-bit check does not fit a {ctx.bits}-bit field")
    inputs = _level_inputs if src.cascade is None else _ball_inputs
    return _list_decode(inputs, _received(y, src), check_value, recon_seed, plan, ctx, src)


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
