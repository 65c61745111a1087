"""Session mechanics: list decoding, enumeration order, budgets, outcomes."""

import itertools
import math
import pickle
import tracemalloc

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from cascade_oracles import detect_bsc_chain, hamming_ball_size
from omska import cli
from omska.planner import Plan, plan_desk_exact
from omska.protocol import (_RANK_CACHE_BYTES, DEFAULT_SEARCH_BUDGET, BudgetExceededError,
                            Transcript, _build_rank_list, _expand, _level_list, _rank_list,
                            bob_decode, guess_set, run_session, search_budget)
from omska.source import JointSource, bsc_chain
from omska.uhash import BitString, encode_symbols, field_for_source, symbol_width
from omska.uhash import hash as uhf_hash

CHAIN = bsc_chain(0.02, 0.15)


def _hand_plan(n, lam, t, ell):
    """Plan with every knob explicit, for targeted decode tests."""
    return Plan(mode="desk_exact", n=n, eps=0.5, sigma=0.5, eps_miss=0.25,
                eps_collide=0.25, eps_smooth=0.1, miss_slack=0.0, smooth_slack=0.0,
                list_log_threshold=lam, recon_bits=t, key_bits=ell,
                key_real=float(ell), feasible=ell >= 1)


def _ternary_source():
    # |X|=3 with asymmetric posteriors in both y-columns
    pxy = np.array([[0.30, 0.06], [0.15, 0.15], [0.05, 0.29]])
    pmf = np.repeat(pxy[:, :, None] / 2.0, 2, axis=2)
    return JointSource((3, 2, 2), pmf)


def _symmetric_ternary_source():
    # the benchmark's general workload: X uniform, Y and Z ternary symmetric
    # channels keeping the symbol w.p. 0.97 and 0.7, so every y column holds
    # the same costs in a different order
    def channel(err):
        return np.full((3, 3), err / 2) + np.eye(3) * (1 - 1.5 * err)
    pmf = np.einsum("x,xy,xz->xyz", np.full(3, 1 / 3), channel(0.03), channel(0.3))
    return JointSource((3, 3, 3), pmf)


def _dfs_guess_list(y, plan, src, budget):
    """Oracle: depth-first search over positions in natural order, symbols by
    ascending cost (ties by symbol), pruned by the cheapest completion.
    Returns (rows, nodes pushed per depth); raises BudgetExceededError with
    count budget + 1 at the first node past the budget."""
    n = len(y)
    p_xy = src.p_xy()
    p_y = p_xy.sum(axis=0)
    lam = plan.list_log_threshold + 1e-9
    columns = []
    for i in range(n):
        yv = int(y[i])
        if p_y[yv] <= 0.0:
            raise ValueError(f"observed symbol {yv} at position {i} has probability zero")
        cond = p_xy[:, yv] / p_y[yv]
        columns.append(sorted((-math.log2(cond[a]), a)
                              for a in range(src.alphabet_sizes[0]) if cond[a] > 0.0))
    suffix_min = [0.0] * (n + 1)
    for i in range(n - 1, -1, -1):
        suffix_min[i] = suffix_min[i + 1] + columns[i][0][0]
    found, prefix, per_depth = [], [0] * n, [0] * n
    nodes = 0
    frames = [[0, 0.0, 0]] if suffix_min[0] <= lam else []
    while frames:
        frame = frames[-1]
        i, acc, idx = frame
        if i == n:
            found.append(prefix.copy())
            frames.pop()
            continue
        if idx >= len(columns[i]):
            frames.pop()
            continue
        cost, symbol = columns[i][idx]
        frame[2] = idx + 1
        total = acc + cost
        if total + suffix_min[i + 1] > lam:
            frames.pop()  # column sorted ascending, later symbols only cost more
            continue
        nodes += 1
        per_depth[i] += 1
        if nodes > budget:
            raise BudgetExceededError(f"over budget at depth {i}", nodes, budget)
        prefix[i] = symbol
        frames.append([i + 1, total, 0])
    return np.array(found, dtype=np.int64).reshape(-1, n), per_depth


def _field_hashes(rows, seed, t, ctx, size_x):
    """The t-bit hash of every row under seed, for fields up to 64 bits: the
    rows encoded big-endian into uint64, then multiplied by the seed one seed
    bit at a time (most significant first), shifting and reducing by
    ctx.poly, all rows at once."""
    m = ctx.bits
    width, one = np.uint64(symbol_width(size_x)), np.uint64(1)
    x = np.zeros(len(rows), dtype=np.uint64)
    for column in rows.T:
        x = (x << width) | column.astype(np.uint64)
    field, low = np.uint64((1 << m) - 1), np.uint64(ctx.poly & ((1 << m) - 1))
    acc = np.zeros_like(x)
    for i in range(m - 1, -1, -1):
        acc = ((acc << one) & field) ^ ((acc >> np.uint64(m - 1)) * low)
        if seed.value >> i & 1:
            acc ^= x
    return acc >> np.uint64(m - t) if t else np.zeros_like(acc)


def _literal_list(y, plan, src):
    """Oracle list, in no particular order.  Up to 2^20 blocks, all |X|^n of
    them are enumerated at once and kept when their cost, summed left to
    right from math.log2 of the conditionals, is within the threshold (plus
    1e-9); larger spaces take the depth-first search."""
    size_x, n = src.alphabet_sizes[0], len(y)
    if size_x ** n > 1 << 20:
        return _dfs_guess_list(y, plan, src, DEFAULT_SEARCH_BUDGET)[0]
    p_xy = src.p_xy()
    p_y = p_xy.sum(axis=0)
    cost = np.array([[-math.log2(p_xy[a, v] / p_y[v]) if p_xy[a, v] > 0.0 else math.inf
                      for v in range(p_xy.shape[1])] for a in range(size_x)])
    index = np.arange(size_x ** n)
    total = np.zeros(index.shape[0])
    for i in range(n):
        total = total + cost[index // size_x ** (n - 1 - i) % size_x, y[i]]
    kept = index[total <= plan.list_log_threshold + 1e-9]
    return kept[:, None] // size_x ** np.arange(n - 1, -1, -1) % size_x


def _literal_decode(y, check_value, recon_seed, plan, ctx, src):
    """Oracle: hash every block of the literal list through a field multiply
    written out here (uhash.hash itself above 64 bits, one block at a time);
    ('ok', block) on exactly one match."""
    size_x = src.alphabet_sizes[0]
    rows = _literal_list(y, plan, src)
    if ctx.bits > 64:
        hits = [row for row in rows
                if uhf_hash(encode_symbols(row, size_x), recon_seed, plan.recon_bits,
                            ctx) == check_value]
    elif check_value.length != plan.recon_bits:
        hits = []
    else:
        hashes = _field_hashes(rows, recon_seed, plan.recon_bits, ctx, size_x)
        hits = rows[hashes == check_value.value]
    return ("ok", hits[0]) if len(hits) == 1 else ("abort", None)


def _deviations(rows):
    """Slots off the cheapest block, per row of a depth-first list (its first
    row is that block): the width a row takes in a deviation table."""
    return (rows != rows[0]).sum(axis=1)


def _general_list(y, plan, src, budget):
    return _expand(*_level_list(y, plan, src, budget))


def _same_decode(got, want):
    """A decode result equals the oracle's: the status, and the block if any."""
    assert got[0] == want[0]
    if want[1] is None:
        assert got[1] is None
    else:
        assert got[1].dtype == np.int64 and np.array_equal(got[1], want[1])


def _random_source(data):
    """Random joint pmf with small integer weights, zeros included, so some
    symbols are inadmissible and costs tie."""
    sizes = (data.draw(st.integers(2, 5), label="|X|"),
             data.draw(st.integers(1, 3), label="|Y|"), 1)
    weights = np.array(data.draw(st.lists(st.integers(0, 9), min_size=sizes[0] * sizes[1],
                                          max_size=sizes[0] * sizes[1]), label="weights"),
                       dtype=float)
    if weights.sum() == 0:
        weights[0] = 1.0
    return JointSource(sizes, (weights / weights.sum()).reshape(sizes))


def _observed(data, src, n):
    seen = np.flatnonzero(src.p_y() > 0)
    return np.array(data.draw(st.lists(st.sampled_from(seen.tolist()), min_size=n,
                                       max_size=n), label="y"), dtype=np.int64)


def _threshold(data, src, y):
    """A threshold from just under the cheapest block's cost to well above it."""
    p_xy = src.p_xy()
    cheapest = sum(-math.log2(p_xy[:, v].max() / p_xy[:, v].sum()) for v in y)
    return max(0.0, cheapest + data.draw(st.floats(-0.5, 1.5 * len(y)), label="slack"))


@settings(max_examples=150, deadline=None)
@given(data=st.data())
def test_transcript_json_roundtrip_property(data):
    # random seeds and check lengths in fields up to 130 bits, 0-bit checks included
    bits = data.draw(st.integers(1, 130), label="field bits")
    t = data.draw(st.integers(0, bits), label="check bits")

    def element(label, length):
        return BitString(data.draw(st.integers(0, (1 << length) - 1), label=label), length)

    plan = _hand_plan(data.draw(st.integers(1, 64), label="n"),
                      data.draw(st.floats(0.0, 1e4), label="lam"), t,
                      data.draw(st.integers(0, bits), label="key bits"))
    tr = Transcript(recon_seed=element("recon seed", bits), key_seed=element("key seed", bits),
                    check_value=element("check", t), plan=plan)
    assert Transcript.from_json(tr.to_json()) == tr


def test_transcript_json_roundtrip():
    plan = plan_desk_exact(CHAIN, 32, 0.05, 0.05)
    res = run_session(CHAIN, plan, rng_seed=3)
    text = res.transcript.to_json()
    back = Transcript.from_json(text)
    assert back == res.transcript
    assert back.plan.list_size == 5489


def test_session_reproducible():
    plan = plan_desk_exact(CHAIN, 32, 0.05, 0.05)
    a = run_session(CHAIN, plan, rng_seed=11)
    b = run_session(CHAIN, plan, rng_seed=11)
    assert a.outcome == b.outcome
    assert a.key_alice == b.key_alice
    assert np.array_equal(a.x, b.x) and np.array_equal(a.y, b.y)
    assert a.transcript == b.transcript
    c = run_session(CHAIN, plan, rng_seed=12)
    assert not np.array_equal(a.x, c.x)


def test_session_fields_on_agreement():
    plan = plan_desk_exact(CHAIN, 64, 0.3, 0.4)
    assert plan.key_bits == 1
    seen_agreed = False
    for seed in range(12):
        res = run_session(CHAIN, plan, rng_seed=seed)
        assert res.x.shape == res.y.shape == res.z.shape == (64,)
        assert res.key_alice.length == 1
        assert res.transcript.check_value.length == plan.recon_bits == 14
        assert res.transcript.plan == plan
        if res.outcome == "agreed":
            seen_agreed = True
            assert np.array_equal(res.decoded, res.x)
            assert res.key_bob == res.key_alice
        elif res.outcome == "aborted":
            assert res.key_bob is None and res.decoded is None
    assert seen_agreed


def test_ball_and_scan_decoders_agree():
    # each session decodes the cascade's list, its Hamming ball; the literal
    # oracle must reproduce the outcome and the block
    for n, sessions in ((16, 100), (32, 15)):
        plan = plan_desk_exact(CHAIN, n, 0.05, 0.05)
        ctx = field_for_source(n, 2)
        for seed in range(sessions):
            res = run_session(CHAIN, plan, rng_seed=seed)
            tr = res.transcript
            want = _literal_decode(res.y, tr.check_value, tr.recon_seed, plan, ctx, CHAIN)
            _same_decode(("abort" if res.outcome == "aborted" else "ok", res.decoded), want)


def test_guess_set_chain_matches_bruteforce():
    plan = plan_desk_exact(CHAIN, 8, 0.005, 0.05)
    assert plan.ball_radius == 2
    y = np.array([1, 0, 0, 1, 1, 1, 0, 1])
    rows = guess_set(y, plan, CHAIN)
    assert rows.shape == (37, 8)  # 1 + 8 + 28

    keep, flip = -math.log2(0.98), -math.log2(0.02)
    lam = plan.list_log_threshold + 1e-9
    expect = {cand for cand in itertools.product((0, 1), repeat=8)
              if sum(keep if c == yv else flip for c, yv in zip(cand, y)) <= lam}
    assert {tuple(r) for r in rows} == expect

    # depth-first order, lexicographic in rank (rank 1 is the flip): y, then
    # the last position flipped, and the flips of position 0 last
    assert np.array_equal(rows, _dfs_guess_list(y, plan, CHAIN, DEFAULT_SEARCH_BUDGET)[0])
    flips = [list(np.flatnonzero(row != y)) for row in rows]
    assert flips[:4] == [[], [7], [6], [6, 7]]
    assert flips[-3:] == [[0, 3], [0, 2], [0, 1]]


def test_guess_set_general_matches_bruteforce():
    src = _ternary_source()
    y = np.array([0, 1, 0, 0, 1])
    plan = _hand_plan(5, 7.0, 0, 0)
    rows = guess_set(y, plan, src)
    assert rows.shape[0] == np.unique(rows, axis=0).shape[0]

    pxy = src.p_xy()
    cond = pxy / pxy.sum(axis=0, keepdims=True)
    lam = 7.0 + 1e-9
    expect = {cand for cand in itertools.product(range(3), repeat=5)
              if sum(-math.log2(cond[c, yv]) for c, yv in zip(cand, y)) <= lam}
    assert {tuple(r) for r in rows} == expect
    assert len(expect) > 20  # threshold chosen so the list is nontrivial

    again = guess_set(y, plan, src)
    assert np.array_equal(rows, again)

    tight = guess_set(y, _hand_plan(5, 3.79, 0, 0), src)
    assert tight.shape[0] == 1  # only the pointwise-MAP block fits


def test_guess_set_with_one_symbol_columns():
    # y = 1 admits x = 1 alone, so every other slot's column has one entry:
    # those levels keep each row at rank 0, between levels that branch
    pmf = np.array([[0.25, 0.0], [0.15, 0.5], [0.1, 0.0]])[:, :, None]
    src = JointSource((3, 2, 1), pmf)
    assert src.cost_columns[1] == (0.0,)
    y = np.array([0, 1, 0, 1, 0, 1])
    for lam in (3.5, 1e3):
        plan = _hand_plan(6, lam, 0, 0)
        rows = guess_set(y, plan, src)
        assert np.array_equal(rows, _dfs_guess_list(y, plan, src, DEFAULT_SEARCH_BUDGET)[0])
        assert np.all(rows[:, 1::2] == 1)
    assert rows.shape == (27, 6)


def test_guess_set_validates_y():
    # y must be a vector of receiver symbols on both source kinds, as bob_decode requires
    for src in (_ternary_source(), CHAIN):
        plan = _hand_plan(3, 7.0, 0, 0)
        for bad in ([0, 1, -1], [0, 1, 5], [0, 1, 2], [[0, 1, 0]], 0,
                    [0, 1, np.iinfo(np.int64).min]):
            with pytest.raises(ValueError, match="symbols below 2"):
                guess_set(np.array(bad), plan, src)
        # a strided view of valid symbols is a valid y
        strided = np.array([0, 9, 1, 9, 1])[::2]
        assert np.array_equal(guess_set(strided, plan, src), guess_set([0, 1, 1], plan, src))
    with pytest.raises(ValueError, match="symbols below 2"):
        guess_set(np.array([0, -1, 0, 0]), _hand_plan(4, 7.0, 0, 0), CHAIN)
    # an in-range symbol the source never emits has no column to list from
    never_two = JointSource((2, 3, 1), np.array([[0.5, 0.0, 0.0], [0.0, 0.5, 0.0]])[:, :, None])
    with pytest.raises(ValueError, match="symbol 2 at position 1 has probability zero"):
        guess_set(np.array([0, 2]), _hand_plan(2, 7.0, 0, 0), never_two)


def test_rank_list_built_once_for_a_symmetric_source():
    # every y column holds the same costs, so every y shares one cached rank list
    src = _symmetric_ternary_source()
    n = 10
    plan = _hand_plan(n, 12.0, 0, 0)
    rng = np.random.default_rng(50)
    _rank_list.clear()
    hits, misses = _rank_list.hits, _rank_list.misses
    for _ in range(50):
        y = rng.integers(0, 3, n)
        rows = guess_set(y, plan, src)
        want, _ = _dfs_guess_list(y, plan, src, DEFAULT_SEARCH_BUDGET)
        assert rows.dtype == np.int64 and np.array_equal(rows, want)
        assert rows.flags.writeable and rows.shape[0] > 1
    assert (_rank_list.hits - hits, _rank_list.misses - misses) == (49, 1)
    (table,) = _rank_list.tables.values()
    assert not table.flags.writeable and table.dtype == np.int64 and table.flags.f_contiguous
    assert table.shape == (rows.shape[0], _deviations(rows).max())
    assert table.nbytes <= _RANK_CACHE_BYTES
    # a source with unlike columns reuses nothing across different y, and the
    # cache stays within its size
    unlike, plan = _ternary_source(), _hand_plan(6, 12.0, 0, 0)
    misses = _rank_list.misses
    for k in range(2 * _rank_list.maxsize):
        y = np.array([int(b) for b in format(k, "06b")])
        assert np.array_equal(guess_set(y, plan, unlike),
                              _dfs_guess_list(y, plan, unlike, DEFAULT_SEARCH_BUDGET)[0])
    assert _rank_list.misses - misses == 2 * _rank_list.maxsize
    assert len(_rank_list.tables) == _rank_list.maxsize


def test_rank_list_width_ignores_rows_pruned_on_the_way():
    # 0.1 + (0.3 + 0.2) == 0.6 < (0.1 + 0.2) + 0.3: the rank-1 row of slot 0
    # passes its level's check and has no child at the next, as in the
    # depth-first oracle, so the one listed block has no deviation and the
    # table no column
    lam = 0.6 - 1e-9
    assert lam + 1e-9 == 0.6
    table = _build_rank_list(((0.0, 0.1), (0.2,), (0.3,)), lam, DEFAULT_SEARCH_BUDGET, 2)
    assert table.shape == (1, 0)


def test_rank_list_cached_and_capped_by_budget(monkeypatch):
    src = _symmetric_ternary_source()
    y = np.array([0, 2, 1, 1, 0, 2])
    plan = _hand_plan(6, 9.0, 0, 0)
    rows = guess_set(y, plan, src)  # builds or reuses the entry
    built = (_rank_list.hits, _rank_list.misses)
    assert np.array_equal(guess_set(y, plan, src), rows)
    assert (_rank_list.hits, _rank_list.misses) == (built[0] + 1, built[1])
    # the budget is part of the key and a raise is never cached: a lower
    # budget raises as if nothing were cached, every time
    count = rows.shape[0]
    _, per_depth = _dfs_guess_list(y, plan, src, DEFAULT_SEARCH_BUDGET)
    crossed = next(t for t in itertools.accumulate(per_depth) if t > count // 2)
    depth = next(i for i, t in enumerate(itertools.accumulate(per_depth)) if t > count // 2)
    monkeypatch.setenv("OMSKA_BUDGET", str(count // 2))
    for _ in range(2):
        with pytest.raises(BudgetExceededError) as exc:
            guess_set(y, plan, src)
        assert (exc.value.count, exc.value.budget) == (crossed, count // 2)
        assert str(exc.value) == f"list search exceeded budget {count // 2} at depth {depth}"


def test_rank_list_over_the_byte_cap_is_not_pinned(monkeypatch):
    assert _rank_list.max_bytes == _RANK_CACHE_BYTES == 64 << 20
    src = _symmetric_ternary_source()
    y = np.array([1, 0, 2, 2, 1])
    plan = _hand_plan(5, 8.5, 0, 0)
    want, _ = _dfs_guess_list(y, plan, src, DEFAULT_SEARCH_BUDGET)
    # one int64 entry a deviation, as wide as the row with the most
    nbytes = 8 * want.shape[0] * _deviations(want).max()
    monkeypatch.setattr(_rank_list, "max_bytes", nbytes - 1)
    _rank_list.clear()
    misses = _rank_list.misses
    for _ in range(3):
        rows = guess_set(y, plan, src)
        assert np.array_equal(rows, want) and rows.flags.writeable
    assert _rank_list.misses == misses + 3 and not _rank_list.tables
    assert _rank_list.nbytes == 0
    monkeypatch.setattr(_rank_list, "max_bytes", nbytes)
    guess_set(y, plan, src)
    assert len(_rank_list.tables) == 1 and _rank_list.nbytes == nbytes
    _rank_list.clear()


def test_rank_cache_evicts_least_recent_within_its_bytes(monkeypatch):
    # the byte cap is a total: pinning a table evicts the least recently used
    # ones until every pinned table fits
    src = _symmetric_ternary_source()
    plan = _hand_plan(5, 8.5, 0, 0)
    ys = [np.array(y) for y in ([1, 0, 2, 2, 1], [0, 0, 0, 0, 0, 0], [2, 1, 0, 1], [1, 1])]
    _rank_list.clear()
    sizes = []
    for y in ys:
        guess_set(y, plan, src)
        sizes.append(_rank_list.nbytes - sum(sizes))
    assert min(sizes) > 0 and _rank_list.nbytes == sum(sizes)
    keys = list(_rank_list.tables)
    _rank_list.clear()
    for y in ys[:3] + ys[:1]:  # the first table becomes the most recent
        guess_set(y, plan, src)
    assert list(_rank_list.tables) == [keys[1], keys[2], keys[0]]
    monkeypatch.setattr(_rank_list, "max_bytes", sizes[0] + sizes[2] + sizes[3])
    guess_set(ys[3], plan, src)  # evicts the second table only
    assert list(_rank_list.tables) == [keys[2], keys[0], keys[3]]
    assert _rank_list.nbytes == sizes[0] + sizes[2] + sizes[3]
    _rank_list.clear()


def test_long_desk_table_stays_pinned():
    # the n = 64 desk plan's table (679,121 rows, 4 deviations, about 21 MiB)
    # fits the byte cap: it is built on the first session only, and shared by
    # every y, since a cascade's two cost columns are equal
    plan = plan_desk_exact(CHAIN, 64, 0.05, 0.05)
    res = run_session(CHAIN, plan, rng_seed=5)
    misses = _rank_list.misses
    for seed in (6, 7):
        again = run_session(CHAIN, plan, rng_seed=seed)
        assert again.outcome == "agreed" and np.array_equal(again.decoded, again.x)
    assert _rank_list.misses == misses and res.outcome in ("agreed", "aborted")
    table, _ = _level_list(np.ones(64, dtype=np.int64), plan, CHAIN, DEFAULT_SEARCH_BUDGET)
    assert table.shape == (plan.list_size, 4) == (679121, 4)
    assert _rank_list.misses == misses


def test_radius_edge_cases():
    # noiseless forward channel: just the exact copy
    clean = bsc_chain(0.0, 0.15)
    y = np.array([1, 0, 1, 1])
    rows = guess_set(y, _hand_plan(4, 0.5, 0, 0), clean)
    assert rows.shape == (1, 4) and np.array_equal(rows[0], y)

    # independent y: every block costs exactly n bits
    noisy = bsc_chain(0.5, 0.15)
    rows = guess_set(y, _hand_plan(4, 4.0, 0, 0), noisy)
    assert rows.shape == (16, 4)
    assert guess_set(y, _hand_plan(4, 3.9, 0, 0), noisy).shape == (0, 4)

    # threshold below even the zero-flip cost: empty list
    rows = guess_set(np.zeros(8, dtype=int), _hand_plan(8, 0.1, 0, 0), CHAIN)
    assert rows.shape == (0, 8)


def test_cascade_radius_tolerance_is_in_bits():
    # step = log2((1-p)/p) is ~3e-16 bits here: a tolerance in flips admits no
    # flip, one in bits admits the flipped block as the depth-first list does
    p = 0.49999999999999994
    src = bsc_chain(p, 0.1)
    y = np.array([0])
    p_xy = src.p_xy()
    plan = _hand_plan(1, -math.log2(p_xy[:, 0].max() / p_xy[:, 0].sum()), 0, 0)
    want, _ = _dfs_guess_list(y, plan, src, DEFAULT_SEARCH_BUDGET)
    assert want.shape == (2, 1)
    assert np.array_equal(guess_set(y, plan, src), want)


def test_budget_environment(monkeypatch):
    assert search_budget() == DEFAULT_SEARCH_BUDGET == 10 ** 8
    monkeypatch.setenv("OMSKA_BUDGET", "2.5e3")
    assert search_budget() == 2500
    monkeypatch.setenv("OMSKA_BUDGET", "abc")
    for _ in range(2):  # a bad value raises on every read, not only the first
        with pytest.raises(ValueError, match="OMSKA_BUDGET"):
            search_budget()
    monkeypatch.setenv("OMSKA_BUDGET", "0")
    with pytest.raises(ValueError, match="positive"):
        search_budget()
    # infinite budgets are refused as bad values, not as arithmetic failures,
    # and a budget that rounds down to 0 is quoted as given
    for raw, why in (("inf", "finite"), ("1e400", "finite"), ("0.5", "positive")):
        monkeypatch.setenv("OMSKA_BUDGET", raw)
        with pytest.raises(ValueError, match=f"OMSKA_BUDGET must be .*{why}.*got '{raw}'"):
            search_budget()
        assert cli.main(["run", "--bsc", "0.02,0.15", "--n", "8", "--mode", "desk_exact",
                         "--trials", "1"]) == 2
    # a value read before takes effect again when the variable returns to it
    monkeypatch.setenv("OMSKA_BUDGET", "2.5e3")
    assert search_budget() == 2500
    monkeypatch.delenv("OMSKA_BUDGET")
    assert search_budget() == DEFAULT_SEARCH_BUDGET


def test_budget_caps_all_search_paths(monkeypatch):
    monkeypatch.setenv("OMSKA_BUDGET", "10")
    plan = plan_desk_exact(CHAIN, 8, 0.005, 0.05)  # 37 candidates > 10
    y = np.array([1, 0, 0, 1, 1, 1, 0, 1])
    # a cascade overrun reports the running node total, as any source does
    _, per_depth = _dfs_guess_list(y, plan, CHAIN, DEFAULT_SEARCH_BUDGET)
    depth, crossed = next((i, total) for i, total in enumerate(itertools.accumulate(per_depth))
                          if total > 10)
    with pytest.raises(BudgetExceededError) as listed:
        guess_set(y, plan, CHAIN)
    with pytest.raises(BudgetExceededError) as decoded:
        bob_decode(y, BitString(0, plan.recon_bits), BitString(1, 8), plan, _ctx8(), CHAIN)
    for exc in (listed.value, decoded.value):
        assert (exc.count, exc.budget) == (crossed, 10)
        assert str(exc) == f"list search exceeded budget 10 at depth {depth}"
    with pytest.raises(BudgetExceededError) as searched:
        guess_set(np.array([0, 1, 0, 0, 1]), _hand_plan(5, 7.0, 0, 0),
                  _ternary_source())
    assert searched.value.budget == 10 and searched.value.count > 10
    # the numbers survive the trip back from a worker process
    back = pickle.loads(pickle.dumps(listed.value))
    assert (str(back), back.count, back.budget) == (str(listed.value), crossed, 10)


@settings(max_examples=200, deadline=None)
@given(data=st.data())
def test_levelwise_list_matches_depth_first_oracle(data):
    src = _random_source(data)
    n = data.draw(st.integers(1, 8), label="n")
    y = _observed(data, src, n)
    plan = _hand_plan(n, _threshold(data, src, y), 0, 0)
    budget = data.draw(st.one_of(st.integers(1, 400), st.just(DEFAULT_SEARCH_BUDGET)),
                       label="budget")
    try:
        want, per_depth = _dfs_guess_list(y, plan, src, 20000)
    except BudgetExceededError:
        # too large to enumerate here: both searches must still stop
        with pytest.raises(BudgetExceededError):
            _general_list(y, plan, src, min(budget, 20000))
        return
    crossed = [total for total in itertools.accumulate(per_depth) if total > budget]
    oracle_raised = False
    try:
        _dfs_guess_list(y, plan, src, budget)
    except BudgetExceededError:
        oracle_raised = True
    assert oracle_raised == bool(crossed)
    if crossed:
        with pytest.raises(BudgetExceededError) as exc:
            _general_list(y, plan, src, budget)
        # the running node total at the level that crossed the budget
        assert (exc.value.count, exc.value.budget) == (crossed[0], budget)
    else:
        got = _general_list(y, plan, src, budget)
        assert got.dtype == np.int64 and got.shape == want.shape
        assert np.array_equal(got, want)


@settings(max_examples=200, deadline=None)
@given(data=st.data())
def test_scan_decode_matches_literal_hash_oracle(data):
    if data.draw(st.booleans(), label="cascade"):
        src = bsc_chain(data.draw(st.floats(0.0, 0.5), label="p"), 0.1)
    else:
        src = _random_source(data)
    n = data.draw(st.integers(1, 8), label="n")
    ctx = field_for_source(n, src.alphabet_sizes[0])
    y = _observed(data, src, n)
    t = data.draw(st.integers(0, ctx.bits), label="t")
    plan = _hand_plan(n, _threshold(data, src, y), t, 0)
    seed = BitString(data.draw(st.integers(0, (1 << ctx.bits) - 1), label="seed"), ctx.bits)
    rows = guess_set(y, plan, src)
    if rows.shape[0] and data.draw(st.booleans(), label="check of a listed block"):
        x = rows[data.draw(st.integers(0, rows.shape[0] - 1), label="row")]
        check = uhf_hash(encode_symbols(x, src.alphabet_sizes[0]), seed, plan.recon_bits, ctx)
    else:
        check = BitString(data.draw(st.integers(0, (1 << t) - 1), label="check"), t)
    _same_decode(bob_decode(y, check, seed, plan, ctx, src),
                 _literal_decode(y, check, seed, plan, ctx, src))


def test_scan_decode_above_64_bits():
    # ternary n = 40 needs an 80-bit field: the table hash runs on Python ints
    src = _ternary_source()
    n = 40
    ctx = field_for_source(n, 3)
    assert ctx.bits == 80
    rng = np.random.default_rng(8)
    y = rng.integers(0, 2, n)
    plan = _hand_plan(n, 32.0, 24, 0)
    rows = guess_set(y, plan, src)
    assert rows.shape == (41, n)
    for k in range(4):
        seed = BitString(int(rng.integers(0, 1 << 62)) << 18 | k, ctx.bits)
        check = uhf_hash(encode_symbols(rows[k], 3), seed, plan.recon_bits, ctx)
        got = bob_decode(y, check, seed, plan, ctx, src)
        want = _literal_decode(y, check, seed, plan, ctx, src)
        assert got[0] == want[0] == "ok"
        assert np.array_equal(got[1], want[1]) and np.array_equal(got[1], rows[k])


def test_ball_decode_above_64_bits():
    # the cascade's list, its Hamming ball, past 64 bits: the symbol table
    # holds Python ints
    rng = np.random.default_rng(65)
    for n in (65, 80):
        ctx = field_for_source(n, 2)
        y = rng.integers(0, 2, n)
        base, step = n * -math.log2(0.98), math.log2(0.98 / 0.02)
        plan = _hand_plan(n, base + 2.5 * step, 30, 0)  # radius 2
        rows = guess_set(y, plan, CHAIN)
        assert rows.shape == (hamming_ball_size(n, 2), n)
        for k in (0, 1, n + 3, rows.shape[0] - 1, None):
            seed = BitString(int.from_bytes(rng.bytes(10), "big") >> (80 - n), n)
            if k is None:  # a random check value
                check = BitString(int(rng.integers(0, 1 << 30)), 30)
            else:
                check = uhf_hash(encode_symbols(rows[k], 2), seed, plan.recon_bits, ctx)
            got = bob_decode(y, check, seed, plan, ctx, CHAIN)
            _same_decode(got, _literal_decode(y, check, seed, plan, ctx, CHAIN))
            if k is not None:
                assert got[0] == "ok" and np.array_equal(got[1], rows[k])


def test_one_block_and_empty_lists_match_literal_oracle():
    # a one-block list is a zero-width deviation table, the center alone; an
    # empty list has no rows.  Both in an 80-bit ternary field (Python ints)
    # and in a 65-bit cascade.
    rng = np.random.default_rng(81)
    for src, n in ((_ternary_source(), 40), (CHAIN, 65)):
        ctx = field_for_source(n, src.alphabet_sizes[0])
        assert ctx.bits in (80, 65)
        y = rng.integers(0, 2, n)
        p_xy = src.p_xy()
        cheapest = sum(-math.log2(p_xy[:, v].max() / p_xy[:, v].sum()) for v in y)
        for slack, count in ((0.1, 1), (-0.1, 0)):
            plan = _hand_plan(n, cheapest + slack, 20, 0)
            rows = guess_set(y, plan, src)
            assert rows.shape == (count, n)
            assert _level_list(y, plan, src, DEFAULT_SEARCH_BUDGET)[0].shape == (count, 0)
            for k in range(3):
                seed = BitString(int.from_bytes(rng.bytes(10), "big") >> (80 - ctx.bits),
                                 ctx.bits)
                if count and k < 2:
                    check = uhf_hash(encode_symbols(rows[0], src.alphabet_sizes[0]), seed,
                                     plan.recon_bits, ctx)
                else:
                    check = BitString(int(rng.integers(0, 1 << 20)), 20)
                want = _literal_decode(y, check, seed, plan, ctx, src)
                if count and k < 2:
                    assert want[0] == "ok"
                _same_decode(bob_decode(y, check, seed, plan, ctx, src), want)


def test_general_budget_stops_before_the_crossing_level(monkeypatch):
    # every ternary block fits the threshold: the list would hold 3^40 rows
    monkeypatch.setenv("OMSKA_BUDGET", "10")
    src = _ternary_source()
    y = np.zeros(40, dtype=np.int64)
    plan = _hand_plan(40, 1e6, 0, 0)
    tracemalloc.start()
    try:
        with pytest.raises(BudgetExceededError) as exc:
            guess_set(y, plan, src)
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    # levels of 3 and 9 nodes: the second takes the total to 12 > 10, and
    # the search stops there without building it or any later level
    assert (exc.value.count, exc.value.budget) == (12, 10)
    assert str(exc.value) == "list search exceeded budget 10 at depth 1"
    assert peak < 64 * 1024


def _ctx8():
    return field_for_source(8, 2)


def test_cascade_table_cached_and_capped_by_budget(monkeypatch):
    plan = plan_desk_exact(CHAIN, 8, 0.005, 0.05)  # radius 2, 37 candidates
    y = np.array([1, 0, 0, 1, 1, 1, 0, 1])
    check = uhf_hash(encode_symbols(y, 2), BitString(1, 8), plan.recon_bits, _ctx8())

    def decode(block):
        return bob_decode(block, check, BitString(1, 8), plan, _ctx8(), CHAIN)

    assert guess_set(y, plan, CHAIN).shape == (37, 8)  # builds or reuses the table
    hits, misses = _rank_list.hits, _rank_list.misses
    status, block = decode(y)
    assert status == "ok" and np.array_equal(block, y)
    # both cost columns of a cascade are equal, so any y shares the table
    assert decode(1 - y)[0] in ("ok", "abort")
    assert (_rank_list.hits, _rank_list.misses) == (hits + 2, misses)
    # a cached table is no way round the budget: it is part of the key, and
    # the search stops at the level that crosses it
    monkeypatch.setenv("OMSKA_BUDGET", "10")
    pinned = list(_rank_list.tables)
    for call in (lambda: guess_set(y, plan, CHAIN), lambda: decode(y)):
        with pytest.raises(BudgetExceededError) as exc:
            call()
        assert exc.value.budget == 10 and exc.value.count > 10
    assert list(_rank_list.tables) == pinned


def test_cascade_table_matches_desk_plan():
    # the planner counts the cascade's list by a binomial scan, the builder
    # lists it: for every desk plan up to n = 64 the table has list_size rows,
    # none with more than ball_radius deviations (flips), and y = 0 and y = 1
    # share it
    for n in range(1, 65):
        plan = plan_desk_exact(CHAIN, n, 0.05, 0.05)
        table, ranked = _level_list(np.zeros(n, dtype=np.int64), plan, CHAIN,
                                    DEFAULT_SEARCH_BUDGET)
        assert table.shape[0] == plan.list_size, n
        assert table.shape[1] == plan.ball_radius, n
        assert (table < n).sum(axis=1).max() == plan.ball_radius, n
        assert ranked.tolist() == [[0, 1]] * n
        flipped, _ = _level_list(np.ones(n, dtype=np.int64), plan, CHAIN, DEFAULT_SEARCH_BUDGET)
        assert flipped is table, n
    assert _rank_list.nbytes <= _rank_list.max_bytes


@settings(max_examples=60, deadline=None)
@given(data=st.data())
def test_ball_decode_matches_scan_property(data):
    # a cascade's Hamming ball through the one decoder, against the literal
    # oracle
    n = data.draw(st.integers(1, 10), label="n")
    src = bsc_chain(data.draw(st.floats(0.0, 0.5), label="p"),
                    data.draw(st.floats(0.0, 0.5), label="q"))
    t = data.draw(st.integers(0, n), label="t")
    plan = _hand_plan(n, data.draw(st.floats(0.0, 2.0 * n), label="lam"), t, 0)
    ctx = field_for_source(n, 2)
    y = np.array(data.draw(st.lists(st.integers(0, 1), min_size=n, max_size=n)),
                 dtype=np.int64)
    seed = BitString(data.draw(st.integers(0, (1 << n) - 1), label="seed"), n)
    if data.draw(st.booleans(), label="check of a nearby block"):
        x = y.copy()
        x[data.draw(st.lists(st.integers(0, n - 1), max_size=3), label="flips")] ^= 1
        check = uhf_hash(encode_symbols(x, 2), seed, plan.recon_bits, ctx)
    else:
        check = BitString(data.draw(st.integers(0, (1 << t) - 1), label="check"), t)
    _same_decode(bob_decode(y, check, seed, plan, ctx, src),
                 _literal_decode(y, check, seed, plan, ctx, src))


def test_tampered_check_value_rejects_truth():
    plan = plan_desk_exact(CHAIN, 32, 0.05, 0.05)
    ctx = field_for_source(32, 2)
    aborts = 0
    tested = 0
    for seed in range(10):
        res = run_session(CHAIN, plan, rng_seed=seed)
        if res.outcome != "agreed":
            continue
        tested += 1
        good = res.transcript.check_value
        bad = BitString(good.value ^ (1 << (good.length - 1)), good.length)
        status, decoded = bob_decode(res.y, bad, res.transcript.recon_seed, plan,
                                     ctx, CHAIN)
        # the true block can never match a corrupted check value
        if status == "abort":
            aborts += 1
        else:
            assert not np.array_equal(decoded, res.x)
    assert tested >= 8
    assert aborts >= tested - 1


def test_mismatch_outcome_reachable():
    # zero check bits and a radius-0 list force Bob to accept y itself,
    # so a noisy channel yields key mismatches that the check cannot catch
    src = bsc_chain(0.3, 0.15)
    plan = _hand_plan(8, 4.2, 0, 2)
    outcomes = {run_session(src, plan, rng_seed=s).outcome for s in range(40)}
    assert "mismatched" in outcomes
    assert "agreed" in outcomes
    assert "aborted" not in outcomes
    res = run_session(src, plan, rng_seed=0)
    assert np.array_equal(res.decoded, res.y)


def test_run_session_rejects_oversized_hashes():
    with pytest.raises(ValueError, match="field"):
        run_session(CHAIN, _hand_plan(8, 4.0, 9, 0), rng_seed=0)
    with pytest.raises(ValueError, match="field"):
        run_session(CHAIN, _hand_plan(8, 4.0, 0, 9), rng_seed=0)


def test_decode_guards():
    plan = plan_desk_exact(CHAIN, 8, 0.05, 0.05)
    ctx = _ctx8()
    y = np.zeros(8, dtype=int)
    seed = BitString(1, 8)
    with pytest.raises(ValueError, match="check value"):
        bob_decode(y, BitString(0, plan.recon_bits + 1), seed, plan, ctx, CHAIN)
    src3 = _ternary_source()
    ctx3 = field_for_source(5, 3)
    # the guards run before the decoder, on a cascade and on a binary
    # non-cascade source alike
    lopsided = CHAIN.pmf.copy()
    lopsided[0, 0, 0] += 0.01
    lopsided[1, 1, 1] -= 0.01
    lopsided = JointSource((2, 2, 2), lopsided)
    assert detect_bsc_chain(lopsided) is None
    for bad in ([0, 1, 2, 0, 0, 0, 0, 0], [0, -1, 0, 0, 0, 0, 0, 0], [[0] * 8]):
        for source in (CHAIN, lopsided):
            with pytest.raises(ValueError, match="symbols below 2"):
                bob_decode(np.array(bad), BitString(0, plan.recon_bits), seed, plan, ctx,
                           source)
    # a check longer than the field is refused before any shift by a negative count
    for source, field, n in ((src3, ctx3, 5), (CHAIN, ctx, 8)):
        t = field.bits + 1
        with pytest.raises(ValueError, match="does not fit"):
            bob_decode(np.zeros(n, dtype=int), BitString(0, t), BitString(1, field.bits),
                       _hand_plan(n, 7.0, t, 0), field, source)


def test_decode_validates_y_once(monkeypatch):
    # bob_decode validates y once, on a cascade and on any other source
    from omska import protocol
    calls = []
    received = protocol._received

    def counted(y, src):
        calls.append(1)
        return received(y, src)

    monkeypatch.setattr(protocol, "_received", counted)
    lopsided = CHAIN.pmf.copy()
    lopsided[0, 0, 0] += 0.01
    lopsided[1, 1, 1] -= 0.01
    lopsided = JointSource((2, 2, 2), lopsided)
    plan = plan_desk_exact(CHAIN, 8, 0.05, 0.05)
    for source in (CHAIN, lopsided):
        calls.clear()
        status, _ = bob_decode([0] * 8, BitString(0, plan.recon_bits), BitString(1, 8),
                               plan, _ctx8(), source)
        assert status in ("ok", "abort") and len(calls) == 1


def test_hash_rejects_a_short_block():
    # a session hashes the encoded block as it is: 7 symbols do not fill n = 8
    with pytest.raises(ValueError, match="8-bit field elements"):
        uhf_hash(encode_symbols(np.zeros(7, dtype=int), 2), BitString(1, 8), 4, _ctx8())
