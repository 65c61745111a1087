"""Seeded multiplicative hashing over GF(2^m): field table, algebra, hashing."""

import builtins

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from omska.uhash import (MAX_FIELD_BITS, REDUCTION_POLYS, BitString, GFContext,
                         SeedHasher, _first_irreducible, encode_symbols,
                         field_for_source, fresh_seed, gf_mul, hash as uhf_hash,
                         is_irreducible, symbol_width)
from omska.verifier import uhf_collision_census


def test_reduction_polys_all_irreducible():
    for bits, poly in REDUCTION_POLYS.items():
        assert poly.bit_length() == bits + 1, f"degree mismatch at {bits}"
        assert is_irreducible(poly), f"table entry for {bits} bits is reducible"


def test_reduction_polys_are_first_in_order_small():
    # brute-force the first-in-integer-order property for small degrees
    for bits in range(1, 12):
        poly = REDUCTION_POLYS[bits]
        for cand in range((1 << bits) + 1, poly, 2):
            assert not is_irreducible(cand), \
                f"{cand:#x} is irreducible and smaller than table entry {poly:#x}"


def test_degree_eight_field_worked_examples():
    # the 8-bit entry is the familiar byte field; two classic products
    assert REDUCTION_POLYS[8] == 0x11B
    ctx = GFContext.for_bits(8)
    assert gf_mul(0x53, 0xCA, ctx) == 0x01
    assert gf_mul(0x57, 0x83, ctx) == 0xC1


def test_first_irreducible_fallback():
    # degree 17 is not in the table; the search must land on 0x20009
    assert 17 not in REDUCTION_POLYS
    assert _first_irreducible(17) == 0x20009
    for cand in (0x20001, 0x20003, 0x20005, 0x20007):
        assert not is_irreducible(cand)
    assert GFContext.for_bits(17).poly == 0x20009


def test_rabin_rejects_composites():
    assert not is_irreducible(0x6)    # divisible by x
    assert not is_irreducible(0x5)    # (x+1)^2
    assert not is_irreducible(0x15)   # (x^2+x+1)^2
    ctx = None
    # product of two irreducibles of degree 3 is reducible of degree 6
    a, b = 0xB, 0xD
    prod = 0
    aa = a
    bb = b
    while bb:
        if bb & 1:
            prod ^= aa
        aa <<= 1
        bb >>= 1
    assert not is_irreducible(prod)
    del ctx


def test_symbol_width():
    assert symbol_width(2) == 1
    assert symbol_width(3) == 2
    assert symbol_width(4) == 2
    assert symbol_width(5) == 3
    assert symbol_width(256) == 8
    with pytest.raises(ValueError):
        symbol_width(1)


def test_field_for_source():
    assert field_for_source(32, 2).bits == 32
    assert field_for_source(3, 5).bits == 9
    assert field_for_source(3, 5).poly == REDUCTION_POLYS[9]
    with pytest.raises(ValueError):
        field_for_source(MAX_FIELD_BITS + 1, 2)


def test_encode_big_endian_pinned():
    # first symbol occupies the most significant bits
    assert encode_symbols(np.array([1, 0, 0, 0]), 2).value == 0b1000
    assert encode_symbols(np.array([1, 0, 0, 0]), 2).length == 4
    assert encode_symbols(np.array([2, 1]), 3).value == 0b1001
    assert encode_symbols(np.array([2, 1]), 3).length == 4


def test_encode_decode_roundtrip():
    # unpacking the fixed-width fields recovers the block, so distinct blocks
    # encode to distinct values
    rng = np.random.default_rng(11)
    for size in (2, 3, 5, 17):
        width = symbol_width(size)
        for n in (1, 7, 30):
            blocks = {tuple(rng.integers(0, size, size=n).tolist()) for _ in range(40)}
            values = set()
            for block in blocks:
                bs = encode_symbols(np.array(block), size)
                assert bs.length == n * width
                back = tuple((bs.value >> ((n - 1 - i) * width)) & ((1 << width) - 1)
                             for i in range(n))
                assert back == block
                values.add(bs.value)
            assert len(values) == len(blocks)


def test_encode_rejects_out_of_range():
    with pytest.raises(ValueError):
        encode_symbols(np.array([0, 3]), 3)
    with pytest.raises(ValueError):
        encode_symbols(np.array([-1, 0]), 2)


def test_bitstring_hex_roundtrip():
    for value, length in [(0, 0), (0, 5), (0b1011, 4), (0xDEAD, 16), (1, 9)]:
        bs = BitString(value, length)
        assert BitString.from_hex(bs.to_hex(), length) == bs
    assert BitString(0, 0).to_hex() == ""
    assert BitString(0xA, 4).to_hex() == "a"
    assert BitString(0xA, 7).to_hex() == "0a"


def test_bitstring_validation_and_xor():
    with pytest.raises(ValueError):
        BitString(4, 2)
    with pytest.raises(ValueError):
        BitString(-1, 4)
    with pytest.raises(ValueError):
        BitString(1, 0)
    a = BitString(0b1100, 4)
    b = BitString(0b1010, 4)
    assert (a ^ b).value == 0b0110
    with pytest.raises(ValueError):
        a ^ BitString(0, 3)


def test_bitstring_and_field_are_hashable():
    # the dataclasses' hashes must reach the builtin, not the module's hash()
    a, b = BitString(3, 4), BitString(3, 4)
    assert hash(a) == hash(b) == builtins.hash(b)
    assert {a, b, BitString(3, 5)} == {BitString(3, 4), BitString(3, 5)}
    assert {a: "x"}[b] == "x"
    f, g = GFContext.for_bits(8), GFContext(8, 0x11B)
    assert builtins.hash(f) == builtins.hash(g)
    assert {f, g, GFContext.for_bits(9)} == {g, GFContext.for_bits(9)}
    assert {f: 1}[g] == 1


def test_gf_mul_algebra():
    rng = np.random.default_rng(5)
    for bits in (5, 8, 13):
        ctx = GFContext.for_bits(bits)
        top = 1 << bits
        for _ in range(50):
            a, b, c = (int(v) for v in rng.integers(0, top, size=3))
            assert gf_mul(a, b, ctx) == gf_mul(b, a, ctx)
            assert gf_mul(gf_mul(a, b, ctx), c, ctx) == gf_mul(a, gf_mul(b, c, ctx), ctx)
            assert gf_mul(a, b ^ c, ctx) == gf_mul(a, b, ctx) ^ gf_mul(a, c, ctx)
            assert gf_mul(a, 1, ctx) == a
            assert gf_mul(a, 0, ctx) == 0


def test_hash_is_product_prefix():
    ctx = GFContext.for_bits(8)
    rng = np.random.default_rng(9)
    for _ in range(40):
        x = BitString(int(rng.integers(0, 256)), 8)
        s = BitString(int(rng.integers(0, 256)), 8)
        full = uhf_hash(x, s, 8, ctx)
        assert full.value == gf_mul(x.value, s.value, ctx)
        for t in range(0, 9):
            part = uhf_hash(x, s, t, ctx)
            assert part.length == t
            assert part.value == full.value >> (8 - t)


@settings(max_examples=200, deadline=None)
@given(data=st.data())
def test_hash_linearity(data):
    # for a fixed seed, hash(x1 ^ x2) = hash(x1) ^ hash(x2), in fields on
    # either side of 64 bits and at every output length
    m = data.draw(st.integers(1, 160), label="field bits")
    ctx = GFContext.for_bits(m)

    def element(label):
        return BitString(data.draw(st.integers(0, (1 << m) - 1), label=label), m)

    x1, x2, s = element("x1"), element("x2"), element("seed")
    t = data.draw(st.integers(0, m), label="t")
    assert uhf_hash(x1 ^ x2, s, t, ctx) == uhf_hash(x1, s, t, ctx) ^ uhf_hash(x2, s, t, ctx)


@settings(max_examples=80, deadline=None)
@given(data=st.data())
def test_two_universality_matches_census(data):
    # two distinct inputs collide under exactly 2^(m-t) of the 2^m seeds,
    # counted literally here and by the verifier's census
    m = data.draw(st.integers(1, 6), label="field bits")
    t = data.draw(st.integers(1, m), label="t")
    x1, x2 = data.draw(st.lists(st.integers(0, (1 << m) - 1), min_size=2, max_size=2,
                                unique=True), label="inputs")
    ctx = GFContext.for_bits(m)
    hits = sum(uhf_hash(BitString(x1, m), BitString(s, m), t, ctx)
               == uhf_hash(BitString(x2, m), BitString(s, m), t, ctx) for s in range(1 << m))
    census = uhf_collision_census(ctx, t)
    assert hits == census[x1, x2] == census[x2, x1] == 1 << (m - t)
    assert census[x1, x1] == 1 << m


def test_zero_seed_hashes_to_zero():
    ctx = GFContext.for_bits(6)
    zero = BitString(0, 6)
    for x in range(1 << 6):
        assert uhf_hash(BitString(x, 6), zero, 4, ctx).value == 0


def test_hash_guards():
    ctx = GFContext.for_bits(8)
    x = BitString(3, 8)
    s = BitString(5, 8)
    assert uhf_hash(x, s, 0, ctx).length == 0
    with pytest.raises(ValueError):
        uhf_hash(x, s, 9, ctx)
    with pytest.raises(ValueError):
        uhf_hash(BitString(1, 4), s, 2, ctx)


def test_zero_bit_hash_skips_the_multiply(monkeypatch):
    # a 0-bit hash is the empty string whatever the product, so no field
    # multiply is made; the argument checks still run first
    from omska import uhash

    def refuse(*args):
        raise AssertionError("field multiply for a 0-bit hash")

    monkeypatch.setattr(uhash, "gf_mul", refuse)
    for m in (8, 32, 80):
        ctx = GFContext.for_bits(m)
        x, s = BitString((1 << m) - 3, m), BitString(5, m)
        assert uhf_hash(x, s, 0, ctx) == BitString(0, 0)
        with pytest.raises(ValueError, match="field elements"):
            uhf_hash(BitString(1, m - 1), s, 0, ctx)
        with pytest.raises(ValueError, match="field elements"):
            uhf_hash(x, BitString(1, m + 1), 0, ctx)
        with pytest.raises(ValueError, match="outside"):
            uhf_hash(x, s, -1, ctx)


def test_collision_census_literal_small_field():
    # every pair of distinct inputs collides under exactly 2^(m-t) seeds
    m = 4
    ctx = GFContext.for_bits(m)
    size = 1 << m
    for t in (1, 2, 3, 4):
        for x1 in range(size):
            for x2 in range(x1 + 1, size):
                hits = 0
                for s in range(size):
                    seed = BitString(s, m)
                    h1 = uhf_hash(BitString(x1, m), seed, t, ctx)
                    h2 = uhf_hash(BitString(x2, m), seed, t, ctx)
                    hits += h1 == h2
                assert hits == 1 << (m - t), (t, x1, x2)


def test_seed_hasher_matches_scalar_path():
    # the xtime chain's basis row i is x^i (.) seed
    rng = np.random.default_rng(33)
    for bits in (6, 8, 16, 33):
        ctx = GFContext.for_bits(bits)
        s = BitString(int(rng.integers(0, 1 << bits)), bits)
        hasher = SeedHasher(s, ctx)
        assert len(hasher.table) == bits
        for i in range(bits):
            assert hasher.table[i] == gf_mul(1 << i, s.value, ctx)


def test_seed_hasher_products():
    # binary, symbols 0 and 1 in every slot: the product of 1 is the basis
    # product of the slot, slot 0 the top bit, and of 0 is zero; and the fill
    # check
    ctx = GFContext.for_bits(16)
    s = BitString(0xBEEF, 16)
    prods = SeedHasher(s, ctx).products(np.tile([0, 1], (16, 1)), 2)
    assert prods.dtype == np.uint64 and prods.shape == (16, 2)
    for i in range(16):
        assert int(prods[i, 0]) == 0
        assert int(prods[i, 1]) == gf_mul(1 << (15 - i), s.value, ctx)
    with pytest.raises(ValueError, match="bits"):
        SeedHasher(s, ctx).products(np.zeros((8, 2), dtype=np.int64), 2)


@settings(max_examples=60, deadline=None)
@given(data=st.data())
def test_products_hash_by_linearity(data):
    # each entry is its symbol in its slot, for symbol arrays in any order
    # and with repeats, and XOR_i P[i, c_i] is the product of the encoded
    # block, for fields on either side of 64 bits (ternary n = 40 is an
    # 80-bit field)
    size = data.draw(st.integers(2, 5), label="|X|")
    n = data.draw(st.one_of(st.integers(1, 12), st.just(40)), label="n")
    k = data.draw(st.integers(1, 2 * size), label="symbols a slot")
    ctx = field_for_source(n, size)
    s = BitString(data.draw(st.integers(0, (1 << ctx.bits) - 1), label="seed"), ctx.bits)
    symbols = np.array(data.draw(st.lists(st.lists(st.integers(0, size - 1), min_size=k,
                                                   max_size=k), min_size=n, max_size=n),
                                 label="symbols"))
    prods = SeedHasher(s, ctx).products(symbols, size)
    assert prods.shape == (n, k)
    assert prods.dtype == (np.uint64 if ctx.bits <= 64 else object)
    width = symbol_width(size)
    for i in range(n):
        for r in range(k):
            slot = int(symbols[i, r]) << (n - 1 - i) * width
            assert int(prods[i, r]) == gf_mul(slot, s.value, ctx), (i, r)
    for _ in range(4):
        c = np.array(data.draw(st.lists(st.integers(0, k - 1), min_size=n, max_size=n),
                               label="block"))
        block = symbols[np.arange(n), c]
        prod = np.bitwise_xor.reduce(prods[np.arange(n), c])
        assert int(prod) == gf_mul(encode_symbols(block, size).value, s.value, ctx)


def test_fresh_seed_deterministic():
    ctx = GFContext.for_bits(48)
    a = fresh_seed(ctx, 123)
    b = fresh_seed(ctx, 123)
    assert a == b
    assert a.length == 48
    rng = np.random.default_rng(4)
    c = fresh_seed(ctx, rng)
    d = fresh_seed(ctx, rng)
    assert c != d  # generator advances
