"""Two-universal hashing by multiplication in GF(2^m).

Conventions, fixed bit-exactly:

* Bit strings are (value, length) pairs; bit 0 of the value is the LEAST
  significant bit, and "the first k bits" always means the k MOST significant
  of the declared length.
* Symbol vectors encode big-endian per symbol with fixed width
  ceil(log2 |alphabet|): the first symbol lands in the most significant bits.
* The hash of x under seed s to t bits is the first t bits of the field
  product x (.) s.  The all-zero seed is a legal seed; including it keeps the
  colliding-seed count for any fixed pair x != x' at exactly 2^(m-t).
* Reduction polynomials are the lexicographically first irreducible
  polynomial of each degree.  A frozen table covers common degrees (the
  degree-8 entry 0x11b is the familiar x^8+x^4+x^3+x+1); other degrees fall
  back to a deterministic search with a Rabin irreducibility test, so the
  same m always yields the same field.
"""

from __future__ import annotations

import builtins
from dataclasses import dataclass
from functools import lru_cache

import numpy as np

MAX_FIELD_BITS = 4096

# First lexicographic irreducible polynomial over GF(2) per degree, found by
# the same deterministic search _first_irreducible performs, frozen here so
# common field sizes never pay for the search.
REDUCTION_POLYS = {
    1: 0x2,
    2: 0x7,
    3: 0xB,
    4: 0x13,
    5: 0x25,
    6: 0x43,
    7: 0x83,
    8: 0x11B,
    9: 0x203,
    10: 0x409,
    11: 0x805,
    12: 0x1009,
    13: 0x201B,
    14: 0x4021,
    15: 0x8003,
    16: 0x1002B,
    20: 0x100009,
    24: 0x100001B,
    32: 0x10000008D,
    48: 0x100000000002D,
    64: 0x1000000000000001B,
    128: 0x100000000000000000000000000000087,
    256: 0x10000000000000000000000000000000000000000000000000000000000000425,
}


@dataclass(frozen=True)
class BitString:
    """Immutable bit string: integer value plus an explicit bit length."""

    value: int
    length: int

    def __post_init__(self):
        if self.length < 0:
            raise ValueError(f"negative bit length: {self.length}")
        if not (0 <= self.value < (1 << self.length)):
            raise ValueError(f"value {self.value:#x} does not fit in {self.length} bits")

    def __hash__(self) -> int:
        # explicit: the generated __hash__ would look up `hash` in this
        # module's globals and find the public hash() defined below
        return builtins.hash((self.value, self.length))

    def to_hex(self) -> str:
        """Lowercase hex, ceil(length/4) digits; empty string for length 0."""
        digits = (self.length + 3) // 4
        return format(self.value, f"0{digits}x") if digits else ""

    @classmethod
    def from_hex(cls, hex_digits: str, length: int) -> "BitString":
        value = int(hex_digits, 16) if hex_digits else 0
        return cls(value, length)

    def __xor__(self, other: "BitString") -> "BitString":
        if self.length != other.length:
            raise ValueError("length mismatch in xor")
        return BitString(self.value ^ other.value, self.length)


# A seed is just an m-bit string; the alias names the role.
HashSeed = BitString


def _clmul(a: int, b: int) -> int:
    """Carryless (GF(2)[x]) product of two nonnegative ints."""
    r = 0
    while b:
        if b & 1:
            r ^= a
        a <<= 1
        b >>= 1
    return r


def _polymod(a: int, f: int) -> int:
    df = f.bit_length() - 1
    while a.bit_length() - 1 >= df:
        a ^= f << (a.bit_length() - 1 - df)
    return a


def _mulmod(a: int, b: int, f: int) -> int:
    return _polymod(_clmul(a, b), f)


def _gcd_poly(u: int, v: int) -> int:
    while v:
        u, v = v, _polymod(u, v)
    return u


def is_irreducible(f: int) -> bool:
    """Rabin irreducibility test for a GF(2) polynomial given as a bit mask."""
    m = f.bit_length() - 1
    if m <= 0:
        return False
    h = 2  # the polynomial 'x'
    for _ in range(m):
        h = _mulmod(h, h, f)
    # compare residues: for degree-1 moduli 'x' itself reduces
    if h != _polymod(2, f):
        return False
    rem, prime_divisors = m, []
    d = 2
    while d * d <= rem:
        if rem % d == 0:
            prime_divisors.append(d)
            while rem % d == 0:
                rem //= d
        d += 1
    if rem > 1:
        prime_divisors.append(rem)
    for pr in prime_divisors:
        h = 2
        for _ in range(m // pr):
            h = _mulmod(h, h, f)
        if _gcd_poly(f, h ^ 2) != 1:
            return False
    return True


@lru_cache(maxsize=None)
def _first_irreducible(m: int) -> int:
    """Deterministic fallback: smallest (as an integer) irreducible of degree m."""
    if m == 1:
        return 0b10
    base = 1 << m
    # constant term must be 1 for any irreducible of degree >= 2
    for low in range(1, 1 << m, 2):
        f = base | low
        if is_irreducible(f):
            return f
    raise AssertionError(f"no irreducible polynomial of degree {m} found")  # unreachable


@dataclass(frozen=True)
class GFContext:
    """Field GF(2^m) fixed by its reduction polynomial."""

    bits: int
    poly: int

    def __post_init__(self):
        if not (1 <= self.bits <= MAX_FIELD_BITS):
            raise ValueError(f"field size {self.bits} outside [1, {MAX_FIELD_BITS}]")
        if self.poly.bit_length() - 1 != self.bits:
            raise ValueError(f"reduction polynomial degree {self.poly.bit_length() - 1} != {self.bits}")

    def __hash__(self) -> int:
        return builtins.hash((self.bits, self.poly))  # see BitString.__hash__

    @classmethod
    def for_bits(cls, m: int) -> "GFContext":
        if not (1 <= m <= MAX_FIELD_BITS):
            raise ValueError(f"field size {m} outside [1, {MAX_FIELD_BITS}]")
        poly = REDUCTION_POLYS.get(m)
        if poly is None:
            poly = _first_irreducible(m)
        return cls(m, poly)


def symbol_width(alphabet_size: int) -> int:
    if alphabet_size < 2:
        raise ValueError(f"alphabet must have at least two symbols, got {alphabet_size}")
    return (alphabet_size - 1).bit_length()


def field_for_source(n: int, alphabet_size: int) -> GFContext:
    """Field sized to hold n symbols of the given alphabet: m = n * width."""
    if n < 1:
        raise ValueError(f"n must be positive, got {n}")
    return GFContext.for_bits(n * symbol_width(alphabet_size))


def encode_symbols(symbols, alphabet_size: int) -> BitString:
    """Pack a symbol vector into an m-bit string, fixed width per symbol,
    big-endian (first symbol in the most significant bits).  Injective for
    symbols below the alphabet size."""
    width = symbol_width(alphabet_size)
    value = 0
    count = 0
    for s in symbols:
        s = int(s)
        if not (0 <= s < alphabet_size):
            raise ValueError(f"symbol {s} outside alphabet of size {alphabet_size}")
        value = (value << width) | s
        count += 1
    return BitString(value, count * width)


def gf_mul(a: int, b: int, ctx: GFContext) -> int:
    """Product in GF(2^m): carryless multiply then reduce."""
    if not (0 <= a < (1 << ctx.bits) and 0 <= b < (1 << ctx.bits)):
        raise ValueError("operands must be field elements")
    return _polymod(_clmul(a, b), ctx.poly)


def hash(x: BitString, seed: HashSeed, out_bits: int, ctx: GFContext) -> BitString:  # noqa: A001 - interface name
    """First out_bits bits (most significant) of x (.) seed.

    out_bits = 0 returns the empty string; out_bits may not exceed m.
    Linear in x for fixed seed, and a two-universal family over uniform seeds.
    """
    if x.length != ctx.bits or seed.length != ctx.bits:
        raise ValueError(f"input and seed must be {ctx.bits}-bit field elements")
    if not (0 <= out_bits <= ctx.bits):
        raise ValueError(f"out_bits {out_bits} outside [0, {ctx.bits}]")
    if out_bits == 0:
        return BitString(0, 0)
    return BitString(gf_mul(x.value, seed.value, ctx) >> (ctx.bits - out_bits), out_bits)


def fresh_seed(ctx: GFContext, rng_seed: int | np.random.Generator) -> HashSeed:
    """Uniform seed over all 2^m field elements (zero included), deterministic
    given rng_seed."""
    rng = rng_seed if isinstance(rng_seed, np.random.Generator) else np.random.default_rng(rng_seed)
    value = 0
    remaining = ctx.bits
    while remaining > 0:
        chunk = min(remaining, 32)
        value = (value << chunk) | int(rng.integers(0, 1 << chunk))
        remaining -= chunk
    return BitString(value, ctx.bits)


class SeedHasher:
    """Precomputed basis table for one seed: hashing is then a handful of XORs.

    R[i] = (x^i) (.) seed, built by an xtime chain, so the product of any
    input is the XOR of R over its set bits.  Used by the decoder (products:
    each slot's listed symbols in their top 64 bits under one seed) and by
    the secrecy audit's tables, which are linear in the seed.
    """

    def __init__(self, seed: HashSeed, ctx: GFContext):
        if seed.length != ctx.bits:
            raise ValueError(f"seed must be a {ctx.bits}-bit field element")
        self.ctx = ctx
        table = []
        cur = seed.value
        for _ in range(ctx.bits):
            table.append(cur)
            cur <<= 1
            if cur >> ctx.bits:
                cur ^= ctx.poly  # degree-m overflow: one reduction step
        self.table = table

    def products(self, symbols: np.ndarray, alphabet_size: int) -> np.ndarray:
        """P[i, r] = (symbol symbols[i, r] in slot i) (.) seed in its top min(m, 64)
        bits, as uint64, for an (n, k) symbol array in any order: the XOR of
        R[(n-1-i)*w + b] >> max(0, m - 64) over the set bits b of the symbol, so
        a block's product is the XOR of its slots' (a shift commutes with XOR)."""
        width = symbol_width(alphabet_size)
        if len(symbols) * width != self.ctx.bits:
            raise ValueError(f"{len(symbols)} symbols of width {width} do not fill "
                             f"{self.ctx.bits} bits")
        shift = max(0, self.ctx.bits - 64)
        basis = np.array([row >> shift for row in self.table] if shift else self.table, np.uint64)
        basis = basis.reshape(-1, width)[::-1, None, :]  # [slot i, -, bit b]
        bits = (symbols[:, :, None] >> np.arange(width)) & 1 == 1
        return np.bitwise_xor.reduce(np.where(bits, basis, np.uint64(0)), axis=2)


def subset_xors(rows: np.ndarray) -> np.ndarray:
    """out[a] = XOR of rows[j] over the set bits j of a, for every a < 2^len(rows),
    by subset doubling: the a with top bit j take the XORs below 2^j XOR
    rows[j].  Any trailing axes and integer dtype; out has rows' dtype."""
    out = np.zeros((1 << len(rows), *rows.shape[1:]), dtype=rows.dtype)
    for j, row in enumerate(rows):
        out[1 << j:2 << j] = out[:1 << j] ^ row
    return out
