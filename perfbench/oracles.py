"""Reference computations the benchmark checks omska against.

Nothing here imports omska.  Each routine restates the mathematics from its
definition, by a different route than the package takes where one exists:

* field multiply: Horner's rule with one reduction per step (the package
  multiplies carrylessly first and reduces afterwards);
* reduction polynomial: a search of its own for the first irreducible
  polynomial of each degree, by the Rabin test;
* guess list: a breadth-first sweep over whole candidate blocks held as
  integers (the package runs a depth-first search or walks flip patterns);
* list threshold: the exact surprisal law of a block, by convolution;
* secrecy distance of the binary cascade: the law Q of the seed pair's linear
  map applied to the noise e = X xor Z (the package scatters the whole joint
  law of (X^n, Z^n) into buckets).

Self-checks at tiny sizes live in selfcheck.py.
"""

from __future__ import annotations

import math
from functools import lru_cache

import numpy as np


# ---------------------------------------------------------------- GF(2^m)

def gf_mul(a: int, b: int, poly: int) -> int:
    """Product of a and b in GF(2)[x]/(poly), most significant bit of a first."""
    m = poly.bit_length() - 1
    r = 0
    for i in range(a.bit_length() - 1, -1, -1):
        r <<= 1
        if r >> m:
            r ^= poly
        if (a >> i) & 1:
            r ^= b
    return r


def gf_mul_vec(a: np.ndarray, b, poly: int) -> np.ndarray:
    """Elementwise gf_mul over uint64 arrays (b may be a scalar); m <= 62."""
    m = poly.bit_length() - 1
    if m > 62:
        raise ValueError("vectorised multiply needs m <= 62")
    a = np.asarray(a, dtype=np.uint64)
    b = np.asarray(b, dtype=np.uint64)
    top, upoly, one = np.uint64(m), np.uint64(poly), np.uint64(1)
    r = np.zeros(np.broadcast(a, b).shape, dtype=np.uint64)
    for i in range(m - 1, -1, -1):
        r <<= one
        r ^= ((r >> top) & one) * upoly
        r ^= ((a >> np.uint64(i)) & one) * b
    return r


def _polymod(a: int, f: int) -> int:
    df = f.bit_length() - 1
    while a and a.bit_length() - 1 >= df:
        a ^= f << (a.bit_length() - 1 - df)
    return a


def _polygcd(u: int, v: int) -> int:
    while v:
        u, v = v, _polymod(u, v)
    return u


def _x_pow_2k(k: int, f: int) -> int:
    """x^(2^k) mod f by k squarings."""
    h = _polymod(2, f)
    for _ in range(k):
        h = gf_mul(h, h, f)
    return h


def irreducible(f: int) -> bool:
    """Rabin: f of degree m is irreducible iff x^(2^m) = x mod f and
    gcd(x^(2^(m/r)) - x, f) = 1 for every prime r dividing m."""
    m = f.bit_length() - 1
    if m < 1:
        return False
    if m == 1:
        return True
    if _x_pow_2k(m, f) != _polymod(2, f):
        return False
    primes, rest, d = [], m, 2
    while d * d <= rest:
        if rest % d == 0:
            primes.append(d)
            while rest % d == 0:
                rest //= d
        d += 1
    if rest > 1:
        primes.append(rest)
    return all(_polygcd(f, _x_pow_2k(m // r, f) ^ 2) == 1 for r in primes)


@lru_cache(maxsize=None)
def first_irreducible(m: int) -> int:
    """Smallest integer-coded irreducible polynomial of degree m."""
    for f in range(1 << m, 2 << m):
        if irreducible(f):
            return f
    raise ArithmeticError(f"no irreducible polynomial of degree {m}")


def hash_top(x, seed, out_bits: int, poly: int):
    """First out_bits bits of x (.) seed; works on ints and uint64 arrays."""
    m = poly.bit_length() - 1
    if isinstance(x, np.ndarray):
        prod = gf_mul_vec(x, np.uint64(seed), poly)
        return prod >> np.uint64(m - out_bits) if out_bits else np.zeros_like(prod)
    return gf_mul(x, seed, poly) >> (m - out_bits) if out_bits else 0


# ------------------------------------------------------------- sources

def symmetric_joint(k: int, err_y: float, err_z: float) -> np.ndarray:
    """X uniform on k symbols; Y and Z are independent k-ary symmetric
    channels from X, each keeping the symbol with probability 1 - err."""
    def channel(err):
        ch = np.full((k, k), err / (k - 1))
        np.fill_diagonal(ch, 1.0 - err)
        return ch
    cy, cz = channel(err_y), channel(err_z)
    return np.einsum("x,xy,xz->xyz", np.full(k, 1.0 / k), cy, cz)


def cascade_joint(p: float, q: float) -> np.ndarray:
    """Binary X uniform, Y = X flipped w.p. p, Z = Y flipped w.p. q."""
    flip = lambda e: np.array([[1 - e, e], [e, 1 - e]])  # noqa: E731
    return np.einsum("x,xy,yz->xyz", np.full(2, 0.5), flip(p), flip(q))


def h2(p: float) -> float:
    return 0.0 if p in (0.0, 1.0) else -p * math.log2(p) - (1 - p) * math.log2(1 - p)


def cond_entropy(pair: np.ndarray) -> float:
    """H(X|V) in bits from a joint |X| x |V| table."""
    pv = pair.sum(axis=0)
    mask = pair > 0
    cond = np.divide(pair, pv, out=np.zeros_like(pair), where=pv > 0)
    return float(-(pair[mask] * np.log2(cond[mask])).sum())


def cond_cost(joint: np.ndarray) -> np.ndarray:
    """cost[a, b] = -log2 P(X=a | Y=b), +inf where the pair is impossible."""
    pxy = joint.sum(axis=2)
    cond = pxy / pxy.sum(axis=0)
    with np.errstate(divide="ignore"):
        return -np.log2(cond)


def surprisal_quantile(joint: np.ndarray, n: int, miss: float) -> tuple[float, float]:
    """Smallest atom lam of the law of S = -log2 P(X^n | Y^n) with
    P(S > lam) <= miss, and that tail mass.  Exact: the per-position law has
    few atoms, so the n-fold law is a convolution over atom counts."""
    pxy = joint.sum(axis=2)
    cost = cond_cost(joint)
    atoms: dict[float, float] = {}
    for a, b in zip(*np.nonzero(pxy > 0)):
        key = round(float(cost[a, b]), 12)
        atoms[key] = atoms.get(key, 0.0) + float(pxy[a, b])
    values = sorted(atoms)
    law = {tuple([0] * len(values)): 1.0}
    for _ in range(n):
        nxt: dict[tuple, float] = {}
        for counts, pr in law.items():
            for j, v in enumerate(values):
                c = list(counts)
                c[j] += 1
                c = tuple(c)
                nxt[c] = nxt.get(c, 0.0) + pr * atoms[v]
        law = nxt
    sums = sorted((sum(c * v for c, v in zip(counts, values)), pr)
                  for counts, pr in law.items())
    tail = 1.0
    for s, pr in sums:
        tail -= pr
        if tail <= miss:
            return s, max(tail, 0.0)
    raise ArithmeticError("surprisal law has no atom above the miss budget")


# ------------------------------------------------------------ guess list

def guess_values(y: np.ndarray, cost: np.ndarray, lam: float, width: int,
                 tol: float = 1e-9) -> np.ndarray:
    """Integer codes (symbols big-endian, `width` bits each) of every block x
    with sum_i cost[x_i, y_i] <= lam, by a breadth-first sweep."""
    cols = cost[:, y]                                   # (|X|, n)
    best = np.min(cols, axis=0)
    rest = np.concatenate([np.cumsum(best[::-1])[::-1], [0.0]])
    limit = lam + tol
    vals = np.zeros(1, dtype=np.uint64)
    acc = np.zeros(1)
    w = np.uint64(width)
    for i in range(len(y)):
        tot = acc[:, None] + cols[None, :, i]
        keep = tot + rest[i + 1] <= limit
        rows, syms = np.nonzero(keep)
        vals = (vals[rows] << w) | syms.astype(np.uint64)
        acc = tot[rows, syms]
    return vals


def encode(block: np.ndarray, width: int) -> int:
    v = 0
    for s in block:
        v = (v << width) | int(s)
    return v


# ------------------------------------------------------------- statistics

_Z95 = 1.959963984540054


def wilson_upper(failures: int, trials: int) -> float:
    z2 = _Z95 * _Z95
    centre = failures + z2 / 2
    half = _Z95 * math.sqrt(failures * (trials - failures) / trials + z2 / 4)
    return min(1.0, (centre + half) / (trials + z2))


# -------------------------------------------------------------- secrecy

def cascade_sd_table(n: int, t: int, ell: int, delta: float, poly: int) -> np.ndarray:
    """Per-seed-pair distance of an ell-bit key from uniform given the t-bit
    check value and Z^n, for the binary cascade with end-to-end crossover
    delta: sd[s, s2] = 1/2 sum_{c,k} |Q(c,k) - Q(c)/2^ell|, where Q is the law
    of (c, k) = (top_t(e.s), top_ell(e.s2)) for e i.i.d. Bernoulli(delta).

    Given Z = z the pair is (L z) xor (L e), a shift of Q, so the distance is
    the same for every z and this is the whole average over Z^n."""
    m = poly.bit_length() - 1
    if m != n:
        raise ValueError("the binary field must have exactly n bits")
    size = 1 << n
    e = np.arange(size, dtype=np.uint64)
    wt = np.bitwise_count(e).astype(np.int64)
    w = delta ** wt * (1.0 - delta) ** (n - wt)
    seeds = np.arange(size, dtype=np.uint64)
    prods = gf_mul_vec(e[None, :], seeds[:, None], poly)          # [seed, e]
    shift_c = np.uint64(m - t)
    checks = (prods >> shift_c).astype(np.int64) if t else np.zeros((size, size), np.int64)
    keys = (prods >> np.uint64(m - ell)).astype(np.int64) if ell else \
        np.zeros((size, size), np.int64)
    nb = 1 << (t + ell)
    offsets = (np.arange(size, dtype=np.int64) * nb)[:, None]
    weights = np.broadcast_to(w, (size, size)).ravel()
    out = np.empty((size, size))
    for s in range(size):
        bucket = (checks[s][None, :] << ell) | keys                # [s2, e]
        q = np.bincount((offsets + bucket).ravel(), weights=weights,
                        minlength=size * nb).reshape(size, 1 << t, 1 << ell)
        qc = q.sum(axis=2, keepdims=True) / (1 << ell)
        out[s] = 0.5 * np.abs(q - qc).sum(axis=(1, 2))
    return out


def avg_min_entropy_cascade(n: int, delta: float) -> float:
    """H_min(X^n | Z^n) for the cascade: -n log2 (1 - delta)."""
    return -n * math.log2(max(delta, 1.0 - delta))
