"""Checks of the benchmark's reference computations at tiny sizes.

    python3 perfbench/selfcheck.py

Exits 0 when every check holds.  It imports nothing from omska: each
reference is compared against a fixed published value or against a brute
force over every block at n <= 6.  Kept out of the test suite on purpose
(the file name does not match pytest's pattern and lies outside tests/).
"""

from __future__ import annotations

import itertools
import math
import sys

import numpy as np

import oracles as orc


def _trial_division_irreducible(f: int) -> bool:
    m = f.bit_length() - 1
    return all(orc._polymod(f, g) != 0 for g in range(2, 1 << (m // 2 + 1))
               if 1 <= g.bit_length() - 1 <= m // 2)


def check_field(report):
    # FIPS-197 section 4.2: {57} . {83} = {c1} modulo x^8 + x^4 + x^3 + x + 1
    report("FIPS-197 57.83=c1", orc.gf_mul(0x57, 0x83, 0x11B) == 0xC1)
    report("FIPS-197 57.13=fe", orc.gf_mul(0x57, 0x13, 0x11B) == 0xFE)
    report("first irreducible of degree 8 is 0x11b", orc.first_irreducible(8) == 0x11B)
    for m in range(2, 11):
        f = orc.first_irreducible(m)
        smaller = [g for g in range(1 << m, f) if _trial_division_irreducible(g)]
        report(f"degree {m}: Rabin pick {f:#x} is the first by trial division",
               _trial_division_irreducible(f) and not smaller)
    rng = np.random.default_rng(1)
    for m in (8, 16, 32):
        poly = orc.first_irreducible(m)
        a = rng.integers(0, 1 << m, 200, dtype=np.uint64)
        b = rng.integers(0, 1 << m, 200, dtype=np.uint64)
        vec = orc.gf_mul_vec(a, b, poly)
        scal = [orc.gf_mul(int(x), int(y), poly) for x, y in zip(a, b)]
        report(f"m={m}: vector multiply equals scalar", [int(v) for v in vec] == scal)
        x, y, z = (int(v) for v in rng.integers(1, 1 << m, 3, dtype=np.uint64))
        report(f"m={m}: commutative, associative, distributive",
               orc.gf_mul(x, y, poly) == orc.gf_mul(y, x, poly)
               and orc.gf_mul(orc.gf_mul(x, y, poly), z, poly)
               == orc.gf_mul(x, orc.gf_mul(y, z, poly), poly)
               and orc.gf_mul(x, y ^ z, poly) == orc.gf_mul(x, y, poly) ^ orc.gf_mul(x, z, poly))
    table = orc.gf_mul_vec(np.arange(256, dtype=np.uint64)[:, None],
                           np.arange(256, dtype=np.uint64)[None, :], 0x11B)
    report("m=8: every nonzero element has an inverse",
           all(np.any(table[a] == 1) for a in range(1, 256)))


def _brute_list(y, cost, lam, k):
    out = []
    for x in itertools.product(range(k), repeat=len(y)):
        if cost[list(x), y].sum() <= lam + 1e-9:
            out.append(orc.encode(np.array(x), (k - 1).bit_length()))
    return sorted(out)


def check_lists(report):
    rng = np.random.default_rng(2)
    for joint, n in ((orc.symmetric_joint(3, 0.1, 0.3), 4), (orc.cascade_joint(0.1, 0.2), 6)):
        k = joint.shape[0]
        cost = orc.cond_cost(joint)
        lam, tail = orc.surprisal_quantile(joint, n, 0.05)
        # brute-force law of the block surprisal
        pxy = joint.sum(axis=2)
        law = {}
        for x in itertools.product(range(k), repeat=n):
            for y in itertools.product(range(k), repeat=n):
                pr = float(np.prod(pxy[list(x), list(y)]))
                if pr > 0:
                    s = round(float(cost[list(x), list(y)].sum()), 9)
                    law[s] = law.get(s, 0.0) + pr
        above = sum(pr for s, pr in law.items() if s > lam + 1e-9)
        smaller = [s for s in law if s < lam - 1e-9
                   and sum(pr for s2, pr in law.items() if s2 > s + 1e-9) <= 0.05]
        report(f"k={k} n={n}: quantile {lam:.4f} has tail {above:.4g} <= 0.05, minimal",
               above <= 0.05 and abs(above - tail) < 1e-12 and not smaller)
        for _ in range(3):
            y = rng.integers(0, k, n)
            got = sorted(int(v) for v in orc.guess_values(y, cost, lam, (k - 1).bit_length()))
            report(f"k={k} n={n}: breadth-first list equals brute force",
                   got == _brute_list(y, cost, lam, k))


def check_secrecy(report):
    n, p, q = 4, 0.1, 0.2
    delta = p * (1 - q) + (1 - p) * q
    poly = orc.first_irreducible(n)
    pxz = orc.cascade_joint(p, q).sum(axis=1)
    for t, ell in ((1, 1), (2, 1), (1, 2), (0, 2), (2, 0)):
        table = orc.cascade_sd_table(n, t, ell, delta, poly)
        for s, s2 in ((3, 5), (0, 7), (9, 14)):
            # definition: (key, check, Z^n) against (uniform key, check, Z^n)
            joint = np.zeros((1 << t, 1 << ell, 1 << n))
            for x in range(1 << n):
                c = orc.hash_top(x, s, t, poly)
                key = orc.hash_top(x, s2, ell, poly)
                for z in range(1 << n):
                    pr = 1.0
                    for i in range(n):
                        pr *= pxz[(x >> i) & 1, (z >> i) & 1]
                    joint[c, key, z] += pr
            ideal = joint.sum(axis=1, keepdims=True) / (1 << ell)
            sd = 0.5 * np.abs(joint - ideal).sum()
            report(f"n={n} (t,l)=({t},{ell}) seeds ({s},{s2}): sd matches definition",
                   abs(sd - table[s, s2]) < 1e-12)
    report("Wilson upper of 0/10 is z^2/(10+z^2)",
           abs(orc.wilson_upper(0, 10) - 1.959963984540054 ** 2
               / (10 + 1.959963984540054 ** 2)) < 1e-15)
    report("h2(0.11) is about 1/2", abs(orc.h2(0.11) - 0.4999) < 1e-3)
    report("min-entropy of the cascade",
           math.isclose(orc.avg_min_entropy_cascade(3, 0.2), -3 * math.log2(0.8)))


def main() -> int:
    failures = []

    def report(name, ok):
        print(f"[{'ok' if ok else 'FAIL'}] {name}")
        if not ok:
            failures.append(name)
    check_field(report)
    check_lists(report)
    check_secrecy(report)
    print(f"{len(failures)} failed")
    return 1 if failures else 0


if __name__ == "__main__":
    sys.exit(main())
