"""Achievable key rates at finite block length vs the capacity ceiling.

The running example is the two-relay chain: Y is X through a BSC(0.02) and
Z continues from Y through a BSC(0.15).  Z is a degraded view of X, so the
one-way secret-key capacity is H(X|Z) - H(X|Y).
"""

import numpy as np

from omska import (BOUND_NAMES, bound_report, bsc_chain, entropy_profile,
                   ow_capacity_less_noisy)

src = bsc_chain(0.02, 0.15)
prof = entropy_profile(src)
cap = ow_capacity_less_noisy(src)

print(f"H(X|Y) = {prof.h_x_given_y:.6f} bits/symbol")
print(f"H(X|Z) = {prof.h_x_given_z:.6f} bits/symbol")
print(f"capacity = {cap:.6f} bits/symbol")
print()

eps, sigma = 0.05, 0.05
ax, ay = src.alphabet_sizes[0], src.alphabet_sizes[1]
ns = [1_000, 4_000, 10_000, 100_000, 1_000_000]
print(f"{'n':>9}  " + "  ".join(f"{name:>13}" for name in BOUND_NAMES))
for n in ns:
    rates = [bound_report(name, n, eps, sigma, prof, ax, ay).rate for name in BOUND_NAMES]
    print(f"{n:>9}  " + "  ".join(f"{r:>13.6f}" for r in rates))

print()
print("rates are clamped at zero; the hash-rate bounds need very large n")
print("before their constants are paid off, while the normal-approximation")
print("curve passes 0.5 bits/symbol around n = 1e7")

# optional picture
try:
    import matplotlib
    matplotlib.use("Agg")
    import matplotlib.pyplot as plt
except ImportError:
    raise SystemExit(0)

grid = np.logspace(3, 8, 40)
fig, axis = plt.subplots(figsize=(7, 4.5))
for name in BOUND_NAMES:
    rates = [bound_report(name, int(n), eps, sigma, prof, ax, ay).rate for n in grid]
    axis.plot(grid, rates, label=name)
axis.axhline(cap, color="k", ls=":", lw=1, label="capacity")
axis.set_xscale("log")
axis.set_xlabel("block length n")
axis.set_ylabel("key rate (bits/symbol)")
axis.legend(fontsize=8)
fig.tight_layout()
fig.savefig("bounds.png", dpi=120)
print("wrote bounds.png")
