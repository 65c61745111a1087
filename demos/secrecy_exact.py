"""Exact secrecy audit at desk scale.

For blocks this small the seed-averaged statistical distance between the
extracted key and an independent uniform key can be computed over every
(reconciliation seed, key seed) pair, each pair's distance in closed form
from the Walsh spectrum of the hash pair applied to the cascade's flip
pattern.  No concentration argument, no sampling error.
"""

from omska import Plan, bsc_chain, secrecy_sd_exact


def hand_plan(n, t, ell):
    # targets are placeholders; only n and the two hash lengths matter here
    return Plan(mode="desk_exact", n=n, eps=0.5, sigma=0.5,
                eps_miss=0.25, eps_collide=0.25, eps_smooth=0.1,
                miss_slack=0.0, smooth_slack=0.0, list_log_threshold=float(n),
                recon_bits=t, key_bits=ell, key_real=float(ell),
                feasible=ell >= 1)


src = bsc_chain(0.02, 0.15)

print("n=8, 2 reconciliation bits leaked, 1 key bit extracted:")
rep = secrecy_sd_exact(src, hand_plan(8, 2, 1))
print(f"  enumerated {rep.seed_pairs} seed pairs (exact={rep.exact})")
print(f"  distance from uniform        {rep.sd:.10f}")
print(f"  extraction (leftover hash)   {rep.lhl_bound:.10f}")
print(f"  avg min-entropy of X^8 given Z^8: {rep.avg_min_entropy:.6f} bits")
print(f"  distance <= bound: {rep.meets_lhl}")
print()

# sampling the reconciliation seed while enumerating every key seed gives a
# cheap unbiased estimate with an error bar, useful when the field is wide
approx = secrecy_sd_exact(src, hand_plan(8, 2, 1), recon_seeds=16, rng_seed=0)
print(f"sampled mode (16 of 256 reconciliation seeds, all key seeds):")
print(f"  estimate {approx.sd:.6f} +- {approx.std_error:.6f}  "
      f"(exact value {rep.sd:.6f})")
print()

# a key hashed from the whole entropy budget: distance stays far below 1
# only while the hash output is shorter than the min-entropy
print("n=4, i.i.d. fair bits, Z independent; keys of growing length:")
for ell in range(1, 5):
    uni = bsc_chain(0.5, 0.5)
    r = secrecy_sd_exact(uni, hand_plan(4, 0, ell))
    print(f"  l={ell}: sd={r.sd:.6f}  bound={r.lhl_bound:.6f}  "
          f"hmin={r.avg_min_entropy:.1f}")
