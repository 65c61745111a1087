"""One-message secret-key agreement at finite block length.

Two parties observing correlated randomness agree on a secret key using a
single public message: a hashed sketch of the sender's block.  This package
provides the source model, the seeded hash family, finite-length planners
with explicit constants, a runnable protocol, and verifiers that check the
reliability and secrecy claims empirically and, at desk scale, exactly.
"""

from .source import (BscChainParams, EntropyProfile, JointSource, binary_entropy,
                     bsc_chain, crossover_convolve, detect_bsc_chain, entropy_profile,
                     load_joint_pmf, ow_capacity_less_noisy, sample)
from .uhash import (BitString, GFContext, HashSeed, SeedHasher, encode_symbols,
                    field_for_source, fresh_seed, gf_mul, hash, is_irreducible,
                    symbol_width)
from .planner import (BOUND_NAMES, PLAN_MODES, BoundReport, Plan,
                      bound_berry_esseen, bound_hr_concatenated,
                      bound_hr_random_linear, bound_remark, bound_report, bound_sweep,
                      bound_theorem_main, comm_cost, min_positive_n, plan_desk_exact,
                      plan_remark, plan_theorem_main, qfunc, qfunc_inv)
from .protocol import (BudgetExceededError, SessionResult, Transcript, bob_decode,
                       bob_extract, guess_set, run_session)
from .verifier import (ReliabilityEstimate, SecrecyReport, avg_min_entropy_product,
                       estimate_reliability, secrecy_sd_exact, uhf_collision_census,
                       wilson_interval)

__version__ = "0.1.0"

__all__ = [
    "BscChainParams", "EntropyProfile", "JointSource", "binary_entropy",
    "bsc_chain", "crossover_convolve", "detect_bsc_chain", "entropy_profile",
    "load_joint_pmf", "ow_capacity_less_noisy", "sample",
    "BitString", "GFContext", "HashSeed", "SeedHasher", "encode_symbols",
    "field_for_source", "fresh_seed", "gf_mul", "hash", "is_irreducible",
    "symbol_width",
    "BOUND_NAMES", "PLAN_MODES", "BoundReport", "Plan", "bound_berry_esseen",
    "bound_hr_concatenated", "bound_hr_random_linear", "bound_remark", "bound_report",
    "bound_sweep", "bound_theorem_main", "comm_cost", "min_positive_n",
    "plan_desk_exact", "plan_remark", "plan_theorem_main", "qfunc", "qfunc_inv",
    "BudgetExceededError", "SessionResult", "Transcript", "bob_decode",
    "bob_extract", "guess_set", "run_session",
    "ReliabilityEstimate", "SecrecyReport", "avg_min_entropy_product",
    "estimate_reliability", "secrecy_sd_exact", "uhf_collision_census",
    "wilson_interval",
    "__version__",
]
