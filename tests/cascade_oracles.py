"""Closed forms of the binary cascade, kept as test oracles.

The package reads no source kind: its desk planner reads the receiver's cost
column, and its list builder and secrecy audit take any pmf.  These functions
recognise and describe the cascade directly, so tests can check the generic
paths against them.
"""

import math

import numpy as np

from omska.source import PMF_TOL, BscChainParams


def binary_entropy(p: float) -> float:
    """h2(p) in bits; 0 at the endpoints."""
    if not (0.0 <= p <= 1.0):
        raise ValueError(f"probability out of range: {p!r}")
    if p == 0.0 or p == 1.0:
        return 0.0
    return -p * math.log2(p) - (1.0 - p) * math.log2(1.0 - p)


def crossover_convolve(p: float, q: float) -> float:
    """Effective crossover of two cascaded symmetric flippers: p(1-q) + (1-p)q."""
    for v in (p, q):
        if not (0.0 <= v <= 1.0):
            raise ValueError(f"probability out of range: {v!r}")
    return p * (1.0 - q) + (1.0 - p) * q


def hamming_ball_size(n: int, radius: int) -> int:
    """Length-n binary blocks within Hamming distance `radius` of a fixed one."""
    return sum(math.comb(n, w) for w in range(radius + 1))


def detect_bsc_chain(src) -> BscChainParams | None:
    """The cascade parameters if `src` is entrywise a bsc_chain source (within
    PMF_TOL), else None.  Compares pmf arrays; builds no source."""
    if src.alphabet_sizes != (2, 2, 2):
        return None
    p_xy, p_yz = src.p_xy(), src.pmf.sum(axis=0)
    p_fit = float(p_xy[0, 1] + p_xy[1, 0])
    q_fit = float(p_yz[0, 1] + p_yz[1, 0])
    if not (0.0 <= p_fit <= 0.5 and 0.0 <= q_fit <= 0.5):
        return None
    leg1 = np.array([[1.0 - p_fit, p_fit], [p_fit, 1.0 - p_fit]])
    leg2 = np.array([[1.0 - q_fit, q_fit], [q_fit, 1.0 - q_fit]])
    if np.max(np.abs(0.5 * leg1[:, :, None] * leg2[None, :, :] - src.pmf)) <= PMF_TOL:
        return BscChainParams(p_fit, q_fit)
    return None
