"""Tripartite memoryless sources and their entropy statistics.

A source is a joint pmf over (X, Y, Z): the sender observes X, the receiver Y,
and the eavesdropper Z, all drawn IID across positions.  Everything downstream
(planners, the protocol, the verifiers) consumes either the pmf itself or the
per-symbol entropy statistics computed here.  Logs are base 2 throughout and
zero-probability cells contribute zero to every sum.
"""

from __future__ import annotations

import json
import math
from dataclasses import dataclass, field

import numpy as np

PMF_TOL = 1e-12


@dataclass(frozen=True)
class BscChainParams:
    """Crossover probabilities of the cascaded-flip source: Y is X through a
    symmetric bit flipper with probability p, Z is Y through another with q."""

    p: float
    q: float

    def __post_init__(self):
        for name, v in (("p", self.p), ("q", self.q)):
            if not (0.0 <= v <= 0.5):
                raise ValueError(f"{name} must lie in [0, 1/2], got {v!r}")


@dataclass(frozen=True)
class JointSource:
    """Dense joint pmf over the three alphabets.

    Attributes
    ----------
    alphabet_sizes : (|X|, |Y|, |Z|)
    pmf : ndarray of shape alphabet_sizes, entries >= 0 summing to 1 (+-1e-12)
    labels : optional symbol labels per axis, purely cosmetic
    cost_columns : per y symbol, the costs -log2 P(x|y) of its admissible x in
        ascending order, ties by symbol (empty for an unobserved y); derived
    rank_symbols : (|Y|, |X|) int64, read-only; row y maps a rank in
        cost_columns[y] to its x symbol (slots past the column's length are 0);
        derived
    column_ids : (|Y|,) int64, read-only; entry y is the first y' with
        cost_columns[y'] == cost_columns[y], so y symbols with equal columns
        share an id; derived
    """

    alphabet_sizes: tuple[int, int, int]
    pmf: np.ndarray
    labels: dict | None = field(default=None, compare=False)

    def __post_init__(self):
        sizes = tuple(int(s) for s in self.alphabet_sizes)
        if len(sizes) != 3 or any(s < 1 for s in sizes):
            raise ValueError(f"alphabet_sizes must be three positive ints, got {self.alphabet_sizes!r}")
        arr = np.asarray(self.pmf, dtype=float)
        if arr.shape != sizes:
            raise ValueError(f"pmf shape {arr.shape} does not match alphabet_sizes {sizes}")
        if not np.isfinite(arr).all():
            raise ValueError("pmf has non-finite entries")
        if np.any(arr < 0):
            raise ValueError("pmf has negative entries")
        total = float(arr.sum())
        if abs(total - 1.0) > PMF_TOL:
            raise ValueError(f"pmf sums to {total!r}, not 1 within {PMF_TOL}")
        arr = arr.copy()
        arr.setflags(write=False)
        object.__setattr__(self, "alphabet_sizes", sizes)
        object.__setattr__(self, "pmf", arr)
        cdf = arr.ravel().cumsum()  # sample()'s, normalised as Generator.choice does
        object.__setattr__(self, "_cdf", cdf / cdf[-1])
        columns, rank_symbols = _ranked_columns(self.p_xy())
        object.__setattr__(self, "cost_columns", columns)
        object.__setattr__(self, "rank_symbols", rank_symbols)
        ids = np.array([columns.index(c) for c in columns], dtype=np.int64)
        ids.setflags(write=False)
        object.__setattr__(self, "column_ids", ids)

    # convenience marginals, all tiny
    def p_xy(self) -> np.ndarray:
        return self.pmf.sum(axis=2)

    def p_xz(self) -> np.ndarray:
        return self.pmf.sum(axis=1)

    def p_y(self) -> np.ndarray:
        return self.pmf.sum(axis=(0, 2))

    def p_z(self) -> np.ndarray:
        return self.pmf.sum(axis=(0, 1))

    def p_x_and(self, side: str) -> np.ndarray:
        """Joint pmf of X with the named side, 'y' or 'z'."""
        if side not in ("y", "z"):
            raise ValueError(f"given must be 'y' or 'z', got {side!r}")
        return self.p_xy() if side == "y" else self.p_xz()


@dataclass(frozen=True)
class EntropyProfile:
    """Per-symbol conditional-entropy statistics of a source (bits / bits^2 / bits^3).

    var_* are the variances of the conditional information density
    -log2 P(X|·) under the joint law; rho_x_given_y is its third absolute
    central moment on the receiver side.
    """

    h_x_given_y: float
    h_x_given_z: float
    var_x_given_y: float
    var_x_given_z: float
    rho_x_given_y: float


def bsc_chain(params: BscChainParams | float, q: float | None = None) -> JointSource:
    """Build the binary cascade source: X uniform, Y = flip_p(X), Z = flip_q(Y).

    Accepts either a BscChainParams or the two floats directly.
    P(x,y,z) = 1/2 * p^[x!=y] (1-p)^[x=y] * q^[y!=z] (1-q)^[y=z].
    """
    if isinstance(params, BscChainParams):
        if q is not None:
            raise ValueError("pass either BscChainParams or two floats, not both")
        pp = params
    else:
        if q is None:
            raise ValueError("missing second crossover probability")
        pp = BscChainParams(float(params), float(q))
    leg1 = np.array([[1.0 - pp.p, pp.p], [pp.p, 1.0 - pp.p]])
    leg2 = np.array([[1.0 - pp.q, pp.q], [pp.q, 1.0 - pp.q]])
    return JointSource((2, 2, 2), 0.5 * leg1[:, :, None] * leg2[None, :, :])


def _ranked_columns(p_xy: np.ndarray) -> tuple[tuple[tuple[float, ...], ...], np.ndarray]:
    """Each y column's admissible symbols by ascending cost, ties by symbol:
    the cost tuples and the rank-to-symbol table of `JointSource`.  Costs are
    math.log2 of the conditionals, so list totals summed from them match a
    scalar walk's bit for bit."""
    p_y = p_xy.sum(axis=0)
    columns = []
    rank_symbols = np.zeros(p_xy.shape[::-1], dtype=np.int64)
    for yv in range(p_xy.shape[1]):
        ranked = []
        if p_y[yv] > 0.0:
            cond = p_xy[:, yv] / p_y[yv]
            ranked = sorted((-math.log2(c), a) for a, c in enumerate(cond.tolist()) if c > 0.0)
        columns.append(tuple(cost for cost, _ in ranked))
        rank_symbols[yv, :len(ranked)] = [a for _, a in ranked]
    rank_symbols.setflags(write=False)
    return tuple(columns), rank_symbols


def load_joint_pmf(desc: str | dict) -> JointSource:
    """Parse a serialized source description.

    The description is a JSON object, either explicit:

        {"alphabet_sizes": [2, 2, 2], "pmf": [  ... flat row-major ... ],
         "labels": {"x": [...], "y": [...], "z": [...]}}   # labels optional

    or a builtin generator:

        {"generator": "bsc_chain", "p": 0.02, "q": 0.15}

    Accepts the JSON text or an already-parsed dict.  Parse failures,
    non-finite or negative entries, and mass-sum violations raise distinct
    ValueErrors.
    """
    if isinstance(desc, str):
        try:
            obj = json.loads(desc)
        except json.JSONDecodeError as e:
            raise ValueError(f"source description is not valid JSON: {e}") from e
    elif isinstance(desc, dict):
        obj = desc
    else:
        raise ValueError(f"source description must be JSON text or a dict, got {type(desc).__name__}")
    if not isinstance(obj, dict):
        raise ValueError("source description must be a JSON object")

    if "generator" in obj:
        gen = obj["generator"]
        if gen != "bsc_chain":
            raise ValueError(f"unknown generator {gen!r}")
        try:
            p_, q_ = float(obj["p"]), float(obj["q"])
        except (KeyError, TypeError) as e:
            raise ValueError(f"generator 'bsc_chain' needs numeric p and q: {e}") from e
        return bsc_chain(p_, q_)

    try:
        sizes = tuple(int(s) for s in obj["alphabet_sizes"])
        flat = obj["pmf"]
    except (KeyError, TypeError, ValueError) as e:
        raise ValueError(f"malformed source description: {e}") from e
    if len(sizes) != 3:
        raise ValueError(f"alphabet_sizes must have three entries, got {len(sizes)}")
    expected = sizes[0] * sizes[1] * sizes[2]
    if not isinstance(flat, list) or len(flat) != expected:
        raise ValueError(f"pmf must be a flat list of {expected} entries (row-major x, y, z)")
    arr = np.asarray(flat, dtype=float).reshape(sizes)
    return JointSource(sizes, arr, labels=obj.get("labels"))


def _cond_info_moments(joint2: np.ndarray) -> tuple[float, float, float]:
    """Mean, variance, third absolute central moment of -log2 P(X|V) under a
    joint |X| x |V| table.  Zero-probability cells are skipped outright."""
    marg = joint2.sum(axis=0)
    mask = joint2 > 0
    cond = np.zeros_like(joint2)
    cols = marg > 0
    cond[:, cols] = joint2[:, cols] / marg[cols]
    w = np.zeros_like(joint2)
    w[mask] = -np.log2(cond[mask])
    pm = joint2[mask]
    wm = w[mask]
    mean = float(np.dot(pm, wm))
    var = float(np.dot(pm, (wm - mean) ** 2))
    rho = float(np.dot(pm, np.abs(wm - mean) ** 3))
    return mean, var, rho


def entropy_profile(src: JointSource) -> EntropyProfile:
    """Per-symbol conditional entropies, variances, and the receiver-side third
    absolute moment, by direct summation over the joint pmf."""
    h_y, var_y, rho_y = _cond_info_moments(src.p_xy())
    h_z, var_z, _ = _cond_info_moments(src.p_xz())
    return EntropyProfile(h_y, h_z, var_y, var_z, rho_y)


def ow_capacity_less_noisy(src: JointSource) -> float:
    """H(X|Z) - H(X|Y), the one-way key rate when the wiretap side is less
    noisy.  Returned as-is; may be negative when the hypothesis fails and the
    caller is responsible for checking applicability."""
    prof = entropy_profile(src)
    return prof.h_x_given_z - prof.h_x_given_y


def avg_min_entropy_product(src: JointSource, n: int, given: str = "z") -> float:
    """Average conditional min-entropy of X^n given the named side's block,
    -n*log2 sum_v max_x P(x, v): the closed product form, exact for IID blocks."""
    per_symbol = float(src.p_x_and(given).max(axis=0).sum())
    return -n * math.log2(per_symbol)


def sample(src: JointSource, n: int, rng_seed: int | np.random.Generator) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """Draw n IID positions; returns (x, y, z) arrays of dtype int64.

    Deterministic given rng_seed (an int or an existing Generator).
    """
    if n < 1:
        raise ValueError(f"n must be positive, got {n}")
    rng = rng_seed if isinstance(rng_seed, np.random.Generator) else np.random.default_rng(rng_seed)
    # the cells Generator.choice(size, n, p=pmf) draws, without its per-call checks
    cells = src._cdf.searchsorted(rng.random(n), side="right")
    x, y, z = np.unravel_index(cells, src.alphabet_sizes)
    return x.astype(np.int64), y.astype(np.int64), z.astype(np.int64)
