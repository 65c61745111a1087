"""Finite-length planners and key-length bounds.

Every formula here is evaluated in its pre-asymptotic form with all constants
explicit; unspecified O(1) terms are set to zero, so the reported values are
second-order approximations wherever a bound statement suppressed a constant.
Conventions: logs base 2, hash lengths round up, key lengths round down, and
negative key lengths clamp to zero with a feasibility flag rather than raising.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field
from functools import partial

from .source import (EntropyProfile, JointSource, avg_min_entropy_product,
                     hamming_ball_size)

# the modes a planner emits: plan_theorem_main, plan_remark, plan_desk_exact
PLAN_MODES = ("theorem_main", "remark", "desk_exact")

# least n for which the n-dependent privacy/reliability splits are defined
MIN_PLAN_N = 2

_SQRT2PI = math.sqrt(2.0 * math.pi)


def qfunc(x: float) -> float:
    """Gaussian upper tail Q(x) = P(N(0,1) > x)."""
    return 0.5 * math.erfc(x / math.sqrt(2.0))


# Acklam's rational approximation to the standard normal quantile,
# refined below by Newton steps on erfc; the combination is accurate to
# well under 1e-9 across (0, 1).
_ACKLAM_A = (-3.969683028665376e+01, 2.209460984245205e+02, -2.759285104469687e+02,
             1.383577518672690e+02, -3.066479806614716e+01, 2.506628277459239e+00)
_ACKLAM_B = (-5.447609879822406e+01, 1.615858368580409e+02, -1.556989798598866e+02,
             6.680131188771972e+01, -1.328068155288572e+01)
_ACKLAM_C = (-7.784894002430293e-03, -3.223964580411365e-01, -2.400758277161838e+00,
             -2.549732539343734e+00, 4.374664141464968e+00, 2.938163982698783e+00)
_ACKLAM_D = (7.784695709041462e-03, 3.224671290700398e-01, 2.445134137142996e+00,
             3.754408661907416e+00)


def _normal_quantile_approx(u: float) -> float:
    a, b, c, d = _ACKLAM_A, _ACKLAM_B, _ACKLAM_C, _ACKLAM_D
    p_low = 0.02425
    if u < p_low:
        q = math.sqrt(-2.0 * math.log(u))
        return (((((c[0] * q + c[1]) * q + c[2]) * q + c[3]) * q + c[4]) * q + c[5]) / \
               ((((d[0] * q + d[1]) * q + d[2]) * q + d[3]) * q + 1.0)
    if u > 1.0 - p_low:
        q = math.sqrt(-2.0 * math.log(1.0 - u))
        return -(((((c[0] * q + c[1]) * q + c[2]) * q + c[3]) * q + c[4]) * q + c[5]) / \
                ((((d[0] * q + d[1]) * q + d[2]) * q + d[3]) * q + 1.0)
    q = u - 0.5
    r = q * q
    return (((((a[0] * r + a[1]) * r + a[2]) * r + a[3]) * r + a[4]) * r + a[5]) * q / \
           (((((b[0] * r + b[1]) * r + b[2]) * r + b[3]) * r + b[4]) * r + 1.0)


def qfunc_inv(p: float) -> float:
    """Inverse Gaussian tail: the x with Q(x) = p, for p in (0, 1).

    Rational initial approximation followed by Newton refinement on the exact
    erfc-based Q; accurate to better than 1e-9.
    """
    if not (0.0 < p < 1.0):
        raise ValueError(f"tail probability must be in (0, 1), got {p!r}")
    x = -_normal_quantile_approx(p)
    for _ in range(3):
        pdf = math.exp(-0.5 * x * x) / _SQRT2PI
        if pdf == 0.0:
            break
        x += (qfunc(x) - p) / pdf
    return x


@dataclass(frozen=True)
class Plan:
    """Session parameters fixed during initiation.

    recon_bits is the reconciliation hash length (rounded up), key_bits the
    extracted key length (rounded down, clamped at zero), list_log_threshold
    the log-probability cutoff defining the receiver's guess list.  The three
    eps_* fields echo how the reliability/secrecy targets were split; the two
    *_slack fields are the per-symbol entropy slacks implied by the split.
    feasible means key_bits >= 1.
    """

    mode: str
    n: int
    eps: float
    sigma: float
    eps_miss: float
    eps_collide: float
    eps_smooth: float
    miss_slack: float
    smooth_slack: float
    list_log_threshold: float
    recon_bits: int
    key_bits: int
    key_real: float
    feasible: bool
    ball_radius: int | None = None
    list_size: int | None = None

    def __post_init__(self):
        if self.mode not in PLAN_MODES:
            raise ValueError(f"unknown plan mode {self.mode!r}")
        if self.n < 1:
            raise ValueError(f"n must be positive, got {self.n}")
        if self.eps_miss + self.eps_collide > self.eps + 1e-12:
            raise ValueError("reliability split exceeds the target")
        if self.eps_smooth >= self.sigma / 2:
            raise ValueError("smoothing budget must stay below sigma/2")
        if self.list_log_threshold < 0 or self.recon_bits < 0 or self.key_bits < 0:
            raise ValueError("threshold and hash lengths must be nonnegative")


@dataclass(frozen=True)
class BoundReport:
    """One evaluated bound: value in bits, rate = value / n, plus input echo."""

    bound_name: str
    n: int
    value_bits: float
    rate: float
    inputs_echo: dict
    details: dict = field(default_factory=dict)


def _report(name: str, n: int, value: float, eps: float, sigma: float,
            profile: EntropyProfile, details: dict | None = None) -> BoundReport:
    echo = {
        "eps": eps,
        "sigma": sigma,
        "h_x_given_y": profile.h_x_given_y,
        "h_x_given_z": profile.h_x_given_z,
    }
    return BoundReport(name, n, value, value / n, echo, details or {})


def _check_n(n: int, least: int = MIN_PLAN_N) -> None:
    if n < least:
        raise ValueError(f"n must be at least {least}, got {n}")


def _check_targets(eps: float, sigma: float) -> None:
    if not (0.0 < eps < 1.0):
        raise ValueError(f"reliability target eps must be in (0, 1), got {eps!r}")
    if not (0.0 < sigma < 1.0):
        raise ValueError(f"secrecy target sigma must be in (0, 1), got {sigma!r}")


def _entropy_slack(n: int, log_alpha: float, budget: float) -> float:
    """Per-symbol slack delta with 2^(-n*delta^2 / (2*log_alpha^2)) = budget."""
    return math.sqrt(2.0 * log_alpha * log_alpha * math.log2(1.0 / budget) / n)


def _key_length_real(n: int, profile: EntropyProfile, log_alpha: float,
                     eps_miss: float, eps_collide: float, eps_smooth: float,
                     sigma: float) -> float:
    """Extractable key length, real-valued, before rounding and clamping.

    H(X^n|Z^n) - H(X^n|Y^n) + 2 + log2(eps_collide * (sigma - 2 eps_smooth)^2)
    minus the two sqrt(2n) entropy-slack terms.  Returns -inf when the
    secrecy margin sigma - 2*eps_smooth is nonpositive (log of a nonpositive
    number is guarded, not evaluated).
    """
    margin = sigma - 2.0 * eps_smooth
    if margin <= 0.0 or eps_collide <= 0.0 or eps_miss <= 0.0:
        return -math.inf
    gap = n * (profile.h_x_given_z - profile.h_x_given_y)
    penalty = math.sqrt(2.0 * n) * log_alpha * (
        math.sqrt(math.log2(1.0 / eps_smooth)) + math.sqrt(math.log2(1.0 / eps_miss)))
    return gap + 2.0 + math.log2(eps_collide * margin * margin) - penalty


def _main_split(n: int, eps: float, sigma: float) -> tuple[float, float, float]:
    """(eps_miss, eps_collide, eps_smooth) of plan_theorem_main."""
    return (n - 1) / n * eps, eps / n, (n - 1) / (2 * n) * sigma


def _remark_split(n: int, eps: float, sigma: float) -> tuple[float, float, float]:
    """(eps_miss, eps_collide, eps_smooth) of plan_remark."""
    rt = math.sqrt(n)
    rt4 = n ** 0.25
    return (rt - 1) / (2 * rt) * eps, eps / rt, (rt4 - 1) / (2 * rt4) * sigma


def _assemble_plan(mode: str, split, n: int, eps: float, sigma: float,
                   profile: EntropyProfile, alphabet_x: int) -> Plan:
    _check_n(n)
    _check_targets(eps, sigma)
    eps_miss, eps_collide, eps_smooth = split(n, eps, sigma)
    log_alpha = math.log2(alphabet_x + 3)
    miss_slack = _entropy_slack(n, log_alpha, eps_miss)
    smooth_slack = _entropy_slack(n, log_alpha, eps_smooth)
    threshold = n * (profile.h_x_given_y + miss_slack)
    recon_bits = math.ceil(threshold - math.log2(eps_collide))
    key_real = _key_length_real(n, profile, log_alpha, eps_miss, eps_collide,
                                eps_smooth, sigma)
    key_bits = max(0, math.floor(key_real)) if math.isfinite(key_real) else 0
    return Plan(
        mode=mode, n=n, eps=eps, sigma=sigma,
        eps_miss=eps_miss, eps_collide=eps_collide, eps_smooth=eps_smooth,
        miss_slack=miss_slack, smooth_slack=smooth_slack,
        list_log_threshold=threshold, recon_bits=recon_bits,
        key_bits=key_bits, key_real=key_real, feasible=key_bits >= 1,
    )


def plan_theorem_main(n: int, eps: float, sigma: float, profile: EntropyProfile,
                      alphabet_x: int) -> Plan:
    """Main finite-length plan: split eps as ((n-1)/n, 1/n) between the guess
    list and the hash collisions, sigma smoothing budget (n-1)/(2n)*sigma.

    The resulting key length equals
        n*(H(X|Z) - H(X|Y)) + 2 + log2(eps*sigma^2/n^3)
        - sqrt(2n)*log2(|X|+3)*(sqrt(log2(n/((n-1)eps))) + sqrt(log2(2n/((n-1)sigma))))
    rounded down and clamped; infeasibility sets key_bits = 0 and the flag,
    never an exception.
    """
    return _assemble_plan("theorem_main", _main_split, n, eps, sigma, profile, alphabet_x)


def plan_remark(n: int, eps: float, sigma: float, profile: EntropyProfile,
                alphabet_x: int) -> Plan:
    """Alternative split with sqrt(n)/fourth-root(n) denominators, trading the
    third-order term against the sqrt(n) coefficient."""
    return _assemble_plan("remark", _remark_split, n, eps, sigma, profile, alphabet_x)


# Bound formulas, shared by reports and the threshold search: each checks its
# n-independent inputs and returns value(n), unclamped bits, and details(n, bits).

def _split_formula(split, eps: float, sigma: float, profile: EntropyProfile,
                   alphabet_x: int, alphabet_y):
    """Real key length of the plan whose targets `split` divides; feasible
    when the plan's key_bits = floor(bits) reaches 1."""
    _check_targets(eps, sigma)
    log_alpha = math.log2(alphabet_x + 3)
    return (lambda n: _key_length_real(n, profile, log_alpha, *split(n, eps, sigma), sigma),
            lambda n, bits: {"feasible": bits >= 1.0})


def _normal_formula(eps: float, sigma: float, profile: EntropyProfile, alphabet_x, alphabet_y):
    """Formula of bound_berry_esseen; its details are the strict correction terms."""
    _check_targets(eps, sigma)
    if profile.var_x_given_y <= 0.0 or profile.var_x_given_z <= 0.0:
        raise ValueError("normal approximation needs positive conditional variances")
    gap = profile.h_x_given_z - profile.h_x_given_y
    g = qfunc_inv(eps) * math.sqrt(profile.var_x_given_y) \
        + qfunc_inv(sigma / 2.0) * math.sqrt(profile.var_x_given_z)

    def details(n: int, bits: float) -> dict:
        rn = math.sqrt(n)
        theta_n = (1.0 + 3.0 * profile.rho_x_given_y / profile.var_x_given_y ** 1.5) / rn
        eta_n = 2.0 / rn
        strict_ok = (eps - theta_n > 0.0) and (sigma - eta_n > 0.0)
        strict = _normal_formula(eps - theta_n, sigma - eta_n, profile, alphabet_x,
                                 alphabet_y)[0](n) if strict_ok else None
        return {"theta_n": theta_n, "eta_n": eta_n, "strict_ok": strict_ok,
                "strict_value_bits": strict}

    return (lambda n: n * gap - math.sqrt(n) * g - 1.5 * math.log2(n)), details


def _hr_check(eps: float, sigma: float) -> None:
    if not (0.0 < eps < 0.25 and 0.0 < sigma < 0.25):
        raise ValueError(f"comparison bounds require eps, sigma < 1/4, got {eps!r}, {sigma!r}")


def _hr_details(constants: dict):
    """A comparison bound's details: its constants, and a caution below n = 100.
    Each report gets its own dict, so reports from one formula share nothing."""
    return lambda n, bits: dict(constants) if n >= 100 else \
        {**constants, "small_n_caution": "stated only for large n"}


def _hr_linear_formula(eps: float, sigma: float, profile: EntropyProfile,
                       alphabet_x: int, alphabet_y: int):
    """Formula of bound_hr_random_linear."""
    _hr_check(eps, sigma)
    f_lin = 90.0 * math.log2(alphabet_x * alphabet_y) * (
        math.sqrt(math.log2(1.0 / eps)) + math.sqrt(math.log2(1.0 / sigma)))
    gap = profile.h_x_given_z - profile.h_x_given_y
    return (lambda n: n * gap - math.sqrt(n) * f_lin), _hr_details({"penalty_sqrt_n": f_lin})


def _hr_concat_formula(eps: float, sigma: float, profile: EntropyProfile,
                       alphabet_x: int, alphabet_y: int):
    """Formula of bound_hr_concatenated."""
    _hr_check(eps, sigma)
    g_cat = (2.0 ** 22 * math.log2(1.0 / eps) * math.log2(alphabet_x) ** 2
             * math.log2(alphabet_x * alphabet_y) ** 2) ** 0.25
    f_cat = 8.0 * math.log2(alphabet_x) * math.sqrt(math.log2(1.0 / sigma))
    gap = profile.h_x_given_z - profile.h_x_given_y
    return (lambda n: n * gap - n ** 0.75 * g_cat - math.sqrt(n) * f_cat), \
        _hr_details({"penalty_n34": g_cat, "penalty_sqrt_n": f_cat})


# The one name -> bound table: each bound's formula and the least n it takes.
_BOUNDS = {
    "theorem_main": (partial(_split_formula, _main_split), MIN_PLAN_N),
    "remark": (partial(_split_formula, _remark_split), MIN_PLAN_N),
    "berry_esseen": (_normal_formula, MIN_PLAN_N),
    "hr_linear": (_hr_linear_formula, 1),
    "hr_concat": (_hr_concat_formula, 1),
}
BOUND_NAMES = tuple(_BOUNDS)


def _bound(name: str):
    if name not in _BOUNDS:
        raise ValueError(f"unknown bound {name!r}; choices: {', '.join(_BOUNDS)}")
    return _BOUNDS[name]


def bound_sweep(bound_name: str, ns, eps: float, sigma: float, profile: EntropyProfile,
                alphabet_x, alphabet_y) -> list[BoundReport]:
    """bound_report at each n of the sequence ns, with the formula and its
    input checks built once for the whole sweep."""
    formula, least_n = _bound(bound_name)
    for n in ns:
        _check_n(n, least_n)
    value, details = formula(eps, sigma, profile, alphabet_x, alphabet_y)
    reports = []
    for n in ns:
        bits = value(n)
        reports.append(_report(bound_name, n, max(0.0, bits), eps, sigma, profile,
                               details(n, bits)))
    return reports


def bound_report(bound_name: str, n: int, eps: float, sigma: float,
                 profile: EntropyProfile, alphabet_x, alphabet_y) -> BoundReport:
    """The named bound at n; a bound ignores the alphabet sizes it does not use."""
    formula, least_n = _bound(bound_name)
    _check_n(n, least_n)
    value, details = formula(eps, sigma, profile, alphabet_x, alphabet_y)
    bits = value(n)
    return _report(bound_name, n, max(0.0, bits), eps, sigma, profile, details(n, bits))


def bound_theorem_main(n: int, eps: float, sigma: float, profile: EntropyProfile,
                       alphabet_x: int) -> BoundReport:
    """Real-valued (pre-rounding) key length of plan_theorem_main, clamped at 0."""
    return bound_report("theorem_main", n, eps, sigma, profile, alphabet_x, None)


def bound_remark(n: int, eps: float, sigma: float, profile: EntropyProfile,
                 alphabet_x: int) -> BoundReport:
    """Real-valued (pre-rounding) key length of plan_remark, clamped at 0."""
    return bound_report("remark", n, eps, sigma, profile, alphabet_x, None)


def bound_berry_esseen(n: int, eps: float, sigma: float,
                       profile: EntropyProfile) -> BoundReport:
    """Second-order normal-approximation bound for the IID case.

    value = n*(H(X|Z)-H(X|Y)) - sqrt(n)*(Qinv(eps)*sd_y + Qinv(sigma/2)*sd_z)
            - (3/2)*log2(n),   clamped at 0,
    with sd_* the conditional-information standard deviations.  The additive
    constant of the underlying statement is unspecified and set to 0.

    details carries the strict finite-n correction terms: theta_n (receiver
    side) and eta_n (eavesdropper side).  When eps > theta_n and
    sigma > eta_n the same formula at eps - theta_n and sigma - eta_n is
    valid at this exact n and reported as details["strict_value_bits"];
    otherwise strict_ok is False and only the approximation is available.
    """
    return bound_report("berry_esseen", n, eps, sigma, profile, None, None)


def bound_hr_random_linear(n: int, eps: float, sigma: float, profile: EntropyProfile,
                           alphabet_x: int, alphabet_y: int) -> BoundReport:
    """Random-linear-code comparison bound: [n*dH - sqrt(n)*f']+ with
    f' = 90*log2(|X||Y|)*(sqrt(log2(1/eps)) + sqrt(log2(1/sigma)))."""
    return bound_report("hr_linear", n, eps, sigma, profile, alphabet_x, alphabet_y)


def bound_hr_concatenated(n: int, eps: float, sigma: float, profile: EntropyProfile,
                          alphabet_x: int, alphabet_y: int) -> BoundReport:
    """Concatenated-construction comparison bound:
    [n*dH - n^(3/4)*g'' - sqrt(n)*f'']+ with
    g'' = (2^22 * log2(1/eps) * log2^2|X| * log2^2(|X||Y|))^(1/4),
    f'' = 8*log2|X|*sqrt(log2(1/sigma))."""
    return bound_report("hr_concat", n, eps, sigma, profile, alphabet_x, alphabet_y)


def comm_cost(n: int, eps: float, profile: EntropyProfile, alphabet_x: int,
              iid: bool = True) -> float:
    """Public-message length in bits needed for reconciliation at reliability eps.

    IID form uses the conditional-information dispersion,
        n*H(X|Y) + sqrt(n)*Qinv(eps)*sd_y + (1/2)*log2(n);
    the general independent-experiments form replaces the dispersion term with
    sqrt(2)*log2(|X|+3)*sqrt(log2(1/eps)).  O(1) set to 0.
    """
    if n < 1:
        raise ValueError(f"n must be positive, got {n}")
    if not (0.0 < eps < 1.0):
        raise ValueError(f"reliability target eps must be in (0, 1), got {eps!r}")
    base = n * profile.h_x_given_y + 0.5 * math.log2(n)
    if iid:
        if profile.var_x_given_y < 0.0:
            raise ValueError("negative variance in profile")
        return base + math.sqrt(n) * qfunc_inv(eps) * math.sqrt(profile.var_x_given_y)
    return base + math.sqrt(n) * math.sqrt(2.0) * math.log2(alphabet_x + 3) \
        * math.sqrt(math.log2(1.0 / eps))


def min_positive_n(bound_name: str, eps: float, sigma: float, profile: EntropyProfile,
                   alphabet_x: int, alphabet_y: int, ceiling: int = 10 ** 12) -> int | None:
    """Smallest n at which the named bound is strictly positive.

    The bracket grows x256 from MIN_PLAN_N until the bound is positive or the
    ceiling is reached; Illinois regula falsi then narrows it: each step
    evaluates the secant point, clamped inside the bracket, and halves the
    weight of an end kept twice in a row.  The formula is built once, and a
    search evaluates it at most 16 times on the benchmark's planning grid
    (hr_concat, whose n* is near 1e9, takes the most).  The result passes a
    local check (value(n*) > 0 and value(n*-1) <= 0, read from the bracket's
    two ends).  Returns None if the bound never turns positive at or below
    the ceiling; a ceiling below MIN_PLAN_N is a ValueError.  The bounds here
    are eventually monotone in n for positive-rate sources, which is all the
    search needs.
    """
    formula = _bound(bound_name)[0]
    if ceiling > 10 ** 12:
        raise ValueError("ceiling above 1e12 not supported")
    if ceiling < MIN_PLAN_N:
        raise ValueError(f"ceiling must be at least {MIN_PLAN_N}, got {ceiling}")
    value = formula(eps, sigma, profile, alphabet_x, alphabet_y)[0]

    lo, f_lo = MIN_PLAN_N, value(MIN_PLAN_N)
    if f_lo > 0.0:
        return lo
    while True:
        hi = min(lo * 256, ceiling)
        f_hi = value(hi)
        if f_hi > 0.0:
            break
        if hi >= ceiling:
            return None
        lo, f_lo = hi, f_hi
    # invariant from here on: f_lo = value(lo) <= 0 < value(hi) = f_hi; the
    # secant runs on the weights w_lo and w_hi, and kept is -1 (+1) when the
    # last step kept lo (hi)
    w_lo, w_hi, kept = f_lo, f_hi, 0
    while hi - lo > 1:
        span = w_hi - w_lo
        # a weight that is infinite or NaN has no secant: bisect instead
        mid = lo + math.ceil((hi - lo) * (-w_lo / span)) if 0.0 < span < math.inf \
            else (lo + hi) // 2
        mid = min(max(mid, lo + 1), hi - 1)
        f_mid = value(mid)
        if f_mid > 0.0:
            hi, f_hi, w_hi = mid, f_mid, f_mid
            if kept < 0:
                w_lo /= 2.0
            kept = -1
        else:
            lo, f_lo, w_lo = mid, f_mid, f_mid
            if kept > 0:
                w_hi /= 2.0
            kept = 1
    if not (f_hi > 0.0 and f_lo <= 0.0):
        raise ArithmeticError(f"positivity crossing not locally monotone near n={hi}")
    return hi


def plan_desk_exact(src: JointSource, n: int, eps: float, sigma: float) -> Plan:
    """Exactly analyzable desk-scale plan for the binary cascade source.

    The guess list is the Hamming ball whose binomial tail mass is at most
    eps/2; the hash length covers the list's collision mass with another
    eps/2; the key length is the largest ell with
    (1/2)*sqrt(2^(recon_bits + ell - Hmin)) <= sigma, where Hmin is the exact
    average conditional min-entropy of X^n given Z^n (product form, exact for
    IID sources).  recon_bits is capped at the encoding width n.  The zero
    seed, which fresh_seed draws too, maps every block to 0, so even at the
    cap the collision mass is 2^-n * P(e in ball), not zero.
    """
    if src.cascade is None:
        raise ValueError("desk-exact planning needs a binary cascade source")
    if not (1 <= n <= 64):
        raise ValueError(f"desk-exact planning supports 1 <= n <= 64, got {n}")
    _check_targets(eps, sigma)
    p = src.cascade.p

    # exact binomial survival scan: smallest d with P(Bin(n, p) > d) <= eps/2
    pmf = [math.comb(n, k) * p ** k * (1.0 - p) ** (n - k) for k in range(n + 1)]
    ball_radius = None
    for d in range(n + 1):
        tail = sum(pmf[d + 1:])
        if tail <= eps / 2.0:
            ball_radius = d
            break
    assert ball_radius is not None  # tail at d = n is exactly 0

    list_size = hamming_ball_size(n, ball_radius)
    recon_bits = min(n, math.ceil(math.log2(list_size) + math.log2(2.0 / eps)))

    # -log2 probability of a flip pattern of exactly ball_radius errors;
    # p = 0 forces ball_radius = 0 so the p-term never evaluates log2(0)
    threshold = (n - ball_radius) * -math.log2(1.0 - p)
    if ball_radius > 0:
        threshold += ball_radius * -math.log2(p)

    key_real = avg_min_entropy_product(src, n) - recon_bits + 2.0 + 2.0 * math.log2(sigma)
    key_bits = max(0, math.floor(key_real))

    return Plan(
        mode="desk_exact", n=n, eps=eps, sigma=sigma,
        eps_miss=eps / 2.0, eps_collide=eps / 2.0, eps_smooth=0.0,
        miss_slack=0.0, smooth_slack=0.0,
        list_log_threshold=threshold, recon_bits=recon_bits,
        key_bits=key_bits, key_real=key_real, feasible=key_bits >= 1,
        ball_radius=ball_radius, list_size=list_size,
    )
