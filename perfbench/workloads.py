"""The benchmark's workloads: inputs made from the seed, the operations timed,
the checks made afterwards, and the metrics each one reports.

Every workload calls omska only through attribute lookups on its modules at
call time (om.protocol.run_session, ...), so the tracer's rebinding of those
names takes effect, and through omska.cli.main called in-process.
"""

from __future__ import annotations

import contextlib
import io
import json
import math
from array import array
from collections import Counter

import numpy as np

import oracles as orc

EPS = SIGMA = 0.05
CASCADE = (0.02, 0.15)
OUTCOMES = ("agreed", "aborted", "mismatched")
WINDOW_S = 1.0
FAILED = "operation raised"  # recorded in place of the result of an operation that raised
BOUNDS = {"theorem_main": "bound_theorem_main", "remark": "bound_remark",
          "berry_esseen": "bound_berry_esseen", "hr_linear": "bound_hr_random_linear",
          "hr_concat": "bound_hr_concatenated"}


def cli_call(om, argv: list[str]) -> tuple[int, object]:
    """omska.cli.main in-process, its JSON output parsed."""
    buf = io.StringIO()
    with contextlib.redirect_stdout(buf):
        code = om.cli.main(argv)
    return code, json.loads(buf.getvalue())


def _cli_hook(counts, root, args, kwargs, result, dur):
    counts[f"cli.{args[0][0]}.s"] += dur
    counts[f"cli.{args[0][0]}.calls"] += 1


def common_layers(agg: dict, counts: Counter) -> dict:
    def per_call(name, scale):
        calls = sum(v[0] for (r, nm), v in agg.items() if nm == name)
        incl = sum(v[1] for (r, nm), v in agg.items() if nm == name)
        return incl / calls * scale if calls else 0.0

    def cli(sub, scale):
        calls = counts[f"cli.{sub}.calls"]
        return counts[f"cli.{sub}.s"] / calls * scale if calls else 0.0
    return {"planner.plan_desk_exact.ms": per_call("planner.plan_desk_exact", 1e3),
            "cli.main.run_s": cli("run", 1.0), "cli.main.verify_s": cli("verify", 1.0),
            "cli.main.threshold_ms": cli("threshold", 1e3),
            "cli.main.bounds_ms": cli("bounds", 1e3)}


class Workload:
    """One closed loop: op(i) runs the i-th operation, of kind kind(i); a run
    holds whole rounds of round_len operations.

    Subclasses define setup() (source, plan, one warm-up operation), kind(),
    op(), work(), check() -> (problems, info) and layers(aggregated spans,
    hook counts, info).  record() keeps only what the metrics and checks
    need, in fixed-size or compact form, so that memory does not grow with
    the machine's speed and move peak_rss_mb.  work() gives an operation's
    units of work, the seconds its rate divides by, and whether its latency
    is an op_p50_ms sample."""

    round_len = 1

    def __init__(self, om, seed: int):
        self.om = om
        self.seed = seed

    def hooks(self) -> dict:
        return {"cli.main": _cli_hook}

    def overhead_ops(self) -> int:
        """Operations timed untraced, then traced, for the tracing overhead."""
        return self.round_len

    def min_ops(self) -> int:
        """Operations every run makes, however short --seconds is."""
        return self.round_len

    def start(self) -> None:
        """Forget recorded results; called before the measured loop."""
        self.results = []   # the first round's
        self.differs = []   # later operations whose result differs from round 1
        self.windows = []   # (work_per_s, median latency) of each window
        self._open_window()

    def _open_window(self) -> None:
        self._units = self._counted = self._spent = 0.0
        self._lats = []

    def record(self, i: int, result, lat: float, failed: bool = False) -> None:
        result = FAILED if failed else result
        self.keep(i, result)
        units, counted, sample = self.work(i, result, lat)
        if sample:
            self._lats.append(lat)
        self._units += units
        self._counted += counted
        self._spent += lat
        # the metrics are medians over windows of whole rounds lasting at
        # least WINDOW_S each: a burst or stall of a shared machine that
        # covers a few windows does not move them
        if (i + 1) % self.round_len == 0 and self._spent >= WINDOW_S:
            self._close_window()

    def _close_window(self) -> None:
        rate = self._units / self._counted if self._counted else 0.0
        self.windows.append((rate, float(np.median(self._lats))))
        self._open_window()

    def end_to_end(self) -> dict:
        if not self.windows:   # a run shorter than one window
            self._close_window()
        rates, lats = zip(*self.windows)
        return {"work_per_s": float(np.median(rates)),
                "op_p50_ms": float(np.median(lats)) * 1e3}

    def keep(self, i: int, result) -> None:
        """Keep the first round for check(); later rounds must repeat it."""
        if i < self.round_len:
            self.results.append(result)
            return
        first = self.results[i % self.round_len]
        if FAILED not in (result, first) and result != first:
            self.differs.append(i)


# ------------------------------------------------------------- sessions

class Sessions(Workload):

    def __init__(self, om, seed, ball: bool):
        super().__init__(om, seed)
        self.ball = ball
        # the first `fixed` sessions are classified by the reference list;
        # the Wilson check covers the first `judged`, enough that a plan
        # failing at its expected rate (2.5 % ball, 1.9 % general) clears
        # eps = 5 % by more than 5 standard errors
        self.fixed = 300 if ball else 100
        self.judged = 2000 if ball else 1000
        self.n = 32 if ball else 16
        self.joint = orc.cascade_joint(*CASCADE) if ball else orc.symmetric_joint(3, 0.03, 0.3)
        self.width = 1 if ball else 2
        self.cost = orc.cond_cost(self.joint)
        if not ball:
            self.desc = json.dumps({"alphabet_sizes": [3, 3, 3],
                                    "pmf": self.joint.ravel().tolist()})
            self.plan_fields = self._general_plan_fields()

    def _general_plan_fields(self) -> dict:
        # list threshold: exact 1 - eps_miss quantile of the surprisal; check
        # length covers the list's collision mass with eps_collide; key length
        # is the first-order n H(X|Z) - t (gives the extraction hash work, not
        # an audited secrecy level).  The 3:1 split leaves the failure rate
        # (about 2%) far enough under eps that a 1000-session Wilson interval
        # clears it on every seed.
        eps_miss, eps_collide = 0.75 * EPS, 0.25 * EPS
        lam, _ = orc.surprisal_quantile(self.joint, self.n, eps_miss)
        size = orc.guess_values(np.zeros(self.n, dtype=np.int64), self.cost, lam,
                                self.width).size
        t = math.ceil(math.log2(size) + math.log2(1 / eps_collide))
        key_real = self.n * orc.cond_entropy(self.joint.sum(axis=1)) - t
        ell = max(0, math.floor(key_real))
        return dict(mode="desk_exact", n=self.n, eps=EPS, sigma=SIGMA,
                    eps_miss=eps_miss, eps_collide=eps_collide, eps_smooth=0.0,
                    miss_slack=0.0, smooth_slack=0.0, list_log_threshold=lam,
                    recon_bits=t, key_bits=ell, key_real=key_real, feasible=ell >= 1,
                    list_size=size)

    def setup(self) -> None:
        om = self.om
        if self.ball:
            self.src = om.source.bsc_chain(*CASCADE)
            self.plan = om.planner.plan_desk_exact(self.src, self.n, EPS, SIGMA)
        else:
            self.src = om.source.load_joint_pmf(self.desc)
            self.plan = om.planner.Plan(**self.plan_fields)
        om.protocol.run_session(self.src, self.plan, np.random.SeedSequence([self.seed, 1]))

    def overhead_ops(self) -> int:
        return self.fixed

    def min_ops(self) -> int:
        return self.judged

    def kind(self, i: int) -> str:
        return "session"

    def op(self, i: int):
        # the i-th child of SeedSequence(seed), as `omska run --seed` spawns them
        seq = np.random.SeedSequence(self.seed, spawn_key=(i,))
        return self.om.protocol.run_session(self.src, self.plan, seq)

    def hooks(self) -> dict:
        def rows(counts, root, args, kwargs, result, dur):
            if root == "bench.session":
                counts["guess_set.rows"] += result.shape[0]
        return {**super().hooks(), "protocol.guess_set": rows}

    def work(self, i: int, result, lat: float):
        return 1, lat, True

    def keep(self, i: int, r) -> None:
        # compact columns: 176 bytes a session
        if r is FAILED:
            self.blocks += bytes(3 * self.n)
            self.ints.extend((0,) * 9 + (len(OUTCOMES),))
            return
        dec = r.decoded if r.decoded is not None else np.zeros(self.n, dtype=np.int64)
        self.blocks += np.concatenate([r.x, r.y, dec]).astype(np.uint8).tobytes()
        tr = r.transcript
        self.ints.extend((tr.recon_seed.value, tr.key_seed.value, tr.check_value.value,
                          r.key_alice.value, r.key_bob.value if r.key_bob else 0,
                          r.decoded is not None, tr.recon_seed.length,
                          tr.check_value.length, r.key_alice.length,
                          OUTCOMES.index(r.outcome)))

    def start(self) -> None:
        super().start()
        self.blocks = bytearray()
        self.ints = array("Q")

    def check(self) -> tuple[list[str], dict]:
        problems: list[str] = []
        plan, cost, width, n = self.plan, self.cost, self.width, self.n
        lam, t, ell = plan.list_log_threshold, plan.recon_bits, plan.key_bits
        m = n * width
        poly = orc.first_irreducible(m)

        def top(prod, bits):
            return prod >> np.uint64(m - bits) if bits else np.zeros_like(prod)

        blocks = np.frombuffer(bytes(self.blocks), dtype=np.uint8).reshape(-1, 3, n)
        cols = np.frombuffer(self.ints, dtype=np.uint64).reshape(-1, 10)
        done = cols[:, 9] < len(OUTCOMES)
        place = np.uint64(width) * np.arange(n - 1, -1, -1, dtype=np.uint64)
        enc = (blocks.astype(np.uint64) << place).sum(axis=2, dtype=np.uint64)
        y, dec = (blocks[:, k].astype(np.int64) for k in (1, 2))
        xs, dv = enc[:, 0], enc[:, 2]
        rseed, kseed, checks, ka, kb, has_dec = (cols[:, k] for k in range(6))
        outcome = cols[:, 9]
        aborted = outcome == OUTCOMES.index("aborted")
        if np.any(cols[done, 6] != m) or np.any(cols[done, 7] != t) \
                or np.any(cols[done, 8] != ell):
            problems.append("transcript or key widths disagree with the plan")
        if not np.array_equal(top(orc.gf_mul_vec(xs, rseed, poly), t)[done], checks[done]):
            problems.append("check value differs from the reference multiply")
        if not np.array_equal(top(orc.gf_mul_vec(xs, kseed, poly), ell)[done], ka[done]):
            problems.append("sender key differs from the reference multiply")
        if np.any(((has_dec == 0) != aborted)[done]):
            problems.append("a decoded block is missing from a kept session "
                            "or present in an aborted one")
        d = done & (has_dec == 1)
        if np.any(cost[dec[d], y[d]].sum(axis=1) > lam + 1e-9):
            problems.append("a decoded block lies outside the list threshold")
        if not np.array_equal(top(orc.gf_mul_vec(dv, rseed, poly), t)[d], checks[d]):
            problems.append("a decoded block does not hash to the check value")
        if not np.array_equal(top(orc.gf_mul_vec(dv, kseed, poly), ell)[d], kb[d]):
            problems.append("receiver key differs from the reference multiply")
        if not np.array_equal(kb[d] == ka[d], outcome[d] == OUTCOMES.index("agreed")):
            problems.append("agreed/mismatched disagrees with the keys")
        # with a 0-bit key a wrongly decoded block still counts as agreed
        agreed_wrong = int(np.sum(d & (outcome == OUTCOMES.index("agreed")) & (dv != xs)))

        # fixed sample: the benchmark's own list predicts each outcome and
        # splits each failure into a miss or a collision
        tally: Counter = Counter()
        split: Counter = Counter()
        sizes = set()
        for j in range(min(self.fixed, len(cols))):
            if not done[j]:
                continue
            vals = orc.guess_values(y[j], cost, lam, width)
            sizes.add(int(vals.size))
            hits = vals[top(orc.gf_mul_vec(vals, rseed[j], poly), t) == checks[j]]
            if hits.size == 1:
                key = int(top(orc.gf_mul_vec(hits, kseed[j], poly), ell)[0])
                predicted = "agreed" if key == int(ka[j]) else "mismatched"
                if not has_dec[j] or dv[j] != hits[0]:
                    problems.append(f"session {j}: decoded block is not the unique match")
            else:
                predicted = "aborted"
            said = OUTCOMES[outcome[j]]
            if predicted != said:
                problems.append(f"session {j}: reference predicts {predicted}, program says {said}")
            tally[said] += 1
            if predicted != "agreed":
                split["missed" if not np.any(vals == xs[j]) else "collided"] += 1
        if sizes != {plan.list_size}:
            problems.append(f"reference list sizes {sorted(sizes)} != plan {plan.list_size}")

        # a session fails unless it agreed on the true block
        judged = done[:self.judged]
        sessions = int(judged.sum())
        good = (outcome == OUTCOMES.index("agreed")) & (has_dec == 1) & (dv == xs)
        failures = sessions - int(np.sum(good[:self.judged][judged]))
        upper = orc.wilson_upper(failures, sessions)
        if upper > plan.eps:
            problems.append(f"Wilson upper {upper:.4f} of {failures}/{sessions} exceeds eps")

        if self.ball and done[:self.fixed].all():
            code, out = cli_call(self.om, [
                "run", "--bsc", f"{CASCADE[0]},{CASCADE[1]}", "--n", str(n),
                "--mode", "desk_exact", "--trials", str(self.fixed),
                "--seed", str(self.seed)])
            if Counter(out["outcome_counts"]) != tally:
                problems.append(f"CLI run tally {out['outcome_counts']} != {dict(tally)}")
            if code != (0 if out["meets_target"] else 1):
                problems.append(f"CLI run exit code {code} disagrees with meets_target")
        info = {"outcome": tally, "split": split, "wilson_upper": upper,
                "failures": failures, "sessions": sessions, "agreed_wrong_block": agreed_wrong}
        return problems, info

    def layers(self, agg: dict, counts: Counter, info: dict) -> dict:
        root = "bench.session"
        sessions = agg.get((root, root), (0, 0.0, 0.0))[0] or 1

        def get(name):
            return agg.get((root, name), (0, 0.0, 0.0))

        def per_call(name, scale, idx=1):
            c = get(name)
            return c[idx] / c[0] * scale if c[0] else 0.0
        detect, hashes = get("source.detect_bsc_chain"), get("uhash.hash")
        guess_calls = get("protocol.guess_set")[0]
        plan = self.plan
        out = {
            "source.detect_bsc_chain.calls_per_session": detect[0] / sessions,
            "source.detect_bsc_chain.us_per_session": detect[1] / sessions * 1e6,
            "source.sample.us": per_call("source.sample", 1e6),
            "uhash.fresh_seed.us": per_call("uhash.fresh_seed", 1e6),
            "uhash.SeedHasher.build_us": per_call("uhash.SeedHasher.build", 1e6),
            "uhash.hash.calls_per_session": hashes[0] / sessions,
            "uhash.hash.us_per_session": hashes[1] / sessions * 1e6,
            "protocol.guess_set.ms": per_call("protocol.guess_set", 1e3),
            "protocol.guess_set.rows":
                counts["guess_set.rows"] / guess_calls if guess_calls else 0.0,
            "protocol.bob_decode.self_ms": per_call("protocol.bob_decode", 1e3, idx=2),
            # computed from the plan, not measured
            "protocol.ball_candidates": plan.list_size if plan.ball_radius is not None else 0,
            "protocol.alice_send.us": per_call("protocol.alice_send", 1e6),
            "protocol.bob_extract.us": per_call("protocol.bob_extract", 1e6),
            "protocol.run_session.self_us": per_call("protocol.run_session", 1e6, idx=2),
        }
        for k in ("agreed", "aborted", "mismatched"):
            out[f"protocol.outcome.{k}"] = info["outcome"][k]
        for k in ("missed", "collided"):
            out[f"bench.failed.{k}"] = info["split"][k]
        return out


# --------------------------------------------------------------- secrecy

# (t, ell, sampling): None enumerates all 2^16 seed pairs; ("recon", R) draws R
# reconciliation seeds, each against every key seed; ("pairs", P) draws P
# seed pairs outright.  2^(t+ell) <= 64 buckets use the one-hot matmul
# accumulator, wider ones the bincount accumulator.
SECRECY_POINTS = (
    (0, 1, None), (1, 1, None),
    (1, 2, ("recon", 64)), (4, 4, ("pairs", 512)),
)
SECRECY_N = 8
MATMUL_MAX_BUCKETS = 64


class Secrecy(Workload):
    round_len = len(SECRECY_POINTS) + 1

    def setup(self) -> None:
        om = self.om
        self.src = om.source.bsc_chain(*CASCADE)
        self.plans = [self._hand_plan(t, ell) for t, ell, _ in SECRECY_POINTS]
        om.verifier.secrecy_sd_exact(self.src, self._hand_plan(1, 1), seed_pairs=8,
                                     rng_seed=self.seed)

    def _hand_plan(self, t: int, ell: int):
        return self.om.planner.Plan(
            mode="desk_exact", n=SECRECY_N, eps=0.5, sigma=0.5, eps_miss=0.25,
            eps_collide=0.25, eps_smooth=0.1, miss_slack=0.0, smooth_slack=0.0,
            list_log_threshold=float(SECRECY_N), recon_bits=t, key_bits=ell,
            key_real=float(ell), feasible=ell >= 1)

    def kind(self, i: int) -> str:
        return "point"

    def op(self, i: int):
        j = i % self.round_len
        if j == len(SECRECY_POINTS):
            code, out = cli_call(self.om, [
                "verify", "--bsc", f"{CASCADE[0]},{CASCADE[1]}", "--n", str(SECRECY_N),
                "--recon-seeds", "16", "--seed", str(self.seed)])
            out["exit_code"] = code
            return out
        t, ell, sampling = SECRECY_POINTS[j]
        kw = {}
        if sampling is not None:
            kw = {"recon_seeds" if sampling[0] == "recon" else "seed_pairs": sampling[1],
                  "rng_seed": self.seed * len(SECRECY_POINTS) + j}
        rep = self.om.verifier.secrecy_sd_exact(self.src, self.plans[j], **kw)
        return {k: getattr(rep, k) for k in (
            "recon_bits", "key_bits", "sd", "exact", "seed_pairs", "std_error",
            "avg_min_entropy", "lhl_bound", "meets_lhl")}

    def hooks(self) -> dict:
        def acc(counts, root, args, kwargs, result, dur):
            if root != "bench.point":  # not the warm-up in setup()
                return
            kind = "matmul" if 1 << (result.recon_bits + result.key_bits) \
                <= MATMUL_MAX_BUCKETS else "bincount"
            counts[f"sd.{kind}.s"] += dur
            counts[f"sd.{kind}.calls"] += 1
            counts[f"sd.{kind}.pairs"] += result.seed_pairs
        return {**super().hooks(), "verifier.secrecy_sd_exact": acc}

    def check(self) -> tuple[list[str], dict]:
        problems: list[str] = []
        m = SECRECY_N
        poly = orc.first_irreducible(m)
        delta = CASCADE[0] * (1 - CASCADE[1]) + (1 - CASCADE[0]) * CASCADE[1]
        hmin = orc.avg_min_entropy_cascade(m, delta)
        truth: dict[tuple, float] = {}
        problems += [f"operation {j} differs from the same point in round 1"
                     for j in self.differs[:10]]
        seen = []
        for j, r in enumerate(self.results):
            if r is FAILED:
                continue
            t, ell = r["recon_bits"], r["key_bits"]
            if j == len(SECRECY_POINTS):
                if r["exit_code"] != (0 if r["meets_target"] else 1):
                    problems.append("CLI verify exit code disagrees with meets_target")
                want_pairs, exact = 16 << m, False
            else:
                sampling = SECRECY_POINTS[j][2]
                exact = sampling is None
                want_pairs = (1 << 2 * m) if exact else (
                    sampling[1] << m if sampling[0] == "recon" else sampling[1])
            if (t, ell) not in truth:
                truth[(t, ell)] = float(orc.cascade_sd_table(m, t, ell, delta, poly).mean())
            ref = truth[(t, ell)]
            sd, se = r["sd"], r["std_error"]
            if r["exact"] != exact or r["seed_pairs"] != want_pairs:
                problems.append(f"({t},{ell}): exact={r['exact']} pairs={r['seed_pairs']}")
            slack = 1e-9 if exact else 4.0 * (se or 0.0) + 1e-12
            if abs(sd - ref) > slack:
                problems.append(f"({t},{ell}): sd {sd!r} vs reference {ref!r}, allowed {slack:.3g}")
            lhl = min(1.0, 0.5 * math.sqrt(2.0 ** (t + ell - hmin)))
            if abs(r["avg_min_entropy"] - hmin) > 1e-9 or abs(r["lhl_bound"] - lhl) > 1e-12:
                problems.append(f"({t},{ell}): min-entropy or extraction bound differs")
            if not (0.0 <= sd <= lhl + max(slack, 1e-12)):
                problems.append(f"({t},{ell}): sd {sd!r} outside [0, lhl {lhl!r}]")
            if ell == 0 and sd != 0.0:
                problems.append(f"({t},0): sd {sd!r} is not 0 for an empty key")
            seen.append((t, ell, sd, max(slack, 1e-12)))
        for t, ell, sd, tol in seen:
            for t2, ell2, sd2, tol2 in seen:
                if t <= t2 and ell <= ell2 and sd > sd2 + tol + tol2:
                    problems.append(f"sd not monotone: ({t},{ell}) > ({t2},{ell2})")
        return problems, {"reference": {f"{t},{ell}": v for (t, ell), v in truth.items()}}

    def work(self, i: int, result, lat: float):
        return (0 if result is FAILED else result["seed_pairs"]), lat, True

    def layers(self, agg: dict, counts: Counter, info: dict) -> dict:
        out = {}
        for kind in ("matmul", "bincount"):
            calls, s = counts[f"sd.{kind}.calls"], counts[f"sd.{kind}.s"]
            out[f"verifier.secrecy_sd_exact.s_{kind}"] = s / calls if calls else 0.0
            out[f"verifier.secrecy_sd_exact.pairs_per_s_{kind}"] = \
                counts[f"sd.{kind}.pairs"] / s if s else 0.0
        return out


# -------------------------------------------------------------- planning

PLANNING_P = (0.01, 0.02, 0.05)
PLANNING_Q = (0.1, 0.15, 0.25)
PLANNING_TARGETS = ((0.05, 0.05), (0.01, 0.1))
SWEEP_N = (100, 1000, 10_000, 100_000, 1_000_000)
CLI_N_RANGE = "1000:10000:1000"


class Planning(Workload):

    def __init__(self, om, seed):
        super().__init__(om, seed)
        # grid points jittered by up to +-10% from the seed, all with p > 0
        rng = np.random.default_rng([seed, 3])
        self.grid = [(float(p * (1 + 0.2 * (rng.random() - 0.5))),
                      float(q * (1 + 0.2 * (rng.random() - 0.5))), eps, sigma)
                     for p in PLANNING_P for q in PLANNING_Q
                     for eps, sigma in PLANNING_TARGETS]
        self.ops = [("search", g, b) for g in range(len(self.grid)) for b in BOUNDS]
        self.ops += [("eval", g, b, n) for g in range(len(self.grid)) for b in BOUNDS
                     for n in SWEEP_N]
        self.ops += [("cli", "threshold"), ("cli", "bounds")]
        self.round_len = len(self.ops)

    def setup(self) -> None:
        om = self.om
        self.profiles = [om.source.entropy_profile(om.source.bsc_chain(p, q))
                         for p, q, _, _ in self.grid]
        self._search(0, "theorem_main")

    def _search(self, g, bound):
        _, _, eps, sigma = self.grid[g]
        return self.om.planner.min_positive_n(bound, eps, sigma, self.profiles[g], 2, 2)

    def _bound(self, g, bound, n):
        _, _, eps, sigma = self.grid[g]
        fn = getattr(self.om.planner, BOUNDS[bound])
        if bound == "berry_esseen":
            return fn(n, eps, sigma, self.profiles[g])
        if bound.startswith("hr_"):
            return fn(n, eps, sigma, self.profiles[g], 2, 2)
        return fn(n, eps, sigma, self.profiles[g], 2)

    def _cli_argv(self, sub):
        p, q, eps, sigma = self.grid[0]
        argv = [sub, "--bsc", f"{p!r},{q!r}", "--eps", repr(eps), "--sigma", repr(sigma)]
        return argv + (["--n-range", CLI_N_RANGE] if sub == "bounds" else [])

    def kind(self, i: int) -> str:
        return self.ops[i % self.round_len][0]

    def op(self, i: int):
        spec = self.ops[i % self.round_len]
        if spec[0] == "search":
            return self._search(spec[1], spec[2])
        if spec[0] == "eval":
            rep = self._bound(spec[1], spec[2], spec[3])
            return rep.value_bits, rep.rate
        return cli_call(self.om, self._cli_argv(spec[1]))

    def hooks(self) -> dict:
        def searches(counts, root, args, kwargs, result, dur):
            if root == "bench.search":
                counts[f"mpn.{args[0]}.s"] += dur
                counts[f"mpn.{args[0]}.calls"] += 1
        return {**super().hooks(), "planner.min_positive_n": searches}

    def check(self) -> tuple[list[str], dict]:
        problems = [f"operation {j} differs from round 1" for j in self.differs[:10]]
        caps = [orc.h2(p * (1 - q) + (1 - p) * q) - orc.h2(p) for p, q, _, _ in self.grid]
        found = {}
        for spec, r in zip(self.ops, self.results):
            if r is FAILED:
                continue
            if spec[0] == "search":
                g, b = spec[1], spec[2]
                found[(g, b)] = r
                if r is None:
                    problems.append(f"{b} on grid {g}: no crossing below the ceiling")
                    continue
                here = self._bound(g, b, r)
                if not here.value_bits > 0.0 or here.rate > caps[g] + 1e-12:
                    problems.append(f"{b} on grid {g}: value {here.value_bits} at n*={r}")
                if r - 1 >= 2 and self._bound(g, b, r - 1).value_bits != 0.0:
                    problems.append(f"{b} on grid {g}: positive at n*-1={r - 1}")
            elif spec[0] == "eval":
                if r[1] > caps[spec[1]] + 1e-12 or r[0] < 0.0:
                    problems.append(f"{spec}: rate {r[1]} above capacity {caps[spec[1]]}")
            elif spec[1] == "threshold":
                code, out = r
                lib = {b: found.get((0, b)) for b in BOUNDS}
                if code != 0 or out != lib:
                    problems.append(f"CLI threshold {out} (exit {code}) != library {lib}")
            else:
                code, rows = r
                if code != 0 or abs(rows[0]["rate"] - caps[0]) > 1e-12:
                    problems.append(f"CLI bounds capacity row {rows[0]} vs {caps[0]}")
                start, stop, step = (int(v) for v in CLI_N_RANGE.split(":"))
                for row in rows[1:]:
                    lib = self._bound(0, row["bound_name"], row["n"])
                    if row["value_bits"] != lib.value_bits or row["rate"] > caps[0] + 1e-12:
                        problems.append(f"CLI bounds row {row} vs library {lib.value_bits}")
                if len(rows) != 1 + len(BOUNDS) * len(range(start, stop + 1, step)):
                    problems.append(f"CLI bounds gave {len(rows)} rows")
        return problems, {"crossings": {f"{g},{b}": v for (g, b), v in found.items()}}

    def work(self, i: int, result, lat: float):
        kind = self.kind(i)
        return (1, lat, False) if kind == "eval" else (0, 0.0, kind == "search")

    def layers(self, agg: dict, counts: Counter, info: dict) -> dict:
        out = {}
        for b, fn in BOUNDS.items():
            calls = counts[f"mpn.{b}.calls"]
            out[f"planner.min_positive_n.us.{b}"] = \
                counts[f"mpn.{b}.s"] / calls * 1e6 if calls else 0.0
            c = agg.get(("bench.eval", f"planner.{fn}"), (0, 0.0, 0.0))
            out[f"planner.bound.us.{b}"] = c[1] / c[0] * 1e6 if c[0] else 0.0
        return out


WORKLOADS = {
    "session-ball-n32": lambda om, seed: Sessions(om, seed, ball=True),
    "session-general-n16": lambda om, seed: Sessions(om, seed, ball=False),
    "secrecy-n8": Secrecy,
    "planning": Planning,
}
