"""Focused estimators for the per-round probabilistic bounds.

Each estimator runs an isolated scenario (one recruitment round, a rumor
spread, or a short population process) many times, reports point estimates
with standard errors, and checks them against the stated constant bounds.
Most checks allow a margin of 3-4 standard errors so false failures stay
below roughly 1e-3 per check.  Two have no margin: recruit-success passes
on a frequency >= 1/16 and dropout on a within-bound rate >= 0.99.  A mean
over fewer than 2 usable samples has no standard error (None) and fails.
All estimators are deterministic given their (spec, seed).

The Monte Carlo estimators play their trials in chunks of at most
UNION_ANTS ants, one `match_arrays(..., pool=m)` call per chunk and round,
since a call on a small pool is nearly all fixed overhead.  The chunk size
is a constant: it fixes the draw order, hence the output, and bounds memory.
One trial a chunk would draw exactly as one call per trial does.
"""

from __future__ import annotations

import math
from dataclasses import asdict, dataclass, field
from fractions import Fraction

import numpy as np

from .config import ANT_BYTES, REGIME_C, REGIME_D, check_fits
from .engine import dumps, stream_from_key
from .matching import match_arrays

RECRUIT_SUCCESS_BOUND = Fraction(1, 16)
RETENTION_BOUND = 0.25
SUM_NEGATIVE_BOUND = Fraction(1, 66)
# ants in one matcher call, here and in a sweep's batches; larger unions fall
# out of cache and get slower
UNION_ANTS = 1 << 14


class ScenarioError(ValueError):
    pass


@dataclass(frozen=True)
class ScenarioSpec:
    """Who is at the home nest for an isolated recruitment round.

    groups: sequence of (nest_id, ant_count, active_flag); trials; seed.
    """

    groups: tuple
    trials: int
    seed: int

    def __post_init__(self):
        groups = tuple((int(i), int(c), int(a)) for i, c, a in self.groups)
        object.__setattr__(self, "groups", groups)
        if not groups:
            raise ScenarioError("scenario needs at least one group")
        # an empty group would pass or fail a check on no ants at all
        if any(c < 1 for _, c, _ in groups):
            raise ScenarioError("group counts must be positive")
        _check_trials(self.trials)
        check_fits(ANT_BYTES * sum(c for _, c, _ in groups), "the scenario's pool of ants")

    def pool(self):
        """(active_flags, targets, group_index) arrays for the matcher pool."""
        nest, count, active = np.array(self.groups, dtype=np.int64).T
        gid = np.repeat(np.arange(len(self.groups)), count)
        return active[gid] != 0, nest[gid], gid


@dataclass
class EstimateReport:
    name: str
    passed: bool
    trials: int
    estimates: dict
    stderr: dict = field(default_factory=dict)
    bounds: dict = field(default_factory=dict)
    details: dict = field(default_factory=dict)
    notes: list = field(default_factory=list)

    def to_json(self) -> str:
        return dumps(asdict(self))


def _check_trials(trials):
    if trials < 1:
        raise ScenarioError("trials must be positive")


def _chunks(trials, m):
    """Trials in each successive chunk for pools of m ants, drawn lazily."""
    per = max(1, UNION_ANTS // m)
    return (min(per, trials - t) for t in range(0, trials, per))


def _bernoulli_se(p: float, trials: int) -> float:
    return math.sqrt(max(p * (1 - p), 0.0) / trials)


def _mean_se(samples):
    """(mean, SE, notes) of `samples`; the SE is None below 2 samples."""
    x = np.asarray(samples, dtype=np.float64)
    if x.size < 2:
        note = "fewer than 2 usable samples give no standard error, so no check"
        return (float(x[0]) if x.size else 0.0), None, [note]
    return float(x.mean()), float(x.std(ddof=1) / math.sqrt(x.size)), []


def recruit_success_rate(spec: ScenarioSpec) -> EstimateReport:
    """Frequency with which a designated recruiter leads another ant away.

    The designated ant is the first member of the first active group.  The
    claimed floor is 1/16 whenever at least two ants share the home nest.
    """
    flags, targets, _ = spec.pool()
    m = flags.size
    if m < 2:
        raise ScenarioError("success bound needs at least 2 ants at home")
    if not flags.any():
        raise ScenarioError("scenario has no active recruiter")
    designated = int(flags.argmax())
    rng = stream_from_key(spec.seed)
    hits = 0
    for t in _chunks(spec.trials, m):
        pairs, _returned = match_arrays(np.tile(flags, t), np.tile(targets, t), rng, pool=m)
        # a recruiter leads at most one ant, so a trial has at most one hit
        lead = pairs[:, 0]
        hits += int(np.count_nonzero((lead % m == designated) & (lead != pairs[:, 1])))
    freq = hits / spec.trials
    se = _bernoulli_se(freq, spec.trials)
    bound = float(RECRUIT_SUCCESS_BOUND)
    return EstimateReport(
        name="recruit-success",
        passed=freq >= bound,
        trials=spec.trials,
        estimates={"success_rate": freq},
        stderr={"success_rate": se},
        bounds={"success_rate_min": bound},
        details={"pool_size": m, "designated": designated},
    )


def ignorance_retention(n: int, trials: int, seed: int) -> EstimateReport:
    """Maximal rumor spreading: how slowly does one informed ant's nest id reach all?

    One informed ant starts; each round every informed ant leads recruitments
    toward the rumor nest while every ignorant ant waits.  Reports the
    per-round probability that an ignorant ant stays ignorant (claimed floor
    1/4) and the distribution of rounds until everyone is informed.
    """
    if n < 1:
        raise ScenarioError("n must be positive")
    _check_trials(trials)
    check_fits(ANT_BYTES * n, f"a pool of n={n} ants")
    if n == 1:
        return EstimateReport(
            name="ignorance-retention",
            passed=True,
            trials=trials,
            estimates={"rounds_to_full_min": 0},
            notes=["single ant is trivially informed at round 0"],
        )
    max_rounds = 40 * max(1, math.ceil(math.log2(n)))
    rng = stream_from_key(seed)
    # ignorant ants at the start and at the end of each round, over all trials
    ignorant = np.zeros((max_rounds, 2), dtype=np.int64)
    finite = []
    for t in _chunks(trials, n):
        # one row per trial not yet fully informed
        informed = np.zeros((t, n), dtype=bool)
        informed[:, 0] = True
        r = 0
        while informed.size and r < max_rounds:
            r += 1
            _pairs, returned = match_arrays(
                informed.ravel(), np.where(informed, 1, 2).ravel(), rng, pool=n
            )
            now = informed | (returned.reshape(informed.shape) == 1)
            ignorant[r - 1] += informed.size - informed.sum(), now.size - now.sum()
            done = now.all(axis=1)
            finite += [r] * int(done.sum())
            informed = now[~done]

    retention = []
    stderr = []
    ok = True
    # a trial still playing has an ignorant ant, so only unplayed rounds hold 0
    for s, e in ignorant[ignorant[:, 0] > 0].tolist():
        p = e / s
        # margin under the claimed rate itself, so sparse late rounds with
        # an empirical 0 or 1 do not produce a degenerate zero SE
        se = _bernoulli_se(float(RETENTION_BOUND), s)
        retention.append(p)
        stderr.append(se)
        if p < RETENTION_BOUND - 3 * se:
            ok = False
    return EstimateReport(
        name="ignorance-retention",
        passed=ok and len(finite) == trials,
        trials=trials,
        estimates={
            "retention_per_round": retention,
            "rounds_to_full_min": min(finite) if finite else None,
            "rounds_to_full_max": max(finite) if finite else None,
            "rounds_to_full_mean": (sum(finite) / len(finite)) if finite else None,
        },
        stderr={"retention_per_round": stderr},
        bounds={"retention_min": RETENTION_BOUND, "se_margin": 3},
        details={"n": n, "unfinished_trials": trials - len(finite)},
    )


def nest_delta_distribution(spec: ScenarioSpec) -> EstimateReport:
    """Sign distribution of each cohort's one-round population change.

    All groups must be active.  Checks the symmetry claim
    P[Y<0] = P[Y>0] (within 4 SE) for every cohort and the drop-out floor
    P[Y<0] >= 1/66 for every cohort that is a strict subset of the home nest.
    """
    if len(spec.groups) < 2:
        raise ScenarioError("symmetry check needs at least 2 cohorts")
    if any(a != 1 for _, _, a in spec.groups):
        raise ScenarioError("all home ants must be active for this check")
    flags, targets, gid = spec.pool()
    m = flags.size
    ngroups = len(spec.groups)
    rng = stream_from_key(spec.seed)
    neg = np.zeros(ngroups, dtype=np.int64)
    zero = np.zeros(ngroups, dtype=np.int64)
    pos = np.zeros(ngroups, dtype=np.int64)
    for t in _chunks(spec.trials, m):
        pairs, _returned = match_arrays(np.tile(flags, t), np.tile(targets, t), rng, pool=m)
        led = pairs[pairs[:, 0] != pairs[:, 1]]
        # each led ant moves from its group to its recruiter's, in its own trial
        cell = led // m * ngroups + gid[led % m]
        gain, loss = (np.bincount(c, minlength=t * ngroups) for c in cell.T)
        y = (gain - loss).reshape(t, ngroups)
        neg += (y < 0).sum(axis=0)
        zero += (y == 0).sum(axis=0)
        pos += (y > 0).sum(axis=0)

    t = spec.trials
    estimates, stderr, details = {}, {}, {}
    ok = True
    for g, (nest, count, _a) in enumerate(spec.groups):
        p_neg, p_zero, p_pos = neg[g] / t, zero[g] / t, pos[g] / t
        diff = abs(p_neg - p_pos)
        # the two signs are disjoint events on the same trial
        se_diff = math.sqrt(max(p_neg + p_pos - (p_neg - p_pos) ** 2, 0.0) / t)
        sym_ok = diff <= 4 * se_diff
        entry = {"p_neg": p_neg, "p_zero": p_zero, "p_pos": p_pos}
        estimates[f"nest_{nest}"] = entry
        stderr[f"nest_{nest}"] = {
            "p_neg": _bernoulli_se(p_neg, t),
            "p_pos": _bernoulli_se(p_pos, t),
            "diff": se_diff,
        }
        checks = {"symmetric": sym_ok}
        if count < m:
            checks["dropout_floor"] = p_neg >= float(SUM_NEGATIVE_BOUND)
        details[f"nest_{nest}"] = checks
        ok = ok and all(checks.values())
    return EstimateReport(
        name="nest-delta",
        passed=ok,
        trials=t,
        estimates=estimates,
        stderr=stderr,
        bounds={
            "symmetry_se_margin": 4,
            "dropout_floor": float(SUM_NEGATIVE_BOUND),
        },
        details=details,
    )


def _eps(a: int, b: int):
    hi, lo = max(a, b), min(a, b)
    return Fraction(hi, lo) - 1


def initial_gap_expectation(
    n: int,
    k: int,
    mode: str = "exact",
    trials: int = 100_000,
    seed: int = 0,
) -> EstimateReport:
    """Expected relative population gap of a nest pair after the search round.

    The claimed floor is 1/(3(n-1)).  Exact mode (k=2, n<=30) enumerates the
    binomial split; samples with an empty nest contribute zero gap, and the
    both-nonzero conditional mean is reported alongside.  Monte Carlo mode
    throws n ants into k nests and averages the gap of nests (1, 2) over the
    both-nonzero samples, reporting the excluded mass.
    """
    if not 2 <= n < 2**63 or k < 2:  # n ants are counted in int64
        raise ScenarioError("the gap of a nest pair needs 2 <= n < 2**63 and k >= 2")
    bound = Fraction(1, 3 * (n - 1))
    if mode == "exact":
        if k != 2 or not 2 <= n <= 30:
            raise ScenarioError("exact mode supports k=2 and 2 <= n <= 30")
        e_zero = Fraction(0)
        p_valid = Fraction(0)
        denom = 2**n
        for x in range(1, n):
            p = Fraction(math.comb(n, x), denom)
            e_zero += p * _eps(x, n - x)
            p_valid += p
        e_cond = e_zero / p_valid if p_valid else Fraction(0)
        notes = []
        if n <= 2:
            notes.append(
                "at n=2 the only both-nonzero split is (1,1), so the "
                "zero-convention mean is 0 and the stated floor cannot hold"
            )
        return EstimateReport(
            name="initial-gap",
            passed=e_zero >= bound,
            trials=0,
            estimates={
                "e_gap_zero_convention": e_zero,
                "e_gap_both_nonzero": e_cond,
                "excluded_mass": 1 - p_valid,
            },
            bounds={"e_gap_min": bound},
            details={"n": n, "k": k, "mode": "exact"},
            notes=notes,
        )
    if mode != "monte-carlo":
        raise ScenarioError(f"unknown mode {mode!r}")
    _check_trials(trials)
    # trials x k int64 counts, a k-entry list of p, and a few floats a trial
    check_fits(8 * (trials + 2) * (k + 5), f"{trials} trials over k={k} nests")
    rng = stream_from_key(seed)
    counts = rng.multinomial(n, [1.0 / k] * k, size=trials)
    c1 = counts[:, 0].astype(np.float64)
    c2 = counts[:, 1].astype(np.float64)
    valid = (c1 > 0) & (c2 > 0)
    eps = np.maximum(c1, c2)[valid] / np.minimum(c1, c2)[valid] - 1.0
    mean, se, notes = _mean_se(eps)
    return EstimateReport(
        name="initial-gap",
        passed=se is not None and mean >= float(bound) - 3 * se,
        trials=trials,
        estimates={
            "e_gap_both_nonzero": mean,
            "excluded_rate": 1 - eps.size / trials,
        },
        stderr={"e_gap_both_nonzero": se},
        bounds={"e_gap_min": bound, "se_margin": 3},
        details={"n": n, "k": k, "mode": "monte-carlo"},
        notes=notes,
    )


def _profile_commitments(n: int, k: int, sizes_by_nest: dict, trials: int = 1) -> np.ndarray:
    """Commitment array for a configured population profile.

    Nests named in sizes_by_nest get exactly that many ants; remaining ants
    are spread as evenly as possible over the unnamed candidate nests.  The
    k nest ids and a chunk of `_one_recruit_cycle` must fit in memory.
    """
    t = next(_chunks(trials, n))
    check_fits(24 * k + t * (ANT_BYTES * n + 8 * (k + 1)), f"n={n} ants over k={k} nests")
    if any(not 1 <= nest <= k for nest in sizes_by_nest):
        raise ScenarioError(f"profile names a nest outside the candidates 1..{k}")
    total_named = sum(sizes_by_nest.values())
    if total_named > n:
        raise ScenarioError("profile exceeds the colony size")
    rest = np.setdiff1d(np.arange(1, k + 1), list(sizes_by_nest), assume_unique=True)
    leftover = n - total_named
    if leftover and not rest.size:
        raise ScenarioError("profile leaves ants without a nest")
    named = np.repeat(list(sizes_by_nest), list(sizes_by_nest.values()))
    return np.concatenate([named, np.resize(rest, leftover)]).astype(np.int64)


def _one_recruit_cycle(commit: np.ndarray, n: int, k: int, rng) -> np.ndarray:
    """One recruitment round of the population-proportional strategy.

    `commit` holds one trial of n ants per row.  Every ant is active; each
    leads with probability (its nest's population in its row)/n, and one
    matcher call reassigns the commitments of every row.
    """
    cells = np.arange(len(commit))[:, None] * (k + 1) + commit
    p = np.bincount(cells.ravel(), minlength=len(commit) * (k + 1))[cells] / n
    leads = rng.random(commit.shape) < p
    _pairs, returned = match_arrays(leads.ravel(), commit.ravel(), rng, pool=n)
    return returned.reshape(commit.shape)


def ratio_growth(
    n: int,
    k: int,
    sizes: tuple,
    trials: int,
    seed: int,
) -> EstimateReport:
    """Mean relative-gap growth of two large nests over one recruitment round.

    Both nests must hold at least n/(dk) ants.  The claimed multiplier is
    (1 + 1/(2dk)) on the expected gap.
    """
    if len(sizes) != 2:
        raise ScenarioError("sizes must name exactly two nests")
    _check_trials(trials)
    s1, s2 = int(sizes[0]), int(sizes[1])
    threshold = n / (REGIME_D * k)
    if s1 < threshold or s2 < threshold:
        raise ScenarioError(f"both sizes must be >= n/(dk) = {threshold:.1f}")
    commit0 = _profile_commitments(n, k, {1: s1, 2: s2}, trials)
    eps_before = float(_eps(s1, s2)) if min(s1, s2) > 0 else 0.0
    rng = stream_from_key(seed)
    eps_after = []
    for t in _chunks(trials, n):
        commit = _one_recruit_cycle(np.tile(commit0, (t, 1)), n, k, rng)
        c1, c2 = (np.count_nonzero(commit == nest, axis=1) for nest in (1, 2))
        hi, lo = np.maximum(c1, c2), np.minimum(c1, c2)
        # (hi - lo) / lo rounds once, as float(_eps(hi, lo)) does
        eps_after.append((hi - lo)[lo > 0] / lo[lo > 0])
    eps_after = np.concatenate(eps_after)
    excluded = trials - eps_after.size
    mean, se, notes = _mean_se(eps_after)
    factor = 1 + 1 / (2 * REGIME_D * k)
    target = factor * eps_before
    return EstimateReport(
        name="ratio-growth",
        passed=se is not None and mean >= target - 3 * se,
        trials=trials,
        estimates={
            "eps_before": eps_before,
            "eps_after_mean": mean,
            "excluded_rate": excluded / trials,
        },
        stderr={"eps_after_mean": se},
        bounds={"growth_factor": factor, "target": target, "se_margin": 3},
        details={"n": n, "k": k, "sizes": [s1, s2], "d": REGIME_D},
        notes=notes,
    )


def dropout_time(
    n: int,
    k: int,
    seeded_small_nest: int,
    trials: int,
    seed: int,
) -> EstimateReport:
    """Rounds until an initially small nest's population reaches zero.

    The small nest starts with at most n/(dk) ants; the claim is that it
    empties within 64(c+4)k ln(n) rounds in all but a vanishing fraction of
    runs (checked against a 99% quota).  Rounds are counted as two per
    recruit/assess cycle.
    """
    _check_trials(trials)
    small = int(seeded_small_nest)
    limit = n / (REGIME_D * k)
    if not 0 <= small <= limit:
        raise ScenarioError(f"small nest must start with 0 to n/(dk) = {limit:.1f} ants")
    bound_rounds = 64 * (REGIME_C + 4) * k * math.log(n)
    if small == 0:
        return EstimateReport(
            name="dropout-time",
            passed=True,
            trials=trials,
            estimates={"within_bound_rate": 1.0, "dropout_round_max": 0},
            bounds={"round_bound": bound_rounds, "quota": 0.99},
            notes=["nest starts empty: dropout at round 0"],
        )
    commit0 = _profile_commitments(n, k, {1: small}, trials)
    rng = stream_from_key(seed)
    emptied = []
    # the per-cycle population changes of a trial sum to its end minus its start
    change, cycles = -small * trials, 0
    for t in _chunks(trials, n):
        # one row per trial whose small nest is not yet empty
        commit = np.tile(commit0, (t, 1))
        cycle = 0
        while len(commit):
            cycle += 1
            commit = _one_recruit_cycle(commit, n, k, rng)
            cycles += len(commit)
            left = np.count_nonzero(commit == 1, axis=1)
            emptied += [2 * cycle] * int(np.count_nonzero(left == 0))
            if 2 * cycle > bound_rounds:
                change += int(left.sum())
                break
            commit = commit[left > 0]
    rate = len(emptied) / trials
    return EstimateReport(
        name="dropout-time",
        passed=rate >= 0.99,
        trials=trials,
        estimates={
            "within_bound_rate": rate,
            "dropout_round_median": float(np.median(emptied)) if emptied else None,
            "dropout_round_max": max(emptied) if emptied else None,
            "mean_population_delta": change / cycles,
        },
        stderr={"within_bound_rate": _bernoulli_se(rate, trials)},
        bounds={"round_bound": bound_rounds, "quota": 0.99},
        details={"n": n, "k": k, "seeded": small, "c": REGIME_C, "d": REGIME_D},
    )
