"""End-to-end acceptance checks.

Each test prints one summary line (visible with `pytest -s`) and asserts the
stated threshold.  Monte Carlo thresholds carry standard-error-aware margins
chosen so false failures stay below roughly 1e-3 per check.
"""

import itertools
import math

import numpy as np

from nestsim import harness
from nestsim.config import ColonyConfig
from nestsim.engine import run, stream_from_key
from nestsim.lemmas import (
    ScenarioSpec,
    dropout_time,
    ignorance_retention,
    initial_gap_expectation,
    nest_delta_distribution,
    recruit_success_rate,
)
from nestsim.matching import match_arrays
from reference import RecruitCall, exact_distribution, play_on


def _report(num, name, ok, detail=""):
    line = f"[acceptance] {num:02d} {name}: {'PASS' if ok else 'FAIL'}"
    if detail:
        line += f"  ({detail})"
    print(line, flush=True)
    assert ok, line


# --- 1: matcher vs exact oracle -------------------------------------------

def _canonical_targets(targets):
    relabel, out = {}, []
    for t in targets:
        relabel.setdefault(t, len(relabel) + 1)
        out.append(relabel[t])
    return tuple(out)


def _pool_orbit_reps(m):
    """Distinct (active, targets) configurations up to ant relabeling.

    The matcher is exchangeable in pool positions (uniform permutation,
    uniform picks), so one representative per relabeling orbit covers the
    whole configuration space.
    """
    perms = list(itertools.permutations(range(m)))
    reps = set()
    for active in itertools.product((0, 1), repeat=m):
        for targets in itertools.product(range(m), repeat=m):
            canon = min(
                (
                    tuple(active[p] for p in perm),
                    _canonical_targets([targets[p] for p in perm]),
                )
                for perm in perms
            )
            reps.add(canon)
    return sorted(reps)


def _outcome_codes(recruiter, returned, m):
    """One integer per trial for its (recruiter row, returned row).

    Shifted by one (nobody, -1, becomes 0) a recruiter row holds 0..m, and a
    returned row holds nests 1..m, so the 2m values of a trial are the digits
    of one base-(m+1) number.
    """
    digits = np.concatenate((np.asarray(recruiter) + 1, returned), axis=1)
    return digits @ (m + 1) ** np.arange(2 * m)


def test_acceptance_01_matcher_oracle_equivalence():
    draws = 100_000
    per_call = 4096  # trials resolved by one pooled matcher call
    worst = 0.0
    checked = 0
    for m in range(1, 5):
        for active, targets in _pool_orbit_reps(m):
            calls = [RecruitCall(i, active[i], targets[i]) for i in range(m)]
            dist = {}
            for (pairs, returned), p in exact_distribution(calls).items():
                recruiter = [-1] * m
                for a, x in pairs:
                    recruiter[x] = a
                row = [[nest for _, nest in returned]]
                dist[int(_outcome_codes([recruiter], row, m)[0])] = float(p)
            rng = stream_from_key(404, m, checked)
            codes = []
            for start in range(0, draws, per_call):
                t = min(per_call, draws - start)
                pairs, returned = match_arrays(
                    np.tile(active, t).astype(bool), np.tile(targets, t), rng, np.full(t, m)
                )
                recruiter = np.full(t * m, -1)
                recruiter[pairs[:, 1]] = pairs[:, 0] % m
                codes.append(
                    _outcome_codes(recruiter.reshape(t, m), returned.reshape(t, m), m)
                )
            values, counts = np.unique(np.concatenate(codes), return_counts=True)
            freq = dict(zip(values.tolist(), counts.tolist()))
            checked += 1
            for key in set(dist) | set(freq):
                gap = abs(freq.get(key, 0) / draws - dist.get(key, 0.0))
                worst = max(worst, gap)
    _report(
        1,
        "matcher-oracle equivalence",
        worst <= 0.01,
        f"{checked} configurations, worst gap {worst:.4f}",
    )


# --- 2: recruiter success floor -------------------------------------------

def test_acceptance_02_recruit_success_floor():
    compositions = [
        ((1, 2, 1),),
        ((1, 8, 1),),
        ((1, 16, 1), (2, 16, 0)),
    ]
    rates = []
    for groups in compositions:
        report = recruit_success_rate(ScenarioSpec(groups, 100_000, 202))
        rates.append(report.estimates["success_rate"])
    ok = all(rate >= 1 / 16 for rate in rates)
    _report(2, "recruit success >= 1/16", ok, f"rates {[f'{r:.3f}' for r in rates]}")


# --- 3: ignorance retention and rumor-spread growth -----------------------

def test_acceptance_03_ignorance_retention():
    ok = True
    details = []
    for n in (16, 256):
        report = ignorance_retention(n, 10_000, 303)
        ok &= report.passed
        details.append(f"n={n} ok={report.passed}")
    lo = ignorance_retention(64, 1_000, 303)
    hi = ignorance_retention(4096, 1_000, 303)
    ok &= lo.passed and hi.passed
    floor_lo = lo.estimates["rounds_to_full_min"]
    floor_hi = hi.estimates["rounds_to_full_min"]
    ok &= floor_hi > floor_lo
    details.append(f"min rounds 64->{floor_lo}, 4096->{floor_hi}")
    _report(3, "ignorance retention >= 1/4 and spread grows", ok, "; ".join(details))


# --- 4 + 5: population-change symmetry and drop-out floor -----------------

def _delta_reports():
    compositions = [
        ((1, 8, 1), (2, 8, 1)),
        ((1, 20, 1), (2, 10, 1)),
        ((1, 30, 1), (2, 10, 1), (3, 10, 1)),
    ]
    return [
        nest_delta_distribution(ScenarioSpec(groups, 100_000, 404))
        for groups in compositions
    ]


def test_acceptance_04_and_05_population_change_distribution():
    reports = _delta_reports()
    sym_ok = all(
        checks["symmetric"]
        for report in reports
        for checks in report.details.values()
    )
    _report(4, "population-change symmetry", sym_ok)
    floor_ok = all(
        checks.get("dropout_floor", True)
        for report in reports
        for checks in report.details.values()
    )
    _report(5, "drop-out probability >= 1/66", floor_ok)


# --- 6: end-to-end correctness --------------------------------------------

def test_acceptance_06_correctness_both_algorithms():
    trials = 500
    ok = True
    details = []
    for ai, algorithm in enumerate(("optimal", "simple")):
        for pi, qualities in enumerate(((1, 0, 0, 0), (1, 1, 1, 1))):
            config = ColonyConfig(
                n=256, k=4, qualities=qualities,
                algorithm=algorithm,
            )
            # the group's trials play as one batch on one stream
            outcomes = play_on([config] * trials, stream_from_key(606, ai, pi), 20)
            converged = 0
            for winner, later in outcomes:
                if winner is None:
                    continue
                if config.qualities[winner - 1] != 1:
                    break
                # the same colony plays on: the next 20 rounds keep the winner
                if later != [winner] * 20:
                    break
                converged += 1
            ok &= converged == trials
            details.append(f"{algorithm}/{'one' if pi == 0 else 'all'}-good {converged}/{trials}")
    _report(6, "correct stable convergence", ok, "; ".join(details))


# --- 7: logarithmic scaling of the drop-out strategy ----------------------

def test_acceptance_07_optimal_scaling():
    rows = harness.sweep(
        harness.ExperimentSpec(
            "optimal", (64, 256, 1024, 4096), (4,), "all-good", 200, 707
        )
    )
    medians = {row.n: row.median_rounds for row in rows}
    _, _, r2 = harness.fit_scaling(rows, "logn")
    ratio = medians[4096] / medians[64]
    ok = r2 >= 0.9 and ratio <= 2.5
    _report(
        7,
        "optimal scales with log n",
        ok,
        f"medians {medians}, r2={r2:.3f}, ratio={ratio:.2f}",
    )


# --- 8: k-linear scaling of the proportional strategy ---------------------

def test_acceptance_08_simple_scaling():
    k_rows = harness.sweep(
        harness.ExperimentSpec("simple", (4096,), (2, 4), "random:0.5", 200, 808)
    )
    ratio = k_rows[1].median_rounds / k_rows[0].median_rounds
    n_rows = harness.sweep(
        harness.ExperimentSpec(
            "simple", (1024, 4096, 16384), (4,), "all-good", 200, 808
        )
    )
    _, _, r2 = harness.fit_scaling(n_rows, "klogn")
    ok = 1.3 <= ratio <= 3.0 and r2 >= 0.85
    _report(
        8,
        "simple scales with k log n",
        ok,
        f"k-ratio={ratio:.2f}, n-fit r2={r2:.3f}",
    )


# --- 9: initial relative-gap expectation ----------------------------------

def test_acceptance_09_initial_gap_bound():
    ok = True
    details = []
    for n in (4, 8, 16):
        report = initial_gap_expectation(n, 2, "exact")
        ok &= report.passed
        details.append(
            f"n={n} E={float(report.estimates['e_gap_zero_convention']):.4f}"
        )
    mc = initial_gap_expectation(256, 2, "monte-carlo", trials=100_000, seed=909)
    ok &= mc.passed
    details.append(f"mc n=256 mean={mc.estimates['e_gap_both_nonzero']:.5f}")
    _report(9, "initial gap >= 1/(3(n-1))", ok, "; ".join(details))


# --- 10: small-nest drop-out time -----------------------------------------

def test_acceptance_10_small_nest_dropout():
    report = dropout_time(4096, 4, 16, 500, 1010)
    rate = report.estimates["within_bound_rate"]
    _report(
        10,
        "small nest empties within bound",
        rate >= 0.99,
        f"rate={rate:.3f}, median round={report.estimates['dropout_round_median']}",
    )


# --- 11: determinism -------------------------------------------------------

def test_acceptance_11_determinism():
    config = ColonyConfig(
        n=256, k=4, qualities=(1, 0, 0, 0), algorithm="simple"
    )
    t1, (r1,) = run([config], stream_from_key(111), verbose=True)
    t2, (r2,) = run([config], stream_from_key(111), verbose=True)
    runs_ok = t1.to_jsonl() == t2.to_jsonl() and r1.to_json() == r2.to_json()
    spec = harness.ExperimentSpec("optimal", (64, 128), (2,), "all-good", 20, 1111)
    csv_ok = harness.rows_to_csv(harness.sweep(spec)) == harness.rows_to_csv(
        harness.sweep(spec)
    )
    _report(11, "byte-identical reruns", runs_ok and csv_ok)
