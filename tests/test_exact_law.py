"""Sweeps of tiny colonies against the exact law of their first winning round.

`reference.exact_rounds_law` derives P(first winner at round r) from the
model alone: uniform search, `simple`'s count/n lead probability and the
matcher's law enumerated by `exact_distribution`.  Each cell plays its
trials through `harness.run_cell`, with `lemmas.UNION_ANTS` small so that
the trials span many chunks, and a round cap at the law's horizon.  The
rounds to convergence must fit the law by a chi-square test at
alpha = 1e-3, and no trial may converge in a round the law rules out.
Golden hashes only show that an output moved; this gate tells a draw
change that keeps the model's law from one that breaks it.
"""

import math

import numpy as np
import pytest

from nestsim import harness, lemmas
from reference import cell_reports, exact_rounds_law

ALPHA = 1e-3
HORIZON = 40
TRIALS = 4000
MIN_EXPECTED = 5


def chi2_critical(df: int, alpha: float) -> float:
    """The chi-square value with upper tail `alpha` on `df` degrees of freedom.

    Bisects the regularized lower incomplete gamma function P(df/2, x/2),
    summed as its power series, which converges for every x.
    """
    a = df / 2

    def cdf(x):
        h = x / 2
        term = total = 1.0
        j = 0
        while term > 1e-17 * total:
            j += 1
            term *= h / (a + j)
            total += term
        return math.exp(a * math.log(h) - h - math.lgamma(a + 1)) * total

    lo, hi = 0.0, df + 40.0 * math.sqrt(df) + 40.0
    for _ in range(100):
        mid = (lo + hi) / 2
        lo, hi = (mid, hi) if cdf(mid) < 1 - alpha else (lo, mid)
    return hi


def chi2_fit(observed, expected):
    """(statistic, degrees of freedom) after merging bins in order until each
    expects at least MIN_EXPECTED trials."""
    obs, exp, o, e = [], [], 0, 0.0
    for oi, ei in zip(observed, expected):
        o, e = o + oi, e + ei
        if e >= MIN_EXPECTED:
            obs.append(o)
            exp.append(e)
            o, e = 0, 0.0
    obs[-1] += o
    exp[-1] += e
    obs, exp = np.asarray(obs, dtype=np.float64), np.asarray(exp)
    return float(((obs - exp) ** 2 / exp).sum()), obs.size - 1


def test_chi2_critical_values():
    # table values of the chi-square distribution's upper 1e-3 and 0.05 points
    assert chi2_critical(1, 1e-3) == pytest.approx(10.828, abs=1e-3)
    assert chi2_critical(21, 1e-3) == pytest.approx(46.797, abs=1e-3)
    assert chi2_critical(10, 0.05) == pytest.approx(18.307, abs=1e-3)


CELLS = [(algorithm, n, pattern)
         for algorithm, sizes in (("simple", (3, 4)), ("optimal", (2, 3)))
         for n in sizes
         for pattern in ("one-good", "all-good")]


@pytest.mark.parametrize("algorithm, n, pattern", CELLS)
def test_sweep_rounds_follow_the_exact_law(algorithm, n, pattern, monkeypatch):
    k = 2
    qualities = (1, 0) if pattern == "one-good" else (1, 1)
    law, tail = exact_rounds_law(algorithm, n, k, qualities, HORIZON)
    monkeypatch.setattr(lemmas, "UNION_ANTS", 256 * n)
    spec = harness.ExperimentSpec(algorithm, (n,), (k,), pattern, TRIALS, seed=1,
                                  max_rounds=HORIZON)
    reports = cell_reports(monkeypatch, spec, n, k)
    assert len(reports) == TRIALS
    observed = np.zeros(HORIZON + 1, dtype=np.int64)
    for rep in reports:
        observed[rep.rounds_to_converge - 1 if rep.converged else HORIZON] += 1
    probs = np.array([float(p) for p in (*law, tail)])
    assert not observed[probs == 0].any()
    stat, df = chi2_fit(observed[probs > 0], TRIALS * probs[probs > 0])
    assert stat < chi2_critical(df, ALPHA), (stat, df)
