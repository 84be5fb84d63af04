"""`simple` colonies of 64 and 256 ants against its chain on per-nest populations.

`reference.simple_chain_rounds` plays `simple` on counts: exact in law, and
sharing no draw and no code with the engine.  Each cell plays its trials
through `harness.run_cell` and through the chain, and the two samples of
rounds to convergence must agree by a two-sample chi-square test at
alpha = 1e-3.  The exact law reaches only n <= 4; this gate holds a draw
or layout change at pool sizes where the matcher runs several greedy
rounds, on batches of many colonies, through the snowballing that decides
`simple`.  It cannot see a self-pick's 1/n; that stays the exact law's job.
"""

import numpy as np
import pytest

from nestsim import harness
from reference import cell_reports, simple_chain_rounds
from test_exact_law import ALPHA, MIN_EXPECTED, chi2_critical

TRIALS = 2000
CAP = 400


def chi2_two_samples(first, second):
    """(statistic, degrees of freedom) of two equal-sized samples of rounds
    (0 for none), after merging rounds in order until each bin expects at
    least MIN_EXPECTED of either sample."""
    top = max(first.max(), second.max()) + 1
    a, b = np.bincount(first, minlength=top), np.bincount(second, minlength=top)
    bins, o1, o2 = [], 0, 0
    for x, y in zip(a, b):
        o1, o2 = o1 + x, o2 + y
        if o1 + o2 >= 2 * MIN_EXPECTED:
            bins.append((o1, o2))
            o1, o2 = 0, 0
    bins[-1] = (bins[-1][0] + o1, bins[-1][1] + o2)
    obs = np.array(bins, dtype=np.float64)
    return float(((obs[:, 0] - obs[:, 1]) ** 2 / obs.sum(1)).sum()), len(bins) - 1


@pytest.mark.parametrize("n, pattern", [(64, "1,0"), (64, "1,1"), (256, "1,1"), (256, "1,0,1,0")])
def test_simple_rounds_follow_the_count_chain(n, pattern, monkeypatch):
    qualities = tuple(int(q) for q in pattern.split(","))
    k = len(qualities)
    chain = simple_chain_rounds(n, qualities, TRIALS, np.random.default_rng((2, n, k)), CAP)
    spec = harness.ExperimentSpec("simple", (n,), (k,), pattern, TRIALS, seed=1, max_rounds=CAP)
    reports = cell_reports(monkeypatch, spec, n, k)
    engine = np.array([rep.rounds_to_converge if rep.converged else 0 for rep in reports])
    assert engine.size == TRIALS
    stat, df = chi2_two_samples(chain, engine)
    assert stat < chi2_critical(df, ALPHA), (stat, df)
