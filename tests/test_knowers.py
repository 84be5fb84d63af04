"""The mechanism of the paper's Omega(log n) lower bound, held on engine runs.

After round 1 nobody searches, an ant leads at most one ant a round, and
only to a nest it has visited.  So the ants that have visited a nest, its
knowers, at most double each round.  And an ant ignorant of a nest stays
ignorant with probability at least 1/4 a round.  The lemma lab checks the
second on its own rumor-spreading rounds (acceptance 03); here both are
held on the engine's runs, with the moves and the `visited` bookkeeping
the lab lacks.  A spy on `engine._resolve_arrays` reads each nest's
knowers after every round, over lone runs and batches of colonies.
Doubling alone bounds rounds only by about 1 + log2 k, since the search
shows each nest to about n/k ants, so this certifies the mechanism, not
the bound itself.
"""

import numpy as np
import pytest

from nestsim import engine
from nestsim.config import ColonyConfig
from nestsim.engine import stream_from_key
from nestsim.lemmas import RETENTION_BOUND, _bernoulli_se
from reference import visited_dense

K = 4
SEEDS = 20
BATCH = 20
PATTERNS = {"one-good": (1, 0, 0, 0), "all-good": (1, 1, 1, 1)}
MIN_IGNORANT = 100


def play_knowers(configs, rng, seen):
    """Each colony's winner (0 for none) and its knowers of each candidate
    nest after each round it played, as a (rounds, k) array.

    `seen["knowers"]` is where the spy leaves each round's knowers, one row
    per colony still in the batch.
    """
    knowers, winner = [[] for _ in configs], [0] * len(configs)
    caps = np.array([c.max_rounds for c in configs])
    for r, live, _counts, _tallies, _location, winners, keep in engine.rounds(configs, rng):
        for row, t in enumerate(live.tolist()):
            knowers[t].append(seen["knowers"][row])
            winner[t] = int(winners[row])
        keep[:] = (winners == 0) & (caps[live] != r)
    return winner, [np.array(k) for k in knowers]


@pytest.mark.parametrize("algorithm", ["optimal", "simple"])
@pytest.mark.parametrize("n", [256, 4096])
def test_knowers_at_most_double_and_ignorance_is_retained(algorithm, n, monkeypatch):
    """Every run of the grid, lone or in a batch, keeps doubling exactly, and
    each round's retention of the ants ignorant of the eventual winner,
    pooled over the runs, is at least 1/4 less 3 standard errors.  Only
    rounds with at least MIN_IGNORANT such ants, some of whom learned,
    are held to retention."""
    resolve, seen = engine._resolve_arrays, {}

    def spy(world, kind, target, rng):
        out = resolve(world, kind, target, rng)
        seen["knowers"] = visited_dense(world)[:, :, 1:].sum(1)
        return out

    monkeypatch.setattr(engine, "_resolve_arrays", spy)
    ignorant = {}  # round -> [ignorant before it, ignorant after it], pooled
    for pattern, qualities in PATTERNS.items():
        config = ColonyConfig(n, K, qualities, algorithm)
        runs = []
        for seed in range(SEEDS):
            runs += zip(*play_knowers([config], stream_from_key(seed, n), seen))
        runs += zip(*play_knowers([config] * BATCH, stream_from_key(SEEDS, n), seen))
        for winner, knowers in runs:
            assert winner, "every run of the grid converges"
            assert (knowers[1:] <= 2 * knowers[:-1]).all()
            before, after = n - knowers[:-1, winner - 1], n - knowers[1:, winner - 1]
            for r, (s, e) in enumerate(zip(before.tolist(), after.tolist()), start=2):
                pooled = ignorant.setdefault(r, [0, 0])
                pooled[0] += s
                pooled[1] += e
    held = 0
    for r, (s, e) in sorted(ignorant.items()):
        if s >= MIN_IGNORANT and e < s:
            se = _bernoulli_se(RETENTION_BOUND, s)
            assert e / s >= RETENTION_BOUND - 3 * se, (r, e / s, s)
            held += 1
    assert held
