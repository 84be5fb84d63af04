"""Count-based drop-out strategy: O(log n) nest choice.

After the engine's search round, every ant runs aligned four-round blocks.
Ants committed to a competing nest lead recruitments and track their nest's
population; a population drop makes the whole cohort go passive.  Passive
ants surface at the home nest once per block to be picked up by finished
(final) ants, which recruit every round.  The blocks are padded so that
competing recruiters and waiting passive ants are never at the home nest
in the same round until a single winner remains.

`OptimalCohort` holds every ant's state as parallel arrays and is what the
engine drives.  The tests replay it against a single-ant transition written
out case by case in `tests/reference.py`.
"""

from __future__ import annotations

import numpy as np

from .world import K_GO, K_LEAD, K_WAIT

SEARCH, ACTIVE, PASSIVE, FINAL = 0, 1, 2, 3
MODE_NAMES = {SEARCH: "search", ACTIVE: "active", PASSIVE: "passive", FINAL: "final"}


def subround(r: int) -> int:
    """Position 1..4 within the globally aligned block (rounds 2, 3, 4, 5, ...)."""
    return (r - 2) % 4 + 1


class OptimalCohort:
    """All ants' states as parallel arrays, one row per colony.

    The blocks are aligned on the round number, which every colony of a
    batch shares, so one subround holds for the whole batch.
    """

    def __init__(self, nest, count, suitable):
        """Start from each ant's search result: active on a suitable nest, else
        passive.  Keeps and writes `nest` and `count`: reused buffers come as copies."""
        self.nest, self.count = nest, count
        self.mode = np.where(suitable, ACTIVE, PASSIVE).astype(np.int8)
        self.block = np.full_like(self.mode, SEARCH)  # round 2 starts a block
        self.branch = np.zeros_like(self.mode)
        self.nest_t, self.count_t = np.zeros_like(nest), np.zeros_like(count)

    def emit(self, r: int, rng):
        target = self.nest.copy()
        sub = subround(r)
        if sub == 1:
            self.block = self.mode.copy()
        fin = self.block == FINAL
        pas = self.block == PASSIVE
        act = self.block == ACTIVE

        kind = np.full(target.shape, K_GO, dtype=np.int8)
        kind[fin] = K_LEAD
        if sub == 1:
            kind[act] = K_LEAD
        elif sub == 2:
            kind[pas] = K_WAIT
            target[act] = self.nest_t[act]
        elif sub == 3:
            kind[act & (self.branch == 2)] = K_WAIT
        else:
            kind[act & (self.branch == 1)] = K_WAIT
        return kind, target

    def absorb(self, r: int, res_nest, res_count, led):
        sub = subround(r)
        fin = self.block == FINAL
        pas = self.block == PASSIVE
        act = self.block == ACTIVE
        self.nest[fin] = res_nest[fin]
        if sub == 1:
            self.nest_t[act] = res_nest[act]
        elif sub == 2:
            # a final ant's pick turns a passive one final, even on its own nest
            picked = pas & led
            self.nest[picked] = res_nest[picked]
            self.mode[picked] = FINAL
            self.count_t[act] = res_count[act]
            same = self.nest_t == self.nest
            c1 = act & same & (self.count_t >= self.count)
            c2 = act & same & (self.count_t < self.count)
            c3 = act & ~same
            self.branch[c1] = 1
            self.count[c1] = self.count_t[c1]
            self.branch[c2] = 2
            self.mode[c2] = PASSIVE
            self.branch[c3] = 3
            self.nest[c3] = self.nest_t[c3]
        elif sub == 3:
            joined = act & (self.branch == 3)
            self.count[joined] = res_count[joined]
            drop = joined & (res_count < self.count_t)
            self.mode[drop] = PASSIVE
        else:
            done = act & (self.branch == 1) & (res_count == self.count)
            self.mode[done] = FINAL

    def convergence_nest(self):
        """Per colony, its winning nest once every ant is final and committed
        to it, else 0."""
        first = self.nest[:, 0]
        won = (self.mode == FINAL).all(1)
        won[won] = (self.nest[won] == first[won, None]).all(1)
        return np.where(won, first, 0)

    def mode_tallies(self) -> dict:
        return {name: np.count_nonzero(self.mode == m, 1) for m, name in MODE_NAMES.items()}
