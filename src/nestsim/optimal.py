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

from .world import K_GO, K_LEAD, K_WAIT, agreed_nest

ACTIVE, PASSIVE, FINAL = 0, 1, 2
MODE_NAMES = {ACTIVE: "active", PASSIVE: "passive", FINAL: "final"}

# request kind by (subround - 1, block mode, branch): the single-ant step's cases
KIND = np.full((4, 3, 4), K_GO, dtype=np.int8)
KIND[:, FINAL] = KIND[0, ACTIVE] = K_LEAD
KIND[1, PASSIVE] = KIND[2, ACTIVE, 2] = KIND[3, ACTIVE, 1] = K_WAIT


def subround(r: int) -> int:
    """Position 1..4 within the globally aligned block (rounds 2, 3, 4, 5, ...)."""
    return (r - 2) % 4 + 1


class OptimalCohort:
    """All ants' states as parallel arrays, one row per colony.

    The blocks are aligned on the round number, which every colony of a
    batch shares, so one subround holds for the whole batch.  `emit`
    returns fresh arrays, which the engine's round owns and writes into.
    """

    def __init__(self, nest, count, suitable):
        """Start from each ant's search result: active on a suitable nest, else
        passive.  Keeps and writes `nest` and `count`: reused buffers come as copies."""
        self.nest, self.count = nest, count
        self.mode = np.where(suitable, ACTIVE, PASSIVE).astype(np.int8)
        self.block = self.mode.copy()  # subround 1, at round 2, latches it anew
        self.branch = np.zeros_like(self.mode)
        self.nest_t, self.count_t = np.zeros_like(nest), np.zeros_like(count)

    def emit(self, r: int, rng):
        target = self.nest.copy()
        sub = subround(r)
        if sub == 1:
            self.block = self.mode.copy()
        elif sub == 2:
            act = np.flatnonzero(self.block == ACTIVE)
            target.ravel()[act] = self.nest_t.take(act)
        return KIND[sub - 1].take(self.block * 4 + self.branch), target

    def absorb(self, r: int, res_nest, res_count, led):
        """Take a round's results; `led` holds the flat indices of the ants led away."""
        sub = subround(r)
        fin = np.flatnonzero(self.block == FINAL)
        act = np.flatnonzero(self.block == ACTIVE)
        self.nest.ravel()[fin] = res_nest.take(fin)
        if sub == 1:
            self.nest_t.ravel()[act] = res_nest.take(act)
        elif sub == 2:
            # a final ant's pick turns a passive one final, even on its own nest
            picked = led.compress(self.block.take(led) == PASSIVE)
            self.nest.ravel()[picked] = res_nest.take(picked)
            self.mode.ravel()[picked] = FINAL
            nest_t, count, count_t = (x.take(act) for x in (self.nest_t, self.count, res_count))
            self.count_t.ravel()[act] = count_t
            same, drop = nest_t == self.nest.take(act), count_t < count
            # case 1: same nest, no drop; case 2: same nest, a drop; case 3: a new nest
            self.branch.ravel()[act] = np.where(same, 1 + drop, 3)
            self.count.ravel()[act] = np.where(same & ~drop, count_t, count)
            self.mode.ravel()[act.compress(same & drop)] = PASSIVE
            self.nest.ravel()[act] = nest_t  # case 3 joins nest_t, which cases 1 and 2 hold
        elif sub == 3:
            joined = act.compress(self.branch.take(act) == 3)
            count = res_count.take(joined)
            self.count.ravel()[joined] = count
            self.mode.ravel()[joined.compress(count < self.count_t.take(joined))] = PASSIVE
        else:
            done = (self.branch.take(act) == 1) & (res_count.take(act) == self.count.take(act))
            self.mode.ravel()[act.compress(done)] = FINAL

    def convergence_nest(self):
        """Per colony, its winning nest once every ant is final and committed
        to it, else 0."""
        return agreed_nest(self.nest, self.mode == FINAL)

    def mode_tallies(self) -> dict:
        return {name: (self.mode == m).sum(1) for m, name in MODE_NAMES.items()}
