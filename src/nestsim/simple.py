"""Population-proportional recruitment strategy: O(k log n) nest choice.

After the engine's search round, rounds alternate globally between
recruitment (everyone at the home nest) and assessment (at a candidate).
An ant committed to a suitable nest leads a recruitment with probability
count/n, where count is the population it assessed at its nest in the
previous round; larger nests therefore snowball.  Ants that searched an
unsuitable nest wait passively and rejoin once led to a suitable one.

`SimpleCohort` holds every ant's state as parallel arrays and is what the
engine drives.  The tests replay it against a single-ant transition in
`tests/reference.py`.
"""

from __future__ import annotations

import numpy as np

from .world import K_GO, K_LEAD, K_WAIT, agreed_nest


class SimpleCohort:
    """All ants' states as parallel arrays, one row per colony.

    Lead-or-wait draws are made as one batch per recruitment round, over
    the currently active ants of every colony in row-major order.  `emit`
    returns fresh arrays, which the engine's round owns and writes into.
    """

    def __init__(self, nest, count, suitable):
        """Start from each ant's search result: active on a suitable nest.
        Keeps and writes `nest` and `count`: reused buffers come as copies."""
        self.n = nest.shape[1]
        self.nest, self.count, self.active = nest, count, suitable

    def emit(self, r: int, rng):
        target = self.nest.copy()
        if r % 2:  # assessment round
            return np.full(target.shape, K_GO, np.int8), target
        kind = np.full(target.shape, K_WAIT, np.int8)  # recruitment round
        # with no active ant the draw is empty and leaves the stream as it is
        act = np.flatnonzero(self.active)
        lead = rng.random(act.size) < self.count.take(act) / self.n
        kind.ravel()[act.compress(lead)] = K_LEAD
        return kind, target

    def absorb(self, r: int, res_nest, res_count, led):
        """Take a round's results; `led` holds the flat indices of the ants led away."""
        if r % 2 == 0:
            self.nest.ravel()[led] = res_nest.take(led)
            self.active.ravel()[led] = True
        else:
            act = np.flatnonzero(self.active)
            self.count.ravel()[act] = res_count.take(act)

    def convergence_nest(self):
        """Per colony, its winning nest once all its ants are active on one
        nest, else 0.  An active ant searched or was led to a suitable nest."""
        return agreed_nest(self.nest, self.active)

    def mode_tallies(self) -> dict:
        actives = np.count_nonzero(self.active, axis=1)
        return {"active": actives, "passive": self.n - actives}
