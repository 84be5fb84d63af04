"""Population-proportional recruitment strategy: O(k log n) nest choice.

After a single search round, rounds alternate globally between recruitment
(everyone at the home nest) and assessment (everyone at a candidate nest).
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

from .world import K_GO, K_RECRUIT, K_SEARCH


class SimpleCohort:
    """All n ants' states as parallel arrays.

    Recruit-or-not draws are made as one batch per recruitment round, in
    ant-index order over the currently active ants.
    """

    def __init__(self, config):
        n = config.n
        self.config = config
        self.qual = np.asarray(config.qualities, dtype=np.int64)
        self.active = np.ones(n, dtype=bool)
        self.nest = np.zeros(n, dtype=np.int64)
        self.count = np.zeros(n, dtype=np.int64)

    def emit(self, r: int, rng):
        n = self.config.n
        kind = np.empty(n, dtype=np.int8)
        b = np.zeros(n, dtype=np.int8)
        target = np.zeros(n, dtype=np.int64)
        if r == 1:
            kind[:] = K_SEARCH
            return kind, b, target
        target[:] = self.nest
        if r % 2 == 0:  # recruitment round
            kind[:] = K_RECRUIT
            act = np.nonzero(self.active)[0]
            if act.size:
                u = rng.random(act.size)
                b[act] = (u < self.count[act] / n).astype(np.int8)
        else:  # assessment round
            kind[:] = K_GO
        return kind, b, target

    def absorb(self, r: int, res_nest, res_count, led):
        if r == 1:
            self.nest = res_nest.astype(np.int64)
            self.count = res_count.astype(np.int64)
            self.active = self.qual[self.nest - 1] == 1
            return
        if r % 2 == 0:
            self.nest[led] = res_nest[led]
            self.active |= led
        else:
            self.count[self.active] = res_count[self.active]

    def convergence_nest(self):
        """Winning nest once all ants are active on one suitable nest, else None."""
        if (
            np.all(self.active)
            and np.all(self.nest == self.nest[0])
            and self.qual[int(self.nest[0]) - 1] == 1
        ):
            return int(self.nest[0])
        return None

    def mode_tallies(self) -> dict:
        a = int(np.count_nonzero(self.active))
        return {"active": a, "passive": self.config.n - a}
