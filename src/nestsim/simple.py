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
    """All ants' states as parallel arrays, one row per colony.

    Recruit-or-not draws are made as one batch per recruitment round, over
    the currently active ants of every colony in row-major order.
    """

    def __init__(self, configs):
        self.n = configs[0].n
        self.qual = np.array([c.qualities for c in configs], dtype=np.int64)
        ants = (len(configs), self.n)
        self.active = np.ones(ants, dtype=bool)
        self.nest = np.zeros(ants, dtype=np.int64)
        self.count = np.zeros(ants, dtype=np.int64)

    def emit(self, r: int, rng):
        ants = self.nest.shape
        kind = np.empty(ants, dtype=np.int8)
        b = np.zeros(ants, dtype=np.int8)
        target = np.zeros(ants, dtype=np.int64)
        if r == 1:
            kind[:] = K_SEARCH
            return kind, b, target
        target[:] = self.nest
        if r % 2 == 0:  # recruitment round
            kind[:] = K_RECRUIT
            drawn = np.count_nonzero(self.active)
            if drawn:
                b[self.active] = rng.random(drawn) < self.count[self.active] / self.n
        else:  # assessment round
            kind[:] = K_GO
        return kind, b, target

    def absorb(self, r: int, res_nest, res_count, led):
        if r == 1:
            self.nest = res_nest.astype(np.int64)
            self.count = res_count.astype(np.int64)
            self.active = np.take_along_axis(self.qual, self.nest - 1, axis=1) == 1
            return
        if r % 2 == 0:
            self.nest[led] = res_nest[led]
            self.active |= led
        else:
            self.count[self.active] = res_count[self.active]

    def convergence_nest(self):
        """Per colony, its winning nest once all its ants are active on one
        suitable nest, else None."""
        first = self.nest[:, 0]
        won = self.active.all(1)
        won[won] = (self.nest[won] == first[won, None]).all(1)
        won &= self.qual[np.arange(first.size), first - 1] == 1
        return [w if ok else None for w, ok in zip(first.tolist(), won.tolist())]

    def mode_tallies(self) -> list:
        actives = np.count_nonzero(self.active, axis=1).tolist()
        return [{"active": a, "passive": self.n - a} for a in actives]
