"""Environment state: ant locations, visit histories, the primitive contract.

Each round every ant issues exactly one request, given as parallel arrays
over the ants: a kind (search, go or recruit), a recruit flag and a target
nest.  Go and Recruit are only valid toward a candidate nest the ant has
already been led to or located at; `validate` is the one check of that rule.
Counts returned by the primitives are end-of-round values, computed after
all location updates of the round.
"""

from __future__ import annotations

import numpy as np

HOME = 0

# request kinds, as the strategies' cohorts emit them to the engine
K_SEARCH, K_GO, K_RECRUIT = 0, 1, 2


class WorldState:
    """Locations and visit histories for one run; mutated by a single engine."""

    def __init__(self, n: int, k: int):
        self.n = n
        self.k = k
        # before round 1 every ant is at the home nest
        self.location = np.zeros(n, dtype=np.int64)
        self.visited = np.zeros((n, k + 1), dtype=bool)
        self.visited[:, HOME] = True


def validate(world: WorldState, kind, target) -> str | None:
    """First violation among one round's requests, as a message, or None.

    Search is unconditional.  Go and Recruit need a candidate nest id the
    ant has visited before.
    """
    moving = kind != K_SEARCH
    bad_range = moving & ((target < 1) | (target > world.k))
    if np.any(bad_range):
        ant = int(np.nonzero(bad_range)[0][0])
        return f"ant {ant}: target {int(target[ant])} is not a candidate nest"
    unseen = moving & ~world.visited[np.arange(world.n), target]
    if np.any(unseen):
        ant = int(np.nonzero(unseen)[0][0])
        return f"ant {ant}: has never been at nest {int(target[ant])}"
    return None
