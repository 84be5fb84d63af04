"""Environment state: ant locations, visit histories, the primitive contract.

Each round every ant issues one request as a (kind, target nest) pair of
parallel arrays over the ants.  The kinds are the paper's search(), go(i),
and recruit(b, i) split by its flag into wait (b = 0) and lead (b = 1).
All but search need a candidate nest the ant has been led to or located
at; `violations` is the one check of that rule.  Counts returned by the
primitives are end-of-round values, after all the round's moves.

A batch of colonies of one size holds every per-ant array with one row per
colony: entry [c, i] is ant i of colony c.  Only this module knows the bits
of `visited`: bit j (byte j >> 3, bit j & 7) of an ant's row is nest j.
"""

from __future__ import annotations

import numpy as np

HOME = 0

# request kinds, as the cohorts emit them; the two recruit kinds come last
K_SEARCH, K_GO, K_WAIT, K_LEAD = 0, 1, 2, 3


class WorldState:
    """Locations and visit histories of a batch of colonies of n ants each."""

    def __init__(self, n: int, k: int, colonies: int = 1):
        self.k = k
        # before round 1 every ant is at the home nest
        self.location = np.zeros((colonies, n), dtype=np.int64)
        self.visited = np.zeros((colonies, n, row_bytes(k)), dtype=np.uint8)
        self.visited[:, :, HOME >> 3] = 1 << (HOME & 7)


def row_bytes(k: int) -> int:
    return k // 8 + 1  # bytes of an ant's visit history, a bit for each nest 0..k


def visit(world: WorldState, ants, nests):
    """Mark the distinct `ants`, flat indices over the batch, as visitors of `nests`."""
    cell = ants * row_bytes(world.k) + (nests >> 3)
    # distinct ants write distinct bytes, so the gathered |= loses no bit
    world.visited.reshape(-1)[cell] |= (1 << (nests & 7)).astype(np.uint8)


def keep_colonies(obj, keep):
    """Keep the colony rows flagged in `keep` in every array attribute of `obj`."""
    for name, value in vars(obj).items():
        if isinstance(value, np.ndarray):
            setattr(obj, name, value[keep])


def violations(world: WorldState, kind, target):
    """Per ant: whether its request breaks the primitive contract.

    Search is unconditional.  Go, wait and lead need a candidate nest id the
    ant has visited before.
    """
    cell = np.arange(0, world.visited.size, world.visited.shape[2]).reshape(kind.shape)
    if world.k > 7:  # in a one-byte row every candidate nest is in byte 0
        cell += target >> 3
    ok = world.visited.take(cell, mode="clip")  # an off-range target reads any byte
    ok >>= np.bitwise_and(target, 7, dtype=np.uint8, casting="unsafe")
    ok &= (target >= 1) & (target <= world.k)  # keeps bit 0, the target's, where in range
    return (kind != K_SEARCH) > ok.view(bool)  # not a search, and not ok


def agreed_nest(nest, settled):
    """Per colony, the nest every ant holds once all are `settled`, else 0."""
    first = nest[:, 0]
    won = settled.all(1)
    won[won] = (nest[won] == first[won, None]).all(1)
    return np.where(won, first, 0)
