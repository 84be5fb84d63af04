"""Environment state: ant locations, visit histories, primitive contracts.

Each round every ant issues exactly one request (Search, Go, or Recruit).
Go and Recruit are only valid toward a candidate nest the ant has already
been led to or located at; the engine enforces this mechanically.  Counts
returned by the primitives are end-of-round values, computed after all
location updates of the round.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

HOME = 0

# request kinds, as the strategies' vectorized cohorts emit them to the engine
K_SEARCH, K_GO, K_RECRUIT = 0, 1, 2


class PreconditionViolation(RuntimeError):
    """An ant issued a request its history does not permit: an algorithm bug."""


# --- requests ---

@dataclass(frozen=True)
class Search:
    pass


@dataclass(frozen=True)
class Go:
    target: int


@dataclass(frozen=True)
class Recruit:
    active: int  # 1 = lead someone to target, 0 = wait to be led
    target: int


# --- results ---

@dataclass(frozen=True)
class SearchResult:
    nest: int
    quality: int
    count: int


@dataclass(frozen=True)
class GoResult:
    count: int


@dataclass(frozen=True)
class RecruitResult:
    nest: int        # where the ant ends up committed-to (own target unless led away)
    home_count: int


class WorldState:
    """Locations and visit histories for one run; mutated by a single engine."""

    def __init__(self, n: int, k: int, qualities=None):
        self.n = n
        self.k = k
        self.qualities = None if qualities is None else tuple(qualities)
        self.round = 0
        # before round 1 every ant is at the home nest
        self.location = np.zeros(n, dtype=np.int64)
        self.visited = np.zeros((n, k + 1), dtype=bool)
        self.visited[:, HOME] = True

    def visited_set(self, ant: int) -> set:
        return set(np.nonzero(self.visited[ant])[0].tolist())


def counts(world: WorldState) -> list:
    """Per-nest populations [c(0), c(1), ..., c(k)]; always sums to n."""
    return np.bincount(world.location, minlength=world.k + 1).tolist()


def validate_request(world: WorldState, ant: int, req) -> None:
    """Raise PreconditionViolation unless the request is allowed for this ant.

    Search is unconditional.  Go(i) and Recruit(b, i) require a candidate
    nest id the ant has visited before.
    """
    if isinstance(req, Search):
        return
    if isinstance(req, (Go, Recruit)):
        target = req.target
        if not 1 <= target <= world.k:
            raise PreconditionViolation(
                f"ant {ant}: target {target} is not a candidate nest"
            )
        if not world.visited[ant, target]:
            raise PreconditionViolation(
                f"ant {ant}: has never been at nest {target}"
            )
        return
    raise PreconditionViolation(f"ant {ant}: unknown request {req!r}")
