"""Count-based drop-out strategy: O(log n) nest choice.

After a single search round, every ant runs aligned four-round blocks.
Ants committed to a competing nest lead recruitments and track their nest's
population; a population drop makes the whole cohort go passive.  Passive
ants surface at the home nest once per block to be picked up by finished
(final) ants, which recruit every round.  The blocks are padded so that
competing recruiters and waiting passive ants are never at the home nest
in the same round until a single winner remains.

The engine drives the vectorized `OptimalCohort`; `step` is the equivalent
single-ant transition used directly in tests.
"""

from __future__ import annotations

from dataclasses import dataclass, replace

import numpy as np

from .world import (
    K_GO,
    K_RECRUIT,
    K_SEARCH,
    Go,
    GoResult,
    Recruit,
    RecruitResult,
    Search,
    SearchResult,
)

SEARCH, ACTIVE, PASSIVE, FINAL = 0, 1, 2, 3
MODE_NAMES = {SEARCH: "search", ACTIVE: "active", PASSIVE: "passive", FINAL: "final"}


def subround(r: int) -> int:
    """Position 1..4 within the globally aligned block (rounds 2, 3, 4, 5, ...)."""
    return (r - 2) % 4 + 1


@dataclass
class OptimalAntState:
    """One ant's algorithm state plus the scratch carried between subrounds."""

    mode: int = SEARCH    # the algorithm's state variable
    nest: int = 0
    count: int = 0
    quality: int = 0
    block: int | None = None   # case block currently executing (latched)
    sub: int = 1               # next subround within the block
    branch: int = 0            # active-block case 1/2/3, 0 before it is known
    nest_t: int = 0
    count_t: int = 0
    awaiting: tuple | None = None  # (block, sub) of the request in flight


def committed_nest(state: OptimalAntState) -> int:
    return state.nest


def _absorb(s: OptimalAntState, prev) -> None:
    blk, sub = s.awaiting
    if blk == SEARCH:
        assert isinstance(prev, SearchResult)
        s.nest, s.quality, s.count = prev.nest, prev.quality, prev.count
        s.mode = ACTIVE if s.quality == 1 else PASSIVE
    elif blk == FINAL:
        assert isinstance(prev, RecruitResult)
        s.nest = prev.nest
    elif blk == PASSIVE:
        if sub == 2:
            assert isinstance(prev, RecruitResult)
            if prev.nest != s.nest:
                s.nest = prev.nest
                s.mode = FINAL
    else:  # ACTIVE block
        if sub == 1:
            assert isinstance(prev, RecruitResult)
            s.nest_t = prev.nest
        elif sub == 2:
            assert isinstance(prev, GoResult)
            s.count_t = prev.count
            if s.nest_t == s.nest and s.count_t >= s.count:
                s.branch = 1
                s.count = s.count_t
            elif s.nest_t == s.nest:
                s.branch = 2
                s.mode = PASSIVE
            else:
                s.branch = 3
                s.nest = s.nest_t
        elif sub == 3:
            if s.branch == 3:
                # adopt the new nest's settled population so the whole
                # cohort carries the same reference count next block
                s.count = prev.count
                if prev.count < s.count_t:
                    s.mode = PASSIVE
        else:  # sub 4
            if s.branch == 1 and prev.home_count == s.count:
                s.mode = FINAL
    # advance within the block, or mark it finished
    if blk in (SEARCH, FINAL) or sub == 4:
        s.block = None
        s.sub = 1
        s.branch = 0
    else:
        s.sub = sub + 1
    s.awaiting = None


def _emit(s: OptimalAntState):
    if s.block is None:
        s.block = s.mode
    cur = s.sub
    if s.block == SEARCH:
        req = Search()
    elif s.block == FINAL:
        req = Recruit(1, s.nest)
    elif s.block == PASSIVE:
        req = Recruit(0, s.nest) if cur == 2 else Go(s.nest)
    else:  # ACTIVE
        if cur == 1:
            req = Recruit(1, s.nest)
        elif cur == 2:
            req = Go(s.nest_t)
        elif cur == 3:
            req = Recruit(0, s.nest) if s.branch == 2 else Go(s.nest)
        else:
            req = Recruit(0, s.nest) if s.branch == 1 else Go(s.nest)
    s.awaiting = (s.block, cur)
    return req


def step(state: OptimalAntState, prev=None):
    """Consume the previous round's result and emit this round's request."""
    s = replace(state)
    if s.awaiting is not None:
        _absorb(s, prev)
    else:
        assert prev is None
    req = _emit(s)
    return s, req


class OptimalCohort:
    """All n ants' states as parallel arrays; semantics mirror `step`."""

    algorithm = "optimal"

    def __init__(self, config):
        n = config.n
        self.config = config
        self.qual = np.asarray(config.qualities, dtype=np.int64)
        self.mode = np.full(n, SEARCH, dtype=np.int8)
        self.block = np.full(n, SEARCH, dtype=np.int8)
        self.nest = np.zeros(n, dtype=np.int64)
        self.count = np.zeros(n, dtype=np.int64)
        self.branch = np.zeros(n, dtype=np.int8)
        self.nest_t = np.zeros(n, dtype=np.int64)
        self.count_t = np.zeros(n, dtype=np.int64)

    def emit(self, r: int, rng):
        n = self.config.n
        kind = np.empty(n, dtype=np.int8)
        b = np.zeros(n, dtype=np.int8)
        target = np.zeros(n, dtype=np.int64)
        if r == 1:
            kind[:] = K_SEARCH
            return kind, b, target
        sub = subround(r)
        if sub == 1:
            self.block = self.mode.copy()
        fin = self.block == FINAL
        pas = self.block == PASSIVE
        act = self.block == ACTIVE

        kind[:] = K_GO
        target[:] = self.nest
        kind[fin] = K_RECRUIT
        b[fin] = 1
        if sub == 1:
            kind[act] = K_RECRUIT
            b[act] = 1
        elif sub == 2:
            kind[pas] = K_RECRUIT
            target[act] = self.nest_t[act]
        elif sub == 3:
            m = act & (self.branch == 2)
            kind[m] = K_RECRUIT
        else:
            m = act & (self.branch == 1)
            kind[m] = K_RECRUIT
        return kind, b, target

    def absorb(self, r: int, res_nest, res_count):
        if r == 1:
            self.nest = res_nest.astype(np.int64)
            self.count = res_count.astype(np.int64)
            good = self.qual[self.nest - 1] == 1
            self.mode = np.where(good, ACTIVE, PASSIVE).astype(np.int8)
            return
        sub = subround(r)
        fin = self.block == FINAL
        pas = self.block == PASSIVE
        act = self.block == ACTIVE
        self.nest[fin] = res_nest[fin]
        if sub == 1:
            self.nest_t[act] = res_nest[act]
        elif sub == 2:
            led = pas & (res_nest != self.nest)
            self.nest[led] = res_nest[led]
            self.mode[led] = FINAL
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
        """Winning nest once every ant is final and committed to it, else None."""
        if np.all(self.mode == FINAL) and np.all(self.nest == self.nest[0]):
            return int(self.nest[0])
        return None

    def mode_tallies(self) -> dict:
        return {
            name: int(np.count_nonzero(self.mode == code))
            for code, name in MODE_NAMES.items()
        }
