"""Synchronous round driver.

`rounds` plays a batch of colonies of one (algorithm, n, k), with one row
per colony in every per-ant array.  Round 1 is both strategies' search,
and the cohort starts from its results.  Each later round: collect one
request per ant from the cohort as fresh (kind, target) arrays, drop every
colony whose requests break the primitive contract (`world.violations`),
move go-ers, match all leaders and waiters at once, write each ant's
result nest into `target`, count each colony's populations, hand the
results and the led ants' indices to the cohort, and yield the round's
arrays.  `run` stops each colony at its first winner, its round cap, or a
request that breaks the contract.  A lone run is the batch of one colony.

A batch draws from one stream, in a fixed order, so the whole batch
replays exactly from its stream: (1) the search-placement batch over every
ant in row-major order, colony after colony (round 1), (2) the
lead-or-wait batch over the active ants of every colony, drawn while
collecting requests (simple algorithm, recruitment rounds), (3) when there
are recruiters, the matcher's permutation of all of them and then the
picks of every active caller, each inside its own colony.  Each is one
call however many colonies play, and none draws anything where its batch
would be empty.
"""

from __future__ import annotations

import json
from dataclasses import asdict, dataclass
from fractions import Fraction

import numpy as np

from .config import analyzed_k_limit
from .matching import match_arrays
from .optimal import OptimalCohort
from .simple import SimpleCohort
from .world import HOME, K_LEAD, K_SEARCH, K_WAIT, WorldState, keep_colonies, violations


class EngineError(RuntimeError):
    pass


def _plain(x):
    if isinstance(x, np.generic):
        return x.item()
    if isinstance(x, Fraction):
        return float(x)
    raise TypeError(f"{type(x).__name__} is not JSON serializable")


def dumps(obj) -> str:
    """Compact JSON with sorted keys, the format of every trace and report.

    numpy scalars and Fractions are written as the plain numbers they hold.
    """
    return json.dumps(obj, sort_keys=True, separators=(",", ":"), default=_plain)


@dataclass
class ConvergenceReport:
    converged: bool
    winning_nest: int | None
    rounds_to_converge: int | None
    reason: str  # converged | round_cap | precondition_violation
    in_analyzed_regime: bool  # k <= k_limit
    k_limit: float  # config.analyzed_k_limit(algorithm, n)

    def to_json(self) -> str:
        return dumps(asdict(self))


@dataclass
class Trace:
    """Per-round records of a batch run; JSONL-serializable.

    `rounds` holds each round's (r, live, counts, tallies, location or
    None) as `engine.rounds` yielded them.  The records, one dict per colony
    and round, colony after colony, are built only when read.
    """

    colonies: int
    rounds: list

    def _records(self):
        for t in range(self.colonies):
            # a colony plays rounds 1, 2, ... until it leaves, and `live` is sorted
            for r, live, counts, tallies, location in self.rounds:
                i = live.searchsorted(t)
                if i == live.size or live[i] != t:
                    break
                rec = {"round": r, "counts": counts[i].tolist(),
                       "states": {name: int(tally[i]) for name, tally in tallies.items()}}
                if location is not None:
                    rec["locations"] = location[i].tolist()
                yield rec

    @property
    def records(self) -> list:
        return list(self._records())

    def to_jsonl(self) -> str:
        return "".join(dumps(rec) + "\n" for rec in self._records())


def stream_from_key(*key: int) -> np.random.Generator:
    """Deterministic stream from an arbitrary tuple of non-negative ints."""
    return np.random.Generator(np.random.PCG64(np.random.SeedSequence(list(key))))


def _resolve_arrays(world: WorldState, kind, target, rng):
    """Apply all moves, run the matcher, compute end-of-round counts.

    Returns (res_nest, res_count, counts, led): each ant's result nest and
    count, each colony's per-nest populations as a (colonies, k + 1) array,
    and the sorted flat int64 indices of the ants another ant led away.
    `res_nest` is `target`, the round's own C-ordered array, written in
    place.  Visits grow only by searching and by being led: `violations`
    found every go target visited, and recruiters end the round at home.
    """
    k = world.k
    colonies = len(target)
    # the matcher resolves the union of every colony's recruiters, so moves
    # index flat views of the rows in row-major order
    res_nest, nest, seen = target, target.ravel(), world.visited.ravel()
    searchers = np.flatnonzero(kind == K_SEARCH)
    if searchers.size:
        nest[searchers] = rng.integers(1, k + 1, size=searchers.size)
        seen[searchers * (k + 1) + nest[searchers]] = True
    recruiting = kind >= K_WAIT  # wait or lead
    led = rec = np.flatnonzero(recruiting)  # nobody is led where nobody recruits
    if rec.size:
        lead, pools = kind.ravel()[rec] == K_LEAD, np.count_nonzero(recruiting, axis=1)
        pairs, returned = match_arrays(lead, nest[rec], rng, pools)
        # a non-self pair moves its led ant and shows it the nest; pairs come in led order
        moved = pairs[:, 1].compress(pairs[:, 0] != pairs[:, 1])
        led = rec[moved]
        nest[led] = returned[moved]
        seen[led * (k + 1) + nest[led]] = True
    world.location = np.where(recruiting, HOME, res_nest)
    slots = world.location + (k + 1) * np.arange(colonies)[:, None]
    counts = np.bincount(slots.ravel(), minlength=colonies * (k + 1))
    return res_nest, counts[slots], counts.reshape(colonies, k + 1), led


def rounds(configs, rng):
    """Play colonies of one (algorithm, n, k) as one batch on the stream `rng`.

    Round 1, every ant's search, is played here and builds the cohort.  Each
    round yields (r, live, counts, tallies, location, winners, keep): the
    round; the indices into `configs` of the colonies that played it; their
    per-nest populations, state tallies ({name: per-colony array}), ants'
    locations and convergence nests (0 for none); and a fresh all-true bool
    array over `live`, where clearing an entry drops that colony before the
    next round emits or draws anything for it.  No later round writes a
    yielded array.  A colony whose requests break the primitive contract
    leaves without a yield for that round.  The generator ends, playing no
    further round, once every entry is clear or no colony is left.  An
    unsuitable winner raises `EngineError`; agreement and caps are the caller's.
    """
    n, k, algorithm = configs[0].n, configs[0].k, configs[0].algorithm
    if any((c.n, c.k, c.algorithm) != (n, k, algorithm) for c in configs):
        raise ValueError("a batch needs colonies of one algorithm, n and k")
    world = WorldState(n, k, len(configs))
    live, r = np.arange(len(configs)), 1
    search = np.full(world.location.shape, K_SEARCH, dtype=np.int8)
    res_nest, res_count, counts, _ = _resolve_arrays(world, search, 0 * world.location, rng)
    quality = np.array([c.qualities for c in configs])
    suitable = np.take_along_axis(quality, res_nest - 1, 1) == 1
    cohort = (OptimalCohort if algorithm == "optimal" else SimpleCohort)(
        res_nest, res_count, suitable)
    while True:
        winners, keep = cohort.convergence_nest(), np.ones(live.size, dtype=bool)
        unsuitable = winners[(winners > 0) & (quality[live, winners - 1] != 1)]
        if unsuitable.size:
            raise EngineError(f"converged to unsuitable nest {unsuitable[0]}")
        yield r, live, counts, cohort.mode_tallies(), world.location, winners, keep
        if not keep.any():
            return
        if not keep.all():
            for obj in (cohort, world):
                keep_colonies(obj, keep)
            live = live[keep]
        r += 1
        kind, target = cohort.emit(r, rng)
        ok = ~violations(world, kind, target).any(1)
        if not ok.all():
            for obj in (cohort, world):
                keep_colonies(obj, ok)
            live = live[ok]
            if not live.size:
                return
            kind, target = kind[ok], target[ok]
        res_nest, res_count, counts, led = _resolve_arrays(world, kind, target, rng)
        cohort.absorb(r, res_nest, res_count, led)


def run(configs, rng, verbose: bool = False):
    """Play colonies to their stopping times on the stream `rng`; returns
    (Trace, reports).

    The colonies share (algorithm, n, k) and play as one batch.  Each stops
    at its first round with a winner ("converged"), after its
    `max_rounds` rounds ("round_cap"), or at a round whose requests break
    the primitive contract ("precondition_violation"), and leaves the batch
    there.  The trace keeps the ants' locations only when `verbose` is set.
    Every report says whether the batch's k lies in the regime the paper
    analyzes at its n.
    """
    limit = analyzed_k_limit(configs[0].algorithm, configs[0].n)
    regime = {"in_analyzed_regime": configs[0].k <= limit, "k_limit": limit}
    caps = np.array([c.max_rounds for c in configs])
    winning, last, played = np.zeros_like(caps), np.zeros_like(caps), []
    for r, live, counts, tallies, location, winners, keep in rounds(configs, rng):
        played.append((r, live, counts, tallies, location if verbose else None))
        winning[live], last[live] = winners, r
        keep[:] = (winners == 0) & (caps[live] != r)
    reports = [ConvergenceReport(True, int(w), int(r), "converged", **regime) if w else
               ConvergenceReport(False, None, None, "round_cap" if r == cap else
                                 "precondition_violation", **regime)
               for w, r, cap in zip(winning, last, caps)]
    return Trace(len(configs), played), reports
