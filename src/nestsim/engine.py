"""Synchronous round driver.

`rounds` plays a batch of colonies of one (algorithm, n, k), with one row
per colony in every per-ant array.  Each round: collect one request per
ant from the strategy's cohort as arrays, drop every colony with a request
that breaks the primitive contract (`world.violations`), place searchers
on uniform random nests, move go-ers, resolve all recruiters in a single
matching, compute each colony's end-of-round counts, hand the results back
to the cohort, and ask it for each colony's convergence nest.
`run` only decides when each colony stops: at its first winner, at its
round cap, or when its requests break the contract.  A lone run is the
batch of one colony.

A batch draws from one stream, in a fixed order each round, so the whole
batch replays exactly from its stream: (1) the recruit-or-not batch over
the active ants of every colony, drawn while collecting requests (simple
algorithm, recruitment rounds), (2) the search-placement batch over every
searcher in row-major order, colony after colony (round 1), (3) when
there are recruiters, the matcher's permutation of all of them and then
the picks of every active caller, each inside its own colony.  Each is one
call however many colonies play, and none is made where its batch would
be empty.
"""

from __future__ import annotations

import json
from dataclasses import asdict, dataclass
from fractions import Fraction
from itertools import chain, count

import numpy as np

from .matching import match_arrays
from .optimal import OptimalCohort
from .simple import SimpleCohort
from .world import HOME, K_RECRUIT, K_SEARCH, WorldState, keep_colonies, violations


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

    def to_json(self) -> str:
        return dumps(asdict(self))


@dataclass
class Trace:
    """Per-round records of one run; JSONL-serializable."""

    records: list  # one dict per round

    def to_jsonl(self) -> str:
        return "".join(dumps(rec) + "\n" for rec in self.records)


def stream_from_key(*key: int) -> np.random.Generator:
    """Deterministic stream from an arbitrary tuple of non-negative ints."""
    return np.random.Generator(np.random.PCG64(np.random.SeedSequence(list(key))))


def _resolve_arrays(world: WorldState, kind, b, target, rng):
    """Apply all moves, run the matcher, compute end-of-round counts.

    Returns (res_nest, res_count, counts, led): each ant's result nest and
    count, each colony's per-nest populations as a (colonies, k + 1) array,
    and whether another ant led it.  Visits grow only by searching and by
    being led: `violations` found every go target visited, and recruiters
    end the round at the home nest.
    """
    k = world.k
    colonies = len(target)
    res_nest = target.copy()
    led = np.zeros(target.shape, dtype=bool)
    # the matcher resolves the union of every colony's recruiters, so moves
    # index flat views of the rows in row-major order
    nest, seen = res_nest.ravel(), world.visited.reshape(res_nest.size, k + 1)
    searchers = np.flatnonzero(kind == K_SEARCH)
    if searchers.size:
        nest[searchers] = rng.integers(1, k + 1, size=searchers.size)
        seen[searchers, nest[searchers]] = True
    recruiting = kind == K_RECRUIT
    rec = np.flatnonzero(recruiting)
    if rec.size:
        pools = np.count_nonzero(recruiting, axis=1)
        pairs, returned = match_arrays(b.ravel()[rec] == 1, target.ravel()[rec], rng, pools)
        nest[rec] = returned
        # being led somewhere counts as having been shown the nest
        followers = rec[pairs[pairs[:, 0] != pairs[:, 1], 1]]
        led.ravel()[followers] = True
        seen[followers, nest[followers]] = True
    world.location = np.where(recruiting, HOME, res_nest)
    slots = world.location + (k + 1) * np.arange(colonies)[:, None]
    counts = np.bincount(slots.ravel(), minlength=colonies * (k + 1))
    return res_nest, counts[slots], counts.reshape(colonies, k + 1), led


def rounds(configs, rng, verbose: bool = False):
    """Play colonies of one (algorithm, n, k) as one batch on the stream `rng`.

    Each round yields (live, records, winners, keep): the indices into
    `configs` of the colonies that played it, each one's record and
    convergence nest after the round, or None, and a fresh all-true bool
    array over `live`; clearing an entry drops that colony before the next
    round emits or draws anything for it.  A colony whose
    requests break the primitive contract leaves without a record for that
    round.  The generator ends, playing no further round, once every entry
    is clear or no colony is left; agreement and caps are the caller's.
    """
    n, k, algorithm = configs[0].n, configs[0].k, configs[0].algorithm
    if any((c.n, c.k, c.algorithm) != (n, k, algorithm) for c in configs):
        raise ValueError("a batch needs colonies of one algorithm, n and k")
    cohort = (OptimalCohort if algorithm == "optimal" else SimpleCohort)(configs)
    world = WorldState(n, k, len(configs))
    live = np.arange(len(configs))
    for r in count(1):
        kind, b, target = cohort.emit(r, rng)
        ok = ~violations(world, kind, target).any(1)
        if not ok.all():
            for obj in (cohort, world):
                keep_colonies(obj, ok)
            live = live[ok]
            if not live.size:
                return
            kind, b, target = kind[ok], b[ok], target[ok]
        res_nest, res_count, counts, led = _resolve_arrays(world, kind, b, target, rng)
        cohort.absorb(r, res_nest, res_count, led)
        records = [{"round": r, "counts": c, "states": s}
                   for c, s in zip(counts.tolist(), cohort.mode_tallies())]
        if verbose:
            for rec, loc in zip(records, world.location.tolist()):
                rec["locations"] = loc
        keep = np.ones(live.size, dtype=bool)
        yield live, records, cohort.convergence_nest(), keep
        if not keep.any():
            return
        if not keep.all():
            for obj in (cohort, world):
                keep_colonies(obj, keep)
            live = live[keep]


def run(configs, rng, verbose: bool = False):
    """Play colonies to their stopping times on the stream `rng`; returns
    (Trace, reports).

    The colonies share (algorithm, n, k) and play as one batch.  Each stops
    at its first round with a winner ("converged"), after its
    `max_rounds` rounds ("round_cap"), or at a round whose requests break
    the primitive contract ("precondition_violation"), and leaves the batch
    there.  `Trace.records` holds every colony's records, colony after
    colony.
    """
    played = [[] for _ in configs]
    reports = [None] * len(configs)
    for live, records, winners, keep in rounds(configs, rng, verbose):
        for t, rec, winner in zip(live.tolist(), records, winners):
            played[t].append(rec)
            if winner is not None:
                if configs[t].quality(winner) != 1:
                    raise EngineError(f"converged to unsuitable nest {winner}")
                reports[t] = ConvergenceReport(True, winner, rec["round"], "converged")
            elif rec["round"] == configs[t].max_rounds:
                reports[t] = ConvergenceReport(False, None, None, "round_cap")
        keep[:] = [reports[t] is None for t in live.tolist()]
    reports = [rep or ConvergenceReport(False, None, None, "precondition_violation")
               for rep in reports]
    return Trace(list(chain.from_iterable(played))), reports
