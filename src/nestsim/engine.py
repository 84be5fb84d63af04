"""Synchronous round driver.

`rounds` plays a colony.  Each round: collect one request per ant from the
strategy's cohort as arrays, check them with `world.validate`, place
searchers on uniform random nests, move go-ers, resolve all recruiters in a
single matching, compute end-of-round counts, hand the results back to the
cohort, and ask it for its convergence nest.  A request that breaks the
primitive contract ends the rounds.  `run` only decides when to stop: at
the first winner, at the round cap, or when the rounds end.

Per-round randomness is consumed in a fixed order so traces replay exactly
from the seed: (1) the recruit-or-not batch drawn while collecting requests
(simple algorithm, recruitment rounds), (2) the search-placement batch in
ant-index order, (3) the matcher's permutation and pick batch.
"""

from __future__ import annotations

import json
from dataclasses import asdict, dataclass
from fractions import Fraction
from itertools import count, islice

import numpy as np

from .config import ColonyConfig
from .matching import match_arrays
from .optimal import OptimalCohort
from .simple import SimpleCohort
from .world import HOME, K_RECRUIT, K_SEARCH, WorldState, validate


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
    count, the per-nest populations, and whether another ant led it.
    Visits grow only by searching and by being led: `validate` found every
    go target visited, and recruiters end the round at the home nest.
    """
    res_nest = target.copy()
    led = np.zeros(world.n, dtype=bool)
    searchers = np.nonzero(kind == K_SEARCH)[0]
    res_nest[searchers] = rng.integers(1, world.k + 1, size=searchers.size)
    world.visited[searchers, res_nest[searchers]] = True
    recruiting = kind == K_RECRUIT
    rec = np.nonzero(recruiting)[0]
    if rec.size:
        pairs, returned = match_arrays(b[rec] == 1, target[rec], rng)
        res_nest[rec] = returned
        # being led somewhere counts as having been shown the nest
        followers = rec[pairs[pairs[:, 0] != pairs[:, 1], 1]]
        led[followers] = True
        world.visited[followers, res_nest[followers]] = True
    world.location = np.where(recruiting, HOME, res_nest)
    counts = np.bincount(world.location, minlength=world.k + 1)
    return res_nest, counts[world.location], counts, led


def rounds(config: ColonyConfig, rng: np.random.Generator, verbose: bool = False):
    """Play one colony round after round, yielding (record, winner) each round.

    `winner` is the cohort's convergence nest after the round, or None.
    Agreement and round caps are the caller's to act on: the generator ends
    only when `world.validate` rejects a round's requests.
    """
    cohort = (OptimalCohort if config.algorithm == "optimal" else SimpleCohort)(config)
    world = WorldState(config.n, config.k)
    for r in count(1):
        kind, b, target = cohort.emit(r, rng)
        if validate(world, kind, target) is not None:
            return
        res_nest, res_count, counts, led = _resolve_arrays(world, kind, b, target, rng)
        cohort.absorb(r, res_nest, res_count, led)
        rec = {
            "round": r,
            "counts": counts.tolist(),
            "states": cohort.mode_tallies(),
        }
        if verbose:
            rec["locations"] = world.location.tolist()
        yield rec, cohort.convergence_nest()


def run(config: ColonyConfig, rng: np.random.Generator, verbose: bool = False):
    """Play one seeded run to its stopping time; returns (Trace, ConvergenceReport).

    The run stops at the first round with a winner ("converged"), after
    `config.max_rounds` rounds ("round_cap"), or at a round whose requests
    break the primitive contract ("precondition_violation").
    """
    trace = Trace([])
    for rec, winner in islice(rounds(config, rng, verbose), config.max_rounds):
        trace.records.append(rec)
        if winner is not None:
            if config.quality(winner) != 1:
                raise EngineError(f"converged to unsuitable nest {winner}")
            return trace, ConvergenceReport(True, winner, rec["round"], "converged")
    capped = len(trace.records) == config.max_rounds
    reason = "round_cap" if capped else "precondition_violation"
    return trace, ConvergenceReport(False, None, None, reason)
