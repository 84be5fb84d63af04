"""Synchronous round driver.

Each round: collect one request per ant from the strategy's cohort as
arrays, check them with `world.validate`, place searchers on uniform random
nests, move go-ers, resolve all recruiters in a single matching, compute
end-of-round counts, hand the results back to the cohort, and check its
convergence predicate.  A request that breaks the primitive contract ends
the run with reason "precondition_violation".

Per-round randomness is consumed in a fixed order so traces replay exactly
from the seed: (1) the recruit-or-not batch drawn while collecting requests
(simple algorithm, recruitment rounds), (2) the search-placement batch in
ant-index order, (3) the matcher's permutation and pick batch.
"""

from __future__ import annotations

import json
from dataclasses import asdict, dataclass
from fractions import Fraction

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


class Trace:
    """Per-round records of one run; JSONL-serializable."""

    def __init__(self):
        self.records = []            # one dict per round
        self.post_winners = []       # winners seen after first convergence

    def append(self, rec: dict):
        self.records.append(rec)

    def to_jsonl(self) -> str:
        return "".join(dumps(rec) + "\n" for rec in self.records)


def stream_from_key(*key: int) -> np.random.Generator:
    """Deterministic stream from an arbitrary tuple of non-negative ints."""
    return np.random.Generator(np.random.PCG64(np.random.SeedSequence(list(key))))


def make_cohort(config: ColonyConfig):
    if config.algorithm == "optimal":
        return OptimalCohort(config)
    return SimpleCohort(config)


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


def run(
    config: ColonyConfig,
    rng: np.random.Generator,
    verbose: bool = False,
    continue_rounds: int = 0,
):
    """Execute one seeded run; returns (Trace, ConvergenceReport).

    `continue_rounds` keeps the run going past first convergence, recording
    the winner seen each extra round in trace.post_winners.
    """
    cohort = make_cohort(config)
    world = WorldState(config.n, config.k)
    trace = Trace()
    converged_at = None
    win = None
    reason = "round_cap"

    r = 0
    while True:
        r += 1
        if converged_at is None and r > config.max_rounds:
            break
        kind, b, target = cohort.emit(r, rng)
        if validate(world, kind, target) is not None:
            reason = "precondition_violation"
            break
        res_nest, res_count, counts, led = _resolve_arrays(world, kind, b, target, rng)
        cohort.absorb(r, res_nest, res_count, led)
        rec = {
            "round": r,
            "counts": counts.tolist(),
            "states": cohort.mode_tallies(),
        }
        if verbose:
            rec["locations"] = world.location.tolist()
        trace.append(rec)

        w = cohort.convergence_nest()
        if w is not None and converged_at is None:
            converged_at = r
            win = w
            reason = "converged"
            if config.quality(w) != 1:
                raise EngineError(f"converged to unsuitable nest {w}")
        if converged_at is not None:
            if r > converged_at:
                trace.post_winners.append(w)
            if r >= converged_at + continue_rounds:
                break

    report = ConvergenceReport(
        converged=converged_at is not None,
        winning_nest=win,
        rounds_to_converge=converged_at,
        reason=reason,
    )
    return trace, report

