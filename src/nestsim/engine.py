"""Synchronous round driver.

Each round: collect one request per ant, validate preconditions, place
searchers on uniform random nests, move go-ers, resolve all recruiters in a
single matching, compute end-of-round counts, deliver results, and check
the algorithm's convergence predicate.

Per-round randomness is consumed in a fixed order so traces replay exactly
from the seed: (1) the recruit-or-not batch drawn while collecting requests
(simple algorithm, recruitment rounds), (2) the search-placement batch in
ant-index order, (3) the matcher's permutation and pick batch.
"""

from __future__ import annotations

import json
from dataclasses import asdict, dataclass

import numpy as np

from .config import ColonyConfig
from .matching import match_arrays
from .optimal import OptimalCohort
from .simple import SimpleCohort
from .world import (
    K_GO,
    K_RECRUIT,
    K_SEARCH,
    Go,
    GoResult,
    PreconditionViolation,
    Recruit,
    RecruitResult,
    Search,
    SearchResult,
    WorldState,
    validate_request,
)


class EngineError(RuntimeError):
    pass


@dataclass
class ConvergenceReport:
    converged: bool
    winning_nest: int | None
    rounds_to_converge: int | None
    reason: str  # converged | round_cap | precondition_violation

    def to_json(self) -> str:
        return json.dumps(asdict(self), sort_keys=True, separators=(",", ":"))


class Trace:
    """Per-round records of one run; JSONL-serializable."""

    def __init__(self):
        self.records = []            # one dict per round
        self.per_ant = None          # populated in record mode
        self.post_winners = []       # winners seen after first convergence

    def append(self, rec: dict):
        self.records.append(rec)

    def to_jsonl(self) -> str:
        return "".join(
            json.dumps(rec, sort_keys=True, separators=(",", ":")) + "\n"
            for rec in self.records
        )


def stream_from_key(*key: int) -> np.random.Generator:
    """Deterministic stream from an arbitrary tuple of non-negative ints."""
    return np.random.Generator(np.random.PCG64(np.random.SeedSequence(list(key))))


def make_cohort(config: ColonyConfig):
    if config.algorithm == "optimal":
        return OptimalCohort(config)
    return SimpleCohort(config)


def _validate_arrays(world: WorldState, kind, target) -> str | None:
    """First violation message among the round's requests, or None."""
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


def _resolve_arrays(world: WorldState, r: int, kind, b, target, rng, record=False):
    """Apply all moves, run the matcher, compute end-of-round counts.

    Returns (res_nest, res_count, counts, pairs).  With `record`, pairs is
    an int64 array of the matcher's (recruiter, recruited) ant-id rows for
    this round; otherwise it is None.
    """
    n, k = world.n, world.k
    loc = world.location
    res_nest = np.zeros(n, dtype=np.int64)
    res_count = np.zeros(n, dtype=np.int64)

    searchers = np.nonzero(kind == K_SEARCH)[0]
    if searchers.size:
        draws = rng.integers(1, k + 1, size=searchers.size)
        loc[searchers] = draws
        res_nest[searchers] = draws
    goers = np.nonzero(kind == K_GO)[0]
    loc[goers] = target[goers]
    res_nest[goers] = target[goers]
    rec = np.nonzero(kind == K_RECRUIT)[0]
    pairs = np.empty((0, 2), dtype=np.int64) if record else None
    if rec.size:
        loc[rec] = 0
        local_pairs, returned = match_arrays(b[rec] == 1, target[rec], rng)
        res_nest[rec] = returned
        if record:
            pairs = rec[local_pairs]

    counts = np.bincount(loc, minlength=k + 1)
    res_count[searchers] = counts[res_nest[searchers]]
    res_count[goers] = counts[res_nest[goers]]
    res_count[rec] = counts[0]

    world.visited[np.arange(n), loc] = True
    # being led somewhere counts as having been shown the nest
    world.visited[rec, res_nest[rec]] = True
    world.round = r
    return res_nest, res_count, counts, pairs


def run(
    config: ColonyConfig,
    rng: np.random.Generator | None = None,
    verbose: bool = False,
    record: bool = False,
    continue_rounds: int = 0,
):
    """Execute one seeded run; returns (Trace, ConvergenceReport).

    `continue_rounds` keeps the run going past first convergence, recording
    the winner seen each extra round in trace.post_winners.  `record`
    captures per-ant request/result arrays each round (for tests).
    """
    if rng is None:
        rng = stream_from_key(config.seed)
    cohort = make_cohort(config)
    world = WorldState(config.n, config.k, config.qualities)
    trace = Trace()
    if record:
        trace.per_ant = []
    converged_at = None
    win = None
    reason = "round_cap"

    r = 0
    while True:
        r += 1
        if converged_at is None and r > config.max_rounds:
            break
        kind, b, target = cohort.emit(r, rng)
        violation = _validate_arrays(world, kind, target)
        if violation is not None:
            reason = "precondition_violation"
            break
        res_nest, res_count, counts, pairs = _resolve_arrays(
            world, r, kind, b, target, rng, record
        )
        if record:
            trace.per_ant.append(
                {
                    "round": r,
                    "kind": kind.copy(),
                    "b": b.copy(),
                    "target": target.copy(),
                    "res_nest": res_nest.copy(),
                    "res_count": res_count.copy(),
                    "pairs": pairs,
                    "block": getattr(cohort, "block", None).copy()
                    if hasattr(cohort, "block")
                    else None,
                    "mode_before": cohort.mode.copy()
                    if hasattr(cohort, "mode")
                    else cohort.active.copy(),
                }
            )
        cohort.absorb(r, res_nest, res_count)
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


def resolve_round(requests: dict, world: WorldState, rng: np.random.Generator) -> dict:
    """Resolve one round of explicit per-ant requests.

    `requests` must hold exactly one Search/Go/Recruit per ant id 0..n-1.
    Returns a dict ant id -> result.  Raises PreconditionViolation for an
    invalid request.  SearchResult qualities require the world to carry the
    quality vector.
    """
    n = world.n
    if set(requests) != set(range(n)):
        raise PreconditionViolation("need exactly one request per ant")
    kind = np.empty(n, dtype=np.int8)
    b = np.zeros(n, dtype=np.int8)
    target = np.zeros(n, dtype=np.int64)
    for ant, req in requests.items():
        validate_request(world, ant, req)
        if isinstance(req, Search):
            kind[ant] = K_SEARCH
        elif isinstance(req, Go):
            kind[ant] = K_GO
            target[ant] = req.target
        else:
            kind[ant] = K_RECRUIT
            b[ant] = req.active
            target[ant] = req.target
    res_nest, res_count, counts, _pairs = _resolve_arrays(
        world, world.round + 1, kind, b, target, rng
    )
    out = {}
    for ant, req in requests.items():
        if isinstance(req, Search):
            if world.qualities is None:
                raise EngineError("world has no quality vector for search results")
            out[ant] = SearchResult(
                nest=int(res_nest[ant]),
                quality=world.qualities[int(res_nest[ant]) - 1],
                count=int(res_count[ant]),
            )
        elif isinstance(req, Go):
            out[ant] = GoResult(count=int(res_count[ant]))
        else:
            out[ant] = RecruitResult(
                nest=int(res_nest[ant]), home_count=int(res_count[ant])
            )
    return out
