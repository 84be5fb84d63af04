"""Test oracles: the model written out one ant and one request at a time.

The engine runs the strategies as array cohorts and resolves a round from
parallel request arrays.  The tests hold those against the plainer forms
here: request and result objects, a round resolved from a dict of them,
each strategy's single-ant transition, the matcher on explicit calls, and
`match_loop`, the sequential greedy pairing one ant at a time.  The
greedy rounds of `nestsim.matching.match_core` must pair exactly as the
loop does, and the matcher's exact outcome distribution on tiny pools is
enumerated with the loop, so that oracle shares no pairing code with the
program.  `exact_rounds_law` carries those exact laws through whole rounds
of a tiny colony.  `strict_json` reads the JSON that nestsim writes without
accepting what JSON lacks.
"""

from __future__ import annotations

import itertools
import json
import math
from collections import Counter
from dataclasses import astuple, dataclass, replace
from fractions import Fraction

import numpy as np

from nestsim import engine, harness
from nestsim.engine import _resolve_arrays
from nestsim.matching import match_arrays
from nestsim.optimal import ACTIVE, FINAL, PASSIVE
from nestsim.world import HOME, K_GO, K_LEAD, K_SEARCH, K_WAIT, WorldState, violations

MAX_EXACT_POOL = 6


def _not_json(token):
    raise ValueError(f"{token} is not a JSON value")


def strict_json(text: str):
    """`json.loads` that rejects the NaN, Infinity and -Infinity tokens."""
    return json.loads(text, parse_constant=_not_json)


def validate(world: WorldState, kind, target) -> str | None:
    """The first request `world.violations` rejects, as a message, or None."""
    bad = violations(world, kind, target)
    if not bad.any():
        return None
    ant = int(bad.argmax())
    nest = int(target.flat[ant])
    if 1 <= nest <= world.k:
        return f"ant {ant}: has never been at nest {nest}"
    return f"ant {ant}: target {nest} is not a candidate nest"


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
    led: bool        # another ant picked this one, to whichever nest it leads


def resolve_round(requests: dict, world: WorldState, qualities, rng) -> dict:
    """Resolve one round of explicit per-ant requests through the engine.

    `requests` must hold exactly one Search/Go/Recruit per ant id 0..n-1
    of the lone colony of `world`; `qualities` is the candidate nests'
    quality vector.  Returns a dict ant id -> result.  Raises
    PreconditionViolation for an invalid request.
    """
    n = world.location.shape[1]
    if set(requests) != set(range(n)):
        raise PreconditionViolation("need exactly one request per ant")
    kind = np.empty((1, n), dtype=np.int8)
    target = np.zeros((1, n), dtype=np.int64)
    for ant, req in requests.items():
        if isinstance(req, Search):
            kind[0, ant] = K_SEARCH
        elif isinstance(req, Go):
            kind[0, ant] = K_GO
            target[0, ant] = req.target
        elif isinstance(req, Recruit):
            kind[0, ant] = K_LEAD if req.active else K_WAIT
            target[0, ant] = req.target
        else:
            raise PreconditionViolation(f"ant {ant}: unknown request {req!r}")
    violation = validate(world, kind, target)
    if violation is not None:
        raise PreconditionViolation(violation)
    res_nest, res_count, _counts, led = _resolve_arrays(world, kind, target, rng)
    res_nest, res_count, led = res_nest[0], res_count[0], np.isin(np.arange(n), led)
    out = {}
    for ant, req in requests.items():
        if isinstance(req, Search):
            out[ant] = SearchResult(
                nest=int(res_nest[ant]),
                quality=qualities[int(res_nest[ant]) - 1],
                count=int(res_count[ant]),
            )
        elif isinstance(req, Go):
            out[ant] = GoResult(count=int(res_count[ant]))
        else:
            out[ant] = RecruitResult(
                nest=int(res_nest[ant]),
                home_count=int(res_count[ant]),
                led=bool(led[ant]),
            )
    return out


def record_rounds(monkeypatch, cohort_cls) -> list:
    """Record every round a `cohort_cls` cohort plays while the patch holds.

    Each round gives one dict: the requests (kind and target, plus b, the
    model's recruit flag, as kind == K_LEAD), the results (res_nest,
    res_count, and led as a per-ant mask), and `state`, a copy of the
    cohort's arrays as `absorb` found them.  Round 1, the engine's search,
    is recorded when the cohort is built from it: every ant searched
    (target 0), nobody led, and the state is the cohort just built.  Later
    rounds record what `emit` returned and `absorb` received.  Every array
    is recorded flattened in row-major order, so a lone colony's arrays are
    indexed by ant.
    """
    rounds = []
    init, emit, absorb = cohort_cls.__init__, cohort_cls.emit, cohort_cls.absorb

    def state(cohort):
        return {name: value.flatten() for name, value in vars(cohort).items()
                if isinstance(value, np.ndarray)}

    def recording_init(self, nest, count, suitable):
        init(self, nest, count, suitable)
        none = np.zeros(nest.size, dtype=bool)
        rounds.append({"round": 1, "kind": np.full(nest.size, K_SEARCH, dtype=np.int8),
                       "b": none, "target": np.zeros(nest.size, dtype=np.int64),
                       "res_nest": nest.flatten(), "res_count": count.flatten(),
                       "led": none, "state": state(self)})

    def recording_emit(self, r, rng):
        kind, target = emit(self, r, rng)
        rounds.append({"round": r, "kind": kind.flatten(), "b": (kind == K_LEAD).flatten(),
                       "target": target.flatten()})
        return kind, target

    def recording_absorb(self, r, res_nest, res_count, led):
        rounds[-1].update(res_nest=res_nest.flatten(), res_count=res_count.flatten(),
                          led=np.isin(np.arange(res_nest.size), led), state=state(self))
        absorb(self, r, res_nest, res_count, led)

    monkeypatch.setattr(cohort_cls, "__init__", recording_init)
    monkeypatch.setattr(cohort_cls, "emit", recording_emit)
    monkeypatch.setattr(cohort_cls, "absorb", recording_absorb)
    return rounds


def play_on(configs, rng, more: int) -> list:
    """Each colony's first winner and its winners in the `more` rounds after.

    The colonies play as one `engine.rounds` batch on the stream `rng`.  A colony leaves it at
    its round cap without a winner, giving (None, []), or `more` rounds
    after its first winner.  A round without a winner gives None.
    """
    first, after = [None] * len(configs), [[] for _ in configs]
    for r, live, _counts, _tallies, _location, winners, keep in engine.rounds(configs, rng):
        for i, (t, winner) in enumerate(zip(live.tolist(), winners.tolist())):
            if first[t] is None:
                first[t] = winner or None
            else:
                after[t].append(winner or None)
            capped = first[t] is None and r == configs[t].max_rounds
            keep[i] = not capped and (first[t] is None or len(after[t]) < more)
    return list(zip(first, after))


def cell_reports(monkeypatch, spec, n: int, k: int) -> list:
    """Every trial's report as `harness.run_cell(spec, n, k)` plays the cell."""
    run, reports = harness.run, []

    def recording_run(configs, rng):
        trace, chunk = run(configs, rng)
        reports.extend(chunk)
        return trace, chunk

    monkeypatch.setattr(harness, "run", recording_run)
    harness.run_cell(spec, n, k)
    return reports


# --- optimal: one ant's drop-out strategy ---

# the per-ant step's round-1 search: a mode of its own, which the cohort,
# starting from the engine's search, never holds
SEARCH = -1


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


def _optimal_absorb(s: OptimalAntState, prev) -> None:
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
            if prev.led:
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


def _optimal_emit(s: OptimalAntState):
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


def optimal_step(state: OptimalAntState, prev=None):
    """Consume the previous round's result and emit this round's request."""
    s = replace(state)
    if s.awaiting is not None:
        _optimal_absorb(s, prev)
    else:
        assert prev is None
    req = _optimal_emit(s)
    return s, req


# --- simple: one ant's proportional recruitment ---

def recruit_decision(count: int, n: int, rng) -> int:
    """1 with probability exactly count/n, else 0."""
    if not 0 <= count <= n:
        raise ValueError(f"count {count} outside 0..{n}")
    return int(rng.random() < count / n)


@dataclass
class SimpleAntState:
    active: bool = True
    nest: int = 0
    count: int = 0
    phase: str = "search"       # search -> recruit -> assess -> recruit -> ...
    awaiting: str | None = None


def simple_step(state: SimpleAntState, prev, n: int, rng):
    """Consume the previous round's result and emit this round's request."""
    s = replace(state)
    if s.awaiting == "search":
        assert isinstance(prev, SearchResult)
        s.nest, s.count = prev.nest, prev.count
        if prev.quality == 0:
            s.active = False
        s.phase = "recruit"
    elif s.awaiting == "recruit":
        assert isinstance(prev, RecruitResult)
        if prev.led:
            s.nest = prev.nest
            s.active = True
        s.phase = "assess"
    elif s.awaiting == "assess":
        assert isinstance(prev, GoResult)
        if s.active:
            s.count = prev.count
        s.phase = "recruit"
    else:
        assert prev is None

    if s.phase == "search":
        req = Search()
    elif s.phase == "recruit":
        b = recruit_decision(s.count, n, rng) if s.active else 0
        req = Recruit(b, s.nest)
    else:
        req = Go(s.nest)
    s.awaiting = s.phase
    return s, req


# --- matcher on explicit calls, and its exact distribution ---

class MatchError(ValueError):
    pass


@dataclass(frozen=True)
class RecruitCall:
    ant: int
    active: int      # 1 = recruiting, 0 = waiting
    target: int      # candidate nest the ant advocates

    def __post_init__(self):
        if self.target == 0:
            raise MatchError("recruit target must be a candidate nest")


@dataclass(frozen=True)
class MatchOutcome:
    """Pairing set plus the nest id handed back to each caller."""

    pairs: tuple       # sorted tuple of (recruiter, recruited) ant-id pairs
    returned: dict     # ant id -> nest id

    def key(self):
        return (self.pairs, tuple(sorted(self.returned.items())))


def match_loop(active, targets, perm, picks):
    """Deterministic pairing given the permutation and per-ant pick values.

    `active`, `targets` are sequences indexed by pool position; `perm` is an
    iteration order over pool positions, or over the active ones alone, as
    the loop skips the others; `picks` maps pool position -> chosen pool
    position (only consulted for active ants).  Returns
    (recruiter, returned): recruiter[x] is the pool position that led x away
    (-1 if none, x itself for a self-pair); returned[x] is x's result nest.
    """
    m = len(targets)
    recruiter = [-1] * m
    has_led = [False] * m
    for a in perm:
        if active[a] and recruiter[a] == -1:
            a2 = picks[a]
            if not has_led[a2] and recruiter[a2] == -1:
                has_led[a] = True
                recruiter[a2] = a
    returned = [
        targets[recruiter[x]] if recruiter[x] not in (-1, x) else targets[x]
        for x in range(m)
    ]
    return recruiter, returned


def match_round(calls, rng) -> MatchOutcome:
    """Run one recruitment round for a set of RecruitCalls."""
    calls = sorted(calls, key=lambda c: c.ant)
    if not calls:
        raise MatchError("empty call set")
    ants = [c.ant for c in calls]
    if len(set(ants)) != len(ants):
        raise MatchError("duplicate ant in call set")
    active = np.array([c.active for c in calls], dtype=bool)
    targets = np.array([c.target for c in calls], dtype=np.int64)
    pairs, returned = match_arrays(active, targets, rng, np.array([len(calls)]))
    returned = returned.tolist()
    return MatchOutcome(
        pairs=tuple(sorted((ants[a], ants[b]) for a, b in pairs.tolist())),
        returned={ants[x]: returned[x] for x in range(len(calls))},
    )


def success_indicator(outcome: MatchOutcome, ant: int) -> int:
    """+1 led another ant, -1 was led away, 0 otherwise (self-pairs inert)."""
    for a, b in outcome.pairs:
        if a == b:
            continue
        if a == ant:
            return 1
        if b == ant:
            return -1
    return 0


def exact_distribution(calls) -> dict:
    """Exact outcome distribution by brute force over tiny pools.

    Enumerates every permutation of the pool and every pick vector of the
    active callers, each atom weighted 1/(|R|! * |R|^|S|).  Returns a map
    from MatchOutcome.key() to an exact Fraction; values sum to 1.
    """
    calls = sorted(calls, key=lambda c: c.ant)
    ants = [c.ant for c in calls]
    if len(set(ants)) != len(ants):
        raise MatchError("duplicate ant in call set")
    m = len(calls)
    if not 1 <= m <= MAX_EXACT_POOL:
        raise MatchError(f"exact enumeration supports 1..{MAX_EXACT_POOL} calls")
    active = [c.active for c in calls]
    targets = [c.target for c in calls]
    active_idx = [i for i in range(m) if active[i]]
    weight = Fraction(1, math.factorial(m) * m ** len(active_idx))

    dist = {}
    for perm in itertools.permutations(range(m)):
        for pick_vec in itertools.product(range(m), repeat=len(active_idx)):
            picks = [-1] * m
            for i, v in zip(active_idx, pick_vec):
                picks[i] = v
            recruiter, returned = match_loop(active, targets, perm, picks)
            outcome = MatchOutcome(
                pairs=tuple(
                    sorted(
                        (ants[recruiter[x]], ants[x])
                        for x in range(m)
                        if recruiter[x] != -1
                    )
                ),
                returned={ants[x]: returned[x] for x in range(m)},
            )
            key = outcome.key()
            dist[key] = dist.get(key, Fraction(0)) + weight
    assert sum(dist.values()) == 1
    return dist


# --- exact law of a tiny colony's first winning round ---

def _round_law(requests, k: int, qualities) -> list:
    """Exact law of one round's results given every ant's request.

    Returns (probability, results) pairs, results[a] being ant a's
    Search/Go/RecruitResult.  Each searcher lands on 1..k uniformly and
    independently, and the recruiters form one pool with the matcher's
    exact law; counts are end-of-round populations.
    """
    searchers = [a for a, q in enumerate(requests) if isinstance(q, Search)]
    calls = [RecruitCall(a, q.active, q.target)
             for a, q in enumerate(requests) if isinstance(q, Recruit)]
    matches = exact_distribution(calls) if calls else {((), ()): Fraction(1)}
    law = []
    for places in itertools.product(range(1, k + 1), repeat=len(searchers)):
        placed = dict(zip(searchers, places))
        loc = [placed.get(a, q.target if isinstance(q, Go) else HOME)
               for a, q in enumerate(requests)]
        pop = Counter(loc)
        for (pairs, returned), p in matches.items():
            returned = dict(returned)
            led = {x for a, x in pairs if a != x}
            results = []
            for a, q in enumerate(requests):
                if isinstance(q, Search):
                    results.append(SearchResult(loc[a], qualities[loc[a] - 1], pop[loc[a]]))
                elif isinstance(q, Go):
                    results.append(GoResult(pop[loc[a]]))
                else:
                    results.append(RecruitResult(returned[a], pop[HOME], a in led))
            law.append((p / k ** len(searchers), tuple(results)))
    return law


class _Coin:
    """A stream stand-in whose every uniform draw is `u`."""

    def __init__(self, u: float):
        self.u = u

    def random(self):
        return self.u


def _ant_law(algorithm: str, n: int, state, prev) -> list:
    """One ant's step as (probability, state, request) triples.

    `optimal` steps deterministically.  A `simple` ant leads with
    probability exactly count/n: the draw 0 leads whenever count > 0, the
    draw 1 never does, and the two steps differ only in that flag.
    """
    if algorithm == "optimal":
        return [(Fraction(1), *optimal_step(state, prev))]
    lead, wait = (simple_step(state, prev, n, _Coin(u)) for u in (0.0, 1.0))
    if lead[1] == wait[1]:
        return [(Fraction(1), *wait)]
    p = Fraction(wait[0].count, n)
    return [(q, *step) for q, step in ((p, lead), (1 - p, wait)) if q]


def _agreed(algorithm: str, ants, qualities) -> bool:
    """Whether the colony has a winner, as the cohorts decide it."""
    if len({s.nest for s in ants}) != 1:
        return False
    if algorithm == "optimal":
        return all(s.mode == FINAL for s in ants)
    return all(s.active for s in ants) and qualities[ants[0].nest - 1] == 1


def exact_rounds_law(algorithm: str, n: int, k: int, qualities, rounds: int):
    """Exact law of a lone colony's first winning round, as Fractions.

    Propagates the distribution of the colony's joint per-ant state round
    by round: each ant steps by `optimal_step` or `simple_step`, and
    `_round_law` resolves the round's requests.  The model is exchangeable
    in the ants (uniform search, uniform matcher permutation and picks), so
    a joint state is kept as the sorted tuple of its ants' states.  Returns
    (law, tail): law[r - 1] is P(first winner at round r) for r = 1..rounds,
    and tail is P(no winner by round `rounds`).  Pools stay within
    `exact_distribution`'s reach only for n <= MAX_EXACT_POOL.
    """
    cls = OptimalAntState if algorithm == "optimal" else SimpleAntState
    ((_, ant, request),) = _ant_law(algorithm, n, cls(), None)
    dist, law, round_laws = {((astuple(ant), request),) * n: Fraction(1)}, [], {}
    for _ in range(rounds):
        after, won = {}, Fraction(0)
        for joint, p in dist.items():
            requests = tuple(q for _, q in joint)
            if requests not in round_laws:
                round_laws[requests] = _round_law(requests, k, qualities)
            for p_res, results in round_laws[requests]:
                steps = [_ant_law(algorithm, n, cls(*s), res)
                         for (s, _), res in zip(joint, results)]
                for branch in itertools.product(*steps):
                    q = p * p_res * math.prod(b[0] for b in branch)
                    if _agreed(algorithm, [b[1] for b in branch], qualities):
                        won += q
                        continue
                    key = tuple(sorted(((astuple(s), req) for _, s, req in branch), key=repr))
                    after[key] = after.get(key, Fraction(0)) + q
        law.append(won)
        dist = after
    return law, sum(dist.values(), Fraction(0))


# --- simple as a chain on per-nest populations ---

def simple_chain_rounds(n: int, qualities, trials: int, rng, max_rounds: int):
    """Each of `trials` lone `simple` colonies' first winning round, or 0 for
    none by round `max_rounds`, played as a chain on per-nest populations.

    In `simple`, ants on one nest are exchangeable.  After the search, every
    ant on a suitable nest is active and every other one passive, and before
    each recruitment round every active ant's count is its nest's
    population.  So a colony is its active ants per nest and its passive
    ants.  A recruitment round draws each nest's leaders as Binomial(a, a/n)
    for its a active ants, then runs the sequential greedy loop on counts:
    the next leader is uniform over the leaders not yet reached nor led
    away, and picks one of the n ants uniformly.  Itself makes a self-pair;
    a free ant is led to the leader's nest; an ant already matched fails the
    pick and leaves the leader free to be led.  The chain shares no draw and
    no code with the engine.
    """
    k = len(qualities)
    good = np.array(qualities) == 1
    act = np.where(good, rng.multinomial(n, [1 / k] * k, size=trials), 0)
    passive = n - act.sum(1)
    first = np.zeros(trials, dtype=np.int64)
    first[(passive == 0) & (act.max(1) == n)] = 1
    for r in range(2, max_rounds + 1, 2):  # assessment rounds change no nest
        live = np.flatnonzero(first == 0)
        if not live.size:
            break
        a, p = act[live], passive[live]
        # the ants free in the loop, by column: leaders not yet reached, by
        # nest; other actives (failed leaders among them), by nest; passive
        free = np.column_stack([rng.binomial(a, a / n), np.zeros_like(a), p])
        free[:, k:2 * k] = a - free[:, :k]
        matched = np.zeros(live.size, dtype=np.int64)
        while True:
            go = np.flatnonzero(free[:, :k].sum(1))
            if not go.size:
                break
            u = free[go, :k]
            j = (u.cumsum(1) <= rng.integers(0, u.sum(1))[:, None]).sum(1)
            free[go, j] -= 1
            # the pick: a matched ant, the leader itself, or a free column;
            # together they hold all n ants
            pool = np.column_stack([matched[go], np.ones_like(go), free[go]])
            c = (pool.cumsum(1) <= rng.integers(0, n, size=go.size)[:, None]).sum(1)
            failed = c == 0
            free[go[failed], k + j[failed]] += 1
            matched[go] += np.where(failed, 0, np.where(c == 1, 1, 2))
            led = c > 1
            g, dest, col = go[led], j[led], c[led] - 2
            free[g, col] -= 1
            active = col < 2 * k
            a[g[active], col[active] % k] -= 1
            p[g[~active]] -= 1
            a[g, dest] += 1
        act[live], passive[live] = a, p
        first[live[(p == 0) & (a.max(1) == n)]] = r
    return first
