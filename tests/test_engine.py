import warnings

import numpy as np
import pytest

from nestsim import cli, engine
from nestsim.config import ColonyConfig, analyzed_k_limit
from nestsim.engine import EngineError, run, stream_from_key
from nestsim.optimal import PASSIVE, OptimalCohort
from nestsim.simple import SimpleCohort
from nestsim.world import K_GO, K_LEAD, K_SEARCH, K_WAIT, WorldState
from reference import (
    Go,
    GoResult,
    PreconditionViolation,
    Recruit,
    RecruitResult,
    Search,
    SearchResult,
    play_on,
    resolve_round,
    strict_json,
    visit_all,
    visit_one,
    visited_dense,
)


def _config(algorithm, n=64, k=3, qualities=(1, 1, 0), **kw):
    return ColonyConfig(
        n=n, k=k, qualities=qualities, algorithm=algorithm, **kw
    )


@pytest.mark.parametrize("algorithm", ["optimal", "simple"])
def test_trace_is_deterministic(algorithm):
    config = _config(algorithm)
    t1, (r1,) = run([config], stream_from_key(11), verbose=True)
    t2, (r2,) = run([config], stream_from_key(11), verbose=True)
    assert t1.to_jsonl() == t2.to_jsonl()
    assert r1.to_json() == r2.to_json()


@pytest.mark.parametrize("algorithm", ["optimal", "simple"])
def test_counts_sum_to_n(algorithm):
    config = _config(algorithm)
    trace, _ = run([config], stream_from_key(3))
    for rec in trace.records:
        assert sum(rec["counts"]) == config.n


@pytest.mark.parametrize("algorithm", ["optimal", "simple"])
def test_winner_is_suitable_and_stable(algorithm):
    config = _config(algorithm, qualities=(1, 0, 1))
    outcomes = play_on([config] * 8, stream_from_key(0), 20)
    for winner, later in outcomes:
        assert winner is not None
        assert config.qualities[winner - 1] == 1
        # the same colony plays on: the next 20 rounds keep the winner
        assert later == [winner] * 20


@pytest.mark.parametrize("seed", [0, 1])
def test_round_1_is_one_round_for_both_strategies(seed):
    """Round 1 is the engine's search: under either strategy the same seed
    places every ant on the same nest."""
    firsts = [run([_config(algorithm)], stream_from_key(seed), verbose=True)[0].records[0]
              for algorithm in ("optimal", "simple")]
    assert firsts[0]["round"] == firsts[1]["round"] == 1
    assert firsts[0]["counts"] == firsts[1]["counts"]
    assert firsts[0]["locations"] == firsts[1]["locations"]
    assert firsts[0]["counts"][0] == 0


def test_round_cap_is_reported():
    config = _config("simple", n=128, max_rounds=3)
    trace, (report,) = run([config], stream_from_key(0))
    assert not report.converged
    assert report.reason == "round_cap"
    assert report.winning_nest is None
    assert len(trace.records) == config.max_rounds


@pytest.mark.parametrize("algorithm", ["optimal", "simple"])
def test_stop_rule_at_the_round_cap(algorithm):
    """A run that agrees in round R converges under a cap of R, not of R - 1."""
    _, (report,) = run([_config(algorithm)], stream_from_key(5))
    last = report.rounds_to_converge
    trace, (at_cap,) = run([_config(algorithm, max_rounds=last)], stream_from_key(5))
    assert (at_cap.reason, at_cap.rounds_to_converge) == ("converged", last)
    assert len(trace.records) == last
    trace, (short,) = run([_config(algorithm, max_rounds=last - 1)], stream_from_key(5))
    assert (short.converged, short.reason) == (False, "round_cap")
    assert len(trace.records) == last - 1


def test_a_batch_needs_one_algorithm_n_and_k():
    others = (_config("simple"), _config("optimal", n=32),
              _config("optimal", k=4, qualities=(1, 0, 0, 1)))
    for other in others:
        with pytest.raises(ValueError):
            run([_config("optimal"), other], stream_from_key(0))


def test_the_report_names_the_analyzed_regime(tmp_path):
    """Every report says whether k lies within `analyzed_k_limit(algorithm, n)`;
    `optimal` crosses k = 4 between n = 616 and 617, and no config warns."""
    for algo, n, regime in (("optimal", 616, False), ("optimal", 617, True),
                            ("simple", 64, False)):
        out = tmp_path / f"{algo}-{n}.jsonl"
        cli.main(["run", "--algo", algo, "--n", str(n), "--k", "4", "--out", str(out)])
        report = strict_json(out.with_suffix(".report.json").read_text(encoding="utf-8"))
        assert report["in_analyzed_regime"] is regime
        assert report["k_limit"] == analyzed_k_limit(algo, n)
        if algo == "optimal":
            for line in out.read_text(encoding="utf-8").splitlines():
                assert set(strict_json(line)["states"]) == {"active", "passive", "final"}
    configs = [_config("optimal", n=617, k=4, qualities=q) for q in ((1, 0, 0, 0), (1, 1, 1, 1))]
    _, reports = run(configs, stream_from_key(0))
    assert [(r.in_analyzed_regime, r.k_limit) for r in reports] == [
        (True, analyzed_k_limit("optimal", 617))] * 2
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        ColonyConfig(n=64, k=4, qualities=(1, 1, 1, 1), algorithm="optimal")


def test_precondition_violation_stops_the_run(monkeypatch):
    config, emit = _config("optimal"), OptimalCohort.emit

    def go_somewhere_new(self, r, rng):
        kind, target = emit(self, r, rng)
        if r == 2:
            # after round 1 ant 0 has been at exactly one candidate nest
            kind[0, 0] = K_GO
            target[0, 0] = self.nest[0, 0] % config.k + 1
        return kind, target

    monkeypatch.setattr(OptimalCohort, "emit", go_somewhere_new)
    trace, (report,) = run([config], stream_from_key(0))
    assert not report.converged
    assert report.reason == "precondition_violation"
    assert report.winning_nest is None
    assert [rec["round"] for rec in trace.records] == [1]


def test_a_violating_colony_leaves_the_batch_alone(monkeypatch):
    """Colonies 0 and 2 break the contract in rounds 2 and 6; each leaves
    the batch there with the records of the rounds before, and colony 1
    plays on to its winner."""
    config = _config("optimal")
    emit = OptimalCohort.emit

    def go_nowhere(self, r, rng):
        kind, target = emit(self, r, rng)
        if r in (2, 6):
            # colony 0's first ant, then the last colony's last ant
            ant = (0, 0) if r == 2 else (-1, -1)
            kind[ant], target[ant] = K_GO, config.k + 1
        return kind, target

    monkeypatch.setattr(OptimalCohort, "emit", go_nowhere)
    trace, reports = run([config] * 3, stream_from_key(1))
    assert [rep.reason for rep in reports] == [
        "precondition_violation", "converged", "precondition_violation"]
    last = reports[1].rounds_to_converge
    assert last > 6
    rounds = [rec["round"] for rec in trace.records]
    assert rounds == [1] + list(range(1, last + 1)) + [1, 2, 3, 4, 5]


def test_colony_rows_stay_aligned_when_a_colony_leaves(monkeypatch):
    """Colony 0 breaks the contract in round 2.  From round 3 on, every
    array of the cohort has one row per live colony, colonies 1 and 2 keep
    their own rows (every non-passive ant of a row sits on that colony's
    one good nest), and each converges to its own good nest."""
    qualities = [(1, 0), (0, 1), (1, 0)]
    configs = [_config("optimal", k=2, qualities=q) for q in qualities]
    emit, seen = OptimalCohort.emit, {}

    def break_colony_0(self, r, rng):
        if r > 2:
            rows = {name: len(value) for name, value in vars(self).items()
                    if isinstance(value, np.ndarray)}
            nests = [set(nest[mode != PASSIVE].tolist())
                     for nest, mode in zip(self.nest, self.mode)]
            seen[r] = nests, rows
        kind, target = emit(self, r, rng)
        if r == 2:
            kind[0, 0], target[0, 0] = K_GO, 3
        return kind, target

    monkeypatch.setattr(OptimalCohort, "emit", break_colony_0)
    _, reports = run(configs, stream_from_key(2))
    assert [rep.reason for rep in reports] == [
        "precondition_violation", "converged", "converged"]
    assert [rep.winning_nest for rep in reports[1:]] == [2, 1]
    assert max(seen) == max(rep.rounds_to_converge for rep in reports[1:])
    ones = np.ones((3, configs[0].n), dtype=np.int64)
    built = OptimalCohort(ones, configs[0].n * ones, ones == 1)
    arrays = [name for name, value in vars(built).items() if isinstance(value, np.ndarray)]
    for r, (nests, rows) in seen.items():
        live = [t for t in (1, 2) if reports[t].rounds_to_converge >= r]
        assert nests == [{qualities[t].index(1) + 1} for t in live]
        assert rows == dict.fromkeys(arrays, len(live))


@pytest.mark.parametrize("algorithm", ["optimal", "simple"])
def test_a_verbose_batch_records_each_colony_s_locations(algorithm):
    config = _config(algorithm)
    configs = [config, _config(algorithm, qualities=(0, 1, 1)), config]
    trace, reports = run(configs, stream_from_key(4), verbose=True)
    assert all(rep.converged for rep in reports)
    assert len(trace.records) > 3
    for rec in trace.records:
        assert len(rec["locations"]) == config.n
        counts = np.bincount(rec["locations"], minlength=config.k + 1)
        assert rec["counts"] == counts.tolist()


def _dumped(trace) -> str:
    """The oracle for `Trace.to_jsonl`: `dumps` of each record, a line each."""
    return "".join(engine.dumps(rec) + "\n" for rec in trace.records)


@pytest.mark.parametrize("verbose", [True, False])
@pytest.mark.parametrize("algorithm", ["optimal", "simple"])
def test_to_jsonl_writes_each_record_of_a_batch_as_dumps_does(algorithm, verbose):
    configs = [_config(algorithm, qualities=q)
               for q in ((1, 1, 0), (0, 0, 1), (0, 1, 1), (1, 0, 0), (1, 1, 1))]
    trace, reports = run(configs, stream_from_key(5), verbose=verbose)
    # the colonies leave at different rounds, so later rounds hold fewer rows
    assert len({rep.rounds_to_converge for rep in reports}) >= 3
    assert trace.to_jsonl() == _dumped(trace)


@pytest.mark.parametrize("algorithm", ["optimal", "simple"])
def test_to_jsonl_of_a_one_ant_colony(algorithm):
    trace, _ = run([_config(algorithm, n=1)], stream_from_key(2), verbose=True)
    assert trace.to_jsonl() == _dumped(trace)
    assert all(len(rec["locations"]) == 1 for rec in trace.records)


@pytest.mark.parametrize("dtype, nests", [
    (np.uint8, [0, 0, 0]),  # every ant home: a one-entry digit table
    (np.uint8, [0, 9, 10, 99, 100, 255]),  # 255 + 1 wraps in uint8
    (np.uint16, [0, 9, 256, 9999, 10000, 65535]),
])
def test_to_jsonl_spells_nests_of_every_digit_width(dtype, nests):
    """Hand-built rows reach each width the digit table pads to; the middle
    colony's row is all home and it leaves after round 1."""
    rows = np.array([nests, [0] * len(nests), nests[::-1]], dtype=dtype)
    tallies = {"active": np.array([2, 0, 1]), "passive": np.array([1, 3, 2])}
    counts = np.arange(9).reshape(3, 3)
    trace = engine.Trace(3, [
        (1, np.arange(3), counts, tallies, rows),
        (2, np.array([0, 2]), counts[[0, 2]], {name: t[[0, 2]] for name, t in tallies.items()},
         rows[[2, 0]]),
    ])
    assert trace.to_jsonl() == _dumped(trace)
    assert trace.records[0]["locations"] == nests


COHORTS = {"optimal": OptimalCohort, "simple": SimpleCohort}


def _count_emits(monkeypatch, algorithm) -> list:
    """Record the round and the ant count of every `emit` call the
    algorithm's cohort gets."""
    cohort = COHORTS[algorithm]
    emit, calls = cohort.emit, []

    def counted(self, r, rng):
        calls.append((r, self.nest.size))
        return emit(self, r, rng)

    monkeypatch.setattr(cohort, "emit", counted)
    return calls


@pytest.mark.parametrize("algorithm", ["optimal", "simple"])
def test_clearing_every_keep_entry_ends_rounds(algorithm, monkeypatch):
    """Once every entry of `keep` is clear, `rounds` emits no further round."""
    calls = _count_emits(monkeypatch, algorithm)
    played = []
    for r, live, *_arrays, keep in engine.rounds(
            [_config(algorithm)] * 2, stream_from_key(0)):
        played.append([r] * live.size)
        if len(played) == 3:
            keep[:] = False
    assert played == [[1, 1], [2, 2], [3, 3]]
    # round 1 is the engine's search, so `emit` is first called in round 2
    assert calls == [(r, 128) for r in (2, 3)]


@pytest.mark.parametrize("algorithm", ["optimal", "simple"])
def test_clearing_one_keep_entry_drops_only_that_colony(algorithm, monkeypatch):
    """Colony 1 is dropped after round 3, so from round 4 `emit` sees only
    the ants of colonies 0 and 2; they play on to their winners, and the
    batch plays until the later of them."""
    n, configs = 64, [_config(algorithm)] * 3
    calls = _count_emits(monkeypatch, algorithm)
    played, won = [[] for _ in configs], [None] * 3
    for r, live, _counts, _tallies, _location, winners, keep in engine.rounds(
            configs, stream_from_key(0)):
        for i, (t, winner) in enumerate(zip(live.tolist(), winners.tolist())):
            played[t].append(r)
            won[t] = winner or None
            keep[i] = not winner and (t != 1 or r < 3)
    assert len(played[1]) == 3 and won[1] is None
    assert won[0] is not None and won[2] is not None
    last = max(len(played[0]), len(played[2]))
    assert last > 3
    assert played[0] + played[2] == [
        *range(1, len(played[0]) + 1), *range(1, len(played[2]) + 1)]
    # round 1 is the engine's search, so `emit` is first called in round 2
    assert calls[:2] == [(r, 3 * n) for r in (2, 3)]
    assert calls[2] == (4, 2 * n)
    assert [r for r, _ in calls] == list(range(2, last + 1))


@pytest.mark.parametrize("algorithm", ["optimal", "simple"])
def test_no_round_writes_an_array_an_earlier_round_yielded(algorithm):
    """A `Trace` keeps the arrays `rounds` yields, so no later round may
    write them.  Each is copied when it is yielded (`keep` after the
    caller's writes) and compared with the copy once the batch has ended.
    Colony 1 leaves after round 3, so the rows change shape mid-way."""
    yielded = []
    for r, live, counts, tallies, location, winners, keep in engine.rounds(
            [_config(algorithm)] * 3, stream_from_key(0)):
        keep[:] = (winners == 0) & ((live != 1) | (r < 3))
        arrays = (live, counts, *tallies.values(), location, winners, keep)
        yielded.append((arrays, [a.copy() for a in arrays]))
    live_in_round_4 = yielded[3][0][0]
    assert len(yielded) > 4 and live_in_round_4.tolist() == [0, 2]
    for arrays, copies in yielded:
        for array, copy in zip(arrays, copies):
            assert np.array_equal(array, copy)


@pytest.mark.parametrize("algorithm", ["optimal", "simple"])
def test_emit_returns_arrays_the_round_owns(algorithm, monkeypatch):
    """A round writes its results into the `target` that `emit` returned, so
    no array `emit` returns may share memory with an array of the cohort or
    of the world.  Checked in every round of a batch of 3 colonies."""
    cohort_cls = OptimalCohort if algorithm == "optimal" else SimpleCohort
    emit, make_world, worlds, emitted = cohort_cls.emit, engine.WorldState, [], []

    def world(*args):
        worlds.append(make_world(*args))
        return worlds[-1]

    def owned(self, r, rng):
        out = emit(self, r, rng)
        held = [value for obj in (self, *worlds) for value in vars(obj).values()
                if isinstance(value, np.ndarray)]
        assert not any(np.shares_memory(a, b) for a in out for b in held)
        emitted.append(r)
        return out

    monkeypatch.setattr(engine, "WorldState", world)
    monkeypatch.setattr(cohort_cls, "emit", owned)
    _, reports = run([_config(algorithm)] * 3, stream_from_key(4))
    last = max(report.rounds_to_converge for report in reports)
    assert len(worlds) == 1 and emitted == list(range(2, last + 1))


def test_a_winner_on_an_unsuitable_nest_is_an_engine_error(monkeypatch):
    """Nest 3 has quality 0 in `bad` alone, so a cohort naming it as the
    winner there is a bug.  `rounds` raises it itself, so `run` and every
    other caller get the check, and it reads the qualities of the colonies
    still in the batch."""
    good, bad = (_config("optimal", qualities=q) for q in ((1, 1, 1), (1, 1, 0)))
    monkeypatch.setattr(OptimalCohort, "convergence_nest",
                        lambda self: np.full(len(self.nest), 3))
    with pytest.raises(EngineError, match="unsuitable nest 3"):
        run([bad], stream_from_key(0))
    with pytest.raises(EngineError, match="unsuitable nest 3"):
        next(engine.rounds([good, bad], stream_from_key(0)))
    # a winner only once one colony is left: fine for `good`, a bug for `bad`
    monkeypatch.setattr(OptimalCohort, "convergence_nest",
                        lambda self: np.full(len(self.nest), 3 * (len(self.nest) == 1)))
    batch = engine.rounds([good, bad], stream_from_key(0))
    next(batch)[-1][1] = False  # `bad` leaves
    assert next(batch)[5].tolist() == [3]
    batch = engine.rounds([good, bad], stream_from_key(0))
    next(batch)[-1][0] = False  # `good` leaves
    with pytest.raises(EngineError, match="unsuitable nest 3"):
        next(batch)


def test_stream_from_key_contract():
    a = stream_from_key(42, 0).random()
    b = stream_from_key(42, 0).random()
    assert a == b
    assert stream_from_key(42, 0).integers(0, 2**63) != stream_from_key(
        42, 1
    ).integers(0, 2**63)
    firsts = [stream_from_key(7, t).random() for t in range(10_000)]
    assert abs(np.mean(firsts) - 0.5) < 0.02


def test_stream_from_key_is_order_sensitive():
    assert stream_from_key(1, 2).random() != stream_from_key(2, 1).random()


def test_resolve_round_all_search_single_nest():
    world = WorldState(4, 1)
    out = resolve_round(
        {a: Search() for a in range(4)}, world, (1,), stream_from_key(0)
    )
    for a in range(4):
        assert out[a] == SearchResult(nest=1, quality=1, count=4)


def test_resolve_round_lone_recruiter():
    world = WorldState(3, 2)
    world.location[:] = [0, 1, 2]
    visit_all(world)
    out = resolve_round(
        {0: Recruit(1, 2), 1: Go(1), 2: Go(2)}, world, (1, 0), stream_from_key(0)
    )
    assert out[0] == RecruitResult(nest=2, home_count=1, led=False)
    assert out[1] == GoResult(count=1)


def test_resolve_round_all_recruiting():
    world = WorldState(6, 2)
    visit_all(world)
    reqs = {a: Recruit(a % 2, 1 + a % 2) for a in range(6)}
    out = resolve_round(reqs, world, (1, 1), stream_from_key(5))
    assert all(isinstance(out[a], RecruitResult) for a in range(6))
    # every recruiter finishes the round at the home nest
    assert np.all(world.location == 0)
    assert all(out[a].home_count == 6 for a in range(6))
    # only active ants can lead, so at most 3 ants can be led away
    moved = {a for a in range(6) if out[a].nest != reqs[a].target}
    led = {a for a in range(6) if out[a].led}
    assert moved <= led
    assert len(led) <= 3


def test_resolve_round_rejects_missing_or_duplicate():
    world = WorldState(3, 1)
    with pytest.raises(PreconditionViolation):
        resolve_round({0: Search(), 1: Search()}, world, (1,), stream_from_key(0))
    with pytest.raises(PreconditionViolation):
        resolve_round(
            {0: Search(), 1: Search(), 2: Search(), 3: Search()},
            world,
            (1,),
            stream_from_key(0),
        )


def test_resolve_round_rejects_unvisited_target():
    world = WorldState(2, 2)
    with pytest.raises(PreconditionViolation):
        resolve_round({0: Go(1), 1: Search()}, world, (1, 1), stream_from_key(0))


def test_being_led_marks_nest_visited():
    world = WorldState(2, 2)
    visit_one(world, 0, 1)
    visit_one(world, 1, 2)
    rng = stream_from_key(0)
    for _ in range(30):
        out = resolve_round({0: Recruit(1, 1), 1: Recruit(0, 2)}, world, (1, 1), rng)
        if out[1].nest == 1:
            assert visited_dense(world)[0, 1, 1]
            return
    pytest.fail("waiter was never led away in 30 rounds")


def test_search_results_track_locations():
    world = WorldState(50, 3)
    out = resolve_round(
        {a: Search() for a in range(50)}, world, (1, 1, 1), stream_from_key(2)
    )
    tallies = np.bincount([out[a].nest for a in range(50)], minlength=4)
    for a in range(50):
        assert out[a].count == tallies[out[a].nest]
        assert visited_dense(world)[0, a, out[a].nest]


@pytest.mark.parametrize("n", [64, 256])
@pytest.mark.parametrize("algorithm", ["optimal", "simple"])
def test_visits_grow_only_where_they_can(algorithm, n, monkeypatch):
    """Writing visits for searchers and led ants alone loses no visit.

    Each round every ant has visited where it stands and its result nest,
    and `visited` equals what a write over every ant's location plus every
    recruiter's result nest gives.  `led` is the sorted, unique int64 set
    of the flat positions whose recruiter is another ant, and every other
    ant that did not search keeps its target as its result nest.  The two
    sizes give the matcher pools of up to 64 and up to 256 recruiters.
    """
    resolve, match = engine._resolve_arrays, engine.match_arrays
    shadow = {"rounds": 0}

    def matched(*args):
        out = match(*args)
        shadow["pairs"] = out[0]
        return out

    def checked(world, kind, target, rng):
        want = shadow.setdefault("visited", visited_dense(world))
        shadow["pairs"] = np.empty((0, 2), dtype=np.int64)  # a round without recruiters
        asked = target.copy()
        res_nest, res_count, counts, led = resolve(world, kind, target, rng)
        ants, visited = np.indices(world.location.shape), visited_dense(world)
        assert visited[(*ants, world.location)].all()
        assert visited[(*ants, res_nest)].all()
        want[(*ants, world.location)] = True
        rec = np.isin(kind, (K_WAIT, K_LEAD))
        want[rec, res_nest[rec]] = True
        assert np.array_equal(visited, want)
        # the matcher's pool positions are the recruiters' flat positions
        pool, recruiter = np.flatnonzero(rec), np.full(kind.size, -1)
        recruiter[pool[shadow["pairs"][:, 1]]] = pool[shadow["pairs"][:, 0]]
        others = np.flatnonzero((recruiter >= 0) & (recruiter != np.arange(kind.size)))
        assert led.dtype == np.int64 and np.array_equal(led, np.unique(led))
        assert np.array_equal(led, others)
        kept = kind.ravel() != K_SEARCH
        kept[led] = False
        assert np.array_equal(res_nest.ravel()[kept], asked.ravel()[kept])
        shadow["rounds"] += 1
        return res_nest, res_count, counts, led

    monkeypatch.setattr(engine, "match_arrays", matched)
    monkeypatch.setattr(engine, "_resolve_arrays", checked)
    trace, (report,) = run([_config(algorithm, n=n, k=4, qualities=(1, 0, 1, 1))],
                           stream_from_key(n))
    assert report.converged
    assert shadow["rounds"] == len(trace.records)
