import numpy as np
import pytest

from nestsim.config import ColonyConfig
from nestsim.engine import run, stream_from_key
from nestsim.simple import SimpleCohort
from nestsim.world import K_GO, K_LEAD, K_SEARCH, K_WAIT
from reference import (
    Go,
    GoResult,
    Recruit,
    RecruitResult,
    Search,
    SearchResult,
    SimpleAntState,
    recruit_decision,
    record_rounds,
    simple_step,
)


class FixedRng:
    """Stub stream returning preset uniform draws."""

    def __init__(self, values):
        self.values = list(values)

    def random(self):
        return self.values.pop(0)


def test_recruit_decision_extremes():
    rng = stream_from_key(0)
    assert all(recruit_decision(0, 10, rng) == 0 for _ in range(100))
    assert all(recruit_decision(10, 10, rng) == 1 for _ in range(100))


def test_recruit_decision_rejects_out_of_range():
    rng = stream_from_key(0)
    with pytest.raises(ValueError):
        recruit_decision(-1, 10, rng)
    with pytest.raises(ValueError):
        recruit_decision(11, 10, rng)


def test_recruit_decision_half_rate():
    rng = stream_from_key(2)
    trials = 100_000
    freq = sum(recruit_decision(8, 16, rng) for _ in range(trials)) / trials
    assert abs(freq - 0.5) < 0.01


def drive(results, n=16, draws=()):
    rng = FixedRng(draws)
    s = SimpleAntState()
    states, reqs = [], []
    s, req = simple_step(s, None, n, rng)
    states.append(s)
    reqs.append(req)
    for res in results:
        s, req = simple_step(s, res, n, rng)
        states.append(s)
        reqs.append(req)
    return states, reqs


def test_first_request_is_search():
    _, reqs = drive([])
    assert reqs[0] == Search()


def test_search_good_nest_activates():
    states, reqs = drive([SearchResult(nest=2, quality=1, count=7)], draws=[0.0])
    s = states[-1]
    assert s.active and s.nest == 2 and s.count == 7
    assert reqs[-1] == Recruit(1, 2)     # draw 0.0 < 7/16


def test_search_bad_nest_deactivates():
    states, reqs = drive([SearchResult(nest=3, quality=0, count=4)])
    assert not states[-1].active
    assert reqs[-1] == Recruit(0, 3)


def test_passive_rejoins_when_led_away():
    states, reqs = drive(
        [
            SearchResult(nest=3, quality=0, count=4),
            RecruitResult(nest=5, home_count=9, led=True),
        ]
    )
    s = states[-1]
    assert s.active and s.nest == 5
    assert reqs[-1] == Go(5)


def test_passive_idles_at_bad_nest():
    states, reqs = drive(
        [
            SearchResult(nest=3, quality=0, count=4),
            RecruitResult(nest=3, home_count=9, led=False),
            GoResult(count=2),
        ]
    )
    s = states[-1]
    assert not s.active
    assert s.count == 4                  # passive ants do not update count
    assert reqs[-1] == Recruit(0, 3)


def test_active_zero_count_never_leads():
    states, reqs = drive(
        [
            SearchResult(nest=2, quality=1, count=7),
            RecruitResult(nest=2, home_count=1, led=False),
            GoResult(count=0),
        ],
        draws=[0.0, 0.5],
    )
    assert reqs[-1] == Recruit(0, 2)


def test_assess_updates_count():
    states, reqs = drive(
        [
            SearchResult(nest=2, quality=1, count=7),
            RecruitResult(nest=2, home_count=1, led=False),
            GoResult(count=11),
        ],
        draws=[0.0, 0.999],
    )
    assert states[-1].count == 11
    assert reqs[-1] == Recruit(0, 2)     # 0.999 >= 11/16


def _recorded_run(monkeypatch, n, k, qualities, seed):
    config = ColonyConfig(
        n=n, k=k, qualities=qualities, algorithm="simple"
    )
    rounds = record_rounds(monkeypatch, SimpleCohort)
    trace, (report,) = run([config], stream_from_key(seed))
    assert report.converged, report
    assert len(rounds) == len(trace.records)
    return config, trace, rounds


@pytest.mark.parametrize("seed", [0, 1, 2])
def test_cohort_matches_per_ant_step(seed, monkeypatch):
    """The engine's array path must replay exactly under the scalar step.

    The recruit-or-not draw is reproduced by feeding the recorded decision
    back through a stub stream.
    """
    config, _, rounds = _recorded_run(monkeypatch, 32, 3, (1, 1, 0), seed)
    n = config.n
    states = [SimpleAntState() for _ in range(n)]
    prev = [None] * n
    for rec in rounds:
        for ant in range(n):
            recorded_b = int(rec["b"][ant])
            rng = FixedRng([0.0 if recorded_b else 1.0 - 1e-12] * 2)
            states[ant], req = simple_step(states[ant], prev[ant], n, rng)
            if isinstance(req, Search):
                got = (K_SEARCH, 0, 0)
            elif isinstance(req, Go):
                got = (K_GO, 0, req.target)
            else:
                got = (K_LEAD if req.active else K_WAIT, req.active, req.target)
            want = (
                int(rec["kind"][ant]),
                recorded_b,
                int(rec["target"][ant]) if rec["kind"][ant] != K_SEARCH else 0,
            )
            assert got == want, f"round {rec['round']} ant {ant}"
            if isinstance(req, Search):
                prev[ant] = SearchResult(
                    nest=int(rec["res_nest"][ant]),
                    quality=config.qualities[int(rec["res_nest"][ant]) - 1],
                    count=int(rec["res_count"][ant]),
                )
            elif isinstance(req, Go):
                prev[ant] = GoResult(count=int(rec["res_count"][ant]))
            else:
                prev[ant] = RecruitResult(
                    nest=int(rec["res_nest"][ant]),
                    home_count=int(rec["res_count"][ant]),
                    led=bool(rec["led"][ant]),
                )


@pytest.mark.parametrize("seed", [3, 4])
def test_round_parity(seed, monkeypatch):
    """After round 1: even rounds all-home, odd rounds all at candidate nests."""
    _, trace, _ = _recorded_run(monkeypatch, 64, 4, (1, 1, 1, 1), seed)
    for rec in trace.records:
        r = rec["round"]
        if r == 1:
            assert rec["counts"][0] == 0
        elif r % 2 == 0:
            assert rec["counts"][0] == 64
        else:
            assert rec["counts"][0] == 0


@pytest.mark.parametrize("seed", [5, 6])
def test_quality_gate_and_persistence(seed, monkeypatch):
    """Only ants on suitable nests lead; a suitable commitment always exists."""
    config, _, rounds = _recorded_run(monkeypatch, 64, 4, (1, 0, 1, 0), seed)
    qual = np.asarray(config.qualities)
    for rec in rounds:
        if rec["round"] == 1:
            continue
        leads = rec["b"] == 1
        assert np.all(qual[rec["target"][leads] - 1] == 1)
        assert np.any(qual[rec["target"] - 1] == 1)
