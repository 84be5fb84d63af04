import itertools

import numpy as np
import pytest

from nestsim.config import ColonyConfig
from nestsim.engine import run, stream_from_key
from nestsim.optimal import ACTIVE, FINAL, PASSIVE, OptimalCohort, subround
from nestsim.world import K_GO, K_LEAD, K_SEARCH, K_WAIT
from reference import (
    Go,
    GoResult,
    OptimalAntState,
    Recruit,
    RecruitResult,
    Search,
    SearchResult,
    optimal_step,
    record_rounds,
)


def drive(results):
    """Feed a fresh ant the given result sequence; return states and requests."""
    s = OptimalAntState()
    states, reqs = [], []
    s, req = optimal_step(s)
    states.append(s)
    reqs.append(req)
    for res in results:
        s, req = optimal_step(s, res)
        states.append(s)
        reqs.append(req)
    return states, reqs


def test_subround_cycle():
    assert [subround(r) for r in range(2, 10)] == [1, 2, 3, 4, 1, 2, 3, 4]


def test_first_request_is_search():
    _, reqs = drive([])
    assert reqs[0] == Search()


def test_bad_quality_search_goes_passive():
    states, reqs = drive([SearchResult(nest=3, quality=0, count=5)])
    assert states[-1].mode == PASSIVE
    assert states[-1].nest == 3
    assert reqs[-1] == Go(3)


def test_good_quality_search_goes_active():
    states, reqs = drive([SearchResult(nest=2, quality=1, count=10)])
    assert states[-1].mode == ACTIVE
    assert reqs[-1] == Recruit(1, 2)


def test_active_case1_reaches_final_on_home_count_match():
    states, reqs = drive(
        [
            SearchResult(nest=2, quality=1, count=10),
            RecruitResult(nest=2, home_count=10, led=False),  # R1: not led
            GoResult(count=12),                     # R2: population grew
            GoResult(count=12),                     # R3
            RecruitResult(nest=2, home_count=12, led=False),  # R4: count matches
        ]
    )
    assert reqs[2] == Go(2)
    assert reqs[3] == Go(2)
    assert reqs[4] == Recruit(0, 2)
    assert states[3].count == 12
    assert states[-1].mode == FINAL
    assert reqs[-1] == Recruit(1, 2)


def test_active_case1_stays_active_on_home_mismatch():
    states, _ = drive(
        [
            SearchResult(nest=2, quality=1, count=10),
            RecruitResult(nest=2, home_count=10, led=False),
            GoResult(count=12),
            GoResult(count=12),
            RecruitResult(nest=2, home_count=4, led=False),
        ]
    )
    assert states[-1].mode == ACTIVE


def test_active_case2_drops_to_passive():
    states, reqs = drive(
        [
            SearchResult(nest=2, quality=1, count=10),
            RecruitResult(nest=2, home_count=10, led=False),
            GoResult(count=7),                      # R2: population shrank
        ]
    )
    assert states[-1].mode == PASSIVE
    assert reqs[-1] == Recruit(0, 2)                # R3 of the dropping block
    states, reqs = drive(
        [
            SearchResult(nest=2, quality=1, count=10),
            RecruitResult(nest=2, home_count=10, led=False),
            GoResult(count=7),
            RecruitResult(nest=2, home_count=1, led=False),
        ]
    )
    assert reqs[-1] == Go(2)                        # R4 padding


def test_active_case3_adopts_new_nest():
    states, reqs = drive(
        [
            SearchResult(nest=2, quality=1, count=10),
            RecruitResult(nest=3, home_count=10, led=True),  # led to nest 3
            GoResult(count=9),                      # R2 at the new nest
        ]
    )
    assert states[-1].nest == 3
    assert states[-1].mode == ACTIVE
    assert reqs[-1] == Go(3)
    # the new nest's settled count becomes the reference for the next block
    states, reqs = drive(
        [
            SearchResult(nest=2, quality=1, count=10),
            RecruitResult(nest=3, home_count=10, led=True),
            GoResult(count=9),
            GoResult(count=9),                      # R3: nest kept competing
        ]
    )
    assert states[-1].mode == ACTIVE
    assert states[-1].count == 9


def test_active_case3_drop_detection():
    states, _ = drive(
        [
            SearchResult(nest=2, quality=1, count=10),
            RecruitResult(nest=3, home_count=10, led=True),
            GoResult(count=9),
            GoResult(count=4),                      # R3: new nest emptied out
        ]
    )
    assert states[-1].mode == PASSIVE


def test_passive_block_and_promotion():
    states, reqs = drive([SearchResult(nest=1, quality=0, count=4)])
    assert reqs[-1] == Go(1)
    states, reqs = drive(
        [
            SearchResult(nest=1, quality=0, count=4),
            GoResult(count=4),
        ]
    )
    assert reqs[-1] == Recruit(0, 1)
    states, reqs = drive(
        [
            SearchResult(nest=1, quality=0, count=4),
            GoResult(count=4),
            RecruitResult(nest=2, home_count=3, led=True),  # a final ant's pick
        ]
    )
    assert states[-1].mode == FINAL
    assert states[-1].nest == 2
    # not recruited: stays passive through the padding rounds
    states, reqs = drive(
        [
            SearchResult(nest=1, quality=0, count=4),
            GoResult(count=4),
            RecruitResult(nest=1, home_count=3, led=False),
            GoResult(count=1),
        ]
    )
    assert states[-1].mode == PASSIVE
    assert reqs[-1] == Go(1)


def test_passive_led_to_own_nest_turns_final():
    """A final ant's pick promotes a passive ant even if the nest is its own."""
    dropped = [
        SearchResult(nest=2, quality=1, count=10),
        RecruitResult(nest=2, home_count=10, led=False),
        GoResult(count=7),                          # case 2: drops out
        RecruitResult(nest=2, home_count=1, led=False),
        GoResult(count=7),                          # passive from here on
        GoResult(count=7),
    ]
    states, reqs = drive(dropped)
    assert states[-1].mode == PASSIVE
    assert reqs[-1] == Recruit(0, 2)
    states, reqs = drive(
        [*dropped, RecruitResult(nest=2, home_count=9, led=True), GoResult(count=9)]
    )
    assert states[-1].mode == FINAL
    assert states[-1].nest == 2
    states, reqs = drive(
        [*dropped, RecruitResult(nest=2, home_count=9, led=False), GoResult(count=9)]
    )
    assert states[-1].mode == PASSIVE


def test_committed_nest():
    s = OptimalAntState()
    assert s.nest == 0
    states, _ = drive([SearchResult(nest=2, quality=1, count=3)])
    assert states[-1].nest == 2


def test_emit_gives_the_per_ant_request_in_every_cell():
    """Each of the 48 (subround, block mode, branch) cells emits the kind and
    target the single-ant step emits."""
    cells = list(itertools.product((ACTIVE, PASSIVE, FINAL), range(4)))
    block, branch = (np.array([column], dtype=np.int8) for column in zip(*cells))
    nest = np.arange(1, len(cells) + 1)[None]
    for sub in (1, 2, 3, 4):
        cohort = OptimalCohort(nest.copy(), nest.copy(), np.ones(nest.shape, dtype=bool))
        # subround 1 latches the block from the mode, the later ones keep it
        cohort.mode, cohort.block, cohort.branch = block.copy(), block.copy(), branch.copy()
        cohort.nest_t = nest + 100
        kind, target = cohort.emit(sub + 1, stream_from_key(0))
        assert subround(sub + 1) == sub
        for ant, (blk, br) in enumerate(cells):
            _, req = optimal_step(OptimalAntState(
                mode=blk, nest=ant + 1, nest_t=ant + 101,
                block=None if sub == 1 else blk, sub=sub, branch=br))
            if isinstance(req, Go):
                want = (K_GO, req.target)
            else:
                want = (K_LEAD if req.active else K_WAIT, req.target)
            assert (kind[0, ant], target[0, ant]) == want, (sub, blk, br)


def _recorded_run(monkeypatch, n, k, qualities, *key):
    config = ColonyConfig(
        n=n, k=k, qualities=qualities, algorithm="optimal"
    )
    rounds = record_rounds(monkeypatch, OptimalCohort)
    trace, (report,) = run([config], stream_from_key(*key))
    assert report.converged, report
    assert len(rounds) == len(trace.records)
    return config, trace, rounds


@pytest.mark.parametrize(
    "n, k, qualities, key",
    [
        *(pytest.param(32, 3, (1, 1, 0), (s,), id=str(s)) for s in (0, 1, 2)),
        # trial 15 of `sweep --n 64 --k 4 --seed 7`: passive ants wait on the
        # nest the final ants lead to, so only a pick can turn them final
        pytest.param(64, 4, (1, 1, 1, 1), (7, 64, 4, 15), id="7-64-4-15"),
    ],
)
def test_cohort_matches_per_ant_step(n, k, qualities, key, monkeypatch):
    """The engine's array path must replay exactly under the scalar step."""
    config, _, rounds = _recorded_run(monkeypatch, n, k, qualities, *key)
    states = [OptimalAntState() for _ in range(n)]
    prev = [None] * n
    for rec in rounds:
        for ant in range(n):
            states[ant], req = optimal_step(states[ant], prev[ant])
            if isinstance(req, Search):
                got = (K_SEARCH, 0, 0)
            elif isinstance(req, Go):
                got = (K_GO, 0, req.target)
            else:
                got = (K_LEAD if req.active else K_WAIT, req.active, req.target)
            want = (
                int(rec["kind"][ant]),
                int(rec["b"][ant]),
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
def test_schedule_separation(seed, monkeypatch):
    """Competing recruiters and waiting passive ants never share a round."""
    _, _, rounds = _recorded_run(monkeypatch, 64, 4, (1, 1, 1, 1), seed)
    for rec in rounds:
        block = rec["state"]["block"]
        kind = rec["kind"]
        b = rec["b"]
        active_leads = np.any((block == ACTIVE) & (kind == K_LEAD) & (b == 1))
        passive_waits = np.any((block == PASSIVE) & np.isin(kind, (K_WAIT, K_LEAD)))
        assert not (active_leads and passive_waits), rec["round"]


@pytest.mark.parametrize("seed", [5, 6])
def test_final_is_absorbing(seed, monkeypatch):
    _, _, rounds = _recorded_run(monkeypatch, 48, 3, (1, 0, 1), seed)
    finalized = {}
    for rec in rounds:
        mode = rec["state"]["mode"]
        for ant in np.nonzero(mode == FINAL)[0]:
            nest = int(rec["target"][ant])
            if ant in finalized:
                assert finalized[ant] == nest
            finalized[ant] = nest
    assert finalized


def test_converges_single_candidate():
    config = ColonyConfig(
        n=4, k=1, qualities=(1,), algorithm="optimal"
    )
    _, (report,) = run([config], stream_from_key(0))
    assert report.converged
    assert report.winning_nest == 1
