import numpy as np
import pytest

from nestsim.engine import stream_from_key
from nestsim.world import HOME, K_GO, K_LEAD, K_SEARCH, K_WAIT, WorldState
from reference import (
    Go,
    GoResult,
    PreconditionViolation,
    Recruit,
    RecruitResult,
    Search,
    resolve_round,
    validate,
)


def _violation(w, ant, kind, target):
    """`validate` on a round in which `ant` sends (kind, target) and the rest search."""
    kinds = np.full(w.location.shape, K_SEARCH, dtype=np.int8)
    targets = np.zeros(w.location.shape, dtype=np.int64)
    kinds[0, ant], targets[0, ant] = kind, target
    return validate(w, kinds, targets)


def test_initial_world():
    w = WorldState(5, 3)
    assert np.all(w.location == HOME)
    assert np.bincount(w.location[0], minlength=w.k + 1).tolist() == [5, 0, 0, 0]
    for ant in range(5):
        assert np.flatnonzero(w.visited[0, ant]).tolist() == [HOME]


def test_counts_sum_to_n():
    w = WorldState(6, 2)
    w.visited[:] = True
    reqs = {0: Recruit(0, 1), 1: Go(1), 2: Go(1), 3: Go(2), 4: Recruit(0, 2), 5: Go(1)}
    out = resolve_round(reqs, w, (1, 1), stream_from_key(0))
    c = np.bincount(w.location[0], minlength=w.k + 1).tolist()
    assert c == [2, 3, 1]
    assert sum(c) == 6
    assert out[1] == GoResult(count=3) and out[3] == GoResult(count=1)
    assert out[0] == RecruitResult(nest=1, home_count=2, led=False)


def test_search_always_allowed():
    w = WorldState(3, 2)
    assert _violation(w, 0, K_SEARCH, 0) is None


def test_go_requires_candidate_nest():
    w = WorldState(3, 2)
    assert _violation(w, 0, K_GO, 0) == "ant 0: target 0 is not a candidate nest"
    assert _violation(w, 0, K_GO, 3) is not None
    assert _violation(w, 0, K_GO, -1) is not None


def test_go_requires_prior_visit():
    w = WorldState(3, 2)
    assert _violation(w, 1, K_GO, 2) == "ant 1: has never been at nest 2"
    w.visited[0, 1, 2] = True
    assert _violation(w, 1, K_GO, 2) is None


def test_recruit_requires_prior_visit():
    for kind in (K_WAIT, K_LEAD):
        w = WorldState(3, 2)
        assert _violation(w, 0, kind, 1) is not None
        w.visited[0, 0, 1] = True
        assert _violation(w, 0, kind, 1) is None


def test_recruit_home_rejected():
    w = WorldState(2, 2)
    for kind in (K_WAIT, K_LEAD):
        assert _violation(w, 0, kind, 0) is not None


def test_unknown_request_rejected():
    w = WorldState(2, 2)
    with pytest.raises(PreconditionViolation):
        resolve_round({0: "go home", 1: Search()}, w, (1, 1), stream_from_key(0))
