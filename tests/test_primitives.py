import numpy as np
import pytest

from nestsim.engine import stream_from_key
from nestsim.world import HOME, K_GO, K_LEAD, K_SEARCH, K_WAIT, WorldState, violations, visit
from reference import (
    Go,
    GoResult,
    PreconditionViolation,
    Recruit,
    RecruitResult,
    Search,
    resolve_round,
    validate,
    visit_all,
    visit_one,
    visited_dense,
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
        assert np.flatnonzero(visited_dense(w)[0, ant]).tolist() == [HOME]


def test_counts_sum_to_n():
    w = WorldState(6, 2)
    visit_all(w)
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
    visit_one(w, 1, 2)
    assert _violation(w, 1, K_GO, 2) is None


def test_recruit_requires_prior_visit():
    for kind in (K_WAIT, K_LEAD):
        w = WorldState(3, 2)
        assert _violation(w, 0, kind, 1) is not None
        visit_one(w, 0, 1)
        assert _violation(w, 0, kind, 1) is None


def test_recruit_home_rejected():
    w = WorldState(2, 2)
    for kind in (K_WAIT, K_LEAD):
        assert _violation(w, 0, kind, 0) is not None


def test_unknown_request_rejected():
    w = WorldState(2, 2)
    with pytest.raises(PreconditionViolation):
        resolve_round({0: "go home", 1: Search()}, w, (1, 1), stream_from_key(0))


@pytest.mark.parametrize("k", [1, 7, 8, 12, 300])
def test_packed_visits_match_the_dense_history(k):
    """`visit` sets exactly the bits it is given, over batched rows of one
    byte and of several, and `violations` flags exactly the requests other
    than search whose target is off 1..k or unvisited in the dense view."""
    rng = np.random.default_rng(k)
    w = WorldState(50, k, colonies=3)
    want = np.zeros((w.location.size, k + 1), dtype=bool)
    want[:, HOME] = True
    for _ in range(3):  # each call covers distinct ants, as the engine's do
        ants, nests = rng.permutation(w.location.size)[:100], rng.integers(0, k + 1, size=100)
        visit(w, ants, nests)
        want[ants, nests] = True
    dense = visited_dense(w)
    assert np.array_equal(dense, want.reshape(dense.shape))
    kind = rng.integers(K_SEARCH, K_LEAD + 1, size=w.location.shape).astype(np.int8)
    target = rng.integers(-9, k + 10, size=w.location.shape)
    inside = (target >= 1) & (target <= k)
    seen = np.take_along_axis(dense, np.clip(target, 0, k)[..., None], 2)[..., 0]
    assert np.array_equal(violations(w, kind, target), (kind != K_SEARCH) & ~(inside & seen))
