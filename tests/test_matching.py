from fractions import Fraction

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from nestsim.engine import stream_from_key
from nestsim.matching import match_arrays, match_core
from reference import (
    MatchError,
    MatchOutcome,
    RecruitCall,
    exact_distribution,
    match_loop,
    match_round,
    success_indicator,
)


def test_call_rejects_home_target():
    with pytest.raises(MatchError):
        RecruitCall(0, 1, 0)


def test_single_ant_keeps_own_target():
    rng = stream_from_key(0)
    for _ in range(50):
        out = match_round([RecruitCall(7, 1, 3)], rng)
        assert out.returned == {7: 3}
        assert out.pairs in ((), ((7, 7),))


def test_lone_passive_pair_probability():
    # one recruiter a (target 1) and one waiter b (target 2):
    # b is led away exactly when a picks b, so with probability 1/2
    calls = [RecruitCall(0, 1, 1), RecruitCall(1, 0, 2)]
    dist = exact_distribution(calls)
    p_led = sum(p for key, p in dist.items() if dict(key[1])[1] == 1)
    assert p_led == Fraction(1, 2)

    rng = stream_from_key(1)
    hits = sum(
        match_round(calls, rng).returned[1] == 1 for _ in range(20_000)
    )
    assert abs(hits / 20_000 - 0.5) < 0.02


def test_two_recruiters_specific_pair_probability():
    # both active, distinct targets: (a leads b) needs a ahead of b in the
    # permutation and a picking b, hence 1/2 * 1/2
    calls = [RecruitCall(0, 1, 1), RecruitCall(1, 1, 2)]
    dist = exact_distribution(calls)
    p_ab = sum(p for key, p in dist.items() if (0, 1) in key[0])
    assert p_ab == Fraction(1, 4)


def test_oracle_mass_is_one():
    calls = [
        RecruitCall(0, 1, 1),
        RecruitCall(1, 0, 2),
        RecruitCall(2, 1, 2),
        RecruitCall(3, 1, 3),
    ]
    dist = exact_distribution(calls)
    assert sum(dist.values()) == 1


def test_oracle_rejects_large_pool():
    calls = [RecruitCall(i, 1, 1) for i in range(7)]
    with pytest.raises(MatchError):
        exact_distribution(calls)


def test_duplicate_ant_rejected():
    rng = stream_from_key(0)
    calls = [RecruitCall(0, 1, 1), RecruitCall(0, 0, 2)]
    with pytest.raises(MatchError):
        match_round(calls, rng)
    with pytest.raises(MatchError):
        exact_distribution(calls)


def test_empty_pool_rejected():
    with pytest.raises(MatchError):
        match_round([], stream_from_key(0))


def test_success_indicator():
    out = MatchOutcome(pairs=((3, 5),), returned={3: 1, 5: 1})
    assert success_indicator(out, 3) == 1
    assert success_indicator(out, 5) == -1
    assert success_indicator(out, 9) == 0
    self_pair = MatchOutcome(pairs=((2, 2),), returned={2: 4})
    assert success_indicator(self_pair, 2) == 0


call_sets = st.lists(
    st.tuples(st.integers(0, 1), st.integers(1, 3)),
    min_size=1,
    max_size=8,
).map(
    lambda rows: [RecruitCall(i, a, t) for i, (a, t) in enumerate(rows)]
)


@given(calls=call_sets, seed=st.integers(0, 2**32 - 1))
@settings(max_examples=200, deadline=None)
def test_outcome_invariants(calls, seed):
    out = match_round(calls, stream_from_key(seed))
    by_ant = {c.ant: c for c in calls}
    recruiters = [a for a, _ in out.pairs]
    recruited = [b for _, b in out.pairs]
    assert len(recruiters) == len(set(recruiters))
    assert len(recruited) == len(set(recruited))
    non_self_first = {a for a, b in out.pairs if a != b}
    non_self_second = {b for a, b in out.pairs if a != b}
    assert not non_self_first & non_self_second
    for a, b in out.pairs:
        assert by_ant[a].active == 1
    led_by = {b: a for a, b in out.pairs if a != b}
    for c in calls:
        expect = by_ant[led_by[c.ant]].target if c.ant in led_by else c.target
        assert out.returned[c.ant] == expect


@given(calls=call_sets, seed=st.integers(0, 2**32 - 1))
@settings(max_examples=200, deadline=None)
def test_indicators_zero_sum(calls, seed):
    out = match_round(calls, stream_from_key(seed))
    assert sum(success_indicator(out, c.ant) for c in calls) == 0


def test_match_round_deterministic_per_seed():
    calls = [RecruitCall(i, i % 2, 1 + i % 3) for i in range(6)]
    a = [match_round(calls, stream_from_key(9)).key() for _ in range(3)]
    b = [match_round(calls, stream_from_key(9)).key() for _ in range(3)]
    assert a == b


# --- greedy rounds against the sequential loop ---

@st.composite
def pools(draw):
    """(active, targets, perm, picks) lists for one pool of a few ants or of
    over a hundred."""
    m = draw(st.one_of(st.integers(1, 8), st.integers(120, 200)))
    active = draw(st.lists(st.booleans(), min_size=m, max_size=m))
    targets = draw(st.lists(st.integers(1, 4), min_size=m, max_size=m))
    perm = draw(st.permutations(range(m)))
    picks = draw(st.lists(st.integers(0, m - 1), min_size=m, max_size=m))
    return active, targets, perm, picks


class _Dealt:
    """A stream stand-in that deals a fixed order of the callers and fixed
    picks in the documented order: the order, then the picks in that order."""

    def __init__(self, order, picks):
        self.m = len(picks)
        self.order = np.array(order, dtype=np.int64)
        self.draws = np.array(picks, dtype=np.int64)[self.order]

    def permutation(self, callers):
        assert callers.tolist() == sorted(self.order.tolist())
        return self.order

    def integers(self, low, high, size):
        assert (low, high, size) == (0, self.m, self.draws.size)
        return self.draws.copy()


_M = 130
_ALL_ACTIVE = [True] * _M
_TARGETS = [1 + i % 3 for i in range(_M)]
_REVERSED = list(range(_M))[::-1]


@given(pool=pools())
@example(pool=([True], [2], [0], [0]))
@example(pool=([False] * _M, _TARGETS, _REVERSED, [0] * _M))
@example(pool=(_ALL_ACTIVE, _TARGETS, _REVERSED, list(range(_M))))
@example(pool=(_ALL_ACTIVE, _TARGETS, _REVERSED, [i ^ 1 for i in range(_M)]))
@example(pool=([True] * 8, [1] * 8, list(range(8))[::-1], [1, 2, 3, 4, 5, 6, 7, 7]))
@example(pool=([True] * 6, [1, 2, 3, 1, 2, 3], list(range(6)), [1, 0, 1, 1, 2, 3]))
@settings(max_examples=150, deadline=None)
def test_match_core_equals_match_loop(pool):
    # the examples: one ant; nobody active; every ant picks itself; every
    # ant picks its partner in a mutual pair a <-> a^1; a path i -> i + 1
    # whose priorities fall along it, so each greedy round accepts only its
    # lowest edge and drops the next (4 rounds); edges 1-3 meet ant 0's
    # edge, the lowest, at ant 0 or 1, and edges 4 and 5 meet edges 2 and 3,
    # so the first round accepts only the lowest edge and the second two
    active, targets, perm, picks = pool
    # the order `perm` induces on the callers, each edge's priority
    order = [a for a in perm if active[a]]
    recruiter = match_core(np.array(order, dtype=np.int64),
                           np.array([picks[a] for a in order], dtype=np.int64), len(targets))
    want_recruiter, want_returned = match_loop(active, targets, order, picks)
    assert recruiter.tolist() == want_recruiter
    # match_arrays dealt the same draws pairs and returns as the loop does
    pairs, returned = match_arrays(active, targets, _Dealt(order, picks))
    assert pairs.tolist() == [[r, x] for x, r in enumerate(want_recruiter) if r != -1]
    assert returned.tolist() == want_returned


def _documented_draws(active, targets, seed):
    """(pairs, returned, next value) of one plain call, replayed by hand: one
    permutation of the callers, then one batch of picks, one per caller in
    that order, paired by match_loop; then the stream's next `random()`."""
    m = len(targets)
    replay = stream_from_key(seed)
    order = replay.permutation(np.flatnonzero(active)).tolist()
    picks = [-1] * m
    for a, v in zip(order, replay.integers(0, m, size=len(order)).tolist()):
        picks[a] = v
    recruiter, returned = match_loop(active.tolist(), targets.tolist(), order, picks)
    pairs = [[recruiter[x], x] for x in range(m) if recruiter[x] != -1]
    return pairs, returned, replay.random()


_SIZES = [1, 2, 127, 128, 5000]


def _pool(seed, m):
    setup = stream_from_key(seed, m)
    active = setup.random(m) < setup.random()
    return active, setup.integers(1, 5, size=m)


@pytest.mark.parametrize("m", _SIZES)
def test_match_arrays_replays_documented_draws(m):
    # every pool size must pair exactly as the loop does
    for seed in range(5):
        active, targets = _pool(seed, m)
        pairs, returned = match_arrays(active, targets, stream_from_key(seed))
        want_pairs, want_returned, _ = _documented_draws(active, targets, seed)
        assert pairs.dtype == np.int64 and returned.dtype == np.int64
        assert pairs.shape[1] == 2
        assert pairs.tolist() == want_pairs
        assert returned.tolist() == want_returned


@pytest.mark.parametrize("m", _SIZES)
def test_one_pool_draws_as_a_plain_call(m):
    # pool=None and a single pool of every ant give the plain call's output
    # and leave the stream where it leaves it
    for seed in range(3):
        active, targets = _pool(seed, m)
        want_pairs, want_returned, want_next = _documented_draws(active, targets, seed)
        for pool in (None, m):
            rng = stream_from_key(seed)
            pairs, returned = match_arrays(active, targets, rng, pool=pool)
            assert pairs.tolist() == want_pairs
            assert returned.tolist() == want_returned
            assert rng.random() == want_next


@st.composite
def unions(draw):
    """(pool sizes, seed, share of active ants) for a union of at most 384
    ants: equal pools of a few ants or of over a hundred, or pools of
    unequal sizes, empty ones included."""
    if draw(st.booleans()):
        m = draw(st.one_of(st.integers(1, 6), st.integers(120, 136)))
        sizes = (m,) * draw(st.integers(1, 384 // m))
    else:
        sizes = tuple(draw(st.lists(st.integers(0, 130), min_size=2, max_size=8)
                           .filter(lambda s: 0 < sum(s) <= 384)))
    share = draw(st.sampled_from((0.0, 0.3, 1.0)))
    return sizes, draw(st.integers(0, 2**32 - 1)), share


@given(union=unions())
@example(union=((1,), 0, 1.0))
@example(union=((1,) * 384, 0, 0.3))
@example(union=((3,) * 5, 0, 0.0))
@example(union=((4,) * 31, 1, 1.0))
@example(union=((4,) * 32, 1, 1.0))
@example(union=((128,), 2, 0.3))
@example(union=((0, 3, 0, 5, 130), 3, 1.0))
@example(union=((0, 0, 7, 2, 0), 4, 0.3))
@example(union=((6, 0, 6), 5, 1.0))
@settings(max_examples=150, deadline=None)
def test_pooled_call_equals_match_loop_pool_by_pool(union):
    # the examples: one ant; single ants; nobody active; unions of 124 and
    # 128 ants in pools of 4; one pool of 128 ants; unequal pools with
    # empty ones first, between and last; an empty pool between two of one size
    sizes, seed, share = union
    m = sum(sizes)
    setup = stream_from_key(seed, len(sizes), m)
    active = setup.random(m) < share
    targets = setup.integers(1, 5, size=m)

    # one order of the union's callers, then each caller in that order
    # picks uniformly inside its own pool
    replay = stream_from_key(seed)
    order = replay.permutation(np.flatnonzero(active)).tolist()
    starts = np.cumsum((0, *sizes))
    owner = np.repeat(np.arange(len(sizes)), sizes)
    picks = np.full(m, -1)
    for a in order:
        picks[a] = starts[owner[a]] + replay.integers(0, sizes[owner[a]])
    want_pairs, want_returned = [], []
    for lo, hi in zip(starts[:-1].tolist(), starts[1:].tolist()):
        # the order the union's order induces on this pool's callers
        induced = [a - lo for a in order if lo <= a < hi]
        recruiter, pool_returned = match_loop(
            active[lo:hi].tolist(), targets[lo:hi].tolist(),
            induced, (picks[lo:hi] - lo).tolist(),
        )
        want_pairs += [[lo + r, lo + x] for x, r in enumerate(recruiter) if r != -1]
        want_returned += pool_returned
    # pools of one size can also be passed as `pool=m`
    forms = [np.array(sizes)] + ([sizes[0]] if len(set(sizes)) == 1 else [])
    for pool in forms:
        pairs, returned = match_arrays(active, targets, stream_from_key(seed), pool=pool)
        assert pairs.tolist() == want_pairs
        assert returned.tolist() == want_returned


@pytest.mark.parametrize("bounds", [[64] * 40, [1, 5, 64, 2, 130, 3, 1000] * 6])
def test_bound_per_caller_draws_as_consecutive_scalar_calls(bounds):
    """numpy draws integers(0, bounds) as consecutive scalar calls with those
    bounds and leaves the stream where they leave it; with one bound, as one
    scalar call of that size.  So a batch draws its picks as its colonies
    would one after another, and equal pools may take the scalar bound."""
    per_caller, scalars = stream_from_key(3), stream_from_key(3)
    drawn = per_caller.integers(0, np.array(bounds), size=len(bounds))
    assert drawn.tolist() == [int(scalars.integers(0, h)) for h in bounds]
    after = per_caller.random()
    assert scalars.random() == after
    if len(set(bounds)) == 1:
        one_call = stream_from_key(3)
        assert one_call.integers(0, bounds[0], size=len(bounds)).tolist() == drawn.tolist()
        assert one_call.random() == after


@pytest.mark.parametrize("pool", [None, 3, np.array([2, 0, 4])])
def test_no_leader_draws_nothing(pool):
    # pools where nobody leads pair nobody and leave the stream as it was
    rng = stream_from_key(4)
    state = rng.bit_generator.state
    targets = np.arange(6) % 3 + 1
    pairs, returned = match_arrays(np.zeros(6, dtype=bool), targets, rng, pool)
    assert pairs.shape == (0, 2)
    assert returned.tolist() == targets.tolist()
    assert rng.bit_generator.state == state


@pytest.mark.parametrize("m, pool", [(10, 3), (4, 0), (4, 8)])
def test_pool_must_split_the_ants(m, pool):
    with pytest.raises(ValueError):
        match_arrays(np.ones(m, dtype=bool), np.ones(m), stream_from_key(0), pool=pool)
