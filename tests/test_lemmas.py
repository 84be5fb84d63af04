import math

import numpy as np
import pytest

from nestsim import engine, lemmas, matching
from nestsim.engine import stream_from_key
from nestsim.lemmas import (
    ScenarioError,
    ScenarioSpec,
    _profile_commitments,
    dropout_time,
    ignorance_retention,
    initial_gap_expectation,
    nest_delta_distribution,
    ratio_growth,
    recruit_success_rate,
)
from nestsim.simple import SimpleCohort
from nestsim.world import WorldState


def test_scenario_spec_validation():
    with pytest.raises(ScenarioError):
        ScenarioSpec((), 10, 0)
    with pytest.raises(ScenarioError):
        ScenarioSpec(((1, -1, 1),), 10, 0)
    with pytest.raises(ScenarioError):
        ScenarioSpec(((1, 8, 1), (2, 0, 1)), 10, 0)
    with pytest.raises(ScenarioError):
        ScenarioSpec(((1, 2, 1),), 0, 0)


def test_recruit_success_two_ants():
    report = recruit_success_rate(ScenarioSpec(((1, 2, 1),), 20_000, 0))
    assert report.passed
    assert report.estimates["success_rate"] >= 1 / 16


def test_recruit_success_single_ant_rejected():
    with pytest.raises(ScenarioError):
        recruit_success_rate(ScenarioSpec(((1, 1, 1),), 100, 0))


def test_recruit_success_needs_a_recruiter():
    with pytest.raises(ScenarioError):
        recruit_success_rate(ScenarioSpec(((1, 4, 0),), 100, 0))


def test_retention_two_ants():
    report = ignorance_retention(2, 5_000, 0)
    assert report.passed
    # with one informed and one ignorant ant the pick is a coin flip
    assert abs(report.estimates["retention_per_round"][0] - 0.5) < 0.05


def test_retention_single_ant_trivial():
    report = ignorance_retention(1, 10, 0)
    assert report.passed
    assert report.estimates["rounds_to_full_min"] == 0


def test_retention_reports_spread_distribution():
    report = ignorance_retention(64, 300, 1)
    assert report.passed
    assert report.details["unfinished_trials"] == 0
    assert report.estimates["rounds_to_full_min"] >= 2


def test_nest_delta_symmetry_balanced():
    report = nest_delta_distribution(ScenarioSpec(((1, 8, 1), (2, 8, 1)), 20_000, 0))
    assert report.passed
    for nest in ("nest_1", "nest_2"):
        est = report.estimates[nest]
        assert est["p_neg"] >= 1 / 66
        assert abs(est["p_neg"] - est["p_pos"]) <= 4 * report.stderr[nest]["diff"]


def test_nest_delta_single_cohort_rejected():
    with pytest.raises(ScenarioError):
        nest_delta_distribution(ScenarioSpec(((1, 8, 1),), 100, 0))


def test_nest_delta_requires_all_active():
    with pytest.raises(ScenarioError):
        nest_delta_distribution(ScenarioSpec(((1, 8, 1), (2, 8, 0)), 100, 0))


def test_initial_gap_exact_small_n_flagged():
    report = initial_gap_expectation(2, 2, "exact")
    assert not report.passed
    assert report.estimates["e_gap_zero_convention"] == 0
    assert report.notes


def test_initial_gap_exact_n8():
    report = initial_gap_expectation(8, 2, "exact")
    assert report.passed
    assert report.estimates["e_gap_zero_convention"] >= 1 / 21


def test_initial_gap_exact_rejects_large_instances():
    with pytest.raises(ScenarioError):
        initial_gap_expectation(64, 2, "exact")
    with pytest.raises(ScenarioError):
        initial_gap_expectation(8, 3, "exact")
    with pytest.raises(ScenarioError):
        initial_gap_expectation(8, 2, "no-such-mode")


def test_initial_gap_monte_carlo_matches_exact():
    exact = initial_gap_expectation(8, 2, "exact")
    mc = initial_gap_expectation(8, 2, "monte-carlo", trials=50_000, seed=3)
    want = float(exact.estimates["e_gap_both_nonzero"])
    got = mc.estimates["e_gap_both_nonzero"]
    se = mc.stderr["e_gap_both_nonzero"]
    assert abs(got - want) <= 3 * se


def test_ratio_growth_symmetric_start():
    report = ratio_growth(256, 2, (128, 128), 2_000, 0)
    assert report.estimates["eps_before"] == 0.0
    assert report.passed


def test_ratio_growth_rejects_small_nest():
    with pytest.raises(ScenarioError):
        ratio_growth(256, 2, (255, 1), 100, 0)


def _profile_loop(n, k, sizes_by_nest):
    # named nests in order, then the rest dealt out over the unnamed nests
    commit = [nest for nest, size in sizes_by_nest.items() for _ in range(size)]
    rest = [i for i in range(1, k + 1) if i not in sizes_by_nest]
    return commit + [rest[i % len(rest)] for i in range(n - len(commit))]


@pytest.mark.parametrize(
    "n, k, sizes",
    [(10, 4, {2: 3, 1: 2}), (4, 2, {1: 1, 2: 3}), (4096, 4, {1: 16}),
     (4096, 2, {1: 2400, 2: 1696}), (7, 5, {3: 0})],
)
def test_profile_commitments_layout(n, k, sizes):
    commit = _profile_commitments(n, k, sizes)
    assert commit.dtype == np.int64
    assert commit.tolist() == _profile_loop(n, k, sizes)


def test_ratio_growth_rejects_missing_nest():
    # at k = 1 there is no nest 2 to seat the second size on
    with pytest.raises(ScenarioError):
        ratio_growth(4096, 1, (2000, 2096), 20, 0)
    with pytest.raises(ScenarioError):
        _profile_commitments(8, 2, {3: 4})


@pytest.mark.parametrize("seed", range(5))
@pytest.mark.parametrize("trials", [1, 4])
@pytest.mark.parametrize(
    "n, k, sizes", [(4096, 2, {1: 2400, 2: 1696}), (4096, 4, {1: 16}), (64, 3, {1: 30, 2: 20})],
)
def test_recruit_cycle_is_the_simple_cohort_s_recruitment_round(n, k, sizes, trials, seed):
    """The lab's recruitment round equals the shipped `simple` cohort's.

    A cohort built from the profile, every ant active and counting its
    nest's population, plays one recruitment round (round 2) through the
    engine's resolve.  Its commitments equal `_one_recruit_cycle`'s byte
    for byte, and both leave the stream in the same state."""
    commit0 = _profile_commitments(n, k, sizes)
    populations = np.bincount(commit0, minlength=k + 1)[commit0]
    cohort = SimpleCohort(np.tile(commit0, (trials, 1)), np.tile(populations, (trials, 1)),
                          np.ones((trials, n), dtype=bool))
    world = WorldState(n, k, trials)
    world.visited[:] = True
    shipped, lab = stream_from_key(seed), stream_from_key(seed)
    kind, target = cohort.emit(2, shipped)
    res_nest, res_count, _counts, led = engine._resolve_arrays(world, kind, target, shipped)
    cohort.absorb(2, res_nest, res_count, led)
    want = lemmas._one_recruit_cycle(np.tile(commit0, (trials, 1)), n, k, lab)
    assert (cohort.nest.dtype, cohort.nest.shape) == (want.dtype, want.shape)
    assert cohort.nest.tobytes() == want.tobytes()
    assert shipped.bit_generator.state == lab.bit_generator.state


def test_ratio_growth_grows_the_gap():
    report = ratio_growth(1024, 2, (550, 474), 3_000, 1)
    assert report.passed
    factor = report.bounds["growth_factor"]
    assert math.isclose(factor, 1 + 1 / (2 * 64 * 2))


def test_dropout_empty_start_trivial():
    report = dropout_time(256, 4, 0, 10, 0)
    assert report.passed
    assert report.estimates["dropout_round_max"] == 0


def test_dropout_rejects_large_seeded_nest():
    with pytest.raises(ScenarioError):
        dropout_time(256, 4, 64, 10, 0)


def test_dropout_small_nest_shrinks():
    report = dropout_time(512, 4, 2, 100, 0)
    assert report.passed
    assert report.estimates["mean_population_delta"] <= 0
    assert report.estimates["dropout_round_max"] <= report.bounds["round_bound"]


def test_estimators_deterministic():
    spec = ScenarioSpec(((1, 4, 1), (2, 4, 1)), 2_000, 7)
    a = nest_delta_distribution(spec).to_json()
    b = nest_delta_distribution(spec).to_json()
    assert a == b
    assert dropout_time(512, 4, 2, 20, 5).to_json() == dropout_time(512, 4, 2, 20, 5).to_json()


@pytest.mark.parametrize(
    "estimate, args",
    [
        (ignorance_retention, (64, 0, 1)),
        (ignorance_retention, (1, -1, 1)),
        (ratio_growth, (4096, 2, (2400, 1696), 0, 1)),
        (dropout_time, (4096, 4, 16, 0, 1)),
        (dropout_time, (4096, 4, 0, 0, 1)),
        (initial_gap_expectation, (64, 3, "monte-carlo", 0)),
    ],
    ids=["retention", "retention-one-ant", "ratio-growth", "dropout", "dropout-empty",
         "eps-init"],
)
def test_estimators_reject_no_trials(estimate, args):
    with pytest.raises(ScenarioError, match="trials must be positive"):
        estimate(*args)


def _spy_calls(monkeypatch):
    """Record (pool, pools, pairs) of every matcher call the estimators make."""
    calls = []
    match_arrays = lemmas.match_arrays

    def spy(active, targets, rng, sizes):
        pairs, returned = match_arrays(active, targets, rng, sizes)
        assert (sizes == sizes[0]).all()  # one pool a trial
        calls.append((int(sizes[0]), sizes.size, pairs))
        return pairs, returned

    monkeypatch.setattr(lemmas, "match_arrays", spy)
    return calls


def _per_trial_pairs(calls):
    """Each trial's pairs in its own pool positions, in trial order."""
    for pool, pools, pairs in calls:
        for t in range(pools):
            rows = pairs[pairs[:, 1] // pool == t] - t * pool
            yield rows.tolist()


@pytest.mark.parametrize("union_ants", [1, 11, 1 << 14])
def test_chunked_counts_equal_per_trial_counts(union_ants, monkeypatch):
    # the array counts over a chunk's pools against the one-trial loops;
    # 11 ants end each estimator's 1001 trials on a chunk of 1 after chunks
    # of 5 pools of 2 ants, or of 2 pools of 5
    monkeypatch.setattr(matching, "UNION_ANTS", union_ants)
    calls = _spy_calls(monkeypatch)
    spec = ScenarioSpec(((1, 1, 1), (2, 1, 0)), 1_001, 4)
    report = recruit_success_rate(spec)
    trials = list(_per_trial_pairs(calls))
    hits = sum(any(a == 0 and b != 0 for a, b in rows) for rows in trials)
    assert report.estimates["success_rate"] == hits / spec.trials

    calls.clear()
    spec = ScenarioSpec(((1, 3, 1), (2, 2, 1)), 1_001, 4)
    report = nest_delta_distribution(spec)
    gid = np.array([0, 0, 0, 1, 1])
    signs = np.zeros((2, 3), dtype=int)
    for rows in _per_trial_pairs(calls):
        y = np.zeros(2, dtype=int)
        for a, b in rows:
            if a != b:
                y[gid[a]] += 1
                y[gid[b]] -= 1
        signs[np.arange(2), np.sign(y) + 1] += 1
    for g, nest in enumerate(("nest_1", "nest_2")):
        est = report.estimates[nest]
        assert [est["p_neg"], est["p_zero"], est["p_pos"]] == (signs[g] / 1_001).tolist()
