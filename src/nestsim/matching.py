"""Random pairing of recruiters and recruits at the home nest.

All ants that call recruit() in a round form the pool R.  A uniform random
permutation of R is drawn; each actively recruiting ant, when reached in
permutation order and not already led away, picks a uniform random ant from
all of R (itself included) and the pair sticks iff the pick has neither led
nor been led this round.  A self-pick forms an inert self-pair: it changes
nobody's nest but blocks the ant from being recruited later in the round.

Randomness is consumed in a fixed documented order so runs replay exactly:
first the permutation (one rng.permutation call), then one batch of pick
values, one per active caller in ant-index order.  A pick is only *used* if
its owner is still eligible when reached in the permutation; unused picks
are discarded.  Picks are i.i.d. uniform, so this is distributionally
identical to drawing lazily.

Given the permutation and the picks, the pairing is the sequential greedy
maximal matching of a graph on R: each active ant a contributes the edge
{a, pick(a)} (a self-loop on a self-pick), with priority a's position in
the permutation, and edges are taken in priority order whenever both ends
are still unmatched.  `match_core` runs that loop one ant at a time.
`match_parallel` resolves it in rounds over arrays (Blelloch, Fineman and
Shun, "Greedy Sequential Maximal Independent Set and Matching are Parallel
on Average", SPAA 2012): every round accepts each remaining edge that has
the lowest priority of all remaining edges at both of its ends, then drops
every edge that touches an accepted one.  An accepted edge is exactly one
the sequential loop takes: every edge ahead of it at either end is already
gone, so the loop reaches it with both ends free.  A dropped edge is one the
loop would reach with an end taken.  The lowest remaining edge is accepted
every round, so the rounds end; on these random graphs they end after a
handful.

`match_arrays`, the entry point, resolves a pool of at least
PARALLEL_MIN_POOL ants in rounds and a smaller one with `match_core`; both
give the same pairing for the same draws.  The rounds pay a fixed ~20 array
calls per round however small the pool, the loop a fixed cost per ant, and
they cross near 128 ants.  Per call with the draws included, all ants
active (numpy 2.4, one core of a shared 2-core Xeon): loop 13 us against
rounds 34 us at 2 ants, 44 us against 63 us at 64, 100 us against 79 us at
128, 185 us against 99 us at 256.  The exact outcome distribution that
the tests hold both against is enumerated in `tests/reference.py`.

`match_arrays(..., pool=m)` resolves len(targets) // m equal pools, laid
back to back, in one call and pays the fixed cost once: one permutation of
the whole union, and each caller picks inside its own pool.  No edge joins
two pools, so the greedy matching of the union is, pool by pool, the greedy
matching of each pool under the order the union permutation induces on it,
itself a uniform permutation.  With one pool the draws are a plain call's.
"""

from __future__ import annotations

import numpy as np

# smallest pool resolved in parallel rounds; below it the scalar loop is faster
PARALLEL_MIN_POOL = 128


def match_core(active, targets, perm, picks):
    """Deterministic pairing given the permutation and per-ant pick values.

    `active`, `targets` are sequences indexed by pool position; `perm` is an
    iteration order over pool positions; `picks` maps pool position -> chosen
    pool position (only consulted for active ants).  Returns
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


def match_parallel(active, targets, perm, picks):
    """`match_core` resolved in parallel greedy rounds over numpy arrays.

    Same arguments and result as `match_core`: `active` is a bool array,
    `targets`, `perm` and `picks` int arrays; returns (recruiter, returned)
    as int64 arrays.
    """
    m = targets.size
    # edge e is the e-th active ant in permutation order, so e is its priority
    src = perm[active[perm]]
    dst = picks[src]
    pri = np.arange(src.size)
    recruiter = np.full(m, -1, dtype=np.int64)
    matched = np.zeros(m, dtype=bool)
    lowest = np.empty(m, dtype=np.int64)
    while src.size:
        # lowest remaining priority at each end; an ant owns at most one edge
        lowest.fill(m)
        lowest[src] = pri
        np.minimum.at(lowest, dst, pri)
        win = (lowest[src] == pri) & (lowest[dst] == pri)
        a, x = src[win], dst[win]
        recruiter[x] = a
        matched[a] = True
        matched[x] = True
        keep = ~(matched[src] | matched[dst])
        src, dst, pri = src[keep], dst[keep], pri[keep]
    returned = targets.copy()
    led = np.flatnonzero((recruiter >= 0) & (recruiter != np.arange(m)))
    returned[led] = targets[recruiter[led]]
    return recruiter, returned


def match_arrays(active, targets, rng, pool=None):
    """One recruitment round over parallel pool arrays; the engine fast path.

    `active` holds each pool position's recruit flag (bool), `targets` its
    nest.  Returns (pairs, returned) as int64 arrays in pool positions:
    pairs has one (recruiter, recruited) row per led ant, self-pairs
    included, in recruited order; returned holds each position's nest.
    With `pool`, the arrays hold equal pools of that many ants back to back.
    """
    active = np.asarray(active, dtype=bool)
    targets = np.asarray(targets, dtype=np.int64)
    m = targets.size
    if pool is None:
        pool = m
    elif pool < 1 or m % pool:
        raise ValueError(f"{m} ants do not split into pools of {pool}")
    perm = rng.permutation(m)
    callers = active.nonzero()[0]
    draws = rng.integers(0, pool, size=callers.size) if callers.size else callers
    if pool < m:
        draws += callers // pool * pool
    if m < PARALLEL_MIN_POOL:
        # match_core looks up a pick only for an active ant
        picks = dict(zip(callers.tolist(), draws.tolist()))
        recruiter, returned = match_core(
            active.tolist(), targets.tolist(), perm.tolist(), picks
        )
        pairs = [(r, x) for x, r in enumerate(recruiter) if r != -1]
        return (
            np.array(pairs, dtype=np.int64).reshape(-1, 2),
            np.array(returned, dtype=np.int64),
        )
    picks = np.full(m, -1, dtype=np.int64)
    picks[callers] = draws
    recruiter, returned = match_parallel(active, targets, perm, picks)
    led = (recruiter >= 0).nonzero()[0]
    return np.stack((recruiter[led], led), axis=1), returned

