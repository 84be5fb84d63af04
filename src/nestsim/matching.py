"""Random pairing of recruiters and recruits at the home nest.

All ants that call recruit() in a round form the pool R, and its actively
recruiting ants are the callers.  The callers are taken in a uniform random
order; each, when reached and not already led away, picks a uniform random
ant from all of R (itself included) and the pair sticks iff the pick has
neither led nor been led this round.  A self-pick forms an inert self-pair:
it changes nobody's nest but blocks the ant from being recruited later in
the round.

Randomness is consumed in a fixed documented order so runs replay exactly:
first the callers' order (one rng.permutation call over the callers), then
one batch of picks, one per caller in that order.  A pick is only *used* if
its owner is still eligible when reached.  Picks are i.i.d. uniform and
independent of the order, so this is the law of drawing lazily; and as a
uniform permutation of R induces a uniform order on the callers, it is the
law of ordering all of R.  A pool with no caller draws nothing: numpy
leaves the stream as it is for an empty permutation and an empty batch.

Given the order and the picks, the pairing is the sequential greedy
maximal matching of a graph on R: each caller a contributes the edge
{a, pick(a)} (a self-loop on a self-pick), with priority a's place in the
order, and edges are taken in priority order whenever both ends are still
unmatched.  `match_core` resolves it in rounds over arrays (Blelloch,
Fineman and Shun, "Greedy Sequential Maximal Independent Set and Matching
are Parallel on Average", SPAA 2012): every round accepts each remaining
edge that has the lowest priority of all remaining edges at both of its
ends, then drops every edge that touches an accepted one.  An accepted
edge is exactly one the sequential loop takes: every edge ahead of it at
either end is already gone, so the loop reaches it with both ends free.  A
dropped edge is one the loop would reach with an end taken.  The lowest
remaining edge is accepted every round, so the rounds end; on these random
graphs they end after a handful.  The loop itself, one ant at a time, is
kept as the test oracle `match_loop` in `tests/reference.py`, which also
enumerates the exact outcome distribution on tiny pools.  The rounds
compact their edges through index sets (`nonzero`, then integer
indexing), as numpy 2.4 indexes 50 000 entries with a random boolean mask
of 15-50% density about 4 times slower than `nonzero` plus the gather.

`match_arrays` resolves pools laid back to back in one call and pays the
fixed cost once: one order of the callers of the whole union, and one
batch of picks in which each caller picks inside its own pool.  No edge
joins two pools, so the greedy matching of the union is, pool by pool, the
greedy matching of each pool under the order the union's order induces on
its callers, itself a uniform order.  Callers give the pools by their
sizes: the engine's batches pass each colony's pool, the lemma lab equal
pools of one trial each.  Where every pool has one size the picks draw
with a scalar bound, which numpy draws several times faster than a bound
per caller, and which gives the same values and leaves the stream in the
same state.  With one pool the draws are a plain call's.

A call on a small pool is nearly all fixed cost, so the lemma lab and a
sweep play their trials in `chunks` of at most UNION_ANTS ants, one call a
chunk and round.  The constant chunk size fixes the draw order, hence the
output, and bounds memory; one trial a chunk draws as one call a trial.
"""

from __future__ import annotations

import numpy as np

# ants in one matcher call, in the lemma lab's chunks and a sweep's batches;
# larger unions fall out of cache and get slower
UNION_ANTS = 1 << 14


def match_core(src, dst, m):
    """Greedy matching of the edges (src[i], dst[i]), taken in the order i.

    `src` holds distinct pool positions, each edge's owner, and `dst` its
    pick, a position of the pool of m ants; src[i] == dst[i] is a
    self-loop.  Returns `recruiter`, an int64 array: recruiter[x] is the
    pool position that led x away, -1 if none and x itself for a self-pair.
    """
    pri = np.arange(src.size)
    recruiter = np.full(m, -1, dtype=np.int64)
    free = np.ones(m, dtype=bool)
    # only a remaining edge's ends are read: src ends are written each round,
    # and dst ends start above every priority and are reset to it each round
    lowest = np.full(m, m, dtype=np.int64)
    while src.size:
        # lowest remaining priority at each end; an ant owns at most one edge
        lowest[src] = pri
        np.minimum.at(lowest, dst, pri)
        # both ends hold at most pri, so the smaller is pri iff both are
        win = (np.minimum(lowest[src], lowest[dst]) == pri).nonzero()[0]
        a, x = src[win], dst[win]
        recruiter[x] = a
        if a.size == src.size:  # every remaining edge was taken
            break
        free[a] = False
        free[x] = False
        keep = (free[src] & free[dst]).nonzero()[0]
        src, dst, pri = src[keep], dst[keep], pri[keep]
        lowest[dst] = m
    return recruiter


def match_arrays(active, targets, rng, sizes):
    """One recruitment round over pools laid back to back; the one entry point.

    `active` holds each pool position's recruit flag (a bool array),
    `targets` its nest (an int64 array), and `sizes` the int array of the
    pools' sizes in order, empty pools included.  Returns (pairs, returned)
    as int64 arrays in pool positions: pairs has one (recruiter, recruited)
    row per led ant, self-pairs included, in recruited order; returned
    holds each position's nest.
    """
    m = targets.size
    order = rng.permutation(active.nonzero()[0])
    if sizes.min() == sizes.max():
        high = int(sizes[0])
        start = order // high * high if high < m else 0
    else:
        ends = np.cumsum(sizes)
        owner = np.repeat(np.arange(sizes.size), sizes)[order]  # each caller's pool
        high = sizes[owner]
        start = ends[owner] - high
    recruiter = match_core(order, rng.integers(0, high, size=order.size) + start, m)
    led = (recruiter >= 0).nonzero()[0]
    pairs = np.empty((led.size, 2), dtype=np.int64)
    pairs[:, 0] = recruiter[led]
    pairs[:, 1] = led
    returned = targets.copy()
    returned[led] = targets[pairs[:, 0]]
    return pairs, returned


def chunks(trials, m):
    """Trials in each successive chunk for pools of m ants, drawn lazily."""
    per = max(1, UNION_ANTS // m)
    return (min(per, trials - t) for t in range(0, trials, per))
