"""Seeded simulator of collective nest-site selection in ant colonies.

A colony of n ants must agree on one of k candidate nests, at least one of
which is suitable.  Ants act in synchronous rounds through three primitives
(search, go, recruit); recruitment at the home nest is resolved by a
centralized random pairing.  Two decision strategies are provided: a
count-based drop-out strategy that converges in O(log n) rounds and a
population-proportional recruitment strategy that converges in O(k log n)
rounds.  The package also ships empirical checkers for the per-round
probabilistic bounds the strategies rely on, and a sweep harness for the
convergence-scaling experiments.
"""

__version__ = "0.1.0"

from .config import ColonyConfig, make_qualities
from .engine import ConvergenceReport, Trace, run

__all__ = [
    "ColonyConfig",
    "make_qualities",
    "ConvergenceReport",
    "Trace",
    "run",
]
