"""Experiment configuration: colony size, candidate nests, qualities, algorithm."""

from __future__ import annotations

import math
import os
from dataclasses import dataclass, field

ALGORITHMS = ("optimal", "simple")

# Constants the published analyses instantiate the nest-count regime and the
# lemma bounds with: c is the failure exponent, d bounds the small-nest size.
REGIME_C = 1
REGIME_D = 64
# "random:p" with more expected draws of k nests than this is rejected
MAX_QUALITY_DRAWS = 10_000
ANT_BYTES = 128  # bytes of per-ant arrays a round or a matcher call holds: a floor


class ConfigError(ValueError):
    pass


def default_max_rounds(n: int, k: int) -> int:
    """Generous round cap: hitting it indicates a bug, not bad luck."""
    return 200 * k * max(1, math.ceil(math.log2(max(n, 2))))


@dataclass(frozen=True)
class ColonyConfig:
    """One run definition: (n, k, qualities, algorithm, round cap)."""

    n: int
    k: int
    qualities: tuple
    algorithm: str
    max_rounds: int = 0

    def __post_init__(self):
        check_size(self.n, self.k)
        object.__setattr__(self, "qualities", tuple(int(q) for q in self.qualities))
        if len(self.qualities) != self.k:
            raise ConfigError(f"need exactly {self.k} qualities, got {len(self.qualities)}")
        if any(q not in (0, 1) for q in self.qualities):
            raise ConfigError("qualities must be 0 or 1")
        if not any(self.qualities):
            raise ConfigError("at least one nest must have quality 1")
        if self.algorithm not in ALGORITHMS:
            raise ConfigError(f"algorithm must be one of {ALGORITHMS}")
        if self.max_rounds == 0:
            object.__setattr__(self, "max_rounds", default_max_rounds(self.n, self.k))
        if self.max_rounds < 1:
            raise ConfigError("max_rounds must be positive")


def check_fits(nbytes: int, what: str):
    """Reject `what`, whose arrays take `nbytes`, if they exceed physical memory."""
    if nbytes > os.sysconf("SC_PAGE_SIZE") * os.sysconf("SC_PHYS_PAGES"):
        raise ConfigError(f"{what} does not fit in memory")


def check_size(n: int, k: int):
    """Reject n or k below 1, or a colony whose `visited` (n·(k + 1) bytes)
    and per-ant arrays (ANT_BYTES an ant) exceed physical memory."""
    if n < 1 or k < 1:
        raise ConfigError("n and k must be positive integers")
    check_fits(n * (k + 1 + ANT_BYTES), f"a colony of n={n} ants and k={k} nests")


def analyzed_k_limit(algorithm: str, n: int) -> float:
    """Largest k the convergence analysis of the given algorithm covers."""
    logn = math.log(max(n, 2))
    if algorithm == "optimal":
        return n / (12 * (REGIME_C + 1) * logn)
    return math.sqrt(n / (8 * REGIME_D**2 * (REGIME_C + 6) * logn))


def make_qualities(k: int, pattern: str, rng) -> tuple:
    """Build a quality vector from a named pattern.

    Patterns: "one-good" (nest 1 suitable, rest not), "all-good", or
    "random:p" (each nest suitable with probability p, redrawn until one
    is, at most `MAX_QUALITY_DRAWS` times expected), drawn from rng.
    """
    if pattern == "one-good":
        return (1,) + (0,) * (k - 1)
    if pattern == "all-good":
        return (1,) * k
    if pattern.startswith("random:"):
        try:
            p = float(pattern.split(":", 1)[1])
        except ValueError:
            p = math.nan  # rejected below
        if not 0 < p <= 1:
            raise ConfigError(f"{pattern!r}: p must be a number with 0 < p <= 1")
        # 1 / expected draws, written so that a tiny p does not round it to 0
        if p < 1 and -math.expm1(k * math.log1p(-p)) * MAX_QUALITY_DRAWS < 1:
            raise ConfigError(f"{pattern!r} expects over {MAX_QUALITY_DRAWS} draws at k={k}")
        while True:
            qs = tuple(int(x) for x in (rng.random(k) < p))
            if any(qs):
                return qs
    # explicit comma-separated vector, e.g. "1,0,1"
    try:
        qs = tuple(int(x) for x in pattern.split(","))
    except ValueError:
        raise ConfigError(f"unknown quality pattern {pattern!r}") from None
    if len(qs) != k:
        raise ConfigError(f"quality vector {pattern!r} does not have length {k}")
    return qs


def load_config_file(path) -> dict:
    """Read a flat key=value config file; '#' starts a comment."""
    out = {}
    with open(path, encoding="utf-8") as fh:
        for lineno, raw in enumerate(fh, 1):
            line = raw.split("#", 1)[0].strip()
            if not line:
                continue
            if "=" not in line:
                raise ConfigError(f"{path}:{lineno}: expected key=value, got {raw!r}")
            key, value = line.split("=", 1)
            out[key.strip()] = value.strip()
    return out
