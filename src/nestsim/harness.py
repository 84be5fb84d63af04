"""Parameter sweeps over (n, k) cells and scaling-law fits.

A sweep runs a fixed number of seeded trials per cell, summarizes rounds to
convergence, and emits a versioned CSV.  Each cell draws from one stream,
derived from (master seed, n, k), so cells are independent and the CSV is
byte-identical across repeated invocations.

A cell draws every trial's qualities first, in trial order, and then
plays its trials in `matching.chunks` of at most UNION_ANTS ants (at
least one trial), each chunk one `engine.run` batch on the cell's stream.
A cell of one trial is the lone run on that stream.
"""

from __future__ import annotations

import io
import math
from dataclasses import dataclass, fields

import numpy as np

from .config import ColonyConfig, check_size, make_qualities
from .engine import run, stream_from_key
from .matching import chunks

CSV_SCHEMA = "# nestsim-sweep-csv v1"


class FitError(ValueError):
    pass


@dataclass(frozen=True)
class ExperimentSpec:
    algorithm: str
    n_values: tuple
    k_values: tuple
    pattern: str = "all-good"
    trials: int = 100
    seed: int = 0
    max_rounds: int = 0

    def __post_init__(self):
        if not self.n_values:
            raise ValueError("n_values must be non-empty")
        if not self.k_values:
            raise ValueError("k_values must be non-empty")
        for n in self.n_values:  # every cell, before any is built
            for k in self.k_values:
                check_size(n, k)
        if self.trials < 1:
            raise ValueError("trials must be >= 1")


@dataclass(frozen=True)
class SummaryRow:
    algorithm: str
    n: int
    k: int
    trials: int
    converged: int
    median_rounds: float
    mean_rounds: float
    p10_rounds: float
    p90_rounds: float
    min_rounds: int
    max_rounds: int


COLUMNS = [f.name for f in fields(SummaryRow)]
# CSV text to value, by field type (annotations are strings here)
_PARSE = {"str": str, "int": int, "float": float}


def run_cell(spec: ExperimentSpec, n: int, k: int) -> SummaryRow:
    rng = stream_from_key(spec.seed, n, k)
    configs = [ColonyConfig(n, k, make_qualities(k, spec.pattern, rng), spec.algorithm,
                            spec.max_rounds) for _ in range(spec.trials)]
    rounds, start = [], 0
    for t in chunks(spec.trials, n):
        _trace, reports = run(configs[start:start + t], rng)
        rounds += [rep.rounds_to_converge for rep in reports if rep.converged]
        start += t
    # a cell with no converged trial gets nan statistics and 0 extremes
    arr = np.asarray(rounds or [math.nan], dtype=np.float64)
    return SummaryRow(
        algorithm=spec.algorithm,
        n=n,
        k=k,
        trials=spec.trials,
        converged=len(rounds),
        median_rounds=float(np.median(arr)),
        mean_rounds=float(arr.mean()),
        p10_rounds=float(np.percentile(arr, 10)),
        p90_rounds=float(np.percentile(arr, 90)),
        min_rounds=int(arr.min()) if rounds else 0,
        max_rounds=int(arr.max()) if rounds else 0,
    )


def sweep(spec: ExperimentSpec) -> list:
    """Run all (n, k) cells in deterministic order."""
    return [run_cell(spec, n, k) for n in spec.n_values for k in spec.k_values]


def _fmt(value) -> str:
    if isinstance(value, float):
        return format(value, ".6g")
    return str(value)


def rows_to_csv(rows) -> str:
    buf = io.StringIO()
    buf.write(CSV_SCHEMA + "\n")
    buf.write(",".join(COLUMNS) + "\n")
    for row in rows:
        buf.write(",".join(_fmt(getattr(row, c)) for c in COLUMNS) + "\n")
    return buf.getvalue()


def csv_to_rows(text: str) -> list:
    lines = [ln for ln in text.splitlines() if ln and not ln.startswith("#")]
    if not lines:
        return []
    header = lines[0].split(",")
    if header != COLUMNS:
        raise FitError(f"unexpected CSV columns {header}")
    parse = [_PARSE[f.type] for f in fields(SummaryRow)]
    rows = []
    for ln in lines[1:]:
        values = ln.split(",")
        try:
            if len(values) != len(parse):
                raise ValueError(f"{len(values)} values, need {len(parse)}")
            rows.append(SummaryRow(*(p(raw) for p, raw in zip(parse, values))))
        except ValueError as exc:
            raise FitError(f"bad CSV row {ln!r}: {exc}") from None
    return rows


def fit_scaling(rows, model: str):
    """Least-squares fit of median rounds against log2(n) or k*log2(n).

    Ordinary least squares with an intercept.  Returns (a, b, r_squared)
    for median_rounds ~= a * regressor + b.  A constant response has
    R^2 = 0 by convention (the regressor explains nothing).
    """
    if model not in ("logn", "klogn"):
        raise FitError("model must be 'logn' or 'klogn'")
    rows = [r for r in rows if not math.isnan(r.median_rounds)]
    if len(rows) < 3:
        raise FitError("need at least 3 rows with converged trials")
    x = np.asarray(
        [
            math.log2(r.n) * (r.k if model == "klogn" else 1)
            for r in rows
        ]
    )
    y = np.asarray([r.median_rounds for r in rows])
    if np.allclose(x, x[0]):
        raise FitError("degenerate design: regressor is constant")
    a, b = np.polyfit(x, y, 1)
    ss_res = float(((y - (a * x + b)) ** 2).sum())
    ss_tot = float(((y - y.mean()) ** 2).sum())
    r2 = 0.0 if ss_tot == 0.0 else 1.0 - ss_res / ss_tot
    return float(a), float(b), r2
