"""Benchmark for nestsim: one workload per invocation, in one process and thread.

Run from the repository root:

    python3 bench/run.py --workload colony-large --seed 1 --seconds 30 --trace 0

It imports nestsim from `src/` next to this directory and drives it only
through `nestsim.cli.main`, called in process.  A run sets up the workload
(median of several set-ups), then repeats whole passes over the workload's
operations, with the same inputs each time, while another pass still fits in
`--seconds`; there is always at least one pass.  Every output of every pass is
checked, and every pass must write byte-identical files.  Each operation's
time is the median of its repeats.

The last line of stdout is one JSON object with `correct`, `attempted`,
`failed` and `metrics`.  With `--trace 1` the passes alternate between plain
and traced ones (layer spans installed), the outputs of both must agree, and
the per-layer metrics of the median traced pass are reported instead.  The
exit code is 0 only when every check passed.
"""

from __future__ import annotations

import os

# the benchmark measures one thread; fix BLAS pools before numpy loads
for _var in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS"):
    os.environ[_var] = "1"

import argparse
import hashlib
import importlib
import json
import math
import random
import resource
import statistics
import sys
import tempfile
import time
import warnings
from dataclasses import dataclass, field
from pathlib import Path

from checks import check_lemma, check_run, check_sweep, read_sweep_csv
from layers import Spans, layer_metrics

ROOT = Path(__file__).resolve().parent.parent
SRC = ROOT / "src"
TMP_PARENT = ROOT / ".bench_tmp"
SETUP_REPEATS = 15
FAULT = "optimal-passive-on-winner-livelock"
MODULES = ("cli", "harness", "engine", "lemmas", "matching", "optimal", "simple")


@dataclass
class Op:
    """One call of `nestsim.cli.main`; `out` names its output file."""

    label: str
    kind: str                      # run | sweep | lemma
    family: str | None             # optimal | simple: which per-round figure it feeds
    argv: list
    out: str
    spec: dict = field(default_factory=dict)


@dataclass
class Outcome:
    seconds: float
    rc: int
    rounds: int
    trials: int
    attempted: int
    failed: int
    digest: str
    problems: list
    rows: list = field(default_factory=list)


# --- workloads -------------------------------------------------------------

COLONY_N = 50_000
COLONY_RUNS = (
    # algo, k, qualities, verbose
    ("optimal", 4, "one-good", False),
    ("optimal", 4, "all-good", False),
    ("simple", 4, "one-good", False),
    ("simple", 4, "all-good", False),
    ("optimal", 256, "all-good", False),
    # the shortest run at this size; its trace holds every ant's location
    # each round, so it stays out of the per-round figures
    ("simple", 4, "one-good", True),
)

# n = 256 is left out: at this many trials its median rounds can tie those at n = 64
SWEEP_NS = (64, 1024)
SWEEP_KS = (2, 4)
SWEEP_TRIALS = 60
SWEEP_GROUPS = (
    # one-good: every active ant starts on nest 1, the only suitable nest, and
    # all of them turn final at the end of the first block, so no ant can drop
    # out onto the winner and the livelock cannot occur on seed-drawn inputs
    ("optimal", "one-good"),
    ("simple", "all-good"),
)
# the cell where the livelock occurs; seed and trials fixed, so the same
# trials fail in every run.  4800 is the program's default cap at n=64, k=4.
FAULT_CELL = {"algo": "optimal", "qualities": "all-good", "n": 64, "k": 4,
              "trials": SWEEP_TRIALS, "seed": 7, "max_rounds": 4800}

LEMMAS = (
    # estimator, family, flags, trials
    ("recruit-success", "optimal", ["--active", "2"], 20_000),
    ("nest-delta", "optimal", ["--sizes", "20,10"], 6_000),
    ("retention", "optimal", ["--n", "256"], 120),
    ("ratio-growth", "simple", ["--n", "4096", "--k", "2", "--sizes", "2400,1696"], 120),
    ("dropout", "simple", ["--n", "4096", "--k", "4", "--small", "16"], 20),
)


def colony_ops(seed):
    rng = random.Random(seed)
    ops = []
    for algo, k, qual, verbose in COLONY_RUNS:
        label = f"{algo}-k{k}-{qual}" + ("-verbose" if verbose else "")
        argv = ["run", "--algo", algo, "--n", str(COLONY_N), "--k", str(k),
                "--qualities", qual, "--seed", str(rng.randrange(2**31))]
        if verbose:
            argv.append("--verbose-trace")
        spec = {"algo": algo, "n": COLONY_N, "k": k, "qualities": qual, "verbose": verbose}
        ops.append(Op(label, "run", None if verbose else algo, argv, f"{label}.jsonl", spec))
    return ops


def _sweep_op(group, cell):
    label = f"{group}-n{cell['n']}-k{cell['k']}"
    argv = ["sweep", "--algo", cell["algo"], "--n", str(cell["n"]), "--k", str(cell["k"]),
            "--qualities", cell["qualities"], "--trials", str(cell["trials"]),
            "--seed", str(cell["seed"])]
    if cell.get("max_rounds"):
        argv += ["--max-rounds", str(cell["max_rounds"])]
    return Op(label, "sweep", cell["algo"], argv, f"{label}.csv", {"group": group, **cell})


def sweep_ops(seed):
    rng = random.Random(seed)
    ops = []
    for algo, qual in SWEEP_GROUPS:
        group_seed = rng.randrange(2**31)
        for n in SWEEP_NS:
            for k in SWEEP_KS:
                cell = {"algo": algo, "qualities": qual, "n": n, "k": k,
                        "trials": SWEEP_TRIALS, "seed": group_seed}
                ops.append(_sweep_op(f"{algo}-{qual}", cell))
    # a livelocked trial simulates 4800 cheap n=64 rounds, so the cell stays
    # out of the per-round figures; mending the fault must not read as a loss
    fault = _sweep_op("livelock", {**FAULT_CELL, "fault": True})
    fault.family = None
    ops.append(fault)
    return ops


def lemma_ops(seed):
    rng = random.Random(seed)
    ops = []
    for name, family, flags, trials in LEMMAS:
        argv = ["lemma", name, *flags, "--trials", str(trials),
                "--seed", str(rng.randrange(2**31))]
        spec = {"trials": trials}
        if name == "retention":
            spec["n"] = int(flags[1])
        if name == "dropout":
            spec["small"] = int(flags[-1])
        ops.append(Op(name, "lemma", family, argv, f"{name}.json", spec))
    return ops


WORKLOADS = {"colony-large": colony_ops, "sweep-small": sweep_ops, "lemma-pools": lemma_ops}


# --- running one operation -------------------------------------------------

def _digest(*paths):
    h = hashlib.sha256()
    for path in paths:
        with open(path, "rb") as fh:
            for chunk in iter(lambda: fh.read(1 << 20), b""):
                h.update(chunk)
    return h.hexdigest()


def _records(path):
    with open(path, encoding="utf-8") as fh:
        for line in fh:
            yield json.loads(line)


def _sweep_rounds(rows, cap):
    """Rounds simulated by a sweep: converged trials from each cell's mean,
    plus the round cap for every trial that did not converge."""
    total = 0
    for row in rows:
        trials, conv = int(row["trials"]), int(row["converged"])
        if conv:
            total += round(float(row["mean_rounds"]) * conv)
        total += (trials - conv) * cap
    return total


def _lemma_rounds(name, report, spec):
    """Recruitment rounds (matcher calls) an estimator simulated."""
    est = report["estimates"]
    if name == "retention":
        return round(est["rounds_to_full_mean"] * spec["trials"])
    if name == "dropout":
        # every trial drives the small nest from `small` ants to 0, so the
        # per-cycle changes sum to -small * trials; their mean gives the count
        return round(-spec["small"] * spec["trials"] / est["mean_population_delta"])
    return spec["trials"]


def run_op(cli, op, tmp):
    out = tmp / op.out
    start = time.perf_counter()
    rc = cli.main([*op.argv, "--out", str(out)])
    seconds = time.perf_counter() - start
    problems, rows, rounds, trials, attempted, failed = [], [], 0, 1, 1, 0
    try:
        if op.kind == "run":
            report_path = out.with_suffix(".report.json")
            report = json.loads(report_path.read_text(encoding="utf-8"))
            problems = check_run(op.spec, rc, report, _records(out), op.spec["verbose"])
            rounds = report.get("rounds_to_converge") or 0
            digest = _digest(out, report_path)
        elif op.kind == "sweep":
            rows = read_sweep_csv(out.read_text(encoding="utf-8"))
            rounds = _sweep_rounds(rows, op.spec.get("max_rounds", 0))
            trials = attempted = sum(int(r["trials"]) for r in rows)
            failed = sum(int(r["trials"]) - int(r["converged"]) for r in rows)
            digest = _digest(out)
        else:
            report = json.loads(out.read_text(encoding="utf-8"))
            problems = check_lemma(op.label, rc, report, op.spec)
            rounds = _lemma_rounds(op.label, report, op.spec) if not problems else 0
            trials = report.get("trials", 0)
            digest = _digest(out)
    except (OSError, ValueError, KeyError, TypeError, ZeroDivisionError) as exc:
        problems = [f"unreadable output: {type(exc).__name__}: {exc}"]
        digest = ""
    for path in tmp.iterdir():
        path.unlink()
    problems = [f"{op.label}: {p}" for p in problems]
    return Outcome(seconds, rc, rounds, trials, attempted, failed, digest, problems, rows)


def check_sweep_groups(ops, outcomes):
    """Cell and cross-cell checks over each sweep group of one pass."""
    groups = {}
    for op, o in zip(ops, outcomes):
        if op.kind == "sweep":
            groups.setdefault(op.spec["group"], []).append((op.spec, o))
    problems = []
    for group, members in groups.items():
        first = members[0][0]
        spec = {"algo": first["algo"], "trials": first["trials"],
                "ns": sorted({s["n"] for s, _ in members}),
                "ks": sorted({s["k"] for s, _ in members})}
        rows = [row for _, o in members for row in o.rows]
        rc = max(o.rc for _, o in members)
        problems += [f"{group}: {p}" for p in check_sweep(
            spec, rc, rows, allow_failures=first.get("fault", False))]
    return problems


# --- figures ---------------------------------------------------------------

UNITS = {"setup_s": "s", "wall_s": "s", "peak_rss_mb": "MB",
         "optimal_ms_per_round": "ms", "simple_ms_per_round": "ms",
         "trials_per_s": "trials/s"}


def typical(passes):
    """Each operation's median time over the passes."""
    return [statistics.median(p[i].seconds for p in passes) for i in range(len(passes[0]))]


def figures(ops, passes):
    times = typical(passes)
    first = passes[0]
    wall = sum(times)
    m = {"wall_s": wall, "trials_per_s": sum(o.trials for o in first) / wall}
    for family in ("optimal", "simple"):
        picked = [i for i, op in enumerate(ops) if op.family == family]
        rounds = sum(first[i].rounds for i in picked)
        m[f"{family}_ms_per_round"] = (
            sum(times[i] for i in picked) / rounds * 1e3 if rounds else math.nan
        )
    for op, seconds in zip(ops, times):
        if op.kind == "lemma":
            m[op.label.replace("-", "_") + "_s"] = seconds
    return m


# --- set-up ----------------------------------------------------------------

def import_nestsim():
    """Import nestsim afresh from this checkout's src/ and return its modules."""
    for name in [m for m in sys.modules if m == "nestsim" or m.startswith("nestsim.")]:
        del sys.modules[name]
    if sys.path[0] != str(SRC):
        sys.path.insert(0, str(SRC))
    cli = importlib.import_module("nestsim.cli")
    if not Path(cli.__file__).resolve().is_relative_to(SRC):
        raise ImportError(f"nestsim was found outside {SRC}")
    return {m: sys.modules.get(f"nestsim.{m}") for m in MODULES}


def set_up(workload, seed):
    """Median wall time of importing nestsim and building the inputs."""
    times = []
    for _ in range(SETUP_REPEATS):
        start = time.perf_counter()
        ns = import_nestsim()
        ops = WORKLOADS[workload](seed)
        times.append(time.perf_counter() - start)
    return ns, ops, statistics.median(times)


# --- main ------------------------------------------------------------------

def measure(ns, ops, tmp, seconds, trace):
    """Run passes until `seconds` is used up.

    Returns (plain passes, traced passes with their Spans).  With `trace`
    every plain pass is followed by a traced one.
    """
    cli = ns["cli"]
    plain, traced = [], []
    start = time.perf_counter()
    while True:
        plain.append([run_op(cli, op, tmp) for op in ops])
        if trace:
            spans = Spans()
            spans.install(ns)
            try:
                traced.append(([run_op(cli, op, tmp) for op in ops], spans))
            finally:
                spans.uninstall()
        elapsed = time.perf_counter() - start
        if elapsed + elapsed / len(plain) > seconds:
            return plain, traced


def main(argv=None):
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", choices=sorted(WORKLOADS), required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=int, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    # the same filter the test suite applies; the warning fires on most
    # colonies and says nothing about the run's outcome
    warnings.filterwarnings(
        "ignore", message="k=.*exceeds the analyzed regime", category=UserWarning
    )
    try:
        ns, ops, setup_s = set_up(args.workload, args.seed)
    except ImportError as exc:
        print(f"error: cannot import nestsim from {SRC}: {exc}", file=sys.stderr)
        return 2

    TMP_PARENT.mkdir(exist_ok=True)
    try:
        with tempfile.TemporaryDirectory(dir=TMP_PARENT) as tmp:
            plain, traced = measure(ns, ops, Path(tmp), args.seconds, args.trace)
    finally:
        try:
            TMP_PARENT.rmdir()
        except OSError:
            pass   # another run still uses it
    peak_mb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024

    passes = plain + [p for p, _ in traced]
    problems = [p for outcomes in passes for o in outcomes for p in o.problems]
    problems += [p for outcomes in passes for p in check_sweep_groups(ops, outcomes)]
    problems += [
        f"{op.label}: pass {n} wrote other outputs than pass 0"
        for n, outcomes in enumerate(passes[1:], 1)
        for op, a, b in zip(ops, passes[0], outcomes)
        if a.digest != b.digest
    ]
    attempted = sum(o.attempted for p in passes for o in p)
    failed = sum(o.failed for p in passes for o in p)
    values = figures(ops, plain)
    values.update(setup_s=setup_s, peak_rss_mb=peak_mb)

    print(f"workload {args.workload}, seed {args.seed}: {len(plain)} pass(es) of "
          f"{len(ops)} calls; {attempted} operations attempted, {failed} failed")
    for op, seconds, o in zip(ops, typical(plain), plain[0]):
        print(f"  {op.label}: {seconds:.4f} s median of {len(plain)}, {o.rounds} rounds"
              + (f", {o.failed} failed: {FAULT}" if o.failed else ""))
    for name, value in values.items():
        print(f"  {name} = {value:.6g} {UNITS.get(name, 's')}")

    if args.trace:
        traced.sort(key=lambda t: sum(o.seconds for o in t[0]))
        middle, spans = traced[(len(traced) - 1) // 2]
        metrics, missing = layer_metrics(spans)
        overhead = sum(typical([t for t, _ in traced])) - sum(typical(plain))
        metrics["tracing.overhead_s"] = {"value": overhead, "unit": "s"}
        traced_wall = sum(o.seconds for o in middle)
        for name, m in metrics.items():
            share = f" ({m['value'] / traced_wall:.1%} of the traced pass)" if m["unit"] == "s" else ""
            print(f"  {name} = {m['value']:.6g} {m['unit']}{share}")
        if missing:
            print(f"  missing per-layer metrics: {', '.join(missing)}")
    else:
        metrics = {name: {"value": values[name], "unit": unit} for name, unit in UNITS.items()}
    for p in problems:
        print(f"  CHECK FAILED: {p}")
    print(json.dumps({"correct": not problems, "attempted": attempted,
                      "failed": failed, "metrics": metrics}))
    return 0 if not problems else 1


if __name__ == "__main__":
    sys.exit(main())
