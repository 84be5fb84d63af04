"""Output checks for the nestsim benchmark.

Every check tests a property the method must have, or a value worked out
apart from the program; none compares against a stored copy of earlier
output.  Each check returns a list of problems, empty when the output
passes, so one bad output reports everything wrong with it.
"""

from __future__ import annotations

import csv
import io
import math

import numpy as np

# a tolerance for float sums of frequencies that should add to exactly 1
PROB_SUM_TOL = 1e-9


def check_run(spec, rc, report, records, verbose=False):
    """Check one `nestsim run`: its exit code, report and trace records.

    spec: dict with algo, n, k, qualities ("one-good" or "all-good").
    records: an iterable of parsed trace records in file order.
    """
    n, k, algo = spec["n"], spec["k"], spec["algo"]
    problems = []
    if rc != 0:
        problems.append(f"exit code {rc}, expected 0")
    if not report.get("converged") or report.get("reason") != "converged":
        problems.append(f"run did not converge: reason {report.get('reason')!r}")
    win = report.get("winning_nest")
    if spec["qualities"] == "one-good" and win != 1:
        problems.append(f"one-good run won by nest {win}, only nest 1 is suitable")
    if spec["qualities"] == "all-good" and not (isinstance(win, int) and 1 <= win <= k):
        problems.append(f"all-good winner {win!r} is not a nest in 1..{k}")

    # the search round throws n ants uniformly into k nests
    sd = math.sqrt(n * (1 / k) * (1 - 1 / k))
    last = None
    expected_round = 1
    for rec in records:
        r = rec.get("round")
        if r != expected_round:
            problems.append(f"trace record {expected_round} has round {r}")
            break
        counts = rec["counts"]
        if len(counts) != k + 1 or sum(counts) != n:
            problems.append(
                f"round {r}: counts has {len(counts)} entries summing to "
                f"{sum(counts)}, expected {k + 1} summing to {n}"
            )
        if r == 1:
            if counts[0] != 0:
                problems.append(f"round 1: {counts[0]} ants at home after the search")
            far = [i for i in range(1, len(counts)) if abs(counts[i] - n / k) > 6 * sd]
            if far:
                problems.append(
                    f"round 1: nests {far} lie more than 6 binomial sd from n/k"
                )
        if verbose:
            loc = np.asarray(rec.get("locations", ()), dtype=np.int64)
            if loc.size != n or np.bincount(loc, minlength=k + 1).tolist() != counts:
                problems.append(f"round {r}: bincount(locations) differs from counts")
        last = rec
        expected_round += 1
    rounds = report.get("rounds_to_converge")
    if expected_round - 1 != rounds:
        problems.append(
            f"trace holds {expected_round - 1} records, "
            f"report says {rounds} rounds to converge"
        )
    if last is not None:
        states = last.get("states", {})
        state = "final" if algo == "optimal" else "active"
        if states.get(state) != n:
            problems.append(f"last record shows {states.get(state)} {state} ants of {n}")
    return problems


def read_sweep_csv(text):
    """Rows of a sweep CSV as dicts keyed by column name, schema lines skipped."""
    lines = [ln for ln in text.splitlines() if ln and not ln.startswith("#")]
    return list(csv.DictReader(io.StringIO("\n".join(lines))))


def check_sweep(spec, rc, rows, allow_failures=False):
    """Check one `nestsim sweep`: every cell present and its statistics ordered.

    spec: dict with algo, ns, ks, trials.  With allow_failures, cells may hold
    trials that never converged (they are counted, not treated as wrong).
    """
    problems = []
    if rc not in ((0, 1) if allow_failures else (0,)):
        problems.append(f"exit code {rc}")
    cells = {}
    for row in rows:
        try:
            key = (row["algorithm"], int(row["n"]), int(row["k"]))
            cells[key] = {
                "trials": int(row["trials"]),
                "converged": int(row["converged"]),
                **{
                    s: float(row[f"{s}_rounds"])
                    for s in ("min", "p10", "median", "p90", "max", "mean")
                },
            }
        except (KeyError, ValueError) as exc:
            problems.append(f"unreadable sweep row {row}: {exc}")
    for n in spec["ns"]:
        for k in spec["ks"]:
            cell = cells.get((spec["algo"], n, k))
            if cell is None:
                problems.append(f"cell n={n} k={k} missing")
                continue
            if cell["trials"] != spec["trials"]:
                problems.append(f"cell n={n} k={k}: {cell['trials']} trials")
            if cell["converged"] > cell["trials"]:
                problems.append(f"cell n={n} k={k}: more converged than trials")
            if cell["converged"] < cell["trials"] and not allow_failures:
                problems.append(
                    f"cell n={n} k={k}: {cell['trials'] - cell['converged']} "
                    "trials did not converge"
                )
            if cell["converged"] == 0:
                continue
            c = cell
            if not c["min"] <= c["p10"] <= c["median"] <= c["p90"] <= c["max"]:
                problems.append(f"cell n={n} k={k}: min/p10/median/p90/max out of order")
            if not c["min"] <= c["mean"] <= c["max"]:
                problems.append(f"cell n={n} k={k}: mean outside [min, max]")
    if problems:
        return problems
    for k in spec["ks"]:
        medians = [cells[(spec["algo"], n, k)]["median"] for n in sorted(spec["ns"])]
        if any(b <= a for a, b in zip(medians, medians[1:])):
            problems.append(f"k={k}: median rounds {medians} do not rise with n")
    if spec["algo"] == "simple" and {2, 4} <= set(spec["ks"]):
        for n in spec["ns"]:
            m2, m4 = cells[("simple", n, 2)]["median"], cells[("simple", n, 4)]["median"]
            if not m4 > m2:
                problems.append(f"simple n={n}: median at k=4 ({m4}) not above k=2 ({m2})")
    return problems


def check_lemma(name, rc, report, params):
    """Check one `nestsim lemma` report against properties of the matching rule."""
    problems = []
    if rc != 0:
        problems.append(f"exit code {rc}")
    if report.get("passed") is not True:
        problems.append(f"{name}: report does not say passed")
    if report.get("trials") != params["trials"]:
        problems.append(f"{name}: {report.get('trials')} trials, asked {params['trials']}")
    est = report.get("estimates", {})
    if name == "recruit-success":
        # two active ants: ant 0 leads ant 1 only if it comes first in the
        # permutation (1/2) and picks ant 1 (1/2), so the rate is exactly 1/4
        rate = est.get("success_rate")
        se = math.sqrt(0.25 * 0.75 / params["trials"])
        if rate is None or abs(rate - 0.25) > 4 * se:
            problems.append(f"recruit-success rate {rate} not within 4 SE of 1/4")
    elif name == "retention":
        # an informed ant leads at most one ant a round, so the informed set
        # at most doubles each round
        floor = math.ceil(math.log2(params["n"]))
        low = est.get("rounds_to_full_min")
        if low is None or low < floor:
            problems.append(f"retention finished in {low} rounds, below log2 n = {floor}")
    elif name == "nest-delta":
        for nest, p in est.items():
            total = p["p_neg"] + p["p_zero"] + p["p_pos"]
            if abs(total - 1) > PROB_SUM_TOL:
                problems.append(f"nest-delta {nest}: sign probabilities sum to {total}")
    return problems
