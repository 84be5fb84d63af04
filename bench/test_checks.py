"""The benchmark's output checks accept real nestsim output and reject wrong output.

Run from the repository root:  python3 -m pytest -q bench/test_checks.py
"""

import copy
import csv
import io
import json
import sys
from pathlib import Path

import pytest

sys.path.insert(0, str(Path(__file__).resolve().parent.parent / "src"))

from checks import check_lemma, check_run, check_sweep, read_sweep_csv  # noqa: E402
from nestsim import cli  # noqa: E402


def _run(tmp_path, algo, qualities, verbose=False, n=2000, k=4, seed=3):
    out = tmp_path / f"{algo}-{qualities}.jsonl"
    argv = ["run", "--algo", algo, "--n", str(n), "--k", str(k),
            "--qualities", qualities, "--seed", str(seed), "--out", str(out)]
    rc = cli.main(argv + (["--verbose-trace"] if verbose else []))
    report = json.loads(out.with_suffix(".report.json").read_text())
    records = [json.loads(line) for line in out.read_text().splitlines()]
    spec = {"algo": algo, "n": n, "k": k, "qualities": qualities}
    return spec, rc, report, records


@pytest.fixture(scope="module")
def optimal_one_good(tmp_path_factory):
    return _run(tmp_path_factory.mktemp("run"), "optimal", "one-good")


@pytest.mark.parametrize("algo,qualities,verbose", [
    ("optimal", "all-good", False),
    ("simple", "one-good", False),
    ("simple", "all-good", True),
])
def test_run_check_accepts_real_runs(tmp_path, algo, qualities, verbose):
    spec, rc, report, records = _run(tmp_path, algo, qualities, verbose)
    assert check_run(spec, rc, report, records, verbose) == []


def test_run_check_rejects_counts_not_summing_to_n(optimal_one_good):
    spec, rc, report, records = copy.deepcopy(optimal_one_good)
    assert check_run(spec, rc, report, records) == []
    records[3]["counts"][1] += 1
    assert any("summing to" in p for p in check_run(spec, rc, report, records))


def test_run_check_rejects_one_good_won_by_nest_2(optimal_one_good):
    spec, rc, report, records = copy.deepcopy(optimal_one_good)
    report["winning_nest"] = 2
    assert any("won by nest 2" in p for p in check_run(spec, rc, report, records))


def test_run_check_rejects_locations_that_disagree_with_counts(tmp_path):
    spec, rc, report, records = _run(tmp_path, "simple", "one-good", verbose=True, n=500)
    loc = records[-1]["locations"]
    loc[0] = (loc[0] % spec["k"]) + 1
    assert any("bincount" in p for p in check_run(spec, rc, report, records, True))


@pytest.fixture(scope="module")
def sweep(tmp_path_factory):
    out = tmp_path_factory.mktemp("sweep") / "sweep.csv"
    spec = {"algo": "simple", "ns": (64, 256), "ks": (2, 4), "trials": 40}
    rc = cli.main(["sweep", "--algo", "simple", "--n", "64,256", "--k", "2,4",
                   "--qualities", "all-good", "--trials", "40", "--seed", "5",
                   "--out", str(out)])
    return spec, rc, read_sweep_csv(out.read_text())


def test_sweep_check_accepts_real_sweep(sweep):
    assert check_sweep(*sweep) == []


def test_sweep_check_rejects_p10_above_median(sweep):
    spec, rc, rows = copy.deepcopy(sweep)
    rows[0]["p10_rounds"] = str(float(rows[0]["median_rounds"]) + 1)
    assert any("out of order" in p for p in check_sweep(spec, rc, rows))


def test_sweep_check_reads_columns_by_name(sweep):
    spec, rc, rows = sweep
    columns = ["wall_s", *reversed(list(rows[0]))]
    buf = io.StringIO()
    buf.write("# a later schema\n")
    writer = csv.DictWriter(buf, fieldnames=columns)
    writer.writeheader()
    writer.writerows({"wall_s": "0.1", **row} for row in rows)
    assert check_sweep(spec, rc, read_sweep_csv(buf.getvalue())) == []


def _lemma(tmp_path, name, *flags, trials):
    out = tmp_path / f"{name}.json"
    rc = cli.main(["lemma", name, *flags, "--trials", str(trials), "--seed", "11",
                   "--out", str(out)])
    return rc, json.loads(out.read_text())


def test_recruit_success_check(tmp_path):
    params = {"trials": 20000}
    rc, report = _lemma(tmp_path, "recruit-success", "--active", "2", trials=20000)
    assert check_lemma("recruit-success", rc, report, params) == []
    report["estimates"]["success_rate"] = 0.30
    assert check_lemma("recruit-success", rc, report, params) != []


def test_retention_check(tmp_path):
    params = {"trials": 50, "n": 256}
    rc, report = _lemma(tmp_path, "retention", "--n", "256", trials=50)
    assert check_lemma("retention", rc, report, params) == []
    report["estimates"]["rounds_to_full_min"] = 7   # log2(256) = 8
    assert any("below log2 n" in p for p in check_lemma("retention", rc, report, params))


def test_nest_delta_check(tmp_path):
    params = {"trials": 2000}
    rc, report = _lemma(tmp_path, "nest-delta", "--sizes", "20,10", trials=2000)
    assert check_lemma("nest-delta", rc, report, params) == []
    report["estimates"]["nest_1"]["p_zero"] += 0.01
    assert check_lemma("nest-delta", rc, report, params) != []


def test_lemma_check_rejects_a_failed_report(tmp_path):
    params = {"trials": 500}
    rc, report = _lemma(tmp_path, "ratio-growth", "--n", "4096", "--k", "2",
                        "--sizes", "2400,1696", trials=500)
    assert check_lemma("ratio-growth", rc, report, params) == []
    report["passed"] = False
    assert check_lemma("ratio-growth", rc, report, params) != []
