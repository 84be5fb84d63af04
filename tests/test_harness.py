import json
import math
import statistics
from dataclasses import replace

import pytest

from nestsim import cli, engine, harness, lemmas, matching
from nestsim.config import ColonyConfig, ConfigError, make_qualities
from nestsim.engine import run, stream_from_key
from nestsim.harness import (
    CSV_SCHEMA,
    ExperimentSpec,
    FitError,
    SummaryRow,
    csv_to_rows,
    fit_scaling,
    rows_to_csv,
    sweep,
)
from reference import strict_json


def _row(n, k, median, algorithm="simple"):
    return SummaryRow(
        algorithm=algorithm,
        n=n,
        k=k,
        trials=10,
        converged=10,
        median_rounds=median,
        mean_rounds=median,
        p10_rounds=median,
        p90_rounds=median,
        min_rounds=int(median),
        max_rounds=int(median),
    )


def test_fit_exact_log_model():
    rows = [_row(n, 4, 7 * math.log2(n)) for n in (64, 256, 1024, 4096)]
    a, b, r2 = fit_scaling(rows, "logn")
    assert math.isclose(a, 7.0)
    assert abs(b) < 1e-9
    assert math.isclose(r2, 1.0)


def test_fit_exact_klog_model():
    rows = [_row(n, k, 3 * k * math.log2(n)) for n in (256, 1024) for k in (2, 4)]
    a, b, r2 = fit_scaling(rows, "klogn")
    assert math.isclose(a, 3.0)
    assert abs(b) < 1e-9
    assert math.isclose(r2, 1.0)


def test_fit_constant_response_has_zero_r2():
    rows = [_row(n, 4, 50.0) for n in (64, 256, 1024)]
    a, b, r2 = fit_scaling(rows, "logn")
    assert abs(a) < 1e-9
    assert r2 == 0.0


def test_fit_degenerate_design_rejected():
    rows = [_row(256, 4, float(m)) for m in (10, 20, 30)]
    with pytest.raises(FitError):
        fit_scaling(rows, "logn")


def test_fit_needs_three_rows():
    rows = [_row(64, 4, 10.0), _row(256, 4, 20.0)]
    with pytest.raises(FitError):
        fit_scaling(rows, "logn")
    with pytest.raises(FitError):
        fit_scaling(rows + [_row(1024, 4, 30.0)], "bogus")


def test_csv_round_trip():
    nan_row = SummaryRow(
        algorithm="simple", n=256, k=4, trials=10, converged=0,
        median_rounds=float("nan"), mean_rounds=float("nan"),
        p10_rounds=float("nan"), p90_rounds=float("nan"),
        min_rounds=0, max_rounds=0,
    )
    rows = [_row(64, 2, 12.5), nan_row]
    text = rows_to_csv(rows)
    assert text.startswith(CSV_SCHEMA + "\n")
    back = csv_to_rows(text)
    assert back[0] == rows[0]
    assert back[1].n == 256 and math.isnan(back[1].median_rounds)


def test_sweep_is_deterministic():
    spec = ExperimentSpec(
        algorithm="simple", n_values=(32, 64), k_values=(2,), trials=5, seed=9
    )
    assert rows_to_csv(sweep(spec)) == rows_to_csv(sweep(spec))


def test_sweep_counts_convergence():
    spec = ExperimentSpec(
        algorithm="optimal", n_values=(64,), k_values=(2,), trials=10, seed=1
    )
    (row,) = sweep(spec)
    assert row.converged == row.trials == 10
    assert row.min_rounds <= row.median_rounds <= row.max_rounds
    assert row.p10_rounds <= row.p90_rounds


@pytest.mark.parametrize("n", [1, 2, 64, 1000])
@pytest.mark.parametrize("algorithm", ["optimal", "simple"])
def test_batched_trials_replay_their_lone_runs(algorithm, n, monkeypatch):
    """A cell played in chunks replays byte for byte, its chunks play every
    trial once in trial order, and a cell of one trial is the lone run on
    the cell's stream.

    A budget of 2n ants splits five trials into chunks of 2, 2 and 1.  The
    cap is the median of the trials' rounds to converge under the default
    cap, so that the trials above it hit it and the others do not.
    """
    monkeypatch.setattr(matching, "UNION_ANTS", 2 * n)
    chunks = []

    def recording_run(configs, rng):
        trace, reports = run(configs, rng)
        chunks.append((configs, trace.to_jsonl(), [rep.to_json() for rep in reports]))
        return trace, reports

    def play(spec):
        chunks.clear()
        csv = rows_to_csv([harness.run_cell(spec, n, 3)])
        return csv, list(chunks)

    def configs(pattern, trials):
        rng = stream_from_key(2, n, 3)
        return rng, [ColonyConfig(n, 3, make_qualities(3, pattern, rng), algorithm, cap)
                     for _ in range(trials)]

    monkeypatch.setattr(harness, "run", recording_run)
    patterns = ("one-good", "all-good", "random:0.5", "1,0,1")
    uncapped = [rep["rounds_to_converge"] for pattern in patterns
                for *_, reps in play(ExperimentSpec(algorithm, (n,), (3,), pattern, 5, 2))[1]
                for rep in map(strict_json, reps) if rep["converged"]]
    cap = statistics.median_low(uncapped)
    reasons = set()
    for pattern in patterns:
        spec = ExperimentSpec(algorithm, (n,), (3,), pattern, 5, 2, max_rounds=cap)
        csv, played = play(spec)
        assert play(spec) == (csv, played)
        assert [len(chunk) for chunk, _, _ in played] == [2, 2, 1]
        assert [c for chunk, _, _ in played for c in chunk] == configs(pattern, 5)[1]
        reasons.update(strict_json(rep)["reason"] for *_, reps in played for rep in reps)
        rng, lone = configs(pattern, 1)
        trace, (report,) = run(lone, rng)
        _, (one,) = play(replace(spec, trials=1))
        assert one == (lone, trace.to_jsonl(), [report.to_json()])
    assert reasons == {"converged", "round_cap"}


@pytest.mark.parametrize("algorithm", ["optimal", "simple"])
def test_a_sweep_builds_no_trace_record(algorithm, monkeypatch):
    """`run_cell` reads only the reports, so no trace record is built."""
    spec = ExperimentSpec(algorithm, (64,), (2, 4), "one-good", trials=6, seed=3)
    want = [harness.run_cell(spec, 64, k) for k in (2, 4)]

    def refuse(self):
        raise AssertionError("a sweep built a trace record")

    monkeypatch.setattr(engine.Trace, "_records", refuse)
    assert [harness.run_cell(spec, 64, k) for k in (2, 4)] == want


def test_spec_validation():
    with pytest.raises(ValueError):
        ExperimentSpec("simple", (), (2,), trials=5, seed=0)
    with pytest.raises(ValueError):
        ExperimentSpec("simple", (64,), (2,), trials=0, seed=0)


# --- command-line entry point ---


def test_cli_run_success(capsys):
    code = cli.main(
        ["run", "--algo", "simple", "--n", "64", "--k", "2",
         "--qualities", "one-good", "--seed", "7"]
    )
    out = capsys.readouterr().out
    assert code == 0
    lines = [json.loads(line) for line in out.strip().splitlines()]
    assert lines[-1]["converged"] is True
    assert all("counts" in rec for rec in lines[:-1])


def test_cli_run_usage_error():
    assert cli.main(["run", "--n", "0"]) == 2
    assert cli.main(["run", "--algo", "nope"]) == 2
    assert cli.main([]) == 2
    assert cli.main(["frobnicate"]) == 2


@pytest.mark.parametrize("argv", [
    ["run", "--n", str(10**12)],
    ["run", "--k", str(10**12)],
    ["sweep", "--n", f"64,{10**12}"],
    # one ant's packed row is small; the k qualities and counts are not
    ["run", "--n", "1", "--k", str(10**10)],
])
def test_inputs_too_large_to_allocate_exit_2(argv, monkeypatch, capsys):
    """A colony whose arrays cannot fit in memory is an exit-2 error raised
    before anything of size n or k is built; the builders are stubbed to
    fail, so even a missing check allocates nothing here."""
    def refuse(*args, **kwargs):
        raise AssertionError("built a colony that cannot fit")

    for module, name in ((cli, "make_qualities"), (cli, "run"), (harness, "run_cell")):
        monkeypatch.setattr(module, name, refuse)
    assert cli.main(argv) == 2
    assert "does not fit in memory" in capsys.readouterr().err
    with pytest.raises(ConfigError, match="does not fit in memory"):
        ColonyConfig(10**12, 2, (1, 0), "simple")


class _Refuse:
    """A numpy stand-in for the lemma lab: building any array fails."""

    def __getattr__(self, name):
        raise AssertionError(f"built np.{name} for inputs that cannot fit")


@pytest.mark.parametrize("argv, message", [
    (["lemma", "retention", "--n", str(10**12)], "does not fit in memory"),
    (["lemma", "ratio-growth", "--n", str(10**12), "--sizes", f"{10**11},{10**11}"],
     "does not fit in memory"),
    (["lemma", "ratio-growth", "--k", str(10**12), "--sizes", "2400,1696"],
     "does not fit in memory"),
    (["lemma", "dropout", "--n", str(10**12)], "does not fit in memory"),
    # a k that passes the small-nest limit n/(dk) needs a large n as well
    (["lemma", "dropout", "--n", str(64 * 10**10), "--k", str(10**10), "--small", "1"],
     "does not fit in memory"),
    (["lemma", "eps-init", "--mode", "monte-carlo", "--k", str(10**12)],
     "does not fit in memory"),
    (["lemma", "eps-init", "--mode", "monte-carlo", "--trials", str(10**12)],
     "does not fit in memory"),
    (["lemma", "eps-init", "--mode", "monte-carlo", "--n", str(2**63)], "n < 2**63"),
    (["lemma", "recruit-success", "--active", str(10**12)], "does not fit in memory"),
    (["lemma", "recruit-success", "--passive", str(10**12)], "does not fit in memory"),
    (["lemma", "nest-delta", "--sizes", f"{10**12},1"], "does not fit in memory"),
], ids=["retention-n", "ratio-growth-n", "ratio-growth-k", "dropout-n", "dropout-n-k",
        "eps-init-k", "eps-init-trials", "eps-init-n", "recruit-success-active",
        "recruit-success-passive", "nest-delta-sizes"])
def test_lemma_inputs_too_large_to_allocate_exit_2(argv, message, monkeypatch, capsys):
    """Each estimator's flags are sized before it builds anything: numpy, the
    matcher and the stream are stubbed to fail in the lemma lab, so even a
    missing check allocates nothing here."""
    def refuse(*args, **kwargs):
        raise AssertionError("drew for inputs that cannot fit")

    monkeypatch.setattr(lemmas, "np", _Refuse())
    monkeypatch.setattr(lemmas, "match_arrays", refuse)
    monkeypatch.setattr(lemmas, "stream_from_key", refuse)
    assert cli.main(argv) == 2
    assert message in capsys.readouterr().err


# each subcommand's minimal argv and every flag's dest and default, as the
# parser built them before the shared flags moved into parent parsers
CLI_SURFACE = {
    "run": (["run"], {
        "command": "run", "config": None, "algo": "simple", "n": 256, "k": 4,
        "qualities": "one-good", "seed": 0, "max_rounds": 0, "out": None,
        "verbose_trace": False,
    }),
    "sweep": (["sweep"], {
        "command": "sweep", "config": None, "algo": "simple", "n": (64, 256),
        "k": (4,), "qualities": "all-good", "trials": 100, "seed": 0,
        "max_rounds": 0, "out": None,
    }),
    "recruit-success": (["lemma", "recruit-success"], {
        "command": "lemma", "lemma": "recruit-success", "active": 2, "passive": 0,
        "trials": 100000, "seed": 0, "out": None,
    }),
    "retention": (["lemma", "retention"], {
        "command": "lemma", "lemma": "retention", "n": 256, "trials": 10000,
        "seed": 0, "out": None,
    }),
    "nest-delta": (["lemma", "nest-delta", "--sizes", "8,8"], {
        "command": "lemma", "lemma": "nest-delta", "sizes": (8, 8),
        "trials": 100000, "seed": 0, "out": None,
    }),
    "eps-init": (["lemma", "eps-init"], {
        "command": "lemma", "lemma": "eps-init", "n": 8, "k": 2, "mode": "exact",
        "trials": 100000, "seed": 0, "out": None,
    }),
    "ratio-growth": (["lemma", "ratio-growth", "--sizes", "2400,1696"], {
        "command": "lemma", "lemma": "ratio-growth", "n": 4096, "k": 2,
        "sizes": (2400, 1696), "trials": 10000, "seed": 0, "out": None,
    }),
    "dropout": (["lemma", "dropout"], {
        "command": "lemma", "lemma": "dropout", "n": 4096, "k": 4, "small": 16,
        "trials": 500, "seed": 0, "out": None,
    }),
    "fit": (["fit", "--csv", "sweep.csv", "--model", "logn"], {
        "command": "fit", "csv": "sweep.csv", "model": "logn",
    }),
}


@pytest.mark.parametrize("name", list(CLI_SURFACE))
def test_cli_surface(name):
    argv, expected = CLI_SURFACE[name]
    parsed = vars(cli.build_parser().parse_args(argv))
    dispatch = {"func", "estimate"}
    assert {k: v for k, v in parsed.items() if k not in dispatch} == expected


# every subcommand that takes --seed
SEEDED_ARGV = {
    "run": ["run", "--n", "16", "--k", "2"],
    "sweep": ["sweep", "--n", "16", "--k", "2", "--trials", "2"],
    "lemma": ["lemma", "recruit-success", "--trials", "10"],
    "lemma-retention": ["lemma", "retention", "--n", "4", "--trials", "2"],
    "lemma-nest-delta": ["lemma", "nest-delta", "--sizes", "2,2", "--trials", "2"],
    "lemma-eps-init": ["lemma", "eps-init"],
    "lemma-ratio-growth": ["lemma", "ratio-growth", "--sizes", "2400,1696", "--trials", "2"],
    "lemma-dropout": ["lemma", "dropout", "--trials", "2"],
}


@pytest.mark.parametrize("seed", ["-1", str(2**64), "abc"])
@pytest.mark.parametrize("name", list(SEEDED_ARGV))
def test_cli_rejects_bad_seed(name, seed, capsys):
    argv = SEEDED_ARGV[name]
    assert cli.main([*argv, "--seed", seed]) == 2
    err = capsys.readouterr().err
    assert "--seed" in err
    assert "Traceback" not in err


@pytest.mark.parametrize(
    "argv",
    [
        ["run", "--n", "16", "--k", "2", "--qualities", "random:0"],
        ["run", "--n", "16", "--k", "2", "--qualities", "random:abc"],
        ["run", "--n", "3", "--k", "2", "--qualities", "random:1e-12"],
        ["run", "--n", "3", "--k", "2", "--qualities", "random:1e-300"],
        ["sweep", "--n", "3", "--k", "2", "--qualities", "random:1e-12", "--trials", "2"],
        ["lemma", "eps-init", "--n", "1"],
        ["lemma", "eps-init", "--n", "1", "--mode", "monte-carlo"],
        ["lemma", "ratio-growth", "--sizes", "5"],
        ["lemma", "ratio-growth", "--n", "4096", "--k", "1", "--sizes", "2000,2096",
         "--trials", "20"],
        ["lemma", "nest-delta", "--sizes", "0,0", "--trials", "5"],
        ["lemma", "nest-delta", "--sizes", "8,0", "--trials", "5"],
        ["lemma", "dropout", "--n", "256", "--k", "2", "--small", "-5", "--trials", "2"],
        ["sweep", "--n", "0", "--k", "2", "--trials", "2"],
        ["sweep", "--n", "-5", "--k", "2", "--trials", "2"],
        ["sweep", "--n", "16", "--k", "-1", "--trials", "2"],
    ],
    ids=["random-p-zero", "random-p-abc", "random-p-tiny", "random-p-underflow",
         "sweep-random-p-tiny", "eps-init-exact", "eps-init-mc",
         "ratio-one-size", "ratio-missing-nest", "nest-delta-empty",
         "nest-delta-empty-cohort", "dropout-negative-small", "sweep-n-zero",
         "sweep-n-negative", "sweep-k-negative"],
)
def test_cli_rejects_bad_input(argv, capsys):
    assert cli.main(argv) == 2
    assert capsys.readouterr().err.startswith("error: ")


@pytest.mark.parametrize("name", list(SEEDED_ARGV))
def test_cli_out_leaves_stdout_empty(name, tmp_path, capsys):
    """With --out every output goes to files, so stdout stays empty."""
    code = cli.main([*SEEDED_ARGV[name], "--out", str(tmp_path / "out")])
    assert code in (0, 1)
    assert capsys.readouterr().out == ""
    assert any(tmp_path.iterdir())


@pytest.mark.parametrize(
    "argv",
    [
        ["lemma", "ratio-growth", "--n", "4096", "--k", "2", "--sizes", "2048,2048",
         "--trials", "1"],
        ["lemma", "eps-init", "--n", "64", "--k", "3", "--mode", "monte-carlo",
         "--trials", "1"],
    ],
    ids=["ratio-growth", "eps-init"],
)
def test_cli_lemma_without_standard_error_fails(argv, capsys):
    """One usable sample gives no standard error: a null SE and a failed check."""
    assert cli.main(argv) == 1
    report = strict_json(capsys.readouterr().out)
    assert report["passed"] is False
    assert list(report["stderr"].values()) == [None]
    assert report["notes"]


def test_cli_run_bad_quality_vector():
    assert cli.main(["run", "--n", "16", "--k", "2", "--qualities", "0,0"]) == 2


def test_cli_sweep_and_fit(tmp_path, capsys):
    csv_path = tmp_path / "sweep.csv"
    code = cli.main(
        ["sweep", "--algo", "optimal", "--n", "32,64,128", "--k", "2",
         "--trials", "5", "--seed", "3", "--out", str(csv_path)]
    )
    assert code == 0
    text = csv_path.read_text()
    assert text.startswith(CSV_SCHEMA)
    code = cli.main(["fit", "--csv", str(csv_path), "--model", "logn"])
    assert code == 0
    fit = json.loads(capsys.readouterr().out.strip())
    assert fit["model"] == "logn"
    assert fit["a"] > 0


def test_cli_fit_missing_file():
    assert cli.main(["fit", "--csv", "/no/such/file.csv", "--model", "logn"]) == 2


_FIT = ["fit", "--model", "logn", "--csv"]
_CSV = f"{CSV_SCHEMA}\n{','.join(harness.COLUMNS)}\n".encode()


# a value that does not parse, a short row, and files that are not UTF-8
@pytest.mark.parametrize(
    "argv, data",
    [
        (_FIT, _CSV + b"simple,64,4,10,10,abc,12,12,12,12,12\n"),
        (_FIT, _CSV + b"simple,64,4\n"),
        (_FIT, b"\xff\n"),
        (["run", "--config"], b"n = 32\xff\n"),
    ],
    ids=["csv-bad-value", "csv-short-row", "csv-not-utf8", "config-not-utf8"],
)
def test_cli_rejects_bad_input_file(argv, data, tmp_path, capsys):
    path = tmp_path / "input"
    path.write_bytes(data)
    assert cli.main([*argv, str(path)]) == 2
    assert capsys.readouterr().err.startswith("error: ")


def test_cli_lemma_pass_and_fail_exit_codes(capsys):
    code = cli.main(
        ["lemma", "nest-delta", "--sizes", "8,8", "--trials", "2000", "--seed", "1"]
    )
    assert code == 0
    report = json.loads(capsys.readouterr().out.strip())
    assert report["passed"] is True
    assert cli.main(["lemma", "dropout", "--n", "256", "--k", "4",
                     "--small", "64", "--trials", "5"]) == 2


def test_cli_out_dir_env(tmp_path, monkeypatch, capsys):
    monkeypatch.setenv("NESTSIM_OUT_DIR", str(tmp_path))
    code = cli.main(
        ["lemma", "recruit-success", "--active", "2", "--trials", "500"]
    )
    assert code == 0
    assert capsys.readouterr().out == ""
    report = json.loads((tmp_path / "recruit-success.json").read_text())
    assert report["passed"] is True


def test_cli_config_file_defaults(tmp_path):
    cfg = tmp_path / "exp.cfg"
    cfg.write_text(
        "# small smoke sweep\nalgo = simple\nn = 32\nk = 2\nseed = 4\n"
        "qualities = all-good\ntrials = 3\n"
    )
    out = tmp_path / "sweep.csv"
    code = cli.main(["sweep", "--config", str(cfg), "--out", str(out)])
    assert code == 0
    rows = csv_to_rows(out.read_text())
    assert rows[0].n == 32 and rows[0].k == 2 and rows[0].trials == 3


def test_cli_flags_override_config_file(tmp_path):
    cfg = tmp_path / "exp.cfg"
    cfg.write_text("n = 32\nk = 2\nseed = 4\nqualities = all-good\ntrials = 3\n")
    out = tmp_path / "sweep.csv"
    code = cli.main(["sweep", "--config", str(cfg), "--n", "48", "--out", str(out)])
    assert code == 0
    (row,) = csv_to_rows(out.read_text())
    assert row.n == 48 and row.k == 2 and row.trials == 3


# a switch takes no value, a run takes one n, and every key must be a flag
@pytest.mark.parametrize("line", ["verbose_trace = 0", "n = 32,64", "bogus = 3"])
def test_cli_rejects_bad_config_file(line, tmp_path, capsys):
    cfg = tmp_path / "bad.cfg"
    cfg.write_text(line + "\n")
    assert cli.main(["run", "--k", "2", "--config", str(cfg)]) == 2
    assert "error:" in capsys.readouterr().err


def test_cli_config_needs_a_path(capsys):
    assert cli.main(["run", "--config"]) == 2
    assert "--config: expected one argument" in capsys.readouterr().err


def test_cli_sweep_determinism(tmp_path):
    args = ["sweep", "--algo", "simple", "--n", "32", "--k", "2",
            "--trials", "4", "--seed", "8"]
    p1, p2 = tmp_path / "a.csv", tmp_path / "b.csv"
    assert cli.main(args + ["--out", str(p1)]) == 0
    assert cli.main(args + ["--out", str(p2)]) == 0
    assert p1.read_bytes() == p2.read_bytes()
