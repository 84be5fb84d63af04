"""What the benchmark's per-layer spans need from nestsim.

`bench/layers.py` wraps nestsim's public names by module and attribute,
and reports every metric resting on a name it cannot find as missing.
This test installs those spans as `bench/run.py` does and drives one
verbose `run`, one small `sweep` and one lemma estimator through
`cli.main`, so that a rename in `src/` fails here and not only in a traced
benchmark pass.  The metrics it reports, with the tracing overhead that
`bench/run.py` adds, must be every `per_layer` name `BENCHMARK.json`
declares: a traced result that lacks one of them is refused, even when the
pass exits 0.
"""

import importlib
import importlib.util
import json
from pathlib import Path

from nestsim import cli
from nestsim.config import ColonyConfig, make_qualities
from nestsim.engine import run, stream_from_key

LAYERS = Path(__file__).resolve().parents[1] / "bench" / "layers.py"
SPEC = LAYERS.parents[1] / "BENCHMARK.json"
MODULES = ("cli", "harness", "engine", "lemmas", "matching", "optimal", "simple")


def _load_layers():
    spec = importlib.util.spec_from_file_location("bench_layers", LAYERS)
    layers = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(layers)
    return layers


def test_every_span_installs_and_every_metric_reports(tmp_path):
    layers = _load_layers()
    ns = {m: importlib.import_module(f"nestsim.{m}") for m in MODULES}
    spans = layers.Spans()
    spans.install(ns)
    try:
        for name, argv in (
            ("run", ["run", "--algo", "optimal", "--n", "256", "--k", "4",
                     "--qualities", "one-good", "--seed", "1", "--verbose-trace"]),
            ("sweep", ["sweep", "--algo", "simple", "--n", "64", "--k", "2",
                       "--qualities", "all-good", "--trials", "3", "--seed", "1"]),
            ("lemma", ["lemma", "recruit-success", "--active", "2",
                       "--trials", "200", "--seed", "1"]),
        ):
            assert cli.main([*argv, "--out", str(tmp_path / name)]) == 0
    finally:
        spans.uninstall()
    assert spans.missing == set()
    metrics, missing = layers.layer_metrics(spans)
    assert missing == []
    assert set(metrics) == set(layers.PER_LAYER)
    declared = json.loads(SPEC.read_text(encoding="utf-8"))["per_layer"]
    assert set(metrics) | {"tracing.overhead_s"} == {m["name"] for m in declared}
    # the largest `visited` is the run's: n = 256 rows of k // 8 + 1 = 1 byte
    assert metrics["world.visited_bytes"]["value"] == 256 * (4 // 8 + 1)
    # the core is reached through the module global, so its span is timed
    assert spans.count["matching.calls"] > 0
    assert spans.total["matching.match_core"] > 0


def test_sweep_spans_count_colony_rounds_and_one_call_a_round(tmp_path):
    """A one-chunk sweep counts the rounds its trials play as one batch on
    the cell's stream, and makes at most one matcher call a round of its
    longest trial."""
    n, k, trials, seed = 64, 2, 5, 1
    rng = stream_from_key(seed, n, k)
    configs = [ColonyConfig(n=n, k=k, qualities=make_qualities(k, "all-good", rng),
                            algorithm="simple") for _ in range(trials)]
    trace, _ = run(configs, rng)
    longest = max(rec["round"] for rec in trace.records)
    layers = _load_layers()
    spans = layers.Spans()
    spans.install({m: importlib.import_module(f"nestsim.{m}") for m in MODULES})
    try:
        argv = ["sweep", "--algo", "simple", "--n", str(n), "--k", str(k),
                "--qualities", "all-good", "--trials", str(trials), "--seed", str(seed)]
        assert cli.main([*argv, "--out", str(tmp_path / "sweep.csv")]) == 0
    finally:
        spans.uninstall()
    assert spans.count["engine.rounds"] == len(trace.records)
    assert 0 < spans.count["matching.calls"] <= longest
