"""Memory per ant: the peak a run's allocations reach, under `tracemalloc`.

numpy reports its array buffers to `tracemalloc`, so the traced peak of a
`run` through the CLI counts the world, the cohort, the matcher's arrays,
the trace and the text written out.  At n = 20 000:

- a non-verbose `optimal` run at k = 256 peaks at about 210 bytes an ant
  with `visited` packed a bit a nest (33 bytes an ant), against about 480
  with one bool a nest (257 bytes);
- a verbose run at k = 4 peaks about 1.2 bytes an ant and round above its
  non-verbose twin, against about 8.7 with int64 locations.  It keeps a
  byte an ant of location a round, and peaks while `Trace.to_jsonl` joins
  its text, about 2 bytes an ant and round, built whole.  Spelling the
  locations from a digit table instead of lists of ints left this
  reading where it was.

The bounds were set about 1.25 and 1.5 times above the readings of 256
and 2.3 that the gate was added at, and are kept there.
"""

import json
import tracemalloc

from nestsim import cli

N = 20_000
PEAK_BYTES_PER_ANT = 320
VERBOSE_BYTES_PER_ANT_ROUND = 3.5


def _traced_run(tmp_path, *flags):
    """(traced peak in bytes, rounds to converge) of one CLI `run` at N ants."""
    out = tmp_path / "trace.jsonl"
    tracemalloc.start()
    try:
        code = cli.main(["run", "--n", str(N), "--seed", "3", *flags, "--out", str(out)])
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    report = json.loads(out.with_suffix(".report.json").read_text(encoding="utf-8"))
    assert code == 0 and report["converged"]
    return peak, report["rounds_to_converge"]


def test_large_k_run_peaks_within_a_bound_per_ant(tmp_path):
    peak, _ = _traced_run(tmp_path, "--algo", "optimal", "--k", "256",
                          "--qualities", "all-good")
    assert peak <= PEAK_BYTES_PER_ANT * N


def test_verbose_trace_costs_within_a_bound_per_ant_round(tmp_path):
    flags = ("--algo", "simple", "--k", "4", "--qualities", "one-good")
    quiet, _ = _traced_run(tmp_path, *flags)
    verbose, rounds = _traced_run(tmp_path, *flags, "--verbose-trace")
    assert verbose - quiet <= VERBOSE_BYTES_PER_ANT_ROUND * N * rounds


def test_long_output_is_written_whole_in_slices(tmp_path, capsys):
    """Text of several 2**20-character slices reaches a file and stdout intact."""
    text = "".join(f"{i}\n" for i in range(400_000))  # about 2.7 MB
    cli._emit(text, tmp_path / "out" / "t.jsonl")
    assert (tmp_path / "out" / "t.jsonl").read_text(encoding="utf-8") == text
    cli._emit(text, None)
    assert capsys.readouterr().out == text
