"""Run the benchmark on several seeds and print each metric's median and spread.

Run from the repository root, one benchmark process at a time:

    python3 bench/spread.py --workloads colony-large,sweep-small --seeds 1-10 --seconds 30

For every metric it prints the median, the first and third quartiles
(`statistics.quantiles(values, n=4)`) and the spread (Q3 - Q1) / median, plus
the share of failed operations.  The last JSON line of every run is kept in
`.bench_results/<workload>.jsonl` at the repository root.
"""

from __future__ import annotations

import argparse
import json
import statistics
import subprocess
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
RESULTS = ROOT / ".bench_results"


def _seeds(text):
    lo, _, hi = text.partition("-")
    return list(range(int(lo), int(hi or lo) + 1))


def main():
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workloads", required=True)
    parser.add_argument("--seeds", type=_seeds, default=_seeds("1-10"))
    parser.add_argument("--seconds", type=int, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args()
    RESULTS.mkdir(exist_ok=True)
    ok = True
    for workload in args.workloads.split(","):
        results = []
        for seed in args.seeds:
            cmd = [sys.executable, str(ROOT / "bench" / "run.py"), "--workload", workload,
                   "--seed", str(seed), "--seconds", str(args.seconds),
                   "--trace", str(args.trace)]
            proc = subprocess.run(cmd, cwd=ROOT, capture_output=True, text=True, timeout=300)
            lines = proc.stdout.strip().splitlines()
            if proc.returncode != 0 or not lines:
                print(f"{workload} seed {seed}: exit {proc.returncode}\n{proc.stdout}{proc.stderr}")
                ok = False
                continue
            result = json.loads(lines[-1])
            results.append(result)
            with open(RESULTS / f"{workload}.jsonl", "a", encoding="utf-8") as fh:
                fh.write(json.dumps({"seed": seed, **result}) + "\n")
        if not results:
            continue
        attempted = sum(r["attempted"] for r in results)
        failed = sum(r["failed"] for r in results)
        shares = sorted({r["failed"] / r["attempted"] for r in results})
        print(f"{workload}: {len(results)} runs, failed {failed}/{attempted}, "
              f"per-run failed shares {shares}")
        for name in results[0]["metrics"]:
            values = [r["metrics"][name]["value"] for r in results]
            unit = results[0]["metrics"][name]["unit"]
            med = statistics.median(values)
            if len(values) >= 2:
                q1, _, q3 = statistics.quantiles(values, n=4)
            else:
                q1 = q3 = med
            spread = (q3 - q1) / med if med else float("nan")
            print(f"  {name:32s} median {med:12.6g} {unit:9s} "
                  f"Q1 {q1:12.6g}  Q3 {q3:12.6g}  spread {spread:7.2%}")
    return 0 if ok else 1


if __name__ == "__main__":
    sys.exit(main())
