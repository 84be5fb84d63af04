"""Command-line front end.

Machine-readable output (JSONL traces, JSON reports, CSV) goes to stdout or
--out; human-readable summaries go to stderr.  Exit codes: 0 success,
1 check/convergence failure, 2 usage error.
"""

from __future__ import annotations

import argparse
import os
import sys
from contextlib import nullcontext
from pathlib import Path

from . import harness, lemmas
from .config import (ALGORITHMS, ColonyConfig, ConfigError, check_size, load_config_file,
                     make_qualities)
from .engine import run, stream_from_key


def _positive_int(text: str) -> int:
    value = int(text)
    if value < 1:
        raise argparse.ArgumentTypeError(f"{text!r} is not a positive integer")
    return value


def _seed(text: str) -> int:
    try:
        value = int(text)
    except ValueError:
        raise argparse.ArgumentTypeError(f"seed {text!r} is not an integer") from None
    if not 0 <= value < 2**64:
        raise argparse.ArgumentTypeError(f"seed {value} is outside 0 <= seed < 2**64")
    return value


def _int_list(text: str):
    return tuple(int(x) for x in text.split(","))


def _out_path(arg, default_name):
    if arg:
        return Path(arg)
    outdir = os.environ.get("NESTSIM_OUT_DIR")
    if outdir:
        return Path(outdir) / default_name
    return None  # stdout


def _emit(text: str, path):
    """Write `text` to `path` (stdout if None) in 2**20-character slices, never all at once."""
    if path is not None:
        path.parent.mkdir(parents=True, exist_ok=True)
    with nullcontext(sys.stdout) if path is None else path.open("w", encoding="utf-8") as out:
        out.writelines(text[i:i + 2**20] for i in range(0, len(text), 2**20))


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="nestsim",
        description="seeded ant nest-site selection simulator and lemma lab",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    seeded = argparse.ArgumentParser(add_help=False)
    seeded.add_argument("--seed", type=_seed, default=0)
    seeded.add_argument("--out", help="output file (a run's report goes next to it)")

    def colony():
        # built once per subcommand: children share a parent's actions, so
        # one child's set_defaults would move the other's default as well
        p = argparse.ArgumentParser(add_help=False, parents=[seeded])
        p.add_argument("--config", help="key=value file of flag values; flags given win")
        p.add_argument("--algo", choices=ALGORITHMS, default="simple")
        p.add_argument(
            "--qualities",
            default="one-good",
            help="one-good | all-good | random:p | explicit e.g. 1,0,1",
        )
        p.add_argument("--max-rounds", type=int, default=0)
        return p

    p_run = sub.add_parser(
        "run", parents=[colony()], help="single seeded run, JSONL trace + report"
    )
    p_run.add_argument("--n", type=_positive_int, default=256)
    p_run.add_argument("--k", type=_positive_int, default=4)
    p_run.add_argument("--verbose-trace", action="store_true")
    p_run.set_defaults(func=cmd_run)

    p_sweep = sub.add_parser(
        "sweep", parents=[colony()], help="trial sweep over (n, k) cells, CSV out"
    )
    p_sweep.add_argument("--n", type=_int_list, default=(64, 256), metavar="N1,N2,...")
    p_sweep.add_argument("--k", type=_int_list, default=(4,), metavar="K1,K2,...")
    p_sweep.add_argument("--trials", type=_positive_int, default=100)
    p_sweep.set_defaults(func=cmd_sweep, qualities="all-good")

    p_lemma = sub.add_parser("lemma", help="empirical lemma checks, JSON report")
    p_lemma.set_defaults(func=cmd_lemma)
    lsub = p_lemma.add_subparsers(dest="lemma", required=True)

    # each estimator is looked up when it runs, so it can be wrapped by name
    p = lsub.add_parser("recruit-success", parents=[seeded])
    p.add_argument("--active", type=_positive_int, default=2)
    p.add_argument("--passive", type=int, default=0)
    p.add_argument("--trials", type=_positive_int, default=100_000)
    p.set_defaults(estimate=lambda a: lemmas.recruit_success_rate(lemmas.ScenarioSpec(
        ((1, a.active, 1),) + (((2, a.passive, 0),) if a.passive else ()),
        a.trials, a.seed,
    )))

    p = lsub.add_parser("retention", parents=[seeded])
    p.add_argument("--n", type=_positive_int, default=256)
    p.add_argument("--trials", type=_positive_int, default=10_000)
    p.set_defaults(estimate=lambda a: lemmas.ignorance_retention(a.n, a.trials, a.seed))

    p = lsub.add_parser("nest-delta", parents=[seeded])
    p.add_argument("--sizes", type=_int_list, required=True, metavar="S1,S2,...")
    p.add_argument("--trials", type=_positive_int, default=100_000)
    p.set_defaults(estimate=lambda a: lemmas.nest_delta_distribution(lemmas.ScenarioSpec(
        tuple((i + 1, s, 1) for i, s in enumerate(a.sizes)), a.trials, a.seed
    )))

    p = lsub.add_parser("eps-init", parents=[seeded])
    p.add_argument("--n", type=_positive_int, default=8)
    p.add_argument("--k", type=_positive_int, default=2)
    p.add_argument("--mode", choices=("exact", "monte-carlo"), default="exact")
    p.add_argument("--trials", type=_positive_int, default=100_000)
    p.set_defaults(estimate=lambda a: lemmas.initial_gap_expectation(
        a.n, a.k, a.mode, a.trials, a.seed
    ))

    p = lsub.add_parser("ratio-growth", parents=[seeded])
    p.add_argument("--n", type=_positive_int, default=4096)
    p.add_argument("--k", type=_positive_int, default=2)
    p.add_argument("--sizes", type=_int_list, required=True, metavar="S1,S2")
    p.add_argument("--trials", type=_positive_int, default=10_000)
    p.set_defaults(estimate=lambda a: lemmas.ratio_growth(
        a.n, a.k, a.sizes, a.trials, a.seed
    ))

    p = lsub.add_parser("dropout", parents=[seeded])
    p.add_argument("--n", type=_positive_int, default=4096)
    p.add_argument("--k", type=_positive_int, default=4)
    p.add_argument("--small", type=int, default=16)
    p.add_argument("--trials", type=_positive_int, default=500)
    p.set_defaults(estimate=lambda a: lemmas.dropout_time(
        a.n, a.k, a.small, a.trials, a.seed
    ))

    p_fit = sub.add_parser("fit", help="scaling-law fit over a sweep CSV")
    p_fit.add_argument("--csv", required=True)
    p_fit.add_argument("--model", choices=("logn", "klogn"), required=True)
    p_fit.set_defaults(func=cmd_fit)

    return parser


def _config_flags(path) -> list:
    """A --config file's key=value lines as --key value flag tokens."""
    tokens = []
    for key, value in load_config_file(path).items():
        tokens += [f"--{key.replace('_', '-')}", value]
    return tokens


def cmd_run(args) -> int:
    check_size(args.n, args.k)  # before make_qualities builds k of anything
    rng = stream_from_key(args.seed)
    qualities = make_qualities(args.k, args.qualities, rng)
    config = ColonyConfig(
        n=args.n,
        k=args.k,
        qualities=qualities,
        algorithm=args.algo,
        max_rounds=args.max_rounds,
    )
    trace, (report,) = run([config], rng, verbose=args.verbose_trace)
    out = _out_path(args.out, "trace.jsonl")
    _emit(trace.to_jsonl(), out)
    report_path = None if out is None else out.with_suffix(".report.json")
    _emit(report.to_json() + "\n", report_path)
    print(
        f"{args.algo} n={args.n} k={args.k} seed={args.seed}: {report.reason}"
        + (f" at round {report.rounds_to_converge} -> nest {report.winning_nest}"
           if report.converged else ""),
        file=sys.stderr,
    )
    return 0 if report.converged else 1


def cmd_sweep(args) -> int:
    spec = harness.ExperimentSpec(
        algorithm=args.algo,
        n_values=args.n,
        k_values=args.k,
        pattern=args.qualities,
        trials=args.trials,
        seed=args.seed,
        max_rounds=args.max_rounds,
    )
    rows = harness.sweep(spec)
    _emit(harness.rows_to_csv(rows), _out_path(args.out, "sweep.csv"))
    bad = [r for r in rows if r.converged < r.trials]
    for r in bad:
        print(
            f"cell n={r.n} k={r.k}: only {r.converged}/{r.trials} trials converged",
            file=sys.stderr,
        )
    return 1 if bad else 0


def cmd_lemma(args) -> int:
    report = args.estimate(args)
    _emit(report.to_json() + "\n", _out_path(args.out, f"{report.name}.json"))
    print(f"{report.name}: {'pass' if report.passed else 'FAIL'}", file=sys.stderr)
    return 0 if report.passed else 1


def cmd_fit(args) -> int:
    rows = harness.csv_to_rows(Path(args.csv).read_text(encoding="utf-8"))
    a, b, r2 = harness.fit_scaling(rows, args.model)
    print(
        f'{{"model":"{args.model}","a":{a:.6g},"b":{b:.6g},"r_squared":{r2:.6g}}}'
    )
    return 0


def main(argv=None) -> int:
    argv = list(sys.argv[1:] if argv is None else argv)
    parser = build_parser()
    try:
        args = parser.parse_args(argv)
        if vars(args).get("config"):
            # after the subcommand and ahead of the user's flags, which win
            argv[1:1] = _config_flags(args.config)
            args = parser.parse_args(argv)
        return args.func(args)
    except SystemExit as exc:
        return exc.code if isinstance(exc.code, int) else 2
    # an input file that is not UTF-8 raises a ValueError, not an OSError
    except (ConfigError, harness.FitError, lemmas.ScenarioError, OSError,
            UnicodeDecodeError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2


if __name__ == "__main__":
    sys.exit(main())
