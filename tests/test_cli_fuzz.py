"""Property test of the command line: no argv hangs, crashes or leaks a traceback.

For each subcommand, argv is drawn from that subcommand's flags, with
values taken from small valid ranges, the boundary values 0, -1 and 1,
junk strings, and tiny or huge floats for `random:p`.  Whatever is drawn,
`cli.main` must return 0, 1 or 2, raise nothing and end within its
deadline.  Sizes stay at n <= 64, k <= 8 and trials <= 20, so that no
example allocates much or runs long.  A flag whose default would run long
(`--n`, `--k`, `--trials`) is always given, and so is `--qualities`.  At most one flag of an argv
takes a value that may be invalid.
"""

import contextlib
import io
import signal
import tempfile
from datetime import timedelta
from pathlib import Path

import pytest
from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st

from nestsim import cli

DEADLINE_S = 10

JUNK = st.sampled_from(["", "x", "1.5", "nan", "inf", "--", "0x10", " 3", "1,", ",", "1e3"])
BAD = st.one_of(st.sampled_from(["0", "-1", "1"]), JUNK)


def _ints(lo, hi):
    return st.integers(lo, hi).map(str)


def _int_list(hi):
    return st.lists(_ints(1, hi), min_size=1, max_size=3).map(",".join)


N, K, TRIALS, SEED = _ints(1, 64), _ints(1, 8), _ints(1, 20), _ints(0, 99)
# p from tiny to huge: a p that needs too many redraws must fail, not hang
P = st.one_of(st.floats(0.05, 1.0).map(repr), st.floats(1e-320, 1e-3).map(repr),
              st.sampled_from(["1e-12", "1e-300", "5e-324", "0", "-0.5", "1e300", "nan", "x"]))
QUALITIES = st.one_of(st.sampled_from(["one-good", "all-good"]), P.map("random:{}".format))
BAD_QUALITIES = st.one_of(st.sampled_from(["0,0", "1,0", "2,1", "1,0,1,0,1,0,1,0"]), JUNK)
# per flag: (valid values, values that may be invalid); None marks a switch
COLONY = {
    "--seed": (SEED, st.one_of(BAD, st.just(str(2**64)))),
    "--algo": (st.sampled_from(["optimal", "simple"]), st.just("x")),
    "--max-rounds": (st.sampled_from(["0", "2", "40"]), BAD),
    "--config": (st.just("colony.conf"), st.sampled_from(["missing.conf", "junk.conf"])),
}
# per subcommand: (flags always given, flags that may be left out)
SUBCOMMANDS = {
    "run": ({"--n": (N, BAD), "--k": (K, BAD), "--qualities": (QUALITIES, BAD_QUALITIES)},
            {**COLONY, "--verbose-trace": None}),
    "sweep": ({"--n": (_int_list(64), BAD), "--k": (_int_list(8), BAD),
               "--trials": (TRIALS, BAD), "--qualities": (QUALITIES, BAD_QUALITIES)}, COLONY),
    "lemma recruit-success": ({"--active": (_ints(1, 64), BAD), "--trials": (TRIALS, BAD)},
                              {"--seed": (SEED, BAD), "--passive": (_ints(0, 64), BAD)}),
    "lemma retention": ({"--n": (N, BAD), "--trials": (TRIALS, BAD)}, {"--seed": (SEED, BAD)}),
    "lemma nest-delta": ({"--sizes": (_int_list(64), BAD), "--trials": (TRIALS, BAD)},
                         {"--seed": (SEED, BAD)}),
    "lemma eps-init": ({"--n": (N, BAD), "--k": (K, BAD), "--trials": (TRIALS, BAD)},
                       {"--seed": (SEED, BAD),
                        "--mode": (st.sampled_from(["exact", "monte-carlo"]), st.just("x"))}),
    "lemma ratio-growth": ({"--n": (N, BAD), "--k": (K, BAD),
                            "--sizes": (st.lists(_ints(1, 32), min_size=2, max_size=2)
                                        .map(",".join), _int_list(64)),
                            "--trials": (TRIALS, BAD)}, {"--seed": (SEED, BAD)}),
    # at n <= 64 the small nest must start empty
    "lemma dropout": ({"--n": (N, BAD), "--k": (K, BAD), "--trials": (TRIALS, BAD),
                       "--small": (st.just("0"), _ints(1, 64))}, {"--seed": (SEED, BAD)}),
    "fit": ({"--csv": (st.just("sweep.csv"), st.sampled_from(["missing.csv", "junk.csv"])),
             "--model": (st.sampled_from(["logn", "klogn"]), st.just("x"))}, {}),
}

# input files, written to a fresh directory for each example; the names
# "missing.csv" and "missing.conf" stand for files that do not exist
FILES = {
    "sweep.csv": "# nestsim-sweep-csv v1\n"
                 "algorithm,n,k,trials,converged,median_rounds,mean_rounds,p10_rounds,"
                 "p90_rounds,min_rounds,max_rounds\n"
                 "simple,16,2,4,4,20,20,18,22,18,22\n"
                 "simple,32,2,4,4,25,25,23,27,23,27\n"
                 "simple,64,2,4,4,30,30,28,32,28,32\n",
    "junk.csv": "a,b\n1,2\n",
    "colony.conf": "# a comment\nalgo = optimal\nseed = 3\n",
    "junk.conf": "n\nverbose_trace = 1\n",
}


@st.composite
def argvs(draw, name):
    """argv for the subcommand `name`, with at most one flag's value drawn
    from its possibly invalid values."""
    required, optional = SUBCOMMANDS[name]
    chosen = {**required, **{f: s for f, s in optional.items() if draw(st.booleans())}}
    flags = draw(st.permutations(sorted(chosen)))
    bad = draw(st.sampled_from([None, *flags]))
    argv = name.split()
    for flag in flags:
        argv.append(flag)
        if chosen[flag] is not None:
            valid, invalid = chosen[flag]
            argv.append(draw(invalid if flag == bad else valid))
    return argv


class Hang(BaseException):
    """Raised by the alarm; not an OSError, which `cli.main` turns into exit 2."""


def _timeout(signum, frame):
    raise Hang(f"cli.main ran past {DEADLINE_S} s")


@pytest.mark.parametrize("name", list(SUBCOMMANDS), ids=lambda name: name.replace(" ", "-"))
@settings(max_examples=50, deadline=timedelta(seconds=DEADLINE_S), database=None,
          derandomize=True, suppress_health_check=[HealthCheck.too_slow])
@given(data=st.data())
def test_cli_ends_with_an_exit_code(name, data):
    argv = data.draw(argvs(name))
    with tempfile.TemporaryDirectory() as tmp:
        for file_name, text in FILES.items():
            (Path(tmp) / file_name).write_text(text, encoding="utf-8")
        argv = [str(Path(tmp) / a) if a.endswith((".csv", ".conf")) else a for a in argv]
        out, err = io.StringIO(), io.StringIO()
        # a hang fails the example instead of stalling the suite
        previous = signal.signal(signal.SIGALRM, _timeout)
        signal.alarm(DEADLINE_S)
        try:
            with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
                code = cli.main(argv)
        finally:
            signal.alarm(0)
            signal.signal(signal.SIGALRM, previous)
    assert code in (0, 1, 2), (argv, code)
    assert "Traceback" not in err.getvalue(), argv
