"""Golden outputs: SHA-256 hashes of CLI outputs pinned across versions.

Every seeded output of nestsim is meant to be byte-identical from one
version to the next unless a change says otherwise.  These hashes pin a
`run` trace and report for both algorithms over small and medium colonies,
three sweep CSVs (one with qualities drawn per trial, one with a round cap
that trials hit), and one JSON report per lemma estimator, and every line of
a trace or report must parse as strict JSON.  The colonies range from
n = 64 to 4096, so the matcher's greedy rounds are pinned on pools of a
few ants and of thousands.

`SERIAL_GOLDEN` pins the Monte Carlo lemma outputs of one trial a chunk,
which replay the estimators' older one-call-per-trial draws.  A change that
moves an output on purpose records why in CHANGES.md and regenerates
`GOLDEN` with

    PYTHONPATH=src python tests/test_golden.py
"""

import hashlib
import sys
import tempfile
from pathlib import Path

import pytest

from nestsim import cli, lemmas
from reference import strict_json


def _run_argv(algo, n, qualities, seed):
    return ["run", "--algo", algo, "--n", str(n), "--k", "4",
            "--qualities", qualities, "--seed", str(seed), "--verbose-trace"]


CASES = {
    **{
        f"run-{algo}-n{n}-{qualities}-s{seed}": _run_argv(algo, n, qualities, seed)
        for algo in ("optimal", "simple")
        for n in (64, 256, 4096)
        for qualities in ("one-good", "all-good")
        for seed in (1, 2)
    },
    "sweep-optimal": ["sweep", "--algo", "optimal", "--n", "64,256", "--k", "2,4",
                      "--qualities", "all-good", "--trials", "8", "--seed", "5"],
    # nests drawn per trial, and lone ants (n = 1) that never converge
    "sweep-simple-random": ["sweep", "--algo", "simple", "--n", "1,64,1000",
                            "--k", "1,2,4", "--qualities", "random:0.5",
                            "--trials", "6", "--seed", "9"],
    # a cap some trials hit, so the sweep exits 1
    "sweep-optimal-capped": ["sweep", "--algo", "optimal", "--n", "16,256",
                             "--k", "2,4", "--qualities", "one-good", "--trials",
                             "8", "--seed", "4", "--max-rounds", "40"],
    "lemma-recruit-success": ["lemma", "recruit-success", "--active", "3",
                              "--passive", "2", "--trials", "2000", "--seed", "3"],
    "lemma-retention": ["lemma", "retention", "--n", "256", "--trials", "20",
                        "--seed", "3"],
    "lemma-nest-delta": ["lemma", "nest-delta", "--sizes", "20,10", "--trials",
                         "2000", "--seed", "3"],
    "lemma-eps-init": ["lemma", "eps-init", "--n", "64", "--k", "3", "--mode",
                       "monte-carlo", "--trials", "2000", "--seed", "3"],
    "lemma-ratio-growth": ["lemma", "ratio-growth", "--n", "4096", "--k", "2",
                           "--sizes", "2400,1696", "--trials", "20", "--seed", "3"],
    "lemma-dropout": ["lemma", "dropout", "--n", "4096", "--k", "4", "--small",
                      "16", "--trials", "3", "--seed", "3"],
}

GOLDEN = {
    "lemma-dropout": "cc1cfc82c3f04d5a69add1f65fbf3fccf90dc8b1743691a1897c7977c99f09d5",
    "lemma-eps-init": "2fc9c784f026b45cd774b4b91ca14f6564ced512ffe34c4d6183a717071eeb9b",
    "lemma-nest-delta": "8c411443f29f771e5cadaac3ed7f4f48cd2a5b1d75cff16087054f6023fb39ad",
    "lemma-ratio-growth": "74c7954cebea108486cd11c204b158e3270946fabbcc7f407e7a512b038813fe",
    "lemma-recruit-success": "c0663bfd810a9387bbbada006509b54d7c8d2fe0d48596d1002641d3f2ca82f0",
    "lemma-retention": "e51dff94973194ba49234a55b029139439c101cf9097d841811f2491b208ac6a",
    "run-optimal-n256-all-good-s1": "bb90ba152487dd68196a2faf2f382486093b25892ab0463df47dbf63f3dbe32f",
    "run-optimal-n256-all-good-s2": "7980215a2f2edb20b0386cd367f726145a206f35948c7cd6331e3b998599555b",
    "run-optimal-n256-one-good-s1": "de196af50594a0dcd89077c2949b684bc1b55a5d158268a09c07af0e9a6ba16b",
    "run-optimal-n256-one-good-s2": "d7cbb1f9c90428d6b156e1e11e51ef629c69a573f62e40a92578d6fa18189439",
    "run-optimal-n4096-all-good-s1": "247b57a1f74a30fda2a5c165cf06cf82a9d8390a363bb147e284a4c04a69012a",
    "run-optimal-n4096-all-good-s2": "32d73f164e5ded349fa96d724865b279ad2b41b3f44f8e76ca70a6bd02415155",
    "run-optimal-n4096-one-good-s1": "244db83151dab401015dce3b719f822a15861194aeda95b23e16e262d1d28fcd",
    "run-optimal-n4096-one-good-s2": "5d938323cbf9d7d47fa8764c4f050209a585a8f630d01a80636cd5dbbc399a70",
    "run-optimal-n64-all-good-s1": "0050e3ccedcc944bf43bd9328ef154727e8646124756c6f134e61e45b8597c72",
    "run-optimal-n64-all-good-s2": "371936024a25c921fb0216eae52e29683b4871fbfb755c5ce77c923647e8fee9",
    "run-optimal-n64-one-good-s1": "dcf7587ff55e654d94d4efaaa7eade1af863a65c17f321aa7b4f122529de8b71",
    "run-optimal-n64-one-good-s2": "e683615f3b6dabb53c05f0ffbed026cbca8aa22199cf3365241898a890d143a6",
    "run-simple-n256-all-good-s1": "2d8c8f33a993001b16e53bced02706b4128bca6665411e41f1d39f4687c78f32",
    "run-simple-n256-all-good-s2": "3bbe6a9a51137551a36270a04a5903d2a4512e6afe1625b940b73b976964ddbf",
    "run-simple-n256-one-good-s1": "034c3bee4015e39b28627539894cf1a6b7efb508c3ff7709cbbdeef7ba18a856",
    "run-simple-n256-one-good-s2": "fbb39f82ec38d76e308e8b87c5323c945305bbeb16684cb76bc622216f76a08c",
    "run-simple-n4096-all-good-s1": "68f196bdc719dfe4ba6e79435a2bef8a27dc6e532633395dc902363ab41c26e7",
    "run-simple-n4096-all-good-s2": "62b55f599be0cfcaf5627dd3e5a4016e72b991609ff0ca6535e85e5d9cb53d61",
    "run-simple-n4096-one-good-s1": "c2895832c767ee2e13efb03905d02281149800d733cbf64c34c42c7bbf1c0b8a",
    "run-simple-n4096-one-good-s2": "81905be897ec2ba0afe0ea2480d4aa541c76339d4dd0c829647f44414b28a2ee",
    "run-simple-n64-all-good-s1": "de9d2a155f64f77655826977effb8b37e1a69c043f29ea887253ba7c243bc211",
    "run-simple-n64-all-good-s2": "0e9d4a006c4c490c9548ae6d7385313fb036f67cf3aa5a6ec85a10ebcac1222f",
    "run-simple-n64-one-good-s1": "977593a3edbea2b6c1be53e8ff4193ca98ce0dff942d23e702269cf24ea5fa84",
    "run-simple-n64-one-good-s2": "4162ffb185d62f8ad0c763216728066c27bffc4195bdc87e9211d52436267215",
    "sweep-optimal": "5a880938ff088a10ea4de0b633756af88577493b21e8b7e2ced2dc3e4e9d9a36",
    "sweep-optimal-capped": "6534749e5ea955df14449ba4563f1c21d8c35381d1f24ac886e8335fc9d6fa10",
    "sweep-simple-random": "c15d7d1ffa8dd7023a64a001d6b523e43f1775d083f9ee08dfc9d3ad25a1841d",
}


# The five Monte Carlo lemma outputs as the estimators wrote them with one
# matcher call per trial, before they played their trials in chunks.  One
# trial a chunk must still write them byte for byte.
SERIAL_GOLDEN = {
    "lemma-dropout": "2bb3d1044b8e8ee52d664a1acaf478b633b2f7c3a1f2cb4dc964b14ae89d4771",
    "lemma-nest-delta": "8a2916bd8c2539d730f39458998e0758a67c57344370e31b1715c7ca80683108",
    "lemma-ratio-growth": "63dbb6b725c64e4e92ca477fcaac6121e452b657764f555720cdb86d925a179e",
    "lemma-recruit-success": "60a2fc9b05a629b51dfec7c420d2f0f13a8cb8c432fb0d0d79d265568ebcad3b",
    "lemma-retention": "add33fc245449f42a991d0acbee8e66061698babd1cd5661274a14c2749ba852",
}


def digest(argv, tmp):
    """SHA-256 over one CLI call's exit code and every file it writes."""
    out = Path(tmp) / "out"
    code = cli.main([*argv, "--out", str(out)])
    h = hashlib.sha256(f"exit {code}".encode())
    for path in sorted(Path(tmp).iterdir()):
        h.update(path.name.encode())
        h.update(path.read_bytes())
    return h.hexdigest()


@pytest.mark.parametrize("name", sorted(CASES))
def test_golden_output(name, tmp_path):
    assert digest(CASES[name], tmp_path) == GOLDEN[name]
    if CASES[name][0] != "sweep":  # every other file is JSON lines
        for path in tmp_path.iterdir():
            for line in path.read_text(encoding="utf-8").splitlines():
                strict_json(line)


@pytest.mark.parametrize("name", sorted(SERIAL_GOLDEN))
def test_one_trial_a_chunk_replays_the_serial_output(name, tmp_path, monkeypatch):
    monkeypatch.setattr(lemmas, "UNION_ANTS", 1)
    assert digest(CASES[name], tmp_path) == SERIAL_GOLDEN[name]


if __name__ == "__main__":
    for name in sorted(CASES):
        with tempfile.TemporaryDirectory() as tmp:
            sys.stdout.write(f'    "{name}": "{digest(CASES[name], tmp)}",\n')
