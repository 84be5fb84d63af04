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
    "run-optimal-n256-all-good-s1": "d228b841a4424bf43cf97151d72ce3da08a7e06c30fa2d2361d50d2c0a1e9f56",
    "run-optimal-n256-all-good-s2": "d81be3d4871e59055c83595d8e8981bc2e5c6dd7d0b54174e085e9cbbec89653",
    "run-optimal-n256-one-good-s1": "23baa4fab05df443fafb5f1276a364d7cba301cd9822587240c0b8214fbd2206",
    "run-optimal-n256-one-good-s2": "49b42813999fc0ff2707b7e8e803e08afb1ce8225f4536328f87bfc4fc9e2869",
    "run-optimal-n4096-all-good-s1": "1b53fd6027c126495950f6276340456e808383ff6a55c1fc9313c1c200516f45",
    "run-optimal-n4096-all-good-s2": "7b0c9e3bf627605d782720a1f01094c0f9023972600e120b005804c156e5427d",
    "run-optimal-n4096-one-good-s1": "220e542ede2480aa2dfa1e896220480ef43b45b4d06e326ec3ce28561d5e93ee",
    "run-optimal-n4096-one-good-s2": "b5545410174aacfc76806ec3c6b3a1042d2059c78dd02efb8f49710d6fed6e9d",
    "run-optimal-n64-all-good-s1": "a202d8e213ece7b2067bf26b12b69bb7929dfadd7f7bc513cbc24e639cb281ee",
    "run-optimal-n64-all-good-s2": "3ce399aac4e573937f6bd4d0031a3809ad4720a9492c727a9bfeb21763452933",
    "run-optimal-n64-one-good-s1": "fd0dffa5437d81104ca9c32753cd239d67cfa260797efdf92e01dcc79a6534df",
    "run-optimal-n64-one-good-s2": "4a35d691eaeb0f546462a90d9fa49621e481bca757153476eb81c6c7c9821c63",
    "run-simple-n256-all-good-s1": "644fac881844497a9a896b026827ea541b573984b63db8be6c172ec1df884e54",
    "run-simple-n256-all-good-s2": "8a75809e741a219de2f76ce254394ffd12a1ad5b53f33665b0da134c7095178f",
    "run-simple-n256-one-good-s1": "0c475388c3be99d97402ace25c82573e453478f0e80cebeba48f366c0549ab0a",
    "run-simple-n256-one-good-s2": "fdd82257977d27937e17e131e31000f190d13a5d1aa290a2ee0ae5947c9b89ea",
    "run-simple-n4096-all-good-s1": "403daa0aeb7db7781bb35096d4bb10923cf830bf657bc4c960fea81bdaf195ad",
    "run-simple-n4096-all-good-s2": "3bc7ac5a32e7972f359b422b557884a72f90f49e17855d554788a7e27f2173e3",
    "run-simple-n4096-one-good-s1": "4f69b02d23d972ac132440aa74b214711ea5ac53368d03e89c8a4c6c05458fc5",
    "run-simple-n4096-one-good-s2": "86a0e35d59cdb590adabe95859da434a4a2377358ab98ffefbcac735c6e46f70",
    "run-simple-n64-all-good-s1": "c62ddd17fef1526f8196ce619a4ecaa9e60844ebb0e2c281fd84efe8c059c1b8",
    "run-simple-n64-all-good-s2": "7fa4db5d982c401a919f95e68827dc36872efab283b99a02d9b6cac03245c100",
    "run-simple-n64-one-good-s1": "df1f55682e5014254517e0ee59541995ab53e47e379c611f9eeaad9ddf39d5f1",
    "run-simple-n64-one-good-s2": "fc132b22147bbba5a64814ee7caacd502d34715723bbdefc767261978a90130f",
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
