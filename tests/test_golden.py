"""Golden outputs: SHA-256 hashes of CLI outputs pinned across versions.

Every seeded output of nestsim is meant to be byte-identical from one
version to the next unless a change says otherwise.  These hashes pin a
`run` trace and report for both algorithms over small and medium colonies,
four sweep CSVs (one with qualities drawn per trial, one with a round cap
that trials hit), and one JSON report per lemma estimator, and every line of
a trace or report must parse as strict JSON.  The colonies range from
n = 64 to 4096, so the matcher's greedy rounds are pinned on pools of a
few ants and of thousands.  Most runs have k = 4; two runs and a sweep at
k = 9 to 300 pin ants' visit records that span several bytes.

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

from nestsim import cli, matching
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
    # rows of `visited` that span several bytes: 38 bytes and uint16
    # locations at k = 300, 2 bytes at k = 12, and batched rows at k = 9, 12
    "run-optimal-n1024-k300-all-good-s1": ["run", "--algo", "optimal", "--n", "1024",
                                           "--k", "300", "--qualities", "all-good",
                                           "--seed", "1", "--verbose-trace"],
    "run-simple-n1024-k12-all-good-s1": ["run", "--algo", "simple", "--n", "1024",
                                         "--k", "12", "--qualities", "all-good",
                                         "--seed", "1", "--verbose-trace"],
    "sweep-optimal-k9-12": ["sweep", "--algo", "optimal", "--n", "64", "--k", "9,12",
                            "--qualities", "all-good", "--trials", "8", "--seed", "5"],
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
    "lemma-dropout": "99859aa6706abc8deeb2242e4ca29bb4a66034ac16780243c9217e21d0639118",
    "lemma-eps-init": "2fc9c784f026b45cd774b4b91ca14f6564ced512ffe34c4d6183a717071eeb9b",
    "lemma-nest-delta": "a515343f9de940fcb3166d3fc7bfd43949fd2d372a5075445d1545cddd8aa9d6",
    "lemma-ratio-growth": "2eddb56276fd2b2e5a316379f29c14bfe6696a21a92dc81f9afc50ac1f08861c",
    "lemma-recruit-success": "f22f06959db01a66d165bd8615ed5b52e048b266ae82bb7259e1330e2157d332",
    "lemma-retention": "9d790ae651877df29fc9ef589c71d28845a44582699a9b9994d1824138ea7a1d",
    "run-optimal-n1024-k300-all-good-s1": "0e28bd4a2c461668ac6ea5660ce38234896c0b15c855569dcfe6c67e490d01fc",
    "run-optimal-n256-all-good-s1": "927b34868645259d10fde0b69cd292489d835d9c5a20cf059d3b9eb128fba6ea",
    "run-optimal-n256-all-good-s2": "1f91cafabf7959e7ce559e00c031f63ed4a7b6313cb51e437d1c0cc41c6d21d3",
    "run-optimal-n256-one-good-s1": "227798937d4dec186505a5a5290a2ff9b972780342e1b6616c14bdf6d1b64b8f",
    "run-optimal-n256-one-good-s2": "10b6698aad35d9e35fcdfaa7c6c900977f076d064fe7c7da845a48eec5c92c13",
    "run-optimal-n4096-all-good-s1": "d64240cc202ae12957576fe2a943bd73a768ade3fa3772b5337248ca4cdec95f",
    "run-optimal-n4096-all-good-s2": "639c8cd03e84bfa948fccf0f472e9ff2a92dc41479f4c6fad4b42a019e454c67",
    "run-optimal-n4096-one-good-s1": "7b7e36795d7db3ca1be680b5ac4dcc5aec3a7fd6255f703f130cad499420ed47",
    "run-optimal-n4096-one-good-s2": "54fd13a7f124a92a6e03d496612b81f12276df1e193c82828255976b0b33faa6",
    "run-optimal-n64-all-good-s1": "4bc0c3a1697893b5cbb58ce0c2ea336eaef892fbf5c7b71c69253e02e30d764c",
    "run-optimal-n64-all-good-s2": "e7b1b4629ce6c824f30305f442a726e73541b5e340676e2d3e2555730b56767a",
    "run-optimal-n64-one-good-s1": "75e530b8a2621fcc72c0e3111f43111e7881a7be6a4f5c7a0c99e3afaf301387",
    "run-optimal-n64-one-good-s2": "137c7300da6b41fdd6b4c83eb2afc772ca6c562e21186d7902262be462ad4380",
    "run-simple-n1024-k12-all-good-s1": "d447b35165fd931ae42ead265780c5928ba54bd2d97e7cd1901825636fe969a9",
    "run-simple-n256-all-good-s1": "c3c030da0c41c10f9b0bb721a8851afbd60749c12c98389a508c03154ee106fc",
    "run-simple-n256-all-good-s2": "47896077a4e5a3ed440f9905dcaad145521df984e109950e9d9f721a40738a29",
    "run-simple-n256-one-good-s1": "1042d03f57b8431f9bd665c4c0f4ca9fe1466e181aede75d90827249ae21c5a4",
    "run-simple-n256-one-good-s2": "b6746b8a307a457f4f1e34b5141ee815f25a33a0484e6ac59b3a23663cef73d0",
    "run-simple-n4096-all-good-s1": "50553ce118362982bf2483ffc3ed967079c6d2766a1834a1eac9c1bbe34f06b1",
    "run-simple-n4096-all-good-s2": "38c383cdcafafa148289c8fb02276aa3d74ea297d9a3cf573cf1d4b8fe820e1a",
    "run-simple-n4096-one-good-s1": "1280691b08d569058c888727e226e0877e427f7c10936fc3271a689dd11f2223",
    "run-simple-n4096-one-good-s2": "0f9289fc57a2780daa577c8dc148ab7e107b6987480d867c388cf17ee401b6ff",
    "run-simple-n64-all-good-s1": "8fa661b80d5c3f9f0ead61a0a36b8614ae79957e60327771d5aff9ef524e39d8",
    "run-simple-n64-all-good-s2": "65101d44ada83331db324751dc8bd392b43f354e32d8021e65dfacc99ef98a10",
    "run-simple-n64-one-good-s1": "1c82dd67ae61d3315114cf853be66321d5223321bf10f04982af69f864a9e1bc",
    "run-simple-n64-one-good-s2": "f5bb8d3bb2984c6371633c413bf28a01501e6fb57a5e547568735752ee448f41",
    "sweep-optimal": "af5f08faa708f8d7be8bd84b4b80371b869e868de4346924142d889002ab24b7",
    "sweep-optimal-capped": "96244d37acf0369a03fbcee4c719b5a3f4b31e30139a0bc8173335647fd8dd1c",
    "sweep-optimal-k9-12": "d5fdc9230eabe91e4bd1b81896831c1a2b703ee4694b5d322e84ba59ceeeb75f",
    "sweep-simple-random": "b2b76dc22dfd088f941d66e094cca87232897e554fcb8ceeb8165f66eff9fbfc",
}


# The five Monte Carlo lemma outputs as the estimators wrote them with one
# matcher call per trial, before they played their trials in chunks.  One
# trial a chunk must still write them byte for byte.
SERIAL_GOLDEN = {
    "lemma-dropout": "c02e6e4afd684f497554c58e024d1e0eb1ce68350e8435668cef332bc4f839a7",
    "lemma-nest-delta": "ec8c1ecb04d8ff67b7101017130f51dc80077c3f56b9b09c0a48894e67fa2dbb",
    "lemma-ratio-growth": "02bdfeaeafffe74302d44ec618aa00f760ff762489ad2764bd22b1d5a99557a7",
    "lemma-recruit-success": "8f4721f337900c5a3a1e99484ed8996a164c995e857a8b3a7259f0dd54f4bc5b",
    "lemma-retention": "2a29ec0b7df4982ac89318d45000227ea4582221cf8b84a4c3242ad11bf5f4cd",
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
    monkeypatch.setattr(matching, "UNION_ANTS", 1)
    assert digest(CASES[name], tmp_path) == SERIAL_GOLDEN[name]


if __name__ == "__main__":
    for name in sorted(CASES):
        with tempfile.TemporaryDirectory() as tmp:
            sys.stdout.write(f'    "{name}": "{digest(CASES[name], tmp)}",\n')
