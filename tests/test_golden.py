"""Golden byte lock: SHA-256 of small CLI outputs for fixed seeds.

Each case runs `rangesim.cli.main` in-process and hashes the CSV it
writes. The hashes were recorded from the code as it was before the
distance kernel was rewritten (scipy Floyd-Warshall for every graph). A
change that alters any of them alters output bytes and must say so, and
why, in CHANGES.md.

The cases cover `run` for both models with the small-world index on, a
paired `sweep` with burn-in (r = 0 gives edgeless snapshots, where the
index is undefined), `diffusion` for each process, two N = 130 runs (a
sparse one, whose breadth-first searches run many levels, and a dense
one with small-world references), two 45-step N = 20 runs, recorded
from the code that measured each snapshot on its own, and two 170-step
N = 20 runs, whose snapshots span more than one 163-graph metric stack.
The 170-step hashes were recorded from commit 8dc7b0f, whose stacks at
N = 20 held 40 graphs.

The N = 20 potion case never creates the crossover item, so its rows are
all zeros. The three N = 40 diffusion cases (potion and cultural on the
null model, potion on `recipes_fractional.json`, whose scores are not
integers) reach crossover or fixation; they were recorded from the code
that held inventories as sets of item names.

The sweep cases beyond `sweep-paired` vary each other parameter: `g`
(the grid side of the supplement's Fig. S1, from a complete graph at
g = 3), `n` and `p` paired, where the null model takes p = r/g and the
range model r = p*g, and `n` on the null model alone without the
small-world index. They, and the `--workers` copies of `sweep-paired`,
were recorded from commit a51c0ae, before `SweepConfig` resolved each
cell only once.
"""

import hashlib
from pathlib import Path

import pytest

from rangesim.cli import main

SMALL = ["--n", "20", "--g", "10", "--seed", "3"]
MID = ["--n", "40", "--g", "8", "--steps", "60", "--rounds", "3", "--seed", "3"]
FRACTIONAL_RECIPES = str(Path(__file__).with_name("recipes_fractional.json"))

CASES = {
    "run-range": (
        ["run", "--model", "range", "--r", "2", "--steps", "8", "--rounds", "2", *SMALL],
        "93ddcef92b0a87d4b1a78d90bf39003a7b83b91d9b61d99532d65186facec504"),
    "run-null": (
        ["run", "--model", "null", "--p-connect", "0.1", "--steps", "8", "--rounds", "2",
         *SMALL],
        "61ea67110d1cb515a51dc87d050e081edacd4c451e7f07e0d5bacab2706ba766"),
    "sweep-paired": (
        ["sweep", "--model", "both", "--vary", "r", "--values", "0:3:1", "--steps", "8",
         "--rounds", "2", "--burn-in", "3", *SMALL],
        "5be7d3bfd10c6c3ebbe6a7cd5964f70c3ba3a683b72e38abda5ed5452d919870"),
    "diffusion-si": (
        ["diffusion", "--process", "si", "--model", "range", "--r", "2", "--steps", "30",
         "--rounds", "3", *SMALL],
        "6ae2719e9f1ec6ce31b8a0a65b37e25e8cc052e97737958bd64093308cc83fdc"),
    "diffusion-complex": (
        ["diffusion", "--process", "complex", "--model", "range", "--r", "2", "--steps", "30",
         "--rounds", "3", *SMALL],
        "33f9a87fef2f6cf3d3cccba47dbcf8b8e73c8c286b7292aca3f4e5315905f3e8"),
    "diffusion-cultural": (
        ["diffusion", "--process", "cultural", "--model", "range", "--r", "2", "--steps", "30",
         "--rounds", "3", *SMALL],
        "e4943b7b091b6607b5b28aa4817f3246c3b9c286e2571236e5049839745e7574"),
    "diffusion-potion": (
        ["diffusion", "--process", "potion", "--model", "range", "--r", "2", "--steps", "30",
         "--rounds", "3", *SMALL],
        "cf463fce683c2950db5f1cdb562c158f095d9f38d5d9bf812bae31db50aeb320"),
    # mean degree ~1.2: long shortest paths, many small components
    "run-n130-sparse": (
        ["run", "--model", "range", "--n", "130", "--g", "20", "--r", "1", "--steps", "4",
         "--seed", "3", "--no-small-world"],
        "be7093d42800803928f95ba8877510f7ec3281311397047c1c651259f206c1c4"),
    # mean degree ~13, small-world references included
    "run-n130-dense": (
        ["run", "--model", "null", "--n", "130", "--g", "20", "--p-connect", "0.1",
         "--steps", "4", "--seed", "3", "--n-ref", "3"],
        "ff7b5f9a4edb6ab5efadec0d1abeecd0c1607dfcb6d033ac8bdf0b74d08022dc"),
    "run-range-45": (
        ["run", "--model", "range", "--r", "3", "--steps", "45", *SMALL],
        "d3c55c6dea560948bf5485e6e8310c20be0dfc3cc4c0de341d2b8cb044471154"),
    "run-null-45": (
        ["run", "--model", "null", "--p-connect", "0.3", "--steps", "45", *SMALL],
        "ea0b50eae818686f15e91f3a4fee186c6f5d9fd5e3835702180b67b3301a74f4"),
    # 170 steps cross the 163-graph metric stack at N = 20
    "run-range-170": (
        ["run", "--model", "range", "--r", "3", "--steps", "170", *SMALL],
        "c77dfd46f480e137ac59ef3fcd1b454e86abf089567ae9dae60f0fe750d08a74"),
    "run-null-170": (
        ["run", "--model", "null", "--p-connect", "0.3", "--steps", "170", *SMALL],
        "c95b1eb74eccac19ca934310f7d3b858fcb9087954e1149e7bb8354f59bf7bf5"),
    "diffusion-potion-null": (
        ["diffusion", "--process", "potion", "--model", "null", "--p-connect", "0.15", *MID],
        "dd5bd43e12425996839113ce4460146085fd282f219a2a7bbf7c365b48bcc094"),
    "diffusion-cultural-null": (
        ["diffusion", "--process", "cultural", "--model", "null", "--p-connect", "0.1", *MID],
        "69ba8f9dddd21c84d705efaeed908d523869777ffa971554c4c3a752f412f918"),
    "diffusion-potion-recipes": (
        ["diffusion", "--process", "potion", "--model", "range", "--r", "2",
         "--recipes", FRACTIONAL_RECIPES, *MID],
        "ead706fd2ee0dea824c86bd9fd4f9616b110df0a1389ac28272a0b58a35fd3af"),
    "sweep-vary-g": (
        ["sweep", "--model", "both", "--vary", "g", "--values", "3,4,6,10", "--n", "9",
         "--r", "3", "--steps", "8", "--rounds", "2", "--seed", "3", "--n-ref", "3"],
        "3f31ea590258f94d2dc5da94959ae52caf98a09f2f5898f92a20793a76c0a72b"),
    "sweep-vary-n": (
        ["sweep", "--model", "both", "--vary", "n", "--values", "5,10,20", "--r", "2",
         "--steps", "8", "--rounds", "2", *SMALL],
        "5c8486bccb830f02a51bd8fbf7dbd48affc384548298581f945374b2da8663fc"),
    "sweep-vary-p": (
        ["sweep", "--model", "both", "--vary", "p", "--values", "0:0.3:0.1", "--steps", "8",
         "--rounds", "2", *SMALL],
        "dd295f3761659c3bb4522aaf6bb75fc7b3a14d60fa7e32cb5291bbfaa0681d44"),
    "sweep-null-nosw": (
        ["sweep", "--model", "null", "--vary", "n", "--values", "2,10,40", "--p-connect", "0.2",
         "--steps", "8", "--rounds", "2", "--no-small-world", *SMALL],
        "bfd962aaecd4ffdae0a1bd96b99c19a71cb5e260b48e232f48ea92bbe4d39d80"),
}
# a worker pool must reproduce the serial bytes: one process beside the
# caller, and two (one for run-range, whose two rounds cap the pool)
for _name in ("run-range", "diffusion-si", "sweep-paired"):
    _argv, _digest = CASES[_name]
    for _workers in ("2", "3"):
        CASES[f"{_name}-workers{_workers}"] = ([*_argv, "--workers", _workers], _digest)


@pytest.mark.parametrize("name", list(CASES))
def test_output_bytes_unchanged(name, tmp_path):
    argv, expected = CASES[name]
    out = tmp_path / f"{name}.csv"
    assert main([*argv, "--out", str(out)]) == 0
    assert hashlib.sha256(out.read_bytes()).hexdigest() == expected
