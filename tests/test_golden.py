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
one with small-world references) and two 45-step N = 20 runs, whose
snapshots span more than one metric chunk. The 45-step hashes were
recorded from the code that measured each snapshot on its own.

The N = 20 potion case never creates the crossover item, so its rows are
all zeros. The three N = 40 diffusion cases (potion and cultural on the
null model, potion on `recipes_fractional.json`, whose scores are not
integers) reach crossover or fixation; they were recorded from the code
that held inventories as sets of item names.
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
    # 45 steps cross the 40-graph metric chunk at N = 20
    "run-range-45": (
        ["run", "--model", "range", "--r", "3", "--steps", "45", *SMALL],
        "d3c55c6dea560948bf5485e6e8310c20be0dfc3cc4c0de341d2b8cb044471154"),
    "run-null-45": (
        ["run", "--model", "null", "--p-connect", "0.3", "--steps", "45", *SMALL],
        "ea0b50eae818686f15e91f3a4fee186c6f5d9fd5e3835702180b67b3301a74f4"),
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
}
# a worker pool must reproduce the serial bytes
for _name in ("run-range", "diffusion-si"):
    _argv, _digest = CASES[_name]
    CASES[f"{_name}-workers2"] = ([*_argv, "--workers", "2"], _digest)


@pytest.mark.parametrize("name", list(CASES))
def test_output_bytes_unchanged(name, tmp_path):
    argv, expected = CASES[name]
    out = tmp_path / f"{name}.csv"
    assert main([*argv, "--out", str(out)]) == 0
    assert hashlib.sha256(out.read_bytes()).hexdigest() == expected
