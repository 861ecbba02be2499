"""The benchmark's workloads: which `rangesim` commands each one runs.

Why each workload exists, and which per-layer metric should move which
end-to-end metric on it, is written down in README.md beside this file.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Callable

from check import check_diffusion, check_run, check_sweep

STEPS = 100


@dataclass(frozen=True)
class Command:
    """One CLI invocation, without its --rounds/--seed/--workers/--out flags."""

    label: str
    argv: tuple[str, ...]
    cells: int
    check: Callable[[str], list[str]]


@dataclass(frozen=True)
class Workload:
    name: str
    rounds: int
    workers: int
    commands: tuple[Command, ...]

    def argv(self, command: Command, seed: int, workers: int) -> list[str]:
        return [*command.argv, "--rounds", str(self.rounds), "--seed", str(seed),
                "--workers", str(workers), "--out", "-"]

    def nominal_steps(self, command: Command) -> int:
        """Model timesteps the command asks for, counting absorbed tails."""
        return command.cells * self.rounds * STEPS


def _paper_sw() -> Workload:
    values = [float(v) for v in range(11)]
    rounds = 1
    sweep = Command(
        label="paper-sw/sweep",
        argv=("sweep", "--model", "both", "--vary", "r", "--values", "0:10:1",
              "--n", "20", "--g", "10", "--steps", str(STEPS)),
        cells=2 * len(values),
        check=lambda text: check_sweep(text, n=20, g=10, values=values, rounds=rounds))
    return Workload("paper-sw", rounds=rounds, workers=2, commands=(sweep,))


def _large_nosw() -> Workload:
    rounds = 1
    common = ("run", "--n", "200", "--g", "20", "--steps", str(STEPS), "--no-small-world")
    commands = tuple(
        Command(label=f"large-nosw/{model}", argv=(*common, "--model", model, flag, value),
                cells=1,
                check=lambda text, m=model, r=r, p=p: check_run(
                    text, m, n=200, g=20, r=r, p=p, steps=STEPS, rounds=rounds))
        for model, flag, value, r, p in (("range", "--r", "3", "3", ""),
                                         ("null", "--p-connect", "0.15", "", "0.15")))
    return Workload("large-nosw", rounds=rounds, workers=1, commands=commands)


def _diffusion_mix() -> Workload:
    rounds = 5
    commands = tuple(
        Command(label=f"diffusion-mix/{process}-{model}",
                argv=("diffusion", "--process", process, "--model", model, flag, value,
                      "--n", "80", "--g", "10", "--steps", str(STEPS)),
                cells=1,
                check=lambda text, pr=process: check_diffusion(
                    text, pr, steps=STEPS, rounds=rounds))
        for process in ("si", "complex", "cultural", "potion")
        for model, flag, value in (("range", "--r", "2"), ("null", "--p-connect", "0.2")))
    return Workload("diffusion-mix", rounds=rounds, workers=1, commands=commands)


WORKLOADS = {w.name: w for w in (_paper_sw(), _large_nosw(), _diffusion_mix())}
