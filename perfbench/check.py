"""Output checks for the rangesim benchmark.

Each checker takes the CSV text a command wrote and the command's
parameters, and returns a list of problems (empty when the output is
correct). They test structure and invariants that hold for every seed,
so seed-derived inputs are checked as well as the hash-locked ones.
"""

from __future__ import annotations

import math

METRIC_NAMES = ("avg_degree", "clustering", "aspl", "n_components",
                "largest_component", "small_world")
SWEEP_HEADER = (["model", "N", "g", "r", "p_connect", "param_name", "param_value", "rounds"]
                + [f"{m}_{s}" for m in METRIC_NAMES for s in ("mean", "std", "band", "defined_count")])
RUN_HEADER = ["model", "N", "g", "r", "p_connect", "round", "timestep", *METRIC_NAMES]
DIFFUSION_HEADER = ["round", "timestep", "frequency", "fixation_time", "crossover_time"]
MAX_PROBLEMS = 5


def _table(text: str, header: list[str]) -> tuple[list[list[str]], list[str]]:
    lines = text.split("\n")
    if not text.endswith("\n"):
        return [], ["output does not end with a newline"]
    lines.pop()
    if not lines or lines[0].split(",") != header:
        return [], ["unexpected header"]
    rows = [line.split(",") for line in lines[1:]]
    if any(len(row) != len(header) for row in rows):
        return [], ["row with the wrong number of fields"]
    return rows, []


def _num(field: str) -> float | None:
    return None if field == "" else float(field)


def _close(a: float, b: float) -> bool:
    return math.isclose(a, b, rel_tol=1e-7, abs_tol=1e-9)


def check_sweep(text: str, n: int, g: int, values: list[float], rounds: int) -> list[str]:
    """Paired sweep over r: one range row then one null row per value."""
    rows, problems = _table(text, SWEEP_HEADER)
    if problems:
        return problems
    if len(rows) != 2 * len(values):
        return [f"{len(rows)} rows, expected {2 * len(values)}"]
    bounds = {"avg_degree": (0, n - 1), "clustering": (0, 1), "aspl": (0, n - 1),
              "n_components": (1, n), "largest_component": (1, n),
              "small_world": (0, math.inf)}
    for idx, row in enumerate(rows):
        r = values[idx // 2]
        model = "range" if idx % 2 == 0 else "null"
        param = r if model == "range" else r / g
        where = f"row {idx + 1}"
        if (row[0], row[1], row[2], row[7]) != (model, str(n), str(g), str(rounds)):
            problems.append(f"{where}: wrong model, N, g or rounds")
        if not _close(_num(row[6]), param) or row[5] != ("r" if model == "range" else "p_connect"):
            problems.append(f"{where}: wrong swept parameter")
        for k, name in enumerate(METRIC_NAMES):
            mean, std, band, count = row[8 + 4 * k: 12 + 4 * k]
            count = int(count)
            if name != "small_world" and count != rounds:
                problems.append(f"{where}: {name} defined in {count} of {rounds} rounds")
            if not 0 <= count <= rounds or (count == 0) != (mean == ""):
                problems.append(f"{where}: {name} defined count {count} disagrees with mean")
                continue
            if count:
                lo, hi = bounds[name]
                if not lo <= float(mean) <= hi or float(std) < 0:
                    problems.append(f"{where}: {name} mean {mean} or std {std} out of range")
                if not _close(float(band), 1.5 * float(std)):
                    problems.append(f"{where}: {name} band is not 1.5 std")
        if r == 0 and (row[8] != "0" or row[20] != str(n)):
            problems.append(f"{where}: r=0 must give an edgeless graph")
    return problems[:MAX_PROBLEMS]


def check_run(text: str, model: str, n: int, g: int, r: str, p: str,
              steps: int, rounds: int) -> list[str]:
    """Per-timestep dump without the small-world column."""
    rows, problems = _table(text, RUN_HEADER)
    if problems:
        return problems
    if len(rows) != steps * rounds:
        return [f"{len(rows)} rows, expected {steps * rounds}"]
    prefix = [model, str(n), str(g), r, p]
    for idx, row in enumerate(rows):
        where = f"row {idx + 1}"
        if row[:5] != prefix or row[5:7] != [str(idx // steps), str(idx % steps + 1)]:
            problems.append(f"{where}: wrong configuration or (round, timestep)")
        degree, clustering, aspl = float(row[7]), float(row[8]), float(row[9])
        count, largest = int(row[10]), int(row[11])
        twice_edges = degree * n
        if abs(twice_edges - round(twice_edges)) > 1e-6 or round(twice_edges) % 2:
            problems.append(f"{where}: average degree {row[7]} is not 2m/N")
        if not 0 <= clustering <= 1 or aspl < 0:
            problems.append(f"{where}: clustering or path length out of range")
        # every component holds at least one node and at most `largest`
        if not (1 <= largest <= n and count + largest - 1 <= n and count * largest >= n):
            problems.append(f"{where}: {count} components with largest {largest}")
        if degree == 0 and (count != n or aspl != 0):
            problems.append(f"{where}: an edgeless graph must have N components")
        if row[12] != "":
            problems.append(f"{where}: small-world column must be empty")
    return problems[:MAX_PROBLEMS]


def check_diffusion(text: str, process: str, steps: int, rounds: int) -> list[str]:
    """Trajectory dump: per-round event times agree with the frequencies."""
    rows, problems = _table(text, DIFFUSION_HEADER)
    if problems:
        return problems
    if len(rows) != steps * rounds:
        return [f"{len(rows)} rows, expected {steps * rounds}"]
    for rnd in range(rounds):
        block = rows[rnd * steps:(rnd + 1) * steps]
        where = f"round {rnd}"
        if [row[:2] for row in block] != [[str(rnd), str(t)] for t in range(1, steps + 1)]:
            problems.append(f"{where}: wrong (round, timestep) sequence")
            continue
        if len({(row[3], row[4]) for row in block}) != 1:
            problems.append(f"{where}: event times change within the round")
        freqs = [float(row[2]) for row in block]
        fixation, crossover = _num(block[0][3]), _num(block[0][4])
        if process == "cultural":
            lo, absorbed = -1.0, [t for t, f in enumerate(freqs, 1) if abs(f) == 1.0]
        else:
            lo, absorbed = 0.0, [t for t, f in enumerate(freqs, 1) if f == 1.0]
        if not all(lo <= f <= 1.0 for f in freqs):
            problems.append(f"{where}: frequency out of range")
        if process in ("si", "complex", "potion") and freqs != sorted(freqs):
            problems.append(f"{where}: frequency decreased")
        if process == "potion":
            first_holder = next((t for t, f in enumerate(freqs, 1) if f > 0), None)
            if fixation is not None or crossover != first_holder:
                problems.append(f"{where}: crossover time disagrees with the holders")
        else:
            if crossover is not None or fixation != (absorbed[0] if absorbed else None):
                problems.append(f"{where}: fixation time disagrees with the frequencies")
            if absorbed and len(set(freqs[absorbed[0] - 1:])) != 1:
                problems.append(f"{where}: frequency moved after fixation")
    return problems[:MAX_PROBLEMS]
