"""Experiment driver: rounds, parameter sweeps, aggregation, CSV output.

A round is one independent trajectory with its own RNG streams derived
from (seed, round index), so rounds may run across a worker pool and
still aggregate to byte-identical output. `iter_model` yields a round's
snapshots, and each output has one driver over them, whose result is
built once and passed unchanged from a pool process to the CSV writer:
`_round_averages` gives a sweep a `MetricsRow` of the round's means,
`round_rows` gives `run` the round's rows, and `diffusion_round` gives
`diffusion` the round's `DiffusionTrajectory`.

One setting says what is measured: `n_ref`, the reference graphs per
small-world index, or None for no index and no reference draws. Rows
carry no timestep; the writer numbers each round's rows from 1. A
`SweepConfig` resolves each of its (value, model) cells once, when it
is made, into the config, parameter name and value its CSV row shows.
"""

from __future__ import annotations

import math
import sys
from concurrent.futures import ProcessPoolExecutor
from dataclasses import dataclass, field, replace
from itertools import chain, islice, starmap
from typing import Callable, Iterable, Iterator, NamedTuple, Sequence

import numpy as np

from .core import (
    STREAM_DIFFUSION,
    STREAM_METRICS,
    STREAM_MODEL,
    ConfigError,
    ModelKind,
    SimConfig,
    make_rng,
)
from .diffusion import DiffusionTrajectory, ProcessConfig, check_population, run_process
from .metrics import DEFAULT_N_REF, METRIC_NAMES, MetricsRow, metric_rows
from .null_model import null_snapshots
from .range_model import range_snapshots


def iter_model(config: SimConfig, rng) -> Iterator[np.ndarray]:
    """The configured model's snapshot after each of its `config.steps`
    timesteps, lazily: nothing runs until the first snapshot is asked
    for, and the model stops when its caller does.
    """
    model = range_snapshots if config.model is ModelKind.RANGE else null_snapshots
    return islice(model(config, rng), config.steps)


def round_rows(config: SimConfig, round_idx: int,
               n_ref: int | None = DEFAULT_N_REF) -> Iterator[MetricsRow]:
    """One round's metric rows, lazily, as `metric_rows` yields them."""
    return metric_rows(iter_model(config, make_rng(config.seed, round_idx, STREAM_MODEL)),
                       make_rng(config.seed, round_idx, STREAM_METRICS), n_ref)


def diffusion_round(config: SimConfig, round_idx: int,
                    process: ProcessConfig) -> DiffusionTrajectory:
    """One round's diffusion trajectory, padded to `config.steps` entries:
    `run_process` on the round's snapshots, so the model takes no
    further step once the process fixes."""
    snaps = iter_model(config, make_rng(config.seed, round_idx, STREAM_MODEL))
    return run_process(process, snaps, config.n, config.steps,
                       make_rng(config.seed, round_idx, STREAM_DIFFUSION))


class MetricAggregate(NamedTuple):
    """Cross-round statistics of one metric's round time-averages."""

    mean: float | None
    std: float | None
    band: float | None
    defined_count: int


def _defined_mean(values: Iterable[float | None]) -> tuple[list[float], float | None]:
    """The values that are not None, and their mean, None if there are none."""
    defined = [v for v in values if v is not None]
    return defined, sum(defined) / len(defined) if defined else None


def aggregate_rounds(round_averages: Sequence[float | None]) -> MetricAggregate:
    """Mean, population standard deviation, and 1.5-sigma band across rounds.

    Undefined round averages (None) are excluded; with no defined values
    the aggregate itself is missing, with a zero count.
    """
    defined, mean = _defined_mean(round_averages)
    if mean is None:
        return MetricAggregate(None, None, None, 0)
    std = math.sqrt(sum((v - mean) ** 2 for v in defined) / len(defined))
    return MetricAggregate(mean, std, 1.5 * std, len(defined))


class AggregateRow(NamedTuple):
    """One sweep cell: its config, swept parameter and metric aggregates."""

    config: SimConfig
    param_name: str
    param_value: float
    metrics: MetricsRow


@dataclass(frozen=True)
class SweepConfig:
    """One-parameter sweep following the two-model comparison protocol.

    `vary` is one of "r", "n", "g", "p_connect". With paired=True every
    value runs both models, the null model taking p_connect = r/g so its
    connection probability mirrors the range model's. `n_ref` is as for
    `round_rows`. `cells` holds the (config, param_name, param_value) of
    each (value, model) cell, in sweep order. Each is a SimConfig, checked
    as `run` checks one; the first that fails names its swept value, when
    the sweep is made, so that it fails before it writes anything.
    """

    base: SimConfig
    vary: str
    values: tuple[float, ...]
    paired: bool = False
    n_ref: int | None = DEFAULT_N_REF
    burn_in: int = 0
    cells: list[tuple[SimConfig, str, float]] = field(init=False, repr=False, compare=False)

    def __post_init__(self) -> None:
        if self.vary not in ("r", "n", "g", "p_connect"):
            raise ConfigError(f"cannot vary {self.vary!r}")
        if not self.values:
            raise ConfigError("sweep needs at least one value")
        if not 0 <= self.burn_in < max(self.base.steps, 1):
            raise ConfigError(f"burn-in must lie in [0, steps) for steps={self.base.steps}, "
                              f"got {self.burn_in}")
        models = (ModelKind.RANGE, ModelKind.NULL) if self.paired else (self.base.model,)
        object.__setattr__(self, "cells", [self._resolve(model, value)
                                           for value in self.values for model in models])

    def _resolve(self, model: ModelKind, value: float) -> tuple[SimConfig, str, float]:
        """One cell's concrete SimConfig, and the name and value of the
        parameter its model varies: r or p_connect as the model has it
        when `vary` is either, else the swept value itself. A swept n or
        g must be a whole number, which `int` alone would not check."""
        changes: dict = {"model": model}
        if self.vary in ("n", "g"):
            if not (math.isfinite(value) and value == int(value)):
                raise ConfigError(f"swept {self.vary} must be an integer, got {value}")
            changes[self.vary] = int(value)
        if model is ModelKind.RANGE:
            changes["p_connect"] = None
            if self.vary == "r":
                changes["r"] = float(value)
            elif self.vary == "p_connect":
                changes["r"] = float(value) * self.base.g
        else:
            changes["r"] = None
            if self.vary == "p_connect":
                changes["p_connect"] = float(value)
            elif self.vary == "r":
                changes["p_connect"] = float(value) / self.base.g
            elif self.base.p_connect is None:
                # p_connect = r/g mirrors the range model's connection chance
                changes["p_connect"] = self.base.r / changes.get("g", self.base.g)
        try:
            config = replace(self.base, **changes)
        except ConfigError as exc:
            raise ConfigError(f"swept {self.vary} = {value}: {exc}") from None
        if self.vary in ("r", "p_connect"):
            name = "r" if model is ModelKind.RANGE else "p_connect"
            return config, name, getattr(config, name)
        return config, self.vary, value


def _pool_task(fn: Callable, *args):
    """`fn(*args)` as a pool task, in a pool worker or in the caller that
    took it from the pool. An iterator result (`round_rows`' rows) is
    collected into a list, so that it can be sent back whole."""
    result = fn(*args)
    return list(result) if isinstance(result, Iterator) else result


def _map_rounds(fn: Callable, workers: int, tasks: list[tuple]) -> Iterator:
    """`starmap(fn, tasks)` on `workers` processes, the caller included.

    A pool of min(workers, tasks) - 1 processes takes every task but the
    first, which the caller runs at once. Tasks are handed to the pool
    lazily, 2 * workers past the later of the next result in input order
    and the caller's frontier. While that result is not in, the caller
    runs the earliest task no pool process has taken, if any. Results
    come lazily and in input order, so each can be reduced or written
    once it and every earlier one are in. An exception, or a consumer
    that stops reading, cancels every task not yet started. An iterator
    result (`round_rows`' rows) of the first task, or of any serial one,
    is handed on unconsumed, so its items can be written as they are
    made; any other comes as a list.
    """
    workers = min(workers, len(tasks))
    if workers < 2:
        yield from starmap(fn, tasks)
        return
    first, *rest = tasks
    with ProcessPoolExecutor(max_workers=workers - 1) as pool:
        futures = {}  # handed to the pool and not yet yielded
        ahead = {}  # results of the tasks the caller took from the pool
        untried = 0  # every earlier task is taken, by the caller or the pool
        try:
            yield fn(*first)
            for i in range(len(rest)):
                untried = max(untried, i)
                for j in range(i + len(futures), min(untried + 2 * workers, len(rest))):
                    futures[j] = pool.submit(_pool_task, fn, *rest[j])
                while i not in ahead and not futures[i].done() and untried < i + len(futures):
                    # a future cancels only until a pool process takes it
                    if futures[untried].cancel():
                        ahead[untried] = _pool_task(fn, *rest[untried])
                    untried += 1
                future = futures.pop(i)
                yield ahead.pop(i) if i in ahead else future.result()
        finally:
            for future in futures.values():
                future.cancel()


def _round_averages(config: SimConfig, round_idx: int, n_ref: int | None,
                    burn_in: int) -> MetricsRow:
    """Worker body: time-averages of one round's metric trajectory."""
    kept = list(round_rows(config, round_idx, n_ref))[burn_in:]
    columns = zip(*kept) if kept else [()] * len(METRIC_NAMES)
    return MetricsRow._make(_defined_mean(column)[1] for column in columns)


def iter_sweep(sweep: SweepConfig, workers: int = 1) -> Iterator[AggregateRow]:
    """Yield one AggregateRow per (value, model) cell, in sweep order.

    Cells and rounds are deterministic regardless of scheduling: round
    results are reduced in round-index order, and each cell is yielded as
    soon as its own rounds and those of every earlier cell are in.
    """
    rounds = sweep.base.rounds
    results = _map_rounds(_round_averages, workers,
                          [(config, round_idx, sweep.n_ref, sweep.burn_in)
                           for config, _, _ in sweep.cells for round_idx in range(rounds)])
    for cell in sweep.cells:
        cell_rounds = list(islice(results, rounds))
        yield AggregateRow(*cell, MetricsRow._make(map(aggregate_rounds, zip(*cell_rounds))))


def run_diffusion_rounds(config: SimConfig, process: ProcessConfig,
                         workers: int = 1) -> Iterator[DiffusionTrajectory]:
    """Each round's trajectory of one diffusion experiment, lazily and in
    round order. The process is checked against the population before
    this returns, so a bad config raises ConfigError before any round runs.
    """
    check_population(process, config.n)
    return _map_rounds(diffusion_round, workers,
                       [(config, round_idx, process) for round_idx in range(config.rounds)])


def _fmt(value) -> str:
    """CSV field: empty for missing, 9 significant digits for floats."""
    if value is None:
        return ""
    if isinstance(value, float):
        return format(value, ".9g")
    return str(value)


def _config_fields(config: SimConfig | None = None) -> list[str]:
    """A metric CSV line's first columns: their names, or `config`'s values."""
    if config is None:
        return ["model", "N", "g", "r", "p_connect"]
    return [config.model.value, *map(_fmt, (config.n, config.g, config.r, config.p_connect))]


def _write_csv(path: str, header: Sequence[str],
               groups: Iterable[Iterable[Sequence[str]]]) -> int:
    """Write a header line, then each group of rows; returns the row count.

    Output is flushed after each group, so an interrupted run leaves every
    finished group on disk. `path` "-" writes to stdout, which stays open.
    """
    out = sys.stdout if path == "-" else open(path, "w", encoding="utf-8", newline="")
    count = 0
    try:
        out.write(",".join(header) + "\n")
        for group in groups:
            for fields in group:
                out.write(",".join(fields) + "\n")
                count += 1
            out.flush()
    finally:
        if out is not sys.stdout:
            out.close()
    return count


def _aggregate_fields(row: AggregateRow) -> list[str]:
    return [*_config_fields(row.config), row.param_name, _fmt(row.param_value),
            _fmt(row.config.rounds), *map(_fmt, chain.from_iterable(row.metrics))]


def write_csv(rows: Iterable[AggregateRow], path: str) -> int:
    """Write aggregate rows as tidy UTF-8 CSV, each flushed as it arrives,
    so that an interrupted sweep leaves the completed rows on disk;
    returns the row count."""
    header = [*_config_fields(), "param_name", "param_value", "rounds",
              *(f"{name}_{stat}" for name in METRIC_NAMES for stat in MetricAggregate._fields)]
    return _write_csv(path, header, ([_aggregate_fields(row)] for row in rows))


def write_timeseries_csv(config: SimConfig, path: str, n_ref: int | None = DEFAULT_N_REF,
                         workers: int = 1) -> int:
    """Per-timestep dump: one line per (round, timestep); returns line count.

    Each round's rows are numbered from 1, and each line is flushed as
    soon as it is written. A serial run writes a round's lines as soon
    as `metric_rows` has measured them, a stack at a time; a pooled run
    writes each round's lines as soon as it and every earlier round have
    finished.
    """
    header = [*_config_fields(), "round", "timestep", *METRIC_NAMES]
    prefix = _config_fields(config)
    rounds = _map_rounds(round_rows, workers,
                         [(config, round_idx, n_ref) for round_idx in range(config.rounds)])
    return _write_csv(path, header, (
        [[*prefix, str(round_idx), str(timestep), *map(_fmt, row)]]
        for round_idx, rows in enumerate(rounds)
        for timestep, row in enumerate(rows, start=1)))


def write_trajectories_csv(trajectories: Iterable[DiffusionTrajectory],
                           path: str) -> int:
    """Diffusion trajectory dump: one line per (round, timestep); returns
    the line count.

    Each round's lines are flushed as soon as its trajectory arrives.
    """
    header = ["round", "timestep", "frequency", "fixation_time", "crossover_time"]
    return _write_csv(path, header, (
        [[str(round_idx), str(t), _fmt(freq),
          _fmt(traj.fixation_time), _fmt(traj.crossover_time)]
         for t, freq in enumerate(traj.frequencies, start=1)]
        for round_idx, traj in enumerate(trajectories)))
