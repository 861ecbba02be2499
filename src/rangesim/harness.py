"""Experiment driver: rounds, parameter sweeps, aggregation, CSV output.

A round is one independent trajectory with its own RNG streams derived
from (seed, round index), so rounds may run across a worker pool and
still aggregate to byte-identical output.
"""

from __future__ import annotations

import math
import sys
from concurrent.futures import ProcessPoolExecutor
from dataclasses import dataclass, replace
from typing import Iterable, Iterator, Sequence

from .core import (
    STREAM_DIFFUSION,
    STREAM_METRICS,
    STREAM_MODEL,
    ConfigError,
    ModelKind,
    SimConfig,
    make_rng,
)
from .diffusion import DiffusionTrajectory, ProcessConfig, make_observer, padded_frequencies
from .metrics import DEFAULT_N_REF, METRIC_NAMES, MetricsRow, metrics_snapshot
from .null_model import run_null
from .range_model import run_range


@dataclass(frozen=True)
class MetricsOptions:
    """What the per-step metrics collector computes."""

    n_ref: int = DEFAULT_N_REF
    small_world: bool = True

    def __post_init__(self) -> None:
        if self.n_ref < 1:
            raise ConfigError(f"n_ref must be at least 1, got {self.n_ref}")


class MetricsCollector:
    """Observer that turns each snapshot into a MetricsRow."""

    def __init__(self, rng, options: MetricsOptions = MetricsOptions()):
        self.rng = rng
        self.options = options
        self.rows: list[MetricsRow] = []

    def __call__(self, t: int, snap) -> None:
        self.rows.append(metrics_snapshot(
            snap, self.rng, timestep=t,
            n_ref=self.options.n_ref, small_world=self.options.small_world,
        ))


def _run_model(config: SimConfig, rng, observers, collect=False):
    runner = run_range if config.model is ModelKind.RANGE else run_null
    return runner(config, rng, observers, collect=collect)


def run_round(config: SimConfig, round_idx: int,
              diffusion: ProcessConfig | None = None,
              metrics: MetricsOptions | None = MetricsOptions(),
              ) -> tuple[list[MetricsRow], DiffusionTrajectory | None]:
    """One full trajectory: per-timestep metric rows plus an optional
    diffusion trajectory.

    Pass metrics=None to skip measurement entirely (diffusion-only runs,
    which then stop as soon as the process is absorbed).
    """
    observers = []
    collector = None
    if metrics is not None:
        collector = MetricsCollector(make_rng(config.seed, round_idx, STREAM_METRICS), metrics)
        observers.append(collector)
    diff_obs = None
    if diffusion is not None:
        diff_obs = make_observer(diffusion, config.n,
                                 make_rng(config.seed, round_idx, STREAM_DIFFUSION))
        observers.append(diff_obs)
    _run_model(config, make_rng(config.seed, round_idx, STREAM_MODEL), observers)
    trajectory = None
    if diff_obs is not None:
        trajectory = diff_obs.trajectory
        trajectory.frequencies = padded_frequencies(trajectory, config.steps)
    return (collector.rows if collector else []), trajectory


@dataclass(frozen=True)
class MetricAggregate:
    """Cross-round statistics of one metric's round time-averages."""

    mean: float | None
    std: float | None
    band: float | None
    defined_count: int


def aggregate_rounds(round_averages: Sequence[float | None]) -> MetricAggregate:
    """Mean, population standard deviation, and 1.5-sigma band across rounds.

    Undefined round averages (None) are excluded; with no defined values
    the aggregate itself is missing, with a zero count.
    """
    defined = [v for v in round_averages if v is not None]
    if not defined:
        return MetricAggregate(None, None, None, 0)
    mean = sum(defined) / len(defined)
    var = sum((v - mean) ** 2 for v in defined) / len(defined)
    std = math.sqrt(var)
    return MetricAggregate(mean, std, 1.5 * std, len(defined))


DIFFUSION_STAT_NAMES = ("fixation_time", "crossover_time")


@dataclass(frozen=True)
class AggregateRow:
    """One sweep point for one model: per-metric cross-round aggregates."""

    model: ModelKind
    config: SimConfig
    param_name: str
    param_value: float
    rounds: int
    metrics: dict[str, MetricAggregate]


@dataclass(frozen=True)
class SweepConfig:
    """One-parameter sweep following the two-model comparison protocol.

    `vary` is one of "r", "n", "g", "p_connect". With paired=True every
    value runs both models, the null model taking p_connect = r/g so its
    connection probability mirrors the range model's.
    """

    base: SimConfig
    vary: str
    values: tuple[float, ...]
    paired: bool = False
    diffusion: ProcessConfig | None = None
    metrics: MetricsOptions = MetricsOptions()
    burn_in: int = 0

    def __post_init__(self) -> None:
        if self.vary not in ("r", "n", "g", "p_connect"):
            raise ConfigError(f"cannot vary {self.vary!r}")
        if not self.values:
            raise ConfigError("sweep needs at least one value")
        if not 0 <= self.burn_in < max(self.base.steps, 1):
            raise ConfigError(f"burn-in must be below steps={self.base.steps}")
        for v in self.values:
            if self.vary == "r" and not 0 <= v <= self.base.g:
                raise ConfigError(f"swept r must lie in [0, g], got {v}")
            if self.vary == "p_connect" and not 0 <= v <= 1:
                raise ConfigError(f"swept p_connect must lie in [0, 1], got {v}")
            if self.vary == "n" and (v != int(v) or not 1 <= v <= self.base.g ** 2):
                raise ConfigError(f"swept N must be an integer in [1, g*g], got {v}")
            if self.vary == "g" and (v != int(v) or v < 1):
                raise ConfigError(f"swept g must be a positive integer, got {v}")

    def models(self) -> tuple[ModelKind, ...]:
        if self.paired:
            return (ModelKind.RANGE, ModelKind.NULL)
        return (self.base.model,)

    def resolve(self, model: ModelKind, value: float) -> SimConfig:
        """Concrete SimConfig for one (model, swept value) cell."""
        changes: dict = {"model": model}
        if model is ModelKind.RANGE:
            changes["p_connect"] = None
            if self.vary == "r":
                changes["r"] = float(value)
            elif self.vary == "p_connect":
                changes["r"] = float(value) * self.base.g
            else:
                changes[self.vary] = int(value)
        else:
            changes["r"] = None
            if self.vary == "p_connect":
                changes["p_connect"] = float(value)
            elif self.vary == "r":
                changes["p_connect"] = float(value) / self.base.g
            else:
                changes[self.vary] = int(value)
                if self.base.p_connect is not None:
                    changes["p_connect"] = self.base.p_connect
                elif self.base.r is not None:
                    # p_connect = r/g mirrors the range model's connection chance
                    g = int(value) if self.vary == "g" else self.base.g
                    changes["p_connect"] = self.base.r / g
                else:
                    raise ConfigError("paired sweep needs r or p_connect on the base config")
        return replace(self.base, **changes)

    def param_label(self, model: ModelKind) -> str:
        if self.vary in ("r", "p_connect"):
            return "r" if model is ModelKind.RANGE else "p_connect"
        return self.vary

    def param_value_for(self, model: ModelKind, value: float) -> float:
        cfg = self.resolve(model, value)
        if self.vary in ("r", "p_connect"):
            return cfg.r if model is ModelKind.RANGE else cfg.p_connect
        return value


def _round_averages(config: SimConfig, round_idx: int, metrics: MetricsOptions,
                    burn_in: int, diffusion: ProcessConfig | None) -> dict[str, float | None]:
    """Worker body: time-averages of one round's metric trajectory."""
    rows, traj = run_round(config, round_idx, diffusion=diffusion, metrics=metrics)
    kept = rows[burn_in:]
    out: dict[str, float | None] = {}
    for name in METRIC_NAMES:
        values = [getattr(row, name) for row in kept]
        defined = [v for v in values if v is not None]
        out[name] = sum(defined) / len(defined) if defined else None
    if traj is not None:
        out["fixation_time"] = (
            float(traj.fixation_time) if traj.fixation_time is not None else None)
        out["crossover_time"] = (
            float(traj.crossover_time) if traj.crossover_time is not None else None)
    return out


def _sweep_task(args) -> dict[str, float | None]:
    return _round_averages(*args)


def iter_sweep(sweep: SweepConfig, workers: int = 1) -> Iterator[AggregateRow]:
    """Yield one AggregateRow per (value, model) cell, in sweep order.

    Cells and rounds are deterministic regardless of scheduling: round
    results are reduced in round-index order.
    """
    cells = [(value, model) for value in sweep.values for model in sweep.models()]
    tasks = [(sweep.resolve(model, value), round_idx, sweep.metrics, sweep.burn_in,
              sweep.diffusion)
             for value, model in cells
             for round_idx in range(sweep.base.rounds)]
    if workers > 1:
        with ProcessPoolExecutor(max_workers=workers) as pool:
            results = list(pool.map(_sweep_task, tasks, chunksize=8))
    else:
        results = [_sweep_task(task) for task in tasks]
    stat_names = METRIC_NAMES + (DIFFUSION_STAT_NAMES if sweep.diffusion else ())
    rounds = sweep.base.rounds
    for idx, (value, model) in enumerate(cells):
        cell_results = results[idx * rounds:(idx + 1) * rounds]
        aggregates = {name: aggregate_rounds([res[name] for res in cell_results])
                      for name in stat_names}
        yield AggregateRow(
            model=model,
            config=sweep.resolve(model, value),
            param_name=sweep.param_label(model),
            param_value=sweep.param_value_for(model, value),
            rounds=rounds,
            metrics=aggregates,
        )


def run_sweep(sweep: SweepConfig, workers: int = 1) -> list[AggregateRow]:
    return list(iter_sweep(sweep, workers=workers))


def run_diffusion_rounds(config: SimConfig, process: ProcessConfig,
                         workers: int = 1) -> list[DiffusionTrajectory]:
    """All rounds of one diffusion experiment, without metric collection."""
    tasks = [(config, round_idx, process) for round_idx in range(config.rounds)]
    if workers > 1:
        with ProcessPoolExecutor(max_workers=workers) as pool:
            return list(pool.map(_diffusion_task, tasks, chunksize=4))
    return [_diffusion_task(task) for task in tasks]


def _diffusion_task(args) -> DiffusionTrajectory:
    config, round_idx, process = args
    _, traj = run_round(config, round_idx, diffusion=process, metrics=None)
    return traj


def _fmt(value) -> str:
    """CSV field: empty for missing, 9 significant digits for floats."""
    if value is None:
        return ""
    if isinstance(value, bool):
        return str(int(value))
    if isinstance(value, (int,)):
        return str(value)
    if isinstance(value, float):
        return format(value, ".9g")
    return str(value)


def _open_out(path: str):
    if path == "-":
        return sys.stdout, False
    return open(path, "w", encoding="utf-8", newline=""), True


def write_csv(rows: Iterable[AggregateRow], path: str,
              diffusion: bool = False) -> int:
    """Write aggregate rows as tidy UTF-8 CSV; returns the row count.

    Rows are flushed as they arrive, so an interrupted sweep leaves the
    completed rows on disk.
    """
    stat_names = METRIC_NAMES + (DIFFUSION_STAT_NAMES if diffusion else ())
    header = ["model", "N", "g", "r", "p_connect", "param_name", "param_value", "rounds"]
    for name in stat_names:
        header += [f"{name}_mean", f"{name}_std", f"{name}_band", f"{name}_defined_count"]
    out, owned = _open_out(path)
    count = 0
    try:
        out.write(",".join(header) + "\n")
        for row in rows:
            cfg = row.config
            fields = [row.model.value, _fmt(cfg.n), _fmt(cfg.g), _fmt(cfg.r),
                      _fmt(cfg.p_connect), row.param_name, _fmt(row.param_value),
                      _fmt(row.rounds)]
            for name in stat_names:
                agg = row.metrics[name]
                fields += [_fmt(agg.mean), _fmt(agg.std), _fmt(agg.band),
                           _fmt(agg.defined_count)]
            out.write(",".join(fields) + "\n")
            out.flush()
            count += 1
    finally:
        if owned:
            out.close()
    return count


def write_timeseries_csv(config: SimConfig, path: str,
                         metrics: MetricsOptions = MetricsOptions(),
                         workers: int = 1) -> int:
    """Per-timestep dump: one line per (round, timestep); returns line count."""
    tasks = [(config, round_idx, metrics) for round_idx in range(config.rounds)]
    if workers > 1:
        with ProcessPoolExecutor(max_workers=workers) as pool:
            per_round = list(pool.map(_timeseries_task, tasks, chunksize=1))
    else:
        per_round = [_timeseries_task(task) for task in tasks]
    header = ["model", "N", "g", "r", "p_connect", "round", "timestep", *METRIC_NAMES]
    out, owned = _open_out(path)
    count = 0
    try:
        out.write(",".join(header) + "\n")
        prefix = [config.model.value, _fmt(config.n), _fmt(config.g),
                  _fmt(config.r), _fmt(config.p_connect)]
        for round_idx, rows in enumerate(per_round):
            for row in rows:
                fields = prefix + [str(round_idx), str(row.timestep)]
                fields += [_fmt(getattr(row, name)) for name in METRIC_NAMES]
                out.write(",".join(fields) + "\n")
            out.flush()
            count += len(rows)
    finally:
        if owned:
            out.close()
    return count


def _timeseries_task(args) -> list[MetricsRow]:
    config, round_idx, metrics = args
    rows, _ = run_round(config, round_idx, metrics=metrics)
    return rows


def write_trajectories_csv(trajectories: Sequence[DiffusionTrajectory],
                           path: str) -> int:
    """Diffusion trajectory dump: one line per (round, timestep)."""
    header = ["round", "timestep", "frequency", "fixation_time", "crossover_time"]
    out, owned = _open_out(path)
    count = 0
    try:
        out.write(",".join(header) + "\n")
        for round_idx, traj in enumerate(trajectories):
            for t, freq in enumerate(traj.frequencies, start=1):
                fields = [str(round_idx), str(t), _fmt(freq),
                          _fmt(traj.fixation_time), _fmt(traj.crossover_time)]
                out.write(",".join(fields) + "\n")
            out.flush()
            count += len(traj.frequencies)
    finally:
        if owned:
            out.close()
    return count
