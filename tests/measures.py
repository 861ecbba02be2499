"""One-snapshot views of the package's measures, for tests.

The package measures graphs only through `metrics.metrics_rows`, a chunk
of snapshots at a time. These helpers call it on a single snapshot, so
tests can name one measure at a time; `sample_gnm`, `run_sweep` and
`round_metrics` wrap the reference sampler, the sweep iterator and a
round's metric chunks the same way, and `run_model` runs the model to
its end, calling observers on each snapshot. Unlike `oracles`,
everything here is the package's own code.
"""

from __future__ import annotations

import numpy as np

from rangesim.harness import MetricsOptions, iter_model, iter_sweep, round_rows
from rangesim.metrics import DEFAULT_N_REF, NetworkSnapshot, _draw_gnm, metrics_rows


def metrics_snapshot(snap, rng, timestep=0, n_ref=DEFAULT_N_REF, small_world=True):
    """All six measures of one snapshot; draws as `metrics_rows` does."""
    return metrics_rows([snap], [timestep], rng, n_ref=n_ref, small_world=small_world)[0]


def _row(snap):
    return metrics_snapshot(snap, None, small_world=False)  # draws nothing


def average_degree(snap):
    return _row(snap).avg_degree


def average_clustering(snap):
    return _row(snap).clustering


def average_shortest_path_length(snap):
    return _row(snap).aspl


def components(snap):
    """(number of connected components, size of the largest one)."""
    row = _row(snap)
    return row.n_components, row.largest_component


def small_world_index(snap, rng, n_ref=DEFAULT_N_REF):
    return metrics_snapshot(snap, rng, n_ref=n_ref).small_world


def sample_gnm(n, m, rng):
    """One reference graph: a uniform simple graph with n nodes and m edges."""
    if m > n * (n - 1) // 2:
        raise ValueError(f"cannot place {m} edges on {n} nodes")
    row = np.zeros(n * n, dtype=bool)
    _draw_gnm(row, n, m, rng)
    upper = row.reshape(n, n)
    return NetworkSnapshot(upper | upper.T)


def run_sweep(sweep, workers=1):
    return list(iter_sweep(sweep, workers=workers))


def round_metrics(config, round_idx, metrics=MetricsOptions()):
    """One round's metric rows: `round_rows`' chunks joined."""
    return [row for chunk in round_rows(config, round_idx, metrics) for row in chunk]


def run_model(config, rng, observers=()):
    """Run `iter_model` to its end, calling each observer in order with
    (timestep, snapshot) after each step; timesteps count from 1."""
    for t, snap in enumerate(iter_model(config, rng), start=1):
        for obs in observers:
            obs(t, snap)
