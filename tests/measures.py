"""One-snapshot views of the package's measures, for tests.

The package measures graphs only through `metrics.metric_rows`, which
yields one row per snapshot and measures a stack of snapshots at a
time. These helpers call it on a single snapshot, so tests can name one
measure at a time; `sample_gnm`, `run_sweep` and `round_metrics` wrap
the reference sampler, the sweep iterator and a round's metric rows the
same way, `run_model` runs the model to its end, calling observers on
each snapshot, and `patch_stack_size` sets the kernel's stack size.
Unlike `oracles`, everything here is the package's own code.
"""

from __future__ import annotations

from functools import lru_cache

from rangesim import metrics
from rangesim.harness import iter_model, iter_sweep, round_rows
from rangesim.metrics import DEFAULT_N_REF, _gnm_pairs, metric_rows, pair_adjacency


def metrics_snapshot(snap, rng, n_ref=DEFAULT_N_REF):
    """All six measures of one snapshot; draws as `metric_rows` does."""
    row, = metric_rows([snap], rng, n_ref)
    return row


def patch_stack_size(monkeypatch, n, size):
    """Stacks of `size` graphs of n nodes until `monkeypatch` is undone.

    `_dense_pass` needs buffers that fit the stack, and `_kernel_buffers`
    caches them per node count at the stack size it first sees; so the
    patch gets a cache of its own, and the one outside it keeps buffers
    of the real size.
    """
    monkeypatch.setattr(metrics, "_STACK_ELEMENTS", size * n * n)
    monkeypatch.setattr(metrics, "_kernel_buffers",
                        lru_cache(maxsize=8)(metrics._kernel_buffers.__wrapped__))
    assert metrics._stack_size(n) == size


def _row(snap):
    return metrics_snapshot(snap, None, n_ref=None)  # draws nothing


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
    return pair_adjacency(_gnm_pairs(n, [m], rng), n)[0]


def run_sweep(sweep, workers=1):
    return list(iter_sweep(sweep, workers=workers))


def round_metrics(config, round_idx, n_ref=DEFAULT_N_REF):
    """One round's metric rows: `round_rows` run to its end."""
    return list(round_rows(config, round_idx, n_ref))


def run_model(config, rng, observers=()):
    """Run `iter_model` to its end, calling each observer in order with
    (timestep, snapshot) after each step; timesteps count from 1."""
    for t, snap in enumerate(iter_model(config, rng), start=1):
        for obs in observers:
            obs(t, snap)
