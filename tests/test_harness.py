import csv
import dataclasses
import itertools
import math
import types

import numpy as np
import pytest

from rangesim import harness, metrics, null_model, range_model
from rangesim.cli import _process_config, build_parser, main, parse_values
from rangesim.core import STREAM_METRICS, STREAM_MODEL, ConfigError, ModelKind, SimConfig, make_rng
from rangesim.diffusion import (
    ComplexContagionConfig,
    CulturalConfig,
    PotionConfig,
    SIConfig,
    default_potion_config,
)
from rangesim.harness import (
    SweepConfig,
    aggregate_rounds,
    diffusion_round,
    iter_model,
    iter_sweep,
    run_diffusion_rounds,
    write_csv,
    write_timeseries_csv,
    write_trajectories_csv,
)
from rangesim.metrics import metric_rows

from measures import metrics_snapshot, patch_stack_size, round_metrics, run_model, run_sweep
from oracles import edge_count


def range_config(**kwargs):
    defaults = dict(model=ModelKind.RANGE, n=10, g=6, r=2.0, steps=10, rounds=4, seed=1)
    defaults.update(kwargs)
    return SimConfig(**defaults)


FAST = 3  # reference graphs per small-world index


def model_config(kind, **kwargs):
    defaults = dict(model=kind, n=12, g=6, steps=12, rounds=1, seed=99)
    defaults.update({"r": 1.5} if kind is ModelKind.RANGE else {"p_connect": 0.35})
    defaults.update(kwargs)
    return SimConfig(**defaults)


def count_round_calls(monkeypatch, name, fail_at=None):
    """Route the round driver harness.`name` (`round_rows` or
    `diffusion_round`) through a counter; raise at round `fail_at`."""
    calls = []
    real = getattr(harness, name)

    def counted(config, round_idx, *args, **kwargs):
        calls.append(round_idx)
        if round_idx == fail_at:
            raise RuntimeError(f"round {round_idx} interrupted")
        return real(config, round_idx, *args, **kwargs)

    monkeypatch.setattr(harness, name, counted)
    return calls


def watch_steps(monkeypatch, before_step):
    """Call `before_step(k)` before the k-th range model step, k counting
    from 1 over every round run afterwards."""
    real = range_model.step_range
    count = itertools.count(1)

    def watched(*args):
        before_step(next(count))
        return real(*args)

    monkeypatch.setattr(range_model, "step_range", watched)


@pytest.mark.parametrize("kind", list(ModelKind), ids=lambda k: k.value)
class TestRunModel:
    @pytest.mark.parametrize("case", ["single", "sparse", "complete"])
    def test_yields_symmetric_bool_adjacency(self, kind, case):
        # complete: r = (g - 1)·√2 spans the 6-by-6 grid, p_connect = 1 links every pair
        key, sparse, complete = (("r", 1.0, 5 * math.sqrt(2)) if kind is ModelKind.RANGE
                                 else ("p_connect", 0.1, 1.0))
        changes = {"single": {"n": 1}, "sparse": {key: sparse}, "complete": {key: complete}}
        cfg = model_config(kind, **changes[case])
        snaps = list(iter_model(cfg, make_rng(cfg.seed, 0)))
        assert len(snaps) == cfg.steps
        for adj in snaps:
            assert type(adj) is np.ndarray and adj.dtype == np.bool_
            assert adj.shape == (cfg.n, cfg.n)
            assert np.array_equal(adj, adj.T)
            assert not adj.diagonal().any()
        links = [np.count_nonzero(adj) // 2 for adj in snaps]
        pairs = cfg.n * (cfg.n - 1) // 2
        if case == "complete":
            assert links == [pairs] * cfg.steps
        elif case == "sparse":
            assert 0 < max(links) and min(links) < pairs // 4

    def test_zero_steps_empty_trajectory(self, kind):
        seen = []
        run_model(model_config(kind, steps=0), make_rng(1, 0), [lambda t, s: seen.append(t)])
        assert seen == []

    def test_observers_called_in_order_each_step(self, kind):
        calls = []
        obs_a = lambda t, snap: calls.append(("a", t))
        obs_b = lambda t, snap: calls.append(("b", t))
        run_model(model_config(kind, steps=3), make_rng(1, 0), observers=[obs_a, obs_b])
        assert calls == [("a", 1), ("b", 1), ("a", 2), ("b", 2), ("a", 3), ("b", 3)]

    def test_each_snapshot_yielded_right_after_its_step(self, kind, monkeypatch):
        stepped = []
        module, name = ((range_model, "step_range") if kind is ModelKind.RANGE
                        else (null_model, "step_null"))
        real = getattr(module, name)

        def step(*args):
            stepped.append(len(stepped) + 1)
            return real(*args)

        monkeypatch.setattr(module, name, step)
        snaps = iter_model(model_config(kind, steps=3), make_rng(1, 0))
        assert stepped == []  # nothing runs until the first snapshot is asked for
        assert [list(stepped) for _ in snaps] == [[1], [1, 2], [1, 2, 3]]

    def test_deterministic_trajectory(self, kind):
        cfg = model_config(kind)
        runs = [[], []]
        for snaps in runs:
            run_model(cfg, make_rng(cfg.seed, 4), [lambda t, s, out=snaps: out.append(s)])
        assert len(runs[0]) == cfg.steps
        for a, b in zip(*runs):
            assert np.array_equal(a, b)

    def test_single_agent_has_no_pairs(self, kind):
        snaps = []
        run_model(model_config(kind, n=1, steps=5), make_rng(1, 0),
                  [lambda t, s: snaps.append(s)])
        assert len(snaps) == 5
        assert all(edge_count(s) == 0 and len(s) == 1 for s in snaps)


class TestRunRound:
    def test_row_per_timestep(self):
        rows = round_metrics(range_config(steps=100), 0, FAST)
        assert len(rows) == 100

    def test_single_agent_rows(self):
        rows = round_metrics(range_config(n=1, steps=5), 0, FAST)
        for row in rows:
            assert (row.avg_degree, row.clustering, row.aspl) == (0.0, 0.0, 0.0)
            assert (row.n_components, row.largest_component) == (1, 1)
            assert row.small_world is None

    def test_repeat_is_identical(self):
        cfg = range_config(steps=20, seed=42)
        a = round_metrics(cfg, 3, FAST)
        b = round_metrics(cfg, 3, FAST)
        assert a == b

    def test_diffusion_does_not_disturb_metrics(self, monkeypatch):
        # model, metrics and diffusion draw from separate streams: a
        # diffusion round sees the snapshots a metrics round measures, and
        # measuring the snapshots it saw gives the metrics round's rows
        seen = []
        real = harness.iter_model

        def recorded(config, rng):
            seen.append([])
            for snap in real(config, rng):
                seen[-1].append(snap)
                yield snap

        monkeypatch.setattr(harness, "iter_model", recorded)
        cfg = range_config(steps=15)
        plain = round_metrics(cfg, 1, FAST)
        traj = diffusion_round(cfg, 1, SIConfig(p_infect=0.2))
        assert round_metrics(cfg, 1, FAST) == plain
        assert len(traj.frequencies) == 15
        measured, diffused, _ = seen
        assert 1 <= len(diffused) <= len(measured) == 15
        assert all(np.array_equal(a, b) for a, b in zip(measured, diffused))
        rng = make_rng(cfg.seed, 1, STREAM_METRICS)
        assert list(metric_rows(diffused, rng, FAST)) == plain[:len(diffused)]

    def test_diffusion_only_run(self):
        cfg = range_config(steps=30)
        traj = diffusion_round(cfg, 0, SIConfig(p_infect=1.0))
        assert len(traj.frequencies) == 30  # padded after early fixation

    @pytest.mark.parametrize("r", [6 * math.sqrt(2), 1.5], ids=["complete", "sparse"])
    def test_model_stops_at_the_step_the_diffusion_fixes(self, r, monkeypatch):
        # a complete graph fixes SI at p_infect = 1 in one step, a sparse one later
        steps = []
        watch_steps(monkeypatch, steps.append)
        cfg = range_config(g=6, r=r, steps=60)
        traj = diffusion_round(cfg, 0, SIConfig(p_infect=1.0))
        assert traj.fixation_time is not None and traj.fixation_time < cfg.steps
        assert steps == list(range(1, traj.fixation_time + 1))
        assert len(traj.frequencies) == cfg.steps
        assert traj.frequencies[traj.fixation_time - 1:] == [1.0] * (
            cfg.steps - traj.fixation_time + 1)

    @pytest.mark.parametrize("split", [0.0, 1.0], ids=["all-b", "all-a"])
    def test_cultural_absorbed_at_the_start_fixes_at_step_one(self, split, tmp_path,
                                                             monkeypatch):
        # every agent holds one trait from the start: each round fixes at
        # its first snapshot, and the model takes no second step
        steps = []
        watch_steps(monkeypatch, steps.append)
        out = tmp_path / "traj.csv"
        code = main(["diffusion", "--process", "cultural", "--init-split", str(split),
                     "--n", "6", "--g", "4", "--r", "1.5", "--steps", "5", "--rounds", "2",
                     "--out", str(out)])
        assert code == 0
        assert steps == [1, 2]  # one step in each of the two rounds
        with out.open() as fh:
            rows = list(csv.DictReader(fh))
        assert len(rows) == 2 * 5
        assert {row["frequency"] for row in rows} == {"1" if split else "-1"}
        assert {row["fixation_time"] for row in rows} == {"1"}

    def test_potion_never_fixes(self, monkeypatch):
        # every agent holds the crossover item from the start, so the
        # frequency is 1 throughout, yet the model runs every step
        steps = []
        watch_steps(monkeypatch, steps.append)
        cfg = range_config(steps=8)
        base = default_potion_config()
        process = dataclasses.replace(base, starting_inventory=(*base.starting_inventory, "X"))
        traj = diffusion_round(cfg, 0, process)
        assert traj.frequencies == [1.0] * cfg.steps
        assert traj.fixation_time is None
        assert steps == list(range(1, cfg.steps + 1))


def snapshot_stream(n, steps, seed):
    """G(n, p) snapshots at random densities, with runs of edgeless
    graphs at the start, partway through and at the end."""
    rng = np.random.default_rng(seed)
    snaps = []
    for t in range(steps):
        edgeless = t < 2 or steps // 2 <= t < steps // 2 + 3 or t == steps - 1
        p = 0.0 if edgeless else rng.uniform(0.02, 0.5)
        upper = np.triu(rng.random((n, n)) < p, k=1)
        snaps.append(upper | upper.T)
    return snaps


class TestMetricChunks:
    @pytest.mark.parametrize("stack", [1, 2, 3, 40])
    @pytest.mark.parametrize("n,steps,n_ref", [(20, 97, 1), (20, 97, 20), (130, 9, 3)])
    def test_chunks_match_per_snapshot_rows(self, n, steps, n_ref, stack, monkeypatch):
        # the real stack is 163 graphs at n = 20 and 3 at n = 130;
        # 97 steps end on a shorter stack at every patched size but 1
        assert metrics._stack_size(20) == 163 and metrics._stack_size(130) == 3
        snaps = snapshot_stream(n, steps, seed=n + n_ref)
        expected_rng = make_rng(7, 0, STREAM_METRICS)
        expected = [metrics_snapshot(snap, expected_rng, n_ref=n_ref) for snap in snaps]
        stacks, batches = [], []
        rows_of, kernel = metrics._metrics_rows, metrics._graph_measures
        monkeypatch.setattr(metrics, "_metrics_rows", lambda snaps, *args:
                            stacks.append(len(snaps)) or rows_of(snaps, *args))
        monkeypatch.setattr(metrics, "_graph_measures", lambda stack:
                            batches.append(len(stack)) or kernel(stack))
        patch_stack_size(monkeypatch, n, stack)
        rng = make_rng(7, 0, STREAM_METRICS)
        assert list(metric_rows(iter(snaps), rng, n_ref)) == expected
        assert stacks == [min(stack, steps - start) for start in range(0, steps, stack)]
        assert rng.random() == expected_rng.random()
        assert sum(row.small_world is not None for row in expected) > 0
        assert max(batches) <= stack

    def test_round_matches_per_snapshot_loop(self):
        cfg = range_config(n=20, g=10, r=2.0, steps=97, rounds=1, seed=5)
        snaps = []
        run_model(cfg, make_rng(cfg.seed, 0, STREAM_MODEL),
                  [lambda t, snap: snaps.append(snap)])
        rng = make_rng(cfg.seed, 0, STREAM_METRICS)
        expected = [metrics_snapshot(adj, rng, n_ref=4) for adj in snaps]
        assert round_metrics(cfg, 0, 4) == expected


class TestAggregateRounds:
    def test_constant_sample(self):
        agg = aggregate_rounds([2.0, 2.0, 2.0])
        assert (agg.mean, agg.std, agg.band, agg.defined_count) == (2.0, 0.0, 0.0, 3)

    def test_population_std(self):
        agg = aggregate_rounds([0.0, 4.0])
        assert (agg.mean, agg.std, agg.band) == (2.0, 2.0, 3.0)

    def test_empty_input_missing(self):
        agg = aggregate_rounds([])
        assert (agg.mean, agg.std, agg.band, agg.defined_count) == (None, None, None, 0)

    def test_none_values_excluded(self):
        agg = aggregate_rounds([1.0, None, 3.0])
        assert agg.mean == 2.0
        assert agg.defined_count == 2

    def test_permutation_invariant(self):
        values = [0.5, 1.5, None, 2.5, 4.0]
        rng = np.random.default_rng(1)
        base = aggregate_rounds(values)
        for _ in range(10):
            shuffled = list(values)
            rng.shuffle(shuffled)
            agg = aggregate_rounds(shuffled)
            assert agg.mean == pytest.approx(base.mean)
            assert agg.std == pytest.approx(base.std)
            assert agg.defined_count == base.defined_count


class TestSweep:
    def test_row_per_value_and_model(self):
        sweep = SweepConfig(base=range_config(steps=5, rounds=2), vary="r",
                            values=tuple(float(v) for v in range(6)),
                            paired=True, n_ref=FAST)
        rows = run_sweep(sweep)
        assert len(rows) == 12
        assert [r.config.model for r in rows[:2]] == [ModelKind.RANGE, ModelKind.NULL]
        null_rows = [r for r in rows if r.config.model is ModelKind.NULL]
        assert [r.config.p_connect for r in null_rows] == [v / 6 for v in range(6)]

    def test_n_sweep_resolves_population(self):
        sweep = SweepConfig(base=range_config(g=7, steps=4, rounds=2), vary="n",
                            values=(1.0, 10.0, 49.0), n_ref=FAST)
        rows = run_sweep(sweep)
        assert [r.config.n for r in rows] == [1, 10, 49]

    def test_invalid_sweep_values_rejected(self):
        with pytest.raises(ConfigError):
            SweepConfig(base=range_config(), vary="r", values=(99.0,), paired=True)
        with pytest.raises(ConfigError, match=r"swept r = 99.0: p_connect must be in \[0, 1\]"):
            SweepConfig(base=model_config(ModelKind.NULL), vary="r", values=(99.0,))
        with pytest.raises(ConfigError):
            SweepConfig(base=range_config(), vary="n", values=(0.0,))
        with pytest.raises(ConfigError):
            SweepConfig(base=range_config(), vary="x", values=(1.0,))

    def test_serial_parallel_identical(self, tmp_path):
        sweep = SweepConfig(base=range_config(steps=6, rounds=4), vary="r",
                            values=(1.0, 2.0), paired=True, n_ref=FAST)
        serial = tmp_path / "serial.csv"
        parallel = tmp_path / "parallel.csv"
        write_csv(run_sweep(sweep, workers=1), str(serial))
        write_csv(run_sweep(sweep, workers=2), str(parallel))
        assert serial.read_bytes() == parallel.read_bytes()

    def test_first_cell_streams_before_later_cells_run(self, monkeypatch):
        calls = count_round_calls(monkeypatch, "round_rows")
        sweep = SweepConfig(base=range_config(steps=3, rounds=2), vary="r",
                            values=(1.0, 2.0, 3.0), n_ref=FAST)
        row = next(iter_sweep(sweep))
        assert row.config.r == 1.0
        assert calls == [0, 1]

    def test_n_sweep_serial_parallel_identical(self, tmp_path):
        # n = 5, 20, 30 and 130 take stacks of 655, 40, 18 and 1 graphs, so
        # the reused kernel and distance buffers change shape from cell to
        # cell, and 7 steps end every n below 128 on a shorter stack
        argv = ["sweep", "--model", "both", "--vary", "n", "--values", "5,20,30,130",
                "--g", "12", "--r", "2", "--steps", "7", "--rounds", "2", "--n-ref", "3"]
        serial = tmp_path / "serial.csv"
        parallel = tmp_path / "parallel.csv"
        assert main([*argv, "--out", str(serial)]) == 0
        assert main([*argv, "--workers", "2", "--out", str(parallel)]) == 0
        assert serial.read_bytes() == parallel.read_bytes()
        assert len(serial.read_text().splitlines()) == 1 + 2 * 4

    def test_cell_aggregates_equal_a_direct_computation(self):
        # at r = 1 the range cell's small-world index is undefined on some
        # rows but not all, and on every kept row of some rounds
        sweep = SweepConfig(base=range_config(steps=6, rounds=3), vary="r", values=(1.0, 2.0),
                            paired=True, n_ref=FAST, burn_in=2)
        mixed = 0
        for row in iter_sweep(sweep):
            kept = [list(harness.round_rows(row.config, round_idx, FAST))[2:]
                    for round_idx in range(3)]
            mixed += {r.small_world is None for rows in kept for r in rows} == {True, False}
            for name in metrics.METRIC_NAMES:
                round_means = []
                for rows in kept:
                    defined = [getattr(r, name) for r in rows if getattr(r, name) is not None]
                    round_means.append(sum(defined) / len(defined) if defined else None)
                assert getattr(row.metrics, name) == aggregate_rounds(round_means), name
        assert mixed >= 1

    def test_doubling_rounds_moves_mean_within_tolerance(self):
        few = SweepConfig(base=range_config(steps=20, rounds=12), vary="r",
                          values=(2.0,), n_ref=None)
        many = SweepConfig(base=range_config(steps=20, rounds=24), vary="r",
                           values=(2.0,), n_ref=None)
        row_few = run_sweep(few)[0].metrics.avg_degree
        row_many = run_sweep(many)[0].metrics.avg_degree
        se = row_few.std / math.sqrt(12)
        assert abs(row_few.mean - row_many.mean) < 4 * se + 1e-9


class InProcessFuture:
    """A stand-in pool task: pending until the pool runs it, the caller
    waits on it or anyone cancels it, which succeeds only while pending."""

    def __init__(self, pool, fn, args):
        self.pool, self.fn, self.args = pool, fn, args
        self.state, self.value, self.error = "pending", None, None

    def run(self):
        self.state = "finished"
        self.pool.record.ran.append(self.args[2])
        try:
            self.value = self.fn(*self.args)
        except Exception as exc:  # kept for `result`, as a pool keeps it
            self.error = exc

    def cancel(self):
        if self.state == "pending":
            self.state = "cancelled"
        return self.state == "cancelled"

    def done(self):
        if self.state == "pending":
            self.pool.tick()
        return self.state != "pending"

    def result(self):
        if self.state == "pending":
            self.run()
        if self.error is not None:
            raise self.error
        return self.value


class InProcessPool:
    """Replaces the harness's process pool. It runs its earliest pending
    task on every second `done` asked of a pending task, so that the
    caller and the pool take turns. `record` collects the `max_workers`
    of each pool opened (`sizes`), every task handed to a pool
    (`futures`), and the round index, the task's second argument, of
    each task handed to a pool (`submitted`) and run by one (`ran`)."""

    def __init__(self, max_workers, record):
        record.sizes.append(max_workers)
        self.record, self.ticks = record, 0

    def __enter__(self):
        return self

    def __exit__(self, *exc):
        return False

    def submit(self, fn, *args):
        self.record.submitted.append(args[2])
        self.record.futures.append(InProcessFuture(self, fn, args))
        return self.record.futures[-1]

    def tick(self):
        self.ticks += 1
        pending = [f for f in self.record.futures if f.state == "pending"]
        if self.ticks % 2 == 0 and pending:
            pending[0].run()


def in_process_pool(monkeypatch):
    """Replace the harness's process pool with `InProcessPool`; returns
    the record that every pool opened afterwards writes to."""
    record = types.SimpleNamespace(sizes=[], submitted=[], ran=[], futures=[])
    monkeypatch.setattr(harness, "ProcessPoolExecutor",
                        lambda max_workers: InProcessPool(max_workers, record))
    return record


class TestWorkerPool:
    RUN = ["run", "--model", "range", "--n", "6", "--g", "5", "--r", "1.5",
           "--steps", "4", "--n-ref", "2"]

    @pytest.mark.parametrize("rounds,workers,pools", [
        (1, 64, []), (3, 64, [2]), (3, 2, [1])])
    def test_run_opens_no_more_processes_than_rounds(self, rounds, workers, pools,
                                                     tmp_path, monkeypatch):
        argv = [*self.RUN, "--rounds", str(rounds)]
        serial = tmp_path / "serial.csv"
        assert main([*argv, "--out", str(serial)]) == 0
        pool = in_process_pool(monkeypatch)
        pooled = tmp_path / "pooled.csv"
        assert main([*argv, "--workers", str(workers), "--out", str(pooled)]) == 0
        assert pool.sizes == pools
        assert pooled.read_bytes() == serial.read_bytes()

    def test_sweep_pool_capped_by_its_rounds_over_all_cells(self, monkeypatch):
        sweep = SweepConfig(base=range_config(steps=3, rounds=2), vary="r",
                            values=(1.0, 2.0), paired=True, n_ref=FAST)
        serial = run_sweep(sweep)
        pool = in_process_pool(monkeypatch)
        assert run_sweep(sweep, workers=64) == serial
        assert pool.sizes == [7]  # 2 values x 2 models x 2 rounds, less the caller

    def test_diffusion_pool_capped_by_its_rounds(self, monkeypatch):
        cfg = range_config(steps=5, rounds=2)
        process = SIConfig(p_infect=0.5)
        serial = list(run_diffusion_rounds(cfg, process))
        pool = in_process_pool(monkeypatch)
        assert list(run_diffusion_rounds(cfg, process, workers=64)) == serial
        assert pool.sizes == [1]

    def test_caller_runs_round_zero_and_takes_rounds_no_process_has(self, tmp_path,
                                                                    monkeypatch):
        argv = [*self.RUN, "--rounds", "5"]
        serial = tmp_path / "serial.csv"
        assert main([*argv, "--out", str(serial)]) == 0
        calls = count_round_calls(monkeypatch, "round_rows")
        pool = in_process_pool(monkeypatch)
        pooled = tmp_path / "pooled.csv"
        assert main([*argv, "--workers", "2", "--out", str(pooled)]) == 0
        assert pooled.read_bytes() == serial.read_bytes()
        assert pool.submitted == [1, 2, 3, 4]
        # rounds 1 and 3 are pending when the caller first needs them, so the caller takes them
        assert pool.ran == [2, 4]
        assert calls == [0, 1, 2, 3, 4]

    @pytest.mark.parametrize("workers", [2, 3])
    def test_pool_is_handed_two_tasks_per_process_ahead(self, workers, tmp_path, monkeypatch):
        argv = [*self.RUN, "--rounds", "40"]
        serial = tmp_path / "serial.csv"
        assert main([*argv, "--out", str(serial)]) == 0
        pool = in_process_pool(monkeypatch)
        unyielded = []
        map_rounds = harness._map_rounds

        def watched(*args):
            # when result k arrives, the futures of results 1 to k - 1 are yielded
            for k, result in enumerate(map_rounds(*args)):
                unyielded.append(len(pool.futures) - max(k - 1, 0))
                yield result

        monkeypatch.setattr(harness, "_map_rounds", watched)
        pooled = tmp_path / "pooled.csv"
        assert main([*argv, "--workers", str(workers), "--out", str(pooled)]) == 0
        assert pooled.read_bytes() == serial.read_bytes()
        assert pool.submitted == list(range(1, 40))
        assert len(unyielded) == 40 and max(unyielded) == 2 * workers

    @pytest.mark.parametrize("fail_at", [None, 1, 2], ids=["stop", "caller-fails",
                                                           "pool-fails"])
    def test_early_exit_leaves_no_round_to_run(self, fail_at, monkeypatch):
        # the first cell's rounds 0 and 1 run in the caller, round 2 in the pool
        calls = count_round_calls(monkeypatch, "round_rows", fail_at=fail_at)
        pool = in_process_pool(monkeypatch)
        sweep = SweepConfig(base=range_config(steps=3, rounds=3), vary="r",
                            values=(1.0, 2.0, 3.0), n_ref=FAST)
        rows = iter_sweep(sweep, workers=2)
        if fail_at is None:
            assert next(rows).config.r == 1.0
            rows.close()
        else:
            with pytest.raises(RuntimeError, match=f"round {fail_at} interrupted"):
                next(rows)
        assert calls == [0, 1, 2][:(fail_at or 2) + 1]
        assert pool.ran == ([2] if fail_at != 1 else [])
        # rounds are handed to the pool four ahead: one more once round 1 is in
        assert len(pool.futures) == (4 if fail_at == 1 else 5)
        assert not [f for f in pool.futures if f.state == "pending"]


class TestCsvOutput:
    def test_header_plus_data_lines(self, tmp_path):
        sweep = SweepConfig(base=range_config(steps=4, rounds=2), vary="r",
                            values=tuple(float(v) for v in range(4)), n_ref=FAST)
        path = tmp_path / "out.csv"
        count = write_csv(run_sweep(sweep), str(path))
        lines = path.read_text().splitlines()
        assert count == 4
        assert len(lines) == 1 + 4
        assert lines[0].startswith("model,N,g,r,p_connect,param_name,param_value,rounds,")

    def test_round_trip_nine_significant_digits(self, tmp_path):
        sweep = SweepConfig(base=range_config(steps=6, rounds=3), vary="r",
                            values=(2.0,), n_ref=FAST)
        rows = run_sweep(sweep)
        path = tmp_path / "out.csv"
        write_csv(rows, str(path))
        with open(path) as fh:
            record = next(csv.DictReader(fh))
        for name, agg in rows[0].metrics._asdict().items():
            got = record[f"{name}_mean"]
            if agg.mean is None:
                assert got == ""
            else:
                assert float(got) == pytest.approx(agg.mean, rel=1e-8)

    def test_missing_values_are_empty_fields(self, tmp_path):
        sweep = SweepConfig(base=range_config(r=0.0, steps=4, rounds=2), vary="r",
                            values=(0.0,), n_ref=FAST)
        path = tmp_path / "out.csv"
        write_csv(run_sweep(sweep), str(path))
        with open(path) as fh:
            record = next(csv.DictReader(fh))
        assert record["small_world_mean"] == ""
        assert record["small_world_defined_count"] == "0"

    def test_timeseries_dump_line_count(self, tmp_path):
        # 170 steps at N = 20 take a 163-graph stack and a 7-graph one; each
        # round's timesteps still run 1..170, serially and from a pool
        runs = [(range_config(steps=7, rounds=3), 1)]
        runs += [(range_config(n=20, g=10, steps=170, rounds=2), workers) for workers in (1, 2)]
        assert metrics._stack_size(20) == 163
        for cfg, workers in runs:
            path = tmp_path / "dump.csv"
            count = write_timeseries_csv(cfg, str(path), n_ref=FAST, workers=workers)
            lines = path.read_text().splitlines()
            assert count == cfg.steps * cfg.rounds
            assert len(lines) == 1 + count
            assert [line.split(",")[5:7] for line in lines[1:]] == [
                [str(round_idx), str(t)] for round_idx in range(cfg.rounds)
                for t in range(1, cfg.steps + 1)]

    def test_serial_timeseries_writes_each_row_as_it_is_measured(self, tmp_path,
                                                                 monkeypatch):
        # from n = 182 up a stack is one snapshot, measured right after its step
        assert metrics._stack_size(182) == 1 and metrics._stack_size(181) == 2
        path = tmp_path / "dump.csv"
        on_disk = []
        watch_steps(monkeypatch, lambda k: on_disk.append(
            len(path.read_text().splitlines()[1:])))
        cfg = range_config(n=182, g=14, steps=4, rounds=2)
        assert write_timeseries_csv(cfg, str(path), n_ref=FAST) == 8
        assert on_disk == list(range(8))  # k - 1 rows before the k-th step

    def test_interrupted_serial_timeseries_keeps_measured_rows(self, tmp_path, monkeypatch):
        # stacks of two snapshots: the 8th step (round 1, t = 4) fails while
        # t = 3 is held unmeasured, so round 1 keeps t = 1 and 2
        patch_stack_size(monkeypatch, 10, 2)

        def fail_at_eighth(k):
            if k == 8:
                raise RuntimeError("step 8 interrupted")

        watch_steps(monkeypatch, fail_at_eighth)
        path = tmp_path / "dump.csv"
        with pytest.raises(RuntimeError, match="step 8 interrupted"):
            write_timeseries_csv(range_config(steps=4, rounds=3), str(path), n_ref=FAST)
        lines = path.read_text().splitlines()
        assert lines[0].startswith("model,N,g,r,p_connect,round,timestep,")
        assert [line.split(",")[5:7] for line in lines[1:]] == [
            *(["0", str(t)] for t in range(1, 5)), ["1", "1"], ["1", "2"]]

    def test_interrupted_timeseries_keeps_finished_rounds(self, tmp_path, monkeypatch):
        # a pooled run writes whole rounds, in round order
        count_round_calls(monkeypatch, "round_rows", fail_at=1)
        in_process_pool(monkeypatch)
        cfg = range_config(steps=4, rounds=3)
        path = tmp_path / "dump.csv"
        with pytest.raises(RuntimeError, match="round 1 interrupted"):
            write_timeseries_csv(cfg, str(path), n_ref=FAST, workers=2)
        lines = path.read_text().splitlines()
        assert lines[0].startswith("model,N,g,r,p_connect,round,timestep,")
        assert [line.split(",")[5:7] for line in lines[1:]] == [
            ["0", str(t)] for t in range(1, 5)]

    def test_interrupted_diffusion_keeps_finished_rounds(self, tmp_path, monkeypatch):
        count_round_calls(monkeypatch, "diffusion_round", fail_at=1)
        cfg = range_config(steps=4, rounds=3)
        path = tmp_path / "traj.csv"
        with pytest.raises(RuntimeError, match="round 1 interrupted"):
            write_trajectories_csv(run_diffusion_rounds(cfg, SIConfig(p_infect=0.5)),
                                   str(path))
        lines = path.read_text().splitlines()
        assert lines[0] == "round,timestep,frequency,fixation_time,crossover_time"
        assert [line.split(",")[:2] for line in lines[1:]] == [
            ["0", str(t)] for t in range(1, 5)]

    def test_trajectory_dump(self, tmp_path):
        cfg = range_config(steps=10, rounds=2)
        trajs = run_diffusion_rounds(cfg, SIConfig(p_infect=0.5))
        path = tmp_path / "traj.csv"
        count = write_trajectories_csv(trajs, str(path))
        assert count == 20
        with open(path) as fh:
            records = list(csv.DictReader(fh))
        assert records[0]["round"] == "0"
        assert records[0]["timestep"] == "1"


class TestCli:
    def test_parse_values_forms(self):
        assert parse_values("1,2,3.5") == (1.0, 2.0, 3.5)
        assert parse_values("0:10:1") == tuple(float(v) for v in range(11))
        assert parse_values("0:1:0.1") == tuple(round(0.1 * k, 12) for k in range(11))
        with pytest.raises(ConfigError):
            parse_values("5:1:1")

    def test_parse_values_list_needs_numbers(self):
        # the list form is reachable from a config file's "values"
        assert parse_values([0, 2.5]) == (0.0, 2.5)
        for bad in (["1", 2], [None], [True]):
            with pytest.raises(ConfigError):
                parse_values(bad)

    @pytest.mark.parametrize("process,default", [
        ("si", SIConfig()), ("complex", ComplexContagionConfig()), ("cultural", CulturalConfig())])
    def test_process_flag_defaults_are_the_configs(self, process, default):
        # --n-init feeds SIConfig and ComplexContagionConfig alike
        args = build_parser().parse_args(["diffusion", "--process", process])
        assert _process_config(args) == default

    @pytest.mark.parametrize("command", ["run", "sweep", "diffusion"])
    def test_model_flag_defaults_are_the_configs(self, command):
        defaults = {field.name: field.default for field in dataclasses.fields(SimConfig)
                    if field.default is not dataclasses.MISSING}
        if command == "run":
            defaults["rounds"] = 1  # one round is the per-timestep dump's default
        args = build_parser().parse_args([command])
        assert {name: getattr(args, name) for name in defaults} == defaults

    @pytest.mark.parametrize("argv,rows", [
        (["sweep", "--vary", "r", "--values", "1,2"], 4),
        (["run"], 0),
        (["diffusion", "--process", "si"], 0)], ids=["sweep", "run", "diffusion"])
    def test_zero_steps(self, argv, rows, tmp_path):
        # a sweep cell of empty rounds aggregates nothing; the dumps have no rows
        out = tmp_path / "out.csv"
        assert main([*argv, "--r", "1", "--steps", "0", "--rounds", "2", "--out", str(out)]) == 0
        with open(out) as fh:
            records = list(csv.DictReader(fh))
        assert len(records) == rows
        for record in records:
            aggregates = {key: value for key, value in record.items()
                          if key.startswith(tuple(metrics.METRIC_NAMES))}
            assert len(aggregates) == 4 * len(metrics.METRIC_NAMES)
            for key, value in aggregates.items():
                assert value == ("0" if key.endswith("_defined_count") else ""), key

    def test_potion_flag_default_is_the_config(self):
        potion = _process_config(build_parser().parse_args(["diffusion", "--process", "potion"]))
        assert potion.p_diff == PotionConfig.p_diff
        assert potion == default_potion_config()

    def test_sweep_command(self, tmp_path):
        out = tmp_path / "sweep.csv"
        code = main(["sweep", "--model", "both", "--vary", "r", "--values", "0,2",
                     "--n", "8", "--g", "5", "--steps", "4", "--rounds", "2",
                     "--n-ref", "2", "--out", str(out)])
        assert code == 0
        assert len(out.read_text().splitlines()) == 5

    def test_run_command(self, tmp_path):
        out = tmp_path / "run.csv"
        code = main(["run", "--model", "range", "--n", "6", "--g", "5", "--r", "1",
                     "--steps", "5", "--no-small-world", "--out", str(out)])
        assert code == 0
        assert len(out.read_text().splitlines()) == 6

    @pytest.mark.parametrize("model,shown", [("range", ["2", ""]), ("null", ["", "0.5"])])
    def test_run_row_shows_only_its_model_parameter(self, tmp_path, model, shown):
        out = tmp_path / "run.csv"
        code = main(["run", "--model", model, "--r", "2", "--p-connect", "0.5", "--n", "6",
                     "--g", "5", "--steps", "1", "--no-small-world", "--out", str(out)])
        assert code == 0
        row = out.read_text().splitlines()[1].split(",")
        assert row[:5] == [model, "6", "5", *shown]

    def test_diffusion_command(self, tmp_path):
        out = tmp_path / "traj.csv"
        code = main(["diffusion", "--process", "cultural", "--model", "null",
                     "--n", "6", "--p-connect", "0.5", "--steps", "8",
                     "--rounds", "2", "--out", str(out)])
        assert code == 0
        assert len(out.read_text().splitlines()) == 1 + 16

    def test_sweep_config_error_writes_no_file(self, tmp_path):
        # g = 1 has one tile for 20 agents; no header may be left behind
        out = tmp_path / "sweep.csv"
        code = main(["sweep", "--model", "range", "--r", "1", "--vary", "g", "--values", "1,10",
                     "--n", "20", "--steps", "5", "--rounds", "1", "--out", str(out)])
        assert code == 2
        assert not out.exists()

    @pytest.mark.parametrize("burn_in", ["-3", "2"])
    def test_burn_in_outside_steps_is_config_error(self, tmp_path, capsys, burn_in):
        out = tmp_path / "sweep.csv"
        code = main(["sweep", "--model", "range", "--vary", "r", "--values", "1",
                     "--n", "6", "--g", "5", "--steps", "2", "--burn-in", burn_in,
                     "--out", str(out)])
        assert code == 2
        assert (f"burn-in must lie in [0, steps) for steps=2, got {burn_in}"
                in capsys.readouterr().err)
        assert not out.exists()

    def test_diffusion_n_init_error_writes_no_file(self, tmp_path, capsys):
        out = tmp_path / "traj.csv"
        code = main(["diffusion", "--process", "si", "--r", "2", "--n", "20", "--n-init", "50",
                     "--out", str(out)])
        assert code == 2
        assert "n_init=50 exceeds population 20" in capsys.readouterr().err
        assert not out.exists()

    @pytest.mark.parametrize("values", ["0:inf:1", "0:1:inf", "0:nan:1"])
    def test_non_finite_value_range_is_config_error(self, tmp_path, capsys, values):
        out = tmp_path / "sweep.csv"
        code = main(["sweep", "--model", "range", "--vary", "r", "--values", values,
                     "--n", "6", "--g", "5", "--steps", "2", "--rounds", "1", "--out", str(out)])
        assert code == 2
        assert capsys.readouterr().err.startswith("rangesim: config error: ")
        assert not out.exists()

    @pytest.mark.parametrize("vary,values", [("n", "nan"), ("n", "inf"), ("n", "1e400"),
                                             ("g", "10,inf"), ("g", "nan")])
    def test_non_finite_swept_n_or_g_is_config_error(self, tmp_path, capsys, vary, values):
        # the integer check must not call int() on NaN or infinity
        out = tmp_path / "sweep.csv"
        code = main(["sweep", "--model", "range", "--r", "1", "--vary", vary, "--values", values,
                     "--n", "6", "--g", "5", "--steps", "2", "--rounds", "1", "--out", str(out)])
        assert code == 2
        assert capsys.readouterr().err.startswith("rangesim: config error: ")
        assert not out.exists()

    @pytest.mark.parametrize("argv,cells", [
        (["--model", "both", "--vary", "n", "--values", "2:16:2", "--g", "4", "--r", "2"], 16),
        (["--vary", "g", "--values", "15,20", "--n", "200", "--r", "1", "--no-small-world"], 4),
    ], ids=["n-on-4x4", "g-at-n200"])
    def test_n_or_g_sweep_checks_only_its_cells(self, tmp_path, argv, cells):
        # the default --n 20 exceeds a 4x4 grid and --n 200 the default
        # --g 10, but no cell runs either; every cell that runs fits
        out = tmp_path / "sweep.csv"
        code = main(["sweep", *argv, "--steps", "2", "--rounds", "1", "--out", str(out)])
        assert code == 0
        assert len(out.read_text().splitlines()) == 1 + cells

    def test_range_only_r_sweep_may_exceed_g(self, tmp_path):
        # r = 12 > g = 10 still grows the range graph up to (g-1)*sqrt(2);
        # only a null cell needs p = r/g <= 1
        out = tmp_path / "sweep.csv"
        code = main(["sweep", "--model", "range", "--vary", "r", "--values", "12",
                     "--n", "9", "--g", "10", "--steps", "2", "--rounds", "1",
                     "--no-small-world", "--out", str(out)])
        assert code == 0
        rows = out.read_text().splitlines()[1:]
        assert [row.split(",")[:4] for row in rows] == [["range", "9", "10", "12"]]

    def test_null_only_n_sweep_may_exceed_g_squared(self, tmp_path):
        # 200 agents on a 10x10 grid: only a range cell needs distinct tiles
        out = tmp_path / "sweep.csv"
        code = main(["sweep", "--model", "null", "--vary", "n", "--values", "50,200",
                     "--g", "10", "--p-connect", "0.1", "--no-small-world", "--steps", "2",
                     "--rounds", "1", "--out", str(out)])
        assert code == 0
        rows = out.read_text().splitlines()[1:]
        assert [row.split(",")[:2] for row in rows] == [["null", "50"], ["null", "200"]]

    @pytest.mark.parametrize("values,shown", [
        pytest.param("nan", "swept n must be an integer, got nan", id="nan-nan"),
        pytest.param("4,17", "swept n = 17.0: range model needs unique positions: "
                             "N=17 exceeds g*g=16 tiles", id="4,17-17.0"),
    ])
    def test_swept_n_error_names_the_swept_value(self, tmp_path, capsys, values, shown):
        # on a 4x4 grid; the default --n 20 never runs
        out = tmp_path / "sweep.csv"
        code = main(["sweep", "--model", "range", "--r", "1", "--vary", "n", "--values", values,
                     "--g", "4", "--steps", "2", "--rounds", "1", "--out", str(out)])
        assert code == 2
        assert shown in capsys.readouterr().err
        assert not out.exists()

    def test_range_only_p_sweep_may_exceed_one(self, tmp_path):
        # p = 1.2 runs the range cell r = p*g = 12, as the r sweep above
        # does; only a null cell needs p <= 1
        out = tmp_path / "sweep.csv"
        code = main(["sweep", "--model", "range", "--vary", "p", "--values", "1.2",
                     "--n", "9", "--g", "10", "--steps", "2", "--rounds", "1",
                     "--no-small-world", "--out", str(out)])
        assert code == 0
        rows = out.read_text().splitlines()[1:]
        assert [row.split(",")[:4] for row in rows] == [["range", "9", "10", "12"]]

    @pytest.mark.parametrize("argv,shown", [
        (["--model", "null", "--vary", "r", "--values", "1,11"], "swept r = 11.0: p_connect"),
        (["--model", "both", "--vary", "r", "--values", "1,11"], "swept r = 11.0: p_connect"),
        (["--model", "null", "--vary", "p", "--values", "1.5"], "swept p_connect = 1.5: "),
        (["--vary", "n", "--values", "16,17", "--g", "4"], "swept n = 17.0: range model"),
        (["--vary", "n", "--values", "2.5"], "swept n must be an integer, got 2.5"),
        (["--vary", "g", "--values", "0"], "swept g = 0.0: grid side"),
        (["--vary", "g", "--values", "nan"], "swept g must be an integer, got nan"),
    ], ids=["r-null", "r-paired", "p-null", "n-range", "n-fraction", "g-zero", "g-nan"])
    def test_swept_value_a_run_rejects_is_config_error(self, tmp_path, capsys, argv, shown):
        # each cell is checked as `run` checks it, before any file is made
        out = tmp_path / "sweep.csv"
        code = main(["sweep", "--model", "range", "--n", "6", "--r", "1", "--p-connect", "0.5",
                     *argv, "--steps", "2", "--rounds", "1", "--out", str(out)])
        assert code == 2
        assert shown in capsys.readouterr().err
        assert not out.exists()

    @pytest.mark.parametrize("source", ["range-count", "config-list"])
    def test_oversized_values_are_config_error(self, tmp_path, capsys, source):
        # float(10**400) and int(inf) raise OverflowError, not ValueError
        out = tmp_path / "sweep.csv"
        argv = ["sweep", "--model", "range", "--vary", "r", "--n", "6", "--g", "5",
                "--steps", "2", "--rounds", "1", "--out", str(out)]
        if source == "range-count":
            argv += ["--values", "0:1e300:1e-300"]
        else:
            cfg_file = tmp_path / "cfg.json"
            cfg_file.write_text('{"values": [1%s]}' % ("0" * 400))
            argv += ["--config", str(cfg_file)]
        code = main(argv)
        err = capsys.readouterr().err
        assert code == 2
        assert err.startswith("rangesim: config error: ") and "Traceback" not in err
        assert not out.exists()

    def test_nan_social_weight_is_config_error(self, tmp_path, capsys):
        # NaN passes `w < 0`, and then no exposed agent is ever infected
        out = tmp_path / "traj.csv"
        code = main(["diffusion", "--process", "complex", "--r", "2", "--n", "6", "--g", "5",
                     "--w", "nan", "--out", str(out)])
        assert code == 2
        assert "social weight must be non-negative, got nan" in capsys.readouterr().err
        assert not out.exists()

    def test_config_error_exit_code(self, tmp_path):
        code = main(["run", "--model", "range", "--n", "50", "--g", "5", "--r", "1",
                     "--steps", "2", "--out", str(tmp_path / "x.csv")])
        assert code == 2

    def test_zero_reference_graphs_is_config_error(self, tmp_path, capsys):
        # checked before any round runs, whether or not the index is taken
        for extra in ([], ["--no-small-world"]):
            code = main(["run", "--model", "range", "--n", "6", "--g", "5", "--r", "1",
                         "--steps", "2", "--n-ref", "0", *extra,
                         "--out", str(tmp_path / "x.csv")])
            assert code == 2
            assert "n_ref must be at least 1" in capsys.readouterr().err
            assert not (tmp_path / "x.csv").exists()
        # `metric_rows` raises at its first `next`, before it measures
        with pytest.raises(ValueError, match="n_ref=0"):
            next(metric_rows([np.zeros((2, 2), dtype=bool)],
                             make_rng(0, 0), 0))

    def test_workers_below_one_is_config_error(self, tmp_path, capsys):
        code = main(["run", "--model", "range", "--n", "6", "--g", "5", "--r", "1",
                     "--steps", "2", "--workers", "-3", "--out", str(tmp_path / "x.csv")])
        assert code == 2
        assert "--workers must be at least 1" in capsys.readouterr().err
        assert not (tmp_path / "x.csv").exists()

    def test_missing_required_parameter(self, tmp_path):
        code = main(["run", "--model", "range", "--n", "5", "--g", "5",
                     "--steps", "2", "--out", str(tmp_path / "x.csv")])
        assert code == 2

    def test_io_error_exit_code(self):
        code = main(["run", "--model", "range", "--n", "5", "--g", "5", "--r", "1",
                     "--steps", "2", "--no-small-world",
                     "--out", "/nonexistent-dir/x.csv"])
        assert code == 3

    def test_config_file_defaults_and_flag_override(self, tmp_path):
        import json

        cfg_file = tmp_path / "cfg.json"
        cfg_file.write_text(json.dumps({
            "model": "range", "n": 6, "g": 5, "r": 1.0, "steps": 4,
            "no_small_world": True,
        }))
        out = tmp_path / "out.csv"
        code = main(["run", "--config", str(cfg_file), "--steps", "2",
                     "--out", str(out)])
        assert code == 0
        lines = out.read_text().splitlines()
        assert len(lines) == 3  # flag --steps 2 overrides the file's 4

    def test_abbreviated_flag_overrides_config_file(self, tmp_path):
        import json

        cfg_file = tmp_path / "cfg.json"
        cfg_file.write_text(json.dumps({"r": 1.0, "n": 6, "g": 5, "steps": 4,
                                        "no_small_world": True}))
        out = tmp_path / "out.csv"
        # argparse takes "--step" for "--steps", so the flag must win here too
        code = main(["run", "--config", str(cfg_file), "--step", "2", "--out", str(out)])
        assert code == 0
        assert len(out.read_text().splitlines()) == 3

    def test_config_file_not_utf8_is_config_error(self, tmp_path, capsys):
        cfg_file = tmp_path / "cfg.json"
        cfg_file.write_bytes(b'\xff\xfe{"n": 5}')
        out = tmp_path / "out.csv"
        code = main(["run", "--config", str(cfg_file), "--model", "range", "--r", "1",
                     "--g", "5", "--steps", "2", "--out", str(out)])
        err = capsys.readouterr().err
        assert code == 2
        assert "config error" in err and "Traceback" not in err
        assert not out.exists()

    def test_unknown_config_key_rejected(self, tmp_path):
        cfg_file = tmp_path / "cfg.json"
        cfg_file.write_text('{"bogus": 1}')
        code = main(["run", "--config", str(cfg_file), "--model", "range",
                     "--n", "4", "--g", "4", "--r", "1", "--steps", "1",
                     "--out", "-"])
        assert code == 2

    @pytest.mark.parametrize("entry", [{"n": "20"}, {"workers": "2"}, {"n": 2.5},
                                       {"model": "bogus"}, {"no_small_world": "yes"}],
                             ids=["n-string", "workers-string", "n-fraction", "model-unknown",
                                  "switch-string"])
    def test_config_file_values_checked_like_flags(self, tmp_path, capsys, entry):
        import json

        cfg_file = tmp_path / "cfg.json"
        cfg_file.write_text(json.dumps({"r": 1.0, "n": 6, "g": 5, "steps": 2, **entry}))
        out = tmp_path / "out.csv"
        code = main(["run", "--config", str(cfg_file), "--out", str(out)])
        err = capsys.readouterr().err
        assert code == 2
        assert err.startswith("rangesim: config error") and "Traceback" not in err
        assert repr(next(iter(entry))) in err
        assert not out.exists()

    def test_readme_config_example_runs(self, tmp_path):
        import json

        cfg_file = tmp_path / "cfg.json"
        cfg_file.write_text(json.dumps(
            {"model": "both", "vary": "r", "values": "0:10:1", "n": 20, "g": 10}))
        out = tmp_path / "sweep.csv"
        code = main(["sweep", "--config", str(cfg_file), "--steps", "2", "--rounds", "1",
                     "--no-small-world", "--out", str(out)])
        assert code == 0
        assert len(out.read_text().splitlines()) == 1 + 2 * 11

    @pytest.mark.parametrize("argv", [
        ["sweep", "--model", "range", "--r", "1"],
        ["sweep", "--model", "range", "--vary", "r"],
        ["diffusion", "--r", "1"],
    ], ids=["sweep-no-vary-values", "sweep-no-values", "diffusion-no-process"])
    def test_missing_required_flag_is_config_error(self, tmp_path, capsys, argv):
        out = tmp_path / "out.csv"
        code = main(argv + ["--n", "6", "--g", "5", "--steps", "2", "--out", str(out)])
        assert code == 2
        assert "is required, as a flag or a config key" in capsys.readouterr().err
        assert not out.exists()
