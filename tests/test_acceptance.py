"""Acceptance suite: one test per criterion, one printed PASS/FAIL line each.

Run with `pytest tests/test_acceptance.py -v -s` to see the per-criterion
lines as they complete. The heavier criteria follow the full protocol of
100 rounds of 100 timesteps and take a few minutes altogether.
"""

import math

import numpy as np
import pytest
from scipy.stats import mannwhitneyu

from rangesim.core import ExactDraws, ModelKind, SimConfig, make_rng
from rangesim.diffusion import (
    ComplexContagionConfig,
    CulturalConfig,
    SIConfig,
    default_potion_config,
)
from rangesim.harness import (
    SweepConfig,
    run_diffusion_rounds,
    write_csv,
)
from rangesim.null_model import step_null
from rangesim.range_model import init_population, step_range

from measures import (
    average_clustering,
    average_degree,
    average_shortest_path_length,
    components,
    metrics_snapshot,
    round_metrics,
    run_sweep,
    sample_gnm,
    small_world_index,
)
from oracles import (
    aspl_oracle,
    clustering_oracle,
    components_oracle,
    degree_oracle,
    edge_set,
    random_graph,
    small_world_oracle,
    snapshot_from_edges,
)

WORKERS = 2
FULL = dict(steps=100, rounds=100, seed=1)


def report(criterion: str, ok: bool, detail: str) -> None:
    print(f"ACCEPTANCE {criterion}: {'PASS' if ok else 'FAIL'} -- {detail}")
    assert ok, f"criterion {criterion}: {detail}"


def range_cfg(**kwargs):
    merged = dict(model=ModelKind.RANGE, **FULL)
    merged.update(kwargs)
    return SimConfig(**merged)


def null_cfg(**kwargs):
    merged = dict(model=ModelKind.NULL, **FULL)
    merged.update(kwargs)
    return SimConfig(**merged)


def test_01_degree_point_check():
    # range model, N=20, g=7, r=2: mean average degree 3.9 +/- 0.5
    sweep = SweepConfig(base=range_cfg(n=20, g=7, r=2.0), vary="r", values=(2.0,),
                        n_ref=None)
    agg = run_sweep(sweep, workers=WORKERS)[0].metrics["avg_degree"]
    report("01 degree point-check", abs(agg.mean - 3.9) <= 0.5,
           f"mean average degree {agg.mean:.3f} vs 3.9 +/- 0.5")


def test_02_boundary_identities():
    failures = []
    n, g = 12, 5
    # r = 0: every timestep empty, N singleton components
    rows = round_metrics(range_cfg(n=n, g=g, r=0.0, steps=40, rounds=1), 0, None)
    for t, row in enumerate(rows, start=1):
        if row.avg_degree != 0.0 or row.n_components != n:
            failures.append(f"r=0 step {t}: {row}")
    # r >= g*sqrt(2): complete graph every timestep
    rows = round_metrics(range_cfg(n=n, g=g, r=g * math.sqrt(2), steps=40, rounds=1), 0, None)
    for t, row in enumerate(rows, start=1):
        if (row.avg_degree, row.clustering, row.aspl) != (n - 1.0, 1.0, 1.0) or \
                (row.n_components, row.largest_component) != (1, n):
            failures.append(f"r=g*sqrt2 step {t}: {row}")
    # null: p=0 empty, p=1 complete from step 1 on
    rows = round_metrics(null_cfg(n=n, p_connect=0.0, steps=40, rounds=1), 0, None)
    failures += [f"null p=0 step {t}" for t, r in enumerate(rows, start=1)
                 if r.avg_degree != 0.0]
    rows = round_metrics(null_cfg(n=n, p_connect=1.0, steps=40, rounds=1), 0, None)
    failures += [f"null p=1 step {t}" for t, r in enumerate(rows, start=1)
                 if (r.avg_degree, r.clustering, r.aspl) != (n - 1.0, 1.0, 1.0)]
    report("02 boundary identities", not failures, f"{len(failures)} violations (exact)")


def test_03_saturation():
    # N = g*g: the grid is saturated, positions and metrics freeze
    cfg = range_cfg(n=25, g=5, r=2.0, steps=50, rounds=1)
    rng = make_rng(cfg.seed, 0)
    world = init_population(cfg, rng)
    draws = ExactDraws(rng)
    initial = list(world.positions)
    stable_rows = set()
    for _ in range(cfg.steps):
        snap = step_range(world, cfg, draws)
        assert world.positions == initial, "positions moved on a saturated grid"
        row = metrics_snapshot(snap, make_rng(0, 0), n_ref=None)
        stable_rows.add((row.avg_degree, row.clustering, row.aspl,
                         row.n_components, row.largest_component))
    report("03 saturation", len(stable_rows) == 1,
           f"positions identical over {cfg.steps} steps; RNG-free metrics constant "
           f"({len(stable_rows)} distinct rows)")


@pytest.mark.parametrize("r", [1.0, 2.0, 3.0])
def test_04_clustering_contrast(r):
    # Range and matched-null clustering must differ by >3 combined SE, in the
    # direction the model fixes. From r = sqrt(2) on, diagonal neighbors link
    # and range clustering exceeds the null's. Below sqrt(2) the only in-range
    # offsets are (+-1, 0) and (0, +-1); each flips the parity of x + y, so
    # every range graph is bipartite and triangle-free. Its clustering is then
    # exactly 0 in every round, and the null's positive clustering exceeds it.
    sweep = SweepConfig(base=range_cfg(n=20, g=10, r=r), vary="r", values=(r,),
                        paired=True, n_ref=None)
    rows = run_sweep(sweep, workers=WORKERS)
    rg, nl = rows[0].metrics["clustering"], rows[1].metrics["clustering"]
    se = math.sqrt(rg.std ** 2 / rg.defined_count + nl.std ** 2 / nl.defined_count)
    margin = (rg.mean - nl.mean) / se
    if r < math.sqrt(2):
        ok = rg.mean == 0.0 and rg.std == 0.0 and -margin > 3
    else:
        ok = margin > 3
    report(f"04 clustering contrast r={r:g}", ok,
           f"range {rg.mean:.4f} (std {rg.std:.4f}) vs null {nl.mean:.4f}, "
           f"diff = {margin:.1f} combined SE")


def test_05_aspl_two_phase():
    sweep = SweepConfig(base=range_cfg(n=40, g=10, r=0.0), vary="r",
                        values=tuple(float(v) for v in range(11)),
                        n_ref=None)
    rows = run_sweep(sweep, workers=WORKERS)
    curve = [row.metrics["aspl"].mean for row in rows]
    peak = int(np.argmax(curve))
    rises = all(curve[i] < curve[peak] for i in range(peak))
    falls = all(curve[i] > curve[i + 1] for i in range(peak, 10))
    report("05 ASPL two-phase shape", peak in (1, 2, 3) and rises and falls,
           f"argmax at r={peak}, curve {[round(v, 2) for v in curve]}")


def test_06_small_world_contrast():
    sweep = SweepConfig(base=range_cfg(n=40, g=10, r=2.0), vary="r", values=(2.0,),
                        paired=True)
    rows = run_sweep(sweep, workers=WORKERS)
    rg, nl = rows[0].metrics["small_world"], rows[1].metrics["small_world"]
    se = math.sqrt(rg.std ** 2 / rg.defined_count + nl.std ** 2 / nl.defined_count)
    margin = (rg.mean - nl.mean) / se
    report("06 small-world contrast", margin > 3,
           f"range {rg.mean:.3f} ({rg.defined_count} rounds) vs null {nl.mean:.3f} "
           f"({nl.defined_count}), diff = {margin:.1f} combined SE")


def test_07_null_stationarity():
    n, steps = 30, 10_000
    n_pairs = n * (n - 1) // 2
    deviations = []
    ok = True
    for p in (0.1, 0.5, 0.9):
        links = np.zeros(n_pairs, dtype=bool)
        rng = make_rng(1, 0)
        total = 0
        for _ in range(steps):
            links = step_null(links, p, rng)
            total += int(links.sum())
        density = total / (steps * n_pairs)
        sigma = math.sqrt(p * (1 - p) / (steps * n_pairs))
        deviations.append(f"p={p}: {(density - p) / sigma:+.2f} sigma")
        ok = ok and abs(density - p) < 3 * sigma
    report("07 null stationarity", ok, "; ".join(deviations))


def test_08_metrics_oracle_equivalence():
    rng = np.random.default_rng(20_26)
    worst = 0.0
    checked = 0
    for idx in range(1000):
        n = int(rng.integers(1, 13))
        edges = random_graph(n, rng)
        g = snapshot_from_edges(n, edges)
        diffs = [
            abs(average_degree(g) - degree_oracle(n, edges)),
            abs(average_clustering(g) - clustering_oracle(n, edges)),
            abs(average_shortest_path_length(g) - aspl_oracle(n, edges)),
        ]
        assert components(g) == components_oracle(n, edges)
        row = metrics_snapshot(g, make_rng(idx, 0), n_ref=None)
        assert (row.n_components, row.largest_component) == components_oracle(n, edges)
        diffs.append(abs(row.aspl - aspl_oracle(n, edges)))
        value = small_world_index(g, make_rng(idx, 1), n_ref=5)
        refs_rng = make_rng(idx, 1)
        refs = [sample_gnm(n, g.edge_count, refs_rng) for _ in range(5)]
        expected = small_world_oracle(n, edges, [(s.n, edge_set(s.adj)) for s in refs])
        if expected is None:
            assert value is None
        else:
            diffs.append(abs(value - expected))
        worst = max(worst, max(diffs))
        checked += 1
    # hand-enumerated examples
    hub = snapshot_from_edges(4, [(0, 1), (0, 2), (0, 3), (1, 2)])
    assert average_clustering(hub) == pytest.approx(7 / 12, abs=1e-12)
    full = snapshot_from_edges(5, [(i, j) for i in range(5) for j in range(i + 1, 5)])
    row = metrics_snapshot(full, make_rng(0, 0), n_ref=5)
    assert (row.avg_degree, row.clustering, row.aspl) == (4.0, 1.0, 1.0)
    assert (row.n_components, row.largest_component, row.small_world) == (1, 5, 1.0)
    row = metrics_snapshot(snapshot_from_edges(5, []), make_rng(0, 0), n_ref=5)
    assert (row.avg_degree, row.clustering, row.aspl) == (0.0, 0.0, 0.0)
    assert (row.n_components, row.largest_component, row.small_world) == (5, 1, None)
    report("08 metrics oracle equivalence", worst <= 1e-12,
           f"{checked} random graphs (n <= 12), worst deviation {worst:.2e}")


def _fixation_times(config, process):
    steps = config.steps
    trajectories = run_diffusion_rounds(config, process, workers=WORKERS)
    return np.array([t.fixation_time if t.fixation_time is not None else steps + 1
                     for t in trajectories])


@pytest.mark.parametrize("process,r", [("si", 1.0), ("si", 2.0),
                                       ("complex", 1.0), ("complex", 2.0)])
def test_09_diffusion_ordering(process, r):
    # Both processes should fixate more slowly on range-model networks
    # (Mann-Whitney, one-sided, p < 0.01, 100 rounds). The matched null is
    # denser and re-mixes every step: on a 10x10 grid 180 of 4950 tile pairs
    # are in range at r=1 (null p = 0.1) and 502 at r=2 (null p = 0.2).
    # Complex contagion orders like SI here: its hazard p_base + (k/N)*w is
    # linear in the infected-neighbor count k with no reinforcement threshold.
    # At the defaults (N=10, p_base=0.01, w=1) it is 0.11 and 0.21 for k = 1, 2,
    # against 0.10 and 0.19 for SI's 1 - 0.9**k.
    cfg = SIConfig(p_infect=0.1) if process == "si" else ComplexContagionConfig()
    steps = 600
    range_times = _fixation_times(range_cfg(n=10, g=10, r=r, steps=steps), cfg)
    null_times = _fixation_times(null_cfg(n=10, g=10, p_connect=r / 10, steps=steps), cfg)
    stat = mannwhitneyu(range_times, null_times, alternative="greater")
    report(f"09 diffusion ordering {process} r={r:g}", stat.pvalue < 0.01,
           f"range median {np.median(range_times):.0f} vs null "
           f"{np.median(null_times):.0f} steps, one-sided (greater) "
           f"p = {stat.pvalue:.2e}")


def test_10_biased_transmission_fixation():
    # p_a=0.1, p_b=0.2 in a connected setting: trait B fixates in >90% of rounds
    cfg = range_cfg(n=10, g=10, r=5.0, steps=2000)
    trajectories = run_diffusion_rounds(cfg, CulturalConfig(p_a=0.1, p_b=0.2),
                                        workers=WORKERS)
    b_wins = sum(t.fixation_time is not None and t.frequencies[-1] == -1.0
                 for t in trajectories)
    report("10 biased-transmission fixation", b_wins > 90,
           f"trait B fixated in {b_wins}/100 rounds (range model, r=5)")


def test_11_potion_density_effect():
    values = (0.0, 1.0, 2.0, 3.0, 4.0, 6.0, 8.0, 10.0)
    crossovers = {}
    for r in values:
        cfg = range_cfg(n=80, g=10, r=r)
        trajectories = run_diffusion_rounds(cfg, default_potion_config(), workers=WORKERS)
        crossovers[r] = sum(t.crossover_time is not None for t in trajectories)
    best = max(crossovers.values())
    peak_rs = [r for r, c in crossovers.items() if c == best]
    ok = (crossovers[0.0] == 0
          and all(1 <= r <= 4 for r in peak_rs)
          and crossovers[10.0] < best)
    report("11 potion density effect", ok,
           f"crossover rounds per r: { {int(r): c for r, c in crossovers.items()} }")


def test_12_determinism_parallelism(tmp_path):
    sweep = SweepConfig(base=range_cfg(n=12, g=6, r=1.0, steps=15, rounds=6),
                        vary="r", values=(1.0, 2.0), paired=True,
                        n_ref=5)
    serial = tmp_path / "serial.csv"
    parallel = tmp_path / "parallel.csv"
    write_csv(run_sweep(sweep, workers=1), str(serial))
    write_csv(run_sweep(sweep, workers=2), str(parallel))
    identical = serial.read_bytes() == parallel.read_bytes()
    report("12 determinism & parallelism", identical,
           f"serial vs parallel CSV bytes identical = {identical}")


def test_13_grid_size_thins_the_network():
    # Supplement Fig. S1: N = 9 agents with r = 3 on grids of side g. At
    # g = 3 the agents fill every tile and no two tiles lie farther apart
    # than 2*sqrt(2) < r, so every snapshot is complete. A larger grid
    # spreads the same agents over more tiles: fewer links, and the
    # network breaks into more and smaller components.
    values = (3.0, 4.0, 6.0, 10.0, 20.0, 50.0)
    sweep = SweepConfig(base=range_cfg(n=9, g=3, r=3.0, steps=50, rounds=20), vary="g",
                        values=values, n_ref=None)
    rows = run_sweep(sweep, workers=WORKERS)
    means = {name: [row.metrics[name].mean for row in rows]
             for name in ("avg_degree", "n_components", "largest_component")}
    complete = {"avg_degree": 8.0, "clustering": 1.0, "aspl": 1.0,
                "n_components": 1.0, "largest_component": 9.0}
    full = rows[0].metrics
    ok = all((full[name].mean, full[name].std) == (value, 0.0)
             for name, value in complete.items())
    degree = means["avg_degree"]
    ok = ok and all(a > b for a, b in zip(degree, degree[1:]))
    largest, count = means["largest_component"], means["n_components"]
    ok = ok and all(a >= b for a, b in zip(largest, largest[1:]))
    ok = ok and all(a <= b for a, b in zip(count, count[1:]))
    report("13 grid size thins the network", ok,
           f"g {[int(v) for v in values]}: degree {[round(v, 2) for v in degree]}, "
           f"components {[round(v, 2) for v in count]}, "
           f"largest {[round(v, 2) for v in largest]}")


def _spread(values, errors):
    """The mean of a sweep's values, its standard error, and the largest
    deviation of a value from the mean in units of the two errors summed.

    Cells share round seeds, so their errors may correlate; the mean of
    the errors bounds the mean's error whatever the correlation.
    """
    mean, mean_se = sum(values) / len(values), sum(errors) / len(errors)
    return mean, mean_se, max(abs(v - mean) / (e + mean_se) for v, e in zip(values, errors))


def test_14_degree_is_linear_in_n_not_in_g():
    # Fig. 4 against Fig. S1 of the supplement. Another agent is in range
    # with a chance q that the grid and r set, so mean degree is (N - 1) q:
    # a straight line in N, q = r/g exactly for the null. The g*g tiles
    # make q fall about as 1/g^2 only far from the border, so degree * g^2
    # is far from constant in g (README, "Derived acceptance
    # expectations").
    rounds = 20
    n_sweep = SweepConfig(base=range_cfg(n=5, g=7, r=2.0, steps=50, rounds=rounds), vary="n",
                          values=tuple(float(n) for n in range(5, 50, 5)), paired=True,
                          n_ref=None)
    g_values = (3.0, 4.0, 5.0, 6.0, 8.0, 10.0, 14.0, 20.0, 30.0, 50.0)
    g_sweep = SweepConfig(base=range_cfg(n=9, g=3, r=3.0, steps=50, rounds=rounds), vary="g",
                          values=g_values, n_ref=None)
    per_pair = {ModelKind.RANGE: ([], []), ModelKind.NULL: ([], [])}
    for row in run_sweep(n_sweep, workers=WORKERS):
        degree, others = row.metrics["avg_degree"], row.config.n - 1
        values, errors = per_pair[row.config.model]
        values.append(degree.mean / others)
        errors.append(degree.std / math.sqrt(rounds - 1) / others)
    range_q, _, range_dev = _spread(*per_pair[ModelKind.RANGE])
    null_q, null_se, null_dev = _spread(*per_pair[ModelKind.NULL])
    scaled, scaled_se = [], []
    for row in run_sweep(g_sweep, workers=WORKERS):
        degree, area = row.metrics["avg_degree"], row.config.g ** 2
        scaled.append(degree.mean * area)
        scaled_se.append(degree.std / math.sqrt(rounds - 1) * area)
    _, _, scaled_dev = _spread(scaled, scaled_se)
    ok = (range_dev <= 3 and null_dev <= 3 and abs(null_q - 2 / 7) <= 3 * null_se
          and scaled_dev > 3
          and all(v - scaled[0] > 3 * (e + scaled_se[0]) for v, e in zip(scaled[1:], scaled_se[1:])))
    report("14 degree is linear in N, not in g", ok,
           f"degree/(N-1): range {range_q:.4f} (largest deviation {range_dev:.1f} SE), "
           f"null {null_q:.4f} vs r/g {2 / 7:.4f} ({null_dev:.1f} SE); degree*g^2 over g "
           f"{[int(v) for v in g_values]}: {[round(v) for v in scaled]} "
           f"(largest deviation {scaled_dev:.1f} SE)")
