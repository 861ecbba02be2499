import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from rangesim.core import ExactDraws, ModelKind, SimConfig, make_rng
from rangesim.range_model import (
    FREE,
    init_population,
    max_sq_distance,
    range_links,
    step_range,
)

from measures import average_clustering, run_model
from oracles import RangeOracle, agent_xy, edge_count, edge_set, in_range_links_oracle


def config(**kwargs):
    defaults = dict(model=ModelKind.RANGE, n=10, g=10, r=2.0, steps=10, rounds=1, seed=1)
    defaults.update(kwargs)
    return SimConfig(**defaults)


# ranges where sqrt(d2) <= r sits at or next to a rounding boundary
EDGE_RANGES = (math.sqrt(2), math.sqrt(5), 2.0000000000000004, math.nextafter(1, 0))
SQRT_NEIGHBORS = (lambda s: math.nextafter(s, 0), lambda s: s,
                  lambda s: math.nextafter(s, math.inf))


def links(coordinates, r, g=10):
    """`range_links` on (x, y) tiles of a g-by-g grid as `step_range` sees
    them: flat tiles of the grid padded with a one-tile frame."""
    width = g + 2
    tiles = [(x + 1) * width + y + 1 for x, y in coordinates]
    return range_links(tiles, width, max_sq_distance(r, g))


def world_links(world, r):
    """`range_links` on a WorldState's padded tiles, as `step_range` calls it."""
    return range_links(world.positions, world.g + 2, max_sq_distance(r, world.g))


class TestRangeLinks:
    def test_two_agents_within_range(self):
        linked = links([(0, 0), (0, 1)], r=1.5)
        assert edge_set(linked) == {(0, 1)}

    def test_hand_layout(self):
        # four agents, g=4, r=1: only the orthogonally adjacent pairs link
        positions = [(0, 0), (0, 1), (2, 2), (3, 2)]
        linked = links(positions, r=1.0, g=4)
        assert edge_set(linked) == {(0, 1), (2, 3)}
        assert edge_set(linked) == in_range_links_oracle(positions, 1.0)

    def test_r_zero_never_links(self):
        rng = np.random.default_rng(5)
        world = init_population(config(n=30, g=8, r=0.0), rng)
        assert edge_set(world_links(world, 0.0)) == set()

    def test_monotone_in_r(self):
        rng = np.random.default_rng(11)
        world = init_population(config(n=25, g=9), rng)
        previous = set()
        for r in (0.0, 1.0, 1.5, 2.0, 3.0, 5.0, 13.0):
            current = edge_set(world_links(world, r))
            assert previous <= current
            previous = current

    @pytest.mark.parametrize("r", [1.0, 1.4])
    def test_below_diagonal_range_is_triangle_free(self, r):
        # for r < sqrt(2) every in-range offset flips the parity of x + y,
        # so the graph is bipartite: no triangle, clustering exactly 0
        for seed in range(5):
            world = init_population(config(n=40, g=8, r=r), np.random.default_rng(seed))
            linked = world_links(world, r)
            a = linked.astype(np.int64)
            assert linked.any()
            assert np.trace(a @ a @ a) == 0
            assert average_clustering(linked) == 0.0

    def test_diagonal_range_closes_triangles(self):
        block = [(0, 0), (0, 1), (1, 0), (1, 1)]
        a = links(block, math.sqrt(2)).astype(np.int64)
        assert np.trace(a @ a @ a) > 0

    @pytest.mark.parametrize("r,pairs", [(1.0, 180), (2.0, 502)])
    def test_full_grid_in_range_pairs(self, r, pairs):
        # the share of tile pairs in range sits below the matched null's r/g
        g = 10
        tiles = [(x, y) for x in range(g) for y in range(g)]
        total = len(tiles) * (len(tiles) - 1) // 2
        linked = len(edge_set(links(tiles, r, g)))
        assert (linked, total) == (pairs, 4950)
        assert linked / total < r / g

    @pytest.mark.parametrize("g", [1, 2, 5, 12])
    def test_threshold_is_the_sqrt_test(self, g):
        cap = 2 * (g - 1) ** 2
        boundaries = [near(math.sqrt(d)) for d in range(cap + 2) for near in SQRT_NEIGHBORS]
        for r in (*boundaries, *EDGE_RANGES, 7.5, 1e300, math.inf):
            bound = max_sq_distance(r, g)
            assert 0 <= bound <= cap
            assert [d2 <= bound for d2 in range(cap + 1)] == \
                [math.sqrt(d2) <= r for d2 in range(cap + 1)]


class TestStepRange:
    def test_matches_brute_force_every_step(self):
        for seed in (1, 2, 3):
            cfg = config(n=15, g=6, r=1.8, seed=seed)
            rng = make_rng(cfg.seed, 0)
            world = init_population(cfg, rng)
            draws = ExactDraws(rng)
            for _ in range(20):
                snap = step_range(world, cfg, draws)
                expected = in_range_links_oracle(agent_xy(world), cfg.r)
                assert edge_set(snap) == expected

    def test_chebyshev_displacement_at_most_one(self):
        cfg = config(n=20, g=7, r=2.0)
        rng = make_rng(cfg.seed, 0)
        world = init_population(cfg, rng)
        draws = ExactDraws(rng)
        for _ in range(30):
            before = np.array(agent_xy(world))
            step_range(world, cfg, draws)
            assert np.abs(np.array(agent_xy(world)) - before).max() <= 1

    def test_occupancy_stays_bijective(self):
        cfg = config(n=24, g=5, r=1.0)
        rng = make_rng(cfg.seed, 0)
        world = init_population(cfg, rng)
        draws = ExactDraws(rng)
        for _ in range(30):
            step_range(world, cfg, draws)
            assert len(set(world.positions)) == cfg.n
            assert all(world.grid[tile] == agent for agent, tile in enumerate(world.positions))
            assert world.grid.count(FREE) == cfg.g * cfg.g - cfg.n

    def test_r_zero_snapshot_empty(self):
        cfg = config(n=12, g=4, r=0.0)
        rng = make_rng(cfg.seed, 0)
        world = init_population(cfg, rng)
        draws = ExactDraws(rng)
        for _ in range(10):
            assert edge_count(step_range(world, cfg, draws)) == 0

    def test_complete_beyond_diagonal(self):
        g = 5
        cfg = config(n=10, g=g, r=g * math.sqrt(2))
        rng = make_rng(cfg.seed, 0)
        world = init_population(cfg, rng)
        draws = ExactDraws(rng)
        for _ in range(10):
            snap = step_range(world, cfg, draws)
            assert edge_count(snap) == cfg.n * (cfg.n - 1) // 2


@settings(max_examples=150, deadline=None, derandomize=True)
@given(g=st.integers(1, 12), seed=st.integers(0, 2**64 - 1), steps=st.integers(1, 6),
       r=st.one_of(st.sampled_from(EDGE_RANGES), st.floats(0, 17),
                   st.builds(lambda d, near: near(math.sqrt(d)), st.integers(0, 242),
                             st.sampled_from(SQRT_NEIGHBORS))),
       data=st.data())
def test_int_grid_matches_dict_reference(g, seed, steps, r, data):
    n = data.draw(st.integers(1, g * g), label="n")
    cfg = config(n=n, g=g, r=r, seed=seed)
    rng = make_rng(seed, 0)
    reference = RangeOracle(g, n, r, make_rng(seed, 0))
    world = init_population(cfg, rng)
    draws = ExactDraws(rng)
    assert agent_xy(world) == reference.positions
    for _ in range(steps):
        snap = step_range(world, cfg, draws)
        expected = reference.step()
        assert agent_xy(world) == reference.positions
        assert edge_set(snap) == expected
        # occupancy is a bijection between agents and occupied tiles
        held = {tile: agent for tile, agent in enumerate(world.grid) if agent >= 0}
        assert sorted(held.values()) == list(range(n))
        assert all(world.positions[agent] == tile for tile, agent in held.items())
    assert draws.random() == reference.rng.random()


def thresholds(g):
    """Ranges just below, at and just above each squared distance two
    tiles of a g-by-g grid can have."""
    d2s = sorted({dx * dx + dy * dy for dx in range(g) for dy in range(g)})
    return [near(math.sqrt(d2)) for d2 in d2s for near in SQRT_NEIGHBORS]


@settings(max_examples=200, deadline=None, derandomize=True)
@given(g=st.sampled_from([1, 2, 3, 10, 50]), data=st.data())
def test_tile_links_match_oracle(g, data):
    n = data.draw(st.integers(1, min(g * g, 60)), label="n")
    tiles = data.draw(st.lists(st.integers(0, g * g - 1), min_size=n, max_size=n,
                               unique=True), label="tiles")
    r = data.draw(st.sampled_from(thresholds(g)), label="r")
    coordinates = [divmod(t, g) for t in tiles]
    assert edge_set(links(coordinates, r, g)) == in_range_links_oracle(coordinates, r)


@pytest.mark.parametrize("g", [1, 2, 3, 10])
def test_saturated_tile_links_match_oracle(g):
    coordinates = [divmod(t, g) for t in range(g * g)]
    for r in thresholds(g):
        assert edge_set(links(coordinates, r, g)) == \
            in_range_links_oracle(coordinates, r)


def test_density_one_is_complete():
    # N = 9 agents fill the 3-by-3 grid, and r = 3 exceeds its diagonal
    linked = links([divmod(t, 3) for t in range(9)], 3.0, 3)
    assert edge_count(linked) == 9 * 8 // 2


def collect_snapshots(cfg, rng):
    snaps = []
    run_model(cfg, rng, [lambda t, s: snaps.append(s)])
    return snaps


class TestRunRange:
    def test_saturated_grid_never_moves(self):
        cfg = config(n=16, g=4, r=1.0, steps=15)
        rng = make_rng(cfg.seed, 0)
        world = init_population(cfg, rng)
        draws = ExactDraws(rng)
        initial = list(world.positions)
        for _ in range(cfg.steps):
            step_range(world, cfg, draws)
            assert world.positions == initial

    def test_snapshot_survives_the_next_step(self):
        # range_links reuses its distance buffers; the link matrix is new
        cfg = config(n=30, g=8, r=2.0)
        rng = make_rng(cfg.seed, 0)
        world = init_population(cfg, rng)
        draws = ExactDraws(rng)
        snap = step_range(world, cfg, draws)
        adj, positions = snap.copy(), agent_xy(world)
        step_range(world, cfg, draws)
        assert agent_xy(world) != positions
        assert np.array_equal(snap, adj)
        assert edge_set(adj) == in_range_links_oracle(positions, cfg.r)

    def test_deterministic_trajectory(self):
        cfg = config(n=12, g=6, r=1.5, steps=12, seed=99)
        runs = [collect_snapshots(cfg, make_rng(cfg.seed, 4)) for _ in range(2)]
        for a, b in zip(*runs):
            assert edge_set(a) == edge_set(b)

    def test_snapshot_count(self):
        snaps = collect_snapshots(config(steps=7), make_rng(1, 0))
        assert len(snaps) == 7
