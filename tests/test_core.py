import numpy as np
import pytest

from rangesim.core import (
    FREE,
    ConfigError,
    ModelKind,
    SimConfig,
    WorldState,
    candidate_moves,
    init_population,
    make_rng,
)
from rangesim.range_model import step_range

from oracles import agent_xy, edge_set, tile_xy


def range_config(**kwargs):
    defaults = dict(model=ModelKind.RANGE, n=10, g=10, r=2.0, steps=10, rounds=1, seed=1)
    defaults.update(kwargs)
    return SimConfig(**defaults)


def world_with(positions, g=10):
    return WorldState.place(g, positions)


class TestSimConfig:
    def test_range_requires_unique_positions(self):
        with pytest.raises(ConfigError):
            range_config(n=50, g=7)

    def test_range_requires_r(self):
        with pytest.raises(ConfigError):
            range_config(r=None)

    def test_negative_r_rejected(self):
        with pytest.raises(ConfigError):
            range_config(r=-0.5)

    def test_nan_r_rejected(self):
        # NaN fails every distance <= r test, so it would give empty graphs
        with pytest.raises(ConfigError):
            range_config(r=float("nan"))

    @pytest.mark.parametrize("p", [-0.1, 1.5])
    def test_p_connect_bounds(self, p):
        with pytest.raises(ConfigError):
            SimConfig(model=ModelKind.NULL, n=5, p_connect=p)

    def test_null_allows_n_above_tiles(self):
        SimConfig(model=ModelKind.NULL, n=200, g=7, p_connect=0.5)

    def test_saturated_grid_allowed(self):
        range_config(n=49, g=7)


class TestInitPopulation:
    def test_saturated_grid_occupies_every_tile(self):
        # N = g*g = 49: every tile taken exactly once
        cfg = range_config(n=49, g=7)
        world = init_population(cfg, make_rng(cfg.seed, 0))
        assert len(set(agent_xy(world))) == 49
        assert set(agent_xy(world)) == {(x, y) for x in range(7) for y in range(7)}

    def test_single_agent_no_links(self):
        cfg = range_config(n=1, g=4)
        rng = make_rng(cfg.seed, 0)
        world = init_population(cfg, rng)
        assert len(world.positions) == 1
        assert edge_set(step_range(world, cfg, rng).adj) == set()

    def test_same_seed_same_positions(self):
        cfg = range_config(n=10, g=10, seed=77)
        w1 = init_population(cfg, make_rng(cfg.seed, 3))
        w2 = init_population(cfg, make_rng(cfg.seed, 3))
        assert w1.positions == w2.positions

    def test_occupancy_is_bijection(self):
        cfg = range_config(n=30, g=8)
        world = init_population(cfg, make_rng(cfg.seed, 0))
        occupied = {tile: agent for tile, agent in enumerate(world.grid) if agent >= 0}
        assert len(occupied) == 30
        assert world.grid.count(FREE) == 8 * 8 - 30
        for tile, agent in occupied.items():
            assert world.positions[agent] == tile

    def test_positions_in_bounds(self):
        cfg = range_config(n=40, g=7)
        world = init_population(cfg, make_rng(cfg.seed, 0))
        for x, y in agent_xy(world):
            assert 0 <= x < 7 and 0 <= y < 7


class TestCandidateMoves:
    def test_corner_on_empty_grid(self):
        world = world_with([(0, 0)], g=4)
        moves = candidate_moves(world, 0)
        assert {tile_xy(world, mv) for mv in moves} == {(0, 0), (0, 1), (1, 0), (1, 1)}

    def test_interior_full_neighborhood(self):
        world = world_with([(2, 2)], g=5)
        assert len(candidate_moves(world, 0)) == 9

    def test_fully_surrounded_agent_stays(self):
        center = (2, 2)
        ring = [(1, 1), (1, 2), (1, 3), (2, 1), (2, 3), (3, 1), (3, 2), (3, 3)]
        world = world_with([center] + ring, g=5)
        assert [tile_xy(world, mv) for mv in candidate_moves(world, 0)] == [(2, 2)]

    def test_current_tile_always_included(self):
        rng = np.random.default_rng(3)
        for _ in range(50):
            g = int(rng.integers(2, 8))
            n = int(rng.integers(1, g * g + 1))
            cfg = range_config(n=n, g=g, r=1.0)
            world = init_population(cfg, np.random.default_rng(int(rng.integers(1 << 30))))
            agent = int(rng.integers(n))
            moves = candidate_moves(world, agent)
            current = world.positions[agent]
            assert current in moves
            cx, cy = tile_xy(world, current)
            for mv in moves:
                x, y = tile_xy(world, mv)
                assert 0 <= x < g and 0 <= y < g
                assert max(abs(x - cx), abs(y - cy)) <= 1
                assert world.grid[mv] in (FREE, agent)

    def test_order_is_row_major(self):
        world = world_with([(1, 1)], g=4)
        moves = [tile_xy(world, mv) for mv in candidate_moves(world, 0)]
        assert moves == sorted(moves)


class TestRngStreams:
    def test_same_key_same_stream(self):
        a = make_rng(9, 4, 1)
        b = make_rng(9, 4, 1)
        assert np.array_equal(a.random(8), b.random(8))

    def test_distinct_rounds_distinct_streams(self):
        a = make_rng(9, 0)
        b = make_rng(9, 1)
        assert not np.array_equal(a.random(8), b.random(8))
