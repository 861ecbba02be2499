from unittest import mock

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from rangesim import core
from rangesim.core import ConfigError, ExactDraws, ModelKind, SimConfig, make_rng
from rangesim.range_model import FREE, WorldState, init_population, step_range

from oracles import agent_xy, edge_set


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
        draws = ExactDraws(rng)
        assert len(world.positions) == 1
        assert edge_set(step_range(world, cfg, draws)) == set()

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


class FirstMove:
    """Draws for one `step_range` call: `agent` moves first and takes its
    legal move number `choice`; the others take their first legal move.
    `legal` records how many moves the first agent had."""

    def __init__(self, agent, choice):
        self.agent, self.choice, self.legal = agent, choice, None

    def permutation(self, n):
        return [self.agent] + [a for a in range(n) if a != self.agent]

    def integers(self, k):
        if self.legal is None:
            self.legal = k
            return self.choice
        return 0


def legal_moves(positions, agent, g):
    """The tiles a step can move `agent` to from `positions`, in draw
    order: where it lands moving first with each move number in turn."""
    targets = []
    while True:
        world = world_with(positions, g)
        draws = FirstMove(agent, len(targets))
        step_range(world, range_config(n=len(positions), g=g), draws)
        targets.append(agent_xy(world)[agent])
        if len(targets) == draws.legal:
            return targets


class TestCandidateMoves:
    def test_corner_on_empty_grid(self):
        assert legal_moves([(0, 0)], 0, g=4) == [(0, 0), (0, 1), (1, 0), (1, 1)]

    def test_interior_full_neighborhood(self):
        assert len(set(legal_moves([(2, 2)], 0, g=5))) == 9

    def test_fully_surrounded_agent_stays(self):
        center = (2, 2)
        ring = [(1, 1), (1, 2), (1, 3), (2, 1), (2, 3), (3, 1), (3, 2), (3, 3)]
        assert legal_moves([center] + ring, 0, g=5) == [(2, 2)]

    def test_current_tile_always_included(self):
        rng = np.random.default_rng(3)
        for _ in range(50):
            g = int(rng.integers(2, 8))
            n = int(rng.integers(1, g * g + 1))
            cfg = range_config(n=n, g=g, r=1.0)
            world = init_population(cfg, np.random.default_rng(int(rng.integers(1 << 30))))
            positions = agent_xy(world)
            agent = int(rng.integers(n))
            moves = legal_moves(positions, agent, g)
            cx, cy = positions[agent]
            assert (cx, cy) in moves
            assert len(set(moves)) == len(moves)
            for x, y in moves:
                assert 0 <= x < g and 0 <= y < g
                assert max(abs(x - cx), abs(y - cy)) <= 1
                assert (x, y) == (cx, cy) or (x, y) not in positions

    def test_order_is_row_major(self):
        moves = legal_moves([(1, 1)], 0, g=4)
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


# k = 1 draws nothing; near 3 * 2**30, 2**32 % k is about k / 3, so Lemire's
# method rejects about one 32-bit draw in four and the retry path runs
BOUNDS = st.one_of(st.just(1), st.integers(2, 9), st.integers(3 * 2**30 - 4, 3 * 2**30 + 4),
                   st.integers(1, 2**32 - 1))
DRAWS = st.one_of(st.tuples(st.just("integers"), BOUNDS), st.tuples(st.just("one-two"), st.none()),
                  st.tuples(st.just("random"), st.none()),
                  st.tuples(st.just("permutation"), st.integers(0, 40)))


class TestExactDraws:
    @settings(max_examples=300, deadline=None, derandomize=True)
    @given(seed=st.integers(0, 2**64 - 1), pending=st.booleans(),
           block=st.sampled_from((1, 3, 256)), calls=st.lists(DRAWS, max_size=150))
    def test_matches_generator(self, seed, pending, block, calls):
        wrapped, plain = make_rng(seed), make_rng(seed)
        if pending:  # leaves a word's high half in PCG64's 32-bit buffer
            assert wrapped.integers(5) == plain.integers(5)
        # the block size holds from the wrapper's first fill to its last
        with mock.patch.object(core, "_DRAW_BLOCK", block):
            draws = ExactDraws(wrapped)
            for call, arg in calls + [("permutation", 7)]:
                if call == "integers":
                    assert draws.integers(arg) == plain.integers(arg)
                elif call == "one-two":
                    assert 1 + draws.integers(2) == plain.integers(1, 3)
                elif call == "random":
                    assert draws.random() == plain.random()
                else:
                    assert draws.permutation(arg) == plain.permutation(arg).tolist()
            assert draws.integers(3) == plain.integers(3)
            assert draws.random() == plain.random()

    def test_rejections_redraw(self):
        draws, plain = ExactDraws(make_rng(5)), make_rng(5)
        k = 3 * 2**30 + 1
        assert [draws.integers(k) for _ in range(2000)] == plain.integers(k, size=2000).tolist()

    def test_values_are_python_numbers(self):
        draws = ExactDraws(make_rng(1))
        assert type(draws.integers(9)) is int and type(draws.random()) is float
        assert all(type(agent) is int for agent in draws.permutation(5))

    @pytest.mark.parametrize("k", [0, -3, 2**32, 2**40])
    def test_bound_outside_32_bits_rejected(self, k):
        with pytest.raises(ValueError):
            ExactDraws(make_rng(1)).integers(k)

    def test_needs_pcg64(self):
        with pytest.raises(TypeError):
            ExactDraws(np.random.Generator(np.random.MT19937(1)))
