import math

import numpy as np
import pytest

from rangesim.core import Coordinate, ModelKind, SimConfig, init_population, make_rng
from rangesim.harness import run_model
from rangesim.metrics import NetworkSnapshot, average_clustering
from rangesim.range_model import range_links, step_range

from oracles import edge_set, in_range_links_oracle


def config(**kwargs):
    defaults = dict(model=ModelKind.RANGE, n=10, g=10, r=2.0, steps=10, rounds=1, seed=1)
    defaults.update(kwargs)
    return SimConfig(**defaults)


class TestRangeLinks:
    def test_two_agents_within_range(self):
        linked = range_links([Coordinate(0, 0), Coordinate(0, 1)], r=1.5)
        assert edge_set(linked) == {(0, 1)}

    def test_hand_layout(self):
        # four agents, g=4, r=1: only the orthogonally adjacent pairs link
        positions = [Coordinate(0, 0), Coordinate(0, 1), Coordinate(2, 2), Coordinate(3, 2)]
        linked = range_links(positions, r=1.0)
        assert edge_set(linked) == {(0, 1), (2, 3)}
        assert edge_set(linked) == in_range_links_oracle(positions, 1.0)

    def test_r_zero_never_links(self):
        rng = np.random.default_rng(5)
        world = init_population(config(n=30, g=8, r=0.0), rng)
        assert edge_set(range_links(world.positions, 0.0)) == set()

    def test_monotone_in_r(self):
        rng = np.random.default_rng(11)
        world = init_population(config(n=25, g=9), rng)
        previous = set()
        for r in (0.0, 1.0, 1.5, 2.0, 3.0, 5.0, 13.0):
            current = edge_set(range_links(world.positions, r))
            assert previous <= current
            previous = current

    @pytest.mark.parametrize("r", [1.0, 1.4])
    def test_below_diagonal_range_is_triangle_free(self, r):
        # for r < sqrt(2) every in-range offset flips the parity of x + y,
        # so the graph is bipartite: no triangle, clustering exactly 0
        for seed in range(5):
            world = init_population(config(n=40, g=8, r=r), np.random.default_rng(seed))
            linked = range_links(world.positions, r)
            a = linked.astype(np.int64)
            assert linked.any()
            assert np.trace(a @ a @ a) == 0
            assert average_clustering(NetworkSnapshot(linked)) == 0.0

    def test_diagonal_range_closes_triangles(self):
        block = [Coordinate(0, 0), Coordinate(0, 1), Coordinate(1, 0), Coordinate(1, 1)]
        a = range_links(block, math.sqrt(2)).astype(np.int64)
        assert np.trace(a @ a @ a) > 0

    @pytest.mark.parametrize("r,pairs", [(1.0, 180), (2.0, 502)])
    def test_full_grid_in_range_pairs(self, r, pairs):
        # the share of tile pairs in range sits below the matched null's r/g
        g = 10
        tiles = [Coordinate(x, y) for x in range(g) for y in range(g)]
        total = len(tiles) * (len(tiles) - 1) // 2
        linked = len(edge_set(range_links(tiles, r)))
        assert (linked, total) == (pairs, 4950)
        assert linked / total < r / g


class TestStepRange:
    def test_matches_brute_force_every_step(self):
        for seed in (1, 2, 3):
            cfg = config(n=15, g=6, r=1.8, seed=seed)
            rng = make_rng(cfg.seed, 0)
            world = init_population(cfg, rng)
            for _ in range(20):
                snap = step_range(world, cfg, rng)
                expected = in_range_links_oracle(world.positions, cfg.r)
                assert edge_set(snap.adj) == expected
                assert edge_set(world.link_matrix) == expected

    def test_chebyshev_displacement_at_most_one(self):
        cfg = config(n=20, g=7, r=2.0)
        rng = make_rng(cfg.seed, 0)
        world = init_population(cfg, rng)
        for _ in range(30):
            before = list(world.positions)
            step_range(world, cfg, rng)
            for prev, now in zip(before, world.positions):
                assert max(abs(prev.x - now.x), abs(prev.y - now.y)) <= 1

    def test_occupancy_stays_bijective(self):
        cfg = config(n=24, g=5, r=1.0)
        rng = make_rng(cfg.seed, 0)
        world = init_population(cfg, rng)
        for _ in range(30):
            step_range(world, cfg, rng)
            assert len(set(world.positions)) == cfg.n
            assert all(world.positions[agent] == pos
                       for pos, agent in world.occupancy.items())

    def test_r_zero_snapshot_empty(self):
        cfg = config(n=12, g=4, r=0.0)
        rng = make_rng(cfg.seed, 0)
        world = init_population(cfg, rng)
        for _ in range(10):
            assert step_range(world, cfg, rng).edge_count == 0

    def test_complete_beyond_diagonal(self):
        g = 5
        cfg = config(n=10, g=g, r=g * math.sqrt(2))
        rng = make_rng(cfg.seed, 0)
        world = init_population(cfg, rng)
        for _ in range(10):
            snap = step_range(world, cfg, rng)
            assert snap.edge_count == cfg.n * (cfg.n - 1) // 2


def collect_snapshots(cfg, rng):
    snaps = []
    run_model(cfg, rng, [lambda t, s: snaps.append(s)])
    return snaps


class TestRunRange:
    def test_saturated_grid_never_moves(self):
        cfg = config(n=16, g=4, r=1.0, steps=15)
        rng = make_rng(cfg.seed, 0)
        world = init_population(cfg, rng)
        initial = list(world.positions)
        for _ in range(cfg.steps):
            step_range(world, cfg, rng)
            assert world.positions == initial

    def test_deterministic_trajectory(self):
        cfg = config(n=12, g=6, r=1.5, steps=12, seed=99)
        runs = [collect_snapshots(cfg, make_rng(cfg.seed, 4)) for _ in range(2)]
        for a, b in zip(*runs):
            assert edge_set(a.adj) == edge_set(b.adj)

    def test_snapshot_count(self):
        snaps = collect_snapshots(config(steps=7), make_rng(1, 0))
        assert len(snaps) == 7
