"""Spatial model timestep: move, connect while in range, disconnect.

Every timestep a fresh random agent order is drawn; each agent moves to
a uniform choice among its legal tiles, then links to every agent within
range r and drops links to agents beyond r.
"""

from __future__ import annotations

import math
from bisect import bisect_right
from functools import lru_cache
from typing import Callable

import numpy as np

from .core import FREE, ExactDraws, RngStream, SimConfig, WorldState, init_population
from .metrics import NetworkSnapshot


@lru_cache(maxsize=None)
def max_sq_distance(r: float, g: int) -> int:
    """Largest squared tile distance d2 on a g-by-g grid with sqrt(d2) <= r.

    `math.sqrt` is correctly rounded and so monotone: the d2 that pass
    form a prefix, and `d2 <= max_sq_distance(r, g)` is exactly the test
    `sqrt(d2) <= r` for every squared distance two tiles can have.
    """
    return bisect_right(range(2 * (g - 1) ** 2 + 1), r, key=math.sqrt) - 1


def range_links(coordinates: np.ndarray, d2_max: int) -> np.ndarray:
    """Boolean link matrix over (n, 2) integer tile coordinates.

    Pair (i, j) is linked iff its squared distance is at most d2_max.
    """
    # int32 holds every squared distance up to g = 32768, beyond any grid
    # whose occupancy list fits in memory, and halves int64's memory traffic
    x, y = np.asarray(coordinates, dtype=np.int32).T
    d2 = np.subtract.outer(x, x)
    d2 *= d2
    dy = np.subtract.outer(y, y)
    d2 += dy * dy
    linked = d2 <= d2_max
    np.fill_diagonal(linked, False)
    return linked


def step_range(world: WorldState, config: SimConfig, draws: ExactDraws) -> NetworkSnapshot:
    """Advance the world one timestep and return the resulting network.

    Movement is applied agent by agent in the drawn order, since occupancy
    makes move legality order-dependent. An agent's legal moves are its
    own tile and the free in-bounds tiles of its Moore neighborhood, in
    row-major order; one bounded draw picks among them, so an agent boxed
    in by the border and other agents stays put. The per-agent
    connect/disconnect passes consume no randomness and always converge to
    the distance<=r graph on the final positions, so links are evaluated
    once at the end of the sweep; the draw sequence is identical to the
    interleaved form.
    """
    grid, positions, moore = world.grid, world.positions, world.moore
    integers = draws.integers
    for agent in draws.permutation(world.n):
        here = positions[agent]
        grid[here] = FREE  # so the scan keeps the agent's own tile
        moves = [here + d for d in moore if grid[here + d] == FREE]
        target = moves[integers(len(moves))]
        grid[target] = agent
        positions[agent] = target
    return NetworkSnapshot(range_links(world.coordinates(),
                                       max_sq_distance(config.r, config.g)))


def range_stepper(config: SimConfig, rng: RngStream) -> Callable[[], NetworkSnapshot]:
    """Place a fresh population and return a function that advances it one timestep.

    After placement the stream's scalar draws are served by ExactDraws.
    """
    world = init_population(config, rng)
    draws = ExactDraws(rng)
    return lambda: step_range(world, config, draws)
