"""Spatial model: agents on a grid move, connect while in range, disconnect.

Every timestep a fresh random agent order is drawn; each agent moves to
a uniform choice among its legal tiles, then links to every agent within
range r and drops links to agents beyond r.

This module owns the grid. Coordinates are integers on a bounded g-by-g
grid: both components live in [0, g-1], giving exactly g*g tiles.
"""

from __future__ import annotations

import math
from bisect import bisect_right
from dataclasses import dataclass, field
from functools import lru_cache
from typing import Iterator, Sequence

import numpy as np

from .core import ExactDraws, RngStream, SimConfig

# Tile values of the padded occupancy grid besides agent indices.
FREE = -1
BORDER = -2


@dataclass
class WorldState:
    """Agent positions on the grid.

    The grid is stored with a one-tile BORDER frame, as a flat row-major
    list of (g+2)*(g+2) ints: tile (x, y) is `grid[(x+1)*(g+2) + y+1]` and
    holds the agent on it or FREE. `positions[agent]` is the flat index of
    the agent's tile, and `grid` is kept its inverse on the occupied tiles:
    no two agents ever share a tile.
    """

    g: int
    grid: list[int] = field(repr=False)
    positions: list[int]
    # flat offsets of the Moore neighborhood and the tile itself, row-major
    moore: tuple[int, ...] = field(init=False, repr=False)

    def __post_init__(self) -> None:
        width = self.g + 2
        self.moore = tuple(dx * width + dy for dx in (-1, 0, 1) for dy in (-1, 0, 1))

    @classmethod
    def place(cls, g: int, coordinates) -> "WorldState":
        """A world with agent i on tile coordinates[i]."""
        width = g + 2
        grid = [BORDER] * (width * width)
        for x in range(1, g + 1):
            grid[x * width + 1:x * width + g + 1] = [FREE] * g
        positions = [(x + 1) * width + y + 1 for x, y in coordinates]
        for agent, tile in enumerate(positions):
            grid[tile] = agent
        return cls(g=g, grid=grid, positions=positions)

    @property
    def n(self) -> int:
        return len(self.positions)


def init_population(config: SimConfig, rng: RngStream) -> WorldState:
    """Place N agents on distinct uniformly random tiles.

    Placement shuffles the g*g tile indices and takes the first N, which
    is uniform without replacement and consumes a fixed amount of
    randomness.
    """
    g = config.g
    tiles = rng.permutation(g * g)[:config.n].tolist()
    return WorldState.place(g, [divmod(t, g) for t in tiles])


@lru_cache(maxsize=None)
def max_sq_distance(r: float, g: int) -> int:
    """Largest squared tile distance d2 on a g-by-g grid with sqrt(d2) <= r.

    `math.sqrt` is correctly rounded and so monotone: the d2 that pass
    form a prefix, and `d2 <= max_sq_distance(r, g)` is exactly the test
    `sqrt(d2) <= r` for every squared distance two tiles can have.
    """
    return bisect_right(range(2 * (g - 1) ** 2 + 1), r, key=math.sqrt) - 1


def range_links(tiles: Sequence[int], width: int, d2_max: int) -> np.ndarray:
    """The (n, n) symmetric boolean adjacency, with a False diagonal, of
    agents on the flat tiles `x * width + y`, each y below `width`.

    Pair (i, j) is linked iff its squared distance is at most d2_max. A
    padded grid's frame offset cancels in the differences, so its tiles
    serve as they are.
    """
    # int32 holds every squared distance up to g = 32768, beyond any grid
    # whose occupancy list fits in memory, and halves int64's memory traffic
    x, y = np.divmod(np.array(tiles, dtype=np.int32), width)
    d2 = np.subtract.outer(x, x)
    d2 *= d2
    dy = np.subtract.outer(y, y)
    dy *= dy
    d2 += dy
    linked = d2 <= d2_max
    np.fill_diagonal(linked, False)
    return linked


def step_range(world: WorldState, config: SimConfig, draws: ExactDraws) -> np.ndarray:
    """Advance the world one timestep and return its network's adjacency.

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
    return range_links(positions, world.g + 2, max_sq_distance(config.r, config.g))


def range_snapshots(config: SimConfig, rng: RngStream) -> Iterator[np.ndarray]:
    """Place a fresh population and yield the network's adjacency after
    each timestep, without end.

    After placement the stream's scalar draws are served by ExactDraws.
    """
    world = init_population(config, rng)
    draws = ExactDraws(rng)
    while True:
        yield step_range(world, config, draws)
